//! The structured execution journal — observability for the engine.
//!
//! The dissertation's Bifrost evaluation hinges on *seeing* what an
//! experiment did: phase transitions (Figure 4.2), check verdicts over
//! moving windows (Figures 4.3/4.6), and engine cost under hundreds of
//! parallel strategies (Figures 4.7–4.10). The journal is the engine's
//! append-only event stream capturing exactly that provenance: every
//! check evaluation (with the window [`Summary`] it read and the
//! resulting [`CheckResult`]), every state-machine transition with its
//! triggering outcome, every routing enactment and gradual-rollout step,
//! every retired metric scope, and per-tick engine accounting.
//!
//! # Determinism
//!
//! A journal serialized with [`Journal::to_jsonl`] is **byte-for-byte
//! identical** across repeated runs with the same seed: one thread
//! evaluates, decides and appends, in strategy submission order, over a
//! seeded simulation; JSON is written through [`cex_core::json`]
//! (ordered members, shortest round-trip floats, no insignificant
//! whitespace), and the one
//! nondeterministic quantity — per-tick wall-clock busy time — is kept
//! in memory ([`JournalEvent::Tick::busy`]) but deliberately **excluded**
//! from the serialized form. The journal, not the live
//! [`microsim::monitor::MetricStore`], is the long-term record of an
//! experiment; the store prunes a strategy's retired scopes once the
//! final checks are journaled.

use crate::checks::CheckResult;
use crate::error::BifrostError;
use crate::machine::{PhaseOutcome, State};
use crate::model::CheckScope;
use cex_core::json::{write_uint, Json, ObjectWriter};
use cex_core::metrics::{MetricKind, Summary};
use cex_core::obs::Counters;
use cex_core::simtime::SimTime;
use microsim::resilience::BreakerState;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// The two members every line leads with: the event's tag, and its
/// virtual time in milliseconds.
const TAG: &str = "ev";
const TIME: &str = "t";

/// A field's codec: the one `Wire` picks by the field's type, unless the
/// declaration names another after `as`.
macro_rules! codec {
    () => {
        Wire
    };
    ($codec:expr) => {
        $codec
    };
}

/// Declares [`JournalEvent`] and derives its wire format from that one
/// declaration: the `ev` tag and the `t` time, then the other fields in
/// member order, each keyed by its name and travelling by its `codec!`.
/// DESIGN.md § "Execution journal" quotes the format (a test holds the two
/// together); the test-only tree encoder spells it again, independently,
/// as the byte oracle.
macro_rules! journal_events {
    ($(#[$meta:meta])* pub enum JournalEvent {
        $($(#[$vmeta:meta])* $variant:ident $tag:literal {
            $(#[$tmeta:meta])* time: SimTime,
            $($(#[$fmeta:meta])* $field:ident: $ty:ty $(as $codec:expr)?,)*
        },)*
    }) => {
        $(#[$meta])*
        pub enum JournalEvent {
            $($(#[$vmeta])* $variant {
                $(#[$tmeta])* time: SimTime,
                $($(#[$fmeta])* $field: $ty,)*
            },)*
        }

        impl JournalEvent {
            /// Virtual time of the event.
            pub fn time(&self) -> SimTime {
                match self {
                    $(JournalEvent::$variant { time, .. })|* => *time,
                }
            }

            /// Appends the event's JSON line (without the newline) to `out`,
            /// member by member: no tree, no allocation besides the output.
            fn write_json(&self, out: &mut String) {
                let mut w = ObjectWriter::begin(out);
                match self {
                    $(JournalEvent::$variant { time, $($field),* } => {
                        w.str(TAG, $tag);
                        Wire.put(time, TIME, &mut w);
                        $(codec!($($codec)?).put($field, stringify!($field), &mut w);)*
                    })*
                }
                w.end();
            }

            /// Reads one parsed line back. Each member must be one the
            /// declaration names, once; any other is an error naming its key.
            fn from_json(json: &Json) -> Result<JournalEvent, String> {
                let Json::Obj(all) = json else { return Err(malformed(TAG)) };
                let mut line = Line { all, read: 0 };
                let event = match line.get(TAG).and_then(Json::as_str) {
                    $(Some($tag) => JournalEvent::$variant {
                        time: Wire.take(&mut line, TIME).map_err(malformed)?,
                        $($field: codec!($($codec)?)
                            .take(&mut line, stringify!($field))
                            .map_err(malformed)?,)*
                    },)*
                    Some(other) => return Err(format!("unknown event kind '{other}'")),
                    None => return Err(malformed(TAG)),
                };
                match line.unread() {
                    Some(key) => Err(format!("unexpected member {key}")),
                    None => Ok(event),
                }
            }
        }
    };
}

journal_events! {
    /// One entry of the execution journal, stamped with virtual time.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalEvent {
        /// A routing configuration was applied: phase entry, re-entry
        /// (retry), or a gradual-rollout step.
        Enacted "enact" {
            /// Virtual time of the enactment.
            time: SimTime,
            /// The strategy enacting.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// Phase kind keyword (`canary`, `dark_launch`, …).
            kind: &'static str as PHASE_KINDS,
            /// Candidate traffic share in percent (0 for dark launches).
            percent: f64,
        },
        /// One check evaluation, with the windowed summaries it read.
        Check "check" {
            /// Virtual time of the evaluation.
            time: SimTime,
            /// The strategy whose check ran.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// Check index within the phase.
            check: usize,
            /// The monitored metric.
            metric: MetricKind,
            /// The check's scope.
            scope: CheckScope,
            /// `true` for the phase-boundary evaluation deciding the
            /// phase outcome, `false` for a scheduled mid-phase evaluation.
            boundary: bool,
            /// The verdict.
            result: CheckResult,
            /// Window summary of the primarily read scope.
            primary: Summary,
            /// Window summary of the baseline side (two-sided scopes only).
            baseline: Option<Summary>,
        },
        /// A state-machine transition with its triggering outcome.
        Transition "transition" {
            /// Virtual time of the transition.
            time: SimTime,
            /// The strategy that transitioned.
            strategy: Arc<str>,
            /// State left.
            from: State,
            /// State entered.
            to: State,
            /// The phase outcome that triggered it.
            outcome: PhaseOutcome,
        },
        /// A scheduled chaos injection was armed: the engine translated a
        /// phase's [`crate::model::ChaosSpec`] into a simulator fault window.
        Chaos "chaos" {
            /// Virtual time the injection was armed (phase entry).
            time: SimTime,
            /// The strategy whose phase scheduled it.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// Chaos kind keyword (`outage`, `latency_spike`, `error_burst`,
            /// `zone_outage`, `latency_storm`).
            kind: &'static str as CHAOS_KINDS,
            /// Kind magnitude (latency multiplier / extra error rate; zero
            /// for outages).
            magnitude: f64,
            /// Label of the afflicted version (`service@version`).
            target: String,
            /// Fault window start (inclusive).
            from: SimTime,
            /// Fault window end (exclusive).
            until: SimTime,
        },
        /// A circuit breaker in the simulated request path changed state —
        /// the resilience layer reacting to (or recovering from) a fault.
        Breaker "breaker" {
            /// Virtual time of the transition.
            time: SimTime,
            /// Label of the calling version.
            caller: String,
            /// Label of the guarded callee version.
            callee: String,
            /// State left.
            from: BreakerState,
            /// State entered.
            to: BreakerState,
        },
        /// A trace-derived health snapshot, journaled at every phase-boundary
        /// evaluation while trace collection is active: the canary-vs-baseline
        /// worst-edge verdict distilled from the engine's health accumulator
        /// (see [`microsim::health::HealthReport`]).
        HealthSnapshot "health" {
            /// Virtual time of the snapshot (the phase boundary).
            time: SimTime,
            /// The strategy assessed.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// Traces folded into the accumulator so far (engine-wide).
            traces: u64,
            /// Traces whose root span failed.
            failed: u64,
            /// Baseline `service@version` label.
            baseline: String,
            /// Canary `service@version` label.
            canary: String,
            /// Most degraded logical endpoint, `None` when the service's
            /// edges saw no traffic yet.
            worst_edge: Option<String>,
            /// Its degradation score ([`microsim::health::EdgeDelta::score`]).
            score: f64,
            /// Its canary − baseline error-rate delta.
            error_rate_delta: f64,
            /// Its canary − baseline p95 latency delta (ms).
            p95_delta_ms: f64,
            /// Retained traces the collector's retention ring evicted
            /// ([`microsim::trace::TraceCollector::dropped`]).
            dropped: u64,
            /// Traces always retained by the tail-sampling rule (error status
            /// or sketch-flagged slow); `0` when tail sampling is off.
            tail_kept: u64,
            /// Healthy traces retained as weighted 1-in-`k` representatives;
            /// `0` when tail sampling is off.
            downsampled: u64,
        },
        /// A guarded gradual rollout took a ramp decision at a step boundary:
        /// advance one step, retreat one step, or hold at the floor — driven
        /// by the instantaneous harm evidence of the phase's sequential
        /// checks (see [`crate::decide::RAMP_WARN_LR`]).
        Ramp "ramp" {
            /// Virtual time of the decision (the step boundary).
            time: SimTime,
            /// The strategy ramping.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// The decision taken (`advance`, `retreat`, or `hold`).
            decision: &'static str as RAMP_DECISIONS,
            /// Candidate traffic percent after the decision.
            percent: f64,
            /// Strongest instantaneous harm-direction likelihood ratio among the
            /// phase's sequential guards at decision time; `+∞` on extreme
            /// evidence (`SequentialTest::lambda`), which JSON writes `null`.
            lr_harm: f64 as NullAs(f64::INFINITY),
        },
        /// A phase concluded before its scheduled boundary: the always-valid
        /// sequential checks reached a verdict mid-phase, so the engine
        /// promoted (or aborted) without waiting out the clock.
        EarlyStop "early_stop" {
            /// Virtual time of the early conclusion.
            time: SimTime,
            /// The strategy that stopped early.
            strategy: Arc<str>,
            /// Phase name.
            phase: Arc<str>,
            /// The outcome the sequential evidence decided.
            outcome: PhaseOutcome,
            /// The deciding always-valid p-value: the worst (largest) p among
            /// the sequential checks that crossed their threshold.
            p: f64,
        },
        /// A retired metric scope was pruned from the live store (the
        /// journal keeps the long-term record).
        ScopeCleared "scope_cleared" {
            /// Virtual time of the pruning.
            time: SimTime,
            /// The terminal strategy whose scope retired.
            strategy: Arc<str>,
            /// The pruned scope.
            scope: String,
        },
        /// A runtime self-observability report: the unified counter-registry snapshot
        /// ([`Counters`]) emitted at the configured cadence
        /// ([`crate::engine::EngineConfig::runtime_report_every`]). Every value is a
        /// pure function of the seed — wall-clock timings live only in the sidecar
        /// profile ([`crate::engine::ExecutionReport::runtime`]), never here — so the
        /// serialized journal stays byte-identical across runs with runtime
        /// reporting enabled.
        Runtime "runtime" {
            /// Virtual time of the report.
            time: SimTime,
            /// Control-loop iteration the report was taken after (0-based).
            tick: u64,
            /// The merged engine + simulation counter registry snapshot.
            counters: Counters,
        },
        /// Per-tick engine accounting.
        Tick "tick" {
            /// Virtual time at the end of the tick.
            time: SimTime,
            /// Control-loop iteration number (0-based).
            tick: u64,
            /// Strategies still running after this tick.
            active: usize,
            /// Check evaluations performed this tick.
            due_checks: u64,
            /// Cumulative windowed metric reads served by the store.
            window_reads: u64,
            /// Engine wall-clock busy time this tick. **Not serialized**: wall
            /// time varies run to run and the serialized journal does not;
            /// [`Journal::from_jsonl`] restores this as zero.
            busy: Duration as Skipped,
        },
    }
}

impl JournalEvent {
    /// The strategy the event belongs to, or `None` for engine-wide
    /// events.
    pub fn strategy(&self) -> Option<&str> {
        match self {
            JournalEvent::Enacted { strategy, .. }
            | JournalEvent::Check { strategy, .. }
            | JournalEvent::Transition { strategy, .. }
            | JournalEvent::Chaos { strategy, .. }
            | JournalEvent::HealthSnapshot { strategy, .. }
            | JournalEvent::Ramp { strategy, .. }
            | JournalEvent::EarlyStop { strategy, .. }
            | JournalEvent::ScopeCleared { strategy, .. } => Some(strategy.as_ref()),
            JournalEvent::Breaker { .. }
            | JournalEvent::Runtime { .. }
            | JournalEvent::Tick { .. } => None,
        }
    }
}

fn malformed(key: &str) -> String {
    format!("missing or malformed {key}")
}

/// The members of one parsed line, each marked as a codec reads it.
struct Line<'a> {
    all: &'a [(String, Json)],
    /// Bit `i` set: `all[i]` was read (no event has 64 members).
    read: u64,
}

impl<'a> Line<'a> {
    /// The value of the first member named `key`, marked read.
    fn get(&mut self, key: &str) -> Option<&'a Json> {
        let i = self.all.iter().position(|(k, _)| k == key)?;
        self.read |= 1u64.checked_shl(i as u32).unwrap_or(0);
        Some(&self.all[i].1)
    }

    /// The key of the first member nothing read: one the declaration does
    /// not name, or a repeat.
    fn unread(&self) -> Option<&'a str> {
        let read = |i: usize| self.read.checked_shr(i as u32).is_some_and(|bits| bits & 1 == 1);
        (0..self.all.len()).find(|&i| !read(i)).map(|i| self.all[i].0.as_str())
    }
}

/// How one field travels: put as member `key` of its event's object, and
/// taken back from the parsed line. A failed take names the key it missed.
trait Codec<T> {
    fn put(&self, value: &T, key: &'static str, w: &mut ObjectWriter<'_>);
    fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<T, &'static str>;
}

/// The codec a field's type picks.
struct Wire;

/// `impl Codec<T> for Wire` for each type `T` that travels as one member:
/// how a value is put, and how the member's value reads back.
macro_rules! wire {
    ($($ty:ty: |$v:ident, $key:ident, $w:ident| $put:expr, |$j:ident| $take:expr;)*) => {$(
        impl Codec<$ty> for Wire {
            fn put(&self, $v: &$ty, $key: &'static str, $w: &mut ObjectWriter<'_>) {
                $put
            }
            fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<$ty, &'static str> {
                line.get(key).and_then(|$j| $take).ok_or(key)
            }
        }
    )*};
}

wire! {
    SimTime: |t, key, w| w.uint(key, t.as_millis()), |j| j.as_u64().map(SimTime::from_millis);
    u64: |n, key, w| w.uint(key, *n), |j| j.as_u64();
    usize: |n, key, w| w.uint(key, *n as u64), |j| j.as_u64().map(|n| n as usize);
    f64: |x, key, w| w.num(key, *x), |j| j.as_f64();
    bool: |b, key, w| w.bool(key, *b), |j| if let Json::Bool(b) = j { Some(*b) } else { None };
    Arc<str>: |s, key, w| w.str(key, s), |j| j.as_str().map(Arc::from);
    String: |s, key, w| w.str(key, s), |j| j.as_str().map(String::from);
    Summary: |s, key, w| s.write_json(w.value(key)), |j| Summary::from_json(j);
    State: |s, key, w| w.str(key, &s.to_string()), |j| State::parse(j.as_str()?);
    PhaseOutcome: |o, key, w| w.str(key, o.name()), |j| PhaseOutcome::from_name(j.as_str()?);
    MetricKind: |m, key, w| w.str(key, m.name()), |j| MetricKind::from_name(j.as_str()?);
    CheckScope: |s, key, w| w.str(key, s.name()), |j| CheckScope::from_name(j.as_str()?);
    CheckResult: |r, key, w| w.str(key, r.name()), |j| CheckResult::from_name(j.as_str()?);
    BreakerState: |s, key, w| w.str(key, s.name()), |j| BreakerState::from_name(j.as_str()?);
}

/// `None` travels as `null`.
impl<T> Codec<Option<T>> for Wire
where
    Wire: Codec<T>,
{
    fn put(&self, value: &Option<T>, key: &'static str, w: &mut ObjectWriter<'_>) {
        match value {
            Some(value) => self.put(value, key, w),
            None => w.null(key),
        }
    }

    fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<Option<T>, &'static str> {
        match line.get(key) {
            Some(Json::Null) => Ok(None),
            _ => self.take(line, key).map(Some),
        }
    }
}

/// A `runtime` event's registry travels as two name → value tables, the
/// counts under the field's key and the high-water gauges under
/// [`GAUGES`]; the names in them are made at run time.
impl Codec<Counters> for Wire {
    fn put(&self, counters: &Counters, key: &'static str, w: &mut ObjectWriter<'_>) {
        write_table(w.value(key), counters.counts());
        write_table(w.value(GAUGES), counters.gauges());
    }

    fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<Counters, &'static str> {
        let mut counters = Counters::new();
        let fold = [(key, Counters::add as fn(&mut Counters, &str, u64)), (GAUGES, Counters::hwm)];
        for (key, apply) in fold {
            let Some(Json::Obj(table)) = line.get(key) else { return Err(key) };
            for (name, value) in table {
                apply(&mut counters, name, value.as_u64().ok_or(key)?);
            }
        }
        Ok(counters)
    }
}

/// The key of a `runtime` event's gauge table.
const GAUGES: &str = "gauges";

fn write_table<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    let mut table = ObjectWriter::begin(out);
    for (name, value) in entries {
        write_uint(value, table.value_escaped(name));
    }
    table.end();
}

/// The words each keyword field can hold: every one the engine writes
/// (`PhaseKind::keyword`, `engine::chaos_journal_kind`, `decide`'s ramp
/// decisions — a test feeds each through the reader). Written as they are,
/// read back as the static word, so the field keeps its `&'static str`.
const PHASE_KINDS: &[&str] = &["canary", "dark_launch", "ab_test", "gradual_rollout"];
const CHAOS_KINDS: &[&str] =
    &["outage", "latency_spike", "error_burst", "zone_outage", "latency_storm"];
const RAMP_DECISIONS: &[&str] = &["advance", "retreat", "hold"];

impl Codec<&'static str> for &[&'static str] {
    fn put(&self, word: &&'static str, key: &'static str, w: &mut ObjectWriter<'_>) {
        w.str(key, word);
    }

    fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<&'static str, &'static str> {
        let word = line.get(key).and_then(Json::as_str);
        self.iter().copied().find(|k| Some(*k) == word).ok_or(key)
    }
}

/// An `f64` with one documented non-finite value: written `null` like any
/// non-finite number, and `null` reads back as that value.
struct NullAs(f64);

impl Codec<f64> for NullAs {
    fn put(&self, x: &f64, key: &'static str, w: &mut ObjectWriter<'_>) {
        w.num(key, *x);
    }

    fn take(&self, line: &mut Line<'_>, key: &'static str) -> Result<f64, &'static str> {
        match line.get(key) {
            Some(Json::Null) => Ok(self.0),
            _ => Wire.take(line, key),
        }
    }
}

/// A field kept off the wire; it reads back as its type's default.
struct Skipped;

impl<T: Default> Codec<T> for Skipped {
    fn put(&self, _: &T, _: &'static str, _: &mut ObjectWriter<'_>) {}

    fn take(&self, _: &mut Line<'_>, _: &'static str) -> Result<T, &'static str> {
        Ok(T::default())
    }
}

/// One point of the per-strategy check-verdict trace (the Figure 4.3/4.6
/// material regenerated from a journal).
#[derive(Debug, Clone, PartialEq)]
pub struct CheckTracePoint {
    /// Virtual time of the evaluation.
    pub time: SimTime,
    /// Phase the check ran in.
    pub phase: String,
    /// Check index within the phase.
    pub check: usize,
    /// The verdict.
    pub result: CheckResult,
    /// Mean of the primary window the verdict was derived from.
    pub observed: f64,
    /// `true` for the phase-boundary evaluation.
    pub boundary: bool,
}

/// Options for [`Journal::render_timeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineOptions {
    /// Width of the timeline in character columns.
    pub width: usize,
}

impl Default for TimelineOptions {
    fn default() -> Self {
        TimelineOptions { width: 72 }
    }
}

/// The append-only execution journal of one engine run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

impl Journal {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// Appends one event.
    pub fn record(&mut self, event: JournalEvent) {
        self.events.push(event);
    }

    /// All events in append order (which is virtual-time order).
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when no events were journaled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Strategies appearing in the journal, in first-appearance order.
    pub fn strategies(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for s in self.events.iter().filter_map(JournalEvent::strategy) {
            if !out.iter().any(|known| known == s) {
                out.push(s.to_string());
            }
        }
        out
    }

    /// Serializes to line-delimited JSON, one event per line. The output
    /// is byte-identical across runs with the same seed (see the module
    /// docs for what that guarantee rests on).
    pub fn to_jsonl(&self) -> String {
        // Reserved once: a check event, the bulk of any journal, is ~250
        // bytes. Pages the text never reaches are never touched.
        let mut out = String::with_capacity(self.events.len() * 256);
        for event in &self.events {
            event.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Reads a journal back from the line-delimited JSON produced by
    /// [`Journal::to_jsonl`]. Blank lines are ignored; tick busy times
    /// are restored as zero (they are not serialized).
    ///
    /// # Errors
    ///
    /// Returns [`BifrostError::Journal`] on malformed lines.
    pub fn from_jsonl(src: &str) -> Result<Journal, BifrostError> {
        let mut events = Vec::new();
        for (i, line) in src.lines().enumerate().filter(|(_, line)| !line.trim().is_empty()) {
            let at = |e: String| BifrostError::Journal(format!("line {}: {e}", i + 1));
            let json = Json::parse(line).map_err(|e| at(e.to_string()))?;
            events.push(JournalEvent::from_json(&json).map_err(at)?);
        }
        Ok(Journal { events })
    }

    /// The check-verdict trace of one strategy: every journaled check
    /// evaluation in time order. Replaying this regenerates the moving-
    /// window verdict plots of Figures 4.3/4.6 without re-running the
    /// engine.
    pub fn check_trace(&self, strategy: &str) -> Vec<CheckTracePoint> {
        self.events
            .iter()
            .filter_map(|event| match event {
                JournalEvent::Check {
                    time,
                    strategy: s,
                    phase,
                    check,
                    result,
                    primary,
                    boundary,
                    ..
                } if s.as_ref() == strategy => Some(CheckTracePoint {
                    time: *time,
                    phase: phase.to_string(),
                    check: *check,
                    result: *result,
                    observed: primary.mean,
                    boundary: *boundary,
                }),
                _ => None,
            })
            .collect()
    }

    /// Final state of each strategy (last transition target), in
    /// first-appearance order; strategies with no terminal transition map
    /// to their last known state.
    pub fn final_states(&self) -> Vec<(String, State)> {
        self.strategies()
            .into_iter()
            .map(|name| {
                let last = self
                    .events
                    .iter()
                    .rev()
                    .find_map(|event| match event {
                        JournalEvent::Transition { strategy, to, .. }
                            if strategy.as_ref() == name =>
                        {
                            Some(*to)
                        }
                        _ => None,
                    })
                    .unwrap_or(State::Phase(0));
                (name, last)
            })
            .collect()
    }

    /// Renders a per-strategy timeline as a text Gantt chart (mirroring
    /// `fenrir::gantt`): one row per strategy, phases drawn with shaded
    /// bars, terminal transitions marked `✓` (completed) / `✗` (rolled
    /// back).
    ///
    /// # Panics
    ///
    /// Panics when `options.width` is zero.
    pub fn render_timeline(&self, options: TimelineOptions) -> String {
        assert!(options.width > 0, "width must be positive");
        const PHASE_GLYPHS: [char; 4] = ['█', '▓', '▒', '░'];
        let end = self.events.last().map_or(SimTime::ZERO, JournalEvent::time);
        let span_ms = end.as_millis().max(1);
        let cols = options.width;
        let col_of = |t: SimTime| {
            (((t.as_millis() as u128 * cols as u128) / span_ms as u128) as usize).min(cols - 1)
        };

        let strategies = self.strategies();
        let name_width =
            strategies.iter().map(String::len).max().unwrap_or(8).max("strategy".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:name_width$} | timeline ({span_ms} ms, {} ms/column)  █▓▒░ = phase 1-4 (cycling), ✓ done, ✗ rolled back",
            "strategy",
            span_ms / cols as u64,
        );
        for name in &strategies {
            let mut bar = vec!['·'; cols];
            // Walk this strategy's state through its transitions and
            // paint each phase's interval.
            let mut state = State::Phase(0);
            let mut since = self
                .events
                .iter()
                .find(|e| e.strategy() == Some(name))
                .map_or(SimTime::ZERO, JournalEvent::time);
            let mut terminal: Option<(SimTime, char)> = None;
            for event in &self.events {
                let JournalEvent::Transition { time, strategy, to, .. } = event else {
                    continue;
                };
                if strategy.as_ref() != name.as_str() {
                    continue;
                }
                if let State::Phase(i) = state {
                    for slot in bar.iter_mut().take(col_of(*time) + 1).skip(col_of(since)) {
                        *slot = PHASE_GLYPHS[i % PHASE_GLYPHS.len()];
                    }
                }
                state = *to;
                since = *time;
                match to {
                    State::Completed => terminal = Some((*time, '✓')),
                    State::RolledBack => terminal = Some((*time, '✗')),
                    State::Phase(_) => {}
                }
            }
            // A strategy still running when the engine stopped paints to
            // the end of the journal.
            if let State::Phase(i) = state {
                for slot in bar.iter_mut().take(col_of(end) + 1).skip(col_of(since)) {
                    *slot = PHASE_GLYPHS[i % PHASE_GLYPHS.len()];
                }
            }
            if let Some((t, mark)) = terminal {
                bar[col_of(t)] = mark;
            }
            let bar: String = bar.into_iter().collect();
            let _ = writeln!(out, "{name:name_width$} |{bar}|");
        }
        // Engine-load footprint: due checks per tick, bucketed per column.
        let mut due = vec![0u64; cols];
        for event in &self.events {
            if let JournalEvent::Tick { time, due_checks, .. } = event {
                due[col_of(*time)] += due_checks;
            }
        }
        let peak = due.iter().copied().max().unwrap_or(0).max(1);
        let load: String = due
            .iter()
            .map(|d| match (d * 8).div_ceil(peak) {
                0 => '·',
                1 | 2 => '▁',
                3 | 4 => '▃',
                5 | 6 => '▅',
                7 => '▆',
                _ => '█',
            })
            .collect();
        let _ = writeln!(out, "{:name_width$} |{load}| due checks per tick", "engine load");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::json::obj;
    use cex_core::simtime::SimDuration;

    /// The tree encoder the streaming one replaced, kept as the oracle
    /// [`JournalEvent::write_json`] is compared against byte for byte.
    fn tree(event: &JournalEvent) -> Json {
        let t = |time: &SimTime| Json::Num(time.as_millis() as f64);
        match event {
            JournalEvent::Enacted { time, strategy, phase, kind, percent } => obj(vec![
                ("ev", Json::Str("enact".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("phase", Json::Str(phase.to_string())),
                ("kind", Json::Str(kind.to_string())),
                ("percent", Json::Num(*percent)),
            ]),
            JournalEvent::Check {
                time,
                strategy,
                phase,
                check,
                metric,
                scope,
                boundary,
                result,
                primary,
                baseline,
            } => obj(vec![
                ("ev", Json::Str("check".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("phase", Json::Str(phase.to_string())),
                ("check", Json::Num(*check as f64)),
                ("metric", Json::Str(metric.name().into())),
                ("scope", Json::Str(scope.name().into())),
                ("boundary", Json::Bool(*boundary)),
                ("result", Json::Str(result.name().into())),
                ("primary", summary_tree(primary)),
                ("baseline", baseline.as_ref().map_or(Json::Null, summary_tree)),
            ]),
            JournalEvent::Transition { time, strategy, from, to, outcome } => obj(vec![
                ("ev", Json::Str("transition".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("from", Json::Str(from.to_string())),
                ("to", Json::Str(to.to_string())),
                ("outcome", Json::Str(outcome.name().into())),
            ]),
            JournalEvent::Chaos { time, strategy, phase, kind, magnitude, target, from, until } => {
                obj(vec![
                    ("ev", Json::Str("chaos".into())),
                    ("t", t(time)),
                    ("strategy", Json::Str(strategy.to_string())),
                    ("phase", Json::Str(phase.to_string())),
                    ("kind", Json::Str(kind.to_string())),
                    ("magnitude", Json::Num(*magnitude)),
                    ("target", Json::Str(target.clone())),
                    ("from", t(from)),
                    ("until", t(until)),
                ])
            }
            JournalEvent::Breaker { time, caller, callee, from, to } => obj(vec![
                ("ev", Json::Str("breaker".into())),
                ("t", t(time)),
                ("caller", Json::Str(caller.clone())),
                ("callee", Json::Str(callee.clone())),
                ("from", Json::Str(from.name().into())),
                ("to", Json::Str(to.name().into())),
            ]),
            JournalEvent::HealthSnapshot {
                time,
                strategy,
                phase,
                traces,
                failed,
                baseline,
                canary,
                worst_edge,
                score,
                error_rate_delta,
                p95_delta_ms,
                dropped,
                tail_kept,
                downsampled,
            } => obj(vec![
                ("ev", Json::Str("health".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("phase", Json::Str(phase.to_string())),
                ("traces", Json::Num(*traces as f64)),
                ("failed", Json::Num(*failed as f64)),
                ("baseline", Json::Str(baseline.clone())),
                ("canary", Json::Str(canary.clone())),
                ("worst_edge", worst_edge.as_ref().map_or(Json::Null, |e| Json::Str(e.clone()))),
                ("score", Json::Num(*score)),
                ("error_rate_delta", Json::Num(*error_rate_delta)),
                ("p95_delta_ms", Json::Num(*p95_delta_ms)),
                ("dropped", Json::Num(*dropped as f64)),
                ("tail_kept", Json::Num(*tail_kept as f64)),
                ("downsampled", Json::Num(*downsampled as f64)),
            ]),
            JournalEvent::Ramp { time, strategy, phase, decision, percent, lr_harm } => obj(vec![
                ("ev", Json::Str("ramp".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("phase", Json::Str(phase.to_string())),
                ("decision", Json::Str(decision.to_string())),
                ("percent", Json::Num(*percent)),
                ("lr_harm", Json::Num(*lr_harm)),
            ]),
            JournalEvent::EarlyStop { time, strategy, phase, outcome, p } => obj(vec![
                ("ev", Json::Str("early_stop".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("phase", Json::Str(phase.to_string())),
                ("outcome", Json::Str(outcome.name().into())),
                ("p", Json::Num(*p)),
            ]),
            JournalEvent::ScopeCleared { time, strategy, scope } => obj(vec![
                ("ev", Json::Str("scope_cleared".into())),
                ("t", t(time)),
                ("strategy", Json::Str(strategy.to_string())),
                ("scope", Json::Str(scope.clone())),
            ]),
            JournalEvent::Runtime { time, tick, counters } => {
                let table = |entries: Vec<(String, u64)>| {
                    Json::Obj(entries.into_iter().map(|(k, v)| (k, Json::Num(v as f64))).collect())
                };
                obj(vec![
                    ("ev", Json::Str("runtime".into())),
                    ("t", t(time)),
                    ("tick", Json::Num(*tick as f64)),
                    (
                        "counters",
                        table(counters.counts().map(|(k, v)| (k.to_string(), v)).collect()),
                    ),
                    ("gauges", table(counters.gauges().map(|(k, v)| (k.to_string(), v)).collect())),
                ])
            }
            JournalEvent::Tick { time, tick, active, due_checks, window_reads, busy: _ } => {
                obj(vec![
                    ("ev", Json::Str("tick".into())),
                    ("t", t(time)),
                    ("tick", Json::Num(*tick as f64)),
                    ("active", Json::Num(*active as f64)),
                    ("due_checks", Json::Num(*due_checks as f64)),
                    ("window_reads", Json::Num(*window_reads as f64)),
                ])
            }
        }
    }

    fn summary_tree(s: &Summary) -> Json {
        obj(vec![
            ("n", Json::Num(s.count as f64)),
            ("mean", Json::Num(s.mean)),
            ("sd", Json::Num(s.std_dev)),
            ("min", Json::Num(s.min)),
            ("max", Json::Num(s.max)),
        ])
    }

    fn line(event: &JournalEvent) -> String {
        let mut out = String::new();
        event.write_json(&mut out);
        out
    }

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        let t = SimTime::from_secs;
        j.record(JournalEvent::Enacted {
            time: t(0),
            strategy: "s1".into(),
            phase: "canary".into(),
            kind: "canary",
            percent: 10.0,
        });
        j.record(JournalEvent::Check {
            time: t(30),
            strategy: "s1".into(),
            phase: "canary".into(),
            check: 0,
            metric: MetricKind::ErrorRate,
            scope: CheckScope::Candidate,
            boundary: false,
            result: CheckResult::Pass,
            primary: Summary::of(&[0.0, 0.1]),
            baseline: None,
        });
        j.record(JournalEvent::Check {
            time: t(60),
            strategy: "s1".into(),
            phase: "canary".into(),
            check: 1,
            metric: MetricKind::ResponseTime,
            scope: CheckScope::CandidateVsBaseline,
            boundary: true,
            result: CheckResult::Inconclusive,
            primary: Summary::of(&[120.0]),
            baseline: Some(Summary::of(&[100.0, 110.0])),
        });
        j.record(JournalEvent::Chaos {
            time: t(40),
            strategy: "s1".into(),
            phase: "canary".into(),
            kind: "latency_spike",
            magnitude: 3.5,
            target: "svc@2.0.0".into(),
            from: t(45),
            until: t(55),
        });
        j.record(JournalEvent::Breaker {
            time: t(50),
            caller: "web@1.0.0".into(),
            callee: "svc@2.0.0".into(),
            from: BreakerState::Closed,
            to: BreakerState::Open,
        });
        j.record(JournalEvent::Transition {
            time: t(60),
            strategy: "s1".into(),
            from: State::Phase(0),
            to: State::Phase(1),
            outcome: PhaseOutcome::Success,
        });
        j.record(JournalEvent::Transition {
            time: t(120),
            strategy: "s1".into(),
            from: State::Phase(1),
            to: State::Completed,
            outcome: PhaseOutcome::Success,
        });
        j.record(JournalEvent::HealthSnapshot {
            time: t(60),
            strategy: "s1".into(),
            phase: "canary".into(),
            traces: 480,
            failed: 3,
            baseline: "svc@1.0.0".into(),
            canary: "svc@2.0.0".into(),
            worst_edge: Some("api".into()),
            score: 62.5,
            error_rate_delta: 0.0625,
            p95_delta_ms: 12.25,
            dropped: 16,
            tail_kept: 7,
            downsampled: 48,
        });
        j.record(JournalEvent::ScopeCleared {
            time: t(120),
            strategy: "s1".into(),
            scope: "svc@1.0.0".into(),
        });
        j.record(JournalEvent::Runtime {
            time: t(120),
            tick: 0,
            counters: {
                let mut c = cex_core::obs::Counters::new();
                c.add("engine.ticks", 12);
                c.add("sim.events.popped", 4821);
                c.hwm("sim.queue_hwm.svc", 7);
                c
            },
        });
        j.record(JournalEvent::Tick {
            time: t(120),
            tick: 0,
            active: 0,
            due_checks: 2,
            window_reads: 3,
            busy: Duration::from_micros(250),
        });
        j
    }

    #[test]
    fn jsonl_round_trips_modulo_busy_time() {
        let journal = sample_journal();
        let text = journal.to_jsonl();
        assert_eq!(text.lines().count(), journal.len());
        let back = Journal::from_jsonl(&text).unwrap();
        assert_eq!(back.len(), journal.len());
        // Everything round-trips except the wall-clock busy time, which
        // is intentionally not serialized.
        for (orig, parsed) in journal.events().iter().zip(back.events()) {
            match (orig, parsed) {
                (JournalEvent::Tick { busy, .. }, JournalEvent::Tick { busy: parsed_busy, .. }) => {
                    assert!(*busy > Duration::ZERO);
                    assert_eq!(*parsed_busy, Duration::ZERO);
                }
                (o, p) => assert_eq!(o, p),
            }
        }
        // Re-serializing the parsed journal is byte-identical.
        assert_eq!(back.to_jsonl(), text);
    }

    /// One event of every variant, the optional members both ways, built
    /// around a hostile string, number and integer.
    fn one_of_each(text: &str, x: f64, n: u64) -> Vec<JournalEvent> {
        let time = SimTime::from_millis(n);
        let name: Arc<str> = text.into();
        let keyword: &'static str = Box::leak(text.to_string().into_boxed_str());
        let summary = Summary { count: n, mean: x, std_dev: -x, min: x / 3.0, max: x * 3.0 };
        let mut counters = cex_core::obs::Counters::new();
        counters.add(text, n);
        counters.add("plain.counter", 1);
        counters.hwm(text, n);
        let check = |baseline| JournalEvent::Check {
            time,
            strategy: name.clone(),
            phase: name.clone(),
            check: n as usize,
            metric: MetricKind::all()[(n % 12) as usize],
            scope: CheckScope::SequentialVsBaseline,
            boundary: n.is_multiple_of(2),
            result: CheckResult::Inconclusive,
            primary: summary,
            baseline,
        };
        let health = |worst_edge| JournalEvent::HealthSnapshot {
            time,
            strategy: name.clone(),
            phase: name.clone(),
            traces: n,
            failed: n / 2,
            baseline: text.into(),
            canary: text.into(),
            worst_edge,
            score: x,
            error_rate_delta: -x,
            p95_delta_ms: x,
            dropped: n,
            tail_kept: n,
            downsampled: n,
        };
        vec![
            JournalEvent::Enacted {
                time,
                strategy: name.clone(),
                phase: name.clone(),
                kind: keyword,
                percent: x,
            },
            check(None),
            check(Some(summary)),
            JournalEvent::Transition {
                time,
                strategy: name.clone(),
                from: State::Phase(n as usize),
                to: State::RolledBack,
                outcome: PhaseOutcome::Inconclusive,
            },
            JournalEvent::Chaos {
                time,
                strategy: name.clone(),
                phase: name.clone(),
                kind: keyword,
                magnitude: x,
                target: text.into(),
                from: time,
                until: time,
            },
            JournalEvent::Breaker {
                time,
                caller: text.into(),
                callee: text.into(),
                from: BreakerState::HalfOpen,
                to: BreakerState::Open,
            },
            health(None),
            health(Some(text.into())),
            JournalEvent::Ramp {
                time,
                strategy: name.clone(),
                phase: name.clone(),
                decision: keyword,
                percent: x,
                lr_harm: x,
            },
            JournalEvent::EarlyStop {
                time,
                strategy: name.clone(),
                phase: name.clone(),
                outcome: PhaseOutcome::Failure,
                p: x,
            },
            JournalEvent::ScopeCleared { time, strategy: name.clone(), scope: text.into() },
            JournalEvent::Runtime { time, tick: n, counters },
            JournalEvent::Runtime { time, tick: n, counters: cex_core::obs::Counters::new() },
            JournalEvent::Tick {
                time,
                tick: n,
                active: n as usize,
                due_checks: n,
                window_reads: n,
                busy: Duration::from_nanos(n),
            },
        ]
    }

    /// Position of the event's variant in the enum — exhaustive, so a new
    /// variant cannot be added without the byte-identity test covering it.
    fn variant(event: &JournalEvent) -> usize {
        match event {
            JournalEvent::Enacted { .. } => 0,
            JournalEvent::Check { .. } => 1,
            JournalEvent::Transition { .. } => 2,
            JournalEvent::Chaos { .. } => 3,
            JournalEvent::Breaker { .. } => 4,
            JournalEvent::HealthSnapshot { .. } => 5,
            JournalEvent::Ramp { .. } => 6,
            JournalEvent::EarlyStop { .. } => 7,
            JournalEvent::ScopeCleared { .. } => 8,
            JournalEvent::Runtime { .. } => 9,
            JournalEvent::Tick { .. } => 10,
        }
    }

    #[test]
    fn streamed_lines_equal_the_tree_oracle_byte_for_byte() {
        let texts = [
            "",
            "plain",
            "quo\"te",
            "back\\slash",
            "\\\"",
            "line\nfeed\rreturn\ttab",
            "\u{0}\u{1}\u{8}\u{c}\u{1f}\u{7f}",
            "é€😀 mixed \"\u{2}\" ü",
            "{\"ev\":\"tick\"}",
        ];
        let numbers = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.1 + 0.2,
            1e-7,
            123456.789,
            8_999_999_999_999_999.0,
            9.0e15,
            -9.0e15,
            9_007_199_254_740_993.0,
            1e21,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            -5e-324,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let integers =
            [0, 1, 7, 10, 8_999_999_999_999_999, 9_000_000_000_000_000, 1 << 53, u64::MAX];
        let mut seen = [false; 11];
        let mut lines = 0;
        for (i, text) in texts.iter().enumerate() {
            for (j, &x) in numbers.iter().enumerate() {
                let n = integers[(i + j) % integers.len()];
                for event in one_of_each(text, x, n) {
                    assert_eq!(line(&event), tree(&event).to_string(), "{event:?}");
                    seen[variant(&event)] = true;
                    lines += 1;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "every variant encoded: {seen:?}");
        assert_eq!(lines, texts.len() * numbers.len() * 14);
        // And the whole-journal entry point is those lines, newline-ended.
        let journal = sample_journal();
        let expected: String = journal.events().iter().map(|e| format!("{}\n", tree(e))).collect();
        assert_eq!(journal.to_jsonl(), expected);
        assert_eq!(Journal::new().to_jsonl(), "");
    }

    #[test]
    fn an_infinite_likelihood_ratio_reads_back() {
        // Regression: `SequentialTest::lambda` reaches `+∞`, a guarded ramp
        // journals it as `lr_harm`, the writer renders it `null`, and the
        // reader used to reject the engine's own line ("missing or
        // malformed lr_harm").
        let mut journal = Journal::new();
        for lr_harm in [f64::INFINITY, 0.0, 3.5] {
            journal.record(JournalEvent::Ramp {
                time: SimTime::from_secs(90),
                strategy: "s1".into(),
                phase: "ramp".into(),
                decision: "retreat",
                percent: 10.0,
                lr_harm,
            });
        }
        let text = journal.to_jsonl();
        assert!(text.lines().next().unwrap().ends_with("\"lr_harm\":null}"), "{text}");
        let back = Journal::from_jsonl(&text).expect("the engine reads what it wrote");
        assert_eq!(back, journal);
        assert_eq!(back.to_jsonl(), text);
        // Absent or mistyped is still malformed.
        for broken in [text.replace(",\"lr_harm\":null", ""), text.replace("null", "\"inf\"")] {
            let err = Journal::from_jsonl(&broken).unwrap_err();
            assert!(err.to_string().contains("lr_harm"), "{err}");
        }
    }

    #[test]
    fn the_other_float_fields_cannot_be_written_non_finite() {
        // The sweep beside the `lr_harm` fix. `p` is `min(1, 1/Λ)` of a
        // running minimum, inside [0, 1]; `score`, `error_rate_delta` and
        // `p95_delta_ms` are differences of rates guarded against empty
        // edges and of sketch quantiles of finite latencies; `magnitude`
        // is a chaos multiplier `Strategy::validate` requires finite (see
        // `model::tests::chaos_multiplier_must_be_finite`). None has a
        // documented non-finite value, so a `null` there is not something
        // the engine wrote and the reader keeps rejecting it by name.
        let mut journal = sample_journal();
        journal.record(JournalEvent::EarlyStop {
            time: SimTime::from_secs(90),
            strategy: "s1".into(),
            phase: "canary".into(),
            outcome: PhaseOutcome::Failure,
            p: 0.004,
        });
        for (field, kind) in
            [("p", 7), ("score", 5), ("error_rate_delta", 5), ("p95_delta_ms", 5), ("magnitude", 3)]
        {
            let event = journal.events().iter().find(|e| variant(e) == kind).unwrap();
            let mut json = tree(event);
            assert_eq!(
                Journal::from_jsonl(&json.to_string()).unwrap().events(),
                std::slice::from_ref(event)
            );
            let Json::Obj(members) = &mut json else { unreachable!() };
            members.iter_mut().find(|(key, _)| key == field).unwrap().1 = Json::Null;
            let err = Journal::from_jsonl(&json.to_string()).unwrap_err();
            assert!(err.to_string().contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn serialized_form_is_stable() {
        let journal = sample_journal();
        let first_line = journal.to_jsonl().lines().next().unwrap().to_string();
        assert_eq!(
            first_line,
            "{\"ev\":\"enact\",\"t\":0,\"strategy\":\"s1\",\"phase\":\"canary\",\
             \"kind\":\"canary\",\"percent\":10}"
        );
        assert!(journal.to_jsonl().lines().all(|l| !l.contains(' ')), "no whitespace");
    }

    #[test]
    fn malformed_lines_are_rejected_with_location() {
        for (src, needle) in [
            ("not json", "line 1"),
            ("{\"ev\":\"warp\",\"t\":1}", "unknown event kind"),
            ("{\"t\":1}", "ev"),
            ("{\"ev\":\"transition\",\"t\":1,\"strategy\":\"s\",\"from\":\"phase#0\",\"to\":\"limbo\",\"outcome\":\"success\"}", "to"),
            ("{\"ev\":\"check\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"check\":0,\"metric\":\"latency\",\"scope\":\"candidate\",\"result\":\"pass\",\"primary\":{}}", "metric"),
            ("{\"ev\":\"breaker\",\"t\":1,\"caller\":\"a\",\"callee\":\"b\",\"from\":\"closed\",\"to\":\"fried\"}", "to"),
            ("{\"ev\":\"chaos\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"kind\":\"meteor\",\"magnitude\":1,\"target\":\"x\",\"from\":0,\"until\":1}", "kind"),
            ("{\"ev\":\"health\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"failed\":0,\"baseline\":\"a\",\"canary\":\"b\",\"worst_edge\":null,\"score\":0,\"error_rate_delta\":0,\"p95_delta_ms\":0}", "traces"),
            ("{\"ev\":\"runtime\",\"t\":1,\"tick\":0,\"counters\":{\"a\":1}}", "gauges"),
            ("{\"ev\":\"runtime\",\"t\":1,\"tick\":0,\"counters\":{\"a\":-1},\"gauges\":{}}", "counters"),
            // `boundary` is a strict bool: missing or mistyped is not `false`.
            ("{\"ev\":\"check\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"check\":0,\"metric\":\"error_rate\",\"scope\":\"candidate\",\"result\":\"pass\",\"primary\":{\"n\":1,\"mean\":0,\"sd\":0,\"min\":0,\"max\":0},\"baseline\":null}", "boundary"),
            ("{\"ev\":\"check\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"check\":0,\"metric\":\"error_rate\",\"scope\":\"candidate\",\"boundary\":1,\"result\":\"pass\",\"primary\":{\"n\":1,\"mean\":0,\"sd\":0,\"min\":0,\"max\":0},\"baseline\":null}", "boundary"),
            ("{\"ev\":\"check\",\"t\":1,\"strategy\":\"s\",\"phase\":\"p\",\"check\":0,\"metric\":\"error_rate\",\"scope\":\"candidate\",\"boundary\":\"true\",\"result\":\"pass\",\"primary\":{\"n\":1,\"mean\":0,\"sd\":0,\"min\":0,\"max\":0},\"baseline\":null}", "boundary"),
            // A member the event does not declare, or one declared member twice.
            ("{\"ev\":\"scope_cleared\",\"t\":1,\"strategy\":\"s\",\"scope\":\"x\",\"extra\":1}", "unexpected member extra"),
            ("{\"ev\":\"scope_cleared\",\"t\":1,\"strategy\":\"s\",\"scope\":\"x\",\"strategy\":\"s\"}", "unexpected member strategy"),
        ] {
            let err = Journal::from_jsonl(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src} -> {err}");
        }
        // Blank lines are fine.
        let ok = Journal::from_jsonl("\n\n").unwrap();
        assert!(ok.is_empty());
    }

    #[test]
    fn every_keyword_the_engine_writes_reads_back() {
        use crate::engine::chaos_journal_kind;
        use crate::model::{ChaosKind, ChaosSpec, ChaosTarget, PhaseKind};
        let reads_back = |event: JournalEvent| {
            let text = line(&event);
            assert_eq!(JournalEvent::from_json(&Json::parse(&text).unwrap()), Ok(event), "{text}");
        };
        let (time, strategy, phase): (_, Arc<str>, Arc<str>) =
            (SimTime::from_secs(1), "s".into(), "p".into());
        // One value of every variant; the exhaustive matches stop compiling
        // when the model grows one, as a reminder to list it here too.
        let phase_kinds = [
            PhaseKind::Canary { traffic_percent: 5.0 },
            PhaseKind::DarkLaunch,
            PhaseKind::AbTest { split_percent: 50.0 },
            PhaseKind::GradualRollout {
                from_percent: 10.0,
                to_percent: 100.0,
                step_percent: 10.0,
                step_duration: SimDuration::from_secs(60),
                guarded: true,
            },
        ];
        let chaos_kinds = [
            ChaosKind::LatencySpike { multiplier: 3.0 },
            ChaosKind::ErrorBurst { extra_error_rate: 0.5 },
            ChaosKind::Outage,
            ChaosKind::LatencyStorm { multiplier: 3.0 },
        ];
        let targets =
            [ChaosTarget::Candidate, ChaosTarget::Baseline, ChaosTarget::Zone("z".into())];
        for kind in &phase_kinds {
            match kind {
                PhaseKind::Canary { .. }
                | PhaseKind::DarkLaunch
                | PhaseKind::AbTest { .. }
                | PhaseKind::GradualRollout { .. } => {}
            }
            let (strategy, phase, kind) = (strategy.clone(), phase.clone(), kind.keyword());
            reads_back(JournalEvent::Enacted { time, strategy, phase, kind, percent: 5.0 });
        }
        for kind in chaos_kinds {
            match kind {
                ChaosKind::LatencySpike { .. }
                | ChaosKind::ErrorBurst { .. }
                | ChaosKind::Outage
                | ChaosKind::LatencyStorm { .. } => {}
            }
            for target in &targets {
                match target {
                    ChaosTarget::Candidate | ChaosTarget::Baseline | ChaosTarget::Zone(_) => {}
                }
                let spec = ChaosSpec {
                    kind,
                    target: target.clone(),
                    start_after: SimDuration::ZERO,
                    duration: SimDuration::from_secs(60),
                };
                reads_back(JournalEvent::Chaos {
                    time,
                    strategy: strategy.clone(),
                    phase: phase.clone(),
                    kind: chaos_journal_kind(&spec),
                    magnitude: 1.0,
                    target: "svc@1.0.0".into(),
                    from: time,
                    until: time,
                });
            }
        }
        // The three decisions `decide::ramp_step` takes.
        for decision in ["advance", "retreat", "hold"] {
            let (strategy, phase) = (strategy.clone(), phase.clone());
            let (percent, lr_harm) = (10.0, 1.0);
            reads_back(JournalEvent::Ramp { time, strategy, phase, decision, percent, lr_harm });
        }
    }

    #[test]
    fn design_md_quotes_the_wire_format() {
        // The `| `tag` | `key` … |` rows of DESIGN.md § "Execution journal".
        let design = include_str!("../../../DESIGN.md");
        let section = design.split("\n## Execution journal").nth(1).unwrap();
        let section = section.split("\n## ").next().unwrap();
        let ticked = |cell: &str| -> Vec<String> {
            cell.split('`').skip(1).step_by(2).map(String::from).collect()
        };
        let rows: Vec<(Vec<String>, Vec<String>)> = section
            .lines()
            .filter(|row| row.starts_with("| `"))
            .map(|row| {
                let cells: Vec<&str> = row.split('|').collect();
                (ticked(cells[1]), ticked(cells[2]))
            })
            .collect();
        // The members the writer puts on the wire, one row per variant in
        // declaration order.
        let mut wire: Vec<(Vec<String>, Vec<String>)> = Vec::new();
        for event in one_of_each("s", 1.0, 1) {
            let Json::Obj(members) = Json::parse(&line(&event)).unwrap() else { unreachable!() };
            let (tag, keys) = members.split_first().unwrap();
            assert_eq!(tag.0, "ev");
            let tag = vec![tag.1.as_str().unwrap().to_string()];
            let row = (tag, keys.iter().map(|(k, _)| k.clone()).collect());
            if wire.last() != Some(&row) {
                wire.push(row);
            }
        }
        assert_eq!(wire.len(), 11);
        assert_eq!(rows, wire);
    }

    #[test]
    fn check_trace_extracts_one_strategys_verdicts() {
        let journal = sample_journal();
        let trace = journal.check_trace("s1");
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].result, CheckResult::Pass);
        assert!(!trace[0].boundary);
        assert_eq!(trace[1].check, 1);
        assert!(trace[1].boundary);
        assert!((trace[1].observed - 120.0).abs() < 1e-12);
        assert!(journal.check_trace("ghost").is_empty());
    }

    #[test]
    fn strategies_and_final_states() {
        let journal = sample_journal();
        assert_eq!(journal.strategies(), vec!["s1".to_string()]);
        assert_eq!(journal.final_states(), vec![("s1".to_string(), State::Completed)]);
    }

    #[test]
    fn timeline_renders_rows_and_terminal_marks() {
        let journal = sample_journal();
        let text = journal.render_timeline(TimelineOptions { width: 24 });
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("timeline"));
        assert!(lines[1].starts_with("s1"));
        assert!(lines[1].contains('█'), "phase 0 painted: {text}");
        assert!(lines[1].contains('✓'), "completion marked: {text}");
        assert!(lines[2].contains("due checks"));
    }

    #[test]
    fn event_accessors() {
        let journal = sample_journal();
        assert_eq!(journal.events()[0].time(), SimTime::ZERO);
        assert_eq!(journal.events()[0].strategy(), Some("s1"));
        let tick = journal.events().last().unwrap();
        assert_eq!(tick.strategy(), None);
        assert_eq!(tick.time(), SimTime::ZERO + SimDuration::from_secs(120));
    }
}
