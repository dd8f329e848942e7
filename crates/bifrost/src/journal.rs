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
use cex_core::simtime::SimTime;
use microsim::resilience::BreakerState;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// One entry of the execution journal, stamped with virtual time.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// A routing configuration was applied: phase entry, re-entry
    /// (retry), or a gradual-rollout step.
    Enacted {
        /// Virtual time of the enactment.
        time: SimTime,
        /// The strategy enacting.
        strategy: Arc<str>,
        /// Phase name.
        phase: Arc<str>,
        /// Phase kind keyword (`canary`, `dark_launch`, …).
        kind: &'static str,
        /// Candidate traffic share in percent (0 for dark launches).
        percent: f64,
    },
    /// One check evaluation, with the windowed summaries it read.
    Check {
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
    Transition {
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
    Chaos {
        /// Virtual time the injection was armed (phase entry).
        time: SimTime,
        /// The strategy whose phase scheduled it.
        strategy: Arc<str>,
        /// Phase name.
        phase: Arc<str>,
        /// Chaos kind keyword (`outage`, `latency_spike`, `error_burst`).
        kind: &'static str,
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
    Breaker {
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
    HealthSnapshot {
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
    /// checks (see [`crate::checks::SequentialState::warns`]).
    Ramp {
        /// Virtual time of the decision (the step boundary).
        time: SimTime,
        /// The strategy ramping.
        strategy: Arc<str>,
        /// Phase name.
        phase: Arc<str>,
        /// The decision taken (`advance`, `retreat`, or `hold`).
        decision: &'static str,
        /// Candidate traffic percent after the decision.
        percent: f64,
        /// Strongest instantaneous harm-direction likelihood ratio among
        /// the phase's sequential guards at decision time.
        lr_harm: f64,
    },
    /// A phase concluded before its scheduled boundary: the always-valid
    /// sequential checks reached a verdict mid-phase, so the engine
    /// promoted (or aborted) without waiting out the clock.
    EarlyStop {
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
    ScopeCleared {
        /// Virtual time of the pruning.
        time: SimTime,
        /// The terminal strategy whose scope retired.
        strategy: Arc<str>,
        /// The pruned scope.
        scope: String,
    },
    /// A runtime self-observability report: the unified counter-registry
    /// snapshot ([`cex_core::obs::Counters`]) emitted at the configured
    /// cadence ([`crate::engine::EngineConfig::runtime_report_every`]).
    /// Every value is a pure function of the seed — wall-clock timings
    /// live only in the sidecar profile
    /// ([`crate::engine::ExecutionReport::runtime`]), never here — so
    /// the serialized journal stays byte-identical across runs with
    /// runtime reporting enabled.
    Runtime {
        /// Virtual time of the report.
        time: SimTime,
        /// Control-loop iteration the report was taken after (0-based).
        tick: u64,
        /// The merged engine + simulation counter registry snapshot.
        counters: cex_core::obs::Counters,
    },
    /// Per-tick engine accounting.
    Tick {
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
        /// Engine wall-clock busy time this tick. **Not serialized** —
        /// wall time varies run to run, and the serialized journal is
        /// bit-identical across runs; [`Journal::from_jsonl`] restores
        /// this as zero.
        busy: Duration,
    },
}

/// Resolves a parsed phase-kind keyword back to its canonical static
/// form (the engine only ever journals [`crate::model::PhaseKind`]
/// keywords).
fn kind_keyword(name: &str) -> Option<&'static str> {
    ["canary", "dark_launch", "ab_test", "gradual_rollout"].into_iter().find(|k| *k == name)
}

/// Same resolution for chaos kinds ([`crate::model::ChaosKind`] keywords).
fn chaos_keyword(name: &str) -> Option<&'static str> {
    ["outage", "latency_spike", "error_burst", "zone_outage", "latency_storm"]
        .into_iter()
        .find(|k| *k == name)
}

/// Same resolution for guarded-ramp decisions.
fn ramp_keyword(name: &str) -> Option<&'static str> {
    ["advance", "retreat", "hold"].into_iter().find(|k| *k == name)
}

/// A `runtime` event's name → value table; the names are made at run time.
fn write_table<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    let mut table = ObjectWriter::begin(out);
    for (name, value) in entries {
        write_uint(value, table.value_escaped(name));
    }
    table.end();
}

impl JournalEvent {
    /// Virtual time of the event.
    pub fn time(&self) -> SimTime {
        match self {
            JournalEvent::Enacted { time, .. }
            | JournalEvent::Check { time, .. }
            | JournalEvent::Transition { time, .. }
            | JournalEvent::Chaos { time, .. }
            | JournalEvent::Breaker { time, .. }
            | JournalEvent::HealthSnapshot { time, .. }
            | JournalEvent::Ramp { time, .. }
            | JournalEvent::EarlyStop { time, .. }
            | JournalEvent::ScopeCleared { time, .. }
            | JournalEvent::Runtime { time, .. }
            | JournalEvent::Tick { time, .. } => *time,
        }
    }

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

    /// Appends the event's JSON line (without the newline) to `out`,
    /// member by member: no tree, no allocation besides the output.
    fn write_json(&self, out: &mut String) {
        let mut w = ObjectWriter::begin(out);
        let head = |w: &mut ObjectWriter<'_>, ev: &'static str, time: &SimTime| {
            w.str("ev", ev);
            w.uint("t", time.as_millis());
        };
        match self {
            JournalEvent::Enacted { time, strategy, phase, kind, percent } => {
                head(&mut w, "enact", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.str("kind", kind);
                w.num("percent", *percent);
            }
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
            } => {
                head(&mut w, "check", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.uint("check", *check as u64);
                w.str("metric", metric.name());
                w.str("scope", scope.name());
                w.bool("boundary", *boundary);
                w.str("result", result.name());
                primary.write_json(w.value("primary"));
                match baseline {
                    Some(baseline) => baseline.write_json(w.value("baseline")),
                    None => w.null("baseline"),
                }
            }
            JournalEvent::Transition { time, strategy, from, to, outcome } => {
                head(&mut w, "transition", time);
                w.str("strategy", strategy);
                w.str("from", &from.to_string());
                w.str("to", &to.to_string());
                w.str("outcome", outcome.name());
            }
            JournalEvent::Chaos { time, strategy, phase, kind, magnitude, target, from, until } => {
                head(&mut w, "chaos", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.str("kind", kind);
                w.num("magnitude", *magnitude);
                w.str("target", target);
                w.uint("from", from.as_millis());
                w.uint("until", until.as_millis());
            }
            JournalEvent::Breaker { time, caller, callee, from, to } => {
                head(&mut w, "breaker", time);
                w.str("caller", caller);
                w.str("callee", callee);
                w.str("from", from.name());
                w.str("to", to.name());
            }
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
            } => {
                head(&mut w, "health", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.uint("traces", *traces);
                w.uint("failed", *failed);
                w.str("baseline", baseline);
                w.str("canary", canary);
                match worst_edge {
                    Some(edge) => w.str("worst_edge", edge),
                    None => w.null("worst_edge"),
                }
                w.num("score", *score);
                w.num("error_rate_delta", *error_rate_delta);
                w.num("p95_delta_ms", *p95_delta_ms);
                w.uint("dropped", *dropped);
                w.uint("tail_kept", *tail_kept);
                w.uint("downsampled", *downsampled);
            }
            JournalEvent::Ramp { time, strategy, phase, decision, percent, lr_harm } => {
                head(&mut w, "ramp", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.str("decision", decision);
                w.num("percent", *percent);
                w.num("lr_harm", *lr_harm);
            }
            JournalEvent::EarlyStop { time, strategy, phase, outcome, p } => {
                head(&mut w, "early_stop", time);
                w.str("strategy", strategy);
                w.str("phase", phase);
                w.str("outcome", outcome.name());
                w.num("p", *p);
            }
            JournalEvent::ScopeCleared { time, strategy, scope } => {
                head(&mut w, "scope_cleared", time);
                w.str("strategy", strategy);
                w.str("scope", scope);
            }
            JournalEvent::Runtime { time, tick, counters } => {
                head(&mut w, "runtime", time);
                w.uint("tick", *tick);
                write_table(w.value("counters"), counters.counts());
                write_table(w.value("gauges"), counters.gauges());
            }
            JournalEvent::Tick { time, tick, active, due_checks, window_reads, busy: _ } => {
                head(&mut w, "tick", time);
                w.uint("tick", *tick);
                w.uint("active", *active as u64);
                w.uint("due_checks", *due_checks);
                w.uint("window_reads", *window_reads);
            }
        }
        w.end();
    }

    fn from_json(json: &Json) -> Result<JournalEvent, BifrostError> {
        let bad = |what: &str| BifrostError::Journal(format!("missing or malformed {what}"));
        let time = |j: &Json| -> Result<SimTime, BifrostError> {
            Ok(SimTime::from_millis(j.get("t").and_then(Json::as_u64).ok_or_else(|| bad("t"))?))
        };
        let text = |j: &Json, key: &str| -> Result<String, BifrostError> {
            Ok(j.get(key).and_then(Json::as_str).ok_or_else(|| bad(key))?.to_string())
        };
        match json.get("ev").and_then(Json::as_str) {
            Some("enact") => Ok(JournalEvent::Enacted {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                kind: kind_keyword(&text(json, "kind")?).ok_or_else(|| bad("kind"))?,
                percent: json
                    .get("percent")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("percent"))?,
            }),
            Some("check") => Ok(JournalEvent::Check {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                check: json.get("check").and_then(Json::as_u64).ok_or_else(|| bad("check"))?
                    as usize,
                metric: MetricKind::from_name(&text(json, "metric")?)
                    .ok_or_else(|| bad("metric"))?,
                scope: CheckScope::from_name(&text(json, "scope")?).ok_or_else(|| bad("scope"))?,
                boundary: matches!(json.get("boundary"), Some(Json::Bool(true))),
                result: CheckResult::from_name(&text(json, "result")?)
                    .ok_or_else(|| bad("result"))?,
                primary: json
                    .get("primary")
                    .and_then(Summary::from_json)
                    .ok_or_else(|| bad("primary"))?,
                baseline: match json.get("baseline") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(Summary::from_json(j).ok_or_else(|| bad("baseline"))?),
                },
            }),
            Some("transition") => Ok(JournalEvent::Transition {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                from: State::parse(&text(json, "from")?).ok_or_else(|| bad("from"))?,
                to: State::parse(&text(json, "to")?).ok_or_else(|| bad("to"))?,
                outcome: PhaseOutcome::from_name(&text(json, "outcome")?)
                    .ok_or_else(|| bad("outcome"))?,
            }),
            Some("chaos") => Ok(JournalEvent::Chaos {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                kind: chaos_keyword(&text(json, "kind")?).ok_or_else(|| bad("kind"))?,
                magnitude: json
                    .get("magnitude")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("magnitude"))?,
                target: text(json, "target")?,
                from: SimTime::from_millis(
                    json.get("from").and_then(Json::as_u64).ok_or_else(|| bad("from"))?,
                ),
                until: SimTime::from_millis(
                    json.get("until").and_then(Json::as_u64).ok_or_else(|| bad("until"))?,
                ),
            }),
            Some("breaker") => Ok(JournalEvent::Breaker {
                time: time(json)?,
                caller: text(json, "caller")?,
                callee: text(json, "callee")?,
                from: BreakerState::from_name(&text(json, "from")?).ok_or_else(|| bad("from"))?,
                to: BreakerState::from_name(&text(json, "to")?).ok_or_else(|| bad("to"))?,
            }),
            Some("health") => Ok(JournalEvent::HealthSnapshot {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                traces: json.get("traces").and_then(Json::as_u64).ok_or_else(|| bad("traces"))?,
                failed: json.get("failed").and_then(Json::as_u64).ok_or_else(|| bad("failed"))?,
                baseline: text(json, "baseline")?,
                canary: text(json, "canary")?,
                worst_edge: match json.get("worst_edge") {
                    None | Some(Json::Null) => None,
                    Some(j) => Some(j.as_str().ok_or_else(|| bad("worst_edge"))?.to_string()),
                },
                score: json.get("score").and_then(Json::as_f64).ok_or_else(|| bad("score"))?,
                error_rate_delta: json
                    .get("error_rate_delta")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("error_rate_delta"))?,
                p95_delta_ms: json
                    .get("p95_delta_ms")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("p95_delta_ms"))?,
                dropped: json
                    .get("dropped")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("dropped"))?,
                tail_kept: json
                    .get("tail_kept")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("tail_kept"))?,
                downsampled: json
                    .get("downsampled")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("downsampled"))?,
            }),
            Some("ramp") => Ok(JournalEvent::Ramp {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                decision: ramp_keyword(&text(json, "decision")?).ok_or_else(|| bad("decision"))?,
                percent: json
                    .get("percent")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| bad("percent"))?,
                // The likelihood ratio reaches `+∞` on extreme evidence
                // (`SequentialTest::lambda`) and JSON writes that as `null`.
                lr_harm: match json.get("lr_harm") {
                    Some(Json::Null) => f64::INFINITY,
                    other => other.and_then(Json::as_f64).ok_or_else(|| bad("lr_harm"))?,
                },
            }),
            Some("early_stop") => Ok(JournalEvent::EarlyStop {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                phase: text(json, "phase")?.into(),
                outcome: PhaseOutcome::from_name(&text(json, "outcome")?)
                    .ok_or_else(|| bad("outcome"))?,
                p: json.get("p").and_then(Json::as_f64).ok_or_else(|| bad("p"))?,
            }),
            Some("scope_cleared") => Ok(JournalEvent::ScopeCleared {
                time: time(json)?,
                strategy: text(json, "strategy")?.into(),
                scope: text(json, "scope")?,
            }),
            Some("runtime") => {
                let mut counters = cex_core::obs::Counters::new();
                let mut fold =
                    |key: &str, apply: &mut dyn FnMut(&mut cex_core::obs::Counters, &str, u64)| {
                        match json.get(key) {
                            Some(Json::Obj(members)) => {
                                for (name, value) in members {
                                    let v = value.as_u64().ok_or_else(|| bad(key))?;
                                    apply(&mut counters, name, v);
                                }
                                Ok(())
                            }
                            _ => Err(bad(key)),
                        }
                    };
                fold("counters", &mut |c, name, v| c.add(name, v))?;
                fold("gauges", &mut |c, name, v| c.hwm(name, v))?;
                Ok(JournalEvent::Runtime {
                    time: time(json)?,
                    tick: json.get("tick").and_then(Json::as_u64).ok_or_else(|| bad("tick"))?,
                    counters,
                })
            }
            Some("tick") => Ok(JournalEvent::Tick {
                time: time(json)?,
                tick: json.get("tick").and_then(Json::as_u64).ok_or_else(|| bad("tick"))?,
                active: json.get("active").and_then(Json::as_u64).ok_or_else(|| bad("active"))?
                    as usize,
                due_checks: json
                    .get("due_checks")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("due_checks"))?,
                window_reads: json
                    .get("window_reads")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| bad("window_reads"))?,
                busy: Duration::ZERO,
            }),
            Some(other) => Err(BifrostError::Journal(format!("unknown event kind '{other}'"))),
            None => Err(bad("ev")),
        }
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
        for event in &self.events {
            if let Some(s) = event.strategy() {
                if !out.iter().any(|known| known == s) {
                    out.push(s.to_string());
                }
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
        for (i, line) in src.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let json = Json::parse(line)
                .map_err(|e| BifrostError::Journal(format!("line {}: {e}", i + 1)))?;
            let event = JournalEvent::from_json(&json)
                .map_err(|e| BifrostError::Journal(format!("line {}: {e}", i + 1)))?;
            events.push(event);
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
        ] {
            let err = Journal::from_jsonl(src).unwrap_err();
            assert!(err.to_string().contains(needle), "{src} -> {err}");
        }
        // Blank lines are fine.
        let ok = Journal::from_jsonl("\n\n").unwrap();
        assert!(ok.is_empty());
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
