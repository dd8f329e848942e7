//! Zipkin/Jaeger-style distributed traces — the interned hot path.
//!
//! The health-assessment approach of Chapter 5 "considers changes in the
//! context of experiments by analyzing distributed traces (as produced by
//! Zipkin or Jaeger) of services interacting with each other". This module
//! reproduces the relevant span data model: every request produces a tree
//! of spans, each naming the service, deployed version, and endpoint that
//! served a hop, with timing and status.
//!
//! # Hot-path architecture
//!
//! Tracing shares the request loop with the telemetry store, so it gets
//! the same treatment PR 3 gave metric scopes:
//!
//! * **Interned span identity.** A [`Span`] carries the dense
//!   `(VersionId, EndpointId)` ids the application model already assigns
//!   — not `String`s — making spans `Copy`, 48 bytes and span recording
//!   allocation-free. The service is not stored: a version belongs to one
//!   ([`SpanBook::service_of`]). Names are resolved at analysis time
//!   through a [`SpanBook`], which also interns endpoint *names* through
//!   the shared [`cex_core::intern`] interner so the same logical endpoint
//!   is comparable across deployed versions (the key step when diffing a
//!   canary edge against its baseline counterpart).
//! * **Bounded retention.** The [`TraceCollector`] keeps a configurable
//!   ring of recent traces ([`TraceCollector::set_capacity`]); when full,
//!   the oldest trace is evicted and counted in
//!   [`SamplingStats::evicted`], so unbounded runs cannot hoard memory.
//! * **One walk from spans to interactions.** [`Trace::hops`] yields every
//!   span with its caller resolved and [`Hop::edge`] keys it; health,
//!   blame, the interaction graph and the engine's trace-scoped samples
//!   all fold that walk, and [`SpanStatus::executed`] /
//!   [`SpanStatus::failed`] name the two inclusion predicates they share
//!   (DESIGN.md § "Observability pipeline" tabulates who counts what).
//!
//! Sampling stays deterministic (an accumulator collects every
//! `1/fraction`-th request) and trace ids advance for every request, so
//! sampled subsets are globally identifiable and byte-stable across
//! reruns.
//!
//! # Span tree invariants
//!
//! Traces uphold, and property tests in `exec.rs` enforce (on the request
//! core and on its oracle):
//!
//! * spans are stored in **pre-order**: the root is first and every parent
//!   precedes its children;
//! * `root().duration` equals the request's end-to-end response time;
//! * a synchronous child's `[start, start + duration]` interval nests
//!   inside its parent's. Two deliberate exceptions, both visible in the
//!   span itself: *dark* (mirrored) spans and spans under a
//!   [`SpanStatus::TimedOut`] call may end after their caller, exactly
//!   like fire-and-forget mirrors and abandoned RPCs in a real tracing
//!   backend.

use crate::app::{Application, EndpointId, ServiceId, VersionId};
use cex_core::intern::{Interner, Sym};
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::sketch::{QuantileSketch, RELATIVE_ERROR};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Identifier of one end-to-end request trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

/// Identifier of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace-{:016x}", self.0)
    }
}

/// Why a span ended the way it did — the resilience-aware replacement for
/// a bare `ok: bool`. A trace of a degraded request shows *why* it
/// degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanStatus {
    /// The hop succeeded.
    Ok,
    /// The hop failed (modeled error, fault window, or a failed child it
    /// depended on).
    Failed,
    /// The caller abandoned this attempt at its deadline; the recorded
    /// duration is the caller-observed wait (the callee's own subtree may
    /// run longer — see the module docs on nesting).
    TimedOut,
    /// The circuit breaker shed the call before it reached the callee
    /// (zero-duration event span).
    Shed,
    /// A fallback response was served in place of the callee — degraded
    /// but successful.
    Fallback,
}

impl SpanStatus {
    /// `true` when the caller got a usable response (including degraded
    /// fallback responses).
    pub fn is_ok(self) -> bool {
        matches!(self, SpanStatus::Ok | SpanStatus::Fallback)
    }

    /// `true` for the failure statuses (failed, timed out, shed).
    pub fn is_error(self) -> bool {
        !self.is_ok()
    }

    /// `true` when the callee's endpoint actually ran. Shed and fallback
    /// spans are zero-work events standing in for a call that never
    /// reached it: they carry no service latency to attribute.
    pub fn executed(self) -> bool {
        !matches!(self, SpanStatus::Shed | SpanStatus::Fallback)
    }

    /// `true` when the endpoint ran and the call came back failed or was
    /// abandoned at the caller's deadline.
    pub fn failed(self) -> bool {
        matches!(self, SpanStatus::Failed | SpanStatus::TimedOut)
    }

    /// Stable lowercase name, used by reports and the journal.
    pub fn name(self) -> &'static str {
        match self {
            SpanStatus::Ok => "ok",
            SpanStatus::Failed => "failed",
            SpanStatus::TimedOut => "timed_out",
            SpanStatus::Shed => "shed",
            SpanStatus::Fallback => "fallback",
        }
    }
}

/// One hop of a request: a service version's endpoint serving a call.
///
/// Identity is `(VersionId, EndpointId)`, the dense application ids,
/// resolved to names through a [`SpanBook`]. Nothing a reader can look up
/// is stored: the owning trace is [`Trace::id`] and the serving service is
/// [`SpanBook::service_of`] (or `Application::version(v).service`) of
/// [`Span::version`]. The span is `Copy`, allocation-free and 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// This span's id, unique within the trace and equal to its pre-order
    /// position in [`Trace::spans`].
    pub span: SpanId,
    /// The calling span, `None` for the root.
    pub parent: Option<SpanId>,
    /// Deployed version that served the hop.
    pub version: VersionId,
    /// Endpoint that served the hop.
    pub endpoint: EndpointId,
    /// When the hop started.
    pub start: SimTime,
    /// Hop duration including downstream calls (for [`SpanStatus::TimedOut`]
    /// the caller-observed wait).
    pub duration: SimDuration,
    /// Outcome of the hop.
    pub status: SpanStatus,
    /// Zero-based attempt number: `0` for the first attempt, `n > 0` for
    /// the `n`-th retry of the same logical call.
    pub attempt: u8,
    /// `true` when this hop served mirrored (dark-launch) traffic.
    pub dark: bool,
}

// A trace store holds every span of every kept trace: a widening here is
// paid once per span.
const _: () = assert!(std::mem::size_of::<Span>() == 48);

impl Span {
    /// End of the span's interval.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// A complete request trace: the span tree of one end-to-end request.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Trace id.
    pub id: TraceId,
    /// All spans, pre-order: root first, parents before children.
    pub spans: Vec<Span>,
    /// How many statistically-similar traces this one stands for: `1`
    /// normally; `k` when tail-based sampling kept this healthy trace as
    /// the representative of its 1-in-`k` downsampling stratum. Health
    /// accumulation folds the trace `weight` times (at `O(1)` cost) so
    /// downsampling does not bias rates or quantile mass.
    pub weight: u32,
}

impl Trace {
    /// A trace standing for itself alone (`weight == 1`).
    pub fn new(id: TraceId, spans: Vec<Span>) -> Trace {
        Trace { id, spans, weight: 1 }
    }

    /// The root span (the user-facing entry hop).
    ///
    /// # Panics
    ///
    /// Panics on an empty trace, which the collector never produces.
    pub fn root(&self) -> &Span {
        self.spans.iter().find(|s| s.parent.is_none()).expect("trace without root span")
    }

    /// End-to-end response time (root span duration).
    pub fn response_time(&self) -> SimDuration {
        self.root().duration
    }

    /// `true` when the request succeeded end to end (root span status).
    /// Individual child spans may still record failed attempts that a
    /// retry or fallback absorbed.
    pub fn ok(&self) -> bool {
        self.root().status.is_ok()
    }

    /// Position of the span with this id. Span ids equal pre-order
    /// positions, so this is an index check in the common case; ids that
    /// are not positions (hand-built traces) fall back to a scan.
    fn position(&self, id: SpanId) -> Option<usize> {
        match self.spans.get(id.0 as usize) {
            Some(s) if s.span == id => Some(id.0 as usize),
            _ => self.spans.iter().position(|s| s.span == id),
        }
    }

    /// Looks up a span by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.position(id).map(|i| &self.spans[i])
    }

    /// Every span as an interaction, in pre-order: the span, its position,
    /// and its caller resolved once by the rule [`Trace::get`] uses. The
    /// one walk every trace → edge analysis folds.
    pub fn hops(&self) -> impl Iterator<Item = Hop<'_>> {
        self.spans.iter().enumerate().map(|(index, span)| {
            let caller = span.parent.and_then(|p| self.position(p)).map(|i| (i, &self.spans[i]));
            Hop { index, span, caller }
        })
    }

    /// Child spans of `parent`, in call order.
    pub fn children_of(&self, parent: SpanId) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(parent))
    }
}

/// Resolves interned span identity back to names — the analysis-time
/// counterpart of the `Copy` ids a [`Span`] carries.
///
/// Endpoint *names* are additionally interned through the shared
/// [`cex_core::intern::Interner`], collapsing the per-version
/// [`EndpointId`]s of the same logical endpoint (`backend@1.0.0/api` and
/// `backend@2.0.0/api`) onto one [`Sym`]; canary-vs-baseline edge matching
/// keys on that symbol.
#[derive(Debug)]
pub struct SpanBook {
    services: Vec<Arc<str>>,
    version_service: Vec<ServiceId>,
    version_labels: Vec<Arc<str>>,
    endpoint_syms: Vec<Sym>,
    interner: Interner,
}

impl SpanBook {
    /// Builds the book for an application's current deployment set.
    /// Deterministic: ids and symbols depend only on deployment order.
    pub fn from_app(app: &Application) -> SpanBook {
        let mut interner = Interner::new();
        let services: Vec<Arc<str>> = app.services().map(|(_, name)| Arc::from(name)).collect();
        let mut version_service = Vec::new();
        let mut version_labels = Vec::new();
        let mut endpoint_syms = Vec::new();
        for (vid, version) in app.versions() {
            version_service.push(version.service);
            version_labels.push(Arc::from(app.version_label(vid).as_str()));
            for &eid in &version.endpoints {
                let name = &app.endpoint(eid).name;
                debug_assert_eq!(eid.0, endpoint_syms.len(), "endpoint ids must be dense");
                endpoint_syms.push(interner.intern(name));
            }
        }
        SpanBook { services, version_service, version_labels, endpoint_syms, interner }
    }

    /// Service name behind an id.
    pub fn service_name(&self, id: ServiceId) -> &str {
        &self.services[id.0]
    }

    /// `service@version` designator, the node identity used by the
    /// interaction graphs of Chapter 5.
    pub fn version_label(&self, id: VersionId) -> &str {
        &self.version_labels[id.0]
    }

    /// The service a deployed version belongs to.
    pub fn service_of(&self, id: VersionId) -> ServiceId {
        self.version_service[id.0]
    }

    /// Endpoint name behind an id.
    pub fn endpoint_name(&self, id: EndpointId) -> Arc<str> {
        self.interner.name(self.endpoint_syms[id.0])
    }

    /// The shared interner symbol of an endpoint's *name* — equal across
    /// versions serving the same logical endpoint.
    pub fn endpoint_sym(&self, id: EndpointId) -> Sym {
        self.endpoint_syms[id.0]
    }

    /// The bare version tag (the part after `@` in
    /// [`SpanBook::version_label`]), e.g. `1.0.0`.
    pub fn version_tag(&self, id: VersionId) -> &str {
        let service = self.service_name(self.version_service[id.0]);
        &self.version_labels[id.0][service.len() + 1..]
    }

    /// The name behind a shared endpoint symbol previously returned by
    /// [`SpanBook::endpoint_sym`].
    pub fn sym_name(&self, sym: Sym) -> Arc<str> {
        self.interner.name(sym)
    }

    /// Number of versions the book covers (used to detect staleness after
    /// deploys).
    pub fn version_count(&self) -> usize {
        self.version_labels.len()
    }
}

/// One directed interaction edge: `caller version → callee endpoint`.
/// `caller == None` marks user-facing entry calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    /// Calling version (`None` for the entry edge).
    pub caller: Option<VersionId>,
    /// Version that served the call.
    pub callee: VersionId,
    /// Endpoint that served the call (callee-local id).
    pub endpoint: EndpointId,
}

/// Values keyed by [`EdgeKey`] and found by index: endpoint ids are dense
/// and belong to one version, so the callee endpoint picks a row and the
/// row is the short list of `(caller, callee)` pairs seen calling it, each
/// with the slot of its value. What the trace → edge folds look up once
/// per span.
///
/// Slots are handed out in order of first sight; everything that reads
/// the table back ([`EdgeTable::iter`], `==`) goes by ascending key, so
/// the order in which edges were discovered is not observable.
#[derive(Debug, Clone)]
pub struct EdgeTable<T> {
    /// Indexed by `EdgeKey::endpoint`: `(caller, callee, slot)`.
    rows: Vec<Vec<(Option<VersionId>, VersionId, usize)>>,
    /// `(key, value)` by slot.
    entries: Vec<(EdgeKey, T)>,
}

impl<T> Default for EdgeTable<T> {
    fn default() -> Self {
        EdgeTable { rows: Vec::new(), entries: Vec::new() }
    }
}

impl<T> EdgeTable<T> {
    fn slot(&self, key: &EdgeKey) -> Option<usize> {
        let row = self.rows.get(key.endpoint.0)?;
        row.iter()
            .find(|(caller, callee, _)| (*caller, *callee) == (key.caller, key.callee))
            .map(|e| e.2)
    }

    /// The value under `key`, a default one filed there on first sight.
    pub fn get_or_default(&mut self, key: EdgeKey) -> &mut T
    where
        T: Default,
    {
        let slot = self.slot(&key).unwrap_or_else(|| {
            if self.rows.len() <= key.endpoint.0 {
                self.rows.resize_with(key.endpoint.0 + 1, Vec::new);
            }
            self.rows[key.endpoint.0].push((key.caller, key.callee, self.entries.len()));
            self.entries.push((key, T::default()));
            self.entries.len() - 1
        });
        &mut self.entries[slot].1
    }

    /// The value under `key`, if the edge was ever seen.
    pub fn get(&self, key: &EdgeKey) -> Option<&T> {
        self.slot(key).map(|slot| &self.entries[slot].1)
    }

    /// Edges in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no edge was seen.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Every edge with its value, ascending by key.
    pub fn iter(&self) -> impl Iterator<Item = (&EdgeKey, &T)> {
        let mut sorted: Vec<&(EdgeKey, T)> = self.entries.iter().collect();
        sorted.sort_unstable_by_key(|(key, _)| *key);
        sorted.into_iter().map(|(key, value)| (key, value))
    }
}

impl<T: PartialEq> PartialEq for EdgeTable<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

/// One span seen as an interaction (see [`Trace::hops`]).
#[derive(Debug, Clone, Copy)]
pub struct Hop<'a> {
    /// Position of the span in [`Trace::spans`]; per-trace side tables
    /// (child sums, say) index by this, never by raw span id.
    pub index: usize,
    /// The span that served the hop.
    pub span: &'a Span,
    /// Position and span of the caller: `None` for the root, and for a
    /// parent id that names no span of the trace.
    pub caller: Option<(usize, &'a Span)>,
}

impl Hop<'_> {
    /// The interaction edge this hop travelled.
    pub fn edge(&self) -> EdgeKey {
        EdgeKey {
            caller: self.caller.map(|(_, caller)| caller.version),
            callee: self.span.version,
            endpoint: self.span.endpoint,
        }
    }
}

/// Default number of retained traces before the ring starts evicting.
pub const DEFAULT_TRACE_RETENTION: usize = 65_536;

/// Tail-based sampling policy for the [`TraceCollector`] (off by
/// default): traces whose spans carry an error status — failed, timed
/// out, or shed — and traces slower than a sketch-derived root-latency
/// threshold are always retained, while healthy traces keep only a
/// deterministic 1-in-`k` representative carrying [`Trace::weight`]` = k`.
/// This bounds retained-trace memory by the *anomaly* rate instead of the
/// traffic rate — the property that lets the pipeline hold 10⁷-trace runs
/// in a few megabytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TailSamplingConfig {
    /// Keep one in this many healthy traces (`k ≥ 1`); the kept one
    /// carries weight `k` so aggregate folds stay unbiased.
    pub healthy_keep_one_in: u32,
    /// Root-latency quantile (`0.0..=1.0`) above which a trace counts as
    /// *slow* and is always retained, measured by a streaming
    /// [`QuantileSketch`] over every offered root latency.
    pub slow_quantile: f64,
    /// Offered traces the threshold sketch must absorb before the slow
    /// rule activates (a cold sketch would flag everything or nothing).
    /// Until then only the error rule and the healthy downsampler run.
    pub warmup: u64,
}

impl Default for TailSamplingConfig {
    fn default() -> Self {
        TailSamplingConfig { healthy_keep_one_in: 10, slow_quantile: 0.95, warmup: 512 }
    }
}

impl TailSamplingConfig {
    fn validate(&self) {
        assert!(self.healthy_keep_one_in >= 1, "healthy_keep_one_in must be at least 1");
        assert!(
            self.slow_quantile.is_finite() && (0.0..=1.0).contains(&self.slow_quantile),
            "slow_quantile must be in 0.0..=1.0"
        );
    }
}

/// Sampling accounting of a [`TraceCollector`], monotone counters that
/// survive ring eviction — what the journal's `health` events and the
/// report render surface so sampling bias stays visible in replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SamplingStats {
    /// Traces ever offered to the collector.
    pub recorded: u64,
    /// Retained traces evicted by the retention ring.
    pub evicted: u64,
    /// Traces always retained by the tail rule (error status or slow).
    pub tail_kept: u64,
    /// Healthy traces retained as 1-in-`k` representatives.
    pub downsampled_kept: u64,
    /// Healthy traces dropped by the downsampler (never retained).
    pub healthy_dropped: u64,
}

/// Streaming tail-sampling state: the root-latency threshold sketch and
/// the deterministic healthy-trace cadence.
#[derive(Debug, Clone)]
struct TailState {
    config: TailSamplingConfig,
    /// Root latencies (ms) of every offered trace; the slow threshold is
    /// a quantile of this sketch.
    roots: QuantileSketch,
    /// Healthy traces seen; every `healthy_keep_one_in`-th is kept.
    healthy_seen: u64,
    tail_kept: u64,
    downsampled_kept: u64,
    healthy_dropped: u64,
}

impl TailState {
    fn new(config: TailSamplingConfig) -> TailState {
        config.validate();
        TailState {
            config,
            roots: QuantileSketch::for_latency(),
            healthy_seen: 0,
            tail_kept: 0,
            downsampled_kept: 0,
            healthy_dropped: 0,
        }
    }

    /// Decides one offered trace from its root duration and whether any
    /// span carries an error status: `Some(weight)` retains it, `None`
    /// drops it. Deterministic — a pure function of the offer sequence.
    fn decide(&mut self, root: SimDuration, erroneous: bool) -> Option<u32> {
        let root_ms = root.as_millis() as f64;
        // Threshold from the state *before* this trace, so the decision
        // never depends on evaluation order subtleties. The quantile is
        // inflated by the sketch's relative-error band: a value within
        // sketch error of the quantile is indistinguishable from it (on a
        // constant distribution *every* value sits there) and must not
        // flag as slow.
        let slow = self.roots.count() >= self.config.warmup
            && self
                .roots
                .quantile(self.config.slow_quantile)
                .is_some_and(|q| root_ms > q * (1.0 + 2.0 * RELATIVE_ERROR));
        self.roots.push(root_ms);
        if erroneous || slow {
            self.tail_kept += 1;
            return Some(1);
        }
        let keep = self.healthy_seen.is_multiple_of(self.config.healthy_keep_one_in as u64);
        self.healthy_seen += 1;
        if keep {
            self.downsampled_kept += 1;
            Some(self.config.healthy_keep_one_in)
        } else {
            self.healthy_dropped += 1;
            None
        }
    }
}

/// Collects sampled traces, as the tracing backend (Zipkin/Jaeger) would,
/// with bounded retention (see module docs).
#[derive(Debug, Clone)]
pub struct TraceCollector {
    sampling: f64,
    capacity: usize,
    traces: VecDeque<Trace>,
    next_trace: u64,
    /// Deterministic sampling counter (every `1/sampling`-th request).
    accumulator: f64,
    dropped: u64,
    recorded: u64,
    /// Tail-based sampling policy and state; `None` retains every
    /// recorded trace (the pre-tail behaviour).
    tail: Option<TailState>,
}

impl TraceCollector {
    /// Collects every trace.
    pub fn all() -> Self {
        TraceCollector::sampled(1.0)
    }

    /// Collects the given fraction of traces (`0.0..=1.0`), deterministically
    /// (every `1/fraction`-th request) so runs are reproducible.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `0.0..=1.0`.
    pub fn sampled(fraction: f64) -> Self {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "sampling fraction must be in 0.0..=1.0"
        );
        TraceCollector {
            sampling: fraction,
            capacity: DEFAULT_TRACE_RETENTION,
            traces: VecDeque::new(),
            next_trace: 1,
            accumulator: 0.0,
            dropped: 0,
            recorded: 0,
            tail: None,
        }
    }

    /// Sets the retention budget in place; excess traces are evicted
    /// immediately (oldest first) and counted as dropped.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "trace retention must be positive");
        self.capacity = capacity;
        while self.traces.len() > self.capacity {
            self.traces.pop_front();
            self.dropped += 1;
        }
    }

    /// Changes the sampling fraction **without** resetting trace ids or
    /// collected state, so ids stay globally unique across sampling
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is outside `0.0..=1.0`.
    pub fn set_sampling(&mut self, fraction: f64) {
        assert!(
            fraction.is_finite() && (0.0..=1.0).contains(&fraction),
            "sampling fraction must be in 0.0..=1.0"
        );
        self.sampling = fraction;
        self.accumulator = 0.0;
    }

    /// Enables (or, with `None`, disables) tail-based sampling. Enabling
    /// resets the tail state — threshold sketch and counters — so the
    /// policy starts from a clean, deterministic slate; recorded traces
    /// and the trace-id sequence are untouched.
    pub fn set_tail_sampling(&mut self, config: Option<TailSamplingConfig>) {
        self.tail = config.map(TailState::new);
    }

    /// Monotone sampling accounting (see [`SamplingStats`]); counters
    /// survive both downsampling and ring eviction.
    pub fn sampling_stats(&self) -> SamplingStats {
        let (tail_kept, downsampled_kept, healthy_dropped) = self
            .tail
            .as_ref()
            .map_or((0, 0, 0), |t| (t.tail_kept, t.downsampled_kept, t.healthy_dropped));
        SamplingStats {
            recorded: self.recorded,
            evicted: self.dropped,
            tail_kept,
            downsampled_kept,
            healthy_dropped,
        }
    }

    /// Bucket collapses suffered by the tail-sampling threshold sketch —
    /// how often it hit its state bound and coarsened (deterministic;
    /// registry counter `trace.tail.sketch_collapses`). Zero while tail
    /// sampling is off.
    pub fn tail_sketch_collapses(&self) -> u64 {
        self.tail.as_ref().map_or(0, |t| t.roots.collapsed())
    }

    /// Estimated resident bytes of retained trace state: the span storage
    /// of every ring entry plus the tail-sampling sketch. The scale
    /// bench's peak-memory accounting reads this.
    pub fn state_bytes(&self) -> usize {
        let spans: usize = self.traces.iter().map(|t| t.spans.len()).sum();
        let traces = self.traces.len() * std::mem::size_of::<Trace>();
        let sketch = self.tail.as_ref().map_or(0, |t| t.roots.state_bytes());
        spans * std::mem::size_of::<Span>() + traces + sketch
    }

    /// Reserves the next trace id and reports whether this request should
    /// be traced at all (sampling decision).
    pub fn begin_trace(&mut self) -> Option<TraceId> {
        let id = TraceId(self.next_trace);
        self.next_trace += 1;
        self.accumulator += self.sampling;
        if self.accumulator >= 1.0 {
            self.accumulator -= 1.0;
            Some(id)
        } else {
            None
        }
    }

    /// Stores a finished trace, evicting the oldest retained trace when
    /// the ring is full. With tail-based sampling active
    /// ([`TraceCollector::set_tail_sampling`]), erroneous and slow traces
    /// are always retained while healthy ones keep only a deterministic
    /// 1-in-`k` representative (carrying [`Trace::weight`]` = k`); traces
    /// the downsampler drops are still counted in
    /// [`TraceCollector::sampling_stats`].
    ///
    /// The decision reads two facts of the trace, its root duration and
    /// whether any span carries an error status, and nothing else. The
    /// event core's merge takes the same decision from its span records
    /// *before* it builds a trace, and builds only the ones kept; this
    /// method is a thin wrapper over that one decision for traces that
    /// already exist. Without tail sampling a trace keeps the weight it
    /// came with.
    ///
    /// # Panics
    ///
    /// Panics when the trace has no spans.
    pub fn record(&mut self, mut trace: Trace) {
        assert!(!trace.spans.is_empty(), "refusing to record an empty trace");
        let erroneous = trace.spans.iter().any(|s| s.status.is_error());
        let Some(weight) = self.admit(trace.response_time(), erroneous) else { return };
        if self.tail.is_some() {
            trace.weight = weight;
        }
        self.keep(trace);
    }

    /// Counts one offered trace and decides it (see
    /// [`TraceCollector::record`]): `None` drops it, `Some(weight)` keeps
    /// it standing for `weight` traces — 1 unless the tail sampler kept it
    /// as a downsampled representative.
    pub(crate) fn admit(&mut self, root: SimDuration, erroneous: bool) -> Option<u32> {
        self.recorded += 1;
        match &mut self.tail {
            Some(tail) => tail.decide(root, erroneous),
            None => Some(1),
        }
    }

    /// Retains an admitted trace, evicting the oldest when the ring is
    /// full.
    pub(crate) fn keep(&mut self, trace: Trace) {
        if self.traces.len() == self.capacity {
            self.traces.pop_front();
            self.dropped += 1;
        }
        self.traces.push_back(trace);
    }

    /// The retained traces, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = &Trace> {
        self.traces.iter()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Removes and returns all retained traces, oldest first. Counters
    /// are unaffected.
    pub fn drain(&mut self) -> Vec<Trace> {
        std::mem::take(&mut self.traces).into()
    }

    /// Scratch-buffer variant of [`TraceCollector::drain`]: clears `out`
    /// and moves all retained traces into it, oldest first, so steady-state
    /// drive loops (the Bifrost engine tick) reuse one allocation instead
    /// of constructing a fresh `Vec` per tick.
    pub fn drain_into(&mut self, out: &mut Vec<Trace>) {
        out.clear();
        out.extend(self.traces.drain(..));
    }
}

impl Default for TraceCollector {
    fn default() -> Self {
        TraceCollector::all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, status: SpanStatus) -> Span {
        Span {
            span: SpanId(id),
            parent: parent.map(SpanId),
            version: VersionId(0),
            endpoint: EndpointId(0),
            start: SimTime::from_millis(0),
            duration: SimDuration::from_millis(10),
            status,
            attempt: 0,
            dark: false,
        }
    }

    fn one_span_trace(id: TraceId) -> Trace {
        Trace::new(id, vec![span(0, None, SpanStatus::Ok)])
    }

    #[test]
    fn edge_table_reads_back_by_key_whatever_the_order_of_first_sight() {
        let key = |caller: Option<usize>, callee: usize, endpoint: usize| EdgeKey {
            caller: caller.map(VersionId),
            callee: VersionId(callee),
            endpoint: EndpointId(endpoint),
        };
        // Endpoint 4 is served under two versions and called from two.
        let keys = [
            key(Some(2), 3, 4),
            key(None, 0, 0),
            key(Some(1), 3, 4),
            key(Some(1), 5, 4),
            key(Some(0), 1, 9),
        ];
        let filled = |order: &[usize]| {
            let mut table = EdgeTable::<u64>::default();
            for round in 0..3 {
                for &i in order {
                    *table.get_or_default(keys[i]) += (i + round) as u64;
                }
            }
            table
        };
        let (a, b) = (filled(&[0, 1, 2, 3, 4]), filled(&[4, 2, 0, 3, 1]));
        assert_eq!(a, b);
        assert_eq!((a.len(), a.is_empty()), (5, false));
        let mut sorted = keys;
        sorted.sort();
        assert_eq!(a.iter().map(|(k, _)| *k).collect::<Vec<_>>(), sorted);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(b.get(k), Some(&(3 * i as u64 + 3)));
        }
        assert_eq!(a.get(&key(Some(2), 5, 4)), None, "a pair its row never saw");
        assert_eq!(a.get(&key(None, 0, 77)), None, "an endpoint past the last row");
        assert!(EdgeTable::<u64>::default().is_empty());
        assert_ne!(a, filled(&[0, 1, 2, 3]));
    }

    #[test]
    fn trace_navigation() {
        let t = Trace::new(
            TraceId(1),
            vec![
                span(0, None, SpanStatus::Ok),
                span(1, Some(0), SpanStatus::Ok),
                span(2, Some(0), SpanStatus::Failed),
            ],
        );
        assert_eq!(t.root().span, SpanId(0));
        assert_eq!(t.response_time().as_millis(), 10);
        assert!(t.ok(), "request-level success is the root status");
        assert_eq!(t.get(SpanId(2)).unwrap().status, SpanStatus::Failed);
        assert_eq!(t.children_of(SpanId(0)).count(), 2);
        assert_eq!(t.children_of(SpanId(1)).count(), 0);
    }

    #[test]
    fn failed_root_fails_the_trace() {
        let mut t = one_span_trace(TraceId(3));
        t.spans[0].status = SpanStatus::Failed;
        assert!(!t.ok());
        t.spans[0].status = SpanStatus::Fallback;
        assert!(t.ok(), "fallback responses are degraded but successful");
    }

    #[test]
    fn status_classification() {
        assert!(SpanStatus::Ok.is_ok());
        assert!(SpanStatus::Fallback.is_ok());
        for bad in [SpanStatus::Failed, SpanStatus::TimedOut, SpanStatus::Shed] {
            assert!(bad.is_error(), "{}", bad.name());
        }
        // Event spans never ran the endpoint; only executed calls can fail.
        for (status, executed, failed) in [
            (SpanStatus::Ok, true, false),
            (SpanStatus::Failed, true, true),
            (SpanStatus::TimedOut, true, true),
            (SpanStatus::Shed, false, false),
            (SpanStatus::Fallback, false, false),
        ] {
            assert_eq!(
                (status.executed(), status.failed()),
                (executed, failed),
                "{}",
                status.name()
            );
        }
    }

    #[test]
    fn book_resolves_interned_identity() {
        use crate::app::{Application, CallDef, EndpointDef, VersionSpec};
        use crate::latency::LatencyModel;
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("fe", "1.0.0").endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 1.0 })
                    .call(CallDef::always("be", "api")),
            ),
        );
        b.version(
            VersionSpec::new("be", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 1.0 })),
        );
        let mut app = b.build().expect("app builds");
        let v2 = app
            .deploy(
                VersionSpec::new("be", "2.0.0")
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 1.0 })),
            )
            .expect("candidate deploys");
        let book = SpanBook::from_app(&app);
        let v1 = app.version_id("be", "1.0.0").unwrap();
        assert_eq!(book.version_label(v1), "be@1.0.0");
        assert_eq!(book.version_label(v2), "be@2.0.0");
        assert_eq!(book.service_name(book.service_of(v2)), "be");
        // The same logical endpoint name maps to one shared symbol across
        // versions, while the per-version endpoint ids differ.
        let e1 = app.endpoint_of(v1, "api").unwrap();
        let e2 = app.endpoint_of(v2, "api").unwrap();
        assert_ne!(e1, e2);
        assert_eq!(book.endpoint_sym(e1), book.endpoint_sym(e2));
        assert_eq!(&*book.endpoint_name(e2), "api");
    }

    #[test]
    fn full_sampling_collects_everything() {
        let mut c = TraceCollector::all();
        let mut collected = 0;
        for _ in 0..10 {
            if let Some(id) = c.begin_trace() {
                c.record(one_span_trace(id));
                collected += 1;
            }
        }
        assert_eq!(collected, 10);
        assert_eq!(c.len(), 10);
    }

    #[test]
    fn fractional_sampling_is_proportional_and_deterministic() {
        let mut c = TraceCollector::sampled(0.25);
        let decisions: Vec<bool> = (0..100).map(|_| c.begin_trace().is_some()).collect();
        assert_eq!(decisions.iter().filter(|d| **d).count(), 25);
        let mut c2 = TraceCollector::sampled(0.25);
        let decisions2: Vec<bool> = (0..100).map(|_| c2.begin_trace().is_some()).collect();
        assert_eq!(decisions, decisions2);
    }

    #[test]
    fn fractional_sampling_collects_floor_n_f_within_one() {
        for &fraction in &[0.01, 0.1, 0.25, 0.333, 0.5, 0.9, 1.0] {
            for &n in &[10u64, 100, 997, 10_000] {
                let mut c = TraceCollector::sampled(fraction);
                let collected = (0..n).filter(|_| c.begin_trace().is_some()).count() as i64;
                let expected = (n as f64 * fraction).floor() as i64;
                assert!(
                    (collected - expected).abs() <= 1,
                    "sampling {fraction} over {n}: collected {collected}, expected {expected}±1"
                );
            }
        }
    }

    #[test]
    fn zero_sampling_collects_nothing() {
        let mut c = TraceCollector::sampled(0.0);
        for _ in 0..10 {
            assert!(c.begin_trace().is_none());
        }
        assert!(c.is_empty());
    }

    #[test]
    fn trace_ids_are_unique_even_when_unsampled() {
        let mut c = TraceCollector::sampled(0.5);
        // Ids advance for every request so sampled subsets stay globally
        // identifiable.
        let a = loop {
            if let Some(id) = c.begin_trace() {
                break id;
            }
        };
        let b = loop {
            if let Some(id) = c.begin_trace() {
                break id;
            }
        };
        assert_ne!(a, b);
    }

    #[test]
    fn trace_ids_are_stable_across_reruns() {
        let run = || -> Vec<u64> {
            let mut c = TraceCollector::sampled(0.3);
            (0..50).filter_map(|_| c.begin_trace()).map(|id| id.0).collect()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn set_sampling_preserves_trace_id_continuity() {
        let mut c = TraceCollector::sampled(1.0);
        let first = c.begin_trace().unwrap();
        c.set_sampling(0.0);
        assert!(c.begin_trace().is_none());
        c.set_sampling(1.0);
        let third = c.begin_trace().unwrap();
        // The unsampled request still consumed an id.
        assert_eq!(third.0, first.0 + 2);
    }

    #[test]
    fn retention_ring_bounds_storage_and_counts_drops() {
        let mut c = TraceCollector::all();
        c.set_capacity(8);
        for _ in 0..20 {
            let id = c.begin_trace().unwrap();
            c.record(one_span_trace(id));
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.sampling_stats().evicted, 12);
        assert_eq!(c.sampling_stats().recorded, 20);
        // Oldest evicted first: the ring holds the 8 most recent ids.
        let ids: Vec<u64> = c.traces().map(|t| t.id.0).collect();
        assert_eq!(ids, (13..=20).collect::<Vec<u64>>());
    }

    #[test]
    fn shrinking_capacity_evicts_immediately() {
        let mut c = TraceCollector::all();
        for _ in 0..10 {
            let id = c.begin_trace().unwrap();
            c.record(one_span_trace(id));
        }
        c.set_capacity(4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.sampling_stats().evicted, 6);
    }

    #[test]
    fn hops_resolve_callers_by_id_or_position() {
        // Ids that are not positions (10, 11, 12), one orphan parent id.
        let mut child = span(11, Some(10), SpanStatus::Ok);
        child.version = VersionId(1);
        let mut grandchild = span(12, Some(11), SpanStatus::Failed);
        grandchild.version = VersionId(2);
        let orphan = span(13, Some(99), SpanStatus::Ok);
        let t =
            Trace::new(TraceId(1), vec![span(10, None, SpanStatus::Ok), child, grandchild, orphan]);
        let hops: Vec<Hop<'_>> = t.hops().collect();
        assert_eq!(hops.iter().map(|h| h.index).collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let callers: Vec<Option<usize>> = hops.iter().map(|h| h.caller.map(|(i, _)| i)).collect();
        assert_eq!(callers, vec![None, Some(0), Some(1), None]);
        let edge = |caller: Option<usize>, callee: usize| EdgeKey {
            caller: caller.map(VersionId),
            callee: VersionId(callee),
            endpoint: EndpointId(0),
        };
        let edges: Vec<EdgeKey> = hops.iter().map(Hop::edge).collect();
        assert_eq!(edges, vec![edge(None, 0), edge(Some(0), 1), edge(Some(1), 2), edge(None, 0)]);
        assert_eq!(t.get(SpanId(12)).unwrap().status, SpanStatus::Failed);
        assert!(t.get(SpanId(2)).is_none(), "a position is not an id");
    }

    #[test]
    fn drain_empties_collector_but_keeps_counters() {
        let mut c = TraceCollector::all();
        let id = c.begin_trace().unwrap();
        c.record(one_span_trace(id));
        let drained = c.drain();
        assert_eq!(drained.len(), 1);
        assert!(c.is_empty());
        assert_eq!(c.sampling_stats().recorded, 1);
    }

    fn trace_with(id: TraceId, status: SpanStatus, duration_ms: u64) -> Trace {
        let mut s = span(0, None, status);
        s.duration = SimDuration::from_millis(duration_ms);
        Trace::new(id, vec![s])
    }

    #[test]
    fn tail_sampling_keeps_errors_and_downsamples_healthy() {
        let mut c = TraceCollector::all();
        // Disable the slow rule (huge warmup) to isolate the other two.
        c.set_tail_sampling(Some(TailSamplingConfig {
            healthy_keep_one_in: 4,
            slow_quantile: 0.95,
            warmup: u64::MAX,
        }));
        for i in 0..8u64 {
            let id = c.begin_trace().unwrap();
            c.record(trace_with(id, SpanStatus::Ok, 10 + i));
        }
        for _ in 0..3 {
            let id = c.begin_trace().unwrap();
            c.record(trace_with(id, SpanStatus::Failed, 10));
        }
        // 1-in-4 of the 8 healthy (ids 1 and 5, weight 4) + all 3 failed.
        let kept: Vec<(u64, u32)> = c.traces().map(|t| (t.id.0, t.weight)).collect();
        assert_eq!(kept, vec![(1, 4), (5, 4), (9, 1), (10, 1), (11, 1)]);
        let stats = c.sampling_stats();
        assert_eq!(stats.recorded, 11);
        assert_eq!(stats.tail_kept, 3);
        assert_eq!(stats.downsampled_kept, 2);
        assert_eq!(stats.healthy_dropped, 6);
        assert_eq!(stats.evicted, 0);
    }

    #[test]
    fn tail_sampling_flags_slow_traces_after_warmup() {
        let mut c = TraceCollector::all();
        c.set_tail_sampling(Some(TailSamplingConfig {
            healthy_keep_one_in: u32::MAX,
            slow_quantile: 0.9,
            warmup: 32,
        }));
        // Before warmup the first trace is the only healthy keep, and a
        // 100× outlier is not slow yet: the sketch has 31 of its 32 roots.
        let offer = |c: &mut TraceCollector, ms: u64| {
            let id = c.begin_trace().unwrap();
            c.record(trace_with(id, SpanStatus::Ok, ms));
            c.sampling_stats().tail_kept
        };
        for _ in 0..31 {
            offer(&mut c, 10);
        }
        assert_eq!(offer(&mut c, 1_000), 0, "still warming up");
        // After warmup the threshold is q0.9 = 10 ms widened by twice the
        // sketch's 1% error: 10 ms is not slow, 11 ms and the outlier are,
        // and both are retained despite Ok status.
        for _ in 0..8 {
            assert_eq!(offer(&mut c, 10), 0, "within the sketch's error of q0.9");
        }
        assert_eq!(offer(&mut c, 11), 1);
        assert_eq!(offer(&mut c, 1_000), 2, "the slow outlier is always retained");
        let kept: Vec<(u64, u32)> = c.traces().map(|t| (t.id.0, t.weight)).collect();
        assert_eq!(kept, [(1, u32::MAX), (41, 1), (42, 1)]);
    }

    #[test]
    fn tail_sampling_is_deterministic() {
        let run = || {
            let mut c = TraceCollector::all();
            c.set_tail_sampling(Some(TailSamplingConfig {
                healthy_keep_one_in: 3,
                slow_quantile: 0.9,
                warmup: 16,
            }));
            for i in 0..200u64 {
                let id = c.begin_trace().unwrap();
                let status = if i % 17 == 0 { SpanStatus::Failed } else { SpanStatus::Ok };
                c.record(trace_with(id, status, 5 + (i * 7) % 90));
            }
            let kept: Vec<(u64, u32)> = c.traces().map(|t| (t.id.0, t.weight)).collect();
            (kept, c.sampling_stats())
        };
        assert_eq!(run(), run(), "same offers, same decisions, same counters");
    }

    #[test]
    fn disabling_tail_sampling_restores_keep_everything() {
        let mut c = TraceCollector::all();
        let offer_five = |c: &mut TraceCollector| {
            for _ in 0..5 {
                let id = c.begin_trace().unwrap();
                c.record(trace_with(id, SpanStatus::Ok, 10));
            }
        };
        c.set_tail_sampling(Some(TailSamplingConfig::default()));
        offer_five(&mut c);
        assert_eq!((c.len(), c.sampling_stats().healthy_dropped), (1, 4), "1 in 10 kept");
        c.set_tail_sampling(None);
        offer_five(&mut c);
        assert_eq!(c.len(), 6);
        assert_eq!(c.sampling_stats().healthy_dropped, 0, "the tail state went with the policy");
        assert!(c.traces().skip(1).all(|t| t.weight == 1));
    }
}
