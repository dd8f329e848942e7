//! Trace-driven experiment health analysis (Chapter 5).
//!
//! The dissertation's analysis model assesses a change's health by
//! comparing how a canary's *interactions* behave against the baseline's,
//! edge by edge, instead of staring at one service-level dial. This
//! module is that analysis layer for the simulator: drained traces fold,
//! one [`Trace::hops`] walk each, into a [`HealthAccumulator`] (a
//! per-`service@version` interaction graph keyed by [`EdgeKey`]; dark
//! spans skipped, sheds and fallbacks counted beside the executed calls
//! rather than among them), and [`HealthReport::build`] diffs a
//! canary version against its baseline per logical endpoint — latency
//! quantiles (one walk of each edge's sketch,
//! [`QuantileSketch::quantiles`]), error rate, and retry amplification —
//! plus the critical path of each trace, so a regression is *localized*
//! to the interaction that degraded.
//!
//! Everything here is deterministic: folding order follows trace order,
//! latencies stream into a mergeable [`QuantileSketch`] (log-spaced
//! buckets, bounded state, no randomness), and [`HealthReport::render`]
//! emits a byte-stable text report. Edges live in an [`EdgeTable`] — the
//! per-span lookup is an index by endpoint id, not a tree descent — which
//! hands out slots in order of first sight; nothing reads it in that
//! order. The report, `state_bytes` and `==` all go through
//! [`EdgeTable::iter`], ascending by key, so the order in which a fold
//! discovered its edges cannot reach a report byte. Per-edge state is
//! O(sketch) — independent of traffic volume — and tail-sampled traces
//! fold with their [`Trace::weight`] so rates and quantile mass stay
//! unbiased under downsampling.

use crate::app::{EndpointId, VersionId};
use crate::trace::{EdgeKey, EdgeTable, SamplingStats, Span, SpanBook, SpanStatus, Trace};
use cex_core::intern::Sym;
use cex_core::sketch::QuantileSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Per-edge statistics accumulated from spans.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeStats {
    /// Executed calls (event spans — sheds and fallbacks — excluded).
    pub calls: u64,
    /// Executed calls with an error status (failed or timed out).
    pub errors: u64,
    /// Retry attempts (spans with `attempt > 0`).
    pub retries: u64,
    /// Attempts abandoned at the caller's deadline.
    pub timeouts: u64,
    /// Calls shed by an open circuit breaker.
    pub sheds: u64,
    /// Fallback responses served in place of the callee.
    pub fallbacks: u64,
    /// Latency sketch over executed calls (ms): bounded relative error,
    /// bounded state, deterministic merge.
    pub latency: QuantileSketch,
}

impl Default for EdgeStats {
    fn default() -> Self {
        EdgeStats {
            calls: 0,
            errors: 0,
            retries: 0,
            timeouts: 0,
            sheds: 0,
            fallbacks: 0,
            latency: QuantileSketch::for_latency(),
        }
    }
}

impl EdgeStats {
    pub(crate) fn fold(&mut self, span: &Span, weight: u64) {
        match span.status {
            SpanStatus::Shed => {
                self.sheds += weight;
                return;
            }
            SpanStatus::Fallback => {
                self.fallbacks += weight;
                return;
            }
            SpanStatus::TimedOut => {
                self.timeouts += weight;
                self.errors += weight;
            }
            SpanStatus::Failed => self.errors += weight,
            SpanStatus::Ok => {}
        }
        self.calls += weight;
        if span.attempt > 0 {
            self.retries += weight;
        }
        self.latency.push_weighted(span.duration.as_millis() as f64, weight);
    }

    /// Error rate over executed calls.
    pub fn error_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.errors as f64 / self.calls as f64
        }
    }

    /// Retry amplification: retry attempts per executed call.
    pub fn retry_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.retries as f64 / self.calls as f64
        }
    }

    fn merge(&mut self, other: &EdgeStats) {
        self.calls += other.calls;
        self.errors += other.errors;
        self.retries += other.retries;
        self.timeouts += other.timeouts;
        self.sheds += other.sheds;
        self.fallbacks += other.fallbacks;
        self.latency.merge(&other.latency);
    }
}

/// Folds drained traces into a per-`service@version` interaction graph:
/// edge statistics keyed by [`EdgeKey`] plus per-trace critical paths.
#[derive(Debug, Clone, Default)]
pub struct HealthAccumulator {
    edges: EdgeTable<EdgeStats>,
    /// How often `(version, endpoint)` terminated a trace's critical path.
    critical_sinks: BTreeMap<(VersionId, EndpointId), u64>,
    traces: u64,
    failed_traces: u64,
    /// Per-trace scratch of [`critical_sink_in`], kept for its capacity.
    last_child: Vec<Option<usize>>,
}

impl HealthAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        HealthAccumulator::default()
    }

    /// Folds one trace: every primary span lands on its interaction edge
    /// and the trace's critical path is walked down to its sink. Dark
    /// (mirrored) spans are excluded — they are not on the user path the
    /// health verdict is about. A tail-sampled trace folds with its
    /// [`Trace::weight`] — a downsampled healthy representative counts
    /// for the `weight` peers it stands in for, so rates and quantile
    /// mass stay unbiased.
    pub fn observe_trace(&mut self, trace: &Trace) {
        let weight = u64::from(trace.weight);
        for hop in trace.hops().filter(|hop| !hop.span.dark) {
            self.edges.get_or_default(hop.edge()).fold(hop.span, weight);
        }
        if let Some(sink) = critical_sink_in(trace, &mut self.last_child) {
            *self.critical_sinks.entry((sink.version, sink.endpoint)).or_default() += weight;
        }
        self.traces += weight;
        if !trace.ok() {
            self.failed_traces += weight;
        }
    }

    /// Folds a batch of traces in order.
    pub fn observe_all<'a>(&mut self, traces: impl IntoIterator<Item = &'a Trace>) {
        for trace in traces {
            self.observe_trace(trace);
        }
    }

    /// Traces folded so far.
    pub fn traces(&self) -> u64 {
        self.traces
    }

    /// Traces whose root failed.
    pub fn failed_traces(&self) -> u64 {
        self.failed_traces
    }

    /// The interaction graph: per-edge statistics, read by key or in key
    /// order.
    pub fn edges(&self) -> &EdgeTable<EdgeStats> {
        &self.edges
    }

    /// How often each `(version, endpoint)` terminated a critical path.
    pub fn critical_sinks(&self) -> &BTreeMap<(VersionId, EndpointId), u64> {
        &self.critical_sinks
    }

    /// Approximate resident bytes of the accumulated health state:
    /// per-edge counters plus sketch buckets plus sink counters. Bounded
    /// by topology (edges × sketch cap), not by traffic.
    pub fn state_bytes(&self) -> usize {
        let edges: usize = self
            .edges
            .iter()
            .map(|(_, s)| {
                std::mem::size_of::<EdgeKey>() + std::mem::size_of::<EdgeStats>()
                    - std::mem::size_of::<QuantileSketch>()
                    + s.latency.state_bytes()
            })
            .sum();
        let sinks = self.critical_sinks.len()
            * (std::mem::size_of::<(VersionId, EndpointId)>() + std::mem::size_of::<u64>());
        std::mem::size_of::<Self>() + edges + sinks
    }

    /// Aggregates this version's serving edges per logical endpoint
    /// symbol (callers merged).
    fn per_endpoint(&self, book: &SpanBook, version: VersionId) -> BTreeMap<Sym, EdgeStats> {
        let mut out: BTreeMap<Sym, EdgeStats> = BTreeMap::new();
        for (key, stats) in self.edges.iter() {
            if key.callee == version {
                out.entry(book.endpoint_sym(key.endpoint)).or_default().merge(stats);
            }
        }
        out
    }

    /// `canary` against `baseline` per logical endpoint, sorted by endpoint
    /// name: [`HealthReport::edges`], without the rest of the report.
    /// Endpoints are matched by their shared interner symbol, so versions
    /// with differing [`EndpointId`]s still line up.
    pub fn edge_deltas(
        &self,
        book: &SpanBook,
        baseline: VersionId,
        canary: VersionId,
    ) -> Vec<EdgeDelta> {
        let base_map = self.per_endpoint(book, baseline);
        let canary_map = self.per_endpoint(book, canary);
        let mut names: Vec<Sym> = base_map.keys().chain(canary_map.keys()).copied().collect();
        names.sort();
        names.dedup();
        let default = EdgeStats::default();
        let mut edges: Vec<EdgeDelta> = names
            .into_iter()
            .map(|sym| {
                let base = base_map.get(&sym).unwrap_or(&default);
                let can = canary_map.get(&sym).unwrap_or(&default);
                EdgeDelta {
                    endpoint: book.sym_name(sym).to_string(),
                    baseline: EdgeSummary::from_stats(base),
                    canary: EdgeSummary::from_stats(can),
                }
            })
            .collect();
        edges.sort_by(|a, b| a.endpoint.cmp(&b.endpoint));
        edges
    }
}

/// The most degraded of `edges` (highest [`EdgeDelta::score`]), ties
/// broken by the smaller endpoint name: [`HealthReport::worst_edge`].
pub fn worst_edge(edges: &[EdgeDelta]) -> Option<&EdgeDelta> {
    edges.iter().max_by(|a, b| a.score().total_cmp(&b.score()).then(b.endpoint.cmp(&a.endpoint)))
}

/// Walks a trace's critical path: from the root, repeatedly descend into
/// the primary child whose interval ends last (ties: the smaller span id),
/// returning the terminal span. The sink is where the trace's latency was
/// actually spent.
pub fn critical_sink(trace: &Trace) -> Option<&Span> {
    critical_sink_in(trace, &mut Vec::new())
}

/// [`critical_sink`] over a caller-owned scratch: one pass files every
/// primary span as its caller's last-ending child so far, then the path is
/// followed down from the root.
fn critical_sink_in<'a>(trace: &'a Trace, last_child: &mut Vec<Option<usize>>) -> Option<&'a Span> {
    last_child.clear();
    last_child.resize(trace.spans.len(), None);
    for hop in trace.hops().filter(|hop| !hop.span.dark) {
        let Some((caller, _)) = hop.caller else { continue };
        let later = last_child[caller].is_none_or(|best| {
            let best = &trace.spans[best];
            (hop.span.end(), best.span.0) >= (best.end(), hop.span.span.0)
        });
        if later {
            last_child[caller] = Some(hop.index);
        }
    }
    let mut current = 0;
    while let Some(child) = *last_child.get(current)? {
        current = child;
    }
    Some(&trace.spans[current])
}

/// One logical endpoint compared between canary and baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeDelta {
    /// Logical endpoint name (shared across versions).
    pub endpoint: String,
    /// Baseline-side statistics (callers merged).
    pub baseline: EdgeSummary,
    /// Canary-side statistics (callers merged).
    pub canary: EdgeSummary,
}

/// Scalar summary of one side of an [`EdgeDelta`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeSummary {
    /// Executed calls.
    pub calls: u64,
    /// Error rate over executed calls.
    pub error_rate: f64,
    /// Retry attempts per executed call.
    pub retry_rate: f64,
    /// Median latency (ms); `0` when no calls executed.
    pub p50_ms: f64,
    /// 95th-percentile latency (ms); `0` when no calls executed.
    pub p95_ms: f64,
    /// Calls shed by an open breaker.
    pub sheds: u64,
    /// Fallback responses served.
    pub fallbacks: u64,
}

impl EdgeSummary {
    fn from_stats(stats: &EdgeStats) -> EdgeSummary {
        let qs = stats.latency.quantiles(&[0.5, 0.95]).unwrap_or_else(|| vec![0.0, 0.0]);
        EdgeSummary {
            calls: stats.calls,
            error_rate: stats.error_rate(),
            retry_rate: stats.retry_rate(),
            p50_ms: qs[0],
            p95_ms: qs[1],
            sheds: stats.sheds,
            fallbacks: stats.fallbacks,
        }
    }
}

/// Weight of the canary−baseline error-rate delta in [`EdgeDelta::score`].
/// Error rate is a fraction in `[0, 1]`, latency deltas are milliseconds;
/// this scale makes a 1-point (0.01) error-rate regression outrank a
/// 10 ms p95 regression — user-visible failures dominate slowdowns.
pub const SCORE_ERROR_RATE_WEIGHT: f64 = 1_000.0;

/// Weight of the retry-amplification delta in [`EdgeDelta::score`].
/// Retries are an early saturation signal but cheaper than hard errors:
/// one order of magnitude below [`SCORE_ERROR_RATE_WEIGHT`], one above
/// raw milliseconds.
pub const SCORE_RETRY_RATE_WEIGHT: f64 = 100.0;

/// Weight of the p95 latency delta (ms) in [`EdgeDelta::score`] — the
/// unit scale the other weights are expressed against.
pub const SCORE_P95_DELTA_WEIGHT: f64 = 1.0;

impl EdgeDelta {
    /// Canary − baseline error-rate difference.
    pub fn error_rate_delta(&self) -> f64 {
        self.canary.error_rate - self.baseline.error_rate
    }

    /// Canary − baseline retry-amplification difference.
    pub fn retry_rate_delta(&self) -> f64 {
        self.canary.retry_rate - self.baseline.retry_rate
    }

    /// Canary − baseline p95 latency difference (ms).
    pub fn p95_delta_ms(&self) -> f64 {
        self.canary.p95_ms - self.baseline.p95_ms
    }

    /// Degradation score used to rank edges: error-rate deltas dominate,
    /// retry amplification next, latency deltas break ties. Weights are
    /// the documented [`SCORE_ERROR_RATE_WEIGHT`] /
    /// [`SCORE_RETRY_RATE_WEIGHT`] / [`SCORE_P95_DELTA_WEIGHT`]
    /// constants.
    pub fn score(&self) -> f64 {
        self.error_rate_delta() * SCORE_ERROR_RATE_WEIGHT
            + self.retry_rate_delta() * SCORE_RETRY_RATE_WEIGHT
            + self.p95_delta_ms() * SCORE_P95_DELTA_WEIGHT
    }
}

/// A deterministic canary-vs-baseline health report for one service.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Service under experiment.
    pub service: String,
    /// Baseline `service@version` label.
    pub baseline: String,
    /// Canary `service@version` label.
    pub canary: String,
    /// Traces folded into the underlying accumulator.
    pub traces: u64,
    /// Traces whose root failed.
    pub failed_traces: u64,
    /// Per-endpoint deltas, sorted by endpoint name.
    pub edges: Vec<EdgeDelta>,
    /// Critical-path sinks (`service@version/endpoint`, count), most
    /// frequent first.
    pub critical_sinks: Vec<(String, u64)>,
    /// Trace-collector sampling counters at build time, so sampling bias
    /// is visible wherever the report lands (render, journal, replay).
    pub sampling: SamplingStats,
}

impl HealthReport {
    /// Diffs `canary` against `baseline` per logical endpoint
    /// ([`HealthAccumulator::edge_deltas`]) and lists the critical-path
    /// sinks.
    pub fn build(
        acc: &HealthAccumulator,
        book: &SpanBook,
        baseline: VersionId,
        canary: VersionId,
    ) -> HealthReport {
        let edges = acc.edge_deltas(book, baseline, canary);
        let mut critical_sinks: Vec<(String, u64)> = acc
            .critical_sinks
            .iter()
            .map(|((v, e), n)| {
                (format!("{}/{}", book.version_label(*v), book.endpoint_name(*e)), *n)
            })
            .collect();
        critical_sinks.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        HealthReport {
            service: book.service_name(book.service_of(canary)).to_string(),
            baseline: book.version_label(baseline).to_string(),
            canary: book.version_label(canary).to_string(),
            traces: acc.traces(),
            failed_traces: acc.failed_traces(),
            edges,
            critical_sinks,
            sampling: SamplingStats::default(),
        }
    }

    /// Attaches the trace collector's sampling counters so the report
    /// (and anything journaling it) discloses how traces were selected.
    pub fn with_sampling(mut self, sampling: SamplingStats) -> HealthReport {
        self.sampling = sampling;
        self
    }

    /// The most degraded endpoint (highest [`EdgeDelta::score`]), ties
    /// broken by endpoint name.
    pub fn worst_edge(&self) -> Option<&EdgeDelta> {
        worst_edge(&self.edges)
    }

    /// `true` when some edge degraded beyond the given error-rate or p95
    /// latency thresholds.
    pub fn degraded(&self, max_error_rate_delta: f64, max_p95_delta_ms: f64) -> bool {
        self.edges.iter().any(|e| {
            e.error_rate_delta() > max_error_rate_delta || e.p95_delta_ms() > max_p95_delta_ms
        })
    }

    /// Byte-deterministic text rendering (same accumulator state → same
    /// bytes), suitable for journals and golden files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "health report: service {} canary {} vs baseline {}",
            self.service, self.canary, self.baseline
        );
        let _ = writeln!(out, "traces {} failed {}", self.traces, self.failed_traces);
        if self.sampling != SamplingStats::default() {
            let _ = writeln!(
                out,
                "sampling: recorded {} evicted {} tail_kept {} downsampled_kept {} \
                 healthy_dropped {}",
                self.sampling.recorded,
                self.sampling.evicted,
                self.sampling.tail_kept,
                self.sampling.downsampled_kept,
                self.sampling.healthy_dropped,
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "edge {}: calls {} -> {}, error_rate {:.4} -> {:.4} (delta {:+.4}), \
                 p50 {:.2} -> {:.2} ms, p95 {:.2} -> {:.2} ms (delta {:+.2}), \
                 retry_rate {:.4} -> {:.4}, sheds {} -> {}, fallbacks {} -> {}",
                e.endpoint,
                e.baseline.calls,
                e.canary.calls,
                e.baseline.error_rate,
                e.canary.error_rate,
                e.error_rate_delta(),
                e.baseline.p50_ms,
                e.canary.p50_ms,
                e.baseline.p95_ms,
                e.canary.p95_ms,
                e.p95_delta_ms(),
                e.baseline.retry_rate,
                e.canary.retry_rate,
                e.baseline.sheds,
                e.canary.sheds,
                e.baseline.fallbacks,
                e.canary.fallbacks,
            );
        }
        for (sink, n) in self.critical_sinks.iter().take(5) {
            let _ = writeln!(out, "critical path sink {sink}: {n}");
        }
        if let Some(worst) = self.worst_edge() {
            let _ = writeln!(out, "worst edge {}: score {:.2}", worst.endpoint, worst.score());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Application, CallDef, EndpointDef, VersionSpec};
    use crate::latency::LatencyModel;
    use crate::sim::Simulation;
    use cex_core::simtime::SimDuration;

    fn canary_app() -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("frontend", "1.0.0").capacity(10_000.0).endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("backend", "api")),
            ),
        );
        b.version(
            VersionSpec::new("backend", "1.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        b.build().unwrap()
    }

    fn simulate_canary(err: f64, latency_ms: f64) -> (Simulation, VersionId, VersionId) {
        let mut sim = Simulation::new(canary_app(), 77);
        sim.set_trace_sampling(1.0);
        let candidate = sim
            .deploy(VersionSpec::new("backend", "2.0.0").capacity(10_000.0).endpoint(
                EndpointDef::new("api", LatencyModel::Constant { ms: latency_ms }).error_rate(err),
            ))
            .unwrap();
        let backend = sim.app().service_id("backend").unwrap();
        let baseline = sim.app().version_id("backend", "1.0.0").unwrap();
        let snapshot = sim.app().clone();
        sim.router_mut()
            .set_split(&snapshot, backend, vec![(baseline, 0.5), (candidate, 0.5)])
            .unwrap();
        sim.run(SimDuration::from_secs(30), 40.0);
        (sim, baseline, candidate)
    }

    #[test]
    fn edge_state_is_bounded_regardless_of_traffic() {
        let mut stats = EdgeStats::default();
        let (mut sim, _, _) = simulate_canary(0.0, 10.0);
        let traces = sim.drain_traces();
        let span = traces[0].spans[0];
        let before = std::mem::size_of::<EdgeStats>();
        for _ in 0..100_000 {
            stats.fold(&span, 1);
        }
        assert_eq!(stats.calls, 100_000);
        assert_eq!(stats.latency.count(), 100_000);
        // Sketch state is bucket-capped: far below one raw f64 per call.
        assert!(
            stats.latency.state_bytes() < 64 * 1024,
            "sketch stays bounded: {} bytes (struct {before})",
            stats.latency.state_bytes()
        );
    }

    #[test]
    fn weighted_folds_match_repeated_folds() {
        let (mut sim, _, _) = simulate_canary(0.3, 25.0);
        let traces = sim.drain_traces();
        let mut repeated = HealthAccumulator::new();
        for t in &traces {
            for _ in 0..3 {
                repeated.observe_trace(t);
            }
        }
        let mut weighted = HealthAccumulator::new();
        for t in &traces {
            let mut heavy = t.clone();
            heavy.weight = 3;
            weighted.observe_trace(&heavy);
        }
        assert_eq!(repeated.traces(), weighted.traces());
        assert_eq!(repeated.failed_traces(), weighted.failed_traces());
        assert_eq!(repeated.edges(), weighted.edges(), "weight-3 fold == 3 identical folds");
        assert_eq!(repeated.critical_sinks(), weighted.critical_sinks());
    }

    #[test]
    fn worst_edge_tie_break_is_deterministic() {
        // Two endpoints with byte-identical deltas: the lexicographically
        // smaller endpoint must win, on every evaluation order.
        let summary = EdgeSummary { calls: 10, ..EdgeSummary::default() };
        let edge = |name: &str| EdgeDelta {
            endpoint: name.to_string(),
            baseline: summary.clone(),
            canary: summary.clone(),
        };
        let mut report = HealthReport {
            service: "svc".into(),
            baseline: "svc@1".into(),
            canary: "svc@2".into(),
            traces: 10,
            failed_traces: 0,
            edges: vec![edge("beta"), edge("alpha")],
            critical_sinks: Vec::new(),
            sampling: SamplingStats::default(),
        };
        assert_eq!(report.worst_edge().unwrap().endpoint, "alpha");
        report.edges.reverse();
        assert_eq!(
            report.worst_edge().unwrap().endpoint,
            "alpha",
            "tie-break independent of edge order"
        );
        // And the score itself is built from the documented constants.
        let e = edge("alpha");
        assert_eq!(
            e.score(),
            e.error_rate_delta() * SCORE_ERROR_RATE_WEIGHT
                + e.retry_rate_delta() * SCORE_RETRY_RATE_WEIGHT
                + e.p95_delta_ms() * SCORE_P95_DELTA_WEIGHT
        );
    }

    #[test]
    fn accumulator_builds_interaction_graph() {
        let (mut sim, _, _) = simulate_canary(0.0, 10.0);
        let traces = sim.drain_traces();
        let mut acc = HealthAccumulator::new();
        acc.observe_all(&traces);
        assert_eq!(acc.traces(), traces.len() as u64);
        // Entry edge (None → frontend) plus frontend → each backend version.
        assert_eq!(acc.edges().len(), 3);
        let total_backend_calls: u64 =
            acc.edges().iter().filter(|(k, _)| k.caller.is_some()).map(|(_, s)| s.calls).sum();
        assert_eq!(total_backend_calls, traces.len() as u64);
        // Every trace's latency sink is the slow-leaf backend hop.
        let sinks: u64 = acc.critical_sinks().values().sum();
        assert_eq!(sinks, traces.len() as u64);
    }

    #[test]
    fn report_localizes_faulty_canary() {
        let (mut sim, baseline, canary) = simulate_canary(0.5, 60.0);
        let book = sim.span_book();
        let traces = sim.drain_traces();
        let mut acc = HealthAccumulator::new();
        acc.observe_all(&traces);
        let report = HealthReport::build(&acc, &book, baseline, canary);
        assert_eq!(report.service, "backend");
        assert_eq!(report.canary, "backend@2.0.0");
        let worst = report.worst_edge().expect("an edge was compared");
        assert_eq!(worst.endpoint, "api", "the degraded edge is localized");
        assert!(worst.error_rate_delta() > 0.3, "delta {}", worst.error_rate_delta());
        assert!(worst.p95_delta_ms() > 40.0, "p95 delta {}", worst.p95_delta_ms());
        assert!(report.degraded(0.1, 1_000.0));
        assert!(report.degraded(1.0, 25.0));
        assert!(!report.degraded(1.0, 1_000.0));
    }

    #[test]
    fn healthy_canary_is_not_flagged() {
        let (mut sim, baseline, canary) = simulate_canary(0.0, 10.0);
        let book = sim.span_book();
        let traces = sim.drain_traces();
        let mut acc = HealthAccumulator::new();
        acc.observe_all(&traces);
        let report = HealthReport::build(&acc, &book, baseline, canary);
        assert!(!report.degraded(0.05, 5.0), "identical behaviour is healthy");
    }

    #[test]
    fn render_is_byte_deterministic() {
        let build = || {
            let (mut sim, baseline, canary) = simulate_canary(0.5, 60.0);
            let book = sim.span_book();
            let traces = sim.drain_traces();
            let mut acc = HealthAccumulator::new();
            acc.observe_all(&traces);
            HealthReport::build(&acc, &book, baseline, canary).render()
        };
        let a = build();
        assert_eq!(a, build(), "same seed, same bytes");
        assert!(a.contains("health report: service backend canary backend@2.0.0"));
        assert!(a.contains("worst edge api"));
    }

    #[test]
    fn critical_sink_follows_latest_ending_child() {
        let (mut sim, _, _) = simulate_canary(0.0, 10.0);
        let traces = sim.drain_traces();
        let trace = &traces[0];
        let sink = critical_sink(trace).unwrap();
        // The chain bottoms out in a backend hop: the sink has no children.
        assert_eq!(trace.children_of(sink.span).count(), 0);
        assert!(sink.parent.is_some());
    }
}
