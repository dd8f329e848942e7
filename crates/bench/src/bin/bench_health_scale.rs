//! Health-pipeline scale benchmark: mergeable quantile sketches +
//! tail-based sampling at 10⁷-trace scale.
//!
//! Drives ten million synthetic two-span traces (deterministic SplitMix64
//! workload: lognormal latencies, a canary with injected degradations of
//! known severity) through three parallel pipelines:
//!
//! 1. **Sketch** — the real pipeline: [`TraceCollector`] with tail-based
//!    sampling (errors and slow traces always kept, healthy ones
//!    downsampled to weighted 1-in-`k` representatives) feeding the
//!    sketch-backed [`HealthAccumulator`], drained every tick like the
//!    Bifrost engine does.
//! 2. **Reservoir baseline** — a faithful in-bin reconstruction of the
//!    pre-sketch pipeline: every recorded trace retained (up to the ring
//!    cap) and per-edge latency kept in the old stride-doubling 2,048
//!    sample reservoir.
//! 3. **Exact reference** — every latency of every generated span stored
//!    raw, sorted at the end for ground-truth quantiles, rates and
//!    ranking scores.
//!
//! Measured: peak health + trace state bytes (sketch vs reservoir,
//! acceptance ≥ 5× reduction), ingestion throughput, p50/p95 relative
//! error vs exact (acceptance ≤ 2%), and nDCG@5 fault-localization
//! ranking via `topology::rank::ndcg_at` against the injected severities
//! (acceptance: sketch ranking equal to the exact-quantile run).
//!
//! Writes `results/BENCH_health_scale.json`, self-describing: sketch
//! α/bucket cap and the tail-sampling config ride along. With `--smoke
//! [--out PATH]` a reduced run emits only deterministic fields — CI runs
//! it twice and byte-diffs the outputs.

use cex_bench::{smoke_args, write_bench_json};
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, EndpointDef, EndpointId, VersionId, VersionSpec};
use microsim::health::{HealthAccumulator, HealthReport};
use microsim::latency::LatencyModel;
use microsim::trace::{
    EdgeKey, Span, SpanBook, SpanId, SpanStatus, TailSamplingConfig, Trace, TraceCollector, TraceId,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use topology::rank::{ndcg_at, Ranking};

/// Logical endpoints on the backend service under comparison.
const ENDPOINTS: usize = 8;
/// Traces per drain tick (the engine drains its collector every tick).
const TICK_TRACES: usize = 10_000;
/// Canary latency multipliers per endpoint (ground-truth injection).
const LATENCY_MULT: [f64; ENDPOINTS] = [3.0, 1.0, 1.4, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Canary extra error rate per endpoint (ground-truth injection).
const EXTRA_ERR: [f64; ENDPOINTS] = [0.0, 0.10, 0.0, 0.02, 0.0, 0.0, 0.0, 0.0];
/// Baseline error rate on every endpoint.
const BASE_ERR: f64 = 0.005;
/// Graded relevance of each endpoint for nDCG@5, aligned with the
/// injected severities (ep0 worst, then ep1, ep2, ep3, rest healthy).
const RELEVANCE: [f64; ENDPOINTS] = [4.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0];

/// Tail-sampling policy the sketch pipeline runs with.
fn tail_config() -> TailSamplingConfig {
    TailSamplingConfig { healthy_keep_one_in: 32, slow_quantile: 0.99, warmup: 4_096 }
}

fn base_latency_ms(endpoint: usize) -> f64 {
    40.0 + 25.0 * endpoint as f64
}

/// frontend → backend@{1.0.0, 2.0.0} with `ENDPOINTS` logical endpoints;
/// spans are synthesized by hand, the app only provides interned identity.
fn scale_app() -> Application {
    let mut b = Application::builder();
    let mut fe = VersionSpec::new("frontend", "1.0.0").capacity(1e9);
    fe = fe.endpoint(EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 }));
    b.version(fe);
    let mut be = VersionSpec::new("backend", "1.0.0").capacity(1e9);
    for e in 0..ENDPOINTS {
        be = be.endpoint(EndpointDef::new(
            format!("ep{e}"),
            LatencyModel::Constant { ms: base_latency_ms(e) },
        ));
    }
    b.version(be);
    let mut app = b.build().expect("scale app");
    let mut canary = VersionSpec::new("backend", "2.0.0").capacity(1e9);
    for e in 0..ENDPOINTS {
        canary = canary.endpoint(EndpointDef::new(
            format!("ep{e}"),
            LatencyModel::Constant { ms: base_latency_ms(e) },
        ));
    }
    app.deploy(canary).expect("canary deploys");
    app
}

/// Interned identity needed to synthesize one trace.
struct Identity {
    fe_version: VersionId,
    fe_endpoint: EndpointId,
    fe_service: microsim::app::ServiceId,
    be_service: microsim::app::ServiceId,
    versions: [VersionId; 2],
    endpoints: [[EndpointId; ENDPOINTS]; 2],
}

impl Identity {
    fn resolve(app: &Application) -> Identity {
        let fe_version = app.version_id("frontend", "1.0.0").unwrap();
        let v1 = app.version_id("backend", "1.0.0").unwrap();
        let v2 = app.version_id("backend", "2.0.0").unwrap();
        let eps = |v: VersionId| {
            let mut out = [EndpointId(0); ENDPOINTS];
            for (e, slot) in out.iter_mut().enumerate() {
                *slot = app.endpoint_of(v, &format!("ep{e}")).unwrap();
            }
            out
        };
        Identity {
            fe_version,
            fe_endpoint: app.endpoint_of(fe_version, "home").unwrap(),
            fe_service: app.service_id("frontend").unwrap(),
            be_service: app.service_id("backend").unwrap(),
            versions: [v1, v2],
            endpoints: [eps(v1), eps(v2)],
        }
    }
}

/// Standard normal via Box–Muller (deterministic, SplitMix-fed).
fn std_normal(rng: &mut SplitMix64) -> f64 {
    let u1 = 1.0 - rng.next_f64();
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// One synthetic trace: frontend root plus one backend call, with the
/// generated ground truth (side, endpoint, latency, error) reported back
/// for the exact reference.
fn synthesize(
    id: u64,
    identity: &Identity,
    rng: &mut SplitMix64,
) -> (Trace, usize, usize, u64, bool) {
    let side = (id % 2) as usize; // 0 = baseline, 1 = canary
    let endpoint = rng.next_index(ENDPOINTS);
    let err_rate = BASE_ERR + if side == 1 { EXTRA_ERR[endpoint] } else { 0.0 };
    let failed = rng.next_f64() < err_rate;
    let mult = if side == 1 { LATENCY_MULT[endpoint] } else { 1.0 };
    let lat = base_latency_ms(endpoint) * mult * (0.4 * std_normal(rng)).exp();
    let lat_ms = (lat.round() as u64).max(1);
    let status = if failed { SpanStatus::Failed } else { SpanStatus::Ok };
    let trace_id = TraceId(id);
    let root = Span {
        trace: trace_id,
        span: SpanId(0),
        parent: None,
        service: identity.fe_service,
        version: identity.fe_version,
        endpoint: identity.fe_endpoint,
        start: SimTime::ZERO,
        duration: SimDuration::from_millis(lat_ms + 5),
        status,
        attempt: 0,
        dark: false,
    };
    let child = Span {
        trace: trace_id,
        span: SpanId(1),
        parent: Some(SpanId(0)),
        service: identity.be_service,
        version: identity.versions[side],
        endpoint: identity.endpoints[side][endpoint],
        start: SimTime::from_millis(5),
        duration: SimDuration::from_millis(lat_ms),
        status,
        attempt: 0,
        dark: false,
    };
    (Trace::new(trace_id, vec![root, child]), side, endpoint, lat_ms, failed)
}

/// The pre-sketch stride-doubling reservoir, reconstructed byte for byte
/// from the replaced implementation (cap 2,048 samples per edge).
const RESERVOIR_CAP: usize = 2_048;

#[derive(Default)]
struct LegacyReservoir {
    samples: Vec<f64>,
    stride: u64,
    seen: u64,
}

impl LegacyReservoir {
    fn push(&mut self, value_ms: f64) {
        if self.stride == 0 {
            self.stride = 1;
        }
        if self.seen.is_multiple_of(self.stride) {
            if self.samples.len() == RESERVOIR_CAP {
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride *= 2;
            }
            self.samples.push(value_ms);
        }
        self.seen += 1;
    }
}

#[derive(Default)]
struct LegacyEdgeStats {
    calls: u64,
    errors: u64,
    latency: LegacyReservoir,
}

/// The reservoir-era health accumulator shape: raw samples per edge.
#[derive(Default)]
struct LegacyHealth {
    edges: BTreeMap<EdgeKey, LegacyEdgeStats>,
    traces: u64,
}

impl LegacyHealth {
    fn observe_all(&mut self, traces: &[Trace]) {
        for trace in traces {
            for hop in trace.hops() {
                let stats = self.edges.entry(hop.edge()).or_default();
                stats.calls += 1;
                if !hop.span.status.is_ok() {
                    stats.errors += 1;
                }
                stats.latency.push(hop.span.duration.as_millis() as f64);
            }
            self.traces += 1;
        }
    }

    fn state_bytes(&self) -> usize {
        let edges: usize = self
            .edges
            .values()
            .map(|s| {
                std::mem::size_of::<EdgeKey>()
                    + std::mem::size_of::<LegacyEdgeStats>()
                    + s.latency.samples.len() * std::mem::size_of::<f64>()
            })
            .sum();
        std::mem::size_of::<Self>() + edges
    }
}

/// Exact ground truth per (side, endpoint): every executed latency, raw.
#[derive(Default, Clone)]
struct ExactCell {
    latencies: Vec<f32>,
    calls: u64,
    errors: u64,
}

/// Nearest-rank quantile over a sorted slice (the sketch's convention).
fn exact_quantile(sorted: &[f32], q: f64) -> f64 {
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx] as f64
}

/// Builds a best-first ranking from per-endpoint scores (ties: lower
/// index first, matching `topology::rank`).
fn ranking_from_scores(scores: &[f64]) -> Ranking {
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap().then(a.cmp(&b)));
    Ranking { order, scores: scores.to_vec() }
}

struct Outcome {
    traces: u64,
    sketch_peak: usize,
    legacy_peak: usize,
    sketch_secs: f64,
    legacy_secs: f64,
    max_p50_err: f64,
    max_p95_err: f64,
    ndcg_sketch: f64,
    ndcg_exact: f64,
    orders_equal: bool,
    sketch_order: Vec<usize>,
    report: HealthReport,
}

fn drive(total_traces: u64) -> Outcome {
    let app = scale_app();
    let identity = Identity::resolve(&app);
    let book = SpanBook::from_app(&app);
    let mut rng = SplitMix64::new(0x5CA1_E0F5_EA1E);

    let mut sketch_col = TraceCollector::all();
    sketch_col.set_tail_sampling(Some(tail_config()));
    let mut sketch_health = HealthAccumulator::new();
    let mut legacy_col = TraceCollector::all();
    let mut legacy_health = LegacyHealth::default();
    let mut exact = vec![vec![ExactCell::default(); ENDPOINTS]; 2];

    let mut sketch_peak = 0usize;
    let mut legacy_peak = 0usize;
    let mut sketch_secs = 0.0f64;
    let mut legacy_secs = 0.0f64;
    let mut scratch: Vec<Trace> = Vec::new();
    let mut chunk: Vec<Trace> = Vec::with_capacity(TICK_TRACES);

    let mut produced = 0u64;
    while produced < total_traces {
        chunk.clear();
        while chunk.len() < TICK_TRACES && produced < total_traces {
            produced += 1;
            let (trace, side, endpoint, lat_ms, failed) = synthesize(produced, &identity, &mut rng);
            let cell = &mut exact[side][endpoint];
            cell.calls += 1;
            cell.errors += failed as u64;
            cell.latencies.push(lat_ms as f32);
            chunk.push(trace);
        }
        // Sketch pipeline: record, measure at ring high-water, drain, fold.
        let start = Instant::now();
        for trace in &chunk {
            sketch_col.record(trace.clone());
        }
        sketch_col.drain_into(&mut scratch);
        sketch_health.observe_all(&scratch);
        sketch_secs += start.elapsed().as_secs_f64();
        sketch_peak = sketch_peak
            .max(sketch_col.state_bytes() + scratch_bytes(&scratch) + sketch_health.state_bytes());
        // Reservoir pipeline: identical drain cadence, no tail sampling.
        let start = Instant::now();
        for trace in &chunk {
            legacy_col.record(trace.clone());
        }
        legacy_col.drain_into(&mut scratch);
        legacy_health.observe_all(&scratch);
        legacy_secs += start.elapsed().as_secs_f64();
        legacy_peak = legacy_peak
            .max(legacy_col.state_bytes() + scratch_bytes(&scratch) + legacy_health.state_bytes());
    }

    let report =
        HealthReport::build(&sketch_health, &book, identity.versions[0], identity.versions[1])
            .with_sampling(sketch_col.sampling_stats());

    // Quantile accuracy: sketch-backed p50/p95 per endpoint and side vs
    // the exact sorted-vector reference.
    let mut max_p50_err = 0.0f64;
    let mut max_p95_err = 0.0f64;
    let mut sketch_scores = vec![0.0f64; ENDPOINTS];
    let mut exact_scores = vec![0.0f64; ENDPOINTS];
    for edge in &report.edges {
        let e: usize = edge.endpoint.strip_prefix("ep").unwrap().parse().unwrap();
        for (side, cells) in exact.iter_mut().enumerate() {
            let cell = &mut cells[e];
            cell.latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let summary = if side == 0 { &edge.baseline } else { &edge.canary };
            let p50 = exact_quantile(&cell.latencies, 0.5);
            let p95 = exact_quantile(&cell.latencies, 0.95);
            max_p50_err = max_p50_err.max((summary.p50_ms - p50).abs() / p50);
            max_p95_err = max_p95_err.max((summary.p95_ms - p95).abs() / p95);
        }
        sketch_scores[e] = edge.score();
        let rate = |c: &ExactCell| c.errors as f64 / c.calls as f64;
        let p95 = |c: &ExactCell| exact_quantile(&c.latencies, 0.95);
        exact_scores[e] = (rate(&exact[1][e]) - rate(&exact[0][e]))
            * microsim::health::SCORE_ERROR_RATE_WEIGHT
            + (p95(&exact[1][e]) - p95(&exact[0][e])) * microsim::health::SCORE_P95_DELTA_WEIGHT;
    }

    let sketch_ranking = ranking_from_scores(&sketch_scores);
    let exact_ranking = ranking_from_scores(&exact_scores);
    let ndcg_sketch = ndcg_at(&sketch_ranking, &RELEVANCE, 5);
    let ndcg_exact = ndcg_at(&exact_ranking, &RELEVANCE, 5);
    let degraded = RELEVANCE.iter().filter(|r| **r > 0.0).count();

    Outcome {
        traces: produced,
        sketch_peak,
        legacy_peak,
        sketch_secs,
        legacy_secs,
        max_p50_err,
        max_p95_err,
        ndcg_sketch,
        ndcg_exact,
        // Order equality over the degraded endpoints (the ones with
        // nonzero relevance): healthy near-zero-score endpoints may tie
        // in any order without affecting fault localization.
        orders_equal: sketch_ranking.order[..degraded] == exact_ranking.order[..degraded],
        sketch_order: sketch_ranking.order,
        report,
    }
}

/// Bytes held by the drained scratch buffer (part of pipeline state while
/// a tick's fold is in flight).
fn scratch_bytes(scratch: &[Trace]) -> usize {
    let spans: usize = scratch.iter().map(|t| t.spans.len()).sum();
    std::mem::size_of_val(scratch) + spans * std::mem::size_of::<Span>()
}

fn json_fields(o: &Outcome, with_timings: bool) -> String {
    let tail = tail_config();
    let reduction = o.legacy_peak as f64 / o.sketch_peak as f64;
    let s = &o.report.sampling;
    let mut json = String::from("  \"config\": {\n");
    let _ = writeln!(json, "    \"traces\": {},", o.traces);
    let _ = writeln!(json, "    \"endpoints\": {ENDPOINTS},");
    let _ = writeln!(json, "    \"tick_traces\": {TICK_TRACES},");
    let _ = writeln!(
        json,
        "    \"sketch_relative_error\": {},",
        cex_core::sketch::DEFAULT_RELATIVE_ERROR
    );
    let _ =
        writeln!(json, "    \"sketch_max_buckets\": {},", cex_core::sketch::DEFAULT_MAX_BUCKETS);
    let _ = writeln!(json, "    \"tail_healthy_keep_one_in\": {},", tail.healthy_keep_one_in);
    let _ = writeln!(json, "    \"tail_slow_quantile\": {},", tail.slow_quantile);
    let _ = writeln!(json, "    \"tail_warmup\": {}", tail.warmup);
    json.push_str("  },\n  \"sampling\": {\n");
    let _ = writeln!(json, "    \"recorded\": {},", s.recorded);
    let _ = writeln!(json, "    \"evicted\": {},", s.evicted);
    let _ = writeln!(json, "    \"tail_kept\": {},", s.tail_kept);
    let _ = writeln!(json, "    \"downsampled_kept\": {},", s.downsampled_kept);
    let _ = writeln!(json, "    \"healthy_dropped\": {}", s.healthy_dropped);
    json.push_str("  },\n  \"state\": {\n");
    let _ = writeln!(json, "    \"sketch_peak_bytes\": {},", o.sketch_peak);
    let _ = writeln!(json, "    \"reservoir_peak_bytes\": {},", o.legacy_peak);
    let _ = writeln!(json, "    \"reduction\": {reduction:.2},");
    let _ = writeln!(json, "    \"acceptance_min_reduction\": 5.0");
    json.push_str("  },\n  \"accuracy\": {\n");
    let _ = writeln!(json, "    \"max_p50_relative_error\": {:.6},", o.max_p50_err);
    let _ = writeln!(json, "    \"max_p95_relative_error\": {:.6},", o.max_p95_err);
    let _ = writeln!(json, "    \"acceptance_max_relative_error\": 0.02");
    json.push_str("  },\n  \"ranking\": {\n");
    let _ = writeln!(json, "    \"ndcg_at_5_sketch\": {:.6},", o.ndcg_sketch);
    let _ = writeln!(json, "    \"ndcg_at_5_exact\": {:.6},", o.ndcg_exact);
    let _ = writeln!(json, "    \"orders_equal\": {},", o.orders_equal);
    let order: Vec<String> = o.sketch_order.iter().map(|e| format!("\"ep{e}\"")).collect();
    let _ = writeln!(json, "    \"sketch_order\": [{}]", order.join(", "));
    if with_timings {
        json.push_str("  },\n  \"throughput\": {\n");
        let _ = writeln!(
            json,
            "    \"sketch_traces_per_sec\": {:.0},",
            o.traces as f64 / o.sketch_secs
        );
        let _ = writeln!(
            json,
            "    \"reservoir_traces_per_sec\": {:.0}",
            o.traces as f64 / o.legacy_secs
        );
    }
    json.push_str("  }\n");
    json
}

fn run_smoke(out: &str) {
    let o = drive(200_000);
    write_bench_json(out, "health_scale_smoke", &json_fields(&o, false));
}

fn run_full() {
    println!("=== Health at scale: quantile sketches + tail sampling over 10M traces ===");
    let o = drive(10_000_000);
    let reduction = o.legacy_peak as f64 / o.sketch_peak as f64;
    println!(
        "peak state: sketch {} bytes vs reservoir {} bytes ({reduction:.1}x, acceptance >= 5x)",
        o.sketch_peak, o.legacy_peak
    );
    println!(
        "ingestion: sketch {:.0} traces/s, reservoir {:.0} traces/s",
        o.traces as f64 / o.sketch_secs,
        o.traces as f64 / o.legacy_secs
    );
    println!(
        "quantiles: max relative error p50 {:.4} p95 {:.4} (acceptance <= 0.02)",
        o.max_p50_err, o.max_p95_err
    );
    println!(
        "ranking: nDCG@5 sketch {:.4} exact {:.4} (acceptance: equal)",
        o.ndcg_sketch, o.ndcg_exact
    );
    write_bench_json("results/BENCH_health_scale.json", "health_scale", &json_fields(&o, true));

    assert!(o.traces >= 10_000_000);
    assert!(reduction >= 5.0, "peak state reduction {reduction:.2}x below the 5x acceptance bar");
    assert!(o.max_p50_err <= 0.02, "p50 relative error {} above 2%", o.max_p50_err);
    assert!(o.max_p95_err <= 0.02, "p95 relative error {} above 2%", o.max_p95_err);
    assert!(o.orders_equal, "sketch ranking of degraded endpoints diverged from the exact run");
    assert_eq!(o.ndcg_sketch, o.ndcg_exact, "nDCG@5 must match the exact run");
    println!("PASS: all acceptance criteria met");
}

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_health_scale_smoke.json");
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
