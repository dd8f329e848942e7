//! Health-pipeline scale benchmark: mergeable quantile sketches +
//! tail-based sampling at 10⁷-trace scale.
//!
//! Drives ten million synthetic two-span traces (deterministic SplitMix64
//! workload: lognormal latencies, a canary with injected degradations of
//! known severity) through two pipelines:
//!
//! 1. **Sketch** — the real pipeline: [`TraceCollector`] with tail-based
//!    sampling (errors and slow traces always kept, healthy ones
//!    downsampled to weighted 1-in-`k` representatives) feeding the
//!    sketch-backed [`HealthAccumulator`], drained every tick like the
//!    Bifrost engine does.
//! 2. **Exact reference** — every latency of every generated span stored
//!    raw, sorted at the end for ground-truth quantiles, rates and
//!    ranking scores.
//!
//! Printed, all decided by the seed: the sketch and tail-sampling config,
//! the sampling counts, the sketch pipeline's peak health + trace state
//! bytes, p50/p95 relative error vs exact (acceptance ≤ 2%, asserted), and
//! nDCG@5 fault-localization ranking via `topology::rank::ndcg_at` against
//! the injected severities (acceptance: sketch ranking equal to the
//! exact-quantile run, asserted). `scripts/check_results.sh` diffs the
//! stdout against `results/bench_health_scale.txt`, so a tripped
//! assertion fails that gate too.

use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, EndpointDef, EndpointId, VersionId, VersionSpec};
use microsim::health::{HealthAccumulator, HealthReport};
use microsim::latency::LatencyModel;
use microsim::trace::{
    Span, SpanBook, SpanId, SpanStatus, TailSamplingConfig, Trace, TraceCollector, TraceId,
};
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
        span: SpanId(0),
        parent: None,
        version: identity.fe_version,
        endpoint: identity.fe_endpoint,
        start: SimTime::ZERO,
        duration: SimDuration::from_millis(lat_ms + 5),
        status,
        attempt: 0,
        dark: false,
    };
    let child = Span {
        span: SpanId(1),
        parent: Some(SpanId(0)),
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
    let mut exact = vec![vec![ExactCell::default(); ENDPOINTS]; 2];

    let mut sketch_peak = 0usize;
    let mut scratch: Vec<Trace> = Vec::new();

    let mut produced = 0u64;
    while produced < total_traces {
        // One tick: record, drain, fold, and measure the pipeline's state
        // while the drained traces are still held.
        let tick_end = total_traces.min(produced + TICK_TRACES as u64);
        while produced < tick_end {
            produced += 1;
            let (trace, side, endpoint, lat_ms, failed) = synthesize(produced, &identity, &mut rng);
            let cell = &mut exact[side][endpoint];
            cell.calls += 1;
            cell.errors += failed as u64;
            cell.latencies.push(lat_ms as f32);
            sketch_col.record(trace);
        }
        sketch_col.drain_into(&mut scratch);
        sketch_health.observe_all(&scratch);
        sketch_peak = sketch_peak
            .max(sketch_col.state_bytes() + scratch_bytes(&scratch) + sketch_health.state_bytes());
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

fn main() {
    let o = drive(10_000_000);
    let tail = tail_config();
    let s = &o.report.sampling;
    println!("=== Health at scale: quantile sketches + tail sampling over 10M traces ===");
    println!("config: {} traces, {ENDPOINTS} endpoints, {TICK_TRACES} traces per tick", o.traces);
    println!(
        "sketch: relative error {}, at most {} buckets",
        cex_core::sketch::RELATIVE_ERROR,
        cex_core::sketch::MAX_BUCKETS
    );
    println!(
        "tail sampling: keep 1 in {} healthy, slow above q{}, warmup {}",
        tail.healthy_keep_one_in, tail.slow_quantile, tail.warmup
    );
    println!(
        "sampling: recorded {}, evicted {}, tail kept {}, downsampled kept {}, healthy dropped {}",
        s.recorded, s.evicted, s.tail_kept, s.downsampled_kept, s.healthy_dropped
    );
    println!("peak state: sketch pipeline {} bytes", o.sketch_peak);
    println!(
        "quantiles: max relative error p50 {:.6} p95 {:.6} (acceptance <= 0.02)",
        o.max_p50_err, o.max_p95_err
    );
    let order: Vec<String> = o.sketch_order.iter().map(|e| format!("ep{e}")).collect();
    println!(
        "ranking: nDCG@5 sketch {:.6} exact {:.6}; degraded endpoints in exact order: {}",
        o.ndcg_sketch, o.ndcg_exact, o.orders_equal
    );
    println!("ranking: sketch order {}", order.join(" "));

    assert!(o.traces >= 10_000_000);
    assert!(o.max_p50_err <= 0.02, "p50 relative error {} above 2%", o.max_p50_err);
    assert!(o.max_p95_err <= 0.02, "p95 relative error {} above 2%", o.max_p95_err);
    assert!(o.orders_equal, "sketch ranking of degraded endpoints diverged from the exact run");
    assert_eq!(o.ndcg_sketch, o.ndcg_exact, "nDCG@5 must match the exact run");
}
