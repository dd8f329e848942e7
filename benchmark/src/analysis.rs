//! The `trace-analysis` workload: set-up captures traces from a corpus
//! scenario; every repetition folds them through each analysis layer
//! from fresh state, several passes in a row.

use crate::spans::Spans;
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::workloads::{AnalysisSpec, Checks, Outcome, RunArgs, Timing};
use cex_core::json::Json;
use cex_core::rng::sub_seed;
use cex_core::simtime::SimDuration;
use cex_core::sketch::QuantileSketch;
use microsim::corpus::{
    self, BlameAccumulator, FaultScenario, Scenario, TopologyFamily, WorkloadKind,
};
use microsim::health::{HealthAccumulator, HealthReport};
use microsim::sim::Simulation;
use microsim::trace::{EdgeKey, SpanBook, Trace};
use microsim::workload::Workload;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use topology::build::{build_graph, BuildOptions};
use topology::changes::classify;
use topology::heuristics::{all_variants, AnalysisContext};
use topology::perf::{generate_pair, PerfParams};
use topology::rank::{rank, Ranking};
use topology::{InteractionGraph, TopologicalDiff};

/// Share of the experiment service's traffic routed to its candidate.
const CANARY_SHARE: f64 = 0.3;
/// Mean arrival rate of the capture, bursty.
const CAPTURE_RPS: f64 = 250.0;
/// Simulated seconds per capture window; windows repeat until the trace
/// target is met, so the analysed volume does not depend on how bursty a
/// seed's arrivals happen to be.
const CAPTURE_WINDOW_S: u64 = 10;
/// Sketches the root latencies are spread over before the merge.
const SKETCH_SHARDS: usize = 8;
/// Quantile reads of the sketch's read drive.
const QUANTILE_READS: usize = 1_000;

/// Inputs of the analysis passes, built by set-up.
struct Captured {
    scenario: Scenario,
    book: SpanBook,
    healthy: Vec<Trace>,
    faulted: Vec<Trace>,
    pair: (InteractionGraph, InteractionGraph),
    spans_total: usize,
    /// Root latency of every captured trace in milliseconds: the sketch's input.
    latencies: Vec<f64>,
}

fn capture(sim: &mut Simulation, workload: &Workload, target: usize) -> Vec<Trace> {
    let mut traces = Vec::with_capacity(target);
    while traces.len() < target {
        sim.run_with(SimDuration::from_secs(CAPTURE_WINDOW_S), workload);
        traces.extend(sim.drain_traces());
    }
    traces.truncate(target);
    traces
}

/// A synthetic graph pair in which exactly `PerfParams::change_fraction` of
/// the endpoints changed version. `generate_pair` draws every service's
/// change independently, so the changed count — which the diff's and the
/// rankers' work is proportional to — wanders about 20% from seed to seed;
/// this takes the first sub-seed whose pair hits the nominal count. The
/// seed still decides which services changed and how they are wired.
fn fixed_change_pair(endpoints: usize, seed: u64) -> (InteractionGraph, InteractionGraph) {
    let params = PerfParams { endpoints, ..PerfParams::default() };
    let nominal = (endpoints as f64 * params.change_fraction).round() as usize;
    (0u64..)
        .map(|attempt| generate_pair(&params, sub_seed(seed, 0x9A12 + attempt)))
        .find(|(_, experimental)| {
            experimental.nodes().filter(|n| experimental.key(*n).version == "2.0.0").count()
                == nominal
        })
        .expect("an unbounded search ends only by finding")
}

fn set_up(spec: &AnalysisSpec, seed: u64, spans: &mut Spans) -> Captured {
    let (scenario, _) = spans.timed("corpus::generate", || {
        corpus::generate(TopologyFamily::CellPartition, sub_seed(seed, 0xCE11))
    });
    let workload = corpus::workload_for(&scenario, WorkloadKind::Bursty, CAPTURE_RPS);
    let (mut sim, _) = spans.timed("Simulation::new", || {
        let mut sim = Simulation::new(scenario.app.clone(), sub_seed(seed, 0x51D));
        sim.set_trace_sampling(1.0);
        sim.set_trace_retention(1 << 18);
        scenario.canary_split(&mut sim, CANARY_SHARE).expect("scenario deploys its candidate");
        sim
    });
    let (healthy, _) =
        spans.timed("capture healthy", || capture(&mut sim, &workload, spec.traces_per_window));
    let outage_until = sim.now() + SimDuration::from_secs(86_400);
    for fault in corpus::faults_for(&scenario, FaultScenario::ZoneOutage, sim.now(), outage_until) {
        sim.inject_fault(fault);
    }
    let (faulted, _) =
        spans.timed("capture faulted", || capture(&mut sim, &workload, spec.traces_per_window));
    let (pair, _) = spans
        .timed("topology::perf::generate_pair", || fixed_change_pair(spec.pair_endpoints, seed));
    let spans_total = healthy.iter().chain(&faulted).map(|t| t.spans.len()).sum();
    let latencies =
        healthy.iter().chain(&faulted).map(|t| t.response_time().as_millis_f64()).collect();
    Captured { book: sim.span_book(), scenario, healthy, faulted, pair, spans_total, latencies }
}

/// What one pass computed; every pass must compute the same.
#[derive(Debug, PartialEq)]
struct PassOutput {
    report: HealthReport,
    health_state_bytes: usize,
    localized: Vec<(EdgeKey, f64)>,
    changes: usize,
    rankings: Vec<Ranking>,
    sketch: Vec<u8>,
    sketch_p95: f64,
}

/// Per-stage wall times in seconds, one sample per pass.
type Stages = BTreeMap<&'static str, Vec<f64>>;

/// Runs one analysis stage inside a span named `span` and files its
/// seconds under `stage`.
fn timed_stage<T>(
    spans: &mut Spans,
    stages: &mut Stages,
    stage: &'static str,
    span: &str,
    run: impl FnOnce() -> T,
) -> T {
    let (out, took) = spans.timed(span, run);
    stages.entry(stage).or_default().push(took.as_secs_f64());
    out
}

fn diff_and_rank(
    baseline: &InteractionGraph,
    experimental: &InteractionGraph,
    spans: &mut Spans,
    stages: &mut Stages,
    out: &mut PassOutput,
) {
    let (diff, changes) =
        timed_stage(spans, stages, "diff", "TopologicalDiff::compute + classify", || {
            let diff = TopologicalDiff::compute(baseline, experimental);
            let changes = classify(&diff);
            (diff, changes)
        });
    let ctx = AnalysisContext { baseline, experimental, diff: &diff };
    let rankings = timed_stage(spans, stages, "rank", "rank x all_variants", || {
        all_variants().iter().map(|h| rank(h.as_ref(), &ctx, &changes)).collect::<Vec<_>>()
    });
    out.changes += changes.len();
    out.rankings.extend(rankings);
}

/// One analysis pass over the captured traces, every accumulator fresh.
fn pass(input: &Captured, spans: &mut Spans, stages: &mut Stages) -> PassOutput {
    let id = spans.enter("pass");
    let acc = timed_stage(spans, stages, "health_fold", "HealthAccumulator fold", || {
        let mut acc = HealthAccumulator::new();
        acc.observe_all(input.healthy.iter().chain(&input.faulted));
        acc
    });
    let report = timed_stage(spans, stages, "health_report", "HealthReport::build", || {
        HealthReport::build(&acc, &input.book, input.scenario.baseline, input.scenario.candidate)
    });

    let (healthy, faulted) =
        timed_stage(spans, stages, "blame_fold", "BlameAccumulator fold x2", || {
            let fold = |traces: &[Trace]| {
                let mut acc = BlameAccumulator::new();
                traces.iter().for_each(|t| acc.observe_trace(t));
                acc
            };
            (fold(&input.healthy), fold(&input.faulted))
        });
    let localized = timed_stage(spans, stages, "localize", "corpus::localize", || {
        corpus::localize(&healthy, &faulted)
    });

    let mut out = PassOutput {
        report,
        health_state_bytes: acc.state_bytes(),
        localized,
        changes: 0,
        rankings: Vec::new(),
        sketch: Vec::new(),
        sketch_p95: f64::NAN,
    };

    let (before, after) = timed_stage(spans, stages, "graph", "topology::build_graph x2", || {
        let options = BuildOptions::default();
        (
            build_graph(&input.healthy, &input.book, options),
            build_graph(&input.faulted, &input.book, options),
        )
    });
    diff_and_rank(&before, &after, spans, stages, &mut out);
    diff_and_rank(&input.pair.0, &input.pair.1, spans, stages, &mut out);

    let shards = timed_stage(spans, stages, "sketch_push", "QuantileSketch::push", || {
        let mut shards: Vec<QuantileSketch> =
            (0..SKETCH_SHARDS).map(|_| QuantileSketch::for_latency()).collect();
        for (i, ms) in input.latencies.iter().enumerate() {
            shards[i % SKETCH_SHARDS].push(*ms);
        }
        shards
    });
    let merged = timed_stage(spans, stages, "sketch_merge", "QuantileSketch::merge x8", || {
        let mut merged = QuantileSketch::for_latency();
        shards.iter().for_each(|s| merged.merge(s));
        merged
    });
    timed_stage(spans, stages, "sketch_quantile", "QuantileSketch::quantile x1000", || {
        for i in 0..QUANTILE_READS {
            black_box(merged.quantile(i as f64 / QUANTILE_READS as f64));
        }
    });
    out.sketch_p95 = merged.quantile(0.95).expect("sketch holds every root latency");
    out.sketch = merged.encode();

    spans.exit(id);
    out
}

/// Runs the `trace-analysis` workload.
pub fn run(spec: &AnalysisSpec, args: &RunArgs) -> Outcome {
    let mut spans = Spans::new();
    let mut checks = Checks::default();

    // Every repetition runs on a capture of its own, made just before it.
    let mut setup_s = Vec::new();
    let mut fresh = |spans: &mut Spans| set_up(spec, args.seed, spans);

    let mut input = args.set_up_batch(1, &mut spans, &mut setup_s, &mut fresh);
    let id = spans.enter("warm-up");
    let first = pass(&input, &mut spans, &mut Stages::new());
    spans.exit(id);
    // One capture and one pass in a fresh process; see `fleet::run`.
    let peak_rss_mb = stats::peak_rss_mb();

    let mut stages = Stages::new();
    let mut wall_s = Vec::new();
    let mut pass_ms = Vec::new();
    let started = Instant::now();
    while !args.enough(wall_s.len(), spec.default_reps, started) {
        let done = wall_s.len();
        // One capture alive at a time, so peak RSS is a repetition's.
        drop(input);
        input = args.set_up_batch(1, &mut spans, &mut setup_s, &mut fresh);
        let id = spans.enter("timed");
        for p in 0..spec.passes {
            let pass_started = Instant::now();
            let out = pass(&input, &mut spans, &mut stages);
            pass_ms.push(pass_started.elapsed().as_secs_f64() * 1e3);
            checks.check(out == first, || {
                format!("repetition {done} pass {p}: reports differ from the first pass")
            });
        }
        wall_s.push(spans.exit(id).as_secs_f64());
    }
    let traces = input.latencies.len();

    let victims = corpus::fault_victims(&input.scenario, FaultScenario::ZoneOutage);
    checks.check(
        first
            .localized
            .first()
            .is_some_and(|(e, score)| *score > 0.0 && victims.contains(&e.callee)),
        || format!("localizer's top edge {:?} is not a fault victim", first.localized.first()),
    );
    let exact_p95 = stats::quantile(&input.latencies, 0.95).expect("captured traces");
    let p95_rel_err = (first.sketch_p95 - exact_p95).abs() / exact_p95;
    checks.check(p95_rel_err <= 0.02, || {
        format!("sketch p95 {} vs exact {exact_p95}: off by {p95_rel_err}", first.sketch_p95)
    });

    let mut digest = fnv1a(FNV_OFFSET, format!("{:?}", first.report).as_bytes());
    digest = fnv1a(digest, format!("{:?}", first.localized).as_bytes());
    digest = fnv1a(digest, format!("{:?}", first.rankings).as_bytes());
    digest = fnv1a(digest, &first.sketch);

    let wall = stats::median(&wall_s);
    let med = |name: &str| stages.get(name).and_then(|v| stats::median(v));
    let scaled = |name: &str, factor: f64| med(name).map(|s| s * factor);
    // Two diff/rank samples per pass (trace graphs, synthetic pair): the
    // per-pass cost is their sum, i.e. twice the mean.
    let per_pass_sum =
        |name: &str| stages.get(name).map(|v| v.iter().sum::<f64>() / v.len() as f64 * 2.0 * 1e3);
    let metrics: Vec<(&'static str, Option<f64>)> = vec![
        ("setup_s", stats::median(&setup_s)),
        ("wall_s", wall),
        ("work_per_s", wall.map(|w| (traces * spec.passes) as f64 / w)),
        ("tick_p50_ms", stats::median(&pass_ms)),
        ("peak_rss_mb", peak_rss_mb),
        ("microsim.health.fold_s", med("health_fold")),
        ("microsim.health.spans_per_s", med("health_fold").map(|s| input.spans_total as f64 / s)),
        ("microsim.health.report_ms", scaled("health_report", 1e3)),
        ("microsim.health.state_kb", Some(first.health_state_bytes as f64 / 1024.0)),
        ("microsim.corpus.blame_fold_s", med("blame_fold")),
        ("microsim.corpus.localize_ms", scaled("localize", 1e3)),
        ("topology.build.graph_s", med("graph")),
        ("topology.diff.compute_ms", per_pass_sum("diff")),
        ("topology.rank.rank_ms", per_pass_sum("rank")),
        ("cex_core.sketch.push_ns", scaled("sketch_push", 1e9 / traces as f64)),
        ("cex_core.sketch.merge_us", scaled("sketch_merge", 1e6)),
        ("cex_core.sketch.quantile_us", scaled("sketch_quantile", 1e6 / QUANTILE_READS as f64)),
        ("cex_core.sketch.p95_rel_err", Some(p95_rel_err)),
    ];
    let top_edge = first.localized.first().map_or(Json::Null, |(e, _)| {
        Json::Str(format!(
            "{}/{}",
            input.book.version_label(e.callee),
            input.book.endpoint_name(e.endpoint)
        ))
    });
    let exact = vec![
        ("digest", Json::Str(format!("{digest:016x}"))),
        ("traces", Json::Num(traces as f64)),
        ("spans", Json::Num(input.spans_total as f64)),
        ("failed_traces", Json::Num(first.report.failed_traces as f64)),
        ("health_edges", Json::Num(first.report.edges.len() as f64)),
        ("localized_edges", Json::Num(first.localized.len() as f64)),
        ("top_edge", top_edge),
        ("changes", Json::Num(first.changes as f64)),
        ("sketch_bytes", Json::Num(first.sketch.len() as f64)),
    ];
    Outcome {
        metrics,
        timings: vec![
            Timing { name: "setup_s", samples: setup_s },
            Timing { name: "wall_s", samples: wall_s },
            Timing { name: "tick_p50_ms", samples: pass_ms },
        ],
        checks,
        digest,
        exact,
        work_unit: "traces analysed",
        notes: vec![],
        spans,
    }
}
