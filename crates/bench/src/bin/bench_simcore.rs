//! Event-driven simulation core benchmark
//! (`results/BENCH_simcore.json`).
//!
//! Three questions about [`microsim::event`]:
//!
//! 1. **Single-core cost** — what does the event scheduler (queue, frames,
//!    sub-rounds, merge) cost against the recursive walk on a closed-loop
//!    workload both cores can run? (The recursive core cannot run the
//!    open-loop scenarios at all, so this is the only honest same-work
//!    comparison.)
//! 2. **Parallel scaling** — wall-clock per window at 1 worker shard vs
//!    one shard per detected core, same seed, byte-identical output. The
//!    recorded speedup is only meaningful against the stamped `cores`
//!    value: on a single-core machine it is honestly ~1.0×.
//! 3. **Open-loop overload** — the scenario class the event core exists
//!    for: a service offered 2× its service capacity must show growing
//!    queueing delay with an unbounded admission queue, and sheds (each
//!    surfacing as a failed request) with a bounded one.
//!
//! With `--smoke [--out PATH]`: reduced deterministic run for CI — no
//! timings in the JSON, so two invocations produce byte-identical files.
//! The smoke run still checks worker-count invariance and the overload
//! facts, and fails loudly if either breaks.

use cex_bench::{detected_cores, header, write_bench_json};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::sim::{ExecMode, RunReport, Simulation};
use microsim::topologies::{random_app, RandomAppParams};
use microsim::workload::{EntryPoint, Workload};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 42;
const TOPOLOGY_SEED: u64 = 5;

fn scaling_params() -> RandomAppParams {
    RandomAppParams { services: 16, layers: 4, ..RandomAppParams::default() }
}

/// Traffic spread uniformly over the random topology's entry tier, so the
/// event heaps have work on every shard.
fn scaling_workload(app: &Application, params: &RandomAppParams, rate_rps: f64) -> Workload {
    let entries = (0..params.services)
        .filter(|svc| svc % params.layers == 0)
        .map(|svc| EntryPoint {
            service: app.service_id(&format!("svc-{svc:04}")).expect("entry-tier service"),
            endpoint: "ep0".into(),
            weight: 1.0,
        })
        .collect();
    Workload {
        population: Population::single("all", 50_000),
        rate_rps,
        entries,
        profile: microsim::workload::RateProfile::Constant,
    }
}

/// One full window on a fresh sim; returns the report and the wall time.
fn run_once(mode: ExecMode, workers: usize, secs: u64, rate_rps: f64) -> (RunReport, f64) {
    let params = scaling_params();
    let app = random_app(&params, TOPOLOGY_SEED);
    let workload = scaling_workload(&app, &params, rate_rps);
    let mut sim = Simulation::new(app, SEED);
    sim.set_exec_mode(mode);
    sim.set_workers(workers);
    let start = Instant::now();
    let report = sim.run_with(SimDuration::from_secs(secs), &workload);
    (report, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Best-of-`reps` wall time for one configuration (the report is identical
/// across reps by determinism, so only the timing varies).
fn best_of(
    mode: ExecMode,
    workers: usize,
    secs: u64,
    rate_rps: f64,
    reps: u32,
) -> (RunReport, f64) {
    let mut best = f64::MAX;
    let mut report = None;
    for _ in 0..reps {
        let (r, wall_ms) = run_once(mode, workers, secs, rate_rps);
        if let Some(prev) = &report {
            assert_eq!(prev, &r, "same seed must reproduce the same report");
        }
        best = best.min(wall_ms);
        report = Some(r);
    }
    (report.expect("reps >= 1"), best)
}

/// One service, one slot, 40 ms constant service time → 25 rps capacity.
fn limited_app(queue: Option<u32>) -> Application {
    let mut b = Application::builder();
    let mut spec = VersionSpec::new("worker", "1.0.0")
        .capacity(1_000.0)
        .load_sensitivity(0.0)
        .concurrency_limit(1)
        .endpoint(EndpointDef::new("job", LatencyModel::Constant { ms: 40.0 }));
    if let Some(depth) = queue {
        spec = spec.queue_capacity(depth);
    }
    b.version(spec);
    b.build().expect("single-service app is statically valid")
}

struct Overload {
    queued_requests: u64,
    early_delay_ms: f64,
    late_delay_ms: f64,
    bounded_requests: u64,
    sheds: u64,
    shed_failures_match: bool,
}

/// Runs the overload scenario pair: 2× capacity against an unbounded
/// queue (delay growth) and against a depth-2 queue (shed-on-full).
fn run_overload() -> Overload {
    let mut unbounded = Simulation::new(limited_app(None), 11);
    let queued = unbounded.run(SimDuration::from_secs(10), 50.0);
    let early = unbounded.store().summary_between(
        "worker@1.0.0",
        MetricKind::QueueDelay,
        SimTime::ZERO,
        SimTime::from_secs(5),
    );
    let late = unbounded.store().summary_between(
        "worker@1.0.0",
        MetricKind::QueueDelay,
        SimTime::from_secs(5),
        SimTime::from_secs(10),
    );
    assert_eq!(queued.failures, 0, "unbounded queue sheds nothing");
    assert!(
        late.mean > 2.0 * early.mean,
        "queue delay must keep growing under 2x overload (early {} late {})",
        early.mean,
        late.mean
    );

    let mut bounded = Simulation::new(limited_app(Some(2)), 11);
    let shed_report = bounded.run(SimDuration::from_secs(10), 50.0);
    let sheds = bounded.store().count("worker@1.0.0", MetricKind::Shed) as u64;
    assert!(sheds > 0, "depth-2 queue under 2x overload must shed");

    Overload {
        queued_requests: queued.requests,
        early_delay_ms: early.mean,
        late_delay_ms: late.mean,
        bounded_requests: shed_report.requests,
        sheds,
        shed_failures_match: shed_report.failures == sheds,
    }
}

fn push_overload(json: &mut String, o: &Overload) {
    json.push_str("  \"overload\": {\n");
    let _ = writeln!(json, "    \"offered_rps\": 50.0,");
    let _ = writeln!(json, "    \"capacity_rps\": 25.0,");
    let _ = writeln!(json, "    \"queued_requests\": {},", o.queued_requests);
    let _ = writeln!(json, "    \"queue_delay_early_mean_ms\": {:.9},", o.early_delay_ms);
    let _ = writeln!(json, "    \"queue_delay_late_mean_ms\": {:.9},", o.late_delay_ms);
    let _ = writeln!(json, "    \"bounded_requests\": {},", o.bounded_requests);
    let _ = writeln!(json, "    \"sheds\": {},", o.sheds);
    let _ = writeln!(json, "    \"shed_failures_match\": {}", o.shed_failures_match);
    json.push_str("  }\n");
}

/// Reduced deterministic run for CI: worker-count invariance on the
/// random topology plus the overload facts; no timings.
fn run_smoke(out: &str) {
    let (w1, _) = run_once(ExecMode::Event, 1, 10, 120.0);
    let (w2, _) = run_once(ExecMode::Event, 2, 10, 120.0);
    let (w8, _) = run_once(ExecMode::Event, 8, 10, 120.0);
    assert_eq!(w1, w2, "1 vs 2 workers must be identical");
    assert_eq!(w1, w8, "1 vs 8 workers must be identical");
    let overload = run_overload();

    let mut json = String::from("  \"scenario\": {\n");
    let _ = writeln!(json, "    \"services\": {},", scaling_params().services);
    let _ = writeln!(json, "    \"layers\": {},", scaling_params().layers);
    let _ = writeln!(json, "    \"sim_secs\": 10,");
    let _ = writeln!(json, "    \"rate_rps\": 120.0");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"requests\": {},", w1.requests);
    let _ = writeln!(json, "  \"failures\": {},", w1.failures);
    let _ = writeln!(json, "  \"response_mean_ms\": {:.9},", w1.response_time.mean);
    let _ = writeln!(json, "  \"workers_identical\": true,");
    push_overload(&mut json, &overload);
    write_bench_json(out, "simcore_smoke", &json);
}

fn run_full() {
    header("Event-driven simulation core: cost, scaling, overload");
    let cores = detected_cores();
    const SECS: u64 = 60;
    const RATE: f64 = 400.0;
    const REPS: u32 = 5;

    let (rec_report, rec_ms) = best_of(ExecMode::Recursive, 1, SECS, RATE, REPS);
    let (ev1_report, ev1_ms) = best_of(ExecMode::Event, 1, SECS, RATE, REPS);
    let (evn_report, evn_ms) = best_of(ExecMode::Event, cores, SECS, RATE, REPS);
    assert_eq!(ev1_report, evn_report, "worker count must not change the report");
    assert_eq!(rec_report.requests, ev1_report.requests, "both cores see the same arrivals");
    let event_vs_recursive = rec_ms / ev1_ms;
    let speedup = ev1_ms / evn_ms;
    println!(
        "closed loop, {} requests over {SECS}s simulated: recursive {rec_ms:.1} ms, \
         event w1 {ev1_ms:.1} ms ({event_vs_recursive:.2}x vs recursive), \
         event w{cores} {evn_ms:.1} ms ({speedup:.2}x vs w1 on {cores} core(s))",
        ev1_report.requests
    );

    let overload = run_overload();
    println!(
        "overload 2x capacity: unbounded queue delay {:.0} -> {:.0} ms (first vs second half), \
         bounded queue sheds {} of {}",
        overload.early_delay_ms, overload.late_delay_ms, overload.sheds, overload.bounded_requests
    );

    let mut json = String::from("  \"scenario\": {\n");
    let _ = writeln!(json, "    \"services\": {},", scaling_params().services);
    let _ = writeln!(json, "    \"layers\": {},", scaling_params().layers);
    let _ = writeln!(json, "    \"sim_secs\": {SECS},");
    let _ = writeln!(json, "    \"rate_rps\": {RATE:.1},");
    let _ = writeln!(json, "    \"best_of\": {REPS},");
    let _ = writeln!(json, "    \"seed\": {SEED}");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"requests\": {},", ev1_report.requests);
    json.push_str("  \"single_core\": {\n");
    let _ = writeln!(json, "    \"recursive_wall_ms\": {rec_ms:.1},");
    let _ = writeln!(json, "    \"event_wall_ms\": {ev1_ms:.1},");
    let _ = writeln!(json, "    \"event_vs_recursive\": {event_vs_recursive:.2}");
    json.push_str("  },\n  \"scaling\": {\n");
    let _ = writeln!(json, "    \"workers\": {cores},");
    let _ = writeln!(json, "    \"workers_1_wall_ms\": {ev1_ms:.1},");
    let _ = writeln!(json, "    \"workers_n_wall_ms\": {evn_ms:.1},");
    let _ = writeln!(json, "    \"speedup\": {speedup:.2},");
    let _ = writeln!(json, "    \"output_identical\": true");
    json.push_str("  },\n");
    push_overload(&mut json, &overload);
    write_bench_json("results/BENCH_simcore.json", "simcore", &json);
    println!("PASS: worker-count invariance and overload scenario checks met");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_simcore_smoke.json".into());
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
