//! Runtime self-observability overhead (`results/BENCH_runtime_obs.json`).
//!
//! The obs layer ([`cex_core::obs`]) must be cheap enough to leave on:
//! hierarchical phase spans, wall probes on the metric store, and the
//! counter registry together must not move the simulation's wall clock
//! by more than the acceptance threshold. This bin runs a 16-service /
//! 4-layer scaling workload (entry tier spread over every shard) twice on
//! identically seeded simulations — profiling enabled vs disabled — and
//! reports the wall-clock delta.
//! Acceptance: enabled-profiling overhead within 2% of the disabled
//! run — or within the host's own A/A noise floor (off-vs-off spread),
//! whichever is larger, since an estimate under the floor is
//! indistinguishable from zero. Reps run as order-alternated triplets
//! (off→on→off, then on→off→on); medians over `PAIRS` adjacent-rep
//! pairs damp scheduler noise — see `measure_interleaved`.
//!
//! The obs-on run also prints the rendered phase tree, and the JSON
//! records per-node totals so a regression in any single phase is
//! visible, not just the aggregate.
//!
//! With `--smoke [--out PATH]`: reduced deterministic run for CI — no
//! timings in the JSON, so two invocations produce byte-identical
//! files. The smoke run checks the determinism split end to end:
//! counter-registry equality across sim worker counts, and journal
//! byte-identity (runtime events included) across engine runs at
//! `sim_workers` 1 vs 4.

use bifrost::engine::{Engine, EngineConfig};
use bifrost::journal::JournalEvent;
use cex_bench::{header, n_service_app, n_service_workload, n_strategies, write_bench_json};
use cex_core::obs::ObsConfig;
use cex_core::simtime::SimDuration;
use cex_core::users::Population;
use microsim::app::Application;
use microsim::sim::{RunReport, Simulation};
use microsim::topologies::{random_app, RandomAppParams};
use microsim::workload::{EntryPoint, Workload};
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 42;
const TOPOLOGY_SEED: u64 = 5;

fn scaling_params() -> RandomAppParams {
    RandomAppParams { services: 16, layers: 4, ..RandomAppParams::default() }
}

/// Traffic spread uniformly over the random topology's entry tier.
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

/// One full window on a fresh sim with the given obs configuration;
/// returns the report, the sim (for counters/profile), and wall ms.
fn run_once(
    obs: ObsConfig,
    workers: usize,
    secs: u64,
    rate_rps: f64,
) -> (RunReport, Simulation, f64) {
    let params = scaling_params();
    let app = random_app(&params, TOPOLOGY_SEED);
    let workload = scaling_workload(&app, &params, rate_rps);
    let mut sim = Simulation::new(app, SEED);
    sim.set_workers(workers);
    sim.set_obs(obs);
    let start = Instant::now();
    let report = sim.run_with(SimDuration::from_secs(secs), &workload);
    let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
    (report, sim, wall_ms)
}

/// One measurement: the overhead estimate, the observed host noise
/// floor, and the obs-on sim for registry/profile reads.
struct Measurement {
    report: RunReport,
    sim: Simulation,
    off_ms: f64,
    /// Median over reps of the obs-on vs surrounding obs-off delta (%).
    overhead_pct: f64,
    /// Median over reps of |off-vs-off| deltas (%): what this host shows
    /// when comparing a configuration against itself.
    noise_floor_pct: f64,
}

/// Measures the odd mode of each triplet against the mean of the two
/// surrounding even runs, so slow machine drift — frequency ramp,
/// allocator state, a noisy neighbour — averages out of the comparison.
/// Triplet order alternates between reps (off→on→off, then on→off→on):
/// back-to-back reps phase-lock against periodic host noise, so a spike
/// that keeps landing on the middle run would otherwise read as a
/// systematic mode difference — averaging each adjacent rep pair cancels
/// it, because the middle run is obs-on in one rep and obs-off in the
/// next. The medians over pairs then discard pairs contaminated by a
/// scheduler hiccup. The same-mode outer runs of every triplet also give
/// an A/A comparison (a configuration against itself): on a quiet host
/// ~0, on a busy one it documents the measurement floor — an overhead
/// estimate under the floor is indistinguishable from zero. (A
/// best-of-each-mode ratio, by contrast, is skewed by a single lucky low
/// in either mode.) Reports must be identical across reps and across
/// modes — determinism — which is asserted every rep.
fn measure_interleaved(secs: u64, rate_rps: f64, pairs: u32) -> Measurement {
    let mut off_times = Vec::new();
    let mut deltas = Vec::new();
    let mut aa_deltas = Vec::new();
    let mut kept = None;
    // One triplet: outer runs in `outer` mode, middle run in the other;
    // returns the middle-vs-outer-mean delta (sign-corrected so positive
    // always means obs-on is slower) and the outer A/A spread.
    let mut triplet = |outer: ObsConfig| -> (f64, f64, f64) {
        let middle = if outer == ObsConfig::disabled() {
            ObsConfig::enabled()
        } else {
            ObsConfig::disabled()
        };
        let (ra, sim_a, a_ms) = run_once(outer, 1, secs, rate_rps);
        let (rb, sim_b, b_ms) = run_once(middle, 1, secs, rate_rps);
        let (rc, _, c_ms) = run_once(outer, 1, secs, rate_rps);
        assert_eq!(ra, rb, "obs on vs off must not change simulation output");
        assert_eq!(ra, rc, "same seed must reproduce the same report");
        if let Some((prev, _)) = &kept {
            assert_eq!(prev, &ra, "same seed must reproduce the same report");
        }
        let on_sim = if middle == ObsConfig::enabled() { sim_b } else { sim_a };
        kept = Some((ra, on_sim));
        let outer_ms = (a_ms + c_ms) / 2.0;
        let delta = (b_ms - outer_ms) / outer_ms * 100.0;
        let signed = if middle == ObsConfig::enabled() { delta } else { -delta };
        let off_ms = if middle == ObsConfig::enabled() { outer_ms } else { b_ms };
        (signed, ((c_ms - a_ms) / a_ms * 100.0).abs(), off_ms)
    };
    for _ in 0..pairs {
        let (d_on_mid, aa_a, off_a) = triplet(ObsConfig::disabled());
        let (d_off_mid, aa_b, off_b) = triplet(ObsConfig::enabled());
        deltas.push((d_on_mid + d_off_mid) / 2.0);
        aa_deltas.push(aa_a);
        aa_deltas.push(aa_b);
        off_times.push((off_a + off_b) / 2.0);
    }
    let (report, sim) = kept.expect("pairs >= 1");
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    };
    Measurement {
        report,
        sim,
        off_ms: median(&mut off_times),
        overhead_pct: median(&mut deltas),
        noise_floor_pct: median(&mut aa_deltas),
    }
}

/// Reduced deterministic run for CI: the determinism split end to end,
/// no timings.
fn run_smoke(out: &str) {
    // Counter registry is a pure function of the seed: identical across
    // sim worker counts and across obs on/off (profiling gates only
    // wall-clock spans, never counters).
    let (r1, s1, _) = run_once(ObsConfig::enabled(), 1, 10, 120.0);
    let (r4, s4, _) = run_once(ObsConfig::enabled(), 4, 10, 120.0);
    let (roff, soff, _) = run_once(ObsConfig::disabled(), 1, 10, 120.0);
    assert_eq!(r1, r4, "1 vs 4 sim workers must be identical");
    assert_eq!(r1, roff, "obs on vs off must not change simulation output");
    let counters = s1.counters();
    assert_eq!(counters, s4.counters(), "registry: 1 vs 4 sim workers");
    assert_eq!(counters, soff.counters(), "registry: obs on vs off");
    assert!(counters.count("sim.events.popped") > 0, "event core saw work");

    // Journal byte-identity with runtime events across engine runs at
    // sim_workers 1 vs 4.
    let run_engine = |sim_workers: usize| {
        let n = 8;
        let app = n_service_app(n);
        let wl = n_service_workload(&app, n, (20 * n) as f64);
        let strategies = n_strategies(n, 2);
        let mut sim = Simulation::new(app, SEED);
        let engine = Engine::new(EngineConfig {
            sim_workers,
            runtime_report_every: 3,
            obs: ObsConfig::enabled(),
            ..Default::default()
        });
        let (report, journal) = engine
            .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
            .expect("execution succeeds");
        let runtime_events =
            journal.events().iter().filter(|e| matches!(e, JournalEvent::Runtime { .. })).count()
                as u64;
        assert!(runtime_events > 0, "the cadence emitted runtime events");
        (journal.to_jsonl(), report.runtime, runtime_events)
    };
    let (j1, rt1, runtime_events) = run_engine(1);
    let (j4, rt4, _) = run_engine(4);
    assert_eq!(j1, j4, "journal bytes: 1 vs 4 sim workers");
    assert_eq!(rt1, rt4, "runtime report counters: 1 vs 4 sim workers");

    let mut json = String::from("  \"scenario\": {\n");
    let _ = writeln!(json, "    \"services\": {},", scaling_params().services);
    let _ = writeln!(json, "    \"layers\": {},", scaling_params().layers);
    let _ = writeln!(json, "    \"sim_secs\": 10,");
    let _ = writeln!(json, "    \"rate_rps\": 120.0");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"requests\": {},", r1.requests);
    let _ = writeln!(json, "  \"events_popped\": {},", counters.count("sim.events.popped"));
    let _ = writeln!(json, "  \"events_sent\": {},", counters.count("sim.events.sent"));
    let _ = writeln!(json, "  \"sub_rounds\": {},", counters.count("sim.events.subrounds"));
    let _ = writeln!(json, "  \"window_reads\": {},", counters.count("store.window_reads"));
    let _ = writeln!(json, "  \"counters_worker_invariant\": true,");
    let _ = writeln!(json, "  \"counters_obs_invariant\": true,");
    let _ = writeln!(json, "  \"journal_bytes\": {},", j1.len());
    let _ = writeln!(json, "  \"runtime_events\": {runtime_events},");
    let _ = writeln!(json, "  \"journal_worker_invariant\": true");
    write_bench_json(out, "runtime_obs_smoke", &json);
}

fn run_full() {
    header("Runtime self-observability: profiling overhead on a 16-service scaling workload");
    const SECS: u64 = 60;
    const RATE: f64 = 400.0;
    const PAIRS: u32 = 7;

    let m = measure_interleaved(SECS, RATE, PAIRS);
    assert!(m.sim.counters().count("sim.events.popped") > 0, "event core saw work");
    println!(
        "{} requests over {SECS}s simulated: obs off {:.1} ms (median), \
         median paired overhead {:+.2}% against a host A/A noise floor of {:.2}% \
         (acceptance: within 2% or within the floor)",
        m.report.requests, m.off_ms, m.overhead_pct, m.noise_floor_pct
    );

    let profile = m.sim.profile();
    println!("\nphase tree (obs on):\n{}", profile.render());

    let mut json = String::from("  \"scenario\": {\n");
    let _ = writeln!(json, "    \"services\": {},", scaling_params().services);
    let _ = writeln!(json, "    \"layers\": {},", scaling_params().layers);
    let _ = writeln!(json, "    \"sim_secs\": {SECS},");
    let _ = writeln!(json, "    \"rate_rps\": {RATE:.1},");
    let _ = writeln!(json, "    \"alternating_triplet_pairs\": {PAIRS},");
    let _ = writeln!(json, "    \"seed\": {SEED}");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"requests\": {},", m.report.requests);
    let _ = writeln!(json, "  \"obs_off_wall_ms_median\": {:.1},", m.off_ms);
    let _ = writeln!(json, "  \"overhead_pct_median_paired\": {:.2},", m.overhead_pct);
    let _ = writeln!(json, "  \"aa_noise_floor_pct\": {:.2},", m.noise_floor_pct);
    let _ = writeln!(json, "  \"output_identical\": true,");
    json.push_str("  \"profile\": {\n");
    let nodes = profile.nodes();
    for (i, (path, stats)) in nodes.iter().enumerate() {
        let comma = if i + 1 == nodes.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{path}\": {{ \"total_ms\": {:.3}, \"count\": {} }}{comma}",
            stats.total().as_secs_f64() * 1_000.0,
            stats.count()
        );
    }
    json.push_str("  }\n");
    write_bench_json("results/BENCH_runtime_obs.json", "runtime_obs", &json);
    if m.overhead_pct <= 2.0_f64.max(m.noise_floor_pct) {
        println!("PASS: within acceptance");
    } else {
        println!("FAIL: exceeds acceptance");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "results/BENCH_runtime_obs_smoke.json".into());
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
