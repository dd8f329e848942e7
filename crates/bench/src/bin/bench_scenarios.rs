//! Scenario-corpus benchmark: sweeps the (topology family × workload ×
//! fault) grid from `microsim::corpus` and records three corpus-wide
//! figures of merit:
//!
//! 1. **Localization rate** — the fraction of cells where the trace
//!    localizer's top-ranked edge terminates at a faulted version.
//!    Acceptance: 100%.
//! 2. **Containment ratio** — app-level error rate over the fault window
//!    without any resilience policy, divided by the same cell's rate with
//!    the standard policy layer, averaged over the error-producing fault
//!    scenarios (latency-only faults produce no errors on either side).
//! 3. **Cells per second** — corpus sweep throughput (full mode only;
//!    timings are excluded from the smoke JSON).
//!
//! It also pins journal determinism: one representative zone-outage cell
//! per family runs through the Bifrost engine with 1 and 4 simulation
//! workers and the serialized journals must be byte-identical.
//!
//! Writes `results/BENCH_scenarios.json`. With `--smoke [--out PATH]` it
//! runs a reduced, timing-free variant whose JSON contains only
//! deterministic fields — CI runs it twice and diffs the outputs.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig};
use cex_bench::{smoke_args, write_bench_json};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::corpus::{
    self, BlameAccumulator, FaultScenario, Scenario, WorkloadKind, FAMILIES, FAULTS, WORKLOADS,
};
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::APP_SCOPE;
use microsim::Simulation;
use std::fmt::Write as _;
use std::time::Instant;

const SEED: u64 = 41;
const FAULT_FROM: SimTime = SimTime::from_secs(20);
const FAULT_UNTIL: SimTime = SimTime::from_secs(70);

fn policy() -> CallPolicy {
    CallPolicy {
        max_retries: 1,
        backoff_base: SimDuration::from_millis(20),
        jitter: 0.5,
        breaker: Some(BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 40,
            cooldown: SimDuration::from_secs(5),
            half_open_probes: 3,
        }),
        fallback: true,
        fallback_latency: SimDuration::from_millis(1),
        ..CallPolicy::default()
    }
}

/// `true` when the localizer's top-ranked edge terminates at a version
/// the fault actually struck (same procedure as `tests/corpus_matrix.rs`,
/// parameterised by window length for the smoke variant).
fn cell_localizes(
    scenario: &Scenario,
    kind: WorkloadKind,
    fault: FaultScenario,
    window: SimDuration,
) -> bool {
    let mut sim = Simulation::new(scenario.app.clone(), 777);
    sim.set_trace_sampling(1.0);
    scenario.canary_split(&mut sim, 0.3).expect("canary split");
    let wl = corpus::workload_for(scenario, kind, 12.0);
    sim.run_with(window, &wl);
    let mut healthy = BlameAccumulator::new();
    for trace in sim.drain_traces() {
        healthy.observe_trace(&trace);
    }
    for f in corpus::faults_for(scenario, fault, sim.now(), sim.now() + window) {
        sim.inject_fault(f);
    }
    sim.run_with(window, &wl);
    let mut faulted = BlameAccumulator::new();
    for trace in sim.drain_traces() {
        faulted.observe_trace(&trace);
    }
    let ranked = corpus::localize(&healthy, &faulted);
    let victims = corpus::fault_victims(scenario, fault);
    match ranked.first() {
        Some((edge, score)) => *score > 0.0 && victims.contains(&edge.callee),
        None => false,
    }
}

/// App error rate over the fault window for a 25% canary of the cell's
/// candidate, with or without the resilience layer.
fn cell_fault_window_error_rate(
    scenario: &Scenario,
    kind: WorkloadKind,
    fault: FaultScenario,
    protected: bool,
) -> f64 {
    let mut sim = Simulation::new(scenario.app.clone(), 4242);
    sim.set_trace_sampling(0.0);
    scenario.canary_split(&mut sim, 0.25).expect("canary split");
    if protected {
        sim.set_call_policy(policy());
    }
    for f in corpus::faults_for(scenario, fault, FAULT_FROM, FAULT_UNTIL) {
        sim.inject_fault(f);
    }
    let wl = corpus::workload_for(scenario, kind, 10.0);
    sim.run_with(SimDuration::from_secs(90), &wl);
    sim.store().summary_between(APP_SCOPE, MetricKind::ErrorRate, FAULT_FROM, FAULT_UNTIL).mean
}

/// Runs one zone-outage cell through the Bifrost engine and returns the
/// serialized journal — the determinism probe. `sim_workers` is read
/// nowhere since the event core became one queue, so two calls are two
/// same-seed runs; the argument and the JSON key that names it go with the
/// field (ROADMAP, the instrument item).
fn journal_for_workers(scenario: &Scenario, sim_workers: usize) -> String {
    let service = scenario.app.service_name(scenario.experiment_service);
    let src = format!(
        r#"strategy "corpus" {{
            service "{service}" baseline "1.0.0" candidate "2.0.0"
            phase "run" canary 25% for 120s {{
              inject zone_outage "{zone}" after 20s for 50s
              check error_rate app < 0.08 over 40s every 20s min_samples 8
              on success complete
              on failure rollback
            }}
        }}"#,
        zone = scenario.fault_zone,
    );
    let wl = corpus::workload_for(scenario, WorkloadKind::Steady, 8.0);
    let mut sim = Simulation::new(scenario.app.clone(), 4242);
    sim.set_call_policy(policy());
    let strategy = dsl::parse(&src).expect("corpus strategy parses");
    let engine = Engine::new(EngineConfig { sim_workers, ..Default::default() });
    let (_, journal) = engine
        .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_secs(180))
        .expect("corpus cell executes");
    journal.to_jsonl()
}

struct SweepOutcome {
    cells: usize,
    localized: usize,
    /// Mean fault-window error rates over error-producing fault cells.
    unprotected_mean: f64,
    protected_mean: f64,
    containment_ratio: f64,
}

fn sweep(workloads: &[WorkloadKind], window: SimDuration) -> SweepOutcome {
    let mut cells = 0usize;
    let mut localized = 0usize;
    let mut unprotected_sum = 0.0f64;
    let mut protected_sum = 0.0f64;
    let mut error_cells = 0usize;
    for family in FAMILIES {
        let scenario = corpus::generate(family, SEED);
        for &kind in workloads {
            for fault in FAULTS {
                cells += 1;
                if cell_localizes(&scenario, kind, fault, window) {
                    localized += 1;
                } else {
                    println!(
                        "MISS: {}/{}/{} failed to localize",
                        family.name(),
                        kind.name(),
                        fault.name()
                    );
                }
                // Latency-only faults produce no errors on either side;
                // the containment ratio is measured where errors exist.
                if matches!(
                    fault,
                    FaultScenario::CandidateLatencySpike | FaultScenario::LatencyStorm
                ) {
                    continue;
                }
                error_cells += 1;
                unprotected_sum += cell_fault_window_error_rate(&scenario, kind, fault, false);
                protected_sum += cell_fault_window_error_rate(&scenario, kind, fault, true);
            }
        }
    }
    let unprotected_mean = unprotected_sum / error_cells as f64;
    let protected_mean = protected_sum / error_cells as f64;
    SweepOutcome {
        cells,
        localized,
        unprotected_mean,
        protected_mean,
        // Floor the denominator at one failure per ~thousand requests so a
        // perfectly clean protected sweep still yields a finite ratio.
        containment_ratio: unprotected_mean / protected_mean.max(1e-3),
    }
}

/// `true` when every family's zone-outage cell journals identically on two
/// same-seed runs (see [`journal_for_workers`]).
fn journals_identical(workers: usize) -> bool {
    FAMILIES.iter().all(|&family| {
        let scenario = corpus::generate(family, SEED);
        journal_for_workers(&scenario, 1) == journal_for_workers(&scenario, workers)
    })
}

fn push_sweep(json: &mut String, outcome: &SweepOutcome) {
    let _ = writeln!(json, "  \"cells\": {},", outcome.cells);
    let _ = writeln!(json, "  \"localized\": {},", outcome.localized);
    let _ = writeln!(
        json,
        "  \"localization_rate\": {:.9},",
        outcome.localized as f64 / outcome.cells as f64
    );
    let _ = writeln!(json, "  \"unprotected_error_rate\": {:.9},", outcome.unprotected_mean);
    let _ = writeln!(json, "  \"protected_error_rate\": {:.9},", outcome.protected_mean);
    let _ = writeln!(json, "  \"containment_ratio\": {:.9},", outcome.containment_ratio);
}

fn run_smoke(out: &str) {
    let outcome = sweep(&[WorkloadKind::Steady], SimDuration::from_secs(30));
    let identical = journals_identical(4);
    let mut json = String::new();
    push_sweep(&mut json, &outcome);
    let _ = writeln!(json, "  \"journal_identical_workers_1_vs_4\": {identical}");
    write_bench_json(out, "scenarios_smoke", &json);
    assert_eq!(outcome.localized, outcome.cells, "every smoke cell must localize");
    assert!(identical, "journals must not depend on the worker count");
}

fn run_full() {
    println!("=== Scenario corpus: localization, containment, determinism ===");
    let start = Instant::now();
    let outcome = sweep(&WORKLOADS, SimDuration::from_secs(40));
    let elapsed = start.elapsed().as_secs_f64();
    let cells_per_sec = outcome.cells as f64 / elapsed;
    println!(
        "sweep: {} cells, {} localized ({:.1}%), {:.2} cells/s",
        outcome.cells,
        outcome.localized,
        100.0 * outcome.localized as f64 / outcome.cells as f64,
        cells_per_sec
    );
    println!(
        "containment: unprotected {:.4} vs protected {:.4} fault-window error rate ({:.1}x)",
        outcome.unprotected_mean, outcome.protected_mean, outcome.containment_ratio
    );
    let identical = journals_identical(4);
    println!("journal identical across sim_workers 1 vs 4: {identical}");

    let mut json = String::new();
    push_sweep(&mut json, &outcome);
    let _ = writeln!(json, "  \"journal_identical_workers_1_vs_4\": {identical},");
    let _ = writeln!(json, "  \"cells_per_sec\": {cells_per_sec:.2},");
    let _ = writeln!(json, "  \"elapsed_secs\": {elapsed:.2}");
    write_bench_json("results/BENCH_scenarios.json", "scenarios", &json);

    assert_eq!(outcome.localized, outcome.cells, "every cell must localize its fault");
    assert!(
        outcome.containment_ratio >= 5.0,
        "containment {:.2}x below the 5x acceptance bar",
        outcome.containment_ratio
    );
    assert!(identical, "journals must not depend on the worker count");
    println!("PASS: all acceptance criteria met");
}

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_scenarios_smoke.json");
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
