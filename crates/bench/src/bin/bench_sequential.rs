//! Sequential-testing benchmark: time-to-detection of an injected
//! error-rate regression, always-valid mSPRT checks versus a
//! fixed-window Welch baseline at a *matched* family-wise error budget.
//!
//! The comparison answers the question the sequential layer exists for:
//! once both methods are held to the same false-positive guarantee, how
//! much faster does the always-valid test catch a real regression? The
//! baseline is the repo's idiomatic fixed-window check (`over 1m every
//! 30s`, the shape the engine tests and templates use) with its per-look
//! α Bonferroni-deflated (α/looks), which caps its family-wise error at
//! the same 0.05 the sequential test's Ville bound provides. An A/A
//! control row verifies both sides actually stay at or under the nominal
//! level. The structural difference the grid exposes: the fixed check's
//! per-look evidence is capped at whatever its trailing window holds,
//! while the sequential test accumulates every sample since phase start
//! — so at matched error budgets the sequential test detects small and
//! moderate regressions several times sooner, and finds ones the
//! fixed window never reaches significance on at all.
//!
//! For each regression magnitude the grid runs paired seeds through two
//! otherwise identical canary strategies and records the virtual time of
//! the rollback transition. Undetected runs are censored at the phase
//! horizon, so mean detection times stay finite and comparable.
//!
//! Every number it prints (detection counts, censored virtual-time means
//! and their ratios) is decided by the seeds, so `scripts/check_results.sh`
//! diffs the whole stdout against `results/bench_sequential.txt`.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, StrategyStatus};
use cex_core::simtime::SimDuration;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::sim::Simulation;
use microsim::workload::Workload;

/// Baseline error rate; regressions add their delta on the candidate.
const BASE_ERR: f64 = 0.10;
/// Family-wise false-positive budget for both methods.
const ALPHA: f64 = 0.05;
/// Check cadence (both methods peek equally often).
const EVERY_SECS: u64 = 30;
/// Modest traffic, the regime the comparison is about: the fixed
/// baseline's per-look evidence is capped at whatever its trailing
/// window holds, while the sequential test accumulates every sample
/// since phase start.
const RATE_RPS: f64 = 10.0;
/// The canary phase's length: the horizon undetected runs are censored at.
const PHASE_MINS: u64 = 45;
/// Scheduled looks over one phase — the Bonferroni divisor.
const LOOKS: u64 = PHASE_MINS * 60 / EVERY_SECS;
/// Paired seeds: every cell runs each through both strategies.
const SEEDS: std::ops::Range<u64> = 300..316;

fn app(candidate_err: f64) -> Application {
    let mut b = Application::builder();
    b.version(VersionSpec::new("svc", "1.0.0").capacity(10_000.0).endpoint(
        EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(BASE_ERR),
    ));
    b.version(VersionSpec::new("svc", "2.0.0").capacity(10_000.0).endpoint(
        EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(candidate_err),
    ));
    b.build().expect("benchmark app")
}

fn sequential_src() -> String {
    format!(
        r#"strategy "seq" {{
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 50% for {PHASE_MINS}m {{
              check error_rate sequential vs baseline < confidence {} every {EVERY_SECS}s min_samples 20
              on success complete
              on failure rollback
              on inconclusive complete
            }}
        }}"#,
        1.0 - ALPHA
    )
}

fn fixed_src() -> String {
    format!(
        r#"strategy "fixed" {{
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 50% for {PHASE_MINS}m {{
              check error_rate significant_vs_baseline < {} over 1m every {EVERY_SECS}s min_samples 20
              on success complete
              on failure rollback
              on inconclusive complete
            }}
        }}"#,
        ALPHA / LOOKS as f64
    )
}

/// One run; `Some(ms)` is the virtual time of the rollback transition.
fn detect_at(src: &str, candidate_err: f64, seed: u64) -> Option<u64> {
    let app = app(candidate_err);
    let svc = app.service_id("svc").expect("svc exists");
    let wl = Workload::simple(svc, "api", RATE_RPS);
    let mut sim = Simulation::new(app, seed);
    sim.set_trace_sampling(0.0);
    let strategy = dsl::parse(src).expect("benchmark strategy parses");
    let report = Engine::new(EngineConfig { max_retries: 1, ..Default::default() })
        .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(PHASE_MINS + 5))
        .expect("benchmark run");
    if report.statuses[0].1 == StrategyStatus::RolledBack {
        Some(report.transitions.last().expect("rollback transitioned").time.as_millis())
    } else {
        None
    }
}

/// Runs detected out of [`SEEDS`], and the mean time-to-detection with
/// undetected runs censored at the phase horizon (virtual milliseconds).
fn cell(src: &str, candidate_err: f64) -> (usize, f64) {
    let horizon_ms = PHASE_MINS * 60_000;
    let times: Vec<u64> =
        SEEDS.map(|s| detect_at(src, candidate_err, s).unwrap_or(horizon_ms)).collect();
    let detected = times.iter().filter(|t| **t < horizon_ms).count();
    (detected, times.iter().sum::<u64>() as f64 / times.len() as f64)
}

fn main() {
    let runs = SEEDS.count();
    let (seq, fixed) = (sequential_src(), fixed_src());

    println!("=== Sequential vs fixed-window: time-to-detection at matched error budget ===");
    println!(
        "alpha {ALPHA}; fixed window at {:.9} per look over {LOOKS} looks; \
         {PHASE_MINS}-minute phase; {runs} runs per cell",
        ALPHA / LOOKS as f64,
    );
    println!(
        "\n{:>5} | {:>8} | {:>13} | {:>8} | {:>13} | {:>8}",
        "delta", "seq", "seq mean ms", "fixed", "fixed mean ms", "speedup"
    );
    for delta in [0.02, 0.03, 0.05] {
        let (s_detected, s_mean) = cell(&seq, BASE_ERR + delta);
        let (f_detected, f_mean) = cell(&fixed, BASE_ERR + delta);
        println!(
            "{delta:>5} | {:>8} | {s_mean:>13.3} | {:>8} | {f_mean:>13.3} | {:>8.6}",
            format!("{s_detected}/{runs}"),
            format!("{f_detected}/{runs}"),
            f_mean / s_mean
        );
    }

    // A/A control: both methods at their stated budget, no regression.
    let (s_aborts, _) = cell(&seq, BASE_ERR);
    let (f_aborts, _) = cell(&fixed, BASE_ERR);
    println!(
        "\nA/A control: sequential {s_aborts} of {runs} false aborts, \
         fixed {f_aborts} of {runs} (budget {ALPHA})"
    );
}
