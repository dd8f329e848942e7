//! A/A calibration grid: the empirical false-abort rate of the
//! always-valid sequential check stays at or under its nominal α under
//! continuous monitoring, while the fixed-window Welch check — evaluated
//! at the same cadence — demonstrably exceeds it. This is the peeking
//! bug the sequential layer exists to fix: repeatedly testing a moving
//! window at level α multiplies the family-wise error far past α, but a
//! running minimum of `min(1, 1/Λ)` is bounded by Ville's inequality no
//! matter how often the engine looks.
//!
//! Everything here is seeded and deterministic: the same grid produces
//! the same abort counts on every run.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, StrategyStatus};
use cex_core::simtime::SimDuration;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::sim::Simulation;
use microsim::workload::Workload;

/// Both versions identical: any abort is a false positive.
fn aa_app(error_rate: f64) -> Application {
    let mut b = Application::builder();
    for v in ["1.0.0", "2.0.0"] {
        b.version(VersionSpec::new("svc", v).capacity(10_000.0).endpoint(
            EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(error_rate),
        ));
    }
    b.build().unwrap()
}

/// Runs one A/A experiment and reports whether it falsely aborted.
fn aborted(strategy_src: &str, seed: u64) -> bool {
    let app = aa_app(0.15);
    let svc = app.service_id("svc").unwrap();
    let wl = Workload::simple(svc, "api", 20.0);
    let mut sim = Simulation::new(app, seed);
    let strategy = dsl::parse(strategy_src).unwrap();
    let report = Engine::new(EngineConfig { max_retries: 1, ..Default::default() })
        .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(20))
        .unwrap();
    report.statuses[0].1 == StrategyStatus::RolledBack
}

const SEEDS: std::ops::Range<u64> = 100..124;

#[test]
fn sequential_false_abort_rate_stays_at_or_under_alpha() {
    // α = 1 − 0.95 = 0.05. `on inconclusive complete` keeps the retry
    // loop out of the measurement: each seed is exactly one phase
    // execution, and only a conclusive (false) harm verdict aborts.
    let src = r#"strategy "aa-seq" {
        service "svc" baseline "1.0.0" candidate "2.0.0"
        phase "canary" canary 50% for 15m {
          check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
          on success complete
          on failure rollback
          on inconclusive complete
        }
    }"#;
    let aborts = SEEDS.filter(|seed| aborted(src, *seed)).count();
    let n = SEEDS.end - SEEDS.start;
    let rate = aborts as f64 / n as f64;
    assert!(rate <= 0.05, "sequential A/A false-abort rate {rate} ({aborts}/{n}) exceeds α=0.05");
}

#[test]
fn fixed_window_peeking_exceeds_its_nominal_alpha() {
    // The same cadence and the same α=0.05, but a fixed 1-minute Welch
    // window re-tested every 30 seconds: ~29 looks per run. The
    // family-wise false-abort rate must demonstrably exceed the nominal
    // level — this is the uncorrected-peeking baseline the sequential
    // check replaces.
    let src = r#"strategy "aa-fixed" {
        service "svc" baseline "1.0.0" candidate "2.0.0"
        phase "canary" canary 50% for 15m {
          check error_rate significant_vs_baseline < 0.05 over 1m every 30s min_samples 20
          on success complete
          on failure rollback
          on inconclusive complete
        }
    }"#;
    let aborts = SEEDS.filter(|seed| aborted(src, *seed)).count();
    let n = SEEDS.end - SEEDS.start;
    let rate = aborts as f64 / n as f64;
    assert!(
        rate > 0.05,
        "fixed-window A/A false-abort rate {rate} ({aborts}/{n}) should exceed α=0.05 — \
         peeking at a fixed-window test inflates its error rate"
    );
}
