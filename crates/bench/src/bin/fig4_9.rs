//! Figures 4.9 and 4.10 — engine CPU utilization and delay when
//! increasing the number of checks.
//!
//! Fixed strategy count (8), sweeping the number of continuously
//! evaluated health checks per strategy from 1 to 256. The paper's shape:
//! cost grows roughly linearly in the number of checks while delays stay
//! far below the check intervals.
//!
//! Stdout holds what the seed decides — check evaluations per row — and
//! the wall-clock columns (CPU share, mean and max per-tick delay) go to
//! stderr.

use bifrost::engine::{Engine, EngineConfig};
use cex_bench::{fmt_duration, header, n_service_app, n_service_workload, n_strategies};
use cex_core::simtime::SimDuration;
use microsim::sim::Simulation;

fn main() {
    header("Figures 4.9 / 4.10 — engine cost vs number of checks per strategy");
    const STRATEGIES: usize = 8;
    println!("{:>7} | {:>11}", "checks", "evaluations");
    eprintln!("{:>7} | {:>9} | {:>12} | {:>12}", "checks", "cpu util", "mean delay", "max delay");
    for checks in [1usize, 4, 16, 64, 256] {
        let app = n_service_app(STRATEGIES);
        let wl = n_service_workload(&app, STRATEGIES, 200.0);
        let strategies = n_strategies(STRATEGIES, checks);
        let mut sim = Simulation::new(app, 7);
        sim.set_trace_sampling(0.0);
        let engine = Engine::new(EngineConfig::default());
        let report = engine
            .execute(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
            .expect("execution succeeds");
        println!("{checks:>7} | {:>11}", report.check_evaluations);
        eprintln!(
            "{:>7} | {:>8.2}% | {:>12} | {:>12}",
            checks,
            report.cpu_utilization() * 100.0,
            fmt_duration(report.mean_tick_processing),
            fmt_duration(report.max_tick_processing),
        );
    }
    println!("\n(8 strategies; each row multiplies every strategy's check set)");
    println!("cpu util and per-tick delay are wall-clock and print to stderr.");
}
