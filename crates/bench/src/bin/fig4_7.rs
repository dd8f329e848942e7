//! Figures 4.7 and 4.8 — engine CPU utilization and check-evaluation
//! delay when running multiple strategies in parallel.
//!
//! The paper's headline: Bifrost supports "more than a hundred
//! experiments in parallel without introducing a significant performance
//! degradation". We sweep 1…128 parallel strategies and report the
//! engine's CPU share and per-tick processing delay.
//!
//! Stdout holds what the seed decides — check evaluations and completed
//! strategies per row — and the wall-clock columns (CPU share, mean and
//! max per-tick delay) go to stderr.

use bifrost::engine::{Engine, EngineConfig};
use cex_bench::{fmt_duration, header, n_service_app, n_service_workload, n_strategies};
use cex_core::simtime::SimDuration;
use microsim::sim::Simulation;

fn main() {
    header("Figures 4.7 / 4.8 — engine cost vs number of parallel strategies");
    println!("{:>5} | {:>10} | {:>9}", "strat", "checks", "completed");
    eprintln!("{:>5} | {:>9} | {:>12} | {:>12}", "strat", "cpu util", "mean delay", "max delay");
    for n in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let app = n_service_app(n);
        let wl = n_service_workload(&app, n, (20 * n) as f64);
        let strategies = n_strategies(n, 2);
        let mut sim = Simulation::new(app, 42);
        sim.set_trace_sampling(0.0);
        let engine = Engine::new(EngineConfig::default());
        let report = engine
            .execute(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
            .expect("execution succeeds");
        let completed = report
            .statuses
            .iter()
            .filter(|(_, s)| *s == bifrost::engine::StrategyStatus::Completed)
            .count();
        println!("{n:>5} | {:>10} | {completed:>5}/{n}", report.check_evaluations);
        eprintln!(
            "{:>5} | {:>8.2}% | {:>12} | {:>12}",
            n,
            report.cpu_utilization() * 100.0,
            fmt_duration(report.mean_tick_processing),
            fmt_duration(report.max_tick_processing),
        );
    }
    println!("\ncpu util and per-tick delay are wall-clock and print to stderr.");
    eprintln!("\ncpu util = engine processing time / total wall time;");
    eprintln!("delay = engine processing time per control tick (how far routing");
    eprintln!("decisions lag behind the telemetry that triggers them).");
}
