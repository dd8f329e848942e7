//! Journaling overhead on the 100-strategy scenario of Figures 4.7–4.10.
//!
//! The execution journal records every check evaluation, transition, and
//! enactment; the engine's headline claim — over a hundred parallel
//! experiments without significant degradation — must survive with the
//! journal turned on. This bin runs the same 100-strategy workload with
//! and without journaling on identically seeded simulations and reports
//! the `engine_busy` delta. Acceptance: journaling stays within 10% of
//! the unjournaled engine-busy time (each mode takes the best of
//! `REPS` repetitions to damp scheduler noise).
//!
//! The event count is read from the engine's own counter registry
//! (`report.runtime.counters`), not re-derived here, so the bench and
//! the engine agree by construction; `engine_busy` is likewise a thin
//! read of the engine's `engine.busy` profile node. The byte count is the
//! length of the one `to_jsonl` encode of the journal the run returned.

use bifrost::engine::{Engine, EngineConfig};
use cex_bench::{fmt_duration, header, n_service_app, n_service_workload, n_strategies};
use cex_core::simtime::SimDuration;
use microsim::sim::Simulation;
use std::time::Duration;

const N: usize = 100;
const REPS: usize = 3;

fn main() {
    header("Journaling overhead — 100 parallel strategies");
    let engine = Engine::new(EngineConfig::default());
    let duration = SimDuration::from_mins(10);

    let run = |journaled: bool| -> (Duration, u64, u64) {
        let mut best = Duration::MAX;
        let mut events = 0u64;
        let mut bytes = 0u64;
        for _ in 0..REPS {
            let app = n_service_app(N);
            let wl = n_service_workload(&app, N, (20 * N) as f64);
            let strategies = n_strategies(N, 2);
            let mut sim = Simulation::new(app, 42);
            sim.set_trace_sampling(0.0);
            let report = if journaled {
                let (report, journal) = engine
                    .execute_journaled(&mut sim, &strategies, &wl, duration)
                    .expect("execution succeeds");
                bytes = journal.to_jsonl().len() as u64;
                report
            } else {
                engine.execute(&mut sim, &strategies, &wl, duration).expect("execution succeeds")
            };
            best = best.min(report.engine_busy);
            events = report.runtime.counters.count("engine.journal.events");
        }
        (best, events, bytes)
    };

    let (plain, _, _) = run(false);
    let (journaled, events, bytes) = run(true);
    let overhead = (journaled.as_secs_f64() - plain.as_secs_f64()) / plain.as_secs_f64() * 100.0;

    println!("{:>22} | {:>12}", "mode", "engine busy");
    println!("{:>22} | {:>12}", "without journal", fmt_duration(plain));
    println!("{:>22} | {:>12}", "with journal", fmt_duration(journaled));
    println!(
        "\njournal: {events} events, {bytes} bytes of JSONL ({:.1} bytes/event)",
        bytes as f64 / events.max(1) as f64
    );
    println!("journaling overhead: {overhead:+.1}% of engine_busy (acceptance: within 10%)");
    if overhead <= 10.0 {
        println!("PASS: within acceptance");
    } else {
        println!("FAIL: exceeds acceptance");
    }
}
