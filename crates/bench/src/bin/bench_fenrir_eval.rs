//! Benchmarks the fenrir evaluation pipeline: full re-evaluation vs
//! incremental single-plan moves, at n ∈ {10, 50, 200} experiments.
//!
//! Writes `results/BENCH_fenrir_eval.json` (evals/sec per mode plus the
//! incremental speedup factor) and mirrors the numbers on stdout.

use cex_bench::write_bench_json;
use cex_core::experiment::ExperimentId;
use cex_core::rng::SplitMix64;
use fenrir::encoding;
use fenrir::fitness::{self, Weights};
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::incremental::IncrementalState;
use fenrir::problem::Problem;
use fenrir::schedule::{Plan, Schedule};
use std::fmt::Write as _;
use std::time::Instant;

/// Minimum wall time per measurement, in seconds.
const MEASURE_SECS: f64 = 0.4;
/// Iterations between clock checks.
const CHUNK: usize = 256;

/// A random bound-respecting single-plan move, identical across the full
/// and incremental runs (both draw from identically seeded generators).
fn random_move(
    problem: &Problem,
    current: &Schedule,
    rng: &mut SplitMix64,
) -> (ExperimentId, Plan) {
    let id = ExperimentId(rng.next_index(problem.len()));
    let e = problem.experiment(id);
    let mut plan = current.plan(id).clone();
    match rng.next_index(3) {
        0 => {
            let latest =
                problem.horizon().saturating_sub(plan.duration_slots).max(e.earliest_start_slot);
            plan.start_slot =
                e.earliest_start_slot + rng.next_index(latest - e.earliest_start_slot + 1);
        }
        1 => {
            let max_dur = problem.max_duration(id);
            plan.duration_slots =
                e.min_duration_slots + rng.next_index(max_dur - e.min_duration_slots + 1);
        }
        _ => {
            plan.traffic_share =
                e.min_traffic_share + rng.next_f64() * (e.max_traffic_share - e.min_traffic_share);
        }
    }
    (id, plan)
}

/// Full-evaluation baseline: apply each move, re-evaluate the whole
/// schedule. Returns evals/sec (and a sink to keep the work alive).
fn bench_full(problem: &Problem, seed: &Schedule, weights: &Weights) -> (f64, f64) {
    let mut schedule = seed.clone();
    let mut rng = SplitMix64::new(0xBE);
    let mut sink = 0.0;
    let mut evals = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..CHUNK {
            let (id, plan) = random_move(problem, &schedule, &mut rng);
            *schedule.plan_mut(id) = plan;
            let r = fitness::evaluate(problem, &schedule, weights);
            sink += r.raw + r.violations as f64;
        }
        evals += CHUNK as u64;
        if start.elapsed().as_secs_f64() >= MEASURE_SECS {
            break;
        }
    }
    (evals as f64 / start.elapsed().as_secs_f64(), sink)
}

/// Incremental path: the same move sequence through `eval_move`.
fn bench_incremental(problem: &Problem, seed: &Schedule, weights: &Weights) -> (f64, f64) {
    let mut state = IncrementalState::new(problem, seed.clone(), weights);
    let mut rng = SplitMix64::new(0xBE);
    let mut sink = 0.0;
    let mut evals = 0u64;
    let start = Instant::now();
    loop {
        for _ in 0..CHUNK {
            let (id, plan) = random_move(problem, state.schedule(), &mut rng);
            let r = state.eval_move(problem, weights, id, plan);
            sink += r.raw + r.violations as f64;
        }
        evals += CHUNK as u64;
        if start.elapsed().as_secs_f64() >= MEASURE_SECS {
            break;
        }
    }
    (evals as f64 / start.elapsed().as_secs_f64(), sink)
}

fn main() {
    let weights = Weights::default();
    let mut json = String::from("  \"tiers\": [\n");

    println!("fenrir evaluation pipeline");
    println!("{:>5} {:>14} {:>14} {:>9}", "n", "full/s", "incr/s", "speedup");

    for (t, n) in [10usize, 50, 200].into_iter().enumerate() {
        let problem = ProblemGenerator::new(n, SampleSizeTier::Medium).generate(7);
        let mut rng = SplitMix64::new(n as u64);
        let mut seed = encoding::random_schedule(&problem, &mut rng);
        encoding::repair(&problem, &mut seed, &mut rng);

        let (full_rate, _) = bench_full(&problem, &seed, &weights);
        let (inc_rate, _) = bench_incremental(&problem, &seed, &weights);
        let inc_speedup = inc_rate / full_rate;

        println!("{n:>5} {full_rate:>14.0} {inc_rate:>14.0} {inc_speedup:>8.1}x");

        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"full_evals_per_sec\": {full_rate:.0}, \
             \"incremental_evals_per_sec\": {inc_rate:.0}, \
             \"incremental_speedup\": {inc_speedup:.2}}}{}",
            if t < 2 { "," } else { "" }
        );
    }
    json.push_str("  ]\n");
    write_bench_json("results/BENCH_fenrir_eval.json", "fenrir_eval", &json);
}
