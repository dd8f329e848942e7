//! Benchmarks the fenrir evaluation pipeline: full re-evaluation vs
//! incremental single-plan moves, at n ∈ {10, 50, 200} experiments.
//!
//! Stdout holds what a fixed number of moves per tier decides: the full and
//! incremental fitness sums, asserted equal to the bit, which
//! `scripts/check_results.sh` diffs against `results/bench_fenrir_eval.txt`.
//! Stderr holds the timed rates: evaluations per second down each path and
//! the incremental speedup.

use cex_core::experiment::ExperimentId;
use cex_core::rng::SplitMix64;
use fenrir::encoding;
use fenrir::fitness;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::incremental::IncrementalState;
use fenrir::problem::Problem;
use fenrir::schedule::{Plan, Schedule};
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

/// Runs `step` — one move, returning the fitness it scored — in chunks
/// of [`CHUNK`] until `moves` have run or, with no count, for at least
/// [`MEASURE_SECS`]. Returns the moves run, the seconds they took and the
/// sum of their fitness.
fn drive(moves: Option<u64>, mut step: impl FnMut() -> f64) -> (u64, f64, f64) {
    let start = Instant::now();
    let (mut evals, mut sum) = (0u64, 0.0);
    loop {
        for _ in 0..CHUNK {
            sum += step();
        }
        evals += CHUNK as u64;
        let done = match moves {
            Some(moves) => evals >= moves,
            None => start.elapsed().as_secs_f64() >= MEASURE_SECS,
        };
        if done {
            return (evals, start.elapsed().as_secs_f64(), sum);
        }
    }
}

/// Full-evaluation baseline: apply each move, re-evaluate the whole
/// schedule.
fn bench_full(problem: &Problem, seed: &Schedule, moves: Option<u64>) -> (u64, f64, f64) {
    let mut schedule = seed.clone();
    let mut rng = SplitMix64::new(0xBE);
    drive(moves, || {
        let (id, plan) = random_move(problem, &schedule, &mut rng);
        *schedule.plan_mut(id) = plan;
        let r = fitness::evaluate(problem, &schedule);
        r.raw + r.violations as f64
    })
}

/// Incremental path: the same move sequence through `eval_move`.
fn bench_incremental(problem: &Problem, seed: &Schedule, moves: Option<u64>) -> (u64, f64, f64) {
    let mut state = IncrementalState::new(problem, seed.clone());
    let mut rng = SplitMix64::new(0xBE);
    drive(moves, || {
        let (id, plan) = random_move(problem, state.schedule(), &mut rng);
        let r = state.eval_move(problem, id, plan);
        r.raw + r.violations as f64
    })
}

/// The three tiers: experiments, and the moves whose fitness sums are printed.
const TIERS: [(usize, u64); 3] =
    [(10, 8 * CHUNK as u64), (50, 4 * CHUNK as u64), (200, 2 * CHUNK as u64)];

fn main() {
    println!("fenrir evaluation pipeline: the same moves scored in full and incrementally");
    println!("{:>5} {:>7} {:>22} {:>22}", "n", "moves", "full fitness sum", "incr fitness sum");
    eprintln!("{:>5} {:>14} {:>14} {:>9}", "n", "full/s", "incr/s", "speedup");
    for (n, moves) in TIERS {
        let problem = ProblemGenerator::new(n, SampleSizeTier::Medium).generate(7);
        let mut rng = SplitMix64::new(n as u64);
        let seed = encoding::repaired_random(&problem, &mut rng);

        let (_, _, full) = bench_full(&problem, &seed, Some(moves));
        let (_, _, incremental) = bench_incremental(&problem, &seed, Some(moves));
        assert_eq!(full.to_bits(), incremental.to_bits(), "n={n}: full {full} vs {incremental}");
        println!("{n:>5} {moves:>7} {full:>22?} {incremental:>22?}");

        let rate = |(evals, secs, _): (u64, f64, f64)| evals as f64 / secs;
        let full_rate = rate(bench_full(&problem, &seed, None));
        let inc_rate = rate(bench_incremental(&problem, &seed, None));
        eprintln!("{n:>5} {full_rate:>14.0} {inc_rate:>14.0} {:>8.1}x", inc_rate / full_rate);
    }
}
