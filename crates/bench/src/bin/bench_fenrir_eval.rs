//! Benchmarks the fenrir evaluation pipeline: full re-evaluation vs
//! incremental single-plan moves, at n ∈ {10, 50, 200} experiments.
//!
//! Writes `results/BENCH_fenrir_eval.json` (evals/sec per mode plus the
//! incremental speedup factor) and mirrors the numbers on stdout. With
//! `--smoke [--out PATH]` it makes a fixed number of moves per tier instead
//! of timing them, and writes only what those moves decide — the full and
//! incremental fitness sums, which must be equal — so two runs give the
//! same bytes.

use cex_bench::{smoke_args, write_bench_json};
use cex_core::experiment::ExperimentId;
use cex_core::rng::SplitMix64;
use fenrir::encoding;
use fenrir::fitness;
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

/// The three tiers: experiments, and the moves a smoke run makes at each.
const TIERS: [(usize, u64); 3] =
    [(10, 8 * CHUNK as u64), (50, 4 * CHUNK as u64), (200, 2 * CHUNK as u64)];

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_fenrir_eval.json");
    let mut json = String::from("  \"tiers\": [\n");

    println!("fenrir evaluation pipeline");
    if smoke {
        println!("{:>5} {:>7} {:>22} {:>22}", "n", "moves", "full fitness sum", "incr fitness sum");
    } else {
        println!("{:>5} {:>14} {:>14} {:>9}", "n", "full/s", "incr/s", "speedup");
    }

    for (t, (n, smoke_moves)) in TIERS.into_iter().enumerate() {
        let problem = ProblemGenerator::new(n, SampleSizeTier::Medium).generate(7);
        let mut rng = SplitMix64::new(n as u64);
        let seed = encoding::repaired_random(&problem, &mut rng);
        let comma = if t + 1 < TIERS.len() { "," } else { "" };

        if smoke {
            // A fixed count of the same moves down both paths, and only what
            // the moves decide: the two fitness sums, equal to the bit.
            let moves = Some(smoke_moves);
            let (_, _, full) = bench_full(&problem, &seed, moves);
            let (_, _, incremental) = bench_incremental(&problem, &seed, moves);
            assert_eq!(
                full.to_bits(),
                incremental.to_bits(),
                "n={n}: full {full} vs {incremental}"
            );
            println!("{n:>5} {smoke_moves:>7} {full:>22?} {incremental:>22?}");
            let _ = writeln!(
                json,
                "    {{\"n\": {n}, \"moves\": {smoke_moves}, \"full_fitness_sum\": {full:?}, \
                 \"incremental_fitness_sum\": {incremental:?}}}{comma}"
            );
            continue;
        }

        let rate = |(evals, secs, _): (u64, f64, f64)| evals as f64 / secs;
        let full_rate = rate(bench_full(&problem, &seed, None));
        let inc_rate = rate(bench_incremental(&problem, &seed, None));
        let inc_speedup = inc_rate / full_rate;

        println!("{n:>5} {full_rate:>14.0} {inc_rate:>14.0} {inc_speedup:>8.1}x");

        let _ = writeln!(
            json,
            "    {{\"n\": {n}, \"full_evals_per_sec\": {full_rate:.0}, \
             \"incremental_evals_per_sec\": {inc_rate:.0}, \
             \"incremental_speedup\": {inc_speedup:.2}}}{comma}"
        );
    }
    json.push_str("  ]\n");
    let bench = if smoke { "fenrir_eval_smoke" } else { "fenrir_eval" };
    write_bench_json(&out, bench, &json);
}
