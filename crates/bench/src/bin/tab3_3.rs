//! Table 3.3 — comparison of execution times.
//!
//! The paper measures wall-clock time to reach a target schedule quality
//! (GA ≈ 110 min for 40 high-sample experiments, LS/SA ≈ 3× longer). On
//! the simulator we measure when each algorithm first reaches a quality
//! threshold (90% of the GA's final score), within a generous evaluation
//! cap — the same "who gets there first, by what factor" comparison at
//! laptop scale.
//!
//! Stdout holds what the seeds decide: the GA's final fitness and the
//! target, then per algorithm the evaluations it took to reach the target
//! and its final fitness. Stderr holds the wall-clock columns: the time to
//! the target (interpolated from the evaluation count) and the total.

use cex_bench::{fmt_duration, header};
use fenrir::annealing::SimulatedAnnealing;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::local_search::LocalSearch;
use fenrir::random_sampling::RandomSampling;
use fenrir::runner::{Budget, Scheduler, SearchResult};
use std::time::Duration;

fn algorithms() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GeneticAlgorithm::default()),
        Box::new(SimulatedAnnealing),
        Box::new(LocalSearch),
        Box::new(RandomSampling),
    ]
}

/// The evaluation at which the search first reached `target` score, if
/// ever.
fn evaluations_to_target(result: &SearchResult, target: f64) -> Option<u64> {
    result.history.iter().find(|(_, score)| *score >= target).map(|hit| hit.0)
}

fn main() {
    header("Table 3.3 — execution time to reach 90% of the GA's final score");
    for n in [15usize, 40] {
        let budget = Budget::evaluations(400 * n as u64);
        let problem = ProblemGenerator::new(n, SampleSizeTier::High).generate(900 + n as u64);
        let ga_final = GeneticAlgorithm::default().schedule(&problem, budget, 1);
        let target = ga_final.best_report.score() * 0.9;
        println!(
            "\nn = {n} (GA final fitness {:.3}, target score {:.3})",
            ga_final.best_report.raw, target
        );
        println!("{:>5} | {:>12} | {:>8}", "alg", "evals-to-90%", "fitness");
        eprintln!("\nn = {n}");
        eprintln!("{:>5} | {:>12} | {:>10}", "alg", "time-to-90%", "total");
        for alg in algorithms() {
            let result = alg.schedule(&problem, budget, 1);
            let (evals, time) = match evaluations_to_target(&result, target) {
                Some(e) => {
                    let fraction = e as f64 / result.evaluations as f64;
                    let time = Duration::from_secs_f64(result.wall.as_secs_f64() * fraction);
                    (e.to_string(), fmt_duration(time))
                }
                None => ("never".to_string(), "never".to_string()),
            };
            println!("{:>5} | {evals:>12} | {:>8.3}", alg.name(), result.best_report.raw);
            eprintln!("{:>5} | {time:>12} | {:>10}", alg.name(), fmt_duration(result.wall));
        }
    }
    println!(
        "\nThe paper's Table 3.3 reports minutes on cloud VMs; shapes, not absolutes, transfer."
    );
}
