//! Figure 3.5 — fitness scores for an increasing number of experiments.
//!
//! The separating regime of the paper: with many high-sample-size
//! experiments (n ≥ 20) the GA pulls ahead of simulated annealing and
//! local search (the paper reports 62% vs 42%/43% of maximal fitness at
//! n = 40 high).

use cex_bench::header;
use fenrir::annealing::SimulatedAnnealing;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::local_search::LocalSearch;
use fenrir::random_sampling::RandomSampling;
use fenrir::runner::{Budget, Scheduler};

const REPETITIONS: u64 = 3;

fn algorithms() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GeneticAlgorithm::default()),
        Box::new(SimulatedAnnealing),
        Box::new(LocalSearch),
        Box::new(RandomSampling),
    ]
}

fn main() {
    header("Figure 3.5 — fitness vs number of experiments (high sample sizes)");
    println!("{:>4} | {:>8} {:>8} {:>8} {:>8}", "n", "GA", "SA", "LS", "RS");
    for n in [5usize, 10, 15, 20, 30, 40] {
        // Budget grows with instance size, as the paper's fixed search
        // effort per experiment does.
        let budget = Budget::evaluations(300 * n as u64);
        let mut means = Vec::new();
        for alg in algorithms() {
            let mut sum = 0.0;
            for rep in 0..REPETITIONS {
                let problem =
                    ProblemGenerator::new(n, SampleSizeTier::High).generate(500 + rep * 17);
                let result = alg.schedule(&problem, budget, rep);
                sum += result.best_report.raw;
            }
            means.push(sum / REPETITIONS as f64);
        }
        println!(
            "{:>4} | {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}%",
            n,
            means[0] * 100.0,
            means[1] * 100.0,
            means[2] * 100.0,
            means[3] * 100.0
        );
    }
    println!("\nvalues are % of the maximal fitness score (1.0).");
}
