//! Figure 3.4 / Table 3.2 — fitness scores for scheduling 15 experiments.
//!
//! All four algorithms at an equal evaluation budget, across the low /
//! medium / high sample-size tiers, over several repetitions. The paper's
//! shape: the GA scores highest, simulated annealing and local search are
//! close behind on easy tiers and fall away as instances tighten, random
//! sampling trails.

use cex_bench::header;
use cex_core::metrics::Summary;
use fenrir::annealing::SimulatedAnnealing;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::greedy::Greedy;
use fenrir::local_search::LocalSearch;
use fenrir::random_sampling::RandomSampling;
use fenrir::runner::{Budget, Scheduler};

const REPETITIONS: u64 = 5;
const BUDGET: u64 = 5_000;

fn algorithms() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GeneticAlgorithm::default()),
        Box::new(SimulatedAnnealing),
        Box::new(LocalSearch),
        Box::new(RandomSampling),
        Box::new(Greedy),
    ]
}

fn main() {
    header("Figure 3.4 / Table 3.2 — fitness for 15 experiments (budget = 5k evaluations)");
    println!(
        "{:>6} {:>5} | {:>7} {:>7} {:>7} {:>7} {:>6}",
        "tier", "alg", "mean", "sd", "min", "max", "valid"
    );
    for tier in [SampleSizeTier::Low, SampleSizeTier::Medium, SampleSizeTier::High] {
        for alg in algorithms() {
            let mut fitness = Vec::new();
            let mut valid = 0;
            for rep in 0..REPETITIONS {
                let problem = ProblemGenerator::new(15, tier).generate(100 + rep);
                let result = alg.schedule(&problem, Budget::evaluations(BUDGET), rep);
                fitness.push(result.best_report.raw);
                if result.best_report.is_valid() {
                    valid += 1;
                }
            }
            let s = Summary::of(&fitness);
            println!(
                "{:>6} {:>5} | {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>4}/{}",
                tier.label(),
                alg.name(),
                s.mean,
                s.std_dev,
                s.min,
                s.max,
                valid,
                REPETITIONS
            );
        }
        println!();
    }
    println!("fitness is the raw objective in 0..=1 (1.0 = maximal fitness).");
}
