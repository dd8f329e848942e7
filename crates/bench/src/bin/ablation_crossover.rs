//! Ablation — GA crossover strategy and the repair operator.
//!
//! The paper self-identifies its "rather simple strategy of combining
//! individuals" as producing many invalid schedules (Section 1.2.2). This
//! ablation quantifies that: one-point vs uniform crossover, each with
//! and without the greedy repair pass.

use cex_bench::header;
use cex_core::metrics::Summary;
use fenrir::encoding::CrossoverKind;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::runner::{Budget, Scheduler};

const REPETITIONS: u64 = 5;

fn main() {
    header("Ablation — crossover strategy × repair (15 experiments, medium tier)");
    println!("{:>10} {:>7} | {:>8} {:>8} | {:>6}", "crossover", "repair", "fitness", "sd", "valid");
    for crossover in [CrossoverKind::OnePoint, CrossoverKind::Uniform] {
        for repair in [true, false] {
            let ga = GeneticAlgorithm { crossover, repair };
            let mut fitness = Vec::new();
            let mut valid = 0;
            for rep in 0..REPETITIONS {
                let problem = ProblemGenerator::new(15, SampleSizeTier::Medium).generate(300 + rep);
                let result = ga.schedule(&problem, Budget::evaluations(5_000), rep);
                fitness.push(result.best_report.raw);
                if result.best_report.is_valid() {
                    valid += 1;
                }
            }
            let s = Summary::of(&fitness);
            println!(
                "{:>10} {:>7} | {:>8.3} {:>8.3} | {:>4}/{}",
                format!("{crossover:?}"),
                repair,
                s.mean,
                s.std_dev,
                valid,
                REPETITIONS
            );
        }
    }
    println!("\nWithout repair, crossover children frequently violate sample-size and");
    println!("conflict constraints — the effect the paper attributes its invalid offspring to.");
}
