//! Figure 3.6 — fitness scores after reevaluating an existing schedule.
//!
//! Mid-horizon, some experiments finished, some were canceled, new ones
//! arrived. All algorithms re-schedule the updated problem seeded with the
//! adapted GA schedule. The paper's observation: the gap between the
//! algorithms shrinks, because SA and LS "benefit from a highly optimized
//! schedule to be reevaluated".

use cex_bench::header;
use cex_core::experiment::ExperimentId;
use fenrir::annealing::SimulatedAnnealing;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::local_search::LocalSearch;
use fenrir::problem::ExperimentRequest;
use fenrir::random_sampling::RandomSampling;
use fenrir::reevaluate::{reevaluate, ScheduleUpdate};
use fenrir::runner::{Budget, Scheduler};

fn algorithms() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(GeneticAlgorithm::default()),
        Box::new(SimulatedAnnealing),
        Box::new(LocalSearch),
        Box::new(RandomSampling),
    ]
}

fn main() {
    header("Figure 3.6 — reevaluating an existing 20-experiment schedule");
    let problem = ProblemGenerator::new(20, SampleSizeTier::Medium).generate(77);
    let initial = GeneticAlgorithm::default().schedule(&problem, Budget::evaluations(8_000), 1);
    println!(
        "initial GA schedule: fitness {:.3} (valid: {})",
        initial.best_report.raw,
        initial.best_report.is_valid()
    );

    // A week in: 3 finished, 2 canceled, 4 added.
    let mut added = Vec::new();
    for i in 0..4 {
        let mut request =
            ExperimentRequest::new(format!("late{i}"), format!("late-svc{i}"), 40_000.0);
        request.min_duration_slots = 12;
        request.max_duration_slots = 120;
        added.push(request);
    }
    let update = ScheduleUpdate {
        now_slot: 7 * 24,
        finished: vec![ExperimentId(0), ExperimentId(4), ExperimentId(9)],
        canceled: vec![ExperimentId(2), ExperimentId(13)],
        added,
    };
    let re = reevaluate(&problem, &initial.best, &update, 5).expect("update is valid");
    println!(
        "updated problem: {} experiments ({} survivors + 4 added)\n",
        re.problem.len(),
        re.problem.len() - 4
    );

    println!("{:>5} | {:>10} | {:>10}", "alg", "cold", "seeded");
    let budget = Budget::evaluations(4_000);
    for alg in algorithms() {
        let cold = alg.schedule(&re.problem, budget, 3);
        let seeded = alg.schedule_from(&re.problem, budget, 3, Some(re.seed_schedule.clone()));
        println!(
            "{:>5} | {:>9.3}{} | {:>9.3}{}",
            alg.name(),
            cold.best_report.raw,
            if cold.best_report.is_valid() { " " } else { "!" },
            seeded.best_report.raw,
            if seeded.best_report.is_valid() { " " } else { "!" },
        );
    }
    println!("\n('!' marks a best schedule that is still invalid at budget exhaustion)");
}
