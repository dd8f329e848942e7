//! The schedulers, as one table.
//!
//! Each row is one scheduler — GA, SA, LS, RS or GR — and the claims that
//! set it apart; `check` is the one driver, and each row is its own
//! `#[test]`, so the rows run in parallel. The driver holds every row to
//! what every scheduler must do:
//!
//! - the same seed gives the same search, to the history;
//! - a small, loose instance ends in a valid schedule;
//! - a search seeded with a good schedule never ends worse than it;
//! - the best-so-far history is strictly increasing and ends at the best;
//! - at budgets 1, 2 and 3, from scratch and from an initial schedule, no
//!   search spends more than its budget.
//!
//! A row that claims `beats_rs` must also end at least as good as random
//! sampling on each of three medium instances at the same budget.

use fenrir::annealing::SimulatedAnnealing;
use fenrir::ga::GeneticAlgorithm;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::greedy::{greedy_schedule, Greedy};
use fenrir::local_search::LocalSearch;
use fenrir::random_sampling::RandomSampling;
use fenrir::runner::{Budget, Scheduler, SearchResult};

/// One scheduler and the claims that set it apart.
struct Row<'a> {
    scheduler: &'a dyn Scheduler,
    /// Ends at least as good as random sampling on each medium instance.
    beats_rs: bool,
}

fn check(row: Row) {
    let alg = row.scheduler;
    let name = alg.name();
    let score = |r: &SearchResult| r.best_report.score();

    // Deterministic per seed.
    let problem = ProblemGenerator::new(4, SampleSizeTier::Low).generate(2);
    let a = alg.schedule(&problem, Budget::evaluations(400), 7);
    let b = alg.schedule(&problem, Budget::evaluations(400), 7);
    assert_eq!(
        (&a.best, a.evaluations, &a.history),
        (&b.best, b.evaluations, &b.history),
        "{name}: same seed, different search"
    );

    // Valid on a small instance, with its history strictly increasing up
    // to the best it reports.
    let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(1);
    let result = alg.schedule(&problem, Budget::evaluations(3_000), 1);
    assert!(result.best_report.is_valid(), "{name}: {:?}", result.best_report);
    assert!(result.best_report.raw > 0.5, "{name}: raw {}", result.best_report.raw);
    assert!(result.history.windows(2).all(|w| w[0].1 < w[1].1), "{name}: {:?}", result.history);
    assert_eq!(result.history.last().map(|h| h.1), Some(score(&result)), "{name}: history end");

    // A seeded start never degrades.
    let problem = ProblemGenerator::new(6, SampleSizeTier::Low).generate(2);
    let good = alg.schedule(&problem, Budget::evaluations(3_000), 3);
    let reseeded = alg.schedule_from(&problem, Budget::evaluations(50), 4, Some(good.best.clone()));
    assert!(score(&reseeded) >= score(&good), "{name}: the seeded search lost ground");

    // Small budgets are never overspent, with or without a start.
    let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(1);
    let start = greedy_schedule(&problem);
    for budget in 1..=3 {
        for initial in [None, Some(start.clone())] {
            let from = if initial.is_some() { "an initial schedule" } else { "scratch" };
            let result = alg.schedule_from(&problem, Budget::evaluations(budget), 1, initial);
            assert!(
                (1..=budget).contains(&result.evaluations),
                "{name} at budget {budget} from {from} spent {} evaluations",
                result.evaluations
            );
        }
    }

    if row.beats_rs {
        for seed in 0..3 {
            let problem = ProblemGenerator::new(10, SampleSizeTier::Medium).generate(seed);
            let budget = Budget::evaluations(1_500);
            let ours = alg.schedule(&problem, budget, seed);
            let rs = RandomSampling.schedule(&problem, budget, seed);
            assert!(
                score(&ours) >= score(&rs),
                "{name} lost to RS on instance {seed}: {:?} vs {:?}",
                ours.best_report,
                rs.best_report
            );
        }
    }
}

#[test]
fn ga() {
    check(Row { scheduler: &GeneticAlgorithm::default(), beats_rs: true });
}

#[test]
fn sa() {
    check(Row { scheduler: &SimulatedAnnealing, beats_rs: true });
}

#[test]
fn ls() {
    check(Row { scheduler: &LocalSearch, beats_rs: true });
}

#[test]
fn rs() {
    check(Row { scheduler: &RandomSampling, beats_rs: false });
}

#[test]
fn gr() {
    check(Row { scheduler: &Greedy, beats_rs: false });
}

#[test]
#[should_panic(expected = "zero evaluation budget")]
fn a_zero_budget_is_rejected_where_it_is_made() {
    let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(1);
    RandomSampling.schedule(&problem, Budget::evaluations(0), 1);
}
