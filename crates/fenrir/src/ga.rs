//! The genetic algorithm (Section 3.5.1) — Fenrir's scheduling engine.
//!
//! Operates directly on the value-encoded chromosome (the schedule):
//! tournament selection, one-point crossover at experiment boundaries
//! (Figure 3.2), point mutation, and an optional greedy repair step that
//! addresses the paper's observation that plain crossover "leads to many
//! invalid schedules". Elitism preserves the best individuals across
//! generations.

use crate::encoding::{self, CrossoverKind};
use crate::greedy;
use crate::problem::Problem;
use crate::runner::{Budget, Evaluator, Scheduler, SearchResult};
use crate::schedule::Schedule;
use cex_core::rng::{sub_seed, SplitMix64};

/// Individuals per generation.
const POPULATION_SIZE: usize = 40;
/// Tournament size for parent selection.
const TOURNAMENT_K: usize = 3;
/// Probability a pair of parents is recombined (otherwise cloned).
const CROSSOVER_RATE: f64 = 0.9;
/// Probability each child receives a point mutation (applied up to three
/// times).
const MUTATION_RATE: f64 = 0.4;
/// Number of elites copied unchanged into the next generation.
const ELITISM: usize = 2;
const _: () = assert!(
    POPULATION_SIZE >= 2 && TOURNAMENT_K >= 1 && ELITISM < POPULATION_SIZE,
    "two parents, a positive tournament size, and room for offspring"
);

/// Genetic-algorithm configuration: the two operators the crossover
/// ablation varies. The initial population is always seeded with the greedy
/// earliest-fit schedule (plus mutated copies), which is essential on tight
/// instances where random individuals are almost never valid.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneticAlgorithm {
    /// Crossover strategy.
    pub crossover: CrossoverKind,
    /// Whether children are greedily repaired before evaluation.
    pub repair: bool,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm { crossover: CrossoverKind::OnePoint, repair: true }
    }
}

impl Scheduler for GeneticAlgorithm {
    fn name(&self) -> &'static str {
        "GA"
    }

    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult {
        let mut rng = SplitMix64::new(sub_seed(seed, 0xF3));
        let mut ev = Evaluator::new(problem, budget);

        // Initial population: the seed individual if any, the greedy
        // schedule and perturbed copies, the rest random (repaired when
        // enabled).
        let mut population: Vec<(Schedule, f64)> = Vec::with_capacity(POPULATION_SIZE);
        if let Some(seed_schedule) = initial {
            let report = ev.eval(&seed_schedule);
            population.push((seed_schedule, report.score()));
        }
        if ev.has_budget() {
            let seed_schedule = greedy::greedy_schedule(problem);
            let report = ev.eval(&seed_schedule);
            population.push((seed_schedule.clone(), report.score()));
            // A few perturbed copies give the search a diverse basin
            // around the constructive solution.
            for _ in 0..3.min(POPULATION_SIZE.saturating_sub(population.len())) {
                let mut copy = seed_schedule.clone();
                for _ in 0..2 {
                    encoding::mutate(problem, &mut copy, &mut rng);
                }
                if self.repair {
                    encoding::repair(problem, &mut copy, &mut rng);
                }
                if !ev.has_budget() {
                    break;
                }
                let report = ev.eval(&copy);
                population.push((copy, report.score()));
            }
        }
        while population.len() < POPULATION_SIZE && ev.has_budget() {
            let mut s = encoding::random_schedule(problem, &mut rng);
            if self.repair {
                encoding::repair(problem, &mut s, &mut rng);
            }
            let report = ev.eval(&s);
            population.push((s, report.score()));
        }

        while ev.has_budget() {
            // Sort descending by score; elites survive unchanged.
            population.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
            let mut next: Vec<(Schedule, f64)> =
                population.iter().take(ELITISM.min(population.len())).cloned().collect();

            // Breed the whole brood (all RNG draws happen here), then
            // score it in index order.
            let brood_target =
                (POPULATION_SIZE.saturating_sub(next.len()) as u64).min(ev.remaining()) as usize;
            let mut brood: Vec<Schedule> = Vec::with_capacity(brood_target);
            while brood.len() < brood_target {
                let pa = tournament(&population, &mut rng);
                let pb = tournament(&population, &mut rng);
                let (mut c1, mut c2) = if rng.next_f64() < CROSSOVER_RATE {
                    encoding::crossover(
                        &population[pa].0,
                        &population[pb].0,
                        self.crossover,
                        &mut rng,
                    )
                } else {
                    (population[pa].0.clone(), population[pb].0.clone())
                };
                for child in [&mut c1, &mut c2] {
                    if rng.next_f64() < MUTATION_RATE {
                        let times = 1 + (rng.next_f64() * 3.0) as usize;
                        for _ in 0..times {
                            encoding::mutate(problem, child, &mut rng);
                        }
                    }
                    if self.repair {
                        encoding::repair(problem, child, &mut rng);
                    }
                }
                for child in [c1, c2] {
                    if brood.len() < brood_target {
                        brood.push(child);
                    }
                }
            }
            for child in brood {
                let score = ev.eval(&child).score();
                next.push((child, score));
            }
            population = next;
        }
        ev.finish()
    }
}

/// Tournament selection: best of [`TOURNAMENT_K`] uniformly drawn
/// individuals.
fn tournament(population: &[(Schedule, f64)], rng: &mut SplitMix64) -> usize {
    let n = population.len();
    let mut best = rng.next_index(n);
    for _ in 1..TOURNAMENT_K {
        let challenger = rng.next_index(n);
        if population[challenger].1 > population[best].1 {
            best = challenger;
        }
    }
    best
}
