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

/// Genetic-algorithm configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneticAlgorithm {
    /// Individuals per generation.
    pub population_size: usize,
    /// Tournament size for parent selection.
    pub tournament_k: usize,
    /// Probability a pair of parents is recombined (otherwise cloned).
    pub crossover_rate: f64,
    /// Probability each child receives a point mutation (applied up to
    /// three times).
    pub mutation_rate: f64,
    /// Number of elites copied unchanged into the next generation.
    pub elitism: usize,
    /// Crossover strategy.
    pub crossover: CrossoverKind,
    /// Whether children are greedily repaired before evaluation.
    pub repair: bool,
    /// Whether the initial population is seeded with the greedy
    /// earliest-fit schedule (plus mutated copies). Essential on tight
    /// instances where random individuals are almost never valid.
    pub greedy_seed: bool,
}

impl Default for GeneticAlgorithm {
    fn default() -> Self {
        GeneticAlgorithm {
            population_size: 40,
            tournament_k: 3,
            crossover_rate: 0.9,
            mutation_rate: 0.4,
            elitism: 2,
            crossover: CrossoverKind::OnePoint,
            repair: true,
            greedy_seed: true,
        }
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
        assert!(self.population_size >= 2, "population needs at least two individuals");
        assert!(self.tournament_k >= 1, "tournament size must be positive");
        assert!(self.elitism < self.population_size, "elitism must leave room for offspring");
        let mut rng = SplitMix64::new(sub_seed(seed, 0xF3));
        let mut ev = Evaluator::new(problem, budget);

        // Initial population: optional seed individual, rest random
        // (repaired when enabled).
        let mut population: Vec<(Schedule, f64)> = Vec::with_capacity(self.population_size);
        if let Some(seed_schedule) = initial {
            let report = ev.eval(&seed_schedule);
            population.push((seed_schedule, report.score()));
        }
        if self.greedy_seed && ev.has_budget() {
            let seed_schedule = greedy::greedy_schedule(problem);
            let report = ev.eval(&seed_schedule);
            population.push((seed_schedule.clone(), report.score()));
            // A few perturbed copies give the search a diverse basin
            // around the constructive solution.
            for _ in 0..3.min(self.population_size.saturating_sub(population.len())) {
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
        while population.len() < self.population_size && ev.has_budget() {
            let mut s = encoding::random_schedule(problem, &mut rng);
            if self.repair {
                encoding::repair(problem, &mut s, &mut rng);
            }
            let report = ev.eval(&s);
            population.push((s, report.score()));
        }
        if population.is_empty() {
            // Degenerate budget: evaluate one random schedule so `finish`
            // has a best.
            let s = encoding::random_schedule(problem, &mut rng);
            let report = ev.eval(&s);
            population.push((s, report.score()));
        }

        while ev.has_budget() {
            // Sort descending by score; elites survive unchanged.
            population.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("scores are finite"));
            let mut next: Vec<(Schedule, f64)> =
                population.iter().take(self.elitism.min(population.len())).cloned().collect();

            // Breed the whole brood (all RNG draws happen here), then
            // score it in index order.
            let brood_target = (self.population_size.saturating_sub(next.len()) as u64)
                .min(ev.remaining()) as usize;
            let mut brood: Vec<Schedule> = Vec::with_capacity(brood_target);
            while brood.len() < brood_target {
                let pa = tournament(&population, self.tournament_k, &mut rng);
                let pb = tournament(&population, self.tournament_k, &mut rng);
                let (mut c1, mut c2) = if rng.next_f64() < self.crossover_rate {
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
                    if rng.next_f64() < self.mutation_rate {
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
            let reports = ev.eval_batch(&brood);
            for (child, report) in brood.into_iter().zip(reports) {
                next.push((child, report.score()));
            }
            population = next;
        }
        ev.finish()
    }
}

/// Tournament selection: best of `k` uniformly drawn individuals.
fn tournament(population: &[(Schedule, f64)], k: usize, rng: &mut SplitMix64) -> usize {
    let n = population.len();
    let mut best = rng.next_index(n);
    for _ in 1..k {
        let challenger = rng.next_index(n);
        if population[challenger].1 > population[best].1 {
            best = challenger;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ProblemGenerator, SampleSizeTier};
    use crate::random_sampling::RandomSampling;

    #[test]
    fn ga_finds_valid_schedule_for_small_instance() {
        let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(1);
        let result = GeneticAlgorithm::default().schedule(&problem, Budget::evaluations(4_000), 1);
        assert!(result.best_report.is_valid(), "{:?}", result.best_report);
        assert!(result.best_report.raw > 0.5, "raw {}", result.best_report.raw);
        assert!(result.evaluations <= 4_000);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let problem = ProblemGenerator::new(4, SampleSizeTier::Low).generate(2);
        let ga = GeneticAlgorithm::default();
        let a = ga.schedule(&problem, Budget::evaluations(1_000), 7);
        let b = ga.schedule(&problem, Budget::evaluations(1_000), 7);
        assert_eq!(a.best, b.best);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn ga_beats_random_sampling_on_medium_instances() {
        let problem = ProblemGenerator::new(12, SampleSizeTier::Medium).generate(3);
        let budget = Budget::evaluations(3_000);
        let ga = GeneticAlgorithm::default().schedule(&problem, budget, 1);
        let rs = RandomSampling::default().schedule(&problem, budget, 1);
        assert!(
            ga.best_report.score() >= rs.best_report.score(),
            "GA {:?} vs RS {:?}",
            ga.best_report,
            rs.best_report
        );
    }

    #[test]
    fn seeded_start_is_used() {
        let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(4);
        // First find a good schedule, then reuse it as seed with a tiny
        // budget: the result can only be at least as good.
        let good = GeneticAlgorithm::default().schedule(&problem, Budget::evaluations(4_000), 5);
        let reseeded = GeneticAlgorithm::default().schedule_from(
            &problem,
            Budget::evaluations(100),
            6,
            Some(good.best.clone()),
        );
        assert!(reseeded.best_report.score() >= good.best_report.score() - 1e-12);
    }

    #[test]
    fn history_is_monotone() {
        let problem = ProblemGenerator::new(6, SampleSizeTier::Low).generate(5);
        let result = GeneticAlgorithm::default().schedule(&problem, Budget::evaluations(2_000), 2);
        assert!(result.history.windows(2).all(|w| w[0].1 < w[1].1));
    }
}
