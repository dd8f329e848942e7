//! Simulated annealing baseline (Section 3.5.4).
//!
//! Standard Metropolis acceptance over the same mutation neighborhood as
//! local search: improving neighbors are always accepted, degrading ones
//! with probability `exp(Δ/T)`. The temperature follows a geometric
//! schedule calibrated from the evaluation budget so the search freezes
//! exactly when the budget runs out.

use crate::encoding;
use crate::problem::Problem;
use crate::runner::{Budget, Evaluator, Scheduler, SearchResult};
use crate::schedule::Schedule;
use cex_core::rng::{sub_seed, SplitMix64};

/// Starting temperature, in score units (scores live in `0.0..=2.0`).
const INITIAL_TEMPERATURE: f64 = 0.25;
/// Temperature at budget exhaustion (freezing point).
const FINAL_TEMPERATURE: f64 = 1e-4;

/// Simulated annealing; neighbors are greedily repaired before evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimulatedAnnealing;

impl Scheduler for SimulatedAnnealing {
    fn name(&self) -> &'static str {
        "SA"
    }

    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult {
        let mut rng = SplitMix64::new(sub_seed(seed, 0x5A));
        let mut ev = Evaluator::new(problem, budget);

        let current = initial.unwrap_or_else(|| encoding::repaired_random(problem, &mut rng));
        // The incumbent lives in the evaluator's incremental state;
        // rejected neighbors are rolled back with `undo_last`.
        let mut current_score = ev.eval_diff(&current).score();

        // Geometric cooling: T(i) = T0 · α^i with α chosen so
        // T(budget) = T_final.
        let steps = budget.max_evaluations.max(2) as f64;
        let alpha = (FINAL_TEMPERATURE / INITIAL_TEMPERATURE).powf(1.0 / steps);
        let mut temperature = INITIAL_TEMPERATURE;

        while ev.has_budget() {
            let mut neighbor = ev.current().clone();
            encoding::mutate(problem, &mut neighbor, &mut rng);
            encoding::repair(problem, &mut neighbor, &mut rng);
            let score = ev.eval_diff(&neighbor).score();
            let delta = score - current_score;
            if delta >= 0.0 || rng.next_f64() < (delta / temperature).exp() {
                current_score = score;
            } else {
                ev.undo_last();
            }
            temperature = (temperature * alpha).max(FINAL_TEMPERATURE);
        }
        ev.finish()
    }
}
