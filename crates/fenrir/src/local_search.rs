//! Restarting hill-climber baseline (Section 3.5.3).
//!
//! From a (repaired) random start, the search repeatedly mutates the
//! incumbent and accepts strictly improving neighbors. After a run of
//! non-improving neighbors the climber restarts from a fresh random
//! schedule, which keeps it competitive on rugged instances while staying
//! a genuinely local method.

use crate::encoding;
use crate::problem::Problem;
use crate::runner::{Budget, Evaluator, Scheduler, SearchResult};
use crate::schedule::Schedule;
use cex_core::rng::{sub_seed, SplitMix64};

/// Consecutive non-improving neighbors tolerated before a restart.
const STALL_LIMIT: u32 = 200;

/// Restarting hill climber; neighbors are greedily repaired before
/// evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LocalSearch;

impl Scheduler for LocalSearch {
    fn name(&self) -> &'static str {
        "LS"
    }

    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult {
        let mut rng = SplitMix64::new(sub_seed(seed, 0x15));
        let mut ev = Evaluator::new(problem, budget);

        let current = initial.unwrap_or_else(|| encoding::repaired_random(problem, &mut rng));
        // The incumbent lives in the evaluator's incremental state:
        // neighbors are scored via `eval_diff` (re-scoring only the plans
        // the mutation/repair touched) and rejected ones via `undo_last`.
        let mut current_score = ev.eval_diff(&current).score();
        let mut stall = 0u32;

        while ev.has_budget() {
            let mut neighbor = ev.current().clone();
            encoding::mutate(problem, &mut neighbor, &mut rng);
            encoding::repair(problem, &mut neighbor, &mut rng);
            let score = ev.eval_diff(&neighbor).score();
            if score > current_score {
                current_score = score;
                stall = 0;
            } else {
                ev.undo_last();
                stall += 1;
                if stall >= STALL_LIMIT {
                    // Restart from a fresh random schedule.
                    let s = encoding::repaired_random(problem, &mut rng);
                    if ev.has_budget() {
                        current_score = ev.eval_diff(&s).score();
                    }
                    stall = 0;
                }
            }
        }
        ev.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ProblemGenerator, SampleSizeTier};

    #[test]
    fn local_search_improves_over_its_start() {
        let problem = ProblemGenerator::new(8, SampleSizeTier::Medium).generate(1);
        let result = LocalSearch.schedule(&problem, Budget::evaluations(2_000), 1);
        // At least one improvement after the initial evaluation.
        assert!(result.history.len() >= 2, "history {:?}", result.history);
    }
}
