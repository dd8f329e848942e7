//! Random sampling baseline (Section 3.5.2).
//!
//! Draws independent random schedules (repaired, like all algorithms in
//! the comparison, so the baselines are not handicapped by trivially
//! invalid candidates) and keeps the best. The weakest but cheapest
//! comparator — its gap to the GA is what Figures 3.4 and 3.5 show.

use crate::encoding;
use crate::problem::Problem;
use crate::runner::{Budget, Evaluator, Scheduler, SearchResult};
use crate::schedule::Schedule;
use cex_core::rng::{sub_seed, SplitMix64};

/// Random sampling of repaired schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RandomSampling;

impl Scheduler for RandomSampling {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult {
        let mut rng = SplitMix64::new(sub_seed(seed, 0x25));
        let mut ev = Evaluator::new(problem, budget);
        if let Some(s) = initial {
            ev.eval(&s);
        }
        while ev.has_budget() {
            ev.eval(&encoding::repaired_random(problem, &mut rng));
        }
        ev.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{ProblemGenerator, SampleSizeTier};

    #[test]
    fn sampling_exhausts_budget() {
        let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(1);
        let result = RandomSampling.schedule(&problem, Budget::evaluations(500), 1);
        assert_eq!(result.evaluations, 500);
    }
}
