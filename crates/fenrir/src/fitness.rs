//! The fitness function (Section 3.4.3).
//!
//! Per experiment, three objectives in `0.0..=1.0`:
//!
//! - **duration** — experiments should not last longer than needed: `1.0`
//!   at the minimum duration, falling linearly to `0.0` at the maximum;
//! - **start time** — experiments should start as soon as possible: `1.0`
//!   at the earliest permissible slot, falling linearly towards the end of
//!   the horizon;
//! - **group coverage** — new features should be tested on preferred user
//!   groups if specified: the fraction of assigned groups that are
//!   preferred (`1.0` when no preference exists).
//!
//! The raw schedule fitness is the weighted mean over experiments, so the
//! **maximum attainable fitness is 1.0** — which is what "the GA reaches
//! 62% of the maximal fitness score" (Section 1.2.2) is measured against.
//! Invalid schedules are ranked below every valid one via a penalized
//! score, giving the search a gradient through infeasible regions.

use crate::constraints;
use crate::problem::Problem;
use crate::schedule::Schedule;
use cex_core::experiment::ExperimentId;

// Objective weights. The paper weights timeliness objectives above
// coverage; these reproduce that emphasis.
const DURATION_WEIGHT: f64 = 0.4;
const START_WEIGHT: f64 = 0.4;
const COVERAGE_WEIGHT: f64 = 0.2;
/// The weights' sum, in the order `(duration + start) + coverage`.
const TOTAL_WEIGHT: f64 = DURATION_WEIGHT + START_WEIGHT + COVERAGE_WEIGHT;

/// Fitness of one evaluated schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitnessReport {
    /// Raw objective value in `0.0..=1.0` (meaningful for valid schedules;
    /// the quantity reported as "% of maximal fitness").
    pub raw: f64,
    /// Number of constraint violations (`0` = valid).
    pub violations: usize,
}

impl FitnessReport {
    /// `true` when the schedule satisfies every constraint.
    pub fn is_valid(&self) -> bool {
        self.violations == 0
    }

    /// Total-order score for search: every valid schedule outranks every
    /// invalid one; within each class, higher raw fitness wins and (for
    /// invalid schedules) fewer violations win.
    pub fn score(&self) -> f64 {
        if self.violations == 0 {
            1.0 + self.raw
        } else {
            self.raw / (1.0 + self.violations as f64)
        }
    }
}

/// Evaluates one schedule.
pub fn evaluate(problem: &Problem, schedule: &Schedule) -> FitnessReport {
    let violations = constraints::check(problem, schedule).len();
    let raw = raw_fitness(problem, schedule);
    FitnessReport { raw, violations }
}

/// The raw (unconstrained) objective value in `0.0..=1.0`.
pub fn raw_fitness(problem: &Problem, schedule: &Schedule) -> f64 {
    mean_fitness((0..problem.len()).map(|i| experiment_fitness(problem, schedule, ExperimentId(i))))
}

/// The mean of per-experiment [`experiment_fitness`] values, each
/// normalized by the total weight, summed in index order. The full and the
/// incremental path both fold through here, so they agree to the bit.
pub(crate) fn mean_fitness(per_experiment: impl ExactSizeIterator<Item = f64>) -> f64 {
    let n = per_experiment.len();
    let mut sum = 0.0;
    for f in per_experiment {
        sum += f / TOTAL_WEIGHT;
    }
    sum / n as f64
}

/// Weighted (unnormalized) fitness of one experiment's plan.
pub fn experiment_fitness(problem: &Problem, schedule: &Schedule, id: ExperimentId) -> f64 {
    let e = problem.experiment(id);
    let plan = schedule.plan(id);
    let index = problem.index();
    let norms = index.norms(id);

    // Duration objective. A zero span marks the degenerate bounds the
    // index detected at build time (`max_duration <= min_duration_slots`).
    let f_duration = if norms.duration_span == 0.0 {
        1.0
    } else {
        let over = plan.duration_slots.saturating_sub(e.min_duration_slots) as f64;
        (1.0 - over / norms.duration_span).clamp(0.0, 1.0)
    };

    // Start-time objective.
    let f_start = if norms.start_span == 0.0 {
        1.0
    } else {
        let delay = plan.start_slot.saturating_sub(e.earliest_start_slot) as f64;
        (1.0 - delay / norms.start_span).clamp(0.0, 1.0)
    };

    // Coverage objective, via the O(1) preference mask.
    let f_coverage = if !index.has_preference(id) {
        1.0
    } else if plan.groups.is_empty() {
        0.0
    } else {
        let preferred = plan.groups.iter().filter(|g| index.is_preferred(id, **g)).count();
        preferred as f64 / plan.groups.len() as f64
    };

    DURATION_WEIGHT * f_duration + START_WEIGHT * f_start + COVERAGE_WEIGHT * f_coverage
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ExperimentRequest;
    use crate::schedule::Plan;
    use cex_core::traffic::TrafficProfile;
    use cex_core::users::{GroupId, Population, UserGroup};

    fn problem() -> Problem {
        let pop =
            Population::new(vec![UserGroup::new("a", 100), UserGroup::new("b", 100)]).unwrap();
        let traffic = TrafficProfile::from_matrix(20, 2, vec![100.0; 40]).unwrap();
        let mut e = ExperimentRequest::new("e0", "svc", 50.0);
        e.min_duration_slots = 2;
        e.max_duration_slots = 10;
        e.earliest_start_slot = 2;
        e.max_traffic_share = 0.5;
        e.preferred_groups = vec![GroupId(0)];
        Problem::new(vec![e], pop, traffic).unwrap()
    }

    #[test]
    fn ideal_plan_scores_one() {
        let p = problem();
        let s = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(0)])]);
        let report = evaluate(&p, &s);
        assert!(report.is_valid());
        assert!((report.raw - 1.0).abs() < 1e-12, "raw {}", report.raw);
        assert!(report.score() > 1.0);
    }

    #[test]
    fn longer_duration_lowers_fitness() {
        let p = problem();
        let short = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(0)])]);
        let long = Schedule::new(vec![Plan::new(2, 10, 0.3, vec![GroupId(0)])]);
        assert!(raw_fitness(&p, &short) > raw_fitness(&p, &long));
    }

    #[test]
    fn later_start_lowers_fitness() {
        let p = problem();
        let early = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(0)])]);
        let late = Schedule::new(vec![Plan::new(12, 2, 0.3, vec![GroupId(0)])]);
        assert!(raw_fitness(&p, &early) > raw_fitness(&p, &late));
    }

    #[test]
    fn non_preferred_groups_lower_coverage() {
        let p = problem();
        let preferred = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(0)])]);
        let mixed = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(0), GroupId(1)])]);
        let off = Schedule::new(vec![Plan::new(2, 2, 0.3, vec![GroupId(1)])]);
        let fp = raw_fitness(&p, &preferred);
        let fm = raw_fitness(&p, &mixed);
        let fo = raw_fitness(&p, &off);
        assert!(fp > fm && fm > fo, "{fp} {fm} {fo}");
    }

    #[test]
    fn valid_always_outranks_invalid() {
        let p = problem();
        // Valid but mediocre (late, long).
        let mediocre = Schedule::new(vec![Plan::new(10, 10, 0.5, vec![GroupId(0)])]);
        // Hmm: 10+10=20 = horizon, ok. Samples: 10×0.5×100=500 ≥ 50. Valid.
        let rv = evaluate(&p, &mediocre);
        assert!(rv.is_valid());
        // Invalid but objective-perfect (too little data).
        let invalid = Schedule::new(vec![Plan::new(2, 2, 0.01, vec![GroupId(0)])]);
        // Wait: min share default is 0.01 → in bounds; samples 2×0.01×100=2 < 50 → invalid.
        let ri = evaluate(&p, &invalid);
        assert!(!ri.is_valid());
        assert!(rv.score() > ri.score());
    }

    #[test]
    fn more_violations_score_lower() {
        let p = problem();
        let one = evaluate(&p, &Schedule::new(vec![Plan::new(2, 2, 0.01, vec![GroupId(0)])]));
        let two = evaluate(&p, &Schedule::new(vec![Plan::new(0, 2, 0.01, vec![GroupId(0)])]));
        assert_eq!(one.violations, 1);
        assert_eq!(two.violations, 2);
        assert!(one.score() > two.score());
    }

    #[test]
    fn raw_fitness_bounded() {
        let p = problem();
        for start in [0usize, 5, 15, 19] {
            for dur in [1usize, 5, 20] {
                let s = Schedule::new(vec![Plan::new(start, dur, 0.2, vec![GroupId(1)])]);
                let raw = raw_fitness(&p, &s);
                assert!((0.0..=1.0).contains(&raw), "raw {raw}");
            }
        }
    }
}
