//! The algorithm harness: common trait, evaluation budgets, results.
//!
//! The paper compares its genetic algorithm against random sampling, local
//! search, and simulated annealing on (1) fitness at a fixed search effort
//! and (2) execution time (Sections 3.6.2–3.6.4). To make those
//! comparisons honest all algorithms run through this harness: the
//! [`Evaluator`] counts every fitness evaluation against a shared
//! [`Budget`], records the best-so-far trajectory, and measures wall time.

use crate::fitness::{self, FitnessReport};
use crate::incremental::IncrementalState;
use crate::problem::Problem;
use crate::schedule::Schedule;
use std::time::{Duration, Instant};

/// Search budget, expressed in fitness evaluations (the dominant cost).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum number of schedule evaluations, at least one.
    pub(crate) max_evaluations: u64,
}

impl Budget {
    /// A budget of `n` evaluations.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero: every search evaluates at least its initial
    /// candidate, so a zero budget is a harness bug.
    pub fn evaluations(n: u64) -> Self {
        assert!(n > 0, "a zero evaluation budget cannot score even one schedule");
        Budget { max_evaluations: n }
    }
}

/// Outcome of one search run.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// The best schedule found.
    pub best: Schedule,
    /// Its fitness report.
    pub best_report: FitnessReport,
    /// Evaluations actually spent.
    pub evaluations: u64,
    /// Wall-clock time of the search.
    pub wall: Duration,
    /// Best-so-far trajectory: `(evaluations, score)` at each improvement.
    pub history: Vec<(u64, f64)>,
}

/// A scheduling algorithm.
pub trait Scheduler {
    /// Short identifier, e.g. `"GA"`.
    fn name(&self) -> &'static str;

    /// Runs the search from scratch.
    fn schedule(&self, problem: &Problem, budget: Budget, seed: u64) -> SearchResult {
        self.schedule_from(problem, budget, seed, None)
    }

    /// Runs the search seeded with an initial schedule (used when
    /// reevaluating an existing schedule, Section 3.6.4).
    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult;
}

/// Budgeted fitness evaluator shared by all algorithms.
///
/// Two scoring paths share one budget and one best-so-far trajectory:
/// [`eval`](Self::eval) scores any schedule from scratch, and
/// [`eval_diff`](Self::eval_diff) re-scores an incumbent that changes a few
/// plans at a time. Each is faster on some workloads, so both stay.
#[derive(Debug)]
pub struct Evaluator<'a> {
    problem: &'a Problem,
    budget: Budget,
    evaluations: u64,
    best: Option<(Schedule, FitnessReport)>,
    history: Vec<(u64, f64)>,
    started: Instant,
    /// The incumbent of [`eval_diff`](Self::eval_diff), seeded by its first
    /// call.
    inc: Option<IncrementalState>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator.
    pub fn new(problem: &'a Problem, budget: Budget) -> Self {
        Evaluator {
            problem,
            budget,
            evaluations: 0,
            best: None,
            history: Vec::new(),
            started: Instant::now(),
            inc: None,
        }
    }

    /// The problem under evaluation.
    pub fn problem(&self) -> &Problem {
        self.problem
    }

    /// `true` while evaluations remain in the budget.
    pub fn has_budget(&self) -> bool {
        self.evaluations < self.budget.max_evaluations
    }

    /// Evaluations spent so far.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Evaluations left in the budget.
    pub fn remaining(&self) -> u64 {
        self.budget.max_evaluations.saturating_sub(self.evaluations)
    }

    /// Consumes one budget unit and folds `report` into the best-so-far
    /// trajectory. Both evaluation paths funnel through here so accounting
    /// is identical regardless of how the score was produced.
    ///
    /// # Panics
    ///
    /// Panics when the budget is already spent: a search that evaluates
    /// past it is a harness bug.
    fn account(&mut self, schedule: &Schedule, report: FitnessReport) -> FitnessReport {
        assert!(self.has_budget(), "a search evaluated past its budget");
        self.evaluations += 1;
        let score = report.score();
        let improved = self.best.as_ref().map(|(_, b)| score > b.score()).unwrap_or(true);
        if improved {
            self.best = Some((schedule.clone(), report));
            self.history.push((self.evaluations, score));
        }
        report
    }

    /// Evaluates a schedule from scratch, consuming one budget unit and
    /// tracking the best-so-far.
    ///
    /// # Panics
    ///
    /// Panics when the budget is spent.
    pub fn eval(&mut self, schedule: &Schedule) -> FitnessReport {
        let report = fitness::evaluate(self.problem, schedule);
        self.account(schedule, report)
    }

    /// Makes `candidate` the incumbent, re-scoring only the plans that
    /// differ from the previous one in O(degree + plan span) each; the
    /// first call scores it fully. Consumes one budget unit; revert with
    /// [`undo_last`](Self::undo_last).
    ///
    /// # Panics
    ///
    /// Panics when the budget is spent.
    pub fn eval_diff(&mut self, candidate: &Schedule) -> FitnessReport {
        let report = match &mut self.inc {
            Some(state) => state.eval_diff(self.problem, candidate),
            None => {
                self.inc.insert(IncrementalState::new(self.problem, candidate.clone())).report()
            }
        };
        self.account(candidate, report)
    }

    /// Reverts the last [`eval_diff`](Self::eval_diff), restoring the
    /// previous incumbent exactly. Does not refund budget.
    ///
    /// # Panics
    ///
    /// Panics without a prior [`eval_diff`](Self::eval_diff).
    pub fn undo_last(&mut self) {
        let problem = self.problem;
        self.inc.as_mut().expect("undo_last requires a prior eval_diff").undo(problem);
    }

    /// The incumbent of [`eval_diff`](Self::eval_diff).
    ///
    /// # Panics
    ///
    /// Panics without a prior [`eval_diff`](Self::eval_diff).
    pub fn current(&self) -> &Schedule {
        self.inc.as_ref().expect("current requires a prior eval_diff").schedule()
    }

    /// Finalizes into a [`SearchResult`].
    ///
    /// # Panics
    ///
    /// Panics when nothing was evaluated — every algorithm evaluates at
    /// least its initial candidate.
    pub fn finish(self) -> SearchResult {
        let (best, best_report) = self.best.expect("search evaluated at least one schedule");
        SearchResult {
            best,
            best_report,
            evaluations: self.evaluations,
            wall: self.started.elapsed(),
            history: self.history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding;
    use crate::problem::ExperimentRequest;
    use cex_core::rng::SplitMix64;
    use cex_core::traffic::TrafficProfile;
    use cex_core::users::{Population, UserGroup};

    fn tiny_problem() -> Problem {
        let pop = Population::new(vec![UserGroup::new("g", 1_000)]).unwrap();
        let traffic = TrafficProfile::from_matrix(20, 1, vec![100.0; 20]).unwrap();
        Problem::new(vec![ExperimentRequest::new("e", "s", 50.0)], pop, traffic).unwrap()
    }

    #[test]
    fn evaluator_counts_and_tracks_best() {
        let p = tiny_problem();
        let mut rng = SplitMix64::new(1);
        let mut ev = Evaluator::new(&p, Budget::evaluations(10));
        let mut best_score = f64::NEG_INFINITY;
        for _ in 0..10 {
            let s = encoding::random_schedule(&p, &mut rng);
            let r = ev.eval(&s);
            best_score = best_score.max(r.score());
        }
        assert!(!ev.has_budget());
        assert_eq!(ev.evaluations(), 10);
        let result = ev.finish();
        assert!((result.best_report.score() - best_score).abs() < 1e-12);
        assert!(!result.history.is_empty());
        // History scores are strictly increasing.
        assert!(result.history.windows(2).all(|w| w[0].1 < w[1].1));
        assert_eq!(result.evaluations, 10);
    }

    #[test]
    #[should_panic(expected = "past its budget")]
    fn evaluating_past_the_budget_panics() {
        let p = tiny_problem();
        let s = encoding::random_schedule(&p, &mut SplitMix64::new(1));
        let mut ev = Evaluator::new(&p, Budget::evaluations(1));
        ev.eval(&s);
        ev.eval_diff(&s);
    }

    #[test]
    #[should_panic(expected = "at least one schedule")]
    fn finish_without_eval_panics() {
        let p = tiny_problem();
        let ev = Evaluator::new(&p, Budget::evaluations(1));
        let _ = ev.finish();
    }
}
