//! Incremental fitness evaluation: re-score only what a move touched.
//!
//! Single-plan moves are the workhorse of local search, simulated
//! annealing, and GA mutation, yet the seed evaluator re-checked the whole
//! schedule — every experiment, every conflict pair, every capacity
//! boundary — for each one. [`IncrementalState`] maintains the evaluated
//! schedule together with enough derived state to re-score a move in
//! O(degree + plan span) instead of O(n² + boundaries × groups × n):
//!
//! - per-experiment weighted fitness and violation counts (only the moved
//!   experiment is re-scored),
//! - the set of conflicting pairs currently overlapping (only the moved
//!   experiment's conflict neighbors are re-tested),
//! - per-slot active-plan lists, boundary multiplicities, and
//!   over-capacity cell flags (only slots inside the old/new plan spans and
//!   the four endpoint slots are touched).
//!
//! # Exactness
//!
//! Results are **bit-identical** to a full [`fitness::evaluate`] of the
//! same schedule — the differential test suite asserts `f64::to_bits`
//! equality across random move sequences. Two rules make that hold:
//!
//! 1. no floating-point accumulator is ever adjusted in place (`+=` drift
//!    would diverge from a fresh evaluation): touched quantities are
//!    recomputed from scratch via the *same* shared functions
//!    ([`fitness::experiment_fitness`], the capacity sum in plan-index
//!    order matching [`Schedule::allocated_share`]);
//! 2. the final raw fitness is re-summed over experiments in index order
//!    on every report, through the one fold [`fitness::raw_fitness`] uses.

use crate::constraints;
use crate::fitness::{self, FitnessReport};
use crate::problem::Problem;
use crate::schedule::{Plan, Schedule};
use cex_core::experiment::ExperimentId;
use cex_core::users::GroupId;
use std::collections::HashSet;

/// Incrementally maintained evaluation state of one schedule.
///
/// Created by [`IncrementalState::new`] (one full evaluation), then updated
/// move by move via [`eval_move`](Self::eval_move) /
/// [`eval_diff`](Self::eval_diff), with [`undo`](Self::undo) reverting the
/// last of either. Most callers use it through
/// [`Evaluator`](crate::runner::Evaluator), which adds budget accounting.
#[derive(Debug, Clone)]
pub struct IncrementalState {
    schedule: Schedule,
    horizon: usize,
    groups: usize,
    /// Weighted per-experiment fitness (`fitness::experiment_fitness`).
    exp_fit: Vec<f64>,
    /// Per-experiment violation counts (bounds, sample size, …).
    exp_viol: Vec<usize>,
    /// Conflicting pairs `(a, b)` with `a < b` currently overlapping in
    /// time on a shared group.
    pairs: HashSet<(usize, usize)>,
    /// Per slot: plan indices active in that slot, sorted ascending (the
    /// summation order of `Schedule::allocated_share`).
    active: Vec<Vec<usize>>,
    /// Per slot: how many plan endpoints (start or exclusive end) land on
    /// it. A slot participates in the capacity check iff this is > 0.
    boundary_count: Vec<u32>,
    /// Per (slot, group) cell, row-major: allocation exceeds capacity.
    cell_over: Vec<bool>,
    /// Per slot: number of over-capacity cells.
    slot_over: Vec<u32>,
    /// Σ `slot_over[s]` over slots with `boundary_count[s] > 0` — the
    /// number of `CapacityExceeded` violations a full check would report.
    cap_count: usize,
    /// Plans displaced by the last `eval_move`/`eval_diff`, for `undo`.
    undo: Vec<(ExperimentId, Plan)>,
}

/// Allocated share at one slot for one group, summed over the slot's
/// active plans in plan-index order — the exact float-summation order of
/// [`Schedule::allocated_share`].
fn allocated_at(schedule: &Schedule, active: &[usize], group: GroupId) -> f64 {
    let mut sum = 0.0;
    for &pi in active {
        let p = schedule.plan(ExperimentId(pi));
        if p.groups.contains(&group) {
            sum += p.traffic_share;
        }
    }
    sum
}

impl IncrementalState {
    /// Builds the state with one full evaluation pass.
    ///
    /// # Panics
    ///
    /// Panics when the schedule does not cover exactly the problem's
    /// experiments.
    pub fn new(problem: &Problem, schedule: Schedule) -> Self {
        assert_eq!(
            schedule.len(),
            problem.len(),
            "schedule must cover exactly the problem's experiments"
        );
        let n = problem.len();
        let horizon = problem.horizon();
        let groups = problem.population().len();

        let mut exp_fit = Vec::with_capacity(n);
        let mut exp_viol = Vec::with_capacity(n);
        for i in 0..n {
            let id = ExperimentId(i);
            exp_fit.push(fitness::experiment_fitness(problem, &schedule, id));
            exp_viol.push(constraints::experiment_violation_count(problem, &schedule, id));
        }

        let mut pairs = HashSet::new();
        for i in 0..n {
            let a = ExperimentId(i);
            for &b in problem.conflict_neighbors(a) {
                if b.0 > i && constraints::conflict_overlap(problem, &schedule, a, b) {
                    pairs.insert((i, b.0));
                }
            }
        }

        let mut active: Vec<Vec<usize>> = vec![Vec::new(); horizon];
        let mut boundary_count = vec![0u32; horizon];
        for (i, plan) in schedule.plans().iter().enumerate() {
            let (lo, hi) = (plan.start_slot.min(horizon), plan.end_slot().min(horizon));
            for slot_active in active[lo..hi].iter_mut() {
                slot_active.push(i);
            }
            for e in [plan.start_slot, plan.end_slot()] {
                if e < horizon {
                    boundary_count[e] += 1;
                }
            }
        }

        let mut cell_over = vec![false; horizon * groups];
        let mut slot_over = vec![0u32; horizon];
        let mut cap_count = 0;
        for s in 0..horizon {
            for g in 0..groups {
                if allocated_at(&schedule, &active[s], GroupId(g)) > 1.0 + constraints::EPS {
                    cell_over[s * groups + g] = true;
                    slot_over[s] += 1;
                }
            }
            if boundary_count[s] > 0 {
                cap_count += slot_over[s] as usize;
            }
        }

        IncrementalState {
            schedule,
            horizon,
            groups,
            exp_fit,
            exp_viol,
            pairs,
            active,
            boundary_count,
            cell_over,
            slot_over,
            cap_count,
            undo: Vec::new(),
        }
    }

    /// The currently evaluated schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// The fitness report of the current schedule, assembled from the
    /// maintained state. Bit-identical to a full evaluation.
    pub fn report(&self) -> FitnessReport {
        let raw = fitness::mean_fitness(self.exp_fit.iter().copied());
        let violations = self.exp_viol.iter().sum::<usize>() + self.pairs.len() + self.cap_count;
        FitnessReport { raw, violations }
    }

    /// Replaces the plan of `id` and re-scores only what the move touched.
    /// The move can be reverted with [`undo`](Self::undo).
    pub fn eval_move(
        &mut self,
        problem: &Problem,
        id: ExperimentId,
        new_plan: Plan,
    ) -> FitnessReport {
        self.undo.clear();
        self.undo.push((id, self.schedule.plan(id).clone()));
        self.apply(problem, id, new_plan);
        self.report()
    }

    /// Diffs `candidate` against the current schedule and applies one move
    /// per changed plan. The whole diff is reverted by one
    /// [`undo`](Self::undo). Cost: O(n) plan comparisons plus
    /// O(degree + span) per changed plan.
    pub fn eval_diff(&mut self, problem: &Problem, candidate: &Schedule) -> FitnessReport {
        assert_eq!(
            candidate.len(),
            self.schedule.len(),
            "candidate must cover exactly the problem's experiments"
        );
        self.undo.clear();
        for i in 0..candidate.len() {
            let id = ExperimentId(i);
            if candidate.plan(id) != self.schedule.plan(id) {
                self.undo.push((id, self.schedule.plan(id).clone()));
                self.apply(problem, id, candidate.plan(id).clone());
            }
        }
        self.report()
    }

    /// Reverts the last [`eval_move`](Self::eval_move) /
    /// [`eval_diff`](Self::eval_diff). A no-op when nothing is pending.
    /// State restoration is exact: every touched quantity is recomputed
    /// through the same code path the forward move used.
    pub fn undo(&mut self, problem: &Problem) {
        let moves = std::mem::take(&mut self.undo);
        for (id, plan) in moves.into_iter().rev() {
            self.apply(problem, id, plan);
        }
    }

    /// Applies one plan replacement, updating all derived state.
    fn apply(&mut self, problem: &Problem, id: ExperimentId, new_plan: Plan) {
        let h = self.horizon;
        let old = self.schedule.plan(id).clone();

        // Clipped spans of the old and new plan.
        let os = old.start_slot.min(h)..old.end_slot().min(h);
        let ns = new_plan.start_slot.min(h)..new_plan.end_slot().min(h);

        // When share and groups are unchanged, the allocation in slots the
        // plan covers both before and after the move is untouched — only
        // the span symmetric difference needs re-scoring. This makes the
        // common shift/resize moves O(|span delta|) instead of O(span).
        let same_alloc = old.traffic_share.to_bits() == new_plan.traffic_share.to_bits()
            && old.groups == new_plan.groups;

        // Slots whose (slot, group) allocation changes.
        let mut alloc_dirty: Vec<usize> = Vec::new();
        if same_alloc {
            alloc_dirty.extend(os.clone().filter(|s| !ns.contains(s)));
        } else {
            alloc_dirty.extend(os.clone());
        }
        alloc_dirty.extend(ns.clone().filter(|s| !os.contains(s)));

        // Slots whose capacity contribution must be re-based: allocation
        // changes and/or boundary membership changes (the four endpoint
        // slots — an exclusive end slot sits outside its plan's span).
        let mut dirty = alloc_dirty.clone();
        for e in [old.start_slot, old.end_slot(), new_plan.start_slot, new_plan.end_slot()] {
            if e < h && !dirty.contains(&e) {
                dirty.push(e);
            }
        }

        // Phase 1: retire the dirty slots' capacity contributions while the
        // old boundary counts still apply.
        for &s in &dirty {
            if self.boundary_count[s] > 0 {
                self.cap_count -= self.slot_over[s] as usize;
            }
        }

        // Phase 2: move the plan's endpoints in the boundary multiset.
        for e in [old.start_slot, old.end_slot()] {
            if e < h {
                self.boundary_count[e] -= 1;
            }
        }
        for e in [new_plan.start_slot, new_plan.end_slot()] {
            if e < h {
                self.boundary_count[e] += 1;
            }
        }

        // Phase 3: swap the plan and update the per-slot active lists
        // (kept sorted so capacity sums stay in plan-index order). Slots
        // covered before and after the move keep their membership.
        for s in os.clone() {
            if ns.contains(&s) {
                continue;
            }
            let list = &mut self.active[s];
            let pos = list.binary_search(&id.0).expect("moved plan active in its own span");
            list.remove(pos);
        }
        *self.schedule.plan_mut(id) = new_plan;
        let new_ref = self.schedule.plan(id);
        for s in ns.clone() {
            if os.contains(&s) {
                continue;
            }
            if let Err(pos) = self.active[s].binary_search(&id.0) {
                self.active[s].insert(pos, id.0);
            }
        }

        // Phase 4: recompute over-capacity flags for the affected
        // (slot, group) cells — fresh sums, never adjusted in place.
        let mut affected: Vec<GroupId> = old.groups.clone();
        for g in &new_ref.groups {
            if !affected.contains(g) {
                affected.push(*g);
            }
        }
        for &s in &alloc_dirty {
            for &g in &affected {
                let over =
                    allocated_at(&self.schedule, &self.active[s], g) > 1.0 + constraints::EPS;
                let cell = s * self.groups + g.0;
                if over != self.cell_over[cell] {
                    self.cell_over[cell] = over;
                    if over {
                        self.slot_over[s] += 1;
                    } else {
                        self.slot_over[s] -= 1;
                    }
                }
            }
        }

        // Phase 5: restore the dirty slots' contributions under the new
        // boundary counts and cell flags.
        for &s in &dirty {
            if self.boundary_count[s] > 0 {
                self.cap_count += self.slot_over[s] as usize;
            }
        }

        // Phase 6: re-score the moved experiment and its conflict edges.
        self.exp_fit[id.0] = fitness::experiment_fitness(problem, &self.schedule, id);
        self.exp_viol[id.0] = constraints::experiment_violation_count(problem, &self.schedule, id);
        for &j in problem.conflict_neighbors(id) {
            let key = if j.0 < id.0 { (j.0, id.0) } else { (id.0, j.0) };
            if constraints::conflict_overlap(problem, &self.schedule, id, j) {
                self.pairs.insert(key);
            } else {
                self.pairs.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::ExperimentRequest;
    use cex_core::traffic::TrafficProfile;
    use cex_core::users::{Population, UserGroup};

    fn problem() -> Problem {
        let pop =
            Population::new(vec![UserGroup::new("a", 100), UserGroup::new("b", 100)]).unwrap();
        let traffic = TrafficProfile::from_matrix(10, 2, vec![100.0; 20]).unwrap();
        let mut e0 = ExperimentRequest::new("e0", "svc", 50.0);
        e0.min_duration_slots = 2;
        e0.max_duration_slots = 6;
        e0.max_traffic_share = 0.5;
        let mut e1 = ExperimentRequest::new("e1", "svc", 50.0);
        e1.min_duration_slots = 2;
        e1.max_duration_slots = 6;
        e1.max_traffic_share = 0.5;
        Problem::new(vec![e0, e1], pop, traffic).unwrap()
    }

    fn assert_matches_full(problem: &Problem, state: &IncrementalState) {
        let inc = state.report();
        let full = fitness::evaluate(problem, state.schedule());
        assert_eq!(inc.raw.to_bits(), full.raw.to_bits(), "raw {} vs {}", inc.raw, full.raw);
        assert_eq!(inc.violations, full.violations);
    }

    #[test]
    fn seed_report_matches_full_evaluation() {
        let p = problem();
        let s = Schedule::new(vec![
            Plan::new(0, 4, 0.3, vec![GroupId(0)]),
            Plan::new(5, 4, 0.3, vec![GroupId(1)]),
        ]);
        let state = IncrementalState::new(&p, s);
        assert_matches_full(&p, &state);
    }

    #[test]
    fn moves_and_undo_track_full_evaluation() {
        let p = problem();
        let s = Schedule::new(vec![
            Plan::new(0, 4, 0.3, vec![GroupId(0)]),
            Plan::new(5, 4, 0.3, vec![GroupId(1)]),
        ]);
        let mut state = IncrementalState::new(&p, s);
        let before = state.report();

        // Move e1 on top of e0: conflict + capacity pressure.
        state.eval_move(&p, ExperimentId(1), Plan::new(1, 4, 0.9, vec![GroupId(0)]));
        assert_matches_full(&p, &state);

        state.undo(&p);
        assert_matches_full(&p, &state);
        let after = state.report();
        assert_eq!(before.raw.to_bits(), after.raw.to_bits());
        assert_eq!(before.violations, after.violations);
    }

    #[test]
    fn diff_applies_multiple_plans() {
        let p = problem();
        let s = Schedule::new(vec![
            Plan::new(0, 4, 0.3, vec![GroupId(0)]),
            Plan::new(5, 4, 0.3, vec![GroupId(1)]),
        ]);
        let mut state = IncrementalState::new(&p, s);
        let candidate = Schedule::new(vec![
            Plan::new(2, 5, 0.4, vec![GroupId(0), GroupId(1)]),
            Plan::new(0, 2, 0.1, vec![GroupId(1)]),
        ]);
        let report = state.eval_diff(&p, &candidate);
        let full = fitness::evaluate(&p, &candidate);
        assert_eq!(report.raw.to_bits(), full.raw.to_bits());
        assert_eq!(report.violations, full.violations);
        assert_eq!(state.schedule(), &candidate);
    }
}
