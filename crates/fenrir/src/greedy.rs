//! Greedy earliest-fit construction.
//!
//! A deterministic constructive heuristic: experiments are placed one by
//! one at the earliest start where a conflict-free, capacity-respecting
//! run can collect the required samples. It serves two roles:
//!
//! 1. as a cheap baseline scheduler ([`Greedy`]), and
//! 2. as a **population seed** for the genetic algorithm — on tight
//!    instances (the 40-experiment, high-sample-size regime of Figure 3.5)
//!    random initial populations rarely contain a valid individual, and the
//!    search spends its budget repairing instead of optimizing.

use crate::problem::Problem;
use crate::runner::{Budget, Evaluator, Scheduler, SearchResult};
use crate::schedule::{Plan, Schedule};
use cex_core::experiment::ExperimentId;
use cex_core::users::GroupId;

/// Deterministic greedy earliest-fit scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Greedy;

impl Scheduler for Greedy {
    fn name(&self) -> &'static str {
        "GR"
    }

    fn schedule_from(
        &self,
        problem: &Problem,
        budget: Budget,
        _seed: u64,
        initial: Option<Schedule>,
    ) -> SearchResult {
        let mut ev = Evaluator::new(problem, budget);
        if let Some(s) = initial {
            ev.eval(&s);
        }
        if ev.has_budget() {
            ev.eval(&greedy_schedule(problem));
        }
        ev.finish()
    }
}

/// Builds a schedule by placing experiments earliest-first.
///
/// Placement order: by earliest permissible start, then by required sample
/// size descending (hard experiments claim their window first among
/// same-release peers). For each experiment the heuristic tries its
/// preferred groups first, then all groups, at the maximum traffic share;
/// if no conflict-free, capacity-respecting window exists it falls back to
/// a best-effort plan at the earliest start (which the caller's repair/
/// search passes can still improve).
pub fn greedy_schedule(problem: &Problem) -> Schedule {
    let n = problem.len();
    let horizon = problem.horizon();
    let all_groups: Vec<GroupId> = (0..problem.population().len()).map(GroupId).collect();

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|a, b| {
        let ea = problem.experiment(ExperimentId(*a));
        let eb = problem.experiment(ExperimentId(*b));
        ea.earliest_start_slot
            .cmp(&eb.earliest_start_slot)
            .then(
                eb.required_sample_size
                    .partial_cmp(&ea.required_sample_size)
                    .expect("sample sizes are finite"),
            )
            .then(a.cmp(b))
    });

    // Start from trivially-bounded placeholder plans so the partial
    // schedule is always well-formed for conflict/capacity queries.
    let mut plans: Vec<Plan> = (0..n)
        .map(|i| {
            let e = problem.experiment(ExperimentId(i));
            Plan::new(
                e.earliest_start_slot.min(horizon - 1),
                e.min_duration_slots.min(horizon),
                e.min_traffic_share,
                vec![GroupId(0)],
            )
        })
        .collect();
    let mut placed: Vec<bool> = vec![false; n];

    for idx in order {
        let id = ExperimentId(idx);
        let e = problem.experiment(id);
        let candidate_groups: Vec<Vec<GroupId>> = if e.preferred_groups.is_empty() {
            vec![all_groups.clone()]
        } else {
            vec![e.preferred_groups.clone(), all_groups.clone()]
        };
        let mut chosen: Option<Plan> = None;
        'groups: for groups in &candidate_groups {
            for start in e.earliest_start_slot..horizon.saturating_sub(e.min_duration_slots) {
                if let Some(plan) = try_place(problem, id, start, groups, &plans, &placed) {
                    chosen = Some(plan);
                    break 'groups;
                }
            }
        }
        let plan = chosen.unwrap_or_else(|| {
            // Best effort: earliest start, maximal resources.
            let duration = problem
                .max_duration(id)
                .min(horizon.saturating_sub(e.earliest_start_slot))
                .max(e.min_duration_slots);
            Plan::new(e.earliest_start_slot, duration, e.max_traffic_share, all_groups.clone())
        });
        plans[idx] = plan;
        placed[idx] = true;
    }
    Schedule::new(plans)
}

/// Attempts to place experiment `id` starting at `start` on `groups`,
/// extending the duration until the sample size is met. Returns `None`
/// when the window cannot satisfy samples, conflicts, or capacity.
fn try_place(
    problem: &Problem,
    id: ExperimentId,
    start: usize,
    groups: &[GroupId],
    plans: &[Plan],
    placed: &[bool],
) -> Option<Plan> {
    let e = problem.experiment(id);
    let horizon = problem.horizon();
    let share = e.max_traffic_share;
    let max_duration = problem.max_duration(id);

    // Extend until the samples are collected.
    let mut collected = 0.0;
    let mut duration = 0usize;
    while collected < e.required_sample_size {
        let slot = start + duration;
        if slot >= horizon || duration >= max_duration {
            return None;
        }
        for g in groups {
            collected += share * problem.traffic().available(slot, *g);
        }
        duration += 1;
    }
    let duration = duration.max(e.min_duration_slots);
    if start + duration > horizon || duration > max_duration {
        return None;
    }
    let plan = Plan::new(start, duration, share, groups.to_vec());

    // Conflicts with already-placed experiments.
    for (other, other_plan) in plans.iter().enumerate() {
        if !placed[other] || other == id.0 {
            continue;
        }
        if problem.conflicts(id, ExperimentId(other))
            && plan.overlaps_in_time(other_plan)
            && plan.shares_group_with(other_plan)
        {
            return None;
        }
    }
    // Capacity: total share per (slot, group) must stay ≤ 1.
    for slot in plan.start_slot..plan.end_slot() {
        for g in groups {
            let allocated: f64 = plans
                .iter()
                .enumerate()
                .filter(|(other, p)| {
                    placed[*other]
                        && *other != id.0
                        && p.start_slot <= slot
                        && slot < p.end_slot()
                        && p.groups.contains(g)
                })
                .map(|(_, p)| p.traffic_share)
                .sum();
            if allocated + share > 1.0 + 1e-9 {
                return None;
            }
        }
    }
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;
    use crate::generator::{ProblemGenerator, SampleSizeTier};

    #[test]
    fn greedy_is_valid_on_easy_instances() {
        for seed in 0..5 {
            let problem = ProblemGenerator::new(10, SampleSizeTier::Low).generate(seed);
            let schedule = greedy_schedule(&problem);
            assert!(
                constraints::is_valid(&problem, &schedule),
                "seed {seed}: {:?}",
                constraints::check(&problem, &schedule)
            );
        }
    }

    #[test]
    fn greedy_handles_tight_instances_mostly() {
        let mut valid = 0;
        for seed in 0..5 {
            let problem = ProblemGenerator::new(40, SampleSizeTier::High).generate(seed);
            let schedule = greedy_schedule(&problem);
            if constraints::is_valid(&problem, &schedule) {
                valid += 1;
            }
        }
        assert!(valid >= 3, "greedy valid on only {valid}/5 tight instances");
    }

    #[test]
    fn greedy_is_deterministic() {
        let problem = ProblemGenerator::new(12, SampleSizeTier::Medium).generate(3);
        assert_eq!(greedy_schedule(&problem), greedy_schedule(&problem));
    }

    #[test]
    fn greedy_scheduler_reports_through_the_harness() {
        let problem = ProblemGenerator::new(8, SampleSizeTier::Low).generate(4);
        let result = Greedy.schedule(&problem, Budget::evaluations(10), 1);
        assert_eq!(result.evaluations, 1);
        assert!(result.best_report.is_valid());
    }

    #[test]
    fn preferred_groups_are_honored_when_feasible() {
        let problem = ProblemGenerator::new(6, SampleSizeTier::Low).generate(5);
        let schedule = greedy_schedule(&problem);
        for i in 0..problem.len() {
            let id = ExperimentId(i);
            let e = problem.experiment(id);
            if e.preferred_groups.is_empty() {
                continue;
            }
            let plan = schedule.plan(id);
            // Low-tier instances always fit preferred groups.
            assert!(
                plan.groups.iter().all(|g| e.preferred_groups.contains(g)),
                "{}: {:?} vs preferred {:?}",
                e.name,
                plan.groups,
                e.preferred_groups
            );
        }
    }
}
