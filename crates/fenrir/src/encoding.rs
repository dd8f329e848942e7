//! Chromosome representation and genetic operators (Figures 3.1 and 3.2).
//!
//! Fenrir uses *value encoding*: the chromosome of a schedule is the vector
//! of per-experiment plans themselves — `(start, duration, share, groups)`
//! per experiment — so decoding is the identity and every operator works on
//! domain values. This module provides:
//!
//! - random plan/schedule sampling (initial populations),
//! - point mutations on a single gene component,
//! - one-point and uniform crossover cutting at experiment boundaries,
//! - a best-effort **repair** operator. The paper observes that its
//!   "rather simple strategy of combining individuals leads to many
//!   invalid schedules" (Section 1.2.2); repair is our answer, and the
//!   `ablation_crossover` bench quantifies its effect.

use crate::problem::Problem;
use crate::schedule::{Plan, Schedule};
use cex_core::experiment::ExperimentId;
use cex_core::rng::SplitMix64;
use cex_core::users::GroupId;

/// Draws a uniform integer in `lo..=hi` via the generator's unbiased
/// bounded draw (a float-scaled modulo draw would over-weight low values).
fn uniform_usize(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    if hi <= lo {
        return lo;
    }
    lo + rng.next_index(hi - lo + 1)
}

/// Draws a uniform float in `lo..=hi`.
fn uniform_f64(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

/// Samples a random, bound-respecting plan for one experiment.
///
/// Preferred groups are chosen with high probability so the initial
/// population already leans towards coverage.
pub fn random_plan(problem: &Problem, id: ExperimentId, rng: &mut SplitMix64) -> Plan {
    let e = problem.experiment(id);
    let horizon = problem.horizon();
    let max_dur = problem.max_duration(id);
    let duration = uniform_usize(rng, e.min_duration_slots, max_dur);
    let latest_start = horizon.saturating_sub(duration).max(e.earliest_start_slot);
    let start = uniform_usize(rng, e.earliest_start_slot, latest_start);
    let share = uniform_f64(rng, e.min_traffic_share, e.max_traffic_share);
    let groups = random_groups(problem, id, rng);
    Plan::new(start, duration, share, groups)
}

/// Samples a non-empty group assignment, preferring preferred groups.
fn random_groups(problem: &Problem, id: ExperimentId, rng: &mut SplitMix64) -> Vec<GroupId> {
    let e = problem.experiment(id);
    let n = problem.population().len();
    if !e.preferred_groups.is_empty() && rng.next_f64() < 0.8 {
        // Non-empty random subset of the preferred groups.
        let mut groups: Vec<GroupId> =
            e.preferred_groups.iter().copied().filter(|_| rng.next_f64() < 0.7).collect();
        if groups.is_empty() {
            groups.push(e.preferred_groups[uniform_usize(rng, 0, e.preferred_groups.len() - 1)]);
        }
        groups
    } else {
        let mut groups: Vec<GroupId> =
            (0..n).map(GroupId).filter(|_| rng.next_f64() < 0.4).collect();
        if groups.is_empty() {
            groups.push(GroupId(uniform_usize(rng, 0, n - 1)));
        }
        groups
    }
}

/// Samples a full random schedule.
pub fn random_schedule(problem: &Problem, rng: &mut SplitMix64) -> Schedule {
    let plans =
        (0..problem.len()).map(|i| random_plan(problem, ExperimentId(i), rng)).collect::<Vec<_>>();
    Schedule::new(plans)
}

/// A [`random_schedule`] passed through [`repair`]: the starting point of
/// every baseline search.
pub fn repaired_random(problem: &Problem, rng: &mut SplitMix64) -> Schedule {
    let mut schedule = random_schedule(problem, rng);
    repair(problem, &mut schedule, rng);
    schedule
}

/// Mutates one random gene component of one random experiment in place.
pub fn mutate(problem: &Problem, schedule: &mut Schedule, rng: &mut SplitMix64) {
    let id = ExperimentId(uniform_usize(rng, 0, problem.len() - 1));
    mutate_experiment(problem, schedule, id, rng);
}

/// Mutates one random gene component of the given experiment in place.
pub fn mutate_experiment(
    problem: &Problem,
    schedule: &mut Schedule,
    id: ExperimentId,
    rng: &mut SplitMix64,
) {
    let e = problem.experiment(id);
    let horizon = problem.horizon();
    let max_dur = problem.max_duration(id);
    let n_groups = problem.population().len();
    let plan = schedule.plan_mut(id);
    match uniform_usize(rng, 0, 3) {
        0 => {
            // Shift start by up to ±10% of the horizon.
            let delta = ((horizon as f64 * 0.1).ceil() as i64).max(1);
            let shift = uniform_usize(rng, 0, (2 * delta) as usize) as i64 - delta;
            let latest = horizon.saturating_sub(plan.duration_slots).max(e.earliest_start_slot);
            let new_start =
                (plan.start_slot as i64 + shift).clamp(e.earliest_start_slot as i64, latest as i64);
            plan.start_slot = new_start as usize;
        }
        1 => {
            // Resize duration by up to ±25% of its allowed span.
            let span = (max_dur - e.min_duration_slots).max(1) as i64;
            let delta = (span / 4).max(1);
            let shift = uniform_usize(rng, 0, (2 * delta) as usize) as i64 - delta;
            let new_dur = (plan.duration_slots as i64 + shift)
                .clamp(e.min_duration_slots as i64, max_dur as i64);
            plan.duration_slots = new_dur as usize;
        }
        2 => {
            // Re-draw traffic share around the current value.
            let width = (e.max_traffic_share - e.min_traffic_share) * 0.25;
            let new_share = plan.traffic_share + uniform_f64(rng, -width, width);
            plan.traffic_share = new_share.clamp(e.min_traffic_share, e.max_traffic_share);
        }
        _ => {
            // Toggle one group, keeping the assignment non-empty.
            let g = GroupId(uniform_usize(rng, 0, n_groups - 1));
            if let Some(pos) = plan.groups.iter().position(|x| *x == g) {
                if plan.groups.len() > 1 {
                    plan.groups.remove(pos);
                }
            } else {
                plan.groups.push(g);
                plan.groups.sort_unstable();
            }
        }
    }
}

/// Crossover strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrossoverKind {
    /// Single cut at an experiment boundary (Figure 3.2) — the paper's
    /// strategy.
    OnePoint,
    /// Per-experiment coin flip; the ablation comparator.
    Uniform,
}

/// Produces two children by recombining two parents at experiment
/// boundaries.
///
/// # Panics
///
/// Panics when the parents cover different numbers of experiments.
pub fn crossover(
    a: &Schedule,
    b: &Schedule,
    kind: CrossoverKind,
    rng: &mut SplitMix64,
) -> (Schedule, Schedule) {
    assert_eq!(a.len(), b.len(), "parents must cover the same experiments");
    let n = a.len();
    let mut c1 = Vec::with_capacity(n);
    let mut c2 = Vec::with_capacity(n);
    match kind {
        CrossoverKind::OnePoint => {
            let cut = uniform_usize(rng, 1, n.saturating_sub(1).max(1));
            for i in 0..n {
                let id = ExperimentId(i);
                if i < cut {
                    c1.push(a.plan(id).clone());
                    c2.push(b.plan(id).clone());
                } else {
                    c1.push(b.plan(id).clone());
                    c2.push(a.plan(id).clone());
                }
            }
        }
        CrossoverKind::Uniform => {
            for i in 0..n {
                let id = ExperimentId(i);
                if rng.next_f64() < 0.5 {
                    c1.push(a.plan(id).clone());
                    c2.push(b.plan(id).clone());
                } else {
                    c1.push(b.plan(id).clone());
                    c2.push(a.plan(id).clone());
                }
            }
        }
    }
    (Schedule::new(c1), Schedule::new(c2))
}

/// Best-effort greedy repair towards validity.
///
/// Passes, in order: per-experiment bound clamping; sample-size recovery
/// (raise share, then extend duration, then add groups); conflict
/// resolution (push the later of two clashing runs past the earlier one,
/// or separate their groups); naive capacity relief (shrink the largest
/// shares in oversubscribed cells down to their minimum).
///
/// Repair does not guarantee validity — hard instances may stay invalid —
/// but it collapses the "many invalid schedules" problem the paper reports
/// for plain crossover.
pub fn repair(problem: &Problem, schedule: &mut Schedule, rng: &mut SplitMix64) {
    let horizon = problem.horizon();

    // Pass 1: clamp every plan into its own bounds.
    for i in 0..problem.len() {
        let id = ExperimentId(i);
        let e = problem.experiment(id);
        let max_dur = problem.max_duration(id);
        let plan = schedule.plan_mut(id);
        plan.duration_slots = plan.duration_slots.clamp(e.min_duration_slots, max_dur);
        let latest = horizon.saturating_sub(plan.duration_slots).max(e.earliest_start_slot);
        plan.start_slot = plan.start_slot.clamp(e.earliest_start_slot, latest);
        if plan.end_slot() > horizon {
            plan.duration_slots = horizon.saturating_sub(plan.start_slot).max(1);
        }
        plan.traffic_share = plan.traffic_share.clamp(e.min_traffic_share, e.max_traffic_share);
        if plan.groups.is_empty() {
            plan.groups = random_groups(problem, id, rng);
        }
        plan.groups.retain(|g| g.0 < problem.population().len());
        if plan.groups.is_empty() {
            plan.groups.push(GroupId(0));
        }
    }

    // Pass 2: sample-size recovery.
    for i in 0..problem.len() {
        let id = ExperimentId(i);
        let e = problem.experiment(id);
        let required = e.required_sample_size;
        if schedule.samples_collected(problem, id) >= required {
            continue;
        }
        // Raise share to the point that would meet the target (or the max).
        let current = schedule.samples_collected(problem, id);
        if current > 0.0 {
            let plan = schedule.plan_mut(id);
            let needed_share = plan.traffic_share * required / current;
            plan.traffic_share = needed_share.min(e.max_traffic_share).max(e.min_traffic_share);
        }
        // Extend duration slot by slot.
        let max_dur = problem.max_duration(id);
        while schedule.samples_collected(problem, id) < required {
            let plan = schedule.plan_mut(id);
            if plan.duration_slots < max_dur && plan.end_slot() < horizon {
                plan.duration_slots += 1;
            } else if plan.start_slot > e.earliest_start_slot && plan.duration_slots < max_dur {
                plan.start_slot -= 1;
                plan.duration_slots += 1;
            } else {
                break;
            }
        }
        // Add groups until covered or exhausted.
        let all = problem.population().len();
        while schedule.samples_collected(problem, id) < required {
            let plan = schedule.plan_mut(id);
            if plan.groups.len() >= all {
                break;
            }
            let missing = (0..all).map(GroupId).find(|g| !plan.groups.contains(g));
            match missing {
                Some(g) => {
                    plan.groups.push(g);
                    plan.groups.sort_unstable();
                }
                None => break,
            }
        }
    }

    // Pass 3: conflict resolution.
    for i in 0..problem.len() {
        for j in (i + 1)..problem.len() {
            let (a, b) = (ExperimentId(i), ExperimentId(j));
            if !problem.conflicts(a, b) {
                continue;
            }
            let (pa, pb) = (schedule.plan(a).clone(), schedule.plan(b).clone());
            if !(pa.overlaps_in_time(&pb) && pa.shares_group_with(&pb)) {
                continue;
            }
            // Prefer pushing the later-starting run after the earlier one.
            let (mover, anchor_end) = if pa.start_slot <= pb.start_slot {
                (b, pa.end_slot())
            } else {
                (a, pb.end_slot())
            };
            let e = problem.experiment(mover);
            let plan = schedule.plan_mut(mover);
            if anchor_end + plan.duration_slots <= horizon {
                plan.start_slot = anchor_end.max(e.earliest_start_slot);
            } else if problem.population().len() > 1 {
                // No room later: separate the groups instead.
                let other =
                    if mover == a { schedule.plan(b).clone() } else { schedule.plan(a).clone() };
                let plan = schedule.plan_mut(mover);
                let disjoint: Vec<GroupId> = (0..problem.population().len())
                    .map(GroupId)
                    .filter(|g| !other.groups.contains(g))
                    .collect();
                if !disjoint.is_empty() {
                    plan.groups = disjoint;
                }
            }
        }
    }

    // Pass 4: capacity relief — walk change boundaries, shrink the largest
    // shares first (never below an experiment's minimum).
    let mut boundaries: Vec<usize> = schedule
        .plans()
        .iter()
        .flat_map(|p| [p.start_slot, p.end_slot()])
        .filter(|s| *s < horizon)
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    for slot in boundaries {
        for g in 0..problem.population().len() {
            let group = GroupId(g);
            let mut allocated = schedule.allocated_share(slot, group);
            if allocated <= 1.0 {
                continue;
            }
            // Participants, largest share first.
            let mut participants: Vec<usize> = (0..problem.len())
                .filter(|i| {
                    let p = schedule.plan(ExperimentId(*i));
                    p.start_slot <= slot && slot < p.end_slot() && p.groups.contains(&group)
                })
                .collect();
            participants.sort_by(|x, y| {
                schedule
                    .plan(ExperimentId(*y))
                    .traffic_share
                    .partial_cmp(&schedule.plan(ExperimentId(*x)).traffic_share)
                    .expect("shares are finite")
            });
            for idx in participants {
                if allocated <= 1.0 {
                    break;
                }
                let id = ExperimentId(idx);
                let min_share = problem.experiment(id).min_traffic_share;
                let plan = schedule.plan_mut(id);
                let reducible = (plan.traffic_share - min_share).max(0.0);
                let cut = reducible.min(allocated - 1.0);
                plan.traffic_share -= cut;
                allocated -= cut;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints;
    use crate::problem::ExperimentRequest;
    use cex_core::traffic::TrafficProfile;
    use cex_core::users::{Population, UserGroup};

    fn problem(n: usize) -> Problem {
        let pop = Population::new(vec![
            UserGroup::new("g0", 1_000),
            UserGroup::new("g1", 1_000),
            UserGroup::new("g2", 1_000),
        ])
        .unwrap();
        let traffic = TrafficProfile::from_matrix(100, 3, vec![200.0; 300]).unwrap();
        let experiments = (0..n)
            .map(|i| {
                let mut e =
                    ExperimentRequest::new(format!("e{i}"), format!("svc{}", i % 3), 1_000.0);
                e.min_duration_slots = 3;
                e.max_duration_slots = 30;
                e.max_traffic_share = 0.4;
                if i % 2 == 0 {
                    e.preferred_groups = vec![GroupId(i % 3)];
                }
                e
            })
            .collect();
        Problem::new(experiments, pop, traffic).unwrap()
    }

    #[test]
    fn random_plans_respect_structural_bounds() {
        let p = problem(6);
        let mut rng = SplitMix64::new(1);
        for _ in 0..200 {
            for i in 0..p.len() {
                let id = ExperimentId(i);
                let e = p.experiment(id);
                let plan = random_plan(&p, id, &mut rng);
                assert!(plan.start_slot >= e.earliest_start_slot);
                assert!(plan.end_slot() <= p.horizon());
                assert!(plan.duration_slots >= e.min_duration_slots);
                assert!(plan.duration_slots <= p.max_duration(id));
                assert!(plan.traffic_share >= e.min_traffic_share);
                assert!(plan.traffic_share <= e.max_traffic_share);
                assert!(!plan.groups.is_empty());
            }
        }
    }

    #[test]
    fn mutation_preserves_structural_bounds() {
        let p = problem(6);
        let mut rng = SplitMix64::new(2);
        let mut s = random_schedule(&p, &mut rng);
        for _ in 0..1_000 {
            mutate(&p, &mut s, &mut rng);
        }
        for i in 0..p.len() {
            let id = ExperimentId(i);
            let e = p.experiment(id);
            let plan = s.plan(id);
            assert!(plan.start_slot >= e.earliest_start_slot);
            assert!(plan.end_slot() <= p.horizon());
            assert!(plan.duration_slots >= e.min_duration_slots);
            assert!(!plan.groups.is_empty());
        }
    }

    #[test]
    fn mutation_changes_something_eventually() {
        let p = problem(3);
        let mut rng = SplitMix64::new(3);
        let s = random_schedule(&p, &mut rng);
        let mut t = s.clone();
        let mut changed = false;
        for _ in 0..20 {
            mutate(&p, &mut t, &mut rng);
            if t != s {
                changed = true;
                break;
            }
        }
        assert!(changed);
    }

    #[test]
    fn one_point_crossover_swaps_suffixes() {
        let p = problem(6);
        let mut rng = SplitMix64::new(4);
        let a = random_schedule(&p, &mut rng);
        let b = random_schedule(&p, &mut rng);
        let (c1, c2) = crossover(&a, &b, CrossoverKind::OnePoint, &mut rng);
        for i in 0..p.len() {
            let id = ExperimentId(i);
            // Every child gene comes from one of the parents.
            assert!(c1.plan(id) == a.plan(id) || c1.plan(id) == b.plan(id));
            assert!(c2.plan(id) == a.plan(id) || c2.plan(id) == b.plan(id));
            // Children are complementary.
            let c1_from_a = c1.plan(id) == a.plan(id);
            let c2_from_b = c2.plan(id) == b.plan(id);
            assert_eq!(c1_from_a, c2_from_b);
        }
    }

    #[test]
    fn uniform_crossover_mixes_genes() {
        let p = problem(8);
        let mut rng = SplitMix64::new(5);
        let a = random_schedule(&p, &mut rng);
        let b = random_schedule(&p, &mut rng);
        let (c1, _) = crossover(&a, &b, CrossoverKind::Uniform, &mut rng);
        let from_a =
            (0..p.len()).filter(|i| c1.plan(ExperimentId(*i)) == a.plan(ExperimentId(*i))).count();
        assert!(from_a > 0 && from_a < p.len(), "uniform crossover should mix ({from_a}/8)");
    }

    #[test]
    fn repair_fixes_most_random_schedules() {
        let p = problem(6);
        let mut rng = SplitMix64::new(6);
        let mut repaired_valid = 0;
        let trials = 50;
        for _ in 0..trials {
            let mut s = random_schedule(&p, &mut rng);
            repair(&p, &mut s, &mut rng);
            if constraints::is_valid(&p, &s) {
                repaired_valid += 1;
            }
        }
        assert!(
            repaired_valid > trials / 2,
            "repair should fix most schedules ({repaired_valid}/{trials})"
        );
    }

    #[test]
    fn repair_never_worsens_structural_bounds() {
        let p = problem(4);
        let mut rng = SplitMix64::new(7);
        for _ in 0..50 {
            let mut s = random_schedule(&p, &mut rng);
            // Corrupt the schedule badly.
            s.plan_mut(ExperimentId(0)).start_slot = 10_000;
            s.plan_mut(ExperimentId(1)).groups.clear();
            s.plan_mut(ExperimentId(2)).traffic_share = 7.0;
            repair(&p, &mut s, &mut rng);
            for i in 0..p.len() {
                let id = ExperimentId(i);
                let e = p.experiment(id);
                let plan = s.plan(id);
                assert!(plan.end_slot() <= p.horizon());
                assert!(plan.start_slot >= e.earliest_start_slot);
                assert!(plan.traffic_share <= e.max_traffic_share + 1e-9);
                assert!(plan.traffic_share >= e.min_traffic_share - 1e-9);
                assert!(!plan.groups.is_empty());
            }
        }
    }
}
