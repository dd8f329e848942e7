//! Differential tests: the incremental evaluation path must
//! agree with the full `fitness::evaluate` **exactly** — `f64::to_bits`
//! equality on the raw fitness and integer equality on violation counts —
//! across random problems, random (often deliberately invalid) schedules,
//! and long random move/undo sequences.
//!
//! Schedules are sampled *wild* on purpose: plans past the horizon,
//! zero-duration spans, empty group lists, out-of-bounds shares — the
//! boundary cases where incremental bookkeeping is easiest to get wrong.

use cex_core::experiment::ExperimentId;
use cex_core::rng::{sub_seed, SplitMix64};
use cex_core::traffic::TrafficProfile;
use cex_core::users::{GroupId, Population, UserGroup};
use fenrir::encoding;
use fenrir::fitness;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};
use fenrir::incremental::IncrementalState;
use fenrir::problem::{ExperimentRequest, Problem};
use fenrir::runner::{Budget, Evaluator};
use fenrir::schedule::{Plan, Schedule};

/// Runs `body` once per case with an independent RNG stream.
fn for_cases(cases: u64, master_seed: u64, mut body: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(sub_seed(master_seed, case));
        body(case, &mut rng);
    }
}

/// A small random problem with adversarial bounds: tiny horizons, tight
/// and degenerate duration windows, optional preferences and conflicts.
fn random_problem(rng: &mut SplitMix64) -> Problem {
    let groups = 1 + rng.next_index(3);
    let horizon = 4 + rng.next_index(16);
    let pop = Population::new(
        (0..groups).map(|g| UserGroup::new(format!("g{g}"), 100 + 50 * g as u64)).collect(),
    )
    .unwrap();
    let traffic = TrafficProfile::from_matrix(
        horizon,
        groups,
        (0..horizon * groups).map(|_| 10.0 + rng.next_f64() * 200.0).collect(),
    )
    .unwrap();
    let n = 2 + rng.next_index(6);
    let experiments = (0..n)
        .map(|i| {
            let mut e = ExperimentRequest::new(
                format!("e{i}"),
                format!("svc{}", rng.next_index(3)),
                10.0 + rng.next_f64() * 400.0,
            );
            e.min_duration_slots = 1 + rng.next_index(3);
            // Sometimes beyond the horizon, sometimes degenerate (== min).
            e.max_duration_slots = e.min_duration_slots + rng.next_index(horizon);
            e.earliest_start_slot = rng.next_index(horizon);
            e.min_traffic_share = 0.01 + rng.next_f64() * 0.1;
            e.max_traffic_share = (e.min_traffic_share + rng.next_f64() * 0.5).min(1.0);
            if rng.next_f64() < 0.4 {
                e.preferred_groups =
                    (0..groups).map(GroupId).filter(|_| rng.next_f64() < 0.5).collect();
            }
            if i > 0 && rng.next_f64() < 0.3 {
                e.conflicts_with.push(ExperimentId(rng.next_index(i)));
            }
            e
        })
        .collect();
    Problem::new(experiments, pop, traffic).unwrap()
}

/// A wild plan: may run past the horizon, have zero duration, an empty
/// group list, or an out-of-bounds share.
fn wild_plan(problem: &Problem, rng: &mut SplitMix64) -> Plan {
    let horizon = problem.horizon();
    let groups = problem.population().len();
    let start = rng.next_index(horizon + 4);
    let duration = match rng.next_index(5) {
        0 => 0,                             // zero-duration span
        1 => horizon.saturating_sub(start), // ends exactly at horizon
        _ => rng.next_index(horizon + 4),   // anything, incl. overrun
    };
    let share = rng.next_f64() * 1.2;
    let assigned = if rng.next_index(8) == 0 {
        Vec::new() // empty group list
    } else {
        let mut v: Vec<GroupId> =
            (0..groups).map(GroupId).filter(|_| rng.next_f64() < 0.6).collect();
        if v.is_empty() {
            v.push(GroupId(rng.next_index(groups)));
        }
        v
    };
    Plan::new(start, duration, share, assigned)
}

fn wild_schedule(problem: &Problem, rng: &mut SplitMix64) -> Schedule {
    Schedule::new((0..problem.len()).map(|_| wild_plan(problem, rng)).collect())
}

fn assert_exact(problem: &Problem, state: &IncrementalState, ctx: &str) {
    let inc = state.report();
    let full = fitness::evaluate(problem, state.schedule());
    assert_eq!(
        inc.raw.to_bits(),
        full.raw.to_bits(),
        "{ctx}: raw diverged ({} vs {})",
        inc.raw,
        full.raw
    );
    assert_eq!(inc.violations, full.violations, "{ctx}: violation count diverged");
}

#[test]
fn random_move_sequences_stay_exact() {
    for_cases(40, 0xD1FF, |case, rng| {
        let problem = random_problem(rng);
        let mut state = IncrementalState::new(&problem, wild_schedule(&problem, rng));
        assert_exact(&problem, &state, &format!("case {case} seed"));

        for step in 0..60 {
            let ctx = format!("case {case} step {step}");
            match rng.next_index(4) {
                // Single-plan move.
                0 | 1 => {
                    let id = ExperimentId(rng.next_index(problem.len()));
                    let report = state.eval_move(&problem, id, wild_plan(&problem, rng));
                    let full = fitness::evaluate(&problem, state.schedule());
                    assert_eq!(report.raw.to_bits(), full.raw.to_bits(), "{ctx}: move raw");
                    assert_eq!(report.violations, full.violations, "{ctx}: move violations");
                }
                // Multi-plan diff, optionally repaired (repair touches
                // many plans at once).
                2 => {
                    let mut candidate = state.schedule().clone();
                    for _ in 0..(1 + rng.next_index(3)) {
                        encoding::mutate(&problem, &mut candidate, rng);
                    }
                    if rng.next_f64() < 0.5 {
                        encoding::repair(&problem, &mut candidate, rng);
                    }
                    let report = state.eval_diff(&problem, &candidate);
                    let full = fitness::evaluate(&problem, &candidate);
                    assert_eq!(report.raw.to_bits(), full.raw.to_bits(), "{ctx}: diff raw");
                    assert_eq!(report.violations, full.violations, "{ctx}: diff violations");
                    assert_eq!(state.schedule(), &candidate, "{ctx}: diff schedule");
                }
                // Undo the previous move (no-op when nothing is pending).
                _ => {
                    let before = state.report();
                    state.undo(&problem);
                    state.undo(&problem); // second undo is a no-op
                    let _ = before;
                }
            }
            assert_exact(&problem, &state, &ctx);
        }
    });
}

#[test]
fn undo_restores_previous_report_bitwise() {
    for_cases(25, 0xBEEF, |case, rng| {
        let problem = random_problem(rng);
        let mut state = IncrementalState::new(&problem, wild_schedule(&problem, rng));
        for step in 0..30 {
            let before = state.report();
            let snapshot = state.schedule().clone();
            let id = ExperimentId(rng.next_index(problem.len()));
            state.eval_move(&problem, id, wild_plan(&problem, rng));
            state.undo(&problem);
            let after = state.report();
            assert_eq!(
                before.raw.to_bits(),
                after.raw.to_bits(),
                "case {case} step {step}: undo raw"
            );
            assert_eq!(before.violations, after.violations, "case {case} step {step}");
            assert_eq!(state.schedule(), &snapshot, "case {case} step {step}: schedule");
        }
    });
}

#[test]
fn generated_instances_stay_exact_under_realistic_moves() {
    // The generator's realistic instances (full 672-slot horizon) exercise
    // long spans and many boundary slots.
    for_cases(4, 0x9E4, |case, rng| {
        let problem = ProblemGenerator::new(10, SampleSizeTier::Medium).generate(case + 1);
        let schedule = encoding::repaired_random(&problem, rng);
        let mut state = IncrementalState::new(&problem, schedule);
        assert_exact(&problem, &state, &format!("case {case} seed"));
        for step in 0..40 {
            let mut candidate = state.schedule().clone();
            encoding::mutate(&problem, &mut candidate, rng);
            if rng.next_f64() < 0.3 {
                encoding::repair(&problem, &mut candidate, rng);
            }
            state.eval_diff(&problem, &candidate);
            assert_exact(&problem, &state, &format!("case {case} step {step}"));
        }
    });
}

#[test]
fn handcrafted_boundary_cases_stay_exact() {
    let pop = Population::new(vec![UserGroup::new("a", 100), UserGroup::new("b", 100)]).unwrap();
    let traffic = TrafficProfile::from_matrix(8, 2, vec![50.0; 16]).unwrap();
    let mut e0 = ExperimentRequest::new("e0", "svc", 40.0);
    e0.min_duration_slots = 2;
    e0.max_duration_slots = 20; // beyond the horizon
    e0.max_traffic_share = 0.9;
    let mut e1 = ExperimentRequest::new("e1", "svc", 40.0);
    e1.min_duration_slots = 1;
    e1.max_duration_slots = 8;
    e1.max_traffic_share = 0.9;
    e1.preferred_groups = vec![GroupId(1)];
    let problem = Problem::new(vec![e0, e1], pop, traffic).unwrap();

    let seed = Schedule::new(vec![
        Plan::new(0, 4, 0.5, vec![GroupId(0)]),
        Plan::new(4, 4, 0.5, vec![GroupId(1)]),
    ]);
    let mut state = IncrementalState::new(&problem, seed);

    let cases: Vec<(&str, ExperimentId, Plan)> = vec![
        ("ends exactly at horizon", ExperimentId(0), Plan::new(4, 4, 0.5, vec![GroupId(0)])),
        ("runs past horizon", ExperimentId(0), Plan::new(6, 5, 0.5, vec![GroupId(0)])),
        ("starts past horizon", ExperimentId(1), Plan::new(9, 2, 0.5, vec![GroupId(1)])),
        ("zero-duration span", ExperimentId(0), Plan::new(3, 0, 0.5, vec![GroupId(0)])),
        ("zero-duration at horizon", ExperimentId(0), Plan::new(8, 0, 0.5, vec![GroupId(0)])),
        ("empty group list", ExperimentId(1), Plan::new(2, 3, 0.5, vec![])),
        ("oversubscribed cell", ExperimentId(1), Plan::new(0, 4, 0.9, vec![GroupId(0)])),
        ("conflict overlap", ExperimentId(1), Plan::new(1, 3, 0.2, vec![GroupId(0)])),
        ("share both groups", ExperimentId(0), Plan::new(0, 8, 0.6, vec![GroupId(0), GroupId(1)])),
        ("back to valid", ExperimentId(1), Plan::new(4, 4, 0.5, vec![GroupId(1)])),
    ];
    for (name, id, plan) in cases {
        let report = state.eval_move(&problem, id, plan);
        let full = fitness::evaluate(&problem, state.schedule());
        assert_eq!(report.raw.to_bits(), full.raw.to_bits(), "{name}: raw");
        assert_eq!(report.violations, full.violations, "{name}: violations");
        // And again after an undo/redo cycle.
        state.undo(&problem);
        assert_exact(&problem, &state, name);
    }
}

#[test]
fn evaluator_incremental_path_matches_eval() {
    for_cases(10, 0xE7A1, |case, rng| {
        let problem = random_problem(rng);
        let mut ev = Evaluator::new(&problem, Budget::evaluations(21));
        // The first diff seeds the incumbent; each later one moves one plan
        // of it, and half of them are taken back.
        let mut candidate = wild_schedule(&problem, rng);
        for step in 0..21 {
            let report = ev.eval_diff(&candidate);
            let full = fitness::evaluate(&problem, &candidate);
            assert_eq!(report.raw.to_bits(), full.raw.to_bits(), "case {case} step {step}");
            assert_eq!(report.violations, full.violations, "case {case} step {step}");
            assert_eq!(ev.current(), &candidate, "case {case} step {step}");
            if rng.next_f64() < 0.5 {
                ev.undo_last();
            }
            candidate = ev.current().clone();
            let id = ExperimentId(rng.next_index(problem.len()));
            *candidate.plan_mut(id) = wild_plan(&problem, rng);
        }
        assert!(!ev.has_budget(), "one seed and twenty moves spend the budget");
    });
}
