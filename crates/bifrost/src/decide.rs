//! The rollout policy: what one tick's check results mean for a strategy.
//!
//! Bifrost is a state machine in which "the outcome of checks determines
//! the subsequent state" (Section 4.3); [`decide`] is that rule and nothing
//! else — ramp direction, phase outcome, early stopping, the retry budget.
//! It is pure: no clock but the `now` it is handed, no simulation, store,
//! router or journal. The engine's shell ([`crate::engine`]) gathers the
//! inputs and enacts and journals the answer; anything that re-derives a
//! verdict from recorded check results calls the same function.

use crate::checks::{self, CheckObservation, CheckResult, SequentialState};
use crate::machine::{PhaseOutcome, State, StateMachine};
use crate::model::{Check, CheckScope, Phase, PhaseKind};
use cex_core::simtime::SimTime;

/// Instantaneous harm-direction likelihood ratio at which a guarded
/// gradual rollout stops advancing and retreats one step. Deliberately
/// well below the absorbing abort threshold (a likelihood ratio of 2 is
/// weak evidence — roughly a p of 0.5 at a single look): the ramp reacts
/// to scares cheaply and reversibly, while only the always-valid p
/// crossing α aborts the strategy. Because the signal is the *latest*
/// look rather than a running extreme, it decays under a healthy
/// candidate and the ramp resumes.
pub const RAMP_WARN_LR: f64 = 2.0;

/// One check evaluation: the check's index in its phase and the verdict
/// with the windows it read.
pub type Evaluation = (usize, CheckObservation);

/// Results of one tick's evaluation pass for one strategy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TickObservation {
    /// The checks whose cadence came due this tick.
    pub due_results: Vec<Evaluation>,
    /// Every check of the phase, evaluated once more because the phase
    /// clock ran out this tick; `None` mid-phase.
    pub boundary_results: Option<Vec<Evaluation>>,
}

impl TickObservation {
    /// Check evaluations this observation cost.
    pub fn evaluations(&self) -> u64 {
        (self.due_results.len() + self.boundary_results.as_ref().map_or(0, Vec::len)) as u64
    }
}

/// Where a strategy stands when [`decide`] is asked about it.
#[derive(Debug, Clone, Copy)]
pub struct RunView<'a> {
    /// The strategy's compiled state machine.
    pub machine: &'a StateMachine,
    /// Index of the phase the strategy is in.
    pub phase_index: usize,
    /// Consecutive non-success outcomes that re-entered this phase so far.
    pub retries: u32,
    /// Candidate share the phase routes (read for gradual rollouts only).
    pub rollout_percent: f64,
    /// When the rollout's next step comes due.
    pub next_rollout_step: SimTime,
    /// Per-check sequential state with this tick's looks folded in
    /// (entries of non-sequential checks are never read).
    pub sequential: &'a [SequentialState],
}

/// One step of a gradual rollout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RampStep {
    /// `"advance"`, `"retreat"` or `"hold"`.
    pub decision: &'static str,
    /// Candidate share after the step.
    pub percent: f64,
    /// Strongest instantaneous harm evidence among the sequential checks.
    pub lr_harm: f64,
    /// Whether the rollout is check-guarded (only those journal `ramp` events).
    pub guarded: bool,
    /// When the following step comes due.
    pub next_step_at: SimTime,
}

/// What the policy makes of one strategy's tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The rollout step taken this tick, if one came due.
    pub ramp: Option<RampStep>,
    /// How the phase ended this tick; `None` while it goes on.
    pub outcome: Option<PhaseOutcome>,
    /// The deciding always-valid p when a sequential verdict ended the
    /// phase before its clock ran out.
    pub early_stop_p: Option<f64>,
    /// The state that follows, retry budget applied (the current phase
    /// while `outcome` is `None`).
    pub next: State,
    /// The retry count after this tick.
    pub retries: u32,
}

/// Applies the rollout policy to one strategy for one tick. `phase` must
/// be the phase `run.phase_index` names; `max_retries` is
/// [`crate::engine::EngineConfig::max_retries`].
pub fn decide(
    phase: &Phase,
    run: RunView<'_>,
    obs: &TickObservation,
    now: SimTime,
    max_retries: u32,
) -> Decision {
    let current = State::Phase(run.phase_index);
    let ramp = ramp_step(phase, &run, now);
    let mut decision =
        Decision { ramp, outcome: None, early_stop_p: None, next: current, retries: run.retries };
    // The phase verdict reads the rollout share *after* this tick's step.
    let rollout_percent = ramp.map_or(run.rollout_percent, |step| step.percent);
    if let Some((outcome, early_stop_p)) = phase_outcome(phase, &run, obs, rollout_percent) {
        decision.outcome = Some(outcome);
        decision.early_stop_p = early_stop_p;
        decision.next = run.machine.next(current, outcome);
        // Re-entering the same phase consumes a retry, and the
        // `max_retries`-th in a row rolls back instead; leaving the phase
        // resets the count.
        if decision.next == current && outcome != PhaseOutcome::Success {
            decision.retries += 1;
            if decision.retries >= max_retries {
                decision.next = State::RolledBack;
            }
        } else if decision.next != current {
            decision.retries = 0;
        }
    }
    decision
}

fn is_sequential(check: &Check) -> bool {
    check.scope == CheckScope::SequentialVsBaseline
}

/// The phase's sequential checks with their state.
fn sequential<'a>(
    phase: &'a Phase,
    run: &RunView<'a>,
) -> impl Iterator<Item = (&'a Check, &'a SequentialState)> {
    phase.checks.iter().zip(run.sequential).filter(|(check, _)| is_sequential(check))
}

/// Gradual rollouts step on their own cadence. A guarded rollout adapts
/// the direction: it advances only while no sequential check shows
/// instantaneous harm evidence at [`RAMP_WARN_LR`] or stronger, and
/// retreats one step (never below the entry percent) while one does.
/// Retreating is the cheap, reversible reaction — the absorbing abort
/// stays with the always-valid p crossing α, which fails the phase through
/// the ordinary check path.
fn ramp_step(phase: &Phase, run: &RunView<'_>, now: SimTime) -> Option<RampStep> {
    let PhaseKind::GradualRollout {
        from_percent,
        to_percent,
        step_percent,
        step_duration,
        guarded,
    } = phase.kind
    else {
        return None;
    };
    let current = run.rollout_percent;
    if now < run.next_rollout_step || current >= to_percent {
        return None;
    }
    let lr_harm = sequential(phase, run).map(|(_, state)| state.lr_harm()).fold(0.0, f64::max);
    let warned = guarded && lr_harm >= RAMP_WARN_LR;
    let (decision, percent) = if !warned {
        ("advance", (current + step_percent).min(to_percent))
    } else if current > from_percent {
        ("retreat", (current - step_percent).max(from_percent))
    } else {
        ("hold", current)
    };
    Some(RampStep { decision, percent, lr_harm, guarded, next_step_at: now + step_duration })
}

/// The phase outcome this tick, with the early-stop p when a sequential
/// verdict decided it mid-phase.
fn phase_outcome(
    phase: &Phase,
    run: &RunView<'_>,
    obs: &TickObservation,
    rollout_percent: f64,
) -> Option<(PhaseOutcome, Option<f64>)> {
    let failed = |(_, o): &Evaluation| o.result == CheckResult::Fail;
    // A conclusively failed due check fails the phase immediately.
    let due_failed = obs.due_results.iter().any(failed);
    let rollout_target = match phase.kind {
        PhaseKind::GradualRollout { to_percent, .. } => Some(to_percent),
        _ => None,
    };

    if let Some(boundary) = &obs.boundary_results {
        let outcome = if due_failed || boundary.iter().any(failed) {
            PhaseOutcome::Failure
        } else if rollout_target.is_some_and(|target| rollout_percent < target) {
            // A rollout only succeeds once it reached its target percent;
            // until then a clean boundary just keeps it rolling.
            return None;
        } else if boundary.iter().any(|(_, o)| o.result == CheckResult::Inconclusive) {
            PhaseOutcome::Inconclusive
        } else {
            PhaseOutcome::Success
        };
        return Some((outcome, None));
    }

    // Early stopping: always-valid p-values stay valid under continuous
    // monitoring, so a decided sequential verdict need not wait out the
    // phase clock.
    if due_failed {
        // A sequential check crossing its harm threshold is the early
        // abort; a failed threshold check aborts just the same but has no
        // p to report.
        let worst = obs
            .due_results
            .iter()
            .filter(|evaluation| failed(evaluation) && is_sequential(&phase.checks[evaluation.0]))
            .map(|(i, _)| run.sequential[*i].p_harm())
            .fold(f64::NAN, f64::max);
        return Some((PhaseOutcome::Failure, worst.is_finite().then_some(worst)));
    }
    // A phase whose checks are all sequential and all passing promotes
    // immediately — except a rollout, which still ramps to its target.
    let promotable = rollout_target.is_none()
        && !phase.checks.is_empty()
        && phase.checks.iter().all(is_sequential)
        && sequential(phase, run).all(|(check, state)| {
            state.verdict(checks::sequential_alpha(check)) == CheckResult::Pass
        });
    promotable.then(|| {
        let p = sequential(phase, run).map(|(_, state)| state.p_desired()).fold(0.0, f64::max);
        (PhaseOutcome::Success, Some(p))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl;
    use crate::model::Strategy;
    use cex_core::simtime::SimDuration;

    const SEQ: &str = "check error_rate sequential vs baseline < confidence 0.95 every 30s";
    const THRESHOLD: &str = "check error_rate < 0.1 over 1m every 30s";

    /// A one-phase strategy: `kind` is the DSL phase header between the
    /// name and the body, `checks` the check lines.
    fn one_phase(kind: &str, checks: &[&str]) -> (Strategy, StateMachine) {
        let strategy = dsl::parse(&format!(
            r#"strategy "s" {{
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "p" {kind} {{
                  {}
                  on success complete
                  on failure rollback
                  on inconclusive retry
                }}
            }}"#,
            checks.join("\n")
        ))
        .unwrap();
        let machine = StateMachine::compile(&strategy).unwrap();
        (strategy, machine)
    }

    fn view<'a>(machine: &'a StateMachine, sequential: &'a [SequentialState]) -> RunView<'a> {
        RunView {
            machine,
            phase_index: 0,
            retries: 0,
            rollout_percent: 0.0,
            next_rollout_step: SimTime::ZERO,
            sequential,
        }
    }

    fn observed(result: CheckResult) -> CheckObservation {
        CheckObservation { result, primary: Default::default(), baseline: None }
    }

    fn due(results: &[(usize, CheckResult)]) -> TickObservation {
        TickObservation {
            due_results: results.iter().map(|(i, r)| (*i, observed(*r))).collect(),
            boundary_results: None,
        }
    }

    fn boundary(results: &[CheckResult]) -> TickObservation {
        TickObservation {
            due_results: Vec::new(),
            boundary_results: Some(
                results.iter().enumerate().map(|(i, r)| (i, observed(*r))).collect(),
            ),
        }
    }

    /// Sequential state after one look with the given evidence.
    fn seq(p_desired: f64, p_harm: f64, lr_harm: f64) -> SequentialState {
        let mut state = SequentialState::new();
        state.fold(0.1, p_desired, p_harm, lr_harm);
        state
    }

    const NOW: SimTime = SimTime::from_secs(600);
    use CheckResult::{Fail, Inconclusive, Pass};

    #[test]
    fn retry_budget_rolls_back_on_the_max_retries_th_consecutive_non_success() {
        let (strategy, machine) = one_phase("canary 10% for 2m", &[THRESHOLD]);
        let phase = &strategy.phases[0];
        let obs = boundary(&[Inconclusive]);
        let first = decide(phase, view(&machine, &[]), &obs, NOW, 3);
        assert_eq!(
            (first.outcome.unwrap(), first.next, first.retries),
            (PhaseOutcome::Inconclusive, State::Phase(0), 1)
        );
        let second = decide(phase, RunView { retries: 1, ..view(&machine, &[]) }, &obs, NOW, 3);
        assert_eq!((second.next, second.retries), (State::Phase(0), 2));
        let third = decide(phase, RunView { retries: 2, ..view(&machine, &[]) }, &obs, NOW, 3);
        assert_eq!((third.next, third.retries), (State::RolledBack, 3));
        // A budget of one never re-enters at all.
        let only = decide(phase, view(&machine, &[]), &obs, NOW, 1);
        assert_eq!(only.next, State::RolledBack);
        // Leaving the phase resets the count.
        let done = decide(
            phase,
            RunView { retries: 2, ..view(&machine, &[]) },
            &boundary(&[Pass]),
            NOW,
            3,
        );
        assert_eq!(
            (done.outcome.unwrap(), done.next, done.retries),
            (PhaseOutcome::Success, State::Completed, 0)
        );
    }

    #[test]
    fn pending_gradual_rollout_holds_a_passing_boundary() {
        let (strategy, machine) =
            one_phase("gradual_rollout from 25% to 100% step 25% every 1m for 3m", &[THRESHOLD]);
        let phase = &strategy.phases[0];
        let later = NOW + SimDuration::from_mins(1);
        let at = |percent| RunView {
            rollout_percent: percent,
            next_rollout_step: later,
            ..view(&machine, &[])
        };
        // Below the target a clean boundary keeps rolling — even an
        // inconclusive one — but a failed one still fails.
        assert_eq!(decide(phase, at(50.0), &boundary(&[Pass]), NOW, 3).outcome, None);
        assert_eq!(decide(phase, at(50.0), &boundary(&[Inconclusive]), NOW, 3).outcome, None);
        let failed = decide(phase, at(50.0), &boundary(&[Fail]), NOW, 3);
        assert_eq!(failed.outcome, Some(PhaseOutcome::Failure));
        // At the target the boundary verdict counts.
        let done = decide(phase, at(100.0), &boundary(&[Pass]), NOW, 3);
        assert_eq!((done.outcome.unwrap(), done.next), (PhaseOutcome::Success, State::Completed));
        // The step taken this very tick counts towards the target.
        let stepping =
            RunView { rollout_percent: 75.0, next_rollout_step: NOW, ..view(&machine, &[]) };
        let decision = decide(phase, stepping, &boundary(&[Pass]), NOW, 3);
        assert_eq!(decision.ramp.unwrap().percent, 100.0);
        assert_eq!(decision.outcome, Some(PhaseOutcome::Success));
    }

    #[test]
    fn early_promotion_needs_every_check_sequential_and_passing() {
        let passing = seq(0.01, 1.0, 0.0);
        let undecided = seq(0.4, 1.0, 0.0);
        let (strategy, machine) = one_phase("canary 50% for 30m", &[SEQ, SEQ]);
        let phase = &strategy.phases[0];
        let promoted = decide(
            phase,
            view(&machine, &[passing, seq(0.03, 1.0, 0.0)]),
            &due(&[(0, Pass)]),
            NOW,
            3,
        );
        assert_eq!(
            (promoted.outcome.unwrap(), promoted.next),
            (PhaseOutcome::Success, State::Completed)
        );
        assert_eq!(promoted.early_stop_p, Some(0.03), "the weakest of the passing p-values");
        let waiting =
            decide(phase, view(&machine, &[passing, undecided]), &due(&[(0, Pass)]), NOW, 3);
        assert_eq!(waiting.outcome, None, "one check has not concluded");

        // A threshold check beside the sequential one waits for the clock.
        let (strategy, machine) = one_phase("canary 50% for 30m", &[SEQ, THRESHOLD]);
        let mixed = decide(
            &strategy.phases[0],
            view(&machine, &[passing, SequentialState::new()]),
            &due(&[(0, Pass), (1, Pass)]),
            NOW,
            3,
        );
        assert_eq!(mixed.outcome, None);
    }

    #[test]
    fn early_promotion_never_fires_on_a_rollout() {
        let (strategy, machine) =
            one_phase("ramp from 10% to 100% step 30% every 1m guarded for 10m", &[SEQ]);
        let state = [seq(0.001, 1.0, 0.0)];
        let run = RunView { rollout_percent: 100.0, ..view(&machine, &state) };
        assert_eq!(decide(&strategy.phases[0], run, &due(&[(0, Pass)]), NOW, 3).outcome, None);
    }

    #[test]
    fn due_fail_beats_the_boundary_verdict() {
        let (strategy, machine) = one_phase("canary 10% for 2m", &[THRESHOLD, SEQ]);
        let phase = &strategy.phases[0];
        let state = [SequentialState::new(), seq(1.0, 0.004, 300.0)];
        let mut obs = boundary(&[Pass, Pass]);
        obs.due_results = due(&[(0, Fail)]).due_results;
        let failed = decide(phase, view(&machine, &state), &obs, NOW, 3);
        assert_eq!(
            (failed.outcome.unwrap(), failed.next),
            (PhaseOutcome::Failure, State::RolledBack)
        );
        assert_eq!(failed.early_stop_p, None, "a boundary tick is not an early stop");

        // Mid-phase the same failure is an early abort: it carries the
        // sequential check's harm p when that is the check that failed,
        // and none when a threshold check did.
        let early = decide(phase, view(&machine, &state), &due(&[(1, Fail)]), NOW, 3);
        assert_eq!(
            (early.outcome.unwrap(), early.early_stop_p),
            (PhaseOutcome::Failure, Some(0.004))
        );
        let plain = decide(phase, view(&machine, &state), &due(&[(0, Fail)]), NOW, 3);
        assert_eq!((plain.outcome.unwrap(), plain.early_stop_p), (PhaseOutcome::Failure, None));
    }

    #[test]
    fn guarded_ramp_retreats_one_step_under_harm_and_holds_at_the_floor() {
        let (strategy, machine) =
            one_phase("ramp from 10% to 100% step 30% every 1m guarded for 40m", &[SEQ]);
        let phase = &strategy.phases[0];
        let step = |percent: f64, lr_harm: f64| {
            let state = [seq(1.0, 1.0, lr_harm)];
            let run = RunView {
                rollout_percent: percent,
                next_rollout_step: NOW,
                ..view(&machine, &state)
            };
            let decision = decide(phase, run, &due(&[]), NOW, 3);
            assert_eq!(decision.outcome, None);
            decision.ramp.unwrap()
        };
        let calm = step(40.0, RAMP_WARN_LR - 0.01);
        assert_eq!((calm.decision, calm.percent), ("advance", 70.0));
        assert_eq!(calm.next_step_at, NOW + SimDuration::from_mins(1));
        assert!(calm.guarded);
        let warned = step(70.0, RAMP_WARN_LR);
        assert_eq!(
            (warned.decision, warned.percent, warned.lr_harm),
            ("retreat", 40.0, RAMP_WARN_LR)
        );
        assert_eq!(step(25.0, 50.0).percent, 10.0, "never below from_percent");
        let floor = step(10.0, 50.0);
        assert_eq!((floor.decision, floor.percent), ("hold", 10.0));
        assert_eq!(step(85.0, 0.0).percent, 100.0, "never above to_percent");
    }

    #[test]
    fn ramp_waits_for_its_cadence_and_an_unguarded_one_ignores_harm() {
        let (strategy, machine) =
            one_phase("gradual_rollout from 25% to 100% step 25% every 1m for 10m", &[SEQ]);
        let phase = &strategy.phases[0];
        let state = [seq(1.0, 1.0, 1_000.0)];
        let run =
            RunView { rollout_percent: 25.0, next_rollout_step: NOW, ..view(&machine, &state) };
        let step = decide(phase, run, &due(&[]), NOW, 3).ramp.unwrap();
        assert_eq!((step.decision, step.percent, step.guarded), ("advance", 50.0, false));
        let early = RunView { next_rollout_step: NOW + SimDuration::from_secs(1), ..run };
        assert_eq!(decide(phase, early, &due(&[]), NOW, 3).ramp, None);
        let done = RunView { rollout_percent: 100.0, ..run };
        assert_eq!(decide(phase, done, &due(&[]), NOW, 3).ramp, None);
    }
}
