//! Check scheduling and evaluation (Figure 4.3).
//!
//! [`evaluate_observed`] reads one check's trailing window from the metric
//! store and turns it into a [`CheckResult`] with the summaries it read. A
//! check with too few observations is *inconclusive* — it neither passes
//! nor fails the phase, which is what drives the retry action when not
//! enough data was collected.
//!
//! The engine looks at a phase's checks through one owner, `PhaseChecks`,
//! made on every phase (re-)entry: it keeps each check's cadence ("time-
//! based execution of multiple checks"), the partners that share a paired
//! read, and each sequential check's state and resumable windows, and looks
//! at the due checks — at the phase boundary, at every check — returning,
//! to the bit, what looking at one check at a time returns.

use crate::decide::{Evaluation, TickObservation};
use crate::model::{Check, CheckScope, Comparator, Phase};
use cex_core::metrics::Summary;
use cex_core::sequential::{msprt, tau_heuristic};
use cex_core::simtime::SimTime;
use cex_core::stats::welch_test;
use microsim::monitor::{MetricStore, ScopeId, WindowCursor};

/// Outcome of one check evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckResult {
    /// The condition held on sufficient data.
    Pass,
    /// The condition was violated on sufficient data.
    Fail,
    /// Not enough data in the window for a verdict.
    Inconclusive,
}

impl CheckResult {
    /// Canonical lowercase name used by the execution journal.
    pub fn name(self) -> &'static str {
        match self {
            CheckResult::Pass => "pass",
            CheckResult::Fail => "fail",
            CheckResult::Inconclusive => "inconclusive",
        }
    }

    /// Parses the name produced by [`CheckResult::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "pass" => CheckResult::Pass,
            "fail" => CheckResult::Fail,
            "inconclusive" => CheckResult::Inconclusive,
            _ => return None,
        })
    }
}

/// One check evaluation together with the windowed summaries it read —
/// the provenance record the execution journal captures for every
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckObservation {
    /// The verdict.
    pub result: CheckResult,
    /// Window summary of the scope the check primarily reads (the
    /// candidate for candidate-relative scopes, the baseline for
    /// [`CheckScope::Baseline`]).
    pub primary: Summary,
    /// Window summary of the baseline side, for the two-sided scopes.
    pub baseline: Option<Summary>,
}

/// Where a strategy's metrics live in the store.
///
/// Built once per strategy via [`CheckContext::new`], which interns both
/// scopes so every check evaluation reads through dense [`ScopeId`]s —
/// no string hashing on the engine's per-tick read path. The ids are only
/// valid against the store they were interned on; pass that same store to
/// [`evaluate_observed`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckContext {
    /// Scope of the candidate version (`service@version`).
    pub candidate_scope: String,
    /// Scope of the baseline version.
    pub baseline_scope: String,
    candidate_id: ScopeId,
    baseline_id: ScopeId,
    app_id: ScopeId,
    trace_candidate_id: ScopeId,
}

impl CheckContext {
    /// Creates a context, interning both version scopes, the end-to-end
    /// application scope, and the candidate's trace-derived scope
    /// (`trace:service@version`, fed by the engine's trace drain) on
    /// `store`.
    pub fn new(store: &mut MetricStore, candidate_scope: String, baseline_scope: String) -> Self {
        let candidate_id = store.intern(&candidate_scope);
        let baseline_id = store.intern(&baseline_scope);
        let app_id = store.intern(microsim::sim::APP_SCOPE);
        let trace_candidate_id = store.intern(&format!("trace:{candidate_scope}"));
        CheckContext {
            candidate_scope,
            baseline_scope,
            candidate_id,
            baseline_id,
            app_id,
            trace_candidate_id,
        }
    }

    /// The one scope an absolute check reads; `None` for the two-sided
    /// scopes.
    fn absolute_id(&self, scope: CheckScope) -> Option<ScopeId> {
        match scope {
            CheckScope::Candidate => Some(self.candidate_id),
            CheckScope::Baseline => Some(self.baseline_id),
            CheckScope::App => Some(self.app_id),
            CheckScope::Trace => Some(self.trace_candidate_id),
            CheckScope::CandidateVsBaseline
            | CheckScope::SequentialVsBaseline
            | CheckScope::SignificantVsBaseline => None,
        }
    }

    /// Candidate and baseline window summaries of one metric, read as a
    /// pair.
    fn both_sides(&self, check: &Check, store: &MetricStore, now: SimTime) -> [Summary; 2] {
        let (cand, base) = ((self.candidate_id, check.metric), (self.baseline_id, check.metric));
        store.window_summary_pair(cand, base, now, check.window)
    }
}

/// Evaluates one check at `now`, returning the verdict together with the
/// window summaries it was derived from (what the execution journal
/// records).
pub fn evaluate_observed(
    check: &Check,
    ctx: &CheckContext,
    store: &MetricStore,
    now: SimTime,
) -> CheckObservation {
    let read = |scope| store.window_summary_id(scope, check.metric, now, check.window);
    match check.scope {
        CheckScope::Candidate => absolute(check, read(ctx.candidate_id)),
        CheckScope::Baseline => absolute(check, read(ctx.baseline_id)),
        CheckScope::App => absolute(check, read(ctx.app_id)),
        CheckScope::Trace => absolute(check, read(ctx.trace_candidate_id)),
        CheckScope::CandidateVsBaseline => {
            let [cand, base] = ctx.both_sides(check, store, now);
            let verdict = |result| CheckObservation { result, primary: cand, baseline: Some(base) };
            if !enough(check, &cand) || !enough(check, &base) {
                return verdict(CheckResult::Inconclusive);
            }
            // Ratio semantics need a positive denominator: a negative
            // baseline mean would silently flip the comparator's
            // direction, and a zero/near-zero one explodes the ratio.
            if base.mean <= f64::EPSILON {
                return verdict(CheckResult::Inconclusive);
            }
            let ratio = cand.mean / base.mean;
            if check.comparator.holds(ratio, check.threshold) {
                verdict(CheckResult::Pass)
            } else {
                verdict(CheckResult::Fail)
            }
        }
        CheckScope::SequentialVsBaseline => {
            // Sequential checks are stateful — a running always-valid
            // p-value since phase start, which only the phase's own looks
            // carry. A stateless evaluation cannot conclude.
            let [cand, base] = ctx.both_sides(check, store, now);
            CheckObservation {
                result: CheckResult::Inconclusive,
                primary: cand,
                baseline: Some(base),
            }
        }
        CheckScope::SignificantVsBaseline => {
            let [cand, base] = ctx.both_sides(check, store, now);
            let verdict = |result| CheckObservation { result, primary: cand, baseline: Some(base) };
            if !enough(check, &cand) || !enough(check, &base) {
                return verdict(CheckResult::Inconclusive);
            }
            let Some(test) = welch_test(&cand, &base) else {
                return verdict(CheckResult::Inconclusive);
            };
            // Sequential-monitoring semantics: pass on significance in the
            // desired direction, fail only on significant *harm* (the
            // opposite direction), otherwise keep collecting — mid-phase
            // noise must not abort a test that simply has not converged
            // yet. A phase that never converges ends inconclusive and is
            // retried/rolled back by its `on inconclusive` action.
            let alpha = check.threshold;
            let (desired, opposite) = match check.comparator {
                Comparator::Gt | Comparator::Ge => {
                    (test.significantly_greater(alpha), test.significantly_less(alpha))
                }
                Comparator::Lt | Comparator::Le => {
                    (test.significantly_less(alpha), test.significantly_greater(alpha))
                }
            };
            if desired {
                verdict(CheckResult::Pass)
            } else if opposite {
                verdict(CheckResult::Fail)
            } else {
                verdict(CheckResult::Inconclusive)
            }
        }
    }
}

/// Whether a window holds enough observations for a verdict. An empty one
/// never does, even with `min_samples: 0`: it summarizes to count 0 and
/// mean 0.0, and a verdict derived from that fabricated zero is a bug, not
/// a measurement.
fn enough(check: &Check, summary: &Summary) -> bool {
    summary.count > 0 && summary.count >= check.min_samples
}

/// The verdict of an absolute check on the window summary it read.
fn absolute(check: &Check, summary: Summary) -> CheckObservation {
    let result = if !enough(check, &summary) {
        CheckResult::Inconclusive
    } else if check.comparator.holds(summary.mean, check.threshold) {
        CheckResult::Pass
    } else {
        CheckResult::Fail
    };
    CheckObservation { result, primary: summary, baseline: None }
}

/// Partners for paired reads: entry `i` is the check that shares check
/// `i`'s scope and window but reads another metric, for the absolute
/// scopes (both read one series each). Each check has at most one
/// partner, the first free one after it, and pairing is symmetric.
fn absolute_partners(checks: &[Check]) -> Vec<Option<usize>> {
    let mut partners = vec![None; checks.len()];
    for (i, a) in checks.iter().enumerate() {
        let absolute = matches!(
            a.scope,
            CheckScope::Candidate | CheckScope::Baseline | CheckScope::App | CheckScope::Trace
        );
        if partners[i].is_some() || !absolute {
            continue;
        }
        let partner = (i + 1..checks.len()).find(|&j| {
            let b = &checks[j];
            partners[j].is_none()
                && (b.scope, b.window) == (a.scope, a.window)
                && b.metric != a.metric
        });
        if let Some(j) = partner {
            (partners[i], partners[j]) = (Some(j), Some(i));
        }
    }
    partners
}

/// Two partnered absolute checks ([`absolute_partners`]) at `now` from one
/// paired read: the observations and windowed reads of two
/// [`evaluate_observed`] calls. Panics unless both checks are absolute.
fn evaluate_partners(
    a: &Check,
    b: &Check,
    ctx: &CheckContext,
    store: &MetricStore,
    now: SimTime,
) -> [CheckObservation; 2] {
    debug_assert_eq!(a.window, b.window, "partners read one window");
    let series = |c: &Check| (ctx.absolute_id(c.scope).expect("an absolute check"), c.metric);
    let [x, y] = store.window_summary_pair(series(a), series(b), now, a.window);
    [absolute(a, x), absolute(b, y)]
}

/// Significance level of a sequential check: its `threshold` is a
/// confidence level, so α = 1 − confidence.
pub fn sequential_alpha(check: &Check) -> f64 {
    1.0 - check.threshold
}

/// Per-(run, check) state of a [`CheckScope::SequentialVsBaseline`] check:
/// the running always-valid p-values for both directions, the frozen
/// mixing scale, and the instantaneous harm evidence the guarded ramp
/// reads. Reset on every phase (re-)entry; advanced in place by every
/// informative look.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SequentialState {
    p_desired: f64,
    p_harm: f64,
    tau: Option<f64>,
    lr_harm: f64,
}

impl Default for SequentialState {
    fn default() -> Self {
        Self::new()
    }
}

impl SequentialState {
    /// Fresh state: no evidence either way.
    pub fn new() -> Self {
        SequentialState { p_desired: 1.0, p_harm: 1.0, tau: None, lr_harm: 0.0 }
    }

    /// Running always-valid p for the desired direction (per the check's
    /// comparator). Monotone non-increasing; crossing α is absorbing.
    pub fn p_desired(&self) -> f64 {
        self.p_desired
    }

    /// Running always-valid p for the harm direction.
    pub fn p_harm(&self) -> f64 {
        self.p_harm
    }

    /// Instantaneous harm-direction likelihood ratio at the latest look —
    /// *not* a running extreme: under a healthy candidate it decays back
    /// toward zero as evidence accumulates, which is what lets a guarded
    /// ramp resume advancing after a transient scare.
    pub fn lr_harm(&self) -> f64 {
        self.lr_harm
    }

    /// Folds one informative look into the state: the running p-values
    /// only ever fall, `tau` freezes at the first look, `lr_harm` is the
    /// latest. Folding the same look twice leaves the state where one
    /// fold left it.
    pub(crate) fn fold(&mut self, tau: f64, p_desired: f64, p_harm: f64, lr_harm: f64) {
        self.p_desired = self.p_desired.min(p_desired);
        self.p_harm = self.p_harm.min(p_harm);
        self.tau.get_or_insert(tau);
        self.lr_harm = lr_harm;
    }

    /// The verdict at significance level `alpha`. Harm takes precedence
    /// over benefit when both directions have crossed (only possible after
    /// a sign flip at extreme evidence — safety wins).
    pub fn verdict(&self, alpha: f64) -> CheckResult {
        if self.p_harm <= alpha {
            CheckResult::Fail
        } else if self.p_desired <= alpha {
            CheckResult::Pass
        } else {
            CheckResult::Inconclusive
        }
    }
}

/// Where one sequential check's two cumulative window reads left off
/// ([`WindowCursor`]): moved on by every look, fresh on phase (re-)entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct SequentialWindows {
    candidate: WindowCursor,
    baseline: WindowCursor,
}

/// Evaluates a sequential check at `now` against the *cumulative* windows
/// since `phase_start`, advancing `state` and `windows` in place: an
/// informative look is folded into `state` (after which
/// [`SequentialState::verdict`] is the returned observation's result), and
/// every look, informative or not, moves `windows` on. A second look at
/// the same `now` changes neither and returns the same observation.
///
/// The two one-sided always-valid p processes are sign-gated: a look only
/// lowers the p of the direction its observed effect points to. Each side
/// is a running minimum of `min(1, 1/Λ_n)`, so by Ville's inequality the
/// probability of ever crossing α under the null is at most α per side —
/// regardless of how often the engine peeks.
fn evaluate_sequential(
    check: &Check,
    ctx: &CheckContext,
    store: &MetricStore,
    phase_start: SimTime,
    now: SimTime,
    state: &mut SequentialState,
    windows: &mut SequentialWindows,
) -> CheckObservation {
    let window = now.saturating_since(phase_start);
    let read =
        |scope, cursor| store.window_summary_resumed(scope, check.metric, now, window, cursor);
    let (cand, candidate) = read(ctx.candidate_id, &windows.candidate);
    let (base, baseline) = read(ctx.baseline_id, &windows.baseline);
    *windows = SequentialWindows { candidate, baseline };
    let alpha = sequential_alpha(check);
    let observed = |result| CheckObservation { result, primary: cand, baseline: Some(base) };
    if !enough(check, &cand) || !enough(check, &base) {
        // Too little data for a new look; the verdict so far stands (a
        // crossed p is absorbing, it cannot be un-concluded by silence).
        return observed(state.verdict(alpha));
    }
    // τ must stay fixed over the run for the always-valid guarantee: pin
    // it from the check, or freeze the data-driven heuristic at the first
    // informative look.
    let tau = match state.tau.or(check.tau).or_else(|| tau_heuristic(&cand, &base)) {
        Some(tau) => tau,
        None => return observed(state.verdict(alpha)),
    };
    let Some(test) = msprt(&cand, &base, tau) else {
        return observed(state.verdict(alpha));
    };
    let desired_positive = matches!(check.comparator, Comparator::Gt | Comparator::Ge);
    let toward_desired = if desired_positive { test.theta > 0.0 } else { test.theta < 0.0 };
    let toward_harm = if desired_positive { test.theta < 0.0 } else { test.theta > 0.0 };
    let p_look = test.p_value();
    state.fold(
        tau,
        if toward_desired { p_look } else { 1.0 },
        if toward_harm { p_look } else { 1.0 },
        if toward_harm { test.lambda() } else { 0.0 },
    );
    observed(state.verdict(alpha))
}

/// The checks of one phase run, looked at together. Made on every phase
/// (re-)entry: checks are rescheduled, sequential tests start from scratch
/// and their cumulative windows anchor at the entry time.
pub(crate) struct PhaseChecks {
    started: SimTime,
    next_due: Vec<SimTime>,
    /// Each check's partner for a paired read ([`absolute_partners`]).
    partners: Vec<Option<usize>>,
    /// Per-check sequential-test state (non-sequential entries stay at
    /// their default) and resumable window reads, reset together.
    sequential: Vec<SequentialState>,
    windows: Vec<SequentialWindows>,
    /// The checks due this tick: one buffer for the phase, so the per-tick
    /// loop allocates nothing for it.
    due: Vec<usize>,
}

impl PhaseChecks {
    /// The checks of a phase entered at `started`, each first due one
    /// interval later (the window needs time to fill).
    pub(crate) fn new(checks: &[Check], started: SimTime) -> Self {
        PhaseChecks {
            started,
            next_due: checks.iter().map(|c| started + c.interval).collect(),
            partners: absolute_partners(checks),
            sequential: vec![SequentialState::new(); checks.len()],
            windows: vec![SequentialWindows::default(); checks.len()],
            due: Vec::with_capacity(checks.len()),
        }
    }

    /// Finds the checks due at or before `now`, moving each one's next due
    /// time past `now`. A check that fell several intervals behind fires
    /// once (looks are idempotent reads of the trailing window — catch-up
    /// storms would be wasted work).
    pub(crate) fn schedule(&mut self, checks: &[Check], now: SimTime) {
        self.due.clear();
        for (i, next) in self.next_due.iter_mut().enumerate() {
            if *next <= now {
                self.due.push(i);
                while *next <= now {
                    *next += checks[i].interval;
                }
            }
        }
    }

    /// Looks at the checks [`PhaseChecks::schedule`] found due and, when
    /// the phase clock has run out, at every check of `phase` once more,
    /// each list in index order. A sequential look advances its state and
    /// windows as it goes; a check looked at twice in one tick lands where
    /// one look would have left it. A check whose partner is looked at in
    /// the same pass is read with it, in one paired read.
    pub(crate) fn look(
        &mut self,
        phase: &Phase,
        ctx: &CheckContext,
        store: &MetricStore,
        now: SimTime,
    ) -> TickObservation {
        let PhaseChecks { started, partners, sequential, windows, due, .. } = self;
        let mut eval = |indices: &[usize]| -> Vec<Evaluation> {
            let mut observed = vec![None; indices.len()];
            for (p, &i) in indices.iter().enumerate() {
                if observed[p].is_some() {
                    continue;
                }
                let check = &phase.checks[i];
                let partner = partners[i].and_then(|j| {
                    indices[p + 1..].iter().position(|&k| k == j).map(|q| (j, p + 1 + q))
                });
                if let Some((j, q)) = partner {
                    let [a, b] = evaluate_partners(check, &phase.checks[j], ctx, store, now);
                    (observed[p], observed[q]) = (Some(a), Some(b));
                } else if check.scope == CheckScope::SequentialVsBaseline {
                    let (state, cursors) = (&mut sequential[i], &mut windows[i]);
                    let look =
                        evaluate_sequential(check, ctx, store, *started, now, state, cursors);
                    observed[p] = Some(look);
                } else {
                    observed[p] = Some(evaluate_observed(check, ctx, store, now));
                }
            }
            let observed = observed.into_iter().map(|o| o.expect("every check looked at"));
            indices.iter().copied().zip(observed).collect()
        };
        let due_results = eval(due);
        let at_boundary = now.saturating_since(*started) >= phase.duration;
        let boundary_results =
            at_boundary.then(|| eval(&(0..phase.checks.len()).collect::<Vec<_>>()));
        TickObservation { due_results, boundary_results }
    }

    /// Each check's sequential state, every look so far folded in.
    pub(crate) fn sequential(&self) -> &[SequentialState] {
        &self.sequential
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Comparator;
    use cex_core::metrics::MetricKind;
    use cex_core::simtime::SimDuration;

    fn ctx(store: &mut MetricStore) -> CheckContext {
        CheckContext::new(store, "svc@2".into(), "svc@1".into())
    }

    fn evaluate(
        check: &Check,
        ctx: &CheckContext,
        store: &MetricStore,
        now: SimTime,
    ) -> CheckResult {
        evaluate_observed(check, ctx, store, now).result
    }

    fn fill(store: &mut MetricStore, scope: &str, value: f64, n: u64) {
        for i in 0..n {
            store.record_value(
                scope,
                MetricKind::ResponseTime,
                SimTime::from_millis(i * 100),
                value,
            );
        }
    }

    #[test]
    fn candidate_check_passes_and_fails() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 50.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 100.0);
        check.window = SimDuration::from_secs(10);
        let now = SimTime::from_secs(3);
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Pass);
        check.threshold = 10.0;
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Fail);
    }

    #[test]
    fn partnered_checks_are_read_in_pairs_and_judged_as_alone() {
        use CheckScope::{App, Candidate, CandidateVsBaseline, SequentialVsBaseline, Trace};
        use MetricKind::{ErrorRate as Err, ResponseTime as Rt};
        let check = |scope, metric, window_s| {
            let mut check = Check::candidate(metric, Comparator::Lt, 40.0);
            (check.scope, check.window, check.min_samples) =
                (scope, SimDuration::from_secs(window_s), 1);
            check
        };
        let checks = [
            check(SequentialVsBaseline, Rt, 60),
            check(Candidate, Err, 120),
            check(Candidate, Rt, 120),
            check(App, Err, 60),
            // Another window than its scope's other check.
            check(Candidate, Rt, 60),
            check(App, Rt, 60),
            // Its one match is taken, and another of its own metric is not one.
            check(App, Rt, 60),
            // Two-sided checks read their two series as a pair already.
            check(CandidateVsBaseline, Err, 60),
            check(CandidateVsBaseline, Rt, 60),
            check(Trace, Rt, 120),
            check(Trace, Err, 120),
        ];
        let partners = absolute_partners(&checks);
        let expected = [None, Some(2), Some(1), Some(5), None, Some(3), None, None, None];
        assert_eq!(partners, [&expected[..], &[Some(10), Some(9)]].concat());

        let mut store = MetricStore::new();
        let ctx = ctx(&mut store);
        for scope in ["svc@2", microsim::sim::APP_SCOPE, "trace:svc@2"] {
            for i in 0..900 {
                let t = SimTime::from_millis(i * 100);
                store.record_value(scope, Rt, t, (i % 83) as f64);
                store.record_value(scope, Err, t, (i % 7 == 0) as u64 as f64);
            }
        }
        let now = SimTime::from_secs(90);
        for (i, partner) in partners.iter().enumerate() {
            let Some(j) = *partner else { continue };
            let reads = store.window_reads();
            let paired = evaluate_partners(&checks[i], &checks[j], &ctx, &store, now);
            assert_eq!(store.window_reads(), reads + 2, "a pair is two reads");
            let alone = [i, j].map(|k| evaluate_observed(&checks[k], &ctx, &store, now));
            assert_eq!(paired, alone, "checks {i} and {j}");
        }
    }

    #[test]
    fn too_few_samples_is_inconclusive() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 50.0, 5);
        let check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 100.0);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(1)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn relative_check_compares_ratio() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        fill(&mut store, "svc@1", 100.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        let now = SimTime::from_secs(3);
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Pass);
        check.threshold = 1.1;
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Fail);
    }

    #[test]
    fn relative_check_needs_both_sides() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn zero_baseline_mean_is_inconclusive() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        fill(&mut store, "svc@1", 0.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn negative_baseline_mean_is_inconclusive() {
        // Regression: a negative baseline mean used to flip the
        // comparator's direction silently — candidate 120 vs baseline
        // -100 gives ratio -1.2, which "passes" `< 1.25` even though the
        // candidate is clearly not below 1.25× the baseline.
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        fill(&mut store, "svc@1", -100.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
        // The flipped direction must not sneak through either.
        check.comparator = Comparator::Gt;
        check.threshold = -2.0;
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn near_zero_baseline_mean_is_inconclusive() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        fill(&mut store, "svc@1", f64::EPSILON / 2.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn observed_evaluation_carries_the_windows_it_read() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 120.0, 30);
        fill(&mut store, "svc@1", 100.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 1.25);
        check.scope = CheckScope::CandidateVsBaseline;
        check.window = SimDuration::from_secs(10);
        let obs = evaluate_observed(&check, &ctx(&mut store), &store, SimTime::from_secs(3));
        assert_eq!(obs.result, CheckResult::Pass);
        assert_eq!(obs.primary.count, 30);
        assert!((obs.primary.mean - 120.0).abs() < 1e-12);
        let base = obs.baseline.expect("two-sided scope records the baseline window");
        assert!((base.mean - 100.0).abs() < 1e-12);

        check.scope = CheckScope::Candidate;
        let obs = evaluate_observed(&check, &ctx(&mut store), &store, SimTime::from_secs(3));
        assert_eq!(obs.baseline, None);
        assert!((obs.primary.mean - 120.0).abs() < 1e-12);
    }

    #[test]
    fn trace_scope_reads_the_trace_derived_scope() {
        let mut store = MetricStore::new();
        // First-party candidate stream says 500 ms; the trace-derived
        // scope says 50 ms. A trace-scoped check must read the latter.
        fill(&mut store, "svc@2", 500.0, 30);
        fill(&mut store, "trace:svc@2", 50.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 100.0);
        check.scope = CheckScope::Trace;
        check.window = SimDuration::from_secs(10);
        let now = SimTime::from_secs(3);
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Pass);
        // Without trace data the scope is empty: inconclusive, never a
        // false verdict.
        let mut empty = MetricStore::new();
        fill(&mut empty, "svc@2", 50.0, 30);
        assert_eq!(evaluate(&check, &ctx(&mut empty), &empty, now), CheckResult::Inconclusive);
    }

    #[test]
    fn check_result_names_round_trip() {
        for r in [CheckResult::Pass, CheckResult::Fail, CheckResult::Inconclusive] {
            assert_eq!(CheckResult::from_name(r.name()), Some(r));
        }
        assert_eq!(CheckResult::from_name("maybe"), None);
    }

    #[test]
    fn baseline_scope_reads_baseline() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@1", 500.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 100.0);
        check.scope = CheckScope::Baseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Fail
        );
    }

    #[test]
    fn app_scope_reads_the_application_rollup() {
        let mut store = MetricStore::new();
        fill(&mut store, microsim::sim::APP_SCOPE, 150.0, 30);
        fill(&mut store, "svc@2", 900.0, 30);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 200.0);
        check.scope = CheckScope::App;
        check.window = SimDuration::from_secs(10);
        // Passes on the app rollup even though the candidate scope would
        // fail — the app scope is what users actually experience.
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Pass
        );
    }

    #[test]
    fn significance_check_detects_real_differences() {
        use cex_core::rng::SplitMix64;
        let mut store = MetricStore::new();
        let mut rng = SplitMix64::new(42);
        // Candidate converts at 6%, baseline at 2%, 400 samples each.
        for i in 0..400u64 {
            let t = SimTime::from_millis(i * 20);
            store.record_value(
                "svc@2",
                MetricKind::ConversionRate,
                t,
                if rng.next_f64() < 0.06 { 1.0 } else { 0.0 },
            );
            store.record_value(
                "svc@1",
                MetricKind::ConversionRate,
                t,
                if rng.next_f64() < 0.02 { 1.0 } else { 0.0 },
            );
        }
        let mut check = Check::candidate(MetricKind::ConversionRate, Comparator::Gt, 0.05);
        check.scope = CheckScope::SignificantVsBaseline;
        check.window = SimDuration::from_secs(10);
        check.min_samples = 100;
        let now = SimTime::from_secs(9);
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Pass);
        // The wrong direction is not significant.
        check.comparator = Comparator::Lt;
        assert_eq!(evaluate(&check, &ctx(&mut store), &store, now), CheckResult::Fail);
    }

    #[test]
    fn significance_check_rejects_noise() {
        use cex_core::rng::SplitMix64;
        let mut store = MetricStore::new();
        let mut rng = SplitMix64::new(7);
        // Identical 2% conversion on both sides.
        for i in 0..400u64 {
            let t = SimTime::from_millis(i * 20);
            store.record_value(
                "svc@2",
                MetricKind::ConversionRate,
                t,
                if rng.next_f64() < 0.02 { 1.0 } else { 0.0 },
            );
            store.record_value(
                "svc@1",
                MetricKind::ConversionRate,
                t,
                if rng.next_f64() < 0.02 { 1.0 } else { 0.0 },
            );
        }
        let mut check = Check::candidate(MetricKind::ConversionRate, Comparator::Gt, 0.05);
        check.scope = CheckScope::SignificantVsBaseline;
        check.window = SimDuration::from_secs(10);
        check.min_samples = 100;
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(9)),
            CheckResult::Inconclusive,
            "a null effect is neither shipped nor treated as harm"
        );
    }

    #[test]
    fn significance_check_needs_samples() {
        let mut store = MetricStore::new();
        fill(&mut store, "svc@2", 1.0, 5);
        fill(&mut store, "svc@1", 1.0, 5);
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Gt, 0.05);
        check.scope = CheckScope::SignificantVsBaseline;
        check.window = SimDuration::from_secs(10);
        assert_eq!(
            evaluate(&check, &ctx(&mut store), &store, SimTime::from_secs(3)),
            CheckResult::Inconclusive
        );
    }

    #[test]
    fn empty_window_is_inconclusive_even_with_zero_min_samples() {
        // Regression: with `min_samples: 0` an empty window's Summary
        // (count 0, mean 0.0) used to produce a Pass/Fail verdict from a
        // fabricated zero in every scope that derives one.
        let mut store = MetricStore::new();
        let mut check = Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 100.0);
        check.min_samples = 0;
        check.window = SimDuration::from_secs(10);
        let now = SimTime::from_secs(3);
        for scope in [
            CheckScope::Candidate,
            CheckScope::Baseline,
            CheckScope::App,
            CheckScope::Trace,
            CheckScope::CandidateVsBaseline,
            CheckScope::SignificantVsBaseline,
        ] {
            check.scope = scope;
            assert_eq!(
                evaluate(&check, &ctx(&mut store), &store, now),
                CheckResult::Inconclusive,
                "scope {scope:?} must not conclude on an empty window"
            );
        }
        // One side empty is just as inconclusive for the two-sided scopes.
        fill(&mut store, "svc@2", 120.0, 30);
        for scope in [CheckScope::CandidateVsBaseline, CheckScope::SignificantVsBaseline] {
            check.scope = scope;
            assert_eq!(
                evaluate(&check, &ctx(&mut store), &store, now),
                CheckResult::Inconclusive,
                "scope {scope:?} must not conclude on an empty baseline"
            );
        }
    }

    fn fill_rate(store: &mut MetricStore, scope: &str, rate: f64, n: u64, seed: u64) {
        use cex_core::rng::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        for i in 0..n {
            store.record_value(
                scope,
                MetricKind::ErrorRate,
                SimTime::from_millis(i * 20),
                if rng.next_f64() < rate { 1.0 } else { 0.0 },
            );
        }
    }

    #[test]
    fn sequential_check_concludes_harm_and_is_absorbing() {
        let mut store = MetricStore::new();
        // Candidate errors at 25%, baseline at 5%: conclusive harm for a
        // `<` (lower-is-better) sequential check.
        fill_rate(&mut store, "svc@2", 0.25, 600, 11);
        fill_rate(&mut store, "svc@1", 0.05, 600, 12);
        let mut check = Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95);
        check.min_samples = 50;
        let mut state = SequentialState::new();
        let mut windows = SequentialWindows::default();
        let obs = evaluate_sequential(
            &check,
            &ctx(&mut store),
            &store,
            SimTime::ZERO,
            SimTime::from_secs(60),
            &mut state,
            &mut windows,
        );
        assert_eq!(obs.result, CheckResult::Fail);
        assert_eq!(obs.primary.count, 600);
        assert!(state.p_harm() <= sequential_alpha(&check), "p_harm = {}", state.p_harm());
        assert!(state.tau.is_some(), "tau frozen at first look");
        assert!(state.lr_harm() > 1.0);
        // Absorbing: a later data-starved look cannot un-conclude.
        // (Another store's windows are ignored, not trusted.)
        let mut starved = MetricStore::new();
        let concluded = state;
        let obs = evaluate_sequential(
            &check,
            &ctx(&mut starved),
            &starved,
            SimTime::ZERO,
            SimTime::from_secs(90),
            &mut state,
            &mut windows,
        );
        assert_eq!(obs.result, CheckResult::Fail);
        assert_eq!(obs.primary, Summary::default());
        assert_eq!(state, concluded, "a starved look folds nothing");
    }

    #[test]
    fn sequential_check_concludes_benefit_in_the_desired_direction() {
        let mut store = MetricStore::new();
        // Candidate converts at 12%, baseline at 2%: desired direction for
        // a `>` check.
        let mut rng_fill = |scope: &str, rate: f64, seed: u64| {
            use cex_core::rng::SplitMix64;
            let mut rng = SplitMix64::new(seed);
            for i in 0..800u64 {
                store.record_value(
                    scope,
                    MetricKind::ConversionRate,
                    SimTime::from_millis(i * 20),
                    if rng.next_f64() < rate { 1.0 } else { 0.0 },
                );
            }
        };
        rng_fill("svc@2", 0.12, 21);
        rng_fill("svc@1", 0.02, 22);
        let mut check = Check::sequential(MetricKind::ConversionRate, Comparator::Gt, 0.95);
        check.min_samples = 100;
        check.tau = Some(0.1);
        let mut state = SequentialState::new();
        let obs = evaluate_sequential(
            &check,
            &ctx(&mut store),
            &store,
            SimTime::ZERO,
            SimTime::from_secs(60),
            &mut state,
            &mut SequentialWindows::default(),
        );
        assert_eq!(obs.result, CheckResult::Pass);
        assert_eq!(state.tau, Some(0.1), "pinned tau wins over the heuristic");
        assert!(state.p_desired() <= 0.05);
        assert_eq!(state.p_harm(), 1.0, "no harm-direction evidence from a benefit");
        assert_eq!(state.lr_harm(), 0.0);
    }

    #[test]
    fn sequential_check_stays_inconclusive_on_equal_sides() {
        let mut store = MetricStore::new();
        fill_rate(&mut store, "svc@2", 0.05, 500, 31);
        fill_rate(&mut store, "svc@1", 0.05, 500, 31); // same seed: identical stream
        let mut check = Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95);
        check.min_samples = 50;
        let obs = evaluate_sequential(
            &check,
            &ctx(&mut store),
            &store,
            SimTime::ZERO,
            SimTime::from_secs(60),
            &mut SequentialState::new(),
            &mut SequentialWindows::default(),
        );
        assert_eq!(obs.result, CheckResult::Inconclusive);
    }

    #[test]
    fn sequential_looks_resume_their_windows_to_the_same_bits() {
        // A run of looks carrying the windows forward reads exactly what
        // each look reads from scratch — on starved looks too, which still
        // hand the windows on.
        let mut store = MetricStore::new();
        fill_rate(&mut store, "svc@2", 0.2, 3_000, 41);
        fill_rate(&mut store, "svc@1", 0.05, 3_000, 42);
        let mut check = Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95);
        check.min_samples = 1_000;
        let (ctx, start) = (ctx(&mut store), SimTime::from_secs(2));
        let mut windows = SequentialWindows::default();
        let mut state = SequentialState::new();
        for secs in (5..=60).step_by(5) {
            let now = SimTime::from_secs(secs);
            let (before, carried) = (state, windows);
            let obs =
                evaluate_sequential(&check, &ctx, &store, start, now, &mut state, &mut windows);
            let (mut scratch_state, mut scratch) = (before, SequentialWindows::default());
            let fresh = evaluate_sequential(
                &check,
                &ctx,
                &store,
                start,
                now,
                &mut scratch_state,
                &mut scratch,
            );
            assert_eq!((&obs, state, windows), (&fresh, scratch_state, scratch), "at {secs}s");
            assert_eq!(state.tau.is_some(), obs.primary.count >= 1_000, "at {secs}s");
            assert_ne!(windows, carried, "every look moves the windows on");
        }
    }

    #[test]
    fn a_second_look_at_the_same_instant_changes_nothing() {
        // A check both due and at the phase boundary in one tick is looked
        // at twice at one `now`, and the second look starts from what the
        // first left: the running minima, the frozen tau and the latest
        // likelihood ratio fold to themselves, and the windows resume to
        // the same bits — on an informative look and on a starved one.
        let mut store = MetricStore::new();
        fill_rate(&mut store, "svc@2", 0.2, 3_000, 41);
        fill_rate(&mut store, "svc@1", 0.05, 3_000, 42);
        let mut check = Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95);
        check.min_samples = 1_000;
        let (ctx, start) = (ctx(&mut store), SimTime::from_secs(2));
        let mut windows = SequentialWindows::default();
        let mut state = SequentialState::new();
        let mut starved = 0;
        for secs in (10..=60).step_by(10) {
            let now = SimTime::from_secs(secs);
            let once =
                evaluate_sequential(&check, &ctx, &store, start, now, &mut state, &mut windows);
            let (after_one, windows_after_one) = (state, windows);
            let twice =
                evaluate_sequential(&check, &ctx, &store, start, now, &mut state, &mut windows);
            assert_eq!(
                (&twice, state, windows),
                (&once, after_one, windows_after_one),
                "at {secs}s"
            );
            starved += usize::from(once.primary.count < 1_000);
        }
        assert!((1..6).contains(&starved), "starved and informative looks both seen");
    }

    #[test]
    fn sequential_state_verdict_prefers_harm_and_warns_transiently() {
        let mut state = SequentialState::new();
        // (tau, p_desired, p_harm, lr_harm)
        state.fold(0.1, 0.01, 1.0, 0.0);
        assert_eq!(state.verdict(0.05), CheckResult::Pass);
        state.fold(0.2, 1.0, 0.02, 3.0);
        assert_eq!(state.verdict(0.05), CheckResult::Fail, "harm outranks benefit");
        assert_eq!(state.tau, Some(0.1), "tau frozen at first fold");
        assert!(state.lr_harm() >= 2.0);
        // The warning is instantaneous, not absorbing: a healthy look
        // clears it even though the running p-values never rise.
        state.fold(0.2, 1.0, 1.0, 0.4);
        assert!(state.lr_harm() < 2.0);
        assert_eq!(state.p_harm(), 0.02);
    }

    #[test]
    fn scheduler_fires_on_cadence() {
        let checks = vec![
            Check {
                interval: SimDuration::from_secs(10),
                ..Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 1.0)
            },
            Check {
                interval: SimDuration::from_secs(25),
                ..Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 1.0)
            },
        ];
        let mut phase = PhaseChecks::new(&checks, SimTime::ZERO);
        let mut due = |secs| {
            phase.schedule(&checks, SimTime::from_secs(secs));
            phase.due.clone()
        };
        assert_eq!(due(5), Vec::<usize>::new());
        assert_eq!(due(10), vec![0]);
        assert_eq!(due(10), Vec::<usize>::new(), "idempotent");
        assert_eq!(due(25), vec![0, 1]);
        // Falling far behind fires each check once, not per missed tick.
        assert_eq!(due(300), vec![0, 1]);
        // The due buffer is cleared on every call, not appended to.
        assert_eq!(due(301), Vec::<usize>::new());
    }

    #[test]
    fn scheduler_catch_up_realigns_to_the_cadence() {
        // A check that fell many intervals behind fires exactly once and
        // its next due time lands on the first cadence point after `now`
        // — no burst of catch-up evaluations, no drift.
        let checks = vec![Check {
            interval: SimDuration::from_secs(30),
            ..Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 1.0)
        }];
        let mut phase = PhaseChecks::new(&checks, SimTime::ZERO);
        let mut due = |now| {
            phase.schedule(&checks, now);
            phase.due.clone()
        };
        // 17 intervals behind (first due at 30s, now = 510s).
        assert_eq!(due(SimTime::from_secs(510)), vec![0]);
        // Not due again until the next 30-second boundary after 510s.
        assert_eq!(due(SimTime::from_secs(539)), Vec::<usize>::new());
        assert_eq!(due(SimTime::from_secs(540)), vec![0]);
        // One more giant gap: still a single firing.
        assert_eq!(due(SimTime::from_hours(3)), vec![0]);
        let later = SimTime::from_hours(3) + SimDuration::from_secs(29);
        assert_eq!(due(later), Vec::<usize>::new());
    }

    #[test]
    fn a_phase_looks_at_its_checks_as_one_check_at_a_time_would() {
        // Searched phases over one store: absolute checks sharing scope and
        // window (pairs, triples, other metrics), two-sided and sequential
        // checks, looked at over random due subsets, at and past the phase
        // boundary, and again at the same `now`. Every observation,
        // sequential state and window cursor, and the number of windowed
        // reads, must be what looking at one check at a time gives.
        use crate::model::{Action, PhaseKind};
        use cex_core::rng::SplitMix64;
        use CheckScope::*;
        use MetricKind::{ErrorRate, ResponseTime};
        let mut store = MetricStore::new();
        let ctx = ctx(&mut store);
        let mut rng = SplitMix64::new(1);
        let sides = [("svc@2", 0.2), ("svc@1", 0.1), (microsim::sim::APP_SCOPE, 0.1)];
        for (scope, error_rate) in sides.into_iter().chain([("trace:svc@2", 0.3)]) {
            for i in 0..2_400u64 {
                if rng.next_below(5) == 0 {
                    continue;
                }
                let t = SimTime::from_millis(i * 100);
                store.record_value(scope, ResponseTime, t, 20.0 + 40.0 * rng.next_f64());
                let errored = f64::from(u8::from(rng.next_f64() < error_rate));
                store.record_value(scope, ErrorRate, t, errored);
            }
        }
        let scopes = [Candidate, Candidate, App, App, Trace, Baseline];
        let scopes = [&scopes[..], &[CandidateVsBaseline, SignificantVsBaseline]].concat();
        let scopes = [&scopes[..], &[SequentialVsBaseline; 2]].concat();
        let absolute = |c: &Check| matches!(c.scope, Candidate | Baseline | App | Trace);
        let (mut pairs, mut triples, mut boundaries, mut repeats, mut informative) =
            (0, 0, 0, 0, 0);
        for seed in 0..400 {
            let mut rng = SplitMix64::new(seed);
            let checks: Vec<Check> = (0..1 + rng.next_index(8))
                .map(|_| Check {
                    metric: [ResponseTime, ErrorRate][rng.next_index(2)],
                    scope: scopes[rng.next_index(scopes.len())],
                    comparator: [Comparator::Lt, Comparator::Gt][rng.next_index(2)],
                    threshold: [0.15, 0.9, 1.1, 40.0][rng.next_index(4)],
                    window: SimDuration::from_secs([20, 60][rng.next_index(2)]),
                    interval: SimDuration::from_secs(10),
                    min_samples: [0, 20, 300][rng.next_index(3)],
                    tau: None,
                })
                .collect();
            triples += usize::from(checks.iter().any(|a| {
                let shared = |b: &&Check| absolute(b) && (b.scope, b.window) == (a.scope, a.window);
                checks.iter().filter(shared).count() >= 3
            }));
            let started = SimTime::from_secs(rng.next_below(60));
            let phase = Phase {
                name: "p".into(),
                kind: PhaseKind::Canary { traffic_percent: 10.0 },
                duration: SimDuration::from_secs(20 + rng.next_below(120)),
                checks,
                chaos: None,
                on_success: Action::Complete,
                on_failure: Action::Rollback,
                on_inconclusive: Action::Retry,
            };
            let n = phase.checks.len();
            let mut owner = PhaseChecks::new(&phase.checks, started);
            let mut alone = vec![(SequentialState::new(), SequentialWindows::default()); n];
            let mut now = started;
            for _ in 0..10 {
                if rng.next_below(4) == 0 {
                    repeats += 1;
                } else {
                    now += SimDuration::from_secs(1 + rng.next_below(30));
                }
                owner.due = (0..n).filter(|_| rng.next_below(2) == 0).collect();
                let before = store.window_reads();
                let seen = owner.look(&phase, &ctx, &store, now);
                let reads = store.window_reads() - before;
                let mut one = |i: usize| {
                    let check = &phase.checks[i];
                    if check.scope == SequentialVsBaseline {
                        let (state, windows) = &mut alone[i];
                        evaluate_sequential(check, &ctx, &store, started, now, state, windows)
                    } else {
                        evaluate_observed(check, &ctx, &store, now)
                    }
                };
                let due_results = owner.due.iter().map(|&i| (i, one(i))).collect();
                let boundary = now.saturating_since(started) >= phase.duration;
                let boundary_results = boundary.then(|| (0..n).map(|i| (i, one(i))).collect());
                let expected = TickObservation { due_results, boundary_results };
                assert_eq!(store.window_reads() - before - reads, reads, "seed {seed}: reads");
                assert_eq!(format!("{seen:?}"), format!("{expected:?}"), "seed {seed}");
                let (states, windows): (Vec<_>, Vec<_>) = alone.iter().copied().unzip();
                assert_eq!(
                    format!("{:?}", (&owner.sequential, &owner.windows)),
                    format!("{:?}", (&states, &windows)),
                    "seed {seed}"
                );
                boundaries += usize::from(boundary);
                let partnered =
                    |&&i: &&usize| owner.partners[i].is_some_and(|j| owner.due.contains(&j));
                pairs += owner.due.iter().filter(partnered).count();
            }
            informative += owner.sequential.iter().filter(|s| s.tau.is_some()).count();
        }
        // Paired reads, triples of one scope and window, boundary looks,
        // repeated instants and informative sequential looks were all met.
        let seen = [pairs, triples, boundaries, repeats, informative];
        assert!(seen.iter().zip([200, 10, 1000, 500, 200]).all(|(n, min)| *n > min), "{seen:?}");
    }
}
