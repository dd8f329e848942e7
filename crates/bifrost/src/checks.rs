//! Check scheduling and evaluation (Figure 4.3).
//!
//! Each check runs on its own cadence: a [`CheckScheduler`] tracks per-
//! check due times ("time-based execution of multiple checks"), and
//! [`evaluate`] reads the trailing window from the metric store and turns
//! it into a [`CheckResult`]. A check with too few observations is
//! *inconclusive* — it neither passes nor fails the phase, which is what
//! drives the retry action when not enough data was collected.

use crate::model::{Check, CheckScope, Comparator};
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
/// [`evaluate`].
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

    /// Interned id of the candidate scope.
    pub fn candidate_id(&self) -> ScopeId {
        self.candidate_id
    }

    /// Interned id of the baseline scope.
    pub fn baseline_id(&self) -> ScopeId {
        self.baseline_id
    }

    /// Interned id of the end-to-end application scope.
    pub fn app_id(&self) -> ScopeId {
        self.app_id
    }

    /// Interned id of the candidate's trace-derived scope.
    pub fn trace_candidate_id(&self) -> ScopeId {
        self.trace_candidate_id
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

/// Evaluates one check at `now` against the store.
pub fn evaluate(
    check: &Check,
    ctx: &CheckContext,
    store: &MetricStore,
    now: SimTime,
) -> CheckResult {
    evaluate_observed(check, ctx, store, now).result
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
            // The `count == 0` guard is load-bearing even with
            // `min_samples: 0`: an empty window summarizes to count 0 and
            // mean 0.0, and a verdict derived from that fabricated zero is
            // a bug, not a measurement.
            if cand.count == 0
                || base.count == 0
                || cand.count < check.min_samples
                || base.count < check.min_samples
            {
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
            // p-value since phase start — so the engine evaluates them via
            // [`evaluate_sequential`]. A stateless evaluation cannot
            // conclude.
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
            if cand.count == 0
                || base.count == 0
                || cand.count < check.min_samples
                || base.count < check.min_samples
            {
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

/// The verdict of an absolute check on the window summary it read.
fn absolute(check: &Check, summary: Summary) -> CheckObservation {
    // An empty window must stay inconclusive even with `min_samples: 0` —
    // its summary carries a fabricated mean of 0.0, not a measurement.
    let result = if summary.count == 0 || summary.count < check.min_samples {
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
pub fn absolute_partners(checks: &[Check]) -> Vec<Option<usize>> {
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

/// Evaluates two partnered absolute checks ([`absolute_partners`]) at
/// `now` with one paired read of their two series: the same two
/// observations as two [`evaluate_observed`] calls, and the same two
/// windowed reads.
///
/// # Panics
///
/// Panics when the two checks are not both absolute; in debug builds, also
/// when their windows differ.
pub fn evaluate_partners(
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
/// informative look ([`evaluate_sequential`]).
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

    /// The mixing scale τ, once frozen at the first informative look.
    pub fn tau(&self) -> Option<f64> {
        self.tau
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

    /// `true` while the latest look shows instantaneous harm evidence at
    /// likelihood ratio `warn_lr` or stronger — the guarded ramp's
    /// hold/retreat signal.
    pub fn warns(&self, warn_lr: f64) -> bool {
        self.lr_harm >= warn_lr
    }
}

/// Where the two cumulative window reads of one sequential check left
/// off (see [`WindowCursor`]). Kept per (run, check) beside the
/// [`SequentialState`] and handled the same way: moved on in place by every
/// look, fresh on every phase (re-)entry.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SequentialWindows {
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
pub fn evaluate_sequential(
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
    if cand.count == 0
        || base.count == 0
        || cand.count < check.min_samples
        || base.count < check.min_samples
    {
        // Too little data for a new look; the verdict so far stands (a
        // crossed p is absorbing, it cannot be un-concluded by silence).
        return observed(state.verdict(alpha));
    }
    // τ must stay fixed over the run for the always-valid guarantee: pin
    // it from the check, or freeze the data-driven heuristic at the first
    // informative look.
    let tau = match state.tau().or(check.tau).or_else(|| tau_heuristic(&cand, &base)) {
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

/// Tracks when each check of a phase is next due.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckScheduler {
    next_due: Vec<SimTime>,
}

impl CheckScheduler {
    /// Creates a scheduler for `checks`, with the first evaluation of each
    /// check one interval after `phase_start` (the window needs time to
    /// fill).
    pub fn new(checks: &[Check], phase_start: SimTime) -> Self {
        CheckScheduler { next_due: checks.iter().map(|c| phase_start + c.interval).collect() }
    }

    /// Fills `due` with the indices of the checks due at or before `now`,
    /// advancing each one's next due time past `now`. A check that fell
    /// multiple intervals behind fires once (evaluations are idempotent
    /// reads of the trailing window — catch-up storms would be wasted
    /// work). Takes a caller-owned scratch buffer (cleared first) so the
    /// engine's per-tick hot loop reuses one allocation per strategy
    /// instead of allocating a fresh `Vec` every tick.
    pub fn due(&mut self, checks: &[Check], now: SimTime, due: &mut Vec<usize>) {
        due.clear();
        for (i, next) in self.next_due.iter_mut().enumerate() {
            if *next <= now {
                due.push(i);
                let interval = checks[i].interval;
                while *next <= now {
                    *next += interval;
                }
            }
        }
    }

    /// Number of scheduled checks.
    pub fn len(&self) -> usize {
        self.next_due.len()
    }

    /// `true` when no checks are scheduled.
    pub fn is_empty(&self) -> bool {
        self.next_due.is_empty()
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
        assert!(state.tau().is_some(), "tau frozen at first look");
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
        assert_eq!(state.tau(), Some(0.1), "pinned tau wins over the heuristic");
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
            assert_eq!(state.tau().is_some(), obs.primary.count >= 1_000, "at {secs}s");
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
        assert_eq!(state.tau(), Some(0.1), "tau frozen at first fold");
        assert!(state.warns(2.0));
        // The warning is instantaneous, not absorbing: a healthy look
        // clears it even though the running p-values never rise.
        state.fold(0.2, 1.0, 1.0, 0.4);
        assert!(!state.warns(2.0));
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
        let mut sched = CheckScheduler::new(&checks, SimTime::ZERO);
        let mut due = Vec::new();
        assert_eq!(sched.len(), 2);
        sched.due(&checks, SimTime::from_secs(5), &mut due);
        assert_eq!(due, Vec::<usize>::new());
        sched.due(&checks, SimTime::from_secs(10), &mut due);
        assert_eq!(due, vec![0]);
        sched.due(&checks, SimTime::from_secs(10), &mut due);
        assert_eq!(due, Vec::<usize>::new(), "idempotent");
        sched.due(&checks, SimTime::from_secs(25), &mut due);
        assert_eq!(due, vec![0, 1]);
        // Falling far behind fires each check once, not per missed tick.
        sched.due(&checks, SimTime::from_secs(300), &mut due);
        assert_eq!(due, vec![0, 1]);
        // The scratch buffer is cleared on every call, not appended to.
        sched.due(&checks, SimTime::from_secs(301), &mut due);
        assert_eq!(due, Vec::<usize>::new());
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
        let mut sched = CheckScheduler::new(&checks, SimTime::ZERO);
        let mut due = Vec::new();
        // 17 intervals behind (first due at 30s, now = 510s).
        sched.due(&checks, SimTime::from_secs(510), &mut due);
        assert_eq!(due, vec![0]);
        // Not due again until the next 30-second boundary after 510s.
        sched.due(&checks, SimTime::from_secs(539), &mut due);
        assert_eq!(due, Vec::<usize>::new());
        sched.due(&checks, SimTime::from_secs(540), &mut due);
        assert_eq!(due, vec![0]);
        // One more giant gap: still a single firing.
        sched.due(&checks, SimTime::from_hours(3), &mut due);
        assert_eq!(due, vec![0]);
        sched.due(&checks, SimTime::from_hours(3) + SimDuration::from_secs(29), &mut due);
        assert_eq!(due, Vec::<usize>::new());
    }
}
