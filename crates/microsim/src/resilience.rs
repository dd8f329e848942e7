//! Resilience layer: timeouts, retries, circuit breakers, fallbacks.
//!
//! Chapter 5's evaluation "introduced sub-scenarios involving simulated
//! performance issues", and staged-rollout practice pairs experimentation
//! with *guardrails* because windowed detection alone is too slow (Zhao
//! et al. 2019; Auer et al. 2021 list safety as a top open challenge).
//! This module gives the simulated microservice app the standard
//! mitigation toolbox so fault sub-scenarios become *recovery*
//! experiments rather than pure detection experiments:
//!
//! - [`CallPolicy`] — per-call attempt timeout, bounded retries with
//!   exponential backoff and deterministic jitter, optional fallback.
//! - [`BreakerPolicy`] / [`Breaker`] — a per-(caller-version,
//!   callee-version) circuit breaker with a rolling error-rate window,
//!   open-cooldown, and half-open probing.
//! - [`Simulation::set_call_policy`](crate::sim::Simulation::set_call_policy)
//!   — one policy for every service edge, the null policy until one is
//!   set: breakers are still tracked per *version* pair.
//! - [`ResilienceState`] — all mutable breaker state, owned by the
//!   simulation so that same-seed runs are byte-identical.
//!
//! # Determinism
//!
//! Every stochastic choice (retry jitter) draws from the simulation's
//! own [`SplitMix64`] stream at the point in the request walk where the
//! retry happens, so the RNG consumption order is a pure function of the
//! seed. Breaker state lives in a [`BTreeMap`] keyed by version-id pairs
//! — iteration order, and hence any serialization of transitions, is
//! deterministic. No wall-clock time is consulted anywhere.

use crate::app::VersionId;
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Resilience policy for one caller→callee service edge.
///
/// The default is the null policy: no timeout, no retries, no breaker,
/// no fallback. Every call runs under it until another is set, so
/// attaching it changes nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CallPolicy {
    /// Per-attempt deadline. Attempts that take longer count as failures
    /// and the caller stops waiting at the deadline.
    pub attempt_timeout: Option<SimDuration>,
    /// Extra attempts after the first one fails (0 = no retries).
    pub max_retries: u32,
    /// Backoff before the first retry; later retries multiply it by
    /// [`CallPolicy::backoff_multiplier`] per attempt.
    pub backoff_base: SimDuration,
    /// Exponential growth factor for the backoff (>= 1).
    pub backoff_multiplier: f64,
    /// Jitter fraction in `0.0..=1.0`: each backoff is scaled by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]` using the
    /// sim RNG. Zero draws nothing from the RNG.
    pub jitter: f64,
    /// Circuit breaker configuration, if any.
    pub breaker: Option<BreakerPolicy>,
    /// Serve a degraded-but-successful response when the call is shed or
    /// every attempt failed.
    pub fallback: bool,
    /// Latency of the fallback response (cache read, static default).
    pub fallback_latency: SimDuration,
}

impl Default for CallPolicy {
    fn default() -> Self {
        CallPolicy {
            attempt_timeout: None,
            max_retries: 0,
            backoff_base: SimDuration::from_millis(50),
            backoff_multiplier: 2.0,
            jitter: 0.0,
            breaker: None,
            fallback: false,
            fallback_latency: SimDuration::from_millis(1),
        }
    }
}

impl CallPolicy {
    /// The backoff delay before retry number `retry` (0-based), with
    /// jitter drawn from `rng` when configured.
    ///
    /// The jitter factor is uniform in `[1 - jitter, 1 + jitter]`, the
    /// "equal jitter" scheme: it decorrelates retry storms without ever
    /// collapsing the delay to zero. With `jitter == 0.0` the RNG is not
    /// consumed at all, so policies without jitter do not perturb the
    /// workload's random stream.
    pub fn backoff_delay(&self, retry: u32, rng: &mut SplitMix64) -> SimDuration {
        let base = self.backoff_base.mul_f64(self.backoff_multiplier.powi(retry as i32));
        if self.jitter > 0.0 {
            let factor = 1.0 - self.jitter + 2.0 * self.jitter * rng.next_f64();
            base.mul_f64(factor)
        } else {
            base
        }
    }

    /// Validates domain constraints.
    ///
    /// # Panics
    ///
    /// Panics when the multiplier is below 1, the jitter is outside
    /// `0.0..=1.0`, or a breaker policy is itself invalid.
    pub fn validate(&self) {
        assert!(self.backoff_multiplier >= 1.0, "backoff must not shrink");
        assert!((0.0..=1.0).contains(&self.jitter), "jitter in 0..=1");
        if let Some(breaker) = &self.breaker {
            breaker.validate();
        }
    }
}

/// Circuit-breaker configuration for one call edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// Rolling error rate at or above which the breaker opens.
    pub error_threshold: f64,
    /// Minimum outcomes in the rolling window before the threshold is
    /// consulted (avoids opening on one unlucky call).
    pub min_calls: u32,
    /// Rolling window size in outcomes (count-based, not time-based, so
    /// behaviour is independent of request rate units).
    pub window: u32,
    /// How long the breaker stays open before probing (half-open).
    pub cooldown: SimDuration,
    /// Consecutive half-open successes required to close again.
    pub half_open_probes: u32,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 50,
            cooldown: SimDuration::from_secs(10),
            half_open_probes: 3,
        }
    }
}

impl BreakerPolicy {
    /// Validates domain constraints.
    ///
    /// # Panics
    ///
    /// Panics when the threshold is outside `0.0..=1.0`, the window or
    /// probe count is zero, or the cooldown is zero.
    pub fn validate(&self) {
        assert!((0.0..=1.0).contains(&self.error_threshold), "threshold in 0..=1");
        assert!(self.window > 0, "window must hold at least one outcome");
        assert!(self.half_open_probes > 0, "need at least one probe");
        assert!(!self.cooldown.is_zero(), "cooldown must be positive");
    }
}

/// The three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerState {
    /// Calls flow normally; outcomes feed the rolling window.
    Closed,
    /// Calls are shed without reaching the callee.
    Open,
    /// Cooldown elapsed; probe calls are let through one at a time.
    HalfOpen,
}

impl BreakerState {
    /// Canonical lowercase name, used by the execution journal.
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Parses the name produced by [`BreakerState::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "closed" => BreakerState::Closed,
            "open" => BreakerState::Open,
            "half_open" => BreakerState::HalfOpen,
            _ => return None,
        })
    }
}

/// Whether a guarded call may proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallDecision {
    /// Execute the call (closed breaker, or a half-open probe).
    Allow,
    /// Shed the call without executing it (breaker open).
    Shed,
}

/// One state transition of one breaker, in occurrence order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerTransition {
    /// When the transition happened.
    pub time: SimTime,
    /// The calling version.
    pub caller: VersionId,
    /// The called version.
    pub callee: VersionId,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// One circuit breaker: state machine plus rolling outcome window.
///
/// The window is a fixed-capacity ring of booleans (`true` = error) with
/// an incrementally maintained error count, so recording an outcome is
/// O(1) on the request hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct Breaker {
    state: BreakerState,
    outcomes: Vec<bool>,
    next_slot: usize,
    errors: u32,
    opened_at: SimTime,
    half_open_successes: u32,
}

impl Breaker {
    fn new() -> Self {
        Breaker {
            state: BreakerState::Closed,
            outcomes: Vec::new(),
            next_slot: 0,
            errors: 0,
            opened_at: SimTime::ZERO,
            half_open_successes: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Rolling error rate over the current window, or `None` while the
    /// window is empty.
    pub fn error_rate(&self) -> Option<f64> {
        (!self.outcomes.is_empty()).then(|| self.errors as f64 / self.outcomes.len() as f64)
    }

    fn reset_window(&mut self) {
        self.outcomes.clear();
        self.next_slot = 0;
        self.errors = 0;
    }

    fn record_outcome(&mut self, policy: &BreakerPolicy, error: bool) {
        let cap = policy.window as usize;
        if self.outcomes.len() < cap {
            self.outcomes.push(error);
        } else {
            let evicted = std::mem::replace(&mut self.outcomes[self.next_slot], error);
            if evicted {
                self.errors -= 1;
            }
            self.next_slot = (self.next_slot + 1) % cap;
        }
        if error {
            self.errors += 1;
        }
    }

    /// Asks whether a call may proceed at `now`. A breaker whose
    /// cooldown has elapsed moves to half-open here (the transition is
    /// returned so the caller can record it).
    fn decide(
        &mut self,
        policy: &BreakerPolicy,
        now: SimTime,
    ) -> (CallDecision, Option<(BreakerState, BreakerState)>) {
        match self.state {
            BreakerState::Closed => (CallDecision::Allow, None),
            BreakerState::HalfOpen => (CallDecision::Allow, None),
            BreakerState::Open => {
                if now.saturating_since(self.opened_at) >= policy.cooldown {
                    self.state = BreakerState::HalfOpen;
                    self.half_open_successes = 0;
                    (CallDecision::Allow, Some((BreakerState::Open, BreakerState::HalfOpen)))
                } else {
                    (CallDecision::Shed, None)
                }
            }
        }
    }

    /// Feeds one call outcome observed at `now` (`error == true` for a
    /// failure or timeout). Returns the transition it caused, if any.
    fn on_outcome(
        &mut self,
        policy: &BreakerPolicy,
        now: SimTime,
        error: bool,
    ) -> Option<(BreakerState, BreakerState)> {
        match self.state {
            BreakerState::Closed => {
                self.record_outcome(policy, error);
                let total = self.outcomes.len() as u32;
                if total >= policy.min_calls
                    && self.errors as f64 / total as f64 >= policy.error_threshold
                {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.reset_window();
                    Some((BreakerState::Closed, BreakerState::Open))
                } else {
                    None
                }
            }
            BreakerState::HalfOpen => {
                if error {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                    self.half_open_successes = 0;
                    Some((BreakerState::HalfOpen, BreakerState::Open))
                } else {
                    self.half_open_successes += 1;
                    if self.half_open_successes >= policy.half_open_probes {
                        self.state = BreakerState::Closed;
                        self.reset_window();
                        Some((BreakerState::HalfOpen, BreakerState::Closed))
                    } else {
                        None
                    }
                }
            }
            // Outcomes can land while open when a call admitted earlier
            // (e.g. a retry sequence straddling the opening) completes;
            // they are ignored so stale results cannot re-close a breaker.
            BreakerState::Open => None,
        }
    }
}

/// All mutable resilience state of one simulation: breakers per
/// (caller-version, callee-version) pair plus the transition log.
///
/// Owned by the [`Simulation`](crate::sim::Simulation) so breaker state
/// evolves deterministically with the request stream and survives across
/// windows — a breaker opened in one engine tick is still open in the
/// next.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceState {
    breakers: BTreeMap<(VersionId, VersionId), Breaker>,
    transitions: Vec<BreakerTransition>,
}

impl ResilienceState {
    /// Fresh state: every breaker closed, no transitions.
    pub fn new() -> Self {
        ResilienceState::default()
    }

    /// The state of the breaker on one version edge, or `None` if that
    /// edge has never seen a guarded call.
    pub fn breaker_state(&self, caller: VersionId, callee: VersionId) -> Option<BreakerState> {
        self.breakers.get(&(caller, callee)).map(|b| b.state())
    }

    /// Drains the accumulated transitions in occurrence order.
    pub fn drain_transitions(&mut self) -> Vec<BreakerTransition> {
        std::mem::take(&mut self.transitions)
    }

    /// Scratch-buffer variant of [`ResilienceState::drain_transitions`]:
    /// clears `out` and moves the accumulated transitions into it, so
    /// steady-state drive loops reuse one allocation per tick.
    pub fn drain_transitions_into(&mut self, out: &mut Vec<BreakerTransition>) {
        out.clear();
        out.append(&mut self.transitions);
    }

    /// Moves all breakers out, leaving this state empty — the event core
    /// runs each window on a fresh state holding them, so the transitions
    /// that state logs are the window's alone.
    pub(crate) fn take_breakers(&mut self) -> BTreeMap<(VersionId, VersionId), Breaker> {
        std::mem::take(&mut self.breakers)
    }

    /// Re-inserts breakers previously moved out with
    /// [`ResilienceState::take_breakers`].
    pub(crate) fn absorb_breakers(&mut self, breakers: BTreeMap<(VersionId, VersionId), Breaker>) {
        for (key, breaker) in breakers {
            self.breakers.insert(key, breaker);
        }
    }

    /// Appends one transition to the log — the event core's canonical
    /// merge replays a window's transitions in event-key order.
    pub(crate) fn record_transition(&mut self, transition: BreakerTransition) {
        self.transitions.push(transition);
    }

    /// Transitions accumulated since the last drain.
    pub fn transitions(&self) -> &[BreakerTransition] {
        &self.transitions
    }

    /// Asks the breaker on `caller → callee` whether a call may proceed
    /// at `now`, creating the breaker on first use.
    pub fn decide(
        &mut self,
        caller: VersionId,
        callee: VersionId,
        policy: &BreakerPolicy,
        now: SimTime,
    ) -> CallDecision {
        let breaker = self.breakers.entry((caller, callee)).or_insert_with(Breaker::new);
        let (decision, transition) = breaker.decide(policy, now);
        if let Some((from, to)) = transition {
            self.transitions.push(BreakerTransition { time: now, caller, callee, from, to });
        }
        decision
    }

    /// Feeds one call outcome into the breaker on `caller → callee`.
    /// Returns the transition it caused, if any.
    pub fn on_outcome(
        &mut self,
        caller: VersionId,
        callee: VersionId,
        policy: &BreakerPolicy,
        now: SimTime,
        error: bool,
    ) -> Option<(BreakerState, BreakerState)> {
        let breaker = self.breakers.entry((caller, callee)).or_insert_with(Breaker::new);
        let transition = breaker.on_outcome(policy, now, error);
        if let Some((from, to)) = transition {
            self.transitions.push(BreakerTransition { time: now, caller, callee, from, to });
        }
        transition
    }

    /// Current state of the breaker on `caller → callee` without
    /// creating it (closed when it has never seen a call).
    pub fn current(&self, caller: VersionId, callee: VersionId) -> BreakerState {
        self.breaker_state(caller, callee).unwrap_or(BreakerState::Closed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> BreakerPolicy {
        BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 4,
            window: 8,
            cooldown: SimDuration::from_secs(10),
            half_open_probes: 2,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn breaker_opens_at_threshold_after_min_calls() {
        let mut b = Breaker::new();
        let p = policy();
        // Three straight errors: below min_calls, must stay closed.
        for i in 0..3 {
            assert_eq!(b.on_outcome(&p, t(i), true), None);
            assert_eq!(b.state(), BreakerState::Closed);
        }
        // Fourth error reaches min_calls with 100% errors: opens.
        assert_eq!(b.on_outcome(&p, t(3), true), Some((BreakerState::Closed, BreakerState::Open)));
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn breaker_stays_closed_below_threshold() {
        let mut b = Breaker::new();
        let p = policy();
        // 2 errors in 8 calls = 25% < 50% at every prefix: stays closed.
        for i in 0..8 {
            b.on_outcome(&p, t(i), i % 4 == 1);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.error_rate(), Some(2.0 / 8.0));
    }

    #[test]
    fn rolling_window_evicts_old_outcomes() {
        let mut b = Breaker::new();
        let p = policy();
        // Fill the window with errors but stay one short of min_calls
        // each time the rate is consulted — impossible here, so instead:
        // fill with successes, then verify old successes rotate out.
        for i in 0..8 {
            b.on_outcome(&p, t(i), false);
        }
        assert_eq!(b.error_rate(), Some(0.0));
        // Four errors overwrite four successes: 4/8 = 50% >= threshold.
        for i in 8..11 {
            assert_eq!(b.on_outcome(&p, t(i), true), None);
        }
        assert_eq!(b.on_outcome(&p, t(11), true), Some((BreakerState::Closed, BreakerState::Open)));
    }

    #[test]
    fn open_sheds_until_cooldown_then_half_open_probes() {
        let mut b = Breaker::new();
        let p = policy();
        for i in 0..4 {
            b.on_outcome(&p, t(i), true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // Within cooldown: shed.
        assert_eq!(b.decide(&p, t(5)).0, CallDecision::Shed);
        assert_eq!(b.decide(&p, t(12)).0, CallDecision::Shed);
        // Cooldown (10s from t=3) elapsed: half-open, probe allowed.
        let (decision, transition) = b.decide(&p, t(13));
        assert_eq!(decision, CallDecision::Allow);
        assert_eq!(transition, Some((BreakerState::Open, BreakerState::HalfOpen)));
        // One success is not enough (2 probes required).
        assert_eq!(b.on_outcome(&p, t(13), false), None);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Second success closes.
        assert_eq!(
            b.on_outcome(&p, t(14), false),
            Some((BreakerState::HalfOpen, BreakerState::Closed))
        );
        assert_eq!(b.error_rate(), None, "window resets on close");
    }

    #[test]
    fn half_open_failure_reopens_and_restarts_cooldown() {
        let mut b = Breaker::new();
        let p = policy();
        for i in 0..4 {
            b.on_outcome(&p, t(i), true);
        }
        assert_eq!(b.decide(&p, t(13)).0, CallDecision::Allow);
        assert_eq!(
            b.on_outcome(&p, t(13), true),
            Some((BreakerState::HalfOpen, BreakerState::Open))
        );
        // Cooldown restarts from t=13: shed at t=20, probe at t=23.
        assert_eq!(b.decide(&p, t(20)).0, CallDecision::Shed);
        assert_eq!(b.decide(&p, t(23)).0, CallDecision::Allow);
    }

    #[test]
    fn outcomes_while_open_are_ignored() {
        let mut b = Breaker::new();
        let p = policy();
        for i in 0..4 {
            b.on_outcome(&p, t(i), true);
        }
        assert_eq!(b.state(), BreakerState::Open);
        // A straggler success from a call admitted before opening must
        // not close the breaker.
        assert_eq!(b.on_outcome(&p, t(4), false), None);
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn state_records_transitions_in_order_and_drains() {
        let mut state = ResilienceState::new();
        let p = policy();
        let (a, b) = (VersionId(0), VersionId(1));
        for i in 0..4 {
            state.on_outcome(a, b, &p, t(i), true);
        }
        assert_eq!(state.breaker_state(a, b), Some(BreakerState::Open));
        assert_eq!(state.decide(a, b, &p, t(13)), CallDecision::Allow);
        state.on_outcome(a, b, &p, t(13), false);
        state.on_outcome(a, b, &p, t(14), false);
        let transitions = state.drain_transitions();
        let shape: Vec<(BreakerState, BreakerState)> =
            transitions.iter().map(|tr| (tr.from, tr.to)).collect();
        assert_eq!(
            shape,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Closed),
            ]
        );
        assert!(state.drain_transitions().is_empty(), "drain empties the log");
        assert_eq!(state.current(a, b), BreakerState::Closed);
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let policy = CallPolicy {
            backoff_base: SimDuration::from_millis(100),
            backoff_multiplier: 2.0,
            jitter: 0.0,
            ..CallPolicy::default()
        };
        let mut rng = SplitMix64::new(1);
        assert_eq!(policy.backoff_delay(0, &mut rng), SimDuration::from_millis(100));
        assert_eq!(policy.backoff_delay(1, &mut rng), SimDuration::from_millis(200));
        assert_eq!(policy.backoff_delay(2, &mut rng), SimDuration::from_millis(400));

        let jittered = CallPolicy { jitter: 0.5, ..policy };
        let mut rng = SplitMix64::new(42);
        for retry in 0..10 {
            let base = 100.0 * 2f64.powi(retry);
            let delay = jittered.backoff_delay(retry as u32, &mut rng).as_millis() as f64;
            assert!(delay >= base * 0.5 - 1.0 && delay <= base * 1.5 + 1.0);
        }
    }

    #[test]
    fn backoff_without_jitter_leaves_rng_untouched() {
        let policy = CallPolicy { jitter: 0.0, ..CallPolicy::default() };
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        policy.backoff_delay(0, &mut a);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn breaker_state_names_round_trip() {
        for state in [BreakerState::Closed, BreakerState::Open, BreakerState::HalfOpen] {
            assert_eq!(BreakerState::from_name(state.name()), Some(state));
        }
        assert_eq!(BreakerState::from_name("ajar"), None);
    }

    #[test]
    #[should_panic(expected = "cooldown must be positive")]
    fn zero_cooldown_rejected() {
        BreakerPolicy { cooldown: SimDuration::ZERO, ..BreakerPolicy::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "jitter in 0..=1")]
    fn out_of_range_jitter_rejected() {
        CallPolicy { jitter: 1.5, ..CallPolicy::default() }.validate();
    }
}
