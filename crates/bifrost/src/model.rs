//! The live-testing model (Section 4.3).
//!
//! A [`Strategy`] is the unit of experimentation-as-code: it names the
//! service, its baseline and candidate versions, and an ordered list of
//! [`Phase`]s. Each phase applies one experimentation practice
//! ([`PhaseKind`]) with a set of [`Check`]s and declares, via [`Action`]s,
//! what happens on success, failure, or an inconclusive outcome —
//! the *conditional chaining* that lets a canary flow into a dark launch,
//! an A/B test, and a gradual rollout, with automated rollbacks on spotted
//! irregularities.

use crate::error::BifrostError;
use cex_core::metrics::MetricKind;
use cex_core::simtime::SimDuration;
use std::fmt;

/// The experimentation practice a phase applies (Section 2.2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum PhaseKind {
    /// Route `traffic_percent` of users to the candidate, the rest to the
    /// baseline.
    Canary {
        /// Candidate share of users, `0.0..=100.0`.
        traffic_percent: f64,
    },
    /// All users stay on the baseline; production traffic is duplicated to
    /// the candidate whose responses are discarded.
    DarkLaunch,
    /// Split experimental traffic between variant A (the candidate) and
    /// variant B (`Strategy::variant_b`, or the baseline as control when
    /// absent), `split_percent` each.
    AbTest {
        /// Share of users per variant, `0.0..=50.0`.
        split_percent: f64,
    },
    /// Step-wise increase of the candidate share from `from_percent` to
    /// `to_percent`.
    GradualRollout {
        /// Starting candidate share.
        from_percent: f64,
        /// Final candidate share.
        to_percent: f64,
        /// Increment per step.
        step_percent: f64,
        /// Time spent per step.
        step_duration: SimDuration,
        /// Check-guarded adaptive ramping: when `true`, the engine advances
        /// a step only while none of the phase's sequential checks
        /// ([`CheckScope::SequentialVsBaseline`]) shows instantaneous
        /// evidence of harm, retreats a step while one does, and still
        /// aborts outright when a guard's always-valid p-value concludes
        /// harm. Requires at least one sequential check in the phase.
        guarded: bool,
    },
}

impl PhaseKind {
    /// Canonical keyword, shared with the DSL.
    pub fn keyword(&self) -> &'static str {
        match self {
            PhaseKind::Canary { .. } => "canary",
            PhaseKind::DarkLaunch => "dark_launch",
            PhaseKind::AbTest { .. } => "ab_test",
            PhaseKind::GradualRollout { .. } => "gradual_rollout",
        }
    }
}

/// Against what a check's threshold is compared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckScope {
    /// The candidate version's metric window.
    Candidate,
    /// The baseline version's metric window.
    Baseline,
    /// The ratio candidate/baseline — a relative regression check (e.g.
    /// "candidate response time < 1.2× baseline").
    CandidateVsBaseline,
    /// Welch's t-test between candidate and baseline windows: the check
    /// passes when the candidate mean is *significantly* greater (for
    /// `>`/`>=`) or smaller (for `<`/`<=`) than the baseline's, at
    /// significance level `threshold` — the rigorous hypothesis testing
    /// that characterizes business-driven experiments (Table 2.5).
    SignificantVsBaseline,
    /// Always-valid sequential test (mixture SPRT,
    /// [`cex_core::sequential`]) between the candidate's and baseline's
    /// *cumulative* windows since phase start. `threshold` is the
    /// confidence level (e.g. `0.95`): the check passes the moment the
    /// always-valid p-value for the desired direction (per the comparator)
    /// drops to `1 - threshold`, and fails the moment the opposite
    /// direction does — valid under continuous monitoring, unlike
    /// [`CheckScope::SignificantVsBaseline`], whose fixed-α re-testing
    /// inflates the realized false-abort rate ("peeking"). A conclusive
    /// verdict lets the engine end the phase early.
    SequentialVsBaseline,
    /// The end-to-end application scope (user-perceived metrics) — what
    /// chaos-recovery phases bound: "whatever happens to the candidate,
    /// users must not feel it".
    App,
    /// The candidate's *trace-derived* metric window: per-span samples
    /// distilled from sampled traces into the `trace:service@version`
    /// scope by the engine's trace drain. Unlike [`CheckScope::Candidate`]
    /// (first-party monitor stream, every request), this sees exactly what
    /// the trace pipeline sees — including retry attempts as individual
    /// observations — and is inconclusive when trace sampling is off.
    Trace,
}

impl CheckScope {
    /// Canonical lowercase name used by the execution journal.
    pub fn name(self) -> &'static str {
        match self {
            CheckScope::Candidate => "candidate",
            CheckScope::Baseline => "baseline",
            CheckScope::CandidateVsBaseline => "vs_baseline",
            CheckScope::SignificantVsBaseline => "significant_vs_baseline",
            CheckScope::SequentialVsBaseline => "sequential_vs_baseline",
            CheckScope::App => "app",
            CheckScope::Trace => "trace",
        }
    }

    /// Parses the name produced by [`CheckScope::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "candidate" => CheckScope::Candidate,
            "baseline" => CheckScope::Baseline,
            "vs_baseline" => CheckScope::CandidateVsBaseline,
            "significant_vs_baseline" => CheckScope::SignificantVsBaseline,
            "sequential_vs_baseline" => CheckScope::SequentialVsBaseline,
            "app" => CheckScope::App,
            "trace" => CheckScope::Trace,
            _ => return None,
        })
    }
}

/// Threshold comparator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparator {
    /// Strictly less than.
    Lt,
    /// Less than or equal.
    Le,
    /// Strictly greater than.
    Gt,
    /// Greater than or equal.
    Ge,
}

impl Comparator {
    /// Applies the comparator.
    pub fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Comparator::Lt => value < threshold,
            Comparator::Le => value <= threshold,
            Comparator::Gt => value > threshold,
            Comparator::Ge => value >= threshold,
        }
    }

    /// DSL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Comparator::Lt => "<",
            Comparator::Le => "<=",
            Comparator::Gt => ">",
            Comparator::Ge => ">=",
        }
    }
}

/// One health criterion, evaluated repeatedly during a phase (Figure 4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The monitored metric.
    pub metric: MetricKind,
    /// What the threshold is compared against.
    pub scope: CheckScope,
    /// Comparator relating the observed value to the threshold.
    pub comparator: Comparator,
    /// Threshold in the metric's unit (a ratio for
    /// [`CheckScope::CandidateVsBaseline`], the significance level α for
    /// [`CheckScope::SignificantVsBaseline`], the confidence level for
    /// [`CheckScope::SequentialVsBaseline`]).
    pub threshold: f64,
    /// Length of the trailing evaluation window. Ignored by
    /// [`CheckScope::SequentialVsBaseline`], which always reads the
    /// cumulative window since phase start (a sequential test is defined
    /// over *all* evidence gathered so far).
    pub window: SimDuration,
    /// Evaluation cadence.
    pub interval: SimDuration,
    /// Observations needed inside the window before the check is
    /// conclusive.
    pub min_samples: u64,
    /// Mixing scale τ of the sequential test's effect-size prior, in the
    /// metric's unit ([`CheckScope::SequentialVsBaseline`] only). `None`
    /// freezes the data-driven default
    /// ([`cex_core::sequential::tau_heuristic`]) at the first conclusive
    /// look.
    pub tau: Option<f64>,
}

impl Check {
    /// A candidate-scoped check with a 1-minute window, 30-second cadence
    /// and a 20-sample conclusiveness floor.
    pub fn candidate(metric: MetricKind, comparator: Comparator, threshold: f64) -> Self {
        Check {
            metric,
            scope: CheckScope::Candidate,
            comparator,
            threshold,
            window: SimDuration::from_secs(60),
            interval: SimDuration::from_secs(30),
            min_samples: 20,
            tau: None,
        }
    }

    /// A sequential-vs-baseline check at the given confidence level, with
    /// a 30-second cadence and a 20-sample conclusiveness floor.
    pub fn sequential(metric: MetricKind, comparator: Comparator, confidence: f64) -> Self {
        Check {
            metric,
            scope: CheckScope::SequentialVsBaseline,
            comparator,
            threshold: confidence,
            window: SimDuration::ZERO,
            interval: SimDuration::from_secs(30),
            min_samples: 20,
            tau: None,
        }
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.scope == CheckScope::SequentialVsBaseline {
            write!(
                f,
                "check {} sequential vs baseline {} confidence {} every {}",
                self.metric,
                self.comparator.symbol(),
                self.threshold,
                self.interval
            )
        } else {
            write!(
                f,
                "check {} {} {} over {} every {}",
                self.metric,
                self.comparator.symbol(),
                self.threshold,
                self.window,
                self.interval
            )
        }
    }
}

/// What a scheduled chaos injection inflicts on its target version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChaosKind {
    /// Service times multiplied by this factor (>= 1).
    LatencySpike {
        /// Latency multiplier.
        multiplier: f64,
    },
    /// Additional failure probability on every hop.
    ErrorBurst {
        /// Extra error rate in `0.0..=1.0`.
        extra_error_rate: f64,
    },
    /// Every request to the target fails.
    Outage,
    /// A cascading latency-spike storm: every version in the target zone
    /// suffers the multiplier, with staggered starts that all end together
    /// (see `microsim::faults::latency_storm`). Only valid with a
    /// [`ChaosTarget::Zone`] target.
    LatencyStorm {
        /// Latency multiplier applied to every zone member.
        multiplier: f64,
    },
}

impl ChaosKind {
    /// Canonical keyword, shared with the DSL and the journal.
    pub fn keyword(&self) -> &'static str {
        match self {
            ChaosKind::LatencySpike { .. } => "latency_spike",
            ChaosKind::ErrorBurst { .. } => "error_burst",
            ChaosKind::Outage => "outage",
            ChaosKind::LatencyStorm { .. } => "latency_storm",
        }
    }
}

/// Which of the strategy's versions a chaos injection strikes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosTarget {
    /// The candidate version.
    Candidate,
    /// The baseline version.
    Baseline,
    /// Every version deployed with this zone label — the correlated-fault
    /// target (`inject zone_outage "zone"`).
    Zone(String),
}

impl ChaosTarget {
    /// Canonical keyword, shared with the DSL.
    pub fn keyword(&self) -> &'static str {
        match self {
            ChaosTarget::Candidate => "candidate",
            ChaosTarget::Baseline => "baseline",
            ChaosTarget::Zone(_) => "zone",
        }
    }

    /// Parses the keyword produced by [`ChaosTarget::keyword`] (version
    /// targets only; zone targets carry a label and are parsed by the DSL).
    pub fn from_keyword(name: &str) -> Option<Self> {
        Some(match name {
            "candidate" => ChaosTarget::Candidate,
            "baseline" => ChaosTarget::Baseline,
            _ => return None,
        })
    }
}

/// A scheduled fault window inside a phase — the chaos half of a
/// chaos-recovery experiment. The engine injects the corresponding
/// `FaultPlan` window when it enacts the phase; the phase's checks (and
/// the journaled breaker transitions) then assert *recovery*.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// What to inflict.
    pub kind: ChaosKind,
    /// Which version suffers it.
    pub target: ChaosTarget,
    /// Delay from phase enactment to the window start (lets the phase
    /// establish a healthy steady state first).
    pub start_after: SimDuration,
    /// Window length (`[start, start + duration)` in fault-plan terms).
    pub duration: SimDuration,
}

/// What happens when a phase concludes (the conditional-chaining edges).
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Jump to the named phase.
    Goto(String),
    /// Finish the strategy successfully: the candidate is promoted to all
    /// users.
    Complete,
    /// Abort: every user returns to the baseline version (the fallback
    /// state of the execution model).
    Rollback,
    /// Re-execute the current phase (e.g. when not enough data was
    /// collected).
    Retry,
}

impl fmt::Display for Action {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Action::Goto(name) => write!(f, "goto \"{name}\""),
            Action::Complete => f.write_str("complete"),
            Action::Rollback => f.write_str("rollback"),
            Action::Retry => f.write_str("retry"),
        }
    }
}

/// One phase of a strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Phase name, unique within the strategy.
    pub name: String,
    /// The practice this phase applies.
    pub kind: PhaseKind,
    /// Maximum phase duration; when it elapses without a failed check the
    /// phase concludes (success if conclusive, inconclusive otherwise).
    pub duration: SimDuration,
    /// Health criteria evaluated during the phase.
    pub checks: Vec<Check>,
    /// Optional scheduled fault window (chaos-recovery experiments).
    pub chaos: Option<ChaosSpec>,
    /// Action on success.
    pub on_success: Action,
    /// Action on a conclusively failed check.
    pub on_failure: Action,
    /// Action when the phase ends without enough data (defaults to
    /// [`Action::Retry`]).
    pub on_inconclusive: Action,
}

/// A complete live-testing strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    /// Strategy name.
    pub name: String,
    /// Service under experimentation.
    pub service: String,
    /// Stable version label.
    pub baseline: String,
    /// Experimental version label (variant A in A/B phases).
    pub candidate: String,
    /// Optional second experimental version (variant B in A/B phases).
    pub variant_b: Option<String>,
    /// Ordered phases; execution starts at the first.
    pub phases: Vec<Phase>,
}

impl Strategy {
    /// Validates structural invariants:
    ///
    /// - at least one phase, unique phase names,
    /// - every `goto` targets an existing phase,
    /// - percents within range, positive durations/windows/intervals,
    /// - gradual rollouts move forward (`from <= to`, positive step),
    /// - an A/B phase with no `variant_b` is allowed (baseline control).
    ///
    /// # Errors
    ///
    /// Returns [`BifrostError::InvalidStrategy`] describing the first
    /// violated invariant.
    pub fn validate(&self) -> Result<(), BifrostError> {
        let invalid = |msg: String| Err(BifrostError::InvalidStrategy(msg));
        if self.phases.is_empty() {
            return invalid(format!("strategy {} has no phases", self.name));
        }
        if self.service.is_empty() || self.baseline.is_empty() || self.candidate.is_empty() {
            return invalid(format!(
                "strategy {} must name service, baseline, candidate",
                self.name
            ));
        }
        if self.baseline == self.candidate {
            return invalid(format!("strategy {}: baseline equals candidate", self.name));
        }
        for (i, phase) in self.phases.iter().enumerate() {
            if self.phases[..i].iter().any(|p| p.name == phase.name) {
                return invalid(format!("duplicate phase name {}", phase.name));
            }
            if phase.duration.is_zero() {
                return invalid(format!("phase {} has zero duration", phase.name));
            }
            match &phase.kind {
                PhaseKind::Canary { traffic_percent } => {
                    if !(0.0..=100.0).contains(traffic_percent) {
                        return invalid(format!(
                            "phase {}: canary percent out of range",
                            phase.name
                        ));
                    }
                }
                PhaseKind::AbTest { split_percent } => {
                    if !(0.0..=50.0).contains(split_percent) {
                        return invalid(format!(
                            "phase {}: A/B split out of 0..=50 range",
                            phase.name
                        ));
                    }
                }
                PhaseKind::GradualRollout {
                    from_percent,
                    to_percent,
                    step_percent,
                    step_duration,
                    guarded,
                } => {
                    if !(0.0..=100.0).contains(from_percent)
                        || !(0.0..=100.0).contains(to_percent)
                        || from_percent > to_percent
                    {
                        return invalid(format!("phase {}: rollout range invalid", phase.name));
                    }
                    if *step_percent <= 0.0 {
                        return invalid(format!(
                            "phase {}: rollout step must be positive",
                            phase.name
                        ));
                    }
                    if step_duration.is_zero() {
                        return invalid(format!(
                            "phase {}: rollout step duration is zero",
                            phase.name
                        ));
                    }
                    if *guarded
                        && !phase.checks.iter().any(|c| c.scope == CheckScope::SequentialVsBaseline)
                    {
                        return invalid(format!(
                            "phase {}: guarded rollout needs a sequential check",
                            phase.name
                        ));
                    }
                }
                PhaseKind::DarkLaunch => {}
            }
            for check in &phase.checks {
                if check.interval.is_zero() {
                    return invalid(format!(
                        "phase {}: checks need a positive interval",
                        phase.name
                    ));
                }
                if check.interval > phase.duration {
                    // The scheduler's first due time is phase_start +
                    // interval; an interval past the phase boundary means
                    // the check never fires mid-phase and the phase runs
                    // unguarded. Reject the misconfiguration outright.
                    return invalid(format!(
                        "phase {}: check interval {} exceeds phase duration {}",
                        phase.name, check.interval, phase.duration
                    ));
                }
                if check.scope == CheckScope::SequentialVsBaseline {
                    if !(0.5..1.0).contains(&check.threshold) {
                        return invalid(format!(
                            "phase {}: sequential confidence must be in 0.5..1.0",
                            phase.name
                        ));
                    }
                    if let Some(tau) = check.tau {
                        if tau <= 0.0 {
                            return invalid(format!(
                                "phase {}: sequential tau must be positive",
                                phase.name
                            ));
                        }
                    }
                } else if check.window.is_zero() {
                    return invalid(format!("phase {}: checks need a positive window", phase.name));
                }
            }
            if let Some(chaos) = &phase.chaos {
                if chaos.duration.is_zero() {
                    return invalid(format!("phase {}: chaos window is empty", phase.name));
                }
                match chaos.kind {
                    // Finite too: an over-long digit string parses to `inf`,
                    // which the journal could write (`null`) but not read.
                    ChaosKind::LatencySpike { multiplier } => {
                        if !(1.0..f64::INFINITY).contains(&multiplier) {
                            return invalid(format!(
                                "phase {}: chaos latency multiplier below 1 or not finite",
                                phase.name
                            ));
                        }
                    }
                    ChaosKind::ErrorBurst { extra_error_rate } => {
                        if !(0.0..=1.0).contains(&extra_error_rate) {
                            return invalid(format!(
                                "phase {}: chaos error rate out of 0..=1",
                                phase.name
                            ));
                        }
                    }
                    ChaosKind::Outage => {}
                    ChaosKind::LatencyStorm { multiplier } => {
                        if !(1.0..f64::INFINITY).contains(&multiplier) {
                            return invalid(format!(
                                "phase {}: chaos latency multiplier below 1 or not finite",
                                phase.name
                            ));
                        }
                        if !matches!(chaos.target, ChaosTarget::Zone(_)) {
                            return invalid(format!(
                                "phase {}: latency_storm needs a zone target",
                                phase.name
                            ));
                        }
                    }
                }
                if let ChaosTarget::Zone(zone) = &chaos.target {
                    if zone.is_empty() {
                        return invalid(format!("phase {}: chaos zone label is empty", phase.name));
                    }
                }
            }
            for action in [&phase.on_success, &phase.on_failure, &phase.on_inconclusive] {
                if let Action::Goto(target) = action {
                    if !self.phases.iter().any(|p| &p.name == target) {
                        return invalid(format!(
                            "phase {}: goto targets unknown phase {target}",
                            phase.name
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Looks up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total number of checks across phases (the x-axis of Figures 4.9
    /// and 4.10).
    pub fn check_count(&self) -> usize {
        self.phases.iter().map(|p| p.checks.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample_strategy() -> Strategy {
        Strategy {
            name: "rec-rollout".into(),
            service: "recommendation".into(),
            baseline: "1.0.0".into(),
            candidate: "1.1.0".into(),
            variant_b: None,
            phases: vec![
                Phase {
                    name: "canary".into(),
                    kind: PhaseKind::Canary { traffic_percent: 5.0 },
                    duration: SimDuration::from_mins(10),
                    checks: vec![Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 0.05)],
                    chaos: None,
                    on_success: Action::Goto("rollout".into()),
                    on_failure: Action::Rollback,
                    on_inconclusive: Action::Retry,
                },
                Phase {
                    name: "rollout".into(),
                    kind: PhaseKind::GradualRollout {
                        from_percent: 10.0,
                        to_percent: 100.0,
                        step_percent: 30.0,
                        step_duration: SimDuration::from_mins(5),
                        guarded: false,
                    },
                    duration: SimDuration::from_mins(30),
                    checks: vec![Check::candidate(MetricKind::ResponseTime, Comparator::Lt, 200.0)],
                    chaos: None,
                    on_success: Action::Complete,
                    on_failure: Action::Rollback,
                    on_inconclusive: Action::Retry,
                },
            ],
        }
    }

    #[test]
    fn sample_strategy_validates() {
        sample_strategy().validate().unwrap();
        assert_eq!(sample_strategy().check_count(), 2);
        assert!(sample_strategy().phase("canary").is_some());
        assert!(sample_strategy().phase("nope").is_none());
    }

    #[test]
    fn comparators() {
        assert!(Comparator::Lt.holds(1.0, 2.0));
        assert!(!Comparator::Lt.holds(2.0, 2.0));
        assert!(Comparator::Le.holds(2.0, 2.0));
        assert!(Comparator::Gt.holds(3.0, 2.0));
        assert!(Comparator::Ge.holds(2.0, 2.0));
    }

    #[test]
    fn validation_catches_structural_errors() {
        let mut s = sample_strategy();
        s.phases.clear();
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.candidate = s.baseline.clone();
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[0].on_success = Action::Goto("ghost".into());
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[1].name = "canary".into();
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[0].kind = PhaseKind::Canary { traffic_percent: 150.0 };
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[0].duration = SimDuration::ZERO;
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[1].kind = PhaseKind::GradualRollout {
            from_percent: 80.0,
            to_percent: 20.0,
            step_percent: 10.0,
            step_duration: SimDuration::from_mins(1),
            guarded: false,
        };
        assert!(s.validate().is_err());

        let mut s = sample_strategy();
        s.phases[0].checks[0].interval = SimDuration::ZERO;
        assert!(s.validate().is_err());
    }

    #[test]
    fn chaos_multiplier_must_be_finite() {
        // Regression: `multiplier < 1.0` let `inf` (an over-long digit
        // string parses to it) and `NaN` through; the journal writes a
        // non-finite `magnitude` as `null` and could not read it back.
        let spike = |multiplier| {
            let mut s = sample_strategy();
            s.phases[0].chaos = Some(ChaosSpec {
                kind: ChaosKind::LatencySpike { multiplier },
                target: ChaosTarget::Candidate,
                start_after: SimDuration::from_secs(1),
                duration: SimDuration::from_secs(1),
            });
            s.validate()
        };
        spike(1.0).unwrap();
        spike(f64::MAX).unwrap();
        for bad in [0.5, f64::INFINITY, f64::NAN, "9".repeat(400).parse::<f64>().unwrap()] {
            let err = spike(bad).unwrap_err().to_string();
            assert!(err.contains("multiplier below 1 or not finite"), "{bad}: {err}");
        }
        let mut s = sample_strategy();
        s.phases[0].chaos = Some(ChaosSpec {
            kind: ChaosKind::LatencyStorm { multiplier: f64::INFINITY },
            target: ChaosTarget::Zone("zone-0".into()),
            start_after: SimDuration::from_secs(1),
            duration: SimDuration::from_secs(1),
        });
        assert!(s.validate().is_err());
    }

    #[test]
    fn interval_past_phase_duration_is_rejected() {
        // Regression: the scheduler's first due time is phase_start +
        // interval, so a check whose interval exceeded the phase duration
        // silently never fired mid-phase. Validation must reject it.
        let mut s = sample_strategy();
        s.phases[0].checks[0].interval = s.phases[0].duration + SimDuration::from_secs(1);
        let err = s.validate().unwrap_err().to_string();
        assert!(err.contains("exceeds phase duration"), "{err}");
        // An interval equal to the duration still fires at the boundary.
        let mut s = sample_strategy();
        s.phases[0].checks[0].interval = s.phases[0].duration;
        s.phases[0].checks[0].window = s.phases[0].duration;
        s.validate().unwrap();
    }

    #[test]
    fn sequential_check_validation() {
        let mut s = sample_strategy();
        // Sequential checks need no window (cumulative since phase start).
        s.phases[0].checks[0] = Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95);
        s.validate().unwrap();
        // Confidence is a level, not an α: 0.5..1.0.
        s.phases[0].checks[0].threshold = 0.05;
        assert!(s.validate().is_err());
        s.phases[0].checks[0].threshold = 1.0;
        assert!(s.validate().is_err());
        // τ, when pinned, must be positive.
        s.phases[0].checks[0].threshold = 0.95;
        s.phases[0].checks[0].tau = Some(0.0);
        assert!(s.validate().is_err());
        s.phases[0].checks[0].tau = Some(0.1);
        s.validate().unwrap();
    }

    #[test]
    fn guarded_rollout_needs_sequential_check() {
        let mut s = sample_strategy();
        s.phases[1].kind = PhaseKind::GradualRollout {
            from_percent: 10.0,
            to_percent: 100.0,
            step_percent: 30.0,
            step_duration: SimDuration::from_mins(5),
            guarded: true,
        };
        assert!(s.validate().is_err());
        s.phases[1].checks.push(Check::sequential(MetricKind::ErrorRate, Comparator::Lt, 0.95));
        s.validate().unwrap();
    }

    #[test]
    fn ab_split_range() {
        let mut s = sample_strategy();
        s.phases[0].kind = PhaseKind::AbTest { split_percent: 50.0 };
        s.validate().unwrap();
        s.phases[0].kind = PhaseKind::AbTest { split_percent: 51.0 };
        assert!(s.validate().is_err());
    }

    #[test]
    fn display_forms() {
        let c = Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 0.05);
        assert_eq!(c.to_string(), "check error_rate < 0.05 over 60s every 30s");
        assert_eq!(Action::Goto("x".into()).to_string(), "goto \"x\"");
        assert_eq!(Action::Complete.to_string(), "complete");
        assert_eq!(PhaseKind::DarkLaunch.keyword(), "dark_launch");
    }
}
