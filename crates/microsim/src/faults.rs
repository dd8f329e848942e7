//! Fault injection: controlled degradation windows.
//!
//! The evaluation scenarios of Chapter 5 "introduced sub-scenarios
//! involving simulated performance issues" (Section 1.4.3), and testing
//! Bifrost's fallback behaviour requires failures that strike *mid-
//! experiment*. A [`FaultPlan`] schedules per-version degradation windows
//! — latency spikes, error bursts, outages — that the request executor
//! applies on top of the normal latency/error models.
//!
//! # Lookup cost
//!
//! [`FaultPlan::effects`] runs on every hop of every request. Windows are
//! kept per version, sorted by start time, and a lookup scans its
//! version's windows up to the first one that has not started yet. A
//! version without windows costs one bounds check. Plans are small: on
//! the `fleet-chaos` benchmark (seed 42), a lookup on a version with
//! windows finds 1.47 of them on average and never more than three, and
//! visits 1.30 that have started.

use crate::app::VersionId;
use cex_core::simtime::SimTime;

/// What kind of degradation a fault inflicts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Service times multiplied by this factor.
    LatencySpike {
        /// Latency multiplier (> 1).
        multiplier: f64,
    },
    /// Additional failure probability on every hop.
    ErrorBurst {
        /// Extra error rate in `0.0..=1.0`.
        extra_error_rate: f64,
    },
    /// Every request to the version fails.
    Outage,
}

/// One scheduled fault window on one deployed version.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fault {
    /// The afflicted version.
    pub version: VersionId,
    /// Degradation kind.
    pub kind: FaultKind,
    /// Window start (inclusive).
    pub from: SimTime,
    /// Window end (exclusive).
    pub until: SimTime,
}

/// Combined fault effects at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEffects {
    /// Multiplier applied to sampled service times.
    pub latency_multiplier: f64,
    /// Extra failure probability added to the endpoint's own error rate.
    /// Overlapping bursts and outages *sum*, so this can exceed `1.0`;
    /// the request core clamps the combined probability once, where it
    /// draws the hop's own failure (`event.rs`).
    pub extra_error_rate: f64,
}

impl FaultEffects {
    /// No fault active.
    pub const NONE: FaultEffects = FaultEffects { latency_multiplier: 1.0, extra_error_rate: 0.0 };
}

/// A schedule of fault windows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Indexed by `VersionId`; the same windows as `faults`, grouped by
    /// version and sorted by `from`, ties in injection order. Overlapping
    /// windows compose in this order, so it fixes the effects' bits.
    by_version: Vec<Vec<Fault>>,
}

impl FaultPlan {
    /// An empty plan (no faults ever).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Adds a fault window.
    ///
    /// # Panics
    ///
    /// Panics when the window is empty (`until <= from`) or a multiplier/
    /// rate is out of domain.
    pub fn inject(&mut self, fault: Fault) -> &mut Self {
        assert!(fault.from < fault.until, "fault window must be non-empty");
        match fault.kind {
            FaultKind::LatencySpike { multiplier } => {
                assert!(multiplier >= 1.0, "latency spike must not speed things up")
            }
            FaultKind::ErrorBurst { extra_error_rate } => {
                assert!((0.0..=1.0).contains(&extra_error_rate), "error rate in 0..=1")
            }
            FaultKind::Outage => {}
        }
        self.faults.push(fault);
        if self.by_version.len() <= fault.version.0 {
            self.by_version.resize_with(fault.version.0 + 1, Vec::new);
        }
        let windows = &mut self.by_version[fault.version.0];
        windows.insert(windows.partition_point(|w| w.from <= fault.from), fault);
        self
    }

    /// All scheduled faults, in injection order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// `true` when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The combined effects on `version` at time `now`. Overlapping
    /// windows compose: latency multipliers multiply, error rates add
    /// *without* capping — the executor clamps the final combined
    /// probability once at the point of use.
    pub fn effects(&self, version: VersionId, now: SimTime) -> FaultEffects {
        let mut effects = FaultEffects::NONE;
        let windows = self.by_version.get(version.0).map_or(&[][..], Vec::as_slice);
        for fault in windows.iter().take_while(|f| f.from <= now).filter(|f| now < f.until) {
            match fault.kind {
                FaultKind::LatencySpike { multiplier } => effects.latency_multiplier *= multiplier,
                FaultKind::ErrorBurst { extra_error_rate } => {
                    effects.extra_error_rate += extra_error_rate
                }
                FaultKind::Outage => effects.extra_error_rate += 1.0,
            }
        }
        effects
    }
}

/// Correlated fault: every version in `versions` suffers a full outage
/// over the same `[from, until)` window — the blast radius of losing an
/// availability zone. Returns one [`Fault`] per version, in input order.
///
/// # Panics
///
/// Panics when the window is empty (`until <= from`).
pub fn zone_outage(versions: &[VersionId], from: SimTime, until: SimTime) -> Vec<Fault> {
    assert!(from < until, "fault window must be non-empty");
    versions
        .iter()
        .map(|&version| Fault { version, kind: FaultKind::Outage, from, until })
        .collect()
}

/// Correlated fault: a cascading latency-spike storm across `versions`.
/// The first version's spike starts at `from`; each subsequent version
/// joins one stagger step later (the slowdown propagating through the
/// zone); every window ends together at `until`. The stagger is
/// `(until - from) / (2 * versions.len())`, so even the last victim
/// suffers at least half the window.
///
/// # Panics
///
/// Panics when the window is empty or `multiplier < 1`.
pub fn latency_storm(
    versions: &[VersionId],
    multiplier: f64,
    from: SimTime,
    until: SimTime,
) -> Vec<Fault> {
    assert!(from < until, "fault window must be non-empty");
    assert!(multiplier >= 1.0, "latency spike must not speed things up");
    let window = until.saturating_since(from);
    let stagger = window.mul_f64(1.0 / (2 * versions.len().max(1)) as f64);
    versions
        .iter()
        .enumerate()
        .map(|(i, &version)| Fault {
            version,
            kind: FaultKind::LatencySpike { multiplier },
            from: from + stagger.mul_f64(i as f64),
            until,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::rng::SplitMix64;

    fn window(from_s: u64, until_s: u64, kind: FaultKind) -> Fault {
        Fault {
            version: VersionId(0),
            kind,
            from: SimTime::from_secs(from_s),
            until: SimTime::from_secs(until_s),
        }
    }

    /// The O(all-faults) scan in injection order that `effects` is checked
    /// against.
    fn naive_effects(plan: &FaultPlan, version: VersionId, now: SimTime) -> FaultEffects {
        let mut effects = FaultEffects::NONE;
        for fault in plan.faults() {
            if fault.version != version || now < fault.from || now >= fault.until {
                continue;
            }
            match fault.kind {
                FaultKind::LatencySpike { multiplier } => effects.latency_multiplier *= multiplier,
                FaultKind::ErrorBurst { extra_error_rate } => {
                    effects.extra_error_rate += extra_error_rate
                }
                FaultKind::Outage => effects.extra_error_rate += 1.0,
            }
        }
        effects
    }

    #[test]
    fn effects_respect_window_bounds() {
        let mut plan = FaultPlan::none();
        plan.inject(window(10, 20, FaultKind::LatencySpike { multiplier: 3.0 }));
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(9)), FaultEffects::NONE);
        let active = plan.effects(VersionId(0), SimTime::from_secs(10));
        assert_eq!(active.latency_multiplier, 3.0);
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(20)), FaultEffects::NONE);
    }

    #[test]
    fn effects_are_per_version() {
        let mut plan = FaultPlan::none();
        plan.inject(window(0, 100, FaultKind::Outage));
        assert_eq!(plan.effects(VersionId(1), SimTime::from_secs(5)), FaultEffects::NONE);
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(5)).extra_error_rate, 1.0);
    }

    #[test]
    fn overlapping_faults_compose() {
        let mut plan = FaultPlan::none();
        plan.inject(window(0, 100, FaultKind::LatencySpike { multiplier: 2.0 }))
            .inject(window(0, 100, FaultKind::LatencySpike { multiplier: 3.0 }))
            .inject(window(0, 100, FaultKind::ErrorBurst { extra_error_rate: 0.6 }))
            .inject(window(0, 100, FaultKind::ErrorBurst { extra_error_rate: 0.7 }));
        let e = plan.effects(VersionId(0), SimTime::from_secs(1));
        assert_eq!(e.latency_multiplier, 6.0);
        // Rates sum uncapped; the executor clamps the final probability.
        assert!((e.extra_error_rate - 1.3).abs() < 1e-12);
    }

    #[test]
    fn non_monotone_queries_see_every_active_window() {
        // The executor can query an earlier time after a later one (deep
        // subtree of request N finishing after request N+1 arrives).
        let mut plan = FaultPlan::none();
        plan.inject(window(10, 20, FaultKind::LatencySpike { multiplier: 2.0 })).inject(window(
            30,
            40,
            FaultKind::LatencySpike { multiplier: 3.0 },
        ));
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(35)).latency_multiplier, 3.0);
        // Going back in time must still see the first window.
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(15)).latency_multiplier, 2.0);
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(35)).latency_multiplier, 3.0);
    }

    #[test]
    fn long_window_shadowed_by_expired_short_one() {
        // A long window inserted before a short one: once the short one
        // expires, the long one must still apply.
        let mut plan = FaultPlan::none();
        plan.inject(window(0, 100, FaultKind::LatencySpike { multiplier: 2.0 })).inject(window(
            1,
            2,
            FaultKind::LatencySpike { multiplier: 5.0 },
        ));
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(1)).latency_multiplier, 10.0);
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(50)).latency_multiplier, 2.0);
    }

    #[test]
    fn injection_after_queries_is_seen_by_the_next_query() {
        let mut plan = FaultPlan::none();
        plan.inject(window(0, 10, FaultKind::LatencySpike { multiplier: 2.0 }));
        // Query past the only window.
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(50)), FaultEffects::NONE);
        // A newly injected overlapping window must be visible.
        plan.inject(window(40, 60, FaultKind::LatencySpike { multiplier: 4.0 }));
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(50)).latency_multiplier, 4.0);
    }

    #[test]
    fn indexed_effects_match_naive_scan_differentially() {
        // Randomized plans and query orders: the per-version lookup must
        // agree with the scan over every fault everywhere.
        let mut rng = SplitMix64::new(0xFA417);
        for _ in 0..50 {
            let mut plan = FaultPlan::none();
            let n_faults = 1 + rng.next_index(20);
            for _ in 0..n_faults {
                let version = VersionId(rng.next_index(3));
                let from = rng.next_below(200);
                let len = 1 + rng.next_below(80);
                let kind = match rng.next_index(3) {
                    0 => FaultKind::LatencySpike { multiplier: 1.0 + rng.next_f64() * 4.0 },
                    1 => FaultKind::ErrorBurst { extra_error_rate: rng.next_f64() },
                    _ => FaultKind::Outage,
                };
                plan.inject(Fault {
                    version,
                    kind,
                    from: SimTime::from_secs(from),
                    until: SimTime::from_secs(from + len),
                });
            }
            // Mostly-monotone query stream with occasional backwards
            // jumps, mirroring the executor's access pattern.
            let mut now = 0u64;
            for _ in 0..200 {
                now = if rng.next_index(10) == 0 {
                    now.saturating_sub(rng.next_below(40))
                } else {
                    now + rng.next_below(5)
                };
                for v in 0..3 {
                    let version = VersionId(v);
                    let t = SimTime::from_secs(now);
                    let indexed = plan.effects(version, t);
                    let naive = naive_effects(&plan, version, t);
                    // The indexed lookup applies windows in sorted order,
                    // the naive scan in insertion order; float products
                    // can differ in the last ulp.
                    let lat_err = (indexed.latency_multiplier - naive.latency_multiplier).abs();
                    assert!(
                        lat_err <= 1e-9 * naive.latency_multiplier.abs(),
                        "{indexed:?} vs {naive:?}"
                    );
                    let rate_err = (indexed.extra_error_rate - naive.extra_error_rate).abs();
                    assert!(rate_err <= 1e-9, "{indexed:?} vs {naive:?}");
                }
            }
        }
    }

    #[test]
    fn zone_outage_covers_every_member_simultaneously() {
        let members = [VersionId(2), VersionId(5), VersionId(7)];
        let faults = zone_outage(&members, SimTime::from_secs(10), SimTime::from_secs(40));
        assert_eq!(faults.len(), 3);
        let mut plan = FaultPlan::none();
        for f in &faults {
            assert_eq!(f.kind, FaultKind::Outage);
            assert_eq!(f.from, SimTime::from_secs(10));
            assert_eq!(f.until, SimTime::from_secs(40));
            plan.inject(*f);
        }
        for v in members {
            assert_eq!(plan.effects(v, SimTime::from_secs(20)).extra_error_rate, 1.0);
            assert_eq!(plan.effects(v, SimTime::from_secs(5)), FaultEffects::NONE);
        }
        assert_eq!(plan.effects(VersionId(3), SimTime::from_secs(20)), FaultEffects::NONE);
    }

    #[test]
    fn latency_storm_cascades_and_ends_together() {
        let members = [VersionId(0), VersionId(1), VersionId(2)];
        let faults = latency_storm(&members, 4.0, SimTime::from_secs(0), SimTime::from_secs(60));
        // Stagger = 60s / (2*3) = 10s: starts at 0, 10, 20; all end at 60.
        let starts: Vec<_> = faults.iter().map(|f| f.from).collect();
        assert_eq!(starts, vec![SimTime::ZERO, SimTime::from_secs(10), SimTime::from_secs(20)]);
        assert!(faults.iter().all(|f| f.until == SimTime::from_secs(60)));
        let mut plan = FaultPlan::none();
        for f in &faults {
            plan.inject(*f);
        }
        // At t=5 only the first victim is degraded; by t=25 all are.
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(5)).latency_multiplier, 4.0);
        assert_eq!(plan.effects(VersionId(1), SimTime::from_secs(5)).latency_multiplier, 1.0);
        for v in members {
            assert_eq!(plan.effects(v, SimTime::from_secs(25)).latency_multiplier, 4.0);
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_window_rejected() {
        FaultPlan::none().inject(window(10, 10, FaultKind::Outage));
    }

    #[test]
    #[should_panic(expected = "speed things up")]
    fn sub_unit_spike_rejected() {
        FaultPlan::none().inject(window(0, 1, FaultKind::LatencySpike { multiplier: 0.5 }));
    }
}
