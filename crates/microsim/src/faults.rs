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
//! [`FaultPlan::effects`] runs on every hop of every request, so a plan
//! with many windows must not pay for the inactive ones. Windows are
//! kept per version, sorted by start time, behind a time cursor that
//! skips everything already expired: for the (near-)monotone query
//! streams the executor produces, a lookup touches only the windows that
//! are active or about to start, independent of how many have expired.

use crate::app::VersionId;
use cex_core::simtime::SimTime;
use std::cell::Cell;

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

/// The windows afflicting one version, sorted by start time, behind a
/// cursor over the expired prefix.
#[derive(Debug, Clone, Default)]
struct VersionWindows {
    /// Sorted by `from` (ties keep insertion order).
    windows: Vec<Fault>,
    /// `prefix_max_until[i]` = max `until` over `windows[..=i]`; monotone
    /// non-decreasing, so "everything before the cursor has expired" is
    /// exactly `prefix_max_until[cursor - 1] <= now`.
    prefix_max_until: Vec<SimTime>,
    /// Every index below the cursor has `until <= now` for the last
    /// queried `now`. Cache state: `apply` re-establishes the invariant
    /// from whatever value it finds, so the cursor changes how fast
    /// `effects` gets to its answer, never the answer. A `Cell` so lookups
    /// take `&self`: the plan is read-only to the event core and the
    /// oracle that query it, and the cursor is only a cache.
    cursor: Cell<usize>,
}

impl VersionWindows {
    fn insert(&mut self, fault: Fault) {
        let at = self.windows.partition_point(|w| w.from <= fault.from);
        self.windows.insert(at, fault);
        self.prefix_max_until.clear();
        let mut max = SimTime::ZERO;
        for w in &self.windows {
            max = max.max(w.until);
            self.prefix_max_until.push(max);
        }
        // The new window may start before the cursor's notion of "all
        // expired"; restart from the front (queries re-advance cheaply).
        self.cursor.set(0);
    }

    fn apply(&self, now: SimTime, effects: &mut FaultEffects) {
        // The executor's query times are *mostly* monotone but not
        // strictly so (a later request's shallow hop can predate an
        // earlier request's deep subtree), so first rewind the cursor
        // while its invariant (everything before it has expired) is
        // violated, then advance it over newly expired windows. The
        // prefix maximum makes the rewind exact: a long window hiding
        // behind later, already-expired short ones is still found.
        let mut cursor = self.cursor.get();
        while cursor > 0 && self.prefix_max_until[cursor - 1] > now {
            cursor -= 1;
        }
        while cursor < self.windows.len() && self.windows[cursor].until <= now {
            cursor += 1;
        }
        self.cursor.set(cursor);
        // Windows are sorted by start: stop at the first one that has
        // not started yet. Expired windows inside the scan range (long
        // window before short window) are filtered by the `until` check.
        for fault in self.windows[cursor..].iter().take_while(|f| f.from <= now) {
            if now >= fault.until {
                continue;
            }
            match fault.kind {
                FaultKind::LatencySpike { multiplier } => {
                    effects.latency_multiplier *= multiplier;
                }
                FaultKind::ErrorBurst { extra_error_rate } => {
                    effects.extra_error_rate += extra_error_rate;
                }
                FaultKind::Outage => {
                    effects.extra_error_rate += 1.0;
                }
            }
        }
    }
}

/// A schedule of fault windows.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
    /// Indexed by `VersionId`; the same windows as `faults`, grouped and
    /// sorted for O(active) lookup.
    by_version: Vec<VersionWindows>,
}

/// Plans are equal when they schedule the same faults; the per-version
/// index and its cursors are derived cache state.
impl PartialEq for FaultPlan {
    fn eq(&self, other: &Self) -> bool {
        self.faults == other.faults
    }
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
            self.by_version.resize_with(fault.version.0 + 1, VersionWindows::default);
        }
        self.by_version[fault.version.0].insert(fault);
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
        if let Some(windows) = self.by_version.get(version.0) {
            windows.apply(now, &mut effects);
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

    /// The original O(all-faults) scan `effects` is checked against.
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
    fn cursor_handles_non_monotone_queries() {
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
        // expires the cursor may sit past it; the long one must still
        // apply.
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
    fn injection_after_queries_resets_the_cursor() {
        let mut plan = FaultPlan::none();
        plan.inject(window(0, 10, FaultKind::LatencySpike { multiplier: 2.0 }));
        // Advance the cursor past the only window.
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(50)), FaultEffects::NONE);
        // A newly injected overlapping window must be visible.
        plan.inject(window(40, 60, FaultKind::LatencySpike { multiplier: 4.0 }));
        assert_eq!(plan.effects(VersionId(0), SimTime::from_secs(50)).latency_multiplier, 4.0);
    }

    #[test]
    fn indexed_effects_match_naive_scan_differentially() {
        // Randomized plans and query orders: the indexed lookup must
        // agree with the original linear scan everywhere.
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
    fn plan_equality_ignores_cursor_state() {
        let mut a = FaultPlan::none();
        let mut b = FaultPlan::none();
        a.inject(window(0, 10, FaultKind::Outage));
        b.inject(window(0, 10, FaultKind::Outage));
        // Advance only a's cursor.
        a.effects(VersionId(0), SimTime::from_secs(50));
        assert_eq!(a, b);
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
