//! Open-loop workload generation.
//!
//! Continuous experimentation "does not mimic user behavior, it rather uses
//! real users' interactions with the system" (Chapter 1). The simulator's
//! stand-in for real users is an open-loop arrival process: requests arrive
//! with exponential gaps (Poisson process) at a configurable rate, each
//! issued by a user drawn from a [`Population`] and entering the
//! application at a weighted entry endpoint.
//!
//! Beyond the constant-rate Poisson process the module models
//! non-homogeneous traffic through a [`RateProfile`]: piecewise-constant
//! rate schedules (diurnal cycles, flash crowds) and a two-state
//! Markov-modulated Poisson process (MMPP) for bursty arrivals. All
//! profiles are generated by Lewis thinning against the profile's peak
//! rate, so every arrival stream remains a pure function of the seed,
//! drawn in arrival order before the event core runs.
//!
//! An arrival's entry point is one uniform draw `x` looked up in the
//! normalised cumulative entry weights: the first entry whose cumulative
//! weight exceeds `x`, found by bisection, or the last entry when rounding
//! left the total below `x`. Zero-weight entries are never drawn (their
//! cumulative weight equals their predecessor's), except a trailing one by
//! that clamp. The simulation takes each arrival as (time, user, entry
//! index) and resolves an entry's endpoint once per window, on its first
//! draw; [`ArrivalProcess::next_arrival`] builds the full [`Arrival`].

use crate::app::ServiceId;
use crate::error::SimError;
use crate::routing::UserId;
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::{GroupId, Population};

/// A weighted entry point into the application.
#[derive(Debug, Clone, PartialEq)]
pub struct EntryPoint {
    /// Entry service.
    pub service: ServiceId,
    /// Entry endpoint name.
    pub endpoint: String,
    /// Relative weight among all entry points.
    pub weight: f64,
}

/// Time-varying modulation of a workload's mean arrival rate.
///
/// The profile maps elapsed time since the arrival process started to a
/// non-negative multiplier of [`Workload::rate_rps`]. `Constant` keeps the
/// classic homogeneous Poisson process (and its exact historical random
/// stream); the other variants are realised by thinning.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Constant mean rate — the homogeneous Poisson process.
    Constant,
    /// Piecewise-constant multiplier schedule.
    ///
    /// `steps` are `(offset from start, multiplier)` pairs sorted by
    /// offset; the multiplier at elapsed time `e` is that of the last step
    /// with `offset <= e` (`1.0` before the first step). With `period`
    /// set, the schedule wraps — a diurnal cycle.
    Piecewise {
        /// Sorted `(offset, multiplier)` steps.
        steps: Vec<(SimDuration, f64)>,
        /// Optional wrap period for cyclic schedules.
        period: Option<SimDuration>,
    },
    /// Two-state Markov-modulated Poisson process: the modulating chain
    /// alternates between a calm and a burst state with exponentially
    /// distributed dwell times, switching the arrival rate between
    /// `calm_multiplier` and `burst_multiplier` times the base rate.
    Mmpp {
        /// Rate multiplier while the chain is calm.
        calm_multiplier: f64,
        /// Rate multiplier while the chain bursts.
        burst_multiplier: f64,
        /// Mean dwell time in the calm state.
        mean_calm: SimDuration,
        /// Mean dwell time in the burst state.
        mean_burst: SimDuration,
    },
}

impl RateProfile {
    /// A smooth diurnal cycle: `steps` piecewise-constant samples of
    /// `1 + amplitude * sin(2π·x)` wrapped at `period`.
    pub fn diurnal(period: SimDuration, amplitude: f64) -> Self {
        const STEPS: usize = 12;
        let period_ms = period.as_millis_f64();
        let steps = (0..STEPS)
            .map(|i| {
                let x = i as f64 / STEPS as f64;
                let offset = SimDuration::from_millis((period_ms * x) as u64);
                (offset, 1.0 + amplitude * (2.0 * std::f64::consts::PI * x).sin())
            })
            .collect();
        RateProfile::Piecewise { steps, period: Some(period) }
    }

    /// A flash crowd: base rate until `at`, `peak` times the base rate for
    /// `hold`, then back to the base rate.
    pub fn flash_crowd(at: SimDuration, peak: f64, hold: SimDuration) -> Self {
        RateProfile::Piecewise {
            steps: vec![(SimDuration::ZERO, 1.0), (at, peak), (at + hold, 1.0)],
            period: None,
        }
    }

    /// Largest multiplier the profile can produce — the thinning cap.
    fn max_multiplier(&self) -> f64 {
        match self {
            RateProfile::Constant => 1.0,
            RateProfile::Piecewise { steps, .. } => {
                steps.iter().map(|(_, m)| *m).chain(std::iter::once(1.0)).fold(0.0f64, f64::max)
            }
            RateProfile::Mmpp { calm_multiplier, burst_multiplier, .. } => {
                calm_multiplier.max(*burst_multiplier)
            }
        }
    }

    /// Structural validity: finite non-negative multipliers, a positive
    /// peak, positive dwell times, ordered steps, and (for non-periodic
    /// schedules) a positive tail rate so the process always progresses.
    fn validate(&self) -> Result<(), SimError> {
        let bad = |msg: String| Err(SimError::BadWorkload(msg));
        match self {
            RateProfile::Constant => Ok(()),
            RateProfile::Piecewise { steps, period } => {
                for (offset, m) in steps {
                    if !m.is_finite() || *m < 0.0 {
                        return bad(format!(
                            "rate profile multiplier must be finite and non-negative, got {m} \
                             at offset {}ms",
                            offset.as_millis_f64()
                        ));
                    }
                }
                if steps.windows(2).any(|w| w[1].0 < w[0].0) {
                    return bad("rate profile steps must be sorted by offset".into());
                }
                if self.max_multiplier() <= 0.0 {
                    return bad("rate profile must allow a positive rate somewhere".into());
                }
                match period {
                    Some(p) if p.is_zero() => bad("rate profile period must be positive".into()),
                    Some(_) => Ok(()),
                    None => match steps.last() {
                        Some((_, m)) if *m <= 0.0 => {
                            bad("non-periodic rate profile must not end at zero rate".into())
                        }
                        _ => Ok(()),
                    },
                }
            }
            RateProfile::Mmpp { calm_multiplier, burst_multiplier, mean_calm, mean_burst } => {
                for m in [calm_multiplier, burst_multiplier] {
                    if !m.is_finite() || *m < 0.0 {
                        return bad(format!(
                            "MMPP multiplier must be finite and non-negative, got {m}"
                        ));
                    }
                }
                if self.max_multiplier() <= 0.0 {
                    return bad("MMPP must allow a positive rate in at least one state".into());
                }
                if mean_calm.is_zero() || mean_burst.is_zero() {
                    return bad("MMPP mean dwell times must be positive".into());
                }
                Ok(())
            }
        }
    }
}

/// Workload description: who calls what, how often.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// The user population issuing requests.
    pub population: Population,
    /// Mean arrival rate in requests per second.
    pub rate_rps: f64,
    /// Weighted entry points (must be non-empty; weights need not sum to 1).
    pub entries: Vec<EntryPoint>,
    /// Time-varying modulation of `rate_rps`.
    pub profile: RateProfile,
}

impl Workload {
    /// A single-entry workload over a single anonymous user group.
    pub fn simple(service: ServiceId, endpoint: impl Into<String>, rate_rps: f64) -> Self {
        Workload {
            population: Population::single("all", 10_000),
            rate_rps,
            entries: vec![EntryPoint { service, endpoint: endpoint.into(), weight: 1.0 }],
            profile: RateProfile::Constant,
        }
    }

    /// Replaces the rate profile (builder style).
    pub fn with_profile(mut self, profile: RateProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Checks the workload is well-formed: at least one entry point, a
    /// finite positive rate, finite non-negative entry weights with a
    /// positive sum, and a valid rate profile. Every violation that would
    /// otherwise surface as a `NaN` arrival gap or an infinite loop is
    /// rejected here with a typed error.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.entries.is_empty() {
            return Err(SimError::BadWorkload("workload needs at least one entry point".into()));
        }
        if !self.rate_rps.is_finite() || self.rate_rps <= 0.0 {
            return Err(SimError::BadWorkload(format!(
                "arrival rate must be positive and finite, got {}",
                self.rate_rps
            )));
        }
        for e in &self.entries {
            if !e.weight.is_finite() || e.weight < 0.0 {
                return Err(SimError::BadWorkload(format!(
                    "entry weight must be finite and non-negative, got {} for endpoint {}",
                    e.weight, e.endpoint
                )));
            }
        }
        let total_weight: f64 = self.entries.iter().map(|e| e.weight).sum();
        if total_weight <= 0.0 {
            return Err(SimError::BadWorkload("entry weights must sum to a positive value".into()));
        }
        self.profile.validate()
    }
}

/// One generated request arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Virtual arrival time.
    pub time: SimTime,
    /// The issuing user.
    pub user: UserId,
    /// The user's group.
    pub group: GroupId,
    /// Entry service.
    pub service: ServiceId,
    /// Entry endpoint name.
    pub endpoint: String,
}

/// One arrival as the process draws it: an [`Arrival`] with its entry
/// point as an index into [`Workload::entries`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Draw {
    pub(crate) time: SimTime,
    pub(crate) user: UserId,
    pub(crate) group: GroupId,
    pub(crate) entry: usize,
}

/// The entry drawn by `x`: the first whose cumulative weight exceeds it,
/// clamped to the last (see the module doc).
fn entry_index(cumulative_weights: &[f64], x: f64) -> usize {
    cumulative_weights.partition_point(|w| *w <= x).min(cumulative_weights.len() - 1)
}

/// The two states of the MMPP modulating chain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MmppState {
    Calm,
    Burst,
}

/// Generates Poisson arrivals for a [`Workload`] over a time window.
///
/// User ids are laid out in contiguous per-group ranges so a
/// [`UserId`] can be mapped back to its group with
/// [`ArrivalProcess::group_of`].
///
/// Non-constant [`RateProfile`]s are realised by Lewis thinning: candidate
/// arrivals are drawn at the profile's peak rate and accepted with
/// probability `multiplier(t) / peak`. The MMPP modulating chain advances
/// lazily from its own seed-derived stream, so candidate draws and chain
/// transitions never interleave and the stream stays reproducible.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    workload: Workload,
    group_bases: Vec<u64>,
    cumulative_entry_weights: Vec<f64>,
    rng: SplitMix64,
    now: SimTime,
    start: SimTime,
    max_multiplier: f64,
    mmpp_state: MmppState,
    mmpp_next_switch: SimTime,
    mmpp_rng: SplitMix64,
}

impl ArrivalProcess {
    /// Creates a process starting at `start`, or a typed
    /// [`SimError::BadWorkload`] when the workload is malformed.
    pub fn try_new(workload: Workload, start: SimTime, seed: u64) -> Result<Self, SimError> {
        workload.validate()?;
        let mut group_bases = Vec::with_capacity(workload.population.len());
        let mut base = 0u64;
        for (_, g) in workload.population.iter() {
            group_bases.push(base);
            base += g.size().max(1);
        }
        let total_weight: f64 = workload.entries.iter().map(|e| e.weight).sum();
        let mut acc = 0.0;
        let cumulative_entry_weights = workload
            .entries
            .iter()
            .map(|e| {
                acc += e.weight / total_weight;
                acc
            })
            .collect();
        let max_multiplier = workload.profile.max_multiplier();
        // The chain stream is split from the arrival stream so lazy chain
        // advancement cannot perturb candidate-arrival draw order.
        let mut mmpp_rng = SplitMix64::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        let mmpp_next_switch = match &workload.profile {
            RateProfile::Mmpp { mean_calm, .. } => start + exponential(&mut mmpp_rng, *mean_calm),
            _ => SimTime::ZERO,
        };
        Ok(ArrivalProcess {
            workload,
            group_bases,
            cumulative_entry_weights,
            rng: SplitMix64::new(seed),
            now: start,
            start,
            max_multiplier,
            mmpp_state: MmppState::Calm,
            mmpp_next_switch,
            mmpp_rng,
        })
    }

    /// Creates a process starting at `start`.
    ///
    /// # Panics
    ///
    /// Panics when the workload is malformed (see [`Workload::validate`]);
    /// [`ArrivalProcess::try_new`] is the non-panicking form.
    pub fn new(workload: Workload, start: SimTime, seed: u64) -> Self {
        Self::try_new(workload, start, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Rate multiplier at absolute time `t`, advancing the MMPP chain
    /// lazily when needed. `t` must be non-decreasing across calls.
    fn multiplier_at(&mut self, t: SimTime) -> f64 {
        match &self.workload.profile {
            RateProfile::Constant => 1.0,
            RateProfile::Piecewise { steps, period } => {
                let mut elapsed = t.saturating_since(self.start).as_millis_f64();
                if let Some(p) = period {
                    elapsed %= p.as_millis_f64();
                }
                let mut m = 1.0;
                for (offset, mult) in steps {
                    if offset.as_millis_f64() <= elapsed {
                        m = *mult;
                    } else {
                        break;
                    }
                }
                m
            }
            RateProfile::Mmpp { calm_multiplier, burst_multiplier, mean_calm, mean_burst } => {
                let (calm_m, burst_m) = (*calm_multiplier, *burst_multiplier);
                let (mean_calm, mean_burst) = (*mean_calm, *mean_burst);
                while self.mmpp_next_switch <= t {
                    let (next_state, dwell_mean) = match self.mmpp_state {
                        MmppState::Calm => (MmppState::Burst, mean_burst),
                        MmppState::Burst => (MmppState::Calm, mean_calm),
                    };
                    self.mmpp_state = next_state;
                    self.mmpp_next_switch += exponential(&mut self.mmpp_rng, dwell_mean);
                }
                match self.mmpp_state {
                    MmppState::Calm => calm_m,
                    MmppState::Burst => burst_m,
                }
            }
        }
    }

    /// Advances `now` to the next accepted arrival instant.
    fn advance_to_next_arrival(&mut self) {
        if matches!(self.workload.profile, RateProfile::Constant) {
            // The historical constant-rate path: one draw per gap, exactly
            // the stream every seed has always produced.
            let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
            let gap_ms = (-u.ln() / self.workload.rate_rps * 1_000.0).round().max(0.0) as u64;
            self.now += SimDuration::from_millis(gap_ms);
            return;
        }
        // Lewis thinning at the peak rate.
        let peak_rps = self.workload.rate_rps * self.max_multiplier;
        loop {
            let u = self.rng.next_f64().max(f64::MIN_POSITIVE);
            let gap_ms = (-u.ln() / peak_rps * 1_000.0).round().max(0.0) as u64;
            self.now += SimDuration::from_millis(gap_ms);
            let m = self.multiplier_at(self.now);
            if self.rng.next_f64() * self.max_multiplier < m {
                return;
            }
        }
    }

    /// The next arrival (advances virtual time).
    pub fn next_arrival(&mut self) -> Arrival {
        let draw = self.next_draw();
        self.arrival(draw)
    }

    /// The [`Arrival`] a draw stands for.
    fn arrival(&self, draw: Draw) -> Arrival {
        let entry = &self.workload.entries[draw.entry];
        Arrival {
            time: draw.time,
            user: draw.user,
            group: draw.group,
            service: entry.service,
            endpoint: entry.endpoint.clone(),
        }
    }

    /// Advances virtual time to the next arrival and draws its user and
    /// entry index.
    fn next_draw(&mut self) -> Draw {
        self.advance_to_next_arrival();

        // Draw a user: group by size weight, then uniform within group.
        let total_users = self.workload.population.total_users().max(1);
        let pick = (self.rng.next_f64() * total_users as f64) as u64;
        let mut group = GroupId(0);
        let mut seen = 0u64;
        for (gid, g) in self.workload.population.iter() {
            seen += g.size();
            if pick < seen {
                group = gid;
                break;
            }
            group = gid;
        }
        let gsize = self.workload.population.group(group).size().max(1);
        let user = UserId(self.group_bases[group.0] + (self.rng.next_f64() * gsize as f64) as u64);

        // Draw an entry point.
        let x = self.rng.next_f64();
        let entry = entry_index(&self.cumulative_entry_weights, x);
        Draw { time: self.now, user, group, entry }
    }

    /// The next draw if it arrives strictly before `end`. Otherwise the
    /// overshooting draw is dropped, the process stops at `end` and `None`
    /// ends the window; open-loop processes are memoryless, so this does
    /// not bias the next window.
    pub(crate) fn draw_before(&mut self, end: SimTime) -> Option<Draw> {
        let draw = self.next_draw();
        if draw.time >= end {
            self.now = end;
            return None;
        }
        Some(draw)
    }

    /// All arrivals strictly before `end`.
    pub fn arrivals_until(&mut self, end: SimTime) -> Vec<Arrival> {
        let mut out = Vec::new();
        while let Some(draw) = self.draw_before(end) {
            out.push(self.arrival(draw));
        }
        out
    }

    /// Maps a user id back to its group.
    pub fn group_of(&self, user: UserId) -> GroupId {
        let mut group = GroupId(0);
        for (i, base) in self.group_bases.iter().enumerate() {
            if user.0 >= *base {
                group = GroupId(i);
            }
        }
        group
    }

    /// Current virtual time of the process.
    pub fn now(&self) -> SimTime {
        self.now
    }
}

/// An exponential duration with the given mean (at millisecond grain,
/// minimum 1 ms so the modulating chain always progresses).
fn exponential(rng: &mut SplitMix64, mean: SimDuration) -> SimDuration {
    let u = rng.next_f64().max(f64::MIN_POSITIVE);
    SimDuration::from_millis(((-u.ln() * mean.as_millis_f64()).round() as u64).max(1))
}

/// Entry weights with zeros leading, inside and trailing, a single entry,
/// all weight on the last entry, totals that do not normalise to exactly 1,
/// and `searched` random vectors (about a third of their weights zero).
#[cfg(test)]
pub(crate) fn entry_weight_cases(searched: u64) -> Vec<Vec<f64>> {
    let mut cases = vec![
        vec![1.0],
        vec![0.0, 0.0, 2.0, 1.0],
        vec![1.0, 0.0, 0.0, 3.0, 0.0, 1.0],
        vec![2.0, 1.0, 0.0, 0.0],
        vec![0.0, 0.0, 0.0, 5.0],
        vec![0.1; 10],
        vec![1.0 / 3.0; 7],
    ];
    let mut rng = SplitMix64::new(0x5eed);
    for _ in 0..searched {
        let len = 1 + (rng.next_u64() % 24) as usize;
        let mut weights: Vec<f64> = (0..len)
            .map(|_| if rng.next_u64().is_multiple_of(3) { 0.0 } else { rng.next_f64() * 10.0 })
            .collect();
        if weights.iter().all(|w| *w == 0.0) {
            weights[len - 1] = 1.0;
        }
        cases.push(weights);
    }
    cases
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::users::UserGroup;

    fn workload(rate: f64) -> Workload {
        Workload {
            population: Population::new(vec![
                UserGroup::new("eu", 6_000),
                UserGroup::new("us", 4_000),
            ])
            .unwrap(),
            rate_rps: rate,
            entries: vec![
                EntryPoint { service: ServiceId(0), endpoint: "home".into(), weight: 3.0 },
                EntryPoint { service: ServiceId(0), endpoint: "product".into(), weight: 1.0 },
            ],
            profile: RateProfile::Constant,
        }
    }

    #[test]
    fn arrival_rate_matches_target() {
        let mut p = ArrivalProcess::new(workload(100.0), SimTime::ZERO, 42);
        let arrivals = p.arrivals_until(SimTime::from_secs(60));
        let rate = arrivals.len() as f64 / 60.0;
        assert!((rate - 100.0).abs() < 5.0, "rate {rate}");
    }

    #[test]
    fn arrivals_are_time_ordered_and_bounded() {
        let mut p = ArrivalProcess::new(workload(50.0), SimTime::from_secs(5), 1);
        let end = SimTime::from_secs(15);
        let arrivals = p.arrivals_until(end);
        assert!(arrivals.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(arrivals.iter().all(|a| a.time < end && a.time >= SimTime::from_secs(5)));
        assert_eq!(p.now(), end);
    }

    #[test]
    fn entry_weights_respected() {
        let mut p = ArrivalProcess::new(workload(200.0), SimTime::ZERO, 7);
        let arrivals = p.arrivals_until(SimTime::from_secs(120));
        let home = arrivals.iter().filter(|a| a.endpoint == "home").count() as f64;
        let share = home / arrivals.len() as f64;
        assert!((share - 0.75).abs() < 0.03, "home share {share}");
    }

    #[test]
    fn group_shares_follow_population() {
        let mut p = ArrivalProcess::new(workload(200.0), SimTime::ZERO, 3);
        let arrivals = p.arrivals_until(SimTime::from_secs(120));
        let eu = arrivals.iter().filter(|a| a.group == GroupId(0)).count() as f64;
        let share = eu / arrivals.len() as f64;
        assert!((share - 0.6).abs() < 0.03, "eu share {share}");
    }

    #[test]
    fn group_of_inverts_user_layout() {
        let mut p = ArrivalProcess::new(workload(100.0), SimTime::ZERO, 11);
        for _ in 0..1_000 {
            let a = p.next_arrival();
            assert_eq!(p.group_of(a.user), a.group);
        }
    }

    /// The entry draw this module's bisection replaced: the first
    /// cumulative weight above `x`, else the last entry.
    fn entry_index_by_scan(cumulative_weights: &[f64], x: f64) -> usize {
        cumulative_weights.iter().position(|w| x < *w).unwrap_or(cumulative_weights.len() - 1)
    }

    impl ArrivalProcess {
        /// [`ArrivalProcess::next_arrival`] with the entry drawn by
        /// [`entry_index_by_scan`]: the same draws in the same order.
        pub(crate) fn next_arrival_by_scan(&mut self) -> Arrival {
            self.advance_to_next_arrival();
            let total_users = self.workload.population.total_users().max(1);
            let pick = (self.rng.next_f64() * total_users as f64) as u64;
            let mut group = GroupId(0);
            let mut seen = 0u64;
            for (gid, g) in self.workload.population.iter() {
                seen += g.size();
                if pick < seen {
                    group = gid;
                    break;
                }
                group = gid;
            }
            let gsize = self.workload.population.group(group).size().max(1);
            let user =
                UserId(self.group_bases[group.0] + (self.rng.next_f64() * gsize as f64) as u64);
            let x = self.rng.next_f64();
            let entry =
                &self.workload.entries[entry_index_by_scan(&self.cumulative_entry_weights, x)];
            Arrival {
                time: self.now,
                user,
                group,
                service: entry.service,
                endpoint: entry.endpoint.clone(),
            }
        }
    }

    fn weighted_workload(weights: &[f64]) -> Workload {
        let mut w = workload(1_000.0);
        w.entries = weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| EntryPoint {
                service: ServiceId(i % 3),
                endpoint: format!("e{i}"),
                weight,
            })
            .collect();
        w
    }

    #[test]
    fn the_entry_bisection_is_the_linear_scan_at_and_around_every_boundary() {
        let mut rng = SplitMix64::new(17);
        let mut beyond_the_total = 0;
        for weights in entry_weight_cases(400) {
            let p = ArrivalProcess::new(weighted_workload(&weights), SimTime::ZERO, 1);
            let cumulative = &p.cumulative_entry_weights;
            let last = *cumulative.last().unwrap();
            let mut probes = vec![0.0, -0.0, last, last.next_up(), 1.0, 2.0, f64::MAX];
            for &w in cumulative {
                probes.extend([w, w.next_down(), w.next_up()]);
            }
            probes.extend((0..64).map(|_| rng.next_f64()));
            for x in probes {
                beyond_the_total += usize::from(x >= last);
                let got = entry_index(cumulative, x);
                assert_eq!(got, entry_index_by_scan(cumulative, x), "{weights:?} at {x}");
                // Inside the draw's domain, never a zero-weight entry but by
                // the clamp.
                let drawable = x >= 0.0;
                assert!(!drawable || weights[got] > 0.0 || got == weights.len() - 1, "{x}");
            }
        }
        assert!(beyond_the_total > 1_000);
    }

    #[test]
    fn next_arrival_streams_equal_the_linear_scan_oracle() {
        for (case, weights) in entry_weight_cases(3).iter().enumerate() {
            let w = weighted_workload(weights);
            let seed = 1_000 + case as u64;
            let mut bisected = ArrivalProcess::new(w.clone(), SimTime::from_secs(3), seed);
            let mut scanned = ArrivalProcess::new(w, SimTime::from_secs(3), seed);
            let mut drawn = vec![0_usize; weights.len()];
            for _ in 0..100_000 {
                let a = bisected.next_arrival();
                assert_eq!(a, scanned.next_arrival_by_scan(), "case {case}");
                drawn[a.endpoint[1..].parse::<usize>().unwrap()] += 1;
            }
            let total: f64 = weights.iter().sum();
            for (i, (n, weight)) in drawn.iter().zip(weights).enumerate() {
                assert!(*weight > 0.0 || *n == 0, "case {case}: zero-weight entry {i} drawn");
                assert!(weight / total < 1e-3 || *n > 0, "case {case}: entry {i} never drawn");
            }
        }
    }

    #[test]
    fn determinism() {
        let mut a = ArrivalProcess::new(workload(100.0), SimTime::ZERO, 5);
        let mut b = ArrivalProcess::new(workload(100.0), SimTime::ZERO, 5);
        for _ in 0..100 {
            assert_eq!(a.next_arrival(), b.next_arrival());
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry point")]
    fn empty_entries_panics() {
        let w = Workload {
            population: Population::single("all", 10),
            rate_rps: 1.0,
            entries: vec![],
            profile: RateProfile::Constant,
        };
        ArrivalProcess::new(w, SimTime::ZERO, 1);
    }

    // --- construction validation (typed errors instead of NaN gaps) ---

    fn expect_bad(w: Workload, needle: &str) {
        match ArrivalProcess::try_new(w, SimTime::ZERO, 1) {
            Err(SimError::BadWorkload(msg)) => {
                assert!(msg.contains(needle), "message {msg:?} should contain {needle:?}")
            }
            other => panic!("expected BadWorkload({needle:?}), got {other:?}"),
        }
    }

    #[test]
    fn empty_entries_is_a_typed_error() {
        let mut w = workload(10.0);
        w.entries.clear();
        expect_bad(w, "at least one entry point");
    }

    #[test]
    fn non_finite_rate_is_a_typed_error() {
        for rate in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            expect_bad(workload(rate), "arrival rate must be positive");
        }
    }

    #[test]
    fn non_positive_rate_is_a_typed_error() {
        for rate in [0.0, -3.0] {
            expect_bad(workload(rate), "arrival rate must be positive");
        }
    }

    #[test]
    fn negative_entry_weight_is_a_typed_error() {
        // Weights 3.0 and -1.0 still sum to a positive value; the negative
        // weight must be rejected on its own, not masked by the sum.
        let mut w = workload(10.0);
        w.entries[1].weight = -1.0;
        expect_bad(w, "entry weight must be finite and non-negative");
    }

    #[test]
    fn nan_entry_weight_is_a_typed_error() {
        let mut w = workload(10.0);
        w.entries[0].weight = f64::NAN;
        expect_bad(w, "entry weight must be finite and non-negative");
    }

    #[test]
    fn zero_total_weight_is_a_typed_error() {
        let mut w = workload(10.0);
        for e in &mut w.entries {
            e.weight = 0.0;
        }
        expect_bad(w, "sum to a positive value");
    }

    #[test]
    fn bad_profiles_are_typed_errors() {
        let base = workload(10.0);
        expect_bad(
            base.clone().with_profile(RateProfile::Piecewise {
                steps: vec![(SimDuration::ZERO, f64::NAN)],
                period: None,
            }),
            "finite and non-negative",
        );
        expect_bad(
            base.clone().with_profile(RateProfile::Piecewise {
                steps: vec![(SimDuration::from_secs(10), 2.0), (SimDuration::ZERO, 1.0)],
                period: None,
            }),
            "sorted by offset",
        );
        expect_bad(
            base.clone().with_profile(RateProfile::Piecewise {
                steps: vec![(SimDuration::ZERO, 1.0), (SimDuration::from_secs(1), 0.0)],
                period: None,
            }),
            "must not end at zero rate",
        );
        expect_bad(
            base.clone().with_profile(RateProfile::Mmpp {
                calm_multiplier: 0.0,
                burst_multiplier: 0.0,
                mean_calm: SimDuration::from_secs(10),
                mean_burst: SimDuration::from_secs(5),
            }),
            "positive rate in at least one state",
        );
        expect_bad(
            base.with_profile(RateProfile::Mmpp {
                calm_multiplier: 1.0,
                burst_multiplier: 2.0,
                mean_calm: SimDuration::ZERO,
                mean_burst: SimDuration::from_secs(5),
            }),
            "dwell times must be positive",
        );
    }

    // --- rate profiles ---

    fn count_in(arrivals: &[Arrival], from: SimTime, until: SimTime) -> usize {
        arrivals.iter().filter(|a| a.time >= from && a.time < until).count()
    }

    #[test]
    fn constant_profile_stream_is_unchanged() {
        // The thinning machinery must not perturb the historical
        // constant-rate stream: same seed, same arrivals as ever.
        let mut p = ArrivalProcess::new(workload(100.0), SimTime::ZERO, 42);
        let first = p.next_arrival();
        // Pinned from the pre-profile implementation.
        assert_eq!(p.now(), first.time);
        let mut q = ArrivalProcess::new(
            workload(100.0).with_profile(RateProfile::Constant),
            SimTime::ZERO,
            42,
        );
        assert_eq!(q.next_arrival(), first);
    }

    #[test]
    fn flash_crowd_raises_rate_during_hold() {
        let w = workload(50.0).with_profile(RateProfile::flash_crowd(
            SimDuration::from_secs(60),
            3.0,
            SimDuration::from_secs(60),
        ));
        let mut p = ArrivalProcess::new(w, SimTime::ZERO, 9);
        let arrivals = p.arrivals_until(SimTime::from_secs(180));
        let before = count_in(&arrivals, SimTime::ZERO, SimTime::from_secs(60)) as f64 / 60.0;
        let during =
            count_in(&arrivals, SimTime::from_secs(60), SimTime::from_secs(120)) as f64 / 60.0;
        let after =
            count_in(&arrivals, SimTime::from_secs(120), SimTime::from_secs(180)) as f64 / 60.0;
        assert!((before - 50.0).abs() < 10.0, "before {before}");
        assert!((during - 150.0).abs() < 20.0, "during {during}");
        assert!((after - 50.0).abs() < 10.0, "after {after}");
    }

    #[test]
    fn diurnal_profile_wraps_with_its_period() {
        let period = SimDuration::from_secs(120);
        let w = workload(80.0).with_profile(RateProfile::diurnal(period, 0.8));
        let mut p = ArrivalProcess::new(w, SimTime::ZERO, 21);
        let arrivals = p.arrivals_until(SimTime::from_secs(480));
        // The first half-cycle (sin > 0) must beat the second half-cycle
        // (sin < 0), in every period.
        for cycle in 0..4u64 {
            let base = SimTime::from_secs(120 * cycle);
            let crest = count_in(&arrivals, base, base + SimDuration::from_secs(60));
            let trough = count_in(&arrivals, base + SimDuration::from_secs(60), base + period);
            assert!(
                crest as f64 > trough as f64 * 1.5,
                "cycle {cycle}: crest {crest} trough {trough}"
            );
        }
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Dispersion test: the index of dispersion (variance/mean of
        // per-second counts) is ~1 for Poisson, >1 for the MMPP.
        let dispersion = |arrivals: &[Arrival], secs: u64| {
            let mut counts = vec![0f64; secs as usize];
            for a in arrivals {
                let s = (a.time.as_millis() / 1_000) as usize;
                if s < counts.len() {
                    counts[s] += 1.0;
                }
            }
            let mean = counts.iter().sum::<f64>() / counts.len() as f64;
            let var =
                counts.iter().map(|c| (c - mean) * (c - mean)).sum::<f64>() / counts.len() as f64;
            var / mean
        };
        let horizon = SimTime::from_secs(600);
        let mut poisson = ArrivalProcess::new(workload(60.0), SimTime::ZERO, 4);
        let base = poisson.arrivals_until(horizon);
        let bursty_w = workload(60.0).with_profile(RateProfile::Mmpp {
            calm_multiplier: 0.4,
            burst_multiplier: 3.0,
            mean_calm: SimDuration::from_secs(20),
            mean_burst: SimDuration::from_secs(10),
        });
        let mut bursty = ArrivalProcess::new(bursty_w, SimTime::ZERO, 4);
        let burst = bursty.arrivals_until(horizon);
        let d_base = dispersion(&base, 600);
        let d_burst = dispersion(&burst, 600);
        assert!(d_base < 1.5, "poisson dispersion {d_base}");
        assert!(d_burst > 2.0, "mmpp dispersion {d_burst}");
    }

    #[test]
    fn profiled_streams_are_seed_deterministic() {
        for profile in [
            RateProfile::flash_crowd(SimDuration::from_secs(30), 2.5, SimDuration::from_secs(20)),
            RateProfile::diurnal(SimDuration::from_secs(240), 0.5),
            RateProfile::Mmpp {
                calm_multiplier: 0.5,
                burst_multiplier: 2.0,
                mean_calm: SimDuration::from_secs(15),
                mean_burst: SimDuration::from_secs(5),
            },
        ] {
            let w = workload(40.0).with_profile(profile);
            let mut a = ArrivalProcess::new(w.clone(), SimTime::ZERO, 77);
            let mut b = ArrivalProcess::new(w, SimTime::ZERO, 77);
            assert_eq!(
                a.arrivals_until(SimTime::from_secs(120)),
                b.arrivals_until(SimTime::from_secs(120))
            );
        }
    }
}
