//! Scenario corpus: seeded generators for topology families, workload
//! shapes and correlated faults, plus a trace-level fault localizer.
//!
//! The paper's evaluation "introduced sub-scenarios involving simulated
//! performance issues" against a single case-study application; its
//! scalability chapter asks for "as many scenarios as you can imagine".
//! This module is the imagination: every combination of a
//! [`TopologyFamily`], a [`WorkloadKind`] and a [`FaultScenario`] is one
//! cell of a robustness matrix, and each cell is a deterministic function
//! of its seed — the property suite in `tests/corpus_matrix.rs` sweeps
//! hundreds of cells and asserts that fault localization, chaos
//! containment and journal determinism hold in *every* one.
//!
//! # Fault localization
//!
//! Canary-vs-baseline health reports ([`crate::health::HealthReport`])
//! compare two versions of the *same* service, which is blind to
//! correlated faults that hit baseline and candidate alike (a zone
//! outage). The corpus localizer instead compares a healthy time window
//! against a faulted one, edge by edge — the same [`Trace::hops`] walk and
//! [`EdgeKey`]s as the health fold, over executed primary spans only — on
//! two signals the canary report cannot use:
//!
//! - **blame rate** — a span is *blamed* for a failure only when it
//!   failed and none of its children did (the failure originated there,
//!   not upstream of it), so cascading parent failures do not drown out
//!   the root cause;
//! - **self time** — a span's duration minus its primary children's (in
//!   fractional milliseconds), so a deep latency spike does not inflate
//!   every ancestor edge equally.
//!
//! Scores reuse the documented [`crate::health`] weight constants.

use crate::app::{Application, CallDef, EndpointDef, ServiceId, VersionId, VersionSpec};
use crate::error::SimError;
use crate::faults::{self, Fault, FaultKind};
use crate::health::{SCORE_ERROR_RATE_WEIGHT, SCORE_P95_DELTA_WEIGHT};
use crate::latency::LatencyModel;
use crate::sim::Simulation;
use crate::trace::{EdgeKey, EdgeTable, Trace};
use crate::workload::{EntryPoint, RateProfile, Workload};
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::sketch::QuantileSketch;
use cex_core::users::Population;

// ---------------------------------------------------------------------------
// Topology families
// ---------------------------------------------------------------------------

/// The microservice topology families the corpus generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyFamily {
    /// A single call chain `svc-0 → svc-1 → … → svc-5`: failures deep in
    /// the chain cascade through every ancestor.
    DeepChain,
    /// One frontend fanning out to six leaves: wide blast surface, shallow
    /// depth.
    WideFanout,
    /// A gateway routing through one central hub to four backends: the hub
    /// is a single point of failure.
    HubAndSpoke,
    /// An ingress tier over three isolated cells (front → mid → db), each
    /// its own availability zone, with low-probability cross-cell calls
    /// that leak failures across the partition.
    CellPartition,
}

/// All families, in matrix-sweep order.
pub const FAMILIES: [TopologyFamily; 4] = [
    TopologyFamily::DeepChain,
    TopologyFamily::WideFanout,
    TopologyFamily::HubAndSpoke,
    TopologyFamily::CellPartition,
];

impl TopologyFamily {
    /// Stable lowercase identifier (test labels, bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            TopologyFamily::DeepChain => "deep_chain",
            TopologyFamily::WideFanout => "wide_fanout",
            TopologyFamily::HubAndSpoke => "hub_and_spoke",
            TopologyFamily::CellPartition => "cell_partition",
        }
    }
}

/// One generated scenario: an application with zone labels, a deployed
/// candidate of the experiment service, and the coordinates the matrix
/// needs (entry point, fault zone).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generated application, candidate already deployed.
    pub app: Application,
    /// Which family produced it.
    pub family: TopologyFamily,
    /// Entry service for the workload.
    pub entry_service: ServiceId,
    /// Entry endpoint name.
    pub entry_endpoint: String,
    /// The service under experiment (the one strategies canary).
    pub experiment_service: ServiceId,
    /// Baseline version of the experiment service.
    pub baseline: VersionId,
    /// Candidate version (`2.0.0`) of the experiment service.
    pub candidate: VersionId,
    /// The zone correlated faults strike. Always contains the experiment
    /// service and never the entry service, so zone faults are observable
    /// at interior edges while the app entry stays reachable.
    pub fault_zone: String,
}

impl Scenario {
    /// Baseline + candidate split for the experiment service: `share` of
    /// traffic to the candidate.
    pub fn canary_split(&self, sim: &mut Simulation, share: f64) -> Result<(), SimError> {
        let app = sim.app().clone();
        sim.router_mut().set_split(
            &app,
            self.experiment_service,
            vec![(self.baseline, 1.0 - share), (self.candidate, share)],
        )
    }
}

/// Generates one scenario of `family`, deterministically from `seed`
/// (latency medians and the experiment candidate's behaviour jitter with
/// the seed; the shape, zones and service names are fixed per family).
///
/// # Panics
///
/// Never panics on generator output: every family builds a statically
/// valid topology (covered by tests).
pub fn generate(family: TopologyFamily, seed: u64) -> Scenario {
    let mut rng = SplitMix64::new(seed ^ 0xC0_5EED);
    match family {
        TopologyFamily::DeepChain => deep_chain(&mut rng),
        TopologyFamily::WideFanout => wide_fanout(&mut rng),
        TopologyFamily::HubAndSpoke => hub_and_spoke(&mut rng),
        TopologyFamily::CellPartition => cell_partition(&mut rng),
    }
}

/// Jittered web latency: `base + [0, spread)` milliseconds.
fn lat(rng: &mut SplitMix64, base: f64, spread: f64) -> LatencyModel {
    LatencyModel::web(base + rng.next_f64() * spread)
}

/// Finishes a scenario: deploys the candidate (`2.0.0`, same behaviour
/// and zone as the baseline spec) and resolves ids.
fn finish(
    family: TopologyFamily,
    app: Application,
    entry: (&str, &str),
    experiment: &VersionSpec,
    fault_zone: &str,
) -> Scenario {
    let mut app = app;
    let mut candidate_spec = experiment.clone();
    candidate_spec.version = "2.0.0".into();
    let candidate = app.deploy(candidate_spec).expect("candidate deploys cleanly");
    app.validate().expect("generated topology is valid");
    let entry_service = app.service_id(entry.0).expect("entry service exists");
    let experiment_service = app.service_id(&experiment.service).expect("experiment service");
    let baseline =
        app.version_id(&experiment.service, &experiment.version).expect("baseline version exists");
    Scenario {
        app,
        family,
        entry_service,
        entry_endpoint: entry.1.into(),
        experiment_service,
        baseline,
        candidate,
        fault_zone: fault_zone.into(),
    }
}

fn deep_chain(rng: &mut SplitMix64) -> Scenario {
    const DEPTH: usize = 6;
    let mut b = Application::builder();
    let mut experiment = None;
    for i in 0..DEPTH {
        let zone = match i {
            0 => "edge",
            1 | 2 => "seg-mid",
            _ => "seg-deep",
        };
        let mut ep = EndpointDef::new("op", lat(rng, 5.0, 4.0));
        if i + 1 < DEPTH {
            ep = ep.call(CallDef::always(format!("svc-{}", i + 1), "op"));
        }
        let spec = VersionSpec::new(format!("svc-{i}"), "1.0.0")
            .capacity(600.0)
            .load_sensitivity(0.0)
            .zone(zone)
            .endpoint(ep);
        if i == 1 {
            experiment = Some(spec.clone());
        }
        b.version(spec);
    }
    let app = b.build().expect("deep chain builds");
    finish(TopologyFamily::DeepChain, app, ("svc-0", "op"), &experiment.unwrap(), "seg-mid")
}

fn wide_fanout(rng: &mut SplitMix64) -> Scenario {
    const LEAVES: usize = 6;
    let mut b = Application::builder();
    let mut fan = EndpointDef::new("fan", lat(rng, 4.0, 2.0));
    for i in 0..LEAVES {
        let callee = format!("leaf-{i}");
        fan = if i < 3 {
            fan.call(CallDef::always(callee, "op"))
        } else {
            fan.call(CallDef::with_probability(callee, "op", 0.7))
        };
    }
    b.version(
        VersionSpec::new("front", "1.0.0")
            .capacity(800.0)
            .load_sensitivity(0.0)
            .zone("front")
            .endpoint(fan),
    );
    let mut experiment = None;
    for i in 0..LEAVES {
        let zone = if i % 2 == 0 { "leaf-east" } else { "leaf-west" };
        let spec = VersionSpec::new(format!("leaf-{i}"), "1.0.0")
            .capacity(600.0)
            .load_sensitivity(0.0)
            .zone(zone)
            .endpoint(EndpointDef::new("op", lat(rng, 6.0, 6.0)));
        if i == 0 {
            experiment = Some(spec.clone());
        }
        b.version(spec);
    }
    let app = b.build().expect("fanout builds");
    finish(TopologyFamily::WideFanout, app, ("front", "fan"), &experiment.unwrap(), "leaf-east")
}

fn hub_and_spoke(rng: &mut SplitMix64) -> Scenario {
    const BACKENDS: usize = 4;
    let mut b = Application::builder();
    b.version(
        VersionSpec::new("gw", "1.0.0")
            .capacity(800.0)
            .load_sensitivity(0.0)
            .zone("edge")
            .endpoint(
                EndpointDef::new("gw", lat(rng, 3.0, 2.0)).call(CallDef::always("hub", "route")),
            ),
    );
    let mut route = EndpointDef::new("route", lat(rng, 6.0, 4.0));
    for i in 0..BACKENDS {
        let callee = format!("data-{i}");
        route = if i == 0 {
            route.call(CallDef::always(callee, "op"))
        } else {
            route.call(CallDef::with_probability(callee, "op", 0.8))
        };
    }
    let hub = VersionSpec::new("hub", "1.0.0")
        .capacity(700.0)
        .load_sensitivity(0.0)
        .zone("core")
        .endpoint(route);
    b.version(hub.clone());
    for i in 0..BACKENDS {
        b.version(
            VersionSpec::new(format!("data-{i}"), "1.0.0")
                .capacity(900.0)
                .load_sensitivity(0.0)
                .zone("data")
                .endpoint(EndpointDef::new("op", lat(rng, 4.0, 5.0))),
        );
    }
    let app = b.build().expect("hub-and-spoke builds");
    finish(TopologyFamily::HubAndSpoke, app, ("gw", "gw"), &hub, "core")
}

fn cell_partition(rng: &mut SplitMix64) -> Scenario {
    const CELLS: usize = 3;
    let mut b = Application::builder();
    let mut route = EndpointDef::new("route", lat(rng, 2.0, 2.0));
    for c in 0..CELLS {
        route = route.call(CallDef::with_probability(format!("cell{c}-front"), "op", 0.45));
    }
    b.version(
        VersionSpec::new("ingress", "1.0.0")
            .capacity(900.0)
            .load_sensitivity(0.0)
            .zone("ingress")
            .endpoint(route),
    );
    let mut experiment = None;
    for c in 0..CELLS {
        let zone = format!("cell-{c}");
        // Cross-cell call: this cell's front leaks into the next cell's
        // mid tier with low probability — the partition is imperfect.
        let front = VersionSpec::new(format!("cell{c}-front"), "1.0.0")
            .capacity(700.0)
            .load_sensitivity(0.0)
            .zone(&zone)
            .endpoint(
                EndpointDef::new("op", lat(rng, 4.0, 3.0))
                    .call(CallDef::always(format!("cell{c}-mid"), "op"))
                    .call(CallDef::with_probability(
                        format!("cell{}-mid", (c + 1) % CELLS),
                        "op",
                        0.2,
                    )),
            );
        let mid = VersionSpec::new(format!("cell{c}-mid"), "1.0.0")
            .capacity(700.0)
            .load_sensitivity(0.0)
            .zone(&zone)
            .endpoint(
                EndpointDef::new("op", lat(rng, 5.0, 4.0))
                    .call(CallDef::always(format!("cell{c}-db"), "get")),
            );
        let db = VersionSpec::new(format!("cell{c}-db"), "1.0.0")
            .capacity(900.0)
            .load_sensitivity(0.0)
            .zone(&zone)
            .endpoint(EndpointDef::new("get", lat(rng, 3.0, 2.0)));
        if c == 0 {
            experiment = Some(mid.clone());
        }
        b.version(front);
        b.version(mid);
        b.version(db);
    }
    let app = b.build().expect("cell partition builds");
    finish(TopologyFamily::CellPartition, app, ("ingress", "route"), &experiment.unwrap(), "cell-0")
}

// ---------------------------------------------------------------------------
// Workload library
// ---------------------------------------------------------------------------

/// The workload shapes the corpus sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Constant-rate Poisson (the historical model).
    Steady,
    /// Piecewise diurnal cycle (120 s period, ±50 %).
    Diurnal,
    /// Flash crowd: 2.5× the base rate for 40 s starting at t = 40 s.
    FlashCrowd,
    /// Two-state MMPP: calm at 0.5×, bursting at 2.2×.
    Bursty,
}

/// All workload kinds, in matrix-sweep order.
pub const WORKLOADS: [WorkloadKind; 4] =
    [WorkloadKind::Steady, WorkloadKind::Diurnal, WorkloadKind::FlashCrowd, WorkloadKind::Bursty];

impl WorkloadKind {
    /// Stable lowercase identifier.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::Steady => "steady",
            WorkloadKind::Diurnal => "diurnal",
            WorkloadKind::FlashCrowd => "flash_crowd",
            WorkloadKind::Bursty => "bursty",
        }
    }

    /// The rate profile realising this shape.
    pub fn profile(&self) -> RateProfile {
        match self {
            WorkloadKind::Steady => RateProfile::Constant,
            WorkloadKind::Diurnal => RateProfile::diurnal(SimDuration::from_secs(120), 0.5),
            WorkloadKind::FlashCrowd => RateProfile::flash_crowd(
                SimDuration::from_secs(40),
                2.5,
                SimDuration::from_secs(40),
            ),
            WorkloadKind::Bursty => RateProfile::Mmpp {
                calm_multiplier: 0.5,
                burst_multiplier: 2.2,
                mean_calm: SimDuration::from_secs(20),
                mean_burst: SimDuration::from_secs(8),
            },
        }
    }
}

/// Builds the scenario's workload: single entry, one anonymous user pool,
/// the kind's rate profile over `rate_rps`.
pub fn workload_for(scenario: &Scenario, kind: WorkloadKind, rate_rps: f64) -> Workload {
    Workload {
        population: Population::single("all", 20_000),
        rate_rps,
        entries: vec![EntryPoint {
            service: scenario.entry_service,
            endpoint: scenario.entry_endpoint.clone(),
            weight: 1.0,
        }],
        profile: kind.profile(),
    }
}

// ---------------------------------------------------------------------------
// Fault scenarios
// ---------------------------------------------------------------------------

/// The fault dimension of the matrix: three single-version faults on the
/// experiment candidate and two correlated zone faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultScenario {
    /// Full outage of the candidate version.
    CandidateOutage,
    /// Extra 0.85 error probability on the candidate.
    CandidateErrorBurst,
    /// 6× latency on the candidate.
    CandidateLatencySpike,
    /// Simultaneous outage of every version in the fault zone.
    ZoneOutage,
    /// Cascading 6× latency storm across the fault zone.
    LatencyStorm,
}

/// All fault scenarios, in matrix-sweep order.
pub const FAULTS: [FaultScenario; 5] = [
    FaultScenario::CandidateOutage,
    FaultScenario::CandidateErrorBurst,
    FaultScenario::CandidateLatencySpike,
    FaultScenario::ZoneOutage,
    FaultScenario::LatencyStorm,
];

impl FaultScenario {
    /// Stable lowercase identifier.
    pub fn name(&self) -> &'static str {
        match self {
            FaultScenario::CandidateOutage => "candidate_outage",
            FaultScenario::CandidateErrorBurst => "candidate_error_burst",
            FaultScenario::CandidateLatencySpike => "candidate_latency_spike",
            FaultScenario::ZoneOutage => "zone_outage",
            FaultScenario::LatencyStorm => "latency_storm",
        }
    }

    /// `true` when the fault strikes a whole zone rather than only the
    /// candidate (canary-vs-baseline reports are blind to these).
    pub fn is_correlated(&self) -> bool {
        matches!(self, FaultScenario::ZoneOutage | FaultScenario::LatencyStorm)
    }
}

/// Concrete fault windows for one cell.
pub fn faults_for(
    scenario: &Scenario,
    fault: FaultScenario,
    from: SimTime,
    until: SimTime,
) -> Vec<Fault> {
    match fault {
        FaultScenario::CandidateOutage => {
            vec![Fault { version: scenario.candidate, kind: FaultKind::Outage, from, until }]
        }
        FaultScenario::CandidateErrorBurst => vec![Fault {
            version: scenario.candidate,
            kind: FaultKind::ErrorBurst { extra_error_rate: 0.85 },
            from,
            until,
        }],
        FaultScenario::CandidateLatencySpike => vec![Fault {
            version: scenario.candidate,
            kind: FaultKind::LatencySpike { multiplier: 6.0 },
            from,
            until,
        }],
        FaultScenario::ZoneOutage => {
            faults::zone_outage(&scenario.app.versions_in_zone(&scenario.fault_zone), from, until)
        }
        FaultScenario::LatencyStorm => faults::latency_storm(
            &scenario.app.versions_in_zone(&scenario.fault_zone),
            6.0,
            from,
            until,
        ),
    }
}

/// The versions a correct localizer may point at for this fault.
pub fn fault_victims(scenario: &Scenario, fault: FaultScenario) -> Vec<VersionId> {
    if fault.is_correlated() {
        scenario.app.versions_in_zone(&scenario.fault_zone)
    } else {
        vec![scenario.candidate]
    }
}

// ---------------------------------------------------------------------------
// Fault localizer
// ---------------------------------------------------------------------------

/// Per-edge statistics for localization: call volume, *blamed* failures
/// (failed with no failed child — the failure originated at this hop) and
/// a self-time sketch (duration minus children, so ancestors do not
/// inherit a deep spike).
#[derive(Debug, Clone)]
pub struct BlameStats {
    /// Executed calls folded into this edge.
    pub calls: u64,
    /// Calls blamed as the *origin* of a failure.
    pub blamed: u64,
    /// Self-time (ms) distribution.
    pub self_latency: QuantileSketch,
}

impl Default for BlameStats {
    fn default() -> Self {
        BlameStats { calls: 0, blamed: 0, self_latency: QuantileSketch::for_latency() }
    }
}

impl BlameStats {
    /// Fraction of calls blamed for a failure.
    pub fn blame_rate(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.blamed as f64 / self.calls as f64
        }
    }

    /// Self-time p95 in milliseconds (0 when empty).
    pub fn self_p95(&self) -> f64 {
        self.self_latency.quantile(0.95).unwrap_or(0.0)
    }
}

/// Folds traces into per-edge [`BlameStats`] — the corpus counterpart of
/// [`crate::health::HealthAccumulator`], specialised for time-window
/// comparison instead of canary-vs-baseline comparison.
#[derive(Debug, Clone, Default)]
pub struct BlameAccumulator {
    edges: EdgeTable<BlameStats>,
    /// Per-trace child sums, indexed by hop position; kept for their
    /// capacity.
    child_ms: Vec<f64>,
    child_failed: Vec<bool>,
}

impl BlameAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds every primary (non-dark, executed) span of `trace`, with the
    /// trace's weight. Shed/fallback event spans never ran the endpoint;
    /// localization judges executed work only.
    pub fn observe_trace(&mut self, trace: &Trace) {
        let weight = u64::from(trace.weight);
        self.child_ms.clear();
        self.child_ms.resize(trace.spans.len(), 0.0);
        self.child_failed.clear();
        self.child_failed.resize(trace.spans.len(), false);
        for hop in trace.hops().filter(|hop| !hop.span.dark) {
            if let Some((caller, _)) = hop.caller {
                self.child_ms[caller] += hop.span.duration.as_millis_f64();
                self.child_failed[caller] |= hop.span.status.failed();
            }
        }
        for hop in trace.hops().filter(|hop| !hop.span.dark && hop.span.status.executed()) {
            let stats = self.edges.get_or_default(hop.edge());
            stats.calls += weight;
            if hop.span.status.failed() && !self.child_failed[hop.index] {
                stats.blamed += weight;
            }
            let self_ms = (hop.span.duration.as_millis_f64() - self.child_ms[hop.index]).max(0.0);
            stats.self_latency.push_weighted(self_ms, weight);
        }
    }

    /// The accumulated edges, read by key or in key order.
    pub fn edges(&self) -> &EdgeTable<BlameStats> {
        &self.edges
    }
}

/// Ranks edges by degradation between a healthy and a faulted window:
/// blame-rate delta weighted like error rates, self-p95 delta weighted
/// like latency (the [`crate::health`] score constants). Ties break on
/// the edge key, so the ranking is deterministic.
pub fn localize(healthy: &BlameAccumulator, faulted: &BlameAccumulator) -> Vec<(EdgeKey, f64)> {
    let mut ranked: Vec<(EdgeKey, f64)> = faulted
        .edges
        .iter()
        .map(|(key, f)| {
            let (blame_h, p95_h) = match healthy.edges.get(key) {
                Some(h) => (h.blame_rate(), h.self_p95()),
                None => (0.0, 0.0),
            };
            let score = (f.blame_rate() - blame_h).max(0.0) * SCORE_ERROR_RATE_WEIGHT
                + (f.self_p95() - p95_h).max(0.0) * SCORE_P95_DELTA_WEIGHT;
            (*key, score)
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal).then(a.0.cmp(&b.0))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_seed_deterministic() {
        for family in FAMILIES {
            let a = generate(family, 7);
            let b = generate(family, 7);
            assert_eq!(a.app, b.app, "{}", family.name());
            let c = generate(family, 8);
            assert_ne!(a.app, c.app, "{} must jitter with the seed", family.name());
        }
    }

    #[test]
    fn every_family_is_valid_and_zoned() {
        for family in FAMILIES {
            let s = generate(family, 1);
            s.app.validate().unwrap();
            assert!(!s.app.zones().is_empty(), "{} has zones", family.name());
            // The fault zone exists, contains the experiment service and
            // excludes the entry service.
            let members = s.app.versions_in_zone(&s.fault_zone);
            assert!(!members.is_empty());
            assert!(members.contains(&s.baseline));
            assert!(members.contains(&s.candidate));
            assert!(members.iter().all(|v| s.app.version(*v).service != s.entry_service));
        }
    }

    #[test]
    fn candidate_mirrors_baseline_shape() {
        for family in FAMILIES {
            let s = generate(family, 3);
            let b = s.app.version(s.baseline);
            let c = s.app.version(s.candidate);
            assert_eq!(b.service, c.service);
            assert_eq!(b.endpoints.len(), c.endpoints.len());
            assert_eq!(b.zone, c.zone);
        }
    }

    #[test]
    fn scenarios_run_under_every_workload() {
        for family in FAMILIES {
            let s = generate(family, 5);
            for kind in WORKLOADS {
                let wl = workload_for(&s, kind, 20.0);
                wl.validate().unwrap();
                let mut sim = Simulation::new(s.app.clone(), 42);
                let report = sim.run_with(SimDuration::from_secs(20), &wl);
                assert!(
                    report.requests > 100,
                    "{}/{}: {} requests",
                    family.name(),
                    kind.name(),
                    report.requests
                );
            }
        }
    }

    #[test]
    fn zone_faults_strike_every_zone_member() {
        let s = generate(TopologyFamily::CellPartition, 2);
        let members = s.app.versions_in_zone(&s.fault_zone);
        assert_eq!(members.len(), 4, "cell-0 front/mid(+candidate)/db");
        let faults = faults_for(
            &s,
            FaultScenario::ZoneOutage,
            SimTime::from_secs(10),
            SimTime::from_secs(20),
        );
        assert_eq!(faults.len(), members.len());
    }

    #[test]
    fn localizer_blames_the_faulted_service_not_its_ancestors() {
        // Deep chain, outage at svc-1's candidate: every ancestor fails
        // too, but blame must land on the faulted version.
        let s = generate(TopologyFamily::DeepChain, 11);
        let mut sim = Simulation::new(s.app.clone(), 99);
        sim.set_trace_sampling(1.0);
        s.canary_split(&mut sim, 0.3).unwrap();
        let wl = workload_for(&s, WorkloadKind::Steady, 30.0);
        sim.run_with(SimDuration::from_secs(30), &wl);
        let mut healthy = BlameAccumulator::new();
        for t in sim.drain_traces() {
            healthy.observe_trace(&t);
        }
        for f in faults_for(
            &s,
            FaultScenario::CandidateOutage,
            sim.now(),
            sim.now() + SimDuration::from_secs(30),
        ) {
            sim.inject_fault(f);
        }
        sim.run_with(SimDuration::from_secs(30), &wl);
        let mut faulted = BlameAccumulator::new();
        for t in sim.drain_traces() {
            faulted.observe_trace(&t);
        }
        let ranked = localize(&healthy, &faulted);
        let top = &ranked[0];
        assert!(top.1 > 0.0, "top edge must be degraded");
        assert_eq!(top.0.callee, s.candidate, "blame lands on the faulted candidate");
    }
}
