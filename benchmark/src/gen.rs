//! Seeded generators: fleets (application + strategy DSL + workload).
//!
//! The benchmark seed is consumed here and nowhere else; the program
//! under test sees only what these functions return — an
//! [`Application`], DSL source text, a [`Workload`] and a sim seed.
//!
//! Every size that decides how much work a run does (service, endpoint,
//! call and strategy counts, call probability, rates, durations) is fixed
//! by the shape, never drawn from the seed: the driver compares runs made
//! with different seeds, so a seed may change *which* services are wired
//! together and *which* candidates are bad, not *how much* there is to do.
//! For the same reason calls are dealt, not drawn: every endpoint of a
//! layer is called by the same number of callers (to within one), so every
//! candidate sees traffic and no seed builds a hot spot.

use cex_core::rng::{sub_seed, SplitMix64};
use cex_core::simtime::SimDuration;
use cex_core::users::Population;
use microsim::app::{Application, CallDef, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::workload::{EntryPoint, RateProfile, Workload};
use std::fmt::Write as _;

/// Median own latency of a generated endpoint before jitter
/// (`random_app`'s default).
const MEDIAN_LATENCY_MS: f64 = 8.0;
/// Probability of each generated call: the mean of `random_app`'s
/// `U(0.5, 1)` draw, pinned so events per request do not depend on the seed.
const CALL_PROBABILITY: f64 = 0.75;
/// Requests per second at which a version's latency doubles
/// (`VersionSpec::capacity`). Far above any generated version's share of
/// the traffic, so a candidate that carries 100% of its service's requests
/// is not slower than its idle baseline for that reason alone — which an
/// always-valid sequential check would, correctly, call harm.
const CAPACITY_RPS: f64 = 50_000.0;
/// A healthy candidate is slightly faster than its baseline.
const HEALTHY_LATENCY_FACTOR: f64 = 0.95;
/// A bad candidate is four times slower and fails a quarter of its
/// requests — far outside every check's threshold, on any seed.
const BAD_LATENCY_FACTOR: f64 = 4.0;
const BAD_ERROR_RATE: f64 = 0.25;

/// The size of a generated fleet's application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetShape {
    /// Number of services.
    pub services: usize,
    /// Call-graph layers; `1` makes every service a one-hop entry point.
    pub layers: usize,
    /// Endpoints per service.
    pub endpoints: usize,
    /// Outgoing calls per endpoint (to the next layer; none from the last).
    pub calls: usize,
    /// The first `candidates` services also get a `2.0.0` version.
    pub candidates: usize,
    /// How many of those candidates are bad.
    pub bad: usize,
    /// `(concurrency_limit, queue_capacity)` applied to every version.
    pub limits: Option<(u32, u32)>,
}

/// A generated fleet application and the ground truth about its candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// The application, every candidate already deployed.
    pub app: Application,
    /// `bad[i]` is `true` when service `i`'s candidate is the bad kind.
    pub bad: Vec<bool>,
}

/// Name of generated service `i`.
pub fn service_name(i: usize) -> String {
    format!("svc-{i:04}")
}

/// Name of the strategy that rolls out service `i`'s candidate.
pub fn strategy_name(i: usize) -> String {
    format!("s{i:04}")
}

fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.next_index(i + 1));
    }
}

/// Deals the calls out of one layer: `callers * calls` targets in which
/// every `(service, endpoint)` of the next layer appears equally often (to
/// within one), in seeded order.
fn deal_calls(
    next_layer: &[usize],
    endpoints: usize,
    needed: usize,
    rng: &mut SplitMix64,
) -> Vec<(usize, usize)> {
    let mut targets: Vec<(usize, usize)> =
        next_layer.iter().flat_map(|svc| (0..endpoints).map(move |ep| (*svc, ep))).collect();
    shuffle(&mut targets, rng);
    let mut deck: Vec<(usize, usize)> = targets.iter().copied().cycle().take(needed).collect();
    shuffle(&mut deck, rng);
    deck
}

/// Generates a layered DAG in the shape of `microsim::topologies::random_app`:
/// services are spread round-robin over the layers, each endpoint of layer
/// `l` calls `calls` endpoints of layer `l + 1` (dealt by [`deal_calls`]),
/// zones rotate `zone-{i % 3}`.
pub fn fleet_app(shape: &FleetShape, seed: u64) -> Fleet {
    assert!(shape.layers >= 1 && shape.services >= shape.layers, "one service per layer");
    assert!(shape.bad <= shape.candidates && shape.candidates <= shape.services);
    let mut rng = SplitMix64::new(sub_seed(seed, 0xA99));

    let mut bad = vec![false; shape.candidates];
    let mut order: Vec<usize> = (0..shape.candidates).collect();
    shuffle(&mut order, &mut rng);
    order[..shape.bad].iter().for_each(|svc| bad[*svc] = true);

    let layer_of = |svc: usize| svc % shape.layers;
    let in_layer = |layer: usize| -> Vec<usize> {
        (0..shape.services).filter(|s| layer_of(*s) == layer).collect()
    };
    // One deck per layer that has a next one; callers draw from its end.
    let mut decks: Vec<Vec<(usize, usize)>> = (0..shape.layers.saturating_sub(1))
        .map(|layer| {
            let needed = in_layer(layer).len() * shape.endpoints * shape.calls;
            deal_calls(&in_layer(layer + 1), shape.endpoints, needed, &mut rng)
        })
        .collect();
    let mut b = Application::builder();
    for svc in 0..shape.services {
        let layer = layer_of(svc);
        // (median, calls) per endpoint, shared by both versions.
        let mut endpoints = Vec::with_capacity(shape.endpoints);
        for _ in 0..shape.endpoints {
            let median = MEDIAN_LATENCY_MS * (0.5 + rng.next_f64());
            let mut calls = Vec::new();
            if let Some(deck) = decks.get_mut(layer) {
                for _ in 0..shape.calls {
                    let (callee, callee_ep) = deck.pop().expect("one card per call");
                    calls.push(CallDef::with_probability(
                        service_name(callee),
                        format!("ep{callee_ep}"),
                        CALL_PROBABILITY,
                    ));
                }
            }
            endpoints.push((median, calls));
        }
        let version = |label: &str, latency_factor: f64, error_rate: f64| {
            let mut spec = VersionSpec::new(service_name(svc), label)
                .capacity(CAPACITY_RPS)
                .zone(format!("zone-{}", svc % 3));
            if let Some((slots, depth)) = shape.limits {
                spec = spec.concurrency_limit(slots).queue_capacity(depth);
            }
            for (ep, (median, calls)) in endpoints.iter().enumerate() {
                let mut def =
                    EndpointDef::new(format!("ep{ep}"), LatencyModel::web(median * latency_factor))
                        .error_rate(error_rate);
                for call in calls {
                    def = def.call(call.clone());
                }
                spec = spec.endpoint(def);
            }
            spec
        };
        b.version(version("1.0.0", 1.0, 0.0));
        if let Some(is_bad) = bad.get(svc) {
            let (latency_factor, error_rate) = if *is_bad {
                (BAD_LATENCY_FACTOR, BAD_ERROR_RATE)
            } else {
                (HEALTHY_LATENCY_FACTOR, 0.0)
            };
            b.version(version("2.0.0", latency_factor, error_rate));
        }
    }
    Fleet { app: b.build().expect("generated fleet is statically valid"), bad }
}

/// Traffic spread uniformly over the entry tier (every endpoint of every
/// layer-0 service), open loop, at `rate_rps` modulated by `profile`.
pub fn fleet_workload(
    fleet: &Fleet,
    shape: &FleetShape,
    rate_rps: f64,
    profile: RateProfile,
) -> Workload {
    let entries = (0..shape.services)
        .filter(|svc| svc % shape.layers == 0)
        .flat_map(|svc| {
            let service = fleet.app.service_id(&service_name(svc)).expect("generated service");
            (0..shape.endpoints).map(move |ep| EntryPoint {
                service,
                endpoint: format!("ep{ep}"),
                weight: 1.0,
            })
        })
        .collect();
    Workload { population: Population::single("all", 50_000), rate_rps, entries, profile }
}

/// Bursty arrivals: a two-state MMPP between 0.5x and 2.2x (the corpus'
/// multipliers). The dwell times are far shorter than the corpus' 20 s /
/// 8 s, so a run sees thousands of bursts and its request count stays
/// within about two percent from seed to seed; a burst still lasts several
/// service times.
pub fn bursty_profile() -> RateProfile {
    RateProfile::Mmpp {
        calm_multiplier: 0.5,
        burst_multiplier: 2.2,
        mean_calm: SimDuration::from_millis(125),
        mean_burst: SimDuration::from_millis(50),
    }
}

/// Which strategy text [`fleet_dsl`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Template {
    /// Two threshold checks every 30 s, canary then ramp.
    Traffic,
    /// Eight checks every 10 s over four scopes (sequential-vs-baseline,
    /// candidate threshold, app, trace), canary then ramp, runtime events.
    Control,
    /// One chaos window per strategy, sequential and app-scope checks.
    Chaos,
}

/// Durations of the two generated phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhasePlan {
    /// Canary phase length in seconds.
    pub canary_s: u64,
    /// Ramp phase length in seconds; the ramp steps every `ramp_s / 6`.
    pub ramp_s: u64,
}

impl PhasePlan {
    /// Simulated seconds a healthy strategy needs to complete.
    pub fn total_s(&self) -> u64 {
        self.canary_s + self.ramp_s
    }
}

/// Confidence of every generated sequential check.
pub const SEQUENTIAL_CONFIDENCE: f64 = 0.99;

const TRAFFIC_CHECKS: &str = "\
    check error_rate < 0.15 over 1m every 30s min_samples 20
    check response_time vs_baseline < 3.0 over 1m every 30s min_samples 20
";

const CHAOS_APP_CHECKS: &str = "\
    check error_rate app < 0.9 over 30s every 10s min_samples 50
    check response_time app < 5000 over 30s every 10s min_samples 50
";

/// Writes the fleet's strategies as DSL text: one strategy per candidate,
/// `canary` then `ramp`, plus a `runtime` block when `report_every > 0`.
pub fn fleet_dsl(template: Template, fleet: &Fleet, plan: PhasePlan, report_every: u64) -> String {
    let mut src = String::new();
    if report_every > 0 {
        let _ = writeln!(src, "runtime {{\n  report_every {report_every}\n  profile off\n}}");
    }
    let step_s = (plan.ramp_s / 6).max(1);
    // The checks of the canary phase and of the ramp phase.
    let (canary_checks, ramp_checks) = match template {
        Template::Traffic => (TRAFFIC_CHECKS.to_string(), TRAFFIC_CHECKS.to_string()),
        Template::Control => {
            let checks = format!(
                "\
    check response_time sequential vs baseline < confidence {c} every 10s min_samples 30
    check error_rate sequential vs baseline < confidence {c} every 10s min_samples 30
    check error_rate < 0.12 over 2m every 10s min_samples 12
    check response_time < 26 over 2m every 10s min_samples 12
    check error_rate app < 0.2 over 1m every 10s min_samples 50
    check response_time app < 60 over 1m every 10s min_samples 50
    check error_rate trace < 0.12 over 2m every 10s min_samples 12
    check response_time trace < 26 over 2m every 10s min_samples 12
",
                c = SEQUENTIAL_CONFIDENCE
            );
            (checks.clone(), checks)
        }
        // Every chaos window falls inside the canary phase, and while
        // one is open breakers, queues and retries treat the version
        // with more traffic differently from the one with less: a
        // sequential comparison over that time finds differences that
        // are real but say nothing about the candidate. So the canary
        // phase watches the application only, and the comparison runs
        // over the quiet ramp.
        Template::Chaos => (
            CHAOS_APP_CHECKS.to_string(),
            format!(
                "    check response_time sequential vs baseline < confidence {c} every 10s min_samples 30\n{CHAOS_APP_CHECKS}",
                c = SEQUENTIAL_CONFIDENCE
            ),
        ),
    };
    let mut healthy_seen = 0usize;
    for (i, bad) in fleet.bad.iter().enumerate() {
        // A healthy candidate's window strikes its baseline or a whole
        // zone, a bad candidate is struck itself. The kinds rotate over
        // the healthy strategies, so three of them bring every kind on any
        // seed. The zone-wide spike also slows services no strategy owns,
        // whose timeout samples therefore outlive the run in the store.
        let inject = match template {
            Template::Chaos if *bad => {
                "    inject latency_spike 2 on candidate after 20s for 30s\n"
            }
            Template::Chaos => {
                healthy_seen += 1;
                match healthy_seen % 3 {
                    1 => "    inject zone_outage \"zone-1\" after 30s for 15s\n",
                    2 => "    inject latency_spike 40 on zone \"zone-2\" after 40s for 30s\n",
                    _ => "    inject error_burst 0.3 on baseline after 50s for 30s\n",
                }
            }
            _ => "",
        };
        let _ = write!(
            src,
            "strategy \"{name}\" {{
  service \"{service}\" baseline \"1.0.0\" candidate \"2.0.0\"
  phase \"canary\" canary 20% for {canary}s {{
{inject}{canary_checks}    on success goto \"ramp\"
    on failure rollback
    on inconclusive goto \"ramp\"
  }}
  phase \"ramp\" ramp from 40% to 100% step 20% every {step}s for {ramp}s {{
{ramp_checks}    on success complete
    on failure rollback
    on inconclusive complete
  }}
}}
",
            name = strategy_name(i),
            service = service_name(i),
            canary = plan.canary_s,
            step = step_s,
            ramp = plan.ramp_s,
        );
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;
    use bifrost::dsl;

    const SHAPE: FleetShape = FleetShape {
        services: 8,
        layers: 4,
        endpoints: 3,
        calls: 2,
        candidates: 4,
        bad: 1,
        limits: None,
    };
    const PLAN: PhasePlan = PhasePlan { canary_s: 60, ramp_s: 120 };

    #[test]
    fn generators_are_pure_in_the_seed() {
        let (a, b, c) = (fleet_app(&SHAPE, 42), fleet_app(&SHAPE, 42), fleet_app(&SHAPE, 7));
        assert_eq!(a, b, "same seed, same app and ground truth");
        assert_ne!(a.app, c.app, "another seed wires another app");
        for template in [Template::Traffic, Template::Control, Template::Chaos] {
            assert_eq!(fleet_dsl(template, &a, PLAN, 6), fleet_dsl(template, &b, PLAN, 6));
        }
        // 256 candidates, 32 bad: two seeds agreeing on all of them is a bug.
        let wide = FleetShape { services: 256, layers: 1, candidates: 256, bad: 32, ..SHAPE };
        let (x, y) = (fleet_app(&wide, 42), fleet_app(&wide, 7));
        assert_ne!(x.bad, y.bad);
        assert_ne!(
            fleet_dsl(Template::Chaos, &x, PLAN, 0),
            fleet_dsl(Template::Chaos, &y, PLAN, 0),
            "the chaos text follows the ground truth"
        );
    }

    #[test]
    fn shape_fixes_every_count() {
        for seed in [1, 2, 3] {
            let fleet = fleet_app(&SHAPE, seed);
            assert_eq!(fleet.app.service_count(), 8);
            assert_eq!(fleet.app.version_count(), 12);
            assert_eq!(fleet.app.endpoint_count(), 36);
            assert_eq!(fleet.bad.iter().filter(|b| **b).count(), 1);
            assert_eq!(fleet.app.zones().len(), 3);
        }
    }

    #[test]
    fn every_template_parses_as_a_fleet() {
        let fleet = fleet_app(&SHAPE, 42);
        for (template, checks, every) in [
            (Template::Traffic, [2, 2], 0),
            (Template::Control, [8, 8], 6),
            (Template::Chaos, [2, 3], 0),
        ] {
            let src = fleet_dsl(template, &fleet, PLAN, every);
            let (strategies, settings) = dsl::parse_fleet(&src).expect("generated DSL parses");
            assert_eq!(strategies.len(), 4);
            assert_eq!(settings.report_every, every);
            for s in &strategies {
                assert_eq!(s.phases.len(), 2);
                assert_eq!([s.phases[0].checks.len(), s.phases[1].checks.len()], checks);
                assert_eq!(s.phases[0].chaos.is_some(), template == Template::Chaos);
            }
        }
    }
}
