//! Golden event core: every observable output of four seeded windows runs,
//! pinned to constants.
//!
//! A test that compares two runs of the *same* binary cannot fail when a
//! change to the scheduler reorders two events the same way in both. These
//! can: each digest below was computed once, at the commit before the
//! scheduling and merge layers were rebuilt. The digest covers the metric
//! store (per scope and kind: count and whole-run summary), the drained
//! traces, the breaker transition log, the counter registry
//! (`sim.events.{popped,sent,subrounds}` among them) and the per-window
//! reports.
//!
//! The third scene is uncontended — no call policy, no concurrency limit,
//! no mirror — so the event core runs its same-instant events inline and
//! queues fewer events than it did. Its digest leaves `sim.events.*` out
//! and was computed at the commit before inline events: every other output
//! is what the queued path gave. Its `popped` count is pinned apart.
//!
//! The fourth scene is uncontended too: an entry that fails only when its
//! callee does, under the null policy. Its digest covers everything and
//! was computed on the event core it was added to, with inline events, so
//! a settled child failure that stopped failing its caller moves it.
//!
//! If a digest moves because request semantics changed on purpose, say so
//! in the change that moves it and re-pin the constant.

use std::fmt::Write as _;

use cex_core::metrics::MetricKind;
use cex_core::obs::Counters;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, CallDef, EndpointDef, VersionId, VersionSpec};
use microsim::faults::{Fault, FaultKind};
use microsim::latency::LatencyModel;
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::Simulation;
use microsim::topologies::{random_app, RandomAppParams};
use microsim::trace::{TailSamplingConfig, Trace};

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

/// What one run leaves behind: the digest of everything the simulation
/// exposes, the event count, and which paths the scenario actually walked.
struct Outcome {
    digest: String,
    popped: u64,
    /// Total samples per metric kind over all scopes.
    samples: Vec<(MetricKind, usize)>,
    breaker_transitions: usize,
    dark_spans: usize,
    /// Traces whose root span did not end ok.
    failed_roots: usize,
}

impl Outcome {
    fn samples_of(&self, kind: MetricKind) -> usize {
        self.samples.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n)
    }
}

/// Whether a digest covers the `sim.events.*` counters.
#[derive(Clone, Copy, PartialEq)]
enum EventCounts {
    Digested,
    Left,
}

fn run(
    mut sim: Simulation,
    windows: usize,
    window: SimDuration,
    rate_rps: f64,
    event_counts: EventCounts,
) -> Outcome {
    let mut dump = String::new();
    let mut samples: Vec<(MetricKind, usize)> =
        MetricKind::all().into_iter().map(|k| (k, 0)).collect();
    for _ in 0..windows {
        let report = sim.run(window, rate_rps);
        writeln!(dump, "{report:?}").unwrap();
    }
    let mut scopes = sim.store().scopes();
    scopes.sort();
    let horizon = SimTime::from_secs(100_000);
    for scope in &scopes {
        for kind in MetricKind::all() {
            let count = sim.store().count(scope, kind);
            samples.iter_mut().find(|(k, _)| *k == kind).expect("listed above").1 += count;
            let summary = sim.store().summary_between(scope, kind, SimTime::ZERO, horizon);
            writeln!(dump, "{scope} {kind:?} {count} {summary:?}").unwrap();
        }
    }
    let counters = sim.counters();
    if event_counts == EventCounts::Digested {
        writeln!(dump, "{counters:?}").unwrap();
    } else {
        let mut kept = Counters::new();
        for (name, count) in counters.counts().filter(|(name, _)| !name.starts_with("sim.events."))
        {
            kept.add(name, count);
        }
        for (name, gauge) in counters.gauges() {
            kept.hwm(name, gauge);
        }
        writeln!(dump, "{kept:?}").unwrap();
    }
    let transitions = sim.drain_breaker_transitions();
    for transition in &transitions {
        writeln!(dump, "{transition:?}").unwrap();
    }
    let traces = sim.drain_traces();
    for trace in &traces {
        write_trace(&mut dump, trace, sim.app());
    }
    Outcome {
        digest: format!("{:016x}", fnv1a(dump.as_bytes())),
        popped: counters.count("sim.events.popped"),
        samples,
        breaker_transitions: transitions.len(),
        dark_spans: traces.iter().flat_map(|t| &t.spans).filter(|s| s.dark).count(),
        failed_roots: traces
            .iter()
            .filter(|t| t.spans.iter().any(|s| s.parent.is_none() && !s.status.is_ok()))
            .count(),
    }
}

/// One trace in the `Debug` text the digests were computed over, from when
/// every span also carried its trace's id and its version's service.
fn write_trace(dump: &mut String, trace: &Trace, app: &Application) {
    write!(dump, "Trace {{ id: {:?}, spans: [", trace.id).unwrap();
    for (i, s) in trace.spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        write!(
            dump,
            "{sep}Span {{ trace: {:?}, span: {:?}, parent: {:?}, service: {:?}, version: {:?}, \
             endpoint: {:?}, start: {:?}, duration: {:?}, status: {:?}, attempt: {:?}, \
             dark: {:?} }}",
            trace.id,
            s.span,
            s.parent,
            app.version(s.version).service,
            s.version,
            s.endpoint,
            s.start,
            s.duration,
            s.status,
            s.attempt,
            s.dark,
        )
        .unwrap();
    }
    writeln!(dump, "], weight: {:?} }}", trace.weight).unwrap();
}

/// A second version of `baseline`'s service with the same endpoints and
/// calls, behind a concurrency limit and a bounded admission queue.
fn limited_copy(app: &Application, baseline: VersionId, label: &str) -> VersionSpec {
    copy_of(app, baseline, label).concurrency_limit(2).queue_capacity(3)
}

/// A second version of `baseline`'s service with the same endpoints and
/// calls, at capacity 500.
fn copy_of(app: &Application, baseline: VersionId, label: &str) -> VersionSpec {
    let version = app.version(baseline);
    let mut spec = VersionSpec::new(app.service_name(version.service), label)
        .capacity(500.0)
        .load_sensitivity(version.load_sensitivity);
    for eid in &version.endpoints {
        let ep = app.endpoint(*eid);
        let mut def = EndpointDef::new(ep.name.clone(), ep.latency).error_rate(ep.error_rate);
        for call in &ep.calls {
            def = def.call(CallDef::with_probability(
                app.service_name(call.service),
                call.endpoint.clone(),
                call.probability,
            ));
        }
        spec = spec.endpoint(def);
    }
    spec
}

/// Seeded random topology with everything on: a limited + queued candidate
/// taking half of one service's traffic, a dark-launch mirror, an outage
/// and a latency spike, timeouts + jittered retries + breakers + fallbacks,
/// head sampling at 0.5 with tail sampling behind it.
fn random_topology() -> Simulation {
    let params = RandomAppParams { services: 12, layers: 3, ..RandomAppParams::default() };
    let app = random_app(&params, 5);
    let outage_target = app.version_id("svc-0001", "1.0.0").unwrap();
    let split_baseline = app.version_id("svc-0004", "1.0.0").unwrap();
    let mirror_baseline = app.version_id("svc-0002", "1.0.0").unwrap();
    let split_spec = limited_copy(&app, split_baseline, "2.0.0");
    let mirror_spec = limited_copy(&app, mirror_baseline, "2.0.0");

    let mut sim = Simulation::new(app, 0x00C0_FFEE);
    let candidate = sim.deploy(split_spec).unwrap();
    let mirror = sim.deploy(mirror_spec).unwrap();
    let split_service = sim.app().service_id("svc-0004").unwrap();
    let mirror_service = sim.app().service_id("svc-0002").unwrap();
    let (app, router) = sim.app_and_router_mut();
    router.set_split(app, split_service, vec![(split_baseline, 0.5), (candidate, 0.5)]).unwrap();
    router.add_mirror(app, mirror_service, mirror).unwrap();

    sim.set_trace_sampling(0.5);
    sim.set_tail_sampling(Some(TailSamplingConfig {
        healthy_keep_one_in: 4,
        slow_quantile: 0.9,
        warmup: 64,
    }));
    sim.set_call_policy(CallPolicy {
        attempt_timeout: Some(SimDuration::from_millis(25)),
        max_retries: 1,
        backoff_base: SimDuration::from_millis(5),
        backoff_multiplier: 2.0,
        jitter: 0.5,
        breaker: Some(BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 40,
            cooldown: SimDuration::from_secs(5),
            half_open_probes: 3,
        }),
        fallback: true,
        fallback_latency: SimDuration::from_millis(1),
    });
    sim.inject_fault(Fault {
        version: outage_target,
        kind: FaultKind::Outage,
        from: SimTime::from_secs(10),
        until: SimTime::from_secs(20),
    });
    sim.inject_fault(Fault {
        version: candidate,
        kind: FaultKind::LatencySpike { multiplier: 6.0 },
        from: SimTime::from_secs(4),
        until: SimTime::from_secs(26),
    });
    sim
}

/// Hand-built fan-out with zero own latency and zero proxy overhead: a
/// request's `Call → Done → Reply` chains through `mid-*` and `leaf` all
/// land on its arrival millisecond, sub-round after sub-round. The call to
/// `slow` (7 ms) runs under a 5 ms deadline with one zero-backoff retry and
/// a zero-latency fallback, so its `Timeout` fires in the deferred phase
/// and the retry it dispatches re-opens a normal phase at the same `t`,
/// while the abandoned attempt's reply arrives stale 2 ms later.
fn zero_latency_fanout() -> Simulation {
    let zero = LatencyModel::Constant { ms: 0.0 };
    let plain = |name: &str| VersionSpec::new(name, "1.0.0").capacity(10_000.0);
    let mut b = Application::builder();
    b.version(
        plain("front").endpoint(
            EndpointDef::new("home", zero)
                .call(CallDef::always("mid-a", "x"))
                .call(CallDef::always("slow", "x"))
                .call(CallDef::with_probability("mid-b", "x", 0.5))
                .call(CallDef::always("mid-c", "x")),
        ),
    );
    for mid in ["mid-a", "mid-b", "mid-c"] {
        b.version(
            plain(mid).endpoint(EndpointDef::new("x", zero).call(CallDef::always("leaf", "x"))),
        );
    }
    b.version(plain("leaf").endpoint(EndpointDef::new("x", zero)));
    b.version(plain("slow").endpoint(EndpointDef::new("x", LatencyModel::Constant { ms: 7.0 })));
    let mut sim = Simulation::new(b.build().unwrap(), 0x00FA_0007);
    sim.set_trace_sampling(1.0);
    sim.set_call_policy(CallPolicy {
        attempt_timeout: Some(SimDuration::from_millis(5)),
        max_retries: 1,
        backoff_base: SimDuration::ZERO,
        backoff_multiplier: 1.0,
        jitter: 0.0,
        breaker: None,
        fallback: true,
        fallback_latency: SimDuration::ZERO,
    });
    sim
}

/// A seeded random topology with nothing that contends: no call policy, no
/// concurrency limit, no mirror. Load sensitivity is on and the entry
/// service is offered 90% of its capacity, so per-second rates move the
/// latency multipliers; a candidate takes 30% of one service under a
/// latency spike, an error burst and an outage strike two others, and half
/// the requests are traced with tail sampling behind.
fn uncontended_canary() -> Simulation {
    let params = RandomAppParams { services: 12, layers: 3, ..RandomAppParams::default() };
    let app = random_app(&params, 11);
    let split_baseline = app.version_id("svc-0004", "1.0.0").unwrap();
    let burst_target = app.version_id("svc-0002", "1.0.0").unwrap();
    let outage_target = app.version_id("svc-0007", "1.0.0").unwrap();
    let split_spec = copy_of(&app, split_baseline, "2.0.0");

    let mut sim = Simulation::new(app, 0x0051_DE11);
    let candidate = sim.deploy(split_spec).unwrap();
    let split_service = sim.app().service_id("svc-0004").unwrap();
    let (app, router) = sim.app_and_router_mut();
    router.set_split(app, split_service, vec![(split_baseline, 0.7), (candidate, 0.3)]).unwrap();

    sim.set_trace_sampling(0.5);
    sim.set_tail_sampling(Some(TailSamplingConfig {
        healthy_keep_one_in: 4,
        slow_quantile: 0.9,
        warmup: 64,
    }));
    for (version, kind, from_s, until_s) in [
        (candidate, FaultKind::LatencySpike { multiplier: 4.0 }, 1, 7),
        (burst_target, FaultKind::ErrorBurst { extra_error_rate: 0.3 }, 3, 8),
        (outage_target, FaultKind::Outage, 6, 9),
    ] {
        sim.inject_fault(Fault {
            version,
            kind,
            from: SimTime::from_secs(from_s),
            until: SimTime::from_secs(until_s),
        });
    }
    sim
}

/// An uncontended chain under the null call policy (no fallback): the
/// entry endpoint never fails on its own, but it calls `checkout`, which
/// fails at a 10% rate and at 60% during an error burst, and `catalog`,
/// which is healthy. Every failure the entry records is a settled child
/// failure; a call that loses one still counts the request as served.
fn failing_callee() -> Simulation {
    let constant = |ms| LatencyModel::Constant { ms };
    let plain = |name: &str| VersionSpec::new(name, "1.0.0").capacity(10_000.0);
    let mut b = Application::builder();
    b.version(
        plain("front").endpoint(
            EndpointDef::new("home", constant(2.0))
                .call(CallDef::always("checkout", "pay"))
                .call(CallDef::with_probability("catalog", "list", 0.5)),
        ),
    );
    b.version(plain("checkout").endpoint(EndpointDef::new("pay", constant(4.0)).error_rate(0.1)));
    b.version(plain("catalog").endpoint(EndpointDef::new("list", constant(3.0))));
    let app = b.build().unwrap();
    let checkout = app.version_id("checkout", "1.0.0").unwrap();
    let mut sim = Simulation::new(app, 0x00FA_11ED);
    sim.set_trace_sampling(1.0);
    sim.inject_fault(Fault {
        version: checkout,
        kind: FaultKind::ErrorBurst { extra_error_rate: 0.5 },
        from: SimTime::from_secs(2),
        until: SimTime::from_secs(4),
    });
    sim
}

#[test]
fn random_topology_outputs_are_pinned() {
    let out = run(random_topology(), 3, SimDuration::from_secs(10), 40.0, EventCounts::Digested);
    assert_eq!((out.digest.as_str(), out.popped), (RANDOM_TOPOLOGY_DIGEST, RANDOM_TOPOLOGY_POPPED));
    // The scenario walks the paths it claims to.
    for kind in [
        MetricKind::QueueDelay,
        MetricKind::Shed,
        MetricKind::Timeout,
        MetricKind::Retry,
        MetricKind::FallbackServed,
        MetricKind::BreakerOpen,
    ] {
        assert!(out.samples_of(kind) > 0, "no {kind:?} sample");
    }
    assert!(out.breaker_transitions > 0, "no breaker transition");
    assert!(out.dark_spans > 0, "no mirrored span was traced");
}

#[test]
fn zero_latency_fanout_outputs_are_pinned() {
    let out =
        run(zero_latency_fanout(), 2, SimDuration::from_secs(2), 150.0, EventCounts::Digested);
    assert_eq!((out.digest.as_str(), out.popped), (ZERO_LATENCY_DIGEST, ZERO_LATENCY_POPPED));
    // Every request times out twice (attempt + retry) and falls back.
    let requests = out.samples_of(MetricKind::Throughput);
    assert!(requests > 0);
    assert_eq!(out.samples_of(MetricKind::Timeout), 2 * out.samples_of(MetricKind::Retry));
    assert_eq!(out.samples_of(MetricKind::FallbackServed), out.samples_of(MetricKind::Retry));
}

#[test]
fn uncontended_canary_outputs_are_pinned() {
    let out = run(uncontended_canary(), 2, SimDuration::from_secs(5), 450.0, EventCounts::Left);
    assert_eq!((out.digest.as_str(), out.popped), (UNCONTENDED_DIGEST, UNCONTENDED_POPPED));
    for kind in [MetricKind::ResponseTime, MetricKind::ErrorRate, MetricKind::ConversionRate] {
        assert!(out.samples_of(kind) > 0, "no {kind:?} sample");
    }
    for kind in [MetricKind::Shed, MetricKind::QueueDelay, MetricKind::Timeout] {
        assert_eq!(out.samples_of(kind), 0, "{kind:?} in an uncontended run");
    }
    assert_eq!((out.breaker_transitions, out.dark_spans), (0, 0));
}

#[test]
fn failing_callee_outputs_are_pinned() {
    let out = run(failing_callee(), 3, SimDuration::from_secs(2), 200.0, EventCounts::Digested);
    assert_eq!((out.digest.as_str(), out.popped), (FAILING_CALLEE_DIGEST, FAILING_CALLEE_POPPED));
    // The entry fails only through its callee, and it does fail.
    assert!(out.failed_roots > 0, "no settled child failure reached the entry");
    for kind in [MetricKind::Timeout, MetricKind::Retry, MetricKind::FallbackServed] {
        assert_eq!(out.samples_of(kind), 0, "{kind:?} under the null policy");
    }
}

const FAILING_CALLEE_DIGEST: &str = "14f42951a333f666";
const FAILING_CALLEE_POPPED: u64 = 3_993;
const UNCONTENDED_DIGEST: &str = "c2163541fb488239";
/// With every event queued, as before same-instant events ran inline, the
/// scene popped 48,993.
const UNCONTENDED_POPPED: u64 = 22_211;
const RANDOM_TOPOLOGY_DIGEST: &str = "f09e13d4873e6b9b";
const RANDOM_TOPOLOGY_POPPED: u64 = 12_274;
const ZERO_LATENCY_DIGEST: &str = "780148e47033388c";
const ZERO_LATENCY_POPPED: u64 = 18_884;
