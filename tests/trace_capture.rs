//! Trace capture, checked from outside the event core. The merge decides
//! each sampled request on its root duration and error flag *before* it
//! builds the trace, and builds only the ones the tail sampler keeps; the
//! public `TraceCollector::record` takes the same decision on a trace that
//! already exists. So a tail-sampled run must keep exactly what recording
//! the full capture of the same run through `record` keeps — trace by
//! trace, with the same weights and the same sampling accounting. The full
//! capture is checked against what the request
//! model guarantees about any trace: pre-order with positional ids,
//! synchronous siblings in time order, and a span timed out exactly when
//! its attempt overran the deadline. (`microsim`'s own tests drive the
//! capture beside the `Vec<u32>` path sort it replaced.) Over corpus cells,
//! the weights of a tail-sampled capture account for every offered trace.

use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, CallDef, EndpointDef, VersionSpec};
use microsim::corpus::{self, FAMILIES, FAULTS, WORKLOADS};
use microsim::faults::{Fault, FaultKind};
use microsim::health::HealthAccumulator;
use microsim::latency::LatencyModel;
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::Simulation;
use microsim::trace::{
    SamplingStats, SpanId, SpanStatus, TailSamplingConfig, Trace, TraceCollector,
};

const DEADLINE: SimDuration = SimDuration::from_millis(25);

const TAIL: TailSamplingConfig =
    TailSamplingConfig { healthy_keep_one_in: 4, slow_quantile: 0.9, warmup: 64 };

/// `fe` calls `api` (one slot, a queue of two, mirrored to a dark
/// `api@2.0.0`), `cart` sometimes (a heavy tail past the deadline) and
/// `db`, which every tier calls and which is out from 10 s to 20 s; every
/// edge runs timeouts, jittered retries, a breaker and a fallback. Three
/// 10 s windows at 80 rps, every request traced.
fn capture(tail: Option<TailSamplingConfig>) -> (Vec<Trace>, SamplingStats) {
    let tier = |service: &str, version: &str, latency: LatencyModel| {
        VersionSpec::new(service, version).capacity(1_000.0).load_sensitivity(0.0).endpoint(
            EndpointDef::new("x", latency).call(CallDef::with_probability("db", "q", 0.6)),
        )
    };
    let mut b = Application::builder();
    b.version(
        VersionSpec::new("fe", "1.0.0").capacity(1_000.0).endpoint(
            EndpointDef::new("home", LatencyModel::web(2.0))
                .call(CallDef::always("api", "x"))
                .call(CallDef::with_probability("cart", "x", 0.7))
                .call(CallDef::always("db", "q")),
        ),
    );
    b.version(tier("api", "1.0.0", LatencyModel::web(9.0)).concurrency_limit(1).queue_capacity(2));
    b.version(tier("api", "2.0.0", LatencyModel::web(9.0)));
    b.version(tier("cart", "1.0.0", LatencyModel::LogNormal { median_ms: 12.0, sigma: 0.9 }));
    b.version(
        VersionSpec::new("db", "1.0.0")
            .capacity(1_000.0)
            .endpoint(EndpointDef::new("q", LatencyModel::web(3.0)).error_rate(0.02)),
    );
    let app = b.build().unwrap();
    let api = app.service_id("api").unwrap();
    let dark = app.version_id("api", "2.0.0").unwrap();
    let db = app.version_id("db", "1.0.0").unwrap();
    let mut sim = Simulation::new(app, 0x7A11);
    let (app, router) = sim.app_and_router_mut();
    router.add_mirror(app, api, dark).unwrap();
    sim.set_trace_sampling(1.0);
    sim.set_tail_sampling(tail);
    sim.set_call_policy(CallPolicy {
        attempt_timeout: Some(DEADLINE),
        max_retries: 2,
        backoff_base: SimDuration::from_millis(4),
        backoff_multiplier: 2.0,
        jitter: 0.5,
        breaker: Some(BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 40,
            cooldown: SimDuration::from_secs(3),
            half_open_probes: 3,
        }),
        fallback: true,
        fallback_latency: SimDuration::from_millis(1),
    });
    sim.inject_fault(Fault {
        version: db,
        kind: FaultKind::Outage,
        from: SimTime::from_secs(10),
        until: SimTime::from_secs(20),
    });
    for _ in 0..3 {
        sim.run(SimDuration::from_secs(10), 80.0);
    }
    let stats = sim.trace_collector().sampling_stats();
    (sim.drain_traces(), stats)
}

fn assert_same_traces(got: &[Trace], want: &[Trace], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: trace count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{what}: trace {}", w.id);
    }
}

/// What the request model guarantees about a trace, whoever built it.
fn assert_well_formed(trace: &Trace) {
    for (i, span) in trace.spans.iter().enumerate() {
        assert_eq!(span.span, SpanId(i as u32), "positional ids");
        match span.parent {
            None => assert_eq!(i, 0, "{}: the root comes first and alone", trace.id),
            Some(parent) => assert!(parent.0 < i as u32, "{}: pre-order", trace.id),
        }
        // Every non-dark child is a guarded attempt (or a shed / fallback
        // event): timed out exactly when it overran the deadline, and then
        // carrying the caller's wait.
        if span.parent.is_some() && !span.dark && span.status.executed() {
            if span.status == SpanStatus::TimedOut {
                assert_eq!(span.duration, DEADLINE, "{}: span {i}", trace.id);
            } else {
                assert!(span.duration <= DEADLINE, "{}: span {i} overran", trace.id);
            }
        }
    }
    // A frame makes its calls one after the other; under one call the shed
    // event, the attempts and the fallback follow each other too.
    for parent in &trace.spans {
        let starts: Vec<SimTime> =
            trace.children_of(parent.span).filter(|s| !s.dark).map(|s| s.start).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{}: sibling order", trace.id);
    }
}

#[test]
fn tail_sampled_capture_keeps_what_recording_the_full_capture_keeps() {
    let (full, full_stats) = capture(None);
    assert_eq!(full_stats.recorded, full.len() as u64);
    for trace in &full {
        assert_well_formed(trace);
    }
    let spans = || full.iter().flat_map(|t| &t.spans);
    for status in [SpanStatus::TimedOut, SpanStatus::Shed, SpanStatus::Fallback] {
        assert!(spans().any(|s| s.status == status), "no {status:?} span");
    }
    assert!(spans().any(|s| s.dark) && spans().any(|s| s.attempt > 0));
    // Requests that only a timeout made erroneous: the case the merge's
    // error flag has to see without the span that says so.
    assert!(full.iter().any(|t| t.ok()
        && t.spans.iter().all(|s| s.status != SpanStatus::Failed && s.status != SpanStatus::Shed)
        && t.spans.iter().any(|s| s.status == SpanStatus::TimedOut)));

    let mut reference = TraceCollector::all();
    reference.set_tail_sampling(Some(TAIL));
    for trace in &full {
        reference.record(trace.clone());
    }
    let kept_stats = reference.sampling_stats();
    let kept = reference.drain();
    assert!(kept.len() < full.len() && kept.iter().any(|t| t.weight > 1));

    let (traces, stats) = capture(Some(TAIL));
    assert_same_traces(&traces, &kept, "tail-sampled");
    assert_eq!(stats, kept_stats);
}

/// One corpus cell, numbered so that cells `0..20` meet every family ×
/// fault pair and every workload shape: 15 s healthy, then 15 s under the
/// fault, at 30 rps, the candidate taking 30%; every request traced and
/// nothing evicted.
fn corpus_cell(cell: usize, tail: Option<TailSamplingConfig>) -> (Vec<Trace>, SamplingStats) {
    let family = FAMILIES[cell % FAMILIES.len()];
    let fault = FAULTS[cell % FAULTS.len()];
    let scenario = corpus::generate(family, 3 + cell as u64);
    let mut sim = Simulation::new(scenario.app.clone(), 0x5A17 + cell as u64);
    sim.set_trace_sampling(1.0);
    sim.set_trace_retention(1 << 20);
    sim.set_tail_sampling(tail);
    scenario.canary_split(&mut sim, 0.3).unwrap();
    let kind = WORKLOADS[cell / FAMILIES.len() % WORKLOADS.len()];
    let workload = corpus::workload_for(&scenario, kind, 30.0);
    sim.run_with(SimDuration::from_secs(15), &workload);
    let until = sim.now() + SimDuration::from_secs(3_600);
    for fault in corpus::faults_for(&scenario, fault, sim.now(), until) {
        sim.inject_fault(fault);
    }
    sim.run_with(SimDuration::from_secs(15), &workload);
    let stats = sim.trace_collector().sampling_stats();
    (sim.drain_traces(), stats)
}

fn health_of(traces: &[Trace]) -> HealthAccumulator {
    let mut health = HealthAccumulator::new();
    health.observe_all(traces);
    health
}

/// A kept healthy trace stands for `k` (the first of every `k` is kept),
/// so the weights overcount the offered traces by less than `k`, and a
/// health fold counts exactly the weights. At `k = 1` nothing is dropped
/// or weighted: the sampled fold is the unsampled one.
#[test]
fn tail_sampled_weights_account_for_every_offered_trace() {
    for cell in 0..FAMILIES.len() * FAULTS.len() {
        let (all, all_stats) = corpus_cell(cell, None);
        assert_eq!((all_stats.recorded, all_stats.evicted), (all.len() as u64, 0), "cell {cell}");
        let config = TailSamplingConfig::default();
        let (kept, stats) = corpus_cell(cell, Some(config));
        assert_eq!((stats.recorded, stats.evicted), (all_stats.recorded, 0), "cell {cell}");
        assert!(stats.healthy_dropped > 0, "cell {cell}: the downsampler ran");
        let weights: u64 = kept.iter().map(|t| u64::from(t.weight)).sum();
        let excess = weights.checked_sub(stats.recorded).expect("weights cover the offers");
        assert!(excess < u64::from(config.healthy_keep_one_in), "cell {cell}: excess {excess}");
        let health = health_of(&kept);
        assert_eq!(health.traces(), weights, "cell {cell}");

        let every_one = TailSamplingConfig { healthy_keep_one_in: 1, ..config };
        let (unweighted, _) = corpus_cell(cell, Some(every_one));
        assert_same_traces(&unweighted, &all, "keep one in one");
        let (sampled, unsampled) = (health_of(&unweighted), health_of(&all));
        assert_eq!(sampled.edges(), unsampled.edges(), "cell {cell}");
        assert_eq!(sampled.critical_sinks(), unsampled.critical_sinks(), "cell {cell}");
        assert_eq!(
            (sampled.traces(), sampled.failed_traces()),
            (unsampled.traces(), unsampled.failed_traces()),
            "cell {cell}"
        );
    }
}
