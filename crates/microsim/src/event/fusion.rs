//! Inline events against queued ones. Every scene runs twice: as the event
//! core runs it, and with every event queued (the window treated as
//! contended, which is how every window ran before same-instant events
//! could run inline). Everything the simulation exposes must agree — store,
//! the order the merge writes samples in, traces, reports, breaker log and
//! counters — except `sim.events.*`, which count queued events only.
//!
//! Uncontended scenes must queue fewer events; contended ones (a call
//! policy, a concurrency limit, a mirror) must queue exactly as many, since
//! the gate keeps them on the queued path. Every uncontended scene also
//! runs with an inert policy attached that is not the null one: it queues
//! every event through the guarded path and must change no output. `cargo
//! test --release -p microsim fusion -- --ignored` runs the long table.
//!
//! The merge writes samples and breaker transitions through an index of
//! one entry per emitting event. Every merge in this crate's tests is held
//! to the **oracle**, the per-record sort the index replaced — each record
//! tagged with its event's key and its rank among that event's records, in
//! emission order, and sorted by `(key, rank)` within each same-time run:
//! it must write the very same records in the very same order. The scene table, run both ways, is where that
//! comparison meets queued, inline, contended and breaker-heavy windows.

use std::cell::{Cell, RefCell};

use super::{ByEvent, EvKey, SampleRec};
use crate::app::{Application, CallDef, EndpointDef, ServiceId, VersionSpec};
use crate::faults::{Fault, FaultKind};
use crate::latency::LatencyModel;
use crate::resilience::{BreakerPolicy, BreakerTransition, CallPolicy};
use crate::routing::Router;
use crate::sim::Simulation;
use crate::topologies::{random_app, RandomAppParams};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};

thread_local! {
    /// Set while the queued side of a differential runs on this thread.
    static QUEUE_EVERY_EVENT: Cell<bool> = const { Cell::new(false) };
    /// What the merge wrote on this thread while a differential records.
    static WRITTEN: RefCell<Option<Written>> = const { RefCell::new(None) };
}

/// The merge's writes as a differential records them.
#[derive(Default)]
struct Written {
    /// The samples, in the order written.
    samples: Vec<String>,
    /// Records held to the oracle: samples, transitions, and records of
    /// events that emitted more than one of a kind.
    checked: [usize; 3],
}

/// Whether the window gate must call every window contended.
pub(super) fn queue_every_event() -> bool {
    QUEUE_EVERY_EVENT.with(Cell::get)
}

/// An output record tagged with the event that produced it and its rank
/// among that event's records of the same kind: how records were buffered
/// before the index.
struct Tagged {
    key: EvKey,
    seq: u32,
    /// The record's position in its buffer.
    item: usize,
}

/// The oracle's write order of `by_event`'s records, as positions: rebuilt
/// from the index in emission order (an event's entry `start`s after every
/// earlier event's records), then sorted by `(key, rank)` within each run
/// sharing a timestamp, as the sort the index replaced did. Asserts that
/// the entries cover every record exactly once.
fn oracle_order<T>(by_event: &ByEvent<T>) -> Vec<usize> {
    let mut emitted = by_event.events.clone();
    emitted.sort_unstable_by_key(|e| e.start);
    let mut tagged = Vec::with_capacity(by_event.records.len());
    for e in &emitted {
        assert_eq!(e.start as usize, tagged.len(), "an event's records follow the last event's");
        let records = e.start as usize..(e.start + e.len) as usize;
        tagged.extend((0..).zip(records).map(|(seq, item)| Tagged { key: e.key, seq, item }));
    }
    assert_eq!(tagged.len(), by_event.records.len(), "every record has its event's entry");
    for run in tagged.chunk_by_mut(|a, b| a.key.time() == b.key.time()) {
        run.sort_unstable_by_key(|r| (r.key, r.seq));
    }
    tagged.into_iter().map(|r| r.item).collect()
}

/// Asserts that the merge is about to write the very records the oracle
/// would, in its order, and returns how many it held to it and how many of
/// those shared their event with another record of their kind.
fn check_against_oracle<T>(by_event: &ByEvent<T>) -> (usize, usize) {
    let written: Vec<&T> = by_event.in_entry_order().collect();
    let oracle = oracle_order(by_event);
    assert!(
        written.len() == oracle.len()
            && written.iter().zip(oracle).all(|(w, i)| std::ptr::eq(*w, &by_event.records[i])),
        "the merge writes records out of (key, rank) order"
    );
    let shared = by_event.events.iter().filter(|e| e.len > 1).map(|e| e.len as usize).sum();
    (written.len(), shared)
}

/// Holds the samples and transitions the merge is about to write to the
/// oracle, and logs the samples in the order it writes them when a
/// differential is recording.
pub(super) fn written(samples: &ByEvent<SampleRec>, transitions: &ByEvent<BreakerTransition>) {
    let (sampled, shared_samples) = check_against_oracle(samples);
    let (transitioned, shared_transitions) = check_against_oracle(transitions);
    WRITTEN.with(|log| {
        if let Some(log) = log.borrow_mut().as_mut() {
            log.samples.extend(samples.in_entry_order().map(|s| {
                let SampleRec { version, kind, time, value } = s;
                format!("{version:?} {kind:?} {time:?} {:x}", value.to_bits())
            }));
            log.checked[0] += sampled;
            log.checked[1] += transitioned;
            log.checked[2] += shared_samples + shared_transitions;
        }
    });
}

/// What one run exposes, each part in a stable text form.
struct Outputs {
    reports: Vec<String>,
    store: Vec<String>,
    written: Vec<String>,
    traces: Vec<String>,
    transitions: Vec<String>,
    counters: Vec<String>,
}

struct Scene {
    name: String,
    app: Application,
    seed: u64,
    rate_rps: f64,
    windows: usize,
    window: SimDuration,
    setup: fn(&mut Simulation),
    contended: bool,
}

/// One run of a scene: its outputs and what it covered.
struct Run {
    outputs: Outputs,
    popped: u64,
    /// The entry version's latency multiplier after each window.
    multipliers: Vec<f64>,
    /// Samples of each metric kind over every scope, indexed by the kind.
    kinds: Vec<usize>,
    /// Response times recorded by candidate versions.
    candidate_samples: usize,
    dark_spans: usize,
    /// Records the merge's write order was held to the oracle on, as
    /// [`Written::checked`] counts them.
    checked: [usize; 3],
}

/// Runs `scene`, with `policy` attached after its setup when there is one.
fn run(scene: &Scene, queue_every_event: bool, policy: Option<CallPolicy>) -> Run {
    let mut sim = Simulation::new(scene.app.clone(), scene.seed);
    (scene.setup)(&mut sim);
    if let Some(policy) = policy {
        sim.set_call_policy(policy);
    }
    let entry = sim.app().baseline_of(ServiceId(0));
    QUEUE_EVERY_EVENT.with(|q| q.set(queue_every_event));
    WRITTEN.with(|log| *log.borrow_mut() = Some(Written::default()));
    let mut reports = Vec::new();
    let mut multipliers = Vec::new();
    for _ in 0..scene.windows {
        reports.push(format!("{:?}", sim.run(scene.window, scene.rate_rps)));
        multipliers.push(sim.load_multiplier(entry));
    }
    QUEUE_EVERY_EVENT.with(|q| q.set(false));
    let Written { samples: written, checked } =
        WRITTEN.with(|log| log.borrow_mut().take()).expect("recording");

    let mut scopes = sim.store().scopes();
    scopes.sort();
    let horizon = SimTime::from_secs(100_000);
    let mut store = Vec::new();
    let mut kinds = vec![0; MetricKind::all().len()];
    let mut candidate_samples = 0;
    for scope in &scopes {
        for (kind, total) in MetricKind::all().into_iter().zip(&mut kinds) {
            let count = sim.store().count(scope, kind);
            *total += count;
            if kind == MetricKind::ResponseTime && scope.ends_with("@2.0.0") {
                candidate_samples += count;
            }
            let summary = sim.store().summary_between(scope, kind, SimTime::ZERO, horizon);
            store.push(format!("{scope} {kind:?} {count} {summary:?}"));
        }
    }
    let counters = sim.counters();
    let traces = sim.drain_traces();
    let dark_spans = traces.iter().flat_map(|t| &t.spans).filter(|s| s.dark).count();
    let outputs = Outputs {
        reports,
        store,
        written,
        traces: traces.iter().map(|t| format!("{t:?}")).collect(),
        transitions: sim.drain_breaker_transitions().iter().map(|t| format!("{t:?}")).collect(),
        counters: counters
            .counts()
            .filter(|(name, _)| !name.starts_with("sim.events."))
            .map(|(name, n)| format!("{name} {n}"))
            .chain(counters.gauges().map(|(name, n)| format!("{name} gauge {n}")))
            .collect(),
    };
    let popped = counters.count("sim.events.popped");
    Run { outputs, popped, multipliers, kinds, candidate_samples, dark_spans, checked }
}

/// What the table as a whole covered, so a floor can say it did.
#[derive(Default)]
struct Covered {
    uncontended: usize,
    contended: usize,
    /// Distinct entry-version latency multipliers above 1 seen at window
    /// ends: load sensitivity acted, and the rate moved it.
    multipliers: Vec<u64>,
    traces: usize,
    /// Samples of each metric kind, indexed by the kind.
    kinds: Vec<usize>,
    candidate_samples: usize,
    dark_spans: usize,
    /// Records held to the oracle on either side, as [`Written::checked`]
    /// counts them.
    checked: [usize; 3],
}

impl Covered {
    fn samples_of(&self, kind: MetricKind) -> usize {
        self.kinds[kind as usize]
    }

    fn add(&mut self, run: Run) {
        self.kinds.resize(run.kinds.len(), 0);
        for (total, count) in self.kinds.iter_mut().zip(run.kinds) {
            *total += count;
        }
        self.traces += run.outputs.traces.len();
        self.candidate_samples += run.candidate_samples;
        self.dark_spans += run.dark_spans;
        for (total, count) in self.checked.iter_mut().zip(run.checked) {
            *total += count;
        }
        for m in run.multipliers.into_iter().filter(|m| *m > 1.0) {
            if !self.multipliers.contains(&m.to_bits()) {
                self.multipliers.push(m.to_bits());
            }
        }
    }
}

/// Asserts that two runs of the scene `name` exposed the same outputs.
fn assert_same(name: &str, a: &Outputs, b: &Outputs) {
    assert_eq!(a.reports, b.reports, "{name}: reports");
    assert_eq!(a.store, b.store, "{name}: store");
    assert!(a.written == b.written, "{name}: the merge wrote samples in another order");
    assert_eq!(a.traces, b.traces, "{name}: traces");
    assert_eq!(a.transitions, b.transitions, "{name}: breaker log");
    assert_eq!(a.counters, b.counters, "{name}: counters");
}

/// Runs every scene both ways and asserts they agree.
fn check(scenes: &[Scene]) -> Covered {
    let mut covered = Covered::default();
    for scene in scenes {
        let inline = run(scene, false, None);
        let queued = run(scene, true, None);
        let name = &scene.name;
        assert_same(name, &inline.outputs, &queued.outputs);
        let (inline_popped, queued_popped) = (inline.popped, queued.popped);
        if scene.contended {
            assert_eq!(
                inline_popped, queued_popped,
                "{name}: a contended window queues every event"
            );
            covered.contended += 1;
        } else {
            // A hop's Reply and its caller's next Call always run inline,
            // so fewer than half the queued events remain.
            assert!(
                2 * inline_popped < queued_popped,
                "{name}: {inline_popped} events queued, {queued_popped} without inline events"
            );
            covered.uncontended += 1;
        }
        for (total, count) in covered.checked.iter_mut().zip(queued.checked) {
            *total += count;
        }
        covered.add(inline);
    }
    covered
}

fn layered(seed: u64, load_sensitivity: f64) -> Application {
    let params =
        RandomAppParams { services: 16, layers: 4, load_sensitivity, ..Default::default() };
    random_app(&params, seed)
}

/// A request's chain through `mid-*` and `leaf` lands on its arrival
/// millisecond: zero own latency, no proxy overhead. Each hop fails now and
/// then, and `mid-b` is called with probability one half.
fn zero_latency_fanout() -> Application {
    let zero = LatencyModel::Constant { ms: 0.0 };
    let plain = |name: &str| VersionSpec::new(name, "1.0.0").capacity(10_000.0);
    let mut b = Application::builder();
    b.version(
        plain("front").endpoint(
            EndpointDef::new("home", zero)
                .error_rate(0.02)
                .call(CallDef::always("mid-a", "x"))
                .call(CallDef::always("slow", "x"))
                .call(CallDef::with_probability("mid-b", "x", 0.5))
                .call(CallDef::always("mid-c", "x")),
        ),
    );
    for mid in ["mid-a", "mid-b", "mid-c"] {
        b.version(plain(mid).endpoint(
            EndpointDef::new("x", zero).error_rate(0.05).call(CallDef::always("leaf", "x")),
        ));
    }
    b.version(plain("leaf").endpoint(EndpointDef::new("x", zero).error_rate(0.1)));
    b.version(plain("slow").endpoint(EndpointDef::new("x", LatencyModel::Constant { ms: 7.0 })));
    b.build().unwrap()
}

/// The service `depth` first calls below the entry endpoint (layer `depth`
/// of a layered topology).
fn on_path(sim: &Simulation, depth: usize) -> ServiceId {
    let app = sim.app();
    let mut endpoint = app.version(app.baseline_of(ServiceId(0))).endpoints[0];
    let mut service = ServiceId(0);
    for _ in 0..depth {
        let call = &app.endpoint(endpoint).calls[0];
        service = call.service;
        let version = app.version(app.baseline_of(service));
        endpoint = *version
            .endpoints
            .iter()
            .find(|e| app.endpoint(**e).name == call.endpoint)
            .expect("called endpoint exists");
    }
    service
}

/// A second version of `service` with its baseline's endpoints and calls,
/// `slower` times its latency and `extra_error_rate` more failures.
fn copy_of(
    sim: &Simulation,
    service: ServiceId,
    slower: f64,
    extra_error_rate: f64,
) -> VersionSpec {
    let app = sim.app();
    let baseline = app.version(app.baseline_of(service));
    let mut spec = VersionSpec::new(app.service_name(service), "2.0.0")
        .capacity(200.0)
        .load_sensitivity(baseline.load_sensitivity);
    for eid in &baseline.endpoints {
        let ep = app.endpoint(*eid);
        let latency = match ep.latency {
            LatencyModel::LogNormal { median_ms, sigma } => {
                LatencyModel::LogNormal { median_ms: median_ms * slower, sigma }
            }
            other => other,
        };
        let mut def =
            EndpointDef::new(ep.name.clone(), latency).error_rate(ep.error_rate + extra_error_rate);
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

/// Deploys `spec` for `service` and splits its traffic `share` to it.
fn split(sim: &mut Simulation, service: ServiceId, spec: VersionSpec, share: f64) {
    let candidate = sim.deploy(spec).unwrap();
    let baseline = sim.app().baseline_of(service);
    let (app, router) = sim.app_and_router_mut();
    router.set_split(app, service, vec![(baseline, 1.0 - share), (candidate, share)]).unwrap();
}

/// A slower, failing candidate taking 30% of the entry tier's first
/// callee, under an error burst; a latency spike on a layer-2 service and
/// an outage on a layer-3 one, overlapping in time.
fn canary_under_faults(sim: &mut Simulation) {
    let layer1 = on_path(sim, 1);
    split(sim, layer1, copy_of(sim, layer1, 1.5, 0.05), 0.3);
    let candidate = *sim.app().versions_of(layer1).last().unwrap();
    for (version, kind, from_s, until_s) in [
        (candidate, FaultKind::ErrorBurst { extra_error_rate: 0.4 }, 0, 2),
        (sim.app().baseline_of(on_path(sim, 2)), FaultKind::LatencySpike { multiplier: 5.0 }, 1, 3),
        (sim.app().baseline_of(on_path(sim, 3)), FaultKind::Outage, 2, 3),
    ] {
        sim.inject_fault(Fault {
            version,
            kind,
            from: SimTime::from_secs(from_s),
            until: SimTime::from_secs(until_s),
        });
    }
    sim.set_trace_sampling(0.3);
}

fn proxied(sim: &mut Simulation) {
    sim.set_router(Router::with_proxy_overhead(SimDuration::from_millis(2)));
    sim.set_trace_sampling(0.3);
}

fn traced(sim: &mut Simulation) {
    sim.set_trace_sampling(1.0);
}

fn guarded(sim: &mut Simulation) {
    canary_under_faults(sim);
    sim.set_call_policy(CallPolicy {
        attempt_timeout: Some(SimDuration::from_millis(40)),
        max_retries: 1,
        backoff_base: SimDuration::from_millis(3),
        backoff_multiplier: 2.0,
        jitter: 0.5,
        breaker: Some(BreakerPolicy {
            error_threshold: 0.5,
            min_calls: 10,
            window: 40,
            cooldown: SimDuration::from_secs(1),
            half_open_probes: 3,
        }),
        fallback: true,
        fallback_latency: SimDuration::from_millis(1),
    });
}

/// The layer-2 service's copy behind two slots and a queue of two, taking
/// half its traffic.
fn limited(sim: &mut Simulation) {
    let layer2 = on_path(sim, 2);
    split(sim, layer2, copy_of(sim, layer2, 1.0, 0.0).concurrency_limit(2).queue_capacity(2), 0.5);
    sim.set_trace_sampling(0.3);
}

/// Every service the entry endpoint calls, dark-launched. Its second call
/// is dispatched at the instant the first replies, so a mirror there is
/// created beside the call at that instant.
fn mirrored(sim: &mut Simulation) {
    let app = sim.app();
    let entry = app.version(app.baseline_of(ServiceId(0))).endpoints[0];
    let mut callees: Vec<ServiceId> = app.endpoint(entry).calls.iter().map(|c| c.service).collect();
    callees.dedup();
    for service in callees {
        let candidate = sim.deploy(copy_of(sim, service, 1.5, 0.05)).unwrap();
        let (app, router) = sim.app_and_router_mut();
        router.add_mirror(app, service, candidate).unwrap();
    }
    sim.set_trace_sampling(0.3);
}

/// The table: layered topologies over `seeds` at a rate well below the
/// entry tier's capacity of 500 rps and one above it, load sensitivity on
/// (plain, with proxy overhead, and under a canary with faults) and off;
/// the zero-latency fan-out traced in full; and three contended scenes,
/// one per gate condition.
fn scenes(seeds: &[u64], windows: usize) -> Vec<Scene> {
    let second = SimDuration::from_secs(1);
    let scene = |name: String, app, seed, rate_rps, setup, contended| Scene {
        name,
        app,
        seed,
        rate_rps,
        windows,
        window: second,
        setup,
        contended,
    };
    let mut out = Vec::new();
    for &seed in seeds {
        for rate in [90.0, 650.0] {
            for (label, setup) in [
                ("plain", traced as fn(&mut Simulation)),
                ("proxied", proxied),
                ("canary+faults", canary_under_faults),
            ] {
                let name = format!("layered {seed} @ {rate} rps, {label}");
                out.push(scene(name, layered(seed, 1.0), seed, rate, setup, false));
            }
        }
        let name = format!("layered {seed}, insensitive, canary+faults");
        out.push(scene(name, layered(seed, 0.0), seed, 400.0, canary_under_faults, false));
        let name = format!("zero-latency fan-out {seed}");
        out.push(scene(name, zero_latency_fanout(), seed, 200.0, traced, false));
        for (label, setup) in [
            ("call policy", guarded as fn(&mut Simulation)),
            ("concurrency limit", limited),
            ("mirror", mirrored),
        ] {
            let name = format!("layered {seed} @ 650 rps, {label}");
            out.push(scene(name, layered(seed, 1.0), seed, 650.0, setup, true));
        }
    }
    out
}

fn assert_covered(covered: &Covered, scenes: usize) {
    assert_eq!(covered.uncontended + covered.contended, scenes);
    assert!(covered.traces > 1_000, "{} traces", covered.traces);
    assert!(
        covered.multipliers.len() >= 4,
        "load sensitivity moved the entry multiplier to only {} values",
        covered.multipliers.len()
    );
    assert!(covered.candidate_samples > 100, "{} candidate samples", covered.candidate_samples);
    // Each contended scene walks what makes it contended.
    assert!(covered.dark_spans > 0, "no mirrored span");
    for kind in [MetricKind::QueueDelay, MetricKind::Timeout, MetricKind::Retry] {
        assert!(covered.samples_of(kind) > 0, "no {kind:?} sample");
    }
    // Both sides' merges were held to the per-record oracle, breaker
    // transitions and events with several records included.
    let [samples, transitions, shared] = covered.checked;
    assert!(samples > 100_000 && transitions > 10 && shared > 100_000, "{:?}", covered.checked);
}

#[test]
fn inline_events_leave_every_output_as_queued_events_do() {
    let scenes = scenes(&[3], 3);
    assert_covered(&check(&scenes), scenes.len());
}

#[test]
#[ignore = "long: the table over eight seeds and longer runs; run in release"]
fn inline_events_leave_every_output_as_queued_events_do_long() {
    let scenes = scenes(&[3, 8, 21, 34, 55, 89, 144, 233], 6);
    assert_covered(&check(&scenes), scenes.len());
}

/// Runs every uncontended scene as it is and with an inert policy
/// attached, and asserts that the policy changed no output. The policy
/// differs from the null one only in a backoff that no retry ever waits,
/// so it makes every window contended: the second run queues every event,
/// and every call settles through the guarded path, timeouts and retries
/// included, with nothing for them to do. Returns the scenes compared.
fn check_inert_policy(scenes: &[Scene]) -> usize {
    let inert = CallPolicy {
        backoff_base: SimDuration::from_millis(7),
        max_retries: 0,
        ..CallPolicy::default()
    };
    assert_ne!(inert, CallPolicy::default());
    let mut compared = 0;
    for scene in scenes.iter().filter(|s| !s.contended) {
        let bare = run(scene, false, None);
        let guarded = run(scene, false, Some(inert));
        let name = format!("{}, inert policy", scene.name);
        assert_same(&name, &bare.outputs, &guarded.outputs);
        assert!(bare.popped < guarded.popped, "{name}: the policy's window queues every event");
        compared += 1;
    }
    compared
}

#[test]
fn an_inert_call_policy_changes_no_output() {
    assert_eq!(check_inert_policy(&scenes(&[3], 3)), 8);
}

#[test]
#[ignore = "long: the table over eight seeds and longer runs; run in release"]
fn an_inert_call_policy_changes_no_output_long() {
    assert_eq!(check_inert_policy(&scenes(&[3, 8, 21, 34, 55, 89, 144, 233], 6)), 64);
}

#[test]
fn the_gate_names_each_contending_condition() {
    let app = layered(3, 1.0);
    let router = Router::new();
    let null = CallPolicy::default();
    assert!(super::is_uncontended(&app, &router, null), "the null policy");
    let retrying = CallPolicy { max_retries: 1, ..null };
    assert!(!super::is_uncontended(&app, &router, retrying));
    let mut sim = Simulation::new(app.clone(), 1);
    mirrored(&mut sim);
    assert!(!super::is_uncontended(sim.app(), sim.router(), null));
    let mut sim = Simulation::new(app, 1);
    limited(&mut sim);
    let (app, router) = (sim.app().clone(), sim.router().clone());
    assert!(!super::is_uncontended(&app, &Router::new(), null), "a limited version");
    assert!(!super::is_uncontended(&app, &router, null));
}
