//! The `fleet-*` workloads: DSL text → `parse_fleet` → one journaled
//! engine run over a generated application → JSONL, repeated and checked.

use crate::gen::{self, Fleet, Template, SEQUENTIAL_CONFIDENCE};
use crate::spans::{Aggregate, SpanId, Spans};
use crate::stats::{self, fnv1a, FNV_OFFSET};
use crate::workloads::{Checks, FleetSpec, Outcome, RunArgs, Timing};
use bifrost::dsl::{self, RuntimeSettings};
use bifrost::engine::{Engine, EngineConfig, ExecutionReport, StrategyStatus};
use bifrost::journal::{Journal, JournalEvent};
use bifrost::Strategy;
use cex_core::json::Json;
use cex_core::metrics::MetricKind;
use cex_core::obs::{Counters, ObsConfig, ProfileSnapshot};
use cex_core::rng::sub_seed;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::{Simulation, APP_SCOPE};
use microsim::trace::TailSamplingConfig;
use microsim::workload::{RateProfile, Workload};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Engine check fan-out threads, pinned so runs compare across machines.
const ENGINE_WORKERS: usize = 2;
/// Trace retention: above every workload's per-tick trace volume, so the
/// ring never evicts and `microsim.trace.evicted` moving means a bug.
const TRACE_RETENTION: usize = 1 << 18;
/// Set-ups per batch: a fleet sets up in 0.1 to 7 ms, and one sample that
/// short is scheduler noise.
const SETUP_REPEATS: usize = 16;
/// `window_summary` calls of the monitor probe.
const WINDOW_PROBES: usize = 10_000;

/// Profile nodes the traced repetition is expected to report. One the
/// program stops reporting prints as `null`.
const EXPECTED_NODES: [&str; 13] = [
    "engine.tick.simulate",
    "engine.tick.drain_traces",
    "engine.tick.observe",
    "engine.tick.observe.evaluate_checks",
    "engine.tick.apply",
    "engine.tick.journal_encode",
    "engine.journal.encode",
    "sim.window.arrivals",
    "sim.event.pop",
    "sim.event.dispatch",
    "sim.event.exchange",
    "sim.event.merge",
    "store.flush",
];

/// Everything a repetition needs, built once per set-up.
struct Setup {
    fleet: Fleet,
    source_bytes: usize,
    parse: Duration,
    strategies: Vec<Strategy>,
    settings: RuntimeSettings,
    workload: Workload,
    sim_seed: u64,
}

fn call_policy() -> CallPolicy {
    CallPolicy {
        attempt_timeout: Some(SimDuration::from_millis(400)),
        max_retries: 1,
        backoff_base: SimDuration::from_millis(20),
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
        ..CallPolicy::default()
    }
}

fn set_up(spec: &FleetSpec, seed: u64, spans: &mut Spans) -> (Setup, Simulation) {
    let ((fleet, source, workload), _) = spans.timed("generate", || {
        let fleet = gen::fleet_app(&spec.shape, seed);
        let source = gen::fleet_dsl(spec.template, &fleet, spec.plan, spec.report_every);
        let profile = if spec.bursty { gen::bursty_profile() } else { RateProfile::Constant };
        let workload = gen::fleet_workload(&fleet, &spec.shape, spec.rate_rps, profile);
        (fleet, source, workload)
    });
    let (parsed, parse) = spans.timed("dsl::parse_fleet", || dsl::parse_fleet(&source));
    let (strategies, settings) = parsed.expect("generated DSL parses");
    let setup = Setup {
        fleet,
        source_bytes: source.len(),
        parse,
        strategies,
        settings,
        workload,
        sim_seed: sub_seed(seed, 0x51D),
    };
    let sim = new_sim(spec, &setup, spans);
    (setup, sim)
}

fn new_sim(spec: &FleetSpec, setup: &Setup, spans: &mut Spans) -> Simulation {
    spans
        .timed("Simulation::new", || {
            let mut sim = Simulation::new(setup.fleet.app.clone(), setup.sim_seed);
            sim.set_trace_sampling(spec.trace_sampling);
            sim.set_trace_retention(TRACE_RETENTION);
            if spec.call_policy {
                sim.set_call_policy(call_policy());
            }
            sim
        })
        .0
}

fn engine(spec: &FleetSpec, setup: &Setup, sim_workers: usize, obs: ObsConfig) -> Engine {
    let mut config = EngineConfig {
        tick: SimDuration::from_millis(spec.tick_ms),
        workers: ENGINE_WORKERS,
        sim_workers,
        tail_sampling: spec.tail_sampling.then(TailSamplingConfig::default),
        ..EngineConfig::default()
    };
    setup.settings.apply(&mut config);
    config.obs = obs;
    Engine::new(config)
}

/// One repetition's outputs. The timed region is `execute` + `to_jsonl`.
struct Rep {
    /// The `Engine::execute_journaled` span.
    span: SpanId,
    execute: Duration,
    to_jsonl: Duration,
    report: ExecutionReport,
    journal: Journal,
    jsonl: String,
    sim: Simulation,
}

impl Rep {
    fn wall_s(&self) -> f64 {
        (self.execute + self.to_jsonl).as_secs_f64()
    }

    fn digest(&self) -> u64 {
        fnv1a(FNV_OFFSET, self.jsonl.as_bytes())
    }
}

fn repetition(
    spec: &FleetSpec,
    setup: &Setup,
    mut sim: Simulation,
    sim_workers: usize,
    obs: ObsConfig,
    label: &str,
    spans: &mut Spans,
) -> Rep {
    let engine = engine(spec, setup, sim_workers, obs);
    let horizon = SimDuration::from_secs(spec.horizon_s);
    let rep = spans.enter(label);
    let span = spans.enter("Engine::execute_journaled");
    let result = engine.execute_journaled(&mut sim, &setup.strategies, &setup.workload, horizon);
    let execute = spans.exit(span);
    let (report, journal) = result.expect("generated fleet executes");
    let (jsonl, to_jsonl) = spans.timed("Journal::to_jsonl", || journal.to_jsonl());
    spans.exit(rep);
    Rep { span, execute, to_jsonl, report, journal, jsonl, sim }
}

fn tick_busy_ms(journal: &Journal) -> impl Iterator<Item = f64> + '_ {
    journal.events().iter().filter_map(|e| match e {
        JournalEvent::Tick { busy, .. } => Some(busy.as_secs_f64() * 1e3),
        _ => None,
    })
}

fn node_s(profile: &ProfileSnapshot, path: &str) -> Option<f64> {
    profile.nodes().iter().find(|(p, _)| p == path).map(|(_, s)| s.total().as_secs_f64())
}

/// Sum of the per-worker `sim.event.barrier.w*` nodes.
fn barrier_s(profile: &ProfileSnapshot) -> Option<f64> {
    let mut waits =
        profile.nodes().iter().filter(|(p, _)| p.starts_with("sim.event.barrier.w")).peekable();
    waits.peek()?;
    Some(waits.map(|(_, s)| s.total().as_secs_f64()).sum())
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// The status each strategy must end in: bad candidates roll back and
/// healthy ones complete, or everything is still running when the horizon
/// ends before the first check is due.
fn verdict_check(
    spec: &FleetSpec,
    fleet: &Fleet,
    report: &ExecutionReport,
    checks: &mut Checks,
) -> Vec<Json> {
    let decided = spec.horizon_s >= spec.plan.total_s();
    // An always-valid sequential test may abort a healthy candidate with
    // probability at most alpha; that many are tolerated, not more.
    let sequential = matches!(spec.template, Template::Control | Template::Chaos);
    let healthy = fleet.bad.iter().filter(|b| !**b).count() as f64;
    let tolerated =
        if sequential { ((1.0 - SEQUENTIAL_CONFIDENCE) * healthy).ceil() as usize } else { 0 };
    let mut false_aborts = 0usize;
    for (i, (name, status)) in report.statuses.iter().enumerate() {
        let bad = fleet.bad[i];
        let holds = match (decided, bad) {
            (false, _) => *status == StrategyStatus::Running,
            (true, true) => *status == StrategyStatus::RolledBack,
            (true, false) => {
                if *status == StrategyStatus::RolledBack {
                    false_aborts += 1;
                }
                *status != StrategyStatus::Running
            }
        };
        checks.check(holds, || format!("{name} (bad = {bad}) ended {status:?}"));
    }
    checks.check(false_aborts <= tolerated, || {
        format!("{false_aborts} healthy candidates rolled back, {tolerated} tolerated")
    });
    let count = |s: StrategyStatus| report.statuses.iter().filter(|(_, st)| *st == s).count();
    vec![
        Json::Num(count(StrategyStatus::Completed) as f64),
        Json::Num(count(StrategyStatus::RolledBack) as f64),
        Json::Num(count(StrategyStatus::Running) as f64),
    ]
}

fn store_count(sim: &Simulation, kind: MetricKind) -> f64 {
    sim.app()
        .versions()
        .map(|(v, _)| sim.store().count(&sim.app().version_label(v), kind))
        .sum::<usize>() as f64
}

/// Issues `WINDOW_PROBES` window reads against the post-run store, spread
/// over every version scope and the app scope; returns µs per read.
fn window_probe(sim: &Simulation, spans: &mut Spans) -> f64 {
    let mut scopes: Vec<String> =
        sim.app().versions().map(|(v, _)| sim.app().version_label(v)).collect();
    scopes.push(APP_SCOPE.to_string());
    let now = sim.now();
    let window = SimDuration::from_secs(60);
    let (_, took) = spans.timed("MetricStore::window_summary x10k", || {
        for i in 0..WINDOW_PROBES {
            let metric = if i % 2 == 0 { MetricKind::ResponseTime } else { MetricKind::ErrorRate };
            black_box(sim.store().window_summary(&scopes[i % scopes.len()], metric, now, window));
        }
    });
    took.as_secs_f64() * 1e6 / WINDOW_PROBES as f64
}

/// Runs one `fleet-*` workload.
pub fn run(spec: &FleetSpec, args: &RunArgs) -> Outcome {
    let mut spans = Spans::new();
    let mut checks = Checks::default();
    let off = ObsConfig::disabled();

    // Two event-core workers on two CPUs meet at every barrier through a
    // cross-CPU wake-up, and whether the kernel places them on one CPU or
    // two flips between repetitions: 0.9 s or 4.5 s for the same work on a
    // 2-vCPU VM. On one CPU the exchange and barrier protocol costs the
    // same every time, and that protocol is what the workload guards.
    let mut notes = Vec::new();
    if spec.sim_workers > 1 {
        notes.push(match stats::pin_to_one_cpu() {
            Some(cpu) => format!("process pinned to CPU {cpu}: see README, fleet-sharded"),
            None => "CPU affinity unavailable: run unpinned, wall_s is bistable".to_string(),
        });
    }

    // Every repetition runs on a set-up of its own, made just before it.
    let mut setup_s = Vec::new();
    let mut parse_ms = Vec::new();
    let mut fresh = |spans: &mut Spans| {
        let built = set_up(spec, args.seed, spans);
        parse_ms.push(built.0.parse.as_secs_f64() * 1e3);
        built
    };

    // Warm-up (allocator, page cache, lazy statics); its output still counts.
    let (mut setup, sim) = args.set_up_batch(SETUP_REPEATS, &mut spans, &mut setup_s, &mut fresh);
    let warm = repetition(spec, &setup, sim, spec.sim_workers, off, "warm-up", &mut spans);
    // Read here, after one set-up batch and one repetition in a fresh
    // process: what a single fleet run costs. Every later repetition starts
    // from a heap the earlier ones fragmented, differently from run to run
    // (fleet-control: 375 or 425 MiB after the second, 371 here every time).
    let peak_rss_mb = stats::peak_rss_mb();
    let digest = warm.digest();
    let counters: Counters = warm.report.runtime.counters.clone();
    drop(warm);

    let mut wall_s = Vec::new();
    let mut execute_s = Vec::new();
    let mut to_jsonl_s = Vec::new();
    let mut engine_busy_s = Vec::new();
    let mut sim_busy_s = Vec::new();
    let mut encode_s = Vec::new();
    let mut ticks_ms = Vec::new();
    let mut last: Option<Rep> = None;
    let started = Instant::now();
    while !args.enough(wall_s.len(), spec.default_reps, started) {
        let done = wall_s.len();
        // One repetition's outputs alive at a time, so peak RSS is a
        // repetition's, not two.
        drop(last.take());
        let sim;
        (setup, sim) = args.set_up_batch(SETUP_REPEATS, &mut spans, &mut setup_s, &mut fresh);
        let rep = repetition(spec, &setup, sim, spec.sim_workers, off, "timed", &mut spans);
        wall_s.push(rep.wall_s());
        execute_s.push(rep.execute.as_secs_f64());
        to_jsonl_s.push(rep.to_jsonl.as_secs_f64());
        engine_busy_s.push(rep.report.engine_busy.as_secs_f64());
        sim_busy_s.push(rep.sim.sim_busy().as_secs_f64());
        encode_s.extend(node_s(&rep.report.runtime.profile, "engine.journal.encode"));
        ticks_ms.extend(tick_busy_ms(&rep.journal));
        checks.check(rep.digest() == digest, || {
            format!("timed repetition {done}: journal digest differs from the warm-up's")
        });
        checks.check(rep.report.runtime.counters == counters, || {
            format!("timed repetition {done}: counter registry differs from the warm-up's")
        });
        last = Some(rep);
    }
    let last = last.expect("at least one timed repetition");

    // Read beside write: parse the journal back and print it again.
    let (parsed, from_jsonl) =
        spans.timed("Journal::from_jsonl", || Journal::from_jsonl(&last.jsonl));
    checks.check(parsed.as_ref().is_ok_and(|j| j.to_jsonl() == last.jsonl), || {
        "from_jsonl(to_jsonl(j)).to_jsonl() is not byte-identical".to_string()
    });
    drop(parsed);
    let statuses = verdict_check(spec, &setup.fleet, &last.report, &mut checks);

    if spec.sim_workers > 1 {
        let sim = new_sim(spec, &setup, &mut spans);
        let reference = repetition(spec, &setup, sim, 1, off, "one-worker reference", &mut spans);
        checks.check(reference.digest() == digest, || {
            format!("journal at sim_workers = {} differs from sim_workers = 1", spec.sim_workers)
        });
    }

    let requests = last.sim.store().count(APP_SCOPE, MetricKind::ResponseTime) as f64;
    let end = SimTime::from_secs(spec.horizon_s + 1);
    let failed_share =
        last.sim.store().summary_between(APP_SCOPE, MetricKind::ErrorRate, SimTime::ZERO, end).mean;
    let events = last.journal.len() as f64;
    let bytes = last.jsonl.len() as f64;
    let breaker_transitions =
        last.journal.events().iter().filter(|e| matches!(e, JournalEvent::Breaker { .. })).count();
    let count = |name: &str| counters.count(name) as f64;
    let popped = count("sim.events.popped");
    let sheds = count("sim.sheds");
    let recorded = count("trace.recorded");
    let queue_hwm_max = counters
        .gauges()
        .filter(|(name, _)| name.starts_with("sim.queue_hwm."))
        .map(|(_, v)| v)
        .max()
        .unwrap_or(0);

    let mut exact: Vec<(&'static str, Json)> = vec![
        ("journal_events", Json::Num(events)),
        ("journal_bytes", Json::Num(bytes)),
        ("requests", Json::Num(requests)),
        ("ticks", Json::Num(last.report.ticks as f64)),
        ("check_evaluations", Json::Num(last.report.check_evaluations as f64)),
        ("events_popped", Json::Num(popped)),
        ("sheds", Json::Num(sheds)),
        ("breaker_transitions", Json::Num(breaker_transitions as f64)),
        ("traces_recorded", Json::Num(recorded)),
        ("completed_rolled_back_running", Json::Arr(statuses)),
    ];

    let wall = stats::median(&wall_s);
    let execute = stats::median(&execute_s);
    let sim_busy = stats::median(&sim_busy_s);
    let engine_busy = stats::median(&engine_busy_s);
    let encode = stats::median(&encode_s);
    let attributed = match (sim_busy, engine_busy, encode) {
        (Some(s), Some(e), Some(j)) => Some(s + e + j),
        _ => None,
    };
    let evaluations = last.report.check_evaluations as f64;
    let mut metrics: Vec<(&'static str, Option<f64>)> = vec![
        ("setup_s", stats::median(&setup_s)),
        ("wall_s", wall),
        ("work_per_s", ratio(Some(requests), wall)),
        ("tick_p50_ms", stats::median(&ticks_ms)),
        ("peak_rss_mb", peak_rss_mb),
        ("bifrost.dsl.parse_ms", stats::median(&parse_ms)),
        ("bifrost.dsl.source_kb", Some(setup.source_bytes as f64 / 1024.0)),
        ("bifrost.engine.execute_s", execute),
        ("bifrost.engine.busy_s", engine_busy),
        ("bifrost.engine.tick_p95_ms", stats::quantile(&ticks_ms, 0.95)),
        ("bifrost.engine.tick_max_ms", stats::quantile(&ticks_ms, 1.0)),
        ("bifrost.engine.ticks", Some(last.report.ticks as f64)),
        ("bifrost.checks.evaluations", Some(evaluations)),
        ("bifrost.journal.to_jsonl_s", stats::median(&to_jsonl_s)),
        ("bifrost.journal.from_jsonl_s", Some(from_jsonl.as_secs_f64())),
        ("bifrost.journal.events", Some(events)),
        ("bifrost.journal.mb", Some(bytes / (1024.0 * 1024.0))),
        ("bifrost.journal.bytes_per_event", ratio(Some(bytes), Some(events))),
        ("microsim.sim.busy_s", sim_busy),
        ("microsim.sim.requests", Some(requests)),
        ("microsim.sim.failed_request_share", Some(failed_share)),
        ("microsim.event.popped", Some(popped)),
        ("microsim.event.sent", Some(count("sim.events.sent"))),
        ("microsim.event.subrounds", Some(count("sim.events.subrounds"))),
        ("microsim.event.sheds", Some(sheds)),
        ("microsim.event.queue_hwm_max", Some(queue_hwm_max as f64)),
        ("microsim.event.ns_per_event", ratio(sim_busy.map(|s| s * 1e9), Some(popped))),
        ("microsim.event.events_per_request", ratio(Some(popped), Some(requests))),
        (
            "microsim.event.subrounds_per_event",
            ratio(Some(count("sim.events.subrounds")), Some(popped)),
        ),
        ("microsim.event.shed_share", ratio(Some(sheds), Some(requests))),
        ("microsim.resilience.breaker_transitions", Some(breaker_transitions as f64)),
        ("microsim.resilience.timeouts", Some(store_count(&last.sim, MetricKind::Timeout))),
        ("microsim.resilience.retries", Some(store_count(&last.sim, MetricKind::Retry))),
        ("microsim.resilience.fallbacks", Some(store_count(&last.sim, MetricKind::FallbackServed))),
        ("microsim.monitor.samples_recorded", Some(last.sim.store().total_recorded() as f64)),
        ("microsim.monitor.samples_stored", Some(last.sim.store().total_samples() as f64)),
        ("microsim.monitor.window_reads", Some(count("store.window_reads"))),
        ("microsim.monitor.batch_flushes", Some(count("store.batch_flushes"))),
        ("microsim.trace.recorded", Some(recorded)),
        ("microsim.trace.tail_kept", Some(count("trace.tail.kept"))),
        ("microsim.trace.healthy_dropped", Some(count("trace.tail.healthy_dropped"))),
        ("microsim.trace.evicted", Some(count("trace.evicted"))),
        (
            "microsim.trace.kept_share",
            ratio(Some(recorded - count("trace.tail.healthy_dropped")), Some(recorded)),
        ),
        ("bench.unattributed_s", execute.zip(attributed).map(|(e, a)| e - a)),
        ("bench.coverage", ratio(attributed, execute)),
    ];

    if args.trace {
        metrics
            .push(("microsim.monitor.window_probe_us", Some(window_probe(&last.sim, &mut spans))));
        drop(last);
        let sim = new_sim(spec, &setup, &mut spans);
        let on = ObsConfig::enabled();
        let traced = repetition(spec, &setup, sim, spec.sim_workers, on, "traced", &mut spans);
        checks.check(traced.digest() == digest, || {
            "traced repetition: journal digest differs with obs on".to_string()
        });
        checks.check(traced.report.runtime.counters == counters, || {
            "traced repetition: counter registry differs with obs on".to_string()
        });
        let profile = &traced.report.runtime.profile;
        let node = |path: &str| node_s(profile, path);
        let barrier = barrier_s(profile);
        let event_core: Option<f64> =
            ["sim.event.pop", "sim.event.dispatch", "sim.event.exchange", "sim.event.merge"]
                .iter()
                .map(|p| node(p))
                .chain([barrier])
                .sum();
        metrics.extend([
            ("bifrost.engine.drain_traces_s", node("engine.tick.drain_traces")),
            ("bifrost.engine.apply_s", node("engine.tick.apply")),
            ("bifrost.checks.evaluate_s", node("engine.tick.observe.evaluate_checks")),
            (
                "bifrost.checks.us_per_eval",
                ratio(
                    node("engine.tick.observe.evaluate_checks").map(|s| s * 1e6),
                    Some(evaluations),
                ),
            ),
            ("bifrost.journal.record_s", node("engine.tick.journal_encode")),
            ("bifrost.journal.encode_s", node("engine.journal.encode")),
            ("microsim.workload.arrivals_s", node("sim.window.arrivals")),
            ("microsim.event.pop_s", node("sim.event.pop")),
            ("microsim.event.dispatch_s", node("sim.event.dispatch")),
            ("microsim.event.exchange_s", node("sim.event.exchange")),
            ("microsim.event.barrier_wait_s", barrier),
            ("microsim.event.merge_s", node("sim.event.merge")),
            ("microsim.event.barrier_share", ratio(barrier, event_core)),
            ("microsim.monitor.flush_s", node("store.flush")),
            ("microsim.monitor.window_query_s", node("store.window_query")),
            (
                "cex_core.obs.overhead_pct",
                wall.map(|untraced| (traced.wall_s() - untraced) / untraced * 100.0),
            ),
        ]);
        let mut aggregates: Vec<Aggregate> = profile
            .nodes()
            .iter()
            .map(|(path, s)| Aggregate {
                name: path.clone(),
                total: Some(s.total()),
                count: Some(s.count()),
            })
            .collect();
        for expected in EXPECTED_NODES {
            if node(expected).is_none() {
                aggregates.push(Aggregate { name: expected.to_string(), total: None, count: None });
            }
        }
        let registry = &traced.report.runtime.counters;
        aggregates.extend(registry.counts().chain(registry.gauges()).map(|(name, v)| Aggregate {
            name: name.to_string(),
            total: None,
            count: Some(v),
        }));
        spans.attach(traced.span, aggregates);
    }

    exact.insert(0, ("digest", Json::Str(format!("{digest:016x}"))));
    Outcome {
        metrics,
        timings: vec![
            Timing { name: "setup_s", samples: setup_s },
            Timing { name: "wall_s", samples: wall_s },
            Timing { name: "tick_p50_ms", samples: ticks_ms },
        ],
        checks,
        digest,
        exact,
        work_unit: "simulated primary requests",
        notes,
        spans,
    }
}
