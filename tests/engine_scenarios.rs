//! The engine's scenarios, as one table.
//!
//! Each row is a `Case`: an application, a request rate, a seed, the
//! strategies in DSL, an engine configuration, faults injected before the
//! run, a horizon, the statuses the strategies must end in (or the error
//! the start must fail with) and the row's own assertion. `run` is the one
//! driver; each row is its own `#[test]`, so the rows run in parallel.
//!
//! The driver holds every row to more than its own assertion. A run's
//! accounting is consistent; a start that fails leaves the simulation as it
//! was (no routing rule, retention horizon or fault, the clock at zero).
//! Every run is journaled, and every row that runs is held to four more
//! checks: a same-seed rerun journals the same bytes and reports the same
//! seed-pure facts; the JSONL reads back to the same bytes; the journaled
//! `transition` events are in time order; and the report's statuses agree
//! with `Journal::final_states`. The journal is the run's one transition
//! log: a row that reads transitions reads them through `transitions`.
//!
//! To add a row, write a `#[test]` that calls `run` with a `Case` built by
//! `case(app, rate, seed, dsl)` (or `checked`, `chaos`, `traced_fleet`),
//! overriding the fields that differ.

use bifrost::engine::{Engine, EngineConfig, ExecutionReport, StrategyStatus};
use bifrost::journal::{Journal, JournalEvent};
use bifrost::machine::{PhaseOutcome, State};
use bifrost::{dsl, BifrostError, Strategy};
use cex_core::metrics::MetricKind;
use cex_core::obs::ObsConfig;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::app::{Application, CallDef, EndpointDef, VersionSpec};
use microsim::faults::{Fault, FaultKind};
use microsim::latency::LatencyModel;
use microsim::resilience::{BreakerPolicy, BreakerState, CallPolicy};
use microsim::sim::Simulation;
use microsim::trace::TailSamplingConfig;
use microsim::workload::{EntryPoint, RateProfile, Workload};
use std::time::Duration;
use StrategyStatus::{Completed, RolledBack, Running};

/// One scenario.
struct Case {
    app: fn() -> Application,
    /// Requests per second (see [`workload`]).
    rate: f64,
    seed: u64,
    /// The strategies, in DSL, in submission order.
    dsl: String,
    config: EngineConfig,
    /// Trace sampling to set before the run, if any.
    sampling: Option<f64>,
    /// Whether every call runs under [`resilience`].
    resilient: bool,
    /// `(service, version, fault, from, until)`, injected before the run.
    faults: Vec<(&'static str, &'static str, FaultKind, SimTime, SimTime)>,
    horizon: SimDuration,
    /// The final statuses, or a part of the message the start fails with.
    expect: Result<Vec<StrategyStatus>, &'static str>,
    /// The row's own assertions.
    check: fn(&mut Run),
}

/// A row that ran, for its own assertions.
struct Run {
    sim: Simulation,
    workload: Workload,
    strategies: Vec<Strategy>,
    report: ExecutionReport,
    journal: Journal,
}

/// A row under the default engine for 30 minutes, with no faults, sampling
/// or resilience, whose one strategy completes.
fn case(app: fn() -> Application, rate: f64, seed: u64, dsl: String) -> Case {
    Case {
        app,
        rate,
        seed,
        dsl,
        config: EngineConfig::default(),
        sampling: None,
        resilient: false,
        faults: Vec::new(),
        horizon: SimDuration::from_mins(30),
        expect: Ok(vec![Completed]),
        check: |_| {},
    }
}

impl Case {
    /// A fresh simulation, its workload and the strategies, for one run.
    fn set_up(&self) -> (Simulation, Workload, Vec<Strategy>) {
        let app = (self.app)();
        let workload = workload(&app, self.rate);
        let mut sim = Simulation::new(app, self.seed);
        if let Some(fraction) = self.sampling {
            sim.set_trace_sampling(fraction);
        }
        if self.resilient {
            sim.set_call_policy(resilience());
        }
        for &(service, version, kind, from, until) in &self.faults {
            let version = sim.app().version_id(service, version).unwrap();
            sim.inject_fault(Fault { version, kind, from, until });
        }
        (sim, workload, dsl::parse_all(&self.dsl).unwrap())
    }

    fn execute(
        &self,
        sim: &mut Simulation,
        workload: &Workload,
        strategies: &[Strategy],
    ) -> Result<(ExecutionReport, Journal), BifrostError> {
        Engine::new(self.config.clone()).execute_journaled(sim, strategies, workload, self.horizon)
    }
}

/// Runs one row and holds it to what the module doc lists.
fn run(case: Case) {
    let (mut sim, workload, strategies) = case.set_up();
    let (report, journal) = match (case.execute(&mut sim, &workload, &strategies), &case.expect) {
        (Ok(done), Ok(expected)) => {
            let statuses: Vec<_> = done.0.statuses.iter().map(|(_, s)| s.clone()).collect();
            assert_eq!(statuses, *expected);
            done
        }
        (Err(BifrostError::Execution(why)), Err(part)) => {
            assert!(why.contains(part), "{why}");
            assert_eq!(sim.now(), SimTime::ZERO);
            assert!(!sim.router().has_rules(), "a failed start left routing behind");
            assert_eq!(sim.store().retention(), None, "a failed start left retention behind");
            assert!(sim.faults().faults().is_empty(), "a failed start left faults behind");
            return;
        }
        (got, _) => panic!("unexpected outcome: {:?}", got.map(|(report, _)| report.statuses)),
    };
    assert!(report.ticks > 0 && report.sim_duration <= case.horizon);
    assert!(report.engine_busy <= report.wall_total);
    assert!(report.mean_tick_processing <= report.max_tick_processing);
    assert!((0.0..=1.0).contains(&report.cpu_utilization()));
    let text = journal.to_jsonl();
    let (mut again, ..) = case.set_up();
    let (report_again, journal_again) = case.execute(&mut again, &workload, &strategies).unwrap();
    assert!(journal_again.to_jsonl() == text, "a same-seed rerun journals other bytes");
    assert_eq!(seed_pure(&report_again), seed_pure(&report), "a same-seed rerun");
    assert!(Journal::from_jsonl(&text).unwrap().to_jsonl() == text, "the JSONL reads back");
    assert!(transitions(&journal).windows(2).all(|w| w[0].0 <= w[1].0));
    let finals = journal.final_states();
    assert_eq!(finals.len(), report.statuses.len());
    for ((name, status), (journaled, state)) in report.statuses.iter().zip(&finals) {
        let agrees = match status {
            Running => matches!(state, State::Phase(_)),
            Completed => *state == State::Completed,
            RolledBack => *state == State::RolledBack,
        };
        assert!(name == journaled && agrees, "{name} {status:?} vs {journaled} {state:?}");
    }
    (case.check)(&mut Run { sim, workload, strategies, report, journal });
}

/// What the seed fixes in a report: everything but its wall-clock times.
fn seed_pure(r: &ExecutionReport) -> String {
    let health: Vec<_> = r.health.iter().map(|(n, h)| format!("{n}\n{}", h.render())).collect();
    let counters = &r.runtime.counters;
    format!("{:?}", (&r.statuses, r.ticks, r.check_evaluations, health, counters))
}

/// The journal's events that `pick` maps to something, in order.
fn events<T>(journal: &Journal, pick: impl Fn(&JournalEvent) -> Option<T>) -> Vec<T> {
    journal.events().iter().filter_map(pick).collect()
}

fn has(journal: &Journal, pred: impl Fn(&JournalEvent) -> bool) -> bool {
    journal.events().iter().any(pred)
}

/// The journal's transitions: `(time, from, to, outcome)`.
fn transitions(journal: &Journal) -> Vec<(SimTime, State, State, PhaseOutcome)> {
    events(journal, |e| match e {
        JournalEvent::Transition { time, from, to, outcome, .. } => {
            Some((*time, *from, *to, *outcome))
        }
        _ => None,
    })
}

/// The journal's chaos windows: `(kind, target, from, until)`.
fn chaos_windows(journal: &Journal) -> Vec<(&'static str, String, SimTime, SimTime)> {
    events(journal, |e| match e {
        JournalEvent::Chaos { kind, target, from, until, .. } => {
            Some((*kind, target.to_string(), *from, *until))
        }
        _ => None,
    })
}

/// The journal's ramp decisions, each with the percent it left.
fn ramps(journal: &Journal) -> Vec<(&'static str, f64)> {
    events(journal, |e| match e {
        JournalEvent::Ramp { decision, percent, .. } => Some((*decision, *percent)),
        _ => None,
    })
}

/// `service@version` serving `api` in a constant `ms`, failing at `error_rate`.
fn version(service: &str, version: &str, ms: f64, error_rate: f64) -> VersionSpec {
    let api = EndpointDef::new("api", LatencyModel::Constant { ms }).error_rate(error_rate);
    VersionSpec::new(service, version).capacity(10_000.0).endpoint(api)
}

fn build(versions: impl IntoIterator<Item = VersionSpec>) -> Application {
    let mut b = Application::builder();
    for spec in versions {
        b.version(spec);
    }
    b.build().unwrap()
}

/// `svc`: a 20 ms baseline failing at `baseline_errors` and a candidate.
fn svc(baseline_errors: f64, ms: f64, errors: f64) -> Application {
    build([version("svc", "1.0.0", 20.0, baseline_errors), version("svc", "2.0.0", ms, errors)])
}

fn healthy() -> Application {
    svc(0.0, 18.0, 0.0)
}

fn broken() -> Application {
    svc(0.0, 25.0, 0.5)
}

/// `n` services `svc{i}`, each a 10 ms baseline and a 9 ms candidate.
fn fleet(n: usize) -> Application {
    build((0..n).flat_map(|i| {
        let service = format!("svc{i}");
        [version(&service, "1.0.0", 10.0, 0.0), version(&service, "2.0.0", 9.0, 0.0)]
    }))
}

/// A `web` frontend whose `home` calls `svc`'s `api` (a 10 ms baseline and
/// a 9 ms candidate); `zoned` puts `web` in zone `edge` and `svc` in
/// `backend`.
fn web(zoned: bool) -> Application {
    let zone = |spec: VersionSpec, zone| if zoned { spec.zone(zone) } else { spec };
    let home = EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
        .call(CallDef::always("svc", "api"));
    build([
        zone(VersionSpec::new("web", "1.0.0").capacity(10_000.0).endpoint(home), "edge"),
        zone(version("svc", "1.0.0", 10.0, 0.0), "backend"),
        zone(version("svc", "2.0.0", 9.0, 0.0), "backend"),
    ])
}

/// `rate` requests per second from 10,000 users into `web`'s `home` or,
/// without a frontend, `svc`'s `api`; a fleet with neither spreads them
/// from 50,000 users evenly over every service's `api`.
fn workload(app: &Application, rate: f64) -> Workload {
    if let Ok(web) = app.service_id("web") {
        return Workload::simple(web, "home", rate);
    }
    if let Ok(svc) = app.service_id("svc") {
        return Workload::simple(svc, "api", rate);
    }
    let services = app.services().map(|(service, _)| service);
    let entries = services.map(|s| EntryPoint { service: s, endpoint: "api".into(), weight: 1.0 });
    let (population, entries) = (Population::single("all", 50_000), entries.collect());
    Workload { population, rate_rps: rate, entries, profile: RateProfile::Constant }
}

/// One retry with jittered backoff, a breaker and a fallback on every call.
fn resilience() -> CallPolicy {
    CallPolicy {
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

const ERRORS: &str = "check error_rate < 0.1 over 1m every 30s min_samples 10";
const APP_ERRORS: &str = "check error_rate app < 0.02 over 1m every 30s min_samples 20";
const SEQUENTIAL: &str =
    "check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20";

/// A strategy moving `service` from `1.0.0` to `2.0.0` through `phases`.
fn strategy(name: &str, service: &str, phases: &str) -> String {
    let versions = r#"baseline "1.0.0" candidate "2.0.0""#;
    format!(r#"strategy "{name}" {{ service "{service}" {versions} {phases} }}"#)
}

/// A phase that completes on success, rolls back on failure and retries
/// when inconclusive, unless `body` — its checks and chaos — says otherwise.
fn phase(name: &str, kind: &str, body: &str) -> String {
    format!(r#"phase "{name}" {kind} {{ on success complete on failure rollback {body} }}"#)
}

/// A 10% canary, then a gradual rollout, both held to the error rate.
fn canary_then_rollout() -> String {
    let canary = format!(r#"{ERRORS} on success goto "rollout""#);
    let rollout = "gradual_rollout from 25% to 100% step 25% every 1m for 10m";
    let phases = phase("canary", "canary 10% for 3m", &canary) + &phase("rollout", rollout, ERRORS);
    strategy("canary-then-rollout", "svc", &phases)
}

/// A canary whose check wants `min_samples` in a minute.
fn starved(min_samples: u64) -> String {
    let check = format!("check error_rate < 0.1 over 1m every 30s min_samples {min_samples}");
    strategy("starved", "svc", &phase("canary", "canary 10% for 2m", &check))
}

/// One 20% canary per service of `fleet(n)`.
fn fleet_canaries(n: usize) -> String {
    let check = "check error_rate < 0.2 over 1m every 30s min_samples 5";
    let canary = phase("canary", "canary 20% for 2m", check);
    (0..n).map(|i| strategy(&format!("s{i}"), &format!("svc{i}"), &canary)).collect()
}

/// A resilient 10-minute run of a 20% canary on `web(zoned)`
/// with one chaos `inject`, held to the app's error rate.
fn chaos(zoned: bool, seed: u64, name: &str, inject: &str, check: fn(&mut Run)) -> Case {
    let app: fn() -> Application = if zoned { || web(true) } else { || web(false) };
    let body = format!("inject {inject} {APP_ERRORS}");
    let dsl = strategy(name, "svc", &phase("chaos", "canary 20% for 8m", &body));
    let horizon = SimDuration::from_mins(10);
    Case { resilient: true, horizon, check, ..case(app, 40.0, seed, dsl) }
}

/// A run of `dsl` on `app` at 30 rps for `m` minutes, checked by `f`.
fn checked(app: fn() -> Application, seed: u64, m: u64, dsl: String, f: fn(&mut Run)) -> Case {
    let horizon = SimDuration::from_mins(m);
    Case { horizon, check: f, ..case(app, 30.0, seed, dsl) }
}

/// A 50% canary of at most 30 minutes, held to one sequential check.
fn sequential_canary(name: &str) -> String {
    strategy(name, "svc", &phase("canary", "canary 50% for 30m", SEQUENTIAL))
}

/// A canary held to the candidate's trace-derived response time.
fn traced() -> String {
    let check = "check response_time trace < 100 over 1m every 30s min_samples 5";
    strategy("traced", "svc", &phase("canary", "canary 20% for 3m", check))
}

/// A gradual rollout from 10% held to a 5% error rate.
fn rollout() -> String {
    let kind = "gradual_rollout from 10% to 100% step 10% every 1m for 15m";
    let check = "check error_rate < 0.05 over 1m every 30s min_samples 10";
    strategy("rollout", "svc", &phase("rollout", kind, check))
}

#[test]
fn healthy_candidate_completes_and_serves_everyone() {
    run(Case {
        check: |run| {
            assert!(run.report.all_terminal() && run.report.check_evaluations > 0);
            // The profile covers the engine's phase tree and the sim's
            // window nodes; engine_busy is a thin read of `engine.busy`.
            let profile = &run.report.runtime.profile;
            for node in ["engine.tick", "engine.tick.simulate", "engine.busy", "sim.window"] {
                assert!(profile.total(node) > Duration::ZERO, "{node}: {:?}", profile.nodes());
            }
            assert_eq!(run.report.engine_busy, profile.total("engine.busy"));
            assert!(profile.total("engine.tick") >= profile.total("engine.tick.simulate"));
            // The candidate serves everyone: response times drop to its 18 ms.
            let after = run.sim.run(SimDuration::from_secs(30), 30.0);
            assert!((after.response_time.mean - 18.0).abs() < 1.0, "{}", after.response_time.mean);
        },
        ..case(healthy, 30.0, 1, canary_then_rollout())
    });
}

#[test]
fn profile_without_obs_keeps_only_the_busy_totals() {
    run(Case {
        config: EngineConfig { obs: ObsConfig::disabled(), ..EngineConfig::default() },
        check: |run| {
            let profile = &run.report.runtime.profile;
            assert_eq!(profile.total("engine.tick.simulate"), Duration::ZERO, "spans were off");
            assert!(profile.total("engine.busy") > Duration::ZERO);
            assert!(run.report.engine_busy > Duration::ZERO);
        },
        ..case(healthy, 30.0, 1, canary_then_rollout())
    });
}

#[test]
fn broken_candidate_rolls_back() {
    run(Case {
        expect: Ok(vec![RolledBack]),
        check: |run| {
            // Everyone is back on the 20 ms baseline, with no residual errors.
            let after = run.sim.run(SimDuration::from_secs(30), 30.0);
            assert!((after.response_time.mean - 20.0).abs() < 1.0 && after.failures == 0);
        },
        ..case(broken, 30.0, 2, canary_then_rollout())
    });
}

#[test]
fn retry_budget_bounds_total_phase_executions() {
    // Near-zero traffic never reaches min_samples. max_retries = 2 permits
    // the first execution and exactly one retry: the second inconclusive
    // outcome in a row rolls back.
    run(Case {
        config: EngineConfig { max_retries: 2, ..EngineConfig::default() },
        horizon: SimDuration::from_hours(2),
        expect: Ok(vec![RolledBack]),
        check: |run| {
            let transitions = transitions(&run.journal);
            assert_eq!(transitions.iter().filter(|t| t.1 == t.2).count(), 1, "{transitions:?}");
            assert_eq!(transitions.last().unwrap().2, State::RolledBack);
        },
        ..case(healthy, 0.05, 3, starved(1000))
    });
}

#[test]
fn many_strategies_run_in_parallel() {
    run(Case {
        horizon: SimDuration::from_mins(20),
        expect: Ok(vec![Completed; 20]),
        ..case(|| fleet(20), 200.0, 4, fleet_canaries(20))
    });
}

#[test]
fn transition_log_records_the_phase_sequence() {
    run(Case {
        check: |run| {
            // canary -> rollout -> completed.
            let transitions = transitions(&run.journal);
            let path: Vec<State> = transitions.iter().map(|t| t.2).collect();
            assert_eq!(path.last(), Some(&State::Completed));
            assert!(path.contains(&State::Phase(1)), "rollout entered: {path:?}");
            let first = transitions[0];
            assert_eq!((first.1, first.3), (State::Phase(0), PhaseOutcome::Success));
        },
        ..case(healthy, 30.0, 21, canary_then_rollout())
    });
}

/// Eight canaries on `fleet(8)` at 100 rps for 10 minutes, every request
/// traced.
fn traced_fleet(config: EngineConfig, check: fn(&mut Run)) -> Case {
    Case {
        config,
        sampling: Some(1.0),
        horizon: SimDuration::from_mins(10),
        expect: Ok(vec![Completed; 8]),
        check,
        ..case(|| fleet(8), 100.0, 9, fleet_canaries(8))
    }
}

#[test]
fn journal_is_byte_identical_across_runs() {
    run(traced_fleet(EngineConfig::default(), |run| {
        // With sampling on, every phase boundary journals a health snapshot.
        assert!(!run.journal.is_empty() && !run.report.health.is_empty());
        assert!(has(&run.journal, |e| matches!(e, JournalEvent::HealthSnapshot { .. })));
    }));
}

#[test]
fn journal_is_byte_identical_with_tail_sampling_across_runs() {
    let tail = TailSamplingConfig { healthy_keep_one_in: 4, slow_quantile: 0.95, warmup: 64 };
    let config = EngineConfig { tail_sampling: Some(tail), ..EngineConfig::default() };
    run(traced_fleet(config, |run| {
        assert!(run.sim.trace_collector().sampling_stats().downsampled_kept > 0);
        let health: String = run.report.health.iter().map(|(_, h)| h.render()).collect();
        assert!(health.contains("sampling: recorded"), "render discloses sampling counters");
        assert!(run.journal.to_jsonl().contains("\"tail_kept\":"));
    }));
}

#[test]
fn journal_with_runtime_events_is_byte_identical_across_runs() {
    let obs = ObsConfig::enabled();
    let config = EngineConfig { runtime_report_every: 3, obs, ..EngineConfig::default() };
    run(traced_fleet(config, |run| {
        assert!(has(&run.journal, |e| matches!(e, JournalEvent::Runtime { .. })));
        assert!(run.journal.to_jsonl().contains("\"ev\":\"runtime\""));
        let counters = &run.report.runtime.counters;
        assert!(counters.count("engine.ticks") > 0 && counters.count("sim.events.popped") > 0);
    }));
}

#[test]
fn trace_scoped_check_reads_trace_derived_metrics() {
    run(Case {
        sampling: Some(1.0),
        horizon: SimDuration::from_mins(10),
        check: |run| {
            let samples = run.sim.store().count("trace:svc@2.0.0", MetricKind::ResponseTime);
            assert!(samples > 0, "the engine distilled trace samples into the trace scope");
            assert!(!run.report.health.is_empty(), "tracing produces health reports");
        },
        ..case(healthy, 30.0, 31, traced())
    });
}

#[test]
fn trace_scoped_check_without_traces_never_concludes() {
    // No trace-derived data: the retry budget rolls the strategy back.
    run(Case {
        config: EngineConfig { max_retries: 2, ..EngineConfig::default() },
        sampling: Some(0.0),
        expect: Ok(vec![RolledBack]),
        check: |run| assert!(run.report.health.is_empty(), "no traces, no health reports"),
        ..case(healthy, 30.0, 31, traced())
    });
}

#[test]
fn health_report_localizes_the_faulty_canary() {
    // An error burst on a canary: the app-scope check is lenient enough to
    // let the phase run its course, but the trace-driven health report
    // pins the degradation on the candidate's `api` edge.
    let body = "inject error_burst 0.5 on candidate after 1m for 4m \
                check error_rate app < 0.9 over 1m every 30s min_samples 10";
    let dsl = strategy("burst-canary", "svc", &phase("canary", "canary 50% for 6m", body));
    let app = || web(false);
    let row = checked(app, 29, 8, dsl, |run| {
        let (name, health) = &run.report.health[0];
        assert_eq!((name.as_str(), health.canary.as_str()), ("burst-canary", "svc@2.0.0"));
        assert!(health.traces > 0 && health.degraded(0.05, 1_000.0));
        let worst = health.worst_edge().expect("edges were compared");
        assert_eq!(worst.endpoint, "api", "the fault is localized to the api edge");
        assert!(worst.error_rate_delta() > 0.1, "delta {}", worst.error_rate_delta());
        // The boundary snapshot journaled the same verdict.
        assert!(has(&run.journal, |e| matches!(e,
            JournalEvent::HealthSnapshot { detail, .. } if detail.canary == "svc@2.0.0"
                && detail.worst_edge.as_deref() == Some("api") && detail.error_rate_delta > 0.1)));
    });
    run(Case { rate: 40.0, sampling: Some(1.0), ..row });
}

#[test]
fn journal_round_trips_and_replays_the_execution() {
    run(checked(healthy, 13, 30, canary_then_rollout(), |run| {
        // The parsed journal replays the live verdict trace.
        let parsed = Journal::from_jsonl(&run.journal.to_jsonl()).unwrap();
        let trace = run.journal.check_trace("canary-then-rollout");
        assert!(!trace.is_empty());
        assert_eq!(parsed.check_trace("canary-then-rollout"), trace);
        // The timeline renders one row per strategy plus header and load.
        let timeline = run.journal.render_timeline();
        assert_eq!(timeline.lines().count(), 3);
    }));
}

#[test]
fn terminal_strategies_retire_their_scopes() {
    let row = checked(broken, 11, 30, canary_then_rollout(), |run| {
        // The rolled-back candidate's samples leave the live store, and the
        // journal records the retirement.
        let scopes = run.sim.store().scopes();
        assert!(!scopes.iter().any(|s| s == "svc@2.0.0"), "{scopes:?}");
        assert!(has(&run.journal, |e| matches!(e,
            JournalEvent::ScopeCleared { scope, .. } if scope == "svc@2.0.0")));
    });
    run(Case { expect: Ok(vec![RolledBack]), ..row });
}

#[test]
fn sequential_experiments_do_not_accumulate_retired_samples() {
    // Three experiments in a row on one long-lived simulation: each
    // rollback prunes the candidate's samples.
    run(Case {
        horizon: SimDuration::from_mins(10),
        expect: Ok(vec![RolledBack]),
        check: |run| {
            let candidate = |sim: &Simulation| -> usize {
                MetricKind::all().iter().map(|m| sim.store().count("svc@2.0.0", *m)).sum()
            };
            assert_eq!(candidate(&run.sim), 0);
            for _ in 0..2 {
                let Run { sim, workload, strategies, .. } = run;
                let horizon = SimDuration::from_mins(10);
                let report = Engine::default().execute(sim, strategies, workload, horizon).unwrap();
                assert_eq!((&report.statuses[0].1, candidate(sim)), (&RolledBack, 0));
            }
        },
        ..case(broken, 30.0, 12, canary_then_rollout())
    });
}

#[test]
fn auto_retention_bounds_live_store_memory() {
    // A long execution keeps a bounded raw tail per series: the horizon
    // (4× the longest 1m window, at least 5 min) compacts older samples
    // into buckets while the logical counts keep growing.
    run(Case {
        config: EngineConfig { max_retries: 100, ..EngineConfig::default() },
        expect: Ok(vec![Running]),
        check: |run| {
            let store = run.sim.store();
            assert_eq!(store.retention(), Some(SimDuration::from_mins(5)));
            // ~30 minutes recorded, at most ~5-and-change minutes kept raw.
            let (kept, recorded) = (store.total_samples() as u64, store.total_recorded());
            assert!(kept < recorded && kept < recorded / 3, "{kept} of {recorded}");
            // The trailing minute stays raw-backed, so checks read exact windows.
            let (now, minute) = (run.sim.now(), SimDuration::from_mins(1));
            assert!(
                store.window_summary("svc@1.0.0", MetricKind::ErrorRate, now, minute).count > 0
            );
        },
        ..case(healthy, 5.0, 3, starved(1_000_000))
    });
}

#[test]
fn chaos_recovery_survives_the_outage_and_journals_the_breaker_cycle() {
    let outage = "outage on candidate after 2m for 1m";
    run(chaos(false, 17, "chaos-canary", outage, |run| {
        // The fallback absorbs the outage, so the app-scope check passes;
        // the fault window is journaled with its absolute bounds.
        let (from, until) = (SimTime::from_mins(2), SimTime::from_mins(3));
        let window = ("outage", "svc@2.0.0".to_string(), from, until);
        assert_eq!(chaos_windows(&run.journal), [window]);
        // The breaker on web → candidate opens during the outage and
        // re-closes within a minute of the window clearing.
        let breaker = events(&run.journal, |e| match e {
            JournalEvent::Breaker { time, caller, callee, to, .. } if callee == "svc@2.0.0" => {
                Some((*time, caller.clone(), *to))
            }
            _ => None,
        });
        let opened = breaker.iter().find(|b| b.2 == BreakerState::Open).expect("opens");
        assert!((from..until).contains(&opened.0) && opened.1 == "web@1.0.0");
        let closed = breaker.iter().rev().find(|b| b.2 == BreakerState::Closed).unwrap();
        let next_minute = until..=SimTime::from_mins(4);
        assert!(next_minute.contains(&closed.0), "re-closed at {}", closed.0);
    }));
}

#[test]
fn chaos_without_resilience_is_caught_and_rolled_back() {
    // The outage reaches users and fails the app-scope check inside its
    // window. It starts on the phase boundary (after 0s): the `[from,
    // until)` convention applies it from the phase's first request.
    let outage = "outage on candidate after 0s for 2m";
    let row = chaos(false, 17, "chaos-naked", outage, |run| {
        let t = transitions(&run.journal).last().unwrap().0;
        assert!(t <= SimTime::from_mins(2) + SimDuration::from_secs(30), "rolled back at {t}");
    });
    run(Case { resilient: false, expect: Ok(vec![RolledBack]), ..row });
}

#[test]
fn zone_outage_strikes_every_zone_member_and_journals_the_zone() {
    let outage = r#"zone_outage "backend" after 2m for 1m"#;
    run(chaos(true, 17, "zone-chaos", outage, |run| {
        // Fallbacks absorb the whole-zone outage. One chaos event, tagged
        // with the zone and the DSL spelling of the kind.
        let (from, until) = (SimTime::from_mins(2), SimTime::from_mins(3));
        let window = ("zone_outage", "zone:backend".to_string(), from, until);
        assert_eq!(chaos_windows(&run.journal), [window]);
        // Both zone members went dark: the breakers into each open in the window.
        for callee in ["svc@1.0.0", "svc@2.0.0"] {
            let opened = has(&run.journal, |e| {
                matches!(e, JournalEvent::Breaker { time, callee: c, to: BreakerState::Open, .. }
                    if c == callee && (from..until).contains(time))
            });
            assert!(opened, "breaker into {callee} never opened during the zone outage");
        }
    }));
}

#[test]
fn latency_storm_journals_its_magnitude_and_zone() {
    // A pure latency storm produces no errors, so the experiment completes.
    let storm = r#"latency_storm 5 on zone "backend" after 2m for 1m"#;
    run(chaos(true, 17, "storm", storm, |run| {
        let stormed = has(&run.journal, |e| {
            matches!(e, JournalEvent::Chaos { kind: "latency_storm", magnitude, target, .. }
                if *magnitude == 5.0 && target == "zone:backend")
        });
        assert!(stormed, "latency_storm event missing from the journal");
    }));
}

#[test]
fn unknown_chaos_zone_is_an_execution_error() {
    // `web(false)` labels no zone; the strategy's own routing must not be
    // left installed either.
    let ghost = chaos(false, 17, "ghost-zone", r#"zone_outage "ghost" after 2m for 1m"#, |_| {});
    run(Case { expect: Err("matches no deployed version"), ..ghost });
}

#[test]
fn chaos_journal_is_byte_identical_across_runs() {
    let outage = "outage on candidate after 2m for 1m";
    run(chaos(false, 23, "chaos-canary", outage, |run| {
        assert!(has(&run.journal, |e| matches!(e, JournalEvent::Breaker { .. })));
    }));
}

#[test]
fn sequential_check_promotes_the_phase_early() {
    // A clearly better candidate: the always-valid p crosses well before
    // the 30-minute phase clock, and the engine promotes at once.
    let app = || svc(0.3, 20.0, 0.05);
    run(checked(app, 41, 40, sequential_canary("seq"), |run| {
        let done = transitions(&run.journal).last().unwrap().0;
        assert!(done < SimTime::from_mins(15), "promoted early, at {done}");
        assert!(has(&run.journal, |e| matches!(e,
            JournalEvent::EarlyStop { outcome: PhaseOutcome::Success, p, .. } if *p <= 0.05)));
    }));
}

#[test]
fn sequential_check_aborts_early_on_harm() {
    // A clearly worse candidate: the harm-side p crosses mid-phase, and the
    // strategy rolls back without waiting for the boundary.
    let app = || svc(0.05, 20.0, 0.4);
    let row = checked(app, 43, 40, sequential_canary("seq-bad"), |run| {
        let done = transitions(&run.journal).last().unwrap().0;
        assert!(done < SimTime::from_mins(10), "aborted early, at {done}");
        assert!(has(&run.journal, |e| matches!(e,
            JournalEvent::EarlyStop { outcome: PhaseOutcome::Failure, p, .. } if *p <= 0.05)));
    });
    run(Case { expect: Ok(vec![RolledBack]), ..row });
}

#[test]
fn guarded_ramp_advances_to_completion_when_healthy() {
    let ramp = phase("ramp", "ramp from 10% to 100% step 30% every 1m guarded for 10m", SEQUENTIAL);
    let dsl = strategy("ramp-good", "svc", &ramp);
    let app = || svc(0.3, 20.0, 0.05);
    run(checked(app, 47, 15, dsl, |run| {
        let decisions = ramps(&run.journal);
        assert!(!decisions.is_empty(), "guarded ramp journals its decisions");
        assert!(decisions.iter().all(|d| d.0 == "advance"), "{decisions:?}");
    }));
}

#[test]
fn guarded_ramp_retreats_under_harm_before_the_sequential_abort() {
    // A mildly worse candidate under a very strict confidence: the warn
    // threshold (LR ≥ 2) trips long before the absorbing abort (p ≤ 0.001,
    // LR ≥ 1000), so the ramp retreats or holds at its step boundaries and
    // the strategy still rolls back once the evidence is conclusive.
    let check = SEQUENTIAL.replace("0.95", "0.999");
    let ramp = phase("ramp", "ramp from 10% to 100% step 30% every 1m guarded for 40m", &check);
    let app = || svc(0.1, 20.0, 0.22);
    let row = checked(app, 53, 45, strategy("ramp-bad", "svc", &ramp), |run| {
        let decisions = ramps(&run.journal);
        assert!(decisions.iter().any(|d| d.0 == "retreat" || d.0 == "hold"), "{decisions:?}");
        // The ramp never retreats below its entry percent.
        assert!(decisions.iter().all(|d| d.1 >= 10.0), "{decisions:?}");
    });
    run(Case { expect: Ok(vec![RolledBack]), ..row });
}

#[test]
fn sequential_journal_is_byte_identical_across_runs() {
    // Early promotion, then a guarded ramp.
    let canary = format!(r#"{SEQUENTIAL} on success goto "ramp""#);
    let ramp = phase("ramp", "ramp from 30% to 100% step 35% every 1m guarded for 8m", SEQUENTIAL);
    let dsl =
        strategy("seq-pipeline", "svc", &(phase("canary", "canary 30% for 30m", &canary) + &ramp));
    let app = || svc(0.3, 20.0, 0.05);
    run(checked(app, 61, 60, dsl, |run| {
        assert!(has(&run.journal, |e| matches!(e, JournalEvent::EarlyStop { .. })));
        assert!(has(&run.journal, |e| matches!(e, JournalEvent::Ramp { .. })));
    }));
}

#[test]
fn sequential_fleet_journals_identically_across_runs_and_a_retry() {
    // A fleet that promotes early, ramps under guard, retreats, and retries
    // an undecided A/A phase; a retried phase starts its windows over.
    let canary = format!(r#"{SEQUENTIAL} on success goto "ramp""#);
    let canary = phase("canary", "canary 30% for 10m", &canary);
    let ramp = phase("ramp", "ramp from 30% to 100% step 35% every 1m guarded for 6m", SEQUENTIAL);
    let strict = SEQUENTIAL.replace("0.95", "0.999");
    let bad = phase("ramp", "ramp from 10% to 100% step 30% every 1m guarded for 30m", &strict);
    let aa = "check error_rate sequential vs baseline < confidence 0.9999 every 20s min_samples 20";
    let dsl = strategy("good", "good", &(canary + &ramp))
        + &strategy("bad", "bad", &bad)
        + &strategy("same", "same", &phase("aa", "canary 50% for 3m", aa));
    let app = || {
        let sides = [("good", 0.3, 0.05), ("bad", 0.1, 0.13), ("same", 0.1, 0.1)];
        build(sides.into_iter().flat_map(|(service, baseline, candidate)| {
            [version(service, "1.0.0", 20.0, baseline), version(service, "2.0.0", 20.0, candidate)]
        }))
    };
    let row = checked(app, 78, 20, dsl, |run| {
        let seen = |pred: fn(&JournalEvent) -> bool| has(&run.journal, pred);
        assert!(seen(|e| matches!(e, JournalEvent::EarlyStop { .. })));
        assert!(seen(|e| matches!(e, JournalEvent::Ramp { decision: "advance", .. })));
        assert!(seen(|e| matches!(e, JournalEvent::Ramp { decision: "retreat", .. })));
        // The A/A phase is retried twice before the budget rolls it back,
        // and each retry reads a window anchored at the re-entry.
        let looks = events(&run.journal, |e| match e {
            JournalEvent::Check { time, strategy, primary, boundary: false, .. }
                if strategy.as_ref() == "same" =>
            {
                Some((*time, primary.count))
            }
            _ => None,
        });
        let retries = events(&run.journal, |e| match e {
            JournalEvent::Transition { time, strategy, from, to, .. }
                if strategy.as_ref() == "same" && from == to =>
            {
                Some(*time)
            }
            _ => None,
        });
        assert_eq!(retries.len(), 2, "two retries, then the budget rolls back");
        for retry in retries {
            let before = looks.iter().rev().find(|(t, _)| *t <= retry).unwrap().1;
            let after = looks.iter().find(|(t, _)| *t > retry).unwrap().1;
            assert!(after * 4 < before, "window restarted: {before} -> {after}");
        }
    });
    run(Case { rate: 90.0, expect: Ok(vec![Completed, RolledBack, RolledBack]), ..row });
}

#[test]
fn zero_tick_is_an_error_not_a_hang() {
    // A zero step never advances the clock, so neither the deadline nor a
    // phase boundary would ever be reached.
    run(Case {
        config: EngineConfig { tick: SimDuration::ZERO, ..EngineConfig::default() },
        horizon: SimDuration::from_secs(30),
        expect: Err("tick"),
        ..case(healthy, 30.0, 7, canary_then_rollout())
    });
}

#[test]
fn empty_strategy_list_is_an_error() {
    let horizon = SimDuration::from_mins(1);
    run(Case { horizon, expect: Err("no strategies"), ..case(healthy, 30.0, 7, String::new()) });
}

#[test]
fn undeployed_candidate_is_an_error() {
    run(Case {
        horizon: SimDuration::from_mins(5),
        expect: Err("unknown version 2.0.0 of service svc"),
        ..case(|| build([version("svc", "1.0.0", 20.0, 0.0)]), 30.0, 6, canary_then_rollout())
    });
}

#[test]
fn a_failed_start_leaves_no_earlier_strategy_routed() {
    // The second strategy names a service that is not deployed: the first
    // one's canary must not have been installed.
    let ghost = strategy("ghost", "ghost", &phase("canary", "canary 10% for 3m", ERRORS));
    let dsl = canary_then_rollout() + &ghost;
    run(Case { expect: Err("unknown service: ghost"), ..case(healthy, 30.0, 8, dsl) });
}

#[test]
fn error_burst_mid_rollout_triggers_rollback() {
    // The candidate starts failing five minutes into the rollout.
    let burst = FaultKind::ErrorBurst { extra_error_rate: 0.6 };
    run(Case {
        faults: vec![("svc", "2.0.0", burst, SimTime::from_mins(5), SimTime::from_mins(60))],
        expect: Ok(vec![RolledBack]),
        check: |run| {
            // The rollback came after the fault struck, and the baseline
            // then serves everyone cleanly.
            let transitions = transitions(&run.journal);
            let rollback = transitions.iter().find(|t| t.2 == State::RolledBack);
            assert!(rollback.unwrap().0 >= SimTime::from_mins(5));
            let after = run.sim.run(SimDuration::from_mins(2), 30.0);
            assert!(after.failures == 0 && (after.response_time.mean - 20.0).abs() < 1.0);
        },
        ..case(healthy, 30.0, 1, rollout())
    });
}

#[test]
fn fault_outside_the_window_does_not_disturb() {
    // An outage scheduled long after the rollout is done.
    let (from, until) = (SimTime::from_hours(5), SimTime::from_hours(6));
    let faults = vec![("svc", "2.0.0", FaultKind::Outage, from, until)];
    run(Case { faults, ..case(healthy, 30.0, 2, rollout()) });
}

#[test]
fn latency_spike_fails_relative_checks() {
    let check = "check response_time vs_baseline < 1.5 over 1m every 30s min_samples 10";
    let dsl = strategy("relative", "svc", &phase("canary", "canary 30% for 10m", check));
    let spike = FaultKind::LatencySpike { multiplier: 4.0 };
    run(Case {
        faults: vec![("svc", "2.0.0", spike, SimTime::from_mins(3), SimTime::from_mins(60))],
        expect: Ok(vec![RolledBack]),
        ..case(healthy, 30.0, 3, dsl)
    });
}

#[test]
fn fault_on_baseline_rolls_the_candidate_forward_legitimately() {
    // A broken baseline must not abort the candidate: its absolute checks
    // keep passing and the rollout completes — the candidate is the way out.
    let spike = FaultKind::LatencySpike { multiplier: 3.0 };
    let (from, until) = (SimTime::from_mins(2), SimTime::from_hours(2));
    run(Case {
        faults: vec![("svc", "1.0.0", spike, from, until)],
        ..case(healthy, 30.0, 4, rollout())
    });
}
