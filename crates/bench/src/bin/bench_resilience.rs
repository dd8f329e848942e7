//! Resilience benchmark: a chapter-5-style canary outage re-run with and
//! without call policies on the request path.
//!
//! Two measurements, mirroring the resilience layer's two claims:
//!
//! 1. **Outage containment** — a two-tier app runs a 20% canary of
//!    `backend@2.0.0` and a scheduled `Outage` fault knocks the canary
//!    out for a full minute. Without policies every request routed to
//!    the canary fails (app-level error rate ≈ the canary share). With
//!    retries + circuit breaker + fallback the same seed's outage window
//!    stays clean: the breaker sheds the dead version and the fallback
//!    serves degraded-but-successful responses. Acceptance: app-scope
//!    error rate during the outage is ≥5× lower with policies.
//! 2. **Steady-state overhead** — the same app with no faults, timed
//!    with and without the policy layer (interleaved, best of 7 passes
//!    per side). The policy
//!    bookkeeping (breaker ring windows, deadline checks) must cost
//!    <5% throughput when nothing is failing.
//!
//! Writes `results/BENCH_resilience.json`. With `--smoke [--out PATH]`
//! it runs a reduced, timing-free variant whose JSON contains only
//! deterministic fields — CI runs it twice and diffs the outputs.

use cex_bench::{smoke_args, write_bench_json};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, CallDef, EndpointDef, VersionSpec};
use microsim::faults::{Fault, FaultKind};
use microsim::latency::LatencyModel;
use microsim::resilience::{BreakerPolicy, BreakerState, CallPolicy};
use microsim::sim::{RunReport, Simulation};
use std::fmt::Write as _;
use std::time::Instant;

/// Frontend → backend, constant latencies, capacity far above any load
/// used here so queueing never confounds the comparison.
fn two_tier_app() -> Application {
    let mut b = Application::builder();
    b.version(
        VersionSpec::new("frontend", "1.0.0").capacity(1_000_000.0).endpoint(
            EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                .call(CallDef::always("backend", "api")),
        ),
    );
    b.version(
        VersionSpec::new("backend", "1.0.0")
            .capacity(1_000_000.0)
            .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
    );
    b.build().expect("two-tier app")
}

/// The policy under test — same shape as the engine's chaos-recovery
/// tests: one retry with jittered backoff, a count-window breaker, and a
/// cheap fallback response.
fn resilience_policy() -> CallPolicy {
    CallPolicy {
        max_retries: 1,
        backoff_base: SimDuration::from_millis(20),
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
        ..CallPolicy::default()
    }
}

/// One containment run: three one-minute windows (steady, outage,
/// recovery) against a 20% canary whose candidate dies for the middle
/// window.
struct ContainmentOutcome {
    steady: RunReport,
    outage: RunReport,
    recovery: RunReport,
    breaker_opened: bool,
    breaker_reclosed: bool,
    sheds: u64,
    fallbacks: u64,
    retries: u64,
}

fn run_containment(seed: u64, rate_rps: f64, protected: bool) -> ContainmentOutcome {
    let mut sim = Simulation::new(two_tier_app(), seed);
    sim.set_trace_sampling(0.0);
    let candidate = sim
        .deploy(
            VersionSpec::new("backend", "2.0.0")
                .capacity(1_000_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 9.0 })),
        )
        .expect("deploy candidate");
    let backend = sim.app().service_id("backend").expect("backend exists");
    let baseline = sim.app().version_id("backend", "1.0.0").expect("baseline exists");
    let frontend = sim.app().version_id("frontend", "1.0.0").expect("frontend exists");
    let snapshot = sim.app().clone();
    sim.router_mut()
        .set_split(&snapshot, backend, vec![(baseline, 0.8), (candidate, 0.2)])
        .expect("canary split");
    if protected {
        sim.set_call_policy(resilience_policy());
    }
    sim.inject_fault(Fault {
        version: candidate,
        kind: FaultKind::Outage,
        from: SimTime::from_secs(60),
        until: SimTime::from_secs(120),
    });

    let steady = sim.run(SimDuration::from_secs(60), rate_rps);
    let outage = sim.run(SimDuration::from_secs(60), rate_rps);
    let recovery = sim.run(SimDuration::from_secs(60), rate_rps);

    let transitions = sim.drain_breaker_transitions();
    let opened = transitions
        .iter()
        .any(|t| t.caller == frontend && t.callee == candidate && t.to == BreakerState::Open);
    let reclosed = sim.breaker_state(frontend, candidate) == Some(BreakerState::Closed)
        || sim.breaker_state(frontend, candidate).is_none();
    let candidate_scope = sim.app().version_label(candidate);
    ContainmentOutcome {
        steady,
        outage,
        recovery,
        breaker_opened: opened,
        breaker_reclosed: opened && reclosed,
        sheds: sim.store().count(&candidate_scope, MetricKind::Shed) as u64,
        fallbacks: sim.store().count(&candidate_scope, MetricKind::FallbackServed) as u64,
        retries: sim.store().count(&candidate_scope, MetricKind::Retry) as u64,
    }
}

/// Outage-window containment factor: unprotected error rate over the
/// protected one, floored at one failure so a perfectly clean protected
/// run still yields a finite ratio.
fn containment_factor(unprotected: &ContainmentOutcome, protected: &ContainmentOutcome) -> f64 {
    let floor = 1.0 / protected.outage.requests.max(1) as f64;
    unprotected.outage.error_rate() / protected.outage.error_rate().max(floor)
}

/// Fault-free throughput (requests per wall second) with and without the
/// policy layer. The bare/policy passes are interleaved so scheduler and
/// frequency drift hit both sides equally, and each side keeps its best
/// pass — the minimum-time estimator, since noise only ever adds time.
fn bench_steady_state(secs: u64, rate_rps: f64, reps: usize) -> (f64, f64) {
    let one_pass = |protected: bool| -> f64 {
        let mut sim = Simulation::new(two_tier_app(), 7);
        sim.set_trace_sampling(0.0);
        if protected {
            sim.set_call_policy(resilience_policy());
        }
        let start = Instant::now();
        let report = sim.run(SimDuration::from_secs(secs), rate_rps);
        let rate = report.requests as f64 / start.elapsed().as_secs_f64();
        assert_eq!(report.failures, 0, "steady state must be failure-free");
        rate
    };
    let mut bare = 0.0f64;
    let mut policy = 0.0f64;
    for _ in 0..reps {
        bare = bare.max(one_pass(false));
        policy = policy.max(one_pass(true));
    }
    (bare, policy)
}

fn push_windows(json: &mut String, indent: &str, outcome: &ContainmentOutcome) {
    for (name, report) in
        [("steady", &outcome.steady), ("outage", &outcome.outage), ("recovery", &outcome.recovery)]
    {
        let _ = writeln!(
            json,
            "{indent}\"{name}\": {{\"requests\": {}, \"failures\": {}, \"error_rate\": {:.9}}},",
            report.requests,
            report.failures,
            report.error_rate()
        );
    }
}

/// Reduced deterministic run for CI: no timings in the JSON, so two
/// invocations must produce byte-identical files.
fn run_smoke(out: &str) {
    let unprotected = run_containment(11, 50.0, false);
    let protected = run_containment(11, 50.0, true);
    let factor = containment_factor(&unprotected, &protected);

    let mut json = String::from("  \"unprotected\": {\n");
    push_windows(&mut json, "    ", &unprotected);
    let _ = writeln!(json, "    \"sheds\": {},", unprotected.sheds);
    let _ = writeln!(json, "    \"fallbacks\": {}", unprotected.fallbacks);
    json.push_str("  },\n  \"protected\": {\n");
    push_windows(&mut json, "    ", &protected);
    let _ = writeln!(json, "    \"breaker_opened\": {},", protected.breaker_opened);
    let _ = writeln!(json, "    \"breaker_reclosed\": {},", protected.breaker_reclosed);
    let _ = writeln!(json, "    \"sheds\": {},", protected.sheds);
    let _ = writeln!(json, "    \"fallbacks\": {},", protected.fallbacks);
    let _ = writeln!(json, "    \"retries\": {}", protected.retries);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"containment_factor\": {factor:.9}");
    write_bench_json(out, "resilience_smoke", &json);
}

fn run_full() {
    println!("=== Resilience: canary outage containment + steady-state overhead ===");

    // 1. Containment: 200 rps, one-minute canary outage, paired seeds.
    let unprotected = run_containment(11, 200.0, false);
    let protected = run_containment(11, 200.0, true);
    let factor = containment_factor(&unprotected, &protected);
    println!(
        "outage window: unprotected {:.4} error rate ({} of {}), protected {:.4} ({} of {})",
        unprotected.outage.error_rate(),
        unprotected.outage.failures,
        unprotected.outage.requests,
        protected.outage.error_rate(),
        protected.outage.failures,
        protected.outage.requests,
    );
    println!(
        "containment {factor:.1}x (acceptance >= 5x); breaker opened={} reclosed={}, \
         sheds={}, fallbacks={}, retries={}",
        protected.breaker_opened,
        protected.breaker_reclosed,
        protected.sheds,
        protected.fallbacks,
        protected.retries
    );

    // 2. Steady-state overhead: no faults, 120 simulated seconds at
    //    2,000 rps (≈240k requests per pass), interleaved best of 7.
    let (bare_rps, policy_rps) = bench_steady_state(120, 2_000.0, 7);
    let overhead = (bare_rps - policy_rps) / bare_rps;
    println!(
        "steady state: bare {bare_rps:.0} req/s, with policies {policy_rps:.0} req/s \
         (overhead {:.1}%, acceptance < 5%)",
        overhead * 100.0
    );

    let mut json = String::from("  \"scenario\": {\n");
    let _ = writeln!(json, "    \"canary_percent\": 20.0,");
    let _ = writeln!(json, "    \"rate_rps\": 200.0,");
    let _ = writeln!(json, "    \"outage\": \"60s..120s on backend@2.0.0\",");
    let _ = writeln!(json, "    \"seed\": 11");
    json.push_str("  },\n  \"unprotected\": {\n");
    push_windows(&mut json, "    ", &unprotected);
    let _ = writeln!(json, "    \"sheds\": {},", unprotected.sheds);
    let _ = writeln!(json, "    \"fallbacks\": {}", unprotected.fallbacks);
    json.push_str("  },\n  \"protected\": {\n");
    push_windows(&mut json, "    ", &protected);
    let _ = writeln!(json, "    \"breaker_opened\": {},", protected.breaker_opened);
    let _ = writeln!(json, "    \"breaker_reclosed\": {},", protected.breaker_reclosed);
    let _ = writeln!(json, "    \"sheds\": {},", protected.sheds);
    let _ = writeln!(json, "    \"fallbacks\": {},", protected.fallbacks);
    let _ = writeln!(json, "    \"retries\": {}", protected.retries);
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"containment_factor\": {factor:.2},");
    let _ = writeln!(json, "  \"acceptance_min_containment\": 5.0,");
    json.push_str("  \"steady_state\": {\n");
    let _ = writeln!(json, "    \"sim_secs\": 120,");
    let _ = writeln!(json, "    \"rate_rps\": 2000.0,");
    let _ = writeln!(json, "    \"best_of\": 7,");
    let _ = writeln!(json, "    \"bare_req_per_sec\": {bare_rps:.0},");
    let _ = writeln!(json, "    \"policy_req_per_sec\": {policy_rps:.0},");
    let _ = writeln!(json, "    \"overhead\": {overhead:.4},");
    let _ = writeln!(json, "    \"acceptance_max_overhead\": 0.05");
    json.push_str("  }\n");
    write_bench_json("results/BENCH_resilience.json", "resilience", &json);

    assert!(
        unprotected.outage.error_rate() > 0.1,
        "unprotected outage must actually hurt ({:.4})",
        unprotected.outage.error_rate()
    );
    assert!(protected.breaker_opened, "the breaker must open during the outage");
    assert!(protected.breaker_reclosed, "the breaker must re-close after the outage");
    assert!(factor >= 5.0, "containment {factor:.2}x below the 5x acceptance bar");
    assert!(
        overhead < 0.05,
        "steady-state overhead {:.1}% exceeds the 5% acceptance bar",
        overhead * 100.0
    );
    println!("PASS: all acceptance criteria met");
}

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_resilience_smoke.json");
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
