//! Figure 4.6 / Table 4.1 — end-user response times with and without
//! Bifrost across a four-phase strategy.
//!
//! The paper's strategy: canary → dark launch → A/B test → gradual
//! rollout on the case-study application, comparing monitored response
//! times against the same application without the middleware deployed.
//! Headline numbers to reproduce in shape: ≈8 ms average overhead
//! end-to-end, dropping to ≈4 ms during the A/B phase (traffic splitting
//! load-balances), and load amplification during the dark launch.
//!
//! The live run is journaled, and the second half of the output — the
//! per-check verdict trace and the phase timeline — is rebuilt from that
//! journal alone: it is serialized to line-delimited JSON, dropped, and
//! parsed back. Nothing is re-simulated on the replay side, so the section
//! guards the journal's writer and reader.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, ExecutionReport};
use bifrost::journal::Journal;
use cex_bench::header;
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::app::{CallDef, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::routing::Router;
use microsim::sim::{Simulation, APP_SCOPE};
use microsim::topologies;
use microsim::workload::{EntryPoint, Workload};

const STRATEGY: &str = r#"
strategy "rec-four-phase" {
  service "recommendation"
  baseline "1.0.0"
  candidate "1.1.0"
  variant_b "1.1.0-alt"

  phase "canary" canary 5% for 4m {
    check error_rate < 0.05 over 1m every 30s min_samples 10
    on success goto "dark"
    on failure rollback
  }
  phase "dark" dark_launch for 4m {
    check response_time vs_baseline < 2.0 over 1m every 30s min_samples 10
    on success goto "ab"
    on failure rollback
  }
  phase "ab" ab_test 25% for 6m {
    check conversion_rate > 0.001 over 3m every 1m min_samples 20
    on success goto "rollout"
    on failure rollback
  }
  phase "rollout" gradual_rollout from 25% to 100% step 25% every 2m for 10m {
    check error_rate < 0.05 over 1m every 30s min_samples 10
    on success complete
    on failure rollback
  }
}
"#;

fn workload(app: &microsim::app::Application) -> Workload {
    let fe = app.service_id("frontend").unwrap();
    Workload {
        population: Population::single("all", 50_000),
        rate_rps: 60.0,
        entries: vec![
            EntryPoint { service: fe, endpoint: "home".into(), weight: 4.0 },
            EntryPoint { service: fe, endpoint: "product".into(), weight: 3.0 },
            EntryPoint { service: fe, endpoint: "checkout".into(), weight: 1.0 },
        ],
        profile: microsim::workload::RateProfile::Constant,
    }
}

fn deploy_candidates(sim: &mut Simulation) {
    sim.deploy(topologies::recommendation_candidate()).expect("candidate deploys");
    sim.deploy(
        VersionSpec::new("recommendation", "1.1.0-alt")
            .capacity(250.0)
            .conversion_rate(0.035)
            .endpoint(
                EndpointDef::new("recommend", LatencyModel::web(11.0))
                    .call(CallDef::always("profile-store", "get")),
            ),
    )
    .expect("variant B deploys");
}

fn main() {
    header("Figure 4.6 / Table 4.1 — response times with and without Bifrost");
    let duration = SimDuration::from_mins(40);

    // Baseline: no middleware, stable version only.
    let app = topologies::case_study_app();
    let wl = workload(&app);
    let mut baseline = Simulation::new(app, 11);
    let base_report = baseline.run_with(duration, &wl);

    // With Bifrost: 2 ms proxy per hop, four-phase strategy enacted.
    let app = topologies::case_study_app();
    let wl2 = workload(&app);
    let mut sim = Simulation::new(app, 11);
    sim.set_router(Router::with_proxy_overhead(SimDuration::from_millis(2)));
    deploy_candidates(&mut sim);
    let strategy = dsl::parse(STRATEGY).expect("strategy parses");
    let engine = Engine::new(EngineConfig::default());
    let (exec, journal) = engine
        .execute_journaled(&mut sim, &[strategy], &wl2, duration)
        .expect("execution succeeds");
    println!("strategy outcome: {:?} after {} ticks\n", exec.statuses[0].1, exec.ticks);

    // Table 4.1 — basic statistics of response times in milliseconds.
    let with =
        sim.store().summary_between(APP_SCOPE, MetricKind::ResponseTime, SimTime::ZERO, sim.now());
    println!("Table 4.1 — response-time statistics (ms)");
    println!("{:>18} | {:>8} {:>8} {:>8} {:>8}", "config", "mean", "sd", "min", "max");
    println!(
        "{:>18} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
        "without Bifrost",
        base_report.response_time.mean,
        base_report.response_time.std_dev,
        base_report.response_time.min,
        base_report.response_time.max
    );
    println!(
        "{:>18} | {:>8.1} {:>8.1} {:>8.1} {:>8.1}",
        "with Bifrost", with.mean, with.std_dev, with.min, with.max
    );
    println!(
        "\nmean end-to-end overhead: {:.1} ms (paper: ≈8 ms on cloud VMs)",
        with.mean - base_report.response_time.mean
    );

    // Figure 4.6 — 3-second moving average over the run (1-minute stride
    // for readable output).
    println!("\nFigure 4.6 — moving average of monitored response times (ms)");
    println!("{:>6} | {:>10} ", "min", "with Bifrost");
    let series = sim.store().moving_average(
        APP_SCOPE,
        MetricKind::ResponseTime,
        SimTime::ZERO,
        sim.now(),
        SimDuration::from_secs(3),
        SimDuration::from_mins(1),
    );
    for (t, mean) in series {
        println!("{:>6} | {:>9.1}", t.as_secs() / 60, mean);
    }

    replay(&exec, journal);
}

/// The check-verdict trace and phase timeline of the run, from its
/// serialized journal alone.
fn replay(exec: &ExecutionReport, journal: Journal) {
    header("Figure 4.6 (replay) — check-verdict trace regenerated from the journal");
    println!(
        "live run: {:?} after {} ticks, {} journal events\n",
        exec.statuses[0].1,
        exec.ticks,
        journal.len()
    );

    // Serialize, drop the live journal, parse back — everything below is
    // derived from the serialized record alone.
    let jsonl = journal.to_jsonl();
    drop(journal);
    println!("serialized journal: {} bytes of JSONL", jsonl.len());
    let replayed = Journal::from_jsonl(&jsonl).expect("journal parses back");

    println!("\ncheck-verdict trace (replayed, boundary evaluations marked *):");
    println!(
        "{:>6} | {:>8} | {:>6} | {:>13} | {:>10}",
        "min", "phase", "check", "result", "observed"
    );
    for point in replayed.check_trace("rec-four-phase") {
        println!(
            "{:>6} | {:>8} | {:>5}{} | {:>13} | {:>10.2}",
            point.time.as_secs() / 60,
            point.phase,
            point.check,
            if point.boundary { "*" } else { " " },
            point.result.name(),
            point.observed
        );
    }

    println!("\nphase timeline (replayed):");
    print!("{}", replayed.render_timeline());

    for (name, state) in replayed.final_states() {
        println!("\nfinal state of {name}: {state}");
    }
}
