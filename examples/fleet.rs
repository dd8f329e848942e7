//! A decentralized experiment fleet: many teams, one engine.
//!
//! The dissertation's setting is "decentralized microservice teams
//! independently running experiments". Here 24 teams each canary their own
//! service with one strategy written in the DSL; the fleet is verified as a
//! whole before launch (catching one team's mistake), executed in parallel,
//! and summarized from the execution journal's transitions.
//!
//! Run with `cargo run --release --example fleet`.

use continuous_experimentation::bifrost::dsl;
use continuous_experimentation::bifrost::engine::{Engine, StrategyStatus};
use continuous_experimentation::bifrost::machine::State;
use continuous_experimentation::bifrost::verify::{is_launchable, verify, Severity};
use continuous_experimentation::bifrost::JournalEvent;
use continuous_experimentation::core::simtime::SimDuration;
use continuous_experimentation::core::users::Population;
use continuous_experimentation::microsim::app::{Application, EndpointDef, VersionSpec};
use continuous_experimentation::microsim::latency::LatencyModel;
use continuous_experimentation::microsim::sim::Simulation;
use continuous_experimentation::microsim::workload::{EntryPoint, Workload};

const TEAMS: usize = 24;

/// Team `i`'s strategy: a 5% canary held to the error rate and the
/// response-time ratio, then a gradual rollout held to the error rate alone
/// (the baseline gets no traffic at 100%, so a relative check could never
/// conclude there).
fn canary_then_rollout(i: usize) -> String {
    let errors = "check error_rate < 0.05 over 1m every 30s min_samples 10";
    format!(
        r#"strategy "team{i:02}-canary" {{
  service "team{i:02}-svc"
  baseline "1.0.0"
  candidate "1.1.0"
  phase "canary" canary 5% for 10m {{
    {errors}
    check response_time vs_baseline < 1.5 over 1m every 30s min_samples 10
    on success goto "rollout"
    on failure rollback
    on inconclusive retry
  }}
  phase "rollout" gradual_rollout from 10% to 100% step 15% every 5m for 45m {{
    {errors}
    on success complete
    on failure rollback
    on inconclusive retry
  }}
}}"#
    )
}

fn fleet_app() -> Application {
    let mut b = Application::builder();
    for i in 0..TEAMS {
        b.version(
            VersionSpec::new(format!("team{i:02}-svc"), "1.0.0")
                .capacity(5_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(10.0))),
        );
        // Team 7 shipped a slow, flaky build.
        let candidate = if i == 7 {
            VersionSpec::new(format!("team{i:02}-svc"), "1.1.0")
                .capacity(5_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(40.0)).error_rate(0.2))
        } else {
            VersionSpec::new(format!("team{i:02}-svc"), "1.1.0")
                .capacity(5_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(9.0)))
        };
        b.version(candidate);
    }
    b.build().expect("fleet app is valid")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let app = fleet_app();

    // Each team writes the same strategy for its own service.
    let mut strategies =
        (0..TEAMS).map(|i| dsl::parse(&canary_then_rollout(i))).collect::<Result<Vec<_>, _>>()?;

    // Team 3 accidentally targets team 2's service — verification catches
    // the collision before anything is enacted.
    strategies[3].service = "team02-svc".into();
    let issues = verify(&app, &strategies);
    for issue in issues.iter().filter(|i| i.severity() == Severity::Error) {
        println!("verifier blocked launch: {issue}");
    }
    assert!(!is_launchable(&issues));
    strategies[3].service = "team03-svc".into();
    assert!(is_launchable(&verify(&app, &strategies)), "fixed fleet verifies");
    println!("fleet of {TEAMS} strategies verified\n");

    // One workload spanning every team's service.
    let entries = (0..TEAMS)
        .map(|i| EntryPoint {
            service: app.service_id(&format!("team{i:02}-svc")).expect("exists"),
            endpoint: "api".into(),
            weight: 1.0,
        })
        .collect();
    let workload = Workload {
        population: Population::single("all", 200_000),
        rate_rps: (TEAMS * 12) as f64,
        entries,
        profile: microsim::workload::RateProfile::Constant,
    };

    let mut sim = Simulation::new(app, 2026);
    let (report, journal) = Engine::default().execute_journaled(
        &mut sim,
        &strategies,
        &workload,
        SimDuration::from_hours(2),
    )?;

    let completed = report.statuses.iter().filter(|(_, s)| *s == StrategyStatus::Completed).count();
    let rolled_back: Vec<&str> = report
        .statuses
        .iter()
        .filter(|(_, s)| *s == StrategyStatus::RolledBack)
        .map(|(n, _)| n.as_str())
        .collect();
    println!(
        "executed {} strategies in parallel: {completed} completed, {} rolled back",
        TEAMS,
        rolled_back.len()
    );
    println!("rolled back: {rolled_back:?}");
    assert!(rolled_back.contains(&"team07-canary"), "the flaky build must be caught");

    // Journal summary: how long did each rollback take to trigger?
    for event in journal.events() {
        if let JournalEvent::Transition { time, strategy, to: State::RolledBack, .. } = event {
            println!("  {strategy}: rolled back after {}s of experiment time", time.as_secs());
        }
    }
    println!(
        "\nengine cost: {:.2}% CPU, mean tick processing {:?}",
        report.cpu_utilization() * 100.0,
        report.mean_tick_processing
    );
    Ok(())
}
