//! Figure 4.6 (replay) — regenerating the check-verdict trace from an
//! execution journal instead of a live run.
//!
//! The journal is Bifrost's provenance record: every check evaluation is
//! stored with the window summaries it read and the verdict it produced.
//! This bin runs the paper's four-phase strategy once with journaling
//! enabled, serializes the journal to line-delimited JSON, parses it
//! back, and rebuilds the Figure 4.6 material — the per-check verdict
//! trace and the phase timeline — purely from the serialized journal.
//! Nothing is re-simulated on the replay side.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig};
use bifrost::journal::Journal;
use cex_bench::header;
use cex_core::simtime::SimDuration;
use cex_core::users::Population;
use microsim::app::{CallDef, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::routing::Router;
use microsim::sim::Simulation;
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

fn main() {
    header("Figure 4.6 (replay) — check-verdict trace regenerated from the journal");

    // Live run, journaled.
    let app = topologies::case_study_app();
    let wl = workload(&app);
    let mut sim = Simulation::new(app, 11);
    sim.set_router(Router::with_proxy_overhead(SimDuration::from_millis(2)));
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
    let strategy = dsl::parse(STRATEGY).expect("strategy parses");
    let engine = Engine::new(EngineConfig::default());
    let (report, journal) = engine
        .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(40))
        .expect("execution succeeds");
    println!(
        "live run: {:?} after {} ticks, {} journal events\n",
        report.statuses[0].1,
        report.ticks,
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
