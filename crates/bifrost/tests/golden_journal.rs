//! Golden journal: the serialized bytes of one small fleet run, pinned to
//! a constant.
//!
//! Every other journal-identity test compares two runs of the *same*
//! binary, so none of them fails when a refactor reorders two events or
//! drops one. This one does: the digest below was computed once and any
//! change to what the engine journals, or in which order, moves it. The
//! fleet is chosen to walk every journaling path of the control loop —
//! phase 0 entry, a transition into a guarded ramp with a sequential
//! check (advance, retreat and hold decisions, an early promotion and an
//! early abort), a chaos-bearing phase that is re-armed by an
//! inconclusive retry before the retry budget rolls it back, boundary
//! checks with health snapshots, retired scopes and the runtime cadence.
//!
//! If the digest moves because the journal format changed on purpose,
//! say so in the change that moves it and re-pin the constant.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, ExecutionReport, StrategyStatus};
use bifrost::journal::{Journal, Name};
use bifrost::JournalEvent;
use cex_core::simtime::SimDuration;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::sim::Simulation;
use microsim::workload::{EntryPoint, RateProfile, Workload};
use std::time::Duration;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3))
}

const FLEET: &str = r#"
runtime { report_every 6 }

strategy "good" {
  service "good" baseline "1.0.0" candidate "2.0.0"
  phase "canary" canary 30% for 4m {
    check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
    on success goto "ramp"
    on failure rollback
  }
  phase "ramp" ramp from 30% to 100% step 35% every 1m guarded for 6m {
    check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
    check response_time < 100 over 1m every 1m min_samples 5
    on success complete
    on failure rollback
  }
}

strategy "bad" {
  service "bad" baseline "1.0.0" candidate "2.0.0"
  phase "canary" canary 10% for 1m {
    check error_rate < 0.9 over 1m every 30s min_samples 1
    on success goto "ramp"
    on failure rollback
  }
  phase "ramp" ramp from 10% to 100% step 30% every 1m guarded for 40m {
    check error_rate sequential vs baseline < confidence 0.999 every 30s min_samples 20
    on success complete
    on failure rollback
  }
}

strategy "starved" {
  service "starved" baseline "1.0.0" candidate "2.0.0"
  phase "chaos" canary 20% for 2m {
    inject latency_spike 3 on candidate after 30s for 1m
    check error_rate < 0.1 over 1m every 30s min_samples 1000000
    on success complete
    on failure rollback
    on inconclusive retry
  }
}
"#;

fn fleet_app() -> Application {
    let mut b = Application::builder();
    for (service, baseline_err, candidate_err) in
        [("good", 0.3, 0.05), ("bad", 0.1, 0.13), ("starved", 0.0, 0.0)]
    {
        for (version, err) in [("1.0.0", baseline_err), ("2.0.0", candidate_err)] {
            b.version(VersionSpec::new(service, version).capacity(10_000.0).endpoint(
                EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(err),
            ));
        }
    }
    b.build().unwrap()
}

/// The golden fleet, run journaled.
fn run_fleet() -> (ExecutionReport, Journal) {
    let app = fleet_app();
    let entries = ["good", "bad", "starved"]
        .iter()
        .map(|s| EntryPoint {
            service: app.service_id(s).unwrap(),
            endpoint: "api".into(),
            weight: 1.0,
        })
        .collect();
    let wl = Workload {
        population: cex_core::users::Population::single("all", 50_000),
        rate_rps: 90.0,
        entries,
        profile: RateProfile::Constant,
    };
    let (strategies, runtime) = dsl::parse_fleet(FLEET).unwrap();
    let mut config = EngineConfig { max_retries: 2, ..Default::default() };
    runtime.apply(&mut config);
    let mut sim = Simulation::new(app, 20_171_211);
    sim.set_trace_sampling(1.0);
    Engine::new(config)
        .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(45))
        .unwrap()
}

#[test]
fn journal_bytes_of_the_golden_fleet_are_pinned() {
    let (report, journal) = run_fleet();

    // The run really walks the paths the digest is meant to guard.
    let statuses: Vec<&StrategyStatus> = report.statuses.iter().map(|(_, s)| s).collect();
    assert_eq!(
        statuses,
        [&StrategyStatus::Completed, &StrategyStatus::RolledBack, &StrategyStatus::RolledBack]
    );
    let events = journal.events();
    let count = |pred: fn(&JournalEvent) -> bool| events.iter().filter(|e| pred(e)).count();
    assert_eq!(
        count(|e| matches!(e, JournalEvent::Chaos { .. })),
        2,
        "armed on entry and on retry"
    );
    assert!(count(|e| matches!(e, JournalEvent::Ramp { decision: "advance", .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::Ramp { decision: "retreat", .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::Ramp { decision: "hold", .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::EarlyStop { .. })) >= 2);
    assert!(count(|e| matches!(e, JournalEvent::Check { boundary: true, .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::HealthSnapshot { .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::ScopeCleared { .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::Runtime { .. })) > 0);
    assert!(count(|e| matches!(e, JournalEvent::Transition { from, to, .. } if from == to)) == 1);

    let text = journal.to_jsonl();
    let digest = fnv1a(text.as_bytes());
    assert_eq!(
        (events.len(), text.len(), format!("{digest:016x}")),
        (190, 34790, "e3be3f21f499521d".to_string()),
        "the golden fleet's journal changed"
    );

    // The reader gives the journal back, less the wall-clock busy times
    // that are never written, and writing it again gives the same bytes.
    let back = Journal::from_jsonl(&text).unwrap();
    let unbusied: Vec<JournalEvent> = events
        .iter()
        .map(|event| {
            let mut event = event.clone();
            if let JournalEvent::Tick { busy, .. } = &mut event {
                *busy = Duration::ZERO;
            }
            event
        })
        .collect();
    assert_eq!(back.events(), unbusied.as_slice());
    assert_eq!(back.to_jsonl(), text);
}

#[test]
fn a_parsed_fleet_journal_shares_one_handle_per_name() {
    // Recorded or read back, every event of a strategy holds one handle
    // for its name, and every event of one of its phases one for the
    // phase's.
    let (_, journal) = run_fleet();
    let back = Journal::from_jsonl(&journal.to_jsonl()).unwrap();
    for journal in [&journal, &back] {
        let mut first: Vec<(&str, &Name)> = Vec::new();
        let mut shared = 0;
        for event in journal.events() {
            let (strategy, phase) = match event {
                JournalEvent::Check { strategy, phase, .. }
                | JournalEvent::Enacted { strategy, phase, .. }
                | JournalEvent::Ramp { strategy, phase, .. } => (strategy, Some(phase)),
                JournalEvent::Transition { strategy, .. } => (strategy, None),
                _ => continue,
            };
            for name in std::iter::once(strategy).chain(phase) {
                match first.iter().find(|(of, known)| *of == &**strategy && *known == name) {
                    Some((_, known)) => {
                        assert!(Name::ptr_eq(known, name), "{strategy}: {name} held twice");
                        shared += 1;
                    }
                    None => first.push((strategy, name)),
                }
            }
        }
        // Three strategies, two phases each but "starved"'s one.
        assert_eq!(first.len(), 8, "{first:?}");
        assert!(shared > 100, "{shared} names shared");
    }
    // The reader keeps one handle per distinct name across strategies too.
    let canaries = back.events().iter().filter_map(|event| match event {
        JournalEvent::Check { phase, .. } if phase == "canary" => Some(phase),
        _ => None,
    });
    let canaries: Vec<&Name> = canaries.collect();
    assert!(canaries.len() > 2 && canaries.iter().all(|c| Name::ptr_eq(c, canaries[0])));
}
