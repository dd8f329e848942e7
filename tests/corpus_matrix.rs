//! The corpus-wide robustness matrix: every (topology family × workload
//! shape × fault scenario × strategy) cell must satisfy three properties:
//!
//! 1. **Localization** — comparing a healthy trace window against the
//!    faulted one, the corpus localizer ranks an edge into the faulted
//!    version (or faulted zone) first (`microsim::corpus::localize`), and
//!    the whole ranking scores at least the family's recorded nDCG@5
//!    against the fault's victims (EXPERIMENTS.md § "Localizer nDCG").
//! 2. **Containment** — with the standard resilience policy guarding
//!    every edge, the app-level error rate over the fault window stays
//!    under the chaos-recovery bound and the strategy completes.
//! 3. **Determinism** — the execution journal is byte-identical across
//!    two runs of the cell with the same seed.
//!
//! The sweep is split into one test per topology family so the four
//! quarters of the matrix run in parallel under `cargo test`.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, StrategyStatus};
use cex_core::metrics::MetricKind;
use cex_core::simtime::{SimDuration, SimTime};
use microsim::corpus::{
    self, BlameAccumulator, FaultScenario, Scenario, TopologyFamily, WorkloadKind, FAULTS,
    WORKLOADS,
};
use microsim::resilience::{BreakerPolicy, CallPolicy};
use microsim::sim::APP_SCOPE;
use microsim::Simulation;
use topology::rank::{ndcg_at, Ranking};

/// App-level error-rate ceiling over the fault window — the containment
/// bound every chaos-recovery cell must respect.
const CONTAINMENT_BOUND: f64 = 0.08;

/// Strategy kinds swept per cell (the DSL phase declaration).
const STRATEGIES: [(&str, &str); 3] = [
    ("canary", "canary 25%"),
    ("ab_test", "ab_test 50%"),
    ("gradual", "gradual_rollout from 20% to 80% step 30% every 40s"),
];

/// The fault window inside each strategy phase: `[20s, 70s)`.
const FAULT_FROM: SimTime = SimTime::from_secs(20);
const FAULT_UNTIL: SimTime = SimTime::from_secs(70);

fn matrix_policy() -> CallPolicy {
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

/// The DSL inject clause realising one corpus fault scenario.
fn inject_clause(scenario: &Scenario, fault: FaultScenario) -> String {
    match fault {
        FaultScenario::CandidateOutage => "inject outage on candidate after 20s for 50s".into(),
        FaultScenario::CandidateErrorBurst => {
            "inject error_burst 0.85 on candidate after 20s for 50s".into()
        }
        FaultScenario::CandidateLatencySpike => {
            "inject latency_spike 6 on candidate after 20s for 50s".into()
        }
        FaultScenario::ZoneOutage => {
            format!("inject zone_outage \"{}\" after 20s for 50s", scenario.fault_zone)
        }
        FaultScenario::LatencyStorm => {
            format!("inject latency_storm 6 on zone \"{}\" after 20s for 50s", scenario.fault_zone)
        }
    }
}

fn strategy_src(scenario: &Scenario, phase_decl: &str, fault: FaultScenario) -> String {
    let service = scenario.app.service_name(scenario.experiment_service);
    format!(
        r#"strategy "cell" {{
            service "{service}" baseline "1.0.0" candidate "2.0.0"
            phase "run" {phase_decl} for 120s {{
              {inject}
              check error_rate app < {CONTAINMENT_BOUND} over 40s every 20s min_samples 8
              on success complete
              on failure rollback
            }}
        }}"#,
        inject = inject_clause(scenario, fault),
    )
}

/// One engine execution of a cell: returns the terminal status, the
/// serialized journal and the app error rate over the fault window.
fn run_cell(scenario: &Scenario, kind: WorkloadKind, src: &str) -> (StrategyStatus, String, f64) {
    let wl = corpus::workload_for(scenario, kind, 8.0);
    let mut sim = Simulation::new(scenario.app.clone(), 4242);
    sim.set_call_policy(matrix_policy());
    let strategy = dsl::parse(src).expect("cell strategy parses");
    let engine = Engine::new(EngineConfig::default());
    let (report, journal) = engine
        .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_secs(180))
        .expect("cell executes");
    let summary =
        sim.store().summary_between(APP_SCOPE, MetricKind::ErrorRate, FAULT_FROM, FAULT_UNTIL);
    (report.statuses[0].1.clone(), journal.to_jsonl(), summary.mean)
}

/// Property 1: the localizer pins the fault. Healthy window, then the
/// fault scenario's windows, then a faulted window; the top-ranked edge
/// must terminate at a faulted version. Returns the ranking's nDCG@5 with
/// relevance 1 for every edge into a faulted version.
fn assert_localizes(
    scenario: &Scenario,
    kind: WorkloadKind,
    fault: FaultScenario,
    label: &str,
) -> f64 {
    let mut sim = Simulation::new(scenario.app.clone(), 777);
    sim.set_trace_sampling(1.0);
    scenario.canary_split(&mut sim, 0.3).expect("canary split");
    let wl = corpus::workload_for(scenario, kind, 12.0);
    let window = SimDuration::from_secs(40);

    sim.run_with(window, &wl);
    let mut healthy = BlameAccumulator::new();
    for trace in sim.drain_traces() {
        healthy.observe_trace(&trace);
    }

    for fault_window in corpus::faults_for(scenario, fault, sim.now(), sim.now() + window) {
        sim.inject_fault(fault_window);
    }
    sim.run_with(window, &wl);
    let mut faulted = BlameAccumulator::new();
    for trace in sim.drain_traces() {
        faulted.observe_trace(&trace);
    }

    let ranked = corpus::localize(&healthy, &faulted);
    let top = ranked.first().unwrap_or_else(|| panic!("{label}: no edges ranked"));
    assert!(top.1 > 0.0, "{label}: top-ranked edge shows no degradation");
    let victims = corpus::fault_victims(scenario, fault);
    assert!(
        victims.contains(&top.0.callee),
        "{label}: localizer blamed {} (score {:.1}), expected one of {:?}",
        scenario.app.version_label(top.0.callee),
        top.1,
        victims.iter().map(|v| scenario.app.version_label(*v)).collect::<Vec<_>>(),
    );
    let relevance: Vec<f64> =
        ranked.iter().map(|(edge, _)| f64::from(victims.contains(&edge.callee))).collect();
    let ranking = Ranking {
        order: (0..ranked.len()).collect(),
        scores: ranked.iter().map(|(_, score)| *score).collect(),
    };
    ndcg_at(&ranking, &relevance, 5)
}

/// Sweeps one family's quarter of the matrix: 4 workloads × 5 faults ×
/// 3 strategies = 60 cells (localization is per workload × fault — the
/// mini-sim is strategy-independent — containment and journal identity
/// are per cell). `ndcg_floor` is the lowest nDCG@5 any of the family's
/// cells scored when the table in EXPERIMENTS.md was recorded, to the
/// table's four decimals; the runs are seeded, so a lower score means the
/// localizer's ranking changed.
fn sweep_family(family: TopologyFamily, ndcg_floor: f64) {
    let scenario = corpus::generate(family, 41);
    let mut cells = 0usize;
    let mut worst_ndcg = f64::INFINITY;
    for kind in WORKLOADS {
        for fault in FAULTS {
            let label = format!("{}/{}/{}", family.name(), kind.name(), fault.name());
            let ndcg = assert_localizes(&scenario, kind, fault, &label);
            // `-- --nocapture` prints the table EXPERIMENTS.md records.
            println!("ndcg@5 {label} {ndcg:.4}");
            worst_ndcg = worst_ndcg.min(ndcg);
            for (strategy_name, phase_decl) in STRATEGIES {
                let label = format!("{label}/{strategy_name}");
                let src = strategy_src(&scenario, phase_decl, fault);
                let (status, journal_1, fault_err) = run_cell(&scenario, kind, &src);
                assert_eq!(
                    status,
                    StrategyStatus::Completed,
                    "{label}: resilience must carry the experiment through the fault",
                );
                assert!(
                    fault_err < CONTAINMENT_BOUND,
                    "{label}: app error rate {fault_err:.4} over the fault window breaches \
                     the containment bound {CONTAINMENT_BOUND}",
                );
                let (_, journal_2, _) = run_cell(&scenario, kind, &src);
                assert_eq!(journal_1, journal_2, "{label}: journal must be byte-identical");
                cells += 1;
            }
        }
    }
    assert_eq!(cells, WORKLOADS.len() * FAULTS.len() * STRATEGIES.len());
    assert!(
        worst_ndcg + 5e-5 >= ndcg_floor,
        "{}: worst cell nDCG@5 {worst_ndcg:.4} fell below the recorded {ndcg_floor:.4}",
        family.name(),
    );
}

#[test]
fn deep_chain_quarter_of_the_matrix_holds() {
    sweep_family(TopologyFamily::DeepChain, 0.7877);
}

#[test]
fn wide_fanout_quarter_of_the_matrix_holds() {
    sweep_family(TopologyFamily::WideFanout, 1.0);
}

#[test]
fn hub_and_spoke_quarter_of_the_matrix_holds() {
    sweep_family(TopologyFamily::HubAndSpoke, 1.0);
}

#[test]
fn cell_partition_quarter_of_the_matrix_holds() {
    sweep_family(TopologyFamily::CellPartition, 0.6992);
}
