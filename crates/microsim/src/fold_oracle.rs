//! Test-only oracles for the trace → edge folds: the `BTreeMap::entry`
//! folds [`HealthAccumulator`] and [`BlameAccumulator`] made before their
//! edges moved into an [`EdgeTable`](crate::trace::EdgeTable), and the
//! level-by-level critical-path walk [`critical_sink`] replaced with one
//! pass — each driven beside the library over captured traces of every
//! corpus topology family and over searched hand-built ones.

use crate::app::{EndpointId, VersionId};
use crate::corpus::{
    faults_for, generate, workload_for, BlameAccumulator, BlameStats, FaultScenario, WorkloadKind,
    FAMILIES,
};
use crate::health::{critical_sink, EdgeStats, HealthAccumulator, HealthReport};
use crate::sim::Simulation;
use crate::trace::{EdgeKey, Span, SpanBook, SpanId, SpanStatus, Trace, TraceId};
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// The health fold as it was: one tree descent per span.
#[derive(Default)]
struct TreeHealth {
    edges: BTreeMap<EdgeKey, EdgeStats>,
    critical_sinks: BTreeMap<(VersionId, EndpointId), u64>,
    traces: u64,
    failed_traces: u64,
}

impl TreeHealth {
    fn observe_trace(&mut self, trace: &Trace) {
        let weight = u64::from(trace.weight);
        for hop in trace.hops().filter(|hop| !hop.span.dark) {
            self.edges.entry(hop.edge()).or_default().fold(hop.span, weight);
        }
        if let Some(sink) = critical_sink_by_level(trace) {
            *self.critical_sinks.entry((sink.version, sink.endpoint)).or_default() += weight;
        }
        self.traces += weight;
        if !trace.ok() {
            self.failed_traces += weight;
        }
    }
}

/// The critical-path walk as it was: every level rescans all spans for the
/// current span's children.
fn critical_sink_by_level(trace: &Trace) -> Option<&Span> {
    let mut current = trace.spans.first()?;
    loop {
        let next = trace
            .children_of(current.span)
            .filter(|s| !s.dark)
            .max_by(|a, b| a.end().cmp(&b.end()).then(b.span.0.cmp(&a.span.0)));
        match next {
            Some(child) => current = child,
            None => return Some(current),
        }
    }
}

/// The blame fold as it was: a tree descent per span, two fresh vectors
/// per trace.
fn tree_blame(traces: &[Trace]) -> BTreeMap<EdgeKey, BlameStats> {
    let mut edges: BTreeMap<EdgeKey, BlameStats> = BTreeMap::new();
    for trace in traces {
        let weight = u64::from(trace.weight);
        let mut child_ms = vec![0.0f64; trace.spans.len()];
        let mut child_failed = vec![false; trace.spans.len()];
        for hop in trace.hops().filter(|hop| !hop.span.dark) {
            if let Some((caller, _)) = hop.caller {
                child_ms[caller] += hop.span.duration.as_millis_f64();
                child_failed[caller] |= hop.span.status.failed();
            }
        }
        for hop in trace.hops().filter(|hop| !hop.span.dark && hop.span.status.executed()) {
            let stats = edges.entry(hop.edge()).or_default();
            stats.calls += weight;
            if hop.span.status.failed() && !child_failed[hop.index] {
                stats.blamed += weight;
            }
            let self_ms = (hop.span.duration.as_millis_f64() - child_ms[hop.index]).max(0.0);
            stats.self_latency.push_weighted(self_ms, weight);
        }
    }
    edges
}

/// Healthy then zone-outage traffic of one scenario per topology family.
fn captured() -> Vec<(String, Vec<Trace>, SpanBook, VersionId, VersionId)> {
    FAMILIES
        .iter()
        .map(|&family| {
            let scenario = generate(family, 5);
            let mut sim = Simulation::new(scenario.app.clone(), 17);
            sim.set_trace_sampling(1.0);
            scenario.canary_split(&mut sim, 0.3).unwrap();
            let workload = workload_for(&scenario, WorkloadKind::Bursty, 40.0);
            sim.run_with(SimDuration::from_secs(20), &workload);
            let until = sim.now() + SimDuration::from_secs(3_600);
            for fault in faults_for(&scenario, FaultScenario::ZoneOutage, sim.now(), until) {
                sim.inject_fault(fault);
            }
            sim.run_with(SimDuration::from_secs(20), &workload);
            let traces = sim.drain_traces();
            assert!(traces.len() > 800, "{}: {} traces", family.name(), traces.len());
            let name = family.name().to_string();
            (name, traces, sim.span_book(), scenario.baseline, scenario.candidate)
        })
        .collect()
}

fn span(id: u32, parent: Option<u32>, version: usize, endpoint: usize) -> Span {
    Span {
        span: SpanId(id),
        parent: parent.map(SpanId),
        version: VersionId(version),
        endpoint: EndpointId(endpoint),
        start: SimTime::from_millis(0),
        duration: SimDuration::from_millis(10),
        status: SpanStatus::Ok,
        attempt: 0,
        dark: false,
    }
}

/// The shapes a simulator never emits but a collector may be handed.
fn hand_built() -> Vec<Trace> {
    // One endpoint id served under two versions and called from three:
    // one table row, four edges.
    let two_versions = Trace::new(
        TraceId(1),
        vec![
            span(0, None, 0, 0),
            span(1, Some(0), 1, 3),
            span(2, Some(0), 2, 3),
            span(3, Some(1), 2, 3),
            span(4, Some(2), 2, 3),
        ],
    );
    // A parent id that names no span: an entry edge in every fold, nobody's
    // child on the critical path.
    let mut orphan = Trace::new(
        TraceId(2),
        vec![span(10, None, 0, 0), span(11, Some(10), 1, 1), span(12, Some(99), 2, 2)],
    );
    orphan.spans[2].duration = SimDuration::from_millis(500);
    // A dark subtree that ends last: off the edges and off the path, and
    // its primary sibling with the smaller id wins the tie on `end`.
    let mut dark = Trace::new(
        TraceId(3),
        vec![
            span(0, None, 0, 0),
            span(1, Some(0), 1, 1),
            span(2, Some(0), 1, 1),
            span(3, Some(0), 2, 2),
            span(4, Some(3), 1, 1),
        ],
    );
    dark.spans[3].dark = true;
    dark.spans[3].duration = SimDuration::from_millis(900);
    dark.spans[4].dark = true;
    dark.weight = 3;
    vec![two_versions, orphan, dark]
}

/// Seeded random span trees over a handful of versions and endpoints:
/// every status, retries, dark spans, orphans, ids that are not positions,
/// weights, and durations coarse enough that `end` ties are common.
fn searched(seed: u64, count: usize) -> Vec<Trace> {
    use SpanStatus::{Failed, Fallback, Ok, Shed, TimedOut};
    let mut rng = SplitMix64::new(seed);
    let mut pick = move |n: u64| rng.next_u64() % n;
    (0..count)
        .map(|t| {
            let first_id = if pick(3) == 0 { 1 + pick(20) as u32 } else { 0 };
            let len = 1 + pick(12) as u32;
            let spans = (0..len)
                .map(|i| {
                    let parent = match i {
                        0 => None,
                        _ if pick(20) == 0 => Some(first_id + len + 7),
                        _ => Some(first_id + pick(u64::from(i)) as u32),
                    };
                    let mut s = span(first_id + i, parent, pick(4) as usize, pick(5) as usize);
                    s.start = SimTime::from_millis(pick(4) * 10);
                    s.duration = SimDuration::from_millis(pick(4) * 10);
                    s.status = [Ok, Ok, Ok, Failed, TimedOut, Shed, Fallback][pick(7) as usize];
                    s.attempt = (pick(4) == 0) as u8;
                    s.dark = i > 0 && pick(7) == 0;
                    s
                })
                .collect();
            Trace { id: TraceId(t as u64), spans, weight: 1 + pick(3) as u32 }
        })
        .collect()
}

fn assert_folds_agree(traces: &[Trace], label: &str) {
    let mut tree = TreeHealth::default();
    let mut table = HealthAccumulator::new();
    for trace in traces {
        tree.observe_trace(trace);
        table.observe_trace(trace);
        // The public walk allocates its scratch; the accumulator reuses one
        // across traces of different lengths.
        let sink = critical_sink(trace).map(|s| s.span);
        assert_eq!(sink, critical_sink_by_level(trace).map(|s| s.span), "{label}: sink");
    }
    let listed: Vec<(&EdgeKey, &EdgeStats)> = table.edges().iter().collect();
    assert_eq!(listed, tree.edges.iter().collect::<Vec<_>>(), "{label}: health edges");
    assert_eq!(table.edges().len(), tree.edges.len(), "{label}");
    for (key, stats) in &tree.edges {
        assert_eq!(table.edges().get(key), Some(stats), "{label}: get {key:?}");
        let absent = EdgeKey { endpoint: EndpointId(key.endpoint.0 + 1_000), ..*key };
        assert_eq!(table.edges().get(&absent), None, "{label}");
    }
    assert_eq!(table.critical_sinks(), &tree.critical_sinks, "{label}: sinks");
    assert_eq!((table.traces(), table.failed_traces()), (tree.traces, tree.failed_traces));

    let tree = tree_blame(traces);
    let mut table = BlameAccumulator::new();
    traces.iter().for_each(|t| table.observe_trace(t));
    let columns = |(k, s): (&EdgeKey, &BlameStats)| (*k, s.calls, s.blamed, s.self_latency.clone());
    let listed: Vec<_> = table.edges().iter().map(columns).collect();
    assert_eq!(listed, tree.iter().map(columns).collect::<Vec<_>>(), "{label}: blame edges");
}

#[test]
fn table_folds_match_tree_folds_on_every_topology_family() {
    for (family, traces, ..) in captured() {
        assert_folds_agree(&traces, &family);
    }
}

#[test]
fn table_folds_match_tree_folds_on_hand_built_and_searched_traces() {
    let hand_built = hand_built();
    assert_folds_agree(&hand_built, "hand-built");
    // What each shape is there for.
    let mut acc = HealthAccumulator::new();
    acc.observe_trace(&hand_built[0]);
    let on_shared_endpoint =
        acc.edges().iter().filter(|(k, _)| k.endpoint == EndpointId(3)).count();
    assert_eq!(on_shared_endpoint, 4, "one endpoint id, two versions, three callers");
    assert_eq!(critical_sink(&hand_built[1]).unwrap().span, SpanId(11), "orphan is off the path");
    assert_eq!(critical_sink(&hand_built[2]).unwrap().span, SpanId(1), "dark is off the path");
    for seed in 0..8 {
        assert_folds_agree(&searched(seed, 400), &format!("searched seed {seed}"));
    }
}

#[test]
fn order_of_edge_discovery_reaches_no_report_byte() {
    for (family, traces, book, baseline, candidate) in captured() {
        let fold = |traces: &mut dyn Iterator<Item = &Trace>| {
            let mut acc = HealthAccumulator::new();
            acc.observe_all(traces);
            acc
        };
        let forward = fold(&mut traces.iter());
        // The outage half first, then the healthy half backwards: other
        // edges are met first, so other slots are handed out.
        let (healthy, faulted) = traces.split_at(traces.len() / 2);
        let shuffled = fold(&mut faulted.iter().chain(healthy.iter().rev()));
        assert_eq!(forward.edges(), shuffled.edges(), "{family}");
        assert_eq!(forward.state_bytes(), shuffled.state_bytes(), "{family}");
        let report = |acc| HealthReport::build(acc, &book, baseline, candidate);
        assert_eq!(report(&forward), report(&shuffled), "{family}");
        assert_eq!(report(&forward).render(), report(&shuffled).render(), "{family}");
    }
}
