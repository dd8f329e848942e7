//! Differential tests: the indexed diff → classify → rank path against the
//! scans it replaced ([`classify_by_scan`], [`by_scan`],
//! `InteractionGraph::find_unversioned_by_scan`), on inputs that can tell
//! them apart.

use crate::changes::{classify, classify_by_scan, ChangeType};
use crate::diff::{Status, TopologicalDiff};
use crate::graph::{Granularity, InteractionGraph, NodeIdx, NodeKey};
use crate::heuristics::{all_variants, by_scan, AnalysisContext};
use crate::perf::{generate_pair, PerfParams};
use crate::rank::rank;
use cex_core::rng::SplitMix64;
use cex_core::simtime::SimDuration;
use std::collections::{HashMap, HashSet};

/// Asserts that diff, classify and all six rankings of the pair equal what
/// the scans return: changes element for element, scores bit for bit (a
/// `Ranking`'s order is a function of its scores alone).
fn assert_equals_the_scans(baseline: &InteractionGraph, experimental: &InteractionGraph, at: &str) {
    let diff = TopologicalDiff::compute(baseline, experimental);
    assert_diff_order(baseline, experimental, &diff);
    let changes = classify(&diff);
    assert_eq!(changes, classify_by_scan(&diff), "{at}: classify");

    let ctx = AnalysisContext { baseline, experimental, diff: &diff };
    for (variant, expected) in all_variants().iter().zip(by_scan::all_variants(&ctx, &changes)) {
        let got = rank(variant.as_ref(), &ctx, &changes);
        let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.scores), bits(&expected), "{at}: {}", variant.name());
    }
}

/// The order `TopologicalDiff::compute` promises, stated from the graphs'
/// key sets alone: baseline elements first in baseline order, then what
/// only the experimental variant has, in its order.
fn assert_diff_order(
    baseline: &InteractionGraph,
    experimental: &InteractionGraph,
    diff: &TopologicalDiff,
) {
    let status = |in_baseline: bool, in_experimental: bool| match (in_baseline, in_experimental) {
        (true, true) => Status::Common,
        (true, false) => Status::Removed,
        _ => Status::Added,
    };
    let mut nodes: Vec<(&NodeKey, Status)> = baseline
        .nodes()
        .map(|n| (baseline.key(n), status(true, experimental.node(baseline.key(n)).is_some())))
        .collect();
    let added = experimental.nodes().map(|n| experimental.key(n));
    nodes.extend(added.filter(|k| baseline.node(k).is_none()).map(|k| (k, Status::Added)));
    let got: Vec<(&NodeKey, Status)> = diff.nodes.iter().map(|n| (&n.key, n.status)).collect();
    assert_eq!(got, nodes);

    type Edge<'a> = (&'a NodeKey, &'a NodeKey);
    fn edges_of(g: &InteractionGraph) -> Vec<Edge<'_>> {
        let calls = |from: NodeIdx| g.out_edges(from).iter().map(move |(to, _)| (from, *to));
        g.nodes().flat_map(calls).map(|(from, to)| (g.key(from), g.key(to))).collect()
    }
    let (before, after) = (edges_of(baseline), edges_of(experimental));
    let (in_before, in_after): (HashSet<Edge>, HashSet<Edge>) =
        (before.iter().copied().collect(), after.iter().copied().collect());
    let mut edges: Vec<(Edge, Status)> =
        before.iter().map(|e| (*e, status(true, in_after.contains(e)))).collect();
    edges.extend(after.iter().filter(|e| !in_before.contains(*e)).map(|e| (*e, Status::Added)));
    let got: Vec<(Edge, Status)> = diff
        .edges
        .iter()
        .map(|e| ((&diff.nodes[e.from].key, &diff.nodes[e.to].key), e.status))
        .collect();
    assert_eq!(got, edges);
}

fn sweep_generated_pairs(endpoints: usize) {
    for change_fraction in [0.05, 0.2, 0.6] {
        for seed in 0..8 {
            let params = PerfParams { endpoints, change_fraction, ..PerfParams::default() };
            let (baseline, experimental) = generate_pair(&params, seed);
            let at = format!("{endpoints} endpoints, {change_fraction} changed, seed {seed}");
            assert_equals_the_scans(&baseline, &experimental, &at);
        }
    }
}

#[test]
fn generated_pairs_at_120_endpoints_equal_the_scans() {
    sweep_generated_pairs(120);
}

#[test]
fn generated_pairs_at_2000_endpoints_equal_the_scans() {
    sweep_generated_pairs(2_000);
}

/// A layered pair in which a share of the services runs `1.0.0` and `2.0.0`
/// side by side in *both* graphs, each version with out-edges of its own —
/// the shape `build_graph` yields under a canary, and one `generate_pair`
/// never produces. Several removed edges then share one `(caller pair,
/// callee pair)` group, and equal `served` counts across versions occur.
fn multi_version_pair(seed: u64) -> (InteractionGraph, InteractionGraph) {
    const SERVICES: usize = 36;
    const LAYERS: usize = 4;
    const ENDPOINTS: usize = 3;
    const VERSIONS: [&str; 2] = ["1.0.0", "2.0.0"];
    let mut rng = SplitMix64::new(seed);
    let mut draw = |n: usize| (rng.next_f64() * n as f64) as usize % n;

    // Per service, the versions (indices into VERSIONS) each variant runs.
    let deployed: Vec<[&[usize]; 2]> = (0..SERVICES)
        .map(|_| match draw(10) {
            0..=3 => [&[0][..], &[0][..]],   // untouched
            4..=5 => [&[0][..], &[1][..]],   // bumped
            6 => [&[0][..], &[0, 1][..]],    // canary starts
            _ => [&[0, 1][..], &[0, 1][..]], // canary running in both
        })
        .collect();
    let mut calls: Vec<((usize, usize), (usize, usize))> = Vec::new();
    for svc in (0..SERVICES).filter(|svc| svc % LAYERS + 1 < LAYERS) {
        for ep in 0..ENDPOINTS {
            for _ in 0..3 {
                // A callee one layer down.
                let callee = (draw(SERVICES / LAYERS) * LAYERS) + svc % LAYERS + 1;
                calls.push(((svc, ep), (callee, draw(ENDPOINTS))));
            }
        }
    }
    calls.sort_unstable();
    calls.dedup();

    let mut emit = |variant: usize| {
        let mut g = InteractionGraph::new();
        let key = |svc: usize, version: usize, ep: usize| {
            NodeKey::new(format!("svc-{svc:02}"), VERSIONS[version], format!("ep{ep}"))
        };
        for (svc, versions) in deployed.iter().enumerate() {
            for (version, ep) in
                versions[variant].iter().flat_map(|v| (0..ENDPOINTS).map(|e| (*v, e)))
            {
                let node = g.intern(key(svc, version, ep));
                // Two or three hops each: versions of a pair often tie.
                for _ in 0..2 + draw(2) {
                    g.observe_node(
                        node,
                        SimDuration::from_millis(2 + draw(30) as u64),
                        draw(8) > 0,
                    );
                }
            }
        }
        for ((fs, fe), (ts, te)) in &calls {
            for from in deployed[*fs][variant] {
                for to in deployed[*ts][variant] {
                    // Calls between untouched services rarely move; a version
                    // under experiment makes roughly half of its callers' calls.
                    let stable = deployed[*fs] == [&[0][..]; 2] && deployed[*ts] == [&[0][..]; 2];
                    if draw(20) < if stable { 19 } else { 11 } {
                        let (from, to) =
                            (g.intern(key(*fs, *from, *fe)), g.intern(key(*ts, *to, *te)));
                        g.observe_edge(from, to);
                    }
                }
            }
        }
        g
    };
    (emit(0), emit(1))
}

/// Removed edges per `(caller pair, callee pair)` group.
fn removed_group_sizes(diff: &TopologicalDiff) -> Vec<usize> {
    let mut groups: HashMap<_, usize> = HashMap::new();
    for (_, edge) in diff.edges_with(Status::Removed) {
        let group =
            (diff.nodes[edge.from].key.unversioned(), diff.nodes[edge.to].key.unversioned());
        *groups.entry(group).or_default() += 1;
    }
    groups.into_values().collect()
}

#[test]
fn multi_version_pairs_equal_the_scans() {
    let mut shared_groups = 0;
    for seed in 0..24 {
        let (baseline, experimental) = multi_version_pair(seed);
        let diff = TopologicalDiff::compute(&baseline, &experimental);
        shared_groups += removed_group_sizes(&diff).iter().filter(|n| **n >= 2).count();
        assert_equals_the_scans(&baseline, &experimental, &format!("multi-version seed {seed}"));
        for graph in [&baseline, &experimental] {
            assert_index_equals_the_scan(graph);
            assert_index_equals_the_scan(&graph.aggregate(Granularity::Version));
            assert_index_equals_the_scan(&graph.aggregate(Granularity::Service));
        }
    }
    // The input is only worth its name if the pairing has a choice to make.
    assert!(shared_groups >= 100, "{shared_groups} groups with several removed edges");
}

/// `find_unversioned` answers from the index what the scan answers, for
/// every pair in the graph and one that is not.
fn assert_index_equals_the_scan(graph: &InteractionGraph) {
    for n in graph.nodes() {
        let (service, endpoint) = graph.key(n).unversioned();
        let found = graph.find_unversioned(service, endpoint);
        assert_eq!(found, graph.find_unversioned_by_scan(service, endpoint), "{}", graph.key(n));
        assert!(found.is_some());
    }
    assert_eq!(graph.find_unversioned("svc-00", "no such endpoint"), None);
    assert_eq!(graph.find_unversioned("no such service", "ep0"), None);
}

/// One match's `swap_remove` moves a later edge of another group in front
/// of an earlier edge of that group; the next match must take the moved
/// one, as a scan of `removed` as it now stands would.
#[test]
fn a_moved_edge_is_found_where_swap_remove_put_it() {
    let node = |g: &mut InteractionGraph, s: &str, v: &str| g.intern(NodeKey::new(s, v, "e"));
    let mut b = InteractionGraph::new();
    let (p, q) = (node(&mut b, "p", "1"), node(&mut b, "q", "1"));
    let (c1, c2, d) = (node(&mut b, "c", "1"), node(&mut b, "c", "2"), node(&mut b, "d", "1"));
    b.observe_edge(p, q); // removed[0], group (p, q)
    b.observe_edge(c1, d); // removed[1], group (c, d)
    b.observe_edge(c2, d); // removed[2], group (c, d)

    let mut e = InteractionGraph::new();
    let (p, q) = (node(&mut e, "p", "1"), node(&mut e, "q", "2"));
    let (c2, d) = (node(&mut e, "c", "2"), node(&mut e, "d", "3"));
    node(&mut e, "c", "1");
    e.observe_edge(p, q); // pairs with removed[0]; c@2 -> d@1 moves to the front
    e.observe_edge(c2, d); // pairs with it: the caller kept its version

    let diff = TopologicalDiff::compute(&b, &e);
    assert_eq!(removed_group_sizes(&diff).iter().max(), Some(&2));
    let changes = classify(&diff);
    let summary: Vec<(ChangeType, String)> =
        changes.iter().map(|c| (c.kind, format!("{} -> {}", c.caller, c.callee))).collect();
    assert_eq!(
        summary,
        vec![
            (ChangeType::UpdatedCalleeVersion, "p@1/e -> q@2/e".to_string()),
            (ChangeType::UpdatedCalleeVersion, "c@2/e -> d@3/e".to_string()),
            (ChangeType::RemovingServiceCall, "c@1/e -> d@1/e".to_string()),
        ]
    );
    assert_eq!(changes, classify_by_scan(&diff));
}
