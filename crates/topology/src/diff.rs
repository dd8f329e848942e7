//! The topological difference of two application variants (Section 5.5.1).
//!
//! A [`TopologicalDiff`] unions the node and edge sets of the baseline and
//! experimental interaction graphs and marks each element as *removed*
//! (baseline only), *added* (experimental only), or *common*. The research
//! prototype's UI colours exactly this structure (red/green/yellow,
//! Figure 1.3); the change classifier of [`crate::changes`] consumes it.

use crate::graph::{EdgeStats, InteractionGraph, NodeIdx, NodeKey, NodeStats};

/// Presence status of a diff element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// Only in the experimental variant.
    Added,
    /// Only in the baseline variant.
    Removed,
    /// Present in both.
    Common,
}

/// One node of the topological difference.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffNode {
    /// The endpoint identity.
    pub key: NodeKey,
    /// Presence status.
    pub status: Status,
    /// Stats observed in the baseline variant.
    pub baseline: Option<NodeStats>,
    /// Stats observed in the experimental variant.
    pub experimental: Option<NodeStats>,
}

/// One edge of the topological difference, indexing into
/// [`TopologicalDiff::nodes`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEdge {
    /// Caller node index.
    pub from: usize,
    /// Callee node index.
    pub to: usize,
    /// Presence status.
    pub status: Status,
    /// Edge stats in the baseline variant.
    pub baseline: Option<EdgeStats>,
    /// Edge stats in the experimental variant.
    pub experimental: Option<EdgeStats>,
}

/// The topological difference of baseline vs experimental.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TopologicalDiff {
    /// Union of both variants' nodes.
    pub nodes: Vec<DiffNode>,
    /// Union of both variants' edges.
    pub edges: Vec<DiffEdge>,
}

impl TopologicalDiff {
    /// Computes the difference of two interaction graphs.
    ///
    /// Order is part of the result ([`crate::changes::classify`] and the
    /// rankers' tie-break inherit it): baseline node *n* is diff node *n*,
    /// nodes only the experimental variant has follow in its order; edges
    /// likewise, the baseline's by caller first.
    pub fn compute(baseline: &InteractionGraph, experimental: &InteractionGraph) -> Self {
        let mut nodes: Vec<DiffNode> = baseline
            .nodes()
            .map(|n| DiffNode {
                key: baseline.key(n).clone(),
                status: Status::Removed,
                baseline: Some(*baseline.stats(n)),
                experimental: None,
            })
            .collect();
        // Experimental node -> diff node, through the baseline's own index.
        let translation: Vec<usize> = experimental
            .nodes()
            .map(|n| {
                let key = experimental.key(n);
                let stats = Some(*experimental.stats(n));
                match baseline.node(key) {
                    Some(common) => {
                        nodes[common.0].status = Status::Common;
                        nodes[common.0].experimental = stats;
                        common.0
                    }
                    None => {
                        nodes.push(DiffNode {
                            key: key.clone(),
                            status: Status::Added,
                            baseline: None,
                            experimental: stats,
                        });
                        nodes.len() - 1
                    }
                }
            })
            .collect();

        // A baseline caller's edges sit together, from `first_edge[caller]`,
        // in the order of its `out_edges`.
        let mut edges: Vec<DiffEdge> = Vec::new();
        let mut first_edge: Vec<usize> = Vec::with_capacity(baseline.node_count());
        for from in baseline.nodes() {
            first_edge.push(edges.len());
            edges.extend(baseline.out_edges(from).iter().map(|(to, stats)| DiffEdge {
                from: from.0,
                to: to.0,
                status: Status::Removed,
                baseline: Some(*stats),
                experimental: None,
            }));
        }
        for from in experimental.nodes() {
            let f = translation[from.0];
            for (to, stats) in experimental.out_edges(from) {
                let t = translation[to.0];
                let common = first_edge.get(f).and_then(|first| {
                    let calls = baseline.out_edges(NodeIdx(f));
                    calls.iter().position(|(callee, _)| callee.0 == t).map(|i| first + i)
                });
                match common {
                    Some(i) => {
                        edges[i].status = Status::Common;
                        edges[i].experimental = Some(*stats);
                    }
                    None => edges.push(DiffEdge {
                        from: f,
                        to: t,
                        status: Status::Added,
                        baseline: None,
                        experimental: Some(*stats),
                    }),
                }
            }
        }
        TopologicalDiff { nodes, edges }
    }

    /// Nodes with the given status.
    pub fn nodes_with(&self, status: Status) -> impl Iterator<Item = (usize, &DiffNode)> {
        self.nodes.iter().enumerate().filter(move |(_, n)| n.status == status)
    }

    /// Edges with the given status.
    pub fn edges_with(&self, status: Status) -> impl Iterator<Item = (usize, &DiffEdge)> {
        self.edges.iter().enumerate().filter(move |(_, e)| e.status == status)
    }

    /// `true` when the variants have identical topology (all elements
    /// common).
    pub fn is_unchanged(&self) -> bool {
        self.nodes.iter().all(|n| n.status == Status::Common)
            && self.edges.iter().all(|e| e.status == Status::Common)
    }

    /// Fraction of elements that changed (nodes + edges) — the "change
    /// frequency" axis of Figure 5.10.
    pub fn change_fraction(&self) -> f64 {
        let total = self.nodes.len() + self.edges.len();
        if total == 0 {
            return 0.0;
        }
        let changed = self.nodes.iter().filter(|n| n.status != Status::Common).count()
            + self.edges.iter().filter(|e| e.status != Status::Common).count();
        changed as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::simtime::SimDuration;

    fn key(s: &str, v: &str, e: &str) -> NodeKey {
        NodeKey::new(s, v, e)
    }

    /// Baseline: fe -> svc@1 -> db. Experimental: fe -> svc@2 -> db, plus new cache.
    fn graphs() -> (InteractionGraph, InteractionGraph) {
        let mut b = InteractionGraph::new();
        let fe = b.intern(key("fe", "1", "home"));
        let s1 = b.intern(key("svc", "1", "api"));
        let db = b.intern(key("db", "1", "q"));
        b.observe_node(fe, SimDuration::from_millis(20), true);
        b.observe_node(s1, SimDuration::from_millis(10), true);
        b.observe_node(db, SimDuration::from_millis(2), true);
        b.observe_edge(fe, s1);
        b.observe_edge(s1, db);

        let mut e = InteractionGraph::new();
        let fe2 = e.intern(key("fe", "1", "home"));
        let s2 = e.intern(key("svc", "2", "api"));
        let db2 = e.intern(key("db", "1", "q"));
        let cache = e.intern(key("cache", "1", "get"));
        e.observe_node(fe2, SimDuration::from_millis(22), true);
        e.observe_node(s2, SimDuration::from_millis(15), true);
        e.observe_node(db2, SimDuration::from_millis(2), true);
        e.observe_node(cache, SimDuration::from_millis(1), true);
        e.observe_edge(fe2, s2);
        e.observe_edge(s2, db2);
        e.observe_edge(s2, cache);
        (b, e)
    }

    #[test]
    fn statuses_partition_the_union() {
        let (b, e) = graphs();
        let diff = TopologicalDiff::compute(&b, &e);
        assert_eq!(diff.nodes.len(), 5); // fe, svc@1, db, svc@2, cache
        assert_eq!(diff.nodes_with(Status::Common).count(), 2); // fe, db
        assert_eq!(diff.nodes_with(Status::Removed).count(), 1); // svc@1
        assert_eq!(diff.nodes_with(Status::Added).count(), 2); // svc@2, cache
        assert_eq!(diff.edges.len(), 5);
        assert_eq!(diff.edges_with(Status::Removed).count(), 2); // fe->svc@1, svc@1->db
        assert_eq!(diff.edges_with(Status::Added).count(), 3);
        assert_eq!(diff.edges_with(Status::Common).count(), 0);
    }

    #[test]
    fn stats_carried_from_both_sides() {
        let (b, e) = graphs();
        let diff = TopologicalDiff::compute(&b, &e);
        // Baseline node n is diff node n.
        let fe = b.node(&key("fe", "1", "home")).unwrap().0;
        assert_eq!(diff.nodes[fe].key, key("fe", "1", "home"));
        assert_eq!(diff.nodes[fe].baseline.unwrap().mean_rt_ms(), 20.0);
        assert_eq!(diff.nodes[fe].experimental.unwrap().mean_rt_ms(), 22.0);
        let s1 = b.node(&key("svc", "1", "api")).unwrap().0;
        assert_eq!(diff.nodes[s1].key, key("svc", "1", "api"));
        assert!(diff.nodes[s1].experimental.is_none());
    }

    #[test]
    fn identical_graphs_are_unchanged() {
        let (b, _) = graphs();
        let diff = TopologicalDiff::compute(&b, &b);
        assert!(diff.is_unchanged());
        assert_eq!(diff.change_fraction(), 0.0);
    }

    #[test]
    fn change_fraction_counts_both_kinds() {
        let (b, e) = graphs();
        let diff = TopologicalDiff::compute(&b, &e);
        // 3 changed nodes of 5, 5 changed edges of 5 → 8/10.
        assert!((diff.change_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_diff() {
        let diff = TopologicalDiff::compute(&InteractionGraph::new(), &InteractionGraph::new());
        assert!(diff.is_unchanged());
        assert_eq!(diff.change_fraction(), 0.0);
    }
}
