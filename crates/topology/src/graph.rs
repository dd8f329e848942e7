//! Interaction graphs (Section 5.4.2).
//!
//! "Nodes denote endpoints of services in specific versions and edges the
//! interactions between them" — an [`InteractionGraph`] is the aggregate
//! of many traces: per node the number of times it served a hop, its
//! failure count and mean response time; per edge the call count.

use cex_core::simtime::SimDuration;
use std::collections::HashMap;
use std::fmt;

/// Identity of a graph node: one endpoint of one deployed service version.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeKey {
    /// Service name.
    pub service: String,
    /// Version label.
    pub version: String,
    /// Endpoint name.
    pub endpoint: String,
}

impl NodeKey {
    /// Creates a node key.
    pub fn new(
        service: impl Into<String>,
        version: impl Into<String>,
        endpoint: impl Into<String>,
    ) -> Self {
        NodeKey { service: service.into(), version: version.into(), endpoint: endpoint.into() }
    }

    /// The version-agnostic `(service, endpoint)` identity used to detect
    /// version updates across variants.
    pub fn unversioned(&self) -> (&str, &str) {
        (&self.service, &self.endpoint)
    }
}

impl fmt::Display for NodeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}/{}", self.service, self.version, self.endpoint)
    }
}

/// Aggregated observations of one node.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NodeStats {
    /// Hops served.
    pub served: u64,
    /// Hops that failed.
    pub failed: u64,
    /// Sum of hop durations in milliseconds (mean = `total_rt_ms / served`).
    pub total_rt_ms: f64,
}

impl NodeStats {
    /// Mean response time in milliseconds (`0.0` before any observation).
    pub fn mean_rt_ms(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.total_rt_ms / self.served as f64
        }
    }

    /// Failure fraction.
    pub fn error_rate(&self) -> f64 {
        if self.served == 0 {
            0.0
        } else {
            self.failed as f64 / self.served as f64
        }
    }
}

/// Aggregated observations of one edge (caller → callee).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EdgeStats {
    /// Calls observed.
    pub calls: u64,
}

/// Granularity at which an interaction graph is viewed.
///
/// "Our approach is more fine-grained, we compare traces at the endpoint,
/// version, and service levels" (Section 1.3.3): analyses default to
/// endpoint granularity; [`InteractionGraph::aggregate`] coarsens to the
/// version or service level when a release engineer wants the overview
/// before drilling down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One node per `(service, version, endpoint)` — the native level.
    Endpoint,
    /// One node per `(service, version)`.
    Version,
    /// One node per service.
    Service,
}

/// Index of a node within an [`InteractionGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeIdx(pub usize);

/// The interaction graph of one application variant.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct InteractionGraph {
    keys: Vec<NodeKey>,
    stats: Vec<NodeStats>,
    index: HashMap<NodeKey, NodeIdx>,
    /// `versions[service][endpoint]`: the nodes of one version-agnostic
    /// pair, in index order. Filed by [`InteractionGraph::intern`].
    versions: HashMap<String, HashMap<String, Vec<NodeIdx>>>,
    /// Adjacency: `out[from]` lists `(to, stats)`.
    out: Vec<Vec<(NodeIdx, EdgeStats)>>,
    /// Reverse adjacency for root detection and upstream walks.
    incoming: Vec<Vec<NodeIdx>>,
}

impl InteractionGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        InteractionGraph::default()
    }

    /// Number of nodes (endpoints).
    pub fn node_count(&self) -> usize {
        self.keys.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
    }

    /// Interns `key`, returning its index. The one place a node is born:
    /// a new node is also filed under its version-agnostic
    /// `(service, endpoint)` pair for [`InteractionGraph::find_unversioned`].
    pub fn intern(&mut self, key: NodeKey) -> NodeIdx {
        if let Some(idx) = self.index.get(&key) {
            return *idx;
        }
        let idx = NodeIdx(self.keys.len());
        // Names are cloned only for a pair (or service) seen for the first
        // time; another version of a known pair clones nothing.
        if !self.versions.contains_key(&key.service) {
            self.versions.insert(key.service.clone(), HashMap::new());
        }
        let endpoints = self.versions.get_mut(&key.service).expect("inserted above");
        match endpoints.get_mut(&key.endpoint) {
            Some(nodes) => nodes.push(idx),
            None => {
                endpoints.insert(key.endpoint.clone(), vec![idx]);
            }
        }
        self.index.insert(key.clone(), idx);
        self.keys.push(key);
        self.stats.push(NodeStats::default());
        self.out.push(Vec::new());
        self.incoming.push(Vec::new());
        idx
    }

    /// Records one served hop on `node`.
    pub fn observe_node(&mut self, node: NodeIdx, duration: SimDuration, ok: bool) {
        let s = &mut self.stats[node.0];
        s.served += 1;
        if !ok {
            s.failed += 1;
        }
        s.total_rt_ms += duration.as_millis_f64();
    }

    /// Records one call over the edge `from → to` (edges are created on
    /// first observation).
    pub fn observe_edge(&mut self, from: NodeIdx, to: NodeIdx) {
        if let Some((_, stats)) = self.out[from.0].iter_mut().find(|(t, _)| *t == to) {
            stats.calls += 1;
            return;
        }
        self.out[from.0].push((to, EdgeStats { calls: 1 }));
        self.incoming[to.0].push(from);
    }

    /// Looks up a node by key.
    pub fn node(&self, key: &NodeKey) -> Option<NodeIdx> {
        self.index.get(key).copied()
    }

    /// The key of a node.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn key(&self, idx: NodeIdx) -> &NodeKey {
        &self.keys[idx.0]
    }

    /// The stats of a node.
    ///
    /// # Panics
    ///
    /// Panics when `idx` is out of bounds.
    pub fn stats(&self, idx: NodeIdx) -> &NodeStats {
        &self.stats[idx.0]
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, idx: NodeIdx) -> &[(NodeIdx, EdgeStats)] {
        &self.out[idx.0]
    }

    /// Callers of a node.
    pub fn callers(&self, idx: NodeIdx) -> &[NodeIdx] {
        &self.incoming[idx.0]
    }

    /// All node indices.
    pub fn nodes(&self) -> impl Iterator<Item = NodeIdx> + '_ {
        (0..self.keys.len()).map(NodeIdx)
    }

    /// Root nodes (no callers) — the user-facing entry endpoints.
    pub fn roots(&self) -> Vec<NodeIdx> {
        self.nodes().filter(|n| self.incoming[n.0].is_empty()).collect()
    }

    /// Finds a node by `(service, endpoint)` regardless of version,
    /// preferring the one with the most observations (the dominant
    /// deployment of that endpoint). Versions with equal `served` resolve
    /// to the one interned last: the pair's nodes are kept in index order
    /// and `max_by_key` keeps the last maximum.
    pub fn find_unversioned(&self, service: &str, endpoint: &str) -> Option<NodeIdx> {
        let nodes = self.versions.get(service)?.get(endpoint)?;
        nodes.iter().copied().max_by_key(|n| self.stats(*n).served)
    }

    /// Re-aggregates the graph at a coarser granularity: node stats sum,
    /// parallel edges merge, and self-loops introduced by collapsing
    /// intra-service calls are dropped.
    pub fn aggregate(&self, granularity: Granularity) -> InteractionGraph {
        let coarse_key = |key: &NodeKey| match granularity {
            Granularity::Endpoint => key.clone(),
            Granularity::Version => NodeKey::new(key.service.clone(), key.version.clone(), "*"),
            Granularity::Service => NodeKey::new(key.service.clone(), "*", "*"),
        };
        let mut out = InteractionGraph::new();
        // Nodes with summed stats.
        for n in self.nodes() {
            let idx = out.intern(coarse_key(self.key(n)));
            let stats = self.stats(n);
            let slot = &mut out.stats[idx.0];
            slot.served += stats.served;
            slot.failed += stats.failed;
            slot.total_rt_ms += stats.total_rt_ms;
        }
        // Edges with summed call counts, self-loops dropped.
        for from in self.nodes() {
            let f = out.index[&coarse_key(self.key(from))];
            for (to, stats) in self.out_edges(from) {
                let t = out.index[&coarse_key(self.key(*to))];
                if f == t {
                    continue;
                }
                if let Some((_, existing)) = out.out[f.0].iter_mut().find(|(x, _)| *x == t) {
                    existing.calls += stats.calls;
                } else {
                    out.out[f.0].push((t, *stats));
                    out.incoming[t.0].push(f);
                }
            }
        }
        out
    }

    /// [`InteractionGraph::find_unversioned`] as a scan of every node: the
    /// oracle the index is tested against.
    #[cfg(test)]
    pub(crate) fn find_unversioned_by_scan(
        &self,
        service: &str,
        endpoint: &str,
    ) -> Option<NodeIdx> {
        self.nodes()
            .filter(|n| self.key(*n).unversioned() == (service, endpoint))
            .max_by_key(|n| self.stats(*n).served)
    }

    /// Downstream node indices reachable from `root` (including it), by a
    /// walk of its own per call: the oracle for the memoised sums of
    /// [`crate::heuristics::SubtreeComplexity`].
    #[cfg(test)]
    pub(crate) fn subtree(&self, root: NodeIdx) -> Vec<NodeIdx> {
        let mut seen = vec![false; self.keys.len()];
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(n) = stack.pop() {
            if seen[n.0] {
                continue;
            }
            seen[n.0] = true;
            out.push(n);
            for (to, _) in &self.out[n.0] {
                stack.push(*to);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(s: &str, e: &str) -> NodeKey {
        NodeKey::new(s, "1.0.0", e)
    }

    fn sample() -> InteractionGraph {
        // fe/home -> cat/list -> db/q ; fe/home -> rec/r -> db/q
        let mut g = InteractionGraph::new();
        let fe = g.intern(key("fe", "home"));
        let cat = g.intern(key("cat", "list"));
        let rec = g.intern(key("rec", "r"));
        let db = g.intern(key("db", "q"));
        for _ in 0..10 {
            g.observe_node(fe, SimDuration::from_millis(30), true);
            g.observe_node(cat, SimDuration::from_millis(10), true);
            g.observe_node(db, SimDuration::from_millis(3), true);
            g.observe_edge(fe, cat);
            g.observe_edge(cat, db);
        }
        for _ in 0..5 {
            g.observe_node(rec, SimDuration::from_millis(12), false);
            g.observe_edge(fe, rec);
            g.observe_edge(rec, db);
        }
        g
    }

    #[test]
    fn interning_is_idempotent() {
        let mut g = InteractionGraph::new();
        let a = g.intern(key("s", "e"));
        let b = g.intern(key("s", "e"));
        assert_eq!(a, b);
        assert_eq!(g.node_count(), 1);
    }

    #[test]
    fn stats_aggregate() {
        let g = sample();
        let fe = g.node(&key("fe", "home")).unwrap();
        assert_eq!(g.stats(fe).served, 10);
        assert_eq!(g.stats(fe).mean_rt_ms(), 30.0);
        let rec = g.node(&key("rec", "r")).unwrap();
        assert_eq!(g.stats(rec).error_rate(), 1.0);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn edge_counts_accumulate() {
        let g = sample();
        let fe = g.node(&key("fe", "home")).unwrap();
        let cat = g.node(&key("cat", "list")).unwrap();
        let (_, stats) = g.out_edges(fe).iter().find(|(t, _)| *t == cat).unwrap();
        assert_eq!(stats.calls, 10);
    }

    #[test]
    fn roots_have_no_callers() {
        let g = sample();
        let roots = g.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(g.key(roots[0]).service, "fe");
    }

    #[test]
    fn subtree_sizes() {
        let g = sample();
        let fe = g.node(&key("fe", "home")).unwrap();
        let cat = g.node(&key("cat", "list")).unwrap();
        let db = g.node(&key("db", "q")).unwrap();
        assert_eq!(g.subtree(fe).len(), 4);
        assert_eq!(g.subtree(cat).len(), 2);
        assert_eq!(g.subtree(db).len(), 1);
    }

    #[test]
    fn subtree_is_cycle_safe() {
        let mut g = InteractionGraph::new();
        let a = g.intern(key("a", "e"));
        let b = g.intern(key("b", "e"));
        g.observe_edge(a, b);
        g.observe_edge(b, a);
        assert_eq!(g.subtree(a).len(), 2);
    }

    #[test]
    fn unversioned_lookup_prefers_dominant() {
        let mut g = InteractionGraph::new();
        let v1 = g.intern(NodeKey::new("s", "1", "e"));
        let v2 = g.intern(NodeKey::new("s", "2", "e"));
        for _ in 0..3 {
            g.observe_node(v1, SimDuration::from_millis(1), true);
        }
        for _ in 0..7 {
            g.observe_node(v2, SimDuration::from_millis(1), true);
        }
        assert_eq!(g.find_unversioned("s", "e"), Some(v2));
        assert_eq!(g.find_unversioned("s", "nope"), None);
    }

    #[test]
    fn unversioned_ties_resolve_to_the_later_interned_version() {
        let mut g = InteractionGraph::new();
        let v1 = g.intern(NodeKey::new("s", "1", "a"));
        let other = g.intern(NodeKey::new("t", "1", "a"));
        let v2 = g.intern(NodeKey::new("s", "2", "a"));
        let find = |g: &InteractionGraph, service: &str, endpoint: &str| {
            let found = g.find_unversioned(service, endpoint);
            assert_eq!(found, g.find_unversioned_by_scan(service, endpoint));
            found.map(|n| g.key(n).to_string())
        };
        // Tied at zero hops, then at four: the later-interned version.
        assert_eq!(find(&g, "s", "a").unwrap(), "s@2/a");
        for node in [v1, other, v2] {
            for _ in 0..4 {
                g.observe_node(node, SimDuration::from_millis(1), true);
            }
        }
        assert_eq!(find(&g, "s", "a").unwrap(), "s@2/a");
        assert_eq!(find(&g, "t", "a").unwrap(), "t@1/a");

        // Coarser graphs are built through `intern` and carry the index,
        // tie rule included (s@1 and s@2 at four hops each).
        let version = g.aggregate(Granularity::Version);
        assert_eq!(find(&version, "s", "*").unwrap(), "s@2/*");
        assert_eq!(find(&version, "s", "a"), None);
        let service = g.aggregate(Granularity::Service);
        assert_eq!(find(&service, "s", "*").unwrap(), "s@*/*");
        assert_eq!(find(&service, "t", "*").unwrap(), "t@*/*");

        // One more hop breaks the tie the other way, at both levels.
        g.observe_node(v1, SimDuration::from_millis(1), true);
        assert_eq!(find(&g, "s", "a").unwrap(), "s@1/a");
        assert_eq!(find(&g.aggregate(Granularity::Version), "s", "*").unwrap(), "s@1/*");
    }

    #[test]
    fn aggregation_to_version_and_service_levels() {
        // Two versions of `svc`, each with two endpoints, called by fe.
        let mut g = InteractionGraph::new();
        let fe = g.intern(NodeKey::new("fe", "1", "home"));
        let a1 = g.intern(NodeKey::new("svc", "1", "a"));
        let b1 = g.intern(NodeKey::new("svc", "1", "b"));
        let a2 = g.intern(NodeKey::new("svc", "2", "a"));
        for _ in 0..4 {
            g.observe_node(fe, SimDuration::from_millis(20), true);
            g.observe_node(a1, SimDuration::from_millis(10), true);
            g.observe_edge(fe, a1);
        }
        for _ in 0..2 {
            g.observe_node(b1, SimDuration::from_millis(30), false);
            g.observe_edge(a1, b1); // intra-service call
            g.observe_node(a2, SimDuration::from_millis(12), true);
            g.observe_edge(fe, a2);
        }

        let version = g.aggregate(Granularity::Version);
        assert_eq!(version.node_count(), 3); // fe@1, svc@1, svc@2
        let svc1 = version.node(&NodeKey::new("svc", "1", "*")).unwrap();
        assert_eq!(version.stats(svc1).served, 6);
        assert_eq!(version.stats(svc1).failed, 2);
        // Intra-version edge a1->b1 became a self-loop and was dropped.
        assert!(version.out_edges(svc1).is_empty());
        let fe_v = version.node(&NodeKey::new("fe", "1", "*")).unwrap();
        assert_eq!(version.out_edges(fe_v).len(), 2);

        let service = g.aggregate(Granularity::Service);
        assert_eq!(service.node_count(), 2); // fe, svc
        let svc = service.node(&NodeKey::new("svc", "*", "*")).unwrap();
        assert_eq!(service.stats(svc).served, 8);
        let fe_s = service.node(&NodeKey::new("fe", "*", "*")).unwrap();
        // fe->svc@1 (4 calls) and fe->svc@2 (2 calls) merge into one edge.
        assert_eq!(service.out_edges(fe_s).len(), 1);
        assert_eq!(service.out_edges(fe_s)[0].1.calls, 6);
    }

    #[test]
    fn endpoint_aggregation_is_identity_shaped() {
        let g = sample();
        let same = g.aggregate(Granularity::Endpoint);
        assert_eq!(same.node_count(), g.node_count());
        assert_eq!(same.edge_count(), g.edge_count());
    }

    #[test]
    fn aggregated_mean_rt_is_weighted() {
        let mut g = InteractionGraph::new();
        let a = g.intern(NodeKey::new("s", "1", "fast"));
        let b = g.intern(NodeKey::new("s", "1", "slow"));
        for _ in 0..3 {
            g.observe_node(a, SimDuration::from_millis(10), true);
        }
        g.observe_node(b, SimDuration::from_millis(50), true);
        let coarse = g.aggregate(Granularity::Version);
        let n = coarse.node(&NodeKey::new("s", "1", "*")).unwrap();
        // (3×10 + 50) / 4 = 20.
        assert_eq!(coarse.stats(n).mean_rt_ms(), 20.0);
    }

    #[test]
    fn display_form() {
        assert_eq!(NodeKey::new("s", "2", "e").to_string(), "s@2/e");
    }
}
