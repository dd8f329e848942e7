//! Ranking heuristics (Section 5.5): subtree complexity, response-time
//! analysis, and hybrids.
//!
//! Six variations of three families, exactly the grid evaluated in
//! Figures 5.6 and 5.8:
//!
//! | family | variation A | variation B |
//! |---|---|---|
//! | subtree complexity | plain node count | change-weighted count |
//! | response-time analysis | direct deltas | cascade-discounted (root cause) |
//! | hybrid | α = 0.5 | α = 0.7 (structure-leaning) |
//!
//! Every heuristic multiplies its structural/behavioural evidence with the
//! change type's **uncertainty scalar**, implementing the dissertation's
//! premise that "deploying and consuming a completely new service"
//! warrants more attention than an internal version bump.

use crate::changes::Change;
use crate::diff::{Status, TopologicalDiff};
use crate::graph::{InteractionGraph, NodeIdx};

/// Everything a heuristic may consult.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisContext<'a> {
    /// Interaction graph of the stable variant.
    pub baseline: &'a InteractionGraph,
    /// Interaction graph of the experimental variant.
    pub experimental: &'a InteractionGraph,
    /// Their topological difference.
    pub diff: &'a TopologicalDiff,
}

/// A change-ranking heuristic.
pub trait Heuristic {
    /// Identifier as plotted in Figures 5.6/5.8 (e.g. `"hybrid(0.5)"`).
    fn name(&self) -> String;

    /// Scores every change; higher = rank earlier. Scores are only
    /// compared within one invocation, so no global normalization is
    /// required of implementors.
    fn score_all(&self, ctx: &AnalysisContext<'_>, changes: &[Change]) -> Vec<f64>;
}

// ---------------------------------------------------------------------------
// Subtree complexity (Section 5.5.3)
// ---------------------------------------------------------------------------

/// Ranks changes by the complexity of the service network beneath them: a
/// change whose callee sits on top of a large subtree can disturb more of
/// the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubtreeComplexity {
    /// When `true`, subtree nodes that are themselves added/removed in
    /// the diff count double — changed infrastructure below a change
    /// compounds its risk.
    pub change_weighted: bool,
}

impl Heuristic for SubtreeComplexity {
    fn name(&self) -> String {
        if self.change_weighted {
            "subtree(weighted)".into()
        } else {
            "subtree(plain)".into()
        }
    }

    fn score_all(&self, ctx: &AnalysisContext<'_>, changes: &[Change]) -> Vec<f64> {
        let mut experimental = SubtreeSums::new(ctx.experimental, ctx.diff, self.change_weighted);
        // Removals live only in the baseline graph.
        let mut baseline = SubtreeSums::new(ctx.baseline, ctx.diff, self.change_weighted);
        changes
            .iter()
            .map(|change| {
                let complexity = if let Some(idx) = ctx.experimental.node(&change.callee) {
                    experimental.below(idx)
                } else if let Some(idx) = ctx.baseline.node(&change.callee) {
                    baseline.below(idx)
                } else {
                    1.0
                };
                change.kind.uncertainty().value() * complexity
            })
            .collect()
    }
}

/// Subtree complexities of one graph, each root walked at most once.
///
/// A complexity is a sum of 1.0s and 2.0s — an integer far below 2^53,
/// exact in `f64` in any order — so a remembered sum is bit-equal to the
/// one a fresh walk in any visit order would return.
struct SubtreeSums<'a> {
    graph: &'a InteractionGraph,
    /// What a node adds to a subtree holding it: 2.0 when weighted and
    /// added/removed in the diff, 1.0 otherwise.
    weight: Vec<f64>,
    sums: Vec<Option<f64>>,
    /// `seen[n] == root` marks `n` visited by the walk from `root`. A root
    /// is walked once, so its index is a stamp no other walk used and the
    /// buffer is never cleared.
    seen: Vec<usize>,
    stack: Vec<NodeIdx>,
}

impl<'a> SubtreeSums<'a> {
    fn new(graph: &'a InteractionGraph, diff: &TopologicalDiff, change_weighted: bool) -> Self {
        let n = graph.node_count();
        let mut weight = vec![1.0; n];
        if change_weighted {
            for node in diff.nodes.iter().filter(|node| node.status != Status::Common) {
                if let Some(idx) = graph.node(&node.key) {
                    weight[idx.0] = 2.0;
                }
            }
        }
        SubtreeSums { graph, weight, sums: vec![None; n], seen: vec![usize::MAX; n], stack: vec![] }
    }

    /// Summed weight of the nodes reachable from `root`, itself included.
    /// Cycle-safe.
    fn below(&mut self, root: NodeIdx) -> f64 {
        if let Some(sum) = self.sums[root.0] {
            return sum;
        }
        let mut sum = 0.0;
        self.seen[root.0] = root.0;
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            sum += self.weight[n.0];
            for (to, _) in self.graph.out_edges(n) {
                if self.seen[to.0] != root.0 {
                    self.seen[to.0] = root.0;
                    self.stack.push(*to);
                }
            }
        }
        self.sums[root.0] = Some(sum);
        sum
    }
}

// ---------------------------------------------------------------------------
// Response-time analysis (Section 5.5.4)
// ---------------------------------------------------------------------------

/// Ranks changes by observed response-time degradation of their callee,
/// optionally discounting degradation explained by an even more degraded
/// child — "a simple root cause analysis for spotting cascading effects".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseTimeAnalysis {
    /// Enable the cascade discount (root-cause attribution).
    pub cascade_discount: bool,
}

impl ResponseTimeAnalysis {
    /// Relative degradation of one experimental node vs its
    /// version-agnostic baseline counterpart. Nodes without a counterpart
    /// (brand new) are normalized against the experimental graph's mean
    /// response time.
    fn degradation(
        ctx: &AnalysisContext<'_>,
        node: NodeIdx,
        mean_rt: f64,
        cache: &mut [Option<f64>],
    ) -> f64 {
        if let Some(v) = cache[node.0] {
            return v;
        }
        let key = ctx.experimental.key(node);
        let exp_rt = ctx.experimental.stats(node).mean_rt_ms();
        let value = match ctx.baseline.find_unversioned(&key.service, &key.endpoint) {
            Some(base) => {
                let base_rt = ctx.baseline.stats(base).mean_rt_ms();
                if base_rt > 0.0 {
                    (exp_rt / base_rt - 1.0).max(0.0)
                } else if exp_rt > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            None => {
                // New endpoint: its weight is how heavy it is relative to
                // the application's typical hop.
                if mean_rt > 0.0 {
                    exp_rt / mean_rt
                } else {
                    0.0
                }
            }
        };
        // Failed hops are at least as alarming as slow ones.
        let value = value + 5.0 * ctx.experimental.stats(node).error_rate();
        cache[node.0] = Some(value);
        value
    }
}

impl Heuristic for ResponseTimeAnalysis {
    fn name(&self) -> String {
        if self.cascade_discount {
            "rt(root-cause)".into()
        } else {
            "rt(direct)".into()
        }
    }

    fn score_all(&self, ctx: &AnalysisContext<'_>, changes: &[Change]) -> Vec<f64> {
        let mean_rt = {
            let mut sum = 0.0;
            let mut n = 0usize;
            for node in ctx.experimental.nodes() {
                sum += ctx.experimental.stats(node).mean_rt_ms();
                n += 1;
            }
            if n > 0 {
                sum / n as f64
            } else {
                0.0
            }
        };
        // Degradation per experimental node, by node index.
        let mut cache = vec![None; ctx.experimental.node_count()];
        changes
            .iter()
            .map(|change| {
                let node = ctx.experimental.node(&change.callee).or_else(|| {
                    ctx.experimental
                        .find_unversioned(&change.callee.service, &change.callee.endpoint)
                });
                let evidence = match node {
                    Some(idx) => {
                        let own = Self::degradation(ctx, idx, mean_rt, &mut cache);
                        if self.cascade_discount {
                            // Blame the deepest degraded node: discount by
                            // the worst child degradation.
                            let worst_child = ctx
                                .experimental
                                .out_edges(idx)
                                .iter()
                                .map(|(to, _)| Self::degradation(ctx, *to, mean_rt, &mut cache))
                                .fold(0.0, f64::max);
                            (own - 0.8 * worst_child).max(0.1 * own)
                        } else {
                            own
                        }
                    }
                    // Removed call: the callee no longer exists; impact is
                    // whatever its *caller* now exhibits.
                    None => ctx
                        .experimental
                        .find_unversioned(&change.caller.service, &change.caller.endpoint)
                        .map(|c| Self::degradation(ctx, c, mean_rt, &mut cache))
                        .unwrap_or(0.0),
                };
                change.kind.uncertainty().value() * evidence
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Hybrid (Section 5.5.5)
// ---------------------------------------------------------------------------

/// Convex combination of the two families after per-invocation min–max
/// normalization: `α·subtree + (1-α)·response-time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hybrid {
    /// Weight of the subtree component.
    pub alpha: f64,
    /// The structural component.
    pub subtree: SubtreeComplexity,
    /// The behavioural component.
    pub response_time: ResponseTimeAnalysis,
}

impl Heuristic for Hybrid {
    fn name(&self) -> String {
        format!("hybrid({:.1})", self.alpha)
    }

    fn score_all(&self, ctx: &AnalysisContext<'_>, changes: &[Change]) -> Vec<f64> {
        let s = normalize(self.subtree.score_all(ctx, changes));
        let r = normalize(self.response_time.score_all(ctx, changes));
        s.iter().zip(&r).map(|(a, b)| self.alpha * a + (1.0 - self.alpha) * b).collect()
    }
}

fn normalize(mut scores: Vec<f64>) -> Vec<f64> {
    let max = scores.iter().fold(f64::NEG_INFINITY, |a, b| a.max(*b));
    let min = scores.iter().fold(f64::INFINITY, |a, b| a.min(*b));
    if !max.is_finite() || !min.is_finite() || (max - min).abs() < f64::EPSILON {
        scores.fill(0.0);
        return scores;
    }
    for s in &mut scores {
        *s = (*s - min) / (max - min);
    }
    scores
}

/// The six heuristic variations evaluated in the paper's grid.
pub fn all_variants() -> Vec<Box<dyn Heuristic>> {
    vec![
        Box::new(SubtreeComplexity { change_weighted: false }),
        Box::new(SubtreeComplexity { change_weighted: true }),
        Box::new(ResponseTimeAnalysis { cascade_discount: false }),
        Box::new(ResponseTimeAnalysis { cascade_discount: true }),
        Box::new(hybrid(0.5)),
        Box::new(hybrid(0.7)),
    ]
}

/// A hybrid with the given subtree weight, built from the stronger
/// variation of each family.
pub fn hybrid(alpha: f64) -> Hybrid {
    Hybrid {
        alpha,
        subtree: SubtreeComplexity { change_weighted: true },
        response_time: ResponseTimeAnalysis { cascade_discount: true },
    }
}

/// The paper's best performer on average: the balanced hybrid.
pub fn hybrid_default() -> Box<dyn Heuristic> {
    Box::new(hybrid(0.5))
}

/// The six variants as scans compute them — a subtree walk and a key hash
/// per change, every node compared per unversioned lookup: the oracle the
/// indexed forms are tested against.
#[cfg(test)]
pub(crate) mod by_scan {
    use super::*;
    use std::collections::{HashMap, HashSet};

    fn subtree(ctx: &AnalysisContext<'_>, changes: &[Change], change_weighted: bool) -> Vec<f64> {
        let changed_keys: HashSet<&crate::graph::NodeKey> =
            ctx.diff.nodes.iter().filter(|n| n.status != Status::Common).map(|n| &n.key).collect();
        changes
            .iter()
            .map(|change| {
                let located = match ctx.experimental.node(&change.callee) {
                    Some(idx) => Some((ctx.experimental, idx)),
                    None => ctx.baseline.node(&change.callee).map(|idx| (ctx.baseline, idx)),
                };
                let complexity = match located {
                    Some((graph, idx)) if change_weighted => graph
                        .subtree(idx)
                        .iter()
                        .map(|n| if changed_keys.contains(graph.key(*n)) { 2.0 } else { 1.0 })
                        .sum::<f64>(),
                    Some((graph, idx)) => graph.subtree(idx).len() as f64,
                    None => 1.0,
                };
                change.kind.uncertainty().value() * complexity
            })
            .collect()
    }

    fn degradation(
        ctx: &AnalysisContext<'_>,
        node: NodeIdx,
        mean_rt: f64,
        cache: &mut HashMap<NodeIdx, f64>,
    ) -> f64 {
        if let Some(v) = cache.get(&node) {
            return *v;
        }
        let key = ctx.experimental.key(node);
        let exp_rt = ctx.experimental.stats(node).mean_rt_ms();
        let value = match ctx.baseline.find_unversioned_by_scan(&key.service, &key.endpoint) {
            Some(base) => {
                let base_rt = ctx.baseline.stats(base).mean_rt_ms();
                if base_rt > 0.0 {
                    (exp_rt / base_rt - 1.0).max(0.0)
                } else if exp_rt > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            None if mean_rt > 0.0 => exp_rt / mean_rt,
            None => 0.0,
        };
        let value = value + 5.0 * ctx.experimental.stats(node).error_rate();
        cache.insert(node, value);
        value
    }

    fn response_time(
        ctx: &AnalysisContext<'_>,
        changes: &[Change],
        cascade_discount: bool,
    ) -> Vec<f64> {
        let exp = ctx.experimental;
        let mut sum = 0.0;
        for node in exp.nodes() {
            sum += exp.stats(node).mean_rt_ms();
        }
        let mean_rt = if exp.node_count() > 0 { sum / exp.node_count() as f64 } else { 0.0 };
        let mut cache = HashMap::new();
        changes
            .iter()
            .map(|change| {
                let find = |key: &crate::graph::NodeKey| {
                    exp.find_unversioned_by_scan(&key.service, &key.endpoint)
                };
                let evidence = match exp.node(&change.callee).or_else(|| find(&change.callee)) {
                    Some(idx) => {
                        let own = degradation(ctx, idx, mean_rt, &mut cache);
                        if cascade_discount {
                            let worst_child = exp
                                .out_edges(idx)
                                .iter()
                                .map(|(to, _)| degradation(ctx, *to, mean_rt, &mut cache))
                                .fold(0.0, f64::max);
                            (own - 0.8 * worst_child).max(0.1 * own)
                        } else {
                            own
                        }
                    }
                    None => find(&change.caller)
                        .map(|c| degradation(ctx, c, mean_rt, &mut cache))
                        .unwrap_or(0.0),
                };
                change.kind.uncertainty().value() * evidence
            })
            .collect()
    }

    /// Scores of the six variants, in [`all_variants`]' order.
    pub(crate) fn all_variants(ctx: &AnalysisContext<'_>, changes: &[Change]) -> Vec<Vec<f64>> {
        let hybrid = |alpha: f64| {
            let s = normalize(subtree(ctx, changes, true));
            let r = normalize(response_time(ctx, changes, true));
            s.iter().zip(&r).map(|(a, b)| alpha * a + (1.0 - alpha) * b).collect()
        };
        vec![
            subtree(ctx, changes, false),
            subtree(ctx, changes, true),
            response_time(ctx, changes, false),
            response_time(ctx, changes, true),
            hybrid(0.5),
            hybrid(0.7),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::changes::{classify, ChangeType};
    use crate::graph::NodeKey;
    use cex_core::simtime::SimDuration;

    /// Baseline: fe -> a@1 -> db, fe -> b@1 (leaf).
    /// Experimental: fe -> a@2 -> db (a is slower), fe -> b@1.
    fn ctx_graphs(slow_a: bool) -> (InteractionGraph, InteractionGraph) {
        let mut bg = InteractionGraph::new();
        let fe = bg.intern(NodeKey::new("fe", "1", "home"));
        let a = bg.intern(NodeKey::new("a", "1", "api"));
        let b = bg.intern(NodeKey::new("b", "1", "api"));
        let db = bg.intern(NodeKey::new("db", "1", "q"));
        for _ in 0..20 {
            bg.observe_node(fe, SimDuration::from_millis(30), true);
            bg.observe_node(a, SimDuration::from_millis(10), true);
            bg.observe_node(b, SimDuration::from_millis(5), true);
            bg.observe_node(db, SimDuration::from_millis(2), true);
            bg.observe_edge(fe, a);
            bg.observe_edge(fe, b);
            bg.observe_edge(a, db);
        }

        let mut eg = InteractionGraph::new();
        let fe = eg.intern(NodeKey::new("fe", "1", "home"));
        let a = eg.intern(NodeKey::new("a", "2", "api"));
        let b = eg.intern(NodeKey::new("b", "2", "api"));
        let db = eg.intern(NodeKey::new("db", "1", "q"));
        let a_rt = if slow_a { 80 } else { 10 };
        for _ in 0..20 {
            eg.observe_node(fe, SimDuration::from_millis(30), true);
            eg.observe_node(a, SimDuration::from_millis(a_rt), true);
            eg.observe_node(b, SimDuration::from_millis(5), true);
            eg.observe_node(db, SimDuration::from_millis(2), true);
            eg.observe_edge(fe, a);
            eg.observe_edge(fe, b);
            eg.observe_edge(a, db);
        }
        (bg, eg)
    }

    fn changes_for(bg: &InteractionGraph, eg: &InteractionGraph) -> (TopologicalDiff, Vec<Change>) {
        let diff = TopologicalDiff::compute(bg, eg);
        let changes = classify(&diff);
        (diff, changes)
    }

    #[test]
    fn subtree_prefers_deeper_changes() {
        let (bg, eg) = ctx_graphs(false);
        let (diff, changes) = changes_for(&bg, &eg);
        let ctx = AnalysisContext { baseline: &bg, experimental: &eg, diff: &diff };
        // Both a and b got a callee-version update; a sits on a subtree of
        // 2 (a + db), b is a leaf.
        let a_idx = changes.iter().position(|c| c.callee.service == "a").unwrap();
        let b_idx = changes.iter().position(|c| c.callee.service == "b").unwrap();
        assert_eq!(changes[a_idx].kind, ChangeType::UpdatedCalleeVersion);
        for weighted in [false, true] {
            let scores = SubtreeComplexity { change_weighted: weighted }.score_all(&ctx, &changes);
            assert!(scores[a_idx] > scores[b_idx], "weighted={weighted}: {scores:?}");
        }
    }

    #[test]
    fn subtree_sums_are_cycle_safe_and_equal_a_walk_per_root() {
        // a -> b -> c -> a, b -> d: walks from different roots overlap.
        let mut g = InteractionGraph::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|s| g.intern(NodeKey::new(s, "1", "e")));
        for (from, to) in [(a, b), (b, c), (c, a), (b, d)] {
            g.observe_edge(from, to);
        }
        // Against an empty graph every node is removed, so weighs double.
        let diff = TopologicalDiff::compute(&g, &InteractionGraph::new());
        for (weighted, per_node) in [(false, 1.0), (true, 2.0)] {
            let mut sums = SubtreeSums::new(&g, &diff, weighted);
            // Asked twice: walked, then remembered.
            for n in g.nodes().chain(g.nodes()) {
                assert_eq!(sums.below(n), per_node * g.subtree(n).len() as f64, "{n:?}");
            }
        }
        assert_eq!(g.subtree(d).len(), 1);
        assert_eq!(g.subtree(c).len(), 4);
    }

    #[test]
    fn rt_analysis_surfaces_the_degraded_callee() {
        let (bg, eg) = ctx_graphs(true);
        let (diff, changes) = changes_for(&bg, &eg);
        let ctx = AnalysisContext { baseline: &bg, experimental: &eg, diff: &diff };
        let a_idx = changes.iter().position(|c| c.callee.service == "a").unwrap();
        let b_idx = changes.iter().position(|c| c.callee.service == "b").unwrap();
        for cascade in [false, true] {
            let scores =
                ResponseTimeAnalysis { cascade_discount: cascade }.score_all(&ctx, &changes);
            assert!(scores[a_idx] > scores[b_idx], "cascade={cascade}: {scores:?}");
        }
    }

    #[test]
    fn rt_analysis_scores_zero_without_degradation() {
        let (bg, eg) = ctx_graphs(false);
        let (diff, changes) = changes_for(&bg, &eg);
        let ctx = AnalysisContext { baseline: &bg, experimental: &eg, diff: &diff };
        let scores = ResponseTimeAnalysis { cascade_discount: false }.score_all(&ctx, &changes);
        assert!(scores.iter().all(|s| *s == 0.0), "{scores:?}");
    }

    #[test]
    fn cascade_discount_blames_the_source() {
        // fe -> mid -> leaf; leaf degrades, mid inherits the slowdown.
        let mut bg = InteractionGraph::new();
        let fe = bg.intern(NodeKey::new("fe", "1", "h"));
        let mid = bg.intern(NodeKey::new("mid", "1", "m"));
        let leaf = bg.intern(NodeKey::new("leaf", "1", "l"));
        for _ in 0..10 {
            bg.observe_node(fe, SimDuration::from_millis(40), true);
            bg.observe_node(mid, SimDuration::from_millis(30), true);
            bg.observe_node(leaf, SimDuration::from_millis(20), true);
            bg.observe_edge(fe, mid);
            bg.observe_edge(mid, leaf);
        }
        let mut eg = InteractionGraph::new();
        let fe = eg.intern(NodeKey::new("fe", "1", "h"));
        let mid = eg.intern(NodeKey::new("mid", "2", "m"));
        let leaf = eg.intern(NodeKey::new("leaf", "2", "l"));
        for _ in 0..10 {
            eg.observe_node(fe, SimDuration::from_millis(100), true);
            // mid's own time barely changed; its duration includes leaf.
            eg.observe_node(mid, SimDuration::from_millis(90), true);
            eg.observe_node(leaf, SimDuration::from_millis(80), true);
            eg.observe_edge(fe, mid);
            eg.observe_edge(mid, leaf);
        }
        let (diff, changes) = changes_for(&bg, &eg);
        let ctx = AnalysisContext { baseline: &bg, experimental: &eg, diff: &diff };
        let mid_idx = changes.iter().position(|c| c.callee.service == "mid").unwrap();
        let leaf_idx = changes.iter().position(|c| c.callee.service == "leaf").unwrap();
        let direct = ResponseTimeAnalysis { cascade_discount: false }.score_all(&ctx, &changes);
        let rooted = ResponseTimeAnalysis { cascade_discount: true }.score_all(&ctx, &changes);
        // Direct attribution blames mid at least as much as leaf (2x vs 3x
        // deltas weighted by uncertainty); root-cause attribution must
        // flip decisively towards leaf.
        assert!(
            rooted[leaf_idx] > rooted[mid_idx],
            "root cause should blame leaf: {rooted:?} (direct {direct:?})"
        );
        let direct_gap = direct[leaf_idx] - direct[mid_idx];
        let rooted_gap = rooted[leaf_idx] - rooted[mid_idx];
        assert!(rooted_gap > direct_gap, "discount should widen the gap");
    }

    #[test]
    fn hybrid_blends_components() {
        let (bg, eg) = ctx_graphs(true);
        let (diff, changes) = changes_for(&bg, &eg);
        let ctx = AnalysisContext { baseline: &bg, experimental: &eg, diff: &diff };
        let h = hybrid(0.5);
        let scores = h.score_all(&ctx, &changes);
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)), "{scores:?}");
        // Pure structure (alpha=1) equals normalized subtree scores.
        let pure = Hybrid { alpha: 1.0, ..hybrid(0.5) };
        let s_scores =
            normalize(SubtreeComplexity { change_weighted: true }.score_all(&ctx, &changes));
        let p_scores = pure.score_all(&ctx, &changes);
        for (a, b) in s_scores.iter().zip(&p_scores) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn all_variants_have_unique_names() {
        let variants = all_variants();
        assert_eq!(variants.len(), 6);
        let mut names: Vec<String> = variants.iter().map(|v| v.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn normalize_handles_constant_vectors() {
        assert_eq!(normalize(vec![3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(normalize(vec![]), Vec::<f64>::new());
        assert_eq!(normalize(vec![1.0, 3.0]), vec![0.0, 1.0]);
    }
}
