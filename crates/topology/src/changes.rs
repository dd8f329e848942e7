//! Change-type classification (Section 5.4.3).
//!
//! Added/removed edges of the topological difference are classified into
//! the paper's taxonomy:
//!
//! **Fundamental** change types:
//! - *Calling a New Endpoint* — an added edge whose callee `(service,
//!   endpoint)` never existed in the baseline;
//! - *Calling an Existing Endpoint* — an added edge to an endpoint the
//!   baseline already served (a new dependency on known functionality);
//! - *Removing a Service Call* — a removed edge with no added
//!   counterpart.
//!
//! **Composed** change types pair an added with a removed edge that agree
//! on `(service, endpoint)` for both sides but differ in version:
//! - *Updated Caller Version*, *Updated Callee Version*, and *Updated
//!   Version* (both at once).
//!
//! Each change type carries an **uncertainty scalar** (Section 1.2.4):
//! consuming a completely new service is maximally uncertain, removing a
//! call the least.

use crate::diff::{Status, TopologicalDiff};
use crate::graph::NodeKey;
use cex_core::uncertainty::Uncertainty;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// The change-type taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChangeType {
    /// Fundamental: a call to an endpoint unknown to the baseline.
    CallingNewEndpoint,
    /// Fundamental: a new call to an endpoint the baseline already served.
    CallingExistingEndpoint,
    /// Fundamental: a call present in the baseline disappeared.
    RemovingServiceCall,
    /// Composed: same call, caller deployed in a new version.
    UpdatedCallerVersion,
    /// Composed: same call, callee deployed in a new version.
    UpdatedCalleeVersion,
    /// Composed: same call, both sides deployed in new versions.
    UpdatedVersion,
}

impl ChangeType {
    /// `true` for the three fundamental change types.
    pub fn is_fundamental(self) -> bool {
        matches!(
            self,
            ChangeType::CallingNewEndpoint
                | ChangeType::CallingExistingEndpoint
                | ChangeType::RemovingServiceCall
        )
    }

    /// The uncertainty scalar of the change type. Calibrated like the
    /// paper's scalar assignment (Section 1.4.3): brand-new functionality
    /// is most uncertain, removals least.
    pub fn uncertainty(self) -> Uncertainty {
        let value = match self {
            ChangeType::CallingNewEndpoint => 0.9,
            ChangeType::UpdatedVersion => 0.7,
            ChangeType::UpdatedCalleeVersion => 0.6,
            ChangeType::CallingExistingEndpoint => 0.5,
            ChangeType::UpdatedCallerVersion => 0.4,
            ChangeType::RemovingServiceCall => 0.2,
        };
        Uncertainty::clamped(value)
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            ChangeType::CallingNewEndpoint => "calling a new endpoint",
            ChangeType::CallingExistingEndpoint => "calling an existing endpoint",
            ChangeType::RemovingServiceCall => "removing a service call",
            ChangeType::UpdatedCallerVersion => "updated caller version",
            ChangeType::UpdatedCalleeVersion => "updated callee version",
            ChangeType::UpdatedVersion => "updated version",
        }
    }

    /// All change types.
    pub fn all() -> [ChangeType; 6] {
        [
            ChangeType::CallingNewEndpoint,
            ChangeType::CallingExistingEndpoint,
            ChangeType::RemovingServiceCall,
            ChangeType::UpdatedCallerVersion,
            ChangeType::UpdatedCalleeVersion,
            ChangeType::UpdatedVersion,
        ]
    }
}

impl fmt::Display for ChangeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One identified change.
#[derive(Debug, Clone, PartialEq)]
pub struct Change {
    /// The classified type.
    pub kind: ChangeType,
    /// Caller endpoint (experimental side where it exists, baseline side
    /// for pure removals).
    pub caller: NodeKey,
    /// Callee endpoint (same convention).
    pub callee: NodeKey,
}

impl fmt::Display for Change {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.kind, self.caller, self.callee)
    }
}

/// Classifies every added/removed edge of the diff into changes.
///
/// The pairing pass greedily matches each added edge with the first
/// removed edge that agrees on `(service, endpoint)` for caller and callee;
/// matched pairs become composed change types, leftovers fundamental ones.
pub fn classify(diff: &TopologicalDiff) -> Vec<Change> {
    // Number the diff's nodes by version-agnostic pair, and flag the pairs
    // the baseline knew.
    let mut pair_ids: HashMap<(&str, &str), usize> = HashMap::new();
    let mut in_baseline: Vec<bool> = Vec::new();
    let pair_of: Vec<usize> = diff
        .nodes
        .iter()
        .map(|n| {
            let id = *pair_ids.entry(n.key.unversioned()).or_insert(in_baseline.len());
            if id == in_baseline.len() {
                in_baseline.push(false);
            }
            in_baseline[id] |= n.baseline.is_some();
            id
        })
        .collect();
    let group = |edge: usize| (pair_of[diff.edges[edge].from], pair_of[diff.edges[edge].to]);

    let added: Vec<usize> = diff.edges_with(Status::Added).map(|(i, _)| i).collect();
    let mut removed: Vec<usize> = diff.edges_with(Status::Removed).map(|(i, _)| i).collect();
    // Per (caller pair, callee pair), the positions in `removed` of its
    // edges. The smallest is the one a front-to-back scan of `removed`
    // would find first.
    let mut positions: HashMap<(usize, usize), BTreeSet<usize>> = HashMap::new();
    for (pos, r) in removed.iter().enumerate() {
        positions.entry(group(*r)).or_default().insert(pos);
    }
    let mut changes = Vec::new();

    for a in added {
        let edge = &diff.edges[a];
        let caller = diff.nodes[edge.from].key.clone();
        let callee = diff.nodes[edge.to].key.clone();
        // Try to pair with a removed edge matching modulo versions.
        let pair = positions.get_mut(&group(a)).and_then(BTreeSet::pop_first);
        let kind = match pair {
            Some(pos) => {
                let old = &diff.edges[removed.swap_remove(pos)];
                // `swap_remove` put the last element at `pos`: file it there,
                // so positions stay those of `removed` as it now is.
                if let Some(moved) = removed.get(pos) {
                    let set = positions.get_mut(&group(*moved)).expect("filed when collected");
                    set.remove(&removed.len());
                    set.insert(pos);
                }
                let caller_changed = diff.nodes[old.from].key.version != caller.version;
                let callee_changed = diff.nodes[old.to].key.version != callee.version;
                match (caller_changed, callee_changed) {
                    (true, true) => ChangeType::UpdatedVersion,
                    (true, false) => ChangeType::UpdatedCallerVersion,
                    (false, true) => ChangeType::UpdatedCalleeVersion,
                    // Same versions on both sides cannot be added+removed
                    // simultaneously; treat defensively as a new call.
                    (false, false) => ChangeType::CallingExistingEndpoint,
                }
            }
            None if in_baseline[pair_of[edge.to]] => ChangeType::CallingExistingEndpoint,
            None => ChangeType::CallingNewEndpoint,
        };
        changes.push(Change { kind, caller, callee });
    }
    // Unpaired removed edges are genuine removals.
    for r in removed {
        let edge = &diff.edges[r];
        changes.push(Change {
            kind: ChangeType::RemovingServiceCall,
            caller: diff.nodes[edge.from].key.clone(),
            callee: diff.nodes[edge.to].key.clone(),
        });
    }
    changes
}

/// [`classify`] with the pairing as a front-to-back scan of `removed` per
/// added edge: the oracle the position sets are tested against.
#[cfg(test)]
pub(crate) fn classify_by_scan(diff: &TopologicalDiff) -> Vec<Change> {
    let added: Vec<usize> = diff.edges_with(Status::Added).map(|(i, _)| i).collect();
    let mut removed: Vec<usize> = diff.edges_with(Status::Removed).map(|(i, _)| i).collect();
    let mut changes = Vec::new();
    let baseline_endpoints: std::collections::HashSet<(&str, &str)> =
        diff.nodes.iter().filter(|n| n.baseline.is_some()).map(|n| n.key.unversioned()).collect();

    for a in added {
        let edge = &diff.edges[a];
        let caller = diff.nodes[edge.from].key.clone();
        let callee = diff.nodes[edge.to].key.clone();
        let pair = removed.iter().position(|r| {
            let old = &diff.edges[*r];
            diff.nodes[old.from].key.unversioned() == caller.unversioned()
                && diff.nodes[old.to].key.unversioned() == callee.unversioned()
        });
        let kind = match pair {
            Some(pos) => {
                let old = &diff.edges[removed.swap_remove(pos)];
                let caller_changed = diff.nodes[old.from].key.version != caller.version;
                let callee_changed = diff.nodes[old.to].key.version != callee.version;
                match (caller_changed, callee_changed) {
                    (true, true) => ChangeType::UpdatedVersion,
                    (true, false) => ChangeType::UpdatedCallerVersion,
                    (false, true) => ChangeType::UpdatedCalleeVersion,
                    (false, false) => ChangeType::CallingExistingEndpoint,
                }
            }
            None if baseline_endpoints.contains(&callee.unversioned()) => {
                ChangeType::CallingExistingEndpoint
            }
            None => ChangeType::CallingNewEndpoint,
        };
        changes.push(Change { kind, caller, callee });
    }
    for r in removed {
        let edge = &diff.edges[r];
        changes.push(Change {
            kind: ChangeType::RemovingServiceCall,
            caller: diff.nodes[edge.from].key.clone(),
            callee: diff.nodes[edge.to].key.clone(),
        });
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::InteractionGraph;
    use cex_core::simtime::SimDuration;

    fn node(g: &mut InteractionGraph, s: &str, v: &str, e: &str) -> crate::graph::NodeIdx {
        let idx = g.intern(NodeKey::new(s, v, e));
        g.observe_node(idx, SimDuration::from_millis(10), true);
        idx
    }

    fn kinds(changes: &[Change]) -> Vec<ChangeType> {
        changes.iter().map(|c| c.kind).collect()
    }

    #[test]
    fn uncertainty_ordering_matches_the_paper() {
        // New endpoint > updated version > callee update > existing call
        // > caller update > removal.
        let u = |c: ChangeType| c.uncertainty().value();
        assert!(u(ChangeType::CallingNewEndpoint) > u(ChangeType::UpdatedVersion));
        assert!(u(ChangeType::UpdatedVersion) > u(ChangeType::UpdatedCalleeVersion));
        assert!(u(ChangeType::UpdatedCalleeVersion) > u(ChangeType::CallingExistingEndpoint));
        assert!(u(ChangeType::CallingExistingEndpoint) > u(ChangeType::UpdatedCallerVersion));
        assert!(u(ChangeType::UpdatedCallerVersion) > u(ChangeType::RemovingServiceCall));
    }

    #[test]
    fn fundamental_partition() {
        for c in ChangeType::all() {
            let composed = matches!(
                c,
                ChangeType::UpdatedCallerVersion
                    | ChangeType::UpdatedCalleeVersion
                    | ChangeType::UpdatedVersion
            );
            assert_eq!(c.is_fundamental(), !composed);
        }
    }

    #[test]
    fn calling_new_endpoint() {
        let mut b = InteractionGraph::new();
        let fe = node(&mut b, "fe", "1", "home");
        let svc = node(&mut b, "svc", "1", "api");
        b.observe_edge(fe, svc);

        let mut e = InteractionGraph::new();
        let fe2 = node(&mut e, "fe", "1", "home");
        let svc2 = node(&mut e, "svc", "1", "api");
        let cache = node(&mut e, "cache", "1", "get");
        e.observe_edge(fe2, svc2);
        e.observe_edge(svc2, cache);

        let diff = TopologicalDiff::compute(&b, &e);
        let changes = classify(&diff);
        assert_eq!(kinds(&changes), vec![ChangeType::CallingNewEndpoint]);
        assert_eq!(changes[0].callee.service, "cache");
    }

    #[test]
    fn calling_existing_endpoint() {
        // Baseline: fe->a, fe->b. Experimental adds a->b (b existed).
        let mut bg = InteractionGraph::new();
        let fe = node(&mut bg, "fe", "1", "home");
        let a = node(&mut bg, "a", "1", "api");
        let b = node(&mut bg, "b", "1", "api");
        bg.observe_edge(fe, a);
        bg.observe_edge(fe, b);

        let mut eg = InteractionGraph::new();
        let fe2 = node(&mut eg, "fe", "1", "home");
        let a2 = node(&mut eg, "a", "1", "api");
        let b2 = node(&mut eg, "b", "1", "api");
        eg.observe_edge(fe2, a2);
        eg.observe_edge(fe2, b2);
        eg.observe_edge(a2, b2);

        let diff = TopologicalDiff::compute(&bg, &eg);
        let changes = classify(&diff);
        assert_eq!(kinds(&changes), vec![ChangeType::CallingExistingEndpoint]);
    }

    #[test]
    fn removing_service_call() {
        let mut bg = InteractionGraph::new();
        let fe = node(&mut bg, "fe", "1", "home");
        let a = node(&mut bg, "a", "1", "api");
        bg.observe_edge(fe, a);

        let mut eg = InteractionGraph::new();
        let _fe = node(&mut eg, "fe", "1", "home");
        let _a = node(&mut eg, "a", "1", "api");

        let diff = TopologicalDiff::compute(&bg, &eg);
        let changes = classify(&diff);
        assert_eq!(kinds(&changes), vec![ChangeType::RemovingServiceCall]);
    }

    #[test]
    fn updated_callee_version() {
        let mut bg = InteractionGraph::new();
        let fe = node(&mut bg, "fe", "1", "home");
        let a1 = node(&mut bg, "a", "1", "api");
        bg.observe_edge(fe, a1);

        let mut eg = InteractionGraph::new();
        let fe2 = node(&mut eg, "fe", "1", "home");
        let a2 = node(&mut eg, "a", "2", "api");
        eg.observe_edge(fe2, a2);

        let diff = TopologicalDiff::compute(&bg, &eg);
        let changes = classify(&diff);
        assert_eq!(kinds(&changes), vec![ChangeType::UpdatedCalleeVersion]);
        assert_eq!(changes[0].callee.version, "2");
    }

    #[test]
    fn updated_caller_and_both_versions() {
        // caller update: fe@2 -> a@1 replacing fe@1 -> a@1.
        let mut bg = InteractionGraph::new();
        let fe1 = node(&mut bg, "fe", "1", "home");
        let a1 = node(&mut bg, "a", "1", "api");
        bg.observe_edge(fe1, a1);
        let mut eg = InteractionGraph::new();
        let fe2 = node(&mut eg, "fe", "2", "home");
        let a1e = node(&mut eg, "a", "1", "api");
        eg.observe_edge(fe2, a1e);
        let changes = classify(&TopologicalDiff::compute(&bg, &eg));
        assert_eq!(kinds(&changes), vec![ChangeType::UpdatedCallerVersion]);

        // both sides updated.
        let mut eg = InteractionGraph::new();
        let fe2 = node(&mut eg, "fe", "2", "home");
        let a2 = node(&mut eg, "a", "2", "api");
        eg.observe_edge(fe2, a2);
        let changes = classify(&TopologicalDiff::compute(&bg, &eg));
        assert_eq!(kinds(&changes), vec![ChangeType::UpdatedVersion]);
    }

    #[test]
    fn unchanged_diff_yields_no_changes() {
        let mut bg = InteractionGraph::new();
        let fe = node(&mut bg, "fe", "1", "home");
        let a = node(&mut bg, "a", "1", "api");
        bg.observe_edge(fe, a);
        let changes = classify(&TopologicalDiff::compute(&bg, &bg));
        assert!(changes.is_empty());
    }

    #[test]
    fn display_is_informative() {
        let c = Change {
            kind: ChangeType::CallingNewEndpoint,
            caller: NodeKey::new("a", "2", "x"),
            callee: NodeKey::new("n", "1", "y"),
        };
        assert_eq!(c.to_string(), "calling a new endpoint: a@2/x -> n@1/y");
    }
}
