//! Precomputed evaluation caches: the [`ProblemIndex`].
//!
//! Every fitness evaluation used to re-derive the same problem facts —
//! which experiments conflict, how much traffic a slot range carries, what
//! the objective normalization spans are. The index computes them **once
//! per [`Problem`](crate::problem::Problem)** so the hot evaluation path
//! (full and incremental) only reads:
//!
//! - **conflict adjacency lists** — `neighbors(i)` replaces the O(n²)
//!   all-pairs conflict sweep with an O(Σ degree) walk;
//! - **traffic prefix sums** — `range_traffic(g, a, b)` answers "how many
//!   interactions does group `g` carry in slots `a..b`" in O(1), turning
//!   sample-size accounting from O(span × groups) into O(groups);
//! - **objective normalizers** — the per-experiment duration/start spans
//!   and the preferred-group membership mask of the fitness function.
//!
//! The index is immutable and derived deterministically from the problem,
//! so it cannot change results.

use crate::problem::ExperimentRequest;
use cex_core::experiment::ExperimentId;
use cex_core::traffic::TrafficProfile;
use cex_core::users::GroupId;

/// Cached objective normalizers of one experiment (Section 3.4.3's
/// denominators, computed once instead of per evaluation).
#[derive(Debug, Clone, PartialEq)]
pub struct ObjectiveNorms {
    /// Maximum duration clipped to the horizon.
    pub max_duration: usize,
    /// `max_duration - min_duration_slots` as a float (duration objective
    /// denominator; `0.0` when degenerate).
    pub duration_span: f64,
    /// Latest start that still fits the minimum duration.
    pub latest_useful_start: usize,
    /// `latest_useful_start - earliest_start_slot` as a float (start
    /// objective denominator; `0.0` when degenerate).
    pub start_span: f64,
}

/// Precomputed per-problem caches for fast schedule evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemIndex {
    horizon: usize,
    groups: usize,
    /// Sorted conflict neighbors per experiment.
    neighbors: Vec<Vec<ExperimentId>>,
    /// Per-group traffic prefix sums, row-major:
    /// `prefix[g * (horizon + 1) + s]` = Σ available(0..s, g).
    prefix: Vec<f64>,
    /// Per-experiment objective normalizers.
    norms: Vec<ObjectiveNorms>,
    /// Preferred-group membership, row-major `[experiment][group]`
    /// (`true` when the group is preferred). Empty preference lists have
    /// an all-`false` row; [`has_preference`](Self::has_preference)
    /// distinguishes them.
    preferred: Vec<bool>,
    /// Whether the experiment declares any preferred group.
    has_pref: Vec<bool>,
}

impl ProblemIndex {
    /// Builds the index. Called once from `Problem::new`.
    pub(crate) fn build(
        experiments: &[ExperimentRequest],
        traffic: &TrafficProfile,
        conflict: &[Vec<bool>],
    ) -> Self {
        let n = experiments.len();
        let horizon = traffic.horizon_slots();
        let groups = traffic.groups();

        let neighbors = (0..n)
            .map(|i| (0..n).filter(|j| conflict[i][*j]).map(ExperimentId).collect())
            .collect();

        let mut prefix = vec![0.0; groups * (horizon + 1)];
        for g in 0..groups {
            let row = g * (horizon + 1);
            let mut acc = 0.0;
            for s in 0..horizon {
                acc += traffic.available(s, GroupId(g));
                prefix[row + s + 1] = acc;
            }
        }

        let norms = experiments
            .iter()
            .map(|e| {
                let max_duration = e.max_duration_slots.min(horizon);
                let duration_span = if max_duration <= e.min_duration_slots {
                    0.0
                } else {
                    (max_duration - e.min_duration_slots) as f64
                };
                let latest_useful_start = horizon.saturating_sub(e.min_duration_slots);
                let start_span = if latest_useful_start <= e.earliest_start_slot {
                    0.0
                } else {
                    (latest_useful_start - e.earliest_start_slot) as f64
                };
                ObjectiveNorms { max_duration, duration_span, latest_useful_start, start_span }
            })
            .collect();

        let mut preferred = vec![false; n * groups];
        let mut has_pref = vec![false; n];
        for (i, e) in experiments.iter().enumerate() {
            has_pref[i] = !e.preferred_groups.is_empty();
            for g in &e.preferred_groups {
                preferred[i * groups + g.0] = true;
            }
        }

        ProblemIndex { horizon, groups, neighbors, prefix, norms, preferred, has_pref }
    }

    /// Sorted conflict neighbors of `id`.
    pub fn neighbors(&self, id: ExperimentId) -> &[ExperimentId] {
        &self.neighbors[id.0]
    }

    /// Traffic available to `group` over the slot range `start..end`
    /// (clamped to the horizon) in O(1).
    pub fn range_traffic(&self, group: GroupId, start: usize, end: usize) -> f64 {
        let lo = start.min(self.horizon);
        let hi = end.min(self.horizon);
        if hi <= lo {
            return 0.0;
        }
        let row = group.0 * (self.horizon + 1);
        self.prefix[row + hi] - self.prefix[row + lo]
    }

    /// Cached objective normalizers of `id`.
    pub fn norms(&self, id: ExperimentId) -> &ObjectiveNorms {
        &self.norms[id.0]
    }

    /// Whether `group` is preferred by `id` (O(1)).
    pub fn is_preferred(&self, id: ExperimentId, group: GroupId) -> bool {
        self.preferred[id.0 * self.groups + group.0]
    }

    /// Whether `id` declares any preferred group.
    pub fn has_preference(&self, id: ExperimentId) -> bool {
        self.has_pref[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Problem;
    use cex_core::users::{Population, UserGroup};

    fn problem() -> Problem {
        let pop =
            Population::new(vec![UserGroup::new("a", 100), UserGroup::new("b", 100)]).unwrap();
        let traffic =
            TrafficProfile::from_matrix(6, 2, (0..12).map(|v| v as f64).collect()).unwrap();
        let mut e0 = ExperimentRequest::new("e0", "svc", 10.0);
        e0.preferred_groups = vec![GroupId(1)];
        let e1 = ExperimentRequest::new("e1", "svc", 10.0);
        let e2 = ExperimentRequest::new("e2", "other", 10.0);
        Problem::new(vec![e0, e1, e2], pop, traffic).unwrap()
    }

    #[test]
    fn neighbors_mirror_conflict_matrix() {
        let p = problem();
        let idx = p.index();
        assert_eq!(idx.neighbors(ExperimentId(0)), &[ExperimentId(1)]);
        assert_eq!(idx.neighbors(ExperimentId(1)), &[ExperimentId(0)]);
        assert!(idx.neighbors(ExperimentId(2)).is_empty());
    }

    #[test]
    fn range_traffic_matches_direct_sum() {
        let p = problem();
        let idx = p.index();
        for g in 0..2 {
            for start in 0..=6 {
                for end in start..=8 {
                    let direct: f64 =
                        (start..end.min(6)).map(|s| p.traffic().available(s, GroupId(g))).sum();
                    let fast = idx.range_traffic(GroupId(g), start, end);
                    assert!((fast - direct).abs() < 1e-12, "g{g} {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn preference_mask_matches_request() {
        let p = problem();
        let idx = p.index();
        assert!(idx.has_preference(ExperimentId(0)));
        assert!(idx.is_preferred(ExperimentId(0), GroupId(1)));
        assert!(!idx.is_preferred(ExperimentId(0), GroupId(0)));
        assert!(!idx.has_preference(ExperimentId(1)));
    }

    #[test]
    fn norms_match_request_bounds() {
        let p = problem();
        let idx = p.index();
        let e = p.experiment(ExperimentId(0));
        let norms = idx.norms(ExperimentId(0));
        assert_eq!(norms.max_duration, e.max_duration_slots.min(p.horizon()));
        assert_eq!(norms.latest_useful_start, p.horizon() - e.min_duration_slots);
    }
}
