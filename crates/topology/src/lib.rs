//! # topology
//!
//! **Topology-aware continuous experimentation** — experiment health
//! assessment from distributed traces (Chapter 5 of the dissertation;
//! Schermann, Oliveira, Wittern & Leitner).
//!
//! Previous canary-analysis tools consider the service under test in
//! isolation; this crate follows the dissertation in analyzing the whole
//! *interaction graph*: which service versions call which endpoints of
//! which other versions. Comparing the graphs of the baseline and the
//! experimental variant of an application yields a **topological
//! difference**, whose added/removed/updated elements are classified into
//! the paper's **change types** (Section 5.4.3):
//!
//! - fundamental: *calling a new endpoint*, *calling an existing
//!   endpoint*, *removing a service call*;
//! - composed: *updated caller version*, *updated callee version*,
//!   *updated version*.
//!
//! Changes are then **ranked** by their potential negative impact on the
//! experiment's health using three heuristic families in six variations
//! (Section 5.5): subtree complexity, response-time analysis, and hybrids
//! of the two. Ranking quality is measured with **nDCG@5** against graded
//! relevance (Figures 5.6 and 5.8); scalability on graphs of up to 10,000
//! endpoints (Figures 5.9 and 5.10).
//!
//! # Example
//!
//! ```
//! use topology::scenarios;
//! use topology::heuristics::{self, Heuristic};
//! use topology::rank;
//!
//! let scenario = scenarios::scenario_1(true, 42);
//! let heuristic = heuristics::hybrid_default();
//! let ranking = rank::rank(heuristic.as_ref(), &scenario.analysis(), &scenario.changes);
//! let ndcg = rank::ndcg_at(&ranking, &scenario.relevance, 5);
//! assert!(ndcg > 0.5, "ndcg {ndcg}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod changes;
pub mod diff;
#[cfg(test)]
mod differential;
pub mod graph;
pub mod heuristics;
pub mod perf;
pub mod rank;
pub mod render;
pub mod scenarios;

pub use changes::{Change, ChangeType};
pub use diff::{Status, TopologicalDiff};
pub use graph::{InteractionGraph, NodeKey};
pub use rank::{ndcg_at, rank, Ranking};
