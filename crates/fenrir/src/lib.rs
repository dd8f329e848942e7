//! # fenrir
//!
//! Search-based **scheduling of continuous experiments** (Chapter 3 of the
//! dissertation; Schermann & Leitner, ICSME 2018).
//!
//! Fenrir formulates experiment scheduling as an optimization problem:
//! find, for every experiment, a *plan* — start slot, duration, traffic
//! share, user groups — such that
//!
//! 1. every experiment collects its **required sample size** from the
//!    shared [traffic profile](cex_core::traffic::TrafficProfile),
//! 2. **conflicting experiments never overlap** on the same users at the
//!    same time (no skewed data), and
//! 3. no slot hands out more traffic than exists (capacity),
//!
//! while maximizing a fitness combining three objectives: experiments
//! should **not last longer than needed**, **start as soon as possible**,
//! and run on their **preferred user groups** (Section 3.4.3).
//!
//! The chromosome representation uses value encoding (Figure 3.1): the
//! genome *is* the vector of per-experiment plans, and crossover cuts at
//! experiment boundaries (Figure 3.2). Four search algorithms share this
//! representation:
//!
//! - [`ga::GeneticAlgorithm`] — the paper's contribution,
//! - [`random_sampling::RandomSampling`],
//! - [`local_search::LocalSearch`] (restarting hill climber),
//! - [`annealing::SimulatedAnnealing`],
//!
//! all driven through the [`runner`] harness at equal evaluation budgets so
//! fitness (Figures 3.4–3.6) and execution time (Table 3.3) are comparable.
//!
//! # Evaluation pipeline
//!
//! Fitness evaluation — the dominant cost of every search — runs through a
//! two-layer fast path:
//!
//! 1. **[`index::ProblemIndex`]**, built once per [`Problem`]: conflict
//!    adjacency lists, per-group traffic prefix sums (O(1) range-traffic
//!    queries), and cached objective normalizers.
//! 2. **[`incremental::IncrementalState`]**: single-plan moves (local
//!    search, annealing, GA mutation) re-score only the touched
//!    experiment, its conflict neighbors, and the slots inside the old/new
//!    plan spans — O(degree + plan span) instead of a full O(n²) pass,
//!    with results *bit-identical* to [`fitness::evaluate`].
//!
//! [`runner::Evaluator`] offers both paths under one budget: the GA,
//! random sampling and greedy score each candidate fully
//! ([`runner::Evaluator::eval`]), local search and annealing score each
//! neighbor as a diff against their incumbent
//! ([`runner::Evaluator::eval_diff`]). Every evaluation is scored and
//! accounted on the calling thread in the order it was asked for.
//!
//! # Example
//!
//! ```
//! use fenrir::generator::{ProblemGenerator, SampleSizeTier};
//! use fenrir::ga::GeneticAlgorithm;
//! use fenrir::runner::{Budget, Scheduler};
//!
//! let problem = ProblemGenerator::new(5, SampleSizeTier::Low).generate(42);
//! let result = GeneticAlgorithm::default().schedule(&problem, Budget::evaluations(4_000), 1);
//! assert!(result.best_report.is_valid(), "small instances schedule cleanly");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annealing;
pub mod constraints;
pub mod encoding;
pub mod fitness;
pub mod ga;
pub mod gantt;
pub mod generator;
pub mod greedy;
pub mod incremental;
pub mod index;
pub mod local_search;
pub mod problem;
pub mod random_sampling;
pub mod reevaluate;
pub mod runner;
pub mod schedule;

pub use fitness::FitnessReport;
pub use problem::{ExperimentRequest, Problem};
pub use runner::{Budget, Scheduler, SearchResult};
pub use schedule::{Plan, Schedule};
