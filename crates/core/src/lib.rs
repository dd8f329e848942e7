//! # cex-core
//!
//! Shared domain model for the continuous-experimentation framework
//! (Schermann, *Continuous Experimentation for Software Developers*,
//! Middleware 2017 / University of Zurich dissertation 2019).
//!
//! The dissertation derives a conceptual framework with three models —
//! a *planning* model (experiment scheduling, crate `fenrir`), an
//! *execution* model (multi-phase live testing, crate `bifrost`) and an
//! *analysis* model (topology-aware health assessment, crate `topology`).
//! This crate holds the vocabulary those models share:
//!
//! - [`experiment`] — experiments, the regression-driven vs. business-driven
//!   classification from the empirical study (Chapter 2), and the concrete
//!   experimentation practices (canary release, dark launch, gradual rollout,
//!   A/B test).
//! - [`users`] — user groups and populations experiments are run on.
//! - [`traffic`] — traffic profiles describing how many user interactions are
//!   available per time slot (the scarce resource Fenrir schedules).
//! - [`metrics`] — metric kinds, samples and streaming summary statistics used
//!   by checks and health assessment.
//! - [`simtime`] — virtual time used by the discrete-event substrate.
//! - [`stats`] — two-sample hypothesis testing (Welch's t-test) powering
//!   significance checks for business-driven experiments.
//! - [`sequential`] — always-valid sequential testing (mixture SPRT) so
//!   checks can monitor continuously without the fixed-α "peeking" bug.
//! - [`sketch`] — mergeable DDSketch-style quantile sketches with bounded
//!   relative error and bounded state, the streaming replacement for raw
//!   latency samples in the health pipeline.
//! - [`uncertainty`] — the scalar uncertainty notion used when classifying
//!   changes (Section 1.2.4 of the dissertation).
//! - [`rng`] — deterministic, seedable randomness helpers so every experiment
//!   in this repository is reproducible.
//! - [`json`] — minimal, byte-deterministic JSON reading/writing used by the
//!   Bifrost execution journal and the bench result files.
//! - [`intern`] — the shared string interner behind both the telemetry
//!   store's metric scopes and the trace pipeline's span identity.
//! - [`obs`] — runtime self-observability: hierarchical profiling spans,
//!   the unified counter registry, and the determinism split between
//!   wall-clock timings (sidecar report only) and seed-pure counters
//!   (journaled).
//!
//! # Example
//!
//! ```
//! use cex_core::experiment::{Experiment, ExperimentKind, Practice};
//! use cex_core::users::UserGroup;
//!
//! let exp = Experiment::builder("recommendation-canary")
//!     .kind(ExperimentKind::RegressionDriven)
//!     .practice(Practice::CanaryRelease)
//!     .service("recommendation")
//!     .required_sample_size(50_000)
//!     .preferred_group(UserGroup::new("eu-west", 120_000))
//!     .build();
//! assert_eq!(exp.name(), "recommendation-canary");
//! assert!(exp.kind().is_regression_driven());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod experiment;
pub mod intern;
pub mod json;
pub mod metrics;
pub mod obs;
pub mod rng;
pub mod sequential;
pub mod simtime;
pub mod sketch;
pub mod stats;
pub mod traffic;
pub mod uncertainty;
pub mod users;

pub use error::CoreError;
pub use experiment::{Experiment, ExperimentId, ExperimentKind, Practice};
pub use intern::{Interner, Sym};
pub use metrics::{MetricKind, Sample, Summary};
pub use simtime::{SimDuration, SimTime};
pub use traffic::TrafficProfile;
pub use uncertainty::Uncertainty;
pub use users::{Population, UserGroup};
