//! # bifrost
//!
//! Middleware for the **automated enactment of multi-phase live testing
//! strategies** (Chapter 4 of the dissertation; Schermann et al.,
//! Middleware 2016 — Best Student Paper).
//!
//! A *strategy* chains experimentation phases — e.g. a canary release,
//! then a dark launch assessing scalability, then an A/B test, then a
//! gradual rollout — with **conditional chaining**: each phase declares
//! health *checks* over monitored metrics and actions for success,
//! failure, and inconclusive outcomes (rollback, retry, goto, complete).
//! Strategies are written in a **domain-specific language**
//! ("experimentation-as-code", Section 1.2.3) and compiled to a **state
//! machine** (Figure 4.2) whose transitions the engine drives from live
//! telemetry, enacting traffic-routing changes on the application.
//!
//! Module map:
//!
//! - [`model`] — the live-testing model of Section 4.3: strategies,
//!   phases, checks, actions.
//! - [`dsl`] — lexer + recursive-descent parser + pretty-printer for the
//!   strategy language.
//! - [`machine`] — compilation to a validated state machine.
//! - [`checks`] — time-based check scheduling and evaluation (Figure 4.3).
//! - [`enact`] — translating phases into router configurations
//!   (canary splits, dark-launch mirrors, A/B splits, rollout steps).
//! - [`decide`] — the rollout policy as one pure function: what a tick's
//!   check results mean for a strategy (ramp step, phase outcome, early
//!   stop, next state, retry budget).
//! - [`engine`] — the multi-strategy execution engine measured in
//!   Figures 4.6–4.10: the shell that gathers observations, calls
//!   [`decide::decide`] and enacts and journals the answer.
//! - [`journal`] — the structured, deterministic execution journal, a
//!   run's one record of what it did: check verdicts with the windows they
//!   read, transitions, enactments, per-tick engine accounting; JSONL in
//!   and out.
//! - [`verify`] — pre-launch static verification of strategy sets
//!   (the dissertation's §1.6.4 future work).
//!
//! # Example
//!
//! ```
//! use bifrost::dsl;
//!
//! let src = r#"
//! strategy "quick-canary" {
//!   service "recommendation"
//!   baseline "1.0.0"
//!   candidate "1.1.0"
//!   phase "canary" canary 10% for 5m {
//!     check error_rate < 0.05 over 1m every 30s
//!     on success complete
//!     on failure rollback
//!   }
//! }
//! "#;
//! let strategy = dsl::parse(src)?;
//! assert_eq!(strategy.phases.len(), 1);
//! # Ok::<(), bifrost::BifrostError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod decide;
pub mod dsl;
pub mod enact;
pub mod engine;
pub mod error;
pub mod journal;
pub mod machine;
pub mod model;
pub mod verify;

pub use engine::{Engine, EngineConfig, ExecutionReport, RuntimeReport};
pub use error::BifrostError;
pub use journal::{Journal, JournalEvent};
pub use model::{Action, Check, Phase, PhaseKind, Strategy};
