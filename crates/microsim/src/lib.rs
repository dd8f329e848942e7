//! # microsim
//!
//! A deterministic, discrete-event **microservice application simulator** —
//! the substrate the paper's evaluations run on.
//!
//! The dissertation evaluates Bifrost (Chapter 4) against a microservice
//! case-study application deployed on public-cloud VMs, and the
//! topology-aware health assessment (Chapter 5) against distributed traces
//! collected from such applications. Neither a cloud testbed nor production
//! traces are available here, so this crate implements the closest synthetic
//! equivalent that exercises the same code paths (see `DESIGN.md`):
//!
//! - [`app`] — services, deployable versions, endpoints, and the call graph
//!   between them (the static application model).
//! - [`latency`] — per-endpoint latency models (constant, uniform,
//!   log-normal) with load-dependent inflation.
//! - [`routing`] — the proxy/traffic-routing layer Bifrost enacts
//!   experiments through: weighted version splits, sticky user assignment,
//!   and dark-launch traffic mirroring.
//! - [`load`] — per-version arrival-rate tracking driving latency inflation
//!   (this is what makes dark-launch traffic duplication visibly costly,
//!   as observed in Section 1.2.3 of the dissertation).
//! - [`event`] — the request core, a discrete-event scheduler: each request
//!   a chain of events that samples latencies along its call tree and
//!   yields an end-to-end response time and a distributed trace, under
//!   per-version concurrency limits and bounded admission queues. (Its
//!   test-only reference implementation, a recursive walk, is `exec.rs`.)
//! - [`faults`] — scheduled fault windows (latency spikes, error bursts,
//!   outages) for failure-injection experiments.
//! - [`trace`] — Zipkin/Jaeger-style spans with interned identity, bounded
//!   trace retention and streaming per-edge aggregates (the input of
//!   Chapter 5 and the health pipeline).
//! - [`health`] — folds drained traces into per-`service@version`
//!   interaction graphs and canary-vs-baseline health reports.
//! - [`monitor`] — a windowed metric store (the input of Bifrost checks).
//! - [`workload`] — open-loop Poisson request generation over user
//!   populations.
//! - [`sim`] — the simulation facade tying everything to a virtual clock.
//! - [`topologies`] — the canned case-study application (Figure 4.5) and
//!   random application generators for scalability studies.
//!
//! # Example
//!
//! ```
//! use microsim::sim::Simulation;
//! use microsim::topologies;
//! use cex_core::simtime::SimDuration;
//!
//! let app = topologies::case_study_app();
//! let mut sim = Simulation::new(app, 42);
//! let report = sim.run(SimDuration::from_secs(10), 50.0);
//! assert!(report.requests > 0);
//! assert!(report.response_time.mean > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod corpus;
pub mod error;
pub mod event;
#[cfg(test)]
mod exec;
pub mod faults;
#[cfg(test)]
mod fold_oracle;
pub mod health;
pub mod latency;
pub mod load;
pub mod monitor;
pub mod resilience;
pub mod routing;
pub mod sim;
pub mod topologies;
pub mod trace;
pub mod workload;

pub use app::{Application, EndpointId, ServiceId, VersionId};
pub use error::SimError;
pub use monitor::MetricStore;
pub use routing::Router;
pub use sim::Simulation;
pub use trace::{Span, SpanBook, SpanStatus, Trace, TraceCollector};
