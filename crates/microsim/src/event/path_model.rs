//! The trace capture the merge had before span addresses, kept as the model
//! the capture differentials below drive beside it. Every span record
//! carried its root-to-span path as a `Vec<u32>`; one global sort on
//! `(request, path)` put each request's spans in pre-order, timeout patches
//! were applied by path, and every sampled request's trace was built and
//! then handed to [`TraceCollector::record`], which decided on it.
//!
//! The path is rebuilt from the address chain, three `u32`s a level —
//! `(call index, rank, sub)` — so sorting paths sorts slots. (The shipped
//! capture packed a level into one `u32` and saturated `sub` at 255, which
//! let attempts 255, 256, … share a path.)

use std::cell::RefCell;
use std::collections::HashMap;

use super::{EventRequest, SpanAddr, SpanRec, WindowBuffers, NO_FRAME};
use crate::trace::{Span, SpanId, SpanStatus, Trace, TraceCollector, TraceId};
use cex_core::simtime::{SimDuration, SimTime};

thread_local! {
    /// The model collector of the differential running on this thread (the
    /// merge runs on the thread that called the window).
    static MODEL: RefCell<Option<TraceCollector>> = const { RefCell::new(None) };
}

/// Feeds every window merged on this thread from now on to `collector` as
/// well, captured the old way.
fn install(collector: TraceCollector) {
    MODEL.with(|m| *m.borrow_mut() = Some(collector));
}

/// Stops feeding the model and returns its collector.
fn take() -> TraceCollector {
    MODEL.with(|m| m.borrow_mut().take()).expect("a model collector is installed")
}

/// Captures one window's traces into the installed model, if any. The
/// merge calls this before it groups the records.
pub(super) fn offer(reqs: &[EventRequest], out: &WindowBuffers) {
    MODEL.with(|m| {
        if let Some(collector) = m.borrow_mut().as_mut() {
            capture_by_path(reqs, out, collector);
        }
    });
}

fn capture_by_path(reqs: &[EventRequest], out: &WindowBuffers, collector: &mut TraceCollector) {
    // Frame identities are unique within a window.
    let frames: HashMap<u64, SpanAddr> =
        out.spans.iter().filter(|s| s.ident != NO_FRAME).map(|s| (s.ident, s.addr)).collect();
    let path_of = |mut addr: SpanAddr| -> Vec<u32> {
        let mut levels = Vec::new();
        while addr.parent != 0 {
            let (call, rank, sub) = addr.slot;
            levels.push([call, rank as u32, sub]);
            addr = frames[&addr.parent];
        }
        levels.into_iter().rev().flatten().collect()
    };
    let mut spans: Vec<(Vec<u32>, SpanRec)> =
        out.spans.iter().map(|s| (path_of(s.addr), *s)).collect();
    let mut patches: Vec<(u32, Vec<u32>, u64)> =
        out.patches.iter().map(|p| (p.req, path_of(p.addr), p.perceived_ms)).collect();
    // Stably, so equal paths keep the order they were recorded in.
    spans.sort_by(|a, b| (a.1.req, &a.0).cmp(&(b.1.req, &b.0)));
    patches.sort_by_key(|p| p.0);
    let (mut span_at, mut patch_at) = (0, 0);
    for (i, meta) in reqs.iter().enumerate() {
        let req = i as u32;
        let span_end = span_at + spans[span_at..].iter().take_while(|s| s.1.req == req).count();
        let patch_end = patch_at + patches[patch_at..].iter().take_while(|p| p.0 == req).count();
        if let Some(trace_id) = meta.trace {
            let trace = assemble_by_path(
                trace_id,
                &mut spans[span_at..span_end],
                &patches[patch_at..patch_end],
            );
            collector.record(trace);
        }
        (span_at, patch_at) = (span_end, patch_end);
    }
}

/// One request's trace from its span records in path order: patches
/// applied to the first span on their path, every span's parent found by
/// binary search on its path less the last level, ids by position.
fn assemble_by_path(
    trace_id: TraceId,
    spans: &mut [(Vec<u32>, SpanRec)],
    patches: &[(u32, Vec<u32>, u64)],
) -> Trace {
    for (_, path, perceived_ms) in patches {
        if let Some((_, s)) = spans.iter_mut().find(|(p, _)| p == path) {
            s.duration_ms = *perceived_ms;
            s.status = SpanStatus::TimedOut;
        }
    }
    let out = spans
        .iter()
        .enumerate()
        .map(|(i, (path, s))| {
            let parent = (!path.is_empty()).then(|| {
                let parent_path = &path[..path.len() - 3];
                let idx = spans
                    .binary_search_by(|(cand, _)| cand.as_slice().cmp(parent_path))
                    .expect("parent span exists");
                SpanId(idx as u32)
            });
            Span {
                span: SpanId(i as u32),
                parent,
                version: s.version,
                endpoint: s.endpoint,
                start: SimTime::from_millis(s.start_ms),
                duration: SimDuration::from_millis(s.duration_ms),
                status: s.status,
                attempt: s.attempt,
                dark: s.dark,
            }
        })
        .collect();
    Trace::new(trace_id, out)
}

mod tests {
    use super::{install, take};
    use crate::app::{Application, CallDef, EndpointDef, VersionSpec};
    use crate::faults::{Fault, FaultKind};
    use crate::latency::LatencyModel;
    use crate::resilience::{BreakerPolicy, CallPolicy};
    use crate::sim::Simulation;
    use crate::trace::{SpanId, SpanStatus, TailSamplingConfig, Trace};
    use cex_core::metrics::MetricKind;
    use cex_core::simtime::{SimDuration, SimTime};

    /// Runs `windows` windows of `sim` with the path model beside the merge
    /// and asserts the two captured the same traces — one by one — and the
    /// same sampling accounting. Returns the traces and the store's sample
    /// count per kind.
    fn assert_capture_matches_model(
        mut sim: Simulation,
        windows: usize,
        rate_rps: f64,
    ) -> (Vec<Trace>, impl Fn(MetricKind) -> usize) {
        install(sim.trace_collector().clone());
        for _ in 0..windows {
            sim.run(SimDuration::from_secs(10), rate_rps);
        }
        let mut model = take();
        assert_eq!(sim.trace_collector().sampling_stats(), model.sampling_stats());
        let (shipped, expected) = (sim.drain_traces(), model.drain());
        assert_eq!(shipped.len(), expected.len(), "kept traces");
        for (got, want) in shipped.iter().zip(&expected) {
            assert_eq!(got, want, "trace {}", want.id);
        }
        let scopes = sim.store().scopes();
        let counts: Vec<(MetricKind, usize)> = MetricKind::all()
            .into_iter()
            .map(|kind| (kind, scopes.iter().map(|s| sim.store().count(s, kind)).sum()))
            .collect();
        let count = move |kind| counts.iter().find(|(k, _)| *k == kind).map_or(0, |(_, n)| *n);
        (shipped, count)
    }

    /// `fe` calls `api` (one slot, a queue of two, mirrored to a dark
    /// `api@2.0.0`), `cart` sometimes (a heavy tail past the deadline) and
    /// `db`, which every tier calls and which is out from 10 s to 20 s;
    /// every edge runs timeouts, jittered retries, a breaker and a fallback.
    fn chaos_sim(tail: bool) -> Simulation {
        let tier = |service: &str, version: &str, latency: LatencyModel| {
            VersionSpec::new(service, version).capacity(1_000.0).load_sensitivity(0.0).endpoint(
                EndpointDef::new("x", latency).call(CallDef::with_probability("db", "q", 0.6)),
            )
        };
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("fe", "1.0.0").capacity(1_000.0).endpoint(
                EndpointDef::new("home", LatencyModel::web(2.0))
                    .call(CallDef::always("api", "x"))
                    .call(CallDef::with_probability("cart", "x", 0.7))
                    .call(CallDef::always("db", "q")),
            ),
        );
        b.version(
            tier("api", "1.0.0", LatencyModel::web(9.0)).concurrency_limit(1).queue_capacity(2),
        );
        b.version(tier("api", "2.0.0", LatencyModel::web(9.0)));
        b.version(tier("cart", "1.0.0", LatencyModel::LogNormal { median_ms: 12.0, sigma: 0.9 }));
        b.version(
            VersionSpec::new("db", "1.0.0")
                .capacity(1_000.0)
                .endpoint(EndpointDef::new("q", LatencyModel::web(3.0)).error_rate(0.02)),
        );
        let app = b.build().unwrap();
        let (api, dark, db) = (
            app.service_id("api").unwrap(),
            app.version_id("api", "2.0.0").unwrap(),
            app.version_id("db", "1.0.0").unwrap(),
        );
        let mut sim = Simulation::new(app, 0x7A11);
        let (app, router) = sim.app_and_router_mut();
        router.add_mirror(app, api, dark).unwrap();
        sim.set_trace_sampling(1.0);
        sim.set_tail_sampling(tail.then_some(TailSamplingConfig {
            healthy_keep_one_in: 4,
            slow_quantile: 0.9,
            warmup: 64,
        }));
        sim.set_call_policy(CallPolicy {
            attempt_timeout: Some(SimDuration::from_millis(25)),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(4),
            backoff_multiplier: 2.0,
            jitter: 0.5,
            breaker: Some(BreakerPolicy {
                error_threshold: 0.5,
                min_calls: 10,
                window: 40,
                cooldown: SimDuration::from_secs(3),
                half_open_probes: 3,
            }),
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
        });
        sim.inject_fault(Fault {
            version: db,
            kind: FaultKind::Outage,
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        sim
    }

    #[test]
    fn capture_matches_the_path_model() {
        let [full, sampled] = [false, true].map(|tail| {
            let (traces, count) = assert_capture_matches_model(chaos_sim(tail), 3, 80.0);
            let spans = || traces.iter().flat_map(|t| &t.spans);
            let statuses = |status| spans().filter(|s| s.status == status).count();
            // The run walks every path the capture has to order.
            for kind in [MetricKind::QueueDelay, MetricKind::Shed, MetricKind::Retry] {
                assert!(count(kind) > 0, "no {kind:?} sample");
            }
            for status in [SpanStatus::TimedOut, SpanStatus::Shed, SpanStatus::Fallback] {
                assert!(statuses(status) > 0, "no {status:?} span");
            }
            assert!(spans().any(|s| s.dark), "no dark span");
            assert!(spans().any(|s| s.attempt > 0), "no retry span");
            traces
        });
        // Tail sampling kept a strict subset.
        assert!(sampled.len() < full.len());
        assert!(sampled.iter().any(|t| t.weight > 1));
    }

    #[test]
    fn attempts_past_255_keep_their_own_span() {
        // A callee that always overruns its deadline, retried 300 times:
        // 301 attempt spans, each timed out after the caller's own wait.
        // (Packed into a `u32` with `sub` saturated at 255, attempts 255
        // onwards shared one path: the patch re-statused attempt 255 every
        // time and left the later ones `Ok`.)
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("fe", "1.0.0").endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 1.0 })
                    .call(CallDef::always("be", "api")),
            ),
        );
        b.version(
            VersionSpec::new("be", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        let mut sim = Simulation::new(b.build().unwrap(), 3);
        sim.set_trace_sampling(1.0);
        sim.set_call_policy(CallPolicy {
            attempt_timeout: Some(SimDuration::from_millis(5)),
            max_retries: 300,
            backoff_base: SimDuration::from_millis(1),
            backoff_multiplier: 1.0,
            ..CallPolicy::default()
        });
        let (traces, _) = assert_capture_matches_model(sim, 1, 0.3);
        assert!(!traces.is_empty());
        for trace in &traces {
            let attempts: Vec<_> = trace.children_of(SpanId(0)).collect();
            assert_eq!(attempts.len(), 301);
            for (i, span) in attempts.iter().enumerate() {
                assert_eq!(span.status, SpanStatus::TimedOut, "attempt {i}");
                assert_eq!(span.duration, SimDuration::from_millis(5), "attempt {i}");
                assert_eq!(span.attempt, i.min(255) as u8);
            }
            assert!(attempts.windows(2).all(|w| w[0].start < w[1].start));
            assert_eq!(trace.spans.len(), 302);
        }
    }
}
