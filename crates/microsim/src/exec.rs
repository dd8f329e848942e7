//! The request model's reference implementation: one request, walked
//! depth-first to completion. Test-only.
//!
//! What ships is the discrete-event core ([`crate::event`]). This walk is
//! the oracle it is held against: the `event_core_matches_recursive_*`
//! differentials there run whole simulations on both, and the
//! request-semantics tests below assert the same numbers on both, one
//! request at a time. The walk knows no concurrency — it finishes one
//! request before it starts the next — so the differentials are
//! closed-loop (no limit, no queue), at zero load sensitivity (the walk
//! feeds the load tracker in request order, the event core in time order)
//! and without breakers (call order against outcome-time order). The
//! one-request tests need none of these restrictions.
//!
//! One simulated request enters the application at an endpoint, the router
//! resolves which deployed version serves each hop, latencies are sampled
//! under current load, and the hop tree is emitted as a distributed trace.
//! Dark-launch mirrors execute the mirrored subtree *in addition to* the
//! primary one — its latency never reaches the user but its load does,
//! which is exactly the cascading-cost effect the paper reports for dark
//! launches (Section 1.2.3).
//!
//! Span bookkeeping is pre-order and allocation-free: every hop pushes an
//! interned placeholder span *before* recursing (so parents precede their
//! children and span ids equal positions) and patches duration/status on
//! the way out. The resilience layer is fully visible in traces: each
//! retry attempt is its own child span carrying its attempt number, a
//! timed-out attempt is re-statused [`SpanStatus::TimedOut`] with the
//! caller-observed wait, and breaker sheds / fallback responses emit
//! zero-work event spans — a trace of a degraded request shows *why* it
//! degraded.

use crate::app::{Application, EndpointId, ServiceId, VersionId, MAX_CALL_DEPTH};
use crate::error::SimError;
use crate::faults::FaultPlan;
use crate::load::LoadTracker;
use crate::monitor::MetricSink;
use crate::resilience::{BreakerState, CallDecision, CallPolicy, ResilienceState};
use crate::routing::{Router, UserId};
use crate::trace::{Span, SpanId, SpanStatus, Trace, TraceId};
use cex_core::metrics::MetricKind;
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};

/// The call policy and the breaker state handed to the walk for one
/// request.
///
/// The split keeps the policy immutable (shared config) while the breaker
/// state mutates with the request stream.
#[derive(Debug)]
pub(crate) struct Resilience<'a> {
    /// The policy every inter-service call runs under.
    pub(crate) policy: CallPolicy,
    /// Mutable breaker state and transition log.
    pub(crate) state: &'a mut ResilienceState,
}

/// Outcome of one executed request.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RequestResult {
    /// User-perceived end-to-end response time (mirrored work excluded).
    pub(crate) response_time: SimDuration,
    /// `true` when the whole primary call tree succeeded.
    pub(crate) ok: bool,
    /// The trace, when sampled.
    pub(crate) trace: Option<Trace>,
}

/// Executes one request against the application.
///
/// * `user` — drives sticky routing decisions.
/// * `entry_service`/`entry_endpoint` — where the request enters.
/// * `rng` — the request's private random stream. Exactly two values are
///   drawn from it (the root hop's stream seed and the conversion draw);
///   every hop then derives its own [`SplitMix64`] stream from a seed
///   drawn in its caller's stream. This seed-chaining makes each hop's
///   randomness independent of sibling subtree shapes, which is what lets
///   the event core reproduce this walk's outcomes from independently
///   scheduled events.
/// * `now` — virtual arrival time.
/// * `trace_id` — `Some` when the trace collector sampled this request.
/// * `sink` — when present, per-hop response times and error indicators
///   are recorded under the `service@version` scope (batched; flushed by
///   the caller at deterministic boundaries).
/// * `resilience` — when present, primary child calls on edges with a
///   [`CallPolicy`] get timeouts, retries, circuit breaking, and
///   fallbacks; retries re-enter the latency/fault models at the shifted
///   attempt time and breaker state persists in the caller-owned
///   [`ResilienceState`].
/// * `faults` — active fault windows applied on top of the normal latency
///   and error models.
///
/// # Errors
///
/// Returns [`SimError`] when a name does not resolve or the call tree
/// exceeds [`MAX_CALL_DEPTH`] (which [`Application::validate`] rules out).
#[allow(clippy::too_many_arguments)]
pub(crate) fn execute_request(
    app: &Application,
    router: &Router,
    load: &mut LoadTracker,
    rng: &mut SplitMix64,
    user: UserId,
    entry_service: ServiceId,
    entry_endpoint: &str,
    now: SimTime,
    trace_id: Option<TraceId>,
    sink: Option<&mut MetricSink<'_>>,
    resilience: Option<Resilience<'_>>,
    faults: &FaultPlan,
) -> Result<RequestResult, SimError> {
    let root_seed = rng.next_u64();
    let conv_u = rng.next_f64();
    let mut ctx = ExecCtx {
        app,
        router,
        load,
        user,
        sink,
        resilience,
        faults,
        spans: Vec::new(),
        trace_id,
        next_span: 0,
        visited: Vec::new(),
    };
    let outcome = ctx.hop(entry_service, entry_endpoint, now, None, false, 0, 0, root_seed)?;
    // Conversion attribution: the request converts with a probability
    // blending all (primary-path) versions it touched, and the 0/1 outcome
    // is credited to each of them — how A/B variants are compared on
    // business metrics even when they sit deep in the call graph.
    if ctx.sink.is_some() && !ctx.visited.is_empty() {
        let mean_rate = ctx.visited.iter().map(|v| app.version(*v).conversion_rate).sum::<f64>()
            / ctx.visited.len() as f64;
        let converted = outcome.ok && conv_u < mean_rate;
        let value = if converted { 1.0 } else { 0.0 };
        if let Some(sink) = ctx.sink.as_deref_mut() {
            for version in &ctx.visited {
                sink.record_version(*version, MetricKind::ConversionRate, now, value);
            }
        }
    }
    let trace = trace_id.map(|id| Trace::new(id, ctx.spans));
    Ok(RequestResult { response_time: outcome.duration, ok: outcome.ok, trace })
}

struct HopOutcome {
    duration: SimDuration,
    ok: bool,
    /// Index of the hop's span in `ExecCtx::spans`, when tracing.
    span: Option<usize>,
}

struct ExecCtx<'a, 'b> {
    app: &'a Application,
    router: &'a Router,
    load: &'a mut LoadTracker,
    user: UserId,
    sink: Option<&'a mut MetricSink<'b>>,
    resilience: Option<Resilience<'a>>,
    faults: &'a FaultPlan,
    spans: Vec<Span>,
    trace_id: Option<TraceId>,
    next_span: u32,
    /// Distinct versions serving primary (non-dark) hops of this request.
    visited: Vec<VersionId>,
}

impl ExecCtx<'_, '_> {
    #[allow(clippy::too_many_arguments)]
    fn hop(
        &mut self,
        service: ServiceId,
        endpoint_name: &str,
        start: SimTime,
        parent: Option<SpanId>,
        dark: bool,
        depth: usize,
        attempt: u8,
        seed: u64,
    ) -> Result<HopOutcome, SimError> {
        let version = self.router.resolve(self.app, service, self.user);
        self.hop_on_version(version, endpoint_name, start, parent, dark, depth, attempt, seed)
    }

    #[allow(clippy::too_many_arguments)]
    fn hop_on_version(
        &mut self,
        version: VersionId,
        endpoint_name: &str,
        start: SimTime,
        parent: Option<SpanId>,
        dark: bool,
        depth: usize,
        attempt: u8,
        seed: u64,
    ) -> Result<HopOutcome, SimError> {
        if depth > MAX_CALL_DEPTH {
            return Err(SimError::CallDepthExceeded { limit: MAX_CALL_DEPTH });
        }
        let endpoint_id = self.app.endpoint_of(version, endpoint_name)?;
        self.load.record_arrival(version, start);
        if !dark && !self.visited.contains(&version) {
            self.visited.push(version);
        }

        let span_id = SpanId(self.next_span);
        self.next_span += 1;
        // Pre-order placeholder: push the hop's span *before* recursing so
        // parents precede children and `spans[i].span == SpanId(i)`;
        // duration/status are patched on the way out.
        let span_idx = self.trace_id.map(|_| {
            let idx = self.spans.len();
            self.spans.push(Span {
                span: span_id,
                parent,
                version,
                endpoint: endpoint_id,
                start,
                duration: SimDuration::ZERO,
                status: SpanStatus::Ok,
                attempt,
                dark,
            });
            idx
        });

        // The hop's private random stream, derived from a seed drawn in
        // the caller's stream: draw order inside one hop is fixed
        // (latency, own failure, then per call: probability, child seed,
        // mirror seeds) so the event core can replay it event by event.
        let mut hrng = SplitMix64::new(seed);
        let fault = self.faults.effects(version, start);
        let multiplier = self.load.multiplier(self.app, version) * fault.latency_multiplier;
        let endpoint = self.app.endpoint(endpoint_id);
        let own_latency = endpoint.latency.sample(&mut hrng, multiplier);
        // Combined failure probability, clamped exactly once at the point
        // of use: the endpoint's own rate and overlapping fault windows
        // each stay in domain individually but their *sum* may exceed 1
        // (e.g. 0.9 + 0.9), and `FaultPlan::effects` deliberately does
        // not cap so that no composition information is lost upstream.
        let failure_rate = (endpoint.error_rate + fault.extra_error_rate).clamp(0.0, 1.0);
        let own_ok = hrng.next_f64() >= failure_rate;

        let mut elapsed = self.router.proxy_overhead() + own_latency;
        let mut ok = own_ok;

        // Clone the call list so the borrow of `self.app` does not pin the
        // whole context across the recursive calls.
        let calls = endpoint.calls.clone();
        for call in &calls {
            if call.probability < 1.0 && hrng.next_f64() >= call.probability {
                continue;
            }
            // Child and mirror stream seeds are drawn *before* the child
            // executes, so the caller's stream state never depends on the
            // child subtree — the event core spawns mirrors at dispatch
            // time with these exact seeds.
            let child_seed = hrng.next_u64();
            let mirrors = self.router.mirrors(call.service).to_vec();
            let mirror_seeds: Vec<u64> = mirrors.iter().map(|_| hrng.next_u64()).collect();
            let child_start = start + elapsed;
            // Primary call, resilience-guarded when a policy covers this
            // edge. Dark traffic is never guarded: mirrors must see the
            // raw callee behaviour their health checks are judging.
            let child = if !dark && self.resilience.is_some() {
                self.guarded_call(
                    version,
                    call.service,
                    &call.endpoint,
                    child_start,
                    span_id,
                    depth + 1,
                    child_seed,
                    &mut hrng,
                )?
            } else {
                self.hop(
                    call.service,
                    &call.endpoint,
                    child_start,
                    Some(span_id),
                    dark,
                    depth + 1,
                    0,
                    child_seed,
                )?
            };
            elapsed += child.duration;
            ok &= child.ok;
            // Dark-launch mirrors: execute on each mirror version without
            // contributing to user-perceived latency or success.
            for (mirror, mirror_seed) in mirrors.iter().zip(&mirror_seeds) {
                let _ = self.hop_on_version(
                    *mirror,
                    &call.endpoint,
                    child_start,
                    Some(span_id),
                    true,
                    depth + 1,
                    0,
                    *mirror_seed,
                )?;
            }
        }

        if let Some(sink) = self.sink.as_deref_mut() {
            // Record both primary and dark hops: the dark version's load and
            // latency are precisely what its health checks observe.
            sink.record_version(version, MetricKind::ResponseTime, start, elapsed.as_millis_f64());
            sink.record_version(version, MetricKind::ErrorRate, start, if ok { 0.0 } else { 1.0 });
        }

        if let Some(idx) = span_idx {
            let span = &mut self.spans[idx];
            span.duration = elapsed;
            span.status = if ok { SpanStatus::Ok } else { SpanStatus::Failed };
        }

        Ok(HopOutcome { duration: elapsed, ok, span: span_idx })
    }

    /// Pushes a zero-work event span (breaker shed, fallback response) —
    /// visible resilience activity that never executed an endpoint.
    #[allow(clippy::too_many_arguments)]
    fn push_event_span(
        &mut self,
        parent: SpanId,
        version: VersionId,
        endpoint: EndpointId,
        start: SimTime,
        duration: SimDuration,
        status: SpanStatus,
    ) {
        if self.trace_id.is_some() {
            let span_id = SpanId(self.next_span);
            self.next_span += 1;
            self.spans.push(Span {
                span: span_id,
                parent: Some(parent),
                version,
                endpoint,
                start,
                duration,
                status,
                attempt: 0,
                dark: false,
            });
        }
    }

    /// One resilience-guarded child call: breaker admission, attempt
    /// loop with timeout + backoff-with-jitter retries, fallback.
    ///
    /// The callee version is resolved once up front — sticky routing is
    /// deterministic per user, so retries land on the same version, and
    /// the breaker key `(caller version, callee version)` is stable for
    /// the whole attempt sequence. Each attempt re-enters the normal
    /// latency and fault models at its shifted start time, so a fault
    /// window can expire between an attempt and its retry.
    #[allow(clippy::too_many_arguments)]
    fn guarded_call(
        &mut self,
        caller: VersionId,
        service: ServiceId,
        endpoint: &str,
        start: SimTime,
        parent: SpanId,
        depth: usize,
        first_seed: u64,
        hrng: &mut SplitMix64,
    ) -> Result<HopOutcome, SimError> {
        let Some(policy) = self.resilience.as_ref().map(|r| r.policy) else {
            return self.hop(service, endpoint, start, Some(parent), false, depth, 0, first_seed);
        };
        let callee = self.router.resolve(self.app, service, self.user);
        // Resolved only when tracing: event spans (shed/fallback) need the
        // callee endpoint identity even though no endpoint work ran.
        let traced_endpoint = match self.trace_id {
            Some(_) => Some(self.app.endpoint_of(callee, endpoint)?),
            None => None,
        };

        if let Some(breaker) = policy.breaker {
            let state = &mut self.resilience.as_mut().expect("guarded only with resilience").state;
            if state.decide(caller, callee, &breaker, start) == CallDecision::Shed {
                self.record_resilience(callee, MetricKind::Shed, start);
                if let Some(ep) = traced_endpoint {
                    self.push_event_span(
                        parent,
                        callee,
                        ep,
                        start,
                        SimDuration::ZERO,
                        SpanStatus::Shed,
                    );
                }
                return Ok(self.fallback_or_fail(
                    &policy,
                    callee,
                    start,
                    SimDuration::ZERO,
                    parent,
                    traced_endpoint,
                ));
            }
        }

        let mut waited = SimDuration::ZERO;
        let mut attempt_seed = first_seed;
        for attempt in 0..=policy.max_retries {
            let attempt_start = start + waited;
            let attempt_no = u8::try_from(attempt).unwrap_or(u8::MAX);
            let child = self.hop_on_version(
                callee,
                endpoint,
                attempt_start,
                Some(parent),
                false,
                depth,
                attempt_no,
                attempt_seed,
            )?;
            // An attempt that overruns the deadline counts as a failure,
            // and the caller stops waiting at the deadline — the callee
            // subtree still did (and recorded) all its work.
            let timed_out = policy.attempt_timeout.is_some_and(|limit| child.duration > limit);
            let perceived =
                if timed_out { policy.attempt_timeout.expect("checked") } else { child.duration };
            waited += perceived;
            let ok = child.ok && !timed_out;
            if timed_out {
                self.record_resilience(callee, MetricKind::Timeout, attempt_start);
                // Re-status the attempt's span with the caller-observed
                // wait: the subtree below it keeps its real (longer)
                // durations — the documented nesting exception.
                if let Some(idx) = child.span {
                    let span = &mut self.spans[idx];
                    span.duration = perceived;
                    span.status = SpanStatus::TimedOut;
                }
            }
            let mut opened = false;
            if let Some(breaker) = policy.breaker {
                let outcome_at = attempt_start + perceived;
                let state =
                    &mut self.resilience.as_mut().expect("guarded only with resilience").state;
                if let Some((_, to)) = state.on_outcome(caller, callee, &breaker, outcome_at, !ok) {
                    if to == BreakerState::Open {
                        self.record_resilience(callee, MetricKind::BreakerOpen, outcome_at);
                        opened = true;
                    }
                }
            }
            if ok {
                return Ok(HopOutcome { duration: waited, ok: true, span: None });
            }
            if opened {
                // The breaker opened on this very outcome: retrying into
                // it would just be shed load.
                break;
            }
            if attempt < policy.max_retries {
                waited += policy.backoff_delay(attempt, hrng);
                self.record_resilience(callee, MetricKind::Retry, start + waited);
                attempt_seed = hrng.next_u64();
            }
        }
        Ok(self.fallback_or_fail(&policy, callee, start, waited, parent, traced_endpoint))
    }

    /// Resolves an exhausted or shed call: degraded-but-successful
    /// fallback when configured, plain failure otherwise. A served
    /// fallback is traced as a [`SpanStatus::Fallback`] event span so the
    /// degraded response stays attributable in the trace.
    fn fallback_or_fail(
        &mut self,
        policy: &CallPolicy,
        callee: VersionId,
        start: SimTime,
        waited: SimDuration,
        parent: SpanId,
        traced_endpoint: Option<EndpointId>,
    ) -> HopOutcome {
        if policy.fallback {
            self.record_resilience(callee, MetricKind::FallbackServed, start + waited);
            if let Some(ep) = traced_endpoint {
                self.push_event_span(
                    parent,
                    callee,
                    ep,
                    start + waited,
                    policy.fallback_latency,
                    SpanStatus::Fallback,
                );
            }
            HopOutcome { duration: waited + policy.fallback_latency, ok: true, span: None }
        } else {
            HopOutcome { duration: waited, ok: false, span: None }
        }
    }

    /// Records one resilience event (value `1.0`) under the callee's
    /// `service@version` scope.
    fn record_resilience(&mut self, callee: VersionId, metric: MetricKind, time: SimTime) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.record_version(callee, metric, time, 1.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallDef, EndpointDef, VersionSpec};
    use crate::event::{self, EventRequest, WindowBuffers};
    use crate::latency::LatencyModel;
    use crate::load::OccupancyTable;
    use crate::monitor::MetricStore;
    use crate::trace::TraceCollector;
    use cex_core::obs::Profiler;

    /// The two request cores these tests hold to one specification.
    #[derive(Debug, Clone, Copy)]
    enum Core {
        /// [`execute_request`], the recursive walk.
        Oracle,
        /// What ships: one [`EventRequest`] through [`event::run_window`].
        Shipped,
    }

    /// Runs one test body on each core. The captured output of a failing
    /// test ends with the core it failed on.
    fn on_each_core(body: impl Fn(Core)) {
        for core in [Core::Oracle, Core::Shipped] {
            println!("core: {core:?}");
            body(core);
        }
    }

    /// One request entering `a`/`entry` at `now` through `core`. As in
    /// [`execute_request`], exactly two values are drawn from `rng`;
    /// samples go to `store` when there is one.
    #[allow(clippy::too_many_arguments)]
    fn request(
        core: Core,
        app: &Application,
        router: &Router,
        load: &mut LoadTracker,
        rng: &mut SplitMix64,
        user: u64,
        now: SimTime,
        trace_id: Option<TraceId>,
        store: Option<&mut MetricStore>,
        resilience: Option<Resilience<'_>>,
        faults: &FaultPlan,
    ) -> RequestResult {
        let mut scratch = MetricStore::new();
        let store = store.unwrap_or(&mut scratch);
        let scopes = store.intern_version_scopes(app);
        let app_scope = store.intern("app");
        // Dropped on return: the batch is flushed when the caller looks.
        let mut sink = MetricSink::new(store, &scopes, app_scope);
        let entry = app.service_id("a").unwrap();
        match core {
            Core::Oracle => execute_request(
                app,
                router,
                load,
                rng,
                UserId(user),
                entry,
                "entry",
                now,
                trace_id,
                Some(&mut sink),
                resilience,
                faults,
            )
            .unwrap(),
            Core::Shipped => {
                let arrival = EventRequest {
                    time: now,
                    user: UserId(user),
                    service: entry,
                    endpoint: app.endpoint_name("entry").unwrap(),
                    trace: trace_id,
                    root_seed: rng.next_u64(),
                    conv_u: rng.next_f64(),
                };
                let mut no_state = ResilienceState::new();
                let (policy, state) = match resilience {
                    Some(guard) => (guard.policy, guard.state),
                    None => (CallPolicy::default(), &mut no_state),
                };
                let mut collector = TraceCollector::all();
                let stats = event::run_window(
                    app,
                    router,
                    load,
                    &mut OccupancyTable::new(app),
                    faults,
                    policy,
                    state,
                    &mut sink,
                    &mut collector,
                    vec![arrival],
                    &mut WindowBuffers::default(),
                    &Profiler::default(),
                );
                RequestResult {
                    response_time: SimDuration::from_millis(stats.rt.summary().max as u64),
                    ok: stats.failures == 0,
                    trace: collector.drain().pop(),
                }
            }
        }
    }

    fn chain_app() -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("a", "1").endpoint(
                EndpointDef::new("entry", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("b", "mid")),
            ),
        );
        b.version(
            VersionSpec::new("b", "1").endpoint(
                EndpointDef::new("mid", LatencyModel::Constant { ms: 10.0 })
                    .call(CallDef::always("c", "leaf")),
            ),
        );
        b.version(
            VersionSpec::new("c", "1")
                .endpoint(EndpointDef::new("leaf", LatencyModel::Constant { ms: 3.0 })),
        );
        b.build().unwrap()
    }

    fn run(core: Core, app: &Application, router: &Router, traced: bool) -> RequestResult {
        request(
            core,
            app,
            router,
            &mut LoadTracker::new(app),
            &mut SplitMix64::new(9),
            1,
            SimTime::from_secs(1),
            traced.then_some(TraceId(7)),
            None,
            None,
            &FaultPlan::none(),
        )
    }

    #[test]
    fn chain_latency_adds_up() {
        on_each_core(|core| {
            let app = chain_app();
            let result = run(core, &app, &Router::new(), false);
            assert_eq!(result.response_time.as_millis(), 18);
            assert!(result.ok);
            assert!(result.trace.is_none());
        });
    }

    #[test]
    fn proxy_overhead_applies_per_hop() {
        on_each_core(|core| {
            let app = chain_app();
            let router = Router::with_proxy_overhead(SimDuration::from_millis(2));
            let result = run(core, &app, &router, false);
            // 18 ms service time + 3 hops × 2 ms.
            assert_eq!(result.response_time.as_millis(), 24);
        });
    }

    #[test]
    fn trace_mirrors_call_tree() {
        on_each_core(|core| {
            let app = chain_app();
            let result = run(core, &app, &Router::new(), true);
            let trace = result.trace.unwrap();
            assert_eq!(trace.spans.len(), 3);
            let root = trace.root();
            assert_eq!(app.version(root.version).service, app.service_id("a").unwrap());
            assert_eq!(root.duration, result.response_time);
            // Parent chain a -> b -> c, stored pre-order with ids == positions.
            let b_svc = app.service_id("b").unwrap();
            let c_svc = app.service_id("c").unwrap();
            let b = trace.spans.iter().find(|s| app.version(s.version).service == b_svc).unwrap();
            let c = trace.spans.iter().find(|s| app.version(s.version).service == c_svc).unwrap();
            assert_eq!(b.parent, Some(root.span));
            assert_eq!(c.parent, Some(b.span));
            for (i, s) in trace.spans.iter().enumerate() {
                assert_eq!(s.span, SpanId(i as u32), "span ids equal pre-order positions");
            }
            // Child hops start after the parent's own work and nest inside it.
            assert!(b.start > root.start);
            assert!(c.start > b.start);
            assert!(c.end() <= b.end() && b.end() <= root.end());
        });
    }

    #[test]
    fn errors_propagate_to_root() {
        on_each_core(|core| {
            let mut b = Application::builder();
            b.version(
                VersionSpec::new("a", "1").endpoint(
                    EndpointDef::new("entry", LatencyModel::Constant { ms: 1.0 })
                        .call(CallDef::always("b", "mid")),
                ),
            );
            b.version(VersionSpec::new("b", "1").endpoint(
                EndpointDef::new("mid", LatencyModel::Constant { ms: 1.0 }).error_rate(1.0),
            ));
            let app = b.build().unwrap();
            let result = run(core, &app, &Router::new(), true);
            assert!(!result.ok);
            let trace = result.trace.unwrap();
            assert_eq!(trace.root().status, SpanStatus::Failed, "failure reaches the root span");
            assert!(!trace.ok());
            let b_svc = app.service_id("b").unwrap();
            let b_span =
                trace.spans.iter().find(|s| app.version(s.version).service == b_svc).unwrap();
            assert_eq!(b_span.status, SpanStatus::Failed);
        });
    }

    #[test]
    fn probabilistic_calls_fire_proportionally() {
        on_each_core(|core| {
            let mut b = Application::builder();
            b.version(
                VersionSpec::new("a", "1").endpoint(
                    EndpointDef::new("entry", LatencyModel::Constant { ms: 1.0 })
                        .call(CallDef::with_probability("b", "mid", 0.3)),
                ),
            );
            b.version(
                VersionSpec::new("b", "1")
                    .endpoint(EndpointDef::new("mid", LatencyModel::Constant { ms: 1.0 })),
            );
            let app = b.build().unwrap();
            let router = Router::new();
            let mut load = LoadTracker::new(&app);
            let mut rng = SplitMix64::new(11);
            let mut fired = 0;
            let n = 10_000;
            for i in 0..n {
                let result = request(
                    core,
                    &app,
                    &router,
                    &mut load,
                    &mut rng,
                    i,
                    SimTime::from_millis(i),
                    Some(TraceId(i)),
                    None,
                    None,
                    &FaultPlan::none(),
                );
                if result.trace.unwrap().spans.len() == 2 {
                    fired += 1;
                }
            }
            let share = fired as f64 / n as f64;
            assert!((share - 0.3).abs() < 0.02, "call share {share}");
        });
    }

    #[test]
    fn dark_mirror_excluded_from_latency_but_traced_and_loaded() {
        on_each_core(|core| {
            let mut app = chain_app();
            app.deploy(
                VersionSpec::new("b", "2").endpoint(
                    EndpointDef::new("mid", LatencyModel::Constant { ms: 100.0 })
                        .call(CallDef::always("c", "leaf")),
                ),
            )
            .unwrap();
            let b_svc = app.service_id("b").unwrap();
            let dark = app.version_id("b", "2").unwrap();
            let mut router = Router::new();
            router.add_mirror(&app, b_svc, dark).unwrap();

            let mut load = LoadTracker::new(&app);
            let result = request(
                core,
                &app,
                &router,
                &mut load,
                &mut SplitMix64::new(13),
                1,
                SimTime::from_secs(1),
                Some(TraceId(1)),
                None,
                None,
                &FaultPlan::none(),
            );
            // Latency unchanged: dark work is not on the user path.
            assert_eq!(result.response_time.as_millis(), 18);
            let trace = result.trace.unwrap();
            // Primary a,b,c plus dark b@2 and its downstream c call.
            assert_eq!(trace.spans.len(), 5);
            let dark_spans: Vec<_> = trace.spans.iter().filter(|s| s.dark).collect();
            assert_eq!(dark_spans.len(), 2);
            assert!(dark_spans.iter().any(|s| s.version == dark));
            // Dark leaf call doubled the load on c: flush c's bucket and check.
            let c = app.version_id("c", "1").unwrap();
            load.record_arrival(c, SimTime::from_secs(2));
            assert!((load.rate_rps(c) - 2.0).abs() < 1e-9, "c saw primary + dark arrival");
        });
    }

    #[test]
    fn metrics_recorded_per_version_scope() {
        on_each_core(|core| {
            let app = chain_app();
            let mut store = MetricStore::new();
            request(
                core,
                &app,
                &Router::new(),
                &mut LoadTracker::new(&app),
                &mut SplitMix64::new(17),
                1,
                SimTime::from_secs(1),
                None,
                Some(&mut store),
                None,
                &FaultPlan::none(),
            );
            assert_eq!(store.count("a@1", MetricKind::ResponseTime), 1);
            assert_eq!(store.count("b@1", MetricKind::ResponseTime), 1);
            assert_eq!(store.count("c@1", MetricKind::ErrorRate), 1);
        });
    }

    /// Runs one guarded request entering `a`/`entry` at `now`, recording
    /// metrics into `store` and mutating the caller's breaker `state`.
    #[allow(clippy::too_many_arguments)]
    fn guarded_run(
        core: Core,
        app: &Application,
        policy: &CallPolicy,
        faults: &FaultPlan,
        state: &mut ResilienceState,
        store: &mut MetricStore,
        now: SimTime,
        user: u64,
    ) -> RequestResult {
        request(
            core,
            app,
            &Router::new(),
            &mut LoadTracker::new(app),
            &mut SplitMix64::new(99),
            user,
            now,
            None,
            Some(store),
            Some(Resilience { policy: *policy, state }),
            faults,
        )
    }

    /// a (5 ms) → b (10 ms), with `b` failing at the given rate.
    fn two_tier(b_error_rate: f64) -> Application {
        let mut builder = Application::builder();
        builder.version(
            VersionSpec::new("a", "1").endpoint(
                EndpointDef::new("entry", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("b", "mid")),
            ),
        );
        builder.version(VersionSpec::new("b", "1").endpoint(
            EndpointDef::new("mid", LatencyModel::Constant { ms: 10.0 }).error_rate(b_error_rate),
        ));
        builder.build().unwrap()
    }

    /// An outage on `b` over `[1000, until_ms)` and a one-retry policy
    /// with a flat 6 ms backoff.
    fn outage_and_one_retry(app: &Application, until_ms: u64) -> (FaultPlan, CallPolicy) {
        use crate::faults::{Fault, FaultKind};
        let mut faults = FaultPlan::none();
        faults.inject(Fault {
            version: app.version_id("b", "1").unwrap(),
            kind: FaultKind::Outage,
            from: SimTime::from_millis(1000),
            until: SimTime::from_millis(until_ms),
        });
        let policy = CallPolicy {
            max_retries: 1,
            backoff_base: SimDuration::from_millis(6),
            backoff_multiplier: 1.0,
            ..CallPolicy::default()
        };
        (faults, policy)
    }

    #[test]
    fn retry_succeeds_when_fault_expires_before_the_retry() {
        on_each_core(|core| {
            // Outage on b over [1000, 1016) ms. The request arrives at 995,
            // spends 5 ms in `a`, so attempt 1 hits `b` at exactly 1000 (the
            // inclusive window start) and fails. The retry fires at
            // 1000 + 10 (attempt) + 6 (backoff) = 1016 — exactly the
            // exclusive window end — and must succeed.
            let app = two_tier(0.0);
            let (faults, policy) = outage_and_one_retry(&app, 1016);
            let mut store = MetricStore::new();
            let mut state = ResilienceState::new();
            let at = SimTime::from_millis(995);
            let result = guarded_run(core, &app, &policy, &faults, &mut state, &mut store, at, 1);
            assert!(result.ok, "retry after the window must succeed");
            // 5 (a) + 10 (failed attempt) + 6 (backoff) + 10 (retry).
            assert_eq!(result.response_time.as_millis(), 31);
            assert_eq!(store.count("b@1", MetricKind::Retry), 1);
        });
    }

    #[test]
    fn retry_fails_while_fault_window_still_covers_it() {
        on_each_core(|core| {
            // Same timeline, but the window runs one millisecond longer —
            // [1000, 1017) — so the retry at 1016 is still inside it.
            let app = two_tier(0.0);
            let (faults, policy) = outage_and_one_retry(&app, 1017);
            let mut store = MetricStore::new();
            let mut state = ResilienceState::new();
            let at = SimTime::from_millis(995);
            let result = guarded_run(core, &app, &policy, &faults, &mut state, &mut store, at, 1);
            assert!(!result.ok, "both attempts fall inside the window");
        });
    }

    #[test]
    fn attempt_timeout_caps_perceived_latency_and_counts_as_failure() {
        on_each_core(|core| {
            let app = two_tier(0.0);
            let policy = CallPolicy {
                attempt_timeout: Some(SimDuration::from_millis(4)),
                ..CallPolicy::default()
            };
            let mut store = MetricStore::new();
            let mut state = ResilienceState::new();
            let result = guarded_run(
                core,
                &app,
                &policy,
                &FaultPlan::none(),
                &mut state,
                &mut store,
                SimTime::from_secs(1),
                1,
            );
            assert!(!result.ok, "a timed-out call is a failure without fallback");
            // 5 (a) + 4 (wait capped at the deadline, not b's 10 ms).
            assert_eq!(result.response_time.as_millis(), 9);
            assert_eq!(store.count("b@1", MetricKind::Timeout), 1);
        });
    }

    /// Opens after four failures in a row and stays open for a minute;
    /// every shed or exhausted call is answered by a 1 ms fallback.
    fn breaker_with_fallback() -> CallPolicy {
        CallPolicy {
            breaker: Some(crate::resilience::BreakerPolicy {
                error_threshold: 0.5,
                min_calls: 4,
                window: 8,
                cooldown: SimDuration::from_secs(60),
                half_open_probes: 1,
            }),
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
            ..CallPolicy::default()
        }
    }

    #[test]
    fn breaker_opens_then_sheds_and_fallback_keeps_requests_ok() {
        on_each_core(|core| {
            let app = two_tier(1.0);
            let policy = breaker_with_fallback();
            let mut store = MetricStore::new();
            let mut state = ResilienceState::new();
            let a = app.version_id("a", "1").unwrap();
            let b = app.version_id("b", "1").unwrap();
            let mut times = Vec::new();
            for i in 0..8u64 {
                let result = guarded_run(
                    core,
                    &app,
                    &policy,
                    &FaultPlan::none(),
                    &mut state,
                    &mut store,
                    SimTime::from_secs(1 + i),
                    i,
                );
                assert!(result.ok, "fallback keeps every request successful");
                times.push(result.response_time.as_millis());
            }
            // Four failures open the breaker; later requests are shed and only
            // pay a + fallback latency (6 ms) instead of a + b + fallback (16).
            assert_eq!(state.current(a, b), BreakerState::Open);
            assert_eq!(times[0], 16);
            assert_eq!(*times.last().unwrap(), 6);
            assert_eq!(store.count("b@1", MetricKind::BreakerOpen), 1);
            assert_eq!(store.count("b@1", MetricKind::Shed), 4);
            assert_eq!(store.count("b@1", MetricKind::FallbackServed), 8);
            // Shed calls never reach b: it saw only the 4 executed attempts.
            assert_eq!(store.count("b@1", MetricKind::ErrorRate), 4);
        });
    }

    #[test]
    fn oversaturated_error_composition_clamps_instead_of_panicking() {
        use crate::faults::{Fault, FaultKind};
        on_each_core(|core| {
            // Endpoint error rate 0.9 + fault burst 0.9 sums to 1.8; the
            // core must clamp to a certain failure, not panic.
            let app = two_tier(0.9);
            let b = app.version_id("b", "1").unwrap();
            let mut faults = FaultPlan::none();
            faults.inject(Fault {
                version: b,
                kind: FaultKind::ErrorBurst { extra_error_rate: 0.9 },
                from: SimTime::ZERO,
                until: SimTime::from_secs(1_000),
            });
            let mut load = LoadTracker::new(&app);
            let mut rng = SplitMix64::new(5);
            for i in 0..200 {
                let result = request(
                    core,
                    &app,
                    &Router::new(),
                    &mut load,
                    &mut rng,
                    i,
                    SimTime::from_millis(i),
                    None,
                    None,
                    None,
                    &faults,
                );
                assert!(!result.ok, "combined rate clamps to exactly 1.0");
            }
        });
    }

    /// Checks every structural invariant the trace module documents:
    /// pre-order storage with span ids equal to positions, a single root,
    /// children starting inside their parent, synchronous-child interval
    /// nesting (with the documented dark and timed-out exceptions), and
    /// root duration equal to the user-perceived response time.
    fn assert_span_invariants(trace: &Trace, response_time: SimDuration) {
        assert!(!trace.spans.is_empty());
        for (i, s) in trace.spans.iter().enumerate() {
            assert_eq!(s.span, SpanId(i as u32), "span ids are pre-order positions");
            match s.parent {
                None => assert_eq!(i, 0, "only the root lacks a parent"),
                Some(p) => {
                    assert!((p.0 as usize) < i, "parents precede children");
                    let parent = &trace.spans[p.0 as usize];
                    assert!(s.start >= parent.start, "children start within the parent");
                    if !s.dark && parent.status != SpanStatus::TimedOut {
                        assert!(
                            s.end() <= parent.end(),
                            "synchronous child interval must nest (span {i})"
                        );
                    }
                }
            }
        }
        assert_eq!(trace.root().duration, response_time);
        assert_eq!(trace.response_time(), response_time);
    }

    #[test]
    fn timed_out_attempt_span_carries_perceived_wait() {
        on_each_core(|core| {
            let app = two_tier(0.0);
            let policy = CallPolicy {
                attempt_timeout: Some(SimDuration::from_millis(4)),
                max_retries: 0,
                ..CallPolicy::default()
            };
            let mut state = ResilienceState::new();
            let result = request(
                core,
                &app,
                &Router::new(),
                &mut LoadTracker::new(&app),
                &mut SplitMix64::new(3),
                1,
                SimTime::from_secs(1),
                Some(TraceId(1)),
                None,
                Some(Resilience { policy, state: &mut state }),
                &FaultPlan::none(),
            );
            assert!(!result.ok);
            let trace = result.trace.unwrap();
            assert_span_invariants(&trace, result.response_time);
            assert_eq!(trace.spans.len(), 2);
            let b = &trace.spans[1];
            assert_eq!(b.status, SpanStatus::TimedOut);
            // The span records the caller-observed wait (the 4 ms deadline),
            // not b's real 10 ms of work.
            assert_eq!(b.duration.as_millis(), 4);
            assert_eq!(trace.root().status, SpanStatus::Failed);
        });
    }

    #[test]
    fn shed_and_fallback_emit_event_spans() {
        on_each_core(|core| {
            let app = two_tier(1.0);
            let policy = breaker_with_fallback();
            let mut state = ResilienceState::new();
            let mut load = LoadTracker::new(&app);
            let mut rng = SplitMix64::new(21);
            let b = app.version_id("b", "1").unwrap();
            let mut last = None;
            for i in 0..8u64 {
                let result = request(
                    core,
                    &app,
                    &Router::new(),
                    &mut load,
                    &mut rng,
                    i,
                    SimTime::from_secs(1 + i),
                    Some(TraceId(i)),
                    None,
                    Some(Resilience { policy, state: &mut state }),
                    &FaultPlan::none(),
                );
                assert!(result.ok, "fallback keeps requests successful");
                let trace = result.trace.unwrap();
                assert_span_invariants(&trace, result.response_time);
                last = Some(trace);
            }
            // After the breaker opened, a request is root + shed event +
            // fallback event — no executed b endpoint at all.
            let trace = last.unwrap();
            assert!(trace.ok(), "fallback-served root counts as ok");
            let shed = trace.spans.iter().find(|s| s.status == SpanStatus::Shed).unwrap();
            assert_eq!(shed.version, b);
            assert_eq!(shed.duration, SimDuration::ZERO);
            let fb = trace.spans.iter().find(|s| s.status == SpanStatus::Fallback).unwrap();
            assert_eq!(fb.version, b);
            assert_eq!(fb.duration.as_millis(), 1);
            assert!(
                !trace.spans.iter().any(|s| s.status == SpanStatus::Failed),
                "shed request never executed b"
            );
        });
    }

    #[test]
    fn span_tree_invariants_hold_under_stress() {
        use crate::faults::{Fault, FaultKind};
        // A three-tier app with jittered latencies, an error-prone middle
        // tier, a slow dark-launched mirror, and a resilience policy with
        // timeouts, retries, a breaker, and fallbacks: every span shape
        // a core can produce shows up here.
        let mut builder = Application::builder();
        builder.version(
            VersionSpec::new("a", "1").endpoint(
                EndpointDef::new("entry", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("b", "mid")),
            ),
        );
        builder.version(
            VersionSpec::new("b", "1").endpoint(
                EndpointDef::new("mid", LatencyModel::Uniform { lo: 2.0, hi: 12.0 })
                    .error_rate(0.2)
                    .call(CallDef::always("c", "leaf")),
            ),
        );
        builder.version(
            VersionSpec::new("c", "1")
                .endpoint(EndpointDef::new("leaf", LatencyModel::Uniform { lo: 1.0, hi: 6.0 })),
        );
        let mut app = builder.build().unwrap();
        app.deploy(
            VersionSpec::new("b", "2").endpoint(
                EndpointDef::new("mid", LatencyModel::Constant { ms: 100.0 })
                    .call(CallDef::always("c", "leaf")),
            ),
        )
        .unwrap();
        let b_svc = app.service_id("b").unwrap();
        let dark = app.version_id("b", "2").unwrap();
        let mut router = Router::new();
        router.add_mirror(&app, b_svc, dark).unwrap();

        let policy = CallPolicy {
            attempt_timeout: Some(SimDuration::from_millis(9)),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(2),
            backoff_multiplier: 2.0,
            breaker: Some(crate::resilience::BreakerPolicy {
                error_threshold: 0.4,
                min_calls: 8,
                window: 16,
                cooldown: SimDuration::from_millis(100),
                half_open_probes: 1,
            }),
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
            ..CallPolicy::default()
        };
        let b_fault = app.version_id("b", "1").unwrap();
        let mut faults = FaultPlan::none();
        faults.inject(Fault {
            version: b_fault,
            kind: FaultKind::ErrorBurst { extra_error_rate: 0.5 },
            from: SimTime::from_millis(2_000),
            until: SimTime::from_millis(3_000),
        });

        on_each_core(|core| {
            let mut statuses = std::collections::BTreeSet::new();
            let mut saw_retry = false;
            let mut saw_dark = false;
            for seed in [4242u64, 7, 99] {
                let mut state = ResilienceState::new();
                let mut load = LoadTracker::new(&app);
                let mut rng = SplitMix64::new(seed);
                for i in 0..200u64 {
                    let result = request(
                        core,
                        &app,
                        &router,
                        &mut load,
                        &mut rng,
                        i,
                        SimTime::from_millis(i * 20),
                        Some(TraceId(seed * 1_000 + i)),
                        None,
                        Some(Resilience { policy, state: &mut state }),
                        &faults,
                    );
                    let trace = result.trace.unwrap();
                    assert_span_invariants(&trace, result.response_time);
                    for s in &trace.spans {
                        statuses.insert(s.status.name());
                        saw_retry |= s.attempt > 0;
                        saw_dark |= s.dark;
                    }
                }
            }
            assert!(saw_retry, "retry attempts appear as numbered sibling spans");
            assert!(saw_dark, "dark mirror work is traced");
            for want in ["ok", "failed", "timed_out", "shed", "fallback"] {
                assert!(statuses.contains(want), "stress run must produce a `{want}` span");
            }
        });
    }

    /// The oracle's own `Err` return; the shipped core takes its entry
    /// point as an interned name the caller has already resolved.
    #[test]
    fn unknown_entry_endpoint_errors() {
        let app = chain_app();
        let mut load = LoadTracker::new(&app);
        let mut rng = SplitMix64::new(1);
        let entry = app.service_id("a").unwrap();
        let err = execute_request(
            &app,
            &Router::new(),
            &mut load,
            &mut rng,
            UserId(1),
            entry,
            "nope",
            SimTime::ZERO,
            None,
            None,
            None,
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::UnknownEndpoint { .. }));
    }
}
