//! The simulation facade: application + router + monitoring + tracing on a
//! virtual clock.
//!
//! [`Simulation`] owns all moving parts and exposes the operations Bifrost
//! and the evaluation harnesses need: advance virtual time under a
//! workload, mutate routing between windows, deploy new versions, and read
//! the metric store and trace collector.

use crate::app::{Application, EndpointName, VersionId, VersionSpec};
use crate::error::SimError;
use crate::event::{self, EventRequest};
use crate::faults::{Fault, FaultPlan};
use crate::load::{LoadTracker, OccupancyTable};
use crate::monitor::{MetricSink, MetricStore, ScopeId};
use crate::resilience::{BreakerState, BreakerTransition, CallPolicy, ResilienceState};
use crate::routing::Router;
use crate::trace::{Trace, TraceCollector};
use crate::workload::{ArrivalProcess, Workload};
use cex_core::metrics::{MetricKind, Summary};
use cex_core::obs::{Counters, ObsConfig, ProfileSnapshot, Profiler};
use cex_core::rng::{sub_seed, SplitMix64};
use cex_core::simtime::{SimDuration, SimTime};

/// Scope under which end-to-end (user-perceived) metrics are recorded.
pub const APP_SCOPE: &str = "app";

/// Aggregate outcome of one simulated window.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Window start.
    pub from: SimTime,
    /// Window end.
    pub to: SimTime,
    /// Requests executed (primary traffic only).
    pub requests: u64,
    /// Requests that failed.
    pub failures: u64,
    /// End-to-end response-time summary in milliseconds.
    pub response_time: Summary,
}

impl RunReport {
    /// Achieved throughput in requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = (self.to - self.from).as_millis() as f64 / 1_000.0;
        if secs > 0.0 {
            self.requests as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of failed requests.
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.failures as f64 / self.requests as f64
        }
    }
}

/// The simulation facade.
#[derive(Debug)]
pub struct Simulation {
    app: Application,
    router: Router,
    load: LoadTracker,
    occupancy: OccupancyTable,
    store: MetricStore,
    /// `service@version` scope ids indexed by `VersionId`, kept in sync
    /// with deployments so the request loop records without formatting or
    /// interning.
    version_scopes: Vec<ScopeId>,
    app_scope: ScopeId,
    collector: TraceCollector,
    clock: SimTime,
    rng: SplitMix64,
    workload_seed: u64,
    windows_run: u64,
    faults: FaultPlan,
    /// The policy every inter-service call runs under (null by default).
    call_policy: CallPolicy,
    resilience_state: ResilienceState,
    /// Wall-clock phase tree (`sim.window`, event-core phases, …). The
    /// `sim.window` node is recorded unconditionally and backs
    /// [`Simulation::sim_busy`]; sub-phase spans honour the obs config.
    profiler: Profiler,
    /// Running deterministic event-core tallies, accumulated across
    /// windows at each canonical merge.
    event_tally: event::WindowTally,
    /// The event core's output buffers, empty between windows.
    event_buffers: event::WindowBuffers,
}

impl Simulation {
    /// Creates a simulation over `app` with baseline routing, light
    /// default trace sampling (fraction 0.05) and the clock at zero.
    pub fn new(app: Application, seed: u64) -> Self {
        let load = LoadTracker::new(&app);
        let occupancy = OccupancyTable::new(&app);
        let mut store = MetricStore::new();
        let version_scopes = store.intern_version_scopes(&app);
        let app_scope = store.intern(APP_SCOPE);
        Simulation {
            app,
            router: Router::new(),
            load,
            occupancy,
            store,
            version_scopes,
            app_scope,
            collector: TraceCollector::sampled(0.05),
            clock: SimTime::ZERO,
            rng: SplitMix64::new(sub_seed(seed, 0)),
            workload_seed: sub_seed(seed, 1),
            windows_run: 0,
            faults: FaultPlan::none(),
            call_policy: CallPolicy::default(),
            resilience_state: ResilienceState::new(),
            profiler: Profiler::default(),
            event_tally: event::WindowTally::default(),
            event_buffers: event::WindowBuffers::default(),
        }
    }

    /// Reconfigures the self-observability layer: replaces the profiler
    /// (discarding recorded phases) and arms or disarms the metric
    /// store's wall-clock probes. Deterministic counters are unaffected —
    /// they are pure functions of the seed and always collected.
    pub fn set_obs(&mut self, config: ObsConfig) {
        self.profiler = Profiler::new(config);
        self.store.set_probes_armed(config.profile);
    }

    /// The wall-clock phase profiler (sidecar report only — timings never
    /// enter deterministic outputs).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// A profile snapshot including the metric store's probe totals
    /// (`store.flush`, `store.window_query`) folded in.
    pub fn profile(&self) -> ProfileSnapshot {
        let p = self.profiler.clone();
        self.fold_probes_into(&p);
        p.snapshot()
    }

    /// Folds the metric store's wall-probe totals (`store.flush`,
    /// `store.window_query`) into `target` — for callers assembling a
    /// combined phase tree across subsystems.
    pub fn fold_probes_into(&self, target: &Profiler) {
        target.fold("store.flush", &self.store.flush_probe().stats());
        target.fold("store.window_query", &self.store.query_probe().stats());
    }

    /// Deterministic counter-registry snapshot: event-core tallies,
    /// metric-store and trace-collector accounting, and per-service
    /// queue-depth high-water gauges. Every value is a pure function of
    /// the seed — identical across runs — and safe to
    /// journal (see [`cex_core::obs`]).
    pub fn counters(&self) -> Counters {
        let mut c = Counters::new();
        c.add("sim.windows", self.windows_run);
        c.add("sim.events.popped", self.event_tally.events_popped);
        c.add("sim.events.sent", self.event_tally.events_sent);
        c.add("sim.events.subrounds", self.event_tally.sub_rounds);
        c.add("sim.sheds", self.event_tally.sheds);
        c.add("store.window_reads", self.store.window_reads());
        c.add("store.batch_flushes", self.store.batch_flushes());
        c.hwm("store.interner.scopes", self.store.interned_scopes());
        let stats = self.collector.sampling_stats();
        c.add("trace.recorded", stats.recorded);
        c.add("trace.evicted", stats.evicted);
        c.add("trace.tail.kept", stats.tail_kept);
        c.add("trace.tail.downsampled_kept", stats.downsampled_kept);
        c.add("trace.tail.healthy_dropped", stats.healthy_dropped);
        c.add("trace.tail.sketch_collapses", self.collector.tail_sketch_collapses());
        for (sid, name) in self.app.services() {
            let hwm = self
                .app
                .versions_of(sid)
                .iter()
                .map(|v| self.occupancy.queue_hwm(*v))
                .max()
                .unwrap_or(0);
            if hwm > 0 {
                c.hwm(&format!("sim.queue_hwm.{name}"), hwm);
            }
        }
        c
    }

    /// Schedules a fault window (see [`crate::faults`]).
    ///
    /// # Panics
    ///
    /// Panics when the fault window is malformed.
    pub fn inject_fault(&mut self, fault: Fault) {
        self.faults.inject(fault);
    }

    /// The active fault plan.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Applies one [`CallPolicy`] to every service edge (see
    /// [`crate::resilience`]) in place of the null policy, the default.
    /// Breaker state carries over: changing the policy mid-run does not
    /// reset open breakers.
    ///
    /// # Panics
    ///
    /// Panics when the policy is out of domain.
    pub fn set_call_policy(&mut self, policy: CallPolicy) {
        policy.validate();
        self.call_policy = policy;
    }

    /// Current state of the breaker on `caller → callee`, or `None` when
    /// that version edge has never seen a guarded call.
    pub fn breaker_state(&self, caller: VersionId, callee: VersionId) -> Option<BreakerState> {
        self.resilience_state.breaker_state(caller, callee)
    }

    /// Drains breaker transitions accumulated since the last drain, in
    /// occurrence order (the Bifrost engine journals these per tick).
    pub fn drain_breaker_transitions(&mut self) -> Vec<BreakerTransition> {
        self.resilience_state.drain_transitions()
    }

    /// Scratch-buffer variant of [`Simulation::drain_breaker_transitions`]:
    /// clears `out` and drains into it, so per-tick callers reuse one
    /// allocation.
    pub fn drain_breaker_transitions_into(&mut self, out: &mut Vec<BreakerTransition>) {
        self.resilience_state.drain_transitions_into(out);
    }

    /// Replaces the router (e.g. to enable proxy-overhead modelling).
    pub fn set_router(&mut self, router: Router) {
        self.router = router;
    }

    /// Shared access to the router.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Mutable access to the router (Bifrost enacts phases through this).
    pub fn router_mut(&mut self) -> &mut Router {
        &mut self.router
    }

    /// The application together with mutable access to the router — router
    /// updates validate against the application, and borrowing both at
    /// once saves callers a clone of the application.
    pub fn app_and_router_mut(&mut self) -> (&Application, &mut Router) {
        (&self.app, &mut self.router)
    }

    /// Sets the trace sampling fraction. Collected traces, aggregates and
    /// the trace-id sequence are preserved — only the sampling rate of
    /// future requests changes.
    pub fn set_trace_sampling(&mut self, fraction: f64) {
        self.collector.set_sampling(fraction);
    }

    /// Caps how many traces the collector retains (oldest evicted first);
    /// see [`TraceCollector::set_capacity`].
    pub fn set_trace_retention(&mut self, capacity: usize) {
        self.collector.set_capacity(capacity);
    }

    /// Enables (or disables, with `None`) tail-based sampling on the
    /// trace collector; see [`TraceCollector::set_tail_sampling`].
    pub fn set_tail_sampling(&mut self, config: Option<crate::trace::TailSamplingConfig>) {
        self.collector.set_tail_sampling(config);
    }

    /// Read access to the trace collector (retention counters, streaming
    /// per-edge aggregates).
    pub fn trace_collector(&self) -> &TraceCollector {
        &self.collector
    }

    /// Resolves span ids back to names for the current application state.
    /// Rebuilt on demand: deploys after a snapshot will not be covered by
    /// an older book.
    pub fn span_book(&self) -> crate::trace::SpanBook {
        crate::trace::SpanBook::from_app(&self.app)
    }

    /// The application under simulation.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// Deploys a new version (experiments do this at runtime).
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] when the spec, or the application with it, is
    /// invalid; the simulation is then exactly as it was.
    pub fn deploy(&mut self, spec: VersionSpec) -> Result<VersionId, SimError> {
        let id = self.app.deploy(spec)?;
        self.load.resize_for(&self.app);
        self.occupancy.resize_for(&self.app);
        self.version_scopes = self.store.intern_version_scopes(&self.app);
        Ok(id)
    }

    /// The metric store.
    pub fn store(&self) -> &MetricStore {
        &self.store
    }

    /// Mutable access to the metric store (Bifrost interns its scopes,
    /// records trace-derived samples and retires scopes through this).
    pub fn store_mut(&mut self) -> &mut MetricStore {
        &mut self.store
    }

    /// Collected traces so far, oldest first.
    pub fn traces(&self) -> impl Iterator<Item = &Trace> {
        self.collector.traces()
    }

    /// Removes and returns collected traces.
    pub fn drain_traces(&mut self) -> Vec<Trace> {
        self.collector.drain()
    }

    /// Scratch-buffer variant of [`Simulation::drain_traces`]: clears
    /// `out` and drains into it, so per-tick callers reuse one allocation.
    pub fn drain_traces_into(&mut self, out: &mut Vec<Trace>) {
        self.collector.drain_into(out);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Cumulative wall-clock time spent executing simulation windows
    /// ([`Simulation::run_with`]). The Bifrost engine subtracts this from
    /// total wall time to account its own processing cost separately from
    /// the application's. A thin read of the profiler's `sim.window`
    /// node, which is recorded regardless of the obs config.
    pub fn sim_busy(&self) -> std::time::Duration {
        self.profiler.total("sim.window")
    }

    /// Runs a window of `duration` under a simple single-entry workload at
    /// `rate_rps`, entering at the first endpoint of service 0's baseline.
    pub fn run(&mut self, duration: SimDuration, rate_rps: f64) -> RunReport {
        let entry_service = crate::app::ServiceId(0);
        let baseline = self.app.baseline_of(entry_service);
        let endpoint = self.app.endpoint(self.app.version(baseline).endpoints[0]).name.clone();
        let workload = Workload::simple(entry_service, endpoint, rate_rps);
        self.run_with(duration, &workload)
    }

    /// Runs a window of `duration` under `workload`, advancing the clock:
    /// the window's arrivals are generated up front, handed to the request
    /// core ([`crate::event`]) and its canonically ordered outputs merged.
    ///
    /// Per-request, per-version metrics land in the store under
    /// `service@version` scopes; end-to-end metrics under [`APP_SCOPE`].
    ///
    /// # Panics
    ///
    /// Panics if the workload references unknown services/endpoints (a
    /// configuration error in the harness, not a runtime condition).
    pub fn run_with(&mut self, duration: SimDuration, workload: &Workload) -> RunReport {
        let window_started = std::time::Instant::now();
        let from = self.clock;
        let to = from + duration;
        let requests = self.window_requests(to, workload);
        let mut sink = MetricSink::new(&mut self.store, &self.version_scopes, self.app_scope);
        let stats = event::run_window(
            &self.app,
            &self.router,
            &mut self.load,
            &mut self.occupancy,
            &self.faults,
            self.call_policy,
            &mut self.resilience_state,
            &mut sink,
            &mut self.collector,
            requests,
            &mut self.event_buffers,
            &self.profiler,
        );
        self.event_tally.add(&stats.tally);
        let secs = duration.as_millis() as f64 / 1_000.0;
        if secs > 0.0 {
            sink.record_app(MetricKind::Throughput, to, stats.requests as f64 / secs);
        }
        drop(sink); // window boundary: flush buffered samples
        self.clock = to;
        self.profiler.record("sim.window", window_started.elapsed());
        RunReport {
            from,
            to,
            requests: stats.requests,
            failures: stats.failures,
            response_time: stats.rt.summary(),
        }
    }

    /// The next window's arrivals, from the clock up to `to`, as event-core
    /// requests. Per request, in arrival order: the trace decision, then two
    /// draws from the simulation's stream — the root hop's seed and the
    /// conversion draw. An entry's endpoint name is resolved on its first
    /// draw of the window, so an entry never drawn is never looked up.
    fn window_requests(&mut self, to: SimTime, workload: &Workload) -> Vec<EventRequest> {
        cex_core::span!(self.profiler, "sim.window.arrivals");
        let window_seed = sub_seed(self.workload_seed, self.windows_run);
        self.windows_run += 1;
        let mut arrivals = ArrivalProcess::new(workload.clone(), self.clock, window_seed);
        let mut endpoints: Vec<Option<EndpointName>> = vec![None; workload.entries.len()];
        let mut requests = Vec::new();
        while let Some(draw) = arrivals.draw_before(to) {
            let trace = self.collector.begin_trace();
            let root_seed = self.rng.next_u64();
            let conv_u = self.rng.next_f64();
            let entry = &workload.entries[draw.entry];
            let endpoint = *endpoints[draw.entry].get_or_insert_with(|| {
                self.app
                    .endpoint_name(&entry.endpoint)
                    .expect("workload references a valid entry point")
            });
            requests.push(EventRequest {
                time: draw.time,
                user: draw.user,
                service: entry.service,
                endpoint,
                trace,
                root_seed,
                conv_u,
            });
        }
        requests
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{CallDef, EndpointDef, MAX_CALL_DEPTH};
    use crate::exec::{execute_request, Resilience};
    use crate::latency::LatencyModel;
    use cex_core::metrics::OnlineStats;

    impl Simulation {
        /// The latency multiplier load puts on `version` now.
        pub(crate) fn load_multiplier(&self, version: VersionId) -> f64 {
            self.load.multiplier(&self.app, version)
        }

        /// [`Simulation::run_with`] on the oracle ([`crate::exec`]): each
        /// arrival is walked to completion before the next, drawing from
        /// the simulation's streams in the same order (trace decision,
        /// root hop seed, conversion draw). The differentials in
        /// `event.rs` run it beside the shipped window.
        pub(crate) fn run_with_oracle(
            &mut self,
            duration: SimDuration,
            workload: &Workload,
        ) -> RunReport {
            let from = self.clock;
            let to = from + duration;
            let window_seed = sub_seed(self.workload_seed, self.windows_run);
            self.windows_run += 1;
            let mut arrivals = ArrivalProcess::new(workload.clone(), from, window_seed);

            let mut requests = 0u64;
            let mut failures = 0u64;
            let mut rt = OnlineStats::new();
            let mut sink = MetricSink::new(&mut self.store, &self.version_scopes, self.app_scope);
            for arrival in arrivals.arrivals_until(to) {
                let trace_id = self.collector.begin_trace();
                let result = execute_request(
                    &self.app,
                    &self.router,
                    &mut self.load,
                    &mut self.rng,
                    arrival.user,
                    arrival.service,
                    &arrival.endpoint,
                    arrival.time,
                    trace_id,
                    Some(&mut sink),
                    (self.call_policy != CallPolicy::default()).then_some(Resilience {
                        policy: self.call_policy,
                        state: &mut self.resilience_state,
                    }),
                    &self.faults,
                )
                .expect("workload references a valid entry point");
                requests += 1;
                if !result.ok {
                    failures += 1;
                }
                let ms = result.response_time.as_millis_f64();
                rt.push(ms);
                sink.record_app(MetricKind::ResponseTime, arrival.time, ms);
                let error = if result.ok { 0.0 } else { 1.0 };
                sink.record_app(MetricKind::ErrorRate, arrival.time, error);
                if let Some(trace) = result.trace {
                    self.collector.record(trace);
                }
            }
            let secs = duration.as_millis() as f64 / 1_000.0;
            if secs > 0.0 {
                sink.record_app(MetricKind::Throughput, to, requests as f64 / secs);
            }
            drop(sink); // window boundary: flush buffered samples
            self.clock = to;
            RunReport { from, to, requests, failures, response_time: rt.summary() }
        }

        /// [`Simulation::window_requests`] as it was before arrivals became
        /// (time, user, entry index): every arrival built whole by the
        /// linear-scan entry draw, its endpoint looked up by name.
        fn window_requests_by_lookup(
            &mut self,
            to: SimTime,
            workload: &Workload,
        ) -> Vec<EventRequest> {
            let window_seed = sub_seed(self.workload_seed, self.windows_run);
            self.windows_run += 1;
            let mut arrivals = ArrivalProcess::new(workload.clone(), self.clock, window_seed);
            let mut requests = Vec::new();
            loop {
                let arrival = arrivals.next_arrival_by_scan();
                if arrival.time >= to {
                    return requests;
                }
                let trace = self.collector.begin_trace();
                let root_seed = self.rng.next_u64();
                let conv_u = self.rng.next_f64();
                requests.push(EventRequest {
                    time: arrival.time,
                    user: arrival.user,
                    service: arrival.service,
                    endpoint: self
                        .app
                        .endpoint_name(&arrival.endpoint)
                        .expect("workload references a valid entry point"),
                    trace,
                    root_seed,
                    conv_u,
                });
            }
        }
    }

    #[test]
    fn window_requests_equal_the_linear_scan_and_name_lookup_oracle() {
        // One service serving `e0`..`e23`; a zero-weight entry names an
        // endpoint nobody serves, which must never be looked up.
        let mut b = Application::builder();
        let mut spec = VersionSpec::new("s", "1");
        for i in 0..24 {
            spec = spec.endpoint(EndpointDef::new(format!("e{i}"), LatencyModel::default()));
        }
        b.version(spec);
        let app = b.build().unwrap();
        let s = app.service_id("s").unwrap();
        for (case, weights) in crate::workload::entry_weight_cases(3).iter().enumerate() {
            let mut workload = Workload::simple(s, "e0", 2_000.0);
            workload.entries = weights
                .iter()
                .enumerate()
                .map(|(i, &weight)| crate::workload::EntryPoint {
                    service: s,
                    endpoint: if weight > 0.0 { format!("e{i}") } else { format!("nowhere{i}") },
                    weight,
                })
                .collect();
            let mut shipped = Simulation::new(app.clone(), 40 + case as u64);
            let mut oracle = Simulation::new(app.clone(), 40 + case as u64);
            for sim in [&mut shipped, &mut oracle] {
                sim.set_trace_sampling(0.3);
            }
            let mut drawn = 0;
            for window in 1..=2 {
                let to = SimTime::from_secs(30 * window);
                let requests = shipped.window_requests(to, &workload);
                assert_eq!(requests, oracle.window_requests_by_lookup(to, &workload), "{case}");
                drawn += requests.len();
                shipped.clock = to;
                oracle.clock = to;
            }
            assert!(drawn >= 100_000, "case {case}: {drawn} draws");
        }
    }

    fn app() -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("frontend", "1.0.0").capacity(1_000.0).endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("backend", "api")),
            ),
        );
        b.version(
            VersionSpec::new("backend", "1.0.0")
                .capacity(1_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        b.build().unwrap()
    }

    #[test]
    fn run_produces_consistent_report() {
        let mut sim = Simulation::new(app(), 42);
        let report = sim.run(SimDuration::from_secs(30), 20.0);
        assert!(report.requests > 400, "requests {}", report.requests);
        assert_eq!(report.failures, 0);
        assert!((report.response_time.mean - 15.0).abs() < 0.5);
        assert!((report.throughput_rps() - 20.0).abs() < 3.0);
        assert_eq!(report.error_rate(), 0.0);
        assert_eq!(sim.now(), SimTime::from_secs(30));
    }

    #[test]
    fn sim_busy_accumulates_across_windows() {
        let mut sim = Simulation::new(app(), 42);
        assert_eq!(sim.sim_busy(), std::time::Duration::ZERO);
        sim.run(SimDuration::from_secs(10), 20.0);
        let after_one = sim.sim_busy();
        assert!(after_one > std::time::Duration::ZERO);
        sim.run(SimDuration::from_secs(10), 20.0);
        assert!(sim.sim_busy() > after_one);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let mut a = Simulation::new(app(), 7);
        let mut b = Simulation::new(app(), 7);
        let ra = a.run(SimDuration::from_secs(10), 50.0);
        let rb = b.run(SimDuration::from_secs(10), 50.0);
        assert_eq!(ra, rb);
        // Profiling is wall-clock only: switched off (it is on by default)
        // the report and the counter registry are the same.
        let mut unprofiled = Simulation::new(app(), 7);
        unprofiled.set_obs(ObsConfig::disabled());
        assert_eq!(unprofiled.run(SimDuration::from_secs(10), 50.0), ra);
        assert_eq!(unprofiled.counters(), a.counters());
        assert!(a.counters().count("sim.events.popped") > 0);
        let mut c = Simulation::new(app(), 8);
        let rc = c.run(SimDuration::from_secs(10), 50.0);
        assert_ne!(ra.requests, 0);
        assert!(ra != rc || ra.requests != rc.requests);
    }

    #[test]
    fn consecutive_windows_advance_clock_and_differ() {
        let mut sim = Simulation::new(app(), 1);
        let r1 = sim.run(SimDuration::from_secs(5), 30.0);
        let r2 = sim.run(SimDuration::from_secs(5), 30.0);
        assert_eq!(r1.to, r2.from);
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn metrics_and_traces_accumulate() {
        let mut sim = Simulation::new(app(), 3);
        sim.set_trace_sampling(0.5);
        let report = sim.run(SimDuration::from_secs(20), 20.0);
        assert!(sim.store().count(APP_SCOPE, MetricKind::ResponseTime) as u64 == report.requests);
        assert!(
            sim.store().count("frontend@1.0.0", MetricKind::ResponseTime) as u64 == report.requests
        );
        let traced = sim.traces().count() as f64 / report.requests as f64;
        assert!((traced - 0.5).abs() < 0.05, "trace share {traced}");
        let drained = sim.drain_traces();
        assert!(!drained.is_empty());
        assert_eq!(sim.traces().count(), 0);
    }

    #[test]
    fn deploy_and_route_to_candidate() {
        let mut sim = Simulation::new(app(), 5);
        let candidate = sim
            .deploy(
                VersionSpec::new("backend", "2.0.0")
                    .capacity(1_000.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 50.0 })),
            )
            .unwrap();
        let backend = sim.app().service_id("backend").unwrap();
        let app_snapshot = sim.app().clone();
        sim.router_mut().set_split(&app_snapshot, backend, vec![(candidate, 1.0)]).unwrap();
        let report = sim.run(SimDuration::from_secs(10), 20.0);
        assert!(
            (report.response_time.mean - 55.0).abs() < 1.0,
            "mean {}",
            report.response_time.mean
        );
    }

    /// `services` services in a straight line, `s0.e → s1.e → …`, 1 ms each.
    fn chain(services: usize) -> Result<Application, SimError> {
        let mut b = Application::builder();
        for i in 0..services {
            let mut e = EndpointDef::new("e", LatencyModel::Constant { ms: 1.0 });
            if i + 1 < services {
                e = e.call(CallDef::always(format!("s{}", i + 1), "e"));
            }
            b.version(VersionSpec::new(format!("s{i}"), "1").endpoint(e));
        }
        b.build()
    }

    #[test]
    fn a_call_chain_too_deep_to_run_is_rejected_when_the_app_is_built() {
        let too_deep = SimError::CallDepthExceeded { limit: MAX_CALL_DEPTH };
        // The deepest chain the request core accepts: hops at depths 0..=32.
        let mut sim = Simulation::new(chain(MAX_CALL_DEPTH + 1).unwrap(), 3);
        let report = sim.run(SimDuration::from_secs(2), 20.0);
        assert!(report.requests > 0);
        assert_eq!(report.failures, 0);
        assert_eq!(report.response_time.min, (MAX_CALL_DEPTH + 1) as f64, "every hop ran");
        // One service more, and a cycle, are typed errors — at build …
        assert_eq!(chain(MAX_CALL_DEPTH + 2).unwrap_err(), too_deep);
        let mut b = Application::builder();
        for (caller, callee) in [("a", "b"), ("b", "a")] {
            b.version(VersionSpec::new(caller, "1").endpoint(
                EndpointDef::new("x", LatencyModel::default()).call(CallDef::always(callee, "x")),
            ));
        }
        assert_eq!(b.build().unwrap_err(), too_deep);
        // … and at deploy: a backend candidate that calls the frontend back.
        let mut sim = Simulation::new(app(), 3);
        let cyclic = VersionSpec::new("backend", "2.0.0").endpoint(
            EndpointDef::new("api", LatencyModel::default())
                .call(CallDef::always("frontend", "home")),
        );
        assert_eq!(sim.deploy(cyclic).unwrap_err(), too_deep);
        assert_eq!(sim.app(), &app());
    }

    #[test]
    fn a_failed_deploy_leaves_the_simulation_as_it_was() {
        let solo = |label: &str| {
            VersionSpec::new("a", label).endpoint(EndpointDef::new("x", LatencyModel::default()))
        };
        let mut b = Application::builder();
        b.version(solo("1"));
        let mut sim = Simulation::new(b.build().unwrap(), 5);
        let before = sim.app().clone();
        let ghost_caller = VersionSpec::new("a", "2").endpoint(
            EndpointDef::new("x", LatencyModel::default()).call(CallDef::always("ghost", "y")),
        );
        let err = sim.deploy(ghost_caller).unwrap_err();
        assert_eq!(
            err,
            SimError::BadApplication("service ghost referenced but never deployed".into())
        );
        // Rejected before it is looked at as part of the application: a new
        // service's version with no endpoint.
        assert!(sim.deploy(VersionSpec::new("b", "1")).is_err());
        assert_eq!(sim.app(), &before, "no ghost service, version or interned name left");
        assert_eq!((sim.app().service_count(), sim.app().version_count()), (1, 1));
        assert!(sim.app().version_id("a", "2").is_err());
        // The next, valid deploy is judged on its own.
        let third = sim.deploy(solo("3")).unwrap();
        assert_eq!(sim.app().version_label(third), "a@3");
        let report = sim.run(SimDuration::from_secs(5), 20.0);
        assert!(report.requests > 0);
        assert_eq!(report.failures, 0);
    }

    #[test]
    fn injected_faults_degrade_the_window() {
        use crate::faults::{Fault, FaultKind};
        let mut sim = Simulation::new(app(), 13);
        let backend = sim.app().version_id("backend", "1.0.0").unwrap();
        sim.inject_fault(Fault {
            version: backend,
            kind: FaultKind::LatencySpike { multiplier: 5.0 },
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        sim.inject_fault(Fault {
            version: backend,
            kind: FaultKind::ErrorBurst { extra_error_rate: 0.5 },
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        let healthy = sim.run(SimDuration::from_secs(10), 30.0);
        let faulty = sim.run(SimDuration::from_secs(10), 30.0);
        let recovered = sim.run(SimDuration::from_secs(10), 30.0);
        assert_eq!(healthy.failures, 0);
        assert!(faulty.error_rate() > 0.3, "error rate {}", faulty.error_rate());
        assert!(
            faulty.response_time.mean > 2.0 * healthy.response_time.mean,
            "faulty {} vs healthy {}",
            faulty.response_time.mean,
            healthy.response_time.mean
        );
        assert_eq!(recovered.failures, 0);
        assert!((recovered.response_time.mean - healthy.response_time.mean).abs() < 2.0);
        assert!(!sim.faults().is_empty());
    }

    fn outage_policy() -> CallPolicy {
        CallPolicy {
            max_retries: 1,
            backoff_base: SimDuration::from_millis(20),
            backoff_multiplier: 2.0,
            jitter: 0.5,
            breaker: Some(crate::resilience::BreakerPolicy {
                error_threshold: 0.5,
                min_calls: 10,
                window: 40,
                cooldown: SimDuration::from_secs(5),
                half_open_probes: 3,
            }),
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
            ..CallPolicy::default()
        }
    }

    #[test]
    fn resilience_contains_an_outage_and_breaker_recloses() {
        use crate::faults::{Fault, FaultKind};
        let mut sim = Simulation::new(app(), 21);
        sim.set_call_policy(outage_policy());
        let frontend = sim.app().version_id("frontend", "1.0.0").unwrap();
        let backend = sim.app().version_id("backend", "1.0.0").unwrap();
        sim.inject_fault(Fault {
            version: backend,
            kind: FaultKind::Outage,
            from: SimTime::from_secs(10),
            until: SimTime::from_secs(20),
        });
        let healthy = sim.run(SimDuration::from_secs(10), 50.0);
        let outage = sim.run(SimDuration::from_secs(10), 50.0);
        let recovered = sim.run(SimDuration::from_secs(10), 50.0);
        // Fallback keeps the app-visible error rate at zero throughout.
        assert_eq!(healthy.failures, 0);
        assert_eq!(outage.failures, 0, "fallback absorbs the outage");
        assert_eq!(recovered.failures, 0);
        // The breaker opened during the outage and re-closed afterwards.
        let transitions = sim.drain_breaker_transitions();
        assert!(transitions
            .iter()
            .any(|t| t.caller == frontend && t.callee == backend && t.to == BreakerState::Open));
        assert_eq!(sim.breaker_state(frontend, backend), Some(BreakerState::Closed));
        let reclosed_at = transitions
            .iter()
            .rfind(|t| t.to == BreakerState::Closed)
            .expect("breaker re-closes after the fault clears")
            .time;
        assert!(reclosed_at >= SimTime::from_secs(20));
        assert!(reclosed_at <= SimTime::from_secs(30), "re-close within the recovery window");
        // The callee's own telemetry still shows the outage (detection is
        // not masked by mitigation), and sheds/fallbacks were recorded.
        assert!(sim.store().count("backend@1.0.0", MetricKind::Shed) > 0);
        assert!(sim.store().count("backend@1.0.0", MetricKind::FallbackServed) > 0);
        assert!(sim.store().count("backend@1.0.0", MetricKind::BreakerOpen) >= 1);
    }

    #[test]
    fn resilience_enabled_runs_are_deterministic_per_seed() {
        use crate::faults::{Fault, FaultKind};
        let run_once = |seed: u64| {
            let mut sim = Simulation::new(app(), seed);
            sim.set_call_policy(outage_policy());
            let backend = sim.app().version_id("backend", "1.0.0").unwrap();
            sim.inject_fault(Fault {
                version: backend,
                kind: FaultKind::Outage,
                from: SimTime::from_secs(5),
                until: SimTime::from_secs(15),
            });
            let reports: Vec<RunReport> =
                (0..4).map(|_| sim.run(SimDuration::from_secs(5), 40.0)).collect();
            let transitions = sim.drain_breaker_transitions();
            let samples = sim.store().total_samples();
            (reports, transitions, samples)
        };
        let a = run_once(33);
        let b = run_once(33);
        assert_eq!(a.0, b.0, "same-seed reports identical");
        assert_eq!(a.1, b.1, "same-seed breaker transitions identical");
        assert_eq!(a.2, b.2, "same-seed sample counts identical");
        assert!(!a.1.is_empty(), "the outage actually tripped the breaker");
        let c = run_once(34);
        assert!(a.0 != c.0, "different seed, different trajectory");
    }

    #[test]
    fn proxy_overhead_shifts_end_to_end_mean() {
        let mut bare = Simulation::new(app(), 9);
        let base = bare.run(SimDuration::from_secs(10), 20.0);
        let mut proxied = Simulation::new(app(), 9);
        proxied.set_router(Router::with_proxy_overhead(SimDuration::from_millis(2)));
        let over = proxied.run(SimDuration::from_secs(10), 20.0);
        // Two hops × 2 ms = 4 ms extra.
        let delta = over.response_time.mean - base.response_time.mean;
        assert!((delta - 4.0).abs() < 0.5, "delta {delta}");
    }
}
