//! The multi-strategy execution engine (Section 4.4).
//!
//! The engine interleaves the application simulation with experiment
//! control: it advances the virtual clock one *tick* at a time, lets the
//! workload generate traffic, evaluates every strategy's due checks
//! against the metric store, drives the state machines, and enacts the
//! resulting routing changes. Strategies run fully in parallel — the
//! paper's headline engine result is "more than a hundred experiments in
//! parallel without introducing a significant performance degradation"
//! (Figures 4.7–4.10) — which is a statement about concurrent
//! *strategies*: one thread evaluates, decides and journals all of them,
//! a tick at a time. Each tick is two passes — every running strategy's
//! checks are evaluated first, then every strategy is applied in
//! submission order — because applying one strategy moves routing and
//! retires scopes that a later strategy's checks would otherwise read.
//! That order is journaled behaviour.
//!
//! This module is the *shell*: it gathers what a tick observed (how a
//! phase's checks are looked at lives in [`crate::checks`]), asks
//! [`crate::decide::decide`] — the rollout policy — what that means for
//! each strategy, and enacts and journals the answer.
//!
//! The engine accounts its own processing cost separately from the
//! simulated application: [`ExecutionReport::engine_busy`] (the CPU proxy
//! of Figures 4.7/4.9) and the per-tick processing times (the delay of
//! Figures 4.8/4.10).

use crate::checks::{CheckContext, PhaseChecks};
use crate::decide::{self, Evaluation, RunView, TickObservation};
use crate::enact::{self, StrategyBinding};
use crate::error::BifrostError;
use crate::journal::{HealthDetail, Journal, JournalEvent, Name};
use crate::machine::{State, StateMachine};
use crate::model::{ChaosKind, ChaosSpec, ChaosTarget, CheckScope, PhaseKind, Strategy};
use cex_core::metrics::MetricKind;
use cex_core::obs::{Counters, ObsConfig, ProfileSnapshot, Profiler};
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, VersionId};
use microsim::faults::{self, Fault, FaultKind};
use microsim::health::{self, EdgeDelta, HealthAccumulator, HealthReport};
use microsim::monitor::ScopeId;
use microsim::resilience::BreakerTransition;
use microsim::sim::Simulation;
use microsim::trace::{SpanBook, TailSamplingConfig, Trace};
use microsim::workload::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Simulation advance per control-loop iteration; zero is rejected.
    pub tick: SimDuration,
    /// Bound on consecutive executions of one phase: the `max_retries`-th
    /// consecutive non-success outcome that would re-enter the phase rolls
    /// the strategy back instead (guards against endless retry loops). With
    /// `max_retries = 2` an inconclusive phase runs twice — the initial
    /// execution plus one retry — before the rollback.
    pub max_retries: u32,
    /// Read nowhere: every check is evaluated on the calling thread. Kept
    /// only because `benchmark/src/fleet.rs` names it; it goes with that
    /// line in the next `[benchmark]` change (ROADMAP, the instrument item).
    pub workers: usize,
    /// Read nowhere: the event core is one queue on the calling thread.
    /// Kept, like `workers`, only because `benchmark/src/fleet.rs` names it.
    pub sim_workers: usize,
    /// Tail-based trace sampling applied to the sim's collector at the
    /// start of every execution ([`microsim::sim::Simulation::set_tail_sampling`]):
    /// erroneous and slow traces are always retained, healthy ones keep a
    /// weighted 1-in-`k` representative. `None` (the default) retains
    /// every sampled trace.
    pub tail_sampling: Option<TailSamplingConfig>,
    /// Emit a [`JournalEvent::Runtime`] counter-registry snapshot every
    /// this many ticks (`0`, the default, disables the cadence). The
    /// snapshot carries only seed-pure counters, so journal bytes stay
    /// identical across runs.
    pub runtime_report_every: u64,
    /// Runtime self-observability configuration, applied to the
    /// simulation at the start of every execution and gating the
    /// engine's own phase spans. Counters are always collected (they are
    /// seed-pure and effectively free); this only controls wall-clock
    /// profiling.
    pub obs: ObsConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tick: SimDuration::from_secs(10),
            max_retries: 3,
            workers: 1,
            sim_workers: 1,
            tail_sampling: None,
            runtime_report_every: 0,
            obs: ObsConfig::default(),
        }
    }
}

/// Terminal or live status of one strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyStatus {
    /// Still executing when the engine stopped.
    Running,
    /// Finished successfully; candidate promoted.
    Completed,
    /// Aborted; users returned to the baseline.
    RolledBack,
}

/// Sidecar runtime self-observability report (the determinism split's
/// wall-clock side plus the counter registry).
///
/// The counter registry is a pure function of the seed and also feeds
/// [`JournalEvent::Runtime`] events; the profile holds wall-clock phase
/// timings (engine tick phases, the sim event core, metric-store
/// probes) and is **never** journaled — it varies run to run.
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    /// Merged engine + simulation counter registry at the end of the
    /// run. Seed-pure: identical across repeated runs.
    pub counters: Counters,
    /// The hierarchical wall-clock phase profile. Empty except for the
    /// always-on busy totals when [`ObsConfig::disabled`] was configured.
    pub profile: ProfileSnapshot,
}

impl PartialEq for RuntimeReport {
    /// Equality over the seed-pure counters only — wall-clock profile
    /// timings differ between otherwise identical runs by design.
    fn eq(&self, other: &Self) -> bool {
        self.counters == other.counters
    }
}

/// Aggregate outcome of one engine execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionReport {
    /// Final status per strategy, in submission order.
    pub statuses: Vec<(String, StrategyStatus)>,
    /// Control-loop iterations executed.
    pub ticks: u64,
    /// Total check evaluations performed.
    pub check_evaluations: u64,
    /// Wall-clock time spent in engine logic (excluding the application
    /// simulation) — the CPU-utilization numerator of Figure 4.7.
    pub engine_busy: Duration,
    /// Wall-clock time of the whole execution (simulation + engine).
    pub wall_total: Duration,
    /// Mean engine processing time per tick — the "delay" of Figure 4.8:
    /// how long routing decisions lag behind the data that triggers them.
    pub mean_tick_processing: Duration,
    /// Worst-case tick processing time.
    pub max_tick_processing: Duration,
    /// Simulated time covered.
    pub sim_duration: SimDuration,
    /// Trace-derived canary-vs-baseline health report per strategy, in
    /// submission order — distilled from the traces the engine drained
    /// during the run. Empty when trace collection was off
    /// (`set_trace_sampling(0.0)`) or no request was sampled.
    pub health: Vec<(String, HealthReport)>,
    /// Runtime self-observability: the unified counter registry and the
    /// wall-clock phase profile (see [`RuntimeReport`] for the
    /// determinism split).
    pub runtime: RuntimeReport,
}

impl ExecutionReport {
    /// Engine CPU utilization: engine processing time over total wall
    /// time.
    pub fn cpu_utilization(&self) -> f64 {
        let total = self.wall_total.as_secs_f64();
        if total > 0.0 {
            self.engine_busy.as_secs_f64() / total
        } else {
            0.0
        }
    }

    /// `true` when every strategy reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.statuses.iter().all(|(_, s)| *s != StrategyStatus::Running)
    }
}

/// What a strategy resolves to once, before its first phase.
struct Compiled<'a> {
    strategy: &'a Strategy,
    /// Shared copies of the strategy and phase names — journal events
    /// clone these (an atomic refcount bump) instead of allocating on
    /// every check evaluation.
    name: Name,
    phase_names: Vec<Name>,
    binding: StrategyBinding,
    ctx: CheckContext,
    machine: StateMachine,
}

/// What restarts when a strategy (re-)enters a phase: a retry repeats the
/// whole experiment.
struct PhaseRun {
    index: usize,
    /// Candidate share the phase routes; moves only in a gradual rollout.
    rollout_percent: f64,
    next_rollout_step: SimTime,
    checks: PhaseChecks,
}

struct RunState<'a> {
    compiled: Compiled<'a>,
    status: StrategyStatus,
    retries: u32,
    /// The phase in progress; the last one once `status` is terminal.
    phase: PhaseRun,
}

impl<'a> Compiled<'a> {
    /// Compiles and binds a strategy and resolves every phase's chaos
    /// target; of the simulation, only the store's interner is touched.
    fn bind(sim: &mut Simulation, strategy: &'a Strategy) -> Result<Self, BifrostError> {
        let machine = StateMachine::compile(strategy)?;
        let app = sim.app();
        let binding = StrategyBinding::resolve(app, strategy)?;
        for spec in strategy.phases.iter().filter_map(|phase| phase.chaos.as_ref()) {
            chaos_versions(spec, &binding, app)?;
        }
        let (candidate, baseline) = (binding.candidate_scope(app), binding.baseline_scope(app));
        let ctx = CheckContext::new(sim.store_mut(), candidate, baseline);
        Ok(Compiled {
            strategy,
            name: strategy.name.as_str().into(),
            phase_names: strategy.phases.iter().map(|p| p.name.as_str().into()).collect(),
            binding,
            ctx,
            machine,
        })
    }

    /// Routes phase `index` at `rollout_percent` and journals the enactment.
    fn enact(
        &self,
        sim: &mut Simulation,
        index: usize,
        rollout_percent: f64,
        journal: &mut Journal,
    ) -> Result<(), BifrostError> {
        let kind = &self.strategy.phases[index].kind;
        let (app, router) = sim.app_and_router_mut();
        enact::enact_phase(app, router, &self.binding, kind, Some(rollout_percent))?;
        journal.record(JournalEvent::Enacted {
            time: sim.now(),
            strategy: self.name.clone(),
            phase: self.phase_names[index].clone(),
            kind: kind.keyword(),
            percent: rollout_percent,
        });
        Ok(())
    }

    /// The one phase-entry path — phase 0, transitions, retries: enact the
    /// routing, arm the chaos window (a retry repeats the outage too),
    /// start the phase's clocks.
    fn enter_phase(
        &self,
        sim: &mut Simulation,
        index: usize,
        journal: &mut Journal,
    ) -> Result<PhaseRun, BifrostError> {
        let now = sim.now();
        let phase = &self.strategy.phases[index];
        let (rollout_percent, next_rollout_step) = entry_percent(&phase.kind, now);
        self.enact(sim, index, rollout_percent, journal)?;
        if let Some(spec) = &phase.chaos {
            let versions = chaos_versions(spec, &self.binding, sim.app())?;
            for fault in chaos_faults(spec, versions, now) {
                sim.inject_fault(fault);
            }
            let from = now + spec.start_after;
            journal.record(JournalEvent::Chaos {
                time: now,
                strategy: self.name.clone(),
                phase: self.phase_names[index].clone(),
                kind: chaos_journal_kind(spec),
                magnitude: chaos_magnitude(&spec.kind),
                target: chaos_target_label(spec, sim.app(), &self.binding).into(),
                from,
                until: from + spec.duration,
            });
        }
        let checks = PhaseChecks::new(&phase.checks, now);
        Ok(PhaseRun { index, rollout_percent, next_rollout_step, checks })
    }

    /// Journals check evaluations with the windows they read.
    fn journal_checks(
        &self,
        journal: &mut Journal,
        now: SimTime,
        phase: usize,
        evaluations: &[Evaluation],
        boundary: bool,
    ) {
        for (check, observed) in evaluations {
            let spec = &self.strategy.phases[phase].checks[*check];
            journal.record(JournalEvent::Check {
                time: now,
                strategy: self.name.clone(),
                phase: self.phase_names[phase].clone(),
                check: *check,
                metric: spec.metric,
                scope: spec.scope,
                boundary,
                result: observed.result,
                primary: observed.primary,
                baseline: observed.baseline.map(Box::new),
            });
        }
    }
}

/// The trace pipeline: every tick the engine drains the sampled traces,
/// folds them into a health accumulator (the canary-vs-baseline
/// interaction graph) and distills per-span samples into the
/// `trace:service@version` store scopes that trace-scoped checks read.
struct TracePipeline {
    /// Resolves interned span identity; versions deploy before execution,
    /// so one snapshot stays valid for the run.
    book: SpanBook,
    /// `service@version` label per `VersionId`, shared by the events that
    /// journal it.
    labels: Vec<Name>,
    /// `trace:service@version` scope per `VersionId`.
    scopes: Vec<ScopeId>,
    health: HealthAccumulator,
    /// Drain scratch, reused so the steady-state loop allocates nothing.
    breakers: Vec<BreakerTransition>,
    drained: Vec<Trace>,
}

impl TracePipeline {
    fn new(sim: &mut Simulation) -> Self {
        let book = sim.span_book();
        let labels: Vec<Name> =
            (0..book.version_count()).map(|i| book.version_label(VersionId(i)).into()).collect();
        let store = sim.store_mut();
        let scopes = labels.iter().map(|label| store.intern(&format!("trace:{label}"))).collect();
        TracePipeline {
            book,
            labels,
            scopes,
            health: HealthAccumulator::new(),
            breakers: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Runs before the checks are evaluated, so trace-scoped checks
    /// already see this tick's data; fold order is collection order.
    fn drain(&mut self, sim: &mut Simulation, journal: &mut Journal) {
        // Breaker transitions are sim state; drain and journal them every
        // tick so the backlog never grows unboundedly.
        sim.drain_breaker_transitions_into(&mut self.breakers);
        for tr in &self.breakers {
            journal.record(JournalEvent::Breaker {
                time: tr.time,
                caller: self.labels[tr.caller.0].clone(),
                callee: self.labels[tr.callee.0].clone(),
                from: tr.from,
                to: tr.to,
            });
        }
        sim.drain_traces_into(&mut self.drained);
        if !self.drained.is_empty() {
            distill_trace_samples(sim, &self.scopes, &self.drained);
            self.health.observe_all(&self.drained);
        }
    }

    /// One strategy's health report; `None` when no trace was collected.
    /// Its critical-sink list is fleet-wide: `sinks`, built once by
    /// [`HealthAccumulator::critical_sink_list`] and shared by every report.
    fn report(
        &self,
        binding: &StrategyBinding,
        sinks: &Arc<[(String, u64)]>,
    ) -> Option<HealthReport> {
        (self.health.traces() > 0).then(|| {
            let (baseline, candidate) = (binding.baseline, binding.candidate);
            let sinks = Arc::clone(sinks);
            HealthReport::build_sharing(&self.health, &self.book, baseline, candidate, sinks)
        })
    }

    /// The worst-edge snapshot journaled beside a boundary's verdicts: what
    /// [`TracePipeline::report`] would say of the worst edge, from the
    /// pair's edge deltas alone (no critical-sink list, no report).
    fn snapshot(
        &self,
        sim: &Simulation,
        binding: &StrategyBinding,
        strategy: Name,
        phase: Name,
    ) -> Option<JournalEvent> {
        if self.health.traces() == 0 {
            return None;
        }
        let edges = self.health.edge_deltas(&self.book, binding.baseline, binding.candidate);
        let worst = health::worst_edge(&edges);
        let sampling = sim.trace_collector().sampling_stats();
        Some(JournalEvent::HealthSnapshot {
            time: sim.now(),
            strategy,
            phase,
            traces: self.health.traces(),
            failed: self.health.failed_traces(),
            detail: Box::new(HealthDetail {
                baseline: self.labels[binding.baseline.0].clone(),
                canary: self.labels[binding.candidate.0].clone(),
                worst_edge: worst.map(|e| e.endpoint.as_str().into()),
                score: worst.map_or(0.0, EdgeDelta::score),
                error_rate_delta: worst.map_or(0.0, EdgeDelta::error_rate_delta),
                p95_delta_ms: worst.map_or(0.0, EdgeDelta::p95_delta_ms),
                dropped: sampling.evicted,
                tail_kept: sampling.tail_kept,
                downsampled: sampling.downsampled_kept,
            }),
        })
    }
}

/// The Bifrost execution engine.
#[derive(Debug, Clone, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine { config }
    }

    /// [`Engine::execute_journaled`] without its journal: the run is
    /// journaled all the same, and the journal is dropped.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::execute_journaled`].
    pub fn execute(
        &self,
        sim: &mut Simulation,
        strategies: &[Strategy],
        workload: &Workload,
        max_duration: SimDuration,
    ) -> Result<ExecutionReport, BifrostError> {
        Ok(self.execute_journaled(sim, strategies, workload, max_duration)?.0)
    }

    /// Executes `strategies` against the simulated application under
    /// `workload` until every strategy terminates or `max_duration` of
    /// simulated time elapses, recording a structured [`Journal`] of the
    /// run: every check evaluation with the window summaries it read,
    /// every transition, every enactment, every retired scope, and
    /// per-tick engine accounting. The journal's serialized form
    /// ([`Journal::to_jsonl`]) is byte-identical across repeated runs with
    /// the same seed.
    ///
    /// # Errors
    ///
    /// Returns [`BifrostError`] when a strategy fails validation/
    /// compilation, its versions are not deployed, enactment fails, or the
    /// configured tick is zero.
    pub fn execute_journaled(
        &self,
        sim: &mut Simulation,
        strategies: &[Strategy],
        workload: &Workload,
        max_duration: SimDuration,
    ) -> Result<(ExecutionReport, Journal), BifrostError> {
        if strategies.is_empty() {
            return Err(BifrostError::Execution("no strategies to execute".into()));
        }
        let started_wall = Instant::now();
        let started_sim = sim.now();
        let deadline = started_sim + max_duration;
        // Wall-clock timings go to the sidecar RuntimeReport, never the journal.
        let profiler = Profiler::new(self.config.obs);
        let mut journal = Journal::new();
        let mut execution =
            Execution::start(&self.config, &profiler, sim, strategies, &mut journal)?;
        while execution.sim.now() < deadline && execution.active() > 0 {
            execution.tick(workload, deadline)?;
        }
        let report = execution.finish(started_wall, started_sim);
        Ok((report, journal))
    }
}

/// The raw-sample retention horizon an execution applies to the store.
/// The journal — not the store — is the long-term record of a run, so
/// older samples are compacted into their buckets, bounding memory on
/// million-request executions. Four times the longest check window and
/// never less than five minutes: every live check reads a fully
/// raw-backed, sample-exact window.
fn retention_horizon(strategies: &[Strategy]) -> SimDuration {
    // Sequential checks read cumulative windows that grow to the full
    // phase duration, so the phase duration — not the (zero) declared
    // window — is their retention demand.
    let longest = strategies
        .iter()
        .flat_map(|s| s.phases.iter())
        .flat_map(|p| {
            p.checks.iter().map(move |c| {
                if c.scope == CheckScope::SequentialVsBaseline {
                    p.duration
                } else {
                    c.window
                }
            })
        })
        .max()
        .unwrap_or(SimDuration::ZERO);
    let quadrupled = SimDuration::from_millis(longest.as_millis().saturating_mul(4));
    quadrupled.max(SimDuration::from_mins(5))
}

/// One execution in flight: what the control loop carries between ticks.
struct Execution<'a> {
    config: &'a EngineConfig,
    profiler: &'a Profiler,
    sim: &'a mut Simulation,
    journal: &'a mut Journal,
    traces: TracePipeline,
    runs: Vec<RunState<'a>>,
    ticks: u64,
    check_evaluations: u64,
    max_tick_processing: Duration,
}

impl<'a> Execution<'a> {
    /// Binds every strategy first, which only interns scope names, so a
    /// start that fails leaves the simulation as it was; then applies the
    /// configuration to it and enters every strategy's phase 0, in order.
    fn start(
        config: &'a EngineConfig,
        profiler: &'a Profiler,
        sim: &'a mut Simulation,
        strategies: &'a [Strategy],
        journal: &'a mut Journal,
    ) -> Result<Self, BifrostError> {
        if config.tick.is_zero() {
            // A zero step never advances the clock: the loop would spin.
            return Err(BifrostError::Execution("engine tick must be positive".into()));
        }
        let traces = TracePipeline::new(sim);
        let compiled: Vec<_> =
            strategies.iter().map(|s| Compiled::bind(sim, s)).collect::<Result<_, _>>()?;
        sim.store_mut().set_retention(Some(retention_horizon(strategies)));
        sim.set_tail_sampling(config.tail_sampling);
        sim.set_obs(config.obs);
        let mut runs = Vec::with_capacity(strategies.len());
        for compiled in compiled {
            let phase = compiled.enter_phase(sim, 0, journal)?;
            runs.push(RunState { compiled, status: StrategyStatus::Running, retries: 0, phase });
        }
        Ok(Execution {
            config,
            profiler,
            sim,
            journal,
            traces,
            runs,
            ticks: 0,
            check_evaluations: 0,
            max_tick_processing: Duration::ZERO,
        })
    }

    fn active(&self) -> usize {
        self.runs.iter().filter(|r| r.status == StrategyStatus::Running).count()
    }

    fn tick(&mut self, workload: &Workload, deadline: SimTime) -> Result<(), BifrostError> {
        let profiler = self.profiler;
        let tick_started = Instant::now();
        let step = self.config.tick.min(deadline - self.sim.now());
        {
            cex_core::span!(profiler, "engine.tick.simulate");
            self.sim.run_with(step, workload);
        }
        let now = self.sim.now();

        let engine_start = Instant::now();
        {
            cex_core::span!(profiler, "engine.tick.drain_traces");
            self.traces.drain(self.sim, self.journal);
        }
        let observations = self.observe(now);
        let due_checks = observations.iter().flatten().map(|o| o.evaluations()).sum::<u64>();
        self.check_evaluations += due_checks;
        self.apply(observations, now)?;
        let spent = engine_start.elapsed();
        self.max_tick_processing = self.max_tick_processing.max(spent);
        let tick = self.ticks;
        self.ticks += 1;
        {
            cex_core::span!(profiler, "engine.tick.journal_encode");
            let (active, window_reads) = (self.active(), self.sim.store().window_reads());
            self.journal.record(JournalEvent::Tick {
                time: now,
                tick,
                active,
                due_checks,
                window_reads,
                busy: spent,
            });
            // The runtime cadence: a counter-registry snapshot, pure
            // in the seed, taken after this tick's ordinary events so
            // its own position in the stream is deterministic too.
            let every = self.config.runtime_report_every;
            if every > 0 && self.ticks.is_multiple_of(every) {
                let counters = self.registry();
                self.journal.record(JournalEvent::Runtime { time: now, tick, counters });
            }
        }
        // Always-on accounting: `engine.busy` backs the report's
        // engine_busy thin read; `engine.tick` is the whole-iteration
        // root the phase spans above nest under.
        profiler.record("engine.busy", spent);
        profiler.record("engine.tick", tick_started.elapsed());
        Ok(())
    }

    /// The counter registry, merged across engine and simulation.
    fn registry(&self) -> Counters {
        let mut counters = self.sim.counters();
        counters.add("engine.ticks", self.ticks);
        counters.add("engine.check_evaluations", self.check_evaluations);
        counters.add("engine.journal.events", self.journal.len() as u64);
        counters
    }

    /// First pass: evaluate due checks (and phase-boundary checks) for
    /// every running strategy, before any strategy is applied.
    fn observe(&mut self, now: SimTime) -> Vec<Option<TickObservation>> {
        cex_core::span!(self.profiler, "engine.tick.observe");
        let running = |run: &RunState| run.status == StrategyStatus::Running;
        // Which checks are due, outside the evaluation span.
        for run in self.runs.iter_mut().filter(|run| running(run)) {
            let checks = &run.compiled.strategy.phases[run.phase.index].checks;
            run.phase.checks.schedule(checks, now);
        }
        let store = self.sim.store();
        cex_core::span!(self.profiler, "engine.tick.observe.evaluate_checks");
        let look = |run: &mut RunState| {
            let phase = &run.compiled.strategy.phases[run.phase.index];
            run.phase.checks.look(phase, &run.compiled.ctx, store, now)
        };
        self.runs.iter_mut().map(|run| running(run).then(|| look(run))).collect()
    }

    /// Second pass: ask [`decide::decide`] what the tick means for each
    /// strategy, enact and journal the answer, in strategy submission
    /// order — that, plus the virtual clock, makes the journal
    /// deterministic.
    fn apply(
        &mut self,
        observations: Vec<Option<TickObservation>>,
        now: SimTime,
    ) -> Result<(), BifrostError> {
        cex_core::span!(self.profiler, "engine.tick.apply");
        // Scopes retired by strategies reaching a terminal state this
        // tick; pruned after the loop so shared scopes can be guarded.
        let mut retired: Vec<(Name, String)> = Vec::new();
        for (run, obs) in self.runs.iter_mut().zip(observations) {
            let Some(obs) = obs else { continue };
            let compiled = &run.compiled;
            let index = run.phase.index;
            let view = RunView {
                machine: &compiled.machine,
                phase_index: index,
                retries: run.retries,
                rollout_percent: run.phase.rollout_percent,
                next_rollout_step: run.phase.next_rollout_step,
                sequential: run.phase.checks.sequential(),
            };
            let phase = &compiled.strategy.phases[index];
            let decision = decide::decide(phase, view, &obs, now, self.config.max_retries);

            compiled.journal_checks(self.journal, now, index, &obs.due_results, false);
            if let Some(step) = decision.ramp {
                run.phase.next_rollout_step = step.next_step_at;
                if step.guarded {
                    self.journal.record(JournalEvent::Ramp {
                        time: now,
                        strategy: compiled.name.clone(),
                        phase: compiled.phase_names[index].clone(),
                        decision: step.decision,
                        percent: step.percent,
                        lr_harm: step.lr_harm,
                    });
                }
                if step.percent != run.phase.rollout_percent {
                    run.phase.rollout_percent = step.percent;
                    compiled.enact(self.sim, index, step.percent, self.journal)?;
                }
            }
            if let Some(boundary) = &obs.boundary_results {
                compiled.journal_checks(self.journal, now, index, boundary, true);
                let (strategy, phase) =
                    (compiled.name.clone(), compiled.phase_names[index].clone());
                if let Some(snapshot) =
                    self.traces.snapshot(self.sim, &compiled.binding, strategy, phase)
                {
                    self.journal.record(snapshot);
                }
            }

            let Some(outcome) = decision.outcome else { continue };
            if let Some(p) = decision.early_stop_p {
                self.journal.record(JournalEvent::EarlyStop {
                    time: now,
                    strategy: compiled.name.clone(),
                    phase: compiled.phase_names[index].clone(),
                    outcome,
                    p,
                });
            }
            run.retries = decision.retries;
            let (from, to) = (State::Phase(index), decision.next);
            self.journal.record(JournalEvent::Transition {
                time: now,
                strategy: compiled.name.clone(),
                from,
                to,
                outcome,
            });
            match to {
                State::Phase(next) => {
                    run.phase = compiled.enter_phase(self.sim, next, self.journal)?;
                }
                State::Completed => {
                    let (app, router) = self.sim.app_and_router_mut();
                    enact::complete(app, router, &compiled.binding)?;
                    run.status = StrategyStatus::Completed;
                    // The baseline side retires: completion promoted the
                    // candidate to all users.
                    retired.push((compiled.name.clone(), compiled.ctx.baseline_scope.clone()));
                }
                State::RolledBack => {
                    enact::rollback(self.sim.router_mut(), &compiled.binding);
                    run.status = StrategyStatus::RolledBack;
                    // The candidate side retires: everyone is back on the
                    // baseline.
                    retired.push((compiled.name.clone(), compiled.ctx.candidate_scope.clone()));
                }
            }
        }

        self.retire(retired, now);
        Ok(())
    }

    /// Prunes the scopes of strategies that just terminated: their final
    /// checks are journaled, so they must not pin samples in the live
    /// store forever. A scope another running strategy still references
    /// (e.g. a shared baseline) is kept.
    fn retire(&mut self, retired: Vec<(Name, String)>, now: SimTime) {
        for (strategy, scope) in retired {
            let still_referenced = self.runs.iter().any(|r| {
                r.status == StrategyStatus::Running
                    && (r.compiled.ctx.candidate_scope == scope
                        || r.compiled.ctx.baseline_scope == scope)
            });
            if still_referenced {
                continue;
            }
            self.sim.store_mut().clear_scope(&scope);
            self.journal.record(JournalEvent::ScopeCleared {
                time: now,
                strategy,
                scope: scope.into(),
            });
        }
    }

    fn finish(self, started_wall: Instant, started_sim: SimTime) -> ExecutionReport {
        let engine_busy = self.profiler.total("engine.busy");
        let sampling = self.sim.trace_collector().sampling_stats();
        let sinks = self.traces.health.critical_sink_list(&self.traces.book);
        let health = self
            .runs
            .iter()
            .filter_map(|r| {
                let report = self.traces.report(&r.compiled.binding, &sinks)?;
                Some((r.compiled.strategy.name.clone(), report.with_sampling(sampling)))
            })
            .collect();
        let counters = self.registry();
        // One combined wall-clock phase tree: engine tick phases, the
        // sim's window/event-core nodes, and the store's probe totals.
        self.profiler.merge(self.sim.profiler());
        self.sim.fold_probes_into(self.profiler);
        ExecutionReport {
            statuses: self
                .runs
                .iter()
                .map(|r| (r.compiled.strategy.name.clone(), r.status.clone()))
                .collect(),
            ticks: self.ticks,
            check_evaluations: self.check_evaluations,
            engine_busy,
            wall_total: started_wall.elapsed(),
            mean_tick_processing: engine_busy.checked_div(self.ticks as u32).unwrap_or_default(),
            max_tick_processing: self.max_tick_processing,
            sim_duration: self.sim.now() - started_sim,
            health,
            runtime: RuntimeReport { counters, profile: self.profiler.snapshot() },
        }
    }
}

/// Distills drained traces into the metric store's trace-derived scopes:
/// every executed span lands a response-time and an error-rate sample
/// under `trace:service@version` (by interned id — no string formatting
/// on the per-tick path). Shed/fallback event spans carry no service
/// latency and dark spans are off the user path; both are skipped.
/// Samples are stamped at the drain time, keeping every series monotonic
/// for the store's window reads.
fn distill_trace_samples(sim: &mut Simulation, trace_scopes: &[ScopeId], drained: &[Trace]) {
    let now = sim.now();
    let mut batch = sim.store_mut().batch();
    for trace in drained {
        for hop in trace.hops().filter(|hop| !hop.span.dark && hop.span.status.executed()) {
            let span = hop.span;
            let scope = trace_scopes[span.version.0];
            let latency_ms = span.duration.as_millis() as f64;
            batch.record_value_id(scope, MetricKind::ResponseTime, now, latency_ms);
            let errored = if span.status.is_ok() { 0.0 } else { 1.0 };
            batch.record_value_id(scope, MetricKind::ErrorRate, now, errored);
        }
    }
    batch.flush();
}

/// The candidate traffic share a phase routes on entry, as recorded in
/// the journal (dark launches mirror traffic instead of routing it), and
/// when a gradual rollout's first step comes due.
fn entry_percent(kind: &PhaseKind, now: SimTime) -> (f64, SimTime) {
    match kind {
        PhaseKind::Canary { traffic_percent } => (*traffic_percent, now),
        PhaseKind::DarkLaunch => (0.0, now),
        PhaseKind::AbTest { split_percent } => (*split_percent, now),
        PhaseKind::GradualRollout { from_percent, step_duration, .. } => {
            (*from_percent, now + *step_duration)
        }
    }
}

/// The versions a phase's chaos spec strikes: a version target is one
/// version, a zone target every version deployed with the zone label (the
/// correlated-fault semantics).
fn chaos_versions(
    spec: &ChaosSpec,
    binding: &StrategyBinding,
    app: &Application,
) -> Result<Vec<VersionId>, BifrostError> {
    let versions = match &spec.target {
        ChaosTarget::Candidate => vec![binding.candidate],
        ChaosTarget::Baseline => vec![binding.baseline],
        ChaosTarget::Zone(zone) => {
            let members = app.versions_in_zone(zone);
            if members.is_empty() {
                return Err(BifrostError::Execution(format!(
                    "chaos zone \"{zone}\" matches no deployed version"
                )));
            }
            members
        }
    };
    // Strategy::validate rejects a storm on a single version; guard for
    // hand-built specs.
    let storm = matches!(spec.kind, ChaosKind::LatencyStorm { .. });
    if storm && !matches!(spec.target, ChaosTarget::Zone(_)) {
        return Err(BifrostError::Execution("latency_storm needs a zone target".into()));
    }
    Ok(versions)
}

/// Translates a phase's chaos spec into simulator fault windows on
/// `versions`, anchored at the phase entry time `now`.
fn chaos_faults(spec: &ChaosSpec, versions: Vec<VersionId>, now: SimTime) -> Vec<Fault> {
    let from = now + spec.start_after;
    let until = from + spec.duration;
    let kind = match spec.kind {
        ChaosKind::LatencySpike { multiplier } => FaultKind::LatencySpike { multiplier },
        ChaosKind::ErrorBurst { extra_error_rate } => FaultKind::ErrorBurst { extra_error_rate },
        ChaosKind::Outage => FaultKind::Outage,
        ChaosKind::LatencyStorm { multiplier } => {
            return faults::latency_storm(&versions, multiplier, from, until)
        }
    };
    versions.into_iter().map(|version| Fault { version, kind, from, until }).collect()
}

/// The journaled keyword for a chaos spec — zone-targeted outages
/// journal as `zone_outage`, matching the DSL spelling.
pub(crate) fn chaos_journal_kind(spec: &ChaosSpec) -> &'static str {
    match (&spec.kind, &spec.target) {
        (ChaosKind::Outage, ChaosTarget::Zone(_)) => "zone_outage",
        _ => spec.kind.keyword(),
    }
}

/// The journaled target label: a version label for version targets, a
/// `zone:<label>` tag for zone targets.
fn chaos_target_label(spec: &ChaosSpec, app: &Application, binding: &StrategyBinding) -> String {
    match &spec.target {
        ChaosTarget::Candidate => app.version_label(binding.candidate),
        ChaosTarget::Baseline => app.version_label(binding.baseline),
        ChaosTarget::Zone(zone) => format!("zone:{zone}"),
    }
}

/// The journaled magnitude of a chaos kind (zero for outages).
fn chaos_magnitude(kind: &ChaosKind) -> f64 {
    match kind {
        ChaosKind::LatencySpike { multiplier } => *multiplier,
        ChaosKind::ErrorBurst { extra_error_rate } => *extra_error_rate,
        ChaosKind::Outage => 0.0,
        ChaosKind::LatencyStorm { multiplier } => *multiplier,
    }
}

#[cfg(test)]
mod tests {
    //! The engine's behaviour is pinned through the public API by the
    //! scenario table in `tests/engine_scenarios.rs`; these two tests reach
    //! private items.
    use super::*;
    use microsim::app::{EndpointDef, VersionSpec};
    use microsim::latency::LatencyModel;

    #[test]
    fn trace_samples_are_the_executed_primary_spans() {
        // The trace of the root `tests/trace_views.rs` (every span kind
        // under one ok root), seen by the fourth consumer: one sample pair
        // per executed primary span, under the serving version's scope.
        use microsim::trace::{Span, SpanId, SpanStatus, TraceId};
        use SpanStatus::{Failed, Fallback, Ok, Shed, TimedOut};
        let mut b = Application::builder();
        for (service, version, endpoint) in [
            ("fe", "1.0.0", "home"),
            ("be", "1.0.0", "api"),
            ("be", "2.0.0", "api"),
            ("db", "1.0.0", "q"),
        ] {
            b.version(
                VersionSpec::new(service, version)
                    .endpoint(EndpointDef::new(endpoint, LatencyModel::Constant { ms: 1.0 })),
            );
        }
        let app = b.build().unwrap();
        let (fe, be, dark_be, db) = (VersionId(0), VersionId(1), VersionId(2), VersionId(3));
        let rows = [
            (None, fe, Ok, 100, false),
            (Some(0), be, Failed, 30, false),
            (Some(1), db, Failed, 10, false),
            (Some(0), be, TimedOut, 20, false),
            (Some(0), be, Shed, 0, false),
            (Some(0), be, Fallback, 1, false),
            (Some(0), dark_be, Ok, 15, true),
            (Some(6), db, Ok, 5, true),
        ];
        let spans = rows
            .into_iter()
            .zip(0u32..)
            .map(|((parent, version, status, ms, dark), id)| Span {
                span: SpanId(id),
                parent: parent.map(SpanId),
                version,
                endpoint: app.version(version).endpoints[0],
                start: SimTime::from_millis(0),
                duration: SimDuration::from_millis(ms),
                status,
                attempt: 0,
                dark,
            })
            .collect();
        // One sample per span whatever the weight: the divergence from the
        // weighted folds that DESIGN.md keeps on purpose.
        let trace = Trace { id: TraceId(1), spans, weight: 3 };

        let mut sim = Simulation::new(app, 1);
        let pipeline = TracePipeline::new(&mut sim);
        distill_trace_samples(&mut sim, &pipeline.scopes, std::slice::from_ref(&trace));
        for (scope, executed, errored) in [
            ("trace:fe@1.0.0", 1, 0.0),
            ("trace:be@1.0.0", 2, 2.0),
            ("trace:be@2.0.0", 0, 0.0),
            ("trace:db@1.0.0", 1, 1.0),
        ] {
            for kind in [MetricKind::ResponseTime, MetricKind::ErrorRate] {
                assert_eq!(sim.store().count(scope, kind), executed, "{scope} {kind:?}");
            }
            let errors = sim.store().summary_between(
                scope,
                MetricKind::ErrorRate,
                SimTime::from_millis(0),
                SimTime::from_secs(1),
            );
            assert_eq!(errors.mean * executed as f64, errored, "{scope} errors");
        }
    }

    #[test]
    fn boundary_snapshots_journal_the_full_reports_worst_edge() {
        // Searched accumulators over hand-built traces: edges of the
        // service's two versions on three endpoints (declared in different
        // orders, so their ids differ), statuses and latencies from small
        // sets so that scores tie, mirrored pairs of edges that must tie, a
        // candidate with no edges, a baseline with none, and traces that
        // never reach the service. Each snapshot must carry what the report
        // built at the end of a run would say, and name the smallest of the
        // tied worst endpoints.
        use cex_core::rng::SplitMix64;
        use microsim::trace::{Span, SpanId, SpanStatus, TraceId};
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("fe", "1.0.0").endpoint(EndpointDef::new("home", Default::default())),
        );
        for (version, names) in
            [("1.0.0", ["alpha", "beta", "gamma"]), ("2.0.0", ["gamma", "beta", "alpha"])]
        {
            let mut spec = VersionSpec::new("svc", version);
            for name in names {
                spec = spec.endpoint(EndpointDef::new(name, LatencyModel::default()));
            }
            b.version(spec);
        }
        let app = b.build().unwrap();
        let binding = StrategyBinding {
            service: app.service_id("svc").unwrap(),
            baseline: app.version_id("svc", "1.0.0").unwrap(),
            candidate: app.version_id("svc", "2.0.0").unwrap(),
            variant_b: None,
        };
        let fe = app.version_id("fe", "1.0.0").unwrap();
        let endpoint = |version: VersionId, name: &str| {
            app.endpoint_named(version, app.endpoint_name(name).unwrap()).unwrap()
        };
        let statuses = [SpanStatus::Ok, SpanStatus::Ok, SpanStatus::Failed, SpanStatus::TimedOut];
        let mut sim = Simulation::new(app.clone(), 1);
        let (mut ties, mut empty_sides, mut no_edges) = (0, 0, 0);
        for seed in 0..400u64 {
            let mut rng = SplitMix64::new(seed);
            let shape = rng.next_index(5);
            let mut pipeline = TracePipeline::new(&mut sim);
            for t in 0..rng.next_below(12) {
                let mut spans = vec![(fe, endpoint(fe, "home"), SpanStatus::Ok, 50, 0)];
                for _ in 0..rng.next_below(4) {
                    let version = match shape {
                        2 => binding.baseline,
                        3 => binding.candidate,
                        _ if rng.next_below(2) == 0 => binding.baseline,
                        _ => binding.candidate,
                    };
                    let name = ["alpha", "beta", "gamma"][rng.next_index(3)];
                    let status = statuses[rng.next_index(statuses.len())];
                    let (ms, attempt) = ([5, 20][rng.next_index(2)], rng.next_below(2) as u8);
                    spans.push((version, endpoint(version, name), status, ms, attempt));
                    if shape == 1 && name != "gamma" {
                        let twin = if name == "alpha" { "beta" } else { "alpha" };
                        spans.push((version, endpoint(version, twin), status, ms, attempt));
                    }
                }
                if shape == 4 {
                    spans.truncate(1);
                }
                spans[0].2 = statuses[rng.next_index(statuses.len())];
                let spans = (0u32..)
                    .zip(spans)
                    .map(|(id, (version, endpoint, status, ms, attempt))| Span {
                        span: SpanId(id),
                        parent: (id > 0).then_some(SpanId(0)),
                        version,
                        endpoint,
                        start: SimTime::ZERO,
                        duration: SimDuration::from_millis(ms),
                        status,
                        attempt,
                        dark: false,
                    })
                    .collect();
                let weight = 1 + rng.next_below(3) as u32;
                pipeline.health.observe_trace(&Trace { id: TraceId(t), spans, weight });
            }
            let snapshot = pipeline.snapshot(&sim, &binding, "s".into(), "p".into());
            let sinks = pipeline.health.critical_sink_list(&pipeline.book);
            let Some(report) = pipeline.report(&binding, &sinks) else {
                assert_eq!(snapshot, None, "seed {seed}: no trace, no snapshot");
                continue;
            };
            let Some(JournalEvent::HealthSnapshot { traces, failed, detail, .. }) = snapshot else {
                panic!("seed {seed}: traces were folded, so a snapshot is due");
            };
            let HealthDetail {
                baseline,
                canary,
                worst_edge,
                score,
                error_rate_delta,
                p95_delta_ms,
                ..
            } = *detail;
            assert_eq!(
                (traces, failed, &*baseline, &*canary),
                (
                    report.traces,
                    report.failed_traces,
                    report.baseline.as_str(),
                    report.canary.as_str()
                ),
                "seed {seed}"
            );
            let worst = report.worst_edge();
            assert_eq!(worst_edge.as_deref(), worst.map(|e| e.endpoint.as_str()), "seed {seed}");
            let numbers = |x: [f64; 3]| x.map(f64::to_bits);
            assert_eq!(
                numbers([score, error_rate_delta, p95_delta_ms]),
                numbers(worst.map_or([0.0; 3], |e| [
                    e.score(),
                    e.error_rate_delta(),
                    e.p95_delta_ms()
                ])),
                "seed {seed}"
            );
            // The tie rule, stated apart: the smallest name among the edges
            // with the highest score.
            let top = report.edges.iter().map(EdgeDelta::score).fold(f64::NEG_INFINITY, f64::max);
            let tied: Vec<&str> = report
                .edges
                .iter()
                .filter(|e| e.score() == top)
                .map(|e| e.endpoint.as_str())
                .collect();
            assert_eq!(worst_edge.as_deref(), tied.iter().min().copied(), "seed {seed}");
            ties += u32::from(tied.len() > 1);
            let canary_calls = report.edges.iter().any(|e| e.canary.calls > 0);
            let baseline_calls = report.edges.iter().any(|e| e.baseline.calls > 0);
            no_edges += u32::from(report.edges.is_empty());
            empty_sides += u32::from(canary_calls != baseline_calls);
        }
        assert!(ties > 30 && empty_sides > 30 && no_edges > 30, "{ties} {empty_sides} {no_edges}");
    }
}
