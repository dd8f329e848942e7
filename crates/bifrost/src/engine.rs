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
//! This module is the *shell*: it gathers what a tick observed, asks
//! [`crate::decide::decide`] — the rollout policy, which lives there and
//! nowhere else — what that means for each strategy, and enacts and
//! journals the answer.
//!
//! The engine accounts its own processing cost separately from the
//! simulated application: [`ExecutionReport::engine_busy`] (the CPU proxy
//! of Figures 4.7/4.9) and the per-tick processing times (the delay of
//! Figures 4.8/4.10).

use crate::checks::{self, CheckContext, CheckScheduler, SequentialState, SequentialWindows};
use crate::decide::{self, Evaluation, RunView, TickObservation};
use crate::enact::{self, StrategyBinding};
use crate::error::BifrostError;
use crate::journal::{Journal, JournalEvent};
use crate::machine::{PhaseOutcome, State, StateMachine};
use crate::model::{ChaosKind, ChaosSpec, ChaosTarget, CheckScope, PhaseKind, Strategy};
use cex_core::metrics::MetricKind;
use cex_core::obs::{Counters, ObsConfig, ProfileSnapshot, Profiler};
use cex_core::simtime::{SimDuration, SimTime};
use microsim::app::{Application, VersionId};
use microsim::faults::{self, Fault, FaultKind};
use microsim::health::{self, EdgeDelta, HealthAccumulator, HealthReport};
use microsim::monitor::{MetricStore, ScopeId};
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
    /// Read nowhere: the engine evaluates every check on the calling
    /// thread (the per-tick thread fan-out this once sized never measured
    /// faster than the serial pass). The field stays only because
    /// `benchmark/src/fleet.rs` names it and a change to the engine may not
    /// edit the benchmark; it goes with that line in the next
    /// `[benchmark]` change (ROADMAP, the instrument item).
    pub workers: usize,
    /// Read nowhere: the simulation's event core runs every window as one
    /// queue on the calling thread. Kept, like `workers`, only because
    /// `benchmark/src/fleet.rs` names it.
    pub sim_workers: usize,
    /// Tail-based trace sampling applied to the sim's collector at the
    /// start of every execution ([`microsim::sim::Simulation::set_tail_sampling`]):
    /// erroneous and slow traces are always retained, healthy ones keep a
    /// weighted 1-in-`k` representative. `None` (the default) retains
    /// every sampled trace.
    pub tail_sampling: Option<TailSamplingConfig>,
    /// Emit a [`JournalEvent::Runtime`] counter-registry snapshot every
    /// this many ticks when journaling (`0`, the default, disables the
    /// cadence). The snapshot carries only seed-pure counters, so journal
    /// bytes stay identical across runs.
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

/// One recorded state-machine transition (the engine's audit log —
/// experimentation-as-code implies the execution trail is inspectable).
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionEvent {
    /// Virtual time of the transition.
    pub time: SimTime,
    /// The strategy that transitioned.
    pub strategy: String,
    /// State left.
    pub from: State,
    /// State entered.
    pub to: State,
    /// The phase outcome that triggered it.
    pub outcome: PhaseOutcome,
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
    /// Every state-machine transition, in time order.
    pub transitions: Vec<TransitionEvent>,
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

type JournalSink<'a> = Option<&'a mut Journal>;

/// Records `event()` when journaling and builds nothing otherwise.
fn record(journal: &mut JournalSink<'_>, event: impl FnOnce() -> JournalEvent) {
    if let Some(j) = journal {
        j.record(event());
    }
}

/// What a strategy resolves to once, before its first phase.
struct Compiled<'a> {
    strategy: &'a Strategy,
    /// Interned copies of the strategy and phase names — journal events
    /// clone these (an atomic refcount bump) instead of allocating on
    /// every check evaluation.
    name: Arc<str>,
    phase_names: Vec<Arc<str>>,
    binding: StrategyBinding,
    ctx: CheckContext,
    machine: StateMachine,
}

/// Everything that restarts when a strategy (re-)enters a phase — a retry
/// repeats the whole experiment: checks are rescheduled, sequential tests
/// start from scratch and their cumulative windows anchor at `started`.
struct PhaseRun {
    index: usize,
    started: SimTime,
    scheduler: CheckScheduler,
    /// Per-check sequential-test state (non-sequential entries stay at
    /// their default).
    sequential: Vec<SequentialState>,
    /// Per-check resumable window reads, kept and reset with `sequential`.
    windows: Vec<SequentialWindows>,
    /// Per-check partner for a paired read ([`checks::absolute_partners`]).
    partners: Vec<Option<usize>>,
    /// Candidate share the phase routes; moves only in a gradual rollout.
    rollout_percent: f64,
    next_rollout_step: SimTime,
}

struct RunState<'a> {
    compiled: Compiled<'a>,
    status: StrategyStatus,
    retries: u32,
    /// The phase in progress; the last one once `status` is terminal.
    phase: PhaseRun,
    /// Scratch buffer for the scheduler's due-check indices, reused
    /// every tick so the hot loop performs no per-tick allocation.
    due_scratch: Vec<usize>,
}

impl RunState<'_> {
    /// Evaluates the checks in `due_scratch` and, when the phase clock has
    /// run out, every check of the phase once more. A sequential look
    /// advances its state and windows as it goes; a check looked at twice
    /// in one tick lands where one look would have left it. A check whose
    /// partner is looked at in the same pass is read with it, in one
    /// paired read.
    fn observe(&mut self, store: &MetricStore, now: SimTime) -> TickObservation {
        let phase = &self.compiled.strategy.phases[self.phase.index];
        let ctx = &self.compiled.ctx;
        let PhaseRun { started, sequential, windows, partners, .. } = &mut self.phase;
        let mut eval = |indices: &[usize]| -> Vec<Evaluation> {
            let mut observed = vec![None; indices.len()];
            for (p, &i) in indices.iter().enumerate() {
                if observed[p].is_some() {
                    continue;
                }
                let check = &phase.checks[i];
                let partner = partners[i].and_then(|j| {
                    indices[p + 1..].iter().position(|&k| k == j).map(|q| (j, p + 1 + q))
                });
                if let Some((j, q)) = partner {
                    let [a, b] =
                        checks::evaluate_partners(check, &phase.checks[j], ctx, store, now);
                    (observed[p], observed[q]) = (Some(a), Some(b));
                } else if check.scope == CheckScope::SequentialVsBaseline {
                    let (state, cursors) = (&mut sequential[i], &mut windows[i]);
                    let look = checks::evaluate_sequential(
                        check, ctx, store, *started, now, state, cursors,
                    );
                    observed[p] = Some(look);
                } else {
                    observed[p] = Some(checks::evaluate_observed(check, ctx, store, now));
                }
            }
            let observed = observed.into_iter().map(|o| o.expect("every check looked at"));
            indices.iter().copied().zip(observed).collect()
        };
        let due_results = eval(&self.due_scratch);
        let at_boundary = now.saturating_since(*started) >= phase.duration;
        let boundary_results =
            at_boundary.then(|| eval(&(0..phase.checks.len()).collect::<Vec<_>>()));
        TickObservation { due_results, boundary_results }
    }
}

impl<'a> Compiled<'a> {
    fn bind(sim: &mut Simulation, strategy: &'a Strategy) -> Result<Self, BifrostError> {
        let machine = StateMachine::compile(strategy)?;
        let app = sim.app();
        let binding = StrategyBinding::resolve(app, strategy)?;
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
        journal: &mut JournalSink<'_>,
    ) -> Result<(), BifrostError> {
        let kind = &self.strategy.phases[index].kind;
        let (app, router) = sim.app_and_router_mut();
        enact::enact_phase(app, router, &self.binding, kind, Some(rollout_percent))?;
        record(journal, || JournalEvent::Enacted {
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
        journal: &mut JournalSink<'_>,
    ) -> Result<PhaseRun, BifrostError> {
        let now = sim.now();
        let phase = &self.strategy.phases[index];
        let (rollout_percent, next_rollout_step) = entry_percent(&phase.kind, now);
        self.enact(sim, index, rollout_percent, journal)?;
        if let Some(spec) = &phase.chaos {
            for fault in chaos_faults(spec, &self.binding, sim.app(), now)? {
                sim.inject_fault(fault);
            }
            let from = now + spec.start_after;
            record(journal, || JournalEvent::Chaos {
                time: now,
                strategy: self.name.clone(),
                phase: self.phase_names[index].clone(),
                kind: chaos_journal_kind(spec),
                magnitude: chaos_magnitude(&spec.kind),
                target: chaos_target_label(spec, sim.app(), &self.binding),
                from,
                until: from + spec.duration,
            });
        }
        Ok(PhaseRun {
            index,
            started: now,
            scheduler: CheckScheduler::new(&phase.checks, now),
            sequential: vec![SequentialState::new(); phase.checks.len()],
            windows: vec![SequentialWindows::default(); phase.checks.len()],
            partners: checks::absolute_partners(&phase.checks),
            rollout_percent,
            next_rollout_step,
        })
    }

    /// Journals check evaluations with the windows they read.
    fn journal_checks(
        &self,
        journal: &mut JournalSink<'_>,
        now: SimTime,
        phase: usize,
        evaluations: &[Evaluation],
        boundary: bool,
    ) {
        for (check, observed) in evaluations {
            let spec = &self.strategy.phases[phase].checks[*check];
            record(journal, || JournalEvent::Check {
                time: now,
                strategy: self.name.clone(),
                phase: self.phase_names[phase].clone(),
                check: *check,
                metric: spec.metric,
                scope: spec.scope,
                boundary,
                result: observed.result,
                primary: observed.primary,
                baseline: observed.baseline,
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
        let store = sim.store_mut();
        let scopes = (0..book.version_count())
            .map(|i| store.intern(&format!("trace:{}", book.version_label(VersionId(i)))))
            .collect();
        TracePipeline {
            book,
            scopes,
            health: HealthAccumulator::new(),
            breakers: Vec::new(),
            drained: Vec::new(),
        }
    }

    /// Runs before the checks are evaluated, so trace-scoped checks
    /// already see this tick's data; fold order is collection order.
    fn drain(&mut self, sim: &mut Simulation, journal: &mut JournalSink<'_>) {
        // Breaker transitions are sim state; drain them every tick
        // (journaled or not) so the backlog never grows unboundedly.
        sim.drain_breaker_transitions_into(&mut self.breakers);
        for tr in &self.breakers {
            record(journal, || JournalEvent::Breaker {
                time: tr.time,
                caller: sim.app().version_label(tr.caller),
                callee: sim.app().version_label(tr.callee),
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
    fn report(&self, binding: &StrategyBinding) -> Option<HealthReport> {
        (self.health.traces() > 0).then(|| {
            HealthReport::build(&self.health, &self.book, binding.baseline, binding.candidate)
        })
    }

    /// The worst-edge snapshot journaled beside a boundary's verdicts: what
    /// [`TracePipeline::report`] would say of the worst edge, from the
    /// pair's edge deltas alone (no critical-sink list, no report).
    fn snapshot(
        &self,
        sim: &Simulation,
        binding: &StrategyBinding,
        strategy: Arc<str>,
        phase: Arc<str>,
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
            baseline: self.book.version_label(binding.baseline).to_string(),
            canary: self.book.version_label(binding.candidate).to_string(),
            worst_edge: worst.map(|e| e.endpoint.clone()),
            score: worst.map_or(0.0, EdgeDelta::score),
            error_rate_delta: worst.map_or(0.0, EdgeDelta::error_rate_delta),
            p95_delta_ms: worst.map_or(0.0, EdgeDelta::p95_delta_ms),
            dropped: sampling.evicted,
            tail_kept: sampling.tail_kept,
            downsampled: sampling.downsampled_kept,
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

    /// Executes `strategies` against the simulated application under
    /// `workload` until every strategy terminates or `max_duration` of
    /// simulated time elapses.
    ///
    /// # Errors
    ///
    /// Returns [`BifrostError`] when a strategy fails validation/
    /// compilation, its versions are not deployed, enactment fails, or the
    /// configured tick is zero.
    pub fn execute(
        &self,
        sim: &mut Simulation,
        strategies: &[Strategy],
        workload: &Workload,
        max_duration: SimDuration,
    ) -> Result<ExecutionReport, BifrostError> {
        self.execute_inner(sim, strategies, workload, max_duration, None)
    }

    /// Like [`Engine::execute`], additionally recording a structured
    /// [`Journal`] of the run: every check evaluation with the window
    /// summaries it read, every transition, every enactment, every retired
    /// scope, and per-tick engine accounting. The journal's serialized
    /// form ([`Journal::to_jsonl`]) is byte-identical across repeated runs
    /// with the same seed.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`Engine::execute`].
    pub fn execute_journaled(
        &self,
        sim: &mut Simulation,
        strategies: &[Strategy],
        workload: &Workload,
        max_duration: SimDuration,
    ) -> Result<(ExecutionReport, Journal), BifrostError> {
        let mut journal = Journal::new();
        let report =
            self.execute_inner(sim, strategies, workload, max_duration, Some(&mut journal))?;
        Ok((report, journal))
    }

    fn execute_inner(
        &self,
        sim: &mut Simulation,
        strategies: &[Strategy],
        workload: &Workload,
        max_duration: SimDuration,
        journal: JournalSink<'_>,
    ) -> Result<ExecutionReport, BifrostError> {
        if strategies.is_empty() {
            return Err(BifrostError::Execution("no strategies to execute".into()));
        }
        let started_wall = Instant::now();
        let started_sim = sim.now();
        let deadline = started_sim + max_duration;
        // Wall-clock timings go to the sidecar RuntimeReport, never the journal.
        let profiler = Profiler::new(self.config.obs);
        let mut execution = Execution::start(&self.config, &profiler, sim, strategies, journal)?;
        while execution.sim.now() < deadline && execution.active() > 0 {
            execution.tick(workload, deadline)?;
        }
        Ok(execution.finish(started_wall, started_sim))
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
    journal: JournalSink<'a>,
    traces: TracePipeline,
    runs: Vec<RunState<'a>>,
    transitions: Vec<TransitionEvent>,
    ticks: u64,
    check_evaluations: u64,
    max_tick_processing: Duration,
}

impl<'a> Execution<'a> {
    /// Applies the configuration to the simulation, then binds, compiles
    /// and enters phase 0 of every strategy, in submission order.
    fn start(
        config: &'a EngineConfig,
        profiler: &'a Profiler,
        sim: &'a mut Simulation,
        strategies: &'a [Strategy],
        mut journal: JournalSink<'a>,
    ) -> Result<Self, BifrostError> {
        if config.tick.is_zero() {
            // A zero step never advances the clock: the loop would spin.
            return Err(BifrostError::Execution("engine tick must be positive".into()));
        }
        sim.store_mut().set_retention(Some(retention_horizon(strategies)));
        sim.set_tail_sampling(config.tail_sampling);
        sim.set_obs(config.obs);
        let traces = TracePipeline::new(sim);
        let mut runs = Vec::with_capacity(strategies.len());
        for strategy in strategies {
            let compiled = Compiled::bind(sim, strategy)?;
            let phase = compiled.enter_phase(sim, 0, &mut journal)?;
            runs.push(RunState {
                compiled,
                status: StrategyStatus::Running,
                retries: 0,
                phase,
                due_scratch: Vec::new(),
            });
        }
        Ok(Execution {
            config,
            profiler,
            sim,
            journal,
            traces,
            runs,
            transitions: Vec::new(),
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
            self.traces.drain(self.sim, &mut self.journal);
        }
        let observations = self.observe(now);
        let due_checks = observations.iter().flatten().map(|o| o.evaluations()).sum::<u64>();
        self.check_evaluations += due_checks;
        self.apply(observations, now)?;
        let spent = engine_start.elapsed();
        self.max_tick_processing = self.max_tick_processing.max(spent);
        let tick = self.ticks;
        self.ticks += 1;
        if self.journal.is_some() {
            cex_core::span!(profiler, "engine.tick.journal_encode");
            let (active, window_reads) = (self.active(), self.sim.store().window_reads());
            record(&mut self.journal, || JournalEvent::Tick {
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
                record(&mut self.journal, || JournalEvent::Runtime { time: now, tick, counters });
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
        if let Some(j) = self.journal.as_deref() {
            counters.add("engine.journal.events", j.len() as u64);
        }
        counters
    }

    /// First pass: evaluate due checks (and phase-boundary checks) for
    /// every running strategy, before any strategy is applied.
    fn observe(&mut self, now: SimTime) -> Vec<Option<TickObservation>> {
        cex_core::span!(self.profiler, "engine.tick.observe");
        let running = |run: &RunState| run.status == StrategyStatus::Running;
        // Which checks are due (the scheduler advances its due times),
        // into each run's reused scratch buffer — no per-tick allocation
        // on the hot loop.
        for run in self.runs.iter_mut().filter(|run| running(run)) {
            let checks = &run.compiled.strategy.phases[run.phase.index].checks;
            run.phase.scheduler.due(checks, now, &mut run.due_scratch);
        }
        let store = self.sim.store();
        cex_core::span!(self.profiler, "engine.tick.observe.evaluate_checks");
        self.runs.iter_mut().map(|run| running(run).then(|| run.observe(store, now))).collect()
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
        let mut retired: Vec<(Arc<str>, String)> = Vec::new();
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
                sequential: &run.phase.sequential,
            };
            let phase = &compiled.strategy.phases[index];
            let decision = decide::decide(phase, view, &obs, now, self.config.max_retries);

            compiled.journal_checks(&mut self.journal, now, index, &obs.due_results, false);
            if let Some(step) = decision.ramp {
                run.phase.next_rollout_step = step.next_step_at;
                if step.guarded {
                    record(&mut self.journal, || JournalEvent::Ramp {
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
                    compiled.enact(self.sim, index, step.percent, &mut self.journal)?;
                }
            }
            if let Some(boundary) = &obs.boundary_results {
                compiled.journal_checks(&mut self.journal, now, index, boundary, true);
                if let Some(j) = self.journal.as_deref_mut() {
                    let (strategy, phase) =
                        (compiled.name.clone(), compiled.phase_names[index].clone());
                    if let Some(snapshot) =
                        self.traces.snapshot(self.sim, &compiled.binding, strategy, phase)
                    {
                        j.record(snapshot);
                    }
                }
            }

            let Some(outcome) = decision.outcome else { continue };
            if let Some(p) = decision.early_stop_p {
                record(&mut self.journal, || JournalEvent::EarlyStop {
                    time: now,
                    strategy: compiled.name.clone(),
                    phase: compiled.phase_names[index].clone(),
                    outcome,
                    p,
                });
            }
            run.retries = decision.retries;
            let (from, to) = (State::Phase(index), decision.next);
            self.transitions.push(TransitionEvent {
                time: now,
                strategy: compiled.strategy.name.clone(),
                from,
                to,
                outcome,
            });
            record(&mut self.journal, || JournalEvent::Transition {
                time: now,
                strategy: compiled.name.clone(),
                from,
                to,
                outcome,
            });
            match to {
                State::Phase(next) => {
                    run.phase = compiled.enter_phase(self.sim, next, &mut self.journal)?;
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
    fn retire(&mut self, retired: Vec<(Arc<str>, String)>, now: SimTime) {
        for (strategy, scope) in retired {
            let still_referenced = self.runs.iter().any(|r| {
                r.status == StrategyStatus::Running
                    && (r.compiled.ctx.candidate_scope == scope
                        || r.compiled.ctx.baseline_scope == scope)
            });
            if still_referenced {
                continue;
            }
            let store = self.sim.store_mut();
            store.clear_scope(&scope);
            store.clear_prefix(&format!("exp:{strategy}/"));
            record(&mut self.journal, || JournalEvent::ScopeCleared { time: now, strategy, scope });
        }
    }

    fn finish(self, started_wall: Instant, started_sim: SimTime) -> ExecutionReport {
        let engine_busy = self.profiler.total("engine.busy");
        let sampling = self.sim.trace_collector().sampling_stats();
        let health = self
            .runs
            .iter()
            .filter_map(|r| {
                let report = self.traces.report(&r.compiled.binding)?;
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
            transitions: self.transitions,
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

/// Translates a phase's chaos spec into concrete simulator fault
/// windows anchored at the phase entry time `now`. Version targets map
/// to a single fault; zone targets expand to one fault per version
/// deployed with the zone label (the correlated-fault semantics).
fn chaos_faults(
    spec: &ChaosSpec,
    binding: &StrategyBinding,
    app: &Application,
    now: SimTime,
) -> Result<Vec<Fault>, BifrostError> {
    let from = now + spec.start_after;
    let until = from + spec.duration;
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
    let kind = match spec.kind {
        ChaosKind::LatencySpike { multiplier } => FaultKind::LatencySpike { multiplier },
        ChaosKind::ErrorBurst { extra_error_rate } => FaultKind::ErrorBurst { extra_error_rate },
        ChaosKind::Outage => FaultKind::Outage,
        ChaosKind::LatencyStorm { multiplier } => {
            // Strategy::validate rejects a storm on a single version;
            // guard for hand-built specs.
            if !matches!(spec.target, ChaosTarget::Zone(_)) {
                return Err(BifrostError::Execution("latency_storm needs a zone target".into()));
            }
            return Ok(faults::latency_storm(&versions, multiplier, from, until));
        }
    };
    Ok(versions.into_iter().map(|version| Fault { version, kind, from, until }).collect())
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
    use super::*;
    use crate::dsl;
    use microsim::app::{Application, EndpointDef, VersionSpec};
    use microsim::latency::LatencyModel;
    use microsim::workload::Workload;

    /// One service with a healthy candidate and a broken candidate.
    fn test_app(broken_candidate: bool) -> Application {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("svc", "1.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 })),
        );
        let candidate = if broken_candidate {
            VersionSpec::new("svc", "2.0.0").capacity(10_000.0).endpoint(
                EndpointDef::new("api", LatencyModel::Constant { ms: 25.0 }).error_rate(0.5),
            )
        } else {
            VersionSpec::new("svc", "2.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 18.0 }))
        };
        b.version(candidate);
        b.build().unwrap()
    }

    fn strategy_src() -> &'static str {
        r#"strategy "canary-then-rollout" {
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 10% for 3m {
              check error_rate < 0.1 over 1m every 30s min_samples 10
              on success goto "rollout"
              on failure rollback
            }
            phase "rollout" gradual_rollout from 25% to 100% step 25% every 1m for 10m {
              check error_rate < 0.1 over 1m every 30s min_samples 10
              on success complete
              on failure rollback
            }
        }"#
    }

    fn workload(app: &Application) -> Workload {
        let svc = app.service_id("svc").unwrap();
        Workload::simple(svc, "api", 30.0)
    }

    #[test]
    fn healthy_candidate_completes_and_serves_everyone() {
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 1);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let report = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        assert!(report.all_terminal());
        assert!(report.check_evaluations > 0);
        // After completion the candidate serves 100%: response times drop
        // to the candidate's 18 ms.
        let after = sim.run(SimDuration::from_secs(30), 30.0);
        assert!((after.response_time.mean - 18.0).abs() < 1.0, "mean {}", after.response_time.mean);
    }

    #[test]
    fn broken_candidate_rolls_back() {
        let app = test_app(true);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 2);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let report = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        // Everyone back on the 20 ms baseline, and no residual errors.
        let after = sim.run(SimDuration::from_secs(30), 30.0);
        assert!((after.response_time.mean - 20.0).abs() < 1.0);
        assert_eq!(after.failures, 0);
    }

    #[test]
    fn inconclusive_phase_retries_then_rolls_back() {
        let app = test_app(false);
        let svc = app.service_id("svc").unwrap();
        // Near-zero traffic: checks can never reach min_samples.
        let wl = Workload::simple(svc, "api", 0.05);
        let mut sim = Simulation::new(app, 3);
        let strategy = dsl::parse(
            r#"strategy "starved" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 10% for 2m {
                  check error_rate < 0.1 over 1m every 30s min_samples 1000
                  on success complete
                  on failure rollback
                  on inconclusive retry
                }
            }"#,
        )
        .unwrap();
        let report = Engine::new(EngineConfig { max_retries: 2, ..Default::default() })
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_hours(2))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
    }

    #[test]
    fn many_strategies_run_in_parallel() {
        // 20 independent service pairs, one strategy each.
        let mut b = Application::builder();
        for i in 0..20 {
            b.version(
                VersionSpec::new(format!("svc{i}"), "1.0.0")
                    .capacity(10_000.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
            );
            b.version(
                VersionSpec::new(format!("svc{i}"), "2.0.0")
                    .capacity(10_000.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 9.0 })),
            );
        }
        let app = b.build().unwrap();
        let strategies: Vec<Strategy> = (0..20)
            .map(|i| {
                dsl::parse(&format!(
                    r#"strategy "s{i}" {{
                        service "svc{i}" baseline "1.0.0" candidate "2.0.0"
                        phase "canary" canary 20% for 2m {{
                          check error_rate < 0.2 over 1m every 30s min_samples 5
                          on success complete
                          on failure rollback
                        }}
                    }}"#
                ))
                .unwrap()
            })
            .collect();
        // Spread workload across all services.
        let entries = (0..20)
            .map(|i| microsim::workload::EntryPoint {
                service: app.service_id(&format!("svc{i}")).unwrap(),
                endpoint: "api".into(),
                weight: 1.0,
            })
            .collect();
        let wl = Workload {
            population: cex_core::users::Population::single("all", 50_000),
            rate_rps: 200.0,
            entries,
            profile: microsim::workload::RateProfile::Constant,
        };
        let mut sim = Simulation::new(app, 4);
        let report = Engine::default()
            .execute(&mut sim, &strategies, &wl, SimDuration::from_mins(20))
            .unwrap();
        assert!(report.all_terminal());
        let completed =
            report.statuses.iter().filter(|(_, s)| *s == StrategyStatus::Completed).count();
        assert!(completed >= 18, "completed {completed}/20");
    }

    #[test]
    fn transition_log_records_the_phase_sequence() {
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 21);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let report = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        // canary -> rollout -> completed, in time order.
        let path: Vec<State> = report.transitions.iter().map(|t| t.to).collect();
        assert_eq!(path.last(), Some(&State::Completed));
        assert!(path.contains(&State::Phase(1)), "rollout entered: {path:?}");
        assert!(report.transitions.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(report.transitions[0].from, State::Phase(0));
        assert_eq!(report.transitions[0].outcome, crate::machine::PhaseOutcome::Success);
    }

    #[test]
    fn report_accounting_is_consistent() {
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 5);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let report = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        assert!(report.ticks > 0);
        assert!(report.engine_busy <= report.wall_total);
        assert!(report.mean_tick_processing <= report.max_tick_processing);
        assert!((0.0..=1.0).contains(&report.cpu_utilization()));
        assert!(report.sim_duration <= SimDuration::from_mins(30));
    }

    #[test]
    fn undeployed_candidate_is_an_error() {
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("svc", "1.0.0")
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
        let app = b.build().unwrap();
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 6);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let err = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(5))
            .unwrap_err();
        assert!(matches!(err, BifrostError::Execution(_)));
    }

    /// The app/strategy pair used by the journal tests: several
    /// independent service pairs.
    fn fleet(n: usize) -> (Application, Vec<Strategy>, Workload) {
        let mut b = Application::builder();
        for i in 0..n {
            b.version(
                VersionSpec::new(format!("svc{i}"), "1.0.0")
                    .capacity(10_000.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
            );
            b.version(
                VersionSpec::new(format!("svc{i}"), "2.0.0")
                    .capacity(10_000.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 9.0 })),
            );
        }
        let app = b.build().unwrap();
        let strategies: Vec<Strategy> = (0..n)
            .map(|i| {
                dsl::parse(&format!(
                    r#"strategy "s{i}" {{
                        service "svc{i}" baseline "1.0.0" candidate "2.0.0"
                        phase "canary" canary 20% for 2m {{
                          check error_rate < 0.2 over 1m every 30s min_samples 5
                          on success complete
                          on failure rollback
                        }}
                    }}"#
                ))
                .unwrap()
            })
            .collect();
        let entries = (0..n)
            .map(|i| microsim::workload::EntryPoint {
                service: app.service_id(&format!("svc{i}")).unwrap(),
                endpoint: "api".into(),
                weight: 1.0,
            })
            .collect();
        let wl = Workload {
            population: cex_core::users::Population::single("all", 50_000),
            rate_rps: 100.0,
            entries,
            profile: microsim::workload::RateProfile::Constant,
        };
        (app, strategies, wl)
    }

    #[test]
    fn journal_is_byte_identical_across_runs() {
        let mut texts = Vec::new();
        let mut healths = Vec::new();
        for _ in 0..2 {
            let (app, strategies, wl) = fleet(8);
            let mut sim = Simulation::new(app, 9);
            sim.set_trace_sampling(1.0);
            let (report, journal) = Engine::default()
                .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
                .unwrap();
            assert!(report.all_terminal());
            assert!(!journal.is_empty());
            // With sampling on, every phase boundary journals a health
            // snapshot.
            assert!(journal
                .events()
                .iter()
                .any(|e| matches!(e, JournalEvent::HealthSnapshot { .. })));
            texts.push(journal.to_jsonl());
            healths.push(
                report
                    .health
                    .iter()
                    .map(|(name, h)| format!("{name}\n{}", h.render()))
                    .collect::<String>(),
            );
        }
        assert_eq!(texts[0], texts[1], "same seed");
        assert!(!healths[0].is_empty());
        assert_eq!(healths[0], healths[1], "health reports: same seed");
    }

    #[test]
    fn journal_is_byte_identical_with_tail_sampling_across_runs() {
        // Acceptance: with sketches + tail sampling enabled, journal bytes
        // (including HealthSnapshot events and their sampling counters)
        // are identical across same-seed runs.
        let run = || {
            let (app, strategies, wl) = fleet(8);
            let mut sim = Simulation::new(app, 9);
            sim.set_trace_sampling(1.0);
            let engine = Engine::new(EngineConfig {
                tail_sampling: Some(microsim::trace::TailSamplingConfig {
                    healthy_keep_one_in: 4,
                    slow_quantile: 0.95,
                    warmup: 64,
                }),
                ..Default::default()
            });
            let (report, journal) = engine
                .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
                .unwrap();
            assert!(report.all_terminal());
            let stats = sim.trace_collector().sampling_stats();
            assert!(stats.downsampled_kept > 0, "healthy traces were downsampled");
            let health: String =
                report.health.iter().map(|(name, h)| format!("{name}\n{}", h.render())).collect();
            assert!(health.contains("sampling: recorded"), "render discloses sampling counters");
            (journal.to_jsonl(), health)
        };
        let first = run();
        assert_eq!(first, run(), "same seed");
        assert!(
            first.0.contains("\"tail_kept\":"),
            "HealthSnapshot events carry sampling counters"
        );
    }

    #[test]
    fn journal_with_runtime_events_is_byte_identical_across_runs() {
        // Acceptance: with obs enabled and runtime counter snapshots in
        // the journal, serialized bytes are identical across same-seed
        // runs — the counters are pure functions of the seed, and
        // wall-clock timings never enter the journal.
        let run = || {
            let (app, strategies, wl) = fleet(8);
            let mut sim = Simulation::new(app, 9);
            sim.set_trace_sampling(1.0);
            let engine = Engine::new(EngineConfig {
                runtime_report_every: 3,
                obs: cex_core::obs::ObsConfig::enabled(),
                ..Default::default()
            });
            let (report, journal) = engine
                .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(10))
                .unwrap();
            assert!(report.all_terminal());
            let runtime_events = journal
                .events()
                .iter()
                .filter(|e| matches!(e, JournalEvent::Runtime { .. }))
                .count();
            assert!(runtime_events > 0, "the cadence emitted runtime events");
            (journal.to_jsonl(), report.runtime)
        };
        let first = run();
        let again = run();
        assert_eq!(first.0, again.0, "same seed");
        // RuntimeReport equality is over the seed-pure counters.
        assert_eq!(first.1, again.1, "registry: same seed");
        assert!(first.0.contains("\"ev\":\"runtime\""), "runtime events serialized");
        assert!(first.1.counters.count("engine.ticks") > 0);
        assert!(first.1.counters.count("sim.events.popped") > 0);
        // And the serialized journal round-trips through the parser.
        let parsed = crate::journal::Journal::from_jsonl(&first.0).unwrap();
        assert_eq!(parsed.to_jsonl(), first.0);
    }

    #[test]
    fn runtime_report_profile_covers_the_phase_tree() {
        // With obs on, the sidecar profile exposes the engine tick
        // phases and the sim's window nodes; engine_busy is a thin read
        // of the `engine.busy` node. With obs off, only the always-on
        // busy totals remain.
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 1);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let report = Engine::default()
            .execute(&mut sim, std::slice::from_ref(&strategy), &wl, SimDuration::from_mins(30))
            .unwrap();
        let profile = &report.runtime.profile;
        for node in ["engine.tick", "engine.tick.simulate", "engine.busy", "sim.window"] {
            assert!(
                profile.total(node) > Duration::ZERO,
                "node {node} recorded:\n{}",
                profile.render()
            );
        }
        assert_eq!(report.engine_busy, profile.total("engine.busy"));
        assert!(!profile.render().is_empty());
        assert!(profile.collapsed().contains("engine;tick;simulate "));

        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 1);
        let report = Engine::new(EngineConfig {
            obs: cex_core::obs::ObsConfig::disabled(),
            ..Default::default()
        })
        .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
        .unwrap();
        let profile = &report.runtime.profile;
        assert_eq!(profile.total("engine.tick.simulate"), Duration::ZERO, "spans were off");
        assert!(profile.total("engine.busy") > Duration::ZERO, "busy totals stay on");
        assert!(report.engine_busy > Duration::ZERO);
    }

    #[test]
    fn trace_scoped_check_reads_trace_derived_metrics() {
        let src = r#"strategy "traced" {
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 20% for 3m {
              check response_time trace < 100 over 1m every 30s min_samples 5
              on success complete
              on failure rollback
              on inconclusive retry
            }
        }"#;
        // With sampling on, trace-derived samples back the check and the
        // healthy candidate completes.
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 31);
        sim.set_trace_sampling(1.0);
        let strategy = dsl::parse(src).unwrap();
        let report = Engine::default()
            .execute(&mut sim, std::slice::from_ref(&strategy), &wl, SimDuration::from_mins(10))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        assert!(
            sim.store().count("trace:svc@2.0.0", cex_core::metrics::MetricKind::ResponseTime) > 0,
            "the engine distilled trace samples into the trace scope"
        );
        assert!(!report.health.is_empty(), "tracing produces per-strategy health reports");
        // With sampling off there is no trace-derived data: the check
        // never concludes and the retry budget rolls the strategy back.
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 31);
        sim.set_trace_sampling(0.0);
        let report = Engine::new(EngineConfig { max_retries: 2, ..Default::default() })
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        assert!(report.health.is_empty(), "no traces, no health reports");
    }

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
                trace: TraceId(1),
                span: SpanId(id),
                parent: parent.map(SpanId),
                service: app.version(version).service,
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
    fn health_report_localizes_the_faulty_canary() {
        // A canary carrying an injected error burst: the end-to-end check
        // is lenient enough to let the phase run its course, but the
        // trace-driven health report must pin the degradation on the
        // candidate's `api` edge.
        let app = chaos_app();
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 29);
        sim.set_trace_sampling(1.0);
        let strategy = dsl::parse(
            r#"strategy "burst-canary" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 50% for 6m {
                  inject error_burst 0.5 on candidate after 1m for 4m
                  check error_rate app < 0.9 over 1m every 30s min_samples 10
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(8))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        let (name, health) = &report.health[0];
        assert_eq!(name, "burst-canary");
        assert_eq!(health.canary, "svc@2.0.0");
        assert!(health.traces > 0);
        let worst = health.worst_edge().expect("edges were compared");
        assert_eq!(worst.endpoint, "api", "the fault is localized to the api edge");
        assert!(worst.error_rate_delta() > 0.1, "delta {}", worst.error_rate_delta());
        assert!(health.degraded(0.05, 1_000.0));
        // The boundary snapshot journaled the same verdict.
        assert!(journal.events().iter().any(|e| matches!(
            e,
            JournalEvent::HealthSnapshot { canary, worst_edge: Some(w), error_rate_delta, .. }
                if canary == "svc@2.0.0" && w == "api" && *error_rate_delta > 0.1
        )));
        // And the journal still replays byte-identically with health
        // events in it.
        let text = journal.to_jsonl();
        let parsed = crate::journal::Journal::from_jsonl(&text).unwrap();
        assert_eq!(parsed.to_jsonl(), text);
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
                        trace: TraceId(t),
                        span: SpanId(id),
                        parent: (id > 0).then_some(SpanId(0)),
                        service: app.version(version).service,
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
            let Some(report) = pipeline.report(&binding) else {
                assert_eq!(snapshot, None, "seed {seed}: no trace, no snapshot");
                continue;
            };
            let Some(JournalEvent::HealthSnapshot {
                traces,
                failed,
                baseline,
                canary,
                worst_edge,
                score,
                error_rate_delta,
                p95_delta_ms,
                ..
            }) = snapshot
            else {
                panic!("seed {seed}: traces were folded, so a snapshot is due");
            };
            assert_eq!(
                (traces, failed, baseline.as_str(), canary.as_str()),
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

    #[test]
    fn journal_round_trips_and_replays_the_execution() {
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 13);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        let parsed = crate::journal::Journal::from_jsonl(&journal.to_jsonl()).unwrap();
        // The parsed journal replays the same verdict trace and the same
        // terminal state as the live report.
        assert_eq!(
            parsed.check_trace("canary-then-rollout"),
            journal.check_trace("canary-then-rollout")
        );
        assert!(!journal.check_trace("canary-then-rollout").is_empty());
        assert_eq!(parsed.final_states(), vec![("canary-then-rollout".into(), State::Completed)]);
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        // Transitions in the journal match the report's audit log.
        let journaled: Vec<(State, State)> = parsed
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::journal::JournalEvent::Transition { from, to, .. } => Some((*from, *to)),
                _ => None,
            })
            .collect();
        let reported: Vec<(State, State)> =
            report.transitions.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(journaled, reported);
        // The timeline renders one row per strategy plus header and load.
        let timeline = journal.render_timeline(crate::journal::TimelineOptions::default());
        assert_eq!(timeline.lines().count(), 3);
    }

    #[test]
    fn retry_budget_bounds_total_phase_executions() {
        // max_retries = 2 permits the initial execution plus exactly one
        // retry; the second consecutive inconclusive outcome must roll
        // back. The pre-fix `>` comparison allowed one extra retry.
        let app = test_app(false);
        let svc = app.service_id("svc").unwrap();
        let wl = Workload::simple(svc, "api", 0.05);
        let mut sim = Simulation::new(app, 3);
        let strategy = dsl::parse(
            r#"strategy "starved" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 10% for 2m {
                  check error_rate < 0.1 over 1m every 30s min_samples 1000
                  on success complete
                  on failure rollback
                  on inconclusive retry
                }
            }"#,
        )
        .unwrap();
        let report = Engine::new(EngineConfig { max_retries: 2, ..Default::default() })
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_hours(2))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        let retries = report.transitions.iter().filter(|t| t.from == t.to).count();
        assert_eq!(retries, 1, "transitions: {:?}", report.transitions);
        assert_eq!(report.transitions.last().unwrap().to, State::RolledBack);
    }

    #[test]
    fn terminal_strategies_retire_their_scopes() {
        let app = test_app(true);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 11);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        // The rolled-back candidate's samples are pruned from the live
        // store; the journal records the retirement.
        assert!(
            !sim.store().scopes().iter().any(|s| s == "svc@2.0.0"),
            "scopes: {:?}",
            sim.store().scopes()
        );
        assert!(journal.events().iter().any(|e| matches!(
            e,
            crate::journal::JournalEvent::ScopeCleared { scope, .. } if scope == "svc@2.0.0"
        )));
    }

    #[test]
    fn sequential_experiments_do_not_accumulate_retired_samples() {
        // Re-running experiments against the same long-lived simulation
        // must not grow the store with retired candidate scopes: each
        // rollback prunes the candidate's samples.
        let app = test_app(true);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 12);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let mut candidate_counts = Vec::new();
        for _ in 0..3 {
            let report = Engine::default()
                .execute(&mut sim, std::slice::from_ref(&strategy), &wl, SimDuration::from_mins(10))
                .unwrap();
            assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
            let candidate_samples: usize = cex_core::metrics::MetricKind::all()
                .iter()
                .map(|m| sim.store().count("svc@2.0.0", *m))
                .sum();
            candidate_counts.push(candidate_samples);
        }
        assert_eq!(candidate_counts, vec![0, 0, 0]);
    }

    #[test]
    fn auto_retention_bounds_live_store_memory() {
        // A long execution keeps only a bounded raw tail per series: the
        // auto horizon (4× the longest 1m check window, floored at 5min)
        // compacts older samples into buckets while logical counts keep
        // growing.
        let app = test_app(false);
        let svc = app.service_id("svc").unwrap();
        let wl = Workload::simple(svc, "api", 5.0);
        let mut sim = Simulation::new(app, 3);
        let strategy = dsl::parse(
            r#"strategy "starved" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 10% for 2m {
                  check error_rate < 0.1 over 1m every 30s min_samples 1000000
                  on success complete
                  on failure rollback
                  on inconclusive retry
                }
            }"#,
        )
        .unwrap();
        Engine::new(EngineConfig { max_retries: 100, ..Default::default() })
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(30))
            .unwrap();
        let store = sim.store();
        assert_eq!(store.retention(), Some(SimDuration::from_mins(5)));
        assert!(
            (store.total_samples() as u64) < store.total_recorded(),
            "raw tail ({}) stays below lifetime samples ({})",
            store.total_samples(),
            store.total_recorded()
        );
        // ~30 minutes of traffic recorded, at most ~5-and-change minutes
        // of raw samples retained per series.
        assert!(
            (store.total_samples() as u64) < store.total_recorded() / 3,
            "raw tail ({}) should be a fraction of lifetime samples ({})",
            store.total_samples(),
            store.total_recorded()
        );
        // Checks still read sample-exact windows: the horizon leaves the
        // trailing minute fully raw-backed.
        let s = store.window_summary(
            "svc@1.0.0",
            cex_core::metrics::MetricKind::ErrorRate,
            sim.now(),
            SimDuration::from_mins(1),
        );
        assert!(s.count > 0);
    }

    /// Two-tier app for the chaos-recovery tests: a stable frontend
    /// fanning into the experimented backend, giving the resilience
    /// layer a caller→callee edge to guard.
    fn chaos_app() -> Application {
        use microsim::app::CallDef;
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("web", "1.0.0").capacity(10_000.0).endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("svc", "api")),
            ),
        );
        b.version(
            VersionSpec::new("svc", "1.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        b.version(
            VersionSpec::new("svc", "2.0.0")
                .capacity(10_000.0)
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 9.0 })),
        );
        b.build().unwrap()
    }

    fn chaos_workload(app: &Application) -> Workload {
        Workload::simple(app.service_id("web").unwrap(), "home", 40.0)
    }

    fn resilience_policy() -> microsim::resilience::CallPolicy {
        use microsim::resilience::{BreakerPolicy, CallPolicy};
        CallPolicy {
            max_retries: 1,
            backoff_base: SimDuration::from_millis(20),
            jitter: 0.5,
            breaker: Some(BreakerPolicy {
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

    fn chaos_strategy_src() -> &'static str {
        r#"strategy "chaos-canary" {
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "chaos" canary 20% for 8m {
              inject outage on candidate after 2m for 1m
              check error_rate app < 0.02 over 1m every 30s min_samples 20
              on success complete
              on failure rollback
            }
        }"#
    }

    #[test]
    fn chaos_recovery_survives_the_outage_and_journals_the_breaker_cycle() {
        let app = chaos_app();
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 17);
        sim.set_call_policy(resilience_policy());
        let strategy = dsl::parse(chaos_strategy_src()).unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
            .unwrap();
        // The fallback absorbs the outage, so users never see it and the
        // app-scope check passes the phase.
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);

        // The armed fault window is journaled with its absolute bounds.
        let chaos: Vec<_> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Chaos { kind, target, from, until, .. } => {
                    Some((*kind, target.clone(), *from, *until))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            chaos,
            vec![("outage", "svc@2.0.0".to_string(), SimTime::from_mins(2), SimTime::from_mins(3))]
        );

        // The breaker on the web→candidate edge opens during the outage
        // and re-closes shortly after the window clears.
        use microsim::resilience::BreakerState;
        let breaker: Vec<_> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Breaker { time, caller, callee, to, .. } if callee == "svc@2.0.0" => {
                    Some((*time, caller.clone(), *to))
                }
                _ => None,
            })
            .collect();
        let opened = breaker.iter().find(|(_, _, to)| *to == BreakerState::Open).expect("opens");
        assert!(opened.0 >= SimTime::from_mins(2) && opened.0 < SimTime::from_mins(3));
        assert_eq!(opened.1, "web@1.0.0");
        let reclosed =
            breaker.iter().rev().find(|(_, _, to)| *to == BreakerState::Closed).expect("re-closes");
        assert!(
            reclosed.0 >= SimTime::from_mins(3) && reclosed.0 <= SimTime::from_mins(4),
            "re-closed at {} — expected within a minute of the window clearing",
            reclosed.0
        );

        // The journal replays: parse → re-serialize is byte-identical,
        // and the replayed terminal state matches the live report.
        let text = journal.to_jsonl();
        let parsed = crate::journal::Journal::from_jsonl(&text).unwrap();
        assert_eq!(parsed.to_jsonl(), text);
        assert_eq!(parsed.final_states(), vec![("chaos-canary".into(), State::Completed)]);
    }

    #[test]
    fn chaos_without_resilience_is_caught_and_rolled_back() {
        // Same experiment, no resilience layer: the outage leaks straight
        // to users, the app-scope check fails, and the strategy rolls
        // back. The fault window starts exactly on the phase boundary
        // (start_after 0) — the `[from, until)` convention must apply it
        // from the very first request of the phase.
        let app = chaos_app();
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 17);
        let strategy = dsl::parse(
            r#"strategy "chaos-naked" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "chaos" canary 20% for 8m {
                  inject outage on candidate after 0s for 2m
                  check error_rate app < 0.02 over 1m every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let report = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        // Caught inside the outage window, not at the phase boundary.
        let t = report.transitions.last().unwrap().time;
        assert!(t <= SimTime::from_mins(2) + SimDuration::from_secs(30), "rolled back at {t}");
    }

    /// The chaos app with zone labels on the backend pair, for the
    /// correlated-fault (zone chaos) tests.
    fn zoned_chaos_app() -> Application {
        use microsim::app::CallDef;
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("web", "1.0.0").capacity(10_000.0).zone("edge").endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                    .call(CallDef::always("svc", "api")),
            ),
        );
        b.version(
            VersionSpec::new("svc", "1.0.0")
                .capacity(10_000.0)
                .zone("backend")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
        );
        b.version(
            VersionSpec::new("svc", "2.0.0")
                .capacity(10_000.0)
                .zone("backend")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 9.0 })),
        );
        b.build().unwrap()
    }

    #[test]
    fn zone_outage_strikes_every_zone_member_and_journals_the_zone() {
        let app = zoned_chaos_app();
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 17);
        sim.set_call_policy(resilience_policy());
        let strategy = dsl::parse(
            r#"strategy "zone-chaos" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "chaos" canary 20% for 8m {
                  inject zone_outage "backend" after 2m for 1m
                  check error_rate app < 0.02 over 1m every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
            .unwrap();
        // Fallbacks absorb the whole-zone outage, so the app-scope check
        // passes and the experiment completes.
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);

        // One journal event for the correlated fault, tagged with the
        // zone (not a single version) and the DSL spelling of the kind.
        let chaos: Vec<_> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Chaos { kind, target, from, until, .. } => {
                    Some((*kind, target.clone(), *from, *until))
                }
                _ => None,
            })
            .collect();
        assert_eq!(
            chaos,
            vec![(
                "zone_outage",
                "zone:backend".to_string(),
                SimTime::from_mins(2),
                SimTime::from_mins(3)
            )]
        );

        // Both zone members went dark: the breakers guarding the edges
        // into each backend version open during the window.
        use microsim::resilience::BreakerState;
        for callee in ["svc@1.0.0", "svc@2.0.0"] {
            let opened = journal.events().iter().any(|e| {
                matches!(e, JournalEvent::Breaker { time, callee: c, to, .. }
                    if c == callee
                        && *to == BreakerState::Open
                        && *time >= SimTime::from_mins(2)
                        && *time < SimTime::from_mins(3))
            });
            assert!(opened, "breaker into {callee} never opened during the zone outage");
        }

        // The zone_outage keyword survives the journal round-trip.
        let text = journal.to_jsonl();
        let parsed = crate::journal::Journal::from_jsonl(&text).unwrap();
        assert_eq!(parsed.to_jsonl(), text);
    }

    #[test]
    fn latency_storm_journals_its_magnitude_and_zone() {
        let app = zoned_chaos_app();
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 17);
        sim.set_call_policy(resilience_policy());
        let strategy = dsl::parse(
            r#"strategy "storm" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "chaos" canary 20% for 8m {
                  inject latency_storm 5 on zone "backend" after 2m for 1m
                  check error_rate app < 0.02 over 1m every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
            .unwrap();
        // A pure latency storm produces no errors, so the experiment
        // completes; the journal carries the multiplier and the zone.
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        let stormed = journal.events().iter().any(|e| {
            matches!(e, JournalEvent::Chaos { kind, magnitude, target, .. }
                if *kind == "latency_storm" && *magnitude == 5.0 && target == "zone:backend")
        });
        assert!(stormed, "latency_storm event missing from the journal");
        let text = journal.to_jsonl();
        assert_eq!(crate::journal::Journal::from_jsonl(&text).unwrap().to_jsonl(), text);
    }

    #[test]
    fn unknown_chaos_zone_is_an_execution_error() {
        let app = chaos_app(); // no zone labels at all
        let wl = chaos_workload(&app);
        let mut sim = Simulation::new(app, 17);
        let strategy = dsl::parse(
            r#"strategy "ghost-zone" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "chaos" canary 20% for 8m {
                  inject zone_outage "ghost" after 2m for 1m
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let err = Engine::default()
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
            .unwrap_err();
        assert!(err.to_string().contains("matches no deployed version"), "unexpected error: {err}");
    }

    #[test]
    fn chaos_journal_is_byte_identical_across_runs() {
        let mut texts = Vec::new();
        for _ in 0..2 {
            let app = chaos_app();
            let wl = chaos_workload(&app);
            let mut sim = Simulation::new(app, 23);
            sim.set_call_policy(resilience_policy());
            let strategy = dsl::parse(chaos_strategy_src()).unwrap();
            let (_, journal) = Engine::default()
                .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(10))
                .unwrap();
            assert!(journal.events().iter().any(|e| matches!(e, JournalEvent::Breaker { .. })));
            texts.push(journal.to_jsonl());
        }
        assert_eq!(texts[0], texts[1], "same seed");
    }

    /// One service pair with tunable error rates for the sequential
    /// tests: equal latency so the error-rate metric is the only
    /// difference between the sides.
    fn seq_app(baseline_err: f64, candidate_err: f64) -> Application {
        let mut b = Application::builder();
        b.version(VersionSpec::new("svc", "1.0.0").capacity(10_000.0).endpoint(
            EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(baseline_err),
        ));
        b.version(VersionSpec::new("svc", "2.0.0").capacity(10_000.0).endpoint(
            EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(candidate_err),
        ));
        b.build().unwrap()
    }

    #[test]
    fn sequential_check_promotes_the_phase_early() {
        // Candidate clearly better: the always-valid p crosses well before
        // the 30-minute phase clock, and the engine promotes immediately.
        let app = seq_app(0.3, 0.05);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 41);
        let strategy = dsl::parse(
            r#"strategy "seq" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 50% for 30m {
                  check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(40))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        let done = report.transitions.last().unwrap().time;
        assert!(done < SimTime::from_mins(15), "promoted early, at {done}");
        assert!(journal.events().iter().any(|e| matches!(
            e,
            JournalEvent::EarlyStop { outcome: PhaseOutcome::Success, p, .. } if *p <= 0.05
        )));
        let text = journal.to_jsonl();
        assert_eq!(crate::journal::Journal::from_jsonl(&text).unwrap().to_jsonl(), text);
    }

    #[test]
    fn sequential_check_aborts_early_on_harm() {
        // Candidate clearly worse: the harm-direction p crosses mid-phase
        // and the strategy rolls back without waiting for the boundary.
        let app = seq_app(0.05, 0.4);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 43);
        let strategy = dsl::parse(
            r#"strategy "seq-bad" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "canary" canary 50% for 30m {
                  check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(40))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        let done = report.transitions.last().unwrap().time;
        assert!(done < SimTime::from_mins(10), "aborted early, at {done}");
        assert!(journal.events().iter().any(|e| matches!(
            e,
            JournalEvent::EarlyStop { outcome: PhaseOutcome::Failure, p, .. } if *p <= 0.05
        )));
    }

    #[test]
    fn guarded_ramp_advances_to_completion_when_healthy() {
        let app = seq_app(0.3, 0.05);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 47);
        let strategy = dsl::parse(
            r#"strategy "ramp-good" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "ramp" ramp from 10% to 100% step 30% every 1m guarded for 10m {
                  check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(15))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
        let decisions: Vec<&str> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Ramp { decision, .. } => Some(*decision),
                _ => None,
            })
            .collect();
        assert!(!decisions.is_empty(), "guarded ramp journals its decisions");
        assert!(
            decisions.iter().all(|d| *d == "advance"),
            "healthy ramp only advances: {decisions:?}"
        );
    }

    #[test]
    fn guarded_ramp_retreats_under_harm_before_the_sequential_abort() {
        // A mildly worse candidate under a very strict confidence: the
        // instantaneous warn threshold (LR ≥ 2) trips long before the
        // absorbing abort (always-valid p ≤ 0.001 ⇔ LR ≥ 1000), so the
        // ramp retreats/holds at its step boundaries and the strategy
        // still ends in a rollback once the evidence is conclusive.
        let app = seq_app(0.1, 0.22);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 53);
        let strategy = dsl::parse(
            r#"strategy "ramp-bad" {
                service "svc" baseline "1.0.0" candidate "2.0.0"
                phase "ramp" ramp from 10% to 100% step 30% every 1m guarded for 40m {
                  check error_rate sequential vs baseline < confidence 0.999 every 30s min_samples 20
                  on success complete
                  on failure rollback
                }
            }"#,
        )
        .unwrap();
        let (report, journal) = Engine::default()
            .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(45))
            .unwrap();
        assert_eq!(report.statuses[0].1, StrategyStatus::RolledBack);
        let decisions: Vec<(&str, f64)> = journal
            .events()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Ramp { decision, percent, .. } => Some((*decision, *percent)),
                _ => None,
            })
            .collect();
        assert!(
            decisions.iter().any(|(d, _)| *d == "retreat" || *d == "hold"),
            "harm evidence throttles the ramp: {decisions:?}"
        );
        // The ramp never retreats below its entry percent.
        assert!(decisions.iter().all(|(_, pct)| *pct >= 10.0), "{decisions:?}");
    }

    #[test]
    fn sequential_journal_is_byte_identical_across_runs() {
        // The full sequential feature set — early promotion, guarded
        // ramping — journals byte-identically across same-seed runs, like
        // every other event kind.
        let src = r#"strategy "seq-pipeline" {
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 30% for 30m {
              check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
              on success goto "ramp"
              on failure rollback
            }
            phase "ramp" ramp from 30% to 100% step 35% every 1m guarded for 8m {
              check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
              on success complete
              on failure rollback
            }
        }"#;
        let mut texts = Vec::new();
        for _ in 0..2 {
            let app = seq_app(0.3, 0.05);
            let wl = workload(&app);
            let mut sim = Simulation::new(app, 61);
            let strategy = dsl::parse(src).unwrap();
            let engine = Engine::new(EngineConfig::default());
            let (report, journal) = engine
                .execute_journaled(&mut sim, &[strategy], &wl, SimDuration::from_mins(60))
                .unwrap();
            assert_eq!(report.statuses[0].1, StrategyStatus::Completed);
            assert!(journal.events().iter().any(|e| matches!(e, JournalEvent::EarlyStop { .. })));
            assert!(journal.events().iter().any(|e| matches!(e, JournalEvent::Ramp { .. })));
            texts.push(journal.to_jsonl());
        }
        assert_eq!(texts[0], texts[1], "same seed");
    }

    #[test]
    fn sequential_fleet_journals_identically_across_runs_and_a_retry() {
        // Sequential looks resume their cumulative windows from cursors
        // kept per (run, check). A fleet that promotes early, ramps under
        // guard, retreats, and retries an undecided A/A phase must journal
        // the same bytes on every same-seed run — and a retried phase must
        // start its windows over.
        let src = r#"
        strategy "good" {
          service "good" baseline "1.0.0" candidate "2.0.0"
          phase "canary" canary 30% for 10m {
            check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
            on success goto "ramp"
            on failure rollback
          }
          phase "ramp" ramp from 30% to 100% step 35% every 1m guarded for 6m {
            check error_rate sequential vs baseline < confidence 0.95 every 30s min_samples 20
            on success complete
            on failure rollback
          }
        }
        strategy "bad" {
          service "bad" baseline "1.0.0" candidate "2.0.0"
          phase "ramp" ramp from 10% to 100% step 30% every 1m guarded for 30m {
            check error_rate sequential vs baseline < confidence 0.999 every 30s min_samples 20
            on success complete
            on failure rollback
          }
        }
        strategy "same" {
          service "same" baseline "1.0.0" candidate "2.0.0"
          phase "aa" canary 50% for 3m {
            check error_rate sequential vs baseline < confidence 0.9999 every 20s min_samples 20
            on success complete
            on failure rollback
            on inconclusive retry
          }
        }"#;
        let fleet_app = || {
            let mut b = Application::builder();
            for (service, errs) in [("good", [0.3, 0.05]), ("bad", [0.1, 0.13]), ("same", [0.1; 2])]
            {
                for (version, err) in ["1.0.0", "2.0.0"].into_iter().zip(errs) {
                    b.version(
                        VersionSpec::new(service, version).capacity(10_000.0).endpoint(
                            EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 })
                                .error_rate(err),
                        ),
                    );
                }
            }
            b.build().unwrap()
        };
        let mut texts = Vec::new();
        for _ in 0..2 {
            let app = fleet_app();
            let entries = ["good", "bad", "same"]
                .iter()
                .map(|s| microsim::workload::EntryPoint {
                    service: app.service_id(s).unwrap(),
                    endpoint: "api".into(),
                    weight: 1.0,
                })
                .collect();
            let wl = Workload {
                population: cex_core::users::Population::single("all", 50_000),
                rate_rps: 90.0,
                entries,
                profile: microsim::workload::RateProfile::Constant,
            };
            let mut sim = Simulation::new(app, 78);
            let (strategies, _) = dsl::parse_fleet(src).unwrap();
            let engine = Engine::new(EngineConfig { max_retries: 3, ..Default::default() });
            let (_, journal) = engine
                .execute_journaled(&mut sim, &strategies, &wl, SimDuration::from_mins(20))
                .unwrap();
            if texts.is_empty() {
                let events = journal.events();
                let has = |pred: fn(&JournalEvent) -> bool| events.iter().any(pred);
                assert!(has(|e| matches!(e, JournalEvent::EarlyStop { .. })));
                assert!(has(|e| matches!(e, JournalEvent::Ramp { decision: "advance", .. })));
                assert!(has(|e| matches!(e, JournalEvent::Ramp { decision: "retreat", .. })));
                // The A/A phase is retried, and each retry reads a window
                // anchored at the re-entry: sample counts fall back.
                let looks: Vec<(SimTime, u64)> = events
                    .iter()
                    .filter_map(|e| match e {
                        JournalEvent::Check {
                            time, strategy, primary, boundary: false, ..
                        } if strategy.as_ref() == "same" => Some((*time, primary.count)),
                        _ => None,
                    })
                    .collect();
                let retries: Vec<SimTime> = events
                    .iter()
                    .filter_map(|e| match e {
                        JournalEvent::Transition { time, strategy, from, to, .. }
                            if strategy.as_ref() == "same" && from == to =>
                        {
                            Some(*time)
                        }
                        _ => None,
                    })
                    .collect();
                assert_eq!(retries.len(), 2, "two retries, then the budget rolls back");
                for retry in retries {
                    let before = looks.iter().rev().find(|(t, _)| *t <= retry).unwrap().1;
                    let after = looks.iter().find(|(t, _)| *t > retry).unwrap().1;
                    assert!(after * 4 < before, "window restarted: {before} -> {after}");
                }
            }
            texts.push(journal.to_jsonl());
        }
        assert_eq!(texts[0], texts[1], "same seed");
    }

    #[test]
    fn zero_tick_is_an_error_not_a_hang() {
        // A zero step never advances the clock, so neither the deadline
        // nor a phase boundary is ever reached.
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 7);
        let strategy = dsl::parse(strategy_src()).unwrap();
        let err = Engine::new(EngineConfig { tick: SimDuration::ZERO, ..Default::default() })
            .execute(&mut sim, &[strategy], &wl, SimDuration::from_secs(30))
            .unwrap_err();
        assert!(matches!(&err, BifrostError::Execution(why) if why.contains("tick")), "{err}");
        assert_eq!(sim.now(), SimTime::ZERO, "rejected before the simulation is touched");
    }

    #[test]
    fn empty_strategy_list_is_an_error() {
        let app = test_app(false);
        let wl = workload(&app);
        let mut sim = Simulation::new(app, 7);
        assert!(Engine::default().execute(&mut sim, &[], &wl, SimDuration::from_mins(1)).is_err());
    }
}
