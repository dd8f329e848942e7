//! The five workloads: names, reasons and sizes, and what a run returns.

use crate::gen::{FleetShape, PhasePlan, Template};
use crate::spans::Spans;
use cex_core::json::Json;
use std::time::Instant;

/// What one invocation asks of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunArgs {
    /// Feeds the generators and nothing else.
    pub seed: u64,
    /// Keep starting timed repetitions until this many seconds have been
    /// measured; `None` runs the workload's default repetition count.
    pub seconds: Option<f64>,
    /// Add the traced repetition and the per-layer probes.
    pub trace: bool,
    /// Sizes cut about twenty-fold, one repetition, exact fields only.
    pub smoke: bool,
}

impl RunArgs {
    /// Whether the timed repetitions are over: `--seconds` have been
    /// measured since `started` (set-up batches between repetitions
    /// count), or `default_reps` are done when no `--seconds` was given.
    pub fn enough(&self, done: usize, default_reps: usize, started: Instant) -> bool {
        match self.seconds {
            _ if self.smoke => done >= 1,
            Some(s) => done >= 1 && started.elapsed().as_secs_f64() >= s,
            None => done >= default_reps,
        }
    }

    /// Sets up `repeats` times (once in smoke mode), pushes every set-up's
    /// seconds onto `samples` and returns the last set-up's result. A
    /// batch runs before the warm-up and before every timed repetition, so
    /// the samples behind `setup_s` span the run as the samples behind
    /// `wall_s` do. The count is fixed, not timed, so the heap a repetition
    /// starts from is the same in every run. Only a batch's first set-up
    /// leaves spans behind.
    pub fn set_up_batch<T>(
        &self,
        repeats: usize,
        spans: &mut Spans,
        samples: &mut Vec<f64>,
        mut set_up: impl FnMut(&mut Spans) -> T,
    ) -> T {
        let id = spans.enter("setup");
        let mut built = set_up(spans);
        samples.push(spans.exit(id).as_secs_f64());
        for _ in 1..if self.smoke { 1 } else { repeats } {
            drop(built);
            let again = Instant::now();
            built = set_up(&mut Spans::new());
            samples.push(again.elapsed().as_secs_f64());
        }
        built
    }
}

/// Output checks: every one counts as attempted, a failed one is named.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// What each failed check found.
    pub failures: Vec<String>,
}

impl Checks {
    /// Counts one check; records `what` when it does not hold.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failures.push(what());
        }
    }
}

/// The samples behind a timing that is reported as a median.
#[derive(Debug, Clone, PartialEq)]
pub struct Timing {
    /// Metric name the median is reported under.
    pub name: &'static str,
    /// Every sample, in the order measured; never empty.
    pub samples: Vec<f64>,
}

impl Timing {
    /// `min / q1 / median / q3` over the samples, printed beside the median.
    pub fn spread(&self) -> [f64; 4] {
        crate::stats::spread(&self.samples).expect("a timing has at least one sample")
    }
}

/// Everything one workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values by name; `None` is "the program did not report it".
    /// A metric that does not exist on this workload is not listed.
    pub metrics: Vec<(&'static str, Option<f64>)>,
    /// Spread of the timings behind the end-to-end medians.
    pub timings: Vec<Timing>,
    /// Output checks.
    pub checks: Checks,
    /// FNV-1a digest of the workload's outputs, for comparing two commits.
    pub digest: u64,
    /// Exact, seed-pure facts (counts, bytes, verdicts): the smoke output.
    pub exact: Vec<(&'static str, Json)>,
    /// What `work_per_s` counts on this workload.
    pub work_unit: &'static str,
    /// Conditions of the run worth a line in the table (CPU pinning).
    pub notes: Vec<String>,
    /// The benchmark's own trace of the run.
    pub spans: Spans,
}

/// Sizes of a `fleet-*` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSpec {
    /// The generated application.
    pub shape: FleetShape,
    /// Which strategy text is generated.
    pub template: Template,
    /// Phase lengths of every strategy.
    pub plan: PhasePlan,
    /// Mean arrival rate, open loop.
    pub rate_rps: f64,
    /// MMPP bursts instead of a constant rate.
    pub bursty: bool,
    /// Simulated seconds one repetition covers.
    pub horizon_s: u64,
    /// Engine tick in simulated milliseconds.
    pub tick_ms: u64,
    /// Event-core worker threads.
    pub sim_workers: usize,
    /// `runtime { report_every N }`; `0` leaves runtime events off.
    pub report_every: u64,
    /// Trace sampling fraction.
    pub trace_sampling: f64,
    /// Tail sampling with `TailSamplingConfig::default()`.
    pub tail_sampling: bool,
    /// Timeouts, one jittered retry, breaker and fallback on every edge.
    pub call_policy: bool,
    /// Timed repetitions when `--seconds` is not given.
    pub default_reps: usize,
}

/// Sizes of the `trace-analysis` workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisSpec {
    /// Traces captured in each of the two windows (healthy, faulted).
    pub traces_per_window: usize,
    /// Analysis passes per repetition, each with fresh state.
    pub passes: usize,
    /// Endpoints of the synthetic graph pair the diff and rankers read.
    pub pair_endpoints: usize,
    /// Timed repetitions when `--seconds` is not given.
    pub default_reps: usize,
}

/// What a workload runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// One journaled Bifrost fleet run per repetition.
    Fleet(FleetSpec),
    /// Sixteen analysis passes over captured traces per repetition.
    Analysis(AnalysisSpec),
}

/// A named workload and the reason it exists.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line: which layers it stresses and which it bypasses.
    pub why: &'static str,
    /// Full-size definition.
    pub full: Kind,
    /// Smoke-size definition.
    pub smoke: Kind,
}

const SIMCORE_SHAPE: FleetShape = FleetShape {
    services: 16,
    layers: 4,
    endpoints: 3,
    calls: 2,
    candidates: 4,
    bad: 1,
    limits: None,
};

const TRAFFIC: FleetSpec = FleetSpec {
    shape: SIMCORE_SHAPE,
    template: Template::Traffic,
    plan: PhasePlan { canary_s: 100, ramp_s: 200 },
    rate_rps: 400.0,
    bursty: false,
    horizon_s: 300,
    tick_ms: 10_000,
    sim_workers: 1,
    report_every: 0,
    trace_sampling: 0.05,
    tail_sampling: false,
    call_policy: false,
    default_reps: 5,
};

const CONTROL: FleetSpec = FleetSpec {
    shape: FleetShape {
        services: 256,
        layers: 1,
        endpoints: 1,
        calls: 0,
        candidates: 256,
        bad: 32,
        limits: None,
    },
    template: Template::Control,
    plan: PhasePlan { canary_s: 600, ramp_s: 1200 },
    rate_rps: 192.0,
    horizon_s: 1800,
    report_every: 6,
    trace_sampling: 1.0,
    ..TRAFFIC
};

const CHAOS: FleetSpec = FleetSpec {
    shape: FleetShape { candidates: 6, bad: 2, limits: Some((32, 32)), ..SIMCORE_SHAPE },
    template: Template::Chaos,
    rate_rps: 300.0,
    bursty: true,
    report_every: 3,
    trace_sampling: 1.0,
    tail_sampling: true,
    call_policy: true,
    ..TRAFFIC
};

const SHARDED: FleetSpec =
    FleetSpec { horizon_s: 10, tick_ms: 5_000, sim_workers: 2, default_reps: 3, ..TRAFFIC };

/// The workloads, in the order they run and print.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fleet-traffic",
        why: "event core does >=95% of the work, control plane almost none: events/s gains show here",
        full: Kind::Fleet(TRAFFIC),
        smoke: Kind::Fleet(FleetSpec { rate_rps: 20.0, ..TRAFFIC }),
    },
    Workload {
        name: "fleet-control",
        why: "256 strategies x 8 checks: check evaluation, window queries, apply and journal encode dominate; event-core work predicts no change",
        full: Kind::Fleet(CONTROL),
        smoke: Kind::Fleet(FleetSpec {
            shape: FleetShape { services: 16, candidates: 16, bad: 2, ..CONTROL.shape },
            plan: PhasePlan { canary_s: 300, ramp_s: 600 },
            rate_rps: 12.0,
            horizon_s: 900,
            ..CONTROL
        }),
    },
    Workload {
        name: "fleet-chaos",
        why: "same event core under limits, timeouts, retries, breakers, sheds and full trace capture: a fast path bought at the queue/timeout path's cost shows here",
        full: Kind::Fleet(CHAOS),
        smoke: Kind::Fleet(FleetSpec { rate_rps: 15.0, ..CHAOS }),
    },
    Workload {
        name: "fleet-sharded",
        why: "sim_workers = 2 pinned to one CPU: the only workload where cross-shard exchange and barrier waits are real; guards the multi-worker path",
        full: Kind::Fleet(SHARDED),
        smoke: Kind::Fleet(FleetSpec { rate_rps: 40.0, ..SHARDED }),
    },
    Workload {
        name: "trace-analysis",
        why: "engine and event core idle; health, blame and graph folds and the quantile sketch do everything, push beside merge and quantile",
        full: Kind::Analysis(AnalysisSpec {
            traces_per_window: 26_000,
            passes: 16,
            pair_endpoints: 2_000,
            default_reps: 5,
        }),
        smoke: Kind::Analysis(AnalysisSpec {
            traces_per_window: 1_300,
            passes: 1,
            pair_endpoints: 200,
            default_reps: 1,
        }),
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &Workload, seed: u64) -> Outcome {
        let args = RunArgs { seed, seconds: None, trace: true, smoke: true };
        match workload.smoke {
            Kind::Fleet(spec) => crate::fleet::run(&spec, &args),
            Kind::Analysis(spec) => crate::analysis::run(&spec, &args),
        }
    }

    #[test]
    fn every_output_check_holds_at_smoke_size_on_seeds_42_and_7() {
        for workload in &WORKLOADS {
            for seed in [42, 7] {
                let outcome = smoke(workload, seed);
                assert!(outcome.checks.attempted > 0, "{}", workload.name);
                assert_eq!(
                    outcome.checks.failures,
                    Vec::<String>::new(),
                    "{} seed {seed}",
                    workload.name
                );
            }
        }
    }

    #[test]
    fn exact_fields_repeat_and_follow_the_seed() {
        let chaos = by_name("fleet-chaos").expect("listed");
        let (a, b, c) = (smoke(chaos, 42), smoke(chaos, 42), smoke(chaos, 7));
        assert_eq!(a.exact, b.exact, "same seed, same exact fields");
        assert_eq!(a.digest, b.digest);
        assert_ne!(a.digest, c.digest, "another seed, another journal");
    }

    #[test]
    fn enough_counts_repetitions_or_seconds() {
        let started = Instant::now();
        let by_reps = RunArgs { seed: 1, seconds: None, trace: false, smoke: false };
        assert!(!by_reps.enough(4, 5, started));
        assert!(by_reps.enough(5, 5, started));
        let by_seconds = RunArgs { seconds: Some(3600.0), ..by_reps };
        assert!(!by_seconds.enough(100, 5, started), "an hour has not passed");
        let spent = RunArgs { seconds: Some(1e-9), ..by_reps };
        assert!(!spent.enough(0, 5, started), "at least one repetition");
        assert!(spent.enough(1, 5, started));
        let smoke = RunArgs { smoke: true, ..by_seconds };
        assert!(smoke.enough(1, 5, started), "smoke runs one repetition");
    }
}
