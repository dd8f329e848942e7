//! Sequential-testing benchmark: time-to-detection of an injected
//! error-rate regression, always-valid mSPRT checks versus a
//! fixed-window Welch baseline at a *matched* family-wise error budget.
//!
//! The comparison answers the question the sequential layer exists for:
//! once both methods are held to the same false-positive guarantee, how
//! much faster does the always-valid test catch a real regression? The
//! baseline is the repo's idiomatic fixed-window check (`over 1m every
//! 30s`, the shape the engine tests and templates use) with its per-look
//! α Bonferroni-deflated (α/looks), which caps its family-wise error at
//! the same 0.05 the sequential test's Ville bound provides. An A/A
//! control row verifies both sides actually stay at or under the nominal
//! level. The structural difference the grid exposes: the fixed check's
//! per-look evidence is capped at whatever its trailing window holds,
//! while the sequential test accumulates every sample since phase start
//! — so at matched error budgets the sequential test detects small and
//! moderate regressions several times sooner, and finds ones the
//! fixed window never reaches significance on at all.
//!
//! For each regression magnitude the grid runs paired seeds through two
//! otherwise identical canary strategies and records the virtual time of
//! the rollback transition. Undetected runs are censored at the phase
//! horizon, so mean detection times stay finite and comparable.
//!
//! Writes `results/BENCH_sequential.json`. With `--smoke [--out PATH]`
//! it runs a reduced grid; every field in the JSON (detection counts and
//! virtual-time means) is deterministic, so CI runs it twice and diffs
//! the outputs byte for byte.

use bifrost::dsl;
use bifrost::engine::{Engine, EngineConfig, StrategyStatus};
use cex_bench::{smoke_args, write_bench_json};
use cex_core::simtime::SimDuration;
use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::sim::Simulation;
use microsim::workload::Workload;
use std::fmt::Write as _;

/// Baseline error rate; regressions add their delta on the candidate.
const BASE_ERR: f64 = 0.10;
/// Family-wise false-positive budget for both methods.
const ALPHA: f64 = 0.05;
/// Check cadence (both methods peek equally often).
const EVERY_SECS: u64 = 30;
/// Modest traffic, the regime the comparison is about: the fixed
/// baseline's per-look evidence is capped at whatever its trailing
/// window holds, while the sequential test accumulates every sample
/// since phase start.
const RATE_RPS: f64 = 10.0;

fn app(candidate_err: f64) -> Application {
    let mut b = Application::builder();
    b.version(VersionSpec::new("svc", "1.0.0").capacity(10_000.0).endpoint(
        EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(BASE_ERR),
    ));
    b.version(VersionSpec::new("svc", "2.0.0").capacity(10_000.0).endpoint(
        EndpointDef::new("api", LatencyModel::Constant { ms: 20.0 }).error_rate(candidate_err),
    ));
    b.build().expect("benchmark app")
}

/// Number of scheduled looks over one phase — the Bonferroni divisor.
fn looks(phase_mins: u64) -> u64 {
    phase_mins * 60 / EVERY_SECS
}

fn sequential_src(phase_mins: u64) -> String {
    format!(
        r#"strategy "seq" {{
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 50% for {phase_mins}m {{
              check error_rate sequential vs baseline < confidence {} every {EVERY_SECS}s min_samples 20
              on success complete
              on failure rollback
              on inconclusive complete
            }}
        }}"#,
        1.0 - ALPHA
    )
}

fn fixed_src(phase_mins: u64) -> String {
    format!(
        r#"strategy "fixed" {{
            service "svc" baseline "1.0.0" candidate "2.0.0"
            phase "canary" canary 50% for {phase_mins}m {{
              check error_rate significant_vs_baseline < {} over 1m every {EVERY_SECS}s min_samples 20
              on success complete
              on failure rollback
              on inconclusive complete
            }}
        }}"#,
        ALPHA / looks(phase_mins) as f64
    )
}

/// One run; `Some(ms)` is the virtual time of the rollback transition.
fn detect_at(src: &str, candidate_err: f64, seed: u64, phase_mins: u64) -> Option<u64> {
    let app = app(candidate_err);
    let svc = app.service_id("svc").expect("svc exists");
    let wl = Workload::simple(svc, "api", RATE_RPS);
    let mut sim = Simulation::new(app, seed);
    sim.set_trace_sampling(0.0);
    let strategy = dsl::parse(src).expect("benchmark strategy parses");
    let report = Engine::new(EngineConfig { max_retries: 1, ..Default::default() })
        .execute(&mut sim, &[strategy], &wl, SimDuration::from_mins(phase_mins + 5))
        .expect("benchmark run");
    if report.statuses[0].1 == StrategyStatus::RolledBack {
        Some(report.transitions.last().expect("rollback transitioned").time.as_millis())
    } else {
        None
    }
}

struct Cell {
    detected: usize,
    runs: usize,
    /// Mean time-to-detection with undetected runs censored at the
    /// phase horizon (virtual milliseconds).
    censored_mean_ms: f64,
}

fn cell(src: &str, candidate_err: f64, seeds: &[u64], phase_mins: u64) -> Cell {
    let horizon_ms = phase_mins * 60_000;
    let times: Vec<u64> = seeds
        .iter()
        .map(|s| detect_at(src, candidate_err, *s, phase_mins).unwrap_or(horizon_ms))
        .collect();
    let detected = times.iter().filter(|t| **t < horizon_ms).count();
    Cell {
        detected,
        runs: seeds.len(),
        censored_mean_ms: times.iter().sum::<u64>() as f64 / seeds.len() as f64,
    }
}

fn run_grid(out: &str, bench: &str, seeds: &[u64], phase_mins: u64, verbose: bool) {
    let magnitudes = [0.02, 0.03, 0.05];
    let seq = sequential_src(phase_mins);
    let fixed = fixed_src(phase_mins);

    let mut json = String::new();
    let _ = writeln!(json, "  \"alpha\": {ALPHA},");
    let _ = writeln!(json, "  \"fixed_alpha_per_look\": {:.9},", ALPHA / looks(phase_mins) as f64);
    let _ = writeln!(json, "  \"looks\": {},", looks(phase_mins));
    let _ = writeln!(json, "  \"phase_mins\": {phase_mins},");
    let _ = writeln!(json, "  \"runs_per_cell\": {},", seeds.len());
    json.push_str("  \"magnitudes\": [\n");
    for (k, delta) in magnitudes.iter().enumerate() {
        let candidate_err = BASE_ERR + delta;
        let s = cell(&seq, candidate_err, seeds, phase_mins);
        let f = cell(&fixed, candidate_err, seeds, phase_mins);
        let speedup = f.censored_mean_ms / s.censored_mean_ms;
        if verbose {
            println!(
                "delta +{delta:.2}: sequential {} of {} in {:.0}s mean, \
                 fixed {} of {} in {:.0}s mean — {speedup:.1}x faster",
                s.detected,
                s.runs,
                s.censored_mean_ms / 1_000.0,
                f.detected,
                f.runs,
                f.censored_mean_ms / 1_000.0,
            );
        }
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"delta\": {delta},");
        let _ = writeln!(
            json,
            "      \"sequential\": {{\"detected\": {}, \"runs\": {}, \"censored_mean_ms\": {:.3}}},",
            s.detected, s.runs, s.censored_mean_ms
        );
        let _ = writeln!(
            json,
            "      \"fixed\": {{\"detected\": {}, \"runs\": {}, \"censored_mean_ms\": {:.3}}},",
            f.detected, f.runs, f.censored_mean_ms
        );
        let _ = writeln!(json, "      \"speedup\": {speedup:.6}");
        let _ = writeln!(json, "    }}{}", if k + 1 < magnitudes.len() { "," } else { "" });
    }
    json.push_str("  ],\n");

    // A/A control: both methods at their stated budget, no regression.
    let s = cell(&seq, BASE_ERR, seeds, phase_mins);
    let f = cell(&fixed, BASE_ERR, seeds, phase_mins);
    if verbose {
        println!(
            "A/A control: sequential {} of {} false aborts, fixed {} of {} (budget {ALPHA})",
            s.detected, s.runs, f.detected, f.runs
        );
    }
    let _ = writeln!(
        json,
        "  \"aa\": {{\"sequential_aborts\": {}, \"fixed_aborts\": {}, \"runs\": {}}}",
        s.detected, f.detected, s.runs
    );
    write_bench_json(out, bench, &json);
}

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_sequential.json");
    if smoke {
        let seeds: Vec<u64> = (300..304).collect();
        run_grid(&out, "sequential_smoke", &seeds, 10, false);
    } else {
        println!("=== Sequential vs fixed-window: time-to-detection at matched error budget ===");
        let seeds: Vec<u64> = (300..316).collect();
        run_grid(&out, "sequential", &seeds, 45, true);
        println!("wrote {out}");
    }
}
