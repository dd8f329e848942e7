//! Figure 5.9 — heuristic execution times for an increasing number of
//! endpoints.
//!
//! Paper bounds to reproduce in shape: service networks of up to 10,000
//! endpoints analyzed within 5 seconds, up to 4,000 within 1 second —
//! and near-linear growth. (Our Rust implementation is much faster than
//! the prototype; the shape is what transfers.) Every cell is the median
//! of [`REPETITIONS`] runs, and the last line states the growth from 2,000
//! to 10,000 endpoints per column beside the growth of the input.
//!
//! Stdout holds what the seeds decide — the change count per size and the
//! input's growth — and the timing table with its growth row goes to
//! stderr.

use cex_bench::{fmt_duration, header};
use std::time::{Duration, Instant};
use topology::changes::classify;
use topology::diff::TopologicalDiff;
use topology::heuristics::{self, AnalysisContext};
use topology::perf::{generate_pair, PerfParams};
use topology::rank::rank;

const REPETITIONS: usize = 5;
/// The two sizes whose ratio the last line prints.
const GROWTH: (usize, usize) = (2_000, 10_000);

/// Runs `stage` [`REPETITIONS`] times; the median wall time and the last
/// result.
fn median_of<T>(mut stage: impl FnMut() -> T) -> (Duration, T) {
    let mut times = Vec::with_capacity(REPETITIONS);
    let mut last = None;
    for _ in 0..REPETITIONS {
        let started = Instant::now();
        let out = stage();
        times.push(started.elapsed());
        last = Some(out);
    }
    times.sort_unstable();
    (times[REPETITIONS / 2], last.expect("REPETITIONS is positive"))
}

fn main() {
    header("Figure 5.9 — heuristic execution time vs number of endpoints");
    let variants = heuristics::all_variants();
    println!("{:>12} | {:>8}", "endpoints", "changes");
    eprint!("{:>12} | {:>8} | {:>8}", "endpoints", "diff", "classify");
    for v in &variants {
        eprint!(" | {:>17}", v.name());
    }
    eprintln!();
    // diff and classify are narrow columns, the six heuristics wide ones.
    let width = |column: usize| if column < 2 { 8 } else { 17 };
    // Per printed size: the change count and every column's time.
    let mut rows: Vec<(usize, usize, Vec<Duration>)> = Vec::new();
    for endpoints in [100usize, 500, 1_000, 2_000, 4_000, 10_000] {
        let params = PerfParams { endpoints, change_fraction: 0.1, ..Default::default() };
        let (baseline, experimental) = generate_pair(&params, 5);

        let (diff_time, diff) = median_of(|| TopologicalDiff::compute(&baseline, &experimental));
        let (classify_time, changes) = median_of(|| classify(&diff));
        let ctx = AnalysisContext { baseline: &baseline, experimental: &experimental, diff: &diff };
        let mut times = vec![diff_time, classify_time];
        times.extend(variants.iter().map(|v| median_of(|| rank(v.as_ref(), &ctx, &changes)).0));

        println!("{endpoints:>12} | {:>8}", changes.len());
        eprint!("{endpoints:>12}");
        for (column, time) in times.iter().enumerate() {
            eprint!(" | {:>w$}", fmt_duration(*time), w = width(column));
        }
        eprintln!();
        rows.push((endpoints, changes.len(), times));
    }

    let row = |endpoints: usize| {
        rows.iter().find(|(n, ..)| *n == endpoints).expect("both growth sizes are printed")
    };
    let ((small, few, before), (large, many, after)) = (row(GROWTH.0), row(GROWTH.1));
    let growth = format!("{large} ÷ {small}");
    println!(
        "{growth:>12} | endpoints {:.1}×, changes {many} / {few} = {:.1}×",
        *large as f64 / *small as f64,
        *many as f64 / *few as f64
    );
    eprint!("{growth:>12}");
    for (column, (a, b)) in after.iter().zip(before).enumerate() {
        let ratio = format!("{:.1}×", a.as_secs_f64() / b.as_secs_f64());
        eprint!(" | {:>w$}", ratio, w = width(column));
    }
    eprintln!("\n\neach cell: median of {REPETITIONS} runs.");
    println!(
        "\ndiff, classify and per-heuristic times (median of {REPETITIONS} runs) print to stderr."
    );
    println!("paper bound: ≤1 s at 4,000 endpoints, ≤5 s at 10,000 (research prototype).");
}
