//! Figure 5.10 — box plots of heuristic execution times, and the effect
//! of change frequency.
//!
//! The paper's finding: execution times are very stable and the extent of
//! changes between the compared variants does not influence heuristic
//! performance. A ranking scores and sorts every change, so its time grows
//! with the number of changes; what can be flat across change frequencies
//! is the time *per change*, which is printed beside every box.
//!
//! Stdout holds what the seeds decide — the change counts per pair at each
//! change frequency — and the boxes and times per change go to stderr.

use cex_bench::{five_number, fmt_duration, header};
use std::time::{Duration, Instant};
use topology::changes::classify;
use topology::diff::TopologicalDiff;
use topology::heuristics::{self, AnalysisContext};
use topology::perf::{generate_pair, PerfParams};
use topology::rank::rank;

const ENDPOINTS: usize = 2_000;
const REPETITIONS: u64 = 10;

fn main() {
    header("Figure 5.10 — execution-time distributions (2,000 endpoints)");
    let variants = heuristics::all_variants();
    for change_fraction in [0.05f64, 0.1, 0.2, 0.4] {
        // One pair per repetition, shared by every heuristic.
        let params = PerfParams { endpoints: ENDPOINTS, change_fraction, ..Default::default() };
        let pairs: Vec<_> = (0..REPETITIONS)
            .map(|rep| {
                let (baseline, experimental) = generate_pair(&params, 100 + rep);
                let diff = TopologicalDiff::compute(&baseline, &experimental);
                let changes = classify(&diff);
                (baseline, experimental, diff, changes)
            })
            .collect();
        let mut counts: Vec<f64> = pairs.iter().map(|(.., changes)| changes.len() as f64).collect();
        let (fewest, _, median_count, _, most) = five_number(&mut counts);
        let frequency = format!(
            "change frequency {:.0}%: {fewest}–{most} changes per pair (median {median_count})",
            change_fraction * 100.0
        );
        println!("\n{frequency}");
        eprintln!("\n{frequency}");
        eprintln!(
            "{:>18} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>16}",
            "heuristic", "min", "q1", "median", "q3", "max", "median µs/change"
        );
        for v in &variants {
            let mut times_ms: Vec<f64> = Vec::new();
            let mut us_per_change: Vec<f64> = Vec::new();
            for (baseline, experimental, diff, changes) in &pairs {
                let ctx = AnalysisContext { baseline, experimental, diff };
                let t = Instant::now();
                let _ = rank(v.as_ref(), &ctx, changes);
                let took = t.elapsed().as_secs_f64();
                times_ms.push(took * 1e3);
                us_per_change.push(took * 1e6 / changes.len() as f64);
            }
            let (min, q1, median, q3, max) = five_number(&mut times_ms);
            let (.., per_change, _, _) = five_number(&mut us_per_change);
            let f = |ms: f64| fmt_duration(Duration::from_secs_f64(ms / 1_000.0));
            eprintln!(
                "{:>18} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>16.3}",
                v.name(),
                f(min),
                f(q1),
                f(median),
                f(q3),
                f(max),
                per_change
            );
        }
    }
    println!("\nper-heuristic time boxes and median µs/change print to stderr.");
    println!("paper finding: runtimes are stable; change frequency does not affect them.");
    println!("here: a ranking is linear in the changes it ranks; compare µs/change.");
}
