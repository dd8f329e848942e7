//! Statistical guarantees as searched tests: each states a bound the
//! library documents and holds it over seeded, generated inputs against an
//! exact computation, with the case index in every failure message so that
//! a failure reproduces bit for bit.
//!
//! `cargo test --test guarantees` runs a few hundred cases a guarantee;
//! `cargo test --release --test guarantees -- --ignored` runs 10⁵.
//!
//! The quantile sketch's guarantee ([`QuantileSketch::quantile`]): the
//! estimate at a rank is within relative error [`RELATIVE_ERROR`] of the
//! value an exact sort puts at that rank (nearest rank, `round(q·(n−1))`),
//! provided the rank is at or above [`QuantileSketch::collapsed`]. A value
//! at or below 10⁻⁹ is counted in the zero bucket, where the estimate is
//! the exact minimum, so there it is held to that.
//!
//! **Finding: the bound is exceeded by rounding at bucket edges.** A
//! bucket's representative is `2·γ^k/(γ+1)` with `γ^k` taken by `powi`,
//! whose rounding grows with `|k|` (≈6·10⁻¹⁴ relative at `|k|` ≈ 1,000,
//! values near 2·10⁻⁹). A value within that much of its bucket's lower
//! edge, where the exact error is α less a hair, then reads α plus a hair:
//! `0.010000000000000054` for 2.1013916106209904e-9. Every estimate away
//! from an edge is held to α exactly; one whose value sits within 10⁻⁹ of
//! an edge, in key units, is held to α + 10⁻¹². An exact midpoint would
//! move every estimate's last bits, and so the journal's health snapshots:
//! that is a byte-moving change of its own.

use cex_core::rng::SplitMix64;
use cex_core::sketch::{QuantileSketch, MAX_BUCKETS, RELATIVE_ERROR};

/// Values at or below this are the sketch's zero bucket.
const ZERO_BUCKET: f64 = 1e-9;

/// The bucket growth factor the sketch is built on, `(1+α)/(1−α)`.
const GAMMA: f64 = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);

/// How far past α an estimate of a value at a bucket edge may read (see
/// the finding above).
const EDGE_EXCESS: f64 = 1e-12;

/// `true` when `value` is within 10⁻⁹ of a bucket edge `γ^k`, in key units
/// (`ln value / ln γ`).
fn at_an_edge(value: f64) -> bool {
    let key = value.ln() / GAMMA.ln();
    (key - key.round()).abs() < 1e-9
}

/// The value-set families the search draws from.
const FAMILIES: [&str; 8] = [
    "heavy tail",
    "whole milliseconds",
    "duplicates",
    "tiny",
    "huge",
    "bucket edges",
    "past the bucket cap",
    "zeros and a wide range",
];

/// One value of `family`.
fn draw(family: usize, rng: &mut SplitMix64, shape: f64) -> f64 {
    let u = rng.next_f64();
    match family {
        // Pareto with tail index in (0.3, 2.3]: infinite variance below 2,
        // infinite mean below 1.
        0 => 5.0 * (1.0 - u).powf(-1.0 / shape),
        // Latencies as the simulator records them: whole ms, log-spread.
        1 => 10f64.powf(4.0 * u).round(),
        // A handful of distinct values, each many times.
        2 => [0.5, 3.0, 3.0, 17.0, 250.0, 1e4][rng.next_index(6)] * shape.ceil(),
        // Just above the zero bucket, up to a few decades over it.
        3 => ZERO_BUCKET * 10f64.powf(3.0 * u) * (1.0 + f64::EPSILON),
        // Near the top of the finite doubles.
        4 => f64::MAX * 10f64.powf(-6.0 * u),
        // On, just below and just above a bucket boundary γ^k.
        5 => {
            let k = rng.next_below(2_000) as i32 - 1_000;
            GAMMA.powi(k) * [1.0 - 1e-15, 1.0, 1.0 + 1e-15, 1.0 + 1e-9][rng.next_index(4)]
        }
        // Log-uniform over 12–24 decades: more than 1,024 buckets' worth
        // (8.9 decades), so the cheap end collapses.
        6 => 10f64.powf((10.0 + 6.0 * shape) * u - 8.0),
        // Exact zeros, zero-bucket values and a range past the cap.
        _ => match rng.next_below(4) {
            0 => 0.0,
            1 => ZERO_BUCKET * u,
            _ => 10f64.powf(25.0 * u - 6.0),
        },
    }
}

/// The value at the nearest rank of `q` in `sorted`, and that rank.
fn exact(sorted: &[f64], q: f64) -> (u64, f64) {
    let rank = (q * (sorted.len() - 1) as f64).round() as usize;
    (rank as u64, sorted[rank])
}

/// Runs `cases` searched value sets through the sketch's bound; returns
/// how many sets collapsed, how many quantiles were checked and how many
/// of those read past α at a bucket edge.
fn sketch_cases(cases: u64, seed: u64) -> (u64, u64, u64) {
    let qs = [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
    let (mut collapsed_sets, mut checked, mut over_alpha) = (0, 0, 0);
    for case in 0..cases {
        let mut rng = SplitMix64::new(cex_core::rng::sub_seed(seed, case));
        let family = (case % FAMILIES.len() as u64) as usize;
        let shape = 0.3 + 2.0 * rng.next_f64();
        // The two families meant to pass the cap get enough values to.
        let n = match family {
            6 | 7 => [2_000, 5_000][rng.next_index(2)],
            _ => [1, 2, 7, 100, 1_000, 5_000][rng.next_index(6)],
        };
        let values: Vec<f64> = (0..n).map(|_| draw(family, &mut rng, shape)).collect();
        // One sketch pushed, and one merged from two halves split at a
        // random point: the bound holds for both.
        let mut pushed = QuantileSketch::for_latency();
        values.iter().for_each(|&v| pushed.push(v));
        let cut = rng.next_index(n + 1);
        let [mut merged, mut right] = [0, 1].map(|_| QuantileSketch::for_latency());
        values[..cut].iter().for_each(|&v| merged.push(v));
        values[cut..].iter().for_each(|&v| right.push(v));
        merged.merge(&right);
        let mut sorted = values;
        sorted.sort_by(f64::total_cmp);
        collapsed_sets += u64::from(pushed.collapsed() > 0);
        let random_qs: Vec<f64> = (0..8).map(|_| rng.next_f64()).collect();
        for (sketch, how) in [(&pushed, "pushed"), (&merged, "merged")] {
            assert!(sketch.bucket_len() <= MAX_BUCKETS + 1, "case {case}: over the cap");
            for &q in qs.iter().chain(&random_qs) {
                let (rank, value) = exact(&sorted, q);
                if rank < sketch.collapsed() {
                    continue;
                }
                let est = sketch.quantile(q).expect("a non-empty sketch");
                let at = || {
                    format!(
                        "case {case} ({}, n {n}, {how}): q {q}, rank {rank}, exact {value:e}, \
                         estimate {est:e}, collapsed {}",
                        FAMILIES[family],
                        sketch.collapsed()
                    )
                };
                if value <= ZERO_BUCKET {
                    assert_eq!(est, sorted[0], "{}: the zero bucket reads the minimum", at());
                } else {
                    let relative = (est - value).abs() / value;
                    let bound = if at_an_edge(value) {
                        RELATIVE_ERROR + EDGE_EXCESS
                    } else {
                        RELATIVE_ERROR
                    };
                    assert!(relative <= bound, "{}: relative error {relative}", at());
                    over_alpha += u64::from(relative > RELATIVE_ERROR);
                }
                checked += 1;
            }
        }
    }
    (collapsed_sets, checked, over_alpha)
}

#[test]
fn sketch_quantiles_are_within_the_relative_error_of_an_exact_sort() {
    let (collapsed, checked, over_alpha) = sketch_cases(400, 0x5_CE7C);
    // Not vacuous: sets that pass the cap occurred, and every case checked.
    assert!(collapsed > 40, "{collapsed} of 400 sets collapsed the cheap end");
    assert!(checked > 400 * 2 * 12, "{checked} quantiles checked");
    // The finding still stands; once it does not, every estimate can be
    // held to α and `EDGE_EXCESS` can go.
    assert!(over_alpha > 0, "no estimate read past α at a bucket edge");
}

#[test]
#[ignore = "10⁵ cases: run with --release -- --ignored"]
fn sketch_quantiles_are_within_the_relative_error_of_an_exact_sort_long() {
    let (collapsed, _, _) = sketch_cases(100_000, 0x10_CE7C);
    assert!(collapsed > 10_000, "{collapsed} sets collapsed the cheap end");
}
