//! Micro-benchmarks for the telemetry hot path: `record`,
//! `window_summary`, and `moving_average`.
//!
//! Criterion is not vendored in this environment, so this is a
//! hand-rolled `harness = false` benchmark: each case is warmed up, then
//! timed over several repeats, and the median per-op cost is reported.
//! Run via `cargo bench --workspace` (or `cargo bench -p cex-bench`).
//! For the end-to-end million-request comparison against the pre-PR
//! store, see `src/bin/bench_metric_hotpath.rs`.

use cex_core::metrics::{MetricKind, Sample};
use cex_core::simtime::{SimDuration, SimTime};
use microsim::monitor::MetricStore;
use std::hint::black_box;
use std::time::Instant;

/// Timing repeats per case; the median is reported.
const REPEATS: usize = 5;

/// Times `iters` invocations of `f` and returns nanoseconds per op,
/// taking the median over [`REPEATS`] runs (after one warm-up run).
fn time_per_op<F: FnMut()>(iters: u64, mut f: F) -> f64 {
    let mut run = || {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    run(); // warm-up
    let mut samples: Vec<f64> = (0..REPEATS).map(|_| run()).collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    samples[samples.len() / 2]
}

fn report(name: &str, ns_per_op: f64) {
    let ops_per_s = 1e9 / ns_per_op;
    println!("{name:<44} {ns_per_op:>10.1} ns/op  {ops_per_s:>12.0} ops/s");
}

/// A store pre-filled with `n` response-time samples at 10 per
/// simulated millisecond, so windowed queries have realistic density.
fn filled_store(n: u64) -> (MetricStore, SimTime) {
    let mut store = MetricStore::new();
    let scope = store.intern("svc@1");
    for i in 0..n {
        store.record_id(
            scope,
            MetricKind::ResponseTime,
            Sample::new(SimTime::from_millis(i / 10), (i % 97) as f64),
        );
    }
    (store, SimTime::from_millis(n / 10))
}

fn bench_record() {
    let mut store = MetricStore::new();
    let scopes: Vec<_> = (0..8).map(|i| store.intern(&format!("svc{i}@1"))).collect();
    let mut i = 0u64;
    let ns = time_per_op(400_000, || {
        let scope = scopes[(i % 8) as usize];
        store.record_id(
            scope,
            MetricKind::ResponseTime,
            Sample::new(SimTime::from_millis(i / 10), (i % 97) as f64),
        );
        i += 1;
    });
    report("record_id (direct, 8 scopes)", ns);

    let mut i = 0u64;
    let mut batch = store.batch();
    let ns = time_per_op(400_000, || {
        let scope = scopes[(i % 8) as usize];
        batch.record_id(
            scope,
            MetricKind::ResponseTime,
            Sample::new(SimTime::from_millis(i / 10), (i % 97) as f64),
        );
        i += 1;
    });
    drop(batch);
    report("record_id (batched, 8 scopes)", ns);

    let mut i = 0u64;
    let ns = time_per_op(200_000, || {
        store.record_value(
            "svc0@1",
            MetricKind::ResponseTime,
            SimTime::from_millis(i / 10),
            (i % 97) as f64,
        );
        i += 1;
    });
    report("record_value (string scope)", ns);
}

fn bench_window_summary() {
    for n in [10_000u64, 1_000_000] {
        let (store, now) = filled_store(n);
        let scope = store.resolve("svc@1").expect("interned above");
        let window = SimDuration::from_secs(60);
        // Each look ends a millisecond before the last, so every one folds:
        // a repeated look would be served by the series' remembered answer.
        let mut i = 0u64;
        let ns = time_per_op(2_000, || {
            i += 1;
            let look = SimTime::from_millis(now.as_millis() - i % 500);
            black_box(store.window_summary_id(
                black_box(scope),
                MetricKind::ResponseTime,
                look,
                window,
            ));
        });
        report(&format!("window_summary (1m window, {n} samples)"), ns);
    }
}

fn bench_moving_average() {
    let (store, now) = filled_store(1_000_000);
    let window = SimDuration::from_secs(3);
    let step = SimDuration::from_millis(500);
    let start = SimTime::from_millis(now.as_millis().saturating_sub(60_000));
    let ns = time_per_op(200, || {
        black_box(store.moving_average(
            "svc@1",
            MetricKind::ResponseTime,
            start,
            now,
            window,
            step,
        ));
    });
    report("moving_average (1m span, 3s window, 500ms)", ns);
}

fn main() {
    // Cargo's libtest-style flags (--bench, --test, filters) are accepted
    // and ignored, except --help and the standard quick-exit probe.
    if std::env::args().any(|a| a == "--help") {
        println!("hand-rolled benchmark; runs all cases, no options");
        return;
    }
    println!("metric hot path micro-benchmarks (median of {REPEATS} runs)");
    bench_record();
    bench_window_summary();
    bench_moving_average();
}
