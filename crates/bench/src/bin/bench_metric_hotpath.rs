//! Telemetry hot-path benchmark: the metric store's accounting over a
//! million requests through the case-study application, and the cost of
//! a window read against a scan of the raw samples.
//!
//! Stdout holds what the seeds decide, which `scripts/check_results.sh`
//! diffs against `results/bench_metric_hotpath.txt`: for a ≥1M-request
//! run and a reduced two-minute run of the case-study app (Figure 4.5)
//! under a 5-minute retention horizon, the requests, samples recorded,
//! peak samples held and [`MetricStore::state_bytes`]; for the reduced
//! run also a synthetic 10⁵-sample stream's window.
//!
//! Stderr holds the window-read timings:
//!
//! 1. **Window-query flatness** — series of 10^4..10^6 samples spread
//!    over a fixed 100-minute span; a 10-minute `window_summary` (600
//!    one-second buckets) must stay flat (within 2×) as the series
//!    grows, since its cost is proportional to buckets-in-window, not
//!    samples-in-window. A scan of the same samples is timed alongside
//!    for contrast. Each timed look ends one bucket earlier than the
//!    last, so every one folds: a series remembers its last window's
//!    answer, and a repeated look would time that instead. At 10^5
//!    samples one more row: the repeated look itself (a remembered
//!    answer).
//! 2. **Cumulative-window resumption** — a window that starts at a fixed
//!    time and grows (what a sequential check reads since phase start):
//!    one look from scratch against one look continued from the previous
//!    look's [`WindowCursor`] ten buckets earlier, at 60 / 600 / 1,200
//!    one-second buckets. From scratch grows with the window; resumed
//!    must not. The looks from scratch step back one bucket per call over
//!    the last ten; a resumed look is never remembered, so it repeats.

use cex_core::metrics::{MetricKind, OnlineStats, Sample, Summary};
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::monitor::{MetricStore, WindowCursor, BUCKET_WIDTH};
use microsim::sim::{Simulation, APP_SCOPE};
use microsim::topologies::case_study_app;
use microsim::workload::{EntryPoint, Workload};
use std::time::Instant;

/// The window a scan of time-ordered `samples` reads: every sample in
/// `(now - window, now]`, folded in order, as the store's reads are.
fn scan_summary(samples: &[Sample], now: SimTime, window: SimDuration) -> Summary {
    let from = SimTime::from_millis(now.as_millis().saturating_sub(window.as_millis()));
    let start = samples.partition_point(|s| s.time < from);
    let mut acc = OnlineStats::new();
    for sample in &samples[start..] {
        if sample.time > now {
            break;
        }
        acc.push(sample.value);
    }
    acc.summary()
}

/// The workload of the case-study evaluation: all four frontend entry
/// points, weighted like the topology tests.
fn case_study_workload(sim_app: &microsim::app::Application, rate_rps: f64) -> Workload {
    let fe = sim_app.service_id("frontend").expect("frontend exists");
    Workload {
        population: Population::single("all", 100_000),
        rate_rps,
        entries: vec![
            EntryPoint { service: fe, endpoint: "home".into(), weight: 4.0 },
            EntryPoint { service: fe, endpoint: "product".into(), weight: 3.0 },
            EntryPoint { service: fe, endpoint: "checkout".into(), weight: 1.0 },
            EntryPoint { service: fe, endpoint: "search_page".into(), weight: 2.0 },
        ],
        profile: microsim::workload::RateProfile::Constant,
    }
}

struct SimOutcome {
    requests: u64,
    failures: u64,
    samples_recorded: u64,
    peak_stored: usize,
    /// [`MetricStore::state_bytes`] at the end of the run.
    state_bytes: usize,
    response_count: u64,
    response_mean: f64,
}

impl SimOutcome {
    /// Store bytes held at the end per sample ever recorded — exact, like
    /// both of its terms.
    fn state_bytes_per_recorded_sample(&self) -> f64 {
        self.state_bytes as f64 / self.samples_recorded as f64
    }
}

/// Drives the case-study app for `secs` simulated seconds at `rate_rps`
/// with a 5-minute retention horizon (the Bifrost engine's Auto floor).
fn run_sim(secs: u64, rate_rps: f64) -> SimOutcome {
    let app = case_study_app();
    let mut sim = Simulation::new(app, 42);
    sim.set_trace_sampling(0.0);
    sim.store_mut().set_retention(Some(SimDuration::from_mins(5)));
    let workload = case_study_workload(sim.app(), rate_rps);

    let mut requests = 0u64;
    let mut failures = 0u64;
    let mut resp_count = 0u64;
    let mut resp_sum = 0.0f64;
    let mut peak_stored = 0usize;
    // One-minute windows, like the engine tick loop: retention compacts
    // at window boundaries, so peak memory is sampled where it crests.
    let mut remaining = secs;
    while remaining > 0 {
        let chunk = remaining.min(60);
        remaining -= chunk;
        let report = sim.run_with(SimDuration::from_secs(chunk), &workload);
        requests += report.requests;
        failures += report.failures;
        resp_count += report.response_time.count;
        resp_sum += report.response_time.mean * report.response_time.count as f64;
        peak_stored = peak_stored.max(sim.store().total_samples());
    }
    SimOutcome {
        requests,
        failures,
        samples_recorded: sim.store().total_recorded(),
        peak_stored,
        state_bytes: sim.store().state_bytes(),
        response_count: resp_count,
        response_mean: if resp_count > 0 { resp_sum / resp_count as f64 } else { 0.0 },
    }
}

/// Deterministic per-hop sample stream shaped like the simulator's
/// output: version-label scopes, response-time + error-rate kinds,
/// non-decreasing times at ~10 samples per simulated millisecond.
fn synthetic_stream(n: u64) -> (Vec<String>, Vec<(u32, MetricKind, Sample)>) {
    let app = case_study_app();
    let mut labels: Vec<String> = app.versions().map(|(id, _)| app.version_label(id)).collect();
    labels.push(APP_SCOPE.to_string());
    let mut stream = Vec::with_capacity(n as usize);
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..n {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let scope = (x % labels.len() as u64) as u32;
        let kind = if x & 1 == 0 { MetricKind::ResponseTime } else { MetricKind::ErrorRate };
        let sample = Sample::new(SimTime::from_millis(i / 10), (x % 97) as f64);
        stream.push((scope, kind, sample));
    }
    (labels, stream)
}

/// Mean ns per call of a store read over `iters` back-to-back calls;
/// call `i` is `f(i)`, which returns a count to keep the read alive.
fn time_queries(iters: u64, f: impl Fn(u64) -> u64) -> f64 {
    let mut sink = 0u64;
    let start = Instant::now();
    for i in 0..iters {
        sink += f(i);
    }
    std::hint::black_box(sink);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Span the window-query series cover: 6,000 one-second buckets, ten
/// times a look's window.
const SPAN_MS: u64 = 6_000_000;

/// A timed look's window: 600 buckets.
const LOOK_WINDOW: SimDuration = SimDuration::from_mins(10);

/// `n` samples of `metric` spread uniformly over [`SPAN_MS`] under `scope`.
fn fill_span(store: &mut MetricStore, scope: &str, metric: MetricKind, n: u64) -> Vec<Sample> {
    let scope = store.intern(scope);
    let samples: Vec<Sample> = (0..n)
        .map(|i| Sample::new(SimTime::from_millis(i * SPAN_MS / n), (i % 97) as f64))
        .collect();
    for &sample in &samples {
        store.record_id(scope, metric, sample);
    }
    samples
}

/// The `i`-th timed look: at the tail, stepping back one bucket (1 s) per
/// call over the last 600, so that no look repeats the one before.
fn stepped_look(i: u64) -> SimTime {
    SimTime::from_millis(SPAN_MS - (i % 600) * BUCKET_WIDTH.as_millis())
}

/// Window-query latency at a given series length: `n` samples spread
/// uniformly over [`SPAN_MS`], [`LOOK_WINDOW`] summaries queried at the
/// tail. Returns ns/query for (the store, a scan of the samples).
fn bench_window_query(n: u64) -> (f64, f64) {
    let mut store = MetricStore::new();
    let metric = MetricKind::ResponseTime;
    let samples = fill_span(&mut store, "svc@1", metric, n);
    let scope = store.resolve("svc@1").expect("interned above");
    let window = LOOK_WINDOW;

    let store_ns = time_queries(2_000, |i| {
        store.window_summary_id(scope, metric, stepped_look(i), window).count
    });
    let scan_ns = time_queries(200, |i| scan_summary(&samples, stepped_look(i), window).count);
    (store_ns, scan_ns)
}

/// One look at a series of `n` samples, as in [`bench_window_query`],
/// repeated at the same `now`: after the first, the series' remembered
/// answer. Returns ns/look.
fn bench_repeated_look(n: u64) -> f64 {
    let mut store = MetricStore::new();
    let metric = MetricKind::ResponseTime;
    fill_span(&mut store, "svc@1", metric, n);
    let scope = store.resolve("svc@1").expect("interned above");
    let now = stepped_look(0);
    time_queries(20_000, |_| store.window_summary_id(scope, metric, now, LOOK_WINDOW).count)
}

/// One look at a cumulative window of `buckets` one-second buckets (ten
/// samples each), from scratch and continued from the cursor of the look
/// ten seconds before — a sequential check's cadence on `fleet-control`.
/// Returns ns/look for (from scratch, resumed).
fn bench_cumulative_window(buckets: u64) -> (f64, f64) {
    let mut store = MetricStore::new();
    let scope = store.intern("svc@1");
    let metric = MetricKind::ResponseTime;
    for i in 0..=buckets * 10 {
        let sample = Sample::new(SimTime::from_millis(i * 100), (i % 97) as f64);
        store.record_id(scope, metric, sample);
    }
    let window = |now: SimTime| now.saturating_since(SimTime::ZERO);
    let now = SimTime::from_secs(buckets);
    let earlier = SimTime::from_secs(buckets - 10);
    let (_, cursor) =
        store.window_summary_resumed(scope, metric, earlier, window(earlier), &WindowCursor::new());
    let fresh = store.window_summary_id(scope, metric, now, window(now));
    let (resumed, _) = store.window_summary_resumed(scope, metric, now, window(now), &cursor);
    assert_eq!(resumed, fresh, "a resumed look reads what a look from scratch reads");
    assert_eq!(fresh.count, buckets * 10 + 1);

    let back = |i: u64| SimTime::from_secs(buckets - i % 10);
    let fresh_ns = time_queries(20_000, |i| {
        store.window_summary_id(scope, metric, back(i), window(back(i))).count
    });
    let resumed_ns = time_queries(20_000, |_| {
        store.window_summary_resumed(scope, metric, now, window(now), &cursor).0.count
    });
    (fresh_ns, resumed_ns)
}

/// Prints one case-study run's accounting.
fn print_sim(label: &str, sim: &SimOutcome) {
    println!(
        "{label}: {} requests, {} failures; {} samples recorded, peak {} stored; \
         store {} bytes, {:.6} per recorded sample",
        sim.requests,
        sim.failures,
        sim.samples_recorded,
        sim.peak_stored,
        sim.state_bytes,
        sim.state_bytes_per_recorded_sample()
    );
    println!(
        "{label}: app response time over {} responses, mean {:.9} ms",
        sim.response_count, sim.response_mean
    );
}

fn main() {
    println!("=== Telemetry hot path: store accounting, retention 5m ===");
    // 1,700 simulated seconds at 600 rps ≈ 1.03M requests.
    let sim = run_sim(1_700, 600.0);
    assert!(sim.requests >= 1_000_000, "must drive at least one million requests");
    print_sim("1700 s at 600 rps", &sim);
    print_sim("120 s at 300 rps", &run_sim(120, 300.0));

    let (labels, stream) = synthetic_stream(100_000);
    let mut store = MetricStore::new();
    let ids: Vec<_> = labels.iter().map(|l| store.intern(l)).collect();
    let mut batch = store.batch();
    for (scope, kind, sample) in &stream {
        batch.record_id(ids[*scope as usize], *kind, *sample);
    }
    drop(batch);
    let summary = store.window_summary(
        &labels[0],
        MetricKind::ResponseTime,
        SimTime::from_secs(10),
        SimDuration::from_secs(60),
    );
    println!(
        "synthetic stream: {} recorded; 60 s window at 10 s: {} samples, mean {:.9}",
        store.total_recorded(),
        summary.count,
        summary.mean
    );

    // Window-query latency vs series length.
    let mut rows = Vec::new();
    for n in [10_000u64, 100_000, 1_000_000] {
        let (store_ns, scan_ns) = bench_window_query(n);
        eprintln!(
            "window_summary @ {n:>9} samples: store {store_ns:>9.0} ns, scan {scan_ns:>11.0} ns"
        );
        rows.push(store_ns);
    }
    let flatness = rows.iter().copied().fold(0.0f64, f64::max)
        / rows.iter().copied().fold(f64::INFINITY, f64::min);
    eprintln!("window-query flatness 10^4 -> 10^6: {flatness:.2}x (acceptance: within 2x)");
    let repeat_len = 100_000;
    let repeat_ns = bench_repeated_look(repeat_len);
    eprintln!("repeated look @ {repeat_len} samples: {repeat_ns:.0} ns (a remembered answer)");

    // Cumulative window: one look from scratch vs resumed.
    for buckets in [60u64, 600, 1_200] {
        let (fresh_ns, resumed_ns) = bench_cumulative_window(buckets);
        eprintln!(
            "cumulative window @ {buckets:>5} buckets: from scratch {fresh_ns:>7.0} ns, \
             resumed {resumed_ns:>5.0} ns"
        );
    }
    assert!(flatness <= 2.0, "window-query flatness {flatness:.2}x exceeds the 2x acceptance bar");
}
