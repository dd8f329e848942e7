//! Telemetry hot-path benchmark: million-request ingestion through the
//! case-study application, plus head-to-head comparisons against the
//! pre-PR metric store.
//!
//! Five measurements, the first three mirroring the store's three claims:
//!
//! 1. **End-to-end ingestion** — drives ≥1M requests through the
//!    case-study app (Figure 4.5) and reports sample throughput and the
//!    peak raw samples held under a 5-minute retention horizon.
//! 2. **Ingest micro-comparison** — replays an identical per-hop sample
//!    stream into an inline replica of the pre-PR store (one global
//!    `RwLock<HashMap<(String, MetricKind), Vec<Sample>>>`, a `String`
//!    allocation per record) and into the interned/dense-slot/batched
//!    store. Acceptance: ≥5× throughput.
//! 3. **Window-query flatness** — series of 10^4..10^6 samples spread
//!    over a fixed 100-minute span; a 10-minute `window_summary` (600
//!    one-second buckets) must stay flat (within 2×) as the series
//!    grows, since its cost is
//!    proportional to buckets-in-window, not samples-in-window. The
//!    pre-PR store is measured alongside for contrast. Each timed look
//!    ends one bucket earlier than the last, so every one folds: a series
//!    remembers its last window's answer, and a repeated look would time
//!    that instead. At 10^5 samples two more rows: a paired read of two
//!    series against two single reads of the same two, and the repeated
//!    look itself (a remembered answer).
//!
//! 4. **Cumulative-window resumption** — a window that starts at a fixed
//!    time and grows (what a sequential check reads since phase start):
//!    one look from scratch against one look continued from the previous
//!    look's [`WindowCursor`] ten buckets earlier, at 60 / 600 / 1,200
//!    one-second buckets. From scratch grows with the window; resumed
//!    must not. The looks from scratch step back one bucket per call over
//!    the last ten; a resumed look is never remembered, so it repeats.
//! 5. **Moving average** — one Figure 4.6-shaped sweep (3 s window,
//!    500 ms step, one minute) over 10^6 samples.
//!
//! Writes `results/BENCH_metrics.json`. With `--smoke [--out PATH]` it
//! runs a reduced, timing-free variant whose JSON contains only
//! deterministic fields — CI runs it twice and diffs the outputs.

use cex_bench::{smoke_args, write_bench_json};
use cex_core::metrics::{MetricKind, OnlineStats, Sample, Summary};
use cex_core::simtime::{SimDuration, SimTime};
use cex_core::users::Population;
use microsim::monitor::{MetricStore, WindowCursor, BUCKET_WIDTH};
use microsim::sim::{Simulation, APP_SCOPE};
use microsim::topologies::case_study_app;
use microsim::workload::{EntryPoint, Workload};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Inline replica of the pre-PR metric store (commit 35ef0b0): one
/// global lock, string-keyed series, flat sample vectors, O(window)
/// queries. Kept here so the comparison survives the old code's removal.
#[derive(Default)]
#[allow(clippy::disallowed_types)] // the replica keeps the replaced store's lock: its cost is measured
struct BaselineStore {
    inner: std::sync::RwLock<HashMap<(String, MetricKind), Vec<Sample>>>,
}

impl BaselineStore {
    fn record(&self, scope: &str, metric: MetricKind, sample: Sample) {
        let mut map = self.inner.write().expect("baseline lock poisoned");
        map.entry((scope.to_string(), metric)).or_default().push(sample);
    }

    fn record_value(&self, scope: &str, metric: MetricKind, time: SimTime, value: f64) {
        self.record(scope, metric, Sample::new(time, value));
    }

    fn window_summary(
        &self,
        scope: &str,
        metric: MetricKind,
        now: SimTime,
        window: SimDuration,
    ) -> Summary {
        let from = SimTime::from_millis(now.as_millis().saturating_sub(window.as_millis()));
        let to = now + SimDuration::from_millis(1);
        let map = self.inner.read().expect("baseline lock poisoned");
        let mut acc = OnlineStats::new();
        if let Some(series) = map.get(&(scope.to_string(), metric)) {
            let start = series.partition_point(|s| s.time < from);
            for sample in &series[start..] {
                if sample.time >= to {
                    break;
                }
                acc.push(sample.value);
            }
        }
        acc.summary()
    }
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
    wall_secs: f64,
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

    let start = Instant::now();
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
        wall_secs: start.elapsed().as_secs_f64(),
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

/// Ingest throughput of the pre-PR hot path vs the interned+batched one
/// on an identical per-hop event sequence. Each hop records a response
/// time and an error indicator, as a finished hop does in the request core:
///
/// - pre-PR: `app.version_label(v)` (a `format!` per hop) followed by two
///   `record_value(&label, ..)` calls, each allocating the `String` key
///   and hashing it under the one global lock (commit 35ef0b0);
/// - now: two `SampleBatch::record_value_id` calls against pre-interned
///   `ScopeId`s, flushed in one pass.
///
/// Events are generated inline from a shared xorshift so neither side
/// pays for replaying a large stream buffer; each side takes the best of
/// `reps` passes to damp scheduler noise. Returns (baseline/s, new/s)
/// in samples per second.
fn bench_ingest(hops: u64, reps: usize) -> (f64, f64) {
    let app = case_study_app();
    let n_versions = app.version_count() as u64;
    let hop = |x: &mut u64, i: u64| {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        // Multiply-shift range reduction: cheaper than `%` by a runtime
        // divisor, and the generator cost is shared by both timed loops.
        let v = ((*x as u128 * n_versions as u128) >> 64) as usize;
        let version = microsim::app::VersionId(v);
        let time = SimTime::from_millis(i / 10);
        let response_ms = (*x % 97) as f64;
        let err = if *x & 0xF8 == 0 { 1.0 } else { 0.0 };
        (version, time, response_ms, err)
    };

    let mut base_rate = 0.0f64;
    for _ in 0..reps {
        let baseline = BaselineStore::default();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let start = Instant::now();
        for i in 0..hops {
            let (version, time, response_ms, err) = hop(&mut x, i);
            let scope = app.version_label(version);
            baseline.record_value(&scope, MetricKind::ResponseTime, time, response_ms);
            baseline.record_value(&scope, MetricKind::ErrorRate, time, err);
        }
        base_rate = base_rate.max(2.0 * hops as f64 / start.elapsed().as_secs_f64());
    }

    let mut new_rate = 0.0f64;
    for _ in 0..reps {
        let mut store = MetricStore::new();
        let version_scopes = store.intern_version_scopes(&app);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let start = Instant::now();
        let mut batch = store.batch();
        for i in 0..hops {
            let (version, time, response_ms, err) = hop(&mut x, i);
            let id = version_scopes[version.0];
            batch.record_value_id(id, MetricKind::ResponseTime, time, response_ms);
            batch.record_value_id(id, MetricKind::ErrorRate, time, err);
        }
        drop(batch);
        new_rate = new_rate.max(2.0 * hops as f64 / start.elapsed().as_secs_f64());
        assert_eq!(store.total_recorded(), 2 * hops, "hot path must ingest every sample");
    }
    (base_rate, new_rate)
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
/// tail. Returns ns/query for (new store, baseline store).
fn bench_window_query(n: u64) -> (f64, f64) {
    let mut store = MetricStore::new();
    let metric = MetricKind::ResponseTime;
    let samples = fill_span(&mut store, "svc@1", metric, n);
    let scope = store.resolve("svc@1").expect("interned above");
    let baseline = BaselineStore::default();
    for &sample in &samples {
        baseline.record("svc@1", metric, sample);
    }
    let window = LOOK_WINDOW;

    let new_ns = time_queries(2_000, |i| {
        store.window_summary_id(scope, metric, stepped_look(i), window).count
    });
    let base_ns = time_queries(200, |i| {
        baseline.window_summary("svc@1", metric, stepped_look(i), window).count
    });
    (new_ns, base_ns)
}

/// Two series of `n` samples each (response time and error rate of one
/// scope), looks stepped as in [`bench_window_query`]: ns per
/// look at both for (one paired read, two single reads), then ns for one
/// single look repeated at the same `now` — after the first, the series'
/// remembered answer.
fn bench_window_pair(n: u64) -> (f64, f64, f64) {
    let mut store = MetricStore::new();
    let (rt, err) = (MetricKind::ResponseTime, MetricKind::ErrorRate);
    fill_span(&mut store, "svc@1", rt, n);
    fill_span(&mut store, "svc@1", err, n);
    let scope = store.resolve("svc@1").expect("interned above");
    let window = LOOK_WINDOW;
    let now = stepped_look(0);
    let pair = store.window_summary_pair((scope, rt), (scope, err), now, window);
    let singles = [rt, err].map(|m| store.window_summary_id(scope, m, now, window));
    assert_eq!(pair, singles, "a paired read reads what two single reads do");

    let pair_ns = time_queries(2_000, |i| {
        let [a, b] = store.window_summary_pair((scope, rt), (scope, err), stepped_look(i), window);
        a.count + b.count
    });
    let singles_ns = time_queries(2_000, |i| {
        let look = |metric| store.window_summary_id(scope, metric, stepped_look(i), window);
        look(rt).count + look(err).count
    });
    let repeat_ns = time_queries(20_000, |_| store.window_summary_id(scope, rt, now, window).count);
    (pair_ns, singles_ns, repeat_ns)
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

/// One [`MetricStore::moving_average`] sweep of Figure 4.6's shape — a 3 s
/// window stepped every 500 ms over the last minute — on a series of 10^6
/// samples at ten per simulated millisecond (one-second buckets). Returns
/// ns per sweep.
fn bench_moving_average() -> f64 {
    let mut store = MetricStore::new();
    let scope = store.intern("svc@1");
    let metric = MetricKind::ResponseTime;
    for i in 0..1_000_000u64 {
        store.record_id(scope, metric, Sample::new(SimTime::from_millis(i / 10), (i % 97) as f64));
    }
    let (start, end) = (SimTime::from_secs(40), SimTime::from_secs(100));
    let (window, step) = (SimDuration::from_secs(3), SimDuration::from_millis(500));
    time_queries(200, |_| {
        store.moving_average("svc@1", metric, start, end, window, step).len() as u64
    })
}

/// Reduced deterministic run for CI: no timings in the JSON, so two
/// invocations must produce byte-identical files.
fn run_smoke(out: &str) {
    let sim = run_sim(120, 300.0);
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

    let mut json = String::new();
    let _ = writeln!(json, "  \"requests\": {},", sim.requests);
    let _ = writeln!(json, "  \"failures\": {},", sim.failures);
    let _ = writeln!(json, "  \"samples_recorded\": {},", sim.samples_recorded);
    let _ = writeln!(json, "  \"peak_stored_samples\": {},", sim.peak_stored);
    let _ = writeln!(json, "  \"store_state_bytes\": {},", sim.state_bytes);
    let _ = writeln!(
        json,
        "  \"state_bytes_per_recorded_sample\": {:.6},",
        sim.state_bytes_per_recorded_sample()
    );
    let _ = writeln!(json, "  \"app_response_count\": {},", sim.response_count);
    let _ = writeln!(json, "  \"app_response_mean\": {:.9},", sim.response_mean);
    let _ = writeln!(json, "  \"synthetic_recorded\": {},", store.total_recorded());
    let _ = writeln!(json, "  \"synthetic_window_count\": {},", summary.count);
    let _ = writeln!(json, "  \"synthetic_window_mean\": {:.9}", summary.mean);
    write_bench_json(out, "metric_hotpath_smoke", &json);
}

fn run_full() {
    println!("=== Telemetry hot path: million-request benchmark ===");

    // 1. End-to-end: 1,700 simulated seconds at 600 rps ≈ 1.02M requests.
    let sim = run_sim(1_700, 600.0);
    assert!(sim.requests >= 1_000_000, "must drive at least one million requests");
    let ingest_rate = sim.samples_recorded as f64 / sim.wall_secs;
    println!(
        "sim: {} requests, {} samples in {:.1}s wall ({:.0} samples/s), peak stored {}",
        sim.requests, sim.samples_recorded, sim.wall_secs, ingest_rate, sim.peak_stored
    );

    // 2. Ingest comparison: 1M hops = 2M samples per pass, best of 3.
    let (base_rate, new_rate) = bench_ingest(1_000_000, 3);
    let speedup = new_rate / base_rate;
    println!(
        "ingest: baseline {base_rate:.0}/s, interned+batched {new_rate:.0}/s ({speedup:.1}x, acceptance >= 5x)"
    );

    // 3. Window-query latency vs series length.
    let lengths = [10_000u64, 100_000, 1_000_000];
    let mut rows = Vec::new();
    for &n in &lengths {
        let (new_ns, base_ns) = bench_window_query(n);
        println!(
            "window_summary @ {n:>9} samples: new {new_ns:>9.0} ns, baseline {base_ns:>11.0} ns"
        );
        rows.push((n, new_ns, base_ns));
    }
    let new_min = rows.iter().map(|r| r.1).fold(f64::INFINITY, f64::min);
    let new_max = rows.iter().map(|r| r.1).fold(0.0f64, f64::max);
    let flatness = new_max / new_min;
    println!("window-query flatness 10^4 -> 10^6: {flatness:.2}x (acceptance: within 2x)");
    let pair_len = 100_000;
    let (pair_ns, singles_ns, repeat_ns) = bench_window_pair(pair_len);
    println!(
        "window pair @ {pair_len} samples: paired {pair_ns:.0} ns, two single reads {singles_ns:.0} ns; repeated look {repeat_ns:.0} ns"
    );

    // 4. Cumulative window: one look from scratch vs resumed.
    let mut cumulative = Vec::new();
    for buckets in [60u64, 600, 1_200] {
        let (fresh_ns, resumed_ns) = bench_cumulative_window(buckets);
        println!(
            "cumulative window @ {buckets:>5} buckets: from scratch {fresh_ns:>7.0} ns, resumed {resumed_ns:>5.0} ns"
        );
        cumulative.push((buckets, fresh_ns, resumed_ns));
    }

    // 5. A moving-average sweep.
    let sweep_ns = bench_moving_average();
    println!("moving_average (1m span, 3s window, 500ms step, 10^6 samples): {sweep_ns:.0} ns");

    let mut json = String::from("  \"sim\": {\n");
    let _ = writeln!(json, "    \"requests\": {},", sim.requests);
    let _ = writeln!(json, "    \"samples_recorded\": {},", sim.samples_recorded);
    let _ = writeln!(json, "    \"peak_stored_samples\": {},", sim.peak_stored);
    let _ = writeln!(json, "    \"store_state_bytes\": {},", sim.state_bytes);
    let _ = writeln!(
        json,
        "    \"state_bytes_per_recorded_sample\": {:.6},",
        sim.state_bytes_per_recorded_sample()
    );
    let _ = writeln!(json, "    \"retention\": \"5m\",");
    let _ = writeln!(json, "    \"wall_secs\": {:.2},", sim.wall_secs);
    let _ = writeln!(json, "    \"ingest_samples_per_sec\": {ingest_rate:.0}");
    json.push_str("  },\n  \"ingest_vs_baseline\": {\n");
    let _ = writeln!(json, "    \"samples_per_pass\": 2000000,");
    let _ = writeln!(json, "    \"best_of\": 3,");
    let _ = writeln!(json, "    \"baseline_samples_per_sec\": {base_rate:.0},");
    let _ = writeln!(json, "    \"new_samples_per_sec\": {new_rate:.0},");
    let _ = writeln!(json, "    \"speedup\": {speedup:.2},");
    let _ = writeln!(json, "    \"acceptance_min_speedup\": 5.0");
    json.push_str("  },\n  \"window_query_ns\": [\n");
    for (i, (n, new_ns, base_ns)) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"series_len\": {n}, \"new_ns\": {new_ns:.0}, \"baseline_ns\": {base_ns:.0}}}{}",
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"window_pair_ns\": {{\"series_len\": {pair_len}, \"pair_ns\": {pair_ns:.0}, \"two_singles_ns\": {singles_ns:.0}}},"
    );
    let _ = writeln!(
        json,
        "  \"window_repeat_ns\": {{\"series_len\": {pair_len}, \"repeat_ns\": {repeat_ns:.0}}},"
    );
    let _ = writeln!(json, "  \"window_query_flatness\": {flatness:.2},");
    let _ = writeln!(json, "  \"acceptance_max_flatness\": 2.0,");
    json.push_str("  \"cumulative_window_ns\": [\n");
    for (i, (buckets, fresh_ns, resumed_ns)) in cumulative.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"buckets\": {buckets}, \"fresh_ns\": {fresh_ns:.0}, \"resumed_ns\": {resumed_ns:.0}}}{}",
            if i + 1 < cumulative.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"moving_average_ns\": {{\"series_len\": 1000000, \"span_s\": 60, \"window_ms\": 3000, \"step_ms\": 500, \"sweep_ns\": {sweep_ns:.0}}}"
    );
    write_bench_json("results/BENCH_metrics.json", "metric_hotpath", &json);

    assert!(speedup >= 5.0, "ingestion speedup {speedup:.2}x below the 5x acceptance bar");
    assert!(flatness <= 2.0, "window-query flatness {flatness:.2}x exceeds the 2x acceptance bar");
    println!("PASS: all acceptance criteria met");
}

fn main() {
    let (smoke, out) = smoke_args("results/BENCH_metrics_smoke.json");
    if smoke {
        run_smoke(&out);
    } else {
        run_full();
    }
}
