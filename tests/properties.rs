//! Property-based tests of cross-crate invariants.
//!
//! The container builds fully offline, so instead of the `proptest` crate
//! these properties run on a hand-rolled harness: every case is generated
//! from a [`SplitMix64`] stream, so failures reproduce bit-for-bit from the
//! case index printed in the assertion message.

use bifrost::dsl;
use bifrost::machine::{PhaseOutcome, State, StateMachine};
use bifrost::model::{Action, ChaosSpec, Check, Comparator, Phase, PhaseKind, Strategy};
use cex_core::experiment::ExperimentId;
use cex_core::metrics::MetricKind;
use cex_core::rng::SplitMix64;
use cex_core::simtime::SimDuration;
use fenrir::constraints;
use fenrir::encoding::{self, CrossoverKind};
use fenrir::fitness;
use fenrir::generator::{ProblemGenerator, SampleSizeTier};

/// Runs `body` for `cases` deterministic cases, handing each its own rng.
fn for_cases(cases: u64, master_seed: u64, mut body: impl FnMut(u64, &mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(cex_core::rng::sub_seed(master_seed, case));
        body(case, &mut rng);
    }
}

// ---------------------------------------------------------------------------
// Fenrir invariants
// ---------------------------------------------------------------------------

/// Whatever the GA operators do, raw fitness stays in [0, 1] and the
/// score ordering puts every valid schedule above every invalid one.
#[test]
fn fitness_bounds_hold_under_operators() {
    for_cases(24, 0xF00D, |case, rng| {
        let n = 2 + rng.next_index(6);
        let problem = ProblemGenerator::new(n, SampleSizeTier::Low).generate(rng.next_u64());
        let mut a = encoding::random_schedule(&problem, rng);
        let b = encoding::random_schedule(&problem, rng);
        for _ in 0..5 {
            encoding::mutate(&problem, &mut a, rng);
        }
        let (c1, c2) = encoding::crossover(&a, &b, CrossoverKind::OnePoint, rng);
        for schedule in [&a, &b, &c1, &c2] {
            let report = fitness::evaluate(&problem, schedule);
            assert!((0.0..=1.0).contains(&report.raw), "case {case}: raw {}", report.raw);
            if report.violations == 0 {
                assert!(report.score() >= 1.0, "case {case}");
            } else {
                assert!(report.score() < 1.0, "case {case}");
            }
        }
    });
}

/// Repair never increases the number of violations.
#[test]
fn repair_is_monotone() {
    for_cases(24, 0xBEEF, |case, rng| {
        let n = 2 + rng.next_index(6);
        let problem = ProblemGenerator::new(n, SampleSizeTier::Medium).generate(rng.next_u64());
        let mut schedule = encoding::random_schedule(&problem, rng);
        let before = constraints::check(&problem, &schedule).len();
        encoding::repair(&problem, &mut schedule, rng);
        let after = constraints::check(&problem, &schedule).len();
        assert!(after <= before, "case {case}: repair worsened {before} -> {after}");
    });
}

/// Crossover children only contain genes from their parents.
#[test]
fn crossover_preserves_genes() {
    for_cases(24, 0xC0FE, |case, rng| {
        let n = 2 + rng.next_index(8);
        let problem = ProblemGenerator::new(n, SampleSizeTier::Low).generate(rng.next_u64());
        let a = encoding::random_schedule(&problem, rng);
        let b = encoding::random_schedule(&problem, rng);
        for kind in [CrossoverKind::OnePoint, CrossoverKind::Uniform] {
            let (c1, c2) = encoding::crossover(&a, &b, kind, rng);
            for i in 0..n {
                let id = ExperimentId(i);
                assert!(
                    c1.plan(id) == a.plan(id) || c1.plan(id) == b.plan(id),
                    "case {case} kind {kind:?}"
                );
                assert!(
                    c2.plan(id) == a.plan(id) || c2.plan(id) == b.plan(id),
                    "case {case} kind {kind:?}"
                );
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Bifrost invariants
// ---------------------------------------------------------------------------

fn random_action(phases: usize, rng: &mut SplitMix64) -> Action {
    match rng.next_index(4) {
        0 => Action::Complete,
        1 => Action::Rollback,
        2 => Action::Retry,
        _ => Action::Goto(format!("p{}", rng.next_index(phases))),
    }
}

fn random_chaos(rng: &mut SplitMix64) -> Option<ChaosSpec> {
    use bifrost::model::{ChaosKind, ChaosTarget};
    if rng.next_index(2) == 0 {
        return None;
    }
    // Lexer-friendly magnitudes (plain decimal, no exponent) so the
    // pretty-printed form re-parses exactly.
    let kind = match rng.next_index(3) {
        0 => ChaosKind::Outage,
        1 => ChaosKind::LatencySpike { multiplier: 1.0 + rng.next_index(12) as f64 * 0.25 },
        _ => ChaosKind::ErrorBurst { extra_error_rate: rng.next_index(16) as f64 / 16.0 },
    };
    let target =
        if rng.next_index(2) == 0 { ChaosTarget::Candidate } else { ChaosTarget::Baseline };
    Some(ChaosSpec {
        kind,
        target,
        start_after: SimDuration::from_millis(rng.next_index(30_000) as u64),
        duration: SimDuration::from_millis(1 + rng.next_index(30_000) as u64),
    })
}

fn random_strategy(rng: &mut SplitMix64) -> Strategy {
    let phases = 1 + rng.next_index(4);
    Strategy {
        name: "generated".into(),
        service: "svc".into(),
        baseline: "1.0.0".into(),
        candidate: "2.0.0".into(),
        variant_b: None,
        phases: (0..phases)
            .map(|i| Phase {
                name: format!("p{i}"),
                kind: PhaseKind::Canary { traffic_percent: 10.0 + i as f64 },
                duration: SimDuration::from_mins(1 + i as u64),
                checks: vec![Check::candidate(MetricKind::ErrorRate, Comparator::Lt, 0.1)],
                chaos: random_chaos(rng),
                on_success: random_action(phases, rng),
                on_failure: random_action(phases, rng),
                on_inconclusive: random_action(phases, rng),
            })
            .collect(),
    }
}

/// Every structurally valid strategy round-trips through the DSL.
#[test]
fn dsl_roundtrip() {
    let mut checked = 0;
    for_cases(96, 0xD51, |case, rng| {
        let strategy = random_strategy(rng);
        if strategy.validate().is_err() {
            return;
        }
        checked += 1;
        let source = dsl::to_source(&strategy);
        let reparsed = dsl::parse(&source).expect("pretty-printed source parses");
        assert_eq!(strategy, reparsed, "case {case}");
    });
    assert!(checked >= 24, "only {checked} generated strategies were valid");
}

/// The compiled state machine is total: from every reachable phase, every
/// outcome leads to a valid state, and the start phase is reachable.
#[test]
fn state_machine_totality() {
    let mut checked = 0;
    for_cases(96, 0x57A7E, |case, rng| {
        let strategy = random_strategy(rng);
        if strategy.validate().is_err() {
            return;
        }
        checked += 1;
        let machine = StateMachine::compile(&strategy).expect("valid strategies compile");
        for i in 0..machine.phase_count() {
            for outcome in PhaseOutcome::all() {
                let next = machine.next(State::Phase(i), outcome);
                if let State::Phase(j) = next {
                    assert!(j < machine.phase_count(), "case {case}");
                }
            }
        }
        let reachable = machine.reachable();
        assert!(reachable.contains(&State::Phase(0)), "case {case}");
    });
    assert!(checked >= 24, "only {checked} generated strategies were valid");
}

// ---------------------------------------------------------------------------
// Topology invariants
// ---------------------------------------------------------------------------

use topology::changes::classify;
use topology::diff::{Status, TopologicalDiff};
use topology::perf::{generate_pair, PerfParams};

/// Diff statuses partition the union and classification covers every
/// changed edge exactly once.
#[test]
fn diff_partition_and_classification_cover() {
    for_cases(16, 0xD1FF, |case, rng| {
        let change_fraction = 0.6 * rng.next_f64();
        let seed = rng.next_below(1_000);
        let params = PerfParams { endpoints: 120, change_fraction, ..Default::default() };
        let (baseline, experimental) = generate_pair(&params, seed);
        let diff = TopologicalDiff::compute(&baseline, &experimental);

        let common = diff.nodes_with(Status::Common).count();
        let removed = diff.nodes_with(Status::Removed).count();
        let added = diff.nodes_with(Status::Added).count();
        assert_eq!(common + removed, baseline.node_count(), "case {case}");
        assert_eq!(common + added, experimental.node_count(), "case {case}");

        // Every changed edge maps to exactly one change: composed changes
        // consume one added + one removed edge, fundamental ones a single
        // edge.
        let changes = classify(&diff);
        let added_edges = diff.edges_with(Status::Added).count();
        let removed_edges = diff.edges_with(Status::Removed).count();
        let composed = changes.iter().filter(|c| !c.kind.is_fundamental()).count();
        let fundamental = changes.iter().filter(|c| c.kind.is_fundamental()).count();
        assert_eq!(2 * composed + fundamental, added_edges + removed_edges, "case {case}");
    });
}

/// nDCG of any heuristic ranking stays within [0, 1].
#[test]
fn ndcg_bounds() {
    use topology::heuristics::{self, AnalysisContext};
    use topology::rank::{ndcg_at, rank};
    for_cases(16, 0xDC6, |case, rng| {
        let seed = rng.next_below(1_000);
        let params = PerfParams { endpoints: 120, change_fraction: 0.3, ..Default::default() };
        let (baseline, experimental) = generate_pair(&params, seed);
        let diff = TopologicalDiff::compute(&baseline, &experimental);
        let changes = classify(&diff);
        if changes.is_empty() {
            return;
        }
        let relevance: Vec<f64> = changes.iter().enumerate().map(|(i, _)| (i % 4) as f64).collect();
        let ctx = AnalysisContext { baseline: &baseline, experimental: &experimental, diff: &diff };
        for heuristic in heuristics::all_variants() {
            let ranking = rank(heuristic.as_ref(), &ctx, &changes);
            let ndcg = ndcg_at(&ranking, &relevance, 5);
            assert!(
                (0.0..=1.0 + 1e-9).contains(&ndcg),
                "case {case}: {} -> {ndcg}",
                heuristic.name()
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Microsim invariants
// ---------------------------------------------------------------------------

use microsim::app::{Application, EndpointDef, VersionSpec};
use microsim::latency::LatencyModel;
use microsim::routing::{Router, UserId};

fn split_app(versions: usize) -> Application {
    let mut b = Application::builder();
    for v in 0..versions {
        b.version(
            VersionSpec::new("svc", format!("v{v}"))
                .endpoint(EndpointDef::new("api", LatencyModel::default())),
        );
    }
    b.build().unwrap()
}

/// For any valid weighted split, the empirically observed version shares
/// converge to the configured weights (routing conserves traffic: nothing
/// is dropped or duplicated).
#[test]
fn routing_weights_are_conserved() {
    for_cases(24, 0x4071, |case, rng| {
        let k = 2 + rng.next_index(3);
        let raw: Vec<f64> = (0..k).map(|_| 0.05 + 0.95 * rng.next_f64()).collect();
        let total: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / total).collect();
        let app = split_app(weights.len());
        let svc = app.service_id("svc").unwrap();
        let splits: Vec<_> = weights
            .iter()
            .enumerate()
            .map(|(i, w)| (app.version_id("svc", &format!("v{i}")).unwrap(), *w))
            .collect();
        let mut router = Router::new();
        router.set_split(&app, svc, splits.clone()).unwrap();
        let n = 40_000u64;
        let mut counts = vec![0u64; weights.len()];
        for u in 0..n {
            let v = router.resolve(&app, svc, UserId(u));
            let idx = splits.iter().position(|(s, _)| *s == v).expect("resolved inside split");
            counts[idx] += 1;
        }
        assert_eq!(counts.iter().sum::<u64>(), n, "case {case}: every user routed exactly once");
        for (count, weight) in counts.iter().zip(&weights) {
            let share = *count as f64 / n as f64;
            assert!((share - weight).abs() < 0.02, "case {case}: share {share} vs weight {weight}");
        }
    });
}

/// Monitor window algebra: the summary over [a, c) equals the merge of
/// [a, b) and [b, c) in count and mean.
#[test]
fn monitor_windows_compose() {
    use cex_core::simtime::SimTime;
    use microsim::monitor::MetricStore;
    for_cases(24, 0x3014, |case, rng| {
        let len = 3 + rng.next_index(57);
        let values: Vec<f64> = (0..len).map(|_| 100.0 * rng.next_f64()).collect();
        let cut = (1 + rng.next_index(49)).min(values.len());
        let mut store = MetricStore::new();
        for (i, v) in values.iter().enumerate() {
            store.record_value("s", MetricKind::Throughput, SimTime::from_millis(i as u64), *v);
        }
        let t = |i: usize| SimTime::from_millis(i as u64);
        let whole = store.summary_between("s", MetricKind::Throughput, t(0), t(values.len()));
        let left = store.summary_between("s", MetricKind::Throughput, t(0), t(cut));
        let right = store.summary_between("s", MetricKind::Throughput, t(cut), t(values.len()));
        assert_eq!(whole.count, left.count + right.count, "case {case}");
        let merged_mean =
            (left.mean * left.count as f64 + right.mean * right.count as f64) / whole.count as f64;
        assert!((whole.mean - merged_mean).abs() < 1e-9, "case {case}");
    });
}

/// The store's space follows its samples, not elapsed seconds × series:
/// 64 series at ~0.1 samples/s each for half an hour — a 5–10% canary's
/// share of a 0.75 rps service, four of five one-second buckets empty or
/// more, and never two samples in one — cost at most a raw entry and one
/// one-sample bucket a sample, and a silence costs nothing at all. A raw
/// entry is 5 B while values are whole milliseconds below 256, 12 B once
/// they are not `f32`s; a one-sample bucket is 16 B whatever its value.
#[test]
fn monitor_space_follows_samples() {
    use cex_core::metrics::Sample;
    use cex_core::simtime::SimTime;
    use microsim::monitor::MetricStore;
    const SERIES: u64 = 64;
    const SECONDS: u64 = 1_800;
    // One bucket a sample, holding that sample: 8 B of index and an 8-byte
    // cell, with no 40-byte aggregate beside them.
    const BUCKET_BYTES: u64 = 16;
    // One scope per series: a slot per metric kind, each under 96 B.
    let slot_table = SERIES * MetricKind::all().len() as u64 * 96;

    // The same draws whatever the silence, which only shifts the second
    // half, and whatever the values' width. A series draws at most one
    // sample a second, so every bucket holds one.
    let fed = |silence_s: u64, whole_ms: bool| {
        let mut store = MetricStore::new();
        let scopes: Vec<_> = (0..SERIES).map(|i| store.intern(&format!("svc-{i}@2.0.0"))).collect();
        let mut rng = SplitMix64::new(0x5ACE);
        for second in 0..SECONDS {
            let shift = if second < SECONDS / 2 { 0 } else { silence_s };
            for &scope in &scopes {
                if rng.next_below(10) == 0 {
                    let ms = (second + shift) * 1_000 + rng.next_below(1_000);
                    let value = 100.0 * rng.next_f64();
                    let value = if whole_ms { value.round() } else { value };
                    store.record_id(
                        scope,
                        MetricKind::ResponseTime,
                        Sample::new(SimTime::from_millis(ms), value),
                    );
                }
            }
        }
        store
    };

    // A raw entry: a 4-byte time and a 1-byte value in a series whose
    // values are all integers in 0..=255, or an 8-byte one in a series
    // whose values are not all `f32`s. Whole milliseconds below 256 cost
    // 21 B a sample, 5 raw, 8 index and 8 cell; other values 28.
    for (whole_ms, raw_bytes) in [(true, 5), (false, 12)] {
        let store = fed(0, whole_ms);
        let (samples, bytes) = (store.total_recorded(), store.state_bytes() as u64);
        assert!((10_000..13_000).contains(&samples), "~0.1 samples/s a series: {samples}");
        assert!(
            bytes <= (raw_bytes + BUCKET_BYTES) * samples + slot_table,
            "{bytes} B for {samples} samples: {:.1} B a sample",
            bytes as f64 / samples as f64
        );
        let silent = fed(1_000_000, whole_ms);
        assert_eq!(silent.total_recorded(), samples);
        assert_eq!(silent.state_bytes() as u64, bytes, "10⁶ s of silence halfway costs nothing");
    }
}

// ---------------------------------------------------------------------------
// Statistics invariants
// ---------------------------------------------------------------------------

/// The Student-t CDF is a CDF: monotone, symmetric, bounded.
#[test]
fn t_cdf_is_a_cdf() {
    use cex_core::stats::student_t_cdf;
    for_cases(48, 0x7CDF, |case, rng| {
        let df = 1.0 + 199.0 * rng.next_f64();
        let a = -6.0 + 12.0 * rng.next_f64();
        let b = -6.0 + 12.0 * rng.next_f64();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cl = student_t_cdf(lo, df);
        let ch = student_t_cdf(hi, df);
        assert!((0.0..=1.0).contains(&cl), "case {case}");
        assert!((0.0..=1.0).contains(&ch), "case {case}");
        assert!(cl <= ch + 1e-12, "case {case}: monotone F({lo})={cl} F({hi})={ch}");
        let sym = student_t_cdf(lo, df) + student_t_cdf(-lo, df);
        assert!((sym - 1.0).abs() < 1e-9, "case {case}: symmetry at {lo}: {sym}");
    });
}

/// A latency's sketch bucket is `ceil(ln v / ln γ)`, the expression the
/// sketch's docs state, whether the sketch looks the key up (whole values
/// below 4096) or computes it: read back from `encode()`, whose first
/// bucket follows a 48-byte header.
#[test]
fn sketch_keys_follow_the_ln_expression() {
    use cex_core::sketch::{QuantileSketch, RELATIVE_ERROR};
    let gamma = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);
    let expected = |v: f64| (v.ln() * (1.0 / gamma.ln())).ceil() as i32;
    let key = |v: f64| {
        let mut sketch = QuantileSketch::for_latency();
        sketch.push(v);
        i32::from_le_bytes(sketch.encode()[48..52].try_into().unwrap())
    };
    let mut values: Vec<f64> = (1..4_096).map(f64::from).collect();
    values.extend([4_095.5, 4_096.0, 4_294_967_295.0, 4_294_967_296.0, 9_007_199_254_740_992.0]);
    for_cases(4_000, 0x5EE7, |_, rng| {
        values.push(match rng.next_index(3) {
            0 => rng.next_f64() * 4_096.0,
            1 => f64::from(1 + rng.next_index(4_095) as u32) + 0.25,
            _ => 10f64.powf(rng.next_f64() * 16.0 - 6.0),
        })
    });
    for v in values {
        assert_eq!(key(v), expected(v), "{v}");
    }
}

/// The sketch's canonical bytes, pinned across commits: whole and
/// fractional milliseconds, zeros, and values over fifteen decades (about
/// 1,700 keys at 1%, so the 1,024-bucket cap collapses) folded into eight
/// shards, merged left to right and as a balanced tree. Both groupings
/// must encode alike, and the FNV-1a of that encoding must equal the
/// constant below, so a change to the key expression, the cap, the
/// collapse or the encoding's layout fails here.
#[test]
fn sketch_encoding_is_pinned() {
    use cex_core::sketch::QuantileSketch;
    let mut shards: Vec<QuantileSketch> = (0..8).map(|_| QuantileSketch::for_latency()).collect();
    for_cases(20_000, 0xD15C, |case, rng| {
        let value = match rng.next_index(4) {
            0 => rng.next_index(4_096) as f64,
            1 => rng.next_f64() * 500.0,
            2 => 0.0,
            _ => 10f64.powf(rng.next_f64() * 15.0 - 6.0),
        };
        shards[case as usize % 8].push_weighted(value, 1 + rng.next_below(3));
    });
    let mut left = QuantileSketch::for_latency();
    shards.iter().for_each(|s| left.merge(s));
    while shards.len() > 1 {
        let odd = shards.split_off(shards.len() / 2);
        shards.iter_mut().zip(&odd).for_each(|(a, b)| a.merge(b));
    }
    let bytes = left.encode();
    assert_eq!(bytes, shards[0].encode(), "merge grouping reaches the bytes");
    assert!(left.collapsed() > 0, "the cap collapsed");
    let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(fnv, 0xf315_3860_667d_37ef, "encode() bytes moved: {fnv:#018x}");
}

/// Welch p-values are complementary and bounded for any sane summaries.
#[test]
fn welch_p_values_bounded() {
    use cex_core::metrics::Summary;
    use cex_core::stats::welch_test;
    for_cases(48, 0x3E1C, |case, rng| {
        let m1 = -100.0 + 200.0 * rng.next_f64();
        let m2 = -100.0 + 200.0 * rng.next_f64();
        let s1 = 0.01 + 49.99 * rng.next_f64();
        let s2 = 0.01 + 49.99 * rng.next_f64();
        let n1 = 2 + rng.next_below(4_998);
        let n2 = 2 + rng.next_below(4_998);
        let a = Summary { count: n1, mean: m1, std_dev: s1, min: m1 - s1, max: m1 + s1 };
        let b = Summary { count: n2, mean: m2, std_dev: s2, min: m2 - s2, max: m2 + s2 };
        let test = welch_test(&a, &b).expect("n >= 2 on both sides");
        assert!((0.0..=1.0).contains(&test.p_greater), "case {case}");
        assert!((0.0..=1.0).contains(&test.p_less), "case {case}");
        assert!((test.p_greater + test.p_less - 1.0).abs() < 1e-9, "case {case}");
        assert!(test.df >= 1.0, "case {case}");
        if m1 > m2 {
            assert!(test.t > 0.0, "case {case}");
        }
    });
}

// ---------------------------------------------------------------------------
// Greedy scheduling invariants
// ---------------------------------------------------------------------------

/// Greedy construction is valid on low-tier instances of any size.
#[test]
fn greedy_valid_on_low_tier() {
    use fenrir::greedy::greedy_schedule;
    for_cases(12, 0x62EE, |case, rng| {
        let n = 2 + rng.next_index(18);
        let seed = rng.next_below(500);
        let problem = ProblemGenerator::new(n, SampleSizeTier::Low).generate(seed);
        let schedule = greedy_schedule(&problem);
        let violations = constraints::check(&problem, &schedule);
        assert!(violations.is_empty(), "case {case}: {violations:?}");
    });
}
