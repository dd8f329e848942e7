//! Metrics: kinds, samples, and streaming summary statistics.
//!
//! The empirical study (Section 2.6) distinguishes *application and
//! infrastructure metrics* (response time, error rate, CPU utilization)
//! used by regression-driven experiments from *business metrics*
//! (conversion rate, revenue) used by business-driven experiments.
//! [`MetricKind`] encodes this taxonomy; [`OnlineStats`] and [`Summary`]
//! provide the numerically stable aggregation Bifrost checks and the
//! topology heuristics rely on.

use crate::json::{Json, ObjectWriter};
use crate::simtime::SimTime;
use std::fmt;

/// The metric taxonomy from the empirical study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetricKind {
    /// End-to-end or per-hop response time in milliseconds.
    ResponseTime,
    /// Fraction of failed requests in `0.0..=1.0`.
    ErrorRate,
    /// Requests per second.
    Throughput,
    /// Simulated CPU utilization of a component in `0.0..=1.0`.
    CpuUtilization,
    /// Business conversion rate in `0.0..=1.0` (business-driven experiments).
    ConversionRate,
    /// Generic revenue-per-user business metric.
    RevenuePerUser,
    /// Attempts whose callee exceeded the caller's attempt timeout
    /// (resilience layer; one sample of `1.0` per timed-out attempt).
    Timeout,
    /// Retry attempts issued after a failed or timed-out attempt
    /// (resilience layer; one sample of `1.0` per retry).
    Retry,
    /// Circuit-breaker transitions into the open state (resilience
    /// layer; one sample of `1.0` per opening).
    BreakerOpen,
    /// Calls shed without execution because the breaker was open
    /// (resilience layer; one sample of `1.0` per shed call).
    Shed,
    /// Calls answered by the degraded fallback instead of the callee
    /// (resilience layer; one sample of `1.0` per fallback response).
    FallbackServed,
    /// Milliseconds a request spent waiting in a service's admission
    /// queue before a concurrency slot freed up (event-driven core; one
    /// sample per delayed admission).
    QueueDelay,
}

impl MetricKind {
    /// `true` for application/infrastructure metrics used by
    /// regression-driven experiments.
    pub fn is_technical(self) -> bool {
        !matches!(self, MetricKind::ConversionRate | MetricKind::RevenuePerUser)
    }

    /// `true` for business metrics used by business-driven experiments.
    pub fn is_business(self) -> bool {
        !self.is_technical()
    }

    /// `true` when smaller values are better (e.g. response time), which
    /// determines the polarity of health checks.
    pub fn lower_is_better(self) -> bool {
        matches!(
            self,
            MetricKind::ResponseTime
                | MetricKind::ErrorRate
                | MetricKind::CpuUtilization
                | MetricKind::Timeout
                | MetricKind::Retry
                | MetricKind::BreakerOpen
                | MetricKind::Shed
                | MetricKind::FallbackServed
                | MetricKind::QueueDelay
        )
    }

    /// Canonical lowercase name, also used by the Bifrost DSL.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::ResponseTime => "response_time",
            MetricKind::ErrorRate => "error_rate",
            MetricKind::Throughput => "throughput",
            MetricKind::CpuUtilization => "cpu_utilization",
            MetricKind::ConversionRate => "conversion_rate",
            MetricKind::RevenuePerUser => "revenue_per_user",
            MetricKind::Timeout => "timeout",
            MetricKind::Retry => "retry",
            MetricKind::BreakerOpen => "breaker_open",
            MetricKind::Shed => "shed",
            MetricKind::FallbackServed => "fallback_served",
            MetricKind::QueueDelay => "queue_delay",
        }
    }

    /// Parses the canonical name produced by [`MetricKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "response_time" => MetricKind::ResponseTime,
            "error_rate" => MetricKind::ErrorRate,
            "throughput" => MetricKind::Throughput,
            "cpu_utilization" => MetricKind::CpuUtilization,
            "conversion_rate" => MetricKind::ConversionRate,
            "revenue_per_user" => MetricKind::RevenuePerUser,
            "timeout" => MetricKind::Timeout,
            "retry" => MetricKind::Retry,
            "breaker_open" => MetricKind::BreakerOpen,
            "shed" => MetricKind::Shed,
            "fallback_served" => MetricKind::FallbackServed,
            "queue_delay" => MetricKind::QueueDelay,
            _ => return None,
        })
    }

    /// All metric kinds in discriminant order (`all()[k as usize] == k`),
    /// for exhaustive sweeps and dense per-kind indexing.
    pub const fn all() -> [MetricKind; 12] {
        [
            MetricKind::ResponseTime,
            MetricKind::ErrorRate,
            MetricKind::Throughput,
            MetricKind::CpuUtilization,
            MetricKind::ConversionRate,
            MetricKind::RevenuePerUser,
            MetricKind::Timeout,
            MetricKind::Retry,
            MetricKind::BreakerOpen,
            MetricKind::Shed,
            MetricKind::FallbackServed,
            MetricKind::QueueDelay,
        ]
    }
}

impl fmt::Display for MetricKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One observation of a metric at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub time: SimTime,
    /// The observed value, in the metric's natural unit.
    pub value: f64,
}

impl Sample {
    /// Creates a sample.
    pub fn new(time: SimTime, value: f64) -> Self {
        Sample { time, value }
    }
}

/// Streaming mean/variance/extrema accumulator (Welford's algorithm).
///
/// Numerically stable for the long windows used by multi-week experiment
/// evaluations, and mergeable so per-worker accumulators can be combined.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats { count: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample variance (`n-1` denominator), or `None` with fewer than two
    /// observations.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Smallest observation.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Finalizes into an owned [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean().unwrap_or(0.0),
            std_dev: self.std_dev().unwrap_or(0.0),
            min: self.min().unwrap_or(0.0),
            max: self.max().unwrap_or(0.0),
        }
    }
}

/// Finalized summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Number of observations.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`0.0` with fewer than two observations).
    pub std_dev: f64,
    /// Minimum observation (`0.0` when empty).
    pub min: f64,
    /// Maximum observation (`0.0` when empty).
    pub max: f64,
}

impl Summary {
    /// Summarizes a slice of raw values.
    pub fn of(values: &[f64]) -> Summary {
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        acc.summary()
    }

    /// Appends the summary to `out` as a JSON object with the fixed member
    /// order `n, mean, sd, min, max` — the representation the Bifrost
    /// execution journal relies on for byte-identical output.
    pub fn write_json(&self, out: &mut String) {
        let mut w = ObjectWriter::begin(out);
        w.uint("n", self.count);
        w.num("mean", self.mean);
        w.num("sd", self.std_dev);
        w.num("min", self.min);
        w.num("max", self.max);
        w.end();
    }

    /// Reads a summary back from the representation written by
    /// [`Summary::write_json`]. Returns `None` when a member is missing or
    /// not a number.
    pub fn from_json(json: &Json) -> Option<Summary> {
        Some(Summary {
            count: json.get("n")?.as_u64()?,
            mean: json.get("mean")?.as_f64()?,
            std_dev: json.get("sd")?.as_f64()?,
            min: json.get("min")?.as_f64()?,
            max: json.get("max")?.as_f64()?,
        })
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.count, self.mean, self.std_dev, self.min, self.max
        )
    }
}

fn quantile_cmp(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).expect("NaN in quantile input")
}

/// Linear interpolation between the order statistics of a sorted slice at
/// `pos = q * (len - 1)`, the same estimator the paper's monitoring stack
/// (and `numpy`) uses.
fn interpolate_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Returns the `q`-quantile (`0.0..=1.0`) of `values` using linear
/// interpolation between order statistics, the same estimator the paper's
/// monitoring stack (and `numpy`) uses.
///
/// Runs in O(n) via [`slice::select_nth_unstable_by`]-based selection
/// rather than a full sort. For several quantiles of the same data use
/// [`quantiles`], which sorts once and reuses the ordering.
///
/// Returns `None` when `values` is empty.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0` or any value is NaN.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in 0.0..=1.0");
    if values.is_empty() {
        return None;
    }
    let mut scratch: Vec<f64> = values.to_vec();
    let pos = q * (scratch.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    // Selecting the `lo`-th order statistic partitions the scratch space:
    // everything right of `lo` is >= it, so the next order statistic (the
    // interpolation partner) is the minimum of the right partition.
    let (_, lo_val, above) = scratch.select_nth_unstable_by(lo, quantile_cmp);
    let lo_val = *lo_val;
    if frac == 0.0 {
        return Some(lo_val);
    }
    let hi_val = above.iter().copied().min_by(quantile_cmp).expect("hi order statistic in bounds");
    Some(lo_val + (hi_val - lo_val) * frac)
}

/// Returns the quantiles at each `q` in `qs` (`0.0..=1.0`), sorting the
/// data once and reusing the ordering across all of them — cheaper than
/// repeated [`quantile`] calls from three quantiles up.
///
/// Returns `None` when `values` is empty.
///
/// # Panics
///
/// Panics if any `q` is outside `0.0..=1.0` or any value is NaN.
pub fn quantiles(values: &[f64], qs: &[f64]) -> Option<Vec<f64>> {
    for q in qs {
        assert!((0.0..=1.0).contains(q), "quantile must be in 0.0..=1.0");
    }
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_unstable_by(quantile_cmp);
    Some(qs.iter().map(|&q| interpolate_sorted(&sorted, q)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn taxonomy_partitions_metrics() {
        for kind in MetricKind::all() {
            assert_ne!(kind.is_technical(), kind.is_business());
            assert_eq!(MetricKind::from_name(kind.name()), Some(kind));
        }
        assert!(MetricKind::from_name("latency").is_none());
    }

    #[test]
    fn all_is_in_discriminant_order() {
        // Dense per-kind indexing (microsim's SampleBatch) relies on this.
        for (i, kind) in MetricKind::all().into_iter().enumerate() {
            assert_eq!(kind as usize, i);
        }
    }

    #[test]
    fn polarity_is_sensible() {
        assert!(MetricKind::ResponseTime.lower_is_better());
        assert!(MetricKind::ErrorRate.lower_is_better());
        assert!(!MetricKind::Throughput.lower_is_better());
        assert!(!MetricKind::ConversionRate.lower_is_better());
        // Resilience counters are technical guardrail metrics: fewer
        // timeouts/retries/sheds is always healthier.
        for kind in [
            MetricKind::Timeout,
            MetricKind::Retry,
            MetricKind::BreakerOpen,
            MetricKind::Shed,
            MetricKind::FallbackServed,
            MetricKind::QueueDelay,
        ] {
            assert!(kind.is_technical());
            assert!(kind.lower_is_better());
        }
    }

    #[test]
    fn welford_matches_naive() {
        let values = [4.0, 8.0, 15.0, 16.0, 23.0, 42.0];
        let mut acc = OnlineStats::new();
        for v in values {
            acc.push(v);
        }
        let naive_mean: f64 = values.iter().sum::<f64>() / values.len() as f64;
        let naive_var: f64 = values.iter().map(|v| (v - naive_mean).powi(2)).sum::<f64>()
            / (values.len() - 1) as f64;
        assert!((acc.mean().unwrap() - naive_mean).abs() < 1e-12);
        assert!((acc.variance().unwrap() - naive_var).abs() < 1e-9);
        assert_eq!(acc.min(), Some(4.0));
        assert_eq!(acc.max(), Some(42.0));
    }

    #[test]
    fn empty_stats_are_none() {
        let acc = OnlineStats::new();
        assert_eq!(acc.mean(), None);
        assert_eq!(acc.variance(), None);
        assert_eq!(acc.min(), None);
        let s = acc.summary();
        assert_eq!(s.count, 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut seq = OnlineStats::new();
        for &v in &all {
            seq.push(v);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &v in &all[..37] {
            a.push(v);
        }
        for &v in &all[37..] {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean().unwrap() - seq.mean().unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - seq.variance().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineStats::new());
        assert_eq!(a, before);
        let mut empty = OnlineStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn quantiles_interpolate() {
        let values = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&values, 0.0), Some(1.0));
        assert_eq!(quantile(&values, 1.0), Some(4.0));
        assert_eq!(quantile(&values, 0.5), Some(2.5));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_interpolation_edge_cases() {
        // Single element: every q lands on it, no interpolation partner.
        assert_eq!(quantile(&[7.0], 0.0), Some(7.0));
        assert_eq!(quantile(&[7.0], 0.5), Some(7.0));
        assert_eq!(quantile(&[7.0], 1.0), Some(7.0));
        // Two elements: interpolation across the whole range.
        assert_eq!(quantile(&[10.0, 20.0], 0.25), Some(12.5));
        assert_eq!(quantile(&[20.0, 10.0], 0.75), Some(17.5), "input order is irrelevant");
        // A q landing exactly on an order statistic takes it verbatim.
        let values = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&values, 0.25), Some(2.0));
        assert_eq!(quantile(&values, 0.75), Some(4.0));
        // Duplicates interpolate to themselves.
        assert_eq!(quantile(&[3.0, 3.0, 3.0, 3.0], 0.37), Some(3.0));
        // Negative values and a fractional position between them.
        assert_eq!(quantile(&[-4.0, -2.0], 0.5), Some(-3.0));
        // The original slice is not reordered.
        let original = [9.0, 1.0, 5.0];
        let copy = original;
        quantile(&original, 0.5);
        assert_eq!(original, copy);
    }

    #[test]
    fn quantile_matches_full_sort_reference() {
        // Selection must agree with the sort-based estimator everywhere,
        // including fractional positions.
        let mut rng_state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 11) as f64 / (1u64 << 53) as f64
        };
        let values: Vec<f64> = (0..257).map(|_| next() * 100.0 - 50.0).collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for i in 0..=100 {
            let q = i as f64 / 100.0;
            let pos = q * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            let expected = sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64);
            let got = quantile(&values, q).unwrap();
            assert!((got - expected).abs() < 1e-12, "q={q}: {got} vs {expected}");
        }
    }

    #[test]
    fn quantiles_batch_matches_individual_calls() {
        let values = [9.0, 2.0, 7.0, 4.0, 6.0, 1.0, 8.0];
        let qs = [0.0, 0.25, 0.5, 0.75, 0.9, 1.0];
        let batch = quantiles(&values, &qs).unwrap();
        for (q, got) in qs.iter().zip(&batch) {
            assert_eq!(Some(*got), quantile(&values, *q));
        }
        assert_eq!(quantiles(&[], &qs), None);
        assert_eq!(quantiles(&values, &[]), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "quantile must be in 0.0..=1.0")]
    fn quantile_rejects_out_of_range_q() {
        quantile(&[1.0], 1.5);
    }

    #[test]
    #[should_panic(expected = "NaN in quantile input")]
    fn quantile_rejects_nan() {
        quantile(&[1.0, f64::NAN, 2.0], 0.5);
    }

    #[test]
    fn summary_json_round_trips() {
        let s = Summary::of(&[2.0, 4.0, 7.5]);
        let mut text = String::new();
        s.write_json(&mut text);
        assert_eq!(text, "{\"n\":3,\"mean\":4.5,\"sd\":2.7838821814150108,\"min\":2,\"max\":7.5}");
        assert_eq!(Summary::from_json(&Json::parse(&text).unwrap()), Some(s));
        assert_eq!(Summary::from_json(&Json::Null), None);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[2.0, 4.0]);
        assert_eq!(s.count, 2);
        assert!((s.mean - 3.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 4.0);
        assert!(s.to_string().starts_with("n=2"));
    }
}
