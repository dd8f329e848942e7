//! Mergeable quantile sketches for streaming latency analysis.
//!
//! The health pipeline (Chapter 5) compares canary-vs-baseline latency
//! quantiles per interaction edge. Keeping raw samples per edge — even a
//! downsampling reservoir — makes peak memory grow with traffic, which
//! caps the pipeline far below the "millions of users" target. This
//! module replaces raw samples with a DDSketch-style quantile sketch
//! (Masson et al., *DDSketch: a fast and fully-mergeable quantile sketch
//! with relative-error guarantees*, VLDB 2019), hand-rolled so the
//! workspace stays std-only:
//!
//! * **One configuration.** Every sketch has relative error
//!   `α =` [`RELATIVE_ERROR`] (1%) and at most [`MAX_BUCKETS`] (1024)
//!   occupied buckets: the health verdicts, the blame fold and the tail
//!   sampler all read quantiles at that accuracy, so any two sketches
//!   merge.
//! * **Log-spaced buckets.** A positive value `v` lands in bucket
//!   `ceil(ln v / ln γ)` with `γ = (1+α)/(1-α)`; the bucket's
//!   representative value `2·γ^k/(γ+1)` is within relative error `α` of
//!   every value in the bucket, so any quantile estimate is within `α`
//!   of *some* sample at the queried rank.
//! * **Keys of whole numbers looked up.** Latencies are whole
//!   milliseconds, so an integral value below 4096 reads its key from a
//!   table built once with the very expression every other value
//!   evaluates: each entry is that expression's key on any libm, and the
//!   `ln` leaves the hot path. The table is shared, one per thread.
//! * **A contiguous store.** Counts live in one `Vec<u64>`: slot `i`
//!   counts key `offset + i`, the first and the last slot are occupied
//!   whenever any is, and a push is a subtraction and an index (the vector
//!   grows at whichever end a new key falls off). Empty slots between two
//!   occupied keys cost eight bytes each and nothing else: they hold no
//!   mass, so they never cross a rank, never reach [`QuantileSketch::encode`]
//!   and never count against the cap.
//! * **Bounded state.** *Occupied* slots never exceed
//!   [`MAX_BUCKETS`]: on overflow the sketch collapses from
//!   the *cheap* end — the lowest occupied slot merges into the next
//!   occupied one and the emptied front is trimmed — so tail quantiles
//!   (the ones health verdicts read) keep their guarantee while the
//!   collapsed low end degrades gracefully. *Slots* never exceed the key
//!   span of the finite doubles, ≈36.5 k (292 KB, reached only
//!   by feeding one sketch both `1e-9` and `f64::MAX`; non-finite values
//!   are rejected). Neither bound depends on how many values were pushed.
//! * **Exact deterministic merge.** Merging adds per-bucket counts and
//!   re-collapses. The normalized state after any sequence of pushes and
//!   merges depends only on the multiset of per-bucket counts, which
//!   makes merge *associative and commutative to the byte* — shards can
//!   fold in any grouping and the journal stays bit-identical
//!   ([`QuantileSketch::encode`] is the canonical form the property
//!   tests compare).
//!
//! No randomness anywhere: the same pushes produce the same state on
//! every run and every worker layout.

use std::fmt;
use std::sync::Arc;

/// The relative-error guarantee `α` (1%): an estimated quantile is within
/// 1% of an actual sample at that rank (tight enough that the health
/// pipeline's 2% acceptance bound holds with slack).
pub const RELATIVE_ERROR: f64 = 0.01;

/// The bucket cap. Each bucket spans a factor of `γ ≈ 1.0202`, so 1024
/// buckets cover a `γ^1024 ≈ e^20.5` ≈ 8×10⁸ dynamic range —
/// microseconds to hours of latency — before any collapse occurs.
pub const MAX_BUCKETS: usize = 1_024;

/// The bucket growth factor `γ = (1+α)/(1-α)`.
const GAMMA: f64 = (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR);

/// `1 / ln γ`, the factor every key is computed with (`ln` is not `const`;
/// a test holds this to the expression).
const INV_LN_GAMMA: f64 = 49.998_333_288_886_78;

/// Values at or below this threshold (in the sketch's unit) are counted in
/// a dedicated zero bucket: the log mapping cannot index them, and for
/// latencies they mean "instantaneous" anyway.
const MIN_INDEXABLE: f64 = 1e-9;

/// Integral values below this read their key from a [`KeyTable`].
const TABLED: usize = 4_096;

/// The key of every integral value below [`TABLED`]: entry `v` is
/// [`ln_key`] of `v`.
type KeyTable = [i32; TABLED];

thread_local! {
    /// The key table, built once per thread and shared by every sketch
    /// made there (entry 0 is never read: zero goes to the zero bucket).
    static LATENCY_KEYS: Arc<KeyTable> = {
        let mut keys = [0; TABLED];
        for (v, key) in keys.iter_mut().enumerate() {
            *key = ln_key(v as f64);
        }
        Arc::new(keys)
    };
}

/// The log-bucket key of a positive value: the one expression every key,
/// looked up or not, comes from.
fn ln_key(value: f64) -> i32 {
    (value.ln() * INV_LN_GAMMA).ceil() as i32
}

/// A mergeable quantile sketch with a bounded relative-error guarantee
/// and bounded state (see the module docs).
#[derive(Clone)]
pub struct QuantileSketch {
    /// The keys of small whole values, shared. The same for every sketch,
    /// so `==`, `Debug` and [`QuantileSketch::encode`] skip it.
    keys: Arc<KeyTable>,
    /// Log index counted by `buckets[0]`.
    offset: i32,
    /// Per-bucket counts: slot `i` counts key `offset + i`. Non-empty ⇒
    /// the first and the last slot are occupied.
    buckets: Vec<u64>,
    /// Slots with a non-zero count.
    occupied: usize,
    /// Count of non-indexable (≤ [`MIN_INDEXABLE`]) values.
    zeros: u64,
    /// Total values observed.
    count: u64,
    /// Conservative (over-counting) tally of mass absorbed by cheap-end
    /// collapses. Mass cascading through several collapse steps counts
    /// once per step, so this depends on collapse history and merge
    /// grouping — it is advisory, excluded from [`QuantileSketch::encode`].
    collapsed: u64,
    /// Exact minimum observed (`∞` when empty); quantile results clamp
    /// into `[min, max]` so bucket rounding never leaves the data range.
    min: f64,
    /// Exact maximum observed (`-∞` when empty).
    max: f64,
}

// One per edge and direction in every health fold.
const _: () = assert!(std::mem::size_of::<QuantileSketch>() <= 88);

/// Every field but the shared key table.
impl fmt::Debug for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("QuantileSketch")
            .field("offset", &self.offset)
            .field("buckets", &self.buckets)
            .field("occupied", &self.occupied)
            .field("zeros", &self.zeros)
            .field("count", &self.count)
            .field("collapsed", &self.collapsed)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

/// Equality of what was observed, not of how it is laid out: every scalar
/// field, and the buckets as their occupied `(key, count)` sequence — the
/// one [`QuantileSketch::encode`] writes. (With both ends of the store
/// occupied the vectors are equal exactly when that sequence is; equality
/// is stated on the sequence so that it does not lean on the layout.)
impl PartialEq for QuantileSketch {
    fn eq(&self, other: &Self) -> bool {
        self.zeros == other.zeros
            && self.count == other.count
            && self.collapsed == other.collapsed
            && self.min == other.min
            && self.max == other.max
            && self.occupied_buckets().eq(other.occupied_buckets())
    }
}

impl QuantileSketch {
    /// An empty sketch: relative error [`RELATIVE_ERROR`], at most
    /// [`MAX_BUCKETS`] buckets.
    pub fn for_latency() -> Self {
        QuantileSketch {
            keys: LATENCY_KEYS.with(Arc::clone),
            offset: 0,
            buckets: Vec::new(),
            occupied: 0,
            zeros: 0,
            count: 0,
            collapsed: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Observes one value.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite or negative values (latencies are finite
    /// and non-negative; anything else indicates a caller bug worth
    /// failing loudly on).
    pub fn push(&mut self, value: f64) {
        self.push_weighted(value, 1);
    }

    /// Observes one value with an integral weight — equivalent to
    /// `weight` identical [`QuantileSketch::push`] calls at `O(1)` cost.
    /// Tail-based trace sampling uses this to fold one kept healthy
    /// trace as the `k` statistically-similar traces it stands for.
    ///
    /// # Panics
    ///
    /// Panics on NaN, infinite or negative values. A zero weight is a
    /// no-op.
    pub fn push_weighted(&mut self, value: f64, weight: u64) {
        if let Some(value) = self.tally(value, weight) {
            self.add(self.key_of(value), weight);
        }
    }

    /// Counts a value everywhere but in its log bucket: count, min, max,
    /// the zero bucket. The value to bucket, if it takes one.
    fn tally(&mut self, value: f64, weight: u64) -> Option<f64> {
        assert!(
            value.is_finite() && value >= 0.0,
            "sketch values must be finite and non-negative, got {value}"
        );
        if weight == 0 {
            return None;
        }
        // `-0.0 >= 0.0`: one zero, or min/max bits (and so `encode`) would
        // depend on which zero came first.
        let value = if value == 0.0 { 0.0 } else { value };
        self.count += weight;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value <= MIN_INDEXABLE {
            self.zeros += weight;
            return None;
        }
        Some(value)
    }

    /// Adds `weight` to the bucket `key`, collapsing if the cap is passed.
    fn add(&mut self, key: i32, weight: u64) {
        self.cover(key, key);
        let slot = (key - self.offset) as usize;
        self.occupied += usize::from(self.buckets[slot] == 0);
        self.buckets[slot] += weight;
        if self.occupied > MAX_BUCKETS {
            self.collapse();
        }
    }

    /// The log-bucket key of a positive value: looked up for a whole value
    /// below [`TABLED`], [`ln_key`] otherwise — the same key either way.
    fn key_of(&self, value: f64) -> i32 {
        if value < TABLED as f64 {
            let whole = value as usize;
            if whole as f64 == value {
                return self.keys[whole];
            }
        }
        ln_key(value)
    }

    /// The representative value of a bucket: the multiplicative midpoint
    /// `2·γ^k/(γ+1)`, within `α` relative error of every value the bucket
    /// admits (`(γ^{k-1}, γ^k]`). In the buckets of values above
    /// `f64::MAX / 2` the product `2·γ^k` overflows; there the midpoint is
    /// taken as `γ^{k-1}·2γ/(γ+1)`, which is infinite only where the
    /// midpoint is past `f64::MAX` (the caller clamps it to the maximum).
    fn value_of(key: i32) -> f64 {
        let midpoint = 2.0 * GAMMA.powi(key) / (GAMMA + 1.0);
        if midpoint.is_finite() {
            midpoint
        } else {
            GAMMA.powi(key - 1) * (2.0 * GAMMA / (GAMMA + 1.0))
        }
    }

    /// Grows the store, at whichever end falls short, to hold every key in
    /// `lo..=hi`. The caller then occupies both ends.
    fn cover(&mut self, lo: i32, hi: i32) {
        if self.buckets.is_empty() {
            self.offset = lo;
        } else if lo < self.offset {
            let grow = (self.offset - lo) as usize;
            self.buckets.splice(0..0, std::iter::repeat_n(0, grow));
            self.offset = lo;
        }
        let len = (hi - self.offset) as usize + 1;
        if len > self.buckets.len() {
            self.buckets.resize(len, 0);
        }
    }

    /// Collapses the cheap end until the cap holds: the lowest occupied
    /// slot's count moves into the next occupied one, and the emptied
    /// front is trimmed. Tail buckets are untouched.
    fn collapse(&mut self) {
        let mut low = 0;
        while self.occupied > MAX_BUCKETS {
            let carried = std::mem::take(&mut self.buckets[low]);
            // The last slot is occupied and the cap leaves a successor.
            low += 1;
            while self.buckets[low] == 0 {
                low += 1;
            }
            self.buckets[low] += carried;
            self.collapsed += carried;
            self.occupied -= 1;
        }
        self.buckets.drain(..low);
        self.offset += low as i32;
    }

    /// The occupied buckets as `(key, count)`, ascending by key.
    fn occupied_buckets(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.offset..).zip(&self.buckets).filter(|(_, &count)| count > 0).map(|(k, &c)| (k, c))
    }

    /// Merges another sketch into this one: per-bucket counts add, then
    /// the cap re-collapses. Deterministic and — in normalized state —
    /// associative and commutative to the byte (see module docs).
    pub fn merge(&mut self, other: &QuantileSketch) {
        if !other.buckets.is_empty() {
            self.cover(other.offset, other.offset + (other.buckets.len() - 1) as i32);
            let base = (other.offset - self.offset) as usize;
            for (mine, &theirs) in self.buckets[base..].iter_mut().zip(&other.buckets) {
                self.occupied += usize::from(*mine == 0 && theirs > 0);
                *mine += theirs;
            }
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.collapsed += other.collapsed;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.occupied > MAX_BUCKETS {
            self.collapse();
        }
    }

    /// Values observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum observed, `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum observed, `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Occupied buckets (≤ [`MAX_BUCKETS`] plus the zero bucket).
    pub fn bucket_len(&self) -> usize {
        self.occupied + usize::from(self.zeros > 0)
    }

    /// Conservative upper bound on the mass absorbed by cheap-end
    /// collapses (0 while the value range fits the cap). Because it over-
    /// counts cascading moves, quantile ranks at or above this value are
    /// *certainly* outside the collapsed region and keep the full `α`
    /// guarantee. The exact tally depends on collapse history, so this
    /// counter is excluded from the canonical encoding.
    pub fn collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Resident bytes of the sketch state: the fixed header plus eight
    /// bytes per slot, occupied or not (see the module docs for the
    /// bound). Used by the scale bench's peak-memory accounting.
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.buckets.len() * std::mem::size_of::<u64>()
    }

    /// The estimated `q`-quantile (`0.0..=1.0`), `None` when empty.
    ///
    /// The estimate is within relative error `α` of an actual observed
    /// value at the queried rank, provided the rank lies above the
    /// collapsed mass (see [`QuantileSketch::collapsed`]). Results are
    /// clamped into `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in 0.0..=1.0");
        if self.count == 0 {
            return None;
        }
        // 0-based target rank, nearest-rank convention.
        let rank = (q * (self.count - 1) as f64).round() as u64;
        if rank < self.zeros {
            return Some(self.min.max(0.0));
        }
        if rank >= self.count {
            // Only where `count - 1` does not survive the trip through f64.
            return Some(self.max);
        }
        // The slot holding the rank, found from the nearer end: the tail
        // sampler reads q = 0.95 or 0.99 once per offered trace.
        let slot = if rank > self.count / 2 {
            self.slot_from_top(self.count - 1 - rank)
        } else {
            self.slot_from_bottom(rank)
        };
        let key = self.offset + slot as i32;
        Some(Self::value_of(key).clamp(self.min, self.max))
    }

    /// The lowest slot whose cumulative count (zeros included) exceeds
    /// `rank`, for `zeros <= rank < count`. Whole chunks are summed until
    /// the one that crosses the rank, then that chunk is walked; empty
    /// slots add nothing, so they never cross one and need no skipping.
    fn slot_from_bottom(&self, rank: u64) -> usize {
        let mut cum = self.zeros;
        let mut slot = 0;
        for chunk in self.buckets.chunks(8) {
            let sum: u64 = chunk.iter().sum();
            if cum + sum > rank {
                break;
            }
            cum += sum;
            slot += chunk.len();
        }
        loop {
            cum += self.buckets[slot];
            if cum > rank {
                return slot;
            }
            slot += 1;
        }
    }

    /// The same slot found from the other end: the highest slot whose
    /// count from the top exceeds `above`, the number of values ranked
    /// above the target (`above < count - zeros`).
    fn slot_from_top(&self, above: u64) -> usize {
        let mut cum = 0;
        let mut end = self.buckets.len();
        for chunk in self.buckets.rchunks(8) {
            let sum: u64 = chunk.iter().sum();
            if cum + sum > above {
                break;
            }
            cum += sum;
            end -= chunk.len();
        }
        loop {
            end -= 1;
            cum += self.buckets[end];
            if cum > above {
                return end;
            }
        }
    }

    /// Estimated quantiles at each `q` in `qs`, walking the buckets once.
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics when any `q` is outside `0.0..=1.0` or `qs` is not
    /// non-decreasing (sorted input is what makes one walk possible).
    pub fn quantiles(&self, qs: &[f64]) -> Option<Vec<f64>> {
        for pair in qs.windows(2) {
            assert!(pair[0] <= pair[1], "quantile list must be non-decreasing");
        }
        if self.count == 0 {
            return None;
        }
        let mut out = Vec::with_capacity(qs.len());
        let mut iter = (self.offset..).zip(&self.buckets);
        let mut cum = self.zeros;
        let mut current: Option<(i32, u64)> = None;
        for &q in qs {
            assert!((0.0..=1.0).contains(&q), "quantile must be in 0.0..=1.0");
            let rank = (q * (self.count - 1) as f64).round() as u64;
            if rank < self.zeros {
                out.push(self.min.max(0.0));
                continue;
            }
            loop {
                match current {
                    Some((key, upto)) if upto > rank => {
                        out.push(Self::value_of(key).clamp(self.min, self.max));
                        break;
                    }
                    _ => match iter.next() {
                        Some((key, &count)) => {
                            cum += count;
                            current = Some((key, cum));
                        }
                        None => {
                            out.push(self.max);
                            break;
                        }
                    },
                }
            }
        }
        Some(out)
    }

    /// Canonical byte encoding of the distributional state: the
    /// configuration's two words (`α`'s bits and the cap), counters,
    /// min/max bits, and every occupied
    /// `(key, count)` bucket in ascending key order. This is exactly the
    /// state that is invariant under merge grouping and order — the merge
    /// property tests compare these bytes. (The advisory
    /// [`QuantileSketch::collapsed`] tally is deliberately excluded: it
    /// records collapse *history*, not distributional state.)
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(48 + self.occupied * 12);
        out.extend_from_slice(&RELATIVE_ERROR.to_bits().to_le_bytes());
        out.extend_from_slice(&(MAX_BUCKETS as u64).to_le_bytes());
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.zeros.to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        for (key, count) in self.occupied_buckets() {
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&count.to_le_bytes());
        }
        out
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::for_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use std::collections::BTreeMap;

    /// Exact nearest-rank quantile over raw samples — the reference the
    /// error-bound tests compare against.
    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    fn assert_relative_error(values: &mut [f64], sketch: &QuantileSketch, qs: &[f64]) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in qs {
            let exact = exact_quantile(values, q);
            let est = sketch.quantile(q).unwrap();
            let tolerance = RELATIVE_ERROR * 1.0001;
            if exact <= MIN_INDEXABLE {
                assert!(est <= MIN_INDEXABLE, "q{q}: exact {exact}, est {est}");
            } else {
                let rel = (est - exact).abs() / exact;
                assert!(rel <= tolerance, "q{q}: exact {exact}, est {est}, rel err {rel}");
            }
        }
    }

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let s = QuantileSketch::for_latency();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.quantiles(&[0.5, 0.95]), None);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn single_value_is_exact() {
        let mut s = QuantileSketch::for_latency();
        s.push(42.0);
        for q in [0.0, 0.5, 1.0] {
            let est = s.quantile(q).unwrap();
            assert!((est - 42.0).abs() / 42.0 <= RELATIVE_ERROR);
        }
        assert_eq!(s.min(), Some(42.0));
        assert_eq!(s.max(), Some(42.0));
    }

    #[test]
    fn relative_error_bound_uniform_and_lognormal() {
        let mut rng = SplitMix64::new(11);
        let mut s = QuantileSketch::for_latency();
        let mut values = Vec::new();
        for _ in 0..100_000 {
            // Log-uniform over ~6 decades: adversarial for linear
            // histograms, the home turf a log sketch must still nail.
            let v = 10f64.powf(rng.next_f64() * 6.0 - 2.0);
            s.push(v);
            values.push(v);
        }
        assert_eq!(s.collapsed(), 0, "6 decades fit the default cap");
        assert_relative_error(&mut values, &s, &[0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999]);
    }

    type Sampler = Box<dyn Fn(&mut SplitMix64) -> f64>;

    #[test]
    fn relative_error_bound_adversarial_distributions() {
        let distributions: Vec<(&str, Sampler)> = vec![
            ("constant", Box::new(|_| 7.25)),
            ("two-point", Box::new(|r| if r.next_f64() < 0.5 { 0.001 } else { 50_000.0 })),
            // Heavy tail: x = u^{-2} has infinite variance.
            ("pareto", Box::new(|r| (1.0 - r.next_f64()).powf(-2.0))),
            ("near-zero", Box::new(|r| r.next_f64() * 1e-6)),
            ("many-duplicates", Box::new(|r| (r.next_f64() * 8.0).floor() + 1.0)),
            // Bucket-boundary probe: values at powers of gamma.
            ("gamma-powers", Box::new(|r| 1.0202f64.powi((r.next_f64() * 400.0) as i32))),
        ];
        for (name, gen) in distributions {
            let mut rng = SplitMix64::new(23);
            let mut s = QuantileSketch::for_latency();
            let mut values = Vec::new();
            for _ in 0..20_000 {
                let v = gen(&mut rng);
                s.push(v);
                values.push(v);
            }
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &q in &[0.1, 0.5, 0.9, 0.95, 0.99] {
                let exact = exact_quantile(&values, q);
                let est = s.quantile(q).unwrap();
                if exact <= MIN_INDEXABLE {
                    assert!(est <= MIN_INDEXABLE, "{name} q{q}");
                } else {
                    let rel = (est - exact).abs() / exact;
                    assert!(
                        rel <= RELATIVE_ERROR * 1.0001,
                        "{name} q{q}: exact {exact}, est {est}, rel {rel}"
                    );
                }
            }
        }
    }

    #[test]
    fn zeros_are_counted_and_returned() {
        let mut s = QuantileSketch::for_latency();
        for _ in 0..90 {
            s.push(0.0);
        }
        for _ in 0..10 {
            s.push(100.0);
        }
        assert_eq!(s.quantile(0.5), Some(0.0));
        assert!(s.quantile(0.99).unwrap() > 90.0);
        assert_eq!(s.count(), 100);
    }

    /// Log-uniform over fifteen decades: about 1,730 keys at 1%, past the
    /// 1,024-bucket cap.
    fn wide(rng: &mut SplitMix64) -> f64 {
        10f64.powf(rng.next_f64() * 15.0 - 6.0)
    }

    #[test]
    fn cap_collapses_cheap_end_and_keeps_tail_accurate() {
        // The top 1,024 of the ~1,730 keys hold the top ~59% of the mass,
        // so quantiles from the 60th percentile upward stay guaranteed.
        let mut s = QuantileSketch::for_latency();
        let mut values = Vec::new();
        let mut rng = SplitMix64::new(5);
        for _ in 0..50_000 {
            let v = wide(&mut rng);
            s.push(v);
            values.push(v);
        }
        assert!(s.bucket_len() <= MAX_BUCKETS + 1, "cap holds: {} buckets", s.bucket_len());
        assert!(s.collapsed() > 0, "collapse must have occurred");
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &q in &[0.6, 0.9, 0.95, 0.99] {
            let exact = exact_quantile(&values, q);
            let est = s.quantile(q).unwrap();
            let rel = (est - exact).abs() / exact;
            assert!(rel <= RELATIVE_ERROR * 1.0001, "q{q}: exact {exact}, est {est}, rel {rel}");
        }
        // The collapsed cheap end degrades but stays within the data
        // range — never a wild value.
        let low = s.quantile(0.01).unwrap();
        assert!(low >= s.min().unwrap() && low <= s.max().unwrap());
    }

    #[test]
    fn merge_equals_pushing_everything_into_one() {
        let mut rng = SplitMix64::new(31);
        let values: Vec<f64> = (0..30_000).map(|_| 10f64.powf(rng.next_f64() * 5.0)).collect();
        let mut whole = QuantileSketch::for_latency();
        for &v in &values {
            whole.push(v);
        }
        let mut parts: Vec<QuantileSketch> =
            (0..3).map(|_| QuantileSketch::for_latency()).collect();
        for (i, &v) in values.iter().enumerate() {
            parts[i % 3].push(v);
        }
        let mut merged = parts[0].clone();
        merged.merge(&parts[1]);
        merged.merge(&parts[2]);
        assert_eq!(whole.encode(), merged.encode(), "merge is exact, not approximate");
    }

    #[test]
    fn merge_is_associative_and_commutative_to_the_byte() {
        // Every part passes the cap on its own, so collapses happen
        // mid-merge — the hard case for byte-identical grouping
        // independence.
        let mut rng = SplitMix64::new(77);
        let sketches: Vec<QuantileSketch> = (0..4)
            .map(|_| {
                let mut s = QuantileSketch::for_latency();
                for _ in 0..5_000 {
                    s.push(wide(&mut rng));
                }
                assert!(s.collapsed() > 0);
                s
            })
            .collect();
        let [a, b, c, d] = &sketches[..] else { unreachable!() };

        // ((a+b)+c)+d
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        left.merge(d);
        // (a+b)+(c+d)
        let mut ab = a.clone();
        ab.merge(b);
        let mut cd = c.clone();
        cd.merge(d);
        let mut balanced = ab;
        balanced.merge(&cd);
        // d+(c+(b+a)) — fully reversed grouping and order.
        let mut ba = b.clone();
        ba.merge(a);
        let mut cba = c.clone();
        cba.merge(&ba);
        let mut reversed = d.clone();
        reversed.merge(&cba);

        assert_eq!(left.encode(), balanced.encode(), "associativity");
        assert_eq!(left.encode(), reversed.encode(), "commutativity");
    }

    #[test]
    fn state_is_bounded_regardless_of_volume() {
        let mut s = QuantileSketch::for_latency();
        let mut rng = SplitMix64::new(9);
        let mut peak = 0usize;
        for i in 0..1_000_000u64 {
            s.push(10f64.powf(rng.next_f64() * 4.0 - 1.0));
            if i % 10_000 == 0 {
                peak = peak.max(s.state_bytes());
            }
        }
        peak = peak.max(s.state_bytes());
        assert_eq!(s.count(), 1_000_000);
        // 4 decades at alpha 1% is ~460 slots ≈ 3.8 KB — far below the
        // 2048-sample reservoir's 16 KB floor and independent of count.
        assert!(peak < 4_096, "peak sketch bytes {peak}");
    }

    #[test]
    fn same_pushes_same_bytes() {
        let run = || {
            let mut s = QuantileSketch::for_latency();
            let mut rng = SplitMix64::new(123);
            for _ in 0..10_000 {
                s.push(rng.next_f64() * 500.0);
            }
            s.encode()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_values_panic() {
        QuantileSketch::for_latency().push(-1.0);
    }

    #[test]
    fn non_finite_values_panic_before_touching_the_store() {
        // `∞ >= 0.0` holds and `ln ∞` casts to `i32::MAX`: a contiguous
        // store would try to allocate the whole key space.
        for value in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let mut s = QuantileSketch::for_latency();
            s.push(1.0);
            let pushed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.push(value)));
            let message = *pushed.expect_err("a caller bug").downcast::<String>().unwrap();
            assert!(message.contains("finite and non-negative"), "{value}: {message}");
            assert_eq!(
                (s.count(), s.state_bytes()),
                (1, QuantileSketch::for_latency().state_bytes() + 8)
            );
        }
    }

    #[test]
    fn slots_are_bounded_by_the_key_span_of_the_finite_doubles() {
        // The widest store one sketch can be made to hold: the smallest
        // indexable value beside the largest finite one. Two occupied
        // slots, every slot between them allocated.
        let mut s = QuantileSketch::for_latency();
        s.push(MIN_INDEXABLE * (1.0 + f64::EPSILON));
        s.push(f64::MAX);
        assert_eq!(s.bucket_len(), 2);
        let slots = (s.state_bytes() - std::mem::size_of::<QuantileSketch>()) / 8;
        assert!((36_000..=36_600).contains(&slots), "{slots} slots");
        // Descending arrival grows the front instead and ends in the same
        // place; values at or below the threshold take no slot at all.
        let mut reversed = QuantileSketch::for_latency();
        reversed.push(f64::MAX);
        reversed.push(MIN_INDEXABLE * (1.0 + f64::EPSILON));
        reversed.push(MIN_INDEXABLE);
        reversed.push(f64::MIN_POSITIVE);
        assert_eq!(reversed.state_bytes(), s.state_bytes());
        // The top bucket's midpoint is finite, and within α of the largest
        // finite double.
        let top = s.quantile(1.0).unwrap();
        assert!(top.is_finite() && (f64::MAX - top) / f64::MAX <= RELATIVE_ERROR, "{top}");
    }

    #[test]
    fn weighted_push_equals_repeated_push() {
        let mut weighted = QuantileSketch::for_latency();
        let mut repeated = QuantileSketch::for_latency();
        let mut rng = SplitMix64::new(41);
        for _ in 0..1_000 {
            let v = rng.next_f64() * 250.0;
            let w = 1 + (rng.next_f64() * 7.0) as u64;
            weighted.push_weighted(v, w);
            for _ in 0..w {
                repeated.push(v);
            }
        }
        weighted.push_weighted(99.0, 0);
        assert_eq!(weighted.encode(), repeated.encode());
    }

    #[test]
    fn quantiles_batch_matches_single_calls() {
        let mut s = QuantileSketch::for_latency();
        let mut rng = SplitMix64::new(3);
        for _ in 0..5_000 {
            s.push(rng.next_f64() * 100.0 + 0.5);
        }
        let qs = [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0];
        let batch = s.quantiles(&qs).unwrap();
        for (&q, &b) in qs.iter().zip(&batch) {
            assert_eq!(s.quantile(q).unwrap(), b, "q{q}");
        }
    }

    #[test]
    fn equality_is_of_the_distribution_not_of_the_layout() {
        for collapsing in [true, false] {
            // Six decades fit the cap; fifteen do not.
            let mut rng = SplitMix64::new(17);
            let decades = if collapsing { 15.0 } else { 6.0 };
            let mut values: Vec<f64> =
                (0..4_000).map(|_| 10f64.powf(rng.next_f64() * decades - 3.0)).collect();
            values.extend([0.0, 0.0, 1e-12]);
            values.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let fed = |order: &mut dyn Iterator<Item = &f64>| {
                let mut s = QuantileSketch::for_latency();
                order.for_each(|v| s.push(*v));
                s
            };
            let ascending = fed(&mut values.iter());
            let descending = fed(&mut values.iter().rev());
            let mut merged = fed(&mut values.iter().step_by(2));
            merged.merge(&fed(&mut values.iter().skip(1).step_by(2)));
            assert_eq!(ascending.collapsed() > 0, collapsing);
            assert_eq!(ascending.encode(), descending.encode(), "collapsing {collapsing}");
            assert_eq!(ascending.encode(), merged.encode(), "collapsing {collapsing}");
            if !collapsing {
                // Nothing collapsed, so the advisory tally agrees too and
                // the three are one sketch.
                assert_eq!(ascending, descending);
                assert_eq!(ascending, merged);
                assert_eq!(descending, merged);
            }
            let mut other = ascending.clone();
            other.push(5.0);
            assert_ne!(ascending, other);
        }
    }

    #[test]
    fn minus_zero_is_zero_in_any_order() {
        let fed = |values: &[f64]| {
            let mut s = QuantileSketch::for_latency();
            values.iter().for_each(|&v| s.push(v));
            s
        };
        let (a, b) = (fed(&[0.0, 5.0]), fed(&[-0.0, 7.0]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.encode(), ba.encode());
        assert_eq!(fed(&[0.0, -0.0]).encode(), fed(&[-0.0, 0.0]).encode());
        assert_eq!(fed(&[-0.0]).min().map(f64::to_bits), Some(0));
        assert_eq!(fed(&[-0.0]).encode(), fed(&[0.0]).encode());
    }

    /// The key of a positive value as the module docs define it, written
    /// out here rather than shared with the code under test.
    fn ln_expression(value: f64) -> i32 {
        let gamma: f64 = (1.0 + 0.01) / (1.0 - 0.01);
        (value.ln() * (1.0 / gamma.ln())).ceil() as i32
    }

    /// Values around the table's edges and between its entries: every one
    /// must take the key the `ln` expression gives.
    fn searched_keys(rng: &mut SplitMix64) -> Vec<f64> {
        let mut values = vec![
            4095.5,
            4095.0,
            4096.0,
            (1u64 << 32) as f64 - 1.0,
            (1u64 << 32) as f64,
            (1u64 << 53) as f64,
            0.5,
            1.5,
            MIN_INDEXABLE.next_up(),
        ];
        for v in 1..=TABLED as u64 {
            values.extend([(v as f64).next_down(), (v as f64).next_up(), v as f64 + 0.5]);
        }
        for _ in 0..20_000 {
            values.push(match rng.next_u64() % 4 {
                0 => rng.next_f64() * TABLED as f64,
                1 => (TABLED as u64 + rng.next_u64() % 1_000_000) as f64,
                2 => 10f64.powf(rng.next_f64() * 24.0 - 8.0),
                _ => (1 + rng.next_u64() % (TABLED as u64 - 1)) as f64,
            });
        }
        values
    }

    #[test]
    fn whole_values_read_the_key_the_ln_expression_gives() {
        // The constants are the expressions they stand for.
        assert_eq!(GAMMA, (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR));
        assert_eq!(INV_LN_GAMMA.to_bits(), (1.0 / GAMMA.ln()).to_bits());
        let mut rng = SplitMix64::new(4_096);
        let s = QuantileSketch::for_latency();
        for v in (1..TABLED).map(|v| v as f64).chain(searched_keys(&mut rng)) {
            assert_eq!(s.key_of(v), ln_expression(v), "{v}");
        }
        // Every default sketch on a thread shares one table.
        let (a, b) = (QuantileSketch::for_latency(), QuantileSketch::for_latency());
        assert!(Arc::ptr_eq(&a.keys, &b.keys));
    }

    /// `push_weighted` with every key from the `ln` expression, as before
    /// the table.
    fn push_by_ln(s: &mut QuantileSketch, value: f64, weight: u64) {
        if let Some(value) = s.tally(value, weight) {
            s.add(ln_expression(value), weight);
        }
    }

    #[test]
    fn looked_up_keys_encode_as_the_ln_expression_does() {
        let mut rng = SplitMix64::new(48);
        let mut searched = searched_keys(&mut rng);
        searched.extend([0.0, MIN_INDEXABLE, 1.0, 2.0, 4_095.0]);
        let mut table = QuantileSketch::for_latency();
        let mut ln = QuantileSketch::for_latency();
        for (i, &v) in searched.iter().enumerate() {
            let w = 1 + rng.next_u64() % 3;
            table.push_weighted(v, w);
            push_by_ln(&mut ln, v, w);
            if i % 4_096 == 0 {
                assert_eq!(table.encode(), ln.encode(), "at {i}");
            }
        }
        // Twenty-four decades of searched values pass the cap.
        assert!(table.collapsed() > 0);
        assert_eq!(table.encode(), ln.encode());
        assert_eq!(table, ln);
    }

    /// The `BTreeMap` bucket store the array replaced, kept as the model
    /// the differential below drives beside it.
    #[derive(Debug, Clone)]
    struct TreeSketch {
        like: QuantileSketch,
        buckets: BTreeMap<i32, u64>,
        zeros: u64,
        count: u64,
        collapsed: u64,
        min: f64,
        max: f64,
    }

    impl TreeSketch {
        fn new() -> Self {
            TreeSketch {
                like: QuantileSketch::for_latency(),
                buckets: BTreeMap::new(),
                zeros: 0,
                count: 0,
                collapsed: 0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        fn push_weighted(&mut self, value: f64, weight: u64) {
            if weight == 0 {
                return;
            }
            self.count += weight;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
            if value <= MIN_INDEXABLE {
                self.zeros += weight;
                return;
            }
            *self.buckets.entry(self.like.key_of(value)).or_insert(0) += weight;
            self.collapse();
        }

        fn collapse(&mut self) {
            while self.buckets.len() > MAX_BUCKETS {
                let (_, low_count) = self.buckets.pop_first().unwrap();
                *self.buckets.values_mut().next().unwrap() += low_count;
                self.collapsed += low_count;
            }
        }

        fn merge(&mut self, other: &TreeSketch) {
            for (&key, &count) in &other.buckets {
                *self.buckets.entry(key).or_insert(0) += count;
            }
            self.zeros += other.zeros;
            self.count += other.count;
            self.collapsed += other.collapsed;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            self.collapse();
        }

        fn quantile(&self, q: f64) -> Option<f64> {
            if self.count == 0 {
                return None;
            }
            let rank = (q * (self.count - 1) as f64).round() as u64;
            if rank < self.zeros {
                return Some(self.min.max(0.0));
            }
            let mut cum = self.zeros;
            for (&key, &count) in &self.buckets {
                cum += count;
                if cum > rank {
                    return Some(QuantileSketch::value_of(key).clamp(self.min, self.max));
                }
            }
            Some(self.max)
        }

        fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            out.extend_from_slice(&RELATIVE_ERROR.to_bits().to_le_bytes());
            out.extend_from_slice(&(MAX_BUCKETS as u64).to_le_bytes());
            out.extend_from_slice(&self.count.to_le_bytes());
            out.extend_from_slice(&self.zeros.to_le_bytes());
            out.extend_from_slice(&self.min.to_bits().to_le_bytes());
            out.extend_from_slice(&self.max.to_bits().to_le_bytes());
            for (&key, &count) in &self.buckets {
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&count.to_le_bytes());
            }
            out
        }
    }

    /// Everything a caller can read, equal to the bit.
    fn assert_same(array: &QuantileSketch, tree: &TreeSketch, at: &str) {
        assert_eq!(array.encode(), tree.encode(), "{at}: encode");
        assert_eq!(array.count(), tree.count, "{at}: count");
        assert_eq!(array.min(), (tree.count > 0).then_some(tree.min), "{at}: min");
        assert_eq!(array.max(), (tree.count > 0).then_some(tree.max), "{at}: max");
        let tree_len = tree.buckets.len() + usize::from(tree.zeros > 0);
        assert_eq!(array.bucket_len(), tree_len, "{at}: bucket_len");
        assert_eq!(array.collapsed(), tree.collapsed, "{at}: collapsed");
        let qs = [0.0, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0];
        let singles: Option<Vec<f64>> = qs.iter().map(|&q| tree.quantile(q)).collect();
        let bits =
            |v: Option<Vec<f64>>| v.map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let array_singles: Option<Vec<f64>> = qs.iter().map(|&q| array.quantile(q)).collect();
        assert_eq!(bits(array_singles), bits(singles.clone()), "{at}: quantile");
        assert_eq!(bits(array.quantiles(&qs)), bits(singles), "{at}: quantiles");
        // The layout invariant the array's shortcuts lean on.
        assert_eq!(array.occupied, array.buckets.iter().filter(|&&c| c > 0).count(), "{at}");
        assert!(array.buckets.first() != Some(&0) && array.buckets.last() != Some(&0), "{at}");
    }

    /// One value from a family picked to reach a particular corner of the
    /// store: negative keys, growth at the front, the zero bucket, keys far
    /// from everything seen so far.
    fn searched_value(rng: &mut SplitMix64, step: usize) -> f64 {
        match rng.next_u64() % 8 {
            // Twelve decades around 1: negative and positive keys.
            0 | 1 => 10f64.powf(rng.next_f64() * 12.0 - 6.0),
            // A tight cluster: repeated hits on few slots.
            2 => 40.0 + rng.next_f64() * 20.0,
            // Descending with the step: every push grows the front.
            3 => 1e3 * 0.97f64.powi(step as i32),
            // The zero bucket, on and below the threshold.
            4 => [0.0, MIN_INDEXABLE, MIN_INDEXABLE / 3.0][step % 3],
            // Just above the threshold: the lowest keys there are.
            5 => MIN_INDEXABLE * (1.0 + rng.next_f64()),
            // Far above: long empty runs between occupied slots.
            6 => 10f64.powf(8.0 + rng.next_f64() * 12.0),
            // Exact powers of gamma-ish boundaries.
            _ => 1.0202f64.powi((rng.next_f64() * 600.0) as i32 - 300),
        }
    }

    /// `quantile` as it was before it walked from the nearer end: one
    /// bottom-up pass, slot by slot.
    fn quantile_bottom_up(s: &QuantileSketch, q: f64) -> Option<f64> {
        if s.count == 0 {
            return None;
        }
        let rank = (q * (s.count - 1) as f64).round() as u64;
        if rank < s.zeros {
            return Some(s.min.max(0.0));
        }
        let mut cum = s.zeros;
        for (slot, &count) in s.buckets.iter().enumerate() {
            cum += count;
            if cum > rank {
                return Some(QuantileSketch::value_of(s.offset + slot as i32).clamp(s.min, s.max));
            }
        }
        Some(s.max)
    }

    #[test]
    fn quantile_from_either_end_matches_the_bottom_up_walk() {
        let mut sketches = Vec::new();
        let mut zeros_only = QuantileSketch::for_latency();
        for _ in 0..7 {
            zeros_only.push(0.0);
        }
        sketches.push(zeros_only);
        for (value, copies, zeros) in [(42.0, 1, 0), (42.0, 9, 0), (3.5, 4, 5)] {
            let mut single = QuantileSketch::for_latency();
            (0..zeros).for_each(|_| single.push(0.0));
            single.push_weighted(value, copies);
            assert_eq!(single.occupied, 1);
            sketches.push(single);
        }
        let mut rng = SplitMix64::new(97);
        for i in 0..40 {
            let mut s = QuantileSketch::for_latency();
            // Every fifth sketch takes enough values to pass the cap.
            let steps = if i % 5 == 0 { 2_000 + i * 100 } else { 1 + i * 13 };
            for step in 0..steps {
                s.push_weighted(searched_value(&mut rng, step), 1 + rng.next_u64() % 5);
            }
            sketches.push(s);
        }
        assert!(sketches.iter().any(|s| s.collapsed() > 0));
        let eps = 1e-9;
        for (i, s) in sketches.iter().enumerate() {
            for q in [0.0, 0.25, 0.5 - eps, 0.5, 0.5 + eps, 0.75, 0.95, 0.99, 1.0] {
                let (got, want) = (s.quantile(q), quantile_bottom_up(s, q));
                assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "sketch {i}, q {q}");
            }
            // Every rank at which the answer can change — the last of each
            // slot and the first of the next — found from both ends.
            let mut cum = s.zeros;
            for &count in &s.buckets {
                cum += count;
                for rank in [cum.saturating_sub(1), cum] {
                    if (s.zeros..s.count).contains(&rank) {
                        let above = s.count - 1 - rank;
                        assert_eq!(s.slot_from_top(above), s.slot_from_bottom(rank), "{i} {rank}");
                    }
                }
            }
        }
    }

    #[test]
    fn array_store_matches_the_tree_store_to_the_bit() {
        const POOL: usize = 3;
        let mut collapsed = 0;
        for seed in 0..12u64 {
            let mut rng = SplitMix64::new(seed * 31 + 1_024);
            let fresh = || (QuantileSketch::for_latency(), TreeSketch::new());
            let mut pool: Vec<(QuantileSketch, TreeSketch)> = (0..POOL).map(|_| fresh()).collect();
            for step in 0..240 {
                let at = format!("seed {seed} step {step}");
                let target = (rng.next_u64() % POOL as u64) as usize;
                match rng.next_u64() % 10 {
                    // Merge another pool member in: overlapping or disjoint
                    // ranges, collapses mid-merge past the cap.
                    0 | 1 => {
                        let source = (target + 1 + (rng.next_u64() % 2) as usize) % POOL;
                        let (array, tree) = pool[source].clone();
                        pool[target].0.merge(&array);
                        pool[target].1.merge(&tree);
                    }
                    // Start one member over on a narrow band of its own, so
                    // later merges meet disjoint ranges.
                    2 => {
                        pool[target] = fresh();
                        let centre = 10f64.powf(rng.next_f64() * 16.0 - 8.0);
                        for _ in 0..12 {
                            let v = centre * (1.0 + rng.next_f64());
                            pool[target].0.push(v);
                            pool[target].1.push_weighted(v, 1);
                        }
                    }
                    3 => {
                        let v = searched_value(&mut rng, step);
                        let w = rng.next_u64() % 1_000;
                        pool[target].0.push_weighted(v, w);
                        pool[target].1.push_weighted(v, w);
                    }
                    // A burst over fifteen decades: a few of these pass the
                    // cap, so pushes and merges collapse.
                    4 => {
                        for _ in 0..300 {
                            let v = wide(&mut rng);
                            pool[target].0.push(v);
                            pool[target].1.push_weighted(v, 1);
                        }
                    }
                    _ => {
                        let v = searched_value(&mut rng, step);
                        pool[target].0.push(v);
                        pool[target].1.push_weighted(v, 1);
                    }
                }
                assert_same(&pool[target].0, &pool[target].1, &at);
                collapsed += usize::from(pool[target].0.collapsed() > 0);
            }
        }
        assert!(collapsed > 100, "{collapsed} steps saw a collapsed sketch");
    }
}
