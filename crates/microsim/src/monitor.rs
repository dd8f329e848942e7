//! The windowed metric store — the telemetry backbone.
//!
//! "Monitoring is a prerequisite for keeping developers aware of events in
//! production environments. With continuous experimentation, the importance
//! of monitoring applications even increases" (Section 2.5.1). Bifrost
//! checks query this store; Figure 4.6 plots its moving averages.
//!
//! Series are keyed by a free-form *scope* string (conventionally
//! `service@version` for infrastructure metrics and `exp:<name>/<variant>`
//! for experiment-level metrics) plus a [`MetricKind`]. A series keeps its
//! raw samples in arrival order, which is not time order: a version-scope
//! sample is stamped when its hop was dispatched but written when the hop
//! completes, so a long hop's sample lands behind later-stamped ones. Every
//! sample counts in its bucket wherever it lands. A window query resolves a
//! bucket it cuts from the raw tail by a binary search for the window's
//! edge and a walk from there, so a late sample counts in a cut bucket only
//! where that walk meets it.
//!
//! # Hot-path architecture
//!
//! At million-request scale the store is the busiest structure in the
//! system — every request hop writes two samples, and every Bifrost check
//! reads a trailing window. Nine mechanisms keep it off the critical path:
//!
//! * **Scope interning.** Scope strings are interned once into dense
//!   [`ScopeId`]s ([`cex_core::intern::Interner`], shared with the trace
//!   pipeline's span identity), so the request loop never allocates or
//!   hashes a `String` per hop.
//! * **Dense slots, one owner.** Series live in one `Vec<Option<Series>>`
//!   indexed `scope.index() * KIND_COUNT + kind` — a lookup is an index,
//!   not a hash. The store has one owner (the [`crate::sim::Simulation`]):
//!   writers (its merge step, the engine's trace drain and scope
//!   retirement) take `&mut self` or go through a [`SampleBatch`] that
//!   holds the store mutably, and readers (the engine's checks) take
//!   `&self`.
//! * **Batches that visit only their own slots.** A [`SampleBatch`] buffers
//!   samples per slot in buffers the store keeps, with their capacity,
//!   from one batch to the next, and notes each slot the first time it
//!   writes there. A flush ingests exactly those slots, in ascending slot
//!   order — the order a scan of every slot would meet them in, which is
//!   what decides the epochs new series draw — so a batch costs what it
//!   wrote, not the size of the slot table.
//! * **Bucketed pre-aggregation.** Each series maintains [`OnlineStats`]
//!   buckets one [`BUCKET_WIDTH`] wide — a constant, the same for every
//!   store — next to a raw sample tail. Window queries
//!   merge whole buckets for the interior of the window and resolve the
//!   two partially covered edge buckets from raw samples, so the
//!   documented closed-interval semantics are preserved exactly. Only
//!   buckets that hold a sample exist: two parallel ascending columns, the
//!   8-byte bucket indices and the 8-byte cells (next bullet), whose
//!   aggregates a fold merges in bucket order. A sample finds its bucket
//!   at the newest end (a late one bisects and, if its bucket never
//!   existed, inserts); a query gallops back from the newest end of the
//!   index column to the first bucket of its range — looks are trailing
//!   windows — and walks forward. So a query costs in proportion to the
//!   *non-empty* buckets in its window, flat in series length, and memory
//!   is in proportion to samples: a second, or a year, in which a series
//!   saw nothing costs nothing ([`MetricStore::state_bytes`]).
//! * **Buckets at the width they need.** A bucket that holds one sample is
//!   that sample: its cell is the value's 8 bytes, and the bucket costs
//!   16 B with its index. Its aggregate is rebuilt wherever one is needed —
//!   a fold's merge, a resumed read, a promotion — as the empty
//!   accumulator pushed once, which is what the bucket's own push made, to
//!   the bit. On its second sample a bucket moves to a per-series side
//!   column of 40-byte aggregates, where it folds its runs as it would
//!   have, and its cell keeps the position (a NaN bit pattern no
//!   operation makes, `SIDE_TAG`, marks one); such a bucket costs 56 B.
//!   Sparse series — a canary version under 1 rps — are mostly one-sample
//!   buckets; dense ones have few buckets either way.
//! * **Raw samples at the width they need.** The raw tail is two columns,
//!   behind one box. Times are `u32` milliseconds while every kept time is
//!   below 2³² ms (≈49.7 days), widened to `u64` once. Values take the
//!   narrowest exact width of every kept value — `u8` for integers in
//!   0..=255, `u16` up to 65535, then `f32`, then `f64` — and widen at
//!   most once to each, from the first value that does not fit (`Values`).
//!   A raw sample of a run shorter than 49.7 days, a 0/1 rate or a latency
//!   under 256 ms, costs 5 B. The times column is laid out as the
//!   one-deque tail it replaced would be, across its widening too (the
//!   layout rule, at `Times`); the values column is read by position only.
//! * **Bounded retention.** When a retention horizon is set
//!   ([`MetricStore::set_retention`]), raw samples older than the horizon
//!   are compacted away and only their buckets remain, bounding memory on
//!   unbounded runs. Queries reaching into the compacted region are
//!   answered at bucket granularity (the horizon defaults past the longest
//!   check window, so live checks never hit it).
//! * **Resumable cumulative windows.** A window with a fixed start that
//!   only grows at its trailing end (a sequential check's, since phase
//!   start) is not re-folded from its first bucket on every look:
//!   [`MetricStore::window_summary_resumed`] continues from a
//!   [`WindowCursor`] holding the fold over the leading buckets, and only
//!   the new buckets and the raw-resolved trailing edge are visited. The
//!   fold is the same sequence of merges and pushes, so the summary is
//!   bit-identical. Validity rule: the cursor keeps only buckets the
//!   window covers whole (so only for a start on a bucket boundary) and
//!   older than the series' newest bucket, and it is used only while the
//!   series' epoch — renewed on creation and on any write into an older
//!   bucket — the window start, and a `now` not before the kept buckets
//!   all still match; otherwise the same call folds from scratch.
//! * **One fold per distinct window.** Every strategy of a fleet reads the
//!   same application-scope window at the same tick, and a phase boundary
//!   reads each of its checks' windows a second time. Each series
//!   remembers its last trailing-window answer, so a repeated look at an
//!   unchanged window returns the remembered [`Summary`] instead of
//!   folding again. Validity rule: the memo is keyed by the window's two
//!   edges, the series' sample total — which every write moves, a late
//!   one included — and its compaction floor — which every compaction
//!   moves — and a cleared scope is a new series with no memo. Over one
//!   key the fold reads the same buckets and samples, so the remembered
//!   summary is the fold's to the bit. A hit still counts as a windowed
//!   read: the count is journaled per tick.
//!
//! Everything stays deterministic: ingestion order is driven by the
//! virtual clock, bucket contents and compaction depend only on the data,
//! and reads never change an answer (a cursor is the caller's, not the
//! store's, and a memo only hands back what the fold would compute) — so
//! summaries are bit-exact across repeated same-seed runs.

use crate::app::{Application, VersionId};
use cex_core::intern::Interner;
use cex_core::metrics::{MetricKind, OnlineStats, Sample, Summary};
use cex_core::obs::WallProbe;
use cex_core::simtime::{SimDuration, SimTime};
use std::cell::{Cell, OnceCell};
use std::collections::VecDeque;
use std::mem::size_of;

/// Width of a pre-aggregation bucket, the same for every store.
pub const BUCKET_WIDTH: SimDuration = SimDuration::from_secs(1);
const WIDTH_MS: u64 = BUCKET_WIDTH.as_millis();

/// Samples buffered in a [`SampleBatch`] before an automatic flush.
const BATCH_FLUSH_THRESHOLD: usize = 4_096;

/// Number of [`MetricKind`] variants, for dense per-series indexing.
const KIND_COUNT: usize = MetricKind::all().len();

/// An interned metric scope. Dense, copyable, and stable for the lifetime
/// of the store that issued it — the hot-path replacement for scope
/// strings. Backed by the shared [`cex_core::intern`] interner (PR 3
/// introduced the pattern for metric scopes; the trace pipeline reuses it
/// for span identity).
pub type ScopeId = cex_core::intern::Sym;

/// Dense index of a series: [`MetricStore`] and [`SampleBatch`] share it.
fn slot_of(scope: ScopeId, metric: MetricKind) -> usize {
    scope.index() * KIND_COUNT + metric as usize
}

/// `column.partition_point(|&b| b < target)` for an ascending column,
/// searched from the newest end: steps back 1, 2, 4, … entries until one is
/// below `target`, then bisects that last step. Looks are trailing windows,
/// so a window of `k` buckets costs O(log k) reads of the 8-byte column
/// whatever the series' length, and a look resumed near the newest bucket
/// costs one or two.
fn first_at_or_after(column: &[u64], target: u64) -> usize {
    // Every entry at or past `hi` is at or after `target`.
    let mut hi = column.len();
    let mut step = 1;
    while hi > 0 {
        let lo = hi.saturating_sub(step);
        if column[lo] < target {
            return lo + 1 + column[lo + 1..hi].partition_point(|&b| b < target);
        }
        hi = lo;
        step *= 2;
    }
    0
}

/// `(capacity, length of the front slice)`: where a deque's buffer ends
/// and where its contents wrap — the layout every times column keeps
/// equal to the one-deque tail's (see [`Times`]).
fn layout<T>(deque: &VecDeque<T>) -> (usize, usize) {
    (deque.capacity(), deque.as_slices().0.len())
}

/// A raw tail's times, in ms: `u32` while every time the series has kept
/// is below 2³² ms (≈49.7 days), and `u64` from the first one that is not.
///
/// **Layout rule.** The column takes exactly the pushes, extends and pops a
/// `VecDeque<Sample>` of the same samples would, so it has that deque's
/// capacities and wraps where it would — the growth policy is the same for
/// 4-, 8- and 16-byte elements. That is load-bearing: a cut bucket's
/// samples are found with [`VecDeque::partition_point`] over an
/// arrival-ordered tail, which searches the two halves of a wrapped deque
/// apart, so a column laid out differently can count a different late
/// sample. The widening, made once in a series' life, keeps the layout too
/// ([`widen`]).
#[derive(Debug)]
enum Times {
    Narrow(VecDeque<u32>),
    Wide(VecDeque<u64>),
}

impl Default for Times {
    fn default() -> Self {
        Times::Narrow(VecDeque::new())
    }
}

impl Times {
    fn len(&self) -> usize {
        match self {
            Times::Narrow(t) => t.len(),
            Times::Wide(t) => t.len(),
        }
    }

    /// The `i`-th time, oldest first.
    fn get(&self, i: usize) -> Option<u64> {
        match self {
            Times::Narrow(t) => t.get(i).map(|&ms| u64::from(ms)),
            Times::Wide(t) => t.get(i).copied(),
        }
    }

    /// [`VecDeque::partition_point`] for "before `ms`".
    fn partition_point(&self, ms: u64) -> usize {
        match self {
            Times::Narrow(t) => t.partition_point(|&x| u64::from(x) < ms),
            Times::Wide(t) => t.partition_point(|&x| x < ms),
        }
    }

    /// Bytes a time takes.
    fn width(&self) -> usize {
        match self {
            Times::Narrow(_) => size_of::<u32>(),
            Times::Wide(_) => size_of::<u64>(),
        }
    }

    /// Appends the times of `samples`, having widened the column first —
    /// once in the series' life — if one of them is not below 2³² ms.
    fn extend<'a>(&mut self, samples: impl Iterator<Item = &'a Sample> + Clone) {
        if let Times::Narrow(narrow) = self {
            if samples.clone().all(|s| u32::try_from(s.time.as_millis()).is_ok()) {
                narrow.extend(samples.map(|s| s.time.as_millis() as u32));
                return;
            }
            *self = Times::Wide(widen(narrow));
        }
        if let Times::Wide(wide) = self {
            wide.extend(samples.map(|s| s.time.as_millis()));
        }
    }

    /// Pops the oldest times while they are before `ms`, one `pop_front`
    /// at a time as the one-deque tail does; returns how many went.
    fn pop_before(&mut self, ms: u64) -> usize {
        fn pop<T: Copy + Into<u64>>(times: &mut VecDeque<T>, ms: u64) -> usize {
            let mut popped = 0;
            while times.front().is_some_and(|&t| t.into() < ms) {
                times.pop_front();
                popped += 1;
            }
            popped
        }
        match self {
            Times::Narrow(t) => pop(t, ms),
            Times::Wide(t) => pop(t, ms),
        }
    }
}

/// `narrow`'s times as `u64`s, in a deque with its [`layout`]: the same
/// capacity, the head at the same place. `collect` would not do — it sizes
/// the buffer to the length and starts it at the head. With public calls
/// only: filled to its capacity without growing, a deque's front slice runs
/// from its head to the buffer's end, which tells where the head is; a new
/// deque of that capacity is brought there by pushes and pops, then takes
/// the times.
fn widen(narrow: &mut VecDeque<u32>) -> VecDeque<u64> {
    let (len, capacity) = (narrow.len(), narrow.capacity());
    narrow.resize(capacity, 0);
    let head = capacity - narrow.as_slices().0.len();
    narrow.truncate(len);
    let mut wide = VecDeque::with_capacity(capacity);
    for _ in 0..head {
        wide.push_back(0);
        wide.pop_front();
    }
    wide.extend(narrow.iter().map(|&ms| u64::from(ms)));
    assert!(layout(&wide) == layout(narrow), "a widened times column keeps its layout");
    wide
}

/// A raw tail's values at the narrowest width that holds every value the
/// series has kept, exactly: `u8` while each is an integer in 0..=255 —
/// 0/1 rates and most latencies in milliseconds are — `u16` while each is
/// an integer in 0..=65535, then `f32`, then `f64`. Each width holds every
/// value of the narrower ones, so the column only widens: at most once to
/// each width in the series' life, from the first value that does not fit,
/// straight to the narrowest width that holds it. Read by position, so the
/// column's own layout does not matter (unlike [`Times`]).
#[derive(Debug)]
enum Values {
    U8(VecDeque<u8>),
    U16(VecDeque<u16>),
    F32(VecDeque<f32>),
    F64(VecDeque<f64>),
}

impl Default for Values {
    fn default() -> Self {
        Values::U8(VecDeque::new())
    }
}

/// `$body` with `$column` bound to the column of `$values`, whatever its
/// width: every operation on a values column is written once, here or
/// generic over [`Width`].
macro_rules! with_column {
    ($values:expr, $column:ident => $body:expr) => {
        match $values {
            Values::U8($column) => $body,
            Values::U16($column) => $body,
            Values::F32($column) => $body,
            Values::F64($column) => $body,
        }
    };
}

/// A type a values column can be kept in.
trait Width: Copy + Into<f64> {
    /// `value` as this type: exact where it [`fits`](Width::fits).
    fn cast(value: f64) -> Self;

    /// This value as an `f64`, exactly.
    fn get(self) -> f64 {
        self.into()
    }

    /// `true` when `value` converts to this type and back to the same
    /// bits. Compared bit for bit, so that `-0.0`, a NaN and an infinity
    /// never fit an integer type, and `-0.0` stays negative and a NaN
    /// keeps its payload in `f32`.
    fn fits(value: f64) -> bool {
        Self::cast(value).get().to_bits() == value.to_bits()
    }
}

macro_rules! widths {
    ($($t:ty),*) => {$(
        impl Width for $t {
            fn cast(value: f64) -> Self {
                value as $t
            }
        }
    )*};
}

widths!(u8, u16, f32, f64);

/// Appends `values` to `column` if every one of them fits its type;
/// `false`, with the column untouched, if one does not.
fn extend_exact<T: Width>(
    column: &mut VecDeque<T>,
    values: impl Iterator<Item = f64> + Clone,
) -> bool {
    let fits = values.clone().all(T::fits);
    if fits {
        column.extend(values.map(T::cast));
    }
    fits
}

impl Values {
    fn len(&self) -> usize {
        with_column!(self, v => v.len())
    }

    /// The `i`-th value, oldest first.
    fn at(&self, i: usize) -> f64 {
        with_column!(self, v => v[i].get())
    }

    /// Bytes a value takes.
    fn width(&self) -> usize {
        fn element<T>(_: &VecDeque<T>) -> usize {
            size_of::<T>()
        }
        with_column!(self, v => element(v))
    }

    /// Appends the values of `samples`, having widened the column first —
    /// to the narrowest width that holds both the values it keeps and
    /// these — if one of them does not fit its width.
    fn extend<'a>(&mut self, samples: impl Iterator<Item = &'a Sample> + Clone) {
        let values = samples.map(|s| s.value);
        if !with_column!(self, v => extend_exact(v, values.clone())) {
            let held = (0..self.len()).map(|i| self.at(i));
            *self = Values::narrowest(held.chain(values));
        }
    }

    /// The narrowest column that holds every one of `values`, exactly.
    fn narrowest(values: impl Iterator<Item = f64> + Clone) -> Values {
        fn column<T: Width>(values: impl Iterator<Item = f64> + Clone) -> Option<VecDeque<T>> {
            values.clone().all(T::fits).then(|| values.map(T::cast).collect())
        }
        column(values.clone())
            .map(Values::U8)
            .or_else(|| column(values.clone()).map(Values::U16))
            .or_else(|| column(values.clone()).map(Values::F32))
            .unwrap_or_else(|| Values::F64(values.collect()))
    }

    /// Drops the `n` oldest values.
    fn drop_front(&mut self, n: usize) {
        with_column!(self, v => drop(v.drain(..n)))
    }
}

/// A series' raw tail: the samples with `time >= raw_floor_ms`, in arrival
/// order, as two columns, index for index — and, behind the same box, the
/// side column of the series' buckets that are not one sample.
#[derive(Debug, Default)]
struct Tail {
    times: Times,
    values: Values,
    /// The aggregates of the buckets whose [`BucketCell`] holds a position,
    /// in the order they left their cell; never shrinks, so a position
    /// stays good for the series' life.
    side: Vec<OnlineStats>,
}

// A narrow raw sample is a 4-byte time and a 1-byte value, and a values
// column, whatever its width, one deque and its tag.
const _: () = assert!(
    size_of::<u32>() + size_of::<u8>() == 5
        && size_of::<Values>() == size_of::<VecDeque<u8>>() + size_of::<usize>()
);
// A bucket is an 8-byte index and an 8-byte cell, and 40 bytes of side
// column only once it holds more than its one sample.
const _: () = assert!(size_of::<BucketCell>() == 8 && size_of::<OnlineStats>() == 40);
// A slot stays within 96 bytes: the raw columns and the side column sit
// behind one box.
#[cfg(not(test))]
const _: () = assert!(size_of::<Option<Series>>() <= 96);

impl Tail {
    /// Appends `samples` to both columns.
    fn extend<'a>(&mut self, samples: impl Iterator<Item = &'a Sample> + Clone) {
        self.times.extend(samples.clone());
        self.values.extend(samples);
    }
}

/// The top 32 bits of a [`BucketCell`] that holds a position: those of a
/// NaN that no operation makes — a NaN an operation makes is the default
/// one, `0x7FF8_0000_…` or `0xFFF8_0000_…`, or an operand's — so a sample
/// with these bits is the only one that cannot be its own cell.
const SIDE_TAG: u64 = 0xFFFB_51DE;

/// A bucket at the width it needs, in 8 bytes: its one sample's bits, or
/// `SIDE_TAG` above the position of its aggregate in the series' side
/// column ([`Tail::side`]). A bucket leaves its cell for the side column
/// on its second sample — or at once, if its one sample's bits carry the
/// tag — and never comes back.
#[derive(Debug, Clone, Copy)]
struct BucketCell(u64);

impl BucketCell {
    /// The cell of a bucket whose one sample is `value`, if its bits are
    /// not a position's.
    fn one(value: f64) -> Option<BucketCell> {
        (value.to_bits() >> 32 != SIDE_TAG).then_some(BucketCell(value.to_bits()))
    }

    /// The cell of the bucket whose aggregate is `side[position]`.
    fn side(position: usize) -> BucketCell {
        let position = u32::try_from(position).expect("a series' side column is indexed by u32");
        BucketCell(SIDE_TAG << 32 | u64::from(position))
    }

    /// The bucket's one sample, or `Err` with its aggregate's position in
    /// the side column.
    #[inline(always)]
    fn decode(self) -> Result<f64, usize> {
        if self.0 >> 32 == SIDE_TAG {
            Err(self.0 as u32 as usize)
        } else {
            Ok(f64::from_bits(self.0))
        }
    }

    /// The aggregate of this bucket of `series`, chosen without a branch on
    /// the bucket's kind: a fold meets one-sample and side buckets in no
    /// order a predictor could learn. A position's bits read as a value are
    /// a NaN, whose pushed aggregate is made and dropped.
    #[inline(always)]
    fn stats(self, series: &Series) -> OnlineStats {
        let alone = one(f64::from_bits(self.0));
        let position = if self.0 >> 32 == SIDE_TAG { self.0 as u32 as usize } else { usize::MAX };
        *series.tail.side.get(position).unwrap_or(&alone)
    }
}

/// The aggregate of a bucket holding the one sample `value`: the empty
/// accumulator pushed once, which is what the bucket's first sample made of
/// it, to the bit. A literal `{1, x, 0, x, x}` is not: the pushed mean of
/// `-0.0` is `+0.0`, and a pushed NaN leaves both extrema infinite.
#[inline(always)]
fn one(value: f64) -> OnlineStats {
    let mut stats = OnlineStats::new();
    stats.push(value);
    stats
}

/// Folds a same-bucket run into `stats`: pushed one by one when short, and
/// otherwise over four interleaved Welford chains merged exactly (parallel
/// Welford), so that aggregation is not latency-bound on one serial divide
/// chain.
fn fold_run(stats: &mut OnlineStats, run: &[Sample]) {
    if run.len() < 16 {
        for s in run {
            stats.push(s.value);
        }
        return;
    }
    let mut chains = [OnlineStats::new(); 4];
    let mut chunks = run.chunks_exact(4);
    for c in chunks.by_ref() {
        chains[0].push(c[0].value);
        chains[1].push(c[1].value);
        chains[2].push(c[2].value);
        chains[3].push(c[3].value);
    }
    for s in chunks.remainder() {
        chains[0].push(s.value);
    }
    let (head, tail) = chains.split_at_mut(1);
    for chain in tail {
        head[0].merge(chain);
    }
    stats.merge(&head[0]);
}

/// One metric series: its non-empty pre-aggregated buckets plus a raw
/// sample tail.
#[derive(Debug, Default)]
struct Series {
    /// Samples ever recorded (survives compaction).
    total: u64,
    /// Latest sample time seen, in ms — drives retention.
    max_time_ms: u64,
    /// Indices of the buckets holding at least one sample, ascending;
    /// bucket `i` covers `[i*WIDTH_MS, (i+1)*WIDTH_MS)`. A stretch of time
    /// without a sample has no entry, so the two columns grow with the
    /// samples, never with elapsed time.
    bucket_idx: Vec<u64>,
    /// `cells[p]` is bucket `bucket_idx[p]`: its one sample, or where its
    /// aggregate is in the side column.
    cells: Vec<BucketCell>,
    /// The raw samples with `time >= raw_floor_ms`, in arrival order: a
    /// times column laid out as the one-deque tail would be (the layout
    /// rule, [`Times`]) and a values column; and the side column of the
    /// buckets' aggregates — behind one box so that a slot stays 96 bytes.
    tail: Box<Tail>,
    /// The raw samples as one deque, the layout the two columns replaced:
    /// the oracle the test fold reads.
    #[cfg(test)]
    raw: VecDeque<Sample>,
    /// Every bucket's aggregate, `buckets[p]` for `bucket_idx[p]`: the
    /// 40-byte column the cells replaced, which the test fold reads.
    #[cfg(test)]
    buckets: Vec<OnlineStats>,
    /// Buckets that left their cell, by the path their run took:
    /// `[pushed, four chains]`.
    #[cfg(test)]
    promotions: [u32; 2],
    /// Bucket-aligned compaction floor: raw samples below it were
    /// compacted away and only their buckets remain.
    raw_floor_ms: u64,
    /// Store-wide unique stamp of "every bucket but the newest is as it
    /// was": renewed when the series is created and whenever a sample
    /// lands in a bucket older than the newest (see [`WindowCursor`]).
    epoch: u64,
    /// The last trailing-window answer, boxed on the series' first
    /// windowed read so that a slot nobody reads keeps its size.
    memo: OnceCell<Box<Cell<Memo>>>,
}

/// One series' last trailing-window answer and everything it was a
/// function of.
#[derive(Debug, Clone, Copy)]
struct Memo {
    from_ms: u64,
    to_ms: u64,
    /// [`Series::total`] at the fold: moves with every write.
    total: u64,
    /// [`Series::raw_floor_ms`] at the fold: moves with every compaction.
    raw_floor_ms: u64,
    summary: Summary,
}

impl Series {
    /// Index of the newest bucket, `None` before the first sample.
    fn newest_bucket(&self) -> Option<u64> {
        self.bucket_idx.last().copied()
    }

    /// Position of bucket `idx` in the columns: `Ok` if the series has it,
    /// `Err` with the position it is to be entered at if not. The virtual
    /// clock puts every sample but a late one in the newest bucket or a new
    /// one after it — O(1); a late sample bisects.
    fn find_bucket(&self, idx: u64) -> Result<usize, usize> {
        match self.newest_bucket() {
            Some(newest) if idx == newest => Ok(self.cells.len() - 1),
            Some(newest) if idx < newest => self.bucket_idx.binary_search(&idx),
            _ => Err(self.cells.len()),
        }
    }

    /// Enters bucket `idx` at `pos` as `cell` — mid-column if a late sample
    /// opened it. Nothing is filled in between, however far `idx` is from
    /// its neighbours.
    fn enter_bucket(&mut self, pos: usize, idx: u64, cell: BucketCell) {
        // The columns grow by half rather than double: a doubled column can
        // stand half empty, one grown by half at most a third.
        if self.cells.len() == self.cells.capacity() {
            let extra = (self.cells.len() / 2).max(4);
            self.bucket_idx.reserve_exact(extra);
            self.cells.reserve_exact(extra);
        }
        self.bucket_idx.insert(pos, idx);
        self.cells.insert(pos, cell);
    }

    /// Moves `stats` into the side column, grown by half like the bucket
    /// columns, and returns the cell that points at it.
    fn side_cell(&mut self, stats: OnlineStats) -> BucketCell {
        let side = &mut self.tail.side;
        if side.len() == side.capacity() {
            side.reserve_exact((side.len() / 2).max(4));
        }
        side.push(stats);
        BucketCell::side(side.len() - 1)
    }

    /// Folds a same-bucket run into bucket `idx`. A new bucket of one
    /// sample is that sample's cell; any other bucket is an aggregate in
    /// the side column, which a one-sample bucket enters rebuilt as
    /// [`one`] and then folds the run into exactly as the aggregate it
    /// stands for would.
    fn fold_into_bucket(&mut self, idx: u64, run: &[Sample]) {
        let found = self.find_bucket(idx);
        #[cfg(test)]
        {
            let pos = found.unwrap_or_else(|pos| {
                self.buckets.insert(pos, OnlineStats::new());
                pos
            });
            fold_run(&mut self.buckets[pos], run);
            let promoted = found.is_ok_and(|pos| self.cells[pos].decode().is_ok());
            self.promotions[usize::from(run.len() >= 16)] += u32::from(promoted);
        }
        match found {
            Ok(pos) => match self.cells[pos].decode() {
                Err(position) => fold_run(&mut self.tail.side[position], run),
                Ok(value) => {
                    let mut stats = one(value);
                    fold_run(&mut stats, run);
                    self.cells[pos] = self.side_cell(stats);
                }
            },
            Err(pos) => {
                let cell = match run {
                    [sample] => BucketCell::one(sample.value),
                    _ => None,
                };
                let cell = cell.unwrap_or_else(|| {
                    let mut stats = OnlineStats::new();
                    fold_run(&mut stats, run);
                    self.side_cell(stats)
                });
                self.enter_bucket(pos, idx, cell);
            }
        }
    }

    /// Bytes of series state held: a length times an element size for each
    /// of the index column, the cells, the side column and the raw tail's
    /// two columns.
    fn state_bytes(&self) -> usize {
        self.bucket_idx.len() * size_of::<u64>()
            + self.cells.len() * size_of::<BucketCell>()
            + self.tail.side.len() * size_of::<OnlineStats>()
            + self.tail.times.len() * (self.tail.times.width() + self.tail.values.width())
    }

    /// Appends a run of samples in one go — the batched ingestion path.
    ///
    /// The bucket is looked up once per same-bucket run instead of once
    /// per sample, the raw tail is extended with a block copy, and long
    /// runs feed four interleaved Welford chains ([`fold_run`]). Counts,
    /// extrema, and the raw tail are identical to pushing each sample
    /// individually; bucket mean and variance may differ by floating-point
    /// rounding only, and stay deterministic for a given sample sequence.
    /// Samples come in arrival order, mostly but not always time order; a
    /// late one starts a new run in its own bucket. Returns `true` when a
    /// sample landed in a bucket older than the newest — the caller renews
    /// [`Series::epoch`].
    fn push_run(&mut self, samples: &[Sample]) -> bool {
        let mut rewrote_history = false;
        let mut i = 0;
        while i < samples.len() {
            let idx = samples[i].time.as_millis() / WIDTH_MS;
            rewrote_history |= self.newest_bucket().is_some_and(|newest| idx < newest);
            let b_start = idx * WIDTH_MS;
            let b_end = b_start + WIDTH_MS;
            let mut j = i;
            while j < samples.len() {
                let t = samples[j].time.as_millis();
                if t < b_start || t >= b_end {
                    break;
                }
                self.max_time_ms = self.max_time_ms.max(t);
                j += 1;
            }
            let run = &samples[i..j];
            self.fold_into_bucket(idx, run);
            self.total += run.len() as u64;
            // The columns take a block copy, or a filtered extend, as a
            // `VecDeque<Sample>` would: the same reservations, so the same
            // capacities.
            if self.raw_floor_ms == 0 {
                self.tail.extend(run.iter());
                #[cfg(test)]
                self.raw.extend(run.iter().copied());
            } else {
                let floor = self.raw_floor_ms;
                let kept = run.iter().filter(|s| s.time.as_millis() >= floor);
                self.tail.extend(kept.clone());
                #[cfg(test)]
                self.raw.extend(kept.copied());
            }
            i = j;
        }
        rewrote_history
    }

    /// Drops raw samples older than `horizon` behind the series' latest
    /// sample, in whole-bucket units (their buckets remain).
    fn compact(&mut self, horizon_ms: u64) {
        let cutoff = self.max_time_ms.saturating_sub(horizon_ms);
        let aligned = (cutoff / WIDTH_MS) * WIDTH_MS;
        if aligned <= self.raw_floor_ms {
            return;
        }
        let dropped = self.tail.times.pop_before(aligned);
        self.tail.values.drop_front(dropped);
        #[cfg(test)]
        for _ in 0..dropped {
            self.raw.pop_front();
        }
        self.raw_floor_ms = aligned;
    }

    /// The bucket indices a query over `from_ms <= time < to_ms` reaches;
    /// empty when the interval is.
    fn bucket_span(from_ms: u64, to_ms: u64) -> std::ops::Range<u64> {
        if to_ms > from_ms {
            from_ms / WIDTH_MS..(to_ms - 1) / WIDTH_MS + 1
        } else {
            0..0
        }
    }

    /// The fold of the whole query `from_ms <= time < to_ms`, from an
    /// empty accumulator.
    fn fold_query(&self, from_ms: u64, to_ms: u64) -> OnlineStats {
        fold_buckets(self, Self::bucket_span(from_ms, to_ms), from_ms, to_ms, OnlineStats::new())
    }

    /// [`Series::fold_query`]'s summary, continued from `cursor` where it is
    /// still good (see [`WindowCursor`] for the rule). The buckets, their
    /// order and every merge and push are those of the fold from scratch,
    /// so the summary is the same to the bit.
    fn resume(&self, from_ms: u64, to_ms: u64, cursor: &WindowCursor) -> (Summary, WindowCursor) {
        let span = Self::bucket_span(from_ms, to_ms);
        // What a later look may skip: buckets the window covers whole on
        // both sides — so the fold only merged them, whatever the raw tail
        // and the compaction floor were — and older than the newest, so a
        // write to any of them has renewed the epoch.
        let keep_to = match self.newest_bucket() {
            Some(newest) if from_ms.is_multiple_of(WIDTH_MS) => {
                (to_ms / WIDTH_MS).min(newest).max(span.start)
            }
            _ => span.start,
        };
        let good = cursor.epoch == self.epoch
            && cursor.from_ms == from_ms
            && (span.start..=keep_to).contains(&cursor.next_bucket);
        let (acc, start) =
            if good { (cursor.acc, cursor.next_bucket) } else { (OnlineStats::new(), span.start) };
        let acc = fold_buckets(self, start..keep_to, from_ms, to_ms, acc);
        let kept = WindowCursor { from_ms, next_bucket: keep_to, epoch: self.epoch, acc };
        let acc = fold_buckets(self, keep_to..span.end, from_ms, to_ms, acc);
        (acc.summary(), kept)
    }

    /// The remembered summary of `from_ms <= time < to_ms`, if the memo
    /// holds that window and nothing has been written or compacted since.
    fn remembered(&self, from_ms: u64, to_ms: u64) -> Option<Summary> {
        let memo = self.memo.get()?.get();
        let same = (memo.from_ms, memo.to_ms, memo.total, memo.raw_floor_ms)
            == (from_ms, to_ms, self.total, self.raw_floor_ms);
        same.then_some(memo.summary)
    }

    /// Remembers `acc`'s summary as the answer for `from_ms..to_ms` and
    /// returns it.
    fn remember(&self, from_ms: u64, to_ms: u64, acc: &OnlineStats) -> Summary {
        let summary = acc.summary();
        let memo =
            Memo { from_ms, to_ms, total: self.total, raw_floor_ms: self.raw_floor_ms, summary };
        match self.memo.get() {
            Some(cell) => cell.set(memo),
            None => drop(self.memo.set(Box::new(Cell::new(memo)))),
        }
        summary
    }

    /// Summary of the trailing window `from_ms <= time < to_ms`: the
    /// remembered one, or the fold's, remembered.
    fn window(&self, from_ms: u64, to_ms: u64) -> Summary {
        self.remembered(from_ms, to_ms).unwrap_or_else(|| {
            let acc = self.fold_query(from_ms, to_ms);
            self.remember(from_ms, to_ms, &acc)
        })
    }
}

/// The store's one fold: the non-empty buckets of `series` with an index
/// in `buckets`, in order, folded into `acc` for the query
/// `from_ms <= time < to_ms`. A bucket the query covers whole, or one
/// compacted below the raw floor (bucket granularity), is merged; a
/// partially covered edge pushes its raw samples in the query, from one
/// raw cursor per call.
#[inline(always)]
fn fold_buckets(
    series: &Series,
    buckets: std::ops::Range<u64>,
    from_ms: u64,
    to_ms: u64,
    mut acc: OnlineStats,
) -> OnlineStats {
    // No bucket is past the latest sample's: a look at a series that has
    // since gone quiet — a version out of traffic — folds nothing, and is
    // decided on the series' own fields without a read of either column.
    if buckets.is_empty() || buckets.start > series.max_time_ms / WIDTH_MS {
        return acc;
    }
    let first = first_at_or_after(&series.bucket_idx, buckets.start);
    let mut raw_cursor: Option<usize> = None;
    for (&b, cell) in series.bucket_idx[first..].iter().zip(&series.cells[first..]) {
        if b >= buckets.end {
            break;
        }
        let b_start = b * WIDTH_MS;
        let b_end = b_start + WIDTH_MS;
        if (from_ms <= b_start && to_ms >= b_end) || b_start < series.raw_floor_ms {
            acc.merge(&cell.stats(series));
        } else {
            let s = from_ms.max(b_start);
            let e = to_ms.min(b_end);
            let Tail { times, values, .. } = &*series.tail;
            let mut i = *raw_cursor.get_or_insert_with(|| times.partition_point(s));
            while let Some(t) = times.get(i) {
                if t >= e {
                    break;
                }
                if t >= s {
                    acc.push(values.at(i));
                }
                i += 1;
            }
            raw_cursor = Some(i);
        }
    }
    acc
}

/// Where a cumulative window read left off, so the next look at the same
/// window — same start, a later `now` — continues instead of restarting
/// ([`MetricStore::window_summary_resumed`]). It holds the left fold over
/// the leading buckets that can no longer change the answer; the trailing
/// ones are folded again on every look and never kept.
///
/// **Validity rule.** A cursor is used only if nothing it folded can have
/// changed, and is otherwise ignored in favour of the fold from scratch:
///
/// * it keeps only buckets the window covers whole on both sides (so the
///   window start must sit on a bucket boundary — an unaligned start keeps
///   nothing) and older than the series' newest bucket: the fold merged
///   them and never touched the raw tail or the compaction floor;
/// * the series carries an epoch, unique across the store, renewed when
///   the series is created (so also when it is cleared and recorded
///   again) and whenever a sample lands in a bucket older than the newest:
///   the cursor must carry the same one;
/// * the window start must be the same, and `now` not so much earlier
///   that a kept bucket sticks out of the window.
///
/// A cursor belongs to the store that issued it; handing it back with
/// another series is harmless (the epoch differs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowCursor {
    from_ms: u64,
    /// First bucket not folded into `acc`.
    next_bucket: u64,
    /// [`Series::epoch`] at the time of the fold; 0 matches no series.
    epoch: u64,
    acc: OnlineStats,
}

impl WindowCursor {
    /// A cursor that resumes nothing: the first look of a window.
    pub fn new() -> Self {
        WindowCursor { from_ms: 0, next_bucket: 0, epoch: 0, acc: OnlineStats::new() }
    }
}

impl Default for WindowCursor {
    fn default() -> Self {
        WindowCursor::new()
    }
}

/// Append-mostly, single-owner metric store: writes take `&mut self`,
/// reads `&self`. See the module docs for the interning / dense-slot /
/// bucketing / retention architecture.
#[derive(Debug)]
pub struct MetricStore {
    interner: Interner,
    /// Slot [`slot_of`]`(scope, kind)`, grown on demand; `None` until the
    /// series' first sample and again after its scope is cleared.
    series: Vec<Option<Series>>,
    /// Retention horizon in ms; 0 = unbounded (raw samples kept forever).
    retention_ms: u64,
    /// Series epochs issued so far (see [`WindowCursor`]).
    epochs: u64,
    /// Windowed reads served so far (monitoring-cost accounting for the
    /// Bifrost execution journal). A `Cell` because a windowed read takes
    /// `&self` — the engine's checks read through a shared reference, as
    /// does anyone holding [`crate::sim::Simulation::store`] — and still
    /// counts.
    window_reads: Cell<u64>,
    /// The open [`SampleBatch`]'s buffers, slot [`slot_of`]`(scope, kind)`,
    /// grown on demand. Each keeps its series' samples in arrival order and
    /// is empty between batches, at the capacity it last needed.
    pending: Vec<Vec<Sample>>,
    /// The slots whose buffer is non-empty, each once, in the order their
    /// first sample arrived.
    dirty: Vec<usize>,
    /// Non-empty [`SampleBatch`] flushes. Batches fill in canonical merge
    /// order and flush at deterministic boundaries, so this is a pure
    /// function of the seed (registry counter `store.batch_flushes`).
    batch_flushes: u64,
    /// Slots ingested by batch flushes so far.
    #[cfg(test)]
    flushed_slots: u64,
    /// Wall time spent in batch flushes (sidecar profile only).
    flush_probe: WallProbe,
    /// Wall time spent serving windowed queries (sidecar profile only).
    query_probe: WallProbe,
}

impl Default for MetricStore {
    fn default() -> Self {
        MetricStore::new()
    }
}

impl MetricStore {
    /// Creates an empty store with unbounded retention.
    pub fn new() -> Self {
        MetricStore {
            interner: Interner::new(),
            series: Vec::new(),
            retention_ms: 0,
            epochs: 0,
            window_reads: Cell::new(0),
            pending: Vec::new(),
            dirty: Vec::new(),
            batch_flushes: 0,
            #[cfg(test)]
            flushed_slots: 0,
            flush_probe: WallProbe::new(),
            query_probe: WallProbe::new(),
        }
    }

    /// Sets (or clears) the retention horizon: raw samples older than
    /// `horizon` behind a series' latest sample are compacted into their
    /// buckets. `None` keeps raw samples forever.
    pub fn set_retention(&mut self, horizon: Option<SimDuration>) {
        self.retention_ms = horizon.map_or(0, SimDuration::as_millis);
    }

    /// The active retention horizon, if any.
    pub fn retention(&self) -> Option<SimDuration> {
        match self.retention_ms {
            0 => None,
            ms => Some(SimDuration::from_millis(ms)),
        }
    }

    /// Interns `scope`, returning its dense id (idempotent).
    pub fn intern(&mut self, scope: &str) -> ScopeId {
        self.interner.intern(scope)
    }

    /// Resolves an already-interned scope (never interns).
    pub fn resolve(&self, scope: &str) -> Option<ScopeId> {
        self.interner.resolve(scope)
    }

    /// Interns the `service@version` scope of every deployed version,
    /// indexed by `VersionId` — the per-request hot path looks scopes up
    /// here instead of formatting labels.
    pub fn intern_version_scopes(&mut self, app: &Application) -> Vec<ScopeId> {
        app.versions().map(|(id, _)| self.intern(&app.version_label(id))).collect()
    }

    /// Starts a batched ingestion session: samples are buffered and each
    /// series gets its whole run at once (on drop, on
    /// [`SampleBatch::flush`], or when the buffer fills).
    pub fn batch(&mut self) -> SampleBatch<'_> {
        SampleBatch { store: self, buffered: 0 }
    }

    /// Records one observation.
    ///
    /// Samples for one series may arrive out of time order (the simulation
    /// writes a hop's samples, stamped at dispatch, when the hop
    /// completes). Each counts in its bucket; in a bucket a window cuts, a
    /// late sample counts only where the query's walk of the raw tail meets
    /// it (see the module docs).
    pub fn record(&mut self, scope: &str, metric: MetricKind, sample: Sample) {
        let scope = self.intern(scope);
        self.record_id(scope, metric, sample);
    }

    /// Convenience: records `value` at `time`.
    pub fn record_value(&mut self, scope: &str, metric: MetricKind, time: SimTime, value: f64) {
        self.record(scope, metric, Sample::new(time, value));
    }

    /// Records one observation under an interned scope.
    pub fn record_id(&mut self, scope: ScopeId, metric: MetricKind, sample: Sample) {
        let MetricStore { series, epochs, retention_ms, .. } = self;
        ingest(series, epochs, *retention_ms, slot_of(scope, metric), &[sample]);
    }

    fn series_at(&self, scope: ScopeId, metric: MetricKind) -> Option<&Series> {
        self.series.get(slot_of(scope, metric))?.as_ref()
    }

    /// Number of samples ever recorded into a series (compaction does not
    /// reduce it).
    pub fn count(&self, scope: &str, metric: MetricKind) -> usize {
        let series = self.resolve(scope).and_then(|id| self.series_at(id, metric));
        series.map_or(0, |s| s.total as usize)
    }

    /// All scopes currently holding at least one series.
    pub fn scopes(&self) -> Vec<String> {
        let mut scopes: Vec<String> = self
            .series
            .chunks(KIND_COUNT)
            .enumerate()
            .filter(|(_, kinds)| kinds.iter().any(Option::is_some))
            .map(|(scope, _)| self.interner.name(ScopeId::from_index(scope)).to_string())
            .collect();
        scopes.sort();
        scopes
    }

    /// Summary of the samples with `from <= time < to`.
    pub fn summary_between(
        &self,
        scope: &str,
        metric: MetricKind,
        from: SimTime,
        to: SimTime,
    ) -> Summary {
        let series = self.resolve(scope).and_then(|id| self.series_at(id, metric));
        series.map_or_else(Summary::default, |s| {
            s.fold_query(from.as_millis(), to.as_millis()).summary()
        })
    }

    /// Summary of the trailing window — the **closed** interval
    /// `[now - window, now]`: samples at exactly `now - window` and at
    /// exactly `now` are both included.
    pub fn window_summary(
        &self,
        scope: &str,
        metric: MetricKind,
        now: SimTime,
        window: SimDuration,
    ) -> Summary {
        match self.resolve(scope) {
            Some(id) => self.window_summary_id(id, metric, now, window),
            None => {
                let _t = self.query_probe.time();
                self.window_reads.set(self.window_reads.get() + 1);
                Summary::default()
            }
        }
    }

    /// [`MetricStore::window_summary`] for an interned scope.
    pub fn window_summary_id(
        &self,
        scope: ScopeId,
        metric: MetricKind,
        now: SimTime,
        window: SimDuration,
    ) -> Summary {
        let _t = self.query_probe.time();
        self.window_reads.set(self.window_reads.get() + 1);
        let (from_ms, to_ms) = trailing(now, window);
        self.series_at(scope, metric).map_or_else(Summary::default, |s| s.window(from_ms, to_ms))
    }

    /// [`MetricStore::window_summary_id`] for a window that only ever
    /// grows at its trailing end — a cumulative read since a fixed start —
    /// continued from the cursor the previous look returned, and returning
    /// the one for the next. The summary is bit-identical to
    /// `window_summary_id`'s whatever cursor is passed (see
    /// [`WindowCursor`] for when one is ignored); it counts as one
    /// windowed read just the same.
    pub fn window_summary_resumed(
        &self,
        scope: ScopeId,
        metric: MetricKind,
        now: SimTime,
        window: SimDuration,
        cursor: &WindowCursor,
    ) -> (Summary, WindowCursor) {
        let _t = self.query_probe.time();
        self.window_reads.set(self.window_reads.get() + 1);
        let (from_ms, to_ms) = trailing(now, window);
        self.series_at(scope, metric).map_or_else(
            || (Summary::default(), WindowCursor::new()),
            |s| s.resume(from_ms, to_ms, cursor),
        )
    }

    /// Number of windowed reads served since creation — one per read of
    /// one series (a [`MetricStore::window_summary`] call, a remembered
    /// answer included) and one per whole [`MetricStore::moving_average`]
    /// sweep: the monitoring-cost counter the Bifrost journal samples per
    /// tick.
    pub fn window_reads(&self) -> u64 {
        self.window_reads.get()
    }

    /// Non-empty [`SampleBatch`] flushes completed against this store —
    /// deterministic (registry counter `store.batch_flushes`).
    pub fn batch_flushes(&self) -> u64 {
        self.batch_flushes
    }

    /// Number of interned metric scopes (registry gauge
    /// `store.interner.scopes`).
    pub fn interned_scopes(&self) -> u64 {
        self.interner.len() as u64
    }

    /// Wall-clock probe over batch flushes, for folding into a profiler.
    pub fn flush_probe(&self) -> &WallProbe {
        &self.flush_probe
    }

    /// Wall-clock probe over windowed queries, for folding into a
    /// profiler.
    pub fn query_probe(&self) -> &WallProbe {
        &self.query_probe
    }

    /// Arms or disarms both wall-clock probes (see
    /// [`cex_core::obs::ObsConfig`]).
    pub fn set_probes_armed(&mut self, armed: bool) {
        self.flush_probe.set_armed(armed);
        self.query_probe.set_armed(armed);
    }

    /// Moving average: for each step boundary in `[start, end)` emits the
    /// mean of the trailing `window`. This regenerates the "3-second moving
    /// average of monitored response times" of Figure 4.6.
    ///
    /// The whole sweep is one bulk read of the series: it counts once
    /// against [`MetricStore::window_reads`], and advances two cursors over
    /// the raw tail instead of re-scanning the window per step.
    pub fn moving_average(
        &self,
        scope: &str,
        metric: MetricKind,
        start: SimTime,
        end: SimTime,
        window: SimDuration,
        step: SimDuration,
    ) -> Vec<(SimTime, f64)> {
        assert!(!step.is_zero(), "step must be positive");
        let _t = self.query_probe.time();
        self.window_reads.set(self.window_reads.get() + 1);
        let Some(id) = self.resolve(scope) else { return Vec::new() };
        let Some(series) = self.series_at(id, metric) else { return Vec::new() };

        let mut out = Vec::new();
        // Two-pointer sweep state over the raw tail: `sum`/`cnt` track the
        // samples in `raw[lo..hi)`, both cursors only ever advance.
        let mut lo = 0usize;
        let mut hi = 0usize;
        let mut sum = 0.0f64;
        let mut cnt = 0u64;
        let mut t = start;
        while t < end {
            // Closed interval [t - window, t], like window_summary.
            let from_ms = t.as_millis().saturating_sub(window.as_millis());
            let to_ms = t.as_millis() + 1;
            if from_ms >= series.raw_floor_ms {
                let Tail { times, values, .. } = &*series.tail;
                while let Some(t) = times.get(hi) {
                    if t >= to_ms {
                        break;
                    }
                    sum += values.at(hi);
                    cnt += 1;
                    hi += 1;
                }
                while let Some(t) = times.get(lo) {
                    if lo >= hi || t >= from_ms {
                        break;
                    }
                    sum -= values.at(lo);
                    cnt -= 1;
                    lo += 1;
                }
                if cnt > 0 {
                    out.push((t, sum / cnt as f64));
                }
            } else {
                // Window reaches into the compacted region: answer this
                // step at bucket granularity.
                let acc = series.fold_query(from_ms, to_ms);
                if let Some(mean) = acc.mean() {
                    out.push((t, mean));
                }
            }
            t += step;
        }
        out
    }

    /// Removes every series of a scope (e.g. when an experiment finishes).
    pub fn clear_scope(&mut self, scope: &str) {
        if let Some(id) = self.resolve(scope) {
            let first = id.index() * KIND_COUNT;
            self.series.iter_mut().skip(first).take(KIND_COUNT).for_each(|series| *series = None);
        }
    }

    /// Raw samples currently held in memory across all series — the
    /// capacity figure the engine benches track. With a retention horizon
    /// set this stays bounded while [`MetricStore::total_recorded`] keeps
    /// growing.
    pub fn total_samples(&self) -> usize {
        self.series.iter().flatten().map(|s| s.tail.times.len()).sum()
    }

    /// Samples ever recorded across all live series (compaction does not
    /// reduce it; clearing a scope does).
    pub fn total_recorded(&self) -> u64 {
        self.series.iter().flatten().map(|s| s.total).sum()
    }

    /// Bytes of state held: every live series' index column, buckets and
    /// raw tail, plus the slot table. Each term is a length times an
    /// element size — never an allocator capacity — so the figure is a
    /// pure function of the samples recorded, and it follows them: a
    /// sample costs its raw entry and at most one bucket, a silence costs
    /// nothing. A read series' remembered answer (one fixed-size box each)
    /// is a cache of a read, not state, and is not counted.
    pub fn state_bytes(&self) -> usize {
        self.series.len() * size_of::<Option<Series>>()
            + self.series.iter().flatten().map(Series::state_bytes).sum::<usize>()
    }
}

/// The half-open interval `from_ms..to_ms` of the trailing window
/// `[now - window, now]`, closed at both ends.
fn trailing(now: SimTime, window: SimDuration) -> (u64, u64) {
    (now.as_millis().saturating_sub(window.as_millis()), now.as_millis() + 1)
}

/// The one ingestion path: appends `samples` to the series at `slot` of
/// `table` (created on first use, under a new epoch drawn from `epochs`)
/// and applies the retention horizon. It takes the store's fields rather
/// than the store so that a flush can time itself on the store's probe
/// meanwhile.
fn ingest(
    table: &mut Vec<Option<Series>>,
    epochs: &mut u64,
    retention_ms: u64,
    slot: usize,
    samples: &[Sample],
) {
    if slot >= table.len() {
        table.resize_with(slot + 1, || None);
    }
    let mut new_epoch = || {
        *epochs += 1;
        *epochs
    };
    let series =
        table[slot].get_or_insert_with(|| Series { epoch: new_epoch(), ..Series::default() });
    if series.push_run(samples) {
        series.epoch = new_epoch();
    }
    if retention_ms != 0 {
        series.compact(retention_ms);
    }
}

/// A buffered ingestion session over a [`MetricStore`].
///
/// Samples are appended to dense per-series buffers laid out like the
/// store's own series table, so the buffered path does no hashing. The
/// buffers belong to the store and keep their capacity from one batch to
/// the next. A batch notes each slot the first time it writes to it, and a
/// flush hands each of those series its whole run, in ascending slot order,
/// without visiting any other slot. Flushes happen when the buffer reaches
/// an internal threshold, on [`SampleBatch::flush`], and on drop; callers
/// flush at deterministic boundaries (the simulation flushes per window),
/// so store contents never depend on wall-clock timing.
#[derive(Debug)]
pub struct SampleBatch<'a> {
    store: &'a mut MetricStore,
    buffered: usize,
}

impl SampleBatch<'_> {
    /// Buffers one observation under an interned scope.
    pub fn record_id(&mut self, scope: ScopeId, metric: MetricKind, sample: Sample) {
        let MetricStore { pending, dirty, .. } = &mut *self.store;
        let slot = slot_of(scope, metric);
        if slot >= pending.len() {
            pending.resize_with(slot + 1, Vec::new);
        }
        if pending[slot].is_empty() {
            dirty.push(slot);
        }
        pending[slot].push(sample);
        self.buffered += 1;
        if self.buffered >= BATCH_FLUSH_THRESHOLD {
            self.flush();
        }
    }

    /// Convenience: buffers `value` at `time`.
    pub fn record_value_id(
        &mut self,
        scope: ScopeId,
        metric: MetricKind,
        time: SimTime,
        value: f64,
    ) {
        self.record_id(scope, metric, Sample::new(time, value));
    }

    /// Writes all buffered samples through to the store.
    pub fn flush(&mut self) {
        if self.buffered == 0 {
            return;
        }
        let MetricStore {
            series,
            epochs,
            retention_ms,
            pending,
            dirty,
            batch_flushes,
            #[cfg(test)]
            flushed_slots,
            flush_probe,
            ..
        } = &mut *self.store;
        let _t = flush_probe.time();
        *batch_flushes += 1;
        // Ascending, as a scan of every slot would meet them: ingestion
        // order decides which series draws which epoch.
        dirty.sort_unstable();
        for slot in dirty.drain(..) {
            #[cfg(test)]
            {
                *flushed_slots += 1;
            }
            let samples = &mut pending[slot];
            ingest(series, epochs, *retention_ms, slot, samples);
            samples.clear();
        }
        self.buffered = 0;
    }
}

impl Drop for SampleBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Batched, interned telemetry sink for the request hot path.
///
/// Wraps a [`SampleBatch`] with the pre-interned scope ids the request core
/// needs: one per deployed version (indexed by [`VersionId`]) plus the
/// end-to-end application scope. Recording a hop is an array index and a
/// buffered push — no string formatting or hashing. Drop writes the buffer
/// through to the store; the simulation drops its sink at window boundaries
/// so store contents stay deterministic.
#[derive(Debug)]
pub(crate) struct MetricSink<'a> {
    batch: SampleBatch<'a>,
    version_scopes: &'a [ScopeId],
    app_scope: ScopeId,
}

impl<'a> MetricSink<'a> {
    /// Creates a sink over `store`. `version_scopes` must be indexed by
    /// `VersionId` (see [`MetricStore::intern_version_scopes`]);
    /// `app_scope` receives end-to-end metrics.
    pub(crate) fn new(
        store: &'a mut MetricStore,
        version_scopes: &'a [ScopeId],
        app_scope: ScopeId,
    ) -> Self {
        MetricSink { batch: store.batch(), version_scopes, app_scope }
    }

    /// Records a per-version observation under its `service@version` scope.
    pub(crate) fn record_version(
        &mut self,
        version: VersionId,
        metric: MetricKind,
        time: SimTime,
        value: f64,
    ) {
        self.batch.record_value_id(self.version_scopes[version.0], metric, time, value);
    }

    /// Records an end-to-end (user-perceived) observation.
    pub(crate) fn record_app(&mut self, metric: MetricKind, time: SimTime, value: f64) {
        self.batch.record_value_id(self.app_scope, metric, time, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::rng::SplitMix64;
    use std::ops::Range;

    const RT: MetricKind = MetricKind::ResponseTime;

    /// The first time a narrow times column cannot hold, 2³² ms.
    const CROSSING: u64 = 1 << 32;

    /// `x`'s bits, one pattern for every NaN: the sign and payload of a
    /// NaN that arithmetic makes are unspecified, so two compilations of
    /// one fold may differ there and nowhere else.
    fn canon(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    fn bits(s: Summary) -> [u64; 5] {
        [s.count, canon(s.mean), canon(s.std_dev), canon(s.min), canon(s.max)]
    }

    /// An aggregate's five fields as bits: the count, mean and extrema
    /// read directly, and `m2` through the variance of a merge of the
    /// aggregate into a fixed one of two samples.
    fn stats_bits(s: &OnlineStats) -> [u64; 5] {
        let f = |x: Option<f64>| x.map_or(u64::MAX, canon);
        let mut probe = one(0.0);
        probe.push(1.0);
        probe.merge(s);
        [s.count(), f(s.mean()), f(probe.variance()), f(s.min()), f(s.max())]
    }

    /// The scope of the hand-built histories.
    const S: &str = "svc@1.0.0";

    /// `value(t) = t / 100` for `t` = 0 ms, 100 ms, …, 9,900 ms.
    fn ramp(store: &mut MetricStore) {
        (0..100u64)
            .for_each(|i| store.record_value(S, RT, SimTime::from_millis(i * 100), i as f64));
    }

    /// `value(t) = t` at each of `seconds`.
    fn seconds(store: &mut MetricStore, seconds: impl IntoIterator<Item = u64>) {
        seconds
            .into_iter()
            .for_each(|t| store.record_value(S, RT, SimTime::from_secs(t), t as f64));
    }

    /// The ramp under a 2 s retention horizon.
    fn retained_ramp(store: &mut MetricStore) {
        store.set_retention(Some(SimDuration::from_secs(2)));
        ramp(store);
    }

    fn numbers(s: Summary) -> Vec<f64> {
        vec![s.count as f64, s.mean, s.min, s.max]
    }

    fn between(store: &MetricStore, from_ms: u64, to_ms: u64) -> Vec<f64> {
        let (from, to) = (SimTime::from_millis(from_ms), SimTime::from_millis(to_ms));
        numbers(store.summary_between(S, RT, from, to))
    }

    fn window(store: &MetricStore, now_ms: u64, window_ms: u64) -> Vec<f64> {
        let (now, window) = (SimTime::from_millis(now_ms), SimDuration::from_millis(window_ms));
        numbers(store.window_summary(S, RT, now, window))
    }

    /// A moving average as `[t_ms, value, t_ms, value, …]`.
    fn sweep(store: &MetricStore, [from, to, window, step]: [u64; 4]) -> Vec<f64> {
        let (from, to) = (SimTime::from_millis(from), SimTime::from_millis(to));
        let (window, step) = (SimDuration::from_millis(window), SimDuration::from_millis(step));
        let points = store.moving_average(S, RT, from, to, window, step);
        points.into_iter().flat_map(|(t, v)| [t.as_millis() as f64, v]).collect()
    }

    /// A hand-built case: a history written into a fresh store, a read of
    /// it, and the numbers the read must give.
    type Row = (&'static str, fn(&mut MetricStore), fn(&MetricStore) -> Vec<f64>, &'static [f64]);

    #[test]
    fn hand_built_histories_read_as_stated() {
        let rows: [Row; 13] = [
            (
                // No retention: every sample stays raw.
                "counts and scopes",
                ramp,
                |s| {
                    let err = s.count(S, MetricKind::ErrorRate);
                    let scopes = usize::from(s.scopes() == [S]);
                    let raw = [s.total_samples(), usize::from(s.retention().is_none())];
                    [s.count(S, RT), err, scopes, raw[0], raw[1]].map(|n| n as f64).into()
                },
                &[100.0, 0.0, 1.0, 100.0, 1.0],
            ),
            // Samples at 1,000..=1,900 ms: values 10..=19.
            ("half-open", ramp, |s| between(s, 1_000, 2_000), &[10.0, 14.5, 10.0, 19.0]),
            // Both edges cut a bucket: samples at 1,300..=3,700 ms.
            ("unaligned", ramp, |s| between(s, 1_250, 3_750), &[25.0, 25.0, 13.0, 37.0]),
            ("trailing", ramp, |s| window(s, 9_900, 500), &[6.0, 96.5, 94.0, 99.0]),
            (
                "closed",
                |s| seconds(s, [1, 2, 3]),
                |s| window(s, 3_000, 2_000),
                &[3.0, 2.0, 1.0, 3.0],
            ),
            (
                "moving average",
                ramp,
                |s| sweep(s, [3_000, 6_000, 3_000, 1_000]),
                &[3e3, 15.0, 4e3, 25.0, 5e3, 35.0],
            ),
            (
                // Two bursts, 10 s apart: a step whose window is empty
                // emits no point.
                "moving average over a silence",
                |s| seconds(s, (0..5).chain(15..20)),
                |s| sweep(s, [0, 20_000, 2_000, 1_000]),
                &[
                    0.0, 0.0, 1e3, 0.5, 2e3, 1.0, 3e3, 2.0, 4e3, 3.0, 5e3, 3.5, 6e3, 4.0, 15e3,
                    15.0, 16e3, 15.5, 17e3, 16.0, 18e3, 17.0, 19e3, 18.0,
                ],
            ),
            (
                // The sweep's points, and those that are not the mean of the
                // trailing window at their step.
                "moving average against window means",
                ramp,
                |s| {
                    let points = sweep(s, [0, 10_000, 700, 300]);
                    let off = points
                        .chunks(2)
                        .filter(|p| (window(s, p[0] as u64, 700)[1] - p[1]).abs() > 1e-9);
                    vec![points.len() as f64 / 2.0, off.count() as f64]
                },
                &[34.0, 0.0],
            ),
            (
                "clear_scope",
                |s| {
                    ramp(s);
                    s.record_value("other", MetricKind::ErrorRate, SimTime::ZERO, 0.0);
                    s.clear_scope(S);
                },
                |s| vec![s.count(S, RT) as f64, s.count("other", MetricKind::ErrorRate) as f64],
                &[0.0, 1.0],
            ),
            (
                "interning",
                |s| ["a", "b", "a"].into_iter().for_each(|name| _ = s.intern(name)),
                |s| {
                    [s.resolve("a"), s.resolve("b"), s.resolve("c")]
                        .map(|id| id.map_or(-1.0, |id| id.index() as f64))
                        .into()
                },
                &[0.0, 1.0, -1.0],
            ),
            (
                // Counts, extrema and the raw-resolved edges are identical;
                // bucket mean and variance may differ by rounding only,
                // because a batch folds long runs over four Welford chains.
                "a batch records what single records do",
                |s| {
                    let samples = (0..500u64)
                        .map(|i| Sample::new(SimTime::from_millis(i * 10), (i as f64).sin()));
                    samples.clone().for_each(|x| s.record_value(S, RT, x.time, x.value));
                    let batched = s.intern("batched");
                    let mut batch = s.batch();
                    samples.for_each(|x| batch.record_id(batched, MetricKind::ErrorRate, x));
                },
                |s| {
                    let (now, window) = (SimTime::from_secs(4), SimDuration::from_secs(2));
                    let [a, b] = [(S, RT), ("batched", MetricKind::ErrorRate)]
                        .map(|(scope, m)| s.window_summary(scope, m, now, window));
                    vec![
                        a.count as f64 - b.count as f64,
                        a.min - b.min,
                        a.max - b.max,
                        a.mean - b.mean,
                        a.std_dev - b.std_dev,
                    ]
                },
                &[0.0; 5],
            ),
            (
                // 7,000..=9,900 ms stay raw (the horizon, bucket-aligned);
                // counts stay and recent windows are still exact.
                "retention",
                retained_ramp,
                |s| {
                    [
                        vec![s.total_recorded() as f64, s.total_samples() as f64],
                        window(s, 9_900, 500),
                    ]
                    .concat()
                },
                &[100.0, 30.0, 6.0, 96.5, 94.0, 99.0],
            ),
            (
                // The whole range sees every sample; a window cutting a
                // compacted bucket takes it whole: [1,250, 2,000) reads
                // 1,000..=1,900 ms.
                "compacted buckets are read whole",
                retained_ramp,
                |s| [between(s, 0, 10_000), between(s, 1_250, 2_000)].concat(),
                &[100.0, 49.5, 0.0, 99.0, 10.0, 14.5, 10.0, 19.0],
            ),
        ];
        for (name, history, read, expected) in rows {
            let mut store = MetricStore::new();
            history(&mut store);
            let got = read(&store);
            let close = |(g, e): (&f64, &f64)| (g - e).abs() <= 1e-9 * e.abs().max(1.0);
            assert!(
                got.len() == expected.len() && got.iter().zip(expected).all(close),
                "{name}: {got:?}"
            );
        }
    }

    /// The fold [`fold_buckets`] replaced, kept as it was: the oracle that
    /// single, remembered and resumed reads are all held to, so that a
    /// defect in the one fold they share cannot pass by agreeing with
    /// itself.
    impl Series {
        /// Folds the non-empty buckets with an index in `buckets`, in order,
        /// of the query `from_ms <= time < to_ms` into `acc`: whole buckets
        /// merged for the fully covered interior, raw samples pushed
        /// individually for the partially covered edges. Edge buckets below
        /// the compaction floor are merged whole (bucket granularity).
        fn fold(&self, buckets: Range<u64>, from_ms: u64, to_ms: u64, acc: &mut OnlineStats) {
            // No bucket is past the latest sample's: a look at a series that has
            // since gone quiet — a version out of traffic — ends here, on the
            // series' own fields, without a read of either column.
            if buckets.is_empty() || buckets.start > self.max_time_ms / WIDTH_MS {
                return;
            }
            let mut raw_cursor: Option<usize> = None;
            let first = first_at_or_after(&self.bucket_idx, buckets.start);
            for (&b, stats) in self.bucket_idx[first..].iter().zip(&self.buckets[first..]) {
                if b >= buckets.end {
                    break;
                }
                let b_start = b * WIDTH_MS;
                let b_end = b_start + WIDTH_MS;
                if (from_ms <= b_start && to_ms >= b_end) || b_start < self.raw_floor_ms {
                    // Fully covered, or compacted below the raw floor: merge
                    // the pre-aggregated bucket.
                    acc.merge(stats);
                } else {
                    // Partially covered edge, raw-backed: exact resolution.
                    let s = from_ms.max(b_start);
                    let e = to_ms.min(b_end);
                    let start = *raw_cursor.get_or_insert_with(|| {
                        self.raw.partition_point(|x| x.time.as_millis() < s)
                    });
                    let mut i = start;
                    while let Some(sample) = self.raw.get(i) {
                        let t = sample.time.as_millis();
                        if t >= e {
                            break;
                        }
                        if t >= s {
                            acc.push(sample.value);
                        }
                        i += 1;
                    }
                    raw_cursor = Some(i);
                }
            }
        }
    }

    impl Times {
        /// The column's [`layout`], whatever its width.
        fn layout(&self) -> (usize, usize) {
            match self {
                Times::Narrow(t) => layout(t),
                Times::Wide(t) => layout(t),
            }
        }
    }

    impl Series {
        /// [`MetricStore::moving_average`]'s sweep as it read the one-deque
        /// tail, the oracle the two columns are held to.
        fn sweep(&self, start: u64, end: u64, window: u64, step: u64) -> Vec<(u64, f64)> {
            let (mut lo, mut hi, mut sum, mut cnt) = (0usize, 0usize, 0.0f64, 0u64);
            let mut out = Vec::new();
            for t in (start..end).step_by(step as usize) {
                let (from_ms, to_ms) = (t.saturating_sub(window), t + 1);
                if from_ms < self.raw_floor_ms {
                    let mut acc = OnlineStats::new();
                    self.fold(Series::bucket_span(from_ms, to_ms), from_ms, to_ms, &mut acc);
                    out.extend(acc.mean().map(|mean| (t, mean)));
                    continue;
                }
                while let Some(s) = self.raw.get(hi).filter(|s| s.time.as_millis() < to_ms) {
                    (sum, cnt, hi) = (sum + s.value, cnt + 1, hi + 1);
                }
                while let Some(s) =
                    self.raw.get(lo).filter(|s| lo < hi && s.time.as_millis() < from_ms)
                {
                    (sum, cnt, lo) = (sum - s.value, cnt - 1, lo + 1);
                }
                if cnt > 0 {
                    out.push((t, sum / cnt as f64));
                }
            }
            out
        }

        /// `true` when the two columns hold the one-deque tail: the same
        /// times, laid out alike — capacity and wrap — and the same values
        /// to the bit.
        fn columns_are_the_tail(&self) -> bool {
            let Tail { times, values, .. } = &*self.tail;
            times.layout() == layout(&self.raw)
                && times.len() == self.raw.len()
                && values.len() == self.raw.len()
                && self.raw.iter().enumerate().all(|(i, s)| {
                    times.get(i) == Some(s.time.as_millis())
                        && values.at(i).to_bits() == s.value.to_bits()
                })
        }

        /// `true` when the cells and the side column hold the 40-byte
        /// column to the bit: a cell is a sample exactly where its bucket
        /// aggregates that one sample, the side column holds the other
        /// buckets — those of two samples or more, or of one whose bits
        /// carry the tag — each once, and nothing else.
        fn cells_are_the_buckets(&self) -> bool {
            let side = &self.tail.side;
            let mut pointed_at = vec![false; side.len()];
            self.cells.len() == self.buckets.len()
                && self.cells.iter().zip(&self.buckets).all(|(&cell, shadow)| {
                    let fits = match cell.decode() {
                        Ok(_) => shadow.count() == 1,
                        Err(position) => {
                            let once = !std::mem::replace(&mut pointed_at[position], true);
                            // Alone on the side only as the tag's NaN (whose
                            // payload the pushed mean need not keep).
                            once && (shadow.count() > 1 || shadow.mean().is_some_and(f64::is_nan))
                        }
                    };
                    fits && stats_bits(&cell.stats(self)) == stats_bits(shadow)
                })
                && pointed_at.iter().all(|&p| p)
        }

        fn wide(&self) -> bool {
            matches!(self.tail.values, Values::F64(_))
        }

        fn wide_times(&self) -> bool {
            matches!(self.tail.times, Times::Wide(_))
        }
    }

    /// The bytes `value` needs, stated apart from [`Width::fits`]: one for
    /// an integer in 0..=255, two for one up to 65535 — a negative zero is
    /// neither, nor is a NaN or an infinity, whose fractional part is a
    /// NaN — four for an exact `f32`, and eight for any other.
    fn needs(value: f64) -> usize {
        let whole = value.fract() == 0.0 && value.is_sign_positive();
        if whole && value <= 255.0 {
            1
        } else if whole && value <= 65_535.0 {
            2
        } else if f64::from(value as f32).to_bits() == value.to_bits() {
            4
        } else {
            8
        }
    }

    /// Width differential: a searched history per case of one series whose
    /// values cross every width's edge — 0/1, 255/256, 65535/65536,
    /// fractions, a negative zero, NaNs with and without a payload an `f32`
    /// keeps, infinities — in single writes, late writes (some below the
    /// compaction floor, so never kept), batched runs that widen the column
    /// part-way, compactions with no write on retained cases, and
    /// silences. Each case starts at a random width and rises now and then
    /// by one to three widths. After every move the values column must be
    /// the one-deque tail the oracle reads, to the bit and as long, at the
    /// narrowest width that holds every value it ever kept; and a trailing
    /// read (now and then a moving average) must be the oracle fold's.
    fn value_widths(cases: std::ops::Range<u64>) {
        const MOVES: [&str; 6] =
            ["a sample", "a sample", "a late sample", "a batched run", "a compaction", "a silence"];
        let edges: [&[f64]; 4] = [
            &[0.0, 1.0, 254.0, 255.0],
            &[256.0, 257.0, 1_000.0, 65_534.0, 65_535.0],
            &[
                65_536.0,
                0.5,
                255.5,
                -1.0,
                -0.0,
                1e9,
                16_777_216.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::NAN,
                f64::from_bits(0x7FF8_0000_2000_0000),
                f64::from_bits(0xFFF8_0000_0000_0000),
            ],
            &[0.1, -0.1, 65_535.000_1, 16_777_217.0, 1e300, f64::from_bits(0x7FF8_0000_0000_0001)],
        ];
        for (tier, values) in edges.iter().enumerate() {
            assert!(values.iter().all(|&v| needs(v) == 1 << tier), "tier {tier}: {values:?}");
        }
        let index = |width: usize| width.trailing_zeros() as usize;
        let mut widenings = [[0u32; 4]; 4];
        let (mut compacted, mut wrapped, mut mid_run, mut negative_zeros) = ([0u32; 4], 0, 0, 0);
        for case in cases.clone() {
            let mut rng = SplitMix64::new(0x0057_1D7E ^ case);
            let mut store = MetricStore::new();
            let retained = rng.next_below(4) != 0;
            let horizon = WIDTH_MS * (1 + rng.next_below(5));
            if retained {
                store.set_retention(Some(SimDuration::from_millis(horizon)));
            }
            let scope = store.intern("svc@1");
            let mut top = [0, 0, 0, 1, 2, 3][rng.next_index(6)];
            let mut clock = rng.next_below(5_000);
            let mut expected = 1;
            // A value of the top tier a quarter of the time, else of any
            // tier up to it; an edge half the time, else drawn in its tier.
            let draw = |rng: &mut SplitMix64, top: usize| {
                let tier = if rng.next_below(4) == 0 { top } else { rng.next_index(top + 1) };
                if rng.next_below(2) == 0 {
                    return edges[tier][rng.next_index(edges[tier].len())];
                }
                match tier {
                    0 => rng.next_below(256) as f64,
                    1 => (256 + rng.next_below(65_280)) as f64,
                    2 => f64::from((rng.next_f64() * 1e4) as f32),
                    _ => rng.next_f64() * 1e4,
                }
            };
            for _ in 0..150 {
                if rng.next_below(20) == 0 {
                    top = (top + 1 + rng.next_index(3)).min(3);
                }
                let kind = rng.next_index(MOVES.len());
                let before = store.series_at(scope, RT).map_or((0, 1, false, 0), |a| {
                    let wrapped = !a.raw.as_slices().1.is_empty();
                    (a.raw_floor_ms, a.tail.values.width(), wrapped, a.raw.len())
                });
                let (floor, width_before, wrapped_before, len_before) = before;
                let mut written = Vec::new();
                match kind {
                    0 | 1 => {
                        clock += rng.next_below(400);
                        written.push((clock, draw(&mut rng, top)));
                    }
                    2 => {
                        let t = clock.saturating_sub(rng.next_below(4 * WIDTH_MS));
                        written.push((t, draw(&mut rng, top)));
                    }
                    3 => {
                        for _ in 0..1 + rng.next_below(30) {
                            clock += rng.next_below(50);
                            written.push((clock, draw(&mut rng, top)));
                        }
                    }
                    4 if retained => {
                        if let Some(Some(a)) = store.series.get_mut(slot_of(scope, RT)) {
                            a.compact(rng.next_below(horizon));
                        }
                    }
                    _ => clock += WIDTH_MS * (1 + rng.next_below(8)),
                }
                let mut batch = store.batch();
                for &(t, value) in &written {
                    batch.record_id(scope, RT, Sample::new(SimTime::from_millis(t), value));
                }
                drop(batch);
                let kept: Vec<f64> =
                    written.iter().filter(|&&(t, _)| t >= floor).map(|&(_, v)| v).collect();
                negative_zeros += u32::from(
                    expected < 4 && kept.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()),
                );
                expected = kept.iter().map(|&v| needs(v)).fold(expected, usize::max);

                let at = || format!("case {case}: {}", MOVES[kind]);
                let Some(a) = store.series_at(scope, RT) else { continue };
                assert!(a.columns_are_the_tail(), "{}: values that are not the tail", at());
                let width = a.tail.values.width();
                assert_eq!(width, expected, "{}: not the narrowest width", at());
                if width > width_before {
                    widenings[index(width_before)][index(width)] += 1;
                    wrapped += u32::from(wrapped_before);
                    mid_run += u32::from(
                        kind == 3 && kept.first().is_some_and(|&v| needs(v) <= width_before),
                    );
                }
                if len_before + kept.len() > a.raw.len() {
                    compacted[index(width)] += 1;
                }
                let (now, window) = (clock, rng.next_below(6 * WIDTH_MS));
                let (from, to) = (now.saturating_sub(window), now + 1);
                let got = store.window_summary_id(
                    scope,
                    RT,
                    SimTime::from_millis(now),
                    SimDuration::from_millis(window),
                );
                let mut oracle = OnlineStats::new();
                a.fold(Series::bucket_span(from, to), from, to, &mut oracle);
                assert_eq!(bits(got), bits(oracle.summary()), "{}: a read", at());
                if rng.next_below(10) == 0 {
                    let start = now.saturating_sub(10_000);
                    let (t0, t1) = (SimTime::from_millis(start), SimTime::from_millis(now));
                    let window = SimDuration::from_millis(window);
                    let got = store.moving_average("svc@1", RT, t0, t1, window, BUCKET_WIDTH);
                    let got: Vec<_> = got.iter().map(|(t, v)| (t.as_millis(), canon(*v))).collect();
                    let oracle = a.sweep(start, now, window.as_millis(), WIDTH_MS);
                    let oracle: Vec<_> = oracle.iter().map(|(t, v)| (*t, canon(*v))).collect();
                    assert_eq!(got, oracle, "{}: a moving average", at());
                }
            }
        }
        // Not vacuous: every widening, and a compaction at every width,
        // occurred often.
        let n = (cases.end - cases.start) as u32;
        for (from, to) in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)] {
            assert!(
                widenings[from][to] * 10 > n,
                "{} B to {} B: {widenings:?}",
                1 << from,
                1 << to
            );
        }
        assert!(compacted.iter().all(|&c| c * 2 > n), "compactions by width: {compacted:?}");
        assert!(
            wrapped * 10 > n && mid_run * 5 > n,
            "{wrapped} widened wrapped, {mid_run} mid-run"
        );
        assert!(negative_zeros * 20 > n, "{negative_zeros} negative zeros into an integer column");
    }

    #[test]
    fn value_widths_hold_the_tail_to_the_bit() {
        value_widths(0..300);
    }

    #[test]
    #[ignore = "long table: run in release with --ignored"]
    fn value_widths_hold_the_tail_to_the_bit_long() {
        value_widths(300..30_300);
    }

    #[test]
    fn times_keep_their_layout_and_widen_once() {
        // Random histories of the three things a series does to its times
        // — a block extend, an extend filtered by a floor, pops from the
        // front — done to a `Times` and to a deque of 16-byte samples, with
        // times below 2³² ms until one move keeps one that is not, then 40
        // moves more with times on both sides of 2³². After every move the
        // column holds the deque's times, laid out as the deque is; it is
        // narrow before the crossing and wide from it on.
        let mut rng = SplitMix64::new(0x7135);
        let (mut wrapped, mut emptied, mut below_after) = (0u32, 0u32, 0u32);
        for history in 0..10_000 {
            let mut times = Times::default();
            let mut raw: VecDeque<Sample> = VecDeque::new();
            let mut after = None;
            while after.is_none_or(|moves| moves < 40) {
                // Below 2³² ms before the crossing, but on a move that may
                // cross; on both sides of it after.
                let straddle = after.is_some() || rng.next_below(8) == 0;
                let next = |rng: &mut SplitMix64| {
                    let ms = CROSSING - if straddle { 100 } else { 200 } + rng.next_below(200);
                    Sample::new(SimTime::from_millis(ms), 0.0)
                };
                let (len, front) = (raw.len(), raw.as_slices().0.len());
                let above = |s: &Sample| s.time.as_millis() >= CROSSING;
                let mut kept_above = false;
                match rng.next_below(3) {
                    0 => {
                        let run: Vec<Sample> =
                            (0..rng.next_below(9)).map(|_| next(&mut rng)).collect();
                        times.extend(run.iter());
                        raw.extend(run.iter().copied());
                        kept_above = run.iter().any(above);
                    }
                    1 => {
                        let run: Vec<Sample> =
                            (0..rng.next_below(9)).map(|_| next(&mut rng)).collect();
                        let floor = CROSSING - rng.next_below(300);
                        let kept = run.iter().filter(|s| s.time.as_millis() >= floor);
                        times.extend(kept.clone());
                        raw.extend(kept.clone().copied());
                        kept_above = kept.clone().any(above);
                    }
                    _ => {
                        let ms = CROSSING - 100 + rng.next_below(300);
                        let popped = times.pop_before(ms);
                        for _ in 0..popped {
                            raw.pop_front();
                        }
                        assert!(raw.front().is_none_or(|s| s.time.as_millis() >= ms));
                    }
                }
                let at = |what: &str| format!("history {history}, {what}");
                if after.is_none() && kept_above {
                    wrapped += u32::from(front < len);
                    emptied += u32::from(len == 0 && raw.capacity() > 0);
                    after = Some(0);
                }
                assert_eq!(matches!(times, Times::Wide(_)), after.is_some(), "{}", at("width"));
                assert_eq!(times.layout(), layout(&raw), "{}", at("layout"));
                let same = (0..raw.len()).all(|i| times.get(i) == Some(raw[i].time.as_millis()));
                assert!(same && times.len() == raw.len(), "{}", at("times"));
                if let Some(moves) = &mut after {
                    *moves += 1;
                    below_after += u32::from(!raw.iter().all(above));
                }
            }
        }
        assert!(wrapped > 800 && emptied > 2_000, "{wrapped} widened wrapped, {emptied} emptied");
        assert!(below_after > 150_000, "{below_after} moves after a crossing held an earlier time");
    }

    /// The fold stated apart from the store's layout, for the search below:
    /// buckets in a `BTreeMap` pushed sample by sample, every raw sample in
    /// a `Vec` in arrival order, no retention.
    #[derive(Default)]
    struct Reference {
        buckets: std::collections::BTreeMap<u64, OnlineStats>,
        raw: Vec<Sample>,
    }

    impl Reference {
        /// Records `sample`; `true` when it opened a bucket that never
        /// existed between two that do.
        // `OnlineStats::default()` is all zeros, not the empty accumulator.
        #[allow(clippy::unwrap_or_default)]
        fn record(&mut self, sample: Sample) -> bool {
            let idx = sample.time.as_millis() / WIDTH_MS;
            let opened_between = !self.buckets.contains_key(&idx)
                && self.buckets.range(..idx).next().is_some()
                && self.buckets.range(idx..).next().is_some();
            self.buckets.entry(idx).or_insert_with(OnlineStats::new).push(sample.value);
            self.raw.push(sample);
            opened_between
        }

        /// Summary of `from_ms <= time < to_ms`: a bucket the window covers
        /// whole is merged, one it cuts is read sample by sample from the
        /// raw `Vec` — searched once per look as the time-ordered sequence
        /// the virtual clock makes it, so a late sample counts in a cut
        /// bucket only where the walk meets it.
        fn summary(&self, from_ms: u64, to_ms: u64) -> Summary {
            let mut acc = OnlineStats::new();
            if from_ms >= to_ms {
                return acc.summary();
            }
            let mut next_raw = None;
            for (&b, stats) in self.buckets.range(from_ms / WIDTH_MS..=(to_ms - 1) / WIDTH_MS) {
                let (b_start, b_end) = (b * WIDTH_MS, (b + 1) * WIDTH_MS);
                if from_ms <= b_start && b_end <= to_ms {
                    acc.merge(stats);
                    continue;
                }
                let (s, e) = (from_ms.max(b_start), to_ms.min(b_end));
                let mut i = next_raw
                    .unwrap_or_else(|| self.raw.partition_point(|x| x.time.as_millis() < s));
                while let Some(x) = self.raw.get(i).filter(|x| x.time.as_millis() < e) {
                    if x.time.as_millis() >= s {
                        acc.push(x.value);
                    }
                    i += 1;
                }
                next_raw = Some(i);
            }
            acc.summary()
        }
    }

    /// One seed's store in the search below: two sides, each with a
    /// `Reference` that every write to it also goes to, while no retention
    /// compacts the store.
    struct Searched {
        seed: u64,
        store: MetricStore,
        sides: [(ScopeId, MetricKind); 2],
        references: [Option<Reference>; 2],
        opened_between: u32,
        /// Samples that landed in a one-sample bucket older than the newest.
        late_into_one: u32,
    }

    impl Searched {
        fn record(&mut self, side: usize, t_ms: u64, value: f64) {
            let (scope, metric) = self.sides[side];
            let sample = Sample::new(SimTime::from_millis(t_ms), value);
            self.late_into_one += u32::from(self.one_sample_and_late(side, t_ms));
            self.store.record_id(scope, metric, sample);
            if let Some(reference) = &mut self.references[side] {
                self.opened_between += u32::from(reference.record(sample));
            }
        }

        /// Writes `samples`, in time order, to `side` through one batch, so
        /// that each same-bucket stretch of them is one run. A run of 16
        /// samples or more is folded over four chains, which pushing them
        /// one by one need not match to the bit, so after one the side's
        /// `Reference` goes; shorter runs are pushed as it pushes them.
        fn record_batch(&mut self, side: usize, samples: &[(u64, f64)]) {
            let (scope, metric) = self.sides[side];
            if let Some(&(t_ms, _)) = samples.first() {
                self.late_into_one += u32::from(self.one_sample_and_late(side, t_ms));
            }
            let mut batch = self.store.batch();
            for &(t_ms, value) in samples {
                batch.record_id(scope, metric, Sample::new(SimTime::from_millis(t_ms), value));
            }
            drop(batch);
            let mut runs = samples.chunk_by(|x, y| x.0 / WIDTH_MS == y.0 / WIDTH_MS);
            if runs.any(|run| run.len() >= 16) {
                self.references[side] = None;
            } else if let Some(reference) = &mut self.references[side] {
                for &(t_ms, value) in samples {
                    reference.record(Sample::new(SimTime::from_millis(t_ms), value));
                }
            }
        }

        /// `true` when `t_ms` falls in a one-sample bucket of `side` older
        /// than its newest.
        fn one_sample_and_late(&self, side: usize, t_ms: u64) -> bool {
            let Some(series) = self.series(side) else { return false };
            let idx = t_ms / WIDTH_MS;
            series.newest_bucket().is_some_and(|newest| idx < newest)
                && series.find_bucket(idx).is_ok_and(|pos| series.cells[pos].decode().is_ok())
        }

        /// The indices of `side`'s one-sample buckets.
        fn one_sample_buckets(&self, side: usize) -> Vec<u64> {
            let Some(series) = self.series(side) else { return Vec::new() };
            let cells = series.bucket_idx.iter().zip(&series.cells);
            cells.filter(|(_, cell)| cell.decode().is_ok()).map(|(&b, _)| b).collect()
        }

        /// Buckets of `side` in `span` that hold one sample and lie below
        /// the compaction floor, so a read merges them whole.
        fn compacted_ones(&self, side: usize, span: Range<u64>) -> usize {
            let Some(series) = self.series(side) else { return 0 };
            let cells = series.bucket_idx.iter().zip(&series.cells);
            cells
                .filter(|(&b, cell)| {
                    span.contains(&b) && b * WIDTH_MS < series.raw_floor_ms && cell.decode().is_ok()
                })
                .count()
        }

        /// Holds `got`, a read of `side` over `from..to`, to the oracle
        /// fold from an empty accumulator and, while the side has one, to
        /// its `Reference`; `true` when it met the `Reference`.
        fn check(&self, what: &str, side: usize, (from, to): (u64, u64), got: Summary) -> bool {
            let at = || format!("seed {}: {what}, side {side} over {from}..{to}", self.seed);
            let mut oracle = OnlineStats::new();
            if let Some(series) = self.series(side) {
                series.fold(Series::bucket_span(from, to), from, to, &mut oracle);
            }
            assert_eq!(bits(got), bits(oracle.summary()), "{}: vs the fold", at());
            let Some(reference) = &self.references[side] else { return false };
            assert_eq!(bits(got), bits(reference.summary(from, to)), "{}: vs the reference", at());
            true
        }

        fn series(&self, side: usize) -> Option<&Series> {
            self.store.series_at(self.sides[side].0, self.sides[side].1)
        }

        /// What a move can change: samples recorded, epochs drawn, and
        /// both sides' compaction floors.
        fn state(&self) -> (u64, u64, [u64; 2]) {
            let floor = |side| self.series(side).map_or(0, |s| s.raw_floor_ms);
            (self.store.total_recorded(), self.store.epochs, [floor(0), floor(1)])
        }

        fn remembered(&self, side: usize, (from_ms, to_ms): (u64, u64)) -> bool {
            self.series(side).and_then(|s| s.remembered(from_ms, to_ms)).is_some()
        }
    }

    #[test]
    fn searched_histories_read_as_the_fold_whatever_the_read() {
        // Differential search. Per seed, a store lives through a random
        // history of two series: `a`, and `b` — another metric of a's
        // scope, or another scope — written as often as `a`, now and then,
        // or never; retention compacts a third of the seeds. Each step makes
        // one move of `MOVES` and reads the last look again — so nothing,
        // one write or one compaction sits between two equal looks — then
        // makes a new look: a window since a start on or off the bucket
        // grid that sometimes moves, or any trailing window, with `now`
        // now and then stepped back. A look reads in a random mix of
        // shapes: resumed from the carried cursor and from scratch, single
        // reads of either side, of both, of both repeated (memo hits),
        // `summary_between`, and now and then a moving average and a scope
        // never interned.
        // Values are exact `f32`s (integers, as milliseconds and 0/1 rates
        // are), or not, or exact until a step where the series widens; now
        // and then an odd one — a negative zero, a NaN, one with the side
        // tag's bits, an infinity — alone in a new bucket or late into a
        // one-sample bucket. Batched runs, short and of 16 samples or more,
        // land in the newest bucket, past it, or on a one-sample bucket. A
        // quarter of the histories start a little below 2³² ms and cross
        // it, most after retention has wrapped the tail, with late samples
        // on both sides of the crossing.
        // Every read must be the oracle fold's, to the bit, and on seeds
        // without retention the `Reference`'s; a move that writes nothing
        // may not change the last look's answer; and `window_reads` and
        // the query probe must count every windowed read once, a sweep as
        // one. After every move each series' two raw
        // columns must be the one-deque tail the oracle reads, to the bit
        // and laid out alike, however compaction has wrapped it and
        // wherever the times column widened; and its cells and side column
        // must be the 40-byte bucket column the oracle reads, to the bit.
        const MOVES: [&str; 13] = [
            "nothing",
            "a burst",
            "a sample at the last look's now",
            "a late sample",
            "a short silence",
            "a long silence",
            "a late sample in the long silence",
            "a new window start",
            "a sample far ahead",
            "a compaction with no write",
            "the scope cleared and recorded again",
            "a batched burst",
            "an odd value alone in its bucket",
        ];
        // Values a cell must keep to the bit, and one it cannot hold: a
        // negative zero, the two NaNs a program meets (the constant and
        // the hardware's default), one with the side tag's bits, values
        // that are not `f32`s, and an infinity.
        let odd = [
            -0.0,
            f64::NAN,
            f64::from_bits(0xFFF8_0000_0000_0000),
            f64::from_bits(SIDE_TAG << 32 | 3),
            0.1,
            -1e300,
            f64::INFINITY,
        ];
        let (mut looks, mut checked, mut kept, mut hits) = (0u32, 0u32, 0u32, 0u32);
        let (mut compacted, mut remembered, mut opened_between, mut unaligned) =
            (0u32, 0u32, 0u32, 0u32);
        let mut changed = [0u32; MOVES.len()];
        let (mut wrapped, mut widened, mut narrow, mut sweeps) = (0u32, 0u32, 0u32, 0u32);
        let (mut crossed, mut crossed_wrapped, mut late) = (0u32, 0u32, [0u32; 2]);
        let (mut promotions, mut late_into_one, mut compacted_ones) = ([0u32; 2], 0u32, 0u32);
        let mut odd_cells = [0u32; 2];
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let mut store = MetricStore::new();
            store.set_probes_armed(true);
            let horizon = WIDTH_MS * (2 + rng.next_below(10));
            // Half the histories that cross 2³² ms keep a horizon, so that
            // most of those cross with a tail retention has wrapped.
            let retained = rng.next_below(3) == 0 || seed % 8 == 1;
            if retained {
                store.set_retention(Some(SimDuration::from_millis(horizon)));
            }
            let ids = [store.intern("svc@1"), store.intern("svc@2")];
            let other = [(ids[0], MetricKind::ErrorRate), (ids[1], RT)][rng.next_index(2)];
            let references = [0, 1].map(|_| (!retained).then(Reference::default));
            let mut s = Searched {
                seed,
                store,
                sides: [(ids[0], RT), other],
                references,
                opened_between: 0,
                late_into_one: 0,
            };
            // How often `b` is written, in quarters of `a`'s writes.
            let b_share = [0, 1, 3, 4][rng.next_index(4)];
            // The step from which values need an `f64`: from the start, never,
            // or mid-history.
            // An odd value that is not an `f32` widens the series too.
            let mut wide_from = [0, u32::MAX, 10 + rng.next_below(90) as u32][rng.next_index(3)];
            let mut was_narrow = false;
            let mut clock = rng.next_below(5_000);
            if seed % 4 == 1 {
                clock += CROSSING - WIDTH_MS * (20 + seed % 64);
            }
            let mut from = clock;
            let mut long_silence = clock..clock;
            let mut cursor = WindowCursor::new();
            let mut reads = 0u64;
            let mut last: Option<(SimTime, SimDuration, Summary)> = None;
            for step in 0..120u32 {
                // A value up to `scale`: an integer, or any `f64`.
                let value = |rng: &mut SplitMix64, scale: u64| {
                    if step < wide_from {
                        rng.next_below(scale + 1) as f64
                    } else {
                        rng.next_f64() * scale as f64
                    }
                };
                // One move (a burst five times as often as the others), then
                // the last look again.
                let kind = [0, 1, 1, 1, 1, 1, 2, 3, 3, 4, 5, 6, 7, 8, 9, 9, 10, 11, 12]
                    [rng.next_index(19)];
                let (last_from, last_to) =
                    last.map_or((clock, clock + 1), |(now, w, _)| trailing(now, w));
                let state = s.state();
                // Each side's tail before the move, while its times are
                // narrow: wrapped or not.
                let narrow_times = [0, 1].map(|side| {
                    let series = s.series(side).filter(|x| !x.wide_times());
                    series.map(|x| !x.raw.as_slices().1.is_empty())
                });
                match kind {
                    1 => {
                        for _ in 0..rng.next_below(40) {
                            clock += rng.next_below(WIDTH_MS / 4 + 1);
                            let v = value(&mut rng, 100);
                            s.record(0, clock, v);
                            if rng.next_below(4) < b_share {
                                let v = value(&mut rng, 1);
                                s.record(1, clock, v);
                            }
                        }
                    }
                    2 => s.record(0, last_to - 1, 1e3),
                    3 => {
                        let t = match rng.next_below(3) {
                            0 => last_from + rng.next_below(last_to - last_from),
                            1 => last_from.saturating_sub(1 + rng.next_below(WIDTH_MS * 3)),
                            _ => clock.saturating_sub(rng.next_below(WIDTH_MS * 6)),
                        };
                        let side = usize::from(b_share > 0 && rng.next_below(2) == 0);
                        s.record(side, t, -5.0);
                        if s.series(side).is_some_and(Series::wide_times) {
                            late[usize::from(t >= CROSSING)] += 1;
                        }
                    }
                    4 => clock += WIDTH_MS * rng.next_below(5),
                    // 10⁴–10⁶ buckets with nothing in them.
                    5 if rng.next_below(4) == 0 => {
                        let start = clock + WIDTH_MS;
                        clock += WIDTH_MS * (10_000 + rng.next_below(990_001));
                        long_silence = start..clock - WIDTH_MS;
                    }
                    // A bucket that never existed, between two that do.
                    6 if !long_silence.is_empty() => {
                        let span = long_silence.end - long_silence.start;
                        s.record(0, long_silence.start + rng.next_below(span), -7.0);
                    }
                    7 => {
                        from = clock.saturating_sub(rng.next_below(WIDTH_MS * 8));
                        if rng.next_below(2) == 0 {
                            from -= from % WIDTH_MS;
                        }
                    }
                    // With retention, the floor moves past the last look's start.
                    8 => {
                        let t = last_from + horizon + WIDTH_MS * (1 + rng.next_below(3));
                        s.record(0, t, 0.5);
                        clock = clock.max(t);
                    }
                    // The floor alone moves, past the last look's first bucket.
                    9 if retained => {
                        if let Some(Some(a)) = s.store.series.get_mut(slot_of(ids[0], RT)) {
                            a.compact(a.max_time_ms.saturating_sub(last_from + WIDTH_MS));
                        }
                    }
                    // As many samples as before, over the last look's window.
                    10 if rng.next_below(4) == 0 => {
                        let total = s.store.count("svc@1", RT);
                        s.store.clear_scope("svc@1");
                        for (side, reference) in s.references.iter_mut().enumerate() {
                            if s.sides[side].0 == ids[0] && reference.is_some() {
                                *reference = Some(Reference::default());
                            }
                        }
                        let mut t = last_from;
                        for _ in 0..total {
                            t += 1 + rng.next_below(WIDTH_MS / 4);
                            let v = value(&mut rng, 1);
                            s.record(0, t, v);
                        }
                        clock = clock.max(t);
                    }
                    // A run into the newest bucket or past it: short (pushed),
                    // or of 16 and more (four chains) where the side has no
                    // `Reference` left to lose or on a sixth of the seeds.
                    11 => {
                        let side = usize::from(b_share > 0 && rng.next_below(3) == 0);
                        let long = s.references[side].is_none() || seed % 6 == 5;
                        let n = if long && rng.next_below(2) == 0 {
                            16 + rng.next_below(40)
                        } else {
                            1 + rng.next_below(15)
                        };
                        // At the start of a one-sample bucket half the time.
                        let ones = s.one_sample_buckets(side);
                        let mut t = if ones.is_empty() || rng.next_below(2) == 0 {
                            clock + rng.next_below(2) * WIDTH_MS
                        } else {
                            ones[rng.next_index(ones.len())] * WIDTH_MS
                        };
                        let run: Vec<(u64, f64)> = (0..n)
                            .map(|_| {
                                t += rng.next_below(8);
                                (t, value(&mut rng, 100))
                            })
                            .collect();
                        s.record_batch(side, &run);
                        clock = clock.max(t);
                    }
                    // Into a bucket of its own past the newest, or late into
                    // a one-sample bucket.
                    12 => {
                        // A history meant to stay narrow takes the odd
                        // values that are `f32`s only.
                        let odd: Vec<f64> = if wide_from == u32::MAX {
                            odd.iter().copied().filter(|&x| f32::fits(x)).collect()
                        } else {
                            odd.to_vec()
                        };
                        let v = if rng.next_below(2) == 0 {
                            odd[rng.next_index(odd.len())]
                        } else {
                            value(&mut rng, 100)
                        };
                        if !f32::fits(v) {
                            wide_from = wide_from.min(step);
                        }
                        let newest = s.series(0).and_then(Series::newest_bucket);
                        let mut ones = s.one_sample_buckets(0);
                        ones.retain(|&b| Some(b) != newest);
                        if ones.is_empty() || rng.next_below(2) == 0 {
                            clock += WIDTH_MS * (1 + rng.next_below(3));
                            s.record(0, clock, v);
                            let a = s.series(0).expect("just written");
                            let cell = a.cells[a.cells.len() - 1].decode();
                            let zero_or_nan =
                                |x: f64| x.to_bits() == (-0.0f64).to_bits() || x.is_nan();
                            odd_cells[0] += u32::from(cell.is_ok_and(zero_or_nan));
                            odd_cells[1] += u32::from(cell.is_err());
                        } else {
                            let b = ones[rng.next_index(ones.len())];
                            s.record(0, b * WIDTH_MS + rng.next_below(WIDTH_MS), v);
                        }
                    }
                    _ => {}
                }
                let touched = s.state() != state;
                for (side, narrow_before) in narrow_times.into_iter().enumerate() {
                    let Some(series) = s.series(side) else { continue };
                    assert!(
                        series.columns_are_the_tail(),
                        "seed {seed}: {} left columns that are not the tail",
                        MOVES[kind]
                    );
                    assert!(
                        series.cells_are_the_buckets(),
                        "seed {seed}: {} left cells that are not the buckets",
                        MOVES[kind]
                    );
                    wrapped += u32::from(!series.raw.as_slices().1.is_empty());
                    if let Some(was_wrapped) = narrow_before {
                        let widened_here = kind != 10 && series.wide_times();
                        crossed += u32::from(widened_here);
                        crossed_wrapped += u32::from(widened_here && was_wrapped);
                    }
                }
                if let Some(a) = s.series(0) {
                    was_narrow |= !a.wide() && !a.raw.is_empty();
                    assert!(!a.wide() || step >= wide_from, "seed {seed}: wide before {wide_from}");
                }
                if let Some((now, window, before)) = last {
                    hits += u32::from(s.remembered(0, (last_from, last_to)));
                    let again = s.store.window_summary_id(ids[0], RT, now, window);
                    reads += 1;
                    s.check(MOVES[kind], 0, (last_from, last_to), again);
                    let moved = bits(again) != bits(before);
                    assert!(touched || !moved, "seed {seed}: {} changed the answer", MOVES[kind]);
                    changed[kind] += u32::from(moved);
                }

                // The new look.
                let back = if rng.next_below(8) == 0 { rng.next_below(WIDTH_MS * 3) } else { 0 };
                let cumulative = rng.next_below(3) != 0;
                let (now, window) = if cumulative {
                    let now = clock.saturating_sub(back).max(from);
                    (now, now - from)
                } else if rng.next_below(3) == 0 {
                    (clock.saturating_sub(back), WIDTH_MS * (1 + rng.next_below(12)))
                } else {
                    (clock.saturating_sub(back), rng.next_below(WIDTH_MS * 12))
                };
                let (now, window) = (SimTime::from_millis(now), SimDuration::from_millis(window));
                let edges = trailing(now, window);
                let a = s.sides[0];
                let (resumed, next) =
                    s.store.window_summary_resumed(a.0, a.1, now, window, &cursor);
                let (scratch, _) =
                    s.store.window_summary_resumed(a.0, a.1, now, window, &WindowCursor::new());
                reads += 2;
                checked += u32::from(s.check("resumed", 0, edges, resumed));
                s.check("resumed from scratch", 0, edges, scratch);
                if cumulative {
                    kept += u32::from(next.acc.count() > 0);
                    cursor = next;
                }
                let single = |side: usize| {
                    s.store.window_summary_id(s.sides[side].0, s.sides[side].1, now, window)
                };
                let mut got = Vec::new();
                let shape = rng.next_below(5);
                if shape < 2 {
                    got.push((shape as usize, single(shape as usize)));
                }
                remembered += u32::from(s.remembered(0, edges) || s.remembered(1, edges));
                let both = [single(0), single(1)];
                if shape == 4 {
                    let again = [single(0), single(1)];
                    assert_eq!(again.map(bits), both.map(bits), "seed {seed}: two reads repeated");
                    reads += 2;
                }
                let floors = s.state().2;
                for side in 0..2 {
                    compacted += u32::from(floors[side] > edges.0 && both[side].count > 0);
                    let span = Series::bucket_span(edges.0, edges.1);
                    compacted_ones += u32::from(s.compacted_ones(side, span) > 0);
                }
                got.extend([(0, both[0]), (1, both[1])]);
                reads += got.len() as u64;
                for &(side, summary) in &got {
                    s.check("trailing", side, edges, summary);
                }
                let side = rng.next_index(2);
                let name = if s.sides[side].0 == ids[0] { "svc@1" } else { "svc@2" };
                let (from_t, to_t) = (SimTime::from_millis(edges.0), SimTime::from_millis(edges.1));
                let fresh = s.store.summary_between(name, s.sides[side].1, from_t, to_t);
                s.check("summary_between", side, edges, fresh);
                if rng.next_below(16) == 0 {
                    let start = SimTime::from_millis(now.as_millis().saturating_sub(10_000));
                    let got = s.store.moving_average("svc@1", RT, start, now, window, BUCKET_WIDTH);
                    let got: Vec<_> = got.iter().map(|(t, v)| (t.as_millis(), canon(*v))).collect();
                    let edges = [start, now].map(SimTime::as_millis);
                    let oracle = s.series(0).map_or(Vec::new(), |a| {
                        a.sweep(edges[0], edges[1], window.as_millis(), WIDTH_MS)
                    });
                    let oracle: Vec<_> = oracle.iter().map(|(t, v)| (*t, canon(*v))).collect();
                    assert_eq!(got, oracle, "seed {seed}: moving average");
                    sweeps += u32::from(!got.is_empty());
                    let ghost = s.store.window_summary("ghost", RT, now, window);
                    assert_eq!(bits(ghost), bits(Summary::default()), "seed {seed}: no scope");
                    reads += 2;
                }
                assert_eq!(s.store.window_reads(), reads, "seed {seed}: windowed reads");
                assert_eq!(
                    s.store.query_probe().stats().count(),
                    reads,
                    "seed {seed}: probe measurements"
                );
                unaligned += u32::from(!edges.0.is_multiple_of(WIDTH_MS));
                looks += 1;
                let a_read = got.iter().find(|(side, _)| *side == 0).expect("every shape reads a");
                last = Some((now, window, a_read.1));
            }
            opened_between += s.opened_between;
            late_into_one += s.late_into_one;
            for series in (0..2).filter_map(|side| s.series(side)) {
                narrow += u32::from(!series.wide());
                promotions[0] += series.promotions[0];
                promotions[1] += series.promotions[1];
            }
            let raw: usize = s.store.series.iter().flatten().map(|x| x.raw.len()).sum();
            assert_eq!(s.store.total_samples(), raw, "seed {seed}: samples stored");
            let total = s.series(0).map_or(0, |a| a.total as usize);
            assert_eq!(s.store.count("svc@1", RT), total, "seed {seed}: count");
            widened += u32::from(was_narrow && s.series(0).is_some_and(Series::wide));
        }
        // Not vacuous: every shape each property must survive occurred often.
        assert!(kept * 4 > looks, "{kept} of {looks} looks kept a fold");
        assert!(checked * 2 > looks, "{checked} of {looks} looks checked against the reference");
        assert!(opened_between > 400, "{opened_between} buckets opened between two others");
        assert!(unaligned * 2 > looks, "{unaligned} of {looks} looks: start off the grid");
        assert!(compacted > 200, "{compacted} sides read over a compacted floor");
        assert!(remembered * 10 > looks, "{remembered} of {looks} looks met a remembered side");
        assert!(hits > 1_000, "{hits} looks repeated over an undisturbed series");
        assert!(wrapped > 3_000, "{wrapped} moves left a wrapped tail");
        assert!(
            widened > 80 && narrow > 80,
            "{widened} series widened mid-history, {narrow} never"
        );
        assert!(sweeps > 1_000, "{sweeps} moving averages with a point");
        assert!(
            crossed > 60 && crossed_wrapped > 20,
            "{crossed} times columns widened mid-history, {crossed_wrapped} of them wrapped"
        );
        assert!(late[0] > 30 && late[1] > 300, "late samples below/above 2³² ms: {late:?}");
        for kind in [1, 2, 3, 8, 9, 10, 11, 12] {
            assert!(changed[kind] > 50, "{}: {} changed answers", MOVES[kind], changed[kind]);
        }
        assert!(
            promotions[0] > 10_000 && promotions[1] > 50,
            "one-sample buckets that took a pushed run and a four-chain run: {promotions:?}"
        );
        assert!(late_into_one > 700, "{late_into_one} late samples into a one-sample bucket");
        assert!(
            compacted_ones > 1_500,
            "{compacted_ones} reads merged a compacted one-sample bucket"
        );
        assert!(
            odd_cells[0] > 150 && odd_cells[1] > 30,
            "new buckets: {} a negative zero or a NaN in a cell, {} one value on the side",
            odd_cells[0],
            odd_cells[1]
        );
    }

    #[test]
    fn the_trailing_gallop_is_partition_point() {
        // Every ascending column of up to ten entries drawn from
        // 1, 4, 7, …, 28 — so with gaps of every size between and around
        // them — against every target from below the first possible entry
        // to above the last.
        for mask in 0u32..1 << 10 {
            let column: Vec<u64> =
                (0..10).filter(|bit| mask & (1 << bit) != 0).map(|bit| 3 * bit + 1).collect();
            for target in 0..=30 {
                assert_eq!(
                    first_at_or_after(&column, target),
                    column.partition_point(|&b| b < target),
                    "column {column:?} target {target}"
                );
            }
        }
    }

    #[test]
    fn a_far_away_sample_costs_one_bucket_not_the_gap() {
        // Regression: coverage used to be extended one bucket per elapsed
        // second, so the second sample below allocated 31.5 M buckets
        // (1.26 GB).
        let metric = MetricKind::ResponseTime;
        let year = 365 * 86_400;
        let mut store = MetricStore::new();
        store.record_value("s", metric, SimTime::ZERO, 1.0);
        store.record_value("s", metric, SimTime::from_secs(year), 2.0);
        store.record_value("s", metric, SimTime::from_secs(year / 2), 3.0);
        let count = |from_s: u64, to_s: u64| {
            let (from, to) = (SimTime::from_secs(from_s), SimTime::from_secs(to_s));
            store.summary_between("s", metric, from, to).count
        };
        assert_eq!((count(0, 1), count(1, year / 2)), (1, 0));
        assert_eq!((count(year / 2, year / 2 + 1), count(year / 2 + 1, year)), (1, 0));
        assert_eq!((count(year, year + 1), count(year + 1, 2 * year)), (1, 0));
        assert_eq!((count(0, year), count(1, year + 1), count(0, year + 1)), (2, 2, 3));
        assert_eq!(store.count("s", metric), 3);
        assert!(store.state_bytes() < 1_024, "{} bytes for three samples", store.state_bytes());

        // The same from the front: a late sample far before the first bucket.
        let mut store = MetricStore::new();
        store.record_value("s", metric, SimTime::from_secs(year), 2.0);
        store.record_value("s", metric, SimTime::ZERO, 1.0);
        let whole = store.summary_between("s", metric, SimTime::ZERO, SimTime::from_secs(2 * year));
        assert_eq!((whole.count, whole.min, whole.max), (2, 1.0, 2.0));
        assert!(store.state_bytes() < 1_024, "{} bytes for two samples", store.state_bytes());
    }

    #[test]
    fn a_cursor_counts_only_while_nothing_under_it_can_have_changed() {
        // A poisoned cursor — a valid one with one bogus observation added
        // to its fold — shows up in the answer exactly when the cursor is
        // used. It must be used on an undisturbed series, and ignored
        // after every kind of disturbance.
        let metric = MetricKind::ResponseTime;
        let at = SimTime::from_millis;
        let ramp = |store: &mut MetricStore, scope: ScopeId, range: std::ops::Range<u64>| {
            for i in range {
                store.record_id(scope, metric, Sample::new(at(i * 100), i as f64));
            }
        };
        let start = |from_ms: u64| {
            let mut store = MetricStore::new();
            let scope = store.intern("s");
            ramp(&mut store, scope, 0..100);
            let now = at(8_000);
            let window = SimDuration::from_millis(8_000 - from_ms);
            let (summary, mut cursor) =
                store.window_summary_resumed(scope, metric, now, window, &WindowCursor::new());
            assert_eq!(bits(summary), bits(store.window_summary_id(scope, metric, now, window)));
            cursor.acc.push(1e9);
            (store, scope, cursor)
        };
        let read =
            |store: &MetricStore, scope, from_ms: u64, now_ms: u64, cursor: &WindowCursor| {
                let window = SimDuration::from_millis(now_ms - from_ms);
                let fresh = store.window_summary_id(scope, metric, at(now_ms), window);
                let (resumed, _) =
                    store.window_summary_resumed(scope, metric, at(now_ms), window, cursor);
                (resumed.count, fresh.count)
            };

        // Undisturbed, later `now`: used (the bogus observation counts).
        let (mut store, scope, poisoned) = start(2_000);
        assert_eq!(poisoned.next_bucket, 8, "buckets 2..8 kept, the newest and the edge not");
        assert_eq!(read(&store, scope, 2_000, 9_500, &poisoned), (77, 76));
        // Appending at the newest bucket and beyond changes nothing kept.
        ramp(&mut store, scope, 100..130);
        assert_eq!(read(&store, scope, 2_000, 12_000, &poisoned), (102, 101));
        // A late sample in a kept bucket: ignored from then on.
        store.record_id(scope, metric, Sample::new(at(5_050), 0.0));
        assert_eq!(read(&store, scope, 2_000, 12_000, &poisoned), (102, 102));

        // Another window start.
        let (mut store, scope, poisoned) = start(2_000);
        assert_eq!(read(&store, scope, 3_000, 9_500, &poisoned), (66, 66));
        // `now` stepping back inside the kept buckets (and not, for contrast).
        assert_eq!(read(&store, scope, 2_000, 6_500, &poisoned), (46, 46));
        assert_eq!(read(&store, scope, 2_000, 8_000, &poisoned), (62, 61));
        // The scope cleared and recorded again with the very same samples.
        store.clear_scope("s");
        ramp(&mut store, scope, 0..100);
        assert_eq!(read(&store, scope, 2_000, 9_500, &poisoned), (76, 76));
        // Another series of the same store.
        let other = store.intern("other");
        ramp(&mut store, other, 0..100);
        assert_eq!(read(&store, other, 2_000, 9_500, &poisoned), (76, 76));

        // A window start off the bucket grid keeps nothing to poison the
        // next look with, compacted or not.
        let (mut store, scope, poisoned) = start(2_050);
        assert_eq!((poisoned.next_bucket, poisoned.acc.count()), (2, 1));
        store.set_retention(Some(SimDuration::from_secs(1)));
        ramp(&mut store, scope, 100..130);
        let (resumed, fresh) = read(&store, scope, 2_050, 12_000, &WindowCursor::new());
        assert_eq!(resumed, fresh);
        assert_eq!(fresh, 101, "bucket 2 whole below the raw floor: 2000..=12000ms");
    }

    /// The batch the store's own buffers replaced: a slot table of its own,
    /// allocated by every batch, and a flush that scans all of it.
    struct ScanBatch<'a> {
        store: &'a mut MetricStore,
        pending: Vec<Vec<Sample>>,
        buffered: usize,
    }

    impl ScanBatch<'_> {
        fn record_id(&mut self, scope: ScopeId, metric: MetricKind, sample: Sample) {
            let slot = slot_of(scope, metric);
            if slot >= self.pending.len() {
                self.pending.resize_with(slot + 1, Vec::new);
            }
            self.pending[slot].push(sample);
            self.buffered += 1;
            if self.buffered >= BATCH_FLUSH_THRESHOLD {
                self.flush();
            }
        }

        fn flush(&mut self) {
            if self.buffered == 0 {
                return;
            }
            let MetricStore { series, epochs, retention_ms, batch_flushes, .. } = &mut *self.store;
            *batch_flushes += 1;
            for (slot, samples) in self.pending.iter_mut().enumerate() {
                if !samples.is_empty() {
                    ingest(series, epochs, *retention_ms, slot, samples);
                    samples.clear();
                }
            }
            self.buffered = 0;
        }
    }

    impl Drop for ScanBatch<'_> {
        fn drop(&mut self) {
            self.flush();
        }
    }

    /// Every field of a series but its memo (a cache of a read).
    fn same_series(a: &Series, b: &Series) -> bool {
        (a.total, a.max_time_ms, a.raw_floor_ms, a.epoch)
            == (b.total, b.max_time_ms, b.raw_floor_ms, b.epoch)
            && a.bucket_idx == b.bucket_idx
            && a.buckets == b.buckets
            && a.raw == b.raw
            && a.columns_are_the_tail()
            && b.columns_are_the_tail()
            && a.cells_are_the_buckets()
            && b.cells_are_the_buckets()
    }

    #[test]
    fn batches_flush_only_the_slots_they_wrote_and_equal_the_full_scan() {
        // Differential search over a store of 10⁴ interned scopes: batches
        // of a few, a few hundred, or many thousand samples (so threshold
        // flushes fire mid-batch), most into a handful of hot scopes, the
        // rest anywhere, some late; explicit flushes; batches dropped with
        // nothing in them; scopes cleared between batches; retention on some
        // seeds. The shipped batch and `ScanBatch` get the same operations.
        // After every batch the two stores must hold the same series — epochs
        // included, which only the order of ingestion decides — count the
        // same flushes and give the same resumed reads, cursors included;
        // and every flush must have visited exactly the slots written since
        // the one before.
        use cex_core::rng::SplitMix64;
        use std::collections::{BTreeMap, BTreeSet};
        const SCOPES: u64 = 10_000;
        let kinds = [MetricKind::ResponseTime, MetricKind::ErrorRate, MetricKind::Shed];
        let (mut flushes_seen, mut threshold_flushes, mut cleared, mut resumed_kept) = (0, 0, 0, 0);
        for seed in 0..8u64 {
            let mut rng = SplitMix64::new(0xBA7C4 ^ seed);
            let (mut shipped, mut scanned) = (MetricStore::new(), MetricStore::new());
            if seed % 3 == 0 {
                let horizon = Some(SimDuration::from_millis(WIDTH_MS * 20));
                shipped.set_retention(horizon);
                scanned.set_retention(horizon);
            }
            let scopes: Vec<ScopeId> = (0..SCOPES)
                .map(|i| {
                    let id = shipped.intern(&format!("s{i}"));
                    assert_eq!(scanned.intern(&format!("s{i}")), id);
                    id
                })
                .collect();
            let hot: Vec<usize> = (0..8).map(|_| rng.next_index(SCOPES as usize)).collect();
            let mut cursors: BTreeMap<(usize, usize), [WindowCursor; 2]> = BTreeMap::new();
            let mut clock = 0u64;
            for batch in 0..30 {
                if rng.next_below(3) == 0 {
                    let i = hot[rng.next_index(hot.len())];
                    shipped.clear_scope(&format!("s{i}"));
                    scanned.clear_scope(&format!("s{i}"));
                    cleared += 1;
                }
                let mut written = BTreeSet::new();
                let mut a = shipped.batch();
                let mut b = ScanBatch { store: &mut scanned, pending: Vec::new(), buffered: 0 };
                let (mut flushes, mut visited) = (a.store.batch_flushes, a.store.flushed_slots);
                let samples = match rng.next_below(4) {
                    0 => rng.next_below(3),
                    1 => rng.next_below(600),
                    _ => 3_000 + rng.next_below(6_000),
                };
                for _ in 0..samples {
                    let i = if rng.next_below(10) < 7 {
                        hot[rng.next_index(hot.len())]
                    } else {
                        rng.next_index(SCOPES as usize)
                    };
                    let kind = kinds[rng.next_index(kinds.len())];
                    clock += rng.next_below(WIDTH_MS / 50 + 1);
                    let t = if rng.next_below(20) == 0 {
                        clock.saturating_sub(rng.next_below(WIDTH_MS * 4))
                    } else {
                        clock
                    };
                    let sample = Sample::new(SimTime::from_millis(t), rng.next_f64());
                    a.record_id(scopes[i], kind, sample);
                    b.record_id(scopes[i], kind, sample);
                    written.insert(slot_of(scopes[i], kind));
                    let explicit = rng.next_below(2_500) == 0;
                    if explicit {
                        a.flush();
                        b.flush();
                    }
                    if a.store.batch_flushes != flushes {
                        threshold_flushes += u32::from(!explicit);
                        assert_eq!(a.store.flushed_slots - visited, written.len() as u64);
                        written.clear();
                        (flushes, visited) = (a.store.batch_flushes, a.store.flushed_slots);
                    }
                }
                drop((a, b));
                let flushed = shipped.batch_flushes - flushes;
                assert_eq!(flushed, u64::from(!written.is_empty()), "seed {seed} batch {batch}");
                assert_eq!(shipped.flushed_slots - visited, written.len() as u64);
                assert!(shipped.pending.iter().all(Vec::is_empty) && shipped.dirty.is_empty());
                flushes_seen += flushed;

                assert_eq!(shipped.batch_flushes, scanned.batch_flushes, "seed {seed}");
                assert_eq!(shipped.series.len(), scanned.series.len(), "seed {seed}");
                for (slot, (x, y)) in shipped.series.iter().zip(&scanned.series).enumerate() {
                    let same = match (x, y) {
                        (Some(x), Some(y)) => same_series(x, y),
                        (x, y) => x.is_none() && y.is_none(),
                    };
                    assert!(same, "seed {seed} batch {batch}: slot {slot} differs");
                }
                for _ in 0..20 {
                    let i = hot[rng.next_index(hot.len())];
                    let k = rng.next_index(kinds.len());
                    let now = SimTime::from_millis(clock.saturating_sub(rng.next_below(WIDTH_MS)));
                    let from = (clock / 2) - (clock / 2) % WIDTH_MS;
                    let window = SimDuration::from_millis(now.as_millis().saturating_sub(from));
                    let [ca, cb] = cursors.entry((i, k)).or_default();
                    let (sa, na) =
                        shipped.window_summary_resumed(scopes[i], kinds[k], now, window, ca);
                    let (sb, nb) =
                        scanned.window_summary_resumed(scopes[i], kinds[k], now, window, cb);
                    assert_eq!((bits(sa), na), (bits(sb), nb), "seed {seed} batch {batch}");
                    resumed_kept += u32::from(na.acc.count() > 0);
                    (*ca, *cb) = (na, nb);
                }
            }
        }
        assert!(flushes_seen > 150 && threshold_flushes > 20, "{flushes_seen} {threshold_flushes}");
        assert!(cleared > 50 && resumed_kept > 1_000, "{cleared} cleared, {resumed_kept} kept");
    }
}
