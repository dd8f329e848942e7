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
//! reads a trailing window. Eight mechanisms keep it off the critical path:
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
//! * **Bucketed pre-aggregation.** Each series maintains fixed-resolution
//!   [`OnlineStats`] buckets next to a raw sample tail. Window queries
//!   merge whole buckets for the interior of the window and resolve the
//!   two partially covered edge buckets from raw samples, so the
//!   documented closed-interval semantics are preserved exactly. Only
//!   buckets that hold a sample exist: two parallel ascending columns, the
//!   8-byte bucket indices and the aggregates. A sample finds its bucket
//!   at the newest end (a late one bisects and, if its bucket never
//!   existed, inserts); a query gallops back from the newest end of the
//!   index column to the first bucket of its range — looks are trailing
//!   windows — and walks forward. So a query costs in proportion to the
//!   *non-empty* buckets in its window, flat in series length, and memory
//!   is in proportion to samples: a second, or a year, in which a series
//!   saw nothing costs nothing ([`MetricStore::state_bytes`]).
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
//! * **Paired reads in lockstep.** A check that compares two series (a
//!   candidate against its baseline), or two checks that read two
//!   metrics of one scope over one window, fold both series in one loop
//!   ([`MetricStore::window_summary_pair`]), one bucket of each per
//!   iteration. Every read folds a window the same way, one bucket per
//!   step of one walk; a pair steps two walks in turn, so each series
//!   keeps exactly the merges and pushes of its own read, and only the
//!   two independent dependency chains interleave, so the CPU overlaps
//!   their divides. Validity rule: none is needed — each side is a
//!   single read's walk, with its own raw cursor, and the longer side
//!   finishes alone; a pair counts as two reads and fills both memos.
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
use std::sync::Arc;

/// Default width of a pre-aggregation bucket.
pub const DEFAULT_BUCKET_WIDTH: SimDuration = SimDuration::from_secs(1);

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

/// One metric series: its non-empty pre-aggregated buckets plus a raw
/// sample tail.
#[derive(Debug, Default)]
struct Series {
    /// Samples ever recorded (survives compaction).
    total: u64,
    /// Latest sample time seen, in ms — drives retention.
    max_time_ms: u64,
    /// Indices of the buckets holding at least one sample, ascending;
    /// bucket `i` covers `[i*width, (i+1)*width)` ms. A stretch of time
    /// without a sample has no entry, so the two columns grow with the
    /// samples, never with elapsed time.
    bucket_idx: Vec<u64>,
    /// `buckets[p]` aggregates bucket `bucket_idx[p]`.
    buckets: Vec<OnlineStats>,
    /// Raw samples with `time >= raw_floor_ms`, in arrival order.
    raw: VecDeque<Sample>,
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
/// function of besides the store's bucket width.
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

    /// Position of bucket `idx` in the columns, entered empty if the series
    /// has none yet. The virtual clock puts every sample but a late one in
    /// the newest bucket or a new one after it — O(1); a late sample
    /// bisects, and inserts mid-column if its bucket never existed. Nothing
    /// is filled in between, however far `idx` is from its neighbours.
    fn bucket_position(&mut self, idx: u64) -> usize {
        let pos = match self.newest_bucket() {
            Some(newest) if idx == newest => return self.buckets.len() - 1,
            Some(newest) if idx < newest => match self.bucket_idx.binary_search(&idx) {
                Ok(pos) => return pos,
                Err(pos) => pos,
            },
            _ => self.buckets.len(),
        };
        self.bucket_idx.insert(pos, idx);
        self.buckets.insert(pos, OnlineStats::new());
        pos
    }

    /// Bytes of series state held: a length times an element size for each
    /// of the index column, the buckets and the raw tail.
    fn state_bytes(&self) -> usize {
        use std::mem::size_of;
        self.bucket_idx.len() * size_of::<u64>()
            + self.buckets.len() * size_of::<OnlineStats>()
            + self.raw.len() * size_of::<Sample>()
    }

    /// Appends a run of samples in one go — the batched ingestion path.
    ///
    /// The bucket is looked up once per same-bucket run instead of once
    /// per sample, the raw tail is extended with a block copy, and long
    /// runs feed four interleaved Welford chains (merged exactly with
    /// parallel Welford) so aggregation is not latency-bound on one
    /// serial divide chain. Counts, extrema, and the raw tail are
    /// identical to pushing each sample individually; bucket mean and
    /// variance may differ by floating-point rounding only, and stay
    /// deterministic for a given sample sequence. Samples come in arrival
    /// order, mostly but not always time order; a late one starts a new
    /// run in its own bucket. Returns `true` when a sample landed in a
    /// bucket older than the newest — the caller renews [`Series::epoch`].
    fn push_run(&mut self, samples: &[Sample], width_ms: u64) -> bool {
        let mut rewrote_history = false;
        let mut i = 0;
        while i < samples.len() {
            let idx = samples[i].time.as_millis() / width_ms;
            rewrote_history |= self.newest_bucket().is_some_and(|newest| idx < newest);
            let pos = self.bucket_position(idx);
            let b_start = idx * width_ms;
            let b_end = b_start + width_ms;
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
            let stats = &mut self.buckets[pos];
            if run.len() < 16 {
                for s in run {
                    stats.push(s.value);
                }
            } else {
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
            self.total += run.len() as u64;
            if self.raw_floor_ms == 0 {
                self.raw.extend(run.iter().copied());
            } else {
                let floor = self.raw_floor_ms;
                self.raw.extend(run.iter().copied().filter(|s| s.time.as_millis() >= floor));
            }
            i = j;
        }
        rewrote_history
    }

    /// Drops raw samples older than `horizon` behind the series' latest
    /// sample, in whole-bucket units (their buckets remain).
    fn compact(&mut self, horizon_ms: u64, width_ms: u64) {
        let cutoff = self.max_time_ms.saturating_sub(horizon_ms);
        let aligned = (cutoff / width_ms) * width_ms;
        if aligned <= self.raw_floor_ms {
            return;
        }
        while self.raw.front().is_some_and(|s| s.time.as_millis() < aligned) {
            self.raw.pop_front();
        }
        self.raw_floor_ms = aligned;
    }

    /// The bucket indices a query over `from_ms <= time < to_ms` reaches;
    /// empty when the interval is.
    fn bucket_span(from_ms: u64, to_ms: u64, width_ms: u64) -> std::ops::Range<u64> {
        if to_ms > from_ms {
            from_ms / width_ms..(to_ms - 1) / width_ms + 1
        } else {
            0..0
        }
    }

    /// The walk over the whole query `from_ms <= time < to_ms`, from an
    /// empty accumulator.
    fn walk(&self, from_ms: u64, to_ms: u64, width_ms: u64) -> Walk<'_> {
        let buckets = Self::bucket_span(from_ms, to_ms, width_ms);
        Walk::new(self, buckets, from_ms, to_ms, width_ms, OnlineStats::new())
    }

    /// [`Series::walk`]'s summary, continued from `cursor` where it is
    /// still good (see [`WindowCursor`] for the rule). The buckets, their
    /// order and every merge and push are those of the walk from scratch,
    /// so the summary is the same to the bit.
    fn resume(
        &self,
        from_ms: u64,
        to_ms: u64,
        width_ms: u64,
        cursor: &WindowCursor,
    ) -> (Summary, WindowCursor) {
        let span = Self::bucket_span(from_ms, to_ms, width_ms);
        // What a later look may skip: buckets the window covers whole on
        // both sides — so the fold only merged them, whatever the raw tail
        // and the compaction floor were — and older than the newest, so a
        // write to any of them has renewed the epoch.
        let keep_to = match self.newest_bucket() {
            Some(newest) if from_ms.is_multiple_of(width_ms) => {
                (to_ms / width_ms).min(newest).max(span.start)
            }
            _ => span.start,
        };
        let good = cursor.epoch == self.epoch
            && cursor.from_ms == from_ms
            && (span.start..=keep_to).contains(&cursor.next_bucket);
        let (acc, start) =
            if good { (cursor.acc, cursor.next_bucket) } else { (OnlineStats::new(), span.start) };
        let acc = Walk::new(self, start..keep_to, from_ms, to_ms, width_ms, acc).finish();
        let kept = WindowCursor { from_ms, next_bucket: keep_to, epoch: self.epoch, acc };
        let acc = Walk::new(self, keep_to..span.end, from_ms, to_ms, width_ms, acc).finish();
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
    fn window(&self, from_ms: u64, to_ms: u64, width_ms: u64) -> Summary {
        self.remembered(from_ms, to_ms).unwrap_or_else(|| {
            let acc = self.walk(from_ms, to_ms, width_ms).finish();
            self.remember(from_ms, to_ms, &acc)
        })
    }

    /// [`Series::window`] of two series over one window, the two folds
    /// taken in lockstep when neither is remembered.
    fn window_pair(
        a: &Series,
        b: &Series,
        from_ms: u64,
        to_ms: u64,
        width_ms: u64,
    ) -> [Summary; 2] {
        match (a.remembered(from_ms, to_ms), b.remembered(from_ms, to_ms)) {
            (Some(x), Some(y)) => [x, y],
            (None, None) => {
                let [x, y] =
                    lockstep(a.walk(from_ms, to_ms, width_ms), b.walk(from_ms, to_ms, width_ms));
                [a.remember(from_ms, to_ms, &x), b.remember(from_ms, to_ms, &y)]
            }
            (x, y) => [
                x.unwrap_or_else(|| a.window(from_ms, to_ms, width_ms)),
                y.unwrap_or_else(|| b.window(from_ms, to_ms, width_ms)),
            ],
        }
    }
}

/// The store's one fold: the non-empty buckets of a series with an index
/// in a range, in order, folded into an accumulator for the query
/// `from_ms <= time < to_ms`, one bucket per [`Walk::step`] — so that
/// [`lockstep`] can run two side by side, and a resumed read can stop at
/// the buckets its cursor keeps and go on from there.
struct Walk<'a> {
    series: &'a Series,
    /// The two bucket columns from the next bucket on.
    idx: &'a [u64],
    stats: &'a [OnlineStats],
    /// First bucket index past the range.
    end: u64,
    from_ms: u64,
    to_ms: u64,
    width_ms: u64,
    raw_cursor: Option<usize>,
    acc: OnlineStats,
}

impl<'a> Walk<'a> {
    #[inline(always)]
    fn new(
        series: &'a Series,
        buckets: std::ops::Range<u64>,
        from_ms: u64,
        to_ms: u64,
        width_ms: u64,
        acc: OnlineStats,
    ) -> Self {
        // No bucket is past the latest sample's: a look at a series that has
        // since gone quiet — a version out of traffic — walks nothing, and
        // is decided on the series' own fields without a read of either
        // column.
        let first = if buckets.is_empty() || buckets.start > series.max_time_ms / width_ms {
            series.bucket_idx.len()
        } else {
            first_at_or_after(&series.bucket_idx, buckets.start)
        };
        Walk {
            series,
            idx: &series.bucket_idx[first..],
            stats: &series.buckets[first..],
            end: buckets.end,
            from_ms,
            to_ms,
            width_ms,
            raw_cursor: None,
            acc,
        }
    }

    /// Folds the next bucket into the accumulator; `false`, folding
    /// nothing, once the range has none left. A bucket the query covers
    /// whole, or one compacted below the raw floor (bucket granularity),
    /// is merged; a partially covered edge pushes its raw samples in the
    /// query, from one raw cursor per walk.
    #[inline(always)]
    fn step(&mut self) -> bool {
        let (Some((&b, idx)), Some((stats, rest))) =
            (self.idx.split_first(), self.stats.split_first())
        else {
            return false;
        };
        if b >= self.end {
            return false;
        }
        (self.idx, self.stats) = (idx, rest);
        let series = self.series;
        let b_start = b * self.width_ms;
        let b_end = b_start + self.width_ms;
        if (self.from_ms <= b_start && self.to_ms >= b_end) || b_start < series.raw_floor_ms {
            self.acc.merge(stats);
        } else {
            let s = self.from_ms.max(b_start);
            let e = self.to_ms.min(b_end);
            let mut i = *self
                .raw_cursor
                .get_or_insert_with(|| series.raw.partition_point(|x| x.time.as_millis() < s));
            while let Some(sample) = series.raw.get(i) {
                let t = sample.time.as_millis();
                if t >= e {
                    break;
                }
                if t >= s {
                    self.acc.push(sample.value);
                }
                i += 1;
            }
            self.raw_cursor = Some(i);
        }
        true
    }

    /// Walks to the end of the range and returns the accumulator.
    #[inline(always)]
    fn finish(mut self) -> OnlineStats {
        while self.step() {}
        self.acc
    }
}

/// Runs two walks to their ends, one step of each per iteration, then
/// the longer one's tail alone. Each walk makes the merges and pushes it
/// would make on its own, in the same order; what changes is only that
/// two independent dependency chains — each a serial divide per merge —
/// are in flight at once.
fn lockstep(mut a: Walk<'_>, mut b: Walk<'_>) -> [OnlineStats; 2] {
    while a.step() & b.step() {}
    [a.finish(), b.finish()]
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
    bucket_width_ms: u64,
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
    /// Creates an empty store with the [`DEFAULT_BUCKET_WIDTH`] and
    /// unbounded retention.
    pub fn new() -> Self {
        MetricStore::with_bucket_width(DEFAULT_BUCKET_WIDTH)
    }

    /// Creates an empty store with a custom pre-aggregation bucket width.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero.
    pub fn with_bucket_width(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bucket width must be positive");
        MetricStore {
            interner: Interner::new(),
            series: Vec::new(),
            bucket_width_ms: width.as_millis(),
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

    /// The scope name behind an id.
    pub fn scope_name(&self, id: ScopeId) -> Arc<str> {
        self.interner.name(id)
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
        let MetricStore { series, epochs, bucket_width_ms, retention_ms, .. } = self;
        ingest(series, epochs, *bucket_width_ms, *retention_ms, slot_of(scope, metric), &[sample]);
    }

    fn series_at(&self, scope: ScopeId, metric: MetricKind) -> Option<&Series> {
        self.series.get(slot_of(scope, metric))?.as_ref()
    }

    /// Counts `n` windowed reads.
    fn count_reads(&self, n: u64) {
        self.window_reads.set(self.window_reads.get() + n);
    }

    /// Number of samples ever recorded into a series (compaction does not
    /// reduce it).
    pub fn count(&self, scope: &str, metric: MetricKind) -> usize {
        self.resolve(scope).map_or(0, |id| self.count_id(id, metric))
    }

    /// [`MetricStore::count`] for an interned scope.
    pub fn count_id(&self, scope: ScopeId, metric: MetricKind) -> usize {
        self.series_at(scope, metric).map_or(0, |s| s.total as usize)
    }

    /// All scopes currently holding at least one series.
    pub fn scopes(&self) -> Vec<String> {
        let mut scopes: Vec<String> = self
            .series
            .chunks(KIND_COUNT)
            .enumerate()
            .filter(|(_, kinds)| kinds.iter().any(Option::is_some))
            .map(|(scope, _)| self.scope_name(ScopeId::from_index(scope)).to_string())
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
        self.resolve(scope)
            .map_or_else(Summary::default, |id| self.summary_between_id(id, metric, from, to))
    }

    /// [`MetricStore::summary_between`] for an interned scope.
    pub fn summary_between_id(
        &self,
        scope: ScopeId,
        metric: MetricKind,
        from: SimTime,
        to: SimTime,
    ) -> Summary {
        self.series_at(scope, metric)
            .map(|s| {
                s.walk(from.as_millis(), to.as_millis(), self.bucket_width_ms).finish().summary()
            })
            .unwrap_or_default()
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
                self.count_reads(1);
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
        self.count_reads(1);
        let (from_ms, to_ms) = trailing(now, window);
        self.series_at(scope, metric)
            .map_or_else(Summary::default, |s| s.window(from_ms, to_ms, self.bucket_width_ms))
    }

    /// [`MetricStore::window_summary_id`] of two series over one window,
    /// `[a, b]` in argument order: what two calls return, to the bit, from
    /// one walk over both bucket columns, one bucket of each per step. It
    /// counts as two windowed reads, and as two measurements of the query
    /// probe.
    pub fn window_summary_pair(
        &self,
        a: (ScopeId, MetricKind),
        b: (ScopeId, MetricKind),
        now: SimTime,
        window: SimDuration,
    ) -> [Summary; 2] {
        let _t = self.query_probe.time_many(2);
        self.count_reads(2);
        let (from_ms, to_ms) = trailing(now, window);
        let width_ms = self.bucket_width_ms;
        match (self.series_at(a.0, a.1), self.series_at(b.0, b.1)) {
            (Some(a), Some(b)) => Series::window_pair(a, b, from_ms, to_ms, width_ms),
            (a, b) => [a, b]
                .map(|s| s.map_or_else(Summary::default, |s| s.window(from_ms, to_ms, width_ms))),
        }
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
        self.count_reads(1);
        let (from_ms, to_ms) = trailing(now, window);
        self.series_at(scope, metric).map_or_else(
            || (Summary::default(), WindowCursor::new()),
            |s| s.resume(from_ms, to_ms, self.bucket_width_ms, cursor),
        )
    }

    /// Number of windowed reads ([`MetricStore::window_summary`] calls,
    /// a remembered answer included, with a
    /// [`MetricStore::window_summary_pair`] counting as two and a whole
    /// [`MetricStore::moving_average`] sweep as one) served since creation
    /// — the monitoring-cost counter the Bifrost journal samples per tick.
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
        self.count_reads(1);
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
                while let Some(s) = series.raw.get(hi) {
                    if s.time.as_millis() >= to_ms {
                        break;
                    }
                    sum += s.value;
                    cnt += 1;
                    hi += 1;
                }
                while let Some(s) = series.raw.get(lo) {
                    if lo >= hi || s.time.as_millis() >= from_ms {
                        break;
                    }
                    sum -= s.value;
                    cnt -= 1;
                    lo += 1;
                }
                if cnt > 0 {
                    out.push((t, sum / cnt as f64));
                }
            } else {
                // Window reaches into the compacted region: answer this
                // step at bucket granularity.
                let acc = series.walk(from_ms, to_ms, self.bucket_width_ms).finish();
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
        self.series.iter().flatten().map(|s| s.raw.len()).sum()
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
        self.series.len() * std::mem::size_of::<Option<Series>>()
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
    width_ms: u64,
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
    if series.push_run(samples, width_ms) {
        series.epoch = new_epoch();
    }
    if retention_ms != 0 {
        series.compact(retention_ms, width_ms);
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
            bucket_width_ms,
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
            ingest(series, epochs, *bucket_width_ms, *retention_ms, slot, samples);
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
/// buffered push — no string formatting or hashing. Drop (or
/// [`MetricSink::flush`]) writes the buffer through to the store; the
/// simulation flushes at window boundaries so store contents stay
/// deterministic.
#[derive(Debug)]
pub struct MetricSink<'a> {
    batch: SampleBatch<'a>,
    version_scopes: &'a [ScopeId],
    app_scope: ScopeId,
}

impl<'a> MetricSink<'a> {
    /// Creates a sink over `store`. `version_scopes` must be indexed by
    /// `VersionId` (see [`MetricStore::intern_version_scopes`]);
    /// `app_scope` receives end-to-end metrics.
    pub fn new(
        store: &'a mut MetricStore,
        version_scopes: &'a [ScopeId],
        app_scope: ScopeId,
    ) -> Self {
        MetricSink { batch: store.batch(), version_scopes, app_scope }
    }

    /// Records a per-version observation under its `service@version` scope.
    pub fn record_version(
        &mut self,
        version: VersionId,
        metric: MetricKind,
        time: SimTime,
        value: f64,
    ) {
        self.batch.record_value_id(self.version_scopes[version.0], metric, time, value);
    }

    /// Records an end-to-end (user-perceived) observation.
    pub fn record_app(&mut self, metric: MetricKind, time: SimTime, value: f64) {
        self.batch.record_value_id(self.app_scope, metric, time, value);
    }

    /// Writes all buffered samples through to the store.
    pub fn flush(&mut self) {
        self.batch.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_with_ramp() -> MetricStore {
        let mut store = MetricStore::new();
        // value(t) = t/1000 for t = 0ms, 100ms, …, 9900ms
        for i in 0..100u64 {
            store.record_value(
                "svc@1.0.0",
                MetricKind::ResponseTime,
                SimTime::from_millis(i * 100),
                i as f64,
            );
        }
        store
    }

    #[test]
    fn counts_and_scopes() {
        let store = store_with_ramp();
        assert_eq!(store.count("svc@1.0.0", MetricKind::ResponseTime), 100);
        assert_eq!(store.count("svc@1.0.0", MetricKind::ErrorRate), 0);
        assert_eq!(store.scopes(), vec!["svc@1.0.0".to_string()]);
        assert_eq!(store.total_samples(), 100);
        assert_eq!(store.total_recorded(), 100);
    }

    #[test]
    fn summary_between_respects_bounds() {
        let store = store_with_ramp();
        let s = store.summary_between(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::from_millis(1_000),
            SimTime::from_millis(2_000),
        );
        // Samples at 1000..1900ms → values 10..=19.
        assert_eq!(s.count, 10);
        assert!((s.mean - 14.5).abs() < 1e-12);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 19.0);
    }

    #[test]
    fn summary_with_unaligned_bounds_resolves_edges_exactly() {
        let store = store_with_ramp();
        // [1250, 3750): bucket width is 1s, so both edges are partial.
        let s = store.summary_between(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::from_millis(1_250),
            SimTime::from_millis(3_750),
        );
        // Samples at 1300..=3700ms → values 13..=37.
        assert_eq!(s.count, 25);
        assert_eq!(s.min, 13.0);
        assert_eq!(s.max, 37.0);
        assert!((s.mean - 25.0).abs() < 1e-12);
    }

    #[test]
    fn window_summary_trailing() {
        let store = store_with_ramp();
        let s = store.window_summary(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::from_millis(9_900),
            SimDuration::from_millis(500),
        );
        // Samples at 9400..=9900 → values 94..=99.
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 99.0);
    }

    #[test]
    fn empty_series_gives_empty_summary() {
        let store = MetricStore::new();
        let s = store.window_summary(
            "x",
            MetricKind::ErrorRate,
            SimTime::from_secs(1),
            SimDuration::from_secs(1),
        );
        assert_eq!(s.count, 0);
    }

    #[test]
    fn moving_average_tracks_ramp() {
        let store = store_with_ramp();
        let ma = store.moving_average(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::from_millis(3_000),
            SimTime::from_millis(6_000),
            SimDuration::from_secs(3),
            SimDuration::from_secs(1),
        );
        assert_eq!(ma.len(), 3);
        // The ramp's moving average increases monotonically.
        assert!(ma.windows(2).all(|w| w[0].1 < w[1].1));
    }

    #[test]
    fn window_summary_interval_is_closed_on_both_ends() {
        let mut store = MetricStore::new();
        for ms in [1_000u64, 2_000, 3_000] {
            store.record_value("s", MetricKind::ResponseTime, SimTime::from_millis(ms), ms as f64);
        }
        // Window [1000, 3000]: all three samples, including both edges.
        let s = store.window_summary(
            "s",
            MetricKind::ResponseTime,
            SimTime::from_millis(3_000),
            SimDuration::from_millis(2_000),
        );
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1_000.0);
        assert_eq!(s.max, 3_000.0);
    }

    #[test]
    fn moving_average_skips_gaps_in_the_series() {
        let mut store = MetricStore::new();
        // Two bursts with a 10-second silence between them.
        for i in 0..5u64 {
            store.record_value("s", MetricKind::ResponseTime, SimTime::from_secs(i), 10.0);
        }
        for i in 15..20u64 {
            store.record_value("s", MetricKind::ResponseTime, SimTime::from_secs(i), 30.0);
        }
        let ma = store.moving_average(
            "s",
            MetricKind::ResponseTime,
            SimTime::ZERO,
            SimTime::from_secs(20),
            SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        // Step boundaries whose trailing 2-second window is empty (the
        // gap from 7s through 14s) emit no point at all.
        assert!(ma.iter().all(|(t, _)| t.as_secs() <= 6 || t.as_secs() >= 15), "{ma:?}");
        // Points inside each burst reflect that burst's level only.
        assert!(ma.iter().filter(|(t, _)| t.as_secs() <= 6).all(|(_, v)| *v == 10.0));
        assert!(ma.iter().filter(|(t, _)| t.as_secs() >= 15).all(|(_, v)| *v == 30.0));
        assert!(!ma.is_empty());
    }

    #[test]
    fn window_reads_counts_windowed_queries() {
        let store = store_with_ramp();
        let before = store.window_reads();
        store.window_summary(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::from_secs(5),
            SimDuration::from_secs(1),
        );
        store.window_summary("ghost", MetricKind::ErrorRate, SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(store.window_reads(), before + 2);
        // Non-windowed reads are not counted.
        store.summary_between("svc@1.0.0", MetricKind::ResponseTime, SimTime::ZERO, SimTime::ZERO);
        assert_eq!(store.window_reads(), before + 2);
    }

    #[test]
    fn moving_average_counts_as_one_window_read() {
        // Regression: the old implementation issued one window_summary per
        // step boundary, inflating the journal's per-tick monitoring-cost
        // accounting by the step count (30 increments for this sweep).
        let store = store_with_ramp();
        let before = store.window_reads();
        let ma = store.moving_average(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::ZERO,
            SimTime::from_secs(9),
            SimDuration::from_secs(3),
            SimDuration::from_millis(300),
        );
        assert_eq!(ma.len(), 30, "one point per step over the dense ramp");
        assert_eq!(store.window_reads(), before + 1, "a sweep is one bulk read");
    }

    #[test]
    fn moving_average_matches_per_step_window_summaries() {
        let store = store_with_ramp();
        let window = SimDuration::from_millis(700);
        let step = SimDuration::from_millis(300);
        let ma = store.moving_average(
            "svc@1.0.0",
            MetricKind::ResponseTime,
            SimTime::ZERO,
            SimTime::from_secs(10),
            window,
            step,
        );
        let mut t = SimTime::ZERO;
        let mut expected = Vec::new();
        while t < SimTime::from_secs(10) {
            let s = store.window_summary("svc@1.0.0", MetricKind::ResponseTime, t, window);
            if s.count > 0 {
                expected.push((t, s.mean));
            }
            t += step;
        }
        assert_eq!(ma.len(), expected.len());
        for ((ta, va), (te, ve)) in ma.iter().zip(&expected) {
            assert_eq!(ta, te);
            assert!((va - ve).abs() < 1e-9, "at {ta}: {va} vs {ve}");
        }
    }

    #[test]
    fn clear_scope_removes_series() {
        let mut store = store_with_ramp();
        store.record_value("other", MetricKind::ErrorRate, SimTime::ZERO, 0.0);
        store.clear_scope("svc@1.0.0");
        assert_eq!(store.count("svc@1.0.0", MetricKind::ResponseTime), 0);
        assert_eq!(store.count("other", MetricKind::ErrorRate), 1);
    }

    #[test]
    fn interner_is_idempotent_and_resolvable() {
        let mut store = MetricStore::new();
        let a = store.intern("svc@1");
        let b = store.intern("svc@2");
        assert_ne!(a, b);
        assert_eq!(store.intern("svc@1"), a);
        assert_eq!(store.resolve("svc@1"), Some(a));
        assert_eq!(store.resolve("missing"), None);
        assert_eq!(&*store.scope_name(b), "svc@2");
    }

    #[test]
    fn batch_is_equivalent_to_direct_records() {
        let mut direct = MetricStore::new();
        let mut batched = MetricStore::new();
        let scope = batched.intern("svc@1");
        let mut batch = batched.batch();
        for i in 0..500u64 {
            let t = SimTime::from_millis(i * 10);
            let v = (i as f64).sin() * 50.0;
            direct.record_value("svc@1", MetricKind::ResponseTime, t, v);
            batch.record_value_id(scope, MetricKind::ResponseTime, t, v);
        }
        drop(batch); // flush
        assert_eq!(batched.count("svc@1", MetricKind::ResponseTime), 500);
        let a = direct.window_summary(
            "svc@1",
            MetricKind::ResponseTime,
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
        );
        let b = batched.window_summary(
            "svc@1",
            MetricKind::ResponseTime,
            SimTime::from_secs(4),
            SimDuration::from_secs(2),
        );
        // Counts, extrema, and the raw-backed window edges are identical;
        // bucket mean/variance may differ by rounding only, because the
        // batched path aggregates long runs over interleaved Welford
        // chains (see Series::push_run).
        assert_eq!(a.count, b.count, "batched ingestion keeps every sample");
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
        assert!(
            (a.mean - b.mean).abs() <= 1e-9 * a.mean.abs().max(1.0),
            "{} vs {}",
            a.mean,
            b.mean
        );
        assert!(
            (a.std_dev - b.std_dev).abs() <= 1e-9 * a.std_dev.abs().max(1.0),
            "{} vs {}",
            a.std_dev,
            b.std_dev
        );
    }

    #[test]
    fn retention_bounds_raw_samples_but_not_counts() {
        let mut store = MetricStore::new();
        store.set_retention(Some(SimDuration::from_secs(2)));
        assert_eq!(store.retention(), Some(SimDuration::from_secs(2)));
        for i in 0..100u64 {
            store.record_value(
                "s",
                MetricKind::ResponseTime,
                SimTime::from_millis(i * 100),
                i as f64,
            );
        }
        // Logical count is untouched; raw memory is bounded to roughly the
        // horizon (2s of samples at 10/s, bucket-aligned).
        assert_eq!(store.count("s", MetricKind::ResponseTime), 100);
        assert_eq!(store.total_recorded(), 100);
        assert!(store.total_samples() <= 31, "raw tail bounded: {}", store.total_samples());
        // Recent windows are still exact.
        let s = store.window_summary(
            "s",
            MetricKind::ResponseTime,
            SimTime::from_millis(9_900),
            SimDuration::from_millis(500),
        );
        assert_eq!(s.count, 6);
        assert_eq!(s.max, 99.0);
    }

    #[test]
    fn compacted_region_is_answered_at_bucket_granularity() {
        let mut store = MetricStore::new();
        store.set_retention(Some(SimDuration::from_secs(2)));
        for i in 0..100u64 {
            store.record_value(
                "s",
                MetricKind::ResponseTime,
                SimTime::from_millis(i * 100),
                i as f64,
            );
        }
        // A full-range summary still sees every sample: compacted buckets
        // are merged whole, the raw tail exactly.
        let s = store.summary_between(
            "s",
            MetricKind::ResponseTime,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(s.count, 100);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 99.0);
        assert!((s.mean - 49.5).abs() < 1e-9);
        // A query cutting into a compacted bucket includes that whole
        // bucket (bucket granularity): [1250, 2000) yields the full
        // 1000..=1900ms bucket, i.e. values 10..=19.
        let s = store.summary_between(
            "s",
            MetricKind::ResponseTime,
            SimTime::from_millis(1_250),
            SimTime::from_millis(2_000),
        );
        assert_eq!(s.count, 10);
        assert_eq!(s.min, 10.0);
    }

    fn bits(s: Summary) -> [u64; 5] {
        [s.count, s.mean.to_bits(), s.std_dev.to_bits(), s.min.to_bits(), s.max.to_bits()]
    }

    /// The fold [`Walk`] replaced, kept as it was: the oracle that single,
    /// paired, remembered and resumed reads are all held to, so that a
    /// defect in the one walk they share cannot pass by agreeing with
    /// itself.
    impl Series {
        /// Folds the non-empty buckets with an index in `buckets`, in order,
        /// of the query `from_ms <= time < to_ms` into `acc`: whole buckets
        /// merged for the fully covered interior, raw samples pushed
        /// individually for the partially covered edges. Edge buckets below
        /// the compaction floor are merged whole (bucket granularity).
        fn fold(
            &self,
            buckets: std::ops::Range<u64>,
            from_ms: u64,
            to_ms: u64,
            width_ms: u64,
            acc: &mut OnlineStats,
        ) {
            // No bucket is past the latest sample's: a look at a series that has
            // since gone quiet — a version out of traffic — ends here, on the
            // series' own fields, without a read of either column.
            if buckets.is_empty() || buckets.start > self.max_time_ms / width_ms {
                return;
            }
            let mut raw_cursor: Option<usize> = None;
            let first = first_at_or_after(&self.bucket_idx, buckets.start);
            for (&b, stats) in self.bucket_idx[first..].iter().zip(&self.buckets[first..]) {
                if b >= buckets.end {
                    break;
                }
                let b_start = b * width_ms;
                let b_end = b_start + width_ms;
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

        /// Accumulates the samples with `from_ms <= time < to_ms` into `acc`.
        fn accumulate(&self, from_ms: u64, to_ms: u64, width_ms: u64, acc: &mut OnlineStats) {
            self.fold(Self::bucket_span(from_ms, to_ms, width_ms), from_ms, to_ms, width_ms, acc);
        }
    }

    /// The oracle fold's summary of `from_ms <= time < to_ms` over one
    /// series of `store`, from an empty accumulator.
    fn folded(
        store: &MetricStore,
        series: (ScopeId, MetricKind),
        from_ms: u64,
        to_ms: u64,
    ) -> Summary {
        let mut acc = OnlineStats::new();
        if let Some(s) = store.series_at(series.0, series.1) {
            s.accumulate(from_ms, to_ms, store.bucket_width_ms, &mut acc);
        }
        acc.summary()
    }

    /// The fold stated apart from the store's layout, for the search below:
    /// buckets in a `BTreeMap` pushed sample by sample, every raw sample in
    /// a `Vec` in arrival order, no retention.
    struct Reference {
        width: u64,
        buckets: std::collections::BTreeMap<u64, OnlineStats>,
        raw: Vec<Sample>,
    }

    impl Reference {
        /// Records `sample`; `true` when it opened a bucket that never
        /// existed between two that do.
        // `OnlineStats::default()` is all zeros, not the empty accumulator.
        #[allow(clippy::unwrap_or_default)]
        fn record(&mut self, sample: Sample) -> bool {
            let idx = sample.time.as_millis() / self.width;
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
            for (&b, stats) in self.buckets.range(from_ms / self.width..=(to_ms - 1) / self.width) {
                let (b_start, b_end) = (b * self.width, (b + 1) * self.width);
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

    #[test]
    fn resumed_windows_equal_fresh_ones_over_searched_histories() {
        // Differential search: one series per seed lives through a random
        // history — bursts, silences of a few buckets and of 10⁴–10⁶, late
        // samples reaching back over several buckets or into the middle of
        // a long silence (a bucket that never existed, between two that
        // do), the scope cleared and recorded again, retention compacting
        // past the window start, a window start on and off the bucket grid
        // that sometimes moves, and `now` mostly advancing but sometimes
        // stepping back. At every look the read continued from the
        // previous look's cursor must be the fresh read, bit for bit, and
        // both must be the oracle fold's — and on seeds without retention
        // the `Reference`'s — so a walk that lost a bucket cannot agree
        // with itself and pass.
        use cex_core::rng::SplitMix64;
        let metric = MetricKind::ResponseTime;
        let (mut looks, mut kept_something) = (0u32, 0u32);
        let (mut checked, mut opened_between) = (0u32, 0u32);
        for seed in 0..400u64 {
            let mut rng = SplitMix64::new(0xC0FFEE ^ seed);
            let width = [250u64, 700, 1_000, 3_000][rng.next_index(4)];
            let mut store = MetricStore::with_bucket_width(SimDuration::from_millis(width));
            let mut reference = Some(Reference { width, buckets: Default::default(), raw: vec![] });
            if rng.next_below(3) == 0 {
                let horizon = width * (1 + rng.next_below(6));
                store.set_retention(Some(SimDuration::from_millis(horizon)));
                reference = None;
            }
            let scope = store.intern("svc@1");
            let mut record = |store: &mut MetricStore,
                              reference: &mut Option<Reference>,
                              t_ms: u64,
                              value: f64| {
                let sample = Sample::new(SimTime::from_millis(t_ms), value);
                store.record_id(scope, metric, sample);
                if let Some(reference) = reference {
                    opened_between += u32::from(reference.record(sample));
                }
            };
            let mut clock = rng.next_below(5_000);
            let mut from = clock;
            let mut long_silence = clock..clock;
            let mut cursor = WindowCursor::new();
            for _ in 0..120 {
                match rng.next_below(12) {
                    // A burst of in-order samples.
                    0..=4 => {
                        for _ in 0..rng.next_below(40) {
                            clock += rng.next_below(width / 4 + 1);
                            record(&mut store, &mut reference, clock, rng.next_f64() * 100.0);
                        }
                    }
                    // Silence: whole buckets with nothing in them.
                    5 => clock += width * rng.next_below(5),
                    // A late sample, up to six buckets back.
                    6 | 7 => {
                        let t = clock.saturating_sub(rng.next_below(width * 6));
                        record(&mut store, &mut reference, t, -5.0);
                    }
                    8 if rng.next_below(4) == 0 => {
                        store.clear_scope("svc@1");
                        if let Some(reference) = &mut reference {
                            reference.buckets.clear();
                            reference.raw.clear();
                        }
                    }
                    // A new window start: on the grid or off it.
                    9 => {
                        from = clock.saturating_sub(rng.next_below(width * 8));
                        if rng.next_below(2) == 0 {
                            from -= from % width;
                        }
                    }
                    // A long silence: 10⁴–10⁶ buckets with nothing in them.
                    10 if rng.next_below(4) == 0 => {
                        let start = clock + width;
                        clock += width * (10_000 + rng.next_below(990_001));
                        long_silence = start..clock - width;
                    }
                    // A late sample somewhere in the last long silence.
                    11 if !long_silence.is_empty() => {
                        let t = long_silence.start
                            + rng.next_below(long_silence.end - long_silence.start);
                        record(&mut store, &mut reference, t, -7.0);
                    }
                    _ => {}
                }
                let back = if rng.next_below(8) == 0 { rng.next_below(width * 3) } else { 0 };
                let now = SimTime::from_millis(clock.saturating_sub(back).max(from));
                let window = SimDuration::from_millis(now.as_millis() - from);
                let fresh = store.window_summary_id(scope, metric, now, window);
                let (resumed, next) =
                    store.window_summary_resumed(scope, metric, now, window, &cursor);
                assert_eq!(bits(resumed), bits(fresh), "seed {seed} width {width} at {now}");
                let (scratch, _) =
                    store.window_summary_resumed(scope, metric, now, window, &WindowCursor::new());
                assert_eq!(bits(scratch), bits(fresh), "seed {seed}: from scratch");
                let oracle = folded(&store, (scope, metric), from, now.as_millis() + 1);
                assert_eq!(bits(fresh), bits(oracle), "seed {seed} width {width} at {now}: fresh");
                assert_eq!(bits(resumed), bits(oracle), "seed {seed} at {now}: resumed");
                if let Some(reference) = &reference {
                    let stated = reference.summary(from, now.as_millis() + 1);
                    assert_eq!(bits(fresh), bits(stated), "seed {seed} width {width} at {now}");
                    checked += 1;
                }
                looks += 1;
                kept_something += u32::from(next.acc.count() > 0);
                cursor = next;
            }
        }
        // The search is not vacuous: a good share of looks left a fold
        // behind for the next one to continue, most were held against the
        // reference, and late samples did open buckets mid-column.
        assert!(kept_something * 4 > looks, "{kept_something} of {looks} looks kept a fold");
        assert!(checked * 2 > looks, "{checked} of {looks} looks checked against the reference");
        assert!(opened_between > 400, "{opened_between} buckets opened between two others");
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

    #[test]
    fn unbounded_store_never_compacts() {
        let store = store_with_ramp();
        assert_eq!(store.retention(), None);
        assert_eq!(store.total_samples(), 100);
    }

    #[test]
    fn paired_reads_equal_two_single_reads_over_searched_histories() {
        // Differential search: two series — two metrics of one scope, or
        // two scopes — live through random histories of different lengths:
        // the second is written more sparsely, sometimes not at all; both
        // go quiet for stretches; late samples reach back over several
        // buckets; retention sometimes compacts past the window start; the
        // window's edges fall on and off the bucket grid. At every look the
        // pair must be two `window_summary_id` calls on a twin store read
        // one series at a time, the read from scratch (`summary_between_id`,
        // which no memo serves) and the oracle fold, bit for bit — and,
        // without retention, the `Reference`'s. Some looks read one side
        // alone first or repeat the pair, so the pair also meets one or two
        // remembered sides.
        use cex_core::rng::SplitMix64;
        struct Twin {
            paired: MetricStore,
            singles: MetricStore,
            sides: [(ScopeId, MetricKind); 2],
            references: [Option<Reference>; 2],
        }
        impl Twin {
            fn record(&mut self, side: usize, t_ms: u64, value: f64) {
                let (scope, metric) = self.sides[side];
                let sample = Sample::new(SimTime::from_millis(t_ms), value);
                self.paired.record_id(scope, metric, sample);
                self.singles.record_id(scope, metric, sample);
                if let Some(reference) = &mut self.references[side] {
                    reference.record(sample);
                }
            }
        }
        let (mut looks, mut uneven, mut one_empty) = (0u32, 0u32, 0u32);
        let (mut unaligned, mut compacted, mut remembered) = (0u32, 0u32, 0u32);
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(0x9A1B ^ seed);
            let width = [100u64, 250, 1_000, 3_000][rng.next_index(4)];
            let retention = (rng.next_below(3) == 0).then(|| width * (1 + rng.next_below(6)));
            let new_store = || {
                let mut store = MetricStore::with_bucket_width(SimDuration::from_millis(width));
                store.set_retention(retention.map(SimDuration::from_millis));
                store
            };
            let (mut paired, mut singles) = (new_store(), new_store());
            let ids = [paired.intern("svc@1"), paired.intern("svc@2")];
            assert_eq!([singles.intern("svc@1"), singles.intern("svc@2")], ids);
            let (a, b) = ((ids[0], MetricKind::ResponseTime), (ids[0], MetricKind::ErrorRate));
            let b = if rng.next_below(2) == 0 { b } else { (ids[1], MetricKind::ResponseTime) };
            let reference = || Reference { width, buckets: Default::default(), raw: vec![] };
            let references = [0, 1].map(|_| retention.is_none().then(reference));
            let mut twin = Twin { paired, singles, sides: [a, b], references };
            // How often the second series is written, in quarters of the
            // first's: never, now and then, or as often.
            let b_share = [0, 1, 3, 4][rng.next_index(4)];
            let mut clock = rng.next_below(5_000);
            for _ in 0..80 {
                match rng.next_below(10) {
                    0..=5 => {
                        for _ in 0..rng.next_below(40) {
                            clock += rng.next_below(width / 3 + 1);
                            twin.record(0, clock, rng.next_f64() * 100.0);
                            if rng.next_below(4) < b_share {
                                twin.record(1, clock, rng.next_f64());
                            }
                        }
                    }
                    6 => clock += width * rng.next_below(8),
                    7 => {
                        let side = usize::from(b_share > 0 && rng.next_below(2) == 0);
                        twin.record(side, clock.saturating_sub(rng.next_below(width * 6)), -5.0);
                    }
                    _ => {}
                }
                let back = if rng.next_below(6) == 0 { rng.next_below(width * 3) } else { 0 };
                let now = SimTime::from_millis(clock.saturating_sub(back));
                let window = SimDuration::from_millis(match rng.next_below(3) {
                    0 => width * (1 + rng.next_below(12)),
                    _ => rng.next_below(width * 12),
                });
                let store = &twin.paired;
                match rng.next_below(5) {
                    0 => {
                        let _ = store.window_summary_id(a.0, a.1, now, window);
                    }
                    1 => {
                        let _ = store.window_summary_id(b.0, b.1, now, window);
                    }
                    _ => {}
                }
                let (from_ms, to_ms) = trailing(now, window);
                remembered += u32::from([a, b].iter().any(|&(scope, metric)| {
                    store
                        .series_at(scope, metric)
                        .and_then(|s| s.remembered(from_ms, to_ms))
                        .is_some()
                }));
                let pair = store.window_summary_pair(a, b, now, window);
                if rng.next_below(4) == 0 {
                    let again = store.window_summary_pair(a, b, now, window);
                    assert_eq!(again.map(bits), pair.map(bits), "seed {seed}: a repeated pair");
                }
                let (from, to) = (SimTime::from_millis(from_ms), SimTime::from_millis(to_ms));
                for (side, (scope, metric)) in [a, b].into_iter().enumerate() {
                    let single = twin.singles.window_summary_id(scope, metric, now, window);
                    let fresh = store.summary_between_id(scope, metric, from, to);
                    let at =
                        format!("seed {seed} width {width} side {side} at {now} over {window}");
                    assert_eq!(bits(pair[side]), bits(single), "{at}: pair vs single");
                    assert_eq!(bits(pair[side]), bits(fresh), "{at}: pair vs fresh read");
                    let oracle = folded(store, (scope, metric), from_ms, to_ms);
                    assert_eq!(bits(pair[side]), bits(oracle), "{at}: pair vs the fold");
                    if let Some(reference) = &twin.references[side] {
                        let stated = reference.summary(from_ms, to_ms);
                        assert_eq!(bits(pair[side]), bits(stated), "{at}: pair vs reference");
                    }
                    let floor = store.series_at(scope, metric).map_or(0, |s| s.raw_floor_ms);
                    compacted += u32::from(floor > from_ms && pair[side].count > 0);
                }
                looks += 1;
                let counts = pair.map(|s| s.count);
                uneven += u32::from(counts[0] != counts[1] && counts.iter().all(|&c| c > 0));
                one_empty += u32::from(counts.iter().filter(|&&c| c == 0).count() == 1);
                unaligned += u32::from(from_ms % width != 0);
            }
        }
        // Not vacuous: every shape the pair must survive occurred often.
        assert!(uneven * 4 > looks, "{uneven} of {looks} looks: two unequal non-empty sides");
        assert!(one_empty * 10 > looks, "{one_empty} of {looks} looks: one side empty");
        assert!(unaligned * 2 > looks, "{unaligned} of {looks} looks: start off the grid");
        assert!(compacted > 200, "{compacted} sides read over a compacted floor");
        assert!(remembered * 10 > looks, "{remembered} of {looks} pairs met a remembered side");
    }

    #[test]
    fn a_remembered_window_is_folded_again_after_every_kind_of_write() {
        // Searched: a look, then one disturbance, then the very same look.
        // The second look must be the fold from scratch, bit for bit,
        // whatever came between: nothing (a hit), a sample inside the
        // window, a late one into an older bucket inside or before it, a
        // write far ahead that makes retention compact past the window
        // start, a compaction on its own, or the scope cleared and
        // recorded again with as many samples. Each kind that can change
        // the answer must have changed it somewhere — else a memo that
        // ignored it would pass.
        use cex_core::rng::SplitMix64;
        let metric = MetricKind::ResponseTime;
        let mut changed = [0u32; 7];
        let mut hits = 0u32;
        for seed in 0..300u64 {
            let mut rng = SplitMix64::new(0x3E30 ^ seed);
            let width = [100u64, 250, 1_000][rng.next_index(3)];
            let mut store = MetricStore::with_bucket_width(SimDuration::from_millis(width));
            let horizon = width * (2 + rng.next_below(6));
            let retained = rng.next_below(2) == 0;
            if retained {
                store.set_retention(Some(SimDuration::from_millis(horizon)));
            }
            let scope = store.intern("svc@1");
            let mut clock = 0;
            let ramp = |store: &mut MetricStore, clock: &mut u64, n: u64, rng: &mut SplitMix64| {
                for _ in 0..n {
                    *clock += 1 + rng.next_below(width / 4);
                    store.record_id(
                        scope,
                        metric,
                        Sample::new(SimTime::from_millis(*clock), rng.next_f64()),
                    );
                }
            };
            ramp(&mut store, &mut clock, 50, &mut rng);
            for _ in 0..40 {
                let now = SimTime::from_millis(clock.saturating_sub(rng.next_below(width * 2)));
                let window = SimDuration::from_millis(width / 2 + rng.next_below(width * 8));
                let (from_ms, to_ms) = trailing(now, window);
                let first = store.window_summary_id(scope, metric, now, window);
                let kind = rng.next_index(7);
                match kind {
                    0 => {}
                    // Inside the window, at its trailing edge.
                    1 => store.record_id(scope, metric, Sample::new(now, 1e3)),
                    // Late, into an older bucket inside the window.
                    2 => {
                        let t = from_ms + rng.next_below(to_ms - from_ms);
                        store.record_id(scope, metric, Sample::new(SimTime::from_millis(t), 1e3));
                    }
                    // Late, before the window: the answer stays, the key moves.
                    3 => {
                        let t = from_ms.saturating_sub(1 + rng.next_below(width * 3));
                        store.record_id(scope, metric, Sample::new(SimTime::from_millis(t), 1e3));
                    }
                    // Far ahead: with retention, the floor moves past `from`.
                    4 => {
                        let t = from_ms + horizon + width * (1 + rng.next_below(3));
                        store.record_id(scope, metric, Sample::new(SimTime::from_millis(t), 0.5));
                        clock = clock.max(t);
                    }
                    // A compaction with no write: the floor alone moves.
                    5 => {
                        let series =
                            store.series[slot_of(scope, metric)].as_mut().expect("recorded");
                        let floor_to = from_ms + rng.next_below(to_ms - from_ms);
                        series.compact(series.max_time_ms.saturating_sub(floor_to), width);
                    }
                    // Cleared and recorded again, the same number of samples.
                    _ => {
                        let total = store.count_id(scope, metric) as u64;
                        store.clear_scope("svc@1");
                        clock = 0;
                        ramp(&mut store, &mut clock, total, &mut rng);
                    }
                }
                let again = store.window_summary_id(scope, metric, now, window);
                let (from, to) = (SimTime::from_millis(from_ms), SimTime::from_millis(to_ms));
                let fresh = store.summary_between_id(scope, metric, from, to);
                assert_eq!(
                    bits(again),
                    bits(fresh),
                    "seed {seed} width {width} kind {kind} at {now}"
                );
                changed[kind] += u32::from(bits(again) != bits(first));
                hits += u32::from(kind == 0);
                if rng.next_below(3) == 0 {
                    ramp(&mut store, &mut clock, rng.next_below(20), &mut rng);
                }
            }
        }
        assert_eq!(changed[0], 0, "nothing between two looks changes nothing");
        assert!(hits > 1_000, "{hits} looks repeated over an undisturbed series");
        for kind in [1, 2, 4, 5, 6] {
            assert!(changed[kind] > 50, "kind {kind} changed the answer {} times", changed[kind]);
        }
    }

    #[test]
    fn every_read_counts_once_remembered_or_paired_and_the_probe_agrees() {
        // A searched mix of every windowed read — single, paired, repeated
        // (a memo hit), resumed, a moving-average sweep, a scope never
        // interned — on an armed store. `window_reads` must grow by what
        // the old per-call reads counted (a pair as its two reads), and the
        // query probe must count as many measurements, so probe time over
        // probe count stays the cost of one read.
        use cex_core::rng::SplitMix64;
        let mut store = store_with_ramp();
        store.set_probes_armed(true);
        let scope = store.resolve("svc@1.0.0").expect("recorded");
        store.record_id(scope, MetricKind::ErrorRate, Sample::new(SimTime::from_secs(3), 0.0));
        let (rt, err) = ((scope, MetricKind::ResponseTime), (scope, MetricKind::ErrorRate));
        let mut rng = SplitMix64::new(7);
        let mut expected = store.window_reads();
        let mut hits = 0;
        for _ in 0..2_000 {
            let now = SimTime::from_millis(rng.next_below(4) * 2_500);
            let window = SimDuration::from_millis(rng.next_below(2) * 3_000 + 500);
            let (from_ms, to_ms) = trailing(now, window);
            hits += u32::from(
                store.series_at(rt.0, rt.1).and_then(|s| s.remembered(from_ms, to_ms)).is_some(),
            );
            expected += match rng.next_below(5) {
                0 => {
                    let _ = store.window_summary_id(rt.0, rt.1, now, window);
                    1
                }
                1 => {
                    let _ = store.window_summary_pair(rt, err, now, window);
                    2
                }
                2 => {
                    let _ =
                        store.window_summary_resumed(rt.0, rt.1, now, window, &WindowCursor::new());
                    1
                }
                3 => {
                    let _ =
                        store.moving_average("svc@1.0.0", rt.1, SimTime::ZERO, now, window, window);
                    1
                }
                _ => {
                    let _ = store.window_summary("ghost", rt.1, now, window);
                    1
                }
            };
        }
        assert!(hits > 200, "{hits} reads met a remembered window");
        assert_eq!(store.window_reads(), expected);
        assert_eq!(store.query_probe().count(), store.window_reads());
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
            let MetricStore {
                series, epochs, bucket_width_ms, retention_ms, batch_flushes, ..
            } = &mut *self.store;
            *batch_flushes += 1;
            for (slot, samples) in self.pending.iter_mut().enumerate() {
                if !samples.is_empty() {
                    ingest(series, epochs, *bucket_width_ms, *retention_ms, slot, samples);
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
            let width = [250u64, 1_000][rng.next_index(2)];
            let mut shipped = MetricStore::with_bucket_width(SimDuration::from_millis(width));
            let mut scanned = MetricStore::with_bucket_width(SimDuration::from_millis(width));
            if seed % 3 == 0 {
                let horizon = Some(SimDuration::from_millis(width * 20));
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
                    clock += rng.next_below(width / 50 + 1);
                    let t = if rng.next_below(20) == 0 {
                        clock.saturating_sub(rng.next_below(width * 4))
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
                    let now = SimTime::from_millis(clock.saturating_sub(rng.next_below(width)));
                    let from = (clock / 2) - (clock / 2) % width;
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
