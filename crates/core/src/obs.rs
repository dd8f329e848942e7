//! Runtime self-observability: hierarchical profiling spans, a unified
//! counter registry, and the determinism split between them.
//!
//! The experimentation stack observes the *experiment* (checks, traces,
//! health) but was itself a black box: when a corpus run is slow, nothing
//! said whether the time went to the event heap, check evaluation, trace
//! draining, or journal encoding. This module is the hand-rolled
//! instrumentation substrate the rest of the workspace threads through:
//!
//! * [`Profiler`] — a static phase tree of dot-separated node paths
//!   (`"engine.tick.observe"`). Scoped RAII timers ([`Profiler::span`],
//!   or the [`span!`](crate::span) macro) fold each duration into the
//!   node's running total and entry count, so the whole profile is
//!   O(tree), not O(samples). A [`Profiler::snapshot`] is the path-sorted
//!   list of those totals and counts.
//! * [`Counters`] — named monotonic counters and high-water gauges
//!   (events popped, queue-depth high-water marks, sheds, batch flushes,
//!   …) assembled as snapshots with deterministic (sorted) iteration
//!   order.
//! * [`WallProbe`] — an accumulating timer for `&self` call sites
//!   (metric-store flushes, window queries) where a profiler is out of
//!   reach; probe totals fold into the profiler at snapshot time.
//!
//! # The determinism split
//!
//! Counter values are pure functions of the seed: the same seeded run
//! pops the same events, sheds the same requests, and flushes the same
//! batches. They may therefore be written
//! into the execution journal (the `runtime` event) and are held to the
//! same byte-identity guarantee as every other journal event. Wall-clock
//! timings are inherently nondeterministic and live **only** in the
//! sidecar profile report — never in the journal. Keeping the two on
//! opposite sides of that line is the load-bearing design rule of this
//! module.
//!
//! # Example
//!
//! ```
//! use cex_core::obs::{ObsConfig, Profiler};
//!
//! let prof = Profiler::new(ObsConfig::enabled());
//! {
//!     cex_core::span!(prof, "engine.tick");
//!     cex_core::span!(prof, "engine.tick.observe");
//!     // ... timed work ...
//! }
//! assert_eq!(prof.snapshot().nodes().len(), 2);
//! ```

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Switches for the self-observability layer.
///
/// [`ObsConfig::disabled`] reduces every span to a single branch — no
/// `Instant::now()` calls, no node updates — so instrumentation can stay
/// compiled in permanently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record wall-clock phase timings into the profiler.
    pub profile: bool,
}

impl ObsConfig {
    /// Profiling on: spans record into the phase tree.
    pub fn enabled() -> ObsConfig {
        ObsConfig { profile: true }
    }

    /// Profiling off: spans compile to a no-op branch.
    pub fn disabled() -> ObsConfig {
        ObsConfig { profile: false }
    }
}

impl Default for ObsConfig {
    fn default() -> ObsConfig {
        ObsConfig::enabled()
    }
}

// ---------------------------------------------------------------------------
// Counter registry
// ---------------------------------------------------------------------------

/// A snapshot of named monotonic counters and high-water gauges.
///
/// Names are dot-separated paths (`"sim.events.popped"`). Iteration is
/// in sorted name order, so encoding a snapshot is byte-deterministic.
/// Counters accumulate with [`Counters::add`]; gauges keep the maximum
/// seen via [`Counters::hwm`]. [`Counters::merge`] combines snapshots
/// with the same semantics (sum counters, max gauges).
///
/// Everything stored here must be a pure function of the seed — see the
/// module docs for the determinism split.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    counts: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl Counters {
    /// An empty snapshot.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Adds `delta` to the monotonic counter `name` (creating it at 0).
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counts.get_mut(name) {
            *slot += delta;
        } else {
            self.counts.insert(name.to_string(), delta);
        }
    }

    /// Raises the high-water gauge `name` to `value` if higher.
    pub fn hwm(&mut self, name: &str, value: u64) {
        match self.gauges.get_mut(name) {
            Some(slot) => *slot = (*slot).max(value),
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// The monotonic counter `name`, 0 when absent.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// The high-water gauge `name`, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Folds `other` into `self`: counters sum, gauges take the max.
    pub fn merge(&mut self, other: &Counters) {
        for (name, v) in &other.counts {
            self.add(name, *v);
        }
        for (name, v) in &other.gauges {
            self.hwm(name, *v);
        }
    }

    /// Monotonic counters in sorted name order.
    pub fn counts(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// High-water gauges in sorted name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, u64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when no counter or gauge has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty() && self.gauges.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Phase statistics
// ---------------------------------------------------------------------------

/// Running statistics for one profile node: total wall time and entry
/// count, all the phase tree's readers take from it.
///
/// Also usable stand-alone as a local accumulator on hot paths (record
/// locally, [`Profiler::fold`] once per window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    total_ns: u64,
    count: u64,
}

// One per profile node and per wall probe: two words, nothing behind them.
const _: () = assert!(std::mem::size_of::<PhaseStats>() == 16);

impl PhaseStats {
    /// Folds one measured duration in.
    pub fn record(&mut self, d: Duration) {
        self.total_ns += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.count += 1;
    }

    /// The totals of `factor` accumulators like this one: what a phase
    /// timed one time in `factor` stands for.
    pub fn scaled(self, factor: u64) -> PhaseStats {
        PhaseStats { total_ns: self.total_ns * factor, count: self.count * factor }
    }

    /// Folds another accumulator in.
    fn merge(&mut self, other: &PhaseStats) {
        self.total_ns += other.total_ns;
        self.count += other.count;
    }

    /// Total accumulated wall time.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(self.total_ns)
    }

    /// Number of recorded entries.
    pub fn count(&self) -> u64 {
        self.count
    }
}

// ---------------------------------------------------------------------------
// Profiler
// ---------------------------------------------------------------------------

/// The hierarchical phase profiler: a map from dot-separated node paths
/// to [`PhaseStats`], populated by RAII [`SpanGuard`]s.
///
/// The node set is a static phase tree (a handful of paths per
/// subsystem), so storage is O(tree). Spans are coarse-grained (per tick,
/// window, or sub-round phase); true hot loops accumulate into a local
/// [`PhaseStats`] and [`Profiler::fold`] once.
///
/// The map is a `RefCell` because recording must take `&self`: spans nest,
/// so an outer [`SpanGuard`] still borrows the profiler when an inner one
/// records, and the event core folds its phases through the same shared
/// reference its caller's span holds. No borrow outlives one record.
#[derive(Debug, Clone)]
pub struct Profiler {
    enabled: bool,
    nodes: RefCell<BTreeMap<String, PhaseStats>>,
}

impl Profiler {
    /// A profiler honoring `config.profile`.
    pub fn new(config: ObsConfig) -> Profiler {
        Profiler { enabled: config.profile, nodes: RefCell::new(BTreeMap::new()) }
    }

    /// Whether spans record (false ⇒ [`Profiler::span`] is a no-op).
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a scoped timer for `path`; the span records on drop.
    /// When the profiler is disabled this takes one branch and no clock
    /// reads.
    pub fn span(&self, path: &'static str) -> SpanGuard<'_> {
        SpanGuard { inner: self.enabled.then(|| (self, path, Instant::now())) }
    }

    /// Folds one duration into `path` regardless of the enabled flag.
    ///
    /// This is the escape hatch for always-on accounting (`sim.window`,
    /// `engine.tick`) whose totals back public busy-time accessors.
    pub fn record(&self, path: &str, d: Duration) {
        self.update(path, |node| node.record(d));
    }

    /// Folds a locally-accumulated [`PhaseStats`] into `path`. An
    /// accumulator with no entries leaves no node.
    pub fn fold(&self, path: &str, stats: &PhaseStats) {
        if stats.count == 0 {
            return;
        }
        self.update(path, |node| node.merge(stats));
    }

    /// Applies `f` to the node at `path`, looked up by `&str`: the path's
    /// `String` is allocated only on the node's first record.
    fn update(&self, path: &str, f: impl FnOnce(&mut PhaseStats)) {
        let mut nodes = self.nodes.borrow_mut();
        if let Some(node) = nodes.get_mut(path) {
            f(node);
        } else {
            f(nodes.entry(path.to_string()).or_default());
        }
    }

    /// Merges every node of `other` into this profiler by path.
    pub fn merge(&self, other: &Profiler) {
        let theirs = other.nodes.borrow();
        let mut ours = self.nodes.borrow_mut();
        for (path, stats) in theirs.iter() {
            match ours.get_mut(path) {
                Some(slot) => slot.merge(stats),
                None => {
                    ours.insert(path.clone(), *stats);
                }
            }
        }
    }

    /// Total recorded time under `path`, zero when absent.
    pub fn total(&self, path: &str) -> Duration {
        self.nodes.borrow().get(path).map(PhaseStats::total).unwrap_or(Duration::ZERO)
    }

    /// A point-in-time copy of every node, sorted by path.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let nodes = self.nodes.borrow().iter().map(|(k, v)| (k.clone(), *v)).collect();
        ProfileSnapshot { nodes }
    }
}

impl Default for Profiler {
    fn default() -> Profiler {
        Profiler::new(ObsConfig::default())
    }
}

/// RAII timer returned by [`Profiler::span`]; records its elapsed wall
/// time into the node on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    inner: Option<(&'a Profiler, &'static str, Instant)>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((prof, path, started)) = self.inner.take() {
            prof.record(path, started.elapsed());
        }
    }
}

/// Opens a scoped RAII profiling span: `span!(profiler, "engine.tick")`.
///
/// Expands to a hygienic local [`SpanGuard`](crate::obs::SpanGuard) that
/// records when the enclosing scope ends.
#[macro_export]
macro_rules! span {
    ($profiler:expr, $path:expr) => {
        let _guard = $profiler.span($path);
    };
}

pub use crate::span;

// ---------------------------------------------------------------------------
// Profile snapshot
// ---------------------------------------------------------------------------

/// An immutable, path-sorted copy of a [`Profiler`]'s phase tree.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    nodes: Vec<(String, PhaseStats)>,
}

impl ProfileSnapshot {
    /// The nodes, sorted by path.
    pub fn nodes(&self) -> &[(String, PhaseStats)] {
        &self.nodes
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total recorded time under `path`, zero when absent.
    pub fn total(&self, path: &str) -> Duration {
        self.nodes.iter().find(|(p, _)| p == path).map(|(_, s)| s.total()).unwrap_or(Duration::ZERO)
    }
}

// ---------------------------------------------------------------------------
// Wall probe
// ---------------------------------------------------------------------------

/// An accumulating timer for `&self` call sites (metric-store window
/// queries and flushes) where a profiler is out of reach.
///
/// Its totals fold into a profiler node at snapshot time
/// ([`Profiler::fold`] of [`WallProbe::stats`]). A disarmed probe takes
/// one branch per call site. The totals are a `Cell` because a measured
/// read takes `&self`: the store's window queries are timed through the
/// shared reference every check holds.
#[derive(Debug, Default)]
pub struct WallProbe {
    armed: bool,
    stats: Cell<PhaseStats>,
}

impl WallProbe {
    /// An armed probe with zeroed totals.
    pub fn new() -> WallProbe {
        WallProbe { armed: true, ..WallProbe::default() }
    }

    /// Arms or disarms the probe; disarmed probes skip the clock reads.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
    }

    /// Starts a scoped measurement; elapsed time accumulates on drop.
    pub fn time(&self) -> ProbeGuard<'_> {
        ProbeGuard { inner: self.armed.then(|| (self, Instant::now())) }
    }

    /// The accumulated total and measurement count.
    pub fn stats(&self) -> PhaseStats {
        self.stats.get()
    }
}

/// RAII measurement returned by [`WallProbe::time`].
#[derive(Debug)]
pub struct ProbeGuard<'a> {
    inner: Option<(&'a WallProbe, Instant)>,
}

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        if let Some((probe, started)) = self.inner.take() {
            let mut stats = probe.stats.get();
            stats.record(started.elapsed());
            probe.stats.set(stats);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_gauges_max() {
        let mut a = Counters::new();
        a.add("sim.events.popped", 10);
        a.add("sim.events.popped", 5);
        a.hwm("sim.queue_hwm.svc", 3);
        a.hwm("sim.queue_hwm.svc", 2);
        assert_eq!(a.count("sim.events.popped"), 15);
        assert_eq!(a.gauge("sim.queue_hwm.svc"), 3);
        assert_eq!(a.count("missing"), 0);

        let mut b = Counters::new();
        b.add("sim.events.popped", 1);
        b.add("sim.sheds", 2);
        b.hwm("sim.queue_hwm.svc", 9);
        a.merge(&b);
        assert_eq!(a.count("sim.events.popped"), 16);
        assert_eq!(a.count("sim.sheds"), 2);
        assert_eq!(a.gauge("sim.queue_hwm.svc"), 9);
    }

    #[test]
    fn counters_iterate_in_sorted_order() {
        let mut c = Counters::new();
        c.add("zeta", 1);
        c.add("alpha", 1);
        c.add("mid", 1);
        let names: Vec<&str> = c.counts().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn spans_build_a_phase_tree() {
        let prof = Profiler::new(ObsConfig::enabled());
        {
            span!(prof, "engine.tick");
            {
                span!(prof, "engine.tick.observe");
                std::hint::black_box(0);
            }
            {
                span!(prof, "engine.tick.apply");
                std::hint::black_box(0);
            }
        }
        let snap = prof.snapshot();
        let paths: Vec<(&str, u64)> = snap.nodes().iter().map(|(p, s)| (&**p, s.count())).collect();
        assert_eq!(
            paths,
            [("engine.tick", 1), ("engine.tick.apply", 1), ("engine.tick.observe", 1)]
        );
        let children = snap.total("engine.tick.observe") + snap.total("engine.tick.apply");
        assert!(snap.total("engine.tick") >= children);
    }

    #[test]
    fn record_applies_even_when_disabled_but_span_does_not() {
        let prof = Profiler::new(ObsConfig::disabled());
        {
            span!(prof, "phase");
        }
        assert!(prof.snapshot().is_empty(), "disabled spans record nothing");
        prof.record("sim.window", Duration::from_millis(3));
        assert_eq!(prof.total("sim.window"), Duration::from_millis(3));
    }

    #[test]
    fn fold_and_merge_combine_nodes_by_path() {
        let local = {
            let mut s = PhaseStats::default();
            s.record(Duration::from_micros(100));
            s.record(Duration::from_micros(300));
            s
        };
        let a = Profiler::new(ObsConfig::enabled());
        a.fold("sim.subround.pop", &local);
        assert_eq!(a.total("sim.subround.pop"), Duration::from_micros(400));

        let b = Profiler::new(ObsConfig::enabled());
        b.fold("sim.subround.pop", &local);
        b.record("sim.merge", Duration::from_micros(50));
        a.merge(&b);
        assert_eq!(a.total("sim.subround.pop"), Duration::from_micros(800));
        assert_eq!(a.total("sim.merge"), Duration::from_micros(50));
        let snap = a.snapshot();
        let pop = &snap.nodes().iter().find(|(p, _)| p == "sim.subround.pop").unwrap().1;
        assert_eq!(pop.count(), 4);
    }

    #[test]
    fn wall_probe_accumulates_and_disarms() {
        let mut probe = WallProbe::new();
        {
            let _t = probe.time();
            std::hint::black_box(0);
        }
        assert_eq!(probe.stats().count(), 1);
        probe.set_armed(false);
        {
            let _t = probe.time();
        }
        assert_eq!(probe.stats().count(), 1, "disarmed probe records nothing");

        let prof = Profiler::new(ObsConfig::enabled());
        prof.fold("store.flush", &probe.stats());
        assert_eq!(prof.total("store.flush"), probe.stats().total());
    }

    /// Satellite requirement: spans must be near-zero when disabled.
    /// 1M disabled spans do no clock reads, no map access, and no
    /// allocation — a generous wall bound keeps this robust on loaded
    /// CI machines while still catching an accidental hot-path
    /// regression (e.g. an unconditional `Instant::now()`).
    #[test]
    fn disabled_spans_are_near_zero_overhead() {
        let prof = Profiler::new(ObsConfig::disabled());
        let started = Instant::now();
        for _ in 0..1_000_000 {
            let guard = prof.span("hot.path");
            std::hint::black_box(&guard);
        }
        let elapsed = started.elapsed();
        assert!(prof.snapshot().is_empty());
        assert!(
            elapsed < Duration::from_millis(500),
            "1M disabled spans took {elapsed:?}; expected ~ns each"
        );
    }

    #[test]
    fn a_sampled_fold_stands_for_every_round_and_an_empty_one_leaves_no_node() {
        let mut sampled = PhaseStats::default();
        sampled.record(Duration::from_nanos(700));
        sampled.record(Duration::from_nanos(300));
        let prof = Profiler::new(ObsConfig::disabled());
        prof.fold("sim.event.pop", &sampled.scaled(256));
        prof.fold("sim.event.exchange", &PhaseStats::default().scaled(256));
        let snap = prof.snapshot();
        assert_eq!(snap.nodes(), [("sim.event.pop".to_string(), sampled.scaled(256))]);
        assert_eq!(snap.total("sim.event.pop"), Duration::from_nanos(256_000));
        assert_eq!(snap.nodes()[0].1.count(), 512);
    }
}
