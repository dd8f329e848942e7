//! The request core: a deterministic discrete-event scheduler on the
//! calling thread. Every simulated request runs here.
//!
//! # The request model
//!
//! A request enters at an endpoint of a version the router picks; a hop
//! costs the proxy overhead plus its own latency (sampled under the
//! version's current load and fault windows) plus, one after the other, the
//! calls its endpoint makes, and fails if it or any of them does. Dark
//! mirrors of a call run beside it: their load and telemetry are real,
//! their latency and outcome reach nobody. Each hop has a private random
//! stream seeded by its caller, from which it draws in a fixed order —
//! latency, own failure (the endpoint's error rate plus every active error
//! burst, clamped to 1 here and nowhere earlier), then per call:
//! probability (unless certain), child seed, one seed per mirror, and
//! after a failed attempt that will be retried: backoff jitter, retry
//! seed. A hop's draws therefore never depend on what its children do,
//! which is what lets hops run as independently scheduled events. A
//! request converts with the mean conversion rate of the distinct versions
//! that served its primary hops, credited to each of them.
//!
//! `exec.rs`, compiled for tests only, implements the same model as a
//! depth-first walk that finishes one request before it starts the next:
//! the **oracle**. The differential tests at the end of this file run
//! whole simulations on both and compare reports, store contents and
//! traces; the oracle's own tests assert the model's numbers request by
//! request, on both. The walk knows no concurrency, so the differentials
//! are closed-loop (no limit, no queue), at zero load sensitivity (it
//! feeds the load tracker in request order, this core in time order) and
//! without breakers (it feeds them in call order, this core in
//! outcome-time order).
//!
//! Requests interleave in simulated time, so *open-loop overload* (a slow
//! service making concurrent requests queue behind each other) is an
//! outcome of the model, not an approximation:
//!
//! - An in-flight request is a chain of **events** — `Call` (a hop is
//!   dispatched to a version), `Done` (a hop finished its own work and all
//!   child calls), `Reply` (a child's outcome reaches its caller) and
//!   `Timeout` (an attempt deadline expired) — under the total order of
//!   their `EvKey`s. In an *uncontended* window an event created at its
//!   creator's instant — a hop's `Reply` always, the caller's next `Call`
//!   or `Done` after it, a `Done` after no elapsed time — runs **inline**,
//!   straight after its creator, instead of through the queue (see below).
//! - Each hop is a **frame**: a small state machine holding the hop's
//!   private RNG stream, accumulated elapsed time, and the index of the
//!   next child call. Frames suspend while a child is outstanding and
//!   resume when its `Reply` (or `Timeout`) arrives, so thousands of
//!   requests interleave in simulated time. A frame is built in place in a
//!   slot of a slab (`Frames`), advanced there and taken out when it is
//!   done. Events name a frame by position, `(slot, generation)`, never by
//!   its identity: a freed slot's next frame starts at the generation after
//!   the last one the slot used, so a late `Reply` or `Timeout` to a frame
//!   that is gone finds a generation that no later frame has. A parked
//!   dispatch, likewise, is named by its position in the parked list, which
//!   is its occupancy token.
//! - Per-version **concurrency limits and bounded admission queues**
//!   ([`OccupancyTable`]) act at frame dispatch: a frame either begins
//!   service immediately, parks in a FIFO queue until a slot frees, or is
//!   shed — queueing delay, backpressure and shed-on-full are first-class
//!   outcomes of the core, not post-hoc approximations.
//! - Resilience (attempt timeouts, retries with backoff, breakers,
//!   fallbacks) is re-expressed as scheduled events: a `Timeout` event
//!   races the attempt's `Reply`, and a generation counter on the caller
//!   frame discards whichever loses.
//!
//! # Sub-rounds and determinism
//!
//! One queue, a ring of per-millisecond buckets (`queue::EventQueue`) with
//! the window's later root arrivals in key order and any other later event
//! in a heap beside it, holds every scheduled event. Time advances in
//! **sub-rounds**. A
//! sub-round has an address, the earliest queued `(time, phase)`
//! (`queue::Front`), and processes, in `EvKey` order, every event at that
//! address *that existed when the sub-round began*: the sub-round takes its
//! whole bucket off the queue before it runs any of it, so an event it
//! creates — even at the same address — joins the queue behind it and runs
//! in a later sub-round, unless it runs inline (see *Inline events*). The
//! sub-round an event runs in is therefore a pure function of the event
//! graph, and so are the journaled counts of events and sub-rounds.
//! `Timeout` events carry the later phase and so run in a sub-round of
//! their own once no normal event remains at that timestamp (normal
//! events they create re-open the normal phase at the same instant): a
//! timeout fires iff the attempt's finish time strictly exceeds
//! the deadline — an attempt that takes exactly the deadline is on time.
//!
//! **Inline events.** A window is *uncontended* when its call policy is
//! the null one, no version is behind a concurrency limit and no service
//! is mirrored;
//! `run_window` works this out once from its inputs. There `Ctx::send`
//! holds an event whose time is the running event's, and `Core::process`
//! runs it next, under its own key and with its own index entry (see *The
//! merge*), as a later sub-round would have run it. Every event of such a window creates
//! at most one event, so a request has one live event at any time and the
//! chain needs one slot. Running a chain
//! early reorders only the work of *different* requests at one instant,
//! and nothing that work shares depends on that order: the load tracker's
//! rate changes only on the first arrival in a later one-second bucket,
//! and every multiplier read follows the reading hop's own arrival; fault
//! effects depend on time alone; admission is always immediate; and frame
//! identities, which count a service's frames in processing order and so
//! differ, are only looked up, or order one request's records, whose
//! frames are created in the same causal order either way. Each gate
//! condition keeps out what breaks this. A policy brings breakers, which
//! count outcomes in order, and `Timeout`s, a second live event per
//! request. A limit makes dispatch order decide who takes a slot, queues
//! or is shed. A mirror is dispatched at its call's instant, beside it. A
//! contended window runs every event through the queue, as above; the
//! `sim.events.*` tallies count queued events only.
//!
//! # Span addresses
//!
//! A sampled request's hops record their spans as they finish, in event
//! order rather than tree order, so a span record carries its place in the
//! tree as a fixed-size `SpanAddr`: the identity of the caller's frame (0
//! for the root) and a slot `(call index, rank, sub)` — under one call the
//! shed event, then the attempts by number, the fallback event, the mirrors
//! by index. The record also carries the identity of its own frame, which
//! is what its children name. Walking each frame's children in slot order,
//! in pre-order from the root, is exactly the order of a sort on the
//! root-to-span path of slots, without building any path. Frame identities
//! are `(service << 32) | serial`, and a service's serials count its
//! frames in the order they are created: sub-round by sub-round, in key
//! order within one, an inline chain straight after the event that began
//! it. (The order a trace is built in depends only on the slots;
//! identities are only looked up.)
//!
//! # The merge
//!
//! Metric samples and breaker transitions are recorded bare, as events
//! emit them; `Core::run` closes each event's records with one index entry
//! `{key, start, len}` (`Emitted`) per kind when the event emitted any of
//! it. Visits carry their event's key, the other records (span, timeout
//! patch, root outcome) their request. After the window drains, the merge
//! writes metric store, transition log and trace collector in one
//! canonical order: samples and transitions in `(key, rank)` order
//! (`sim.event.merge.samples`), then per-request outputs in arrival order
//! (`.requests`, `.traces`). The drive loop closes entries in
//! non-decreasing event time, but a later sub-round at the same instant
//! may hold smaller keys, and an inline chain runs in causal order, so the
//! merge sorts the entries of each run that shares a timestamp by key
//! (`.samples.sort`), then writes each entry's records in emission order
//! (`.samples.write`). An event's records are contiguous and in rank
//! order, so that is exactly the order of a sort of the records themselves
//! on `(key, rank)`, the `#[cfg(test)]` oracle in `event/fusion.rs` that
//! every merge in this crate's tests is held to. Per-request records are
//! grouped by a counting sort on the dense request index. Each sampled
//! request is then offered to the trace collector on its root duration
//! and whether any span or timeout patch marks an error, and only the
//! traces the collector keeps are built (patches applied by address, the
//! pre-order walk above, ids numbered by position). Same seed,
//! byte-identical outputs.

#[cfg(test)]
mod fusion;
#[cfg(test)]
mod path_model;
mod queue;

use std::time::Instant;

use crate::app::{Application, EndpointId, EndpointName, ServiceId, VersionId, MAX_CALL_DEPTH};
use crate::faults::FaultPlan;
use crate::load::{Admission, LoadTracker, OccupancyTable};
use crate::monitor::MetricSink;
use crate::resilience::{
    BreakerState, BreakerTransition, CallDecision, CallPolicy, ResilienceState,
};
use crate::routing::{Router, UserId};
use crate::trace::{Span, SpanId, SpanStatus, Trace, TraceCollector, TraceId};
use cex_core::metrics::{MetricKind, OnlineStats};
use cex_core::obs::{PhaseStats, Profiler};
use cex_core::rng::SplitMix64;
use cex_core::simtime::{SimDuration, SimTime};
use queue::{EventQueue, Front};

/// Normal events (calls, completions, replies).
const PHASE_NORMAL: u8 = 0;
/// Attempt-deadline events; deferred until no normal event remains at the
/// same timestamp, so `Reply` chains settle first.
const PHASE_TIMEOUT: u8 = 1;

/// Where a span sits in its request's trace: under the frame that made the
/// call (`parent`, a frame identity; 0 for the root, which no frame made)
/// at `slot` = (call index, rank, sub), the sibling order. See the module
/// doc's span-addressing rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct SpanAddr {
    parent: u64,
    slot: (u32, Rank, u32),
}

/// The root span's address.
const ROOT_ADDR: SpanAddr = SpanAddr { parent: 0, slot: (0, Rank::Attempt, 0) };

/// The `ident` of a span no frame ran (breaker-shed and fallback events):
/// nothing hangs off it.
const NO_FRAME: u64 = 0;

/// Sibling order under one call of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Rank {
    /// The breaker-shed event span.
    Shed,
    /// An executed attempt subtree (sub = attempt number).
    Attempt,
    /// The fallback event span.
    Fallback,
    /// A dark-launch mirror subtree (sub = mirror index).
    Mirror,
}

/// Total order over events. Time first, then phase (timeouts after all
/// normal work at the same instant) — both packed in `at` as
/// `(time << 1) | phase` — then request, then the creating frame's
/// identity and its per-lifetime emission counter. Keys are unique because
/// every frame numbers the events it creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    at: u64,
    req: u32,
    ckey: u64,
    cseq: u32,
}

const KEY_ZERO: EvKey = EvKey { at: 0, req: 0, ckey: 0, cseq: 0 };

impl EvKey {
    fn new(time: u64, phase: u8, req: u32, ckey: u64, cseq: u32) -> EvKey {
        EvKey { at: (time << 1) | u64::from(phase), req, ckey, cseq }
    }

    fn time(&self) -> u64 {
        self.at >> 1
    }
}

/// A frame as a message names it: its slot in [`Frames`] and the
/// generation the message expects. The frame's 64-bit identity is not a
/// lookup key; it orders keys and addresses spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameRef {
    slot: u32,
    gen: u32,
}

/// One hop dispatch: begin (or queue, or shed) a frame on `version`.
#[derive(Debug)]
struct CallEv {
    version: VersionId,
    endpoint: EndpointId,
    /// The caller frame at the generation expecting this child's reply.
    /// `None` for root arrivals and dark mirrors (their results go
    /// nowhere).
    parent: Option<FrameRef>,
    dark: bool,
    depth: u8,
    attempt: u8,
    seed: u64,
    /// The hop's span address when the request is sampled.
    span: Option<SpanAddr>,
}

#[derive(Debug)]
enum Ev {
    /// Carried inline: boxing it cost an allocation per hop, more than
    /// moving the larger event through its bucket does.
    Call(CallEv),
    Done {
        frame: FrameRef,
    },
    Reply {
        parent: FrameRef,
        ok: bool,
        duration_ms: u64,
    },
    Timeout {
        parent: FrameRef,
    },
}

#[derive(Debug)]
struct HeapEv {
    key: EvKey,
    ev: Ev,
}

impl PartialEq for HeapEv {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEv {}
impl PartialOrd for HeapEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A call in progress on a suspended frame. It runs under the frame's
/// policy ([`Ctx::policy_of`]), which is not copied here: every frame of a
/// window would carry the same copy.
#[derive(Debug, Clone, Copy)]
struct GuardedCall {
    callee: VersionId,
    endpoint: EndpointId,
    /// Start of the whole call (first attempt's dispatch).
    call_start_ms: u64,
    /// Caller-perceived wait accumulated over finished attempts and
    /// backoffs.
    waited_ms: u64,
    attempt: u32,
    attempt_start_ms: u64,
}

/// What a suspended frame is waiting for.
#[derive(Debug)]
enum Pending {
    /// Transient state while the frame is being advanced.
    Advancing,
    /// An attempt of a child call is outstanding.
    Guarded(GuardedCall),
    /// All calls done; the frame's `Done` event is scheduled.
    Finishing,
}

/// One in-flight hop: its private RNG stream (drawn from in the order the
/// module doc gives), accumulated elapsed time and the next child call
/// index.
#[derive(Debug)]
struct Frame {
    /// `(service << 32) | serial`: the creator field of the keys this
    /// frame makes, and the parent its children's span addresses name.
    ident: u64,
    /// Where the frame lives in [`Frames`].
    slot: u32,
    req: u32,
    version: VersionId,
    endpoint: EndpointId,
    /// When the hop was dispatched (arrival at the version).
    dispatch_ms: u64,
    /// When it was admitted to a slot and began service.
    start_ms: u64,
    hrng: SplitMix64,
    elapsed_ms: u64,
    ok: bool,
    dark: bool,
    depth: u8,
    attempt: u8,
    parent: Option<FrameRef>,
    span: Option<SpanAddr>,
    call_idx: u32,
    /// Bumped whenever a new child/attempt is dispatched; stale replies
    /// and timeouts (older generation) are discarded. A frame starts at
    /// the generation after the last one its slot's previous frame used.
    gen: u32,
    /// Per-lifetime counter numbering the events this frame creates.
    next_seq: u32,
    pending: Pending,
}

impl Frame {
    fn new(
        at: FrameRef,
        ident: u64,
        req: u32,
        call: CallEv,
        dispatch_ms: u64,
        start_ms: u64,
    ) -> Frame {
        Frame {
            ident,
            slot: at.slot,
            req,
            version: call.version,
            endpoint: call.endpoint,
            dispatch_ms,
            start_ms,
            hrng: SplitMix64::new(call.seed),
            elapsed_ms: 0,
            ok: true,
            dark: call.dark,
            depth: call.depth,
            attempt: call.attempt,
            parent: call.parent,
            span: call.span,
            call_idx: 0,
            gen: at.gen,
            next_seq: 0,
            pending: Pending::Advancing,
        }
    }

    /// The key of the next event this frame creates.
    fn next_key(&mut self, time_ms: u64, phase: u8) -> EvKey {
        let cseq = self.next_seq;
        self.next_seq += 1;
        EvKey::new(time_ms, phase, self.req, self.ident, cseq)
    }

    /// How a message to this frame at its current generation names it.
    fn at_gen(&self) -> FrameRef {
        FrameRef { slot: self.slot, gen: self.gen }
    }

    /// Span address of a child of the current call, when the request is
    /// sampled.
    fn child_span(&self, rank: Rank, sub: u32) -> Option<SpanAddr> {
        self.span.map(|_| SpanAddr { parent: self.ident, slot: (self.call_idx, rank, sub) })
    }
}

/// The window's frames in flight, by slot. A frame is built in place in a
/// free slot and taken out when it is done. A freed slot's next frame
/// starts at the generation after the last one it used, and generations
/// only grow, so a message still in flight to a frame that left — a late
/// `Reply`, a `Timeout` — never matches the slot's later frames.
#[derive(Debug, Default)]
struct Frames {
    slots: Vec<Option<Frame>>,
    /// Free slots, each with the last generation its frame used.
    free: Vec<(u32, u32)>,
}

impl Frames {
    /// Builds a frame in a free slot; `build` gets the slot and the
    /// frame's first generation.
    fn insert(&mut self, build: impl FnOnce(FrameRef) -> Frame) -> &mut Frame {
        let at = match self.free.pop() {
            Some((slot, last)) => FrameRef { slot, gen: last + 1 },
            None => {
                self.slots.push(None);
                let slot = u32::try_from(self.slots.len() - 1).expect("frames in flight fit u32");
                FrameRef { slot, gen: 0 }
            }
        };
        self.slots[at.slot as usize].insert(build(at))
    }

    /// The frame `at` names, if it is still at that generation.
    fn get(&mut self, at: FrameRef) -> Option<&mut Frame> {
        self.slots[at.slot as usize].as_mut().filter(|f| f.gen == at.gen)
    }

    /// Takes the frame `at` names out, freeing its slot.
    fn take(&mut self, at: FrameRef) -> Frame {
        let frame = self.slots[at.slot as usize].take().expect("Done targets a live frame");
        debug_assert_eq!(frame.gen, at.gen, "a frame's generation stays put once it is done");
        self.free.push((at.slot, frame.gen));
        frame
    }

    fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }
}

// What the hot path moves: a frame per hop, built in its slot; an event
// through the queue or the inline slot; a record per sample and an index
// entry per emitting event.
const _: () = assert!(std::mem::size_of::<Pending>() <= 56);
const _: () = assert!(std::mem::size_of::<Frame>() <= 176);
const _: () = assert!(std::mem::size_of::<EvKey>() == 24);
const _: () = assert!(std::mem::size_of::<HeapEv>() <= 88);
const _: () = assert!(std::mem::size_of::<SampleRec>() <= 32);
const _: () = assert!(std::mem::size_of::<Emitted>() <= 32);

/// A dispatch waiting in a version's admission queue for a free slot.
#[derive(Debug)]
struct Parked {
    call: CallEv,
    /// The frame identity allocated at dispatch.
    ident: u64,
    req: u32,
    dispatch_ms: u64,
}

// ---- output records (merged canonically after the window) ----

/// Where the records one event emitted lie in their buffer: `len` of them
/// from `start`, in emission order, under the event's key.
#[derive(Debug, Clone, Copy)]
struct Emitted {
    key: EvKey,
    start: u32,
    len: u32,
}

/// Records of one kind as the window emitted them, and one [`Emitted`]
/// entry per event that emitted any. An event's records are contiguous, so
/// ordering the entries by key orders the records by `(key, rank)`.
#[derive(Debug)]
struct ByEvent<T> {
    records: Vec<T>,
    events: Vec<Emitted>,
}

impl<T> Default for ByEvent<T> {
    fn default() -> Self {
        ByEvent { records: Vec::new(), events: Vec::new() }
    }
}

impl<T> ByEvent<T> {
    /// Closes the running event's records, those from `start` on, under
    /// its key; an event that emitted none gets no entry.
    fn close(&mut self, key: EvKey, start: usize) {
        let len = self.records.len() - start;
        if len > 0 {
            let fit = |n: usize| u32::try_from(n).expect("a window's records are counted in u32");
            self.events.push(Emitted { key, start: fit(start), len: fit(len) });
        }
    }

    /// Puts the entries in key order. They were closed in event-time
    /// order, so only runs sharing a timestamp need sorting (a sub-round
    /// runs in key order, but a later sub-round at the same instant may
    /// hold smaller keys, and an inline chain runs in causal order). An
    /// event runs once, so no two entries share a key.
    fn sort(&mut self) {
        for run in self.events.chunk_by_mut(|a, b| a.key.time() == b.key.time()) {
            run.sort_unstable_by_key(|e| e.key);
        }
    }

    /// The records in entry order, each event's in emission order.
    fn in_entry_order(&self) -> impl Iterator<Item = &T> {
        self.events.iter().flat_map(|e| &self.records[e.start as usize..][..e.len as usize])
    }

    fn clear(&mut self) {
        self.records.clear();
        self.events.clear();
    }
}

#[derive(Debug)]
struct SampleRec {
    version: VersionId,
    kind: MetricKind,
    time: SimTime,
    value: f64,
}

#[derive(Debug, Clone, Copy)]
struct VisitRec {
    key: EvKey,
    req: u32,
    version: VersionId,
}

#[derive(Debug, Clone, Copy)]
struct SpanRec {
    req: u32,
    addr: SpanAddr,
    /// The frame that ran the span ([`NO_FRAME`] for event spans): its
    /// children's `addr.parent`.
    ident: u64,
    version: VersionId,
    endpoint: EndpointId,
    start_ms: u64,
    duration_ms: u64,
    status: SpanStatus,
    attempt: u8,
    dark: bool,
}

/// Re-statuses the attempt span at `addr` as timed out after the caller
/// waited `perceived_ms` for it.
#[derive(Debug, Clone, Copy)]
struct PatchRec {
    req: u32,
    addr: SpanAddr,
    perceived_ms: u64,
}

#[derive(Debug, Clone, Copy)]
struct RootRec {
    req: u32,
    ok: bool,
    duration_ms: u64,
}

/// The event core's output buffers, kept by the caller from one window to
/// the next: the merge drains them, so a steady-state window finds them
/// empty at the capacity the previous one needed and grows none of them.
/// (Grown from nothing every window, the last doubling of the sample buffer
/// alone was a multi-millisecond copy inside some sub-round.) Samples and
/// breaker transitions are recorded bare, with one index entry per event
/// that emitted any; visits carry their event's key, and the other
/// records their request.
#[derive(Debug, Default)]
pub(crate) struct WindowBuffers {
    samples: ByEvent<SampleRec>,
    transitions: ByEvent<BreakerTransition>,
    visits: Vec<VisitRec>,
    spans: Vec<SpanRec>,
    patches: Vec<PatchRec>,
    roots: Vec<RootRec>,
}

/// One pre-generated arrival handed to [`run_window`]. The trace decision
/// and the two per-request RNG draws happen in the caller, in arrival
/// order, so the simulation's random streams are consumed in arrival order
/// whatever order the window's events run in.
#[derive(Debug, PartialEq)]
pub(crate) struct EventRequest {
    pub(crate) time: SimTime,
    pub(crate) user: UserId,
    pub(crate) service: ServiceId,
    pub(crate) endpoint: EndpointName,
    pub(crate) trace: Option<TraceId>,
    pub(crate) root_seed: u64,
    pub(crate) conv_u: f64,
}

/// Aggregate outcome of one event-core window.
#[derive(Debug)]
pub(crate) struct WindowStats {
    pub(crate) requests: u64,
    pub(crate) failures: u64,
    pub(crate) rt: OnlineStats,
    pub(crate) tally: WindowTally,
}

/// Deterministic event-core tallies: per window, then summed over windows.
/// Every field is a pure function of the seed — the sub-round sequence is
/// the event graph's — so these values are safe to journal (see
/// `cex_core::obs`). Events count when they pass through the queue: an
/// event run inline (see the module doc) is neither popped nor sent.
#[derive(Debug, Default)]
pub(crate) struct WindowTally {
    /// Events taken off the queue (every queued event is taken once).
    pub(crate) events_popped: u64,
    /// Created events that were queued: all queued events but the root
    /// arrivals.
    pub(crate) events_sent: u64,
    /// Sub-rounds driven.
    pub(crate) sub_rounds: u64,
    /// Requests shed — admission-queue-full plus breaker sheds.
    pub(crate) sheds: u64,
}

impl WindowTally {
    /// Adds `other`'s tallies to these.
    pub(crate) fn add(&mut self, other: &WindowTally) {
        self.events_popped += other.events_popped;
        self.events_sent += other.events_sent;
        self.sub_rounds += other.sub_rounds;
        self.sheds += other.sheds;
    }
}

/// The drive loop's wall-clock phase accumulators, recorded only when
/// profiling is on, keeping the disabled path free of clock reads. Even
/// when on, only 1-in-[`OBS_TIMING_SAMPLE`] sub-rounds are timed — the
/// accumulators hold sampled values that [`fold_sampled`] scales back up.
#[derive(Debug, Default)]
struct PhaseTimes {
    /// Taking the sub-round's bucket off the queue, in key order.
    pop: PhaseStats,
    /// Processing the bucket.
    dispatch: PhaseStats,
    /// Finding the next sub-round's address (created events joined the
    /// queue as they were sent).
    exchange: PhaseStats,
}

/// When profiling is on, only one sub-round in this many is actually
/// timed. A sub-round takes a microsecond or less, so clock reads on
/// every round cost tens of percent of the whole window; sampling cuts
/// them by this factor. At fold time the sampled totals and counts are
/// scaled back up ([`fold_sampled`]) so the profile tree shows unbiased
/// estimates of true phase totals. The timed round is the middle one of
/// each stride, not the first: a window's first sub-round is the one that
/// moves a ring's worth of root arrivals out of the roots run, and scaling
/// that up would charge every sub-round for it.
const OBS_TIMING_SAMPLE: u64 = 256;

/// Starts a phase measurement iff timing is on (one branch otherwise).
fn mark(timed: bool) -> Option<Instant> {
    timed.then(Instant::now)
}

/// Completes a measurement opened by [`mark`].
fn lap(stats: &mut PhaseStats, started: Option<Instant>) {
    if let Some(t0) = started {
        stats.record(t0.elapsed());
    }
}

/// One window's event core: the frames in flight and everything they read
/// and write while they advance ([`Ctx`], a separate field so a frame can
/// be advanced in place inside `frames`).
struct Core<'a> {
    frames: Frames,
    /// Dispatches waiting for a free slot, by position: a dispatch's
    /// position here is its occupancy token.
    parked: Vec<Option<Parked>>,
    /// Free positions in `parked`.
    parked_free: Vec<usize>,
    ctx: Ctx<'a>,
}

/// The event queue, the state the window mutates, the model it reads and
/// its output buffers.
struct Ctx<'a> {
    queue: EventQueue,
    /// Next frame serial per service.
    serials: Vec<u32>,
    load: &'a mut LoadTracker,
    occ: &'a mut OccupancyTable,
    /// Holds the simulation's breakers for the window, so the transitions
    /// it logs are this window's alone (the merge replays them in key
    /// order).
    res: ResilienceState,
    out: &'a mut WindowBuffers,
    cur_key: EvKey,
    app: &'a Application,
    router: &'a Router,
    faults: &'a FaultPlan,
    /// The policy every primary inter-service call runs under; the null
    /// policy, [`CallPolicy::default`], when none is attached.
    policy: CallPolicy,
    /// Null policy, no concurrency limit, no mirror: an event created at the
    /// running event's instant runs inline (see the module doc).
    uncontended: bool,
    /// The event the running one created at its own instant, in an
    /// uncontended window; [`Core::process`] runs it next.
    inline: Option<HeapEv>,
    reqs: &'a [EventRequest],
    /// Events popped and sent, sheds; the loop counts sub-rounds.
    tally: WindowTally,
}

impl Ctx<'_> {
    fn alloc_ident(&mut self, service: usize) -> u64 {
        // Serials start at 1 so a frame identity never collides with the
        // root-arrival creator key 0.
        self.serials[service] += 1;
        ((service as u64) << 32) | u64::from(self.serials[service])
    }

    /// The policy `frame`'s calls run under: the window's, or the null
    /// policy for a dark frame, whose mirrored subtree is never guarded.
    fn policy_of(&self, frame: &Frame) -> CallPolicy {
        if frame.dark {
            CallPolicy::default()
        } else {
            self.policy
        }
    }

    /// Schedules a created event. In an uncontended window an event at the
    /// running event's instant is held for [`Core::process`] to run next;
    /// any other joins the queue. The running sub-round's bucket is already
    /// off the queue, so a queued event runs in a later sub-round even at
    /// the same address.
    fn send(&mut self, key: EvKey, ev: Ev) {
        if self.uncontended && key.time() == self.cur_key.time() {
            debug_assert!(self.inline.is_none(), "an uncontended event creates one event");
            self.inline = Some(HeapEv { key, ev });
            return;
        }
        self.tally.events_sent += 1;
        self.queue.push(HeapEv { key, ev });
    }

    fn sample(&mut self, version: VersionId, kind: MetricKind, time_ms: u64, value: f64) {
        let time = SimTime::from_millis(time_ms);
        self.out.samples.records.push(SampleRec { version, kind, time, value });
    }

    /// Samples the frame's own work (latency, then own failure) and starts
    /// its call sequence.
    fn begin(&mut self, frame: &mut Frame) {
        let start = SimTime::from_millis(frame.start_ms);
        let fault = self.faults.effects(frame.version, start);
        let multiplier = self.load.multiplier(self.app, frame.version) * fault.latency_multiplier;
        let endpoint = self.app.endpoint(frame.endpoint);
        let own_latency = endpoint.latency.sample(&mut frame.hrng, multiplier);
        let failure_rate = (endpoint.error_rate + fault.extra_error_rate).clamp(0.0, 1.0);
        frame.ok = frame.hrng.next_f64() >= failure_rate;
        frame.elapsed_ms = (self.router.proxy_overhead() + own_latency).as_millis();
        if !frame.dark {
            self.out.visits.push(VisitRec {
                key: self.cur_key,
                req: frame.req,
                version: frame.version,
            });
        }
        self.advance(frame);
    }

    /// Runs the frame forward: skips non-firing probabilistic calls,
    /// dispatches the next child (plus its dark mirrors), and schedules
    /// `Done` when the call list is exhausted.
    fn advance(&mut self, frame: &mut Frame) {
        let (app, router) = (self.app, self.router);
        loop {
            let Some(call) = app.endpoint(frame.endpoint).calls.get(frame.call_idx as usize) else {
                let finish = frame.start_ms + frame.elapsed_ms;
                let key = frame.next_key(finish, PHASE_NORMAL);
                frame.pending = Pending::Finishing;
                self.send(key, Ev::Done { frame: frame.at_gen() });
                return;
            };
            if call.probability < 1.0 && frame.hrng.next_f64() >= call.probability {
                frame.call_idx += 1;
                continue;
            }
            // The child's seed, then one seed per mirror, are the hop's
            // next draws; the mirror seeds are drawn where they are used
            // (`dispatch_mirrors`) because nothing in between touches the
            // hop's stream.
            let child_seed = frame.hrng.next_u64();
            let mirrors = router.mirrors(call.service);
            let child_start = frame.start_ms + frame.elapsed_ms;
            let user = self.reqs[frame.req as usize].user;

            let policy = self.policy_of(frame);
            let callee = router.resolve(app, call.service, user);
            let callee_ep = app
                .endpoint_named(callee, call.endpoint_name)
                .expect("call graph references a valid endpoint");

            let guarded = GuardedCall {
                callee,
                endpoint: callee_ep,
                call_start_ms: child_start,
                waited_ms: 0,
                attempt: 0,
                attempt_start_ms: child_start,
            };
            if let Some(bp) = policy.breaker {
                let at = SimTime::from_millis(child_start);
                if self.res.decide(frame.version, callee, &bp, at) == CallDecision::Shed {
                    self.tally.sheds += 1;
                    self.sample(callee, MetricKind::Shed, child_start, 1.0);
                    if let Some(addr) = frame.child_span(Rank::Shed, 0) {
                        self.out.spans.push(SpanRec {
                            req: frame.req,
                            addr,
                            ident: NO_FRAME,
                            version: callee,
                            endpoint: callee_ep,
                            start_ms: child_start,
                            duration_ms: 0,
                            status: SpanStatus::Shed,
                            attempt: 0,
                            dark: false,
                        });
                    }
                    self.resolve_fallback(frame, &guarded);
                    self.dispatch_mirrors(frame, mirrors, call.endpoint_name, child_start);
                    frame.call_idx += 1;
                    continue;
                }
            }
            self.dispatch_attempt(frame, callee, callee_ep, 0, child_seed, child_start);
            frame.pending = Pending::Guarded(guarded);
            self.dispatch_mirrors(frame, mirrors, call.endpoint_name, child_start);
            return;
        }
    }

    /// Dispatches attempt number `attempt` of the frame's current call at
    /// `at_ms` under a fresh generation, and arms its deadline if the
    /// frame's policy has one. (A dark frame's calls run under the null
    /// policy, so a retry is never dark.)
    fn dispatch_attempt(
        &mut self,
        frame: &mut Frame,
        callee: VersionId,
        endpoint: EndpointId,
        attempt: u32,
        seed: u64,
        at_ms: u64,
    ) {
        frame.gen += 1;
        let expecting = frame.at_gen();
        let span = frame.child_span(Rank::Attempt, attempt);
        let key = frame.next_key(at_ms, PHASE_NORMAL);
        self.send(
            key,
            Ev::Call(CallEv {
                version: callee,
                endpoint,
                parent: Some(expecting),
                dark: frame.dark,
                depth: frame.depth + 1,
                attempt: u8::try_from(attempt).unwrap_or(u8::MAX),
                seed,
                span,
            }),
        );
        if let Some(limit) = self.policy_of(frame).attempt_timeout {
            let key = frame.next_key(at_ms + limit.as_millis(), PHASE_TIMEOUT);
            self.send(key, Ev::Timeout { parent: expecting });
        }
    }

    /// Spawns dark-launch mirror subtrees at the dispatch instant, each
    /// under the next seed of the hop's stream. Mirrors never reply: their
    /// latency is off the user path, but their load and telemetry are
    /// real.
    fn dispatch_mirrors(
        &mut self,
        frame: &mut Frame,
        mirrors: &[VersionId],
        endpoint: EndpointName,
        child_start: u64,
    ) {
        for (mi, mirror) in mirrors.iter().enumerate() {
            let seed = frame.hrng.next_u64();
            let ep = self
                .app
                .endpoint_named(*mirror, endpoint)
                .expect("mirror references a valid endpoint");
            let span = frame.child_span(Rank::Mirror, mi as u32);
            let key = frame.next_key(child_start, PHASE_NORMAL);
            self.send(
                key,
                Ev::Call(CallEv {
                    version: *mirror,
                    endpoint: ep,
                    parent: None,
                    dark: true,
                    depth: frame.depth + 1,
                    attempt: 0,
                    seed,
                    span,
                }),
            );
        }
    }

    /// Resolves an exhausted or shed call into the frame: the fallback when
    /// the policy has one, plain failure otherwise.
    fn resolve_fallback(&mut self, frame: &mut Frame, call: &GuardedCall) {
        let policy = self.policy_of(frame);
        if !policy.fallback {
            frame.elapsed_ms += call.waited_ms;
            frame.ok = false;
            return;
        }
        let at = call.call_start_ms + call.waited_ms;
        let latency_ms = policy.fallback_latency.as_millis();
        self.sample(call.callee, MetricKind::FallbackServed, at, 1.0);
        if let Some(addr) = frame.child_span(Rank::Fallback, 0) {
            self.out.spans.push(SpanRec {
                req: frame.req,
                addr,
                ident: NO_FRAME,
                version: call.callee,
                endpoint: call.endpoint,
                start_ms: at,
                duration_ms: latency_ms,
                status: SpanStatus::Fallback,
                attempt: 0,
                dark: false,
            });
        }
        frame.elapsed_ms += call.waited_ms + latency_ms;
    }

    /// Folds one finished (or timed-out) attempt into its call: breaker
    /// feedback, retry with backoff, fallback, or success.
    /// `perceived_ms` is what the caller waited for this attempt.
    fn settle_attempt(
        &mut self,
        frame: &mut Frame,
        mut call: GuardedCall,
        perceived_ms: u64,
        child_ok: bool,
        timed_out: bool,
    ) {
        let (callee, policy) = (call.callee, self.policy_of(frame));
        call.waited_ms += perceived_ms;
        let ok = child_ok && !timed_out;
        if timed_out {
            self.sample(callee, MetricKind::Timeout, call.attempt_start_ms, 1.0);
            if let Some(addr) = frame.child_span(Rank::Attempt, call.attempt) {
                // Re-status the attempt's span with the caller-observed
                // wait once it materialises (the subtree is still
                // running); the merge applies this patch by address.
                self.out.patches.push(PatchRec { req: frame.req, addr, perceived_ms });
            }
        }
        let mut opened = false;
        if let Some(bp) = policy.breaker {
            let outcome_at = call.attempt_start_ms + perceived_ms;
            let at = SimTime::from_millis(outcome_at);
            if let Some((_, to)) = self.res.on_outcome(frame.version, callee, &bp, at, !ok) {
                if to == BreakerState::Open {
                    self.sample(callee, MetricKind::BreakerOpen, outcome_at, 1.0);
                    opened = true;
                }
            }
        }
        if ok {
            frame.elapsed_ms += call.waited_ms;
        } else if !opened && call.attempt < policy.max_retries {
            call.waited_ms += policy.backoff_delay(call.attempt, &mut frame.hrng).as_millis();
            call.attempt += 1;
            call.attempt_start_ms = call.call_start_ms + call.waited_ms;
            self.sample(callee, MetricKind::Retry, call.attempt_start_ms, 1.0);
            let seed = frame.hrng.next_u64();
            self.dispatch_attempt(
                frame,
                callee,
                call.endpoint,
                call.attempt,
                seed,
                call.attempt_start_ms,
            );
            frame.pending = Pending::Guarded(call);
            return;
        } else {
            // Exhausted, or the breaker opened on this very outcome.
            self.resolve_fallback(frame, &call);
        }
        frame.call_idx += 1;
        self.advance(frame);
    }
}

impl Core<'_> {
    /// Runs a queued event, then the chain of events it created inline,
    /// each under its own key.
    fn process(&mut self, mut ev: HeapEv) {
        loop {
            self.run(ev);
            let Some(next) = self.ctx.inline.take() else { return };
            ev = next;
        }
    }

    fn run(&mut self, ev: HeapEv) {
        let ctx = &mut self.ctx;
        ctx.cur_key = ev.key;
        let samples = ctx.out.samples.records.len();
        match ev.ev {
            Ev::Call(call) => self.on_call(ev.key, call),
            Ev::Done { frame } => self.on_done(frame, ev.key.time()),
            Ev::Reply { parent, ok, duration_ms } => self.on_reply(parent, ok, duration_ms),
            Ev::Timeout { parent } => self.on_timeout(parent),
        }
        // Index what this event emitted so the merge can write it in
        // global event order; breaker transitions are collected here.
        let out = &mut *self.ctx.out;
        out.samples.close(ev.key, samples);
        if !self.ctx.res.transitions().is_empty() {
            let transitions = out.transitions.records.len();
            out.transitions.records.append(&mut self.ctx.res.drain_transitions());
            out.transitions.close(ev.key, transitions);
        }
    }

    fn on_call(&mut self, key: EvKey, call: CallEv) {
        assert!(
            (call.depth as usize) <= MAX_CALL_DEPTH,
            "call tree exceeds MAX_CALL_DEPTH, which Application::validate rules out"
        );
        let ctx = &mut self.ctx;
        let t = key.time();
        let req = key.req;
        let version = call.version;
        // Offered load is recorded at dispatch regardless of admission
        // outcome: overload is visible in arrival rates even when shed.
        ctx.load.record_arrival(version, SimTime::from_millis(t));
        let ident = ctx.alloc_ident(ctx.app.version(version).service.0);
        let token = self.parked_free.last().copied().unwrap_or(self.parked.len());
        match ctx.occ.try_admit(version, token as u64) {
            Admission::Immediate => {
                let frame = self.frames.insert(|at| Frame::new(at, ident, req, call, t, t));
                ctx.begin(frame);
            }
            Admission::Queued => {
                let parked = Some(Parked { call, ident, req, dispatch_ms: t });
                match self.parked_free.pop() {
                    Some(p) => self.parked[p] = parked,
                    None => self.parked.push(parked),
                }
            }
            Admission::Shed => {
                ctx.tally.sheds += 1;
                ctx.sample(version, MetricKind::Shed, t, 1.0);
                if let Some(addr) = call.span {
                    ctx.out.spans.push(SpanRec {
                        req,
                        addr,
                        ident,
                        version,
                        endpoint: call.endpoint,
                        start_ms: t,
                        duration_ms: 0,
                        status: SpanStatus::Shed,
                        attempt: call.attempt,
                        dark: call.dark,
                    });
                }
                match call.parent {
                    Some(parent) => {
                        let reply_key = EvKey::new(t, PHASE_NORMAL, req, ident, 0);
                        ctx.send(reply_key, Ev::Reply { parent, ok: false, duration_ms: 0 });
                    }
                    None if !call.dark => {
                        ctx.out.roots.push(RootRec { req, ok: false, duration_ms: 0 });
                    }
                    None => {}
                }
            }
        }
    }

    /// Admits the parked dispatch `token` names into the slot freed at
    /// `start_ms`.
    fn begin_queued(&mut self, token: u64, start_ms: u64) {
        let at = token as usize;
        let parked = self.parked[at].take().expect("released token is parked");
        self.parked_free.push(at);
        let Parked { call, ident, req, dispatch_ms } = parked;
        let ctx = &mut self.ctx;
        ctx.sample(
            call.version,
            MetricKind::QueueDelay,
            dispatch_ms,
            (start_ms - dispatch_ms) as f64,
        );
        let frame =
            self.frames.insert(|at| Frame::new(at, ident, req, call, dispatch_ms, start_ms));
        ctx.begin(frame);
    }

    fn on_done(&mut self, at: FrameRef, finish_ms: u64) {
        let mut frame = self.frames.take(at);
        debug_assert!(matches!(frame.pending, Pending::Finishing));
        let duration_ms = finish_ms - frame.dispatch_ms;
        let ctx = &mut self.ctx;
        ctx.sample(frame.version, MetricKind::ResponseTime, frame.dispatch_ms, duration_ms as f64);
        ctx.sample(
            frame.version,
            MetricKind::ErrorRate,
            frame.dispatch_ms,
            if frame.ok { 0.0 } else { 1.0 },
        );
        if let Some(addr) = frame.span {
            ctx.out.spans.push(SpanRec {
                req: frame.req,
                addr,
                ident: frame.ident,
                version: frame.version,
                endpoint: frame.endpoint,
                start_ms: frame.dispatch_ms,
                duration_ms,
                status: if frame.ok { SpanStatus::Ok } else { SpanStatus::Failed },
                attempt: frame.attempt,
                dark: frame.dark,
            });
        }
        // Free the slot; the longest-waiting queued dispatch begins service
        // right now.
        if let Some(token) = ctx.occ.release(frame.version) {
            self.begin_queued(token, finish_ms);
        }
        match frame.parent {
            Some(parent) => {
                let key = frame.next_key(finish_ms, PHASE_NORMAL);
                self.ctx.send(key, Ev::Reply { parent, ok: frame.ok, duration_ms });
            }
            None if !frame.dark => {
                self.ctx.out.roots.push(RootRec { req: frame.req, ok: frame.ok, duration_ms });
            }
            None => {}
        }
    }

    fn on_reply(&mut self, parent: FrameRef, ok: bool, duration_ms: u64) {
        // A reply is stale when the attempt timed out (generation moved
        // on) or the caller already finished (its slot is empty or holds a
        // later frame, at a later generation). The child's work still
        // happened and was recorded — only its result is discarded.
        let Some(frame) = self.frames.get(parent) else { return };
        match std::mem::replace(&mut frame.pending, Pending::Advancing) {
            // A reply that arrives is never timed out: the deadline event
            // would have fired in an earlier (or deferred-later) round and
            // bumped the generation first.
            Pending::Guarded(call) => self.ctx.settle_attempt(frame, call, duration_ms, ok, false),
            waiting_for_nothing => frame.pending = waiting_for_nothing,
        }
    }

    fn on_timeout(&mut self, parent: FrameRef) {
        let Some(frame) = self.frames.get(parent) else { return };
        let Pending::Guarded(call) = frame.pending else {
            return; // the attempt settled at or before the deadline
        };
        frame.pending = Pending::Advancing;
        let limit = self
            .ctx
            .policy_of(frame)
            .attempt_timeout
            .expect("timeout armed only with a deadline")
            .as_millis();
        // Abandon the attempt: its late reply will carry this generation
        // and be discarded.
        frame.gen += 1;
        self.ctx.settle_attempt(frame, call, limit, false, true);
    }
}

/// Drives a window's queue to empty and returns the number of sub-rounds.
/// Each sub-round takes the bucket at the earliest queued `(time, phase)`
/// off the queue, then processes its events in key order; the events they
/// create join the queue as they are sent, behind the bucket already
/// taken (see the module doc).
fn drive(core: &mut Core<'_>, times: &mut PhaseTimes, profile: bool) -> u64 {
    // The bucket being processed; swapped with the queue's so both keep
    // their capacity.
    let mut bucket: Vec<HeapEv> = Vec::new();
    let mut front = core.ctx.queue.top();
    let mut round = 0_u64;
    while front != Front::IDLE {
        // Time 1-in-`OBS_TIMING_SAMPLE` rounds; see the constant's doc.
        let timed = profile && round % OBS_TIMING_SAMPLE == OBS_TIMING_SAMPLE / 2;
        round += 1;
        let t0 = mark(timed);
        core.ctx.queue.take(front, &mut bucket);
        core.ctx.tally.events_popped += bucket.len() as u64;
        lap(&mut times.pop, t0);
        let t0 = mark(timed);
        for ev in bucket.drain(..) {
            core.process(ev);
        }
        lap(&mut times.dispatch, t0);
        let t0 = mark(timed);
        front = core.ctx.queue.top();
        lap(&mut times.exchange, t0);
    }
    round
}

/// Runs one window of pre-generated arrivals through the event core and
/// merges all outputs canonically into the caller's store/collector/state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_window(
    app: &Application,
    router: &Router,
    load: &mut LoadTracker,
    occupancy: &mut OccupancyTable,
    faults: &FaultPlan,
    policy: CallPolicy,
    state: &mut ResilienceState,
    sink: &mut MetricSink<'_>,
    collector: &mut TraceCollector,
    requests: Vec<EventRequest>,
    buffers: &mut WindowBuffers,
    profiler: &Profiler,
) -> WindowStats {
    let mut res = ResilienceState::new();
    res.absorb_breakers(state.take_breakers());
    let uncontended = is_uncontended(app, router, policy);
    let mut core = Core {
        frames: Frames::default(),
        parked: Vec::new(),
        parked_free: Vec::new(),
        ctx: Ctx {
            queue: EventQueue::new(),
            serials: vec![0; app.service_count()],
            load,
            occ: occupancy,
            res,
            out: buffers,
            cur_key: KEY_ZERO,
            app,
            router,
            faults,
            policy,
            uncontended,
            inline: None,
            reqs: &requests,
            tally: WindowTally::default(),
        },
    };

    // Seed root arrivals. Entry version and endpoint resolve up front, in
    // arrival order; a workload that names an endpoint its entry version
    // lacks is a misconfigured harness and panics here. Arrival times never
    // decrease and the request index grows, so the keys strictly ascend, as
    // the queue's roots run requires.
    for (i, r) in requests.iter().enumerate() {
        let version = router.resolve(app, r.service, r.user);
        let endpoint = app
            .endpoint_named(version, r.endpoint)
            .expect("workload references a valid entry point");
        let key = EvKey::new(r.time.as_millis(), PHASE_NORMAL, i as u32, 0, i as u32);
        core.ctx.queue.push_root(HeapEv {
            key,
            ev: Ev::Call(CallEv {
                version,
                endpoint,
                parent: None,
                dark: false,
                depth: 0,
                attempt: 0,
                seed: r.root_seed,
                span: r.trace.map(|_| ROOT_ADDR),
            }),
        });
    }

    let mut times = PhaseTimes::default();
    let sub_rounds = drive(&mut core, &mut times, profiler.enabled());
    fold_sampled(profiler, "sim.event.pop", &times.pop);
    fold_sampled(profiler, "sim.event.dispatch", &times.dispatch);
    fold_sampled(profiler, "sim.event.exchange", &times.exchange);
    debug_assert!(
        core.parked.len() == core.parked_free.len(),
        "admission queues drain within the window"
    );
    debug_assert!(core.frames.is_empty(), "all frames complete within the window");
    let Ctx { mut res, tally, out, .. } = core.ctx;
    state.absorb_breakers(res.take_breakers());

    cex_core::span!(profiler, "sim.event.merge");
    let tally = WindowTally { sub_rounds, ..tally };
    merge(app, state, sink, collector, &requests, tally, out, profiler)
}

/// Whether a window runs uncontended: the null call policy, no version
/// behind a concurrency limit and no service mirrored. See the module doc
/// for why each condition is needed.
fn is_uncontended(app: &Application, router: &Router, policy: CallPolicy) -> bool {
    #[cfg(test)]
    if fusion::queue_every_event() {
        return false;
    }
    policy == CallPolicy::default()
        && (0..app.version_count()).all(|v| app.version(VersionId(v)).concurrency_limit.is_none())
        && (0..app.service_count()).all(|s| router.mirrors(ServiceId(s)).is_empty())
}

/// Folds a 1-in-[`OBS_TIMING_SAMPLE`] sampled phase accumulator into the
/// profiler, its total and count scaled by the sampling factor so the
/// tree's totals estimate true wall time. An accumulator nothing was
/// recorded into — profiling off — leaves no node.
fn fold_sampled(profiler: &Profiler, path: &str, stats: &PhaseStats) {
    profiler.fold(path, &stats.scaled(OBS_TIMING_SAMPLE));
}

/// Drains per-request records of one kind, grouped by request (each
/// request's in the order they were recorded), and returns them with every
/// request's start offset (and the total at the end). Request indices are
/// dense, so this is a counting sort: linear, where sorting on the request
/// index was the largest single cost of the merge.
fn group_by_req<T: Copy>(
    records: &mut Vec<T>,
    requests: usize,
    req_of: impl Fn(&T) -> u32,
) -> (Vec<T>, Vec<usize>) {
    let mut starts = vec![0_usize; requests + 1];
    for record in records.iter() {
        starts[req_of(record) as usize + 1] += 1;
    }
    for req in 0..requests {
        starts[req + 1] += starts[req];
    }
    let Some(&filler) = records.first() else {
        return (Vec::new(), starts);
    };
    let mut grouped = vec![filler; records.len()];
    let mut next = starts.clone();
    for record in records.drain(..) {
        let slot = &mut next[req_of(&record) as usize];
        grouped[*slot] = record;
        *slot += 1;
    }
    (grouped, starts)
}

/// The canonical merge: writes the window's tagged outputs into the
/// store and transition log in key order, then the per-request
/// (end-to-end, conversion, trace) outputs in arrival order.
#[allow(clippy::too_many_arguments)]
fn merge(
    app: &Application,
    state: &mut ResilienceState,
    sink: &mut MetricSink<'_>,
    collector: &mut TraceCollector,
    reqs: &[EventRequest],
    tally: WindowTally,
    out: &mut WindowBuffers,
    profiler: &Profiler,
) -> WindowStats {
    {
        cex_core::span!(profiler, "sim.event.merge.samples");
        {
            cex_core::span!(profiler, "sim.event.merge.samples.sort");
            out.transitions.sort();
            out.samples.sort();
        }
        #[cfg(test)]
        fusion::written(&out.samples, &out.transitions);
        cex_core::span!(profiler, "sim.event.merge.samples.write");
        out.transitions.in_entry_order().for_each(|t| state.record_transition(*t));
        for s in out.samples.in_entry_order() {
            sink.record_version(s.version, s.kind, s.time, s.value);
        }
        out.transitions.clear();
        out.samples.clear();
    }
    let mut roots: Vec<Option<RootRec>> = vec![None; reqs.len()];
    for r in out.roots.drain(..) {
        roots[r.req as usize] = Some(r);
    }
    let roots: Vec<RootRec> =
        roots.into_iter().map(|r| r.expect("every request completes within the window")).collect();
    let stats = {
        cex_core::span!(profiler, "sim.event.merge.requests");
        record_requests(app, sink, reqs, &roots, out, tally)
    };
    {
        cex_core::span!(profiler, "sim.event.merge.traces");
        capture_traces(collector, reqs, &roots, out);
    }
    stats
}

/// Writes every request's end-to-end and conversion samples, in arrival
/// order, and folds the window's report.
fn record_requests(
    app: &Application,
    sink: &mut MetricSink<'_>,
    reqs: &[EventRequest],
    roots: &[RootRec],
    out: &mut WindowBuffers,
    tally: WindowTally,
) -> WindowStats {
    // Each request's visits in event order.
    let (mut visits, visit_starts) = group_by_req(&mut out.visits, reqs.len(), |v| v.req);
    for req in 0..reqs.len() {
        visits[visit_starts[req]..visit_starts[req + 1]].sort_unstable_by_key(|v| v.key);
    }
    let mut seen: Vec<VersionId> = Vec::new();
    let mut stats = WindowStats { requests: 0, failures: 0, rt: OnlineStats::new(), tally };
    for (i, (meta, root)) in reqs.iter().zip(roots).enumerate() {
        stats.requests += 1;
        if !root.ok {
            stats.failures += 1;
        }
        let at = meta.time;
        let ms = root.duration_ms as f64;
        stats.rt.push(ms);
        sink.record_app(MetricKind::ResponseTime, at, ms);
        sink.record_app(MetricKind::ErrorRate, at, if root.ok { 0.0 } else { 1.0 });

        // Conversion attribution over the distinct primary-path versions,
        // in order of first service-begin.
        seen.clear();
        for visit in &visits[visit_starts[i]..visit_starts[i + 1]] {
            if !seen.contains(&visit.version) {
                seen.push(visit.version);
            }
        }
        if !seen.is_empty() {
            let mean = seen.iter().map(|v| app.version(*v).conversion_rate).sum::<f64>()
                / seen.len() as f64;
            let converted = root.ok && meta.conv_u < mean;
            let value = if converted { 1.0 } else { 0.0 };
            for v in &seen {
                sink.record_version(*v, MetricKind::ConversionRate, at, value);
            }
        }
    }
    stats
}

/// Offers every sampled request's trace to the collector, in arrival
/// order, and builds only the ones it keeps. The decision reads the root
/// duration and whether any span is an error; a timeout patch re-statuses
/// its span as timed out, so a request with a patch is erroneous whatever
/// its spans say.
fn capture_traces(
    collector: &mut TraceCollector,
    reqs: &[EventRequest],
    roots: &[RootRec],
    out: &mut WindowBuffers,
) {
    #[cfg(test)]
    path_model::offer(reqs, out);
    let requests = reqs.len();
    let (mut spans, span_starts) = group_by_req(&mut out.spans, requests, |s| s.req);
    let (patches, patch_starts) = group_by_req(&mut out.patches, requests, |p| p.req);
    let mut stack = Vec::new();
    for (i, (meta, root)) in reqs.iter().zip(roots).enumerate() {
        let Some(trace_id) = meta.trace else { continue };
        let spans = &mut spans[span_starts[i]..span_starts[i + 1]];
        let patches = &patches[patch_starts[i]..patch_starts[i + 1]];
        let erroneous = !patches.is_empty() || spans.iter().any(|s| s.status.is_error());
        let root_duration = SimDuration::from_millis(root.duration_ms);
        if let Some(weight) = collector.admit(root_duration, erroneous) {
            let mut trace = assemble_trace(trace_id, spans, patches, &mut stack);
            trace.weight = weight;
            collector.keep(trace);
        }
    }
}

/// Builds one kept request's trace from its span records. Sorted by
/// address, the root (parent 0) comes first and every frame's children
/// form one run in sibling order; timeout patches are applied by address,
/// the tree is walked in pre-order from the root, and ids and parents are
/// numbered by position in that walk. `stack` is scratch.
fn assemble_trace(
    trace_id: TraceId,
    spans: &mut [SpanRec],
    patches: &[PatchRec],
    stack: &mut Vec<(usize, Option<SpanId>)>,
) -> Trace {
    spans.sort_unstable_by_key(|s| s.addr);
    for p in patches {
        let at = spans
            .binary_search_by_key(&p.addr, |s| s.addr)
            .expect("a timed-out attempt's span is recorded in the same window");
        spans[at].duration_ms = p.perceived_ms;
        spans[at].status = SpanStatus::TimedOut;
    }
    let mut out = Vec::with_capacity(spans.len());
    stack.push((0, None));
    while let Some((at, parent)) = stack.pop() {
        let s = &spans[at];
        let id = SpanId(out.len() as u32);
        out.push(Span {
            span: id,
            parent,
            version: s.version,
            endpoint: s.endpoint,
            start: SimTime::from_millis(s.start_ms),
            duration: SimDuration::from_millis(s.duration_ms),
            status: s.status,
            attempt: s.attempt,
            dark: s.dark,
        });
        if s.ident != NO_FRAME {
            let first = spans.partition_point(|c| c.addr.parent < s.ident);
            let children = spans[first..].iter().take_while(|c| c.addr.parent == s.ident).count();
            // Last child first, so the first is walked next.
            stack.extend((first..first + children).rev().map(|c| (c, Some(id))));
        }
    }
    debug_assert_eq!(out.len(), spans.len(), "every span hangs off the root");
    Trace::new(trace_id, out)
}

#[cfg(test)]
mod tests {
    use crate::app::{Application, CallDef, EndpointDef, EndpointId, ServiceId, VersionSpec};
    use crate::faults::{Fault, FaultKind};
    use crate::latency::LatencyModel;
    use crate::resilience::CallPolicy;
    use crate::sim::{RunReport, Simulation};
    use crate::topologies::{random_app, RandomAppParams};
    use crate::trace::{SpanStatus, Trace};
    use crate::workload::Workload;
    use cex_core::metrics::{MetricKind, Summary};
    use cex_core::simtime::{SimDuration, SimTime};

    /// Full value-level dump of the metric store: per sorted scope, per
    /// kind, the sample count and the whole-run summary.
    fn store_fingerprint(sim: &Simulation) -> Vec<(String, MetricKind, usize, Summary)> {
        let mut scopes = sim.store().scopes();
        scopes.sort();
        let mut out = Vec::new();
        let horizon = SimTime::from_secs(100_000);
        for scope in scopes {
            for kind in MetricKind::all() {
                let count = sim.store().count(&scope, kind);
                let summary = sim.store().summary_between(&scope, kind, SimTime::ZERO, horizon);
                out.push((scope.clone(), kind, count, summary));
            }
        }
        out
    }

    /// Frontend → backend, optionally with a probabilistic side call, no
    /// load sensitivity (the oracle feeds the load tracker in request
    /// order, the event core in time order — with sensitivity 0 the
    /// latency multiplier is 1 either way).
    fn two_tier(probabilistic: bool) -> Application {
        let mut b = Application::builder();
        let mut front = EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
            .call(CallDef::always("backend", "api"));
        if probabilistic {
            front = front.call(CallDef::with_probability("backend", "api", 0.6));
        }
        b.version(
            VersionSpec::new("frontend", "1.0.0")
                .capacity(1_000.0)
                .load_sensitivity(0.0)
                .endpoint(front),
        );
        b.version(
            VersionSpec::new("backend", "1.0.0")
                .capacity(1_000.0)
                .load_sensitivity(0.0)
                .endpoint(EndpointDef::new("api", LatencyModel::web(10.0))),
        );
        b.build().unwrap()
    }

    type RunDump = (Vec<RunReport>, Vec<(String, MetricKind, usize, Summary)>, Vec<Trace>);

    /// Cross-core store comparison: the two cores record the same sample
    /// multiset but feed the running-moment accumulators in different
    /// orders (request order vs time order), so mean/std_dev may differ in
    /// the last ulps. Counts and extrema must match bitwise.
    fn assert_stores_equivalent(
        rec: &[(String, MetricKind, usize, Summary)],
        ev: &[(String, MetricKind, usize, Summary)],
    ) {
        assert_eq!(rec.len(), ev.len());
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
        for (r, e) in rec.iter().zip(ev) {
            assert_eq!((&r.0, r.1, r.2), (&e.0, e.1, e.2), "scope/kind/count");
            assert_eq!(r.3.count, e.3.count, "{}/{:?} count", r.0, r.1);
            assert_eq!(r.3.min, e.3.min, "{}/{:?} min", r.0, r.1);
            assert_eq!(r.3.max, e.3.max, "{}/{:?} max", r.0, r.1);
            assert!(
                close(r.3.mean, e.3.mean),
                "{}/{:?} mean {} vs {}",
                r.0,
                r.1,
                r.3.mean,
                e.3.mean
            );
            assert!(
                close(r.3.std_dev, e.3.std_dev),
                "{}/{:?} std_dev {} vs {}",
                r.0,
                r.1,
                r.3.std_dev,
                e.3.std_dev
            );
        }
    }

    /// Three 10 s windows of what [`Simulation::run`] drives — 40 rps into
    /// service 0's first endpoint — every request traced, each window run
    /// by `window`: [`Simulation::run_with`] ships,
    /// `Simulation::run_with_oracle` is the reference.
    fn run_windows(
        app: &Application,
        seed: u64,
        window: fn(&mut Simulation, SimDuration, &Workload) -> RunReport,
        setup: impl Fn(&mut Simulation),
    ) -> RunDump {
        let mut sim = Simulation::new(app.clone(), seed);
        sim.set_trace_sampling(1.0);
        setup(&mut sim);
        let entry = app.endpoint(entry_endpoint(app)).name.clone();
        let workload = Workload::simple(ServiceId(0), entry, 40.0);
        let ten_s = SimDuration::from_secs(10);
        let reports = (0..3).map(|_| window(&mut sim, ten_s, &workload)).collect();
        let fingerprint = store_fingerprint(&sim);
        let traces = sim.drain_traces();
        (reports, fingerprint, traces)
    }

    fn entry_endpoint(app: &Application) -> EndpointId {
        app.version(app.baseline_of(ServiceId(0))).endpoints[0]
    }

    /// `two_tier` beside three searched 16-service / 4-layer topologies:
    /// closed-loop and at zero load sensitivity, which is where the oracle
    /// and the event core must agree (see [`crate::exec`]).
    fn differential_apps() -> Vec<Application> {
        let params = RandomAppParams {
            services: 16,
            layers: 4,
            load_sensitivity: 0.0,
            ..RandomAppParams::default()
        };
        let mut apps = vec![two_tier(true)];
        apps.extend([5_u64, 17, 29].map(|seed| random_app(&params, seed)));
        apps
    }

    /// Runs `app` on the oracle and on the event core and asserts that the
    /// two reproduce each other's per-request outcomes exactly — reports,
    /// every metric sample, and every trace. Returns the (common) dump.
    fn assert_cores_agree(
        app: &Application,
        seed: u64,
        setup: impl Fn(&mut Simulation),
    ) -> RunDump {
        let rec = run_windows(app, seed, Simulation::run_with_oracle, &setup);
        let ev = run_windows(app, seed, Simulation::run_with, &setup);
        assert_eq!(rec.0, ev.0, "per-window reports");
        assert_stores_equivalent(&rec.1, &ev.1);
        assert_eq!(rec.2, ev.2, "collected traces");
        ev
    }

    #[test]
    fn event_core_matches_recursive_closed_loop() {
        // Infinite concurrency, empty queues.
        for app in differential_apps() {
            let (_, _, traces) = assert_cores_agree(&app, 42, |_| {});
            assert!(traces.len() > 1_000, "{} traces", traces.len());
        }
    }

    fn guard_policy() -> CallPolicy {
        CallPolicy {
            attempt_timeout: Some(SimDuration::from_millis(14)),
            max_retries: 2,
            backoff_base: SimDuration::from_millis(4),
            backoff_multiplier: 2.0,
            jitter: 0.5,
            breaker: None,
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
        }
    }

    #[test]
    fn event_core_matches_recursive_with_timeouts_retries_fallbacks() {
        // Same as above but through the guarded path (no breaker: the
        // oracle feeds breaker outcomes in call order rather than
        // outcome-time order, so breakers are only equivalent in effect,
        // not byte-for-byte). An error burst on the entry endpoint's first
        // callee forces retries and fallbacks.
        let setup = |sim: &mut Simulation| {
            sim.set_call_policy(guard_policy());
            let app = sim.app();
            let callee = app.endpoint(entry_endpoint(app)).calls[0].service;
            sim.inject_fault(Fault {
                version: app.baseline_of(callee),
                kind: FaultKind::ErrorBurst { extra_error_rate: 0.4 },
                from: SimTime::from_secs(10),
                until: SimTime::from_secs(20),
            });
        };
        for app in differential_apps() {
            let (_, store, _) = assert_cores_agree(&app, 7, setup);
            let total = |kind: MetricKind| -> usize {
                store.iter().filter(|(_, k, ..)| *k == kind).map(|(.., c, _)| c).sum()
            };
            assert!(total(MetricKind::Timeout) > 0, "the run actually produced timeouts");
            assert!(total(MetricKind::Retry) > 0, "the run actually produced retries");
        }
    }

    #[test]
    fn event_core_matches_recursive_with_a_mirror_under_a_policy() {
        // Dark traffic is never guarded: under `guard_policy`, the primary
        // backend's calls to an error-prone db time out, retry and fall
        // back, while the mirrored backend's calls to the same db run
        // under the null policy, in both cores.
        let tier = |service, endpoint: EndpointDef| {
            VersionSpec::new(service, "1.0.0")
                .capacity(1_000.0)
                .load_sensitivity(0.0)
                .endpoint(endpoint)
        };
        let api = || {
            EndpointDef::new("api", LatencyModel::Constant { ms: 5.0 })
                .call(CallDef::always("db", "query"))
        };
        let mut b = Application::builder();
        b.version(tier(
            "frontend",
            EndpointDef::new("home", LatencyModel::Constant { ms: 5.0 })
                .call(CallDef::always("backend", "api")),
        ));
        b.version(tier("backend", api()));
        b.version(tier("db", EndpointDef::new("query", LatencyModel::web(10.0)).error_rate(0.3)));
        let app = b.build().unwrap();
        let setup = |sim: &mut Simulation| {
            sim.set_call_policy(guard_policy());
            let spec = VersionSpec::new("backend", "2.0.0")
                .capacity(1_000.0)
                .load_sensitivity(0.0)
                .endpoint(api());
            let dark = sim.deploy(spec).unwrap();
            let (app, router) = sim.app_and_router_mut();
            let backend = app.service_id("backend").unwrap();
            router.add_mirror(app, backend, dark).unwrap();
        };
        let (_, store, _) = assert_cores_agree(&app, 11, setup);
        let count = |scope: &str, kind: MetricKind| -> usize {
            store.iter().filter(|(s, k, ..)| s == scope && *k == kind).map(|(.., c, _)| c).sum()
        };
        assert!(count("backend@2.0.0", MetricKind::ResponseTime) > 1_000, "the mirror ran");
        assert!(count("db@1.0.0", MetricKind::Timeout) > 0, "the primary calls timed out");
        assert!(count("db@1.0.0", MetricKind::Retry) > 0, "the primary calls retried");
    }

    #[test]
    fn event_core_matches_recursive_with_overlapping_fault_windows() {
        // Overlapping bursts *sum* without capping in FaultPlan::effects
        // (0.7 + 0.6 = 1.3) and each core clamps the combined probability
        // exactly once, where it draws the hop's own failure. Both must
        // clamp identically: same failure draws, same reports, same
        // traces. A latency spike overlaps the bursts so composed
        // latency multipliers are covered on the same windows too.
        let setup = |sim: &mut Simulation| {
            let backend = sim.app().version_id("backend", "1.0.0").unwrap();
            for (from_s, until_s, kind) in [
                (5, 20, FaultKind::ErrorBurst { extra_error_rate: 0.7 }),
                (10, 25, FaultKind::ErrorBurst { extra_error_rate: 0.6 }),
                (12, 18, FaultKind::LatencySpike { multiplier: 3.0 }),
            ] {
                sim.inject_fault(Fault {
                    version: backend,
                    kind,
                    from: SimTime::from_secs(from_s),
                    until: SimTime::from_secs(until_s),
                });
            }
        };
        let (_, _, traces) = assert_cores_agree(&two_tier(true), 13, setup);
        // While the summed rate exceeds 1.0 (10 s..20 s) every backend
        // call must fail in both cores — the clamp actually bit.
        let saturated = traces
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| {
                s.attempt == 0
                    && s.start >= SimTime::from_secs(10)
                    && s.start < SimTime::from_secs(20)
                    && s.status.executed()
                    && s.parent.is_some()
            })
            .collect::<Vec<_>>();
        assert!(!saturated.is_empty(), "requests hit the saturated window");
        assert!(
            saturated.iter().all(|s| s.status == SpanStatus::Failed),
            "combined probability must clamp to exactly 1.0"
        );
    }

    #[test]
    fn timeout_fires_only_when_strictly_late() {
        // Child hop takes exactly 10 ms (constant latency, no proxy
        // overhead). A 10 ms deadline must NOT fire — a timeout needs the
        // attempt to take strictly longer — while 9 ms must.
        let app = || {
            let mut b = Application::builder();
            b.version(
                VersionSpec::new("frontend", "1.0.0")
                    .capacity(1_000.0)
                    .load_sensitivity(0.0)
                    .endpoint(
                        EndpointDef::new("home", LatencyModel::Constant { ms: 1.0 })
                            .call(CallDef::always("backend", "api")),
                    ),
            );
            b.version(
                VersionSpec::new("backend", "1.0.0")
                    .capacity(1_000.0)
                    .load_sensitivity(0.0)
                    .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 10.0 })),
            );
            b.build().unwrap()
        };
        let run = |deadline_ms: u64| {
            let mut sim = Simulation::new(app(), 5);
            sim.set_call_policy(CallPolicy {
                attempt_timeout: Some(SimDuration::from_millis(deadline_ms)),
                ..CallPolicy::default()
            });
            let report = sim.run(SimDuration::from_secs(5), 20.0);
            (report, sim.store().count("backend@1.0.0", MetricKind::Timeout))
        };
        let (exact, exact_timeouts) = run(10);
        assert_eq!(exact_timeouts, 0, "deadline == duration must not fire");
        assert_eq!(exact.failures, 0);
        let (late, late_timeouts) = run(9);
        assert_eq!(late_timeouts as u64, late.requests, "every attempt exceeds 9 ms");
        assert_eq!(late.failures, late.requests, "no retry, no fallback");
    }

    fn limited_app(queue: Option<u32>) -> Application {
        let mut b = Application::builder();
        let mut spec = VersionSpec::new("worker", "1.0.0")
            .capacity(1_000.0)
            .load_sensitivity(0.0)
            .concurrency_limit(1)
            .endpoint(EndpointDef::new("job", LatencyModel::Constant { ms: 40.0 }));
        if let Some(depth) = queue {
            spec = spec.queue_capacity(depth);
        }
        b.version(spec);
        b.build().unwrap()
    }

    #[test]
    fn open_loop_overload_builds_growing_queue_delay() {
        // One slot, 40 ms service time → 25 rps capacity; offered 50 rps.
        // With an unbounded queue nothing is shed and the queueing delay
        // grows throughout the window.
        let mut sim = Simulation::new(limited_app(None), 11);
        let report = sim.run(SimDuration::from_secs(10), 50.0);
        assert_eq!(report.failures, 0);
        let store = sim.store();
        let early = store.summary_between(
            "worker@1.0.0",
            MetricKind::QueueDelay,
            SimTime::ZERO,
            SimTime::from_secs(5),
        );
        let late = store.summary_between(
            "worker@1.0.0",
            MetricKind::QueueDelay,
            SimTime::from_secs(5),
            SimTime::from_secs(10),
        );
        assert!(early.count > 0 && late.count > 0);
        assert!(
            late.mean > 2.0 * early.mean,
            "queue delay keeps growing under 2× overload: early {} late {}",
            early.mean,
            late.mean
        );
        assert_eq!(store.count("worker@1.0.0", MetricKind::Shed), 0);
        // The backlog still drains: every admitted request completes and
        // reports an end-to-end outcome.
        assert_eq!(store.count("worker@1.0.0", MetricKind::ResponseTime) as u64, report.requests);
    }

    #[test]
    fn open_loop_overload_sheds_when_the_queue_is_full() {
        let mut sim = Simulation::new(limited_app(Some(2)), 11);
        let report = sim.run(SimDuration::from_secs(10), 50.0);
        let sheds = sim.store().count("worker@1.0.0", MetricKind::Shed) as u64;
        assert!(sheds > 0, "2× overload with queue depth 2 must shed");
        assert_eq!(report.failures, sheds, "every shed surfaces as a failed request");
        // Bounded queue bounds the wait: max delay ≤ depth × service time.
        let delay = sim.store().summary_between(
            "worker@1.0.0",
            MetricKind::QueueDelay,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert!(delay.max <= 80.0, "delay bounded by the queue: {}", delay.max);
    }

    #[test]
    fn profile_has_every_sampled_phase_node() {
        use cex_core::obs::ObsConfig;
        let mut sim = Simulation::new(two_tier(true), 9);
        sim.set_obs(ObsConfig::enabled());
        sim.run(SimDuration::from_secs(10), 40.0);
        let nodes: Vec<String> =
            sim.profile().nodes().iter().map(|(path, _)| path.clone()).collect();
        for phase in [
            "pop",
            "dispatch",
            "exchange",
            "merge",
            "merge.samples",
            "merge.samples.sort",
            "merge.samples.write",
            "merge.requests",
            "merge.traces",
        ] {
            assert!(nodes.contains(&format!("sim.event.{phase}")), "{phase} in {nodes:?}");
        }
    }

    #[test]
    fn queue_hwm_gauge_tracks_bounded_queue_depth() {
        // One slot, 40 ms service, bounded queue of 4, offered 2× capacity:
        // the queue saturates, so the high-water gauge must reach the bound
        // and shed counts must be visible in the registry.
        let mut sim = Simulation::new(limited_app(Some(4)), 11);
        sim.run(SimDuration::from_secs(10), 50.0);
        let counters = sim.counters();
        assert_eq!(counters.gauge("sim.queue_hwm.worker"), 4, "queue filled to its bound");
        assert!(counters.count("sim.sheds") > 0, "overflow beyond the bound is shed");
    }

    #[test]
    fn a_freed_slot_takes_its_next_frame_past_its_last_generation() {
        use super::{CallEv, Frame, FrameRef, Frames};
        let call = || CallEv {
            version: crate::app::VersionId(0),
            endpoint: EndpointId(0),
            parent: None,
            dark: false,
            depth: 0,
            attempt: 0,
            seed: 1,
            span: None,
        };
        let mut frames = Frames::default();
        let first = frames.insert(|at| Frame::new(at, 1, 0, call(), 0, 0)).at_gen();
        let other = frames.insert(|at| Frame::new(at, 2, 0, call(), 0, 0)).at_gen();
        assert_eq!((first, other), (FrameRef { slot: 0, gen: 0 }, FrameRef { slot: 1, gen: 0 }));
        frames.get(first).expect("live").gen = 5;
        frames.take(FrameRef { slot: 0, gen: 5 });
        assert!(frames.get(FrameRef { slot: 0, gen: 5 }).is_none(), "a freed slot holds nothing");
        let reused = frames.insert(|at| Frame::new(at, 3, 0, call(), 0, 0));
        assert_eq!((reused.ident, reused.at_gen()), (3, FrameRef { slot: 0, gen: 6 }));
        for stale in 0..=5 {
            assert!(frames.get(FrameRef { slot: 0, gen: stale }).is_none(), "generation {stale}");
        }
        assert!(!frames.is_empty());
        frames.take(FrameRef { slot: 0, gen: 6 });
        frames.take(other);
        assert!(frames.is_empty());
    }

    #[test]
    fn a_late_reply_after_its_callers_slot_was_reused_is_discarded() {
        use super::{run_window, EventRequest, WindowBuffers};
        use crate::faults::FaultPlan;
        use crate::load::{LoadTracker, OccupancyTable};
        use crate::monitor::{MetricSink, MetricStore};
        use crate::resilience::ResilienceState;
        use crate::routing::{Router, UserId};
        use crate::trace::TraceCollector;
        use cex_core::obs::Profiler;

        // `front` takes 1 ms and calls `backend`, which takes 50 ms, under
        // a 10 ms deadline with no retry and a 1 ms fallback. The request
        // at 0 ms times out at 11 ms and its frame is done at 12 ms, which
        // frees its slot. The request at 45 ms takes that slot and waits
        // on its own attempt (deadline 56 ms) when the first backend hop
        // replies at 51 ms to the slot at the generation it left with.
        // That reply is stale: the second request must time out and fall
        // back exactly as the first did, 12 ms end to end. Had the slot's
        // next frame restarted its generations, the reply would settle the
        // second request's attempt as a 50 ms success.
        let mut b = Application::builder();
        b.version(
            VersionSpec::new("front", "1").endpoint(
                EndpointDef::new("home", LatencyModel::Constant { ms: 1.0 })
                    .call(CallDef::always("backend", "api")),
            ),
        );
        b.version(
            VersionSpec::new("backend", "1")
                .endpoint(EndpointDef::new("api", LatencyModel::Constant { ms: 50.0 })),
        );
        let app = b.build().unwrap();
        let policy = CallPolicy {
            attempt_timeout: Some(SimDuration::from_millis(10)),
            max_retries: 0,
            fallback: true,
            fallback_latency: SimDuration::from_millis(1),
            ..CallPolicy::default()
        };
        let router = Router::new();
        let mut store = MetricStore::new();
        let scopes = store.intern_version_scopes(&app);
        let app_scope = store.intern("app");
        let requests = [0, 45]
            .map(|ms| EventRequest {
                time: SimTime::from_millis(ms),
                user: UserId(ms),
                service: ServiceId(0),
                endpoint: app.endpoint_name("home").unwrap(),
                trace: None,
                root_seed: ms,
                conv_u: 0.5,
            })
            .into();
        let stats = run_window(
            &app,
            &router,
            &mut LoadTracker::new(&app),
            &mut OccupancyTable::new(&app),
            &FaultPlan::default(),
            policy,
            &mut ResilienceState::new(),
            &mut MetricSink::new(&mut store, &scopes, app_scope),
            &mut TraceCollector::all(),
            requests,
            &mut WindowBuffers::default(),
            &Profiler::default(),
        );
        let rt = stats.rt.summary();
        assert_eq!((stats.requests, stats.failures), (2, 0));
        assert_eq!((rt.min, rt.max), (12.0, 12.0), "both requests fell back after 10 ms");
        assert_eq!(store.count("backend@1", MetricKind::Timeout), 2);
        assert_eq!(store.count("backend@1", MetricKind::FallbackServed), 2);
    }

    #[test]
    fn queued_requests_drain_across_the_window_boundary() {
        // Requests admitted near the window end finish after `to`; their
        // samples must still land (the report covers every arrival).
        let mut sim = Simulation::new(limited_app(None), 23);
        let r1 = sim.run(SimDuration::from_secs(2), 50.0);
        let r2 = sim.run(SimDuration::from_secs(2), 50.0);
        assert!(r1.requests > 0 && r2.requests > 0);
        assert_eq!(
            sim.store().count("worker@1.0.0", MetricKind::ResponseTime) as u64,
            r1.requests + r2.requests
        );
    }
}
