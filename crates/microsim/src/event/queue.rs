//! The event queue: a ring of per-millisecond buckets for the near future,
//! a sorted run of the window's root arrivals and an overflow heap for the
//! rest.
//!
//! Simulated time has millisecond grain and almost every event lands within
//! a service time of the instant that created it, so a binary heap pays
//! `O(log n)` comparisons of 24-byte keys, per push and per pop, for an
//! order that is mostly known. Here an event with `time < base + RING` goes
//! to bucket `time % RING`, split by phase. A window's root arrivals are
//! seeded before it runs, in strictly ascending key order, so those past the
//! ring's horizon wait in that order in the **roots run**, a queue beside
//! the ring, and move into the ring from its front as the base catches up.
//! What else lies past the horizon — an event the window creates there, a
//! far deadline or a long service time — waits in the overflow heap and
//! migrates the same way. A sub-round takes one whole `(time, phase)` bucket
//! and orders those few events by [`EvKey`] — exactly the sequence the heap
//! would have popped, because time and phase lead the key order.
//!
//! Invariants, with `base` the time of the last bucket taken:
//! - every queued event has `time >= base` (events are never created in
//!   the past, and a sub-round's time is the queue's minimum);
//! - ring events have `time < base + RING`, roots-run and overflow events
//!   `>=`, so a ring slot holds one timestamp only and neither the run's
//!   front nor the overflow top is the minimum while the ring is non-empty;
//! - the roots run is in ascending key order;
//! - no ring bucket before `cursor` is non-empty, and `cursor >= base`.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use super::{EvKey, HeapEv};

/// Ring length in milliseconds (a power of two).
const RING: u64 = 1 << 10;
const MASK: u64 = RING - 1;
/// Event phases per timestamp (`PHASE_NORMAL`, `PHASE_TIMEOUT`).
const PHASES: usize = 2;

/// The address of a sub-round, `(time << 1) | phase` — an [`EvKey`]'s
/// `at`: numeric order is time order, then phase order at one time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Front(pub(super) u64);

impl Front {
    /// Nothing queued.
    pub(super) const IDLE: Front = Front(u64::MAX);

    fn of(key: &EvKey) -> Front {
        Front(key.at)
    }

    fn time(self) -> u64 {
        self.0 >> 1
    }

    fn phase(self) -> usize {
        (self.0 & 1) as usize
    }
}

#[derive(Debug)]
pub(super) struct EventQueue {
    ring: Vec<[Vec<HeapEv>; PHASES]>,
    ring_len: usize,
    base: u64,
    cursor: u64,
    /// Root arrivals past the ring's horizon, in ascending key order.
    roots: VecDeque<HeapEv>,
    overflow: BinaryHeap<Reverse<HeapEv>>,
}

impl EventQueue {
    pub(super) fn new() -> EventQueue {
        EventQueue {
            ring: (0..RING).map(|_| Default::default()).collect(),
            ring_len: 0,
            base: 0,
            cursor: 0,
            roots: VecDeque::new(),
            overflow: BinaryHeap::new(),
        }
    }

    /// Queues an event into the ring, or past its horizon into the
    /// overflow heap.
    pub(super) fn push(&mut self, ev: HeapEv) {
        if ev.key.time() < self.base + RING {
            self.push_ring(ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// Queues a root arrival: into the ring, or past its horizon at the
    /// back of the roots run. Each root's key must exceed every earlier
    /// root's.
    pub(super) fn push_root(&mut self, ev: HeapEv) {
        debug_assert!(
            self.roots.back().is_none_or(|last| last.key < ev.key),
            "roots arrive in ascending key order"
        );
        if ev.key.time() < self.base + RING {
            self.push_ring(ev);
        } else {
            self.roots.push_back(ev);
        }
    }

    fn push_ring(&mut self, ev: HeapEv) {
        let front = Front::of(&ev.key);
        let time = front.time();
        debug_assert!(time >= self.base, "event scheduled in the past");
        self.cursor = self.cursor.min(time);
        self.ring_len += 1;
        self.ring[(time & MASK) as usize][front.phase()].push(ev);
    }

    /// The earliest `(time, phase)` queued, [`Front::IDLE`] when empty.
    pub(super) fn top(&mut self) -> Front {
        if self.ring_len == 0 {
            let root = self.roots.front().map_or(Front::IDLE, |ev| Front::of(&ev.key));
            let overflow =
                self.overflow.peek().map_or(Front::IDLE, |Reverse(ev)| Front::of(&ev.key));
            return root.min(overflow);
        }
        loop {
            let slot = &self.ring[(self.cursor & MASK) as usize];
            if let Some(phase) = slot.iter().position(|bucket| !bucket.is_empty()) {
                return Front((self.cursor << 1) | phase as u64);
            }
            self.cursor += 1;
        }
    }

    /// Moves every event at `front`, which must be [`EventQueue::top`],
    /// into `into` (which must be empty), in key order, and advances the
    /// base to `front`'s time.
    pub(super) fn take(&mut self, front: Front, into: &mut Vec<HeapEv>) {
        debug_assert!(into.is_empty());
        let time = front.time();
        debug_assert!(front == self.top());
        self.base = time;
        self.cursor = self.cursor.max(time);
        let horizon = time + RING;
        while self.roots.front().is_some_and(|ev| ev.key.time() < horizon) {
            let ev = self.roots.pop_front().expect("peeked");
            self.push_ring(ev);
        }
        while self.overflow.peek().is_some_and(|Reverse(ev)| ev.key.time() < horizon) {
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.push_ring(ev);
        }
        std::mem::swap(&mut self.ring[(time & MASK) as usize][front.phase()], into);
        self.ring_len -= into.len();
        into.sort_unstable_by_key(|ev| ev.key);
    }

    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.roots.is_empty() && self.overflow.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Ev, FrameRef, PHASE_NORMAL, PHASE_TIMEOUT};
    use super::*;
    use cex_core::rng::SplitMix64;

    /// The queue this one replaced, with the old drive loop's pop rule.
    #[derive(Default)]
    struct Reference(BinaryHeap<Reverse<HeapEv>>);

    impl Reference {
        fn top(&self) -> Front {
            self.0.peek().map_or(Front::IDLE, |Reverse(ev)| Front::of(&ev.key))
        }

        fn take(&mut self, front: Front) -> Vec<EvKey> {
            let mut keys = Vec::new();
            while self.0.peek().is_some_and(|Reverse(ev)| Front::of(&ev.key) == front) {
                keys.push(self.0.pop().expect("peeked").0.key);
            }
            keys
        }
    }

    fn event(key: EvKey) -> HeapEv {
        HeapEv { key, ev: Ev::Done { frame: FrameRef { slot: key.cseq, gen: 0 } } }
    }

    /// Root arrivals as a window seeds them: strictly ascending keys
    /// (non-decreasing times, ascending request index), creator 0.
    fn roots(rng: &mut SplitMix64, start: u64, count: u32) -> Vec<EvKey> {
        let mut time = start;
        (0..count)
            .map(|i| {
                time += [0, 0, 1, 3, 7, 12, 20, 30][(rng.next_u64() % 8) as usize];
                EvKey::new(time, PHASE_NORMAL, i, 0, i)
            })
            .collect()
    }

    #[test]
    fn pops_exactly_the_binary_heap_order_on_random_streams() {
        let (mut roots_in_ring, mut roots_in_run, mut migrated_while_busy) = (0, 0, 0);
        for seed in 0..24_u64 {
            let mut rng = SplitMix64::new(seed);
            let mut queue = EventQueue::new();
            let mut reference = Reference::default();
            let mut front = Vec::new();
            let mut serial = 0_u64;
            let mut now = 0;
            let mut taken = 0_usize;
            let mut spilled = 0_usize;
            for window in 0..6 {
                // A window on a fresh queue (base 0) starting anywhere, as
                // the event core runs them, or on the last window's drained
                // queue, where some roots fall inside the ring's horizon.
                let start = if window % 2 == 0 {
                    queue = EventQueue::new();
                    [rng.next_u64() % RING, rng.next_u64() % 1_000_000][window % 4 / 2]
                } else {
                    now + rng.next_u64() % (2 * RING)
                };
                let count = 200 + (rng.next_u64() % 200) as u32;
                for key in roots(&mut rng, start, count) {
                    let run = queue.roots.len();
                    queue.push_root(event(key));
                    reference.0.push(Reverse(event(key)));
                    if queue.roots.len() > run {
                        roots_in_run += 1;
                    } else {
                        roots_in_ring += 1;
                    }
                }
                for round in 0.. {
                    // Events "created" by the previous sub-round while the
                    // window is young: at the time just drained (either
                    // phase), in the successor bucket, a service time away,
                    // and now and then a deadline past the ring's horizon.
                    let creations =
                        if round == 0 || round > 1_500 { 0 } else { rng.next_u64() % 4 };
                    for _ in 0..creations {
                        let ahead = match rng.next_u64() % 16 {
                            0..=3 => 0,
                            4..=6 => 1,
                            7..=13 => rng.next_u64() % 40,
                            14 => RING - 2 + rng.next_u64() % 4,
                            _ => RING + rng.next_u64() % (3 * RING),
                        };
                        spilled += usize::from(ahead >= RING);
                        serial += 1;
                        let key = EvKey::new(
                            now + ahead,
                            [PHASE_NORMAL, PHASE_NORMAL, PHASE_NORMAL, PHASE_TIMEOUT]
                                [(rng.next_u64() % 4) as usize],
                            (rng.next_u64() % 8) as u32,
                            1 + rng.next_u64() % 8,
                            serial as u32,
                        );
                        queue.push(event(key));
                        reference.0.push(Reverse(event(key)));
                    }
                    let next = queue.top();
                    assert_eq!(next, reference.top(), "seed {seed} window {window} round {round}");
                    if next == Front::IDLE {
                        assert!(queue.is_empty());
                        break;
                    }
                    let (run, busy) = (queue.roots.len(), queue.ring_len > 0);
                    queue.take(next, &mut front);
                    if busy {
                        migrated_while_busy += run - queue.roots.len();
                    }
                    let keys: Vec<EvKey> = front.drain(..).map(|ev| ev.key).collect();
                    assert_eq!(keys, reference.take(next), "seed {seed} window {window}");
                    taken += keys.len();
                    now = next.time();
                }
            }
            assert!(
                taken > 4_000 && spilled > 100,
                "seed {seed}: {taken} taken, {spilled} spilled"
            );
        }
        assert!(
            roots_in_ring > 1_000 && roots_in_run > 10_000 && migrated_while_busy > 10_000,
            "{roots_in_ring} roots straight into the ring, {roots_in_run} into the run, \
             {migrated_while_busy} moved while the ring was busy"
        );
    }
}
