//! The event queue: a ring of per-millisecond buckets for the near future,
//! an overflow heap for the rest.
//!
//! Simulated time has millisecond grain and almost every event lands within
//! a service time of the instant that created it, so a binary heap pays
//! `O(log n)` comparisons of 32-byte keys, per push and per pop, for an
//! order that is mostly known. Here an event with `time < base + RING` goes
//! to bucket `time % RING`, split by phase; anything later (the window's
//! root arrivals, a far deadline) waits in a `BinaryHeap` and migrates into
//! the ring when the base catches up. A sub-round takes one whole
//! `(time, phase)` bucket and orders those few events by [`EvKey`] — exactly
//! the sequence the heap would have popped, because time and phase lead the
//! key order.
//!
//! Invariants, with `base` the time of the last bucket taken:
//! - every queued event has `time >= base` (events are never created in
//!   the past, and a sub-round's time is the queue's minimum);
//! - ring events have `time < base + RING`, overflow events `>=`, so a ring
//!   slot holds one timestamp only and the overflow top is never the
//!   minimum while the ring is non-empty;
//! - no ring bucket before `cursor` is non-empty, and `cursor >= base`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::{EvKey, HeapEv};

/// Ring length in milliseconds (a power of two).
const RING: u64 = 1 << 10;
const MASK: u64 = RING - 1;
/// Event phases per timestamp (`PHASE_NORMAL`, `PHASE_TIMEOUT`).
const PHASES: usize = 2;

/// The address of a sub-round, `(time << 1) | phase`: numeric order is
/// time order, then phase order at one time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(super) struct Front(pub(super) u64);

impl Front {
    /// Nothing queued.
    pub(super) const IDLE: Front = Front(u64::MAX);

    fn of(key: &EvKey) -> Front {
        Front((key.time << 1) | u64::from(key.phase))
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
    overflow: BinaryHeap<Reverse<HeapEv>>,
}

impl EventQueue {
    pub(super) fn new() -> EventQueue {
        EventQueue {
            ring: (0..RING).map(|_| Default::default()).collect(),
            ring_len: 0,
            base: 0,
            cursor: 0,
            overflow: BinaryHeap::new(),
        }
    }

    pub(super) fn push(&mut self, ev: HeapEv) {
        let time = ev.key.time;
        debug_assert!(time >= self.base, "event scheduled in the past");
        if time < self.base + RING {
            self.cursor = self.cursor.min(time);
            self.ring_len += 1;
            self.ring[(time & MASK) as usize][usize::from(ev.key.phase)].push(ev);
        } else {
            self.overflow.push(Reverse(ev));
        }
    }

    /// The earliest `(time, phase)` queued, [`Front::IDLE`] when empty.
    pub(super) fn top(&mut self) -> Front {
        if self.ring_len == 0 {
            return self.overflow.peek().map_or(Front::IDLE, |Reverse(ev)| Front::of(&ev.key));
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
        while self.overflow.peek().is_some_and(|Reverse(ev)| ev.key.time < time + RING) {
            let Reverse(ev) = self.overflow.pop().expect("peeked");
            self.push(ev);
        }
        std::mem::swap(&mut self.ring[(time & MASK) as usize][front.phase()], into);
        self.ring_len -= into.len();
        into.sort_unstable_by_key(|ev| ev.key);
    }

    #[cfg(test)]
    pub(super) fn is_empty(&self) -> bool {
        self.ring_len == 0 && self.overflow.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Ev, PHASE_NORMAL, PHASE_TIMEOUT};
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
        HeapEv { key, ev: Ev::Done { ident: key.ckey } }
    }

    #[test]
    fn pops_exactly_the_binary_heap_order_on_random_streams() {
        for seed in 0..24_u64 {
            let mut rng = SplitMix64::new(seed);
            let mut queue = EventQueue::new();
            let mut reference = Reference::default();
            let mut front = Vec::new();
            let mut serial = 0_u64;
            // A window starting anywhere, root arrivals far beyond the ring.
            let mut now = rng.next_u64() % 1_000_000;
            let push = |queue: &mut EventQueue, reference: &mut Reference, key: EvKey| {
                queue.push(event(key));
                reference.0.push(Reverse(event(key)));
            };
            let mut taken = 0_usize;
            let mut spilled = 0_usize;
            for round in 0..4_000 {
                // Events "created" by the previous sub-round: at the time
                // just drained (either phase), in the successor bucket, a
                // service time away, and now and then a deadline or root
                // arrival past the ring's horizon.
                let creations = if round == 0 { 64 } else { rng.next_u64() % 4 };
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
                    let key = EvKey {
                        time: now + ahead,
                        phase: [PHASE_NORMAL, PHASE_NORMAL, PHASE_NORMAL, PHASE_TIMEOUT]
                            [(rng.next_u64() % 4) as usize],
                        req: (rng.next_u64() % 8) as u32,
                        ckey: rng.next_u64() % 8,
                        cseq: serial as u32,
                    };
                    push(&mut queue, &mut reference, key);
                }
                let next = queue.top();
                assert_eq!(next, reference.top(), "seed {seed} round {round}");
                if next == Front::IDLE {
                    assert!(queue.is_empty());
                    continue;
                }
                queue.take(next, &mut front);
                let keys: Vec<EvKey> = front.drain(..).map(|ev| ev.key).collect();
                assert_eq!(keys, reference.take(next), "seed {seed} round {round}");
                taken += keys.len();
                now = next.time();
            }
            assert!(
                taken > 4_000 && spilled > 100,
                "seed {seed}: {taken} taken, {spilled} spilled"
            );
        }
    }
}
