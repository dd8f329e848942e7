//! What event-core workers share when there is more than one of them: two
//! barriers per sub-round, a parity-indexed pair of minimum slots, and one
//! inbox per shard. A one-worker window constructs none of this.
//!
//! Sub-round `r` uses slot `r % 2`:
//!
//! 1. every worker `fetch_min`s its queue's [`Front`] into the slot and
//!    waits at the first barrier ([`Rendezvous::agree`]);
//! 2. every worker reads the slot — the global minimum, which names the
//!    time *and* the phase of the sub-round, or [`Front::IDLE`] on every
//!    worker at once when all queues are empty — and one of them re-arms
//!    the *other* slot for sub-round `r + 1`;
//! 3. workers process their events, posting cross-shard events to the
//!    target's inbox, and wait at the second barrier
//!    ([`Rendezvous::settle`]); then each drains its own inbox.
//!
//! Why one re-arm between the barriers is enough: slot `(r + 1) % 2` was
//! last read in step 2 of sub-round `r - 1`, and every such read precedes
//! its reader's arrival at that sub-round's second barrier, hence the
//! re-arming store, which follows the first barrier of `r`. The slot is
//! next written in step 1 of `r + 1`, after the second barrier of `r`,
//! which the re-arming worker reaches only after its store. An inbox is
//! drained after the second barrier of `r` by its owner and next posted to
//! after the first barrier of `r + 1`, which the owner reaches only after
//! the drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use super::queue::Front;
use super::HeapEv;

#[derive(Debug)]
pub(super) struct Rendezvous {
    barrier: Barrier,
    fronts: [AtomicU64; 2],
    inboxes: Vec<Mutex<Vec<HeapEv>>>,
}

impl Rendezvous {
    pub(super) fn new(workers: usize) -> Rendezvous {
        Rendezvous {
            barrier: Barrier::new(workers),
            fronts: [AtomicU64::new(Front::IDLE.0), AtomicU64::new(Front::IDLE.0)],
            inboxes: (0..workers).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// Steps 1 and 2: publishes `own` for sub-round `round` and returns the
    /// minimum over all workers. Every worker must call this with the same
    /// `round`, counting up from zero.
    pub(super) fn agree(&self, round: u64, own: Front) -> Front {
        let slot = (round & 1) as usize;
        self.fronts[slot].fetch_min(own.0, Ordering::SeqCst);
        let rearm = self.barrier.wait().is_leader();
        let agreed = Front(self.fronts[slot].load(Ordering::SeqCst));
        if rearm {
            self.fronts[slot ^ 1].store(Front::IDLE.0, Ordering::SeqCst);
        }
        agreed
    }

    /// Hands `ev` to shard `to`; it joins that shard's queue after
    /// [`Rendezvous::settle`].
    pub(super) fn post(&self, to: usize, ev: HeapEv) {
        self.inboxes[to].lock().expect("a worker panicked holding an inbox").push(ev);
    }

    /// Step 3's barrier: every worker has finished posting.
    pub(super) fn settle(&self) {
        self.barrier.wait();
    }

    /// Empties shard `of`'s inbox into `deliver`.
    pub(super) fn drain_inbox(&self, of: usize, deliver: impl FnMut(HeapEv)) {
        self.inboxes[of]
            .lock()
            .expect("a worker panicked holding an inbox")
            .drain(..)
            .for_each(deliver);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cex_core::rng::SplitMix64;

    /// Every worker must see the sequential minimum of each round's fronts
    /// — including rounds where only some queues are empty — and all must
    /// see `IDLE` in the same final round.
    #[test]
    fn agrees_on_the_sequential_minimum_every_round() {
        const ROUNDS: usize = 12_000;
        for workers in [3_usize, 8] {
            let mut rng = SplitMix64::new(workers as u64);
            // fronts[w][r]; the last round is empty everywhere.
            let fronts: Vec<Vec<Front>> = (0..workers)
                .map(|_| {
                    (0..ROUNDS)
                        .map(|r| match rng.next_u64() % 8 {
                            _ if r + 1 == ROUNDS => Front::IDLE,
                            0 | 1 => Front::IDLE,
                            // Collisions on time, differing in phase.
                            _ => Front(rng.next_u64() % 64),
                        })
                        .collect()
                })
                .collect();
            let expected: Vec<Front> = (0..ROUNDS)
                .map(|r| fronts.iter().map(|own| own[r]).min().expect("workers > 0"))
                .collect();
            let peers = Rendezvous::new(workers);
            // Compared after the join: a worker that panicked between the
            // barriers would leave the others waiting forever.
            #[allow(clippy::disallowed_methods)]
            let seen: Vec<Vec<Front>> = std::thread::scope(|s| {
                let handles: Vec<_> = fronts
                    .iter()
                    .map(|own| {
                        let peers = &peers;
                        s.spawn(move || {
                            let mut seen = Vec::with_capacity(ROUNDS);
                            for (round, front) in own.iter().enumerate() {
                                seen.push(peers.agree(round as u64, *front));
                                if round + 1 < ROUNDS {
                                    peers.settle();
                                }
                            }
                            seen
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
            });
            for (worker, seen) in seen.iter().enumerate() {
                assert!(seen == &expected, "worker {worker} of {workers} disagreed");
            }
        }
    }
}
