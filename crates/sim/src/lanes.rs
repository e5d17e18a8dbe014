//! The message fabric of the sharded engine's multi-worker executor: lane
//! buffers between workers and the round barrier that separates a lane's
//! writer from its reader.
//!
//! A round of the executor has two hand-offs (pushes, then replies). Each
//! uses one [`Lanes`]: per-(source worker, destination worker) buffers that
//! change hands by swapping, so their capacity circulates and a
//! steady-state cycle allocates nothing. The barrier between posting and
//! draining means the lane locks are never contended; they only make the
//! hand-off safe without `unsafe`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Per-(source worker, destination worker) message buffers.
#[derive(Debug)]
pub(crate) struct Lanes<T> {
    workers: usize,
    cells: Vec<Mutex<Vec<T>>>,
}

impl<T> Default for Lanes<T> {
    fn default() -> Self {
        Lanes {
            workers: 0,
            cells: Vec::new(),
        }
    }
}

impl<T: Copy> Lanes<T> {
    pub(crate) fn new(workers: usize) -> Self {
        Lanes {
            workers,
            cells: (0..workers * workers).map(|_| Mutex::default()).collect(),
        }
    }

    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    fn lane(&self, src: usize, dst: usize) -> MutexGuard<'_, Vec<T>> {
        // A poisoned lane means its writer panicked; the thread scope
        // re-raises that panic, so the contents are never read.
        self.cells[src * self.workers + dst]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts every non-empty outbox of worker `src` (one per destination)
    /// by swapping it into its lane; the outbox gets back the buffer the
    /// lane's reader emptied last time.
    pub(crate) fn post(&self, src: usize, outboxes: &mut [Vec<T>]) {
        for (dst, outbox) in outboxes.iter_mut().enumerate() {
            if !outbox.is_empty() {
                std::mem::swap(&mut *self.lane(src, dst), outbox);
            }
        }
    }

    /// Replaces `inbox` with every message posted towards worker `dst`, in
    /// arrival (source) order, and empties the lanes; the caller restores
    /// the merge order. The first non-empty lane is swapped in, not copied.
    pub(crate) fn drain_lanes(&self, dst: usize, inbox: &mut Vec<T>) {
        inbox.clear();
        for src in 0..self.workers {
            let mut lane = self.lane(src, dst);
            if inbox.is_empty() {
                std::mem::swap(&mut *lane, inbox);
            } else {
                inbox.extend_from_slice(&lane);
                lane.clear();
            }
        }
    }
}

/// A reusable barrier for the executor's rounds. A phase lasts tens of
/// microseconds at 10⁵ nodes, less than a sleeping barrier's wake-up, so
/// waiters spin briefly before they sleep; sleeping, not spinning, is what
/// a longer wait needs, since the awaited worker may need the same core.
#[derive(Debug)]
pub(crate) struct RoundBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl RoundBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        RoundBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Returns once all parties have called `wait` in this generation;
    /// everything any party wrote before its call is visible after.
    pub(crate) fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        let passed = || self.generation.load(Ordering::Acquire) != generation;
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Relaxed);
            // Bump under the lock: a sleeper checks `passed` under it too,
            // so it cannot miss the notification.
            let _guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.fetch_add(1, Ordering::Release);
            self.wake.notify_all();
            return;
        }
        for _ in 0..1 << 10 {
            if passed() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        while !passed() {
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_deliver_in_source_order_and_recycle_buffers() {
        let lanes = Lanes::<u32>::new(3);
        let mut outboxes = vec![Vec::new(), Vec::new(), Vec::new()];
        outboxes[2].extend([1, 2]);
        lanes.post(0, &mut outboxes);
        assert!(outboxes.iter().all(Vec::is_empty));
        let mut other = vec![Vec::new(), Vec::new(), vec![3]];
        lanes.post(1, &mut other);
        let mut inbox = vec![99];
        lanes.drain_lanes(2, &mut inbox);
        assert_eq!(inbox, [1, 2, 3]);
        // Drained lanes are empty; a second drain delivers nothing.
        lanes.drain_lanes(2, &mut inbox);
        assert!(inbox.is_empty());
        // The swapped-in buffer comes back to the next sender with its
        // capacity.
        outboxes[2].push(4);
        lanes.post(0, &mut outboxes);
        assert!(outboxes[2].is_empty());
    }

    #[test]
    fn round_barrier_separates_generations() {
        let barrier = RoundBarrier::new(3);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for round in 0..50 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Every party has counted this round, none the next.
                        assert_eq!(counter.load(Ordering::Relaxed), 3 * (round + 1));
                        barrier.wait();
                    }
                });
            }
        });
    }
}
