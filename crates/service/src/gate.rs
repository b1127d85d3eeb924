//! A FIFO-fair counting gate: the service's worker pool.
//!
//! The engine's searches are resumable ([`ff_core::FusionFissionRun`],
//! [`ff_engine::SolverRun`]), so a job does not need to *own* a CPU for
//! its whole lifetime — it only needs one while advancing a chunk. The
//! gate hands out `permits` compute slots in strict arrival order: M
//! in-flight jobs re-acquire between chunks and therefore interleave
//! round-robin on N slots instead of the first N jobs blocking the rest
//! to completion. (A plain `Mutex`/semaphore gives no ordering guarantee;
//! strict FIFO is what makes the sharing *fair*.)
//!
//! Every acquire, a job's chunk or a worker session's epoch, also
//! records how long it waited in the coarse logarithmic `ff_permit_wait_ms`
//! histogram ([`FairGate::wait_histogram`]). The server's `stats` event
//! and `/metrics` both read that one histogram, so operators can see
//! contention building up *before* admission control starts rejecting.

use crate::sync::{lock, wait};
use ff_obs::{Histogram, Registry};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Number of buckets in the permit-wait histogram.
pub const WAIT_BUCKETS: usize = 5;

/// Upper bounds (inclusive, in milliseconds) of the first
/// `WAIT_BUCKETS - 1` histogram buckets; the last bucket is unbounded.
pub const WAIT_BUCKET_MS: [u64; WAIT_BUCKETS - 1] = [1, 10, 100, 1000];

struct GateState {
    available: usize,
    /// Tickets waiting, in arrival order.
    queue: VecDeque<u64>,
    next_ticket: u64,
}

/// A FIFO-fair counting gate. See the module docs.
pub struct FairGate {
    state: Mutex<GateState>,
    cv: Condvar,
    waits: Histogram,
}

/// An acquired compute slot; released (and the next ticket woken) on drop.
pub struct Permit {
    gate: Arc<FairGate>,
}

impl FairGate {
    /// A gate with `permits` concurrent slots (at least 1), recording its
    /// waits on a registry of its own.
    pub fn new(permits: usize) -> Arc<FairGate> {
        FairGate::with_registry(permits, &Registry::new())
    }

    /// [`FairGate::new`], recording its waits in `registry`'s
    /// `ff_permit_wait_ms` histogram.
    pub fn with_registry(permits: usize, registry: &Registry) -> Arc<FairGate> {
        assert!(permits >= 1, "need at least one permit");
        Arc::new(FairGate {
            state: Mutex::new(GateState {
                available: permits,
                queue: VecDeque::new(),
                next_ticket: 0,
            }),
            cv: Condvar::new(),
            waits: crate::obs::permit_wait_ms(registry),
        })
    }

    /// Blocks until a slot is free *and* every earlier caller has been
    /// served, then claims the slot. The time spent blocked is recorded
    /// in the wait histogram.
    pub fn acquire(self: &Arc<FairGate>) -> Permit {
        let started = Instant::now();
        let mut st = lock(&self.state);
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queue.push_back(ticket);
        while !(st.available > 0 && st.queue.front() == Some(&ticket)) {
            st = wait(&self.cv, st);
        }
        st.queue.pop_front();
        st.available -= 1;
        drop(st);
        self.waits.observe(started.elapsed().as_secs_f64() * 1e3);
        // Another ticket may be eligible too (available > 1).
        self.cv.notify_all();
        Permit { gate: self.clone() }
    }

    /// Tickets currently blocked waiting for a slot.
    pub fn queued(&self) -> usize {
        lock(&self.state).queue.len()
    }

    /// Counts of completed acquires by how long they waited: buckets are
    /// `≤ 1 ms`, `≤ 10 ms`, `≤ 100 ms`, `≤ 1 s`, `> 1 s`
    /// (see [`WAIT_BUCKET_MS`]).
    pub fn wait_histogram(&self) -> [u64; WAIT_BUCKETS] {
        let counts = self.waits.counts();
        std::array::from_fn(|i| counts[i])
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut st = lock(&self.gate.state);
        st.available += 1;
        drop(st);
        self.gate.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn cap_is_never_exceeded_and_everyone_finishes() {
        let gate = FairGate::new(2);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..5 {
                        let _p = gate.acquire();
                        let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(2));
                        in_flight.fetch_sub(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 2, "cap exceeded");
        assert_eq!(
            gate.wait_histogram().iter().sum::<u64>(),
            40,
            "every acquire must be counted exactly once"
        );
        assert_eq!(gate.queued(), 0);
    }

    #[test]
    fn grants_are_fifo_under_staggered_arrival() {
        let gate = FairGate::new(1);
        let order = Mutex::new(Vec::new());
        let blocker = gate.acquire(); // everyone below must queue
        std::thread::scope(|s| {
            for i in 0..4 {
                let gate = &gate;
                let order = &order;
                s.spawn(move || {
                    // Stagger arrivals so ticket order is the spawn order.
                    std::thread::sleep(Duration::from_millis(20 * (i as u64 + 1)));
                    let _p = gate.acquire();
                    lock(order).push(i);
                });
            }
            std::thread::sleep(Duration::from_millis(150));
            assert_eq!(gate.queued(), 4, "all four must be parked");
            drop(blocker); // open the gate after all four are queued
        });
        assert_eq!(*lock(&order), vec![0, 1, 2, 3]);
    }

    #[test]
    fn wait_histogram_separates_fast_and_slow_acquires() {
        let gate = FairGate::new(1);
        {
            let _p = gate.acquire(); // uncontended: ≤ 1 ms bucket
        }
        let blocker = gate.acquire();
        let gate2 = gate.clone();
        let waiter = std::thread::spawn(move || {
            let _p = gate2.acquire(); // blocked ≥ 20 ms
        });
        std::thread::sleep(Duration::from_millis(25));
        drop(blocker);
        waiter.join().unwrap();
        let hist = gate.wait_histogram();
        assert_eq!(hist.iter().sum::<u64>(), 3);
        assert!(hist[0] >= 1, "uncontended acquires land in bucket 0");
        assert!(
            hist[2..].iter().sum::<u64>() >= 1,
            "the blocked acquire must land in a ≥ 10 ms bucket: {hist:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_panics() {
        FairGate::new(0);
    }
}
