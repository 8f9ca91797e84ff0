//! The engine's master event heap.
//!
//! [`Scheduler`] is a deterministic min-heap of timestamped events with
//! FIFO tie-breaking and a tracked current time. The engine's run loop
//! pops it; every wake the task state machine, the fault plan or a
//! retry back-off schedules goes through it.
//!
//! # Determinism
//!
//! * Events at distinct master cycles fire in cycle order.
//! * Events at the **same** master cycle fire in the order they were
//!   scheduled (FIFO by a monotone sequence number).
//! * The tracked time never runs backwards: it is the max of all
//!   popped timestamps.

use camdn_common::types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic time-ordered event heap with FIFO tie-breaking and
/// a tracked current time.
///
/// Payloads are opaque; the ordering key is `(time, insertion
/// sequence)`.
///
/// ```
/// use camdn_runtime::sched::Scheduler;
///
/// let mut s = Scheduler::new();
/// s.push(10, "b");
/// s.push(5, "a");
/// s.push(10, "c");
/// assert_eq!(s.pop(), Some((5, "a")));
/// assert_eq!(s.pop(), Some((10, "b"))); // FIFO among ties
/// assert_eq!(s.now(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at master cycle 0.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Schedules `payload` at absolute master cycle `time`.
    pub fn push(&mut self, time: Cycle, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event, advancing the tracked
    /// current time. The heap never travels backwards: the tracked
    /// time is the max of all popped timestamps.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse(e)| {
            self.now = self.now.max(e.time);
            (e.time, e.payload)
        })
    }

    /// Master cycle of the latest popped event (0 before the first pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_orders_by_time_then_fifo() {
        let mut s = Scheduler::new();
        s.push(30, 3);
        s.push(10, 1);
        s.push(10, 2);
        assert_eq!(s.pop(), Some((10, 1)));
        assert_eq!(s.pop(), Some((10, 2)));
        assert_eq!(s.now(), 10);
        assert_eq!(s.pop(), Some((30, 3)));
        assert_eq!(s.now(), 30);
        assert_eq!(s.pop(), None);
    }
}
