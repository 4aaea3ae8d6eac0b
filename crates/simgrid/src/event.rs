//! A small deterministic discrete-event engine.
//!
//! Drives the competing-user session workload generator (arrivals and
//! departures of other users' jobs on a shared workstation). Ties at equal
//! timestamps break by insertion order, so simulations replay exactly.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: a timestamp plus a payload.
#[derive(Debug, Clone)]
struct Scheduled<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        // total_cmp keeps Eq consistent with Ord for every bit pattern.
        self.time.total_cmp(&other.time) == Ordering::Equal && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}

impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for the max-heap: earliest time first, then lowest seq.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with deterministic FIFO tie-breaking.
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
    now: f64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Schedules `payload` at absolute time `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` is NaN or earlier than the current clock
    /// (scheduling into the past breaks causality).
    pub fn schedule(&mut self, time: f64, payload: T) {
        assert!(!time.is_nan(), "event time must not be NaN");
        assert!(
            time >= self.now,
            "cannot schedule into the past: {} < {}",
            time,
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is drained.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> EventQueue<T> {
        /// The current simulation time (the timestamp of the last popped
        /// event, or zero).
        pub(crate) fn now(&self) -> f64 {
            self.now
        }
    }

    impl<T> EventQueue<T> {
        /// Schedules `payload` at `now + delay`.
        pub(crate) fn schedule_in(&mut self, delay: f64, payload: T) {
            assert!(delay >= 0.0, "delay must be non-negative");
            self.schedule(self.now + delay, payload);
        }

        /// Peeks at the next event time without advancing the clock.
        pub(crate) fn peek_time(&self) -> Option<f64> {
            self.heap.peek().map(|e| e.time)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3.0, "c");
        q.schedule(1.0, "a");
        q.schedule(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(1.0, 1);
        q.schedule(1.0, 2);
        q.schedule(1.0, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        assert_eq!(q.now(), 0.0);
        q.pop();
        assert_eq!(q.now(), 5.0);
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(2.0, "first");
        q.pop();
        q.schedule_in(3.0, "second");
        assert_eq!(q.pop(), Some((5.0, "second")));
    }

    #[test]
    fn interleaved_scheduling_during_processing() {
        // A cascades into B: classic DES pattern.
        let mut q = EventQueue::new();
        q.schedule(1.0, 0u32);
        let mut log = Vec::new();
        while let Some((t, v)) = q.pop() {
            log.push((t, v));
            if v < 3 {
                q.schedule_in(1.0, v + 1);
            }
        }
        assert_eq!(log, vec![(1.0, 0), (2.0, 1), (3.0, 2), (4.0, 3)]);
    }

    #[test]
    #[should_panic]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(5.0, ());
        q.pop();
        q.schedule(4.0, ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(7.0, ());
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.now(), 0.0);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
