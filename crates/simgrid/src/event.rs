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
pub(crate) struct EventQueue<T> {
    heap: BinaryHeap<Scheduled<T>>,
    seq: u64,
    now: f64,
}

impl<T> EventQueue<T> {
    /// An empty queue with the clock at zero.
    pub(crate) fn new() -> Self {
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
    pub(crate) fn schedule(&mut self, time: f64, payload: T) {
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
    pub(crate) fn pop(&mut self) -> Option<(f64, T)> {
        self.heap.pop().map(|e| {
            self.now = e.time;
            (e.time, e.payload)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..100)) {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(t, i);
            }
            let mut prev = f64::NEG_INFINITY;
            let mut count = 0;
            while let Some((t, _)) = q.pop() {
                prop_assert!(t >= prev);
                prev = t;
                count += 1;
            }
            prop_assert_eq!(count, times.len());
        }

        #[test]
        fn queue_fifo_for_equal_times(n in 1usize..50) {
            let mut q = EventQueue::new();
            for i in 0..n {
                q.schedule(1.0, i);
            }
            for expect in 0..n {
                let (_, got) = q.pop().unwrap();
                prop_assert_eq!(got, expect);
            }
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
        assert_eq!(q.now, 0.0);
        q.pop();
        assert_eq!(q.now, 5.0);
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
                q.schedule(t + 1.0, v + 1);
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
}
