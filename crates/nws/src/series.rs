//! Bounded time series of resource measurements.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::VecDeque;

/// A bounded series of `(timestamp, value)` measurements, oldest first.
///
/// The NWS keeps a sliding history per resource; when the bound is reached
/// the oldest measurement is dropped.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    capacity: usize,
    times: VecDeque<f64>,
    values: VecDeque<f64>,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` measurements.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be positive");
        Self {
            capacity,
            times: VecDeque::with_capacity(capacity),
            values: VecDeque::with_capacity(capacity),
        }
    }

    /// Appends a measurement and returns whether the oldest one was
    /// dropped to make room. Timestamps must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics on a time regression or non-finite input.
    pub fn push(&mut self, t: f64, v: f64) -> bool {
        assert!(t.is_finite() && v.is_finite(), "measurement must be finite");
        if let Some(&last) = self.times.back() {
            assert!(t >= last, "time regression: {t} < {last}");
        }
        let evict = self.times.len() == self.capacity;
        if evict {
            self.times.pop_front();
            self.values.pop_front();
        }
        self.times.push_back(t);
        self.values.push_back(v);
        evict
    }

    /// Number of retained measurements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The most recent measurement.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.times.back(), self.values.back()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Values oldest-first as a contiguous vector.
    pub fn values(&self) -> Vec<f64> {
        self.values.iter().copied().collect()
    }

    /// Values oldest-first as the ring's two runs (the second is empty
    /// when the ring has not wrapped): a view, no copy.
    pub(crate) fn value_slices(&self) -> (&[f64], &[f64]) {
        self.values.as_slices()
    }

    /// Values oldest-first as one slice, borrowed when the ring is
    /// contiguous — which a [`crate::Sensor`] restores after every poll
    /// batch — and copied only when it has wrapped.
    pub(crate) fn contiguous_values(&self) -> Cow<'_, [f64]> {
        match self.value_slices() {
            (all, []) => Cow::Borrowed(all),
            _ => Cow::Owned(self.values()),
        }
    }

    /// Rotates the ring so the values form one slice, and returns it.
    pub(crate) fn make_contiguous(&mut self) -> &[f64] {
        self.values.make_contiguous()
    }

    /// The most recent `n` values, oldest-first (fewer if not available),
    /// as a view: no copy.
    pub(crate) fn recent_values(&self, n: usize) -> impl Iterator<Item = f64> + '_ {
        let start = self.values.len().saturating_sub(n);
        self.values.range(start..).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn recent(s: &TimeSeries, n: usize) -> Vec<f64> {
        s.recent_values(n).collect()
    }

    impl TimeSeries {
        /// Timestamps oldest-first: the poll schedule these tests and the
        /// sensor's hold `Sensor::poll_until_with` to.
        pub(crate) fn times(&self) -> Vec<f64> {
            self.times.iter().copied().collect()
        }
    }

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new(10);
        assert!(s.is_empty());
        s.push(0.0, 1.0);
        s.push(5.0, 2.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last(), Some((5.0, 2.0)));
        assert_eq!(s.values(), vec![1.0, 2.0]);
        assert_eq!(s.times(), vec![0.0, 5.0]);
    }

    #[test]
    fn bounded_retention_drops_oldest() {
        let mut s = TimeSeries::new(3);
        for i in 0..5 {
            s.push(i as f64, i as f64 * 10.0);
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.values(), vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn recent_window() {
        let mut s = TimeSeries::new(10);
        for i in 0..6 {
            s.push(i as f64, i as f64);
        }
        assert_eq!(recent(&s, 3), vec![3.0, 4.0, 5.0]);
        assert_eq!(recent(&s, 100).len(), 6);
    }

    #[test]
    fn views_agree_with_copies_when_the_ring_wraps() {
        let mut s = TimeSeries::new(4);
        for i in 0..7 {
            s.push(i as f64, i as f64);
        }
        let (head, tail) = s.value_slices();
        assert!(!tail.is_empty(), "seven pushes into four slots wrap");
        assert_eq!([head, tail].concat(), s.values());
        assert!(matches!(s.contiguous_values(), Cow::Owned(_)));
        assert_eq!(*s.contiguous_values(), s.values());
        assert_eq!(recent(&s, 3), vec![4.0, 5.0, 6.0]);
        assert_eq!(s.make_contiguous(), [3.0, 4.0, 5.0, 6.0]);
        assert!(matches!(s.contiguous_values(), Cow::Borrowed(_)));
        assert_eq!(s.times(), vec![3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut s = TimeSeries::new(4);
        s.push(1.0, 1.0);
        s.push(1.0, 2.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_time_regression() {
        let mut s = TimeSeries::new(4);
        s.push(2.0, 1.0);
        s.push(1.0, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_capacity() {
        TimeSeries::new(0);
    }

    proptest! {
        #[test]
        fn recent_is_suffix(h in proptest::collection::vec(0.0f64..1.0, 2..120), k in 1usize..40) {
            let mut s = TimeSeries::new(h.len());
            for (i, &v) in h.iter().enumerate() {
                s.push(i as f64, v);
            }
            let expect: Vec<f64> = h[h.len().saturating_sub(k)..].to_vec();
            prop_assert_eq!(recent(&s, k), expect);
        }
    }
}
