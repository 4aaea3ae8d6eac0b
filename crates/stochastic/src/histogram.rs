//! Histograms: the paper's figures 1, 3, 5, and 10 are all histograms of
//! measured values (runtimes, bandwidth, CPU load). This module provides the
//! binning, normalized-density view, and ASCII rendering used by the figure
//! harness.

use serde::{Deserialize, Serialize};

/// A fixed-width-bin histogram over a closed range.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty: [{lo}, {hi}]");
        Self {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Builds a histogram spanning the data's own min..max range.
    /// Returns `None` if the data is empty or degenerate (all equal).
    pub fn from_data(data: &[f64], bins: usize) -> Option<Self> {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in data {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if !lo.is_finite() || !hi.is_finite() || hi <= lo {
            return None;
        }
        let mut h = Self::new(lo, hi, bins);
        h.extend(data.iter().copied());
        Some(h)
    }

    /// Adds one observation. Out-of-range observations count towards the
    /// total but no bin, and do not panic — production traces contain
    /// outliers.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo || x > self.hi {
            return;
        }
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        let mut idx = ((x - self.lo) / w) as usize;
        if idx >= self.counts.len() {
            idx = self.counts.len() - 1; // x == hi lands in the last bin
        }
        self.counts[idx] += 1;
    }

    /// Adds every observation from an iterator.
    pub fn extend(&mut self, data: impl IntoIterator<Item = f64>) {
        for x in data {
            self.push(x);
        }
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// The center of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// All raw counts.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations pushed (including out-of-range ones).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of all observations landing in bin `i` (a probability mass).
    pub fn mass(&self, i: usize) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.counts[i] as f64 / self.total as f64
        }
    }

    /// Percentage-of-values view (`mass * 100`), matching the paper's y-axes
    /// ("Percentage of values equal to X").
    pub fn percent(&self, i: usize) -> f64 {
        self.mass(i) * 100.0
    }

    /// Renders an ASCII bar chart, one row per bin, widest bar `width` chars.
    pub fn render_ascii(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut s = String::new();
        for (i, &c) in self.counts.iter().enumerate() {
            let bar = (c as f64 / max as f64 * width as f64).round() as usize;
            s.push_str(&format!(
                "{:>10.3} | {:<width$} {:>6} ({:5.1}%)\n",
                self.bin_center(i),
                "#".repeat(bar),
                c,
                self.percent(i),
                width = width
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_edges() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        assert_eq!(h.bins(), 5);
        assert_eq!(h.bin_width(), 2.0);
        assert_eq!(h.bin_center(0), 1.0);
        assert_eq!(h.bin_center(4), 9.0);
        h.push(0.0);
        h.push(1.99);
        h.push(2.0);
        h.push(10.0); // boundary lands in last bin
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[4], 1);
    }

    #[test]
    fn out_of_range_is_tallied_not_dropped_silently() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.push(-0.5);
        h.push(1.5);
        h.push(0.5);
        assert_eq!(h.total(), 3);
        assert_eq!(h.counts(), [0, 1]);
        // Mass accounts for the outliers in the denominator.
        assert!((h.mass(0) + h.mass(1) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn from_data_spans_range() {
        let data = [3.0, 7.0, 5.0, 4.0];
        let h = Histogram::from_data(&data, 4).unwrap();
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts().iter().sum::<u64>(), 4);
        assert!(Histogram::from_data(&[], 4).is_none());
        assert!(Histogram::from_data(&[2.0, 2.0], 4).is_none());
    }

    #[test]
    fn cdf_reaches_100_percent() {
        let mut h = Histogram::new(0.0, 1.0, 10);
        h.extend((0..100).map(|i| i as f64 / 100.0));
        let cdf: Vec<f64> = (0..h.bins())
            .scan(0.0, |acc, i| {
                *acc += h.percent(i);
                Some(*acc)
            })
            .collect();
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 100.0).abs() < 1e-9);
        // Monotone non-decreasing.
        for w in cdf.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn density_integrates_to_one_without_outliers() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).fract()).collect();
        let h = Histogram::from_data(&data, 20).unwrap();
        let integral: f64 = (0..h.bins()).map(|i| h.mass(i)).sum();
        assert!((integral - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ascii_render_has_one_row_per_bin() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.2, 0.6, 0.9]);
        let art = h.render_ascii(20);
        assert_eq!(art.lines().count(), 4);
    }
}
