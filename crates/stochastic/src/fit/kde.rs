//! Gaussian kernel density estimation, used by the mode detector to find
//! the peaks and valleys of load histograms like the paper's Figures 5
//! and 10.

use crate::special::std_normal_pdf;
use crate::stats::{quantile, Summary};

/// A Gaussian KDE over a fixed sample.
#[derive(Debug, Clone)]
pub(crate) struct Kde {
    data: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Builds a KDE with Silverman's rule-of-thumb bandwidth
    /// `0.9 * min(sd, IQR/1.34) * n^(-1/5)`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn new(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "KDE needs data");
        let s = Summary::from_slice(data);
        let iqr = quantile(data, 0.75).unwrap_or(0.0) - quantile(data, 0.25).unwrap_or(0.0);
        let spread = if iqr > 0.0 {
            s.sd().min(iqr / 1.34)
        } else {
            s.sd()
        };
        let bw = if spread > 0.0 {
            0.9 * spread * (data.len() as f64).powf(-0.2)
        } else {
            // Degenerate data: any positive bandwidth gives a point bump.
            1e-9_f64.max(s.mean().abs() * 1e-9)
        };
        Self::with_bandwidth(data, bw.max(f64::MIN_POSITIVE))
    }

    /// Builds a KDE with an explicit bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `bandwidth <= 0`.
    pub(crate) fn with_bandwidth(data: &[f64], bandwidth: f64) -> Self {
        assert!(!data.is_empty(), "KDE needs data");
        assert!(bandwidth > 0.0, "KDE bandwidth must be positive");
        Self {
            data: data.to_vec(),
            bandwidth,
        }
    }

    /// Density estimate at `x`.
    pub(crate) fn density(&self, x: f64) -> f64 {
        let h = self.bandwidth;
        let sum: f64 = self
            .data
            .iter()
            .map(|&xi| std_normal_pdf((x - xi) / h))
            .sum();
        sum / (self.data.len() as f64 * h)
    }

    /// Evaluates the density on a uniform grid of `n` points over
    /// `[lo, hi]`, returning `(x, density)` pairs.
    pub fn grid(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2 && hi > lo);
        let step = (hi - lo) / (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = lo + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }

    /// Local maxima of the gridded density — candidate modes. Peaks below
    /// `min_height` times the global maximum are ignored as noise.
    pub(crate) fn peaks(&self, lo: f64, hi: f64, n: usize, min_height: f64) -> Vec<f64> {
        let g = self.grid(lo, hi, n);
        let max_d = g.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mut out = Vec::new();
        for w in g.windows(3) {
            let [(_, d0), (x1, d1), (_, d2)] = [w[0], w[1], w[2]];
            if d1 > d0 && d1 >= d2 && d1 >= min_height * max_d {
                out.push(x1);
            }
        }
        out
    }

    /// The minimum-density point between `a` and `b` — the valley used to
    /// split modal data.
    pub(crate) fn valley(&self, a: f64, b: f64, n: usize) -> f64 {
        assert!(b > a && n >= 2);
        let g = self.grid(a, b, n);
        g.iter()
            .min_by(|p, q| p.1.total_cmp(&q.1))
            .map_or(a, |&(x, _)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::fit::{modal_samples, FIGURE5_MODES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_integrates_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Normal::new(0.0, 1.0).sample_n(&mut rng, 500);
        let kde = Kde::new(&data);
        let g = kde.grid(-6.0, 6.0, 1200);
        let step = 12.0 / 1199.0;
        let integral: f64 = g.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn unimodal_data_gives_one_peak() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Normal::new(5.0, 0.5).sample_n(&mut rng, 2000);
        let kde = Kde::new(&data);
        let peaks = kde.peaks(3.0, 7.0, 400, 0.2);
        assert_eq!(peaks.len(), 1, "peaks {peaks:?}");
        assert!((peaks[0] - 5.0).abs() < 0.2);
    }

    #[test]
    fn trimodal_load_gives_three_peaks() {
        // Figure 5's regime.
        let data = modal_samples(&FIGURE5_MODES, 3, 6000);
        let kde = Kde::new(&data);
        let peaks = kde.peaks(0.0, 1.2, 600, 0.1);
        assert_eq!(peaks.len(), 3, "peaks {peaks:?}");
        assert!((peaks[0] - 0.33).abs() < 0.06);
        assert!((peaks[1] - 0.49).abs() < 0.06);
        assert!((peaks[2] - 0.94).abs() < 0.06);
    }

    #[test]
    fn valley_lies_between_modes() {
        let data = modal_samples(&[(0.5, 0.2, 0.03), (0.5, 0.8, 0.03)], 4, 4000);
        let kde = Kde::new(&data);
        let v = kde.valley(0.2, 0.8, 300);
        assert!(v > 0.3 && v < 0.7, "valley {v}");
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let kde = Kde::with_bandwidth(&[1.0, 2.0], 0.5);
        assert_eq!(kde.bandwidth, 0.5);
    }

    #[test]
    #[should_panic]
    fn empty_data_panics() {
        Kde::new(&[]);
    }
}
