//! Long-tailed distributions (paper Section 2.1.1).
//!
//! "It is often the case that characteristic system data has a threshold
//! value, and that performance varies monotonically from that point in a
//! long-tailed fashion, with the median several points below the threshold."
//!
//! The concrete example is shared-ethernet bandwidth (Figure 3): values
//! cluster just below the achievable peak with a long tail toward low
//! bandwidth under contention. We model the tail with a lognormal and allow
//! it to extend either *below* a threshold (bandwidth) or *above* one
//! (latency, runtimes).

use super::normal::sample_std_normal;
use super::Distribution;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Lognormal distribution: `ln X ~ N(mu, sigma^2)`, support `(0, inf)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the parameters of the underlying normal.
    ///
    /// # Panics
    ///
    /// Panics if `sigma <= 0` or a parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite());
        assert!(sigma > 0.0, "lognormal sigma must be positive");
        Self { mu, sigma }
    }

    /// Builds the lognormal with the given *distribution* mean and standard
    /// deviation (moment matching).
    ///
    /// # Panics
    ///
    /// Panics unless `mean > 0` and `sd > 0`.
    pub fn from_mean_sd(mean: f64, sd: f64) -> Self {
        assert!(mean > 0.0 && sd > 0.0, "lognormal moments must be positive");
        let cv2 = (sd / mean).powi(2);
        let sigma2 = (1.0 + cv2).ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// Location parameter of the underlying normal.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter of the underlying normal.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl Distribution for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        crate::special::std_normal_pdf(z) / (x * self.sigma)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        crate::special::std_normal_cdf((x.ln() - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * crate::special::std_normal_quantile(p)).exp()
    }

    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        (self.mu + self.sigma * sample_std_normal(rng)).exp()
    }
}

/// Which side of the threshold the tail extends toward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TailDirection {
    /// Values cluster near the threshold and tail off toward smaller values
    /// (shared bandwidth under contention — Figure 3).
    Below,
    /// Values cluster near the threshold and tail off toward larger values
    /// (latencies, queueing delays, loaded runtimes).
    Above,
}

/// A thresholded long-tailed distribution: `threshold ± LogNormal`.
///
/// For `TailDirection::Below`, `X = threshold - Y` with `Y` lognormal, so
/// the support is `(-inf, threshold)` and the density rises toward the
/// threshold the way the paper's bandwidth histogram does. For `Above`,
/// `X = threshold + Y`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LongTailed {
    threshold: f64,
    tail: LogNormal,
    direction: TailDirection,
}

impl LongTailed {
    /// Creates a long-tailed distribution from a threshold and the lognormal
    /// describing the distance from the threshold.
    pub fn new(threshold: f64, tail: LogNormal, direction: TailDirection) -> Self {
        assert!(threshold.is_finite());
        Self {
            threshold,
            tail,
            direction,
        }
    }

    /// Convenience: a bandwidth-style distribution clustered just below
    /// `peak`, with typical shortfall `typical_gap` and tail spread `gap_sd`.
    pub fn below(peak: f64, typical_gap: f64, gap_sd: f64) -> Self {
        Self::new(
            peak,
            LogNormal::from_mean_sd(typical_gap, gap_sd),
            TailDirection::Below,
        )
    }

    fn gap_of(&self, x: f64) -> f64 {
        match self.direction {
            TailDirection::Below => self.threshold - x,
            TailDirection::Above => x - self.threshold,
        }
    }
}

impl Distribution for LongTailed {
    fn pdf(&self, x: f64) -> f64 {
        self.tail.pdf(self.gap_of(x))
    }

    fn cdf(&self, x: f64) -> f64 {
        match self.direction {
            TailDirection::Below => 1.0 - self.tail.cdf(self.gap_of(x)),
            TailDirection::Above => self.tail.cdf(self.gap_of(x)),
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        match self.direction {
            TailDirection::Below => self.threshold - self.tail.quantile(1.0 - p),
            TailDirection::Above => self.threshold + self.tail.quantile(p),
        }
    }

    fn mean(&self) -> f64 {
        match self.direction {
            TailDirection::Below => self.threshold - self.tail.mean(),
            TailDirection::Above => self.threshold + self.tail.mean(),
        }
    }

    fn variance(&self) -> f64 {
        self.tail.variance()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let gap = self.tail.sample(rng);
        match self.direction {
            TailDirection::Below => self.threshold - gap,
            TailDirection::Above => self.threshold + gap,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn lognormal_moment_matching_round_trips() {
        let ln = LogNormal::from_mean_sd(5.0, 2.0);
        assert!((ln.mean() - 5.0).abs() < 1e-9);
        assert!((ln.variance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lognormal_median_below_mean() {
        // Right-skew: median < mean.
        let ln = LogNormal::from_mean_sd(5.0, 3.0);
        assert!(ln.quantile(0.5) < ln.mean());
    }

    #[test]
    fn lognormal_cdf_quantile_inverse() {
        let ln = LogNormal::new(1.0, 0.6);
        for i in 1..20 {
            let p = i as f64 / 20.0;
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn lognormal_sampling_moments() {
        let ln = LogNormal::from_mean_sd(2.0, 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        let mut s = Summary::new();
        for _ in 0..40_000 {
            s.push(ln.sample(&mut rng));
        }
        assert!((s.mean() - 2.0).abs() < 0.02);
        assert!((s.sd() - 0.5).abs() < 0.02);
        assert!(s.skewness() > 0.3, "lognormal should be right-skewed");
    }

    #[test]
    fn bandwidth_style_tail_is_left_skewed() {
        // Figure 3's shape: cluster just below the peak, tail toward low bw.
        let bw = LongTailed::below(6.2, 0.95, 0.8);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Summary::new();
        for _ in 0..40_000 {
            let x = bw.sample(&mut rng);
            assert!(x < 6.2);
            s.push(x);
        }
        assert!(s.skewness() < -0.3, "bandwidth tail must skew left");
        // Median sits above the mean for a left tail.
        assert!(bw.quantile(0.5) > bw.mean());
    }

    #[test]
    fn below_cdf_matches_quantile() {
        let d = LongTailed::below(6.0, 1.0, 0.7);
        for i in 1..20 {
            let p = i as f64 / 20.0;
            let x = d.quantile(p);
            assert!((d.cdf(x) - p).abs() < 1e-8, "p={p}");
        }
        // CDF is monotone increasing toward the threshold.
        assert!(d.cdf(5.9) > d.cdf(5.0));
        assert!(d.cdf(4.0) > d.cdf(2.0));
    }

    #[test]
    fn above_direction_mirrors_below() {
        // A latency-style distribution clustered just above its floor.
        let lat = LongTailed::new(1.0, LogNormal::from_mean_sd(0.5, 0.4), TailDirection::Above);
        assert!(lat.mean() > 1.0);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert!(lat.sample(&mut rng) > 1.0);
        }
    }

    #[test]
    fn normal_approximation_undercovers_long_tail() {
        // The paper's §2.1.1 point: summarizing long-tailed data as
        // mean ± 2 sd covers less than the nominal ~95% ("the normal
        // distribution is representative of 91% of the values, rather than
        // the 95% typically assumed"). The Figure-3 shape is a tight
        // cluster just below the achievable peak plus a contention tail,
        // so the two-sigma band clips a visible fraction of the tail.
        let cluster = crate::dist::Normal::new(5.7, 0.15);
        let tail = LongTailed::below(5.8, 1.8, 1.0);
        let mut rng = StdRng::seed_from_u64(21);
        let mut samples = Vec::with_capacity(50_000);
        for i in 0..50_000 {
            if i % 4 == 0 {
                samples.push(tail.sample(&mut rng));
            } else {
                samples.push(cluster.sample(&mut rng));
            }
        }
        let s = Summary::from_slice(&samples);
        let (lo, hi) = (s.mean() - 2.0 * s.sd(), s.mean() + 2.0 * s.sd());
        let inside = samples.iter().filter(|&&x| x >= lo && x <= hi).count();
        let frac = inside as f64 / samples.len() as f64;
        assert!(
            frac < 0.95 && frac > 0.80,
            "normal summary should visibly undercover a cluster+tail mix: {frac}"
        );
    }
}
