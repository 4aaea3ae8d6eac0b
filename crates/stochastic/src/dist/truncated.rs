//! The truncated normal distribution.
//!
//! CPU availability lives in `(0, 1]`: summarizing a load mode as a plain
//! normal assigns probability to impossible values once the mode sits near
//! an endpoint (the paper's 0.94 top mode, for instance). The truncated
//! normal is the honest version of the same summary, and quantifies how
//! much the untruncated approximation distorts moments near a boundary.

use super::{uniform01_open, Distribution, Normal};
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A normal restricted to `[lo, hi]` and renormalized.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub(crate) struct TruncatedNormal {
    parent: Normal,
    lo: f64,
    hi: f64,
    /// `Phi(alpha)` at the lower bound (cached).
    cdf_lo: f64,
    /// `Phi(beta)` at the upper bound (cached).
    cdf_hi: f64,
}

impl TruncatedNormal {
    /// Creates a normal `N(mu, sigma^2)` truncated to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo`, `sigma <= 0`, or the parent leaves
    /// (numerically) zero mass in the interval.
    pub fn new(mu: f64, sigma: f64, lo: f64, hi: f64) -> Self {
        assert!(hi > lo, "truncation interval must be non-empty");
        assert!(sigma > 0.0, "truncated normal needs positive sigma");
        let parent = Normal::new(mu, sigma);
        let cdf_lo = std_normal_cdf((lo - mu) / sigma);
        let cdf_hi = std_normal_cdf((hi - mu) / sigma);
        assert!(
            cdf_hi - cdf_lo > 1e-12,
            "no probability mass in [{lo}, {hi}] for N({mu}, {sigma}^2)"
        );
        Self {
            parent,
            lo,
            hi,
            cdf_lo,
            cdf_hi,
        }
    }

    /// A load-shaped truncation to `(0, 1]` (numerically `[1e-9, 1]`).
    pub fn load(mu: f64, sigma: f64) -> Self {
        Self::new(mu, sigma, 1e-9, 1.0)
    }

    /// Mass the parent places inside the interval.
    pub(crate) fn retained_mass(&self) -> f64 {
        self.cdf_hi - self.cdf_lo
    }

    fn z(&self, x: f64) -> f64 {
        (x - self.parent.mu()) / self.parent.sigma()
    }
}

impl Distribution for TruncatedNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.lo || x > self.hi {
            return 0.0;
        }
        std_normal_pdf(self.z(x)) / (self.parent.sigma() * self.retained_mass())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < self.lo {
            0.0
        } else if x >= self.hi {
            1.0
        } else {
            (std_normal_cdf(self.z(x)) - self.cdf_lo) / self.retained_mass()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
        let q = self.cdf_lo + p * self.retained_mass();
        self.parent.mu() + self.parent.sigma() * std_normal_quantile(q)
    }

    /// Closed-form truncated-normal mean:
    /// `mu + sigma * (phi(alpha) - phi(beta)) / Z`.
    fn mean(&self) -> f64 {
        let alpha = self.z(self.lo);
        let beta = self.z(self.hi);
        let zmass = self.retained_mass();
        self.parent.mu()
            + self.parent.sigma() * (std_normal_pdf(alpha) - std_normal_pdf(beta)) / zmass
    }

    /// Closed-form truncated-normal variance.
    fn variance(&self) -> f64 {
        let alpha = self.z(self.lo);
        let beta = self.z(self.hi);
        let zmass = self.retained_mass();
        let (pa, pb) = (std_normal_pdf(alpha), std_normal_pdf(beta));
        let term1 = (alpha * pa - beta * pb) / zmass;
        let term2 = (pa - pb) / zmass;
        (self.parent.sigma().powi(2) * (1.0 + term1 - term2 * term2)).max(0.0)
    }

    /// Inverse-CDF sampling (rejection would stall for tight tails).
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform01_open(rng);
        self.quantile(u).clamp(self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interior_truncation_barely_changes_moments() {
        // Mode 0.48 sd 0.025: bounds are 19 sigma away.
        let t = TruncatedNormal::load(0.48, 0.025);
        assert!((t.mean() - 0.48).abs() < 1e-9);
        assert!((t.variance() - 0.025f64.powi(2)).abs() < 1e-9);
        assert!((t.retained_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn boundary_mode_shifts_mean_inward() {
        // Top mode 0.94 with a fat sd 0.1: the upper bound bites.
        let t = TruncatedNormal::load(0.94, 0.1);
        assert!(t.mean() < 0.94, "mean {}", t.mean());
        assert!(t.variance() < 0.01, "variance must shrink");
    }

    #[test]
    fn pdf_zero_outside_bounds() {
        let t = TruncatedNormal::new(0.0, 1.0, -1.0, 1.0);
        assert_eq!(t.pdf(-1.5), 0.0);
        assert_eq!(t.pdf(1.5), 0.0);
        assert!(t.pdf(0.0) > Normal::standard().pdf(0.0));
    }

    #[test]
    fn cdf_endpoints_and_monotonicity() {
        let t = TruncatedNormal::new(5.0, 2.0, 4.0, 7.0);
        assert_eq!(t.cdf(3.9), 0.0);
        assert_eq!(t.cdf(7.0), 1.0);
        let mut prev = 0.0;
        for i in 0..=30 {
            let x = 4.0 + 3.0 * i as f64 / 30.0;
            let c = t.cdf(x);
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let t = TruncatedNormal::new(0.5, 0.3, 0.0, 1.0);
        for i in 1..20 {
            let p = i as f64 / 20.0;
            let x = t.quantile(p);
            assert!((t.cdf(x) - p).abs() < 1e-9, "p={p}");
            assert!((0.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn sampling_matches_closed_form_moments() {
        let t = TruncatedNormal::new(0.9, 0.15, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = Summary::new();
        for _ in 0..50_000 {
            let x = t.sample(&mut rng);
            assert!((0.0..=1.0).contains(&x));
            s.push(x);
        }
        assert!(
            (s.mean() - t.mean()).abs() < 0.003,
            "{} vs {}",
            s.mean(),
            t.mean()
        );
        assert!((s.variance() - t.variance()).abs() < 0.001);
    }

    #[test]
    fn one_sided_truncation_skews() {
        // Cutting the upper tail leaves a left skew.
        let t = TruncatedNormal::new(1.0, 0.2, 0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        let mut s = Summary::new();
        for _ in 0..50_000 {
            s.push(t.sample(&mut rng));
        }
        assert!(s.skewness() < -0.3, "skew {}", s.skewness());
    }

    #[test]
    #[should_panic]
    fn rejects_empty_interval() {
        TruncatedNormal::new(0.0, 1.0, 2.0, 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_zero_mass() {
        TruncatedNormal::new(0.0, 0.001, 50.0, 51.0);
    }
}
