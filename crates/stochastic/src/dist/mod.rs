//! Distribution machinery.
//!
//! "Every stochastic value is associated with a distribution, that is, a
//! function that gives the probability associated with each value in its
//! range" (paper, Section 2.1). This module provides the families the paper
//! works with:
//!
//! * [`Normal`] — the workhorse approximation (Section 2.1),
//! * [`LogNormal`] / [`LongTailed`] — long-tailed data such as shared
//!   ethernet bandwidth (Section 2.1.1),
//! * [`Mixture`] — modal data such as production CPU load (Section 2.1.2),
//! * [`Empirical`] — raw measured samples, for ground truth comparisons.

mod empirical;
mod longtail;
#[cfg(test)]
mod mixture;
mod normal;
#[cfg(test)]
mod truncated;

pub(crate) use empirical::ad_normality;
pub use empirical::{ks_p_value, ks_statistic, Empirical};
pub use longtail::{LogNormal, LongTailed, TailDirection};
#[cfg(test)]
pub(crate) use mixture::{Mixture, MixtureComponent};
pub(crate) use normal::polar_pair;
pub use normal::Normal;
#[cfg(test)]
pub(crate) use truncated::TruncatedNormal;

use rand::RngCore;

/// A one-dimensional continuous distribution.
///
/// Object-safe so mixtures and fitters can work over heterogeneous
/// families; sampling draws raw 53-bit uniforms from any [`RngCore`].
pub trait Distribution {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative probability `P(X <= x)`.
    fn cdf(&self, x: f64) -> f64;

    /// The `p`-quantile (inverse CDF). `p` must lie in `(0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Distribution mean.
    fn mean(&self) -> f64;

    /// Distribution variance.
    fn variance(&self) -> f64;

    /// Standard deviation.
    fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Draws one sample.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Draws `n` samples into a fresh vector.
    fn sample_n(&self, rng: &mut dyn RngCore, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }

    /// Probability mass on the closed interval `[lo, hi]`.
    fn mass_between(&self, lo: f64, hi: f64) -> f64 {
        (self.cdf(hi) - self.cdf(lo)).max(0.0)
    }
}

/// A uniform draw in `[0, 1)` with 53 bits of precision, straight from the
/// raw generator (avoids any dependence on sized `Rng` adapters).
pub(crate) fn uniform01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // 2^-53
    const SCALE: f64 = 1.110_223_024_625_156_5e-16;
    (rng.next_u64() >> 11) as f64 * SCALE
}

/// A uniform draw in the open interval `(0, 1)`, for quantile-transform
/// sampling that must not hit the endpoints.
pub(crate) fn uniform01_open(rng: &mut dyn RngCore) -> f64 {
    loop {
        let u = uniform01(rng);
        if u > 0.0 {
            return u;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform01_in_range_and_spread() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let u = uniform01(&mut rng);
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        assert!(lo < 0.01);
        assert!(hi > 0.99);
        assert!((sum / n as f64 - 0.5).abs() < 0.01);
    }

    #[test]
    fn mass_between_clamps_at_zero() {
        let n = Normal::new(0.0, 1.0);
        assert_eq!(n.mass_between(2.0, 1.0), 0.0);
        assert!((n.mass_between(-2.0, 2.0) - 0.9545).abs() < 1e-3);
    }
}
