//! The normal distribution — the family the paper uses to summarize "many
//! real phenomena" (Section 2.1) and the one closed under the linear
//! combinations that drive the arithmetic rules of Table 2.

use super::{uniform01, uniform01_open, Distribution};
use crate::special::{std_normal_cdf, std_normal_pdf, std_normal_quantile};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// A (possibly degenerate) normal distribution `N(mu, sigma^2)`.
///
/// `sigma == 0` is allowed and models a point value: all mass at `mu`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates `N(mu, sigma^2)`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "normal mean must be finite");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "normal sigma must be finite and non-negative, got {sigma}"
        );
        Self { mu, sigma }
    }

    /// Mean parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Standard-deviation parameter.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Whether this is the degenerate point distribution.
    pub(crate) fn is_degenerate(&self) -> bool {
        self.sigma == 0.0 // tidy:allow(PP004): degenerate distribution has exactly zero sigma
    }

    /// Marsaglia polar (Box–Muller variant) sampling: the one sampling
    /// body, generic over the generator so a caller that owns a concrete
    /// one (the load streams' `StdRng`) reaches it without a virtual call
    /// per uniform; [`Distribution::sample`] delegates here. The trait is
    /// stateless, so the second variate of each `polar_pair` is dropped
    /// here and nothing is remembered between calls; the Monte-Carlo
    /// `Max` drives `polar_pair` itself, keeps both variates, and keeps
    /// each chunk's whole stream for the next maximum with that seed.
    pub fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.is_degenerate() {
            return self.mu;
        }
        let (u, _, f) = polar_pair(rng);
        self.mu + self.sigma * u * f
    }
}

impl Distribution for Normal {
    fn pdf(&self, x: f64) -> f64 {
        // tidy:allow(PP004): degenerate distribution has exactly zero sigma
        if self.sigma == 0.0 {
            return if x == self.mu { f64::INFINITY } else { 0.0 };
        }
        std_normal_pdf((x - self.mu) / self.sigma) / self.sigma
    }

    fn cdf(&self, x: f64) -> f64 {
        // tidy:allow(PP004): degenerate distribution has exactly zero sigma
        if self.sigma == 0.0 {
            return if x >= self.mu { 1.0 } else { 0.0 };
        }
        std_normal_cdf((x - self.mu) / self.sigma)
    }

    fn quantile(&self, p: f64) -> f64 {
        // tidy:allow(PP004): degenerate distribution has exactly zero sigma
        if self.sigma == 0.0 {
            assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
            return self.mu;
        }
        self.mu + self.sigma * std_normal_quantile(p)
    }

    fn mean(&self) -> f64 {
        self.mu
    }

    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// [`Normal::draw`], through the object-safe trait.
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        self.draw(rng)
    }
}

/// One accepted point of Marsaglia's polar method: `(u, v, f)` with
/// `u * f` and `v * f` two independent standard-normal variates. The
/// factor comes back unmultiplied because [`Normal::draw`] scales `u`
/// by `sigma` before `f`, and its stream is pinned to the bit. The
/// Monte-Carlo `Max` stores the products `u * f`, `v * f` in draw order,
/// so a stream read back from its per-thread memo is the one drawn.
pub(crate) fn polar_pair<R: RngCore + ?Sized>(rng: &mut R) -> (f64, f64, f64) {
    loop {
        let u = 2.0 * uniform01(rng) - 1.0;
        let v = 2.0 * uniform01(rng) - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return (u, v, (-2.0 * s.ln() / s).sqrt());
        }
    }
}

/// A standard-normal draw, for callers that only need the raw variate.
pub(crate) fn sample_std_normal<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    // Quantile-transform: slower than polar but branch-free; used by the
    // lognormal sampler where correlated pair consumption matters.
    std_normal_quantile(uniform01_open(rng))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pdf_peak_at_mean() {
        let n = Normal::new(5.0, 2.0);
        assert!(n.pdf(5.0) > n.pdf(4.0));
        assert!(n.pdf(5.0) > n.pdf(6.0));
        assert!((n.pdf(5.0) - 0.199_471_140).abs() < 1e-6);
    }

    #[test]
    fn cdf_median_is_half() {
        let n = Normal::new(-3.0, 0.5);
        assert!((n.cdf(-3.0) - 0.5).abs() < 1e-12);
        assert!((n.quantile(0.5) + 3.0).abs() < 1e-9);
    }

    #[test]
    fn two_sigma_covers_95_percent() {
        let n = Normal::new(12.0, 0.3);
        let cover = n.mass_between(12.0 - 0.6, 12.0 + 0.6);
        assert!((cover - 0.9545).abs() < 1e-3);
    }

    #[test]
    fn degenerate_point_behaviour() {
        let p = Normal::new(4.0, 0.0);
        assert!(p.is_degenerate());
        assert_eq!(p.cdf(3.999), 0.0);
        assert_eq!(p.cdf(4.0), 1.0);
        assert_eq!(p.quantile(0.37), 4.0);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(p.sample(&mut rng), 4.0);
        assert_eq!(p.pdf(5.0), 0.0);
    }

    #[test]
    fn sampling_matches_moments() {
        let n = Normal::new(10.0, 2.5);
        let mut rng = StdRng::seed_from_u64(42);
        let mut s = Summary::new();
        for _ in 0..50_000 {
            s.push(n.sample(&mut rng));
        }
        assert!((s.mean() - 10.0).abs() < 0.05);
        assert!((s.sd() - 2.5).abs() < 0.05);
        // Normal has ~zero skew and excess kurtosis.
        assert!(s.skewness().abs() < 0.05);
        assert!(s.kurtosis().abs() < 0.1);
    }

    #[test]
    fn sample_stream_is_pinned() {
        // `structural::monte_carlo`, the modal fixtures, every simgrid digest
        // and every `horizon_oracle` string hang off this stream: it must not
        // move.
        let n = Normal::new(10.0, 2.5);
        let mut rng = StdRng::seed_from_u64(42);
        let draws: Vec<u64> = (0..8).map(|_| n.sample(&mut rng).to_bits()).collect();
        assert_eq!(
            draws,
            [
                0x4028_e830_9fdc_8acb,
                0x402a_b39d_e818_0cf3,
                0x401e_5b98_72f1_5754,
                0x4024_fb2b_825d_cc5f,
                0x4025_03b9_126c_a06c,
                0x4011_95b1_2eee_7b33,
                0x4030_23de_86b9_f8ba,
                0x4023_6335_bd3e_0288,
            ],
            "{draws:#x?}"
        );
    }

    #[test]
    fn both_halves_of_a_polar_pair_are_standard_normal_and_uncorrelated() {
        use crate::dist::{ks_p_value, ks_statistic, Empirical};
        let mut rng = StdRng::seed_from_u64(42);
        let pairs = 100_000;
        // The order a consumer of both variates sees: first, second, first…
        let stream: Vec<f64> = (0..pairs)
            .flat_map(|_| {
                let (u, v, f) = polar_pair(&mut rng);
                [u * f, v * f]
            })
            .collect();
        for first in [0, 1] {
            let half: Vec<f64> = stream.iter().skip(first).step_by(2).copied().collect();
            let s = Summary::from_slice(&half);
            assert!(s.mean().abs() < 0.05, "mean {}", s.mean());
            assert!((s.sd() - 1.0).abs() < 0.05, "sd {}", s.sd());
            assert!(s.skewness().abs() < 0.05, "skew {}", s.skewness());
            assert!(s.kurtosis().abs() < 0.1, "kurtosis {}", s.kurtosis());
            let d = ks_statistic(&Empirical::new(&half), &Normal::new(0.0, 1.0));
            assert!(ks_p_value(d, pairs) > 0.01, "KS distance {d}");
        }
        let lag1 = crate::stats::autocorrelation(&stream, 1).unwrap();
        assert!(lag1.abs() < 0.01, "lag-1 correlation {lag1}");
    }

    #[test]
    fn sampling_empirical_two_sigma_coverage() {
        let n = Normal::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        let mut inside = 0u32;
        let total = 20_000;
        for _ in 0..total {
            let x = n.sample(&mut rng);
            if (-2.0..=2.0).contains(&x) {
                inside += 1;
            }
        }
        let frac = inside as f64 / total as f64;
        assert!((frac - 0.9545).abs() < 0.01, "coverage {frac}");
    }

    #[test]
    fn quantile_transform_sampler_sane() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Summary::new();
        for _ in 0..20_000 {
            s.push(sample_std_normal(&mut rng));
        }
        assert!(s.mean().abs() < 0.03);
        assert!((s.sd() - 1.0).abs() < 0.03);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }
}
