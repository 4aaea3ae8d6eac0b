//! Deterministic random-variate helpers shared by the simulator's
//! generators. Everything takes an explicit `RngCore` so whole experiments
//! replay bit-for-bit from a seed, generic over it so a stream that owns a
//! concrete generator calls it directly.

use rand::RngCore;

/// A uniform draw in `[0, 1)` with 53 bits of precision.
pub fn uniform01<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    const SCALE: f64 = 1.110_223_024_625_156_5e-16; // 2^-53
    (rng.next_u64() >> 11) as f64 * SCALE
}

/// An exponential draw with the given rate (mean `1/rate`), for Poisson
/// arrivals and session lifetimes.
///
/// # Panics
///
/// Panics unless `rate > 0`.
pub(crate) fn exponential<R: RngCore + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u = loop {
        let u = uniform01(rng);
        if u < 1.0 {
            break u;
        }
    };
    -(1.0 - u).ln() / rate
}

/// An index draw weighted by `weights` (need not be normalized).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub(crate) fn weighted_index<R: RngCore + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "weighted_index needs weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must sum to a positive value");
    let mut u = uniform01(rng) * total;
    for (i, &w) in weights.iter().enumerate() {
        if u < w {
            return i;
        }
        u -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A uniform draw in `[lo, hi)`.
    fn uniform(rng: &mut dyn RngCore, lo: f64, hi: f64) -> f64 {
        assert!(hi >= lo, "uniform range inverted: [{lo}, {hi})");
        lo + (hi - lo) * uniform01(rng)
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            let x = uniform(&mut rng, 3.0, 7.0);
            assert!((3.0..7.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| exponential(&mut rng, 0.25)).sum();
        assert!((sum / n as f64 - 4.0).abs() < 0.1);
    }

    #[test]
    fn weighted_index_proportions() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&mut rng, &[1.0, 2.0, 1.0])] += 1;
        }
        let total = 30_000f64;
        assert!((counts[0] as f64 / total - 0.25).abs() < 0.02);
        assert!((counts[1] as f64 / total - 0.50).abs() < 0.02);
        assert!((counts[2] as f64 / total - 0.25).abs() < 0.02);
    }

    #[test]
    #[should_panic]
    fn exponential_rejects_zero_rate() {
        let mut rng = StdRng::seed_from_u64(4);
        exponential(&mut rng, 0.0);
    }
}
