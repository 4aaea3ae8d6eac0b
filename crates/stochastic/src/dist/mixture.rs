//! Mixtures of normals for modal data (paper Section 2.1.2).
//!
//! "For some application or system characteristics, such as CPU load, the
//! data can be viewed as several sets of data, each having its own
//! distribution" — each set is a *mode*. A production workstation's load is
//! modeled as a weighted mixture of per-mode normals, and the paper's
//! multi-modal averaging rule `P1(M1 ± SD1) + P2(M2 ± SD2) + ...` is the
//! mixture's moment summary.

use super::{uniform01, Distribution, Normal};
use crate::value::StochasticValue;
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// One mode of a mixture: a normal with an occupancy weight.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MixtureComponent {
    /// Fraction of time the data spends in this mode (`P_i`).
    pub weight: f64,
    /// The mode's distribution (`M_i ± SD_i`, stored as a normal).
    pub normal: Normal,
}

/// A finite mixture of normal modes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct Mixture {
    components: Vec<MixtureComponent>,
}

impl Mixture {
    /// Creates a mixture. Weights must be positive; they are normalized to
    /// sum to one.
    ///
    /// # Panics
    ///
    /// Panics if no component is supplied or any weight is non-positive.
    pub fn new(mut components: Vec<MixtureComponent>) -> Self {
        assert!(!components.is_empty(), "mixture needs at least one mode");
        let total: f64 = components.iter().map(|c| c.weight).sum();
        assert!(
            components.iter().all(|c| c.weight > 0.0) && total > 0.0,
            "mixture weights must be positive"
        );
        for c in &mut components {
            c.weight /= total;
        }
        Self { components }
    }

    /// Convenience constructor from `(weight, mean, sd)` triples.
    pub(crate) fn from_triples(triples: &[(f64, f64, f64)]) -> Self {
        Self::new(
            triples
                .iter()
                .map(|&(w, m, s)| MixtureComponent {
                    weight: w,
                    normal: Normal::new(m, s),
                })
                .collect(),
        )
    }

    /// The modes, weights normalized.
    pub fn components(&self) -> &[MixtureComponent] {
        &self.components
    }

    /// Number of modes.
    pub(crate) fn n_modes(&self) -> usize {
        self.components.len()
    }

    /// The paper's Section 2.1.2 multi-modal stochastic value:
    /// `sum_i P_i * (M_i ± SD_i)`, i.e. the weighted average of the modal
    /// stochastic values using the **related** scaling/addition rules, which
    /// yields mean `sum P_i M_i` and half-width `sum P_i * 2 SD_i`.
    ///
    /// Note this is the paper's *approximation*; it is narrower than the
    /// true mixture spread when the modes are far apart (between-mode
    /// variance is not counted). Compare [`moment_summary`](Self::moment_summary).
    pub(crate) fn paper_average(&self) -> StochasticValue {
        let mean: f64 = self
            .components
            .iter()
            .map(|c| c.weight * c.normal.mu())
            .sum();
        let half: f64 = self
            .components
            .iter()
            .map(|c| c.weight * 2.0 * c.normal.sigma())
            .sum();
        StochasticValue::new(mean, half)
    }

    /// The exact moment summary of the mixture: mean and ±2σ computed from
    /// the law of total variance (includes between-mode spread).
    pub(crate) fn moment_summary(&self) -> StochasticValue {
        StochasticValue::from_mean_sd(self.mean(), self.variance().sqrt())
    }

    /// The dominant mode (largest weight).
    pub(crate) fn dominant(&self) -> &MixtureComponent {
        self.components
            .iter()
            .max_by(|a, b| a.weight.total_cmp(&b.weight))
            .expect("mixture is non-empty") // tidy:allow(PP003): constructor rejects empty component lists
    }

    /// The index of the mode whose mean is nearest to `x` — used to decide
    /// which mode a running application currently sits in.
    pub(crate) fn nearest_mode(&self, x: f64) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, c) in self.components.iter().enumerate() {
            let d = (c.normal.mu() - x).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

impl Distribution for Mixture {
    fn pdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.normal.pdf(x))
            .sum()
    }

    fn cdf(&self, x: f64) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.normal.cdf(x))
            .sum()
    }

    /// Numeric inversion by bisection (mixture quantiles have no closed
    /// form). Accurate to ~1e-10 of the bracket width.
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
        // Bracket: widest component interval at 8 sigma.
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for c in &self.components {
            lo = lo.min(c.normal.mu() - 8.0 * c.normal.sigma() - 1.0);
            hi = hi.max(c.normal.mu() + 8.0 * c.normal.sigma() + 1.0);
        }
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + mid.abs()) {
                break;
            }
        }
        0.5 * (lo + hi)
    }

    fn mean(&self) -> f64 {
        self.components
            .iter()
            .map(|c| c.weight * c.normal.mu())
            .sum()
    }

    /// Law of total variance: within-mode + between-mode.
    fn variance(&self) -> f64 {
        let m = self.mean();
        self.components
            .iter()
            .map(|c| {
                let d = c.normal.mu() - m;
                c.weight * (c.normal.variance() + d * d)
            })
            .sum()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let mut u = uniform01(rng);
        for c in &self.components {
            if u < c.weight {
                return c.normal.sample(rng);
            }
            u -= c.weight;
        }
        // Floating-point slack: fall through to the last mode.
        self.components
            .last()
            .expect("mixture is non-empty") // tidy:allow(PP003): constructor rejects empty component lists
            .normal
            .sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The paper's Figure-5 tri-modal load: modes at 0.94, 0.49, 0.33.
    fn figure5_mixture() -> Mixture {
        Mixture::from_triples(&[(0.35, 0.94, 0.02), (0.40, 0.49, 0.04), (0.25, 0.33, 0.02)])
    }

    #[test]
    fn weights_normalize() {
        let m = Mixture::from_triples(&[(2.0, 0.0, 1.0), (6.0, 1.0, 1.0)]);
        assert!((m.components()[0].weight - 0.25).abs() < 1e-12);
        assert!((m.components()[1].weight - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mean_is_weighted_average() {
        let m = figure5_mixture();
        let expect = 0.35 * 0.94 + 0.40 * 0.49 + 0.25 * 0.33;
        assert!((m.mean() - expect).abs() < 1e-12);
    }

    #[test]
    fn pdf_is_multimodal() {
        let m = figure5_mixture();
        // Each mode center is a local maximum relative to midpoints between modes.
        for &c in &[0.33, 0.49, 0.94] {
            assert!(m.pdf(c) > m.pdf(0.70), "mode at {c} should beat the valley");
        }
    }

    #[test]
    fn cdf_monotone_and_bounded() {
        let m = figure5_mixture();
        let mut prev = 0.0;
        for i in 0..=100 {
            let x = i as f64 / 100.0 * 1.2;
            let c = m.cdf(x);
            assert!((0.0..=1.0).contains(&c));
            assert!(c >= prev - 1e-12);
            prev = c;
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let m = figure5_mixture();
        for i in 1..20 {
            let p = i as f64 / 20.0;
            let x = m.quantile(p);
            assert!((m.cdf(x) - p).abs() < 1e-8, "p={p}");
        }
    }

    #[test]
    fn sampling_matches_total_moments() {
        let m = figure5_mixture();
        let mut rng = StdRng::seed_from_u64(77);
        let mut s = Summary::new();
        for _ in 0..60_000 {
            s.push(m.sample(&mut rng));
        }
        assert!((s.mean() - m.mean()).abs() < 0.01);
        assert!((s.variance() - m.variance()).abs() < 0.01);
    }

    #[test]
    fn paper_average_vs_moment_summary() {
        let m = figure5_mixture();
        let paper = m.paper_average();
        let exact = m.moment_summary();
        // Same mean,
        assert!((paper.mean() - exact.mean()).abs() < 1e-12);
        // but the paper's within-mode-only average is narrower when modes
        // are far apart (between-mode variance missing).
        assert!(paper.half_width() < exact.half_width());
    }

    #[test]
    fn dominant_and_nearest_mode() {
        let m = figure5_mixture();
        assert!((m.dominant().normal.mu() - 0.49).abs() < 1e-12);
        assert_eq!(m.nearest_mode(0.90), 0);
        assert_eq!(m.nearest_mode(0.50), 1);
        assert_eq!(m.nearest_mode(0.10), 2);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Mixture::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        Mixture::from_triples(&[(0.0, 1.0, 1.0)]);
    }
}
