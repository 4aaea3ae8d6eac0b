//! Addition and subtraction rules (paper Section 2.3.1).

use crate::value::StochasticValue;

/// Related addition (Table 2, row 2):
/// "the sum of their means and the sum of their variances":
/// `sum (X_i ± a_i) = sum X_i ± sum |a_i|`.
///
/// This is the conservative estimate — it assumes the errors move together
/// so the interval must not be "over-smoothed".
pub(crate) fn add_related(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
    StochasticValue::new(a.mean() + b.mean(), a.half_width() + b.half_width())
}

/// Unrelated addition (Table 2, row 3): the probability-based square-root
/// error computation `sum X_i ± sqrt(sum a_i^2)`.
///
/// For independent normals this is *exact*: normals are closed under
/// addition with variances adding, and the two-sigma half-widths therefore
/// combine in quadrature.
pub(crate) fn add_unrelated(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
    let ha = a.half_width();
    let hb = b.half_width();
    StochasticValue::new(a.mean() + b.mean(), ha.hypot(hb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Correlation-parameterized addition, generalizing the paper's two
    /// regimes: for correlation `rho` the variance law gives
    /// `a^2 + b^2 + 2 rho a b` for the squared half-width. `rho = 0` is the
    /// unrelated rule; `rho = 1` is the related rule; negative `rho` models
    /// anticorrelated quantities (one resource's gain is another's loss) and
    /// *narrows* the sum.
    ///
    /// # Panics
    ///
    /// Panics unless `rho` lies in `[-1, 1]`.
    pub(crate) fn add_correlated(
        a: &StochasticValue,
        b: &StochasticValue,
        rho: f64,
    ) -> StochasticValue {
        assert!(
            (-1.0..=1.0).contains(&rho),
            "correlation must lie in [-1, 1], got {rho}"
        );
        let (ha, hb) = (a.half_width(), b.half_width());
        let var = (ha * ha + hb * hb + 2.0 * rho * ha * hb).max(0.0);
        StochasticValue::new(a.mean() + b.mean(), var.sqrt())
    }

    #[test]
    fn related_adds_half_widths() {
        let a = StochasticValue::new(8.0, 2.0);
        let b = StochasticValue::new(3.0, 1.0);
        let s = add_related(&a, &b);
        assert_eq!(s.mean(), 11.0);
        assert_eq!(s.half_width(), 3.0);
    }

    #[test]
    fn unrelated_adds_in_quadrature() {
        let a = StochasticValue::new(8.0, 3.0);
        let b = StochasticValue::new(3.0, 4.0);
        let s = add_unrelated(&a, &b);
        assert_eq!(s.mean(), 11.0);
        assert!((s.half_width() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_plus_stochastic_shifts_only() {
        // Table 2 row 1: (X ± a) + P = (X + P) ± a, under either rule.
        let x = StochasticValue::new(10.0, 1.5);
        let p = StochasticValue::point(4.0);
        for s in [add_related(&x, &p), add_unrelated(&x, &p)] {
            assert_eq!(s.mean(), 14.0);
            assert_eq!(s.half_width(), 1.5);
        }
    }

    #[test]
    fn subtraction_via_negation() {
        let a = StochasticValue::new(10.0, 3.0);
        let b = StochasticValue::new(4.0, 4.0);
        let d = add_unrelated(&a, &b.neg());
        assert_eq!(d.mean(), 6.0);
        assert!((d.half_width() - 5.0).abs() < 1e-12);
        let dr = add_related(&a, &b.neg());
        assert_eq!(dr.half_width(), 7.0);
    }

    #[test]
    fn unrelated_rule_is_exact_for_independent_normals() {
        // Monte-Carlo ground truth: sample X ~ N, Y ~ N independently,
        // check the predicted interval of X+Y covers ~95.45%.
        let a = StochasticValue::new(12.0, 0.6);
        let b = StochasticValue::new(5.0, 1.0);
        let predicted = add_unrelated(&a, &b);
        let (na, nb) = (a.to_normal(), b.to_normal());
        let mut rng = StdRng::seed_from_u64(2024);
        let mut s = Summary::new();
        let mut inside = 0usize;
        let n = 40_000;
        for _ in 0..n {
            let x = na.sample(&mut rng) + nb.sample(&mut rng);
            s.push(x);
            if predicted.contains(x) {
                inside += 1;
            }
        }
        assert!((s.mean() - predicted.mean()).abs() < 0.02);
        assert!((2.0 * s.sd() - predicted.half_width()).abs() < 0.02);
        let frac = inside as f64 / n as f64;
        assert!((frac - 0.9545).abs() < 0.01, "coverage {frac}");
    }

    #[test]
    fn correlated_addition_interpolates_the_regimes() {
        let a = StochasticValue::new(8.0, 3.0);
        let b = StochasticValue::new(3.0, 4.0);
        let rho0 = add_correlated(&a, &b, 0.0);
        let rho1 = add_correlated(&a, &b, 1.0);
        assert_eq!(rho0.half_width(), add_unrelated(&a, &b).half_width());
        assert!((rho1.half_width() - add_related(&a, &b).half_width()).abs() < 1e-12);
        // Monotone in rho.
        let mut prev = 0.0;
        for i in 0..=20 {
            let rho = -1.0 + 0.1 * i as f64;
            let w = add_correlated(&a, &b, rho).half_width();
            assert!(w >= prev - 1e-12, "width not monotone at rho {rho}");
            prev = w;
        }
        // Perfect anticorrelation: widths cancel to |a - b|.
        let anti = add_correlated(&a, &b, -1.0);
        assert!((anti.half_width() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlated_addition_matches_sampled_correlated_normals() {
        // Build correlated pairs: Y = rho X + sqrt(1-rho^2) Z.
        let rho = 0.6;
        let (sx, sy) = (1.5, 1.0);
        let x = Normal::new(0.0, 1.0);
        let z = Normal::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(17);
        let mut s = Summary::new();
        for _ in 0..60_000 {
            let xv = x.sample(&mut rng);
            let yv = rho * xv + (1.0f64 - rho * rho).sqrt() * z.sample(&mut rng);
            s.push(sx * xv + sy * yv);
        }
        let predicted = add_correlated(
            &StochasticValue::from_mean_sd(0.0, sx),
            &StochasticValue::from_mean_sd(0.0, sy),
            rho,
        );
        assert!(
            (2.0 * s.sd() - predicted.half_width()).abs() < 0.03,
            "sampled {} vs rule {}",
            2.0 * s.sd(),
            predicted.half_width()
        );
    }

    #[test]
    #[should_panic]
    fn correlated_rejects_out_of_range_rho() {
        add_correlated(
            &StochasticValue::new(0.0, 1.0),
            &StochasticValue::new(0.0, 1.0),
            1.5,
        );
    }

    #[test]
    fn related_rule_is_exact_for_perfectly_correlated_normals() {
        // If Y = c * X (perfect positive correlation), sd(X+Y) = sd(X)+sd(Y).
        let x = Normal::new(0.0, 1.0);
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = Summary::new();
        for _ in 0..40_000 {
            let v = x.sample(&mut rng);
            s.push(v + 2.0 * v); // sd should be 3
        }
        assert!((s.sd() - 3.0).abs() < 0.05);
        // Which is what the related rule predicts:
        let sv = add_related(
            &StochasticValue::from_mean_sd(0.0, 1.0),
            &StochasticValue::from_mean_sd(0.0, 2.0),
        );
        assert!((sv.sd() - 3.0).abs() < 1e-12);
    }
}
