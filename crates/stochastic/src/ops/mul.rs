//! Multiplication, division, and reciprocal rules (paper Section 2.3.2).

use crate::value::StochasticValue;

/// Related multiplication (Table 2, row 2):
/// `(X_i ± a_i)(X_j ± a_j) = X_i X_j ± (a_i |X_j| + a_j |X_i| + a_i a_j)`.
///
/// The half-width is exactly the worst-case expansion of the interval
/// product when both factors are positive, "similar to standard statistical
/// error propagation" but keeping the second-order `a_i a_j` term — again a
/// conservative estimate.
pub(crate) fn mul_related(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
    let (xi, ai) = (a.mean(), a.half_width());
    let (xj, aj) = (b.mean(), b.half_width());
    StochasticValue::new(xi * xj, ai * xj.abs() + aj * xi.abs() + ai * aj)
}

/// Unrelated multiplication (Table 2, row 3):
/// `X_i X_j ± |X_i X_j| sqrt((a_i/X_i)^2 + (a_j/X_j)^2)` — relative errors
/// add in quadrature, valid "when the distributions are unrelated, or when
/// `a_i a_j` is very small compared to the other terms".
///
/// The paper's zero rule applies: "In the case that either X_i or X_j is
/// equal to zero, we define their product to be zero."
pub(crate) fn mul_unrelated(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
    let (xi, ai) = (a.mean(), a.half_width());
    let (xj, aj) = (b.mean(), b.half_width());
    // tidy:allow(PP004): multiplying by an exact point zero yields an exact zero
    if xi == 0.0 || xj == 0.0 {
        return StochasticValue::point(0.0);
    }
    let rel = (ai / xi).hypot(aj / xj);
    StochasticValue::new(xi * xj, (xi * xj).abs() * rel)
}

/// First-order reciprocal `(Y ± b)^-1 = 1/Y ± b/Y^2`.
///
/// # Panics
///
/// Panics if the mean is zero (the reciprocal of a distribution straddling
/// zero has no finite moments).
pub(crate) fn recip(v: &StochasticValue) -> StochasticValue {
    assert!(
        v.mean() != 0.0, // tidy:allow(PP004): exact zero-mean guard before taking a reciprocal
        "reciprocal of a stochastic value with zero mean"
    );
    let m = v.mean();
    StochasticValue::new(1.0 / m, v.half_width() / (m * m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::stats::Summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Footnote-5 literal reciprocal `Y^-1 ± b^-1`.
    ///
    /// Degenerates to the exact point reciprocal when `b == 0`. Kept for
    /// fidelity to the text; see DESIGN.md for why [`recip`] is the default.
    pub(crate) fn recip_literal(v: &StochasticValue) -> StochasticValue {
        assert!(
            v.mean() != 0.0, // tidy:allow(PP004): exact zero-mean guard before taking a reciprocal
            "reciprocal of a stochastic value with zero mean"
        );
        if v.is_point() {
            return StochasticValue::point(1.0 / v.mean());
        }
        StochasticValue::new(1.0 / v.mean(), 1.0 / v.half_width())
    }

    #[test]
    fn related_product_formula() {
        let a = StochasticValue::new(4.0, 0.5);
        let b = StochasticValue::new(3.0, 2.0);
        let p = mul_related(&a, &b);
        assert_eq!(p.mean(), 12.0);
        // 0.5*3 + 2*4 + 0.5*2 = 1.5 + 8 + 1 = 10.5
        assert!((p.half_width() - 10.5).abs() < 1e-12);
    }

    #[test]
    fn related_product_is_interval_product_for_positive_factors() {
        // For positive means, the related half-width equals the upper
        // expansion of interval arithmetic: (X+a)(Y+b) - XY.
        let a = StochasticValue::new(5.0, 1.0);
        let b = StochasticValue::new(7.0, 2.0);
        let p = mul_related(&a, &b);
        let interval_hi = a.hi() * b.hi();
        assert!((p.hi() - interval_hi).abs() < 1e-12);
    }

    #[test]
    fn unrelated_product_formula() {
        let a = StochasticValue::new(4.0, 0.4); // 10% relative
        let b = StochasticValue::new(5.0, 1.0); // 20% relative
        let p = mul_unrelated(&a, &b);
        assert_eq!(p.mean(), 20.0);
        let rel = (0.1f64 * 0.1 + 0.2 * 0.2).sqrt();
        assert!((p.half_width() - 20.0 * rel).abs() < 1e-12);
    }

    #[test]
    fn zero_mean_product_is_zero_point() {
        let z = StochasticValue::new(0.0, 1.0);
        let b = StochasticValue::new(5.0, 1.0);
        let p = mul_unrelated(&z, &b);
        assert!(p.is_point());
        assert_eq!(p.mean(), 0.0);
    }

    #[test]
    fn point_times_stochastic_matches_table2_row1() {
        // P(X ± a) = PX ± Pa — both rules must reproduce it.
        let x = StochasticValue::new(6.0, 1.2);
        let p = StochasticValue::point(3.0);
        let related = mul_related(&x, &p);
        assert_eq!(related.mean(), 18.0);
        assert!((related.half_width() - 3.6).abs() < 1e-12);
        let unrelated = mul_unrelated(&x, &p);
        assert_eq!(unrelated.mean(), 18.0);
        assert!((unrelated.half_width() - 3.6).abs() < 1e-12);
    }

    #[test]
    fn recip_first_order() {
        let v = StochasticValue::new(4.0, 0.8);
        let r = recip(&v);
        assert_eq!(r.mean(), 0.25);
        assert!((r.half_width() - 0.05).abs() < 1e-12);
        // Relative width preserved: 0.8/4 = 0.05/0.25 = 20%.
        assert!((r.percent().unwrap() - v.percent().unwrap()).abs() < 1e-9);
    }

    #[test]
    fn recip_literal_footnote() {
        let v = StochasticValue::new(4.0, 0.5);
        let r = recip_literal(&v);
        assert_eq!(r.mean(), 0.25);
        assert_eq!(r.half_width(), 2.0);
        // Point value degenerates cleanly.
        let p = recip_literal(&StochasticValue::point(4.0));
        assert!(p.is_point());
        assert_eq!(p.mean(), 0.25);
    }

    #[test]
    #[should_panic]
    fn recip_of_zero_mean_panics() {
        recip(&StochasticValue::new(0.0, 1.0));
    }

    #[test]
    fn division_pipeline() {
        // (X ± a) / (Y ± b) with the unrelated rule: relative errors add in
        // quadrature, since recip preserves relative width.
        let num = StochasticValue::new(100.0, 10.0); // 10%
        let den = StochasticValue::new(4.0, 0.4); // 10%
        let q = num.div(&den, crate::ops::Dependence::Unrelated);
        assert!((q.mean() - 25.0).abs() < 1e-12);
        let rel = q.half_width() / q.mean();
        assert!((rel - (0.01f64 + 0.01).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn unrelated_product_matches_monte_carlo_for_low_variance() {
        // "high quality [low variance] information": the RSS rule should
        // match sampled moments closely when relative errors are small.
        let a = StochasticValue::new(12.0, 0.6); // 5%
        let b = StochasticValue::new(5.0, 0.5); // 10%
        let predicted = mul_unrelated(&a, &b);
        let (na, nb) = (a.to_normal(), b.to_normal());
        let mut rng = StdRng::seed_from_u64(99);
        let mut s = Summary::new();
        for _ in 0..60_000 {
            s.push(na.sample(&mut rng) * nb.sample(&mut rng));
        }
        assert!((s.mean() - predicted.mean()).abs() / predicted.mean() < 0.005);
        assert!((2.0 * s.sd() - predicted.half_width()).abs() / predicted.half_width() < 0.02);
    }

    #[test]
    fn product_of_normals_is_long_tailed() {
        // §2.3.2: "the product of stochastic values with normal
        // distributions does not itself have a normal distribution. Rather,
        // it is long-tailed." Verify positive skew by sampling.
        let a = StochasticValue::new(10.0, 6.0);
        let b = StochasticValue::new(10.0, 6.0);
        let (na, nb) = (a.to_normal(), b.to_normal());
        let mut rng = StdRng::seed_from_u64(7);
        let mut s = Summary::new();
        for _ in 0..60_000 {
            s.push(na.sample(&mut rng) * nb.sample(&mut rng));
        }
        assert!(s.skewness() > 0.2, "product should be right-skewed");
    }
}
