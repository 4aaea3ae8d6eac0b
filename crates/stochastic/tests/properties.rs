//! Property-based tests for the stochastic-value algebra and the
//! distribution machinery.

use prodpred_stochastic::{
    max_of, min_of, Dependence, Distribution, Histogram, MaxStrategy, Normal, StochasticValue,
    Summary,
};
use proptest::prelude::*;

/// A strategy generating well-conditioned stochastic values.
fn sv() -> impl Strategy<Value = StochasticValue> {
    ((-1.0e3f64..1.0e3), (0.0f64..1.0e2)).prop_map(|(m, h)| StochasticValue::new(m, h))
}

/// Stochastic values bounded away from zero (safe to divide by).
fn sv_nonzero() -> impl Strategy<Value = StochasticValue> {
    ((0.5f64..1.0e3), (0.0f64..1.0e2), any::<bool>())
        .prop_map(|(m, h, neg)| StochasticValue::new(if neg { -m } else { m }, h))
}

proptest! {
    // ---- degeneration: point values combine like plain arithmetic ----

    #[test]
    fn points_add_exactly(a in -1e3f64..1e3, b in -1e3f64..1e3) {
        let (pa, pb) = (StochasticValue::point(a), StochasticValue::point(b));
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let s = pa.add(&pb, dep);
            prop_assert!(s.is_point());
            prop_assert!((s.mean() - (a + b)).abs() < 1e-9);
        }
    }

    #[test]
    fn points_multiply_exactly(a in -1e3f64..1e3, b in -1e3f64..1e3) {
        let (pa, pb) = (StochasticValue::point(a), StochasticValue::point(b));
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let p = pa.mul(&pb, dep);
            prop_assert!(p.is_point());
            let expect = if (a == 0.0 || b == 0.0) && dep == Dependence::Unrelated {
                0.0
            } else {
                a * b
            };
            prop_assert!((p.mean() - expect).abs() < 1e-6);
        }
    }

    // ---- addition algebra ----

    #[test]
    fn addition_is_commutative(a in sv(), b in sv()) {
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let x = a.add(&b, dep);
            let y = b.add(&a, dep);
            prop_assert!((x.mean() - y.mean()).abs() < 1e-9);
            prop_assert!((x.half_width() - y.half_width()).abs() < 1e-9);
        }
    }

    #[test]
    fn addition_is_associative(a in sv(), b in sv(), c in sv()) {
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let x = a.add(&b, dep).add(&c, dep);
            let y = a.add(&b.add(&c, dep), dep);
            prop_assert!((x.mean() - y.mean()).abs() < 1e-6);
            prop_assert!((x.half_width() - y.half_width()).abs() < 1e-6);
        }
    }

    #[test]
    fn related_dominates_unrelated_width(a in sv(), b in sv()) {
        let (rel, unrel) = (Dependence::Related, Dependence::Unrelated);
        prop_assert!(a.add(&b, rel).half_width() >= a.add(&b, unrel).half_width() - 1e-12);
        prop_assert!(a.mul(&b, rel).half_width() >= a.mul(&b, unrel).half_width() - 1e-9);
    }

    #[test]
    fn sub_add_round_trip_means(a in sv(), b in sv()) {
        let d = a - b;
        prop_assert!((d.mean() - (a.mean() - b.mean())).abs() < 1e-9);
    }

    #[test]
    fn sums_match_pairwise_folds(vals in proptest::collection::vec(sv(), 1..8)) {
        let sum = |dep| {
            vals.iter()
                .fold(StochasticValue::point(0.0), |acc, v| acc.add(v, dep))
        };
        let rel = sum(Dependence::Related);
        let manual_mean: f64 = vals.iter().map(|v| v.mean()).sum();
        let manual_width: f64 = vals.iter().map(|v| v.half_width()).sum();
        prop_assert!((rel.mean() - manual_mean).abs() < 1e-6);
        prop_assert!((rel.half_width() - manual_width).abs() < 1e-6);

        let unrel = sum(Dependence::Unrelated);
        let manual_ss: f64 = vals.iter().map(|v| v.half_width().powi(2)).sum();
        prop_assert!((unrel.half_width() - manual_ss.sqrt()).abs() < 1e-6);
    }

    // ---- multiplication algebra ----

    #[test]
    fn multiplication_is_commutative(a in sv(), b in sv()) {
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let x = a.mul(&b, dep);
            let y = b.mul(&a, dep);
            prop_assert!((x.mean() - y.mean()).abs() < 1e-6);
            prop_assert!((x.half_width() - y.half_width()).abs() < 1e-6);
        }
    }

    #[test]
    fn scaling_matches_point_multiplication(a in sv(), c in -100.0f64..100.0) {
        let scaled = a.scale(c);
        let via_mul = a.mul(&StochasticValue::point(c), Dependence::Related);
        prop_assert!((scaled.mean() - via_mul.mean()).abs() < 1e-9);
        prop_assert!((scaled.half_width() - via_mul.half_width()).abs() < 1e-9);
    }

    #[test]
    fn recip_preserves_relative_width(a in sv_nonzero()) {
        let r = StochasticValue::point(1.0).div(&a, Dependence::Related);
        let rel_a = a.half_width() / a.mean().abs();
        let rel_r = r.half_width() / r.mean().abs();
        prop_assert!((rel_a - rel_r).abs() < 1e-9);
    }

    #[test]
    fn division_by_self_is_near_one(a in sv_nonzero()) {
        let q = a.div(&a, Dependence::Unrelated);
        prop_assert!((q.mean() - 1.0).abs() < 1e-9);
    }

    // ---- interval semantics ----

    #[test]
    fn mean_is_always_contained(a in sv()) {
        prop_assert!(a.contains(a.mean()));
        prop_assert_eq!(a.relative_error_outside(a.mean()), 0.0);
    }

    #[test]
    fn distance_outside_iff_not_contained(a in sv(), x in -2e3f64..2e3) {
        let d = a.relative_error_outside(x);
        prop_assert_eq!(d == 0.0, a.contains(x));
        prop_assert!(d >= 0.0);
    }

    #[test]
    fn widen_monotone(a in sv(), f in 1.0f64..10.0, x in -2e3f64..2e3) {
        // Widening can only increase coverage.
        if a.contains(x) {
            prop_assert!(a.widen(f).contains(x));
        }
    }

    // ---- group operations ----

    #[test]
    fn max_by_mean_dominates_all_means(vals in proptest::collection::vec(sv(), 1..10)) {
        let m = max_of(&vals, MaxStrategy::ByMean);
        for v in &vals {
            prop_assert!(m.mean() >= v.mean());
        }
    }

    #[test]
    fn clark_max_upper_bounds_every_mean(vals in proptest::collection::vec(sv(), 1..6)) {
        let m = max_of(&vals, MaxStrategy::Clark);
        for v in &vals {
            // E[max] >= E[X_i] for every i, with tolerance for the
            // pairwise-folded approximation.
            prop_assert!(m.mean() >= v.mean() - 1e-6);
        }
    }

    #[test]
    fn min_max_duality(vals in proptest::collection::vec(sv(), 1..10)) {
        let mn = min_of(&vals, MaxStrategy::ByMean);
        for v in &vals {
            prop_assert!(mn.mean() <= v.mean());
        }
    }

    // ---- distributions ----

    #[test]
    fn normal_quantile_cdf_round_trip(mu in -100.0f64..100.0, sigma in 0.01f64..50.0, p in 0.001f64..0.999) {
        let n = Normal::new(mu, sigma);
        let x = n.quantile(p);
        prop_assert!((n.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_monotone(mu in -10.0f64..10.0, sigma in 0.01f64..5.0, a in -50.0f64..50.0, b in -50.0f64..50.0) {
        let n = Normal::new(mu, sigma);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(n.cdf(lo) <= n.cdf(hi) + 1e-15);
    }

    #[test]
    fn erf_bounds(x in -20.0f64..20.0) {
        // The standard normal CDF is (1 + erf(x / sqrt 2)) / 2.
        let cdf = |x: f64| Normal::new(0.0, 1.0).cdf(x);
        prop_assert!((0.0..=1.0).contains(&cdf(x)));
        prop_assert!((cdf(x) + cdf(-x) - 1.0).abs() < 1e-13);
    }

    // ---- summaries ----

    #[test]
    fn summary_merge_matches_whole(data in proptest::collection::vec(-1e4f64..1e4, 2..200), split in 0usize..200) {
        let split = split.min(data.len());
        let whole = Summary::from_slice(&data);
        let mut left = Summary::from_slice(&data[..split]);
        left.merge(&Summary::from_slice(&data[split..]));
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() / (1.0 + whole.variance()) < 1e-6);
    }

    #[test]
    fn summary_bounds_hold(data in proptest::collection::vec(-1e4f64..1e4, 1..100)) {
        let s = Summary::from_slice(&data);
        prop_assert!(s.min() <= s.mean() + 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
        prop_assert!(s.variance() >= 0.0);
    }

    #[test]
    fn histogram_conserves_observations(data in proptest::collection::vec(-100.0f64..100.0, 1..200), bins in 1usize..32) {
        let mut h = Histogram::new(-50.0, 50.0, bins);
        h.extend(data.iter().copied());
        let binned: u64 = h.counts().iter().sum();
        let in_range = data.iter().filter(|x| (-50.0..=50.0).contains(*x)).count();
        prop_assert_eq!(binned, in_range as u64);
        prop_assert_eq!(h.total(), data.len() as u64);
    }

    #[test]
    fn from_samples_contains_mean(data in proptest::collection::vec(-1e3f64..1e3, 2..100)) {
        let v = StochasticValue::from_samples(&data).unwrap();
        let s = Summary::from_slice(&data);
        prop_assert!((v.mean() - s.mean()).abs() < 1e-9);
        prop_assert!(v.contains(s.mean()));
    }
}
