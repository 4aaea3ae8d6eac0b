//! The empirical distribution of a measured sample — the "actual" curves
//! the paper plots against fitted normals in Figures 1–4.

use super::{uniform01, Distribution};
use crate::stats::{quantile_sorted, Summary};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// The empirical distribution of a finite sample.
///
/// * `cdf` is the step ECDF,
/// * `pdf` is a normalized-histogram density (bin count chosen by the
///   Freedman–Diaconis-like `sqrt(n)` rule unless overridden),
/// * `sample` bootstraps (draws uniformly from the observations).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Empirical {
    sorted: Vec<f64>,
    summary: Summary,
}

impl Empirical {
    /// Builds the empirical distribution of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or contains non-finite values.
    pub fn new(data: &[f64]) -> Self {
        assert!(!data.is_empty(), "empirical distribution needs data");
        assert!(
            data.iter().all(|x| x.is_finite()),
            "empirical data must be finite"
        );
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        let summary = Summary::from_slice(data);
        Self { sorted, summary }
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always `false`: construction rejects empty samples.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The observations, sorted ascending.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Fraction of observations inside the closed interval `[lo, hi]`.
    pub fn fraction_within(&self, lo: f64, hi: f64) -> f64 {
        let a = self.sorted.partition_point(|&x| x < lo);
        let b = self.sorted.partition_point(|&x| x <= hi);
        (b - a) as f64 / self.sorted.len() as f64
    }
}

impl Distribution for Empirical {
    /// Histogram density with `ceil(sqrt(n))` bins over the sample range.
    fn pdf(&self, x: f64) -> f64 {
        let n = self.sorted.len();
        let lo = self.sorted[0];
        let hi = self.sorted[n - 1];
        if hi <= lo {
            // Degenerate sample: point mass.
            return if x == lo { f64::INFINITY } else { 0.0 };
        }
        if x < lo || x > hi {
            return 0.0;
        }
        let bins = (n as f64).sqrt().ceil() as usize;
        let w = (hi - lo) / bins as f64;
        let idx = (((x - lo) / w) as usize).min(bins - 1);
        let (a, b) = (lo + idx as f64 * w, lo + (idx + 1) as f64 * w);
        let count =
            self.sorted.partition_point(|&v| v <= b) - self.sorted.partition_point(|&v| v < a);
        count as f64 / (n as f64 * w)
    }

    fn cdf(&self, x: f64) -> f64 {
        self.sorted.partition_point(|&v| v <= x) as f64 / self.sorted.len() as f64
    }

    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile probability must be in (0,1)");
        quantile_sorted(&self.sorted, p)
    }

    fn mean(&self) -> f64 {
        self.summary.mean()
    }

    fn variance(&self) -> f64 {
        self.summary.variance()
    }

    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let i = (uniform01(rng) * self.sorted.len() as f64) as usize;
        self.sorted[i.min(self.sorted.len() - 1)]
    }
}

/// Kolmogorov–Smirnov statistic between a sample and a reference
/// distribution: `sup_x |F_n(x) - F(x)|`. Used to judge how well a fitted
/// normal summarizes measured data (the paper's "in many cases assuming the
/// distribution is normal is satisfactory").
pub fn ks_statistic(sample: &Empirical, reference: &dyn Distribution) -> f64 {
    let n = sample.len() as f64;
    let mut d: f64 = 0.0;
    for (i, &x) in sample.sorted().iter().enumerate() {
        let f = reference.cdf(x);
        let ecdf_hi = (i + 1) as f64 / n;
        let ecdf_lo = i as f64 / n;
        d = d.max((ecdf_hi - f).abs()).max((f - ecdf_lo).abs());
    }
    d
}

/// Anderson–Darling statistic of a sample against a reference
/// distribution: `A² = -n - (1/n) Σ (2i-1)[ln F(x_i) + ln(1-F(x_{n+1-i}))]`.
///
/// Weighted toward the tails, where the KS statistic is weakest — exactly
/// where the paper's long-tailed data misbehaves (§2.1.1). CDF values are
/// clamped away from 0/1 so a reference with bounded support cannot
/// produce infinities.
pub(crate) fn anderson_darling(sample: &Empirical, reference: &dyn Distribution) -> f64 {
    let xs = sample.sorted();
    let n = xs.len();
    let nf = n as f64;
    const EPS: f64 = 1e-12;
    let mut s = 0.0;
    for (i, &x) in xs.iter().enumerate() {
        let f_lo = reference.cdf(x).clamp(EPS, 1.0 - EPS);
        let f_hi = reference.cdf(xs[n - 1 - i]).clamp(EPS, 1.0 - EPS);
        s += (2.0 * i as f64 + 1.0) * (f_lo.ln() + (1.0 - f_hi).ln());
    }
    -nf - s / nf
}

/// The Anderson–Darling normality check with estimated parameters (the
/// "case 3" adjustment `A*² = A²(1 + 0.75/n + 2.25/n²)`). Returns the
/// adjusted statistic and whether normality is rejected at the 5% level
/// (critical value 0.752). `None` for fewer than 8 observations.
pub(crate) fn ad_normality(data: &[f64]) -> Option<(f64, bool)> {
    if data.len() < 8 {
        return None;
    }
    let s = crate::stats::Summary::from_slice(data);
    // tidy:allow(PP004): degenerate-sample guard; sd is exactly 0 for constant data
    if s.sd() == 0.0 {
        return None;
    }
    let emp = Empirical::new(data);
    let normal = crate::dist::Normal::new(s.mean(), s.sd());
    let n = data.len() as f64;
    let a2 = anderson_darling(&emp, &normal);
    let adjusted = a2 * (1.0 + 0.75 / n + 2.25 / (n * n));
    Some((adjusted, adjusted > 0.752))
}

/// Approximate p-value for the one-sample KS test (asymptotic Kolmogorov
/// distribution; adequate for n ≳ 35).
pub fn ks_p_value(d: f64, n: usize) -> f64 {
    let en = (n as f64).sqrt();
    let lambda = (en + 0.12 + 0.11 / en) * d;
    // Kolmogorov Q function: 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2)
    let mut sum = 0.0;
    let mut sign = 1.0;
    for j in 1..=100 {
        let term = (-2.0 * (j as f64 * lambda).powi(2)).exp();
        sum += sign * term;
        sign = -sign;
        if term < 1e-12 {
            break;
        }
    }
    (2.0 * sum).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ecdf_steps() {
        let e = Empirical::new(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(9.0), 1.0);
    }

    #[test]
    fn fraction_within_inclusive() {
        let e = Empirical::new(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((e.fraction_within(2.0, 4.0) - 0.6).abs() < 1e-12);
        assert!((e.fraction_within(0.0, 10.0) - 1.0).abs() < 1e-12);
        assert_eq!(e.fraction_within(6.0, 7.0), 0.0);
    }

    #[test]
    fn median_and_quantile() {
        let e = Empirical::new(&[5.0, 1.0, 3.0]);
        assert_eq!(e.quantile(0.5), 3.0);
        assert_eq!(e.quantile(0.5), 3.0);
    }

    #[test]
    fn pdf_density_integrates_roughly_to_one() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = Normal::new(0.0, 1.0);
        let e = Empirical::new(&n.sample_n(&mut rng, 4000));
        // Trapezoid over the sample range.
        let (lo, hi) = (e.sorted()[0], *e.sorted().last().unwrap());
        let steps = 2000;
        let h = (hi - lo) / steps as f64;
        let mut integral = 0.0;
        for i in 0..steps {
            integral += e.pdf(lo + (i as f64 + 0.5) * h) * h;
        }
        assert!((integral - 1.0).abs() < 0.05, "integral {integral}");
    }

    #[test]
    fn bootstrap_sampling_stays_in_support() {
        let data = [2.0, 4.0, 8.0];
        let e = Empirical::new(&data);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            let x = e.sample(&mut rng);
            assert!(data.contains(&x));
        }
    }

    #[test]
    fn ks_accepts_matching_normal() {
        let mut rng = StdRng::seed_from_u64(13);
        let n = Normal::new(10.0, 2.0);
        let e = Empirical::new(&n.sample_n(&mut rng, 2000));
        let d = ks_statistic(&e, &n);
        let p = ks_p_value(d, e.len());
        assert!(p > 0.01, "true model rejected: d={d}, p={p}");
    }

    #[test]
    fn ks_rejects_wrong_normal() {
        let mut rng = StdRng::seed_from_u64(14);
        let n = Normal::new(10.0, 2.0);
        let e = Empirical::new(&n.sample_n(&mut rng, 2000));
        let wrong = Normal::new(11.5, 2.0);
        let d = ks_statistic(&e, &wrong);
        let p = ks_p_value(d, e.len());
        assert!(p < 1e-6, "wrong model accepted: d={d}, p={p}");
    }

    #[test]
    fn anderson_darling_accepts_true_model() {
        let mut rng = StdRng::seed_from_u64(31);
        let data = Normal::new(3.0, 1.5).sample_n(&mut rng, 1500);
        let (a2, reject) = ad_normality(&data).unwrap();
        assert!(!reject, "true normal rejected: A*2 = {a2}");
        assert!(a2 < 0.752);
    }

    #[test]
    fn anderson_darling_rejects_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(32);
        let data = crate::dist::LogNormal::new(0.0, 0.8).sample_n(&mut rng, 1500);
        let (a2, reject) = ad_normality(&data).unwrap();
        assert!(reject, "lognormal accepted as normal: A*2 = {a2}");
    }

    #[test]
    fn anderson_darling_more_sensitive_than_ks_in_tails() {
        // A distribution that matches the normal in the bulk but has a
        // modest tail: AD should flag it even when KS barely moves.
        let mut rng = StdRng::seed_from_u64(33);
        let body = Normal::new(0.0, 1.0);
        let tail = Normal::new(5.0, 0.5);
        let mut data = body.sample_n(&mut rng, 1900);
        data.extend(tail.sample_n(&mut rng, 40)); // 2% tail
        let (a2, reject) = ad_normality(&data).unwrap();
        assert!(reject, "tail contamination accepted: A*2 = {a2}");
    }

    #[test]
    fn anderson_darling_handles_reference_support_bounds() {
        // Empirical values where the reference's CDF is exactly 0 or 1 (a
        // point mass at 0) must not produce infinities.
        let e = Empirical::new(&[-2.0, -1.0, 0.0, 1.0, 2.0]);
        let reference = Normal::new(0.0, 0.0);
        let a2 = anderson_darling(&e, &reference);
        assert!(a2.is_finite());
        assert!(a2 > 0.0);
    }

    #[test]
    fn ad_normality_degenerate_inputs() {
        assert!(ad_normality(&[1.0; 5]).is_none());
        assert!(ad_normality(&[2.0; 100]).is_none());
    }

    #[test]
    #[should_panic]
    fn rejects_empty_sample() {
        Empirical::new(&[]);
    }
}
