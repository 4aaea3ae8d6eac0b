//! Fitting distributions to measured data (paper Section 2.1).
//!
//! The paper's pipeline is: collect a trace (runtimes, bandwidth, load),
//! decide what family describes it, fit that family, and summarize it as
//! a stochastic value. This module holds the normal fit, the normality
//! diagnostics that decide whether "in many cases assuming that the
//! distribution is normal is satisfactory", and mode detection.

mod kde;
mod modes;

pub use modes::{detect_modes, ModalModel, Mode};

use crate::dist::{ks_p_value, ks_statistic, Empirical, Normal};
use crate::stats::Summary;

/// Fits a normal by the method of moments (sample mean and sd).
/// Returns `None` for fewer than two observations.
pub fn fit_normal(data: &[f64]) -> Option<Normal> {
    if data.len() < 2 {
        return None;
    }
    let s = Summary::from_slice(data);
    Some(Normal::new(s.mean(), s.sd()))
}

/// Diagnostics for the "is normal good enough?" decision of Section 2.1.
#[derive(Debug, Clone, Copy)]
pub struct NormalityReport {
    /// Kolmogorov–Smirnov statistic against the fitted normal.
    pub ks_statistic: f64,
    /// Asymptotic KS p-value.
    pub ks_p_value: f64,
    /// Anderson–Darling adjusted statistic (tail-sensitive); rejects
    /// normality at 5% when above 0.752.
    pub ad_statistic: f64,
    /// Whether the AD test rejects normality at the 5% level.
    pub ad_rejects: bool,
    /// Sample skewness (long tails show up here).
    pub skewness: f64,
    /// Sample excess kurtosis.
    pub kurtosis: f64,
    /// Fraction of the data inside mean ± 2 sd. The paper's §2.1.1 example:
    /// a long-tailed bandwidth trace covered only ~91% instead of ~95%.
    pub two_sigma_coverage: f64,
}

impl NormalityReport {
    /// A pragmatic verdict: is a normal summary adequate for scheduling
    /// purposes? Thresholds follow the paper's tolerance for "inaccuracy in
    /// the data ... tolerated by the scheduler".
    pub fn is_adequate(&self) -> bool {
        self.two_sigma_coverage >= 0.93 && self.skewness.abs() < 1.0
    }
}

/// Runs the normality diagnostics on a trace.
/// Returns `None` for fewer than eight observations.
pub fn normality_report(data: &[f64]) -> Option<NormalityReport> {
    if data.len() < 8 {
        return None;
    }
    let s = Summary::from_slice(data);
    let normal = Normal::new(s.mean(), s.sd());
    let emp = Empirical::new(data);
    let d = ks_statistic(&emp, &normal);
    let (lo, hi) = (s.mean() - 2.0 * s.sd(), s.mean() + 2.0 * s.sd());
    let (ad_statistic, ad_rejects) =
        crate::dist::ad_normality(data).unwrap_or((f64::INFINITY, true));
    Some(NormalityReport {
        ks_statistic: d,
        ks_p_value: ks_p_value(d, data.len()),
        ad_statistic,
        ad_rejects,
        skewness: s.skewness(),
        kurtosis: s.kurtosis(),
        two_sigma_coverage: emp.fraction_within(lo, hi),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, LogNormal};
    use crate::value::StochasticValue;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Summarizes data as a stochastic value via a fitted normal
    /// (mean ± 2 sd) — the paper's default representation.
    pub(crate) fn to_stochastic(data: &[f64]) -> Option<StochasticValue> {
        fit_normal(data).map(|n| StochasticValue::from_mean_sd(n.mu(), n.sigma()))
    }

    #[test]
    fn fit_normal_recovers_parameters() {
        let truth = Normal::new(9.8, 1.4);
        let mut rng = StdRng::seed_from_u64(1);
        let data = truth.sample_n(&mut rng, 20_000);
        let fit = fit_normal(&data).unwrap();
        assert!((fit.mu() - 9.8).abs() < 0.05);
        assert!((fit.sigma() - 1.4).abs() < 0.05);
        assert!(fit_normal(&[1.0]).is_none());
    }

    #[test]
    fn normality_report_accepts_normal_data() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = Normal::new(12.0, 0.5).sample_n(&mut rng, 5000);
        let rep = normality_report(&data).unwrap();
        assert!(rep.is_adequate(), "{rep:?}");
        assert!((rep.two_sigma_coverage - 0.9545).abs() < 0.02);
        assert!(rep.ks_p_value > 0.001);
        assert!(
            !rep.ad_rejects,
            "AD rejected true normal: {}",
            rep.ad_statistic
        );
    }

    #[test]
    fn normality_report_flags_heavy_tail() {
        let mut rng = StdRng::seed_from_u64(4);
        // Strongly skewed lognormal.
        let data = LogNormal::new(0.0, 1.2).sample_n(&mut rng, 5000);
        let rep = normality_report(&data).unwrap();
        assert!(!rep.is_adequate(), "{rep:?}");
        assert!(rep.skewness > 1.0);
    }

    #[test]
    fn to_stochastic_is_mean_two_sd() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let v = to_stochastic(&data).unwrap();
        assert!((v.mean() - 5.0).abs() < 1e-12);
        assert!((v.half_width() - 2.0 * 2.138_089_935).abs() < 1e-5);
    }
}
