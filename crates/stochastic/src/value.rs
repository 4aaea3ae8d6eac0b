//! The stochastic value: a quantity reported as a range of likely behaviour.
//!
//! Following Section 2 of the paper, a stochastic value is a distribution
//! summarized as `X ± a`, where `X` is the mean and `a` is **two standard
//! deviations** of the underlying (assumed normal) distribution. Under
//! normality the interval `[X - a, X + a]` covers roughly 95% of observed
//! values. A *point value* is the degenerate case `a = 0` — "a stochastic
//! value in which the probability of X is 1" (paper, footnote 1).

use crate::dist::Normal;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A quantity represented as `mean ± half_width`, where `half_width` is two
/// standard deviations of the underlying distribution.
///
/// This is the paper's central abstraction: model parameters (bandwidth, CPU
/// load, benchmark times, …) and model *outputs* (predicted execution times)
/// are all `StochasticValue`s.
///
/// # Examples
///
/// ```
/// use prodpred_stochastic::StochasticValue;
///
/// // "bandwidth may be reported as 8 Mbits/second ± 2 Mbits/second"
/// let bw = StochasticValue::new(8.0, 2.0);
/// assert_eq!(bw.lo(), 6.0);
/// assert_eq!(bw.hi(), 10.0);
///
/// // "a load of 0.48 ± 10%" — percentage ranges translate to absolute ones
/// let load = StochasticValue::from_percent(0.48, 10.0);
/// assert!((load.half_width() - 0.048).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StochasticValue {
    mean: f64,
    half_width: f64,
}

impl StochasticValue {
    /// Creates a stochastic value `mean ± half_width`.
    ///
    /// # Panics
    ///
    /// Panics if `half_width` is negative or either argument is non-finite.
    pub fn new(mean: f64, half_width: f64) -> Self {
        assert!(mean.is_finite(), "stochastic mean must be finite: {mean}");
        assert!(
            half_width.is_finite() && half_width >= 0.0,
            "stochastic half-width must be finite and non-negative: {half_width}"
        );
        Self { mean, half_width }
    }

    /// A point value: the degenerate stochastic value with zero width.
    pub fn point(value: f64) -> Self {
        Self::new(value, 0.0)
    }

    /// Builds a value from a percentage range, e.g. `12 s ± 30%`.
    ///
    /// The paper translates percentage ranges to absolute ranges
    /// algebraically (footnote 3): the half-width is `|mean| * percent/100`.
    pub fn from_percent(mean: f64, percent: f64) -> Self {
        assert!(percent >= 0.0, "percentage range must be non-negative");
        Self::new(mean, mean.abs() * percent / 100.0)
    }

    /// Builds a value from a mean and a *single* standard deviation.
    /// The stored half-width is `2 * sd`, per the paper's convention.
    pub fn from_mean_sd(mean: f64, sd: f64) -> Self {
        assert!(sd >= 0.0, "standard deviation must be non-negative");
        Self::new(mean, 2.0 * sd)
    }

    /// Summarizes a sample as a stochastic value: sample mean ± two sample
    /// standard deviations. Returns `None` for an empty sample.
    ///
    /// This is how measured data (load traces, benchmark repetitions) enters
    /// the model.
    pub fn from_samples(samples: &[f64]) -> Option<Self> {
        if samples.is_empty() {
            return None;
        }
        let summary = crate::stats::Summary::from_slice(samples);
        Some(Self::from_mean_sd(summary.mean(), summary.sd()))
    }

    /// The mean (the "center of the range").
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The half-width `a` of the interval — two standard deviations.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// One standard deviation of the underlying distribution.
    pub fn sd(&self) -> f64 {
        self.half_width / 2.0
    }

    /// Variance of the underlying distribution.
    pub fn variance(&self) -> f64 {
        let sd = self.sd();
        sd * sd
    }

    /// Lower endpoint `X - a`.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper endpoint `X + a`.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }

    /// The half-width as a percentage of the mean, when the mean is nonzero.
    pub fn percent(&self) -> Option<f64> {
        // tidy:allow(PP004): exact zero mean makes the ratio undefined
        if self.mean == 0.0 {
            None
        } else {
            Some(100.0 * self.half_width / self.mean.abs())
        }
    }

    /// `true` when this is a point value (zero width).
    pub fn is_point(&self) -> bool {
        self.half_width == 0.0 // tidy:allow(PP004): a point value has exactly zero half-width by construction
    }

    /// Whether `x` falls within the two-standard-deviation interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }

    /// The paper's footnote-6 error metric: "the error between a value *v*
    /// not in the range of a stochastic value `X ± a` is the minimum distance
    /// between *v* and `(X - a, X + a)`". Zero when `v` is inside the range.
    pub(crate) fn distance_outside(&self, v: f64) -> f64 {
        if v < self.lo() {
            self.lo() - v
        } else if v > self.hi() {
            v - self.hi()
        } else {
            0.0
        }
    }

    /// Relative version of `distance_outside`:
    /// distance divided by the actual value, as used for the paper's
    /// "maximum error of approximately 14%" style of statement.
    pub fn relative_error_outside(&self, v: f64) -> f64 {
        // tidy:allow(PP004): exact zero reference needs the absolute-error branch
        if v == 0.0 {
            if self.contains(0.0) {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.distance_outside(v) / v.abs()
        }
    }

    /// The normal distribution this value summarizes (`N(mean, sd^2)`).
    ///
    /// For a point value this is a degenerate distribution with zero
    /// variance; [`Normal`] handles that case.
    pub fn to_normal(&self) -> Normal {
        Normal::new(self.mean, self.sd())
    }

    /// Scales the value by a point constant: `c * (X ± a) = cX ± |c|a`.
    pub fn scale(&self, c: f64) -> Self {
        Self::new(c * self.mean, c.abs() * self.half_width)
    }

    /// Shifts the value by a point constant: `(X ± a) + p = (X + p) ± a`
    /// (Table 2, first row).
    pub fn shift(&self, p: f64) -> Self {
        Self::new(self.mean + p, self.half_width)
    }

    /// Negation `-(X ± a) = -X ± a`.
    pub(crate) fn neg(&self) -> Self {
        Self::new(-self.mean, self.half_width)
    }

    /// Widens (or narrows) the interval by a factor, keeping the mean.
    /// Useful for conservative scheduling policies.
    pub fn widen(&self, factor: f64) -> Self {
        assert!(factor >= 0.0, "widening factor must be non-negative");
        Self::new(self.mean, self.half_width * factor)
    }
}

impl Default for StochasticValue {
    /// The zero point value.
    fn default() -> Self {
        Self::point(0.0)
    }
}

impl From<f64> for StochasticValue {
    fn from(v: f64) -> Self {
        Self::point(v)
    }
}

impl fmt::Display for StochasticValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_point() {
            write!(f, "{:.4}", self.mean)
        } else {
            write!(f, "{:.4} ± {:.4}", self.mean, self.half_width)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;

    #[test]
    fn construction_and_accessors() {
        let v = StochasticValue::new(12.0, 0.6);
        assert_eq!(v.mean(), 12.0);
        assert_eq!(v.half_width(), 0.6);
        assert_eq!(v.sd(), 0.3);
        assert_eq!(v.lo(), 11.4);
        assert_eq!(v.hi(), 12.6);
        assert!(!v.is_point());
    }

    #[test]
    fn table1_machine_a_range() {
        // "12 seconds per unit of work ± 5% (or 11.4 to 12.6 seconds)"
        let a = StochasticValue::from_percent(12.0, 5.0);
        assert!((a.lo() - 11.4).abs() < 1e-12);
        assert!((a.hi() - 12.6).abs() < 1e-12);
    }

    #[test]
    fn table1_machine_b_range() {
        // "12 seconds ± 30% ... will vary over an interval from 8.4 to 15.6"
        let b = StochasticValue::from_percent(12.0, 30.0);
        assert!((b.lo() - 8.4).abs() < 1e-12);
        assert!((b.hi() - 15.6).abs() < 1e-12);
    }

    #[test]
    fn point_value_degenerates() {
        let p = StochasticValue::point(7.0);
        assert!(p.is_point());
        assert_eq!(p.lo(), 7.0);
        assert_eq!(p.hi(), 7.0);
        assert!(p.contains(7.0));
        assert!(!p.contains(7.0001));
    }

    #[test]
    fn percent_round_trip() {
        let v = StochasticValue::from_percent(5.25, 15.238);
        assert!((v.percent().unwrap() - 15.238).abs() < 1e-9);
    }

    #[test]
    fn distance_outside_footnote6() {
        let v = StochasticValue::new(10.0, 2.0); // range (8, 12)
        assert_eq!(v.distance_outside(9.0), 0.0);
        assert_eq!(v.distance_outside(8.0), 0.0);
        assert_eq!(v.distance_outside(7.0), 1.0);
        assert_eq!(v.distance_outside(13.5), 1.5);
    }

    #[test]
    fn relative_error_outside() {
        let v = StochasticValue::new(10.0, 2.0);
        assert!((v.relative_error_outside(16.0) - 0.25).abs() < 1e-12);
        assert_eq!(v.relative_error_outside(11.0), 0.0);
    }

    #[test]
    fn from_samples_matches_summary() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let v = StochasticValue::from_samples(&data).unwrap();
        assert!((v.mean() - 5.0).abs() < 1e-12);
        // sample sd (n-1) of this classic dataset is ~2.138
        assert!((v.sd() - 2.138_089_935).abs() < 1e-6);
        assert!(StochasticValue::from_samples(&[]).is_none());
    }

    #[test]
    fn scale_shift_neg() {
        let v = StochasticValue::new(4.0, 1.0);
        let s = v.scale(-2.0);
        assert_eq!(s.mean(), -8.0);
        assert_eq!(s.half_width(), 2.0);
        let t = v.shift(3.0);
        assert_eq!(t.mean(), 7.0);
        assert_eq!(t.half_width(), 1.0);
        let n = v.neg();
        assert_eq!(n.mean(), -4.0);
        assert_eq!(n.half_width(), 1.0);
    }

    #[test]
    fn nominal_coverage_is_two_sigma() {
        // Under the normal the value stands for, `[lo, hi]` holds ~0.9545.
        let v = StochasticValue::new(0.0, 2.0);
        let normal = v.to_normal();
        let coverage = normal.cdf(v.hi()) - normal.cdf(v.lo());
        assert!((coverage - 0.954_499_7).abs() < 1e-5);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", StochasticValue::point(3.0)), "3.0000");
        assert_eq!(
            format!("{}", StochasticValue::new(5.25, 0.8)),
            "5.2500 ± 0.8000"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_negative_half_width() {
        StochasticValue::new(1.0, -0.1);
    }

    #[test]
    #[should_panic]
    fn rejects_nan_mean() {
        StochasticValue::new(f64::NAN, 0.1);
    }
}
