//! Prediction-accuracy metrics (paper Section 3).
//!
//! The paper evaluates stochastic predictions three ways:
//!
//! 1. **Coverage** — the fraction of actual execution times falling inside
//!    the predicted interval ("we capture approximately 80% of the actual
//!    execution times within the range of stochastic predictions").
//! 2. **Out-of-range error** (footnote 6) — for values outside the range,
//!    the minimum distance to the interval ("a maximum error of
//!    approximately 14%").
//! 3. **Mean-point error** — the conventional baseline: relative error of
//!    the interval's mean against the actual value ("a maximum error of
//!    38.6%").

use crate::value::StochasticValue;
use serde::{Deserialize, Serialize};

/// One prediction/outcome pair.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Observation {
    /// The stochastic prediction issued before the run.
    pub predicted: StochasticValue,
    /// The measured outcome.
    pub actual: f64,
}

/// Aggregate accuracy report over a series of observations.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Number of observations.
    pub n: usize,
    /// Fraction of actuals inside their predicted interval.
    pub coverage: f64,
    /// Maximum footnote-6 relative error (0 when everything is covered).
    pub max_range_error: f64,
    /// Mean footnote-6 relative error.
    pub mean_range_error: f64,
    /// Maximum relative error of the interval mean vs. the actual.
    pub max_mean_error: f64,
    /// Mean relative error of the interval mean vs. the actual.
    pub mean_mean_error: f64,
}

impl AccuracyReport {
    /// Computes the report. Returns `None` for an empty series.
    pub fn from_observations(obs: &[Observation]) -> Option<Self> {
        if obs.is_empty() {
            return None;
        }
        let mut covered = 0usize;
        let mut max_range = 0.0f64;
        let mut sum_range = 0.0f64;
        let mut max_mean = 0.0f64;
        let mut sum_mean = 0.0f64;
        for o in obs {
            if o.predicted.contains(o.actual) {
                covered += 1;
            }
            let r = o.predicted.relative_error_outside(o.actual);
            max_range = max_range.max(r);
            sum_range += r;
            // tidy:allow(PP004): exact zero guard before dividing by the actual
            let m = if o.actual != 0.0 {
                (o.predicted.mean() - o.actual).abs() / o.actual.abs()
            } else {
                f64::INFINITY
            };
            max_mean = max_mean.max(m);
            sum_mean += m;
        }
        let n = obs.len();
        Some(Self {
            n,
            coverage: covered as f64 / n as f64,
            max_range_error: max_range,
            mean_range_error: sum_range / n as f64,
            max_mean_error: max_mean,
            mean_mean_error: sum_mean / n as f64,
        })
    }
}

/// Calibration curve: empirical coverage as the prediction intervals are
/// widened (or narrowed) by each factor. A perfectly calibrated predictor
/// crosses its nominal ~95% at factor 1.0; crossing well below 1.0 means
/// the intervals are conservative, above 1.0 means overconfident.
pub fn calibration_curve(obs: &[Observation], factors: &[f64]) -> Vec<(f64, f64)> {
    factors
        .iter()
        .map(|&f| {
            let covered = obs
                .iter()
                .filter(|o| o.predicted.widen(f).contains(o.actual))
                .count();
            let frac = if obs.is_empty() {
                0.0
            } else {
                covered as f64 / obs.len() as f64
            };
            (f, frac)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(mean: f64, half: f64, actual: f64) -> Observation {
        Observation {
            predicted: StochasticValue::new(mean, half),
            actual,
        }
    }

    #[test]
    fn full_coverage_zero_range_error() {
        let series = [
            obs(10.0, 2.0, 9.0),
            obs(10.0, 2.0, 11.5),
            obs(10.0, 2.0, 10.0),
        ];
        let r = AccuracyReport::from_observations(&series).unwrap();
        assert_eq!(r.coverage, 1.0);
        assert_eq!(r.max_range_error, 0.0);
        assert!(r.max_mean_error > 0.0); // means still differ from actuals
    }

    #[test]
    fn partial_coverage_and_errors() {
        let series = [
            obs(10.0, 1.0, 10.5), // inside
            obs(10.0, 1.0, 12.0), // outside by 1 -> 1/12
            obs(10.0, 1.0, 8.0),  // outside by 1 -> 1/8
            obs(10.0, 1.0, 9.5),  // inside
        ];
        let r = AccuracyReport::from_observations(&series).unwrap();
        assert!((r.coverage - 0.5).abs() < 1e-12);
        assert!((r.max_range_error - 0.125).abs() < 1e-12);
        assert!((r.mean_range_error - (1.0 / 12.0 + 0.125) / 4.0).abs() < 1e-12);
    }

    #[test]
    fn point_baseline_error() {
        let series = [obs(10.0, 5.0, 14.0)];
        let r = AccuracyReport::from_observations(&series).unwrap();
        // Inside the wide interval: range error zero; mean error 4/14.
        assert_eq!(r.max_range_error, 0.0);
        assert!((r.max_mean_error - 4.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series_is_none() {
        assert!(AccuracyReport::from_observations(&[]).is_none());
    }

    #[test]
    fn calibration_curve_is_monotone_and_saturates() {
        let series = [
            obs(10.0, 1.0, 10.5),
            obs(10.0, 1.0, 12.0),
            obs(10.0, 1.0, 8.5),
            obs(10.0, 1.0, 15.0),
        ];
        let curve = calibration_curve(&series, &[0.5, 1.0, 2.0, 5.0, 10.0]);
        assert_eq!(curve.len(), 5);
        for w in curve.windows(2) {
            assert!(w[1].1 >= w[0].1, "{curve:?}");
        }
        assert_eq!(curve[4].1, 1.0); // wide enough covers everything
        assert_eq!(curve[1].1, 0.25); // factor 1 covers only 10.5
    }

    #[test]
    fn calibration_curve_exact_values() {
        let series = [
            obs(10.0, 1.0, 10.5), // inside at factor 1
            obs(10.0, 1.0, 12.0), // needs factor 2
            obs(10.0, 1.0, 15.0), // needs factor 5
        ];
        let curve = calibration_curve(&series, &[1.0, 2.0, 5.0]);
        assert!((curve[0].1 - 1.0 / 3.0).abs() < 1e-12);
        assert!((curve[1].1 - 2.0 / 3.0).abs() < 1e-12);
        assert!((curve[2].1 - 1.0).abs() < 1e-12);
        assert!(calibration_curve(&[], &[1.0])[0].1 == 0.0);
    }
}
