//! Mode detection for multi-modal data (paper Section 2.1.2).
//!
//! Production CPU load "can be viewed as several sets of data, each having
//! its own distribution". We find the modes with a KDE peak search, split
//! the trace at density valleys, and fit a normal per mode with an
//! occupancy weight — yielding exactly the `P_i (M_i ± SD_i)` structure the
//! paper averages over.

use super::kde::{silverman_bandwidth, BinnedKde};
use crate::dist::Normal;
use crate::stats::Summary;
use crate::value::StochasticValue;
use serde::{Deserialize, Serialize};

/// One detected mode: a normal plus how often the data sits in it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Mode {
    /// Fraction of observations assigned to this mode (`P_i`).
    pub weight: f64,
    /// Fitted per-mode distribution (`M_i ± SD_i`).
    pub normal: Normal,
    /// Number of observations assigned.
    pub count: usize,
}

impl Mode {
    /// The mode's stochastic value `M_i ± 2 SD_i`.
    pub fn stochastic(&self) -> StochasticValue {
        StochasticValue::from_mean_sd(self.normal.mu(), self.normal.sigma())
    }
}

/// Grid resolution for the KDE peak scan.
const GRID: usize = 512;
/// Peaks below this fraction of the tallest peak are discarded.
const MIN_PEAK_HEIGHT: f64 = 0.10;
/// Modes holding fewer than this fraction of observations are merged into
/// their nearest neighbour.
const MIN_WEIGHT: f64 = 0.02;

/// The result of mode detection: boundaries, per-mode fits, weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ModalModel {
    modes: Vec<Mode>,
    /// Valley positions separating consecutive modes (len = modes - 1).
    boundaries: Vec<f64>,
}

impl ModalModel {
    /// The detected modes, ordered by increasing mean.
    pub fn modes(&self) -> &[Mode] {
        &self.modes
    }

    /// The paper's multi-modal average `sum_i P_i (M_i ± SD_i)`.
    pub fn weighted_average(&self) -> StochasticValue {
        let mean: f64 = self.modes.iter().map(|m| m.weight * m.normal.mu()).sum();
        let half: f64 = self
            .modes
            .iter()
            .map(|m| m.weight * 2.0 * m.normal.sigma())
            .sum();
        StochasticValue::new(mean, half)
    }
}

/// Detects the modes of a trace. Returns `None` for fewer than 32
/// observations, degenerate (constant) data, any sample that is NaN or
/// infinite, or a spread whose variance overflows `f64`.
pub fn detect_modes(data: &[f64]) -> Option<ModalModel> {
    let frame = Frame::of(data)?;
    let mut kde = BinnedKde::new(data, frame.bandwidth, frame.lo, frame.hi, GRID);
    let peaks = kde.peaks(MIN_PEAK_HEIGHT);
    let boundaries = peaks.windows(2).map(|w| kde.valley(w[0], w[1])).collect();
    Some(frame.split(data, peaks.is_empty(), boundaries))
}

/// What mode detection needs before it reads the density: the data's
/// summary, the KDE bandwidth and the grid's span, padded 5 % each side.
struct Frame {
    summary: Summary,
    bandwidth: f64,
    lo: f64,
    hi: f64,
}

impl Frame {
    /// `None` when mode detection does not apply to `data`.
    fn of(data: &[f64]) -> Option<Self> {
        if data.len() < 32 || !data.iter().all(|x| x.is_finite()) {
            return None;
        }
        let summary = Summary::from_slice(data);
        // Constant data has no modes; a spread past f64's range has no
        // normal to fit.
        if summary.max() <= summary.min() || !summary.sd().is_finite() {
            return None;
        }
        let pad = 0.05 * (summary.max() - summary.min());
        Some(Self {
            bandwidth: silverman_bandwidth(data, &summary),
            lo: summary.min() - pad,
            hi: summary.max() + pad,
            summary,
        })
    }

    /// Splits `data` at the valleys `boundaries` (one mode when the density
    /// showed no peak), then merges every mode lighter than `MIN_WEIGHT`
    /// into a neighbour.
    fn split(&self, data: &[f64], no_peak: bool, mut boundaries: Vec<f64>) -> ModalModel {
        if no_peak {
            // Flat-ish density; treat as a single mode.
            return single_mode(data, &self.summary);
        }
        // Assign observations to modes and fit each.
        let mut model = fit_modes(data, &boundaries);

        // Merge ultra-light modes into neighbours until all meet MIN_WEIGHT.
        while let Some(idx) = model.modes.iter().position(|m| m.weight < MIN_WEIGHT) {
            if model.modes.len() == 1 {
                break;
            }
            // Drop the boundary that isolates the light mode (the nearer one).
            let b_idx = if idx == 0 {
                0
            } else if idx == model.modes.len() - 1 {
                idx - 1
            } else {
                // Merge toward the closer neighbour mean.
                let left_gap = model.modes[idx].normal.mu() - model.modes[idx - 1].normal.mu();
                let right_gap = model.modes[idx + 1].normal.mu() - model.modes[idx].normal.mu();
                if left_gap <= right_gap {
                    idx - 1
                } else {
                    idx
                }
            };
            boundaries.remove(b_idx);
            model = fit_modes(data, &boundaries);
        }
        model
    }
}

fn single_mode(data: &[f64], s: &Summary) -> ModalModel {
    ModalModel {
        modes: vec![Mode {
            weight: 1.0,
            normal: Normal::new(s.mean(), s.sd()),
            count: data.len(),
        }],
        boundaries: vec![],
    }
}

fn fit_modes(data: &[f64], boundaries: &[f64]) -> ModalModel {
    let k = boundaries.len() + 1;
    let mut buckets: Vec<Summary> = vec![Summary::new(); k];
    for &x in data {
        let idx = boundaries.partition_point(|&b| b < x);
        buckets[idx].push(x);
    }
    let n = data.len() as f64;
    let modes: Vec<Mode> = buckets
        .iter()
        .map(|s| Mode {
            weight: s.count() as f64 / n,
            normal: Normal::new(if s.count() > 0 { s.mean() } else { 0.0 }, s.sd()),
            count: s.count() as usize,
        })
        .collect();
    ModalModel {
        modes,
        boundaries: boundaries.to_vec(),
    }
}

/// The binned detector held to the walking KDE over two corpora.
#[cfg(test)]
#[path = "tests/binned_oracle.rs"]
mod binned_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::Distribution;
    use crate::fit::{modal_samples, FIGURE5_MODES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn figure5_trace(n: usize, seed: u64) -> Vec<f64> {
        modal_samples(&FIGURE5_MODES, seed, n)
    }

    /// The mode `fit_modes` assigns `x` to: the count of valleys below it.
    fn mode_of(model: &ModalModel, x: f64) -> usize {
        model.boundaries.partition_point(|&b| b < x)
    }

    #[test]
    fn detects_figure5_three_modes() {
        let data = figure5_trace(8000, 1);
        let model = detect_modes(&data).unwrap();
        assert_eq!(model.modes().len(), 3, "{model:?}");
        let means: Vec<f64> = model.modes().iter().map(|m| m.normal.mu()).collect();
        assert!((means[0] - 0.33).abs() < 0.05);
        assert!((means[1] - 0.49).abs() < 0.05);
        assert!((means[2] - 0.94).abs() < 0.05);
        // Weights approximately recover the modes' proportions.
        let w: Vec<f64> = model.modes().iter().map(|m| m.weight).collect();
        assert!((w[0] - 0.25).abs() < 0.05);
        assert!((w[1] - 0.40).abs() < 0.05);
        assert!((w[2] - 0.35).abs() < 0.05);
    }

    #[test]
    fn mode_of_respects_boundaries() {
        let data = figure5_trace(8000, 2);
        let model = detect_modes(&data).unwrap();
        assert_eq!(mode_of(&model, 0.30), 0);
        assert_eq!(mode_of(&model, 0.50), 1);
        assert_eq!(mode_of(&model, 0.95), 2);
    }

    #[test]
    fn stochastic_for_center_mode_matches_platform1() {
        // Platform 1: "the load ... was in the center mode, with a mean of
        // 0.48. Two standard deviations ... gave us a stochastic load value
        // of 0.48 ± 0.05."
        let data = figure5_trace(8000, 3);
        let model = detect_modes(&data).unwrap();
        let sv = model.modes()[mode_of(&model, 0.48)].stochastic();
        assert!((sv.mean() - 0.49).abs() < 0.05, "{sv}");
        assert!(sv.half_width() < 0.12, "{sv}");
    }

    #[test]
    fn unimodal_data_gives_single_mode() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = crate::dist::Normal::new(0.5, 0.05).sample_n(&mut rng, 2000);
        let model = detect_modes(&data).unwrap();
        assert_eq!(model.modes().len(), 1);
        assert!((model.modes()[0].normal.mu() - 0.5).abs() < 0.01);
        assert_eq!(model.modes()[0].weight, 1.0);
    }

    #[test]
    fn weighted_average_formula() {
        let data = figure5_trace(8000, 5);
        let model = detect_modes(&data).unwrap();
        let avg = model.weighted_average();
        let manual_mean: f64 = model.modes().iter().map(|m| m.weight * m.normal.mu()).sum();
        assert!((avg.mean() - manual_mean).abs() < 1e-12);
    }

    #[test]
    fn mode_weights_and_counts_cover_the_data() {
        let data = figure5_trace(8000, 6);
        let model = detect_modes(&data).unwrap();
        let total: f64 = model.modes().iter().map(|m| m.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let count: usize = model.modes().iter().map(|m| m.count).sum();
        assert_eq!(count, data.len());
    }

    /// A Figure-5 history with one sample replaced by `bad`.
    fn one_sample(bad: f64) -> Option<ModalModel> {
        let mut data = figure5_trace(400, 7);
        data[123] = bad;
        detect_modes(&data)
    }

    #[test]
    fn a_sample_whose_square_overflows_gives_no_model() {
        assert!(one_sample(1e300).is_none());
    }

    #[test]
    fn a_nan_sample_gives_no_model() {
        assert!(one_sample(f64::NAN).is_none());
    }

    #[test]
    fn an_infinite_sample_gives_no_model() {
        assert!(one_sample(f64::INFINITY).is_none());
    }

    #[test]
    fn a_negative_infinite_sample_gives_no_model() {
        assert!(one_sample(f64::NEG_INFINITY).is_none());
    }

    #[test]
    fn too_little_or_degenerate_data() {
        assert!(detect_modes(&[1.0; 10]).is_none());
        assert!(detect_modes(&[2.0; 100]).is_none());
    }
}
