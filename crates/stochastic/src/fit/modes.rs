//! Mode detection for multi-modal data (paper Section 2.1.2).
//!
//! Production CPU load "can be viewed as several sets of data, each having
//! its own distribution". We find the modes with a KDE peak search, split
//! the trace at density valleys, and fit a normal per mode with an
//! occupancy weight — yielding exactly the `P_i (M_i ± SD_i)` structure the
//! paper averages over.

use super::kde::Kde;
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

/// Tuning for [`detect_modes`].
#[derive(Debug, Clone, Copy)]
pub struct ModeDetectConfig {
    /// Grid resolution for the KDE peak scan.
    pub grid: usize,
    /// Peaks below this fraction of the tallest peak are discarded.
    pub min_peak_height: f64,
    /// Modes holding fewer than this fraction of observations are merged
    /// into their nearest neighbour.
    pub min_weight: f64,
}

impl Default for ModeDetectConfig {
    fn default() -> Self {
        Self {
            grid: 512,
            min_peak_height: 0.10,
            min_weight: 0.02,
        }
    }
}

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
/// observations or degenerate (constant) data.
pub fn detect_modes(data: &[f64], cfg: ModeDetectConfig) -> Option<ModalModel> {
    if data.len() < 32 {
        return None;
    }
    let s = Summary::from_slice(data);
    if s.max() <= s.min() {
        return None;
    }
    let kde = Kde::new(data);
    let pad = 0.05 * (s.max() - s.min());
    let (lo, hi) = (s.min() - pad, s.max() + pad);
    let peaks = kde.peaks(lo, hi, cfg.grid, cfg.min_peak_height);
    if peaks.is_empty() {
        // Flat-ish density; treat as a single mode.
        return Some(single_mode(data));
    }

    // Valleys between consecutive peaks.
    let mut boundaries: Vec<f64> = peaks
        .windows(2)
        .map(|w| kde.valley(w[0], w[1], cfg.grid / 2))
        .collect();

    // Assign observations to modes and fit each.
    let mut model = fit_modes(data, &boundaries);

    // Merge ultra-light modes into neighbours until all meet min_weight.
    while let Some(idx) = model.modes.iter().position(|m| m.weight < cfg.min_weight) {
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
    Some(model)
}

fn single_mode(data: &[f64]) -> ModalModel {
    let s = Summary::from_slice(data);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Mixture, MixtureComponent};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    impl ModalModel {
        /// Index of the mode containing `x` (by the valley boundaries).
        pub(crate) fn mode_of(&self, x: f64) -> usize {
            self.boundaries.partition_point(|&b| b < x)
        }

        /// The single-mode stochastic value for the mode containing `x` — what
        /// Platform 1's predictor uses when "load values remain within a single
        /// mode for the duration of the application execution time".
        pub(crate) fn stochastic_for(&self, x: f64) -> StochasticValue {
            self.modes[self.mode_of(x)].stochastic()
        }

        /// The equivalent mixture distribution.
        pub(crate) fn to_mixture(&self) -> Mixture {
            Mixture::new(
                self.modes
                    .iter()
                    .map(|m| MixtureComponent {
                        weight: m.weight,
                        normal: m.normal,
                    })
                    .collect(),
            )
        }
    }

    fn figure5_trace(n: usize, seed: u64) -> Vec<f64> {
        let mix =
            Mixture::from_triples(&[(0.35, 0.94, 0.02), (0.40, 0.49, 0.04), (0.25, 0.33, 0.02)]);
        let mut rng = StdRng::seed_from_u64(seed);
        mix.sample_n(&mut rng, n)
    }

    #[test]
    fn detects_figure5_three_modes() {
        let data = figure5_trace(8000, 1);
        let model = detect_modes(&data, Default::default()).unwrap();
        assert_eq!(model.modes().len(), 3, "{model:?}");
        let means: Vec<f64> = model.modes().iter().map(|m| m.normal.mu()).collect();
        assert!((means[0] - 0.33).abs() < 0.05);
        assert!((means[1] - 0.49).abs() < 0.05);
        assert!((means[2] - 0.94).abs() < 0.05);
        // Weights approximately recover the mixture proportions.
        let w: Vec<f64> = model.modes().iter().map(|m| m.weight).collect();
        assert!((w[0] - 0.25).abs() < 0.05);
        assert!((w[1] - 0.40).abs() < 0.05);
        assert!((w[2] - 0.35).abs() < 0.05);
    }

    #[test]
    fn mode_of_respects_boundaries() {
        let data = figure5_trace(8000, 2);
        let model = detect_modes(&data, Default::default()).unwrap();
        assert_eq!(model.mode_of(0.30), 0);
        assert_eq!(model.mode_of(0.50), 1);
        assert_eq!(model.mode_of(0.95), 2);
    }

    #[test]
    fn stochastic_for_center_mode_matches_platform1() {
        // Platform 1: "the load ... was in the center mode, with a mean of
        // 0.48. Two standard deviations ... gave us a stochastic load value
        // of 0.48 ± 0.05."
        let data = figure5_trace(8000, 3);
        let model = detect_modes(&data, Default::default()).unwrap();
        let sv = model.stochastic_for(0.48);
        assert!((sv.mean() - 0.49).abs() < 0.05, "{sv}");
        assert!(sv.half_width() < 0.12, "{sv}");
    }

    #[test]
    fn unimodal_data_gives_single_mode() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = crate::dist::Normal::new(0.5, 0.05).sample_n(&mut rng, 2000);
        let model = detect_modes(&data, Default::default()).unwrap();
        assert_eq!(model.modes().len(), 1);
        assert!((model.modes()[0].normal.mu() - 0.5).abs() < 0.01);
        assert_eq!(model.modes()[0].weight, 1.0);
    }

    #[test]
    fn weighted_average_formula() {
        let data = figure5_trace(8000, 5);
        let model = detect_modes(&data, Default::default()).unwrap();
        let avg = model.weighted_average();
        let manual_mean: f64 = model.modes().iter().map(|m| m.weight * m.normal.mu()).sum();
        assert!((avg.mean() - manual_mean).abs() < 1e-12);
    }

    #[test]
    fn to_mixture_round_trips_weights() {
        let data = figure5_trace(8000, 6);
        let model = detect_modes(&data, Default::default()).unwrap();
        let mix = model.to_mixture();
        assert_eq!(mix.n_modes(), model.modes().len());
        let total: f64 = mix.components().iter().map(|c| c.weight).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn too_little_or_degenerate_data() {
        assert!(detect_modes(&[1.0; 10], Default::default()).is_none());
        assert!(detect_modes(&[2.0; 100], Default::default()).is_none());
    }
}
