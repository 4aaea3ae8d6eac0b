//! The binned detector against the walking KDE it replaced: the same
//! frame, the walking `Kde::peaks` on the 512-point grid and its
//! `Kde::valley` on 256 points between each pair of peaks, then the same
//! split and merge. Over a corpus of modal mixes and one of load spikes
//! both must find the same peaks, bit for bit, and the same number of
//! modes on every history, the same weighted mean (1e-12 relative: the
//! occupancy-weighted mean of any split is the overall mean), and a
//! half-width within `HALF_WIDTH_TOL`.

use super::{Frame, ModalModel, GRID, MIN_PEAK_HEIGHT};
use crate::fit::kde::{BinnedKde, Kde};
use crate::fit::{detect_modes, modal_samples, FIGURE5_MODES};

/// The walking detector, what `detect_modes` computed before binning, and
/// the peaks it found.
fn detect_modes_walking(data: &[f64]) -> (ModalModel, Vec<f64>) {
    let frame = Frame::of(data).expect("a modal history");
    let kde = Kde::with_bandwidth(data, frame.bandwidth);
    let peaks = kde.peaks(frame.lo, frame.hi, GRID, MIN_PEAK_HEIGHT);
    let boundaries = peaks
        .windows(2)
        .map(|w| kde.valley(w[0], w[1], GRID / 2))
        .collect();
    (frame.split(data, peaks.is_empty(), boundaries), peaks)
}

/// The binned detector's peaks, as grid points.
fn binned_peaks(data: &[f64]) -> Vec<f64> {
    let frame = Frame::of(data).expect("a modal history");
    let step = (frame.hi - frame.lo) / (GRID - 1) as f64;
    BinnedKde::new(data, frame.bandwidth, frame.lo, frame.hi, GRID)
        .peaks(MIN_PEAK_HEIGHT)
        .into_iter()
        .map(|i| frame.lo + i as f64 * step)
        .collect()
}

/// Platform 2's four modes as `(weight, mean, sd)`
/// (`simgrid::load::MarkovModal::platform2`).
const PLATFORM2_MODES: [(f64, f64, f64); 4] = [
    (0.30, 0.95, 0.02),
    (0.25, 0.63, 0.03),
    (0.25, 0.45, 0.03),
    (0.20, 0.25, 0.02),
];
/// Two modes 3.3 sd apart: one mode or two, depending on the history.
const CLOSE_MODES: [(f64, f64, f64); 2] = [(0.5, 0.45, 0.03), (0.5, 0.55, 0.03)];
/// The unimodal control.
const ONE_MODE: [(f64, f64, f64); 1] = [(1.0, 0.5, 0.05)];

/// Retained-history lengths: warm-up to a full sensor ring.
const HISTORIES: [usize; 7] = [32, 64, 120, 400, 1000, 2880, 4096];
const SEEDS: u64 = 200;

/// Largest relative move of the half-width `Σ P_i 2 SD_i` allowed.
const HALF_WIDTH_TOL: f64 = 0.05;

/// The largest gaps seen, over every history compared.
#[derive(Debug, Default)]
struct Agreement {
    histories: usize,
    modes: usize,
    half_width: f64,
    valley_steps: f64,
}

impl Agreement {
    fn compare(&mut self, data: &[f64], what: &str) {
        let binned = detect_modes(data).expect("binned modes");
        let (walking, peaks) = detect_modes_walking(data);
        assert_eq!(binned_peaks(data), peaks, "{what}: peaks");
        assert_eq!(
            binned.modes().len(),
            walking.modes().len(),
            "{what}: mode count\nbinned {binned:?}\nwalking {walking:?}"
        );
        let (b, w) = (binned.weighted_average(), walking.weighted_average());
        let mean_err = (b.mean() - w.mean()).abs() / w.mean().abs();
        assert!(
            mean_err <= 1e-12,
            "{what}: mean {} vs {}",
            b.mean(),
            w.mean()
        );
        let half = (b.half_width() - w.half_width()).abs() / w.half_width();
        assert!(
            half <= HALF_WIDTH_TOL,
            "{what}: half-width {} vs {}",
            b.half_width(),
            w.half_width()
        );
        let frame = Frame::of(data).expect("frame");
        let step = (frame.hi - frame.lo) / (GRID - 1) as f64;
        for (x, y) in binned.boundaries.iter().zip(&walking.boundaries) {
            self.valley_steps = self.valley_steps.max((x - y).abs() / step);
        }
        self.histories += 1;
        self.modes += binned.modes().len();
        self.half_width = self.half_width.max(half);
    }
}

/// Every history of `modes` the corpus draws, all seeds at every length.
fn agree_on(name: &str, modes: &[(f64, f64, f64)]) {
    for h in HISTORIES {
        let mut seen = Agreement::default();
        for seed in 0..SEEDS {
            let data = modal_samples(modes, seed, h);
            seen.compare(&data, &format!("{name} seed {seed} H {h}"));
        }
        eprintln!("{name} H {h}: {seen:?}");
    }
}

// One test per mix, so the harness spreads the corpus over its threads.

#[test]
fn binned_modes_match_the_walking_kde_on_figure5() {
    agree_on("figure5", &FIGURE5_MODES);
}

#[test]
fn binned_modes_match_the_walking_kde_on_platform2() {
    agree_on("platform2", &PLATFORM2_MODES);
}

#[test]
fn binned_modes_match_the_walking_kde_on_close_modes() {
    agree_on("close", &CLOSE_MODES);
}

#[test]
fn binned_modes_match_the_walking_kde_on_one_mode() {
    agree_on("one", &ONE_MODE);
}

#[test]
fn binned_modes_match_the_walking_kde_on_load_spikes() {
    for spike in [2.0, 5.0, 50.0] {
        for every in [10, 100, 500] {
            let mut seen = Agreement::default();
            for h in HISTORIES {
                for seed in 0..SEEDS / 10 {
                    let mut data = modal_samples(&FIGURE5_MODES, seed, h);
                    for x in data.iter_mut().skip(every - 1).step_by(every) {
                        *x = spike;
                    }
                    seen.compare(
                        &data,
                        &format!("spike {spike} every {every} seed {seed} H {h}"),
                    );
                }
            }
            eprintln!("spike {spike} every {every}: {seen:?}");
        }
    }
}
