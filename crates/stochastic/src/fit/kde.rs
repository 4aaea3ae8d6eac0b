//! Gaussian kernel density estimation, used by the mode detector to find
//! the peaks and valleys of load histograms like the paper's Figures 5
//! and 10.
//!
//! The detector reads the density on a uniform grid. [`BinnedKde`] gets
//! it without walking every sample at every grid point ("fast computation
//! of kernel estimators by binning": Silverman 1982; Wand 1994, JCGS
//! 3:433). The samples are binned linearly onto the grid in O(H), and the
//! bin weights are convolved with a table of `φ(d·step/h)` truncated at
//! ±9h, in O(grid · reach) with no per-sample `exp`.
//!
//! Binning moves each sample's kernel onto its chord between two grid
//! nodes, so every binned value, and every difference of neighbours, has
//! an error bound: one for the whole grid, and a tighter one at each point
//! from the bins within reach. A peak or valley test the bounds settle is
//! read off the binned values. The few they leave marginal (a peak's top,
//! a valley's floor, a shoulder at a hair's height) are decided by the
//! exact density at those points, O(H) each, the very sum the walking KDE
//! takes. So the peaks are the walking KDE's; valleys are taken on the
//! same 512-point grid, where it took 256 points between two peaks. That
//! walking KDE (`Kde`, `grid × H` calls to `exp`) is the test-side oracle.

use crate::special::std_normal_pdf;
use crate::stats::{quantile_sorted, Summary};

/// Kernels reach this many bandwidths either side; `φ(9) < 1.1e-18`.
const REACH_BANDWIDTHS: f64 = 9.0;

/// At most this many near-minimal grid points of a valley are settled by
/// the exact density. More means a stretch the data leaves empty, where
/// any point splits the data alike.
const VALLEY_EXACT_MAX: usize = 8;

/// Silverman's rule-of-thumb bandwidth `0.9 * min(sd, IQR/1.34) * n^(-1/5)`
/// of `data`, whose summary is `s`.
///
/// # Panics
///
/// Panics if `data` is empty.
pub(crate) fn silverman_bandwidth(data: &[f64], s: &Summary) -> f64 {
    assert!(!data.is_empty(), "KDE needs data");
    let (q1, q3) = quartiles(data);
    let iqr = q3 - q1;
    let spread = if iqr > 0.0 {
        s.sd().min(iqr / 1.34)
    } else {
        s.sd()
    };
    let bw = if spread > 0.0 {
        0.9 * spread * (data.len() as f64).powf(-0.2)
    } else {
        // Degenerate data: any positive bandwidth gives a point bump.
        1e-9_f64.max(s.mean().abs() * 1e-9)
    };
    bw.max(f64::MIN_POSITIVE)
}

/// The lower and upper quartiles of nonempty `data`, as
/// [`quantile_sorted`] reads them off a sorted copy. It reads at most four
/// ranks, so a copy with just those ranks in their sorted places will do:
/// each `select_nth_unstable_by` places one in O(H). `total_cmp` is a
/// total order, so the value at a rank, bits and all, is the sort's.
fn quartiles(data: &[f64]) -> (f64, f64) {
    let mut ranked = data.to_vec();
    let last = (ranked.len() - 1) as f64;
    // Descending, so each selection only reorders what lies below the
    // rank placed before it.
    let ranks = [0.75, 0.25].map(|q: f64| [(q * last).ceil(), (q * last).floor()]);
    let mut placed = ranked.len();
    for rank in ranks.into_iter().flatten().map(|r| r as usize) {
        if rank < placed {
            ranked[..placed].select_nth_unstable_by(rank, f64::total_cmp);
            placed = rank;
        }
    }
    (
        quantile_sorted(&ranked, 0.25),
        quantile_sorted(&ranked, 0.75),
    )
}

/// The KDE's exact density at `x`, bandwidth `h`: one kernel per sample.
fn density_at(data: &[f64], h: f64, x: f64) -> f64 {
    let sum: f64 = data.iter().map(|&xi| std_normal_pdf((x - xi) / h)).sum();
    sum / (data.len() as f64 * h)
}

/// A Gaussian KDE binned onto a uniform grid of `n` points over
/// `[lo, hi]`, with the exact density at the points the binned one leaves
/// undecided.
#[derive(Debug, Clone)]
pub(crate) struct BinnedKde<'a> {
    data: &'a [f64],
    bandwidth: f64,
    lo: f64,
    step: f64,
    /// Each grid point's share of the samples, after linear binning.
    weights: Vec<f64>,
    /// The binned density at each grid point.
    binned: Vec<f64>,
    /// Where the binned density peaks, and its value there.
    argmax: usize,
    binned_max: f64,
    /// Per-bin bounds on the binning error of a value (`value_table`) and
    /// of the difference between neighbours (`slope_table`), by distance.
    value_table: Vec<f64>,
    slope_table: Vec<f64>,
    /// Bounds on the same two errors anywhere on the grid.
    value_tol: f64,
    slope_tol: f64,
    /// What truncation and rounding add to a local bound.
    floor: f64,
    /// The exact density at the grid points asked for so far.
    exact: Vec<Option<f64>>,
    /// The exact grid maximum, once asked for.
    exact_max: Option<f64>,
}

impl<'a> BinnedKde<'a> {
    /// Bins `data` onto `n` points over `[lo, hi]` and convolves the bins
    /// with the kernel of bandwidth `bandwidth`.
    ///
    /// # Panics
    ///
    /// Panics unless `data` is nonempty and lies in `[lo, hi]`, `n >= 2`,
    /// `hi > lo` and `bandwidth > 0`.
    pub(crate) fn new(data: &'a [f64], bandwidth: f64, lo: f64, hi: f64, n: usize) -> Self {
        assert!(!data.is_empty(), "KDE needs data");
        assert!(n >= 2 && hi > lo && bandwidth > 0.0);
        let step = (hi - lo) / (n - 1) as f64;
        let mut weights = vec![0.0; n];
        for &x in data {
            assert!((lo..=hi).contains(&x), "sample {x} outside [{lo}, {hi}]");
            // In [0, n - 1] by the assert, so the cast neither saturates
            // nor drops a sign; the last node bins onto the last interval.
            let pos = (x - lo) / step;
            let j = (pos as usize).min(n - 2);
            let frac = pos - j as f64;
            weights[j] += 1.0 - frac;
            weights[j + 1] += frac;
        }
        // Distances are in bandwidths: grid node d is d·ratio from node 0.
        let ratio = step / bandwidth;
        // One node more than 9h, so a sample binned a node short of the
        // table's end is still 9h from the point it no longer reaches.
        // The cast saturates for a bandwidth far wider than the grid.
        let reach = ((REACH_BANDWIDTHS / ratio).ceil() as usize)
            .saturating_add(1)
            .min(n - 1);
        let norm = 1.0 / (data.len() as f64 * bandwidth);
        let table: Vec<f64> = (0..=reach)
            .map(|d| std_normal_pdf(d as f64 * ratio) * norm)
            .collect();
        let reversed: Vec<f64> = table[1..].iter().rev().copied().collect();
        let mut binned = vec![0.0; n];
        convolve(&weights, &table, &reversed, &mut binned);
        let (argmax, binned_max) = binned.iter().copied().enumerate().fold(
            (0, 0.0),
            |(k, m), (i, d)| if d > m { (i, d) } else { (k, m) },
        );

        // Binning reads each sample's kernel off its chord between the two
        // nodes the sample was binned to. A chord over one step misses a
        // function by at most step²/8 times its largest |second
        // derivative| there. So a value is off by at most step²/8·|K''|
        // over the sample's distances d ± 1 nodes, and a difference of
        // neighbours (the chord's slope error summed over one step) by
        // step³/8·|K'''| over d ± 2 nodes. K(u) is φ(u/h)·norm, so the
        // bound of derivative order k is ratio^k/8·|φ^(k)|·norm.
        let bound_table = |derivative: fn(f64) -> f64, critical: &[f64], order: usize| {
            let scale = ratio.powi(order as i32) / 8.0 * norm;
            let pad = order - 1;
            (0..=reach)
                .map(|d| {
                    let a = d.saturating_sub(pad) as f64 * ratio;
                    let b = (d + pad) as f64 * ratio;
                    let inside = critical.iter().copied().filter(|&c| a < c && c < b);
                    let largest = inside
                        .chain([a, b])
                        .fold(0.0_f64, |m, v| m.max(derivative(v).abs()));
                    scale * largest
                })
                .collect::<Vec<f64>>()
        };
        let value_table = bound_table(pdf_d2, &PDF_D2_CRITICAL, 2);
        let slope_table = bound_table(pdf_d3, &PDF_D3_CRITICAL, 3);
        // Every sample at the table's largest entry: the grid-wide bounds.
        let samples = data.len() as f64;
        let largest = |table: &[f64]| samples * table.iter().copied().fold(0.0, f64::max);
        let interp = largest(&value_table);
        // A sample past the table's reach is dropped, at most φ(9)/h in all
        // (twice that for one binned across the table's edge), and both
        // sums round by at most (H + 2·reach + 4) ulps of the tallest value.
        let truncation = 2.0 * std_normal_pdf(REACH_BANDWIDTHS) / bandwidth;
        let ulps = 2.0 * (data.len() + 2 * reach + 4) as f64 * f64::EPSILON;
        let floor = truncation + ulps * (binned_max + interp);
        let value_tol = interp + floor;
        let slope_tol = largest(&slope_table) + 2.0 * floor;
        Self {
            data,
            bandwidth,
            lo,
            step,
            weights,
            binned,
            argmax,
            binned_max,
            value_table,
            slope_table,
            value_tol,
            slope_tol,
            floor,
            exact: vec![None; n],
            exact_max: None,
        }
    }

    /// The `i`th grid point.
    fn x(&self, i: usize) -> f64 {
        self.lo + i as f64 * self.step
    }

    /// The exact density at grid point `i`, computed once.
    fn exact(&mut self, i: usize) -> f64 {
        if let Some(d) = self.exact[i] {
            return d;
        }
        let d = density_at(self.data, self.bandwidth, self.x(i));
        self.exact[i] = Some(d);
        d
    }

    /// The local bound at grid point `i` from a per-distance `table`:
    /// `Σ_j weights[j] · table[|i − j|]`, plus truncation and rounding.
    fn local(&self, table: &[f64], i: usize) -> f64 {
        let reach = table.len() - 1;
        let start = i.saturating_sub(reach);
        let end = (i + reach + 1).min(self.weights.len());
        let sum: f64 = (start..end)
            .map(|j| self.weights[j] * table[j.abs_diff(i)])
            .sum();
        sum + self.floor
    }

    /// `|binned − exact|` at grid point `i` is at most this.
    fn value_slack(&self, i: usize) -> f64 {
        self.local(&self.value_table, i)
    }

    /// The binned difference between grid points `i - 1` and `i` is within
    /// this of the exact one; the pair's two values add a second floor.
    fn slope_slack(&self, i: usize) -> f64 {
        self.local(&self.slope_table, i) + self.floor
    }

    /// The exact grid maximum. Every grid point whose exact density can
    /// reach the binned maximum's least exact value is a candidate; the
    /// exact argmax is one of them.
    fn exact_max(&mut self) -> f64 {
        if let Some(m) = self.exact_max {
            return m;
        }
        let at_least = self.binned_max - self.value_slack(self.argmax);
        let prefilter = self.binned_max - 2.0 * self.value_tol;
        let near: Vec<usize> = (0..self.binned.len())
            .filter(|&k| self.binned[k] >= prefilter)
            .filter(|&k| self.binned[k] + self.value_slack(k) >= at_least)
            .collect();
        let m = near.into_iter().fold(0.0_f64, |m, k| m.max(self.exact(k)));
        self.exact_max = Some(m);
        m
    }

    /// Whether the exact density at `i` is at least `min_height` times the
    /// exact grid maximum.
    fn tall(&mut self, i: usize, min_height: f64) -> bool {
        let margin = self.binned[i] - min_height * self.binned_max;
        // The exact maximum is within `value_tol` of the binned one.
        let max_slack = min_height * self.value_tol;
        settled(margin, self.value_tol + max_slack)
            .or_else(|| settled(margin, self.value_slack(i) + max_slack))
            .unwrap_or_else(|| {
                let max = self.exact_max();
                self.exact(i) >= min_height * max
            })
    }

    /// Whether the exact density at `i` exceeds (`strict`) or at least
    /// equals that at its neighbour `j`.
    fn above(&mut self, i: usize, j: usize, strict: bool) -> bool {
        let margin = self.binned[i] - self.binned[j];
        settled(margin, self.slope_tol)
            .or_else(|| settled(margin, self.slope_slack(i.max(j))))
            .unwrap_or_else(|| {
                let (di, dj) = (self.exact(i), self.exact(j));
                di > dj || (!strict && di == dj)
            })
    }

    /// Interior local maxima of the density on the grid — candidate
    /// modes: `d[i] > d[i-1]`, `d[i] >= d[i+1]` and `d[i]` at least
    /// `min_height` times the grid maximum, each as the exact density
    /// decides it. Each test is read off the binned values when the
    /// bound on their error settles it: first the grid-wide bound, then
    /// the one local to the point, and the exact density only when
    /// neither does.
    pub(crate) fn peaks(&mut self, min_height: f64) -> Vec<usize> {
        // The height test first: it settles the long low stretches, where
        // neighbours differ by less than any bound, from the binned values.
        (1..self.binned.len() - 1)
            .filter(|&i| {
                self.tall(i, min_height)
                    && self.above(i, i - 1, true)
                    && self.above(i, i + 1, false)
            })
            .collect()
    }

    /// The first grid point of least density in `a..=b`: the valley that
    /// splits the modes peaking at grid points `a` and `b`.
    pub(crate) fn valley(&mut self, a: usize, b: usize) -> f64 {
        assert!(a < b && b < self.binned.len());
        let min = self.binned[a..=b]
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min);
        let first_min = (a..=b).find(|&k| self.binned[k] == min).unwrap_or(a);
        // Candidates for the exact minimum: any point whose exact density
        // can be as low as the least any point's can be high.
        let prefilter = min + 2.0 * self.value_tol;
        let near: Vec<(usize, f64)> = (a..=b)
            .filter(|&k| self.binned[k] <= prefilter)
            .map(|k| (k, self.value_slack(k)))
            .collect();
        let at_most = near
            .iter()
            .fold(f64::INFINITY, |m, &(k, s)| m.min(self.binned[k] + s));
        let near: Vec<usize> = near
            .into_iter()
            .filter(|&(k, s)| self.binned[k] - s <= at_most)
            .map(|(k, _)| k)
            .collect();
        if near.len() > VALLEY_EXACT_MAX {
            return self.x(first_min);
        }
        let mut best = near[0];
        let mut best_d = self.exact(best);
        for &k in &near[1..] {
            let d = self.exact(k);
            if d < best_d {
                (best, best_d) = (k, d);
            }
        }
        self.x(best)
    }
}

/// The sign of `margin`, when it clears `slack`.
fn settled(margin: f64, slack: f64) -> Option<bool> {
    (margin.abs() > slack).then_some(margin > 0.0)
}

/// `φ''(v) = (v² − 1)·φ(v)`.
fn pdf_d2(v: f64) -> f64 {
    (v * v - 1.0) * std_normal_pdf(v)
}

/// `|φ''|` on `v >= 0` peaks at these points (and the ends of a span).
const PDF_D2_CRITICAL: [f64; 2] = [0.0, 1.732_050_807_568_877_2];

/// `φ'''(v) = (3v − v³)·φ(v)`.
fn pdf_d3(v: f64) -> f64 {
    (3.0 - v * v) * v * std_normal_pdf(v)
}

/// `|φ'''|` on `v >= 0` peaks at `√(3 ∓ √6)` (and the ends of a span).
const PDF_D3_CRITICAL: [f64; 2] = [0.741_963_784_302_725_9, 2.334_414_218_338_977_4];

/// `out[i] += Σ_j weights[j] · table[|i − j|]` over `|i − j| <= reach`,
/// where `table` holds `reach + 1` entries and `reversed` is
/// `table[1..]` reversed. Each nonempty bin adds its scaled kernel as two
/// contiguous slice loops, the forward table to its right and the
/// reversed one to its left; no output depends on another, so both
/// compile to packed arithmetic.
// Its own function on purpose: CI greps its body for packed `mulpd`.
#[inline(never)]
fn convolve(weights: &[f64], table: &[f64], reversed: &[f64], out: &mut [f64]) {
    let n = out.len();
    let reach = table.len() - 1;
    assert!(weights.len() == n && reversed.len() == reach);
    for (j, &w) in weights.iter().enumerate() {
        // An empty bin adds nothing; load histograms have long empty
        // stretches between their modes.
        if w <= 0.0 {
            continue;
        }
        let right = &mut out[j..n.min(j + reach + 1)];
        for (o, &k) in right.iter_mut().zip(table) {
            *o += w * k;
        }
        let left_len = j.min(reach);
        let left = &mut out[j - left_len..j];
        for (o, &k) in left.iter_mut().zip(&reversed[reach - left_len..]) {
            *o += w * k;
        }
    }
}

/// The walking KDE: every sample at every grid point, `grid × H` calls
/// to `exp`. The oracle [`BinnedKde`] and the mode detector are held to.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct Kde<'a> {
    data: &'a [f64],
    bandwidth: f64,
}

#[cfg(test)]
impl<'a> Kde<'a> {
    /// Builds a KDE with Silverman's bandwidth; `s` is `data`'s summary.
    pub(crate) fn new(data: &'a [f64], s: &Summary) -> Self {
        Self::with_bandwidth(data, silverman_bandwidth(data, s))
    }

    /// Builds a KDE with an explicit bandwidth.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `bandwidth <= 0`.
    pub(crate) fn with_bandwidth(data: &'a [f64], bandwidth: f64) -> Self {
        assert!(!data.is_empty(), "KDE needs data");
        assert!(bandwidth > 0.0, "KDE bandwidth must be positive");
        Self { data, bandwidth }
    }

    /// Density estimate at `x`.
    pub(crate) fn density(&self, x: f64) -> f64 {
        density_at(self.data, self.bandwidth, x)
    }

    /// Evaluates the density on a uniform grid of `n` points over
    /// `[lo, hi]`, returning `(x, density)` pairs.
    pub(crate) fn grid(&self, lo: f64, hi: f64, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2 && hi > lo);
        let step = (hi - lo) / (n - 1) as f64;
        (0..n)
            .map(|i| {
                let x = lo + i as f64 * step;
                (x, self.density(x))
            })
            .collect()
    }

    /// Local maxima of the gridded density — candidate modes. Peaks below
    /// `min_height` times the global maximum are ignored as noise.
    pub(crate) fn peaks(&self, lo: f64, hi: f64, n: usize, min_height: f64) -> Vec<f64> {
        let g = self.grid(lo, hi, n);
        let max_d = g.iter().map(|&(_, d)| d).fold(0.0, f64::max);
        let mut out = Vec::new();
        for w in g.windows(3) {
            let [(_, d0), (x1, d1), (_, d2)] = [w[0], w[1], w[2]];
            if d1 > d0 && d1 >= d2 && d1 >= min_height * max_d {
                out.push(x1);
            }
        }
        out
    }

    /// The minimum-density point between `a` and `b` — the valley used to
    /// split modal data.
    pub(crate) fn valley(&self, a: f64, b: f64, n: usize) -> f64 {
        assert!(b > a && n >= 2);
        let g = self.grid(a, b, n);
        g.iter()
            .min_by(|p, q| p.1.total_cmp(&q.1))
            .map_or(a, |&(x, _)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Distribution, Normal};
    use crate::fit::{modal_samples, FIGURE5_MODES};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn density_integrates_to_one() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Normal::new(0.0, 1.0).sample_n(&mut rng, 500);
        let kde = Kde::new(&data, &Summary::from_slice(&data));
        let g = kde.grid(-6.0, 6.0, 1200);
        let step = 12.0 / 1199.0;
        let integral: f64 = g.iter().map(|&(_, d)| d * step).sum();
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn unimodal_data_gives_one_peak() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Normal::new(5.0, 0.5).sample_n(&mut rng, 2000);
        let kde = Kde::new(&data, &Summary::from_slice(&data));
        let peaks = kde.peaks(3.0, 7.0, 400, 0.2);
        assert_eq!(peaks.len(), 1, "peaks {peaks:?}");
        assert!((peaks[0] - 5.0).abs() < 0.2);
    }

    #[test]
    fn trimodal_load_gives_three_peaks() {
        // Figure 5's regime.
        let data = modal_samples(&FIGURE5_MODES, 3, 6000);
        let kde = Kde::new(&data, &Summary::from_slice(&data));
        let peaks = kde.peaks(0.0, 1.2, 600, 0.1);
        assert_eq!(peaks.len(), 3, "peaks {peaks:?}");
        assert!((peaks[0] - 0.33).abs() < 0.06);
        assert!((peaks[1] - 0.49).abs() < 0.06);
        assert!((peaks[2] - 0.94).abs() < 0.06);
    }

    #[test]
    fn valley_lies_between_modes() {
        let data = modal_samples(&[(0.5, 0.2, 0.03), (0.5, 0.8, 0.03)], 4, 4000);
        let kde = Kde::new(&data, &Summary::from_slice(&data));
        let v = kde.valley(0.2, 0.8, 300);
        assert!(v > 0.3 && v < 0.7, "valley {v}");
    }

    /// A binned KDE over `data` on the detector's padded 512-point grid.
    fn binned(data: &[f64]) -> BinnedKde<'_> {
        let s = Summary::from_slice(data);
        let pad = 0.05 * (s.max() - s.min());
        let h = silverman_bandwidth(data, &s);
        BinnedKde::new(data, h, s.min() - pad, s.max() + pad, 512)
    }

    #[test]
    fn binned_density_is_within_its_bounds() {
        let mut spiky = modal_samples(&FIGURE5_MODES, 10, 2880);
        for x in spiky.iter_mut().step_by(100) {
            *x = 50.0;
        }
        let corpora = [
            modal_samples(&FIGURE5_MODES, 7, 2880),
            modal_samples(&FIGURE5_MODES, 8, 40),
            modal_samples(&[(0.5, 0.45, 0.03), (0.5, 0.55, 0.03)], 9, 400),
            spiky,
        ];
        for data in &corpora {
            let mut kde = binned(data);
            for i in 0..512 {
                let value = kde.value_slack(i);
                assert!(value <= kde.value_tol);
                assert!(
                    (kde.binned[i] - kde.exact(i)).abs() <= value,
                    "H {} point {i}",
                    data.len()
                );
                if i > 0 {
                    let slope = kde.slope_slack(i);
                    assert!(slope <= kde.slope_tol);
                    let binned = kde.binned[i] - kde.binned[i - 1];
                    let exact = kde.exact(i) - kde.exact(i - 1);
                    assert!((binned - exact).abs() <= slope, "H {} pair {i}", data.len());
                }
            }
        }
        // Where the grid resolves the bandwidth the bound is tight enough to
        // decide nearly every point from the binned values alone.
        let kde = binned(&corpora[0]);
        assert!(
            kde.value_tol < 1e-3 * kde.binned_max,
            "{} of {}",
            kde.value_tol,
            kde.binned_max
        );
    }

    #[test]
    fn convolve_matches_the_direct_sum() {
        let weights: Vec<f64> = (0..40).map(|j| f64::from(j % 7) * 0.25).collect();
        for reach in [1, 5, 39] {
            let table: Vec<f64> = (0..=reach).map(|d| 1.0 / (1.0 + d as f64)).collect();
            let reversed: Vec<f64> = table[1..].iter().rev().copied().collect();
            let mut out = vec![0.0; 40];
            convolve(&weights, &table, &reversed, &mut out);
            for (i, &o) in out.iter().enumerate() {
                let direct: f64 = (0..40)
                    .filter(|j| i.abs_diff(*j) <= reach)
                    .map(|j| weights[j] * table[i.abs_diff(j)])
                    .sum();
                assert!(
                    (o - direct).abs() <= 1e-12 * direct.max(1.0),
                    "reach {reach} at {i}"
                );
            }
        }
    }

    #[test]
    fn explicit_bandwidth_respected() {
        let kde = Kde::with_bandwidth(&[1.0, 2.0], 0.5);
        assert_eq!(kde.bandwidth, 0.5);
    }

    #[test]
    #[should_panic]
    fn empty_data_panics() {
        Kde::new(&[], &Summary::new());
    }

    /// A sample value: a small integer (heavy ties), a signed zero, or a
    /// real spread over a wide range.
    fn tied_or_spread() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::Strategy;
        (0u8..3, -4i32..5, -1e6f64..1e6).prop_map(|(kind, small, wide)| match kind {
            0 => f64::from(small),
            1 if small < 0 => -0.0,
            1 => 0.0,
            _ => wide,
        })
    }

    /// The oracle: both quartiles read off a fully sorted copy.
    fn sorted_quartiles(data: &[f64]) -> (u64, u64) {
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        (
            quantile_sorted(&sorted, 0.25).to_bits(),
            quantile_sorted(&sorted, 0.75).to_bits(),
        )
    }

    proptest::proptest! {
        #[test]
        fn quartiles_select_the_sorted_ranks(
            short in proptest::collection::vec(tied_or_spread(), 1..9),
            long in proptest::collection::vec(tied_or_spread(), 1..4097),
        ) {
            for data in [short, long] {
                let (q1, q3) = quartiles(&data);
                proptest::prop_assert_eq!((q1.to_bits(), q3.to_bits()), sorted_quartiles(&data));
            }
        }
    }
}
