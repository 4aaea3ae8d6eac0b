//! Summary statistics: numerically stable moments, order statistics, and
//! streaming accumulation.
//!
//! Fitting stochastic values to measured data (Section 2.1 of the paper)
//! needs means, standard deviations, medians, and quantiles of load traces,
//! bandwidth traces, and runtime histograms. Everything here is one-pass
//! (Welford / West) where possible so very long traces can be summarized
//! without a second sweep.

use serde::{Deserialize, Serialize};

/// Streaming moment accumulator (Welford's algorithm extended through the
/// fourth central moment), plus min/max tracking.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            m3: 0.0,
            m4: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates every element of `data`.
    pub fn from_slice(data: &[f64]) -> Self {
        let mut s = Self::new();
        for &x in data {
            s.push(x);
        }
        s
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "summary observation must be finite");
        let n1 = self.n as f64;
        self.n += 1;
        let n = self.n as f64;
        let delta = x - self.mean;
        let delta_n = delta / n;
        let delta_n2 = delta_n * delta_n;
        let term1 = delta * delta_n * n1;
        self.mean += delta_n;
        self.m4 += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * self.m2
            - 4.0 * delta_n * self.m3;
        self.m3 += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * self.m2;
        self.m2 += term1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Summary) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let delta2 = delta * delta;
        let delta3 = delta2 * delta;
        let delta4 = delta2 * delta2;

        let m4 = self.m4
            + other.m4
            + delta4 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * delta2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        let m3 = self.m3
            + other.m3
            + delta3 * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m2 = self.m2 + other.m2 + delta2 * na * nb / n;
        let mean = self.mean + delta * nb / n;

        self.n += other.n;
        self.mean = mean;
        self.m2 = m2;
        self.m3 = m3;
        self.m4 = m4;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean. Zero for an empty accumulator.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (`n - 1` denominator). Zero when `n < 2`.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n as f64 - 1.0)
        }
    }

    /// Population variance (`n` denominator). Zero when `n == 0`.
    pub(crate) fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Unbiased sample standard deviation.
    pub fn sd(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Skewness (`g1`, population form). Zero when undefined.
    pub fn skewness(&self) -> f64 {
        // tidy:allow(PP004): exact zero second moment means constant data
        if self.n < 2 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        (n.sqrt() * self.m3) / self.m2.powf(1.5)
    }

    /// Excess kurtosis (`g2`, population form). Zero when undefined.
    pub fn kurtosis(&self) -> f64 {
        // tidy:allow(PP004): exact zero second moment means constant data
        if self.n < 2 || self.m2 == 0.0 {
            return 0.0;
        }
        let n = self.n as f64;
        n * self.m4 / (self.m2 * self.m2) - 3.0
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// The count, mean and second central moment of a sample, and nothing
/// else: what the Monte-Carlo `max` reads. [`MeanVar::of`] forms them for
/// one chunk of maxima from shifted sums, with no divide per observation;
/// `merge` combines chunks with [`Summary::merge`]'s operations on `n`,
/// `mean` and `m2` (Chan's update).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MeanVar {
    n: u64,
    mean: f64,
    m2: f64,
}

impl MeanVar {
    /// The moments of `xs` from sums shifted by its first value `c`:
    /// `s1 = Σ(x − c)` and `s2 = Σ(x − c)²` are formed in one pass, then
    /// `mean = c + s1/n` and `m2 = s2 − s1²/n` once. The shift keeps the
    /// sums on the scale of the spread, not of the mean.
    pub(crate) fn of(xs: impl IntoIterator<Item = f64>) -> MeanVar {
        let mut xs = xs.into_iter();
        let Some(shift) = xs.next() else {
            return MeanVar::default();
        };
        let (mut n, mut s1, mut s2) = (1u64, 0.0, 0.0);
        for x in xs {
            let d = x - shift;
            n += 1;
            s1 += d;
            s2 += d * d;
        }
        debug_assert!(
            shift.is_finite() && s2.is_finite(),
            "summary observations must be finite"
        );
        let offset = s1 / n as f64;
        MeanVar {
            n,
            mean: shift + offset,
            m2: (s2 - s1 * offset).max(0.0),
        }
    }

    /// [`Summary::push`] on `n`, `mean` and `m2`: Welford's update, one
    /// dependent divide per observation. The oracle for the per-chunk
    /// accumulator of the Monte-Carlo `max`, [`MeanVar::of`].
    #[cfg(test)]
    pub(crate) fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "summary observation must be finite");
        let n1 = self.n as f64;
        self.n += 1;
        let delta = x - self.mean;
        let delta_n = delta / self.n as f64;
        self.mean += delta_n;
        self.m2 += delta * delta_n * n1;
    }

    /// [`Summary::merge`] on `n`, `mean` and `m2`.
    pub(crate) fn merge(&mut self, other: &MeanVar) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.n as f64, other.n as f64);
        let n = na + nb;
        let delta = other.mean - self.mean;
        self.m2 = self.m2 + other.m2 + delta * delta * na * nb / n;
        self.mean += delta * nb / n;
        self.n += other.n;
    }

    /// [`Summary::mean`].
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// [`Summary::sd`].
    pub(crate) fn sd(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n as f64 - 1.0)).sqrt()
        }
    }
}

/// Median of a sample. Returns `None` for an empty slice.
///
/// The median matters for long-tailed data, where the paper notes it sits
/// "several points below" the mean (Section 2.1.1).
pub fn median(data: &[f64]) -> Option<f64> {
    quantile(data, 0.5)
}

/// Linearly interpolated sample quantile (type-7, the common default).
/// Returns `None` for an empty slice.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
    if data.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(quantile_sorted(&sorted, q))
}

/// Quantile over data that is already sorted ascending.
pub(crate) fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let w = h - lo as f64;
        sorted[lo] * (1.0 - w) + sorted[hi] * w
    }
}

/// Sample autocorrelation at the given lag (biased, normalized by the
/// population variance): `r_k = sum (x_i - m)(x_{i+k} - m) / sum (x_i - m)^2`.
/// Returns `None` when the series is shorter than `lag + 2` or constant.
pub fn autocorrelation(data: &[f64], lag: usize) -> Option<f64> {
    if data.len() < lag + 2 {
        return None;
    }
    let s = Summary::from_slice(data);
    let var = s.population_variance();
    if var <= 0.0 {
        return None;
    }
    let m = s.mean();
    let mut num = 0.0;
    for i in 0..data.len() - lag {
        num += (data[i] - m) * (data[i + lag] - m);
    }
    Some(num / (data.len() as f64 * var))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic_moments() {
        let s = Summary::from_slice(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty_and_single() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.variance(), 0.0);
        let mut s1 = Summary::new();
        s1.push(3.5);
        assert_eq!(s1.mean(), 3.5);
        assert_eq!(s1.variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let all: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.731).sin() * 5.0 + 3.0)
            .collect();
        let whole = Summary::from_slice(&all);
        let mut a = Summary::from_slice(&all[..37]);
        let b = Summary::from_slice(&all[37..]);
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
        assert!((a.skewness() - whole.skewness()).abs() < 1e-8);
        assert!((a.kurtosis() - whole.kurtosis()).abs() < 1e-7);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::from_slice(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a.count(), before.count());
        assert_eq!(a.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 3);
        assert!((e.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn skewness_sign() {
        // Right-skewed data has positive skew.
        let right = Summary::from_slice(&[1.0, 1.0, 1.0, 1.0, 10.0]);
        assert!(right.skewness() > 0.0);
        let left = Summary::from_slice(&[10.0, 10.0, 10.0, 10.0, 1.0]);
        assert!(left.skewness() < 0.0);
    }

    #[test]
    fn kurtosis_of_uniformish_data_is_negative() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let s = Summary::from_slice(&data);
        // Uniform distribution has excess kurtosis -1.2.
        assert!((s.kurtosis() + 1.2).abs() < 0.05);
    }

    /// Any finite `f64`: half the time from its whole bit range (every
    /// exponent, subnormals, both zeros), half from a moderate range.
    fn finite() -> impl proptest::prelude::Strategy<Value = f64> {
        use proptest::prelude::*;
        (0u64..u64::MAX, -1e6f64..1e6, any::<bool>()).prop_map(|(bits, moderate, raw)| {
            let x = f64::from_bits(bits);
            if raw && x.is_finite() {
                x
            } else {
                moderate
            }
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn mean_var_carries_summary_bits(
            data in proptest::collection::vec(finite(), 0..48),
            cuts in proptest::collection::vec(0usize..49, 0..8),
        ) {
            // Chunks ending at the sorted cut points (repeats and ends make
            // empty and single-element chunks), merged in order into an
            // empty accumulator as the Monte-Carlo `max` merges its chunks.
            let mut ends: Vec<usize> = cuts.iter().map(|c| c % (data.len() + 1)).collect();
            ends.push(data.len());
            ends.sort_unstable();
            let (mut whole, mut reference) = (MeanVar::default(), Summary::new());
            let mut start = 0;
            for end in ends {
                let (mut part, mut part_ref) = (MeanVar::default(), Summary::new());
                for &x in &data[start..end] {
                    part.push(x);
                    part_ref.push(x);
                }
                proptest::prop_assert!(same(part.mean(), part_ref.mean()));
                proptest::prop_assert!(same(part.sd(), part_ref.sd()));
                whole.merge(&part);
                reference.merge(&part_ref);
                start = end;
            }
            proptest::prop_assert!(same(whole.mean(), reference.mean()));
            proptest::prop_assert!(same(whole.sd(), reference.sd()));
        }
    }

    /// Bit-equal, or both NaN: operands near `f64::MAX` overflow the
    /// moments, and a NaN's payload is not part of the result.
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let data = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(quantile(&data, 0.0), Some(10.0));
        assert_eq!(quantile(&data, 1.0), Some(50.0));
        assert_eq!(quantile(&data, 0.25), Some(20.0));
        assert_eq!(quantile(&data, 0.375), Some(25.0));
    }

    #[test]
    fn autocorrelation_of_white_noise_is_small() {
        let mut state = 99u64;
        let data: Vec<f64> = (0..4000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let r1 = autocorrelation(&data, 1).unwrap();
        assert!(r1.abs() < 0.05, "r1 {r1}");
    }

    #[test]
    fn autocorrelation_of_ar1_matches_phi() {
        // x_{t+1} = phi x_t + e_t has r_k = phi^k.
        let phi: f64 = 0.8;
        let mut x = 0.0;
        let mut state = 12345u64;
        let mut data = Vec::with_capacity(20_000);
        for _ in 0..20_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let u = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            x = phi * x + u;
            data.push(x);
        }
        let r1 = autocorrelation(&data, 1).unwrap();
        assert!((r1 - phi).abs() < 0.03, "r1 {r1}");
        let r3 = autocorrelation(&data, 3).unwrap();
        assert!((r3 - phi.powi(3)).abs() < 0.05, "r3 {r3}");
    }

    #[test]
    fn autocorrelation_degenerate_inputs() {
        assert!(autocorrelation(&[1.0, 2.0], 5).is_none());
        assert!(autocorrelation(&[3.0; 50], 1).is_none());
    }
}
