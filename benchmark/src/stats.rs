//! Percentiles, the ten-samples-beyond rule, a fixed-memory latency
//! histogram, and the spread the benchmark's bounds are judged by.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the sample at or below it. `None` on an empty slice.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len() as u64, p) as usize - 1])
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: u64, p: f64) -> u64 {
    ((p * n as f64 - 1e-9).ceil() as u64).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least ten samples beyond
/// it — the condition under which the benchmark reports it at all.
pub fn supported(n: u64, p: f64) -> bool {
    n > 0 && n - rank(n, p) >= 10
}

/// The highest of p99/p95/p90 that `n` samples support, if any.
pub fn highest_supported(n: u64) -> Option<f64> {
    [0.99, 0.95, 0.90].into_iter().find(|&p| supported(n, p))
}

/// Sorts a float sample and returns its nearest-rank percentile.
pub fn percentile_f64(samples: &mut [f64], p: f64) -> Option<f64> {
    samples.sort_by(f64::total_cmp);
    percentile(samples, p)
}

/// Median of a float sample (nearest rank); 0 when empty.
pub fn median(samples: &mut [f64]) -> f64 {
    percentile_f64(samples, 0.5).unwrap_or(0.0)
}

/// Mean of the lower half of the sample. The values are repeats of one
/// measurement under interference that only ever adds time (another tenant
/// of the host on the core, a stalled thread), so the quiet half shows the
/// program and the rest its neighbours. A mean keeps fractional digits, so
/// a quantised timing does not read identically on every run.
pub fn lowmean(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let low = &samples[..samples.len().div_ceil(2)];
    low.iter().sum::<f64>() / low.len() as f64
}

/// `(q1, median, q3)` as Python's `statistics.quantiles(values, n=4)`
/// (the exclusive method) gives them. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median: the spread the driver
/// holds against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, med, q3) = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Durations up to 2^40 ns (about 18 minutes) keep their bucket; longer
/// ones saturate into the last.
const MAX_EXP: u32 = 40;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 2) as usize) << SUB_BITS;

/// Log-linear histogram of nanosecond durations: exact below 128 ns, 64
/// buckets per octave above (under 1.6 % wide). Fixed memory, O(1) record,
/// so peak RSS does not depend on how many operations a run completes.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u32>,
    total: u64,
    sum_ns: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
            sum_ns: 0,
        }
    }
}

impl Hist {
    fn index(ns: u64) -> usize {
        if ns < 2 * SUB {
            return ns as usize;
        }
        let shift = (63 - ns.leading_zeros()).min(MAX_EXP) - SUB_BITS;
        let idx = ((shift as u64) << SUB_BITS) + (ns >> shift).min(2 * SUB - 1);
        idx as usize
    }

    /// `(lower edge, width)` of bucket `idx`, in ns.
    fn bounds(idx: usize) -> (u64, u64) {
        let idx = idx as u64;
        if idx < 2 * SUB {
            return (idx, 1);
        }
        let shift = (idx >> SUB_BITS) - 1;
        ((idx - (shift << SUB_BITS)) << shift, 1 << shift)
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
        self.sum_ns += ns;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Nearest-rank percentile in ns, interpolated inside its bucket.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = rank(self.total, p);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if seen + c >= rank {
                let (lo, width) = Self::bounds(idx);
                let within = ((rank - seen) as f64 - 0.5) / c as f64;
                return Some(lo as f64 + width as f64 * within);
            }
            seen += c;
        }
        None
    }

    /// Median in ns; 0 when empty.
    pub fn p50(&self) -> f64 {
        self.percentile(0.5).unwrap_or(0.0)
    }
}

/// Latencies of one phase, kept per time slice so a percentile can be
/// taken slice by slice and summarised robustly: a noisy second moves
/// its slices, not the run's figure.
#[derive(Clone)]
pub struct Windowed {
    slices: Vec<Hist>,
    slice_ns: u64,
}

/// Time slices a measured phase is cut into.
pub const SLICES: usize = 20;

impl Windowed {
    pub fn new(phase_ns: u64) -> Self {
        Self {
            slices: vec![Hist::default(); SLICES],
            slice_ns: (phase_ns / SLICES as u64).max(1),
        }
    }

    /// Records a latency observed `at_ns` into the measured phase.
    pub fn record(&mut self, at_ns: u64, latency_ns: u64) {
        let slice = ((at_ns / self.slice_ns) as usize).min(SLICES - 1);
        self.slices[slice].record(latency_ns);
    }

    pub fn total(&self) -> Hist {
        let mut all = Hist::default();
        for s in &self.slices {
            all.merge(s);
        }
        all
    }

    /// Percentile `p` in ns of each group of adjacent slices, the groups
    /// as small as still leaves ten samples beyond `p` in each (one group
    /// of everything when even that is too few).
    pub fn group_percentiles(&self, p: f64) -> Vec<f64> {
        let total = self.total().count();
        let groups = (1..=SLICES)
            .rev()
            .find(|&g| supported(total / g as u64, p))
            .unwrap_or(1);
        self.slices
            .chunks(SLICES.div_ceil(groups))
            .filter_map(|chunk| {
                let mut h = Hist::default();
                chunk.iter().for_each(|s| h.merge(s));
                h.percentile(p)
            })
            .collect()
    }
}

/// Percentile `p` in ns over several clients' latencies: each client's
/// groups give a percentile each, and the [`lowmean`] of them all is
/// reported: the percentile as the quieter half of the run's slices saw it.
/// The second field says whether every client had ten samples beyond `p`.
pub fn percentile_of(clients: &[Windowed], p: f64) -> (f64, bool) {
    let mut values: Vec<f64> = clients
        .iter()
        .flat_map(|w| w.group_percentiles(p))
        .collect();
    let ok = clients.iter().all(|w| supported(w.total().count(), p));
    (lowmean(&mut values), ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7u64], 0.99), Some(7));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        // 15, 20, 35, 40, 50: the textbook nearest-rank example.
        let w = [15u64, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 0.30), Some(20));
        assert_eq!(percentile(&w, 0.40), Some(20));
        assert_eq!(percentile(&w, 0.50), Some(35));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert!(supported(1000, 0.99));
        assert!(!supported(999, 0.99));
        assert!(supported(20, 0.5));
        assert!(!supported(19, 0.5));
        assert!(!supported(0, 0.5));
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.95));
        assert_eq!(highest_supported(150), Some(0.90));
        assert_eq!(highest_supported(99), None);
    }

    #[test]
    fn histogram_tracks_exact_percentiles() {
        let mut h = Hist::default();
        let mut exact = Vec::new();
        let mut x = 88_172_645_463_325_252u64;
        for _ in 0..50_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = 50 + x % 5_000_000;
            h.record(ns);
            exact.push(ns);
        }
        exact.sort_unstable();
        for p in [0.5, 0.9, 0.99] {
            let want = percentile(&exact, p).unwrap() as f64;
            let got = h.percentile(p).unwrap();
            assert!((got - want).abs() / want < 0.016, "p{p}: {got} vs {want}");
        }
        assert_eq!(h.count(), 50_000);
        assert_eq!(h.sum_ns(), exact.iter().sum::<u64>());
    }

    #[test]
    fn histogram_buckets_tile_the_range() {
        let mut last_end = 0;
        for idx in 0..BUCKETS {
            let (lo, width) = Hist::bounds(idx);
            assert_eq!(lo, last_end, "bucket {idx} leaves a gap");
            assert_eq!(Hist::index(lo), idx);
            assert_eq!(Hist::index(lo + width - 1), idx);
            last_end = lo + width;
        }
        assert_eq!(Hist::index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn windowed_groups_until_the_percentile_is_supported() {
        let mut w = Windowed::new(20_000);
        // 40 samples per slice, 800 in all: p99 needs 1000, so one
        // unsupported group.
        for slice in 0..SLICES as u64 {
            for k in 0..40 {
                w.record(slice * 1000, 100 + k);
            }
        }
        let (p99, ok) = percentile_of(std::slice::from_ref(&w), 0.99);
        assert!(!ok && p99 > 137.0, "{p99}");
        // p50 needs 20 per group: every slice is its own group.
        assert_eq!(w.group_percentiles(0.5).len(), SLICES);
        let (p50, ok) = percentile_of(&[w.clone(), w], 0.5);
        assert!(ok && (p50 - 119.5).abs() < 0.01, "{p50}");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[3.0]), None);
        assert_eq!(lowmean(&mut [100.0, 2.0, 3.0, 1.0]), 1.5);
        assert_eq!(lowmean(&mut [4.0, 2.0, 9.0]), 3.0);
        assert_eq!(lowmean(&mut []), 0.0);
    }
}
