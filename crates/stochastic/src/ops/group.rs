//! Group operations — Max, Min — over stochastic values (paper §2.3.3).
//!
//! "The combination of stochastic values for operations over a group must
//! often be addressed in a situation-dependent manner." The paper sketches
//! two policies (largest mean; largest magnitude in range) and leaves the
//! choice to "the usage of the resulting Max value and the quality of
//! information required". We implement those two, plus two sharper
//! estimators the structural SOR model can use: Clark's classical
//! moment-matching approximation for the max of normals, and a seeded
//! Monte-Carlo estimator as ground truth.

use crate::dist::{polar_pair, Normal};
use crate::special::{std_normal_cdf, std_normal_pdf};
use crate::stats::MeanVar;
use crate::value::StochasticValue;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// Policy for computing `Max` over stochastic values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MaxStrategy {
    /// "choosing the largest mean of the stochastic value inputs":
    /// the winner's whole stochastic value is returned.
    ByMean,
    /// "selecting the stochastic value with the largest magnitude value in
    /// its entire range" (largest upper endpoint).
    ByUpperBound,
    /// Pessimistic-floor variant: the value with the largest *lower*
    /// endpoint — the guaranteed-slowest participant.
    ByLowerBound,
    /// Clark's (1961) moment-matching approximation of the maximum of
    /// independent normals, folded pairwise. Produces a genuinely new
    /// distribution rather than selecting an input.
    Clark,
    /// Seeded Monte-Carlo estimate of the exact max distribution
    /// (independent normals), summarized as mean ± 2 sd.
    MonteCarlo {
        /// Number of samples.
        samples: usize,
        /// RNG seed — group ops stay deterministic.
        seed: u64,
    },
}

impl Default for MaxStrategy {
    /// `ByMean` — "on average, the values of A are likely to be higher".
    fn default() -> Self {
        MaxStrategy::ByMean
    }
}

/// `Max` over a non-empty set of stochastic values under `strategy`.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn max_of(values: &[StochasticValue], strategy: MaxStrategy) -> StochasticValue {
    assert!(!values.is_empty(), "max over an empty set");
    match strategy {
        MaxStrategy::ByMean => *values
            .iter()
            .max_by(|a, b| a.mean().total_cmp(&b.mean()))
            .expect("asserted non-empty above"), // tidy:allow(PP003): asserted non-empty above
        MaxStrategy::ByUpperBound => *values
            .iter()
            .max_by(|a, b| a.hi().total_cmp(&b.hi()))
            .expect("asserted non-empty above"), // tidy:allow(PP003): asserted non-empty above
        MaxStrategy::ByLowerBound => *values
            .iter()
            .max_by(|a, b| a.lo().total_cmp(&b.lo()))
            .expect("asserted non-empty above"), // tidy:allow(PP003): asserted non-empty above
        MaxStrategy::Clark => values
            .iter()
            .copied()
            .reduce(|a, b| clark_max(&a, &b))
            .expect("asserted non-empty above"), // tidy:allow(PP003): asserted non-empty above
        MaxStrategy::MonteCarlo { samples, seed } => monte_carlo_max(values, samples, seed),
    }
}

/// `Min` over a non-empty set, by the duality `min(X) = -max(-X)`.
pub fn min_of(values: &[StochasticValue], strategy: MaxStrategy) -> StochasticValue {
    assert!(!values.is_empty(), "min over an empty set");
    let negated: Vec<StochasticValue> = values.iter().map(|v| v.neg()).collect();
    max_of(&negated, strategy).neg()
}

/// Clark's approximation for `max(X, Y)` of independent normals:
/// moment-matches the true (non-normal) max distribution with a normal.
///
/// With `theta^2 = s1^2 + s2^2` and `alpha = (m1 - m2)/theta`:
///
/// ```text
/// E[max]   = m1 Phi(alpha) + m2 Phi(-alpha) + theta phi(alpha)
/// E[max^2] = (m1^2+s1^2) Phi(alpha) + (m2^2+s2^2) Phi(-alpha)
///            + (m1+m2) theta phi(alpha)
/// ```
pub(crate) fn clark_max(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
    let (m1, s1) = (a.mean(), a.sd());
    let (m2, s2) = (b.mean(), b.sd());
    let theta2 = s1 * s1 + s2 * s2;
    // tidy:allow(PP004): exact zero variance means both operands are points
    if theta2 == 0.0 {
        // Two point values: the exact max.
        return StochasticValue::point(m1.max(m2));
    }
    let theta = theta2.sqrt();
    let alpha = (m1 - m2) / theta;
    let phi = std_normal_pdf(alpha);
    let cap1 = std_normal_cdf(alpha);
    let cap2 = std_normal_cdf(-alpha);
    let mean = m1 * cap1 + m2 * cap2 + theta * phi;
    let second = (m1 * m1 + s1 * s1) * cap1 + (m2 * m2 + s2 * s2) * cap2 + (m1 + m2) * theta * phi;
    let var = (second - mean * mean).max(0.0);
    StochasticValue::from_mean_sd(mean, var.sqrt())
}

/// Samples per Monte-Carlo-max chunk. Fixed independently of the worker
/// count so the draw streams and merge order — and therefore the result
/// bits — are a function of `(samples, seed)` alone.
const MC_MAX_CHUNK: usize = 8192;

/// Chunk streams a thread remembers.
const MEMO_SLOTS: usize = 4;
/// Variates a remembered stream keeps: a full chunk of four stochastic
/// operands, 256 KiB, so at most 1 MiB a thread. Past it a stream is
/// drawn as it is read and not kept.
const MEMO_CAP: usize = 4 * MC_MAX_CHUNK;

/// One chunk's standard-normal stream: its seed, the variates drawn so
/// far in draw order (`u0·f0, v0·f0, u1·f1, …`) and the generator just
/// past them.
struct Stream {
    seed: u64,
    drawn: Vec<f64>,
    rng: StdRng,
}

impl Stream {
    /// Draws `polar_pair`s onto the stream until it keeps `end` variates
    /// or reaches [`MEMO_CAP`].
    fn draw_to(&mut self, end: usize) {
        while self.drawn.len() < end.min(MEMO_CAP) {
            let (u, v, f) = polar_pair(&mut self.rng);
            self.drawn.extend([u * f, v * f]);
        }
    }

    /// The variates past [`MEMO_CAP`], drawn from a copy of the generator
    /// and dropped.
    fn past_cap(&self) -> impl Iterator<Item = f64> {
        let mut rng = self.rng.clone();
        std::iter::repeat_with(move || {
            let (u, v, f) = polar_pair(&mut rng);
            [u * f, v * f]
        })
        .flatten()
    }
}

thread_local! {
    /// Most recently used first. A stream's variates depend on its seed
    /// alone, so every maximum with that chunk seed reads the same ones.
    static MEMO: RefCell<Vec<Stream>> = const { RefCell::new(Vec::new()) };
}

/// The stream for `seed`, moved to the front of `memo`; a miss takes
/// over the least recently used slot and keeps its buffer.
fn stream(memo: &mut Vec<Stream>, seed: u64) -> &mut Stream {
    let at = match memo.iter().position(|s| s.seed == seed) {
        Some(at) => at,
        None => {
            let rng = StdRng::seed_from_u64(seed);
            if memo.len() < MEMO_SLOTS {
                let drawn = Vec::with_capacity(MEMO_CAP);
                memo.push(Stream { seed, drawn, rng });
            } else {
                let slot = &mut memo[MEMO_SLOTS - 1];
                slot.seed = seed;
                slot.drawn.clear();
                slot.rng = rng;
            }
            memo.len() - 1
        }
    };
    memo[..=at].rotate_right(1);
    &mut memo[0]
}

/// One sample of the maximum: `floor` raised by each live operand's
/// `mu + sigma·z`, reading one `z` per operand in order. `floor` is
/// never NaN, so `x > m` is `m.max(x)` (a NaN `x` leaves `m`; of equal
/// zeros, `m` stays) without `f64::max`'s guard against a NaN `m`.
fn sample_max(floor: f64, live: &[(f64, f64)], z: impl Iterator<Item = f64>) -> f64 {
    live.iter().zip(z).fold(floor, |m, (&(mu, sigma), z)| {
        let x = mu + sigma * z;
        if x > m {
            x
        } else {
            m
        }
    })
}

/// [`MeanVar::of`] the maxima of one chunk of exactly `P` live operands,
/// `kept` holding `P` variates a sample: the generic fold over an array,
/// so its operand loop unrolls.
fn moments<const P: usize>(floor: f64, live: &[(f64, f64)], kept: &[f64]) -> MeanVar {
    let live: &[(f64, f64); P] = live.try_into().expect("P live operands"); // tidy:allow(PP003): the caller dispatches on the live count
    let (samples, rest) = kept.as_chunks::<P>();
    debug_assert!(rest.is_empty(), "P variates a sample");
    MeanVar::of(
        samples
            .iter()
            .map(|z| sample_max(floor, live, z.iter().copied())),
    )
}

/// [`MeanVar::of`] the maxima of one kept chunk: unrolled for one to four
/// live operands, the slice fold past them.
fn chunk_moments(floor: f64, live: &[(f64, f64)], kept: &[f64]) -> MeanVar {
    match live.len() {
        1 => moments::<1>(floor, live, kept),
        2 => moments::<2>(floor, live, kept),
        3 => moments::<3>(floor, live, kept),
        4 => moments::<4>(floor, live, kept),
        _ => folded_moments(floor, live, kept),
    }
}

/// [`chunk_moments`] by the slice fold, whatever the operand count.
fn folded_moments(floor: f64, live: &[(f64, f64)], kept: &[f64]) -> MeanVar {
    MeanVar::of(
        kept.chunks_exact(live.len())
            .map(|z| sample_max(floor, live, z.iter().copied())),
    )
}

fn monte_carlo_max(values: &[StochasticValue], samples: usize, seed: u64) -> StochasticValue {
    let normals = values.iter().map(StochasticValue::to_normal);
    // Every sample's floor: the largest of the operands that draw nothing.
    let floor = normals
        .clone()
        .filter(Normal::is_degenerate)
        .map(|n| n.mu())
        .fold(f64::NEG_INFINITY, f64::max);
    let is_live = |n: &Normal| !n.is_degenerate();
    let live_count = normals.clone().filter(is_live).count();
    if live_count == 0 {
        // Every sample would be the floor: exact and zero width.
        return StochasticValue::point(floor);
    }
    let mut live = Vec::with_capacity(live_count);
    live.extend(normals.filter(is_live).map(|n| (n.mu(), n.sigma())));
    let samples = samples.max(2);
    // Chunked fan-out: chunk i reads its own SplitMix64-derived stream
    // and sums its maxima shifted by the first (`MeanVar::of`); the
    // partials are combined in chunk order (Chan's merge), so any thread
    // count — including the serial fallback — produces identical bits. A
    // chunk reads the memo of the thread that claims it, the caller's or a
    // pool worker's, and both outlive the call; a stream's variates depend
    // on its seed alone, so whatever that thread drew before cannot reach
    // the bits.
    let chunks = prodpred_pool::chunk_lengths(samples, MC_MAX_CHUNK);
    let partials = prodpred_pool::parallel_map(&chunks, 0, move |i, &len| {
        MEMO.with_borrow_mut(|memo| {
            let stream = stream(memo, prodpred_pool::derive_seed(seed, i as u64));
            let need = len * live_count;
            stream.draw_to(need);
            // Fewer than `need` kept only when `need` is past the cap.
            match stream.drawn.get(..need) {
                Some(kept) => chunk_moments(floor, &live, kept),
                None => {
                    let mut z = stream.drawn.iter().copied().chain(stream.past_cap());
                    MeanVar::of((0..len).map(|_| sample_max(floor, &live, &mut z)))
                }
            }
        })
    });
    let mut summary = MeanVar::default();
    for part in &partials {
        summary.merge(part);
    }
    StochasticValue::from_mean_sd(summary.mean(), summary.sd())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's worked example: A = 4 ± 0.5, B = 3 ± 2, C = 3 ± 1.
    fn paper_values() -> [StochasticValue; 3] {
        [
            StochasticValue::new(4.0, 0.5),
            StochasticValue::new(3.0, 2.0),
            StochasticValue::new(3.0, 1.0),
        ]
    }

    #[test]
    fn by_mean_picks_a() {
        // "A has the largest mean"
        let m = max_of(&paper_values(), MaxStrategy::ByMean);
        assert_eq!(m.mean(), 4.0);
        assert_eq!(m.half_width(), 0.5);
    }

    #[test]
    fn by_upper_bound_picks_b() {
        // "B has the largest value within its range" (3 + 2 = 5)
        let m = max_of(&paper_values(), MaxStrategy::ByUpperBound);
        assert_eq!(m.mean(), 3.0);
        assert_eq!(m.half_width(), 2.0);
    }

    #[test]
    fn by_lower_bound_picks_a() {
        // lower endpoints: 3.5, 1, 2 -> A
        let m = max_of(&paper_values(), MaxStrategy::ByLowerBound);
        assert_eq!(m.mean(), 4.0);
    }

    #[test]
    fn clark_matches_monte_carlo() {
        let vals = paper_values();
        let clark = max_of(&vals, MaxStrategy::Clark);
        let mc = max_of(
            &vals,
            MaxStrategy::MonteCarlo {
                samples: 200_000,
                seed: 42,
            },
        );
        assert!(
            (clark.mean() - mc.mean()).abs() < 0.02,
            "clark {} vs mc {}",
            clark.mean(),
            mc.mean()
        );
        assert!((clark.half_width() - mc.half_width()).abs() < 0.05);
    }

    #[test]
    fn clark_of_two_points_is_exact() {
        let a = StochasticValue::point(4.0);
        let b = StochasticValue::point(7.0);
        let m = clark_max(&a, &b);
        assert!(m.is_point());
        assert_eq!(m.mean(), 7.0);
    }

    #[test]
    fn clark_exceeds_both_means_for_overlapping_inputs() {
        // E[max(X,Y)] > max(E[X], E[Y]) when distributions overlap — the
        // skew the paper's SOR model's Max must capture.
        let a = StochasticValue::new(10.0, 2.0);
        let b = StochasticValue::new(10.0, 2.0);
        let m = clark_max(&a, &b);
        assert!(m.mean() > 10.0);
    }

    #[test]
    fn clark_dominated_input_changes_nothing_much() {
        let a = StochasticValue::new(100.0, 1.0);
        let b = StochasticValue::new(1.0, 1.0);
        let m = clark_max(&a, &b);
        assert!((m.mean() - 100.0).abs() < 1e-6);
        assert!((m.half_width() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_bits_are_thread_count_invariant() {
        // Golden bits for the chunked estimator. The CI determinism smoke
        // job replays this test under PRODPRED_THREADS=1 and =8; a result
        // that depends on the worker count fails one of the two runs.
        let m = max_of(
            &paper_values(),
            MaxStrategy::MonteCarlo {
                samples: 50_000,
                seed: 9,
            },
        );
        assert_eq!(m.mean().to_bits(), 0x4010_654c_e936_24c2);
        assert_eq!(m.half_width().to_bits(), 0x3fe5_fd84_b33d_699c);
        // Sanity on the decoded values: max of the paper's inputs sits a
        // little above A's mean of 4.
        assert!((4.0..4.3).contains(&m.mean()), "mean {}", m.mean());
    }

    /// `(operands, samples, mean bits, half-width bits)` at seed 42 for
    /// [`mc_row`]'s operand sets.
    const GOLDEN: [(usize, usize, u64, u64); 21] = [
        (1, 1, 0x4010_5f9e_5972_9d9b, 0x3fbb_77ef_b221_8d9b),
        (1, 2, 0x4010_5f9e_5972_9d9b, 0x3fbb_77ef_b221_8d9b),
        (1, 3, 0x4010_2654_7962_efdd, 0x3fca_a3d2_e46e_0080),
        (1, 2000, 0x4010_0546_2866_d0c8, 0x3fe0_0690_c83b_1772),
        (1, 8192, 0x4010_021e_a0bb_f396, 0x3fdf_87e2_dce2_847f),
        (1, 8193, 0x4010_021c_66ba_df8a, 0x3fdf_876e_cce9_10c8),
        (1, 20000, 0x4010_03b8_9de9_b7f9, 0x3fe0_0f66_8205_d602),
        (3, 1, 0x4010_6d56_305b_34ca, 0x3fb1_c4b0_d809_050b),
        (3, 2, 0x4010_6d56_305b_34ca, 0x3fb1_c4b0_d809_050b),
        (3, 3, 0x4010_7a5c_f79d_dcfc, 0x3fb0_e2b6_b735_60f7),
        (3, 2000, 0x4010_8ae1_5f63_a930, 0x3fe2_79f1_19ec_1c1d),
        (3, 8192, 0x4010_8a0c_76af_a9d0, 0x3fe2_95a5_b385_fd4b),
        (3, 8193, 0x4010_8a05_fd61_e08c, 0x3fe2_957f_72ee_584f),
        (3, 20000, 0x4010_8e53_895e_6f26, 0x3fe3_1135_5e4c_0ea1),
        (5, 1, 0x4010_f0ed_1232_98b6, 0x3fb9_8b83_e406_5381),
        (5, 2, 0x4010_f0ed_1232_98b6, 0x3fb9_8b83_e406_5381),
        (5, 3, 0x4010_e4e2_5065_ff69, 0x3fb4_db7d_e69e_2a32),
        (5, 2000, 0x4011_1b4d_35e8_bb70, 0x3fd9_d619_2f44_16e5),
        (5, 8192, 0x4011_22e2_1b49_0045, 0x3fdb_a1cb_f39b_f098),
        (5, 8193, 0x4011_22df_6ab4_110b, 0x3fdb_a16e_2e23_6e1f),
        (5, 20000, 0x4011_260d_4e11_fa2f, 0x3fdc_9dd2_01b8_6a60),
    ];

    /// `count` operands: the paper's A alone; A, a point, B; or A, B, C
    /// with points before and between them.
    fn mc_set(count: usize) -> Vec<StochasticValue> {
        let [a, b, c] = paper_values();
        let (p, q) = (StochasticValue::point(3.9), StochasticValue::point(4.2));
        match count {
            1 => vec![a],
            3 => vec![a, p, b],
            _ => vec![p, a, q, b, c],
        }
    }

    /// One Monte-Carlo `max` over [`mc_set`]`(count)`.
    fn mc_row(count: usize, samples: usize, seed: u64) -> (usize, usize, u64, u64) {
        let m = max_of(&mc_set(count), MaxStrategy::MonteCarlo { samples, seed });
        (count, samples, m.mean().to_bits(), m.half_width().to_bits())
    }

    /// `(mean bits, half-width bits)` at seed 42 of [`past_the_cap`]'s
    /// five stochastic operands over one full chunk: 40 960 variates, past
    /// [`MEMO_CAP`].
    const PAST_THE_CAP: (u64, u64) = (0x4011_3a1c_7dde_1b78, 0x3fe4_434c_358e_b8df);

    /// `(mean bits, half-width bits)` at seed 42 of [`subnormal_widths`]:
    /// no operand is a point, yet every one has a zero-sigma normal.
    const SUBNORMAL_WIDTHS: (u64, u64) = (0x4012_0000_0000_0000, 0x0);

    fn past_the_cap() -> Vec<StochasticValue> {
        let [a, b, c] = paper_values();
        let p = StochasticValue::point(3.9);
        vec![
            a,
            p,
            b,
            c,
            StochasticValue::new(3.5, 1.5),
            p,
            StochasticValue::new(4.1, 0.25),
        ]
    }

    fn subnormal_widths() -> Vec<StochasticValue> {
        [3.0, 4.5, -1.0]
            .map(|m| StochasticValue::new(m, 5e-324))
            .to_vec()
    }

    /// The two operand sets no `GOLDEN` row reaches: more variates than a
    /// stream keeps, and stochastic operands that draw nothing.
    #[test]
    fn monte_carlo_bits_past_the_cap_and_of_subnormal_widths() {
        let bits = |values: &[StochasticValue], samples| {
            let m = max_of(values, MaxStrategy::MonteCarlo { samples, seed: 42 });
            (m.mean().to_bits(), m.half_width().to_bits())
        };
        let wide = past_the_cap();
        assert!(wide.iter().filter(|v| !v.is_point()).count() * MC_MAX_CHUNK > MEMO_CAP);
        assert_eq!(bits(&wide, MC_MAX_CHUNK), PAST_THE_CAP);
        let thin = subnormal_widths();
        assert!(thin.iter().all(|v| !v.is_point() && v.sd() == 0.0));
        assert_eq!(bits(&thin, 2000), SUBNORMAL_WIDTHS);
        assert_eq!(f64::from_bits(SUBNORMAL_WIDTHS.0), 4.5);
    }

    /// Every boundary the estimator has: one operand (the spare variate
    /// carries from sample to sample), point operands between stochastic
    /// ones (it carries past them), three stochastic among five (both);
    /// the `samples.max(2)` floor; one chunk, exactly one full chunk, one
    /// sample into the second, and a short third chunk.
    #[test]
    fn monte_carlo_bits_cross_every_chunk_and_spare_boundary() {
        let actual: Vec<(usize, usize, u64, u64)> = GOLDEN
            .iter()
            .map(|&(count, samples, ..)| mc_row(count, samples, 42))
            .collect();
        let table: String = actual
            .iter()
            .map(|(c, s, m, h)| format!("({c}, {s}, {m:#x}, {h:#x}),\n"))
            .collect();
        assert_eq!(actual, GOLDEN, "actual table:\n{table}");
    }

    /// A maximum is a pure function of its arguments, whatever the thread
    /// evaluated before it: `GOLDEN` replayed backwards, shuffled, between
    /// maxima of more other seeds than a thread keeps streams for, between
    /// shorter and longer maxima of the same seed, one row per fresh
    /// thread, and each multi-chunk row before and after multi-chunk
    /// maxima of other seeds, whose chunks fill the memos of the same
    /// threads: this one and the pool's workers.
    #[test]
    fn monte_carlo_bits_do_not_depend_on_call_history() {
        let check = |row: &(usize, usize, u64, u64), how: &str| {
            let &(count, samples, ..) = row;
            assert_eq!(mc_row(count, samples, 42), *row, "{how}");
        };
        for row in GOLDEN.iter().rev() {
            check(row, "reversed");
        }
        // 8 is coprime to 21: a stride that visits every row once.
        for i in 0..GOLDEN.len() {
            check(&GOLDEN[i * 8 % GOLDEN.len()], "shuffled");
        }
        let other_seeds = |i: usize| {
            for other in 0..6 {
                mc_row(5, 3000, 1000 + (i * 6 + other) as u64);
            }
        };
        for (i, row) in GOLDEN.iter().enumerate() {
            other_seeds(i);
            check(row, "after other seeds");
        }
        for (i, row) in GOLDEN.iter().enumerate() {
            let &(count, samples, ..) = row;
            other_seeds(i);
            mc_row(count, samples / 2, 42);
            mc_row(5, 1, 42);
            check(row, "after a shorter stream of the same seed");
            mc_row(5, samples + 9000, 42);
            check(row, "after a longer stream of the same seed");
        }
        for row in &GOLDEN {
            let row = *row;
            std::thread::spawn(move || check(&row, "on a fresh thread"))
                .join()
                .unwrap();
        }
        let multi_chunk = GOLDEN.iter().filter(|row| row.1 > MC_MAX_CHUNK);
        for (i, row) in multi_chunk.enumerate() {
            check(row, "multi-chunk, before other seeds on the workers");
            for other in 0..MEMO_SLOTS + 2 {
                mc_row(5, 3 * MC_MAX_CHUNK, 2000 + (i * 16 + other) as u64);
            }
            check(row, "multi-chunk, after other seeds on the workers");
        }
    }

    /// The variates each of this thread's memo slots holds.
    fn memo_lengths() -> Vec<usize> {
        MEMO.with_borrow(|memo| memo.iter().map(|s| s.drawn.len()).collect())
    }

    /// `max` with each chunk's maxima drawn straight from `polar_pair`, as
    /// before streams were kept, and summarised by `summarize`: with
    /// [`MeanVar::of`] the oracle for the kept and past-the-cap streams,
    /// with [`welford`] the oracle for the accumulator.
    fn unkept_max(
        values: &[StochasticValue],
        samples: usize,
        seed: u64,
        summarize: fn(&[f64]) -> MeanVar,
    ) -> StochasticValue {
        let chunks = prodpred_pool::chunk_lengths(samples.max(2), MC_MAX_CHUNK);
        let mut summary = MeanVar::default();
        for (i, &len) in chunks.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(prodpred_pool::derive_seed(seed, i as u64));
            let mut spare = None;
            let mut z = || {
                spare.take().unwrap_or_else(|| {
                    let (u, v, f) = polar_pair(&mut rng);
                    spare = Some(v * f);
                    u * f
                })
            };
            let maxima: Vec<f64> = (0..len)
                .map(|_| {
                    let mut m = f64::NEG_INFINITY;
                    for n in values.iter().map(StochasticValue::to_normal) {
                        let x = if n.is_degenerate() {
                            n.mu()
                        } else {
                            n.mu() + n.sigma() * z()
                        };
                        m = m.max(x);
                    }
                    m
                })
                .collect();
            summary.merge(&summarize(&maxima));
        }
        StochasticValue::from_mean_sd(summary.mean(), summary.sd())
    }

    /// Welford's update, one observation at a time.
    fn welford(xs: &[f64]) -> MeanVar {
        let mut summary = MeanVar::default();
        for &x in xs {
            summary.push(x);
        }
        summary
    }

    /// The shifted sums agree with Welford's update on the same stream,
    /// for every `GOLDEN` and pinned operand set and for random ones: 1–6
    /// operands with points among them, sample counts on every chunk
    /// boundary, random seeds.
    #[test]
    fn monte_carlo_bits_match_the_welford_oracle() {
        use proptest::prelude::*;
        let mut worst = (0.0f64, 0.0f64);
        let mut check = |values: &[StochasticValue], samples: usize, seed: u64| {
            let m = max_of(values, MaxStrategy::MonteCarlo { samples, seed });
            let oracle = unkept_max(values, samples, seed, welford);
            let rel = |a: f64, b: f64| if a == b { 0.0 } else { (a - b).abs() / b.abs() };
            let (mean, sd) = (rel(m.mean(), oracle.mean()), rel(m.sd(), oracle.sd()));
            assert!(
                mean <= 1e-12,
                "mean {m} vs {oracle}: {mean:e} for {values:?}"
            );
            assert!(sd <= 1e-10, "sd {m} vs {oracle}: {sd:e} for {values:?}");
            worst = (worst.0.max(mean), worst.1.max(sd));
        };
        for &(count, samples, ..) in &GOLDEN {
            check(&mc_set(count), samples, 42);
        }
        check(&past_the_cap(), MC_MAX_CHUNK, 42);
        check(&subnormal_widths(), 2000, 42);
        const SAMPLES: [usize; 7] = [2, 3, 2000, 8191, 8192, 8193, 20000];
        let operand = (any::<bool>(), 1.0..10.0f64, 0.01..3.0f64)
            .prop_map(|(point, mean, hw)| StochasticValue::new(mean, if point { 0.0 } else { hw }));
        let case = (
            collection::vec(operand, 1..7),
            (0..SAMPLES.len()).prop_map(|i| SAMPLES[i]),
            0..u64::MAX,
        );
        let mut rng = proptest::test_rng("monte_carlo_bits_match_the_welford_oracle");
        for _ in 0..64 {
            let (values, samples, seed) = case.sample(&mut rng);
            check(&values, samples, seed);
        }
        let (mean, sd) = worst;
        println!("largest relative deviation from the Welford oracle: mean {mean:e}, sd {sd:e}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// `moments::<P>` is the generic fold bit for bit, P = 1–4, on
        /// variates read from the thread's memo stream: with no floor and a
        /// finite one, normal and subnormal widths, and operands whose every
        /// draw ties the floor.
        #[test]
        fn monte_carlo_bits_of_the_unrolled_kernel_are_the_generic_fold(
            operands in proptest::collection::vec((1.0..10.0f64, 0.01..3.0f64, 0..3u8), 1..5),
            floor in (proptest::prelude::any::<bool>(), 1.0..10.0f64),
            samples in 1..3000usize,
            seed in 0..u64::MAX,
        ) {
            let floor = if floor.0 { floor.1 } else { f64::NEG_INFINITY };
            // Kind 0 draws at width sigma, kind 1 at a subnormal width (every
            // draw is mu), kind 2 too with mu on the floor.
            let live: Vec<(f64, f64)> = operands
                .iter()
                .map(|&(mu, sigma, kind)| match kind {
                    0 => (mu, sigma),
                    1 => (mu, sigma * 1e-310),
                    _ => (if floor.is_finite() { floor } else { mu }, sigma * 1e-310),
                })
                .collect();
            let need = samples * live.len();
            let (folded, unrolled) = MEMO.with_borrow_mut(|memo| {
                let stream = stream(memo, prodpred_pool::derive_seed(seed, 0));
                stream.draw_to(need);
                let kept = &stream.drawn[..need];
                (folded_moments(floor, &live, kept), chunk_moments(floor, &live, kept))
            });
            // `Debug` spells every field's shortest round-trip form, zero
            // signs included.
            proptest::prop_assert_eq!(format!("{unrolled:?}"), format!("{folded:?}"));
        }
    }

    /// No request pins more than [`MEMO_CAP`] variates a slot on a worker
    /// thread: 64 operands × a full chunk reads sixteen times the cap, and
    /// past it the stream is still the one `polar_pair` draws.
    #[test]
    fn a_thread_keeps_at_most_the_cap_per_stream() {
        std::thread::spawn(|| {
            let wide: Vec<StochasticValue> = (0..64)
                .map(|i| StochasticValue::new(10.0 + 0.1 * i as f64, 1.0 + 0.01 * i as f64))
                .collect();
            let bits = |samples, seed| {
                let m = max_of(&wide, MaxStrategy::MonteCarlo { samples, seed });
                (m.mean().to_bits(), m.half_width().to_bits())
            };
            let oracle = unkept_max(&wide, MC_MAX_CHUNK, 5, |xs| MeanVar::of(xs.iter().copied()));
            let oracle = (oracle.mean().to_bits(), oracle.half_width().to_bits());
            assert_eq!(bits(MC_MAX_CHUNK, 5), oracle, "cold");
            assert_eq!(memo_lengths(), [MEMO_CAP]);
            assert_eq!(bits(MC_MAX_CHUNK, 5), oracle, "warm");
            for seed in 0..2 * MEMO_SLOTS as u64 {
                bits(MC_MAX_CHUNK / 8, seed);
            }
            assert_eq!(memo_lengths(), [MEMO_CAP; MEMO_SLOTS]);
        })
        .join()
        .unwrap();
    }

    #[test]
    fn monte_carlo_of_points_is_the_exact_max() {
        let points = [3.0, 7.25, -1.0].map(StochasticValue::point);
        let m = max_of(
            &points,
            MaxStrategy::MonteCarlo {
                samples: 2000,
                seed: 3,
            },
        );
        assert!(m.is_point());
        assert_eq!(m.mean(), 7.25);
        // One stochastic operand and the estimate has width again, with
        // the point operands as its floor.
        let mixed = [points[0], points[1], StochasticValue::new(7.0, 1.0)];
        let m = max_of(
            &mixed,
            MaxStrategy::MonteCarlo {
                samples: 2000,
                seed: 3,
            },
        );
        assert!(!m.is_point());
        assert!(m.mean() > 7.25 && m.lo() < 7.25, "{m}");
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let vals = paper_values();
        let s = MaxStrategy::MonteCarlo {
            samples: 10_000,
            seed: 7,
        };
        let a = max_of(&vals, s);
        let b = max_of(&vals, s);
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.half_width(), b.half_width());
    }

    #[test]
    fn min_duality() {
        let vals = paper_values();
        let m = min_of(&vals, MaxStrategy::ByMean);
        // Smallest mean is 3; ByMean duality picks one of the mean-3 values.
        assert_eq!(m.mean(), 3.0);
        let mc_min = min_of(
            &vals,
            MaxStrategy::MonteCarlo {
                samples: 100_000,
                seed: 1,
            },
        );
        // E[min] must be below every individual mean.
        assert!(mc_min.mean() < 3.0);
    }

    #[test]
    fn max_single_value_is_identity() {
        let v = [StochasticValue::new(5.0, 1.0)];
        for s in [
            MaxStrategy::ByMean,
            MaxStrategy::ByUpperBound,
            MaxStrategy::ByLowerBound,
            MaxStrategy::Clark,
        ] {
            let m = max_of(&v, s);
            assert!((m.mean() - 5.0).abs() < 1e-12);
            assert!((m.half_width() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic]
    fn empty_max_panics() {
        max_of(&[], MaxStrategy::ByMean);
    }
}
