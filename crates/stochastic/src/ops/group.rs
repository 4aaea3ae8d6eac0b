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

use crate::dist::polar_pair;
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
pub fn clark_max(a: &StochasticValue, b: &StochasticValue) -> StochasticValue {
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
/// Variates drawn past a sample's need, to amortise the drawing call.
const DRAW_AHEAD: usize = 8;

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
    /// or reaches [`MEMO_CAP`]. Out of line: inlined, it slowed the warm
    /// loop, which never calls it.
    #[inline(never)]
    fn draw_to(&mut self, end: usize) {
        while self.drawn.len() < end.min(MEMO_CAP) {
            let (u, v, f) = polar_pair(&mut self.rng);
            self.drawn.extend([u * f, v * f]);
        }
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

/// Reads a stream's variates in order: those already kept, then fresh
/// ones kept as [`Cursor::reserve`] draws them, and past [`MEMO_CAP`] ones
/// drawn from a private copy of the generator and dropped.
struct Cursor<'a> {
    stream: &'a mut Stream,
    read: usize,
    tail: Option<(StdRng, Option<f64>)>,
}

impl Cursor<'_> {
    /// Draws what the next `k` reads need and [`DRAW_AHEAD`] more: a few
    /// pairs a call, so the draws still overlap the accumulator's
    /// dependent chain as they did before streams were kept.
    #[inline]
    fn reserve(&mut self, k: usize) {
        let end = self.read + k;
        if end > self.stream.drawn.len() {
            self.stream.draw_to(end + DRAW_AHEAD);
        }
    }

    #[inline]
    fn next(&mut self) -> f64 {
        match self.stream.drawn.get(self.read) {
            Some(&z) => {
                self.read += 1;
                z
            }
            None => self.past_cap(),
        }
    }

    /// The generator is copied at the cap once a call; the second
    /// variate of each pair waits for the next read.
    #[inline(never)]
    fn past_cap(&mut self) -> f64 {
        let (rng, spare) = self
            .tail
            .get_or_insert_with(|| (self.stream.rng.clone(), None));
        spare.take().unwrap_or_else(|| {
            let (u, v, f) = polar_pair(rng);
            *spare = Some(v * f);
            u * f
        })
    }
}

fn monte_carlo_max(values: &[StochasticValue], samples: usize, seed: u64) -> StochasticValue {
    if values.iter().all(StochasticValue::is_point) {
        // Every sample would be the largest of the points: exact, zero
        // width, and what `ByMean` selects.
        return max_of(values, MaxStrategy::ByMean);
    }
    let samples = samples.max(2);
    let normals: Vec<crate::dist::Normal> = values.iter().map(|v| v.to_normal()).collect();
    let per_sample = normals.iter().filter(|n| !n.is_degenerate()).count();
    // Chunked fan-out: chunk i reads its own SplitMix64-derived stream
    // and keeps a local accumulator; the partials are combined in chunk
    // order (Chan's merge), so any thread count — including the serial
    // fallback — produces identical bits. A chunk on a pool thread finds
    // that thread's memo empty.
    let chunks = prodpred_pool::chunk_lengths(samples, MC_MAX_CHUNK);
    let partials = prodpred_pool::parallel_map(&chunks, 0, |i, &len| {
        MEMO.with_borrow_mut(|memo| {
            let mut z = Cursor {
                stream: stream(memo, prodpred_pool::derive_seed(seed, i as u64)),
                read: 0,
                tail: None,
            };
            let mut summary = MeanVar::default();
            for _ in 0..len {
                z.reserve(per_sample);
                let mut m = f64::NEG_INFINITY;
                for n in &normals {
                    let x = if n.is_degenerate() {
                        n.mu()
                    } else {
                        n.mu() + n.sigma() * z.next()
                    };
                    m = m.max(x);
                }
                summary.push(m);
            }
            summary
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
        assert_eq!(m.mean().to_bits(), 0x4010_654c_e936_24ca);
        assert_eq!(m.half_width().to_bits(), 0x3fe5_fd84_b33d_6998);
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
        (1, 2000, 0x4010_0546_2866_d0be, 0x3fe0_0690_c83b_177c),
        (1, 8192, 0x4010_021e_a0bb_f3a5, 0x3fdf_87e2_dce2_848b),
        (1, 8193, 0x4010_021c_66ba_df99, 0x3fdf_876e_cce9_10d3),
        (1, 20000, 0x4010_03b8_9de9_b7f9, 0x3fe0_0f66_8205_d603),
        (3, 1, 0x4010_6d56_305b_34ca, 0x3fb1_c4b0_d809_050b),
        (3, 2, 0x4010_6d56_305b_34ca, 0x3fb1_c4b0_d809_050b),
        (3, 3, 0x4010_7a5c_f79d_dcfc, 0x3fb0_e2b6_b735_60de),
        (3, 2000, 0x4010_8ae1_5f63_a935, 0x3fe2_79f1_19ec_1c13),
        (3, 8192, 0x4010_8a0c_76af_a9cf, 0x3fe2_95a5_b385_fd58),
        (3, 8193, 0x4010_8a05_fd61_e08b, 0x3fe2_957f_72ee_585c),
        (3, 20000, 0x4010_8e53_895e_6f27, 0x3fe3_1135_5e4c_0ed4),
        (5, 1, 0x4010_f0ed_1232_98b6, 0x3fb9_8b83_e406_5381),
        (5, 2, 0x4010_f0ed_1232_98b6, 0x3fb9_8b83_e406_5381),
        (5, 3, 0x4010_e4e2_5065_ff68, 0x3fb4_db7d_e69e_2a20),
        (5, 2000, 0x4011_1b4d_35e8_bb75, 0x3fd9_d619_2f44_16d8),
        (5, 8192, 0x4011_22e2_1b49_004d, 0x3fdb_a1cb_f39b_f087),
        (5, 8193, 0x4011_22df_6ab4_1113, 0x3fdb_a16e_2e23_6e0e),
        (5, 20000, 0x4011_260d_4e11_fa36, 0x3fdc_9dd2_01b8_6a51),
    ];

    /// One Monte-Carlo `max` over `count` operands: the paper's A alone;
    /// A, a point, B; or A, B, C with points before and between them.
    fn mc_row(count: usize, samples: usize, seed: u64) -> (usize, usize, u64, u64) {
        let [a, b, c] = paper_values();
        let (p, q) = (StochasticValue::point(3.9), StochasticValue::point(4.2));
        let set = match count {
            1 => vec![a],
            3 => vec![a, p, b],
            _ => vec![p, a, q, b, c],
        };
        let m = max_of(&set, MaxStrategy::MonteCarlo { samples, seed });
        (count, samples, m.mean().to_bits(), m.half_width().to_bits())
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
    /// shorter and longer maxima of the same seed, and one row per fresh
    /// thread.
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
                .unwrap(); // tidy:allow(PP003): re-raises the row's failed assertion
        }
    }

    /// The variates each of this thread's memo slots holds.
    fn memo_lengths() -> Vec<usize> {
        MEMO.with_borrow(|memo| memo.iter().map(|s| s.drawn.len()).collect())
    }

    /// One chunk of `max` drawn straight from `polar_pair`, as it was
    /// before streams were kept: the oracle for variates past the cap.
    fn unkept_max(values: &[StochasticValue], samples: usize, seed: u64) -> (u64, u64) {
        let mut rng = StdRng::seed_from_u64(prodpred_pool::derive_seed(seed, 0));
        let mut spare = None;
        let mut summary = MeanVar::default();
        for _ in 0..samples {
            let mut m = f64::NEG_INFINITY;
            for v in values {
                let z = spare.take().unwrap_or_else(|| {
                    let (u, v, f) = polar_pair(&mut rng);
                    spare = Some(v * f);
                    u * f
                });
                m = m.max(v.mean() + v.sd() * z);
            }
            summary.push(m);
        }
        let m = StochasticValue::from_mean_sd(summary.mean(), summary.sd());
        (m.mean().to_bits(), m.half_width().to_bits())
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
            let oracle = unkept_max(&wide, MC_MAX_CHUNK, 5);
            assert_eq!(bits(MC_MAX_CHUNK, 5), oracle, "cold");
            assert_eq!(memo_lengths(), [MEMO_CAP]);
            assert_eq!(bits(MC_MAX_CHUNK, 5), oracle, "warm");
            for seed in 0..2 * MEMO_SLOTS as u64 {
                bits(MC_MAX_CHUNK / 8, seed);
            }
            assert_eq!(memo_lengths(), [MEMO_CAP; MEMO_SLOTS]);
        })
        .join()
        .unwrap(); // tidy:allow(PP003): re-raises the thread's failed assertion
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
