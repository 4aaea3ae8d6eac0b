//! Monte-Carlo validation of the closed-form stochastic arithmetic.
//!
//! The Table-2 rules summarize distributions with two numbers; this module
//! evaluates a whole [`Component`] tree by *sampling* — draw every
//! stochastic parameter from its normal, fold the tree numerically,
//! repeat — producing the empirical distribution the closed form
//! approximates. Tests and the ablation harness use it to quantify where
//! the summary rules are exact (linear combinations), first-order
//! (products, quotients), and structurally conservative (related sums).

use crate::component::Component;
use prodpred_stochastic::dist::Distribution;
use prodpred_stochastic::{StochasticValue, Summary};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The empirical result of Monte-Carlo evaluation.
#[derive(Debug, Clone)]
pub struct McResult {
    /// Mean ± 2 sd of the sampled outputs.
    pub summary: StochasticValue,
    /// Sampled output skewness (a normal summary hides it).
    pub skewness: f64,
    /// Fraction of samples inside the closed-form interval.
    pub closed_form_coverage: f64,
}

/// Sample count per Monte-Carlo chunk. Fixed — never derived from the
/// thread count — so the chunk structure, the per-chunk RNG streams, and
/// the floating-point merge order are a function of `n` alone.
// tidy:allow(PP011): the chunk size tests/parallel_determinism.rs sweeps
pub const MC_CHUNK: usize = 4096;

/// Evaluates `component` by sampling `n` times with the given seed and
/// compares against its closed-form evaluation.
///
/// Group `Max`/`Min` nodes are sampled exactly (the max of the sampled
/// children), so the comparison also scores the Max-strategy choice.
///
/// Fewer than two samples cannot estimate a spread, so `n` saturates to
/// 2 (a sampled standard deviation needs `n - 1 >= 1`); this keeps the
/// library panic-free on degenerate requests.
pub fn monte_carlo(component: &Component, n: usize, seed: u64) -> McResult {
    let n = n.max(2);
    // One chunk, one stream: merging into an empty accumulator copies it.
    merge_mc_partials(&[mc_chunk(component, &component.evaluate(), n, seed)], n)
}

/// Parallel Monte-Carlo evaluation: the samples are split into fixed
/// [`MC_CHUNK`]-size chunks, chunk `i` draws from its own RNG stream
/// seeded by `derive_seed(seed, i)`, and the per-chunk moment
/// accumulators are combined **in chunk order** with Chan's parallel
/// mean/variance merge ([`Summary::merge`]).
///
/// Because neither the chunk structure nor the merge order depends on
/// the worker count, the result is bit-identical at every `threads`
/// value (0 = auto / `PRODPRED_THREADS`); `threads = 1` maps the chunks
/// inline on the calling thread and is the oracle the tier-1 tests hold
/// 2, 4 and 8 threads to. The sample *stream* differs from the
/// single-stream [`monte_carlo`] — same distribution, different draws.
///
/// `n` saturates to 2, as in [`monte_carlo`].
pub fn monte_carlo_par(component: &Component, n: usize, seed: u64, threads: usize) -> McResult {
    let n = n.max(2);
    let chunks = prodpred_pool::chunk_lengths(n, MC_CHUNK);
    let closed = component.evaluate();
    let partials = prodpred_pool::parallel_map(&chunks, threads, |i, &len| {
        mc_chunk(
            component,
            &closed,
            len,
            prodpred_pool::derive_seed(seed, i as u64),
        )
    });
    merge_mc_partials(&partials, n)
}

/// Samples one chunk: `len` draws from a fresh stream, accumulated into
/// a local [`Summary`] plus the closed-form interval hit count.
fn mc_chunk(
    component: &Component,
    closed: &StochasticValue,
    len: usize,
    seed: u64,
) -> (Summary, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Summary::new();
    let mut inside = 0usize;
    for _ in 0..len {
        let x = sample_once(component, &mut rng);
        s.push(x);
        if closed.contains(x) {
            inside += 1;
        }
    }
    (s, inside)
}

/// Ordered reduction of per-chunk partials into one [`McResult`].
fn merge_mc_partials(partials: &[(Summary, usize)], n: usize) -> McResult {
    let mut s = Summary::new();
    let mut inside = 0usize;
    for (part, hits) in partials {
        s.merge(part);
        inside += hits;
    }
    McResult {
        summary: StochasticValue::from_mean_sd(s.mean(), s.sd()),
        skewness: s.skewness(),
        closed_form_coverage: inside as f64 / n as f64,
    }
}

/// One numeric sample of the tree.
fn sample_once(component: &Component, rng: &mut dyn RngCore) -> f64 {
    match component {
        Component::Param(p) => p.value().to_normal().sample(rng),
        Component::Sum(parts, _) => parts.iter().map(|c| sample_once(c, rng)).sum(),
        Component::Product(parts, _) => parts.iter().map(|c| sample_once(c, rng)).product(),
        Component::Quotient(num, den, _) => {
            let d = sample_once(den, rng);
            // Guard against a sampled divisor straddling zero: resample
            // toward the mean's sign (the closed form also requires a
            // nonzero-mean divisor).
            let mean = den.evaluate().mean();
            // tidy:allow(PP004): exact zero guard before dividing by the denominator
            let d = if d == 0.0 || d.signum() != mean.signum() {
                mean
            } else {
                d
            };
            sample_once(num, rng) / d
        }
        Component::Scale(c, inner) => c * sample_once(inner, rng),
        Component::Max(parts, _) => parts
            .iter()
            .map(|c| sample_once(c, rng))
            .fold(f64::NEG_INFINITY, f64::max),
        Component::Min(parts, _) => parts
            .iter()
            .map(|c| sample_once(c, rng))
            .fold(f64::INFINITY, f64::min),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_stochastic::{Dependence, MaxStrategy};

    fn sv(m: f64, h: f64) -> Component {
        Component::stochastic(StochasticValue::new(m, h))
    }

    #[test]
    fn unrelated_sum_is_exact() {
        let c = Component::Sum(
            vec![sv(12.0, 0.6), sv(5.0, 1.0), sv(3.0, 0.4)],
            Dependence::Unrelated,
        );
        let mc = monte_carlo(&c, 100_000, 1);
        let closed = c.evaluate();
        assert!((mc.summary.mean() - closed.mean()).abs() < 0.02);
        assert!((mc.summary.half_width() - closed.half_width()).abs() < 0.02);
        // Interval coverage at its nominal ~95.45%.
        assert!((mc.closed_form_coverage - 0.9545).abs() < 0.01);
        assert!(mc.skewness.abs() < 0.05);
    }

    #[test]
    fn related_sum_is_conservative_for_independent_samples() {
        // The related rule widens; sampling independent parts must be
        // over-covered by it.
        let c = Component::Sum(vec![sv(12.0, 0.6), sv(5.0, 1.0)], Dependence::Related);
        let mc = monte_carlo(&c, 50_000, 2);
        assert!(mc.closed_form_coverage > 0.97);
        assert!(mc.summary.half_width() < c.evaluate().half_width());
    }

    #[test]
    fn product_first_order_accuracy_and_skew() {
        let c = Component::Product(vec![sv(12.0, 0.6), sv(5.0, 1.0)], Dependence::Unrelated);
        let mc = monte_carlo(&c, 200_000, 3);
        let closed = c.evaluate();
        assert!((mc.summary.mean() - closed.mean()).abs() / closed.mean() < 0.005);
        assert!((mc.summary.half_width() - closed.half_width()).abs() / closed.half_width() < 0.02);
        // §2.3.2: the product of normals is long-tailed (mild at these
        // low relative widths, pronounced for wider factors).
        assert!(mc.skewness > 0.01, "skew {}", mc.skewness);
        let wide = Component::Product(vec![sv(10.0, 5.0), sv(10.0, 5.0)], Dependence::Unrelated);
        let mc_wide = monte_carlo(&wide, 200_000, 31);
        assert!(mc_wide.skewness > 0.3, "wide skew {}", mc_wide.skewness);
    }

    #[test]
    fn quotient_first_order_accuracy() {
        let c = Component::Quotient(
            Box::new(Component::point(1.0)),
            Box::new(sv(0.48, 0.05)),
            Dependence::Unrelated,
        );
        let mc = monte_carlo(&c, 200_000, 4);
        let closed = c.evaluate();
        assert!((mc.summary.mean() - closed.mean()).abs() / closed.mean() < 0.01);
        assert!((mc.summary.half_width() - closed.half_width()).abs() / closed.half_width() < 0.05);
        // 1/load is right-skewed.
        assert!(mc.skewness > 0.05);
    }

    #[test]
    fn max_by_mean_undercovers_when_inputs_overlap() {
        // Selecting one input's interval misses the upward shift of the
        // true max distribution; Clark captures it.
        let parts = vec![sv(10.0, 2.0), sv(10.0, 2.0), sv(10.0, 2.0)];
        let by_mean = Component::Max(parts.clone(), MaxStrategy::ByMean);
        let clark = Component::Max(parts, MaxStrategy::Clark);
        let mc_by_mean = monte_carlo(&by_mean, 100_000, 5);
        let mc_clark = monte_carlo(&clark, 100_000, 5);
        // Same sampled distribution, different closed forms.
        assert!(mc_clark.closed_form_coverage > mc_by_mean.closed_form_coverage);
        assert!(
            (mc_clark.summary.mean() - clark.evaluate().mean()).abs() < 0.05,
            "clark mean {} vs sampled {}",
            clark.evaluate().mean(),
            mc_clark.summary.mean()
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let c = sv(3.0, 1.0);
        let a = monte_carlo(&c, 1000, 7);
        let b = monte_carlo(&c, 1000, 7);
        assert_eq!(a.summary.mean(), b.summary.mean());
    }

    #[test]
    fn small_n_saturates_instead_of_panicking() {
        let c = sv(3.0, 1.0);
        for n in [0usize, 1, 2] {
            let r = monte_carlo(&c, n, 7);
            assert!(r.summary.mean().is_finite(), "n={n}");
            assert!(r.closed_form_coverage.is_finite());
            let p = monte_carlo_par(&c, n, 7, 2);
            assert!(p.summary.mean().is_finite(), "par n={n}");
        }
        // n=0 and n=1 both clamp to the two-sample result.
        let r0 = monte_carlo(&c, 0, 7);
        let r2 = monte_carlo(&c, 2, 7);
        assert_eq!(r0.summary.mean().to_bits(), r2.summary.mean().to_bits());
    }

    #[test]
    fn parallel_bitwise_matches_reference_across_thread_counts() {
        // The reference is the same driver on one thread, which
        // `parallel_map` runs inline on the caller.
        // A tree with every node kind, spanning several chunks.
        let c = Component::Sum(
            vec![
                Component::Product(vec![sv(12.0, 0.6), sv(5.0, 1.0)], Dependence::Unrelated),
                Component::Max(vec![sv(10.0, 2.0), sv(10.0, 2.0)], MaxStrategy::Clark),
                Component::Scale(2.0, Box::new(sv(3.0, 0.4))),
            ],
            Dependence::Unrelated,
        );
        let n = 3 * MC_CHUNK + 101;
        let reference = monte_carlo_par(&c, n, 11, 1);
        for threads in [2usize, 4, 8] {
            let par = monte_carlo_par(&c, n, 11, threads);
            assert_eq!(
                par.summary.mean().to_bits(),
                reference.summary.mean().to_bits(),
                "threads={threads}"
            );
            assert_eq!(
                par.summary.half_width().to_bits(),
                reference.summary.half_width().to_bits()
            );
            assert_eq!(par.skewness.to_bits(), reference.skewness.to_bits());
            assert_eq!(
                par.closed_form_coverage.to_bits(),
                reference.closed_form_coverage.to_bits()
            );
        }
    }

    #[test]
    fn parallel_estimates_the_same_distribution_as_single_stream() {
        // Different streams, same law: the chunked estimator must agree
        // with the single-stream path to Monte-Carlo accuracy.
        let c = Component::Sum(
            vec![sv(12.0, 0.6), sv(5.0, 1.0), sv(3.0, 0.4)],
            Dependence::Unrelated,
        );
        let serial = monte_carlo(&c, 100_000, 1);
        let par = monte_carlo_par(&c, 100_000, 1, 0);
        assert!((serial.summary.mean() - par.summary.mean()).abs() < 0.02);
        assert!((serial.summary.half_width() - par.summary.half_width()).abs() < 0.02);
        assert!((serial.closed_form_coverage - par.closed_form_coverage).abs() < 0.01);
    }
}
