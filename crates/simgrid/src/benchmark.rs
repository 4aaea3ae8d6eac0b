//! The in-core sort benchmark behind the paper's Figures 1–2.
//!
//! "Figure 1 shows a histogram of runtimes for a sample sorting code on a
//! single workstation with no other users present and its corresponding
//! normal distribution." Two variants are provided:
//!
//! * [`run_sort_benchmark`] actually sorts, timing real wall-clock runs on
//!   the host — used by the figure harness when live data is wanted;
//! * [`simulated_sort_runtimes`] reproduces the same statistical shape
//!   deterministically from a seed — used by tests and default figures so
//!   results replay exactly.

use prodpred_stochastic::dist::Distribution;
use prodpred_stochastic::Normal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Runs a real in-core sort benchmark: `reps` repetitions of shuffling and
/// sorting `n` 64-bit keys, returning wall-clock seconds per repetition.
///
/// Dedicated-machine runtimes are approximately normal — small independent
/// perturbations (cache state, interrupts) add up — which is the paper's
/// Figure-1 observation.
pub fn run_sort_benchmark(n: usize, reps: usize, seed: u64) -> Vec<f64> {
    assert!(n > 0 && reps > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(reps);
    let mut data: Vec<u64> = Vec::with_capacity(n);
    for _ in 0..reps {
        data.clear();
        for _ in 0..n {
            data.push(rand::RngCore::next_u64(&mut rng));
        }
        let start = Instant::now(); // tidy:allow(PP001): calibrates against real hardware by design
        data.sort_unstable();
        out.push(start.elapsed().as_secs_f64());
    }
    out
}

/// Deterministically simulated dedicated-machine sort runtimes:
/// `base_secs` with normal jitter of relative sd `jitter_rel`.
pub(crate) fn simulated_sort_runtimes(
    base_secs: f64,
    jitter_rel: f64,
    reps: usize,
    seed: u64,
) -> Vec<f64> {
    assert!(base_secs > 0.0 && jitter_rel >= 0.0 && reps > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let dist = Normal::new(base_secs, base_secs * jitter_rel);
    (0..reps)
        .map(|_| dist.sample(&mut rng).max(base_secs * 0.1))
        .collect()
}

/// The paper's Figure-1 configuration: runtimes centered near 11 s with
/// sd ≈ 1.5 s, spanning roughly 6–16 s.
pub fn figure1_runtimes(reps: usize, seed: u64) -> Vec<f64> {
    simulated_sort_runtimes(11.0, 0.136, reps, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_stochastic::fit::normality_report;
    use prodpred_stochastic::Summary;

    #[test]
    fn real_sort_benchmark_returns_positive_times() {
        let times = run_sort_benchmark(50_000, 5, 1);
        assert_eq!(times.len(), 5);
        assert!(times.iter().all(|&t| t > 0.0));
    }

    #[test]
    fn simulated_runtimes_are_normal_enough() {
        let times = figure1_runtimes(4000, 7);
        let rep = normality_report(&times).unwrap();
        assert!(rep.is_adequate(), "{rep:?}");
        let s = Summary::from_slice(&times);
        assert!((s.mean() - 11.0).abs() < 0.2);
        assert!((s.sd() - 1.5).abs() < 0.2);
    }

    #[test]
    fn simulated_runtimes_deterministic() {
        assert_eq!(figure1_runtimes(100, 3), figure1_runtimes(100, 3));
        assert_ne!(figure1_runtimes(100, 3), figure1_runtimes(100, 4));
    }

    #[test]
    #[should_panic]
    fn simulated_rejects_zero_reps() {
        simulated_sort_runtimes(1.0, 0.1, 0, 1);
    }
}
