//! The parallel evaluation layer must be invisible in the numbers: at
//! any worker count — and under the `PRODPRED_THREADS` override the CI
//! determinism smoke job exercises — every parallel path produces bits
//! identical to its sequential reference. Three layers are pinned here:
//! the raw pool primitive, the multi-seed experiment sweep, and the
//! fault-injected study. Chunked Monte-Carlo validation is pinned the
//! same way inside `prodpred-structural` (`validate.rs`), which CI's
//! determinism job runs beside this file.

use prodpred_core::{
    platform2_experiment, platform2_experiment_with_faults, platform2_fault_sweep,
    platform2_seed_sweep,
};
use prodpred_pool::{derive_seed, parallel_map};
use prodpred_simgrid::faults::FaultConfig;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

#[test]
fn parallel_map_is_bit_identical_at_every_thread_count() {
    // Each task folds a per-index RNG stream into a float — exactly the
    // shape of a sweep task. Any schedule leak changes the bits.
    let masters: Vec<u64> = (0..57).collect();
    let task = |i: usize, &m: &u64| -> f64 {
        let mut rng = StdRng::seed_from_u64(derive_seed(m, i as u64));
        let mut acc = 0.0f64;
        for _ in 0..500 {
            acc += (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
        }
        acc
    };
    let reference: Vec<u64> = masters
        .iter()
        .enumerate()
        .map(|(i, m)| task(i, m).to_bits())
        .collect();
    for threads in THREAD_COUNTS {
        let got: Vec<u64> = parallel_map(&masters, threads, task)
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(got, reference, "threads={threads}");
    }
}

#[test]
fn parallel_seed_sweep_is_bit_identical_to_sequential_loop() {
    let seeds = [2u64, 11, 29];
    let reference: Vec<_> = seeds
        .iter()
        .map(|&s| platform2_experiment(s, 1000, 3))
        .collect();
    for threads in THREAD_COUNTS {
        let sweep = platform2_seed_sweep(&seeds, 1000, 3, threads);
        assert_eq!(sweep.len(), reference.len(), "threads={threads}");
        for (series, expected) in sweep.iter().zip(&reference) {
            assert_eq!(series.records.len(), expected.records.len());
            for (got, want) in series.records.iter().zip(&expected.records) {
                assert_eq!(got.start.to_bits(), want.start.to_bits());
                assert_eq!(got.actual_secs.to_bits(), want.actual_secs.to_bits());
                assert_eq!(
                    got.prediction.stochastic.mean().to_bits(),
                    want.prediction.stochastic.mean().to_bits()
                );
                assert_eq!(
                    got.prediction.stochastic.half_width().to_bits(),
                    want.prediction.stochastic.half_width().to_bits()
                );
            }
            assert_eq!(series.load_samples.len(), expected.load_samples.len());
        }
    }
}

#[test]
fn fault_injected_sweep_is_bit_identical_at_every_thread_count() {
    // Fault injection must not reintroduce schedule sensitivity: every
    // per-poll fault decision is a pure function of (seed, resource,
    // poll index), so the faulted study reproduces bit-for-bit at any
    // pool width — same records, same degradation accounting.
    let seeds = [5u64, 19];
    let intensities = [0.0, 0.5, 1.0];
    let reference: Vec<_> = intensities
        .iter()
        .flat_map(|&intensity| {
            seeds.iter().map(move |&seed| {
                let faults = FaultConfig::with_intensity(seed, intensity);
                platform2_experiment_with_faults(seed, 1000, 3, &faults)
            })
        })
        .collect();
    let reference_rows = platform2_fault_sweep(&seeds, 1000, 3, &intensities, 1);
    for threads in THREAD_COUNTS {
        let rows = platform2_fault_sweep(&seeds, 1000, 3, &intensities, threads);
        assert_eq!(rows.len(), reference_rows.len(), "threads={threads}");
        for (got, want) in rows.iter().zip(&reference_rows) {
            assert_eq!(
                got.mean_abs_error.to_bits(),
                want.mean_abs_error.to_bits(),
                "threads={threads}"
            );
            assert_eq!(got.mean_coverage.to_bits(), want.mean_coverage.to_bits());
            assert_eq!(
                got.max_stale_intervals.to_bits(),
                want.max_stale_intervals.to_bits()
            );
            assert_eq!(got.missed_polls, want.missed_polls);
            assert_eq!(got.corrupt_polls, want.corrupt_polls);
            assert_eq!(got.skipped_runs, want.skipped_runs);
            assert_eq!(got.runs, want.runs);
        }
    }
    // And the sequential per-cell replay agrees with the sweep's inputs:
    // the same (seed, intensity) cell run standalone produces the same
    // degradation counters the aggregate rows were built from.
    let totals: (u64, u64) = reference.iter().fold((0, 0), |(m, c), f| {
        (m + f.stats.missed_polls, c + f.stats.corrupt_polls)
    });
    let row_totals: (u64, u64) = reference_rows.iter().fold((0, 0), |(m, c), r| {
        (m + r.missed_polls, c + r.corrupt_polls)
    });
    assert_eq!(totals, row_totals);
}
