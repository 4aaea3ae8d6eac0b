//! Parallel experiment sweeps: the paper's repeated-runs methodology,
//! fanned across cores without giving up bit-reproducibility.
//!
//! Every production figure (8–17) is a *series* of runs sharing one
//! platform clock and NWS history, so a single [`ExperimentSeries`] must
//! stay sequential. What parallelizes is the layer above: independent
//! seeds (replications of a figure), independent problem sizes, and
//! independent configurations (the ablation grids). Each sweep task
//! builds its own platform from its own seed, so tasks share nothing,
//! and [`prodpred_pool::parallel_map`] merges results in input order —
//! the sweep output is bit-identical to the sequential loop at any
//! thread count (including under the `PRODPRED_THREADS` override).

use crate::experiment::{
    platform1_experiment, platform1_experiment_with_faults, platform2_experiment,
    platform2_experiment_with_faults, ExperimentSeries, FaultedSeries,
};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::FaultConfig;
use prodpred_stochastic::AccuracyReport;

/// Replicates the Platform-1 size sweep (Figures 8–9) across independent
/// seeds, one full series per seed, fanned over `threads` workers
/// (0 = auto). Results are in `seeds` order.
pub fn platform1_seed_sweep(
    seeds: &[u64],
    sizes: &[usize],
    threads: usize,
) -> Vec<ExperimentSeries> {
    parallel_map(seeds, threads, |_, &seed| platform1_experiment(seed, sizes))
}

/// Replicates the Platform-2 repeated-run study (Figures 12–17) across
/// independent seeds, fanned over `threads` workers (0 = auto). Results
/// are in `seeds` order.
pub fn platform2_seed_sweep(
    seeds: &[u64],
    n: usize,
    runs: usize,
    threads: usize,
) -> Vec<ExperimentSeries> {
    parallel_map(seeds, threads, |_, &seed| {
        platform2_experiment(seed, n, runs)
    })
}

/// Per-seed accuracy of a sweep, in sweep order. Series with no runs are
/// skipped.
pub(crate) fn sweep_accuracy(sweep: &[ExperimentSeries]) -> Vec<AccuracyReport> {
    sweep
        .iter()
        .filter_map(ExperimentSeries::accuracy)
        .collect()
}

/// Aggregate view of a multi-seed replication: how stable the headline
/// claim (coverage, range error) is across reseeded replays.
#[derive(Debug, Clone, Copy)]
pub struct SweepSummary {
    /// Number of replications aggregated.
    pub replications: usize,
    /// Mean coverage across replications.
    pub mean_coverage: f64,
    /// Worst (lowest) coverage across replications.
    pub min_coverage: f64,
    /// Worst maximum range error across replications.
    pub worst_range_error: f64,
    /// Worst maximum mean-point error across replications.
    pub worst_mean_error: f64,
}

impl SweepSummary {
    /// Aggregates per-seed accuracy reports. `None` if `sweep` has no
    /// series with runs.
    pub fn from_sweep(sweep: &[ExperimentSeries]) -> Option<Self> {
        let reports = sweep_accuracy(sweep);
        if reports.is_empty() {
            return None;
        }
        Some(Self {
            replications: reports.len(),
            mean_coverage: reports.iter().map(|r| r.coverage).sum::<f64>() / reports.len() as f64,
            min_coverage: reports
                .iter()
                .map(|r| r.coverage)
                .fold(f64::INFINITY, f64::min),
            worst_range_error: reports
                .iter()
                .map(|r| r.max_range_error)
                .fold(0.0, f64::max),
            worst_mean_error: reports.iter().map(|r| r.max_mean_error).fold(0.0, f64::max),
        })
    }
}

/// One line of the fault study: how prediction quality and sensor health
/// degrade at a given fault intensity, aggregated over the seed
/// replications of that intensity.
#[derive(Debug, Clone, Copy)]
pub struct FaultStudyRow {
    /// Fault intensity in `[0, 1]` (the [`FaultConfig::with_intensity`]
    /// knob).
    pub intensity: f64,
    /// Seed replications aggregated into this row.
    pub replications: usize,
    /// Completed runs across all replications.
    pub runs: usize,
    /// Runs skipped because the degraded NWS could not support a
    /// prediction at launch time.
    pub skipped_runs: usize,
    /// Mean ±2σ coverage across replications that completed any runs.
    pub mean_coverage: f64,
    /// Worst (lowest) coverage across those replications.
    pub min_coverage: f64,
    /// Mean relative error of the stochastic mean over every completed
    /// run: `|predicted_mean − actual| / actual`.
    pub mean_abs_error: f64,
    /// Mean actual wall-clock seconds per completed run — the measured
    /// side of the fault model's degraded-runtime prediction.
    pub mean_actual_secs: f64,
    /// Mean launch time of the completed runs, for evaluating the fault
    /// model's window terms (storms, blackouts) at the row's epoch.
    pub mean_start_secs: f64,
    /// Mean predicted ±2σ half-width per completed run — the measured
    /// side of the fault model's spread-widening prediction.
    pub mean_half_width_secs: f64,
    /// Worst per-replication maximum mean-point error.
    pub worst_mean_error: f64,
    /// Fraction of predictor queries answered off the degraded path
    /// (fallback mode, stale data, or partial window).
    pub degraded_fraction: f64,
    /// Worst staleness (in sensor cadences) any answered query leaned on.
    pub max_stale_intervals: f64,
    /// Sensor polls lost to dropout or blackout, summed over machines.
    pub missed_polls: u64,
    /// Sensor measurements rejected as corrupt, summed over machines.
    pub corrupt_polls: u64,
}

/// Collapses the per-seed faulted series of each intensity into one
/// [`FaultStudyRow`] per intensity. `results` is the flat
/// intensity-major grid produced by the fault sweeps.
fn fault_rows(
    intensities: &[f64],
    per_intensity: usize,
    results: &[FaultedSeries],
) -> Vec<FaultStudyRow> {
    assert_eq!(results.len(), intensities.len() * per_intensity);
    intensities
        .iter()
        .zip(results.chunks(per_intensity))
        .map(|(&intensity, chunk)| {
            let reports: Vec<AccuracyReport> =
                chunk.iter().filter_map(|f| f.series.accuracy()).collect();
            let runs: usize = chunk.iter().map(|f| f.series.records.len()).sum();
            let mut abs_err_sum = 0.0;
            let mut actual_sum = 0.0;
            let mut start_sum = 0.0;
            let mut half_width_sum = 0.0;
            for f in chunk {
                for r in &f.series.records {
                    abs_err_sum +=
                        (r.prediction.stochastic.mean() - r.actual_secs).abs() / r.actual_secs;
                    actual_sum += r.actual_secs;
                    start_sum += r.start;
                    half_width_sum += r.prediction.stochastic.half_width();
                }
            }
            let per_run = |sum: f64| if runs == 0 { 0.0 } else { sum / runs as f64 };
            let queries: usize = chunk.iter().map(|f| f.stats.queries).sum();
            let degraded: usize = chunk.iter().map(|f| f.stats.degraded_queries).sum();
            FaultStudyRow {
                intensity,
                replications: chunk.len(),
                runs,
                skipped_runs: chunk.iter().map(|f| f.stats.skipped_runs).sum(),
                mean_coverage: if reports.is_empty() {
                    0.0
                } else {
                    reports.iter().map(|r| r.coverage).sum::<f64>() / reports.len() as f64
                },
                min_coverage: reports
                    .iter()
                    .map(|r| r.coverage)
                    .fold(f64::INFINITY, f64::min)
                    .min(1.0),
                mean_abs_error: per_run(abs_err_sum),
                mean_actual_secs: per_run(actual_sum),
                mean_start_secs: per_run(start_sum),
                mean_half_width_secs: per_run(half_width_sum),
                worst_mean_error: reports.iter().map(|r| r.max_mean_error).fold(0.0, f64::max),
                degraded_fraction: if queries == 0 {
                    0.0
                } else {
                    degraded as f64 / queries as f64
                },
                max_stale_intervals: chunk
                    .iter()
                    .map(|f| f.stats.max_stale_intervals)
                    .fold(0.0, f64::max),
                missed_polls: chunk.iter().map(|f| f.stats.missed_polls).sum(),
                corrupt_polls: chunk.iter().map(|f| f.stats.corrupt_polls).sum(),
            }
        })
        .collect()
}

/// Sweeps the Platform-1 experiment across fault intensities, replicating
/// each intensity over `seeds` and fanning the full (intensity × seed)
/// grid over `threads` workers (0 = auto). Rows are in `intensities`
/// order; the whole sweep is bit-deterministic at any thread count.
pub fn platform1_fault_sweep(
    seeds: &[u64],
    sizes: &[usize],
    intensities: &[f64],
    threads: usize,
) -> Vec<FaultStudyRow> {
    let tasks: Vec<(f64, u64)> = intensities
        .iter()
        .flat_map(|&i| seeds.iter().map(move |&s| (i, s)))
        .collect();
    let results = parallel_map(&tasks, threads, |_, &(intensity, seed)| {
        let faults = FaultConfig::with_intensity(seed, intensity);
        platform1_experiment_with_faults(seed, sizes, &faults)
    });
    fault_rows(intensities, seeds.len(), &results)
}

/// Sweeps the Platform-2 repeated-run experiment across fault
/// intensities; see [`platform1_fault_sweep`].
pub fn platform2_fault_sweep(
    seeds: &[u64],
    n: usize,
    runs: usize,
    intensities: &[f64],
    threads: usize,
) -> Vec<FaultStudyRow> {
    let tasks: Vec<(f64, u64)> = intensities
        .iter()
        .flat_map(|&i| seeds.iter().map(move |&s| (i, s)))
        .collect();
    let results = parallel_map(&tasks, threads, |_, &(intensity, seed)| {
        let faults = FaultConfig::with_intensity(seed, intensity);
        platform2_experiment_with_faults(seed, n, runs, &faults)
    });
    fault_rows(intensities, seeds.len(), &results)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_sequential_loop_bitwise() {
        let seeds = [3u64, 5, 9, 21];
        let sequential: Vec<ExperimentSeries> = seeds
            .iter()
            .map(|&s| platform2_experiment(s, 1000, 3))
            .collect();
        for threads in [1usize, 2, 4] {
            let sweep = platform2_seed_sweep(&seeds, 1000, 3, threads);
            assert_eq!(sweep.len(), sequential.len());
            for (a, b) in sweep.iter().zip(&sequential) {
                for (ra, rb) in a.records.iter().zip(&b.records) {
                    assert_eq!(ra.actual_secs.to_bits(), rb.actual_secs.to_bits());
                    assert_eq!(
                        ra.prediction.stochastic.mean().to_bits(),
                        rb.prediction.stochastic.mean().to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn fault_sweep_is_deterministic_across_thread_counts() {
        let seeds = [11u64, 13];
        let intensities = [0.0, 0.6];
        let reference = platform2_fault_sweep(&seeds, 1000, 3, &intensities, 1);
        for threads in [2usize, 4] {
            let sweep = platform2_fault_sweep(&seeds, 1000, 3, &intensities, threads);
            assert_eq!(sweep.len(), reference.len());
            for (a, b) in sweep.iter().zip(&reference) {
                assert_eq!(a.mean_abs_error.to_bits(), b.mean_abs_error.to_bits());
                assert_eq!(a.mean_coverage.to_bits(), b.mean_coverage.to_bits());
                assert_eq!(a.mean_actual_secs.to_bits(), b.mean_actual_secs.to_bits());
                assert_eq!(
                    a.mean_half_width_secs.to_bits(),
                    b.mean_half_width_secs.to_bits()
                );
                assert_eq!(a.missed_polls, b.missed_polls);
                assert_eq!(a.corrupt_polls, b.corrupt_polls);
                assert_eq!(a.skipped_runs, b.skipped_runs);
            }
        }
    }

    #[test]
    fn zero_intensity_row_matches_the_healthy_experiment() {
        let rows = platform2_fault_sweep(&[7], 1000, 4, &[0.0], 0);
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.skipped_runs, 0);
        assert_eq!(row.missed_polls, 0);
        assert_eq!(row.corrupt_polls, 0);
        assert_eq!(row.runs, 4);
        assert!(row.mean_coverage > 0.0);
        assert!(row.mean_actual_secs > 0.0);
        assert!(row.mean_half_width_secs > 0.0);
        assert!(row.mean_start_secs > 0.0);
    }

    #[test]
    fn faults_degrade_sensor_health_monotonically_in_expectation() {
        let rows = platform2_fault_sweep(&[3, 9], 1000, 4, &[0.0, 1.0], 0);
        assert!(rows[1].missed_polls > rows[0].missed_polls);
        assert!(rows[1].degraded_fraction > rows[0].degraded_fraction);
    }

    #[test]
    fn summary_aggregates_each_replication() {
        let sweep = platform2_seed_sweep(&[1, 2, 3], 1000, 4, 0);
        let summary = SweepSummary::from_sweep(&sweep).unwrap();
        assert_eq!(summary.replications, 3);
        assert!(summary.min_coverage <= summary.mean_coverage);
        assert!((0.0..=1.0).contains(&summary.mean_coverage));
        assert!(summary.worst_range_error <= summary.worst_mean_error + 1e-12);
        assert!(SweepSummary::from_sweep(&[]).is_none());
    }
}
