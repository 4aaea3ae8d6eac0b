//! Fault-aware prediction validation: the `core::faultmodel` degradation
//! terms against the machinery they claim to predict.
//!
//! Two measured artifacts, two halves:
//!
//! 1. **Campaign half** — rerun the chaos campaign's supervised solves
//!    (same geometry, seed, and retry policy as `chaos_study`) and
//!    compare the measured completion rate, mean retries, mean backoff,
//!    and mean checkpoint-saved iterations against
//!    [`predict_campaign`](prodpred_core::predict_campaign) at intensity
//!    1.0 — the campaign's own kill law.
//! 2. **Sweep half** — pair each faulted Platform-2 run with its healthy
//!    twin (same seed, same run index, faults off) and predict the
//!    degraded duration from the healthy one by pushing it through the
//!    model's storm-stretch term at the faulted run's actual launch
//!    time. The fault-blind error (predicting the degraded run with the
//!    plain healthy duration) is reported alongside, so the model has to
//!    *beat* doing nothing, not just land somewhere.
//!
//! The combined mean relative error is committed to
//! `BENCH_faultpred.json` with the gated bound; at full scale the binary
//! asserts the bound itself, and CI's `faultpred-smoke` job gates the
//! committed file.
//!
//! Usage: `cargo run --release --bin faultpred_study [schedules] [out.json]`

use serde::Serialize;

use prodpred_core::{
    platform2_experiment, platform2_experiment_with_faults, predict_campaign, solve_supervised,
    storm_stretched_secs, RetryPolicy,
};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{FaultConfig, FaultSchedule};
use prodpred_sor::{
    partition_equal, CheckpointPolicy, Decomposition, ExchangePolicy, Grid, SorParams,
};

/// Campaign geometry — must mirror `chaos_study` exactly, since the
/// committed `BENCH_chaos.json` is the measured side of these terms.
const N: usize = 33;
const ITERATIONS: usize = 20;
const RANKS: usize = 4;
const CHECKPOINT_EVERY: usize = 4;
const CAMPAIGN_SEED: u64 = 4242;

/// Sweep geometry — the Platform-2 half of `fault_study`, minus the
/// healthy row (its pairing error is identically zero).
const SWEEP_SEEDS: [u64; 4] = [11, 23, 47, 95];
const SWEEP_INTENSITIES: [f64; 4] = [0.25, 0.5, 0.75, 1.0];
const SWEEP_N: usize = 1600;
const SWEEP_RUNS: usize = 10;
/// Machines in the Platform-2 decomposition.
const SWEEP_PROCS: usize = 4;

/// The stated, gated bound on the combined mean relative error.
const ERROR_BOUND: f64 = 0.25;

fn snappy() -> ExchangePolicy {
    ExchangePolicy {
        timeout: std::time::Duration::from_millis(200),
        retries: 1,
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        seed: CAMPAIGN_SEED,
        ..Default::default()
    }
}

/// Predicted vs measured for one campaign aggregate.
#[derive(Debug, Serialize)]
struct Term {
    name: String,
    predicted: f64,
    measured: f64,
    rel_error: f64,
}

impl Term {
    fn new(name: &str, predicted: f64, measured: f64) -> Self {
        // tidy:allow(PP004): exact-zero denominator guard, not a tolerance check
        let rel_error = if measured == 0.0 {
            predicted.abs()
        } else {
            (predicted - measured).abs() / measured.abs()
        };
        Self {
            name: name.to_string(),
            predicted,
            measured,
            rel_error,
        }
    }
}

/// One intensity row of the sweep half.
#[derive(Debug, Serialize)]
struct SweepRow {
    intensity: f64,
    /// Healthy/faulted record pairs compared at this intensity.
    paired_runs: usize,
    /// Faulted runs that could not be paired (skipped by the degraded
    /// service, or past the shorter series).
    unpaired_runs: usize,
    /// Mean `|predicted − actual| / actual` of the model's degraded
    /// duration.
    mean_rel_error: f64,
    /// Same error when predicting with the raw healthy duration instead
    /// (no degradation terms) — the do-nothing baseline.
    fault_blind_rel_error: f64,
}

/// The committed record.
#[derive(Debug, Serialize)]
struct FaultPredReport {
    schedules: usize,
    campaign_seed: u64,
    campaign_terms: Vec<Term>,
    campaign_mean_rel_error: f64,
    sweep_seeds: usize,
    sweep_rows: Vec<SweepRow>,
    sweep_mean_rel_error: f64,
    sweep_fault_blind_rel_error: f64,
    mean_rel_error: f64,
    error_bound: f64,
}

/// Reruns the supervised campaign (lightweight: no unsupervised control,
/// no reference-grid diff — `chaos_study` owns those invariants) and
/// returns the measured aggregates next to the model's forecasts.
fn campaign_half(schedules: usize) -> Vec<Term> {
    let campaign = FaultSchedule::random_campaign(CAMPAIGN_SEED, schedules, RANKS, ITERATIONS);
    let params = SorParams::for_grid(N, ITERATIONS);
    let strips = Decomposition::strips(N, &partition_equal(N - 2, RANKS));
    let outcomes = parallel_map(&campaign, 0, |_, schedule| {
        let mut grid = Grid::laplace_problem(N);
        let recovery = solve_supervised(
            &mut grid,
            params,
            &strips,
            snappy(),
            schedule,
            &retry(),
            CheckpointPolicy::every(CHECKPOINT_EVERY),
        );
        (
            recovery.succeeded(),
            recovery.stats.retries,
            recovery.stats.backoff_secs,
            recovery.stats.resumed_iterations_saved,
        )
    });
    let total = schedules as f64;
    let completed = outcomes.iter().filter(|o| o.0).count() as f64;
    let retries: u64 = outcomes.iter().map(|o| o.1).sum();
    let backoff: f64 = outcomes.iter().map(|o| o.2).sum();
    let saved: u64 = outcomes.iter().map(|o| o.3).sum();

    let predicted = predict_campaign(
        1.0,
        &retry(),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
        ITERATIONS,
    );
    vec![
        Term::new(
            "completion_rate",
            predicted.completion_rate,
            completed / total,
        ),
        Term::new(
            "mean_retries",
            predicted.mean_retries,
            retries as f64 / total,
        ),
        Term::new(
            "mean_backoff_secs",
            predicted.mean_backoff_secs,
            backoff / total,
        ),
        Term::new(
            "mean_saved_iterations",
            predicted.mean_saved_iterations,
            saved as f64 / total,
        ),
    ]
}

/// Runs the healthy/faulted series of every (seed, intensity) cell and
/// pairs records by run index. `runs` lets the CI smoke job shrink the
/// series.
fn sweep_half(runs: usize) -> Vec<SweepRow> {
    // Healthy twins, one per seed, shared across intensities.
    let healthy = parallel_map(&SWEEP_SEEDS, 0, |_, &seed| {
        platform2_experiment(seed, SWEEP_N, runs)
    });
    let cells: Vec<(f64, u64)> = SWEEP_INTENSITIES
        .iter()
        .flat_map(|&i| SWEEP_SEEDS.iter().map(move |&s| (i, s)))
        .collect();
    let faulted = parallel_map(&cells, 0, |_, &(intensity, seed)| {
        let cfg = FaultConfig::with_intensity(seed, intensity);
        platform2_experiment_with_faults(seed, SWEEP_N, runs, &cfg)
    });

    SWEEP_INTENSITIES
        .iter()
        .zip(faulted.chunks(SWEEP_SEEDS.len()))
        .map(|(&intensity, chunk)| {
            // Window placement is seed-independent, so one config serves
            // the whole row's predictions.
            let cfg = FaultConfig::with_intensity(0, intensity);
            let mut paired = 0usize;
            let mut unpaired = 0usize;
            let mut err_sum = 0.0;
            let mut blind_sum = 0.0;
            for (f, h) in chunk.iter().zip(&healthy) {
                // Skipped runs drop out of the faulted series without a
                // marker, so positional pairing is only sound up to the
                // first skip; past it we stop rather than mispair.
                let sound = f.series.records.len().min(h.records.len());
                unpaired += f.series.records.len() - sound + f.stats.skipped_runs;
                for (fr, hr) in f.series.records[..sound].iter().zip(&h.records[..sound]) {
                    let predicted =
                        storm_stretched_secs(&cfg, SWEEP_PROCS, fr.start, hr.actual_secs);
                    err_sum += (predicted - fr.actual_secs).abs() / fr.actual_secs;
                    blind_sum += (hr.actual_secs - fr.actual_secs).abs() / fr.actual_secs;
                    paired += 1;
                }
            }
            let per = |sum: f64| {
                if paired == 0 {
                    0.0
                } else {
                    sum / paired as f64
                }
            };
            SweepRow {
                intensity,
                paired_runs: paired,
                unpaired_runs: unpaired,
                mean_rel_error: per(err_sum),
                fault_blind_rel_error: per(blind_sum),
            }
        })
        .collect()
}

fn main() {
    let schedules: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("schedule count"))
        .unwrap_or(200);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_faultpred.json".to_string());
    // Reduced-scale runs shrink both halves together.
    let full_scale = schedules >= 200;
    let sweep_runs = if full_scale { SWEEP_RUNS } else { 3 };

    println!(
        "== Fault-aware prediction validation ==\n\
         campaign: {schedules} schedules, grid {N}x{N}, {ITERATIONS} iterations, \
         {RANKS} ranks, checkpoint every {CHECKPOINT_EVERY}\n\
         sweep: platform 2, {}^2 x {sweep_runs} runs, {} seeds x {} intensities\n",
        SWEEP_N,
        SWEEP_SEEDS.len(),
        SWEEP_INTENSITIES.len()
    );

    let campaign_terms = campaign_half(schedules);
    println!("-- campaign terms (model at intensity 1.0 vs measured) --");
    for t in &campaign_terms {
        println!(
            "{:<24} predicted {:>9.3}  measured {:>9.3}  rel err {:>5.1}%",
            t.name,
            t.predicted,
            t.measured,
            t.rel_error * 100.0
        );
    }
    let campaign_err =
        campaign_terms.iter().map(|t| t.rel_error).sum::<f64>() / campaign_terms.len() as f64;

    let sweep_rows = sweep_half(sweep_runs);
    println!("\n-- sweep terms (storm-stretched healthy twin vs measured) --");
    for r in &sweep_rows {
        println!(
            "intensity {:<5} paired {:>3}  rel err {:>5.1}%  (fault-blind {:>5.1}%)",
            r.intensity,
            r.paired_runs,
            r.mean_rel_error * 100.0,
            r.fault_blind_rel_error * 100.0
        );
    }
    let sweep_err =
        sweep_rows.iter().map(|r| r.mean_rel_error).sum::<f64>() / sweep_rows.len() as f64;
    let blind_err = sweep_rows
        .iter()
        .map(|r| r.fault_blind_rel_error)
        .sum::<f64>()
        / sweep_rows.len() as f64;

    let mean_rel_error = (campaign_err + sweep_err) / 2.0;
    println!(
        "\ncampaign mean rel error {:>6.1}%\n\
         sweep mean rel error    {:>6.1}%  (fault-blind baseline {:.1}%)\n\
         combined                {:>6.1}%  (bound {:.0}%)",
        campaign_err * 100.0,
        sweep_err * 100.0,
        blind_err * 100.0,
        mean_rel_error * 100.0,
        ERROR_BOUND * 100.0
    );

    if full_scale {
        assert!(
            mean_rel_error <= ERROR_BOUND,
            "fault-model error {mean_rel_error:.3} exceeds the gated bound {ERROR_BOUND}"
        );
        assert!(
            sweep_err <= blind_err,
            "the degradation terms must beat the fault-blind baseline \
             ({sweep_err:.3} vs {blind_err:.3})"
        );
    }

    let report = FaultPredReport {
        schedules,
        campaign_seed: CAMPAIGN_SEED,
        campaign_terms,
        campaign_mean_rel_error: campaign_err,
        sweep_seeds: SWEEP_SEEDS.len(),
        sweep_rows,
        sweep_mean_rel_error: sweep_err,
        sweep_fault_blind_rel_error: blind_err,
        mean_rel_error,
        error_bound: ERROR_BOUND,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, json + "\n").expect("write faultpred report");
    println!("\nwrote {out_path}");
}
