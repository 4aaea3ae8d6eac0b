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
//! `BENCH_faultpred.json` with the gated bound: at full scale the binary
//! applies `records::FaultPredReport::gate` before it writes, and tier-1
//! applies it to the committed file. Without an output path the record
//! goes to `target/tmp/BENCH_faultpred.json`.
//!
//! Usage: `cargo run --release --bin faultpred_study [schedules] [out.json]`

use prodpred_bench::campaign::{self, CAMPAIGN_SEED, CHECKPOINT_EVERY, ITERATIONS, N, RANKS};
use prodpred_bench::records::{FaultPredReport, Record, SweepRow, Term};
use prodpred_core::{platform2_experiment, platform2_experiment_with_faults, storm_stretched_secs};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::FaultConfig;

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

fn term(name: &str, predicted: f64, measured: f64) -> Term {
    // tidy:allow(PP004): exact-zero denominator guard, not a tolerance check
    let rel_error = if measured == 0.0 {
        predicted.abs()
    } else {
        (predicted - measured).abs() / measured.abs()
    };
    Term {
        name: name.to_string(),
        predicted,
        measured,
        rel_error,
    }
}

/// Reruns the campaign's supervised arm (no unsupervised control, no
/// reference-grid diff — `chaos_study` owns those invariants) and returns
/// the measured aggregates next to the model's forecasts.
fn campaign_half(schedules: usize) -> Vec<Term> {
    let outcomes = parallel_map(&campaign::schedules(schedules), 0, |_, schedule| {
        campaign::solve_with_recovery(schedule).1
    });
    let m = campaign::measured(outcomes.iter().map(|o| (o.succeeded(), &o.stats)));
    let p = campaign::predicted();
    [
        ("completion_rate", p.completion_rate, m.completion_rate),
        ("mean_retries", p.mean_retries, m.mean_retries),
        (
            "mean_backoff_secs",
            p.mean_backoff_secs,
            m.mean_backoff_secs,
        ),
        (
            "mean_saved_iterations",
            p.mean_saved_iterations,
            m.mean_saved_iterations,
        ),
    ]
    .into_iter()
    .map(|(name, predicted, measured)| term(name, predicted, measured))
    .collect()
}

/// Runs the healthy/faulted series of every (seed, intensity) cell and
/// pairs records by run index. `runs` lets the CI smoke job shrink the
/// series.
fn sweep_half(runs: usize) -> Vec<SweepRow> {
    // Healthy twins, one per seed, shared across intensities.
    let healthy = parallel_map(&SWEEP_SEEDS, 0, move |_, &seed| {
        platform2_experiment(seed, SWEEP_N, runs)
    });
    let cells: Vec<(f64, u64)> = SWEEP_INTENSITIES
        .iter()
        .flat_map(|&i| SWEEP_SEEDS.iter().map(move |&s| (i, s)))
        .collect();
    let faulted = parallel_map(&cells, 0, move |_, &(intensity, seed)| {
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
    let schedules: usize = prodpred_bench::arg_or(1, "schedules", 200);
    // Reduced-scale runs shrink both halves together.
    let sweep_runs = if schedules >= 200 { SWEEP_RUNS } else { 3 };

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
    let sweep_rows = sweep_half(sweep_runs);
    let mean = |errors: Vec<f64>| errors.iter().sum::<f64>() / errors.len() as f64;
    let campaign_err = mean(campaign_terms.iter().map(|t| t.rel_error).collect());
    let sweep_err = mean(sweep_rows.iter().map(|r| r.mean_rel_error).collect());
    let blind_err = mean(sweep_rows.iter().map(|r| r.fault_blind_rel_error).collect());

    let report = FaultPredReport {
        schedules,
        campaign_seed: CAMPAIGN_SEED,
        campaign_terms,
        campaign_mean_rel_error: campaign_err,
        sweep_seeds: SWEEP_SEEDS.len(),
        sweep_rows,
        sweep_mean_rel_error: sweep_err,
        sweep_fault_blind_rel_error: blind_err,
        mean_rel_error: (campaign_err + sweep_err) / 2.0,
        error_bound: ERROR_BOUND,
    };
    let out_path = report
        .write(std::env::args().nth(2))
        .expect("write the record");
    println!("\nwrote {out_path}");
}
