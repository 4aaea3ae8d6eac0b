//! What the evaluation binaries share: the fault campaign of the two
//! solver studies, the committed records and their gates, and the
//! printing helpers of the `figures` binary.

pub mod campaign;
pub mod records;

use prodpred_core::report::{f, render_interval_chart, render_series, render_table};
use prodpred_core::{
    platform2_experiment, platform2_seed_sweep, run_series, ExperimentConfig, ExperimentSeries,
    PredictorConfig, SweepSummary,
};
use prodpred_simgrid::Platform;
use prodpred_stochastic::{Distribution, Histogram};

/// Prints a histogram with its fitted-normal overlay, in the style of the
/// paper's PDF figures: per bin, the observed percentage and the normal's
/// predicted percentage.
pub fn print_histogram_with_normal(data: &[f64], bins: usize, title: &str, unit: &str) {
    let hist = Histogram::from_data(data, bins).expect("non-degenerate data"); // tidy:allow(PP003): figure harness precondition; callers pass measured samples
    let normal = prodpred_stochastic::fit::fit_normal(data).expect("enough data"); // tidy:allow(PP003): figure harness precondition; callers pass measured samples
    println!("== {title} ==");
    println!(
        "fitted normal: mean {:.4}, sd {:.4} {unit}",
        normal.mu(),
        normal.sigma()
    );
    let rows: Vec<Vec<String>> = (0..hist.bins())
        .map(|i| {
            let center = hist.bin_center(i);
            let observed = hist.percent(i);
            let predicted = normal.mass_between(
                center - hist.bin_width() / 2.0,
                center + hist.bin_width() / 2.0,
            ) * 100.0;
            vec![
                f(center, 3),
                f(observed, 1),
                f(predicted, 1),
                "#".repeat((observed.round() as usize).min(60)),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&[unit, "observed %", "normal %", "bar"], &rows)
    );
}

/// Prints the empirical CDF against the fitted normal CDF (the paper's
/// Figures 2 and 4).
pub fn print_cdf_comparison(data: &[f64], points: usize, title: &str, unit: &str) {
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let normal = prodpred_stochastic::fit::fit_normal(data).expect("enough data"); // tidy:allow(PP003): figure harness precondition; callers pass measured samples
    println!("== {title} (CDF) ==");
    let n = sorted.len();
    let rows: Vec<Vec<String>> = (1..=points)
        .map(|k| {
            let idx = (k * n / points).min(n) - 1;
            let x = sorted[idx];
            let ecdf = 100.0 * (idx + 1) as f64 / n as f64;
            let ncdf = 100.0 * normal.cdf(x);
            vec![f(x, 3), f(ecdf, 1), f(ncdf, 1)]
        })
        .collect();
    println!(
        "{}",
        render_table(&[unit, "actual CDF %", "normal CDF %"], &rows)
    );
}

/// Prints an experiment series as the paper's paired figures: the
/// execution-time interval chart plus the watched machine's load trace.
pub fn print_experiment(series: &ExperimentSeries, title: &str, max_load_rows: usize) {
    println!("== {title} ==");
    let rows: Vec<(String, f64, f64, f64, f64)> = series
        .records
        .iter()
        .map(|r| {
            (
                format!("n={} t={:.0}", r.n, r.start),
                r.prediction.stochastic.lo(),
                r.prediction.stochastic.mean(),
                r.prediction.stochastic.hi(),
                r.actual_secs,
            )
        })
        .collect();
    println!("{}", render_interval_chart(&rows, 64));
    println!(
        "{}",
        render_table(
            &[
                "run",
                "predicted",
                "point",
                "actual",
                "in range",
                "range err %",
                "mean err %"
            ],
            &series
                .records
                .iter()
                .map(|r| {
                    let sv = r.prediction.stochastic;
                    vec![
                        format!("n={} t={:.0}", r.n, r.start),
                        format!("{sv}"),
                        f(r.prediction.point, 2),
                        f(r.actual_secs, 2),
                        if sv.contains(r.actual_secs) {
                            "yes"
                        } else {
                            "NO"
                        }
                        .to_string(),
                        f(sv.relative_error_outside(r.actual_secs) * 100.0, 1),
                        f((sv.mean() - r.actual_secs).abs() / r.actual_secs * 100.0, 1),
                    ]
                })
                .collect::<Vec<_>>()
        )
    );
    if let Some(acc) = series.accuracy() {
        println!(
            "coverage {:.0}%   max range error {:.1}%   max mean-point error {:.1}%",
            acc.coverage * 100.0,
            acc.max_range_error * 100.0,
            acc.max_mean_error * 100.0
        );
        let obs: Vec<prodpred_stochastic::Observation> =
            series.records.iter().map(|r| r.observation()).collect();
        let curve = prodpred_stochastic::calibration_curve(&obs, &[0.25, 0.5, 0.75, 1.0, 1.5, 2.0]);
        let line: Vec<String> = curve
            .iter()
            .map(|(f, c)| format!("{f}x:{:.0}%", c * 100.0))
            .collect();
        println!(
            "calibration (interval scale -> coverage): {}\n",
            line.join("  ")
        );
    }
    let load: Vec<(f64, f64)> = series
        .load_samples
        .iter()
        .copied()
        .take(max_load_rows)
        .collect();
    if !load.is_empty() {
        println!(
            "{}",
            render_series(&load, 48, "watched machine CPU availability")
        );
    }
}

/// One Platform-2 repeated-run figure (the shared shape of Figures 12–13,
/// 14–15, and 16–17): the headline series at seed `n`, rendered with
/// [`print_experiment`], its accuracy against `paper_line`, and a
/// multi-seed replication table (run in parallel over the work pool) that
/// quantifies how stable the claim is across reseeded replays.
pub fn platform2_figure(n: usize, runs: usize, title: &str, paper_line: &str) {
    let series = platform2_experiment(n as u64, n, runs);
    print_experiment(&series, title, 40);
    print_paper_vs_here(&series, paper_line);
    let seeds: Vec<u64> = (1..=6).map(|i| n as u64 + i * 1000).collect();
    let sweep = platform2_seed_sweep(&seeds, n, runs, 0);
    print_replication_table(
        &seeds,
        &sweep,
        &format!("replication across seeds ({n}x{n}, {runs} runs each)"),
    );
}

/// Prints the paper's headline accuracy for a figure above what this
/// series measured.
pub fn print_paper_vs_here(series: &ExperimentSeries, paper_line: &str) {
    let acc = series.accuracy().expect("figure series has runs"); // tidy:allow(PP003): figure harness drives a non-zero run count
    println!(
        "paper: {paper_line}\n\
         here : coverage {:.0}%, stochastic max {:.1}%, mean-point max {:.1}%",
        acc.coverage * 100.0,
        acc.max_range_error * 100.0,
        acc.max_mean_error * 100.0
    );
}

/// Prints a per-seed accuracy table for a replication sweep, plus the
/// aggregate [`SweepSummary`] line.
pub fn print_replication_table(seeds: &[u64], sweep: &[ExperimentSeries], title: &str) {
    println!("\n-- {title} --\n");
    let rows: Vec<Vec<String>> = seeds
        .iter()
        .zip(sweep)
        .filter_map(|(seed, series)| {
            let acc = series.accuracy()?;
            Some(vec![
                seed.to_string(),
                f(acc.coverage * 100.0, 0),
                f(acc.max_range_error * 100.0, 1),
                f(acc.max_mean_error * 100.0, 1),
            ])
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["seed", "coverage %", "max range err %", "max mean err %"],
            &rows
        )
    );
    if let Some(s) = SweepSummary::from_sweep(sweep) {
        println!(
            "across {} replications: mean coverage {:.0}%  worst coverage {:.0}%  \
             worst range err {:.1}%  worst mean err {:.1}%\n",
            s.replications,
            s.mean_coverage * 100.0,
            s.min_coverage * 100.0,
            s.worst_range_error * 100.0,
            s.worst_mean_error * 100.0
        );
    }
}

/// The series an ablation compares: `sizes` back to back on `platform`
/// (20 s apart) under `predictor`, everything else at its default.
pub fn ablation_series(
    platform: &Platform,
    sizes: &[usize],
    seed: u64,
    predictor: PredictorConfig,
) -> ExperimentSeries {
    let cfg = ExperimentConfig {
        seed,
        gap_secs: 20.0,
        predictor,
        ..Default::default()
    };
    run_series(platform, sizes, &cfg, 0)
}

/// Mean relative half-width of a series' predicted intervals.
pub fn mean_relative_width(series: &ExperimentSeries) -> f64 {
    series
        .records
        .iter()
        .map(|r| r.prediction.stochastic.half_width() / r.prediction.stochastic.mean())
        .sum::<f64>()
        / series.records.len() as f64
}

/// A study binary's `n`-th command-line argument as a number, or
/// `default` when it is absent.
pub fn arg_or<T: std::str::FromStr>(n: usize, name: &str, default: T) -> T {
    match std::env::args().nth(n) {
        Some(a) => a
            .parse()
            .unwrap_or_else(|_| panic!("{name} must be a number, got {a:?}")),
        None => default,
    }
}
