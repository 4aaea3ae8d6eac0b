//! Ablation: the Max-strategy choice of Section 2.3.3.
//!
//! "Depending on the penalty for an incorrect guess, different approaches
//! may be taken." This study quantifies the trade-off: per strategy, how
//! the Platform-2 prediction's coverage and width change.

use prodpred_bench::{ablation_series, mean_relative_width};
use prodpred_core::report::{f, render_table};
use prodpred_core::PredictorConfig;
use prodpred_simgrid::Platform;
use prodpred_stochastic::{max_of, MaxStrategy, StochasticValue};

pub fn run() {
    println!("== Ablation: Max strategy over per-processor components ==\n");

    // Micro level: the paper's worked example A=4±0.5, B=3±2, C=3±1.
    let vals = [
        StochasticValue::new(4.0, 0.5),
        StochasticValue::new(3.0, 2.0),
        StochasticValue::new(3.0, 1.0),
    ];
    let strategies: Vec<(&str, MaxStrategy)> = vec![
        ("by mean", MaxStrategy::ByMean),
        ("by upper bound", MaxStrategy::ByUpperBound),
        ("by lower bound", MaxStrategy::ByLowerBound),
        ("Clark", MaxStrategy::Clark),
        (
            "Monte Carlo 200k",
            MaxStrategy::MonteCarlo {
                samples: 200_000,
                seed: 9,
            },
        ),
    ];
    let rows: Vec<Vec<String>> = strategies
        .iter()
        .map(|(name, s)| {
            let m = max_of(&vals, *s);
            vec![name.to_string(), format!("{m}"), f(m.lo(), 3), f(m.hi(), 3)]
        })
        .collect();
    println!(
        "{}",
        render_table(&["strategy", "Max(4±0.5, 3±2, 3±1)", "lo", "hi"], &rows)
    );

    // System level: end-to-end accuracy per strategy on Platform 2.
    println!("\n-- end-to-end effect on Platform 2 (1600², 12 runs) --\n");
    let mut rows = Vec::new();
    for (name, s) in &strategies {
        let platform = Platform::platform2(1600, 60_000.0);
        let predictor = PredictorConfig {
            max_strategy: *s,
            ..Default::default()
        };
        let series = ablation_series(&platform, &[1600; 12], 1600, predictor);
        let acc = series.accuracy().unwrap();
        rows.push(vec![
            name.to_string(),
            f(acc.coverage * 100.0, 0),
            f(acc.max_range_error * 100.0, 1),
            f(acc.max_mean_error * 100.0, 1),
            f(mean_relative_width(&series) * 100.0, 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            &[
                "strategy",
                "coverage %",
                "max range err %",
                "max mean err %",
                "mean rel width %"
            ],
            &rows
        )
    );
    println!(
        "\nSelection strategies (by mean / bounds) pick one input's interval;\n\
         Clark folds all inputs into a genuinely new distribution and tracks\n\
         the Monte-Carlo ground truth closely at a fraction of the cost."
    );
}
