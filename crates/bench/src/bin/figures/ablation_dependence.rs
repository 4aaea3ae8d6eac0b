//! Ablation: related vs. unrelated combination rules in the SOR model
//! (Section 2.3.1's two addition regimes).
//!
//! The phase terms share machines and the ethernet segment, so the paper's
//! conservative related rule is the faithful default; this study shows
//! what the optimistic independence assumption would do to coverage.

use prodpred_bench::{ablation_series, mean_relative_width};
use prodpred_core::report::{f, render_table};
use prodpred_core::PredictorConfig;
use prodpred_simgrid::Platform;
use prodpred_stochastic::Dependence;

pub fn run() {
    println!("== Ablation: dependence assumption between phase terms ==\n");
    let mut rows = Vec::new();
    for (name, dep) in [
        ("related (conservative)", Dependence::Related),
        ("unrelated (quadrature)", Dependence::Unrelated),
    ] {
        for (pname, seed) in [("platform1", 42u64), ("platform2", 1600u64)] {
            let platform = if pname == "platform1" {
                Platform::platform1(seed, 60_000.0)
            } else {
                Platform::platform2(seed, 60_000.0)
            };
            let sizes: Vec<usize> = if pname == "platform1" {
                vec![1000, 1200, 1400, 1600, 1800, 2000]
            } else {
                vec![1600; 12]
            };
            let predictor = PredictorConfig {
                phase_dependence: dep,
                ..Default::default()
            };
            let series = ablation_series(&platform, &sizes, seed, predictor);
            let acc = series.accuracy().unwrap();
            rows.push(vec![
                name.to_string(),
                pname.to_string(),
                f(acc.coverage * 100.0, 0),
                f(acc.max_range_error * 100.0, 1),
                f(mean_relative_width(&series) * 100.0, 1),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "rule",
                "platform",
                "coverage %",
                "max range err %",
                "mean rel width %"
            ],
            &rows
        )
    );
    println!(
        "\nIteration terms repeat the same machines and segment: treating\n\
         them as unrelated shrinks the interval by sqrt(NumIts) and costs\n\
         coverage; the related rule keeps the paper's conservative bound."
    );
}
