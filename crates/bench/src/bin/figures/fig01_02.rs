//! Figures 1 and 2: PDF and CDF of in-core sort runtimes on a dedicated
//! workstation, with the fitted normal overlay.
//!
//! Pass `--live` to time real sorts on this host instead of replaying the
//! deterministic simulated benchmark.

use prodpred_bench::{print_cdf_comparison, print_histogram_with_normal};
use prodpred_simgrid::benchmark::{figure1_runtimes, run_sort_benchmark};
use prodpred_stochastic::fit::normality_report;
use prodpred_stochastic::StochasticValue;

pub fn run() {
    let live = std::env::args().any(|a| a == "--live");
    let runtimes = if live {
        // Real sorts: scale counts so one repetition takes ~5-20 ms.
        run_sort_benchmark(400_000, 200, 1)
    } else {
        figure1_runtimes(400, 1)
    };
    let what = if live {
        "live sort timings"
    } else {
        "simulated dedicated sort runtimes"
    };
    print_histogram_with_normal(&runtimes, 14, &format!("Figure 1: {what}"), "sec");
    print_cdf_comparison(&runtimes, 12, "Figure 2: sample runtime", "sec");

    let report = normality_report(&runtimes).expect("enough samples");
    let sv = StochasticValue::from_samples(&runtimes).unwrap();
    println!("stochastic summary: {sv}");
    println!(
        "two-sigma coverage {:.1}%  skewness {:+.2}  KS p {:.3}  AD A*2 {:.2}  -> normal assumption {}",
        report.two_sigma_coverage * 100.0,
        report.skewness,
        report.ks_p_value,
        report.ad_statistic,
        if report.is_adequate() { "adequate" } else { "NOT adequate" }
    );
}
