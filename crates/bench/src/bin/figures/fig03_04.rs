//! Figures 3 and 4: long-tailed distribution of shared-ethernet bandwidth
//! with the corresponding (inadequate) normal fit. The paper's headline:
//! mean 5.25 ± 0.8, and "the normal distribution is representative of 91%
//! of the values, rather than the 95% typically assumed."

use prodpred_bench::{print_cdf_comparison, print_histogram_with_normal};
use prodpred_simgrid::load::LoadGenerator;
use prodpred_simgrid::network::EthernetContention;
use prodpred_stochastic::fit::normality_report;
use prodpred_stochastic::{StochasticValue, Summary};

pub fn run() {
    let contention = EthernetContention::default();
    let trace = contention.generate(3, 0.0, 5.0, 20_000);
    let mbit: Vec<f64> = trace.values().iter().map(|f| f * 10.0).collect();

    print_histogram_with_normal(
        &mbit,
        16,
        "Figure 3: ethernet bandwidth between two workstations",
        "Mbit/s",
    );
    print_cdf_comparison(&mbit, 12, "Figure 4: bandwidth", "Mbit/s");

    let s = Summary::from_slice(&mbit);
    let sv = StochasticValue::from_samples(&mbit).unwrap();
    let report = normality_report(&mbit).expect("enough samples");
    println!("stochastic summary: {sv}  (paper: 5.25 ± 0.8)");
    println!(
        "skewness {:+.2} (left tail), median {:.2} vs mean {:.2}",
        s.skewness(),
        prodpred_stochastic::stats::median(&mbit).unwrap(),
        s.mean()
    );
    println!(
        "two-sigma coverage {:.1}%  (paper: ~91% instead of the nominal ~95%)",
        report.two_sigma_coverage * 100.0
    );
    println!(
        "Anderson-Darling A*2 = {:.2} -> normality {} at 5% (tail-sensitive)",
        report.ad_statistic,
        if report.ad_rejects {
            "REJECTED"
        } else {
            "accepted"
        }
    );
    println!(
        "normal assumption adequate for a tolerant scheduler: {}",
        report.is_adequate()
    );
}
