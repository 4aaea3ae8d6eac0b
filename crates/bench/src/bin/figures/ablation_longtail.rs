//! Ablation: how the normal approximation of long-tailed data degrades as
//! the tail grows (Section 2.1.1: "we have exchanged the efficiency of
//! computing the distribution for the quality of its results").

use prodpred_core::report::{f, render_table};
use prodpred_simgrid::load::LoadGenerator;
use prodpred_simgrid::network::EthernetContention;
use prodpred_stochastic::fit::normality_report;
use prodpred_stochastic::Summary;

pub fn run() {
    println!("== Ablation: normal summary vs. tail weight ==\n");
    // Six independent 30k-sample trace generations + normality reports:
    // one pool task per tail weight, results in input order.
    let weights = [0.0f64, 0.05, 0.12, 0.25, 0.40, 0.60];
    let rows = prodpred_pool::parallel_map(&weights, 0, |_, &busy_weight| {
        let gen = EthernetContention {
            busy_weight: busy_weight.max(1e-6),
            ..Default::default()
        };
        let trace = gen.generate(7, 0.0, 5.0, 30_000);
        let mbit: Vec<f64> = trace.values().iter().map(|v| v * 10.0).collect();
        let s = Summary::from_slice(&mbit);
        let rep = normality_report(&mbit).unwrap();
        vec![
            f(busy_weight, 2),
            f(s.mean(), 2),
            f(s.sd(), 2),
            f(s.skewness(), 2),
            f(rep.two_sigma_coverage * 100.0, 1),
            if rep.is_adequate() { "yes" } else { "no" }.to_string(),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "busy weight",
                "mean Mbit/s",
                "sd",
                "skew",
                "2-sigma coverage %",
                "normal OK"
            ],
            &rows
        )
    );
    println!(
        "\nWith no contention the normal summary hits its nominal ~95%\n\
         coverage; as the busy fraction grows the left tail drags coverage\n\
         down (the paper's 91% example sits near busy weight 0.12) until\n\
         the normal assumption stops being adequate for tight scheduling."
    );
}
