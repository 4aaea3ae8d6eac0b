//! Figures 12 and 13: repeated 1600x1600 runs on Platform 2 under bursty
//! load — execution times with stochastic intervals (Fig 12) and the
//! companion load trace (Fig 13), plus a parallel multi-seed replication
//! of the claim.
//!
//! Paper's headline numbers: ~80% of actuals inside the stochastic range,
//! maximum stochastic error ~14%, maximum mean-point error 38.6%.

use prodpred_bench::platform2_figure;

pub fn run() {
    platform2_figure(
        1600,
        14,
        "Figures 12-13: Platform 2, bursty load, 1600x1600 repeats",
        "coverage ~80%, stochastic max ~14%, mean-point max 38.6%",
    );
}
