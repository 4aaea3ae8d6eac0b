//! Figures 14 and 15: the Platform-2 bursty-load study at the small
//! (1000x1000) problem size, plus a parallel multi-seed replication.

use prodpred_bench::platform2_figure;

pub fn run() {
    platform2_figure(
        1000,
        14,
        "Figures 14-15: Platform 2, bursty load, 1000x1000 repeats",
        "almost all actuals within range, small out-of-range errors",
    );
}
