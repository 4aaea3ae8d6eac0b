//! Figures 16 and 17: the Platform-2 bursty-load study at the large
//! (2000x2000) problem size, plus a parallel multi-seed replication.

use prodpred_bench::platform2_figure;

pub fn run() {
    platform2_figure(
        2000,
        14,
        "Figures 16-17: Platform 2, bursty load, 2000x2000 repeats",
        "almost all actuals within range, small out-of-range errors",
    );
}
