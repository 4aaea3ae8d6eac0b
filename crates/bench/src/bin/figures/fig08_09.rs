//! Figures 8 and 9: Platform 1 (2x Sparc-2, Sparc-5, Sparc-10) with load
//! that stays within a single mode. Figure 8 is the watched machine's load
//! trace; Figure 9 shows actual execution times falling inside the
//! stochastic interval across problem sizes.
//!
//! Paper's headline numbers: measurements fall *entirely* within the
//! stochastic prediction; maximal mean-point discrepancy 9.7%; stochastic
//! (range) discrepancy 0%.
//!
//! The headline series replays the paper's single experiment (seed 42);
//! the replication table below it reruns the full size sweep under seven
//! more seeds — in parallel over the work pool, one series per worker —
//! to show the coverage claim is a property of the method, not of one
//! lucky load realization.

use prodpred_bench::{print_experiment, print_paper_vs_here, print_replication_table};
use prodpred_core::{platform1_experiment, platform1_seed_sweep};

pub fn run() {
    let sizes = [
        1000, 1100, 1200, 1300, 1400, 1500, 1600, 1700, 1800, 1900, 2000,
    ];
    let series = platform1_experiment(42, &sizes);
    print_experiment(
        &series,
        "Figures 8-9: Platform 1, single-mode load, size sweep",
        40,
    );
    print_paper_vs_here(
        &series,
        "coverage 100%, stochastic discrepancy 0%, mean-point max 9.7%",
    );

    let seeds: Vec<u64> = (43..50).collect();
    let sweep = platform1_seed_sweep(&seeds, &sizes, 0);
    print_replication_table(&seeds, &sweep, "replication across seeds (size sweep)");
}
