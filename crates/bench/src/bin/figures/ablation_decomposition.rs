//! Ablation: strip vs. 2D block decomposition.
//!
//! The paper uses the strip decomposition ("a common data distribution
//! for this"). Blocks exchange shorter edges (`O(N/sqrt(P))` instead of
//! `O(N)`), so they win once communication matters — this study maps the
//! crossover over processor count and network speed.

use prodpred_core::report::{f, render_table};
use prodpred_simgrid::{MachineClass, Platform};
use prodpred_sor::{
    partition_blocks, partition_equal, simulate, simulate_blocks, BlockLayout, DistSorConfig,
};

pub fn run() {
    println!("== Ablation: strip vs block decomposition ==\n");
    let n = 600;
    let iterations = 10;
    let mut rows = Vec::new();
    for p in [4usize, 9, 16] {
        for (net, bw) in [("10 Mbit", 1.25e6), ("1 Mbit", 1.25e5)] {
            let mut platform = Platform::dedicated(&vec![MachineClass::Sparc10; p], 1.0e6);
            platform.network.spec.dedicated_bw = bw;
            let cfg = DistSorConfig::new(n, iterations, 0.0);
            let t_strip = simulate(&platform, &partition_equal(n - 2, p), cfg).total_secs;
            let layout = BlockLayout::squarest(p);
            let t_block =
                simulate_blocks(&platform, &partition_blocks(n, layout), layout, cfg).total_secs;
            rows.push(vec![
                p.to_string(),
                net.to_string(),
                f(t_strip, 2),
                f(t_block, 2),
                if t_block < t_strip { "block" } else { "strip" }.to_string(),
                f(t_strip / t_block, 2),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "P",
                "network",
                "strip (s)",
                "block (s)",
                "winner",
                "strip/block"
            ],
            &rows
        )
    );
    println!(
        "\nBlocks never lose outright — their edges are shorter from P = 4 on —\n\
         but the margin is modest on a fast network (tens of percent) and\n\
         grows as bandwidth shrinks or P rises (the comm-bound limit is\n\
         sqrt(P)/2). At the paper's scale (P = 4, 10 Mbit, compute-dominated\n\
         runs) the strip's simplicity costs little, which is why the paper\n\
         uses it."
    );
}
