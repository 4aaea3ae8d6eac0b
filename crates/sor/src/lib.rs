//! # prodpred-sor
//!
//! Distributed Red-Black Successive Over-Relaxation — the application the
//! paper validates its stochastic predictions on (Section 2.2.1).
//!
//! Three executions of the same algorithm:
//!
//! * [`seq`] — the sequential reference solver,
//! * [`parallel`] — a real multithreaded, shared-nothing implementation
//!   (one worker per block of a [`Decomposition`], ghost-edge exchange
//!   over recycled-buffer mailboxes), bit-for-bit equal to the sequential
//!   solver,
//! * [`distsim`] — a simulated *distributed* execution on a
//!   [`prodpred_simgrid::Platform`], integrating compute against CPU
//!   availability traces and ghost transfers against the shared ethernet,
//!   including the loose-synchronization skew of the paper's Figure 7.
//!   This is what generates the "actual execution times" in the
//!   experiment harness.
//!
//! Each exists once. The paper's strip decomposition (equal or
//! capacity-weighted, per its footnote 2) and the 2D block decomposition
//! of the strip-vs-block ablation are both a [`decomp::Decomposition`] — a
//! strip is a block spanning every interior column, `P` strips a `P x 1`
//! processor grid — so one worker, one set of neighbour links and one
//! worker loop run both, executing the exchange order [`protocol`] holds
//! as data (the order `prodpred-analysis` model-checks); and one simulator
//! phase loop runs both, fed a [`distsim::Part`] list.
//!
//! Plus the [`grid`] data structure, the shared slice-based relaxation
//! [`kernel`] every solver runs, the zero-allocation ghost [`exchange`]
//! the workers communicate through, and [`checkpoint`]/restart, so a
//! killed worker resumes from the last consistent red/black iteration
//! boundary instead of iteration 0.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Public-facing code returns typed errors instead of unwrapping; tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod decomp;
pub mod distsim;
pub mod exchange;
pub mod grid;
pub mod kernel;
pub mod parallel;
pub mod protocol;
pub mod seq;

pub use checkpoint::{
    resume_from, try_solve_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy,
    CheckpointStore, CHECKPOINT_VERSION,
};
pub use decomp::{
    partition_blocks, partition_equal, partition_rows, Block, BlockLayout, Decomposition, Peer,
    Strip,
};
pub use distsim::{simulate, simulate_blocks, simulate_with, DistSorConfig, DistSorResult, Part};
pub use exchange::{ExchangeError, ExchangePolicy};
pub use grid::{optimal_omega, Color, Grid};
pub use parallel::{
    solve_parallel, solve_parallel_blocks, solve_parallel_strips, try_solve_decomposed,
    try_solve_parallel_blocks, try_solve_parallel_strips, SolveError, SolveOptions,
};
pub use seq::{solve_seq, solve_until, sweep_iteration, SorParams};

// The block-layout unit tests predate the fold of the 2D modules into
// `decomp`, `distsim` and `parallel`; they keep the module paths they had,
// so the ids test reports (and lists built from them) know them by do not
// change.

/// Unit tests of the block partition in `crate::decomp`.
#[cfg(test)]
mod decomp2d {
    mod tests {
        use crate::decomp::{partition_blocks, Block, BlockLayout, Peer};
        use crate::distsim::{Part, BYTES_PER_ELEMENT};

        #[test]
        fn partition_tiles_interior_exactly() {
            let n = 34; // interior 32
            let layout = BlockLayout::new(4, 2);
            let blocks = partition_blocks(n, layout);
            assert_eq!(blocks.len(), 8);
            let total: usize = blocks.iter().map(Block::elements).sum();
            assert_eq!(total, 32 * 32);
            // Procs indexed row-major and in order.
            for (i, b) in blocks.iter().enumerate() {
                assert_eq!(b.proc, i);
            }
        }

        #[test]
        fn uneven_interior_spreads_remainder() {
            let n = 12; // interior 10
            let blocks = partition_blocks(n, BlockLayout::new(3, 3));
            let sizes: Vec<usize> = blocks.iter().map(Block::elements).collect();
            let total: usize = sizes.iter().sum();
            assert_eq!(total, 100);
            // One block per block-row: remainder rows go to the leading rows.
            let rows: Vec<usize> = [0, 3, 6].iter().map(|&i| blocks[i].n_rows()).collect();
            assert_eq!(rows, vec![4, 3, 3]);
        }

        #[test]
        fn squarest_layouts() {
            assert_eq!(BlockLayout::squarest(4), BlockLayout::new(2, 2));
            assert_eq!(BlockLayout::squarest(12), BlockLayout::new(3, 4));
            assert_eq!(BlockLayout::squarest(7), BlockLayout::new(1, 7));
            assert_eq!(BlockLayout::squarest(16), BlockLayout::new(4, 4));
        }

        #[test]
        fn neighbour_topology() {
            let l = BlockLayout::new(3, 3);
            let neighbours = |rank| Peer::ALL.map(|peer| l.neighbour(rank, peer));
            let count = |rank| neighbours(rank).iter().flatten().count();
            // Corner has two neighbours.
            assert_eq!(count(0), 2);
            // Edge has three.
            assert_eq!(count(1), 3);
            // Center has four: up, down, left, right.
            assert_eq!(count(4), 4);
            assert_eq!(neighbours(4), [Some(1), Some(7), Some(3), Some(5)]);
        }

        #[test]
        fn strip_is_a_special_case() {
            let n = 18;
            let blocks = partition_blocks(n, BlockLayout::new(4, 1));
            for b in &blocks {
                assert_eq!(b.n_cols(), 16);
            }
        }

        #[test]
        fn block_ghosts_smaller_than_strip_ghosts_for_many_procs() {
            let n = 1002; // interior 1000
            let p = 16;
            // Strip: interior proc exchanges 2 rows of 1000 in each direction.
            let strip_ghosts = 2 * 2 * 1000;
            // What the simulator charges a centre block per phase: one message
            // each way across each of its four edges.
            let layout = BlockLayout::squarest(p);
            let parts = Part::blocks(&partition_blocks(n, layout), layout);
            let center = parts.iter().find(|p| p.neighbours.len() == 4).unwrap();
            let edge_bytes: f64 = center.neighbours.iter().map(|&(_, bytes)| bytes).sum();
            let block_ghosts = (2.0 * edge_bytes / BYTES_PER_ELEMENT) as usize;
            assert!(
                block_ghosts < strip_ghosts,
                "block {block_ghosts} vs strip {strip_ghosts}"
            );
        }

        #[test]
        #[should_panic]
        fn rejects_too_fine_layout() {
            partition_blocks(5, BlockLayout::new(4, 4));
        }
    }
}

/// Unit tests of `crate::distsim::simulate_blocks`.
#[cfg(test)]
mod distsim2d {
    mod tests {
        use crate::decomp::{partition_blocks, partition_equal, BlockLayout};
        use crate::distsim::{simulate, simulate_blocks, DistSorConfig};
        use prodpred_simgrid::{MachineClass, Platform};

        fn dedicated(p: usize) -> Platform {
            Platform::dedicated(&vec![MachineClass::Sparc10; p], 1.0e6)
        }

        #[test]
        fn strip_layout_matches_1d_simulator() {
            // A pc = 1 block layout is the strip decomposition. The simulators
            // agree up to the ghost-row convention: the 1D code ships whole
            // grid rows (N elements), the 2D code ships interior segments
            // (N - 2) — a 0.2% message-size difference at N = 1000.
            let n = 1000;
            let p = 4;
            let platform = dedicated(p);
            let cfg = DistSorConfig::new(n, 10, 0.0);
            let blocks = partition_blocks(n, BlockLayout::new(p, 1));
            let r2d = simulate_blocks(&platform, &blocks, BlockLayout::new(p, 1), cfg);
            let strips = partition_equal(n - 2, p);
            let r1d = simulate(&platform, &strips, cfg);
            let rel = (r2d.total_secs - r1d.total_secs).abs() / r1d.total_secs;
            assert!(
                rel < 0.005,
                "2d {} vs 1d {}",
                r2d.total_secs,
                r1d.total_secs
            );
        }

        #[test]
        fn square_blocks_beat_strips_when_comm_dominates() {
            // 16 processors, small grid, slow network: comm dominates and the
            // square layout's shorter edges win.
            let n = 402;
            let p = 16;
            let mut platform = dedicated(p);
            // Slow the network to make communication dominant.
            platform.network.spec.dedicated_bw = 2.0e5;
            let cfg = DistSorConfig::new(n, 10, 0.0);
            let strips = partition_equal(n - 2, p);
            let t_strip = simulate(&platform, &strips, cfg).total_secs;
            let layout = BlockLayout::squarest(p);
            let blocks = partition_blocks(n, layout);
            let t_block = simulate_blocks(&platform, &blocks, layout, cfg).total_secs;
            assert!(
                t_block < t_strip,
                "block {t_block} should beat strip {t_strip}"
            );
        }

        #[test]
        fn strips_beat_square_blocks_for_few_procs_low_latency() {
            // 4 processors: strip interior procs have 2 neighbours (4 msgs),
            // 2x2 blocks have 2 neighbours too but latency per message counts
            // double the shorter edges — with a fast network and big messages
            // the layouts are close; with high latency strips win (fewer,
            // larger messages... same count here), so just assert both run
            // and produce comparable times.
            let n = 1000;
            let p = 4;
            let platform = dedicated(p);
            let cfg = DistSorConfig::new(n, 10, 0.0);
            let t_strip = simulate(&platform, &partition_equal(n - 2, p), cfg).total_secs;
            let layout = BlockLayout::squarest(p);
            let t_block =
                simulate_blocks(&platform, &partition_blocks(n, layout), layout, cfg).total_secs;
            let ratio = t_block / t_strip;
            assert!(ratio > 0.7 && ratio < 1.3, "ratio {ratio}");
        }

        #[test]
        fn deterministic() {
            let platform = Platform::platform2(3, 50_000.0);
            let layout = BlockLayout::new(2, 2);
            let blocks = partition_blocks(400, layout);
            let cfg = DistSorConfig::new(400, 5, 100.0);
            let a = simulate_blocks(&platform, &blocks, layout, cfg);
            let b = simulate_blocks(&platform, &blocks, layout, cfg);
            assert_eq!(a.total_secs, b.total_secs);
        }

        #[test]
        #[should_panic]
        fn rejects_layout_mismatch() {
            let platform = dedicated(4);
            let blocks = partition_blocks(100, BlockLayout::new(2, 2));
            simulate_blocks(
                &platform,
                &blocks,
                BlockLayout::new(4, 1),
                DistSorConfig::new(100, 1, 0.0),
            );
        }
    }
}

/// Unit tests of the threaded solver over block layouts.
#[cfg(test)]
mod parallel2d {
    mod tests {
        use crate::decomp::BlockLayout;
        use crate::exchange::ExchangePolicy;
        use crate::grid::Grid;
        use crate::parallel::{try_solve_parallel_blocks, SolveError, SolveOptions};
        use crate::seq::{solve_seq, SorParams};
        use prodpred_simgrid::faults::WorkerDeath;

        fn reference(n: usize, iters: usize) -> Grid {
            let mut g = Grid::laplace_problem(n);
            solve_seq(&mut g, SorParams::for_grid(n, iters));
            g
        }

        #[test]
        fn killed_block_worker_returns_typed_error() {
            // Corner, edge, and interior blocks of a 3x3 layout.
            for (rank, half) in [(0, 0), (4, 3), (8, 7), (5, 2)] {
                let n = 26;
                let initial = Grid::laplace_problem(n);
                let mut g = initial.clone();
                let options = SolveOptions {
                    policy: ExchangePolicy {
                        timeout: std::time::Duration::from_millis(200),
                        retries: 1,
                    },
                    kill: Some(WorkerDeath {
                        rank,
                        at_half_iteration: half,
                    }),
                };
                let err = try_solve_parallel_blocks(
                    &mut g,
                    SorParams::for_grid(n, 10),
                    BlockLayout::new(3, 3),
                    &options,
                )
                .unwrap_err();
                assert_eq!(err, SolveError::WorkerDied { rank }, "kill rank {rank}");
                assert_eq!(g.max_diff(&initial), 0.0, "grid must stay untouched");
            }
        }

        #[test]
        fn fallible_block_solve_without_faults_matches_sequential() {
            let n = 22;
            let iters = 12;
            let want = reference(n, iters);
            let mut g = Grid::laplace_problem(n);
            try_solve_parallel_blocks(
                &mut g,
                SorParams::for_grid(n, iters),
                BlockLayout::new(2, 3),
                &SolveOptions::default(),
            )
            .unwrap();
            assert_eq!(g.max_diff(&want), 0.0);
        }
    }
}
