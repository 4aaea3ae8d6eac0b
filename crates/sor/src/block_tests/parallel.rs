//! Unit tests of the threaded solver over block layouts, under the module path they had
//! while blocks were a separate set of files (see `lib.rs`).

mod tests {
    use crate::decomp::BlockLayout;
    use crate::exchange::ExchangePolicy;
    use crate::grid::Grid;
    use crate::parallel::{
        solve_parallel_blocks, try_solve_parallel_blocks, SolveError, SolveOptions,
    };
    use crate::seq::{solve_seq, SorParams};
    use prodpred_simgrid::faults::WorkerDeath;

    fn reference(n: usize, iters: usize) -> Grid {
        let mut g = Grid::laplace_problem(n);
        solve_seq(&mut g, SorParams::for_grid(n, iters));
        g
    }

    #[test]
    fn blocks_match_sequential_bitwise() {
        for (pr, pc) in [(2, 2), (1, 3), (3, 1), (2, 3), (3, 3)] {
            let n = 26;
            let iters = 15;
            let reference = reference(n, iters);
            let mut g = Grid::laplace_problem(n);
            solve_parallel_blocks(
                &mut g,
                SorParams::for_grid(n, iters),
                BlockLayout::new(pr, pc),
            );
            assert_eq!(
                g.max_diff(&reference),
                0.0,
                "layout {pr}x{pc} differs from sequential"
            );
        }
    }

    #[test]
    fn single_block_delegates() {
        let n = 15;
        let reference = reference(n, 8);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(&mut g, SorParams::for_grid(n, 8), BlockLayout::new(1, 1));
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn converges_with_blocks() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(&mut g, SorParams::for_grid(n, 400), BlockLayout::new(2, 2));
        assert!(g.max_residual() < 1e-9, "residual {}", g.max_residual());
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

    #[test]
    fn uneven_blocks_still_match() {
        // Interior 11 split 3x2: ragged blocks.
        let n = 13;
        let iters = 10;
        let reference = reference(n, iters);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(
            &mut g,
            SorParams::for_grid(n, iters),
            BlockLayout::new(3, 2),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }
}
