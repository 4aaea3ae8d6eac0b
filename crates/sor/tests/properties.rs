//! Property-based tests for the SOR crate: partition conservation, solver
//! equivalence, and simulation monotonicity.

use prodpred_simgrid::{MachineClass, Platform};
use prodpred_sor::{
    partition_equal, partition_rows, simulate, solve_seq, try_solve_checkpointed, BlockLayout,
    CheckpointPolicy, CheckpointStore, Decomposition, DistSorConfig, Grid, SolveOptions, SorParams,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // ---- decomposition ----

    #[test]
    fn partition_conserves_rows(n_interior in 1usize..5000, weights in proptest::collection::vec(0.01f64..100.0, 1..12)) {
        let strips = partition_rows(n_interior, &weights);
        prop_assert_eq!(strips.len(), weights.len());
        let total: usize = strips.iter().map(|s| s.n_rows()).sum();
        prop_assert_eq!(total, n_interior);
        // Contiguity and order.
        let mut expected = 1usize;
        for (i, s) in strips.iter().enumerate() {
            prop_assert_eq!(s.proc, i);
            prop_assert_eq!(s.rows.start, expected);
            expected = s.rows.end;
        }
    }

    #[test]
    fn partition_roughly_proportional(n_interior in 100usize..5000, w in 1.0f64..20.0) {
        // Two machines with ratio w: the share should track w/(w+1).
        let strips = partition_rows(n_interior, &[w, 1.0]);
        let share = strips[0].n_rows() as f64 / n_interior as f64;
        let expect = w / (w + 1.0);
        prop_assert!((share - expect).abs() < 2.0 / n_interior as f64 + 1e-9);
    }

    #[test]
    fn equal_partition_is_balanced(n_interior in 1usize..2000, p in 1usize..16) {
        let strips = partition_equal(n_interior, p);
        let sizes: Vec<usize> = strips.iter().map(|s| s.n_rows()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        prop_assert!(max - min <= 1, "{sizes:?}");
    }

    // ---- solver equivalence ----

    // One solver, so one property: whatever the decomposition — weighted
    // strips or a pr x pc block layout — and whether the run is one segment
    // or checkpointed every `every` iterations, the threaded result is the
    // sequential one bit for bit.
    #[test]
    fn parallel_bitwise_equals_sequential(
        n in 8usize..40,
        iters in 1usize..12,
        weights in proptest::collection::vec(0.5f64..4.0, 2..5),
        (pr, pc) in (1usize..4, 1usize..4),
        every in 0usize..6,
    ) {
        let params = SorParams::for_grid(n, iters);
        let mut seq = Grid::laplace_problem(n);
        solve_seq(&mut seq, params);

        let strips = partition_rows(n - 2, &weights);
        prop_assume!(strips.iter().all(|s| s.n_rows() > 0));
        for decomposition in [
            Decomposition::strips(n, &strips),
            Decomposition::blocks(n, BlockLayout::new(pr, pc)),
        ] {
            let mut par = Grid::laplace_problem(n);
            try_solve_checkpointed(
                &mut par,
                params,
                &decomposition,
                &SolveOptions::reliable(),
                CheckpointPolicy::every(every),
                &mut CheckpointStore::new(),
            )
            .unwrap();
            prop_assert_eq!(par.max_diff(&seq), 0.0, "{:?}", decomposition);
        }
    }

    #[test]
    fn residual_never_worse_after_more_iterations(n in 8usize..32, iters in 2usize..20) {
        let mut g = Grid::laplace_problem(n);
        let res = solve_seq(&mut g, SorParams::for_grid(n, iters));
        // Compare first and last thirds (per-step wiggle allowed).
        prop_assert!(res[iters - 1] <= res[0] + 1e-12);
    }

    // ---- simulated distributed execution ----

    #[test]
    fn distsim_time_positive_and_monotone_in_iterations(seed in 0u64..200, n in 100usize..800, it in 1usize..10) {
        let platform = Platform::platform1(seed, 20_000.0);
        let strips = partition_equal(n - 2, 4.min(n - 2));
        let short = simulate(&platform, &strips, DistSorConfig::new(n, it, 100.0));
        let long = simulate(&platform, &strips, DistSorConfig::new(n, it + 1, 100.0));
        prop_assert!(short.total_secs > 0.0);
        prop_assert!(long.total_secs > short.total_secs);
        prop_assert_eq!(short.iteration_secs.len(), it);
    }

    #[test]
    fn distsim_deterministic(seed in 0u64..100) {
        let platform = Platform::platform2(seed, 10_000.0);
        let strips = partition_equal(398, 4);
        let a = simulate(&platform, &strips, DistSorConfig::new(400, 5, 50.0));
        let b = simulate(&platform, &strips, DistSorConfig::new(400, 5, 50.0));
        prop_assert_eq!(a.total_secs, b.total_secs);
    }

    #[test]
    fn bigger_problems_take_longer(seed in 0u64..50) {
        let platform = Platform::dedicated(
            &[MachineClass::Sparc10, MachineClass::Sparc10],
            1.0e4,
        );
        let small = simulate(
            &platform,
            &partition_equal(398, 2),
            DistSorConfig::new(400, 5, 0.0),
        );
        let big = simulate(
            &platform,
            &partition_equal(798, 2),
            DistSorConfig::new(800, 5, 0.0),
        );
        prop_assert!(big.total_secs > small.total_secs);
        let _ = seed;
    }
}
