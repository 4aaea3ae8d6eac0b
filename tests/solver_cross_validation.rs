//! Numerical cross-validation of the three SOR executions: sequential,
//! real multithreaded, and the performance model's element accounting.

use prodpred_sor::{
    partition_equal, partition_rows, solve_parallel_strips, solve_seq, Grid, SorParams,
};

#[test]
fn parallel_equals_sequential_across_sizes_and_widths() {
    for n in [17, 40, 65] {
        for p in [2, 4, 5] {
            let params = SorParams::for_grid(n, 25);
            let mut seq = Grid::laplace_problem(n);
            solve_seq(&mut seq, params);
            let mut par = Grid::laplace_problem(n);
            solve_parallel_strips(&mut par, params, &partition_equal(n - 2, p));
            assert_eq!(par.max_diff(&seq), 0.0, "n={n}, p={p}");
        }
    }
}

#[test]
fn heterogeneous_weighted_strips_preserve_numerics() {
    let n = 41;
    let params = SorParams::for_grid(n, 30);
    let mut seq = Grid::laplace_problem(n);
    solve_seq(&mut seq, params);
    // Weights mimicking Platform 1's machine speeds.
    let strips = partition_rows(n - 2, &[0.5, 0.5, 0.77, 1.11]);
    let mut par = Grid::laplace_problem(n);
    solve_parallel_strips(&mut par, params, &strips);
    assert_eq!(par.max_diff(&seq), 0.0);
}

#[test]
fn converged_solution_satisfies_discrete_laplace() {
    let n = 33;
    let params = SorParams::for_grid(n, 600);
    let mut seq = Grid::laplace_problem(n);
    let residuals = solve_seq(&mut seq, params);
    let mut g = Grid::laplace_problem(n);
    solve_parallel_strips(&mut g, params, &partition_equal(n - 2, 4));
    // Bit for bit the sequential grid, so its last residual is this one's.
    assert_eq!(g.max_diff(&seq), 0.0);
    assert!(residuals[params.iterations - 1] < 1e-10);
    // Boundary intact.
    assert_eq!(g.get(0, n / 2), 1.0);
    assert_eq!(g.get(n - 1, n / 2), 0.0);
}

#[test]
fn strip_elements_match_grid_interior() {
    let n = 1000;
    for p in [1, 3, 4, 7] {
        let strips = partition_equal(n - 2, p);
        let total: usize = strips.iter().map(|s| s.elements(n)).sum();
        assert_eq!(total, (n - 2) * (n - 2), "p={p}");
    }
}
