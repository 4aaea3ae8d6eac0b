//! The sequential Red-Black SOR solver — the reference implementation the
//! parallel solver is validated against.

use crate::grid::{optimal_omega, Color, Grid};
use serde::{Deserialize, Serialize};

/// Solver parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SorParams {
    /// Relaxation factor in `(0, 2)`.
    pub omega: f64,
    /// Number of red+black iterations to run ("this repeats for a
    /// predefined number of iterations" — the paper's SOR runs a fixed
    /// count, not to convergence).
    pub iterations: usize,
}

impl SorParams {
    /// Optimal-omega parameters for an `n x n` grid.
    pub fn for_grid(n: usize, iterations: usize) -> Self {
        Self {
            omega: optimal_omega(n),
            iterations,
        }
    }
}

/// Relaxes every interior cell of `color` within rows `[row_lo, row_hi)`.
///
/// The update is the classic five-point SOR step for Laplace's equation:
/// `u += omega/4 * (sum of 4 neighbours - 4u)`, performed row-by-row by
/// the shared slice kernel `kernel::relax_rows`.
pub fn sweep_color_rows(grid: &mut Grid, color: Color, omega: f64, row_lo: usize, row_hi: usize) {
    let n = grid.n();
    debug_assert!(row_lo >= 1 && row_hi < n);
    crate::kernel::relax_rows(grid.data_mut(), n, color.parity(), omega, row_lo, row_hi, 0);
}

/// One full red+black iteration over the whole interior, with the two
/// colour sweeps fused into a single streaming pass: red on row `i`,
/// then black on row `i - 1`, which by then has every red neighbour it
/// needs (rows `i - 2 ..= i`).
///
/// Bit-for-bit identical to a full red sweep followed by a full black
/// sweep — red cells still read only pre-iteration black values, black
/// cells only post-red values. The fusion halves memory traffic per
/// iteration, which buys little while the grid stays in cache and the
/// sweep is FP-bound: on 1026² the benchmark reads 776.8 Mcell/s fused
/// against 762.6 two-pass with the scalar kernel and 1 227 against 1 131
/// with the packed one, under 3 % of a `solve_seq` iteration. Out of cache
/// it pays (the `sor-kernel-2048` criterion group: 5.4 ms against 6.6).
/// The threaded worker, which exchanges ghosts between the colours, cannot
/// use it, and no solver calls it: it is here to be measured beside the
/// two-pass sweep.
pub fn sweep_iteration(grid: &mut Grid, omega: f64) {
    let n = grid.n();
    let red = Color::Red.parity();
    let black = Color::Black.parity();
    let data = grid.data_mut();
    crate::kernel::relax_rows(data, n, red, omega, 1, 2, 0);
    for i in 2..n - 1 {
        crate::kernel::relax_rows(data, n, red, omega, i, i + 1, 0);
        crate::kernel::relax_rows(data, n, black, omega, i - 1, i, 0);
    }
    crate::kernel::relax_rows(data, n, black, omega, n - 2, n - 1, 0);
}

/// One red+black iteration over the whole interior — a full red sweep, a
/// full black sweep — and the residual it leaves.
fn iterate(grid: &mut Grid, omega: f64) -> f64 {
    let n = grid.n();
    sweep_color_rows(grid, Color::Red, omega, 1, n - 1);
    sweep_color_rows(grid, Color::Black, omega, 1, n - 1);
    grid.max_residual()
}

/// Runs `params.iterations` red-black iterations sequentially.
/// Returns the residual after each iteration.
pub fn solve_seq(grid: &mut Grid, params: SorParams) -> Vec<f64> {
    assert!(
        params.omega > 0.0 && params.omega < 2.0,
        "omega must lie in (0,2): {}",
        params.omega
    );
    (0..params.iterations)
        .map(|_| iterate(grid, params.omega))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `solve_seq`'s red+black iteration until the residual drops
    /// below `tol` or `max_iterations` is reached, and returns the
    /// iterations performed and the final residual: the convergence
    /// oracle of `solve_seq`'s sweep, which runs a fixed count.
    fn solve_until(grid: &mut Grid, omega: f64, tol: f64, max_iterations: usize) -> (usize, f64) {
        let mut residual = f64::INFINITY;
        for it in 1..=max_iterations {
            residual = iterate(grid, omega);
            if residual < tol {
                return (it, residual);
            }
        }
        (max_iterations, residual)
    }

    #[test]
    fn fused_iteration_matches_two_pass_bitwise() {
        for n in [3, 4, 9, 34] {
            let mut fused = Grid::laplace_problem(n);
            let mut two_pass = Grid::laplace_problem(n);
            let omega = optimal_omega(n);
            for _ in 0..25 {
                sweep_iteration(&mut fused, omega);
                sweep_color_rows(&mut two_pass, Color::Red, omega, 1, n - 1);
                sweep_color_rows(&mut two_pass, Color::Black, omega, 1, n - 1);
            }
            assert_eq!(
                fused.max_diff(&two_pass),
                0.0,
                "n={n}: fusion changed results"
            );
        }
    }

    #[test]
    fn residuals_decrease_monotonically_enough() {
        let mut g = Grid::laplace_problem(33);
        let res = solve_seq(&mut g, SorParams::for_grid(33, 60));
        assert!(res[59] < res[0] * 1e-3, "no convergence: {:?}", &res[..3]);
        // Broad monotone trend (SOR residuals can wiggle early).
        assert!(res[59] <= res[20]);
    }

    #[test]
    fn converges_to_harmonic_solution() {
        let mut g = Grid::laplace_problem(17);
        solve_seq(&mut g, SorParams::for_grid(17, 500));
        assert!(g.max_residual() < 1e-10, "residual {}", g.max_residual());
        // Maximum principle: interior values strictly between boundary
        // extremes.
        for i in 1..16 {
            for j in 1..16 {
                let v = g.get(i, j);
                assert!(v > 0.0 && v < 1.0, "({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn solution_symmetric_left_right() {
        // The Laplace problem is symmetric about the vertical midline.
        let n = 17;
        let mut g = Grid::laplace_problem(n);
        solve_seq(&mut g, SorParams::for_grid(n, 500));
        for i in 1..n - 1 {
            for j in 1..n / 2 {
                let a = g.get(i, j);
                let b = g.get(i, n - 1 - j);
                assert!((a - b).abs() < 1e-9, "asymmetry at ({i},{j}): {a} vs {b}");
            }
        }
    }

    #[test]
    fn boundary_cells_never_move() {
        let n = 9;
        let mut g = Grid::laplace_problem(n);
        let before: Vec<f64> = (0..n).map(|j| g.get(0, j)).collect();
        solve_seq(&mut g, SorParams::for_grid(n, 50));
        for (j, &b) in before.iter().enumerate() {
            assert_eq!(g.get(0, j), b);
            assert_eq!(g.get(n - 1, j), 0.0);
            assert_eq!(g.get(j, 0), 0.0);
            assert_eq!(g.get(j, n - 1), 0.0);
        }
    }

    #[test]
    fn solve_until_reaches_tolerance() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        let (iters, residual) = solve_until(&mut g, optimal_omega(n), 1e-8, 10_000);
        assert!(residual < 1e-8);
        assert!(iters > 10 && iters < 10_000, "iters {iters}");
        // Re-solving from the converged state needs one iteration.
        let (again, _) = solve_until(&mut g, optimal_omega(n), 1e-8, 10_000);
        assert_eq!(again, 1);
    }

    #[test]
    fn solve_until_respects_iteration_cap() {
        let n = 65;
        let mut g = Grid::laplace_problem(n);
        let (iters, residual) = solve_until(&mut g, 1.0, 1e-14, 5);
        assert_eq!(iters, 5);
        assert!(residual > 1e-14);
    }

    #[test]
    fn optimal_omega_converges_in_fewer_iterations() {
        let n = 49;
        let mut fast = Grid::laplace_problem(n);
        let (it_fast, _) = solve_until(&mut fast, optimal_omega(n), 1e-8, 100_000);
        let mut slow = Grid::laplace_problem(n);
        let (it_slow, _) = solve_until(&mut slow, 1.0, 1e-8, 100_000);
        // Textbook result: optimal SOR needs far fewer iterations than
        // Gauss-Seidel (omega = 1).
        assert!(
            it_fast * 4 < it_slow,
            "optimal {it_fast} vs gauss-seidel {it_slow}"
        );
    }

    #[test]
    fn omega_one_is_gauss_seidel_and_slower() {
        let n = 33;
        let iters = 40;
        let mut fast = Grid::laplace_problem(n);
        let rf = solve_seq(&mut fast, SorParams::for_grid(n, iters));
        let mut slow = Grid::laplace_problem(n);
        let rs = solve_seq(
            &mut slow,
            SorParams {
                omega: 1.0,
                iterations: iters,
            },
        );
        assert!(
            rf[iters - 1] < rs[iters - 1],
            "optimal omega should converge faster: {} vs {}",
            rf[iters - 1],
            rs[iters - 1]
        );
    }

    #[test]
    fn sweep_only_touches_requested_color() {
        let n = 7;
        let mut g = Grid::laplace_problem(n);
        let before = g.clone();
        sweep_color_rows(&mut g, Color::Red, 1.5, 1, n - 1);
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                if (i + j) % 2 == 1 {
                    assert_eq!(g.get(i, j), before.get(i, j), "black cell ({i},{j}) moved");
                }
            }
        }
    }

    #[test]
    fn sweep_row_range_is_respected() {
        let n = 9;
        let mut g = Grid::laplace_problem(n);
        let before = g.clone();
        sweep_color_rows(&mut g, Color::Red, 1.5, 3, 5);
        for i in (1..3).chain(5..n - 1) {
            for j in 0..n {
                assert_eq!(g.get(i, j), before.get(i, j), "row {i} moved");
            }
        }
    }

    #[test]
    #[should_panic]
    fn rejects_omega_out_of_range() {
        let mut g = Grid::new(5);
        solve_seq(
            &mut g,
            SorParams {
                omega: 2.0,
                iterations: 1,
            },
        );
    }
}
