//! The sequential Red-Black SOR solver — the reference implementation the
//! parallel solver is validated against.
//!
//! A call streams over the grid once per `DEPTH` iterations: each colour
//! of each iteration is a stage trailing the one before it by a row, and
//! the residual comes out of the kernel as a by-product of the updates
//! (see `stream`). The result is bit for bit that of full sweeps one after
//! another and the walked residual, which the tests below hold it to.

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

/// One full red+black iteration over the whole interior, in a single
/// streaming pass: red on row `i`, then black on row `i - 1`, which by
/// then has every red neighbour it needs (rows `i - 2 ..= i`).
///
/// Bit-for-bit identical to a full red sweep followed by a full black
/// sweep — red cells still read only pre-iteration black values, black
/// cells only post-red values. It is the one-iteration, untracked case of
/// the pass `solve_seq` makes; the threaded worker, which exchanges ghosts
/// between the colours, cannot use it.
pub fn sweep_iteration(grid: &mut Grid, omega: f64) {
    stream(grid, omega, 1, None);
}

/// Runs `params.iterations` red-black iterations sequentially.
/// Returns the residual after each iteration.
pub fn solve_seq(grid: &mut Grid, params: SorParams) -> Vec<f64> {
    assert!(
        params.omega > 0.0 && params.omega < 2.0,
        "omega must lie in (0,2): {}",
        params.omega
    );
    let mut residuals = vec![0.0; params.iterations];
    stream(grid, params.omega, params.iterations, Some(&mut residuals));
    residuals
}

/// [`solve_seq`] without the residuals, for a caller that has checked
/// `omega` and would throw them away: the same grid, bit for bit.
pub(crate) fn relax_seq(grid: &mut Grid, params: SorParams) {
    stream(grid, params.omega, params.iterations, None);
}

/// Iterations one streaming pass carries; a deeper call runs in passes of
/// this many. A pass keeps `2 * DEPTH + 3` rows live, 287 KB of a 1026
/// grid and 574 KB of a 2050 one, inside one core's 2 MiB L2. Measured
/// against 5 and 8 (40-iteration calls on 1026², 20 on 2050²), 16 was as
/// fast or faster on both.
const DEPTH: usize = 16;

/// One stage of a streaming pass: one colour of one iteration, the
/// residual mode its kernel runs in, and the iteration whose residual the
/// kernel's maximum belongs to.
#[derive(Clone, Copy)]
struct Stage {
    parity: usize,
    mode: u8,
    slot: usize,
}

/// Runs `iterations` red+black iterations over the whole interior, and
/// with `residuals` (one slot an iteration) the residual after each.
///
/// Each pass over the grid relaxes up to [`DEPTH`] iterations: its stages
/// (red₀, black₀, red₁, …) trail each other by a row, so the grid is read
/// and written once a pass, while the rows between the first stage and the
/// last stay in cache. The residual comes out
/// of the kernel (see `kernel::residual`): iteration `k`'s is the maximum
/// of its black stage, taken after each update, and of iteration `k + 1`'s
/// red stage, taken before it. After the call's last black stage a
/// residual-only red stage supplies the last iteration's red half. Red
/// stages carry their residual across passes, so only the last pass pays
/// that trailing stage.
fn stream(grid: &mut Grid, omega: f64, iterations: usize, mut residuals: Option<&mut [f64]>) {
    use crate::kernel::residual::{AFTER, BEFORE, NONE, ONLY};
    let tracked = residuals.is_some();
    let (red, black) = (Color::Red.parity(), Color::Black.parity());
    let mut stages = [Stage {
        parity: red,
        mode: NONE,
        slot: 0,
    }; 2 * DEPTH + 1];
    let mut first = 0;
    while first < iterations {
        let last = (first + DEPTH).min(iterations);
        let mut count = 0;
        for it in first..last {
            stages[count] = Stage {
                parity: red,
                mode: if tracked && it > 0 { BEFORE } else { NONE },
                slot: it.saturating_sub(1),
            };
            stages[count + 1] = Stage {
                parity: black,
                mode: if tracked { AFTER } else { NONE },
                slot: it,
            };
            count += 2;
        }
        if tracked && last == iterations {
            stages[count] = Stage {
                parity: red,
                mode: ONLY,
                slot: last - 1,
            };
            count += 1;
        }
        pass(grid, omega, &stages[..count], residuals.as_deref_mut());
        first = last;
    }
}

/// One streaming pass: at row step `i`, stage `s` relaxes row `i - s`,
/// stages in order. When a red stage relaxes row `r`, the black stage
/// before it has finished row `r + 1` and the one after it only row
/// `r - 2`, so every black cell it reads (rows `r - 1 ..= r + 1`) holds
/// the previous iteration's value; a black stage likewise reads red rows
/// that its iteration's red stage has finished and the next has not
/// reached. A stage in mode NONE returns 0, which folds into any slot as
/// nothing.
fn pass(grid: &mut Grid, omega: f64, stages: &[Stage], mut residuals: Option<&mut [f64]>) {
    use crate::kernel::residual::{AFTER, BEFORE, NONE, ONLY};
    use crate::kernel::{color_start, keep_max, relax_row};
    let n = grid.n();
    let data = grid.data_mut();
    for i in 1..n - 2 + stages.len() {
        let live = i.saturating_sub(n - 2)..i.min(stages.len());
        for (s, stage) in stages.iter().enumerate().take(live.end).skip(live.start) {
            let row = i - s;
            let start = color_start(stage.parity, row, 1);
            let (head, rest) = data.split_at_mut(row * n);
            let (current, tail) = rest.split_at_mut(n);
            let (above, below) = (&head[(row - 1) * n..], &tail[..n]);
            let r = match stage.mode {
                NONE => relax_row::<NONE>(above, current, below, omega, start),
                BEFORE => relax_row::<BEFORE>(above, current, below, omega, start),
                AFTER => relax_row::<AFTER>(above, current, below, omega, start),
                _ => relax_row::<ONLY>(above, current, below, omega, start),
            };
            if let Some(res) = residuals.as_deref_mut() {
                keep_max(&mut res[stage.slot], r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::{bits_modulo_nan, cells};
    use proptest::prelude::*;

    /// The stream against its definition on the grid `vals` gives row by
    /// row: a red sweep, a black sweep and the walked residual, iteration
    /// by iteration, to the bit (NaN payloads aside), tracked or not.
    fn stream_matches_two_pass(
        n: usize,
        vals: &[f64],
        omega: f64,
        iterations: usize,
    ) -> Result<(), TestCaseError> {
        let params = SorParams { omega, iterations };
        let mut streamed = Grid::from_fn(n, |i, j| vals[i * n + j]);
        let mut untracked = streamed.clone();
        let mut two_pass = streamed.clone();
        let residuals = solve_seq(&mut streamed, params);
        relax_seq(&mut untracked, params);
        let walked: Vec<f64> = (0..iterations)
            .map(|_| {
                sweep_color_rows(&mut two_pass, Color::Red, omega, 1, n - 1);
                sweep_color_rows(&mut two_pass, Color::Black, omega, 1, n - 1);
                two_pass.max_residual()
            })
            .collect();
        let bits = |v: &[f64]| v.iter().map(|&x| bits_modulo_nan(x)).collect::<Vec<_>>();
        prop_assert_eq!(bits(&residuals), bits(&walked));
        prop_assert_eq!(bits(streamed.data()), bits(two_pass.data()));
        prop_assert_eq!(bits(untracked.data()), bits(two_pass.data()));
        Ok(())
    }

    proptest! {
        /// Grids as small as one interior row have more stages than rows,
        /// and up to `3 * DEPTH + 1` iterations cross passes; the cells
        /// include ±0, subnormals, ±1e300, ±inf and NaN.
        #[test]
        fn stream_matches_two_pass_sweeps_and_max_residual(
            n in 3usize..41,
            vals in cells(40 * 40),
            omega in 0.1f64..1.95,
            iterations in 0usize..3 * DEPTH + 2,
        ) {
            stream_matches_two_pass(n, &vals, omega, iterations)?;
        }

        /// The same on finite grids, which a NaN or an infinity does not
        /// swamp within the first pass, so later passes compare ordinary
        /// residuals too.
        #[test]
        fn stream_matches_two_pass_on_finite_grids(
            n in 3usize..41,
            vals in proptest::collection::vec(-10.0f64..10.0, 40 * 40),
            omega in 0.1f64..1.95,
            iterations in 0usize..3 * DEPTH + 2,
        ) {
            stream_matches_two_pass(n, &vals, omega, iterations)?;
        }
    }

    /// Runs `solve_seq`'s red+black iteration until the residual drops
    /// below `tol` or `max_iterations` is reached, and returns the
    /// iterations performed and the final residual: the convergence
    /// oracle of `solve_seq`'s sweep, which runs a fixed count.
    fn solve_until(grid: &mut Grid, omega: f64, tol: f64, max_iterations: usize) -> (usize, f64) {
        let mut residual = f64::INFINITY;
        for it in 1..=max_iterations {
            residual = solve_seq(
                grid,
                SorParams {
                    omega,
                    iterations: 1,
                },
            )[0];
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
