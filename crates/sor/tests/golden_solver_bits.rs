//! Golden bits of the real solvers, taken before the relaxation kernel and
//! `Grid::max_residual` were rewritten in block form. `golden_bits.rs` pins
//! the simulator; this pins what the kernel computes: every residual
//! `solve_seq` returns, a digest of the grid it leaves, where a
//! convergence-driven solve stops, and the threaded solvers' grids — on row lengths either side of
//! each boundary of a 16-cell block (a row of 17 / 18 cells is the first
//! with a whole block from start column 1 / 2, 33 / 34 the first with two).

use prodpred_sor::{
    partition_equal, solve_parallel_blocks, solve_parallel_strips, solve_seq, BlockLayout, Grid,
    SorParams,
};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_solver_bits.txt");
const SIZES: [usize; 13] = [3, 4, 5, 16, 17, 18, 19, 20, 33, 34, 35, 66, 130];
const ITERATIONS: usize = 12;

/// The Laplace boundary around an interior with no symmetry, so no two
/// cells of a row share a value and a neighbour taken from the wrong
/// column shows.
fn start_grid(n: usize) -> Grid {
    let boundary = Grid::laplace_problem(n);
    Grid::from_fn(n, |i, j| {
        if i == 0 || j == 0 || i == n - 1 || j == n - 1 {
            boundary.get(i, j)
        } else {
            ((i * 31 + j * 17) % 13) as f64 / 13.0 - 0.4
        }
    })
}

/// FNV-1a over the bits of every cell, row-major.
fn digest(grid: &Grid) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in grid.data().iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn solver_bits() -> String {
    let mut out = String::new();
    for n in SIZES {
        for (label, omega) in [("opt", SorParams::for_grid(n, 1).omega), ("gs", 1.0)] {
            let params = SorParams {
                omega,
                iterations: ITERATIONS,
            };
            let mut seq = start_grid(n);
            let residuals = solve_seq(&mut seq, params);
            write!(out, "n={n} omega={label}: residuals").unwrap();
            for r in residuals {
                write!(out, " {:016x}", r.to_bits()).unwrap();
            }

            // Where a solve to 1e-6, capped at 40 iterations, stops: the
            // first of `solve_seq`'s 40 residuals below the tolerance, or
            // the last.
            let until = solve_seq(
                &mut start_grid(n),
                SorParams {
                    omega,
                    iterations: 40,
                },
            );
            let stop = until.iter().position(|&r| r < 1e-6).unwrap_or(39);
            let (iterations, residual) = (stop + 1, until[stop]);

            // Three strips and 2 x 2 blocks, or as many as the interior has
            // rows for.
            let interior = n - 2;
            let mut strips = start_grid(n);
            let p = interior.min(3);
            solve_parallel_strips(&mut strips, params, &partition_equal(interior, p));
            let mut blocks = start_grid(n);
            let side = interior.min(2);
            solve_parallel_blocks(&mut blocks, params, BlockLayout::new(side, side));

            writeln!(
                out,
                " grid {:016x} until {iterations} {:016x} strips {:016x} blocks {:016x}",
                digest(&seq),
                residual.to_bits(),
                digest(&strips),
                digest(&blocks),
            )
            .unwrap();
        }
    }
    out
}

#[test]
fn solver_bits_are_pinned() {
    let actual = solver_bits();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_solver_bits.txt");
    std::fs::write(&path, &actual).unwrap();
    let moved: Vec<&str> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(':').next().unwrap())
        .collect();
    panic!(
        "{} of {} golden lines moved ({} expected), first: {:?}; actual table written to {}",
        moved.len(),
        actual.lines().count(),
        GOLDEN.lines().count(),
        moved.first(),
        path.display()
    );
}
