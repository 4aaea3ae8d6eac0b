//! The SOR grid: an `N x N` array with fixed (Dirichlet) boundary and a
//! red/black checkerboard colouring.
//!
//! "Red-Black SOR is a distributed stencil application whose data resides
//! on an NxN grid" (paper Section 2.2.1). Red cells (`i + j` even) depend
//! only on black neighbours and vice versa, so each colour can be updated
//! in parallel without ordering hazards.

use serde::{Deserialize, Serialize};

/// The two stencil colours.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Color {
    /// Cells with `(i + j) % 2 == 0`.
    Red,
    /// Cells with `(i + j) % 2 == 1`.
    Black,
}

impl Color {
    /// The parity of the colour.
    pub fn parity(self) -> usize {
        match self {
            Color::Red => 0,
            Color::Black => 1,
        }
    }
}

/// An `n x n` grid in row-major order. Rows `0` and `n-1` and columns `0`
/// and `n-1` are boundary cells, held fixed by the solver.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    n: usize,
    data: Vec<f64>,
}

impl Grid {
    /// A zero-initialized grid.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3` (no interior to relax).
    pub fn new(n: usize) -> Self {
        assert!(n >= 3, "grid needs an interior: n >= 3, got {n}");
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// A grid initialized by `f(i, j)` over all cells.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut g = Self::new(n);
        for i in 0..n {
            for j in 0..n {
                g.data[i * n + j] = f(i, j);
            }
        }
        g
    }

    /// The canonical test problem: Laplace's equation with the top edge
    /// held at 1 and the other edges at 0, interior starting at 0.
    pub fn laplace_problem(n: usize) -> Self {
        Self::from_fn(n, |i, j| {
            if i == 0 && j > 0 && j < n - 1 {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Grid dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Cell value.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Sets a cell value.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
    }

    /// A full row as a slice.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n..(i + 1) * self.n]
    }

    /// Raw data, row-major.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data, row-major — used by the slice-based relaxation
    /// kernel in [`crate::kernel`].
    pub(crate) fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Whether `(i, j)` is a boundary cell.
    #[inline]
    pub fn is_boundary(&self, i: usize, j: usize) -> bool {
        i == 0 || j == 0 || i == self.n - 1 || j == self.n - 1
    }

    /// The residual `max |laplacian|` over interior cells — zero at the
    /// exact solution of Laplace's equation.
    pub fn max_residual(&self) -> f64 {
        // One running maximum is one serial dependency chain over every
        // cell. LANES independent ones, each a compare-and-select (a packed
        // max; `f64::max` compiles to a slower NaN-propagating sequence),
        // are folded at the end: the maximum of non-NaN values is exact in
        // any order, and a NaN `x` fails `x > acc` and is skipped exactly as
        // `acc.max(x)` skips it. `acc` starts at 0.0 and only ever takes an
        // `abs()`, so it is never NaN and never -0.0.
        const LANES: usize = 8;
        let keep_max = |acc: &mut f64, x: f64| *acc = if x > *acc { x } else { *acc };
        let lap = |a: f64, b: f64, l: f64, r: f64, c: f64| (a + b + l + r - 4.0 * c).abs();
        let n = self.n;
        let mut lanes = [0.0f64; LANES];
        for i in 1..n - 1 {
            // The five operand streams of row i's interior, equally long.
            let (above, below, row) = (self.row(i - 1), self.row(i + 1), self.row(i));
            let (above, below) = (&above[1..n - 1], &below[1..n - 1]);
            let (left, centre, right) = (&row[..n - 2], &row[1..n - 1], &row[2..]);
            let blocks = above
                .chunks_exact(LANES)
                .zip(below.chunks_exact(LANES))
                .zip(left.chunks_exact(LANES))
                .zip(right.chunks_exact(LANES))
                .zip(centre.chunks_exact(LANES));
            for ((((a, b), l), r), c) in blocks {
                for k in 0..LANES {
                    keep_max(&mut lanes[k], lap(a[k], b[k], l[k], r[k], c[k]));
                }
            }
            for (lane, j) in lanes.iter_mut().zip((n - 2) / LANES * LANES..n - 2) {
                keep_max(lane, lap(above[j], below[j], left[j], right[j], centre[j]));
            }
        }
        let mut r = 0.0;
        for lane in lanes {
            keep_max(&mut r, lane);
        }
        r
    }

    /// Maximum absolute cell-wise difference against another grid.
    ///
    /// # Panics
    ///
    /// Panics if sizes differ.
    pub fn max_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.n, other.n, "grid size mismatch");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Sum of all interior cells — a cheap checksum for tests.
    pub fn interior_sum(&self) -> f64 {
        let mut s = 0.0;
        for i in 1..self.n - 1 {
            for j in 1..self.n - 1 {
                s += self.get(i, j);
            }
        }
        s
    }
}

/// The theoretically optimal SOR relaxation factor for an `n x n` Laplace
/// problem: `2 / (1 + sin(pi / (n - 1)))`.
pub fn optimal_omega(n: usize) -> f64 {
    assert!(n >= 3);
    2.0 / (1.0 + (std::f64::consts::PI / (n as f64 - 1.0)).sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::tests::cells;
    use proptest::prelude::*;

    #[test]
    fn construction_and_access() {
        let mut g = Grid::new(4);
        assert_eq!(g.n(), 4);
        g.set(1, 2, 3.5);
        assert_eq!(g.get(1, 2), 3.5);
        assert_eq!(g.row(1), &[0.0, 0.0, 3.5, 0.0]);
    }

    #[test]
    fn boundary_classification() {
        let g = Grid::new(4);
        assert!(g.is_boundary(0, 2));
        assert!(g.is_boundary(3, 1));
        assert!(g.is_boundary(2, 0));
        assert!(!g.is_boundary(1, 1));
        assert!(!g.is_boundary(2, 2));
    }

    #[test]
    fn laplace_problem_boundary() {
        let g = Grid::laplace_problem(5);
        assert_eq!(g.get(0, 2), 1.0);
        assert_eq!(g.get(0, 0), 0.0); // corners stay 0
        assert_eq!(g.get(4, 2), 0.0);
        assert_eq!(g.get(2, 2), 0.0);
    }

    #[test]
    fn residual_zero_for_linear_field() {
        // u(i,j) = i + j is harmonic: laplacian is exactly zero.
        let g = Grid::from_fn(6, |i, j| (i + j) as f64);
        assert!(g.max_residual() < 1e-12);
    }

    #[test]
    fn residual_positive_for_bump() {
        let mut g = Grid::new(5);
        g.set(2, 2, 1.0);
        assert!(g.max_residual() > 3.9);
    }

    proptest! {
        #[test]
        fn max_residual_matches_walking_definition(
            n in 3usize..70,
            vals in cells(69 * 69),
        ) {
            let g = Grid { n, data: vals[..n * n].to_vec() };
            // The definition, cell by cell in one running maximum.
            let mut r: f64 = 0.0;
            for i in 1..n - 1 {
                for j in 1..n - 1 {
                    let lap = g.get(i - 1, j)
                        + g.get(i + 1, j)
                        + g.get(i, j - 1)
                        + g.get(i, j + 1)
                        - 4.0 * g.get(i, j);
                    r = r.max(lap.abs());
                }
            }
            prop_assert_eq!(g.max_residual().to_bits(), r.to_bits());
        }
    }

    #[test]
    fn set_row_and_diff() {
        let mut a = Grid::new(3);
        let b = Grid::new(3);
        a.set(1, 1, 2.0);
        assert_eq!(a.max_diff(&b), 2.0);
    }

    #[test]
    fn color_parity() {
        assert_eq!(Color::Red.parity(), 0);
        assert_eq!(Color::Black.parity(), 1);
    }

    #[test]
    fn optimal_omega_in_range() {
        for n in [8, 100, 2000] {
            let w = optimal_omega(n);
            assert!(w > 1.0 && w < 2.0, "omega {w} for n {n}");
        }
        // Larger grids want omega closer to 2.
        assert!(optimal_omega(1000) > optimal_omega(10));
    }

    #[test]
    #[should_panic]
    fn rejects_tiny_grid() {
        Grid::new(2);
    }
}
