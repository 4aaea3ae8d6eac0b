//! The shared five-point Red-Black relaxation kernel.
//!
//! Both solvers in this crate — [`crate::seq`] and the [`crate::parallel`]
//! worker — relax one colour of one row at a time. This
//! module factors that inner loop into a single slice-based routine so the
//! hot path is written (and optimized) exactly once: the row above, the
//! row being updated, and the row below are passed as three slices
//! obtained via `split_at_mut`, the colour is a precomputed start column,
//! and the cells of that colour are updated eight at a time from
//! fixed-size windows of the three rows, which the compiler turns into
//! packed arithmetic, with no `i * n + j` index arithmetic.
//!
//! The arithmetic per cell is identical to the historical indexed loops
//! (`u + omega * 0.25 * (sum - 4u)` with the same association order; the
//! cells of one colour do not read each other, so their order is free),
//! so results are bit-for-bit unchanged — the property tests below check
//! this against a naive indexed implementation on random grids.

/// Relaxes one colour on a single row of a five-point stencil.
///
/// `above`, `current`, and `below` are full rows of equal length `n`
/// (including the two boundary columns). Cells `start, start + 2, ...`
/// strictly inside `(0, n - 1)` are updated in place with the SOR step
/// `u += omega/4 * (above + below + left + right - 4u)`.
///
/// `start` encodes the colour for this row: `1` if column 1 has the
/// requested colour, `2` otherwise (see [`color_start`]).
///
/// # Panics
///
/// Panics if the rows differ in length or `start == 0` (column 0 is
/// boundary).
// Its own function on purpose: inlined into `relax_rows` the block loop
// below compiles to scalar code again (DESIGN §6).
#[inline(never)]
pub(crate) fn relax_row(
    above: &[f64],
    current: &mut [f64],
    below: &[f64],
    omega: f64,
    start: usize,
) {
    let n = current.len();
    assert_eq!(above.len(), n, "row length mismatch");
    assert_eq!(below.len(), n, "row length mismatch");
    assert!(start >= 1, "column 0 is boundary");
    if start + 1 >= n {
        return;
    }
    // omega * 0.25 is exact (multiplication by a power of two), so hoisting
    // it keeps the per-cell arithmetic bit-identical to the historical
    // `u + omega * 0.25 * (...)` form.
    let scale = omega * 0.25;
    // Cells of one colour are independent (their in-row neighbours are the
    // other colour, untouched by this sweep), so BLOCK of them are updated
    // at a time: a window of 2 * BLOCK + 1 cells of `current` holds each
    // updated cell at an odd offset with its neighbours either side. The
    // windows are fixed-size arrays, not index ranges, so the compiler
    // sees every length, drops the bounds checks and emits packed
    // arithmetic; each lane evaluates the scalar expression with the same
    // association, so no bit changes.
    const BLOCK: usize = 8;
    let mut j = start;
    while let (Some(window), Some(up), Some(down)) = (
        current[j - 1..].first_chunk_mut::<{ 2 * BLOCK + 1 }>(),
        above[j..].first_chunk::<{ 2 * BLOCK }>(),
        below[j..].first_chunk::<{ 2 * BLOCK }>(),
    ) {
        let mut new = [0.0; BLOCK];
        for (k, out) in new.iter_mut().enumerate() {
            let u = window[2 * k + 1];
            *out =
                u + scale * (up[2 * k] + down[2 * k] + window[2 * k] + window[2 * k + 2] - 4.0 * u);
        }
        for (k, v) in new.into_iter().enumerate() {
            window[2 * k + 1] = v;
        }
        j += 2 * BLOCK;
    }
    while j + 1 < n {
        let u = current[j];
        let sum = above[j] + below[j] + current[j - 1] + current[j + 1];
        current[j] = u + scale * (sum - 4.0 * u);
        j += 2;
    }
}

/// First interior column of `color_parity` on global row `gi`, given the
/// global column of local column 1.
///
/// A cell is the requested colour when `(gi + gj) % 2 == color_parity`.
/// Local column `lj` maps to global column `col1_global + lj - 1`, so the
/// first matching local column is 1 or 2.
#[inline]
pub(crate) fn color_start(color_parity: usize, gi: usize, col1_global: usize) -> usize {
    1 + ((gi + col1_global + color_parity) % 2)
}

/// Relaxes one colour over rows `[row_lo, row_hi)` of a flat row-major
/// array of `n`-wide rows, using [`relax_row`] per row.
///
/// Rows are global: row `i` occupies `data[i * n..(i + 1) * n]` and its
/// colour start column is derived from `gi = global_row0 + i` (for the
/// sequential solver `global_row0 == 0`; workers pass their strip offset).
///
/// # Panics
///
/// Panics unless `1 <= row_lo` and `row_hi * n < data.len()` (each
/// relaxed row needs a row above and below).
pub(crate) fn relax_rows(
    data: &mut [f64],
    n: usize,
    color_parity: usize,
    omega: f64,
    row_lo: usize,
    row_hi: usize,
    global_row0: usize,
) {
    assert!(row_lo >= 1, "row 0 has no row above");
    assert!(row_hi * n < data.len(), "last row needs a row below");
    for i in row_lo..row_hi {
        let start = color_start(color_parity, global_row0 + i, 1);
        let (head, rest) = data.split_at_mut(i * n);
        let (current, tail) = rest.split_at_mut(n);
        relax_row(&head[(i - 1) * n..], current, &tail[..n], omega, start);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The historical indexed kernel, kept verbatim as the reference the
    /// slice kernel must match bit-for-bit.
    fn relax_rows_naive(
        data: &mut [f64],
        n: usize,
        color_parity: usize,
        omega: f64,
        row_lo: usize,
        row_hi: usize,
        global_row0: usize,
    ) {
        for i in row_lo..row_hi {
            let gi = global_row0 + i;
            let start = 1 + ((gi + 1 + color_parity) % 2);
            let mut j = start;
            while j < n - 1 {
                let u = data[i * n + j];
                let sum = data[(i - 1) * n + j]
                    + data[(i + 1) * n + j]
                    + data[i * n + j - 1]
                    + data[i * n + j + 1];
                data[i * n + j] = u + omega * 0.25 * (sum - 4.0 * u);
                j += 2;
            }
        }
    }

    /// Cell values for the bit-for-bit properties: mostly ordinary
    /// numbers, with signed zeros, subnormals, ±1e300, ±inf and NaN mixed
    /// in (about one cell in seven).
    pub(crate) fn cells(len: usize) -> impl Strategy<Value = Vec<f64>> {
        const SPECIAL: [f64; 9] = [
            0.0,
            -0.0,
            5e-324,
            -2.5e-310,
            1e300,
            -1e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        let cell = (0usize..64, -10.0f64..10.0)
            .prop_map(|(kind, x)| SPECIAL.get(kind).copied().unwrap_or(x));
        proptest::collection::vec(cell, len)
    }

    /// The bits of `x`, with every NaN mapped to one pattern: the compiler
    /// may commute an addition, which selects the other operand's NaN
    /// payload, so two NaNs count as equal; anything else must match to
    /// the bit.
    fn bits_modulo_nan(x: f64) -> u64 {
        if x.is_nan() {
            f64::NAN.to_bits()
        } else {
            x.to_bits()
        }
    }

    proptest! {
        #[test]
        fn slice_kernel_matches_naive_kernel(
            n in 3usize..80,
            seed_vals in cells(79 * 79),
            omega in 0.1f64..1.95,
            parity in 0usize..2,
            global_row0 in 0usize..5,
            lo_frac in 0.0f64..1.0,
            hi_frac in 0.0f64..1.0,
        ) {
            let mut a: Vec<f64> = seed_vals[..n * n].to_vec();
            let mut b = a.clone();
            // Random non-empty interior row range; the colour's start
            // column alternates 1 / 2 from row to row.
            let max_row = n - 2;
            let lo = 1 + ((lo_frac * max_row as f64) as usize).min(max_row - 1);
            let hi = (lo + 1 + (hi_frac * max_row as f64) as usize).min(n - 1);
            relax_rows(&mut a, n, parity, omega, lo, hi, global_row0);
            relax_rows_naive(&mut b, n, parity, omega, lo, hi, global_row0);
            prop_assert_eq!(a.iter().map(|&x| bits_modulo_nan(x)).collect::<Vec<_>>(),
                            b.iter().map(|&x| bits_modulo_nan(x)).collect::<Vec<_>>());
        }

        #[test]
        fn single_row_kernel_matches_naive(
            vals in proptest::collection::vec(-5.0f64..5.0, 9),
            omega in 0.1f64..1.95,
            start in 1usize..3,
        ) {
            let above = vals[0..3].to_vec();
            let mut current = vals[3..6].to_vec();
            let below = vals[6..9].to_vec();
            let mut reference = current.clone();
            relax_row(&above, &mut current, &below, omega, start);
            // Inline naive update on the 1x3 row.
            let n = 3;
            let mut j = start;
            while j < n - 1 {
                let u = reference[j];
                let sum = above[j] + below[j] + reference[j - 1] + reference[j + 1];
                reference[j] = u + omega * 0.25 * (sum - 4.0 * u);
                j += 2;
            }
            prop_assert_eq!(current[1].to_bits(), reference[1].to_bits());
        }
    }

    #[test]
    fn color_start_matches_parity_definition() {
        // (gi + gj) % 2 == parity at the returned column, and the column
        // before it (if interior) has the other parity.
        for parity in 0..2 {
            for gi in 0..6 {
                for col1 in 0..6 {
                    let s = color_start(parity, gi, col1);
                    assert!(s == 1 || s == 2);
                    let gj = col1 + s - 1;
                    assert_eq!((gi + gj) % 2, parity, "gi={gi} col1={col1}");
                }
            }
        }
    }

    #[test]
    fn boundary_columns_untouched() {
        let above = vec![9.0; 8];
        let below = vec![9.0; 8];
        let mut current: Vec<f64> = (0..8).map(|x| x as f64).collect();
        for start in [1, 2] {
            relax_row(&above, &mut current, &below, 1.5, start);
            assert_eq!(current[0], 0.0);
            assert_eq!(current[7], 7.0);
        }
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_rows() {
        let above = vec![0.0; 4];
        let below = vec![0.0; 5];
        let mut current = vec![0.0; 5];
        relax_row(&above, &mut current, &below, 1.0, 1);
    }
}
