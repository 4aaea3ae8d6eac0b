//! Decomposition of the SOR grid over processors.
//!
//! The paper's distribution is the strip decomposition of its Figure 6 —
//! "a common data distribution for this is a strip decomposition": each of
//! `P` processors owns a contiguous band of interior rows and exchanges
//! boundary rows with its neighbours each phase. "To balance load in a
//! distributed setting, we may assign more work to processors with greater
//! capacity, with the goal of having all processors complete at the same
//! time" (paper footnote 2) — hence weighted partitioning.
//!
//! The classic alternative is a `pr x pc` block decomposition. A strip
//! sends `2N` boundary elements per interior processor per phase regardless
//! of `P`; a block sends `2(N/pr) + 2(N/pc)`, which shrinks as the
//! processor grid grows (the comm-bound advantage over strips is
//! `sqrt(P)/2` for P >= 16) — the crossover `ablation_decomposition`
//! reproduces.
//!
//! The two are one thing: a strip is a block that spans every interior
//! column, and `P` strips are a `P x 1` processor grid. [`Decomposition`]
//! is that one thing, and the only form the threaded solver sees.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One processor's strip: a range of interior row indices.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Strip {
    /// Owning processor index.
    pub proc: usize,
    /// Interior rows `[start, end)` owned by the processor.
    pub rows: Range<usize>,
}

impl Strip {
    /// Number of rows in the strip.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Number of grid elements in the strip for an `n x n` grid
    /// (`NumElt_p` in the paper's component models).
    pub fn elements(&self, n: usize) -> usize {
        self.n_rows() * (n - 2)
    }
}

/// Partitions the `n_interior` rows (rows `1..=n_interior` of the grid)
/// into contiguous strips proportional to `weights`.
///
/// Larsen-style largest-remainder allocation: every processor with
/// positive weight gets at least the rows its proportion rounds to, and
/// the total is conserved exactly. Processors may receive zero rows when
/// there are more processors than rows.
///
/// # Panics
///
/// Panics if `weights` is empty, any weight is negative, or all are zero.
pub fn partition_rows(n_interior: usize, weights: &[f64]) -> Vec<Strip> {
    assert!(!weights.is_empty(), "need at least one processor");
    assert!(
        weights.iter().all(|&w| w >= 0.0),
        "weights must be non-negative"
    );
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "at least one weight must be positive");

    let p = weights.len();
    let mut rows = vec![0usize; p];
    let mut remainders: Vec<(f64, usize)> = Vec::with_capacity(p);
    let mut assigned = 0usize;
    for (i, &w) in weights.iter().enumerate() {
        let exact = n_interior as f64 * w / total;
        let floor = exact.floor() as usize;
        rows[i] = floor;
        assigned += floor;
        remainders.push((exact - floor as f64, i));
    }
    // Hand out the leftover rows to the largest remainders (ties by index
    // for determinism).
    remainders.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = n_interior - assigned;
    for &(_, i) in remainders.iter().cycle() {
        if left == 0 {
            break;
        }
        rows[i] += 1;
        left -= 1;
    }

    // Build contiguous strips over interior rows 1..=n_interior.
    let mut out = Vec::with_capacity(p);
    let mut start = 1usize;
    for (i, &r) in rows.iter().enumerate() {
        out.push(Strip {
            proc: i,
            rows: start..start + r,
        });
        start += r;
    }
    out
}

/// Equal-work partition (the paper's dedicated-setting default).
pub fn partition_equal(n_interior: usize, p: usize) -> Vec<Strip> {
    partition_rows(n_interior, &vec![1.0; p])
}

/// Sanity check used by tests and the simulator: strips cover exactly the
/// interior rows, in order, with no overlap.
pub(crate) fn strips_are_valid(strips: &[Strip], n_interior: usize) -> bool {
    let mut expected = 1usize;
    for (i, s) in strips.iter().enumerate() {
        if s.proc != i || s.rows.start != expected {
            return false;
        }
        expected = s.rows.end;
    }
    expected == n_interior + 1
}

/// One processor's block: ranges of interior rows and columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Owning processor index (row-major in the processor grid).
    pub proc: usize,
    /// Processor-grid coordinates `(block row, block col)`.
    pub coords: (usize, usize),
    /// Interior grid rows `[start, end)`.
    pub rows: Range<usize>,
    /// Interior grid columns `[start, end)`.
    pub cols: Range<usize>,
}

impl Block {
    /// Rows owned.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Columns owned.
    pub(crate) fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Elements owned.
    pub fn elements(&self) -> usize {
        self.n_rows() * self.n_cols()
    }
}

/// A neighbour of a processor in the processor grid, in the order every
/// per-neighbour list in this crate uses (the exchange script, the
/// simulator's message list): up, down, left, right.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Peer {
    /// The processor one block row above (`rank - pc`).
    Up,
    /// The processor one block row below (`rank + pc`).
    Down,
    /// The processor one block column to the left (`rank - 1`).
    Left,
    /// The processor one block column to the right (`rank + 1`).
    Right,
}

impl Peer {
    /// Every direction, in exchange order.
    pub(crate) const ALL: [Peer; 4] = [Peer::Up, Peer::Down, Peer::Left, Peer::Right];

    /// The direction the neighbour sees this processor in.
    pub(crate) fn opposite(self) -> Peer {
        match self {
            Peer::Up => Peer::Down,
            Peer::Down => Peer::Up,
            Peer::Left => Peer::Right,
            Peer::Right => Peer::Left,
        }
    }
}

/// The processor grid shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockLayout {
    /// Processor-grid rows.
    pub pr: usize,
    /// Processor-grid columns.
    pub pc: usize,
}

impl BlockLayout {
    /// A layout with `pr * pc` processors.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "layout needs positive dimensions");
        Self { pr, pc }
    }

    /// The most square layout for `p` processors (factor pair closest to
    /// `sqrt(p)`).
    pub fn squarest(p: usize) -> Self {
        assert!(p > 0);
        let mut best = (1usize, p);
        let mut r = 1usize;
        while r * r <= p {
            if p.is_multiple_of(r) {
                best = (r, p / r);
            }
            r += 1;
        }
        Self::new(best.0, best.1)
    }

    /// Total processors.
    pub fn len(&self) -> usize {
        self.pr * self.pc
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The processor (row-major rank) next to `rank` toward `peer`, `None`
    /// at the edge of the processor grid.
    pub(crate) fn neighbour(&self, rank: usize, peer: Peer) -> Option<usize> {
        assert!(rank < self.len(), "rank {rank} outside {self:?}");
        let (br, bc) = (rank / self.pc, rank % self.pc);
        match peer {
            Peer::Up => (br > 0).then(|| rank - self.pc),
            Peer::Down => (br + 1 < self.pr).then(|| rank + self.pc),
            Peer::Left => (bc > 0).then(|| rank - 1),
            Peer::Right => (bc + 1 < self.pc).then(|| rank + 1),
        }
    }
}

/// Partitions the interior of an `n x n` grid into equal blocks: the
/// equal strip split of the rows crossed with that of the columns, so the
/// remainder goes to the leading block rows and columns.
///
/// # Panics
///
/// Panics if the layout has more rows/cols than the interior provides.
pub fn partition_blocks(n: usize, layout: BlockLayout) -> Vec<Block> {
    let interior = n - 2;
    assert!(
        layout.pr <= interior && layout.pc <= interior,
        "layout {layout:?} too fine for an interior of {interior}"
    );
    let row_ranges = partition_equal(interior, layout.pr);
    let col_ranges = partition_equal(interior, layout.pc);
    let mut out = Vec::with_capacity(layout.len());
    for (br, rr) in row_ranges.iter().enumerate() {
        for (bc, cr) in col_ranges.iter().enumerate() {
            out.push(Block {
                proc: br * layout.pc + bc,
                coords: (br, bc),
                rows: rr.rows.clone(),
                cols: cr.rows.clone(),
            });
        }
    }
    out
}

/// A checked tiling of an `n x n` grid's interior by non-empty blocks laid
/// out on a processor grid — what the threaded solver, its checkpointed
/// driver and the supervisor run over. Strips and blocks differ only in
/// how they get here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Dimension of the grid this decomposition tiles.
    pub(crate) n: usize,
    /// The processor grid; rank `r` owns `blocks[r]`.
    pub(crate) layout: BlockLayout,
    /// The blocks, in rank (row-major) order.
    pub(crate) blocks: Vec<Block>,
}

impl Decomposition {
    /// Strips, weighted or equal, as a `P x 1` processor grid of blocks
    /// spanning every interior column of an `n x n` grid.
    ///
    /// # Panics
    ///
    /// Panics if the strips do not tile the interior rows in order, or any
    /// strip is empty (decompose with `n >> p`).
    pub fn strips(n: usize, strips: &[Strip]) -> Self {
        assert!(
            strips_are_valid(strips, n - 2),
            "strips must tile the interior rows"
        );
        assert!(
            strips.iter().all(|s| s.n_rows() > 0),
            "every processor needs at least one row"
        );
        let blocks = strips
            .iter()
            .map(|s| Block {
                proc: s.proc,
                coords: (s.proc, 0),
                rows: s.rows.clone(),
                cols: 1..n - 1,
            })
            .collect();
        Self {
            n,
            layout: BlockLayout::new(strips.len(), 1),
            blocks,
        }
    }

    /// Equal blocks of an `n x n` grid over `layout`.
    ///
    /// # Panics
    ///
    /// Panics if the layout is finer than the interior.
    pub fn blocks(n: usize, layout: BlockLayout) -> Self {
        Self {
            n,
            layout,
            blocks: partition_blocks(n, layout),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distsim::{Part, BYTES_PER_ELEMENT};

    #[test]
    fn equal_partition_covers_all_rows() {
        let strips = partition_equal(100, 4);
        assert!(strips_are_valid(&strips, 100));
        for s in &strips {
            assert_eq!(s.n_rows(), 25);
        }
    }

    #[test]
    fn uneven_counts_distribute_remainder() {
        let strips = partition_equal(10, 3);
        assert!(strips_are_valid(&strips, 10));
        let sizes: Vec<usize> = strips.iter().map(|s| s.n_rows()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 3 || s == 4));
    }

    #[test]
    fn weighted_partition_proportional() {
        // Machine twice as fast gets ~twice the rows.
        let strips = partition_rows(90, &[2.0, 1.0]);
        assert!(strips_are_valid(&strips, 90));
        assert_eq!(strips[0].n_rows(), 60);
        assert_eq!(strips[1].n_rows(), 30);
    }

    #[test]
    fn zero_weight_processor_gets_nothing() {
        let strips = partition_rows(10, &[1.0, 0.0, 1.0]);
        assert!(strips_are_valid(&strips, 10));
        assert_eq!(strips[1].n_rows(), 0);
    }

    #[test]
    fn more_processors_than_rows() {
        let strips = partition_equal(2, 5);
        assert!(strips_are_valid(&strips, 2));
        let total: usize = strips.iter().map(|s| s.n_rows()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn elements_counts_interior_columns() {
        let strips = partition_equal(8, 2);
        // 10x10 grid: 8 interior rows, 8 interior columns.
        assert_eq!(strips[0].elements(10), 4 * 8);
    }

    #[test]
    fn deterministic_for_equal_remainders() {
        let a = partition_rows(7, &[1.0, 1.0, 1.0]);
        let b = partition_rows(7, &[1.0, 1.0, 1.0]);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic]
    fn rejects_all_zero_weights() {
        partition_rows(5, &[0.0, 0.0]);
    }

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
