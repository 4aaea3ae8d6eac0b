//! Unit tests of the block partition in `crate::decomp`, under the module path they had
//! while blocks were a separate set of files (see `lib.rs`).

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
