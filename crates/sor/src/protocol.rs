//! The ghost-exchange protocol as data: the exact per-half-iteration
//! sequence of mailbox operations every worker performs, extracted from
//! the solver so that [`crate::parallel`]'s worker loop *executes* this
//! script rather than open-coding it, and its test-only explorer runs
//! the very same script on the real mailboxes, *exhaustively verifying*
//! deadlock freedom, lost messages, and double delivery — covering every
//! interleaving the chaos campaign only samples.
//!
//! The protocol is the classic "push then pull" phase structure: each
//! half-iteration a worker first ships its boundary edges to every
//! neighbour, then drains every neighbour's boundary edge into its halo.
//! Sends precede receives unconditionally; within each group the order is
//! `Peer::ALL` — up, down, left, right. Any reordering here changes the
//! blocking structure the deadlock-freedom argument (and the explorer's
//! proof) rests on, which is exactly why the order lives in one
//! place. A chain of strips is the `P x 1` layout, where only up and down
//! exist.

use crate::decomp::{BlockLayout, Peer};

/// One mailbox operation of the ghost-exchange phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ExchangeOp {
    /// Ship this worker's boundary edge toward `Peer` (top row goes Up,
    /// left column goes Left, ...) through the recycled link: reclaim the
    /// in-flight buffer, fill it, deposit it in the data mailbox.
    Send(Peer),
    /// Drain the boundary edge arriving from `Peer` into the matching
    /// halo, returning the buffer through the reverse mailbox.
    Recv(Peer),
}

/// The exchange script worker `rank` of `layout` runs every
/// half-iteration, in execution order: a send toward each neighbour, then
/// a receive from each, both in `Peer::ALL` order, with the ops toward
/// neighbours the layout does not give this rank (grid edges) omitted.
///
/// `rank` must be `< layout.len()`. A single-worker decomposition
/// exchanges nothing and gets an empty script.
pub(crate) fn half_iteration_script(rank: usize, layout: BlockLayout) -> Vec<ExchangeOp> {
    let peers = Peer::ALL
        .into_iter()
        .filter(|&peer| layout.neighbour(rank, peer).is_some());
    peers
        .clone()
        .map(ExchangeOp::Send)
        .chain(peers.map(ExchangeOp::Recv))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExchangeOp::{Recv, Send};
    use Peer::{Down, Left, Right, Up};

    fn chain(ranks: usize) -> BlockLayout {
        BlockLayout::new(ranks, 1)
    }

    #[test]
    fn interior_worker_talks_both_ways_sends_first() {
        assert_eq!(
            half_iteration_script(1, chain(3)),
            vec![Send(Up), Send(Down), Recv(Up), Recv(Down)]
        );
        // The centre of a 3 x 3 processor grid has all four neighbours.
        assert_eq!(
            half_iteration_script(4, BlockLayout::new(3, 3)),
            vec![
                Send(Up),
                Send(Down),
                Send(Left),
                Send(Right),
                Recv(Up),
                Recv(Down),
                Recv(Left),
                Recv(Right)
            ]
        );
    }

    #[test]
    fn edge_workers_skip_the_missing_neighbour() {
        assert_eq!(
            half_iteration_script(0, chain(2)),
            vec![Send(Down), Recv(Down)]
        );
        assert_eq!(half_iteration_script(1, chain(2)), vec![Send(Up), Recv(Up)]);
        // Corners of a 2 x 2 grid: one vertical and one horizontal link.
        let square = BlockLayout::new(2, 2);
        assert_eq!(
            half_iteration_script(0, square),
            vec![Send(Down), Send(Right), Recv(Down), Recv(Right)]
        );
        assert_eq!(
            half_iteration_script(3, square),
            vec![Send(Up), Send(Left), Recv(Up), Recv(Left)]
        );
    }

    #[test]
    fn single_worker_exchanges_nothing() {
        assert!(half_iteration_script(0, chain(1)).is_empty());
    }

    #[test]
    fn peer_rank_arithmetic() {
        assert_eq!(chain(4).neighbour(2, Up), Some(1));
        assert_eq!(chain(4).neighbour(2, Down), Some(3));
        let grid = BlockLayout::new(2, 3);
        assert_eq!(grid.neighbour(4, Up), Some(1));
        assert_eq!(grid.neighbour(1, Down), Some(4));
        assert_eq!(grid.neighbour(4, Left), Some(3));
        assert_eq!(grid.neighbour(4, Right), Some(5));
        assert_eq!(grid.neighbour(3, Left), None);
        assert_eq!(grid.neighbour(2, Right), None);
        for peer in Peer::ALL {
            assert_eq!(peer.opposite().opposite(), peer);
        }
    }
}
