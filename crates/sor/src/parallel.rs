//! The real multithreaded Red-Black SOR: one shared-nothing worker per
//! block of a [`Decomposition`], per-phase ghost-edge exchange over
//! rendezvous mailboxes, loose neighbour synchronization — the
//! distributed algorithm the paper models, validated bit-for-bit against
//! the sequential solver.
//!
//! Because each colour's update reads only the *other* colour (fixed for
//! the duration of the sweep) and the five-point stencil needs no corner
//! ghosts, the parallel result is identical to the sequential one —
//! floating-point operation order per cell does not change with the
//! decomposition. Strips are the `P x 1` case of the same worker: a block
//! spanning every interior column, whose halo columns are the grid's
//! fixed boundary.
//!
//! Ghost edges travel through [`crate::exchange`] links that recycle their
//! owned buffers (send the buffer, get it back), so steady-state
//! iterations perform **zero heap allocations** — see the `zero_alloc`
//! integration test.
//!
//! Fault tolerance: every entry point runs the one fallible core
//! ([`try_solve_decomposed`]) in which every ghost exchange is bounded by
//! an [`ExchangePolicy`] and a worker's death — a panic, or an injected
//! [`WorkerDeath`] — surfaces as [`SolveError::WorkerDied`] from the
//! driver instead of a permanent block or a secondary panic. The
//! infallible entry points keep their original signatures by running the
//! same core under `ExchangePolicy::patient`.

use crate::decomp::{Block, BlockLayout, Decomposition, Peer, Strip};
use crate::exchange::{
    recycled_link, ExchangeError, ExchangePolicy, RecycledReceiver, RecycledSender,
};
use crate::grid::{Color, Grid};
use crate::kernel::relax_rows;
use crate::protocol::{half_iteration_script, ExchangeOp};
use crate::seq::SorParams;
use prodpred_simgrid::faults::WorkerDeath;

/// Typed failure of a fallible parallel solve. On error the grid is left
/// in its initial state — partial results are never assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Worker `rank` died mid-solve: it panicked, or an injected
    /// [`WorkerDeath`] killed it at its configured half-iteration. When a
    /// death is only observed indirectly (a neighbour found the links
    /// dropped), `rank` is the dead neighbour as seen by the first
    /// reporting worker.
    WorkerDied {
        /// Rank (strip or block index) of the dead worker.
        rank: usize,
    },
    /// Worker `rank` exhausted its [`ExchangePolicy`] waiting on a
    /// neighbour that is still alive but not exchanging.
    ExchangeTimeout {
        /// Rank (strip or block index) of the worker that gave up.
        rank: usize,
    },
    /// A resume was handed an unusable [`crate::checkpoint::Checkpoint`]
    /// (wrong grid size, or past the solve's end).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerDied { rank } => write!(f, "worker {rank} died mid-solve"),
            Self::ExchangeTimeout { rank } => {
                write!(f, "worker {rank} timed out exchanging ghost data")
            }
            Self::Checkpoint(e) => write!(f, "unusable checkpoint: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    /// The underlying [`CheckpointError`](crate::checkpoint::CheckpointError)
    /// for [`SolveError::Checkpoint`], so `Box<dyn Error>` chains (the
    /// service layer's error propagation) reach the root cause without
    /// matching on every variant.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::WorkerDied { .. } | Self::ExchangeTimeout { .. } => None,
        }
    }
}

impl From<crate::checkpoint::CheckpointError> for SolveError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Options for a fallible parallel solve: how patiently workers wait on
/// their neighbours, and an optional injected worker death.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOptions {
    /// Timeout-and-retry policy for every ghost exchange.
    pub policy: ExchangePolicy,
    /// Kill one worker at a chosen half-iteration (half-iteration `2k`
    /// is iteration `k`'s red phase). A rank outside the decomposition or
    /// a half-iteration past the end of the solve never fires.
    pub kill: Option<WorkerDeath>,
}

impl SolveOptions {
    /// The options backing the infallible entry points: near-infinite
    /// patience for wedged neighbours, no injected death. A *dead*
    /// neighbour still surfaces immediately.
    pub fn reliable() -> Self {
        Self {
            policy: ExchangePolicy::patient(),
            kill: None,
        }
    }
}

/// How one worker's run ended, as reported to the driver.
enum WorkerEnd {
    Completed,
    /// The injected death fired: the worker exited, dropping its links.
    Died,
    /// A link to `neighbour` disconnected — that worker died or exited.
    NeighbourLost {
        neighbour: usize,
    },
    /// The exchange policy ran out against a still-connected neighbour.
    TimedOut,
}

/// Resolves the per-worker end states, in rank order, into the solve's
/// result. An actual death (panic or injected) names its own rank; a
/// death seen only through a dropped link names the neighbour; timeouts
/// rank below deaths because a cascade of timeouts usually *starts* at a
/// death.
fn resolve(ends: Vec<std::thread::Result<WorkerEnd>>) -> Result<(), SolveError> {
    let mut lost = None;
    let mut timed_out = None;
    for (rank, end) in ends.into_iter().enumerate() {
        match end {
            Err(_) | Ok(WorkerEnd::Died) => return Err(SolveError::WorkerDied { rank }),
            Ok(WorkerEnd::NeighbourLost { neighbour }) => {
                if lost.is_none() {
                    lost = Some(neighbour);
                }
            }
            Ok(WorkerEnd::TimedOut) => {
                if timed_out.is_none() {
                    timed_out = Some(rank);
                }
            }
            Ok(WorkerEnd::Completed) => {}
        }
    }
    if let Some(rank) = lost {
        return Err(SolveError::WorkerDied { rank });
    }
    if let Some(rank) = timed_out {
        return Err(SolveError::ExchangeTimeout { rank });
    }
    Ok(())
}

/// True when the injected death targets `rank` at half-iteration `half`.
fn death_fires(kill: Option<WorkerDeath>, rank: usize, half: usize) -> bool {
    kill.is_some_and(|d| d.rank == rank && d.at_half_iteration == half)
}

/// A worker's local state: its block plus a one-cell halo on all sides.
struct Worker {
    rows: usize,
    cols: usize,
    /// Global row plus global column of `data[0]`, the halo's corner: a
    /// cell's colour is the parity of its global row plus column, so this
    /// is all the sweep needs to know of where the block sits.
    origin: usize,
    /// `(rows + 2) x (cols + 2)`, halo included: row 0 and row `rows + 1`
    /// are the upper and lower ghosts, column 0 and column `cols + 1` the
    /// left and right ones.
    data: Vec<f64>,
}

impl Worker {
    fn new(grid: &Grid, block: &Block) -> Self {
        let (rows, cols) = (block.n_rows(), block.n_cols());
        let mut data = Vec::with_capacity((rows + 2) * (cols + 2));
        for gi in block.rows.start - 1..=block.rows.end {
            data.extend_from_slice(&grid.row(gi)[block.cols.start - 1..=block.cols.end]);
        }
        Self {
            rows,
            cols,
            origin: block.rows.start - 1 + block.cols.start - 1,
            data,
        }
    }

    /// Relaxes the given colour over the owned block via the shared slice
    /// kernel, which derives colours from a row origin alone: the block's
    /// column offset rides in it (a strip's is zero).
    fn sweep(&mut self, color: Color, omega: f64) {
        relax_rows(
            &mut self.data,
            self.cols + 2,
            color.parity(),
            omega,
            1,
            self.rows + 1,
            self.origin,
        );
    }

    /// Where the edge facing `peer` lives in `data`, as `(first index,
    /// stride)`: the owned cells on that side, or with `halo` the ghost
    /// cells one step beyond them.
    fn edge(&self, peer: Peer, halo: bool) -> (usize, usize) {
        let w = self.cols + 2;
        let h = usize::from(halo);
        match peer {
            Peer::Up => ((1 - h) * w + 1, 1),
            Peer::Down => ((self.rows + h) * w + 1, 1),
            Peer::Left => (w + 1 - h, w),
            Peer::Right => (w + self.cols + h, w),
        }
    }

    /// Copies the owned edge facing `peer` into `out`.
    fn copy_edge(&self, peer: Peer, out: &mut [f64]) {
        let (start, stride) = self.edge(peer, false);
        for (o, v) in out
            .iter_mut()
            .zip(self.data[start..].iter().step_by(stride))
        {
            *o = *v;
        }
    }

    /// Stores the edge that arrived from `peer` in the halo facing it.
    fn set_halo(&mut self, peer: Peer, edge: &[f64]) {
        let (start, stride) = self.edge(peer, true);
        for (v, h) in edge
            .iter()
            .zip(self.data[start..].iter_mut().step_by(stride))
        {
            *h = *v;
        }
    }

    /// Owned cells of local row `li` (`1..=rows`).
    fn owned_row(&self, li: usize) -> &[f64] {
        let lo = li * (self.cols + 2) + 1;
        &self.data[lo..lo + self.cols]
    }
}

/// One worker's mailboxes toward one neighbour.
struct Link {
    /// The neighbour's rank.
    rank: usize,
    to: RecycledSender,
    from: RecycledReceiver,
}

/// One worker's neighbour links, indexed by [`Peer`]; `None` where the
/// layout gives it no neighbour.
#[derive(Default)]
struct Links([Option<Link>; 4]);

/// Builds every worker's links: two recycled mailboxes (one per direction)
/// across each interior edge of the layout, each recycling one owned
/// buffer of the shared edge's length for the whole solve.
fn connect(decomposition: &Decomposition) -> Vec<Links> {
    let mut links = Vec::from_iter(decomposition.blocks.iter().map(|_| Links::default()));
    for (a, tile) in decomposition.blocks.iter().enumerate() {
        for (peer, len) in [(Peer::Down, tile.n_cols()), (Peer::Right, tile.n_rows())] {
            let Some(b) = decomposition.layout.neighbour(a, peer) else {
                continue;
            };
            let (a_to_b, b_from_a) = recycled_link(len);
            let (b_to_a, a_from_b) = recycled_link(len);
            links[a].0[peer as usize] = Some(Link {
                rank: b,
                to: a_to_b,
                from: a_from_b,
            });
            links[b].0[peer.opposite() as usize] = Some(Link {
                rank: a,
                to: b_to_a,
                from: b_from_a,
            });
        }
    }
    links
}

/// One worker's full run: sweep, then execute the extracted
/// [`half_iteration_script`] — ship boundary edges to every neighbour,
/// then drain fresh ghosts — every half-iteration. Any exchange failure
/// or injected death ends the run early (dropping the worker's links,
/// which is what a neighbour observes as this worker's death).
///
/// The exchange ordering is *not* open-coded here: the script from
/// [`crate::protocol`] is the single source of truth, which the
/// test-only explorer runs over the same [`connect`]ed links to prove
/// the exchange deadlock-free in every interleaving of small
/// configurations.
fn worker_loop(
    rank: usize,
    layout: BlockLayout,
    worker: &mut Worker,
    links: &mut Links,
    params: SorParams,
    options: &SolveOptions,
) -> WorkerEnd {
    let script = half_iteration_script(rank, layout);
    let mut half = 0usize;
    for _ in 0..params.iterations {
        for color in [Color::Red, Color::Black] {
            if death_fires(options.kill, rank, half) {
                return WorkerEnd::Died;
            }
            worker.sweep(color, params.omega);
            for &op in &script {
                if let Err(end) = run_op(op, worker, links, &options.policy) {
                    return end;
                }
            }
            half += 1;
        }
    }
    WorkerEnd::Completed
}

/// Executes one scripted mailbox operation against the worker's links.
fn run_op(
    op: ExchangeOp,
    worker: &mut Worker,
    links: &mut Links,
    policy: &ExchangePolicy,
) -> Result<(), WorkerEnd> {
    let (ExchangeOp::Send(peer) | ExchangeOp::Recv(peer)) = op;
    let link = links.0[peer as usize]
        .as_mut()
        .expect("the script names only neighbours the layout gave this rank"); // tidy:allow(PP003): half_iteration_script and connect() read the same BlockLayout::neighbour
    match op {
        ExchangeOp::Send(_) => link
            .to
            .try_send_with(policy, |buf| worker.copy_edge(peer, buf)),
        ExchangeOp::Recv(_) => link
            .from
            .try_recv_with(policy, |edge| worker.set_halo(peer, edge)),
    }
    .map_err(|e| match e {
        ExchangeError::Disconnected => WorkerEnd::NeighbourLost {
            neighbour: link.rank,
        },
        ExchangeError::Timeout => WorkerEnd::TimedOut,
    })
}

/// Fallible core of the threaded solver, over any [`Decomposition`]: every
/// ghost exchange is bounded by `options.policy`, and a worker death — a
/// panic, or `options.kill` firing at rank = block index in row-major
/// layout order — returns [`SolveError::WorkerDied`] instead of
/// deadlocking or re-panicking. On any error the grid is left in its
/// initial state.
///
/// # Panics
///
/// Panics on invalid `omega` or a decomposition built for another grid
/// size — configuration errors, not runtime faults.
///
/// # Errors
///
/// Returns [`SolveError::WorkerDied`] when a worker panics, an injected
/// death fires, or a neighbour exchange finds its link disconnected, and
/// [`SolveError::ExchangeTimeout`] when no worker died but one exhausted
/// its timeout budget waiting on a neighbour.
pub fn try_solve_decomposed(
    grid: &mut Grid,
    params: SorParams,
    decomposition: &Decomposition,
    options: &SolveOptions,
) -> Result<(), SolveError> {
    assert!(
        params.omega > 0.0 && params.omega < 2.0,
        "omega must lie in (0,2)"
    );
    assert_eq!(
        decomposition.n,
        grid.n(),
        "decomposition was built for another grid size"
    );
    let tiles = &decomposition.blocks;
    if tiles.len() == 1 {
        // A single worker exchanges nothing, but an injected death still
        // kills the solve before it completes.
        if options
            .kill
            .is_some_and(|d| d.rank == 0 && d.at_half_iteration < 2 * params.iterations)
        {
            return Err(SolveError::WorkerDied { rank: 0 });
        }
        crate::seq::relax_seq(grid, params);
        return Ok(());
    }

    let layout = decomposition.layout;
    let mut workers: Vec<Worker> = tiles.iter().map(|b| Worker::new(grid, b)).collect();
    let ends = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(connect(decomposition))
            .enumerate()
            .map(|(rank, (worker, mut links))| {
                scope.spawn(move || worker_loop(rank, layout, worker, &mut links, params, options))
            })
            .collect();
        // Joining here (rather than letting the scope do it) converts a
        // worker's panic into an inspectable result instead of a
        // propagated re-panic.
        handles.into_iter().map(|h| h.join()).collect()
    });
    resolve(ends)?;

    // Assemble the solution.
    let n = grid.n();
    for (worker, tile) in workers.iter().zip(tiles) {
        for (li, gi) in tile.rows.clone().enumerate() {
            grid.data_mut()[gi * n + tile.cols.start..gi * n + tile.cols.end]
                .copy_from_slice(worker.owned_row(li + 1));
        }
    }
    Ok(())
}

/// Solves in parallel over the given strips, updating `grid` in place.
///
/// Runs [`try_solve_decomposed`] under [`SolveOptions::reliable`]: a
/// wedged neighbour is waited out near-indefinitely, so on a healthy run
/// this behaves exactly like a blocking driver.
///
/// # Panics
///
/// Panics if any strip is empty (decompose with `n >> p`), if strips do
/// not tile the interior, on invalid `omega`, or if a worker dies — use
/// [`try_solve_decomposed`] to handle death as a typed error.
pub fn solve_parallel_strips(grid: &mut Grid, params: SorParams, strips: &[Strip]) {
    let decomposition = Decomposition::strips(grid.n(), strips);
    try_solve_decomposed(grid, params, &decomposition, &SolveOptions::reliable())
        .unwrap_or_else(|e| panic!("parallel solve failed: {e}"));
}

/// Solves in parallel over equal blocks on `layout`, updating `grid` in
/// place: [`try_solve_decomposed`] under [`SolveOptions::reliable`].
///
/// # Panics
///
/// Panics on invalid `omega`, a layout finer than the interior, or if a
/// worker dies — use [`try_solve_decomposed`] to handle death as a typed
/// error.
pub fn solve_parallel_blocks(grid: &mut Grid, params: SorParams, layout: BlockLayout) {
    let decomposition = Decomposition::blocks(grid.n(), layout);
    try_solve_decomposed(grid, params, &decomposition, &SolveOptions::reliable())
        .unwrap_or_else(|e| panic!("parallel block solve failed: {e}"));
}

/// Every interleaving of the ghost exchange, explored on the real links.
#[cfg(test)]
#[path = "tests/explore.rs"]
pub(crate) mod explore;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{partition_equal, partition_rows};
    use crate::seq::solve_seq;

    fn solved_seq(n: usize, iters: usize) -> Grid {
        let mut g = Grid::laplace_problem(n);
        solve_seq(&mut g, SorParams::for_grid(n, iters));
        g
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for p in [2, 3, 4] {
            let n = 33;
            let iters = 30;
            let reference = solved_seq(n, iters);
            let mut g = Grid::laplace_problem(n);
            solve_parallel_strips(
                &mut g,
                SorParams::for_grid(n, iters),
                &partition_equal(n - 2, p),
            );
            assert_eq!(
                g.max_diff(&reference),
                0.0,
                "p={p}: parallel differs from sequential"
            );
        }
    }

    #[test]
    fn weighted_strips_also_match() {
        let n = 25;
        let iters = 20;
        let reference = solved_seq(n, iters);
        let strips = partition_rows(n - 2, &[3.0, 1.0, 2.0]);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_strips(&mut g, SorParams::for_grid(n, iters), &strips);
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn single_worker_delegates_to_sequential() {
        let n = 17;
        let reference = solved_seq(n, 10);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_strips(
            &mut g,
            SorParams::for_grid(n, 10),
            &partition_equal(n - 2, 1),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn converges_in_parallel() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        solve_parallel_strips(
            &mut g,
            SorParams::for_grid(n, 400),
            &partition_equal(n - 2, 4),
        );
        assert!(g.max_residual() < 1e-9, "residual {}", g.max_residual());
    }

    #[test]
    fn many_workers_small_grid() {
        // 8 workers on 10 interior rows: some strips have 1 row.
        let n = 12;
        let iters = 15;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_strips(
            &mut g,
            SorParams::for_grid(n, iters),
            &partition_equal(n - 2, 8),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_strip() {
        // 2 interior rows across 3 workers -> an empty strip.
        let mut g = Grid::laplace_problem(4);
        solve_parallel_strips(&mut g, SorParams::for_grid(4, 1), &partition_equal(2, 3));
    }

    #[test]
    fn blocks_match_sequential_bitwise() {
        for (pr, pc) in [(2, 2), (1, 3), (3, 1), (2, 3), (3, 3)] {
            let n = 26;
            let iters = 15;
            let reference = solved_seq(n, iters);
            let mut g = Grid::laplace_problem(n);
            solve_parallel_blocks(
                &mut g,
                SorParams::for_grid(n, iters),
                BlockLayout::new(pr, pc),
            );
            assert_eq!(
                g.max_diff(&reference),
                0.0,
                "layout {pr}x{pc} differs from sequential"
            );
        }
    }

    #[test]
    fn single_block_delegates() {
        let n = 15;
        let reference = solved_seq(n, 8);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(&mut g, SorParams::for_grid(n, 8), BlockLayout::new(1, 1));
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn converges_with_blocks() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(&mut g, SorParams::for_grid(n, 400), BlockLayout::new(2, 2));
        assert!(g.max_residual() < 1e-9, "residual {}", g.max_residual());
    }

    #[test]
    fn uneven_blocks_still_match() {
        // Interior 11 split 3x2: ragged blocks.
        let n = 13;
        let iters = 10;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        solve_parallel_blocks(
            &mut g,
            SorParams::for_grid(n, iters),
            BlockLayout::new(3, 2),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    fn kill_options(rank: usize, at_half_iteration: usize) -> SolveOptions {
        SolveOptions {
            policy: ExchangePolicy {
                timeout: std::time::Duration::from_millis(200),
                retries: 1,
            },
            kill: Some(WorkerDeath {
                rank,
                at_half_iteration,
            }),
        }
    }

    #[test]
    fn fallible_solve_without_faults_matches_sequential() {
        let n = 25;
        let iters = 20;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 4);
        try_solve_decomposed(
            &mut g,
            SorParams::for_grid(n, iters),
            &Decomposition::strips(n, &strips),
            &SolveOptions::default(),
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn killed_worker_returns_typed_error_and_leaves_grid_untouched() {
        // Interior ranks, edge ranks, and the very first half-iteration.
        for (rank, half) in [(1, 5), (0, 0), (3, 9), (2, 1)] {
            let n = 21;
            let initial = Grid::laplace_problem(n);
            let mut g = initial.clone();
            let strips = partition_equal(n - 2, 4);
            let err = try_solve_decomposed(
                &mut g,
                SorParams::for_grid(n, 10),
                &Decomposition::strips(n, &strips),
                &kill_options(rank, half),
            )
            .unwrap_err();
            assert_eq!(err, SolveError::WorkerDied { rank }, "kill rank {rank}");
            assert_eq!(g.max_diff(&initial), 0.0, "grid must stay untouched");
        }
    }

    #[test]
    fn death_after_last_half_iteration_never_fires() {
        let n = 17;
        let iters = 8;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 3);
        // Half-iterations run 0..2*iters; 2*iters is past the end.
        try_solve_decomposed(
            &mut g,
            SorParams::for_grid(n, iters),
            &Decomposition::strips(n, &strips),
            &kill_options(1, 2 * iters),
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn death_of_out_of_range_rank_is_ignored() {
        let n = 17;
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 3);
        try_solve_decomposed(
            &mut g,
            SorParams::for_grid(n, 5),
            &Decomposition::strips(n, &strips),
            &kill_options(99, 0),
        )
        .unwrap();
    }

    #[test]
    fn single_worker_death_is_still_reported() {
        let n = 17;
        let initial = Grid::laplace_problem(n);
        let mut g = initial.clone();
        let strips = partition_equal(n - 2, 1);
        let err = try_solve_decomposed(
            &mut g,
            SorParams::for_grid(n, 5),
            &Decomposition::strips(n, &strips),
            &kill_options(0, 3),
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 0 });
        assert_eq!(g.max_diff(&initial), 0.0);
    }

    #[test]
    fn resolve_ranks_own_death_over_seen_death_over_timeout() {
        use WorkerEnd::{Completed, Died, NeighbourLost, TimedOut};
        fn ends(list: Vec<WorkerEnd>) -> Vec<std::thread::Result<WorkerEnd>> {
            list.into_iter().map(Ok).collect()
        }
        assert_eq!(resolve(ends(vec![Completed, Completed])), Ok(()));
        // Only timeouts: the solve timed out, and the first worker to
        // report one is named.
        assert_eq!(
            resolve(ends(vec![Completed, TimedOut, TimedOut])),
            Err(SolveError::ExchangeTimeout { rank: 1 })
        );
        // A death seen through a dropped link outranks a timeout reported
        // before it, and names the neighbour the first such worker lost.
        assert_eq!(
            resolve(ends(vec![
                TimedOut,
                NeighbourLost { neighbour: 2 },
                NeighbourLost { neighbour: 0 },
            ])),
            Err(SolveError::WorkerDied { rank: 2 })
        );
        // A worker's own death outranks everything reported before it.
        assert_eq!(
            resolve(ends(vec![TimedOut, NeighbourLost { neighbour: 3 }, Died])),
            Err(SolveError::WorkerDied { rank: 2 })
        );
        // A panic is a death of the panicking rank.
        assert_eq!(
            resolve(vec![
                Ok(NeighbourLost { neighbour: 5 }),
                Err(Box::new("boom")),
            ]),
            Err(SolveError::WorkerDied { rank: 1 })
        );
    }

    #[test]
    fn killed_block_worker_returns_typed_error() {
        // Corner, edge, and interior blocks of a 3x3 layout.
        for (rank, half) in [(0, 0), (4, 3), (8, 7), (5, 2)] {
            let n = 26;
            let initial = Grid::laplace_problem(n);
            let mut g = initial.clone();
            let err = try_solve_decomposed(
                &mut g,
                SorParams::for_grid(n, 10),
                &Decomposition::blocks(n, BlockLayout::new(3, 3)),
                &kill_options(rank, half),
            )
            .unwrap_err();
            assert_eq!(err, SolveError::WorkerDied { rank }, "kill rank {rank}");
            assert_eq!(g.max_diff(&initial), 0.0, "grid must stay untouched");
        }
    }

    #[test]
    fn fallible_block_solve_without_faults_matches_sequential() {
        let n = 22;
        let iters = 12;
        let want = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        try_solve_decomposed(
            &mut g,
            SorParams::for_grid(n, iters),
            &Decomposition::blocks(n, BlockLayout::new(2, 3)),
            &SolveOptions::default(),
        )
        .unwrap();
        assert_eq!(g.max_diff(&want), 0.0);
    }
}
