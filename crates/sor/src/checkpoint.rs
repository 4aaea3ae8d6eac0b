//! Checkpoint/restart for the parallel SOR solver.
//!
//! Red-Black SOR has no hidden solver state: at every iteration boundary
//! the workers' local blocks plus their freshly exchanged ghosts are
//! exactly the global grid, and the algorithm carries no RNG or
//! accumulator across iterations. Running `iterations` as a sequence of
//! shorter *segments* — each one a fresh call into
//! [`crate::parallel::try_solve_decomposed`] — is therefore
//! bit-for-bit identical to one long run, and a snapshot of
//! `(grid, completed iterations)` taken between segments is a fully
//! consistent [`Checkpoint`]: no red/black half-sweep is ever split
//! across it.
//!
//! [`CheckpointPolicy`] chooses the segment length (checkpoint every `k`
//! iterations); [`try_solve_checkpointed`] records each snapshot into a
//! [`CheckpointStore`], and [`resume_from`] restarts a
//! killed solve from the last snapshot instead of iteration 0. An
//! injected [`WorkerDeath`] is addressed in *global* half-iterations and
//! translated into each segment's local frame, so a death scheduled for
//! half-iteration `h` fires at the same global position regardless of
//! segmentation — which is what lets a test pin that a killed-then-
//! resumed solve is bit-identical to an unfaulted one.
//!
//! Error contract: on [`SolveError`] the grid holds the state of the
//! last *completed* segment (the most recent checkpoint, or the starting
//! state if none was taken) — always a consistent iteration boundary,
//! never a torn half-sweep.

use crate::decomp::Decomposition;
use crate::grid::Grid;
use crate::parallel::{try_solve_decomposed, SolveError, SolveOptions};
use crate::seq::SorParams;
use prodpred_simgrid::faults::WorkerDeath;
use serde::{Deserialize, Serialize};

/// Format version stamped into every [`Checkpoint`]. Bumped whenever the
/// snapshot layout changes; [`Checkpoint::restore`] refuses versions it
/// does not understand.
pub(crate) const CHECKPOINT_VERSION: u32 = 1;

/// Typed failure of a checkpoint restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointError {
    /// The checkpoint was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the checkpoint.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The checkpoint's grid dimension does not match the target grid.
    SizeMismatch {
        /// Dimension recorded in the checkpoint.
        found: usize,
        /// Dimension of the grid being restored into.
        expected: usize,
    },
    /// The checkpoint claims more completed iterations than the solve
    /// being resumed asks for in total.
    IterationOverrun {
        /// Iterations recorded as completed in the checkpoint.
        at: usize,
        /// Total iterations of the resumed solve.
        total: usize,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::VersionMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint version {found} (this build reads {expected})"
                )
            }
            Self::SizeMismatch { found, expected } => {
                write!(
                    f,
                    "checkpoint grid is {found}x{found}, target is {expected}x{expected}"
                )
            }
            Self::IterationOverrun { at, total } => {
                write!(
                    f,
                    "checkpoint at iteration {at} beyond the solve's total {total}"
                )
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

/// When to snapshot: every `every` completed red+black iterations; `0`
/// disables checkpointing (the solve runs as one segment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CheckpointPolicy {
    /// Snapshot cadence in iterations; `0` = never.
    pub every: usize,
}

impl CheckpointPolicy {
    /// Checkpoint every `k` iterations.
    pub fn every(k: usize) -> Self {
        Self { every: k }
    }

    /// No checkpoints: the solve runs as a single segment.
    pub fn disabled() -> Self {
        Self { every: 0 }
    }

    /// How many snapshots a healthy `iterations`-long solve records
    /// under this policy: one per completed segment boundary short of
    /// the end (`run_segments` skips the final boundary), i.e.
    /// `⌊(iterations − 1) / every⌋`, or zero when disabled. This is the
    /// count the fault-aware predictor amortizes checkpoint write cost
    /// over.
    pub fn checkpoints_for(&self, iterations: usize) -> usize {
        match self.every {
            0 => 0,
            k => iterations.saturating_sub(1) / k,
        }
    }
}

/// A versioned, self-contained snapshot of a solve: the grid plus the
/// number of completed red+black iterations. Serde-serializable, so it
/// can also be persisted out of process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    version: u32,
    iteration: usize,
    grid: Grid,
}

impl Checkpoint {
    /// Snapshots `grid` as the state after `iteration` completed
    /// iterations.
    pub(crate) fn capture(grid: &Grid, iteration: usize) -> Self {
        Self {
            version: CHECKPOINT_VERSION,
            iteration,
            grid: grid.clone(),
        }
    }

    /// Completed red+black iterations at the snapshot.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// Copies the snapshotted state into `grid` after validating the
    /// format version and grid dimension.
    ///
    /// # Errors
    ///
    /// Returns a [`CheckpointError`] on a format-version or grid-dimension
    /// mismatch; `grid` is untouched on error.
    pub(crate) fn restore(&self, grid: &mut Grid) -> Result<(), CheckpointError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(CheckpointError::VersionMismatch {
                found: self.version,
                expected: CHECKPOINT_VERSION,
            });
        }
        if self.grid.n() != grid.n() {
            return Err(CheckpointError::SizeMismatch {
                found: self.grid.n(),
                expected: grid.n(),
            });
        }
        grid.data_mut().copy_from_slice(self.grid.data());
        Ok(())
    }
}

/// In-memory checkpoint sink: keeps the latest snapshot and counts how
/// many were taken. The latest checkpoint is what [`resume_from`]
/// restarts a killed solve from.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    latest: Option<Checkpoint>,
    taken: usize,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The most recent checkpoint, if any was taken.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.latest.as_ref()
    }

    /// Total snapshots recorded over the store's lifetime.
    pub fn taken(&self) -> usize {
        self.taken
    }

    /// Records a snapshot as the new latest checkpoint.
    pub fn record(&mut self, checkpoint: Checkpoint) {
        self.latest = Some(checkpoint);
        self.taken += 1;
    }
}

/// Translates a globally addressed kill into segment-local
/// half-iterations for a segment starting at `start_iteration`. A death
/// scheduled before the segment has already happened (or been recovered
/// from) and never re-fires; one past the segment's end simply does not
/// fire within it.
fn kill_in_segment(kill: Option<WorkerDeath>, start_iteration: usize) -> Option<WorkerDeath> {
    let death = kill?;
    let at_half_iteration = death.at_half_iteration.checked_sub(2 * start_iteration)?;
    Some(WorkerDeath {
        rank: death.rank,
        at_half_iteration,
    })
}

/// The segmented driver: runs `params.iterations` from `start_iteration`
/// in `policy`-sized segments, recording a checkpoint after every
/// completed segment boundary short of the end.
fn run_segments(
    grid: &mut Grid,
    params: SorParams,
    decomposition: &Decomposition,
    options: &SolveOptions,
    policy: CheckpointPolicy,
    store: &mut CheckpointStore,
    start_iteration: usize,
) -> Result<(), SolveError> {
    let total = params.iterations;
    let mut done = start_iteration;
    while done < total {
        let step = match policy.every {
            0 => total - done,
            k => k.min(total - done),
        };
        let segment_params = SorParams {
            omega: params.omega,
            iterations: step,
        };
        let segment_options = SolveOptions {
            policy: options.policy,
            kill: kill_in_segment(options.kill, done),
        };
        try_solve_decomposed(grid, segment_params, decomposition, &segment_options)?;
        done += step;
        if policy.every != 0 && done < total {
            store.record(Checkpoint::capture(grid, done));
        }
    }
    Ok(())
}

/// [`try_solve_decomposed`] run in checkpointed segments: every
/// `policy.every` iterations the grid is snapshotted into `store`, so a
/// later [`resume_from`] restarts from the last consistent red/black
/// boundary instead of iteration 0.
///
/// Bit-for-bit identical to the unsegmented solve on a healthy run. On
/// error the grid holds the last completed segment's state (the latest
/// checkpoint, or the initial state if none was taken yet).
///
/// # Panics
///
/// Same configuration panics as [`try_solve_decomposed`].
///
/// # Errors
///
/// Returns the same [`SolveError`]s as [`try_solve_decomposed`].
pub fn try_solve_checkpointed(
    grid: &mut Grid,
    params: SorParams,
    decomposition: &Decomposition,
    options: &SolveOptions,
    policy: CheckpointPolicy,
    store: &mut CheckpointStore,
) -> Result<(), SolveError> {
    run_segments(grid, params, decomposition, options, policy, store, 0)
}

/// Resumes a solve from `checkpoint`: restores the snapshotted grid and
/// runs the remaining `params.iterations - checkpoint.iteration()`
/// iterations, continuing to checkpoint under the same policy. The
/// injected kill in `options` keeps its *global* addressing — a death
/// already consumed before the checkpoint does not re-fire.
///
/// # Errors
///
/// Returns [`SolveError::Checkpoint`] for a checkpoint this solve cannot
/// use, and otherwise the same [`SolveError`]s as
/// [`try_solve_decomposed`].
pub fn resume_from(
    checkpoint: &Checkpoint,
    grid: &mut Grid,
    params: SorParams,
    decomposition: &Decomposition,
    options: &SolveOptions,
    policy: CheckpointPolicy,
    store: &mut CheckpointStore,
) -> Result<(), SolveError> {
    if checkpoint.iteration() > params.iterations {
        return Err(SolveError::Checkpoint(CheckpointError::IterationOverrun {
            at: checkpoint.iteration(),
            total: params.iterations,
        }));
    }
    checkpoint.restore(grid)?;
    let start = checkpoint.iteration();
    run_segments(grid, params, decomposition, options, policy, store, start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{partition_equal, BlockLayout};
    use crate::exchange::ExchangePolicy;
    use crate::seq::solve_seq;
    use std::time::Duration;

    fn solved_seq(n: usize, iters: usize) -> Grid {
        let mut g = Grid::laplace_problem(n);
        solve_seq(&mut g, SorParams::for_grid(n, iters));
        g
    }

    fn snappy() -> ExchangePolicy {
        ExchangePolicy {
            timeout: Duration::from_millis(200),
            retries: 1,
        }
    }

    #[test]
    fn checkpointed_healthy_solve_is_bit_identical() {
        // Segmentation must not change a single bit, for any cadence —
        // including cadences that do not divide the total.
        let n = 25;
        let iters = 20;
        let reference = solved_seq(n, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 4));
        for every in [0, 1, 3, 7, 20, 50] {
            let mut g = Grid::laplace_problem(n);
            let mut store = CheckpointStore::new();
            try_solve_checkpointed(
                &mut g,
                SorParams::for_grid(n, iters),
                &strips,
                &SolveOptions::reliable(),
                CheckpointPolicy::every(every),
                &mut store,
            )
            .unwrap();
            assert_eq!(g.max_diff(&reference), 0.0, "cadence {every}");
            let expected_taken = match every {
                0 => 0,
                k => (iters - 1) / k,
            };
            assert_eq!(store.taken(), expected_taken, "cadence {every}");
            assert_eq!(
                CheckpointPolicy::every(every).checkpoints_for(iters),
                expected_taken,
                "checkpoints_for must match the driver at cadence {every}"
            );
        }
    }

    #[test]
    fn checkpoints_for_handles_edge_cadences() {
        assert_eq!(CheckpointPolicy::disabled().checkpoints_for(100), 0);
        assert_eq!(CheckpointPolicy::every(4).checkpoints_for(0), 0);
        assert_eq!(CheckpointPolicy::every(4).checkpoints_for(1), 0);
        assert_eq!(CheckpointPolicy::every(1).checkpoints_for(5), 4);
        assert_eq!(CheckpointPolicy::every(4).checkpoints_for(20), 4);
    }

    #[test]
    fn checkpointed_blocks_are_bit_identical() {
        let n = 22;
        let iters = 12;
        let reference = solved_seq(n, iters);
        for every in [1, 4, 5] {
            let mut g = Grid::laplace_problem(n);
            let mut store = CheckpointStore::new();
            try_solve_checkpointed(
                &mut g,
                SorParams::for_grid(n, iters),
                &Decomposition::blocks(n, BlockLayout::new(2, 3)),
                &SolveOptions::reliable(),
                CheckpointPolicy::every(every),
                &mut store,
            )
            .unwrap();
            assert_eq!(g.max_diff(&reference), 0.0, "cadence {every}");
        }
    }

    #[test]
    fn killed_then_resumed_solve_is_bit_identical_to_unfaulted() {
        // The acceptance pin: kill a worker mid-solve, resume from the
        // last checkpoint, and end with exactly the unfaulted bits.
        let n = 33;
        let iters = 24;
        let params = SorParams::for_grid(n, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 4));
        let reference = solved_seq(n, iters);

        // Kill rank 2 in iteration 13's black phase (global half 27):
        // with a cadence of 5 the last good checkpoint is iteration 10.
        let kill = WorkerDeath {
            rank: 2,
            at_half_iteration: 27,
        };
        let policy = CheckpointPolicy::every(5);
        let mut store = CheckpointStore::new();
        let mut g = Grid::laplace_problem(n);
        let err = try_solve_checkpointed(
            &mut g,
            params,
            &strips,
            &SolveOptions {
                policy: snappy(),
                kill: Some(kill),
            },
            policy,
            &mut store,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 2 });
        let checkpoint = store.latest().expect("checkpoints were taken").clone();
        assert_eq!(checkpoint.iteration(), 10);
        // The failing segment left the grid at the checkpoint boundary.
        assert_eq!(g.max_diff(&checkpoint.grid), 0.0);

        // The worker is restarted (transient death): resume without the
        // kill — it already fired — and finish.
        resume_from(
            &checkpoint,
            &mut g,
            params,
            &strips,
            &SolveOptions {
                policy: snappy(),
                kill: None,
            },
            policy,
            &mut store,
        )
        .unwrap();
        assert_eq!(
            g.max_diff(&reference),
            0.0,
            "killed-then-resumed must be bit-identical to unfaulted"
        );
    }

    #[test]
    fn resume_honors_global_kill_addressing() {
        // A kill scheduled before the checkpoint never re-fires on
        // resume; one scheduled after it fires at the right position.
        let n = 21;
        let iters = 16;
        let params = SorParams::for_grid(n, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 3));
        let reference = solved_seq(n, iters);

        let mut base = Grid::laplace_problem(n);
        let mut store = CheckpointStore::new();
        let policy = CheckpointPolicy::every(4);
        let early_kill = WorkerDeath {
            rank: 1,
            at_half_iteration: 9, // iteration 4's black phase
        };
        let err = try_solve_checkpointed(
            &mut base,
            params,
            &strips,
            &SolveOptions {
                policy: snappy(),
                kill: Some(early_kill),
            },
            policy,
            &mut store,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 1 });
        let checkpoint = store.latest().unwrap().clone();
        assert_eq!(checkpoint.iteration(), 4);

        // Resuming with the *same* global kill: half 9 is inside the
        // resumed range (it killed iteration 4), so it fires again —
        // modelling a permanent fault.
        let mut g = Grid::laplace_problem(n);
        checkpoint.restore(&mut g).unwrap();
        let err = resume_from(
            &checkpoint,
            &mut g,
            params,
            &strips,
            &SolveOptions {
                policy: snappy(),
                kill: Some(early_kill),
            },
            policy,
            &mut store,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 1 });

        // A kill addressed before the checkpoint is already in the past
        // and must not fire.
        let mut g = Grid::laplace_problem(n);
        resume_from(
            &checkpoint,
            &mut g,
            params,
            &strips,
            &SolveOptions {
                policy: snappy(),
                kill: Some(WorkerDeath {
                    rank: 1,
                    at_half_iteration: 7,
                }),
            },
            policy,
            &mut store,
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn checkpoint_serde_round_trip_resumes_exactly() {
        let n = 19;
        let iters = 12;
        let params = SorParams::for_grid(n, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 2));
        let reference = solved_seq(n, iters);

        let mut g = Grid::laplace_problem(n);
        let mut store = CheckpointStore::new();
        try_solve_checkpointed(
            &mut g,
            SorParams {
                omega: params.omega,
                iterations: 8,
            },
            &strips,
            &SolveOptions::reliable(),
            CheckpointPolicy::every(4),
            &mut store,
        )
        .unwrap();
        // Persist the iteration-4 checkpoint through JSON and resume the
        // full 12-iteration solve from it.
        let json = serde_json::to_string(store.latest().unwrap()).unwrap();
        let restored: Checkpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(restored.version, CHECKPOINT_VERSION);
        assert_eq!(restored.iteration(), 4);

        let mut resumed = Grid::laplace_problem(n);
        let mut store2 = CheckpointStore::new();
        resume_from(
            &restored,
            &mut resumed,
            params,
            &strips,
            &SolveOptions::reliable(),
            CheckpointPolicy::every(4),
            &mut store2,
        )
        .unwrap();
        assert_eq!(resumed.max_diff(&reference), 0.0);
    }

    #[test]
    fn restore_rejects_wrong_version_and_size() {
        let g = Grid::laplace_problem(9);
        let cp = Checkpoint::capture(&g, 3);

        let mut wrong_size = Grid::laplace_problem(11);
        assert_eq!(
            cp.restore(&mut wrong_size),
            Err(CheckpointError::SizeMismatch {
                found: 9,
                expected: 11,
            })
        );

        // Forge a future-version checkpoint through serde.
        let json = serde_json::to_string(&cp).unwrap();
        let forged = json.replacen("\"version\":1", "\"version\":99", 1);
        assert_ne!(json, forged, "expected the version field in the JSON");
        let future: Checkpoint = serde_json::from_str(&forged).unwrap();
        let mut target = Grid::laplace_problem(9);
        assert_eq!(
            future.restore(&mut target),
            Err(CheckpointError::VersionMismatch {
                found: 99,
                expected: CHECKPOINT_VERSION,
            })
        );
    }

    #[test]
    fn resume_rejects_checkpoint_beyond_total() {
        let n = 9;
        let g = Grid::laplace_problem(n);
        let cp = Checkpoint::capture(&g, 30);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 2));
        let mut target = Grid::laplace_problem(n);
        let err = resume_from(
            &cp,
            &mut target,
            SorParams::for_grid(n, 10),
            &strips,
            &SolveOptions::reliable(),
            CheckpointPolicy::disabled(),
            &mut CheckpointStore::new(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            SolveError::Checkpoint(CheckpointError::IterationOverrun { at: 30, total: 10 })
        );
    }

    #[test]
    fn resume_at_exact_total_is_a_no_op() {
        let n = 9;
        let iters = 6;
        let reference = solved_seq(n, iters);
        let cp = Checkpoint::capture(&reference, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 2));
        let mut g = Grid::laplace_problem(n);
        resume_from(
            &cp,
            &mut g,
            SorParams::for_grid(n, iters),
            &strips,
            &SolveOptions::reliable(),
            CheckpointPolicy::every(2),
            &mut CheckpointStore::new(),
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn killed_then_resumed_blocks_are_bit_identical() {
        let n = 26;
        let iters = 18;
        let params = SorParams::for_grid(n, iters);
        let layout = Decomposition::blocks(n, BlockLayout::new(2, 2));
        let reference = solved_seq(n, iters);

        let kill = WorkerDeath {
            rank: 3,
            at_half_iteration: 21,
        };
        let policy = CheckpointPolicy::every(4);
        let mut store = CheckpointStore::new();
        let mut g = Grid::laplace_problem(n);
        let err = try_solve_checkpointed(
            &mut g,
            params,
            &layout,
            &SolveOptions {
                policy: snappy(),
                kill: Some(kill),
            },
            policy,
            &mut store,
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 3 });
        let checkpoint = store.latest().unwrap().clone();
        assert_eq!(checkpoint.iteration(), 8);

        resume_from(
            &checkpoint,
            &mut g,
            params,
            &layout,
            &SolveOptions {
                policy: snappy(),
                kill: None,
            },
            policy,
            &mut store,
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }
}
