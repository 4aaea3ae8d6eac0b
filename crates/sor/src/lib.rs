//! # prodpred-sor
//!
//! Distributed Red-Black Successive Over-Relaxation — the application the
//! paper validates its stochastic predictions on (Section 2.2.1).
//!
//! Three executions of the same algorithm:
//!
//! * [`seq`] — the sequential reference solver,
//! * [`parallel`] — a real multithreaded, shared-nothing implementation
//!   (one worker per block of a [`Decomposition`], ghost-edge exchange
//!   over recycled-buffer mailboxes), bit-for-bit equal to the sequential
//!   solver,
//! * [`distsim`] — a simulated *distributed* execution on a
//!   [`prodpred_simgrid::Platform`], integrating compute against CPU
//!   availability traces and ghost transfers against the shared ethernet,
//!   including the loose-synchronization skew of the paper's Figure 7.
//!   This is what generates the "actual execution times" in the
//!   experiment harness.
//!
//! Each exists once. The paper's strip decomposition (equal or
//! capacity-weighted, per its footnote 2) and the 2D block decomposition
//! of the strip-vs-block ablation are both a [`decomp::Decomposition`] — a
//! strip is a block spanning every interior column, `P` strips a `P x 1`
//! processor grid — so one worker, one set of neighbour links and one
//! worker loop run both, executing the exchange order [`protocol`] holds
//! as data (the order `prodpred-analysis` model-checks); and one simulator
//! phase loop runs both, fed a [`distsim::Part`] list.
//!
//! Plus the [`grid`] data structure, the shared slice-based relaxation
//! [`kernel`] every solver runs, the zero-allocation ghost [`exchange`]
//! the workers communicate through, and [`checkpoint`]/restart, so a
//! killed worker resumes from the last consistent red/black iteration
//! boundary instead of iteration 0.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Public-facing code returns typed errors instead of unwrapping; tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod decomp;
pub mod distsim;
pub mod exchange;
pub mod grid;
pub mod kernel;
pub mod parallel;
pub mod protocol;
pub mod seq;

pub use checkpoint::{
    resume_from, try_solve_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy,
    CheckpointStore,
};
pub use decomp::{
    partition_blocks, partition_equal, partition_rows, Block, BlockLayout, Decomposition, Peer,
    Strip,
};
pub use distsim::{simulate, simulate_blocks, simulate_with, DistSorConfig, DistSorResult, Part};
pub use exchange::ExchangePolicy;
pub use grid::{optimal_omega, Color, Grid};
pub use parallel::{
    solve_parallel, solve_parallel_blocks, solve_parallel_strips, try_solve_decomposed, SolveError,
    SolveOptions,
};
pub use seq::{solve_seq, sweep_iteration, SorParams};
