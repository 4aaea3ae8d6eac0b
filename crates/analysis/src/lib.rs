//! # prodpred-analysis
//!
//! Correctness tooling for the prodpred workspace — the subsystem that
//! turns the determinism and fault-recovery invariants of PRs 1–4 from
//! conventions into *checked* properties:
//!
//! * `scan` + [`lints`] (+ `surface`, PP011's cross-crate pass) — the
//!   `tidy` lint engine: a hand-rolled, token-aware Rust source scanner
//!   (std-only, works offline, no rustc plugin) implementing the
//!   repo-specific `PPnnn` lints with inline justified suppressions. The tree is kept at zero findings: any
//!   finding fails `cargo run -p prodpred-analysis --bin tidy -- --check`.
//! * [`model`] — a bounded model checker that exhaustively enumerates
//!   every interleaving of the SOR ghost-exchange mailbox protocol for
//!   small configurations, proving deadlock freedom, exact message
//!   delivery, and typed worker-death surfacing under injected kills
//!   and `ExchangePolicy` timeouts. Run it via `cargo run -p
//!   prodpred-analysis --bin modelcheck`.
//! * [`ckpt`] — the same treatment for the checkpoint/resume recovery
//!   protocol layered above the solves: segment barriers, snapshots at
//!   boundaries, the absolute→segment kill translation, and rollback,
//!   proving that a consumed death never re-fires and that every
//!   interleaving of a killed-then-resumed run converges to the
//!   unfaulted delivery state (or a typed abandonment). Part of the
//!   default `modelcheck` suite.
//! * [`mc`] — the shared bounded explicit-state exploration kernel the
//!   checkers above are built on: generic transition systems, canonical
//!   state dedup with symmetry reduction, DFS with depth/state budgets,
//!   counterexample trace reconstruction, minimal (BFS) counterexamples
//!   for the negative-control suites, and schedule harvesting for
//!   conformance replay.
//! * [`svc`] — the serving-path proof: an abstract model of the
//!   `prodpred-service` shared state (`EpochSwap` publishes and loads,
//!   `EpochCache` shard probes/inserts and `bump_to`'s per-shard sweeps,
//!   admission token grants and sheds), explored across every interleaving
//!   at small bounds, plus the conformance harness that replays
//!   explored schedules against the real implementation. Run it via
//!   `cargo run -p prodpred-analysis --bin modelcheck -- --svc`.
//!
//! The two halves meet in the middle: the lints keep nondeterminism and
//! unchecked panics out of the sources (PP010 fences atomics into the
//! audited modules the [`svc`] model abstracts), and the model checkers
//! prove the protocols whose correctness arguments cannot be read off a
//! single thread's source. See DESIGN.md §9 and §14.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod ckpt;
pub mod lints;
pub mod mc;
pub mod model;
pub(crate) mod scan;
mod surface;
pub mod svc;
pub mod walk;
