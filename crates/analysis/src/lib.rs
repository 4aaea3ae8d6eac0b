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
//! * [`mc`] — the explicit-state exploration kernel: generic transition
//!   systems, canonical state dedup with symmetry reduction, and one
//!   breadth-first search whose first counterexample is minimal. Two
//!   test-only explorers run it (a dev-dependency) over real code, one
//!   critical section per step: `prodpred-sor`'s over the ghost
//!   exchange's mailboxes (`cargo test -p prodpred-sor --lib explore`)
//!   and `prodpred-service`'s over the serving path's `EpochSwap`,
//!   `EpochCache` and `Admission` (`cargo test -p prodpred-service --lib
//!   explore`).
//!
//! The two halves meet in the middle: the lints keep nondeterminism and
//! unchecked panics out of the sources (PP010 fences atomics into the
//! audited modules the serving-path explorer and the pool's stress suite
//! cover), and the explorers prove the protocols whose correctness
//! arguments cannot be read off a single thread's source. See DESIGN.md
//! §9 and §14.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod lints;
pub mod mc;
pub(crate) mod scan;
mod surface;
pub mod walk;
