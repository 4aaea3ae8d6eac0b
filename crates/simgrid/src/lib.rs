//! # prodpred-simgrid
//!
//! A production-environment simulator standing in for the paper's testbed:
//! "a production network of heterogeneous Sparc workstations connected by
//! 10 Mbit ethernet. Workstations were shared by multiple users and
//! exhibited diverse processor speeds, available physical memory, and CPU
//! load. The network was also shared by other users."
//!
//! The simulator reproduces the *statistical character* of that
//! environment — which is all the prediction models consume:
//!
//! * [`machine`] — workstation specs (Sparc-2/5/10, UltraSparc) with
//!   dedicated per-element benchmark times and memory limits,
//! * [`load`] — stochastic CPU-availability processes: dedicated,
//!   single-mode AR(1) (Platform 1's regime), multi-modal Markov burst
//!   switching (Platform 2's regime), and a mechanistic competing-user
//!   session model whose `1/(1+k)` sharing produces exactly the modal
//!   structure of the paper's Figure 5,
//! * [`network`] — a shared 10 Mbit ethernet whose available bandwidth is
//!   long-tailed under contention (Figure 3),
//! * [`trace`] — step-function resource traces with work integration
//!   (elapsed time to complete a given amount of dedicated work),
//! * `event` — a small deterministic discrete-event engine driving the
//!   session workload generator (crate-private),
//! * [`platform`] — the two experimental platforms from Section 3 plus a
//!   dedicated configuration,
//! * [`benchmark`] — the in-core sort benchmark behind Figures 1–2, both
//!   actually executed and simulated,
//! * [`faults`] — deterministic, seeded fault injection (sensor dropout,
//!   delayed/corrupted measurements, NWS blackouts, load storms, worker
//!   death), the configuration surface of the robustness extension.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod benchmark;
pub(crate) mod event;
pub mod faults;
pub mod load;
pub mod machine;
pub mod memory;
pub mod network;
pub mod platform;
pub mod rng;
pub mod trace;

pub use faults::{FaultConfig, FaultPlan, LoadStorm, PollOutcome, SensorFaults, WorkerDeath};
pub use machine::{Machine, MachineClass, MachineSpec};
pub use memory::PagingModel;
pub use network::{Ethernet, NetworkSpec};
pub use platform::{GrowingPlatform, Platform};
pub use trace::Trace;
