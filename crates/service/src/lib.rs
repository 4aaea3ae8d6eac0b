//! Prediction-as-a-service: the paper's structural predictor behind a
//! daemon with epoch-published forecast snapshots and a cached query
//! path.
//!
//! The paper's predictor answers "how long will this SOR run take right
//! now?" — a question whose answer decays as fast as the load does. This
//! crate packages it as a continuously-refreshing service:
//!
//! * [`swap`] — `EpochSwap`, epoch publication of immutable values: one
//!   `RwLock`ed `(epoch, Arc)` pair, so a reader waits at most for one
//!   pointer swap per publish;
//! * [`cache`] — the sharded, bounded, deterministic prediction cache,
//!   keyed by `(query configuration, snapshot epoch)` and invalidated
//!   wholesale on every epoch bump;
//! * [`core`] — the pure service core: simulated platforms, NWS polls
//!   and snapshot publication driven by the ingest machine, the cached
//!   query path. A pure function of `(seed, ticks, queries)` — no wall
//!   clock, no I/O;
//! * [`http`] — socket-free request parsing, routing, and response
//!   rendering;
//! * [`ingest`] — the supervised ingest tick (breaker gate, retry on the
//!   simulated clock, watchdog, accounting) as one state machine over a
//!   `poll` closure, driven by the core and by the availability
//!   predictor alike;
//! * [`replay`] — the seeded request stream shared by the chaos bench,
//!   the CI smoke test, and the tier-1 tests;
//! * [`resilience`] — the degraded-mode serving state machine
//!   (Healthy → Degraded → Stale → Unavailable), deterministic admission
//!   control, ingest outcome and accounting types, and the availability
//!   predictor the chaos bench gates against;
//! * [`shell`] — the thin `std::net` veneer (the only socket code in the
//!   workspace, fenced by tidy lint PP008).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cache;
pub mod core;
pub mod http;
pub mod ingest;
pub mod replay;
pub mod resilience;
pub mod shell;
pub mod swap;

pub use cache::{CacheConfig, CacheStats, EpochCache, QueryKey};
pub use core::{
    PredictRequest, PredictResponse, ServiceConfig, ServiceCore, ServiceError, ServiceStats,
};
pub use http::{handle, HttpResponse};
pub use replay::{percentile_us, request_for, request_path, ReplayReport};
pub use resilience::{
    predict_availability, AdmissionConfig, AvailabilityPrediction, ChaosArm, ChaosReport,
    IngestOutcome, IngestStats, ResilienceConfig, ServingState,
};
pub use shell::{serve, ShellConfig, ShellHandle};
pub use swap::EpochSwap;
