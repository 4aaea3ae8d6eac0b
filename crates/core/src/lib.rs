//! # prodpred-core
//!
//! Stochastic performance prediction in production environments — the
//! paper's end-to-end system, assembled from the substrate crates:
//!
//! * [`predictor`] — NWS measurements → stochastic parameters →
//!   structural SOR model → stochastic execution-time predictions, with
//!   the conventional point prediction as the baseline,
//! * [`scheduler`] — the variance-aware scheduling strategies of the
//!   paper's Section 1.2 (risk-averse vs. optimistic allocation, weighted
//!   strip decomposition),
//! * [`experiment`] — the Section-3 experiment harness: the dedicated
//!   2%-validation, the Platform-1 single-mode sweep (Figures 8–9), and
//!   the Platform-2 bursty repetition study (Figures 12–17),
//! * [`supervisor`] — bounded deterministic retry, per-resource circuit
//!   breakers, and checkpoint-resuming supervised SOR solves,
//! * [`faultmodel`] — fault-aware degradation terms for the structural
//!   model: expected retries/backoff, checkpoint overhead, blackout
//!   ride-through, storm stretch, and sensor spread widening, all pure
//!   functions of the fault configuration,
//! * [`report`] — text rendering of every table and figure,
//! * [`sweep`] — deterministic parallel fan-out of independent
//!   experiment replications (seeds, sizes, configurations) over the
//!   [`prodpred_pool`] work pool.
//!
//! ## Quickstart
//!
//! ```
//! use prodpred_core::experiment::{platform1_experiment, dedicated_check};
//!
//! // Dedicated validation: structural model within 2% of execution.
//! let checks = dedicated_check(&[600], 10);
//! assert!(checks[0].rel_error < 0.02);
//!
//! // Production: stochastic predictions bound the observed times.
//! let series = platform1_experiment(7, &[800, 1000]);
//! let report = series.accuracy().unwrap();
//! assert!(report.coverage > 0.5);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Public-facing code returns typed errors instead of unwrapping; tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod advisor;
pub mod ep;
pub mod experiment;
pub mod faultmodel;
pub mod grid;
pub mod predictor;
pub mod report;
pub mod scheduler;
pub mod supervisor;
pub mod sweep;

pub use advisor::{deadline_report, service_range, DeadlineReport, PredictionQuality};
pub use ep::{ep_policy_study, EpJob, EpStudyRow};
pub use faultmodel::{
    predict_campaign, spread_widening, storm_stretched_secs, CampaignPrediction, FaultModel,
};
pub use grid::{simulate_grid_sharded, GridSimConfig, GridSimResult, TenantSpec};

pub use experiment::{
    dedicated_check, platform1_experiment, platform2_experiment, platform2_experiment_with_faults,
    run_series, DedicatedCheck, DegradationStats, ExperimentConfig, ExperimentSeries,
    FaultedSeries, RunRecord,
};
// tidy:allow(PP011): the surface tests/horizon_oracle.rs replays as its oracle
pub use experiment::{
    platform1_experiment_with_faults, platform2_experiment_supervised, run_series_faulted,
    run_series_supervised, SupervisedSeries,
};
pub use predictor::{
    predict_dedicated, LoadSource, LoadView, Prediction, PredictorConfig, PredictorError,
    SorPredictor,
};
pub use scheduler::{
    allocate_units, decompose, planned_completion, AllocationPolicy, DecompositionPolicy,
};
pub use supervisor::{
    solve_supervised, BreakerState, CircuitBreaker, RecoveryStats, RetryPolicy, SolveRecovery,
    Supervisor,
};
pub use sweep::{
    platform1_fault_sweep, platform1_seed_sweep, platform2_fault_sweep, platform2_seed_sweep,
    FaultStudyRow, SweepSummary,
};
