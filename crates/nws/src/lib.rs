//! # prodpred-nws
//!
//! A from-scratch clone of the Network Weather Service (Wolski et al.),
//! the dynamic-information substrate the paper's experiments depend on:
//! "The dynamic load data needed for our experiments was supplied by the
//! Network Weather Service ... accurate run-time information about the CPU
//! load on our machines as well as the variance of those values at
//! 5 second intervals."
//!
//! Components:
//!
//! * [`sensor::Sensor`] — periodic samplers of simulated resource traces,
//!   each keeping the forecaster tournament's running scores so a load
//!   query costs O(strategies), not a walk over the history,
//! * [`series::TimeSeries`] — bounded per-resource measurement history,
//! * [`forecast`] — the NWS's strategy ensemble (persistence, means,
//!   medians, exponential smoothing) with adaptive best-of-MSE selection,
//! * [`service::NwsService`] — the facade that turns sensor histories into
//!   `mean ± 2σ` stochastic values for CPU availability and bandwidth,
//!   with fault-aware queries ([`service::QuerySummary`]) that degrade
//!   gracefully (forecast → window statistics → last-known value,
//!   spreads widened with measurement staleness) instead of failing,
//! * [`snapshot::ForecastSnapshot`] — the full query surface frozen at
//!   one instant, bit-identical to the live service, for epoch-published
//!   prediction serving (readers never touch a sensor lock).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Public-facing code returns typed errors instead of unwrapping; tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod forecast;
pub mod sensor;
pub mod series;
pub mod service;
pub mod snapshot;

pub use forecast::{AdaptiveForecaster, Forecast, Forecaster, Scoreboard};
// tidy:allow(PP011): the sensor NwsService polls; tests/serialization.rs drives one alone
pub use sensor::Sensor;
pub use series::TimeSeries;
pub use service::{NwsConfig, NwsService, QueryError, QueryMode, QuerySummary, SpreadPolicy};
pub use snapshot::{ForecastSnapshot, HorizonBasis, MachineSnapshot};
