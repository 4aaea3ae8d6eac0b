//! # prodpred-stochastic
//!
//! Stochastic values and the statistics machinery behind *Performance
//! Prediction in Production Environments* (Schopf & Berman, IPPS/SPDP '98).
//!
//! A **stochastic value** represents a system or application characteristic
//! as a distribution summarized as `mean ± 2σ`, instead of a single point
//! value. This crate provides:
//!
//! * [`StochasticValue`] — the central type, with the paper's Table-2
//!   arithmetic (related/unrelated addition and multiplication, division by
//!   reciprocal, point-value degeneration) in [`ops`],
//! * group operations ([`ops::max_of`], [`ops::min_of`]) with the paper's
//!   selection policies plus Clark's approximation and Monte Carlo,
//! * distribution families in [`dist`] — normal, lognormal/long-tailed,
//!   and empirical distributions with KS goodness-of-fit,
//! * fitting and regime classification in [`fit`] — normal fits, KDE, and
//!   the mode detector that reproduces the paper's Figure-5 analysis,
//! * accuracy metrics in [`coverage`] — interval coverage and the paper's
//!   footnote-6 out-of-range error,
//! * plain statistics in [`stats`] and histograms in [`histogram`].
//!
//! ## Quick example
//!
//! ```
//! use prodpred_stochastic::{Dependence, StochasticValue};
//!
//! // Communication time = message / bandwidth, both uncertain:
//! let message = StochasticValue::point(1.0e6); // bytes, known exactly
//! let bandwidth = StochasticValue::new(8.0e6, 2.0e6); // B/s, ± 2 MB/s
//! let time = message.div(&bandwidth, Dependence::Unrelated);
//! assert!((time.mean() - 0.125).abs() < 1e-9);
//! assert!(!time.is_point());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod coverage;
pub mod dist;
pub mod fit;
pub mod histogram;
pub mod ops;
pub(crate) mod special;
pub mod stats;
mod value;

pub use coverage::{calibration_curve, AccuracyReport, Observation};
pub use dist::{Distribution, Empirical, LogNormal, LongTailed, Normal, TailDirection};
pub use histogram::Histogram;
pub use ops::{max_of, min_of, Dependence, MaxStrategy};
pub use stats::Summary;
pub use value::StochasticValue;
