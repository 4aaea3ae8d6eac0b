//! # prodpred-structural
//!
//! Structural performance models (Schopf '97), extended with stochastic
//! parameters per the paper's Section 2.2: "Structural models are composed
//! of component models and equations representing their interactions.
//! ... By parameterizing such models with stochastic values, we can
//! calculate performance predictions which are also stochastic values."
//!
//! * [`param`] — point/stochastic model parameters with their sources,
//! * [`component`] — the recursive component-model expression algebra,
//! * [`comm`] — the `PtToPt` / `SendLR` / `ReceLR` communication models,
//! * [`comp`] — operation-count and benchmark computation models, with the
//!   production `Comp / load` form,
//! * [`sor_model`] — the full Red-Black SOR `ExTime` model,
//! * [`mod@degrade`] — the fault-degradation terms applied on top of a
//!   healthy prediction (slowdown, delay, spread widening).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod comm;
pub mod comp;
pub mod component;
pub mod degrade;
pub mod param;
pub mod sor_model;
pub mod validate;

pub use comm::PtToPtModel;
pub use component::Component;
pub use degrade::{degrade, degrade_point, DegradationTerms};
pub use param::Param;
pub use sor_model::{PhaseBreakdown, ProcessorInputs, SorModelInputs, SorStructuralModel};
pub use validate::{monte_carlo, monte_carlo_par, McResult};
// tidy:allow(PP011): monte_carlo_par's chunk size; tests/parallel_determinism.rs crosses its boundaries
pub use validate::MC_CHUNK;
