//! Arithmetic over stochastic values (paper Section 2.3, Table 2).
//!
//! Two regimes exist for every binary combination:
//!
//! * **Related** distributions — "a causal connection between their values"
//!   (heavy traffic lowers bandwidth *and* raises latency). Combination is
//!   conservative: half-widths add.
//! * **Unrelated** distributions — independent quantities. Combination uses
//!   probability-based square-root (RSS) error propagation.
//!
//! Point values are the degenerate case and combine exactly (Table 2 row 1).
//!
//! Operator overloads (`+`, `-`, `*`, `/`) are provided and use the
//! **unrelated** rules, the standard independence assumption; call the
//! `*_related` methods when a causal connection exists.
//!
//! ```
//! use prodpred_stochastic::{Dependence, StochasticValue};
//!
//! let latency = StochasticValue::new(0.002, 0.0005);
//! let transfer = StochasticValue::new(0.125, 0.031);
//! // Heavy traffic raises both: combine conservatively.
//! let comm = latency.add(&transfer, Dependence::Related);
//! assert!((comm.mean() - 0.127).abs() < 1e-12);
//! assert!((comm.half_width() - 0.0315).abs() < 1e-12);
//! // Independent quantities combine in quadrature (narrower).
//! let indep = latency.add(&transfer, Dependence::Unrelated);
//! assert!(indep.half_width() < comm.half_width());
//! ```

mod add;
mod group;
mod mul;

pub use group::{max_of, min_of, MaxStrategy};

use crate::value::StochasticValue;
use serde::{Deserialize, Serialize};

/// Whether two stochastic values' distributions are causally connected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dependence {
    /// Causally connected; combine conservatively (half-widths add).
    Related,
    /// Independent; combine by root-sum-of-squares error propagation.
    Unrelated,
}

impl StochasticValue {
    /// `(X ± a) + (Y ± b)` under the given dependence assumption.
    pub fn add(&self, other: &StochasticValue, dep: Dependence) -> StochasticValue {
        match dep {
            Dependence::Related => add::add_related(self, other),
            Dependence::Unrelated => add::add_unrelated(self, other),
        }
    }

    /// Unrelated addition: `sum X_i ± sqrt(sum a_i^2)` (Table 2, row 3).
    pub(crate) fn add_unrelated(&self, other: &StochasticValue) -> StochasticValue {
        add::add_unrelated(self, other)
    }

    /// `(X ± a) - (Y ± b)`: "subtraction ... would have the same form as
    /// addition, only with a negative value for one of the X_i".
    pub(crate) fn sub(&self, other: &StochasticValue, dep: Dependence) -> StochasticValue {
        self.add(&other.neg(), dep)
    }

    /// `(X ± a) * (Y ± b)` under the given dependence assumption.
    pub fn mul(&self, other: &StochasticValue, dep: Dependence) -> StochasticValue {
        match dep {
            Dependence::Related => mul::mul_related(self, other),
            Dependence::Unrelated => mul::mul_unrelated(self, other),
        }
    }

    /// Unrelated multiplication:
    /// `X_i X_j ± |X_i X_j| sqrt((a_i/X_i)^2 + (a_j/X_j)^2)` (Table 2, row 3),
    /// with the paper's zero rule: a zero mean on either side makes the
    /// product the zero point value.
    pub(crate) fn mul_unrelated(&self, other: &StochasticValue) -> StochasticValue {
        mul::mul_unrelated(self, other)
    }

    /// Division as multiplication by the reciprocal (paper footnote 5).
    ///
    /// Uses the first-order reciprocal `recip` rather than
    /// the footnote's literal `Y^-1 ± b^-1`, which explodes as `b -> 0`
    /// (DESIGN.md).
    pub fn div(&self, other: &StochasticValue, dep: Dependence) -> StochasticValue {
        self.mul(&other.recip(), dep)
    }

    /// First-order reciprocal: `(Y ± b)^-1 = Y^-1 ± b/Y^2`. This preserves
    /// the *relative* half-width, consistent with Table 2's unrelated
    /// multiplication rule.
    ///
    /// # Panics
    ///
    /// Panics if the mean is zero.
    pub(crate) fn recip(&self) -> StochasticValue {
        mul::recip(self)
    }
}

impl std::ops::Add for StochasticValue {
    type Output = StochasticValue;
    fn add(self, rhs: StochasticValue) -> StochasticValue {
        self.add_unrelated(&rhs)
    }
}

impl std::ops::Sub for StochasticValue {
    type Output = StochasticValue;
    fn sub(self, rhs: StochasticValue) -> StochasticValue {
        StochasticValue::sub(&self, &rhs, Dependence::Unrelated)
    }
}

impl std::ops::Mul for StochasticValue {
    type Output = StochasticValue;
    fn mul(self, rhs: StochasticValue) -> StochasticValue {
        self.mul_unrelated(&rhs)
    }
}

impl std::ops::Div for StochasticValue {
    type Output = StochasticValue;
    fn div(self, rhs: StochasticValue) -> StochasticValue {
        StochasticValue::div(&self, &rhs, Dependence::Unrelated)
    }
}

impl std::ops::Add<f64> for StochasticValue {
    type Output = StochasticValue;
    fn add(self, rhs: f64) -> StochasticValue {
        self.shift(rhs)
    }
}

impl std::ops::Sub<f64> for StochasticValue {
    type Output = StochasticValue;
    fn sub(self, rhs: f64) -> StochasticValue {
        self.shift(-rhs)
    }
}

impl std::ops::Mul<f64> for StochasticValue {
    type Output = StochasticValue;
    fn mul(self, rhs: f64) -> StochasticValue {
        self.scale(rhs)
    }
}

impl std::ops::Div<f64> for StochasticValue {
    type Output = StochasticValue;
    fn div(self, rhs: f64) -> StochasticValue {
        assert!(rhs != 0.0, "division of a stochastic value by point zero"); // tidy:allow(PP004): exact zero divisor guard
        self.scale(1.0 / rhs)
    }
}

impl std::ops::Neg for StochasticValue {
    type Output = StochasticValue;
    fn neg(self) -> StochasticValue {
        StochasticValue::neg(&self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operator_overloads_use_unrelated_rules() {
        let a = StochasticValue::new(10.0, 3.0);
        let b = StochasticValue::new(20.0, 4.0);
        let s = a + b;
        assert_eq!(s.mean(), 30.0);
        assert!((s.half_width() - 5.0).abs() < 1e-12); // sqrt(9+16)
        let d = a - b;
        assert_eq!(d.mean(), -10.0);
        assert!((d.half_width() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn point_operators() {
        let a = StochasticValue::new(10.0, 2.0);
        assert_eq!((a + 5.0).mean(), 15.0);
        assert_eq!((a + 5.0).half_width(), 2.0);
        assert_eq!((a * 3.0).mean(), 30.0);
        assert_eq!((a * 3.0).half_width(), 6.0);
        assert_eq!((a / 2.0).mean(), 5.0);
        assert_eq!((a / 2.0).half_width(), 1.0);
        assert_eq!((-a).mean(), -10.0);
    }

    #[test]
    fn related_at_least_as_wide_as_unrelated() {
        let a = StochasticValue::new(5.0, 2.0);
        let b = StochasticValue::new(7.0, 3.0);
        let rel = Dependence::Related;
        assert!(a.add(&b, rel).half_width() >= a.add_unrelated(&b).half_width());
        assert!(a.mul(&b, rel).half_width() >= a.mul_unrelated(&b).half_width());
    }
}
