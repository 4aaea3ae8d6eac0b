//! Model parameters: point values or stochastic values.
//!
//! "Model parameters may be point values, such as NumElt and Size(Elt), or
//! stochastic values, such as BW(x, y). ... the parameter values can be
//! computed either at compile-time or run-time" (paper Section 2.2.1).

use prodpred_stochastic::StochasticValue;
use serde::{Deserialize, Serialize};
use std::fmt;

/// When a parameter's value is determined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) enum ParamSource {
    /// Known statically (compile time): element sizes, operation counts,
    /// dedicated bandwidth.
    Static,
    /// Measured at run time: CPU availability, available bandwidth.
    Runtime,
}

/// A model parameter: a point value or a stochastic value, tagged with its
/// source.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Param {
    value: StochasticValue,
    source: ParamSource,
}

impl Param {
    /// A static point parameter.
    pub fn point(v: f64) -> Self {
        Self {
            value: StochasticValue::point(v),
            source: ParamSource::Static,
        }
    }

    /// A runtime stochastic parameter.
    pub fn stochastic(v: StochasticValue) -> Self {
        Self {
            value: v,
            source: ParamSource::Runtime,
        }
    }

    /// The underlying stochastic value (a point value is "a stochastic
    /// value in which the probability of X is 1" — footnote 1).
    pub fn value(&self) -> StochasticValue {
        self.value
    }

    /// Collapses the parameter to its mean — what a conventional
    /// point-valued model would use.
    pub(crate) fn to_point(self) -> Param {
        Self {
            value: StochasticValue::point(self.value.mean()),
            source: self.source,
        }
    }
}

impl From<f64> for Param {
    fn from(v: f64) -> Self {
        Param::point(v)
    }
}

impl From<StochasticValue> for Param {
    fn from(v: StochasticValue) -> Self {
        Param::stochastic(v)
    }
}

impl fmt::Display for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Param {
        /// Whether this is a point value.
        pub(crate) fn is_point(&self) -> bool {
            self.value.is_point()
        }
    }

    #[test]
    fn point_param() {
        let p = Param::point(8.0);
        assert!(p.is_point());
        assert_eq!(p.value().mean(), 8.0);
        assert_eq!(p.source, ParamSource::Static);
    }

    #[test]
    fn stochastic_param() {
        let p = Param::stochastic(StochasticValue::new(0.48, 0.05));
        assert!(!p.is_point());
        assert_eq!(p.source, ParamSource::Runtime);
    }

    #[test]
    fn to_point_collapses_width() {
        let p = Param::stochastic(StochasticValue::new(5.0, 2.0));
        let q = p.to_point();
        assert!(q.is_point());
        assert_eq!(q.value().mean(), 5.0);
        assert_eq!(q.source, ParamSource::Runtime);
    }

    #[test]
    fn conversions() {
        let a: Param = 3.0.into();
        assert!(a.is_point());
        let b: Param = StochasticValue::new(1.0, 0.5).into();
        assert!(!b.is_point());
    }
}
