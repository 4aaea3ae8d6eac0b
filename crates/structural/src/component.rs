//! The component-model algebra.
//!
//! "Structural models are composed of component models and equations
//! representing their interactions. Component models are defined (possibly
//! recursively) as combinations of model parameters ... and/or other
//! component models" (paper Section 2.2). [`Component`] is that recursive
//! definition as an expression tree; evaluation folds the tree with the
//! stochastic-value arithmetic of Table 2.

use crate::param::Param;
use prodpred_stochastic::{max_of, min_of, Dependence, MaxStrategy, StochasticValue};

/// A component model: an expression over parameters and sub-components.
#[derive(Debug, Clone)]
pub enum Component {
    /// A leaf parameter.
    Param(Param),
    /// Sum of sub-components under a dependence assumption.
    Sum(Vec<Component>, Dependence),
    /// Product of sub-components under a dependence assumption.
    Product(Vec<Component>, Dependence),
    /// Quotient of two sub-components.
    Quotient(Box<Component>, Box<Component>, Dependence),
    /// Point scaling.
    Scale(f64, Box<Component>),
    /// Group maximum under a strategy (paper Section 2.3.3).
    Max(Vec<Component>, MaxStrategy),
    /// Group minimum under a strategy.
    Min(Vec<Component>, MaxStrategy),
}

impl Component {
    /// A point-parameter leaf.
    pub fn point(v: f64) -> Self {
        Component::Param(Param::point(v))
    }

    /// A stochastic-parameter leaf.
    pub fn stochastic(v: StochasticValue) -> Self {
        Component::Param(Param::stochastic(v))
    }

    /// Evaluates the tree to a stochastic value.
    ///
    /// # Panics
    ///
    /// Panics on an empty `Sum`/`Product`/`Max`/`Min`, or division by a
    /// zero-mean component (propagated from the arithmetic layer).
    pub fn evaluate(&self) -> StochasticValue {
        match self {
            Component::Param(p) => p.value(),
            Component::Sum(parts, dep) => {
                assert!(!parts.is_empty(), "empty Sum component");
                parts
                    .iter()
                    .map(Component::evaluate)
                    .reduce(|a, b| a.add(&b, *dep))
                    .expect("non-empty") // tidy:allow(PP003): Sum nodes are built with at least one child
            }
            Component::Product(parts, dep) => {
                assert!(!parts.is_empty(), "empty Product component");
                parts
                    .iter()
                    .map(Component::evaluate)
                    .reduce(|a, b| a.mul(&b, *dep))
                    .expect("non-empty") // tidy:allow(PP003): Product nodes are built with at least one child
            }
            Component::Quotient(num, den, dep) => num.evaluate().div(&den.evaluate(), *dep),
            Component::Scale(c, inner) => inner.evaluate().scale(*c),
            Component::Max(parts, strategy) => {
                assert!(!parts.is_empty(), "empty Max component");
                let vals: Vec<StochasticValue> = parts.iter().map(Component::evaluate).collect();
                max_of(&vals, *strategy)
            }
            Component::Min(parts, strategy) => {
                assert!(!parts.is_empty(), "empty Min component");
                let vals: Vec<StochasticValue> = parts.iter().map(Component::evaluate).collect();
                min_of(&vals, *strategy)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_evaluation() {
        let c = Component::point(4.0);
        assert_eq!(c.evaluate().mean(), 4.0);
        assert!(c.evaluate().is_point());
    }

    #[test]
    fn latency_plus_bandwidth_model() {
        // Comm = Latency + MsgSize / Bandwidth (the paper's §2.3.1 example).
        let comm = Component::Sum(
            vec![
                Component::stochastic(StochasticValue::new(0.002, 0.0005)),
                Component::Quotient(
                    Box::new(Component::point(1.0e6)),
                    Box::new(Component::stochastic(StochasticValue::new(8.0e6, 2.0e6))),
                    Dependence::Related,
                ),
            ],
            Dependence::Related,
        );
        let v = comm.evaluate();
        assert!((v.mean() - (0.002 + 0.125)).abs() < 1e-9);
        assert!(!v.is_point());
        // Related sum: widths add.
        let bw_rel = 2.0 / 8.0;
        assert!((v.half_width() - (0.0005 + 0.125 * bw_rel)).abs() < 1e-9);
    }

    #[test]
    fn recursive_max_of_sums() {
        let make_proc = |comp: f64, comm: f64, width: f64| {
            Component::Sum(
                vec![
                    Component::stochastic(StochasticValue::new(comp, width)),
                    Component::point(comm),
                ],
                Dependence::Unrelated,
            )
        };
        let model = Component::Max(
            vec![
                make_proc(10.0, 1.0, 0.5),
                make_proc(12.0, 1.0, 2.0),
                make_proc(8.0, 1.0, 0.1),
            ],
            MaxStrategy::ByMean,
        );
        let v = model.evaluate();
        assert_eq!(v.mean(), 13.0);
        assert_eq!(v.half_width(), 2.0);
    }

    #[test]
    fn scale_component() {
        let c = Component::Scale(
            3.0,
            Box::new(Component::stochastic(StochasticValue::new(2.0, 0.5))),
        );
        let v = c.evaluate();
        assert_eq!(v.mean(), 6.0);
        assert_eq!(v.half_width(), 1.5);
    }

    #[test]
    fn min_component() {
        let c = Component::Min(
            vec![Component::point(5.0), Component::point(3.0)],
            MaxStrategy::ByMean,
        );
        assert_eq!(c.evaluate().mean(), 3.0);
    }

    #[test]
    #[should_panic]
    fn empty_sum_panics() {
        Component::Sum(vec![], Dependence::Related).evaluate();
    }
}
