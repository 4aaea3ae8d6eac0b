//! Computation component models (paper Section 2.2.1).
//!
//! Two standard estimates of per-strip computation time:
//!
//! ```text
//! Comp_p1 = NumElt_p * Op(p, Elt) * CPU_p     (operation counting)
//! Comp_p2 = NumElt_p * BM(Elt_p)              (benchmarking)
//! ```
//!
//! and the production form the experiments use — benchmark time divided by
//! the measured CPU availability:
//!
//! ```text
//! RedComp_p = Comp_p2 / load    BlackComp_p = Comp_p2 / load
//! ```

use crate::param::Param;
use prodpred_stochastic::{Dependence, StochasticValue};
use serde::{Deserialize, Serialize};

/// Benchmark computation model (`Comp_p2`).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub(crate) struct BenchmarkModel {
    /// `BM(Elt_p)`: benchmarked seconds per element on processor `p`.
    pub bm_secs_per_elt: Param,
}

impl BenchmarkModel {
    /// Dedicated computation time for `num_elt` elements.
    pub fn dedicated(&self, num_elt: Param, dep: Dependence) -> StochasticValue {
        num_elt.value().mul(&self.bm_secs_per_elt.value(), dep)
    }

    /// Production computation time: dedicated time divided by the CPU
    /// availability ("For CPU load we used measurements supplied by the
    /// Network Weather Service that indicated the percentage of CPU
    /// available to execute the application").
    pub(crate) fn production(
        &self,
        num_elt: Param,
        load: Param,
        dep: Dependence,
    ) -> StochasticValue {
        self.dedicated(num_elt, dep).div(&load.value(), dep)
    }
}

/// One phase's computation component for processor `p`: half the strip's
/// elements have each colour, so `RedComp_p = (elements/2) * BM / load`.
pub(crate) fn phase_comp(
    bm: &BenchmarkModel,
    strip_elements: f64,
    load: Param,
    dep: Dependence,
) -> StochasticValue {
    bm.production(Param::point(strip_elements / 2.0), load, dep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_dedicated_scales() {
        let bm = BenchmarkModel {
            bm_secs_per_elt: Param::point(2.0e-6),
        };
        let v = bm.dedicated(Param::point(1.0e6), Dependence::Unrelated);
        assert!(v.is_point());
        assert!((v.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn production_divides_by_load() {
        let bm = BenchmarkModel {
            bm_secs_per_elt: Param::point(1.0e-6),
        };
        let load = Param::stochastic(StochasticValue::new(0.48, 0.05));
        let v = bm.production(Param::point(1.0e6), load, Dependence::Unrelated);
        // Mean: 1 s / 0.48 = 2.083 s.
        assert!((v.mean() - 1.0 / 0.48).abs() < 1e-9);
        // Relative width preserved through the reciprocal: 0.05/0.48.
        let rel = v.half_width() / v.mean();
        assert!((rel - 0.05 / 0.48).abs() < 1e-9);
    }

    #[test]
    fn phase_comp_halves_elements() {
        let bm = BenchmarkModel {
            bm_secs_per_elt: Param::point(1.0e-6),
        };
        let full = bm.production(
            Param::point(1.0e6),
            Param::point(1.0),
            Dependence::Unrelated,
        );
        let phase = phase_comp(&bm, 1.0e6, Param::point(1.0), Dependence::Unrelated);
        assert!((phase.mean() * 2.0 - full.mean()).abs() < 1e-12);
    }

    #[test]
    fn stochastic_benchmark_widens_result() {
        // Benchmarks themselves can be stochastic values (Figure 1!).
        let bm = BenchmarkModel {
            bm_secs_per_elt: Param::stochastic(StochasticValue::from_percent(1.0e-6, 10.0)),
        };
        let v = bm.dedicated(Param::point(1.0e6), Dependence::Unrelated);
        assert!(!v.is_point());
        assert!((v.percent().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn lower_load_means_longer_time() {
        let bm = BenchmarkModel {
            bm_secs_per_elt: Param::point(1.0e-6),
        };
        let busy = phase_comp(
            &bm,
            1.0e6,
            Param::stochastic(StochasticValue::new(0.25, 0.02)),
            Dependence::Unrelated,
        );
        let quiet = phase_comp(
            &bm,
            1.0e6,
            Param::stochastic(StochasticValue::new(0.9, 0.02)),
            Dependence::Unrelated,
        );
        assert!(busy.mean() > quiet.mean() * 3.0);
    }
}
