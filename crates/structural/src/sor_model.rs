//! The full structural model for distributed Red-Black SOR
//! (paper Section 2.2.1):
//!
//! ```text
//! ExTime = sum_{i=1}^{NumIts} [ Max_p{RedComp_p} + Max_p{RedComm_p}
//!                             + Max_p{BlackComp_p} + Max_p{BlackComm_p} ]
//! ```
//!
//! Each per-processor component is built from the models in [`crate::comm`]
//! and [`crate::comp`]; the `Max` over processors uses a configurable
//! strategy (Section 2.3.3), and parameters may be point or stochastic
//! values — producing point or stochastic predictions respectively.

use crate::comm::{phase_comm, Neighbours, PtToPtModel};
use crate::comp::{phase_comp, BenchmarkModel};
use crate::param::Param;
use prodpred_stochastic::{max_of, Dependence, MaxStrategy, StochasticValue};
use serde::{Deserialize, Serialize};

/// Per-processor inputs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ProcessorInputs {
    /// `NumElt_p`: total grid elements owned by the processor.
    pub elements: f64,
    /// `BM(Elt_p)`: benchmarked seconds per element (dedicated).
    pub bm_secs_per_elt: Param,
    /// CPU availability (1.0 for dedicated; stochastic from the NWS in
    /// production).
    pub load: Param,
}

/// The SOR structural model's inputs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SorModelInputs {
    /// Grid dimension `N`.
    pub n: usize,
    /// `NumIts`: red+black iterations.
    pub iterations: usize,
    /// Per-processor characteristics, in strip order.
    pub procs: Vec<ProcessorInputs>,
    /// The shared-segment transfer model.
    pub network: PtToPtModel,
    /// Strategy for the `Max` over processors.
    pub max_strategy: MaxStrategy,
    /// Dependence when summing the four phase terms. Phases share the
    /// machines and the segment, so `Related` is the faithful default.
    pub phase_dependence: Dependence,
}

/// The four per-iteration phase maxima, useful for diagnosis.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// `Max_p RedComp_p`.
    pub red_comp: StochasticValue,
    /// `Max_p RedComm_p`.
    pub red_comm: StochasticValue,
    /// `Max_p BlackComp_p`.
    pub black_comp: StochasticValue,
    /// `Max_p BlackComm_p`.
    pub black_comm: StochasticValue,
}

impl PhaseBreakdown {
    /// One iteration's time: the sum of the four phase maxima.
    pub(crate) fn iteration_time(&self, dep: Dependence) -> StochasticValue {
        self.red_comp
            .add(&self.red_comm, dep)
            .add(&self.black_comp, dep)
            .add(&self.black_comm, dep)
    }
}

/// The SOR structural model.
///
/// ```
/// use prodpred_stochastic::{Dependence, MaxStrategy, StochasticValue};
/// use prodpred_structural::{
///     Param, ProcessorInputs, PtToPtModel, SorModelInputs, SorStructuralModel,
/// };
///
/// // Two processors, one in the paper's 0.48 ± 0.05 load mode.
/// let inputs = SorModelInputs {
///     n: 1000,
///     iterations: 50,
///     procs: vec![
///         ProcessorInputs {
///             elements: 499_000.0,
///             bm_secs_per_elt: Param::point(2.0e-6),
///             load: Param::stochastic(StochasticValue::new(0.48, 0.05)),
///         },
///         ProcessorInputs {
///             elements: 499_000.0,
///             bm_secs_per_elt: Param::point(0.9e-6),
///             load: Param::point(0.94),
///         },
///     ],
///     network: PtToPtModel {
///         size_elt: 8.0,
///         ded_bw: Param::point(1.25e6),
///         bw_avail: Param::stochastic(StochasticValue::new(0.5, 0.08)),
///         latency: 1.0e-3,
///         dependence: Dependence::Related,
///     },
///     max_strategy: MaxStrategy::ByMean,
///     phase_dependence: Dependence::Related,
/// };
/// let model = SorStructuralModel::new(inputs);
/// let prediction = model.predict();
/// // The loaded Sparc-2 dominates: ~104 s of compute plus comm.
/// assert!(prediction.mean() > 100.0 && prediction.mean() < 125.0);
/// assert!(!prediction.is_point()); // stochastic in, stochastic out
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SorStructuralModel {
    inputs: SorModelInputs,
}

impl SorStructuralModel {
    /// Builds the model.
    ///
    /// # Panics
    ///
    /// Panics if there are no processors or no iterations.
    pub fn new(inputs: SorModelInputs) -> Self {
        assert!(!inputs.procs.is_empty(), "model needs processors");
        assert!(inputs.iterations > 0, "model needs iterations");
        Self { inputs }
    }

    /// The inputs.
    pub fn inputs(&self) -> &SorModelInputs {
        &self.inputs
    }

    /// Evaluates the four per-iteration phase maxima.
    pub(crate) fn phase_breakdown(&self) -> PhaseBreakdown {
        self.breakdown_with(self.comm_max())
    }

    /// `Max_p Comm_p`, the communication maximum of either colour. It
    /// reads only the network, `n`, the strip count and the strategy, so
    /// models that differ only in their processors' loads share it.
    pub fn comm_max(&self) -> StochasticValue {
        let inp = &self.inputs;
        let p = inp.procs.len();
        let ghost = Param::point(inp.n as f64);
        let comms: Vec<StochasticValue> = (0..p)
            .map(|i| phase_comm(&inp.network, Neighbours::of(i, p), ghost))
            .collect();
        max_of(&comms, inp.max_strategy)
    }

    /// The four phase maxima given the communication maximum `comm` —
    /// [`comm_max`](Self::comm_max) of this model or of one with the same
    /// network, `n`, strip count and strategy — evaluating only
    /// `Max_p Comp_p`.
    pub fn breakdown_with(&self, comm: StochasticValue) -> PhaseBreakdown {
        let inp = &self.inputs;
        let dep = inp.network.dependence;
        let comps: Vec<StochasticValue> = inp
            .procs
            .iter()
            .map(|proc| {
                let bm = BenchmarkModel {
                    bm_secs_per_elt: proc.bm_secs_per_elt,
                };
                phase_comp(&bm, proc.elements, proc.load, dep)
            })
            .collect();
        let comp = max_of(&comps, inp.max_strategy);
        // Red and black phases are structurally identical under constant
        // parameters; the model keeps the four-term form of the paper.
        PhaseBreakdown {
            red_comp: comp,
            red_comm: comm,
            black_comp: comp,
            black_comm: comm,
        }
    }

    /// The stochastic execution-time prediction: the `NumIts`-fold sum of
    /// the per-iteration time.
    pub fn predict(&self) -> StochasticValue {
        self.total_from(&self.phase_breakdown())
    }

    /// The execution time that `breakdown` — this model's
    /// [`phase_breakdown`](Self::phase_breakdown) — adds up to, for a
    /// caller that wants the maxima and the total without evaluating the
    /// maxima twice.
    pub fn total_from(&self, breakdown: &PhaseBreakdown) -> StochasticValue {
        let per_iter = breakdown.iteration_time(self.inputs.phase_dependence);
        // Sum of NumIts identical related terms: scale by the count.
        // (Under the related rule, sum_{i=1..k} (X ± a) = kX ± ka.)
        match self.inputs.phase_dependence {
            Dependence::Related => per_iter.scale(self.inputs.iterations as f64),
            Dependence::Unrelated => {
                // Means add linearly, widths in quadrature: k X ± sqrt(k) a.
                let k = self.inputs.iterations as f64;
                StochasticValue::new(per_iter.mean() * k, per_iter.half_width() * k.sqrt())
            }
        }
    }

    /// The conventional point prediction: every parameter collapsed to its
    /// mean.
    pub fn predict_point(&self) -> f64 {
        let mut collapsed = self.inputs.clone();
        for p in &mut collapsed.procs {
            p.bm_secs_per_elt = p.bm_secs_per_elt.to_point();
            p.load = p.load.to_point();
        }
        collapsed.network.bw_avail = collapsed.network.bw_avail.to_point();
        collapsed.network.ded_bw = collapsed.network.ded_bw.to_point();
        SorStructuralModel::new(collapsed).predict().mean()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Skew bound (paper Figure 7): "accumulating communication delays can
    /// create a kind of 'skew' which can delay execution of each iteration by
    /// the amount of at most P iterations". The worst-case extra delay is the
    /// per-iteration time times the processor count.
    pub(crate) fn skew_bound(per_iteration: StochasticValue, processors: usize) -> StochasticValue {
        assert!(processors > 0);
        per_iteration.scale(processors as f64)
    }

    impl SorStructuralModel {
        /// The model as an explicit [`Component`](crate::component::Component)
        /// expression tree — the paper's "structural models are composed of
        /// component models" form. The oracle for [`predict`](Self::predict):
        /// evaluating the tree reproduces it exactly:
        /// under the related rule the `NumIts`-fold sum is a `Scale` node;
        /// under the unrelated rule it is a literal sum of `NumIts` copies
        /// (whose widths combine in quadrature).
        pub(crate) fn to_component(&self) -> crate::component::Component {
            use crate::component::Component;
            let inp = &self.inputs;
            let p = inp.procs.len();
            let dep = inp.network.dependence;
            let ghost = Param::point(inp.n as f64);

            let comp_terms: Vec<Component> = inp
                .procs
                .iter()
                .map(|proc| {
                    Component::Quotient(
                        Box::new(Component::Product(
                            vec![
                                Component::point(proc.elements / 2.0),
                                Component::Param(proc.bm_secs_per_elt),
                            ],
                            dep,
                        )),
                        Box::new(Component::Param(proc.load)),
                        dep,
                    )
                })
                .collect();
            let comm_terms: Vec<Component> = (0..p)
                .map(|i| {
                    Component::Param(Param::stochastic(phase_comm(
                        &inp.network,
                        Neighbours::of(i, p),
                        ghost,
                    )))
                })
                .collect();

            let iteration = Component::Sum(
                vec![
                    Component::Max(comp_terms.clone(), inp.max_strategy),
                    Component::Max(comm_terms.clone(), inp.max_strategy),
                    Component::Max(comp_terms, inp.max_strategy),
                    Component::Max(comm_terms, inp.max_strategy),
                ],
                inp.phase_dependence,
            );
            match inp.phase_dependence {
                Dependence::Related => Component::Scale(inp.iterations as f64, Box::new(iteration)),
                Dependence::Unrelated => {
                    Component::Sum(vec![iteration; inp.iterations], Dependence::Unrelated)
                }
            }
        }
    }

    fn dedicated_inputs(n: usize, iterations: usize, p: usize) -> SorModelInputs {
        let elements = ((n - 2) * (n - 2)) as f64 / p as f64;
        SorModelInputs {
            n,
            iterations,
            procs: (0..p)
                .map(|_| ProcessorInputs {
                    elements,
                    bm_secs_per_elt: Param::point(0.9e-6),
                    load: Param::point(1.0),
                })
                .collect(),
            network: PtToPtModel {
                size_elt: 8.0,
                ded_bw: Param::point(1.25e6),
                bw_avail: Param::point(0.58),
                latency: 1.0e-3,
                dependence: Dependence::Related,
            },
            max_strategy: MaxStrategy::ByMean,
            phase_dependence: Dependence::Related,
        }
    }

    #[test]
    fn dedicated_prediction_is_point() {
        let m = SorStructuralModel::new(dedicated_inputs(1000, 10, 4));
        let v = m.predict();
        assert!(v.is_point(), "all-point inputs must give a point output");
        // Compute per phase for the max strip: 998*998/4/2 elements * 0.9us
        // = 0.1121 s; comm per phase for interior: 4 transfers of
        // (1000*8)/(0.58*1.25e6)+1ms = 12.03 ms -> 48.1 ms.
        // Iteration = 2*(0.1121 + 0.0481) = 0.3204; 10 iters ~ 3.2 s.
        assert!(v.mean() > 2.5 && v.mean() < 4.0, "mean {}", v.mean());
    }

    #[test]
    fn stochastic_load_produces_stochastic_prediction() {
        let mut inp = dedicated_inputs(1600, 50, 4);
        for p in &mut inp.procs {
            p.load = Param::stochastic(StochasticValue::new(0.48, 0.05));
        }
        let m = SorStructuralModel::new(inp);
        let v = m.predict();
        assert!(!v.is_point());
        // Relative width of the compute term survives into the total.
        assert!(v.percent().unwrap() > 3.0, "{v}");
        // The point prediction equals the stochastic mean here (collapse
        // of a reciprocal is mean-preserving in this first-order algebra).
        let pt = m.predict_point();
        assert!((pt - v.mean()).abs() / v.mean() < 1e-9);
    }

    #[test]
    fn production_slower_than_dedicated() {
        let ded = SorStructuralModel::new(dedicated_inputs(1000, 10, 4));
        let mut prod_inputs = dedicated_inputs(1000, 10, 4);
        for p in &mut prod_inputs.procs {
            p.load = Param::stochastic(StochasticValue::new(0.48, 0.05));
        }
        let prod = SorStructuralModel::new(prod_inputs);
        assert!(prod.predict().mean() > ded.predict().mean() * 1.5);
    }

    #[test]
    fn slowest_processor_dominates_max() {
        let mut inp = dedicated_inputs(1000, 10, 4);
        inp.procs[2].load = Param::stochastic(StochasticValue::new(0.25, 0.02));
        let m = SorStructuralModel::new(inp);
        let bd = m.phase_breakdown();
        // Max comp should reflect the slow processor: elements/2 * bm / 0.25.
        let expect = (998.0 * 998.0 / 4.0 / 2.0) * 0.9e-6 / 0.25;
        assert!((bd.red_comp.mean() - expect).abs() / expect < 1e-9);
    }

    #[test]
    fn more_iterations_scale_linearly_related() {
        let a = SorStructuralModel::new(dedicated_inputs(800, 10, 4));
        let b = SorStructuralModel::new(dedicated_inputs(800, 20, 4));
        assert!((b.predict().mean() / a.predict().mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn unrelated_iterations_grow_width_as_sqrt() {
        let mut inp = dedicated_inputs(800, 16, 4);
        for p in &mut inp.procs {
            p.load = Param::stochastic(StochasticValue::new(0.5, 0.05));
        }
        inp.phase_dependence = Dependence::Unrelated;
        let v16 = SorStructuralModel::new(inp.clone()).predict();
        inp.iterations = 64;
        let v64 = SorStructuralModel::new(inp).predict();
        // 4x iterations -> 4x mean, 2x width.
        assert!((v64.mean() / v16.mean() - 4.0).abs() < 1e-9);
        assert!((v64.half_width() / v16.half_width() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn phase_breakdown_sums_to_iteration() {
        let m = SorStructuralModel::new(dedicated_inputs(500, 5, 3));
        let bd = m.phase_breakdown();
        let it = bd.iteration_time(Dependence::Related);
        let total = m.predict();
        assert!((it.mean() * 5.0 - total.mean()).abs() < 1e-9);
    }

    #[test]
    fn component_tree_reproduces_direct_evaluation() {
        for dep in [Dependence::Related, Dependence::Unrelated] {
            let mut inp = dedicated_inputs(900, 12, 4);
            inp.phase_dependence = dep;
            for p in &mut inp.procs {
                p.load = Param::stochastic(StochasticValue::new(0.48, 0.05));
            }
            inp.network.bw_avail = Param::stochastic(StochasticValue::new(0.5, 0.08));
            let model = SorStructuralModel::new(inp);
            let direct = model.predict();
            let tree = model.to_component().evaluate();
            assert!(
                (direct.mean() - tree.mean()).abs() < 1e-9 * direct.mean(),
                "{dep:?}: mean {} vs {}",
                direct.mean(),
                tree.mean()
            );
            assert!(
                (direct.half_width() - tree.half_width()).abs()
                    < 1e-9 * direct.half_width().max(1.0),
                "{dep:?}: width {} vs {}",
                direct.half_width(),
                tree.half_width()
            );
        }
    }

    #[test]
    fn skew_bound_scales_with_processors() {
        let per_iter = StochasticValue::new(0.3, 0.05);
        let b = skew_bound(per_iter, 4);
        assert!((b.mean() - 1.2).abs() < 1e-12);
        assert!((b.half_width() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_procs() {
        let mut inp = dedicated_inputs(100, 1, 1);
        inp.procs.clear();
        SorStructuralModel::new(inp);
    }
}
