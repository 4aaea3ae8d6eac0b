//! Communication component models (paper Section 2.2.1).
//!
//! ```text
//! RedComm_p   = SendLR_p + ReceLR_p
//! BlackComm_p = SendLR_p + ReceLR_p
//! SendLR_p    = PtToPt(p, p+1) + PtToPt(p, p-1)
//! ReceLR_p    = PtToPt(p+1, p) + PtToPt(p-1, p)
//! PtToPt(x,y) = NumElt * Size(Elt) / (BWAvail * DedBW(x, y))   [+ latency]
//! ```
//!
//! (The published text's fraction is typeset ambiguously; the
//! dimensionally consistent reading — bytes over effective bytes/second —
//! is implemented, with an optional per-message latency term.)

use crate::param::Param;
use prodpred_stochastic::{Dependence, StochasticValue};
use serde::{Deserialize, Serialize};

/// Parameters of the point-to-point transfer model, shared across a
/// homogeneous segment (the paper's 10 Mbit ethernet).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PtToPtModel {
    /// `Size(Elt)`: bytes per element (point value, compile-time).
    pub size_elt: f64,
    /// `DedBW`: dedicated bandwidth in bytes/second (point value,
    /// measured statically).
    pub ded_bw: Param,
    /// `BWAvail`: fraction of dedicated bandwidth available at run time
    /// (stochastic, from the NWS).
    pub bw_avail: Param,
    /// Per-message latency in seconds (point value).
    pub latency: f64,
    /// Dependence assumption when combining transfer terms. The paper
    /// notes bandwidth-related quantities are *related* (heavy traffic
    /// moves them together), so `Related` is the conservative default.
    pub dependence: Dependence,
}

impl PtToPtModel {
    /// Transfer-time component for a message of `num_elt` elements:
    /// `latency + num_elt * size / (bw_avail * ded_bw)`.
    pub(crate) fn pt_to_pt(&self, num_elt: Param) -> StochasticValue {
        let bytes = num_elt.value().scale(self.size_elt);
        let eff_bw = self
            .bw_avail
            .value()
            .mul(&self.ded_bw.value(), self.dependence);
        bytes.div(&eff_bw, self.dependence).shift(self.latency)
    }
}

/// The position of a processor in the strip chain determines its
/// neighbour count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Neighbours {
    /// Has a strip above (processor `p - 1`).
    pub up: bool,
    /// Has a strip below (processor `p + 1`).
    pub down: bool,
}

impl Neighbours {
    /// Neighbour layout for processor `p` of `n_procs` in a chain.
    pub fn of(p: usize, n_procs: usize) -> Self {
        assert!(p < n_procs);
        Self {
            up: p > 0,
            down: p + 1 < n_procs,
        }
    }
}

/// Per-processor, per-phase communication component:
/// `SendLR_p + ReceLR_p`, each a sum of the point-to-point transfers with
/// the processor's chain neighbours.
///
/// `ghost_elems` is the elements per ghost-row message (`N` for an
/// `N x N` grid).
pub(crate) fn phase_comm(
    model: &PtToPtModel,
    neighbours: Neighbours,
    ghost_elems: Param,
) -> StochasticValue {
    let mut terms: Vec<StochasticValue> = Vec::with_capacity(4);
    // SendLR: PtToPt(p, p+1) + PtToPt(p, p-1).
    if neighbours.down {
        terms.push(model.pt_to_pt(ghost_elems));
    }
    if neighbours.up {
        terms.push(model.pt_to_pt(ghost_elems));
    }
    // ReceLR: PtToPt(p+1, p) + PtToPt(p-1, p).
    if neighbours.down {
        terms.push(model.pt_to_pt(ghost_elems));
    }
    if neighbours.up {
        terms.push(model.pt_to_pt(ghost_elems));
    }
    if terms.is_empty() {
        return StochasticValue::point(0.0);
    }
    terms
        .into_iter()
        .reduce(|a, b| a.add(&b, model.dependence))
        .expect("non-empty") // tidy:allow(PP003): terms always contains the latency term
}

/// Generic per-phase communication component: the sum of the point-to-
/// point transfers for an arbitrary set of messages (element counts).
/// Covers non-strip layouts — a 2D block exchanges row segments with
/// vertical neighbours and column segments with horizontal ones.
// tidy:allow(PP011): oracle for sor::simulate_blocks, in tests/block_decomposition.rs
pub fn phase_comm_messages(model: &PtToPtModel, message_elements: &[f64]) -> StochasticValue {
    if message_elements.is_empty() {
        return StochasticValue::point(0.0);
    }
    message_elements
        .iter()
        .map(|&e| model.pt_to_pt(Param::point(e)))
        .reduce(|a, b| a.add(&b, model.dependence))
        .expect("non-empty") // tidy:allow(PP003): callers pass at least one element count
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Neighbours {
        /// Number of neighbours (0, 1, or 2).
        pub fn count(&self) -> usize {
            usize::from(self.up) + usize::from(self.down)
        }
    }

    fn model() -> PtToPtModel {
        PtToPtModel {
            size_elt: 8.0,
            ded_bw: Param::point(1.25e6),
            bw_avail: Param::stochastic(StochasticValue::new(0.5, 0.1)),
            latency: 1.0e-3,
            dependence: Dependence::Related,
        }
    }

    #[test]
    fn pt_to_pt_dimensional_sanity() {
        // 1000 elements * 8 B = 8 kB at 0.5 * 1.25e6 B/s = 12.8 ms + 1 ms.
        let v = model().pt_to_pt(Param::point(1000.0));
        assert!((v.mean() - (8000.0 / 0.625e6 + 1.0e-3)).abs() < 1e-9);
        assert!(!v.is_point(), "bandwidth uncertainty must propagate");
    }

    #[test]
    fn pt_to_pt_point_bandwidth_is_point() {
        let m = PtToPtModel {
            bw_avail: Param::point(0.5),
            ..model()
        };
        assert!(m.pt_to_pt(Param::point(100.0)).is_point());
    }

    #[test]
    fn wider_bandwidth_uncertainty_widens_transfer() {
        let narrow = model().pt_to_pt(Param::point(1000.0));
        let m_wide = PtToPtModel {
            bw_avail: Param::stochastic(StochasticValue::new(0.5, 0.2)),
            ..model()
        };
        let wide = m_wide.pt_to_pt(Param::point(1000.0));
        assert!(wide.half_width() > narrow.half_width());
    }

    #[test]
    fn neighbours_chain_layout() {
        assert_eq!(
            Neighbours::of(0, 4),
            Neighbours {
                up: false,
                down: true
            }
        );
        assert_eq!(
            Neighbours::of(1, 4),
            Neighbours {
                up: true,
                down: true
            }
        );
        assert_eq!(
            Neighbours::of(3, 4),
            Neighbours {
                up: true,
                down: false
            }
        );
        assert_eq!(
            Neighbours::of(0, 1),
            Neighbours {
                up: false,
                down: false
            }
        );
        assert_eq!(Neighbours::of(1, 4).count(), 2);
    }

    #[test]
    fn interior_processor_does_double_the_comm() {
        let m = model();
        let ghost = Param::point(1000.0);
        let edge = phase_comm(&m, Neighbours::of(0, 4), ghost);
        let interior = phase_comm(&m, Neighbours::of(1, 4), ghost);
        assert!((interior.mean() / edge.mean() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn lone_processor_no_comm() {
        let v = phase_comm(&model(), Neighbours::of(0, 1), Param::point(1000.0));
        assert!(v.is_point());
        assert_eq!(v.mean(), 0.0);
    }

    #[test]
    fn message_list_comm_generalizes_strip_comm() {
        // A strip interior processor's phase comm equals the message-list
        // form with four equal ghost rows.
        let m = model();
        let ghost = Param::point(1000.0);
        let strip = phase_comm(&m, Neighbours::of(1, 4), ghost);
        let list = phase_comm_messages(&m, &[1000.0; 4]);
        assert!((strip.mean() - list.mean()).abs() < 1e-12);
        assert!((strip.half_width() - list.half_width()).abs() < 1e-12);
        // Empty message list is free.
        assert!(phase_comm_messages(&m, &[]).is_point());
    }

    #[test]
    fn related_sum_widths_add() {
        let m = model();
        let ghost = Param::point(1000.0);
        let single = m.pt_to_pt(ghost);
        let edge = phase_comm(&m, Neighbours::of(0, 2), ghost);
        // Edge processor: send + receive = 2 transfers, related widths add.
        assert!((edge.half_width() - 2.0 * single.half_width()).abs() < 1e-9);
    }
}
