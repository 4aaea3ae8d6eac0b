//! Simulated distributed execution of Red-Black SOR on a production
//! platform — the machinery that produces the "actual execution times" of
//! the paper's Figures 9, 12, 14, and 16.
//!
//! Each processor advances a local clock. Per iteration and per colour
//! phase it (a) computes its part's cells, with wall-clock time obtained
//! by integrating work against the machine's CPU-availability trace, and
//! (b) exchanges ghost edges with its neighbours over the shared
//! ethernet, with transfer times integrated against the bandwidth trace.
//! A processor cannot begin the next phase until its own sends have
//! drained *and* every neighbour's edge has arrived — the loose
//! synchronization whose accumulated delays produce the "skew" of the
//! paper's Figure 7 (bounded by `P` iterations).
//!
//! [`simulate`] and [`simulate_blocks`] share one phase loop over the
//! platform, which knows nothing of strips or blocks: a decomposition
//! reaches it as a list of crate-private `Part`s — elements owned, plus an
//! ordered neighbour list with the bytes of one message. The two
//! conventions live in the two constructors: `Part::strips` ships whole
//! grid rows (`N` elements, as the paper's model does), `Part::blocks`
//! interior edges (`N - 2` for a `P x 1` layout — 0.2 % smaller at
//! `N = 1000`).
//!
//! Within a phase the processors' communication is independent: each one
//! reads only the others' compute finish times, then runs its own chain of
//! transfers, each starting where the last ended. The loop takes every
//! processor's rendezvous first and then runs the transfers slot by slot —
//! the first neighbour's two messages for every processor that has one,
//! then the second's — rather than one processor's whole chain after
//! another. Each processor still meets the same operations in the same
//! order, so every clock keeps its bits; what changes is that the
//! processors' chains of trace searches interleave, and the CPU overlaps
//! them instead of waiting on one search at a time (`src/tests/lockstep.rs`
//! holds the loop to the per-processor one, bit for bit). A message's
//! dedicated seconds on the wire, like a part's elements of one colour,
//! are worked out once per run, not once per phase.
//!
//! Self-contention among the application's own transfers is not modelled
//! separately: the bandwidth-availability trace already carries the
//! segment's contention state, and the application's ghost rows are small
//! compared to the competing traffic.

use crate::decomp::{Block, BlockLayout, Peer, Strip};
use prodpred_simgrid::Platform;
use serde::{Deserialize, Serialize};

/// Bytes per grid element (f64).
pub const BYTES_PER_ELEMENT: f64 = 8.0;

/// Configuration of one simulated distributed run.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DistSorConfig {
    /// Grid dimension `N` (the problem is `N x N`).
    pub n: usize,
    /// Red+black iterations.
    pub iterations: usize,
    /// Platform time at which the run starts.
    pub start_time: f64,
    /// Optional paging model. When set, a strip whose working set exceeds
    /// the machine's usable memory computes slower by the model's paging
    /// factor — the regime the paper excludes from Figure 9 ("problem
    /// sizes which fit within main memory").
    pub paging: Option<prodpred_simgrid::PagingModel>,
}

impl DistSorConfig {
    /// An in-core run (no paging model) starting at `start_time`.
    pub fn new(n: usize, iterations: usize, start_time: f64) -> Self {
        Self {
            n,
            iterations,
            start_time,
            paging: None,
        }
    }
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DistSorResult {
    /// Wall-clock execution time: latest processor finish minus start.
    pub total_secs: f64,
    /// Absolute finish time of each processor.
    pub per_proc_finish: Vec<f64>,
    /// Wall-clock duration of each iteration (global frontier advance).
    pub iteration_secs: Vec<f64>,
    /// Final skew: latest minus earliest processor finish.
    pub skew_secs: f64,
}

/// One processor's share of a decomposition, as the simulator sees it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Part {
    /// Grid elements owned (`NumElt_p` in the paper's component models).
    pub(crate) elements: usize,
    /// The processors this one exchanges ghosts with, in exchange order,
    /// each with the bytes of one message in either direction.
    pub(crate) neighbours: Vec<(usize, f64)>,
}

impl Part {
    /// One part per processor of `layout`: its element count, and each
    /// neighbour with the bytes of the ghost message it exchanges.
    fn list(
        layout: BlockLayout,
        elements: impl Fn(usize) -> usize,
        ghost_elements: impl Fn(usize, Peer) -> usize,
    ) -> Vec<Part> {
        (0..layout.len())
            .map(|i| Part {
                elements: elements(i),
                neighbours: Peer::ALL
                    .into_iter()
                    .filter_map(|peer| {
                        let bytes = ghost_elements(i, peer) as f64 * BYTES_PER_ELEMENT;
                        Some((layout.neighbour(i, peer)?, bytes))
                    })
                    .collect(),
            })
            .collect()
    }

    /// Strips of an `n x n` grid: a chain whose every ghost message is a
    /// whole grid row, boundary columns included (`n` elements).
    pub(crate) fn strips(strips: &[Strip], n: usize) -> Vec<Part> {
        let chain = BlockLayout::new(strips.len(), 1);
        Self::list(chain, |i| strips[i].elements(n), |_, _| n)
    }

    /// Blocks on `layout`: a ghost message is the interior edge shared
    /// with the neighbour — `n_cols` elements up and down, `n_rows` left
    /// and right.
    ///
    /// # Panics
    ///
    /// Panics if `blocks` is not one block per processor of `layout`, in
    /// rank order.
    pub(crate) fn blocks(blocks: &[Block], layout: BlockLayout) -> Vec<Part> {
        assert!(
            blocks.len() == layout.len()
                && blocks
                    .iter()
                    .enumerate()
                    .all(|(i, b)| b.coords == (i / layout.pc, i % layout.pc)),
            "blocks must be the layout's, in rank order"
        );
        let ghost_elements = |i: usize, peer| match peer {
            Peer::Up | Peer::Down => blocks[i].n_cols(),
            Peer::Left | Peer::Right => blocks[i].n_rows(),
        };
        Self::list(layout, |i| blocks[i].elements(), ghost_elements)
    }
}

/// The one phase loop behind [`simulate`] and [`simulate_blocks`]: machine
/// `i` runs part `i`, computing against its CPU-availability trace (with
/// the paging model applied if `cfg` carries one) and exchanging ghosts
/// over the platform's shared ethernet.
///
/// # Panics
///
/// Panics if there are more parts than machines, if any part is empty, or
/// if `cfg.iterations == 0`.
fn simulate_on(platform: &Platform, parts: &[Part], cfg: DistSorConfig) -> DistSorResult {
    assert!(
        parts.len() <= platform.machines.len(),
        "more processors than machines"
    );
    assert!(cfg.iterations > 0, "need at least one iteration");
    assert!(
        parts.iter().all(|part| part.elements > 0),
        "every processor needs elements"
    );

    // What no phase changes, once per run: the elements of one colour
    // (paging inflates the per-element cost; expressing it as extra
    // elements keeps the load-trace integration), and per neighbour slot
    // the processors that have one, each with its message's dedicated
    // seconds on the wire.
    let colour_elements: Vec<f64> = parts
        .iter()
        .zip(&platform.machines)
        .map(|(part, machine)| {
            let elems = part.elements as f64 / 2.0;
            match &cfg.paging {
                Some(paging) => elems * paging.slowdown(&machine.spec, part.elements as f64),
                None => elems,
            }
        })
        .collect();
    let slots = parts
        .iter()
        .map(|part| part.neighbours.len())
        .max()
        .unwrap_or(0);
    let bandwidth = platform.network.spec.dedicated_bw;
    let transfers: Vec<Vec<(usize, f64)>> = (0..slots)
        .map(|slot| {
            parts
                .iter()
                .enumerate()
                .filter_map(|(i, part)| Some((i, part.neighbours.get(slot)?.1 / bandwidth)))
                .collect()
        })
        .collect();

    let mut clocks = vec![cfg.start_time; parts.len()];
    let mut ready = vec![0.0f64; parts.len()];
    let mut iteration_secs = Vec::with_capacity(cfg.iterations);
    let mut frontier_prev = cfg.start_time;

    for _iter in 0..cfg.iterations {
        for _color in 0..2 {
            // Compute phase: half the part's elements have this colour.
            for (i, &elems) in colour_elements.iter().enumerate() {
                ready[i] = clocks[i] + platform.machines[i].compute_secs(elems, clocks[i]);
            }
            // Communication phase. A ghost exchange with a neighbour is a
            // rendezvous: it cannot begin until both parties finish
            // computing (neighbour lateness propagates — the skew of
            // Figure 7). On the half-duplex shared segment each exchange
            // then occupies one message slot per direction at the
            // endpoint, so an interior strip pays for four transfers per
            // phase (SendLR + ReceLR in the structural model), an edge
            // strip for two, and a lone processor for none.
            for (i, part) in parts.iter().enumerate() {
                clocks[i] = part
                    .neighbours
                    .iter()
                    .fold(ready[i], |t, &(q, _)| t.max(ready[q]));
            }
            // Slot by slot, each direction in turn, every processor with
            // that slot: one processor's transfers run in its own order,
            // and the processors' independent chains interleave.
            for slot in &transfers {
                for _direction in 0..2 {
                    for &(i, work) in slot {
                        clocks[i] += platform.network.transfer_work_secs(work, clocks[i]);
                    }
                }
            }
        }
        let frontier = clocks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        iteration_secs.push(frontier - frontier_prev);
        frontier_prev = frontier;
    }

    let finish_max = clocks.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let finish_min = clocks.iter().copied().fold(f64::INFINITY, f64::min);
    DistSorResult {
        total_secs: finish_max - cfg.start_time,
        per_proc_finish: clocks,
        iteration_secs,
        skew_secs: finish_max - finish_min,
    }
}

/// Simulates one distributed SOR run over strips.
///
/// # Panics
///
/// Panics if there are more strips than machines, if any strip is empty,
/// or if `iterations == 0`.
pub fn simulate(platform: &Platform, strips: &[Strip], cfg: DistSorConfig) -> DistSorResult {
    simulate_on(platform, &Part::strips(strips, cfg.n), cfg)
}

/// Simulates one distributed SOR run over blocks.
///
/// # Panics
///
/// Panics if blocks don't match the layout, there are more blocks than
/// machines, or `iterations == 0`.
pub fn simulate_blocks(
    platform: &Platform,
    blocks: &[Block],
    layout: BlockLayout,
    cfg: DistSorConfig,
) -> DistSorResult {
    simulate_on(platform, &Part::blocks(blocks, layout), cfg)
}

/// The per-processor phase loop the lockstep one is held to.
#[cfg(test)]
#[path = "tests/lockstep.rs"]
mod lockstep;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{partition_blocks, partition_equal, partition_rows, BlockLayout};
    use prodpred_simgrid::{MachineClass, Platform};

    fn dedicated4() -> Platform {
        Platform::dedicated(
            &[
                MachineClass::Sparc10,
                MachineClass::Sparc10,
                MachineClass::Sparc10,
                MachineClass::Sparc10,
            ],
            100_000.0,
        )
    }

    fn cfg(n: usize, iterations: usize) -> DistSorConfig {
        DistSorConfig {
            paging: None,
            n,
            iterations,
            start_time: 0.0,
        }
    }

    #[test]
    fn dedicated_homogeneous_matches_closed_form() {
        let p = dedicated4();
        let strips = partition_equal(998, 4);
        let r = simulate(&p, &strips, cfg(1000, 10));
        // Compute: 10 iters * 2 phases * (249 or 250 rows * 998 cols / 2)
        // elements * 0.9us; comm: 2 phases * sends/recvs of 8 KB at
        // 0.58 * 1.25 MB/s + 1 ms latency each.
        // Rough bound check: compute alone for the largest strip is
        // 20 * 250*998/2 * 0.9e-6 = 2.245 s; with comm it must be a bit
        // more, but well under 4 s.
        assert!(r.total_secs > 2.2, "too fast: {}", r.total_secs);
        assert!(r.total_secs < 4.0, "too slow: {}", r.total_secs);
        // Homogeneous dedicated machines: negligible skew.
        assert!(r.skew_secs < 0.2, "skew {}", r.skew_secs);
    }

    #[test]
    fn iteration_times_sum_to_total() {
        let p = dedicated4();
        let strips = partition_equal(498, 4);
        let r = simulate(&p, &strips, cfg(500, 8));
        let sum: f64 = r.iteration_secs.iter().sum();
        assert!((sum - r.total_secs).abs() < 1e-9);
        assert_eq!(r.iteration_secs.len(), 8);
    }

    #[test]
    fn loaded_machine_slows_the_whole_ring() {
        // One machine at half availability: its neighbours stall on its
        // ghost rows, so total time roughly doubles (skew propagation).
        use prodpred_simgrid::{Machine, MachineSpec, Trace};
        let mut p = dedicated4();
        p.machines[1] = Machine::new(
            MachineSpec::new("slow", MachineClass::Sparc10),
            Trace::constant(0.0, 1.0, 0.5, 200_000),
        );
        let strips = partition_equal(998, 4);
        let loaded = simulate(&p, &strips, cfg(1000, 10));
        let clean = simulate(&dedicated4(), &strips, cfg(1000, 10));
        assert!(
            loaded.total_secs > clean.total_secs * 1.6,
            "loaded {} vs clean {}",
            loaded.total_secs,
            clean.total_secs
        );
        // The unloaded machines finish with the loaded one (loose sync):
        // the skew cannot grow without bound.
        assert!(loaded.skew_secs < loaded.total_secs * 0.2);
    }

    #[test]
    fn weighted_decomposition_balances_heterogeneous_machines() {
        let p = Platform::dedicated(
            &[MachineClass::Sparc2, MachineClass::UltraSparc],
            1_000_000.0,
        );
        let n = 800usize;
        // Equal split: the Sparc-2 dominates.
        let equal = simulate(&p, &partition_equal(n - 2, 2), cfg(n, 10));
        // Speed-weighted split (inverse of per-element time).
        let w = [
            1.0 / MachineClass::Sparc2.benchmark_secs_per_element(),
            1.0 / MachineClass::UltraSparc.benchmark_secs_per_element(),
        ];
        let weighted = simulate(&p, &partition_rows(n - 2, &w), cfg(n, 10));
        assert!(
            weighted.total_secs < equal.total_secs * 0.55,
            "weighted {} vs equal {}",
            weighted.total_secs,
            equal.total_secs
        );
    }

    #[test]
    fn single_processor_has_no_comm() {
        let p = Platform::dedicated(&[MachineClass::Sparc10], 1_000_000.0);
        let strips = partition_equal(498, 1);
        let r = simulate(&p, &strips, cfg(500, 10));
        // Pure compute: 10 * 2 * (498*498/2) * 0.9e-6 = 2.232 s.
        let expect = 10.0 * 498.0 * 498.0 * 0.9e-6;
        assert!((r.total_secs - expect).abs() < 1e-6, "{}", r.total_secs);
        assert_eq!(r.skew_secs, 0.0);
    }

    #[test]
    fn production_run_exceeds_dedicated() {
        let prod = Platform::platform1(7, 100_000.0);
        let ded = Platform::dedicated(
            &[
                MachineClass::Sparc2,
                MachineClass::Sparc2,
                MachineClass::Sparc5,
                MachineClass::Sparc10,
            ],
            100_000.0,
        );
        let strips = partition_equal(998, 4);
        let tp = simulate(&prod, &strips, cfg(1000, 10)).total_secs;
        let td = simulate(&ded, &strips, cfg(1000, 10)).total_secs;
        assert!(tp > td * 1.5, "production {tp} vs dedicated {td}");
    }

    #[test]
    fn start_time_shifts_through_load_trace() {
        // A platform whose load improves later: starting later runs faster.
        use prodpred_simgrid::{Machine, MachineSpec, Trace};
        let mut values = vec![0.25; 5000];
        values.extend(vec![1.0; 100_000]);
        let m = Machine::new(
            MachineSpec::new("vary", MachineClass::Sparc10),
            Trace::new(0.0, 1.0, values),
        );
        let p = Platform {
            machines: vec![m],
            network: Platform::dedicated(&[MachineClass::Sparc10], 10.0).network,
            horizon: 105_000.0,
        };
        let strips = partition_equal(998, 1);
        let early = simulate(&p, &strips, cfg(1000, 10)).total_secs;
        let late = simulate(&p, &strips, DistSorConfig::new(1000, 10, 6000.0)).total_secs;
        assert!(late < early * 0.5, "late {late} vs early {early}");
    }

    #[test]
    #[should_panic]
    fn rejects_zero_iterations() {
        let p = dedicated4();
        simulate(&p, &partition_equal(10, 2), cfg(12, 0));
    }

    fn dedicated(p: usize) -> Platform {
        Platform::dedicated(&vec![MachineClass::Sparc10; p], 1.0e6)
    }

    #[test]
    fn strip_layout_matches_1d_simulator() {
        // A pc = 1 block layout is the strip decomposition. The simulators
        // agree up to the ghost-row convention: the 1D code ships whole
        // grid rows (N elements), the 2D code ships interior segments
        // (N - 2) — a 0.2% message-size difference at N = 1000.
        let n = 1000;
        let p = 4;
        let platform = dedicated(p);
        let cfg = DistSorConfig::new(n, 10, 0.0);
        let blocks = partition_blocks(n, BlockLayout::new(p, 1));
        let r2d = simulate_blocks(&platform, &blocks, BlockLayout::new(p, 1), cfg);
        let strips = partition_equal(n - 2, p);
        let r1d = simulate(&platform, &strips, cfg);
        let rel = (r2d.total_secs - r1d.total_secs).abs() / r1d.total_secs;
        assert!(
            rel < 0.005,
            "2d {} vs 1d {}",
            r2d.total_secs,
            r1d.total_secs
        );
    }

    #[test]
    fn square_blocks_beat_strips_when_comm_dominates() {
        // 16 processors, small grid, slow network: comm dominates and the
        // square layout's shorter edges win.
        let n = 402;
        let p = 16;
        let mut platform = dedicated(p);
        // Slow the network to make communication dominant.
        platform.network.spec.dedicated_bw = 2.0e5;
        let cfg = DistSorConfig::new(n, 10, 0.0);
        let strips = partition_equal(n - 2, p);
        let t_strip = simulate(&platform, &strips, cfg).total_secs;
        let layout = BlockLayout::squarest(p);
        let blocks = partition_blocks(n, layout);
        let t_block = simulate_blocks(&platform, &blocks, layout, cfg).total_secs;
        assert!(
            t_block < t_strip,
            "block {t_block} should beat strip {t_strip}"
        );
    }

    #[test]
    fn strips_beat_square_blocks_for_few_procs_low_latency() {
        // 4 processors: strip interior procs have 2 neighbours (4 msgs),
        // 2x2 blocks have 2 neighbours too but latency per message counts
        // double the shorter edges — with a fast network and big messages
        // the layouts are close; with high latency strips win (fewer,
        // larger messages... same count here), so just assert both run
        // and produce comparable times.
        let n = 1000;
        let p = 4;
        let platform = dedicated(p);
        let cfg = DistSorConfig::new(n, 10, 0.0);
        let t_strip = simulate(&platform, &partition_equal(n - 2, p), cfg).total_secs;
        let layout = BlockLayout::squarest(p);
        let t_block =
            simulate_blocks(&platform, &partition_blocks(n, layout), layout, cfg).total_secs;
        let ratio = t_block / t_strip;
        assert!(ratio > 0.7 && ratio < 1.3, "ratio {ratio}");
    }

    #[test]
    fn deterministic() {
        let platform = Platform::platform2(3, 50_000.0);
        let layout = BlockLayout::new(2, 2);
        let blocks = partition_blocks(400, layout);
        let cfg = DistSorConfig::new(400, 5, 100.0);
        let a = simulate_blocks(&platform, &blocks, layout, cfg);
        let b = simulate_blocks(&platform, &blocks, layout, cfg);
        assert_eq!(a.total_secs, b.total_secs);
    }

    #[test]
    #[should_panic]
    fn rejects_layout_mismatch() {
        let platform = dedicated(4);
        let blocks = partition_blocks(100, BlockLayout::new(2, 2));
        simulate_blocks(
            &platform,
            &blocks,
            BlockLayout::new(4, 1),
            DistSorConfig::new(100, 1, 0.0),
        );
    }
}
