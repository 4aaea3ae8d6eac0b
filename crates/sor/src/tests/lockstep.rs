//! The per-processor phase loop, the walking definition of
//! [`super::simulate_on`]: each processor takes its rendezvous and then
//! runs all its transfers back to back before the next processor starts.
//! The product loop runs the same transfers slot by slot across the
//! processors; every processor sees the same operations in the same order,
//! so both give the same bits, and the proptest here holds them to it.

use super::{simulate, simulate_blocks, DistSorConfig, DistSorResult, Part};
use crate::decomp::{partition_blocks, partition_equal, partition_rows, BlockLayout};
use prodpred_simgrid::{PagingModel, Platform};
use proptest::prelude::*;

/// The per-processor phase loop: per phase, every processor's compute,
/// then each processor's rendezvous and all its transfers in one go before
/// the next processor's; each message's bytes are divided by the bandwidth
/// where it is sent.
fn simulate_walking(platform: &Platform, parts: &[Part], cfg: DistSorConfig) -> DistSorResult {
    let mut clocks = vec![cfg.start_time; parts.len()];
    let mut ready = vec![0.0f64; parts.len()];
    let mut iteration_secs = Vec::with_capacity(cfg.iterations);
    let mut frontier_prev = cfg.start_time;

    for _iter in 0..cfg.iterations {
        for _color in 0..2 {
            for (i, part) in parts.iter().enumerate() {
                let machine = &platform.machines[i];
                let mut elems = part.elements as f64 / 2.0;
                if let Some(paging) = &cfg.paging {
                    elems *= paging.slowdown(&machine.spec, part.elements as f64);
                }
                ready[i] = clocks[i] + machine.compute_secs(elems, clocks[i]);
            }
            for (i, part) in parts.iter().enumerate() {
                let mut t = ready[i];
                for &(q, _) in &part.neighbours {
                    t = t.max(ready[q]);
                }
                for &(_, bytes) in &part.neighbours {
                    for _direction in 0..2 {
                        let work = bytes / platform.network.spec.dedicated_bw;
                        t += platform.network.transfer_work_secs(work, t);
                    }
                }
                clocks[i] = t;
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

/// Every field of a result as raw bits: `total_secs`, `skew_secs`, then
/// each `per_proc_finish` and `iteration_secs` entry, with the lengths.
fn bits(r: &DistSorResult) -> (u64, u64, Vec<u64>, Vec<u64>) {
    let raw = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect();
    (
        r.total_secs.to_bits(),
        r.skew_secs.to_bits(),
        raw(&r.per_proc_finish),
        raw(&r.iteration_secs),
    )
}

/// The traces' horizon, short enough that long runs outlive it.
const HORIZON: f64 = 1500.0;

/// Six production machines, Platform 2's four and two of Platform 1's,
/// grown to [`HORIZON`] from `seed`.
fn six_machines(seed: u64) -> Platform {
    let mut platform = Platform::platform2(seed, HORIZON);
    let extra = Platform::platform1(seed, HORIZON).machines;
    platform.machines.extend(extra.into_iter().take(2));
    platform
}

/// Where the run starts, by `kind`: before the traces' `t0`, on a step
/// boundary, inside a step, or past the horizon; `frac` in `[0, 1)` places
/// it in that stretch.
fn start_time(kind: usize, frac: f64) -> f64 {
    match kind {
        0 => -0.01 - 40.0 * frac,
        1 => (HORIZON * frac).floor(),
        2 => HORIZON * frac,
        _ => HORIZON + 500.0 * frac,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn lockstep_matches_the_walking_loop(
        seed in 0u64..4,
        p in 1usize..7,
        // Equal strips, weighted strips, squarest blocks, P x 1 blocks.
        split in 0usize..4,
        weights in proptest::collection::vec(0.2f64..5.0, 6),
        n in 200usize..2500,
        paged in any::<bool>(),
        iterations in 1usize..61,
        start in (0usize..4, 0.0f64..1.0),
    ) {
        let platform = six_machines(seed);
        let mut cfg = DistSorConfig::new(n, iterations, start_time(start.0, start.1));
        if paged {
            // A twentieth of memory usable: the larger parts page, the
            // smaller stay in core.
            cfg.paging = Some(PagingModel {
                usable_fraction: 0.05,
                ..PagingModel::default()
            });
        }
        let (actual, parts) = if split < 2 {
            let strips = if split == 0 {
                partition_equal(n - 2, p)
            } else {
                partition_rows(n - 2, &weights[..p])
            };
            (simulate(&platform, &strips, cfg), Part::strips(&strips, n))
        } else {
            let layout = if split == 2 {
                BlockLayout::squarest(p)
            } else {
                BlockLayout::new(p, 1)
            };
            let blocks = partition_blocks(n, layout);
            (
                simulate_blocks(&platform, &blocks, layout, cfg),
                Part::blocks(&blocks, layout),
            )
        };
        prop_assert_eq!(bits(&actual), bits(&simulate_walking(&platform, &parts, cfg)));
    }
}
