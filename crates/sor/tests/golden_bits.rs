//! Golden bits of the distributed-run simulator, taken before the strip
//! and block simulators were folded into one phase loop. Every other test
//! of `simulate_blocks` asserts ratios; these pin the exact `f64` bits of
//! one production-load run per decomposition, paging model included, so a
//! refactor that reorders a single addition fails here.

use prodpred_simgrid::{PagingModel, Platform};
use prodpred_sor::{
    partition_blocks, partition_rows, simulate, simulate_blocks, BlockLayout, DistSorConfig,
    DistSorResult,
};

/// `total_secs`, `skew_secs`, then every `per_proc_finish` and
/// `iteration_secs` entry, as raw bits.
fn bits(r: &DistSorResult) -> Vec<u64> {
    [r.total_secs, r.skew_secs]
        .iter()
        .chain(&r.per_proc_finish)
        .chain(&r.iteration_secs)
        .map(|x| x.to_bits())
        .collect()
}

/// Platform 2 has four machines; a 2 x 3 layout needs six, so the first
/// two Platform 1 machines (same seed, same horizon) join it.
fn six_machines() -> Platform {
    let mut platform = Platform::platform2(3, 50_000.0);
    platform.machines.extend(
        Platform::platform1(3, 50_000.0)
            .machines
            .into_iter()
            .take(2),
    );
    platform
}

#[test]
fn simulate_blocks_bits_are_pinned() {
    let n = 400;
    let layout = BlockLayout::new(2, 3);
    let mut cfg = DistSorConfig::new(n, 5, 100.0);
    let plain = simulate_blocks(&six_machines(), &partition_blocks(n, layout), layout, cfg);
    assert_eq!(bits(&plain), GOLDEN_BLOCKS, "{:#x?}", bits(&plain));

    // A 4000 grid pages on the 96 MB Sparc-5 corner block.
    let n = 4000;
    cfg = DistSorConfig::new(n, 3, 100.0);
    cfg.paging = Some(PagingModel::default());
    let layout = BlockLayout::new(2, 2);
    let paged = simulate_blocks(
        &Platform::platform2(3, 50_000.0),
        &partition_blocks(n, layout),
        layout,
        cfg,
    );
    assert_eq!(bits(&paged), GOLDEN_BLOCKS_PAGED, "{:#x?}", bits(&paged));
}

#[test]
fn simulate_strips_bits_are_pinned_with_paging() {
    // Weighted strips on a 4000 grid: the 96 MB Sparc-5 pages, the rest
    // stay in core.
    let n = 4000;
    let mut cfg = DistSorConfig::new(n, 3, 100.0);
    cfg.paging = Some(PagingModel::default());
    let strips = partition_rows(n - 2, &[3.0, 2.0, 2.0, 1.0]);
    let run = simulate(&Platform::platform2(3, 50_000.0), &strips, cfg);
    assert_eq!(bits(&run), GOLDEN_STRIPS_PAGED, "{:#x?}", bits(&run));
}

const GOLDEN_BLOCKS: [u64; 13] = [
    0x3fe7bcb34c9fcd80,
    0x3fa19b6adc708000,
    0x40592d45f93db18b,
    0x40592f7966993f9b,
    0x40592e3db658fc79,
    0x40592f0e9b5683dd,
    0x40592f7966993f9b,
    0x40592f0e3c1bc939,
    0x3fc2fd5c3d4ca000,
    0x3fc2fd5c3d4ca200,
    0x3fc2fd5c3d4ca200,
    0x3fc2fd5c3d4cac00,
    0x3fc2fd5c3d4ca600,
];
const GOLDEN_BLOCKS_PAGED: [u64; 9] = [
    0x406dcaf38e28f4aa,
    0x4046dd9f9c0728e8,
    0x40752579c7147a55,
    0x40752579c7147a55,
    0x40752579c7147a55,
    0x407249c5d3939538,
    0x404f7a7bc12e9d24,
    0x4056ae7c108fd482,
    0x40552a2d2b2ac640,
];
const GOLDEN_STRIPS_PAGED: [u64; 9] = [
    0x409143eda7b9a93f,
    0x407283d29a7289a4,
    0x4092d375d36f9b94,
    0x4092d3eda7b9a93f,
    0x409056ae1a44fcf0,
    0x408c65f2023a0dac,
    0x407e7a59f7bb93fa,
    0x4073caaeaa53295c,
    0x4072caadfcd7e7a6,
];
