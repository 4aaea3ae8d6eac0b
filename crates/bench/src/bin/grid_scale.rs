//! Grid-at-1000× scale gate: generates a production grid of tens of
//! thousands of machines on the columnar `TraceStore`, runs hundreds of
//! SOR tenants through the sharded deterministic simulation, checks the
//! result is bit-identical at 1/2/4/8 pool threads, and writes the
//! `BENCH_scale.json` record (to `target/tmp/` unless the committed
//! file's path is the third argument):
//!
//! * `machines`, `tenants`, `shards` — the configuration that ran,
//! * `gen_wall_s` — wall seconds to generate the grid (streamed chunks),
//! * `sim_wall_s` — wall seconds for one sharded simulation pass,
//! * `events` / `events_per_s` — queue pops plus per-phase compute and
//!   transfer integrations, and their throughput,
//! * `bytes_per_machine` — amortized trace bytes per machine (store
//!   columns + built prefixes + 16-byte slots) after the simulation has
//!   touched the store,
//! * `naive_bytes_per_machine` — what a standalone per-machine trace
//!   (samples + prefix) would cost, `memory_ratio` = naive / actual
//!   (the acceptance gate requires ≥ 20×),
//! * `deterministic_1_vs_8` — digests agreed across 1/2/4/8 threads,
//! * `makespan_s`, `peak_concurrency` — simulation shape, for the record.
//!
//! Usage: `cargo run --release --bin grid_scale [machines] [tenants] [output.json]`
//!
//! Defaults run the acceptance configuration: 10,000 machines × 120
//! tenants, held to `records::ScaleRecord::gate` before it is written.
//! The CI smoke job runs a reduced grid (still asserting determinism)
//! under a hard timeout.

use std::time::Instant;

use prodpred_bench::records::{Record, ScaleRecord};
use prodpred_core::{simulate_grid_sharded, GridSimConfig, TenantSpec};
use prodpred_simgrid::GridPlatform;

fn main() {
    let machines: usize = prodpred_bench::arg_or(1, "machines", 10_000);
    let tenants: usize = prodpred_bench::arg_or(2, "tenants", 120);

    let horizon = 3600.0;
    let seed = 2026;
    // Shards are configuration, not thread count: scale with the grid but
    // keep every shard big enough for a 4-machine tenant job.
    let shards = (machines / 64).clamp(1, 64);
    let cfg = GridSimConfig {
        tenants,
        shards,
        tenant: TenantSpec {
            n: 600,
            iterations: 20,
            procs: 4,
        },
        seed: seed ^ 0xBEEF,
        mean_arrival_gap: 12.0,
    };

    println!("generating grid: {machines} machines, horizon {horizon} s");
    let t = Instant::now();
    let grid = GridPlatform::production(machines, seed, horizon, 0);
    let gen_wall_s = t.elapsed().as_secs_f64();
    println!(
        "  {gen_wall_s:.3} s, {} template columns",
        grid.store().columns()
    );

    println!("simulating {tenants} tenants across {shards} shards");
    let t = Instant::now();
    let result = simulate_grid_sharded(&grid, &cfg, 0);
    let sim_wall_s = t.elapsed().as_secs_f64();
    let events_per_s = result.events as f64 / sim_wall_s;
    println!(
        "  {sim_wall_s:.3} s, {} events ({events_per_s:.0} events/s), makespan {:.1} s, peak {} tenants",
        result.events, result.makespan, result.peak_concurrency
    );

    // Determinism gate: the digest must be bit-identical at 1/2/4/8 pool
    // threads (the tier-1 test pins this on a small grid; here it runs at
    // full scale).
    let mut deterministic = true;
    for threads in [1usize, 2, 4, 8] {
        let run = simulate_grid_sharded(&grid, &cfg, threads);
        if run.digest != result.digest {
            deterministic = false;
            eprintln!(
                "DETERMINISM VIOLATION at {threads} threads: {:#018x} vs {:#018x}",
                run.digest, result.digest
            );
        }
    }
    assert!(
        deterministic,
        "sharded simulation must be thread-count invariant"
    );
    println!(
        "  digest {:#018x} identical at 1/2/4/8 threads",
        result.digest
    );

    // Memory accounting after the simulation has touched the store, so
    // built prefixes are included.
    let bytes_per_machine = grid.bytes_per_machine();
    let naive = grid.naive_bytes_per_machine();
    let memory_ratio = naive as f64 / bytes_per_machine;
    println!(
        "  {bytes_per_machine:.1} bytes/machine vs naive {naive} ({memory_ratio:.1}x smaller)"
    );
    let record = ScaleRecord {
        machines,
        tenants,
        shards,
        horizon_s: horizon,
        gen_wall_s,
        sim_wall_s,
        events: result.events,
        events_per_s,
        bytes_per_machine,
        naive_bytes_per_machine: naive,
        memory_ratio,
        deterministic_1_vs_8: deterministic,
        makespan_s: result.makespan,
        peak_concurrency: result.peak_concurrency,
    };
    // The 20x bound is a property of the acceptance scale: the store's
    // cost is O(columns · steps) + O(machines), so it only amortizes past
    // a few thousand machines. Reduced smoke grids report the ratio and
    // are not gated (`crates/core/tests/grid_scale.rs` bounds their
    // bytes/machine against the committed record instead).
    let out_path = record
        .write(std::env::args().nth(3))
        .expect("write the record");
    println!("\nwrote {out_path}");
}
