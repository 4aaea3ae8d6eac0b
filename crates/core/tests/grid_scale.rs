//! Tier-1 pins for the 1000×-scale grid path: sharded simulation must be
//! bit-identical at 1/2/4/8 pool threads, and the columnar store's
//! [`TraceRef`] views must agree with the step-walking oracles over the
//! trace their samples make to ≤ 1e-9.
//! `golden_grid_bits.txt` pins the path's bits themselves: one simulation
//! digest and a table of view queries.

use prodpred_core::{simulate_grid_sharded, GridSimConfig, TenantSpec};
use prodpred_simgrid::store::{MachineSlot, TraceRef};
use prodpred_simgrid::{GridPlatform, Trace};

#[path = "../../simgrid/tests/support/walking_oracles.rs"]
mod walking_oracles;
use walking_oracles::{integral_walk, time_to_complete_walk};

/// The view's samples, read through `at` at each step's midpoint, as a
/// standalone trace: what the walking oracles take.
fn materialize(view: &TraceRef) -> Trace {
    let values = (0..view.len())
        .map(|k| view.at(view.t0() + (k as f64 + 0.5) * view.dt()))
        .collect();
    Trace::new(view.t0(), view.dt(), values)
}

/// `TraceRef`'s mean over `[a, b]`: the integral over the width, or the
/// value at `a` on an empty window.
fn mean_over(view: &TraceRef, a: f64, b: f64) -> f64 {
    if b == a {
        return view.at(a);
    }
    view.integral(a, b) / (b - a)
}

fn grid() -> GridPlatform {
    GridPlatform::production(96, 4242, 900.0, 1)
}

fn cfg() -> GridSimConfig {
    GridSimConfig {
        tenants: 32,
        shards: 6,
        tenant: TenantSpec {
            n: 150,
            iterations: 5,
            procs: 4,
        },
        seed: 77,
        mean_arrival_gap: 8.0,
    }
}

#[test]
fn sharded_grid_simulation_bit_identical_at_1_2_4_8_threads() {
    let g = grid();
    let c = cfg();
    let baseline = simulate_grid_sharded(&g, &c, 1);
    for threads in [2usize, 4, 8] {
        let run = simulate_grid_sharded(&g, &c, threads);
        assert_eq!(baseline.digest, run.digest, "digest at {threads} threads");
        for t in 0..c.tenants {
            assert_eq!(
                baseline.tenant_secs[t].to_bits(),
                run.tenant_secs[t].to_bits(),
                "tenant {t} secs at {threads} threads"
            );
            assert_eq!(
                baseline.tenant_start[t].to_bits(),
                run.tenant_start[t].to_bits(),
                "tenant {t} start at {threads} threads"
            );
        }
        assert_eq!(baseline.events, run.events, "events at {threads} threads");
        assert_eq!(
            baseline.makespan.to_bits(),
            run.makespan.to_bits(),
            "makespan at {threads} threads"
        );
    }
}

#[test]
fn grid_generation_bit_identical_across_thread_counts() {
    let one = grid();
    let eight = GridPlatform::production(96, 4242, 900.0, 8);
    assert_eq!(one.len(), eight.len());
    for i in 0..one.len() {
        assert_eq!(one.slot(i), eight.slot(i), "slot {i}");
    }
    // Spot-check full trace content, not just slots.
    for i in [0usize, 31, 95] {
        assert_eq!(materialize(&one.trace(i)), materialize(&eight.trace(i)));
    }
}

#[test]
fn trace_ref_agrees_with_reference_oracles() {
    let g = grid();
    for i in [0usize, 17, 50, 95] {
        let view = g.trace(i);
        let full = materialize(&view);
        let t_end = view.t0() + view.dt() * view.len() as f64;
        let (lo, hi) = (view.t0() - 10.0, t_end + 10.0);
        let points: Vec<f64> = (0..=40).map(|k| lo + (hi - lo) * k as f64 / 40.0).collect();
        for (pi, &a) in points.iter().enumerate() {
            for &b in &points[pi..] {
                let fast = view.integral(a, b);
                let slow = integral_walk(&full, a, b);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "machine {i} integral([{a}, {b}]): {fast} vs {slow}"
                );
            }
        }
        for &start in &[0.0, 123.4, 880.0] {
            for &work in &[0.05, 2.0, 60.0, 2000.0] {
                let fast = view.time_to_complete(start, work);
                let slow = time_to_complete_walk(&full, start, work);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "machine {i} ttc({start}, {work}): {fast} vs {slow}"
                );
            }
        }
    }
}

#[test]
fn slots_are_pure_functions_of_seed_and_index() {
    let a = MachineSlot::derive(4242, 12, 0, 8, 256);
    let b = MachineSlot::derive(4242, 12, 0, 8, 256);
    assert_eq!(a, b);
}

const GOLDEN: &str = include_str!("golden_grid_bits.txt");

/// The grid path's bits on `GridPlatform::production(200, 42, 900.0, 1)`:
/// the digest of a small sharded simulation, then one line per (machine,
/// start, work) with the bits of `TraceRef::{at, integral}`, of the mean
/// over the window and of `TraceRef::time_to_complete` — starts before
/// `t0`, on step boundaries, inside the last step and beyond the horizon;
/// work that ends before the trace starts, in its own step, steps away and
/// past the end.
fn grid_bits() -> String {
    use std::fmt::Write;
    let g = GridPlatform::production(200, 42, 900.0, 1);
    let c = GridSimConfig {
        tenants: 24,
        shards: 4,
        tenant: TenantSpec {
            n: 150,
            iterations: 5,
            procs: 4,
        },
        seed: 9,
        mean_arrival_gap: 8.0,
    };
    let run = simulate_grid_sharded(&g, &c, 1);
    let mut out = format!("digest {:#018x} events {}\n", run.digest, run.events);
    for machine in [0usize, 17, 101, 199] {
        let view = g.trace(machine);
        for start in [-37.5, 0.0, 0.35, 123.0, 456.75, 899.0, 899.5, 900.0, 940.0] {
            for work in [0.0, 1e-9, 2.5, 60.0, 2000.0] {
                writeln!(
                    out,
                    "m{machine} start={start} work={work}: {:016x} {:016x} {:016x} {:016x}",
                    view.at(start).to_bits(),
                    view.integral(start, start + work).to_bits(),
                    mean_over(&view, start, start + work).to_bits(),
                    view.time_to_complete(start, work).to_bits(),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn grid_path_bits_are_pinned() {
    let actual = grid_bits();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_grid_bits.txt");
    std::fs::write(&path, &actual).unwrap();
    let moved: Vec<&str> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(':').next().unwrap())
        .collect();
    panic!(
        "{} of {} golden lines moved ({} expected), first: {:?}; actual table written to {}",
        moved.len(),
        actual.lines().count(),
        GOLDEN.lines().count(),
        moved.first(),
        path.display()
    );
}

/// The committed scale record's one field this file reads.
#[derive(serde::Deserialize)]
struct CommittedScale {
    bytes_per_machine: f64,
}

#[test]
fn reduced_grid_stays_within_10x_of_the_committed_bytes_per_machine() {
    // `grid_scale 1600 24`, the CI smoke configuration. The store's cost
    // is fixed, so a reduced grid amortizes it over fewer machines: 10x
    // covers the gap to the committed 10 000-machine record with margin
    // while still catching accidental per-machine cost growth.
    let record = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_scale.json");
    let committed: CommittedScale =
        serde_json::from_str(&std::fs::read_to_string(record).unwrap()).unwrap();
    let grid = GridPlatform::production(1600, 2026, 3600.0, 0);
    let cfg = GridSimConfig {
        tenants: 24,
        shards: 25,
        tenant: TenantSpec {
            n: 600,
            iterations: 20,
            procs: 4,
        },
        seed: 2026 ^ 0xBEEF,
        mean_arrival_gap: 12.0,
    };
    // Simulate first: the prefixes the run builds are part of the cost.
    let run = simulate_grid_sharded(&grid, &cfg, 0);
    assert_eq!(run.digest, 0x890a_f3d1_ef96_0955, "the smoke run's digest");
    let bytes = grid.bytes_per_machine();
    assert!(
        bytes <= committed.bytes_per_machine * 10.0,
        "{bytes:.1} bytes/machine at 1 600 machines vs {:.1} committed",
        committed.bytes_per_machine
    );
}
