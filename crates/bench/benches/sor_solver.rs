//! Criterion benchmarks for the real SOR solvers: per-kernel sweep
//! throughput (slice kernel vs the historical indexed loop), sequential
//! vs. multithreaded scaling, and the simulated distributed execution
//! cost.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prodpred_simgrid::Platform;
use prodpred_sor::{
    partition_equal, simulate, solve_parallel, solve_seq, Color, DistSorConfig, Grid, SorParams,
};

/// The pre-refactor sweep, verbatim: per-cell `get`/`set` index math.
/// Kept here as the baseline the slice kernel is measured against.
fn sweep_indexed(grid: &mut Grid, color: Color, omega: f64) {
    let n = grid.n();
    for i in 1..n - 1 {
        let start = 1 + ((i + 1 + color.parity()) % 2);
        let mut j = start;
        while j < n - 1 {
            let u = grid.get(i, j);
            let sum =
                grid.get(i - 1, j) + grid.get(i + 1, j) + grid.get(i, j - 1) + grid.get(i, j + 1);
            grid.set(i, j, u + omega * 0.25 * (sum - 4.0 * u));
            j += 2;
        }
    }
}

fn bench_kernels(c: &mut Criterion) {
    let n = 2048;
    let omega = prodpred_sor::optimal_omega(n);
    let mut group = c.benchmark_group("sor-kernel-2048");
    group.throughput(Throughput::Elements(((n - 2) * (n - 2)) as u64));
    group.bench_function("fused", |b| {
        let mut g = Grid::laplace_problem(n);
        b.iter(|| {
            prodpred_sor::sweep_iteration(&mut g, omega);
            black_box(g.get(1, 1))
        })
    });
    group.bench_function("slice-two-pass", |b| {
        let mut g = Grid::laplace_problem(n);
        b.iter(|| {
            prodpred_sor::seq::sweep_color_rows(&mut g, Color::Red, omega, 1, n - 1);
            prodpred_sor::seq::sweep_color_rows(&mut g, Color::Black, omega, 1, n - 1);
            black_box(g.get(1, 1))
        })
    });
    // The residual `solve_seq` takes after the two sweeps of an iteration.
    group.bench_function("max-residual", |b| {
        let mut g = Grid::laplace_problem(n);
        prodpred_sor::sweep_iteration(&mut g, omega);
        b.iter(|| black_box(&g).max_residual())
    });
    group.bench_function("indexed", |b| {
        let mut g = Grid::laplace_problem(n);
        b.iter(|| {
            sweep_indexed(&mut g, Color::Red, omega);
            sweep_indexed(&mut g, Color::Black, omega);
            black_box(g.get(1, 1))
        })
    });
    group.finish();
}

fn bench_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("sor-sequential");
    for n in [65usize, 129, 257] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut g = Grid::laplace_problem(n);
                solve_seq(&mut g, SorParams::for_grid(n, 10));
                black_box(g.interior_sum())
            })
        });
    }
    group.finish();
}

fn bench_parallel_scaling(c: &mut Criterion) {
    let n = 257;
    let mut group = c.benchmark_group("sor-parallel-257");
    for p in [1usize, 2, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(p), &p, |b, &p| {
            b.iter(|| {
                let mut g = Grid::laplace_problem(n);
                solve_parallel(&mut g, SorParams::for_grid(n, 10), p);
                black_box(g.interior_sum())
            })
        });
    }
    group.finish();
}

fn bench_distsim(c: &mut Criterion) {
    let platform = Platform::platform2(1, 40_000.0);
    let strips = partition_equal(1598, 4);
    c.bench_function("distsim-1600x50iters", |b| {
        b.iter(|| {
            simulate(
                black_box(&platform),
                &strips,
                DistSorConfig::new(1600, 50, 500.0),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_kernels,
    bench_sequential,
    bench_parallel_scaling,
    bench_distsim
);
criterion_main!(benches);
