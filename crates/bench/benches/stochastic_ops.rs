//! Criterion micro-benchmarks for the stochastic-value arithmetic: the
//! prediction pipeline evaluates thousands of these per forecast, so the
//! ops must stay allocation-free and branch-light.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use prodpred_stochastic::{max_of, Dependence, MaxStrategy, StochasticValue};

fn bench_arithmetic(c: &mut Criterion) {
    let a = StochasticValue::new(12.0, 0.6);
    let b = StochasticValue::new(5.0, 1.0);
    let mut group = c.benchmark_group("stochastic-arithmetic");
    group.bench_function("add_related", |bch| {
        bch.iter(|| black_box(a).add(&black_box(b), Dependence::Related))
    });
    group.bench_function("add_unrelated", |bch| {
        bch.iter(|| black_box(a).add(&black_box(b), Dependence::Unrelated))
    });
    group.bench_function("mul_related", |bch| {
        bch.iter(|| black_box(a).mul(&black_box(b), Dependence::Related))
    });
    group.bench_function("mul_unrelated", |bch| {
        bch.iter(|| black_box(a).mul(&black_box(b), Dependence::Unrelated))
    });
    group.bench_function("div_unrelated", |bch| {
        bch.iter(|| black_box(a).div(&black_box(b), Dependence::Unrelated))
    });
    group.finish();
}

fn bench_max_strategies(c: &mut Criterion) {
    let values: Vec<StochasticValue> = (0..16)
        .map(|i| StochasticValue::new(10.0 + i as f64 * 0.3, 0.5 + 0.1 * i as f64))
        .collect();
    let mut group = c.benchmark_group("max-strategies");
    group.bench_function("by_mean_16", |bch| {
        bch.iter(|| max_of(black_box(&values), MaxStrategy::ByMean))
    });
    group.bench_function("by_upper_bound_16", |bch| {
        bch.iter(|| max_of(black_box(&values), MaxStrategy::ByUpperBound))
    });
    group.bench_function("clark_16", |bch| {
        bch.iter(|| max_of(black_box(&values), MaxStrategy::Clark))
    });
    group.bench_function("monte_carlo_1k_16", |bch| {
        bch.iter(|| {
            max_of(
                black_box(&values),
                MaxStrategy::MonteCarlo {
                    samples: 1000,
                    seed: 1,
                },
            )
        })
    });
    // The shape a `/predict?max=mc:2000:<seed>` asks for: one maximum
    // over four strips. With one seed every call after the first reads
    // its variates from the thread's stream memo; a fresh seed per call
    // draws them all, as a client that never repeats a seed would.
    group.bench_function("monte_carlo_2k_4", |bch| {
        bch.iter(|| {
            max_of(
                black_box(&values[..4]),
                MaxStrategy::MonteCarlo {
                    samples: 2000,
                    seed: 1,
                },
            )
        })
    });
    let mut seed = 0;
    group.bench_function("monte_carlo_2k_4_fresh_seed", |bch| {
        bch.iter(|| {
            seed += 1;
            max_of(
                black_box(&values[..4]),
                MaxStrategy::MonteCarlo {
                    samples: 2000,
                    seed,
                },
            )
        })
    });
    group.finish();
}

fn bench_distributions(c: &mut Criterion) {
    use prodpred_stochastic::{Distribution, Normal};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let n = Normal::new(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(3);
    let mut group = c.benchmark_group("normal-distribution");
    group.bench_function("pdf", |bch| bch.iter(|| n.pdf(black_box(0.7))));
    group.bench_function("cdf", |bch| bch.iter(|| n.cdf(black_box(0.7))));
    group.bench_function("quantile", |bch| bch.iter(|| n.quantile(black_box(0.7))));
    group.bench_function("sample", |bch| bch.iter(|| n.sample(&mut rng)));
    group.finish();
}

criterion_group!(
    benches,
    bench_arithmetic,
    bench_max_strategies,
    bench_distributions
);
criterion_main!(benches);
