//! Criterion benchmarks for `Trace` integration: the O(1) prefix-integral
//! path and the forward-searching `time_to_complete` on production-scale
//! (hour-long, one-second-step) traces — and by how far
//! away the work ends (`near` / `mid` / `far`: the same step or the next,
//! a few dozen steps on, thousands of steps on or past the horizon), since
//! the search gallops from where the work starts and `far` is its worst
//! case: about twice the probes of a search over the whole array. Plus what it
//! costs to generate the traces in the first place: a Platform-2 at about
//! the reach of a long preset series and at the 60 000 s the presets once
//! generated, beside whole preset experiments, whose platforms grow with
//! their clock.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prodpred_core::{platform1_experiment, platform2_experiment};
use prodpred_simgrid::{Platform, Trace};

/// An hour of one-second availability samples with realistic structure:
/// a slow diurnal-ish drift modulated by a faster oscillation.
fn hour_trace(steps: usize) -> Trace {
    Trace::from_fn(0.0, 1.0, steps, |t| {
        0.55 + 0.4 * (t * 0.013).sin() * (t * 0.0007).cos()
    })
}

/// Query windows spread across the horizon, most spanning hundreds of
/// steps.
fn windows(horizon: f64) -> Vec<(f64, f64)> {
    (0..256)
        .map(|i| {
            let a = (i % 617) as f64 * (horizon / 617.0) * 0.9 - 100.0;
            let b = a + 40.0 + (i % 251) as f64 * (horizon / 300.0);
            (a, b)
        })
        .collect()
}

fn bench_integral(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-integral");
    for steps in [600usize, 3600] {
        let trace = hour_trace(steps);
        let qs = windows(steps as f64);
        group.throughput(Throughput::Elements(qs.len() as u64));
        group.bench_with_input(BenchmarkId::new("prefix", steps), &trace, |b, trace| {
            b.iter(|| {
                let mut acc = 0.0;
                for &(x, y) in &qs {
                    acc += trace.integral(x, y);
                }
                black_box(acc)
            })
        });
    }
    group.finish();
}

fn bench_time_to_complete(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace-time-to-complete");
    for steps in [600usize, 3600] {
        let trace = hour_trace(steps);
        let qs = windows(steps as f64);
        group.throughput(Throughput::Elements(qs.len() as u64));
        group.bench_with_input(BenchmarkId::new("search", steps), &trace, |b, trace| {
            b.iter(|| {
                let mut acc = 0.0;
                for &(x, y) in &qs {
                    acc += trace.time_to_complete(x.max(0.0), y.max(1.0));
                }
                black_box(acc)
            })
        });
    }
    // By distance: about the reach of a long preset series and the horizon
    // the presets once generated, work that ends 0.3 s, 20 s and 5 000 s
    // of dedicated time after it starts.
    for steps in [2_048usize, 60_000] {
        let trace = hour_trace(steps);
        let starts: Vec<f64> = (0..256)
            .map(|i| i as f64 * (steps as f64 * 0.8 / 256.0) + 0.37)
            .collect();
        group.throughput(Throughput::Elements(starts.len() as u64));
        for (distance, work) in [("near", 0.3), ("mid", 20.0), ("far", 5_000.0)] {
            group.bench_with_input(BenchmarkId::new(distance, steps), &trace, |b, trace| {
                b.iter(|| {
                    let mut acc = 0.0;
                    for &t in &starts {
                        acc += trace.time_to_complete(t, black_box(work));
                    }
                    black_box(acc)
                })
            });
        }
    }
    group.finish();
}

fn bench_platform_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("platform-generation");
    for horizon in [2_048usize, 60_000] {
        group.bench_with_input(
            BenchmarkId::new("platform2", horizon),
            &(horizon as f64),
            |b, &horizon| b.iter(|| black_box(Platform::platform2(black_box(42), horizon))),
        );
    }
    group.bench_function("platform1_experiment/3sizes", |b| {
        b.iter(|| black_box(platform1_experiment(black_box(42), &[1000, 1600, 2000])))
    });
    for n in [1000, 1600] {
        group.bench_function(&format!("platform2_experiment/{n}x10"), |b| {
            b.iter(|| black_box(platform2_experiment(black_box(42), n, 10)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_integral,
    bench_time_to_complete,
    bench_platform_generation
);
criterion_main!(benches);
