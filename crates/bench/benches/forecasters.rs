//! Criterion benchmarks for the NWS forecaster ensemble. The tournament
//! keeps running scores: absorbing a sample steps every strategy once
//! (`tournament-observe`; the numbered cases clone a warm board per
//! sample, `warm-stream` carries one board over 256 samples, which is
//! what a sensor does — the windowed strategies slide a sorted window
//! there and nothing allocates), reading the winner evaluates none
//! (`tournament-best`), and replaying a whole series — a ring eviction,
//! or `AdaptiveForecaster::forecast` — is linear in it
//! (`adaptive-forecast`). `postcast-mse-256` is the quadratic prefix walk
//! the scores replace.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prodpred_nws::forecast::{
    postcast_mse, AdaptiveForecaster, ExpSmoothing, LastValue, Scoreboard,
};
use prodpred_nws::TimeSeries;
use prodpred_simgrid::load::{LoadGenerator, MarkovModal};

fn series_of(len: usize) -> TimeSeries {
    let trace = MarkovModal::platform2(25.0).generate(1, 0.0, 5.0, len);
    let mut s = TimeSeries::new(len);
    for (i, &v) in trace.values().iter().enumerate() {
        s.push(i as f64 * 5.0, v);
    }
    s
}

fn bench_adaptive(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive-forecast");
    for len in [32usize, 128, 512, 4096] {
        let series = series_of(len);
        let ens = AdaptiveForecaster::standard();
        group.bench_with_input(BenchmarkId::from_parameter(len), &series, |b, s| {
            b.iter(|| ens.forecast(black_box(s)))
        });
    }
    group.finish();
}

fn bench_running_scores(c: &mut Criterion) {
    let ens = AdaptiveForecaster::standard();
    let mut observe = c.benchmark_group("tournament-observe");
    for len in [32usize, 128, 512] {
        let history = series_of(len).values();
        let mut warm = Scoreboard::default();
        ens.replay(&mut warm, &history[..len - 1]);
        observe.bench_with_input(BenchmarkId::from_parameter(len), &history, |b, h| {
            b.iter(|| {
                let mut board = warm.clone();
                ens.observe(&mut board, black_box(h));
                board
            })
        });
    }
    // Every window full (the longest is 24), then a stream of samples on
    // the same board; the one clone is spread over the stream.
    let (warm_len, stream) = (64usize, 256usize);
    let history = series_of(warm_len + stream).values();
    let mut warm = Scoreboard::default();
    ens.replay(&mut warm, &history[..warm_len]);
    observe.throughput(Throughput::Elements(stream as u64));
    observe.bench_with_input(BenchmarkId::new("warm-stream", stream), &history, |b, h| {
        b.iter(|| {
            let mut board = warm.clone();
            for end in warm_len + 1..=h.len() {
                ens.observe(&mut board, black_box(&h[..end]));
            }
            board
        })
    });
    observe.finish();

    let mut board = Scoreboard::default();
    ens.replay(&mut board, &series_of(512).values());
    c.bench_function("tournament-best", |b| b.iter(|| black_box(&board).best()));
}

fn bench_single_strategies(c: &mut Criterion) {
    let series = series_of(256);
    let history = series.values();
    let mut group = c.benchmark_group("postcast-mse-256");
    group.bench_function("last-value", |b| {
        b.iter(|| postcast_mse(&LastValue, black_box(&history)))
    });
    group.bench_function("exp-smoothing", |b| {
        b.iter(|| postcast_mse(&ExpSmoothing::new(0.3), black_box(&history)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_adaptive,
    bench_running_scores,
    bench_single_strategies
);
criterion_main!(benches);
