//! Criterion benchmark for the full prediction pipeline: NWS advance plus
//! a stochastic prediction — the cost a scheduler pays per decision — the
//! model work behind a service cache miss (the `try-predict` group), and
//! what it costs to put an answer on the wire (the `serialize` group: the
//! vendored `serde_json` on the two bodies the service writes, compact,
//! and on a `Trace` as an experiment artifact stores it, pretty).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use prodpred_core::{decompose, DecompositionPolicy, LoadSource, PredictorConfig, SorPredictor};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_service::{request_for, ServiceConfig, ServiceCore};
use prodpred_simgrid::{Platform, Trace};
use prodpred_sor::partition_equal;
use prodpred_stochastic::MaxStrategy;

fn bench_predict(c: &mut Criterion) {
    let platform = Platform::platform2(7, 20_000.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 2_000.0);
    let strips = decompose(&platform, 1600, DecompositionPolicy::DedicatedSpeed, None);
    let predictor = SorPredictor::new(&platform, &nws, PredictorConfig::default());

    c.bench_function("predict-1600-4procs", |b| {
        b.iter(|| predictor.predict(black_box(1600), black_box(&strips)))
    });

    c.bench_function("nws-advance-60s", |b| {
        let mut t = 2_000.0;
        b.iter(|| {
            t += 60.0;
            if t > 19_000.0 {
                t = 2_000.0;
            }
            nws.advance_to(&platform, black_box(t));
        })
    });
}

/// A cache miss's model work, by load source and `Max` strategy, against
/// a frozen snapshot as the service holds it.
fn bench_try_predict(c: &mut Criterion) {
    let platform = Platform::platform2(7, 2_000.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0);
    let snapshot = nws.snapshot(1);
    let strips = partition_equal(1598, 4);
    let mc2000 = MaxStrategy::MonteCarlo {
        samples: 2000,
        seed: 42,
    };

    let mut group = c.benchmark_group("try-predict");
    for (source, load_source) in [
        ("inst", LoadSource::Instantaneous),
        ("horizon", LoadSource::RunHorizon),
        ("modal", LoadSource::ModalAverage),
    ] {
        for (max, max_strategy) in [("by_mean", MaxStrategy::ByMean), ("mc2000", mc2000)] {
            let config = PredictorConfig {
                load_source,
                max_strategy,
                ..PredictorConfig::default()
            };
            let predictor = SorPredictor::new(&platform, &snapshot, config);
            group.bench_function(&format!("{source}/{max}"), |b| {
                b.iter(|| predictor.try_predict(black_box(1600), black_box(&strips)))
            });
        }
    }
    group.finish();
}

fn bench_serialize(c: &mut Criterion) {
    let core = ServiceCore::new(ServiceConfig {
        seed: 7,
        horizon: 2_000.0,
        warmup: 300.0,
        ..ServiceConfig::default()
    });
    let response = core.query(&request_for(7, 0)).expect("a replay request");
    let stats = core.stats();
    let trace = Trace::from_fn(0.0, 1.0, 2048, |t| 0.55 + 0.4 * (t * 0.013).sin());

    let mut group = c.benchmark_group("serialize");
    let bytes = |json: String| Throughput::Bytes(json.len() as u64);
    group.throughput(bytes(serde_json::to_string(&response).expect("finite")));
    group.bench_function("predict-response/compact", |b| {
        b.iter(|| serde_json::to_string(black_box(&response)))
    });
    group.throughput(bytes(serde_json::to_string(&stats).expect("finite")));
    group.bench_function("service-stats/compact", |b| {
        b.iter(|| serde_json::to_string(black_box(&stats)))
    });
    group.throughput(bytes(serde_json::to_string_pretty(&trace).expect("finite")));
    group.bench_function("trace-2048/pretty", |b| {
        b.iter(|| serde_json::to_string_pretty(black_box(&trace)))
    });
    group.finish();
}

criterion_group!(benches, bench_predict, bench_try_predict, bench_serialize);
criterion_main!(benches);
