//! Criterion benchmark for the full prediction pipeline: NWS advance plus
//! a stochastic prediction — the cost a scheduler pays per decision — and
//! what it costs to put an answer on the wire (the `serialize` group: the
//! vendored `serde_json` on the two bodies the service writes, compact,
//! and on a `Trace` as an experiment artifact stores it, pretty).

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use prodpred_core::{decompose, DecompositionPolicy, PredictorConfig, SorPredictor};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_service::{request_for, ServiceConfig, ServiceCore};
use prodpred_simgrid::{Platform, Trace};

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

criterion_group!(benches, bench_predict, bench_serialize);
criterion_main!(benches);
