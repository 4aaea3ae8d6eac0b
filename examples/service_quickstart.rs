//! Prediction-as-a-service in five minutes — entirely in-process.
//!
//! Builds the service core the `serviced` daemon wraps, drives its HTTP
//! surface through the socket-free [`prodpred_service::handle`] layer,
//! and shows the two mechanics that make the query path fast and sound:
//!
//! 1. identical queries hit the **prediction cache** and return the
//!    bit-identical answer without re-running the model;
//! 2. an **ingest tick** publishes a fresh forecast snapshot under a new
//!    epoch and drops every cached prediction wholesale — stale
//!    forecasts are never served.
//!
//! Run with: `cargo run --bin service_quickstart`
//!
//! To see the same surface over real sockets, boot the daemon instead:
//! `cargo run -p prodpred-service --bin serviced` and
//! `curl 'http://127.0.0.1:8017/predict?platform=2&n=1600&procs=4'`.

use prodpred_service::{handle, PredictRequest, ServiceConfig, ServiceCore};

fn main() {
    // The daemon's core: two simulated testbeds, sensors warmed up to
    // t = 600 s, snapshot epoch 1 published for both. Everything below
    // is a deterministic function of this configuration.
    let core = ServiceCore::new(ServiceConfig {
        seed: 42,
        ..ServiceConfig::default()
    });

    println!("== the HTTP surface, without a socket ==");
    for target in [
        "/health",
        "/predict?platform=2&n=1600&procs=4",
        "/predict?platform=2&n=1600&procs=4", // identical: served by the cache
        "/predict?platform=1&n=600&procs=2&source=modal&iters=40",
        "/predict?platform=2&n=1600&procs=4&fault_intensity=0.5", // what-if degraded
        "/predict?platform=1&n=600&procs=0",                      // rejected before the model runs
    ] {
        let response = handle(&core, target);
        println!("GET {target}\n  -> {} {}", response.status, response.body);
    }

    println!("\n== cache mechanics ==");
    let req = PredictRequest {
        platform: 2,
        n: 1000,
        procs: 4,
        config: Default::default(),
        fault_intensity: None,
    };
    let miss = core.query(&req).expect("fresh query");
    let hit = core.query(&req).expect("cached query");
    println!(
        "epoch {}: miss {:.2}s [{:.2}, {:.2}] (cache_hit={}), then hit (cache_hit={})",
        miss.epoch, miss.mean, miss.lo, miss.hi, miss.cache_hit, hit.cache_hit
    );
    assert_eq!(miss.mean.to_bits(), hit.mean.to_bits());

    // One ingest tick: sensors advance 5 simulated seconds, a new
    // immutable snapshot is published via the epoch swap (readers never
    // block), and the whole cache is invalidated.
    core.ingest_tick();
    let epoch = core.epoch();
    let fresh = core.query(&req).expect("post-tick query");
    println!(
        "after tick -> epoch {epoch}: same query recomputes (cache_hit={}) as {:.2}s",
        fresh.cache_hit, fresh.mean
    );
    assert_eq!(fresh.epoch, epoch);
    assert!(!fresh.cache_hit);

    let stats = core.stats();
    println!(
        "\nstats: {} queries, {} rejected, {} hits / {} misses, {} invalidated on epoch bumps",
        stats.queries,
        stats.rejected,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.invalidated
    );
}
