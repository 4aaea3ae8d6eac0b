//! Service-chaos campaign: the gate behind the committed
//! `BENCH_servicechaos.json`.
//!
//! Replays the seeded 192-config request stream against an in-process
//! [`prodpred_service::ServiceCore`] whose NWS ingest is hammered by an
//! injected fault schedule (dropout, delay, spikes, corruption, and
//! blackout windows — including one long enough to exhaust the retry
//! budget and trip the watchdog/breaker). Two arms run under the
//! identical schedule:
//!
//! * **supervised** — the resilience layer on: retry ride-through on
//!   the simulated clock, breaker + no-publish watchdog, degraded-mode
//!   serving with age-widened intervals, bounded admission (so cache
//!   misses shed under the post-publish cold-cache burst);
//! * **unsupervised** — the fault-blind baseline: no retries, no
//!   breaker, fresh-data-only serving (stale snapshots refuse with
//!   503), unbounded admission.
//!
//! Before measuring, the cached==uncached soundness gate is extended to
//! degraded responses: a core is driven into a non-Healthy state and
//! every distinct request config must answer bit-identically through
//! the cached, uncached, and widened paths.
//!
//! The supervised arm's availability is *predicted first* by
//! [`prodpred_service::predict_availability`] — the same
//! retry/breaker/watchdog recurrence run as a DP over the fault
//! schedule, mirroring how `faultpred_study` predicts runtimes before
//! measuring them — and the measured value is gated against it.
//!
//! Usage: `cargo run --release --bin service_chaos [ticks]
//! [queries_per_tick] [output.json]` — defaults 400 ticks, 50
//! queries/tick, `target/tmp/BENCH_servicechaos.json`. The record's
//! gate (`prodpred_bench::records`) is applied only at full scale
//! (`ticks >= 300`); reduced-scale smoke runs exercise the machinery
//! without the sampling-sensitive bounds.

use std::collections::HashSet;
use std::time::Instant;

use prodpred_bench::records::Record;
use prodpred_core::supervisor::RetryPolicy;
use prodpred_service::replay::{percentile_us, request_for, DISTINCT_REQUESTS};
use prodpred_service::{
    predict_availability, AdmissionConfig, ChaosArm, ChaosReport, PredictResponse,
    ResilienceConfig, ServiceConfig, ServiceCore, ServiceError,
};
use prodpred_simgrid::faults::FaultConfig;

const SEED: u64 = 42;
const WARMUP: f64 = 600.0;
const HORIZON: f64 = 20_000.0;
const PUBLISH_INTERVAL: f64 = 5.0;
/// The NWS sensors' poll cadence (`INTERVAL` in `nws::service`) — the
/// cadence the availability DP mirrors.
const POLL_INTERVAL: f64 = 5.0;

/// The campaign's fault schedule: a steady drizzle of per-poll faults
/// plus three blackouts — two short ones the retry budget rides through
/// inside a single tick, and one 1000 s outage that exhausts retries,
/// wakes the watchdog, and exercises the breaker's cooldown/probe loop.
fn chaos_faults() -> FaultConfig {
    let mut f = FaultConfig::none(SEED);
    f.dropout = 0.08;
    f.delay = 0.05;
    f.max_delay_intervals = 3;
    f.spike = 0.04;
    f.spike_factor = 3.0;
    f.corrupt = 0.03;
    f.blackouts = vec![(900.0, 1020.0), (1500.0, 1620.0), (2200.0, 3200.0)];
    f
}

/// The supervised arm's knobs: defaults, a snappier breaker cooldown
/// (30 s = 6 short-circuited ticks per trip), and a miss budget tight
/// enough that the post-publish cold-cache burst sheds.
fn supervised_resilience() -> ResilienceConfig {
    ResilienceConfig {
        breaker_cooldown_secs: 30.0,
        admission: AdmissionConfig {
            miss_tokens_per_tick: 40,
        },
        ..ResilienceConfig::default()
    }
}

/// Soundness gate, extended to degraded responses: drive a core into a
/// degraded serving state (permanent blackout, no retries, escalation
/// held off) and require the cached and uncached paths to agree bit for
/// bit — widened intervals included — for every distinct config in the
/// stream. Returns the number of configs checked.
fn degraded_soundness() -> u64 {
    let mut fault = FaultConfig::none(SEED);
    fault.blackouts.push((WARMUP, f64::MAX));
    let core = ServiceCore::new(ServiceConfig {
        seed: SEED,
        horizon: HORIZON,
        warmup: WARMUP,
        fault: Some(fault),
        resilience: ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            watchdog_ticks: u64::MAX,
            stale_age_ticks: u64::MAX,
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    });
    for _ in 0..3 {
        core.ingest_tick(); // three failed ticks: age 3, Degraded
    }
    let mut checked = HashSet::new();
    let mut index = 0u64;
    while checked.len() < DISTINCT_REQUESTS && index < 50_000 {
        let req = request_for(SEED, index);
        index += 1;
        if !checked.insert(format!("{req:?}")) {
            continue;
        }
        let uncached = core.query_uncached(&req).expect("uncached query failed");
        core.query(&req).expect("populating query failed");
        let cached = core.query(&req).expect("cached query failed");
        assert!(cached.cache_hit, "second identical query missed the cache");
        assert!(
            cached.degraded && uncached.degraded,
            "soundness run must exercise the degraded path for {req:?}"
        );
        assert_eq!(cached.serving, uncached.serving);
        assert_eq!(cached.snapshot_age_ticks, uncached.snapshot_age_ticks);
        let bits = |r: &PredictResponse| [r.mean, r.lo, r.hi, r.point].map(f64::to_bits);
        assert_eq!(
            bits(&uncached),
            bits(&cached),
            "degraded cached diverges from uncached for {req:?}"
        );
    }
    checked.len() as u64
}

/// Runs one arm of the campaign: `ticks` ingest ticks under the chaos
/// schedule, `queries_per_tick` seeded queries between consecutive
/// ticks (single client thread, so shed/unavailable counts are
/// deterministic), statuses and latency tallied per query.
fn run_arm(resilience: ResilienceConfig, ticks: u64, queries_per_tick: u64) -> ChaosArm {
    let core = ServiceCore::new(ServiceConfig {
        seed: SEED,
        horizon: HORIZON,
        warmup: WARMUP,
        fault: Some(chaos_faults()),
        resilience,
        ..ServiceConfig::default()
    });
    let epoch_before = core.epoch();
    let requests = ticks * queries_per_tick;
    let mut latencies: Vec<u64> = Vec::with_capacity(requests as usize);
    let (mut ok, mut degraded, mut shed, mut unavailable) = (0u64, 0u64, 0u64, 0u64);
    for tick in 0..ticks {
        core.ingest_tick();
        for j in 0..queries_per_tick {
            let req = request_for(SEED, tick * queries_per_tick + j);
            let t0 = Instant::now();
            let outcome = core.query(&req);
            latencies.push(t0.elapsed().as_micros() as u64);
            match outcome {
                Ok(r) => {
                    ok += 1;
                    if r.degraded {
                        degraded += 1;
                    }
                }
                Err(ServiceError::Unavailable { .. }) => unavailable += 1,
                Err(ServiceError::Overloaded { .. }) => shed += 1,
                Err(e) => panic!("unexpected query error: {e}"),
            }
        }
    }
    let stats = core.stats();
    ChaosArm {
        requests,
        ok,
        degraded,
        shed,
        unavailable,
        availability: 1.0 - unavailable as f64 / requests.max(1) as f64,
        degraded_fraction: degraded as f64 / ok.max(1) as f64,
        shed_rate: shed as f64 / requests.max(1) as f64,
        p99_us: percentile_us(&mut latencies, 0.99),
        epochs_published: core.epoch() - epoch_before,
        ingest_failures: stats.ingest.failures,
        ingest_retries: stats.ingest.retries,
        breaker_trips: stats.ingest.breaker_trips,
        watchdog_trips: stats.ingest.watchdog_trips,
    }
}

fn main() {
    let ticks: u64 = prodpred_bench::arg_or(1, "ticks", 400);
    let queries_per_tick: u64 = prodpred_bench::arg_or(2, "queries_per_tick", 50);

    let soundness_checked_configs = degraded_soundness();
    eprintln!("soundness: {soundness_checked_configs} configs degraded cached == uncached bitwise");

    // Predict before measuring (the faultpred discipline): the DP runs
    // the same tick/retry/breaker/watchdog recurrence over the schedule.
    let predicted = predict_availability(
        &chaos_faults(),
        &supervised_resilience(),
        PUBLISH_INTERVAL,
        POLL_INTERVAL,
        WARMUP,
        HORIZON,
        ticks,
    );
    eprintln!(
        "predicted (supervised): availability {:.4}, degraded fraction {:.3}, \
         {} published / {} failed / {} short-circuited ticks",
        predicted.availability,
        predicted.degraded_fraction,
        predicted.published_ticks,
        predicted.failed_ticks,
        predicted.short_circuited_ticks,
    );

    let supervised = run_arm(supervised_resilience(), ticks, queries_per_tick);
    let unsupervised = run_arm(ResilienceConfig::unsupervised(), ticks, queries_per_tick);

    let availability_error = (predicted.availability - supervised.availability).abs();
    let report = ChaosReport {
        seed: SEED,
        ticks,
        queries_per_tick,
        soundness_checked_configs,
        supervised,
        unsupervised,
        predicted_availability: predicted.availability,
        availability_error,
    };

    let out = report
        .write(std::env::args().nth(3))
        .expect("write the record");
    eprintln!("service_chaos: wrote {out}");
}
