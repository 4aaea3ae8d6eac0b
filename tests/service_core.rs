//! Tier-1 coverage of the prediction service, end to end, with zero
//! real I/O: epoch publication, cache invalidation and eviction,
//! concurrent reader storms pinned bit-identical to the uncached path,
//! and the full HTTP routing surface driven through the socket-free
//! [`prodpred_service::handle`] layer.

use prodpred_service::{
    handle, request_for, request_path, CacheConfig, PredictResponse, ServiceConfig, ServiceCore,
};
use std::sync::Arc;

const SEED: u64 = 17;

fn small_config() -> ServiceConfig {
    ServiceConfig {
        seed: SEED,
        horizon: 2400.0,
        warmup: 300.0,
        publish_interval: 5.0,
        ..ServiceConfig::default()
    }
}

fn bits(r: &PredictResponse) -> (u64, u64, u64, u64, u64) {
    (
        r.mean.to_bits(),
        r.lo.to_bits(),
        r.hi.to_bits(),
        r.point.to_bits(),
        r.epoch,
    )
}

#[test]
fn epoch_bump_invalidates_every_stale_entry() {
    let core = ServiceCore::new(small_config());
    // Populate the cache with a spread of distinct configurations.
    for i in 0..64 {
        core.query(&request_for(SEED, i)).unwrap();
    }
    let populated = core.stats();
    assert!(populated.cache.entries > 10, "cache never populated");

    let epoch = core.ingest_tick();
    let after = core.stats();
    assert_eq!(after.cache.entries, 0, "stale entries survived the bump");
    assert_eq!(
        after.cache.invalidated, populated.cache.entries,
        "invalidation count must equal the dropped population"
    );

    // Re-issuing the same stream: every distinct configuration must miss
    // once (no stale entry can answer), then duplicates hit the freshly
    // repopulated epoch — so the hit/miss structure of the first pass
    // repeats exactly.
    for i in 0..64 {
        let r = core.query(&request_for(SEED, i)).unwrap();
        assert_eq!(r.epoch, epoch);
    }
    let refreshed = core.stats();
    assert_eq!(
        refreshed.cache.hits,
        2 * populated.cache.hits,
        "a post-bump query hit a stale entry"
    );
    assert_eq!(refreshed.cache.misses, 2 * populated.cache.misses);
    assert_eq!(refreshed.cache.entries, populated.cache.entries);
}

#[test]
fn bounded_eviction_is_deterministic_across_runs() {
    let tiny = ServiceConfig {
        cache: CacheConfig {
            capacity: 16,
            shards: 4,
        },
        ..small_config()
    };
    let run = || {
        let core = ServiceCore::new(tiny.clone());
        let mut responses = Vec::new();
        for i in 0..400 {
            responses.push(bits(&core.query(&request_for(SEED, i)).unwrap()));
        }
        let s = core.stats();
        (
            responses,
            s.cache.hits,
            s.cache.misses,
            s.cache.evicted,
            s.cache.entries,
        )
    };
    let (answers_a, hits_a, misses_a, evicted_a, entries_a) = run();
    let (answers_b, hits_b, misses_b, evicted_b, entries_b) = run();
    assert!(
        evicted_a > 0,
        "a 16-entry cache must evict under 400 queries"
    );
    // The core holds one 16-entry cache per hosted platform.
    assert!(entries_a <= 32);
    assert_eq!(answers_a, answers_b, "answers depend on eviction history");
    assert_eq!(
        (hits_a, misses_a, evicted_a, entries_a),
        (hits_b, misses_b, evicted_b, entries_b),
        "cache dynamics are not deterministic"
    );
}

#[test]
fn eviction_never_changes_answers() {
    // Same query stream against an unbounded and a tiny cache: identical
    // answers, bit for bit — eviction only costs recomputation.
    let roomy = ServiceCore::new(small_config());
    let tiny = ServiceCore::new(ServiceConfig {
        cache: CacheConfig {
            capacity: 8,
            shards: 2,
        },
        ..small_config()
    });
    for i in 0..300 {
        let req = request_for(SEED, i);
        assert_eq!(
            bits(&roomy.query(&req).unwrap()),
            bits(&tiny.query(&req).unwrap()),
            "request {i} diverged under eviction pressure"
        );
    }
    assert!(tiny.stats().cache.evicted > 0);
}

/// The acceptance pin: a storm of concurrent readers, at every pool
/// width, produces answers bit-identical to the single-threaded
/// uncached reference path.
#[test]
fn reader_storm_is_bit_identical_to_uncached_at_every_width() {
    const REQUESTS: u64 = 240;

    // Reference: fresh core, cache bypassed entirely.
    let reference_core = ServiceCore::new(small_config());
    let reference: Vec<_> = (0..REQUESTS)
        .map(|i| {
            bits(
                &reference_core
                    .query_uncached(&request_for(SEED, i))
                    .unwrap(),
            )
        })
        .collect();

    for threads in [1usize, 2, 4, 8] {
        let core = Arc::new(ServiceCore::new(small_config()));
        let mut answers = vec![None; REQUESTS as usize];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let core = Arc::clone(&core);
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        let mut i = t as u64;
                        while i < REQUESTS {
                            let r = core.query(&request_for(SEED, i)).unwrap();
                            mine.push((i as usize, bits(&r)));
                            i += threads as u64;
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (i, b) in h.join().unwrap() {
                    answers[i] = Some(b);
                }
            }
        });
        let answers: Vec<_> = answers.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            answers, reference,
            "{threads}-thread storm diverged from the uncached reference"
        );
        let s = core.stats();
        assert!(
            s.cache.hits > 0,
            "{threads}-thread storm never hit the cache"
        );
        assert_eq!(s.cache.hits + s.cache.misses, REQUESTS);
    }
}

/// Fault-aware twin of the reader-storm pin: degraded queries, at every
/// pool width and a spread of intensities, stay bit-identical to the
/// single-threaded uncached reference — the degradation terms are pure,
/// so the cache soundness argument carries over unchanged.
#[test]
fn faulted_reader_storm_is_bit_identical_to_uncached() {
    const REQUESTS: u64 = 120;
    const INTENSITIES: [f64; 3] = [0.0, 0.4, 1.0];

    let faulted = |i: u64| {
        let mut req = request_for(SEED, i);
        req.fault_intensity = Some(INTENSITIES[(i % INTENSITIES.len() as u64) as usize]);
        req
    };

    let reference_core = ServiceCore::new(small_config());
    let reference: Vec<_> = (0..REQUESTS)
        .map(|i| bits(&reference_core.query_uncached(&faulted(i)).unwrap()))
        .collect();

    for threads in [1usize, 4] {
        let core = Arc::new(ServiceCore::new(small_config()));
        let mut answers = vec![None; REQUESTS as usize];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let core = Arc::clone(&core);
                    let faulted = &faulted;
                    scope.spawn(move || {
                        let mut mine = Vec::new();
                        let mut i = t as u64;
                        while i < REQUESTS {
                            let r = core.query(&faulted(i)).unwrap();
                            mine.push((i as usize, bits(&r)));
                            i += threads as u64;
                        }
                        mine
                    })
                })
                .collect();
            for h in handles {
                for (i, b) in h.join().unwrap() {
                    answers[i] = Some(b);
                }
            }
        });
        let answers: Vec<_> = answers.into_iter().map(Option::unwrap).collect();
        assert_eq!(
            answers, reference,
            "{threads}-thread faulted storm diverged from the uncached reference"
        );
        let s = core.stats();
        assert!(s.cache.hits > 0, "faulted storm never hit the cache");
    }
}

#[test]
fn readers_survive_a_concurrent_ingest_writer() {
    // Queries racing epoch bumps: every answer must be Ok, carry an
    // epoch that was actually published, and be internally coherent.
    // Epochs are monotone per platform — what `EpochSwap` guarantees. A
    // tick publishes platform 1 and then platform 2, so a reader that
    // alternates platforms rightly sees `e + 1` and then `e` meanwhile.
    let core = Arc::new(ServiceCore::new(small_config()));
    let first_epoch = core.epoch();
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|t| {
                let core = Arc::clone(&core);
                scope.spawn(move || {
                    let mut last_epoch = [0; 2];
                    for i in 0..200u64 {
                        let r = core.query(&request_for(SEED + t, i)).unwrap();
                        let last = &mut last_epoch[usize::from(r.platform - 1)];
                        assert!(r.epoch >= first_epoch);
                        assert!(
                            r.epoch >= *last,
                            "platform {} epoch went backwards",
                            r.platform
                        );
                        assert!(r.lo <= r.mean && r.mean <= r.hi);
                        *last = r.epoch;
                    }
                    last_epoch
                })
            })
            .collect();
        let writer = {
            let core = Arc::clone(&core);
            scope.spawn(move || {
                for _ in 0..40 {
                    core.ingest_tick();
                    std::thread::yield_now();
                }
            })
        };
        writer.join().unwrap();
        for r in readers {
            let last = r.join().unwrap();
            assert!(last.iter().all(|&e| e <= core.epoch()));
        }
    });
    assert_eq!(core.epoch(), first_epoch + 40);
    assert_eq!(core.stats().rejected, 0);
}

#[test]
fn http_surface_end_to_end_without_sockets() {
    let core = ServiceCore::new(small_config());

    let health = handle(&core, "/health");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"epoch\":1"), "{}", health.body);

    // The exact replay paths the bench and CI smoke put on the wire.
    for i in 0..50 {
        let path = request_path(SEED, i);
        let response = handle(&core, &path);
        assert_eq!(response.status, 200, "{path} -> {}", response.body);
        let parsed: PredictResponse = serde_json::from_str(&response.body).unwrap();
        let direct = core.query(&request_for(SEED, i)).unwrap();
        assert_eq!(
            parsed.mean.to_bits(),
            direct.mean.to_bits(),
            "HTTP answer diverges from the core for {path}"
        );
    }

    let metrics = handle(&core, "/metrics");
    assert_eq!(metrics.status, 200);
    let stats: prodpred_service::ServiceStats = serde_json::from_str(&metrics.body).unwrap();
    assert!(stats.queries >= 100);
    assert!(stats.cache.hits > 0);

    // The wire rendering carries the body it says it does.
    let wire = handle(&core, "/health").render();
    let body = wire.split("\r\n\r\n").nth(1).unwrap();
    let advertised: usize = wire
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(advertised, body.len());

    assert_eq!(
        handle(&core, "/predict?platform=9&n=600&procs=2").status,
        404
    );
    assert_eq!(handle(&core, "/predict?platform=1&n=2&procs=2").status, 400);
    assert_eq!(handle(&core, "/missing").status, 404);

    // The fault surface over HTTP: bad intensities become typed 400s
    // (never a panic in the daemon), valid ones degrade the answer.
    for bad in ["NaN", "inf", "-0.5", "2"] {
        let target = format!("/predict?platform=2&n=1600&procs=4&fault_intensity={bad}");
        assert_eq!(handle(&core, &target).status, 400, "fault_intensity={bad}");
    }
    let healthy: PredictResponse =
        serde_json::from_str(&handle(&core, "/predict?platform=2&n=1600&procs=4").body).unwrap();
    let degraded: PredictResponse = serde_json::from_str(
        &handle(
            &core,
            "/predict?platform=2&n=1600&procs=4&fault_intensity=0.8",
        )
        .body,
    )
    .unwrap();
    assert_eq!(degraded.fault_intensity, Some(0.8));
    assert!(degraded.mean > healthy.mean);
    assert!(degraded.hi - degraded.lo > healthy.hi - healthy.lo);
}

#[test]
fn snapshot_answers_match_live_service_at_capture_time() {
    // The frozen snapshot feeding the service must reproduce the live
    // predictor bit-for-bit at the instant of capture — the property
    // that makes serving from a snapshot sound.
    use prodpred_core::{PredictorConfig, SorPredictor};
    use prodpred_nws::{NwsConfig, NwsService};
    use prodpred_simgrid::Platform;
    use prodpred_sor::decomp::partition_equal;

    let platform = Platform::platform2(SEED, 1500.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 900.0);
    let snapshot = nws.snapshot(1);

    for n in [400usize, 1000, 1600] {
        let strips = partition_equal(n - 2, 4);
        let config = PredictorConfig::default();
        let live = SorPredictor::try_new(&platform, &nws, config)
            .unwrap()
            .try_predict(n, &strips)
            .unwrap();
        let frozen = SorPredictor::try_new(&platform, &snapshot, config)
            .unwrap()
            .try_predict(n, &strips)
            .unwrap();
        assert_eq!(
            live.stochastic.mean().to_bits(),
            frozen.stochastic.mean().to_bits()
        );
        assert_eq!(
            live.stochastic.half_width().to_bits(),
            frozen.stochastic.half_width().to_bits()
        );
        assert_eq!(live.point.to_bits(), frozen.point.to_bits());
    }
}

/// Integration cross-check of the chaos methodology: the availability
/// DP and a real supervised core, run over the same fault schedule,
/// must agree tick for tick on ingest outcomes. The schedule includes a
/// long outage so the retry budget, watchdog, breaker cooldown, and
/// half-open probe all participate.
#[test]
fn availability_prediction_matches_a_supervised_core_tick_for_tick() {
    use prodpred_service::{predict_availability, ResilienceConfig, ServingState};
    use prodpred_simgrid::faults::FaultConfig;

    let warmup = 600.0;
    let ticks = 60u64;
    let mut fault = FaultConfig::none(SEED);
    fault.blackouts.push((650.0, 3000.0));
    let resilience = ResilienceConfig::default();

    let predicted = predict_availability(&fault, &resilience, 5.0, 5.0, warmup, 20_000.0, ticks);

    let core = ServiceCore::new(ServiceConfig {
        seed: SEED,
        horizon: 20_000.0,
        warmup,
        fault: Some(fault),
        resilience,
        ..ServiceConfig::default()
    });
    let mut unavailable_ticks = 0u64;
    for _ in 0..ticks {
        core.ingest_tick();
        if core.serving(1).unwrap() == ServingState::Unavailable {
            unavailable_ticks += 1;
        }
    }
    let stats = core.stats();

    // Ingest stats merge both platforms; the DP models one. The +1 on
    // publishes is the warmup tick, which the DP accounts separately.
    assert_eq!(stats.ingest.publishes, 2 * (predicted.published_ticks + 1));
    assert_eq!(stats.ingest.failures, 2 * predicted.failed_ticks);
    assert_eq!(
        stats.ingest.breaker_short_circuits,
        2 * predicted.short_circuited_ticks
    );
    assert_eq!(unavailable_ticks, predicted.unavailable_ticks);
    // The outage is long enough that every stage fired at least once.
    assert!(predicted.failed_ticks > 0, "{predicted:?}");
    assert!(predicted.short_circuited_ticks > 0, "{predicted:?}");
    assert!(stats.ingest.watchdog_trips > 0, "{stats:?}");
    // And the measured per-tick availability equals the DP's.
    let measured = 1.0 - unavailable_ticks as f64 / ticks as f64;
    assert_eq!(measured.to_bits(), predicted.availability.to_bits());
}

/// Every outcome of a supervised core's ingest, tick by tick, over a
/// schedule built to reach each branch of the supervision recurrence: a
/// short blackout the retry budget rides through inside one tick, a long
/// one that exhausts ticks until the watchdog trips the breaker, the
/// short-circuited cooldown, half-open probes that fail and one that
/// succeeds, dropout for partial publishes, and a horizon the last ticks
/// clamp against. `golden/supervised_ingest.txt` holds the `Debug` string
/// of every `ingest_tick_report()`, what a query saw after it, and the
/// final `IngestStats`, taken before the recurrence was written once.
#[test]
fn supervised_ingest_is_pinned_tick_for_tick() {
    use prodpred_core::RetryPolicy;
    use prodpred_service::{IngestOutcome, ResilienceConfig};
    use prodpred_simgrid::faults::FaultConfig;
    use std::fmt::Write;

    const GOLDEN: &str = include_str!("golden/supervised_ingest.txt");

    let mut fault = FaultConfig::none(SEED);
    fault.dropout = 0.3;
    fault.blackouts = vec![(322.0, 348.0), (401.0, 633.0)];
    let core = ServiceCore::new(ServiceConfig {
        seed: SEED,
        horizon: 700.0,
        warmup: 300.0,
        publish_interval: 5.0,
        fault: Some(fault),
        resilience: ResilienceConfig {
            retry: RetryPolicy {
                max_retries: 2,
                base_backoff_secs: 10.0,
                backoff_factor: 2.0,
                max_backoff_secs: 600.0,
                jitter_fraction: 0.1,
                seed: SEED,
            },
            breaker_threshold: 6,
            breaker_cooldown_secs: 37.0,
            watchdog_ticks: 3,
            ..ResilienceConfig::default()
        },
        ..ServiceConfig::default()
    });

    let mut actual = String::new();
    let mut reports = Vec::new();
    for tick in 1..=60 {
        let report = core.ingest_tick_report();
        // What a client of platform 1 sees after the tick: the clock the
        // served snapshot froze at and its age, or the typed refusal
        // with its Retry-After hint.
        let seen = match core.query_uncached(&request_for(SEED, 0)) {
            Ok(r) => format!(
                "{:?} captured_at={:?} age={}",
                r.serving, r.captured_at, r.snapshot_age_ticks
            ),
            Err(e) => e.to_string(),
        };
        writeln!(actual, "tick {tick}: {report:?} -> {seen}").unwrap();
        reports.push(report[0]);
    }
    let stats = core.stats().ingest;
    writeln!(actual, "{stats:?}").unwrap();

    // The schedule reaches what it was built to reach.
    let rode_through =
        |o: &IngestOutcome| matches!(o, IngestOutcome::Published { retries, .. } if *retries > 0);
    assert!(reports.iter().any(rode_through), "no retry ride-through");
    assert!(stats.failures > 0, "no exhausted tick");
    assert!(stats.watchdog_trips > 0, "no watchdog trip");
    assert!(stats.breaker_short_circuits > 0, "no short-circuited tick");
    assert!(
        stats.breaker_trips > stats.watchdog_trips,
        "no failed half-open probe"
    );
    let probe_succeeded = reports
        .windows(2)
        .any(|w| w[0] == IngestOutcome::ShortCircuited && w[1].published());
    assert!(probe_succeeded, "no successful half-open probe");
    assert!(stats.partial_publishes > 0, "no partial publish");

    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("supervised_ingest.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual
            .lines()
            .zip(GOLDEN.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("{a}\n  golden: {g}"));
        panic!(
            "supervised ingest moved (first: {first:?}); actual written to {}",
            path.display()
        );
    }
}

/// Admission under fault, pinned request by request: a three-token miss
/// budget against a seeded stream of mostly-missing queries, through two
/// blackouts that age the snapshot into Degraded / Stale and trip the
/// breaker. Every query's outcome kind and the final counters are pinned,
/// so a change to how misses are admitted or shed shows up here.
#[test]
fn admission_shed_counts_are_pinned() {
    use prodpred_core::RetryPolicy;
    use prodpred_service::{AdmissionConfig, ResilienceConfig, ServiceError};
    use prodpred_simgrid::faults::FaultConfig;

    let mut fault = FaultConfig::none(SEED);
    fault.blackouts = vec![(340.0, 385.0), (450.0, 500.0)];
    let admission = AdmissionConfig {
        miss_tokens_per_tick: 3,
    };
    let core = ServiceCore::new(ServiceConfig {
        fault: Some(fault),
        resilience: ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker_cooldown_secs: 20.0,
            admission,
            ..ResilienceConfig::default()
        },
        ..small_config()
    });

    const PER_TICK: u64 = 6;
    let mut outcomes = String::new();
    for tick in 0..60 {
        core.ingest_tick();
        for q in 0..PER_TICK {
            outcomes.push(match core.query(&request_for(SEED, tick * PER_TICK + q)) {
                Ok(r) if r.degraded => 'd',
                Ok(_) => 'h',
                Err(ServiceError::Overloaded { .. }) => 's',
                Err(ServiceError::Unavailable { .. }) => 'u',
                Err(_) => 'e',
            });
        }
    }
    // FNV-1a over the outcome kinds, in request order.
    let digest = outcomes.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    let s = core.stats();
    assert_eq!(
        (s.queries, s.rejected, s.shed, s.degraded_served, digest),
        (160, 200, 140, 48, 0xcb2c_a59b_0c87_9fa5),
        "admission outcomes moved: {outcomes}"
    );
    assert_eq!(s.unavailable, 60, "{outcomes}");
}

mod poll_model {
    //! `predict_availability` and the service share the supervision
    //! recurrence by construction; what the predictor still models on its
    //! own is the *poll* — "some sensor poll of `(prev, now]` falls outside
    //! every blackout" standing in for the NWS actually delivering fresh
    //! data. Random blackout schedules with edges off the 5 s poll grid,
    //! publish intervals that do and do not divide it, and resilience
    //! shapes from no supervision at all to retry + breaker + watchdog:
    //! the prediction must match a real faulted core count for count.

    use super::SEED;
    use prodpred_core::RetryPolicy;
    use prodpred_service::{
        predict_availability, ResilienceConfig, ServiceConfig, ServiceCore, ServingState,
    };
    use prodpred_simgrid::faults::FaultConfig;
    use proptest::prelude::*;

    const WARMUP: f64 = 300.0;
    const TICKS: u64 = 48;
    const PUBLISH_INTERVALS: [f64; 4] = [2.5, 5.0, 7.0, 10.0];
    /// Past every schedule below, or inside it: the clamp is part of the
    /// recurrence too.
    const HORIZONS: [f64; 2] = [20_000.0, 520.0];

    fn resilience(shape: usize) -> ResilienceConfig {
        let tight = ResilienceConfig {
            retry: RetryPolicy::none(),
            breaker_threshold: 2,
            breaker_cooldown_secs: 37.0,
            watchdog_ticks: 3,
            ..ResilienceConfig::default()
        };
        match shape {
            0 => ResilienceConfig::default(),
            1 => tight,
            2 => ResilienceConfig {
                retry: RetryPolicy {
                    max_retries: 2,
                    base_backoff_secs: 4.0,
                    jitter_fraction: 0.2,
                    seed: SEED,
                    ..RetryPolicy::default()
                },
                breaker_threshold: 5,
                ..tight
            },
            _ => ResilienceConfig {
                breaker_threshold: 3,
                watchdog_ticks: u64::MAX,
                ..tight
            },
        }
    }

    proptest! {
        // A case builds and ticks a two-platform core, ~0.3 s in a debug build;
        // 400 cases of this found no divergence in release.
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn predicted_availability_matches_a_faulted_core(
            blackouts in proptest::collection::vec((305.0f64..560.0, 3.0f64..260.0), 1..4),
            interval in 0usize..4,
            shape in 0usize..4,
            horizon in 0usize..2,
        ) {
            let publish_interval = PUBLISH_INTERVALS[interval];
            let horizon = HORIZONS[horizon];
            let resilience = resilience(shape);
            let mut fault = FaultConfig::none(SEED);
            fault.blackouts = blackouts.iter().map(|&(lo, len)| (lo, lo + len)).collect();

            let predicted = predict_availability(
                &fault, &resilience, publish_interval, 5.0, WARMUP, horizon, TICKS,
            );

            let core = ServiceCore::new(ServiceConfig {
                seed: SEED,
                horizon,
                warmup: WARMUP,
                publish_interval,
                fault: Some(fault),
                resilience,
                ..ServiceConfig::default()
            });
            let mut unavailable_ticks = 0u64;
            for _ in 0..TICKS {
                core.ingest_tick();
                if core.serving(1).unwrap() == ServingState::Unavailable {
                    unavailable_ticks += 1;
                }
            }
            // Ingest stats merge two identically faulted platforms, and
            // count the warm-up publish the prediction leaves out.
            let ingest = core.stats().ingest;
            prop_assert_eq!(ingest.publishes, 2 * (predicted.published_ticks + 1));
            prop_assert_eq!(ingest.failures, 2 * predicted.failed_ticks);
            prop_assert_eq!(ingest.breaker_short_circuits, 2 * predicted.short_circuited_ticks);
            prop_assert_eq!(unavailable_ticks, predicted.unavailable_ticks);
        }
    }
}
