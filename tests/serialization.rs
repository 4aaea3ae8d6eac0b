//! Serde round-trips: experiment artifacts persist and reload intact, so
//! traces and results can be archived and replotted.

use prodpred_core::{platform2_experiment, ExperimentSeries};
use prodpred_nws::snapshot::ForecastSnapshot;
use prodpred_nws::{NwsConfig, NwsService, QuerySummary, Sensor};
use prodpred_simgrid::{Platform, Trace};
use prodpred_stochastic::StochasticValue;

#[test]
fn stochastic_value_round_trip() {
    let v = StochasticValue::new(12.0, 0.6);
    let json = serde_json::to_string(&v).unwrap();
    let back: StochasticValue = serde_json::from_str(&json).unwrap();
    assert_eq!(v, back);
}

#[test]
fn trace_round_trip() {
    let t = Trace::new(3.0, 0.5, vec![0.1, 0.9, 0.4]);
    let json = serde_json::to_string(&t).unwrap();
    let back: Trace = serde_json::from_str(&json).unwrap();
    assert_eq!(t, back);
    assert_eq!(back.at(3.6), 0.9);
}

#[test]
fn platform_round_trip_preserves_behaviour() {
    let p = Platform::platform1(5, 600.0);
    let json = serde_json::to_string(&p).unwrap();
    let back: Platform = serde_json::from_str(&json).unwrap();
    assert_eq!(p.len(), back.len());
    for (a, b) in p.machines.iter().zip(&back.machines) {
        assert_eq!(a.spec.name, b.spec.name);
        assert_eq!(a.load, b.load);
    }
    assert_eq!(p.network.avail, back.network.avail);
    // Behavioural check: transfers agree.
    assert_eq!(
        p.network.transfer_secs(1.0e5, 100.0),
        back.network.transfer_secs(1.0e5, 100.0)
    );
}

#[test]
fn query_summary_round_trip() {
    let platform = Platform::platform2(11, 900.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0);
    let summary: QuerySummary = nws.cpu_query(0).unwrap();
    let json = serde_json::to_string(&summary).unwrap();
    let back: QuerySummary = serde_json::from_str(&json).unwrap();
    assert_eq!(summary, back);
    assert_eq!(summary.value.mean().to_bits(), back.value.mean().to_bits());
}

#[test]
fn sensor_round_trip_mid_stream_carries_on_bit_identically() {
    // The wire form holds the sampling state, not the tournament's
    // running scores: the parsed sensor rebuilds them, and from then on
    // answers exactly what a sensor that was never serialised answers —
    // before the ring fills, while it fills, and once it evicts.
    let platform = Platform::platform2(11, 4000.0);
    let trace = &platform.machines[0].load;
    for (capacity, cut) in [(4096, 600.0), (64, 200.0), (64, 1500.0), (8, 0.0)] {
        let mut live = Sensor::new("cpu:x", 5.0, capacity, 0.0);
        live.poll_until(trace, cut);
        let json = serde_json::to_string(&live).unwrap();
        assert!(!json.contains("scores"), "{json}");
        let mut back: Sensor = serde_json::from_str(&json).unwrap();
        assert_eq!(json, serde_json::to_string(&back).unwrap());
        for step in 0..60 {
            let bits = |s: &Sensor| {
                s.forecast()
                    .map(|f| (f.value.to_bits(), f.rmse.to_bits(), f.winner))
            };
            assert_eq!(
                bits(&back),
                bits(&live),
                "capacity {capacity}, cut at {cut}, step {step}"
            );
            let until = cut + 35.0 * step as f64;
            live.poll_until(trace, until);
            back.poll_until(trace, until);
        }
        assert_eq!(back.series().values(), live.series().values());
    }
}

#[test]
fn forecast_snapshot_round_trip_preserves_answers() {
    let platform = Platform::platform2(11, 900.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0);
    let snapshot = nws.snapshot(3);
    let json = serde_json::to_string(&snapshot).unwrap();
    let back: ForecastSnapshot = serde_json::from_str(&json).unwrap();
    assert_eq!(snapshot, back);
    // The reloaded snapshot answers queries bit-identically, including
    // the horizon-scaled OU arithmetic.
    for i in 0..snapshot.n_machines() {
        for horizon in [1.0, 60.0, 900.0] {
            let a = snapshot.cpu_stochastic_for_horizon(i, horizon);
            let b = back.cpu_stochastic_for_horizon(i, horizon);
            assert_eq!(a.map(|v| v.mean().to_bits()), b.map(|v| v.mean().to_bits()));
        }
    }
}

#[test]
fn predict_response_round_trip() {
    use prodpred_service::{PredictResponse, ServiceConfig, ServiceCore};
    let core = ServiceCore::new(ServiceConfig {
        seed: 11,
        horizon: 1200.0,
        warmup: 300.0,
        ..ServiceConfig::default()
    });
    let response = core.query(&prodpred_service::request_for(11, 0)).unwrap();
    let json = serde_json::to_string(&response).unwrap();
    let back: PredictResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(response, back);
    assert_eq!(response.mean.to_bits(), back.mean.to_bits());
}

#[test]
fn replay_report_round_trip() {
    use prodpred_service::ReplayReport;
    let report = ReplayReport {
        seed: 42,
        requests: 20_000,
        threads: 4,
        ticks: 10,
        elapsed_us: 123_456,
        qps: 162_004.5,
        p50_us: 1,
        p99_us: 9,
        max_us: 1_500,
        cache_hit_rate: 0.9,
        errors: 0,
    };
    let json = serde_json::to_string(&report).unwrap();
    let back: ReplayReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
}

#[test]
fn serving_state_round_trip() {
    use prodpred_service::ServingState;
    for state in [
        ServingState::Healthy,
        ServingState::Degraded,
        ServingState::Stale,
        ServingState::Unavailable,
    ] {
        let json = serde_json::to_string(&state).unwrap();
        let back: ServingState = serde_json::from_str(&json).unwrap();
        assert_eq!(state, back);
    }
    // Severity ordering survives independent round-trips.
    let lo: ServingState = serde_json::from_str("\"Healthy\"").unwrap();
    let hi: ServingState = serde_json::from_str("\"Unavailable\"").unwrap();
    assert!(lo < hi);
}

#[test]
fn degraded_predict_response_round_trip() {
    use prodpred_core::supervisor::RetryPolicy;
    use prodpred_service::{
        PredictResponse, ResilienceConfig, ServiceConfig, ServiceCore, ServingState,
    };
    use prodpred_simgrid::faults::FaultConfig;
    // Sensors black out right after warmup; with retries/escalation off
    // the snapshot just ages, so the answer leaves marked degraded with
    // a widened interval — all of which must survive the wire.
    let mut fault = FaultConfig::none(11);
    fault.blackouts.push((300.0, f64::MAX));
    let core = ServiceCore::new(ServiceConfig {
        seed: 11,
        horizon: 1.0e7,
        warmup: 300.0,
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
    core.ingest_tick();
    core.ingest_tick();
    let response = core.query(&prodpred_service::request_for(11, 0)).unwrap();
    assert!(response.degraded, "blackout run must degrade the answer");
    assert_eq!(response.serving, ServingState::Degraded);
    assert_eq!(response.snapshot_age_ticks, 2);
    let json = serde_json::to_string(&response).unwrap();
    let back: PredictResponse = serde_json::from_str(&json).unwrap();
    assert_eq!(response, back);
    assert_eq!(response.lo.to_bits(), back.lo.to_bits());
    assert_eq!(response.hi.to_bits(), back.hi.to_bits());
}

#[test]
fn chaos_report_round_trip() {
    use prodpred_service::{ChaosArm, ChaosReport};
    let arm = |shift: u64| ChaosArm {
        requests: 20_000,
        ok: 18_340 - shift,
        degraded: 350 + shift,
        shed: 1_560,
        unavailable: 100 + shift,
        availability: 0.995,
        degraded_fraction: 0.019,
        shed_rate: 0.078,
        p99_us: 9,
        epochs_published: 390,
        ingest_failures: 8 + shift,
        ingest_retries: 42,
        breaker_trips: 2,
        watchdog_trips: 2,
    };
    let report = ChaosReport {
        seed: 42,
        ticks: 400,
        queries_per_tick: 50,
        soundness_checked_configs: 192,
        supervised: arm(0),
        unsupervised: arm(6_000),
        predicted_availability: 0.995,
        availability_error: 0.0,
    };
    let json = serde_json::to_string(&report).unwrap();
    let back: ChaosReport = serde_json::from_str(&json).unwrap();
    assert_eq!(report, back);
    assert_eq!(
        report.predicted_availability.to_bits(),
        back.predicted_availability.to_bits()
    );
    // The committed artifact (pretty-printed) parses with the same type.
    let pretty = serde_json::to_string_pretty(&report).unwrap();
    let from_pretty: ChaosReport = serde_json::from_str(&pretty).unwrap();
    assert_eq!(report, from_pretty);
}

#[test]
fn fault_config_round_trip() {
    use prodpred_simgrid::faults::FaultConfig;
    for intensity in [0.0, 0.3, 1.0] {
        let cfg = FaultConfig::with_intensity(9, intensity);
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back, "intensity {intensity} mangled by round-trip");
    }
}

#[test]
fn degradation_stats_round_trip() {
    use prodpred_core::DegradationStats;
    let stats = DegradationStats {
        queries: 480,
        degraded_queries: 37,
        max_stale_intervals: 6.5,
        skipped_runs: 2,
        missed_polls: 91,
        corrupt_polls: 14,
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: DegradationStats = serde_json::from_str(&json).unwrap();
    assert_eq!(stats, back);
}

#[test]
fn recovery_stats_round_trip() {
    use prodpred_core::RecoveryStats;
    let stats = RecoveryStats {
        retries: 219,
        backoff_secs: 10_743.25,
        recovered: 158,
        abandoned: 1,
        resumed_iterations_saved: 1948,
        checkpoints_taken: 652,
        breaker_trips: 3,
        breaker_short_circuits: 11,
    };
    let json = serde_json::to_string(&stats).unwrap();
    let back: RecoveryStats = serde_json::from_str(&json).unwrap();
    assert_eq!(stats, back);
    // The float survives bit-exactly, not just approximately.
    assert_eq!(stats.backoff_secs.to_bits(), back.backoff_secs.to_bits());
}

#[test]
fn degradation_terms_round_trip() {
    use prodpred_structural::DegradationTerms;
    let terms = DegradationTerms {
        slowdown: 1.173_25,
        delay_secs: 96.0625,
        widening: 1.089_1,
    };
    let json = serde_json::to_string(&terms).unwrap();
    let back: DegradationTerms = serde_json::from_str(&json).unwrap();
    assert_eq!(terms, back);
    let none_json = serde_json::to_string(&DegradationTerms::none()).unwrap();
    let none_back: DegradationTerms = serde_json::from_str(&none_json).unwrap();
    assert!(none_back.is_none(), "identity terms must survive the wire");
}

#[test]
fn campaign_prediction_round_trip() {
    use prodpred_core::{predict_campaign, CampaignPrediction, RetryPolicy};
    use prodpred_sor::CheckpointPolicy;
    let predicted = predict_campaign(1.0, &RetryPolicy::default(), CheckpointPolicy::every(4), 20);
    let json = serde_json::to_string(&predicted).unwrap();
    let back: CampaignPrediction = serde_json::from_str(&json).unwrap();
    assert_eq!(predicted, back);
    assert_eq!(
        predicted.mean_backoff_secs.to_bits(),
        back.mean_backoff_secs.to_bits()
    );
}

#[test]
fn experiment_series_round_trip() {
    let series = platform2_experiment(3, 800, 3);
    let json = serde_json::to_string(&series).unwrap();
    let back: ExperimentSeries = serde_json::from_str(&json).unwrap();
    assert_eq!(series.records.len(), back.records.len());
    for (a, b) in series.records.iter().zip(&back.records) {
        assert_eq!(a.actual_secs, b.actual_secs);
        assert_eq!(
            a.prediction.stochastic.mean(),
            b.prediction.stochastic.mean()
        );
        assert_eq!(
            a.prediction.stochastic.half_width(),
            b.prediction.stochastic.half_width()
        );
    }
    // Accuracy recomputes identically from the reloaded artifact.
    let acc_a = series.accuracy().unwrap();
    let acc_b = back.accuracy().unwrap();
    assert_eq!(acc_a.coverage, acc_b.coverage);
    assert_eq!(acc_a.max_range_error, acc_b.max_range_error);
}
