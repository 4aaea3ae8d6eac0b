//! Serde round-trips: experiment artifacts persist and reload intact, so
//! traces and results can be archived and replotted.
//!
//! And the bytes themselves: `serde_json` streams a value straight into
//! its output, where it once built a `Value` tree and walked that. The
//! tree walker lives on below as the oracle ([`oracle`]) and golden
//! strings captured from it pin every shape the workspace writes, because
//! committed `BENCH_*.json` files, `horizon_oracle` and the socket oracle
//! all compare serialised text.

use prodpred_core::{platform2_experiment, ExperimentSeries};
use prodpred_nws::snapshot::ForecastSnapshot;
use prodpred_nws::{NwsConfig, NwsService, QuerySummary};
use prodpred_simgrid::{Platform, Trace};
use prodpred_stochastic::StochasticValue;
use proptest::prelude::*;
use proptest::TestRng;
use serde::Value;

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
    let work = 1.0e5 / p.network.spec.dedicated_bw;
    assert_eq!(
        p.network.transfer_work_secs(work, 100.0),
        back.network.transfer_work_secs(work, 100.0)
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

/// The writer `serde_json` used before it streamed: recursive descent
/// over an owned [`Value`] tree, kept character for character.
mod oracle {
    use serde::Value;

    pub fn to_string(v: &Value, indent: Option<usize>) -> Option<String> {
        let mut out = String::new();
        write_value(&mut out, v, indent, 0)?;
        Some(out)
    }

    /// `None` on a non-finite float, where the old writer returned `Err`.
    fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) -> Option<()> {
        match v {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(x) => out.push_str(&x.to_string()),
            Value::I64(x) => out.push_str(&x.to_string()),
            Value::F64(x) => {
                if !x.is_finite() {
                    return None;
                }
                let s = x.to_string();
                out.push_str(&s);
                if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                    out.push_str(".0");
                }
            }
            Value::Str(s) => write_string(out, s),
            Value::Seq(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_value(out, item, indent, level + 1)?;
                }
                if !items.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (k, (key, item)) in entries.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    newline_indent(out, indent, level + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    write_value(out, item, indent, level + 1)?;
                }
                if !entries.is_empty() {
                    newline_indent(out, indent, level);
                }
                out.push('}');
            }
        }
        Some(())
    }

    fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
        if let Some(width) = indent {
            out.push('\n');
            for _ in 0..width * level {
                out.push(' ');
            }
        }
    }

    fn write_string(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    out.push_str(&format!("\\u{:04x}", c as u32));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// Arbitrary [`Value`] trees at most `depth` containers deep, leaning on
/// the values a number or string writer gets wrong first.
struct ValueTrees {
    depth: usize,
}

const FLOATS: [f64; 12] = [
    0.0,
    -0.0,
    1.0,
    -2.5,
    0.1,
    1e21,
    1e22,
    5e-324,
    f64::MIN_POSITIVE,
    f64::MAX,
    9007199254740993.0,
    123456789.125,
];
const UNSIGNED: [u64; 5] = [0, 9, 10, 1 << 53, u64::MAX];
const SIGNED: [i64; 5] = [0, -1, -10, i64::MAX, i64::MIN];
const CHARS: [char; 16] = [
    'a', 'Z', ' ', '/', '"', '\\', '\n', '\r', '\t', '\0', '\u{1}', '\u{8}', '\u{1f}', '\u{7f}',
    'é', '😀',
];

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[(0..from.len()).sample(rng)]
}

fn text(rng: &mut TestRng) -> String {
    (0..(0usize..6).sample(rng))
        .map(|_| pick(rng, &CHARS))
        .collect()
}

impl Strategy for ValueTrees {
    type Value = Value;

    fn sample(&self, rng: &mut TestRng) -> Value {
        let inner = ValueTrees {
            depth: self.depth.saturating_sub(1),
        };
        // Kinds 8 and 9 are the containers; a tree out of depth has none.
        match (0usize..if self.depth == 0 { 8 } else { 10 }).sample(rng) {
            0 => Value::Null,
            1 => Value::Bool(any::<bool>().sample(rng)),
            2 => Value::U64(pick(rng, &UNSIGNED)),
            3 => Value::U64((0..u64::MAX).sample(rng)),
            4 => Value::I64(pick(rng, &SIGNED)),
            5 => Value::F64(pick(rng, &FLOATS)),
            6 => {
                // Any finite bit pattern: subnormals, huge exponents.
                let x = f64::from_bits((0..u64::MAX).sample(rng));
                Value::F64(if x.is_finite() { x } else { 0.5 })
            }
            7 => Value::Str(text(rng)),
            8 => Value::Seq(
                (0..(0usize..4).sample(rng))
                    .map(|_| inner.sample(rng))
                    .collect(),
            ),
            _ => Value::Map(
                (0..(0usize..4).sample(rng))
                    .map(|_| (text(rng), inner.sample(rng)))
                    .collect(),
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn streamed_json_equals_the_tree_writer(tree in (ValueTrees { depth: 4 })) {
        prop_assert_eq!(
            serde_json::to_string(&tree).ok(),
            oracle::to_string(&tree, None)
        );
        prop_assert_eq!(
            serde_json::to_string_pretty(&tree).ok(),
            oracle::to_string(&tree, Some(2))
        );
    }
}

#[test]
fn edge_values_match_the_tree_writer_one_by_one() {
    // The proptest draws these too; here none can be missed.
    let scalars = (FLOATS.iter().map(|&x| Value::F64(x)))
        .chain(UNSIGNED.iter().map(|&x| Value::U64(x)))
        .chain(SIGNED.iter().map(|&x| Value::I64(x)))
        .chain([Value::Str(CHARS.iter().collect())]);
    for v in scalars {
        let nested = Value::Map(vec![
            (
                "k".to_string(),
                Value::Seq(vec![v.clone(), Value::Seq(vec![])]),
            ),
            (String::new(), Value::Map(vec![])),
        ]);
        for v in [v, nested] {
            assert_eq!(
                serde_json::to_string(&v).ok(),
                oracle::to_string(&v, None),
                "{v:?}"
            );
            assert_eq!(
                serde_json::to_string_pretty(&v).ok(),
                oracle::to_string(&v, Some(2)),
                "{v:?}"
            );
        }
    }
}

#[test]
fn non_finite_floats_are_an_error_at_any_depth() {
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert!(serde_json::to_string(&bad).is_err());
        assert!(serde_json::to_string_pretty(&bad).is_err());
        // Three levels down, behind values that have already been written.
        let deep = vec![vec![(1.0, vec![0.5, bad, 2.0])]];
        assert!(serde_json::to_string(&deep).is_err());
        assert!(serde_json::to_string_pretty(&deep).is_err());
        let tree = Value::Map(vec![(
            "a".to_string(),
            Value::Seq(vec![Value::Map(vec![("b".to_string(), Value::F64(bad))])]),
        )]);
        assert!(serde_json::to_string(&tree).is_err());
        assert_eq!(oracle::to_string(&tree, None), None);
    }
}

/// Asserts that `serde_json` spells `x` and `-x` as the tree writer
/// does: `Display`, plus `.0` when that has no fraction.
fn assert_spelled_as_display(x: f64) {
    for x in [x, -x] {
        assert_eq!(
            serde_json::to_string(&x).ok(),
            oracle::to_string(&Value::F64(x), None),
            "bits {:#018x}",
            x.to_bits()
        );
    }
}

/// `x` and the `ulps` finite floats on either side of it.
fn ulps_around(x: f64, ulps: u64) -> impl Iterator<Item = f64> {
    let bits = x.to_bits();
    (bits.saturating_sub(ulps)..=bits + ulps)
        .map(f64::from_bits)
        .filter(|y| y.is_finite())
}

/// `2^k` for every finite power of two, subnormals included.
fn power_of_two(k: i32) -> f64 {
    if k < -1022 {
        f64::from_bits(1 << (k + 1074))
    } else {
        f64::from_bits(((k + 1023) as u64) << 52)
    }
}

#[test]
fn floats_are_spelled_as_display_spells_them() {
    // One value in every class a shortest-digit writer is likeliest to
    // hand back to `Display`: zero, subnormals, 2^53 and beyond, values
    // below 2^-16, and 2^50 + 0.25, which lies exactly halfway between
    // its two one-decimal candidates ...624.2 and ...624.3.
    let fallbacks = [
        0.0,
        5e-324,
        2.225073858507201e-308,
        9007199254740992.0,
        9007199254740994.0,
        1e21,
        f64::MAX,
        1e-5,
        1.52587890625e-5,
        1e-300,
        (1u64 << 50) as f64 + 0.25,
    ];
    let service_like = [
        0.1,
        0.25,
        1.0,
        12.5,
        37.894_613_257_1,
        1_234.567_8,
        86_400.0,
    ];
    for x in fallbacks.into_iter().chain(service_like) {
        assert_spelled_as_display(x);
    }
    for k in -1074..=1023 {
        ulps_around(power_of_two(k), 4).for_each(assert_spelled_as_display);
    }
    for k in -30..=30 {
        let power_of_ten: f64 = format!("1e{k}").parse().unwrap();
        ulps_around(power_of_ten, 50).for_each(assert_spelled_as_display);
    }
    let two_to_53 = (1u64 << 53) as f64;
    (0..=20_000)
        .chain((1u64 << 53) - 20_000..=1 << 53)
        .map(|n| n as f64)
        .for_each(assert_spelled_as_display);
    ulps_around(two_to_53, 8).for_each(assert_spelled_as_display);
    for k in 0..=100_000 {
        assert_spelled_as_display(k as f64 / 1e3);
        assert_spelled_as_display(k as f64 / 1e6);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn floats_of_any_bits_are_spelled_as_display_spells_them(
        bits in 0..u64::MAX,
        mantissa in 0..1u64 << 52,
        biased_exponent in 1_000u64..1_080,
    ) {
        // Arbitrary bits land mostly at huge or tiny exponents; the
        // second float takes their sign but lies between 2^-23 and 2^57.
        let near = f64::from_bits(bits & 1 << 63 | biased_exponent << 52 | mantissa);
        for x in [f64::from_bits(bits), near] {
            if x.is_finite() {
                prop_assert_eq!(
                    serde_json::to_string(&x).ok(),
                    oracle::to_string(&Value::F64(x), None)
                );
            }
        }
    }
}

/// Asserts the compact and the pretty form of `value`; the expected
/// strings were printed by the tree writer at the commit before the
/// streaming one.
fn assert_golden<T: serde::Serialize + ?Sized>(value: &T, compact: &str, pretty: &str) {
    assert_eq!(serde_json::to_string(value).unwrap(), compact);
    assert_eq!(serde_json::to_string_pretty(value).unwrap(), pretty);
}

#[test]
fn golden_predict_response() {
    use prodpred_service::{PredictResponse, ServingState};
    let healthy = PredictResponse {
        platform: 1,
        n: 1000,
        procs: 2,
        epoch: 1,
        captured_at: 300.0,
        cache_hit: false,
        mean: 84.44904410703191,
        lo: 80.96009653880103,
        hi: 87.9379916752628,
        point: 84.44904410703191,
        fault_intensity: None,
        serving: ServingState::Healthy,
        degraded: false,
        snapshot_age_ticks: 0,
    };
    assert_golden(
        &healthy,
        r#"{"platform":1,"n":1000,"procs":2,"epoch":1,"captured_at":300.0,"cache_hit":false,"mean":84.44904410703191,"lo":80.96009653880103,"hi":87.9379916752628,"point":84.44904410703191,"fault_intensity":null,"serving":"Healthy","degraded":false,"snapshot_age_ticks":0}"#,
        r#"{
  "platform": 1,
  "n": 1000,
  "procs": 2,
  "epoch": 1,
  "captured_at": 300.0,
  "cache_hit": false,
  "mean": 84.44904410703191,
  "lo": 80.96009653880103,
  "hi": 87.9379916752628,
  "point": 84.44904410703191,
  "fault_intensity": null,
  "serving": "Healthy",
  "degraded": false,
  "snapshot_age_ticks": 0
}"#,
    );
    let degraded = PredictResponse {
        cache_hit: true,
        mean: 172.4567946833426,
        lo: 162.70605593424108,
        hi: 182.2075334324441,
        point: 172.4567946833426,
        fault_intensity: Some(0.5),
        serving: ServingState::Degraded,
        degraded: true,
        snapshot_age_ticks: 2,
        ..healthy
    };
    assert_golden(
        &degraded,
        r#"{"platform":1,"n":1000,"procs":2,"epoch":1,"captured_at":300.0,"cache_hit":true,"mean":172.4567946833426,"lo":162.70605593424108,"hi":182.2075334324441,"point":172.4567946833426,"fault_intensity":0.5,"serving":"Degraded","degraded":true,"snapshot_age_ticks":2}"#,
        r#"{
  "platform": 1,
  "n": 1000,
  "procs": 2,
  "epoch": 1,
  "captured_at": 300.0,
  "cache_hit": true,
  "mean": 172.4567946833426,
  "lo": 162.70605593424108,
  "hi": 182.2075334324441,
  "point": 172.4567946833426,
  "fault_intensity": 0.5,
  "serving": "Degraded",
  "degraded": true,
  "snapshot_age_ticks": 2
}"#,
    );
}

#[test]
fn golden_service_stats() {
    use prodpred_service::{CacheStats, IngestStats, ServiceStats, ServingState};
    let stats = ServiceStats {
        epochs_published: 1,
        queries: 1,
        rejected: 0,
        unavailable: 0,
        shed: 0,
        degraded_served: 1,
        serving_platform1: ServingState::Degraded,
        serving_platform2: ServingState::Stale,
        ingest: IngestStats {
            attempts: 6,
            publishes: 2,
            failures: 4,
            backoff_secs: 10_743.25,
            ..IngestStats::default()
        },
        cache: CacheStats {
            misses: 1,
            entries: 1,
            ..CacheStats::default()
        },
    };
    assert_golden(
        &stats,
        r#"{"epochs_published":1,"queries":1,"rejected":0,"unavailable":0,"shed":0,"degraded_served":1,"serving_platform1":"Degraded","serving_platform2":"Stale","ingest":{"attempts":6,"publishes":2,"partial_publishes":0,"failures":4,"retries":0,"backoff_secs":10743.25,"recovered":0,"breaker_trips":0,"breaker_short_circuits":0,"watchdog_trips":0},"cache":{"hits":0,"misses":1,"invalidated":0,"evicted":0,"entries":1}}"#,
        r#"{
  "epochs_published": 1,
  "queries": 1,
  "rejected": 0,
  "unavailable": 0,
  "shed": 0,
  "degraded_served": 1,
  "serving_platform1": "Degraded",
  "serving_platform2": "Stale",
  "ingest": {
    "attempts": 6,
    "publishes": 2,
    "partial_publishes": 0,
    "failures": 4,
    "retries": 0,
    "backoff_secs": 10743.25,
    "recovered": 0,
    "breaker_trips": 0,
    "breaker_short_circuits": 0,
    "watchdog_trips": 0
  },
  "cache": {
    "hits": 0,
    "misses": 1,
    "invalidated": 0,
    "evicted": 0,
    "entries": 1
  }
}"#,
    );
}

#[test]
fn golden_enum_variants() {
    use prodpred_stochastic::MaxStrategy;
    assert_golden(&MaxStrategy::Clark, r#""Clark""#, r#""Clark""#);
    assert_golden(
        &MaxStrategy::MonteCarlo {
            samples: 500,
            seed: u64::MAX,
        },
        r#"{"MonteCarlo":{"samples":500,"seed":18446744073709551615}}"#,
        r#"{
  "MonteCarlo": {
    "samples": 500,
    "seed": 18446744073709551615
  }
}"#,
    );
}

#[test]
fn golden_hand_written_impls() {
    assert_golden(
        &Trace::new(3.0, 0.5, vec![0.1, 0.9, -0.0, 1e21]),
        r#"{"t0":3.0,"dt":0.5,"values":[0.1,0.9,-0.0,1000000000000000000000.0]}"#,
        r#"{
  "t0": 3.0,
  "dt": 0.5,
  "values": [
    0.1,
    0.9,
    -0.0,
    1000000000000000000000.0
  ]
}"#,
    );
}

#[test]
fn golden_std_shapes() {
    assert_golden(
        &(1u8, -2i64, 3.5f64, "x\ty".to_string()),
        r#"[1,-2,3.5,"x\ty"]"#,
        "[\n  1,\n  -2,\n  3.5,\n  \"x\\ty\"\n]",
    );
    assert_golden(
        &(3usize..9),
        r#"{"start":3,"end":9}"#,
        "{\n  \"start\": 3,\n  \"end\": 9\n}",
    );
    assert_golden(
        &vec![(Some(1.0f64), None::<u32>)],
        "[[1.0,null]]",
        "[\n  [\n    1.0,\n    null\n  ]\n]",
    );
    assert_golden(
        &vec![Vec::<f64>::new(), vec![1.0]],
        "[[],[1.0]]",
        "[\n  [],\n  [\n    1.0\n  ]\n]",
    );
}

/// Any JSON document, kept as the tree the parser built.
struct Raw(Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

#[test]
fn committed_bench_records_reprint_byte_for_byte() {
    // Each was written by `to_string_pretty` from its bench bin; parsed
    // and printed again it must come out the same, or regenerating one
    // would show up as a formatting diff.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut seen = std::collections::BTreeSet::new();
    for entry in std::fs::read_dir(&root).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let Raw(doc) = serde_json::from_str(&text).unwrap();
        assert_eq!(
            serde_json::to_string_pretty(&doc).unwrap(),
            text.trim_end(),
            "{name}"
        );
        seen.insert(name);
    }
    // One per study binary that writes a record: a record that vanishes,
    // or one that appears with no reader, fails here.
    let expected = [
        "BENCH_chaos.json",
        "BENCH_faultpred.json",
        "BENCH_servicechaos.json",
    ];
    assert_eq!(
        seen,
        expected.map(String::from).into(),
        "committed BENCH_*.json"
    );
}
