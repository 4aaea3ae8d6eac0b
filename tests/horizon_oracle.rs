//! The preset experiments generate only the load a series reads: their
//! platform grows with the series clock, a little ahead of each read, and
//! a run that ends past it is simulated again on the grown platform. That
//! must cost no bit. The oracle here is what the presets used to be — the
//! same runner on a platform of a fixed, generous horizon — and every
//! comparison is on the serialised series, so records, load samples,
//! degradation and recovery accounting all count.

use prodpred_core::experiment::RunRecord;
use prodpred_core::{
    platform1_experiment, platform1_experiment_with_faults, platform2_experiment,
    platform2_experiment_supervised, platform2_experiment_with_faults, run_series,
    run_series_faulted, run_series_supervised, ExperimentConfig, RetryPolicy, Supervisor,
};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
use prodpred_simgrid::Platform;

const SIZES: [usize; 3] = [1000, 1600, 2000];
const RUN_COUNTS: [usize; 2] = [10, 25];
const P1_FIXED_HORIZON: f64 = 40_000.0;
const P2_FIXED_HORIZON: f64 = 60_000.0;

/// Compares two series as serialised strings; on a mismatch reports where
/// they part, not two whole documents.
macro_rules! assert_same_json {
    ($preset:expr, $oracle:expr, $($what:tt)+) => {{
        let preset = serde_json::to_string(&$preset).unwrap();
        let oracle = serde_json::to_string(&$oracle).unwrap();
        if preset != oracle {
            let at = preset
                .bytes()
                .zip(oracle.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(preset.len().min(oracle.len()));
            let around = |s: &str| s[at.saturating_sub(60)..(at + 60).min(s.len())].to_string();
            panic!(
                "{}: preset and fixed-horizon oracle part at byte {at} ({} vs {} bytes)\n preset: …{}…\n oracle: …{}…",
                format!($($what)+),
                preset.len(),
                oracle.len(),
                around(&preset),
                around(&oracle)
            );
        }
    }};
}

fn config(seed: u64, gap_secs: f64, staleness_aware: bool) -> ExperimentConfig {
    let mut cfg = ExperimentConfig {
        seed,
        gap_secs,
        ..Default::default()
    };
    cfg.predictor.staleness_aware = staleness_aware;
    cfg
}

fn stormed(platform: &Platform, plan: &FaultPlan) -> Platform {
    let mut platform = platform.clone();
    plan.apply_storms(&mut platform);
    platform
}

fn retry_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        jitter_fraction: 0.25,
        seed,
        ..Default::default()
    }
}

/// The fixed-horizon composition of `platform2_experiment_supervised`, on
/// a Platform 2 that already carries the plan's storms.
fn supervised_oracle(
    platform: &Platform,
    seed: u64,
    n: usize,
    runs: usize,
    plan: &FaultPlan,
    retry: RetryPolicy,
) -> prodpred_core::SupervisedSeries {
    let mut supervisor = Supervisor::new(retry).with_breakers(platform.machines.len(), 3, 120.0);
    run_series_supervised(
        platform,
        &vec![n; runs],
        &config(seed, 20.0, true),
        0,
        plan.clone(),
        &mut supervisor,
    )
}

/// How many of `records` measured an actual above the prediction's own
/// `mean + 2σ`: the runs that end past the load generated ahead of them.
fn above_interval(records: &[RunRecord]) -> usize {
    records
        .iter()
        .filter(|r| r.actual_secs > r.prediction.stochastic.hi())
        .count()
}

/// What [`check_seed`] compared: the series, and how many of their records
/// lie above their predicted interval.
#[derive(Default)]
struct Compared {
    series: usize,
    above: usize,
}

/// All five constructors against their fixed-horizon compositions for one
/// seed.
fn check_seed(seed: u64) -> Compared {
    let faults = FaultConfig::with_intensity(seed, 0.8);
    let plan = FaultPlan::new(faults.clone());
    let mut compared = Compared::default();

    let p1 = Platform::platform1(seed, P1_FIXED_HORIZON);
    let preset = platform1_experiment(seed, &SIZES);
    compared.above += above_interval(&preset.records);
    assert_same_json!(
        preset,
        run_series(&p1, &SIZES, &config(seed, 30.0, false), 0),
        "platform1_experiment, seed {seed}"
    );
    let preset = platform1_experiment_with_faults(seed, &SIZES, &faults);
    compared.above += above_interval(&preset.series.records);
    assert_same_json!(
        preset,
        run_series_faulted(
            &stormed(&p1, &plan),
            &SIZES,
            &config(seed, 30.0, true),
            0,
            plan.clone()
        ),
        "platform1_experiment_with_faults, seed {seed}"
    );
    compared.series += 2;
    drop(p1);

    let p2 = Platform::platform2(seed, P2_FIXED_HORIZON);
    let stormed_p2 = stormed(&p2, &plan);
    for n in SIZES {
        for runs in RUN_COUNTS {
            let sizes = vec![n; runs];
            let preset = platform2_experiment(seed, n, runs);
            compared.above += above_interval(&preset.records);
            assert_same_json!(
                preset,
                run_series(&p2, &sizes, &config(seed, 20.0, false), 0),
                "platform2_experiment, seed {seed}, n {n}, {runs} runs"
            );
            let preset = platform2_experiment_with_faults(seed, n, runs, &faults);
            compared.above += above_interval(&preset.series.records);
            assert_same_json!(
                preset,
                run_series_faulted(
                    &stormed_p2,
                    &sizes,
                    &config(seed, 20.0, true),
                    0,
                    plan.clone()
                ),
                "platform2_experiment_with_faults, seed {seed}, n {n}, {runs} runs"
            );
            let preset =
                platform2_experiment_supervised(seed, n, runs, &faults, retry_policy(seed));
            compared.above += above_interval(&preset.series.records);
            assert_same_json!(
                preset,
                supervised_oracle(&stormed_p2, seed, n, runs, &plan, retry_policy(seed)),
                "platform2_experiment_supervised, seed {seed}, n {n}, {runs} runs"
            );
            compared.series += 3;
        }
    }
    compared
}

#[test]
fn presets_equal_the_fixed_horizon_composition() {
    // Seeds spread over the u64 range the sweeps draw from; the fan-out
    // honours PRODPRED_THREADS, which CI pins to 1 and to 8.
    let seeds: Vec<u64> = (0..16).map(|i| 41 + i * 0x9E37_79B9).collect();
    let compared = parallel_map(&seeds, 0, |_, &seed| check_seed(seed))
        .into_iter()
        .fold(Compared::default(), |a, b| Compared {
            series: a.series + b.series,
            above: a.above + b.above,
        });
    assert_eq!(
        compared.series,
        seeds.len() * (2 + 3 * SIZES.len() * RUN_COUNTS.len())
    );
    // A run above its interval is one a platform generated only as far as
    // the prediction's upper bound outruns: the comparisons must include
    // some, or they never reach the path that grows past a run's end.
    assert!(compared.above > 0, "no record lies above its interval");
    println!("{} records above their interval", compared.above);
}

#[test]
fn a_series_past_8192_s_is_still_the_oracle() {
    let (seed, n, runs) = (42, 1600, 120);
    let preset = platform2_experiment(seed, n, runs);
    let last = preset.records.last().unwrap();
    assert!(
        last.start + last.actual_secs > 8192.0,
        "series ends at {}",
        last.start + last.actual_secs
    );
    let p2 = Platform::platform2(seed, P2_FIXED_HORIZON);
    assert_same_json!(
        preset,
        run_series(&p2, &vec![n; runs], &config(seed, 20.0, false), 0),
        "120-run series"
    );
}

#[test]
fn skipped_trailing_runs_still_advance_the_clock_the_horizon_must_cover() {
    // A blackout over the whole experiment: every history stays empty, so
    // every run — the last ones included — is skipped, and the clock
    // advances by gaps (and supervised backoffs) alone: 300 s of warm-up
    // plus 100 gaps of 20 s, with no run to grow the platform ahead of it.
    // A runner that grew only for its *records* would truncate
    // `load_samples`.
    let (seed, n, runs) = (7, 1000, 100);
    let mut faults = FaultConfig::none(seed);
    faults.blackouts.push((0.0, 1.0e9));
    let plan = FaultPlan::new(faults.clone());
    let p2 = Platform::platform2(seed, P2_FIXED_HORIZON);

    let faulted = platform2_experiment_with_faults(seed, n, runs, &faults);
    assert!(faulted.series.records.is_empty());
    assert_eq!(faulted.stats.skipped_runs, runs);
    let (last_sample_t, _) = *faulted.series.load_samples.last().unwrap();
    assert_eq!(last_sample_t, 300.0 + 20.0 * runs as f64 - 5.0);
    assert_same_json!(
        faulted,
        run_series_faulted(
            &p2,
            &vec![n; runs],
            &config(seed, 20.0, true),
            0,
            plan.clone()
        ),
        "all-skipped faulted series"
    );

    let supervised = platform2_experiment_supervised(seed, n, runs, &faults, retry_policy(seed));
    assert_eq!(supervised.stats.skipped_runs, runs);
    assert_eq!(supervised.recovery.abandoned, runs as u64);
    assert_same_json!(
        supervised,
        supervised_oracle(&p2, seed, n, runs, &plan, retry_policy(seed)),
        "all-abandoned supervised series"
    );
}
