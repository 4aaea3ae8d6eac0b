//! The preset experiments generate only the load a series reads: their
//! platform grows with the series clock, a little ahead of each read, and
//! a run that ends past it is simulated again on the grown platform. That
//! must cost no bit. The oracle here is what the presets used to be — the
//! same runner on a platform of a fixed, generous horizon — and every
//! comparison is on the serialised series, so records, load samples and
//! degradation accounting all count.

use super::{
    platform1_experiment, platform1_experiment_with_faults, platform2_experiment,
    platform2_experiment_with_faults, run_series, run_series_inner, ExperimentConfig,
    FaultedSeries, RunRecord,
};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
use prodpred_simgrid::{GrowingPlatform, Platform};

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

/// The fixed-horizon composition of the faulted presets: the one runner
/// on the caller's platform (which should already carry the plan's
/// storms), with every sensor poll routed through `plan`.
fn run_series_faulted(
    platform: &Platform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    watched_machine: usize,
    plan: FaultPlan,
) -> FaultedSeries {
    let mut fixed = platform;
    run_series_inner(&mut fixed, sizes, cfg, watched_machine, Some(plan))
}

/// The fixed-horizon platform under a plan's storms: `growing`, built
/// with them, grown to `horizon` as `Platform::platform1` and `platform2`
/// grow the unstormed one.
fn stormed(mut growing: GrowingPlatform, horizon: f64) -> GrowingPlatform {
    growing.cover_within(horizon, horizon);
    growing
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

/// All four constructors against their fixed-horizon compositions for one
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
            stormed(
                GrowingPlatform::platform1(seed, &faults.storms),
                P1_FIXED_HORIZON
            )
            .platform(),
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
    let stormed_p2 = stormed(
        GrowingPlatform::platform2(seed, &faults.storms),
        P2_FIXED_HORIZON,
    );
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
                    stormed_p2.platform(),
                    &sizes,
                    &config(seed, 20.0, true),
                    0,
                    plan.clone()
                ),
                "platform2_experiment_with_faults, seed {seed}, n {n}, {runs} runs"
            );
            compared.series += 2;
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
        seeds.len() * (2 + 2 * SIZES.len() * RUN_COUNTS.len())
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
    // advances by gaps alone: 300 s of warm-up
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
}

/// FNV-1a over the serialised series: records, load samples and
/// degradation accounting all count, to the last digit.
fn digest(series: &impl serde::Serialize) -> String {
    let json = serde_json::to_string(series).unwrap();
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{}:{fnv:016x}", json.len())
}

/// The four preset experiments for four seeds, pinned as `length:digest`
/// of their serialised form, taken while the healthy / faulted and the
/// supervised series still had a runner each. The oracle above compares
/// two compositions of one runner, so it cannot see a mistake both share;
/// this can.
#[test]
fn preset_experiments_are_pinned_by_digest() {
    const GOLDEN: [&str; 4] = [
        "6059:f09d875de443ab23 13188:0e74bc00a1746021 8267:bfdda86dc4c9592c 15174:03e6f115424e64a1",
        "6020:e89b75723b2714f0 13714:f6f6e02ab9525839 8274:5178e2a421a44395 15097:86c0b0aeef15e9d6",
        "6063:f6053bcdd0d91bde 12986:44c061edfcc6839d 8208:8532c348e3e76496 14318:adfff0b6727e28f7",
        "6021:29f9c97c7e26187f 13482:970da5bfae3c6504 8194:8c75d463ad133fb4 14454:4dad0fc347f4a6bd",
    ];
    let sizes = [1000, 1600, 2000];
    let actual = [3u64, 17, 42, 0x9E37_79B9].map(|seed| {
        let faults = FaultConfig::with_intensity(seed, 0.8);
        [
            digest(&platform1_experiment(seed, &sizes)),
            digest(&platform2_experiment(seed, 1600, 10)),
            digest(&platform1_experiment_with_faults(seed, &sizes, &faults)),
            digest(&platform2_experiment_with_faults(seed, 1600, 10, &faults)),
        ]
        .join(" ")
    });
    assert_eq!(actual, GOLDEN);
}
