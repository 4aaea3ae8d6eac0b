//! The experiment harness reproducing the paper's Section 3 methodology:
//! attach the NWS to a platform, issue a stochastic prediction before each
//! run from live load data, execute the run (simulated distributed SOR),
//! and record predicted-vs-actual series.

use crate::predictor::{predict_dedicated, Prediction, PredictorConfig, SorPredictor};
use crate::scheduler::{decompose, DecompositionPolicy};
use crate::supervisor::{RecoveryStats, RetryPolicy, Supervisor};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_simgrid::faults::{FaultConfig, FaultPlan, LoadStorm};
use prodpred_simgrid::{GrowingPlatform, MachineClass, Platform};
use prodpred_sor::{simulate, DistSorConfig};
use prodpred_stochastic::{AccuracyReport, Observation};
use serde::{Deserialize, Serialize};

/// One predicted-then-measured run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Platform time at which the run started.
    pub start: f64,
    /// Grid dimension.
    pub n: usize,
    /// Measured execution time (simulated distributed run).
    pub actual_secs: f64,
    /// The prediction issued immediately before the run.
    pub prediction: Prediction,
}

impl RunRecord {
    /// The record as a coverage observation.
    pub fn observation(&self) -> Observation {
        Observation {
            predicted: self.prediction.stochastic,
            actual: self.actual_secs,
        }
    }
}

/// A series of runs plus the context needed for the paper's paired load
/// figures.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentSeries {
    /// The runs, in time order.
    pub records: Vec<RunRecord>,
    /// Load samples `(t, availability)` of the watched machine over the
    /// experiment window (Figures 8, 13, 15, 17).
    pub load_samples: Vec<(f64, f64)>,
    /// Index of the machine whose load is recorded.
    pub watched_machine: usize,
}

impl ExperimentSeries {
    /// Accuracy of the stochastic predictions. `None` if no runs.
    pub fn accuracy(&self) -> Option<AccuracyReport> {
        let obs: Vec<Observation> = self.records.iter().map(RunRecord::observation).collect();
        AccuracyReport::from_observations(&obs)
    }
}

/// Configuration shared by the production experiments.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// RNG seed for the platform's load processes.
    pub seed: u64,
    /// Red+black iterations per run.
    pub iterations: usize,
    /// Warm-up before the first run (lets the NWS accumulate history).
    pub warmup_secs: f64,
    /// Idle gap between consecutive runs.
    pub gap_secs: f64,
    /// Strip decomposition policy.
    pub decomposition: DecompositionPolicy,
    /// Predictor settings.
    pub predictor: PredictorConfig,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            iterations: 50,
            warmup_secs: 300.0,
            gap_secs: 30.0,
            decomposition: DecompositionPolicy::DedicatedSpeed,
            predictor: PredictorConfig::default(),
        }
    }
}

/// Degradation accounting over one faulted series: how much the
/// measurement substrate decayed, and how often the prediction service
/// had to fall below full quality to keep answering.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DegradationStats {
    /// CPU queries issued for prediction accounting (one per in-use
    /// machine per run).
    pub queries: usize,
    /// Queries answered in a degraded mode (fallback estimator, stale
    /// data) or not answerable at all.
    pub degraded_queries: usize,
    /// Largest staleness, in whole sensor cadences, seen by any query.
    pub max_stale_intervals: f64,
    /// Runs skipped because no machine had any retained measurements
    /// (total sensor blackout outlasting the retention window).
    pub skipped_runs: usize,
    /// Scheduled sensor polls that delivered nothing, summed over all
    /// CPU sensors.
    pub missed_polls: u64,
    /// Measurements discarded as corrupt, summed over all CPU sensors.
    pub corrupt_polls: u64,
}

/// An experiment series run under fault injection, with its degradation
/// accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultedSeries {
    /// The predicted-vs-actual records (skipped runs excluded).
    pub series: ExperimentSeries,
    /// How degraded the measurement substrate and query service were.
    pub stats: DegradationStats,
}

/// Runs a sequence of problem sizes (or repeated runs of one size) on a
/// platform: advance NWS → predict → simulate → record.
///
/// The platform is the caller's, and so is its horizon: a series whose
/// clock passes `platform.horizon` keeps going, but from there every
/// sensor poll and work integral reads the trace's held last value, not
/// generated load (`load_samples` stops at the horizon). The preset
/// constructors ([`platform1_experiment`] and its siblings) are the
/// callers that never get there: their platform grows with the clock. The
/// same holds for [`run_series_faulted`] and [`run_series_supervised`].
pub fn run_series(
    platform: &Platform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    watched_machine: usize,
) -> ExperimentSeries {
    let mut none = unsupervised(platform);
    let mut fixed = platform;
    run_series_inner(&mut fixed, sizes, cfg, watched_machine, None, &mut none).series
}

/// Like [`run_series`], but every sensor poll is routed through `plan`
/// (the platform is expected to already carry the plan's load storms —
/// see [`FaultPlan::apply_storms`]) and the predictor should normally be
/// configured `staleness_aware`. Runs whose prediction cannot be issued
/// at all (every in-use sensor history empty) are skipped and counted,
/// not panicked on.
// tidy:allow(PP011): oracle for the growing faulted presets, in tests/horizon_oracle.rs
pub fn run_series_faulted(
    platform: &Platform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    watched_machine: usize,
    plan: FaultPlan,
) -> FaultedSeries {
    let mut none = unsupervised(platform);
    let run = run_series_supervised(platform, sizes, cfg, watched_machine, plan, &mut none);
    without_recovery(run)
}

/// A fault-injected series run under a [`Supervisor`]: recovery
/// accounting rides alongside the degradation accounting.
#[derive(Debug, Clone, Serialize, Deserialize)]
// tidy:allow(PP011): what platform2_experiment_supervised returns; tests/horizon_oracle.rs compares it
pub struct SupervisedSeries {
    /// The predicted-vs-actual records (abandoned runs excluded).
    pub series: ExperimentSeries,
    /// How degraded the measurement substrate and query service were.
    pub stats: DegradationStats,
    /// What the supervisor did about it.
    pub recovery: RecoveryStats,
}

/// Like [`run_series_faulted`], but prediction failures are *supervised*
/// instead of immediately skipped: a run whose prediction cannot be
/// issued (e.g. every sensor inside a blackout) is retried under the
/// supervisor's [`RetryPolicy`], with
/// each deterministic backoff advancing the simulated clock — so an
/// outage shorter than the backoff budget delays the run instead of
/// losing it. Per-machine diagnostic queries route through the
/// supervisor's circuit breakers: a machine whose sensor keeps failing
/// is short-circuited (counted as degraded) until its cooldown elapses.
// tidy:allow(PP011): oracle for platform2_experiment_supervised's growing series, in tests/horizon_oracle.rs
pub fn run_series_supervised(
    platform: &Platform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    watched_machine: usize,
    plan: FaultPlan,
    supervisor: &mut Supervisor,
) -> SupervisedSeries {
    let mut fixed = platform;
    run_series_inner(
        &mut fixed,
        sizes,
        cfg,
        watched_machine,
        Some(plan),
        supervisor,
    )
}

/// The platform a series reads, and how it keeps ahead of the series
/// clock: the caller's fixed platform never grows, a preset's
/// [`GrowingPlatform`] generates load as the clock reaches it.
trait SeriesPlatform {
    fn platform(&self) -> &Platform;

    /// Makes the load defined strictly past `t`; true if that took
    /// generating more.
    fn cover(&mut self, t: f64) -> bool;
}

impl SeriesPlatform for &Platform {
    fn platform(&self) -> &Platform {
        self
    }

    fn cover(&mut self, _: f64) -> bool {
        false
    }
}

impl SeriesPlatform for GrowingPlatform {
    fn platform(&self) -> &Platform {
        GrowingPlatform::platform(self)
    }

    fn cover(&mut self, t: f64) -> bool {
        GrowingPlatform::cover(self, t)
    }
}

/// The supervisor of the series that have none, whatever their platform:
/// without breakers every query is allowed, and without retries
/// `retry_timed` is one attempt.
fn unsupervised(_: &Platform) -> Supervisor {
    Supervisor::new(RetryPolicy::none())
}

/// A series run under [`unsupervised`] has no recovery to account for.
fn without_recovery(series: SupervisedSeries) -> FaultedSeries {
    FaultedSeries {
        series: series.series,
        stats: series.stats,
    }
}

/// The one series runner. A healthy series is the faulted one with no
/// plan: no diagnostic queries, and a prediction that cannot be issued is
/// a bug, not an outage.
///
/// A growing platform is covered before every read: up to the clock before
/// each sensor advance, up to the prediction's own `mean + 2σ` before each
/// run, and up to the final clock before the load samples. A run that ends
/// past that upper bound may have read a held value; it is covered to its
/// end and simulated again until it ends inside the horizon — exact, as a
/// run that ended inside read nothing beyond.
fn run_series_inner(
    ground: &mut impl SeriesPlatform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    watched_machine: usize,
    plan: Option<FaultPlan>,
    supervisor: &mut Supervisor,
) -> SupervisedSeries {
    assert!(!sizes.is_empty(), "need at least one run");
    assert!(watched_machine < ground.platform().machines.len());
    let faulted = plan.is_some();
    let platform = ground.platform();
    let nws = match plan {
        Some(plan) => NwsService::attach_with_faults(platform, NwsConfig::default(), plan),
        None => NwsService::attach(platform, NwsConfig::default()),
    };
    let mut t = cfg.warmup_secs;
    let mut records = Vec::with_capacity(sizes.len());
    let mut stats = DegradationStats::default();

    let mut predictor_cfg = cfg.predictor;
    predictor_cfg.iterations = cfg.iterations;

    for &n in sizes {
        ground.cover(t);
        nws.advance_to(ground.platform(), t);
        let strips = decompose(ground.platform(), n, cfg.decomposition, None);
        if faulted {
            for i in 0..strips.len() {
                stats.queries += 1;
                if !supervisor.query_allowed(i, t) {
                    // Open breaker: the sensor is known-bad, answer straight
                    // from the degraded path without poking it again.
                    stats.degraded_queries += 1;
                    continue;
                }
                let query = nws.cpu_query(i);
                supervisor.record_query_outcome(i, t, query.is_ok());
                match query {
                    Ok(q) => {
                        if q.degraded {
                            stats.degraded_queries += 1;
                        }
                        stats.max_stale_intervals =
                            stats.max_stale_intervals.max(q.stale_intervals);
                    }
                    Err(_) => stats.degraded_queries += 1,
                }
            }
        }
        let predicted = supervisor.retry_timed(&mut t, |attempt, now| {
            if attempt > 0 {
                // Backoff moved the clock: let the sensors poll up to
                // `now` before asking again.
                ground.cover(now);
                nws.advance_to(ground.platform(), now);
            }
            SorPredictor::try_new(ground.platform(), &nws, predictor_cfg)
                .and_then(|p| p.try_predict(n, &strips))
        });
        let prediction = match predicted {
            Ok(p) => p,
            Err(_) if faulted => {
                // Nothing to predict from, and the retry budget (if any)
                // ran out inside the outage. Skip the run rather than
                // panic; the study counts it.
                stats.skipped_runs += 1;
                t += cfg.gap_secs;
                continue;
            }
            Err(e) => panic!("NWS has data after warmup: {e}"),
        };
        let upper = prediction.stochastic.hi();
        if upper.is_finite() {
            ground.cover(t + upper);
        }
        let run_cfg = DistSorConfig {
            paging: None,
            n,
            iterations: cfg.iterations,
            start_time: t,
        };
        let mut run = simulate(ground.platform(), &strips, run_cfg);
        while ground.cover(t + run.total_secs) {
            run = simulate(ground.platform(), &strips, run_cfg);
        }
        records.push(RunRecord {
            start: t,
            n,
            actual_secs: run.total_secs,
            prediction,
        });
        t += run.total_secs + cfg.gap_secs;
    }

    ground.cover(t);
    let platform = ground.platform();
    for i in 0..platform.machines.len() {
        let (missed, corrupt) = nws.cpu_sensor_health(i);
        stats.missed_polls += missed;
        stats.corrupt_polls += corrupt;
    }

    let load_samples =
        platform.machines[watched_machine]
            .load
            .sample_every(0.0, t.min(platform.horizon), 5.0);
    SupervisedSeries {
        series: ExperimentSeries {
            records,
            load_samples,
            watched_machine,
        },
        stats,
        recovery: supervisor.stats(),
    }
}

/// The machine classes of Platform 1, for building a matching dedicated
/// platform.
pub(crate) const PLATFORM1_CLASSES: [MachineClass; 4] = [
    MachineClass::Sparc2,
    MachineClass::Sparc2,
    MachineClass::Sparc5,
    MachineClass::Sparc10,
];

/// One row of the dedicated-model validation (paper §2.2.1: "the
/// structural model defined in this section predicted overall application
/// execution times to within 2% of actual execution time").
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct DedicatedCheck {
    /// Grid dimension.
    pub n: usize,
    /// Structural-model point prediction.
    pub predicted_secs: f64,
    /// Simulated dedicated run time.
    pub actual_secs: f64,
    /// `|predicted - actual| / actual`.
    pub rel_error: f64,
}

/// Validates the dedicated structural model across problem sizes.
pub fn dedicated_check(sizes: &[usize], iterations: usize) -> Vec<DedicatedCheck> {
    let horizon = 1.0e6;
    let platform = Platform::dedicated(&PLATFORM1_CLASSES, horizon);
    sizes
        .iter()
        .map(|&n| {
            let strips = decompose(&platform, n, DecompositionPolicy::DedicatedSpeed, None);
            let predicted = predict_dedicated(&platform, n, &strips, iterations);
            let run = simulate(
                &platform,
                &strips,
                DistSorConfig {
                    paging: None,
                    n,
                    iterations,
                    start_time: 0.0,
                },
            );
            DedicatedCheck {
                n,
                predicted_secs: predicted.mean(),
                actual_secs: run.total_secs,
                rel_error: (predicted.mean() - run.total_secs).abs() / run.total_secs,
            }
        })
        .collect()
}

/// Runs a preset series on a platform that grows with its clock
/// (`grow(cfg.seed, storms)`, under the plan's load storms if any), with
/// the supervisor `supervise` builds.
///
/// The result is the series of an unbounded platform, bit for bit: the
/// grown platform is the platform generated in one go (see
/// [`GrowingPlatform`]), and the runner covers every time it reads before
/// reading it. A fixed 40 000 s / 60 000 s platform, as these experiments
/// once used, silently read its held last value once a long series outran
/// it; such a series reads real load.
fn on_growing_platform(
    grow: fn(u64, &[LoadStorm]) -> GrowingPlatform,
    sizes: &[usize],
    cfg: &ExperimentConfig,
    plan: Option<&FaultPlan>,
    supervise: impl Fn(&Platform) -> Supervisor,
) -> SupervisedSeries {
    let storms = plan.map_or(&[][..], |plan| &plan.config().storms);
    let mut platform = grow(cfg.seed, storms);
    let mut supervisor = supervise(platform.platform());
    // Watch machine 0. On Platform 1 that is a Sparc-2: "the load of the
    // (consistently) slowest machine".
    run_series_inner(&mut platform, sizes, cfg, 0, plan.cloned(), &mut supervisor)
}

/// The Platform-1 experiment (Figures 8–9): single-mode load, a sweep of
/// problem sizes, stochastic predictions expected to cover every actual.
pub fn platform1_experiment(seed: u64, sizes: &[usize]) -> ExperimentSeries {
    let cfg = ExperimentConfig {
        seed,
        ..Default::default()
    };
    on_growing_platform(GrowingPlatform::platform1, sizes, &cfg, None, unsupervised).series
}

/// The Platform-2 experiment (Figures 12–17): bursty 4-modal load,
/// repeated runs of one problem size.
pub fn platform2_experiment(seed: u64, n: usize, runs: usize) -> ExperimentSeries {
    assert!(runs > 0);
    let cfg = ExperimentConfig {
        seed,
        gap_secs: 20.0,
        ..Default::default()
    };
    let sizes = vec![n; runs];
    on_growing_platform(GrowingPlatform::platform2, &sizes, &cfg, None, unsupervised).series
}

/// Shared setup of the fault-injected experiments: a plan whose load
/// storms perturb the ground truth and whose sensor faults route every
/// NWS poll, and predictions through the staleness-aware query path.
fn faulted_config(seed: u64, faults: &FaultConfig) -> (FaultPlan, ExperimentConfig) {
    let plan = FaultPlan::new(faults.clone());
    let mut cfg = ExperimentConfig {
        seed,
        ..Default::default()
    };
    cfg.predictor.staleness_aware = true;
    (plan, cfg)
}

/// The Platform-1 experiment under fault injection: same size sweep as
/// [`platform1_experiment`], but sensors miss/delay/corrupt polls per
/// `faults`, load storms perturb the ground truth, and predictions flow
/// through the degradation-aware query chain.
// tidy:allow(PP011): the faulted preset sweep runs; tests/horizon_oracle.rs checks it against its oracle
pub fn platform1_experiment_with_faults(
    seed: u64,
    sizes: &[usize],
    faults: &FaultConfig,
) -> FaultedSeries {
    let (plan, cfg) = faulted_config(seed, faults);
    let run = on_growing_platform(
        GrowingPlatform::platform1,
        sizes,
        &cfg,
        Some(&plan),
        unsupervised,
    );
    without_recovery(run)
}

/// The Platform-2 experiment under fault injection; see
/// [`platform1_experiment_with_faults`].
pub fn platform2_experiment_with_faults(
    seed: u64,
    n: usize,
    runs: usize,
    faults: &FaultConfig,
) -> FaultedSeries {
    assert!(runs > 0);
    let (plan, mut cfg) = faulted_config(seed, faults);
    cfg.gap_secs = 20.0;
    let sizes = vec![n; runs];
    let run = on_growing_platform(
        GrowingPlatform::platform2,
        &sizes,
        &cfg,
        Some(&plan),
        unsupervised,
    );
    without_recovery(run)
}

/// The Platform-2 fault-injected experiment run under a supervisor: the
/// setup of [`platform2_experiment_with_faults`] plus bounded prediction
/// retries and a per-machine circuit breaker (3 consecutive sensor
/// failures open it for two minutes of simulated time).
// tidy:allow(PP011): the supervised preset; tests/horizon_oracle.rs, tests/chaos_recovery.rs and tests/determinism.rs check it
pub fn platform2_experiment_supervised(
    seed: u64,
    n: usize,
    runs: usize,
    faults: &FaultConfig,
    retry: RetryPolicy,
) -> SupervisedSeries {
    assert!(runs > 0);
    let (plan, mut cfg) = faulted_config(seed, faults);
    cfg.gap_secs = 20.0;
    let sizes = vec![n; runs];
    on_growing_platform(
        GrowingPlatform::platform2,
        &sizes,
        &cfg,
        Some(&plan),
        |platform| Supervisor::new(retry).with_breakers(platform.machines.len(), 3, 120.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_model_within_two_percent() {
        for check in dedicated_check(&[600, 1000, 1400], 20) {
            assert!(
                check.rel_error < 0.02,
                "n={}: predicted {:.2}, actual {:.2}, err {:.3}",
                check.n,
                check.predicted_secs,
                check.actual_secs,
                check.rel_error
            );
        }
    }

    #[test]
    fn platform1_stochastic_covers_all_runs() {
        let series = platform1_experiment(11, &[1000, 1200, 1400, 1600, 1800, 2000]);
        let acc = series.accuracy().unwrap();
        // Figure 9: "execution time measurements fall entirely within the
        // stochastic prediction" — allow one near miss under reseeding.
        assert!(acc.coverage >= 0.8, "coverage {}", acc.coverage);
        // "maximal discrepancy between the means ... and actual execution
        // times is 9.7%": mean-point error is visible but bounded.
        assert!(acc.max_mean_error < 0.25, "mean err {}", acc.max_mean_error);
        assert!(acc.max_range_error <= acc.max_mean_error);
    }

    #[test]
    fn platform1_times_grow_with_problem_size() {
        let series = platform1_experiment(12, &[1000, 1400, 2000]);
        let t: Vec<f64> = series.records.iter().map(|r| r.actual_secs).collect();
        assert!(t[1] > t[0] && t[2] > t[1], "{t:?}");
        // Roughly quadratic: 2000^2 / 1000^2 = 4x work.
        assert!(t[2] / t[0] > 2.5 && t[2] / t[0] < 6.0, "{t:?}");
    }

    #[test]
    fn platform2_stochastic_beats_point() {
        let series = platform2_experiment(21, 1600, 10);
        let acc = series.accuracy().unwrap();
        // Figures 12–17: most actuals inside the range; the range error is
        // far below the mean-point error.
        assert!(acc.coverage >= 0.5, "coverage {}", acc.coverage);
        assert!(
            acc.max_range_error < acc.max_mean_error,
            "range {} vs mean {}",
            acc.max_range_error,
            acc.max_mean_error
        );
    }

    #[test]
    fn faultless_faulted_experiment_matches_the_healthy_one_bitwise() {
        let healthy = platform2_experiment(31, 1000, 4);
        let faulted = platform2_experiment_with_faults(31, 1000, 4, &FaultConfig::none(31));
        assert_eq!(faulted.stats.skipped_runs, 0);
        assert_eq!(faulted.stats.missed_polls, 0);
        assert_eq!(faulted.stats.corrupt_polls, 0);
        assert_eq!(faulted.series.records.len(), healthy.records.len());
        for (a, b) in faulted.series.records.iter().zip(&healthy.records) {
            assert_eq!(a.actual_secs.to_bits(), b.actual_secs.to_bits());
            // The staleness-aware path answers from fresh forecasts on
            // healthy data, so predictions agree bit-for-bit too.
            assert_eq!(
                a.prediction.stochastic.mean().to_bits(),
                b.prediction.stochastic.mean().to_bits()
            );
        }
    }

    #[test]
    fn faulted_experiment_is_deterministic_and_counts_degradation() {
        let faults = FaultConfig::with_intensity(31, 0.8);
        let a = platform1_experiment_with_faults(31, &[1000, 1400], &faults);
        let b = platform1_experiment_with_faults(31, &[1000, 1400], &faults);
        assert_eq!(a.stats.queries, b.stats.queries);
        assert_eq!(a.stats.degraded_queries, b.stats.degraded_queries);
        assert_eq!(a.stats.missed_polls, b.stats.missed_polls);
        assert!(a.stats.missed_polls > 0, "dropout never fired");
        assert!(a.stats.queries > 0);
        for (ra, rb) in a.series.records.iter().zip(&b.series.records) {
            assert_eq!(ra.actual_secs.to_bits(), rb.actual_secs.to_bits());
            assert_eq!(
                ra.prediction.stochastic.mean().to_bits(),
                rb.prediction.stochastic.mean().to_bits()
            );
        }
    }

    #[test]
    fn supervised_series_retries_through_a_blackout() {
        // Blackout [0, 500] swallows the warmup: at t=300 every sensor
        // history is empty, so the unsupervised harness loses the run.
        let mut faults = FaultConfig::none(41);
        faults.blackouts.push((0.0, 500.0));
        let unsupervised = platform2_experiment_with_faults(41, 1000, 3, &faults);
        assert!(
            unsupervised.stats.skipped_runs >= 1,
            "blackout should cost the unsupervised harness at least one run"
        );

        // A retry budget whose backoffs outlast the blackout recovers it:
        // 60 + 120 + 240 s (zero jitter) pushes the clock past t=500.
        let retry = RetryPolicy {
            max_retries: 3,
            base_backoff_secs: 60.0,
            backoff_factor: 2.0,
            max_backoff_secs: 600.0,
            jitter_fraction: 0.0,
            seed: 41,
        };
        let supervised = platform2_experiment_supervised(41, 1000, 3, &faults, retry);
        assert_eq!(
            supervised.stats.skipped_runs, 0,
            "retries must save the run"
        );
        assert_eq!(supervised.series.records.len(), 3);
        assert!(supervised.recovery.retries >= 1);
        assert_eq!(supervised.recovery.recovered, 1);
        assert_eq!(supervised.recovery.abandoned, 0);
        assert!(supervised.recovery.backoff_secs >= 60.0);
        // The first run waited out the blackout.
        assert!(supervised.series.records[0].start > 500.0);
    }

    #[test]
    fn supervised_series_is_deterministic() {
        let faults = FaultConfig::with_intensity(43, 0.8);
        let retry = RetryPolicy {
            jitter_fraction: 0.25,
            seed: 43,
            ..Default::default()
        };
        let a = platform2_experiment_supervised(43, 1000, 4, &faults, retry);
        let b = platform2_experiment_supervised(43, 1000, 4, &faults, retry);
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.stats.degraded_queries, b.stats.degraded_queries);
        assert_eq!(a.series.records.len(), b.series.records.len());
        for (ra, rb) in a.series.records.iter().zip(&b.series.records) {
            assert_eq!(ra.start.to_bits(), rb.start.to_bits());
            assert_eq!(ra.actual_secs.to_bits(), rb.actual_secs.to_bits());
            assert_eq!(
                ra.prediction.stochastic.mean().to_bits(),
                rb.prediction.stochastic.mean().to_bits()
            );
        }
    }

    #[test]
    fn supervised_matches_faulted_when_nothing_fails() {
        // With no faults and a healthy substrate the supervisor is pure
        // bookkeeping: the series must be bit-identical to the faulted
        // harness, with zero recovery activity.
        let faults = FaultConfig::none(31);
        let plain = platform2_experiment_with_faults(31, 1000, 4, &faults);
        let supervised =
            platform2_experiment_supervised(31, 1000, 4, &faults, RetryPolicy::default());
        assert_eq!(supervised.recovery, RecoveryStats::default());
        assert_eq!(supervised.series.records.len(), plain.series.records.len());
        for (a, b) in supervised.series.records.iter().zip(&plain.series.records) {
            assert_eq!(a.actual_secs.to_bits(), b.actual_secs.to_bits());
            assert_eq!(
                a.prediction.stochastic.mean().to_bits(),
                b.prediction.stochastic.mean().to_bits()
            );
        }
    }

    #[test]
    fn a_preset_series_generates_only_what_it_reads() {
        // The platform's horizon ends one step past the furthest time the
        // runner covered: the final clock, or a run's start plus its
        // predicted `mean + 2σ`, or a run's end, which lies before the
        // final clock.
        type Grow = fn(u64, &[LoadStorm]) -> GrowingPlatform;
        let cases: [(Grow, Vec<usize>, f64); 2] = [
            (GrowingPlatform::platform1, vec![1000, 1600, 2000], 30.0),
            (GrowingPlatform::platform2, vec![1600; 10], 20.0),
        ];
        for (grow, sizes, gap_secs) in cases {
            for seed in 0..8 {
                let cfg = ExperimentConfig {
                    seed,
                    gap_secs,
                    ..Default::default()
                };
                let mut platform = grow(seed, &[]);
                let mut none = Supervisor::new(RetryPolicy::none());
                let series =
                    run_series_inner(&mut platform, &sizes, &cfg, 0, None, &mut none).series;
                let last = series.records.last().unwrap();
                let end_clock = last.start + (last.actual_secs + gap_secs);
                let reach = series
                    .records
                    .iter()
                    .map(|r| r.start + r.prediction.stochastic.hi())
                    .fold(end_clock, f64::max);
                let horizon = platform.platform().horizon;
                assert!(horizon > end_clock, "seed {seed}: {horizon} <= {end_clock}");
                assert!(
                    horizon <= reach + platform.platform().network.avail.dt(),
                    "seed {seed}: generated to {horizon}, read to {end_clock}, reached {reach}"
                );
            }
        }
    }

    #[test]
    fn series_records_are_time_ordered_and_load_sampled() {
        let series = platform2_experiment(22, 1000, 5);
        assert_eq!(series.records.len(), 5);
        for w in series.records.windows(2) {
            assert!(w[1].start > w[0].start + w[0].actual_secs - 1e-9);
        }
        assert!(!series.load_samples.is_empty());
        assert!(series
            .load_samples
            .iter()
            .all(|&(_, v)| v > 0.0 && v <= 1.0));
    }
}
