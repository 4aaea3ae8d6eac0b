//! The NWS facade: per-resource sensors plus adaptive forecasting, queried
//! for stochastic values.
//!
//! "The Network Weather Service supplied us with accurate run-time
//! information about the CPU load on our machines as well as the variance
//! of those values at 5 second intervals." A query combines the adaptive
//! forecast (the mean) with the recent measurement variance and the
//! forecaster's own error estimate (the spread), yielding the
//! `mean ± 2σ` stochastic values the prediction models consume.

use crate::forecast::{AdaptiveForecaster, Forecast};
use crate::sensor::Sensor;
use crate::series::TimeSeries;
use crate::snapshot::HorizonBasis;
use prodpred_simgrid::faults::{FaultPlan, BANDWIDTH_RESOURCE};
use prodpred_simgrid::Platform;
use prodpred_stochastic::{StochasticValue, Summary};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Locks a sensor for reading, recovering from poisoning: a panic in
/// some other thread mid-read cannot have torn the sensor state (all
/// writes go through `poll_until_with`, which restores invariants), so
/// continuing with the inner value is sound and keeps the service
/// answering during partial failures.
pub(crate) fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write analogue of [`read_lock`], with the same poison-recovery
/// rationale.
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Which estimator produced a [`QuerySummary`]. The service falls down
/// this chain as the retained history thins out: the forecaster needs a
/// few samples to postcast, window statistics need two, and a single
/// measurement can still be reported as a point value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueryMode {
    /// Full service: adaptive forecast mean + configured spread policy.
    Forecast,
    /// Degraded: mean ± sd of whatever window samples exist (2–3).
    WindowStats,
    /// Heavily degraded: the one retained measurement, zero spread.
    LastKnown,
}

/// A fault-aware query result: the stochastic value plus everything a
/// caller needs to judge how much to trust it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuerySummary {
    /// The reported `mean ± 2σ`, already staleness-widened.
    pub value: StochasticValue,
    /// Which estimator in the fallback chain produced the value.
    pub mode: QueryMode,
    /// Age of the freshest measurement at query time, in seconds.
    pub age_secs: f64,
    /// Measurements retained for this resource.
    pub samples: usize,
    /// True when fewer than `VARIANCE_WINDOW` (24) samples back the spread
    /// estimate — the window statistics are computed over whatever
    /// exists, which is normal at startup but a degradation signal once
    /// the service has been running longer than the window.
    pub partial_window: bool,
    /// Whole sensor cadences by which the freshest measurement lags the
    /// query time (0 when data is fresh). The spread is widened by
    /// `sqrt(1 + stale_intervals)` — variance grows linearly with the
    /// unobserved gap, as for a random walk.
    pub stale_intervals: f64,
    /// True when the result should be treated with suspicion: the
    /// estimator is below [`QueryMode::Forecast`] or the data is stale.
    pub degraded: bool,
}

/// Why a query could not produce a value at all. Queries degrade before
/// they fail — this only surfaces when there is literally nothing to
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The resource has no retained measurements (sensor never ran, or a
    /// blackout/dropout has outlived the retention window).
    NoData {
        /// The resource label, e.g. `"cpu:sparc2-a"`.
        resource: String,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoData { resource } => {
                write!(f, "no measurements retained for {resource}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// How the spread (the `± 2σ`) of a reported stochastic value is derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpreadPolicy {
    /// σ = the winning forecaster's one-step RMSE — the real NWS's
    /// accuracy estimate, and the default. On bursty resources this
    /// reflects how badly the next measurement can jump; on stable ones
    /// it collapses to the measurement noise.
    ForecastRmse,
    /// σ = the recent window's sample standard deviation. On multi-modal
    /// resources this includes the between-mode variance and is very
    /// conservative.
    WindowVariance,
    /// σ = sqrt(window variance + RMSE²): both failure modes combined,
    /// the most conservative option.
    Combined,
}

/// Sensor cadence in seconds (the paper's NWS reported every 5 s).
const INTERVAL: f64 = 5.0;
/// Measurements retained per resource.
const CAPACITY: usize = 4096;
/// Window (in samples) used for the variance estimate: two minutes of
/// 5-second samples.
const VARIANCE_WINDOW: usize = 24;

/// Service configuration.
#[derive(Debug, Clone, Copy)]
pub struct NwsConfig {
    /// Spread derivation.
    pub spread: SpreadPolicy,
}

impl Default for NwsConfig {
    fn default() -> Self {
        Self {
            spread: SpreadPolicy::ForecastRmse,
        }
    }
}

/// The Network Weather Service for one platform: one CPU sensor per
/// machine plus a bandwidth sensor on the shared segment.
///
/// Queries are `&self` (sensors live behind [`RwLock`]s) so a scheduler
/// thread can read while the monitoring thread advances.
///
/// ```
/// use prodpred_nws::{NwsConfig, NwsService};
/// use prodpred_simgrid::Platform;
///
/// let platform = Platform::platform1(7, 3600.0);
/// let nws = NwsService::attach(&platform, NwsConfig::default());
/// nws.advance_to(&platform, 600.0); // ten minutes of 5 s samples
/// let load = nws.cpu_stochastic(0).unwrap();
/// assert!((load.mean() - 0.48).abs() < 0.05, "{load}");
/// ```
pub struct NwsService {
    config: NwsConfig,
    pub(crate) cpu: Vec<RwLock<Sensor>>,
    pub(crate) bandwidth: RwLock<Sensor>,
    faults: Option<FaultPlan>,
    /// The furthest time the sensors have been advanced to — the "now"
    /// against which measurement staleness is judged.
    now: RwLock<f64>,
}

impl NwsService {
    /// Attaches a service to `platform`, with sensors starting at t = 0.
    pub fn attach(platform: &Platform, config: NwsConfig) -> Self {
        Self::attach_inner(platform, config, None)
    }

    /// Like [`NwsService::attach`], but every sensor poll is routed
    /// through `plan`: CPU sensor `i` uses fault stream `i`, the
    /// bandwidth sensor uses [`BANDWIDTH_RESOURCE`]. The perturbations
    /// are a pure function of the plan's seed and each poll's index, so
    /// the same plan always yields bit-identical histories.
    pub fn attach_with_faults(platform: &Platform, config: NwsConfig, plan: FaultPlan) -> Self {
        Self::attach_inner(platform, config, Some(plan))
    }

    fn attach_inner(platform: &Platform, config: NwsConfig, faults: Option<FaultPlan>) -> Self {
        let ensemble = Arc::new(AdaptiveForecaster::standard());
        let sensor = |name: String| {
            RwLock::new(Sensor::with_ensemble(
                name,
                INTERVAL,
                CAPACITY,
                0.0,
                Arc::clone(&ensemble),
            ))
        };
        let cpu = platform
            .machines
            .iter()
            .map(|m| sensor(format!("cpu:{}", m.spec.name)))
            .collect();
        let bandwidth = sensor("bandwidth:segment".to_string());
        Self {
            config,
            cpu,
            bandwidth,
            faults,
            now: RwLock::new(0.0),
        }
    }

    /// Number of monitored machines.
    pub fn n_machines(&self) -> usize {
        self.cpu.len()
    }

    /// Advances every sensor to time `t`, polling the platform's traces on
    /// the configured cadence. With an attached fault plan, each poll may
    /// be dropped, delayed, spiked, or corrupted (see
    /// `Sensor::poll_until_with`).
    pub fn advance_to(&self, platform: &Platform, t: f64) {
        for (i, (sensor, machine)) in self.cpu.iter().zip(&platform.machines).enumerate() {
            let view = self.faults.as_ref().map(|p| p.sensor(i as u64));
            write_lock(sensor).poll_until_with(&machine.load, t, view.as_ref());
        }
        let view = self.faults.as_ref().map(|p| p.sensor(BANDWIDTH_RESOURCE));
        write_lock(&self.bandwidth).poll_until_with(&platform.network.avail, t, view.as_ref());
        let mut now = write_lock(&self.now);
        *now = now.max(t);
    }

    /// The furthest time the sensors have been advanced to.
    pub fn now(&self) -> f64 {
        *read_lock(&self.now)
    }

    /// The spread of a forecast-mode value under the configured policy.
    fn sigma(&self, series: &TimeSeries, forecast: Forecast) -> f64 {
        let window_sd = || self.window_summary(series).sd();
        match self.config.spread {
            SpreadPolicy::ForecastRmse => forecast.rmse,
            SpreadPolicy::WindowVariance => window_sd(),
            SpreadPolicy::Combined => {
                let sd = window_sd();
                (sd * sd + forecast.rmse * forecast.rmse).sqrt()
            }
        }
    }

    /// Moments of the last `VARIANCE_WINDOW` samples (spread 0.0 below
    /// two), accumulated over a view of the ring.
    fn window_summary(&self, series: &TimeSeries) -> Summary {
        let mut s = Summary::new();
        for x in series.recent_values(VARIANCE_WINDOW) {
            s.push(x);
        }
        s
    }

    /// [`NwsService::cpu_stochastic`] of a sensor whose lock is held.
    pub(crate) fn stochastic_of(&self, sensor: &Sensor) -> Option<StochasticValue> {
        let forecast = sensor.forecast()?;
        let sigma = self.sigma(sensor.series(), forecast);
        Some(StochasticValue::from_mean_sd(forecast.value, sigma))
    }

    /// [`NwsService::cpu_query`] of a sensor whose lock is held, judged
    /// against the clock `now`.
    pub(crate) fn query_of(&self, sensor: &Sensor, now: f64) -> Result<QuerySummary, QueryError> {
        let series = sensor.series();
        let samples = series.len();
        let Some((_, last_value)) = series.last() else {
            return Err(QueryError::NoData {
                resource: sensor.name.clone(),
            });
        };
        let age_secs = sensor.age_at(now);
        // Fresh data lags "now" by less than one cadence; every whole
        // extra cadence of silence is one unobserved interval.
        let stale_intervals = (age_secs / sensor.interval() - 1.0).max(0.0).floor();
        // The fallback chain is genuinely a chain: a forecaster that
        // declines (however many samples exist) drops to window
        // statistics, and a window too thin for statistics drops to the
        // last known value, which the emptiness check above guarantees.
        let forecast = if samples >= 4 {
            sensor.forecast()
        } else {
            None
        };
        let (base, mode) = if let Some(forecast) = forecast {
            (
                StochasticValue::from_mean_sd(forecast.value, self.sigma(series, forecast)),
                QueryMode::Forecast,
            )
        } else if samples >= 2 {
            let s = self.window_summary(series);
            (
                StochasticValue::from_mean_sd(s.mean(), s.sd()),
                QueryMode::WindowStats,
            )
        } else {
            (
                StochasticValue::from_mean_sd(last_value, 0.0),
                QueryMode::LastKnown,
            )
        };
        let value = base.widen((1.0 + stale_intervals).sqrt());
        let partial_window = samples < VARIANCE_WINDOW;
        Ok(QuerySummary {
            value,
            mode,
            age_secs,
            samples,
            partial_window,
            stale_intervals,
            degraded: mode != QueryMode::Forecast || stale_intervals > 0.0,
        })
    }

    fn stochastic_from(&self, sensor: &RwLock<Sensor>) -> Option<StochasticValue> {
        self.stochastic_of(&read_lock(sensor))
    }

    fn query_from(&self, sensor: &RwLock<Sensor>) -> Result<QuerySummary, QueryError> {
        self.query_of(&read_lock(sensor), self.now())
    }

    /// Fault-aware CPU availability query for machine `i`.
    ///
    /// Unlike [`NwsService::cpu_stochastic`] this never degrades
    /// silently: the summary reports which estimator produced the value
    /// (the chain is forecast → window statistics → last-known value),
    /// how old the freshest measurement is, whether the variance window
    /// is only partially filled, and the spread is widened by
    /// `sqrt(1 + stale_intervals)` so confidence decays with sensor
    /// silence. Only an empty history is an error.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] only when the series holds no measurement
    /// history at all.
    pub fn cpu_query(&self, i: usize) -> Result<QuerySummary, QueryError> {
        self.query_from(&self.cpu[i])
    }

    /// Fault-aware available-bandwidth-fraction query; see
    /// [`NwsService::cpu_query`] for the degradation contract.
    ///
    /// # Errors
    ///
    /// Returns a [`QueryError`] only when the series holds no measurement
    /// history at all.
    pub fn bandwidth_fraction_query(&self) -> Result<QuerySummary, QueryError> {
        self.query_from(&self.bandwidth)
    }

    /// Scheduled polls machine `i`'s sensor missed (dropout/blackout),
    /// and measurements it discarded as corrupt.
    pub fn cpu_sensor_health(&self, i: usize) -> (u64, u64) {
        let guard = read_lock(&self.cpu[i]);
        (guard.missed_polls(), guard.corrupt_polls())
    }

    /// Stochastic CPU availability for machine `i` at the current horizon.
    /// `None` until the first measurement arrives.
    ///
    /// Degrades *silently*: with fewer than `VARIANCE_WINDOW` samples the
    /// spread is computed over whatever window exists (and reads 0.0
    /// below two samples) with no indication in the return value. Use
    /// [`NwsService::cpu_query`] when that distinction matters.
    pub fn cpu_stochastic(&self, i: usize) -> Option<StochasticValue> {
        self.stochastic_from(&self.cpu[i])
    }

    /// Stochastic available-bandwidth *fraction* of the shared segment.
    pub fn bandwidth_fraction_stochastic(&self) -> Option<StochasticValue> {
        self.stochastic_from(&self.bandwidth)
    }

    /// Estimated autocorrelation time of a load history, in seconds:
    /// `tau = -interval / ln(rho1)` from its lag-1 autocorrelation. `None`
    /// below 8 samples or on a constant series.
    pub(crate) fn autocorrelation_time_of(&self, history: &[f64]) -> Option<f64> {
        if history.len() < 8 {
            return None;
        }
        let rho = prodpred_stochastic::stats::autocorrelation(history, 1)?.clamp(-0.999, 0.999);
        if rho <= 0.0 {
            // Effectively uncorrelated at the sensor cadence.
            return Some(INTERVAL * 0.1);
        }
        Some(-INTERVAL / rho.ln())
    }

    /// The stochastic value of machine `i`'s load *averaged over a run of
    /// `horizon_secs`* — the paper's Section-2.1.2 observation made
    /// quantitative: "if the data changes modes frequently or
    /// unpredictably, or if the application is long-running, assuming that
    /// the data remains within a single mode is not sufficient."
    ///
    /// Mean: the current forecast regressed toward the long-run mean by
    /// the OU time-average factor `(tau/D)(1 - e^(-D/tau))`. Spread: the
    /// stationary variance of the OU time-average,
    /// `sigma^2 (2 tau/D)(1 - (tau/D)(1 - e^(-D/tau)))`, where `sigma` is
    /// the full history's standard deviation (between-mode spread
    /// included) — shrinking exactly as much as a run of that length
    /// averages over bursts.
    pub fn cpu_stochastic_for_horizon(
        &self,
        i: usize,
        horizon_secs: f64,
    ) -> Option<StochasticValue> {
        assert!(horizon_secs > 0.0, "horizon must be positive");
        let sensor = read_lock(&self.cpu[i]);
        let current = self.stochastic_of(&sensor)?;
        let history = sensor.series().contiguous_values();
        let tau = self.autocorrelation_time_of(&history);
        HorizonBasis::of(&history, tau).time_average(current, horizon_secs)
    }

    /// The paper's Section-2.1.2 multi-modal stochastic value for machine
    /// `i`: detect the modes of the retained history, weight each mode's
    /// `M_i ± SD_i` by its occupancy `P_i`, and return
    /// `sum_i P_i (M_i ± SD_i)`. Falls back to the plain stochastic value
    /// when the history is too short for mode detection.
    pub fn cpu_modal_stochastic(&self, i: usize) -> Option<StochasticValue> {
        let sensor = read_lock(&self.cpu[i]);
        modal_of(&sensor.series().contiguous_values()).or_else(|| self.stochastic_of(&sensor))
    }

    /// The latest raw CPU measurement for machine `i`.
    pub fn cpu_last(&self, i: usize) -> Option<(f64, f64)> {
        read_lock(&self.cpu[i]).series().last()
    }

    /// The latest raw bandwidth measurement.
    pub fn bandwidth_last(&self) -> Option<(f64, f64)> {
        read_lock(&self.bandwidth).series().last()
    }
}

/// The occupancy-weighted modal value of a history, when it is long
/// enough for mode detection.
pub(crate) fn modal_of(history: &[f64]) -> Option<StochasticValue> {
    prodpred_stochastic::fit::detect_modes(history).map(|model| model.weighted_average())
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_simgrid::Platform;

    impl NwsService {
        /// Fault-aware available-bandwidth query in bytes/second: the
        /// `BWAvail * DedBW` the structural model forms from
        /// [`NwsService::bandwidth_fraction_query`], the oracle these tests
        /// hold that fraction's scale to.
        ///
        /// # Errors
        ///
        /// Returns a [`QueryError`] only when the series holds no measurement
        /// history at all.
        pub(crate) fn bandwidth_query(
            &self,
            platform: &Platform,
        ) -> Result<QuerySummary, QueryError> {
            self.bandwidth_fraction_query().map(|mut q| {
                q.value = q.value.scale(platform.network.spec.dedicated_bw);
                q
            })
        }

        /// Stochastic available bandwidth in bytes/second: the same oracle
        /// for [`NwsService::bandwidth_fraction_stochastic`].
        pub(crate) fn bandwidth_stochastic(&self, platform: &Platform) -> Option<StochasticValue> {
            self.bandwidth_fraction_stochastic()
                .map(|f| f.scale(platform.network.spec.dedicated_bw))
        }
    }

    impl NwsService {
        /// A copy of machine `i`'s retained CPU history values: the ground
        /// truth these tests hold the service's forecasts and horizon means
        /// to.
        pub(crate) fn cpu_history(&self, i: usize) -> Vec<f64> {
            read_lock(&self.cpu[i]).series().values()
        }
    }

    #[test]
    fn attaches_one_sensor_per_machine() {
        let p = Platform::platform1(1, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        assert_eq!(nws.n_machines(), 4);
        assert!(nws.cpu_stochastic(0).is_none(), "no data before advance");
    }

    #[test]
    fn tracks_platform1_center_mode() {
        let p = Platform::platform1(13, 1800.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 1200.0);
        // Sparc-2s sit in the 0.48 ± 0.05 mode.
        for i in 0..2 {
            let sv = nws.cpu_stochastic(i).unwrap();
            assert!((sv.mean() - 0.48).abs() < 0.04, "machine {i}: {sv}");
            assert!(sv.half_width() < 0.12, "machine {i}: {sv}");
        }
        // Fast machines near the top mode.
        for i in 2..4 {
            let sv = nws.cpu_stochastic(i).unwrap();
            assert!(sv.mean() > 0.85, "machine {i}: {sv}");
        }
    }

    #[test]
    fn actual_load_falls_in_stochastic_range() {
        let p = Platform::platform1(3, 1800.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 600.0);
        let sv = nws.cpu_stochastic(0).unwrap();
        // The availability over the next minute should sit inside (or very
        // near) the reported range in the single-mode regime.
        let future = p.machines[0].load.integral(600.0, 660.0) / 60.0;
        assert!(
            sv.widen(1.5).contains(future),
            "future {future} vs predicted {sv}"
        );
    }

    #[test]
    fn bandwidth_query_scales_to_bytes() {
        let p = Platform::platform1(4, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 300.0);
        let frac = nws.bandwidth_fraction_stochastic().unwrap();
        let bytes = nws.bandwidth_stochastic(&p).unwrap();
        assert!((bytes.mean() - frac.mean() * 1.25e6).abs() < 1e-6);
        assert!(frac.mean() > 0.2 && frac.mean() < 0.6, "{frac}");
    }

    #[test]
    fn incremental_advance_is_idempotent() {
        let p = Platform::platform1(5, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 100.0);
        let a = nws.cpu_stochastic(0).unwrap();
        nws.advance_to(&p, 100.0);
        let b = nws.cpu_stochastic(0).unwrap();
        assert_eq!(a.mean(), b.mean());
        assert_eq!(a.half_width(), b.half_width());
    }

    #[test]
    fn modal_stochastic_matches_configured_modes() {
        let p2 = Platform::platform2(11, 40_000.0);
        let nws = NwsService::attach(&p2, NwsConfig::default());
        nws.advance_to(&p2, 35_000.0);
        let sv = nws.cpu_modal_stochastic(0).unwrap();
        // Mean near the long-run weighted mode mean (~0.62), width from
        // within-mode sds only (narrow).
        assert!((sv.mean() - 0.62).abs() < 0.1, "{sv}");
        assert!(sv.half_width() < 0.25, "{sv}");
        // Much narrower than the window-variance view of the same data.
        let wv = NwsService::attach(
            &p2,
            NwsConfig {
                spread: SpreadPolicy::WindowVariance,
            },
        );
        wv.advance_to(&p2, 35_000.0);
        assert!(sv.half_width() < wv.cpu_stochastic(0).unwrap().half_width());
    }

    #[test]
    fn modal_stochastic_falls_back_on_short_history() {
        let p = Platform::platform1(12, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 30.0); // 7 samples: too short for modes
        let modal = nws.cpu_modal_stochastic(0).unwrap();
        let plain = nws.cpu_stochastic(0).unwrap();
        assert_eq!(modal.mean(), plain.mean());
    }

    #[test]
    fn autocorrelation_time_reflects_dwell() {
        // Bursty platform: dwell ~25 s -> tau in the tens of seconds.
        let p2 = Platform::platform2(7, 20_000.0);
        let nws = NwsService::attach(&p2, NwsConfig::default());
        nws.advance_to(&p2, 15_000.0);
        let tau = nws.autocorrelation_time_of(&nws.cpu_history(0)).unwrap();
        assert!(tau > 5.0 && tau < 200.0, "tau {tau}");
    }

    #[test]
    fn horizon_scaling_shrinks_width_and_regresses_mean() {
        let p2 = Platform::platform2(8, 30_000.0);
        let nws = NwsService::attach(
            &p2,
            NwsConfig {
                spread: SpreadPolicy::WindowVariance,
            },
        );
        nws.advance_to(&p2, 20_000.0);
        let short = nws.cpu_stochastic_for_horizon(0, 10.0).unwrap();
        let long = nws.cpu_stochastic_for_horizon(0, 2_000.0).unwrap();
        // A long run averages over bursts: its load estimate is tighter.
        assert!(
            long.half_width() < short.half_width(),
            "short {short}, long {long}"
        );
        // And its mean regresses toward the long-run mean.
        let guard_mean = {
            let v = nws.cpu_history(0);
            v.iter().sum::<f64>() / v.len() as f64
        };
        assert!(
            (long.mean() - guard_mean).abs() <= (short.mean() - guard_mean).abs() + 1e-9,
            "long {long} should sit nearer the long-run mean {guard_mean} than short {short}"
        );
    }

    #[test]
    fn horizon_average_brackets_realized_run_average() {
        // The point of the extension: the horizon-scaled value should
        // bracket what a run of that length actually experiences.
        let p2 = Platform::platform2(9, 40_000.0);
        let nws = NwsService::attach(&p2, NwsConfig::default());
        let mut hits = 0;
        let mut total = 0;
        for k in 0..40 {
            let t = 2_000.0 + 600.0 * k as f64;
            nws.advance_to(&p2, t);
            let d = 60.0;
            let sv = nws.cpu_stochastic_for_horizon(0, d).unwrap();
            let realized = p2.machines[0].load.integral(t, t + d) / d;
            total += 1;
            if sv.contains(realized) {
                hits += 1;
            }
        }
        let cov = hits as f64 / total as f64;
        assert!(cov > 0.7, "horizon coverage {cov}");
    }

    #[test]
    fn query_on_empty_history_is_typed_error() {
        let p = Platform::platform1(1, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        let err = nws.cpu_query(0).unwrap_err();
        assert!(matches!(err, QueryError::NoData { .. }));
        assert!(err.to_string().contains("cpu:"));
    }

    #[test]
    fn query_fallback_chain_by_sample_count() {
        let p = Platform::platform1(2, 600.0);
        // 1 sample -> LastKnown.
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 0.0);
        let q = nws.cpu_query(0).unwrap();
        assert_eq!(q.mode, QueryMode::LastKnown);
        assert_eq!(q.samples, 1);
        assert!(q.degraded);
        assert!(q.partial_window);
        // 3 samples -> WindowStats.
        nws.advance_to(&p, 10.0);
        let q = nws.cpu_query(0).unwrap();
        assert_eq!(q.mode, QueryMode::WindowStats);
        assert!(q.degraded);
        // Plenty of samples -> full forecast service, not degraded.
        nws.advance_to(&p, 600.0);
        let q = nws.cpu_query(0).unwrap();
        assert_eq!(q.mode, QueryMode::Forecast);
        assert!(!q.degraded);
        assert!(!q.partial_window);
        assert_eq!(q.stale_intervals, 0.0);
        // The healthy query agrees with the legacy silent path.
        let legacy = nws.cpu_stochastic(0).unwrap();
        assert_eq!(q.value.mean(), legacy.mean());
        assert_eq!(q.value.half_width(), legacy.half_width());
    }

    #[test]
    fn partial_window_is_surfaced_not_silent() {
        let p = Platform::platform1(9, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        // 10 samples: enough to forecast, fewer than VARIANCE_WINDOW (24).
        nws.advance_to(&p, 45.0);
        let q = nws.cpu_query(0).unwrap();
        assert_eq!(q.samples, 10);
        assert_eq!(q.mode, QueryMode::Forecast);
        assert!(q.partial_window, "window only partially filled");
        nws.advance_to(&p, 600.0);
        assert!(!nws.cpu_query(0).unwrap().partial_window);
    }

    #[test]
    fn staleness_widens_the_spread() {
        use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
        let p = Platform::platform1(4, 4000.0);
        let mut cfg = FaultConfig::none(21);
        cfg.blackouts.push((1000.0, 2000.0));
        let nws = NwsService::attach_with_faults(&p, NwsConfig::default(), FaultPlan::new(cfg));
        nws.advance_to(&p, 995.0);
        let fresh = nws.cpu_query(0).unwrap();
        assert_eq!(fresh.stale_intervals, 0.0);
        assert!(!fresh.degraded);
        // Deep in the blackout the freshest data (t = 995) is 495 s old:
        // 98 silent cadences, so the spread widens by sqrt(99) ≈ 10x.
        // The blackout delivers nothing, so the history is unchanged.
        nws.advance_to(&p, 1490.0);
        let stale = nws.cpu_query(0).unwrap();
        assert_eq!(stale.age_secs, 495.0);
        assert_eq!(stale.stale_intervals, 98.0);
        assert!(stale.degraded);
        assert!(
            (stale.value.half_width() - fresh.value.half_width() * 99.0_f64.sqrt()).abs()
                < 1e-9 * fresh.value.half_width().max(1.0),
            "fresh {fresh:?} vs stale {stale:?}"
        );
        // The mean itself is unchanged by staleness.
        assert_eq!(stale.value.mean(), fresh.value.mean());
    }

    #[test]
    fn blackout_from_attach_yields_no_data() {
        use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
        // The blackout opens before the first scheduled poll, so the
        // whole query lives inside it: no sensor ever delivers, and
        // every query is the typed empty-history error — for CPU and
        // bandwidth alike — rather than a panic or a fabricated value.
        let p = Platform::platform1(3, 600.0);
        let mut cfg = FaultConfig::none(7);
        cfg.blackouts.push((0.0, 1e9));
        let nws = NwsService::attach_with_faults(&p, NwsConfig::default(), FaultPlan::new(cfg));
        nws.advance_to(&p, 500.0);
        for i in 0..nws.n_machines() {
            assert!(matches!(nws.cpu_query(i), Err(QueryError::NoData { .. })));
            assert!(nws.cpu_stochastic(i).is_none());
        }
        assert!(matches!(
            nws.bandwidth_fraction_query(),
            Err(QueryError::NoData { .. })
        ));
        let (missed, _) = nws.cpu_sensor_health(0);
        assert!(missed > 0, "the silence is accounted, not invisible");
    }

    #[test]
    fn spread_widening_is_monotone_in_silence() {
        use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
        // Warm up on live data, then open a long blackout and query at
        // ever-later times: each extra silent cadence must widen the
        // spread (sqrt(1 + stale_intervals) is strictly increasing), and
        // the mean must stay pinned at the last pre-blackout forecast.
        let p = Platform::platform1(11, 4000.0);
        let mut cfg = FaultConfig::none(5);
        cfg.blackouts.push((600.0, 1e9));
        let nws = NwsService::attach_with_faults(&p, NwsConfig::default(), FaultPlan::new(cfg));
        nws.advance_to(&p, 595.0);
        let baseline = nws.cpu_query(1).unwrap();
        assert_eq!(baseline.stale_intervals, 0.0);
        let mut prev = baseline;
        // One cadence (5 s) deeper into the blackout per step. Data
        // that lags by no more than one cadence still counts as fresh,
        // so the first silent poll widens nothing and every later one
        // widens strictly.
        for step in 1..=20 {
            nws.advance_to(&p, 595.0 + 5.0 * step as f64);
            let q = nws.cpu_query(1).unwrap();
            assert_eq!(q.stale_intervals, (step - 1) as f64);
            if step >= 2 {
                assert!(q.degraded);
                assert!(
                    q.value.half_width() > prev.value.half_width(),
                    "step {step}: {q:?} not wider than {prev:?}"
                );
            } else {
                assert_eq!(q.value.half_width(), baseline.value.half_width());
            }
            assert_eq!(q.value.mean(), baseline.value.mean());
            prev = q;
        }
        // And the widening matches the contract exactly.
        assert!(
            (prev.value.half_width() - baseline.value.half_width() * 20.0_f64.sqrt()).abs()
                < 1e-9 * baseline.value.half_width().max(1.0)
        );
    }

    #[test]
    fn faulty_service_is_deterministic() {
        use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
        let run = || {
            let p = Platform::platform1(8, 3000.0);
            let plan = FaultPlan::new(FaultConfig::with_intensity(42, 0.8));
            let nws = NwsService::attach_with_faults(&p, NwsConfig::default(), plan);
            nws.advance_to(&p, 2500.0);
            let q = nws.cpu_query(0).unwrap();
            (
                nws.cpu_history(0),
                q.value.mean().to_bits(),
                q.value.half_width().to_bits(),
                nws.cpu_sensor_health(0),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bandwidth_query_scales_like_stochastic() {
        let p = Platform::platform1(4, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 300.0);
        let frac = nws.bandwidth_fraction_query().unwrap();
        let bytes = nws.bandwidth_query(&p).unwrap();
        assert!((bytes.value.mean() - frac.value.mean() * 1.25e6).abs() < 1e-6);
        assert_eq!(bytes.mode, QueryMode::Forecast);
    }

    #[test]
    fn history_accumulates_at_cadence() {
        let p = Platform::platform1(6, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 60.0);
        // t = 0..60 at 5 s: 13 samples.
        assert_eq!(nws.cpu_history(0).len(), 13);
        assert_eq!(nws.cpu_last(0).unwrap().0, 60.0);
    }
}
