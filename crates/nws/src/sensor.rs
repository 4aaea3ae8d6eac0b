//! Resource sensors: periodic samplers of simulated resource traces.
//!
//! The real NWS runs sensor processes on each host, measuring CPU
//! availability and point-to-point bandwidth on a fixed cadence. Here a
//! sensor polls a [`Trace`] — the simulated ground truth — every
//! `interval` seconds and retains the history in a [`TimeSeries`].
//!
//! Sensors are fault-aware: `Sensor::poll_until_with` routes every
//! scheduled poll through an optional
//! [`prodpred_simgrid::faults::SensorFaults`] view, which may drop the
//! poll, deliver a stale (delayed) value, spike it, or corrupt it.
//! Non-finite measurements — whatever their origin — are discarded and
//! counted rather than pushed, so a corrupted reading can never poison
//! the history or panic the service.
//!
//! A sensor also keeps the forecaster tournament's running scores over
//! its history, brought up to date as samples arrive, so
//! [`Sensor::forecast`] costs O(strategies) however long the history is.

use crate::forecast::{AdaptiveForecaster, Forecast, Scoreboard};
use crate::series::TimeSeries;
use prodpred_simgrid::faults::{PollOutcome, SensorFaults};
use prodpred_simgrid::Trace;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A periodic sampler of one resource.
#[derive(Debug, Clone)]
// tidy:allow(PP011): the sensor NwsService polls; tests/serialization.rs drives one alone
pub struct Sensor {
    /// Resource label, e.g. `"cpu:sparc2-a"`.
    pub name: String,
    interval: f64,
    next_poll: f64,
    series: TimeSeries,
    /// Index of the next scheduled poll (monotone, counts *scheduled*
    /// polls — missed ones included — so fault decisions are a pure
    /// function of the schedule).
    poll_index: u64,
    /// Scheduled polls that delivered nothing (dropout or blackout).
    missed_polls: u64,
    /// Measurements discarded because they arrived non-finite.
    corrupt_polls: u64,
    ensemble: Arc<AdaptiveForecaster>,
    /// The ensemble's running scores over `series`; derived state, kept
    /// out of the wire form and rebuilt from the series on deserialise.
    scores: Scoreboard,
}

impl Sensor {
    /// Creates a sensor polling every `interval` seconds, retaining up to
    /// `capacity` measurements, starting at time `start`, forecasting
    /// with the standard ensemble.
    pub fn new(name: impl Into<String>, interval: f64, capacity: usize, start: f64) -> Self {
        let ensemble = Arc::new(AdaptiveForecaster::standard());
        Self::with_ensemble(name, interval, capacity, start, ensemble)
    }

    /// Like [`Sensor::new`], forecasting with `ensemble`. The ensemble is
    /// not part of the wire form: a deserialised sensor forecasts with
    /// the standard one.
    pub(crate) fn with_ensemble(
        name: impl Into<String>,
        interval: f64,
        capacity: usize,
        start: f64,
        ensemble: Arc<AdaptiveForecaster>,
    ) -> Self {
        assert!(interval > 0.0, "sensor interval must be positive");
        Self {
            name: name.into(),
            interval,
            next_poll: start,
            series: TimeSeries::new(capacity),
            poll_index: 0,
            missed_polls: 0,
            corrupt_polls: 0,
            ensemble,
            scores: Scoreboard::default(),
        }
    }

    /// Polls `trace` at every due cadence point up to and including `until`.
    ///
    /// An `until` earlier than the next scheduled poll is a no-op (the
    /// schedule never runs backwards, and nothing is recorded).
    // tidy:allow(PP011): NwsService::advance_to's poll without faults, in tests/serialization.rs
    pub fn poll_until(&mut self, trace: &Trace, until: f64) {
        self.poll_until_with(trace, until, None);
    }

    /// Polls like [`Sensor::poll_until`], with each scheduled poll routed
    /// through `faults` when present:
    ///
    /// * `Drop` — the poll is missed; the schedule still advances,
    /// * `Stale { intervals }` — the value measured `intervals` cadences
    ///   earlier arrives now (recorded at the delivery time, so the
    ///   history stays monotone while its *content* runs late),
    /// * `Spike { factor }` — the measured value is scaled by `factor`,
    /// * `Corrupt` — the measurement arrives non-finite and is discarded.
    ///
    /// Regardless of faults, any non-finite value is discarded and
    /// counted in [`Sensor::corrupt_polls`] instead of being pushed.
    pub(crate) fn poll_until_with(
        &mut self,
        trace: &Trace,
        until: f64,
        faults: Option<&SensorFaults>,
    ) {
        let retained = self.series.len();
        let (mut pushed, mut evicted) = (false, false);
        while self.next_poll <= until {
            let t = self.next_poll;
            let outcome = match faults {
                Some(f) => f.outcome(t, self.poll_index),
                None => PollOutcome::Deliver,
            };
            let measured = match outcome {
                PollOutcome::Deliver => Some(trace.at(t)),
                PollOutcome::Drop => {
                    self.missed_polls += 1;
                    None
                }
                PollOutcome::Stale { intervals } => {
                    let t_meas = (t - intervals as f64 * self.interval).max(trace.t0());
                    Some(trace.at(t_meas))
                }
                PollOutcome::Spike { factor } => Some(trace.at(t) * factor),
                PollOutcome::Corrupt => Some(f64::NAN),
            };
            if let Some(v) = measured {
                if v.is_finite() {
                    evicted |= self.series.push(t, v);
                    pushed = true;
                } else {
                    self.corrupt_polls += 1;
                }
            }
            self.next_poll += self.interval;
            self.poll_index += 1;
        }
        if pushed {
            self.score_batch(retained, evicted);
        }
    }

    /// Brings the running scores up to date with a batch of samples that
    /// arrived on top of `retained`. Without an eviction the new samples
    /// extend the scores one at a time; an eviction moved the start of
    /// the history, so the scores are rebuilt once over what is retained
    /// now.
    fn score_batch(&mut self, retained: usize, evicted: bool) {
        let history = self.series.make_contiguous();
        if evicted {
            self.ensemble.replay(&mut self.scores, history);
        } else {
            for end in retained + 1..=history.len() {
                self.ensemble.observe(&mut self.scores, &history[..end]);
            }
        }
    }

    /// The tournament's forecast of the next measurement: the standing
    /// forecast of the strategy with the lowest one-step MSE over the
    /// retained history, exactly [`AdaptiveForecaster::forecast`] of
    /// [`Sensor::series`], read off the running scores in O(strategies)
    /// with no allocation.
    pub fn forecast(&self) -> Option<Forecast> {
        self.scores.best()
    }

    /// The sampling cadence.
    pub fn interval(&self) -> f64 {
        self.interval
    }

    /// The retained history.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// Scheduled polls that delivered nothing (dropout or blackout).
    pub fn missed_polls(&self) -> u64 {
        self.missed_polls
    }

    /// Measurements discarded because they arrived non-finite.
    pub fn corrupt_polls(&self) -> u64 {
        self.corrupt_polls
    }

    /// Age of the freshest retained measurement at time `now`, in
    /// seconds. Infinite while the history is empty — with dropout or a
    /// blackout the freshest data can be arbitrarily old, and queries
    /// widen their spread accordingly.
    pub(crate) fn age_at(&self, now: f64) -> f64 {
        match self.series.last() {
            Some((t, _)) => (now - t).max(0.0),
            None => f64::INFINITY,
        }
    }
}

/// The wire form is the sampling state alone — the shape the former
/// derive produced — without the ensemble or its running scores.
impl Serialize for Sensor {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), serde::Error> {
        sink.begin_map();
        sink.entry("name", &self.name)?;
        sink.entry("interval", &self.interval)?;
        sink.entry("next_poll", &self.next_poll)?;
        sink.entry("series", &self.series)?;
        sink.entry("poll_index", &self.poll_index)?;
        sink.entry("missed_polls", &self.missed_polls)?;
        sink.entry("corrupt_polls", &self.corrupt_polls)?;
        sink.end_map();
        Ok(())
    }
}

/// Deserialises the sampling state and rebuilds the running scores by
/// replaying the series through the standard ensemble, so the sensor
/// carries on bit-identically to one that was never serialised.
impl Deserialize for Sensor {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let interval = f64::from_value(v.field("interval")?)?;
        if interval.is_nan() || interval <= 0.0 {
            return Err(serde::Error::new("sensor interval must be positive"));
        }
        let mut sensor = Self {
            name: String::from_value(v.field("name")?)?,
            interval,
            next_poll: f64::from_value(v.field("next_poll")?)?,
            series: TimeSeries::from_value(v.field("series")?)?,
            poll_index: u64::from_value(v.field("poll_index")?)?,
            missed_polls: u64::from_value(v.field("missed_polls")?)?,
            corrupt_polls: u64::from_value(v.field("corrupt_polls")?)?,
            ensemble: Arc::new(AdaptiveForecaster::standard()),
            scores: Scoreboard::default(),
        };
        let history = sensor.series.make_contiguous();
        sensor.ensemble.replay(&mut sensor.scores, history);
        Ok(sensor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forecast::{
        postcast_mse, AdaptiveWindowMean, ExpSmoothing, Forecaster, LaneState, LastValue,
        RunningMean, SlidingMedian,
    };
    use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
    use proptest::prelude::*;
    // tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn polls_on_cadence() {
        let trace = Trace::from_fn(0.0, 1.0, 100, |t| t);
        let mut s = Sensor::new("cpu:x", 5.0, 64, 0.0);
        s.poll_until(&trace, 20.0);
        assert_eq!(s.series().len(), 5); // t = 0,5,10,15,20
        assert_eq!(s.series().times(), vec![0.0, 5.0, 10.0, 15.0, 20.0]);
        assert_eq!(s.series().values(), vec![0.0, 5.0, 10.0, 15.0, 20.0]);
    }

    #[test]
    fn incremental_polling_does_not_duplicate() {
        let trace = Trace::constant(0.0, 1.0, 0.5, 100);
        let mut s = Sensor::new("cpu:x", 5.0, 64, 0.0);
        s.poll_until(&trace, 9.9);
        assert_eq!(s.series().len(), 2);
        s.poll_until(&trace, 9.9); // no-op
        assert_eq!(s.series().len(), 2);
        s.poll_until(&trace, 30.0);
        assert_eq!(s.series().len(), 7);
    }

    #[test]
    fn capacity_bounds_history() {
        let trace = Trace::constant(0.0, 1.0, 1.0, 1000);
        let mut s = Sensor::new("cpu:x", 1.0, 10, 0.0);
        s.poll_until(&trace, 500.0);
        assert_eq!(s.series().len(), 10);
        assert_eq!(s.series().last().unwrap().0, 500.0);
    }

    #[test]
    fn start_offset_respected() {
        let trace = Trace::constant(0.0, 1.0, 1.0, 100);
        let mut s = Sensor::new("cpu:x", 5.0, 16, 2.5);
        s.poll_until(&trace, 12.5);
        assert_eq!(s.series().times(), vec![2.5, 7.5, 12.5]);
    }

    #[test]
    fn until_before_next_poll_is_a_noop() {
        let trace = Trace::constant(0.0, 1.0, 0.5, 100);
        let mut s = Sensor::new("cpu:x", 5.0, 16, 0.0);
        s.poll_until(&trace, 20.0);
        let polled = s.series().len();
        let next = s.next_poll;
        // Asking for a time already covered — even far in the past —
        // must not regress the schedule or record anything.
        s.poll_until(&trace, 3.0);
        s.poll_until(&trace, -100.0);
        assert_eq!(s.series().len(), polled);
        assert_eq!(s.next_poll, next);
    }

    #[test]
    fn negative_trace_values_are_recorded_not_fatal() {
        // A (nonsensical but finite) negative availability flows through:
        // the sensor records ground truth, the service's queries stay
        // finite on top of it.
        let trace = Trace::from_fn(0.0, 1.0, 50, |t| if t < 10.0 { 0.5 } else { -0.25 });
        let mut s = Sensor::new("cpu:x", 5.0, 32, 0.0);
        s.poll_until(&trace, 45.0);
        assert_eq!(s.series().len(), 10);
        assert!(s.series().values().iter().all(|v| v.is_finite()));
        assert_eq!(s.series().last().unwrap().1, -0.25);
        assert_eq!(s.corrupt_polls(), 0);
    }

    #[test]
    fn corrupted_measurements_are_dropped_and_counted() {
        let trace = Trace::constant(0.0, 1.0, 0.5, 10_000);
        let mut cfg = FaultConfig::none(17);
        cfg.corrupt = 1.0; // every measurement arrives as NaN
        let plan = FaultPlan::new(cfg);
        let mut s = Sensor::new("cpu:x", 5.0, 64, 0.0);
        s.poll_until_with(&trace, 500.0, Some(&plan.sensor(0)));
        assert_eq!(s.series().len(), 0, "NaN must never enter the history");
        assert_eq!(s.corrupt_polls(), 101);
        assert_eq!(s.missed_polls(), 0);
        // The schedule still advanced past the corruption.
        assert_eq!(s.next_poll, 505.0);
    }

    #[test]
    fn dropout_gap_then_catch_up_polling() {
        let trace = Trace::from_fn(0.0, 1.0, 2000, |t| t);
        let mut cfg = FaultConfig::none(3);
        cfg.blackouts.push((100.0, 300.0));
        let plan = FaultPlan::new(cfg);
        let view = plan.sensor(0);
        let mut s = Sensor::new("cpu:x", 5.0, 256, 0.0);
        s.poll_until_with(&trace, 90.0, Some(&view));
        assert_eq!(s.series().len(), 19);
        // The whole gap is missed...
        s.poll_until_with(&trace, 290.0, Some(&view));
        assert_eq!(s.age_at(290.0), 195.0);
        assert!(s.missed_polls() > 0);
        // ...and one catch-up call after the blackout resumes cleanly at
        // the cadence, with timestamps still monotone.
        s.poll_until_with(&trace, 400.0, Some(&view));
        assert_eq!(s.series().last().unwrap(), (400.0, 400.0));
        let times = s.series().times();
        assert!(times.windows(2).all(|w| w[0] < w[1]));
        assert!(s.age_at(400.0) < 5.0 + 1e-9);
        // No measurement inside the blackout window exists.
        assert!(!times.iter().any(|&t| (100.0..300.0).contains(&t)));
    }

    #[test]
    fn stale_delivery_records_old_values_at_new_times() {
        let trace = Trace::from_fn(0.0, 1.0, 1000, |t| t);
        let mut cfg = FaultConfig::none(5);
        cfg.delay = 1.0;
        cfg.max_delay_intervals = 3;
        let plan = FaultPlan::new(cfg);
        let mut s = Sensor::new("cpu:x", 5.0, 64, 0.0);
        s.poll_until_with(&trace, 200.0, Some(&plan.sensor(0)));
        // Every poll delivered, but late: the recorded value lags the
        // timestamp by 1..=3 cadences (clamped at the trace start).
        for (t, v) in s.series().times().into_iter().zip(s.series().values()) {
            let lag = t - v;
            assert!(
                (0.0..=15.0).contains(&lag),
                "t={t} v={v}: lag {lag} outside delay bound"
            );
        }
        let times = s.series().times();
        assert!(
            times.windows(2).all(|w| w[0] < w[1]),
            "history stays monotone"
        );
    }

    #[test]
    fn age_is_infinite_before_first_measurement() {
        let s = Sensor::new("cpu:x", 5.0, 8, 0.0);
        assert!(s.age_at(100.0).is_infinite());
    }

    // The running forecaster tournament against its definition.
    //
    // `walking_forecast` is the tournament as it is defined: for every
    // strategy, forecast from every prefix of the history, score against
    // what came next, take the first strictly lowest mean. It is quadratic
    // in the history and lives only here, as the oracle. A `Sensor` keeps
    // the same scores incrementally; these tests hold the two bit-identical
    // after every poll, across ring eviction and sensor faults, and pin
    // what a push and a query may cost.

    /// The prefix-walking tournament: the definition the stepper must match.
    fn walking_forecast(ensemble: &AdaptiveForecaster, history: &[f64]) -> Option<Forecast> {
        if history.len() < 2 {
            return history.last().map(|&v| Forecast {
                value: v,
                rmse: 0.0,
                winner: 0,
            });
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in ensemble.strategies().iter().enumerate() {
            if let Some(mse) = postcast_mse(s.as_ref(), history) {
                match best {
                    Some((_, b)) if mse >= b => {}
                    _ => best = Some((i, mse)),
                }
            }
        }
        let (winner, mse) = best?;
        Some(Forecast {
            value: ensemble.strategies()[winner].forecast(history)?,
            rmse: mse.sqrt(),
            winner,
        })
    }

    fn bits(f: Option<Forecast>) -> Option<(u64, u64, usize)> {
        f.map(|f| (f.value.to_bits(), f.rmse.to_bits(), f.winner))
    }

    /// Runs of repeated levels, half of them on a quarter grid: constant
    /// stretches and exact ties between strategies, not just generic noise.
    fn signal(max_runs: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0.0f64..1.0, 1usize..7, any::<bool>()), 1..max_runs).prop_map(
            |runs| {
                runs.into_iter()
                    .flat_map(|(level, len, snap)| {
                        let v = if snap {
                            (level * 4.0).floor() / 4.0
                        } else {
                            level
                        };
                        std::iter::repeat_n(v, len)
                    })
                    .collect()
            },
        )
    }

    /// One drop / stale / spike / corrupt mix, or none.
    fn faults(seed: u64, on: bool) -> Option<FaultPlan> {
        on.then(|| {
            let mut cfg = FaultConfig::none(seed);
            cfg.dropout = 0.15;
            cfg.delay = 0.15;
            cfg.spike = 0.1;
            cfg.corrupt = 0.1;
            FaultPlan::new(cfg)
        })
    }

    /// Polls `values` into a sensor of each capacity in irregular batches
    /// and holds the sensor's forecast, and the ensemble's replay of its
    /// series, to the walking oracle after every batch.
    fn check_against_oracle(
        ensemble: AdaptiveForecaster,
        capacities: &[usize],
        values: Vec<f64>,
        batches: &[usize],
        plan: Option<FaultPlan>,
    ) -> Result<(), TestCaseError> {
        let ensemble = Arc::new(ensemble);
        let polls = values.len();
        let trace = Trace::new(0.0, 1.0, values);
        let view = plan.as_ref().map(|p| p.sensor(0));
        for &capacity in capacities {
            let mut sensor =
                Sensor::with_ensemble("cpu:x", 1.0, capacity, 0.0, Arc::clone(&ensemble));
            let mut polled = 0;
            for &batch in batches.iter().cycle() {
                polled += batch;
                sensor.poll_until_with(&trace, polled as f64 - 1.0, view.as_ref());
                let history = sensor.series().values();
                let want = bits(walking_forecast(&ensemble, &history));
                prop_assert_eq!(
                    bits(sensor.forecast()),
                    want,
                    "capacity {}, {} polled, {} retained",
                    capacity,
                    polled,
                    history.len()
                );
                prop_assert_eq!(bits(ensemble.forecast(sensor.series())), want);
                if polled >= polls {
                    break;
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn sensor_matches_the_walking_oracle_bitwise(
            values in signal(30),
            batches in proptest::collection::vec(0usize..10, 1..8),
            fault_seed in 0u64..1000,
            faulty in any::<bool>(),
        ) {
            prop_assume!(batches.iter().any(|&b| b > 0));
            check_against_oracle(
                AdaptiveForecaster::standard(),
                &[1, 2, 7, 50, 4096],
                values,
                &batches,
                faults(fault_seed, faulty),
            )?;
        }

        #[test]
        fn custom_ensemble_matches_through_the_default_stepper(
            values in signal(12),
            batches in proptest::collection::vec(0usize..6, 1..6),
            fault_seed in 0u64..1000,
            faulty in any::<bool>(),
        ) {
            prop_assume!(batches.iter().any(|&b| b > 0));
            let ensemble = AdaptiveForecaster::with_strategies(vec![
                Box::new(AdaptiveWindowMean { candidates: vec![2, 5] }),
                Box::new(RunningMean),
                Box::new(SlidingMedian { window: 4 }),
                Box::new(AdaptiveWindowMean::default()),
                Box::new(ExpSmoothing::new(0.5)),
                Box::new(LastValue),
            ]);
            check_against_oracle(
                ensemble,
                &[1, 2, 7, 50],
                values,
                &batches,
                faults(fault_seed, faulty),
            )?;
        }
    }

    /// Strategy `index` of `of`, counting every evaluation.
    struct Counted {
        of: Arc<AdaptiveForecaster>,
        index: usize,
        // tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
        calls: Arc<AtomicUsize>,
    }

    impl Counted {
        fn inner(&self) -> &(dyn Forecaster + Send + Sync) {
            // tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.of.strategies()[self.index].as_ref()
        }
    }

    impl Forecaster for Counted {
        fn name(&self) -> &'static str {
            self.of.strategies()[self.index].name()
        }
        fn forecast(&self, history: &[f64]) -> Option<f64> {
            self.inner().forecast(history)
        }
        fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
            self.inner().step(state, history)
        }
    }

    #[test]
    fn a_push_evaluates_each_strategy_once_and_a_query_none() {
        // tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
        let calls = Arc::new(AtomicUsize::new(0));
        let standard = Arc::new(AdaptiveForecaster::standard());
        let n = standard.strategies().len();
        let ensemble = AdaptiveForecaster::with_strategies(
            (0..n)
                .map(|index| {
                    Box::new(Counted {
                        of: Arc::clone(&standard),
                        index,
                        calls: Arc::clone(&calls),
                    }) as Box<dyn Forecaster + Send + Sync>
                })
                .collect(),
        );
        let trace = Trace::from_fn(0.0, 1.0, 200, |t| (t * 0.37).sin());
        let mut sensor = Sensor::with_ensemble("cpu:x", 1.0, 64, 0.0, Arc::new(ensemble));
        // tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
        let count = || calls.load(Ordering::Relaxed);

        // Below the retention bound every pushed sample costs one evaluation
        // of each strategy, however the samples are batched.
        for (until, pushed) in [(0.0, 1), (1.0, 1), (9.0, 8), (40.0, 31)] {
            let before = count();
            sensor.poll_until(&trace, until);
            assert_eq!(count() - before, pushed * n, "poll to {until}");
        }
        // A query reads the scores; it evaluates nothing.
        let before = count();
        for _ in 0..100 {
            assert!(sensor.forecast().is_some());
        }
        assert_eq!(count(), before);
        // A batch that evicts replays what is retained, once per batch.
        sensor.poll_until(&trace, 62.0);
        assert_eq!(sensor.series().len(), 63);
        let before = count();
        sensor.poll_until(&trace, 70.0);
        assert_eq!(sensor.series().len(), 64);
        assert_eq!(count() - before, 64 * n);
    }
}
