//! The running forecaster tournament against its definition.
//!
//! [`walking_forecast`] is the tournament as it is defined: for every
//! strategy, forecast from every prefix of the history, score against
//! what came next, take the first strictly lowest mean. It is quadratic
//! in the history and lives only here, as the oracle. A [`Sensor`] keeps
//! the same scores incrementally; these tests hold the two bit-identical
//! after every poll, across ring eviction and sensor faults, and pin
//! what a push and a query may cost.

use prodpred_nws::forecast::{
    postcast_mse, AdaptiveForecaster, AdaptiveWindowMean, ExpSmoothing, Forecast, Forecaster,
    LaneState, LastValue, RunningMean, SlidingMedian,
};
use prodpred_nws::Sensor;
use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
use prodpred_simgrid::Trace;
use proptest::prelude::*;
use std::sync::Arc;
// tidy:allow(PP010): call counter — a monotone test-only tally, no cross-thread protocol
use std::sync::atomic::{AtomicUsize, Ordering};

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
        let mut sensor = Sensor::with_ensemble("cpu:x", 1.0, capacity, 0.0, Arc::clone(&ensemble));
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
