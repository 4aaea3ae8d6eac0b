//! Forecasting strategies, after Wolski's Network Weather Service.
//!
//! The NWS runs a family of simple predictors over each resource history
//! and, for every forecast, reports the prediction of whichever strategy
//! has the lowest accumulated error so far — so the service adapts to the
//! character of each resource without per-resource tuning
//! ([Wol96, Wol97, WSP97] in the paper's bibliography).

use crate::series::TimeSeries;

/// A one-step-ahead forecasting strategy over a measurement history.
pub trait Forecaster {
    /// Strategy name, for reports.
    fn name(&self) -> &'static str;

    /// Forecast of the next value given the history (oldest-first).
    /// `None` when the history is too short.
    fn forecast(&self, history: &[f64]) -> Option<f64>;

    /// Incremental form of [`Forecaster::forecast`], called once per
    /// sample with the history ending in that sample: it must return
    /// exactly `self.forecast(history)`, bit for bit. `state` is one word
    /// of running state private to this strategy and this history; a
    /// history that starts or restarts arrives with `history.len() == 1`,
    /// which is where a strategy that uses `state` (re)initialises it.
    ///
    /// The default recomputes from the history, which costs what
    /// `forecast` costs. A strategy whose `forecast` folds the whole
    /// history overrides it.
    fn step(&self, state: &mut f64, history: &[f64]) -> Option<f64> {
        let _ = state;
        self.forecast(history)
    }
}

/// Predicts the last observed value (martingale / persistence).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct LastValue;

impl Forecaster for LastValue {
    fn name(&self) -> &'static str {
        "last-value"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        history.last().copied()
    }
}

/// Exponential smoothing with gain `alpha`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ExpSmoothing {
    alpha: f64,
}

impl ExpSmoothing {
    /// Exponential smoothing with gain `alpha` in `(0, 1]`; higher
    /// tracks faster.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub(crate) fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha in (0,1]");
        Self { alpha }
    }
}

impl Forecaster for ExpSmoothing {
    fn name(&self) -> &'static str {
        "exp-smoothing"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        let (&first, rest) = history.split_first()?;
        let mut s = first;
        for &x in rest {
            s += self.alpha * (x - s);
        }
        Some(s)
    }
    fn step(&self, s: &mut f64, history: &[f64]) -> Option<f64> {
        let (&x, earlier) = history.split_last()?;
        if earlier.is_empty() {
            *s = x;
        } else {
            *s += self.alpha * (x - *s);
        }
        Some(*s)
    }
}

/// One-step-ahead *postcast* evaluation: runs the strategy over every
/// prefix of the history and returns the mean squared error of its
/// predictions against what actually came next.
pub fn postcast_mse(f: &dyn Forecaster, history: &[f64]) -> Option<f64> {
    if history.len() < 2 {
        return None;
    }
    let mut se = 0.0;
    let mut n = 0usize;
    for split in 1..history.len() {
        if let Some(p) = f.forecast(&history[..split]) {
            let e = p - history[split];
            se += e * e;
            n += 1;
        }
    }
    if n == 0 {
        None
    } else {
        Some(se / n as f64)
    }
}

/// A forecast with an accompanying error estimate.
#[derive(Debug, Clone, Copy)]
pub struct Forecast {
    /// Predicted next value.
    pub value: f64,
    /// Root-mean-squared one-step error of the winning strategy over the
    /// history — the NWS's accuracy estimate.
    pub rmse: f64,
    /// Index of the winning strategy in the ensemble.
    pub winner: usize,
}

/// One strategy's running score on a [`Scoreboard`].
#[derive(Debug, Clone, Default)]
struct Lane {
    /// Squared one-step errors summed in arrival order.
    se: f64,
    /// How many forecasts that sum holds.
    scored: usize,
    /// The strategy's forecast of the next sample.
    standing: Option<f64>,
    /// The strategy's own running state ([`Forecaster::step`]).
    state: f64,
}

/// The tournament's running state over one measurement history: per
/// strategy the squared-error sum so far and the standing one-step
/// forecast, so the winner is read off without revisiting the history.
///
/// A scoreboard belongs to the ensemble and the history it was fed from;
/// `AdaptiveForecaster::observe` extends it by one sample and
/// [`AdaptiveForecaster::replay`] rebuilds it when the history restarts
/// (a ring eviction drops the oldest sample, which moves every strategy's
/// starting point).
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    lanes: Vec<Lane>,
    seen: usize,
    last: f64,
}

impl Scoreboard {
    /// The strategy with the lowest mean squared one-step error so far
    /// (the first such in ensemble order), its standing forecast and its
    /// RMSE. Persistence with zero error while a single sample exists;
    /// `None` before that. O(strategies), no allocation.
    pub fn best(&self) -> Option<Forecast> {
        match self.seen {
            0 => return None,
            1 => {
                return Some(Forecast {
                    value: self.last,
                    rmse: 0.0,
                    winner: 0,
                })
            }
            _ => {}
        }
        let (winner, mse, standing) = self.standings().fold(None, |best, lane| match best {
            Some((_, b, _)) if lane.1 >= b => best,
            _ => Some(lane),
        })?;
        Some(Forecast {
            value: standing?,
            rmse: mse.sqrt(),
            winner,
        })
    }

    /// Every strategy scored at least once, in ensemble order: its index,
    /// its mean squared one-step error so far and its standing forecast.
    pub fn standings(&self) -> impl Iterator<Item = (usize, f64, Option<f64>)> + '_ {
        self.lanes
            .iter()
            .enumerate()
            .filter(|(_, lane)| lane.scored > 0)
            .map(|(i, lane)| (i, lane.se / lane.scored as f64, lane.standing))
    }
}

/// The NWS-style adaptive forecaster: an ensemble of strategies, each
/// forecast served by the one with the lowest postcast MSE so far.
pub struct AdaptiveForecaster {
    strategies: Vec<Box<dyn Forecaster + Send + Sync>>,
}

impl Default for AdaptiveForecaster {
    fn default() -> Self {
        Self::standard()
    }
}

impl std::fmt::Debug for AdaptiveForecaster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.names()).finish()
    }
}

impl AdaptiveForecaster {
    /// The standard ensemble: persistence, and exponential smoothing at
    /// gains 0.3 and 0.7 — the strategies that win the tournament on the
    /// simulated platforms (`figures tournament_study`). Persistence comes
    /// first: [`Scoreboard::best`] reports `winner: 0` for its
    /// single-sample fallback.
    pub fn standard() -> Self {
        Self {
            strategies: vec![
                Box::new(LastValue),
                Box::new(ExpSmoothing::new(0.3)),
                Box::new(ExpSmoothing::new(0.7)),
            ],
        }
    }

    /// The strategies in ensemble order.
    pub fn strategies(&self) -> &[Box<dyn Forecaster + Send + Sync>] {
        &self.strategies
    }

    /// Strategy names in ensemble order.
    pub fn names(&self) -> Vec<&'static str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Absorbs the newest sample — the last of `history`, which is the
    /// whole history oldest-first up to and including it — into `board`:
    /// every strategy's standing forecast is scored against the sample in
    /// ensemble order, then refreshed through [`Forecaster::step`]. Each
    /// strategy is evaluated exactly once.
    pub fn observe(&self, board: &mut Scoreboard, history: &[f64]) {
        let Some(&x) = history.last() else {
            return;
        };
        debug_assert_eq!(history.len(), board.seen + 1, "one sample at a time");
        board
            .lanes
            .resize_with(self.strategies.len(), Lane::default);
        for (lane, strategy) in board.lanes.iter_mut().zip(&self.strategies) {
            if let Some(p) = lane.standing {
                let e = p - x;
                lane.se += e * e;
                lane.scored += 1;
            }
            lane.standing = strategy.step(&mut lane.state, history);
        }
        board.seen += 1;
        board.last = x;
    }

    /// Rebuilds `board` from scratch by replaying `history` (oldest-first)
    /// one sample at a time: O(history × strategies) O(1) steps — the cost
    /// of a ring eviction. Every strategy restarts on the first sample.
    pub fn replay(&self, board: &mut Scoreboard, history: &[f64]) {
        for lane in &mut board.lanes {
            (lane.se, lane.scored, lane.standing) = (0.0, 0, None);
        }
        board.seen = 0;
        for end in 1..=history.len() {
            self.observe(board, &history[..end]);
        }
    }

    /// Forecasts the next value of `series`, choosing the strategy with
    /// the lowest postcast MSE — each strategy's one-step forecasts over
    /// every prefix of the series, scored against what came next, summed
    /// oldest-first; the first strategy with the strictly lowest mean
    /// wins. Persistence with zero error while a single measurement
    /// exists, `None` on an empty series.
    ///
    /// This replays the series through the same running tournament a
    /// sensor keeps; a sensor answers the same question in
    /// O(strategies) from its scoreboard.
    pub fn forecast(&self, series: &TimeSeries) -> Option<Forecast> {
        let mut board = Scoreboard::default();
        self.replay(&mut board, &series.contiguous_values());
        board.best()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl AdaptiveForecaster {
        /// An ensemble with explicit strategies: the custom ensembles the
        /// tournament tests in `sensor.rs` hold [`AdaptiveForecaster::observe`]
        /// and [`AdaptiveForecaster::replay`], through a `Sensor`, to the
        /// walking oracle with.
        pub(crate) fn with_strategies(strategies: Vec<Box<dyn Forecaster + Send + Sync>>) -> Self {
            Self { strategies }
        }
    }

    /// A small alphabet, so histories are full of repeats, with both
    /// zeros: their bits differ where `==` does not tell them apart.
    const ALPHABET: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0];

    fn tied_history(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 1..max_len)
    }

    /// Carries `f.step` sample by sample over `history` on `state` and
    /// holds every answer to `f.forecast` of the same prefix, bit for bit.
    fn step_matches_forecast(
        f: &dyn Forecaster,
        state: &mut f64,
        history: &[f64],
    ) -> Result<(), TestCaseError> {
        for end in 1..=history.len() {
            let stepped = f.step(state, &history[..end]).map(f64::to_bits);
            let defined = f.forecast(&history[..end]).map(f64::to_bits);
            prop_assert_eq!(
                stepped,
                defined,
                "{} after {} of {:?}",
                f.name(),
                end,
                history
            );
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn kept_strategies_step_to_the_bits_of_their_definition(
            first in tied_history(80),
            second in tied_history(80),
            gain_pick in 0usize..4,
            gain in 1e-3f64..1.0,
        ) {
            // Persistence steps through the default `step`, smoothing
            // through its running level: at the standard gains, at gain 1
            // and at any.
            let alpha = [0.3, 0.7, 1.0, gain][gain_pick];
            let strategies: [&dyn Forecaster; 2] = [&LastValue, &ExpSmoothing::new(alpha)];
            for f in strategies {
                let mut state = 0.0;
                step_matches_forecast(f, &mut state, &first)?;
                // A history that restarts on a used lane, as after
                // `replay`: its first sample arrives alone.
                step_matches_forecast(f, &mut state, &second)?;
            }
        }
    }

    fn series_of(values: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(1024);
        for (i, &v) in values.iter().enumerate() {
            s.push(i as f64 * 5.0, v);
        }
        s
    }

    #[test]
    fn last_value_persistence() {
        assert_eq!(LastValue.forecast(&[1.0, 2.0, 3.0]), Some(3.0));
        assert_eq!(LastValue.forecast(&[]), None);
    }

    #[test]
    fn exp_smoothing_tracks() {
        let f = ExpSmoothing::new(1.0);
        assert_eq!(f.forecast(&[5.0, 7.0]), Some(7.0)); // alpha=1 == persistence
        let slow = ExpSmoothing::new(0.1);
        let v = slow.forecast(&[0.0, 10.0]).unwrap();
        assert!((v - 1.0).abs() < 1e-12);
    }

    #[test]
    fn postcast_mse_of_perfect_constant() {
        let h = [4.0; 10];
        assert_eq!(postcast_mse(&LastValue, &h), Some(0.0));
        assert!(postcast_mse(&LastValue, &[1.0]).is_none());
    }

    #[test]
    fn adaptive_picks_persistence_for_random_walk() {
        // A slow drifting series: the pick follows the drift.
        let values: Vec<f64> = (0..60).map(|i| (i as f64 * 0.05).sin()).collect();
        let s = series_of(&values);
        let fc = AdaptiveForecaster::standard().forecast(&s).unwrap();
        // Forecast should be near the last value.
        assert!((fc.value - values[59]).abs() < 0.15, "value {}", fc.value);
    }

    #[test]
    fn adaptive_picks_mean_like_for_noisy_stationary() {
        // White noise around 0.5: averaging strategies beat persistence.
        let values: Vec<f64> = (0..80)
            .map(|i| 0.5 + 0.1 * ((i * 2654435761u64 % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        let s = series_of(&values);
        let ens = AdaptiveForecaster::standard();
        let fc = ens.forecast(&s).unwrap();
        assert_ne!(ens.names()[fc.winner], "last-value");
        assert!((fc.value - 0.5).abs() < 0.05);
    }

    #[test]
    fn adaptive_single_sample_falls_back() {
        let s = series_of(&[0.7]);
        let ens = AdaptiveForecaster::standard();
        let fc = ens.forecast(&s).unwrap();
        assert_eq!(fc.value, 0.7);
        assert_eq!(fc.rmse, 0.0);
        // The fallback is persistence, reported as `winner: 0`: the
        // ensemble must keep last-value in front for that to name it.
        assert_eq!(ens.names()[0], "last-value");
        assert_eq!(ens.names()[fc.winner], "last-value");
    }

    #[test]
    fn adaptive_empty_series_none() {
        let s = TimeSeries::new(8);
        assert!(AdaptiveForecaster::standard().forecast(&s).is_none());
    }

    #[test]
    fn rmse_reflects_noise_level() {
        let quiet: Vec<f64> = (0..50).map(|_| 0.5).collect();
        let noisy: Vec<f64> = (0..50)
            .map(|i| 0.5 + if i % 2 == 0 { 0.2 } else { -0.2 })
            .collect();
        let ens = AdaptiveForecaster::standard();
        let fq = ens.forecast(&series_of(&quiet)).unwrap();
        let fnz = ens.forecast(&series_of(&noisy)).unwrap();
        assert!(fq.rmse < 1e-12);
        assert!(fnz.rmse > 0.05);
    }
}
