//! Forecasting strategies, after Wolski's Network Weather Service.
//!
//! The NWS runs a family of simple predictors over each resource history
//! and, for every forecast, reports the prediction of whichever strategy
//! has the lowest accumulated error so far — so the service adapts to the
//! character of each resource without per-resource tuning
//! ([Wol96, Wol97, WSP97] in the paper's bibliography).

use crate::series::TimeSeries;
use prodpred_stochastic::stats;

/// A one-step-ahead forecasting strategy over a measurement history.
pub trait Forecaster {
    /// Strategy name, for reports.
    fn name(&self) -> &'static str;

    /// Forecast of the next value given the history (oldest-first).
    /// `None` when the history is too short.
    fn forecast(&self, history: &[f64]) -> Option<f64>;

    /// Incremental form of [`Forecaster::forecast`], called once per
    /// sample with the history ending in that sample: it must return
    /// exactly `self.forecast(history)`, bit for bit. `state` is running
    /// state private to this strategy and this history — a word and a
    /// buffer, see [`LaneState`]; a history that starts or restarts
    /// arrives with `history.len() == 1`, which is where a strategy that
    /// uses `state` (re)initialises it.
    ///
    /// The default recomputes from the history, which costs what
    /// `forecast` costs. A strategy whose `forecast` folds the whole
    /// history, or sorts a window that moved by one sample, overrides it.
    fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
        let _ = state;
        self.forecast(history)
    }
}

/// What a strategy carries from one [`Forecaster::step`] to the next over
/// one history. Both fields are the strategy's to use as it likes; the
/// tournament only keeps them, one `LaneState` per strategy per history.
#[derive(Debug, Clone, Default)]
pub struct LaneState {
    /// One running value: a sum, a smoothed level.
    pub word: f64,
    /// A running sequence: the sliding strategies keep their window here,
    /// sorted. Its allocation outlives a restart of the history.
    pub buf: Vec<f64>,
}

/// Slides `sorted` one sample forward and returns it: on entry it holds
/// the last `window` values of the history before its newest sample,
/// ascending by `total_cmp`; on return the last `window` values including
/// it (`None` for an empty history). The value that left the window is
/// taken out and the one that arrived put in, each found by binary
/// search. `total_cmp` orders distinct bit patterns strictly, so this is
/// the sequence — bit for bit — that copying the window and sorting it
/// gives.
fn slide_sorted<'a>(sorted: &'a mut Vec<f64>, window: usize, history: &[f64]) -> Option<&'a [f64]> {
    let window = window.max(1);
    let (&arrived, earlier) = history.split_last()?;
    if earlier.is_empty() {
        sorted.clear();
    } else if earlier.len() >= window {
        let left = earlier[earlier.len() - window];
        if let Ok(at) = sorted.binary_search_by(|p| p.total_cmp(&left)) {
            sorted.remove(at);
        }
    }
    debug_assert_eq!(sorted.len(), earlier.len().min(window - 1));
    let at = sorted.partition_point(|p| p.total_cmp(&arrived).is_lt());
    sorted.insert(at, arrived);
    Some(sorted)
}

/// Predicts the last observed value (martingale / persistence).
#[derive(Debug, Clone, Copy, Default)]
pub struct LastValue;

impl Forecaster for LastValue {
    fn name(&self) -> &'static str {
        "last-value"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        history.last().copied()
    }
}

/// Predicts the mean of the whole history.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunningMean;

impl Forecaster for RunningMean {
    fn name(&self) -> &'static str {
        "running-mean"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        if history.is_empty() {
            None
        } else {
            Some(history.iter().sum::<f64>() / history.len() as f64)
        }
    }
    fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
        let (&x, earlier) = history.split_last()?;
        // The first sample goes through `Iterator::sum`, so the running
        // sum is the same left fold from the same seed as `forecast`'s.
        state.word = if earlier.is_empty() {
            history.iter().sum()
        } else {
            state.word + x
        };
        Some(state.word / history.len() as f64)
    }
}

/// Predicts the mean of the last `window` values.
#[derive(Debug, Clone, Copy)]
pub struct SlidingMean {
    /// Window length.
    pub window: usize,
}

impl Forecaster for SlidingMean {
    fn name(&self) -> &'static str {
        "sliding-mean"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        let start = history.len().saturating_sub(self.window.max(1));
        let w = &history[start..];
        Some(w.iter().sum::<f64>() / w.len() as f64)
    }
}

/// Predicts the median of the last `window` values — robust to the
/// occasional burst.
#[derive(Debug, Clone, Copy)]
pub struct SlidingMedian {
    /// Window length.
    pub window: usize,
}

impl Forecaster for SlidingMedian {
    fn name(&self) -> &'static str {
        "sliding-median"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        let start = history.len().saturating_sub(self.window.max(1));
        stats::median(&history[start..])
    }
    fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
        let sorted = slide_sorted(&mut state.buf, self.window, history)?;
        Some(stats::quantile_sorted(sorted, 0.5))
    }
}

/// Exponential smoothing with gain `alpha`.
#[derive(Debug, Clone, Copy)]
pub struct ExpSmoothing {
    alpha: f64,
}

impl ExpSmoothing {
    /// Exponential smoothing with gain `alpha` in `(0, 1]`; higher
    /// tracks faster.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
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
    fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
        let (&x, earlier) = history.split_last()?;
        let s = &mut state.word;
        if earlier.is_empty() {
            *s = x;
        } else {
            *s += self.alpha * (x - *s);
        }
        Some(*s)
    }
}

/// Predicts the trimmed mean of the last `window` values: the mean of
/// what remains after dropping the `trim` smallest and `trim` largest —
/// the NWS's compromise between mean (efficient) and median (robust).
#[derive(Debug, Clone, Copy)]
pub struct TrimmedMean {
    /// Window length.
    pub window: usize,
    /// Observations dropped from each end.
    pub trim: usize,
}

impl Forecaster for TrimmedMean {
    fn name(&self) -> &'static str {
        "trimmed-mean"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        let start = history.len().saturating_sub(self.window.max(1));
        let mut w: Vec<f64> = history[start..].to_vec();
        w.sort_by(f64::total_cmp);
        Some(self.mean_of_sorted(&w))
    }
    fn step(&self, state: &mut LaneState, history: &[f64]) -> Option<f64> {
        let sorted = slide_sorted(&mut state.buf, self.window, history)?;
        Some(self.mean_of_sorted(sorted))
    }
}

impl TrimmedMean {
    /// The mean of a sorted, non-empty window without its `trim` smallest
    /// and largest (fewer when the window is too short to spare them),
    /// summed left to right.
    fn mean_of_sorted(&self, w: &[f64]) -> f64 {
        let t = self.trim.min((w.len().saturating_sub(1)) / 2);
        let kept = &w[t..w.len() - t];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

/// Adaptive-window mean: picks, per forecast, the sliding-mean window
/// from `candidates` with the lowest postcast MSE over the history —
/// Wolski's adaptive-window technique in miniature.
#[derive(Debug, Clone)]
pub struct AdaptiveWindowMean {
    /// Candidate window lengths.
    pub candidates: Vec<usize>,
}

impl Default for AdaptiveWindowMean {
    fn default() -> Self {
        Self {
            candidates: vec![3, 6, 12, 24, 48],
        }
    }
}

impl Forecaster for AdaptiveWindowMean {
    fn name(&self) -> &'static str {
        "adaptive-window-mean"
    }
    fn forecast(&self, history: &[f64]) -> Option<f64> {
        if history.is_empty() {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        for &w in &self.candidates {
            let f = SlidingMean { window: w };
            if let Some(mse) = postcast_mse(&f, history) {
                match best {
                    Some((b, _)) if mse >= b => {}
                    _ => best = Some((mse, w)),
                }
            }
        }
        let window = best.map(|(_, w)| w).unwrap_or(1);
        SlidingMean { window }.forecast(history)
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
    state: LaneState,
}

/// The tournament's running state over one measurement history: per
/// strategy the squared-error sum so far and the standing one-step
/// forecast, so the winner is read off without revisiting the history.
///
/// A scoreboard belongs to the ensemble and the history it was fed from;
/// [`AdaptiveForecaster::observe`] extends it by one sample and
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
        let mut best: Option<(usize, f64)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if lane.scored == 0 {
                continue;
            }
            let mse = lane.se / lane.scored as f64;
            match best {
                Some((_, b)) if mse >= b => {}
                _ => best = Some((i, mse)),
            }
        }
        let (winner, mse) = best?;
        Some(Forecast {
            value: self.lanes[winner].standing?,
            rmse: mse.sqrt(),
            winner,
        })
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
    /// The standard ensemble: persistence, running mean, sliding
    /// means/medians at two windows, trimmed mean, and exponential
    /// smoothing at three gains.
    pub fn standard() -> Self {
        Self {
            strategies: vec![
                Box::new(LastValue),
                Box::new(RunningMean),
                Box::new(SlidingMean { window: 6 }),
                Box::new(SlidingMean { window: 24 }),
                Box::new(SlidingMedian { window: 6 }),
                Box::new(SlidingMedian { window: 24 }),
                Box::new(TrimmedMean {
                    window: 12,
                    trim: 2,
                }),
                Box::new(ExpSmoothing::new(0.1)),
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
    /// one sample at a time: O(history × strategies) steps, each at most
    /// O(window) — the cost of a ring eviction. The lanes keep their
    /// strategies' buffers; every strategy restarts on the first sample.
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
    /// [`crate::Sensor`] keeps; a sensor answers the same question in
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

    impl AdaptiveForecaster {
        /// An ensemble with explicit strategies: the custom ensembles the
        /// tournament tests in `sensor.rs` hold [`AdaptiveForecaster::observe`]
        /// and [`AdaptiveForecaster::replay`], through a `Sensor`, to the
        /// walking oracle with.
        pub(crate) fn with_strategies(strategies: Vec<Box<dyn Forecaster + Send + Sync>>) -> Self {
            Self { strategies }
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
    fn running_mean() {
        assert_eq!(RunningMean.forecast(&[1.0, 2.0, 3.0]), Some(2.0));
    }

    #[test]
    fn sliding_mean_and_median() {
        let h = [10.0, 10.0, 1.0, 2.0, 3.0];
        assert_eq!(SlidingMean { window: 3 }.forecast(&h), Some(2.0));
        assert_eq!(SlidingMedian { window: 3 }.forecast(&h), Some(2.0));
        // Median shrugs off a burst, mean doesn't.
        let burst = [1.0, 1.0, 1.0, 100.0, 1.0];
        assert_eq!(SlidingMedian { window: 5 }.forecast(&burst), Some(1.0));
        assert!(SlidingMean { window: 5 }.forecast(&burst).unwrap() > 10.0);
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
    fn trimmed_mean_shrugs_off_bursts_but_uses_more_data_than_median() {
        let h = [
            0.5, 0.5, 0.52, 0.48, 0.5, 5.0, 0.5, 0.49, 0.51, 0.5, 0.5, 0.5,
        ];
        let v = TrimmedMean {
            window: 12,
            trim: 2,
        }
        .forecast(&h)
        .unwrap();
        assert!(
            (v - 0.5).abs() < 0.02,
            "burst leaked into trimmed mean: {v}"
        );
        // Untrimmed mean is dragged by the burst.
        let m = SlidingMean { window: 12 }.forecast(&h).unwrap();
        assert!(m > 0.8);
    }

    #[test]
    fn trimmed_mean_degenerates_gracefully() {
        // Window smaller than 2*trim+1: trim clamps, result stays defined.
        let v = TrimmedMean { window: 3, trim: 5 }
            .forecast(&[1.0, 2.0, 3.0])
            .unwrap();
        assert!((v - 2.0).abs() < 1e-12);
        assert!(TrimmedMean { window: 4, trim: 1 }.forecast(&[]).is_none());
    }

    #[test]
    fn adaptive_window_prefers_short_windows_for_bursty_series() {
        // A regime-switching series: short windows adapt faster, so the
        // adaptive-window mean must beat the longest candidate.
        let mut h = Vec::new();
        for block in 0..10 {
            let level = if block % 2 == 0 { 0.2 } else { 0.8 };
            for _ in 0..12 {
                h.push(level);
            }
        }
        let adaptive = AdaptiveWindowMean::default();
        let mse_adaptive = postcast_mse(&adaptive, &h).unwrap();
        let mse_long = postcast_mse(&SlidingMean { window: 48 }, &h).unwrap();
        assert!(
            mse_adaptive < mse_long,
            "adaptive {mse_adaptive} vs long-window {mse_long}"
        );
    }

    #[test]
    fn adaptive_picks_persistence_for_random_walk() {
        // A slow drifting series: persistence beats the global mean.
        let values: Vec<f64> = (0..60).map(|i| (i as f64 * 0.05).sin()).collect();
        let s = series_of(&values);
        let fc = AdaptiveForecaster::standard().forecast(&s).unwrap();
        // Winner must not be the running mean (index 1): the series drifts.
        assert_ne!(
            fc.winner, 1,
            "running mean should lose on a drifting series"
        );
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
        let fc = AdaptiveForecaster::standard().forecast(&s).unwrap();
        assert_eq!(fc.value, 0.7);
        assert_eq!(fc.rmse, 0.0);
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
