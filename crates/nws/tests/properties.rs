//! Property-based tests for the NWS: forecaster sanity over arbitrary
//! histories and series retention invariants.

use prodpred_nws::forecast::{
    postcast_mse, AdaptiveForecaster, ExpSmoothing, Forecaster, LaneState, LastValue, RunningMean,
    SlidingMean, SlidingMedian, TrimmedMean,
};
use prodpred_nws::TimeSeries;
use proptest::prelude::*;

fn history() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 2..120)
}

/// A small alphabet, so windows are full of ties, with both zeros:
/// `total_cmp` tells `-0.0` from `0.0` where `==` does not.
const ALPHABET: [f64; 6] = [-0.0, 0.0, 0.25, 0.5, 0.5000000000000001, 1.0];

fn tied_history(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec((0..ALPHABET.len()).prop_map(|i| ALPHABET[i]), 1..max_len)
}

/// Carries `f.step` sample by sample over `history` on `lane` and holds
/// every answer to `f.forecast` of the same prefix, bit for bit.
fn step_matches_forecast(
    f: &dyn Forecaster,
    lane: &mut LaneState,
    history: &[f64],
) -> Result<(), TestCaseError> {
    for end in 1..=history.len() {
        let stepped = f.step(lane, &history[..end]).map(f64::to_bits);
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
    fn sliding_windows_step_to_the_bits_of_their_definition(
        first in tied_history(80),
        second in tied_history(80),
        window_pick in 0usize..6,
        trim_pick in 0usize..3,
    ) {
        let window = [0, 1, 2, 6, 24, 200][window_pick];
        let trim = [0, 2, window / 2 + 1][trim_pick];
        let strategies: [&dyn Forecaster; 2] =
            [&SlidingMedian { window }, &TrimmedMean { window, trim }];
        for f in strategies {
            let mut lane = LaneState::default();
            step_matches_forecast(f, &mut lane, &first)?;
            // A history that restarts on a used lane, as after `replay`:
            // its first sample arrives alone.
            step_matches_forecast(f, &mut lane, &second)?;
        }
    }

    #[test]
    fn averaging_forecasters_stay_in_convex_hull(h in history()) {
        let lo = h.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let forecasters: Vec<Box<dyn Forecaster>> = vec![
            Box::new(LastValue),
            Box::new(RunningMean),
            Box::new(SlidingMean { window: 8 }),
            Box::new(SlidingMedian { window: 8 }),
            Box::new(ExpSmoothing::new(0.4)),
        ];
        for f in &forecasters {
            let v = f.forecast(&h).unwrap();
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{} gave {v} outside [{lo},{hi}]", f.name());
        }
    }

    #[test]
    fn postcast_mse_nonnegative_and_zero_for_constant(h in history(), c in 0.0f64..10.0) {
        let m = postcast_mse(&LastValue, &h).unwrap();
        prop_assert!(m >= 0.0);
        let constant = vec![c; h.len().max(2)];
        prop_assert_eq!(postcast_mse(&LastValue, &constant), Some(0.0));
    }

    #[test]
    fn adaptive_never_beaten_by_every_member(h in history()) {
        // The adaptive pick minimizes postcast MSE among members, so its
        // winner's MSE is <= each member's.
        let mut series = TimeSeries::new(h.len());
        for (i, &v) in h.iter().enumerate() {
            series.push(i as f64, v);
        }
        let ens = AdaptiveForecaster::standard();
        let fc = ens.forecast(&series).unwrap();
        let winner_mse = fc.rmse * fc.rmse;
        for f in [
            &LastValue as &dyn Forecaster,
            &RunningMean,
            &SlidingMean { window: 6 },
            &SlidingMedian { window: 6 },
        ] {
            if let Some(m) = postcast_mse(f, &h) {
                prop_assert!(winner_mse <= m + 1e-12, "{} beat the adaptive pick", f.name());
            }
        }
    }

    #[test]
    fn series_retains_most_recent(capacity in 1usize..64, n in 1usize..200) {
        let mut s = TimeSeries::new(capacity);
        for i in 0..n {
            s.push(i as f64, i as f64);
        }
        prop_assert_eq!(s.len(), n.min(capacity));
        let vals = s.values();
        // The newest value is always present; the oldest retained is
        // n - len.
        prop_assert_eq!(*vals.last().unwrap() as usize, n - 1);
        prop_assert_eq!(vals[0] as usize, n - s.len());
    }
}
