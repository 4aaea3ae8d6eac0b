//! Property-based tests for the NWS: forecaster sanity over arbitrary
//! histories and series retention invariants.

use prodpred_nws::forecast::{postcast_mse, AdaptiveForecaster};
use prodpred_nws::TimeSeries;
use proptest::prelude::*;

fn history() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..1.0, 2..120)
}

proptest! {
    #[test]
    fn averaging_forecasters_stay_in_convex_hull(h in history()) {
        let lo = h.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for f in AdaptiveForecaster::standard().strategies() {
            let v = f.forecast(&h).unwrap();
            prop_assert!(v >= lo - 1e-12 && v <= hi + 1e-12, "{} gave {v} outside [{lo},{hi}]", f.name());
        }
    }

    #[test]
    fn postcast_mse_nonnegative_and_zero_for_constant(h in history(), c in 0.0f64..10.0) {
        let constant = vec![c; h.len().max(2)];
        for f in AdaptiveForecaster::standard().strategies() {
            let m = postcast_mse(f.as_ref(), &h).unwrap();
            prop_assert!(m >= 0.0);
            prop_assert_eq!(postcast_mse(f.as_ref(), &constant), Some(0.0), "{}", f.name());
        }
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
        for f in ens.strategies() {
            if let Some(m) = postcast_mse(f.as_ref(), &h) {
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
