//! Integration of the NWS against simulated platforms: sensors see the
//! traces, forecasts track regime changes, stochastic values behave.

use prodpred_nws::{NwsConfig, NwsService, SpreadPolicy};
use prodpred_simgrid::Platform;

#[test]
fn nws_tracks_every_machine_of_both_platforms() {
    for platform in [
        Platform::platform1(3, 2000.0),
        Platform::platform2(3, 2000.0),
    ] {
        let nws = NwsService::attach(&platform, NwsConfig::default());
        nws.advance_to(&platform, 1500.0);
        for i in 0..platform.machines.len() {
            let sv = nws.cpu_stochastic(i).expect("data after advance");
            assert!(sv.mean() > 0.0 && sv.mean() <= 1.0, "machine {i}: {sv}");
            // The last measurement agrees with the underlying trace.
            let (t, v) = nws.cpu_last(i).unwrap();
            assert_eq!(v, platform.machines[i].load.at(t));
        }
    }
}

#[test]
fn spread_policies_order_by_conservatism() {
    let platform = Platform::platform2(4, 4000.0);
    let widths: Vec<f64> = [
        SpreadPolicy::ForecastRmse,
        SpreadPolicy::WindowVariance,
        SpreadPolicy::Combined,
    ]
    .into_iter()
    .map(|spread| {
        let nws = NwsService::attach(&platform, NwsConfig { spread });
        nws.advance_to(&platform, 3000.0);
        nws.cpu_stochastic(0).unwrap().half_width()
    })
    .collect();
    // Combined >= WindowVariance and Combined >= ForecastRmse.
    assert!(widths[2] >= widths[1] - 1e-12, "{widths:?}");
    assert!(widths[2] >= widths[0] - 1e-12, "{widths:?}");
}

#[test]
fn single_mode_prediction_brackets_future_load() {
    let platform = Platform::platform1(6, 4000.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 2000.0);
    // Machine 0 sits in the 0.48 mode; its near-future mean load must sit
    // inside a modestly widened predicted range.
    let sv = nws.cpu_stochastic(0).unwrap();
    let future = platform.machines[0].load.integral(2000.0, 2120.0) / 120.0;
    assert!(
        sv.widen(3.0).contains(future),
        "predicted {sv}, future {future}"
    );
}

#[test]
fn bandwidth_fraction_stays_physical() {
    let platform = Platform::platform2(8, 3000.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 2500.0);
    let bw = nws.bandwidth_fraction_stochastic().unwrap();
    assert!(bw.mean() > 0.0 && bw.mean() < 1.0, "{bw}");
    assert!(bw.lo() > -0.2, "absurd lower bound: {bw}");
}
