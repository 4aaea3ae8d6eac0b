//! A tour of the Network Weather Service forecaster ensemble: which
//! strategy wins on which kind of resource signal, and what the adaptive
//! selection buys.
//!
//! Run with: `cargo run -p prodpred-examples --bin forecaster_tour`

use prodpred_nws::forecast::{
    postcast_mse, AdaptiveForecaster, AdaptiveWindowMean, ExpSmoothing, Forecaster, LastValue,
    RunningMean, SlidingMean, SlidingMedian, TrimmedMean,
};
use prodpred_nws::TimeSeries;
use prodpred_simgrid::load::{LoadGenerator, MarkovModal, SingleModeAr1};

fn series_from(values: &[f64]) -> TimeSeries {
    let mut s = TimeSeries::new(values.len());
    for (i, &v) in values.iter().enumerate() {
        s.push(i as f64 * 5.0, v);
    }
    s
}

fn main() {
    let signals: Vec<(&str, Vec<f64>)> = vec![
        (
            "single-mode AR(1) load (Platform 1)",
            SingleModeAr1::platform1_center()
                .generate(1, 0.0, 5.0, 400)
                .values()
                .to_vec(),
        ),
        (
            "bursty 4-modal load (Platform 2)",
            MarkovModal::platform2(25.0)
                .generate(2, 0.0, 5.0, 400)
                .values()
                .to_vec(),
        ),
        (
            "slow drift",
            (0..400)
                .map(|i| 0.5 + 0.3 * (i as f64 / 60.0).sin())
                .collect(),
        ),
    ];

    let strategies: Vec<Box<dyn Forecaster + Send + Sync>> = vec![
        Box::new(LastValue),
        Box::new(RunningMean),
        Box::new(SlidingMean { window: 6 }),
        Box::new(SlidingMedian { window: 6 }),
        Box::new(TrimmedMean {
            window: 12,
            trim: 2,
        }),
        Box::new(ExpSmoothing::new(0.3)),
        Box::new(AdaptiveWindowMean::default()),
    ];

    for (name, values) in &signals {
        println!("--- {name} ---");
        for s in &strategies {
            let mse = postcast_mse(s.as_ref(), values).unwrap();
            println!("  {:16} rmse {:.4}", s.name(), mse.sqrt());
        }
        let ens = AdaptiveForecaster::standard();
        let ts = series_from(values);
        let fc = ens.forecast(&ts).unwrap();
        println!(
            "  adaptive pick: {} (forecast {:.3} ± rmse {:.3})\n",
            ens.names()[fc.winner],
            fc.value,
            fc.rmse
        );
    }
    println!(
        "No single strategy wins everywhere — which is exactly why the NWS\n\
         (and this clone) re-selects the lowest-error strategy per forecast."
    );
}
