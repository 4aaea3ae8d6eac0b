//! A tour of the Network Weather Service forecaster ensemble: which
//! strategy wins on which kind of resource signal, and what the adaptive
//! selection buys.
//!
//! Run with: `cargo run -p prodpred-examples --bin forecaster_tour`

use prodpred_nws::forecast::{postcast_mse, AdaptiveForecaster};
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

    let ens = AdaptiveForecaster::standard();
    for (name, values) in &signals {
        println!("--- {name} ---");
        for (i, s) in ens.strategies().iter().enumerate() {
            let mse = postcast_mse(s.as_ref(), values).unwrap();
            println!("  {i} {:16} rmse {:.4}", s.name(), mse.sqrt());
        }
        let ts = series_from(values);
        let fc = ens.forecast(&ts).unwrap();
        println!(
            "  adaptive pick: {} {} (forecast {:.3} ± rmse {:.3})\n",
            fc.winner,
            ens.names()[fc.winner],
            fc.value,
            fc.rmse
        );
    }
    println!(
        "The NWS (and this clone) re-selects the lowest-error strategy per\n\
         forecast, so each resource is served by whichever strategy has\n\
         tracked it best so far (exp-smoothing rows by rising gain)."
    );
}
