//! "Stochastic values could be used to specify a 'service range' as an
//! alternative to Quality of Service guarantees. Probabilities associated
//! with values in the service range could be used in instances where poor
//! performance can be tolerated a small percentage of the time."
//! (paper, Section 1.2)
//!
//! This example turns a stochastic bandwidth value into service-range
//! statements and checks them against the simulated shared ethernet.
//!
//! Run with: `cargo run -p prodpred-examples --bin service_range_qos`

use prodpred_simgrid::load::LoadGenerator;
use prodpred_simgrid::network::EthernetContention;
use prodpred_stochastic::{Distribution, StochasticValue};

fn main() {
    // Measure the shared segment for ~28 hours at the NWS cadence.
    let trace = EthernetContention::default().generate(17, 0.0, 5.0, 20_000);
    let mbit: Vec<f64> = trace.values().iter().map(|f| f * 10.0).collect();
    let sv = StochasticValue::from_samples(&mbit).unwrap();
    let emp = prodpred_stochastic::Empirical::new(&mbit);

    println!("measured bandwidth: {sv} Mbit/s\n");

    // A QoS guarantee would have to promise the worst case. A service
    // range promises a level *with a probability*.
    println!("service-range statements derived from the measurements:");
    for q in [0.50, 0.75, 0.90, 0.95, 0.99] {
        let level = emp.quantile(1.0 - q);
        let normal_level = sv.to_normal().quantile(1.0 - q);
        println!(
            "  >= {level:5.2} Mbit/s at least {:2.0}% of the time   (normal model: {normal_level:5.2})",
            q * 100.0
        );
    }

    // Verify one statement empirically.
    let level = emp.quantile(0.10);
    let frac = emp.fraction_within(level, f64::INFINITY);
    println!(
        "\ncheck: {:.1}% of samples meet the 90% service level of {level:.2} Mbit/s",
        frac * 100.0
    );
    println!(
        "\nThe long left tail (contention) makes the worst case far below the\n\
         typical case — a hard guarantee would waste most of the segment's\n\
         capacity, while the service range prices the risk explicitly."
    );
}
