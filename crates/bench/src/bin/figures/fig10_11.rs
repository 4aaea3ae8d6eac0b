//! Figures 10 and 11: Platform 2's 4-modal load histogram and a time
//! trace of its burstiness.

use prodpred_core::report::{f, render_series, render_table};
use prodpred_simgrid::Platform;
use prodpred_stochastic::fit::detect_modes;
use prodpred_stochastic::Histogram;

pub fn run() {
    let platform = Platform::platform2(9, 40_000.0);
    let trace = &platform.machines[0].load;

    println!("== Figure 10: histogram data for Platform 2 ==");
    let hist = Histogram::from_data(trace.values(), 25).unwrap();
    println!("{}", hist.render_ascii(48));

    if let Some(model) = detect_modes(trace.values()) {
        let rows: Vec<Vec<String>> = model
            .modes()
            .iter()
            .map(|m| {
                vec![
                    f(m.normal.mu(), 3),
                    f(m.normal.sigma(), 3),
                    f(m.weight * 100.0, 1),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["mode mean", "mode sd", "occupancy %"], &rows)
        );
        println!(
            "detected {} modes; paper reports a 4-modal bursty distribution\n",
            model.modes().len()
        );
    }

    println!("== Figure 11: typical multi-modal bursty load ==");
    let window: Vec<(f64, f64)> = trace.sample_every(0.0, 600.0, 5.0);
    println!(
        "{}",
        render_series(&window, 48, "availability (10-minute window)")
    );
}
