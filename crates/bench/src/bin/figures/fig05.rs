//! Figure 5: the tri-modal CPU load histogram of a production workstation
//! (modes near 0.94, 0.49 and 0.33), with the mode decomposition the
//! paper's Section 2.1.2 performs.

use prodpred_core::report::{f, render_table};
use prodpred_simgrid::load::{LoadGenerator, MarkovModal, SessionLoad};
use prodpred_stochastic::fit::detect_modes;
use prodpred_stochastic::Histogram;

pub fn run() {
    // The statistical generator used by the experiments...
    let markov = MarkovModal::platform1(120.0).generate(5, 0.0, 1.0, 100_000);
    // ...and the mechanistic competing-user model that explains *why* load
    // is modal (round-robin sharing: idle/(1+k)).
    let sessions = SessionLoad::default().generate(6, 0.0, 1.0, 100_000);

    for (name, trace) in [
        ("Markov tri-modal", &markov),
        ("competing-user sessions", &sessions),
    ] {
        println!("== Figure 5: load on a production workstation ({name}) ==");
        let hist = Histogram::from_data(trace.values(), 25).unwrap();
        println!("{}", hist.render_ascii(48));
        let model = detect_modes(trace.values()).expect("modal data");
        let rows: Vec<Vec<String>> = model
            .modes()
            .iter()
            .map(|m| {
                vec![
                    f(m.normal.mu(), 3),
                    f(m.normal.sigma(), 3),
                    f(m.weight * 100.0, 1),
                    format!("{}", m.stochastic()),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["mode mean", "mode sd", "occupancy %", "stochastic value"],
                &rows
            )
        );
        println!(
            "multi-modal weighted average (Sec 2.1.2): {}\n",
            model.weighted_average()
        );
    }
    println!(
        "Paper's modes: 0.94 (normal), 0.49 (long-tailed), 0.33 (normal).\n\
         The session model shows the mechanism: k competing CPU-bound jobs\n\
         leave idle/(1+k) for the application, producing modes at ~0.94,\n\
         ~0.47, ~0.31, ..."
    );
}
