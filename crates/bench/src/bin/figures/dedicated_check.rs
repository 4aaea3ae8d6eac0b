//! Section 2.2.1's validation: "In a dedicated setting, the structural
//! model defined in this section predicted overall application execution
//! times to within 2% of actual execution time."

use prodpred_core::dedicated_check;
use prodpred_core::report::{f, render_table};

pub fn run() {
    println!("== Dedicated structural-model validation (Sec 2.2.1) ==\n");
    let checks = dedicated_check(&[600, 800, 1000, 1200, 1400, 1600, 1800, 2000], 50);
    let rows: Vec<Vec<String>> = checks
        .iter()
        .map(|c| {
            vec![
                c.n.to_string(),
                f(c.predicted_secs, 3),
                f(c.actual_secs, 3),
                f(c.rel_error * 100.0, 3),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["n", "predicted (s)", "actual (s)", "error %"], &rows)
    );
    let max = checks.iter().map(|c| c.rel_error).fold(0.0, f64::max);
    println!("max error {:.3}%  (paper: within 2%)", max * 100.0);
}
