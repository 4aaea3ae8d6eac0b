//! The in-core boundary of Figure 9: the paper restricts its validation to
//! "problem sizes which fit within main memory". This study shows why —
//! the structural model's linear per-element cost (and with it the
//! stochastic prediction) breaks down once a strip's working set pages.

use prodpred_core::report::{f, render_table};
use prodpred_core::{decompose, predict_dedicated, DecompositionPolicy};
use prodpred_simgrid::{MachineClass, PagingModel, Platform};
use prodpred_sor::{simulate, DistSorConfig};

pub fn run() {
    println!("== Memory boundary: where the prediction regime ends ==\n");
    let platform = Platform::dedicated(&[MachineClass::Sparc2, MachineClass::Sparc2], 1.0e7);
    let paging = PagingModel::default();
    let boundary = paging.max_in_core_n(&platform.machines[0].spec, 2);
    println!("two Sparc-2s (64 MB each, 50% usable): strips stay in core up to n = {boundary}\n");

    let mut rows = Vec::new();
    for n in [1200usize, 1600, 2000, 2200, 2400, 2800, 3200] {
        let strips = decompose(&platform, n, DecompositionPolicy::Equal, None);
        let predicted = predict_dedicated(&platform, n, &strips, 20).mean();
        let run = simulate(
            &platform,
            &strips,
            DistSorConfig {
                n,
                iterations: 20,
                start_time: 0.0,
                paging: Some(paging),
            },
        );
        let err = (predicted - run.total_secs).abs() / run.total_secs;
        rows.push(vec![
            n.to_string(),
            if n <= boundary { "in-core" } else { "PAGING" }.to_string(),
            f(predicted, 2),
            f(run.total_secs, 2),
            f(err * 100.0, 1),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["n", "regime", "predicted (s)", "actual (s)", "error %"],
            &rows
        )
    );
    println!(
        "\nInside the in-core regime the model stays within a fraction of a\n\
         percent; once the working set exceeds memory the paging slowdown\n\
         (invisible to the per-element model) makes the prediction useless —\n\
         which is exactly why Figure 9 stops at in-core sizes. A deployment\n\
         would gate predictions on PagingModel::fits_in_core."
    );
}
