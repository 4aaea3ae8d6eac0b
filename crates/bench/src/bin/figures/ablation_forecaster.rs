//! Ablation: the NWS spread policy and forecaster choice, end-to-end.
//!
//! The paper takes the NWS's value-plus-variance as given; this study
//! shows how the reported spread's derivation moves the coverage/width
//! trade-off of the final predictions.

use prodpred_core::report::{f, render_table};
use prodpred_core::{decompose, DecompositionPolicy, PredictorConfig, SorPredictor};
use prodpred_nws::{NwsConfig, NwsService, SpreadPolicy};
use prodpred_simgrid::Platform;
use prodpred_sor::{simulate, DistSorConfig};
use prodpred_stochastic::{AccuracyReport, Observation};

fn run_with(spread: SpreadPolicy, seed: u64, runs: usize) -> (AccuracyReport, f64) {
    let platform = Platform::platform2(seed, 60_000.0);
    let nws = NwsService::attach(
        &platform,
        NwsConfig { spread },
    );
    let n = 1600;
    let strips = decompose(&platform, n, DecompositionPolicy::DedicatedSpeed, None);
    let mut t = 300.0;
    let mut obs = Vec::new();
    let mut width_sum = 0.0;
    for _ in 0..runs {
        nws.advance_to(&platform, t);
        let predictor = SorPredictor::new(&platform, &nws, PredictorConfig::default());
        let p = predictor.predict(n, &strips).expect("warm");
        let run = simulate(
            &platform,
            &strips,
            DistSorConfig {
                paging: None,
                n,
                iterations: 50,
                start_time: t,
            },
        );
        obs.push(Observation {
            predicted: p.stochastic,
            actual: run.total_secs,
        });
        width_sum += p.stochastic.half_width() / p.stochastic.mean();
        t += run.total_secs + 20.0;
    }
    (
        AccuracyReport::from_observations(&obs).unwrap(),
        width_sum / runs as f64,
    )
}

pub fn run() {
    println!("== Ablation: NWS spread policy (Platform 2, 1600², 12 runs) ==\n");
    // Each policy replays its own platform from the same seed, so the
    // three studies are independent and fan out over the work pool.
    let policies: Vec<(&str, SpreadPolicy)> = vec![
        ("forecast RMSE (NWS-style)", SpreadPolicy::ForecastRmse),
        ("window variance", SpreadPolicy::WindowVariance),
        ("combined", SpreadPolicy::Combined),
    ];
    let rows = prodpred_pool::parallel_map(&policies, 0, |_, &(name, spread)| {
        let (acc, width) = run_with(spread, 1600, 12);
        vec![
            name.to_string(),
            f(acc.coverage * 100.0, 0),
            f(acc.max_range_error * 100.0, 1),
            f(acc.max_mean_error * 100.0, 1),
            f(width * 100.0, 1),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "spread policy",
                "coverage %",
                "max range err %",
                "max mean err %",
                "mean rel width %"
            ],
            &rows
        )
    );
    println!(
        "\nThe forecast-RMSE spread (what the real NWS reports) is the sweet\n\
         spot: high coverage at a fraction of the window-variance width.\n\
         Window variance on multi-modal load counts between-mode spread the\n\
         application will mostly average over, so its intervals balloon."
    );
}
