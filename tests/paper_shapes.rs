//! The paper's headline quantitative shapes, asserted end-to-end:
//!
//! * §2.2.1 — dedicated structural model within 2%,
//! * §3.1 / Fig 9 — single-mode stochastic predictions cover the runs,
//!   mean-point discrepancy visible but moderate,
//! * §3.2 / Figs 12-17 — bursty-load stochastic predictions beat point
//!   predictions decisively,
//! * §2.1.1 / Fig 3 — the normal summary of long-tailed bandwidth covers
//!   less than its nominal 95%.

use prodpred_core::{dedicated_check, platform1_experiment, platform2_experiment};

#[test]
fn dedicated_within_two_percent_across_sizes() {
    for c in dedicated_check(&[800, 1200, 1600, 2000], 30) {
        assert!(c.rel_error < 0.02, "n={} err {}", c.n, c.rel_error);
    }
}

#[test]
fn platform1_figure9_shape() {
    let series = platform1_experiment(42, &[1000, 1200, 1400, 1600, 1800, 2000]);
    let acc = series.accuracy().unwrap();
    // "execution time measurements fall entirely within the stochastic
    // prediction"
    assert!(acc.coverage >= 0.8, "coverage {}", acc.coverage);
    // "maximal discrepancy between the means ... is 9.7%" — same order.
    assert!(acc.max_mean_error > 0.005, "mean error implausibly small");
    assert!(
        acc.max_mean_error < 0.25,
        "mean error too large: {}",
        acc.max_mean_error
    );
    // "The discrepancy between modeled stochastic predictions and actual
    // execution times is 0%" — range error far below mean error.
    assert!(
        acc.max_range_error < 0.05,
        "range error {}",
        acc.max_range_error
    );
}

#[test]
fn platform2_figures12_17_shape() {
    for (seed, n) in [(1600u64, 1600usize), (1000, 1000), (2000, 2000)] {
        let series = platform2_experiment(seed, n, 12);
        let acc = series.accuracy().unwrap();
        // "we capture approximately 80% of the actual execution times
        // within the range of stochastic predictions" — allow a band.
        assert!(
            acc.coverage >= 0.6,
            "n={n}: coverage {} too low",
            acc.coverage
        );
        // Stochastic range error must be far below the mean-point error
        // (paper: ~14% vs 38.6%).
        assert!(
            acc.max_range_error < 0.5 * acc.max_mean_error,
            "n={n}: range {} vs mean {}",
            acc.max_range_error,
            acc.max_mean_error
        );
        // Point predictions go badly wrong under bursts.
        assert!(
            acc.max_mean_error > 0.10,
            "n={n}: bursty mean error implausibly small: {}",
            acc.max_mean_error
        );
    }
}

#[test]
fn platform2_calibration_is_monotone_and_saturating() {
    use prodpred_stochastic::calibration_curve;
    let series = platform2_experiment(1600, 1600, 12);
    let obs: Vec<_> = series.records.iter().map(|r| r.observation()).collect();
    let curve = calibration_curve(&obs, &[0.25, 0.5, 1.0, 2.0, 4.0]);
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1, "{curve:?}");
    }
    // Quartered intervals must lose substantial coverage; 4x must cover
    // everything — the predictor is informative, not vacuous.
    assert!(curve[0].1 < curve[2].1, "{curve:?}");
    assert!(curve[4].1 > 0.95, "{curve:?}");
}

#[test]
fn long_tailed_bandwidth_undercovers_nominal() {
    use prodpred_simgrid::load::LoadGenerator;
    use prodpred_simgrid::network::EthernetContention;
    use prodpred_stochastic::fit::normality_report;
    let trace = EthernetContention::default().generate(5, 0.0, 5.0, 30_000);
    let report = normality_report(trace.values()).unwrap();
    // Figure 3's lesson: ~91% actual coverage instead of ~95%.
    assert!(
        report.two_sigma_coverage < 0.95,
        "coverage {}",
        report.two_sigma_coverage
    );
    assert!(report.two_sigma_coverage > 0.85);
    assert!(report.skewness < -0.5, "left tail expected");
}
