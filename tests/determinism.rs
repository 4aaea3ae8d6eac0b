//! Every experiment replays bit-for-bit from its seed — the property that
//! makes the figure harness reproducible.

use prodpred_core::{platform1_experiment, platform2_experiment};

#[test]
fn platform1_experiment_is_deterministic() {
    let a = platform1_experiment(5, &[1000, 1400]);
    let b = platform1_experiment(5, &[1000, 1400]);
    assert_eq!(a.records.len(), b.records.len());
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.actual_secs, rb.actual_secs);
        assert_eq!(
            ra.prediction.stochastic.mean(),
            rb.prediction.stochastic.mean()
        );
        assert_eq!(
            ra.prediction.stochastic.half_width(),
            rb.prediction.stochastic.half_width()
        );
    }
}

#[test]
fn platform2_experiment_is_deterministic() {
    let a = platform2_experiment(9, 1000, 4);
    let b = platform2_experiment(9, 1000, 4);
    for (ra, rb) in a.records.iter().zip(&b.records) {
        assert_eq!(ra.actual_secs, rb.actual_secs);
        assert_eq!(ra.start, rb.start);
    }
}

#[test]
fn different_seeds_differ() {
    let a = platform2_experiment(1, 1000, 3);
    let b = platform2_experiment(2, 1000, 3);
    assert!(
        a.records
            .iter()
            .zip(&b.records)
            .any(|(x, y)| x.actual_secs != y.actual_secs),
        "seeds produced identical experiments"
    );
}
