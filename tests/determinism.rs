//! Every experiment replays bit-for-bit from its seed — the property that
//! makes the figure harness reproducible.

use prodpred_core::{
    platform1_experiment, platform1_experiment_with_faults, platform2_experiment,
    platform2_experiment_supervised, platform2_experiment_with_faults, RetryPolicy,
};
use prodpred_simgrid::faults::FaultConfig;

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

/// FNV-1a over the serialised series: records, load samples, degradation
/// and recovery accounting all count, to the last digit.
fn digest(series: &impl serde::Serialize) -> String {
    let json = serde_json::to_string(series).unwrap();
    let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{}:{fnv:016x}", json.len())
}

/// The five preset experiments for four seeds (the supervised one twice),
/// pinned as `length:digest` of their serialised form, taken while the healthy / faulted and the supervised
/// series still had a runner each. `horizon_oracle` compares two
/// compositions of one runner, so it cannot see a mistake both share;
/// this can.
#[test]
fn preset_experiments_are_pinned_by_digest() {
    const GOLDEN: [&str; 4] = [
        "6058:09a289a328eaad42 13188:0e74bc00a1746021 8273:55a392297821e80a 15185:e617ffe854bbcb32 15353:62983831bed7cf77 11675:51f03a9678dfef0f",
        "6024:6e5dae9c06b6a654 13713:208833e0eec27886 8274:9741e9a4302b4136 15106:f69e1783c1a8371f 15274:ac2dad7eb9f6497a 12184:77acaae3f0ff02cd",
        "6067:277d712dd31eae3b 12986:44c061edfcc6839d 8220:d76704a3b072faf4 14321:c5bdb85483219a4f 14489:c8eca738640365aa 11639:b603548dee96dc10",
        "6019:9d462a2429ec0d96 13482:970da5bfae3c6504 8196:fa3f15c6cda6739d 14453:f5543eb61ca73652 14621:cbf91ee4a79cb0d7 11812:5ebad972b7e61f61",
    ];
    let sizes = [1000, 1600, 2000];
    let actual = [3u64, 17, 42, 0x9E37_79B9].map(|seed| {
        let faults = FaultConfig::with_intensity(seed, 0.8);
        // Supervised: the warm-up is blacked out too and the backoffs are
        // short, so runs are abandoned, a breaker trips, later diagnostic
        // queries are short-circuited and one run recovers by retry.
        let mut blind = faults.clone();
        blind.blackouts.push((0.0, 400.0));
        let retry = RetryPolicy {
            base_backoff_secs: 10.0,
            jitter_fraction: 0.25,
            seed,
            ..RetryPolicy::default()
        };
        let supervised = platform2_experiment_supervised(seed, 1600, 10, &blind, retry);
        let r = supervised.recovery;
        assert!(
            r.abandoned > 0 && r.breaker_trips > 0 && r.breaker_short_circuits > 0,
            "seed {seed}: {r:?}"
        );
        [
            digest(&platform1_experiment(seed, &sizes)),
            digest(&platform2_experiment(seed, 1600, 10)),
            digest(&platform1_experiment_with_faults(seed, &sizes, &faults)),
            digest(&platform2_experiment_with_faults(seed, 1600, 10, &faults)),
            digest(&platform2_experiment_supervised(
                seed, 1600, 10, &faults, retry,
            )),
            digest(&supervised),
        ]
        .join(" ")
    });
    assert_eq!(actual, GOLDEN);
}
