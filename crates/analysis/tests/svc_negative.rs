//! Negative control for the serving-path checker: the deliberately
//! seeded model bug must be *found*, with the expected violation code
//! and a minimal counterexample trace of pinned length.
//!
//! The pinned length is part of the contract: BFS minimality is what
//! keeps the trace human-readable, and a silent model change that
//! lengthens (or shortens) the shortest refutation shows up here before
//! it shows up in a review.

use prodpred_analysis::svc::{self, SvcConfig, Variant};

fn refute(config: SvcConfig, expected_kinds: &[&str], expected_len: usize) {
    let report = svc::check(config);
    assert!(
        !report.holds(),
        "{:?} must be refuted by the exhaustive exploration",
        config.variant
    );
    let v = svc::minimal_counterexample(config)
        .unwrap_or_else(|| panic!("{:?}: BFS found no violation", config.variant));
    assert!(
        expected_kinds.iter().any(|p| v.kind.starts_with(p)),
        "{:?}: expected one of {expected_kinds:?}, got `{}`",
        config.variant,
        v.kind
    );
    assert_eq!(
        v.trace.len(),
        expected_len,
        "{:?}: minimal trace length drifted; trace:\n{}",
        config.variant,
        v.trace.join("\n")
    );
}

#[test]
fn dropping_the_shard_epoch_check_reintroduces_the_toctou() {
    refute(
        SvcConfig::new(2, 2, 2).with_variant(Variant::NoShardEpochCheck),
        &["cross-epoch-hit", "stale-entry"],
        9,
    );
}

#[test]
fn the_correct_variant_has_no_counterexample_at_the_same_bounds() {
    for config in [
        SvcConfig::new(2, 2, 2),
        SvcConfig::new(2, 1, 1).with_admission(1),
        SvcConfig::new(1, 1, 2),
    ] {
        assert!(svc::check(config).holds(), "{config:?}");
        assert!(
            svc::minimal_counterexample(config).is_none(),
            "{config:?}: BFS found a violation the DFS missed"
        );
    }
}
