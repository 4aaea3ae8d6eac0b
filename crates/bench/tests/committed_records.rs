//! The three committed `BENCH_*.json` records, read back into the structs
//! their study binaries write and held to the bounds they are committed
//! under. Regenerating a record that misses a bound fails here.

use prodpred_bench::records::{ChaosReport, FaultPredReport, Record};

/// Parses the committed copy of `R`, checks the struct accounts for every
/// byte of it, and applies the record's gate.
fn check<R: Record>() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(R::FILE);
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
    let record: R = serde_json::from_str(&text).unwrap_or_else(|e| panic!("{}: {e}", R::FILE));
    assert_eq!(
        serde_json::to_string_pretty(&record).unwrap() + "\n",
        text,
        "{} has a field its struct does not",
        R::FILE
    );
    record.gate();
}

#[test]
fn committed_chaos_record_meets_its_gate() {
    check::<ChaosReport>();
}

#[test]
fn committed_faultpred_record_meets_its_gate() {
    check::<FaultPredReport>();
}

#[test]
fn committed_servicechaos_record_meets_its_gate() {
    check::<prodpred_service::ChaosReport>();
}
