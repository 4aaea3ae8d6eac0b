//! The tier-1 guarantee behind `tidy --check`: the workspace has no
//! finding at all (a PP011 allow is one), and the scan is deterministic.

use prodpred_analysis::lints::{lint_workspace, Finding};
use prodpred_analysis::walk::default_root;

fn scan_workspace() -> Vec<String> {
    lint_workspace(&default_root())
        .expect("workspace walk")
        .iter()
        .map(Finding::render)
        .collect()
}

/// Zero findings is the only baseline there is.
#[test]
fn workspace_is_clean_against_committed_baseline() {
    let findings = scan_workspace();
    assert!(
        findings.is_empty(),
        "tidy findings:\n{}",
        findings.join("\n")
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    assert_eq!(scan_workspace(), scan_workspace());
}
