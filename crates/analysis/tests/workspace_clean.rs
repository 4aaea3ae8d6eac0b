//! The tier-1 guarantee behind `tidy --check`: the workspace has no
//! finding at all, and the scan is deterministic.

use prodpred_analysis::lints::{lint_source, Finding};
use prodpred_analysis::walk::{default_root, workspace_files};

fn scan_workspace() -> Vec<Finding> {
    let root = default_root();
    let files = workspace_files(&root).expect("workspace walk");
    let mut findings = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel)).expect("readable source");
        findings.extend(lint_source(rel, &src));
    }
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.code).cmp(&(&b.file, b.line, b.col, b.code)));
    findings
}

/// Zero findings is the only baseline there is.
#[test]
fn workspace_is_clean_against_committed_baseline() {
    let findings: Vec<String> = scan_workspace().iter().map(Finding::render).collect();
    assert!(
        findings.is_empty(),
        "tidy findings:\n{}",
        findings.join("\n")
    );
}

#[test]
fn workspace_scan_is_deterministic() {
    let a: Vec<String> = scan_workspace().iter().map(Finding::render).collect();
    let b: Vec<String> = scan_workspace().iter().map(Finding::render).collect();
    assert_eq!(a, b);
}
