//! The tier-1 guarantee behind `tidy --check`: the workspace has no
//! finding at all, the scan is deterministic, and the PP011 allows only
//! ever become fewer.

use prodpred_analysis::lints::{lint_workspace, Finding};
use prodpred_analysis::walk::default_root;
use std::path::PathBuf;

/// The PP011 allow lines in first-party code. Each keeps a library
/// item `pub` that an integration test names, and says which product code
/// it is an oracle for. Lower this when one goes; never raise it.
const PP011_ALLOWS: usize = 22;

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

/// Counts PP011 allow lines under `crates/`, `tests/` and `examples/`,
/// skipping build output and the lint fixtures (which allow on purpose).
#[test]
fn pp011_allows_only_go_down() {
    let needle = concat!("tidy:allow", "(PP011)");
    let root = default_root();
    let mut dirs: Vec<PathBuf> = ["crates", "tests", "examples"]
        .iter()
        .map(|d| root.join(d))
        .collect();
    let mut count = 0;
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).expect("read_dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                if !path.ends_with("target") && !path.ends_with("tests/fixtures") {
                    dirs.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).expect("read source");
                count += src.lines().filter(|l| l.contains(needle)).count();
            }
        }
    }
    assert!(
        count <= PP011_ALLOWS,
        "{count} PP011 allows, more than the {PP011_ALLOWS} pinned: rewrite the new \
         test onto the public API, or move it into its crate"
    );
}
