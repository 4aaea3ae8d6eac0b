//! Deterministic workspace traversal for the tidy engine: finds every
//! first-party `.rs` file under the workspace root, in sorted order, so
//! repeated runs produce byte-identical output.

use std::path::{Path, PathBuf};

/// Directory names never descended into.
const SKIP_DIRS: [&str; 4] = ["target", "vendor", ".git", "node_modules"];

/// The workspace root as seen from this crate's manifest at compile
/// time. `tidy --root` overrides it for tests and odd layouts.
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .components()
        .collect()
}

/// Collects every lintable `.rs` file under `root`, returned as sorted
/// repo-relative paths with forward slashes. Only the first-party source
/// trees are scanned (`crates/`, `tests/`, `examples/`); vendored code
/// and build output are skipped, as are the lint-test fixtures (which
/// contain findings on purpose).
pub(crate) fn workspace_files(root: &Path) -> Result<Vec<String>, String> {
    let mut files = files_under(root, &["crates", "tests", "examples"])?;
    files.retain(|f| !f.starts_with("crates/analysis/tests/fixtures/"));
    Ok(files)
}

/// The `.rs` files PP011 reads for uses but no lint ever checks: the
/// standalone benchmark package, which must build unmodified against the
/// workspace, so the names it imports count and its source is not ours to
/// change.
pub(crate) fn read_only_files(root: &Path) -> Result<Vec<String>, String> {
    files_under(root, &["benchmark/src"])
}

fn files_under(root: &Path, tops: &[&str]) -> Result<Vec<String>, String> {
    let mut files = Vec::new();
    for top in tops {
        let dir = root.join(top);
        if dir.is_dir() {
            collect(root, &dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        paths.push(entry.path());
    }
    paths.sort();
    for path in paths {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_str()) {
                collect(root, &path, out)?;
            }
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| format!("strip_prefix {}: {e}", path.display()))?;
            let rel = rel
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_this_crate_and_skips_vendor_and_fixtures() {
        let root = default_root();
        let files = workspace_files(&root).unwrap();
        assert!(files.iter().any(|f| f == "crates/analysis/src/walk.rs"));
        assert!(files.iter().all(|f| !f.starts_with("vendor/")));
        assert!(files
            .iter()
            .all(|f| !f.starts_with("crates/analysis/tests/fixtures/")));
        let mut sorted = files.clone();
        sorted.sort();
        assert_eq!(files, sorted, "walk order must be sorted");
    }

    #[test]
    fn benchmark_sources_are_read_for_uses_and_never_linted() {
        let root = default_root();
        let read = read_only_files(&root).unwrap();
        assert!(
            read.iter().any(|f| f == "benchmark/src/main.rs"),
            "{read:?}"
        );
        assert!(read.iter().all(|f| f.starts_with("benchmark/src/")));
        let linted = workspace_files(&root).unwrap();
        assert!(linted.iter().all(|f| !f.starts_with("benchmark/")));
    }
}
