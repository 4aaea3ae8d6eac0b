//! Golden-diagnostic tests: every `PPnnn` code has a fixture under
//! `tests/fixtures/` whose rendered findings must match the committed
//! `.expected` file byte for byte. Regenerate with
//! `UPDATE_FIXTURES=1 cargo test -p prodpred-analysis --test fixtures`
//! and review the diff.

use prodpred_analysis::lints::lint_workspace;
use std::path::Path;
use std::process::Command;

fn fixture_dir() -> String {
    format!("{}/tests/fixtures", env!("CARGO_MANIFEST_DIR"))
}

/// The findings in one per-file fixture. The per-file fixtures are one
/// library crate, `crates/fixture` under `tests/fixtures/`, so path
/// scoping (test dirs, bins, the bench crate) does not mask the lint
/// under test. PP011 is left out: no other crate names a fixture's
/// items, and PP011 has its own workspace fixture below.
fn render_fixture(name: &str) -> String {
    let rel = format!("crates/fixture/src/{name}.rs");
    lint_workspace(Path::new(&fixture_dir()))
        .expect("fixture workspace")
        .iter()
        .filter(|f| f.file == rel && f.code != "PP011")
        .map(|f| f.render() + "\n")
        .collect()
}

fn check(name: &str) {
    check_rendered(name, &render_fixture(name));
}

fn check_rendered(name: &str, rendered: &str) {
    let expected_path = format!("{}/{name}.expected", fixture_dir());
    if std::env::var_os("UPDATE_FIXTURES").is_some() {
        std::fs::write(&expected_path, rendered).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&expected_path).expect("golden exists");
    assert_eq!(rendered, expected, "golden mismatch for fixture {name}");
}

#[test]
fn pp000_unjustified_allow_is_a_finding() {
    check("pp000");
}

#[test]
fn pp001_nondeterminism_sources() {
    check("pp001");
}

#[test]
fn pp002_hash_iteration() {
    check("pp002");
}

#[test]
fn pp003_unchecked_panics() {
    check("pp003");
}

#[test]
fn pp004_float_hygiene() {
    check("pp004");
}

#[test]
fn pp005_raw_locks() {
    check("pp005");
}

#[test]
fn pp006_errors_docs() {
    check("pp006");
}

#[test]
fn pp010_unfenced_atomics() {
    check("pp010");
}

/// PP011 is cross-crate, so its fixture is a small workspace: two library
/// crates, a bin, an integration test, an example and a read-only
/// benchmark package, each naming some of `alpha`'s items.
#[test]
fn pp011_public_items_no_other_crate_names() {
    let root = Path::new(&fixture_dir()).join("pp011");
    let rendered: String = lint_workspace(&root)
        .expect("fixture workspace")
        .iter()
        .map(|f| f.render() + "\n")
        .collect();
    check_rendered("pp011", &rendered);
}

#[test]
fn every_fixture_has_at_least_one_finding() {
    for name in [
        "pp000", "pp001", "pp002", "pp003", "pp004", "pp005", "pp006", "pp010",
    ] {
        assert!(
            !render_fixture(name).is_empty(),
            "fixture {name} produced no findings at all"
        );
    }
}

#[test]
fn diagnostics_are_deterministic() {
    for name in [
        "pp000", "pp001", "pp002", "pp003", "pp004", "pp005", "pp006", "pp010",
    ] {
        assert_eq!(
            render_fixture(name),
            render_fixture(name),
            "non-deterministic output for {name}"
        );
    }
}

/// Runs the `tidy` binary over `root`.
fn tidy(root: &Path, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tidy"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("tidy runs");
    (
        out.status.code(),
        String::from_utf8(out.stdout).expect("utf-8"),
    )
}

#[test]
fn a_fixture_finding_fails_the_gate() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tidy_gate");
    let src = root.join("crates/fixture/src");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&src).expect("scratch root");
    // Nothing to find: the gate passes, with or without its CI name.
    assert_eq!(tidy(&root, &[]).0, Some(0));
    assert_eq!(tidy(&root, &["--check"]).0, Some(0));
    // One fixture in the tree: every finding is listed and the run fails.
    let fixture = format!("{}/crates/fixture/src/pp003.rs", fixture_dir());
    std::fs::copy(fixture, src.join("pp003.rs")).expect("copy");
    let expected = render_fixture("pp003");
    for args in [&[][..], &["--check"]] {
        let (code, stdout) = tidy(&root, args);
        assert_eq!(code, Some(1), "tidy {args:?}");
        for line in expected.lines() {
            assert!(stdout.contains(line), "tidy {args:?} lost `{line}`");
        }
    }
    let (code, json) = tidy(&root, &["--json"]);
    assert_eq!(code, Some(1));
    assert!(json.contains("\"clean\": false") && !json.contains("ratchet"));
}

#[test]
fn help_is_not_an_error() {
    let (code, stdout) = tidy(Path::new("."), &["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.starts_with("usage: tidy"), "{stdout}");
}
