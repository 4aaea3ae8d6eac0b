//! Every table, figure and ablation the paper reports, pinned byte for
//! byte: `figures <name>` must print `golden/figures/<name>.txt`, for
//! every name `figures --list` knows.
//!
//! On a mismatch the actual text is written to `target/tmp/figures/`;
//! copy it over the golden only for a deliberate change to a figure.

use std::path::{Path, PathBuf};
use std::process::Command;

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures")
}

fn figures(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("spawn figures");
    assert!(out.status.success(), "figures {args:?}: {}", out.status);
    String::from_utf8(out.stdout).expect("figures print UTF-8")
}

/// The registry's names, in registry order.
fn listed() -> Vec<String> {
    figures(&["--list"])
        .lines()
        .map(|line| line.split_whitespace().next().unwrap().to_string())
        .collect()
}

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_dir().join(format!("{name}.txt")))
        .unwrap_or_else(|e| panic!("no golden for {name}: {e}"))
}

#[test]
fn every_figure_matches_its_golden() {
    let names = listed();
    let mut moved = Vec::new();
    for name in &names {
        let actual = figures(&[name]);
        if actual != golden(name) {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(format!("{name}.txt")), &actual).unwrap();
            moved.push(name);
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} figures moved: {moved:?}; actual text written to {}/figures/",
        moved.len(),
        names.len(),
        env!("CARGO_TARGET_TMPDIR")
    );
}

#[test]
fn all_prints_the_concatenation() {
    let expected: String = listed().iter().map(|name| golden(name)).collect();
    assert!(figures(&["all"]) == expected, "`figures all` moved");
}

#[test]
fn every_golden_has_a_figure() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut named = listed();
    named.sort();
    assert_eq!(on_disk, named);
}
