//! Every table, figure and ablation the paper reports, pinned byte for
//! byte: each binary's stdout must equal `golden/figures/<name>.txt`.
//!
//! On a mismatch the actual text is written to `target/tmp/figures/`;
//! copy it over the golden only for a deliberate change to a figure.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(name, executable)` for each figure binary cargo built for this test.
macro_rules! figure_bins {
    ($($name:ident),* $(,)?) => {
        &[$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))))),*]
    };
}

const FIGURES: &[(&str, &str)] = figure_bins!(
    table1,
    table2,
    fig01_02,
    fig03_04,
    fig05,
    fig06_07,
    fig08_09,
    fig10_11,
    fig12_13,
    fig14_15,
    fig16_17,
    dedicated_check,
    ablation_max,
    ablation_dependence,
    ablation_longtail,
    ablation_forecaster,
    ablation_horizon,
    ablation_decomposition,
    memory_boundary,
    ep_study,
    fault_study,
);

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/figures")
}

fn stdout_of(exe: &str) -> String {
    let out = Command::new(exe).output().expect("spawn figure binary");
    assert!(out.status.success(), "{exe} exited with {}", out.status);
    String::from_utf8(out.stdout).expect("figures print UTF-8")
}

#[test]
fn every_figure_matches_its_golden() {
    let mut moved = Vec::new();
    for (name, exe) in FIGURES {
        let golden = std::fs::read_to_string(golden_dir().join(format!("{name}.txt")))
            .unwrap_or_else(|e| panic!("no golden for {name}: {e}"));
        let actual = stdout_of(exe);
        if actual != golden {
            let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("figures");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(format!("{name}.txt")), &actual).unwrap();
            moved.push(*name);
        }
    }
    assert!(
        moved.is_empty(),
        "{} of {} figures moved: {moved:?}; actual text written to {}/figures/",
        moved.len(),
        FIGURES.len(),
        env!("CARGO_TARGET_TMPDIR")
    );
}

#[test]
fn every_golden_has_a_figure() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    on_disk.sort();
    let mut named: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
    named.sort_unstable();
    assert_eq!(on_disk, named);
}
