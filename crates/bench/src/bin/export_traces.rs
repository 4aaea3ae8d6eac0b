//! Exports experiment artifacts as JSON for archival or external
//! plotting: the two platforms' load/bandwidth traces and a full
//! Platform-2 experiment series.
//!
//! Usage: `cargo run -p prodpred-bench --bin export_traces [out_dir]`
//! (default `./artifacts`).

use prodpred_core::platform2_experiment;
use prodpred_simgrid::Platform;
use std::fs;
use std::path::PathBuf;

fn json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string_pretty(value).expect("platforms and series serialize")
}

fn main() -> std::io::Result<()> {
    let out: PathBuf = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "artifacts".to_string())
        .into();
    fs::create_dir_all(&out)?;

    let files = [
        ("platform1.json", json(&Platform::platform1(42, 3600.0))),
        ("platform2.json", json(&Platform::platform2(42, 3600.0))),
        (
            "platform2_1600_series.json",
            json(&platform2_experiment(1600, 1600, 10)),
        ),
    ];
    println!("wrote:");
    for (name, text) in files {
        let path = out.join(name);
        fs::write(&path, &text)?;
        println!("  {} ({} KiB)", path.display(), text.len() / 1024);
    }
    println!(
        "\nEach file reloads losslessly (see tests/serialization.rs) so\n\
         experiments can be archived, diffed, and replotted elsewhere."
    );
    Ok(())
}
