//! The repository's benchmark: six named workloads, end-to-end and
//! per-layer metrics, a traced layer profile. See `benchmark/README.md`.
//!
//! `--workload <name>` runs one workload in this process and ends with the
//! result line the driver reads. Without it, every workload runs in a fresh
//! child process each (so set-up time and peak memory are per workload) and
//! every metric is printed by name; `--repeat <k>` does that for `k` seeds
//! and summarises the spread.

mod alloc;
mod calib;
mod common;
mod gen;
mod handle;
mod ingest;
mod load;
mod metrics;
mod offline;
mod shadow;
mod socket;
mod sor;
mod stats;
mod trace;

use common::Args;
use metrics::{Outcome, Raw, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: prodpred-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--repeat <k>]";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        repeat: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name}; have {}",
                        WORKLOADS.join(", ")
                    ));
                }
                cli.workload = Some(name);
            }
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds >= 1.0 && cli.seconds <= 60.0) {
                    return Err("--seconds must lie in 1..=60".into());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// First line of a command's output, or `unknown`.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The environment every output is stamped with.
fn stamp(args: &Args) {
    println!(
        "env: nproc={} clients={} rustc=\"{}\" commit={} PRODPRED_THREADS={} seed={} seconds={} trace={}",
        nproc(),
        args.clients,
        first_line("rustc", &["--version"]),
        first_line("git", &["rev-parse", "--short", "HEAD"]),
        std::env::var("PRODPRED_THREADS").unwrap_or_else(|_| "unset".to_string()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
}

fn run_workload(args: &Args) -> ExitCode {
    println!("workload {}", args.workload);
    stamp(args);
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "socket_replay" => socket::run(args, &mut out),
        "handle_hot" => handle::run_hot(args, &mut out),
        "handle_cold" => handle::run_cold(args, &mut out),
        "ingest_churn" => ingest::run(args, &mut out),
        "offline_sweep" => offline::run(args, &mut out),
        "sor_solve" => sor::run(args, &mut out),
        other => unreachable!("parse_cli admits only known workloads, got {other}"),
    }
    println!(
        "result: attempted={} failed={} fail_share={:.6} correct={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64,
        out.correct()
    );
    println!("{}", out.result_line(args.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process, echoes its output, and returns the
/// metrics of its result line, or `None` if it failed.
fn run_child(cli: &Cli, workload: &str, seed: u64) -> Option<Vec<(String, f64)>> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .output()
        .expect("the benchmark can start itself");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let result = lines.pop().unwrap_or("");
    for line in lines {
        println!("  {line}");
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    let Raw(doc) = serde_json::from_str(result).ok()?;
    let correct = doc.field("correct").ok()? == &serde::Value::Bool(true);
    let serde::Value::Map(entries) = doc.field("metrics").ok()? else {
        return None;
    };
    let metrics = entries
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.field("value").ok()?.as_f64().ok()?)))
        .collect();
    (correct && output.status.success()).then_some(metrics)
}

fn unit_and_bound(name: &str) -> (&'static str, Option<f64>) {
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) => (m.unit, Some(m.bound)),
        None => (metrics::unit_of(name).unwrap_or(""), None),
    }
}

/// Every workload, each in a fresh child, `cli.repeat` times over
/// successive seeds; then every metric by name, and with more than one set
/// its spread against its bound.
fn run_all(cli: &Cli) -> ExitCode {
    let clients = nproc().min(4);
    stamp(&Args {
        workload: "all".into(),
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        clients,
    });
    let mut ok = true;
    // values[workload][metric] over the sets.
    let mut values: Vec<Vec<(String, Vec<f64>)>> = vec![Vec::new(); WORKLOADS.len()];
    for set in 0..cli.repeat {
        let seed = cli.seed + set as u64;
        for (w, workload) in WORKLOADS.iter().enumerate() {
            println!(
                "== set {} of {}, seed {seed}: {workload}",
                set + 1,
                cli.repeat
            );
            let Some(metrics) = run_child(cli, workload, seed) else {
                println!("== {workload} FAILED");
                ok = false;
                continue;
            };
            for (name, value) in metrics {
                match values[w].iter_mut().find(|(n, _)| *n == name) {
                    Some((_, seen)) => seen.push(value),
                    None => values[w].push((name, vec![value])),
                }
            }
        }
    }
    println!(
        "== metrics ({} set{})",
        cli.repeat,
        if cli.repeat == 1 { "" } else { "s" }
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (name, seen) in &values[w] {
            let (unit, bound) = unit_and_bound(name);
            let (min, max) = seen
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let mut sorted = seen.clone();
            let mid = stats::median(&mut sorted);
            print!("{workload:<14} {name:<38} {mid:>16.4} {unit:<8}");
            if seen.len() > 1 {
                print!(" min {min:.4} max {max:.4}");
                if let Some(spread) = stats::spread(seen) {
                    print!(" spread {:.2} %", spread * 100.0);
                    if let Some(bound) = bound.filter(|_| name != "setup_s") {
                        let verdict = if spread <= bound / 3.0 {
                            "steady"
                        } else if spread <= bound {
                            "within bound, above a third of it"
                        } else {
                            ok = false;
                            "ABOVE BOUND"
                        };
                        print!(" (bound {:.0} %: {verdict})", bound * 100.0);
                    }
                }
            }
            println!();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &cli.workload {
        Some(workload) => run_workload(&Args {
            workload: workload.clone(),
            seed: cli.seed,
            seconds: cli.seconds,
            trace: cli.trace,
            clients: nproc().min(4),
        }),
        None => run_all(&cli),
    }
}
