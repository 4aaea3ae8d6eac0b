//! `modelcheck` — exhaustive exploration of the checkpoint/resume
//! recovery protocol (`prodpred_analysis::ckpt`). The ghost exchange and
//! the serving path are explored on their real types by test-only
//! explorers (`cargo test -p prodpred-sor --lib explore`, `cargo test -p
//! prodpred-service --lib explore`).
//!
//! ```text
//! modelcheck                         the suite at 2 ranks x 2 iterations
//! modelcheck --ranks 3 --halves 4    bigger configuration
//! modelcheck --expect-states N       fail unless the suite explored exactly N states
//! ```
//!
//! The suite runs every single-kill position against the segment grid, a
//! consumed-kill-behind-the-checkpoint schedule, disabled checkpointing,
//! and budget exhaustion — proving rollback convergence and that a
//! consumed death never re-fires. `--halves` sets the iterations of the
//! solve.
//!
//! Exit code 0 means every property held over the full state space; the
//! explored-state counts are printed per configuration. `--expect-states`
//! turns silent model drift into a CI failure: the state count of a
//! deterministic exploration changes only when the model changes.

use prodpred_analysis::ckpt::{check_ckpt, CkptConfig, CkptReport, MAX_KILLS};
use prodpred_simgrid::faults::WorkerDeath;
use std::process::ExitCode;

struct Options {
    ranks: usize,
    halves: usize,
    expect_states: Option<u64>,
}

const USAGE: &str = "usage: modelcheck [--ranks N] [--halves M] [--expect-states N]";

/// `Ok(None)` is a request for the usage text.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        ranks: 2,
        halves: 2,
        expect_states: None,
    };
    let mut args = std::env::args().skip(1);
    // The integer that follows `flag`.
    fn int<T: std::str::FromStr>(
        args: &mut impl Iterator<Item = String>,
        flag: &str,
    ) -> Result<T, String> {
        args.next()
            .and_then(|v| v.parse().ok())
            .ok_or(format!("{flag} needs an integer"))
    }
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ranks" => opts.ranks = int(&mut args, "--ranks")?,
            "--halves" => opts.halves = int(&mut args, "--halves")?,
            "--expect-states" => opts.expect_states = Some(int(&mut args, "--expect-states")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn describe_ckpt(report: &CkptReport) -> String {
    let c = report.config;
    let kills: Vec<String> = c
        .kills
        .iter()
        .flatten()
        .map(|d| format!("{}:{}", d.rank, d.at_half_iteration))
        .collect();
    let kills = if kills.is_empty() {
        "healthy".to_string()
    } else {
        format!("kills [{}]", kills.join(", "))
    };
    format!(
        "ckpt {} ranks x {} iterations every {}, {kills}, retries {}: {} states, {} transitions, {} terminals ({} completed, {} abandoned, expect {:?}/{} fired), depth {}",
        c.ranks,
        c.iterations,
        c.every,
        c.max_retries,
        report.stats.states,
        report.stats.transitions,
        report.stats.terminals,
        report.completed_terminals,
        report.abandoned_terminals,
        report.expected,
        report.expected_fired,
        report.stats.max_depth
    )
}

/// Runs one configuration and prints its verdict — and, when a property
/// failed, the violation with its trace — counting the failure.
fn run_one_ckpt(config: CkptConfig, failures: &mut u32) -> CkptReport {
    let report = check_ckpt(config);
    let description = describe_ckpt(&report);
    if report.holds() {
        println!("ok    {description}");
        return report;
    }
    *failures += 1;
    println!("FAIL  {description}");
    if let Some(v) = &report.stats.violation {
        println!("      violation: {}", v.kind);
        for (i, step) in v.trace.iter().enumerate() {
            println!("      {i:>3}. {step}");
        }
    }
    report
}

/// The checkpoint/resume recovery suite: every single-kill position on
/// a segmented run, the consumed-kill translation, disabled
/// checkpointing, and budget exhaustion. `ranks` and `iterations` are
/// clamped to the ckpt model's fixed-size bounds.
fn ckpt_suite(ranks: usize, iterations: usize, failures: &mut u32) -> u64 {
    use prodpred_analysis::ckpt::{MAX_ITERATIONS, MAX_RANKS};
    let ranks = ranks.clamp(2, MAX_RANKS);
    let iterations = iterations.clamp(2, MAX_ITERATIONS);
    let every = (iterations / 2).max(1);
    let base = CkptConfig {
        ranks,
        iterations,
        every,
        kills: [None; MAX_KILLS],
        max_retries: 3,
    };
    let mut total_states = 0u64;
    // Healthy segmented run.
    total_states += run_one_ckpt(base, failures).stats.states;
    // Every single-kill position: each must recover and converge.
    for rank in 0..ranks {
        for half in 0..2 * iterations {
            let mut config = base;
            config.kills[0] = Some(WorkerDeath {
                rank,
                at_half_iteration: half,
            });
            total_states += run_one_ckpt(config, failures).stats.states;
        }
    }
    // A kill consumed behind the checkpoint: fire late, schedule the
    // next attempt's kill before the resume point — it must never fire.
    let mut consumed = base;
    consumed.kills[0] = Some(WorkerDeath {
        rank: 0,
        at_half_iteration: 2 * (iterations - 1),
    });
    consumed.kills[1] = Some(WorkerDeath {
        rank: ranks - 1,
        at_half_iteration: 0,
    });
    total_states += run_one_ckpt(consumed, failures).stats.states;
    // Checkpointing disabled: recovery recomputes from iteration 0.
    let mut disabled = base;
    disabled.every = 0;
    disabled.kills[0] = Some(WorkerDeath {
        rank: 0,
        at_half_iteration: 2 * iterations - 1,
    });
    total_states += run_one_ckpt(disabled, failures).stats.states;
    // Budget exhaustion: more firing kills than retries.
    let mut exhausted = base;
    exhausted.max_retries = 1;
    exhausted.kills[0] = Some(WorkerDeath {
        rank: 0,
        at_half_iteration: 1,
    });
    exhausted.kills[1] = Some(WorkerDeath {
        rank: ranks - 1,
        at_half_iteration: 2,
    });
    total_states += run_one_ckpt(exhausted, failures).stats.states;
    total_states
}

/// Applies the `--expect-states` drift gate to a finished suite.
fn gate_states(expect: Option<u64>, total: u64, failures: &mut u32) {
    if let Some(expected) = expect {
        if total != expected {
            *failures += 1;
            println!(
                "FAIL  state-count drift: explored {total} states, expected exactly {expected} — the model changed"
            );
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("modelcheck: {msg}");
            return ExitCode::from(2);
        }
    };
    let mut failures = 0u32;
    let total_states = ckpt_suite(opts.ranks, opts.halves, &mut failures);
    gate_states(opts.expect_states, total_states, &mut failures);
    println!(
        "modelcheck: {total_states} states explored across the ckpt suite; {failures} failure(s)"
    );
    if failures == 0 {
        println!("modelcheck: checkpoint/resume convergence and consumed-death properties hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
