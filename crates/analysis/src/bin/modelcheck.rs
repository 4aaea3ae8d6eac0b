//! `modelcheck` — exhaustive exploration of the SOR ghost-exchange
//! protocol (see `prodpred_analysis::model`) and the checkpoint/resume
//! recovery protocol (`prodpred_analysis::ckpt`). The serving path is
//! explored on its real types by `prodpred-service`'s tests
//! (`cargo test -p prodpred-service --lib explore`).
//!
//! ```text
//! modelcheck                         full suite at 2 ranks x 2 half-iterations
//! modelcheck --ranks 3 --halves 4    bigger configuration
//! modelcheck --layout 2x2            exchange suite on a 2 x 2 grid of blocks
//! modelcheck --ckpt                  checkpoint/resume recovery suite only
//! modelcheck --expect-states N       fail unless the suite explored exactly N states
//! ```
//!
//! `--ranks P` is the chain of `P` strips (the `P x 1` layout); `--layout
//! RxC` any processor grid of up to four workers. The default suite runs,
//! for the chosen configuration:
//!
//! 1. the healthy patient protocol (proves deadlock freedom + delivery),
//! 2. the healthy protocol with `ExchangePolicy` timeout transitions,
//! 3. every kill schedule `rank x half` (proves the typed `WorkerDied`
//!    path is reached in **every** interleaving of every schedule),
//! 4. every kill schedule with timeouts enabled as well,
//! 5. the checkpoint/resume recovery suite (`prodpred_analysis::ckpt`):
//!    every single-kill position against the segment grid, a
//!    consumed-kill-behind-the-checkpoint schedule, disabled
//!    checkpointing, and budget exhaustion — proving rollback
//!    convergence and that a consumed death never re-fires. That model
//!    abstracts a solve segment to a barrier, so it has no topology and
//!    runs with the chain suites only, not under `--layout`.
//!
//! Exit code 0 means every property held over the full state space; the
//! explored-state counts are printed per configuration. `--expect-states`
//! turns silent model drift into a CI failure: the state count of a
//! deterministic exploration changes only when the model changes.

use prodpred_analysis::ckpt::{check_ckpt, CkptConfig, CkptReport, MAX_KILLS};
use prodpred_analysis::mc::ExploreStats;
use prodpred_analysis::model::{check, ModelConfig, Report};
use prodpred_simgrid::faults::WorkerDeath;
use prodpred_sor::BlockLayout;
use std::process::ExitCode;

struct Options {
    ranks: usize,
    /// `--layout RxC`: a processor grid instead of the `ranks`-long chain.
    grid: Option<BlockLayout>,
    halves: usize,
    ckpt_only: bool,
    expect_states: Option<u64>,
}

const USAGE: &str =
    "usage: modelcheck [--ranks N | --layout RxC] [--halves M] [--ckpt] [--expect-states N]";

/// `Ok(None)` is a request for the usage text.
fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        ranks: 2,
        grid: None,
        halves: 2,
        ckpt_only: false,
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
            "--layout" => {
                let spec = args.next().ok_or("--layout needs ROWSxCOLS")?;
                let dims = spec
                    .split_once('x')
                    .and_then(|(r, c)| Some((r.parse().ok()?, c.parse().ok()?)))
                    .filter(|&(r, c): &(usize, usize)| r > 0 && c > 0)
                    .ok_or("--layout needs ROWSxCOLS, both positive")?;
                opts.grid = Some(BlockLayout::new(dims.0, dims.1));
            }
            "--halves" => opts.halves = int(&mut args, "--halves")?,
            "--ckpt" => opts.ckpt_only = true,
            "--expect-states" => opts.expect_states = Some(int(&mut args, "--expect-states")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(Some(opts))
}

fn describe(report: &Report) -> String {
    let c = report.config;
    let fault = match c.kill {
        Some(d) => format!("kill {}:{}", d.rank, d.at_half_iteration),
        None => "healthy".to_string(),
    };
    let mode = if c.timeouts { "timeouts" } else { "patient" };
    let topology = match c.layout {
        BlockLayout { pr, pc: 1 } => format!("{pr} ranks"),
        BlockLayout { pr, pc } => format!("{pr}x{pc} blocks"),
    };
    format!(
        "{} x {} half-iterations, {fault}, {mode}: {} states, {} transitions, {} terminals ({} all-done, {} observed-death), depth {}",
        topology,
        c.halves,
        report.stats.states,
        report.stats.transitions,
        report.stats.terminals,
        report.all_done_terminals,
        report.lost_observed_terminals,
        report.stats.max_depth
    )
}

/// Prints one exploration's verdict — and, when a property failed, the
/// violation with its trace — and counts the failure.
fn report_one(holds: bool, description: String, stats: &ExploreStats, failures: &mut u32) {
    if holds {
        println!("ok    {description}");
        return;
    }
    *failures += 1;
    println!("FAIL  {description}");
    if let Some(v) = &stats.violation {
        println!("      violation: {}", v.kind);
        for (i, step) in v.trace.iter().enumerate() {
            println!("      {i:>3}. {step}");
        }
    }
}

fn run_one(config: ModelConfig, failures: &mut u32) -> Report {
    let report = check(config);
    report_one(report.holds(), describe(&report), &report.stats, failures);
    report
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

fn run_one_ckpt(config: CkptConfig, failures: &mut u32) -> CkptReport {
    let report = check_ckpt(config);
    report_one(
        report.holds(),
        describe_ckpt(&report),
        &report.stats,
        failures,
    );
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
    let layout = opts.grid.unwrap_or_else(|| BlockLayout::new(opts.ranks, 1));
    let base = ModelConfig {
        layout,
        halves: opts.halves,
        kill: None,
        timeouts: false,
    };
    let mut failures = 0u32;
    let mut total_states = 0u64;

    // What ran, and what it proves when nothing failed.
    let (mut suite, mut proved) = (
        "the suite",
        if opts.grid.is_none() {
            "deadlock-freedom, delivery, typed-death, and checkpoint/resume"
        } else {
            "deadlock-freedom, delivery, and typed-death"
        },
    );
    if opts.ckpt_only {
        total_states += ckpt_suite(opts.ranks, opts.halves, &mut failures);
        suite = "the ckpt suite";
        proved = "checkpoint/resume convergence and consumed-death";
    } else {
        // The full suite.
        total_states += run_one(base, &mut failures).stats.states;
        total_states += run_one(
            ModelConfig {
                timeouts: true,
                ..base
            },
            &mut failures,
        )
        .stats
        .states;
        for timeouts in [false, true] {
            for rank in 0..layout.len() {
                for half in 0..opts.halves {
                    let report = run_one(
                        ModelConfig {
                            kill: Some(WorkerDeath {
                                rank,
                                at_half_iteration: half,
                            }),
                            timeouts,
                            ..base
                        },
                        &mut failures,
                    );
                    total_states += report.stats.states;
                    // Only patient runs guarantee the kill fires in every
                    // schedule; with timeouts the run may collapse first.
                    if !timeouts
                        && report.stats.terminals != report.lost_observed_terminals
                        && report.holds()
                    {
                        failures += 1;
                        println!(
                            "FAIL  kill {rank}:{half}: {} of {} terminal schedules missed the typed WorkerDied path",
                            report.stats.terminals - report.lost_observed_terminals,
                            report.stats.terminals
                        );
                    }
                }
            }
        }
        // The recovery layer above the solves: checkpoint barriers,
        // rollback, and the absolute kill addressing.
        if opts.grid.is_none() {
            total_states += ckpt_suite(opts.ranks, opts.halves, &mut failures);
        }
    }

    gate_states(opts.expect_states, total_states, &mut failures);
    println!("modelcheck: {total_states} states explored across {suite}; {failures} failure(s)");
    if failures == 0 {
        println!("modelcheck: {proved} properties hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
