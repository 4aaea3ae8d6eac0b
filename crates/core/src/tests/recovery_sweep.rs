//! Checkpoint/resume on the real solver: every configuration of a small
//! space run through [`solve_supervised`] and held to a straight-line
//! oracle. DESIGN.md §8 has the argument.
//!
//! Inside one segment, the workers' interleavings are proven on the real
//! mailboxes by `prodpred-sor`'s explorer: no deadlock, and a typed death
//! in every schedule. Between segments the driver is sequential:
//! `run_segments` records a checkpoint, `kill_in_segment` readdresses the
//! kill, and the supervisor retries from the latest snapshot. So each
//! configuration has one path there, and running every configuration is
//! exhaustive.
//!
//! Each solve is held to four things: its outcome, failed attempts equal
//! to the kills that fired, `resumed_iterations_saved`, and the final
//! grid's bits. A completed solve must hold `solve_seq` to the full
//! count; an abandoned one must hold `solve_seq` to its last checkpoint,
//! the error contract of `prodpred_sor::checkpoint`.

use super::{solve_supervised, RetryPolicy};
use prodpred_simgrid::faults::{FaultSchedule, WorkerDeath};
use prodpred_sor::{
    partition_equal, solve_seq, BlockLayout, CheckpointPolicy, Decomposition, ExchangePolicy, Grid,
    SolveError, SorParams,
};

/// Grid dimension: eight interior rows, room for four strips.
const N: usize = 10;
/// Iterations the whole space runs up to.
const MAX_ITERATIONS: usize = 8;
/// Retry budgets: one that the exhausting schedule spends, one it does not.
const BUDGETS: [u32; 2] = [1, 3];

/// How a supervised solve ended, in the terms the oracle predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Verdict {
    /// The rank whose death abandoned the solve; `None` if it completed.
    pub(crate) abandoned_by: Option<usize>,
    /// Kills that fired, i.e. failed attempts.
    pub(crate) fired: u64,
    pub(crate) resumed_iterations_saved: u64,
    /// The iteration count at which `solve_seq` gives the final grid's
    /// bits, if any does.
    pub(crate) grid_at: Option<usize>,
}

/// One point of the space.
#[derive(Debug)]
pub(crate) struct Case {
    pub(crate) ranks: usize,
    pub(crate) iterations: usize,
    pub(crate) every: usize,
    /// Attempt `k` faces `kills[k]`; attempts past the end run clean.
    pub(crate) kills: Vec<WorkerDeath>,
    pub(crate) max_retries: u32,
}

/// The expected verdict, replaying the schedule with no concurrency.
/// Each retry resumes at the latest checkpoint, so a kill addressed
/// before it was consumed and never fires again; `consumed_refires`
/// forgets that, as a seeded control.
fn straight_line(case: &Case, consumed_refires: bool) -> Verdict {
    let mut resume = 0;
    let mut checkpoint = 0;
    let mut saved = 0;
    let mut fired = 0;
    for kill in &case.kills {
        let half = kill.at_half_iteration;
        let fires = kill.rank < case.ranks
            && half < 2 * case.iterations
            && (consumed_refires || half >= 2 * resume);
        if !fires {
            break;
        }
        fired += 1;
        // `run_segments` snapshots every multiple of the cadence short
        // of the end, and the kill's iteration is short of it.
        if let Some(segments) = (half / 2).checked_div(case.every) {
            checkpoint = checkpoint.max(segments * case.every);
        }
        if fired > u64::from(case.max_retries) {
            return Verdict {
                abandoned_by: Some(kill.rank),
                fired,
                resumed_iterations_saved: saved,
                grid_at: Some(checkpoint),
            };
        }
        saved += checkpoint as u64;
        resume = checkpoint;
    }
    Verdict {
        abandoned_by: None,
        fired,
        resumed_iterations_saved: saved,
        grid_at: Some(case.iterations),
    }
}

/// Runs `case` through the real supervisor over `decomposition`.
/// `references[i]` is the Laplace problem after `i` iterations of
/// `solve_seq`.
fn solve(case: &Case, decomposition: &Decomposition, references: &[Grid]) -> Verdict {
    let mut grid = Grid::laplace_problem(N);
    let recovery = solve_supervised(
        &mut grid,
        SorParams::for_grid(N, case.iterations),
        decomposition,
        ExchangePolicy::default(),
        &FaultSchedule {
            id: 0,
            kills: case.kills.clone(),
        },
        &RetryPolicy {
            max_retries: case.max_retries,
            ..RetryPolicy::default()
        },
        CheckpointPolicy::every(case.every),
    );
    let abandoned_by = match recovery.result {
        Ok(()) => None,
        Err(SolveError::WorkerDied { rank }) => Some(rank),
        Err(e) => panic!("{case:?}: only injected deaths may fail a solve, got {e}"),
    };
    let bits = |g: &Grid| g.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let grid_bits = bits(&grid);
    Verdict {
        abandoned_by,
        fired: recovery.stats.retries + recovery.stats.abandoned,
        resumed_iterations_saved: recovery.stats.resumed_iterations_saved,
        grid_at: references.iter().position(|r| bits(r) == grid_bits),
    }
}

/// The Laplace problem after 0 to `MAX_ITERATIONS` iterations of
/// `solve_seq`.
fn references() -> Vec<Grid> {
    (0..=MAX_ITERATIONS)
        .map(|iterations| {
            let mut g = Grid::laplace_problem(N);
            solve_seq(&mut g, SorParams::for_grid(N, iterations));
            g
        })
        .collect()
}

/// Runs `case` on `case.ranks` strips, asserts that the real verdict is
/// the straight line's, and returns it.
pub(crate) fn check(case: &Case) -> Verdict {
    let decomposition = Decomposition::strips(N, &partition_equal(N - 2, case.ranks));
    let real = solve(case, &decomposition, &references());
    assert_eq!(real, straight_line(case, false), "{case:?}");
    real
}

/// Healthy, every single kill, a second kill addressed before the
/// checkpoint the first one's retry resumes from, two kills that exhaust
/// a budget of one, and a kill on a rank that does not exist.
fn schedules(ranks: usize, iterations: usize) -> Vec<Vec<WorkerDeath>> {
    let kill = |rank, at_half_iteration| WorkerDeath {
        rank,
        at_half_iteration,
    };
    let mut schedules = vec![Vec::new()];
    for rank in 0..ranks {
        for half in 0..2 * iterations {
            schedules.push(vec![kill(rank, half)]);
        }
    }
    schedules.push(vec![kill(0, 2 * (iterations - 1)), kill(ranks - 1, 0)]);
    schedules.push(vec![kill(0, 1), kill(ranks - 1, 2)]);
    schedules.push(vec![kill(ranks, 0)]);
    schedules
}

/// Runs every case of at most `max_ranks` ranks and `max_iterations`
/// iterations, every cadence from 0 (none) to past the end, and returns
/// the number of solves, or the first case whose real verdict is not
/// the oracle's.
fn sweep(max_ranks: usize, max_iterations: usize, consumed_refires: bool) -> Result<usize, String> {
    let strips = |p| Decomposition::strips(N, &partition_equal(N - 2, p));
    let blocks = Decomposition::blocks(N, BlockLayout::new(2, 2));
    let layouts = [
        ("2 strips", 2, strips(2)),
        ("3 strips", 3, strips(3)),
        ("4 strips", 4, strips(4)),
        ("2 x 2 blocks", 4, blocks),
    ];
    let references = references();
    let mut solves = 0;
    for (name, ranks, decomposition) in layouts.iter().filter(|l| l.1 <= max_ranks) {
        let before = solves;
        for iterations in 1..=max_iterations {
            for every in 0..=iterations + 1 {
                for kills in schedules(*ranks, iterations) {
                    for max_retries in BUDGETS {
                        let case = Case {
                            ranks: *ranks,
                            iterations,
                            every,
                            kills: kills.clone(),
                            max_retries,
                        };
                        let real = solve(&case, decomposition, &references);
                        let expected = straight_line(&case, consumed_refires);
                        if real != expected {
                            return Err(format!(
                                "{name}, {case:?}: the solve gave {real:?}, the oracle {expected:?}"
                            ));
                        }
                        solves += 1;
                    }
                }
            }
        }
        println!("{name}: {} solves agree", solves - before);
    }
    Ok(solves)
}

#[test]
fn small_recoveries_match_the_straight_line() {
    // About a second in a debug build; CI runs the whole space.
    assert_eq!(sweep(3, 4, false), Ok(1_288));
}

#[test]
#[ignore = "16 016 solves, seconds in release; CI runs it there"]
fn every_recovery_matches_the_straight_line() {
    assert_eq!(sweep(4, MAX_ITERATIONS, false), Ok(16_016));
}

#[test]
fn an_oracle_that_refires_consumed_deaths_is_refuted() {
    let refuted = sweep(3, 4, true).expect_err("a consumed death never fires again");
    println!("{refuted}");
}
