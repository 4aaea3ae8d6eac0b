//! Chaos recovery: the supervised solver stack (checkpoint/restart +
//! bounded retry + typed errors) exercised end-to-end through the public
//! APIs, the way the `chaos_study` bench bin drives it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

use prodpred_core::{solve_supervised, RetryPolicy};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{mix, FaultSchedule, WorkerDeath};
use prodpred_sor::{
    partition_equal, solve_seq, BlockLayout, CheckpointPolicy, Decomposition, ExchangePolicy, Grid,
    SolveError, SorParams,
};

fn snappy() -> ExchangePolicy {
    ExchangePolicy {
        timeout: Duration::from_millis(200),
        retries: 1,
    }
}

#[test]
fn killed_then_resumed_strip_solve_is_bit_identical() {
    let n = 33;
    let iters = 24;
    let mut reference = Grid::laplace_problem(n);
    solve_seq(&mut reference, SorParams::for_grid(n, iters));

    let schedule = FaultSchedule {
        id: 0,
        kills: vec![WorkerDeath {
            rank: 1,
            at_half_iteration: 29,
        }],
    };
    let mut grid = Grid::laplace_problem(n);
    let recovery = solve_supervised(
        &mut grid,
        SorParams::for_grid(n, iters),
        &Decomposition::strips(n, &partition_equal(n - 2, 4)),
        snappy(),
        &schedule,
        &RetryPolicy::default(),
        CheckpointPolicy::every(6),
    );
    assert!(recovery.succeeded());
    assert_eq!(recovery.attempts, 2);
    assert_eq!(recovery.stats.recovered, 1);
    assert!(
        recovery.stats.resumed_iterations_saved > 0,
        "the retry must resume from a checkpoint, not iteration 0"
    );
    assert_eq!(
        grid.max_diff(&reference),
        0.0,
        "recovered solve must match the unfaulted sequential bits"
    );
}

#[test]
fn killed_then_resumed_block_solve_is_bit_identical() {
    let n = 29;
    let iters = 20;
    let mut reference = Grid::laplace_problem(n);
    solve_seq(&mut reference, SorParams::for_grid(n, iters));

    let schedule = FaultSchedule {
        id: 0,
        kills: vec![WorkerDeath {
            rank: 3,
            at_half_iteration: 17,
        }],
    };
    let mut grid = Grid::laplace_problem(n);
    let recovery = solve_supervised(
        &mut grid,
        SorParams::for_grid(n, iters),
        &Decomposition::blocks(n, BlockLayout::new(2, 2)),
        snappy(),
        &schedule,
        &RetryPolicy::default(),
        CheckpointPolicy::every(4),
    );
    assert!(recovery.succeeded());
    assert!(recovery.stats.resumed_iterations_saved > 0);
    assert_eq!(grid.max_diff(&reference), 0.0);
}

#[test]
fn schedule_beyond_the_retry_budget_exhausts_into_a_typed_error() {
    let n = 25;
    let iters = 16;
    // Three deaths against a one-retry budget: attempts 0 and 1 both die,
    // and the supervisor must hand back the *typed* error of the last
    // attempt rather than panicking or looping.
    let schedule = FaultSchedule {
        id: 0,
        kills: (0..3)
            .map(|k| WorkerDeath {
                rank: k % 3,
                at_half_iteration: 5 + 2 * k,
            })
            .collect(),
    };
    let retry = RetryPolicy {
        max_retries: 1,
        ..RetryPolicy::default()
    };
    let mut grid = Grid::laplace_problem(n);
    let recovery = solve_supervised(
        &mut grid,
        SorParams::for_grid(n, iters),
        &Decomposition::strips(n, &partition_equal(n - 2, 3)),
        snappy(),
        &schedule,
        &retry,
        CheckpointPolicy::every(4),
    );
    assert!(!recovery.succeeded());
    assert_eq!(recovery.attempts, 2);
    assert_eq!(recovery.stats.abandoned, 1);
    assert!(matches!(
        recovery.result,
        Err(SolveError::WorkerDied { .. })
    ));
}

#[test]
fn mini_campaign_is_deterministic_across_pool_widths_with_zero_panics() {
    let n = 33;
    let iters = 16;
    let ranks = 4;
    let campaign = FaultSchedule::random_campaign(99, 24, ranks, iters);
    let mut reference = Grid::laplace_problem(n);
    solve_seq(&mut reference, SorParams::for_grid(n, iters));
    let reference = Arc::new(reference);

    let run = |threads: usize| {
        let reference = Arc::clone(&reference);
        let outcomes = parallel_map(&campaign, threads, move |_, schedule| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut grid = Grid::laplace_problem(n);
                let recovery = solve_supervised(
                    &mut grid,
                    SorParams::for_grid(n, iters),
                    &Decomposition::strips(n, &partition_equal(n - 2, ranks)),
                    snappy(),
                    schedule,
                    &RetryPolicy::default(),
                    CheckpointPolicy::every(4),
                );
                if recovery.succeeded() {
                    assert_eq!(grid.max_diff(&reference), 0.0, "schedule {}", schedule.id);
                } else {
                    assert!(recovery.result.is_err(), "failure must carry a typed error");
                }
                (
                    recovery.succeeded(),
                    recovery.stats.retries,
                    grid.interior_sum().to_bits(),
                )
            }))
            .ok()
        });
        assert!(
            outcomes.iter().all(Option::is_some),
            "no schedule may panic at {threads} pool threads"
        );
        let mut digest = 0u64;
        for (schedule, o) in campaign.iter().zip(&outcomes) {
            let (ok, retries, bits) = o.expect("checked above");
            digest = mix(digest ^ schedule.id);
            digest = mix(digest ^ u64::from(ok));
            digest = mix(digest ^ retries);
            digest = mix(digest ^ bits);
        }
        digest
    };
    assert_eq!(
        run(1),
        run(4),
        "campaign digest must not depend on pool width"
    );
}

/// What the supervisor did about each schedule of a seeded campaign, over
/// strips and over a 2 × 2 block grid: attempts spent and the whole
/// recovery accounting (retries, jittered backoff to the bit, iterations a
/// resume saved, checkpoints taken, recoveries, abandonments). Taken
/// before `solve_supervised` stopped carrying a retry loop of its own.
#[test]
fn supervised_campaign_accounting_is_pinned() {
    const GOLDEN: &str = include_str!("golden/solve_recovery.txt");

    let n = 26;
    let iters = 12;
    let ranks = 4;
    let retry = RetryPolicy {
        max_retries: 2,
        jitter_fraction: 0.25,
        seed: 23,
        ..RetryPolicy::default()
    };
    let layouts = [
        (
            "strips",
            Decomposition::strips(n, &partition_equal(n - 2, ranks)),
        ),
        ("blocks", Decomposition::blocks(n, BlockLayout::new(2, 2))),
    ];
    let mut actual = String::new();
    for (name, decomposition) in &layouts {
        for schedule in FaultSchedule::random_campaign(23, 16, ranks, iters) {
            let mut grid = Grid::laplace_problem(n);
            let recovery = solve_supervised(
                &mut grid,
                SorParams::for_grid(n, iters),
                decomposition,
                snappy(),
                &schedule,
                &retry,
                CheckpointPolicy::every(3),
            );
            actual += &format!(
                "{name} {}: kills={} ok={} attempts={} {:?}\n",
                schedule.id,
                schedule.kills.len(),
                recovery.succeeded(),
                recovery.attempts,
                recovery.stats
            );
        }
    }
    if actual != GOLDEN {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("solve_recovery.txt");
        std::fs::write(&path, &actual).unwrap();
        let first = actual.lines().zip(GOLDEN.lines()).find(|(a, g)| a != g);
        panic!(
            "recovery accounting moved (first: {first:?}); actual written to {}",
            path.display()
        );
    }
    assert!(actual.contains("ok=false"), "no schedule exhausted");
    assert!(actual.contains("recovered: 1"), "no schedule recovered");
}
