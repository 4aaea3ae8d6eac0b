//! The supervised-solver fault campaign, defined once: `chaos_study`
//! checks its recovery invariants and commits what it measured,
//! `faultpred_study` holds `core::faultmodel`'s forecasts to the same
//! four aggregates.

use prodpred_core::{
    predict_campaign, solve_supervised, CampaignPrediction, RecoveryStats, RetryPolicy,
    SolveRecovery,
};
use prodpred_simgrid::faults::FaultSchedule;
use prodpred_sor::{
    partition_equal, CheckpointPolicy, Decomposition, ExchangePolicy, Grid, SorParams,
};

/// Campaign geometry: small enough that hundreds of faulted solves (each
/// spawning real worker threads, some twice) finish in seconds, large
/// enough that every rank owns several rows.
pub const N: usize = 33;
pub const ITERATIONS: usize = 20;
pub const RANKS: usize = 4;
pub const CHECKPOINT_EVERY: usize = 4;
pub const CAMPAIGN_SEED: u64 = 4242;

pub fn snappy() -> ExchangePolicy {
    ExchangePolicy {
        timeout: std::time::Duration::from_millis(200),
        retries: 1,
    }
}

pub fn retry() -> RetryPolicy {
    RetryPolicy {
        seed: CAMPAIGN_SEED,
        ..Default::default()
    }
}

/// The first `count` schedules of the seeded campaign: healthy runs,
/// single worker deaths, repeated deaths outlasting the retry budget.
pub fn schedules(count: usize) -> Vec<FaultSchedule> {
    FaultSchedule::random_campaign(CAMPAIGN_SEED, count, RANKS, ITERATIONS)
}

/// One solve of the campaign problem under `schedule`: the final grid
/// (the solution when completed, the last checkpoint boundary when
/// abandoned) and what recovery cost.
pub fn solve(
    schedule: &FaultSchedule,
    retry: &RetryPolicy,
    checkpoint: CheckpointPolicy,
) -> (Grid, SolveRecovery) {
    let strips = Decomposition::strips(N, &partition_equal(N - 2, RANKS));
    let mut grid = Grid::laplace_problem(N);
    let recovery = solve_supervised(
        &mut grid,
        SorParams::for_grid(N, ITERATIONS),
        &strips,
        snappy(),
        schedule,
        retry,
        checkpoint,
    );
    (grid, recovery)
}

/// The supervised arm: retries resume from the last checkpoint.
pub fn solve_with_recovery(schedule: &FaultSchedule) -> (Grid, SolveRecovery) {
    solve(
        schedule,
        &retry(),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
    )
}

/// The fault model's forecast of the supervised arm's aggregates, from
/// the campaign's own kill-count distribution (intensity 1.0) alone.
pub fn predicted() -> CampaignPrediction {
    predict_campaign(
        1.0,
        &retry(),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
        ITERATIONS,
    )
}

/// What the supervised arm measured, summed in schedule order; the four
/// means are the measured side of [`predicted`].
pub struct Measured {
    pub completed: usize,
    pub stats: RecoveryStats,
    pub completion_rate: f64,
    pub mean_retries: f64,
    pub mean_backoff_secs: f64,
    pub mean_saved_iterations: f64,
}

/// Folds each schedule's `(completed, recovery accounting)` into the
/// campaign's aggregates.
pub fn measured<'a>(
    outcomes: impl ExactSizeIterator<Item = (bool, &'a RecoveryStats)>,
) -> Measured {
    let schedules = outcomes.len() as f64;
    let (mut completed, mut stats) = (0, RecoveryStats::default());
    for (ok, one) in outcomes {
        completed += usize::from(ok);
        stats.merge(one);
    }
    Measured {
        completed,
        stats,
        completion_rate: completed as f64 / schedules,
        mean_retries: stats.retries as f64 / schedules,
        mean_backoff_secs: stats.backoff_secs / schedules,
        mean_saved_iterations: stats.resumed_iterations_saved as f64 / schedules,
    }
}
