//! Supervised retry: bounded, deterministic recovery from transient
//! faults.
//!
//! Three pieces, all driven by the simulated clock (backoff is
//! *accounted*, never slept):
//!
//! * [`RetryPolicy`] — bounded attempts with deterministic exponential
//!   backoff; jitter comes from the SplitMix64 finalizer over
//!   `(seed, attempt)`, so two supervisors with the same seed back off
//!   identically on any thread count.
//! * [`CircuitBreaker`] — per-resource failure isolation: after
//!   `threshold` consecutive failures the breaker opens and short-circuits
//!   requests until a cooldown elapses (half-open probe, then closed on
//!   success). The service's supervised ingest tick runs one per platform.
//! * [`Supervisor`] — runs the retry policy over the simulated clock and
//!   accumulates [`RecoveryStats`]; [`solve_supervised`] applies it to
//!   a killed parallel SOR solve, resuming each retry from the last
//!   [`Checkpoint`](prodpred_sor::Checkpoint) instead of iteration 0.
//!
//! Fault semantics follow [`FaultSchedule`]: the schedule's `k`-th kill
//! applies to attempt `k` only (a consumed death does not re-fire on
//! retry — a transient fault), so a schedule with more kills than the
//! retry budget deterministically exhausts into a typed
//! [`SolveError`] — never a panic.

use prodpred_simgrid::faults::{mix, unit, FaultSchedule};
use prodpred_sor::{
    resume_from, try_solve_checkpointed, CheckpointPolicy, CheckpointStore, Decomposition,
    ExchangePolicy, Grid, SolveError, SolveOptions, SorParams,
};
use serde::{Deserialize, Serialize};

/// Bounded-retry policy with deterministic exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Retries after the first attempt (total attempts = `max_retries + 1`).
    pub max_retries: u32,
    /// Backoff before the first retry, in simulated seconds.
    pub base_backoff_secs: f64,
    /// Multiplier applied per retry (exponential backoff).
    pub backoff_factor: f64,
    /// Ceiling on a single backoff, applied before jitter.
    pub max_backoff_secs: f64,
    /// Symmetric jitter as a fraction of the backoff: the wait is scaled
    /// by `1 ± jitter_fraction`, deterministically from `(seed, attempt)`.
    pub jitter_fraction: f64,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff_secs: 30.0,
            backoff_factor: 2.0,
            max_backoff_secs: 600.0,
            jitter_fraction: 0.1,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// No retries at all: fail on the first error.
    pub fn none() -> Self {
        Self {
            max_retries: 0,
            ..Default::default()
        }
    }

    /// The backoff charged before retry number `attempt + 1` (so
    /// `attempt` is the index of the attempt that just failed, starting
    /// at 0). Deterministic in `(self.seed, attempt)`.
    pub fn backoff_secs(&self, attempt: u32) -> f64 {
        let raw = self.base_backoff_secs * self.backoff_factor.powi(attempt as i32);
        let capped = raw.min(self.max_backoff_secs);
        let u = unit(mix(self.seed ^ mix(u64::from(attempt) + 1)));
        capped * (1.0 + self.jitter_fraction * (2.0 * u - 1.0))
    }
}

/// Where a [`CircuitBreaker`] currently stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakerState {
    /// Healthy: requests flow through.
    Closed,
    /// Tripped: requests are short-circuited until the cooldown elapses.
    Open,
    /// Cooldown elapsed: one probe request is allowed through; success
    /// closes the breaker, failure re-opens it immediately.
    HalfOpen,
}

/// Per-resource circuit breaker over the simulated clock.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    threshold: u32,
    cooldown_secs: f64,
    consecutive_failures: u32,
    state: BreakerState,
    open_until: f64,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed breaker that trips after `threshold` consecutive
    /// failures and stays open for `cooldown_secs` of simulated time.
    pub fn new(threshold: u32, cooldown_secs: f64) -> Self {
        assert!(threshold > 0, "a zero-failure threshold never closes");
        Self {
            threshold,
            cooldown_secs,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            open_until: 0.0,
            trips: 0,
        }
    }

    /// Current state (an `Open` breaker reports itself as such until
    /// [`CircuitBreaker::allows`] observes the cooldown's end).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether a request at simulated time `t` may go through. An open
    /// breaker transitions to half-open once `t` passes its cooldown.
    pub fn allows(&mut self, t: f64) -> bool {
        if self.state == BreakerState::Open {
            if t >= self.open_until {
                self.state = BreakerState::HalfOpen;
            } else {
                return false;
            }
        }
        true
    }

    /// Records a successful request: the breaker closes and the failure
    /// streak resets.
    pub fn record_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Records a failed request at simulated time `t`. Returns `true`
    /// when this failure trips the breaker open (streak reached the
    /// threshold, or a half-open probe failed).
    pub fn record_failure(&mut self, t: f64) -> bool {
        self.consecutive_failures += 1;
        let tripped =
            self.state == BreakerState::HalfOpen || self.consecutive_failures >= self.threshold;
        if tripped {
            self.state = BreakerState::Open;
            self.open_until = t + self.cooldown_secs;
            self.trips += 1;
        }
        tripped
    }

    /// Forces the breaker open at simulated time `t` regardless of the
    /// failure streak — an external supervisor (e.g. a no-progress
    /// watchdog) declaring the resource unhealthy. Counts as a trip.
    pub fn trip(&mut self, t: f64) {
        self.state = BreakerState::Open;
        self.open_until = t + self.cooldown_secs;
        self.trips += 1;
    }

    /// The simulated time at which an open breaker's cooldown ends
    /// (meaningful only while [`CircuitBreaker::state`] is `Open`).
    pub fn open_until(&self) -> f64 {
        self.open_until
    }
}

/// Recovery accounting across a supervised workload.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Retries performed (attempts beyond each operation's first).
    pub retries: u64,
    /// Simulated seconds spent backing off before retries.
    pub backoff_secs: f64,
    /// Operations that failed at least once but eventually succeeded.
    pub recovered: u64,
    /// Operations abandoned with the retry budget exhausted.
    pub abandoned: u64,
    /// Iterations *not* recomputed because a retry resumed from a
    /// checkpoint instead of iteration 0, summed over all resumes.
    pub resumed_iterations_saved: u64,
    /// Checkpoints recorded by supervised solves.
    pub checkpoints_taken: u64,
}

impl RecoveryStats {
    /// Folds `other` into `self` (sums every counter).
    pub fn merge(&mut self, other: &RecoveryStats) {
        self.retries += other.retries;
        self.backoff_secs += other.backoff_secs;
        self.recovered += other.recovered;
        self.abandoned += other.abandoned;
        self.resumed_iterations_saved += other.resumed_iterations_saved;
        self.checkpoints_taken += other.checkpoints_taken;
    }
}

/// Supervises retryable operations: applies a [`RetryPolicy`] over the
/// simulated clock and accumulates [`RecoveryStats`].
#[derive(Debug, Clone)]
pub struct Supervisor {
    policy: RetryPolicy,
    stats: RecoveryStats,
}

impl Supervisor {
    /// A supervisor with an empty account.
    pub fn new(policy: RetryPolicy) -> Self {
        Self {
            policy,
            stats: RecoveryStats::default(),
        }
    }

    /// Accumulated recovery statistics.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// Runs `op` under the retry policy, advancing `clock` by each
    /// backoff (simulated time — nothing sleeps). `op` receives the
    /// attempt index and the current clock; errors beyond the budget are
    /// returned as-is and counted as abandoned.
    ///
    /// # Errors
    ///
    /// Returns the last error from `op` once the retry budget is exhausted;
    /// the attempt is counted as abandoned.
    pub fn retry_timed<T, E>(
        &mut self,
        clock: &mut f64,
        mut op: impl FnMut(u32, f64) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt: u32 = 0;
        loop {
            match op(attempt, *clock) {
                Ok(v) => {
                    if attempt > 0 {
                        self.stats.recovered += 1;
                    }
                    return Ok(v);
                }
                Err(e) => {
                    if attempt >= self.policy.max_retries {
                        self.stats.abandoned += 1;
                        return Err(e);
                    }
                    let backoff = self.policy.backoff_secs(attempt);
                    *clock += backoff;
                    self.stats.retries += 1;
                    self.stats.backoff_secs += backoff;
                    attempt += 1;
                }
            }
        }
    }
}

/// Outcome of a supervised solve: the final result, the attempts spent,
/// and this solve's recovery accounting.
#[derive(Debug, Clone)]
pub struct SolveRecovery {
    /// `Ok(())` or the final attempt's typed error.
    pub result: Result<(), SolveError>,
    /// Attempts consumed (1 = no retry was needed).
    pub attempts: u32,
    /// Recovery accounting for this solve alone.
    pub stats: RecoveryStats,
}

impl SolveRecovery {
    /// Whether the solve ultimately completed.
    pub fn succeeded(&self) -> bool {
        self.result.is_ok()
    }
}

/// A solve under supervision, over strips or blocks alike: attempt 0 runs
/// the checkpointed solve from the grid's current state; each retry —
/// spent per `retry` on a worker death from `schedule`, whose `k`-th kill
/// hits attempt `k` only — resumes from the latest checkpoint taken under
/// `checkpoint` (or restarts if none was taken, the grid being untouched
/// in that case). A recovered solve is bit-identical to an unfaulted one;
/// an exhausted budget returns the last typed error.
pub fn solve_supervised(
    grid: &mut Grid,
    params: SorParams,
    decomposition: &Decomposition,
    exchange: ExchangePolicy,
    schedule: &FaultSchedule,
    retry: &RetryPolicy,
    checkpoint: CheckpointPolicy,
) -> SolveRecovery {
    let mut store = CheckpointStore::new();
    let mut supervisor = Supervisor::new(*retry);
    let mut resumed_iterations_saved = 0;
    // Backoff is accounted in the stats; nothing here reads the clock.
    let mut clock = 0.0;
    let result = supervisor.retry_timed(&mut clock, |attempt, _| {
        let options = SolveOptions {
            policy: exchange,
            kill: schedule.kill_for_attempt(attempt),
        };
        match store.latest().cloned() {
            None => try_solve_checkpointed(
                grid,
                params,
                decomposition,
                &options,
                checkpoint,
                &mut store,
            ),
            Some(cp) => {
                resumed_iterations_saved += cp.iteration() as u64;
                resume_from(
                    &cp,
                    grid,
                    params,
                    decomposition,
                    &options,
                    checkpoint,
                    &mut store,
                )
            }
        }
    });
    let stats = RecoveryStats {
        resumed_iterations_saved,
        checkpoints_taken: store.taken() as u64,
        ..supervisor.stats()
    };
    SolveRecovery {
        result,
        attempts: stats.retries as u32 + 1,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_simgrid::faults::WorkerDeath;
    use prodpred_sor::{partition_equal, solve_seq, BlockLayout};
    use std::time::Duration;

    fn snappy() -> ExchangePolicy {
        ExchangePolicy {
            timeout: Duration::from_millis(200),
            retries: 1,
        }
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let policy = RetryPolicy {
            max_retries: 10,
            base_backoff_secs: 10.0,
            backoff_factor: 2.0,
            max_backoff_secs: 65.0,
            jitter_fraction: 0.1,
            seed: 7,
        };
        let a: Vec<f64> = (0..6).map(|k| policy.backoff_secs(k)).collect();
        let b: Vec<f64> = (0..6).map(|k| policy.backoff_secs(k)).collect();
        assert_eq!(a, b, "same seed, same schedule");
        for (k, &w) in a.iter().enumerate() {
            let nominal = (10.0 * 2.0f64.powi(k as i32)).min(65.0);
            assert!(
                (w - nominal).abs() <= nominal * 0.1 + 1e-12,
                "attempt {k}: {w} vs nominal {nominal}"
            );
        }
        // The cap binds from attempt 3 on (80 > 65): jittered around 65.
        assert!(a[3] <= 65.0 * 1.1 && a[4] <= 65.0 * 1.1);
        // A different seed jitters differently but stays bounded.
        let other = RetryPolicy { seed: 8, ..policy };
        assert_ne!(policy.backoff_secs(0), other.backoff_secs(0));
    }

    #[test]
    fn zero_jitter_is_exactly_exponential() {
        let policy = RetryPolicy {
            jitter_fraction: 0.0,
            base_backoff_secs: 5.0,
            backoff_factor: 3.0,
            max_backoff_secs: 1e9,
            ..Default::default()
        };
        assert_eq!(policy.backoff_secs(0), 5.0);
        assert_eq!(policy.backoff_secs(1), 15.0);
        assert_eq!(policy.backoff_secs(2), 45.0);
    }

    mod backoff_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The jittered wait never leaves the ±jitter_fraction band
            // around the capped exponential base.
            #[test]
            fn jitter_stays_within_the_configured_band(
                seed in 0u64..u64::MAX,
                attempt in 0u32..64,
                base in 0.1f64..100.0,
                factor in 1.0f64..4.0,
                cap in 1.0f64..10_000.0,
                jitter in 0.0f64..0.5,
            ) {
                let policy = RetryPolicy {
                    max_retries: 3,
                    base_backoff_secs: base,
                    backoff_factor: factor,
                    max_backoff_secs: cap,
                    jitter_fraction: jitter,
                    seed,
                };
                let nominal = (base * factor.powi(attempt as i32)).min(cap);
                let w = policy.backoff_secs(attempt);
                prop_assert!(w.is_finite());
                prop_assert!((w - nominal).abs() <= nominal * jitter + 1e-9,
                    "attempt {}: {} vs nominal {}", attempt, w, nominal);
            }

            // With jitter off, the capped base is monotone in the attempt
            // index: later retries never wait less.
            #[test]
            fn cap_is_monotone_without_jitter(
                base in 0.1f64..100.0,
                factor in 1.0f64..4.0,
                cap in 1.0f64..10_000.0,
                attempt in 0u32..63,
            ) {
                let policy = RetryPolicy {
                    jitter_fraction: 0.0,
                    base_backoff_secs: base,
                    backoff_factor: factor,
                    max_backoff_secs: cap,
                    ..Default::default()
                };
                let a = policy.backoff_secs(attempt);
                let b = policy.backoff_secs(attempt + 1);
                prop_assert!(b >= a, "attempt {}: {} then {}", attempt, a, b);
                prop_assert!(a <= cap && b <= cap);
            }

            // Huge attempt indices overflow `powi` to infinity (or, past
            // i32::MAX, wrap the exponent negative); the cap must still
            // bound the wait to a finite value either way.
            #[test]
            fn huge_attempts_stay_finite_and_capped(
                seed in 0u64..u64::MAX,
                pick in 0usize..5,
            ) {
                // Attempt indices where `powi` overflows to infinity
                // (around i32::MAX) or the `as i32` cast wraps negative.
                const HUGE: [u32; 5] =
                    [1_000, 100_000, i32::MAX as u32, i32::MAX as u32 + 1, u32::MAX];
                let attempt = HUGE[pick];
                let policy = RetryPolicy { seed, ..Default::default() };
                let w = policy.backoff_secs(attempt);
                prop_assert!(w.is_finite(), "attempt {}: {}", attempt, w);
                prop_assert!(
                    w <= policy.max_backoff_secs * (1.0 + policy.jitter_fraction),
                    "attempt {}: {} above the jittered cap", attempt, w
                );
                prop_assert!(w >= 0.0);
            }
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_recovers_through_half_open() {
        let mut b = CircuitBreaker::new(3, 100.0);
        assert!(b.allows(0.0));
        assert!(!b.record_failure(0.0));
        assert!(!b.record_failure(1.0));
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure(2.0), "third consecutive failure trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        // Short-circuited during the cooldown.
        assert!(!b.allows(50.0));
        // Cooldown over: half-open probe allowed.
        assert!(b.allows(102.0));
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // A failed probe re-opens immediately, without a fresh streak.
        assert!(b.record_failure(102.0));
        assert_eq!(b.trips, 2);
        assert!(!b.allows(150.0));
        // A successful probe closes and resets the streak.
        assert!(b.allows(250.0));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.record_failure(251.0), "streak starts over");
    }

    #[test]
    fn forced_trip_opens_immediately_and_counts() {
        let mut b = CircuitBreaker::new(5, 60.0);
        assert!(!b.record_failure(0.0), "one failure is below threshold");
        b.trip(10.0);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips, 1);
        assert_eq!(b.open_until(), 70.0);
        assert!(!b.allows(69.0));
        // Cooldown over: half-open probe, success closes as usual.
        assert!(b.allows(70.0));
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, 10.0);
        assert!(!b.record_failure(0.0));
        b.record_success();
        assert!(!b.record_failure(1.0), "streak was reset");
        assert!(b.record_failure(2.0));
    }

    #[test]
    fn retry_timed_advances_the_clock_and_counts() {
        let mut sup = Supervisor::new(RetryPolicy {
            max_retries: 3,
            base_backoff_secs: 10.0,
            backoff_factor: 2.0,
            max_backoff_secs: 1e9,
            jitter_fraction: 0.0,
            seed: 0,
        });
        let mut t = 100.0;
        // Succeeds on the third attempt (index 2).
        let out: Result<u32, &str> = sup.retry_timed(&mut t, |attempt, _| {
            if attempt < 2 {
                Err("down")
            } else {
                Ok(attempt)
            }
        });
        assert_eq!(out, Ok(2));
        assert_eq!(t, 100.0 + 10.0 + 20.0);
        let stats = sup.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.recovered, 1);
        assert_eq!(stats.abandoned, 0);
        assert_eq!(stats.backoff_secs, 30.0);

        // Exhausts the budget: 3 retries, then the error comes back.
        let out: Result<u32, &str> = sup.retry_timed(&mut t, |_, _| Err("still down"));
        assert_eq!(out, Err("still down"));
        assert_eq!(sup.stats().abandoned, 1);
        assert_eq!(sup.stats().retries, 5);
    }

    #[test]
    fn supervised_solve_recovers_bit_identically() {
        let n = 33;
        let iters = 24;
        let params = SorParams::for_grid(n, iters);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 4));
        let mut reference = Grid::laplace_problem(n);
        solve_seq(&mut reference, params);

        let schedule = FaultSchedule {
            id: 1,
            kills: vec![WorkerDeath {
                rank: 2,
                at_half_iteration: 27,
            }],
        };
        let mut g = Grid::laplace_problem(n);
        let recovery = solve_supervised(
            &mut g,
            params,
            &strips,
            snappy(),
            &schedule,
            &RetryPolicy::default(),
            CheckpointPolicy::every(5),
        );
        assert!(recovery.succeeded());
        assert_eq!(recovery.attempts, 2);
        assert_eq!(recovery.stats.retries, 1);
        assert_eq!(recovery.stats.recovered, 1);
        // The kill hit iteration 13; the retry resumed from iteration 10.
        assert_eq!(recovery.stats.resumed_iterations_saved, 10);
        assert!(recovery.stats.backoff_secs > 0.0);
        assert_eq!(g.max_diff(&reference), 0.0, "recovery must be exact");
    }

    #[test]
    fn schedule_outlasting_the_budget_exhausts_into_a_typed_error() {
        let n = 21;
        let params = SorParams::for_grid(n, 12);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 3));
        // Four kills against a one-retry budget: attempts 0 and 1 both
        // die; the supervisor must give up with the typed error.
        let schedule = FaultSchedule {
            id: 2,
            kills: (0..4)
                .map(|k| WorkerDeath {
                    rank: k % 3,
                    at_half_iteration: 5 + 2 * k,
                })
                .collect(),
        };
        let retry = RetryPolicy {
            max_retries: 1,
            ..Default::default()
        };
        let mut g = Grid::laplace_problem(n);
        let recovery = solve_supervised(
            &mut g,
            params,
            &strips,
            snappy(),
            &schedule,
            &retry,
            CheckpointPolicy::every(3),
        );
        assert_eq!(recovery.attempts, 2);
        assert_eq!(recovery.stats.abandoned, 1);
        assert!(matches!(
            recovery.result,
            Err(SolveError::WorkerDied { rank: 1 })
        ));
    }

    #[test]
    fn supervised_blocks_recover_bit_identically() {
        let n = 26;
        let iters = 18;
        let params = SorParams::for_grid(n, iters);
        let mut reference = Grid::laplace_problem(n);
        solve_seq(&mut reference, params);

        let schedule = FaultSchedule {
            id: 3,
            kills: vec![WorkerDeath {
                rank: 3,
                at_half_iteration: 21,
            }],
        };
        let mut g = Grid::laplace_problem(n);
        let recovery = solve_supervised(
            &mut g,
            params,
            &Decomposition::blocks(n, BlockLayout::new(2, 2)),
            snappy(),
            &schedule,
            &RetryPolicy::default(),
            CheckpointPolicy::every(4),
        );
        assert!(recovery.succeeded());
        assert_eq!(recovery.stats.resumed_iterations_saved, 8);
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn healthy_schedule_costs_no_retries() {
        let n = 17;
        let params = SorParams::for_grid(n, 8);
        let strips = Decomposition::strips(n, &partition_equal(n - 2, 2));
        let mut g = Grid::laplace_problem(n);
        let recovery = solve_supervised(
            &mut g,
            params,
            &strips,
            snappy(),
            &FaultSchedule::healthy(0),
            &RetryPolicy::default(),
            CheckpointPolicy::every(3),
        );
        assert!(recovery.succeeded());
        assert_eq!(recovery.attempts, 1);
        assert_eq!(
            recovery.stats,
            RecoveryStats {
                checkpoints_taken: 2,
                ..RecoveryStats::default()
            }
        );
    }
}

/// The real supervised solve swept against a straight-line oracle.
#[cfg(test)]
#[path = "tests/recovery_sweep.rs"]
pub(crate) mod recovery_sweep;
