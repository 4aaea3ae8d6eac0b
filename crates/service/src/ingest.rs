//! The supervised ingest tick: one state machine for the breaker gate,
//! the clock-advancing retry, the watchdog and the accounting.
//!
//! The machine knows nothing about sensors. It owns the simulated clock
//! and asks a `poll(prev, now)` closure how many sensors delivered a
//! measurement in `(prev, now]`; a tick publishes when that count is
//! positive. Two drivers share it, which is what makes a *predicted*
//! availability mean something: [`ServiceCore`](crate::ServiceCore)
//! polls its live NWS and publishes a snapshot when the machine says so,
//! and [`predict_availability`](crate::predict_availability) polls a
//! model of the blackout schedule and reads the accounting.

use crate::resilience::{IngestOutcome, IngestStats, ResilienceConfig};
use prodpred_core::supervisor::{BreakerState, CircuitBreaker, Supervisor};

/// One platform's supervised ingest: clock, breaker, watchdog reference
/// point and accounting.
#[derive(Debug)]
pub struct SupervisedIngest {
    /// Runs the retry loop and keeps its counters (retries, backoff,
    /// recoveries, exhausted ticks).
    supervisor: Supervisor,
    breaker: CircuitBreaker,
    watchdog_ticks: u64,
    /// Sensors a full publish hears from; fewer is a partial publish.
    sensors: usize,
    /// The clock clamps here (the end of the simulated traces).
    horizon: f64,
    /// Simulated "now" in seconds.
    clock: f64,
    /// The tick of the most recent publish (watchdog reference point).
    last_publish_tick: u64,
    /// Every counter the retry loop does not keep.
    stats: IngestStats,
}

impl SupervisedIngest {
    /// A machine at clock zero with a closed breaker, supervising the
    /// polls of `sensors` sensors under `res` up to `horizon`.
    pub fn new(res: &ResilienceConfig, sensors: usize, horizon: f64) -> Self {
        Self {
            supervisor: Supervisor::new(res.retry),
            breaker: CircuitBreaker::new(res.breaker_threshold.max(1), res.breaker_cooldown_secs),
            watchdog_ticks: res.watchdog_ticks,
            sensors,
            horizon,
            clock: 0.0,
            last_publish_tick: 0,
            stats: IngestStats::default(),
        }
    }

    /// One tick of `dt` simulated seconds. An open breaker lets the
    /// deadline pass without polling. Otherwise the clock advances by
    /// `dt` (clamped to the horizon) and `poll(prev, now)` reports how
    /// many sensors delivered in `(prev, now]`; while none did, the retry
    /// policy's backoff advances the clock further and polls again —
    /// which is how a blackout is ridden through inside one tick. An
    /// exhausted budget is a failed tick: it feeds the breaker's streak,
    /// and the watchdog trips a still-closed breaker once nothing has
    /// published for `watchdog_ticks`.
    ///
    /// A `Published` outcome carries the epoch the publish gets: epochs
    /// count publishes, and so does the machine.
    pub fn tick(&mut self, dt: f64, mut poll: impl FnMut(f64, f64) -> usize) -> IngestOutcome {
        self.stats.attempts += 1;
        if !self.breaker.allows(self.clock) {
            // Cooling down: the cooldown can only elapse if time passes.
            self.clock = (self.clock + dt).min(self.horizon);
            self.stats.breaker_short_circuits += 1;
            return IngestOutcome::ShortCircuited;
        }
        let (horizon, mut now) = (self.horizon, self.clock);
        // `retry_timed` adds each backoff to `target`; backoffs are never
        // negative, so clamping its running sum is clamping every step.
        let mut target = now + dt;
        let polled = self.supervisor.retry_timed(&mut target, |attempt, target| {
            let prev = now;
            now = target.min(horizon);
            match poll(prev, now) {
                0 => Err(attempt + 1),
                fresh => Ok((fresh, attempt)),
            }
        });
        self.clock = now;
        match polled {
            Ok((fresh, retries)) => {
                self.breaker.record_success();
                self.last_publish_tick = self.stats.attempts;
                self.stats.publishes += 1;
                let partial = fresh < self.sensors;
                self.stats.partial_publishes += u64::from(partial);
                IngestOutcome::Published {
                    epoch: self.stats.publishes,
                    partial,
                    retries,
                }
            }
            Err(attempts) => {
                if self.breaker.record_failure(self.clock) {
                    self.stats.breaker_trips += 1;
                } else if self.breaker.state() == BreakerState::Closed
                    && self.age_ticks() >= self.watchdog_ticks
                {
                    // Wedged epoch: failures keep landing below the streak
                    // threshold yet nothing has published for
                    // `watchdog_ticks` (`u64::MAX`, which no age reaches,
                    // turns the watchdog off) — force the breaker open.
                    self.breaker.trip(self.clock);
                    self.stats.breaker_trips += 1;
                    self.stats.watchdog_trips += 1;
                }
                IngestOutcome::Failed { attempts }
            }
        }
    }

    /// Simulated "now" in seconds.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// The ingest circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Ticks since the last publish (0 right after one) — the snapshot
    /// age [`ServingState::derive`](crate::ServingState::derive) judges.
    pub fn age_ticks(&self) -> u64 {
        self.stats.attempts - self.last_publish_tick
    }

    /// The accounting so far.
    pub fn stats(&self) -> IngestStats {
        let retry = self.supervisor.stats();
        IngestStats {
            failures: retry.abandoned,
            retries: retry.retries,
            backoff_secs: retry.backoff_secs,
            recovered: retry.recovered,
            ..self.stats
        }
    }
}
