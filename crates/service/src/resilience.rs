//! The service's resilience layer: staleness-aware serving states,
//! deterministic admission control, supervised-ingest accounting, and
//! the availability predictor the chaos bench gates against.
//!
//! Everything here is a pure function of `(configuration, tick clock)`:
//! no wall clock (tidy lint PP009), no randomness beyond the seeded
//! jitter already inside [`RetryPolicy`]. The state machine is
//!
//! ```text
//! Healthy ──age──▶ Degraded ──age──▶ Stale ──age──▶ Unavailable
//! ```
//!
//! driven by *snapshot age in ingest ticks* (how many ticks since the
//! served snapshot was published) with an open circuit breaker
//! escalating the severity one level. Degraded and Stale answers keep
//! flowing — with spreads widened by the same `sqrt(1 + staleness)`
//! discipline the NWS applies per-sensor — while Unavailable maps to a
//! typed 503 with a Retry-After hint.

use crate::ingest::SupervisedIngest;
use prodpred_core::supervisor::{BreakerState, RetryPolicy};
use prodpred_simgrid::faults::FaultConfig;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Snapshot age (ticks) still considered fresh: one missed publish is
/// tolerated before answers are Degraded and widened.
pub(crate) const HEALTHY_AGE_TICKS: u64 = 1;

/// Per-platform serving state, derived purely from the age of the
/// published snapshot (in ingest ticks) and the ingest circuit
/// breaker's state. Ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ServingState {
    /// The snapshot is fresh: answers are served unmodified.
    Healthy,
    /// The snapshot missed at least one publish: answers are served with
    /// widened spreads and marked `degraded`.
    Degraded,
    /// The snapshot is old enough that even a widened interval is a
    /// stretch; answers still flow, maximally widened and degraded.
    Stale,
    /// The snapshot is too old to answer from (or none exists): queries
    /// get a typed 503 with a Retry-After hint.
    Unavailable,
}

impl Default for ServingState {
    /// The state before anything has been published.
    fn default() -> Self {
        Self::Unavailable
    }
}

impl ServingState {
    /// One level worse (saturating at [`ServingState::Unavailable`]).
    pub(crate) fn escalate(self) -> Self {
        match self {
            Self::Healthy => Self::Degraded,
            Self::Degraded => Self::Stale,
            Self::Stale | Self::Unavailable => Self::Unavailable,
        }
    }

    /// Derives the serving state from snapshot age (ticks since the
    /// served snapshot published) and whether the ingest breaker is in a
    /// non-closed state. Pure; the healthy band is `HEALTHY_AGE_TICKS`,
    /// the other thresholds come from `res`.
    pub fn derive(age_ticks: u64, breaker_open: bool, res: &ResilienceConfig) -> Self {
        // Successive maxes keep the bands sane even if a caller supplies
        // non-monotone thresholds.
        let degraded_after = res.degraded_age_ticks.max(HEALTHY_AGE_TICKS);
        let stale_after = res.stale_age_ticks.max(degraded_after);
        let base = if age_ticks <= HEALTHY_AGE_TICKS {
            Self::Healthy
        } else if age_ticks <= degraded_after {
            Self::Degraded
        } else if age_ticks <= stale_after {
            Self::Stale
        } else {
            Self::Unavailable
        };
        if breaker_open {
            base.escalate()
        } else {
            base
        }
    }
}

/// The factor by which a served prediction interval is widened at
/// `age_ticks` of snapshot age: `sqrt(1 + ticks beyond the healthy
/// band)` — the NWS per-sensor staleness discipline lifted to the
/// service level. Exactly `1.0` inside the healthy band (a healthy
/// answer's bits are never touched), monotone non-decreasing in age.
pub(crate) fn widening_factor(age_ticks: u64, healthy: u64) -> f64 {
    let extra = age_ticks.saturating_sub(healthy);
    if extra == 0 {
        1.0
    } else {
        (1.0 + extra as f64).sqrt()
    }
}

/// Load-shedding budget for the query path. The miss budget is a
/// *deadline* budget: misses run the structural model, and only
/// `miss_tokens_per_tick` of those fit between two publish deadlines.
/// How many run at once is the daemon's worker pool's business. Cache
/// hits are never shed — they cost no model work, so admitting them
/// preferentially is free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionConfig {
    /// Cache-missing queries admitted per ingest tick (the per-deadline
    /// model-work budget). Refilled at every tick, successful or not —
    /// the deadline passes regardless.
    pub miss_tokens_per_tick: u64,
}

impl AdmissionConfig {
    /// No shedding at all (the default: PR 7 behavior).
    pub(crate) fn unbounded() -> Self {
        Self {
            miss_tokens_per_tick: u64::MAX,
        }
    }
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::unbounded()
    }
}

/// Runtime admission state: a token bucket refilled per ingest tick.
/// Deterministic for a deterministic query order: the `k`-th miss
/// between two ticks is admitted iff `k <= miss_tokens_per_tick`.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    tokens: AtomicU64,
    shed: AtomicU64,
}

impl Admission {
    /// A fresh bucket with one tick's worth of tokens.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            tokens: AtomicU64::new(config.miss_tokens_per_tick),
            shed: AtomicU64::new(0),
        }
    }

    /// Refills the per-tick miss budget (called by every ingest tick,
    /// successful or not).
    pub fn refill(&self) {
        self.tokens
            .store(self.config.miss_tokens_per_tick, Ordering::Relaxed);
    }

    /// Tries to admit one cache-missing query: takes a token from the
    /// per-tick bucket (CAS loop) or counts a shed. `None` means shed
    /// (the caller answers a typed 429); an `Option` so the caller can
    /// `?` it.
    pub fn try_admit_miss(&self) -> Option<()> {
        let mut tokens = self.tokens.load(Ordering::Relaxed);
        loop {
            if tokens == 0 {
                self.shed.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            // u64::MAX means "unbounded": don't burn the bucket down.
            if tokens == u64::MAX {
                return Some(());
            }
            match self.tokens.compare_exchange_weak(
                tokens,
                tokens - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(()),
                Err(now) => tokens = now,
            }
        }
    }

    /// Miss tokens left in this tick's bucket.
    #[cfg(test)]
    pub(crate) fn tokens(&self) -> u64 {
        self.tokens.load(Ordering::Relaxed)
    }

    /// Queries shed so far (429s).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

/// Lock-free mirrors of the supervised-ingest state for the query path:
/// the tick clock, whether the breaker is open, and the Retry-After
/// hint. The ingest path refreshes them after every tick (under its own
/// lock); queries read them without ever touching that lock. Every
/// access is `Relaxed` — each word is an independent gauge and the query
/// path only needs a recent-enough value, never an ordering between
/// them.
#[derive(Debug)]
pub struct TickMirror {
    /// Ingest ticks attempted so far (warmup included).
    ticks: AtomicU64,
    /// Whether the breaker is in any non-closed state.
    breaker_open: AtomicBool,
    /// Retry-After hint in whole seconds.
    retry_hint: AtomicU64,
}

impl TickMirror {
    /// A fresh mirror: zero ticks, breaker closed, `initial_hint`
    /// seconds of Retry-After.
    pub fn new(initial_hint: u64) -> Self {
        Self {
            ticks: AtomicU64::new(0),
            breaker_open: AtomicBool::new(false),
            retry_hint: AtomicU64::new(initial_hint),
        }
    }

    /// Advances the tick clock and returns the new tick number (1-based).
    pub fn next_tick(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Ticks attempted so far.
    pub fn ticks(&self) -> u64 {
        self.ticks.load(Ordering::Relaxed)
    }

    /// Publishes whether the breaker is open (or half-open) for
    /// lock-free readers.
    pub(crate) fn set_breaker(&self, state: BreakerState) {
        self.breaker_open
            .store(state != BreakerState::Closed, Ordering::Relaxed);
    }

    /// Whether the mirrored breaker is in any non-closed state.
    pub fn breaker_open(&self) -> bool {
        self.breaker_open.load(Ordering::Relaxed)
    }

    /// Publishes the Retry-After hint (whole seconds).
    pub(crate) fn set_retry_hint(&self, secs: u64) {
        self.retry_hint.store(secs, Ordering::Relaxed);
    }

    /// The current Retry-After hint (whole seconds).
    pub(crate) fn retry_hint(&self) -> u64 {
        self.retry_hint.load(Ordering::Relaxed)
    }
}

/// Query-path outcome counters for [`ServiceStats`]-style snapshots.
/// All `Relaxed`: each counter is an independent tally and readers take
/// a point-in-time snapshot, not a consistent cut.
///
/// [`ServiceStats`]: crate::core::ServiceStats
#[derive(Debug, Default)]
pub(crate) struct ServingCounters {
    queries: AtomicU64,
    rejected: AtomicU64,
    unavailable: AtomicU64,
    degraded_served: AtomicU64,
}

impl ServingCounters {
    /// All counters at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// One query answered 200; `degraded` when it was served in a
    /// non-Healthy state.
    pub(crate) fn record_served(&self, degraded: bool) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        if degraded {
            self.degraded_served.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One query rejected (any typed error).
    pub(crate) fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One query refused 503 (Unavailable).
    pub(crate) fn record_unavailable(&self) {
        self.unavailable.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries answered 200 so far.
    pub fn queries(&self) -> u64 {
        self.queries.load(Ordering::Relaxed)
    }

    /// Queries rejected so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Queries refused 503 so far.
    pub fn unavailable(&self) -> u64 {
        self.unavailable.load(Ordering::Relaxed)
    }

    /// Degraded 200s so far.
    pub fn degraded_served(&self) -> u64 {
        self.degraded_served.load(Ordering::Relaxed)
    }
}

/// Knobs for the resilience layer. The defaults keep a fault-free
/// service exactly on its PR 7 behavior (every tick publishes, age
/// never leaves the healthy band, nothing is shed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceConfig {
    /// Retry policy for a failed ingest tick. Backoff advances the
    /// *simulated* clock — a retry polls the sensors further into the
    /// future, which is how the supervisor rides through blackouts.
    pub retry: RetryPolicy,
    /// Consecutive failed ticks before the ingest breaker opens.
    pub breaker_threshold: u32,
    /// Simulated seconds an open breaker short-circuits ingest before a
    /// half-open probe tick.
    pub breaker_cooldown_secs: f64,
    /// Watchdog: ticks without a publish before the breaker is tripped
    /// open even though the failure streak has not reached
    /// `breaker_threshold` (a wedged epoch). `u64::MAX` disables it.
    pub watchdog_ticks: u64,
    /// Age beyond which answers are Degraded (widened, marked); never
    /// below the one-tick healthy band.
    pub degraded_age_ticks: u64,
    /// Age beyond which answers are Stale; older is Unavailable (503).
    pub stale_age_ticks: u64,
    /// Load-shedding budget for the query path.
    pub admission: AdmissionConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        Self {
            retry: RetryPolicy::default(),
            breaker_threshold: 6,
            breaker_cooldown_secs: 120.0,
            watchdog_ticks: 4,
            degraded_age_ticks: 8,
            stale_age_ticks: 40,
            admission: AdmissionConfig::unbounded(),
        }
    }
}

impl ResilienceConfig {
    /// The fault-blind baseline the chaos bench compares against: no
    /// retry ride-through, no breaker, no watchdog, and a fresh-only
    /// serving policy (anything older than one tick is refused — without
    /// the widening state machine, serving stale data would be unsound).
    pub fn unsupervised() -> Self {
        Self {
            retry: RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            breaker_cooldown_secs: 0.0,
            watchdog_ticks: u64::MAX,
            degraded_age_ticks: 1,
            stale_age_ticks: 1,
            admission: AdmissionConfig::unbounded(),
        }
    }
}

/// Supervised-ingest accounting, merged across platforms for
/// `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct IngestStats {
    /// Ingest ticks attempted (including short-circuited ones).
    pub attempts: u64,
    /// Ticks that published a snapshot.
    pub publishes: u64,
    /// Publishes where some (but not all) sensors delivered fresh data.
    pub partial_publishes: u64,
    /// Ticks that exhausted the retry budget without fresh data.
    pub failures: u64,
    /// Retry attempts consumed across all ticks.
    pub retries: u64,
    /// Simulated seconds spent in retry backoff.
    pub backoff_secs: f64,
    /// Ticks that recovered (published after at least one retry).
    pub recovered: u64,
    /// Breaker trips from the failure streak or a failed half-open probe.
    pub breaker_trips: u64,
    /// Ticks short-circuited by an open breaker.
    pub breaker_short_circuits: u64,
    /// Breaker trips forced by the no-publish watchdog.
    pub watchdog_trips: u64,
}

impl IngestStats {
    /// Folds `other` into `self` (sums every counter).
    pub fn merge(&mut self, other: &IngestStats) {
        self.attempts += other.attempts;
        self.publishes += other.publishes;
        self.partial_publishes += other.partial_publishes;
        self.failures += other.failures;
        self.retries += other.retries;
        self.backoff_secs += other.backoff_secs;
        self.recovered += other.recovered;
        self.breaker_trips += other.breaker_trips;
        self.breaker_short_circuits += other.breaker_short_circuits;
        self.watchdog_trips += other.watchdog_trips;
    }
}

/// What one ingest tick did to one platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// A snapshot published; `partial` when some sensors stayed silent.
    Published {
        /// The new epoch.
        epoch: u64,
        /// Whether any sensor delivered nothing this tick.
        partial: bool,
        /// Retries consumed before fresh data arrived.
        retries: u32,
    },
    /// The retry budget exhausted without any fresh measurement; the
    /// previous snapshot stays published.
    Failed {
        /// Attempts consumed (1 + retries).
        attempts: u32,
    },
    /// An open breaker skipped the tick entirely (no polling).
    ShortCircuited,
}

impl IngestOutcome {
    /// Whether this tick published a snapshot.
    pub fn published(&self) -> bool {
        matches!(self, Self::Published { .. })
    }
}

/// What the retry/breaker DP predicts for a chaos campaign.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityPrediction {
    /// Predicted fraction of queries answered (non-503).
    pub availability: f64,
    /// Predicted fraction of queries served in a non-Healthy state.
    pub degraded_fraction: f64,
    /// Ticks predicted to publish.
    pub published_ticks: u64,
    /// Ticks predicted to exhaust their retry budget.
    pub failed_ticks: u64,
    /// Ticks predicted to be short-circuited by the breaker.
    pub short_circuited_ticks: u64,
    /// Ticks predicted to serve Unavailable (503).
    pub unavailable_ticks: u64,
}

/// Predicts a chaos campaign's availability without running the
/// service. It drives the same `SupervisedIngest` machine as
/// `ServiceCore::ingest_tick`, so retry, breaker and watchdog cannot
/// drift; only the poll is a model — "fresh data arrived" is replaced by
/// its deterministic dominant term, *some sensor poll falls outside
/// every blackout window* — mirroring how `faultpred_study` predicts
/// runtimes from the fault DP before measuring them. Random per-poll
/// dropout is ignored: with several sensors per platform the
/// probability that every poll of a tick drops is negligible, and the
/// gate bound absorbs it.
///
/// `ticks` counts post-warmup campaign ticks; queries are assumed
/// uniform per tick, so fractions are tick fractions.
pub fn predict_availability(
    fault: &FaultConfig,
    res: &ResilienceConfig,
    publish_interval: f64,
    poll_interval: f64,
    warmup: f64,
    horizon: f64,
    ticks: u64,
) -> AvailabilityPrediction {
    let mut ingest = SupervisedIngest::new(res, 1, horizon);
    let mut poll = |prev, now| usize::from(any_poll_delivers(fault, poll_interval, prev, now));
    // Warmup tick (epoch 1) — not part of the campaign accounting.
    ingest.tick(warmup, &mut poll);
    let warm = ingest.stats();
    let (mut unavailable_ticks, mut degraded_ticks) = (0u64, 0u64);
    for _ in 0..ticks {
        ingest.tick(publish_interval, &mut poll);
        let open = ingest.breaker().state() != BreakerState::Closed;
        let state = ServingState::derive(ingest.age_ticks(), open, res);
        unavailable_ticks += u64::from(state == ServingState::Unavailable);
        degraded_ticks += u64::from(state != ServingState::Healthy);
    }
    let (done, total) = (ingest.stats(), ticks.max(1) as f64);
    AvailabilityPrediction {
        availability: 1.0 - unavailable_ticks as f64 / total,
        degraded_fraction: degraded_ticks as f64 / total,
        published_ticks: done.publishes - warm.publishes,
        failed_ticks: done.failures - warm.failures,
        short_circuited_ticks: done.breaker_short_circuits - warm.breaker_short_circuits,
        unavailable_ticks,
    }
}

/// Whether any sensor poll scheduled in `(prev, now]` lands outside
/// every blackout window (polls fire on the global `interval` grid).
fn any_poll_delivers(fault: &FaultConfig, interval: f64, prev: f64, now: f64) -> bool {
    if interval <= 0.0 || now <= prev {
        return false;
    }
    let mut k = (prev / interval).floor() as u64;
    loop {
        let t = k as f64 * interval;
        if t > now {
            return false;
        }
        if t > prev && !fault.in_blackout(t) {
            return true;
        }
        k += 1;
    }
}

/// One arm (supervised or unsupervised) of the chaos campaign, as
/// committed in `BENCH_servicechaos.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosArm {
    /// Queries issued.
    pub requests: u64,
    /// Queries answered 200 (healthy or degraded).
    pub ok: u64,
    /// 200s marked `degraded: true`.
    pub degraded: u64,
    /// Queries shed with 429.
    pub shed: u64,
    /// Queries refused with 503 (Unavailable).
    pub unavailable: u64,
    /// Non-503 fraction (the paper-facing availability number).
    pub availability: f64,
    /// Degraded fraction of the answered queries.
    pub degraded_fraction: f64,
    /// 429 fraction of all queries.
    pub shed_rate: f64,
    /// 99th-percentile query latency under fault, microseconds.
    pub p99_us: u64,
    /// Snapshots published during the campaign.
    pub epochs_published: u64,
    /// Ingest ticks that failed outright.
    pub ingest_failures: u64,
    /// Ingest retries consumed.
    pub ingest_retries: u64,
    /// Breaker trips (streak or failed probe).
    pub breaker_trips: u64,
    /// Watchdog-forced trips.
    pub watchdog_trips: u64,
}

/// The committed chaos-campaign record: both arms plus the
/// predicted-vs-measured availability gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Master seed for platforms, faults, and the request stream.
    pub seed: u64,
    /// Campaign ticks per arm (after the warmup publish).
    pub ticks: u64,
    /// Queries replayed between consecutive ticks.
    pub queries_per_tick: u64,
    /// Distinct request configs whose cached/uncached/degraded answers
    /// were verified bit-identical before measuring.
    pub soundness_checked_configs: u64,
    /// The resilient service under chaos.
    pub supervised: ChaosArm,
    /// The fault-blind, fresh-data-only baseline under the same chaos.
    pub unsupervised: ChaosArm,
    /// Availability predicted by the retry/breaker DP for the
    /// supervised arm.
    pub predicted_availability: f64,
    /// `|predicted - measured|` for the supervised arm (gated).
    pub availability_error: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serving_state_orders_by_severity_and_escalates() {
        assert!(ServingState::Healthy < ServingState::Degraded);
        assert!(ServingState::Degraded < ServingState::Stale);
        assert!(ServingState::Stale < ServingState::Unavailable);
        assert_eq!(ServingState::Healthy.escalate(), ServingState::Degraded);
        assert_eq!(ServingState::Stale.escalate(), ServingState::Unavailable);
        assert_eq!(
            ServingState::Unavailable.escalate(),
            ServingState::Unavailable
        );
        assert_eq!(ServingState::default(), ServingState::Unavailable);
    }

    #[test]
    fn derive_walks_the_bands_and_breaker_escalates() {
        let res = ResilienceConfig {
            degraded_age_ticks: 3,
            stale_age_ticks: 5,
            ..ResilienceConfig::default()
        };
        let walk: Vec<ServingState> = (0..7)
            .map(|age| ServingState::derive(age, false, &res))
            .collect();
        use ServingState::*;
        assert_eq!(
            walk,
            [
                Healthy,
                Healthy,
                Degraded,
                Degraded,
                Stale,
                Stale,
                Unavailable
            ]
        );
        assert_eq!(ServingState::derive(0, true, &res), Degraded);
        assert_eq!(ServingState::derive(4, true, &res), Unavailable);
    }

    #[test]
    fn widening_is_identity_in_the_healthy_band() {
        assert_eq!(widening_factor(0, 1), 1.0);
        assert_eq!(widening_factor(1, 1), 1.0);
        assert_eq!(widening_factor(2, 1), 2.0f64.sqrt());
        assert_eq!(widening_factor(5, 1), 5.0f64.sqrt());
    }

    #[test]
    fn admission_sheds_past_the_token_budget_and_refills() {
        let adm = Admission::new(AdmissionConfig {
            miss_tokens_per_tick: 2,
        });
        let a = adm.try_admit_miss();
        let b = adm.try_admit_miss();
        assert!(a.is_some() && b.is_some());
        assert!(adm.try_admit_miss().is_none(), "third miss must shed");
        assert_eq!(adm.shed(), 1);
        adm.refill();
        assert!(adm.try_admit_miss().is_some(), "refill restores budget");
    }

    #[test]
    fn racing_misses_take_exactly_the_budget() {
        const THREADS: u64 = 4;
        const CALLS: u64 = 1_000;
        let adm = Admission::new(AdmissionConfig {
            miss_tokens_per_tick: 1_000,
        });
        // Every thread hammers the CAS loop at once (the barrier lines
        // them up); the bucket must hand out each token exactly once,
        // whatever the interleaving.
        let start = std::sync::Barrier::new(THREADS as usize);
        let race = || -> u64 {
            std::thread::scope(|s| {
                let racers: Vec<_> = (0..THREADS)
                    .map(|_| {
                        s.spawn(|| {
                            start.wait();
                            (0..CALLS)
                                .filter(|_| adm.try_admit_miss().is_some())
                                .count() as u64
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).sum()
            })
        };
        assert_eq!(race(), 1_000);
        assert_eq!(adm.shed(), 3_000);
        adm.refill();
        assert_eq!(race(), 1_000, "refill restores exactly one budget");
        assert_eq!(adm.shed(), 6_000);
    }

    #[test]
    fn unbounded_admission_never_sheds_or_drains() {
        let adm = Admission::new(AdmissionConfig::unbounded());
        for _ in 0..10_000 {
            assert!(adm.try_admit_miss().is_some());
        }
        assert_eq!(adm.shed(), 0);
    }

    #[test]
    fn predictor_is_all_healthy_without_faults() {
        let fault = FaultConfig::none(1);
        let res = ResilienceConfig::default();
        let p = predict_availability(&fault, &res, 5.0, 5.0, 600.0, 1e9, 200);
        assert_eq!(p.published_ticks, 200);
        assert_eq!(p.failed_ticks + p.short_circuited_ticks, 0);
        assert_eq!(p.availability, 1.0);
        assert_eq!(p.degraded_fraction, 0.0);
    }

    #[test]
    fn predictor_rides_through_a_short_blackout_with_retries() {
        let mut fault = FaultConfig::none(1);
        // One 120 s blackout shortly after warmup.
        fault.blackouts.push((650.0, 770.0));
        let res = ResilienceConfig::default();
        let p = predict_availability(&fault, &res, 5.0, 5.0, 600.0, 1e9, 100);
        // The default retry budget (30+60+120 s of backoff) crosses the
        // window inside a single tick: nothing fails, nothing is 503.
        assert_eq!(p.failed_ticks, 0, "{p:?}");
        assert_eq!(p.unavailable_ticks, 0);
        assert_eq!(p.availability, 1.0);
    }

    #[test]
    fn predictor_unsupervised_fails_through_the_same_blackout() {
        let mut fault = FaultConfig::none(1);
        fault.blackouts.push((650.0, 770.0));
        let res = ResilienceConfig::unsupervised();
        let p = predict_availability(&fault, &res, 5.0, 5.0, 600.0, 1e9, 100);
        // 120 s / 5 s-per-tick = 24 failed ticks, unavailable from age 2.
        assert_eq!(p.failed_ticks, 24, "{p:?}");
        assert!(p.unavailable_ticks >= 20, "{p:?}");
        assert!(p.availability < 0.85, "{p:?}");
    }

    #[test]
    fn poll_oracle_respects_blackouts_and_window_edges() {
        let mut fault = FaultConfig::none(0);
        fault.blackouts.push((10.0, 20.0));
        // Poll at 15 is blacked out; window (10, 15] has no delivery.
        assert!(!any_poll_delivers(&fault, 5.0, 10.0, 15.0));
        // Poll at 20 is outside (`t < hi` is exclusive at the end).
        assert!(any_poll_delivers(&fault, 5.0, 15.0, 20.0));
        // Poll at 5 sits outside the window.
        assert!(any_poll_delivers(&fault, 5.0, 0.0, 5.0));
        // Empty or reversed window: nothing fires.
        assert!(!any_poll_delivers(&fault, 5.0, 5.0, 5.0));
        // A poll at exactly `prev` belongs to the previous advance.
        assert!(!any_poll_delivers(&fault, 5.0, 5.0, 9.0));
    }

    mod widening_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            // The service-level widening factor is monotone in snapshot
            // age and never shrinks an interval.
            #[test]
            fn widening_monotone_and_never_below_one(
                age in 0u64..10_000,
                healthy in 0u64..64,
            ) {
                let f = widening_factor(age, healthy);
                let g = widening_factor(age + 1, healthy);
                prop_assert!(f >= 1.0);
                prop_assert!(g >= f, "age {age}: {g} < {f}");
            }

            // Applying the factor around the mean preserves the mean and
            // only ever grows the half-width; inside the healthy band
            // the interval is untouched exactly.
            #[test]
            fn widened_intervals_never_shrink(
                mean in 0.1f64..1e6,
                half in 0.0f64..1e5,
                age in 0u64..512,
                healthy in 0u64..16,
            ) {
                let (lo, hi) = (mean - half, mean + half);
                let f = widening_factor(age, healthy);
                let (wlo, whi) = (mean - half * f, mean + half * f);
                prop_assert!(whi - wlo >= (hi - lo) - 1e-12);
                if age <= healthy {
                    prop_assert_eq!(wlo.to_bits(), lo.to_bits());
                    prop_assert_eq!(whi.to_bits(), hi.to_bits());
                }
            }
        }
    }
}
