//! Deterministic, seeded fault injection for the simulated world.
//!
//! The paper's experiments assume a healthy measurement substrate: "The
//! Network Weather Service supplied us with accurate run-time information
//! ... at 5 second intervals", and every worker survives every run. A
//! production deployment gets none of those guarantees — sensors miss
//! polls, measurements arrive late or corrupted, monitoring blacks out
//! for whole windows, machines get slammed by competing load, and workers
//! die mid-iteration. This module is the *configuration surface* for all
//! of those faults; the graceful-degradation behaviour that absorbs them
//! lives in `prodpred-nws` (staleness-aware queries) and `prodpred-sor`
//! (typed solve errors instead of deadlocks).
//!
//! ## Determinism
//!
//! Every per-poll decision is a **pure function** of
//! `(fault seed, resource id, poll index)` — a SplitMix64-style hash, no
//! mutable RNG state anywhere. Two consequences:
//!
//! * the same master seed and fault config replay bit-for-bit,
//! * the decision stream cannot depend on thread schedule or on how many
//!   polls some *other* resource performed, so fault-injected experiment
//!   sweeps stay bit-identical at any pool thread count.

use crate::load::{MAX_AVAILABILITY, MIN_AVAILABILITY};
use serde::{Deserialize, Serialize};

/// A window of elevated competing load on one machine: availability is
/// multiplied by `availability_factor` (clamped to the availability
/// bounds) for `duration` seconds starting at `start`. Storms perturb the
/// simulated *ground truth*, so both the NWS and the distributed runs see
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LoadStorm {
    /// Index of the machine hit by the storm.
    pub machine: usize,
    /// Storm onset, in platform seconds.
    pub start: f64,
    /// Storm length in seconds.
    pub duration: f64,
    /// Multiplier applied to availability during the storm, in `(0, 1]`.
    pub availability_factor: f64,
}

/// Death of one SOR worker at a chosen half-iteration (a red or black
/// phase; half-iteration `2k` is iteration `k`'s red phase). Consumed by
/// the `prodpred-sor` parallel drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkerDeath {
    /// Rank (strip/block index) of the worker that dies.
    pub rank: usize,
    /// Half-iteration at the start of which the worker dies.
    pub at_half_iteration: usize,
}

/// Why an intensity value was rejected by
/// [`FaultConfig::try_with_intensity`]. Carries the offending value so
/// service-layer callers can echo it back to the client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IntensityError {
    /// The value was NaN or infinite.
    NotFinite(f64),
    /// The value was finite but outside `[0, 1]`.
    OutOfRange(f64),
}

impl IntensityError {
    /// The check itself, for a caller that wants the verdict without the
    /// [`FaultConfig`] (and its two vectors) that
    /// [`FaultConfig::try_with_intensity`] would build.
    ///
    /// # Errors
    ///
    /// [`IntensityError::NotFinite`] for NaN or ±infinity,
    /// [`IntensityError::OutOfRange`] for finite values outside
    /// `[0, 1]`; both carry the offending value.
    pub fn check(intensity: f64) -> Result<(), IntensityError> {
        if !intensity.is_finite() {
            return Err(IntensityError::NotFinite(intensity));
        }
        if !(0.0..=1.0).contains(&intensity) {
            return Err(IntensityError::OutOfRange(intensity));
        }
        Ok(())
    }
}

impl std::fmt::Display for IntensityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotFinite(v) => write!(f, "fault intensity must be finite, got {v}"),
            Self::OutOfRange(v) => write!(f, "fault intensity must be in [0, 1], got {v}"),
        }
    }
}

impl std::error::Error for IntensityError {}

/// The full fault model for one experiment. All probabilities are per
/// scheduled sensor poll, in `[0, 1]`; the decision order on each poll is
/// dropout → delay → spike → corruption (first match wins).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master fault seed. Independent of the platform seed so the same
    /// environment can be replayed under different fault streams.
    pub seed: u64,
    /// Probability a scheduled poll is silently missed.
    pub dropout: f64,
    /// Probability a measurement is delayed: the value measured up to
    /// [`FaultConfig::max_delay_intervals`] cadences earlier is what
    /// arrives at this poll (late, stale data — consecutive delayed polls
    /// can deliver measurements out of their original order).
    pub delay: f64,
    /// Largest delay, in sensor cadences (>= 1 when `delay > 0`).
    pub max_delay_intervals: u32,
    /// Probability of an outlier spike: the measured value is scaled by
    /// [`FaultConfig::spike_factor`] or its reciprocal (alternating by
    /// hash bit), producing the junk readings a flaky sensor emits.
    pub spike: f64,
    /// Multiplicative spike magnitude, > 1.
    pub spike_factor: f64,
    /// Probability a measurement arrives corrupted (non-finite). Sensors
    /// must drop these rather than panic or poison their history.
    pub corrupt: f64,
    /// NWS blackout windows `(start, end)` in platform seconds: every
    /// poll scheduled inside one is missed, for every resource.
    pub blackouts: Vec<(f64, f64)>,
    /// Per-machine load storms, applied to the platform's ground truth.
    pub storms: Vec<LoadStorm>,
    /// Optional worker death for the threaded SOR drivers.
    pub worker_death: Option<WorkerDeath>,
}

impl FaultConfig {
    /// A fault-free configuration (useful as the zero point of a sweep).
    pub fn none(seed: u64) -> Self {
        Self {
            seed,
            dropout: 0.0,
            delay: 0.0,
            max_delay_intervals: 4,
            spike: 0.0,
            spike_factor: 8.0,
            corrupt: 0.0,
            blackouts: Vec::new(),
            storms: Vec::new(),
            worker_death: None,
        }
    }

    /// A fault mix scaled by `intensity` in `[0, 1]`: at 0 everything is
    /// healthy; at 1 the sensors miss 15% of polls, 10% of measurements
    /// arrive up to 4 cadences late, 6% spike, 4% are corrupt, a blackout
    /// window of up to ~7 minutes opens at t = 360 s, and machine 0
    /// weathers a load storm from t = 320 s. Both windows open just after
    /// the experiments' 300 s NWS warm-up, so they overlap the run window
    /// of the Platform 1/2 series (which span a few hundred seconds).
    /// This is the knob the `fault_study` bin sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `intensity` is outside `[0, 1]` (including NaN). Callers
    /// handling untrusted input (the service's `fault_intensity` query
    /// parameter) must use [`FaultConfig::try_with_intensity`] instead.
    pub fn with_intensity(seed: u64, intensity: f64) -> Self {
        match Self::try_with_intensity(seed, intensity) {
            Ok(cfg) => cfg,
            Err(_) => panic!("intensity must be in [0, 1]"),
        }
    }

    /// The typed-error twin of [`FaultConfig::with_intensity`]: rejects
    /// non-finite values and values outside `[0, 1]` instead of
    /// panicking. This is the only constructor service/HTTP input may
    /// reach.
    ///
    /// # Errors
    ///
    /// Whatever [`IntensityError::check`] rejects.
    pub fn try_with_intensity(seed: u64, intensity: f64) -> Result<Self, IntensityError> {
        IntensityError::check(intensity)?;
        let mut cfg = Self::none(seed);
        cfg.dropout = 0.15 * intensity;
        cfg.delay = 0.10 * intensity;
        cfg.spike = 0.06 * intensity;
        cfg.corrupt = 0.04 * intensity;
        if intensity > 0.0 {
            cfg.blackouts.push((360.0, 360.0 + 400.0 * intensity));
            cfg.storms.push(LoadStorm {
                machine: 0,
                start: 320.0,
                duration: 1500.0 * intensity,
                availability_factor: 0.4,
            });
        }
        Ok(cfg)
    }

    /// Total probability that a poll outside a blackout window is
    /// perturbed in some way.
    pub fn perturbation_rate(&self) -> f64 {
        (self.dropout + self.delay + self.spike + self.corrupt).min(1.0)
    }

    /// Whether `t` falls inside any blackout window.
    pub fn in_blackout(&self, t: f64) -> bool {
        self.blackouts.iter().any(|&(lo, hi)| t >= lo && t < hi)
    }
}

/// What happens to one scheduled sensor poll.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PollOutcome {
    /// The measurement arrives on time and intact.
    Deliver,
    /// The poll is missed (dropout or blackout): nothing arrives.
    Drop,
    /// A delayed measurement: the value measured `intervals` cadences
    /// earlier is what arrives now.
    Stale {
        /// Delay in sensor cadences, >= 1.
        intervals: u32,
    },
    /// An outlier: the measured value is multiplied by `factor`.
    Spike {
        /// Multiplicative perturbation.
        factor: f64,
    },
    /// The measurement arrives non-finite and must be discarded.
    Corrupt,
}

/// The per-resource view of a [`FaultConfig`]: decides the outcome of
/// each scheduled poll from `(seed, resource, poll index)` alone.
#[derive(Debug, Clone, Copy)]
pub struct SensorFaults<'a> {
    cfg: &'a FaultConfig,
    resource_seed: u64,
}

/// A fault plan bound to a config: hands out per-resource views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    config: FaultConfig,
}

/// Resource id conventionally used for the shared network segment's
/// bandwidth sensor (machines use their index).
pub const BANDWIDTH_RESOURCE: u64 = u64::MAX;

impl FaultPlan {
    /// Binds a plan to a config.
    pub fn new(config: FaultConfig) -> Self {
        Self { config }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The fault view for one resource (machine index, or
    /// [`BANDWIDTH_RESOURCE`] for the segment sensor).
    pub fn sensor(&self, resource: u64) -> SensorFaults<'_> {
        SensorFaults {
            cfg: &self.config,
            resource_seed: mix(self.config.seed ^ mix(resource.wrapping_add(1))),
        }
    }
}

impl SensorFaults<'_> {
    /// Decides the outcome of the poll scheduled at time `t` with
    /// per-sensor index `poll_index`. Pure: the same arguments always
    /// produce the same outcome.
    pub fn outcome(&self, t: f64, poll_index: u64) -> PollOutcome {
        if self.cfg.in_blackout(t) {
            return PollOutcome::Drop;
        }
        let h = mix(self
            .resource_seed
            .wrapping_add(mix(poll_index.wrapping_add(1))));
        let u = unit(h);
        let mut edge = self.cfg.dropout;
        if u < edge {
            return PollOutcome::Drop;
        }
        edge += self.cfg.delay;
        if u < edge {
            let span = self.cfg.max_delay_intervals.max(1) as u64;
            // A second independent hash stream picks the delay length.
            let intervals = 1 + (mix(h ^ 0xA5A5_A5A5_A5A5_A5A5) % span) as u32;
            return PollOutcome::Stale { intervals };
        }
        edge += self.cfg.spike;
        if u < edge {
            let up = mix(h ^ 0x5A5A_5A5A_5A5A_5A5A) & 1 == 0;
            let factor = if up {
                self.cfg.spike_factor
            } else {
                1.0 / self.cfg.spike_factor
            };
            return PollOutcome::Spike { factor };
        }
        edge += self.cfg.corrupt;
        if u < edge {
            return PollOutcome::Corrupt;
        }
        PollOutcome::Deliver
    }
}

/// Applies load storms to a platform's machine traces: availability is
/// scaled by each storm's factor inside its window, clamped to the
/// availability bounds. Storms naming out-of-range machines are ignored.
/// The oracle of [`GrowingPlatform`](crate::GrowingPlatform)'s storms,
/// which lays them on as the load is generated.
#[cfg(test)]
pub(crate) fn apply_storms(platform: &mut crate::Platform, storms: &[LoadStorm]) {
    check_storms(storms);
    for (i, machine) in platform.machines.iter_mut().enumerate() {
        if storms.iter().any(|s| s.machine == i) {
            let (t0, dt) = (machine.load.t0(), machine.load.dt());
            let values = machine.load.values().iter().enumerate();
            let values = values.map(|(k, &v)| stormed(storms, i, t0 + k as f64 * dt, v));
            machine.load = crate::Trace::new(t0, dt, values.collect());
        }
    }
}

/// Panics unless every storm's factor lies in `(0, 1]`.
pub(crate) fn check_storms(storms: &[LoadStorm]) {
    for storm in storms {
        assert!(
            storm.availability_factor > 0.0 && storm.availability_factor <= 1.0,
            "storm factor must be in (0, 1]"
        );
    }
}

/// Machine `machine`'s sample `v` at time `t` under `storms`: scaled by
/// each storm whose window holds `t`, in order, and clamped to the
/// availability bounds. A pointwise function of absolute time, so samples
/// stormed piece by piece as a trace grows equal the trace stormed whole.
pub(crate) fn stormed(storms: &[LoadStorm], machine: usize, t: f64, v: f64) -> f64 {
    storms
        .iter()
        .filter(|s| s.machine == machine && t >= s.start && t < s.start + s.duration)
        .fold(v, |v, s| {
            (v * s.availability_factor).clamp(MIN_AVAILABILITY, MAX_AVAILABILITY)
        })
}

/// The campaign's kill law: the probability a
/// [`FaultSchedule::random_campaign`] schedule carries 0..=4 worker
/// deaths. The campaign draws against its running sums; the fault model
/// (`prodpred_core::faultmodel`) predicts from the weights themselves.
pub const CAMPAIGN_KILL_WEIGHTS: [f64; 5] = [0.25, 0.40, 0.20, 0.10, 0.05];

/// A deterministic per-attempt fault schedule for one supervised solve:
/// attempt `k` (0-based) suffers `kills[k]`; attempts past the end of
/// the list run clean. This models *transient* worker deaths — a death
/// consumed by one attempt does not re-fire on the retry — while a
/// schedule longer than the retry budget deterministically exhausts the
/// supervisor into a typed error.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Index of this schedule within its campaign (labels output rows).
    pub id: u64,
    /// One worker death per faulty attempt, in attempt order.
    pub kills: Vec<WorkerDeath>,
}

impl FaultSchedule {
    /// A schedule with no faults: every attempt runs clean.
    pub fn healthy(id: u64) -> Self {
        Self {
            id,
            kills: Vec::new(),
        }
    }

    /// Whether this schedule injects no faults at all.
    pub fn is_healthy(&self) -> bool {
        self.kills.is_empty()
    }

    /// The death (if any) injected into attempt `attempt` (0-based).
    pub fn kill_for_attempt(&self, attempt: u32) -> Option<WorkerDeath> {
        self.kills.get(attempt as usize).copied()
    }

    /// A deterministic campaign of `n` schedules drawn from `seed` for a
    /// solve with `ranks` workers and `iterations` red+black iterations.
    /// Every decision is a pure function of `(seed, schedule id, kill
    /// index)`, so the same arguments replay bit-for-bit on any machine
    /// and at any pool thread count. The kill count follows
    /// [`CAMPAIGN_KILL_WEIGHTS`], weighted toward recoverable runs so a
    /// bounded-retry supervisor sees both successful recoveries and
    /// deterministic exhaustion. Every generated death targets a live
    /// rank at a half-iteration that actually fires.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` or `iterations` is zero.
    pub fn random_campaign(
        seed: u64,
        n: usize,
        ranks: usize,
        iterations: usize,
    ) -> Vec<FaultSchedule> {
        assert!(ranks > 0, "need at least one rank");
        assert!(iterations > 0, "need at least one iteration");
        (0..n as u64)
            .map(|id| {
                let base = mix(seed ^ mix(id.wrapping_add(1)));
                let u = unit(base);
                // The first count whose running weight exceeds `u`.
                let mut threshold = 0.0;
                let n_kills = CAMPAIGN_KILL_WEIGHTS
                    .iter()
                    .position(|w| {
                        threshold += w;
                        u < threshold
                    })
                    .unwrap_or(CAMPAIGN_KILL_WEIGHTS.len() - 1);
                let kills = (0..n_kills as u64)
                    .map(|k| {
                        let h = mix(base ^ mix(k.wrapping_add(1)));
                        WorkerDeath {
                            rank: (h % ranks as u64) as usize,
                            at_half_iteration: (mix(h ^ 0x0F0F_0F0F_0F0F_0F0F)
                                % (2 * iterations) as u64)
                                as usize,
                        }
                    })
                    .collect();
                FaultSchedule { id, kills }
            })
            .collect()
    }
}

/// SplitMix64 finalizer: the stateless mixing step behind every fault
/// decision. Public so downstream deterministic decisions (e.g. retry
/// backoff jitter in the supervisor) can draw from the same stateless
/// stream discipline: hash your inputs, never carry RNG state.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a hash to `[0, 1)` with 53 bits of precision.
pub fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * 1.110_223_024_625_156_5e-16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineClass;
    use crate::platform::Platform;

    fn count_outcomes(cfg: &FaultConfig, resource: u64, polls: u64) -> [usize; 5] {
        let plan = FaultPlan::new(cfg.clone());
        let view = plan.sensor(resource);
        let mut counts = [0usize; 5];
        for i in 0..polls {
            let idx = match view.outcome(100.0, i) {
                PollOutcome::Deliver => 0,
                PollOutcome::Drop => 1,
                PollOutcome::Stale { .. } => 2,
                PollOutcome::Spike { .. } => 3,
                PollOutcome::Corrupt => 4,
            };
            counts[idx] += 1;
        }
        counts
    }

    #[test]
    fn outcomes_are_pure_functions_of_inputs() {
        let cfg = FaultConfig::with_intensity(7, 0.8);
        let plan = FaultPlan::new(cfg.clone());
        let view = plan.sensor(3);
        for i in (0..500).rev() {
            // Querying in any order, any number of times, gives the same
            // answer: no hidden RNG state.
            assert_eq!(view.outcome(50.0, i), view.outcome(50.0, i));
        }
        let again = FaultPlan::new(cfg);
        for i in 0..500 {
            assert_eq!(view.outcome(50.0, i), again.sensor(3).outcome(50.0, i));
        }
    }

    #[test]
    fn resources_get_independent_streams() {
        let cfg = FaultConfig::with_intensity(7, 1.0);
        let a = count_outcomes(&cfg, 0, 4000);
        let b = count_outcomes(&cfg, 1, 4000);
        assert_ne!(a, b, "two resources should not share a fault stream");
        let bw = count_outcomes(&cfg, BANDWIDTH_RESOURCE, 4000);
        assert_ne!(a, bw);
    }

    #[test]
    fn rates_match_configuration() {
        let cfg = FaultConfig::with_intensity(11, 1.0);
        let counts = count_outcomes(&cfg, 2, 50_000);
        let n = 50_000.0;
        assert!((counts[1] as f64 / n - 0.15).abs() < 0.01, "{counts:?}");
        assert!((counts[2] as f64 / n - 0.10).abs() < 0.01, "{counts:?}");
        assert!((counts[3] as f64 / n - 0.06).abs() < 0.01, "{counts:?}");
        assert!((counts[4] as f64 / n - 0.04).abs() < 0.01, "{counts:?}");
    }

    #[test]
    fn zero_intensity_is_fault_free() {
        let cfg = FaultConfig::with_intensity(3, 0.0);
        assert_eq!(cfg, FaultConfig::none(3));
        let counts = count_outcomes(&cfg, 0, 10_000);
        assert_eq!(counts[0], 10_000);
    }

    #[test]
    fn try_with_intensity_rejects_bad_values_with_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(matches!(
                FaultConfig::try_with_intensity(1, bad),
                Err(IntensityError::NotFinite(_))
            ));
        }
        for bad in [-0.1, 1.01, -1e9, 2.0] {
            assert_eq!(
                FaultConfig::try_with_intensity(1, bad),
                Err(IntensityError::OutOfRange(bad))
            );
        }
        // Error messages name the offending value.
        let msg = IntensityError::OutOfRange(1.5).to_string();
        assert!(msg.contains("1.5"), "{msg}");
    }

    #[test]
    fn try_with_intensity_matches_the_panicking_constructor_on_valid_input() {
        for intensity in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(
                FaultConfig::try_with_intensity(7, intensity).unwrap(),
                FaultConfig::with_intensity(7, intensity)
            );
        }
    }

    #[test]
    #[should_panic(expected = "intensity must be in [0, 1]")]
    fn with_intensity_still_panics_out_of_range() {
        let _ = FaultConfig::with_intensity(0, 1.5);
    }

    #[test]
    fn blackout_drops_every_poll_inside_the_window() {
        let mut cfg = FaultConfig::none(5);
        cfg.blackouts.push((100.0, 200.0));
        let plan = FaultPlan::new(cfg);
        let view = plan.sensor(0);
        assert_eq!(view.outcome(150.0, 30), PollOutcome::Drop);
        assert_eq!(view.outcome(99.9, 19), PollOutcome::Deliver);
        assert_eq!(view.outcome(200.0, 40), PollOutcome::Deliver);
    }

    #[test]
    fn stale_intervals_bounded_and_positive() {
        let mut cfg = FaultConfig::none(9);
        cfg.delay = 1.0;
        cfg.max_delay_intervals = 4;
        let plan = FaultPlan::new(cfg);
        let view = plan.sensor(1);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2000 {
            match view.outcome(10.0, i) {
                PollOutcome::Stale { intervals } => {
                    assert!((1..=4).contains(&intervals));
                    seen.insert(intervals);
                }
                other => panic!("expected Stale, got {other:?}"),
            }
        }
        assert!(seen.len() > 1, "delay lengths should vary");
    }

    #[test]
    fn random_campaign_is_deterministic_and_in_bounds() {
        let a = FaultSchedule::random_campaign(42, 300, 4, 20);
        let b = FaultSchedule::random_campaign(42, 300, 4, 20);
        assert_eq!(a, b, "same seed must replay bit-for-bit");
        assert_ne!(
            a,
            FaultSchedule::random_campaign(43, 300, 4, 20),
            "different seeds must differ"
        );
        for (i, s) in a.iter().enumerate() {
            assert_eq!(s.id, i as u64);
            for kill in &s.kills {
                assert!(kill.rank < 4, "rank {} out of range", kill.rank);
                assert!(
                    kill.at_half_iteration < 40,
                    "half {} never fires",
                    kill.at_half_iteration
                );
            }
        }
    }

    #[test]
    fn random_campaign_mixes_healthy_and_faulty_schedules() {
        let campaign = FaultSchedule::random_campaign(7, 400, 4, 20);
        let healthy = campaign.iter().filter(|s| s.is_healthy()).count();
        let multi = campaign.iter().filter(|s| s.kills.len() >= 2).count();
        let beyond_retries = campaign.iter().filter(|s| s.kills.len() >= 4).count();
        assert!(healthy > 50, "expected ~25% healthy, got {healthy}/400");
        assert!(multi > 40, "expected a multi-death tail, got {multi}/400");
        assert!(
            beyond_retries > 0,
            "campaign should include schedules that exhaust a 3-retry budget"
        );
        // Per-attempt access matches the list.
        let s = campaign.iter().find(|s| s.kills.len() == 2).unwrap();
        assert_eq!(s.kill_for_attempt(0), Some(s.kills[0]));
        assert_eq!(s.kill_for_attempt(1), Some(s.kills[1]));
        assert_eq!(s.kill_for_attempt(2), None);
    }

    #[test]
    fn storms_scale_availability_inside_window_only() {
        let mut p = Platform::dedicated(&[MachineClass::Sparc10, MachineClass::Sparc10], 100.0);
        apply_storms(
            &mut p,
            &[LoadStorm {
                machine: 0,
                start: 20.0,
                duration: 30.0,
                availability_factor: 0.4,
            }],
        );
        assert!((p.machines[0].load.at(30.0) - 0.4).abs() < 1e-12);
        assert_eq!(p.machines[0].load.at(10.0), 1.0);
        assert_eq!(p.machines[0].load.at(60.0), 1.0);
        // Untouched machine stays dedicated.
        assert_eq!(p.machines[1].load.at(30.0), 1.0);
        // Out-of-range storms are ignored, not a panic.
        apply_storms(
            &mut p,
            &[LoadStorm {
                machine: 99,
                start: 0.0,
                duration: 1.0,
                availability_factor: 0.5,
            }],
        );
    }

    #[test]
    fn storm_respects_availability_floor() {
        let mut p = Platform::dedicated(&[MachineClass::Sparc2], 50.0);
        // Repeated storms cannot push availability below the floor.
        for _ in 0..10 {
            apply_storms(
                &mut p,
                &[LoadStorm {
                    machine: 0,
                    start: 0.0,
                    duration: 50.0,
                    availability_factor: 0.01,
                }],
            );
        }
        assert!(p.machines[0].load.min() >= MIN_AVAILABILITY);
    }
}
