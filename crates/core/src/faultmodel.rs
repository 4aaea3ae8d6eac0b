//! Fault-aware prediction: degradation terms for the structural model.
//!
//! The Table 2 algebra predicts `ExTime` for a healthy run; this module
//! extends it with the expected cost of running *unhealthily* — the
//! production regime PR 3–4 built (sensor faults, load storms, worker
//! deaths, checkpointed supervised retry). Every quantity here is a
//! **pure function** of `(FaultConfig, RetryPolicy, CheckpointPolicy,
//! iterations, procs)`: no RNG state, no clock, no measurement — so a
//! fault-aware prediction is exactly as bit-deterministic as a healthy
//! one, and the epoch-keyed service cache can key on the intensity.
//!
//! Four families of terms, each anchored to a measured artifact:
//!
//! 1. **Retry and recovery expectations** ([`predict_campaign`]): an
//!    exact dynamic program over the chaos-campaign generator's
//!    kill-count distribution and uniform kill positions, mirroring the
//!    supervisor's resume semantics (`sor::checkpoint::kill_in_segment`:
//!    a kill whose absolute half-iteration precedes the resumed segment
//!    never re-fires). It yields expected retries, expected deterministic
//!    backoff (`RetryPolicy::backoff_secs` summed in expectation),
//!    expected iterations saved by checkpoint resume, expected redone
//!    work, and the completion rate. Validated against `BENCH_chaos.json`
//!    by the `faultpred_study` bench.
//! 2. **Checkpoint write overhead**
//!    (`checkpoint_overhead_fraction`): amortized per iteration,
//!    anchored to the measured healthy overhead in `BENCH_chaos.json`
//!    (≈0.66% over 480 iterations at cadence 240, i.e. ≈3.2
//!    iteration-times per snapshot — both the snapshot copy and the
//!    iteration sweep are `O(n²)`, so the cost in iteration-times is
//!    size-independent).
//! 3. **Environment windows** (`blackout_delay`,
//!    [`storm_stretched_secs`]): a launch inside an NWS blackout waits
//!    out the (chained) windows; a load storm on one machine stretches
//!    the run by piecewise integration of the platform's capacity,
//!    crediting the weighted decomposition with rebalancing work away
//!    from the stormed machine.
//! 4. **Sensor-degradation spread widening** ([`spread_widening`]): a
//!    perturbed measurement stream thins the usable sample, so the
//!    stochastic interval widens by the usual `1/√(kept fraction)`.
//!
//! [`FaultModel::terms`] folds all four into the
//! [`DegradationTerms`] the
//! structural crate applies on top of a healthy prediction. Zero
//! intensity returns the exact identity terms, keeping the healthy
//! service path bit-identical.

use crate::supervisor::RetryPolicy;
use prodpred_simgrid::faults::{FaultConfig, IntensityError, CAMPAIGN_KILL_WEIGHTS};
use prodpred_sor::CheckpointPolicy;
use prodpred_structural::DegradationTerms;
use serde::{Deserialize, Serialize};

/// Measured healthy checkpoint overhead from `BENCH_chaos.json`: one
/// snapshot over 480 iterations cost ≈0.66% of the solve.
pub(crate) const ANCHOR_OVERHEAD: f64 = 0.0066;
/// Iterations of the overhead anchor measurement.
pub(crate) const ANCHOR_ITERATIONS: f64 = 480.0;
/// Snapshots taken in the anchor measurement (cadence 240 → 1).
pub(crate) const ANCHOR_CHECKPOINTS: f64 = 1.0;

/// Cost of writing one checkpoint, in iteration-times, from the anchor.
pub(crate) fn checkpoint_cost_iterations() -> f64 {
    ANCHOR_OVERHEAD * ANCHOR_ITERATIONS / ANCHOR_CHECKPOINTS
}

/// The kill-count distribution at fault `intensity`: healthy mass
/// interpolates from 1 down to the campaign's 25%, the faulty tail
/// scales linearly. `intensity` 1 is exactly the campaign distribution.
pub(crate) fn kill_distribution(intensity: f64) -> [f64; 5] {
    let mut dist = [0.0; 5];
    dist[0] = 1.0 - (1.0 - CAMPAIGN_KILL_WEIGHTS[0]) * intensity;
    for (k, w) in CAMPAIGN_KILL_WEIGHTS.iter().enumerate().skip(1) {
        dist[k] = intensity * w;
    }
    dist
}

/// Exact expectations of a checkpointed supervised solve under the
/// campaign's fault law. All means are per schedule, averaged over the
/// whole kill-count distribution (completed and abandoned alike).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CampaignPrediction {
    /// Probability the supervisor delivers the solve within its retry
    /// budget.
    pub completion_rate: f64,
    /// Expected retries per schedule.
    pub mean_retries: f64,
    /// Expected backoff seconds per schedule (the deterministic jittered
    /// schedule of [`RetryPolicy::backoff_secs`], summed in expectation).
    pub mean_backoff_secs: f64,
    /// Expected iterations *not* recomputed per schedule because resume
    /// restarted from a checkpoint instead of iteration 0.
    pub mean_saved_iterations: f64,
    /// Expected iterations redone per schedule (work between the resume
    /// checkpoint and the kill, lost and recomputed).
    pub mean_recomputed_iterations: f64,
}

/// Predicts the supervised chaos campaign at `intensity` by exact
/// enumeration: for each kill count the DP follows the attempt sequence
/// over the uniform kill-position law, tracking the distribution of
/// resume points exactly as the supervisor does — a kill fires only if
/// its absolute half-iteration is not behind the resumed segment
/// (`kill_in_segment`), the resume point is the last segment boundary
/// before the kill, and a kill that lands behind the resume point is
/// consumed without firing (the attempt completes clean).
///
/// Every resume point is a checkpoint boundary, so the DP holds one
/// probability per checkpoint segment and bills each segment's kills in
/// closed form: a kill anywhere in segment `[r, r + m)` resumes at `r`,
/// saves `r` iterations and redoes `it − r + ¼` of them. Each attempt
/// costs O(segments²) whatever the iteration count, and each retry's
/// backoff is drawn once per call. The sums are the per-iteration walk's
/// regrouped, equal to it within 1e-10 relative.
///
/// Ranks never enter: which worker dies does not change retry, backoff,
/// or checkpoint arithmetic.
pub fn predict_campaign(
    intensity: f64,
    retry: &RetryPolicy,
    checkpoint: CheckpointPolicy,
    iterations: usize,
) -> CampaignPrediction {
    let dist = kill_distribution(intensity);
    let mut out = CampaignPrediction {
        completion_rate: 0.0,
        mean_retries: 0.0,
        mean_backoff_secs: 0.0,
        mean_saved_iterations: 0.0,
        mean_recomputed_iterations: 0.0,
    };
    if iterations == 0 {
        out.completion_rate = 1.0;
        return out;
    }
    // The backoff before each retry a kill count can reach.
    let backoff: [f64; MAX_KILLS] = std::array::from_fn(|a| retry.backoff_secs(a as u32));
    let segments = Segments::new(checkpoint, iterations);
    let mut slots = vec![0.0f64; 2 * segments.count];
    for (kills, &p_k) in dist.iter().enumerate() {
        // tidy:allow(PP004): exact-zero mass skip, not a tolerance check
        if p_k == 0.0 {
            continue;
        }
        let e = segments.expect_for_kill_count(kills, retry.max_retries, &backoff, &mut slots);
        out.completion_rate += p_k * e.completion_rate;
        out.mean_retries += p_k * e.mean_retries;
        out.mean_backoff_secs += p_k * e.mean_backoff_secs;
        out.mean_saved_iterations += p_k * e.mean_saved_iterations;
        out.mean_recomputed_iterations += p_k * e.mean_recomputed_iterations;
    }
    out
}

/// Most kills a campaign schedule carries.
const MAX_KILLS: usize = CAMPAIGN_KILL_WEIGHTS.len() - 1;

/// A solve of `iterations` cut into checkpoint segments of `every`
/// iterations, the last one possibly shorter. Without checkpoints the
/// whole solve is one segment and every retry resumes at 0.
struct Segments {
    iterations: usize,
    every: usize,
    count: usize,
}

impl Segments {
    fn new(checkpoint: CheckpointPolicy, iterations: usize) -> Self {
        let every = match checkpoint.every {
            0 => iterations,
            k => k.min(iterations),
        };
        Self {
            iterations,
            every,
            count: iterations.div_ceil(every),
        }
    }

    /// The DP for one fixed kill count: a distribution over resume
    /// segments evolves attempt by attempt. `slots` holds two
    /// distributions of [`Segments::count`] each and is overwritten.
    fn expect_for_kill_count(
        &self,
        kills: usize,
        max_retries: u32,
        backoff: &[f64; MAX_KILLS],
        slots: &mut [f64],
    ) -> CampaignPrediction {
        let total = self.iterations as f64;
        let mut out = CampaignPrediction {
            completion_rate: 0.0,
            mean_retries: 0.0,
            mean_backoff_secs: 0.0,
            mean_saved_iterations: 0.0,
            mean_recomputed_iterations: 0.0,
        };
        // states[j] = probability the current attempt resumes from
        // segment j, i.e. from iteration j·every.
        let (mut states, mut next) = slots.split_at_mut(self.count);
        states.fill(0.0);
        states[0] = 1.0;
        for (attempt, &backoff) in backoff.iter().enumerate().take(kills) {
            // The kill's half-iteration is uniform over [0, 2·iterations);
            // halves behind the resume point are consumed without firing.
            for (j, &p) in states.iter().enumerate() {
                out.completion_rate += p * (j * self.every) as f64 / total;
            }
            if attempt as u32 >= max_retries {
                // Budget exhausted: every fired kill abandons the solve.
                return out;
            }
            next.fill(0.0);
            for (j, &p) in states.iter().enumerate() {
                // tidy:allow(PP004): exact-zero mass skip, not a tolerance check
                if p == 0.0 {
                    continue;
                }
                // Each iteration of a segment is killed with probability
                // p/total; the retry resumes at the segment's start.
                let mass = p / total;
                for (t, resumed) in next.iter_mut().enumerate().skip(j) {
                    let start = t * self.every;
                    let m = self.every.min(self.iterations - start) as f64;
                    let fired = m * mass;
                    out.mean_retries += fired;
                    out.mean_backoff_secs += fired * backoff;
                    out.mean_saved_iterations += fired * start as f64;
                    // Σ over the segment of (it + ¼ − start): a
                    // mid-iteration death loses a quarter iteration of
                    // in-flight work on average.
                    out.mean_recomputed_iterations += mass * (m * 0.25 + m * (m - 1.0) / 2.0);
                    *resumed += fired;
                }
            }
            std::mem::swap(&mut states, &mut next);
        }
        // No kill left for this attempt: every surviving path completes
        // clean.
        out.completion_rate += states.iter().sum::<f64>();
        out
    }
}

/// Seconds a launch at `start` waits for NWS blackout windows to pass,
/// chaining through overlapping or adjacent windows.
pub(crate) fn blackout_delay(cfg: &FaultConfig, start: f64) -> f64 {
    let mut t = start;
    loop {
        let mut advanced = false;
        for &(lo, hi) in &cfg.blackouts {
            if t >= lo && t < hi {
                t = hi;
                advanced = true;
            }
        }
        if !advanced {
            return t - start;
        }
    }
}

/// Floor on the modelled platform capacity during storms, so a
/// pathological storm stack cannot divide by ~zero.
const MIN_CAPACITY: f64 = 0.05;

/// The platform's relative capacity at time `t` under `cfg`'s storms,
/// for a run decomposed over `procs` machines. The weighted
/// decomposition rebalances work away from a stormed machine, so one
/// machine at availability factor `f` costs the platform
/// `(1 − f)/procs` of its capacity, not `1 − f` of it.
fn capacity_at(cfg: &FaultConfig, procs: usize, t: f64) -> f64 {
    let p = procs.max(1) as f64;
    let mut lost = 0.0;
    for storm in &cfg.storms {
        if t >= storm.start && t < storm.start + storm.duration {
            lost += 1.0 - storm.availability_factor;
        }
    }
    ((p - lost) / p).max(MIN_CAPACITY)
}

/// Stretches a healthy `healthy_secs` run launched at `start` through
/// `cfg`'s load storms by piecewise integration: work proceeds at the
/// platform's capacity, which drops inside storm windows. Returns the
/// degraded wall-clock duration (≥ `healthy_secs`).
pub fn storm_stretched_secs(cfg: &FaultConfig, procs: usize, start: f64, healthy_secs: f64) -> f64 {
    if healthy_secs <= 0.0 || cfg.storms.is_empty() {
        return healthy_secs;
    }
    let mut boundaries: Vec<f64> = cfg
        .storms
        .iter()
        .flat_map(|s| [s.start, s.start + s.duration])
        .filter(|&b| b > start)
        .collect();
    boundaries.sort_by(f64::total_cmp);
    let mut t = start;
    let mut remaining = healthy_secs;
    for b in boundaries {
        let rate = capacity_at(cfg, procs, t);
        let can = (b - t) * rate;
        if can >= remaining {
            return t + remaining / rate - start;
        }
        remaining -= can;
        t = b;
    }
    t + remaining / capacity_at(cfg, procs, t) - start
}

/// Cap on the poll-loss fraction entering the widening term, so a fully
/// perturbed sensor stream widens the interval by at most `1/√0.1`.
const MAX_WIDENING_LOSS: f64 = 0.9;

/// Spread widening from sensor degradation: dropouts, spikes, and
/// corruption thin the usable measurement stream to a `1 − rate`
/// fraction, so the sample-driven interval widens by `1/√(1 − rate)`.
pub fn spread_widening(cfg: &FaultConfig) -> f64 {
    let lost = cfg.perturbation_rate().min(MAX_WIDENING_LOSS);
    1.0 / (1.0 - lost).sqrt()
}

/// Amortized checkpoint write overhead for a solve of `iterations`
/// iterations under `policy`, as a fraction of the healthy runtime.
pub(crate) fn checkpoint_overhead_fraction(policy: CheckpointPolicy, iterations: usize) -> f64 {
    if iterations == 0 {
        return 0.0;
    }
    checkpoint_cost_iterations() * policy.checkpoints_for(iterations) as f64 / iterations as f64
}

/// The full fault-aware prediction model: a fault environment plus the
/// recovery machinery a supervised run deploys against it. Construct it
/// with [`FaultModel::for_intensity`] (the service's canonical knob) or
/// directly from explicit parts; then [`FaultModel::terms`] yields the
/// degradation terms for any healthy prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultModel {
    /// The fault environment.
    pub fault: FaultConfig,
    /// The supervisor's retry policy.
    pub retry: RetryPolicy,
    /// The checkpoint cadence supervised solves run under.
    pub checkpoint: CheckpointPolicy,
    /// Red+black iterations of the predicted solve.
    pub iterations: usize,
    /// Machines the solve is decomposed over.
    pub procs: usize,
    /// The intensity the model was built at (drives the kill law).
    pub intensity: f64,
}

impl FaultModel {
    /// The service's canonical model at `intensity`: the
    /// [`FaultConfig::try_with_intensity`] environment (seed 0 — the
    /// environment shape, not a replay), the default retry policy, and a
    /// five-segment checkpoint cadence.
    ///
    /// # Errors
    ///
    /// Rejects non-finite intensities and intensities outside `[0, 1]`.
    pub fn for_intensity(
        intensity: f64,
        iterations: usize,
        procs: usize,
    ) -> Result<Self, IntensityError> {
        let fault = FaultConfig::try_with_intensity(0, intensity)?;
        Ok(Self {
            fault,
            retry: RetryPolicy::default(),
            checkpoint: CheckpointPolicy::every((iterations / 5).max(1)),
            iterations,
            procs,
            intensity,
        })
    }

    /// The campaign expectations of this model's fault law.
    pub fn campaign(&self) -> CampaignPrediction {
        predict_campaign(
            self.intensity,
            &self.retry,
            self.checkpoint,
            self.iterations,
        )
    }

    /// The degradation terms for a healthy prediction of `healthy_secs`
    /// launched at platform time `start`. Zero intensity returns the
    /// exact identity ([`DegradationTerms::none`]), so the healthy path
    /// stays bit-identical; at positive intensity the supervision
    /// machinery (checkpoints, retries) is engaged and billed.
    pub fn terms(&self, healthy_secs: f64, start: f64) -> DegradationTerms {
        // tidy:allow(PP004): documented bit-exact identity gate at zero
        if self.intensity == 0.0 {
            return DegradationTerms::none();
        }
        let delay = blackout_delay(&self.fault, start);
        let launch = start + delay;
        let storm_slowdown = if healthy_secs > 0.0 {
            storm_stretched_secs(&self.fault, self.procs, launch, healthy_secs) / healthy_secs
        } else {
            1.0
        };
        let campaign = self.campaign();
        let recovery_overhead = if self.iterations > 0 {
            campaign.mean_recomputed_iterations / self.iterations as f64
        } else {
            0.0
        };
        let ckpt_overhead = checkpoint_overhead_fraction(self.checkpoint, self.iterations);
        DegradationTerms {
            slowdown: storm_slowdown * (1.0 + ckpt_overhead + recovery_overhead),
            delay_secs: campaign.mean_backoff_secs + delay,
            widening: spread_widening(&self.fault),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_simgrid::faults::LoadStorm;
    use prodpred_stochastic::StochasticValue;
    use prodpred_structural::{degrade, DegradationTerms};

    /// The per-iteration walk the segment DP replaced, kept as its
    /// oracle: a distribution over every resume iteration, each kill
    /// position billed one at a time.
    fn walk_for_kill_count(
        kills: usize,
        retry: &RetryPolicy,
        checkpoint: CheckpointPolicy,
        iterations: usize,
    ) -> CampaignPrediction {
        let total = iterations as f64;
        let mut out = CampaignPrediction {
            completion_rate: 0.0,
            mean_retries: 0.0,
            mean_backoff_secs: 0.0,
            mean_saved_iterations: 0.0,
            mean_recomputed_iterations: 0.0,
        };
        let mut states = vec![0.0f64; iterations + 1];
        states[0] = 1.0;
        for attempt in 0.. {
            if attempt >= kills {
                out.completion_rate += states.iter().sum::<f64>();
                break;
            }
            let mut next = vec![0.0f64; iterations + 1];
            let mut live = false;
            for (s, &p) in states.iter().enumerate().take(iterations) {
                if p == 0.0 {
                    continue;
                }
                out.completion_rate += p * s as f64 / total;
                for it in s..iterations {
                    let mass = p / total;
                    if attempt as u32 >= retry.max_retries {
                        continue;
                    }
                    out.mean_retries += mass;
                    out.mean_backoff_secs += mass * retry.backoff_secs(attempt as u32);
                    let resume = match checkpoint.every {
                        0 => 0,
                        k => s + ((it - s) / k) * k,
                    };
                    out.mean_saved_iterations += mass * resume as f64;
                    out.mean_recomputed_iterations += mass * (it as f64 + 0.25 - resume as f64);
                    next[resume] += mass;
                    live = true;
                }
            }
            states = next;
            if !live {
                break;
            }
        }
        out
    }

    /// The walk's campaign at `intensity`, folded from its per-kill-count
    /// expectations `walks` as `predict_campaign` folds its own.
    fn walked_campaign(intensity: f64, walks: &[CampaignPrediction]) -> CampaignPrediction {
        let mut out = CampaignPrediction {
            completion_rate: 0.0,
            mean_retries: 0.0,
            mean_backoff_secs: 0.0,
            mean_saved_iterations: 0.0,
            mean_recomputed_iterations: 0.0,
        };
        for (&p_k, e) in kill_distribution(intensity).iter().zip(walks) {
            if p_k == 0.0 {
                continue;
            }
            out.completion_rate += p_k * e.completion_rate;
            out.mean_retries += p_k * e.mean_retries;
            out.mean_backoff_secs += p_k * e.mean_backoff_secs;
            out.mean_saved_iterations += p_k * e.mean_saved_iterations;
            out.mean_recomputed_iterations += p_k * e.mean_recomputed_iterations;
        }
        out
    }

    /// The segment DP agrees with the walk within 1e-10 relative, field
    /// by field: five intensities, every iteration count 1–400 and two
    /// long runs, nine cadences (none, fixed ones from 1 up, the service's
    /// fifth, and one past the end) cutting at most 50 segments, and four
    /// retry policies (none, one retry, the default three, six with a
    /// capped backoff).
    #[test]
    fn segment_dp_matches_the_walk() {
        let policies = [
            RetryPolicy::none(),
            RetryPolicy {
                max_retries: 1,
                seed: 4242,
                ..RetryPolicy::default()
            },
            RetryPolicy::default(),
            RetryPolicy {
                max_retries: 6,
                base_backoff_secs: 7.5,
                backoff_factor: 3.0,
                max_backoff_secs: 100.0,
                jitter_fraction: 0.4,
                seed: 99,
            },
        ];
        let cadences = |n: usize| [0, 1, 2, 3, 7, 16, 64, (n / 5).max(1), n + 1];
        let mut worst = 0.0f64;
        let iterations = (1..=400).chain([1_000, 10_000]);
        for n in iterations {
            // The walk costs n × segments an attempt.
            for every in cadences(n).into_iter().filter(|&k| k == 0 || n / k <= 50) {
                let checkpoint = CheckpointPolicy::every(every);
                for retry in &policies {
                    let walks: Vec<CampaignPrediction> = (0..=MAX_KILLS)
                        .map(|kills| walk_for_kill_count(kills, retry, checkpoint, n))
                        .collect();
                    for intensity in [0.1, 0.25, 0.5, 0.75, 1.0] {
                        let dp = predict_campaign(intensity, retry, checkpoint, n);
                        let walked = walked_campaign(intensity, &walks);
                        for (a, b) in [
                            (dp.completion_rate, walked.completion_rate),
                            (dp.mean_retries, walked.mean_retries),
                            (dp.mean_backoff_secs, walked.mean_backoff_secs),
                            (dp.mean_saved_iterations, walked.mean_saved_iterations),
                            (
                                dp.mean_recomputed_iterations,
                                walked.mean_recomputed_iterations,
                            ),
                        ] {
                            let rel = if a == b { 0.0 } else { (a - b).abs() / b.abs() };
                            assert!(
                                rel <= 1e-10,
                                "n={n} every={every} {retry:?} at {intensity}: {dp:?} vs {walked:?}"
                            );
                            worst = worst.max(rel);
                        }
                    }
                }
            }
        }
        println!("largest relative deviation from the walk: {worst:e}");
    }

    #[test]
    fn kill_distribution_interpolates_to_the_campaign_law() {
        let zero = kill_distribution(0.0);
        assert_eq!(zero, [1.0, 0.0, 0.0, 0.0, 0.0]);
        let full = kill_distribution(1.0);
        for (a, b) in full.iter().zip(&CAMPAIGN_KILL_WEIGHTS) {
            assert!((a - b).abs() < 1e-15);
        }
        for i in [0.0, 0.3, 0.7, 1.0] {
            assert!((kill_distribution(i).iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn campaign_prediction_matches_hand_computed_expectations() {
        // The chaos-study configuration: 20 iterations, cadence 4,
        // default 3-retry policy.
        let retry = RetryPolicy {
            seed: 4242,
            ..RetryPolicy::default()
        };
        let p = predict_campaign(1.0, &retry, CheckpointPolicy::every(4), 20);
        // One kill always fires on a fresh attempt; the resume point is
        // uniform over {0, 4, 8, 12, 16}, so the second kill fires with
        // probability 0.6. Fold over the kill-count weights.
        assert!((0.9..=1.2).contains(&p.mean_retries), "{p:?}");
        // Completion only fails when four kills all fire.
        assert!(p.completion_rate > 0.99 && p.completion_rate < 1.0, "{p:?}");
        // A single resume saves 8 iterations in expectation.
        assert!(p.mean_saved_iterations > 3.0, "{p:?}");
        // Backoff per retry is ≈30–60 s under the default policy.
        assert!(
            p.mean_backoff_secs > 20.0 && p.mean_backoff_secs < 120.0,
            "{p:?}"
        );
    }

    #[test]
    fn campaign_prediction_is_monotone_in_intensity() {
        let retry = RetryPolicy::default();
        let cp = CheckpointPolicy::every(4);
        let mut last = predict_campaign(0.0, &retry, cp, 20);
        assert_eq!(last.mean_retries, 0.0);
        assert_eq!(last.completion_rate, 1.0);
        for i in [0.25, 0.5, 0.75, 1.0] {
            let p = predict_campaign(i, &retry, cp, 20);
            assert!(p.mean_retries > last.mean_retries);
            assert!(p.completion_rate <= last.completion_rate);
            assert!(p.mean_backoff_secs > last.mean_backoff_secs);
            last = p;
        }
    }

    #[test]
    fn no_retry_budget_means_no_backoff_and_lower_completion() {
        let none = RetryPolicy::none();
        let p = predict_campaign(1.0, &none, CheckpointPolicy::every(4), 20);
        assert_eq!(p.mean_retries, 0.0);
        assert_eq!(p.mean_backoff_secs, 0.0);
        assert_eq!(p.mean_saved_iterations, 0.0);
        // Any fired kill abandons the solve: completion = P(0 kills).
        assert!((p.completion_rate - 0.25).abs() < 1e-12, "{p:?}");
    }

    #[test]
    fn blackout_delay_chains_windows() {
        let mut cfg = FaultConfig::none(0);
        cfg.blackouts.push((100.0, 200.0));
        cfg.blackouts.push((200.0, 250.0));
        assert_eq!(blackout_delay(&cfg, 150.0), 100.0);
        assert_eq!(blackout_delay(&cfg, 99.0), 0.0);
        assert_eq!(blackout_delay(&cfg, 250.0), 0.0);
        assert_eq!(blackout_delay(&cfg, 210.0), 40.0);
    }

    #[test]
    fn storm_stretch_is_piecewise_and_bounded() {
        let mut cfg = FaultConfig::none(0);
        cfg.storms.push(LoadStorm {
            machine: 0,
            start: 100.0,
            duration: 50.0,
            availability_factor: 0.4,
        });
        // Entirely outside the storm: no stretch.
        assert_eq!(storm_stretched_secs(&cfg, 4, 200.0, 30.0), 30.0);
        // One machine of four at 0.4: capacity 3.4/4 = 0.85 inside the
        // window. A 17 s run fully inside stretches to 20 s.
        let inside = storm_stretched_secs(&cfg, 4, 100.0, 17.0);
        assert!((inside - 20.0).abs() < 1e-9, "{inside}");
        // A run crossing the window's end finishes the tail at rate 1.
        let crossing = storm_stretched_secs(&cfg, 4, 100.0, 60.0);
        // 50 s window delivers 42.5 s of work; remaining 17.5 at rate 1.
        assert!((crossing - 67.5).abs() < 1e-9, "{crossing}");
        // Single machine: full 1/0.4 stretch inside the window.
        let solo = storm_stretched_secs(&cfg, 1, 100.0, 10.0);
        assert!((solo - 25.0).abs() < 1e-9, "{solo}");
    }

    #[test]
    fn widening_grows_with_perturbation_and_is_capped() {
        let healthy = FaultConfig::none(0);
        assert_eq!(spread_widening(&healthy), 1.0);
        let light = FaultConfig::with_intensity(0, 0.5);
        let heavy = FaultConfig::with_intensity(0, 1.0);
        assert!(spread_widening(&light) > 1.0);
        assert!(spread_widening(&heavy) > spread_widening(&light));
        let mut saturated = FaultConfig::none(0);
        saturated.dropout = 1.0;
        saturated.corrupt = 1.0;
        assert!(spread_widening(&saturated) <= 1.0 / (1.0 - MAX_WIDENING_LOSS).sqrt() + 1e-12);
    }

    #[test]
    fn checkpoint_overhead_matches_the_anchor() {
        // The anchor configuration reproduces its own overhead.
        let f = checkpoint_overhead_fraction(CheckpointPolicy::every(240), 480);
        assert!((f - ANCHOR_OVERHEAD).abs() < 1e-12);
        assert_eq!(
            checkpoint_overhead_fraction(CheckpointPolicy::disabled(), 480),
            0.0
        );
        // Denser cadence costs proportionally more.
        let dense = checkpoint_overhead_fraction(CheckpointPolicy::every(4), 20);
        assert!(dense > f);
    }

    #[test]
    fn zero_intensity_terms_are_the_exact_identity() {
        let model = FaultModel::for_intensity(0.0, 50, 4).unwrap();
        let terms = model.terms(120.0, 500.0);
        assert!(terms.is_none());
        let v = StochasticValue::new(120.0, 6.0);
        let d = degrade(v, &terms);
        assert_eq!(d.mean().to_bits(), v.mean().to_bits());
        assert_eq!(d.half_width().to_bits(), v.half_width().to_bits());
    }

    #[test]
    fn terms_are_deterministic_and_monotone_in_intensity() {
        let mut last = DegradationTerms::none();
        for i in [0.25, 0.5, 0.75, 1.0] {
            let model = FaultModel::for_intensity(i, 50, 4).unwrap();
            let a = model.terms(120.0, 500.0);
            let b = model.terms(120.0, 500.0);
            assert_eq!(a.slowdown.to_bits(), b.slowdown.to_bits());
            assert_eq!(a.delay_secs.to_bits(), b.delay_secs.to_bits());
            assert_eq!(a.widening.to_bits(), b.widening.to_bits());
            assert!(a.slowdown >= last.slowdown, "{i}: {a:?} vs {last:?}");
            assert!(a.delay_secs > last.delay_secs, "{i}: {a:?} vs {last:?}");
            assert!(a.widening > last.widening, "{i}: {a:?} vs {last:?}");
            last = a;
        }
        // The degraded prediction is strictly worse than healthy.
        assert!(last.slowdown > 1.0);
    }

    #[test]
    fn bad_intensities_are_rejected() {
        for bad in [f64::NAN, f64::INFINITY, -0.5, 1.5] {
            assert!(FaultModel::for_intensity(bad, 50, 4).is_err(), "{bad}");
        }
    }
}
