//! Stochastic CPU-availability processes.
//!
//! The paper's experiments hinge on two load regimes:
//!
//! * **Platform 1** (Section 3.1): tri-modal load whose "values typically
//!   remained within a single mode during execution" — modeled by
//!   [`SingleModeAr1`], a mean-reverting process inside one mode, and by
//!   [`MarkovModal`] with long dwell times.
//! * **Platform 2** (Section 3.2): "a 4-modal distribution that was bursty
//!   in nature" — [`MarkovModal`] with short dwells, or the mechanistic
//!   [`SessionLoad`] in which competing user jobs arrive and depart and the
//!   scheduler's round-robin sharing produces availability `~ 1/(1+k)`,
//!   which is precisely why production load histograms have modes near
//!   1, 1/2, 1/3, 1/4 … (Figure 5's modes at 0.94, 0.49, 0.33).
//!
//! All generators are seeded and produce [`Trace`]s, so every experiment is
//! reproducible.

use crate::event::EventQueue;
use crate::rng::{exponential, weighted_index};
use crate::trace::Trace;
use prodpred_stochastic::Normal;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Lowest availability a trace will report — a production machine always
/// makes *some* progress.
pub(crate) const MIN_AVAILABILITY: f64 = 0.01;

/// Highest availability — daemons and interrupts keep a real workstation
/// just below 1.0 (the paper's top mode sits at 0.94).
pub(crate) const MAX_AVAILABILITY: f64 = 1.0;

fn clamp_avail(x: f64) -> f64 {
    x.clamp(MIN_AVAILABILITY, MAX_AVAILABILITY)
}

/// A generator of availability traces.
///
/// Every implementor is *prefix stable*: its [`LoadGenerator::stream`] is
/// an endless sample stream that draws from the seeded generator strictly
/// in step order, and [`LoadGenerator::generate`] takes its first `steps`
/// samples — so a shorter trace is a sample-for-sample prefix of a longer
/// one, and because [`Trace`]'s prefix sums are sequential too, every query
/// that stays inside the shorter horizon answers with the same bits. The
/// preset platforms grow with a series clock on this.
pub trait LoadGenerator {
    /// The process as an endless stream from `seed` at step `dt`.
    fn stream(&self, seed: u64, dt: f64) -> Box<dyn LoadStream>;

    /// A trace of the first `steps` samples of [`LoadGenerator::stream`],
    /// at resolution `dt` starting at `t0`.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0`.
    fn generate(&self, seed: u64, t0: f64, dt: f64, steps: usize) -> Trace {
        Trace::new(t0, dt, self.stream(seed, dt).pull(steps))
    }
}

/// An endless, prefix-stable sample stream, boxed: what the preset
/// platforms pull from as their clock advances. A pull of many samples is
/// one dynamic call over a loop compiled for the generator.
pub trait LoadStream: Send {
    /// The next `k` samples, in order.
    fn pull(&mut self, k: usize) -> Vec<f64>;
}

impl<I: Iterator<Item = f64> + Send> LoadStream for I {
    fn pull(&mut self, k: usize) -> Vec<f64> {
        self.take(k).collect()
    }
}

/// A dedicated machine: constant availability (default 1.0). The oracle
/// for [`crate::Platform::dedicated`], whose machines carry its trace.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct Dedicated {
    /// The constant availability level.
    pub(crate) level: f64,
}

#[cfg(test)]
impl Default for Dedicated {
    fn default() -> Self {
        Self { level: 1.0 }
    }
}

#[cfg(test)]
impl LoadGenerator for Dedicated {
    /// The constant level, clamped, forever.
    fn stream(&self, _seed: u64, _dt: f64) -> Box<dyn LoadStream> {
        Box::new(std::iter::repeat(clamp_avail(self.level)))
    }
}

/// Mean-reverting availability inside a single mode: an AR(1) process
/// `x' = mean + phi (x - mean) + eps`, `eps ~ N(0, sd sqrt(1 - phi^2))`,
/// whose stationary distribution is `N(mean, sd^2)` — Platform 1's
/// "load ... in the center mode, with a mean of 0.48" and stochastic value
/// `0.48 ± 0.05`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SingleModeAr1 {
    /// Stationary mean of the mode.
    pub mean: f64,
    /// Stationary standard deviation of the mode.
    pub sd: f64,
    /// Autocorrelation per step, in `[0, 1)`.
    pub phi: f64,
}

impl SingleModeAr1 {
    /// Platform 1's center mode: `0.48 ± 0.05` means sd = 0.025.
    pub fn platform1_center() -> Self {
        Self {
            mean: 0.48,
            sd: 0.025,
            phi: 0.9,
        }
    }
}

impl LoadGenerator for SingleModeAr1 {
    /// A stationary first draw, then one innovation per step.
    fn stream(&self, seed: u64, _dt: f64) -> Box<dyn LoadStream> {
        assert!((0.0..1.0).contains(&self.phi), "phi must be in [0,1)");
        assert!(self.sd >= 0.0);
        let Self { mean, sd, phi } = *self;
        let mut rng = StdRng::seed_from_u64(seed);
        let innovation = Normal::new(0.0, sd * (1.0 - phi * phi).sqrt());
        let mut x = Normal::new(mean, sd).draw(&mut rng);
        Box::new(std::iter::repeat_with(move || {
            let out = clamp_avail(x);
            x = mean + phi * (x - mean) + innovation.draw(&mut rng);
            out
        }))
    }
}

/// One mode of a multi-modal load process.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModeSpec {
    /// Long-run fraction of time spent in the mode.
    pub weight: f64,
    /// Mode mean availability.
    pub mean: f64,
    /// Mode standard deviation.
    pub sd: f64,
}

/// Multi-modal availability with Markov mode switching: dwell in a mode for
/// an exponential time, then jump to a mode drawn by weight. Within a mode
/// the value follows an AR(1) around the mode mean.
///
/// Long dwells (relative to application runtime) reproduce Platform 1
/// ("values typically remained within a single mode during execution");
/// short dwells reproduce Platform 2's burstiness (Figure 11).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MarkovModal {
    /// The modes.
    pub modes: Vec<ModeSpec>,
    /// Mean dwell time in a mode, in seconds.
    pub mean_dwell: f64,
    /// Within-mode AR(1) autocorrelation per step.
    pub phi: f64,
}

impl MarkovModal {
    /// The paper's Figure-5 tri-modal load (modes at 0.94, 0.49, 0.33),
    /// with dwell long enough that a run stays in one mode.
    pub fn platform1(mean_dwell: f64) -> Self {
        Self {
            modes: vec![
                ModeSpec {
                    weight: 0.35,
                    mean: 0.94,
                    sd: 0.02,
                },
                ModeSpec {
                    weight: 0.40,
                    mean: 0.49,
                    sd: 0.025,
                },
                ModeSpec {
                    weight: 0.25,
                    mean: 0.33,
                    sd: 0.02,
                },
            ],
            mean_dwell,
            phi: 0.8,
        }
    }

    /// Platform 2's 4-modal bursty load (Figure 10's shape: modes near
    /// 0.95, 0.63, 0.45, 0.25 with fast switching).
    pub fn platform2(mean_dwell: f64) -> Self {
        Self {
            modes: vec![
                ModeSpec {
                    weight: 0.30,
                    mean: 0.95,
                    sd: 0.02,
                },
                ModeSpec {
                    weight: 0.25,
                    mean: 0.63,
                    sd: 0.03,
                },
                ModeSpec {
                    weight: 0.25,
                    mean: 0.45,
                    sd: 0.03,
                },
                ModeSpec {
                    weight: 0.20,
                    mean: 0.25,
                    sd: 0.02,
                },
            ],
            mean_dwell,
            phi: 0.7,
        }
    }
}

impl LoadGenerator for MarkovModal {
    /// The mode, the dwell left in it and the value are the stream's state.
    fn stream(&self, seed: u64, dt: f64) -> Box<dyn LoadStream> {
        assert!(!self.modes.is_empty(), "MarkovModal needs modes");
        assert!(self.mean_dwell > 0.0, "dwell time must be positive");
        let (modes, phi, rate) = (self.modes.clone(), self.phi, 1.0 / self.mean_dwell);
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = modes.iter().map(|m| m.weight).collect();
        let innovations: Vec<Normal> = modes
            .iter()
            .map(|m| Normal::new(0.0, m.sd * (1.0 - phi * phi).sqrt()))
            .collect();
        let mut mode = weighted_index(&mut rng, &weights);
        let mut dwell_left = exponential(&mut rng, rate);
        let mut x = modes[mode].mean;
        Box::new(std::iter::repeat_with(move || {
            let m = &modes[mode];
            x = m.mean + phi * (x - m.mean) + innovations[mode].draw(&mut rng);
            let out = clamp_avail(x);
            dwell_left -= dt;
            if dwell_left <= 0.0 {
                mode = weighted_index(&mut rng, &weights);
                dwell_left = exponential(&mut rng, rate);
                // Re-center quickly on mode change (a burst).
                x = modes[mode].mean;
            }
            out
        }))
    }
}

/// Mechanistic competing-user model: other users' CPU-bound jobs arrive as
/// a Poisson process (rate `arrival_rate` per second) and run for
/// exponential durations (mean `mean_duration`). Round-robin scheduling
/// gives our application `idle_avail / (1 + k)` of the CPU when `k` jobs
/// compete — which is exactly why production load histograms are modal.
///
/// **Not prefix stable**, so not a [`LoadGenerator`]: the event queue is
/// run to the horizon first and the per-sample noise is drawn from the
/// same stream afterwards, so a longer trace differs from its first
/// sample on. Generate it at the horizon it will be read at; the preset
/// platforms, which grow as streams, cannot use it.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SessionLoad {
    /// Competing-job arrival rate (jobs per second).
    pub arrival_rate: f64,
    /// Mean competing-job duration in seconds.
    pub mean_duration: f64,
    /// Availability when idle (daemon overhead keeps it below 1; the
    /// paper's top mode is 0.94).
    pub idle_avail: f64,
    /// Measurement noise sd added to each sample.
    pub noise_sd: f64,
}

impl Default for SessionLoad {
    fn default() -> Self {
        Self {
            arrival_rate: 1.0 / 120.0,
            mean_duration: 120.0,
            idle_avail: 0.94,
            noise_sd: 0.01,
        }
    }
}

/// DES event for the session model.
enum SessionEvent {
    Arrival,
    Departure,
}

impl SessionLoad {
    /// A trace of `steps` samples at resolution `dt` starting at `t0`,
    /// deterministically from `seed`.
    pub fn generate(&self, seed: u64, t0: f64, dt: f64, steps: usize) -> Trace {
        assert!(self.arrival_rate > 0.0 && self.mean_duration > 0.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let horizon = dt * steps as f64;

        // Run the DES over [0, horizon), recording the active-job count as
        // a step function (change points).
        let mut q: EventQueue<SessionEvent> = EventQueue::new();
        q.schedule(
            exponential(&mut rng, self.arrival_rate),
            SessionEvent::Arrival,
        );
        // Warm start: begin with the stationary expected number of jobs
        // (M/M/inf mean = lambda * mean_duration).
        let warm = (self.arrival_rate * self.mean_duration).round() as usize;
        let mut active: i64 = warm as i64;
        for _ in 0..warm {
            q.schedule(
                exponential(&mut rng, 1.0 / self.mean_duration),
                SessionEvent::Departure,
            );
        }
        let mut change_points: Vec<(f64, i64)> = vec![(0.0, active)];
        while let Some((t, ev)) = q.pop() {
            if t >= horizon {
                break;
            }
            match ev {
                SessionEvent::Arrival => {
                    active += 1;
                    q.schedule(
                        t + exponential(&mut rng, 1.0 / self.mean_duration),
                        SessionEvent::Departure,
                    );
                    q.schedule(
                        t + exponential(&mut rng, self.arrival_rate),
                        SessionEvent::Arrival,
                    );
                }
                SessionEvent::Departure => {
                    active = (active - 1).max(0);
                }
            }
            change_points.push((t, active));
        }

        // Sample the step function every dt and add measurement noise.
        let noise = Normal::new(0.0, self.noise_sd);
        let mut values = Vec::with_capacity(steps);
        let mut cp_idx = 0usize;
        for i in 0..steps {
            let t = i as f64 * dt;
            while cp_idx + 1 < change_points.len() && change_points[cp_idx + 1].0 <= t {
                cp_idx += 1;
            }
            let k = change_points[cp_idx].1 as f64;
            let avail = self.idle_avail / (1.0 + k) + noise.draw(&mut rng);
            values.push(clamp_avail(avail));
        }
        Trace::new(t0, dt, values)
    }
}

/// Convenience: generate with a derived per-machine seed so each machine in
/// a platform gets an independent but reproducible stream.
pub fn derive_seed(experiment_seed: u64, machine_index: usize) -> u64 {
    // SplitMix64 step keeps derived seeds well-separated.
    let mut z = experiment_seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(machine_index as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_stochastic::Summary;

    /// Fraction of steps within `tol` of any of the given mode means: the
    /// oracle for the modal structure of [`MarkovModal::stream`] and
    /// [`SessionLoad`]'s generator.
    pub(crate) fn modal_occupancy(trace: &Trace, means: &[f64], tol: f64) -> f64 {
        let hits = trace
            .values()
            .iter()
            .filter(|&&v| means.iter().any(|&m| (v - m).abs() <= tol))
            .count();
        hits as f64 / trace.len() as f64
    }

    #[test]
    fn dedicated_is_constant() {
        let t = Dedicated::default().generate(1, 0.0, 1.0, 100);
        assert!(t.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn ar1_stationary_moments() {
        let g = SingleModeAr1 {
            mean: 0.48,
            sd: 0.025,
            phi: 0.9,
        };
        let t = g.generate(7, 0.0, 1.0, 60_000);
        let s = Summary::from_slice(t.values());
        assert!((s.mean() - 0.48).abs() < 0.005, "mean {}", s.mean());
        assert!((s.sd() - 0.025).abs() < 0.005, "sd {}", s.sd());
    }

    #[test]
    fn ar1_is_autocorrelated() {
        let g = SingleModeAr1 {
            mean: 0.5,
            sd: 0.05,
            phi: 0.9,
        };
        let t = g.generate(8, 0.0, 1.0, 20_000);
        let v = t.values();
        let s = Summary::from_slice(v);
        let mut num = 0.0;
        for w in v.windows(2) {
            num += (w[0] - s.mean()) * (w[1] - s.mean());
        }
        let rho = num / (v.len() as f64 * s.variance());
        assert!((rho - 0.9).abs() < 0.05, "autocorrelation {rho}");
    }

    #[test]
    fn ar1_deterministic_per_seed() {
        let g = SingleModeAr1::platform1_center();
        let a = g.generate(42, 0.0, 5.0, 100);
        let b = g.generate(42, 0.0, 5.0, 100);
        assert_eq!(a, b);
        let c = g.generate(43, 0.0, 5.0, 100);
        assert_ne!(a, c);
    }

    #[test]
    fn markov_long_dwell_stays_in_mode() {
        // Platform 1 regime: dwell of ~an hour vs a few-minute window.
        let g = MarkovModal::platform1(3600.0);
        let t = g.generate(3, 0.0, 5.0, 60); // 5-minute window
        let s = Summary::from_slice(t.values());
        // All samples near a single mode: spread far below between-mode gaps.
        assert!(s.sd() < 0.08, "sd {} suggests a mode switch", s.sd());
    }

    #[test]
    fn markov_short_dwell_visits_modes() {
        // Platform 2 regime: bursty.
        let g = MarkovModal::platform2(30.0);
        let t = g.generate(4, 0.0, 5.0, 5000);
        let means: Vec<f64> = g.modes.iter().map(|m| m.mean).collect();
        let occ = modal_occupancy(&t, &means, 0.08);
        assert!(occ > 0.8, "occupancy {occ}");
        // The trace must actually visit multiple modes.
        let s = Summary::from_slice(t.values());
        assert!(s.sd() > 0.15, "sd {} too small for bursty load", s.sd());
    }

    #[test]
    fn markov_long_run_weights() {
        let g = MarkovModal::platform1(50.0);
        let t = g.generate(5, 0.0, 1.0, 200_000);
        // Mode occupancy should roughly match the specified weights.
        let mut counts = [0usize; 3];
        for &v in t.values() {
            let mut best = 0;
            let mut bd = f64::INFINITY;
            for (i, m) in g.modes.iter().enumerate() {
                let d = (v - m.mean).abs();
                if d < bd {
                    bd = d;
                    best = i;
                }
            }
            counts[best] += 1;
        }
        let n = t.len() as f64;
        assert!((counts[0] as f64 / n - 0.35).abs() < 0.06);
        assert!((counts[1] as f64 / n - 0.40).abs() < 0.06);
        assert!((counts[2] as f64 / n - 0.25).abs() < 0.06);
    }

    #[test]
    fn session_load_is_modal_at_harmonic_levels() {
        let g = SessionLoad {
            arrival_rate: 1.0 / 100.0,
            mean_duration: 100.0,
            idle_avail: 0.94,
            noise_sd: 0.01,
        };
        let t = g.generate(6, 0.0, 1.0, 100_000);
        // Modes at 0.94/(1+k): 0.94, 0.47, 0.313, 0.235 ...
        let occ = modal_occupancy(&t, &[0.94, 0.47, 0.3133, 0.235, 0.188, 0.94 / 6.0], 0.05);
        assert!(occ > 0.9, "harmonic occupancy {occ}");
        // Mean number of competitors is ~1 (M/M/inf with rho=1).
        let s = Summary::from_slice(t.values());
        assert!(s.mean() > 0.3 && s.mean() < 0.8, "mean {}", s.mean());
    }

    #[test]
    fn session_load_values_bounded() {
        let g = SessionLoad::default();
        let t = g.generate(9, 0.0, 2.0, 10_000);
        assert!(t.min() >= MIN_AVAILABILITY);
        assert!(t.max() <= MAX_AVAILABILITY);
    }

    #[test]
    fn derive_seed_separates_machines() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(1, 0));
    }
}
