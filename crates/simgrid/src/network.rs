//! The shared 10 Mbit ethernet.
//!
//! "The network was also shared by other users." Ethernet of that era is a
//! single shared bus, so one contention state governs every point-to-point
//! pair. Measured available bandwidth between two workstations is
//! long-tailed (paper Figure 3): a tight cluster just below the achievable
//! peak, with a tail toward low bandwidth under contention. We model the
//! *available fraction* of dedicated bandwidth with a two-state
//! (quiet/busy) Markov process: quiet samples cluster normally, busy
//! samples come from a thresholded lognormal tail.

use crate::load::{LoadGenerator, LoadStream};
use crate::rng::{exponential, uniform01};
use crate::trace::Trace;
use prodpred_stochastic::dist::Distribution;
use prodpred_stochastic::{LongTailed, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Static network parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct NetworkSpec {
    /// Dedicated (hardware) bandwidth in bytes/second. 10 Mbit ethernet
    /// is 1.25e6 B/s.
    pub dedicated_bw: f64,
    /// Per-message latency in seconds (software + medium acquisition).
    pub latency: f64,
}

impl Default for NetworkSpec {
    fn default() -> Self {
        Self {
            dedicated_bw: 1.25e6,
            latency: 1.0e-3,
        }
    }
}

/// Generator for the available-bandwidth-fraction trace.
///
/// Defaults reproduce the paper's Figure 3: on a 10 Mbit network the
/// observed bandwidth has mean ≈ 5.25 Mbit/s (fraction 0.525) with a tight
/// cluster near 5.7 Mbit/s and a contention tail reaching 2–4 Mbit/s.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EthernetContention {
    /// Achievable peak fraction of dedicated bandwidth (protocol ceiling —
    /// classic 10 Mbit ethernet tops out near 60% for user payloads).
    pub peak_fraction: f64,
    /// Cluster standard deviation (quiet network).
    pub cluster_sd: f64,
    /// Long-run fraction of time the network is busy.
    pub busy_weight: f64,
    /// Mean shortfall from the peak while busy, as a fraction.
    pub busy_gap_mean: f64,
    /// Shortfall standard deviation while busy.
    pub busy_gap_sd: f64,
    /// Mean dwell in a contention state, seconds.
    pub mean_dwell: f64,
}

impl Default for EthernetContention {
    fn default() -> Self {
        Self {
            peak_fraction: 0.56,
            cluster_sd: 0.015,
            busy_weight: 0.12,
            busy_gap_mean: 0.15,
            busy_gap_sd: 0.08,
            mean_dwell: 20.0,
        }
    }
}

impl LoadGenerator for EthernetContention {
    /// The available fraction: the busy flag and the dwell left are the
    /// stream's state.
    fn stream(&self, seed: u64, dt: f64) -> Box<dyn LoadStream> {
        assert!(self.mean_dwell > 0.0);
        let (busy_weight, rate) = (self.busy_weight, 1.0 / self.mean_dwell);
        let mut rng = StdRng::seed_from_u64(seed);
        let quiet = Normal::new(self.peak_fraction - 0.01, self.cluster_sd);
        let tail = LongTailed::below(self.peak_fraction, self.busy_gap_mean, self.busy_gap_sd);

        let mut busy = uniform01(&mut rng) < busy_weight;
        let mut dwell_left = exponential(&mut rng, rate);
        Box::new(std::iter::repeat_with(move || {
            let v = if busy {
                tail.sample(&mut rng)
            } else {
                quiet.sample(&mut rng)
            };
            dwell_left -= dt;
            if dwell_left <= 0.0 {
                // Leave the current state with probability matching the
                // long-run busy weight.
                busy = uniform01(&mut rng) < busy_weight;
                dwell_left = exponential(&mut rng, rate);
            }
            v.clamp(0.02, 1.0)
        }))
    }
}

/// The shared segment: spec + availability over time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ethernet {
    /// Hardware parameters.
    pub spec: NetworkSpec,
    /// Fraction of dedicated bandwidth available to the application.
    pub avail: Trace,
}

impl Ethernet {
    /// A production segment.
    pub fn new(spec: NetworkSpec, avail: Trace) -> Self {
        Self { spec, avail }
    }

    /// A dedicated segment at the protocol ceiling (no competing traffic).
    pub fn dedicated(spec: NetworkSpec, horizon_secs: f64) -> Self {
        let steps = (horizon_secs.max(1.0)) as usize + 1;
        Self {
            spec,
            avail: Trace::constant(0.0, 1.0, 0.58, steps),
        }
    }

    /// Wall-clock seconds to transfer `bytes` starting at `t`, integrating
    /// against the availability trace, plus latency.
    pub fn transfer_secs(&self, bytes: f64, t: f64) -> f64 {
        assert!(bytes >= 0.0);
        // tidy:allow(PP004): exact zero-byte shortcut, no tolerance wanted
        if bytes == 0.0 {
            return 0.0;
        }
        let work = bytes / self.spec.dedicated_bw; // dedicated seconds
        self.spec.latency + self.avail.time_to_complete(t + self.spec.latency, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_stochastic::Summary;

    #[test]
    fn dedicated_transfer_time() {
        let dedicated = Ethernet::new(NetworkSpec::default(), Trace::constant(0.0, 1.0, 1.0, 10));
        // 1.25e6 bytes at 1.25e6 B/s = 1 s + 1 ms latency.
        assert!((dedicated.transfer_secs(1.25e6, 0.0) - 1.001).abs() < 1e-9);
    }

    #[test]
    fn transfer_inflates_under_contention() {
        let spec = NetworkSpec::default();
        let quiet = Ethernet::new(spec, Trace::constant(0.0, 1.0, 0.58, 100));
        let busy = Ethernet::new(spec, Trace::constant(0.0, 1.0, 0.29, 100));
        let t_q = quiet.transfer_secs(1.0e6, 0.0);
        let t_b = busy.transfer_secs(1.0e6, 0.0);
        assert!(((t_b - spec.latency) / (t_q - spec.latency) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_bytes_is_free() {
        let e = Ethernet::dedicated(NetworkSpec::default(), 10.0);
        assert_eq!(e.transfer_secs(0.0, 0.0), 0.0);
    }

    #[test]
    fn contention_trace_matches_figure3_statistics() {
        let g = EthernetContention::default();
        let t = g.generate(1, 0.0, 5.0, 40_000);
        let mbit: Vec<f64> = t.values().iter().map(|f| f * 10.0).collect();
        let s = Summary::from_slice(&mbit);
        // Paper: mean 5.25 Mbit/s, sd ~0.4 (stochastic value 5.25 ± 0.8).
        assert!((s.mean() - 5.25).abs() < 0.35, "mean {}", s.mean());
        assert!(s.sd() > 0.2 && s.sd() < 0.8, "sd {}", s.sd());
        // Left-skewed: the contention tail points down.
        assert!(s.skewness() < -0.5, "skewness {}", s.skewness());
        // Range sane for 10 Mbit ethernet.
        assert!(s.min() >= 0.2 && s.max() < 7.0);
    }

    #[test]
    fn contention_undercovers_two_sigma() {
        // The §2.1.1 phenomenon: mean ± 2 sd covers ~91%, not 95%.
        let g = EthernetContention::default();
        let t = g.generate(2, 0.0, 5.0, 40_000);
        let s = Summary::from_slice(t.values());
        let (lo, hi) = (s.mean() - 2.0 * s.sd(), s.mean() + 2.0 * s.sd());
        let inside = t.values().iter().filter(|&&x| x >= lo && x <= hi).count();
        let frac = inside as f64 / t.len() as f64;
        assert!(frac < 0.95, "coverage {frac}");
        assert!(frac > 0.82, "coverage {frac}");
    }

    #[test]
    fn contention_deterministic_per_seed() {
        let g = EthernetContention::default();
        assert_eq!(g.generate(5, 0.0, 1.0, 50), g.generate(5, 0.0, 1.0, 50));
    }

    #[test]
    fn bandwidth_samples_unit_conversion() {
        let e = Ethernet::new(NetworkSpec::default(), Trace::constant(0.0, 1.0, 0.5, 100));
        let samples: Vec<f64> = e
            .avail
            .sample_every(0.0, 50.0, 5.0)
            .into_iter()
            .map(|(_, frac)| frac * e.spec.dedicated_bw * 8.0 / 1.0e6)
            .collect();
        assert_eq!(samples.len(), 10);
        // 0.5 * 1.25e6 B/s * 8 / 1e6 = 5 Mbit/s.
        assert!(samples.iter().all(|&s| (s - 5.0).abs() < 1e-9));
    }
}
