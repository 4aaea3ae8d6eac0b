//! Calibration: how fast this machine is right now, measured beside the
//! workload, so that a noisy neighbour does not read as a regression.
//!
//! On a shared host the whole box runs 10–30 % slower for minutes at a
//! time. A fixed kernel owned by the benchmark is timed every few
//! milliseconds on the threads that carry the load; the median of those
//! timings over its nominal time is the run's *speed factor* (above 1: the
//! machine is slow). Time-based metrics of compute-bound workloads are
//! divided by it, and read in microseconds of the nominal machine. Two
//! unlike compute kernels timed side by side here drift 6–9 % each and under
//! 2 % against each other, which is what makes the division fair. The raw
//! figures and the factor are printed with every phase.
//!
//! `socket_replay` is reported as measured: it spends its time in the
//! shell's 2 ms sleep, which no core's speed changes. `sor_solve` runs a
//! grid small enough that its time follows the core's speed (see `sor`); on
//! a grid the size of the host's cache share it followed the other tenants'
//! memory traffic instead, which the kernel cannot see, and a stencil kernel
//! over a grid-sized array, tried as a calibration for that, was noisier
//! than the solvers themselves.
//!
//! The kernel calls nothing of the program under test, so no change to the
//! program can move the factor.

use crate::stats::median;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The compute kernel's time on the nominal machine: this container on a
/// quiet minute. Only ratios between runs matter; the constant keeps the
/// calibrated figures close to real microseconds.
const COMPUTE_NOMINAL_NS: f64 = 72_000.0;
/// A kernel is timed again once this long has passed.
const EVERY: Duration = Duration::from_millis(10);

/// Formats floats, parses them back, hashes the text and does a little
/// floating-point work: the instruction mix of request handling and of the
/// model's algebra.
fn compute_kernel(text: &mut String) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..512 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let value = 1.0 + (x >> 11) as f64 / (1u64 << 53) as f64 * 999.0;
        text.clear();
        let _ = write!(text, "{value}");
        let back: f64 = text.parse().unwrap_or(1.0);
        for byte in text.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash ^= (back.ln() * 3.7 + back.sqrt()).to_bits();
    }
    hash
}

/// Times the compute kernel on the calling thread every [`EVERY`].
pub struct Compute {
    text: String,
    last: Option<Instant>,
    samples_ns: Vec<f64>,
}

impl Default for Compute {
    fn default() -> Self {
        Self {
            text: String::with_capacity(32),
            last: None,
            samples_ns: Vec::with_capacity(2048),
        }
    }
}

impl Compute {
    /// Times the kernel if it is due. Call between operations, outside
    /// every timed interval.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|at| at.elapsed() >= EVERY) {
            self.sample();
        }
    }

    /// Times the kernel now.
    pub fn sample(&mut self) {
        let started = Instant::now();
        black_box(compute_kernel(&mut self.text));
        self.samples_ns.push(started.elapsed().as_nanos() as f64);
        self.last = Some(Instant::now());
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples_ns
    }
}

/// Times the kernel on `threads` threads at once and returns every timing:
/// for a caller whose work runs on a pool, where the caller's own thread
/// sits idle and tells little about the cores that carry the load.
pub fn sample_on(threads: usize) -> Vec<f64> {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut c = Compute::default();
                    (0..3).for_each(|_| c.sample());
                    c.samples_ns
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("the kernel does not panic"))
            .collect()
    })
}

/// The speed factor a set of compute-kernel timings gives: their median
/// over the nominal time. 1 with no timings.
pub fn compute_factor(samples_ns: &[f64]) -> f64 {
    if samples_ns.is_empty() {
        return 1.0;
    }
    median(&mut samples_ns.to_vec()) / COMPUTE_NOMINAL_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_are_deterministic_and_take_time() {
        let mut text = String::new();
        assert_eq!(compute_kernel(&mut text), compute_kernel(&mut text));
        let mut c = Compute::default();
        c.tick();
        c.tick();
        assert_eq!(c.samples().len(), 1, "the second tick was not yet due");
        c.sample();
        assert!(c.samples().iter().all(|&ns| ns > 1_000.0));
        assert!(compute_factor(c.samples()) > 0.0);
        assert_eq!(compute_factor(&[]), 1.0);
        assert_eq!(sample_on(2).len(), 6);
    }
}
