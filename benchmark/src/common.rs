//! What every workload shares: its arguments, the set-up measurement, the
//! closed-loop report with its validity gate, and the micro-probe timer.

use crate::calib::{compute_factor, Compute};
use crate::load::Closed;
use crate::metrics::Outcome;
use crate::stats::{median, percentile_f64};
use std::hint::black_box;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the untraced run measures.
    pub seconds: f64,
    pub trace: bool,
    /// `min(nproc, 4)`: threads and connections the load comes from.
    pub clients: usize,
}

/// Times set-up is repeated per run; `setup_s` is the median.
const SETUPS: usize = 5;

/// Runs `setup` several times, keeps the last state, and records the median
/// set-up time over the machine's speed factor, from the compute kernel
/// timed around every repeat. Each state is dropped before the next is
/// built, so the repeats do not add to peak memory.
pub fn measured_setup<S>(out: &mut Outcome, mut setup: impl FnMut() -> S) -> S {
    let mut times = Vec::with_capacity(SETUPS);
    let mut speed = Compute::default();
    let mut state = None;
    for _ in 0..SETUPS {
        drop(state.take());
        (0..4).for_each(|_| speed.sample());
        let started = Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (0..4).for_each(|_| speed.sample());
    let raw = median(&mut times);
    let factor = compute_factor(speed.samples());
    println!(
        "setup_s = {:.6} s = raw median {raw:.6} s of {SETUPS} ({}) / speed factor {factor:.4}",
        raw / factor,
        times
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    out.put("setup_s", raw / factor);
    state.expect("SETUPS is at least one")
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether a phase's times are divided by the machine's speed factor.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Times {
    /// A compute-bound phase: reported in time of the nominal machine.
    Calibrated,
    /// A phase whose time is not computation (the shell's 2 ms sleep):
    /// reported as measured.
    Raw,
}

/// Records a closed-loop phase's end-to-end metrics, prints its stamp, and
/// applies Little's law (on the times as measured): `clients` within 10 %
/// of throughput × mean latency, or the run is invalid.
pub fn report_closed(out: &mut Outcome, what: &str, closed: &Closed, tail: f64, times: Times) {
    out.attempted += closed.attempted;
    out.failed += closed.failed;
    let (p50, _) = closed.percentile(0.5);
    let (tail_ns, tail_ok) = closed.percentile(tail);
    let factor = if times == Times::Calibrated {
        closed.speed
    } else {
        1.0
    };
    out.put("throughput_ops_s", closed.throughput() * factor);
    out.put("latency_p50_us", p50 / 1e3 / factor);
    out.put("latency_tail_us", tail_ns / 1e3 / factor);
    let little = closed.littles_clients();
    println!(
        "phase {what}: closed loop, clients={} planned={:.3}s actual={:.3}s attempted={} failed={} \
         fail_share={:.6}",
        closed.clients,
        closed.planned_s,
        closed.actual_s,
        closed.attempted,
        closed.failed,
        closed.failed as f64 / closed.attempted.max(1) as f64,
    );
    println!(
        "  as measured: throughput_ops_s={:.3} latency_p50_us={:.3} latency_tail_us={:.3} (p{:.0}{}) \
         littles_clients={little:.3} speed_factor={:.4}{}",
        closed.throughput(),
        p50 / 1e3,
        tail_ns / 1e3,
        tail * 100.0,
        if tail_ok { "" } else { ", fewer than ten samples beyond" },
        closed.speed,
        if times == Times::Calibrated { "" } else { " (not applied)" },
    );
    let all = closed.all();
    let us = |p| all.percentile(p).unwrap_or(0.0) / 1e3;
    println!(
        "  whole phase: p50={:.3} p90={:.3} p95={:.3} p98={:.3} p99={:.3} p99.5={:.3} us over {} samples",
        us(0.5), us(0.9), us(0.95), us(0.98), us(0.99), us(0.995), all.count()
    );
    println!(
        "  reported:    throughput_ops_s={:.3} latency_p50_us={:.3} latency_tail_us={:.3}",
        closed.throughput() * factor,
        p50 / 1e3 / factor,
        tail_ns / 1e3 / factor,
    );
    if (little - closed.clients as f64).abs() > 0.1 * closed.clients as f64 {
        out.violation(format!(
            "{what}: Little's law broken: throughput x mean latency = {little:.3}, clients = {}",
            closed.clients
        ));
    }
    if !tail_ok {
        out.violation(format!(
            "{what}: p{:.0} has fewer than ten samples beyond it",
            tail * 100.0
        ));
    }
}

/// Median time of one call of `f` in ns, from `reps` timings of `batch`
/// back-to-back calls each.
pub fn probe_ns<R>(batch: usize, reps: usize, mut f: impl FnMut() -> R) -> f64 {
    for _ in 0..batch.min(64) {
        black_box(f());
    }
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let started = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        samples.push(started.elapsed().as_nanos() as f64 / batch as f64);
    }
    percentile_f64(&mut samples, 0.5).unwrap_or(0.0)
}
