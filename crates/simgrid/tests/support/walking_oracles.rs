//! The step-walking definitions of the two integrating trace queries —
//! O(steps), independently simple, sharing nothing with the prefix-sum
//! algebra of `simgrid::trace` they are the oracles for (≤ 1e-9).
//!
//! Not a test target: `#[path]`-included by the unit tests of
//! `simgrid::trace` and by `tests/properties.rs`, each of which has
//! `Trace` in scope.

use super::Trace;

/// The work-integration floor, restated rather than imported.
const FLOOR: f64 = 1e-6;

/// `Trace::integral` by walking the steps of `[a, b]`.
///
/// An integer step cursor guarantees termination even when interval
/// endpoints land exactly on step boundaries (a float-recomputation loop
/// can stall there).
pub fn integral_walk(trace: &Trace, a: f64, b: f64) -> f64 {
    assert!(b >= a, "inverted interval [{a}, {b}]");
    let (t0, dt, values) = (trace.t0(), trace.dt(), trace.values());
    let mut acc = 0.0;
    let mut t = a;
    // Stretch before the horizon: the first value holds.
    if t < t0 {
        let seg_end = t0.min(b);
        acc += values[0] * (seg_end - t);
        t = seg_end;
    }
    if t >= b {
        return acc;
    }
    let last = values.len() - 1;
    let mut k = (((t - t0) / dt) as usize).min(last);
    loop {
        if k >= last {
            // Final value holds to the end of the interval.
            acc += values[last] * (b - t).max(0.0);
            return acc;
        }
        let step_end = t0 + (k as f64 + 1.0) * dt;
        if step_end >= b {
            acc += values[k] * (b - t).max(0.0);
            return acc;
        }
        acc += values[k] * (step_end - t).max(0.0);
        t = step_end;
        k += 1;
    }
}

/// `Trace::time_to_complete` by walking forward from `start`, spending
/// each step's capacity until `work` is used up.
pub fn time_to_complete_walk(trace: &Trace, start: f64, work: f64) -> f64 {
    assert!(work >= 0.0, "work must be non-negative: {work}");
    if work == 0.0 {
        return 0.0;
    }
    let (t0, dt, values) = (trace.t0(), trace.dt(), trace.values());
    let mut remaining = work;
    let mut t = start;
    // Stretch before the horizon: the first value holds.
    if t < t0 {
        let v = values[0].max(FLOOR);
        let capacity = v * (t0 - t);
        if capacity >= remaining {
            return remaining / v;
        }
        remaining -= capacity;
        t = t0;
    }
    // Integer step cursor: strictly increasing, so the loop always
    // terminates (a float-recomputed index can stall on boundaries).
    let last = values.len() - 1;
    let mut k = (((t - t0) / dt) as usize).min(last);
    loop {
        let v = values[k].max(FLOOR);
        if k >= last {
            // Final value holds forever.
            return t + remaining / v - start;
        }
        let step_end = t0 + (k as f64 + 1.0) * dt;
        let capacity = v * (step_end - t).max(0.0);
        if capacity >= remaining {
            return t + remaining / v - start;
        }
        remaining -= capacity;
        t = step_end;
        k += 1;
    }
}
