//! Golden bits of `Trace`'s queries: one line per (trace, start, work) with
//! the bits of `at`, `integral`, the mean over the window and
//! `time_to_complete`. Machines 0 and 3 of `Platform::platform2(42, 900.0)`
//! read the raw prefix; a third trace with a dead stretch and a stretch
//! below the work-integration floor makes `time_to_complete` read the
//! floored one. Starts fall before `t0`, on step boundaries, inside the
//! last step and beyond the horizon; work ends in its own step, steps away
//! and past the end.

use prodpred_simgrid::{Platform, Trace};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_trace_bits.txt");
const STARTS: [f64; 9] = [-37.5, 0.0, 0.35, 123.0, 456.75, 899.0, 899.5, 900.0, 940.0];
const WORKS: [f64; 5] = [0.0, 1e-9, 2.5, 60.0, 2000.0];

/// The mean over `[a, b]`: the integral over the width, or the value at
/// `a` on an empty window.
fn mean_over(trace: &Trace, a: f64, b: f64) -> f64 {
    if b == a {
        return trace.at(a);
    }
    trace.integral(a, b) / (b - a)
}

/// 900 one-second steps: dead on `[110, 140)`, below the floor on
/// `[450, 460)`, a smooth level elsewhere.
fn floored() -> Trace {
    Trace::from_fn(0.0, 1.0, 900, |t| {
        if (110.0..140.0).contains(&t) {
            0.0
        } else if (450.0..460.0).contains(&t) {
            1e-9
        } else {
            0.2 + 0.6 * (0.05 * t).sin().abs()
        }
    })
}

fn trace_bits() -> String {
    let platform = Platform::platform2(42, 900.0);
    let traces = [
        ("m0", platform.machines[0].load.clone()),
        ("m3", platform.machines[3].load.clone()),
        ("floored", floored()),
    ];
    let mut out = String::new();
    for (name, trace) in &traces {
        for start in STARTS {
            for work in WORKS {
                writeln!(
                    out,
                    "{name} start={start} work={work}: {:016x} {:016x} {:016x} {:016x}",
                    trace.at(start).to_bits(),
                    trace.integral(start, start + work).to_bits(),
                    mean_over(trace, start, start + work).to_bits(),
                    trace.time_to_complete(start, work).to_bits(),
                )
                .unwrap();
            }
        }
    }
    out
}

#[test]
fn trace_bits_are_pinned() {
    let actual = trace_bits();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_trace_bits.txt");
    std::fs::write(&path, &actual).unwrap();
    let moved: Vec<&str> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(':').next().unwrap())
        .collect();
    panic!(
        "{} of {} golden lines moved ({} expected), first: {:?}; actual table written to {}",
        moved.len(),
        actual.lines().count(),
        GOLDEN.lines().count(),
        moved.first(),
        path.display()
    );
}
