//! Property-based tests for the environment simulator: trace integration
//! identities, event-queue ordering, and load-generator invariants.

use prodpred_simgrid::load::{
    Dedicated, LoadGenerator, MarkovModal, SessionLoad, SingleModeAr1, MAX_AVAILABILITY,
    MIN_AVAILABILITY,
};
use prodpred_simgrid::network::EthernetContention;
use prodpred_simgrid::{EventQueue, Platform, Trace};
use proptest::prelude::*;

#[path = "support/walking_oracles.rs"]
mod walking_oracles;
use walking_oracles::{integral_walk, time_to_complete_walk};

fn trace_strategy() -> impl Strategy<Value = Trace> {
    (
        proptest::collection::vec(0.01f64..2.0, 1..64),
        0.01f64..10.0,
        -100.0f64..100.0,
    )
        .prop_map(|(values, dt, t0)| Trace::new(t0, dt, values))
}

/// `short` is what `long` would have been had generation stopped early:
/// the same samples, and the same bits from every query that stays inside
/// `short`'s horizon. `fa`, `fb` in `[0, 1)` place the query interval.
fn assert_prefix(short: &Trace, long: &Trace, fa: f64, fb: f64) -> Result<(), TestCaseError> {
    prop_assert!(short.len() <= long.len());
    prop_assert_eq!(short.values(), &long.values()[..short.len()]);
    let t_end = short.t0() + short.dt() * short.len() as f64;
    let a = short.t0() + fa * (t_end - short.t0());
    let b = a + fb * (t_end - a);
    prop_assert_eq!(short.at(a).to_bits(), long.at(a).to_bits());
    prop_assert_eq!(short.at(b).to_bits(), long.at(b).to_bits());
    prop_assert_eq!(
        short.integral(a, b).to_bits(),
        long.integral(a, b).to_bits()
    );
    // Work that completes before `b`, so the search ends inside `short`.
    let work = 0.999 * short.integral(a, b);
    prop_assert_eq!(
        short.time_to_complete(a, work).to_bits(),
        long.time_to_complete(a, work).to_bits()
    );
    Ok(())
}

#[test]
fn session_load_is_not_prefix_stable() {
    // The negative control of the prefix properties below: `SessionLoad`
    // draws its per-sample noise after running the event queue to the
    // horizon, so a longer trace is a different trace from sample 0.
    let g = SessionLoad::default();
    let short = g.generate(7, 0.0, 1.0, 500);
    let long = g.generate(7, 0.0, 1.0, 1000);
    assert_ne!(short.values(), &long.values()[..500]);
}

proptest! {
    // ---- prefix stability: generation length never changes what was
    // already generated (what `core::experiment` grows its platforms on) ----

    #[test]
    fn generators_are_prefix_stable(seed in 0u64..1_000_000, k in 1usize..400, extra in 0usize..400, fa in 0.0f64..1.0, fb in 0.0f64..1.0) {
        let m = k + extra;
        let gens: Vec<Box<dyn LoadGenerator>> = vec![
            Box::new(Dedicated::default()),
            Box::new(SingleModeAr1::platform1_center()),
            Box::new(MarkovModal::platform2(25.0)),
            Box::new(EthernetContention::default()),
        ];
        for g in &gens {
            let whole = g.generate(seed, 0.0, 1.0, m);
            assert_prefix(&g.generate(seed, 0.0, 1.0, k), &whole, fa, fb)?;
            // A stream pulled in two pieces, split at step `k`, is
            // `generate` of the whole length.
            let mut stream = g.stream(seed, 1.0);
            let mut split = stream.pull(k);
            split.extend(stream.pull(extra));
            prop_assert_eq!(&split[..], whole.values());
        }
    }

    // ---- growth: a trace extended in pieces is the trace built whole ----

    #[test]
    fn extended_trace_answers_like_the_whole(
        a in proptest::collection::vec((0usize..3, 0.0f64..1.0), 1..80),
        b in proptest::collection::vec((0usize..3, 0.0f64..1.0), 0..80),
        a_clears_floor in proptest::prelude::any::<bool>(),
        (t0, dt) in (-50.0f64..50.0, 0.1f64..5.0),
        queries in proptest::collection::vec((0.0f64..1.2, 0.0f64..1.0, 0.0f64..1.0), 8),
    ) {
        // Kind 0 is dead (zero) and kind 1 below the work-integration
        // floor. Half the cases keep `a` above it, so the first value
        // below it arrives in `b`.
        let value = |&(kind, x): &(usize, f64)| match kind {
            0 => 0.0,
            1 => 1e-9 * x,
            _ => 0.01 + x,
        };
        let a: Vec<f64> = a
            .iter()
            .map(|&(kind, x)| value(&(if a_clears_floor { 2 } else { kind }, x)))
            .collect();
        let b: Vec<f64> = b.iter().map(value).collect();
        let whole = Trace::new(t0, dt, [&a[..], &b[..]].concat());
        let mut grown = Trace::new(t0, dt, a);
        grown.extend(&b);
        prop_assert_eq!(&grown, &whole);
        let span = whole.dt() * whole.len() as f64;
        for (fa, fb, fw) in queries {
            let x = t0 - 2.0 * dt + fa * (span + 4.0 * dt);
            let y = x + fb * span;
            let work = fw * span;
            prop_assert_eq!(grown.at(x).to_bits(), whole.at(x).to_bits());
            prop_assert_eq!(grown.integral(x, y).to_bits(), whole.integral(x, y).to_bits());
            prop_assert_eq!(
                grown.time_to_complete(x, work).to_bits(),
                whole.time_to_complete(x, work).to_bits()
            );
        }
    }

    #[test]
    fn preset_platforms_are_prefix_stable(seed in 0u64..1_000_000, k in 1usize..300, extra in 0usize..300, fa in 0.0f64..1.0, fb in 0.0f64..1.0) {
        let (h, h2) = (k as f64, (k + extra) as f64);
        let pairs = [
            (Platform::platform1(seed, h), Platform::platform1(seed, h2)),
            (Platform::platform2(seed, h), Platform::platform2(seed, h2)),
        ];
        for (short, long) in &pairs {
            for (a, b) in short.machines.iter().zip(&long.machines) {
                assert_prefix(&a.load, &b.load, fa, fb)?;
            }
            assert_prefix(&short.network.avail, &long.network.avail, fa, fb)?;
        }
    }

    // ---- trace integration ----

    #[test]
    fn integral_is_additive(trace in trace_strategy(), a in -50.0f64..150.0, len1 in 0.0f64..50.0, len2 in 0.0f64..50.0) {
        let m = a + len1;
        let b = m + len2;
        let whole = trace.integral(a, b);
        let parts = trace.integral(a, m) + trace.integral(m, b);
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    #[test]
    fn integral_bounded_by_extremes(trace in trace_strategy(), a in -50.0f64..150.0, len in 0.0f64..50.0) {
        let b = a + len;
        let integral = trace.integral(a, b);
        prop_assert!(integral >= trace.min() * len - 1e-9);
        prop_assert!(integral <= trace.max() * len + 1e-9);
    }

    #[test]
    fn mean_over_within_range(trace in trace_strategy(), a in -50.0f64..150.0, len in 0.001f64..50.0) {
        let b = a + len;
        let m = trace.integral(a, b) / (b - a);
        prop_assert!(m >= trace.min() - 1e-9);
        prop_assert!(m <= trace.max() + 1e-9);
    }

    #[test]
    fn time_to_complete_inverts_integral(trace in trace_strategy(), t0 in -20.0f64..100.0, work in 0.0f64..100.0) {
        let d = trace.time_to_complete(t0, work);
        prop_assert!(d >= 0.0);
        let done = trace.integral(t0, t0 + d);
        // The completed work matches the requested work (floor effects
        // only matter for zero-availability traces, excluded here).
        prop_assert!((done - work).abs() < 1e-6 * (1.0 + work), "work {work}, got {done}");
    }

    #[test]
    fn more_work_takes_at_least_as_long(trace in trace_strategy(), t0 in -20.0f64..100.0, w1 in 0.0f64..50.0, extra in 0.0f64..50.0) {
        let d1 = trace.time_to_complete(t0, w1);
        let d2 = trace.time_to_complete(t0, w1 + extra);
        prop_assert!(d2 >= d1 - 1e-12);
    }

    #[test]
    fn at_always_returns_a_sample_value(trace in trace_strategy(), t in -200.0f64..400.0) {
        let v = trace.at(t);
        prop_assert!(trace.values().contains(&v));
    }

    // ---- prefix-integral fast path vs step-walk reference ----

    #[test]
    fn prefix_integral_agrees_with_walk(trace in trace_strategy(), a in -150.0f64..250.0, len in 0.0f64..200.0) {
        let b = a + len;
        let fast = trace.integral(a, b);
        let slow = integral_walk(&trace, a, b);
        prop_assert!((fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()), "[{a}, {b}]: {fast} vs {slow}");
    }

    #[test]
    fn prefix_integral_agrees_on_step_boundaries(trace in trace_strategy(), k1 in 0usize..70, k2 in 0usize..70) {
        let (k1, k2) = (k1.min(trace.len()), k2.min(trace.len()));
        let a = trace.t0() + k1.min(k2) as f64 * trace.dt();
        let b = trace.t0() + k1.max(k2) as f64 * trace.dt();
        let fast = trace.integral(a, b);
        let slow = integral_walk(&trace, a, b);
        prop_assert!((fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()), "[{a}, {b}]: {fast} vs {slow}");
    }

    #[test]
    fn completion_search_agrees_with_walk(trace in trace_strategy(), t0 in -150.0f64..250.0, work in 0.0f64..500.0) {
        let fast = trace.time_to_complete(t0, work);
        let slow = time_to_complete_walk(&trace, t0, work);
        prop_assert!((fast - slow).abs() <= 1e-9 * (1.0 + slow.abs()), "start {t0}, work {work}: {fast} vs {slow}");
    }

    // ---- event queue ----

    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0.0f64..1e6, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut prev = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn queue_fifo_for_equal_times(n in 1usize..50) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(1.0, i);
        }
        for expect in 0..n {
            let (_, got) = q.pop().unwrap();
            prop_assert_eq!(got, expect);
        }
    }

    // ---- load generators ----

    #[test]
    fn generators_stay_in_bounds(seed in 0u64..1000, steps in 1usize..300) {
        let gens: Vec<Box<dyn LoadGenerator>> = vec![
            Box::new(Dedicated::default()),
            Box::new(SingleModeAr1 { mean: 0.5, sd: 0.1, phi: 0.8 }),
            Box::new(MarkovModal::platform2(20.0)),
        ];
        let mut traces: Vec<Trace> = gens.iter().map(|g| g.generate(seed, 0.0, 1.0, steps)).collect();
        traces.push(SessionLoad::default().generate(seed, 0.0, 1.0, steps));
        for t in traces {
            prop_assert_eq!(t.len(), steps);
            prop_assert!(t.min() >= MIN_AVAILABILITY);
            prop_assert!(t.max() <= MAX_AVAILABILITY);
        }
    }

    #[test]
    fn generators_deterministic(seed in 0u64..1000) {
        let g = MarkovModal::platform1(60.0);
        prop_assert_eq!(g.generate(seed, 0.0, 5.0, 50), g.generate(seed, 0.0, 5.0, 50));
    }
}
