//! Step-function resource traces.
//!
//! Every dynamic quantity in the simulated environment — CPU availability,
//! network availability — is a [`Trace`]: a piecewise-constant function of
//! time at fixed resolution, answering *sampling* (what the NWS sensors do
//! every five seconds) and *work integration* (how long `W` dedicated
//! seconds of computation take from `t0` at the traced availability).
//!
//! The integrating queries read cumulative-integral (prefix-sum) arrays
//! built at construction: `integral` is two O(1) interpolated lookups,
//! `time_to_complete` a search forward from the step the work starts in,
//! O(log distance). The step-walking definitions
//! (`tests/support/walking_oracles.rs`, O(steps) but independently
//! simple) pin the prefix path to ≤ 1e-9; the whole-array binary search is
//! the test-only oracle the forward search is held to bit for bit, and
//! `tests/golden_trace_bits.txt` pins every query's bits.

use serde::{Deserialize, Serialize};

/// Availability at or below this floor is clamped up during work
/// integration so a zero-availability stretch cannot hang the simulation.
pub(crate) const AVAIL_FLOOR: f64 = 1e-6;

/// A piecewise-constant time series starting at `t0` with step `dt`.
///
/// Beyond the last sample the trace holds its final value; before `t0` it
/// holds its first — simulated experiments always run inside the generated
/// horizon, but clamping keeps boundary arithmetic total.
#[derive(Debug, Clone)]
pub struct Trace {
    t0: f64,
    dt: f64,
    values: Vec<f64>,
    /// `prefix.cum[k]` = integral of the trace over the first `k` whole
    /// steps (Kahan-compensated, so 3600-step prefixes stay exact to ~1 ulp).
    prefix: Prefix,
    /// Same, with each value clamped up to [`AVAIL_FLOOR`] — the work
    /// integration curve, strictly increasing and therefore searchable.
    /// Built only when some value lies below the floor: otherwise the
    /// clamp changes nothing and `prefix` is that curve, bit for bit.
    prefix_floored: Option<Prefix>,
}

/// A Kahan-compensated cumulative integral of `values * dt`, each value
/// clamped up to `floor` (`f64::NEG_INFINITY`: no clamp): `cum[k]` covers
/// the first `k` whole steps. The running compensation is kept, so
/// [`Prefix::push`] continues the one sequential fold — a prefix built in
/// pieces is the prefix built in one go, bit for bit.
#[derive(Debug, Clone)]
struct Prefix {
    cum: Vec<f64>,
    comp: f64,
    floor: f64,
}

impl Prefix {
    fn new(dt: f64, values: &[f64], floor: f64) -> Self {
        let mut cum = Vec::with_capacity(values.len() + 1);
        cum.push(0.0);
        let mut prefix = Self {
            cum,
            comp: 0.0,
            floor,
        };
        prefix.push(dt, values);
        prefix
    }

    fn push(&mut self, dt: f64, values: &[f64]) {
        let (cum, floor) = (&mut self.cum, self.floor);
        let mut sum = cum[cum.len() - 1];
        let mut comp = self.comp;
        cum.reserve(values.len());
        for &v in values {
            let y = v.max(floor) * dt - comp;
            let t = sum + y;
            comp = (t - sum) - y;
            sum = t;
            cum.push(sum);
        }
        self.comp = comp;
    }
}

/// The step in which a cumulative curve crosses a target: `cum` holds the
/// curve at every step start (non-decreasing), `below(p)` says `p` is
/// still short of the target, and `k0` is the step the work starts in.
/// The answer is the step before the first start that is not below — the
/// last step, which extends to +infinity, if every start is — exactly the
/// index a `partition_point` over all of `cum` leads to. Galloping forward
/// from `k0` (+1, +2, +4, … clamped to the last step) and bisecting the
/// bracket makes the cost follow the distance to the crossing — two
/// probes when that is `k0` itself — not the length of the trace.
#[inline]
fn crossing_step(cum: &[f64], k0: usize, below: impl Fn(f64) -> bool) -> usize {
    if !below(cum[k0]) {
        // Rounding in the partial step put the target at or before the
        // start of `k0`: the crossing is behind, not ahead.
        return cum[..k0].partition_point(|&p| below(p)).saturating_sub(1);
    }
    let last = cum.len() - 1;
    // Invariant: every start up to and including `lo` is below.
    let (mut lo, mut stride) = (k0, 1);
    while lo < last {
        let hi = (lo + stride).min(last);
        if !below(cum[hi]) {
            return lo + cum[lo + 1..hi].partition_point(|&p| below(p));
        }
        lo = hi;
        stride *= 2;
    }
    last
}

impl Trace {
    /// Creates a trace.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `values` is empty, or any value is non-finite.
    pub fn new(t0: f64, dt: f64, values: Vec<f64>) -> Self {
        assert!(dt > 0.0, "trace step must be positive");
        assert!(!values.is_empty(), "trace needs at least one sample");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "trace values must be finite"
        );
        let prefix = Prefix::new(dt, &values, f64::NEG_INFINITY);
        let prefix_floored = values
            .iter()
            .any(|&v| v < AVAIL_FLOOR)
            .then(|| Prefix::new(dt, &values, AVAIL_FLOOR));
        Self {
            t0,
            dt,
            values,
            prefix,
            prefix_floored,
        }
    }

    /// Appends `more` samples after the last, continuing both prefix
    /// arrays from their carried compensation: the result is
    /// `Trace::new` of all the values, bit for bit, for every query.
    /// This is how a platform grows with a series clock.
    ///
    /// # Panics
    ///
    /// Panics if any value of `more` is non-finite.
    pub fn extend(&mut self, more: &[f64]) {
        assert!(
            more.iter().all(|v| v.is_finite()),
            "trace values must be finite"
        );
        self.values.extend_from_slice(more);
        self.prefix.push(self.dt, more);
        match &mut self.prefix_floored {
            Some(floored) => floored.push(self.dt, more),
            // The first value below the floor: the floored curve, built
            // now from every value, is the same sequential fold.
            None if more.iter().any(|&v| v < AVAIL_FLOOR) => {
                self.prefix_floored = Some(Prefix::new(self.dt, &self.values, AVAIL_FLOOR));
            }
            None => {}
        }
    }

    /// A constant trace (dedicated resources).
    pub fn constant(t0: f64, dt: f64, value: f64, steps: usize) -> Self {
        Self::new(t0, dt, vec![value; steps.max(1)])
    }

    /// Builds a trace by evaluating `f` at each step start.
    pub fn from_fn(t0: f64, dt: f64, steps: usize, mut f: impl FnMut(f64) -> f64) -> Self {
        assert!(steps > 0);
        Self::new(t0, dt, (0..steps).map(|i| f(t0 + i as f64 * dt)).collect())
    }

    /// Start time.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Step width in seconds.
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false (construction rejects empty traces).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The work-integration curve: the floored prefix where one exists.
    fn floored_cum(&self) -> &[f64] {
        &self.prefix_floored.as_ref().unwrap_or(&self.prefix).cum
    }

    /// The step whose segment contains `x`: 0 at or before `t0` (the cast
    /// saturates), the last step — which extends to +infinity — beyond it.
    fn step_of(&self, x: f64) -> usize {
        (((x - self.t0) / self.dt) as usize).min(self.values.len() - 1)
    }

    /// The step that contains `x` and the integral from `t0` to `x` of the
    /// values clamped up to `floor`, in O(1): whole steps are a lookup in
    /// `cum` (built with that clamp), the partial step an interpolation.
    /// Before `t0` the first value extends back (negative).
    #[inline]
    fn cumulative(&self, cum: &[f64], floor: f64, x: f64) -> (usize, f64) {
        if x <= self.t0 {
            return (0, self.values[0].max(floor) * (x - self.t0));
        }
        let k = self.step_of(x);
        let within = self.values[k].max(floor) * (x - (self.t0 + k as f64 * self.dt));
        (k, cum[k] + within)
    }

    /// The value at time `t` (clamped to the horizon).
    pub fn at(&self, t: f64) -> f64 {
        self.values[self.step_of(t)]
    }

    /// Integral of the trace over `[a, b]`: the difference of two O(1)
    /// cumulative lookups.
    ///
    /// # Panics
    ///
    /// Panics if `b < a`.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        assert!(b >= a, "inverted interval [{a}, {b}]");
        let upto = |x| self.cumulative(&self.prefix.cum, f64::NEG_INFINITY, x).1;
        upto(b) - upto(a)
    }

    /// How long work of `dedicated_work` seconds takes when started at
    /// `t0_work`, proceeding at the traced availability: the smallest `d`
    /// with `integral(t0_work, t0_work + d) == dedicated_work`, in O(log
    /// steps-until-done). Availability at or below the `1e-6` floor is
    /// clamped up so a zero-availability stretch cannot hang the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `dedicated_work < 0`.
    pub fn time_to_complete(&self, t0_work: f64, dedicated_work: f64) -> f64 {
        assert!(
            dedicated_work >= 0.0,
            "work must be non-negative: {dedicated_work}"
        );
        // tidy:allow(PP004): exact zero-work shortcut, no tolerance wanted
        if dedicated_work == 0.0 {
            return 0.0;
        }
        let floored_cum = self.floored_cum();
        let floored = |k: usize| self.values[k].max(AVAIL_FLOOR);
        let (k0, started) = self.cumulative(floored_cum, AVAIL_FLOOR, t0_work);
        let target = started + dedicated_work;
        if target <= 0.0 {
            // Finishes before the curve even starts: constant first value.
            return self.t0 + target / floored(0) - t0_work;
        }
        // The floored work curve G is strictly increasing, so it crosses
        // the target once: gallop forward from the step the work starts
        // in, then interpolate inside the crossing step with one division.
        // Over the step starts only: the last step extends to +infinity,
        // so a target beyond the horizon clamps there.
        let cum = &floored_cum[..self.values.len()];
        let k = crossing_step(cum, k0, |p| p < target);
        let x = self.t0 + k as f64 * self.dt + (target - cum[k]) / floored(k);
        x - t0_work
    }

    /// Samples the trace every `interval` seconds over `[a, b)` — the NWS
    /// sensor cadence. Returns `(t, value)` pairs.
    pub fn sample_every(&self, a: f64, b: f64, interval: f64) -> Vec<(f64, f64)> {
        assert!(interval > 0.0 && b >= a);
        let times = std::iter::successors(Some(a), |t| Some(t + interval));
        times
            .take_while(|&t| t < b)
            .map(|t| (t, self.at(t)))
            .collect()
    }

    /// The sub-trace covering `[a, b)`, clamped to the horizon. The
    /// result's `t0` is the start of the step containing `a`.
    ///
    /// # Panics
    ///
    /// Panics if `b <= a`.
    pub fn slice(&self, a: f64, b: f64) -> Trace {
        assert!(b > a, "empty slice [{a}, {b})");
        let k0 = self.step_of(a);
        let k1 = if b <= self.t0 {
            1
        } else {
            ((((b - self.t0) / self.dt).ceil()) as usize).clamp(k0 + 1, self.values.len())
        };
        Trace::new(
            self.t0 + k0 as f64 * self.dt,
            self.dt,
            self.values[k0..k1].to_vec(),
        )
    }

    /// The minimum sample value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The maximum sample value.
    pub fn max(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of all samples.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }
}

/// Two traces are equal when their defining data agree — the prefix
/// arrays are derived and excluded from the comparison.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.t0 == other.t0 && self.dt == other.dt && self.values == other.values
    }
}

/// Serializes only the defining fields (`t0`, `dt`, `values`): the
/// prefix arrays never hit disk.
impl Serialize for Trace {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), serde::Error> {
        sink.begin_map();
        sink.entry("t0", &self.t0)?;
        sink.entry("dt", &self.dt)?;
        sink.entry("values", &self.values)?;
        sink.end_map();
        Ok(())
    }
}

/// Deserializes through [`Trace::new`], which rebuilds the prefix arrays.
impl Deserialize for Trace {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let t0 = f64::from_value(v.field("t0")?)?;
        let dt = f64::from_value(v.field("dt")?)?;
        let values = Vec::<f64>::from_value(v.field("values")?)?;
        if dt <= 0.0 || values.is_empty() || values.iter().any(|x| !x.is_finite()) {
            return Err(serde::Error::new("invalid trace data"));
        }
        Ok(Trace::new(t0, dt, values))
    }
}

/// The step-walking oracles, shared with the integration tests that
/// include the same file.
#[cfg(test)]
#[path = "../tests/support/walking_oracles.rs"]
mod walking_oracles;

/// What the completion-search proptest draws from: how long a trace is,
/// where on it work starts and how much work there is.
#[cfg(test)]
mod search_cases {
    use super::AVAIL_FLOOR;
    use proptest::prelude::*;

    /// Runs of `(kind, level, length)`, each a stretch of one sample
    /// level. Kinds `0..4` are dead (`0.0`, `-0.0`), below the
    /// work-integration floor and barely above it; kinds from 4 up are a
    /// spike and ordinary levels.
    pub(crate) fn runs() -> impl Strategy<Value = Vec<(usize, f64, usize)>> {
        proptest::collection::vec((0usize..9, 0.0f64..1.0, 1usize..80), 1..12)
    }

    /// [`runs`]' draw, cycled to `len` samples.
    pub(crate) fn stretches(len: usize, runs: &[(usize, f64, usize)]) -> Vec<f64> {
        runs.iter()
            .flat_map(|&(kind, level, run)| {
                let v = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1e-9 * level,
                    3 => AVAIL_FLOOR * (1.0 + level),
                    4 => 3.0 + level,
                    _ => 0.01 + level,
                };
                std::iter::repeat_n(v, run)
            })
            .cycle()
            .take(len)
            .collect()
    }

    /// Traces of one, two and three steps, and of about two thousand.
    pub(crate) fn steps() -> impl Strategy<Value = usize> {
        (0usize..4, 1900usize..2100).prop_map(|(pick, long)| [1, 2, 3, long][pick])
    }

    /// A time grid whose step starts are not exact in binary.
    pub(crate) fn grid() -> impl Strategy<Value = (f64, f64)> {
        (0usize..3).prop_map(|pick| [(0.0, 1.0), (5.0, 0.7), (-3.5, 5.0)][pick])
    }

    /// A start time: before the trace, exactly on a step boundary, inside
    /// the last step, past the horizon, or anywhere on the trace.
    pub(crate) fn start() -> impl Strategy<Value = (usize, f64)> {
        (0usize..5, 0.0f64..1.0)
    }

    /// Places [`start`]'s draw on a `(t0, dt)` grid of `steps` steps.
    pub(crate) fn place((t0, dt): (f64, f64), steps: usize, (kind, frac): (usize, f64)) -> f64 {
        let n = steps as f64;
        match kind {
            0 => t0 - 40.0 * frac * dt,
            1 => t0 + (frac * n).floor() * dt,
            2 => t0 + (n - 1.0 + frac) * dt,
            3 => t0 + (n + 50.0 * frac) * dt,
            _ => t0 + frac * n * dt,
        }
    }

    /// Work from 1e-16 dedicated seconds — small enough to vanish when
    /// added to the curve, which puts the target on a step start — to
    /// several horizons of the longest trace, log-uniform.
    pub(crate) fn work() -> impl Strategy<Value = f64> {
        (-16.0f64..4.7).prop_map(|e| 10f64.powf(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    use walking_oracles::{integral_walk, time_to_complete_walk};

    impl Trace {
        /// [`Trace::time_to_complete`] as it was before the search started
        /// where the work does: one `partition_point` over the whole
        /// floored prefix array. The oracle the forward search is held to,
        /// bit for bit.
        fn time_to_complete_whole_array(&self, start: f64, work: f64) -> f64 {
            if work == 0.0 {
                return 0.0;
            }
            let floored_cum = self.floored_cum();
            let floored = |k: usize| self.values[k].max(AVAIL_FLOOR);
            let target = self.cumulative(floored_cum, AVAIL_FLOOR, start).1 + work;
            if target <= 0.0 {
                return self.t0 + target / floored(0) - start;
            }
            let last = self.values.len() - 1;
            let i = floored_cum[..=last].partition_point(|&p| p < target);
            let k = i.saturating_sub(1).min(last);
            let x = self.t0 + k as f64 * self.dt + (target - floored_cum[k]) / floored(k);
            x - start
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn forward_search_matches_the_whole_array_search_bitwise(
            steps in search_cases::steps(),
            grid in search_cases::grid(),
            runs in search_cases::runs(),
            start in search_cases::start(),
            work in search_cases::work(),
        ) {
            let trace = Trace::new(grid.0, grid.1, search_cases::stretches(steps, &runs));
            let at = search_cases::place(grid, steps, start);
            prop_assert_eq!(
                trace.time_to_complete(at, work).to_bits(),
                trace.time_to_complete_whole_array(at, work).to_bits(),
                "start {}, work {}", at, work
            );
        }
    }

    #[test]
    fn a_trace_that_never_dips_below_the_floor_keeps_one_prefix_array() {
        let t = Trace::new(0.0, 1.0, vec![AVAIL_FLOOR, 0.5, 2.0]);
        assert!(t.prefix_floored.is_none());
    }

    #[test]
    fn a_zero_availability_stretch_builds_and_uses_its_own_floored_curve() {
        let values = vec![0.5, 0.0, 0.0, 0.0, 1e-9, 0.25];
        let t = Trace::new(0.0, 2.0, values.clone());
        let floored = &t
            .prefix_floored
            .as_ref()
            .expect("a value is below the floor")
            .cum;
        assert_eq!(floored, &Prefix::new(2.0, &values, AVAIL_FLOOR).cum);
        assert_ne!(
            floored, &t.prefix.cum,
            "the raw curve is flat where the floored one climbs"
        );
        // Work that has to cross the dead stretch: 1.0 from the first
        // step, 8 s at the floor, the rest at 0.25.
        let d = t.time_to_complete(0.0, 1.5);
        let want = 10.0 + (0.5 - 8.0 * AVAIL_FLOOR) / 0.25;
        assert!((d - want).abs() < 1e-9, "{d} vs {want}");
        assert_eq!(
            d.to_bits(),
            t.time_to_complete_whole_array(0.0, 1.5).to_bits()
        );
        assert!((d - time_to_complete_walk(&t, 0.0, 1.5)).abs() <= 1e-9);
        // The integral still reads the raw curve.
        assert!((t.integral(0.0, 12.0) - (1.5 + 2e-9)).abs() < 1e-12);
    }

    fn ramp() -> Trace {
        // 1.0 for t in [0,1), 0.5 for [1,2), 0.25 for [2,3)
        Trace::new(0.0, 1.0, vec![1.0, 0.5, 0.25])
    }

    #[test]
    fn at_steps_and_clamps() {
        let t = ramp();
        assert_eq!(t.at(-5.0), 1.0);
        assert_eq!(t.at(0.0), 1.0);
        assert_eq!(t.at(0.99), 1.0);
        assert_eq!(t.at(1.0), 0.5);
        assert_eq!(t.at(2.5), 0.25);
        assert_eq!(t.at(99.0), 0.25);
    }

    #[test]
    fn integral_exact_on_steps() {
        let t = ramp();
        assert!((t.integral(0.0, 3.0) - 1.75).abs() < 1e-9);
        assert!((t.integral(0.5, 1.5) - (0.5 + 0.25)).abs() < 1e-9);
        assert!((t.integral(2.0, 5.0) - 0.25 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_weights_segments() {
        let t = ramp();
        assert!((t.integral(0.0, 2.0) / 2.0 - 0.75).abs() < 1e-9);
        assert_eq!(t.at(1.5), 0.5);
    }

    #[test]
    fn work_integration_full_availability() {
        let t = Trace::constant(0.0, 1.0, 1.0, 10);
        assert!((t.time_to_complete(0.0, 4.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn work_integration_half_availability_doubles_time() {
        let t = Trace::constant(0.0, 1.0, 0.5, 10);
        assert!((t.time_to_complete(2.0, 3.0) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn work_integration_across_steps() {
        let t = ramp();
        // Work 1.25: first second supplies 1.0, next 0.25 needs 0.5 s at 0.5.
        assert!((t.time_to_complete(0.0, 1.25) - 1.5).abs() < 1e-9);
        // Work 1.75 consumes [0,3) exactly.
        assert!((t.time_to_complete(0.0, 1.75) - 3.0).abs() < 1e-9);
        // Beyond the horizon the last value holds: extra 0.25 at 0.25 -> +1 s.
        assert!((t.time_to_complete(0.0, 2.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn work_integration_zero_availability_floors() {
        let t = Trace::new(0.0, 1.0, vec![0.0, 1.0]);
        // Shouldn't hang; the floor makes the first second contribute ~0.
        let d = t.time_to_complete(0.0, 0.5);
        assert!((1.0..2.0).contains(&d), "d={d}");
    }

    #[test]
    fn zero_work_takes_zero_time() {
        assert_eq!(ramp().time_to_complete(1.3, 0.0), 0.0);
    }

    /// A varied 200-step trace with dead stretches, spikes, and smooth
    /// segments — exercise material for the equivalence tests.
    fn gnarly() -> Trace {
        Trace::from_fn(5.0, 0.7, 200, |t| {
            let s = (t * 0.43).sin().abs();
            if (20.0..25.0).contains(&t) {
                0.0 // dead stretch: work integration hits the floor
            } else if (40.0..41.0).contains(&t) {
                3.0 + s
            } else {
                0.05 + s
            }
        })
    }

    #[test]
    fn prefix_integral_matches_reference_walk() {
        let t = gnarly();
        let t_end = t.t0() + t.dt() * t.len() as f64;
        let (lo, hi) = (t.t0() - 10.0, t_end + 10.0);
        let span = hi - lo;
        // A dense lattice of endpoints, including many off-step points.
        let points: Vec<f64> = (0..=400).map(|i| lo + span * i as f64 / 400.0).collect();
        for (i, &a) in points.iter().enumerate() {
            for &b in &points[i..] {
                let fast = t.integral(a, b);
                let slow = integral_walk(&t, a, b);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "integral([{a}, {b}]): {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn prefix_integral_matches_reference_on_step_boundaries() {
        let t = gnarly();
        // Endpoints exactly on step boundaries (including t0 and t_end).
        for k in 0..=t.len() {
            let a = t.t0() + k as f64 * t.dt();
            for m in k..=t.len() {
                let b = t.t0() + m as f64 * t.dt();
                let fast = t.integral(a, b);
                let slow = integral_walk(&t, a, b);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "boundary integral([{a}, {b}]): {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn binary_search_completion_matches_reference_walk() {
        let t = gnarly();
        let t_end = t.t0() + t.dt() * t.len() as f64;
        let starts = [
            t.t0() - 7.3,
            t.t0(),
            t.t0() + 0.35,
            t.t0() + 11.0,
            t_end - 1.0,
            t_end + 5.0,
        ];
        let works = [1e-9, 0.01, 0.5, 3.0, 17.0, 60.0, 500.0];
        for &s in &starts {
            for &w in &works {
                let fast = t.time_to_complete(s, w);
                let slow = time_to_complete_walk(&t, s, w);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "ttc(start={s}, work={w}): {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn completion_matches_reference_when_work_ends_exactly_on_boundaries() {
        // Constant availability: any integer amount of work lands exactly
        // on a step boundary — the `capacity >= remaining` edge.
        let t = Trace::constant(2.0, 1.0, 0.5, 50);
        for k in 1..60u32 {
            let w = 0.5 * k as f64;
            let fast = t.time_to_complete(2.0, w);
            let slow = time_to_complete_walk(&t, 2.0, w);
            assert!((fast - slow).abs() <= 1e-9, "work {w}: {fast} vs {slow}");
            assert!((fast - k as f64).abs() <= 1e-9, "work {w} -> {fast}");
        }
    }

    #[test]
    fn completion_and_integral_are_inverses() {
        let t = gnarly();
        for &(s, w) in &[(6.0, 4.0), (0.0, 20.0), (30.0, 55.0)] {
            let d = t.time_to_complete(s, w);
            // The floored curve only differs from the raw trace on the
            // dead stretch; avoid it for the inverse check.
            let got = t.integral(s, s + d);
            if t.slice(s, s + d).min() > 0.0 {
                assert!((got - w).abs() < 1e-6, "integral back: {got} vs {w}");
            }
        }
    }

    #[test]
    fn long_trace_prefix_stays_accurate() {
        // 3600 one-second steps, production horizon scale: the Kahan
        // prefix keeps whole-horizon integrals at reference accuracy.
        let t = Trace::from_fn(0.0, 1.0, 3600, |x| 0.5 + 0.45 * (x * 0.01).sin());
        let fast = t.integral(0.0, 3600.0);
        let slow = integral_walk(&t, 0.0, 3600.0);
        assert!((fast - slow).abs() <= 1e-9, "{fast} vs {slow}");
        let d_fast = t.time_to_complete(17.3, 900.0);
        let d_slow = time_to_complete_walk(&t, 17.3, 900.0);
        assert!((d_fast - d_slow).abs() <= 1e-9, "{d_fast} vs {d_slow}");
    }

    #[test]
    fn sampling_cadence() {
        let t = ramp();
        let s = t.sample_every(0.0, 3.0, 0.5);
        assert_eq!(s.len(), 6);
        assert_eq!(s[0], (0.0, 1.0));
        assert_eq!(s[2], (1.0, 0.5));
    }

    #[test]
    fn from_fn_and_stats() {
        let t = Trace::from_fn(0.0, 1.0, 4, |x| x + 1.0);
        assert_eq!(t.values(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.min(), 1.0);
        assert_eq!(t.max(), 4.0);
        assert!((t.mean() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn slice_preserves_values_and_alignment() {
        let t = Trace::new(10.0, 2.0, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let s = t.slice(13.0, 17.0);
        // Step containing 13.0 starts at 12.0; 17.0 lies in [16, 18), so
        // three steps are retained.
        assert_eq!(s.t0(), 12.0);
        assert_eq!(s.values(), &[2.0, 3.0, 4.0]);
        assert_eq!(s.at(13.5), t.at(13.5));
        // Slices clamp to the horizon.
        let tail = t.slice(19.0, 100.0);
        assert_eq!(tail.values(), &[5.0]);
    }

    // --- boundary cases for `slice` and `sample_every` ---

    #[test]
    fn sample_every_empty_interval_is_empty() {
        let t = ramp();
        assert!(t.sample_every(1.0, 1.0, 0.5).is_empty(), "a == b");
        // Interval shorter than one cadence still yields the start sample.
        assert_eq!(t.sample_every(1.0, 1.1, 0.5), vec![(1.0, 0.5)]);
    }

    #[test]
    #[should_panic]
    fn sample_every_rejects_inverted_interval() {
        ramp().sample_every(2.0, 1.0, 0.5);
    }

    #[test]
    fn sample_every_clamps_beyond_horizon() {
        let t = ramp();
        let s = t.sample_every(2.5, 4.5, 1.0);
        // Samples past t_end hold the final value.
        assert_eq!(s, vec![(2.5, 0.25), (3.5, 0.25)]);
    }

    #[test]
    fn slice_entirely_before_horizon_clamps_to_first_step() {
        let t = Trace::new(10.0, 2.0, vec![1.0, 2.0, 3.0]);
        // [0, 5) lies before t0: the clamped slice is the first step.
        let s = t.slice(0.0, 5.0);
        assert_eq!(s.t0(), 10.0);
        assert_eq!(s.values(), &[1.0]);
    }

    #[test]
    fn slice_entirely_beyond_horizon_clamps_to_last_step() {
        let t = Trace::new(10.0, 2.0, vec![1.0, 2.0, 3.0]);
        let s = t.slice(100.0, 200.0);
        assert_eq!(s.values(), &[3.0]);
        assert_eq!(s.t0(), 14.0);
    }

    #[test]
    fn slice_single_step_interval() {
        let t = Trace::new(0.0, 1.0, vec![1.0, 2.0, 3.0, 4.0]);
        // An interval inside one step keeps exactly that step.
        let s = t.slice(1.2, 1.8);
        assert_eq!(s.t0(), 1.0);
        assert_eq!(s.values(), &[2.0]);
    }

    #[test]
    fn serde_shape_is_defining_fields_only() {
        let t = ramp();
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json, r#"{"t0":0.0,"dt":1.0,"values":[1.0,0.5,0.25]}"#,
            "derived data must not serialize"
        );
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
        // The rebuilt prefix answers queries identically.
        assert_eq!(back.integral(0.2, 2.9), t.integral(0.2, 2.9));
    }

    #[test]
    fn deserialize_rejects_invalid_data() {
        assert!(serde_json::from_str::<Trace>(r#"{"t0":0.0,"dt":1.0,"values":[]}"#).is_err());
        assert!(serde_json::from_str::<Trace>(r#"{"t0":0.0,"dt":-1.0,"values":[1.0]}"#).is_err());
    }

    #[test]
    #[should_panic]
    fn slice_rejects_empty_interval() {
        ramp().slice(2.0, 2.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        Trace::new(0.0, 1.0, vec![]);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_dt() {
        Trace::new(0.0, 0.0, vec![1.0]);
    }
}
