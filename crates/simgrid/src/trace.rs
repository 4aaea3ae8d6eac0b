//! Step-function resource traces.
//!
//! Every dynamic quantity in the simulated environment — CPU availability,
//! network availability — is a [`Trace`]: a piecewise-constant function of
//! time at fixed resolution. Traces support the two queries the rest of the
//! system needs: *sampling* (what the NWS sensors do every five seconds)
//! and *work integration* (how long does a computation of `W` dedicated
//! seconds take if it starts at `t0` and proceeds at the traced
//! availability).
//!
//! Both queries are answered in constant / logarithmic time from a
//! cumulative-integral (prefix-sum) array built once at construction:
//! [`Trace::integral`] is two O(1) interpolated lookups and
//! [`Trace::time_to_complete`] searches the prefix array forward from the
//! step the work starts in — O(log distance) to where it finishes, two
//! probes when that is the same step or the next.
//! The historical step-walking implementations are kept as
//! [`Trace::integral_reference`] and [`Trace::time_to_complete_reference`]
//! — O(steps) but independently simple — and the unit/property tests pin
//! the two to ≤ 1e-9 agreement; the whole-array binary search the forward
//! search replaced is the test-only oracle it is held to bit for bit.

use serde::{Deserialize, Serialize};

/// Availability at or below this floor is clamped up during work
/// integration so a zero-availability stretch cannot hang the simulation.
/// Crate-visible so the columnar [`crate::store::TraceStore`] can assert
/// its templates stay strictly above it (which lets the store serve work
/// integration from a single raw prefix array).
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
    /// `prefix[k]` = integral of the trace over the first `k` whole steps
    /// (Kahan-compensated, so 3600-step prefixes stay exact to ~1 ulp).
    prefix: Vec<f64>,
    /// Same, with each value clamped up to [`AVAIL_FLOOR`] — the work
    /// integration curve, strictly increasing and therefore searchable.
    /// Built only when some value lies below the floor: otherwise the
    /// clamp changes nothing and `prefix` is that curve, bit for bit.
    prefix_floored: Option<Vec<f64>>,
}

/// Builds the Kahan-compensated cumulative integral of `values * dt`,
/// clamping each value to at least `floor` (pass `f64::NEG_INFINITY` for
/// no clamping). `out[k]` covers the first `k` whole steps; `out.len() ==
/// values.len() + 1`.
pub(crate) fn cumulative_prefix(dt: f64, values: &[f64], floor: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len() + 1);
    out.push(0.0);
    let mut sum = 0.0;
    let mut comp = 0.0;
    for &v in values {
        let y = v.max(floor) * dt - comp;
        let t = sum + y;
        comp = (t - sum) - y;
        sum = t;
        out.push(sum);
    }
    out
}

/// The step in which a cumulative curve crosses a target: `cum` holds the
/// curve at every step start (non-decreasing), `below(p)` says `p` is
/// still short of the target, and `k0` is the step the work starts in.
/// The answer is the step before the first start that is not below — the
/// last step, which extends to +infinity, if every start is — exactly the
/// index a `partition_point` over all of `cum` leads to. It is found by
/// galloping forward from `k0` (+1, +2, +4, … clamped to the last step)
/// and bisecting the bracket, so the cost follows the distance to the
/// crossing and not the length of the trace: two probes when the work
/// ends in the step it starts in, at most about twice the whole-array
/// search's when it ends at the far end.
pub(crate) fn crossing_step(cum: &[f64], k0: usize, below: impl Fn(f64) -> bool) -> usize {
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
        let prefix = cumulative_prefix(dt, &values, f64::NEG_INFINITY);
        let prefix_floored = values
            .iter()
            .any(|&v| v < AVAIL_FLOOR)
            .then(|| cumulative_prefix(dt, &values, AVAIL_FLOOR));
        Self {
            t0,
            dt,
            values,
            prefix,
            prefix_floored,
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

    /// End of the generated horizon.
    pub fn t_end(&self) -> f64 {
        self.t0 + self.dt * self.values.len() as f64
    }

    /// Raw samples.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the trace, returning its samples without copying — the
    /// chunked generators hand freshly generated blocks to the columnar
    /// store this way.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Always false (construction rejects empty traces).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The value at time `t` (clamped to the horizon).
    pub fn at(&self, t: f64) -> f64 {
        if t <= self.t0 {
            return self.values[0];
        }
        let idx = ((t - self.t0) / self.dt) as usize;
        self.values[idx.min(self.values.len() - 1)]
    }

    /// Mean value over `[a, b]`, integrating the step function exactly.
    ///
    /// # Panics
    ///
    /// Panics if `b < a`.
    pub fn mean_over(&self, a: f64, b: f64) -> f64 {
        assert!(b >= a, "inverted interval [{a}, {b}]");
        if b == a {
            return self.at(a);
        }
        self.integral(a, b) / (b - a)
    }

    /// The step index whose segment contains `x`, clamped to the last
    /// step (which extends to +infinity). Callers guarantee `x > t0`.
    #[inline]
    fn step_of(&self, x: f64) -> usize {
        (((x - self.t0) / self.dt) as usize).min(self.values.len() - 1)
    }

    /// The cumulative integral `F(x) = ∫ trace` from `t0` to `x`, in O(1)
    /// via the prefix array: whole steps are a lookup, the partial step an
    /// interpolation. `x` before `t0` extends the first value backwards
    /// (negative area), `x` beyond the horizon extends the last forwards.
    #[inline]
    fn cumulative(&self, x: f64) -> f64 {
        if x <= self.t0 {
            return self.values[0] * (x - self.t0);
        }
        let k = self.step_of(x);
        self.prefix[k] + self.values[k] * (x - (self.t0 + k as f64 * self.dt))
    }

    /// The floor-clamped cumulative curve at every step start — the work
    /// integration curve.
    #[inline]
    fn work_prefix(&self) -> &[f64] {
        self.prefix_floored.as_deref().unwrap_or(&self.prefix)
    }

    /// [`Self::cumulative`] over the floor-clamped availability curve,
    /// with the step that contains `x` (0 before the trace starts).
    #[inline]
    fn cumulative_floored(&self, x: f64) -> (usize, f64) {
        if x <= self.t0 {
            return (0, self.values[0].max(AVAIL_FLOOR) * (x - self.t0));
        }
        let k = self.step_of(x);
        let within = self.values[k].max(AVAIL_FLOOR) * (x - (self.t0 + k as f64 * self.dt));
        (k, self.work_prefix()[k] + within)
    }

    /// Integral of the trace over `[a, b]`: the difference of two O(1)
    /// cumulative lookups.
    ///
    /// # Panics
    ///
    /// Panics if `b < a`.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        assert!(b >= a, "inverted interval [{a}, {b}]");
        self.cumulative(b) - self.cumulative(a)
    }

    /// The historical step-walking `integral`, kept as the independently
    /// simple reference the prefix path is validated against (and the
    /// baseline the `trace_integration` bench compares with).
    ///
    /// An integer step cursor guarantees termination even when interval
    /// endpoints land exactly on step boundaries (a float-recomputation
    /// loop can stall there).
    pub fn integral_reference(&self, a: f64, b: f64) -> f64 {
        assert!(b >= a, "inverted interval [{a}, {b}]");
        let mut acc = 0.0;
        let mut t = a;
        // Stretch before the horizon: the first value holds.
        if t < self.t0 {
            let seg_end = self.t0.min(b);
            acc += self.values[0] * (seg_end - t);
            t = seg_end;
        }
        if t >= b {
            return acc;
        }
        let last = self.values.len() - 1;
        let mut k = (((t - self.t0) / self.dt) as usize).min(last);
        loop {
            if k >= last {
                // Final value holds to the end of the interval.
                acc += self.values[last] * (b - t).max(0.0);
                return acc;
            }
            let step_end = self.t0 + (k as f64 + 1.0) * self.dt;
            if step_end >= b {
                acc += self.values[k] * (b - t).max(0.0);
                return acc;
            }
            acc += self.values[k] * (step_end - t).max(0.0);
            t = step_end;
            k += 1;
        }
    }

    /// How long work of `dedicated_work` seconds takes when started at
    /// `t0_work`, proceeding at the traced availability: the smallest `d`
    /// with `integral(t0_work, t0_work + d) == dedicated_work`.
    ///
    /// Availability at or below the `1e-6` floor is clamped up so a
    /// zero-availability stretch cannot hang the simulation forever.
    ///
    /// Implemented as a search over the floored prefix array for the step
    /// where the cumulative work curve crosses the target, then one
    /// division to interpolate inside it. The search (`crossing_step`)
    /// gallops forward from the step the work starts in, so it costs
    /// O(log steps-until-done) — two probes for work that ends in its own
    /// step or the next — instead of the O(steps) walk of
    /// [`Self::time_to_complete_reference`].
    pub fn time_to_complete(&self, t0_work: f64, dedicated_work: f64) -> f64 {
        assert!(
            dedicated_work >= 0.0,
            "work must be non-negative: {dedicated_work}"
        );
        // tidy:allow(PP004): exact zero-work shortcut, no tolerance wanted
        if dedicated_work == 0.0 {
            return 0.0;
        }
        // Work finishes at the x where the cumulative floored curve G
        // reaches G(t0_work) + W. G is strictly increasing (values are
        // clamped to a positive floor), so x is unique.
        let (k0, started) = self.cumulative_floored(t0_work);
        let target = started + dedicated_work;
        if target <= 0.0 {
            // Finishes before the trace even starts: constant first value.
            let v = self.values[0].max(AVAIL_FLOOR);
            return self.t0 + target / v - t0_work;
        }
        // Over the step starts only: the last step extends to +infinity,
        // so a target beyond the horizon clamps there.
        let cum = &self.work_prefix()[..self.values.len()];
        let k = crossing_step(cum, k0, |p| p < target);
        let v = self.values[k].max(AVAIL_FLOOR);
        let x = self.t0 + k as f64 * self.dt + (target - cum[k]) / v;
        x - t0_work
    }

    /// The historical step-walking `time_to_complete`, kept as the
    /// reference implementation the prefix-search path is validated
    /// against.
    pub fn time_to_complete_reference(&self, t0_work: f64, dedicated_work: f64) -> f64 {
        assert!(
            dedicated_work >= 0.0,
            "work must be non-negative: {dedicated_work}"
        );
        // tidy:allow(PP004): exact zero-work shortcut, no tolerance wanted
        if dedicated_work == 0.0 {
            return 0.0;
        }
        let mut remaining = dedicated_work;
        let mut t = t0_work;
        // Stretch before the horizon: the first value holds.
        if t < self.t0 {
            let v = self.values[0].max(AVAIL_FLOOR);
            let capacity = v * (self.t0 - t);
            if capacity >= remaining {
                return remaining / v;
            }
            remaining -= capacity;
            t = self.t0;
        }
        // Integer step cursor: strictly increasing, so the loop always
        // terminates (a float-recomputed index can stall on boundaries).
        let last = self.values.len() - 1;
        let mut k = (((t - self.t0) / self.dt) as usize).min(last);
        loop {
            let v = self.values[k].max(AVAIL_FLOOR);
            if k >= last {
                // Final value holds forever.
                return t + remaining / v - t0_work;
            }
            let step_end = self.t0 + (k as f64 + 1.0) * self.dt;
            let capacity = v * (step_end - t).max(0.0);
            if capacity >= remaining {
                return t + remaining / v - t0_work;
            }
            remaining -= capacity;
            t = step_end;
            k += 1;
        }
    }

    /// Samples the trace every `interval` seconds over `[a, b)` — the NWS
    /// sensor cadence. Returns `(t, value)` pairs.
    pub fn sample_every(&self, a: f64, b: f64, interval: f64) -> Vec<(f64, f64)> {
        assert!(interval > 0.0 && b >= a);
        let mut out = Vec::new();
        let mut t = a;
        while t < b {
            out.push((t, self.at(t)));
            t += interval;
        }
        out
    }

    /// The sub-trace covering `[a, b)`, clamped to the horizon. The
    /// result's `t0` is the start of the step containing `a`.
    ///
    /// # Panics
    ///
    /// Panics if `b <= a`.
    pub fn slice(&self, a: f64, b: f64) -> Trace {
        assert!(b > a, "empty slice [{a}, {b})");
        let last = self.values.len() - 1;
        let k0 = if a <= self.t0 {
            0
        } else {
            (((a - self.t0) / self.dt) as usize).min(last)
        };
        let k1 = if b <= self.t0 {
            1
        } else {
            ((((b - self.t0) / self.dt).ceil()) as usize).clamp(k0 + 1, last + 1)
        };
        Trace::new(
            self.t0 + k0 as f64 * self.dt,
            self.dt,
            self.values[k0..k1].to_vec(),
        )
    }

    /// Resamples to a coarser resolution: each output step of `factor`
    /// input steps holds their mean — how an archival tool thins a long
    /// trace without biasing work integration.
    ///
    /// # Panics
    ///
    /// Panics if `factor == 0`.
    pub fn downsample(&self, factor: usize) -> Trace {
        assert!(factor > 0, "downsample factor must be positive");
        if factor == 1 {
            return self.clone();
        }
        let values: Vec<f64> = self
            .values
            .chunks(factor)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
            .collect();
        Trace::new(self.t0, self.dt * factor as f64, values)
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

/// Serializes only the defining fields (`t0`, `dt`, `values`) — the same
/// shape the former derive produced — so stored traces stay readable and
/// the prefix arrays never hit disk.
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

/// Deserializes through [`Trace::new`], revalidating the data and
/// rebuilding the prefix arrays.
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

/// What the completion-search proptests, here and in [`crate::store`],
/// draw from: how long a trace is, where on it work starts and how much
/// work there is.
#[cfg(test)]
pub(crate) mod search_cases {
    use proptest::prelude::*;

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

    impl Trace {
        /// [`Trace::time_to_complete`] as it was before the search
        /// started where the work does: one `partition_point` over the
        /// whole prefix array. The oracle the forward search is held to,
        /// bit for bit.
        fn time_to_complete_whole_array(&self, t0_work: f64, dedicated_work: f64) -> f64 {
            if dedicated_work == 0.0 {
                return 0.0;
            }
            let target = self.cumulative_floored(t0_work).1 + dedicated_work;
            if target <= 0.0 {
                let v = self.values[0].max(AVAIL_FLOOR);
                return self.t0 + target / v - t0_work;
            }
            let last = self.values.len() - 1;
            let floored = self.work_prefix();
            let i = floored[..=last].partition_point(|&p| p < target);
            let k = i.saturating_sub(1).min(last);
            let v = self.values[k].max(AVAIL_FLOOR);
            let x = self.t0 + k as f64 * self.dt + (target - floored[k]) / v;
            x - t0_work
        }
    }

    /// Runs of a level each — dead (`0.0`, `-0.0`), below the floor,
    /// barely above it, ordinary, a spike — cycled to `steps` samples.
    fn stretches(steps: usize, runs: &[(usize, f64, usize)]) -> Vec<f64> {
        runs.iter()
            .flat_map(|&(kind, level, len)| {
                let v = match kind {
                    0 => 0.0,
                    1 => -0.0,
                    2 => 1e-9 * level,
                    3 => AVAIL_FLOOR * (1.0 + level),
                    4 => 3.0 + level,
                    _ => 0.01 + level,
                };
                std::iter::repeat_n(v, len)
            })
            .cycle()
            .take(steps)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn forward_search_matches_the_whole_array_search_bitwise(
            steps in search_cases::steps(),
            grid in search_cases::grid(),
            runs in proptest::collection::vec((0usize..9, 0.0f64..1.0, 1usize..80), 1..12),
            start in search_cases::start(),
            work in search_cases::work(),
        ) {
            let trace = Trace::new(grid.0, grid.1, stretches(steps, &runs));
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
        assert_eq!(t.work_prefix(), &t.prefix[..]);
    }

    #[test]
    fn a_zero_availability_stretch_builds_and_uses_its_own_floored_curve() {
        let values = vec![0.5, 0.0, 0.0, 0.0, 1e-9, 0.25];
        let t = Trace::new(0.0, 2.0, values.clone());
        let floored = t
            .prefix_floored
            .as_deref()
            .expect("a value is below the floor");
        assert_eq!(floored, &cumulative_prefix(2.0, &values, AVAIL_FLOOR)[..]);
        assert_eq!(t.work_prefix(), floored);
        assert_ne!(
            floored,
            &t.prefix[..],
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
        assert!((d - t.time_to_complete_reference(0.0, 1.5)).abs() <= 1e-9);
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
        assert!((t.mean_over(0.0, 2.0) - 0.75).abs() < 1e-9);
        assert_eq!(t.mean_over(1.5, 1.5), 0.5);
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
        let (lo, hi) = (t.t0() - 10.0, t.t_end() + 10.0);
        let span = hi - lo;
        // A dense lattice of endpoints, including many off-step points.
        let points: Vec<f64> = (0..=400).map(|i| lo + span * i as f64 / 400.0).collect();
        for (i, &a) in points.iter().enumerate() {
            for &b in &points[i..] {
                let fast = t.integral(a, b);
                let slow = t.integral_reference(a, b);
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
                let slow = t.integral_reference(a, b);
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
        let starts = [
            t.t0() - 7.3,
            t.t0(),
            t.t0() + 0.35,
            t.t0() + 11.0,
            t.t_end() - 1.0,
            t.t_end() + 5.0,
        ];
        let works = [1e-9, 0.01, 0.5, 3.0, 17.0, 60.0, 500.0];
        for &s in &starts {
            for &w in &works {
                let fast = t.time_to_complete(s, w);
                let slow = t.time_to_complete_reference(s, w);
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
            let slow = t.time_to_complete_reference(2.0, w);
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
        let slow = t.integral_reference(0.0, 3600.0);
        assert!((fast - slow).abs() <= 1e-9, "{fast} vs {slow}");
        let d_fast = t.time_to_complete(17.3, 900.0);
        let d_slow = t.time_to_complete_reference(17.3, 900.0);
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

    #[test]
    fn downsample_preserves_mean_and_integral() {
        let t = Trace::new(0.0, 1.0, vec![1.0, 3.0, 5.0, 7.0, 2.0, 4.0]);
        let d = t.downsample(2);
        assert_eq!(d.dt(), 2.0);
        assert_eq!(d.values(), &[2.0, 6.0, 3.0]);
        assert!((d.mean() - t.mean()).abs() < 1e-12);
        assert!((d.integral(0.0, 6.0) - t.integral(0.0, 6.0)).abs() < 1e-9);
        // Ragged tail chunk still averages correctly.
        let d3 = t.downsample(4);
        assert_eq!(d3.values(), &[4.0, 3.0]);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let t = ramp();
        assert_eq!(t.downsample(1), t);
    }

    // --- boundary cases for the view-routing helpers ---
    // `slice`, `downsample`, and `sample_every` back the `TraceRef`
    // materialization path, so their edges are load-bearing.

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
    fn downsample_factor_exceeding_len_collapses_to_mean() {
        let t = Trace::new(0.0, 1.0, vec![1.0, 3.0, 5.0]);
        let d = t.downsample(10);
        assert_eq!(d.len(), 1);
        assert!((d.values()[0] - 3.0).abs() < 1e-12);
        assert_eq!(d.dt(), 10.0);
    }

    #[test]
    fn downsample_non_divisible_factor_preserves_integral() {
        // 7 samples at factor 3: chunks of 3, 3, 1 — the ragged tail must
        // average over its own length, and the *integral over the covered
        // span* is only preserved chunk-by-chunk where chunks are full.
        let t = Trace::new(0.0, 1.0, vec![2.0, 4.0, 6.0, 1.0, 1.0, 1.0, 9.0]);
        let d = t.downsample(3);
        assert_eq!(d.values(), &[4.0, 1.0, 9.0]);
        // Full chunks preserve their own integral exactly.
        assert!((d.integral(0.0, 6.0) - t.integral(0.0, 6.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic]
    fn downsample_rejects_zero_factor() {
        ramp().downsample(0);
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
