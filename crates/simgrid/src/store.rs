//! Columnar trace storage for grids of tens of thousands of machines.
//!
//! A [`crate::Trace`] costs O(steps · 16) bytes per machine (samples plus
//! prefix integral), which caps the simulated testbed at paper-sized
//! machine counts. The [`TraceStore`] drops that to O(1) amortized bytes
//! per machine by exploiting what a production fleet actually looks like:
//! a handful of *machine classes*, each with one statistical load regime.
//!
//! * The store holds a small set of **template columns** per class — full
//!   traces sharing one time grid (`t0`, `dt`, `steps` plus a `pad` of
//!   extra leading samples for phase shifts), generated chunk-by-chunk as
//!   a pure function of `(seed, column, chunk)` so generation is streamed,
//!   parallel, and order-independent (see [`crate::load::generate_chunk`]).
//! * Each machine is a [`MachineSlot`]: a template column index, a
//!   whole-step **phase shift** into the column's pad, and a **value
//!   scale** — 16 bytes, derived deterministically from
//!   `(seed, machine_index)`.
//! * A [`TraceRef`] is the machine's trace *view*: the slot's window of
//!   its column read through the one curve algebra of [`crate::trace`] —
//!   [`crate::Trace`]'s own queries, bit for bit, over the column's
//!   lazily built prefix array. Only one prefix per column is ever built:
//!   the store asserts every template value clears the work-integration
//!   floor (`1e-6`) even under the smallest scale, so the raw prefix
//!   doubles as the floored work-integration curve.

use crate::faults::{mix, unit};
use crate::load::LoadGenerator;
use crate::trace::{cumulative_prefix, Curve, Trace, AVAIL_FLOOR};
use std::sync::OnceLock;

/// Smallest per-machine value scale a slot may carry.
pub(crate) const SCALE_LO: f64 = 0.85;

/// Largest per-machine value scale (1.0 keeps availability ≤ the
/// template's ceiling).
pub(crate) const SCALE_HI: f64 = 1.0;

/// One template column: a padded value block plus its lazily-built
/// Kahan-compensated prefix integral.
#[derive(Debug)]
struct Column {
    /// `steps + pad` samples on the shared grid, starting `pad` steps
    /// before the visible `t0`.
    values: Box<[f64]>,
    /// `values.len() + 1` cumulative entries, built on first integral or
    /// work-integration query against any slot of this column.
    prefix: OnceLock<Box<[f64]>>,
}

impl Column {
    fn prefix(&self, dt: f64) -> &[f64] {
        self.prefix.get_or_init(|| {
            cumulative_prefix(dt, &self.values, f64::NEG_INFINITY).into_boxed_slice()
        })
    }
}

/// A machine's entire per-machine trace state: 16 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineSlot {
    /// Template column index into the store.
    pub column: u32,
    /// Whole-step phase shift into the column's pad, in `0..=pad`.
    pub shift: u32,
    /// Value scale in `[`[`SCALE_LO`]`, `[`SCALE_HI`]`]`.
    pub scale: f64,
}

impl MachineSlot {
    /// Derives the slot for `machine_index` purely from `seed`, choosing a
    /// column in `[column_lo, column_hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the column range is empty.
    pub fn derive(
        seed: u64,
        machine_index: usize,
        column_lo: u32,
        column_hi: u32,
        pad: u32,
    ) -> Self {
        assert!(column_hi > column_lo, "empty column range");
        let h = mix(seed ^ mix(machine_index as u64 + 1));
        let column =
            column_lo + (mix(h ^ 0x1111_1111_1111_1111) % u64::from(column_hi - column_lo)) as u32;
        let shift = (mix(h ^ 0x2222_2222_2222_2222) % (u64::from(pad) + 1)) as u32;
        let scale = SCALE_LO + (SCALE_HI - SCALE_LO) * unit(mix(h ^ 0x3333_3333_3333_3333));
        Self {
            column,
            shift,
            scale,
        }
    }
}

/// A template generator and how many independent columns it contributes.
pub(crate) struct TemplateSpec<'a> {
    /// The load process shared by every column of this group.
    pub generator: &'a (dyn LoadGenerator + Sync),
    /// Number of independent template columns to generate.
    pub count: usize,
}

/// Structure-of-arrays trace storage: shared time grid, template columns,
/// lazy prefix integrals. Machines reference it through [`MachineSlot`]s.
#[derive(Debug)]
pub struct TraceStore {
    t0: f64,
    dt: f64,
    /// Visible steps per machine view.
    steps: usize,
    /// Extra leading samples available for phase shifts.
    pad: usize,
    columns: Vec<Column>,
}

impl TraceStore {
    /// Builds a store from already-generated padded columns.
    ///
    /// # Panics
    ///
    /// Panics if `dt <= 0`, `steps == 0`, `columns` is empty, any column
    /// has the wrong padded length or a non-finite value, or any value
    /// scaled by [`SCALE_LO`] does not clear the work-integration floor.
    pub(crate) fn from_columns(
        t0: f64,
        dt: f64,
        steps: usize,
        pad: usize,
        columns: Vec<Vec<f64>>,
    ) -> Self {
        assert!(dt > 0.0, "store step must be positive");
        assert!(steps > 0, "store needs at least one step");
        assert!(!columns.is_empty(), "store needs at least one column");
        let padded = steps + pad;
        let mut min_value = f64::INFINITY;
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(col.len(), padded, "column {i} has wrong padded length");
            for &v in col {
                assert!(v.is_finite(), "column {i} has a non-finite value");
                min_value = min_value.min(v);
            }
        }
        assert!(
            min_value * SCALE_LO > AVAIL_FLOOR,
            "template values must clear the work-integration floor: min {min_value}"
        );
        let columns = columns
            .into_iter()
            .map(|values| Column {
                values: values.into_boxed_slice(),
                prefix: OnceLock::new(),
            })
            .collect();
        Self {
            t0,
            dt,
            steps,
            pad,
            columns,
        }
    }

    /// Generates a store's template columns chunk-by-chunk over the work
    /// pool. Column `c`'s stream seed is `derive_seed(seed, c)` and each
    /// chunk is a pure function of `(stream seed, chunk index)`, so the
    /// result is bit-identical at any thread count and any generation
    /// order. The columns cover `[t0 - pad·dt, t0 + steps·dt)` so phase
    /// shifts up to `pad` steps stay inside generated data.
    ///
    /// # Panics
    ///
    /// Panics on the [`TraceStore::from_columns`] conditions, or if
    /// `chunk_steps == 0` or `templates` is empty.
    // Every parameter is independently meaningful grid geometry; bundling
    // them into a one-use params struct would just rename the call site.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn generate_streamed(
        seed: u64,
        t0: f64,
        dt: f64,
        steps: usize,
        pad: usize,
        templates: &[TemplateSpec<'_>],
        chunk_steps: usize,
        threads: usize,
    ) -> Self {
        assert!(chunk_steps > 0, "chunk_steps must be positive");
        let total_columns: usize = templates.iter().map(|t| t.count).sum();
        assert!(total_columns > 0, "store needs at least one column");
        let padded = steps + pad;
        let n_chunks = padded.div_ceil(chunk_steps);
        // Flat (column, chunk) task grid; the generator of a column is
        // found by walking the template groups.
        let mut column_gen: Vec<&(dyn LoadGenerator + Sync)> = Vec::with_capacity(total_columns);
        for spec in templates {
            for _ in 0..spec.count {
                column_gen.push(spec.generator);
            }
        }
        let tasks: Vec<(usize, usize)> = (0..total_columns)
            .flat_map(|c| (0..n_chunks).map(move |k| (c, k)))
            .collect();
        let blocks = prodpred_pool::parallel_map(&tasks, threads, |_, &(c, k)| {
            let stream = prodpred_pool::derive_seed(seed, c as u64);
            crate::load::generate_chunk(
                column_gen[c],
                stream,
                t0 - pad as f64 * dt,
                dt,
                padded,
                chunk_steps,
                k,
            )
        });
        let columns: Vec<Vec<f64>> = (0..total_columns)
            .map(|c| {
                let mut values = Vec::with_capacity(padded);
                for k in 0..n_chunks {
                    values.extend_from_slice(&blocks[c * n_chunks + k]);
                }
                values
            })
            .collect();
        Self::from_columns(t0, dt, steps, pad, columns)
    }

    /// Start of the visible time grid.
    pub fn t0(&self) -> f64 {
        self.t0
    }

    /// Number of template columns.
    pub fn columns(&self) -> usize {
        self.columns.len()
    }

    /// The view for `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot's column or shift is out of range, or its scale
    /// is outside `[SCALE_LO, SCALE_HI]`.
    pub fn trace(&self, slot: MachineSlot) -> TraceRef<'_> {
        assert!(
            (slot.column as usize) < self.columns.len(),
            "column out of range"
        );
        assert!(slot.shift as usize <= self.pad, "shift exceeds pad");
        assert!(
            (SCALE_LO..=SCALE_HI).contains(&slot.scale),
            "scale {} outside [{SCALE_LO}, {SCALE_HI}]",
            slot.scale
        );
        let column = &self.columns[slot.column as usize];
        let off = slot.shift as usize;
        TraceRef {
            curve: Curve {
                t0: self.t0,
                dt: self.dt,
                samples: &column.values[off..off + self.steps],
                scale: slot.scale,
            },
            column,
            slot,
        }
    }

    /// Bytes held by the template value blocks.
    pub(crate) fn value_bytes(&self) -> usize {
        self.columns.len() * (self.steps + self.pad) * std::mem::size_of::<f64>()
    }

    /// Bytes held by prefix arrays built so far.
    pub(crate) fn prefix_bytes_built(&self) -> usize {
        self.columns
            .iter()
            .filter(|c| c.prefix.get().is_some())
            .count()
            * (self.steps + self.pad + 1)
            * std::mem::size_of::<f64>()
    }

    /// Total store bytes: values plus built prefixes.
    pub fn bytes(&self) -> usize {
        self.value_bytes() + self.prefix_bytes_built()
    }

    /// What one machine would cost as a standalone [`Trace`] (samples plus
    /// prefix integral, 16 bytes per step): `grid_scale`'s naive baseline.
    pub fn naive_bytes_per_machine(&self) -> usize {
        self.steps * 2 * std::mem::size_of::<f64>()
    }
}

/// A machine's trace view into a [`TraceStore`] — the thin replacement
/// for a per-machine [`Trace`] with the same queries: the slot's window
/// of its column at the slot's scale, as a [`Curve`].
#[derive(Debug, Clone, Copy)]
pub struct TraceRef<'a> {
    curve: Curve<'a>,
    column: &'a Column,
    slot: MachineSlot,
}

impl<'a> TraceRef<'a> {
    /// Start time of the visible window.
    pub fn t0(&self) -> f64 {
        self.curve.t0
    }

    /// Step width in seconds.
    pub fn dt(&self) -> f64 {
        self.curve.dt
    }

    /// Number of visible steps.
    pub fn len(&self) -> usize {
        self.curve.samples.len()
    }

    /// Always false (stores reject empty columns).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// End of the visible horizon.
    // tidy:allow(PP011): oracle for TraceStore's views, in crates/core/tests/grid_scale.rs
    pub fn t_end(&self) -> f64 {
        self.t0() + self.dt() * self.len() as f64
    }

    /// The view's window of the column's shared prefix, built on the
    /// first integrating query against the column — the work-integration
    /// curve too, because no sample reaches the floor.
    fn prefix(&self) -> &'a [f64] {
        let off = self.slot.shift as usize;
        &self.column.prefix(self.dt())[off..=off + self.len()]
    }

    /// The value at time `t` (clamped to the visible horizon).
    pub fn at(&self, t: f64) -> f64 {
        self.curve.at(t)
    }

    /// [`Trace::integral`] over the view: O(1), panics if `b < a`.
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        self.curve.integral(self.prefix(), a, b)
    }

    /// [`Trace::mean_over`] over the view: panics if `b < a`.
    // tidy:allow(PP011): oracle for TraceStore's views, in crates/core/tests/grid_scale.rs
    pub fn mean_over(&self, a: f64, b: f64) -> f64 {
        self.curve.mean_over(self.prefix(), a, b)
    }

    /// [`Trace::time_to_complete`] over the view, served from the shared
    /// column prefix: panics if `dedicated_work < 0`.
    pub fn time_to_complete(&self, t0_work: f64, dedicated_work: f64) -> f64 {
        self.curve
            .time_to_complete(self.prefix(), t0_work, dedicated_work)
    }

    /// [`Trace::sample_every`] over the view (the NWS sensor cadence).
    pub fn sample_every(&self, a: f64, b: f64, interval: f64) -> Vec<(f64, f64)> {
        self.curve.sample_every(a, b, interval)
    }

    /// Materializes the view as a standalone [`Trace`] — what the tests
    /// hand the walking oracles (`tests/support/walking_oracles.rs`), and
    /// where [`Trace::slice`] applies. An O(steps)
    /// copy on purpose; the simulation hot path stays on the shared columns.
    // tidy:allow(PP011): oracle for TraceStore's views, in crates/core/tests/grid_scale.rs
    pub fn materialize(&self) -> Trace {
        let c = self.curve;
        Trace::new(c.t0, c.dt, c.samples.iter().map(|&v| c.scale * v).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{MarkovModal, SingleModeAr1};
    use crate::trace::search_cases;
    use crate::trace::walking_oracles::{integral_walk, time_to_complete_walk};
    use proptest::prelude::*;

    impl TraceRef<'_> {
        /// The minimum visible sample value.
        pub(crate) fn min(&self) -> f64 {
            self.curve.min()
        }

        /// The maximum visible sample value.
        pub(crate) fn max(&self) -> f64 {
            self.curve.max()
        }

        /// Mean of the visible samples.
        pub(crate) fn mean(&self) -> f64 {
            self.curve.mean()
        }
    }

    impl TraceStore {
        /// Visible steps per machine view.
        pub(crate) fn steps(&self) -> usize {
            self.steps
        }

        /// Phase-shift pad in steps.
        pub(crate) fn pad(&self) -> usize {
            self.pad
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn view_forward_search_matches_the_whole_array_search_bitwise(
            steps in search_cases::steps(),
            grid in search_cases::grid(),
            runs in search_cases::runs(4..9),
            shift in 1u32..17,
            scale in SCALE_LO..0.999,
            start in search_cases::start(),
            work in search_cases::work(),
        ) {
            let pad = 16;
            let column = search_cases::stretches(steps + pad, &runs);
            let store = TraceStore::from_columns(grid.0, grid.1, steps, pad, vec![column]);
            let view = store.trace(MachineSlot { column: 0, shift, scale });
            let at = search_cases::place(grid, steps, start);
            prop_assert_eq!(
                view.time_to_complete(at, work).to_bits(),
                view.curve.time_to_complete_whole_array(view.prefix(), at, work).to_bits(),
                "start {}, work {}", at, work
            );
        }

        /// The two constructors of the one curve algebra cannot drift: a
        /// column read through the identity slot and a `Trace` over the
        /// same samples answer every query with the same bits.
        #[test]
        fn identity_view_and_trace_agree_bitwise(
            steps in search_cases::steps(),
            grid in search_cases::grid(),
            runs in search_cases::runs(4..9),
            start in search_cases::start(),
            span in search_cases::start(),
            work in search_cases::work(),
        ) {
            let samples = search_cases::stretches(steps, &runs);
            let store = TraceStore::from_columns(grid.0, grid.1, steps, 0, vec![samples.clone()]);
            let view = store.trace(MachineSlot { column: 0, shift: 0, scale: 1.0 });
            let trace = Trace::new(grid.0, grid.1, samples);
            let a = search_cases::place(grid, steps, start);
            let b = a.max(search_cases::place(grid, steps, span));
            let a = a.min(b);
            prop_assert_eq!(view.at(a).to_bits(), trace.at(a).to_bits(), "at {}", a);
            prop_assert_eq!(
                view.integral(a, b).to_bits(),
                trace.integral(a, b).to_bits(),
                "integral [{}, {}]", a, b
            );
            prop_assert_eq!(
                view.time_to_complete(a, work).to_bits(),
                trace.time_to_complete(a, work).to_bits(),
                "start {}, work {}", a, work
            );
            prop_assert_eq!(view.min().to_bits(), trace.min().to_bits());
            prop_assert_eq!(view.max().to_bits(), trace.max().to_bits());
            prop_assert_eq!(view.mean().to_bits(), trace.mean().to_bits());
        }
    }

    fn small_store() -> TraceStore {
        let bursty = MarkovModal::platform2(20.0);
        let calm = SingleModeAr1::platform1_center();
        TraceStore::generate_streamed(
            7,
            0.0,
            1.0,
            600,
            64,
            &[
                TemplateSpec {
                    generator: &bursty,
                    count: 3,
                },
                TemplateSpec {
                    generator: &calm,
                    count: 2,
                },
            ],
            128,
            1,
        )
    }

    #[test]
    fn streamed_generation_is_thread_count_invariant() {
        let bursty = MarkovModal::platform2(20.0);
        let spec = [TemplateSpec {
            generator: &bursty,
            count: 4,
        }];
        let a = TraceStore::generate_streamed(3, 0.0, 1.0, 500, 32, &spec, 100, 1);
        for threads in [2usize, 4, 8] {
            let b = TraceStore::generate_streamed(3, 0.0, 1.0, 500, 32, &spec, 100, threads);
            for c in 0..a.columns() {
                assert_eq!(
                    &*a.columns[c].values, &*b.columns[c].values,
                    "column {c} at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn slots_are_deterministic_and_diverse() {
        let a = MachineSlot::derive(1, 0, 0, 8, 64);
        assert_eq!(a, MachineSlot::derive(1, 0, 0, 8, 64));
        assert!((SCALE_LO..=SCALE_HI).contains(&a.scale));
        assert!(a.column < 8 && a.shift <= 64);
        // Across a fleet, slots spread over columns and shifts.
        let slots: Vec<MachineSlot> = (0..256)
            .map(|i| MachineSlot::derive(1, i, 0, 8, 64))
            .collect();
        let distinct_cols: std::collections::BTreeSet<u32> =
            slots.iter().map(|s| s.column).collect();
        let distinct_shifts: std::collections::BTreeSet<u32> =
            slots.iter().map(|s| s.shift).collect();
        assert_eq!(distinct_cols.len(), 8);
        assert!(distinct_shifts.len() > 32, "{}", distinct_shifts.len());
    }

    #[test]
    fn view_matches_materialized_trace_pointwise() {
        let store = small_store();
        for i in [0usize, 17, 91] {
            let slot = MachineSlot::derive(11, i, 0, store.columns() as u32, store.pad() as u32);
            let view = store.trace(slot);
            let full = view.materialize();
            for k in 0..=120 {
                let t = -20.0 + k as f64 * 6.1;
                assert_eq!(view.at(t), full.at(t), "machine {i} at t={t}");
            }
            assert_eq!(view.len(), full.len());
            assert_eq!(view.t_end(), full.t_end());
            assert!((view.mean() - full.mean()).abs() < 1e-12);
            assert!((view.min() - full.min()).abs() < 1e-15);
            assert!((view.max() - full.max()).abs() < 1e-15);
        }
    }

    #[test]
    fn view_integral_matches_reference_oracle() {
        let store = small_store();
        for i in [0usize, 5, 42] {
            let slot = MachineSlot::derive(23, i, 0, store.columns() as u32, store.pad() as u32);
            let view = store.trace(slot);
            let full = view.materialize();
            let (lo, hi) = (view.t0() - 15.0, view.t_end() + 15.0);
            let points: Vec<f64> = (0..=60).map(|k| lo + (hi - lo) * k as f64 / 60.0).collect();
            for (pi, &a) in points.iter().enumerate() {
                for &b in &points[pi..] {
                    let fast = view.integral(a, b);
                    let slow = integral_walk(&full, a, b);
                    assert!(
                        (fast - slow).abs() <= 1e-9,
                        "machine {i} integral([{a}, {b}]): {fast} vs {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn view_completion_matches_reference_oracle() {
        let store = small_store();
        for i in [0usize, 3, 77] {
            let slot = MachineSlot::derive(31, i, 0, store.columns() as u32, store.pad() as u32);
            let view = store.trace(slot);
            let full = view.materialize();
            let starts = [
                -9.5,
                0.0,
                0.35,
                113.0,
                view.t_end() - 1.0,
                view.t_end() + 40.0,
            ];
            let works = [1e-9, 0.01, 0.5, 3.0, 17.0, 180.0, 1500.0];
            for &s in &starts {
                for &w in &works {
                    let fast = view.time_to_complete(s, w);
                    let slow = time_to_complete_walk(&full, s, w);
                    assert!(
                        (fast - slow).abs() <= 1e-9,
                        "machine {i} ttc(start={s}, work={w}): {fast} vs {slow}"
                    );
                }
            }
        }
    }

    #[test]
    fn completion_and_integral_are_inverses_on_views() {
        let store = small_store();
        let slot = MachineSlot::derive(5, 9, 0, store.columns() as u32, store.pad() as u32);
        let view = store.trace(slot);
        for &(s, w) in &[(3.0, 4.0), (0.0, 55.0), (200.0, 130.0)] {
            let d = view.time_to_complete(s, w);
            let back = view.integral(s, s + d);
            assert!((back - w).abs() < 1e-6, "integral back: {back} vs {w}");
        }
    }

    #[test]
    fn prefixes_build_lazily_per_column() {
        let store = small_store();
        assert_eq!(store.prefix_bytes_built(), 0, "no query yet");
        let slot = MachineSlot::derive(2, 4, 0, 1, store.pad() as u32); // column 0
        store.trace(slot).integral(0.0, 100.0);
        let one = (store.steps() + store.pad() + 1) * 8;
        assert_eq!(store.prefix_bytes_built(), one, "one column built");
        assert_eq!(store.bytes(), store.value_bytes() + one);
    }

    #[test]
    fn sample_every_matches_materialized() {
        let store = small_store();
        let slot = MachineSlot::derive(9, 1, 0, store.columns() as u32, store.pad() as u32);
        let view = store.trace(slot);
        let full = view.materialize();
        assert_eq!(
            view.sample_every(0.0, 60.0, 5.0),
            full.sample_every(0.0, 60.0, 5.0)
        );
        assert!(view.sample_every(10.0, 10.0, 5.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "work-integration floor")]
    fn rejects_templates_below_the_floor() {
        TraceStore::from_columns(0.0, 1.0, 4, 0, vec![vec![0.5, 0.0, 0.5, 0.5]]);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn rejects_out_of_range_column() {
        let store = small_store();
        store.trace(MachineSlot {
            column: 999,
            shift: 0,
            scale: 1.0,
        });
    }

    #[test]
    #[should_panic(expected = "shift exceeds pad")]
    fn rejects_out_of_range_shift() {
        let store = small_store();
        store.trace(MachineSlot {
            column: 0,
            shift: 65,
            scale: 1.0,
        });
    }
}
