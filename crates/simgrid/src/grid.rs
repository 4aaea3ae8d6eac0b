//! Grid-scale platforms: tens of thousands of production machines backed
//! by a columnar [`TraceStore`] instead of one [`crate::Trace`] each.
//!
//! A [`GridPlatform`] is the 1000×-scale sibling of [`crate::Platform`]:
//! machines are grouped into classes laid out contiguously, each class
//! shares a handful of template load columns, and every machine is a
//! 16-byte [`MachineSlot`] into the store. Queries go through
//! [`TraceRef`] views, so per-machine availability and work integration
//! keep the O(1)/O(log n) contracts of the full-trace path while
//! bytes/machine stays O(1) amortized.

use crate::load::{derive_seed, LoadGenerator, MarkovModal, SingleModeAr1};
use crate::machine::MachineClass;
use crate::network::{Ethernet, EthernetContention, NetworkSpec};
use crate::platform::TRACE_DT;
use crate::store::{MachineSlot, TemplateSpec, TraceRef, TraceStore};
use std::sync::Arc;

/// One machine class in a grid: how many machines and how many
/// independent template columns they share.
#[derive(Debug, Clone, Copy)]
pub struct GridClassSpec {
    /// Hardware class of every machine in the group.
    pub class: MachineClass,
    /// Number of machines.
    pub count: usize,
    /// Number of template load columns generated for the group; machines
    /// draw a column, a phase shift, and a value scale from their index.
    pub templates: usize,
}

/// A class group's resolved layout inside the grid.
#[derive(Debug, Clone, Copy)]
struct ClassRange {
    class: MachineClass,
    /// First machine index of the group (machines are contiguous).
    machine_lo: usize,
    machine_hi: usize,
    /// Template column range in the store.
    column_lo: u32,
    column_hi: u32,
}

/// A production grid: class ranges + columnar trace store + shared
/// ethernet. The store is `Arc`-shared so sharded simulation workers can
/// hold cheap handles.
#[derive(Debug, Clone)]
pub struct GridPlatform {
    store: Arc<TraceStore>,
    classes: Vec<ClassRange>,
    slots: Vec<MachineSlot>,
    /// The shared ethernet segment.
    pub network: Ethernet,
    /// Horizon of the generated traces, seconds.
    pub horizon: f64,
}

impl GridPlatform {
    /// Generates a grid: template columns are produced chunk-by-chunk over
    /// the work pool (bit-identical at any thread count — see
    /// `TraceStore::generate_streamed`), slots are derived purely from
    /// `(seed, machine index)`, and the network contention trace is seeded
    /// like the [`crate::Platform`] presets.
    ///
    /// `pad` extra leading steps are generated per column so machines can
    /// be phase-shifted against each other.
    ///
    /// # Panics
    ///
    /// Panics if `specs` and `generators` differ in length, any group has
    /// zero machines or templates, `horizon <= 0`, or `chunk_steps == 0`.
    pub fn generate(
        specs: &[GridClassSpec],
        generators: &[&(dyn LoadGenerator + Sync)],
        seed: u64,
        horizon: f64,
        pad: usize,
        chunk_steps: usize,
        threads: usize,
    ) -> Self {
        assert_eq!(specs.len(), generators.len());
        assert!(horizon > 0.0);
        let steps = (horizon / TRACE_DT).ceil() as usize;
        let templates: Vec<TemplateSpec<'_>> = specs
            .iter()
            .zip(generators)
            .map(|(s, &g)| {
                assert!(s.count > 0, "class {} has no machines", s.class.name());
                assert!(s.templates > 0, "class {} has no templates", s.class.name());
                TemplateSpec {
                    generator: g,
                    count: s.templates,
                }
            })
            .collect();
        let store = Arc::new(TraceStore::generate_streamed(
            seed,
            0.0,
            TRACE_DT,
            steps,
            pad,
            &templates,
            chunk_steps,
            threads,
        ));
        let mut classes = Vec::with_capacity(specs.len());
        let mut machine_lo = 0usize;
        let mut column_lo = 0u32;
        for s in specs {
            let column_hi = column_lo + s.templates as u32;
            classes.push(ClassRange {
                class: s.class,
                machine_lo,
                machine_hi: machine_lo + s.count,
                column_lo,
                column_hi,
            });
            machine_lo += s.count;
            column_lo = column_hi;
        }
        let slots: Vec<MachineSlot> = classes
            .iter()
            .flat_map(|r| {
                (r.machine_lo..r.machine_hi)
                    .map(|i| MachineSlot::derive(seed, i, r.column_lo, r.column_hi, pad as u32))
            })
            .collect();
        let network = Ethernet::new(
            NetworkSpec::default(),
            EthernetContention {
                busy_weight: 0.20,
                ..Default::default()
            }
            .generate(derive_seed(seed, 100), 0.0, TRACE_DT, steps),
        );
        Self {
            store,
            classes,
            slots,
            network,
            horizon,
        }
    }

    /// A representative production fleet of `machines` hosts: 10% Sparc-2
    /// under steady mid load, 20% Sparc-5 with tri-modal switching, 30%
    /// Sparc-10 and 40% UltraSparc under bursty 4-modal load — the two
    /// platform regimes of Section 3 scaled out.
    ///
    /// # Panics
    ///
    /// Panics if `machines < 8` (each class needs at least one host).
    pub fn production(machines: usize, seed: u64, horizon: f64, threads: usize) -> Self {
        assert!(machines >= 8, "need at least 8 machines, got {machines}");
        let n2 = machines / 10;
        let n5 = machines * 2 / 10;
        let n10 = machines * 3 / 10;
        let nu = machines - n2 - n5 - n10;
        let specs = [
            GridClassSpec {
                class: MachineClass::Sparc2,
                count: n2.max(1),
                templates: 8,
            },
            GridClassSpec {
                class: MachineClass::Sparc5,
                count: n5.max(1),
                templates: 16,
            },
            GridClassSpec {
                class: MachineClass::Sparc10,
                count: n10.max(1),
                templates: 16,
            },
            GridClassSpec {
                class: MachineClass::UltraSparc,
                count: nu.max(1),
                templates: 24,
            },
        ];
        let steady = SingleModeAr1 {
            mean: 0.48,
            sd: 0.025,
            phi: 0.9,
        };
        let tri = MarkovModal::platform1(60.0);
        let bursty = MarkovModal::platform2(25.0);
        Self::generate(
            &specs,
            &[&steady, &tri, &bursty, &bursty],
            seed,
            horizon,
            256,
            4096,
            threads,
        )
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the grid has no machines (construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The shared trace store.
    pub fn store(&self) -> &Arc<TraceStore> {
        &self.store
    }

    /// Machine `i`'s hardware class.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn class_of(&self, i: usize) -> MachineClass {
        self.classes
            .iter()
            .find(|r| i >= r.machine_lo && i < r.machine_hi)
            .unwrap_or_else(|| panic!("machine {i} out of range"))
            .class
    }

    /// Machine `i`'s availability trace view.
    pub fn trace(&self, i: usize) -> TraceRef<'_> {
        self.store.trace(self.slots[i])
    }

    /// Machine `i`'s slot (16 bytes of per-machine state).
    pub fn slot(&self, i: usize) -> MachineSlot {
        self.slots[i]
    }

    /// Wall-clock seconds for machine `i` to compute `elements` grid
    /// elements starting at `t` — the grid-scale analogue of
    /// [`crate::Machine::compute_secs`].
    pub fn compute_secs(&self, i: usize, elements: f64, t: f64) -> f64 {
        let work = elements * self.class_of(i).benchmark_secs_per_element();
        self.trace(i).time_to_complete(t, work)
    }

    /// Seconds to move `bytes` over the shared segment starting at `t`.
    pub fn transfer_secs(&self, bytes: f64, t: f64) -> f64 {
        self.network.transfer_secs(bytes, t)
    }

    /// Total bytes of trace state: store columns + built prefixes +
    /// per-machine slots. Excludes the (single, machine-count-independent)
    /// network trace.
    pub(crate) fn trace_bytes(&self) -> usize {
        self.store.bytes() + self.slots.len() * std::mem::size_of::<MachineSlot>()
    }

    /// Amortized trace bytes per machine.
    pub fn bytes_per_machine(&self) -> f64 {
        self.trace_bytes() as f64 / self.slots.len() as f64
    }

    /// What one machine would cost with a standalone per-machine trace
    /// (samples + prefix integral) — the baseline the 1/20th acceptance
    /// gate compares against.
    pub fn naive_bytes_per_machine(&self) -> usize {
        self.store.naive_bytes_per_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid(threads: usize) -> GridPlatform {
        GridPlatform::production(200, 42, 900.0, threads)
    }

    #[test]
    fn production_grid_layout() {
        let g = small_grid(1);
        assert_eq!(g.len(), 200);
        assert_eq!(g.class_of(0), MachineClass::Sparc2);
        assert_eq!(g.class_of(199), MachineClass::UltraSparc);
        // Class ranges are contiguous: 20 / 40 / 60 / 80.
        assert_eq!(g.class_of(19), MachineClass::Sparc2);
        assert_eq!(g.class_of(20), MachineClass::Sparc5);
        assert_eq!(g.class_of(60), MachineClass::Sparc10);
        assert_eq!(g.class_of(120), MachineClass::UltraSparc);
    }

    #[test]
    fn grid_generation_is_thread_count_invariant() {
        let one = small_grid(1);
        for threads in [2usize, 8] {
            let many = small_grid(threads);
            for i in [0usize, 19, 77, 199] {
                assert_eq!(one.slot(i), many.slot(i), "slot {i}");
                assert_eq!(
                    one.trace(i).materialize(),
                    many.trace(i).materialize(),
                    "trace {i} at {threads} threads"
                );
            }
            assert_eq!(one.network.avail, many.network.avail);
        }
    }

    #[test]
    fn machines_in_a_class_differ_but_share_columns() {
        let g = small_grid(1);
        // Two UltraSparcs: same class range, almost surely different slots.
        let a = g.slot(150);
        let b = g.slot(151);
        assert_ne!(a, b);
        let ta = g.trace(150).materialize();
        let tb = g.trace(151).materialize();
        assert_ne!(ta, tb);
    }

    #[test]
    fn compute_secs_matches_materialized_machine() {
        let g = small_grid(1);
        for i in [0usize, 45, 130] {
            let class = g.class_of(i);
            let m = crate::Machine::new(
                crate::MachineSpec::new("x", class),
                g.trace(i).materialize(),
            );
            for &(e, t) in &[(1.0e6, 0.0), (5.0e6, 123.0), (2.0e5, 880.0)] {
                let fast = g.compute_secs(i, e, t);
                let slow = m.compute_secs(e, t);
                assert!(
                    (fast - slow).abs() <= 1e-9,
                    "machine {i} compute({e}, {t}): {fast} vs {slow}"
                );
            }
        }
    }

    #[test]
    fn bytes_per_machine_collapses_at_scale() {
        let g = GridPlatform::production(2000, 7, 900.0, 1);
        // Force every column's prefix to build, then account.
        for i in 0..g.len() {
            g.trace(i).integral(0.0, 100.0);
        }
        let per = g.bytes_per_machine();
        let naive = g.naive_bytes_per_machine() as f64;
        assert!(
            per * 20.0 <= naive,
            "bytes/machine {per} not ≤ 1/20th of naive {naive}"
        );
    }
}
