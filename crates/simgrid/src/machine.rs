//! Workstation models.
//!
//! The paper's testbeds mixed Sparc-2, Sparc-5, Sparc-10, and UltraSparc
//! workstations with "diverse processor speeds, available physical memory,
//! and CPU load". A [`MachineSpec`] carries the *dedicated* performance
//! characteristics (the `BM(Elt_p)` benchmark and `Op`/`CPU` operation
//! model of Section 2.2.1); a [`Machine`] pairs a spec with a CPU
//! availability [`Trace`] that makes it a production machine.

use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// The workstation classes appearing in the paper's platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MachineClass {
    /// SPARCstation 2 — the slowest class in Platform 1.
    Sparc2,
    /// SPARCstation 5.
    Sparc5,
    /// SPARCstation 10.
    Sparc10,
    /// UltraSPARC — the fast machines of Platform 2.
    UltraSparc,
}

impl MachineClass {
    /// Dedicated benchmark time to process one SOR grid element, in
    /// seconds (`BM(Elt_p)` in the paper's computation component model).
    ///
    /// Values are calibrated so the simulated platforms land in the same
    /// execution-time ranges as the paper's figures (tens of seconds to a
    /// few minutes for 1000²–2000² grids on 4 machines).
    pub fn benchmark_secs_per_element(self) -> f64 {
        match self {
            MachineClass::Sparc2 => 2.0e-6,
            MachineClass::Sparc5 => 1.3e-6,
            MachineClass::Sparc10 => 0.9e-6,
            MachineClass::UltraSparc => 0.35e-6,
        }
    }

    /// Physical memory in megabytes — bounds the largest in-core problem
    /// (Figure 9 is restricted to "problem sizes which fit within main
    /// memory").
    pub(crate) fn memory_mb(self) -> f64 {
        match self {
            MachineClass::Sparc2 => 64.0,
            MachineClass::Sparc5 => 96.0,
            MachineClass::Sparc10 => 128.0,
            MachineClass::UltraSparc => 256.0,
        }
    }

    /// Human-readable class name.
    pub fn name(self) -> &'static str {
        match self {
            MachineClass::Sparc2 => "Sparc-2",
            MachineClass::Sparc5 => "Sparc-5",
            MachineClass::Sparc10 => "Sparc-10",
            MachineClass::UltraSparc => "UltraSparc",
        }
    }
}

/// Static description of one workstation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineSpec {
    /// Host name, e.g. `"sparc2-a"`.
    pub name: String,
    /// Hardware class.
    pub class: MachineClass,
}

impl MachineSpec {
    /// Creates a spec.
    pub fn new(name: impl Into<String>, class: MachineClass) -> Self {
        Self {
            name: name.into(),
            class,
        }
    }

    /// Dedicated time to process `elements` grid elements, in seconds.
    pub(crate) fn dedicated_compute_secs(&self, elements: f64) -> f64 {
        assert!(elements >= 0.0);
        elements * self.class.benchmark_secs_per_element()
    }

    /// Largest square grid (elements per side) whose strip for `p`
    /// processors fits in memory, assuming 8-byte elements and a factor-2
    /// working-set overhead.
    pub fn max_in_core_n(&self, processors: usize) -> usize {
        assert!(processors > 0);
        let bytes = self.class.memory_mb() * 1024.0 * 1024.0 / 2.0;
        // Strip holds N*N/p elements of 8 bytes.
        ((bytes / 8.0 * processors as f64).sqrt()) as usize
    }
}

/// A production workstation: spec + CPU availability over time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Machine {
    /// Static spec.
    pub spec: MachineSpec,
    /// CPU availability trace (fraction of the CPU our application gets).
    pub load: Trace,
}

impl Machine {
    /// Creates a machine from a spec and an availability trace.
    pub fn new(spec: MachineSpec, load: Trace) -> Self {
        Self { spec, load }
    }

    /// Wall-clock seconds to compute `elements` grid elements starting at
    /// time `t`, integrating work against the availability trace.
    pub fn compute_secs(&self, elements: f64, t: f64) -> f64 {
        let work = self.spec.dedicated_compute_secs(elements);
        self.load.time_to_complete(t, work)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's operation-counting computation model (`Comp_p1 =
    /// NumElt * Op * CPU`): the oracle the benchmark time the product path
    /// uses (`Comp_p2 = NumElt * BM`, from
    /// [`MachineClass::benchmark_secs_per_element`]) is held to.
    impl MachineClass {
        /// Floating-point operations needed per SOR element update
        /// (`Op(p, Elt)`): 4 neighbour adds, multiply by `omega/4`, one
        /// subtract and one add for the relaxation — ~7 flops plus indexing.
        pub(crate) fn ops_per_element(self) -> f64 {
            10.0
        }

        /// Seconds per operation (`CPU_p`), consistent with the benchmark:
        /// `BM = Op * CPU`.
        pub(crate) fn secs_per_op(self) -> f64 {
            self.benchmark_secs_per_element() / self.ops_per_element()
        }
    }

    #[test]
    fn class_ordering_by_speed() {
        // Faster classes have smaller per-element times.
        assert!(
            MachineClass::UltraSparc.benchmark_secs_per_element()
                < MachineClass::Sparc10.benchmark_secs_per_element()
        );
        assert!(
            MachineClass::Sparc10.benchmark_secs_per_element()
                < MachineClass::Sparc5.benchmark_secs_per_element()
        );
        assert!(
            MachineClass::Sparc5.benchmark_secs_per_element()
                < MachineClass::Sparc2.benchmark_secs_per_element()
        );
    }

    #[test]
    fn op_model_consistent_with_benchmark() {
        for c in [
            MachineClass::Sparc2,
            MachineClass::Sparc5,
            MachineClass::Sparc10,
            MachineClass::UltraSparc,
        ] {
            let via_ops = c.ops_per_element() * c.secs_per_op();
            assert!((via_ops - c.benchmark_secs_per_element()).abs() < 1e-15);
        }
    }

    #[test]
    fn dedicated_compute_scales_linearly() {
        let spec = MachineSpec::new("s2", MachineClass::Sparc2);
        let t1 = spec.dedicated_compute_secs(1.0e6);
        let t2 = spec.dedicated_compute_secs(2.0e6);
        assert!((t2 / t1 - 2.0).abs() < 1e-12);
        assert!((t1 - 2.0).abs() < 1e-9); // 1e6 elts * 2 us
    }

    #[test]
    fn production_compute_inflates_by_load() {
        let spec = MachineSpec::new("s10", MachineClass::Sparc10);
        let dedicated = Machine::new(spec.clone(), Trace::constant(0.0, 1.0, 1.0, 1000));
        let halved = Machine::new(spec, Trace::constant(0.0, 1.0, 0.5, 1000));
        let e = 1.0e6;
        let td = dedicated.compute_secs(e, 0.0);
        let th = halved.compute_secs(e, 0.0);
        assert!((th / td - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_respects_time_varying_load() {
        let spec = MachineSpec::new("s10", MachineClass::Sparc10);
        // 1.0 for 1 s then 0.25 afterwards.
        let m = Machine::new(spec, Trace::new(0.0, 1.0, vec![1.0, 0.25]));
        // Work of 2 dedicated seconds: 1 s at full speed + 4 s at quarter.
        let elements = 2.0 / MachineClass::Sparc10.benchmark_secs_per_element();
        let t = m.compute_secs(elements, 0.0);
        assert!((t - 5.0).abs() < 1e-6, "t={t}");
    }

    #[test]
    fn memory_bounds_grow_with_class() {
        let s2 = MachineSpec::new("a", MachineClass::Sparc2);
        let us = MachineSpec::new("b", MachineClass::UltraSparc);
        assert!(us.max_in_core_n(4) > s2.max_in_core_n(4));
        // 4-way Sparc-2 strip: sqrt(64MB/2/8 * 4) = sqrt(16M) = 4096.
        assert_eq!(s2.max_in_core_n(4), 4096);
    }

    #[test]
    fn mean_availability_window() {
        // A mean availability of 0.75 over [0, 4] — what a coarse
        // benchmark would report ("a mean capacity measure over a 24-hour
        // period") — is 3 dedicated seconds of work done in 4.
        let spec = MachineSpec::new("x", MachineClass::Sparc5);
        let m = Machine::new(spec, Trace::new(0.0, 1.0, vec![1.0, 0.5, 0.5, 1.0]));
        let elements = 3.0 / MachineClass::Sparc5.benchmark_secs_per_element();
        assert!((m.compute_secs(elements, 0.0) - 4.0).abs() < 1e-9);
    }
}
