//! Memory pressure and paging.
//!
//! The paper restricts Figure 9 to "problem sizes which fit within main
//! memory" — beyond that point the model's linear per-element cost breaks
//! down because the working set pages. This module supplies the in-core
//! check and a classic paging-slowdown model so the harness can show
//! *where* and *why* the prediction regime ends.

use crate::machine::MachineSpec;
use serde::{Deserialize, Serialize};

/// Bytes per grid element (f64).
pub const BYTES_PER_ELEMENT: f64 = 8.0;

/// Working-set overhead factor: ghost rows, solver state, the OS.
pub(crate) const WORKING_SET_FACTOR: f64 = 2.0;

/// Paging model parameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct PagingModel {
    /// Fraction of physical memory usable by the application.
    pub usable_fraction: f64,
    /// Multiplicative compute slowdown per unit of overcommit: at
    /// overcommit ratio `r > 1`, the effective per-element time is
    /// `1 + slowdown_per_overcommit * (r - 1)` times the in-core time.
    /// Disk-backed paging of the era was brutal: tens of times slower.
    pub slowdown_per_overcommit: f64,
}

impl Default for PagingModel {
    fn default() -> Self {
        Self {
            usable_fraction: 0.5,
            slowdown_per_overcommit: 30.0,
        }
    }
}

impl PagingModel {
    /// Bytes of memory the strip of `elements` grid elements needs.
    pub(crate) fn working_set_bytes(&self, elements: f64) -> f64 {
        elements * BYTES_PER_ELEMENT * WORKING_SET_FACTOR
    }

    /// Overcommit ratio for a strip on a machine: working set over usable
    /// memory. `<= 1` means in-core.
    pub(crate) fn overcommit(&self, spec: &MachineSpec, elements: f64) -> f64 {
        let usable = spec.class.memory_mb() * 1024.0 * 1024.0 * self.usable_fraction;
        self.working_set_bytes(elements) / usable
    }

    /// The compute-time inflation factor from paging (1.0 when in-core).
    pub fn slowdown(&self, spec: &MachineSpec, elements: f64) -> f64 {
        let r = self.overcommit(spec, elements);
        if r <= 1.0 {
            1.0
        } else {
            1.0 + self.slowdown_per_overcommit * (r - 1.0)
        }
    }

    /// Largest square grid `n` whose per-processor strip (of `n^2/p`
    /// elements) stays in core on `spec`.
    pub fn max_in_core_n(&self, spec: &MachineSpec, processors: usize) -> usize {
        assert!(processors > 0);
        let usable = spec.class.memory_mb() * 1024.0 * 1024.0 * self.usable_fraction;
        let max_elements = usable / (BYTES_PER_ELEMENT * WORKING_SET_FACTOR);
        ((max_elements * processors as f64).sqrt()) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineClass, MachineSpec};

    fn sparc2() -> MachineSpec {
        MachineSpec::new("s2", MachineClass::Sparc2)
    }

    #[test]
    fn small_problems_fit() {
        let m = PagingModel::default();
        // 1000x1000 over 4 procs: 250k elements -> 4 MB working set.
        assert!(m.overcommit(&sparc2(), 250_000.0) <= 1.0);
        assert_eq!(m.slowdown(&sparc2(), 250_000.0), 1.0);
    }

    #[test]
    fn oversized_strips_page() {
        let m = PagingModel::default();
        // Sparc-2: 64 MB, usable 32 MB, 16 B/elt -> 2M elements in core.
        let boundary = 2_097_152.0;
        assert!(m.overcommit(&sparc2(), boundary) <= 1.0);
        assert!(m.overcommit(&sparc2(), boundary * 1.01) > 1.0);
        let slow = m.slowdown(&sparc2(), boundary * 1.5);
        assert!((slow - 16.0).abs() < 0.1, "slowdown {slow}");
    }

    #[test]
    fn slowdown_monotone_in_overcommit() {
        let m = PagingModel::default();
        let mut prev = 0.0;
        for k in 1..10 {
            let s = m.slowdown(&sparc2(), 1.0e6 * k as f64);
            assert!(s >= prev);
            prev = s;
        }
    }

    #[test]
    fn max_in_core_n_consistent_with_fit() {
        let m = PagingModel::default();
        for p in [1usize, 2, 4] {
            let n = m.max_in_core_n(&sparc2(), p);
            let elements = (n * n) as f64 / p as f64;
            assert!(m.overcommit(&sparc2(), elements) <= 1.0, "n={n} p={p}");
            let n1 = n + 16;
            let e1 = (n1 * n1) as f64 / p as f64;
            assert!(m.overcommit(&sparc2(), e1) > 1.0, "n1={n1} p={p}");
        }
    }

    #[test]
    fn bigger_machines_hold_bigger_grids() {
        let m = PagingModel::default();
        let ultra = MachineSpec::new("u", MachineClass::UltraSparc);
        assert!(m.max_in_core_n(&ultra, 4) > m.max_in_core_n(&sparc2(), 4));
    }
}
