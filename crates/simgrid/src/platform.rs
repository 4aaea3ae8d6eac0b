//! The experimental platforms of Section 3.
//!
//! * **Platform 1**: "two Sparc-2 workstations, a Sparc-5 and a Sparc-10,
//!   all connected over 10 Mbit ethernet", tri-modal load, values staying
//!   within a single mode during a run.
//! * **Platform 2**: "a Sparc-5, a Sparc-10, and two UltraSparcs", 4-modal
//!   bursty load.
//!
//! Plus a dedicated configuration used to validate the structural model's
//! "within 2%" claim (Section 2.2.1).

use crate::faults::{check_storms, stormed, LoadStorm};
use crate::load::{derive_seed, LoadGenerator, LoadStream, MarkovModal, SingleModeAr1};
use crate::machine::{Machine, MachineClass, MachineSpec};
use crate::network::{Ethernet, EthernetContention, NetworkSpec};
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Resolution of generated load traces, seconds. Finer than the NWS's
/// 5-second sensor cadence so sensors observe genuine variation.
pub(crate) const TRACE_DT: f64 = 1.0;

/// A complete production environment: machines plus the shared segment.
///
/// ```
/// use prodpred_simgrid::Platform;
///
/// // Section 3.1's testbed, reproducible from a seed.
/// let p = Platform::platform1(42, 3600.0);
/// assert_eq!(p.len(), 4);
/// // The slowest machine sits in the 0.48 load mode...
/// let load = p.machines[0].load.integral(0.0, 3600.0) / 3600.0;
/// assert!((load - 0.48).abs() < 0.05);
/// // ...so its compute runs ~2x slower than dedicated.
/// let t = p.machines[0].compute_secs(1.0e6, 100.0);
/// assert!(t > 3.0 && t < 5.5, "{t}");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Platform {
    /// The workstations, in scheduling order.
    pub machines: Vec<Machine>,
    /// The shared ethernet.
    pub network: Ethernet,
    /// Horizon of the generated traces, seconds.
    pub horizon: f64,
}

impl Platform {
    /// Number of machines.
    pub fn len(&self) -> usize {
        self.machines.len()
    }

    /// Whether the platform has no machines (never true for the presets).
    pub fn is_empty(&self) -> bool {
        self.machines.is_empty()
    }

    /// Machine names in order.
    pub fn names(&self) -> Vec<&str> {
        self.machines.iter().map(|m| m.spec.name.as_str()).collect()
    }

    /// A dedicated platform: every machine fully available, quiet network.
    pub fn dedicated(classes: &[MachineClass], horizon: f64) -> Self {
        assert!(horizon > 0.0);
        let steps = (horizon / TRACE_DT).ceil() as usize;
        let machines = numbered_specs(classes)
            .into_iter()
            .map(|spec| Machine::new(spec, Trace::constant(0.0, TRACE_DT, 1.0, steps)))
            .collect();
        Self {
            machines,
            network: Ethernet::new(
                NetworkSpec::default(),
                Trace::constant(0.0, TRACE_DT, 0.58, steps),
            ),
            horizon,
        }
    }

    /// Platform 1 in its representative single-mode state: the Sparc-2s sit
    /// in the center load mode (0.48 ± 0.05, i.e. sd 0.025), the faster
    /// machines in the lightly-loaded top mode. Network quiet-dominated.
    ///
    /// [`GrowingPlatform::platform1`] grown to `horizon`: `horizon` only
    /// sets how much is generated, so `platform1(seed, h)` is a
    /// sample-for-sample prefix of `platform1(seed, 2.0 * h)` and anything
    /// that reads only times inside `h` gets the same bits from both. The
    /// same holds for [`Platform::platform2`].
    pub fn platform1(seed: u64, horizon: f64) -> Self {
        GrowingPlatform::platform1(seed, &[]).into_platform(horizon)
    }

    /// Platform 2: Sparc-5, Sparc-10, two UltraSparcs, 4-modal bursty load
    /// on every machine, busier network. [`GrowingPlatform::platform2`]
    /// grown to `horizon`; prefix stable in it, as [`Platform::platform1`].
    pub fn platform2(seed: u64, horizon: f64) -> Self {
        GrowingPlatform::platform2(seed, &[]).into_platform(horizon)
    }
}

/// A preset platform that grows with a series clock: the [`Platform`] so
/// far, the prefix-stable streams its load comes from, and the load storms
/// laid on that load. [`GrowingPlatform::cover`] pulls just the steps that
/// define every time up to the one asked for. The streams draw strictly in
/// step order, [`Trace::extend`] continues the Kahan prefix sums, and a
/// storm is a pointwise function of absolute time, so a platform grown in
/// pieces is the platform generated in one go, sample for sample and prefix
/// for prefix.
///
/// Growth needs no interior mutability: a reader takes `&Platform` per
/// call and keeps no borrow, so the owner grows it between reads.
pub struct GrowingPlatform {
    platform: Platform,
    loads: Vec<Box<dyn LoadStream>>,
    network: Box<dyn LoadStream>,
    storms: Vec<LoadStorm>,
}

impl GrowingPlatform {
    /// Platform 1's load streams ([`Platform::platform1`]) under `storms`,
    /// one step generated.
    ///
    /// # Panics
    ///
    /// Panics if a storm's factor lies outside `(0, 1]`.
    pub fn platform1(seed: u64, storms: &[LoadStorm]) -> Self {
        let center = SingleModeAr1 {
            mean: 0.48,
            sd: 0.025,
            phi: 0.9,
        };
        let top = SingleModeAr1 {
            mean: 0.94,
            sd: 0.015,
            phi: 0.9,
        };
        let loads = [center, center, top, top]
            .iter()
            .enumerate()
            .map(|(i, g)| g.stream(derive_seed(seed, i), TRACE_DT))
            .collect();
        let network = EthernetContention {
            busy_weight: 0.10,
            ..Default::default()
        }
        .stream(derive_seed(seed, 100), TRACE_DT);
        Self::new(platform1_specs(), loads, network, storms)
    }

    /// Platform 2's load streams ([`Platform::platform2`]) under `storms`,
    /// one step generated.
    ///
    /// # Panics
    ///
    /// Panics if a storm's factor lies outside `(0, 1]`.
    pub fn platform2(seed: u64, storms: &[LoadStorm]) -> Self {
        let specs = vec![
            MachineSpec::new("sparc5-a", MachineClass::Sparc5),
            MachineSpec::new("sparc10-a", MachineClass::Sparc10),
            MachineSpec::new("ultra-a", MachineClass::UltraSparc),
            MachineSpec::new("ultra-b", MachineClass::UltraSparc),
        ];
        let bursty = MarkovModal::platform2(25.0);
        let loads = (0..specs.len())
            .map(|i| bursty.stream(derive_seed(seed, i), TRACE_DT))
            .collect();
        let network = EthernetContention {
            busy_weight: 0.30,
            mean_dwell: 15.0,
            ..Default::default()
        }
        .stream(derive_seed(seed, 100), TRACE_DT);
        Self::new(specs, loads, network, storms)
    }

    fn new(
        specs: Vec<MachineSpec>,
        mut loads: Vec<Box<dyn LoadStream>>,
        mut network: Box<dyn LoadStream>,
        storms: &[LoadStorm],
    ) -> Self {
        check_storms(storms);
        let machines = specs
            .into_iter()
            .zip(&mut loads)
            .enumerate()
            .map(|(i, (spec, stream))| {
                Machine::new(
                    spec,
                    Trace::new(0.0, TRACE_DT, pull(stream, storms, i, 0, 1)),
                )
            })
            .collect();
        let avail = Trace::new(0.0, TRACE_DT, pull(&mut network, &[], 0, 0, 1));
        Self {
            platform: Platform {
                machines,
                network: Ethernet::new(NetworkSpec::default(), avail),
                horizon: TRACE_DT,
            },
            loads,
            network,
            storms: storms.to_vec(),
        }
    }

    /// The platform as generated so far; its `horizon` is the end of the
    /// generated load.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Generates load until the horizon lies strictly past `t`, so that
    /// every read at or before `t` sees generated load, never a held last
    /// value. Returns whether it had to generate any: `false` means the
    /// platform already covered `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not finite.
    pub fn cover(&mut self, t: f64) -> bool {
        assert!(t.is_finite(), "cannot cover t = {t}");
        self.grow_to((t / TRACE_DT).floor() as usize + 1)
    }

    /// The platform grown to `horizon`, with that horizon.
    fn into_platform(mut self, horizon: f64) -> Platform {
        assert!(horizon > 0.0);
        self.grow_to((horizon / TRACE_DT).ceil() as usize);
        self.platform.horizon = horizon;
        self.platform
    }

    /// Extends every trace to `steps` samples; false if they had them.
    fn grow_to(&mut self, steps: usize) -> bool {
        let have = self.platform.network.avail.len();
        if steps <= have {
            return false;
        }
        let k = steps - have;
        let machines = self.platform.machines.iter_mut().zip(&mut self.loads);
        for (i, (machine, stream)) in machines.enumerate() {
            machine.load.extend(&pull(stream, &self.storms, i, have, k));
        }
        let avail = &mut self.platform.network.avail;
        avail.extend(&pull(&mut self.network, &[], 0, have, k));
        self.platform.horizon = steps as f64 * TRACE_DT;
        true
    }
}

/// The next `k` samples of `stream`, steps `first..first + k` of the
/// `TRACE_DT` grid from 0, with the storms on `machine` laid on them.
fn pull(
    stream: &mut Box<dyn LoadStream>,
    storms: &[LoadStorm],
    machine: usize,
    first: usize,
    k: usize,
) -> Vec<f64> {
    let mut values = stream.pull(k);
    for (j, v) in values.iter_mut().enumerate() {
        *v = stormed(storms, machine, (first + j) as f64 * TRACE_DT, *v);
    }
    values
}

fn platform1_specs() -> Vec<MachineSpec> {
    vec![
        MachineSpec::new("sparc2-a", MachineClass::Sparc2),
        MachineSpec::new("sparc2-b", MachineClass::Sparc2),
        MachineSpec::new("sparc5-a", MachineClass::Sparc5),
        MachineSpec::new("sparc10-a", MachineClass::Sparc10),
    ]
}

fn numbered_specs(classes: &[MachineClass]) -> Vec<MachineSpec> {
    classes
        .iter()
        .enumerate()
        .map(|(i, &c)| MachineSpec::new(format!("{}-{}", c.name().to_lowercase(), i), c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::load::{Dedicated, LoadGenerator};
    use prodpred_stochastic::Summary;

    #[test]
    fn platform1_composition() {
        let p = Platform::platform1(1, 600.0);
        assert_eq!(p.len(), 4);
        assert_eq!(p.machines[0].spec.class, MachineClass::Sparc2);
        assert_eq!(p.machines[3].spec.class, MachineClass::Sparc10);
        assert_eq!(p.names().len(), 4);
    }

    #[test]
    fn platform1_slowest_machines_in_center_mode() {
        let p = Platform::platform1(2, 3600.0);
        for m in &p.machines[..2] {
            let s = Summary::from_slice(m.load.values());
            assert!((s.mean() - 0.48).abs() < 0.02, "mean {}", s.mean());
            assert!(s.sd() < 0.05, "sd {}", s.sd());
        }
        // Fast machines are lightly loaded.
        for m in &p.machines[2..] {
            let s = Summary::from_slice(m.load.values());
            assert!(s.mean() > 0.85, "mean {}", s.mean());
        }
    }

    #[test]
    fn platform2_is_bursty() {
        let p = Platform::platform2(3, 3600.0);
        for m in &p.machines {
            let s = Summary::from_slice(m.load.values());
            assert!(s.sd() > 0.15, "machine {} sd {}", m.spec.name, s.sd());
        }
    }

    #[test]
    fn dedicated_platform_full_availability() {
        let p = Platform::dedicated(&[MachineClass::Sparc2, MachineClass::UltraSparc], 100.0);
        for m in &p.machines {
            assert_eq!(m.load.min(), 1.0);
        }
    }

    #[test]
    fn dedicated_platform_is_the_dedicated_generator() {
        let classes = [
            MachineClass::Sparc2,
            MachineClass::Sparc5,
            MachineClass::UltraSparc,
        ];
        for horizon in [1.0, 99.5, 600.0] {
            let p = Platform::dedicated(&classes, horizon);
            let steps = (horizon / TRACE_DT).ceil() as usize;
            for (i, m) in p.machines.iter().enumerate() {
                let generated =
                    Dedicated::default().generate(derive_seed(0, i), 0.0, TRACE_DT, steps);
                assert_eq!(m.load, generated, "machine {i}, horizon {horizon}");
            }
            assert_eq!(p.network.avail, Trace::constant(0.0, TRACE_DT, 0.58, steps));
            assert_eq!(p.horizon, horizon);
        }
    }

    #[test]
    fn machines_get_independent_loads() {
        let p = Platform::platform2(4, 600.0);
        assert_ne!(p.machines[2].load, p.machines[3].load);
    }

    #[test]
    fn platforms_reproducible_by_seed() {
        let a = Platform::platform2(9, 300.0);
        let b = Platform::platform2(9, 300.0);
        assert_eq!(a.machines[0].load, b.machines[0].load);
        assert_eq!(a.network.avail, b.network.avail);
        let c = Platform::platform2(10, 300.0);
        assert_ne!(a.machines[0].load, c.machines[0].load);
    }
}
