//! Variance-aware scheduling — the paper's motivating application
//! (Section 1.2, Table 1).
//!
//! "With additional information about the distribution of application
//! behavior, we can develop a sophisticated scheduling strategy tuned to
//! the user's performance metric. If the accuracy of the prediction is a
//! priority ... more work could be assigned to the small variance machine.
//! If there is little penalty for poor predictions, we might
//! optimistically assign a greater portion of the work to the often faster
//! machine."

use prodpred_simgrid::Platform;
use prodpred_sor::{partition_rows, Strip};
use prodpred_stochastic::StochasticValue;
use serde::{Deserialize, Serialize};

/// How to weigh a machine's stochastic unit-work time when allocating.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Balance expected completion times: weight ∝ 1 / mean.
    /// The conventional choice — what a point-valued model would do.
    ByMean,
    /// Risk-averse: weight ∝ 1 / (mean + lambda * sd). Penalizes
    /// high-variance machines; `lambda = 2` plans against the
    /// two-standard-deviation worst case.
    RiskAverse {
        /// Standard deviations of padding.
        lambda: f64,
    },
    /// Optimistic: weight ∝ 1 / max(mean - lambda * sd, floor). Bets on
    /// the machine's good days ("little penalty for poor predictions").
    Optimistic {
        /// Standard deviations of optimism.
        lambda: f64,
    },
}

impl AllocationPolicy {
    /// The effective unit-work time this policy plans with.
    pub(crate) fn effective_time(&self, unit: StochasticValue) -> f64 {
        match *self {
            AllocationPolicy::ByMean => unit.mean(),
            AllocationPolicy::RiskAverse { lambda } => unit.mean() + lambda * unit.sd(),
            AllocationPolicy::Optimistic { lambda } => {
                (unit.mean() - lambda * unit.sd()).max(unit.mean() * 0.05)
            }
        }
    }
}

/// Allocates `units` indivisible work units across machines with the given
/// stochastic unit-work times, conserving the total exactly
/// (largest-remainder rounding).
///
/// ```
/// use prodpred_core::{allocate_units, AllocationPolicy};
/// use prodpred_stochastic::StochasticValue;
///
/// // Table 1's production machines: equal means, unequal spreads.
/// let times = [
///     StochasticValue::from_percent(12.0, 5.0),
///     StochasticValue::from_percent(12.0, 30.0),
/// ];
/// assert_eq!(allocate_units(100, &times, AllocationPolicy::ByMean), [50, 50]);
/// let risk = allocate_units(100, &times, AllocationPolicy::RiskAverse { lambda: 2.0 });
/// assert!(risk[0] > risk[1]); // the stable machine gets more
/// ```
///
/// # Panics
///
/// Panics if `times` is empty or any effective time is non-positive.
pub fn allocate_units(units: u64, times: &[StochasticValue], policy: AllocationPolicy) -> Vec<u64> {
    assert!(!times.is_empty(), "need at least one machine");
    let speeds: Vec<f64> = times
        .iter()
        .map(|&t| {
            let eff = policy.effective_time(t);
            assert!(eff > 0.0, "effective unit time must be positive");
            1.0 / eff
        })
        .collect();
    let total_speed: f64 = speeds.iter().sum();
    let mut alloc = vec![0u64; times.len()];
    let mut rema: Vec<(f64, usize)> = Vec::with_capacity(times.len());
    let mut assigned = 0u64;
    for (i, &s) in speeds.iter().enumerate() {
        let exact = units as f64 * s / total_speed;
        let fl = exact.floor() as u64;
        alloc[i] = fl;
        assigned += fl;
        rema.push((exact - fl as f64, i));
    }
    rema.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = units - assigned;
    for &(_, i) in rema.iter().cycle() {
        if left == 0 {
            break;
        }
        alloc[i] += 1;
        left -= 1;
    }
    alloc
}

/// The planned completion-time interval for an allocation: per machine,
/// `units_i * (unit time)`, maximized by mean across machines.
pub fn planned_completion(alloc: &[u64], times: &[StochasticValue]) -> StochasticValue {
    assert_eq!(alloc.len(), times.len());
    let per: Vec<StochasticValue> = alloc
        .iter()
        .zip(times)
        .map(|(&u, &t)| t.scale(u as f64))
        .collect();
    prodpred_stochastic::max_of(&per, prodpred_stochastic::MaxStrategy::ByMean)
}

/// Strip-decomposition policies for the SOR application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DecompositionPolicy {
    /// One equal strip per machine.
    Equal,
    /// Strips proportional to dedicated speed (1 / benchmark time) — the
    /// paper's footnote-2 "assign more work to processors with greater
    /// capacity".
    DedicatedSpeed,
    /// Strips proportional to *effective* speed: dedicated speed times a
    /// load estimate (stochastic, combined under the given policy).
    EffectiveSpeed {
        /// How to fold the load's spread into the weight.
        policy: AllocationPolicy,
    },
}

/// Computes strips for an `n x n` grid on `platform` under `policy`,
/// with `loads` being per-machine stochastic availability (ignored by the
/// load-blind policies; must be provided for `EffectiveSpeed`).
pub fn decompose(
    platform: &Platform,
    n: usize,
    policy: DecompositionPolicy,
    loads: Option<&[StochasticValue]>,
) -> Vec<Strip> {
    let p = platform.machines.len();
    let weights: Vec<f64> = match policy {
        DecompositionPolicy::Equal => vec![1.0; p],
        DecompositionPolicy::DedicatedSpeed => platform
            .machines
            .iter()
            .map(|m| 1.0 / m.spec.class.benchmark_secs_per_element())
            .collect(),
        DecompositionPolicy::EffectiveSpeed { policy } => {
            let loads = loads.expect("EffectiveSpeed needs load estimates"); // tidy:allow(PP003): documented API contract of EffectiveSpeed
            assert_eq!(loads.len(), p, "one load per machine");
            platform
                .machines
                .iter()
                .zip(loads)
                .map(|(m, &l)| {
                    let unit = StochasticValue::new(
                        m.spec.class.benchmark_secs_per_element() / l.mean(),
                        m.spec.class.benchmark_secs_per_element() * l.half_width()
                            / (l.mean() * l.mean()),
                    );
                    1.0 / policy.effective_time(unit)
                })
                .collect()
        }
    };
    partition_rows(n - 2, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_simgrid::MachineClass;

    /// The paper's Table-1 production machines: both average 12 s/unit,
    /// A at ± 5%, B at ± 30%.
    fn table1() -> [StochasticValue; 2] {
        [
            StochasticValue::from_percent(12.0, 5.0),
            StochasticValue::from_percent(12.0, 30.0),
        ]
    }

    #[test]
    fn by_mean_splits_equal_means_equally() {
        let alloc = allocate_units(100, &table1(), AllocationPolicy::ByMean);
        assert_eq!(alloc, vec![50, 50]);
    }

    #[test]
    fn risk_averse_prefers_the_stable_machine() {
        let alloc = allocate_units(100, &table1(), AllocationPolicy::RiskAverse { lambda: 2.0 });
        assert!(
            alloc[0] > alloc[1],
            "stable machine should get more: {alloc:?}"
        );
        assert_eq!(alloc[0] + alloc[1], 100);
    }

    #[test]
    fn optimistic_prefers_the_volatile_machine() {
        let alloc = allocate_units(100, &table1(), AllocationPolicy::Optimistic { lambda: 1.0 });
        assert!(
            alloc[1] > alloc[0],
            "volatile machine should get more: {alloc:?}"
        );
        assert_eq!(alloc[0] + alloc[1], 100);
    }

    #[test]
    fn dedicated_table1_ratio_two_to_one() {
        // Dedicated: A = 10 s, B = 5 s -> "machine B should receive twice
        // as much work as machine A".
        let times = [StochasticValue::point(10.0), StochasticValue::point(5.0)];
        let alloc = allocate_units(90, &times, AllocationPolicy::ByMean);
        assert_eq!(alloc, vec![30, 60]);
    }

    #[test]
    fn allocation_conserves_total() {
        let times = [
            StochasticValue::new(7.0, 1.0),
            StochasticValue::new(11.0, 2.0),
            StochasticValue::new(13.0, 0.5),
        ];
        for units in [1u64, 7, 100, 9999] {
            let alloc = allocate_units(units, &times, AllocationPolicy::ByMean);
            assert_eq!(alloc.iter().sum::<u64>(), units);
        }
    }

    #[test]
    fn planned_completion_reflects_width() {
        let times = table1();
        let by_mean = allocate_units(100, &times, AllocationPolicy::ByMean);
        let risk = allocate_units(100, &times, AllocationPolicy::RiskAverse { lambda: 2.0 });
        let c_mean = planned_completion(&by_mean, &times);
        let c_risk = planned_completion(&risk, &times);
        // The risk-averse plan's *upper bound* is lower: shifting work to
        // the stable machine shrinks the worst case.
        assert!(c_risk.hi() < c_mean.hi(), "{} vs {}", c_risk, c_mean);
    }

    #[test]
    fn decompose_dedicated_speed() {
        let p = Platform::dedicated(&[MachineClass::Sparc2, MachineClass::UltraSparc], 10.0);
        let strips = decompose(&p, 100, DecompositionPolicy::DedicatedSpeed, None);
        // UltraSparc is 2.0/0.35 ~ 5.7x faster: gets the lion's share.
        assert!(strips[1].n_rows() > strips[0].n_rows() * 4);
        let total: usize = strips.iter().map(|s| s.n_rows()).sum();
        assert_eq!(total, 98);
    }

    #[test]
    fn decompose_effective_speed_accounts_for_load() {
        let p = Platform::dedicated(&[MachineClass::Sparc10, MachineClass::Sparc10], 10.0);
        let loads = [
            StochasticValue::new(0.9, 0.02),
            StochasticValue::new(0.3, 0.02),
        ];
        let strips = decompose(
            &p,
            100,
            DecompositionPolicy::EffectiveSpeed {
                policy: AllocationPolicy::ByMean,
            },
            Some(&loads),
        );
        // Identical hardware, but the loaded machine gets ~1/3 the rows.
        assert!(strips[0].n_rows() > strips[1].n_rows() * 2);
    }

    #[test]
    fn equal_decomposition() {
        let p = Platform::platform1(1, 10.0);
        let strips = decompose(&p, 102, DecompositionPolicy::Equal, None);
        assert!(strips.iter().all(|s| s.n_rows() == 25));
    }

    #[test]
    #[should_panic]
    fn effective_speed_requires_loads() {
        let p = Platform::platform1(1, 10.0);
        decompose(
            &p,
            100,
            DecompositionPolicy::EffectiveSpeed {
                policy: AllocationPolicy::ByMean,
            },
            None,
        );
    }
}
