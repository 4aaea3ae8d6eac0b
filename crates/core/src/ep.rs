//! The embarrassingly parallel application of the paper's Section 1.2 —
//! "a simple two-machine system executing an embarrassingly parallel
//! application with a fixed number of units of work to be completed" —
//! as a second, complete application model: structural prediction,
//! simulated execution on load traces, and the scheduling study the paper
//! sketches around Table 1.

use crate::scheduler::AllocationPolicy;
use prodpred_simgrid::Platform;
use prodpred_stochastic::{max_of, MaxStrategy, StochasticValue};
use serde::{Deserialize, Serialize};

/// An embarrassingly parallel job: `units` independent units of work,
/// each costing `unit_dedicated_secs` on a reference machine (scaled per
/// machine by its benchmark ratio).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EpJob {
    /// Number of indivisible work units.
    pub units: u64,
    /// Dedicated seconds per unit on the reference class (Sparc-10).
    pub unit_dedicated_secs: f64,
}

impl EpJob {
    /// Dedicated seconds per unit on machine `i` of `platform`, scaled by
    /// the machine's per-element benchmark relative to the Sparc-10.
    pub(crate) fn unit_secs_on(&self, platform: &Platform, i: usize) -> f64 {
        let reference = prodpred_simgrid::MachineClass::Sparc10.benchmark_secs_per_element();
        let ratio = platform.machines[i].spec.class.benchmark_secs_per_element() / reference;
        self.unit_dedicated_secs * ratio
    }

    /// The stochastic per-unit time on machine `i` given a stochastic
    /// availability: `unit_secs / load`.
    pub(crate) fn stochastic_unit_time(
        &self,
        platform: &Platform,
        i: usize,
        load: StochasticValue,
    ) -> StochasticValue {
        StochasticValue::point(self.unit_secs_on(platform, i))
            .div(&load, prodpred_stochastic::Dependence::Unrelated)
    }
}

/// The EP structural model: `ExTime = Max_p (units_p * unit_time_p)`,
/// with stochastic unit times. No communication term — the units are
/// independent.
pub(crate) fn predict_ep(
    job: &EpJob,
    platform: &Platform,
    alloc: &[u64],
    loads: &[StochasticValue],
    strategy: MaxStrategy,
) -> StochasticValue {
    assert_eq!(alloc.len(), loads.len());
    assert!(!alloc.is_empty());
    let per: Vec<StochasticValue> = alloc
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            job.stochastic_unit_time(platform, i, loads[i])
                .scale(u as f64)
        })
        .collect();
    max_of(&per, strategy)
}

/// Result of one simulated EP execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct EpRun {
    /// Wall-clock completion (slowest machine).
    pub total_secs: f64,
    /// Per-machine finish times.
    pub per_machine_secs: Vec<f64>,
}

/// Simulates a statically allocated EP execution: machine `i` grinds
/// through `alloc[i]` units starting at `start_time`, with wall-clock time
/// integrating against its availability trace.
pub(crate) fn simulate_ep(
    job: &EpJob,
    platform: &Platform,
    alloc: &[u64],
    start_time: f64,
) -> EpRun {
    assert_eq!(alloc.len(), platform.machines.len());
    let per_machine_secs: Vec<f64> = alloc
        .iter()
        .enumerate()
        .map(|(i, &u)| {
            let work = u as f64 * job.unit_secs_on(platform, i);
            platform.machines[i].load.time_to_complete(start_time, work)
        })
        .collect();
    let total_secs = per_machine_secs.iter().copied().fold(0.0, f64::max);
    EpRun {
        total_secs,
        per_machine_secs,
    }
}

/// One strategy's outcome over repeated production runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EpStudyRow {
    /// Strategy label.
    pub policy: String,
    /// Mean completion over the runs.
    pub mean_secs: f64,
    /// 95th-percentile completion.
    pub p95_secs: f64,
    /// Fraction of runs inside the stochastic prediction issued at start.
    pub coverage: f64,
    /// Mean fraction of units assigned to each machine across the runs.
    pub mean_share: Vec<f64>,
}

/// Runs the Table-1 scheduling study end-to-end on live load traces.
///
/// Decisions happen at fixed instants `300 + k * period_secs`, the *same*
/// for every policy, so the policies face identical NWS states and their
/// outcomes are directly comparable. At each instant the study (a) reads
/// the stochastic unit-time estimates, (b) allocates under the policy,
/// (c) issues a prediction, (d) executes on the traces.
pub fn ep_policy_study(
    job: &EpJob,
    platform: &Platform,
    policies: &[(&str, AllocationPolicy)],
    runs: usize,
    period_secs: f64,
) -> Vec<EpStudyRow> {
    use prodpred_nws::{NwsConfig, NwsService};
    assert!(runs > 0 && period_secs > 0.0);
    let nws = NwsService::attach(platform, NwsConfig::default());
    let mut rows: Vec<EpStudyRow> = policies
        .iter()
        .map(|(name, _)| EpStudyRow {
            policy: name.to_string(),
            mean_secs: 0.0,
            p95_secs: 0.0,
            coverage: 0.0,
            mean_share: vec![0.0; platform.machines.len()],
        })
        .collect();
    let mut totals: Vec<Vec<f64>> = vec![Vec::with_capacity(runs); policies.len()];
    let mut covered = vec![0usize; policies.len()];

    for k in 0..runs {
        let t = 300.0 + k as f64 * period_secs;
        nws.advance_to(platform, t);
        let loads: Vec<StochasticValue> = (0..platform.machines.len())
            .map(|i| nws.cpu_stochastic(i).expect("warmed up")) // tidy:allow(PP003): the loop above warmed every NWS series first
            .collect();
        let unit_times: Vec<StochasticValue> = (0..platform.machines.len())
            .map(|i| job.stochastic_unit_time(platform, i, loads[i]))
            .collect();
        for (p_idx, (_, policy)) in policies.iter().enumerate() {
            let alloc = crate::scheduler::allocate_units(job.units, &unit_times, *policy);
            for (s, &u) in rows[p_idx].mean_share.iter_mut().zip(&alloc) {
                *s += u as f64 / job.units as f64;
            }
            let prediction = predict_ep(job, platform, &alloc, &loads, MaxStrategy::ByMean);
            let run = simulate_ep(job, platform, &alloc, t);
            if prediction.contains(run.total_secs) {
                covered[p_idx] += 1;
            }
            totals[p_idx].push(run.total_secs);
        }
    }

    for (p_idx, row) in rows.iter_mut().enumerate() {
        row.mean_secs = totals[p_idx].iter().sum::<f64>() / runs as f64;
        row.p95_secs =
            prodpred_stochastic::stats::quantile(&totals[p_idx], 0.95).expect("non-empty"); // tidy:allow(PP003): totals holds one entry per run and runs > 0
        row.coverage = covered[p_idx] as f64 / runs as f64;
        for s in &mut row.mean_share {
            *s /= runs as f64;
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_simgrid::{MachineClass, Platform};

    fn job() -> EpJob {
        EpJob {
            units: 200,
            unit_dedicated_secs: 0.5,
        }
    }

    #[test]
    fn unit_time_scales_with_machine_class() {
        let p = Platform::dedicated(
            &[
                MachineClass::Sparc2,
                MachineClass::Sparc10,
                MachineClass::UltraSparc,
            ],
            1.0e5,
        );
        let j = job();
        let s2 = j.unit_secs_on(&p, 0);
        let s10 = j.unit_secs_on(&p, 1);
        let us = j.unit_secs_on(&p, 2);
        assert!((s10 - 0.5).abs() < 1e-12); // reference class
        assert!(s2 > s10 && s10 > us);
        assert!((s2 / s10 - 2.0 / 0.9).abs() < 1e-9);
    }

    #[test]
    fn dedicated_simulation_matches_closed_form() {
        let p = Platform::dedicated(&[MachineClass::Sparc10, MachineClass::Sparc10], 1.0e6);
        let j = job();
        let run = simulate_ep(&j, &p, &[100, 100], 0.0);
        assert!((run.total_secs - 50.0).abs() < 1e-9);
        assert!((run.per_machine_secs[0] - run.per_machine_secs[1]).abs() < 1e-9);
    }

    #[test]
    fn loaded_machine_finishes_late() {
        use prodpred_simgrid::{Machine, MachineSpec, Trace};
        let quiet = Machine::new(
            MachineSpec::new("q", MachineClass::Sparc10),
            Trace::constant(0.0, 1.0, 1.0, 100_000),
        );
        let busy = Machine::new(
            MachineSpec::new("b", MachineClass::Sparc10),
            Trace::constant(0.0, 1.0, 0.25, 100_000),
        );
        let network = Platform::dedicated(&[MachineClass::Sparc10], 10.0).network;
        let p = Platform {
            machines: vec![quiet, busy],
            network,
            horizon: 1.0e5,
        };
        let run = simulate_ep(&job(), &p, &[100, 100], 0.0);
        assert!((run.per_machine_secs[1] / run.per_machine_secs[0] - 4.0).abs() < 1e-9);
        assert_eq!(run.total_secs, run.per_machine_secs[1]);
    }

    #[test]
    fn prediction_brackets_dedicated_run() {
        let p = Platform::dedicated(&[MachineClass::Sparc10, MachineClass::Sparc5], 1.0e6);
        let j = job();
        let loads = vec![StochasticValue::point(1.0); 2];
        let alloc = [120u64, 80];
        let pred = predict_ep(&j, &p, &alloc, &loads, MaxStrategy::ByMean);
        let run = simulate_ep(&j, &p, &alloc, 0.0);
        assert!(pred.is_point());
        assert!((pred.mean() - run.total_secs).abs() / run.total_secs < 1e-9);
    }

    #[test]
    fn policy_study_risk_averse_improves_p95_under_bursts() {
        // Heterogeneous volatility: machine 0 stable, machine 1 bursty.
        use prodpred_simgrid::load::{LoadGenerator, MarkovModal, SingleModeAr1};
        use prodpred_simgrid::{Machine, MachineSpec};
        let horizon = 200_000.0;
        let steps = horizon as usize;
        let stable = SingleModeAr1 {
            mean: 0.60,
            sd: 0.015,
            phi: 0.9,
        }
        .generate(1, 0.0, 1.0, steps);
        let bursty = MarkovModal {
            modes: vec![
                prodpred_simgrid::load::ModeSpec {
                    weight: 0.5,
                    mean: 0.95,
                    sd: 0.02,
                },
                prodpred_simgrid::load::ModeSpec {
                    weight: 0.5,
                    mean: 0.25,
                    sd: 0.02,
                },
            ],
            mean_dwell: 40.0,
            phi: 0.7,
        }
        .generate(2, 0.0, 1.0, steps);
        let network = Platform::dedicated(&[MachineClass::Sparc10], 10.0).network;
        let platform = Platform {
            machines: vec![
                Machine::new(MachineSpec::new("stable", MachineClass::Sparc10), stable),
                Machine::new(MachineSpec::new("bursty", MachineClass::Sparc10), bursty),
            ],
            network,
            horizon,
        };
        let rows = ep_policy_study(
            &job(),
            &platform,
            &[
                ("by-mean", AllocationPolicy::ByMean),
                ("risk-averse", AllocationPolicy::RiskAverse { lambda: 2.0 }),
            ],
            30,
            15.0,
        );
        assert_eq!(rows.len(), 2);
        // The mechanism: risk aversion shifts work away from the volatile
        // machine (index 1). Whether that also wins the tail depends on
        // how much a run averages over bursts — see the ep_study binary.
        assert!(
            rows[1].mean_share[1] < rows[0].mean_share[1],
            "risk-averse bursty share {} vs by-mean {}",
            rows[1].mean_share[1],
            rows[0].mean_share[1]
        );
        for r in &rows {
            assert!(r.mean_secs > 0.0);
            assert!(r.p95_secs >= r.mean_secs * 0.5);
            assert!((0.0..=1.0).contains(&r.coverage));
            assert!((r.mean_share.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn allocation_conservation_through_study() {
        let p = Platform::platform1(3, 40_000.0);
        let rows = ep_policy_study(
            &job(),
            &p,
            &[("by-mean", AllocationPolicy::ByMean)],
            3,
            10.0,
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].mean_secs > 0.0);
    }
}
