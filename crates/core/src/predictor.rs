//! The prediction pipeline: NWS measurements → stochastic parameters →
//! structural model → stochastic execution-time prediction.
//!
//! This is the end-to-end methodology of the paper's Section 3: "we use a
//! stochastic value to represent CPU load, a parameter to the application
//! structural performance model", with the load (and its variance)
//! supplied by the Network Weather Service at run time.

use prodpred_nws::{ForecastSnapshot, NwsService};
use prodpred_simgrid::Platform;
use prodpred_sor::Strip;
use prodpred_stochastic::{Dependence, MaxStrategy, StochasticValue};
use prodpred_structural::{
    Param, PhaseBreakdown, ProcessorInputs, PtToPtModel, SorModelInputs, SorStructuralModel,
};
use serde::{Deserialize, Serialize};

/// Where the load stochastic values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LoadSource {
    /// The NWS's instantaneous stochastic value (forecast ± spread) — the
    /// paper's Section-3 methodology.
    Instantaneous,
    /// Run-horizon-scaled values (`NwsService::cpu_stochastic_for_horizon`
    /// at the run's own estimated duration, found by fixed point) — the
    /// Section-2.1.2 multi-modal-averaging idea made quantitative.
    RunHorizon,
    /// The paper's literal Section-2.1.2 prescription: the multi-modal
    /// weighted average `sum_i P_i (M_i ± SD_i)` over the detected modes
    /// of the load history.
    ModalAverage,
}

/// Predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Red+black iterations the application will run.
    pub iterations: usize,
    /// Strategy for the per-phase `Max` over processors.
    pub max_strategy: MaxStrategy,
    /// Dependence assumption between phase terms (shared machines and
    /// segment make `Related` the faithful default).
    pub phase_dependence: Dependence,
    /// Cap on the load's relative half-width fed to the model. Mode
    /// switches make raw window variance explode; the paper similarly
    /// summarizes per-mode. `None` feeds the NWS value through untouched.
    pub max_load_rel_width: Option<f64>,
    /// Load-value source.
    pub load_source: LoadSource,
    /// Draw instantaneous values through the NWS's fault-aware query path
    /// ([`NwsService::cpu_query`]): spreads widen with measurement
    /// staleness, and the forecast → window-stats → last-known fallback
    /// chain keeps predictions flowing through sensor dropout and
    /// blackouts. Off by default — the paper's healthy-substrate
    /// methodology. Applies to [`LoadSource::Instantaneous`] and to the
    /// bandwidth parameter; the horizon/modal sources keep their own
    /// estimators.
    pub staleness_aware: bool,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        Self {
            iterations: 50,
            max_strategy: MaxStrategy::ByMean,
            phase_dependence: Dependence::Related,
            max_load_rel_width: None,
            load_source: LoadSource::Instantaneous,
            staleness_aware: false,
        }
    }
}

/// Typed failure of the prediction pipeline's fallible entry points —
/// what [`SorPredictor::try_new`] and [`SorPredictor::try_predict`]
/// return instead of panicking or collapsing every cause into `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PredictorError {
    /// The NWS monitors a different machine count than the platform has.
    PlatformMismatch {
        /// Machines monitored by the NWS.
        nws: usize,
        /// Machines in the platform.
        platform: usize,
    },
    /// The decomposition names more strips than the platform has
    /// machines.
    TooManyStrips {
        /// Strips in the decomposition.
        strips: usize,
        /// Machines in the platform.
        machines: usize,
    },
    /// A required sensor had no usable data (its history is empty — a
    /// blackout from attach, or an outage outlasting retention).
    NoData {
        /// The machine whose load could not be obtained, or `None` for
        /// the shared network-bandwidth sensor.
        machine: Option<usize>,
    },
}

impl std::fmt::Display for PredictorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::PlatformMismatch { nws, platform } => {
                write!(f, "NWS monitors {nws} machines, platform has {platform}")
            }
            Self::TooManyStrips { strips, machines } => {
                write!(f, "{strips} strips over {machines} machines")
            }
            Self::NoData { machine: Some(i) } => write!(f, "no load data for machine {i}"),
            Self::NoData { machine: None } => write!(f, "no bandwidth data for the network"),
        }
    }
}

impl std::error::Error for PredictorError {}

/// A source of stochastic load and bandwidth values for the prediction
/// pipeline — the seam that lets one [`SorPredictor`] implementation run
/// against either the **live** [`NwsService`] (sensor locks, forecaster
/// tournament per query) or an **immutable** [`ForecastSnapshot`]
/// (epoch-published, lock-free, tournament already paid at publish).
///
/// Every method mirrors the corresponding `NwsService` query; the
/// snapshot implementation is pinned bit-identical to the live one, so a
/// prediction computed from a snapshot equals the prediction the live
/// service would have issued at the capture instant.
pub trait LoadView {
    /// Number of monitored machines.
    fn n_machines(&self) -> usize;
    /// Instantaneous stochastic CPU availability (the silent forecast
    /// path — [`NwsService::cpu_stochastic`]).
    fn cpu_stochastic(&self, i: usize) -> Option<StochasticValue>;
    /// Fault-aware instantaneous value ([`NwsService::cpu_query`]):
    /// staleness-widened, falling down the forecast → window-stats →
    /// last-known chain.
    fn cpu_query_value(&self, i: usize) -> Option<StochasticValue>;
    /// Multi-modal weighted average ([`NwsService::cpu_modal_stochastic`]).
    fn cpu_modal_stochastic(&self, i: usize) -> Option<StochasticValue>;
    /// Load averaged over a run of `horizon_secs`
    /// ([`NwsService::cpu_stochastic_for_horizon`]).
    fn cpu_stochastic_for_horizon(&self, i: usize, horizon_secs: f64) -> Option<StochasticValue>;
    /// Available-bandwidth fraction, silent path
    /// ([`NwsService::bandwidth_fraction_stochastic`]).
    fn bandwidth_fraction(&self) -> Option<StochasticValue>;
    /// Available-bandwidth fraction, fault-aware path
    /// ([`NwsService::bandwidth_fraction_query`]).
    fn bandwidth_fraction_query_value(&self) -> Option<StochasticValue>;
}

impl LoadView for NwsService {
    fn n_machines(&self) -> usize {
        NwsService::n_machines(self)
    }
    fn cpu_stochastic(&self, i: usize) -> Option<StochasticValue> {
        NwsService::cpu_stochastic(self, i)
    }
    fn cpu_query_value(&self, i: usize) -> Option<StochasticValue> {
        self.cpu_query(i).ok().map(|q| q.value)
    }
    fn cpu_modal_stochastic(&self, i: usize) -> Option<StochasticValue> {
        NwsService::cpu_modal_stochastic(self, i)
    }
    fn cpu_stochastic_for_horizon(&self, i: usize, horizon_secs: f64) -> Option<StochasticValue> {
        NwsService::cpu_stochastic_for_horizon(self, i, horizon_secs)
    }
    fn bandwidth_fraction(&self) -> Option<StochasticValue> {
        self.bandwidth_fraction_stochastic()
    }
    fn bandwidth_fraction_query_value(&self) -> Option<StochasticValue> {
        self.bandwidth_fraction_query().ok().map(|q| q.value)
    }
}

impl LoadView for ForecastSnapshot {
    fn n_machines(&self) -> usize {
        ForecastSnapshot::n_machines(self)
    }
    fn cpu_stochastic(&self, i: usize) -> Option<StochasticValue> {
        ForecastSnapshot::cpu_stochastic(self, i)
    }
    fn cpu_query_value(&self, i: usize) -> Option<StochasticValue> {
        self.machines[i].query.map(|q| q.value)
    }
    fn cpu_modal_stochastic(&self, i: usize) -> Option<StochasticValue> {
        ForecastSnapshot::cpu_modal_stochastic(self, i)
    }
    fn cpu_stochastic_for_horizon(&self, i: usize, horizon_secs: f64) -> Option<StochasticValue> {
        ForecastSnapshot::cpu_stochastic_for_horizon(self, i, horizon_secs)
    }
    fn bandwidth_fraction(&self) -> Option<StochasticValue> {
        self.bandwidth_fraction_stochastic()
    }
    fn bandwidth_fraction_query_value(&self) -> Option<StochasticValue> {
        self.bandwidth_query.map(|q| q.value)
    }
}

/// A prediction issued before a run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// The stochastic execution-time prediction.
    pub stochastic: StochasticValue,
    /// The conventional point prediction (all parameters at their means).
    pub point: f64,
    /// Per-phase maxima for diagnosis.
    pub breakdown: PhaseBreakdown,
    /// The per-processor load values fed to the model.
    pub loads: Vec<StochasticValue>,
}

/// Predicts SOR execution times on a platform from a [`LoadView`]: the
/// live NWS (the default) or an epoch-published [`ForecastSnapshot`].
pub struct SorPredictor<'a, V: LoadView = NwsService> {
    platform: &'a Platform,
    nws: &'a V,
    config: PredictorConfig,
}

impl<'a, V: LoadView> SorPredictor<'a, V> {
    /// Creates a predictor over a platform and its load view (live NWS
    /// or frozen snapshot).
    ///
    /// # Panics
    ///
    /// Panics if the view monitors a different platform — use
    /// [`SorPredictor::try_new`] to handle the mismatch as a typed error.
    pub fn new(platform: &'a Platform, nws: &'a V, config: PredictorConfig) -> Self {
        Self::try_new(platform, nws, config).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`SorPredictor::new`]: a platform/view mismatch surfaces
    /// as [`PredictorError::PlatformMismatch`] instead of a panic.
    ///
    /// # Errors
    ///
    /// Returns [`PredictorError::PlatformMismatch`] when the view monitors
    /// a different platform than `platform`.
    pub fn try_new(
        platform: &'a Platform,
        nws: &'a V,
        config: PredictorConfig,
    ) -> Result<Self, PredictorError> {
        if nws.n_machines() != platform.machines.len() {
            return Err(PredictorError::PlatformMismatch {
                nws: nws.n_machines(),
                platform: platform.machines.len(),
            });
        }
        Ok(Self {
            platform,
            nws,
            config,
        })
    }

    /// The configuration.
    pub fn config(&self) -> PredictorConfig {
        self.config
    }

    fn build_inputs(
        &self,
        n: usize,
        strips: &[Strip],
        get_load: impl Fn(usize) -> Option<StochasticValue>,
    ) -> Result<SorModelInputs, PredictorError> {
        if strips.len() > self.platform.machines.len() {
            return Err(PredictorError::TooManyStrips {
                strips: strips.len(),
                machines: self.platform.machines.len(),
            });
        }
        let mut procs = Vec::with_capacity(strips.len());
        for (i, strip) in strips.iter().enumerate() {
            let machine = &self.platform.machines[i];
            let mut load = get_load(i).ok_or(PredictorError::NoData { machine: Some(i) })?;
            if let Some(cap) = self.config.max_load_rel_width {
                let rel = load.half_width() / load.mean().abs().max(1e-9);
                if rel > cap {
                    load = StochasticValue::new(load.mean(), load.mean().abs() * cap);
                }
            }
            procs.push(ProcessorInputs {
                elements: strip.elements(n) as f64,
                bm_secs_per_elt: Param::point(machine.spec.class.benchmark_secs_per_element()),
                load: Param::stochastic(load),
            });
        }
        let bw_avail = if self.config.staleness_aware {
            self.nws.bandwidth_fraction_query_value()
        } else {
            self.nws.bandwidth_fraction()
        }
        .ok_or(PredictorError::NoData { machine: None })?;
        Ok(SorModelInputs {
            n,
            iterations: self.config.iterations,
            procs,
            network: PtToPtModel {
                size_elt: prodpred_sor::distsim::BYTES_PER_ELEMENT,
                ded_bw: Param::point(self.platform.network.spec.dedicated_bw),
                bw_avail: Param::stochastic(bw_avail),
                latency: self.platform.network.spec.latency,
                dependence: Dependence::Related,
            },
            max_strategy: self.config.max_strategy,
            phase_dependence: self.config.phase_dependence,
        })
    }

    /// The instantaneous load value for machine `i`, through the
    /// fault-aware query path when the config asks for it.
    fn instantaneous_load(&self, i: usize) -> Option<StochasticValue> {
        if self.config.staleness_aware {
            self.nws.cpu_query_value(i)
        } else {
            self.nws.cpu_stochastic(i)
        }
    }

    /// Builds the structural-model inputs for a run of an `n x n` grid
    /// over `strips`, using current (instantaneous) NWS stochastic values.
    ///
    /// Returns `None` until the NWS has data for every machine in use.
    pub fn model_inputs(&self, n: usize, strips: &[Strip]) -> Option<SorModelInputs> {
        self.build_inputs(n, strips, |i| self.instantaneous_load(i))
            .ok()
    }

    fn prediction_from(&self, model: SorStructuralModel, comm: StochasticValue) -> Prediction {
        let loads = model
            .inputs()
            .procs
            .iter()
            .map(|p| p.load.value())
            .collect::<Vec<_>>();
        let breakdown = model.breakdown_with(comm);
        Prediction {
            stochastic: model.total_from(&breakdown),
            point: model.predict_point(),
            breakdown,
            loads,
        }
    }

    /// Issues a prediction for a run of an `n x n` grid over `strips`.
    ///
    /// With [`LoadSource::RunHorizon`], the load values are scaled to the
    /// run's own duration by fixed point: the instantaneous model
    /// estimates the duration, then each of two passes re-reads every
    /// machine's load averaged over the latest estimate. The passes change
    /// only the loads, so all three share one `Max_p Comm_p`; each
    /// evaluates its own `Max_p Comp_p`, and only the last is returned.
    ///
    /// Returns `None` until the NWS has data for every machine in use —
    /// [`SorPredictor::try_predict`] reports *which* sensor is dry.
    pub fn predict(&self, n: usize, strips: &[Strip]) -> Option<Prediction> {
        self.try_predict(n, strips).ok()
    }

    /// Fallible [`SorPredictor::predict`]: every failure cause — too many
    /// strips, a dry CPU sensor, a dry bandwidth sensor — comes back as a
    /// distinct [`PredictorError`] so supervisors can decide whether a
    /// retry can possibly help.
    ///
    /// # Errors
    ///
    /// Returns a [`PredictorError`] when more strips than machines are
    /// requested or an NWS sensor cannot produce an estimate.
    pub fn try_predict(&self, n: usize, strips: &[Strip]) -> Result<Prediction, PredictorError> {
        // Whatever the source, the instantaneous read comes first, so the
        // sensor a caller is told is dry does not depend on it.
        let instantaneous = self.build_inputs(n, strips, |i| self.instantaneous_load(i))?;
        let mut model = SorStructuralModel::new(match self.config.load_source {
            LoadSource::Instantaneous | LoadSource::RunHorizon => instantaneous,
            LoadSource::ModalAverage => {
                self.build_inputs(n, strips, |i| self.nws.cpu_modal_stochastic(i))?
            }
        });
        let comm = model.comm_max();
        if self.config.load_source == LoadSource::RunHorizon {
            // Two refinement passes are ample: duration enters only
            // through the slowly varying averaging factor.
            for _ in 0..2 {
                let horizon = model
                    .total_from(&model.breakdown_with(comm))
                    .mean()
                    .max(1.0);
                model = SorStructuralModel::new(self.build_inputs(n, strips, |i| {
                    self.nws.cpu_stochastic_for_horizon(i, horizon)
                })?);
            }
        }
        Ok(self.prediction_from(model, comm))
    }
}

/// A dedicated-setting prediction with point parameters — the baseline
/// whose accuracy the paper quotes as "within 2%" of dedicated runs.
pub fn predict_dedicated(
    platform: &Platform,
    n: usize,
    strips: &[Strip],
    iterations: usize,
) -> StochasticValue {
    let procs = strips
        .iter()
        .enumerate()
        .map(|(i, s)| ProcessorInputs {
            elements: s.elements(n) as f64,
            bm_secs_per_elt: Param::point(
                platform.machines[i].spec.class.benchmark_secs_per_element(),
            ),
            load: Param::point(1.0),
        })
        .collect();
    let model = SorStructuralModel::new(SorModelInputs {
        n,
        iterations,
        procs,
        network: PtToPtModel {
            size_elt: prodpred_sor::distsim::BYTES_PER_ELEMENT,
            ded_bw: Param::point(platform.network.spec.dedicated_bw),
            bw_avail: Param::point(0.58),
            latency: platform.network.spec.latency,
            dependence: Dependence::Related,
        },
        max_strategy: MaxStrategy::ByMean,
        phase_dependence: Dependence::Related,
    });
    model.predict()
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_nws::NwsConfig;
    use prodpred_simgrid::{MachineClass, Platform};
    use prodpred_sor::partition_equal;

    #[test]
    fn needs_nws_data() {
        let p = Platform::platform1(1, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        let pred = SorPredictor::new(&p, &nws, PredictorConfig::default());
        let strips = partition_equal(998, 4);
        assert!(pred.predict(1000, &strips).is_none());
    }

    #[test]
    fn prediction_reflects_center_mode_load() {
        let p = Platform::platform1(2, 3600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 600.0);
        let pred = SorPredictor::new(&p, &nws, PredictorConfig::default());
        let strips = partition_equal(998, 4);
        let out = pred.predict(1000, &strips).unwrap();
        assert!(!out.stochastic.is_point());
        // Point prediction sits at the stochastic mean.
        assert!((out.point - out.stochastic.mean()).abs() / out.point < 1e-6);
        // Sparc-2 at ~0.48 dominates: per phase 998*998/4/2*2e-6/0.48
        // = 0.52 s; 50 iters * 2 phases ~ 52 s plus ~5 s of comm.
        assert!(
            out.stochastic.mean() > 45.0 && out.stochastic.mean() < 80.0,
            "{}",
            out.stochastic
        );
        assert_eq!(out.loads.len(), 4);
    }

    #[test]
    fn dedicated_prediction_is_point_and_smaller() {
        let prod = Platform::platform1(3, 3600.0);
        let nws = NwsService::attach(&prod, NwsConfig::default());
        nws.advance_to(&prod, 600.0);
        let strips = partition_equal(998, 4);
        let stochastic = SorPredictor::new(&prod, &nws, PredictorConfig::default())
            .predict(1000, &strips)
            .unwrap();
        let ded = Platform::dedicated(
            &[
                MachineClass::Sparc2,
                MachineClass::Sparc2,
                MachineClass::Sparc5,
                MachineClass::Sparc10,
            ],
            3600.0,
        );
        let ded_pred = predict_dedicated(&ded, 1000, &strips, 50);
        assert!(ded_pred.is_point());
        assert!(ded_pred.mean() < stochastic.stochastic.mean());
    }

    #[test]
    fn load_width_cap_applies() {
        let p = Platform::platform2(4, 3600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 1200.0);
        let strips = partition_equal(1598, 4);
        let uncapped = SorPredictor::new(&p, &nws, PredictorConfig::default())
            .predict(1600, &strips)
            .unwrap();
        let capped_cfg = PredictorConfig {
            max_load_rel_width: Some(0.10),
            ..Default::default()
        };
        let capped = SorPredictor::new(&p, &nws, capped_cfg)
            .predict(1600, &strips)
            .unwrap();
        assert!(capped.stochastic.half_width() <= uncapped.stochastic.half_width());
        for l in &capped.loads {
            assert!(l.half_width() / l.mean() <= 0.1 + 1e-9);
        }
    }

    #[test]
    fn staleness_aware_matches_legacy_on_healthy_data() {
        let p = Platform::platform1(6, 3600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 900.0);
        let strips = partition_equal(998, 4);
        let legacy = SorPredictor::new(&p, &nws, PredictorConfig::default())
            .predict(1000, &strips)
            .unwrap();
        let aware_cfg = PredictorConfig {
            staleness_aware: true,
            ..Default::default()
        };
        let aware = SorPredictor::new(&p, &nws, aware_cfg)
            .predict(1000, &strips)
            .unwrap();
        // With fresh, plentiful data the fault-aware path is the same
        // forecast + spread — bit-identical predictions.
        assert_eq!(
            aware.stochastic.mean().to_bits(),
            legacy.stochastic.mean().to_bits()
        );
        assert_eq!(
            aware.stochastic.half_width().to_bits(),
            legacy.stochastic.half_width().to_bits()
        );
    }

    #[test]
    fn staleness_aware_survives_a_blackout_with_wider_spread() {
        use prodpred_simgrid::faults::{FaultConfig, FaultPlan};
        let p = Platform::platform1(7, 8000.0);
        let mut fault_cfg = FaultConfig::none(7);
        fault_cfg.blackouts.push((1000.0, 2500.0));
        let nws =
            NwsService::attach_with_faults(&p, NwsConfig::default(), FaultPlan::new(fault_cfg));
        nws.advance_to(&p, 995.0);
        let strips = partition_equal(998, 4);
        let cfg = PredictorConfig {
            staleness_aware: true,
            ..Default::default()
        };
        let fresh = SorPredictor::new(&p, &nws, cfg)
            .predict(1000, &strips)
            .unwrap();
        nws.advance_to(&p, 2400.0);
        let stale = SorPredictor::new(&p, &nws, cfg)
            .predict(1000, &strips)
            .unwrap();
        assert!(stale.stochastic.mean().is_finite());
        assert!(
            stale.stochastic.half_width() > fresh.stochastic.half_width() * 3.0,
            "blackout must widen the prediction: fresh {} vs stale {}",
            fresh.stochastic,
            stale.stochastic
        );
    }

    #[test]
    fn typed_errors_name_the_failure() {
        let p = Platform::platform1(9, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        // Mismatched platform: the NWS watches 4 machines, this one has 2.
        let other = Platform::dedicated(&[MachineClass::Sparc2, MachineClass::Sparc5], 600.0);
        assert_eq!(
            SorPredictor::try_new(&other, &nws, PredictorConfig::default()).err(),
            Some(PredictorError::PlatformMismatch {
                nws: 4,
                platform: 2
            })
        );
        // Every load source reads the instantaneous values first, so a
        // caller sees the same error whichever one it asked for.
        for load_source in [
            LoadSource::Instantaneous,
            LoadSource::ModalAverage,
            LoadSource::RunHorizon,
        ] {
            let config = PredictorConfig {
                load_source,
                ..Default::default()
            };
            let pred = SorPredictor::try_new(&p, &nws, config).unwrap();
            // No polls yet: the first CPU sensor is dry.
            assert_eq!(
                pred.try_predict(1000, &partition_equal(998, 4)).err(),
                Some(PredictorError::NoData { machine: Some(0) }),
                "{load_source:?}"
            );
            // More strips than machines is a structural error, not a panic.
            assert_eq!(
                pred.try_predict(1000, &partition_equal(998, 5)).err(),
                Some(PredictorError::TooManyStrips {
                    strips: 5,
                    machines: 4
                }),
                "{load_source:?}"
            );
        }
        // A dry instantaneous sensor is named before a dry modal one on
        // an earlier machine: the instantaneous read comes first even
        // when its values are not what the model is fed.
        nws.advance_to(&p, 300.0);
        let mut snapshot = nws.snapshot(1);
        snapshot.machines[2].stochastic = None;
        snapshot.machines[1].modal = None;
        let modal = PredictorConfig {
            load_source: LoadSource::ModalAverage,
            ..Default::default()
        };
        let pred = SorPredictor::try_new(&p, &snapshot, modal).unwrap();
        assert_eq!(
            pred.try_predict(1000, &partition_equal(998, 4)).err(),
            Some(PredictorError::NoData { machine: Some(2) })
        );
        snapshot.machines[2].stochastic = snapshot.machines[0].stochastic;
        let pred = SorPredictor::try_new(&p, &snapshot, modal).unwrap();
        assert_eq!(
            pred.try_predict(1000, &partition_equal(998, 4)).err(),
            Some(PredictorError::NoData { machine: Some(1) })
        );
    }

    #[test]
    fn fewer_strips_than_machines_allowed() {
        let p = Platform::platform1(5, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 300.0);
        let pred = SorPredictor::new(&p, &nws, PredictorConfig::default());
        let strips = partition_equal(498, 2);
        assert!(pred.predict(500, &strips).is_some());
    }
}
