//! Immutable forecast snapshots: the NWS query surface frozen at one
//! instant, for epoch-published prediction serving.
//!
//! A long-lived prediction service splits *ingest* (advancing sensors,
//! running the forecaster tournament) from *query* (turning frozen
//! stochastic values into execution-time predictions). The seam between
//! the two is [`ForecastSnapshot`]: everything a predictor can ask the
//! live [`NwsService`] — instantaneous stochastic values, fault-aware
//! query summaries, modal averages, horizon-scaled values, bandwidth —
//! captured once per publish epoch into a plain immutable value. The
//! ingest thread pays for mode detection once per epoch; thousands of
//! concurrent readers then answer from the snapshot without touching a
//! sensor lock.
//!
//! Every accessor is pinned **bit-identical** to the live method it
//! mirrors (`tests/service_core.rs`): a snapshot taken at sensor
//! time `t` answers exactly what the live service would have answered at
//! `t`, for every machine, load source, and staleness mode.

use crate::service::{modal_of, read_lock, NwsService, QueryError, QuerySummary};
use prodpred_stochastic::{StochasticValue, Summary};
use serde::{Deserialize, Serialize};

/// The per-machine statistics backing horizon-scaled queries
/// ([`ForecastSnapshot::cpu_stochastic_for_horizon`]): the retained
/// history summarized once at capture time, so the Ornstein–Uhlenbeck
/// time-average formula can be replayed for any run length without the
/// history itself.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HorizonBasis {
    /// Retained samples at capture time.
    pub samples: usize,
    /// Full-history mean (between-mode spread included).
    pub mean: f64,
    /// Full-history variance.
    pub variance: f64,
    /// Estimated autocorrelation time in seconds
    /// ([`NwsService::cpu_autocorrelation_time`]); `None` below 8 samples
    /// or on a constant series.
    pub tau: Option<f64>,
}

impl HorizonBasis {
    /// Summarises `history`, given its autocorrelation time.
    pub(crate) fn of(history: &[f64], tau: Option<f64>) -> Self {
        let (mean, variance) = if history.len() >= 2 {
            let s = Summary::from_slice(history);
            (s.mean(), s.variance())
        } else {
            (history.first().copied().unwrap_or(0.0), 0.0)
        };
        Self {
            samples: history.len(),
            mean,
            variance,
            tau,
        }
    }

    /// `current` averaged over a run of `horizon_secs`: the
    /// Ornstein–Uhlenbeck time-average formula of
    /// [`NwsService::cpu_stochastic_for_horizon`], which the live service
    /// and a snapshot both answer through.
    pub(crate) fn time_average(
        &self,
        current: StochasticValue,
        horizon_secs: f64,
    ) -> Option<StochasticValue> {
        if self.samples < 8 {
            return Some(current);
        }
        let tau = self.tau?;
        let d = horizon_secs;
        let r = tau / d;
        let decay = 1.0 - (-d / tau).exp();
        let mean = self.mean + (current.mean() - self.mean) * r * decay;
        let var_avg = (self.variance * (2.0 * r) * (1.0 - r * decay)).max(0.0);
        // The time-average variance cannot exceed the per-sample variance.
        let sigma = var_avg.min(self.variance).sqrt();
        Some(StochasticValue::from_mean_sd(mean, sigma))
    }
}

/// One machine's frozen query surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSnapshot {
    /// The sensor's resource label, e.g. `"cpu:sparc2-a"` — carried so
    /// [`QueryError::NoData`] from a snapshot names the same resource the
    /// live service would.
    pub resource: String,
    /// [`NwsService::cpu_stochastic`] at capture (the silent forecast
    /// path); `None` before the first measurement.
    pub stochastic: Option<StochasticValue>,
    /// [`NwsService::cpu_query`] at capture (the fault-aware path, with
    /// staleness widening baked in); `None` on an empty history.
    pub query: Option<QuerySummary>,
    /// [`NwsService::cpu_modal_stochastic`] at capture.
    pub modal: Option<StochasticValue>,
    /// History statistics for horizon-scaled replays.
    pub horizon: HorizonBasis,
}

/// The NWS query surface frozen at one publish epoch: a pure value, safe
/// to share immutably across any number of reader threads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ForecastSnapshot {
    /// Publish epoch (assigned by the publisher; the NWS itself is
    /// epoch-agnostic).
    pub epoch: u64,
    /// Sensor clock at capture ([`NwsService::now`]).
    pub captured_at: f64,
    /// Per-machine frozen views, indexed like the platform's machines.
    pub machines: Vec<MachineSnapshot>,
    /// [`NwsService::bandwidth_fraction_stochastic`] at capture.
    pub bandwidth_stochastic: Option<StochasticValue>,
    /// [`NwsService::bandwidth_fraction_query`] at capture.
    pub bandwidth_query: Option<QuerySummary>,
}

impl NwsService {
    /// Freezes the full query surface into an immutable
    /// [`ForecastSnapshot`] labelled `epoch`.
    ///
    /// This is the once-per-epoch cost of the prediction service's
    /// ingest side: it runs mode detection for every machine, so queries
    /// against the snapshot never do. Each machine's lock is taken once,
    /// and its summary, autocorrelation and modes share one view of the
    /// history.
    pub fn snapshot(&self, epoch: u64) -> ForecastSnapshot {
        let now = self.now();
        let machines = self
            .cpu
            .iter()
            .map(|lock| {
                let sensor = read_lock(lock);
                let history = sensor.series().contiguous_values();
                let stochastic = self.stochastic_of(&sensor);
                MachineSnapshot {
                    resource: sensor.name.clone(),
                    stochastic,
                    query: self.query_of(&sensor, now).ok(),
                    modal: modal_of(&history).or(stochastic),
                    horizon: HorizonBasis::of(&history, self.autocorrelation_time_of(&history)),
                }
            })
            .collect();
        let bandwidth = read_lock(&self.bandwidth);
        ForecastSnapshot {
            epoch,
            captured_at: now,
            machines,
            bandwidth_stochastic: self.stochastic_of(&bandwidth),
            bandwidth_query: self.query_of(&bandwidth, now).ok(),
        }
    }
}

impl ForecastSnapshot {
    /// Number of machines captured.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// Frozen [`NwsService::cpu_stochastic`].
    pub fn cpu_stochastic(&self, i: usize) -> Option<StochasticValue> {
        self.machines[i].stochastic
    }

    /// Frozen [`NwsService::cpu_query`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::NoData`] exactly when the live query at
    /// capture time did: the machine's history was empty.
    pub fn cpu_query(&self, i: usize) -> Result<QuerySummary, QueryError> {
        self.machines[i].query.ok_or_else(|| QueryError::NoData {
            resource: self.machines[i].resource.clone(),
        })
    }

    /// Frozen [`NwsService::cpu_modal_stochastic`].
    pub fn cpu_modal_stochastic(&self, i: usize) -> Option<StochasticValue> {
        self.machines[i].modal
    }

    /// Frozen [`NwsService::cpu_stochastic_for_horizon`]: the same
    /// Ornstein–Uhlenbeck time-average formula replayed from the
    /// captured [`HorizonBasis`], bit-identical to the live path for any
    /// `horizon_secs`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon_secs` is not positive (the live contract).
    pub fn cpu_stochastic_for_horizon(
        &self,
        i: usize,
        horizon_secs: f64,
    ) -> Option<StochasticValue> {
        assert!(horizon_secs > 0.0, "horizon must be positive");
        let current = self.cpu_stochastic(i)?;
        self.machines[i].horizon.time_average(current, horizon_secs)
    }

    /// Frozen [`NwsService::bandwidth_fraction_stochastic`].
    pub fn bandwidth_fraction_stochastic(&self) -> Option<StochasticValue> {
        self.bandwidth_stochastic
    }

    /// Frozen [`NwsService::bandwidth_fraction_query`].
    ///
    /// # Errors
    ///
    /// Returns [`QueryError::NoData`] exactly when the live query at
    /// capture time did: the bandwidth sensor's history was empty.
    pub fn bandwidth_fraction_query(&self) -> Result<QuerySummary, QueryError> {
        self.bandwidth_query.ok_or_else(|| QueryError::NoData {
            resource: "bandwidth:segment".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::NwsConfig;
    use prodpred_simgrid::Platform;

    fn bits(v: StochasticValue) -> (u64, u64) {
        (v.mean().to_bits(), v.half_width().to_bits())
    }

    #[test]
    fn snapshot_mirrors_live_queries_bitwise() {
        let p = Platform::platform2(17, 30_000.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 20_000.0);
        let snap = nws.snapshot(3);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.captured_at, nws.now());
        assert_eq!(snap.n_machines(), nws.n_machines());
        for i in 0..nws.n_machines() {
            assert_eq!(
                snap.cpu_stochastic(i).map(bits),
                nws.cpu_stochastic(i).map(bits)
            );
            assert_eq!(
                snap.cpu_query(i).unwrap().value.mean().to_bits(),
                nws.cpu_query(i).unwrap().value.mean().to_bits()
            );
            assert_eq!(
                snap.cpu_modal_stochastic(i).map(bits),
                nws.cpu_modal_stochastic(i).map(bits)
            );
            for d in [1.0, 60.0, 600.0, 5000.0] {
                assert_eq!(
                    snap.cpu_stochastic_for_horizon(i, d).map(bits),
                    nws.cpu_stochastic_for_horizon(i, d).map(bits),
                    "machine {i}, horizon {d}"
                );
            }
        }
        assert_eq!(
            snap.bandwidth_fraction_stochastic().map(bits),
            nws.bandwidth_fraction_stochastic().map(bits)
        );
    }

    #[test]
    fn snapshot_is_immutable_under_further_ingest() {
        let p = Platform::platform1(5, 3600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 600.0);
        let snap = nws.snapshot(1);
        let before = snap.cpu_stochastic(0).map(bits);
        nws.advance_to(&p, 1800.0);
        // The live service moved on; the snapshot did not.
        assert_eq!(snap.cpu_stochastic(0).map(bits), before);
        assert_ne!(
            nws.snapshot(2).cpu_stochastic(0).map(bits),
            before,
            "fresh data should move the live forecast"
        );
    }

    #[test]
    fn empty_history_snapshot_yields_typed_no_data() {
        let p = Platform::platform1(1, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        let snap = nws.snapshot(0);
        let err = snap.cpu_query(0).unwrap_err();
        assert!(matches!(err, QueryError::NoData { .. }));
        assert!(err.to_string().contains("cpu:"));
        assert!(snap.cpu_stochastic(0).is_none());
        assert!(matches!(
            snap.bandwidth_fraction_query(),
            Err(QueryError::NoData { .. })
        ));
    }

    #[test]
    fn short_history_horizon_falls_back_to_current() {
        let p = Platform::platform1(2, 600.0);
        let nws = NwsService::attach(&p, NwsConfig::default());
        nws.advance_to(&p, 25.0); // 6 samples: below the 8-sample floor
        let snap = nws.snapshot(0);
        assert_eq!(
            snap.cpu_stochastic_for_horizon(0, 100.0).map(bits),
            snap.cpu_stochastic(0).map(bits)
        );
    }
}
