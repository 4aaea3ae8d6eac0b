//! The three committed `BENCH_*.json` records and the bounds each is
//! committed under. A study binary gates the record it is about to write
//! at full scale; `tests/committed_records.rs` applies the same gate to
//! the committed copy, so a regenerated record that misses a bound fails
//! tier-1.

use serde::{Deserialize, Serialize};

use prodpred_service::replay::DISTINCT_REQUESTS;

/// A record a study binary writes and the repository commits.
pub trait Record: Serialize + Deserialize + std::fmt::Debug {
    /// File name of the committed copy at the repository root.
    const FILE: &'static str;

    /// Whether the record was taken at the scale the committed copy must
    /// have; a reduced smoke run exercises the machinery and is not held
    /// to the sampling- and timing-sensitive bounds.
    fn full_scale(&self) -> bool;

    /// Every bound a full-scale record is committed under: whether it
    /// holds, and what it demands.
    fn bounds(&self) -> Vec<(bool, &'static str)>;

    /// Panics, naming each missed bound, unless the record is full scale
    /// and every bound holds.
    fn gate(&self) {
        let missed: Vec<&str> = [(self.full_scale(), "full scale")]
            .into_iter()
            .chain(self.bounds())
            .filter_map(|(holds, demand)| (!holds).then_some(demand))
            .collect();
        assert!(
            missed.is_empty(),
            "{} misses {missed:#?}\n{self:#?}",
            Self::FILE
        );
    }

    /// Gates a full-scale record, then prints it on stdout and writes the
    /// same JSON to `arg` — the study's output-path argument — or,
    /// without one, to `target/tmp/<FILE>`: the committed copy is
    /// replaced only when its path is passed. Returns the path written.
    ///
    /// # Errors
    ///
    /// The record holds a non-finite float, or the path is not writable.
    fn write(&self, arg: Option<String>) -> std::io::Result<String> {
        if self.full_scale() {
            self.gate();
        } else {
            eprintln!("{}: reduced scale, gate skipped", Self::FILE);
        }
        let path = match arg {
            Some(path) => path,
            None => {
                std::fs::create_dir_all("target/tmp")?;
                format!("target/tmp/{}", Self::FILE)
            }
        };
        let json = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        println!("{json}");
        std::fs::write(&path, json + "\n")?;
        Ok(path)
    }
}

/// `chaos_study`: the supervised-solver campaign.
#[derive(Debug, Serialize, Deserialize)]
pub struct ChaosReport {
    pub schedules: usize,
    pub campaign_seed: u64,
    pub panics: usize,
    pub faulty_schedules: usize,
    pub completed_with_recovery: usize,
    pub completed_without_recovery: usize,
    pub completion_rate_with_recovery: f64,
    pub completion_rate_without_recovery: f64,
    pub recovered_exact: usize,
    pub mean_retries: f64,
    pub mean_backoff_secs: f64,
    pub abandoned: usize,
    pub resumed_iterations_saved: u64,
    /// Fault-model forecasts of the campaign aggregates above, computed
    /// *before* running a single schedule (`prodpred_core::faultmodel`
    /// at intensity 1.0 — the campaign's own kill-count distribution).
    pub predicted_completion_rate: f64,
    pub predicted_mean_retries: f64,
    pub predicted_mean_backoff_secs: f64,
    pub predicted_mean_saved_iterations: f64,
    pub healthy_solve_secs: f64,
    pub checkpointed_solve_secs: f64,
    pub checkpoint_overhead_healthy: f64,
    pub deterministic_1_vs_8: bool,
    pub digest: String,
}

impl Record for ChaosReport {
    const FILE: &'static str = "BENCH_chaos.json";

    fn full_scale(&self) -> bool {
        self.schedules >= 200
    }

    fn bounds(&self) -> Vec<(bool, &'static str)> {
        vec![
            (
                self.checkpoint_overhead_healthy <= 0.05,
                "checkpointing a healthy solve costs at most 5%",
            ),
            (self.panics == 0, "every failure is a typed error"),
            (self.deterministic_1_vs_8, "independent of pool width"),
        ]
    }
}

/// Predicted vs measured for one campaign aggregate.
#[derive(Debug, Serialize, Deserialize)]
pub struct Term {
    pub name: String,
    pub predicted: f64,
    pub measured: f64,
    pub rel_error: f64,
}

/// One intensity row of `faultpred_study`'s sweep half.
#[derive(Debug, Serialize, Deserialize)]
pub struct SweepRow {
    pub intensity: f64,
    /// Healthy/faulted record pairs compared at this intensity.
    pub paired_runs: usize,
    /// Faulted runs that could not be paired (skipped by the degraded
    /// service, or past the shorter series).
    pub unpaired_runs: usize,
    /// Mean `|predicted − actual| / actual` of the model's degraded
    /// duration.
    pub mean_rel_error: f64,
    /// Same error when predicting with the raw healthy duration instead
    /// (no degradation terms) — the do-nothing baseline.
    pub fault_blind_rel_error: f64,
}

/// `faultpred_study`: the fault model against what it predicts.
#[derive(Debug, Serialize, Deserialize)]
pub struct FaultPredReport {
    pub schedules: usize,
    pub campaign_seed: u64,
    pub campaign_terms: Vec<Term>,
    pub campaign_mean_rel_error: f64,
    pub sweep_seeds: usize,
    pub sweep_rows: Vec<SweepRow>,
    pub sweep_mean_rel_error: f64,
    pub sweep_fault_blind_rel_error: f64,
    pub mean_rel_error: f64,
    pub error_bound: f64,
}

impl Record for FaultPredReport {
    const FILE: &'static str = "BENCH_faultpred.json";

    fn full_scale(&self) -> bool {
        self.schedules >= 200
    }

    fn bounds(&self) -> Vec<(bool, &'static str)> {
        vec![
            (
                self.mean_rel_error <= self.error_bound,
                "combined fault-model error inside its stated bound",
            ),
            (
                self.sweep_mean_rel_error <= self.sweep_fault_blind_rel_error,
                "the degradation terms beat the fault-blind baseline",
            ),
            (
                self.campaign_terms.iter().all(|t| t.rel_error <= 0.25),
                "every campaign term within 25% of what was measured",
            ),
        ]
    }
}

impl Record for prodpred_service::ChaosReport {
    const FILE: &'static str = "BENCH_servicechaos.json";

    fn full_scale(&self) -> bool {
        self.ticks >= 300
    }

    fn bounds(&self) -> Vec<(bool, &'static str)> {
        let (sup, uns) = (&self.supervised, &self.unsupervised);
        vec![
            (
                self.soundness_checked_configs >= DISTINCT_REQUESTS as u64,
                "degraded cached == uncached soundness covers the distinct request set",
            ),
            (sup.availability >= 0.99, "supervised availability >= 99%"),
            (
                uns.availability <= sup.availability - 0.05,
                "the unsupervised arm is measurably (5 points) worse",
            ),
            (
                self.availability_error <= 0.02,
                "predicted availability within 0.02 of measured",
            ),
            (
                sup.breaker_trips > 0 && sup.watchdog_trips > 0,
                "the long outage exercises the watchdog and the breaker",
            ),
            (
                sup.shed > 0,
                "the miss budget sheds under the cold-cache burst",
            ),
            (sup.degraded > 0, "the campaign serves degraded answers"),
        ]
    }
}
