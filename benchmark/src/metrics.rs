//! The metric tables `BENCHMARK.json` mirrors, and one run's result.

use std::fmt::Write as _;

/// The six workloads, in the order the full set runs them.
pub const WORKLOADS: [&str; 6] = [
    "socket_replay",
    "handle_hot",
    "handle_cold",
    "ingest_churn",
    "offline_sweep",
    "sor_solve",
];

/// An end-to-end metric: reported by every workload with tracing off.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// `higher` or `lower`; held against `BENCHMARK.json` by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "throughput_ops_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_tail_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.10,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

/// A per-layer metric: reported by every workload's traced run, 0 where
/// the workload does not pass through the layer.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    /// `higher` or `lower`; held against `BENCHMARK.json` by the tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 70] = [
    // service.shell — socket_replay
    layer("shell.self_us_p50", "us", "lower"),
    layer("shell.connect_us_p50", "us", "lower"),
    layer("shell.first_byte_us_p50", "us", "lower"),
    layer("shell.conn_errors", "count", "lower"),
    layer("open_latency_p50_us", "us", "lower"),
    layer("open_latency_p99_us", "us", "lower"),
    layer("max_rate_in_limit_rps", "1/s", "higher"),
    layer("gen.late_us_p99", "us", "lower"),
    layer("gen.sent", "count", "higher"),
    layer("gen.backlog_at_end", "count", "lower"),
    // service.http — handle_hot
    layer("http.handle_ns_p50", "ns", "lower"),
    layer("http.self_ns_p50", "ns", "lower"),
    layer("http.request_target_ns_p50", "ns", "lower"),
    layer("http.parse_predict_ns_p50", "ns", "lower"),
    layer("http.to_json_ns_p50", "ns", "lower"),
    layer("http.render_ns_p50", "ns", "lower"),
    layer("http.response_bytes_mean", "bytes", "lower"),
    layer("http.allocs_per_handle_hit", "count", "lower"),
    // service.core
    layer("core.query_hit_ns_p50", "ns", "lower"),
    layer("core.query_miss_ns_p50", "ns", "lower"),
    layer("core.query_uncached_ns_p50", "ns", "lower"),
    layer("core.allocs_per_query_hit", "count", "lower"),
    layer("core.allocs_per_query_miss", "count", "lower"),
    // service.swap
    layer("swap.load_ns_p50", "ns", "lower"),
    layer("swap.publish_ns_p50", "ns", "lower"),
    // service.cache
    layer("cache.get_hit_ns_p50", "ns", "lower"),
    layer("cache.get_miss_ns_p50", "ns", "lower"),
    layer("cache.insert_ns_p50", "ns", "lower"),
    layer("cache.bump_to_full_us_p50", "us", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.evicted", "count", "lower"),
    layer("cache.invalidated", "count", "lower"),
    // service.resilience
    layer("admission.try_admit_miss_ns_p50", "ns", "lower"),
    layer("resilience.derive_ns_p50", "ns", "lower"),
    layer("admission.shed", "count", "lower"),
    // core.predictor / structural / stochastic — handle_cold
    layer("predictor.try_new_ns_p50", "ns", "lower"),
    layer("predictor.try_predict_inst_ns_p50", "ns", "lower"),
    layer("predictor.try_predict_horizon_ns_p50", "ns", "lower"),
    layer("predictor.try_predict_modal_ns_p50", "ns", "lower"),
    layer("structural.sor_model_predict_ns_p50", "ns", "lower"),
    layer("predictor.mc2000_predict_us_p50", "us", "lower"),
    layer("stochastic.mc_samples_per_s", "1/s", "higher"),
    layer("faultmodel.terms_ns_p50", "ns", "lower"),
    // ingest — ingest_churn
    layer("ingest_tick_ms_p50", "ms", "lower"),
    layer("publish_lag_ms_p95", "ms", "lower"),
    layer("ticks_on_time_share", "ratio", "higher"),
    layer("nws.advance_to_us_p50", "us", "lower"),
    layer("nws.snapshot_ms_p50", "ms", "lower"),
    layer("nws.snapshot_growth_ratio", "ratio", "lower"),
    layer("nws.cpu_query_ns_p50", "ns", "lower"),
    // simgrid / sor.distsim / pool — offline_sweep
    layer("simgrid.platform2_generate_ms", "ms", "lower"),
    layer("simgrid.trace_integral_ns_p50", "ns", "lower"),
    layer("simgrid.time_to_complete_ns_p50", "ns", "lower"),
    layer("sor.distsim_simulate_us_p50", "us", "lower"),
    layer("pool.parallel_map_overhead_us", "us", "lower"),
    layer("pool.sweep_speedup", "ratio", "higher"),
    layer("coverage_2sigma", "ratio", "higher"),
    layer("mean_rel_err", "ratio", "lower"),
    // sor — sor_solve
    layer("sor.seq_iter_ms_p50", "ms", "lower"),
    layer("sor.strips_iter_ms_p50", "ms", "lower"),
    layer("sor.blocks_iter_ms_p50", "ms", "lower"),
    layer("sor.kernel_mcell_s", "Mcell/s", "higher"),
    layer("sor.fused_sweep_mcell_s", "Mcell/s", "higher"),
    layer("sor.strips_efficiency", "ratio", "higher"),
    layer("sor.blocks_efficiency", "ratio", "higher"),
    layer("sor.exchange_allocs_per_iter", "count", "lower"),
    // the traced run itself
    layer("shadow.stage_sum_us", "us", "lower"),
    layer("shadow.real_p50_us", "us", "lower"),
    layer("shadow.gap_share", "ratio", "lower"),
    layer("trace.overhead_share", "ratio", "higher"),
];

/// What one workload run found.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is invalid or its outputs wrong; empty when correct.
    pub violations: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the tables"
        );
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    pub fn violation(&mut self, why: String) {
        println!("VIOLATION: {why}");
        self.violations.push(why);
    }

    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0 && self.attempted > 0
    }

    /// The result line the driver reads: every end-to-end metric with
    /// tracing off, every per-layer metric with it on (0 where this
    /// workload does not pass through the layer).
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<(&str, &str)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// `serde_json::from_str` into the raw value tree, for reading a result
/// line back.
pub struct Raw(pub serde::Value);

impl serde::Deserialize for Raw {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Raw(v.clone()))
    }
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn str_of(v: &Value, field: &str) -> String {
        match v.field(field).unwrap() {
            Value::Str(s) => s.clone(),
            other => panic!("{field}: {other:?}"),
        }
    }

    fn seq_of<'a>(v: &'a Value, field: &str) -> &'a [Value] {
        match v.field(field).unwrap() {
            Value::Seq(s) => s,
            other => panic!("{field}: {other:?}"),
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits beside benchmark/");
        let Raw(doc) = serde_json::from_str(&text).unwrap();
        let workloads: Vec<String> = seq_of(&doc, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e = seq_of(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, table) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(json, "name"), table.name);
            assert_eq!(str_of(json, "unit"), table.unit);
            assert_eq!(str_of(json, "better"), table.better);
            let bound = json.field("bound").unwrap().as_f64().unwrap();
            assert_eq!(bound, table.bound, "{}", table.name);
            assert!(bound <= 0.25);
        }
        let layers = seq_of(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, table) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(json, "name"), table.name);
            assert_eq!(str_of(json, "unit"), table.unit);
            assert_eq!(str_of(json, "better"), table.better);
        }
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.to_vec();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_every_metric_of_its_mode() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.put("setup_s", 0.0123);
        o.put("cache.hit_ratio", 0.5);
        let Raw(doc) = serde_json::from_str(&o.result_line(false)).unwrap();
        assert_eq!(doc.field("correct").unwrap(), &Value::Bool(true));
        let Value::Map(metrics) = doc.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.field("metrics").unwrap().field("setup_s").unwrap();
        assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 0.0123);
        let Raw(doc) = serde_json::from_str(&o.result_line(true)).unwrap();
        let Value::Map(metrics) = doc.field("metrics").unwrap() else {
            panic!()
        };
        assert_eq!(metrics.len(), PER_LAYER.len());
    }
}
