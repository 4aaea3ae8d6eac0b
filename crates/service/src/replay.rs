//! Seeded traffic replay: a deterministic stream of [`PredictRequest`]s
//! that the chaos bench, the CI smoke test, and the tier-1 tests all
//! share, so "the workload" means the same bytes everywhere.
//!
//! Request `i` of a replay is a pure function of `(master_seed, i)` via
//! the pool's [`prodpred_pool::derive_seed`] splitmix: independent
//! bit fields pick the platform, problem size, processor count, and
//! predictor configuration. The space is deliberately coarse — 192
//! distinct configurations — so a realistic request volume revisits keys
//! often enough to exercise the prediction cache, while epoch bumps
//! keep forcing fresh misses.

use crate::core::PredictRequest;
use prodpred_core::{LoadSource, PredictorConfig};
use prodpred_pool::derive_seed;

/// Grid sizes the replay draws from (the paper's Figure 4–7 range).
pub const SIZES: [usize; 4] = [400, 600, 1000, 1600];
/// Processor counts the replay draws from.
pub const PROCS: [usize; 2] = [2, 4];
/// Iteration counts the replay draws from.
pub const ITERATIONS: [usize; 2] = [10, 40];

/// Number of distinct request configurations [`request_for`] can emit:
/// 2 platforms × 4 sizes × 2 procs × 2 iterations × 3 load sources × 2
/// staleness flags.
pub const DISTINCT_REQUESTS: usize = 2 * SIZES.len() * PROCS.len() * ITERATIONS.len() * 3 * 2;

/// The `i`-th request of the replay seeded by `master_seed`.
pub fn request_for(master_seed: u64, index: u64) -> PredictRequest {
    let bits = derive_seed(master_seed, index);
    let platform = 1 + (bits & 1) as u8;
    let n = SIZES[((bits >> 1) & 0x3) as usize];
    let procs = PROCS[((bits >> 3) & 0x1) as usize];
    let config = PredictorConfig {
        iterations: ITERATIONS[((bits >> 4) & 0x1) as usize],
        load_source: match (bits >> 5) % 3 {
            0 => LoadSource::Instantaneous,
            1 => LoadSource::RunHorizon,
            _ => LoadSource::ModalAverage,
        },
        staleness_aware: (bits >> 7) & 0x1 == 1,
        ..PredictorConfig::default()
    };
    PredictRequest {
        platform,
        n,
        procs,
        config,
        // The replay workload stays healthy-only; the fault surface has
        // its own bench (`faultpred_study`).
        fault_intensity: None,
    }
}

/// The `/predict` target string for replay request `i` — what the load
/// generator and the smoke test put on the wire.
pub fn request_path(master_seed: u64, index: u64) -> String {
    let req = request_for(master_seed, index);
    let source = match req.config.load_source {
        LoadSource::Instantaneous => "inst",
        LoadSource::RunHorizon => "horizon",
        LoadSource::ModalAverage => "modal",
    };
    format!(
        "/predict?platform={}&n={}&procs={}&iters={}&source={}&staleness={}",
        req.platform,
        req.n,
        req.procs,
        req.config.iterations,
        source,
        u8::from(req.config.staleness_aware),
    )
}

/// What one replay run measures; `serviced --smoke` prints it for the
/// replay it drives over real loopback sockets.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ReplayReport {
    /// Master seed the request stream was derived from.
    pub seed: u64,
    /// Requests replayed (after warmup).
    pub requests: u64,
    /// Concurrent client threads.
    pub threads: usize,
    /// Ingest ticks (epoch bumps) interleaved with the replay.
    pub ticks: u64,
    /// Wall-clock for the measured portion, microseconds.
    pub elapsed_us: u64,
    /// Throughput over the measured portion, queries per second.
    pub qps: f64,
    /// Median query latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile query latency, microseconds.
    pub p99_us: u64,
    /// Worst query latency, microseconds.
    pub max_us: u64,
    /// Fraction of queries answered from the prediction cache.
    pub cache_hit_rate: f64,
    /// Queries that failed (must be 0 for a valid run).
    pub errors: u64,
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an unsorted sample by the
/// nearest-rank method. Returns 0 on an empty sample.
pub fn percentile_us(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn replay_is_deterministic() {
        for i in 0..100 {
            assert_eq!(request_for(17, i), request_for(17, i));
            assert_eq!(request_path(17, i), request_path(17, i));
        }
    }

    #[test]
    fn replay_covers_a_bounded_space_densely() {
        let keys: HashSet<String> = (0..4000).map(|i| request_path(99, i)).collect();
        assert!(keys.len() <= DISTINCT_REQUESTS);
        // The splitmix stream should visit most of the 96-per-platform
        // space within a few thousand draws.
        assert!(
            keys.len() > DISTINCT_REQUESTS / 2,
            "only {} of {} configs visited",
            keys.len(),
            DISTINCT_REQUESTS
        );
    }

    #[test]
    fn percentiles_by_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_us(&mut v, 0.50), 50);
        assert_eq!(percentile_us(&mut v, 0.99), 99);
        assert_eq!(percentile_us(&mut v, 1.0), 100);
        assert_eq!(percentile_us(&mut [], 0.5), 0);
        assert_eq!(percentile_us(&mut [7], 0.99), 7);
    }

    #[test]
    fn paths_reparse_to_the_same_request() {
        for i in 0..200 {
            let req = request_for(5, i);
            let path = request_path(5, i);
            let query = path.split_once('?').unwrap().1;
            let pairs: Vec<(&str, &str)> = query
                .split('&')
                .map(|p| p.split_once('=').unwrap())
                .collect();
            let reparsed = crate::http::parse_predict(&pairs).unwrap();
            assert_eq!(req, reparsed, "request {i} mangled by its own path");
        }
    }
}
