//! Shadows of the program's three paths, assembled from the same public
//! calls in the order the program makes them, with a span around each.
//!
//! The program itself is not instrumented, so a layer's cost is measured
//! here, from outside: the request path of `http::handle` +
//! `ServiceCore::query`, the ingest path of `ServiceCore::ingest_tick`, and
//! the offline path of `platform2_experiment`. Each shadow's answers are
//! checked against the real path's, and its summed stage medians against
//! the real path's median.

use crate::trace::{Stage, Tracer};
use prodpred_core::experiment::{ExperimentConfig, RunRecord};
use prodpred_core::scheduler::decompose;
use prodpred_core::{FaultModel, SorPredictor};
use prodpred_nws::{ForecastSnapshot, NwsConfig, NwsService};
use prodpred_service::cache::{CacheConfig, EpochCache, QueryKey};
use prodpred_service::http::{self, HttpResponse};
use prodpred_service::resilience::{Admission, ResilienceConfig, ServingState, TickMirror};
use prodpred_service::swap::EpochSwap;
use prodpred_service::{PredictRequest, PredictResponse, ServiceConfig};
use prodpred_simgrid::Platform;
use prodpred_sor::decomp::partition_equal;
use prodpred_sor::{simulate, DistSorConfig};
use prodpred_structural::{degrade, degrade_point};
use std::sync::Mutex;

/// The request stages, root first.
pub const REQUEST_STAGES: [Stage; 14] = [
    Stage::Request,
    Stage::RequestTarget,
    Stage::ParsePredict,
    Stage::SwapLoad,
    Stage::Derive,
    Stage::QueryKey,
    Stage::CacheGet,
    Stage::Admit,
    Stage::TryNew,
    Stage::TryPredict,
    Stage::FaultTerms,
    Stage::CacheInsert,
    Stage::ToJson,
    Stage::Render,
];

/// The ingest stages, root first.
pub const INGEST_STAGES: [Stage; 5] = [
    Stage::Tick,
    Stage::AdvanceTo,
    Stage::Snapshot,
    Stage::Publish,
    Stage::BumpTo,
];

/// The offline stages, root first.
pub const OFFLINE_STAGES: [Stage; 7] = [
    Stage::Series,
    Stage::PlatformGenerate,
    Stage::NwsAttach,
    Stage::AdvanceTo,
    Stage::Decompose,
    Stage::TryPredict,
    Stage::Simulate,
];

struct Hosted {
    platform: Platform,
    nws: NwsService,
    published: EpochSwap<(u64, ForecastSnapshot)>,
    cache: EpochCache<PredictResponse>,
    mirror: TickMirror,
}

/// A service built from the layers' public parts, the way `ServiceCore`
/// builds itself: same platforms, same warm-up, same first publish.
pub struct ShadowService {
    config: ServiceConfig,
    hosted: [Hosted; 2],
    admission: Admission,
    resilience: ResilienceConfig,
    clock: Mutex<f64>,
}

impl ShadowService {
    pub fn new(seed: u64) -> Self {
        let config = ServiceConfig {
            seed,
            ..ServiceConfig::default()
        };
        let host = |platform: Platform| Hosted {
            nws: NwsService::attach(&platform, NwsConfig::default()),
            platform,
            published: EpochSwap::new(),
            cache: EpochCache::new(CacheConfig::default()),
            mirror: TickMirror::new(config.publish_interval.ceil() as u64),
        };
        let shadow = Self {
            hosted: [
                host(Platform::platform1(seed, config.horizon)),
                host(Platform::platform2(seed, config.horizon)),
            ],
            admission: Admission::new(config.resilience.admission),
            resilience: config.resilience,
            clock: Mutex::new(0.0),
            config,
        };
        shadow.tick_by(
            shadow.config.warmup,
            &mut Tracer::new(false, std::time::Instant::now()),
        );
        shadow
    }

    /// One ingest tick of `publish_interval`, as `ingest_tick` does it.
    pub fn tick(&self, tr: &mut Tracer) {
        self.admission.refill();
        self.tick_by(self.config.publish_interval, tr);
    }

    fn tick_by(&self, dt: f64, tr: &mut Tracer) {
        let mut clock = self.clock.lock().expect("shadow ticks never panic");
        *clock = (*clock + dt).min(self.config.horizon);
        tr.enter(Stage::Tick);
        for h in &self.hosted {
            let tick_no = h.mirror.next_tick();
            tr.span(Stage::AdvanceTo, || h.nws.advance_to(&h.platform, *clock));
            let snapshot = tr.span(Stage::Snapshot, || h.nws.snapshot(h.published.epoch() + 1));
            let epoch = tr.span(Stage::Publish, || h.published.publish((tick_no, snapshot)));
            tr.span(Stage::BumpTo, || h.cache.bump_to(epoch));
        }
        tr.exit();
    }

    /// One request, from the head the shell would read to the bytes it
    /// would write. `None` where the real path would answer an error.
    pub fn handle(&self, head: &str, tr: &mut Tracer) -> Option<(PredictResponse, String)> {
        tr.enter(Stage::Request);
        let answer = self.handle_inner(head, tr);
        tr.exit();
        answer
    }

    fn handle_inner(&self, head: &str, tr: &mut Tracer) -> Option<(PredictResponse, String)> {
        let target = tr.span(Stage::RequestTarget, || http::request_target(head).ok())?;
        let req = tr.span(Stage::ParsePredict, || {
            let query = target.strip_prefix("/predict?")?;
            let pairs: Vec<(&str, &str)> = query
                .split('&')
                .filter(|p| !p.is_empty())
                .map(|p| p.split_once('=').unwrap_or((p, "")))
                .collect();
            http::parse_predict(&pairs).ok()
        })?;
        let response = self.query(&req, tr)?;
        let body = tr.span(Stage::ToJson, || serde_json::to_string(&response).ok())?;
        let wire = tr.span(Stage::Render, || {
            HttpResponse {
                status: 200,
                reason: "OK",
                retry_after: None,
                body,
            }
            .render()
        });
        Some((response, wire))
    }

    fn query(&self, req: &PredictRequest, tr: &mut Tracer) -> Option<PredictResponse> {
        let h = &self.hosted[usize::from(req.platform) - 1];
        let (epoch, published) = tr.span(Stage::SwapLoad, || h.published.load())?;
        let serving = tr.span(Stage::Derive, || {
            let age = h.mirror.ticks().saturating_sub(published.0);
            ServingState::derive(age, h.mirror.breaker_open(), &self.resilience)
        });
        let key = tr.span(Stage::QueryKey, || {
            QueryKey::new(
                req.platform,
                req.n,
                req.procs,
                &req.config,
                req.fault_intensity,
            )
        });
        if let Some(cached) = tr.span(Stage::CacheGet, || h.cache.get(epoch, &key)) {
            let mut response = (*cached).clone();
            response.cache_hit = true;
            response.serving = serving;
            return Some(response);
        }
        let _permit = tr.span(Stage::Admit, || self.admission.try_admit_miss())?;
        let snapshot = &published.1;
        let predictor = tr.span(Stage::TryNew, || {
            SorPredictor::try_new(&h.platform, snapshot, req.config).ok()
        })?;
        let prediction = tr.span(Stage::TryPredict, || {
            let strips = partition_equal(req.n - 2, req.procs);
            predictor.try_predict(req.n, &strips).ok()
        })?;
        let (mut stochastic, mut point) = (prediction.stochastic, prediction.point);
        if let Some(intensity) = req.fault_intensity {
            let terms = tr.span(Stage::FaultTerms, || {
                FaultModel::for_intensity(intensity, req.config.iterations, req.procs)
                    .ok()
                    .map(|m| m.terms(stochastic.mean(), snapshot.captured_at))
            })?;
            stochastic = degrade(stochastic, &terms);
            point = degrade_point(point, &terms);
        }
        let response = PredictResponse {
            platform: req.platform,
            n: req.n,
            procs: req.procs,
            epoch,
            captured_at: snapshot.captured_at,
            cache_hit: false,
            mean: stochastic.mean(),
            lo: stochastic.lo(),
            hi: stochastic.hi(),
            point,
            fault_intensity: req.fault_intensity,
            serving,
            degraded: false,
            snapshot_age_ticks: 0,
        };
        let stored = tr.span(Stage::CacheInsert, || h.cache.insert(epoch, key, response));
        Some((*stored).clone())
    }
}

/// The four numbers a prediction is judged by, as bit patterns.
pub fn answer_bits(r: &PredictResponse) -> [u64; 4] {
    [r.mean, r.lo, r.hi, r.point].map(f64::to_bits)
}

/// `platform2_experiment(seed, n, runs)` step by step: generate the
/// platform, attach the NWS, then per run advance the sensors, decompose,
/// predict, and simulate the distributed run.
pub fn offline_series(seed: u64, n: usize, runs: usize, tr: &mut Tracer) -> Vec<RunRecord> {
    tr.enter(Stage::Series);
    let platform = tr.span(Stage::PlatformGenerate, || {
        Platform::platform2(seed, 60_000.0)
    });
    let cfg = ExperimentConfig {
        seed,
        gap_secs: 20.0,
        ..ExperimentConfig::default()
    };
    let nws = tr.span(Stage::NwsAttach, || {
        NwsService::attach(&platform, NwsConfig::default())
    });
    let mut predictor_cfg = cfg.predictor;
    predictor_cfg.iterations = cfg.iterations;
    let mut t = cfg.warmup_secs;
    let mut records = Vec::with_capacity(runs);
    for _ in 0..runs {
        tr.span(Stage::AdvanceTo, || nws.advance_to(&platform, t));
        let strips = tr.span(Stage::Decompose, || {
            decompose(&platform, n, cfg.decomposition, None)
        });
        let prediction = tr.span(Stage::TryPredict, || {
            SorPredictor::new(&platform, &nws, predictor_cfg)
                .try_predict(n, &strips)
                .expect("the NWS has data after warm-up")
        });
        let run = tr.span(Stage::Simulate, || {
            simulate(&platform, &strips, DistSorConfig::new(n, cfg.iterations, t))
        });
        records.push(RunRecord {
            start: t,
            n,
            actual_secs: run.total_secs,
            prediction,
        });
        t += run.total_secs + cfg.gap_secs;
    }
    tr.exit();
    records
}
