//! The pure service core: simulated platforms, NWS ingest, epoch
//! publication, and the cached query path — everything the daemon does,
//! minus the sockets.
//!
//! The core is a pure function of `(seed, tick count, query stream)`:
//! no wall clock, no I/O. The ingest side advances the simulated
//! sensors one `publish_interval` per [`ServiceCore::ingest_tick`],
//! freezes an immutable [`ForecastSnapshot`], publishes it through the
//! epoch swap, and bumps the prediction cache. The query side probes the
//! cache under the swap's read guard, which the writer waits for only
//! once a publish, and only on a miss takes the frozen snapshot out of
//! it to run the structural-model algebra. Tier-1 tests drive all of it end to end with
//! zero real I/O; the `std::net` shell in [`crate::shell`] is a veneer.

use crate::cache::{CacheConfig, CacheStats, EpochCache, QueryKey};
use crate::ingest::SupervisedIngest;
use crate::resilience::{
    widening_factor, Admission, IngestOutcome, IngestStats, ResilienceConfig, ServingCounters,
    ServingState, TickMirror, HEALTHY_AGE_TICKS,
};
use crate::swap::EpochSwap;
use prodpred_core::supervisor::BreakerState;
use prodpred_core::{FaultModel, PredictorConfig, PredictorError, SorPredictor};
use prodpred_nws::snapshot::ForecastSnapshot;
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_simgrid::faults::{FaultConfig, FaultPlan, IntensityError};
use prodpred_simgrid::{GrowingPlatform, Platform};
use prodpred_sor::decomp::partition_equal;
use prodpred_stochastic::MaxStrategy;
use prodpred_structural::{degrade, degrade_point};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Service-wide tunables. Everything downstream — traces, sensor
/// histories, snapshots, predictions — is a deterministic function of
/// these.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Seed for both simulated platforms' load traces.
    pub seed: u64,
    /// Where the simulated clock clamps, in seconds: ticking past it
    /// publishes the same measurements again. Nothing is generated ahead
    /// of the clock; the load grows with it and stops here. Must be
    /// finite and positive.
    pub horizon: f64,
    /// Sensor history accumulated before the first snapshot publishes,
    /// so forecasters start with a warm window.
    pub warmup: f64,
    /// Simulated seconds advanced per ingest tick (one snapshot per
    /// tick; the paper's NWS polled every 5 s).
    pub publish_interval: f64,
    /// Prediction-cache sizing.
    pub cache: CacheConfig,
    /// Sensor-level fault injection for the ingest path. `None` keeps
    /// ingest infallible (every tick publishes, exactly the pre-fault
    /// behavior); `Some` routes every NWS poll through a
    /// [`FaultPlan`], making ticks fallible and the resilience layer
    /// load-bearing.
    pub fault: Option<FaultConfig>,
    /// Retry/breaker/staleness/admission knobs (see
    /// [`ResilienceConfig`]). The defaults are inert without faults.
    pub resilience: ResilienceConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            horizon: 4.0 * 3600.0,
            warmup: 600.0,
            publish_interval: 5.0,
            cache: CacheConfig::default(),
            fault: None,
            resilience: ResilienceConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// One publish interval in whole seconds, at least 1: the shortest
    /// Retry-After the service ever suggests.
    fn publish_interval_secs(&self) -> u64 {
        self.publish_interval.ceil().max(1.0) as u64
    }
}

/// Most red+black iterations a request may ask about (the paper's runs
/// take tens, the replay and benchmark generators a few hundred at most).
/// No answer costs in proportion to the count — the fault model bills
/// one term per checkpoint segment — so the cap bounds the question, not
/// the work: a count far past any run the service models (`10^9`,
/// `usize::MAX`) is a malformed request, refused before it is answered.
const MAX_ITERATIONS: usize = 10_000;

/// One query against the service: which testbed, what problem, which
/// predictor configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictRequest {
    /// Testbed: 1 (four Sparc IPC-class) or 2 (four Sparc 5/10-class).
    pub platform: u8,
    /// SOR grid size (n × n, interior n − 2).
    pub n: usize,
    /// Processors the grid is partitioned across.
    pub procs: usize,
    /// Structural-model configuration.
    pub config: PredictorConfig,
    /// Optional what-if fault intensity in `[0, 1]`: when set and
    /// positive, the fault-aware degradation terms
    /// ([`prodpred_core::FaultModel`]) are applied on top of the healthy
    /// prediction. `None` and `Some(0.0)` both answer the healthy
    /// prediction (bit-identically), but cache under distinct keys.
    /// Serialized as `null` when absent (the vendored serde has no
    /// field-skipping attributes).
    pub fault_intensity: Option<f64>,
}

/// The service's answer, tagged with the snapshot epoch that produced
/// it so clients can correlate answers across the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PredictResponse {
    /// Echo of the requested testbed.
    pub platform: u8,
    /// Echo of the requested grid size.
    pub n: usize,
    /// Echo of the requested processor count.
    pub procs: usize,
    /// Snapshot epoch the prediction was computed from.
    pub epoch: u64,
    /// Simulated time at which that snapshot froze its sensors.
    pub captured_at: f64,
    /// Whether this answer came from the prediction cache.
    pub cache_hit: bool,
    /// Predicted execution time, mean (seconds).
    pub mean: f64,
    /// Lower edge of the stochastic prediction interval.
    pub lo: f64,
    /// Upper edge of the stochastic prediction interval.
    pub hi: f64,
    /// Conventional point prediction (all parameters at their means).
    pub point: f64,
    /// Echo of the requested fault intensity, when one was supplied;
    /// `null` on the wire for healthy queries.
    pub fault_intensity: Option<f64>,
    /// The serving state the answer was produced under.
    pub serving: ServingState,
    /// `true` when the answer was served in any non-Healthy state: the
    /// interval has been widened by snapshot age and clients should
    /// treat it as best-effort.
    pub degraded: bool,
    /// Ingest ticks elapsed since the served snapshot published (0 when
    /// fresh).
    pub snapshot_age_ticks: u64,
}

/// Liveness counters for `/metrics` and the replay bench.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Snapshots published so far (== the current epoch).
    pub epochs_published: u64,
    /// Queries answered, hits and misses both.
    pub queries: u64,
    /// Queries rejected before reaching the model.
    pub rejected: u64,
    /// Queries refused with [`ServiceError::Unavailable`] (503s; a
    /// subset of `rejected`).
    pub unavailable: u64,
    /// Cache-missing queries shed by admission control (429s; a subset
    /// of `rejected`).
    pub shed: u64,
    /// Queries answered in a non-Healthy state (`degraded: true`).
    pub degraded_served: u64,
    /// Current serving state of platform 1.
    pub serving_platform1: ServingState,
    /// Current serving state of platform 2.
    pub serving_platform2: ServingState,
    /// Supervised-ingest accounting, merged across platforms.
    pub ingest: IngestStats,
    /// Combined cache counters across both platforms.
    pub cache: CacheStats,
}

/// Everything that can go wrong answering a query.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request was malformed (bad parameter value or combination).
    BadRequest(String),
    /// The request named a platform the service does not host.
    UnknownPlatform(u8),
    /// No snapshot has been published yet for the platform.
    NotReady {
        /// The platform still warming up.
        platform: u8,
    },
    /// The platform's snapshot is too old to answer from (serving state
    /// [`ServingState::Unavailable`]): a 503 with a Retry-After hint.
    Unavailable {
        /// The platform whose ingest has wedged.
        platform: u8,
        /// Ingest ticks since the last publish.
        age_ticks: u64,
        /// Suggested client wait before retrying, in (simulated-clock)
        /// seconds — the breaker's remaining cooldown, or one publish
        /// interval.
        retry_after_secs: u64,
    },
    /// Admission control shed the query under overload: a 429 with a
    /// Retry-After hint (the miss budget refills at the next tick).
    Overloaded {
        /// Suggested client wait before retrying, in seconds.
        retry_after_secs: u64,
    },
    /// The structural model itself refused the inputs.
    Predictor(PredictorError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadRequest(why) => write!(f, "bad request: {why}"),
            Self::UnknownPlatform(p) => write!(f, "unknown platform {p} (have 1 and 2)"),
            Self::NotReady { platform } => {
                write!(f, "platform {platform} has not published a snapshot yet")
            }
            Self::Unavailable {
                platform,
                age_ticks,
                retry_after_secs,
            } => write!(
                f,
                "platform {platform} unavailable: snapshot is {age_ticks} ticks old \
                 (retry in {retry_after_secs} s)"
            ),
            Self::Overloaded { retry_after_secs } => write!(
                f,
                "overloaded: miss budget exhausted (retry in {retry_after_secs} s)"
            ),
            Self::Predictor(e) => write!(f, "prediction failed: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Predictor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PredictorError> for ServiceError {
    fn from(e: PredictorError) -> Self {
        Self::Predictor(e)
    }
}

/// A published snapshot stamped with the ingest tick that produced it,
/// so the query path can judge staleness in ticks without touching the
/// ingest lock.
struct PublishedSnapshot {
    /// The ingest tick (1-based, warmup included) that published this.
    tick: u64,
    snapshot: ForecastSnapshot,
}

/// What a tick owns: the supervised-ingest machine and the simulated
/// platform its sensors read, grown as the machine's clock advances.
struct Ingest {
    supervised: SupervisedIngest,
    world: GrowingPlatform,
}

/// One hosted testbed: its simulated platform, live NWS, epoch-published
/// snapshots, prediction cache, and supervised-ingest state.
struct PlatformState {
    /// The platform's machines and network as first generated, one step
    /// of load: the query path reads only their specs.
    platform: Platform,
    nws: NwsService,
    published: EpochSwap<PublishedSnapshot>,
    cache: EpochCache<PredictResponse>,
    /// Held only for the duration of a tick (which also serializes
    /// writers); the query path never touches it.
    ingest: Mutex<Ingest>,
    /// Lock-free mirrors of the tick clock, breaker state, and
    /// Retry-After hint — the query path's view of ingest, refreshed at
    /// every tick without the ingest lock.
    mirror: TickMirror,
}

impl PlatformState {
    fn new(id: u8, config: &ServiceConfig) -> Self {
        let storms = config.fault.as_ref().map_or(&[][..], |f| &f.storms);
        let world = match id {
            1 => GrowingPlatform::platform1(config.seed, storms),
            _ => GrowingPlatform::platform2(config.seed, storms),
        };
        let platform = world.platform().clone();
        let nws = match &config.fault {
            None => NwsService::attach(&platform, NwsConfig::default()),
            Some(fault) => NwsService::attach_with_faults(
                &platform,
                NwsConfig::default(),
                FaultPlan::new(fault.clone()),
            ),
        };
        Self {
            ingest: Mutex::new(Ingest {
                supervised: SupervisedIngest::new(
                    &config.resilience,
                    nws.n_machines() + 1,
                    config.horizon,
                ),
                world,
            }),
            platform,
            nws,
            published: EpochSwap::new(),
            cache: EpochCache::new(config.cache),
            mirror: TickMirror::new(config.publish_interval_secs()),
        }
    }

    /// One supervised ingest tick of `dt` simulated seconds: drive the
    /// [`SupervisedIngest`] machine with polls of the live NWS, publish a
    /// snapshot when it says so, and refresh the query path's mirrors.
    /// Each poll first grows the platform's load to cover its `now`, and
    /// no further than the horizon, where the clock clamps and the
    /// sensors read the held last value. Without a configured fault every
    /// poll reports every sensor fresh, so every tick publishes first
    /// time — at the clamped horizon too, where no new measurement exists.
    fn try_tick(&self, dt: f64, config: &ServiceConfig) -> IngestOutcome {
        let mut ingest = self.ingest.lock().unwrap_or_else(PoisonError::into_inner);
        let Ingest { supervised, world } = &mut *ingest;
        let tick_no = self.mirror.next_tick();
        let outcome = supervised.tick(dt, |prev, now| {
            world.cover_within(now, config.horizon);
            self.nws.advance_to(world.platform(), now);
            match config.fault {
                None => self.nws.n_machines() + 1,
                Some(_) => self.fresh_sensors(prev),
            }
        });
        if let IngestOutcome::Published { epoch, .. } = outcome {
            let published = self.published.publish(PublishedSnapshot {
                tick: tick_no,
                snapshot: self.nws.snapshot(epoch),
            });
            debug_assert_eq!(published, epoch, "epochs count publishes");
            self.cache.bump_to(epoch);
        }
        // Refresh the query path's lock-free mirrors.
        let breaker = supervised.breaker();
        let state = breaker.state();
        self.mirror.set_breaker(state);
        let hint = if state == BreakerState::Open {
            (breaker.open_until() - supervised.clock()).max(0.0).ceil() as u64
        } else {
            0
        };
        self.mirror
            .set_retry_hint(hint.max(config.publish_interval_secs()));
        outcome
    }

    /// How many sensors hold a measurement recorded strictly after
    /// `prev` (i.e. delivered by the advance that just ran).
    fn fresh_sensors(&self, prev: f64) -> usize {
        let mut fresh = 0;
        for i in 0..self.nws.n_machines() {
            if matches!(self.nws.cpu_last(i), Some((t, _)) if t > prev) {
                fresh += 1;
            }
        }
        if matches!(self.nws.bandwidth_last(), Some((t, _)) if t > prev) {
            fresh += 1;
        }
        fresh
    }

    /// The age in ticks of the snapshot published at `published_tick`
    /// and the serving state that age and the mirrored breaker put it
    /// in. Lock-free.
    fn serving(&self, published_tick: u64, res: &ResilienceConfig) -> (ServingState, u64) {
        let age = self.mirror.ticks().saturating_sub(published_tick);
        let state = ServingState::derive(age, self.mirror.breaker_open(), res);
        (state, age)
    }
}

/// The daemon's heart: both testbeds plus the counters, behind a pure
/// tick/query API.
pub struct ServiceCore {
    config: ServiceConfig,
    platforms: [PlatformState; 2],
    admission: Admission,
    counters: ServingCounters,
}

impl ServiceCore {
    /// Builds the service and warms it up: sensors advanced to
    /// `config.warmup`, epoch 1 published for both platforms (fault
    /// schedules permitting), cache empty. Deterministic in `config`.
    ///
    /// # Panics
    ///
    /// Panics unless `config.horizon` is finite and positive.
    pub fn new(config: ServiceConfig) -> Self {
        assert!(
            config.horizon.is_finite() && config.horizon > 0.0,
            "horizon must be finite and positive, got {}",
            config.horizon
        );
        let platforms = [
            PlatformState::new(1, &config),
            PlatformState::new(2, &config),
        ];
        let admission = Admission::new(config.resilience.admission);
        let core = Self {
            config,
            platforms,
            admission,
            counters: ServingCounters::new(),
        };
        for p in &core.platforms {
            p.try_tick(core.config.warmup, &core.config);
        }
        core
    }

    /// One ingest step: advances both platforms' sensors by
    /// `publish_interval` simulated seconds, publishes fresh snapshots,
    /// and invalidates both caches. Concurrent callers serialize; the
    /// query path is never blocked. Returns what each platform's tick
    /// did (index 0 = platform 1); a platform whose tick failed keeps its
    /// previous snapshot published, which ages instead. The latest shared
    /// epoch is [`ServiceCore::epoch`]. The admission miss budget refills
    /// on every tick, publishing or not — the deadline passes regardless.
    pub fn ingest_tick(&self) -> [IngestOutcome; 2] {
        self.admission.refill();
        let a = self.platforms[0].try_tick(self.config.publish_interval, &self.config);
        let b = self.platforms[1].try_tick(self.config.publish_interval, &self.config);
        [a, b]
    }

    /// The serving state platform `id` would answer under right now.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPlatform`] for platforms other than 1/2.
    pub fn serving(&self, id: u8) -> Result<ServingState, ServiceError> {
        let state = self.platform_state(id)?;
        Ok(state.published.with(|pair| match pair {
            None => ServingState::Unavailable,
            Some((_, published)) => state.serving(published.tick, &self.config.resilience).0,
        }))
    }

    fn platform_state(&self, id: u8) -> Result<&PlatformState, ServiceError> {
        match id {
            1 => Ok(&self.platforms[0]),
            2 => Ok(&self.platforms[1]),
            other => Err(ServiceError::UnknownPlatform(other)),
        }
    }

    fn validate(req: &PredictRequest) -> Result<(), ServiceError> {
        if req.n < 16 || req.n > 20_000 {
            return Err(ServiceError::BadRequest(format!(
                "n = {} out of range [16, 20000]",
                req.n
            )));
        }
        if req.procs == 0 || req.procs > req.n - 2 {
            return Err(ServiceError::BadRequest(format!(
                "procs = {} must be in [1, n - 2]",
                req.procs
            )));
        }
        if req.config.iterations == 0 || req.config.iterations > MAX_ITERATIONS {
            return Err(ServiceError::BadRequest(format!(
                "iterations = {} out of range [1, {MAX_ITERATIONS}]",
                req.config.iterations
            )));
        }
        if let MaxStrategy::MonteCarlo { samples, .. } = req.config.max_strategy {
            if samples == 0 || samples > 1_000_000 {
                return Err(ServiceError::BadRequest(format!(
                    "mc samples = {samples} out of range [1, 1000000]"
                )));
            }
        }
        if let Some(cap) = req.config.max_load_rel_width {
            if !cap.is_finite() || cap <= 0.0 {
                return Err(ServiceError::BadRequest(format!(
                    "cap = {cap} must be finite and positive"
                )));
            }
        }
        if let Some(intensity) = req.fault_intensity {
            // The typed constructor's own check: NaN, infinities and
            // out-of-range values are all rejected here, so the
            // panicking `with_intensity` is never reachable from
            // untrusted input, and a cache hit builds no `FaultConfig`.
            IntensityError::check(intensity)
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
        }
        Ok(())
    }

    /// Answers one query against the latest published snapshot.
    ///
    /// The fast path is one sharded cache probe under the epoch swap's
    /// read guard — which can meet the ingest writer for one pointer swap
    /// per publish. Misses
    /// run the structural model against the frozen snapshot — whose
    /// arithmetic is bit-identical to the live service at capture time —
    /// and populate the cache for the rest of the epoch.
    ///
    /// # Errors
    ///
    /// [`ServiceError::BadRequest`] on out-of-range parameters,
    /// [`ServiceError::UnknownPlatform`] for platforms other than 1/2,
    /// [`ServiceError::NotReady`] before the first publish,
    /// [`ServiceError::Unavailable`] when the snapshot has aged out of
    /// the serving bands (503 + Retry-After),
    /// [`ServiceError::Overloaded`] when admission control sheds a
    /// cache miss (429 + Retry-After), and
    /// [`ServiceError::Predictor`] when the model rejects the inputs
    /// (e.g. a dry sensor under fault injection).
    pub fn query(&self, req: &PredictRequest) -> Result<PredictResponse, ServiceError> {
        let outcome = self.query_inner(req);
        match &outcome {
            Ok(r) => self.counters.record_served(r.degraded),
            Err(e) => {
                if matches!(e, ServiceError::Unavailable { .. }) {
                    self.counters.record_unavailable();
                }
                self.counters.record_rejected();
            }
        }
        outcome
    }

    /// What the cached and the uncached route share before computing
    /// anything: platform lookup, validation, then — under the swap's
    /// read guard, so keep it short — the latest snapshot and the serving
    /// state it is in, refused when [`ServingState::Unavailable`], handed
    /// to `f` with its platform, epoch and age in ticks.
    #[inline]
    fn with_loaded<'a, R>(
        &'a self,
        req: &PredictRequest,
        f: impl FnOnce(&'a PlatformState, u64, &Arc<PublishedSnapshot>, ServingState, u64) -> R,
    ) -> Result<R, ServiceError> {
        let state = self.platform_state(req.platform)?;
        Self::validate(req)?;
        state.published.with(|pair| {
            let (epoch, published) = pair.ok_or(ServiceError::NotReady {
                platform: req.platform,
            })?;
            let (serving, age) = state.serving(published.tick, &self.config.resilience);
            if serving == ServingState::Unavailable {
                return Err(ServiceError::Unavailable {
                    platform: req.platform,
                    age_ticks: age,
                    retry_after_secs: state.mirror.retry_hint(),
                });
            }
            Ok(f(state, epoch, published, serving, age))
        })
    }

    fn query_inner(&self, req: &PredictRequest) -> Result<PredictResponse, ServiceError> {
        let key = QueryKey::new(
            req.platform,
            req.n,
            req.procs,
            &req.config,
            req.fault_intensity,
        );
        // The probe runs under the swap's read guard and a hit copies its
        // answer out under the shard lock: no reference count moves. A
        // miss takes the snapshot with it, so the writer never waits for
        // the model.
        let (state, epoch, probe, serving, age) =
            self.with_loaded(req, |state, epoch, published, serving, age| {
                let hit = state.cache.get_with(epoch, &key, |cached| {
                    let mut response = PredictResponse::clone(cached);
                    response.cache_hit = true;
                    response
                });
                let probe = hit.ok_or_else(|| Arc::clone(published));
                (state, epoch, probe, serving, age)
            })?;
        // Cache hits are admitted unconditionally: they cost no model
        // work, so shedding them would only lose availability.
        let published = match probe {
            Ok(hit) => return Ok(self.finalize(hit, serving, age)),
            Err(published) => published,
        };
        self.admission
            .try_admit_miss()
            .ok_or_else(|| ServiceError::Overloaded {
                retry_after_secs: self.config.publish_interval_secs(),
            })?;
        let response = Self::answer(&state.platform, &published.snapshot, req, epoch)?;
        let stored = state.cache.insert(epoch, key, response);
        Ok(self.finalize((*stored).clone(), serving, age))
    }

    /// Stamps a base (healthy-bits) response with the serving state it
    /// is leaving under: degradation flags, snapshot age, and the
    /// age-driven `sqrt(1 + extra)` interval widening. Inside the
    /// healthy age band the numeric fields pass through untouched, so a
    /// healthy answer is bit-identical to the pre-resilience service.
    fn finalize(&self, mut r: PredictResponse, serving: ServingState, age: u64) -> PredictResponse {
        r.serving = serving;
        r.degraded = serving != ServingState::Healthy;
        r.snapshot_age_ticks = age;
        let factor = widening_factor(age, HEALTHY_AGE_TICKS);
        // tidy:allow(PP004): bit-exact by contract — widening_factor returns exactly 1.0 in the healthy band, keeping healthy answers bit-identical
        if factor != 1.0 {
            let half = 0.5 * (r.hi - r.lo) * factor;
            r.lo = r.mean - half;
            r.hi = r.mean + half;
        }
        r
    }

    /// The single response-construction path shared by the cached-miss
    /// and uncached routes, so the two stay bit-identical by
    /// construction: healthy structural prediction, then — only when a
    /// positive `fault_intensity` was requested — the deterministic
    /// fault-degradation terms on top. Zero intensity applies the exact
    /// identity terms, so `fault_intensity=0` and no intensity answer
    /// the same bits.
    fn answer(
        platform: &Platform,
        snapshot: &ForecastSnapshot,
        req: &PredictRequest,
        epoch: u64,
    ) -> Result<PredictResponse, ServiceError> {
        let strips = partition_equal(req.n - 2, req.procs);
        let prediction =
            SorPredictor::try_new(platform, snapshot, req.config)?.try_predict(req.n, &strips)?;
        let mut stochastic = prediction.stochastic;
        let mut point = prediction.point;
        if let Some(intensity) = req.fault_intensity {
            let model = FaultModel::for_intensity(intensity, req.config.iterations, req.procs)
                .map_err(|e| ServiceError::BadRequest(e.to_string()))?;
            let terms = model.terms(stochastic.mean(), snapshot.captured_at);
            stochastic = degrade(stochastic, &terms);
            point = degrade_point(point, &terms);
        }
        Ok(PredictResponse {
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
            // Placeholders: `finalize` stamps the real serving state and
            // age-driven widening at answer time, so the cached base
            // entry stays state-free.
            serving: ServingState::Healthy,
            degraded: false,
            snapshot_age_ticks: 0,
        })
    }

    /// Answers the same query with the cache (and admission control)
    /// bypassed — the reference path tests pin the cached path against,
    /// bit for bit, including under degraded serving states.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceCore::query`], minus
    /// [`ServiceError::Overloaded`].
    pub fn query_uncached(&self, req: &PredictRequest) -> Result<PredictResponse, ServiceError> {
        let (state, epoch, published, serving, age) =
            self.with_loaded(req, |state, epoch, published, serving, age| {
                (state, epoch, Arc::clone(published), serving, age)
            })?;
        let response = Self::answer(&state.platform, &published.snapshot, req, epoch)?;
        Ok(self.finalize(response, serving, age))
    }

    /// The latest published epoch across both platforms. They publish in
    /// lockstep, but mid-`ingest_tick` platform 1 is briefly one ahead —
    /// taking the max keeps `/health` and [`ServiceStats`] consistent
    /// with the epoch any concurrent [`PredictResponse`] can carry.
    pub fn epoch(&self) -> u64 {
        self.platforms
            .iter()
            .map(|p| p.published.epoch())
            .max()
            .unwrap_or(0)
    }

    /// Point-in-time service counters.
    pub fn stats(&self) -> ServiceStats {
        let mut cache = CacheStats::default();
        let mut ingest = IngestStats::default();
        for p in &self.platforms {
            let s = p.cache.stats();
            cache.hits += s.hits;
            cache.misses += s.misses;
            cache.invalidated += s.invalidated;
            cache.evicted += s.evicted;
            cache.entries += s.entries;
            let ing = p.ingest.lock().unwrap_or_else(PoisonError::into_inner);
            ingest.merge(&ing.supervised.stats());
        }
        ServiceStats {
            epochs_published: self.epoch(),
            queries: self.counters.queries(),
            rejected: self.counters.rejected(),
            unavailable: self.counters.unavailable(),
            shed: self.admission.shed(),
            degraded_served: self.counters.degraded_served(),
            serving_platform1: self.serving(1).unwrap_or(ServingState::Unavailable),
            serving_platform2: self.serving(2).unwrap_or(ServingState::Unavailable),
            ingest,
            cache,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prodpred_core::LoadSource;

    fn small_core() -> ServiceCore {
        ServiceCore::new(ServiceConfig {
            seed: 7,
            horizon: 2000.0,
            warmup: 300.0,
            publish_interval: 5.0,
            ..ServiceConfig::default()
        })
    }

    fn req(platform: u8, n: usize) -> PredictRequest {
        PredictRequest {
            platform,
            n,
            procs: 4,
            config: PredictorConfig::default(),
            fault_intensity: None,
        }
    }

    /// Each platform's generated load in trace steps, beside the steps its
    /// ingest has read: `floor(clock) + 1`, the clock's own sample
    /// included, capped at the `ceil(horizon)` a fixed platform holds.
    fn generated_and_read(core: &ServiceCore) -> Vec<(usize, usize)> {
        let cap = core.config.horizon.ceil() as usize;
        let each = core.platforms.iter().map(|p| {
            let ingest = p.ingest.lock().unwrap();
            let platform = ingest.world.platform();
            let steps = platform.network.avail.len();
            for machine in &platform.machines {
                assert_eq!(machine.load.len(), steps);
            }
            let read = ingest.supervised.clock().floor() as usize + 1;
            (steps, read.min(cap))
        });
        each.collect()
    }

    #[test]
    fn the_world_generates_only_what_ingest_reads() {
        let default_to = |horizon| ServiceConfig {
            horizon,
            ..ServiceConfig::default()
        };
        // A whole horizon, a fractional one, and retries that back the
        // clock across a blackout inside a tick.
        let cases = [
            default_to(1_000.0),
            default_to(1_000.5),
            blackout_config(ResilienceConfig::default()),
        ];
        for config in cases {
            let (warmup, horizon) = (config.warmup, config.horizon);
            let core = ServiceCore::new(config);
            let warm = warmup.floor() as usize + 1;
            assert_eq!(generated_and_read(&core), [(warm, warm); 2]);
            // Past the clamp the clock stands still and so does the load.
            let ticks = ((horizon - warmup) / core.config.publish_interval) as usize + 20;
            for tick in 1..=ticks {
                core.ingest_tick();
                for (generated, read) in generated_and_read(&core) {
                    assert_eq!(generated, read, "horizon {horizon}, tick {tick}");
                }
            }
            let cap = horizon.ceil() as usize;
            assert_eq!(generated_and_read(&core), [(cap, cap); 2]);
        }
    }

    fn core_with_horizon(horizon: f64) -> ServiceCore {
        ServiceCore::new(ServiceConfig {
            horizon,
            ..ServiceConfig::default()
        })
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn a_zero_horizon_is_refused() {
        core_with_horizon(0.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn a_negative_horizon_is_refused() {
        core_with_horizon(-1.0);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn a_nan_horizon_is_refused() {
        core_with_horizon(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "horizon must be finite and positive")]
    fn an_infinite_horizon_is_refused() {
        core_with_horizon(f64::INFINITY);
    }

    #[test]
    fn warm_core_answers_immediately() {
        let core = small_core();
        assert_eq!(core.epoch(), 1);
        let r = core.query(&req(2, 600)).unwrap();
        assert_eq!((r.platform, r.n, r.epoch, r.cache_hit), (2, 600, 1, false));
        assert!(r.mean > 0.0 && r.lo <= r.mean && r.mean <= r.hi);
    }

    #[test]
    fn second_identical_query_is_a_cache_hit_and_bit_identical() {
        let core = small_core();
        let miss = core.query(&req(1, 800)).unwrap();
        let hit = core.query(&req(1, 800)).unwrap();
        assert!(!miss.cache_hit && hit.cache_hit);
        assert_eq!(
            (
                miss.mean.to_bits(),
                miss.lo.to_bits(),
                miss.hi.to_bits(),
                miss.point.to_bits()
            ),
            (
                hit.mean.to_bits(),
                hit.lo.to_bits(),
                hit.hi.to_bits(),
                hit.point.to_bits()
            ),
        );
    }

    #[test]
    fn cached_equals_uncached_bitwise() {
        let core = small_core();
        let r = req(2, 1000);
        let uncached = core.query_uncached(&r).unwrap();
        core.query(&r).unwrap(); // populate
        let cached = core.query(&r).unwrap();
        assert!(cached.cache_hit);
        assert_eq!(uncached.mean.to_bits(), cached.mean.to_bits());
        assert_eq!(uncached.lo.to_bits(), cached.lo.to_bits());
        assert_eq!(uncached.hi.to_bits(), cached.hi.to_bits());
        assert_eq!(uncached.point.to_bits(), cached.point.to_bits());
    }

    #[test]
    fn ingest_tick_bumps_epoch_and_invalidates() {
        let core = small_core();
        core.query(&req(1, 600)).unwrap();
        assert_eq!(core.stats().cache.entries, 1);
        core.ingest_tick();
        assert_eq!(core.epoch(), 2);
        assert_eq!(core.stats().cache.entries, 0);
        let r = core.query(&req(1, 600)).unwrap();
        assert_eq!((r.epoch, r.cache_hit), (2, false));
    }

    #[test]
    fn same_seed_same_answers_across_cores() {
        let a = small_core().query(&req(2, 1600)).unwrap();
        let b = small_core().query(&req(2, 1600)).unwrap();
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.captured_at.to_bits(), b.captured_at.to_bits());
    }

    #[test]
    fn bad_requests_are_rejected_with_typed_errors() {
        let core = small_core();
        assert!(matches!(
            core.query(&req(3, 600)),
            Err(ServiceError::UnknownPlatform(3))
        ));
        assert!(matches!(
            core.query(&req(1, 4)),
            Err(ServiceError::BadRequest(_))
        ));
        let mut r = req(1, 600);
        r.procs = 0;
        assert!(matches!(core.query(&r), Err(ServiceError::BadRequest(_))));
        let mut r = req(1, 600);
        r.config.iterations = 0;
        assert!(matches!(core.query(&r), Err(ServiceError::BadRequest(_))));
        assert_eq!(core.stats().rejected, 4);

        // Iteration counts past the cap are refused before any model
        // sees them.
        for iterations in [usize::MAX, 1_000_000_000, 20_000] {
            let mut r = req(1, 600);
            r.procs = 2;
            r.config.iterations = iterations;
            r.fault_intensity = Some(0.5);
            let rejected = core.query(&r);
            assert!(
                matches!(&rejected, Err(ServiceError::BadRequest(why)) if why.contains("iterations")),
                "iterations = {iterations}: {rejected:?}"
            );
        }
        let mut r = req(1, 600);
        r.config.iterations = MAX_ITERATIONS;
        r.fault_intensity = Some(0.5);
        assert!(core.query(&r).is_ok(), "bound itself must stay accepted");
    }

    #[test]
    fn unbounded_monte_carlo_samples_are_rejected() {
        let core = small_core();
        let mut r = req(1, 600);
        r.config.max_strategy = MaxStrategy::MonteCarlo {
            samples: 9_999_999_999,
            seed: 1,
        };
        assert!(matches!(core.query(&r), Err(ServiceError::BadRequest(_))));
        r.config.max_strategy = MaxStrategy::MonteCarlo {
            samples: 0,
            seed: 1,
        };
        assert!(matches!(core.query(&r), Err(ServiceError::BadRequest(_))));
        r.config.max_strategy = MaxStrategy::MonteCarlo {
            samples: 1_000_000,
            seed: 1,
        };
        assert!(core.query(&r).is_ok(), "cap boundary must stay accepted");
    }

    #[test]
    fn non_finite_and_non_positive_caps_are_rejected() {
        let core = small_core();
        for cap in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.25] {
            let mut r = req(1, 600);
            r.config.max_load_rel_width = Some(cap);
            assert!(
                matches!(core.query(&r), Err(ServiceError::BadRequest(_))),
                "cap = {cap} must be rejected"
            );
        }
        let mut r = req(1, 600);
        r.config.max_load_rel_width = Some(0.25);
        assert!(core.query(&r).is_ok());
    }

    #[test]
    fn bad_fault_intensities_are_rejected_with_typed_errors() {
        let core = small_core();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.1, 1.01] {
            let mut r = req(1, 600);
            r.fault_intensity = Some(bad);
            assert!(
                matches!(core.query(&r), Err(ServiceError::BadRequest(_))),
                "fault_intensity = {bad} must be rejected"
            );
        }
        for good in [0.0, 0.5, 1.0] {
            let mut r = req(1, 600);
            r.fault_intensity = Some(good);
            assert!(core.query(&r).is_ok(), "fault_intensity = {good}");
        }
    }

    #[test]
    fn zero_intensity_answers_the_healthy_bits() {
        let core = small_core();
        let healthy = core.query(&req(2, 800)).unwrap();
        let mut r = req(2, 800);
        r.fault_intensity = Some(0.0);
        let zero = core.query(&r).unwrap();
        assert!(
            !zero.cache_hit,
            "distinct key must not hit the healthy entry"
        );
        assert_eq!(zero.mean.to_bits(), healthy.mean.to_bits());
        assert_eq!(zero.lo.to_bits(), healthy.lo.to_bits());
        assert_eq!(zero.hi.to_bits(), healthy.hi.to_bits());
        assert_eq!(zero.point.to_bits(), healthy.point.to_bits());
        assert_eq!(zero.fault_intensity, Some(0.0));
        assert_eq!(healthy.fault_intensity, None);
    }

    #[test]
    fn degraded_predictions_are_monotone_in_intensity() {
        let core = small_core();
        let mut last = core.query(&req(2, 800)).unwrap();
        for intensity in [0.25, 0.5, 0.75, 1.0] {
            let mut r = req(2, 800);
            r.fault_intensity = Some(intensity);
            let degraded = core.query(&r).unwrap();
            assert!(
                degraded.mean > last.mean,
                "intensity {intensity}: {} not above {}",
                degraded.mean,
                last.mean
            );
            assert!(
                degraded.hi - degraded.lo > last.hi - last.lo,
                "intensity {intensity}: interval must widen"
            );
            assert!(degraded.point > last.point);
            last = degraded;
        }
    }

    #[test]
    fn faulted_cached_equals_uncached_bitwise() {
        let core = small_core();
        for intensity in [0.0, 0.3, 1.0] {
            let mut r = req(2, 1000);
            r.fault_intensity = Some(intensity);
            let uncached = core.query_uncached(&r).unwrap();
            core.query(&r).unwrap(); // populate
            let cached = core.query(&r).unwrap();
            assert!(cached.cache_hit, "intensity {intensity}");
            assert_eq!(uncached.mean.to_bits(), cached.mean.to_bits());
            assert_eq!(uncached.lo.to_bits(), cached.lo.to_bits());
            assert_eq!(uncached.hi.to_bits(), cached.hi.to_bits());
            assert_eq!(uncached.point.to_bits(), cached.point.to_bits());
            assert_eq!(cached.fault_intensity, Some(intensity));
        }
    }

    #[test]
    fn service_error_display_and_source() {
        use std::error::Error as _;
        let e = ServiceError::NotReady { platform: 1 };
        assert!(e.to_string().contains("platform 1"));
        assert!(e.source().is_none());
        let e = ServiceError::Predictor(PredictorError::NoData { machine: Some(0) });
        assert!(e.to_string().contains("prediction failed"));
        assert!(e.source().unwrap().to_string().contains("machine 0"));
    }

    #[test]
    fn load_source_variants_all_answer() {
        let core = small_core();
        for source in [
            LoadSource::Instantaneous,
            LoadSource::RunHorizon,
            LoadSource::ModalAverage,
        ] {
            let mut r = req(2, 600);
            r.config.load_source = source;
            let resp = core.query(&r).unwrap();
            assert!(resp.mean > 0.0, "{source:?} produced no prediction");
        }
    }

    #[test]
    fn healthy_answers_carry_healthy_serving_state() {
        let core = small_core();
        let r = core.query(&req(1, 600)).unwrap();
        assert_eq!(r.serving, ServingState::Healthy);
        assert!(!r.degraded);
        assert_eq!(r.snapshot_age_ticks, 0);
        assert_eq!(core.serving(1).unwrap(), ServingState::Healthy);
        assert!(matches!(
            core.serving(9),
            Err(ServiceError::UnknownPlatform(9))
        ));
    }

    /// A 120 s sensor blackout opening right as the first post-warmup
    /// tick polls: `(warmup + publish_interval, …)`.
    fn blackout_config(resilience: ResilienceConfig) -> ServiceConfig {
        let mut fault = FaultConfig::none(7);
        fault.blackouts.push((305.0, 425.0));
        ServiceConfig {
            seed: 7,
            horizon: 4000.0,
            warmup: 300.0,
            publish_interval: 5.0,
            fault: Some(fault),
            resilience,
            ..ServiceConfig::default()
        }
    }

    #[test]
    fn supervised_ingest_rides_through_a_blackout() {
        let core = ServiceCore::new(blackout_config(ResilienceConfig::default()));
        assert_eq!(core.epoch(), 1, "warmup published");
        // The default retry budget backs the clock across the whole
        // 120 s window inside the first tick: every tick publishes.
        for tick in 0..10 {
            let report = core.ingest_tick();
            assert!(
                report.iter().all(IngestOutcome::published),
                "tick {tick}: {report:?}"
            );
        }
        assert_eq!(core.epoch(), 11);
        let stats = core.stats().ingest;
        assert!(stats.retries > 0, "{stats:?}");
        assert_eq!(stats.recovered, 2, "one recovery per platform");
        assert_eq!(stats.failures, 0);
        assert_eq!(core.serving(1).unwrap(), ServingState::Healthy);
        let r = core.query(&req(1, 600)).unwrap();
        assert!(!r.degraded);
    }

    /// Failing-but-serving setup: no retries, breaker and watchdog held
    /// off, so ticks inside the blackout fail and the snapshot just ages.
    fn aging_resilience() -> ResilienceConfig {
        ResilienceConfig {
            retry: prodpred_core::supervisor::RetryPolicy::none(),
            breaker_threshold: u32::MAX,
            watchdog_ticks: u64::MAX,
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn aging_snapshot_degrades_widens_and_stays_bit_consistent() {
        let core = ServiceCore::new(blackout_config(aging_resilience()));
        let healthy = core.query(&req(1, 800)).unwrap();
        for _ in 0..3 {
            let report = core.ingest_tick();
            assert!(report.iter().all(|o| !o.published()), "{report:?}");
        }
        assert_eq!(core.serving(1).unwrap(), ServingState::Degraded);
        // The pre-blackout cache entry is served, degraded and widened.
        let degraded = core.query(&req(1, 800)).unwrap();
        assert!(degraded.cache_hit, "entry survives failed ticks");
        assert!(degraded.degraded);
        assert_eq!(degraded.serving, ServingState::Degraded);
        assert_eq!(degraded.snapshot_age_ticks, 3);
        assert_eq!(degraded.epoch, healthy.epoch, "no publish happened");
        assert_eq!(degraded.mean.to_bits(), healthy.mean.to_bits());
        let widen = 3.0f64.sqrt(); // sqrt(1 + (3 - healthy_age 1))
        let expect_half = 0.5 * (healthy.hi - healthy.lo) * widen;
        assert_eq!(
            degraded.lo.to_bits(),
            (degraded.mean - expect_half).to_bits()
        );
        assert_eq!(
            degraded.hi.to_bits(),
            (degraded.mean + expect_half).to_bits()
        );
        // The uncached reference path agrees bit for bit while degraded.
        let uncached = core.query_uncached(&req(1, 800)).unwrap();
        assert_eq!(uncached.lo.to_bits(), degraded.lo.to_bits());
        assert_eq!(uncached.hi.to_bits(), degraded.hi.to_bits());
        assert_eq!(uncached.mean.to_bits(), degraded.mean.to_bits());
        assert!(uncached.degraded);
        // Only the counted query path bumps the counter (the uncached
        // reference path leaves the serving counters untouched).
        assert_eq!(core.stats().degraded_served, 1);
    }

    #[test]
    fn unsupervised_core_goes_unavailable_inside_the_blackout() {
        let core = ServiceCore::new(blackout_config(ResilienceConfig::unsupervised()));
        core.ingest_tick(); // age 1: still within the fresh band
        assert!(core.query(&req(1, 600)).is_ok());
        core.ingest_tick(); // age 2: past the fresh-only policy
        assert_eq!(core.serving(1).unwrap(), ServingState::Unavailable);
        let err = core.query(&req(1, 600)).unwrap_err();
        match err {
            ServiceError::Unavailable {
                platform,
                age_ticks,
                retry_after_secs,
            } => {
                assert_eq!(platform, 1);
                assert_eq!(age_ticks, 2);
                assert!(retry_after_secs >= 1);
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        let stats = core.stats();
        assert_eq!(stats.unavailable, 1);
        assert_eq!(stats.serving_platform1, ServingState::Unavailable);
        assert_eq!(stats.serving_platform2, ServingState::Unavailable);
        assert!(matches!(
            core.query_uncached(&req(1, 600)),
            Err(ServiceError::Unavailable { .. })
        ));
    }

    #[test]
    fn watchdog_trips_the_breaker_on_a_wedged_epoch() {
        let res = ResilienceConfig {
            retry: prodpred_core::supervisor::RetryPolicy::none(),
            breaker_threshold: u32::MAX, // the streak alone never trips
            watchdog_ticks: 3,
            ..ResilienceConfig::default()
        };
        let core = ServiceCore::new(blackout_config(res));
        for _ in 0..3 {
            core.ingest_tick();
        }
        let stats = core.stats().ingest;
        assert_eq!(stats.watchdog_trips, 2, "one per platform: {stats:?}");
        assert_eq!(stats.breaker_trips, 2);
        // With the breaker open, the next ticks short-circuit (no poll).
        let report = core.ingest_tick();
        assert_eq!(report, [IngestOutcome::ShortCircuited; 2]);
        assert!(core.stats().ingest.breaker_short_circuits >= 2);
        // An open breaker escalates the serving state one level.
        assert_eq!(core.serving(1).unwrap(), ServingState::Stale);
    }

    #[test]
    fn admission_sheds_misses_but_never_hits() {
        let config = ServiceConfig {
            seed: 7,
            horizon: 2000.0,
            warmup: 300.0,
            resilience: ResilienceConfig {
                admission: crate::resilience::AdmissionConfig {
                    miss_tokens_per_tick: 1,
                },
                ..ResilienceConfig::default()
            },
            ..ServiceConfig::default()
        };
        let core = ServiceCore::new(config);
        assert!(core.query(&req(1, 600)).is_ok(), "first miss admitted");
        let err = core.query(&req(1, 800)).unwrap_err();
        assert!(
            matches!(err, ServiceError::Overloaded { retry_after_secs } if retry_after_secs >= 1),
            "{err:?}"
        );
        // The hit path is never shed, even with the budget exhausted.
        let hit = core.query(&req(1, 600)).unwrap();
        assert!(hit.cache_hit);
        // Uncached reference path bypasses admission entirely.
        assert!(core.query_uncached(&req(1, 800)).is_ok());
        let stats = core.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.rejected, 1);
        // The next tick refills the budget.
        core.ingest_tick();
        assert!(core.query(&req(1, 800)).is_ok());
    }
}
