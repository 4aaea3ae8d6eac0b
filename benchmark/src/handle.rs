//! `handle_hot` and `handle_cold`: in-process
//! `http::handle(core, target).render()`, closed loop.
//!
//! Hot repeats 192 keys with no ingest tick in the measured window, so
//! parse, cache probe, clone and serialise do all the work. Cold never
//! repeats a key, so the cache is pure overhead and the model does the
//! work; 5 % of its requests take the Monte-Carlo `max`.

use crate::alloc;
use crate::common::{measured_setup, peak_rss_mb, probe_ns, report_closed, Args, Times};
use crate::gen::{hot_keys, ColdGen, Key, Rng};
use crate::load::{closed_loop, Client, Phase, BATCH};
use crate::metrics::Outcome;
use crate::shadow::{answer_bits, ShadowService, REQUEST_STAGES};
use crate::trace::{Profile, Stage, Tracer};
use prodpred_core::{LoadSource, PredictorConfig, SorPredictor};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_service::http::{self, HttpResponse};
use prodpred_service::{PredictResponse, ServiceConfig, ServiceCore};
use prodpred_simgrid::Platform;
use prodpred_sor::decomp::partition_equal;
use prodpred_stochastic::{max_of, MaxStrategy};
use prodpred_structural::SorStructuralModel;
use std::hint::black_box;
use std::time::Instant;

/// One operation in this many is checked against `query_uncached` in full.
const DEEP_EVERY: u64 = 256;
/// The tail `handle_hot` reports. About one hot request in a hundred is
/// several times slower than the rest, so p99 sits where the distribution
/// turns up: between sets of ten runs of the same code it read 6.8 to
/// 8.5 us where p95 read 4.2 to 4.3. p99 is printed beside it.
const HOT_TAIL: f64 = 0.95;
/// The tail `handle_cold` reports: one request in twenty takes the
/// Monte-Carlo `max`, so p99 lies well inside those.
const COLD_TAIL: f64 = 0.99;
/// Request numbers each phase of a run may use, so cold keys never repeat
/// across the phases that share a cache.
const PHASE_SPAN: u64 = 4_000_000;

fn core_for(seed: u64) -> ServiceCore {
    ServiceCore::new(ServiceConfig {
        seed,
        ..ServiceConfig::default()
    })
}

/// Where a client's keys come from.
pub trait KeySource: Send {
    fn keys(&mut self, from: u64, batch: &mut Vec<Key>);
}

/// Uniform draws from the 192 hot keys.
pub struct HotSource<'a> {
    keys: &'a [Key],
    rng: Rng,
}

impl<'a> HotSource<'a> {
    pub fn new(keys: &'a [Key], seed: u64, lane: u64) -> Self {
        Self {
            keys,
            rng: Rng::lane(seed, 0x100 + lane),
        }
    }
}

impl KeySource for HotSource<'_> {
    fn keys(&mut self, _from: u64, batch: &mut Vec<Key>) {
        for _ in 0..BATCH {
            let i = self.rng.below(self.keys.len() as u64) as usize;
            batch.push(self.keys[i].clone());
        }
    }
}

/// Never-repeating keys: lane `lane` of `lanes` takes every `lanes`-th
/// request number from `base`.
struct ColdSource {
    gen: ColdGen,
    base: u64,
    lane: u64,
    lanes: u64,
}

impl ColdSource {
    fn new(seed: u64, phase: u64, lane: usize, lanes: usize) -> Self {
        Self {
            gen: ColdGen::new(seed, phase * 64 + lane as u64),
            base: phase * PHASE_SPAN,
            lane: lane as u64,
            lanes: lanes as u64,
        }
    }
}

impl KeySource for ColdSource {
    fn keys(&mut self, from: u64, batch: &mut Vec<Key>) {
        for j in 0..BATCH as u64 {
            batch.push(
                self.gen
                    .key(self.base + self.lane + (from + j) * self.lanes),
            );
        }
    }
}

/// Checks a rendered answer: status 200, a wire form that frames its body,
/// and — on a deep check — a body that parses to the bits `query_uncached`
/// gives for the same request on the same epoch.
pub fn answer_is_right(
    core: &ServiceCore,
    key: &Key,
    response: &HttpResponse,
    wire: &str,
    deep: bool,
) -> bool {
    if response.status != 200 || !wire.starts_with("HTTP/1.1 200 OK\r\n") {
        return false;
    }
    if !deep {
        return true;
    }
    let Ok(parsed) = serde_json::from_str::<PredictResponse>(&response.body) else {
        return false;
    };
    let Ok(reference) = core.query_uncached(&key.request) else {
        return false;
    };
    wire.ends_with(&response.body)
        && (parsed.platform, parsed.n, parsed.procs)
            == (key.request.platform, key.request.n, key.request.procs)
        && (parsed.epoch != reference.epoch || answer_bits(&parsed) == answer_bits(&reference))
}

/// The real path: `http::handle(core, target).render()`.
struct HandleClient<'a, K> {
    core: &'a ServiceCore,
    source: K,
}

impl<K: KeySource> Client for HandleClient<'_, K> {
    type Input = Key;
    type Output = (HttpResponse, String);

    fn refill(&mut self, from: u64, batch: &mut Vec<Key>) {
        self.source.keys(from, batch);
    }

    fn call(&mut self, key: &Key) -> Self::Output {
        let response = http::handle(self.core, &key.target);
        let wire = response.render();
        (response, wire)
    }

    fn check(&mut self, key: &Key, (response, wire): &Self::Output, deep: bool) -> bool {
        answer_is_right(self.core, key, response, wire, deep)
    }
}

/// The shadow path, given the head the shell would have read.
struct ShadowClient<'a, K> {
    shadow: &'a ShadowService,
    core: &'a ServiceCore,
    source: K,
    keys: Vec<Key>,
    tracer: Tracer,
}

impl<K: KeySource> Client for ShadowClient<'_, K> {
    type Input = (String, Key);
    type Output = Option<(PredictResponse, String)>;

    fn refill(&mut self, from: u64, batch: &mut Vec<Self::Input>) {
        self.keys.clear();
        self.source.keys(from, &mut self.keys);
        batch.extend(self.keys.drain(..).map(|k| {
            (
                format!("GET {} HTTP/1.1\r\nHost: bench\r\n\r\n", k.target),
                k,
            )
        }));
    }

    fn call(&mut self, (head, _): &Self::Input) -> Self::Output {
        self.shadow.handle(head, &mut self.tracer)
    }

    /// The shadow is only a fair stand-in if it answers what the program
    /// answers: same bits as the real core built from the same seed.
    fn check(&mut self, (_, key): &Self::Input, output: &Self::Output, deep: bool) -> bool {
        let Some((response, wire)) = output else {
            return false;
        };
        if !deep {
            return wire.starts_with("HTTP/1.1 200 OK\r\n");
        }
        self.core
            .query_uncached(&key.request)
            .is_ok_and(|reference| answer_bits(response) == answer_bits(&reference))
    }
}

struct Hot {
    core: ServiceCore,
    keys: Vec<Key>,
}

fn setup_hot(seed: u64) -> Hot {
    let core = core_for(seed);
    let keys = hot_keys(seed);
    for k in &keys {
        black_box(http::handle(&core, &k.target));
    }
    Hot { core, keys }
}

pub fn run_hot(args: &Args, out: &mut Outcome) {
    let hot = measured_setup(out, || setup_hot(args.seed));
    let source = |_phase: u64, lane: usize| HotSource::new(&hot.keys, args.seed, lane as u64);
    if args.trace {
        traced(args, out, &hot.core, source, HOT_TAIL, |shadow| {
            let mut off = Tracer::new(false, Instant::now());
            for k in &hot.keys {
                let head = format!("GET {} HTTP/1.1\r\n\r\n", k.target);
                black_box(shadow.handle(&head, &mut off));
            }
        });
        hot_probes(out, &hot);
        return;
    }
    let before = hot.core.stats();
    let clients = (0..args.clients)
        .map(|lane| HandleClient {
            core: &hot.core,
            source: source(0, lane),
        })
        .collect();
    let (closed, _) = closed_loop(&Phase::of(args.seconds, DEEP_EVERY), clients);
    report_closed(out, "handle_hot", &closed, HOT_TAIL, Times::Calibrated);
    let after = hot.core.stats();
    let (hits, misses) = (
        after.cache.hits - before.cache.hits,
        after.cache.misses - before.cache.misses,
    );
    println!(
        "  cache.hit_ratio={:.6} (hits={hits} misses={misses})",
        hits as f64 / (hits + misses).max(1) as f64
    );
    if after.epochs_published != before.epochs_published {
        out.violation("handle_hot: an ingest tick ran inside the measured window".into());
    }
    out.put("peak_rss_mb", peak_rss_mb());
}

pub fn run_cold(args: &Args, out: &mut Outcome) {
    let core = measured_setup(out, || core_for(args.seed));
    let source = |phase: u64, lane: usize| ColdSource::new(args.seed, phase, lane, args.clients);
    if args.trace {
        traced(args, out, &core, source, COLD_TAIL, |_| {});
        cold_probes(out, args, &core);
        return;
    }
    let clients = (0..args.clients)
        .map(|lane| HandleClient {
            core: &core,
            source: source(0, lane),
        })
        .collect();
    let (closed, _) = closed_loop(&Phase::of(args.seconds, DEEP_EVERY), clients);
    report_closed(out, "handle_cold", &closed, COLD_TAIL, Times::Calibrated);
    let stats = core.stats();
    println!(
        "  cache: hits={} misses={} evicted={} shed={}",
        stats.cache.hits, stats.cache.misses, stats.cache.evicted, stats.shed
    );
    if stats.cache.hits != 0 {
        out.violation(format!("handle_cold: {} keys repeated", stats.cache.hits));
    }
    out.put("peak_rss_mb", peak_rss_mb());
}

/// The traced run: the real path for an eighth of the untraced length, the
/// shadow with spans off for another eighth, then the shadow with spans on
/// for a quarter.
fn traced<K: KeySource>(
    args: &Args,
    out: &mut Outcome,
    core: &ServiceCore,
    source: impl Fn(u64, usize) -> K,
    tail: f64,
    prefill: impl FnOnce(&ShadowService),
) {
    let quarter = args.seconds / 4.0;
    let before = core.stats();
    let real_clients = (0..args.clients)
        .map(|lane| HandleClient {
            core,
            source: source(0, lane),
        })
        .collect();
    let phase = Phase::of(quarter / 2.0, DEEP_EVERY);
    let (real, _) = closed_loop(&phase, real_clients);
    report_closed(out, "real handle", &real, tail, Times::Calibrated);
    let after = core.stats();
    let lookups =
        (after.cache.hits + after.cache.misses) - (before.cache.hits + before.cache.misses);
    out.put(
        "cache.hit_ratio",
        (after.cache.hits - before.cache.hits) as f64 / lookups.max(1) as f64,
    );
    out.put(
        "cache.evicted",
        (after.cache.evicted - before.cache.evicted) as f64,
    );
    out.put("admission.shed", (after.shed - before.shed) as f64);

    let shadow = ShadowService::new(args.seed);
    prefill(&shadow);
    let origin = Instant::now();
    let shadow_clients = |phase_no: u64, on: bool| {
        (0..args.clients)
            .map(|lane| ShadowClient {
                shadow: &shadow,
                core,
                source: source(phase_no, lane),
                keys: Vec::with_capacity(BATCH),
                tracer: Tracer::new(on, origin),
            })
            .collect::<Vec<_>>()
    };
    let (plain, _) = closed_loop(&phase, shadow_clients(1, false));
    let spans_on = Phase::of(quarter, DEEP_EVERY);
    let (with_spans, clients) = closed_loop(&spans_on, shadow_clients(2, true));
    println!(
        "phase shadow: untraced {:.3}s {:.1} ops/s, traced {:.3}s {:.1} ops/s, failed {}+{}",
        plain.actual_s,
        plain.throughput(),
        with_spans.actual_s,
        with_spans.throughput(),
        plain.failed,
        with_spans.failed,
    );
    out.attempted += plain.attempted + with_spans.attempted;
    out.failed += plain.failed + with_spans.failed;
    out.put(
        "trace.overhead_share",
        with_spans.throughput() / plain.throughput(),
    );

    let profile = Profile::merge(clients.into_iter().map(|c| c.tracer).collect());
    print!("{}", profile.table(&REQUEST_STAGES));
    // `http::handle` starts from the target, so the shell's `request_target`
    // is no part of what the real phase timed; and the real phase ran a few
    // seconds before the spans, so its median is carried over to the speed
    // the machine had during them.
    let handled: Vec<Stage> = REQUEST_STAGES
        .iter()
        .copied()
        .filter(|&s| s != Stage::RequestTarget)
        .collect();
    // The plain median of the phase, as the stage medians are.
    let real_p50 = real.all().p50();
    profile.report_consistency(
        out,
        Stage::Request,
        &handled,
        real_p50 * with_spans.speed / real.speed,
    );
    profile.write(&args.workload);

    let ns = |stage| profile.self_p50(stage);
    out.put("http.request_target_ns_p50", ns(Stage::RequestTarget));
    out.put("http.parse_predict_ns_p50", ns(Stage::ParsePredict));
    out.put("http.to_json_ns_p50", ns(Stage::ToJson));
    out.put("http.render_ns_p50", ns(Stage::Render));
    out.put("swap.load_ns_p50", ns(Stage::SwapLoad));
    out.put("resilience.derive_ns_p50", ns(Stage::Derive));
    out.put("predictor.try_new_ns_p50", ns(Stage::TryNew));
    out.put("cache.insert_ns_p50", ns(Stage::CacheInsert));
    out.put("admission.try_admit_miss_ns_p50", ns(Stage::Admit));
    out.put("faultmodel.terms_ns_p50", ns(Stage::FaultTerms));
    // The probe is a hit where nothing was inserted, a miss otherwise.
    let probe = if profile.count(Stage::CacheInsert) == 0 {
        "cache.get_hit_ns_p50"
    } else {
        "cache.get_miss_ns_p50"
    };
    out.put(probe, ns(Stage::CacheGet));
}

/// Probes of the layers a hot request crosses.
fn hot_probes(out: &mut Outcome, hot: &Hot) {
    let core = &hot.core;
    let key = &hot.keys[0];
    let handle = probe_ns(64, 200, || http::handle(core, &key.target));
    let query_hit = probe_ns(64, 200, || core.query(&key.request));
    out.put("http.handle_ns_p50", handle);
    out.put("core.query_hit_ns_p50", query_hit);
    out.put("http.self_ns_p50", handle - query_hit);
    let (mut bytes, mut handle_allocs, mut query_allocs) = (0usize, 0u64, 0u64);
    for k in &hot.keys {
        let (response, allocs) = alloc::during(|| http::handle(core, &k.target));
        handle_allocs += allocs;
        bytes += response.render().len();
        query_allocs += alloc::during(|| core.query(&k.request)).1;
    }
    let n = hot.keys.len() as f64;
    out.put("http.response_bytes_mean", bytes as f64 / n);
    out.put("http.allocs_per_handle_hit", handle_allocs as f64 / n);
    out.put("core.allocs_per_query_hit", query_allocs as f64 / n);
    println!(
        "probes: handle {handle:.1} ns, core.query hit {query_hit:.1} ns, {:.2} allocs/handle, \
         {:.2} allocs/query, {:.1} bytes/response",
        handle_allocs as f64 / n,
        query_allocs as f64 / n,
        bytes as f64 / n
    );
}

/// Probes of what a cold request costs beyond its spans: the whole miss
/// path, and the model under each load source.
fn cold_probes(out: &mut Outcome, args: &Args, core: &ServiceCore) {
    // Closed-form misses on keys no phase has used.
    let mut fresh = ColdSource::new(args.seed, 3, 0, 1);
    let mut keys = Vec::new();
    while keys.len() < 4096 {
        let mut batch = Vec::new();
        fresh.keys(keys.len() as u64 * 2, &mut batch);
        keys.extend(batch.into_iter().filter(|k: &Key| {
            k.request.config.max_strategy == MaxStrategy::ByMean
                && k.request.fault_intensity.is_none()
        }));
    }
    let mut next = keys.iter().cycle();
    let mut take = || next.next().expect("cycle never ends");
    let miss = probe_ns(1, 2000, || core.query(&take().request));
    let miss_allocs = (0..64)
        .map(|_| alloc::during(|| core.query(&take().request)).1)
        .sum::<u64>() as f64
        / 64.0;
    let uncached = probe_ns(8, 200, || core.query_uncached(&keys[0].request));
    out.put("core.query_miss_ns_p50", miss);
    out.put("core.allocs_per_query_miss", miss_allocs);
    out.put("core.query_uncached_ns_p50", uncached);

    // The model on a benchmark-owned platform and snapshot.
    let platform = Platform::platform2(args.seed, 4.0 * 3600.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0);
    let snapshot = nws.snapshot(1);
    let strips = partition_equal(1600 - 2, 4);
    let config = |load_source, max_strategy| PredictorConfig {
        load_source,
        max_strategy,
        ..PredictorConfig::default()
    };
    for (name, load_source) in [
        (
            "predictor.try_predict_inst_ns_p50",
            LoadSource::Instantaneous,
        ),
        (
            "predictor.try_predict_horizon_ns_p50",
            LoadSource::RunHorizon,
        ),
        (
            "predictor.try_predict_modal_ns_p50",
            LoadSource::ModalAverage,
        ),
    ] {
        let predictor = SorPredictor::new(
            &platform,
            &snapshot,
            config(load_source, MaxStrategy::ByMean),
        );
        out.put(
            name,
            probe_ns(8, 200, || predictor.try_predict(1600, &strips)),
        );
    }
    let predictor = SorPredictor::new(&platform, &snapshot, PredictorConfig::default());
    let inputs = predictor
        .model_inputs(1600, &strips)
        .expect("warm snapshot");
    out.put(
        "structural.sor_model_predict_ns_p50",
        probe_ns(8, 200, || SorStructuralModel::new(inputs.clone()).predict()),
    );
    let mc = MaxStrategy::MonteCarlo {
        samples: 2000,
        seed: args.seed,
    };
    let predictor = SorPredictor::new(&platform, &snapshot, config(LoadSource::Instantaneous, mc));
    let mc_ns = probe_ns(1, 60, || predictor.try_predict(1600, &strips));
    out.put("predictor.mc2000_predict_us_p50", mc_ns / 1e3);
    let loads = predictor
        .try_predict(1600, &strips)
        .expect("warm snapshot")
        .loads;
    let many = MaxStrategy::MonteCarlo {
        samples: 20_000,
        seed: args.seed,
    };
    let max_ns = probe_ns(1, 30, || max_of(&loads, many));
    out.put("stochastic.mc_samples_per_s", 20_000.0 / (max_ns / 1e9));
    println!(
        "probes: core.query miss {miss:.1} ns ({miss_allocs:.2} allocs), uncached {uncached:.1} ns, \
         mc2000 predict {:.1} us, max_of mc20000 {:.1} us",
        mc_ns / 1e3,
        max_ns / 1e3
    );
}
