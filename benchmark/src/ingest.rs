//! `ingest_churn`: writes beside reads on one `ServiceCore`.
//!
//! A writer thread calls `ingest_tick` on a fixed schedule, one due every
//! 40 ms, while `clients − 1` reader threads (at least one) run
//! `ServiceCore::query` closed loop over the 192 keys. The same swap and
//! cache layers used the other way (publish, `bump_to`, refill after
//! invalidation), and the only workload long enough to see the per-tick
//! cost grow with sensor history. The end-to-end metrics are the readers';
//! the writer's tick cost, publish lag and on-time share are per-layer.

use crate::common::{measured_setup, peak_rss_mb, probe_ns, report_closed, Args, Times};
use crate::gen::{hot_keys, Key, Rng};
use crate::load::{closed_loop, Client, Phase, BATCH};
use crate::metrics::Outcome;
use crate::shadow::{answer_bits, ShadowService, INGEST_STAGES};
use crate::stats::{median, percentile_f64};
use crate::trace::{Profile, Stage, Tracer};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_service::cache::{CacheConfig, EpochCache, QueryKey};
use prodpred_service::{PredictResponse, ServiceConfig, ServiceCore, ServiceError};
use prodpred_simgrid::Platform;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// A tick falls due this often.
const TICK_EVERY: Duration = Duration::from_millis(40);
/// One read in this many is checked against `query_uncached`.
const DEEP_EVERY: u64 = 4096;
/// The readers' tail. As on `handle_hot`, about one hit in a hundred is
/// much slower than the rest and p99 sits where the distribution turns up:
/// its spread over ten runs read 7 to 22 % where p95's read 3 to 11 %. p99
/// is printed beside it.
const TAIL: f64 = 0.95;

struct Churn {
    core: ServiceCore,
    keys: Vec<Key>,
}

fn setup(seed: u64) -> Churn {
    let core = ServiceCore::new(ServiceConfig {
        seed,
        ..ServiceConfig::default()
    });
    let keys = hot_keys(seed);
    for k in &keys {
        std::hint::black_box(core.query(&k.request).is_ok());
    }
    Churn { core, keys }
}

struct Reader<'a> {
    core: &'a ServiceCore,
    keys: &'a [Key],
    rng: Rng,
}

impl Client for Reader<'_> {
    type Input = usize;
    type Output = Result<PredictResponse, ServiceError>;

    fn refill(&mut self, _from: u64, batch: &mut Vec<usize>) {
        for _ in 0..BATCH {
            batch.push(self.rng.below(self.keys.len() as u64) as usize);
        }
    }

    fn call(&mut self, &i: &usize) -> Self::Output {
        self.core.query(&self.keys[i].request)
    }

    /// On a deep check the answer must carry the bits `query_uncached`
    /// gives on the same epoch; the writer may have published in between,
    /// in which case there is nothing to compare.
    fn check(&mut self, &i: &usize, output: &Self::Output, deep: bool) -> bool {
        let Ok(answer) = output else { return false };
        if !deep {
            return true;
        }
        match self.core.query_uncached(&self.keys[i].request) {
            Ok(reference) => {
                reference.epoch != answer.epoch || answer_bits(&reference) == answer_bits(answer)
            }
            Err(_) => false,
        }
    }
}

/// What the writer saw, tick by tick.
#[derive(Default)]
struct Ticks {
    due: u64,
    duration_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    on_time: u64,
}

/// Runs `tick` on the 40 ms schedule until `stop`: a tick is started at its
/// due time, or at once if the previous one overran. Lag is completion
/// minus due time; a tick is on time if it finished before the next was due.
fn write_on_schedule(stop: &AtomicBool, mut tick: impl FnMut()) -> Ticks {
    let origin = Instant::now();
    let mut ticks = Ticks::default();
    // The flag publishes nothing but itself.
    while !stop.load(Ordering::Relaxed) {
        let due = TICK_EVERY * ticks.due as u32;
        if let Some(wait) = due.checked_sub(origin.elapsed()) {
            std::thread::sleep(wait);
            if stop.load(Ordering::Relaxed) {
                break;
            }
        }
        let started = origin.elapsed();
        tick();
        let done = origin.elapsed();
        ticks.due += 1;
        ticks.duration_ms.push((done - started).as_secs_f64() * 1e3);
        ticks
            .lag_ms
            .push(done.saturating_sub(due).as_secs_f64() * 1e3);
        ticks.on_time += u64::from(done < due + TICK_EVERY);
    }
    // Ticks that fell due before the stop and never started were not on time.
    ticks.due = ticks
        .due
        .max((origin.elapsed().as_nanos() / TICK_EVERY.as_nanos()) as u64);
    ticks
}

/// Readers closed loop for `seconds` beside a writer calling `tick`.
fn churn(
    args: &Args,
    seconds: f64,
    churn: &Churn,
    tick: impl FnMut() + Send,
) -> (crate::load::Closed, Ticks) {
    let readers = args.clients.saturating_sub(1).max(1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| write_on_schedule(&stop, tick));
        let clients = (0..readers)
            .map(|lane| Reader {
                core: &churn.core,
                keys: &churn.keys,
                rng: Rng::lane(args.seed, 0x200 + lane as u64),
            })
            .collect();
        let (closed, _) = closed_loop(&Phase::of(seconds, DEEP_EVERY), clients);
        stop.store(true, Ordering::Relaxed);
        (closed, writer.join().expect("writer thread panicked"))
    })
}

fn report_ticks(out: &mut Outcome, ticks: &mut Ticks) {
    let p50 = median(&mut ticks.duration_ms);
    let lag_p95 = percentile_f64(&mut ticks.lag_ms, 0.95).unwrap_or(0.0);
    let on_time = ticks.on_time as f64 / ticks.due.max(1) as f64;
    let n = ticks.duration_ms.len();
    println!(
        "  writer: due={} run={n} ingest_tick_ms_p50={p50:.3} publish_lag_ms_p95={lag_p95:.3} \
         ticks_on_time_share={on_time:.4}",
        ticks.due
    );
    out.put("ingest_tick_ms_p50", p50);
    out.put("publish_lag_ms_p95", lag_p95);
    out.put("ticks_on_time_share", on_time);
}

pub fn run(args: &Args, out: &mut Outcome) {
    let state = measured_setup(out, || setup(args.seed));
    if args.trace {
        traced(args, out, &state);
        return;
    }
    let (closed, mut ticks) = churn(args, args.seconds, &state, || {
        state.core.ingest_tick();
    });
    report_closed(
        out,
        "ingest_churn readers",
        &closed,
        TAIL,
        Times::Calibrated,
    );
    report_ticks(out, &mut ticks);
    let stats = state.core.stats();
    println!(
        "  cache: hit_ratio={:.6} invalidated={} epochs={}",
        stats.cache.hits as f64 / (stats.cache.hits + stats.cache.misses).max(1) as f64,
        stats.cache.invalidated,
        stats.epochs_published
    );
    out.put("peak_rss_mb", peak_rss_mb());
}

/// The traced run: the real workload for a quarter of its length (tick
/// cost, lag, on-time share, the real tick median), then the same again
/// with the shadow ingest path and its spans as the writer, then the probes.
fn traced(args: &Args, out: &mut Outcome, state: &Churn) {
    let quarter = args.seconds / 4.0;
    let before = state.core.stats();
    let (closed, mut ticks) = churn(args, quarter, state, || {
        state.core.ingest_tick();
    });
    report_closed(
        out,
        "ingest_churn readers",
        &closed,
        TAIL,
        Times::Calibrated,
    );
    let real_tick_ms = ticks.duration_ms.clone();
    report_ticks(out, &mut ticks);
    let after = state.core.stats();
    out.put(
        "cache.invalidated",
        (after.cache.invalidated - before.cache.invalidated) as f64,
    );
    let lookups =
        (after.cache.hits + after.cache.misses) - (before.cache.hits + before.cache.misses);
    out.put(
        "cache.hit_ratio",
        (after.cache.hits - before.cache.hits) as f64 / lookups.max(1) as f64,
    );

    // The shadow's writer takes the real writer's place, on the same
    // schedule and beside the same readers, so tick k of the shadow carries
    // the sensor history, and meets the contention, that tick k of the real
    // run did.
    let shadow = ShadowService::new(args.seed);
    let mut tracer = Tracer::new(true, Instant::now());
    let (_, shadow_ticks) = churn(args, quarter, state, || shadow.tick(&mut tracer));
    let profile = Profile::merge(vec![tracer]);
    print!("{}", profile.table(&INGEST_STAGES));
    let compared = real_tick_ms.len().min(shadow_ticks.duration_ms.len());
    let mut same_ticks = real_tick_ms[..compared].to_vec();
    profile.report_consistency(
        out,
        Stage::Tick,
        &INGEST_STAGES,
        median(&mut same_ticks) * 1e6,
    );
    profile.write(&args.workload);
    // Ten spans on a tick of several milliseconds: the overhead is the
    // share of the tick its root span spends outside its children.
    out.put(
        "trace.overhead_share",
        1.0 - profile.self_p50(Stage::Tick) / profile.total_p50(Stage::Tick).max(1.0),
    );
    // Per span; both platforms tick inside one `ingest_tick`, so a tick
    // pays each of these twice.
    out.put(
        "nws.advance_to_us_p50",
        profile.self_p50(Stage::AdvanceTo) / 1e3,
    );
    out.put(
        "nws.snapshot_ms_p50",
        profile.self_p50(Stage::Snapshot) / 1e6,
    );
    out.put("swap.publish_ns_p50", profile.self_p50(Stage::Publish));
    probes(out, args, state);
}

fn probes(out: &mut Outcome, args: &Args, state: &Churn) {
    // Snapshot cost against sensor history, on a benchmark-owned NWS over
    // Platform 2: mean of ticks 161–200 over mean of ticks 1–40.
    let platform = Platform::platform2(args.seed, 4.0 * 3600.0);
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0);
    let mut snapshot_ms = Vec::with_capacity(200);
    for tick in 1..=200u64 {
        nws.advance_to(&platform, 600.0 + 5.0 * tick as f64);
        let started = Instant::now();
        std::hint::black_box(nws.snapshot(tick));
        snapshot_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let growth = mean(&snapshot_ms[160..]) / mean(&snapshot_ms[..40]);
    out.put("nws.snapshot_growth_ratio", growth);
    out.put(
        "nws.cpu_query_ns_p50",
        probe_ns(8, 200, || nws.cpu_query(0)),
    );

    // bump_to with 4096 entries resident.
    let value = state
        .core
        .query_uncached(&state.keys[0].request)
        .expect("hot key is valid");
    let cache: EpochCache<PredictResponse> = EpochCache::new(CacheConfig::default());
    let config = state.keys[0].request.config;
    let mut bump_us = Vec::with_capacity(40);
    for epoch in 1..=40u64 {
        cache.bump_to(epoch);
        for n in 0..8192usize {
            cache.insert(
                epoch,
                QueryKey::new(2, 16 + n, 2, &config, None),
                value.clone(),
            );
        }
        let started = Instant::now();
        cache.bump_to(epoch + 1);
        bump_us.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out.put("cache.bump_to_full_us_p50", median(&mut bump_us));
    println!(
        "probes: nws.snapshot_growth_ratio={growth:.3} (ticks 161-200 over 1-40: {:.3} ms over {:.3} ms), \
         cache.bump_to_full_us_p50={:.1}",
        mean(&snapshot_ms[160..]),
        mean(&snapshot_ms[..40]),
        median(&mut bump_us)
    );
}
