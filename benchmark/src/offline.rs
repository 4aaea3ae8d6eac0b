//! `offline_sweep`: the paper's experiment.
//!
//! `platform1_seed_sweep` over 32 seeds × sizes {1000, 1600, 2000} and
//! `platform2_seed_sweep` over 32 seeds × the same sizes × 10 runs, called
//! two seeds at a time with `threads = clients`, the whole set repeated
//! for the run's length. An operation is one `RunRecord`: NWS forecast →
//! structural prediction → simulated distributed run. This is the offline
//! pipeline `simgrid` → `nws` → `core.predictor` → `sor.distsim` → `pool`
//! that the service never touches, and where prediction quality is scored.

use crate::calib::{compute_factor, sample_on};
use crate::common::{measured_setup, peak_rss_mb, probe_ns, Args};
use crate::gen::Rng;
use crate::metrics::Outcome;
use crate::shadow::{offline_series, OFFLINE_STAGES};
use crate::stats::{lowmean, median, percentile_f64, supported};
use crate::trace::{Profile, Stage, Tracer};
use prodpred_core::experiment::{ExperimentSeries, RunRecord};
use prodpred_core::scheduler::{decompose, DecompositionPolicy};
use prodpred_core::{platform1_seed_sweep, platform2_experiment, platform2_seed_sweep};
use prodpred_pool::parallel_map;
use prodpred_simgrid::Platform;
use prodpred_sor::{simulate, DistSorConfig};
use std::hint::black_box;
use std::time::Instant;

const SIZES: [usize; 3] = [1000, 1600, 2000];
const SEEDS: usize = 32;
const SEEDS_PER_CALL: usize = 2;
const RUNS: usize = 10;
/// The tail reported: p90 over the set's 64 calls, each timed as the lower
/// half of its repeats. A run makes a few hundred calls in all, which support
/// p90 and not p99.
const TAIL: f64 = 0.90;

/// One sweep call of the set.
#[derive(Clone, Copy)]
enum Call {
    Platform1 { batch: usize },
    Platform2 { batch: usize, n: usize },
}

struct Sweep {
    seeds: Vec<u64>,
    calls: Vec<Call>,
}

impl Sweep {
    fn seeds_of(&self, batch: usize) -> &[u64] {
        &self.seeds[batch * SEEDS_PER_CALL..(batch + 1) * SEEDS_PER_CALL]
    }

    fn run(&self, call: Call, threads: usize) -> Vec<ExperimentSeries> {
        match call {
            Call::Platform1 { batch } => {
                platform1_seed_sweep(self.seeds_of(batch), &SIZES, threads)
            }
            Call::Platform2 { batch, n } => {
                platform2_seed_sweep(self.seeds_of(batch), n, RUNS, threads)
            }
        }
    }
}

/// Builds the seed list and call order, and makes one call of each kind so
/// that lazy set-up is over before timing starts.
fn setup(args: &Args) -> Sweep {
    let mut rng = Rng::lane(args.seed, 0x6f66);
    let seeds = (0..SEEDS).map(|_| rng.next() >> 16).collect();
    let mut calls = Vec::new();
    for batch in 0..SEEDS / SEEDS_PER_CALL {
        calls.push(Call::Platform1 { batch });
        calls.extend(SIZES.iter().map(|&n| Call::Platform2 { batch, n }));
    }
    let sweep = Sweep { seeds, calls };
    for &call in &sweep.calls[..1 + SIZES.len()] {
        black_box(sweep.run(call, args.clients));
    }
    sweep
}

/// Every bit a series' records carry that the paper's figures read.
fn digest(series: &[ExperimentSeries]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |bits: u64| {
        h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    };
    for r in series.iter().flat_map(|s| &s.records) {
        record_bits(r).into_iter().for_each(&mut mix);
    }
    h
}

fn record_bits(r: &RunRecord) -> [u64; 6] {
    [
        r.start.to_bits(),
        r.n as u64,
        r.actual_secs.to_bits(),
        r.prediction.stochastic.mean().to_bits(),
        r.prediction.stochastic.half_width().to_bits(),
        r.prediction.point.to_bits(),
    ]
}

/// Prediction quality over a set of records: the share of simulated
/// actuals inside predicted mean ± 2σ, and the mean relative error of the
/// predicted mean.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
struct Quality {
    records: u64,
    covered: u64,
    rel_err_sum: f64,
}

impl Quality {
    fn add(&mut self, series: &[ExperimentSeries]) {
        for r in series.iter().flat_map(|s| &s.records) {
            self.records += 1;
            self.covered += u64::from(r.prediction.stochastic.contains(r.actual_secs));
            self.rel_err_sum +=
                (r.prediction.stochastic.mean() - r.actual_secs).abs() / r.actual_secs.abs();
        }
    }

    fn coverage(&self) -> f64 {
        self.covered as f64 / self.records.max(1) as f64
    }

    fn mean_rel_err(&self) -> f64 {
        self.rel_err_sum / self.records.max(1) as f64
    }
}

/// What repeated passes over the set measured.
struct Passes {
    records: u64,
    /// By call of the set: the records it returns and the wall time of each
    /// of its repeats, in seconds.
    by_call: Vec<(u64, Vec<f64>)>,
    /// Quality over the first full pass, if one completed.
    quality: Option<Quality>,
    /// The machine's speed factor, from the compute kernel timed between
    /// calls on as many threads as the sweep uses.
    speed: f64,
    planned_s: f64,
    actual_s: f64,
}

/// Repeats the set until `seconds` have passed (finishing the call under
/// way), or runs it exactly once when `seconds` is `None`. Every repeat of
/// a call must return the bits its first run did.
fn passes(out: &mut Outcome, sweep: &Sweep, threads: usize, seconds: Option<f64>) -> Passes {
    let started = Instant::now();
    let mut p = Passes {
        records: 0,
        by_call: vec![(0, Vec::new()); sweep.calls.len()],
        quality: None,
        speed: 1.0,
        planned_s: seconds.unwrap_or(0.0),
        actual_s: 0.0,
    };
    let mut first_digests = Vec::with_capacity(sweep.calls.len());
    let mut quality = Quality::default();
    let mut kernel_ns = Vec::new();
    'run: loop {
        for (i, &call) in sweep.calls.iter().enumerate() {
            kernel_ns.extend(sample_on(threads));
            let call_started = Instant::now();
            let series = sweep.run(call, threads);
            let took = call_started.elapsed().as_secs_f64();
            let records = series.iter().map(|s| s.records.len() as u64).sum::<u64>();
            out.attempted += records;
            p.records += records;
            p.by_call[i].0 = records;
            p.by_call[i].1.push(took);
            let d = digest(&series);
            match first_digests.get(i) {
                None => {
                    first_digests.push(d);
                    quality.add(&series);
                    if first_digests.len() == sweep.calls.len() {
                        p.quality = Some(quality);
                    }
                }
                Some(&first) if first != d => {
                    out.failed += records;
                    out.violation(format!(
                        "offline_sweep: call {i} changed its records between passes"
                    ));
                }
                Some(_) => {}
            }
            if seconds.is_some_and(|s| started.elapsed().as_secs_f64() >= s) {
                break 'run;
            }
        }
        if seconds.is_none() {
            break;
        }
    }
    p.actual_s = started.elapsed().as_secs_f64();
    p.speed = compute_factor(&kernel_ns);
    p
}

pub fn run(args: &Args, out: &mut Outcome) {
    let sweep = measured_setup(out, || setup(args));
    if args.trace {
        traced(args, out, &sweep);
        return;
    }
    let mut p = passes(out, &sweep, args.clients, Some(args.seconds));
    // Every repeat of a call does identical work, so a call's time is the
    // mean of the quicker half of its repeats: what the neighbours add to
    // the other half is not the call's cost.
    let calls: u64 = p
        .by_call
        .iter()
        .map(|(_, repeats)| repeats.len() as u64)
        .sum();
    let typical: Vec<(u64, f64)> = p
        .by_call
        .iter_mut()
        .filter(|(_, repeats)| !repeats.is_empty())
        .map(|(records, repeats)| (*records, lowmean(repeats)))
        .collect();
    let throughput = typical
        .iter()
        .map(|&(records, _)| records as f64)
        .sum::<f64>()
        / typical.iter().map(|&(_, s)| s).sum::<f64>();
    let mut per_record_us: Vec<f64> = typical
        .iter()
        .map(|&(records, s)| s * 1e6 / records as f64)
        .collect();
    let p50 = median(&mut per_record_us);
    let tail = percentile_f64(&mut per_record_us, TAIL).unwrap_or(0.0);
    println!(
        "  as measured: throughput_ops_s={throughput:.3} latency_p50_us={p50:.3} latency_tail_us={tail:.3} \
         speed_factor={:.4}",
        p.speed
    );
    let (throughput, p50, tail) = (throughput * p.speed, p50 / p.speed, tail / p.speed);
    println!(
        "phase offline_sweep: fixed set repeated, threads={} planned={:.3}s actual={:.3}s \
         calls={calls} records={} failed={}",
        args.clients, p.planned_s, p.actual_s, p.records, out.failed
    );
    println!(
        "  reported:    throughput_ops_s={throughput:.3} latency_p50_us={p50:.3} latency_tail_us={tail:.3} \
         (p{:.0} over the set's {} calls, each the lower half of its repeats)",
        TAIL * 100.0,
        per_record_us.len()
    );
    if !supported(calls, TAIL) {
        out.violation(format!(
            "offline_sweep: p{:.0} of {calls} calls has fewer than ten beyond it",
            TAIL * 100.0
        ));
    }
    out.put("throughput_ops_s", throughput);
    out.put("latency_p50_us", p50);
    out.put("latency_tail_us", tail);
    match p.quality {
        Some(q) => println!(
            "  quality over one pass of {} records: coverage_2sigma={:.6} mean_rel_err={:.6}",
            q.records,
            q.coverage(),
            q.mean_rel_err()
        ),
        None => out.violation("offline_sweep: the run ended before one full pass".into()),
    }
    out.put("peak_rss_mb", peak_rss_mb());
}

/// The traced run: one pass of the real set (quality, and a repeat pass
/// that must match it), the real `platform2_experiment` against its shadow
/// with spans, then the probes.
fn traced(args: &Args, out: &mut Outcome, sweep: &Sweep) {
    let p = passes(out, sweep, args.clients, None);
    let again = passes(out, sweep, args.clients, None);
    println!(
        "phase offline_sweep: two passes, {:.3}s and {:.3}s, {} records each",
        p.actual_s, again.actual_s, p.records
    );
    if let (Some(q), Some(q2)) = (p.quality, again.quality) {
        // Deterministic in the seed: a repeat must give the same bits.
        if q != q2 {
            out.violation(format!(
                "offline_sweep: quality changed between passes: {q:?} then {q2:?}"
            ));
        }
        out.put("coverage_2sigma", q.coverage());
        out.put("mean_rel_err", q.mean_rel_err());
        println!(
            "  coverage_2sigma={:.6} mean_rel_err={:.6} over {} records",
            q.coverage(),
            q.mean_rel_err(),
            q.records
        );
    }

    // Real series against the shadow's, seed by seed.
    let n = SIZES[1];
    let mut real_ns = Vec::with_capacity(SEEDS);
    let mut tracer = Tracer::new(true, Instant::now());
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for &seed in &sweep.seeds {
        let started = Instant::now();
        let real = platform2_experiment(seed, n, RUNS);
        real_ns.push(started.elapsed().as_nanos() as f64);
        let started = Instant::now();
        let shadow = offline_series(seed, n, RUNS, &mut tracer);
        traced_s += started.elapsed().as_secs_f64();
        let started = Instant::now();
        black_box(offline_series(
            seed,
            n,
            RUNS,
            &mut Tracer::new(false, started),
        ));
        untraced_s += started.elapsed().as_secs_f64();
        out.attempted += RUNS as u64;
        let same = real.records.len() == shadow.len()
            && real
                .records
                .iter()
                .zip(&shadow)
                .all(|(a, b)| record_bits(a) == record_bits(b));
        if !same {
            out.failed += RUNS as u64;
            out.violation(format!(
                "offline shadow differs from platform2_experiment on seed {seed}"
            ));
        }
    }
    let profile = Profile::merge(vec![tracer]);
    print!("{}", profile.table(&OFFLINE_STAGES));
    profile.report_consistency(out, Stage::Series, &OFFLINE_STAGES, median(&mut real_ns));
    profile.write(&args.workload);
    out.put("trace.overhead_share", untraced_s / traced_s);
    out.put(
        "sor.distsim_simulate_us_p50",
        profile.self_p50(Stage::Simulate) / 1e3,
    );
    out.put(
        "simgrid.platform2_generate_ms",
        profile.self_p50(Stage::PlatformGenerate) / 1e6,
    );
    out.put(
        "nws.advance_to_us_p50",
        profile.self_p50(Stage::AdvanceTo) / 1e3,
    );
    probes(out, args, sweep);
}

fn probes(out: &mut Outcome, args: &Args, sweep: &Sweep) {
    let platform = Platform::platform2(args.seed, 60_000.0);
    let load = &platform.machines[0].load;
    let mut rng = Rng::lane(args.seed, 0x7472);
    let mut at = || 300.0 + (rng.below(50_000_000) as f64) / 1e3;
    out.put(
        "simgrid.trace_integral_ns_p50",
        probe_ns(64, 200, || {
            let a = at();
            load.integral(a, a + 37.5)
        }),
    );
    out.put(
        "simgrid.time_to_complete_ns_p50",
        probe_ns(64, 200, || load.time_to_complete(at(), 20.0)),
    );
    // Platform 2, n = 1600, 50 iterations: one simulated distributed run.
    let strips = decompose(&platform, 1600, DecompositionPolicy::DedicatedSpeed, None);
    let simulate_ns = probe_ns(1, 60, || {
        simulate(&platform, &strips, DistSorConfig::new(1600, 50, 300.0))
    });
    println!(
        "probes: distsim::simulate(platform2, 1600, 50) {:.1} us alone",
        simulate_ns / 1e3
    );

    // What parallel_map adds to work that costs nothing, and what it buys
    // on one sweep call.
    let items: Vec<u64> = (0..args.clients as u64).collect();
    let spawned = probe_ns(1, 200, || parallel_map(&items, args.clients, |_, &x| x + 1));
    let inline = probe_ns(1, 200, || parallel_map(&items, 1, |_, &x| x + 1));
    out.put("pool.parallel_map_overhead_us", (spawned - inline) / 1e3);
    let call = Call::Platform2 {
        batch: 0,
        n: SIZES[1],
    };
    let time = |threads| {
        let mut t: Vec<f64> = (0..3)
            .map(|_| {
                let started = Instant::now();
                black_box(sweep.run(call, threads));
                started.elapsed().as_secs_f64()
            })
            .collect();
        median(&mut t)
    };
    let (one, many) = (time(1), time(args.clients));
    if digest(&sweep.run(call, 1)) != digest(&sweep.run(call, args.clients)) {
        out.violation("offline_sweep: a sweep's records depend on its thread count".into());
    }
    out.put("pool.sweep_speedup", one / many);
    println!(
        "probes: parallel_map overhead {:.1} us at {} threads; sweep {:.1} ms at 1 thread, {:.1} ms at {} threads, speedup {:.3}",
        (spawned - inline) / 1e3,
        args.clients,
        one * 1e3,
        many * 1e3,
        args.clients,
        one / many
    );
}
