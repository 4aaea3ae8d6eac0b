//! Deterministic chaos campaign over the supervised SOR solver.
//!
//! Fans a seeded campaign of [`FaultSchedule`]s (healthy runs, single
//! worker deaths, repeated deaths outlasting the retry budget) over the
//! work pool and checks the recovery invariants the robustness layer
//! promises:
//!
//! * every recovered grid is **bit-identical** to the unfaulted
//!   sequential reference — checkpoint/resume loses nothing,
//! * every failure is a **typed error** (`SolveError`), never a panic —
//!   each task runs under `catch_unwind` and the campaign asserts zero
//!   unwinds,
//! * the whole campaign digest is **bit-deterministic** at 1 and 8 pool
//!   threads,
//! * checkpointing a **healthy** solve costs only a bounded wall-time
//!   overhead (CI gates the committed number at 5%).
//!
//! Results are written to `BENCH_chaos.json` (override with the second
//! argument) so recovery-rate or overhead regressions show up as diffs.
//!
//! Usage: `cargo run --release --bin chaos_study [schedules] [out.json]`

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use serde::Serialize;

use prodpred_core::{predict_campaign, solve_supervised, RetryPolicy};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{mix, FaultSchedule};
use prodpred_sor::{
    partition_equal, solve_seq, try_solve_checkpointed, try_solve_decomposed, CheckpointPolicy,
    CheckpointStore, Decomposition, ExchangePolicy, Grid, SolveOptions, SorParams,
};

/// Campaign geometry: small enough that hundreds of faulted solves (each
/// spawning real worker threads, some twice) finish in seconds, large
/// enough that every rank owns several rows.
const N: usize = 33;
const ITERATIONS: usize = 20;
const RANKS: usize = 4;
const CHECKPOINT_EVERY: usize = 4;
const CAMPAIGN_SEED: u64 = 4242;

fn snappy() -> ExchangePolicy {
    ExchangePolicy {
        timeout: std::time::Duration::from_millis(200),
        retries: 1,
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy {
        seed: CAMPAIGN_SEED,
        ..Default::default()
    }
}

/// What one schedule did, reduced to deterministic bits.
struct Outcome {
    panicked: bool,
    completed: bool,
    completed_unsupervised: bool,
    retries: u64,
    abandoned: bool,
    resumed_iterations_saved: u64,
    backoff_secs: f64,
    exact: bool,
    /// Interior sum bits of the final grid state (the solution when
    /// completed, the last checkpoint boundary when abandoned).
    sum_bits: u64,
}

fn run_schedule(schedule: &FaultSchedule, reference: &Grid) -> Outcome {
    let params = SorParams::for_grid(N, ITERATIONS);
    let strips = Decomposition::strips(N, &partition_equal(N - 2, RANKS));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        // Supervised: retries resume from the last checkpoint.
        let mut grid = Grid::laplace_problem(N);
        let recovery = solve_supervised(
            &mut grid,
            params,
            &strips,
            snappy(),
            schedule,
            &retry(),
            CheckpointPolicy::every(CHECKPOINT_EVERY),
        );
        // Unsupervised control: one attempt, no second chances.
        let mut bare = Grid::laplace_problem(N);
        let no_retry = solve_supervised(
            &mut bare,
            params,
            &strips,
            snappy(),
            schedule,
            &RetryPolicy::none(),
            CheckpointPolicy::disabled(),
        );
        Outcome {
            panicked: false,
            completed: recovery.succeeded(),
            completed_unsupervised: no_retry.succeeded(),
            retries: recovery.stats.retries,
            abandoned: recovery.stats.abandoned > 0,
            resumed_iterations_saved: recovery.stats.resumed_iterations_saved,
            backoff_secs: recovery.stats.backoff_secs,
            exact: recovery.succeeded() && grid.max_diff(reference) == 0.0, // tidy:allow(PP004): bit-exact recovery equality is the point of this field
            sum_bits: grid.interior_sum().to_bits(),
        }
    }));
    caught.unwrap_or(Outcome {
        panicked: true,
        completed: false,
        completed_unsupervised: false,
        retries: 0,
        abandoned: false,
        resumed_iterations_saved: 0,
        backoff_secs: 0.0,
        exact: false,
        sum_bits: 0,
    })
}

/// Runs the whole campaign at a pinned pool width and folds the per-
/// schedule outcomes into one order-sensitive digest.
fn run_campaign(
    campaign: &[FaultSchedule],
    reference: &Grid,
    threads: usize,
) -> (Vec<Outcome>, u64) {
    let outcomes = parallel_map(campaign, threads, |_, s| run_schedule(s, reference));
    let mut digest = 0u64;
    for (s, o) in campaign.iter().zip(&outcomes) {
        digest = mix(digest ^ s.id);
        digest = mix(digest ^ u64::from(o.completed));
        digest = mix(digest ^ o.retries);
        digest = mix(digest ^ o.sum_bits);
    }
    (outcomes, digest)
}

/// Wall-time overhead of checkpointing a healthy solve, as a fraction of
/// the uncheckpointed parallel solve.
///
/// Checkpointing costs a grid snapshot plus a solver restart (thread
/// respawn, scatter/gather) per segment boundary, so the overhead scales
/// as `fixed_cost / every`: the committed number uses the production-ish
/// cadence of one mid-solve checkpoint (`every = iterations / 2`), where
/// a lost solve forfeits at most half its work. Timings are taken as
/// interleaved plain/checkpointed pairs and reduced by median ratio, so
/// background-load drift hits both sides of each pair equally.
fn healthy_checkpoint_overhead() -> (f64, f64, f64) {
    let n = 513;
    let iters = 480;
    let every = iters / 2;
    let p = 2;
    let params = SorParams::for_grid(n, iters);
    let strips = Decomposition::strips(n, &partition_equal(n - 2, p));
    let plain = |_: usize| {
        let mut g = Grid::laplace_problem(n);
        try_solve_decomposed(&mut g, params, &strips, &SolveOptions::reliable()).unwrap();
        std::hint::black_box(g.interior_sum());
    };
    let checkpointed = |_: usize| {
        let mut g = Grid::laplace_problem(n);
        let mut store = CheckpointStore::new();
        try_solve_checkpointed(
            &mut g,
            params,
            &strips,
            &SolveOptions::reliable(),
            CheckpointPolicy::every(every),
            &mut store,
        )
        .unwrap();
        assert_eq!(store.taken(), 1);
        std::hint::black_box(g.interior_sum());
    };
    // Warmup, then interleaved pairs.
    plain(0);
    checkpointed(0);
    let pairs = 31;
    let mut base_times = Vec::with_capacity(pairs);
    let mut ck_times = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let t = Instant::now();
        plain(i);
        let base = t.elapsed().as_secs_f64();
        let t = Instant::now();
        checkpointed(i);
        let ck = t.elapsed().as_secs_f64();
        base_times.push(base);
        ck_times.push(ck);
        ratios.push(ck / base - 1.0);
    }
    base_times.sort_by(|a, b| a.total_cmp(b));
    ck_times.sort_by(|a, b| a.total_cmp(b));
    ratios.sort_by(|a, b| a.total_cmp(b));
    (
        base_times[pairs / 2],
        ck_times[pairs / 2],
        ratios[pairs / 2],
    )
}

/// The committed record.
#[derive(Debug, Serialize)]
struct ChaosReport {
    schedules: usize,
    campaign_seed: u64,
    panics: usize,
    faulty_schedules: usize,
    completed_with_recovery: usize,
    completed_without_recovery: usize,
    completion_rate_with_recovery: f64,
    completion_rate_without_recovery: f64,
    recovered_exact: usize,
    mean_retries: f64,
    mean_backoff_secs: f64,
    abandoned: usize,
    resumed_iterations_saved: u64,
    /// Fault-model forecasts of the campaign aggregates above, computed
    /// *before* running a single schedule (`prodpred_core::faultmodel`
    /// at intensity 1.0 — the campaign's own kill-count distribution).
    predicted_completion_rate: f64,
    predicted_mean_retries: f64,
    predicted_mean_backoff_secs: f64,
    predicted_mean_saved_iterations: f64,
    healthy_solve_secs: f64,
    checkpointed_solve_secs: f64,
    checkpoint_overhead_healthy: f64,
    deterministic_1_vs_8: bool,
    digest: String,
}

fn main() {
    let schedules: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("schedule count"))
        .unwrap_or(200);
    let out_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "BENCH_chaos.json".to_string());

    println!(
        "== Chaos campaign: {schedules} seeded fault schedules over the \
         supervised solver ==\n\
         grid {N}x{N}, {ITERATIONS} iterations, {RANKS} ranks, checkpoint \
         every {CHECKPOINT_EVERY}\n"
    );

    let campaign = FaultSchedule::random_campaign(CAMPAIGN_SEED, schedules, RANKS, ITERATIONS);
    let mut reference = Grid::laplace_problem(N);
    solve_seq(&mut reference, SorParams::for_grid(N, ITERATIONS));

    // The determinism pin: the same campaign at a single worker and an
    // oversubscribed pool must fold to the same digest.
    let (outcomes, digest1) = run_campaign(&campaign, &reference, 1);
    let (_, digest8) = run_campaign(&campaign, &reference, 8);
    let deterministic = digest1 == digest8;

    let panics = outcomes.iter().filter(|o| o.panicked).count();
    let faulty = campaign.iter().filter(|s| !s.is_healthy()).count();
    let with_recovery = outcomes.iter().filter(|o| o.completed).count();
    let without_recovery = outcomes.iter().filter(|o| o.completed_unsupervised).count();
    let exact = outcomes.iter().filter(|o| o.exact).count();
    let abandoned = outcomes.iter().filter(|o| o.abandoned).count();
    let retries: u64 = outcomes.iter().map(|o| o.retries).sum();
    let saved: u64 = outcomes.iter().map(|o| o.resumed_iterations_saved).sum();
    let backoff: f64 = outcomes.iter().map(|o| o.backoff_secs).sum();

    // The fault model's forecast of the same aggregates, from the kill
    // distribution alone — the numbers `faultpred_study` gates.
    let predicted = predict_campaign(
        1.0,
        &retry(),
        CheckpointPolicy::every(CHECKPOINT_EVERY),
        ITERATIONS,
    );

    // The invariants the campaign exists to enforce.
    assert_eq!(panics, 0, "every failure must be a typed error");
    assert_eq!(
        exact, with_recovery,
        "every completed solve must match the unfaulted reference bits"
    );
    assert_eq!(
        with_recovery + abandoned,
        schedules,
        "every schedule either completes or exhausts into a typed error"
    );
    assert!(deterministic, "campaign must not depend on pool width");

    println!("schedules            {schedules:>8}  ({faulty} faulty)");
    println!("panics               {panics:>8}");
    println!(
        "completed            {with_recovery:>8}  with recovery ({:.1}%)",
        100.0 * with_recovery as f64 / schedules as f64
    );
    println!(
        "                     {without_recovery:>8}  without recovery ({:.1}%)",
        100.0 * without_recovery as f64 / schedules as f64
    );
    println!("bit-exact recoveries {exact:>8}");
    println!("abandoned            {abandoned:>8}  (kills outlasting the retry budget)");
    println!(
        "retries              {retries:>8}  (mean {:.2}/schedule)",
        retries as f64 / schedules as f64
    );
    println!("iterations saved     {saved:>8}  (resumed from checkpoints, not recomputed)");
    println!("digest (1 == 8 thr)  {digest1:>#18x}");
    println!(
        "predicted            {:>8.3}  completion rate (measured {:.3})",
        predicted.completion_rate,
        with_recovery as f64 / schedules as f64
    );
    println!(
        "                     {:>8.3}  mean retries (measured {:.3})",
        predicted.mean_retries,
        retries as f64 / schedules as f64
    );
    println!(
        "                     {:>8.1}  mean backoff secs (measured {:.1})",
        predicted.mean_backoff_secs,
        backoff / schedules as f64
    );
    println!(
        "                     {:>8.2}  mean saved iterations (measured {:.2})",
        predicted.mean_saved_iterations,
        saved as f64 / schedules as f64
    );

    println!("\n-- healthy checkpoint overhead (n=513, 480 iters, 1 mid-solve checkpoint) --");
    let (base, checkpointed, overhead) = healthy_checkpoint_overhead();
    println!("plain solve          {:>11.4} s", base);
    println!("checkpointed solve   {:>11.4} s", checkpointed);
    println!("overhead             {:>11.2} %", overhead * 100.0);

    let report = ChaosReport {
        schedules,
        campaign_seed: CAMPAIGN_SEED,
        panics,
        faulty_schedules: faulty,
        completed_with_recovery: with_recovery,
        completed_without_recovery: without_recovery,
        completion_rate_with_recovery: with_recovery as f64 / schedules as f64,
        completion_rate_without_recovery: without_recovery as f64 / schedules as f64,
        recovered_exact: exact,
        mean_retries: retries as f64 / schedules as f64,
        mean_backoff_secs: backoff / schedules as f64,
        abandoned,
        resumed_iterations_saved: saved,
        predicted_completion_rate: predicted.completion_rate,
        predicted_mean_retries: predicted.mean_retries,
        predicted_mean_backoff_secs: predicted.mean_backoff_secs,
        predicted_mean_saved_iterations: predicted.mean_saved_iterations,
        healthy_solve_secs: base,
        checkpointed_solve_secs: checkpointed,
        checkpoint_overhead_healthy: overhead,
        deterministic_1_vs_8: deterministic,
        digest: format!("{digest1:#x}"),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    std::fs::write(&out_path, json + "\n").expect("write chaos report");
    println!("\nwrote {out_path}");
}
