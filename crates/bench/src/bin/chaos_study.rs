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
//!   overhead (`records::ChaosReport::gate` holds it to 5%).
//!
//! Results are written to `target/tmp/BENCH_chaos.json`; pass the
//! committed `BENCH_chaos.json` as the second argument to replace it, so
//! recovery-rate or overhead regressions show up as diffs.
//!
//! Usage: `cargo run --release --bin chaos_study [schedules] [out.json]`

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use prodpred_bench::campaign::{self, CAMPAIGN_SEED, CHECKPOINT_EVERY, ITERATIONS, N, RANKS};
use prodpred_bench::records::{ChaosReport, Record};
use prodpred_core::{RecoveryStats, RetryPolicy};
use prodpred_pool::parallel_map;
use prodpred_simgrid::faults::{mix, FaultSchedule};
use prodpred_sor::{
    partition_equal, solve_seq, try_solve_checkpointed, try_solve_decomposed, CheckpointPolicy,
    CheckpointStore, Decomposition, Grid, SolveOptions, SorParams,
};
use prodpred_stochastic::stats;

/// What one schedule did, reduced to deterministic bits.
#[derive(Default)]
struct Outcome {
    panicked: bool,
    completed: bool,
    completed_unsupervised: bool,
    /// The supervised arm's recovery accounting.
    stats: RecoveryStats,
    exact: bool,
    /// Interior sum bits of the final grid state (the solution when
    /// completed, the last checkpoint boundary when abandoned).
    sum_bits: u64,
}

fn run_schedule(schedule: &FaultSchedule, reference: &Grid) -> Outcome {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let (grid, recovery) = campaign::solve_with_recovery(schedule);
        // Unsupervised control: one attempt, no second chances.
        let (_, no_retry) =
            campaign::solve(schedule, &RetryPolicy::none(), CheckpointPolicy::disabled());
        Outcome {
            panicked: false,
            completed: recovery.succeeded(),
            completed_unsupervised: no_retry.succeeded(),
            stats: recovery.stats,
            exact: recovery.succeeded() && grid.max_diff(reference) == 0.0, // tidy:allow(PP004): bit-exact recovery equality is the point of this field
            sum_bits: grid.interior_sum().to_bits(),
        }
    }));
    caught.unwrap_or(Outcome {
        panicked: true,
        ..Outcome::default()
    })
}

/// Runs the whole campaign at a pinned pool width and folds the per-
/// schedule outcomes into one order-sensitive digest.
fn run_campaign(
    campaign: &[FaultSchedule],
    reference: &Arc<Grid>,
    threads: usize,
) -> (Vec<Outcome>, u64) {
    let reference = Arc::clone(reference);
    let outcomes = parallel_map(campaign, threads, move |_, s| run_schedule(s, &reference));
    let mut digest = 0u64;
    for (s, o) in campaign.iter().zip(&outcomes) {
        digest = mix(digest ^ s.id);
        digest = mix(digest ^ u64::from(o.completed));
        digest = mix(digest ^ o.stats.retries);
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
/// background-load drift hits both sides of each pair equally; which side
/// runs first alternates, so neither always runs second in its pair.
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
    let time = |solve: &dyn Fn(usize), i| {
        let t = Instant::now();
        solve(i);
        t.elapsed().as_secs_f64()
    };
    for i in 0..pairs {
        let (base, ck) = if i % 2 == 0 {
            let base = time(&plain, i);
            (base, time(&checkpointed, i))
        } else {
            let ck = time(&checkpointed, i);
            (time(&plain, i), ck)
        };
        base_times.push(base);
        ck_times.push(ck);
        ratios.push(ck / base - 1.0);
    }
    let median = |times: &[f64]| stats::median(times).expect("31 pairs were timed");
    (median(&base_times), median(&ck_times), median(&ratios))
}

fn main() {
    let schedules: usize = prodpred_bench::arg_or(1, "schedules", 200);

    println!(
        "== Chaos campaign: {schedules} seeded fault schedules over the \
         supervised solver ==\n\
         grid {N}x{N}, {ITERATIONS} iterations, {RANKS} ranks, checkpoint \
         every {CHECKPOINT_EVERY}\n"
    );

    let campaign = campaign::schedules(schedules);
    let mut reference = Grid::laplace_problem(N);
    solve_seq(&mut reference, SorParams::for_grid(N, ITERATIONS));
    let reference = Arc::new(reference);

    // The determinism pin: the same campaign at a single worker and an
    // oversubscribed pool must fold to the same digest.
    let (outcomes, digest1) = run_campaign(&campaign, &reference, 1);
    let (_, digest8) = run_campaign(&campaign, &reference, 8);
    let count = |pred: fn(&Outcome) -> bool| outcomes.iter().filter(|o| pred(o)).count();
    let without_recovery = count(|o| o.completed_unsupervised);
    let totals = campaign::measured(outcomes.iter().map(|o| (o.completed, &o.stats)));
    // The fault model's forecast of the same aggregates, from the kill
    // distribution alone — the numbers `faultpred_study` gates.
    let predicted = campaign::predicted();
    let (base, checkpointed, overhead) = healthy_checkpoint_overhead();

    let report = ChaosReport {
        schedules,
        campaign_seed: CAMPAIGN_SEED,
        panics: count(|o| o.panicked),
        faulty_schedules: campaign.iter().filter(|s| !s.is_healthy()).count(),
        completed_with_recovery: totals.completed,
        completed_without_recovery: without_recovery,
        completion_rate_with_recovery: totals.completion_rate,
        completion_rate_without_recovery: without_recovery as f64 / schedules as f64,
        recovered_exact: count(|o| o.exact),
        mean_retries: totals.mean_retries,
        mean_backoff_secs: totals.mean_backoff_secs,
        abandoned: count(|o| o.stats.abandoned > 0),
        resumed_iterations_saved: totals.stats.resumed_iterations_saved,
        predicted_completion_rate: predicted.completion_rate,
        predicted_mean_retries: predicted.mean_retries,
        predicted_mean_backoff_secs: predicted.mean_backoff_secs,
        predicted_mean_saved_iterations: predicted.mean_saved_iterations,
        healthy_solve_secs: base,
        checkpointed_solve_secs: checkpointed,
        checkpoint_overhead_healthy: overhead,
        deterministic_1_vs_8: digest1 == digest8,
        digest: format!("{digest1:#x}"),
    };

    // The invariants the campaign exists to enforce.
    assert_eq!(report.panics, 0, "every failure must be a typed error");
    assert_eq!(
        report.recovered_exact, report.completed_with_recovery,
        "every completed solve must match the unfaulted reference bits"
    );
    assert_eq!(
        report.completed_with_recovery + report.abandoned,
        schedules,
        "every schedule either completes or exhausts into a typed error"
    );
    assert!(
        report.deterministic_1_vs_8,
        "campaign must not depend on pool width"
    );
    let out_path = report
        .write(std::env::args().nth(2))
        .expect("write the record");
    println!("\nwrote {out_path}");
}
