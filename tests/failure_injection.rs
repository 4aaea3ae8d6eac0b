//! Failure injection: the system must stay well-behaved when the
//! environment degrades — a machine effectively dies, the network
//! collapses, a worker thread is killed mid-solve, sensors black out, or
//! the NWS sees pathological histories.

use prodpred_core::{
    decompose, platform2_experiment_with_faults, DecompositionPolicy, PredictorConfig, SorPredictor,
};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_simgrid::faults::{FaultConfig, WorkerDeath};
use prodpred_simgrid::load::MIN_AVAILABILITY;
use prodpred_simgrid::{Machine, MachineClass, MachineSpec, Platform, Trace};
use prodpred_sor::{
    partition_equal, simulate, try_solve_decomposed, BlockLayout, Decomposition, DistSorConfig,
    ExchangePolicy, Grid, SolveError, SolveOptions, SorParams,
};
use std::time::{Duration, Instant};

fn platform_with_machine1(load: Trace) -> Platform {
    let horizon = load.t0() + load.dt() * load.len() as f64;
    let mut machines: Vec<Machine> = (0..4)
        .map(|i| {
            Machine::new(
                MachineSpec::new(format!("m{i}"), MachineClass::Sparc10),
                Trace::constant(0.0, 1.0, 1.0, horizon as usize),
            )
        })
        .collect();
    machines[1] = Machine::new(MachineSpec::new("dying", MachineClass::Sparc10), load);
    let network = Platform::dedicated(&[MachineClass::Sparc10], 10.0).network;
    Platform {
        machines,
        network,
        horizon,
    }
}

#[test]
fn machine_death_stalls_but_never_hangs() {
    // Machine 1 drops to the availability floor one second into a run
    // that needs several seconds of compute.
    let mut values = vec![1.0; 1];
    values.extend(vec![MIN_AVAILABILITY; 100_000]);
    let platform = platform_with_machine1(Trace::new(0.0, 1.0, values));
    let strips = partition_equal(998, 4);
    let run = simulate(&platform, &strips, DistSorConfig::new(1000, 10, 0.0));
    // Terminates, with a time reflecting the ~100x slowdown of the dead
    // machine's share of the work.
    assert!(run.total_secs.is_finite());
    let clean = simulate(
        &Platform::dedicated([MachineClass::Sparc10; 4].as_ref(), 1.0e5),
        &strips,
        DistSorConfig::new(1000, 10, 0.0),
    );
    assert!(run.total_secs > clean.total_secs * 10.0);
}

#[test]
fn zero_availability_trace_uses_floor_not_divergence() {
    // A trace generated entirely at the availability floor: work still
    // completes (floored), never NaN/inf.
    let t = Trace::constant(0.0, 1.0, MIN_AVAILABILITY, 1000);
    let d = t.time_to_complete(0.0, 1.0);
    assert!(d.is_finite() && d > 0.0);
    assert!((d - 1.0 / MIN_AVAILABILITY).abs() / d < 1e-9);
}

#[test]
fn network_collapse_inflates_but_preserves_order() {
    let mut platform = Platform::dedicated([MachineClass::Sparc10; 4].as_ref(), 1.0e5);
    let strips = partition_equal(998, 4);
    let healthy = simulate(&platform, &strips, DistSorConfig::new(1000, 5, 0.0));
    // Collapse available bandwidth to 2% of dedicated.
    platform.network.avail = Trace::constant(0.0, 1.0, 0.02, 100_000);
    let degraded = simulate(&platform, &strips, DistSorConfig::new(1000, 5, 0.0));
    assert!(degraded.total_secs > healthy.total_secs * 2.0);
    assert!(degraded.total_secs.is_finite());
}

#[test]
fn predictor_survives_degraded_machine() {
    // The NWS reports the dying machine's ~floor availability; the
    // prediction must be finite, huge, and still bracket the actual run.
    let mut values = vec![0.9; 300];
    values.extend(vec![0.02; 30_000]);
    let platform = platform_with_machine1(Trace::new(0.0, 1.0, values));
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 600.0); // well into the degraded regime
    let strips = decompose(&platform, 400, DecompositionPolicy::Equal, None);
    let predictor = SorPredictor::new(&platform, &nws, PredictorConfig::default());
    let prediction = predictor.predict(400, &strips).unwrap();
    assert!(prediction.stochastic.mean().is_finite());

    let run = simulate(&platform, &strips, DistSorConfig::new(400, 50, 600.0));
    // The degraded machine dominates both prediction and reality.
    let healthy_est = 50.0 * 2.0 * (398.0 * 398.0 / 4.0 / 2.0) * 0.9e-6 / 0.9;
    assert!(run.total_secs > healthy_est * 10.0);
    assert!(
        prediction.stochastic.widen(2.0).contains(run.total_secs),
        "prediction {} vs actual {}",
        prediction.stochastic,
        run.total_secs
    );
}

/// The per-exchange patience configured below: 200 ms per attempt, one
/// retry, so a wedged neighbour costs at most 400 ms per exchange.
fn snappy() -> ExchangePolicy {
    ExchangePolicy {
        timeout: Duration::from_millis(200),
        retries: 1,
    }
}

#[test]
fn killed_strip_worker_surfaces_within_the_configured_timeout() {
    let n = 33;
    let iters = 40;
    let reference = Grid::laplace_problem(n);
    let mut g = Grid::laplace_problem(n);
    let options = SolveOptions {
        policy: snappy(),
        kill: Some(WorkerDeath {
            rank: 2,
            at_half_iteration: 11,
        }),
    };
    let strips = partition_equal(n - 2, 4);
    let started = Instant::now();
    let err = try_solve_decomposed(
        &mut g,
        SorParams::for_grid(n, iters),
        &Decomposition::strips(n, &strips),
        &options,
    )
    .expect_err("a killed worker must not produce a clean solve");
    let elapsed = started.elapsed();
    assert_eq!(err, SolveError::WorkerDied { rank: 2 });
    // Death propagates by mailbox disconnection, not by timing out every
    // exchange: well under the worst-case per-exchange patience times the
    // remaining iterations, and nowhere near a deadlock.
    assert!(
        elapsed < Duration::from_secs(5),
        "took {elapsed:?} to report the death"
    );
    // The grid is left untouched so callers can retry on a clean state.
    assert_eq!(g.max_diff(&reference), 0.0);
}

#[test]
fn killed_block_worker_surfaces_within_the_configured_timeout() {
    let n = 29;
    let iters = 30;
    let layout = BlockLayout::new(3, 2);
    let reference = Grid::laplace_problem(n);
    let mut g = Grid::laplace_problem(n);
    let options = SolveOptions {
        policy: snappy(),
        kill: Some(WorkerDeath {
            rank: 4,
            at_half_iteration: 7,
        }),
    };
    let started = Instant::now();
    let err = try_solve_decomposed(
        &mut g,
        SorParams::for_grid(n, iters),
        &Decomposition::blocks(n, layout),
        &options,
    )
    .expect_err("a killed worker must not produce a clean solve");
    assert_eq!(err, SolveError::WorkerDied { rank: 4 });
    assert!(started.elapsed() < Duration::from_secs(5));
    assert_eq!(g.max_diff(&reference), 0.0);
}

#[test]
fn fault_free_options_still_solve_exactly() {
    let n = 25;
    let iters = 20;
    let mut reference = Grid::laplace_problem(n);
    prodpred_sor::solve_seq(&mut reference, SorParams::for_grid(n, iters));
    let mut g = Grid::laplace_problem(n);
    let strips = partition_equal(n - 2, 3);
    try_solve_decomposed(
        &mut g,
        SorParams::for_grid(n, iters),
        &Decomposition::strips(n, &strips),
        &SolveOptions::reliable(),
    )
    .expect("healthy workers solve");
    assert_eq!(g.max_diff(&reference), 0.0);
}

#[test]
fn full_fault_mix_degrades_gracefully_end_to_end() {
    // Dropout + delay + spikes + corruption + a blackout + a storm, all
    // at once: the experiment still completes every run, reports finite
    // predictions, and accounts for the degradation instead of panicking.
    let faults = FaultConfig::with_intensity(17, 1.0);
    let out = platform2_experiment_with_faults(17, 1200, 6, &faults);
    assert_eq!(out.series.records.len() + out.stats.skipped_runs, 6);
    for r in &out.series.records {
        assert!(r.actual_secs.is_finite() && r.actual_secs > 0.0);
        assert!(r.prediction.stochastic.mean().is_finite());
        assert!(r.prediction.stochastic.half_width().is_finite());
    }
    assert!(
        out.stats.missed_polls > 0,
        "blackout+dropout must drop polls"
    );
    assert!(out.stats.queries > 0);
    assert!(
        out.stats.degraded_queries > 0,
        "faults this heavy must degrade"
    );
}

#[test]
fn constant_history_gives_point_like_stochastic_value() {
    // A pathologically flat history must not produce NaN spreads.
    let platform = platform_with_machine1(Trace::constant(0.0, 1.0, 0.5, 10_000));
    let nws = NwsService::attach(&platform, NwsConfig::default());
    nws.advance_to(&platform, 5_000.0);
    let sv = nws.cpu_stochastic(1).unwrap();
    assert_eq!(sv.mean(), 0.5);
    assert!(sv.half_width() < 1e-12);
    // Horizon scaling on a constant series must also behave.
    let h = nws.cpu_stochastic_for_horizon(1, 120.0);
    if let Some(h) = h {
        assert!(h.mean().is_finite());
        assert!(h.half_width().is_finite());
    }
}
