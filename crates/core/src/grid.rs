//! Deterministic sharded simulation of many SOR tenants on a
//! [`GridPlatform`].
//!
//! This is the throughput layer of the 1000×-scale path: hundreds of
//! concurrent tenants, each a distributed SOR job on a block of grid
//! machines, processed by per-shard [`EventQueue`]s fanned over the work
//! pool and merged index-ordered.
//!
//! Determinism discipline (the same one as `monte_carlo_par`): the shard
//! count is **part of the configuration**, not the thread count. Tenant
//! `t` belongs to shard `t % shards`; a shard owns a contiguous machine
//! range and an arrival stream derived purely from `(seed, shard)`.
//! Every shard's computation is a pure function of its inputs, so
//! results — and the order-sensitive [`GridSimResult::digest`] — are
//! bit-identical at 1, 2, 4, or 8 pool threads.

use prodpred_simgrid::faults::{mix, unit};
use prodpred_simgrid::grid::GridPlatform;
use prodpred_simgrid::EventQueue;
use prodpred_sor::{partition_equal, simulate_with, DistSorConfig, Part};
use serde::{Deserialize, Serialize};

/// The job every tenant runs: one distributed SOR solve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TenantSpec {
    /// Grid dimension `N` (the problem is `N × N`).
    pub n: usize,
    /// Red+black iterations.
    pub iterations: usize,
    /// Machines per tenant job.
    pub procs: usize,
}

/// Configuration of one sharded grid simulation.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct GridSimConfig {
    /// Number of tenant jobs.
    pub tenants: usize,
    /// Number of shards — part of the *configuration*: changing it changes
    /// the (valid) realization, changing the thread count does not.
    pub shards: usize,
    /// The job every tenant runs.
    pub tenant: TenantSpec,
    /// Master seed for arrival streams and machine-block placement.
    pub seed: u64,
    /// Mean inter-arrival gap within a shard, seconds (exponential).
    pub mean_arrival_gap: f64,
}

/// Outcome of a sharded grid simulation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridSimResult {
    /// Arrival time of each tenant, indexed by tenant.
    pub tenant_start: Vec<f64>,
    /// Wall-clock duration of each tenant's job, indexed by tenant.
    pub tenant_secs: Vec<f64>,
    /// Simulation events processed: queue pops plus per-phase compute and
    /// transfer integrations — the numerator of the bench's events/s.
    pub events: u64,
    /// Latest tenant finish time.
    pub makespan: f64,
    /// Peak number of concurrently running tenants across the whole grid.
    pub peak_concurrency: usize,
    /// Order-sensitive digest of every tenant's `(start, secs)` bits —
    /// two runs agree on this iff they agree bit-for-bit.
    pub digest: u64,
}

/// What one shard reports back before the index-ordered merge.
struct ShardOut {
    /// Global tenant indices this shard owns, ascending.
    tenants: Vec<usize>,
    start: Vec<f64>,
    secs: Vec<f64>,
    events: u64,
}

/// Per-shard event payloads.
enum Ev {
    /// Local tenant index arrives.
    Arrive(usize),
    /// A tenant completes — popping it advances the clock and the event
    /// count; the result was recorded at arrival.
    Complete,
}

/// Runs `cfg.tenants` SOR jobs on `grid`, sharded `cfg.shards` ways and
/// fanned over `threads` pool workers (0 = auto). Bit-identical at any
/// thread count; see the module docs for the argument.
///
/// # Panics
///
/// Panics if there are no tenants or shards, the tenant job is degenerate
/// (`n < 3`, zero iterations or procs), the arrival gap is not positive,
/// or any shard's machine range is smaller than `tenant.procs`.
pub fn simulate_grid_sharded(
    grid: &GridPlatform,
    cfg: &GridSimConfig,
    threads: usize,
) -> GridSimResult {
    assert!(cfg.tenants > 0, "need at least one tenant");
    assert!(cfg.shards > 0, "need at least one shard");
    assert!(cfg.tenant.n >= 3, "SOR grid needs interior rows");
    assert!(cfg.tenant.iterations > 0, "tenant needs iterations");
    assert!(cfg.tenant.procs > 0, "tenant needs machines");
    assert!(cfg.mean_arrival_gap > 0.0, "arrival gap must be positive");
    let machines = grid.len();
    for s in 0..cfg.shards {
        let span = (s + 1) * machines / cfg.shards - s * machines / cfg.shards;
        assert!(
            span >= cfg.tenant.procs,
            "shard {s} has {span} machines, tenant needs {}",
            cfg.tenant.procs
        );
    }

    let shard_ids: Vec<usize> = (0..cfg.shards).collect();
    let outs = prodpred_pool::parallel_map(&shard_ids, threads, |_, &s| run_shard(grid, cfg, s));

    // Index-ordered merge: tenant vectors keyed by global tenant index.
    let mut tenant_start = vec![0.0f64; cfg.tenants];
    let mut tenant_secs = vec![0.0f64; cfg.tenants];
    let mut events = 0u64;
    for out in &outs {
        for (k, &t) in out.tenants.iter().enumerate() {
            tenant_start[t] = out.start[k];
            tenant_secs[t] = out.secs[k];
        }
        events += out.events;
    }

    let makespan = tenant_start
        .iter()
        .zip(&tenant_secs)
        .map(|(s, d)| s + d)
        .fold(f64::NEG_INFINITY, f64::max);

    // Global peak concurrency: sweep all arrival/finish edges in time
    // order, completions first on ties.
    let mut edges: Vec<(f64, i32)> = Vec::with_capacity(2 * cfg.tenants);
    for t in 0..cfg.tenants {
        edges.push((tenant_start[t], 1));
        edges.push((tenant_start[t] + tenant_secs[t], -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut live = 0i64;
    let mut peak = 0i64;
    for (_, d) in edges {
        live += i64::from(d);
        peak = peak.max(live);
    }

    let mut digest = mix(cfg.seed ^ 0x6772_6964_7369_6d21);
    for t in 0..cfg.tenants {
        digest = mix(digest ^ tenant_start[t].to_bits());
        digest = mix(digest ^ tenant_secs[t].to_bits());
    }

    GridSimResult {
        tenant_start,
        tenant_secs,
        events,
        makespan,
        peak_concurrency: peak.max(0) as usize,
        digest,
    }
}

/// Simulates one shard: a pure function of `(grid, cfg, shard)`.
fn run_shard(grid: &GridPlatform, cfg: &GridSimConfig, shard: usize) -> ShardOut {
    let machines = grid.len();
    let lo = shard * machines / cfg.shards;
    let hi = (shard + 1) * machines / cfg.shards;
    let span = hi - lo;
    let shard_seed = prodpred_pool::derive_seed(cfg.seed, shard as u64);
    let tenants: Vec<usize> = (0..cfg.tenants)
        .filter(|t| t % cfg.shards == shard)
        .collect();
    let parts = Part::strips(
        &partition_equal(cfg.tenant.n - 2, cfg.tenant.procs),
        cfg.tenant.n,
    );

    // Pure arrival stream: the k-th gap depends only on (shard seed, k).
    let mut queue = EventQueue::new();
    let mut t_arr = 0.0f64;
    for k in 0..tenants.len() {
        let u = unit(mix(shard_seed ^ mix(k as u64 + 1)));
        t_arr += -cfg.mean_arrival_gap * (1.0 - u).ln();
        queue.schedule(t_arr, Ev::Arrive(k));
    }

    let mut start = vec![0.0f64; tenants.len()];
    let mut secs = vec![0.0f64; tenants.len()];
    let mut events = 0u64;
    while let Some((now, ev)) = queue.pop() {
        events += 1;
        match ev {
            Ev::Arrive(k) => {
                // Machine block: contiguous `procs` machines inside the
                // shard's range, placed purely from (shard seed, k).
                let slots = span - cfg.tenant.procs + 1;
                let base = lo
                    + (mix(shard_seed ^ 0x626c_6f63_6b21 ^ mix(k as u64 + 1)) % slots as u64)
                        as usize;
                // Both closures tally into one counter; `Cell` lets the
                // borrow checker see them as shared captures.
                let work_events = std::cell::Cell::new(0u64);
                let r = simulate_with(
                    &parts,
                    DistSorConfig::new(cfg.tenant.n, cfg.tenant.iterations, now),
                    |i, part, clock| {
                        work_events.set(work_events.get() + 1);
                        let elems = part.elements as f64 / 2.0;
                        grid.compute_secs(base + i, elems, clock)
                    },
                    |bytes, t| {
                        work_events.set(work_events.get() + 1);
                        grid.transfer_secs(bytes, t)
                    },
                );
                events += work_events.get();
                start[k] = now;
                secs[k] = r.total_secs;
                queue.schedule(now + r.total_secs, Ev::Complete);
            }
            Ev::Complete => {}
        }
    }

    ShardOut {
        tenants,
        start,
        secs,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (GridPlatform, GridSimConfig) {
        let grid = GridPlatform::production(64, 5, 600.0, 1);
        let cfg = GridSimConfig {
            tenants: 24,
            shards: 4,
            tenant: TenantSpec {
                n: 120,
                iterations: 4,
                procs: 3,
            },
            seed: 99,
            mean_arrival_gap: 10.0,
        };
        (grid, cfg)
    }

    #[test]
    fn sharded_simulation_is_bit_identical_across_thread_counts() {
        let (grid, cfg) = small();
        let one = simulate_grid_sharded(&grid, &cfg, 1);
        for threads in [2usize, 4, 8] {
            let many = simulate_grid_sharded(&grid, &cfg, threads);
            assert_eq!(one.digest, many.digest, "{threads} threads");
            assert_eq!(one.tenant_secs, many.tenant_secs);
            assert_eq!(one.tenant_start, many.tenant_start);
            assert_eq!(one.events, many.events);
            assert_eq!(one.peak_concurrency, many.peak_concurrency);
        }
    }

    #[test]
    fn every_tenant_runs_for_positive_time() {
        let (grid, cfg) = small();
        let r = simulate_grid_sharded(&grid, &cfg, 0);
        assert_eq!(r.tenant_secs.len(), 24);
        for (t, &d) in r.tenant_secs.iter().enumerate() {
            assert!(d > 0.0, "tenant {t} ran for {d}");
        }
        assert!(r.events > 24, "events {}", r.events);
        assert!(r.peak_concurrency >= 1);
        let slowest = r
            .tenant_start
            .iter()
            .zip(&r.tenant_secs)
            .map(|(s, d)| s + d)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(r.makespan, slowest);
    }

    #[test]
    fn shard_count_is_part_of_the_configuration() {
        // Different shard counts give different (both valid) realizations:
        // the digest is honest about what it pins.
        let (grid, cfg) = small();
        let mut cfg8 = cfg;
        cfg8.shards = 8;
        let a = simulate_grid_sharded(&grid, &cfg, 1);
        let b = simulate_grid_sharded(&grid, &cfg8, 1);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn seeds_change_the_realization() {
        let (grid, cfg) = small();
        let mut cfg2 = cfg;
        cfg2.seed = 100;
        let a = simulate_grid_sharded(&grid, &cfg, 1);
        let b = simulate_grid_sharded(&grid, &cfg2, 1);
        assert_ne!(a.digest, b.digest);
        assert_ne!(a.tenant_start, b.tenant_start);
    }

    #[test]
    #[should_panic(expected = "shard 0 has")]
    fn rejects_shards_smaller_than_a_tenant_job() {
        let grid = GridPlatform::production(16, 1, 300.0, 1);
        let cfg = GridSimConfig {
            tenants: 4,
            shards: 8,
            tenant: TenantSpec {
                n: 50,
                iterations: 2,
                procs: 4,
            },
            seed: 1,
            mean_arrival_gap: 5.0,
        };
        simulate_grid_sharded(&grid, &cfg, 1);
    }
}
