//! Pins everything a service core serves over its whole simulated day,
//! clamp included, as one digest per core: every `query_uncached`
//! answer (or error) for 96 replay requests, both platforms' serving
//! states, every `ingest_tick` outcome and the final `stats()`. How the
//! core generates the load its sensors read is its own business; what
//! they read, and so every answer, must not move by a bit.
//!
//! Three cores: the default one ticked past the 4 h clamp, a faulted one
//! with a short horizon, and a faulted one whose horizon is not a whole
//! number of trace steps.

use prodpred_service::{request_for, ServiceConfig, ServiceCore};
use prodpred_simgrid::faults::FaultConfig;

/// Replay requests asked at every sampled tick.
const REQUESTS: u64 = 96;

/// FNV-1a, folded over the log as it is written.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, line: &str) {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Everything the core answers right now: the serving states, then every
/// replay request through the uncached path.
fn observe(core: &ServiceCore, digest: &mut Digest) {
    for id in [1, 2] {
        digest.write(&format!("serving {id} {:?}", core.serving(id)));
    }
    for i in 0..REQUESTS {
        let line = match core.query_uncached(&request_for(7, i)) {
            Ok(r) => serde_json::to_string(&r).unwrap(),
            Err(e) => format!("{e:?}"),
        };
        digest.write(&line);
    }
}

/// Runs `ticks` ingest ticks, observing after construction, on every
/// 20th tick and on every tick from `dense_from` on.
fn run(config: ServiceConfig, ticks: u64, dense_from: u64) -> String {
    let core = ServiceCore::new(config);
    let mut digest = Digest::new();
    observe(&core, &mut digest);
    for tick in 1..=ticks {
        let outcomes = core.ingest_tick();
        digest.write(&format!("{outcomes:?}"));
        if tick % 20 == 0 || tick >= dense_from {
            observe(&core, &mut digest);
        }
    }
    digest.write(&serde_json::to_string(&core.stats()).unwrap());
    format!("{:016x}", digest.0)
}

#[test]
fn the_default_day_is_pinned_past_the_clamp() {
    // Warm-up ends at 600 s and the clock clamps at 14 400 s: tick 2 760.
    let digest = run(ServiceConfig::default(), 2_800, 2_750);
    assert_eq!(digest, "44075d052930b26c");
}

#[test]
fn a_faulted_short_horizon_is_pinned_past_the_clamp() {
    // Retries back the clock across the blackouts ahead of the ticks, so
    // it clamps at 2 000 s inside tick 238, not 280.
    let config = ServiceConfig {
        seed: 9,
        horizon: 2_000.0,
        fault: Some(FaultConfig::with_intensity(3, 1.0)),
        ..ServiceConfig::default()
    };
    assert_eq!(run(config, 320, 228), "5d76112474c5b9e8");
}

#[test]
fn a_fractional_horizon_is_pinned_past_the_clamp() {
    // Clamps at 3 001.5 s, half a trace step past the last whole one,
    // inside tick 481.
    let config = ServiceConfig {
        seed: 11,
        horizon: 3_001.5,
        fault: Some(FaultConfig::with_intensity(3, 0.5)),
        ..ServiceConfig::default()
    };
    assert_eq!(run(config, 500, 470), "624e6e84a3d31708");
}
