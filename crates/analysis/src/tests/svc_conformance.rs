//! Conformance between the serving-path model (`svc`) and the real
//! `EpochSwap`/`EpochCache`/`Admission`.
//!
//! The model checker proves the invariants over *model* semantics; these
//! tests close the loop by replaying explored schedules step-for-step
//! against the real types through their entry points (`publish`/`load`,
//! `get`/`insert`/`sweep_shard`, `take_token`), asserting the
//! implementation observes exactly what the model predicts at every
//! step. A proptest drives random walks
//! through the model's enabled transitions so the replayed schedules are
//! not limited to the deterministic harvest.

use super::{Action, Rpc, Svc, SvcConfig, UNBOUNDED};
use crate::mc::{self, TransitionSystem};
use prodpred_core::PredictorConfig;
use prodpred_service::cache::{CacheConfig, EpochCache, QueryKey};
use prodpred_service::resilience::{Admission, AdmissionConfig};
use prodpred_service::swap::EpochSwap;

/// Harvests up to `limit` explored initial-to-terminal schedules for
/// conformance replay.
pub(crate) fn schedules(config: SvcConfig, limit: usize) -> Vec<Vec<Action>> {
    mc::collect_schedules(&Svc::new(config), limit)
}

/// The trait-level instrumentation hook the conformance layer drives.
///
/// Each method is one model step; the real
/// `EpochSwap`/`EpochCache`/`Admission` implement it through their
/// entry points (`publish`, `load`, `get`, `insert`, `sweep_shard`,
/// `take_token`), and [`replay`] asserts after every step that the
/// implementation observed exactly what the model predicts.
pub(crate) trait ServingHarness {
    /// Publish the value `epoch` and refill miss tokens; returns the
    /// epoch the implementation assigned.
    fn publish(&mut self, epoch: u64) -> u64;
    /// Load the published `(epoch, value)` pair.
    fn load(&mut self) -> Option<(u64, u64)>;
    /// Probe `shard` at `epoch`; `Some(value)` on a hit.
    fn probe(&mut self, shard: usize, epoch: u64) -> Option<u64>;
    /// Take a miss token; false = shed.
    fn take_token(&mut self) -> bool;
    /// Insert the epoch-tagged value into `shard` under its lock.
    fn insert(&mut self, shard: usize, epoch: u64);
    /// Sweep one shard forward to `epoch` under its lock.
    fn sweep_shard(&mut self, shard: usize, epoch: u64);
}

/// Replays `schedule` step-for-step against `harness`, walking the
/// model alongside and asserting at every step that the implementation
/// agrees with the model's prediction: published epochs, loaded pairs,
/// hit/miss outcomes, hit values, and token grants. Use
/// `Variant::Correct` configs — the point is to pin the
/// *implementation* to the *proved* model.
///
/// # Errors
///
/// Returns the first disagreement (or model-level violation) rendered
/// as a human-readable message.
pub(crate) fn replay<H: ServingHarness>(
    config: SvcConfig,
    schedule: &[Action],
    harness: &mut H,
) -> Result<(), String> {
    let sys = Svc::new(config);
    let mut state = sys.initial();
    for (i, &action) in schedule.iter().enumerate() {
        let step = sys.describe(&state, action);
        match action {
            Action::Writer => {
                let epoch = u64::from(state.published) + 1;
                let got = harness.publish(epoch);
                if got != epoch {
                    return Err(format!(
                        "conformance step {i} [{step}]: published epoch {got}, model predicts {epoch}"
                    ));
                }
            }
            Action::Bumper(e) => {
                harness.sweep_shard(state.bump[e as usize - 1] as usize, u64::from(e));
            }
            Action::Reader(r) => {
                let rd = state.readers[r as usize];
                match rd.pc {
                    Rpc::Load => {
                        let e = u64::from(state.published);
                        let got = harness.load();
                        if got != Some((e, e)) {
                            return Err(format!(
                                "conformance step {i} [{step}]: loaded {got:?}, model predicts ({e}, {e})"
                            ));
                        }
                    }
                    Rpc::Probe => {
                        let sh = state.shards[rd.qi as usize];
                        let model_hit = sh.epoch == rd.e && sh.entry != 0;
                        let got = harness.probe(rd.qi as usize, u64::from(rd.e));
                        if got.is_some() != model_hit {
                            return Err(format!(
                                "conformance step {i} [{step}]: hit={}, model predicts {model_hit}",
                                got.is_some()
                            ));
                        }
                        if let Some(v) = got {
                            if v != u64::from(sh.entry) {
                                return Err(format!(
                                    "conformance step {i} [{step}]: hit value from epoch {v}, model predicts {}",
                                    sh.entry
                                ));
                            }
                        }
                    }
                    Rpc::AdmitToken => {
                        let model_grants = state.tokens != 0;
                        let got = harness.take_token();
                        if got != model_grants {
                            return Err(format!(
                                "conformance step {i} [{step}]: take_token={got}, model predicts {model_grants}"
                            ));
                        }
                    }
                    Rpc::Insert => harness.insert(rd.qi as usize, u64::from(rd.e)),
                    Rpc::Done => {
                        return Err(format!(
                            "conformance step {i}: schedule drives a finished reader {r}"
                        ))
                    }
                }
            }
        }
        state = sys
            .apply(&state, action)
            .map_err(|v| format!("conformance step {i} [{step}]: model violation: {v}"))?;
    }
    Ok(())
}

/// The real serving stack wired up as a model harness: one
/// `EpochSwap<u64>` (values are their epoch, matching the model's
/// value-is-provenance abstraction), one `EpochCache<u64>` with one
/// pre-located key per shard, and one `Admission` bucket.
struct RealHarness {
    swap: EpochSwap<u64>,
    cache: EpochCache<u64>,
    keys: Vec<QueryKey>,
    admission: Admission,
}

/// The shard `key` routes to in a cache of `shards` shards, read off
/// the public API: the one whose sweep drops the key's entry.
fn shard_of(shards: usize, key: &QueryKey) -> usize {
    let cache = EpochCache::new(CacheConfig {
        capacity: 64,
        shards,
    });
    cache.insert(0, *key, 0u64);
    (0..shards)
        .find(|&shard| {
            cache.sweep_shard(shard, 1);
            cache.get(0, key).is_none()
        })
        .expect("the key lives in one shard")
}

/// Finds one query key per shard by scanning the deterministic
/// fingerprint routing.
fn keys_per_shard(shards: usize) -> Vec<QueryKey> {
    let mut keys: Vec<Option<QueryKey>> = vec![None; shards];
    let mut found = 0;
    for n in 0.. {
        let key = QueryKey::new(1, n, 4, &PredictorConfig::default(), None);
        let shard = shard_of(shards, &key);
        if keys[shard].is_none() {
            keys[shard] = Some(key);
            found += 1;
            if found == shards {
                break;
            }
        }
    }
    keys.into_iter()
        .map(|k| k.expect("every shard keyed"))
        .collect()
}

impl RealHarness {
    fn new(config: SvcConfig) -> Self {
        let cache = EpochCache::new(CacheConfig {
            capacity: 64,
            shards: config.shards,
        });
        let keys = keys_per_shard(config.shards);
        let admission = Admission::new(AdmissionConfig {
            miss_tokens_per_tick: match config.tokens {
                UNBOUNDED => u64::MAX,
                tokens => u64::from(tokens),
            },
        });
        RealHarness {
            swap: EpochSwap::new(),
            cache,
            keys,
            admission,
        }
    }
}

impl ServingHarness for RealHarness {
    fn publish(&mut self, epoch: u64) -> u64 {
        // The ingest tick's order: refill, then publish.
        self.admission.refill();
        self.swap.publish(epoch)
    }

    fn load(&mut self) -> Option<(u64, u64)> {
        self.swap.load().map(|(epoch, v)| (epoch, *v))
    }

    fn probe(&mut self, shard: usize, epoch: u64) -> Option<u64> {
        self.cache.get(epoch, &self.keys[shard]).map(|v| *v)
    }

    fn take_token(&mut self) -> bool {
        self.admission.take_token()
    }

    fn insert(&mut self, shard: usize, epoch: u64) {
        self.cache.insert(epoch, self.keys[shard], epoch);
    }

    fn sweep_shard(&mut self, shard: usize, epoch: u64) {
        self.cache.sweep_shard(shard, epoch);
    }
}

/// Replays every harvested schedule of `config` against a fresh real
/// stack.
fn replay_all(config: SvcConfig, limit: usize) {
    let schedules = schedules(config, limit);
    assert!(!schedules.is_empty(), "harvest must produce schedules");
    for (i, schedule) in schedules.iter().enumerate() {
        let mut harness = RealHarness::new(config);
        replay(config, schedule, &mut harness)
            .unwrap_or_else(|e| panic!("schedule {i} diverged: {e}"));
    }
}

#[test]
fn explored_schedules_replay_on_the_real_stack() {
    replay_all(SvcConfig::new(2, 2, 2), 300);
}

#[test]
fn admission_pressure_schedules_replay_on_the_real_stack() {
    replay_all(SvcConfig::new(2, 1, 2).with_admission(1), 300);
}

#[test]
fn ring_lapping_schedules_replay_on_the_real_stack() {
    // Readers load across a three-epoch horizon.
    replay_all(SvcConfig::new(2, 1, 3), 300);
}

#[test]
fn three_reader_schedules_replay_on_the_real_stack() {
    replay_all(SvcConfig::new(3, 2, 2), 200);
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    /// Drives the model by a random choice sequence: at each state pick
    /// one of the enabled transitions. Returns the realized schedule
    /// (possibly partial — stops at quiescence or when choices run dry).
    fn random_walk(config: SvcConfig, choices: &[usize]) -> Vec<Action> {
        let sys = Svc::new(config);
        let mut state = sys.initial();
        let mut schedule = Vec::new();
        for &c in choices {
            let enabled = sys.enabled(&state);
            if enabled.is_empty() {
                break;
            }
            let action = enabled[c % enabled.len()];
            state = sys.apply(&state, action).expect("correct variant holds");
            schedule.push(action);
        }
        schedule
    }

    proptest! {
        // Any schedule the model can produce, replayed on the real
        // cache/swap/admission, never serves a cross-epoch value and
        // never disagrees with the model: `replay` asserts every hit's
        // value equals the serving epoch's entry, and the model itself
        // errors on a cross-epoch hit.
        #[test]
        fn random_walks_replay_without_cross_epoch_hits(
            choices in proptest::collection::vec(0usize..16, 1..160),
        ) {
            let config = SvcConfig::new(2, 2, 2);
            let schedule = random_walk(config, &choices);
            let mut harness = RealHarness::new(config);
            prop_assert!(replay(config, &schedule, &mut harness).is_ok());
        }

        // Same property under admission pressure, where the shed path
        // is reachable.
        #[test]
        fn pressured_walks_replay_without_divergence(
            choices in proptest::collection::vec(0usize..16, 1..160),
        ) {
            let config = SvcConfig::new(2, 2, 2).with_admission(1);
            let schedule = random_walk(config, &choices);
            let mut harness = RealHarness::new(config);
            prop_assert!(replay(config, &schedule, &mut harness).is_ok());
        }
    }
}
