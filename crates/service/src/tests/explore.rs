//! Every interleaving of the serving path, run on the real
//! `EpochSwap<u64>`, `EpochCache<u64>` and `Admission` with the
//! `prodpred-analysis` kernel's breadth-first `mc::explore`. DESIGN.md
//! §14 has the whole argument.
//!
//! The writer refills the miss tokens and publishes epochs `1..=E`; one
//! bump task per published epoch sweeps the shards in order; each reader
//! runs one query per shard: Load, Probe (a hit ends the query), admit
//! (`try_admit_miss`; a refusal sheds it), Insert. Every value is the
//! epoch that produced it. Each step is one whole critical section of the
//! real code, and two on one lock never overlap, so interleaving whole
//! calls covers every sequentially consistent interleaving the locks
//! allow; `racing_misses_take_exactly_the_budget` races the `Relaxed`
//! token counter on real threads.
//!
//! A state is the schedule plus an observation of the objects after it;
//! only the observation is hashed and compared, and `apply` re-runs the
//! schedule on fresh objects. The checks' counters stay out of the
//! observation, so they split no state. Each check has a [`Seed`], a bug
//! planted in the scripts, that the explorer must refute.

use crate::cache::{CacheConfig, EpochCache, QueryKey};
use crate::resilience::{Admission, AdmissionConfig};
use crate::swap::EpochSwap;
use prodpred_analysis::mc::{self, ExploreStats, TransitionSystem};
use prodpred_core::PredictorConfig;
use std::hash::{Hash, Hasher};

/// A bug planted in the scripts for a negative control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seed {
    /// The scripts as the service runs them.
    None,
    /// The TOCTOU: a reader inserts its value under the shard's current
    /// epoch, read through the view, as an insert without the
    /// shard-lock epoch compare would.
    StaleInsert,
    /// The Probe reads the shard through the view, so no counter moves.
    UncountedProbe,
    /// A reader inserts after a miss without taking a token.
    SkipAdmission,
    /// The writer publishes the previous epoch's value.
    OffByOnePublish,
}

/// One exploration's bounds and seed.
#[derive(Debug, Clone, Copy)]
struct Config {
    readers: usize,
    /// Cache shards, one query key each.
    shards: usize,
    /// Epochs the writer publishes.
    epochs: u64,
    /// Miss tokens per tick; `u64::MAX` is the unbounded bucket.
    tokens: u64,
    seed: Seed,
}

impl Config {
    const fn new(readers: usize, shards: usize, epochs: u64) -> Self {
        Self {
            readers,
            shards,
            epochs,
            tokens: u64::MAX,
            seed: Seed::None,
        }
    }

    const fn with_tokens(self, tokens: u64) -> Self {
        Self { tokens, ..self }
    }

    const fn with_seed(self, seed: Seed) -> Self {
        Self { seed, ..self }
    }
}

/// A reader's program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Pc {
    Load,
    Probe,
    Admit,
    Insert,
    Done,
}

/// A reader's script state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Reader {
    pc: Pc,
    /// The query under way, which is also its shard.
    query: usize,
    /// The epoch the query loaded (0 between queries).
    epoch: u64,
}

impl Reader {
    /// Ends the query and lines up the next one, if any.
    fn finish(&mut self, shards: usize) {
        self.query += 1;
        self.epoch = 0;
        self.pc = if self.query == shards {
            Pc::Done
        } else {
            Pc::Load
        };
    }
}

/// One scheduling choice: which script runs its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Writer,
    /// The bump task of this epoch.
    Bump(u64),
    Reader(usize),
}

/// What the explorer sees of the real objects and the scripts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Observation {
    published: u64,
    /// Each shard's epoch and cached values.
    shards: Vec<(u64, Vec<u64>)>,
    tokens: u64,
    /// Shards each published epoch's bump task has swept.
    bumps: Vec<usize>,
    /// In reader order; sorted only to dedup.
    readers: Vec<Reader>,
}

/// A schedule and what it leaves. Equal and hashed by the observation
/// alone.
#[derive(Debug, Clone)]
struct State {
    schedule: Vec<Step>,
    seen: Observation,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.seen == other.seen
    }
}

impl Eq for State {}

impl Hash for State {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.seen.hash(state);
    }
}

/// The real objects and the scripts running on them.
struct World<'a> {
    config: Config,
    keys: &'a [QueryKey],
    swap: EpochSwap<u64>,
    cache: EpochCache<u64>,
    admission: Admission,
    bumps: Vec<usize>,
    readers: Vec<Reader>,
    /// Refills so far.
    ticks: usize,
    /// The tick each reader's token came from, until it inserts.
    token_tick: Vec<Option<usize>>,
    /// Inserts per tick their token came from.
    inserts: Vec<u64>,
    /// Refusals `try_admit_miss` returned.
    refusals: u64,
}

impl World<'_> {
    fn run(&mut self, step: Step) -> Result<(), String> {
        match step {
            Step::Writer => {
                let epoch = self.swap.epoch() + 1;
                let value = match self.config.seed {
                    Seed::OffByOnePublish => epoch - 1,
                    _ => epoch,
                };
                self.admission.refill();
                self.ticks += 1;
                self.swap.publish(value);
            }
            Step::Bump(epoch) => {
                let swept = &mut self.bumps[epoch as usize - 1];
                self.cache.sweep_shard(*swept, epoch);
                *swept += 1;
            }
            Step::Reader(r) => self.read(r)?,
        }
        Ok(())
    }

    fn read(&mut self, r: usize) -> Result<(), String> {
        let shards = self.config.shards;
        let seed = self.config.seed;
        let mut reader = self.readers[r];
        let key = &self.keys[reader.query];
        match reader.pc {
            Pc::Load => {
                let (epoch, value) = self.swap.load().ok_or("loaded before any publish")?;
                if *value != epoch {
                    return Err(format!(
                        "torn-pair: reader {r} loaded value {value} under epoch {epoch}"
                    ));
                }
                reader.epoch = epoch;
                reader.pc = Pc::Probe;
            }
            Pc::Probe => {
                let before = self.cache.stats();
                let hit = if seed == Seed::UncountedProbe {
                    let (epoch, values) = self.cache.shard_view(reader.query);
                    values.first().copied().filter(|_| epoch == reader.epoch)
                } else {
                    self.cache.get(reader.epoch, key).map(|value| *value)
                };
                let after = self.cache.stats();
                let probes = (after.hits + after.misses) - (before.hits + before.misses);
                let hits = after.hits - before.hits;
                if probes != 1 || (hits == 1) != hit.is_some() {
                    return Err(format!(
                        "miscounted-probe: reader {r}'s probe counted {probes} probe(s) and {hits} hit(s), get returned {hit:?}"
                    ));
                }
                match hit {
                    Some(value) if value != reader.epoch => {
                        return Err(format!(
                            "cross-epoch-hit: reader {r} hit a value from epoch {value} while serving epoch {}",
                            reader.epoch
                        ));
                    }
                    Some(_) => reader.finish(shards),
                    None if seed == Seed::SkipAdmission => reader.pc = Pc::Insert,
                    None => reader.pc = Pc::Admit,
                }
            }
            Pc::Admit => {
                if self.admission.try_admit_miss().is_some() {
                    self.token_tick[r] = Some(self.ticks);
                    reader.pc = Pc::Insert;
                } else {
                    self.refusals += 1;
                    reader.finish(shards);
                }
                if self.admission.shed() != self.refusals {
                    return Err(format!(
                        "uncounted-shed: {} refusal(s), shed counts {}",
                        self.refusals,
                        self.admission.shed()
                    ));
                }
            }
            Pc::Insert => {
                let epoch = match seed {
                    Seed::StaleInsert => self.cache.shard_view(reader.query).0,
                    _ => reader.epoch,
                };
                self.cache.insert(epoch, *key, reader.epoch);
                let tick = self.token_tick[r].take().unwrap_or(self.ticks);
                self.inserts[tick] += 1;
                let budget = self.config.tokens;
                if self.inserts[tick] > budget {
                    return Err(format!(
                        "over-budget: {} inserts on tick {tick}'s tokens, {budget} per tick",
                        self.inserts[tick]
                    ));
                }
                reader.finish(shards);
            }
            Pc::Done => unreachable!("a finished reader is never scheduled"),
        }
        self.readers[r] = reader;
        Ok(())
    }

    fn observe(&self) -> Observation {
        Observation {
            published: self.swap.epoch(),
            shards: (0..self.config.shards)
                .map(|i| self.cache.shard_view(i))
                .collect(),
            tokens: self.admission.tokens(),
            bumps: self.bumps.clone(),
            readers: self.readers.clone(),
        }
    }
}

/// One key per shard, found by scanning the fingerprint routing of a
/// cache with `shards` shards.
fn keys_per_shard(shards: usize) -> Vec<QueryKey> {
    let cache: EpochCache<u64> = EpochCache::new(CacheConfig {
        capacity: 64,
        shards,
    });
    let mut keys: Vec<Option<QueryKey>> = vec![None; shards];
    for n in 0.. {
        let key = QueryKey::new(1, n, 4, &PredictorConfig::default(), None);
        keys[cache.shard_index(&key)].get_or_insert(key);
        if keys.iter().all(Option::is_some) {
            break;
        }
    }
    keys.into_iter().flatten().collect()
}

/// The serving path under one [`Config`], as a transition system.
struct Explorer {
    config: Config,
    keys: Vec<QueryKey>,
}

impl Explorer {
    fn new(config: Config) -> Self {
        Self {
            config,
            keys: keys_per_shard(config.shards),
        }
    }

    /// Fresh objects with the scripts at their start.
    fn world(&self) -> World<'_> {
        let c = self.config;
        World {
            config: c,
            keys: &self.keys,
            swap: EpochSwap::new(),
            cache: EpochCache::new(CacheConfig {
                capacity: 64,
                shards: c.shards,
            }),
            admission: Admission::new(AdmissionConfig {
                miss_tokens_per_tick: c.tokens,
            }),
            bumps: vec![0; c.epochs as usize],
            readers: vec![
                Reader {
                    pc: Pc::Load,
                    query: 0,
                    epoch: 0,
                };
                c.readers
            ],
            ticks: 0,
            token_tick: vec![None; c.readers],
            inserts: vec![0; c.epochs as usize + 1],
            refusals: 0,
        }
    }

    /// Quiescence must mean every script finished and every shard at the
    /// last epoch, holding only its values.
    fn check_terminal(&self, state: &State) -> Result<(), String> {
        let c = self.config;
        let seen = &state.seen;
        let writer_done = seen.published == c.epochs;
        let bumps_done = seen.bumps.iter().all(|&b| b == c.shards);
        let readers_done = seen.readers.iter().all(|r| r.pc == Pc::Done);
        if !(writer_done && bumps_done && readers_done) {
            return Err(format!(
                "deadlock: quiescent with unfinished scripts (writer done: {writer_done}, bumps done: {bumps_done}, readers done: {readers_done})"
            ));
        }
        for (k, (epoch, values)) in seen.shards.iter().enumerate() {
            if *epoch != c.epochs {
                return Err(format!(
                    "sweep-divergence: shard {k} ended at epoch {epoch}, expected {}",
                    c.epochs
                ));
            }
            if let Some(stale) = values.iter().find(|&v| v != epoch) {
                return Err(format!(
                    "stale-entry: shard {k} still holds a value from epoch {stale} at epoch {epoch}"
                ));
            }
        }
        Ok(())
    }
}

impl TransitionSystem for Explorer {
    type State = State;
    type Action = Step;

    fn initial(&self) -> State {
        State {
            schedule: Vec::new(),
            seen: self.world().observe(),
        }
    }

    /// The writer first, then the bump tasks by epoch, then the readers
    /// by index. A reader waits for the first publish to load.
    fn enabled(&self, state: &State) -> Vec<Step> {
        let seen = &state.seen;
        let mut steps = Vec::new();
        if seen.published < self.config.epochs {
            steps.push(Step::Writer);
        }
        for epoch in 1..=seen.published {
            if seen.bumps[epoch as usize - 1] < self.config.shards {
                steps.push(Step::Bump(epoch));
            }
        }
        for (r, reader) in seen.readers.iter().enumerate() {
            match reader.pc {
                Pc::Done => {}
                Pc::Load if seen.published == 0 => {}
                _ => steps.push(Step::Reader(r)),
            }
        }
        steps
    }

    fn apply(&self, state: &State, step: Step) -> Result<State, String> {
        let mut world = self.world();
        for &done in &state.schedule {
            world.run(done)?;
        }
        world.run(step)?;
        let mut schedule = state.schedule.clone();
        schedule.push(step);
        Ok(State {
            schedule,
            seen: world.observe(),
        })
    }

    fn describe(&self, state: &State, step: Step) -> String {
        let seen = &state.seen;
        match step {
            Step::Writer => format!(
                "writer: refills the tokens and publishes epoch {}",
                seen.published + 1
            ),
            Step::Bump(epoch) => format!(
                "bump({epoch}): sweeps shard {}",
                seen.bumps[epoch as usize - 1]
            ),
            Step::Reader(r) => {
                let reader = seen.readers[r];
                let (shard, epoch) = (reader.query, reader.epoch);
                match reader.pc {
                    Pc::Load => format!("reader {r}: loads epoch {}", seen.published),
                    Pc::Probe => format!("reader {r}: probes shard {shard} at epoch {epoch}"),
                    Pc::Admit if seen.tokens == 0 => format!("reader {r}: no token, sheds"),
                    Pc::Admit => format!("reader {r}: takes a miss token"),
                    Pc::Insert => {
                        format!("reader {r}: inserts epoch {epoch}'s value into shard {shard}")
                    }
                    Pc::Done => format!("reader {r}: done"),
                }
            }
        }
    }

    /// Readers run one script against state that never names a reader,
    /// so sorting them picks one state of each symmetry class.
    fn canonical(&self, state: &State) -> State {
        let mut seen = state.seen.clone();
        seen.readers.sort_unstable();
        State {
            schedule: Vec::new(),
            seen,
        }
    }
}

/// Explores every interleaving of `config`.
fn check(config: Config) -> ExploreStats {
    let explorer = Explorer::new(config);
    mc::explore(&explorer, |s| explorer.check_terminal(s))
}

/// Explores `config`, a correct configuration, and checks its `(states,
/// transitions, terminals)` with no counterexample.
fn pin(config: Config, counts: (u64, u64, u64)) {
    let stats = check(config);
    println!(
        "explore {config:?}: {} states, {} transitions, {} terminals, depth {}",
        stats.states, stats.transitions, stats.terminals, stats.max_depth
    );
    assert!(stats.holds(), "{:?}", stats.violation);
    assert_eq!((stats.states, stats.transitions, stats.terminals), counts);
}

// Readers × shards × epochs, unbounded or one token.

#[test]
fn default_bounds_counts_are_pinned() {
    pin(Config::new(2, 2, 2), (2_018, 6_172, 4));
}

#[test]
fn admission_pressure_counts_are_pinned() {
    pin(Config::new(2, 2, 2).with_tokens(1), (2_186, 6_775, 4));
}

#[test]
fn lapping_the_ring_counts_are_pinned() {
    pin(Config::new(2, 1, 3), (809, 2_625, 2));
}

#[test]
fn three_reader_counts_are_pinned() {
    pin(Config::new(3, 2, 2), (12_093, 47_698, 4));
    pin(Config::new(3, 2, 2).with_tokens(1), (11_508, 46_103, 4));
    pin(Config::new(3, 1, 3), (3_424, 14_008, 2));
}

/// `seed` must be refuted by a violation of `kinds` whose minimal trace
/// has `len` steps.
fn refute(config: Config, kinds: &[&str], len: usize) {
    let v = check(config).violation;
    let v = v.unwrap_or_else(|| panic!("{:?} must be refuted", config.seed));
    println!(
        "explore {config:?}: refuted by `{}` in {} steps",
        v.kind,
        v.trace.len()
    );
    for (i, step) in v.trace.iter().enumerate() {
        println!("  {i:>3}. {step}");
    }
    assert!(
        kinds.iter().any(|k| v.kind.starts_with(k)),
        "{:?}: expected one of {kinds:?}, got `{}`",
        config.seed,
        v.kind
    );
    assert_eq!(
        v.trace.len(),
        len,
        "{:?}: minimal trace length",
        config.seed
    );
}

#[test]
fn the_seeded_toctou_is_refuted_in_nine_steps() {
    refute(
        Config::new(2, 2, 2).with_seed(Seed::StaleInsert),
        &["cross-epoch-hit", "stale-entry"],
        9,
    );
}

#[test]
fn each_check_refutes_its_seeded_control() {
    refute(
        Config::new(2, 2, 2).with_seed(Seed::UncountedProbe),
        &["miscounted-probe"],
        3,
    );
    refute(
        Config::new(2, 2, 2)
            .with_tokens(1)
            .with_seed(Seed::SkipAdmission),
        &["over-budget"],
        7,
    );
    refute(
        Config::new(2, 2, 2).with_seed(Seed::OffByOnePublish),
        &["torn-pair"],
        2,
    );
}
