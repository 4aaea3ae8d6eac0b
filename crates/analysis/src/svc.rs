//! Bounded, exhaustive model checking of the serving path.
//!
//! The prediction path shares memory between threads: `EpochSwap`
//! publishes each snapshot as one `(epoch, Arc)` pair under a `RwLock`,
//! `EpochCache` guards its shards with per-shard epochs that `bump_to`
//! sweeps forward one shard lock at a time, and `Admission` hands out
//! miss tokens from a per-tick counter. Race regression tests
//! *sample* their schedules by spawning threads; this module
//! *enumerates* them instead: an abstract model of exactly those steps,
//! explored across every interleaving at small bounds on the shared
//! [`mc`] kernel.
//!
//! ## The model
//!
//! One writer thread publishes epochs `1..=epochs`, each in one step —
//! store the `(epoch, snapshot)` pair, refill admission tokens. (The
//! ingest tick refills before it publishes, outside the swap's write
//! lock; tokens carry no epoch, so no invariant below can tell the two
//! orders apart.) `bump_to(e)` runs as its own task per published
//! epoch: one sweep step per shard under that shard's lock. N identical
//! reader threads each run one query per shard: load the
//! `(epoch, snapshot)` pair, probe the shard (hit ends the query), and
//! on a miss take an admission token (none left: shed) and insert under
//! the shard lock.
//!
//! Values are abstracted to the epoch that produced them, so every
//! cached or loaded value carries its provenance and the checker can
//! compare it against the epoch the reader is serving.
//!
//! `ServiceCore::query` loads and probes under one hold of the swap's
//! read guard (`EpochSwap::with`), so no publish can fall between its
//! load and its probe. That only removes interleavings the model
//! explores with `Load` and `Probe` as separate steps: every schedule
//! of the implementation is still a schedule of the model, and the
//! invariants proved over the model still cover it.
//!
//! ## Checked invariants
//!
//! * **no cross-epoch hits** — a cache hit never returns a value
//!   inserted under a different epoch (the PR-7 TOCTOU, now a theorem at
//!   model scale);
//! * **convergence** — at quiescence every thread has finished and every
//!   shard sits at the final epoch with no stale entry surviving.
//!
//! ## Negative control
//!
//! [`Variant::NoShardEpochCheck`] seeds the TOCTOU back into the model
//! by dropping the shard-lock epoch compare on insert. It must produce a
//! violation, and [`minimal_counterexample`] reconstructs the shortest
//! schedule that exhibits it.
//!
//! ## Conformance
//!
//! The model would prove nothing if it drifted from the implementation,
//! so this module's unit tests (`src/tests/svc_conformance.rs`) walk
//! explored schedules step-for-step against a harness that the real
//! `EpochSwap`/`EpochCache`/`Admission` implement through their public
//! entry points, asserting at every step that the implementation
//! observes exactly what the model predicts (published epochs, loaded
//! pairs, hit/miss, token grants).

use crate::mc::{self, ExploreStats, TransitionSystem, Violation};

/// Upper bound on reader threads the fixed-size state encoding supports.
pub(crate) const MAX_READERS: usize = 3;
/// Upper bound on cache shards (one query key per shard).
pub(crate) const MAX_SHARDS: usize = 3;
/// Upper bound on published epochs.
pub const MAX_EPOCHS: usize = 3;
/// Sentinel for an unbounded token pool.
pub const UNBOUNDED: u8 = u8::MAX;

/// Which semantics the model runs: the faithful protocol or the seeded
/// bug of the negative control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The protocol as implemented.
    Correct,
    /// Insert skips the under-shard-lock epoch compare (the PR-7
    /// TOCTOU): a stale insert can land after a bump's sweep.
    NoShardEpochCheck,
}

/// One checker configuration: thread counts, horizon, token budget, and
/// the model variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SvcConfig {
    /// Reader threads (1..=3). Readers are identical, so the kernel's
    /// symmetry reduction sorts them into a canonical order.
    pub readers: usize,
    /// Cache shards, one query key each (1..=3).
    pub shards: usize,
    /// Epochs the writer publishes (1..=3).
    pub epochs: usize,
    /// Miss tokens refilled at each publish; [`UNBOUNDED`] disables the
    /// token gate.
    pub tokens: u8,
    /// Faithful protocol or the seeded negative control.
    pub variant: Variant,
}

impl SvcConfig {
    /// A correct-variant configuration with unbounded admission.
    pub fn new(readers: usize, shards: usize, epochs: usize) -> Self {
        Self {
            readers,
            shards,
            epochs,
            tokens: UNBOUNDED,
            variant: Variant::Correct,
        }
    }

    /// Bounds the admission token pool.
    pub fn with_admission(mut self, tokens: u8) -> Self {
        self.tokens = tokens;
        self
    }

    /// Selects a model variant (negative controls).
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }
}

/// One cache shard: its epoch and the single keyed entry, holding the
/// epoch tag of the cached value (0 = empty).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shard {
    epoch: u8,
    entry: u8,
}

/// A reader thread's program counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Rpc {
    /// Load the published `(epoch, snapshot)` pair (blocked until the
    /// first publish).
    Load,
    /// Probe the query's shard under the shard lock.
    Probe,
    /// Take a miss token (CAS loop).
    AdmitToken,
    /// Insert under the shard lock.
    Insert,
    /// Every query finished.
    Done,
}

/// One reader thread's local state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Reader {
    pc: Rpc,
    /// Query index == target shard (one key per shard).
    qi: u8,
    /// The epoch loaded for the current query (0 between queries).
    e: u8,
}

/// Global model state: fully explicit, hashable, fixed-size.
#[derive(Clone, PartialEq, Eq, Hash)]
pub(crate) struct SvcState {
    /// The `EpochSwap`'s published epoch (its value is that epoch's
    /// snapshot); 0 before the first publish.
    published: u8,
    /// Per published epoch: shards its bump task has swept
    /// (`shards` = done).
    bump: [u8; MAX_EPOCHS],
    shards: [Shard; MAX_SHARDS],
    readers: [Reader; MAX_READERS],
    /// Admission miss tokens ([`UNBOUNDED`] = gate disabled).
    tokens: u8,
}

/// One scheduling choice: which thread executes its next step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// The writer publishes the next epoch.
    Writer,
    /// The bump task of this epoch sweeps its next shard.
    Bumper(u8),
    /// This reader performs its next step.
    Reader(u8),
}

/// The serving-path transition system. Construct via [`Svc::new`], then
/// explore with the [`mc`] kernel or the [`check`] driver.
pub(crate) struct Svc {
    config: SvcConfig,
}

impl Svc {
    /// Builds the model for `config`.
    ///
    /// # Panics
    ///
    /// Panics if a bound is outside its documented range — a
    /// configuration error, not a model failure.
    pub(crate) fn new(config: SvcConfig) -> Self {
        assert!(
            (1..=MAX_READERS).contains(&config.readers),
            "readers must be 1..={MAX_READERS}"
        );
        assert!(
            (1..=MAX_SHARDS).contains(&config.shards),
            "shards must be 1..={MAX_SHARDS}"
        );
        assert!(
            (1..=MAX_EPOCHS).contains(&config.epochs),
            "epochs must be 1..={MAX_EPOCHS}"
        );
        Svc { config }
    }

    /// Ends the reader's current query and lines up the next.
    fn finish_query(&self, rd: &mut Reader) {
        rd.qi += 1;
        rd.e = 0;
        rd.pc = if rd.qi as usize >= self.config.shards {
            Rpc::Done
        } else {
            Rpc::Load
        };
    }

    /// Terminal-state checks: quiescence must mean clean completion with
    /// converged shards.
    fn check_terminal(&self, state: &SvcState) -> Result<(), String> {
        let c = &self.config;
        let writer_done = state.published as usize == c.epochs;
        let bumps_done = (0..c.epochs).all(|i| state.bump[i] as usize == c.shards);
        let readers_done = state.readers[..c.readers].iter().all(|r| r.pc == Rpc::Done);
        if !(writer_done && bumps_done && readers_done) {
            return Err(format!(
                "deadlock: quiescent with unfinished threads (writer done: {writer_done}, bumps done: {bumps_done}, readers done: {readers_done})"
            ));
        }
        for k in 0..c.shards {
            let sh = state.shards[k];
            if sh.epoch as usize != c.epochs {
                return Err(format!(
                    "sweep-divergence: shard {k} ended at epoch {}, expected {}",
                    sh.epoch, c.epochs
                ));
            }
            if sh.entry != 0 && sh.entry != sh.epoch {
                return Err(format!(
                    "stale-entry: shard {k} still holds a value from epoch {} at epoch {}",
                    sh.entry, sh.epoch
                ));
            }
        }
        Ok(())
    }
}

impl TransitionSystem for Svc {
    type State = SvcState;
    type Action = Action;

    fn initial(&self) -> SvcState {
        let mut readers = [Reader {
            pc: Rpc::Done,
            qi: 0,
            e: 0,
        }; MAX_READERS];
        for rd in readers.iter_mut().take(self.config.readers) {
            rd.pc = Rpc::Load;
        }
        // Bump tasks past the horizon are born done so quiescence does
        // not wait on them.
        let mut bump = [0u8; MAX_EPOCHS];
        for b in bump.iter_mut().skip(self.config.epochs) {
            *b = self.config.shards as u8;
        }
        SvcState {
            published: 0,
            bump,
            shards: [Shard { epoch: 0, entry: 0 }; MAX_SHARDS],
            readers,
            tokens: self.config.tokens,
        }
    }

    /// All enabled scheduling choices: writer first, then bump tasks by
    /// epoch, then readers by index — deterministic order.
    fn enabled(&self, state: &SvcState) -> Vec<Action> {
        let c = &self.config;
        let mut steps = Vec::new();
        if (state.published as usize) < c.epochs {
            steps.push(Action::Writer);
        }
        for e in 1..=state.published {
            if (state.bump[e as usize - 1] as usize) < c.shards {
                steps.push(Action::Bumper(e));
            }
        }
        for (r, rd) in state.readers[..c.readers].iter().enumerate() {
            match rd.pc {
                Rpc::Done => {}
                // A reader parks until the first publish; the load is
                // only a step once there is a pair to load.
                Rpc::Load if state.published == 0 => {}
                _ => steps.push(Action::Reader(r as u8)),
            }
        }
        steps
    }

    fn apply(&self, state: &SvcState, action: Action) -> Result<SvcState, String> {
        let c = self.config;
        let mut next = state.clone();
        match action {
            Action::Writer => {
                next.published += 1;
                // The ingest tick refills miss tokens as it publishes.
                next.tokens = c.tokens;
            }
            Action::Bumper(e) => {
                let i = e as usize - 1;
                let sh = &mut next.shards[next.bump[i] as usize];
                if sh.epoch < e {
                    sh.entry = 0;
                    sh.epoch = e;
                }
                next.bump[i] += 1;
            }
            Action::Reader(r) => {
                let rd = &mut next.readers[r as usize];
                match rd.pc {
                    Rpc::Load => {
                        rd.e = next.published;
                        rd.pc = Rpc::Probe;
                    }
                    Rpc::Probe => {
                        let sh = next.shards[rd.qi as usize];
                        if sh.epoch == rd.e && sh.entry != 0 {
                            if sh.entry != rd.e {
                                return Err(format!(
                                    "cross-epoch-hit: reader {r} hit a cached value written under epoch {} while serving epoch {}",
                                    sh.entry, rd.e
                                ));
                            }
                            self.finish_query(rd);
                        } else {
                            rd.pc = Rpc::AdmitToken;
                        }
                    }
                    Rpc::AdmitToken => {
                        if next.tokens == 0 {
                            // Shed: a typed 429, no model run, no insert.
                            self.finish_query(rd);
                        } else {
                            if next.tokens != UNBOUNDED {
                                next.tokens -= 1;
                            }
                            rd.pc = Rpc::Insert;
                        }
                    }
                    Rpc::Insert => {
                        let sh = &mut next.shards[rd.qi as usize];
                        if c.variant == Variant::NoShardEpochCheck || sh.epoch == rd.e {
                            sh.entry = rd.e;
                        }
                        self.finish_query(rd);
                    }
                    Rpc::Done => unreachable!("Done readers are never enabled"),
                }
            }
        }
        Ok(next)
    }

    fn describe(&self, state: &SvcState, action: Action) -> String {
        match action {
            Action::Writer => format!(
                "writer: publishes (epoch {}, snapshot) under the write lock and refills tokens",
                state.published + 1
            ),
            Action::Bumper(e) => format!(
                "bump({e}): sweeps shard {} under its lock",
                state.bump[e as usize - 1]
            ),
            Action::Reader(r) => {
                let rd = state.readers[r as usize];
                match rd.pc {
                    Rpc::Load => format!(
                        "reader {r}: loads (epoch {}, snapshot) under the read lock",
                        state.published
                    ),
                    Rpc::Probe => format!("reader {r}: probes shard {} at epoch {}", rd.qi, rd.e),
                    Rpc::AdmitToken => {
                        if state.tokens == 0 {
                            format!("reader {r}: no miss token, sheds the query")
                        } else {
                            format!("reader {r}: takes a miss token")
                        }
                    }
                    Rpc::Insert => format!(
                        "reader {r}: inserts into shard {} under epoch {}",
                        rd.qi, rd.e
                    ),
                    Rpc::Done => String::from("reader done"),
                }
            }
        }
    }

    /// Symmetry reduction: readers run identical scripts against shared
    /// state that never names a reader, so sorting the reader vector
    /// yields a canonical representative of the symmetry class.
    fn canonical(&self, state: &SvcState) -> SvcState {
        let mut canon = state.clone();
        canon.readers[..self.config.readers].sort_unstable();
        canon
    }
}

/// The result of one exhaustive serving-path exploration.
#[derive(Debug, Clone)]
pub struct SvcReport {
    /// Configuration explored.
    pub config: SvcConfig,
    /// Shared exploration accounting, including any [`Violation`].
    pub stats: ExploreStats,
}

impl SvcReport {
    /// True when the exploration finished without any violation.
    pub fn holds(&self) -> bool {
        self.stats.holds()
    }
}

/// Exhaustively explores every interleaving of `config` and checks all
/// serving-path invariants. Deterministic: identical configs produce
/// identical reports.
pub fn check(config: SvcConfig) -> SvcReport {
    let sys = Svc::new(config);
    let stats = mc::explore(&sys, &mc::Budget::default(), |s| sys.check_terminal(s));
    SvcReport { config, stats }
}

/// Finds the shortest schedule violating any invariant under `config`,
/// or `None` when the configuration holds. Used by the negative-control
/// suites, where a human reads the trace.
pub fn minimal_counterexample(config: SvcConfig) -> Option<Violation> {
    let sys = Svc::new(config);
    mc::shortest_violation(&sys, &mc::Budget::default(), |s| sys.check_terminal(s))
}

/// The conformance harness: the real serving stack replayed against the
/// model.
#[cfg(test)]
#[path = "tests/svc_conformance.rs"]
mod conformance;

#[cfg(test)]
mod tests {
    use super::conformance::{replay, schedules, ServingHarness};
    use super::*;

    #[test]
    fn default_bounds_hold() {
        let report = check(SvcConfig::new(2, 2, 2));
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert!(report.stats.states > 1_000);
        assert!(report.stats.terminals >= 1);
        assert!(!report.stats.truncated);
    }

    #[test]
    fn lapping_the_ring_holds() {
        // 3 epochs: readers load across a three-epoch horizon, with two
        // bump tasks racing behind the last publish.
        let report = check(SvcConfig::new(2, 1, 3));
        assert!(report.holds(), "{:?}", report.stats.violation);
    }

    #[test]
    fn admission_pressure_holds() {
        let report = check(SvcConfig::new(2, 2, 2).with_admission(1));
        assert!(report.holds(), "{:?}", report.stats.violation);
    }

    #[test]
    fn toctou_variant_is_refuted_with_a_trace() {
        let config = SvcConfig::new(2, 2, 2).with_variant(Variant::NoShardEpochCheck);
        let report = check(config);
        assert!(!report.holds(), "the seeded TOCTOU must be found");
        let v = minimal_counterexample(config).expect("BFS must find it too");
        assert!(v.kind.starts_with("cross-epoch-hit") || v.kind.starts_with("stale-entry"));
        assert!(!v.trace.is_empty());
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check(SvcConfig::new(2, 2, 2));
        let b = check(SvcConfig::new(2, 2, 2));
        assert_eq!(a.stats.states, b.stats.states);
        assert_eq!(a.stats.transitions, b.stats.transitions);
        assert_eq!(a.stats.terminals, b.stats.terminals);
    }

    /// A faithful shadow implementation of the harness: replays the
    /// model semantics with plain fields, pinning the replay driver's
    /// predictions (the real-types harness is the `conformance` module's).
    struct Shadow {
        config: SvcConfig,
        published: u64,
        shards: Vec<(u64, u64)>,
        tokens: u64,
    }

    impl Shadow {
        fn new(config: SvcConfig) -> Self {
            Shadow {
                config,
                published: 0,
                shards: vec![(0, 0); config.shards],
                tokens: u64::from(config.tokens),
            }
        }
    }

    impl ServingHarness for Shadow {
        fn publish(&mut self, _epoch: u64) -> u64 {
            self.published += 1;
            self.tokens = u64::from(self.config.tokens);
            self.published
        }
        fn load(&mut self) -> Option<(u64, u64)> {
            (self.published != 0).then_some((self.published, self.published))
        }
        fn probe(&mut self, shard: usize, epoch: u64) -> Option<u64> {
            let (sh_epoch, entry) = self.shards[shard];
            (sh_epoch == epoch && entry != 0).then_some(entry)
        }
        fn take_token(&mut self) -> bool {
            if self.tokens == 0 {
                return false;
            }
            if self.tokens != u64::from(UNBOUNDED) {
                self.tokens -= 1;
            }
            true
        }
        fn insert(&mut self, shard: usize, epoch: u64) {
            if self.shards[shard].0 == epoch {
                self.shards[shard].1 = epoch;
            }
        }
        fn sweep_shard(&mut self, shard: usize, epoch: u64) {
            if self.shards[shard].0 < epoch {
                self.shards[shard] = (epoch, 0);
            }
        }
    }

    #[test]
    fn explored_schedules_replay_against_the_shadow() {
        let config = SvcConfig::new(2, 2, 2);
        let all = schedules(config, 200);
        assert!(!all.is_empty());
        for schedule in &all {
            let mut shadow = Shadow::new(config);
            replay(config, schedule, &mut shadow).expect("shadow must conform");
        }
    }

    #[test]
    fn replay_with_admission_pressure_conforms() {
        let config = SvcConfig::new(2, 1, 2).with_admission(1);
        for schedule in schedules(config, 200) {
            let mut shadow = Shadow::new(config);
            replay(config, &schedule, &mut shadow).expect("shadow must conform");
        }
    }
}
