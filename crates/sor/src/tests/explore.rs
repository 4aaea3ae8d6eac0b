//! Every interleaving of the ghost exchange, run on the real mailboxes
//! with the `prodpred-analysis` kernel. DESIGN.md §9.2 has the argument.
//!
//! Each explored worker holds the real [`Links`] that [`connect`] builds
//! for the layout and runs the real [`half_iteration_script`], checking
//! [`death_fires`] at the start of every half-iteration as `worker_loop`
//! does. A send is two steps, reclaim and deposit; a receive is two, take
//! and give back. Each step is exactly one critical section of a real
//! `RecycledSender` or `RecycledReceiver`, taken with `Duration::ZERO`:
//! on the real mailbox that is a deterministic try that never blocks. A
//! step whose try would block is not enabled, or, where the exchange
//! policy may run out, is the worker giving up. A worker that exits, for
//! any reason, drops its real endpoints.
//!
//! A state is the schedule plus an observation: each worker's status,
//! half-iteration and step, and where each directed link's one buffer is,
//! read through the `#[cfg(test)]` watches of the real mailboxes. `apply`
//! re-runs the schedule on fresh links. Each sender fills its row with
//! its half-iteration, and each take checks the real row. Each check has
//! a [`Seed`], a bug planted in the explorer's scripts, that the explorer
//! must refute.

use super::{connect, death_fires, Links};
use crate::decomp::{BlockLayout, Decomposition, Peer};
use crate::exchange::{LinkWatch, RecvTimeoutError, SendTimeoutError};
use crate::protocol::{half_iteration_script, ExchangeOp};
use prodpred_analysis::mc::{self, ExploreStats, TransitionSystem};
use prodpred_simgrid::faults::WorkerDeath;
use std::time::Duration;

/// A bug planted in the scripts for a negative control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seed {
    /// The scripts as the solver runs them.
    None,
    /// Every worker drains its neighbours before it sends.
    RecvFirst,
    /// A receiver keeps the buffer instead of giving it back.
    KeepBuffer,
    /// A sender fills the row with the previous half-iteration.
    StaleRow,
}

/// One exploration: topology, horizon, fault model and seed.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Config {
    layout: BlockLayout,
    /// Half-iterations each worker runs.
    halves: usize,
    /// Injected death, fired by `death_fires`.
    kill: Option<WorkerDeath>,
    /// Whether any blocked try may be the one after which the exchange
    /// policy's budget is spent.
    timeouts: bool,
    seed: Seed,
}

impl Config {
    pub(crate) const fn new(layout: BlockLayout, halves: usize) -> Self {
        Self {
            layout,
            halves,
            kill: None,
            timeouts: false,
            seed: Seed::None,
        }
    }

    pub(crate) const fn killing(self, rank: usize, at_half_iteration: usize) -> Self {
        Self {
            kill: Some(WorkerDeath {
                rank,
                at_half_iteration,
            }),
            ..self
        }
    }

    pub(crate) const fn with_timeouts(self) -> Self {
        Self {
            timeouts: true,
            ..self
        }
    }

    const fn with_seed(self, seed: Seed) -> Self {
        Self { seed, ..self }
    }
}

/// A worker's status: running, or how its run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Status {
    Running,
    /// Completed every half-iteration.
    Done,
    /// The injected death fired.
    Dead,
    /// A try found the link disconnected: the `WorkerDied` path.
    Lost,
    /// Gave up a blocked try: the `ExchangeTimeout` path.
    TimedOut,
}

/// Where one directed link's buffer is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    /// In the sender's stash, before the first send.
    Stash,
    /// In the sender's hand, between reclaim and deposit.
    Sending,
    /// In the data mailbox, filled with this value.
    Data(i64),
    /// In the receiver's hand, between take and give back.
    Receiving,
    /// In the return mailbox.
    Returned,
    /// Nowhere: dropped with an endpoint or a refused send.
    Nowhere,
}

/// A worker's place in its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Thread {
    status: Status,
    half: u8,
    /// Step within the half: twice the script index, plus one for the
    /// second critical section of the op.
    step: u8,
}

/// What the explorer sees of the real links and the scripts.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Observation {
    threads: Vec<Thread>,
    /// In [`Explorer::directed`] order.
    buffers: Vec<Loc>,
}

/// A schedule of worker ranks and what it leaves. Equal and hashed by
/// the observation alone.
#[derive(Debug, Clone)]
struct State {
    schedule: Vec<u8>,
    seen: Observation,
}

impl PartialEq for State {
    fn eq(&self, other: &Self) -> bool {
        self.seen == other.seen
    }
}

impl Eq for State {}

impl std::hash::Hash for State {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.seen.hash(state);
    }
}

/// What one try of a worker's next step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// The step ran.
    Moved,
    /// The link is disconnected.
    Disconnected,
    /// The try would block; nothing changed.
    Blocked,
}

/// The real links and the scripts running on them.
struct World<'a> {
    explorer: &'a Explorer,
    links: Vec<Links>,
    /// Per directed link.
    watches: Vec<LinkWatch>,
    threads: Vec<Thread>,
    /// Per directed link: the buffer in its sender's and its receiver's
    /// hand.
    hands: Vec<[Option<Vec<f64>>; 2]>,
}

impl World<'_> {
    /// Tries worker `r`'s next step once, with no wait.
    fn attempt(&mut self, r: usize) -> Result<Outcome, String> {
        let explorer = self.explorer;
        let config = explorer.config;
        let thread = self.threads[r];
        let half = usize::from(thread.half);
        if thread.step == 0 && death_fires(config.kill, r, half) {
            self.exit(r, Status::Dead);
            return Ok(Outcome::Moved);
        }
        let script = &explorer.scripts[r];
        let op = script[usize::from(thread.step / 2)];
        let (ExchangeOp::Send(peer) | ExchangeOp::Recv(peer)) = op;
        let l = explorer.link_of(r, op);
        let link = self.links[r].0[peer as usize]
            .as_mut()
            .expect("a running worker holds a link to every neighbour its script names");
        let [sending, receiving] = &mut self.hands[l];
        match (op, thread.step % 2) {
            (ExchangeOp::Send(_), 0) => match link.to.reclaim(Duration::ZERO) {
                Ok(buf) => *sending = Some(buf),
                Err(RecvTimeoutError::Disconnected) => return Ok(Outcome::Disconnected),
                Err(RecvTimeoutError::Timeout) => return Ok(Outcome::Blocked),
            },
            (ExchangeOp::Send(_), _) => {
                let mut buf = sending.take().expect("a reclaim came first");
                let row = match config.seed {
                    Seed::StaleRow => half as f64 - 1.0,
                    _ => half as f64,
                };
                buf.fill(row);
                match link.to.deposit(buf, Duration::ZERO) {
                    Ok(()) => {}
                    Err(SendTimeoutError::Disconnected(_)) => return Ok(Outcome::Disconnected),
                    Err(SendTimeoutError::Timeout(_)) => {
                        return Err(format!("blocked deposit: worker {r}'s data slot full"));
                    }
                }
            }
            (ExchangeOp::Recv(_), 0) => match link.from.take(Duration::ZERO) {
                Ok(row) => {
                    if let Some(&got) = row.iter().find(|&&v| v != half as f64) {
                        return Err(format!(
                            "delivery violation: worker {r} expected the row of half-iteration {half} from {peer:?} but received {got}"
                        ));
                    }
                    *receiving = Some(row);
                }
                Err(RecvTimeoutError::Disconnected) => return Ok(Outcome::Disconnected),
                Err(RecvTimeoutError::Timeout) => return Ok(Outcome::Blocked),
            },
            (ExchangeOp::Recv(_), _) => {
                if config.seed != Seed::KeepBuffer {
                    let buf = receiving.take().expect("a take came first");
                    // A hung-up sender refuses the buffer, which drops.
                    let given = link.from.give_back(buf, Duration::ZERO);
                    if let Err(SendTimeoutError::Timeout(_)) = given {
                        return Err(format!("blocked give-back: worker {r}'s return slot full"));
                    }
                }
            }
        }
        let mut next = thread;
        next.step += 1;
        if usize::from(next.step) == 2 * script.len() {
            next.step = 0;
            next.half += 1;
        }
        self.threads[r] = next;
        if usize::from(next.half) == config.halves {
            self.exit(r, Status::Done);
        }
        Ok(Outcome::Moved)
    }

    /// Runs worker `r`'s next step: a disconnected link ends the worker,
    /// and so does a blocked try, which is scheduled only where the
    /// exchange policy may run out.
    fn step(&mut self, r: usize) -> Result<(), String> {
        match self.attempt(r)? {
            Outcome::Moved => {}
            Outcome::Disconnected => self.exit(r, Status::Lost),
            Outcome::Blocked => self.exit(r, Status::TimedOut),
        }
        Ok(())
    }

    /// Ends worker `r`'s run, dropping its endpoints.
    fn exit(&mut self, r: usize, status: Status) {
        self.threads[r].status = status;
        self.links[r] = Links::default();
    }

    /// Reads every buffer's place, checking that each link has one buffer
    /// in one place.
    fn observe(&self) -> Result<Observation, String> {
        let mut buffers = Vec::with_capacity(self.watches.len());
        for (l, (&(sender, toward), watch)) in
            self.explorer.directed.iter().zip(&self.watches).enumerate()
        {
            let stashed = self.links[sender].0[toward as usize]
                .as_ref()
                .is_some_and(|link| link.to.stashed());
            let [sending, receiving] = &self.hands[l];
            let places: Vec<Loc> = [
                stashed.then_some(Loc::Stash),
                sending.as_ref().map(|_| Loc::Sending),
                watch.row().map(|row| Loc::Data(row[0] as i64)),
                receiving.as_ref().map(|_| Loc::Receiving),
                watch.returned().then_some(Loc::Returned),
            ]
            .into_iter()
            .flatten()
            .collect();
            buffers.push(match places[..] {
                [] => Loc::Nowhere,
                [place] => place,
                _ => {
                    return Err(format!(
                        "two buffers: worker {sender}'s link toward {toward:?} has one in each of {places:?}"
                    ))
                }
            });
        }
        Ok(Observation {
            threads: self.threads.clone(),
            buffers,
        })
    }
}

/// The ghost exchange under one [`Config`], as a transition system whose
/// actions are worker ranks.
struct Explorer {
    config: Config,
    decomposition: Decomposition,
    scripts: Vec<Vec<ExchangeOp>>,
    /// Every directed link, as its sender and the way it sends.
    directed: Vec<(usize, Peer)>,
}

impl Explorer {
    fn new(config: Config) -> Self {
        let layout = config.layout;
        // The smallest grid every block of the layout fits in.
        let n = layout.pr.max(layout.pc) + 2;
        let scripts = (0..layout.len())
            .map(|r| {
                let mut script = half_iteration_script(r, layout);
                if config.seed == Seed::RecvFirst {
                    script.sort_by_key(|op| matches!(op, ExchangeOp::Send(_)));
                }
                script
            })
            .collect();
        let directed = (0..layout.len())
            .flat_map(|r| {
                Peer::ALL
                    .into_iter()
                    .filter(move |&p| layout.neighbour(r, p).is_some())
                    .map(move |p| (r, p))
            })
            .collect();
        Self {
            config,
            decomposition: Decomposition::blocks(n, layout),
            scripts,
            directed,
        }
    }

    /// The directed link `op` of worker `r` works on: its own toward a
    /// send's peer, the peer's toward it for a receive.
    fn link_of(&self, r: usize, op: ExchangeOp) -> usize {
        let link = match op {
            ExchangeOp::Send(peer) => (r, peer),
            ExchangeOp::Recv(peer) => {
                let from = self.config.layout.neighbour(r, peer);
                (from.expect("scripts name only neighbours"), peer.opposite())
            }
        };
        self.directed
            .iter()
            .position(|&d| d == link)
            .expect("every neighbour pair has a link each way")
    }

    /// Fresh links with every script at its start.
    fn world(&self) -> World<'_> {
        let links = connect(&self.decomposition);
        let watches = self
            .directed
            .iter()
            .map(|&(sender, toward)| {
                let link = links[sender].0[toward as usize].as_ref();
                link.expect("every directed link has a sender").to.watch()
            })
            .collect();
        World {
            explorer: self,
            links,
            watches,
            threads: vec![
                Thread {
                    status: Status::Running,
                    half: 0,
                    step: 0,
                };
                self.config.layout.len()
            ],
            hands: vec![[None, None]; self.directed.len()],
        }
    }

    /// The world after `schedule`, which already ran once without a
    /// violation.
    fn replay(&self, schedule: &[u8]) -> World<'_> {
        let mut world = self.world();
        for &r in schedule {
            world
                .step(usize::from(r))
                .expect("a schedule that reached a state replays");
        }
        world
    }

    /// Quiescence must mean every worker exited, with no row left behind
    /// by a healthy run, the injected death fired and seen, and a healthy
    /// patient run all done.
    fn check_terminal(&self, seen: &Observation) -> Result<(), String> {
        let statuses: Vec<Status> = seen.threads.iter().map(|t| t.status).collect();
        if statuses.contains(&Status::Running) {
            return Err(format!(
                "deadlock: workers {statuses:?} blocked with no enabled step"
            ));
        }
        let all_done = statuses.iter().all(|&s| s == Status::Done);
        if all_done && seen.buffers.iter().any(|b| matches!(b, Loc::Data(_))) {
            return Err("lost message: every worker done but a row still in flight".to_string());
        }
        let config = self.config;
        if config.timeouts {
            return Ok(());
        }
        match config
            .kill
            .filter(|d| d.rank < statuses.len() && d.at_half_iteration < config.halves)
        {
            Some(d) if statuses[d.rank] != Status::Dead => Err(format!(
                "injected death of worker {} at half {} never fired: {statuses:?}",
                d.rank, d.at_half_iteration
            )),
            Some(d) if !statuses.contains(&Status::Lost) => Err(format!(
                "no survivor observed worker {}'s death: {statuses:?}",
                d.rank
            )),
            Some(_) => Ok(()),
            None if !all_done => Err(format!(
                "healthy patient run ended with workers {statuses:?}"
            )),
            None => Ok(()),
        }
    }
}

impl TransitionSystem for Explorer {
    type State = State;
    type Action = u8;

    fn initial(&self) -> State {
        let seen = self.world().observe();
        State {
            schedule: Vec::new(),
            seen: seen.expect("fresh links hold their buffers in the stash"),
        }
    }

    /// Each running worker whose next try does not block, and, where the
    /// policy may run out, each blocked one too, by rank. A probe that
    /// moved the world is taken on a fresh replay.
    fn enabled(&self, state: &State) -> Vec<u8> {
        let mut world = self.replay(&state.schedule);
        let mut steps = Vec::new();
        for (r, thread) in state.seen.threads.iter().enumerate() {
            if thread.status != Status::Running {
                continue;
            }
            match world.attempt(r) {
                Ok(Outcome::Blocked) => {
                    if self.config.timeouts {
                        steps.push(r as u8);
                    }
                }
                _ => {
                    steps.push(r as u8);
                    world = self.replay(&state.schedule);
                }
            }
        }
        steps
    }

    fn apply(&self, state: &State, r: u8) -> Result<State, String> {
        let mut world = self.replay(&state.schedule);
        world.step(usize::from(r))?;
        let mut schedule = state.schedule.clone();
        schedule.push(r);
        Ok(State {
            schedule,
            seen: world.observe()?,
        })
    }

    fn describe(&self, state: &State, r: u8) -> String {
        let r = usize::from(r);
        let thread = state.seen.threads[r];
        let half = thread.half;
        if thread.step == 0 && death_fires(self.config.kill, r, usize::from(half)) {
            return format!("worker {r}: injected death fires at half {half}");
        }
        let op = self.scripts[r][usize::from(thread.step / 2)];
        let what = match (op, thread.step % 2) {
            (ExchangeOp::Send(p), 0) => format!("reclaims its buffer toward {p:?}"),
            (ExchangeOp::Send(p), _) => format!("deposits its row toward {p:?}"),
            (ExchangeOp::Recv(p), 0) => format!("takes the row from {p:?}"),
            (ExchangeOp::Recv(p), _) => format!("gives the buffer back to {p:?}"),
        };
        let outcome = match self.replay(&state.schedule).attempt(r) {
            Ok(Outcome::Moved) | Err(_) => "",
            Ok(Outcome::Disconnected) => ": disconnected",
            Ok(Outcome::Blocked) => ": blocked, gives up",
        };
        format!("worker {r} half {half}: {what}{outcome}")
    }
}

/// One exploration's verdict and terminal accounting.
pub(crate) struct Report {
    pub(crate) stats: ExploreStats,
    /// Terminals in which every worker completed.
    pub(crate) all_done: u64,
    /// Terminals in which some survivor observed a disconnect.
    pub(crate) lost_observed: u64,
}

/// Explores every interleaving of `config`.
pub(crate) fn check(config: Config) -> Report {
    let explorer = Explorer::new(config);
    let (mut all_done, mut lost_observed) = (0, 0);
    let stats = mc::explore(&explorer, |state: &State| {
        explorer.check_terminal(&state.seen)?;
        let statuses = || state.seen.threads.iter().map(|t| t.status);
        all_done += u64::from(statuses().all(|s| s == Status::Done));
        lost_observed += u64::from(statuses().any(|s| s == Status::Lost));
        Ok(())
    });
    Report {
        stats,
        all_done,
        lost_observed,
    }
}

/// The suite for one layout and horizon: healthy, then every kill
/// `rank × half`, each patient and with timeouts.
fn suite(layout: BlockLayout, halves: usize) -> Vec<Config> {
    let healthy = Config::new(layout, halves);
    let kills =
        (0..layout.len()).flat_map(|rank| (0..halves).map(move |half| healthy.killing(rank, half)));
    let patient: Vec<Config> = std::iter::once(healthy).chain(kills).collect();
    let timed = patient.iter().map(|config| config.with_timeouts());
    timed.chain(patient.iter().copied()).collect()
}

/// Explores `config`, a correct configuration: no violation, and every
/// terminal of a patient kill has a survivor that saw the death.
fn prove(config: Config) -> Report {
    let report = check(config);
    let stats = &report.stats;
    println!(
        "explore {:?} x {} halves, kill {:?}, timeouts {}: {} states, {} transitions, {} terminals ({} all-done, {} observed-death), depth {}",
        config.layout,
        config.halves,
        config.kill.map(|d| (d.rank, d.at_half_iteration)),
        config.timeouts,
        stats.states,
        stats.transitions,
        stats.terminals,
        report.all_done,
        report.lost_observed,
        stats.max_depth
    );
    assert!(stats.holds(), "{config:?}: {:?}", stats.violation);
    let fires = config
        .kill
        .is_some_and(|d| d.at_half_iteration < config.halves);
    if fires && !config.timeouts {
        assert_eq!(
            stats.terminals, report.lost_observed,
            "{config:?}: some schedule missed the WorkerDied path"
        );
    }
    report
}

/// Proves every configuration of the suite and checks its `(states,
/// transitions)` totals.
fn pin(layout: BlockLayout, halves: usize, totals: (u64, u64)) {
    let (mut states, mut transitions) = (0, 0);
    for config in suite(layout, halves) {
        let stats = prove(config).stats;
        states += stats.states;
        transitions += stats.transitions;
    }
    assert_eq!((states, transitions), totals);
}

#[test]
fn two_ranks_two_halves_counts_are_pinned() {
    pin(BlockLayout::new(2, 1), 2, (266, 342));
}

#[test]
fn three_ranks_three_halves_counts_are_pinned() {
    pin(BlockLayout::new(3, 1), 3, (8_603, 16_945));
}

#[test]
#[ignore = "about 35 s in a debug build; CI runs it in release"]
fn two_by_two_blocks_counts_are_pinned() {
    pin(BlockLayout::new(2, 2), 2, (133_556, 358_600));
}

/// The healthy 2 × 2 grid of blocks, and a corner's death: the cheap
/// part of the block suite, where every worker talks both ways.
#[test]
fn two_by_two_blocks_are_deadlock_free_and_deaths_are_typed() {
    let blocks = Config::new(BlockLayout::new(2, 2), 2);
    let healthy = prove(blocks);
    assert_eq!(healthy.stats.terminals, healthy.all_done);
    prove(blocks.killing(3, 1));
}

#[test]
fn kill_past_the_horizon_never_fires() {
    let report = prove(Config::new(BlockLayout::new(2, 1), 2).killing(0, 2));
    assert_eq!(report.stats.terminals, report.all_done);
}

/// `config`'s seed must be refuted by a violation of `kind` whose
/// minimal trace has `len` steps.
fn refute(config: Config, kind: &str, len: usize) {
    let v = check(config).stats.violation;
    let v = v.unwrap_or_else(|| panic!("{:?} must be refuted", config.seed));
    println!(
        "explore {:?}: refuted by `{}` in {} steps",
        config.seed,
        v.kind,
        v.trace.len()
    );
    for (i, step) in v.trace.iter().enumerate() {
        println!("  {i:>3}. {step}");
    }
    assert!(
        v.kind.starts_with(kind),
        "{:?}: expected `{kind}`, got `{}`",
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
fn each_check_refutes_its_seeded_control() {
    let chain = Config::new(BlockLayout::new(2, 1), 2);
    refute(chain.with_seed(Seed::RecvFirst), "deadlock", 0);
    refute(chain.with_seed(Seed::KeepBuffer), "deadlock", 8);
    refute(chain.with_seed(Seed::StaleRow), "delivery violation", 5);
}
