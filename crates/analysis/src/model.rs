//! Bounded, exhaustive model checking of the SOR ghost-exchange
//! protocol.
//!
//! The chaos campaign (PR 4) *samples* schedules; this checker
//! *enumerates* them. It builds an explicit-state model of the
//! [`prodpred_sor::exchange`] rendezvous-mailbox semantics — the
//! capacity-one data slot, the buffer-return slot, buffered delivery
//! past a hangup, disconnect-on-drop — and drives one abstract worker
//! per rank through exactly the script
//! [`prodpred_sor::protocol::half_iteration_script`] that the real
//! `worker_loop` executes, over the same [`BlockLayout`] topology: a chain
//! of strips (`P x 1`) or a grid of blocks. A depth-first search with
//! state hashing then explores *every* interleaving of the workers'
//! atomic mailbox operations for small configurations (2–4 ranks, a few
//! half-iterations), proving:
//!
//! * **deadlock freedom** — no reachable state has a live worker and no
//!   enabled transition;
//! * **no lost or duplicated messages** — every receive observes exactly
//!   the boundary row of its own half-iteration, in order, and no
//!   terminal state leaves an undelivered row in a mailbox;
//! * **typed worker death** — under an injected
//!   [`WorkerDeath`] (the model's
//!   [`FaultSchedule`](prodpred_simgrid::faults::FaultSchedule) kills),
//!   every surviving worker reaches the `Disconnected` path (what the
//!   solver surfaces as `SolveError::WorkerDied`) in **every**
//!   interleaving — never a hang, never a missed death;
//! * **timeout safety** — with `ExchangePolicy`-style bounded waits
//!   modelled as a nondeterministic "patience ran out" transition on any
//!   blocked worker, the system still reaches quiescence with every
//!   worker in a typed terminal state.
//!
//! ## Model granularity and soundness limits
//!
//! Each transition is one mutex-protected mailbox operation (acquire a
//! buffer, deposit a row, take a row, return a buffer), which matches
//! the real implementation's atomicity: every such operation holds the
//! mailbox lock for its whole critical section. Local computation (the
//! relaxation sweep) touches no shared state and is abstracted away.
//! Buffer *identity* is abstracted to occupancy (the real link owns a
//! single buffer, so occupancy determines identity); payload contents
//! are abstracted to the half-iteration sequence number.

use crate::mc::{self, ExploreStats, TransitionSystem};
use prodpred_simgrid::faults::WorkerDeath;
use prodpred_sor::protocol::{half_iteration_script, ExchangeOp};
use prodpred_sor::{BlockLayout, Peer};

/// Upper bound on ranks the fixed-size state encoding supports.
pub const MAX_RANKS: usize = 4;
/// Upper bound on half-iterations (sequence numbers fit in a u8).
pub(crate) const MAX_HALVES: usize = 8;

/// One checker configuration: topology, horizon, and fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// The processor grid, 2..=4 workers (1 exchanges nothing): `P x 1`
    /// is the chain of `P` strips, `2 x 2` the smallest grid of blocks
    /// whose workers talk both vertically and horizontally.
    pub layout: BlockLayout,
    /// Half-iterations each worker runs (1..=8).
    pub halves: usize,
    /// Injected death: the worker exits at the start of this
    /// half-iteration, exactly like the solver's `death_fires`.
    pub kill: Option<WorkerDeath>,
    /// Model `ExchangePolicy` exhaustion: any blocked mailbox wait may
    /// nondeterministically give up with a `Timeout`.
    pub timeouts: bool,
}

/// Where the single recycled buffer of one directed link currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    /// In the sender's stash (before the first send of the solve).
    Stash,
    /// Held by the sender between acquiring and depositing.
    TxHeld,
    /// In the data mailbox, carrying the row of half-iteration `seq`.
    Data(u8),
    /// Held by the receiver between taking and returning.
    RxHeld,
    /// In the buffer-return mailbox, ready for the sender to reclaim.
    Ret,
    /// Dropped because the return leg found the sender gone.
    Gone,
}

/// How a worker's run ended (mirrors `parallel::WorkerEnd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Status {
    /// Still executing its script.
    Running,
    /// Completed every half-iteration.
    Done,
    /// The injected death fired.
    Dead,
    /// Observed `Disconnected` — the typed `WorkerDied` path.
    Lost,
    /// Gave up a bounded wait — the typed `ExchangeTimeout` path.
    TimedOut,
}

/// One atomic mailbox micro-operation of a worker's script.
#[derive(Debug, Clone, Copy)]
struct Micro {
    kind: MicroKind,
    /// The directed link this op works on, named by its sending rank...
    sender: usize,
    /// ...and the direction that rank sends in.
    toward: Peer,
    /// The neighbouring rank this op talks to.
    peer: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MicroKind {
    /// Sender reclaims its buffer (stash or the return mailbox).
    Acquire,
    /// Sender deposits the filled row into the data mailbox.
    Deposit,
    /// Receiver takes the row out of the data mailbox.
    Take,
    /// Receiver pushes the buffer into the return mailbox.
    Return,
}

/// Expands the solver's per-half exchange script into mailbox micro-ops.
fn micro_script(rank: usize, layout: BlockLayout) -> Vec<Micro> {
    let mut micros = Vec::new();
    for op in half_iteration_script(rank, layout) {
        let (ExchangeOp::Send(toward) | ExchangeOp::Recv(toward)) = op;
        let peer = layout.neighbour(rank, toward);
        // tidy:allow(PP003): half_iteration_script filters on this very lookup
        let peer = peer.expect("the script names only existing neighbours");
        // A send travels this rank's own link toward the neighbour; a
        // receive drains the neighbour's link toward this rank.
        let (kinds, sender, toward) = match op {
            ExchangeOp::Send(_) => ([MicroKind::Acquire, MicroKind::Deposit], rank, toward),
            ExchangeOp::Recv(_) => (
                [MicroKind::Take, MicroKind::Return],
                peer,
                toward.opposite(),
            ),
        };
        for kind in kinds {
            micros.push(Micro {
                kind,
                sender,
                toward,
                peer,
            });
        }
    }
    micros
}

/// Global model state: fully explicit, hashable, fixed-size.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    status: [Status; MAX_RANKS],
    /// Per worker: current half-iteration (0..halves).
    half: [u8; MAX_RANKS],
    /// Per worker: index into its micro script for the current half.
    op: [u8; MAX_RANKS],
    /// Buffer location per directed link: `[sender][direction sent in]`.
    /// Entries for neighbours the layout does not give stay `Stash`.
    links: [[Loc; 4]; MAX_RANKS],
}

/// The result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Configuration explored.
    pub config: ModelConfig,
    /// Shared exploration accounting, including any
    /// [`Violation`](crate::mc::Violation).
    pub stats: ExploreStats,
    /// Terminal states in which every worker completed healthily.
    pub all_done_terminals: u64,
    /// Terminal states in which some survivor observed `Disconnected`.
    pub lost_observed_terminals: u64,
}

impl Report {
    /// True when the exploration finished without any violation.
    pub fn holds(&self) -> bool {
        self.stats.holds()
    }
}

/// What one enabled transition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Execute the worker's next micro-op.
    Advance(usize),
    /// The worker's injected death fires.
    Die(usize),
    /// The worker observes `Disconnected` on its current op.
    Disconnect(usize),
    /// The worker's bounded wait expires (timeout mode only).
    Timeout(usize),
}

struct Model {
    config: ModelConfig,
    scripts: Vec<Vec<Micro>>,
}

impl Model {
    fn new(config: ModelConfig) -> Self {
        let scripts = (0..config.layout.len())
            .map(|r| micro_script(r, config.layout))
            .collect();
        Self { config, scripts }
    }

    fn ranks(&self) -> usize {
        self.config.layout.len()
    }

    fn kill_fires(&self, rank: usize, half: usize) -> bool {
        self.config
            .kill
            .is_some_and(|d| d.rank == rank && d.at_half_iteration == half)
    }

    /// A worker no longer holding its endpoints: exited for any reason.
    fn hung_up(status: Status) -> bool {
        !matches!(status, Status::Running)
    }
}

impl TransitionSystem for Model {
    type State = State;
    type Action = Step;

    fn initial(&self) -> State {
        State {
            status: [Status::Running; MAX_RANKS],
            half: [0; MAX_RANKS],
            op: [0; MAX_RANKS],
            links: [[Loc::Stash; 4]; MAX_RANKS],
        }
    }

    /// All transitions enabled in `state`, in deterministic rank order.
    fn enabled(&self, state: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        for rank in 0..self.ranks() {
            if state.status[rank] != Status::Running {
                continue;
            }
            let half = state.half[rank] as usize;
            if half >= self.config.halves {
                // Script exhausted: completing is the worker's only step;
                // modelled in `apply` via Advance.
                steps.push(Step::Advance(rank));
                continue;
            }
            if state.op[rank] == 0 && self.kill_fires(rank, half) {
                steps.push(Step::Die(rank));
                continue;
            }
            let micro = self.scripts[rank][state.op[rank] as usize];
            let loc = state.links[micro.sender][micro.toward as usize];
            let peer_gone = Self::hung_up(state.status[micro.peer]);
            let (runnable, blocked_is_disconnect) = match micro.kind {
                // Acquire succeeds from the stash or the return slot; a
                // buffer still in flight blocks; a hung-up peer with no
                // returned buffer is a disconnect (`returns` closed).
                MicroKind::Acquire => (matches!(loc, Loc::Stash | Loc::Ret), peer_gone),
                // Deposit: the single circulating buffer guarantees the
                // data slot is free, but a hung-up receiver means the
                // mailbox is closed — send always fails then.
                MicroKind::Deposit => (!peer_gone, peer_gone),
                // Take drains a buffered row even from a closed mailbox;
                // an empty slot with a hung-up sender is a disconnect.
                MicroKind::Take => (matches!(loc, Loc::Data(_)), peer_gone),
                // Return never blocks: slot free by the single-buffer
                // invariant; a hung-up sender just drops the buffer.
                MicroKind::Return => (true, false),
            };
            if runnable {
                steps.push(Step::Advance(rank));
            } else if blocked_is_disconnect {
                steps.push(Step::Disconnect(rank));
            } else if self.config.timeouts {
                steps.push(Step::Timeout(rank));
            }
            // Otherwise: blocked, waiting for the peer — no step.
        }
        steps
    }

    /// Applies `step`, returning the successor state, or a violation
    /// message when a safety property breaks inside the step.
    fn apply(&self, state: &State, step: Step) -> Result<State, String> {
        let mut next = state.clone();
        match step {
            Step::Die(rank) => next.status[rank] = Status::Dead,
            Step::Disconnect(rank) => next.status[rank] = Status::Lost,
            Step::Timeout(rank) => next.status[rank] = Status::TimedOut,
            Step::Advance(rank) => {
                let half = next.half[rank] as usize;
                if half >= self.config.halves {
                    next.status[rank] = Status::Done;
                    return Ok(next);
                }
                let micro = self.scripts[rank][next.op[rank] as usize];
                let loc = &mut next.links[micro.sender][micro.toward as usize];
                match micro.kind {
                    MicroKind::Acquire => {
                        debug_assert!(matches!(*loc, Loc::Stash | Loc::Ret));
                        *loc = Loc::TxHeld;
                    }
                    MicroKind::Deposit => {
                        if !matches!(*loc, Loc::TxHeld) {
                            return Err(format!(
                                "model invariant: deposit by rank {rank} without holding the buffer (loc {loc:?})"
                            ));
                        }
                        *loc = Loc::Data(next.half[rank]);
                    }
                    MicroKind::Take => {
                        let Loc::Data(seq) = *loc else {
                            return Err(format!(
                                "model invariant: take by rank {rank} from empty slot"
                            ));
                        };
                        if seq != next.half[rank] {
                            return Err(format!(
                                "delivery violation: rank {rank} expected the row of half-iteration {} but received half-iteration {seq} (lost or duplicated message)",
                                next.half[rank]
                            ));
                        }
                        *loc = Loc::RxHeld;
                    }
                    MicroKind::Return => {
                        debug_assert!(matches!(*loc, Loc::RxHeld));
                        *loc = if Self::hung_up(next.status[micro.sender]) {
                            Loc::Gone
                        } else {
                            Loc::Ret
                        };
                    }
                }
                next.op[rank] += 1;
                if next.op[rank] as usize >= self.scripts[rank].len() {
                    next.op[rank] = 0;
                    next.half[rank] += 1;
                    if next.half[rank] as usize >= self.config.halves {
                        next.status[rank] = Status::Done;
                    }
                }
            }
        }
        Ok(next)
    }

    fn describe(&self, state: &State, step: Step) -> String {
        match step {
            Step::Die(r) => format!("worker {r}: injected death fires"),
            Step::Disconnect(r) => format!("worker {r}: observes Disconnected"),
            Step::Timeout(r) => format!("worker {r}: bounded wait expires"),
            Step::Advance(r) => {
                let half = state.half[r];
                if (half as usize) >= self.config.halves {
                    return format!("worker {r}: completes");
                }
                let micro = self.scripts[r][state.op[r] as usize];
                format!(
                    "worker {r} half {half}: {:?} on rank {}'s link {:?} (peer {})",
                    micro.kind, micro.sender, micro.toward, micro.peer
                )
            }
        }
    }
}

/// Exhaustively explores every interleaving of `config` and checks all
/// properties. Deterministic: identical configs produce identical
/// reports.
///
/// # Panics
///
/// Panics if `config.layout` has fewer than 2 or more than `MAX_RANKS`
/// workers, or
/// `config.halves` is outside `1..=MAX_HALVES` — configuration errors,
/// not model failures.
pub fn check(config: ModelConfig) -> Report {
    let ranks = config.layout.len();
    assert!(
        (2..=MAX_RANKS).contains(&ranks),
        "ranks must be 2..={MAX_RANKS}"
    );
    assert!(
        (1..=MAX_HALVES).contains(&config.halves),
        "halves must be 1..={MAX_HALVES}"
    );
    let model = Model::new(config);
    let mut all_done_terminals = 0u64;
    let mut lost_observed_terminals = 0u64;
    let stats = mc::explore(&model, &mc::Budget::default(), |state: &State| {
        // Quiescent: either all workers exited (terminal) or a live
        // worker waits forever (deadlock).
        let live = (0..ranks).any(|r| state.status[r] == Status::Running);
        if live {
            return Err(format!(
                "deadlock: workers {:?} blocked with no enabled transition",
                &state.status[..ranks]
            ));
        }
        let statuses = &state.status[..ranks];
        if statuses.iter().all(|s| *s == Status::Done) {
            all_done_terminals += 1;
            // Healthy completion must leave no undelivered row.
            let leftover = state
                .links
                .iter()
                .flatten()
                .any(|l| matches!(l, Loc::Data(_)));
            if leftover {
                return Err(
                    "lost message: all workers done but a row is still in flight".to_string(),
                );
            }
        }
        if statuses.contains(&Status::Lost) {
            lost_observed_terminals += 1;
        }
        match check_terminal(&model, state) {
            Some(v) => Err(v),
            None => Ok(()),
        }
    });
    Report {
        config,
        stats,
        all_done_terminals,
        lost_observed_terminals,
    }
}

/// Terminal-state property checks beyond deadlock and delivery.
fn check_terminal(model: &Model, state: &State) -> Option<String> {
    let config = model.config;
    let ranks = model.ranks();
    let statuses = &state.status[..ranks];
    if config.timeouts {
        // With nondeterministic timeouts the run may collapse before an
        // injected death fires, so only the weak property holds: every
        // worker ends in a typed terminal state.
        let all_typed = statuses.iter().all(|s| {
            matches!(
                s,
                Status::Done | Status::Dead | Status::Lost | Status::TimedOut
            )
        });
        if !all_typed {
            return Some(format!(
                "timeout run ended with an untyped worker state: {statuses:?}"
            ));
        }
        return None;
    }
    let kill_active = config
        .kill
        .is_some_and(|d| d.rank < ranks && d.at_half_iteration < config.halves);
    if let (Some(d), true) = (config.kill, kill_active) {
        if statuses[d.rank] != Status::Dead {
            return Some(format!(
                "injected death of rank {} at half {} never fired (terminal statuses {statuses:?})",
                d.rank, d.at_half_iteration
            ));
        }
        // A survivor distant from the dead rank may legitimately finish
        // all its half-iterations before the failure cascade reaches it
        // (e.g. kill an edge rank at the last half of a 3-rank chain),
        // so `Done` is an acceptable survivor outcome. What is *not*
        // acceptable is a survivor stuck in an untyped state.
        let survivors_typed = statuses
            .iter()
            .enumerate()
            .filter(|(r, _)| *r != d.rank)
            .all(|(_, s)| matches!(s, Status::Done | Status::Lost | Status::TimedOut));
        if !survivors_typed {
            return Some(format!(
                "a survivor of rank {}'s death ended in an untyped state (terminal statuses {statuses:?})",
                d.rank
            ));
        }
        if ranks > 1 && !statuses.contains(&Status::Lost) {
            return Some(format!(
                "no survivor observed Disconnected after rank {}'s death (terminal statuses {statuses:?})",
                d.rank
            ));
        }
    } else if !config.timeouts {
        // Healthy, patient: the only terminal is everyone Done.
        if !statuses.iter().all(|s| *s == Status::Done) {
            return Some(format!(
                "healthy patient run ended with non-Done workers: {statuses:?}"
            ));
        }
    } else {
        // Healthy with timeouts: every worker must end typed.
        let all_typed = statuses
            .iter()
            .all(|s| matches!(s, Status::Done | Status::Lost | Status::TimedOut));
        if !all_typed {
            return Some(format!(
                "timeout run ended with an untyped worker state: {statuses:?}"
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ranks: usize, halves: usize) -> ModelConfig {
        ModelConfig {
            layout: BlockLayout::new(ranks, 1),
            halves,
            kill: None,
            timeouts: false,
        }
    }

    #[test]
    fn two_ranks_two_halves_patient_is_deadlock_free() {
        let report = check(cfg(2, 2));
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert!(report.stats.states > 10);
        assert!(report.stats.terminals >= 1);
        assert_eq!(report.stats.terminals, report.all_done_terminals);
    }

    #[test]
    fn three_ranks_patient_is_deadlock_free() {
        let report = check(cfg(3, 2));
        assert!(report.holds(), "{:?}", report.stats.violation);
    }

    #[test]
    fn kill_reaches_typed_worker_died_in_every_schedule() {
        for rank in 0..2 {
            for half in 0..2 {
                let report = check(ModelConfig {
                    kill: Some(WorkerDeath {
                        rank,
                        at_half_iteration: half,
                    }),
                    ..cfg(2, 2)
                });
                assert!(
                    report.holds(),
                    "kill {rank}@{half}: {:?}",
                    report.stats.violation
                );
                assert_eq!(
                    report.stats.terminals, report.lost_observed_terminals,
                    "kill {rank}@{half}: some schedule missed the WorkerDied path"
                );
            }
        }
    }

    #[test]
    fn kill_past_the_horizon_never_fires() {
        let report = check(ModelConfig {
            kill: Some(WorkerDeath {
                rank: 0,
                at_half_iteration: 2,
            }),
            ..cfg(2, 2)
        });
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.stats.terminals, report.all_done_terminals);
    }

    #[test]
    fn timeout_mode_reaches_quiescence_everywhere() {
        let report = check(ModelConfig {
            timeouts: true,
            ..cfg(2, 2)
        });
        assert!(report.holds(), "{:?}", report.stats.violation);
        // With timeouts enabled there are both healthy and degraded
        // terminals; every one is typed (checked inside).
        assert!(report.all_done_terminals >= 1);
        assert!(report.stats.terminals > report.all_done_terminals);
    }

    #[test]
    fn two_by_two_blocks_are_deadlock_free_and_deaths_are_typed() {
        // Every worker of the smallest block grid talks both vertically
        // and horizontally: the topology the chain cannot stand in for.
        let blocks = ModelConfig {
            layout: BlockLayout::new(2, 2),
            ..cfg(2, 2)
        };
        let healthy = check(blocks);
        assert!(healthy.holds(), "{:?}", healthy.stats.violation);
        assert_eq!(healthy.stats.terminals, healthy.all_done_terminals);
        let killed = check(ModelConfig {
            kill: Some(WorkerDeath {
                rank: 3,
                at_half_iteration: 1,
            }),
            ..blocks
        });
        assert!(killed.holds(), "{:?}", killed.stats.violation);
        assert_eq!(killed.stats.terminals, killed.lost_observed_terminals);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = check(cfg(3, 2));
        let b = check(cfg(3, 2));
        assert_eq!(a.stats.states, b.stats.states);
        assert_eq!(a.stats.transitions, b.stats.transitions);
        assert_eq!(a.stats.terminals, b.stats.terminals);
    }
}
