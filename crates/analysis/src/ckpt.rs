//! Bounded, exhaustive model checking of the checkpoint/resume
//! recovery protocol.
//!
//! `prodpred-sor`'s ghost-exchange explorer proves the *intra-solve*
//! story on the real mailboxes: within one parallel solve, an injected
//! death surfaces as a typed `WorkerDied` in every interleaving. This
//! module proves the *inter-solve* story
//! layered on top of it by `prodpred_sor::checkpoint` and the
//! supervisor: segments bounded by checkpoint barriers, a grid
//! snapshot at every completed boundary short of the end, and on death
//! a rollback to the latest snapshot with the kill schedule addressed
//! in **absolute** half-iterations (`kill_in_segment`'s
//! `checked_sub(2 * start_iteration)` translation).
//!
//! The model drives one abstract worker per rank through global
//! half-iteration positions. Workers advance independently inside a
//! segment (every interleaving of those advances is explored), stop at
//! the segment boundary, and a single atomic barrier step — the
//! driver thread between solves — records the checkpoint and releases
//! the next segment. A scheduled kill fires exactly when its rank is
//! about to execute its absolute half-iteration; survivors observe the
//! death in any order (the cascade the intra-solve explorer already
//! proved), and a restart transition rolls every rank back to the
//! checkpoint, consuming the kill. Attempt `k` of the run faces kill
//! `k` of the schedule, mirroring the chaos campaign.
//!
//! Exhaustive exploration then proves, for every interleaving of every
//! configuration checked:
//!
//! * **deadlock freedom** — no reachable state strands a live worker
//!   with no enabled transition;
//! * **a consumed death never re-fires** — a kill whose absolute
//!   half-iteration precedes `2 * resume` can never match a worker
//!   position again (worker positions start at `2 * resume` and only
//!   grow), and the checker verifies the schedule-independent fire
//!   count exactly;
//! * **killed-then-resumed converges** — every terminal state agrees
//!   with the straight-line (interleaving-free) expectation: either
//!   all workers `Done` at full delivery — the exact state of an
//!   unfaulted run — or, with the retry budget exhausted, all
//!   `Abandoned`. No interleaving changes the outcome.

use crate::mc::{self, ExploreStats, TransitionSystem};
use prodpred_simgrid::faults::WorkerDeath;

/// Upper bound on ranks the fixed-size state encoding supports.
pub const MAX_RANKS: usize = 4;
/// Upper bound on scheduled kills (one per retry attempt).
pub const MAX_KILLS: usize = 3;
/// Upper bound on iterations (positions are half-iterations in a u8).
pub const MAX_ITERATIONS: usize = 8;

/// One checker configuration: topology, horizon, checkpoint cadence,
/// kill schedule, and retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CkptConfig {
    /// Number of workers (2..=4).
    pub ranks: usize,
    /// Iterations of the whole solve (1..=8).
    pub iterations: usize,
    /// Checkpoint cadence in iterations; 0 disables checkpointing
    /// (every retry recomputes from iteration 0).
    pub every: usize,
    /// Kill schedule in **absolute** half-iterations: attempt `k`
    /// faces `kills[k]`. `None` entries (and the tail past the first
    /// `None`) leave the attempt unfaulted.
    pub kills: [Option<WorkerDeath>; MAX_KILLS],
    /// Retries allowed beyond the first attempt; a kill firing on
    /// attempt `max_retries` abandons the run.
    pub max_retries: u32,
}

/// How the model checker expects (and requires) a run to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every worker delivers all iterations — the unfaulted state.
    Completed,
    /// The retry budget was exhausted by firing kills.
    Abandoned,
}

/// Per-worker status in the recovery protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum St {
    /// Advancing through the current segment.
    Running,
    /// Waiting at a segment boundary for the checkpoint barrier.
    AtBarrier,
    /// Its scheduled kill fired.
    Dead,
    /// Observed a peer's death (the typed `WorkerDied` path).
    Aborted,
    /// Delivered every half-iteration.
    Done,
    /// Run abandoned with the retry budget exhausted.
    Abandoned,
}

/// Global model state: fully explicit, hashable, fixed-size.
#[derive(Clone, PartialEq, Eq, Hash)]
struct State {
    /// Current attempt (kill schedule index).
    attempt: u8,
    /// Iteration the current attempt started from.
    resume: u8,
    /// Latest recorded checkpoint iteration.
    checkpoint: u8,
    /// Kills that actually fired so far.
    fired: u8,
    /// Per-worker absolute half-iteration position.
    half: [u8; MAX_RANKS],
    status: [St; MAX_RANKS],
}

/// What one enabled transition does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The worker executes its next half-iteration.
    Advance(usize),
    /// The worker's scheduled kill fires.
    Die(usize),
    /// The worker observes a dead peer and aborts the attempt.
    Observe(usize),
    /// All workers at the boundary: snapshot (or complete) atomically.
    Barrier,
    /// Death observed everywhere: roll back to the checkpoint (or
    /// abandon with the budget exhausted).
    Restart,
}

/// The result of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct CkptReport {
    /// Configuration explored.
    pub config: CkptConfig,
    /// Shared exploration accounting, including any
    /// [`Violation`](crate::mc::Violation).
    pub stats: ExploreStats,
    /// Terminals with every worker `Done` at full delivery.
    pub completed_terminals: u64,
    /// Terminals with the run abandoned.
    pub abandoned_terminals: u64,
    /// The straight-line expectation every terminal must match.
    pub expected: Outcome,
    /// Kills the straight-line expectation says must fire.
    pub expected_fired: u8,
}

impl CkptReport {
    /// True when the exploration finished without any violation.
    pub fn holds(&self) -> bool {
        self.stats.holds()
    }
}

struct Model {
    config: CkptConfig,
}

impl Model {
    /// True when `iter` ends a segment of the attempt started at
    /// `resume` — mirrors `run_segments`' boundary grid.
    fn is_boundary(&self, resume: usize, iter: usize) -> bool {
        iter == self.config.iterations
            || (iter > resume && (iter - resume).is_multiple_of(self.config.every))
    }

    /// The kill attempt `attempt` faces, if any.
    fn kill_for(&self, attempt: u8) -> Option<WorkerDeath> {
        self.config
            .kills
            .get(attempt as usize)
            .copied()
            .flatten()
            .filter(|d| d.rank < self.config.ranks)
    }
}

impl TransitionSystem for Model {
    type State = State;
    type Action = Step;

    fn initial(&self) -> State {
        State {
            attempt: 0,
            resume: 0,
            checkpoint: 0,
            fired: 0,
            half: [0; MAX_RANKS],
            status: [St::Running; MAX_RANKS],
        }
    }

    /// All transitions enabled in `state`, in deterministic order.
    fn enabled(&self, state: &State) -> Vec<Step> {
        let ranks = self.config.ranks;
        let any_dead = state.status[..ranks].contains(&St::Dead);
        let mut steps = Vec::new();
        for rank in 0..ranks {
            match state.status[rank] {
                St::Running => {
                    let fires = self.kill_for(state.attempt).is_some_and(|d| {
                        d.rank == rank && d.at_half_iteration == state.half[rank] as usize
                    });
                    if fires {
                        // The death preempts the half-iteration: dying
                        // is this worker's only step.
                        steps.push(Step::Die(rank));
                        continue;
                    }
                    if any_dead {
                        steps.push(Step::Observe(rank));
                    }
                    steps.push(Step::Advance(rank));
                }
                St::AtBarrier if any_dead => steps.push(Step::Observe(rank)),
                _ => {}
            }
        }
        // Barrier: the driver thread between segments. Atomic, and only
        // when every worker reached the boundary alive.
        if !any_dead && (0..ranks).all(|r| state.status[r] == St::AtBarrier) {
            steps.push(Step::Barrier);
        }
        // Restart: one worker dead, every survivor has aborted.
        if any_dead && (0..ranks).all(|r| matches!(state.status[r], St::Dead | St::Aborted)) {
            steps.push(Step::Restart);
        }
        steps
    }

    /// Applies `step`, returning the successor state, or a violation
    /// message when a safety property breaks inside the step.
    fn apply(&self, state: &State, step: Step) -> Result<State, String> {
        let ranks = self.config.ranks;
        let mut next = state.clone();
        match step {
            Step::Advance(rank) => {
                next.half[rank] += 1;
                let h = next.half[rank] as usize;
                if h.is_multiple_of(2) && self.is_boundary(next.resume as usize, h / 2) {
                    next.status[rank] = St::AtBarrier;
                }
            }
            Step::Die(rank) => {
                let Some(kill) = self.kill_for(next.attempt) else {
                    return Err(format!(
                        "model invariant: rank {rank} died with no kill scheduled"
                    ));
                };
                // The consumed-death property, checked rather than
                // assumed: a kill behind the resume point can never
                // match a worker position again.
                if kill.at_half_iteration < 2 * next.resume as usize {
                    return Err(format!(
                        "consumed death re-fired: kill at half {} behind resume iteration {}",
                        kill.at_half_iteration, next.resume
                    ));
                }
                if next.fired != next.attempt {
                    return Err(format!(
                        "kill {} fired twice (attempt {}, {} kills already fired)",
                        next.attempt, next.attempt, next.fired
                    ));
                }
                next.fired += 1;
                next.status[rank] = St::Dead;
            }
            Step::Observe(rank) => next.status[rank] = St::Aborted,
            Step::Barrier => {
                let boundary = next.half[0] as usize / 2;
                if next.half[..ranks]
                    .iter()
                    .any(|&h| h as usize != 2 * boundary)
                {
                    return Err(format!(
                        "barrier with workers at unequal boundaries: {:?}",
                        &next.half[..ranks]
                    ));
                }
                if boundary == self.config.iterations {
                    for r in 0..ranks {
                        next.status[r] = St::Done;
                    }
                } else {
                    // `run_segments` records a checkpoint at every
                    // completed boundary short of the end.
                    next.checkpoint = boundary as u8;
                    for r in 0..ranks {
                        next.status[r] = St::Running;
                    }
                }
            }
            Step::Restart => {
                if u32::from(next.attempt) >= self.config.max_retries {
                    for r in 0..ranks {
                        next.status[r] = St::Abandoned;
                    }
                } else {
                    next.attempt += 1;
                    next.resume = next.checkpoint;
                    for r in 0..ranks {
                        next.half[r] = 2 * next.resume;
                        next.status[r] = St::Running;
                    }
                }
            }
        }
        Ok(next)
    }

    fn describe(&self, state: &State, step: Step) -> String {
        match step {
            Step::Advance(r) => format!(
                "worker {r} attempt {}: half {} -> {}",
                state.attempt,
                state.half[r],
                state.half[r] + 1
            ),
            Step::Die(r) => format!(
                "worker {r} attempt {}: scheduled kill fires at half {}",
                state.attempt, state.half[r]
            ),
            Step::Observe(r) => format!("worker {r}: observes the death, aborts the attempt"),
            Step::Barrier => format!(
                "barrier at iteration {}: checkpoint or complete",
                state.half[0] / 2
            ),
            Step::Restart => format!(
                "restart after attempt {}: roll back to checkpoint {}",
                state.attempt, state.checkpoint
            ),
        }
    }
}

/// The interleaving-free expectation: replays the kill schedule against
/// the segment grid exactly as `run_segments` + the supervisor would,
/// with no concurrency. Every explored terminal must match it.
fn straight_line(config: &CkptConfig) -> (Outcome, u8) {
    let mut resume = 0usize;
    let mut checkpoint = 0usize;
    let mut fired = 0u8;
    for attempt in 0..=(MAX_KILLS as u32) {
        let kill = config
            .kills
            .get(attempt as usize)
            .copied()
            .flatten()
            .filter(|d| d.rank < config.ranks);
        let fires = kill.is_some_and(|d| {
            d.at_half_iteration >= 2 * resume && d.at_half_iteration < 2 * config.iterations
        });
        let Some(kill) = kill.filter(|_| fires) else {
            return (Outcome::Completed, fired);
        };
        fired += 1;
        if attempt >= config.max_retries {
            return (Outcome::Abandoned, fired);
        }
        let it = kill.at_half_iteration / 2;
        if let Some(behind) = (it - resume).checked_div(config.every) {
            checkpoint = resume + behind * config.every;
        }
        resume = checkpoint;
    }
    (Outcome::Completed, fired)
}

/// Exhaustively explores every interleaving of `config` and checks all
/// properties. Deterministic: identical configs produce identical
/// reports.
///
/// # Panics
///
/// Panics if `config.ranks` is outside `2..=MAX_RANKS`,
/// `config.iterations` is outside `1..=MAX_ITERATIONS`, or
/// `config.max_retries` exceeds [`MAX_KILLS`] — configuration errors,
/// not model failures.
pub fn check_ckpt(config: CkptConfig) -> CkptReport {
    assert!(
        (2..=MAX_RANKS).contains(&config.ranks),
        "ranks must be 2..={MAX_RANKS}"
    );
    assert!(
        (1..=MAX_ITERATIONS).contains(&config.iterations),
        "iterations must be 1..={MAX_ITERATIONS}"
    );
    assert!(
        config.max_retries as usize <= MAX_KILLS,
        "max_retries must be <= {MAX_KILLS} (the kill schedule bound)"
    );
    let model = Model { config };
    let (expected, expected_fired) = straight_line(&config);
    let mut completed_terminals = 0u64;
    let mut abandoned_terminals = 0u64;
    let stats = mc::explore(&model, |state: &State| {
        if let Some(kind) = check_terminal(&model, state, expected, expected_fired) {
            return Err(kind);
        }
        if state.status[0] == St::Abandoned {
            abandoned_terminals += 1;
        } else {
            completed_terminals += 1;
        }
        Ok(())
    });
    CkptReport {
        config,
        stats,
        completed_terminals,
        abandoned_terminals,
        expected,
        expected_fired,
    }
}

/// Terminal-state checks: no deadlock, and every terminal matches the
/// straight-line expectation exactly.
fn check_terminal(
    model: &Model,
    state: &State,
    expected: Outcome,
    expected_fired: u8,
) -> Option<String> {
    let ranks = model.config.ranks;
    let statuses = &state.status[..ranks];
    let live = statuses
        .iter()
        .any(|s| matches!(s, St::Running | St::AtBarrier | St::Dead | St::Aborted));
    if live {
        return Some(format!(
            "deadlock: workers {statuses:?} quiescent without completing or abandoning"
        ));
    }
    let outcome = if statuses.iter().all(|s| *s == St::Done) {
        Outcome::Completed
    } else if statuses.iter().all(|s| *s == St::Abandoned) {
        Outcome::Abandoned
    } else {
        return Some(format!("terminal with mixed worker outcomes: {statuses:?}"));
    };
    if outcome != expected {
        return Some(format!(
            "outcome diverged from the straight-line run: this interleaving {outcome:?}, expected {expected:?}"
        ));
    }
    if state.fired != expected_fired {
        return Some(format!(
            "fire count diverged: this interleaving fired {} kills, the straight-line run fires {expected_fired}",
            state.fired
        ));
    }
    if outcome == Outcome::Completed {
        // Full delivery: the exact final position of an unfaulted run.
        let full = 2 * model.config.iterations as u8;
        if state.half[..ranks].iter().any(|&h| h != full) {
            return Some(format!(
                "completed terminal short of full delivery: halves {:?}, expected {full} everywhere",
                &state.half[..ranks]
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(ranks: usize, iterations: usize, every: usize) -> CkptConfig {
        CkptConfig {
            ranks,
            iterations,
            every,
            kills: [None; MAX_KILLS],
            max_retries: 3,
        }
    }

    fn kill(rank: usize, at_half_iteration: usize) -> Option<WorkerDeath> {
        Some(WorkerDeath {
            rank,
            at_half_iteration,
        })
    }

    #[test]
    fn healthy_run_completes_in_every_interleaving() {
        let report = check_ckpt(cfg(3, 4, 2));
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.expected, Outcome::Completed);
        assert_eq!(report.stats.terminals, report.completed_terminals);
        assert!(report.stats.states > 10);
    }

    #[test]
    fn every_single_kill_position_recovers_everywhere() {
        let base = cfg(2, 3, 1);
        for rank in 0..2 {
            for half in 0..6 {
                let mut config = base;
                config.kills[0] = kill(rank, half);
                let report = check_ckpt(config);
                assert!(
                    report.holds(),
                    "kill {rank}@{half}: {:?}",
                    report.stats.violation
                );
                assert_eq!(
                    report.expected,
                    Outcome::Completed,
                    "kill {rank}@{half} must be recoverable within the budget"
                );
                assert_eq!(report.expected_fired, 1);
                assert_eq!(report.stats.terminals, report.completed_terminals);
            }
        }
    }

    #[test]
    fn a_consumed_death_behind_the_checkpoint_never_refires() {
        // Kill 0 fires at half 6 (iteration 3); the checkpoint grid at
        // cadence 2 has recorded iteration 2, so the retry resumes at
        // half 4. Kill 1 sits at half 2 — behind the resume point — and
        // must be consumed without firing in every interleaving.
        let mut config = cfg(3, 4, 2);
        config.kills[0] = kill(1, 6);
        config.kills[1] = kill(2, 2);
        let report = check_ckpt(config);
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.expected, Outcome::Completed);
        assert_eq!(
            report.expected_fired, 1,
            "the behind-resume kill must not count as a fire"
        );
        assert_eq!(report.stats.terminals, report.completed_terminals);
    }

    #[test]
    fn repeated_kills_exhaust_the_budget_into_abandonment() {
        let mut config = cfg(2, 2, 1);
        config.max_retries = 1;
        // Both attempts die at the same absolute position (the retry
        // resumes at checkpoint 1, half 2, so half 2 re-fires).
        config.kills[0] = kill(0, 2);
        config.kills[1] = kill(1, 2);
        let report = check_ckpt(config);
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.expected, Outcome::Abandoned);
        assert_eq!(report.expected_fired, 2);
        assert_eq!(report.stats.terminals, report.abandoned_terminals);
    }

    #[test]
    fn disabled_checkpointing_recomputes_from_scratch_and_recovers() {
        let mut config = cfg(2, 3, 0);
        config.kills[0] = kill(1, 5);
        let report = check_ckpt(config);
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.expected, Outcome::Completed);
        assert_eq!(report.stats.terminals, report.completed_terminals);
    }

    #[test]
    fn kill_past_the_horizon_never_fires() {
        let mut config = cfg(2, 2, 1);
        config.kills[0] = kill(0, 4); // == 2 * iterations: out of range
        let report = check_ckpt(config);
        assert!(report.holds(), "{:?}", report.stats.violation);
        assert_eq!(report.expected_fired, 0);
        assert_eq!(report.stats.terminals, report.completed_terminals);
    }

    #[test]
    fn exploration_is_deterministic() {
        let mut config = cfg(3, 4, 2);
        config.kills[0] = kill(0, 3);
        let a = check_ckpt(config);
        let b = check_ckpt(config);
        assert_eq!(a.stats.states, b.stats.states);
        assert_eq!(a.stats.transitions, b.stats.transitions);
        assert_eq!(a.stats.terminals, b.stats.terminals);
    }
}
