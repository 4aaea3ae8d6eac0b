//! A reusable bounded explicit-state model-checking kernel.
//!
//! [`model`](crate::model) (PR 5) and [`ckpt`](crate::ckpt) (PR 8) each
//! grew a bespoke depth-first explorer: the same visited-set dedup, the
//! same DFS stack discipline, the same counterexample-trace
//! reconstruction, copy-pasted twice. This module factors that skeleton
//! into one kernel so new models — like the serving-path proof in
//! [`svc`](crate::svc) — are *just* a [`TransitionSystem`]: state,
//! enabled transitions, transition semantics, and a pretty-printer.
//!
//! The kernel provides:
//!
//! * **exhaustive DFS with state dedup** (`explore`) — every distinct
//!   state expanded exactly once, every transition from every state
//!   executed exactly once, deterministic order;
//! * **canonicalization** ([`TransitionSystem::canonical`]) — models
//!   with symmetric components (e.g. identical reader threads) map each
//!   state to a canonical representative before dedup, collapsing
//!   symmetric interleavings and (together with the dedup itself, which
//!   prunes stuttering transitions that reproduce a visited state) keeps
//!   larger configurations tractable;
//! * **depth/state budgets** (`Budget`) — bounded exploration that
//!   reports truncation instead of running away;
//! * **counterexample traces** — every violation, whether raised inside
//!   a transition or by the terminal-state check, carries the exact
//!   schedule from the initial state ([`Violation`]);
//! * **minimal counterexamples** (`shortest_violation`) — a
//!   breadth-first variant that returns the shortest schedule reaching
//!   any violation, used by the negative-control suites where a human
//!   reads the trace;
//! * **schedule harvesting** (`collect_schedules`) — concrete
//!   initial-to-terminal schedules out of the explored graph, which the
//!   conformance layer replays against the real implementation.
//!
//! The shared [`Violation`] here is the struct that used to be
//! copy-pasted between `model::Report` and the ckpt checker; both now
//! re-use it, as does [`svc`](crate::svc).

use std::collections::{HashSet, VecDeque};
use std::hash::Hash;

/// Why a checker rejected the model, with a schedule trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// What property broke.
    pub kind: String,
    /// Human-readable schedule: the sequence of steps from the initial
    /// state to the violating state.
    pub trace: Vec<String>,
}

/// Exploration budgets. The defaults are unlimited: the existing
/// protocol models are small enough to exhaust outright, and an
/// unlimited budget keeps their state counts bit-identical to the
/// pre-kernel explorers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Budget {
    /// Deepest schedule expanded; deeper frontiers are pruned (and the
    /// run marked truncated) instead of explored.
    pub max_depth: usize,
    /// Most distinct states admitted; once reached, new successors are
    /// pruned (and the run marked truncated).
    pub max_states: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            max_depth: usize::MAX,
            max_states: u64::MAX,
        }
    }
}

/// What one exhaustive exploration did and found. Embedded by each
/// checker's report type — this is the shared half that was previously
/// duplicated field-for-field.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Distinct (canonical) states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Distinct terminal (quiescent) states.
    pub terminals: u64,
    /// Deepest schedule explored.
    pub max_depth: usize,
    /// First property violation found, if any. `None` = proof (within
    /// this bound) that the property set holds.
    pub violation: Option<Violation>,
    /// True when a budget pruned part of the space: the absence of a
    /// violation is then *not* a proof.
    pub truncated: bool,
}

impl ExploreStats {
    /// True when the exploration finished without any violation.
    pub fn holds(&self) -> bool {
        self.violation.is_none()
    }
}

/// A model the kernel can explore: explicit state, enumerable
/// transitions, and transition semantics that may themselves raise a
/// safety violation.
// tidy:allow(PP011): the kernel tests/svc_conformance.rs replays EpochCache schedules through
pub trait TransitionSystem {
    /// Fully explicit, hashable global state.
    type State: Clone + Eq + Hash;
    /// One enabled transition (cheap to copy; usually a thread id or a
    /// small enum).
    type Action: Copy;

    /// The unique initial state.
    fn initial(&self) -> Self::State;

    /// All transitions enabled in `state`, in deterministic order. An
    /// empty vector marks the state terminal (quiescent).
    fn enabled(&self, state: &Self::State) -> Vec<Self::Action>;

    /// Applies `action`, returning the successor state, or a violation
    /// message when a safety property breaks inside the step.
    fn apply(&self, state: &Self::State, action: Self::Action) -> Result<Self::State, String>;

    /// Renders `action` (taken from `state`) for counterexample traces.
    fn describe(&self, state: &Self::State, action: Self::Action) -> String;

    /// Maps `state` to its canonical representative for dedup. The
    /// default is the identity; models with interchangeable components
    /// override it (e.g. sorting identical reader threads) to collapse
    /// symmetric states. Must be a congruence: canonical-equal states
    /// must have equivalent futures for every checked property.
    fn canonical(&self, state: &Self::State) -> Self::State {
        state.clone()
    }
}

/// One DFS stack frame: the state, its enabled actions, and the index
/// of the next action to try.
type Frame<S> = (
    <S as TransitionSystem>::State,
    Vec<<S as TransitionSystem>::Action>,
    usize,
);

/// One BFS node: the state, its parent's index, the action that
/// produced it, and its depth.
type BfsNode<S> = (
    <S as TransitionSystem>::State,
    usize,
    Option<<S as TransitionSystem>::Action>,
    usize,
);

/// The schedule leading to the DFS stack's current top, rendered.
fn trace_of<S: TransitionSystem>(sys: &S, stack: &[Frame<S>]) -> Vec<String> {
    stack
        .iter()
        .filter(|(_, steps, i)| *i > 0 && !steps.is_empty())
        .map(|(s, steps, i)| sys.describe(s, steps[i - 1]))
        .collect()
}

/// Exhaustively explores every interleaving of `sys` within `budget`,
/// depth-first with canonical-state dedup. Deterministic: identical
/// systems produce identical stats.
///
/// `on_terminal` runs once per distinct terminal state and performs the
/// model's terminal-state property checks (and any model-specific
/// terminal accounting); returning `Err` records a [`Violation`] with
/// the schedule that reached the terminal and stops the exploration.
/// Violations raised by [`TransitionSystem::apply`] are handled the same
/// way.
// tidy:allow(PP006): returns ExploreStats; the Result is the on_terminal closure's bound
pub(crate) fn explore<S, F>(sys: &S, budget: &Budget, mut on_terminal: F) -> ExploreStats
where
    S: TransitionSystem,
    F: FnMut(&S::State) -> Result<(), String>,
{
    let initial = sys.initial();
    let mut visited: HashSet<S::State> = HashSet::new();
    visited.insert(sys.canonical(&initial));
    let first_steps = sys.enabled(&initial);
    // DFS stack: (state, enabled steps, next step index).
    let mut stack: Vec<Frame<S>> = vec![(initial, first_steps, 0)];

    let mut stats = ExploreStats {
        states: 1,
        ..ExploreStats::default()
    };

    while let Some((state, steps, next_idx)) = stack.last().cloned() {
        stats.max_depth = stats.max_depth.max(stack.len() - 1);
        if steps.is_empty() {
            match on_terminal(&state) {
                Ok(()) => stats.terminals += 1,
                Err(kind) => {
                    stats.violation = Some(Violation {
                        kind,
                        trace: trace_of(sys, &stack),
                    });
                    return stats;
                }
            }
            stack.pop();
            continue;
        }
        if next_idx >= steps.len() {
            stack.pop();
            continue;
        }
        if stack.len() > budget.max_depth {
            stats.truncated = true;
            stack.pop();
            continue;
        }
        if let Some(top) = stack.last_mut() {
            top.2 += 1;
        }
        let action = steps[next_idx];
        stats.transitions += 1;
        match sys.apply(&state, action) {
            Ok(successor) => {
                if stats.states >= budget.max_states {
                    stats.truncated = true;
                } else if visited.insert(sys.canonical(&successor)) {
                    stats.states += 1;
                    let succ_steps = sys.enabled(&successor);
                    stack.push((successor, succ_steps, 0));
                }
            }
            Err(kind) => {
                stats.violation = Some(Violation {
                    kind,
                    trace: trace_of(sys, &stack),
                });
                return stats;
            }
        }
    }
    stats
}

/// Finds the violation with the shortest schedule, breadth-first, or
/// `None` when no violation is reachable within `budget.max_states`
/// explored states. `on_terminal` plays the same role as in
/// [`explore`]. Used by the negative-control suites: the returned trace
/// is minimal, so a human can read why the seeded bug breaks the
/// property.
// tidy:allow(PP006): returns Option<Violation>; the Result is the on_terminal closure's bound
pub(crate) fn shortest_violation<S, F>(
    sys: &S,
    budget: &Budget,
    mut on_terminal: F,
) -> Option<Violation>
where
    S: TransitionSystem,
    F: FnMut(&S::State) -> Result<(), String>,
{
    // BFS nodes: (state, parent index, action that produced it, depth).
    let initial = sys.initial();
    let mut nodes: Vec<BfsNode<S>> = vec![(initial.clone(), 0, None, 0)];
    let mut seen: HashSet<S::State> = HashSet::new();
    seen.insert(sys.canonical(&initial));
    let mut queue: VecDeque<usize> = VecDeque::from([0]);

    let trace_to = |nodes: &[BfsNode<S>], idx: usize| {
        let mut rev = Vec::new();
        let mut at = idx;
        while let Some(action) = nodes[at].2 {
            let parent = nodes[at].1;
            rev.push(sys.describe(&nodes[parent].0, action));
            at = parent;
        }
        rev.reverse();
        rev
    };

    // An apply-time violation discovered while expanding depth `d` has
    // trace length `d + 1`; a terminal violation at a later depth-`d`
    // node has length `d` and must win. Hold the pending candidate until
    // every node of a shallower depth has been checked.
    let mut pending: Option<(usize, Violation)> = None;

    while let Some(idx) = queue.pop_front() {
        let depth = nodes[idx].3;
        if let Some((len, _)) = &pending {
            if *len <= depth {
                return pending.map(|(_, v)| v);
            }
        }
        let state = nodes[idx].0.clone();
        let steps = sys.enabled(&state);
        if steps.is_empty() {
            if let Err(kind) = on_terminal(&state) {
                return Some(Violation {
                    kind,
                    trace: trace_to(&nodes, idx),
                });
            }
            continue;
        }
        for &action in &steps {
            match sys.apply(&state, action) {
                Ok(successor) => {
                    if nodes.len() as u64 >= budget.max_states {
                        continue;
                    }
                    if seen.insert(sys.canonical(&successor)) {
                        nodes.push((successor, idx, Some(action), depth + 1));
                        queue.push_back(nodes.len() - 1);
                    }
                }
                Err(kind) => {
                    if pending.is_none() {
                        let mut trace = trace_to(&nodes, idx);
                        trace.push(sys.describe(&state, action));
                        pending = Some((depth + 1, Violation { kind, trace }));
                    }
                }
            }
        }
    }
    pending.map(|(_, v)| v)
}

/// Harvests up to `limit` concrete initial-to-terminal schedules from
/// the explored graph, in deterministic DFS order. Each returned
/// schedule is a real executable path: replaying its actions from the
/// initial state via [`TransitionSystem::apply`] reaches a terminal
/// state. The conformance layer replays these against the real
/// implementation.
///
/// Exploration uses the same canonical-state dedup as [`explore`], so
/// the schedules cover every distinct terminal reachable in the reduced
/// graph rather than re-walking shared prefixes.
pub(crate) fn collect_schedules<S>(sys: &S, limit: usize) -> Vec<Vec<S::Action>>
where
    S: TransitionSystem,
{
    let initial = sys.initial();
    let mut visited: HashSet<S::State> = HashSet::new();
    visited.insert(sys.canonical(&initial));
    let first_steps = sys.enabled(&initial);
    let mut stack: Vec<Frame<S>> = vec![(initial, first_steps, 0)];
    let mut schedules = Vec::new();

    while let Some((state, steps, next_idx)) = stack.last().cloned() {
        if schedules.len() >= limit {
            break;
        }
        if steps.is_empty() {
            schedules.push(
                stack
                    .iter()
                    .filter(|(_, steps, i)| *i > 0 && !steps.is_empty())
                    .map(|(_, steps, i)| steps[i - 1])
                    .collect(),
            );
            stack.pop();
            continue;
        }
        if next_idx >= steps.len() {
            stack.pop();
            continue;
        }
        if let Some(top) = stack.last_mut() {
            top.2 += 1;
        }
        let action = steps[next_idx];
        if let Ok(successor) = sys.apply(&state, action) {
            if visited.insert(sys.canonical(&successor)) {
                let succ_steps = sys.enabled(&successor);
                stack.push((successor, succ_steps, 0));
            }
        }
    }
    schedules
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two independent counters, each stepping 0 -> `horizon`. The state
    /// space is the full grid of interleavings; a poisoned cell makes
    /// `apply` fail, a poisoned terminal makes the terminal check fail.
    struct Grid {
        horizon: u8,
        poison_cell: Option<(u8, u8)>,
        symmetric: bool,
    }

    impl TransitionSystem for Grid {
        type State = (u8, u8);
        type Action = u8;

        fn initial(&self) -> (u8, u8) {
            (0, 0)
        }

        fn enabled(&self, state: &(u8, u8)) -> Vec<u8> {
            let mut steps = Vec::new();
            if state.0 < self.horizon {
                steps.push(0);
            }
            if state.1 < self.horizon {
                steps.push(1);
            }
            steps
        }

        fn apply(&self, state: &(u8, u8), action: u8) -> Result<(u8, u8), String> {
            let next = if action == 0 {
                (state.0 + 1, state.1)
            } else {
                (state.0, state.1 + 1)
            };
            if self.poison_cell == Some(next) {
                return Err(format!("poisoned cell ({}, {})", next.0, next.1));
            }
            Ok(next)
        }

        fn describe(&self, state: &(u8, u8), action: u8) -> String {
            format!("counter {action} steps from ({}, {})", state.0, state.1)
        }

        fn canonical(&self, state: &(u8, u8)) -> (u8, u8) {
            if self.symmetric && state.1 < state.0 {
                (state.1, state.0)
            } else {
                *state
            }
        }
    }

    fn grid(horizon: u8) -> Grid {
        Grid {
            horizon,
            poison_cell: None,
            symmetric: false,
        }
    }

    #[test]
    fn explore_counts_the_full_grid() {
        let stats = explore(&grid(2), &Budget::default(), |_| Ok(()));
        // (horizon+1)^2 grid cells, one terminal corner, 2*h*(h+1) edges.
        assert_eq!(stats.states, 9);
        assert_eq!(stats.transitions, 12);
        assert_eq!(stats.terminals, 1);
        assert_eq!(stats.max_depth, 4);
        assert!(!stats.truncated);
        assert!(stats.holds());
    }

    #[test]
    fn symmetry_reduction_halves_the_off_diagonal() {
        let sys = Grid {
            symmetric: true,
            ..grid(2)
        };
        let stats = explore(&sys, &Budget::default(), |_| Ok(()));
        // 6 canonical cells: the upper triangle of the 3x3 grid.
        assert_eq!(stats.states, 6);
        assert!(stats.holds());
    }

    #[test]
    fn apply_violation_carries_the_schedule() {
        let sys = Grid {
            poison_cell: Some((1, 1)),
            ..grid(2)
        };
        let stats = explore(&sys, &Budget::default(), |_| Ok(()));
        let v = stats.violation.expect("poisoned cell must be found");
        assert_eq!(v.kind, "poisoned cell (1, 1)");
        // The trace ends with the step into the poisoned cell.
        assert!(!v.trace.is_empty());
        assert!(v.trace.last().unwrap().contains("steps from"));
    }

    #[test]
    fn terminal_violation_carries_the_schedule() {
        let stats = explore(&grid(2), &Budget::default(), |state: &(u8, u8)| {
            Err(format!("terminal ({}, {}) rejected", state.0, state.1))
        });
        let v = stats.violation.expect("terminal check must fire");
        assert_eq!(v.kind, "terminal (2, 2) rejected");
        assert_eq!(v.trace.len(), 4, "terminal sits at depth 4");
    }

    #[test]
    fn depth_budget_truncates_and_reports_it() {
        let budget = Budget {
            max_depth: 2,
            ..Budget::default()
        };
        let stats = explore(&grid(3), &budget, |_| Ok(()));
        assert!(stats.truncated);
        assert!(stats.max_depth <= 2);
        assert_eq!(stats.terminals, 0, "the only terminal sits past depth 2");
    }

    #[test]
    fn state_budget_truncates_and_reports_it() {
        let budget = Budget {
            max_states: 4,
            ..Budget::default()
        };
        let stats = explore(&grid(3), &budget, |_| Ok(()));
        assert!(stats.truncated);
        assert_eq!(stats.states, 4);
    }

    #[test]
    fn shortest_violation_is_minimal() {
        let sys = Grid {
            poison_cell: Some((2, 1)),
            ..grid(3)
        };
        let v = shortest_violation(&sys, &Budget::default(), |_| Ok(())).expect("reachable");
        // Minimal path to (2, 1) takes exactly 3 steps; DFS would detour.
        assert_eq!(v.trace.len(), 3);
        assert_eq!(v.kind, "poisoned cell (2, 1)");
    }

    #[test]
    fn shortest_terminal_violation_beats_a_deeper_apply_violation() {
        // Poison (3, 0) at depth 3; reject terminals at depth >= 2. The
        // first rejected "terminal"... there is only one true terminal,
        // so poison wins only if no terminal violation is shallower.
        let sys = Grid {
            poison_cell: Some((1, 0)),
            ..grid(1)
        };
        let v = shortest_violation(&sys, &Budget::default(), |_| {
            Err("terminal rejected".to_string())
        })
        .expect("something must fire");
        // Depth-1 apply violation vs depth-2 terminal: apply wins.
        assert_eq!(v.kind, "poisoned cell (1, 0)");
        assert_eq!(v.trace.len(), 1);
    }

    #[test]
    fn no_violation_returns_none() {
        assert!(shortest_violation(&grid(2), &Budget::default(), |_| Ok(())).is_none());
    }

    #[test]
    fn collected_schedules_replay_to_terminals() {
        let sys = grid(2);
        let schedules = collect_schedules(&sys, 64);
        assert!(!schedules.is_empty());
        for schedule in &schedules {
            let mut state = sys.initial();
            for &action in schedule {
                assert!(
                    sys.enabled(&state).contains(&action),
                    "schedule must be executable"
                );
                state = sys
                    .apply(&state, action)
                    .expect("no violations in a healthy grid");
            }
            assert!(sys.enabled(&state).is_empty(), "schedule must end terminal");
        }
    }

    #[test]
    fn schedule_limit_is_respected() {
        let schedules = collect_schedules(&grid(3), 2);
        assert!(schedules.len() <= 2);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&grid(3), &Budget::default(), |_| Ok(()));
        let b = explore(&grid(3), &Budget::default(), |_| Ok(()));
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.terminals, b.terminals);
    }
}
