//! A reusable explicit-state model-checking kernel.
//!
//! A model is *just* a `TransitionSystem`: state, enabled transitions,
//! transition semantics, and a pretty-printer. Its two users are
//! test-only explorers that run real code: `prodpred-sor`'s over the
//! ghost exchange's `RecycledSender` / `RecycledReceiver`, and
//! `prodpred-service`'s over the serving path's `EpochSwap`,
//! `EpochCache` and `Admission`.
//!
//! The kernel provides:
//!
//! * **one exhaustive breadth-first search with state dedup**
//!   (`explore`) — every distinct state expanded exactly once, every
//!   transition from every state executed exactly once, deterministic
//!   order;
//! * **canonicalization** (`TransitionSystem::canonical`) — models
//!   with symmetric components (e.g. identical reader threads) map each
//!   state to a canonical representative before dedup, collapsing
//!   symmetric interleavings and (together with the dedup itself, which
//!   prunes stuttering transitions that reproduce a visited state) keeps
//!   larger configurations tractable;
//! * **minimal counterexamples** — every violation, whether raised inside
//!   a transition or by the terminal-state check, carries the schedule
//!   from the initial state ([`Violation`]), and the search is
//!   breadth-first, so the first violation it finds has the shortest
//!   schedule of any.

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

/// What one exhaustive exploration did and found.
#[derive(Debug, Clone, Default)]
pub struct ExploreStats {
    /// Distinct (canonical) states visited.
    pub states: u64,
    /// Transitions executed.
    pub transitions: u64,
    /// Distinct terminal (quiescent) states.
    pub terminals: u64,
    /// Longest shortest schedule to any state.
    pub max_depth: usize,
    /// The violation with the shortest schedule, if any. `None` = proof
    /// that the property set holds.
    pub violation: Option<Violation>,
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

/// A discovered state: itself, its parent's index, and the action that
/// produced it (`None` for the initial state).
type Node<S> = (
    <S as TransitionSystem>::State,
    usize,
    Option<<S as TransitionSystem>::Action>,
);

/// A breadth-first search in progress.
struct Search<'a, S: TransitionSystem, F> {
    sys: &'a S,
    on_terminal: F,
    stats: ExploreStats,
    /// Canonical forms of every discovered state.
    visited: HashSet<S::State>,
    nodes: Vec<Node<S>>,
    /// Discovered states not yet expanded: node index, enabled actions,
    /// depth.
    frontier: VecDeque<(usize, Vec<S::Action>, usize)>,
}

impl<S, F> Search<'_, S, F>
where
    S: TransitionSystem,
    F: FnMut(&S::State) -> Result<(), String>,
{
    /// Expands the frontier in discovery order until it is empty or a
    /// check fails.
    fn run(&mut self) -> Result<(), Violation> {
        self.discover(self.sys.initial(), 0, None, 0)?;
        while let Some((at, steps, depth)) = self.frontier.pop_front() {
            for action in steps {
                self.stats.transitions += 1;
                let next = self
                    .sys
                    .apply(&self.nodes[at].0, action)
                    .map_err(|kind| self.violation(kind, at, Some(action)))?;
                self.discover(next, at, Some(action), depth + 1)?;
            }
        }
        Ok(())
    }

    /// Admits `state` unless a canonical-equal state was discovered
    /// before: counts it, then checks it if it is terminal or queues it
    /// for expansion.
    fn discover(
        &mut self,
        state: S::State,
        parent: usize,
        action: Option<S::Action>,
        depth: usize,
    ) -> Result<(), Violation> {
        if !self.visited.insert(self.sys.canonical(&state)) {
            return Ok(());
        }
        self.stats.states += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        let steps = self.sys.enabled(&state);
        self.nodes.push((state, parent, action));
        let at = self.nodes.len() - 1;
        if steps.is_empty() {
            (self.on_terminal)(&self.nodes[at].0).map_err(|kind| self.violation(kind, at, None))?;
            self.stats.terminals += 1;
        } else {
            self.frontier.push_back((at, steps, depth));
        }
        Ok(())
    }

    /// The violation `kind` reached through node `at`, and then by `last`
    /// when an action taken from it raised the violation.
    fn violation(&self, kind: String, at: usize, last: Option<S::Action>) -> Violation {
        let node = |i: usize| &self.nodes[i];
        let mut trace: Vec<String> = last
            .map(|action| self.sys.describe(&node(at).0, action))
            .into_iter()
            .collect();
        let mut i = at;
        while let (_, parent, Some(action)) = node(i) {
            trace.push(self.sys.describe(&node(*parent).0, *action));
            i = *parent;
        }
        trace.reverse();
        Violation { kind, trace }
    }
}

/// Exhaustively explores every interleaving of `sys`, breadth-first with
/// canonical-state dedup. Deterministic: identical systems produce
/// identical stats.
///
/// `on_terminal` runs once per distinct terminal state and performs the
/// model's terminal-state property checks (and any model-specific
/// terminal accounting); returning `Err` records a [`Violation`] with
/// the schedule that reached the terminal and stops the exploration.
/// Violations raised by [`TransitionSystem::apply`] are handled the same
/// way. States are expanded in order of their shortest schedule, so the
/// first violation found has the shortest schedule of any: a
/// counterexample a human can read.
pub fn explore<S, F>(sys: &S, on_terminal: F) -> ExploreStats
where
    S: TransitionSystem,
    F: FnMut(&S::State) -> Result<(), String>,
{
    let mut search = Search {
        sys,
        on_terminal,
        stats: ExploreStats::default(),
        visited: HashSet::new(),
        nodes: Vec::new(),
        frontier: VecDeque::new(),
    };
    let violation = search.run().err();
    ExploreStats {
        violation,
        ..search.stats
    }
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
        let stats = explore(&grid(2), |_| Ok(()));
        // (horizon+1)^2 grid cells, one terminal corner, 2*h*(h+1) edges.
        assert_eq!(stats.states, 9);
        assert_eq!(stats.transitions, 12);
        assert_eq!(stats.terminals, 1);
        assert_eq!(stats.max_depth, 4);
        assert!(stats.holds());
    }

    #[test]
    fn symmetry_reduction_halves_the_off_diagonal() {
        let sys = Grid {
            symmetric: true,
            ..grid(2)
        };
        let stats = explore(&sys, |_| Ok(()));
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
        let stats = explore(&sys, |_| Ok(()));
        let v = stats.violation.expect("poisoned cell must be found");
        assert_eq!(v.kind, "poisoned cell (1, 1)");
        // The trace ends with the step into the poisoned cell.
        assert_eq!(
            v.trace,
            ["counter 0 steps from (0, 0)", "counter 1 steps from (1, 0)"]
        );
    }

    #[test]
    fn terminal_violation_carries_the_schedule() {
        let stats = explore(&grid(2), |state: &(u8, u8)| {
            Err(format!("terminal ({}, {}) rejected", state.0, state.1))
        });
        let v = stats.violation.expect("terminal check must fire");
        assert_eq!(v.kind, "terminal (2, 2) rejected");
        assert_eq!(v.trace.len(), 4, "terminal sits at depth 4");
    }

    #[test]
    fn shortest_violation_is_minimal() {
        let sys = Grid {
            poison_cell: Some((2, 1)),
            ..grid(3)
        };
        let v = explore(&sys, |_| Ok(())).violation.expect("reachable");
        // Minimal path to (2, 1) takes exactly 3 steps; DFS would detour.
        assert_eq!(v.trace.len(), 3);
        assert_eq!(v.kind, "poisoned cell (2, 1)");
    }

    #[test]
    fn shortest_terminal_violation_beats_a_deeper_apply_violation() {
        // Depth-1 apply violation vs depth-2 terminal: apply wins.
        let sys = Grid {
            poison_cell: Some((1, 0)),
            ..grid(1)
        };
        let v = explore(&sys, |_| Err("terminal rejected".to_string()))
            .violation
            .expect("something must fire");
        assert_eq!(v.kind, "poisoned cell (1, 0)");
        assert_eq!(v.trace.len(), 1);
    }

    #[test]
    fn no_violation_returns_none() {
        assert!(explore(&grid(2), |_| Ok(())).violation.is_none());
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&grid(3), |_| Ok(()));
        let b = explore(&grid(3), |_| Ok(()));
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.terminals, b.terminals);
    }
}
