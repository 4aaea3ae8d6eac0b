//! The checkpoint/resume properties, one configuration each, on the real
//! supervised solve. Each runs through `recovery_sweep::check`, so it is
//! held to the straight-line oracle first; the sweep there runs the whole
//! space and pins its size. The names are those of the hand-written model
//! these checks replaced. A solve has one path between its segments, and
//! the interleavings inside a segment are `prodpred-sor`'s explorer's to
//! prove.

mod tests {
    use crate::supervisor::recovery_sweep::{check, Case};
    use prodpred_simgrid::faults::WorkerDeath;

    fn cfg(ranks: usize, iterations: usize, every: usize) -> Case {
        Case {
            ranks,
            iterations,
            every,
            kills: Vec::new(),
            max_retries: 3,
        }
    }

    fn kill(rank: usize, at_half_iteration: usize) -> WorkerDeath {
        WorkerDeath {
            rank,
            at_half_iteration,
        }
    }

    #[test]
    fn healthy_run_completes_in_every_interleaving() {
        let verdict = check(&cfg(3, 4, 2));
        assert_eq!(verdict.abandoned_by, None);
        assert_eq!(verdict.fired, 0);
        assert_eq!(verdict.grid_at, Some(4));
    }

    #[test]
    fn every_single_kill_position_recovers_everywhere() {
        for rank in 0..2 {
            for half in 0..6 {
                let verdict = check(&Case {
                    kills: vec![kill(rank, half)],
                    ..cfg(2, 3, 1)
                });
                assert_eq!(verdict.abandoned_by, None, "kill {rank}@{half}");
                assert_eq!(verdict.fired, 1, "kill {rank}@{half}");
                assert_eq!(verdict.grid_at, Some(3), "kill {rank}@{half}");
            }
        }
    }

    #[test]
    fn a_consumed_death_behind_the_checkpoint_never_refires() {
        // Kill 0 fires at half 6 (iteration 3); at cadence 2 the latest
        // checkpoint is iteration 2, so the retry resumes at half 4. Kill
        // 1 sits at half 2, behind the resume point, and must not fire.
        let verdict = check(&Case {
            kills: vec![kill(1, 6), kill(2, 2)],
            ..cfg(3, 4, 2)
        });
        assert_eq!(verdict.abandoned_by, None);
        assert_eq!(verdict.fired, 1, "the behind-resume kill must not fire");
        assert_eq!(verdict.resumed_iterations_saved, 2);
    }

    #[test]
    fn repeated_kills_exhaust_the_budget_into_abandonment() {
        // Both attempts die at half 2: the retry resumes at checkpoint 1,
        // half 2, so the second kill fires too, and the grid is left at
        // that checkpoint.
        let verdict = check(&Case {
            kills: vec![kill(0, 2), kill(1, 2)],
            max_retries: 1,
            ..cfg(2, 2, 1)
        });
        assert_eq!(verdict.abandoned_by, Some(1));
        assert_eq!(verdict.fired, 2);
        assert_eq!(verdict.grid_at, Some(1));
    }

    #[test]
    fn disabled_checkpointing_recomputes_from_scratch_and_recovers() {
        let verdict = check(&Case {
            kills: vec![kill(1, 5)],
            ..cfg(2, 3, 0)
        });
        assert_eq!(verdict.abandoned_by, None);
        assert_eq!(verdict.resumed_iterations_saved, 0);
        assert_eq!(verdict.grid_at, Some(3));
    }

    #[test]
    fn kill_past_the_horizon_never_fires() {
        // Half 4 is 2 * iterations: past the last half-iteration.
        let verdict = check(&Case {
            kills: vec![kill(0, 4)],
            ..cfg(2, 2, 1)
        });
        assert_eq!(verdict.fired, 0);
    }

    #[test]
    fn exploration_is_deterministic() {
        let case = Case {
            kills: vec![kill(0, 3)],
            ..cfg(3, 4, 2)
        };
        assert_eq!(check(&case), check(&case));
    }
}
