//! The ghost exchange's properties on a chain of ranks, each explored
//! over every interleaving of the real mailboxes by `parallel`'s
//! explorer. Its suites pin the totals; these check one property each.

mod tests {
    use crate::decomp::BlockLayout;
    use crate::parallel::explore::{check, Config};

    fn cfg(ranks: usize, halves: usize) -> Config {
        Config::new(BlockLayout::new(ranks, 1), halves)
    }

    #[test]
    fn two_ranks_two_halves_patient_is_deadlock_free() {
        let report = check(cfg(2, 2));
        assert!(report.stats.holds(), "{:?}", report.stats.violation);
        assert!(report.stats.states > 10);
        assert!(report.stats.terminals >= 1);
        assert_eq!(report.stats.terminals, report.all_done);
    }

    #[test]
    fn kill_reaches_typed_worker_died_in_every_schedule() {
        for rank in 0..2 {
            for half in 0..2 {
                let report = check(cfg(2, 2).killing(rank, half));
                assert!(
                    report.stats.holds(),
                    "kill {rank}@{half}: {:?}",
                    report.stats.violation
                );
                assert_eq!(
                    report.stats.terminals, report.lost_observed,
                    "kill {rank}@{half}: some schedule missed the WorkerDied path"
                );
            }
        }
    }

    #[test]
    fn timeout_mode_reaches_quiescence_everywhere() {
        let report = check(cfg(2, 2).with_timeouts());
        assert!(report.stats.holds(), "{:?}", report.stats.violation);
        // With timeouts there are both healthy and degraded terminals;
        // the explorer types every one.
        assert!(report.all_done >= 1);
        assert!(report.stats.terminals > report.all_done);
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
