//! The Section-1.2 scheduling study, end-to-end: allocate an
//! embarrassingly parallel job under each policy using live stochastic
//! unit-time estimates, execute on real load traces, and compare mean and
//! tail completion times — quantifying the paper's claim that stochastic
//! values enable "a sophisticated scheduling strategy tuned to the user's
//! performance metric".

use prodpred_core::ep::{ep_policy_study, EpJob};
use prodpred_core::report::{f, render_table};
use prodpred_core::AllocationPolicy;
use prodpred_simgrid::Platform;

pub fn run() {
    println!("== EP scheduling study: allocation policy vs outcome ==\n");
    let job = EpJob {
        units: 400,
        unit_dedicated_secs: 0.25,
    };
    let policies: [(&str, AllocationPolicy); 3] = [
        ("by mean (point model)", AllocationPolicy::ByMean),
        (
            "risk-averse lambda=2",
            AllocationPolicy::RiskAverse { lambda: 2.0 },
        ),
        (
            "optimistic lambda=1",
            AllocationPolicy::Optimistic { lambda: 1.0 },
        ),
    ];

    // The two platform studies share nothing (each builds its own load
    // realizations), so they run concurrently on the work pool; printing
    // happens afterwards, in input order.
    let platforms = [
        (
            "Platform 1 (single-mode)",
            Platform::platform1 as fn(u64, f64) -> Platform,
        ),
        ("Platform 2 (bursty)", Platform::platform2),
    ];
    let tables = prodpred_pool::parallel_map(&platforms, 0, move |_, &(_, platform)| {
        ep_policy_study(&job, &platform(7, 200_000.0), &policies, 25, 180.0)
            .iter()
            .map(|r| {
                vec![
                    r.policy.clone(),
                    f(r.mean_secs, 1),
                    f(r.p95_secs, 1),
                    f(r.coverage * 100.0, 0),
                ]
            })
            .collect::<Vec<_>>()
    });
    for ((pname, _), table) in platforms.iter().zip(&tables) {
        println!("-- {pname} --\n");
        println!(
            "{}",
            render_table(
                &[
                    "policy",
                    "mean completion (s)",
                    "p95 completion (s)",
                    "coverage %"
                ],
                table
            )
        );
        println!();
    }
    println!(
        "On the stable platform the policies barely differ (variance is\n\
         tiny) and risk aversion gets a slightly tighter tail for free —\n\
         the paper's Table-1 story. Under bursty load the picture inverts:\n\
         runs (~40 s) are longer than bursts (~25 s), so each machine's\n\
         *run-averaged* load regresses toward its long-run mean, and a\n\
         policy that reacts strongly to the instantaneous NWS reading —\n\
         fleeing a machine that currently looks busy — misallocates by the\n\
         time the burst has passed. This is precisely why Section 2.1.2\n\
         says bursty data must be summarized by the multi-modal weighted\n\
         average over the run's time scale rather than by the current\n\
         sample: the variance that matters is the variance of the load the\n\
         run will actually experience."
    );
}
