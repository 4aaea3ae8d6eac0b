//! Table 1: execution times for a unit of work in dedicated and production
//! modes on two machines, plus the scheduling consequences the paper draws
//! from them (Section 1.2).

use prodpred_core::report::render_table;
use prodpred_core::{allocate_units, planned_completion, AllocationPolicy};
use prodpred_stochastic::StochasticValue;

pub fn run() {
    println!("== Table 1: execution times for a unit of work ==\n");
    let dedicated = [StochasticValue::point(10.0), StochasticValue::point(5.0)];
    let production_point = [StochasticValue::point(12.0), StochasticValue::point(12.0)];
    let production_stoch = [
        StochasticValue::from_percent(12.0, 5.0),
        StochasticValue::from_percent(12.0, 30.0),
    ];
    let rows = vec![
        vec![
            "Dedicated".to_string(),
            format!("{} sec", dedicated[0].mean()),
            format!("{} sec", dedicated[1].mean()),
        ],
        vec![
            "Production (point)".to_string(),
            format!("{} sec", production_point[0].mean()),
            format!("{} sec", production_point[1].mean()),
        ],
        vec![
            "Production (stochastic)".to_string(),
            format!(
                "12 sec ± 5%  ({:.1}..{:.1})",
                production_stoch[0].lo(),
                production_stoch[0].hi()
            ),
            format!(
                "12 sec ± 30% ({:.1}..{:.1})",
                production_stoch[1].lo(),
                production_stoch[1].hi()
            ),
        ],
    ];
    println!(
        "{}",
        render_table(&["mode", "Machine A", "Machine B"], &rows)
    );

    println!("\n-- scheduling consequences for 100 units of work --\n");
    let mut rows = Vec::new();
    let ded_alloc = allocate_units(100, &dedicated, AllocationPolicy::ByMean);
    rows.push(vec![
        "dedicated, by mean".to_string(),
        format!("{:?}", ded_alloc),
        format!("{}", planned_completion(&ded_alloc, &dedicated)),
    ]);
    for (label, times, policy) in [
        (
            "production, by mean (point model)",
            &production_stoch,
            AllocationPolicy::ByMean,
        ),
        (
            "production, risk-averse (lambda = 2)",
            &production_stoch,
            AllocationPolicy::RiskAverse { lambda: 2.0 },
        ),
        (
            "production, optimistic (lambda = 1)",
            &production_stoch,
            AllocationPolicy::Optimistic { lambda: 1.0 },
        ),
    ] {
        let alloc = allocate_units(100, times, policy);
        rows.push(vec![
            label.to_string(),
            format!("{:?}", alloc),
            format!("{}", planned_completion(&alloc, times)),
        ]);
    }
    println!(
        "{}",
        render_table(
            &["strategy", "units [A, B]", "planned completion (sec)"],
            &rows
        )
    );
    println!(
        "\nDedicated: B is twice as fast, so it receives twice the work.\n\
         Production: equal means suggest an even split, but the stochastic\n\
         values reveal B's ±30% spread — the risk-averse plan shifts work to\n\
         the stable machine A and shrinks the worst-case completion time."
    );
}
