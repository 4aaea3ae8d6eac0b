//! Table 2: the arithmetic combination rules for stochastic values,
//! validated against Monte-Carlo ground truth for the independence cases
//! and against worst-case interval arithmetic for the related cases.

use prodpred_core::report::{f, render_table};
use prodpred_stochastic::{Dependence, Distribution, StochasticValue, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monte-Carlo ground truth for `a op b` over independent normals.
fn mc(a: StochasticValue, b: StochasticValue, seed: u64, op: fn(f64, f64) -> f64) -> StochasticValue {
    let (na, nb) = (a.to_normal(), b.to_normal());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut s = Summary::new();
    for _ in 0..400_000 {
        s.push(op(na.sample(&mut rng), nb.sample(&mut rng)));
    }
    StochasticValue::from_mean_sd(s.mean(), s.sd())
}

pub fn run() {
    println!("== Table 2: arithmetic combinations of stochastic values ==\n");
    let x = StochasticValue::new(12.0, 0.6);
    let y = StochasticValue::new(5.0, 1.0);
    let p = 3.0;
    let add_mc = mc(x, y, 7, |a, b| a + b);
    let mul_mc = mc(x, y, 8, |a, b| a * b);

    let rows = vec![
        vec![
            "point + stochastic".to_string(),
            format!("({x}) + {p}"),
            format!("{}", x.shift(p)),
            "exact (Table 2 row 1)".to_string(),
        ],
        vec![
            "point * stochastic".to_string(),
            format!("{p} * ({x})"),
            format!("{}", x.scale(p)),
            "exact (Table 2 row 1)".to_string(),
        ],
        vec![
            "related addition".to_string(),
            format!("({x}) + ({y})"),
            format!("{}", x.add(&y, Dependence::Related)),
            "conservative: widths add".to_string(),
        ],
        vec![
            "unrelated addition".to_string(),
            format!("({x}) + ({y})"),
            format!("{}", x.add(&y, Dependence::Unrelated)),
            format!("MC truth: {add_mc}"),
        ],
        vec![
            "related multiplication".to_string(),
            format!("({x}) * ({y})"),
            format!("{}", x.mul(&y, Dependence::Related)),
            "worst-case interval product".to_string(),
        ],
        vec![
            "unrelated multiplication".to_string(),
            format!("({x}) * ({y})"),
            format!("{}", x.mul(&y, Dependence::Unrelated)),
            format!("MC truth: {mul_mc}"),
        ],
        vec![
            "division (via reciprocal)".to_string(),
            format!("({x}) / ({y})"),
            format!("{}", x.div(&y, Dependence::Unrelated)),
            "footnote 5 (first-order recip)".to_string(),
        ],
    ];
    println!(
        "{}",
        render_table(
            &["operation", "expression", "rule result", "reference"],
            &rows
        )
    );

    // Quantify the agreement of the independence rules with sampling.
    let agreement = |name: &str, rule: StochasticValue, mc: StochasticValue| {
        vec![
            name.to_string(),
            f((rule.mean() - mc.mean()).abs() / mc.mean() * 100.0, 3),
            f(
                (rule.half_width() - mc.half_width()).abs() / mc.half_width() * 100.0,
                2,
            ),
        ]
    };
    println!(
        "{}",
        render_table(
            &["rule", "mean err %", "width err %"],
            &[
                agreement(
                    "unrelated addition",
                    x.add(&y, Dependence::Unrelated),
                    add_mc
                ),
                agreement(
                    "unrelated multiplication",
                    x.mul(&y, Dependence::Unrelated),
                    mul_mc
                ),
            ]
        )
    );
    println!(
        "The unrelated rules are exact for independent normals (addition) and\n\
         first-order accurate for products of low-variance values (§2.3.2)."
    );
}
