//! Regenerates the paper's tables and figures, the ablations and the
//! studies: one registry row per name, one function per row. Each
//! function prints to stdout and nothing else; `tests/figures_golden.rs`
//! pins every byte.
//!
//! Usage: `cargo run --release -p prodpred-bench --bin figures -- <name>…`
//! (`all` for every row in order, `--list` for the names; `--live` is
//! read by `fig01_02`).

/// One regenerable piece of the evaluation.
struct Figure {
    /// The name `figures <name>` runs it under (and its golden's stem).
    name: &'static str,
    /// What it reproduces.
    what: &'static str,
    /// Prints it.
    run: fn(),
}

macro_rules! registry {
    ($($name:ident: $what:literal,)*) => {
        $(mod $name;)*
        /// Every figure, in the order `figures all` prints them.
        const REGISTRY: &[Figure] = &[
            $(Figure { name: stringify!($name), what: $what, run: $name::run },)*
        ];
    };
}

registry! {
    table1: "Table 1: dedicated vs production unit times",
    table2: "Table 2: arithmetic rules vs Monte Carlo",
    fig01_02: "Figures 1-2: sort runtimes ~ normal (--live times real sorts)",
    fig03_04: "Figures 3-4: long-tailed ethernet bandwidth",
    fig05: "Figure 5: tri-modal CPU load",
    fig06_07: "Figures 6-7: strip decomposition + skew demo",
    fig08_09: "Figures 8-9: Platform 1, size sweep, full coverage",
    fig10_11: "Figures 10-11: Platform 2, 4-modal bursty load",
    fig12_13: "Figures 12-13: Platform 2, 1600x1600 repeats",
    fig14_15: "Figures 14-15: Platform 2, 1000x1000 repeats",
    fig16_17: "Figures 16-17: Platform 2, 2000x2000 repeats",
    dedicated_check: "Sec 2.2.1: the \"within 2%\" dedicated validation",
    ablation_max: "ablation: Max strategies (Sec 2.3.3)",
    ablation_dependence: "ablation: related vs unrelated rules",
    ablation_longtail: "ablation: normal-fit quality vs tail weight",
    ablation_forecaster: "ablation: NWS spread policies",
    ablation_horizon: "ablation: run-horizon-scaled loads (Sec 2.1.2)",
    ablation_decomposition: "ablation: strip vs 2D block crossover",
    memory_boundary: "study: where the prediction regime ends",
    ep_study: "study: Sec 1.2's EP application, policies end to end",
    fault_study: "study: accuracy vs fault intensity",
    tournament_study: "study: which NWS strategies win the tournament",
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).filter(|a| a != "--live").collect();
    if args.iter().any(|a| a == "--list") {
        for figure in REGISTRY {
            println!("{:<24}{}", figure.name, figure.what);
        }
        return;
    }
    let mut selected: Vec<&Figure> = Vec::new();
    for arg in &args {
        match REGISTRY.iter().find(|f| f.name == arg) {
            Some(figure) => selected.push(figure),
            None if arg == "all" => selected.extend(REGISTRY),
            None => {
                eprintln!("figures: no figure named {arg:?} (see `figures --list`)");
                std::process::exit(2);
            }
        }
    }
    if selected.is_empty() {
        eprintln!("usage: figures <name>… | all | --list");
        std::process::exit(2);
    }
    for figure in selected {
        (figure.run)();
    }
}
