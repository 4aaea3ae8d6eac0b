//! Golden bits of `SorPredictor::try_predict`, taken before the miss path
//! stopped evaluating each maximum more than once. One line of
//! `golden_predictions.txt` per configuration: both platforms × two grid
//! sizes × three strip counts × the three load sources × staleness-aware
//! or not × three `Max` strategies, each with every `f64` of the returned
//! `Prediction` as raw bits. A change that reorders one addition on the
//! way to any field fails here; only a deliberate change of the
//! Monte-Carlo sampler may move a line, and then only the `mc` ones.

use prodpred_core::{LoadSource, Prediction, PredictorConfig, SorPredictor};
use prodpred_nws::{NwsConfig, NwsService};
use prodpred_simgrid::Platform;
use prodpred_sor::partition_equal;
use prodpred_stochastic::{MaxStrategy, StochasticValue};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_predictions.txt");

fn push_bits(line: &mut String, values: &[StochasticValue]) {
    for v in values {
        write!(
            line,
            " {:016x} {:016x}",
            v.mean().to_bits(),
            v.half_width().to_bits()
        )
        .unwrap();
    }
}

/// `stochastic`, `point`, the four `breakdown` maxima, then `loads`.
fn bits(p: &Prediction) -> String {
    let mut line = String::new();
    push_bits(&mut line, &[p.stochastic]);
    write!(line, " {:016x}", p.point.to_bits()).unwrap();
    let b = &p.breakdown;
    push_bits(
        &mut line,
        &[b.red_comp, b.red_comm, b.black_comp, b.black_comm],
    );
    push_bits(&mut line, &p.loads);
    line
}

fn actual() -> String {
    let sources = [
        ("inst", LoadSource::Instantaneous),
        ("horizon", LoadSource::RunHorizon),
        ("modal", LoadSource::ModalAverage),
    ];
    let strategies = [
        ("by_mean", MaxStrategy::ByMean),
        ("clark", MaxStrategy::Clark),
        (
            "mc",
            MaxStrategy::MonteCarlo {
                samples: 2000,
                seed: 42,
            },
        ),
    ];
    let platforms = [
        Platform::platform1(17, 1200.0),
        Platform::platform2(17, 1200.0),
    ];
    let mut out = String::new();
    for (id, platform) in platforms.iter().enumerate() {
        let nws = NwsService::attach(platform, NwsConfig::default());
        nws.advance_to(platform, 600.0);
        let snapshot = nws.snapshot(1);
        for n in [400, 1600] {
            for procs in [1, 2, 4] {
                let strips = partition_equal(n - 2, procs);
                for (source, load_source) in sources {
                    for staleness_aware in [false, true] {
                        for (max, max_strategy) in strategies {
                            let config = PredictorConfig {
                                iterations: 20,
                                max_strategy,
                                load_source,
                                staleness_aware,
                                ..PredictorConfig::default()
                            };
                            let prediction = SorPredictor::new(platform, &snapshot, config)
                                .try_predict(n, &strips)
                                .unwrap();
                            writeln!(
                                out,
                                "p{} n={n} procs={procs} {source} stale={} {max}:{}",
                                id + 1,
                                u8::from(staleness_aware),
                                bits(&prediction)
                            )
                            .unwrap();
                        }
                    }
                }
            }
        }
    }
    out
}

#[test]
fn predictions_are_pinned_bit_for_bit() {
    let actual = actual();
    if actual == GOLDEN {
        return;
    }
    // Leave the whole actual table where a deliberate re-pin can take it.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden_predictions.txt");
    std::fs::write(&path, &actual).unwrap();
    let moved: Vec<&str> = actual
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(a, g)| a != g)
        .map(|(a, _)| a.split(':').next().unwrap())
        .collect();
    panic!(
        "{} of {} golden lines moved ({} expected), first: {:?}; actual table written to {}",
        moved.len(),
        actual.lines().count(),
        GOLDEN.lines().count(),
        moved.first(),
        path.display()
    );
}
