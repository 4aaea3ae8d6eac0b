//! Digests of the raw preset load streams and of the distributions they
//! draw from. Each line folds the bits of a stream's first 8 192 samples
//! (or of 4 096 draws from a seeded `StdRng`) into one FNV-1a digest, so a
//! change to how a stream or a sampler reaches its generator must leave
//! every sample exactly where it was. `golden_trace_bits` reads two
//! Platform 2 machines through `Trace`; this file pins every preset's
//! stream itself: both Platform 1 modes, both `MarkovModal` presets and
//! both ethernet presets.

use prodpred_simgrid::load::{derive_seed, LoadGenerator, MarkovModal, SingleModeAr1};
use prodpred_simgrid::network::EthernetContention;
use prodpred_stochastic::dist::Distribution;
use prodpred_stochastic::{LogNormal, LongTailed, Normal};
use rand::rngs::StdRng;
use rand::SeedableRng;

const STREAM_SAMPLES: usize = 8192;
const DRAWS: usize = 4096;
const SEED: u64 = 42;

/// FNV-1a over the little-endian bits of every value, in order.
fn digest(values: impl IntoIterator<Item = f64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in values.into_iter().flat_map(|x| x.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The first `STREAM_SAMPLES` of `generator`'s stream, seeded as the preset
/// platforms seed the stream at `index`, at their one-second step.
fn stream_digest(generator: &dyn LoadGenerator, index: usize) -> u64 {
    digest(
        generator
            .stream(derive_seed(SEED, index), 1.0)
            .pull(STREAM_SAMPLES),
    )
}

/// `DRAWS` draws of `dist` through the trait, from `StdRng` at `seed`.
fn draw_digest(dist: &dyn Distribution, seed: u64) -> u64 {
    let mut rng = StdRng::seed_from_u64(seed);
    digest((0..DRAWS).map(|_| dist.sample(&mut rng)))
}

fn digests() -> Vec<(&'static str, u64)> {
    let p1_center = SingleModeAr1 {
        mean: 0.48,
        sd: 0.025,
        phi: 0.9,
    };
    let p1_top = SingleModeAr1 {
        mean: 0.94,
        sd: 0.015,
        phi: 0.9,
    };
    let p1_net = EthernetContention {
        busy_weight: 0.10,
        ..Default::default()
    };
    let p2_net = EthernetContention {
        busy_weight: 0.30,
        mean_dwell: 15.0,
        ..Default::default()
    };
    vec![
        ("p1 center ar1", stream_digest(&p1_center, 0)),
        ("p1 top ar1", stream_digest(&p1_top, 2)),
        (
            "markov platform1(120)",
            stream_digest(&MarkovModal::platform1(120.0), 1),
        ),
        (
            "markov platform2(25)",
            stream_digest(&MarkovModal::platform2(25.0), 3),
        ),
        ("p1 ethernet", stream_digest(&p1_net, 100)),
        ("p2 ethernet", stream_digest(&p2_net, 100)),
        ("normal", draw_digest(&Normal::new(10.0, 2.5), 7)),
        ("lognormal", draw_digest(&LogNormal::new(-2.0, 0.5), 8)),
        (
            "longtailed below",
            draw_digest(&LongTailed::below(0.56, 0.15, 0.08), 9),
        ),
    ]
}

const PINNED: [(&str, u64); 9] = [
    ("p1 center ar1", 0xdc90_3f71_3feb_ae0a),
    ("p1 top ar1", 0x4780_a320_b74c_cab1),
    ("markov platform1(120)", 0xeed6_d9a5_9bde_18ff),
    ("markov platform2(25)", 0x2a52_2075_1a16_3622),
    ("p1 ethernet", 0xfaeb_d9bb_0f8e_a798),
    ("p2 ethernet", 0xf2da_852a_a368_61b1),
    ("normal", 0x3971_d439_174f_98c3),
    ("lognormal", 0x9765_0ce0_82b9_b55f),
    ("longtailed below", 0x42ee_c755_9f41_5d9a),
];

#[test]
fn preset_streams_and_draws_are_pinned() {
    let actual = digests();
    let table: String = actual
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", 0x{h:016x}),\n"))
        .collect();
    assert_eq!(actual, PINNED, "actual digests:\n{table}");
}
