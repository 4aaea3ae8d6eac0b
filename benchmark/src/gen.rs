//! The benchmark's own seeded request generator and open-loop schedule.
//!
//! The program under test receives only what this module emits; nothing
//! here calls `service::replay`, so a change there cannot shift the load.

use prodpred_core::{LoadSource, PredictorConfig};
use prodpred_service::PredictRequest;
use prodpred_stochastic::MaxStrategy;

/// SplitMix64: a tiny, well-mixed, seedable stream.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `lane` (a thread, a phase) of `seed`.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut r = Self(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

const SIZES: [usize; 4] = [400, 600, 1000, 1600];
const PROCS: [usize; 2] = [2, 4];
const ITERS: [usize; 2] = [10, 40];
const SOURCES: [(LoadSource, &str); 3] = [
    (LoadSource::Instantaneous, "inst"),
    (LoadSource::RunHorizon, "horizon"),
    (LoadSource::ModalAverage, "modal"),
];

/// One generated request: the wire target and the request it must parse to.
#[derive(Clone, Debug)]
pub struct Key {
    pub target: String,
    pub request: PredictRequest,
}

/// The parameters every request carries; `source` indexes [`SOURCES`].
struct Shape {
    platform: u8,
    n: usize,
    procs: usize,
    iters: usize,
    source: usize,
    staleness: bool,
}

fn key(shape: Shape, mc: Option<(usize, u64)>, fault: Option<f64>) -> Key {
    let Shape {
        platform,
        n,
        procs,
        iters,
        source,
        staleness,
    } = shape;
    let (load_source, source_name) = SOURCES[source];
    let mut target = format!(
        "/predict?platform={platform}&n={n}&procs={procs}&iters={iters}&source={source_name}&staleness={}",
        u8::from(staleness)
    );
    let mut config = PredictorConfig {
        iterations: iters,
        load_source,
        staleness_aware: staleness,
        ..PredictorConfig::default()
    };
    if let Some((samples, seed)) = mc {
        target.push_str(&format!("&max=mc:{samples}:{seed}"));
        config.max_strategy = MaxStrategy::MonteCarlo { samples, seed };
    }
    if let Some(intensity) = fault {
        target.push_str(&format!("&fault_intensity={intensity}"));
    }
    Key {
        target,
        request: PredictRequest {
            platform,
            n,
            procs,
            config,
            fault_intensity: fault,
        },
    }
}

/// The 192-configuration space of the paper's sizes (2 platforms × 4 sizes
/// × 2 processor counts × 2 iteration counts × 3 load sources × 2 staleness
/// flags), in an order `seed` shuffles.
pub fn hot_keys(seed: u64) -> Vec<Key> {
    let mut keys = Vec::with_capacity(192);
    for platform in 1..=2u8 {
        for &n in &SIZES {
            for &procs in &PROCS {
                for &iters in &ITERS {
                    for source in 0..SOURCES.len() {
                        for staleness in [false, true] {
                            let shape = Shape {
                                platform,
                                n,
                                procs,
                                iters,
                                source,
                                staleness,
                            };
                            keys.push(key(shape, None, None));
                        }
                    }
                }
            }
        }
    }
    let mut rng = Rng::lane(seed, 0x686f74);
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.below(i as u64 + 1) as usize);
    }
    keys
}

/// Distinct `n` values a cold request can carry: 16 ..= 20000.
const COLD_SIZES: u64 = 20_000 - 16 + 1;

/// Emits requests whose cache keys never repeat within a run: request `i`
/// takes its `(n, iters)` pair from a seeded bijection of `i`, everything
/// else from the seeded stream. 5 % carry `max=mc:2000:<seed>`, 10 % carry
/// `fault_intensity=0.5`; the seed changes keys and order, never that mix.
pub struct ColdGen {
    rng: Rng,
    stride: u64,
    offset: u64,
    seed: u64,
}

impl ColdGen {
    /// The generator for sender `lane`: the `(n, iters)` bijection depends
    /// on `seed` alone, so lanes given disjoint `i` never collide.
    pub fn new(seed: u64, lane: u64) -> Self {
        let mut rng = Rng::lane(seed, 0x636f6c64);
        // A stride coprime to COLD_SIZES (= 5 × 7 × 571) walks every n once
        // per cycle.
        let stride = loop {
            let s = 1 + rng.below(COLD_SIZES - 1);
            if [5, 7, 571].iter().all(|&f| !s.is_multiple_of(f)) {
                break s;
            }
        };
        let offset = rng.below(COLD_SIZES);
        Self {
            rng: Rng::lane(seed ^ 0x636f6c64, lane + 1),
            stride,
            offset,
            seed,
        }
    }

    /// Request number `i` of the run. Callers hand each thread a disjoint
    /// set of `i`.
    pub fn key(&mut self, i: u64) -> Key {
        let n = 16 + (self.offset + (i % COLD_SIZES) * self.stride) % COLD_SIZES;
        let iters = 10 + i / COLD_SIZES;
        let bits = self.rng.next();
        let procs = [1, 2, 4][(bits % 3) as usize];
        let platform = 1 + ((bits >> 8) & 1) as u8;
        let source = ((bits >> 16) % 3) as usize;
        let staleness = (bits >> 24) & 1 == 1;
        let mix = (bits >> 32) % 100;
        let mc = (mix < 5).then_some((2000, self.seed));
        let fault = (5..15).contains(&mix).then_some(0.5);
        let shape = Shape {
            platform,
            n: n as usize,
            procs,
            iters: iters as usize,
            source,
            staleness,
        };
        key(shape, mc, fault)
    }
}

/// When request `i` of an open loop at `rate` requests/s is due, in ns
/// after the phase starts.
pub fn due_ns(i: u64, rate: f64) -> u64 {
    (i as f64 * 1e9 / rate).round() as u64
}

/// How many requests of an open loop at `rate` fall due before `end_ns`.
pub fn due_before(end_ns: u64, rate: f64) -> u64 {
    let mut n = (end_ns as f64 * rate / 1e9).floor() as u64;
    while due_ns(n, rate) < end_ns {
        n += 1;
    }
    while n > 0 && due_ns(n - 1, rate) >= end_ns {
        n -= 1;
    }
    n
}

/// What an open-loop sender does about request `i` when it looks at the
/// clock at `now_ns`.
#[derive(Debug, PartialEq, Eq)]
pub enum Turn {
    /// The phase is over before the request is due (or before it could
    /// start): it is not sent.
    Stop,
    /// Idle until the due time, then send; lateness past that instant is
    /// the generator's own.
    WaitUntil(u64),
    /// Already due because the sender was busy: send at once. The wait
    /// since the due time is the system's queueing and counts in the
    /// request's latency, not as generator lateness.
    SendBacklogged,
}

pub fn turn(i: u64, rate: f64, now_ns: u64, end_ns: u64) -> Turn {
    let due = due_ns(i, rate);
    if due >= end_ns || now_ns >= end_ns {
        Turn::Stop
    } else if now_ns < due {
        Turn::WaitUntil(due)
    } else {
        Turn::SendBacklogged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn hot_keys_cover_the_space_and_are_pinned() {
        let keys = hot_keys(42);
        assert_eq!(keys.len(), 192);
        let distinct: HashSet<&str> = keys.iter().map(|k| k.target.as_str()).collect();
        assert_eq!(distinct.len(), 192);
        let again = hot_keys(42);
        assert!(keys.iter().zip(&again).all(|(a, b)| a.target == b.target));
        assert_ne!(keys[0].target, hot_keys(43)[0].target);
        let golden = [
            "/predict?platform=2&n=1600&procs=4&iters=10&source=modal&staleness=1",
            "/predict?platform=1&n=1600&procs=2&iters=40&source=inst&staleness=0",
            "/predict?platform=2&n=600&procs=4&iters=10&source=inst&staleness=1",
        ];
        for (k, want) in keys.iter().zip(golden) {
            assert_eq!(k.target, want);
        }
    }

    #[test]
    fn targets_parse_back_to_their_requests() {
        let mut cold = ColdGen::new(7, 0);
        let keys = hot_keys(7).into_iter().chain((0..500).map(|i| cold.key(i)));
        for k in keys {
            let query = k.target.split_once('?').unwrap().1;
            let pairs: Vec<(&str, &str)> = query
                .split('&')
                .map(|p| p.split_once('=').unwrap())
                .collect();
            let parsed = prodpred_service::http::parse_predict(&pairs).unwrap();
            assert_eq!(parsed, k.request, "{}", k.target);
        }
    }

    #[test]
    fn cold_keys_never_repeat_and_are_pinned() {
        let mut gen = ColdGen::new(42, 0);
        let mut seen = HashSet::new();
        let (mut mc, mut fault) = (0, 0);
        for i in 0..100_000u64 {
            let k = gen.key(i);
            let r = k.request;
            assert!((16..=20_000).contains(&r.n) && r.procs <= r.n - 2);
            assert!(seen.insert((r.n, r.config.iterations)), "repeat at {i}");
            mc += usize::from(matches!(
                r.config.max_strategy,
                MaxStrategy::MonteCarlo { samples: 2000, .. }
            ));
            fault += usize::from(r.fault_intensity == Some(0.5));
        }
        assert!((4_500..5_500).contains(&mc), "{mc}");
        assert!((9_500..10_500).contains(&fault), "{fault}");
        let mut gen = ColdGen::new(42, 0);
        let golden = [
            "/predict?platform=1&n=10303&procs=2&iters=10&source=inst&staleness=1",
            "/predict?platform=1&n=17382&procs=4&iters=10&source=horizon&staleness=1",
        ];
        for (i, want) in golden.iter().enumerate() {
            assert_eq!(gen.key(i as u64).target, *want);
        }
    }

    #[test]
    fn open_loop_schedule() {
        // 400 requests/s: one every 2.5 ms.
        assert_eq!(due_ns(0, 400.0), 0);
        assert_eq!(due_ns(1, 400.0), 2_500_000);
        assert_eq!(due_ns(400, 400.0), 1_000_000_000);
        assert_eq!(due_before(1_000_000_000, 400.0), 400);
        assert_eq!(due_before(1_000_000_001, 400.0), 401);
        assert_eq!(due_before(2_000_000_000, 8000.0), 16_000);
        let end = 6_000_000_000;
        // Idle sender: waits for the due time; lateness is measured from it.
        assert_eq!(turn(4, 400.0, 9_000_000, end), Turn::WaitUntil(10_000_000));
        // Busy sender: request 4 was due at 10 ms, it is now 13 ms.
        assert_eq!(turn(4, 400.0, 13_000_000, end), Turn::SendBacklogged);
        // Due after the phase ends, or the phase ended while busy: not sent,
        // and so left in the backlog count.
        assert_eq!(turn(2400, 400.0, 0, end), Turn::Stop);
        assert_eq!(turn(2399, 400.0, end, end), Turn::Stop);
        let sent = 2300;
        assert_eq!(due_before(end, 400.0) - sent, 100);
    }
}
