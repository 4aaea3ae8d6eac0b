//! Pins the allocation budget of a cache-hit `/predict`: the query pairs,
//! the JSON body, and — rendered — the wire string. `ServiceCore::query`
//! itself touches the heap not at all on a hit, and serialising the
//! answer costs the output buffer and nothing else (no field-name
//! `String`s, no per-number temporaries). A closed-form miss is pinned
//! too, exactly, because its count is how many times the structural
//! model ran, on a fresh thread and again on a warm one. A request
//! refused for its iteration count allocates nothing in proportion to
//! it, and a fault-aware miss allocates the same at any count it
//! accepts. A counting global allocator tallies per thread, so the
//! harness's own threads cannot disturb the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use prodpred_core::{LoadSource, PredictorConfig};
use prodpred_service::{http, request_for, PredictRequest, ServiceConfig, ServiceCore};
use prodpred_stochastic::MaxStrategy;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // A thread being torn down has no tally left to keep; ignore it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get().saturating_add(bytes)));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn core() -> ServiceCore {
    ServiceCore::new(ServiceConfig {
        seed: 11,
        horizon: 1200.0,
        warmup: 300.0,
        ..ServiceConfig::default()
    })
}

/// The three required parameters, the six the repository benchmark
/// sends, all eight a healthy query can carry, and a `fault_intensity`
/// what-if. The pairs `Vec` is sized once from the `&`s, however many
/// pairs there are.
const TARGETS: [&str; 4] = [
    "/predict?platform=1&n=1000&procs=2",
    "/predict?platform=2&n=1600&procs=4&iters=20&source=horizon&staleness=0",
    "/predict?platform=2&n=2000&procs=4&iters=40&source=modal&staleness=1&max=clark&cap=0.25",
    "/predict?platform=1&n=1000&procs=2&fault_intensity=0.5",
];

#[test]
fn a_cache_hit_predict_allocates_its_pairs_its_body_and_its_wire_form() {
    let core = core();
    for target in TARGETS {
        // The first ask fills the cache; every later one is a hit.
        assert_eq!(http::handle(&core, target).status, 200);
        let mut body_len = 0;
        let handled = allocations_during(|| {
            let response = http::handle(&core, black_box(target));
            body_len = response.body.len();
            black_box(response);
        });
        assert!(
            handled <= 2,
            "{target}: a hit allocated {handled} times in http::handle"
        );
        assert!(body_len > 250, "{target}: not a /predict body");
        let rendered = allocations_during(|| {
            black_box(http::handle(&core, black_box(target)).render());
        });
        assert!(
            rendered <= 3,
            "{target}: a hit allocated {rendered} times in handle + render"
        );
    }
    assert!(core.stats().cache.hits >= 8, "{:?}", core.stats().cache);
}

#[test]
fn a_cache_hit_query_allocates_nothing() {
    let core = core();
    let faulted = PredictRequest {
        fault_intensity: Some(0.5),
        ..request_for(11, 0)
    };
    let requests = (0..8).map(|index| request_for(11, index)).chain([faulted]);
    for (index, request) in requests.enumerate() {
        assert!(!core.query(&request).unwrap().cache_hit);
        let allocations = allocations_during(|| {
            assert!(
                black_box(core.query(black_box(&request)))
                    .unwrap()
                    .cache_hit
            );
        });
        assert_eq!(allocations, 0, "request {index}: a hit allocated in query");
    }
}

/// The guard against evaluating a maximum twice. With four strips the
/// communication maximum allocates five times (its operand vector and a
/// term vector per strip), a computation maximum once, and the collapsed
/// copy behind `predict_point` a full evaluation plus one, so a repeated
/// communication maximum moves a count by five and a repeated computation
/// maximum by one. An instantaneous or modal miss holds one full and one
/// point evaluation; a run-horizon miss adds two refinement passes, each
/// one input vector and one computation maximum, sharing the first pass's
/// communication maximum. A Monte-Carlo `max` over stochastic operands
/// allocates three times more (its normals, its chunk lengths and their
/// results) and nothing for a thread count its single chunk does not use,
/// whatever `PRODPRED_THREADS` says. Each miss is counted twice on one
/// fresh thread: the first Monte-Carlo miss also builds the thread's
/// stream memo (its slot list and one slot's buffer, which every maximum
/// of the query reads: they carry one seed), the second allocates nothing
/// for it.
#[test]
fn a_closed_form_miss_evaluates_each_maximum_once() {
    let core = core();
    let mc = MaxStrategy::MonteCarlo {
        samples: 2000,
        seed: 7,
    };
    for (load_source, max_strategy, expected) in [
        (LoadSource::Instantaneous, MaxStrategy::ByMean, (19, 19)),
        (LoadSource::RunHorizon, MaxStrategy::ByMean, (23, 23)),
        (LoadSource::ModalAverage, MaxStrategy::ByMean, (20, 20)),
        (LoadSource::Instantaneous, mc, (27, 25)),
        (LoadSource::RunHorizon, mc, (37, 35)),
        (LoadSource::ModalAverage, mc, (28, 26)),
    ] {
        let request = PredictRequest {
            platform: 2,
            n: 1600,
            procs: 4,
            config: PredictorConfig {
                load_source,
                max_strategy,
                ..PredictorConfig::default()
            },
            fault_intensity: None,
        };
        let miss = || {
            allocations_during(|| {
                black_box(core.query_uncached(black_box(&request))).unwrap();
            })
        };
        let (cold, warm) = std::thread::scope(|s| s.spawn(|| (miss(), miss())).join().unwrap());
        assert_eq!(
            (cold, warm),
            expected,
            "{load_source:?} {max_strategy:?}: (fresh thread, same thread again)"
        );
    }
}

/// An `iters` past the service's cap is refused at validation, before
/// any model sees it: whatever the count, the refusal costs its error
/// text and nothing more.
#[test]
fn a_hostile_iteration_count_is_refused_before_anything_is_sized_by_it() {
    let core = core();
    for iters in ["18446744073709551615", "1000000000", "20000"] {
        let target = format!("/predict?platform=1&n=600&procs=2&iters={iters}&fault_intensity=0.5");
        let before = BYTES.with(Cell::get);
        let response = http::handle(&core, black_box(&target));
        let bytes = BYTES.with(Cell::get) - before;
        assert_eq!(response.status, 400, "iters={iters}: {}", response.body);
        assert!(response.body.contains("iterations"), "{}", response.body);
        assert!(
            bytes < 2048,
            "iters={iters}: refusal allocated {bytes} bytes"
        );
    }
    assert_eq!(core.stats().rejected, 3);
}

/// A fault-aware miss costs the same heap at 50 iterations as at 10 000:
/// the fault model holds one probability per checkpoint segment, and the
/// service's cadence cuts any count from 25 up into five or six.
#[test]
fn a_fault_aware_miss_allocates_the_same_at_any_iteration_count() {
    let core = core();
    let miss = |iterations| {
        let mut request = PredictRequest {
            fault_intensity: Some(0.5),
            ..request_for(11, 0)
        };
        request.config.iterations = iterations;
        let bytes = BYTES.with(Cell::get);
        let allocations = allocations_during(|| {
            black_box(core.query_uncached(black_box(&request))).unwrap();
        });
        (allocations, BYTES.with(Cell::get) - bytes)
    };
    // The first miss on this thread may set up what every later one reuses.
    miss(50);
    let short = miss(50);
    assert!(short.0 > 0, "{short:?}: not a miss");
    assert_eq!(miss(10_000), short, "(allocations, bytes) at 10 000 vs 50");
}
