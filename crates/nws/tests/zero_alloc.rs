//! Pins the cost contract of a load query: once four samples exist (the
//! forecast mode), `cpu_query` and `cpu_stochastic` read the sensor's
//! running scores and a view of its ring, and never touch the heap —
//! under every spread policy, and with the ring wrapped. And that of a
//! sample: once the standard tournament's scoreboard is warm, observing
//! one allocates nothing either. A counting global allocator
//! tallies per thread, so the harness's own threads cannot disturb an
//! exact zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use prodpred_nws::forecast::{AdaptiveForecaster, Scoreboard};
use prodpred_nws::{NwsConfig, NwsService, QueryMode, SpreadPolicy};
use prodpred_simgrid::Platform;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no tally left to keep; ignore it.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

#[test]
fn load_queries_allocate_nothing_once_four_samples_exist() {
    // A sensor's ring holds 4 096 samples, five seconds apart: full at
    // t = 20 475 s. The last advance runs past that, so the ring wraps
    // and each sensor replays its scores once.
    let platform = Platform::platform1(7, 21_000.0);
    for spread in [
        SpreadPolicy::ForecastRmse,
        SpreadPolicy::WindowVariance,
        SpreadPolicy::Combined,
    ] {
        let nws = NwsService::attach(&platform, NwsConfig { spread });
        // t = 15 s is the fourth 5-second sample.
        for t in [15.0, 75.0, 600.0, 3000.0, 20_500.0] {
            nws.advance_to(&platform, t);
            assert_eq!(nws.cpu_query(0).unwrap().mode, QueryMode::Forecast);
            let allocations = allocations_during(|| {
                for i in 0..nws.n_machines() {
                    black_box(nws.cpu_query(i).unwrap());
                    black_box(nws.cpu_stochastic(i).unwrap());
                }
                black_box(nws.bandwidth_fraction_query().unwrap());
                black_box(nws.bandwidth_fraction_stochastic().unwrap());
            });
            assert_eq!(
                allocations, 0,
                "{spread:?}, t = {t}: a load query allocated"
            );
        }
        assert_eq!(nws.cpu_query(0).unwrap().samples, 4096, "{spread:?}");
    }
}

#[test]
fn observing_a_sample_allocates_nothing_once_every_window_is_full() {
    let ensemble = AdaptiveForecaster::standard();
    let history: Vec<f64> = (0..400)
        .map(|i| 0.5 + 0.4 * (i as f64 * 0.37).sin())
        .collect();
    // A board's lanes are allocated with its first sample.
    let warm = 24;
    let mut board = Scoreboard::default();
    ensemble.replay(&mut board, &history[..warm]);
    // A replay on the same board restarts every strategy in the lanes it
    // already has, then observes the history one sample at a time.
    let allocations = allocations_during(|| {
        ensemble.replay(&mut board, &history);
        black_box(board.best());
    });
    assert_eq!(allocations, 0, "observing allocated on a warm scoreboard");
}
