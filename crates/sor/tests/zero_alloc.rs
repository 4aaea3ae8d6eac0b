//! Pins down the zero-allocation guarantee of the ghost exchange, for a
//! strip and a block layout: once the recycled buffers exist, extra solver
//! iterations must not touch the heap. A counting global allocator
//! measures two solves that differ only in iteration count; per-iteration
//! allocations would scale the delta by the extra ghost-edge phases
//! (hundreds of events), so the assertion has a wide margin against
//! incidental noise (thread spawn bookkeeping etc.).

use std::alloc::{GlobalAlloc, Layout, System};
// tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
use std::sync::atomic::{AtomicUsize, Ordering};

use prodpred_sor::{
    partition_equal, try_solve_decomposed, BlockLayout, Decomposition, Grid, SolveOptions,
    SorParams,
};

struct CountingAlloc;

// tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations_during(f: impl FnOnce()) -> usize {
    // tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    // tidy:allow(PP010): counting allocator — a monotone test-only tally, no cross-thread protocol
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn ghost_exchange_steady_state_allocates_nothing() {
    let n = 65;
    let layouts = [
        Decomposition::strips(n, &partition_equal(n - 2, 4)),
        Decomposition::blocks(n, BlockLayout::new(2, 2)),
    ];
    for layout in &layouts {
        let solve = |iters| {
            let mut g = Grid::laplace_problem(n);
            let params = SorParams::for_grid(n, iters);
            try_solve_decomposed(&mut g, params, layout, &SolveOptions::reliable()).unwrap();
        };
        // Warm up thread-local and lazy-init allocations (panic hooks, TLS).
        solve(2);

        let base = allocations_during(|| solve(4));
        let long = allocations_during(|| solve(64));

        // 60 extra iterations x 2 colours x 6 (strips) or 8 (blocks)
        // directed links would cost >= 720 allocations if each ghost-edge
        // send allocated (the old behaviour: a fresh Vec per boundary row
        // per phase, plus a channel node per send). Recycled buffers make
        // the counts identical up to scheduler noise.
        let delta = long.saturating_sub(base);
        assert!(
            delta < 64,
            "{layout:?}: per-iteration allocations detected: {base} allocs at 4 iters, \
             {long} at 64 iters (delta {delta})"
        );
    }
}
