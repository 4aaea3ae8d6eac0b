//! A counting allocator, so allocations per operation are exact counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

// A process-wide count for work that allocates on threads the caller does
// not own (the threaded solvers). Off outside `during_all_threads`, so
// client threads normally touch only their own counter. Both are plain
// statistics and publish no other data: `Relaxed`.
static ALL_THREADS_ON: AtomicBool = AtomicBool::new(false);
static ALL_THREADS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator never allocates or runs after teardown.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread count of `alloc`/`realloc`
/// calls. Per-thread, so client threads do not share a contended counter.
pub struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the only addition is a thread-local increment,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: as for `dealloc`, plus the caller's `new_size` guarantee.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

fn note() {
    ALLOCS.with(|c| c.set(c.get() + 1));
    if ALL_THREADS_ON.load(Ordering::Relaxed) {
        ALL_THREADS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Allocations this thread has made so far.
pub fn count() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocations this thread makes while running `f`.
pub fn during<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = count();
    let r = f();
    (r, count() - before)
}

/// Allocations every thread of the process makes while `f` runs. Call from
/// one thread at a time.
pub fn during_all_threads<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALL_THREADS.load(Ordering::Relaxed);
    ALL_THREADS_ON.store(true, Ordering::Relaxed);
    let r = f();
    ALL_THREADS_ON.store(false, Ordering::Relaxed);
    (r, ALL_THREADS.load(Ordering::Relaxed) - before)
}
