//! # prodpred-pool
//!
//! A deterministic, std-only work pool for the evaluation harness.
//!
//! The paper's methodology is *repetition*: the same experiment replayed
//! across seeds, problem sizes, and configurations (Figures 8–17), and
//! Monte-Carlo validation of the stochastic arithmetic with up to
//! hundreds of thousands of samples. Those repeats are independent, so
//! they should use every core — but the harness's contract is that every
//! figure replays bit-for-bit from its seed. This crate provides the
//! primitives that keep both properties at once:
//!
//! * [`parallel_map`] — fan a slice of tasks over the process's
//!   persistent workers (self-scheduling over an atomic cursor, so uneven
//!   tasks balance) and merge the results **in index order**. Each task
//!   sees only its index and input; as long as the task function is a
//!   pure function of those, the output is bit-identical to the
//!   sequential map at any thread count.
//! * [`derive_seed`] — SplitMix64-based derivation of a per-task RNG
//!   seed from `(master_seed, task_index)`. Tasks never share an RNG
//!   stream, so the thread schedule cannot leak into the numbers.
//! * [`chunk_lengths`] — fixed-size chunking for sample loops (the
//!   Monte-Carlo validators), so the *chunk structure* — and therefore
//!   the floating-point merge order — is a function of the sample count
//!   alone, never of the thread count.
//! * [`num_threads`] — worker count: the `PRODPRED_THREADS` environment
//!   override, else the machine's available parallelism.
//!
//! ## Workers
//!
//! A call's caller runs one share of its tasks and parked workers run
//! the rest. The workers are started on demand, up to the largest
//! thread count any call has asked for less one, and then kept for the
//! life of the process. An idle worker blocks on a `Condvar`; it never
//! spins, so it takes no CPU from whatever else the process or the
//! machine runs between calls.
//!
//! On a two-vCPU Linux VM a thread took p50 115–129 µs (p90 ~330 µs)
//! from spawn to its first instruction, and a `thread::scope` that
//! spawned and joined two empty threads 160 µs, against sweep calls of
//! one Platform-2 series per seed of 0.4–1.4 ms. A two-item map of
//! trivial work cost 55–75 µs more than the inline map there with a
//! scope per call, and 12–16 µs on the kept workers. The caller works rather than
//! waking a second worker because two workers woken by a busy thread
//! were often queued on one CPU there: after the caller had computed
//! for 0.2 ms, 8–23 of 32 two-series calls started both series on the
//! same CPU, and the call p50 rose from ~1.4 to 1.7–2.6 ms. A fresh
//! thread is placed on the idlest CPU; a woken one near where it ran.
//!
//! A persistent worker can only run `'static` work, and the crate has no
//! `unsafe`, so a call hands the workers its own copy of the items and
//! a `'static` task function; the call's last handle may be dropped on a
//! worker just after the caller returns. Nothing joins the workers at
//! exit: they are parked, hold nothing a process must release, and end
//! with it. A worker keeps its allocator's per-thread state between calls
//! too, so the heap a task grew stays resident while the worker is idle.
//!
//! The build container vendors all dependencies offline, so there is no
//! rayon here: just `std::thread`, a `Mutex`-guarded queue and atomics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of worker threads to use: the `PRODPRED_THREADS` environment
/// variable (clamped to at least 1) when set and parseable, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
///
/// The variable is read on every call; the machine's parallelism is
/// probed once per process, since on Linux it reads the cgroup files
/// (13–17 µs a call on a two-core host).
pub fn num_threads() -> usize {
    match std::env::var("PRODPRED_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) => n.max(1),
            Err(_) => available(),
        },
        Err(_) => available(),
    }
}

fn available() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Resolves a caller-supplied thread count: `0` means "auto"
/// ([`num_threads`]), anything else is used as given.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        num_threads()
    } else {
        threads
    }
}

/// Derives an RNG seed for task `index` from `master`, via two SplitMix64
/// steps over well-separated state.
///
/// Nearby `(master, index)` pairs yield unrelated streams (SplitMix64 is
/// an equidistributed bijection), and the derivation depends only on the
/// pair — never on thread identity or schedule — so a parallel sweep
/// draws exactly the numbers its sequential replay would.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // Offset the index stream by the golden ratio so (m, i+1) and
    // (m+1, i) do not collide.
    let mut state = master ^ (index.wrapping_add(1)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut z = splitmix64(&mut state);
    z ^= splitmix64(&mut state);
    z
}

/// One SplitMix64 step (the xoshiro authors' recommended seeder).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Splits `total` items into fixed-size chunks of `chunk` (the last chunk
/// may be short), returning each chunk's length in order.
///
/// The chunk structure depends only on `(total, chunk)`, which is what
/// makes chunked Monte-Carlo reductions thread-count-invariant: each
/// chunk has its own derived seed and its own partial accumulator, and
/// the partials are merged in chunk order.
///
/// # Panics
///
/// Panics if `chunk == 0`.
pub fn chunk_lengths(total: usize, chunk: usize) -> Vec<usize> {
    assert!(chunk > 0, "chunk size must be positive");
    let mut out = Vec::with_capacity(total.div_ceil(chunk));
    let mut remaining = total;
    while remaining > 0 {
        let len = remaining.min(chunk);
        out.push(len);
        remaining -= len;
    }
    out
}

/// Maps `f` over `items` on `threads` workers (0 = auto), returning the
/// results **in input order**.
///
/// Scheduling is dynamic — workers pull the next unclaimed index from a
/// shared cursor, so a long task does not stall the queue behind it —
/// but the result merge is by index, so scheduling never reorders
/// output. If `f(i, &items[i])` is a pure function of `(i, items[i])`
/// (derive any randomness with [`derive_seed`]), the returned vector is
/// bit-identical to `items.iter().enumerate().map(...)` at every thread
/// count.
///
/// The caller claims tasks itself beside `threads - 1` of the process's
/// persistent workers (see the crate docs), for which it first copies
/// `items`: the workers outlive the call, so they cannot borrow from it.
/// It returns once every task has run.
///
/// When there is at most one item, or the resolved thread count is 1,
/// or the caller is itself running a pool task (a `parallel_map` inside a
/// task), the map runs **inline on the caller thread** — no copy, no
/// queue, no wake-up — so single-core hosts (`PRODPRED_THREADS=1`) pay
/// zero parallelism overhead and a nested call can never wait on the
/// workers it occupies. The inline path is the literal sequential map,
/// so it is bit-identical to the pooled one by construction. A map of at
/// most one item never resolves the thread count at all: with
/// `threads = 0` that would read the environment, which a one-chunk
/// Monte-Carlo `max` would pay on every call.
///
/// # Panics
///
/// Propagates a panic from any task, once every runner of the call has
/// stopped; the worker that ran it lives on.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Clone + Send + Sync + 'static,
    R: Send + 'static,
    F: Fn(usize, &T) -> R + Send + Sync + 'static,
{
    static POOL: Pool = Pool::new();
    POOL.map(items, threads, f)
}

/// A job on the queue: one worker's runner of one call.
type Job = Box<dyn FnOnce() + Send>;

/// One pooled call, shared by its caller and its runners.
struct Call<T, R, F> {
    items: Vec<T>,
    f: F,
    /// The next unclaimed index.
    cursor: AtomicUsize,
    report: Mutex<Report<R>>,
    /// Signalled by the last runner to report.
    finished: Condvar,
}

/// What a call's runners have reported so far.
struct Report<R> {
    /// Runners yet to report.
    running: usize,
    /// Each item's result, by index.
    slots: Vec<Option<R>>,
    /// The first panic a task raised, to re-raise on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl<T, R, F: Fn(usize, &T) -> R> Call<T, R, F> {
    /// A runner: claims indices until none is left, filing each result
    /// as it comes, or its task's panic.
    fn run(&self) {
        let claimed = catch_unwind(AssertUnwindSafe(|| loop {
            // Relaxed: the cursor only hands out indices; the items
            // reached the worker through the queue's lock.
            let i = self.cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = self.items.get(i) else {
                break;
            };
            let r = (self.f)(i, item);
            lock(&self.report).slots[i] = Some(r);
        }));
        let mut report = lock(&self.report);
        if let Err(payload) = claimed {
            report.panic.get_or_insert(payload);
        }
        report.running -= 1;
        if report.running == 0 {
            self.finished.notify_one();
        }
    }
}

thread_local! {
    /// Whether this thread is running a pool task (a worker always is),
    /// so that a map inside the task runs inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// Parked workers and the queue they take jobs from. [`parallel_map`]
/// uses the process's one `static` pool; tests build their own.
struct Pool {
    state: Mutex<State>,
    /// Signalled once for each job pushed.
    ready: Condvar,
}

struct State {
    jobs: VecDeque<Job>,
    /// Workers started so far; none ever exits.
    workers: usize,
}

/// Locks the pool state or a call's report, recovering the guard if a
/// thread panicked while holding it: no task runs under either lock, and
/// each update (a push, a pop, a count, a filed result) is whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    const fn new() -> Self {
        Pool {
            state: Mutex::new(State {
                jobs: VecDeque::new(),
                workers: 0,
            }),
            ready: Condvar::new(),
        }
    }

    fn map<T, R, F>(&'static self, items: &[T], threads: usize, f: F) -> Vec<R>
    where
        T: Clone + Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(usize, &T) -> R + Send + Sync + 'static,
    {
        let threads = if items.len() <= 1 || IN_TASK.get() {
            1
        } else {
            resolve_threads(threads).min(items.len())
        };
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }

        let call = Arc::new(Call {
            items: items.to_vec(),
            f,
            cursor: AtomicUsize::new(0),
            report: Mutex::new(Report {
                running: threads,
                slots: std::iter::repeat_with(|| None).take(items.len()).collect(),
                panic: None,
            }),
            finished: Condvar::new(),
        });
        // The caller is one runner; workers run the others.
        let helpers = threads - 1;
        let mut state = lock(&self.state);
        for _ in 0..helpers {
            let call = Arc::clone(&call);
            state.jobs.push_back(Box::new(move || call.run()));
            self.ready.notify_one();
        }
        while state.workers < helpers {
            std::thread::Builder::new()
                .name(format!("prodpred-pool-{}", state.workers))
                .spawn(move || self.work())
                .expect("the OS starts a pool worker"); // tidy:allow(PP003): as `std::thread::spawn`, a thread the OS refuses is a panic
            state.workers += 1;
        }
        drop(state);
        IN_TASK.set(true);
        call.run();
        IN_TASK.set(false);

        let mut report = lock(&call.report);
        while report.running > 0 {
            report = call
                .finished
                .wait(report)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = report.panic.take() {
            drop(report);
            resume_unwind(payload);
        }
        std::mem::take(&mut report.slots)
            .into_iter()
            .map(|slot| slot.expect("every index was claimed exactly once")) // tidy:allow(PP003): pool indices partition 0..n; each slot filled once
            .collect()
    }

    /// A worker's life: take the oldest job, run it, park while the
    /// queue is empty. A job never unwinds (its runner catches the
    /// task's panic), so the loop never ends.
    fn work(&self) {
        IN_TASK.set(true);
        loop {
            let job = {
                let mut state = lock(&self.state);
                loop {
                    match state.jobs.pop_front() {
                        Some(job) => break job,
                        None => {
                            state = self
                                .ready
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner)
                        }
                    }
                }
            };
            job();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, 4, |i, &x| {
            assert_eq!(i, x);
            x * 3
        });
        assert_eq!(out, items.iter().map(|&x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // A float reduction whose value depends on its derived seed: any
        // schedule leak or reorder would change the bits.
        let items: Vec<u64> = (0..100).collect();
        let task = |i: usize, &m: &u64| -> f64 {
            let mut state = derive_seed(m, i as u64);
            let mut acc = 0.0f64;
            for _ in 0..1000 {
                acc += (splitmix_for_test(&mut state) >> 11) as f64 / (1u64 << 53) as f64;
            }
            acc
        };
        let reference: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, m)| task(i, m).to_bits())
            .collect();
        for threads in [1usize, 2, 3, 4, 8] {
            let got: Vec<u64> = parallel_map(&items, threads, task)
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    fn splitmix_for_test(state: &mut u64) -> u64 {
        splitmix64(state)
    }

    #[test]
    fn empty_and_singleton_inputs() {
        // At most one item runs on the caller whatever the thread count,
        // auto included.
        let caller = std::thread::current().id();
        let on_caller = move |_: usize, &x: &u32| {
            assert_eq!(std::thread::current().id(), caller, "ran off the caller");
            x + 1
        };
        for threads in [0, 1, 8] {
            assert!(parallel_map(&[], threads, on_caller).is_empty());
            assert_eq!(parallel_map(&[5u32], threads, on_caller), vec![6]);
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        let items = [1u32, 2, 3];
        assert_eq!(parallel_map(&items, 0, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn single_thread_runs_inline_on_the_caller() {
        // The fix for a once-recorded 0.98x single-core "speedup": at
        // threads=1 there must be no spawn at all. Every task must
        // observe the caller's own thread id.
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..64).collect();
        let out = parallel_map(&items, 1, move |i, &m| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "task {i} ran off the caller thread"
            );
            derive_seed(m, i as u64)
        });
        // ...and the inline result is bit-identical to the threaded one.
        let threaded = parallel_map(&items, 4, |i, &m| derive_seed(m, i as u64));
        assert_eq!(out, threaded);
    }

    #[test]
    #[should_panic(expected = "task 7 failed")]
    fn task_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        parallel_map(&items, 4, |i, _| {
            if i == 7 {
                panic!("task 7 failed");
            }
            i
        });
    }

    /// A pool of its own, so no other test's calls share its workers.
    fn fresh_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn workers(pool: &Pool) -> usize {
        lock(&pool.state).workers
    }

    #[test]
    fn workers_are_kept_across_calls() {
        let pool = fresh_pool();
        let caller = std::thread::current().id();
        let items: Vec<u64> = (0..8).collect();
        let mut seen = std::collections::HashSet::new();
        for call in 0..50 {
            let ran_on = pool.map(&items, 2, |_, _| std::thread::current().id());
            // The caller is one of the two threads.
            assert_eq!(workers(pool), 1, "call {call} started a thread");
            seen.extend(ran_on);
        }
        seen.remove(&caller);
        assert!(seen.len() <= 1, "{} workers ran tasks", seen.len());
    }

    #[test]
    fn a_panicking_task_leaves_the_pool_working() {
        let pool = fresh_pool();
        let items: Vec<usize> = (0..16).collect();
        let caught = catch_unwind(|| {
            pool.map(&items, 2, |i, _| {
                if i == 7 {
                    panic!("task 7 failed");
                }
                i
            })
        });
        let payload = caught.expect_err("the task's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"task 7 failed"));
        assert_eq!(
            pool.map(&items, 2, |i, &x| i + x),
            (0..16).map(|i| 2 * i).collect::<Vec<_>>()
        );
        assert_eq!(workers(pool), 1);
    }

    #[test]
    fn a_nested_map_runs_inline_with_the_sequential_bits() {
        let inner = |i: usize, &m: &u64| derive_seed(m, i as u64);
        let masters: Vec<u64> = (0..6).collect();
        let nested = parallel_map(&masters, 2, move |_, &m| {
            let worker = std::thread::current().id();
            let items: Vec<u64> = (0..32).map(|k| m * 100 + k).collect();
            let on_worker = parallel_map(&items, 4, move |i, x| {
                assert_eq!(
                    std::thread::current().id(),
                    worker,
                    "nested task {i} left its worker"
                );
                inner(i, x)
            });
            (on_worker, items)
        });
        for (on_worker, items) in nested {
            let sequential: Vec<u64> = items.iter().enumerate().map(|(i, x)| inner(i, x)).collect();
            assert_eq!(on_worker, sequential);
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results_in_order() {
        let pool = fresh_pool();
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for caller in 0..4u64 {
                let start = &start;
                s.spawn(move || {
                    let items: Vec<u64> = (0..64).map(|k| caller << 32 | k).collect();
                    start.wait();
                    for _ in 0..20 {
                        let got = pool.map(&items, 2, |i, &x| derive_seed(x, i as u64));
                        let want: Vec<u64> = items
                            .iter()
                            .enumerate()
                            .map(|(i, &x)| derive_seed(x, i as u64))
                            .collect();
                        assert_eq!(got, want, "caller {caller}");
                    }
                });
            }
        });
        assert_eq!(workers(pool), 1);
    }

    #[test]
    fn derive_seed_separates_nearby_pairs() {
        // No collisions across a grid of nearby (master, index) pairs.
        let mut seen = std::collections::HashSet::new();
        for master in 0..64u64 {
            for index in 0..64u64 {
                assert!(
                    seen.insert(derive_seed(master, index)),
                    "collision at ({master}, {index})"
                );
            }
        }
        // (m, i+1) and (m+1, i) must not collide by construction.
        assert_ne!(derive_seed(3, 4), derive_seed(4, 3));
    }

    #[test]
    fn derive_seed_is_stable() {
        // Golden values: the scheme is part of the reproducibility
        // contract (committed figures replay from it), so a silent
        // change must fail a test.
        assert_eq!(derive_seed(0, 0), 0x68bc_c372_21b0_20bb);
        assert_eq!(derive_seed(42, 7), 0xf42e_fea7_d218_2cc3);
    }

    #[test]
    fn chunk_lengths_cover_and_order() {
        assert_eq!(chunk_lengths(10, 4), vec![4, 4, 2]);
        assert_eq!(chunk_lengths(8, 4), vec![4, 4]);
        assert_eq!(chunk_lengths(3, 10), vec![3]);
        assert!(chunk_lengths(0, 5).is_empty());
        let sum: usize = chunk_lengths(100_001, 4096).iter().sum();
        assert_eq!(sum, 100_001);
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_panics() {
        chunk_lengths(10, 0);
    }

    #[test]
    fn env_override_wins() {
        // Only this test touches the variable; set, check, restore.
        std::env::set_var("PRODPRED_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("PRODPRED_THREADS", "0");
        assert_eq!(num_threads(), 1, "override clamps to at least one");
        std::env::set_var("PRODPRED_THREADS", "not-a-number");
        assert!(num_threads() >= 1, "garbage falls back to autodetect");
        std::env::remove_var("PRODPRED_THREADS");
        assert!(num_threads() >= 1);
        assert_eq!(resolve_threads(5), 5);
        assert!(resolve_threads(0) >= 1);
    }
}
