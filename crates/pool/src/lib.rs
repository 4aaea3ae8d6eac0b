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
//! * [`parallel_map`] — fan a slice of tasks over a scoped thread pool
//!   (self-scheduling over an atomic cursor, so uneven tasks balance)
//!   and merge the results **in index order**. Each task sees only its
//!   index and input; as long as the task function is a pure function of
//!   those, the output is bit-identical to the sequential map at any
//!   thread count.
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
//! The build container vendors all dependencies offline, so there is no
//! rayon here: just `std::thread::scope` and atomics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of worker threads to use: the `PRODPRED_THREADS` environment
/// variable (clamped to at least 1) when set and parseable, otherwise
/// [`std::thread::available_parallelism`] (1 if unknown).
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
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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
/// When there is at most one item, or the resolved thread count is 1,
/// the map runs **inline on the caller thread** — no spawn, no scope, no
/// channel — so single-core hosts (`PRODPRED_THREADS=1`) pay zero
/// parallelism overhead. The inline path is the literal sequential map,
/// so it is bit-identical to the threaded one by construction. A map of
/// at most one item never resolves the thread count at all: with
/// `threads = 0` that would read the environment and, on Linux, the
/// cgroup files behind [`std::thread::available_parallelism`] (13–17 µs a
/// call on a two-core Linux host), which a one-chunk Monte-Carlo `max`
/// would pay on every call.
///
/// # Panics
///
/// Propagates a panic from any task.
pub fn parallel_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = if items.len() <= 1 {
        1
    } else {
        resolve_threads(threads).min(items.len())
    };
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // A worker's output: the (index, result) pairs it claimed, or the
    // panic payload to re-raise on the caller.
    type Bucket<R> = Vec<(usize, R)>;
    type JoinOutcome<R> = Result<Bucket<R>, Box<dyn std::any::Any + Send>>;

    let cursor = AtomicUsize::new(0);
    let buckets: Vec<JoinOutcome<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    local
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect()
    });

    let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
    for bucket in buckets {
        match bucket {
            Ok(pairs) => {
                for (i, r) in pairs {
                    slots[i] = Some(r);
                }
            }
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once")) // tidy:allow(PP003): pool indices partition 0..n; each slot filled once
        .collect()
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
        let on_caller = |_: usize, &x: &u32| {
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
        let out = parallel_map(&items, 1, |i, &m| {
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
