//! Epoch-pointer publication: one ingest thread publishes immutable
//! snapshots while any number of reader threads load the latest one.
//!
//! [`EpochSwap`] is one `RwLock<Option<(u64, Arc<T>)>>`. `publish`
//! swaps in the next `(epoch, value)` pair under the write lock and
//! drops the previous `Arc` after unlocking; `load` clones the pair
//! under a read lock, and `with` lends it to a closure under that lock
//! without touching the `Arc`'s count. The snapshot itself is built
//! before `publish` is called, so a reader can wait for at most one
//! pointer swap, once per publish, and the writer for the closures in
//! flight — and an old snapshot lives exactly as long as some reader
//! still holds its `Arc`.

use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

/// Single-writer, many-reader epoch publication of immutable values.
///
/// ```
/// use prodpred_service::swap::EpochSwap;
/// let swap: EpochSwap<String> = EpochSwap::new();
/// assert!(swap.load().is_none());
/// swap.publish("hello".to_string());
/// let (epoch, value) = swap.load().unwrap();
/// assert_eq!((epoch, value.as_str()), (1, "hello"));
/// ```
pub struct EpochSwap<T> {
    /// The latest published `(epoch, value)`; `None` before the first
    /// publish.
    current: RwLock<Option<(u64, Arc<T>)>>,
}

impl<T> Default for EpochSwap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EpochSwap<T> {
    /// An empty publication point (no epoch yet).
    pub fn new() -> Self {
        Self {
            current: RwLock::new(None),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, Option<(u64, Arc<T>)>> {
        self.current.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest published epoch (0 before the first publish).
    pub fn epoch(&self) -> u64 {
        self.with(|pair| pair.map_or(0, |(epoch, _)| epoch))
    }

    /// Runs `read` on the latest published `(epoch, value)` pair, or on
    /// `None` before the first publish, under the read lock: the next
    /// `publish` waits for it, so keep it short. Unlike [`Self::load`] it
    /// writes no reference count; clone the `Arc` to keep the value past
    /// the call.
    pub(crate) fn with<R>(&self, read: impl FnOnce(Option<(u64, &Arc<T>)>) -> R) -> R {
        let current = self.read();
        read(current.as_ref().map(|(epoch, value)| (*epoch, value)))
    }

    /// Publishes `value` as the next epoch and returns that epoch.
    /// Publishers are serialized by the write lock.
    pub fn publish(&self, value: T) -> u64 {
        let value = Arc::new(value);
        let mut current = self.current.write().unwrap_or_else(PoisonError::into_inner);
        let epoch = current.as_ref().map_or(0, |(epoch, _)| *epoch) + 1;
        let previous = current.replace((epoch, value));
        // The previous snapshot may be the last handle to it: free it
        // outside the lock.
        drop(current);
        drop(previous);
        epoch
    }

    /// Loads the latest published `(epoch, value)`, or `None` before the
    /// first publish.
    pub fn load(&self) -> Option<(u64, Arc<T>)> {
        self.read().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    // tidy:allow(PP010): the reader storm's stop flag — a monotone test-only latch, no data is published through it
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn empty_then_publish_then_load() {
        let swap: EpochSwap<u32> = EpochSwap::new();
        assert_eq!(swap.epoch(), 0);
        assert!(swap.load().is_none());
        assert_eq!(swap.publish(7), 1);
        assert_eq!(swap.epoch(), 1);
        let (e, v) = swap.load().unwrap();
        assert_eq!((e, *v), (1, 7));
    }

    #[test]
    fn with_lends_the_latest_pair_without_counting_it() {
        let swap: EpochSwap<u32> = EpochSwap::new();
        assert!(swap.with(|pair| pair.is_none()));
        swap.publish(7);
        swap.publish(8);
        let seen = swap.with(|pair| pair.map(|(e, v)| (e, **v, Arc::strong_count(v))));
        assert_eq!(seen, Some((2, 8, 1)));
    }

    #[test]
    fn epochs_are_sequential_and_latest_wins() {
        let swap: EpochSwap<u32> = EpochSwap::new();
        for i in 1..=100u32 {
            assert_eq!(swap.publish(i), u64::from(i));
        }
        let (e, v) = swap.load().unwrap();
        assert_eq!((e, *v), (100, 100));
    }

    #[test]
    fn held_arc_survives_ring_reuse() {
        // A reader's Arc stays valid no matter how many epochs publish
        // after it: the Arc owns the value, the swap only a reference.
        let swap: EpochSwap<Vec<u64>> = EpochSwap::new();
        swap.publish(vec![42; 1000]);
        let (e, old) = swap.load().unwrap();
        assert_eq!(e, 1);
        for i in 0..32 {
            swap.publish(vec![i; 10]);
        }
        assert_eq!(old.len(), 1000);
        assert!(old.iter().all(|&x| x == 42));
        let (e, _) = swap.load().unwrap();
        assert_eq!(e, 1 + 32);
    }

    #[test]
    fn one_publish_frees_an_unheld_snapshot() {
        // The swap keeps only the latest pair: once no reader holds the
        // old snapshot, the next publish frees it.
        let swap: EpochSwap<Vec<u64>> = EpochSwap::new();
        swap.publish(vec![1; 1000]);
        let (_, held) = swap.load().unwrap();
        let weak = Arc::downgrade(&held);
        drop(held);
        swap.publish(vec![2; 10]);
        assert!(weak.upgrade().is_none(), "superseded snapshot still alive");
    }

    #[test]
    fn concurrent_readers_always_see_a_coherent_pair() {
        // Hammer loads while a writer publishes: every observed value
        // must equal its epoch (the pair is published atomically), and
        // epochs must be monotone per reader.
        let swap = Arc::new(EpochSwap::<u64>::new());
        swap.publish(1);
        // tidy:allow(PP010): the reader storm's stop flag — a monotone test-only latch, no data is published through it
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let swap = Arc::clone(&swap);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0;
                    let mut seen = 0u64;
                    // Load-then-check: even if the writer outruns thread
                    // startup, every reader validates at least one load.
                    loop {
                        let (e, v) = swap.load().unwrap();
                        assert_eq!(e, *v, "epoch and payload published atomically");
                        assert!(e >= last, "epochs monotone per reader");
                        last = e;
                        seen += 1;
                        // tidy:allow(PP010): the reader storm's stop flag — a monotone test-only latch, no data is published through it
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();
        for i in 2..=5000u64 {
            swap.publish(i);
        }
        // tidy:allow(PP010): the reader storm's stop flag — a monotone test-only latch, no data is published through it
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
        let (e, v) = swap.load().unwrap();
        assert_eq!((e, *v), (5000, 5000));
    }
}
