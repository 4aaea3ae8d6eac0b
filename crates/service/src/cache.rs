//! The prediction cache: sharded, bounded, keyed by `(query
//! configuration, snapshot epoch)`, and invalidated wholesale on every
//! epoch bump.
//!
//! A published snapshot is immutable, and the structural-model algebra
//! is a pure function of `(snapshot, query configuration)` — so a
//! prediction computed once under epoch `e` answers every later
//! identical query under `e` bit-for-bit. The cache exploits exactly
//! that window and nothing more: the moment the ingest thread publishes
//! epoch `e + 1`, every entry is dropped (stale forecasts must never be
//! served), and the first query per configuration repopulates from the
//! fresh snapshot.
//!
//! Determinism rules:
//!
//! * Shard selection is an FNV-1a fingerprint of the key's canonical
//!   words — never `RandomState` — so the same replay schedule populates
//!   the same shards in every run.
//! * Eviction is strict FIFO per shard by first-insertion order, so a
//!   bounded cache drops the same keys in the same order in every run.
//! * A hit returns a shared handle to the identical value the miss
//!   inserted, so cached and uncached paths are bit-identical trivially.

use prodpred_core::PredictorConfig;
use prodpred_stochastic::MaxStrategy;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Canonical cache key: the full query configuration flattened into
/// fixed words (floats by bit pattern), so equality is exact and
/// hashing is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey([u64; 11]);

impl QueryKey {
    /// Builds the key for a `(platform, n, procs, config,
    /// fault_intensity)` query.
    pub fn new(
        platform: u8,
        n: usize,
        procs: usize,
        config: &PredictorConfig,
        fault_intensity: Option<f64>,
    ) -> Self {
        let (max_tag, max_a, max_b) = match config.max_strategy {
            MaxStrategy::ByMean => (0u64, 0u64, 0u64),
            MaxStrategy::ByUpperBound => (1, 0, 0),
            MaxStrategy::ByLowerBound => (2, 0, 0),
            MaxStrategy::Clark => (3, 0, 0),
            MaxStrategy::MonteCarlo { samples, seed } => (4, samples as u64, seed),
        };
        let dep = match config.phase_dependence {
            prodpred_stochastic::Dependence::Related => 0u64,
            prodpred_stochastic::Dependence::Unrelated => 1,
        };
        // `u64::MAX` is a NaN bit pattern, which no sane cap carries, so
        // it is free to mean "no cap".
        let cap = config.max_load_rel_width.map_or(u64::MAX, f64::to_bits);
        let source = match config.load_source {
            prodpred_core::LoadSource::Instantaneous => 0u64,
            prodpred_core::LoadSource::RunHorizon => 1,
            prodpred_core::LoadSource::ModalAverage => 2,
        };
        // Same trick as the cap word: `u64::MAX` is a NaN bit pattern no
        // validated intensity carries, so it is free to mean "healthy".
        let fault = fault_intensity.map_or(u64::MAX, f64::to_bits);
        Self([
            u64::from(platform),
            n as u64,
            procs as u64,
            config.iterations as u64,
            max_tag,
            max_a,
            max_b,
            dep,
            cap,
            (source << 1) | u64::from(config.staleness_aware),
            fault,
        ])
    }

    /// Deterministic FNV-1a fingerprint of the canonical words — the
    /// shard selector (process-stable, unlike `RandomState`).
    pub(crate) fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in self.0 {
            for byte in word.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// Cache sizing.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total entries across all shards (0 disables caching).
    pub capacity: usize,
    /// Shard count (clamped to at least 1); more shards, less writer
    /// contention between concurrent miss-fills.
    pub shards: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 4096,
            shards: 16,
        }
    }
}

/// Counters for the service's `/metrics` endpoint and the replay bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the structural-model algebra.
    pub misses: u64,
    /// Entries dropped by epoch bumps (wholesale invalidation).
    pub invalidated: u64,
    /// Entries dropped by FIFO capacity eviction.
    pub evicted: u64,
    /// Live entries right now.
    pub entries: u64,
}

struct Shard<V> {
    /// The epoch this shard's entries were computed from. Checked under
    /// the shard lock by `get`/`insert`, advanced under the same lock by
    /// `bump_to` — so a lookup can never observe "new epoch" while the
    /// shard still holds old-epoch entries, and a stale insert can never
    /// land behind the clear (no check-then-lock window).
    epoch: u64,
    map: HashMap<QueryKey, Arc<V>>,
    /// First-insertion order for deterministic FIFO eviction.
    order: VecDeque<QueryKey>,
}

/// A sharded, bounded, epoch-invalidated map from [`QueryKey`] to an
/// immutable cached value.
pub struct EpochCache<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidated: AtomicU64,
    evicted: AtomicU64,
}

impl<V> EpochCache<V> {
    /// An empty cache pinned to epoch 0 (nothing published yet).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        let per_shard_capacity = config.capacity.div_ceil(shards);
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    epoch: 0,
                    map: HashMap::new(),
                    order: VecDeque::new(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidated: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &QueryKey) -> &Mutex<Shard<V>> {
        &self.shards[self.shard_index(key)]
    }

    /// The shard `key` routes to — deterministic (FNV-1a), exposed so
    /// the model-checking conformance harness can pick one key per
    /// shard.
    // tidy:allow(PP011): conformance hook for tests/svc_conformance.rs
    pub fn shard_index(&self, key: &QueryKey) -> usize {
        (key.fingerprint() % self.shards.len() as u64) as usize
    }

    /// How many shards this cache was built with.
    // tidy:allow(PP011): conformance hook for tests/svc_conformance.rs
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Advances the cache to `epoch`, dropping **every** entry: a new
    /// snapshot invalidates all predictions computed from the old one.
    /// Sweeps every shard; each shard's own epoch compare makes the call
    /// idempotent for the current epoch and inert for a regression.
    pub fn bump_to(&self, epoch: u64) {
        for i in 0..self.shards.len() {
            self.sweep_shard(i, epoch);
        }
    }

    /// One step of [`Self::bump_to`]: under shard `i`'s lock, drops its
    /// entries and advances its epoch if it is still behind `epoch`.
    /// Idempotent; an out-of-order sweep is ignored by the same
    /// comparison. The conformance seam the `prodpred-analysis::svc`
    /// model replays.
    pub fn sweep_shard(&self, i: usize, epoch: u64) {
        let mut guard = self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.epoch < epoch {
            self.invalidated
                .fetch_add(guard.map.len() as u64, Ordering::Relaxed);
            guard.map.clear();
            guard.order.clear();
            guard.epoch = epoch;
        }
    }

    /// Looks up `key` as of `epoch`. A lookup against any epoch other
    /// than the shard's current one is a guaranteed miss (the caller's
    /// snapshot is stale, or a concurrent bump has not reached this
    /// shard yet). The epoch comparison happens under the shard lock, so
    /// a hit is always an entry computed from the caller's own epoch.
    pub fn get(&self, epoch: u64, key: &QueryKey) -> Option<Arc<V>> {
        let guard = self
            .shard(key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if epoch != guard.epoch {
            drop(guard);
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        match guard.map.get(key) {
            Some(v) => {
                let v = Arc::clone(v);
                drop(guard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                drop(guard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a value computed from the `epoch` snapshot, evicting the
    /// shard's oldest entry (FIFO by first insertion) at capacity. An
    /// insert for a non-current epoch is silently dropped — its snapshot
    /// is already obsolete. Returns the shared handle serving that key
    /// (an earlier racing insert wins, keeping hits bit-identical).
    pub fn insert(&self, epoch: u64, key: QueryKey, value: V) -> Arc<V> {
        let value = Arc::new(value);
        if self.per_shard_capacity == 0 {
            return value;
        }
        let mut guard = self
            .shard(&key)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Epoch check under the shard lock: a concurrent `bump_to` that
        // has already swept this shard advanced `guard.epoch` under this
        // same lock, so the stale insert is dropped here — it can never
        // land behind the clear and be served as a fresh-epoch hit.
        if epoch != guard.epoch {
            return value;
        }
        if let Some(existing) = guard.map.get(&key) {
            return Arc::clone(existing);
        }
        if guard.order.len() == self.per_shard_capacity {
            if let Some(oldest) = guard.order.pop_front() {
                guard.map.remove(&oldest);
                self.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        guard.order.push_back(key);
        guard.map.insert(key, Arc::clone(&value));
        value
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> CacheStats {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len() as u64)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: usize) -> QueryKey {
        QueryKey::new(1, n, 4, &PredictorConfig::default(), None)
    }

    #[test]
    fn miss_then_hit_round_trip() {
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        cache.bump_to(1);
        assert!(cache.get(1, &key(100)).is_none());
        cache.insert(1, key(100), 42);
        assert_eq!(*cache.get(1, &key(100)).unwrap(), 42);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn epoch_bump_drops_everything() {
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        cache.bump_to(1);
        for n in 0..100 {
            cache.insert(1, key(n), n as u64);
        }
        assert_eq!(cache.stats().entries, 100);
        cache.bump_to(2);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().invalidated, 100);
        for n in 0..100 {
            assert!(cache.get(2, &key(n)).is_none(), "stale entry served");
        }
    }

    #[test]
    fn stale_epoch_lookups_and_inserts_are_inert() {
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        cache.bump_to(5);
        cache.insert(4, key(1), 99); // computed from an old snapshot
        assert!(cache.get(5, &key(1)).is_none());
        assert!(cache.get(4, &key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn fifo_eviction_is_deterministic() {
        // One shard, capacity 4: inserting 6 keys must evict the first
        // two in insertion order, every run.
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig {
            capacity: 4,
            shards: 1,
        });
        cache.bump_to(1);
        for n in 0..6 {
            cache.insert(1, key(n), n as u64);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evicted), (4, 2));
        assert!(cache.get(1, &key(0)).is_none());
        assert!(cache.get(1, &key(1)).is_none());
        for n in 2..6 {
            assert_eq!(*cache.get(1, &key(n)).unwrap(), n as u64);
        }
    }

    #[test]
    fn reinserting_a_key_keeps_the_first_value() {
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        cache.bump_to(1);
        let first = cache.insert(1, key(7), 1);
        let second = cache.insert(1, key(7), 2);
        assert_eq!((*first, *second), (1, 1), "first insert wins the key");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn distinct_configs_get_distinct_keys() {
        let base = PredictorConfig::default();
        let a = QueryKey::new(1, 1000, 4, &base, None);
        assert_eq!(a, QueryKey::new(1, 1000, 4, &base, None));
        assert_ne!(a, QueryKey::new(2, 1000, 4, &base, None));
        assert_ne!(a, QueryKey::new(1, 1001, 4, &base, None));
        assert_ne!(a, QueryKey::new(1, 1000, 2, &base, None));
        let mut cfg = base;
        cfg.staleness_aware = true;
        assert_ne!(a, QueryKey::new(1, 1000, 4, &cfg, None));
        let mut cfg = base;
        cfg.max_load_rel_width = Some(0.25);
        assert_ne!(a, QueryKey::new(1, 1000, 4, &cfg, None));
        let mut cfg = base;
        cfg.load_source = prodpred_core::LoadSource::ModalAverage;
        assert_ne!(a, QueryKey::new(1, 1000, 4, &cfg, None));
    }

    #[test]
    fn fault_intensity_is_part_of_the_key() {
        // A faulted query must never hit a healthy entry (or vice
        // versa), and distinct intensities must not collide. `Some(0.0)`
        // and `None` answer the same bits by construction, but they are
        // still distinct keys — correct, just one redundant entry.
        let base = PredictorConfig::default();
        let healthy = QueryKey::new(1, 1000, 4, &base, None);
        let zero = QueryKey::new(1, 1000, 4, &base, Some(0.0));
        let half = QueryKey::new(1, 1000, 4, &base, Some(0.5));
        assert_ne!(healthy, zero);
        assert_ne!(healthy, half);
        assert_ne!(zero, half);
        assert_eq!(half, QueryKey::new(1, 1000, 4, &base, Some(0.5)));
    }

    #[test]
    fn bump_regressions_are_ignored_in_any_order() {
        // A lower bump arriving after a higher one (the interleaving two
        // racing callers can produce) must not regress the epoch or drop
        // the newer epoch's entries.
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        cache.bump_to(3);
        cache.insert(3, key(1), 7);
        cache.bump_to(2);
        assert_eq!(*cache.get(3, &key(1)).unwrap(), 7);
        cache.bump_to(3); // idempotent for the current epoch
        assert_eq!(*cache.get(3, &key(1)).unwrap(), 7);
    }

    #[test]
    fn bumps_racing_inserts_never_serve_cross_epoch_values() {
        // Writers insert values tagged with their epoch while a bumper
        // advances the cache; any hit must carry the reader's own epoch.
        // This is the TOCTOU shape: an insert that passes a pre-lock
        // epoch check, loses the race to a bump, and lands anyway would
        // surface here as a hit whose value names the wrong epoch. The
        // bumper announces each epoch before sweeping for it, so workers
        // race the sweep itself.
        use std::sync::atomic::AtomicBool;
        let cache: Arc<EpochCache<u64>> = Arc::new(EpochCache::new(CacheConfig {
            capacity: 256,
            shards: 4,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let announced = Arc::new(AtomicU64::new(0));
        let bumper = {
            let cache = Arc::clone(&cache);
            let stop = Arc::clone(&stop);
            let announced = Arc::clone(&announced);
            std::thread::spawn(move || {
                for epoch in 2..300 {
                    announced.store(epoch, Ordering::Release);
                    cache.bump_to(epoch);
                    std::thread::yield_now();
                }
                stop.store(true, Ordering::Release);
            })
        };
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let stop = Arc::clone(&stop);
                let announced = Arc::clone(&announced);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let epoch = announced.load(Ordering::Acquire);
                        for n in 0..16 {
                            if let Some(v) = cache.get(epoch, &key(n)) {
                                assert_eq!(*v, epoch, "cross-epoch value served");
                            } else {
                                cache.insert(epoch, key(n), epoch);
                            }
                        }
                    }
                })
            })
            .collect();
        bumper.join().unwrap();
        for w in workers {
            w.join().unwrap();
        }
        // Whatever survived belongs to the final epoch only.
        let last = announced.load(Ordering::Acquire);
        for n in 0..16 {
            if let Some(v) = cache.get(last, &key(n)) {
                assert_eq!(*v, last);
            }
        }
    }

    #[test]
    fn fingerprint_is_process_stable() {
        // Shard routing is part of the determinism contract: pin golden
        // values so a hasher change cannot silently reshuffle shards.
        assert_eq!(
            key(1000).fingerprint(),
            QueryKey::new(1, 1000, 4, &PredictorConfig::default(), None).fingerprint()
        );
        // Golden value: FNV-1a over eleven zero words (88 zero bytes).
        let zeros = QueryKey([0; 11]);
        let mut expect: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..88 {
            expect = expect.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(zeros.fingerprint(), expect);
        assert_ne!(key(400).fingerprint(), key(401).fingerprint());
    }
}
