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
//! * A key is hashed once, by a word-wise fold of its eleven canonical
//!   words (`QueryKey::fingerprint`) — never `RandomState` — and that
//!   one value both picks the shard and is the shard map's hash, so the
//!   same replay schedule populates the same shards in every run.
//! * Eviction is strict FIFO per shard by first-insertion order, so a
//!   bounded cache drops the same keys in the same order in every run.
//! * A hit reads the identical value the miss inserted, so cached and
//!   uncached paths are bit-identical trivially.
//!
//! The counters live in each shard, under the lock a probe already
//! holds: a hit writes nothing outside its own shard.

use prodpred_core::PredictorConfig;
use prodpred_stochastic::MaxStrategy;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Canonical cache key: the full query configuration flattened into
/// fixed words (floats by bit pattern), so equality is exact and
/// hashing is stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey([u64; 11]);

/// The fingerprint's starting state and its per-word multiplier (odd, so
/// each fold step is a bijection of the state).
const FOLD_SEED: u64 = 0x243f_6a88_85a3_08d3;
const FOLD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

/// One fold step: for a fixed state it is a bijection of `word`, and for
/// a fixed word a bijection of the state, so two keys that differ in one
/// word never share a fingerprint.
const fn fold(h: u64, word: u64) -> u64 {
    (h.rotate_left(23) ^ word).wrapping_mul(FOLD_MUL)
}

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

    /// The key's one hash, process-stable (unlike `RandomState`): a fold
    /// over the eleven words, one rotate, xor and multiply each, then an
    /// xor-shift-multiply avalanche so that every output bit depends on
    /// every word.
    pub(crate) fn fingerprint(&self) -> u64 {
        let h = self.0.iter().fold(FOLD_SEED, |h, &word| fold(h, word));
        let h = (h ^ (h >> 32)).wrapping_mul(0xd6e8_feb8_6659_fd93);
        h ^ (h >> 32)
    }
}

/// A key with its fingerprint, taken once per probe or insert: the
/// fingerprint routes the shard and is the shard map's hash.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Hashed {
    fingerprint: u64,
    key: QueryKey,
}

impl Hashed {
    fn new(key: QueryKey) -> Self {
        Self {
            fingerprint: key.fingerprint(),
            key,
        }
    }
}

impl Hash for Hashed {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// The shard map's hasher: a [`Hashed`] key is hashed already, so its
/// fingerprint passes through. Keys that share a fingerprint still
/// compare whole; at worst a probe walks one shard's capacity of them.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // `Hashed` writes one `u64`; bytes fold in the same way for any
        // other caller.
        for &b in bytes {
            self.0 = fold(self.0, u64::from(b));
        }
    }

    fn write_u64(&mut self, fingerprint: u64) {
        self.0 = fingerprint;
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
    map: HashMap<Hashed, Arc<V>, BuildHasherDefault<PassThrough>>,
    /// First-insertion order for deterministic FIFO eviction.
    order: VecDeque<QueryKey>,
    /// This shard's share of [`CacheStats`], counted under its lock
    /// (`entries` is read off the map instead).
    counts: CacheStats,
}

/// A sharded, bounded, epoch-invalidated map from [`QueryKey`] to an
/// immutable cached value.
pub struct EpochCache<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    per_shard_capacity: usize,
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
                    map: HashMap::default(),
                    order: VecDeque::new(),
                    counts: CacheStats::default(),
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            shards,
            per_shard_capacity,
        }
    }

    /// The shard a fingerprint routes to. Its bits 32 and up pick it,
    /// leaving the low bits, which index the shard map's buckets,
    /// spread over every shard.
    fn route(&self, fingerprint: u64) -> usize {
        ((fingerprint >> 32) % self.shards.len() as u64) as usize
    }

    fn lock(&self, i: usize) -> MutexGuard<'_, Shard<V>> {
        self.shards[i]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The shard `key` routes to — deterministic (the key's
    /// fingerprint).
    #[cfg(test)]
    pub(crate) fn shard_index(&self, key: &QueryKey) -> usize {
        self.route(key.fingerprint())
    }

    /// How many shards this cache was built with.
    #[cfg(test)]
    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s epoch and its cached values in first-insertion order,
    /// read under its lock without counting a probe: what the
    /// serving-path explorer observes.
    #[cfg(test)]
    pub(crate) fn shard_view(&self, i: usize) -> (u64, Vec<V>)
    where
        V: Clone,
    {
        let shard = self.lock(i);
        let values = shard
            .order
            .iter()
            .filter_map(|key| shard.map.get(&Hashed::new(*key)))
            .map(|value| V::clone(value))
            .collect();
        (shard.epoch, values)
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
    /// comparison. The serving-path explorer interleaves these one at a
    /// time.
    pub(crate) fn sweep_shard(&self, i: usize, epoch: u64) {
        let mut shard = self.lock(i);
        if shard.epoch < epoch {
            shard.counts.invalidated += shard.map.len() as u64;
            shard.map.clear();
            shard.order.clear();
            shard.epoch = epoch;
        }
    }

    /// Looks up `key` as of `epoch`. A lookup against any epoch other
    /// than the shard's current one is a guaranteed miss (the caller's
    /// snapshot is stale, or a concurrent bump has not reached this
    /// shard yet). The epoch comparison happens under the shard lock, so
    /// a hit is always an entry computed from the caller's own epoch.
    pub fn get(&self, epoch: u64, key: &QueryKey) -> Option<Arc<V>> {
        self.get_with(epoch, key, Arc::clone)
    }

    /// [`Self::get`], returning on a hit what `read` makes of the cached
    /// value instead; `read` runs under the shard lock, so keep it short.
    pub(crate) fn get_with<R>(
        &self,
        epoch: u64,
        key: &QueryKey,
        read: impl FnOnce(&Arc<V>) -> R,
    ) -> Option<R> {
        let key = Hashed::new(*key);
        let mut guard = self.lock(self.route(key.fingerprint));
        let shard = &mut *guard;
        let found = if epoch == shard.epoch {
            shard.map.get(&key)
        } else {
            None
        };
        match found {
            Some(v) => {
                shard.counts.hits += 1;
                Some(read(v))
            }
            None => {
                shard.counts.misses += 1;
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
        let key = Hashed::new(key);
        let mut shard = self.lock(self.route(key.fingerprint));
        // Epoch check under the shard lock: a concurrent `bump_to` that
        // has already swept this shard advanced `shard.epoch` under this
        // same lock, so the stale insert is dropped here — it can never
        // land behind the clear and be served as a fresh-epoch hit.
        if epoch != shard.epoch {
            return value;
        }
        if let Some(existing) = shard.map.get(&key) {
            return Arc::clone(existing);
        }
        if shard.order.len() == self.per_shard_capacity {
            if let Some(oldest) = shard.order.pop_front() {
                shard.map.remove(&Hashed::new(oldest));
                shard.counts.evicted += 1;
            }
        }
        shard.order.push_back(key.key);
        shard.map.insert(key, Arc::clone(&value));
        value
    }

    /// Point-in-time counters, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            total.hits += shard.counts.hits;
            total.misses += shard.counts.misses;
            total.invalidated += shard.counts.invalidated;
            total.evicted += shard.counts.evicted;
            total.entries += shard.map.len() as u64;
        }
        total
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
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
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
        // Golden value: the word-wise fold over eleven zero words.
        let zeros = QueryKey([0; 11]);
        assert_eq!(zeros.fingerprint(), 0x2024_2181_04c5_c2c2);
        assert_ne!(key(400).fingerprint(), key(401).fingerprint());
    }

    #[test]
    fn colliding_keys_stay_distinct_and_evict_past_capacity() {
        // Keys that share one fingerprint, built by solving each key's
        // last word for one fold state: every probe still finds its own
        // value, and the one shard they all route to evicts FIFO at
        // capacity like any other — so a probe's worst case is a walk
        // over one shard's capacity of keys.
        const KEYS: u64 = 300;
        let mut inverse = FOLD_MUL; // FOLD_MUL⁻¹ mod 2⁶⁴, by Newton steps
        for _ in 0..5 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(FOLD_MUL.wrapping_mul(inverse)));
        }
        assert_eq!(FOLD_MUL.wrapping_mul(inverse), 1);
        let state = 0x5eed_u64.wrapping_mul(inverse);
        let colliding: Vec<QueryKey> = (0..KEYS)
            .map(|i| {
                let mut words = [i, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0];
                let h = words[..10].iter().fold(FOLD_SEED, |h, &w| fold(h, w));
                words[10] = h.rotate_left(23) ^ state;
                QueryKey(words)
            })
            .collect();
        let fingerprint = colliding[0].fingerprint();
        assert!(colliding.iter().all(|k| k.fingerprint() == fingerprint));

        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        let capacity = cache.per_shard_capacity as u64;
        cache.bump_to(1);
        for (i, k) in (0..).zip(&colliding) {
            cache.insert(1, *k, i);
        }
        let s = cache.stats();
        assert_eq!((s.entries, s.evicted), (capacity, KEYS - capacity));
        for (i, k) in (0..).zip(&colliding) {
            let live = i >= KEYS - capacity;
            assert_eq!(cache.get(1, k).map(|v| *v), live.then_some(i), "key {i}");
        }
    }

    /// Key `i` of a cold stream: like the benchmark's never-repeating
    /// keys, `(n, iterations)` walk a bijection of `i` and the rest is
    /// drawn from a seeded stream.
    fn cold_key(i: u64) -> QueryKey {
        const SIZES: u64 = 20_000 - 16 + 1;
        let bits = prodpred_pool::derive_seed(0x636f_6c64, i);
        let config = PredictorConfig {
            iterations: 10 + (i / SIZES) as usize,
            staleness_aware: bits & 1 == 1,
            ..PredictorConfig::default()
        };
        QueryKey::new(
            1 + ((bits >> 8) & 1) as u8,
            16 + (i % SIZES) as usize,
            [1, 2, 4][((bits >> 16) % 3) as usize],
            &config,
            (bits >> 32).is_multiple_of(10).then_some(0.5),
        )
    }

    #[test]
    fn counts_do_not_depend_on_routing() {
        // Every counter is a function of the call sequence alone, whichever
        // shard each key lands in.
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        assert!(cache.get(0, &key(1)).is_none(), "nothing published");
        cache.bump_to(1);
        for n in 0..40 {
            assert!(cache.get(1, &key(n)).is_none());
            cache.insert(1, key(n), n as u64);
        }
        for n in 0..40 {
            assert_eq!(*cache.get(1, &key(n)).unwrap(), n as u64);
        }
        assert!(cache.get(2, &key(3)).is_none(), "epoch ahead of the shard");
        cache.insert(0, key(99), 0); // computed from an obsolete snapshot
        cache.bump_to(2);
        for n in 0..10 {
            assert!(cache.get(2, &key(n)).is_none());
            cache.insert(2, key(n), n as u64);
            assert_eq!(*cache.get(2, &key(n)).unwrap(), n as u64);
        }
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.invalidated, s.evicted, s.entries),
            (50, 52, 40, 0, 10)
        );

        // Pressure: far more distinct keys than the cache holds, so every
        // shard overflows and each insert past capacity evicts one entry.
        const INSERTED: u64 = 32_768;
        cache.bump_to(3);
        for i in 0..INSERTED {
            cache.insert(3, cold_key(i), i);
        }
        let capacity = CacheConfig::default().capacity as u64;
        let s = cache.stats();
        assert_eq!((s.invalidated, s.entries), (50, capacity));
        assert_eq!(s.evicted, INSERTED - capacity);
    }

    #[test]
    fn routing_spreads_the_replay_space() {
        let cache: EpochCache<u64> = EpochCache::new(CacheConfig::default());
        let shards = cache.shard_count();

        // The replay's 192 configurations: no shard takes more than 32.
        let mut replay = std::collections::HashSet::new();
        for i in 0..4096 {
            let r = crate::replay::request_for(42, i);
            replay.insert(QueryKey::new(
                r.platform,
                r.n,
                r.procs,
                &r.config,
                r.fault_intensity,
            ));
        }
        assert_eq!(replay.len(), crate::replay::DISTINCT_REQUESTS);
        let mut load = vec![0usize; shards];
        for k in &replay {
            load[cache.shard_index(k)] += 1;
        }
        assert!(load.iter().all(|&l| l <= 32), "replay per shard: {load:?}");

        // Cold keys: every shard within ±10 % of the mean.
        const COLD: u64 = 65_536;
        let mut load = vec![0u64; shards];
        for i in 0..COLD {
            load[cache.shard_index(&cold_key(i))] += 1;
        }
        let mean = COLD / shards as u64;
        assert!(
            load.iter().all(|&l| l.abs_diff(mean) * 10 <= mean),
            "cold keys per shard: {load:?}"
        );
    }
}
