//! Cross-request memoization: the two LRU tiers an
//! [`Engine`](crate::Engine) owns, each one [`Lru`].
//!
//! Without them every `Engine::prepare → synthesize` would rebuild its
//! per-page neural-feature / `[filter][node]` mask tables even over the
//! same interned pages, and a repeat of an identical query would re-run
//! the whole search. Each cached value is a pure function of its key
//! under the engine's config, and that config never changes after
//! construction (each engine creates its own caches), so no key needs
//! to carry it:
//!
//! * the **feature tier** holds full [`webqa_synth::PageFeatures`]
//!   tables, keyed by `(page, question, keywords)` ([`QueryKey`]). The
//!   page's [`PageId`] embeds its content digest;
//! * the **result tier** holds completed [`RunResult`]s, keyed by the
//!   exact [`Task`]. A result is the reply, not the search: the
//!   selected program, the answers and the synthesis figures, without
//!   the optimal-program list. A hit clones the program's branches,
//!   which copies pointers to the entry's trees, not the trees.
//!   Measured on a 2-core Xeon, as the resident-set growth (after
//!   `malloc_trim`) of one default-config engine over 128 distinct
//!   `serve_open`-style runs (corpus seed 42, 8 pages per domain, 2
//!   labeled and 2 target pages each), less the same runs with the tier
//!   off: 0.21 MB per entry while results kept every optimal program
//!   (~1,440 programs, ~600 guards), 0.004 MB (1.6 KB of live heap, the
//!   key included) without them. An entry is now the size of its task
//!   and its reply, so the entry count bounds the tier's bytes too: the
//!   default 128 entries take about 0.5 MB at this scale.
//!
//! Every key is the exact input, never a digest of it, so a hash
//! collision cannot serve another key's value. Because values are pure,
//! a cache hit is observationally invisible: reuse, eviction, and
//! re-insertion change latency, never bytes. `tests/serve_api.rs` and the
//! cache-invalidation proptest (`crates/core/tests/cache_semantics.rs`)
//! pin that — every cached engine response is compared against a cold,
//! never-cached reference engine, the same discipline
//! `tests/synth_parity.rs` applies one level down.
//!
//! Each tier is one map behind one lock. A run takes at most
//! 2 + 2 × (labeled pages) lock acquisitions next to tens of milliseconds
//! of search, and the daemon already splits traffic across whole engines
//! by page digest (`webqa_server`'s shards). Capacities are set by
//! [`CacheConfig`] (0 disables a tier). Counters are atomics, snapshotted
//! by [`Engine::cache_stats`](crate::Engine::cache_stats) and served over
//! the wire by `webqa_server`'s `stats` op.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::engine::Task;
use crate::pipeline::RunResult;
use crate::store::PageId;
use webqa_synth::PageFeatures;

/// Capacities of the engine's cross-request caches (entries, not bytes).
/// `0` disables the respective cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Max feature tables resident in the feature LRU, one per distinct
    /// `(page, question, keywords)`.
    pub feature_capacity: usize,
    /// Max completed [`RunResult`]s resident in the result LRU.
    pub result_capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            feature_capacity: 512,
            result_capacity: 128,
        }
    }
}

impl CacheConfig {
    /// Both caches off — every request recomputes from scratch (the
    /// "never-cached reference path" the cache-semantics tests compare
    /// against).
    pub fn disabled() -> Self {
        CacheConfig {
            feature_capacity: 0,
            result_capacity: 0,
        }
    }
}

/// A point-in-time snapshot of the cache counters.
///
/// A *disabled* tier (capacity 0) counts nothing — its counters stay
/// zero and its `*_enabled` flag is `false`, so consumers can render
/// "cache off" instead of a misleading 0% hit rate. The
/// `*_hit_rate` helpers fold both concerns: `None` means "no rate to
/// report" (tier disabled or no lookups yet), never a division by zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStats {
    /// Feature tables served from the feature LRU.
    pub feature_hits: u64,
    /// Feature tables computed (not resident).
    pub feature_misses: u64,
    /// Feature tables evicted (LRU, over capacity).
    pub feature_evictions: u64,
    /// Completed runs served from the result LRU.
    pub result_hits: u64,
    /// Completed runs computed.
    pub result_misses: u64,
    /// Completed runs evicted (LRU, over capacity).
    pub result_evictions: u64,
    /// Whether the feature LRU is enabled (capacity > 0).
    pub features_enabled: bool,
    /// Whether the result LRU is enabled (capacity > 0).
    pub results_enabled: bool,
}

impl CacheStats {
    /// Field-wise sum of two snapshots — how a front end holding several
    /// independent engines (e.g. `webqa_server`'s per-shard engines)
    /// aggregates their counters into one fleet-wide view. The enabled
    /// flags OR: a tier counts as on if any engine has it on.
    pub fn merged(self, other: CacheStats) -> CacheStats {
        CacheStats {
            feature_hits: self.feature_hits + other.feature_hits,
            feature_misses: self.feature_misses + other.feature_misses,
            feature_evictions: self.feature_evictions + other.feature_evictions,
            result_hits: self.result_hits + other.result_hits,
            result_misses: self.result_misses + other.result_misses,
            result_evictions: self.result_evictions + other.result_evictions,
            features_enabled: self.features_enabled || other.features_enabled,
            results_enabled: self.results_enabled || other.results_enabled,
        }
    }

    fn rate(enabled: bool, hits: u64, misses: u64) -> Option<f64> {
        let total = hits + misses;
        if !enabled || total == 0 {
            return None;
        }
        Some(hits as f64 / total as f64)
    }

    /// Feature-LRU hit rate; `None` when the LRU is disabled or has seen
    /// no lookups.
    pub fn feature_hit_rate(&self) -> Option<f64> {
        Self::rate(
            self.features_enabled,
            self.feature_hits,
            self.feature_misses,
        )
    }

    /// Result-LRU hit rate; `None` when the LRU is disabled or has seen
    /// no lookups.
    pub fn result_hit_rate(&self) -> Option<f64> {
        Self::rate(self.results_enabled, self.result_hits, self.result_misses)
    }
}

/// One least-recently-used map: the structure behind both tiers.
///
/// Recency is a clock stamp per entry; eviction scans the resident
/// entries for the oldest stamp — O(capacity) per insert into a full
/// map. That is deliberate: capacities are a few hundred entries, every
/// insert follows a computation that costs far more than the scan, and
/// the scan keeps the structure a plain map instead of a linked list.
#[derive(Debug)]
pub(crate) struct Lru<K, V> {
    /// Max resident entries; 0 = off (nothing stored, nothing counted).
    capacity: usize,
    map: Mutex<HashMap<K, (V, u64)>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Hash + Eq + Clone, V: Clone> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            map: Mutex::default(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The map, recovered if a panicking holder poisoned the lock: every
    /// step below leaves the map valid, so its contents stay usable.
    fn map(&self) -> MutexGuard<'_, HashMap<K, (V, u64)>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The resident value for `key`, now the most recently used. Counts
    /// one hit or one miss; a disabled tier counts nothing (a cache that
    /// is off has no hit rate — see [`CacheStats`]).
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        if !self.enabled() {
            return None;
        }
        let stamp = self.tick();
        let found = self.map().get_mut(key).map(|(value, used)| {
            *used = stamp;
            value.clone()
        });
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Makes `value` resident under `key`, evicting the least recently
    /// used entry from a full map, and returns the value now resident.
    /// An entry already resident is kept: values are pure functions of
    /// their keys, so which of two equal values survives is unobservable.
    /// Counts no lookup: the caller has already missed (the result tier
    /// inserts a run it just computed).
    pub(crate) fn insert(&self, key: K, value: V) -> V {
        if !self.enabled() {
            return value;
        }
        let stamp = self.tick();
        let mut map = self.map();
        if let Some((resident, _)) = map.get(&key) {
            return resident.clone();
        }
        if map.len() >= self.capacity {
            let oldest = map.iter().min_by_key(|(_, (_, used))| *used);
            if let Some(victim) = oldest.map(|(k, _)| k.clone()) {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        map.insert(key, (value.clone(), stamp));
        value
    }

    /// The value for `key`, computed and inserted on a miss. The compute
    /// runs outside the lock, so a slow build never blocks lookups of
    /// other keys; two concurrent misses on one key may both compute, and
    /// the first insert wins.
    pub(crate) fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        match self.get(&key) {
            Some(value) => value,
            None => self.insert(key, compute()),
        }
    }

    /// Every resident `(key, value)`, in unspecified order.
    #[cfg(test)]
    fn entries(&self) -> Vec<(K, V)> {
        self.map()
            .iter()
            .map(|(k, (v, _))| (k.clone(), v.clone()))
            .collect()
    }

    /// `[hits, misses, evictions]`.
    fn counts(&self) -> [u64; 3] {
        [&self.hits, &self.misses, &self.evictions].map(|c| c.load(Ordering::Relaxed))
    }
}

/// Key of one feature table: the page plus the question and keywords
/// of the query context it was built under.
pub(crate) type QueryKey = (PageId, String, Vec<String>);

/// The caches an [`Engine`](crate::Engine) owns. The engine holds them
/// by value: a daemon shard owns one engine behind a lock, so every
/// request that shard serves reads and fills the same caches.
#[derive(Debug)]
pub(crate) struct EngineCaches {
    pub features: Lru<QueryKey, Arc<PageFeatures>>,
    pub results: Lru<Task, RunResult>,
}

impl EngineCaches {
    pub(crate) fn new(config: CacheConfig) -> Self {
        EngineCaches {
            features: Lru::new(config.feature_capacity),
            results: Lru::new(config.result_capacity),
        }
    }

    /// A point-in-time snapshot of all counters.
    pub(crate) fn stats(&self) -> CacheStats {
        let [feature_hits, feature_misses, feature_evictions] = self.features.counts();
        let [result_hits, result_misses, result_evictions] = self.results.counts();
        CacheStats {
            feature_hits,
            feature_misses,
            feature_evictions,
            result_hits,
            result_misses,
            result_evictions,
            features_enabled: self.features.enabled(),
            results_enabled: self.results.enabled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_lookup_counts_one_hit_or_one_miss() {
        let lru = Lru::new(4);
        assert_eq!(lru.get(&1), None);
        assert_eq!(lru.get_or_insert_with(1, || 10), 10);
        assert_eq!(lru.get_or_insert_with(1, || panic!("must hit")), 10);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.counts(), [2, 2, 0], "[hits, misses, evictions]");
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let lru = Lru::new(2);
        lru.insert(1, 'a');
        lru.insert(2, 'b');
        // Touching 1 leaves 2 as the least recently used entry.
        assert_eq!(lru.get(&1), Some('a'));
        lru.insert(3, 'c');
        assert_eq!(lru.counts()[2], 1);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some('a'));
        assert_eq!(lru.get(&3), Some('c'));
    }

    #[test]
    fn capacity_n_holds_at_most_n_entries() {
        for n in [1usize, 2, 5] {
            let lru = Lru::new(n);
            for k in 0..3 * n {
                lru.get_or_insert_with(k, || k);
                assert!(lru.entries().len() <= n, "capacity {n}");
            }
            assert_eq!(lru.entries().len(), n);
            assert_eq!(lru.counts()[2], 2 * n as u64);
        }
    }

    #[test]
    fn disabled_tier_stores_and_counts_nothing() {
        let lru = Lru::new(0);
        assert_eq!(lru.get_or_insert_with(1, || 10), 10);
        assert_eq!(lru.get_or_insert_with(1, || 11), 11);
        assert_eq!(lru.insert(2, 20), 20);
        assert_eq!(lru.get(&2), None);
        assert!(lru.entries().is_empty());
        assert_eq!(lru.counts(), [0, 0, 0]);
    }

    #[test]
    fn seeding_counts_no_lookup_and_keeps_the_resident_value() {
        let lru = Lru::new(4);
        let seeded = Arc::new(1);
        assert!(Arc::ptr_eq(&lru.insert(9, Arc::clone(&seeded)), &seeded));
        assert_eq!(lru.counts(), [0, 0, 0]);
        // Seeding a resident key is a no-op, not a replace.
        assert!(Arc::ptr_eq(&lru.insert(9, Arc::new(1)), &seeded));
        let got = lru.get_or_insert_with(9, || panic!("must hit the seeded value"));
        assert!(Arc::ptr_eq(&got, &seeded));
        assert_eq!(lru.counts(), [1, 0, 0]);
    }

    #[test]
    fn answers_after_its_lock_was_poisoned() {
        let lru = Lru::new(2);
        lru.insert(1, 10);
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = lru.map.lock();
            panic!("a panicking holder poisons the lock");
        }));
        assert!(poisoner.is_err() && lru.map.is_poisoned());
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get_or_insert_with(2, || 20), 20);
        assert_eq!(lru.entries().len(), 2);
    }
}
