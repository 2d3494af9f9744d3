//! Cross-request memoization: the engine-owned [`FeatureStore`] and the
//! completed-run LRU.
//!
//! PR 4 made everything *inside* one `synthesize` call cheap; what was
//! left on the table is cross-*task* reuse — every `Engine::prepare →
//! synthesize` rebuilt its per-page neural-feature / `[filter][node]`
//! mask tables even over the same interned pages, and a repeat of an
//! identical query re-ran the whole search. Both artifacts are pure
//! functions of their keys:
//!
//! * a [`webqa_synth::PageFeatures`] table is determined by
//!   `(page, question+keywords, synth config)` — cached in the sharded,
//!   **two-tier** [`FeatureStore`]: the query tier keyed by the page's
//!   [`PageId`] (which embeds the content digest) plus a pool digest of
//!   the context and config, and a query-independent **base tier**
//!   ([`webqa_synth::PageBaseFeatures`]: NER entity bits, leaf/elem
//!   masks — the expensive half) keyed by the page alone, so different
//!   questions over the same page share it. The base tier is what
//!   [`crate::Engine::spill_snapshot`] persists to disk;
//! * a [`RunResult`] is determined by `(task, engine config)` — cached in
//!   the [`ResultCache`], keyed by the task's canonical form (exact, not
//!   a digest: a hash collision must not serve the wrong programs). The
//!   canonical form ([`normalize_task`]) folds together only input
//!   reorderings the pipeline is provably invariant to — sorted/deduped
//!   keywords, sorted gold per example — so semantically equivalent
//!   requests share one entry while example and target order (which the
//!   pipeline *does* observe) stay significant.
//!
//! Because both values are pure, a cache hit is observationally
//! invisible: reuse, eviction, and re-insertion change latency, never
//! bytes. `tests/serve_api.rs` and the cache-invalidation proptest
//! (`crates/core/tests/cache_semantics.rs`) pin that — every cached
//! engine response is compared against a cold, never-cached reference
//! engine, the same discipline `tests/synth_parity.rs` applies one level
//! down.
//!
//! Eviction is LRU via a monotonic clock stamp per entry; capacities are
//! set by [`CacheConfig`] (0 disables a cache entirely). Counters are
//! atomics, snapshotted by [`Engine::cache_stats`](crate::Engine::cache_stats)
//! and served over the wire by `webqa_server`'s `stats` op.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::Task;
use crate::pipeline::{Config, RunResult};
use crate::store::PageId;
use webqa_dsl::QueryContext;
use webqa_synth::{PageBaseFeatures, PageFeatures, SynthConfig};

/// Capacities of the engine's cross-request caches (entries, not bytes).
/// `0` disables the respective cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Max feature tables resident in the engine's feature store (one
    /// table per distinct `(page, question+keywords, synth config)`).
    ///
    /// Rounded up to the store's shard granularity: capacity is split
    /// evenly across 8 independently locked shards, so the actual
    /// resident maximum is `8 × ceil(feature_capacity / 8)` (a nonzero
    /// capacity always admits at least one table per shard).
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
    /// Full feature tables served from the query tier.
    pub feature_hits: u64,
    /// Full feature tables computed (query tier cold or evicted).
    pub feature_misses: u64,
    /// Full feature tables evicted (LRU, over capacity).
    pub feature_evictions: u64,
    /// Query-independent base tables served from the base tier —
    /// including to *different* questions than the one that filled them.
    pub base_hits: u64,
    /// Base tables computed (base tier cold or evicted).
    pub base_misses: u64,
    /// Base tables evicted (LRU, over capacity).
    pub base_evictions: u64,
    /// Completed runs served from the result LRU.
    pub result_hits: u64,
    /// Completed runs computed.
    pub result_misses: u64,
    /// Completed runs evicted (LRU, over capacity).
    pub result_evictions: u64,
    /// Whether the feature store (both tiers) is enabled (capacity > 0).
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
            base_hits: self.base_hits + other.base_hits,
            base_misses: self.base_misses + other.base_misses,
            base_evictions: self.base_evictions + other.base_evictions,
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

    /// Query-tier hit rate; `None` when the feature store is disabled or
    /// has seen no lookups.
    pub fn feature_hit_rate(&self) -> Option<f64> {
        Self::rate(
            self.features_enabled,
            self.feature_hits,
            self.feature_misses,
        )
    }

    /// Base-tier hit rate; `None` when the feature store is disabled or
    /// the base tier has seen no lookups.
    pub fn base_hit_rate(&self) -> Option<f64> {
        Self::rate(self.features_enabled, self.base_hits, self.base_misses)
    }

    /// Result-LRU hit rate; `None` when the LRU is disabled or has seen
    /// no lookups.
    pub fn result_hit_rate(&self) -> Option<f64> {
        Self::rate(self.results_enabled, self.result_hits, self.result_misses)
    }
}

/// Number of independently locked shards in the [`FeatureStore`]:
/// concurrent requests over different pages take different locks.
const FEATURE_SHARDS: usize = 8;

/// Key of one feature table: the page handle (whose embedded content
/// digest makes the key content-addressed) plus the pool digest of the
/// query context and synthesis config it was built under.
type FeatKey = (PageId, u64);

#[derive(Debug)]
struct FeatEntry {
    table: Arc<PageFeatures>,
    stamp: u64,
}

#[derive(Debug)]
struct BaseEntry {
    table: Arc<PageBaseFeatures>,
    stamp: u64,
}

/// Sharded, content-keyed, **two-tier** store of feature tables.
///
/// * The **query tier** holds full [`PageFeatures`] tables keyed by
///   `(page, pool digest)` — exact reuse for repeats of the same
///   question/config over the same page.
/// * The **base tier** holds [`PageBaseFeatures`] tables keyed by the
///   page alone: NER entity bits and leaf/elem masks are pure functions
///   of page content (under the pretrained modules), so *different*
///   questions over the same page share the expensive half and only the
///   thin keyword/answerability layer is recomputed. This tier is also
///   what `crate::persist` spills to disk, making a restarted engine
///   warm.
///
/// Both tiers are LRU with per-shard capacity; capacity 0 disables the
/// whole store (pass-through computes, no counter traffic — see
/// [`CacheStats`]).
#[derive(Debug)]
pub(crate) struct FeatureStore {
    /// Per-shard capacity (total capacity split across shards); 0 = off.
    shard_capacity: usize,
    enabled: bool,
    shards: Vec<Mutex<HashMap<FeatKey, FeatEntry>>>,
    /// The query-independent base tier, keyed by page handle (content
    /// digest included — the key is content-addressed like `FeatKey`).
    base_shards: Vec<Mutex<HashMap<PageId, BaseEntry>>>,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    base_hits: AtomicU64,
    base_misses: AtomicU64,
    base_evictions: AtomicU64,
}

impl FeatureStore {
    fn new(capacity: usize) -> Self {
        FeatureStore {
            shard_capacity: capacity.div_ceil(FEATURE_SHARDS),
            enabled: capacity > 0,
            shards: (0..FEATURE_SHARDS).map(|_| Mutex::default()).collect(),
            base_shards: (0..FEATURE_SHARDS).map(|_| Mutex::default()).collect(),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            base_hits: AtomicU64::new(0),
            base_misses: AtomicU64::new(0),
            base_evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &FeatKey) -> &Mutex<HashMap<FeatKey, FeatEntry>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % FEATURE_SHARDS]
    }

    fn base_shard_of(&self, id: &PageId) -> &Mutex<HashMap<PageId, BaseEntry>> {
        let mut h = DefaultHasher::new();
        id.hash(&mut h);
        &self.base_shards[(h.finish() as usize) % FEATURE_SHARDS]
    }

    /// The base table for page `id`, computing (and caching) it on a
    /// miss. Same discipline as the query tier: compute outside the
    /// lock, first insert wins, min-stamp eviction.
    pub fn base_for(
        &self,
        id: PageId,
        compute: impl FnOnce() -> PageBaseFeatures,
    ) -> Arc<PageBaseFeatures> {
        if !self.enabled {
            return Arc::new(compute());
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.base_shard_of(&id).lock().expect("base shard");
            if let Some(entry) = shard.get_mut(&id) {
                entry.stamp = stamp;
                self.base_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.table);
            }
        }
        self.base_misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(compute());
        self.seed_base_entry(id, Arc::clone(&table), stamp);
        table
    }

    /// Inserts a base table computed (or loaded) elsewhere — the warm-
    /// start path of [`crate::Engine::load_snapshot`]. No counter
    /// traffic: seeding is not a lookup. A no-op when disabled or when
    /// the page already has a resident entry.
    pub fn seed_base(&self, id: PageId, table: Arc<PageBaseFeatures>) {
        if !self.enabled {
            return;
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        self.seed_base_entry(id, table, stamp);
    }

    fn seed_base_entry(&self, id: PageId, table: Arc<PageBaseFeatures>, stamp: u64) {
        let mut shard = self.base_shard_of(&id).lock().expect("base shard");
        if shard.contains_key(&id) {
            // Lost the race to a concurrent miss (or an earlier seed):
            // the resident table is identical by purity.
            return;
        }
        if shard.len() >= self.shard_capacity {
            let victim = shard.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.base_evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(id, BaseEntry { table, stamp });
    }

    /// Snapshot of the resident base tier: every `(page, base table)`
    /// pair, in unspecified order — the spill surface of
    /// [`crate::Engine::spill_snapshot`].
    pub fn resident_base(&self) -> Vec<(PageId, Arc<PageBaseFeatures>)> {
        self.base_shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("base shard")
                    .iter()
                    .map(|(id, e)| (*id, Arc::clone(&e.table)))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// The table for `key`, computing (and caching) it on a miss. The
    /// compute runs *outside* the shard lock, so a slow table build never
    /// blocks hits on other pages; two concurrent misses on the same key
    /// may both compute, and the first insert wins (the values are
    /// identical by purity, so which one survives is unobservable).
    ///
    /// When the store is disabled, this is a pure pass-through: the
    /// compute runs and **no** counters move (a disabled cache has no
    /// hit rate — see [`CacheStats`]).
    pub fn get_or_compute(
        &self,
        key: FeatKey,
        compute: impl FnOnce() -> PageFeatures,
    ) -> Arc<PageFeatures> {
        if !self.enabled {
            return Arc::new(compute());
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut shard = self.shard_of(&key).lock().expect("feature shard");
            if let Some(entry) = shard.get_mut(&key) {
                entry.stamp = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&entry.table);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let table = Arc::new(compute());
        let mut shard = self.shard_of(&key).lock().expect("feature shard");
        if let Some(entry) = shard.get(&key) {
            // Lost the race to a concurrent miss: share its table.
            return Arc::clone(&entry.table);
        }
        if shard.len() >= self.shard_capacity {
            let victim = shard.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| *k);
            if let Some(victim) = victim {
                shard.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.insert(
            key,
            FeatEntry {
                table: Arc::clone(&table),
                stamp,
            },
        );
        table
    }
}

#[derive(Debug)]
struct ResultEntry {
    /// The canonical form ([`normalize_task`]) of the task this entry
    /// was computed for — verified on lookup, so a digest collision can
    /// never serve another task's programs.
    task: Task,
    result: RunResult,
    stamp: u64,
}

/// LRU of completed `(task, config)` runs, bucketed by digest with exact
/// task equality inside a bucket.
///
/// Eviction scans all resident entries for the minimum stamp — O(capacity)
/// per at-capacity insert. That is deliberate: capacities are small (a
/// few hundred entries of whole `RunResult`s), inserts are rare next to
/// the synthesis they follow, and the scan keeps the structure a plain
/// map instead of a linked LRU. Revisit if `--result-cache` is ever
/// sized in the tens of thousands.
#[derive(Debug)]
pub(crate) struct ResultCache {
    capacity: usize,
    buckets: Mutex<HashMap<u64, Vec<ResultEntry>>>,
    len: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

fn result_key(cfg: u64, task: &Task) -> u64 {
    let mut h = DefaultHasher::new();
    cfg.hash(&mut h);
    task.hash(&mut h);
    h.finish()
}

/// The canonical form of a task for result-cache keying, folding
/// together exactly the input reorderings the pipeline is invariant to:
///
/// * **keywords** are sorted and deduplicated — keyword evidence is
///   accumulated by order-insensitive folds (max-similarity per node),
///   so permuting or repeating keywords never changes a result;
/// * **gold strings within one labeled example** are sorted — gold sets
///   are compared as bags by the F₁ kernels, never positionally.
///
/// The *order of labeled examples* and the *order of targets* are kept
/// exactly as given: example order steers enumeration tie-breaks (a
/// reordering can legitimately select a different optimal program), and
/// answers align positionally with targets. Normalizing either would
/// break the byte-identical-to-a-cold-engine contract; the invariances
/// above are pinned (against a never-cached reference engine) by
/// `crates/core/tests/cache_semantics.rs`.
fn normalize_task(task: &Task) -> Task {
    let mut t = task.clone();
    t.keywords.sort();
    t.keywords.dedup();
    for (_, gold) in &mut t.labeled {
        gold.sort();
    }
    t
}

impl ResultCache {
    fn new(capacity: usize) -> Self {
        ResultCache {
            capacity,
            buckets: Mutex::default(),
            len: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A cached run for the task under config digest `cfg`, if resident.
    /// Lookup is by the task's canonical form ([`normalize_task`]), so a
    /// request that merely reorders keywords or gold strings hits the
    /// entry its equivalent predecessor filled.
    pub fn get(&self, cfg: u64, task: &Task) -> Option<RunResult> {
        if self.capacity == 0 {
            // Disabled: no lookup happened, so no miss is counted — a
            // cache that is off has no hit rate (see [`CacheStats`]).
            return None;
        }
        let task = normalize_task(task);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut buckets = self.buckets.lock().expect("result cache");
        let found = buckets
            .get_mut(&result_key(cfg, &task))
            .and_then(|bucket| bucket.iter_mut().find(|e| e.task == task))
            .map(|e| {
                e.stamp = stamp;
                e.result.clone()
            });
        match found {
            Some(r) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a completed run under the task's canonical form
    /// ([`normalize_task`]), evicting the least-recently-used entry when
    /// over capacity.
    pub fn insert(&self, cfg: u64, task: &Task, result: RunResult) {
        if self.capacity == 0 {
            return;
        }
        let task = normalize_task(task);
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        let key = result_key(cfg, &task);
        let mut buckets = self.buckets.lock().expect("result cache");
        let resident = buckets
            .get(&key)
            .is_some_and(|b| b.iter().any(|e| e.task == task));
        if !resident && self.len.load(Ordering::Relaxed) as usize >= self.capacity {
            // Evict the globally least-recently-used entry.
            if let Some(victim_key) = buckets
                .iter()
                .filter_map(|(k, b)| b.iter().map(|e| e.stamp).min().map(|s| (s, *k)))
                .min()
                .map(|(_, k)| k)
            {
                let bucket = buckets.get_mut(&victim_key).expect("victim bucket");
                let oldest = bucket
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.stamp)
                    .map(|(i, _)| i)
                    .expect("non-empty bucket");
                bucket.swap_remove(oldest);
                if bucket.is_empty() {
                    buckets.remove(&victim_key);
                }
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let bucket = buckets.entry(key).or_default();
        match bucket.iter_mut().find(|e| e.task == task) {
            Some(existing) => {
                existing.result = result;
                existing.stamp = stamp;
            }
            None => {
                bucket.push(ResultEntry {
                    task,
                    result,
                    stamp,
                });
                self.len.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The caches an [`Engine`](crate::Engine) owns; clones of an engine
/// share them through an `Arc`, so a server handing out per-request
/// engine views accumulates hits in one place.
#[derive(Debug)]
pub(crate) struct EngineCaches {
    pub features: FeatureStore,
    pub results: ResultCache,
}

impl EngineCaches {
    pub fn new(config: CacheConfig) -> Self {
        EngineCaches {
            features: FeatureStore::new(config.feature_capacity),
            results: ResultCache::new(config.result_capacity),
        }
    }

    /// A point-in-time snapshot of all counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            feature_hits: self.features.hits.load(Ordering::Relaxed),
            feature_misses: self.features.misses.load(Ordering::Relaxed),
            feature_evictions: self.features.evictions.load(Ordering::Relaxed),
            base_hits: self.features.base_hits.load(Ordering::Relaxed),
            base_misses: self.features.base_misses.load(Ordering::Relaxed),
            base_evictions: self.features.base_evictions.load(Ordering::Relaxed),
            result_hits: self.results.hits.load(Ordering::Relaxed),
            result_misses: self.results.misses.load(Ordering::Relaxed),
            result_evictions: self.results.evictions.load(Ordering::Relaxed),
            features_enabled: self.features.enabled,
            results_enabled: self.results.capacity > 0,
        }
    }
}

/// Digest of the feature-table pool: the query context plus the synth
/// config.
pub(crate) fn pool_digest(cfg: &SynthConfig, ctx: &QueryContext) -> u64 {
    let mut h = DefaultHasher::new();
    ctx.question().hash(&mut h);
    ctx.keywords().hash(&mut h);
    // SynthConfig has no Hash (f64 fields); its derived Debug output is
    // injective enough for an in-process cache key (floats round-trip).
    format!("{cfg:?}").hash(&mut h);
    h.finish()
}

/// Digest of the full engine config for result-cache keying.
pub(crate) fn config_digest(config: &Config) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{config:?}").hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_dsl::PageTree;

    fn table(nodes: &str) -> PageFeatures {
        let cfg = SynthConfig::fast();
        let ctx = QueryContext::new("Who?", ["Students"]);
        PageFeatures::compute(&cfg, &ctx, &PageTree::parse(nodes))
    }

    fn base(nodes: &str) -> PageBaseFeatures {
        let ctx = QueryContext::new("Who?", ["Students"]);
        PageBaseFeatures::compute(&ctx, &PageTree::parse(nodes))
    }

    fn key(n: u32) -> FeatKey {
        (crate::store::PageId::forged(n), 7)
    }

    #[test]
    fn feature_store_hits_after_insert() {
        let store = FeatureStore::new(16);
        let a1 = store.get_or_compute(key(1), || table("<p>a</p>"));
        let a2 = store.get_or_compute(key(1), || panic!("must hit"));
        assert!(Arc::ptr_eq(&a1, &a2));
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!((s(&store.hits), s(&store.misses)), (1, 1));
    }

    #[test]
    fn feature_store_evicts_least_recently_used() {
        // Capacity 8 over 8 shards = 1 entry per shard; two keys in the
        // same shard force an eviction of the older one.
        let store = FeatureStore::new(8);
        let mut in_shard = (0u32..).filter(|&n| {
            std::ptr::eq(
                store.shard_of(&key(n)) as *const _,
                store.shard_of(&key(0)) as *const _,
            )
        });
        let a = in_shard.next().unwrap();
        let b = in_shard.next().unwrap();
        store.get_or_compute(key(a), || table("<p>a</p>"));
        store.get_or_compute(key(b), || table("<p>b</p>"));
        assert_eq!(store.evictions.load(Ordering::Relaxed), 1);
        // `a` was evicted: asking again recomputes.
        store.get_or_compute(key(a), || table("<p>a</p>"));
        assert_eq!(store.hits.load(Ordering::Relaxed), 0);
        assert_eq!(store.misses.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn disabled_feature_store_is_a_pass_through() {
        // A disabled store computes every request — and counts *nothing*:
        // a cache that is off has no hit rate (the PR 9 bugfix; it used
        // to count every lookup as a miss, rendering as "0% hit rate").
        let store = FeatureStore::new(0);
        assert!(!store.enabled);
        store.get_or_compute(key(1), || table("<p>a</p>"));
        store.get_or_compute(key(1), || table("<p>a</p>"));
        store.base_for(PageId::forged(1), || base("<p>a</p>"));
        store.seed_base(PageId::forged(1), Arc::new(base("<p>a</p>")));
        assert_eq!(store.hits.load(Ordering::Relaxed), 0);
        assert_eq!(store.misses.load(Ordering::Relaxed), 0);
        assert_eq!(store.base_hits.load(Ordering::Relaxed), 0);
        assert_eq!(store.base_misses.load(Ordering::Relaxed), 0);
        assert!(store.shards.iter().all(|s| s.lock().unwrap().is_empty()));
        assert!(store
            .base_shards
            .iter()
            .all(|s| s.lock().unwrap().is_empty()));
        assert!(store.resident_base().is_empty());
    }

    #[test]
    fn base_tier_shares_across_queries_and_evicts_lru() {
        let store = FeatureStore::new(16);
        let id = PageId::forged(1);
        let b1 = store.base_for(id, || base("<p>a</p>"));
        let b2 = store.base_for(id, || panic!("must hit"));
        assert!(Arc::ptr_eq(&b1, &b2));
        let s = |a: &AtomicU64| a.load(Ordering::Relaxed);
        assert_eq!((s(&store.base_hits), s(&store.base_misses)), (1, 1));
        // The base tier never touches the query-tier counters.
        assert_eq!((s(&store.hits), s(&store.misses)), (0, 0));
        assert_eq!(store.resident_base().len(), 1);
    }

    #[test]
    fn base_tier_eviction_is_least_recently_used() {
        // Capacity 8 over 8 shards = 1 entry per base shard; two pages
        // in the same shard force an eviction of the older one.
        let store = FeatureStore::new(8);
        let mut in_shard = (0u32..).filter(|&n| {
            std::ptr::eq(
                store.base_shard_of(&PageId::forged(n)) as *const _,
                store.base_shard_of(&PageId::forged(0)) as *const _,
            )
        });
        let a = PageId::forged(in_shard.next().unwrap());
        let b = PageId::forged(in_shard.next().unwrap());
        store.base_for(a, || base("<p>a</p>"));
        store.base_for(b, || base("<p>b</p>"));
        assert_eq!(store.base_evictions.load(Ordering::Relaxed), 1);
        store.base_for(a, || base("<p>a</p>"));
        assert_eq!(store.base_hits.load(Ordering::Relaxed), 0);
        assert_eq!(store.base_misses.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn seeded_base_tables_hit_without_counting_a_lookup() {
        let store = FeatureStore::new(16);
        let id = PageId::forged(9);
        let seeded = Arc::new(base("<p>a</p>"));
        store.seed_base(id, Arc::clone(&seeded));
        assert_eq!(store.base_misses.load(Ordering::Relaxed), 0);
        let got = store.base_for(id, || panic!("must hit the seeded table"));
        assert!(Arc::ptr_eq(&got, &seeded));
        assert_eq!(store.base_hits.load(Ordering::Relaxed), 1);
        // Seeding an already-resident page is a no-op, not a replace.
        store.seed_base(id, Arc::new(base("<p>a</p>")));
        let again = store.base_for(id, || panic!("must hit"));
        assert!(Arc::ptr_eq(&again, &seeded));
    }

    #[test]
    fn pool_digest_tracks_search_knobs_and_query() {
        let ctx = QueryContext::new("Who?", ["Students"]);
        let base = SynthConfig::fast();
        let mut deeper = base.clone();
        deeper.guard_depth += 1;
        assert_ne!(pool_digest(&base, &ctx), pool_digest(&deeper, &ctx));
        let other_ctx = QueryContext::new("Who?", ["Faculty"]);
        assert_ne!(pool_digest(&base, &ctx), pool_digest(&base, &other_ctx));
    }
}
