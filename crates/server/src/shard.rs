//! Engine sharding: N independent engines routed by page content digest.
//!
//! One global `RwLock<Engine>` made every page intern a writer that
//! stalled all readers. A [`ShardSet`] instead owns `N` [`EngineShard`]s
//! — each with its *own* engine, page store, feature and result caches,
//! admission queue, and worker slice — and assigns every page to exactly
//! one shard by a pure function of its content digest:
//!
//! ```text
//! owner(page) = content_digest(page) % N
//! ```
//!
//! Because the digest is a pure function of page *content* (PR 3's
//! content-addressed store), routing is deterministic across restarts,
//! across daemons, and across clients: the same page always lands on the
//! same shard, so interning on shard A never takes shard B's write lock,
//! and a fleet of daemons agrees on placement without coordination.
//!
//! # Wire handles interleave shard-locally
//!
//! A shard's store issues dense local indices; the wire handle
//! interleaves them with the shard id so handles stay dense *globally*:
//!
//! ```text
//! handle = local_index * N + shard        (encode)
//! shard  = handle % N,  local = handle / N  (decode)
//! ```
//!
//! With `N = 1` (the default) `handle == local_index` — single-shard
//! servers are bit-for-bit compatible with the pre-shard wire surface.
//!
//! # Tasks run on their home shard
//!
//! A task's **home shard** is the owner of its first page reference
//! (first labeled page, else first target; a pageless task runs on
//! shard 0). Pages the task references that live on *other* shards are
//! pulled into the home shard's store by `Arc`-sharing the parsed tree
//! (one brief write lock; content-addressed dedup makes repeats free),
//! so the run executes against a single store. The `RunResult` carries
//! no page handles, which is what makes the whole scheme observationally
//! invisible: responses are byte-identical whatever `N` is — pinned by
//! `tests/serve_api.rs` against 1-shard and cold never-cached engines.

use std::sync::atomic::AtomicU64;
use std::sync::RwLock;

use webqa::Engine;

use crate::pool::Admission;

/// One shard: an engine (own store + caches) behind its own lock, the
/// bounded admission queue feeding its worker slice, and its counters.
pub(crate) struct EngineShard {
    /// The shard's engine. Heavy ops share the read lock; interning and
    /// foreign-page pull-ins take brief write locks — and only ever
    /// *this shard's* lock.
    pub(crate) engine: RwLock<Engine>,
    /// The bounded admission queue feeding this shard's workers.
    pub(crate) queue: Admission,
    /// Worker threads dedicated to this shard.
    pub(crate) workers: usize,
    /// Heavy ops of this shard currently executing.
    pub(crate) inflight: AtomicU64,
}

/// The daemon's shards, plus the routing arithmetic.
pub(crate) struct ShardSet {
    shards: Vec<EngineShard>,
}

/// `i`'s share when `total` is split as evenly as possible over `parts`
/// slots (earlier slots absorb the remainder). Callers guarantee
/// `total >= parts`, so every share is at least 1 — there is no floor
/// here, because a floor would *inflate* the global budget (e.g.
/// `--workers 2 --shards 8` used to spawn 8 workers).
fn share(total: usize, parts: usize, i: usize) -> usize {
    let base = total / parts;
    let extra = usize::from(i < total % parts);
    base + extra
}

impl ShardSet {
    /// Builds `count` shards (min 1), each with a fresh engine from
    /// `config` and its share of the worker/backlog budgets.
    ///
    /// The shard count is clamped to the worker and backlog budgets:
    /// more shards than workers (or backlog slots) would either leave
    /// shards unable to make progress or silently inflate the global
    /// budget. Clamping keeps the summed worker and backlog shares
    /// equal to what the operator configured.
    pub(crate) fn new(
        config: &webqa::Config,
        count: usize,
        total_workers: usize,
        total_backlog: usize,
    ) -> ShardSet {
        let total_workers = total_workers.max(1);
        let total_backlog = total_backlog.max(1);
        let count = count.max(1).min(total_workers).min(total_backlog);
        ShardSet {
            shards: (0..count)
                .map(|i| EngineShard {
                    engine: RwLock::new(Engine::new(config.clone())),
                    queue: Admission::new(share(total_backlog, count, i)),
                    workers: share(total_workers, count, i),
                    inflight: AtomicU64::new(0),
                })
                .collect(),
        }
    }

    /// Number of shards.
    pub(crate) fn count(&self) -> usize {
        self.shards.len()
    }

    /// The shard at index `i` (panics on out-of-range — indices come
    /// from this set's own routing, never from the wire unchecked).
    pub(crate) fn get(&self, i: usize) -> &EngineShard {
        &self.shards[i]
    }

    /// Iterates the shards in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &EngineShard> {
        self.shards.iter()
    }

    /// The owning shard of a page with content digest `digest` — the
    /// pure routing function.
    pub(crate) fn owner_of(&self, digest: u64) -> usize {
        (digest % self.shards.len() as u64) as usize
    }

    /// Encodes a shard-local store index as a wire handle.
    pub(crate) fn encode_handle(&self, shard: usize, local: usize) -> u64 {
        local as u64 * self.shards.len() as u64 + shard as u64
    }

    /// Decodes a wire handle to `(shard, local_index)`.
    pub(crate) fn decode_handle(&self, handle: u64) -> (usize, u64) {
        let n = self.shards.len() as u64;
        ((handle % n) as usize, handle / n)
    }

    /// Closes every shard's admission queue (shutdown path): queued
    /// jobs are dropped and parked workers wake and exit.
    pub(crate) fn close(&self) {
        for s in &self.shards {
            s.queue.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> ShardSet {
        ShardSet::new(&webqa::Config::default(), n, 8, 64)
    }

    fn total_workers(s: &ShardSet) -> usize {
        s.iter().map(|x| x.workers).sum()
    }

    fn total_backlog(s: &ShardSet) -> usize {
        s.iter().map(|x| x.queue.capacity()).sum()
    }

    #[test]
    fn handles_interleave_and_round_trip() {
        for n in [1usize, 2, 3, 4, 7] {
            let s = set(n);
            for shard in 0..n {
                for local in [0usize, 1, 5, 1000] {
                    let h = s.encode_handle(shard, local);
                    assert_eq!(s.decode_handle(h), (shard, local as u64), "n={n}");
                }
            }
        }
        // One shard: the handle IS the local index (wire compatibility).
        let one = set(1);
        for local in 0..10 {
            assert_eq!(one.encode_handle(0, local), local as u64);
        }
    }

    #[test]
    fn routing_is_digest_mod_count() {
        let s = set(4);
        for digest in [0u64, 1, 17, u64::MAX] {
            assert_eq!(s.owner_of(digest), (digest % 4) as usize);
        }
        assert_eq!(set(1).owner_of(u64::MAX), 0);
    }

    #[test]
    fn budgets_split_evenly_with_a_floor_of_one() {
        // 8 workers / 64 backlog over 3 shards: 3+3+2 and 22+21+21.
        let s = set(3);
        assert_eq!(
            s.iter().map(|x| x.workers).collect::<Vec<_>>(),
            vec![3, 3, 2]
        );
        assert_eq!(total_workers(&s), 8);
        assert_eq!(total_backlog(&s), 64);
        // More shards than workers: the shard count clamps to the
        // worker budget, so every shard gets exactly one worker and
        // one backlog slot — the totals stay what was configured.
        let wide = ShardSet::new(&webqa::Config::default(), 4, 2, 2);
        assert_eq!(wide.count(), 2);
        assert!(wide.iter().all(|x| x.workers == 1));
        assert!(wide.iter().all(|x| x.queue.capacity() == 1));
    }

    #[test]
    fn shard_count_clamps_to_the_global_budgets() {
        // The PR 9 regression: `--workers 2 --shards 8` used to spawn 8
        // workers because each shard's share was floored at 1. The
        // effective shard count must honor the global budget instead.
        let s = ShardSet::new(&webqa::Config::default(), 8, 2, 64);
        assert_eq!(s.count(), 2);
        assert_eq!(total_workers(&s), 2, "worker budget must not inflate");
        assert_eq!(total_backlog(&s), 64);

        // The backlog budget clamps too: a shard with a 0-capacity
        // queue could never admit its digest-routed requests.
        let s = ShardSet::new(&webqa::Config::default(), 8, 16, 3);
        assert_eq!(s.count(), 3);
        assert_eq!(total_workers(&s), 16);
        assert_eq!(total_backlog(&s), 3);

        // Degenerate budgets still yield a working single shard.
        let s = ShardSet::new(&webqa::Config::default(), 4, 0, 0);
        assert_eq!(s.count(), 1);
        assert_eq!(total_workers(&s), 1);
        assert_eq!(total_backlog(&s), 1);
    }

    #[test]
    fn shards_own_independent_engines() {
        let s = set(2);
        s.get(0)
            .engine
            .write()
            .expect("engine lock")
            .store_mut()
            .insert_html("<h1>A</h1>")
            .expect("clean page");
        assert_eq!(
            s.get(0).engine.read().expect("engine lock").store().len(),
            1
        );
        assert_eq!(
            s.get(1).engine.read().expect("engine lock").store().len(),
            0,
            "interning on shard 0 must not touch shard 1"
        );
    }
}
