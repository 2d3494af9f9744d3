//! Engine sharding: N independent engines routed by page content digest.
//!
//! One global `RwLock<Engine>` made every page intern a writer that
//! stalled all readers. A [`ShardSet`] instead owns `N` engines — each
//! with its *own* page store, feature and result caches, behind its own
//! lock — and assigns every page to exactly one shard by a pure function
//! of its content digest:
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
//! Scheduling is not sharded: every heavy op passes through the daemon's
//! one admission queue to its one worker pool.
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

use std::sync::RwLock;

use webqa::Engine;

/// The daemon's engines, one per shard, plus the routing arithmetic.
/// Heavy ops share a shard's read lock; interning and foreign-page
/// pull-ins take brief write locks — and only ever *that shard's* lock.
pub(crate) struct ShardSet {
    engines: Vec<RwLock<Engine>>,
}

impl ShardSet {
    /// Builds `count` shards (min 1), each with a fresh engine from
    /// `config`.
    pub(crate) fn new(config: &webqa::Config, count: usize) -> ShardSet {
        ShardSet {
            engines: (0..count.max(1))
                .map(|_| RwLock::new(Engine::new(config.clone())))
                .collect(),
        }
    }

    /// The engine of shard `i` (panics on out-of-range — indices come
    /// from this set's own routing, never from the wire unchecked).
    pub(crate) fn get(&self, i: usize) -> &RwLock<Engine> {
        &self.engines[i]
    }

    /// Iterates the engines in shard order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &RwLock<Engine>> {
        self.engines.iter()
    }

    /// The owning shard of a page with content digest `digest` — the
    /// pure routing function.
    pub(crate) fn owner_of(&self, digest: u64) -> usize {
        (digest % self.engines.len() as u64) as usize
    }

    /// Encodes a shard-local store index as a wire handle.
    pub(crate) fn encode_handle(&self, shard: usize, local: usize) -> u64 {
        local as u64 * self.engines.len() as u64 + shard as u64
    }

    /// Decodes a wire handle to `(shard, local_index)`.
    pub(crate) fn decode_handle(&self, handle: u64) -> (usize, u64) {
        let n = self.engines.len() as u64;
        ((handle % n) as usize, handle / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize) -> ShardSet {
        ShardSet::new(&webqa::Config::default(), n)
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
    fn shards_own_independent_engines() {
        let s = set(2);
        s.get(0)
            .write()
            .expect("engine lock")
            .store_mut()
            .insert_html("<h1>A</h1>")
            .expect("clean page");
        assert_eq!(s.get(0).read().expect("engine lock").store().len(), 1);
        assert_eq!(
            s.get(1).read().expect("engine lock").store().len(),
            0,
            "interning on shard 0 must not touch shard 1"
        );
    }
}
