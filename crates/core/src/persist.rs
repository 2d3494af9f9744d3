//! On-disk persistence of the warm state: the content-addressed page
//! store and the query-independent base-feature tier.
//!
//! A restarted daemon used to start cold — every page re-interned, every
//! NER pass recomputed. Because the [`PageStore`](crate::PageStore) is
//! content-addressed (PR 3) and a
//! [`PageBaseFeatures`](webqa_synth::PageBaseFeatures) table is a pure
//! function of page content, the warm state is a pure key-value set:
//! `content digest → (page tree, base table)`. This module spills it to
//! a versioned snapshot directory and loads it back on startup.
//!
//! # Snapshot layout (`v1`)
//!
//! ```text
//! <cache-dir>/snapshot-v1/
//!   pages/<digest:016x>.page   one interned page tree
//!   base/<digest:016x>.feat    its base-feature table (if resident)
//! ```
//!
//! Both formats are line-based text: a magic line, the embedded digest,
//! the node count, one payload line per node, and a trailing `end`
//! marker carrying an FNV checksum of the payload lines. The properties
//! the serving layer relies on:
//!
//! * **Idempotent writes** — the filename *is* the content digest, so
//!   re-spilling a page overwrites it with identical bytes (writes go
//!   through a temp file + rename, so readers never observe a partial
//!   file at the final name).
//! * **Corruption degrades to a miss, never a wrong answer** — a
//!   truncated, malformed, or bit-flipped entry fails its checksum /
//!   digest re-verification on load and is *skipped* (counted in
//!   [`PersistStats::corrupt_skipped`]); the engine recomputes from
//!   scratch exactly as if the entry had never been written. Loaded
//!   pages are re-digested from the rebuilt tree and must match the
//!   filename; loaded base tables must match their page's node count.
//! * **Digest stability is not assumed** — `content_digest` documents
//!   itself as "not a stable on-disk format" (std's `DefaultHasher`).
//!   Re-verifying the digest on load means a toolchain upgrade that
//!   changes the hash invalidates old snapshots *safely*: every entry
//!   misses and the daemon starts cold, which is always correct.
//!
//! The observational contract — `persist + reload ≡ never-cached` — is
//! pinned by `crates/core/tests/cache_semantics.rs` alongside the other
//! cache-invisibility proofs.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use webqa_dsl::{NodeKind, PageTree, PageTreeBuilder};
use webqa_synth::PageBaseFeatures;

use crate::store::content_digest;

/// Version tag of the snapshot directory layout and file formats.
const SNAPSHOT_DIR: &str = "snapshot-v1";
const PAGE_MAGIC: &str = "webqa-page-v1";
const BASE_MAGIC: &str = "webqa-base-v1";

/// Counters of one sink's disk traffic, served through `webqa_server`'s
/// `stats` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PersistStats {
    /// Pages loaded from the snapshot into a store.
    pub pages_loaded: u64,
    /// Base-feature tables loaded from the snapshot.
    pub base_loaded: u64,
    /// Pages spilled to the snapshot.
    pub pages_spilled: u64,
    /// Base-feature tables spilled to the snapshot.
    pub base_spilled: u64,
    /// Snapshot entries skipped on load (truncated, malformed, failed
    /// digest/checksum verification, or orphaned base tables) — each one
    /// degrades to a cold miss.
    pub corrupt_skipped: u64,
    /// Wall-clock milliseconds spent loading snapshots through this
    /// sink (summed across shards when several engines share it).
    pub load_ms: u64,
}

/// A handle on one snapshot directory: the spill/load surface plus its
/// traffic counters. Shared (`Arc`) by every engine shard of a daemon,
/// so the counters aggregate fleet-wide.
#[derive(Debug)]
pub struct PersistSink {
    root: PathBuf,
    pages_loaded: AtomicU64,
    base_loaded: AtomicU64,
    pages_spilled: AtomicU64,
    base_spilled: AtomicU64,
    corrupt_skipped: AtomicU64,
    load_ms: AtomicU64,
}

impl PersistSink {
    /// Opens (creating if needed) the versioned snapshot directory under
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures (permissions, a file in
    /// the way).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Arc<PersistSink>> {
        let root = dir.as_ref().join(SNAPSHOT_DIR);
        fs::create_dir_all(root.join("pages"))?;
        fs::create_dir_all(root.join("base"))?;
        Ok(Arc::new(PersistSink {
            root,
            pages_loaded: AtomicU64::new(0),
            base_loaded: AtomicU64::new(0),
            pages_spilled: AtomicU64::new(0),
            base_spilled: AtomicU64::new(0),
            corrupt_skipped: AtomicU64::new(0),
            load_ms: AtomicU64::new(0),
        }))
    }

    /// A point-in-time snapshot of the sink's counters.
    pub(crate) fn stats(&self) -> PersistStats {
        PersistStats {
            pages_loaded: self.pages_loaded.load(Ordering::Relaxed),
            base_loaded: self.base_loaded.load(Ordering::Relaxed),
            pages_spilled: self.pages_spilled.load(Ordering::Relaxed),
            base_spilled: self.base_spilled.load(Ordering::Relaxed),
            corrupt_skipped: self.corrupt_skipped.load(Ordering::Relaxed),
            load_ms: self.load_ms.load(Ordering::Relaxed),
        }
    }

    fn page_path(&self, digest: u64) -> PathBuf {
        self.root.join("pages").join(format!("{digest:016x}.page"))
    }

    fn base_path(&self, digest: u64) -> PathBuf {
        self.root.join("base").join(format!("{digest:016x}.feat"))
    }

    /// Spills one page tree under its content digest. Idempotent; a
    /// file already present under the digest is left alone (its bytes
    /// are identical by content-addressing). IO failures are swallowed —
    /// spilling is an optimization, never a correctness requirement.
    pub(crate) fn spill_page(&self, digest: u64, tree: &PageTree) {
        let path = self.page_path(digest);
        if path.exists() {
            return;
        }
        if write_atomic(&path, &encode_page(digest, tree)).is_ok() {
            self.pages_spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Spills one base-feature table under its page's content digest.
    /// Same idempotence/IO discipline as [`PersistSink::spill_page`].
    pub(crate) fn spill_base(&self, digest: u64, base: &PageBaseFeatures) {
        let path = self.base_path(digest);
        if path.exists() {
            return;
        }
        if write_atomic(&path, &encode_base(digest, base)).is_ok() {
            self.base_spilled.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Loads every snapshot entry whose digest satisfies `keep` (a shard
    /// loads only the digests it owns), handing each verified page —
    /// and, where present, its verified base table — to `sink`. Entries
    /// that fail any verification step are counted and skipped.
    ///
    /// The digest filter runs on the *filename* digest, before any file
    /// is read, so an N-shard warm start reads each entry exactly once
    /// fleet-wide.
    pub(crate) fn load_filtered(
        &self,
        keep: impl Fn(u64) -> bool,
        mut sink: impl FnMut(u64, PageTree, Option<PageBaseFeatures>),
    ) {
        let started = std::time::Instant::now();
        for (digest, path) in self.entries("pages", "page") {
            if !keep(digest) {
                continue;
            }
            let Some(tree) = self.read_page(digest, &path) else {
                continue;
            };
            let base = self.read_base(digest, tree.len());
            sink(digest, tree, base);
        }
        // Base tables whose page entry is missing or unreadable are
        // orphans: unusable (there is no page to attach them to), so
        // count them as skipped rather than silently ignoring them.
        for (digest, _) in self.entries("base", "feat") {
            if keep(digest) && !self.page_path(digest).exists() {
                self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
            }
        }
        let ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
        self.load_ms.fetch_add(ms, Ordering::Relaxed);
    }

    /// The `(digest, path)` of every well-named entry in a snapshot
    /// subdirectory, sorted by digest for deterministic load order.
    fn entries(&self, sub: &str, ext: &str) -> Vec<(u64, PathBuf)> {
        let Ok(dir) = fs::read_dir(self.root.join(sub)) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, PathBuf)> = dir
            .flatten()
            .filter_map(|e| {
                let path = e.path();
                let stem = path.file_stem()?.to_str()?;
                if path.extension()?.to_str()? != ext {
                    return None;
                }
                Some((u64::from_str_radix(stem, 16).ok()?, path))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Reads and fully verifies one page entry; `None` (plus a counter
    /// bump) on any defect.
    fn read_page(&self, digest: u64, path: &Path) -> Option<PageTree> {
        let verified = fs::read_to_string(path)
            .ok()
            .and_then(|text| decode_page(digest, &text));
        if verified.is_none() {
            self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
        }
        verified
    }

    /// Reads and fully verifies the base entry of page `digest`, if one
    /// exists; `None` (plus a counter bump when the file exists but is
    /// defective) otherwise. `nodes` is the verified page's node count —
    /// a table of any other shape cannot belong to this page.
    fn read_base(&self, digest: u64, nodes: usize) -> Option<PageBaseFeatures> {
        let path = self.base_path(digest);
        if !path.exists() {
            return None;
        }
        let verified = fs::read_to_string(&path)
            .ok()
            .and_then(|text| decode_base(digest, nodes, &text));
        if verified.is_none() {
            self.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
        }
        verified
    }

    /// Counts `n` base tables as loaded (called by the engine once the
    /// tables are actually seeded into its cache).
    pub(crate) fn note_base_loaded(&self, n: u64) {
        self.base_loaded.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` pages as loaded.
    pub(crate) fn note_pages_loaded(&self, n: u64) {
        self.pages_loaded.fetch_add(n, Ordering::Relaxed);
    }
}

/// Writes `contents` to `path` via a temp file + rename, so a crash
/// mid-write leaves either the old file or a stray `.tmp` — never a
/// truncated file at the final name. (A truncated file would be skipped
/// on load anyway; the rename just keeps the common case clean.)
fn write_atomic(path: &Path, contents: &str) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

/// FNV-1a over the payload — the per-file corruption check. Not a
/// security boundary: it catches truncation and accidental bit flips,
/// while the digest re-verification catches everything content-level.
fn fnv(payload: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in payload.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(text: &str) -> Option<String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn kind_code(kind: NodeKind) -> char {
    match kind {
        NodeKind::None => 'n',
        NodeKind::List => 'l',
        NodeKind::Table => 't',
    }
}

fn kind_of(code: &str) -> Option<NodeKind> {
    match code {
        "n" => Some(NodeKind::None),
        "l" => Some(NodeKind::List),
        "t" => Some(NodeKind::Table),
        _ => None,
    }
}

/// Serializes one page: nodes in id order (dense pre-order), each line
/// `parent kind text` with `-` for the root's missing parent.
fn encode_page(digest: u64, tree: &PageTree) -> String {
    let mut payload = String::new();
    for id in tree.iter() {
        let node = tree.node(id);
        match node.parent {
            Some(p) => {
                let _ = write!(payload, "{}", p.index());
            }
            None => payload.push('-'),
        }
        let _ = writeln!(payload, " {} {}", kind_code(node.kind), escape(&node.text));
    }
    format!(
        "{PAGE_MAGIC}\n{digest:016x}\n{n}\n{payload}end {check:016x}\n",
        n = tree.len(),
        check = fnv(&payload),
    )
}

/// Parses and verifies one page file: magic, embedded digest, node
/// count, payload checksum, structural validity (root first, parents
/// before children), and — decisively — that the rebuilt tree's
/// recomputed content digest equals `expect`. Any failure is `None`.
fn decode_page(expect: u64, text: &str) -> Option<PageTree> {
    let (n, payload_lines, _) = decode_common(PAGE_MAGIC, expect, text)?;
    if n == 0 {
        return None;
    }
    let mut nodes = Vec::with_capacity(n);
    for line in payload_lines {
        let (parent, rest) = line.split_once(' ')?;
        let (kind, text) = rest.split_once(' ')?;
        nodes.push((parent.to_string(), kind_of(kind)?, unescape(text)?));
    }
    if nodes.len() != n || nodes[0].0 != "-" {
        return None;
    }
    let mut builder = PageTreeBuilder::new(&nodes[0].2);
    let mut ids = vec![builder.root()];
    builder.set_kind(ids[0], nodes[0].1);
    for (i, (parent, kind, text)) in nodes.iter().enumerate().skip(1) {
        let p: usize = parent.parse().ok()?;
        // Ids are dense pre-order: every parent precedes its children.
        if p >= i {
            return None;
        }
        let id = builder.add_child(ids[p], text);
        builder.set_kind(id, *kind);
        ids.push(id);
    }
    let tree = builder.finish();
    // The decisive check: the rebuilt tree must digest to its filename.
    (tree.len() == n && content_digest(&tree) == expect).then_some(tree)
}

/// Serializes one base table: one `own sub leaf elem` line per node.
fn encode_base(digest: u64, base: &PageBaseFeatures) -> String {
    let (own, sub, leaf, elem) = base.parts();
    let mut payload = String::new();
    for i in 0..base.nodes() {
        let _ = writeln!(
            payload,
            "{} {} {} {}",
            own[i],
            sub[i],
            u8::from(leaf[i]),
            u8::from(elem[i]),
        );
    }
    format!(
        "{BASE_MAGIC}\n{digest:016x}\n{n}\n{payload}end {check:016x}\n",
        n = base.nodes(),
        check = fnv(&payload),
    )
}

/// Parses and verifies one base file; `nodes` is the owning page's
/// verified node count, so a table of any other shape is rejected.
fn decode_base(expect: u64, nodes: usize, text: &str) -> Option<PageBaseFeatures> {
    let (n, payload_lines, _) = decode_common(BASE_MAGIC, expect, text)?;
    if n != nodes {
        return None;
    }
    let (mut own, mut sub) = (Vec::with_capacity(n), Vec::with_capacity(n));
    let (mut leaf, mut elem) = (Vec::with_capacity(n), Vec::with_capacity(n));
    for line in payload_lines {
        let mut cols = line.split(' ');
        own.push(cols.next()?.parse::<u8>().ok()?);
        sub.push(cols.next()?.parse::<u8>().ok()?);
        leaf.push(parse_bool(cols.next()?)?);
        elem.push(parse_bool(cols.next()?)?);
        if cols.next().is_some() {
            return None;
        }
    }
    if own.len() != n {
        return None;
    }
    PageBaseFeatures::from_parts(own, sub, leaf, elem)
}

fn parse_bool(s: &str) -> Option<bool> {
    match s {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// The shared header/trailer verification of both file formats: magic
/// line, embedded digest equal to the filename digest, declared payload
/// line count, and the `end <fnv>` trailer checksumming exactly those
/// lines. Returns the declared count and the payload lines.
fn decode_common<'t>(magic: &str, expect: u64, text: &'t str) -> Option<(usize, Vec<&'t str>, ())> {
    let mut lines = text.lines();
    if lines.next()? != magic {
        return None;
    }
    if u64::from_str_radix(lines.next()?, 16).ok()? != expect {
        return None;
    }
    let n: usize = lines.next()?.parse().ok()?;
    let rest: Vec<&str> = lines.collect();
    // Exactly n payload lines then the end marker, nothing after.
    if rest.len() != n + 1 {
        return None;
    }
    let (payload_lines, end) = rest.split_at(n);
    let check = end[0].strip_prefix("end ")?;
    let mut payload = String::new();
    for line in payload_lines {
        payload.push_str(line);
        payload.push('\n');
    }
    if u64::from_str_radix(check, 16).ok()? != fnv(&payload) {
        return None;
    }
    Some((n, payload_lines.to_vec(), ()))
}

/// A fresh per-test scratch directory under the target-adjacent temp
/// root (no external tempdir crate; the caller removes it).
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("webqa-persist-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_dsl::QueryContext;

    fn tree(html: &str) -> PageTree {
        PageTree::parse(html)
    }

    #[test]
    fn page_round_trips_through_the_snapshot_format() {
        let t = tree(
            "<h1>A &amp; B</h1><h2>Students</h2><ul><li>Jane \\ Doe</li>\
             <li>Bob</li></ul><table><tr><td>x</td></tr></table>",
        );
        let digest = content_digest(&t);
        let encoded = encode_page(digest, &t);
        let back = decode_page(digest, &encoded).expect("round trip");
        assert_eq!(back, t);
        assert_eq!(content_digest(&back), digest);
    }

    #[test]
    fn base_round_trips_through_the_snapshot_format() {
        let t = tree("<h1>Jane Doe</h1><ul><li>reading on 2021-01-01</li></ul>");
        let ctx = QueryContext::keywords_only(["x"]);
        let base = PageBaseFeatures::compute(&ctx, &t);
        let digest = content_digest(&t);
        let encoded = encode_base(digest, &base);
        let back = decode_base(digest, t.len(), &encoded).expect("round trip");
        assert_eq!(back, base);
    }

    #[test]
    fn truncated_and_tampered_entries_are_rejected() {
        let t = tree("<h1>A</h1><p>body text</p>");
        let digest = content_digest(&t);
        let encoded = encode_page(digest, &t);
        // Any strict prefix fails (truncation at every byte boundary —
        // except dropping only the final newline, which leaves the
        // payload complete and correctly still decodes).
        for cut in 0..encoded.len() - 1 {
            assert!(
                decode_page(digest, &encoded[..cut]).is_none(),
                "prefix of {cut} bytes must not decode"
            );
        }
        // A flipped payload byte fails the checksum.
        let tampered = encoded.replacen("body", "bodY", 1);
        assert!(decode_page(digest, &tampered).is_none());
        // A wrong filename digest fails even with a self-consistent file.
        assert!(decode_page(digest ^ 1, &encoded).is_none());
        // Same for base files.
        let ctx = QueryContext::keywords_only(["x"]);
        let base = PageBaseFeatures::compute(&ctx, &t);
        let eb = encode_base(digest, &base);
        for cut in 0..eb.len() - 1 {
            assert!(decode_base(digest, t.len(), &eb[..cut]).is_none());
        }
        assert!(decode_base(digest, t.len() + 1, &eb).is_none(), "shape");
    }

    #[test]
    fn sink_spills_and_reloads_with_counters() {
        let dir = crate::persist::test_dir("sink_spills_and_reloads");
        let sink = PersistSink::open(&dir).expect("open sink");
        let t = tree("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>");
        let digest = content_digest(&t);
        let ctx = QueryContext::keywords_only(["Students"]);
        let base = PageBaseFeatures::compute(&ctx, &t);
        sink.spill_page(digest, &t);
        sink.spill_base(digest, &base);
        // Idempotent: re-spilling does not double-count.
        sink.spill_page(digest, &t);
        sink.spill_base(digest, &base);
        assert_eq!(sink.stats().pages_spilled, 1);
        assert_eq!(sink.stats().base_spilled, 1);

        let reopened = PersistSink::open(&dir).expect("reopen");
        let mut seen = Vec::new();
        reopened.load_filtered(|_| true, |d, tree, b| seen.push((d, tree, b)));
        assert_eq!(seen.len(), 1);
        assert_eq!(seen[0].0, digest);
        assert_eq!(seen[0].1, t);
        assert_eq!(seen[0].2.as_ref(), Some(&base));
        assert_eq!(reopened.stats().corrupt_skipped, 0);

        // The digest filter skips without reading.
        let filtered = PersistSink::open(&dir).expect("reopen");
        let mut none = 0;
        filtered.load_filtered(|_| false, |_, _, _| none += 1);
        assert_eq!(none, 0);

        // A truncated page file (crash mid-write) degrades to a miss,
        // and its now-orphaned base table is counted as skipped.
        let page_path = reopened.page_path(digest);
        let full = fs::read_to_string(&page_path).expect("read back");
        fs::write(&page_path, &full[..full.len() / 2]).expect("truncate");
        let corrupt = PersistSink::open(&dir).expect("reopen");
        let mut loaded = 0;
        corrupt.load_filtered(|_| true, |_, _, _| loaded += 1);
        assert_eq!(loaded, 0, "truncated entry must be a miss");
        assert!(corrupt.stats().corrupt_skipped >= 1);

        fs::remove_dir_all(&dir).ok();
    }
}
