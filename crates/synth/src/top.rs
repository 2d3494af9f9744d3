//! Top-level `Synthesize` (Figure 7 of the paper): enumerate ordered
//! example partitions, synthesize optimal branch programs per block, and
//! return *all* programs achieving the optimal F₁.
//!
//! Partition blocks are independent (E⁺, E⁻) problems, memoized across
//! the partition scan and solved lazily: a block after a failing one is
//! never searched. Every block reads one locator table (see
//! [`LocatorTable`]), and blocks that share E⁺ also share extractor
//! searches, through the task's extractor memo (see [`ExtractorMemo`]).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use webqa_dsl::{Branch, Extractor, FxBuild, Guard, Program, QueryContext, TreeIds};
use webqa_metrics::Counts;

use crate::branch::{synthesize_branch, BranchSynthesis, ExtractorMemo};
use crate::cancel::{CancelToken, Cancelled};
use crate::config::SynthConfig;
use crate::example::Example;
use crate::extractors::F1_EPS;
use crate::guards::LocatorTable;
use crate::scorer::{PageFeatures, StringTable, TaskCtx};
use crate::stats::SynthStats;

/// The result of [`synthesize`]: all optimal programs (capped), their
/// training F₁, and search statistics.
#[derive(Debug, Clone)]
pub struct SynthesisOutcome {
    /// Optimal programs, at most `config.max_programs` of them.
    pub programs: Vec<Program>,
    /// The optimal F₁ achieved on the training examples.
    pub f1: f64,
    /// Token counts of a representative optimal program.
    pub counts: Counts,
    /// Total number of optimal programs before capping.
    pub total_optimal: usize,
    /// Search statistics.
    pub stats: SynthStats,
}

/// Figure 7: synthesizes all WebQA programs with optimal F₁ on the
/// training examples.
///
/// Partitions of more than `config.max_blocks` blocks are not considered;
/// with `max_blocks ≥ |examples|` the search matches the paper exactly.
pub fn synthesize(cfg: &SynthConfig, ctx: &QueryContext, examples: &[Example]) -> SynthesisOutcome {
    synthesize_cancellable(cfg, ctx, examples, &[], &CancelToken::never())
        .expect("a never-token cannot cancel")
}

/// [`synthesize`] with caller-supplied per-example feature tables
/// ([`PageFeatures`], one per example, in order; pass `&[]` to have them
/// computed here), under a cooperative [`CancelToken`]
/// ([`CancelToken::never`] for none).
///
/// This is the table-build/search split behind cross-request
/// memoization: a long-lived `webqa::Engine` computes each page's table
/// once per `(page, query, config)` and hands it back for every repeat
/// query. The outcome is byte-identical either way — a table is a pure
/// function of its key, so borrowing one changes *work*, never results.
///
/// The token is checkpointed once on entry and once per guard step of
/// every branch problem, so a trip — explicit cancel, deadline, or step
/// budget — aborts the search within one guard step. A cancelled search
/// returns [`Err(Cancelled)`](Cancelled) and exposes **no** partial
/// outcome; a search that completes is byte-identical to one run without
/// a token (the token's counters are separate from [`SynthStats`]).
pub fn synthesize_cancellable(
    cfg: &SynthConfig,
    ctx: &QueryContext,
    examples: &[Example],
    features: &[Arc<PageFeatures>],
    cancel: &CancelToken,
) -> Result<SynthesisOutcome, Cancelled> {
    // Entry checkpoint: a pre-cancelled token aborts before the pools,
    // tables, or any branch problem are even built.
    if cancel.checkpoint() {
        return Err(Cancelled);
    }
    let mut stats = SynthStats::default();
    let n = examples.len();
    if n == 0 {
        return Ok(SynthesisOutcome {
            programs: Vec::new(),
            f1: 0.0,
            counts: Counts::default(),
            total_optimal: 0,
            stats,
        });
    }

    let task = TaskCtx::with_features_cancel(cfg, ctx, examples, features, cancel.clone());
    let partitions = ordered_partitions(n, cfg.max_blocks);

    // Branch problems are memoized by (positive set, negative set) —
    // different partitions share blocks heavily. One string table, one
    // locator table and one extractor memo serve every branch problem of
    // the task; all three are dropped with it, so a cancelled search
    // leaves nothing behind. A block memo entry of `None` means the block
    // was solved and has no separating guard.
    let mut table = StringTable::new(&task);
    let mut locators = LocatorTable::new(&task);
    let mut extractors = ExtractorMemo::new();
    let mut solved: HashMap<BlockKey, Option<Arc<BranchSynthesis>>> = HashMap::new();

    let mut best_f1 = -1.0f64;
    let mut best_counts = Counts::default();
    // Each optimal partition contributes a list of per-block option sets.
    let mut best_partitions: Vec<Vec<Arc<BranchSynthesis>>> = Vec::new();

    for partition in &partitions {
        if cancel.is_cancelled() {
            return Err(Cancelled);
        }
        let mut blocks: Vec<Arc<BranchSynthesis>> = Vec::new();
        let mut ok = true;
        for i in 0..partition.len() {
            let entry = match solved.entry(block_key(partition, i)) {
                Entry::Occupied(hit) => {
                    stats.memo_hits += 1;
                    hit.get().clone()
                }
                Entry::Vacant(slot) => {
                    let (pos, neg) = slot.key();
                    let r = synthesize_branch(
                        &task,
                        &mut table,
                        &mut locators,
                        &mut extractors,
                        pos,
                        neg,
                        &mut stats,
                    );
                    slot.insert(r.map(Arc::new)).clone()
                }
            };
            match entry {
                Some(b) => blocks.push(b),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let (f1, part_counts) = partition_best(&blocks);
        if f1 > best_f1 + F1_EPS {
            best_f1 = f1;
            best_counts = part_counts;
            best_partitions = vec![blocks];
        } else if (f1 - best_f1).abs() <= F1_EPS {
            best_partitions.push(blocks);
        }
    }

    // A trip during the last partition's solve leaves no later loop head
    // to notice it — re-check before exposing any outcome built from
    // aborted branch problems.
    if cancel.is_cancelled() {
        return Err(Cancelled);
    }

    if best_f1 < 0.0 {
        return Ok(SynthesisOutcome {
            programs: Vec::new(),
            f1: 0.0,
            counts: Counts::default(),
            total_optimal: 0,
            stats,
        });
    }

    let (programs, total) = materialize(&best_partitions, cfg.max_programs, best_f1);
    Ok(SynthesisOutcome {
        programs,
        f1: best_f1,
        counts: best_counts,
        total_optimal: total,
        stats,
    })
}

/// The micro-averaged F₁ of a multi-branch program is a function of the
/// *sum* of per-branch token counts, and branches tied on F₁ can have
/// different counts — so a partition's achievable optimum is the best F₁
/// over all combinations of per-block count groups, computed here by
/// folding the achievable-sum set across blocks.
fn partition_best(blocks: &[Arc<BranchSynthesis>]) -> (f64, Counts) {
    let mut sums: HashSet<Counts> = HashSet::new();
    sums.insert(Counts::default());
    for b in blocks {
        let choices = b.distinct_counts();
        let mut next = HashSet::with_capacity(sums.len() * choices.len());
        for s in &sums {
            for c in &choices {
                next.insert(*s + *c);
            }
        }
        sums = next;
    }
    best_sum(sums)
}

/// The F₁-best of `sums`, or `(-1.0, 0)` when there are none. Sums often
/// tie on F₁ ({2,2,4} and {4,8,4} both score 2/3); pick among them by a
/// fixed total order — fewest predicted, then most matched — so the
/// reported counts never depend on the set's per-instance iteration order.
fn best_sum(sums: impl IntoIterator<Item = Counts>) -> (f64, Counts) {
    let tie_key = |c: &Counts| (Reverse(c.predicted), c.matched, Reverse(c.gold));
    sums.into_iter()
        .map(|c| (c.f1(), c))
        .max_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| tie_key(&a.1).cmp(&tie_key(&b.1)))
        })
        .unwrap_or((-1.0, Counts::default()))
}

/// One branch problem of a partition: E⁺ (a block) and E⁻ (the examples
/// in later blocks, footnote 5), both as ascending example indices.
type BlockKey = (Vec<usize>, Vec<usize>);

/// The branch problem of block `i` of `partition`.
fn block_key(partition: &[Vec<usize>], i: usize) -> BlockKey {
    let mut neg = partition[i + 1..].concat();
    neg.sort_unstable();
    (partition[i].clone(), neg)
}

/// All ordered partitions of `{0..n}` into at most `max_blocks` non-empty
/// blocks (the `Partitions(E)` of Figure 7; order matters because guards
/// are tried in sequence).
pub(crate) fn ordered_partitions(n: usize, max_blocks: usize) -> Vec<Vec<Vec<usize>>> {
    assert!(n > 0, "need at least one example");
    // For large n the Fubini numbers explode; fall back to the single
    // partition, which the paper's tasks (≤5 labels) never hit.
    if n > 8 {
        return vec![vec![(0..n).collect()]];
    }
    let max_k = max_blocks.clamp(1, n);
    let mut out = Vec::new();
    for k in 1..=max_k {
        // Enumerate assignments f: [n] -> [k], keep surjections.
        let total = (k as u64).pow(n as u32);
        for code in 0..total {
            let mut assign = vec![0usize; n];
            let mut c = code;
            for slot in assign.iter_mut() {
                *slot = (c % k as u64) as usize;
                c /= k as u64;
            }
            let mut blocks: Vec<Vec<usize>> = vec![Vec::new(); k];
            for (i, &b) in assign.iter().enumerate() {
                blocks[b].push(i);
            }
            if blocks.iter().all(|b| !b.is_empty()) {
                out.push(blocks);
            }
        }
    }
    out
}

/// Expands per-partition branch options into concrete programs, capped.
/// Returns the (possibly truncated) programs and the true total count of
/// optimal programs.
///
/// Branches tied on per-block F₁ can carry different token-count vectors,
/// and only cross-block combinations whose *summed* counts achieve
/// `best_f1` are optimal whole programs — all others are filtered out
/// here, and the exact total is computed by a count-vector convolution
/// rather than a plain cartesian product.
///
/// When a partition's qualifying product exceeds its share of the cap, the
/// sample is drawn *diversely*: block options are interleaved round-robin
/// across guards, and product indices are visited in a deterministic
/// hash-scattered order — so the capped set reflects the variety of the
/// optimal space rather than the first guard's extractor variants (the
/// transductive ensemble is sampled from this set, Section 6).
///
/// No tree is copied or hashed per program. A combination's summed counts
/// are checked from its option indices before anything is built, and a
/// qualifying program is assembled from `Arc` clones of the guards and
/// extractors the search built. Repeats (the scattered draw can revisit a
/// product index) are dropped by the program's tuple of branch ids, where
/// every distinct `Arc` is given the id of its value once ([`TreeIds`]):
/// value-equal trees in different allocations, such as the guards that
/// reference-kernel runs build afresh per branch problem, share an id, so
/// the dedup is exact.
fn materialize(
    partitions: &[Vec<Arc<BranchSynthesis>>],
    cap: usize,
    best_f1: f64,
) -> (Vec<Program>, usize) {
    let mut out = Emitted::new(best_f1);
    let mut total: usize = 0;
    let per_partition_cap = cap.div_ceil(partitions.len().max(1));
    for blocks in partitions {
        // Flatten each block's (guard, extractors) map into (guard,
        // extractor, counts) triples, round-robin across guards so a
        // prefix of the list spans many guards.
        let pairs_per_block: Vec<Vec<Pair>> = blocks
            .iter()
            .map(|b| {
                let mut pairs = Vec::new();
                let max_len = b
                    .options
                    .iter()
                    .map(|(_, gs)| gs.groups.iter().map(|(_, es)| es.len()).max().unwrap_or(0))
                    .max()
                    .unwrap_or(0);
                for i in 0..max_len {
                    for (guard, gs) in &b.options {
                        for (counts, es) in &gs.groups {
                            if let Some(extractor) = es.get(i) {
                                pairs.push(Pair {
                                    guard,
                                    extractor,
                                    counts: *counts,
                                });
                            }
                        }
                    }
                }
                pairs
            })
            .collect();
        let product: u128 = pairs_per_block.iter().map(|p| p.len() as u128).product();

        // Exact count of optimal combinations: convolve per-block
        // multiplicity maps (counts → #pairs) across blocks, then sum the
        // multiplicities of summed counts achieving best_f1.
        let mut conv: HashMap<Counts, u128> = HashMap::new();
        conv.insert(Counts::default(), 1);
        for pairs in &pairs_per_block {
            let mut block_counts: HashMap<Counts, u128> = HashMap::new();
            for pair in pairs {
                *block_counts.entry(pair.counts).or_insert(0) += 1;
            }
            let mut next: HashMap<Counts, u128> = HashMap::new();
            for (s, m) in &conv {
                for (c, k) in &block_counts {
                    *next.entry(*s + *c).or_insert(0) += m.saturating_mul(*k);
                }
            }
            conv = next;
        }
        let qualifying: u128 = conv
            .iter()
            .filter(|(c, _)| (c.f1() - best_f1).abs() <= F1_EPS)
            .map(|(_, m)| *m)
            .sum();
        total = total.saturating_add(qualifying.min(usize::MAX as u128) as usize);

        let want = per_partition_cap.min(cap.saturating_sub(out.programs.len()));
        if product <= (want as u128).saturating_mul(64).max(65_536) {
            // Small enough to scan exhaustively, filtering as we go.
            for code in 0..product {
                if out.programs.len() >= cap {
                    break;
                }
                out.emit(&pairs_per_block, code);
            }
        } else {
            // Deterministic scattered sampling without replacement (best
            // effort: duplicates and non-qualifying combos skipped,
            // bounded attempts).
            let mut attempts = 0u64;
            let mut produced = 0usize;
            let max_attempts = (want as u64).saturating_mul(64).max(4096);
            let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
            while produced < want && attempts < max_attempts {
                state = state
                    .wrapping_mul(0xD120_0000_0000_0001u64 | 1)
                    .wrapping_add(0x2545_F491_4F6C_DD1D);
                let code = (state as u128).wrapping_mul(0x9E37_79B9u128) % product;
                if out.emit(&pairs_per_block, code) {
                    produced += 1;
                }
                attempts += 1;
            }
            if produced == 0 {
                // Sampling can miss sparse qualifying sets; fall back to a
                // bounded sequential scan so at least one optimal program
                // is always returned.
                let scan = product.min(1 << 20);
                for code in 0..scan {
                    if out.emit(&pairs_per_block, code) {
                        break;
                    }
                }
            }
        }
        if out.programs.len() >= cap {
            break;
        }
    }
    (out.programs, total)
}

/// One entry of a block's flattened option list.
struct Pair<'a> {
    guard: &'a Arc<Guard>,
    extractor: &'a Arc<Extractor>,
    counts: Counts,
}

/// The programs [`materialize`] has emitted, with what it needs to add
/// one more without copying or hashing a tree.
struct Emitted<'a> {
    best_f1: f64,
    programs: Vec<Program>,
    /// The branch-id tuple of every emitted program.
    seen: HashSet<Box<[u32]>, FxBuild>,
    guards: TreeIds<'a, Guard>,
    extractors: TreeIds<'a, Extractor>,
    /// Reused buffers: the option index per block, and the tuple.
    picks: Vec<usize>,
    key: Vec<u32>,
}

impl<'a> Emitted<'a> {
    fn new(best_f1: f64) -> Self {
        Emitted {
            best_f1,
            programs: Vec::new(),
            seen: HashSet::default(),
            guards: TreeIds::default(),
            extractors: TreeIds::default(),
            picks: Vec::new(),
            key: Vec::new(),
        }
    }

    /// Emits the combination at product index `code` of `blocks` (the
    /// first block's option varies fastest) iff its summed counts achieve
    /// the optimum and no equal program was emitted before; returns
    /// whether a program was added.
    fn emit(&mut self, blocks: &[Vec<Pair<'a>>], code: u128) -> bool {
        let mut c = code;
        let mut sum = Counts::default();
        self.picks.clear();
        for pairs in blocks {
            let size = pairs.len() as u128;
            let i = (c % size) as usize;
            c /= size;
            sum += pairs[i].counts;
            self.picks.push(i);
        }
        if (sum.f1() - self.best_f1).abs() > F1_EPS {
            return false;
        }
        self.key.clear();
        for (pairs, &i) in blocks.iter().zip(&self.picks) {
            self.key.push(self.guards.id(pairs[i].guard));
            self.key.push(self.extractors.id(pairs[i].extractor));
        }
        if self.seen.contains(self.key.as_slice()) {
            return false;
        }
        self.seen.insert(self.key.as_slice().into());
        let branches = blocks
            .iter()
            .zip(&self.picks)
            .map(|(pairs, &i)| {
                Branch::new(Arc::clone(pairs[i].guard), Arc::clone(pairs[i].extractor))
            })
            .collect();
        self.programs.push(Program::new(branches));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extractors::ExtractorSynthesis;
    use webqa_dsl::PageTree;

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    #[test]
    fn ordered_partition_counts_are_fubini() {
        // Fubini numbers: a(1)=1, a(2)=3, a(3)=13, a(4)=75.
        assert_eq!(ordered_partitions(1, 5).len(), 1);
        assert_eq!(ordered_partitions(2, 5).len(), 3);
        assert_eq!(ordered_partitions(3, 5).len(), 13);
        assert_eq!(ordered_partitions(4, 5).len(), 75);
        // Capped block count: partitions into at most 1 block.
        assert_eq!(ordered_partitions(4, 1).len(), 1);
    }

    #[test]
    fn partitions_cover_all_examples_exactly_once() {
        for p in ordered_partitions(4, 3) {
            let mut all: Vec<usize> = p.concat();
            all.sort_unstable();
            assert_eq!(all, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn synthesizes_single_branch_program() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.f1 > 0.99, "got {}", out.f1);
        assert!(!out.programs.is_empty());
        assert!(out.total_optimal >= out.programs.len());
        // Every returned program must actually achieve the reported F1.
        for p in out.programs.iter().take(20) {
            let counts = crate::example::program_counts(&c, &examples, p);
            assert!(
                (counts.f1() - out.f1).abs() < 1e-6,
                "program {p} scores {} ≠ {}",
                counts.f1(),
                out.f1
            );
        }
    }

    #[test]
    fn multi_branch_partition_handles_schema_split() {
        // Two page schemas: students under "Students" on page A, but page
        // B keeps them under "Group" with no keyword match; a two-branch
        // program can specialize.
        let mut cfg = SynthConfig::fast();
        cfg.max_blocks = 2;
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example(
                "<h1>B</h1><h2>Group</h2><ul><li>Mary Anderson</li></ul><h2>Students</h2><p>none currently</p>",
                &["Mary Anderson"],
            ),
        ];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.f1 > 0.5, "got {}", out.f1);
    }

    #[test]
    fn empty_examples_yield_empty_outcome() {
        let out = synthesize(&SynthConfig::fast(), &ctx(), &[]);
        assert!(out.programs.is_empty());
        assert_eq!(out.total_optimal, 0);
    }

    #[test]
    fn program_cap_respected() {
        let mut cfg = SynthConfig::fast();
        cfg.max_programs = 3;
        let c = ctx();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
            &["Jane Doe"],
        )];
        let out = synthesize(&cfg, &c, &examples);
        assert!(out.programs.len() <= 3);
        assert!(out.total_optimal >= out.programs.len());
    }

    #[test]
    fn noprune_finds_same_optimum() {
        let c = ctx();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul><h2>News</h2><p>hi</p>",
            &["Jane Doe"],
        )];
        let with = synthesize(&SynthConfig::fast(), &c, &examples);
        let without = synthesize(&SynthConfig::fast().without_pruning(), &c, &examples);
        assert!((with.f1 - without.f1).abs() < 1e-9);
        assert!(
            with.stats.work() <= without.stats.work(),
            "pruning must not increase work: {} vs {}",
            with.stats.work(),
            without.stats.work()
        );
    }

    #[test]
    fn borrowed_feature_tables_do_not_change_the_outcome() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ];
        let fresh = synthesize(&cfg, &c, &examples);
        let tables: Vec<Arc<PageFeatures>> = examples
            .iter()
            .map(|ex| Arc::new(PageFeatures::compute(&cfg, &c, &ex.page)))
            .collect();
        let never = CancelToken::never();
        let borrowed = synthesize_cancellable(&cfg, &c, &examples, &tables, &never).unwrap();
        assert_eq!(borrowed.programs, fresh.programs);
        assert_eq!(borrowed.f1, fresh.f1);
        assert_eq!(borrowed.counts, fresh.counts);
        assert_eq!(borrowed.stats, fresh.stats);
    }

    #[test]
    #[should_panic(expected = "1 feature tables for 2 examples")]
    fn feature_tables_must_match_the_examples() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = vec![
            example("<h2>Students</h2><ul><li>Jane Doe</li></ul>", &["Jane Doe"]),
            example(
                "<h2>Students</h2><ul><li>Bob Smith</li></ul>",
                &["Bob Smith"],
            ),
        ];
        let one = vec![Arc::new(PageFeatures::compute(&cfg, &c, &examples[0].page))];
        let _ = synthesize_cancellable(&cfg, &c, &examples, &one, &CancelToken::never());
    }

    #[test]
    fn scan_solves_each_branch_problem_once() {
        // Replay the partition scan against a model memo: a branch problem
        // is solved the first time its (E⁺, E⁻) key is reached and served
        // from the memo every later time, and a partition stops at its
        // first block without a separating guard. `synthesize` must do
        // exactly that search, with one string table and one extractor
        // memo for the whole task.
        let mut cfg = SynthConfig::fast();
        cfg.max_blocks = 3;
        let c = ctx();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>Group</h2><ul><li>Mary Anderson</li></ul><h2>Students</h2><p>none currently</p>",
                &["Mary Anderson"],
            ),
            example(
                "<h1>C</h1><h2>PhD Students</h2><ul><li>Wei Chen</li></ul>",
                &["Wei Chen"],
            ),
        ];
        let out = synthesize(&cfg, &c, &examples);

        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut table = StringTable::new(&task);
        let mut locators = LocatorTable::new(&task);
        let mut extractors = ExtractorMemo::new();
        let mut replay = SynthStats::default();
        let mut solvable: HashMap<BlockKey, bool> = HashMap::new();
        for partition in ordered_partitions(examples.len(), cfg.max_blocks) {
            for i in 0..partition.len() {
                let key = block_key(&partition, i);
                let ok = match solvable.get(&key) {
                    Some(&ok) => {
                        replay.memo_hits += 1;
                        ok
                    }
                    None => {
                        let (pos, neg) = &key;
                        let ok = synthesize_branch(
                            &task,
                            &mut table,
                            &mut locators,
                            &mut extractors,
                            pos,
                            neg,
                            &mut replay,
                        )
                        .is_some();
                        solvable.insert(key, ok);
                        ok
                    }
                };
                if !ok {
                    break;
                }
            }
        }
        assert!(
            replay.memo_hits > 0,
            "three examples share partition blocks"
        );
        assert_eq!(replay.branch_calls, solvable.len());
        assert!(
            replay.extractor_memo_hits > 0,
            "blocks over one E⁺ share extractor searches"
        );
        assert_eq!(out.stats, replay);
    }

    /// Four corpus tasks (fac_t1, fac_t8, conf_t6, class_t6), each with
    /// its query context and its examples over 3 pages of seed 7.
    fn corpus_tasks() -> Vec<(&'static str, QueryContext, Vec<Example>)> {
        use webqa_corpus::{generate_pages, TASKS};
        [&TASKS[0], &TASKS[7], &TASKS[13], &TASKS[19]]
            .into_iter()
            .map(|task| {
                let examples = generate_pages(task.domain, 3, 7)
                    .iter()
                    .map(|p| Example::new(p.tree(), p.gold(task.id).to_vec()))
                    .collect();
                let c = QueryContext::new(task.question, task.keywords.to_vec());
                (task.id, c, examples)
            })
            .collect()
    }

    /// Every branch problem the partition scan of `examples` can reach,
    /// each once, in scan order.
    fn branch_problems(examples: usize, max_blocks: usize) -> Vec<BlockKey> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for partition in ordered_partitions(examples, max_blocks) {
            for i in 0..partition.len() {
                let key = block_key(&partition, i);
                if seen.insert(key.clone()) {
                    out.push(key);
                }
            }
        }
        out
    }

    /// The task-level tables are invisible: for 3-label corpus tasks,
    /// every branch problem the partition scan can reach, solved in scan
    /// order with one extractor memo and one locator table shared across
    /// the task, has exactly the guards, count groups and extractor order
    /// it has when solved alone with a fresh memo and a fresh table.
    #[test]
    fn extractor_memo_is_invisible_to_every_branch_problem() {
        for (id, c, examples) in corpus_tasks() {
            for max_blocks in [2, 3] {
                let mut cfg = SynthConfig::fast();
                cfg.max_blocks = max_blocks;
                let tc = TaskCtx::new(&cfg, &c, &examples);
                let mut table = StringTable::new(&tc);
                let mut locators = LocatorTable::new(&tc);
                let mut shared = ExtractorMemo::new();
                let mut stats = SynthStats::default();
                for key in branch_problems(examples.len(), max_blocks) {
                    let (pos, neg) = &key;
                    let with_shared = synthesize_branch(
                        &tc,
                        &mut table,
                        &mut locators,
                        &mut shared,
                        pos,
                        neg,
                        &mut stats,
                    );
                    let mut alone_stats = SynthStats::default();
                    let alone = synthesize_branch(
                        &tc,
                        &mut table,
                        &mut LocatorTable::new(&tc),
                        &mut ExtractorMemo::new(),
                        pos,
                        neg,
                        &mut alone_stats,
                    );
                    let what = format!("{id} max_blocks={max_blocks} {key:?}");
                    assert_same_branch(&what, with_shared.as_ref(), alone.as_ref());
                }
                assert!(
                    stats.extractor_memo_hits > 0,
                    "{id} max_blocks={max_blocks}: the memo was never hit"
                );
            }
        }
    }

    /// The one-pass kernel applies each `(step, string)` pair at most
    /// once per task: solving every branch problem of corpus tasks
    /// through one string table, as `synthesize` does, applies no pair
    /// twice, however many candidates and branches meet the string.
    #[test]
    fn kernel_parity_each_step_string_pair_is_applied_once_per_task() {
        for (id, c, examples) in corpus_tasks() {
            let cfg = SynthConfig::fast();
            let tc = TaskCtx::new(&cfg, &c, &examples);
            let mut table = StringTable::new(&tc);
            let mut locators = LocatorTable::new(&tc);
            let mut memo = ExtractorMemo::new();
            let mut stats = SynthStats::default();
            for (pos, neg) in branch_problems(examples.len(), cfg.max_blocks) {
                synthesize_branch(
                    &tc,
                    &mut table,
                    &mut locators,
                    &mut memo,
                    &pos,
                    &neg,
                    &mut stats,
                );
            }
            let mut pairs = table.applied().to_vec();
            assert!(pairs.len() > 100, "{id}: {} pairs", pairs.len());
            pairs.sort_unstable();
            let applied = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), applied, "{id}: a pair was applied twice");
        }
    }

    /// The locator table is definitional and shared: solving every branch
    /// problem of corpus tasks through one table, as `synthesize` does,
    /// leaves every computed slot equal to the reference evaluation of
    /// its rebuilt locator — node set by `Locator::eval`, ceiling by
    /// `ceiling_counts_reference`, verdicts by `NlpPred::eval` over the
    /// node texts — and propagates no (locator, example) pair twice.
    #[test]
    fn kernel_parity_locator_table_slots_are_definitional_and_propagated_once() {
        for (id, c, examples) in corpus_tasks() {
            let cfg = SynthConfig::fast();
            let tc = TaskCtx::new(&cfg, &c, &examples);
            let mut table = StringTable::new(&tc);
            let mut locators = LocatorTable::new(&tc);
            let mut memo = ExtractorMemo::new();
            let mut stats = SynthStats::default();
            let problems = branch_problems(examples.len(), cfg.max_blocks);
            assert!(
                problems.len() > 1,
                "{id}: one branch problem shares nothing"
            );
            for (pos, neg) in &problems {
                synthesize_branch(
                    &tc,
                    &mut table,
                    &mut locators,
                    &mut memo,
                    pos,
                    neg,
                    &mut stats,
                );
            }
            // `locators_expanded` counts one propagation per positive of
            // every expansion in every branch problem; the table did far
            // fewer, and none twice.
            let mut pairs = locators.propagated().to_vec();
            assert!(pairs.len() > 1000, "{id}: {} pairs", pairs.len());
            assert!(
                pairs.len() < stats.locators_expanded,
                "{id}: nothing shared"
            );
            pairs.sort_unstable();
            let propagated = pairs.len();
            pairs.dedup();
            assert_eq!(pairs.len(), propagated, "{id}: a pair was propagated twice");

            let (mut ceilings, mut rows) = (0, 0);
            for (eid, ex) in pairs {
                let ex = ex as usize;
                let slot = locators.computed(&tc, eid, ex);
                let page = &examples[ex].page;
                let direct = locators.locator(&tc, eid).eval(&c, page);
                let what = format!("{id}: {} on example {ex}", locators.locator(&tc, eid));
                assert_eq!(slot.nodes, direct, "{what}: nodes");
                if let Some(ceiling) = slot.ceiling {
                    ceilings += 1;
                    let reference = examples[ex].ceiling_counts_reference(&direct);
                    assert_eq!(ceiling, reference, "{what}: ceiling");
                }
                if let Some(verdicts) = slot.verdicts {
                    rows += 1;
                    let reference: Vec<bool> = tc
                        .guard_preds
                        .iter()
                        .map(|p| direct.iter().any(|&n| p.eval(&c, page.text(n))))
                        .collect();
                    assert_eq!(verdicts, reference, "{what}: verdicts");
                }
            }
            assert!(
                ceilings > 100 && rows > 100,
                "{id}: {ceilings} ceilings, {rows} rows"
            );
        }
    }

    fn assert_same_branch(what: &str, a: Option<&BranchSynthesis>, b: Option<&BranchSynthesis>) {
        let (a, b) = match (a, b) {
            (Some(a), Some(b)) => (a, b),
            (None, None) => return,
            _ => panic!("{what}: one solve found a separating guard, the other did not"),
        };
        let guards =
            |s: &BranchSynthesis| s.options.iter().map(|(g, _)| g.clone()).collect::<Vec<_>>();
        assert_eq!(guards(a), guards(b), "{what}: guards");
        for ((g, x), (_, y)) in a.options.iter().zip(&b.options) {
            assert_eq!(x.f1, y.f1, "{what}: optimal F1 of {g}");
            assert_eq!(x.groups, y.groups, "{what}: extractor groups of {g}");
        }
    }

    #[test]
    fn every_one_of_forty_examples_is_scored() {
        // Past 8 examples only the one-block partition is searched, and
        // past 32 its example set no longer fits a 32-bit mask: E⁺ must
        // still hold all forty.
        let names = [
            "Jane Doe",
            "Bob Smith",
            "Mary Anderson",
            "Wei Chen",
            "Ana Lima",
        ];
        let examples: Vec<Example> = (0..40)
            .map(|i| {
                let name = names[i % names.len()];
                example(
                    &format!("<h1>Lab {i}</h1><h2>Students</h2><ul><li>{name}</li></ul>"),
                    &[name],
                )
            })
            .collect();
        let out = synthesize(&SynthConfig::fast(), &ctx(), &examples);
        let gold: usize = examples.iter().map(|ex| ex.gold_tokens().len()).sum();
        assert_eq!(out.counts.gold, gold);
        assert!(out.f1 > 0.99, "got {}", out.f1);
    }

    /// Extractors grouped by the counts they achieve.
    type CountGroups = Vec<(Counts, Vec<Extractor>)>;

    /// A hand-built block: each guard with its count groups of
    /// extractors, every tree a fresh allocation.
    fn block(options: Vec<(Guard, CountGroups)>) -> Arc<BranchSynthesis> {
        let options = options
            .into_iter()
            .map(|(guard, groups)| {
                let f1 = groups[0].0.f1();
                let groups = groups
                    .into_iter()
                    .map(|(c, es)| (c, es.into_iter().map(Arc::new).collect()))
                    .collect();
                (Arc::new(guard), Arc::new(ExtractorSynthesis { groups, f1 }))
            })
            .collect();
        Arc::new(BranchSynthesis { options })
    }

    /// What `materialize` is defined to return when nothing is capped:
    /// per partition, each block's options flattened round-robin across
    /// guards (the `i`-th extractor of every guard's every group, for
    /// `i = 0, 1, …`), every combination in product order with the first
    /// block varying fastest, the ones whose summed counts reach
    /// `best_f1`, each program kept the first time its value appears. The
    /// total counts every qualifying combination.
    fn definitional_expansion(
        partitions: &[Vec<Arc<BranchSynthesis>>],
        best_f1: f64,
    ) -> (Vec<Program>, usize) {
        let mut programs: Vec<Program> = Vec::new();
        let mut total = 0;
        for blocks in partitions {
            let flat: Vec<Vec<(Guard, Extractor, Counts)>> = blocks
                .iter()
                .map(|b| {
                    let mut pairs = Vec::new();
                    for i in 0.. {
                        let before = pairs.len();
                        for (g, gs) in &b.options {
                            for (c, es) in &gs.groups {
                                if let Some(e) = es.get(i) {
                                    pairs.push((Guard::clone(g), Extractor::clone(e), *c));
                                }
                            }
                        }
                        if pairs.len() == before {
                            break;
                        }
                    }
                    pairs
                })
                .collect();
            let product: usize = flat.iter().map(Vec::len).product();
            for code in 0..product {
                let (mut c, mut sum, mut branches) = (code, Counts::default(), Vec::new());
                for pairs in &flat {
                    let (g, e, counts) = &pairs[c % pairs.len()];
                    c /= pairs.len();
                    sum += *counts;
                    branches.push(Branch::new(g.clone(), e.clone()));
                }
                if (sum.f1() - best_f1).abs() <= F1_EPS {
                    total += 1;
                    let p = Program::new(branches);
                    if !programs.contains(&p) {
                        programs.push(p);
                    }
                }
            }
        }
        (programs, total)
    }

    /// The dedup is by value, not by allocation: a second partition
    /// whose blocks were solved separately yields a program equal to one
    /// of the first partition's from different `Arc`s, and it is emitted
    /// once, in the definitional order, with the definitional total.
    #[test]
    fn materialize_dedups_value_equal_programs_across_allocations() {
        use webqa_dsl::{Locator, NlpPred};
        let g1 = || Guard::Sat(Locator::Root, NlpPred::True);
        let g2 = || Guard::IsSingleton(Locator::Root);
        let g3 = || Guard::Sat(Locator::leaves(Locator::Root), NlpPred::True);
        let e1 = || Extractor::Content;
        let e2 = || Extractor::Split(Box::new(Extractor::Content), ',');
        let e3 = || Extractor::Filter(Box::new(Extractor::Content), NlpPred::True);
        // Block X's groups tie at F₁ 2/3 with different counts; block Y
        // scores 1. Only X's {1,1,2} group sums with Y to the optimum 0.8
        // ({2,2,3}); its {2,4,2} group gives 0.75.
        let (a, b, y) = (counts(1, 1, 2), counts(2, 4, 2), counts(1, 1, 1));
        let best_f1 = (a + y).f1();
        assert!(((b + y).f1() - best_f1).abs() > F1_EPS);
        let first = vec![
            block(vec![
                (g1(), vec![(a, vec![e1(), e2()]), (b, vec![e3()])]),
                (g2(), vec![(a, vec![e1(), e2()]), (b, vec![e3()])]),
            ]),
            block(vec![(g3(), vec![(y, vec![e1()])])]),
        ];
        let second = vec![
            block(vec![(g1(), vec![(a, vec![e1()])])]),
            block(vec![(g3(), vec![(y, vec![e1()])])]),
        ];
        assert!(!Arc::ptr_eq(
            &first[0].options[0].0,
            &second[0].options[0].0
        ));
        let partitions = vec![first, second];

        let (programs, total) = materialize(&partitions, 1_000, best_f1);
        let (want, want_total) = definitional_expansion(&partitions, best_f1);
        let text = |ps: &[Program]| ps.iter().map(Program::to_string).collect::<Vec<_>>();
        assert_eq!(text(&programs), text(&want));
        assert_eq!(programs, want);
        assert_eq!(total, want_total);
        // The second partition's one program repeats the first's first.
        assert_eq!((programs.len(), total), (4, 5));
        assert_eq!(
            programs[0].to_string(),
            "sat(root, true) -> content; sat(descendants(root, leaf), true) -> content"
        );
    }

    /// The outcome's programs point into one set of trees: on default
    /// configs over corpus tasks, every guard value and every extractor
    /// value in the optimal set is one allocation, however many programs
    /// and blocks use it.
    #[test]
    fn sharing_equal_trees_across_an_outcome_are_one_allocation() {
        let mut shared_across_blocks = 0;
        for (id, c, examples) in corpus_tasks() {
            for max_blocks in [1, 3] {
                let cfg = SynthConfig {
                    max_blocks,
                    ..SynthConfig::default()
                };
                let out = synthesize(&cfg, &c, &examples);
                assert!(!out.programs.is_empty(), "{id}: no program");
                let mut guards: HashMap<&Guard, &Arc<Guard>> = HashMap::new();
                let mut extractors: HashMap<&Extractor, &Arc<Extractor>> = HashMap::new();
                let mut branches = 0;
                for b in out.programs.iter().flat_map(|p| &p.branches) {
                    branches += 1;
                    let g = *guards.entry(&*b.guard).or_insert(&b.guard);
                    assert!(Arc::ptr_eq(g, &b.guard), "{id}: guard {} copied", b.guard);
                    let x = *extractors.entry(&*b.extractor).or_insert(&b.extractor);
                    assert!(Arc::ptr_eq(x, &b.extractor), "{id}: {} copied", b.extractor);
                }
                assert!(guards.len() < branches, "{id}: no guard is shared");
                let blocks: HashSet<usize> =
                    out.programs.iter().map(|p| p.branches.len()).collect();
                if blocks.len() > 1 {
                    shared_across_blocks += 1;
                }
            }
        }
        assert!(
            shared_across_blocks > 0,
            "some outcome mixes partitions of different sizes"
        );
    }

    fn counts(matched: usize, predicted: usize, gold: usize) -> Counts {
        Counts {
            matched,
            predicted,
            gold,
        }
    }

    #[test]
    fn best_sum_breaks_f1_ties_by_fewest_predicted_in_any_order() {
        let tied = [counts(2, 2, 4), counts(4, 8, 4)];
        assert_eq!(tied[0].f1(), tied[1].f1());
        for order in [[0, 1], [1, 0]] {
            let (f1, best) = best_sum(order.map(|i| tied[i]));
            assert_eq!(best, counts(2, 2, 4), "order {order:?}");
            assert_eq!(f1, tied[0].f1());
        }
    }

    #[test]
    fn best_sum_prefers_higher_f1_over_the_tie_order() {
        // {3,6,3} has F₁ 2/3; {3,4,3} has 6/7 despite predicting more
        // than {1,1,3} (F₁ 1/2).
        let (f1, best) = best_sum([counts(1, 1, 3), counts(3, 6, 3), counts(3, 4, 3)]);
        assert_eq!(best, counts(3, 4, 3));
        assert!((f1 - 6.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn best_sum_of_nothing_is_below_every_f1() {
        assert_eq!(best_sum([]), (-1.0, Counts::default()));
    }
}
