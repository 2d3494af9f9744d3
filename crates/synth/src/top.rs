//! Top-level `Synthesize` (Figure 7 of the paper): enumerate ordered
//! example partitions, synthesize optimal branch programs per block, and
//! return *all* programs achieving the optimal F₁.
//!
//! Partition blocks are independent (E⁺, E⁻) problems, memoized across
//! the partition scan and solved lazily: a block after a failing one is
//! never searched. Blocks that share E⁺ also share extractor searches,
//! through the task's extractor memo (see [`ExtractorMemo`]).

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use webqa_dsl::{Branch, Extractor, Guard, Program, QueryContext};
use webqa_metrics::Counts;

use crate::branch::{synthesize_branch, BranchSynthesis, ExtractorMemo};
use crate::cancel::{CancelToken, Cancelled};
use crate::config::SynthConfig;
use crate::example::Example;
use crate::extractors::F1_EPS;
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
    // different partitions share blocks heavily. One string table and one
    // extractor memo serve every branch problem of the task; both are
    // dropped with it, so a cancelled search leaves nothing behind. A
    // block memo entry of `None` means the block was solved and has no
    // separating guard.
    let mut table = StringTable::new(&task);
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
                    let r =
                        synthesize_branch(&task, &mut table, &mut extractors, pos, neg, &mut stats);
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
fn materialize(
    partitions: &[Vec<Arc<BranchSynthesis>>],
    cap: usize,
    best_f1: f64,
) -> (Vec<Program>, usize) {
    let mut programs: Vec<Program> = Vec::new();
    let mut seen: HashSet<Program> = HashSet::new();
    let mut total: usize = 0;
    let per_partition_cap = cap.div_ceil(partitions.len().max(1));
    for blocks in partitions {
        // Flatten each block's (guard, extractors) map into (guard,
        // extractor, counts) triples, round-robin across guards so a
        // prefix of the list spans many guards.
        let pairs_per_block: Vec<Vec<(&Guard, &Extractor, Counts)>> = blocks
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
                    for (g, gs) in &b.options {
                        for (c, es) in &gs.groups {
                            if let Some(e) = es.get(i) {
                                pairs.push((g, e, *c));
                            }
                        }
                    }
                }
                pairs
            })
            .collect();
        let block_sizes: Vec<usize> = pairs_per_block.iter().map(Vec::len).collect();
        let product: u128 = block_sizes.iter().map(|&s| s as u128).product();

        // Exact count of optimal combinations: convolve per-block
        // multiplicity maps (counts → #pairs) across blocks, then sum the
        // multiplicities of summed counts achieving best_f1.
        let mut conv: HashMap<Counts, u128> = HashMap::new();
        conv.insert(Counts::default(), 1);
        for pairs in &pairs_per_block {
            let mut block_counts: HashMap<Counts, u128> = HashMap::new();
            for (_, _, c) in pairs {
                *block_counts.entry(*c).or_insert(0) += 1;
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

        let want = per_partition_cap.min(cap.saturating_sub(programs.len()));
        // Emits the combination at `code` iff its summed counts achieve
        // the global optimum; returns true when a new program was added.
        let emit = |code: u128, programs: &mut Vec<Program>, seen: &mut HashSet<Program>| -> bool {
            let mut c = code;
            let mut sum = Counts::default();
            let branches: Vec<Branch> = block_sizes
                .iter()
                .zip(&pairs_per_block)
                .map(|(&size, pairs)| {
                    let i = (c % size as u128) as usize;
                    c /= size as u128;
                    let (g, e, counts) = &pairs[i];
                    sum += *counts;
                    Branch::new((*g).clone(), (*e).clone())
                })
                .collect();
            if (sum.f1() - best_f1).abs() > F1_EPS {
                return false;
            }
            let p = Program::new(branches);
            if seen.insert(p.clone()) {
                programs.push(p);
                true
            } else {
                false
            }
        };
        if product <= (want as u128).saturating_mul(64).max(65_536) {
            // Small enough to scan exhaustively, filtering as we go.
            for code in 0..product {
                if programs.len() >= cap {
                    break;
                }
                emit(code, &mut programs, &mut seen);
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
                if emit(code, &mut programs, &mut seen) {
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
                    if emit(code, &mut programs, &mut seen) {
                        break;
                    }
                }
            }
        }
        if programs.len() >= cap {
            break;
        }
    }
    (programs, total)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The extractor memo is invisible: for 3-label corpus tasks, every
    /// branch problem the partition scan can reach, solved in scan order
    /// with one memo shared across the task, has exactly the guards,
    /// count groups and extractor order it has when solved alone with a
    /// fresh memo.
    #[test]
    fn extractor_memo_is_invisible_to_every_branch_problem() {
        use webqa_corpus::{generate_pages, TASKS};
        for task in [&TASKS[0], &TASKS[7], &TASKS[13], &TASKS[19]] {
            let pages = generate_pages(task.domain, 3, 7);
            let c = QueryContext::new(task.question, task.keywords.to_vec());
            let examples: Vec<Example> = pages
                .iter()
                .map(|p| Example::new(p.tree(), p.gold(task.id).to_vec()))
                .collect();
            for max_blocks in [2, 3] {
                let mut cfg = SynthConfig::fast();
                cfg.max_blocks = max_blocks;
                let tc = TaskCtx::new(&cfg, &c, &examples);
                let mut table = StringTable::new(&tc);
                let mut shared = ExtractorMemo::new();
                let mut stats = SynthStats::default();
                let mut seen = HashSet::new();
                for partition in ordered_partitions(examples.len(), max_blocks) {
                    for i in 0..partition.len() {
                        let key = block_key(&partition, i);
                        if !seen.insert(key.clone()) {
                            continue;
                        }
                        let (pos, neg) = &key;
                        let with_shared =
                            synthesize_branch(&tc, &mut table, &mut shared, pos, neg, &mut stats);
                        let alone = synthesize_branch(
                            &tc,
                            &mut table,
                            &mut ExtractorMemo::new(),
                            pos,
                            neg,
                            &mut SynthStats::default(),
                        );
                        let what = format!("{} max_blocks={max_blocks} {key:?}", task.id);
                        assert_same_branch(&what, with_shared.as_ref(), alone.as_ref());
                    }
                }
                assert!(
                    stats.extractor_memo_hits > 0,
                    "{} max_blocks={max_blocks}: the memo was never hit",
                    task.id
                );
            }
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
