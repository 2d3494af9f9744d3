//! `GetNextGuard` (Figure 10 of the paper): lazy bottom-up enumeration of
//! guards that classify the positive from the negative examples.
//!
//! Implementation notes beyond the paper's pseudocode:
//!
//! * **Laziness**: the caller's optimal F₁ (`opt`) rises while guards are
//!   consumed, and every `next(opt)` call applies the *current* bound when
//!   deciding which locator extensions stay in the worklist — exactly the
//!   interplay the paper credits for the pruning power of the combined
//!   search.
//! * **Incremental locator evaluation**: each entry carries the node sets
//!   its locator selects on every example, so extending a locator
//!   (`GetChildren`/`GetDescendants`) filters those sets directly instead
//!   of re-walking the tree from the root, and guard classification reads
//!   the precomputed sets. Semantically identical to `Locator::eval`,
//!   asymptotically much cheaper.
//! * **Entry arena**: entries live in an arena and guards are yielded as
//!   `(Guard, entry id)`, so the branch synthesizer can memoize extractor
//!   synthesis per locator by dense index — no `Locator` cloning or
//!   hashing on the hot path — and reuse the entry's already-propagated
//!   node sets and recall ceiling (Figure 8 line 6) instead of
//!   re-evaluating the locator from the root.
//! * **Mask tables**: in optimized mode the `[filter][node]` satisfaction
//!   masks come precomputed from the [`TaskCtx`] (one neural-feature pass
//!   per node for the whole task); `SynthConfig::reference()` recomputes
//!   them per branch with direct `NodeFilter::eval` calls, as the
//!   pre-overhaul code did.

use std::collections::VecDeque;

use webqa_dsl::{Guard, Locator, PageNodeId, QueryContext};
use webqa_metrics::Counts;

use crate::example::Example;
use crate::extractors::F1_EPS;
use crate::scorer::{pred_holds, TaskCtx};
use crate::stats::SynthStats;

/// A locator with its evaluation on every positive and negative example,
/// plus the recall ceiling of its positive node sets (Eq. 3).
struct Entry {
    locator: Locator,
    pos_nodes: Vec<Vec<PageNodeId>>,
    neg_nodes: Vec<Vec<PageNodeId>>,
    ub: Counts,
}

/// A guard over the current entry's locator, not yet materialized: the
/// locator is cloned into an owned [`Guard`] only if the guard actually
/// classifies the examples.
enum GuardSpec {
    Singleton,
    /// Index into [`TaskCtx::guard_preds`].
    Sat(usize),
}

/// Per-branch mask table in reference mode: `[filter][local example]` →
/// one bool per node.
type RefMasks = Vec<Vec<Vec<bool>>>;

/// Lazy guard enumerator for one (E⁺, E⁻) classification problem.
pub(crate) struct GuardEnumerator<'a> {
    task: &'a TaskCtx<'a>,
    pos: &'a [usize],
    neg: &'a [usize],
    /// Reference mode only: masks recomputed per branch via direct
    /// `NodeFilter::eval`, laid out `[filter][local example][node]` for
    /// positives and negatives separately.
    ref_masks: Option<(RefMasks, RefMasks)>,
    entries: Vec<Entry>,
    worklist: VecDeque<usize>,
    /// Guards generated from the current entry, not yet screened.
    pending: VecDeque<GuardSpec>,
    current: Option<usize>,
    yielded: usize,
    /// The ceiling kernel's gold-multiplicity buffer, reused by every
    /// entry's recall ceiling.
    scratch: Vec<u32>,
}

impl<'a> GuardEnumerator<'a> {
    pub(crate) fn new(task: &'a TaskCtx<'a>, pos: &'a [usize], neg: &'a [usize]) -> Self {
        let mut scratch = Vec::new();
        let root = Entry {
            locator: Locator::Root,
            pos_nodes: pos
                .iter()
                .map(|&i| vec![task.examples[i].page.root()])
                .collect(),
            neg_nodes: neg
                .iter()
                .map(|&i| vec![task.examples[i].page.root()])
                .collect(),
            // The ceiling is only ever consulted under `cfg.prune` (here
            // and in the branch synthesizer's memo gate); NoPrune runs
            // skip computing it entirely, as the pre-overhaul code did.
            ub: if task.cfg.prune {
                pos.iter()
                    .map(|&i| {
                        let ex = &task.examples[i];
                        ceiling(task, ex, &[ex.page.root()], &mut scratch)
                    })
                    .sum()
            } else {
                Counts::default()
            },
        };
        let ref_masks = task.cfg.reference_kernels.then(|| {
            let masks = |idx: &[usize]| -> RefMasks {
                task.filters
                    .iter()
                    .map(|f| {
                        idx.iter()
                            .map(|&i| {
                                let ex = &task.examples[i];
                                ex.page
                                    .iter()
                                    .map(|n| f.eval(task.ctx, &ex.page, n))
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            };
            (masks(pos), masks(neg))
        });
        GuardEnumerator {
            task,
            pos,
            neg,
            ref_masks,
            entries: vec![root],
            worklist: VecDeque::from([0]),
            pending: VecDeque::new(),
            current: None,
            yielded: 0,
            scratch,
        }
    }

    /// The propagated positive node sets of entry `eid` (the
    /// `PropagateExamples` result of Figure 8, already computed).
    pub(crate) fn entry_nodes(&self, eid: usize) -> &[Vec<PageNodeId>] {
        &self.entries[eid].pos_nodes
    }

    /// The recall ceiling of entry `eid`'s positive node sets (Figure 8
    /// line 6), computed when the entry was created.
    pub(crate) fn entry_ub(&self, eid: usize) -> Counts {
        self.entries[eid].ub
    }

    /// The locator of entry `eid` (reference path re-propagates from it).
    pub(crate) fn entry_locator(&self, eid: usize) -> &Locator {
        &self.entries[eid].locator
    }

    /// Yields the next guard that is true on every positive example and
    /// false on every negative one — plus its entry id — or `None` when
    /// the bounded search space is exhausted. `opt` is the caller's
    /// current best F₁, used to prune locator extensions (Figure 10,
    /// line 8).
    pub(crate) fn next(&mut self, opt: f64, stats: &mut SynthStats) -> Option<(Guard, usize)> {
        if self.yielded >= self.task.cfg.max_guards_per_branch {
            return None;
        }
        loop {
            if let Some(eid) = self.current {
                while let Some(spec) = self.pending.pop_front() {
                    if self.analysis_rejects(&spec, eid) {
                        stats.analysis_pruned_guards += 1;
                        continue;
                    }
                    if self.classifies(&spec, eid) {
                        self.yielded += 1;
                        stats.guards_yielded += 1;
                        return Some((self.materialize(&spec, eid), eid));
                    }
                }
                self.current = None;
            }
            let eid = self.worklist.pop_front()?;
            // `GenGuards(ν)` (Figure 10 line 5), deferred: specs only.
            self.pending.push_back(GuardSpec::Singleton);
            for pi in 0..self.task.guard_preds.len() {
                self.pending.push_back(GuardSpec::Sat(pi));
            }
            self.expand(eid, opt, stats);
            self.current = Some(eid);
        }
    }

    fn mask_pos(&self, fi: usize, k: usize) -> &[bool] {
        match &self.ref_masks {
            Some((pm, _)) => &pm[fi][k],
            None => self.task.mask(self.pos[k], fi),
        }
    }

    fn mask_neg(&self, fi: usize, k: usize) -> &[bool] {
        match &self.ref_masks {
            Some((_, nm)) => &nm[fi][k],
            None => self.task.mask(self.neg[k], fi),
        }
    }

    /// Whether the abstract interpreter proves this guard can never
    /// classify `(E⁺, E⁻)`, without evaluating it. Two sound verdicts
    /// (both page-independent, so reference and optimized runs agree):
    ///
    /// * the predicate is provably `⊥` under the query context, so
    ///   `Sat` cannot hold on any positive example (requires `E⁺ ≠ ∅` —
    ///   with no positives a false predicate trivially *rejects* every
    ///   negative and the guard may legitimately classify);
    /// * the guard is provably `⊤` (locator of cardinality exactly one —
    ///   `GetRoot` — with a provably-true predicate, or `IsSingleton`
    ///   over it), so it cannot reject any negative (requires `E⁻ ≠ ∅`).
    fn analysis_rejects(&self, spec: &GuardSpec, eid: usize) -> bool {
        let facts = &self.task.analysis;
        if !facts.enabled {
            return false;
        }
        let always_one = matches!(self.entries[eid].locator, Locator::Root);
        match spec {
            GuardSpec::Singleton => always_one && !self.neg.is_empty(),
            GuardSpec::Sat(pi) => match facts.guard_pred_truth[*pi] {
                webqa_dsl::Truth::False => !self.pos.is_empty(),
                webqa_dsl::Truth::True => always_one && !self.neg.is_empty(),
                webqa_dsl::Truth::Unknown => false,
            },
        }
    }

    /// `ApplyProduction(ν)` with incremental node evaluation and the UB
    /// check of Figure 10 line 8.
    fn expand(&mut self, eid: usize, opt: f64, stats: &mut SynthStats) {
        if self.entries[eid].locator.depth() >= self.task.cfg.guard_depth {
            return;
        }
        // Analysis prune (sound, kernel-mode-invariant): a locator whose
        // node sets are empty on every positive example can never back a
        // classifying guard — and neither can any extension of it, since
        // productions only filter the frontier. `empty_child[fi*2+di]`
        // records which extensions of *this* entry came up empty so that
        // provably-stronger filters (`filter_implied`) skip the node
        // propagation entirely. Gated on `E⁺ ≠ ∅`: with no positives the
        // "empty on all positives" condition is vacuous, not a proof.
        let analyze = self.task.analysis.enabled && !self.pos.is_empty();
        let mut empty_child = vec![false; self.task.filters.len() * 2];
        let mut created: Vec<Entry> = Vec::new();
        for fi in 0..self.task.filters.len() {
            for descend in [false, true] {
                let di = fi * 2 + usize::from(descend);
                if analyze
                    && self.task.analysis.filter_implied[fi]
                        .iter()
                        .any(|&fj| empty_child[fj * 2 + usize::from(descend)])
                {
                    empty_child[di] = true;
                    stats.analysis_pruned_locators += 1;
                    continue;
                }
                stats.locators_expanded += 1;
                let entry = &self.entries[eid];
                let pos_nodes: Vec<Vec<PageNodeId>> = self
                    .pos
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        step_nodes_masked(
                            &self.task.examples[i],
                            &entry.pos_nodes[k],
                            self.mask_pos(fi, k),
                            descend,
                        )
                    })
                    .collect();
                if analyze && pos_nodes.iter().all(Vec::is_empty) {
                    empty_child[di] = true;
                    stats.analysis_pruned_locators += 1;
                    continue;
                }
                // Only computed when pruning can read it (the NoPrune
                // ablation must not pay for an unused bound).
                let ub: Counts = if self.task.cfg.prune {
                    self.pos
                        .iter()
                        .zip(&pos_nodes)
                        .map(|(&i, nodes)| {
                            ceiling(self.task, &self.task.examples[i], nodes, &mut self.scratch)
                        })
                        .sum()
                } else {
                    Counts::default()
                };
                if self.task.cfg.prune && ub.upper_bound() + F1_EPS < opt {
                    stats.locators_pruned += 1;
                    continue;
                }
                let neg_nodes: Vec<Vec<PageNodeId>> = self
                    .neg
                    .iter()
                    .enumerate()
                    .map(|(k, &i)| {
                        step_nodes_masked(
                            &self.task.examples[i],
                            &entry.neg_nodes[k],
                            self.mask_neg(fi, k),
                            descend,
                        )
                    })
                    .collect();
                let filter = self.task.filters[fi].clone();
                let locator = if descend {
                    Locator::Descendants(Box::new(entry.locator.clone()), filter)
                } else {
                    Locator::Children(Box::new(entry.locator.clone()), filter)
                };
                created.push(Entry {
                    locator,
                    pos_nodes,
                    neg_nodes,
                    ub,
                });
            }
        }
        let base = self.entries.len();
        self.worklist.extend(base..base + created.len());
        self.entries.extend(created);
    }

    /// Figure 10 line 6: `∀e ∈ E⁺. ψ(e)` and `∀e ∈ E⁻. ¬ψ(e)`, evaluated
    /// against the entry's precomputed node sets.
    fn classifies(&self, spec: &GuardSpec, eid: usize) -> bool {
        let entry = &self.entries[eid];
        match spec {
            GuardSpec::Singleton => {
                entry.pos_nodes.iter().all(|nodes| nodes.len() == 1)
                    && entry.neg_nodes.iter().all(|nodes| nodes.len() != 1)
            }
            GuardSpec::Sat(pi) => {
                let pred = &self.task.guard_preds[*pi];
                let holds = |i: usize, nodes: &Vec<PageNodeId>| -> bool {
                    let ex = &self.task.examples[i];
                    if self.task.cfg.reference_kernels {
                        nodes
                            .iter()
                            .any(|&n| pred.eval(self.task.ctx, ex.page.text(n)))
                    } else {
                        let feats = self.task.feats(i);
                        nodes.iter().any(|&n| pred_holds(pred, &feats[n.index()]))
                    }
                };
                self.pos
                    .iter()
                    .zip(&entry.pos_nodes)
                    .all(|(&i, nodes)| holds(i, nodes))
                    && self
                        .neg
                        .iter()
                        .zip(&entry.neg_nodes)
                        .all(|(&i, nodes)| !holds(i, nodes))
            }
        }
    }

    fn materialize(&self, spec: &GuardSpec, eid: usize) -> Guard {
        let locator = self.entries[eid].locator.clone();
        match spec {
            GuardSpec::Singleton => Guard::IsSingleton(locator),
            GuardSpec::Sat(pi) => Guard::Sat(locator, self.task.guard_preds[*pi].clone()),
        }
    }
}

/// The ceiling kernel selected by the config's kernel mode; the dense
/// kernel counts down in `scratch`.
fn ceiling(task: &TaskCtx, ex: &Example, nodes: &[PageNodeId], scratch: &mut Vec<u32>) -> Counts {
    if task.cfg.reference_kernels {
        ex.ceiling_counts_reference(nodes)
    } else {
        ex.ceiling_counts(nodes, scratch)
    }
}

/// One locator production step evaluated on a precomputed node set —
/// semantically `Locator::eval(Children/Descendants(ν, f))` given
/// `nodes = ν.eval(page)` and the filter's satisfaction mask. Descendant
/// steps read the example's pre-order subtree ranges instead of walking
/// (and allocating) the descendant list per node.
fn step_nodes_masked(
    ex: &Example,
    nodes: &[PageNodeId],
    mask: &[bool],
    descend: bool,
) -> Vec<PageNodeId> {
    let mut out = Vec::new();
    for &n in nodes {
        if descend {
            let range = n.index() + 1..ex.subtree_end_of(n);
            for (i, _) in mask[range.clone()].iter().enumerate().filter(|(_, m)| **m) {
                out.push(PageNodeId(range.start + i));
            }
        } else {
            for &c in ex.page.children(n) {
                if mask[c.index()] {
                    out.push(c);
                }
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// The nodes a locator binds to `x` on each example page
/// (`PropagateExamples` of Figure 8) — the definitional evaluation used
/// by the reference kernels and the `NoDecomp` ablation tests.
pub(crate) fn propagate_examples<'e>(
    ctx: &QueryContext,
    locator: &Locator,
    examples: impl IntoIterator<Item = &'e Example>,
) -> Vec<Vec<PageNodeId>> {
    examples
        .into_iter()
        .map(|ex| locator.eval(ctx, &ex.page))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use webqa_dsl::{NodeFilter, PageTree};

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the students?", ["Students"])
    }

    fn guard_true(ctx: &QueryContext, guard: &Guard, ex: &Example) -> bool {
        guard.eval(ctx, &ex.page).0
    }

    fn drain(
        task: &TaskCtx,
        pos: &[usize],
        neg: &[usize],
        opt: f64,
        stats: &mut SynthStats,
        cap: usize,
    ) -> Vec<Guard> {
        let mut en = GuardEnumerator::new(task, pos, neg);
        let mut out = Vec::new();
        while let Some((g, _)) = en.next(opt, stats) {
            out.push(g);
            if out.len() >= cap {
                break;
            }
        }
        out
    }

    #[test]
    fn first_guard_is_over_root() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = [example("<h1>R</h1><p>x</p>", &["x"])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut en = GuardEnumerator::new(&task, &[0], &[]);
        let mut stats = SynthStats::default();
        let (g, eid) = en.next(0.0, &mut stats).expect("some guard");
        assert_eq!(g.locator(), &Locator::Root);
        assert_eq!(eid, 0);
        assert_eq!(en.entry_locator(eid), &Locator::Root);
    }

    #[test]
    fn incremental_step_matches_direct_eval() {
        let c = ctx();
        let ex = example(
            "<h1>R</h1><h2>Students</h2><ul><li>Jane Doe</li></ul><h2>B</h2><p>t</p>",
            &[],
        );
        for filter in [NodeFilter::True, NodeFilter::IsLeaf, NodeFilter::IsElem] {
            for descend in [false, true] {
                let base = Locator::Root;
                let base_nodes = base.eval(&c, &ex.page);
                let mask: Vec<bool> = ex
                    .page
                    .iter()
                    .map(|n| filter.eval(&c, &ex.page, n))
                    .collect();
                let stepped = step_nodes_masked(&ex, &base_nodes, &mask, descend);
                let direct = if descend {
                    Locator::Descendants(Box::new(base.clone()), filter.clone())
                } else {
                    Locator::Children(Box::new(base.clone()), filter.clone())
                }
                .eval(&c, &ex.page);
                assert_eq!(stepped, direct, "filter {filter} descend {descend}");
            }
        }
    }

    #[test]
    fn separates_positive_from_negative() {
        for cfg in [
            SynthConfig::fast(),
            SynthConfig::fast().with_reference_kernels(),
        ] {
            let c = ctx();
            // Positive pages have a "Students" section; negatives don't.
            let examples = [
                example(
                    "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                    &["Jane Doe"],
                ),
                example(
                    "<h1>B</h1><h2>PhD Students</h2><ul><li>Bob Smith</li></ul>",
                    &["Bob Smith"],
                ),
                example("<h1>C</h1><h2>Contact</h2><p>email</p>", &[]),
            ];
            let task = TaskCtx::new(&cfg, &c, &examples);
            let mut stats = SynthStats::default();
            let found = drain(&task, &[0, 1], &[2], 0.0, &mut stats, 5);
            assert!(!found.is_empty(), "must find a separating guard");
            for g in &found {
                assert!(guard_true(&c, g, &examples[0]));
                assert!(guard_true(&c, g, &examples[1]));
                assert!(!guard_true(&c, g, &examples[2]));
            }
        }
    }

    #[test]
    fn reference_and_optimized_yield_identical_guard_streams() {
        let c = ctx();
        let examples = [
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Ann Lee</li></ul>\
                 <h2>News</h2><p>PLDI 2021</p>",
                &["Jane Doe", "Ann Lee"],
            ),
            example("<h1>C</h1><h2>Contact</h2><p>email us</p>", &[]),
        ];
        for opt in [0.0, 0.7] {
            let cfg_fast = SynthConfig::fast();
            let cfg_ref = SynthConfig::fast().with_reference_kernels();
            let task_fast = TaskCtx::new(&cfg_fast, &c, &examples);
            let task_ref = TaskCtx::new(&cfg_ref, &c, &examples);
            let mut s1 = SynthStats::default();
            let mut s2 = SynthStats::default();
            let fast = drain(&task_fast, &[0], &[1], opt, &mut s1, usize::MAX);
            let slow = drain(&task_ref, &[0], &[1], opt, &mut s2, usize::MAX);
            assert_eq!(fast, slow, "guard streams diverge at opt={opt}");
            assert_eq!(s1, s2, "stats diverge at opt={opt}");
        }
    }

    #[test]
    fn exhausts_eventually() {
        let mut cfg = SynthConfig::fast();
        cfg.guard_depth = 1; // only Root
        let c = ctx();
        let examples = [example("<h1>R</h1>", &[])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut en = GuardEnumerator::new(&task, &[0], &[]);
        let mut stats = SynthStats::default();
        let mut n = 0;
        while en.next(0.0, &mut stats).is_some() {
            n += 1;
            assert!(n < 1000, "enumerator must terminate");
        }
        assert!(n > 0);
    }

    #[test]
    fn high_opt_prunes_locator_extensions() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = [example(
            "<h1>R</h1><h2>S</h2><p>gold here</p>",
            &["gold here"],
        )];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut s_low = SynthStats::default();
        let mut s_high = SynthStats::default();
        drain(&task, &[0], &[], 0.0, &mut s_low, usize::MAX);
        drain(&task, &[0], &[], 0.999, &mut s_high, usize::MAX);
        assert!(
            s_high.locators_pruned >= s_low.locators_pruned,
            "a higher bound can only prune more"
        );
    }

    #[test]
    fn respects_guard_cap() {
        let mut cfg = SynthConfig::fast();
        cfg.max_guards_per_branch = 3;
        let c = ctx();
        let examples = [example("<h1>R</h1><p>x</p>", &["x"])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut en = GuardEnumerator::new(&task, &[0], &[]);
        let mut stats = SynthStats::default();
        let mut n = 0;
        while en.next(0.0, &mut stats).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn impossible_classification_yields_nothing_over_root() {
        // Same page as positive and negative: no guard can separate them.
        let cfg = SynthConfig::fast();
        let c = ctx();
        let page = "<h1>R</h1><h2>S</h2><p>x</p>";
        let examples = [example(page, &["x"]), example(page, &[])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut en = GuardEnumerator::new(&task, &[0], &[1]);
        let mut stats = SynthStats::default();
        assert!(en.next(0.0, &mut stats).is_none());
    }

    #[test]
    fn yielded_guards_classify_via_public_eval_too() {
        // The incremental classification must agree with Guard::eval.
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = [
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example("<h1>C</h1><h2>Contact</h2><p>email</p>", &[]),
        ];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut stats = SynthStats::default();
        let found = drain(&task, &[0], &[1], 0.0, &mut stats, 20);
        assert!(!found.is_empty());
        for g in &found {
            assert!(guard_true(&c, g, &examples[0]));
            assert!(!guard_true(&c, g, &examples[1]));
        }
    }

    #[test]
    fn entry_ub_matches_recomputed_ceiling() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = [example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul><h2>B</h2><p>x</p>",
            &["Jane Doe"],
        )];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut en = GuardEnumerator::new(&task, &[0], &[]);
        let mut stats = SynthStats::default();
        while let Some((_, eid)) = en.next(0.0, &mut stats) {
            let recomputed: Counts = en
                .entry_nodes(eid)
                .iter()
                .map(|nodes| examples[0].ceiling_counts(nodes, &mut Vec::new()))
                .sum();
            assert_eq!(en.entry_ub(eid), recomputed);
            // The stored nodes equal a fresh propagation of the locator.
            let direct = propagate_examples(&c, en.entry_locator(eid), [&examples[0]]);
            assert_eq!(en.entry_nodes(eid), direct.as_slice());
        }
    }
}
