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
//! * **Incremental locator evaluation**: a locator's node set on a page
//!   is its parent's node set stepped once (`GetChildren` /
//!   `GetDescendants` filter it directly instead of re-walking the tree
//!   from the root), and guard classification reads the stored sets.
//!   Semantically identical to `Locator::eval`, asymptotically much
//!   cheaper.
//! * **Locator table**: a locator's node set on a page, its recall
//!   ceiling (Eq. 3) and every guard predicate's verdict depend on the
//!   (locator, page) pair alone, not on the branch problem. One
//!   [`LocatorTable`] per task holds them: a trie of locators keyed by
//!   (parent, filter, axis), with one slot per (locator, example) whose
//!   fields are computed on first use and read by every later branch
//!   problem. The enumerator yields `(spec, table id)`, so the branch
//!   synthesizer memoizes extractor synthesis per locator by dense index
//!   and reads the slot's node sets and ceiling (Figure 8 line 6)
//!   instead of re-evaluating the locator. A `Guard` and its `Locator`
//!   are built, by walking parent links, only for guards that join a
//!   branch's options, and once per task: the table keeps each built
//!   guard, so every branch problem and every optimal program shares it.
//! * **Mask tables**: in optimized mode a step reads the `[filter][node]`
//!   satisfaction mask precomputed in the [`TaskCtx`] (one
//!   neural-feature pass per node for the whole task).
//!   `SynthConfig::reference()` instead gives each branch problem a fresh
//!   table whose slots come from `Locator::eval`,
//!   `ceiling_counts_reference` and `NlpPred::eval`, as the pre-overhaul
//!   code computed them.

use std::collections::{HashMap, VecDeque};
use std::ops::Range;
use std::sync::Arc;

use webqa_dsl::{FxBuild, Guard, Locator, PageNodeId};
use webqa_metrics::Counts;

use crate::example::Example;
use crate::extractors::F1_EPS;
use crate::scorer::{pred_holds, TaskCtx};
use crate::stats::SynthStats;

/// The table id of `GetRoot`.
const ROOT: u32 = 0;

/// A slot field not computed yet.
const UNSET: u32 = u32::MAX;

/// A count or offset of the table as a `u32`.
fn id_of(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&id| id < UNSET)
        .expect("locator table exceeds the u32 id space")
}

/// One locator of the table: the locator it extends and the production
/// (`filter * 2 + descend`) that extends it. The root's fields are unused.
#[derive(Clone, Copy)]
struct Step {
    parent: u32,
    production: u32,
    /// `Locator::depth` of the locator.
    depth: u32,
}

/// What the table knows of one (locator, example) pair. Each field is
/// `UNSET` until first asked for.
#[derive(Clone, Copy)]
struct Slot {
    /// The node set is `nodes[start..start + len]`.
    start: u32,
    len: u32,
    /// The recall ceiling's matched and predicted token counts.
    matched: u32,
    predicted: u32,
    /// The verdict row is `verdicts[row..row + words]`: bit `pi` is set
    /// iff guard predicate `pi` holds on some node of the set.
    row: u32,
}

const EMPTY_SLOT: Slot = Slot {
    start: UNSET,
    len: 0,
    matched: UNSET,
    predicted: 0,
    row: UNSET,
};

/// The locators of one task's guard enumerations, with what each
/// selects on every example. Branch problems share it: each (locator,
/// example) pair is propagated, bounded and classified at most once.
///
/// The task's synthesis owns the table and passes it down by `&mut`;
/// reference-kernel runs use a fresh table per branch problem.
pub(crate) struct LocatorTable {
    examples: usize,
    /// `u64` words per verdict row.
    words: usize,
    steps: Vec<Step>,
    /// `(parent << 32) | production` → the child's id.
    children: HashMap<u64, u32, FxBuild>,
    /// `[locator * examples + example]`.
    slots: Vec<Slot>,
    /// Every node set, in one arena of node indices.
    nodes: Vec<u32>,
    verdicts: Vec<u64>,
    /// Every guard built so far, by `(locator << 32) | spec code`.
    guards: HashMap<u64, Arc<Guard>, FxBuild>,
    /// Reused buffers: a step's output, and a node set with the ceiling
    /// kernel's gold-multiplicity counts.
    step_buf: Vec<u32>,
    ceiling_buf: (Vec<PageNodeId>, Vec<u32>),
    /// Every (locator, example) pair propagated, in order.
    #[cfg(test)]
    propagated: Vec<(u32, u32)>,
}

impl LocatorTable {
    /// A table holding only `GetRoot`, for `task`'s examples and pools.
    pub(crate) fn new(task: &TaskCtx) -> Self {
        let examples = task.examples.len();
        LocatorTable {
            examples,
            words: task.guard_preds.len().div_ceil(64),
            steps: vec![Step {
                parent: ROOT,
                production: 0,
                depth: 1,
            }],
            children: HashMap::default(),
            slots: vec![EMPTY_SLOT; examples],
            nodes: Vec::new(),
            verdicts: Vec::new(),
            guards: HashMap::default(),
            step_buf: Vec::new(),
            ceiling_buf: (Vec::new(), Vec::new()),
            #[cfg(test)]
            propagated: Vec::new(),
        }
    }

    /// The id of `parent` extended by filter `fi` along the child or
    /// descendant axis, added on first sight.
    fn child(&mut self, parent: u32, fi: usize, descend: bool) -> u32 {
        let production = id_of(fi * 2 + usize::from(descend));
        let key = (u64::from(parent) << 32) | u64::from(production);
        if let Some(&id) = self.children.get(&key) {
            return id;
        }
        let id = id_of(self.steps.len());
        self.steps.push(Step {
            parent,
            production,
            depth: self.steps[parent as usize].depth + 1,
        });
        self.slots
            .resize(self.slots.len() + self.examples, EMPTY_SLOT);
        self.children.insert(key, id);
        id
    }

    /// The locator of table id `eid`, rebuilt from its parent links.
    pub(crate) fn locator(&self, task: &TaskCtx, eid: u32) -> Locator {
        let mut path = Vec::new();
        let mut e = eid;
        while e != ROOT {
            let step = self.steps[e as usize];
            path.push(step.production as usize);
            e = step.parent;
        }
        path.iter().rev().fold(Locator::Root, |inner, &p| {
            let filter = task.filters[p / 2].clone();
            if p % 2 == 1 {
                Locator::Descendants(Box::new(inner), filter)
            } else {
                Locator::Children(Box::new(inner), filter)
            }
        })
    }

    /// The guard `spec` over locator `eid`, built on first use and
    /// shared from then on.
    pub(crate) fn guard(&mut self, task: &TaskCtx, spec: GuardSpec, eid: u32) -> Arc<Guard> {
        let code = match spec {
            GuardSpec::Singleton => 0,
            GuardSpec::Sat(pi) => 1 + id_of(pi),
        };
        let key = (u64::from(eid) << 32) | u64::from(code);
        if let Some(guard) = self.guards.get(&key) {
            return Arc::clone(guard);
        }
        let locator = self.locator(task, eid);
        let guard = Arc::new(match spec {
            GuardSpec::Singleton => Guard::IsSingleton(locator),
            GuardSpec::Sat(pi) => Guard::Sat(locator, task.guard_preds[pi].clone()),
        });
        self.guards.insert(key, Arc::clone(&guard));
        guard
    }

    fn slot(&self, eid: u32, ex: usize) -> usize {
        eid as usize * self.examples + ex
    }

    /// The arena range of locator `eid`'s node set on example `ex`,
    /// propagated on first use: in optimized mode by one masked step
    /// from the parent's set, in reference mode by `Locator::eval`.
    fn node_range(&mut self, task: &TaskCtx, eid: u32, ex: usize) -> Range<usize> {
        let s = self.slot(eid, ex);
        if self.slots[s].start == UNSET {
            #[cfg(test)]
            self.propagated.push((eid, id_of(ex)));
            let example = &task.examples[ex];
            let mut out = std::mem::take(&mut self.step_buf);
            out.clear();
            if task.cfg.reference_kernels {
                let nodes = self.locator(task, eid).eval(task.ctx, &example.page);
                out.extend(nodes.iter().map(|n| id_of(n.index())));
            } else if eid == ROOT {
                out.push(id_of(example.page.root().index()));
            } else {
                let step = self.steps[eid as usize];
                let parent = self.node_range(task, step.parent, ex);
                let fi = step.production as usize / 2;
                step_nodes_masked(
                    example,
                    &self.nodes[parent],
                    task.mask(ex, fi),
                    step.production % 2 == 1,
                    &mut out,
                );
            }
            self.slots[s].start = id_of(self.nodes.len());
            self.slots[s].len = id_of(out.len());
            self.nodes.extend_from_slice(&out);
            self.step_buf = out;
        }
        let Slot { start, len, .. } = self.slots[s];
        start as usize..(start + len) as usize
    }

    /// Locator `eid`'s node set on example `ex`.
    fn nodes(&mut self, task: &TaskCtx, eid: u32, ex: usize) -> &[u32] {
        let range = self.node_range(task, eid, ex);
        &self.nodes[range]
    }

    /// The recall ceiling (Eq. 3) of locator `eid`'s node set on example
    /// `ex`, by the config's ceiling kernel, computed on first use.
    fn ceiling(&mut self, task: &TaskCtx, eid: u32, ex: usize) -> Counts {
        let range = self.node_range(task, eid, ex);
        let s = self.slot(eid, ex);
        let example = &task.examples[ex];
        if self.slots[s].matched == UNSET {
            let (ids, remaining) = &mut self.ceiling_buf;
            ids.clear();
            ids.extend(self.nodes[range].iter().map(|&n| PageNodeId(n as usize)));
            let c = if task.cfg.reference_kernels {
                example.ceiling_counts_reference(ids)
            } else {
                example.ceiling_counts(ids, remaining)
            };
            self.slots[s].matched = id_of(c.matched);
            self.slots[s].predicted = id_of(c.predicted);
        }
        Counts {
            matched: self.slots[s].matched as usize,
            predicted: self.slots[s].predicted as usize,
            gold: example.gold_tokens().len(),
        }
    }

    /// Whether guard predicate `pi` holds on some node of locator
    /// `eid`'s set on example `ex`. The slot's whole verdict row is
    /// computed on first use.
    fn holds(&mut self, task: &TaskCtx, eid: u32, ex: usize, pi: usize) -> bool {
        let range = self.node_range(task, eid, ex);
        let s = self.slot(eid, ex);
        if self.slots[s].row == UNSET {
            let row = self.verdicts.len();
            self.verdicts.resize(row + self.words, 0);
            let example = &task.examples[ex];
            let nodes = &self.nodes[range];
            for (pi, pred) in task.guard_preds.iter().enumerate() {
                let hit = if task.cfg.reference_kernels {
                    nodes
                        .iter()
                        .any(|&n| pred.eval(task.ctx, example.page.text(PageNodeId(n as usize))))
                } else {
                    let feats = task.feats(ex);
                    nodes.iter().any(|&n| pred_holds(pred, &feats[n as usize]))
                };
                if hit {
                    self.verdicts[row + pi / 64] |= 1 << (pi % 64);
                }
            }
            self.slots[s].row = id_of(row);
        }
        self.verdicts[self.slots[s].row as usize + pi / 64] >> (pi % 64) & 1 == 1
    }
}

/// What the table computed for one (locator, example) pair.
#[cfg(test)]
pub(crate) struct ComputedSlot {
    pub nodes: Vec<PageNodeId>,
    pub ceiling: Option<Counts>,
    /// Per guard predicate, in pool order.
    pub verdicts: Option<Vec<bool>>,
}

#[cfg(test)]
impl LocatorTable {
    /// Every (locator, example) pair propagated so far, in order.
    pub(crate) fn propagated(&self) -> &[(u32, u32)] {
        &self.propagated
    }

    /// The fields computed for locator `eid` on example `ex`, which must
    /// have been propagated.
    pub(crate) fn computed(&self, task: &TaskCtx, eid: u32, ex: usize) -> ComputedSlot {
        let slot = self.slots[self.slot(eid, ex)];
        assert_ne!(slot.start, UNSET, "slot was never propagated");
        let range = slot.start as usize..(slot.start + slot.len) as usize;
        ComputedSlot {
            nodes: self.nodes[range]
                .iter()
                .map(|&n| PageNodeId(n as usize))
                .collect(),
            ceiling: (slot.matched != UNSET).then(|| Counts {
                matched: slot.matched as usize,
                predicted: slot.predicted as usize,
                gold: task.examples[ex].gold_tokens().len(),
            }),
            verdicts: (slot.row != UNSET).then(|| {
                let row = &self.verdicts[slot.row as usize..slot.row as usize + self.words];
                (0..task.guard_preds.len())
                    .map(|pi| row[pi / 64] >> (pi % 64) & 1 == 1)
                    .collect()
            }),
        }
    }
}

/// A guard over a table locator, not yet materialized: the `Guard` is
/// built only when it joins a branch's options.
#[derive(Clone, Copy)]
pub(crate) enum GuardSpec {
    Singleton,
    /// Index into [`TaskCtx::guard_preds`].
    Sat(usize),
}

/// Lazy guard enumerator for one (E⁺, E⁻) classification problem, over
/// the task's [`LocatorTable`].
pub(crate) struct GuardEnumerator<'a> {
    task: &'a TaskCtx<'a>,
    table: &'a mut LocatorTable,
    pos: &'a [usize],
    neg: &'a [usize],
    worklist: VecDeque<u32>,
    /// The current locator, and the index of its next guard spec to
    /// screen (0 is `Singleton`, `1 + pi` is `Sat(pi)`).
    current: Option<(u32, usize)>,
    yielded: usize,
    /// Whether the guard cap has stopped this enumeration (counted once).
    capped: bool,
}

impl<'a> GuardEnumerator<'a> {
    pub(crate) fn new(
        task: &'a TaskCtx<'a>,
        table: &'a mut LocatorTable,
        pos: &'a [usize],
        neg: &'a [usize],
    ) -> Self {
        GuardEnumerator {
            task,
            table,
            pos,
            neg,
            worklist: VecDeque::from([ROOT]),
            current: None,
            yielded: 0,
            capped: false,
        }
    }

    /// The propagated positive node sets of locator `eid` (the
    /// `PropagateExamples` result of Figure 8).
    pub(crate) fn entry_nodes(&mut self, eid: u32) -> Vec<Vec<PageNodeId>> {
        self.pos
            .iter()
            .map(|&i| {
                let nodes = self.table.nodes(self.task, eid, i);
                nodes.iter().map(|&n| PageNodeId(n as usize)).collect()
            })
            .collect()
    }

    /// The recall ceiling of locator `eid`'s positive node sets (Figure
    /// 8 line 6).
    pub(crate) fn entry_ub(&mut self, eid: u32) -> Counts {
        let mut ub = Counts::default();
        for &i in self.pos {
            ub += self.table.ceiling(self.task, eid, i);
        }
        ub
    }

    /// The guard `spec` over locator `eid`, shared through the table.
    pub(crate) fn guard(&mut self, spec: GuardSpec, eid: u32) -> Arc<Guard> {
        self.table.guard(self.task, spec, eid)
    }

    /// Yields the next guard that is true on every positive example and
    /// false on every negative one — plus its table id — or `None` when
    /// the bounded search space is exhausted or the guard cap is
    /// reached. `opt` is the caller's current best F₁, used to prune
    /// locator extensions (Figure 10, line 8).
    pub(crate) fn next(&mut self, opt: f64, stats: &mut SynthStats) -> Option<(GuardSpec, u32)> {
        if self.yielded >= self.task.cfg.max_guards_per_branch {
            if !self.capped {
                self.capped = true;
                stats.guard_cap_hits += 1;
            }
            return None;
        }
        let specs = 1 + self.task.guard_preds.len();
        loop {
            if let Some((eid, mut k)) = self.current {
                while k < specs {
                    let spec = match k {
                        0 => GuardSpec::Singleton,
                        k => GuardSpec::Sat(k - 1),
                    };
                    k += 1;
                    if self.analysis_rejects(spec, eid) {
                        stats.analysis_pruned_guards += 1;
                        continue;
                    }
                    if self.classifies(spec, eid) {
                        self.current = Some((eid, k));
                        self.yielded += 1;
                        stats.guards_yielded += 1;
                        return Some((spec, eid));
                    }
                }
                self.current = None;
            }
            let eid = self.worklist.pop_front()?;
            // `GenGuards(ν)` (Figure 10 line 5) is deferred: the specs
            // are screened one at a time above.
            self.expand(eid, opt, stats);
            self.current = Some((eid, 0));
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
    fn analysis_rejects(&self, spec: GuardSpec, eid: u32) -> bool {
        let facts = &self.task.analysis;
        if !facts.enabled {
            return false;
        }
        let always_one = eid == ROOT;
        match spec {
            GuardSpec::Singleton => always_one && !self.neg.is_empty(),
            GuardSpec::Sat(pi) => match facts.guard_pred_truth[pi] {
                webqa_dsl::Truth::False => !self.pos.is_empty(),
                webqa_dsl::Truth::True => always_one && !self.neg.is_empty(),
                webqa_dsl::Truth::Unknown => false,
            },
        }
    }

    /// `ApplyProduction(ν)` over the table, with the UB check of Figure
    /// 10 line 8.
    fn expand(&mut self, eid: u32, opt: f64, stats: &mut SynthStats) {
        let task = self.task;
        if self.table.steps[eid as usize].depth as usize >= task.cfg.guard_depth {
            return;
        }
        // Analysis prune (sound, kernel-mode-invariant): a locator whose
        // node sets are empty on every positive example can never back a
        // classifying guard — and neither can any extension of it, since
        // productions only filter the frontier. `empty_child[fi*2+di]`
        // records which extensions of *this* locator came up empty so
        // that provably-stronger filters (`filter_implied`) skip the node
        // propagation entirely. Gated on `E⁺ ≠ ∅`: with no positives the
        // "empty on all positives" condition is vacuous, not a proof.
        let analyze = task.analysis.enabled && !self.pos.is_empty();
        let mut empty_child = vec![false; task.filters.len() * 2];
        for fi in 0..task.filters.len() {
            for descend in [false, true] {
                let di = fi * 2 + usize::from(descend);
                if analyze
                    && task.analysis.filter_implied[fi]
                        .iter()
                        .any(|&fj| empty_child[fj * 2 + usize::from(descend)])
                {
                    empty_child[di] = true;
                    stats.analysis_pruned_locators += 1;
                    continue;
                }
                stats.locators_expanded += 1;
                let child = self.table.child(eid, fi, descend);
                if analyze
                    && self
                        .pos
                        .iter()
                        .all(|&i| self.table.nodes(task, child, i).is_empty())
                {
                    empty_child[di] = true;
                    stats.analysis_pruned_locators += 1;
                    continue;
                }
                // The ceiling is only read under pruning (the NoPrune
                // ablation must not pay for an unused bound).
                if task.cfg.prune && self.entry_ub(child).upper_bound() + F1_EPS < opt {
                    stats.locators_pruned += 1;
                    continue;
                }
                self.worklist.push_back(child);
            }
        }
    }

    /// Figure 10 line 6: `∀e ∈ E⁺. ψ(e)` and `∀e ∈ E⁻. ¬ψ(e)`, read from
    /// the table's node sets and verdict rows.
    fn classifies(&mut self, spec: GuardSpec, eid: u32) -> bool {
        let (task, table) = (self.task, &mut *self.table);
        match spec {
            GuardSpec::Singleton => {
                self.pos
                    .iter()
                    .all(|&i| table.nodes(task, eid, i).len() == 1)
                    && self
                        .neg
                        .iter()
                        .all(|&i| table.nodes(task, eid, i).len() != 1)
            }
            GuardSpec::Sat(pi) => {
                self.pos.iter().all(|&i| table.holds(task, eid, i, pi))
                    && self.neg.iter().all(|&i| !table.holds(task, eid, i, pi))
            }
        }
    }
}

/// One locator production step on a node set, appended to `out` —
/// semantically `Locator::eval(Children/Descendants(ν, f))` given
/// `nodes = ν.eval(page)` (in document order, no repeats) and the
/// filter's satisfaction mask. Descendant steps read the example's
/// pre-order subtree ranges instead of walking the descendant list per
/// node, and skip nodes inside a range already scanned.
fn step_nodes_masked(
    ex: &Example,
    nodes: &[u32],
    mask: &[bool],
    descend: bool,
    out: &mut Vec<u32>,
) {
    let start = out.len();
    if descend {
        // The ranges of the nodes kept are disjoint and ascending, so the
        // output is sorted and has no repeats.
        let mut cover_end = 0;
        for &n in nodes {
            let n = n as usize;
            if n < cover_end {
                continue;
            }
            cover_end = ex.subtree_end_of(PageNodeId(n));
            for (i, _) in mask[n + 1..cover_end]
                .iter()
                .enumerate()
                .filter(|(_, m)| **m)
            {
                out.push(id_of(n + 1 + i));
            }
        }
    } else {
        for &n in nodes {
            for &c in ex.page.children(PageNodeId(n as usize)) {
                if mask[c.index()] {
                    out.push(id_of(c.index()));
                }
            }
        }
        // Children of nested nodes interleave; distinct parents never
        // share a child.
        out[start..].sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use webqa_dsl::{NodeFilter, PageTree, QueryContext};

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

    /// Drains up to `cap` guards of one branch problem over `table`.
    fn drain_over(
        task: &TaskCtx,
        table: &mut LocatorTable,
        pos: &[usize],
        neg: &[usize],
        opt: f64,
        stats: &mut SynthStats,
        cap: usize,
    ) -> Vec<Arc<Guard>> {
        let mut en = GuardEnumerator::new(task, table, pos, neg);
        let mut out = Vec::new();
        while let Some((spec, eid)) = en.next(opt, stats) {
            out.push(en.guard(spec, eid));
            if out.len() >= cap {
                break;
            }
        }
        out
    }

    /// [`drain_over`] a fresh table.
    fn drain(
        task: &TaskCtx,
        pos: &[usize],
        neg: &[usize],
        opt: f64,
        stats: &mut SynthStats,
        cap: usize,
    ) -> Vec<Arc<Guard>> {
        drain_over(
            task,
            &mut LocatorTable::new(task),
            pos,
            neg,
            opt,
            stats,
            cap,
        )
    }

    #[test]
    fn first_guard_is_over_root() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let examples = [example("<h1>R</h1><p>x</p>", &["x"])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut table = LocatorTable::new(&task);
        let mut en = GuardEnumerator::new(&task, &mut table, &[0], &[]);
        let mut stats = SynthStats::default();
        let (spec, eid) = en.next(0.0, &mut stats).expect("some guard");
        assert_eq!(en.guard(spec, eid).locator(), &Locator::Root);
        assert_eq!(eid, ROOT);
        assert_eq!(table.locator(&task, eid), Locator::Root);
    }

    #[test]
    fn incremental_step_matches_direct_eval() {
        let c = ctx();
        let ex = example(
            "<h1>R</h1><h2>Students</h2><ul><li>Jane Doe</li></ul><h2>B</h2><p>t</p>",
            &[],
        );
        let all: Vec<u32> = ex.page.iter().map(|n| id_of(n.index())).collect();
        for filter in [NodeFilter::True, NodeFilter::IsLeaf, NodeFilter::IsElem] {
            for descend in [false, true] {
                let mask: Vec<bool> = ex
                    .page
                    .iter()
                    .map(|n| filter.eval(&c, &ex.page, n))
                    .collect();
                // From the root, and from every node at once (nested
                // sets exercise the descendant skip and the child sort).
                for (base, nodes) in [
                    (Locator::Root, vec![id_of(ex.page.root().index())]),
                    (
                        Locator::Descendants(Box::new(Locator::Root), NodeFilter::True),
                        all[1..].to_vec(),
                    ),
                ] {
                    let mut stepped = Vec::new();
                    step_nodes_masked(&ex, &nodes, &mask, descend, &mut stepped);
                    let direct: Vec<u32> = if descend {
                        Locator::Descendants(Box::new(base.clone()), filter.clone())
                    } else {
                        Locator::Children(Box::new(base.clone()), filter.clone())
                    }
                    .eval(&c, &ex.page)
                    .iter()
                    .map(|n| id_of(n.index()))
                    .collect();
                    assert_eq!(stepped, direct, "{base} filter {filter} descend {descend}");
                }
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

    /// Every branch problem yields the same guard stream and statistics
    /// under the reference and optimized kernels, and over a table it
    /// shares with earlier branch problems as over a fresh one.
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
            example(
                "<h1>B</h1><h2>PhD Students</h2><ul><li>Bob Smith</li></ul>",
                &["Bob Smith"],
            ),
        ];
        let problems: [(&[usize], &[usize]); 4] =
            [(&[0], &[1]), (&[0, 2], &[1]), (&[2], &[0, 1]), (&[0], &[])];
        let cfg_fast = SynthConfig::fast();
        let cfg_ref = SynthConfig::fast().with_reference_kernels();
        let task_fast = TaskCtx::new(&cfg_fast, &c, &examples);
        let task_ref = TaskCtx::new(&cfg_ref, &c, &examples);
        for opt in [0.0, 0.7, 0.999] {
            let mut shared = LocatorTable::new(&task_fast);
            for (pos, neg) in problems {
                let what = format!("opt={opt} pos={pos:?} neg={neg:?}");
                let mut s1 = SynthStats::default();
                let mut s2 = SynthStats::default();
                let mut s3 = SynthStats::default();
                let fast = drain(&task_fast, pos, neg, opt, &mut s1, usize::MAX);
                let slow = drain(&task_ref, pos, neg, opt, &mut s2, usize::MAX);
                let over_shared =
                    drain_over(&task_fast, &mut shared, pos, neg, opt, &mut s3, usize::MAX);
                assert!(!fast.is_empty(), "{what}: no guard");
                assert_eq!(fast, slow, "guard streams diverge across kernels at {what}");
                assert_eq!(s1, s2, "stats diverge across kernels at {what}");
                assert_eq!(
                    fast, over_shared,
                    "a shared table changes the stream at {what}"
                );
                assert_eq!(s1, s3, "a shared table changes the stats at {what}");
            }
        }
    }

    #[test]
    fn exhausts_eventually() {
        let mut cfg = SynthConfig::fast();
        cfg.guard_depth = 1; // only Root
        let c = ctx();
        let examples = [example("<h1>R</h1>", &[])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut table = LocatorTable::new(&task);
        let mut en = GuardEnumerator::new(&task, &mut table, &[0], &[]);
        let mut stats = SynthStats::default();
        let mut n = 0;
        while en.next(0.0, &mut stats).is_some() {
            n += 1;
            assert!(n < 1000, "enumerator must terminate");
        }
        assert!(n > 0);
        assert_eq!(stats.guard_cap_hits, 0, "exhaustion is not the cap");
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
        let mut table = LocatorTable::new(&task);
        let mut en = GuardEnumerator::new(&task, &mut table, &[0], &[]);
        let mut stats = SynthStats::default();
        let mut n = 0;
        while en.next(0.0, &mut stats).is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        // The stop is counted once, however often `next` is asked again.
        assert!(en.next(0.0, &mut stats).is_none());
        assert_eq!(stats.guard_cap_hits, 1);
    }

    #[test]
    fn impossible_classification_yields_nothing_over_root() {
        // Same page as positive and negative: no guard can separate them.
        let cfg = SynthConfig::fast();
        let c = ctx();
        let page = "<h1>R</h1><h2>S</h2><p>x</p>";
        let examples = [example(page, &["x"]), example(page, &[])];
        let task = TaskCtx::new(&cfg, &c, &examples);
        let mut table = LocatorTable::new(&task);
        let mut en = GuardEnumerator::new(&task, &mut table, &[0], &[1]);
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
        let mut table = LocatorTable::new(&task);
        let mut en = GuardEnumerator::new(&task, &mut table, &[0], &[]);
        let mut stats = SynthStats::default();
        let mut yielded = Vec::new();
        while let Some((_, eid)) = en.next(0.0, &mut stats) {
            let nodes = en.entry_nodes(eid);
            let recomputed: Counts = nodes
                .iter()
                .map(|nodes| examples[0].ceiling_counts(nodes, &mut Vec::new()))
                .sum();
            assert_eq!(en.entry_ub(eid), recomputed);
            yielded.push((eid, nodes));
        }
        assert!(!yielded.is_empty());
        // The stored nodes equal a fresh evaluation of the rebuilt locator.
        for (eid, nodes) in yielded {
            let direct = table.locator(&task, eid).eval(&c, &examples[0].page);
            assert_eq!(nodes, [direct]);
        }
    }
}
