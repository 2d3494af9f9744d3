//! Task-level caches and interned scoring kernels for the synthesis hot
//! path.
//!
//! Everything in this module is *semantics-free* acceleration: the same
//! scores, masks, and classifications the definitional code paths
//! compute, produced from precomputed tables instead of repeated string
//! work. `SynthConfig::reference()` disables all of it
//! (`reference_kernels = true`) and routes every decision through the
//! original definitional evaluation — `tests/synth_parity.rs` proves the
//! two paths observationally identical on the whole corpus.
//!
//! Three layers:
//!
//! * [`TaskCtx`] — one per [`crate::synthesize`] call: the filter /
//!   predicate / production pools, plus (optimized mode only) per-node
//!   [`TextFeatures`] and the `[example][filter][node]` mask table every
//!   guard enumeration reads instead of re-evaluating `NodeFilter`s.
//! * [`Scorer`] — one per branch problem: a [`TokenInterner`] plus a
//!   string → token-id cache, so scoring a candidate extractor is a
//!   multiset-overlap run over small integer bags rather than
//!   re-tokenizing every output string.
//! * [`FxHasher`] — a fast non-cryptographic hasher for the behavioral
//!   signatures and string-keyed caches on the hot path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex};

use webqa_dsl::{Analyzer, EntityKind, NlpPred, NodeFilter, QueryContext, Truth};
use webqa_metrics::{BagOverlap, Counts, IdBag, IdVec, TokenInterner};

use crate::cancel::CancelToken;
use crate::config::SynthConfig;
use crate::example::Example;
use crate::pool::{nlp_preds, node_filters};

/// FxHash (the rustc hash): fast, deterministic, non-cryptographic.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ u64::from(b)).wrapping_mul(FX_SEED);
        }
    }
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub(crate) type FxBuild = BuildHasherDefault<FxHasher>;

/// Per-string neural-module outcomes, precomputed once per node text so
/// every predicate in the pool evaluates against them without touching
/// the (mutex-guarded) context caches.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TextFeatures {
    kw: f64,
    has_answer: bool,
    entities: u8,
}

fn kind_bit(kind: EntityKind) -> u8 {
    match kind {
        EntityKind::Person => 1 << 0,
        EntityKind::Organization => 1 << 1,
        EntityKind::Date => 1 << 2,
        EntityKind::Time => 1 << 3,
        EntityKind::Location => 1 << 4,
        EntityKind::Money => 1 << 5,
    }
}

/// Computes the features of one string. `want_answer` mirrors
/// `QueryContext::has_answer`'s empty-question short-circuit. The
/// production path builds rows via [`PageFeatures::compute_over_base`]
/// (query layer over a [`PageBaseFeatures`] base); this definitional
/// one-shot form remains as the test oracle for feature↔pred agreement.
#[cfg(test)]
pub(crate) fn features_of(ctx: &QueryContext, text: &str, want_answer: bool) -> TextFeatures {
    let kw = ctx.keyword_score(text);
    let has_answer = want_answer && ctx.has_answer(text);
    let mut entities = 0u8;
    for e in ctx.entities(text) {
        entities |= kind_bit(e.kind);
    }
    TextFeatures {
        kw,
        has_answer,
        entities,
    }
}

/// `NlpPred::eval` against precomputed features — must agree with
/// `pred.eval(ctx, text)` for the features of `text` (tested in this
/// module and by the parity suite).
pub(crate) fn pred_holds(pred: &NlpPred, f: &TextFeatures) -> bool {
    match pred {
        NlpPred::MatchKeyword(t) => f.kw >= t.value(),
        NlpPred::HasAnswer => f.has_answer,
        NlpPred::HasEntity(kind) => f.entities & kind_bit(*kind) != 0,
        NlpPred::True => true,
        NlpPred::And(a, b) => pred_holds(a, f) && pred_holds(b, f),
        NlpPred::Or(a, b) => pred_holds(a, f) || pred_holds(b, f),
        NlpPred::Not(a) => !pred_holds(a, f),
    }
}

/// `NodeFilter::eval` against precomputed own/subtree features.
fn filter_holds(
    filter: &NodeFilter,
    own: &TextFeatures,
    subtree: &TextFeatures,
    is_leaf: bool,
    is_elem: bool,
) -> bool {
    match filter {
        NodeFilter::IsLeaf => is_leaf,
        NodeFilter::IsElem => is_elem,
        NodeFilter::MatchText { pred, subtree: s } => {
            pred_holds(pred, if *s { subtree } else { own })
        }
        NodeFilter::True => true,
        NodeFilter::And(a, b) => {
            filter_holds(a, own, subtree, is_leaf, is_elem)
                && filter_holds(b, own, subtree, is_leaf, is_elem)
        }
        NodeFilter::Or(a, b) => {
            filter_holds(a, own, subtree, is_leaf, is_elem)
                || filter_holds(b, own, subtree, is_leaf, is_elem)
        }
        NodeFilter::Not(a) => !filter_holds(a, own, subtree, is_leaf, is_elem),
    }
}

/// One shard of the task-level production-output cache: input string
/// content → the step's outputs.
type StepShard = Mutex<HashMap<Box<str>, Vec<OutStr>, FxBuild>>;

/// The per-page half of the task-level caches: one node's worth of
/// neural-module outcomes per tree node plus the `[filter][node]` mask
/// table over the synthesis pool — everything the search context needs
/// about a page that does not depend on the other examples of the task.
///
/// A table is a pure function of `(config, query context, page)`:
/// computing it once and reusing it across `synthesize` calls (what
/// `webqa::Engine`'s cross-request feature store does) is observationally
/// invisible — the search reads identical bytes either way. Tables are
/// *shape*-checked on use ([`PageFeatures::fits`]): a table whose node or
/// filter counts don't match falls back to a fresh computation. The
/// shape check cannot detect a table built for a *different page of the
/// same size* under the same config — callers are responsible for keying
/// stored tables by page content and query/config identity, as
/// `webqa::Engine`'s feature store does.
#[derive(Debug)]
pub struct PageFeatures {
    /// Per-node own-text features (guard classification reads these).
    pub(crate) own: Vec<TextFeatures>,
    /// `[filter][node]` masks over the node-filter pool.
    pub(crate) masks: Vec<Vec<bool>>,
}

impl PageFeatures {
    /// Computes the table for one page under one `(config, context)`
    /// pool. The pool is derived internally exactly as the search
    /// derives it, so a stored table can be handed back to any later
    /// `synthesize` call with the same config and context.
    pub fn compute(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
    ) -> PageFeatures {
        Self::compute_over(&node_filters(cfg, ctx), ctx, page)
    }

    /// [`PageFeatures::compute`] reusing a precomputed query-independent
    /// [`PageBaseFeatures`] table — only the keyword/answerability layer
    /// is recomputed; the NER entity bits and leaf/elem masks come from
    /// `base`. Byte-identical to [`PageFeatures::compute`] whenever
    /// `base` was computed for the same page under the same neural
    /// modules ([`PageBaseFeatures::compute`] documents that contract);
    /// a `base` whose node count doesn't match the page falls back to a
    /// fresh computation.
    pub fn compute_with_base(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
        base: &PageBaseFeatures,
    ) -> PageFeatures {
        Self::compute_over_base(&node_filters(cfg, ctx), ctx, page, base)
    }

    /// [`PageFeatures::compute`] against an already-built filter pool
    /// (the internal path — avoids re-deriving the pool per example).
    pub(crate) fn compute_over(
        filters: &[NodeFilter],
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
    ) -> PageFeatures {
        Self::compute_over_base(filters, ctx, page, &PageBaseFeatures::compute(ctx, page))
    }

    /// The shared lower half of `compute_over` / `compute_with_base`:
    /// layers the query-dependent features (keyword scores, QA
    /// answerability) over a query-independent base, then evaluates the
    /// filter pool against the combined per-node features.
    pub(crate) fn compute_over_base(
        filters: &[NodeFilter],
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
        base: &PageBaseFeatures,
    ) -> PageFeatures {
        if !base.fits(page.len()) {
            // A stale/foreign base table: recompute rather than risk
            // mismatched rows (mirrors the `fits` guard on full tables).
            let fresh = PageBaseFeatures::compute(ctx, page);
            return Self::compute_over_base(filters, ctx, page, &fresh);
        }
        let want_answer = !ctx.question().is_empty();
        let own: Vec<TextFeatures> = page
            .iter()
            .map(|n| {
                let text = page.text(n);
                TextFeatures {
                    kw: ctx.keyword_score(text),
                    has_answer: want_answer && ctx.has_answer(text),
                    entities: base.own_entities[n.index()],
                }
            })
            .collect();
        let sub: Vec<TextFeatures> = page
            .iter()
            .map(|n| {
                let text = page.subtree_text(n);
                TextFeatures {
                    kw: ctx.keyword_score(&text),
                    has_answer: want_answer && ctx.has_answer(&text),
                    entities: base.sub_entities[n.index()],
                }
            })
            .collect();
        let masks: Vec<Vec<bool>> = filters
            .iter()
            .map(|f| {
                page.iter()
                    .map(|n| {
                        filter_holds(
                            f,
                            &own[n.index()],
                            &sub[n.index()],
                            base.leaf[n.index()],
                            base.elem[n.index()],
                        )
                    })
                    .collect()
            })
            .collect();
        PageFeatures { own, masks }
    }

    /// Whether this table was built over a pool of `filters` filters and
    /// a page of `nodes` nodes — the shape check guarding reuse.
    pub fn fits(&self, filters: usize, nodes: usize) -> bool {
        self.own.len() == nodes
            && self.masks.len() == filters
            && self.masks.iter().all(|m| m.len() == nodes)
    }
}

/// The query-independent half of a page's feature table: NER entity
/// bits for every node's own and subtree text, plus the structural
/// leaf/elem masks. Everything here is a pure function of *page
/// content* under the pretrained neural modules — no question, keyword,
/// or synthesis-config input — which is what lets `webqa::Engine`'s
/// feature store share one base table across *different* questions over
/// the same page, and persist it to disk keyed by content digest alone.
///
/// Contract: [`PageBaseFeatures::compute`] reads only
/// [`QueryContext::entities`] (the NER module) and the page's structure.
/// A context built with custom models
/// (`QueryContext::with_models`) may recognize different entities;
/// callers caching base tables across contexts are responsible for only
/// doing so under the pretrained defaults (as `webqa::Engine` does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBaseFeatures {
    /// Per-node entity-kind bitmask of the node's own text.
    own_entities: Vec<u8>,
    /// Per-node entity-kind bitmask of the node's subtree text.
    sub_entities: Vec<u8>,
    /// Per-node `is_leaf`.
    leaf: Vec<bool>,
    /// Per-node `is_elem`.
    elem: Vec<bool>,
}

impl PageBaseFeatures {
    /// Computes the query-independent table for one page. Only the NER
    /// module of `ctx` is consulted (see the type docs for the
    /// pretrained-models contract).
    pub fn compute(ctx: &QueryContext, page: &webqa_dsl::PageTree) -> PageBaseFeatures {
        let entity_bits = |text: &str| {
            let mut bits = 0u8;
            for e in ctx.entities(text) {
                bits |= kind_bit(e.kind);
            }
            bits
        };
        PageBaseFeatures {
            own_entities: page.iter().map(|n| entity_bits(page.text(n))).collect(),
            sub_entities: page
                .iter()
                .map(|n| entity_bits(&page.subtree_text(n)))
                .collect(),
            leaf: page.iter().map(|n| page.is_leaf(n)).collect(),
            elem: page.iter().map(|n| page.is_elem(n)).collect(),
        }
    }

    /// Number of nodes this table covers.
    pub fn nodes(&self) -> usize {
        self.own_entities.len()
    }

    /// Whether this table was built over a page of `nodes` nodes.
    pub fn fits(&self, nodes: usize) -> bool {
        self.own_entities.len() == nodes
            && self.sub_entities.len() == nodes
            && self.leaf.len() == nodes
            && self.elem.len() == nodes
    }

    /// The raw per-node columns `(own_entities, sub_entities, leaf,
    /// elem)` — the serialization surface for `webqa`'s on-disk
    /// snapshot.
    pub fn parts(&self) -> (&[u8], &[u8], &[bool], &[bool]) {
        (
            &self.own_entities,
            &self.sub_entities,
            &self.leaf,
            &self.elem,
        )
    }

    /// Rebuilds a table from its [`parts`](PageBaseFeatures::parts)
    /// columns (the deserialization surface). `None` unless all four
    /// columns have equal length.
    pub fn from_parts(
        own_entities: Vec<u8>,
        sub_entities: Vec<u8>,
        leaf: Vec<bool>,
        elem: Vec<bool>,
    ) -> Option<PageBaseFeatures> {
        let n = own_entities.len();
        if sub_entities.len() != n || leaf.len() != n || elem.len() != n {
            return None;
        }
        Some(PageBaseFeatures {
            own_entities,
            sub_entities,
            leaf,
            elem,
        })
    }
}

/// One extractor production step, applied to parent outputs without
/// materializing the child AST (the AST is built only for candidates that
/// survive pruning and behavioral dedup).
#[derive(Debug, Clone)]
pub(crate) enum StepOp {
    /// `Filter(e, φ)`.
    Filter(NlpPred),
    /// `Substring(e, φ, k)`.
    Substring(NlpPred, usize),
    /// `Split(e, c)`.
    Split(char),
}

/// Page-independent facts the abstract interpreter
/// ([`webqa_dsl::analysis`]) derives about the synthesis pools, computed
/// once per task. Every fact is a theorem about the definitional
/// semantics under this task's `QueryContext`, so prunes keyed on them
/// are *sound*: they only skip candidates that provably cannot classify
/// or produce output. Crucially the facts depend only on `(cfg, ctx)` —
/// never on the kernel mode — so reference and optimized runs make
/// identical prune decisions (`tests/synth_parity.rs`).
pub(crate) struct AnalysisFacts {
    /// `SynthConfig::analysis` — when false, no fact is consulted.
    pub enabled: bool,
    /// Abstract truth of each guard predicate, aligned with
    /// [`TaskCtx::guard_preds`]. `False` entries can never hold on a
    /// positive example; `True` entries hold on every non-empty node set.
    pub guard_pred_truth: Vec<Truth>,
    /// Production steps proven to map *every* input string to `∅`
    /// (a `Filter` whose predicate is `⊥`, a `Substring` whose predicate
    /// extracts nothing), aligned with [`TaskCtx::steps`].
    pub step_dead: Vec<bool>,
    /// For each filter `fi` of [`TaskCtx::filters`], the earlier (weaker)
    /// filters `fj < fi` with `filters[fi] ⇒ filters[fj]`: whenever `fj`
    /// selects no nodes from a frontier, `fi` cannot either.
    pub filter_implied: Vec<Vec<usize>>,
}

impl AnalysisFacts {
    fn compute(
        cfg: &SynthConfig,
        ctx: &QueryContext,
        filters: &[NodeFilter],
        guard_preds: &[NlpPred],
        steps: &[StepOp],
    ) -> Self {
        let analyzer = Analyzer::new(ctx);
        AnalysisFacts {
            enabled: cfg.analysis,
            guard_pred_truth: guard_preds.iter().map(|p| analyzer.pred_truth(p)).collect(),
            step_dead: steps
                .iter()
                .map(|s| match s {
                    StepOp::Filter(p) => analyzer.pred_truth(p) == Truth::False,
                    StepOp::Substring(p, k) => *k == 0 || analyzer.pred_extract_empty(p),
                    StepOp::Split(_) => false,
                })
                .collect(),
            filter_implied: (0..filters.len())
                .map(|fi| {
                    (0..fi)
                        .filter(|&fj| analyzer.filter_implies(&filters[fi], &filters[fj]))
                        .collect()
                })
                .collect(),
        }
    }
}

/// Per-`synthesize`-call context: pools plus the optimized-mode caches.
pub(crate) struct TaskCtx<'a> {
    pub cfg: &'a SynthConfig,
    pub ctx: &'a QueryContext,
    pub examples: &'a [Example],
    /// The node-filter pool (`GetChildren`/`GetDescendants` filters).
    pub filters: Vec<NodeFilter>,
    /// The guard predicate pool, in `gen_guards` order: `⊤` first, then
    /// the NLP predicates.
    pub guard_preds: Vec<NlpPred>,
    /// The extractor production pool, in `extend_extractor` order.
    pub steps: Vec<StepOp>,
    /// Sound page-independent verdicts about the pools (see
    /// [`AnalysisFacts`]); consulted by the analysis prune when
    /// `cfg.analysis` is set.
    pub analysis: AnalysisFacts,
    /// Cooperative cancellation handle, checkpointed once per guard step
    /// by the branch synthesizer (shared by the branch-parallel workers).
    pub cancel: CancelToken,
    /// Optimized mode: one feature/mask table per example, either
    /// borrowed from the caller (the engine's cross-request store) or
    /// computed here. Empty in reference mode.
    tables: Vec<Arc<PageFeatures>>,
    /// Task-level production-step output cache, content-keyed and shared
    /// across branch problems (and branch-parallel workers, hence the
    /// mutexes). `Substring`'s span search is by far the most expensive
    /// string operation in the search and the same strings recur in every
    /// branch over the same pages, so its results are computed once per
    /// distinct (step, content) for the whole task. `Filter` entries stay
    /// `None`: their output aliases the *input* allocation and the
    /// context-cached predicate lookup is already cheap. All `None` in
    /// reference mode.
    step_results: Vec<Option<StepShard>>,
}

impl<'a> TaskCtx<'a> {
    /// The no-borrowed-tables, never-cancelled convenience of the tests.
    #[cfg(test)]
    pub fn new(cfg: &'a SynthConfig, ctx: &'a QueryContext, examples: &'a [Example]) -> Self {
        Self::with_features_cancel(cfg, ctx, examples, &[], CancelToken::never())
    }

    /// The task context over `examples`, with caller-supplied feature
    /// tables aligned with them (missing or shape-mismatched entries are
    /// computed fresh). Reused tables are observationally invisible: the
    /// table is a pure function of `(cfg, ctx, page)`, so the search
    /// reads the same bytes whether the table was borrowed or rebuilt.
    /// The branch synthesizer checkpoints `cancel` once per guard step; a
    /// never-token makes those checkpoints free-ish atomic increments.
    pub fn with_features_cancel(
        cfg: &'a SynthConfig,
        ctx: &'a QueryContext,
        examples: &'a [Example],
        features: &[Arc<PageFeatures>],
        cancel: CancelToken,
    ) -> Self {
        let filters = node_filters(cfg, ctx);
        let preds = nlp_preds(cfg, ctx);
        let mut guard_preds = vec![NlpPred::True];
        guard_preds.extend(preds.iter().cloned());
        let mut steps = Vec::new();
        for pred in &preds {
            steps.push(StepOp::Filter(pred.clone()));
            for &k in &cfg.substring_ks {
                steps.push(StepOp::Substring(pred.clone(), k));
            }
        }
        for &c in &cfg.delimiters {
            steps.push(StepOp::Split(c));
        }
        let step_results = steps
            .iter()
            .map(|s| {
                (!cfg.reference_kernels && !matches!(s, StepOp::Filter(_)))
                    .then(|| Mutex::new(HashMap::default()))
            })
            .collect();
        let analysis = AnalysisFacts::compute(cfg, ctx, &filters, &guard_preds, &steps);

        let tables = if cfg.reference_kernels {
            Vec::new()
        } else {
            examples
                .iter()
                .enumerate()
                .map(|(i, ex)| {
                    match features.get(i) {
                        Some(t) if t.fits(filters.len(), ex.page.len()) => Arc::clone(t),
                        // Absent or built under a different pool/page:
                        // compute fresh rather than read wrong masks.
                        _ => Arc::new(PageFeatures::compute_over(&filters, ctx, &ex.page)),
                    }
                })
                .collect()
        };
        TaskCtx {
            cfg,
            ctx,
            examples,
            filters,
            guard_preds,
            steps,
            analysis,
            cancel,
            tables,
            step_results,
        }
    }

    /// The precomputed mask of `filter` over `example`'s nodes
    /// (optimized mode only).
    pub fn mask(&self, example: usize, filter: usize) -> &[bool] {
        &self.tables[example].masks[filter]
    }

    /// The own-text features of `example`'s nodes (optimized mode only).
    pub fn feats(&self, example: usize) -> &[TextFeatures] {
        &self.tables[example].own
    }
}

/// Internal output representation of the extractor search: shared string
/// slices, so `Filter` steps and dedup clone a pointer, not the bytes.
/// Atomically counted so the task-level extraction cache can be shared
/// by the branch-parallel workers.
pub(crate) type OutStr = Arc<str>;

/// Everything the scorer knows about one distinct string allocation:
/// its interned token ids and its content hash. Keyed by the `Arc`
/// allocation address; the stored handle keeps the allocation alive so
/// the address can never be reused while the entry exists.
struct StrInfo {
    /// Never read — exists to pin the allocation so the address key
    /// stays valid for the scorer's lifetime.
    _keepalive: OutStr,
    ids: IdVec,
    content_hash: u64,
}

/// Per-branch scoring state: the positive examples with their gold bags
/// interned into one id space, plus pointer-keyed caches for string
/// token-ids, content hashes, and production-step outputs.
pub(crate) struct Scorer<'a> {
    reference: bool,
    /// The branch's positive examples (scoring targets), in order.
    pub pos: Vec<&'a Example>,
    interner: TokenInterner,
    gold: Vec<IdBag>,
    strings: HashMap<usize, StrInfo, FxBuild>,
    /// `(string allocation, step index)` → the step's outputs on that
    /// string. Production steps are pure string functions, so the result
    /// is computed once per distinct input allocation and the output
    /// `Rc`s are shared by every candidate that reaches it.
    step_cache: HashMap<(usize, u32), Vec<OutStr>, FxBuild>,
    overlap: BagOverlap,
}

fn addr(s: &OutStr) -> usize {
    Arc::as_ptr(s) as *const u8 as usize
}

fn fx_content_hash(s: &str) -> u64 {
    let mut h = FxHasher::default();
    s.hash(&mut h);
    h.finish()
}

impl<'a> Scorer<'a> {
    pub fn new(task: &TaskCtx<'a>, pos: &[usize]) -> Self {
        let pos: Vec<&Example> = pos.iter().map(|&i| &task.examples[i]).collect();
        let mut interner = TokenInterner::new();
        let gold = pos
            .iter()
            .map(|ex| {
                IdBag::from_ids(
                    ex.gold_tokens()
                        .iter()
                        .map(|t| interner.intern(t))
                        .collect(),
                )
            })
            .collect();
        Scorer {
            reference: task.cfg.reference_kernels,
            pos,
            interner,
            gold,
            strings: HashMap::default(),
            step_cache: HashMap::default(),
            overlap: BagOverlap::default(),
        }
    }

    /// Total gold tokens across the branch's positive examples. The
    /// emptiness prune is gated on this being positive: with no gold
    /// tokens an empty output scores a (vacuous) perfect F₁ and must stay
    /// enumerable.
    pub fn gold_total(&self) -> usize {
        self.gold.iter().map(webqa_metrics::IdBag::total).sum()
    }

    fn info<'m>(
        strings: &'m mut HashMap<usize, StrInfo, FxBuild>,
        interner: &mut TokenInterner,
        s: &OutStr,
    ) -> &'m StrInfo {
        strings.entry(addr(s)).or_insert_with(|| StrInfo {
            _keepalive: Arc::clone(s),
            ids: interner.tokenize_ids(s),
            content_hash: fx_content_hash(s),
        })
    }

    /// Micro-averaged counts of the raw per-example output multisets —
    /// the `UB` input of Eq. 3.
    pub fn counts_raw(&mut self, outputs: &[Vec<OutStr>]) -> Counts {
        if self.reference {
            return crate::example::counts_of_outputs_ref(&self.pos, outputs, false);
        }
        let mut total = Counts::default();
        for (i, strings) in outputs.iter().enumerate() {
            let gold = &self.gold[i];
            self.overlap.begin(gold);
            let mut matched = 0usize;
            let mut predicted = 0usize;
            for s in strings {
                let info = Self::info(&mut self.strings, &mut self.interner, s);
                predicted += info.ids.len();
                matched += info
                    .ids
                    .iter()
                    .filter(|&&id| self.overlap.consume(gold, id))
                    .count();
            }
            total += Counts {
                matched,
                predicted,
                gold: gold.total(),
            };
        }
        total
    }

    /// Micro-averaged counts under the program-level set semantics:
    /// per-example duplicate strings are counted once (Figure 6).
    pub fn counts_dedup(&mut self, outputs: &[Vec<OutStr>]) -> Counts {
        if self.reference {
            return crate::example::counts_of_outputs_ref(&self.pos, outputs, true);
        }
        let mut total = Counts::default();
        for (i, strings) in outputs.iter().enumerate() {
            // Order-preserving first-occurrence filter, content equality
            // (pointer equality as the fast path — shared `Rc`s make it
            // hit almost always). Inline buffer for the common small
            // case; spills only for outputs with many distinct strings.
            let mut inline: [&str; 16] = [""; 16];
            let mut inline_len = 0usize;
            let mut spill: Vec<&str> = Vec::new();
            let gold = &self.gold[i];
            self.overlap.begin(gold);
            let mut matched = 0usize;
            let mut predicted = 0usize;
            'strings: for s in strings {
                let str_ref: &str = s;
                for seen in inline[..inline_len].iter().chain(spill.iter()) {
                    if std::ptr::eq(*seen as *const str, str_ref as *const str) || *seen == str_ref
                    {
                        continue 'strings;
                    }
                }
                if inline_len < inline.len() {
                    inline[inline_len] = str_ref;
                    inline_len += 1;
                } else {
                    spill.push(str_ref);
                }
                let info = Self::info(&mut self.strings, &mut self.interner, s);
                predicted += info.ids.len();
                matched += info
                    .ids
                    .iter()
                    .filter(|&&id| self.overlap.consume(gold, id))
                    .count();
            }
            total += Counts {
                matched,
                predicted,
                gold: gold.total(),
            };
        }
        total
    }

    /// Applies production step `si` of the task's pool to the parent's
    /// outputs. In optimized mode the per-string results are memoized by
    /// input allocation — `Substring`'s span search and `Split`'s
    /// re-allocation happen once per distinct string, and their output
    /// `Rc`s are shared across all candidates. Reference mode computes
    /// every application definitionally.
    pub fn apply_step(
        &mut self,
        task: &TaskCtx,
        si: usize,
        parent_outputs: &[Vec<OutStr>],
    ) -> Vec<Vec<OutStr>> {
        let step = &task.steps[si];
        parent_outputs
            .iter()
            .map(|strings| {
                let mut out: Vec<OutStr> = Vec::with_capacity(strings.len());
                for s in strings {
                    if self.reference {
                        apply_step_one(task.ctx, step, s, &mut out);
                        continue;
                    }
                    match self.step_cache.get(&(addr(s), si as u32)) {
                        Some(cached) => out.extend(cached.iter().cloned()),
                        None => {
                            let one = match &task.step_results[si] {
                                // Expensive step: go through the
                                // task-level content-keyed cache shared
                                // by all branches.
                                Some(shared) => {
                                    let mut map = shared.lock().expect("step cache lock");
                                    match map.get(&**s) {
                                        Some(v) => v.clone(),
                                        None => {
                                            let mut v = Vec::new();
                                            apply_step_one(task.ctx, step, s, &mut v);
                                            map.insert(Box::from(&**s), v.clone());
                                            v
                                        }
                                    }
                                }
                                None => {
                                    let mut v = Vec::new();
                                    apply_step_one(task.ctx, step, s, &mut v);
                                    v
                                }
                            };
                            out.extend(one.iter().cloned());
                            // Retain the input `Arc` in the strings
                            // table so its address key stays valid for
                            // the scorer's lifetime.
                            Self::info(&mut self.strings, &mut self.interner, s);
                            self.step_cache.insert((addr(s), si as u32), one);
                        }
                    }
                }
                out
            })
            .collect()
    }

    /// Order-sensitive behavioral signature of per-example outputs. The
    /// optimized path combines per-string content hashes (cached per
    /// allocation) with [`FxHasher`]; the reference path hashes the whole
    /// nested structure with the standard library's SipHash, exactly as
    /// the pre-overhaul code did.
    pub fn signature(&mut self, outputs: &[Vec<OutStr>]) -> u64 {
        if self.reference {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            outputs.hash(&mut h);
            return h.finish();
        }
        let mut h = FxHasher::default();
        for strings in outputs {
            h.write_u64(strings.len() as u64);
            for s in strings {
                let info = Self::info(&mut self.strings, &mut self.interner, s);
                h.write_u64(info.content_hash);
            }
        }
        h.finish()
    }
}

/// One production step on one string, definitionally.
fn apply_step_one(ctx: &QueryContext, step: &StepOp, s: &OutStr, out: &mut Vec<OutStr>) {
    match step {
        StepOp::Filter(pred) => {
            if pred.eval(ctx, s) {
                out.push(Arc::clone(s));
            }
        }
        StepOp::Substring(pred, k) => {
            out.extend(pred.extract(ctx, s).into_iter().take(*k).map(Arc::from));
        }
        StepOp::Split(c) => {
            out.extend(
                s.split(*c)
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(Arc::from),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_dsl::{PageTree, Threshold};

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the students?", ["Students", "PhD"])
    }

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    #[test]
    fn features_agree_with_pred_eval() {
        let c = ctx();
        let texts = [
            "PhD Students",
            "Jane Doe",
            "reading group, hiking",
            "Robert Smith since 2019",
            "",
        ];
        let preds = [
            NlpPred::True,
            NlpPred::MatchKeyword(Threshold::new(0.5)),
            NlpPred::MatchKeyword(Threshold::new(0.95)),
            NlpPred::HasAnswer,
            NlpPred::HasEntity(EntityKind::Person),
            NlpPred::HasEntity(EntityKind::Date),
            NlpPred::Not(Box::new(NlpPred::HasEntity(EntityKind::Money))),
            NlpPred::And(
                Box::new(NlpPred::MatchKeyword(Threshold::new(0.5))),
                Box::new(NlpPred::True),
            ),
        ];
        for text in texts {
            let f = features_of(&c, text, !c.question().is_empty());
            for p in &preds {
                assert_eq!(
                    pred_holds(p, &f),
                    p.eval(&c, text),
                    "pred {p:?} on {text:?}"
                );
            }
        }
    }

    #[test]
    fn base_split_reproduces_the_full_table() {
        let cfg = SynthConfig::fast();
        let page = PageTree::parse(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>Contact</h2><p>a@x.edu</p>",
        );
        let assert_tables_equal = |a: &PageFeatures, b: &PageFeatures| {
            assert_eq!(a.masks, b.masks);
            assert_eq!(a.own.len(), b.own.len());
            for (x, y) in a.own.iter().zip(&b.own) {
                assert_eq!(x.kw, y.kw);
                assert_eq!(x.has_answer, y.has_answer);
                assert_eq!(x.entities, y.entities);
            }
        };

        let c = ctx();
        let base = PageBaseFeatures::compute(&c, &page);
        assert!(base.fits(page.len()));
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c, &page),
            &PageFeatures::compute_with_base(&cfg, &c, &page, &base),
        );

        // The same base serves a *different* question over the page —
        // the whole point of the query-independent split.
        let c2 = QueryContext::new("What is the contact email?", ["Contact"]);
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c2, &page),
            &PageFeatures::compute_with_base(&cfg, &c2, &page, &base),
        );

        // A base of the wrong shape falls back to a fresh computation
        // instead of producing mismatched rows.
        let stale = PageBaseFeatures::from_parts(vec![0], vec![0], vec![true], vec![true]).unwrap();
        assert!(!stale.fits(page.len()));
        assert_tables_equal(
            &PageFeatures::compute(&cfg, &c, &page),
            &PageFeatures::compute_with_base(&cfg, &c, &page, &stale),
        );

        // parts/from_parts round-trips; ragged columns are rejected.
        let (own, sub, leaf, elem) = base.parts();
        let rebuilt =
            PageBaseFeatures::from_parts(own.to_vec(), sub.to_vec(), leaf.to_vec(), elem.to_vec())
                .unwrap();
        assert_eq!(rebuilt, base);
        assert!(PageBaseFeatures::from_parts(vec![0], vec![], vec![], vec![]).is_none());
    }

    #[test]
    fn masks_agree_with_direct_filter_eval() {
        let c = ctx();
        let cfg = SynthConfig::fast();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>Contact</h2><p>a@x.edu</p>",
            &["Jane Doe", "Bob Smith"],
        )];
        let task = TaskCtx::new(&cfg, &c, &examples);
        for (fi, filter) in task.filters.iter().enumerate() {
            let mask = task.mask(0, fi);
            for n in examples[0].page.iter() {
                assert_eq!(
                    mask[n.index()],
                    filter.eval(&c, &examples[0].page, n),
                    "filter {filter} node {}",
                    n.index()
                );
            }
        }
    }

    #[test]
    fn scorer_counts_match_reference_counts() {
        let c = ctx();
        let cfg_fast = SynthConfig::fast();
        let cfg_ref = SynthConfig::fast().with_reference_kernels();
        let examples = vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                &["Jane Doe"],
            ),
            example(
                "<h1>B</h1><h2>PhD</h2><ul><li>Bob Smith</li></ul>",
                &["Bob Smith", "Jane Doe"],
            ),
        ];
        let task_fast = TaskCtx::new(&cfg_fast, &c, &examples);
        let task_ref = TaskCtx::new(&cfg_ref, &c, &examples);
        let outputs: Vec<Vec<OutStr>> = vec![
            vec![
                Arc::from("Jane Doe"),
                Arc::from("Jane Doe"),
                Arc::from("noise"),
            ],
            vec![Arc::from("Bob Smith"), Arc::from("")],
        ];
        let mut fast = Scorer::new(&task_fast, &[0, 1]);
        let mut slow = Scorer::new(&task_ref, &[0, 1]);
        assert_eq!(fast.counts_raw(&outputs), slow.counts_raw(&outputs));
        assert_eq!(fast.counts_dedup(&outputs), slow.counts_dedup(&outputs));
        // Dedup drops the duplicate "Jane Doe" but keeps distinct strings.
        let raw = fast.counts_raw(&outputs);
        let dedup = fast.counts_dedup(&outputs);
        assert_eq!(raw.predicted, dedup.predicted + 2);
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash("abc"), hash("abc"));
        assert_ne!(hash("abc"), hash("abd"));
    }
}
