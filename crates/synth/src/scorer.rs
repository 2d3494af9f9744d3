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
//! Four layers:
//!
//! * [`TaskCtx`] — one per [`crate::synthesize`] call: the filter /
//!   predicate / production pools, plus (optimized mode only) per-node
//!   [`TextFeatures`] and the `[example][filter][node]` mask table every
//!   guard enumeration reads instead of re-evaluating `NodeFilter`s.
//! * [`StringTable`] — one per task, shared by its branch problems:
//!   every string the extractor search sees gets a dense `u32` id, equal
//!   content meaning an equal id. For the optimized kernels the table
//!   also keeps each string's token ids, the output ids of every
//!   (production step, string) pair in one flat arena, and the `Content`
//!   seed id of every (example, node) — each computed once per task,
//!   however many branches reach it.
//! * [`Scorer`] — one per branch problem: the positive examples' gold
//!   bags interned into the table's token space, so scoring a candidate
//!   is a multiset-overlap run over integer ids indexed by string id.
//! * [`FxHasher`] — a fast non-cryptographic hasher for the search's
//!   behaviour keys. Those are id sequences the program builds; the
//!   table's content map keys on page text, so it keeps the standard
//!   library's seeded hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use webqa_dsl::{
    Analyzer, EntityKind, Extractor, NlpPred, NodeFilter, PageNodeId, QueryContext, Truth,
};
use webqa_metrics::{BagOverlap, Counts, IdBag, TokenInterner};

use crate::cancel::CancelToken;
use crate::config::SynthConfig;
use crate::example::{counts_of_outputs_ref, Example};
use crate::pool::{nlp_preds, node_filters};

/// FxHash (the rustc hash): fast, deterministic, non-cryptographic.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.add(u64::from_le_bytes(buf));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
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
/// production path builds rows via [`PageFeatures::compute_with_base`]
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

/// The per-page half of the task-level caches: one node's worth of
/// neural-module outcomes per tree node plus the `[filter][node]` mask
/// table over the synthesis pool — everything the search context needs
/// about a page that does not depend on the other examples of the task.
///
/// A table is a pure function of `(config, query context, page)`:
/// computing it once and reusing it across `synthesize` calls (what
/// `webqa::Engine`'s cross-request query tier does) is observationally
/// invisible — the search reads identical bytes either way. Callers that
/// store tables key them by page content and query under one fixed
/// config, as the engine's query tier does.
#[derive(Debug)]
pub struct PageFeatures {
    /// Per-node own-text features (guard classification reads these).
    pub(crate) own: Vec<TextFeatures>,
    /// `[filter][node]` masks over the node-filter pool.
    pub(crate) masks: Vec<Vec<bool>>,
}

impl PageFeatures {
    /// Computes the table for one page under one `(config, context)`
    /// pool, derived exactly as the search derives it.
    #[cfg(test)]
    pub(crate) fn compute(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
    ) -> PageFeatures {
        Self::compute_with_base(cfg, ctx, page, &PageBaseFeatures::compute(ctx, page))
    }

    /// The page's table under one `(config, context)` pool, reusing a
    /// precomputed query-independent [`PageBaseFeatures`] table — only the
    /// keyword/answerability layer is recomputed; the NER entity bits and
    /// leaf/elem masks come from `base`. Byte-identical to a fresh
    /// computation whenever `base` was computed for the same page under
    /// the same neural modules ([`PageBaseFeatures::compute`] documents
    /// that contract).
    ///
    /// # Panics
    ///
    /// If `base` does not cover exactly the page's nodes.
    pub fn compute_with_base(
        cfg: &crate::config::SynthConfig,
        ctx: &QueryContext,
        page: &webqa_dsl::PageTree,
        base: &PageBaseFeatures,
    ) -> PageFeatures {
        assert_eq!(base.nodes(), page.len(), "base table is for another page");
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
        let masks: Vec<Vec<bool>> = node_filters(cfg, ctx)
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
}

/// The query-independent half of a page's feature table: NER entity
/// bits for every node's own and subtree text, plus the structural
/// leaf/elem masks. Everything here is a pure function of *page
/// content* under the pretrained neural modules — no question, keyword,
/// or synthesis-config input — which is what lets `webqa::Engine`'s
/// base tier share one base table across *different* questions over
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
    /// by the branch synthesizer.
    pub cancel: CancelToken,
    /// Optimized mode: one feature/mask table per example, either
    /// borrowed from the caller (the engine's query and base tiers) or
    /// all computed here. Empty in reference mode.
    tables: Vec<Arc<PageFeatures>>,
}

impl<'a> TaskCtx<'a> {
    /// The no-borrowed-tables, never-cancelled convenience of the tests.
    #[cfg(test)]
    pub fn new(cfg: &'a SynthConfig, ctx: &'a QueryContext, examples: &'a [Example]) -> Self {
        Self::with_features_cancel(cfg, ctx, examples, &[], CancelToken::never())
    }

    /// The task context over `examples`, with caller-supplied feature
    /// tables aligned with them, or `&[]` to compute every table here.
    /// Borrowed tables are observationally invisible: a table is a pure
    /// function of `(cfg, ctx, page)`. The branch synthesizer checkpoints
    /// `cancel` once per guard step; a never-token makes those
    /// checkpoints free-ish atomic increments.
    pub(crate) fn with_features_cancel(
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
        let analysis = AnalysisFacts::compute(cfg, ctx, &filters, &guard_preds, &steps);

        assert!(
            features.is_empty() || features.len() == examples.len(),
            "{} feature tables for {} examples",
            features.len(),
            examples.len()
        );
        let tables = if cfg.reference_kernels {
            Vec::new()
        } else if features.is_empty() {
            examples
                .iter()
                .map(|ex| {
                    let base = PageBaseFeatures::compute(ctx, &ex.page);
                    Arc::new(PageFeatures::compute_with_base(cfg, ctx, &ex.page, &base))
                })
                .collect()
        } else {
            features.to_vec()
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
        }
    }

    /// The precomputed mask of `filter` over `example`'s nodes
    /// (optimized mode only).
    pub(crate) fn mask(&self, example: usize, filter: usize) -> &[bool] {
        &self.tables[example].masks[filter]
    }

    /// The own-text features of `example`'s nodes (optimized mode only).
    pub(crate) fn feats(&self, example: usize) -> &[TextFeatures] {
        &self.tables[example].own
    }
}

/// A not-yet-computed slot in the [`StringTable`]'s dense columns.
const NONE: u32 = u32::MAX;

/// A `Content` seed slot whose node text is empty (the extractor drops
/// empty strings, so the node contributes no output).
const EMPTY: u32 = u32::MAX - 1;

/// A table length or offset as a `u32` id.
fn id_of(n: usize) -> u32 {
    u32::try_from(n)
        .ok()
        .filter(|&id| id < EMPTY)
        .expect("string table exceeds the u32 id space")
}

/// The string table of one task's extractor searches: every string the
/// search sees, under a dense `u32` id. Equal content always means an
/// equal id, so the search compares, deduplicates, and keys candidate
/// behaviours on ids alone.
///
/// The table also memoizes, once per task, every string function the
/// optimized search applies: the token ids of each string (in one
/// [`TokenInterner`], which each [`Scorer`] also interns its gold bags
/// into), the output ids of each (production step, string) pair in one
/// flat arena, and the `Content` seed id of each (example, node). The
/// reference kernels read only content ↔ id: every score and step output
/// is recomputed definitionally from the text.
///
/// The task's synthesis owns the table and passes it down by `&mut`.
pub(crate) struct StringTable {
    /// Content → id.
    ids: HashMap<Rc<str>, u32>,
    /// Id → content (the same allocation as the `ids` key).
    text: Vec<Rc<str>>,
    interner: TokenInterner,
    /// `tokens[token_start[s]..token_start[s + 1]]` are string `s`'s
    /// token ids.
    token_start: Vec<u32>,
    tokens: Vec<u32>,
    /// Size of the task's production pool: the width of a step row.
    steps: usize,
    /// Per string: its row in `slots`, or `NONE` until a production step
    /// is first applied to it.
    row_of: Vec<u32>,
    /// `steps` slots per row; slot `(start, len)` spans the step's
    /// output ids in `outputs`, `start == NONE` until computed.
    slots: Vec<(u32, u32)>,
    outputs: Vec<u32>,
    /// `[task example][node]` → the node's `Content` seed id, `EMPTY`
    /// for empty text, `NONE` until first asked for. A row is allocated
    /// on the example's first use.
    seeds: Vec<Vec<u32>>,
    /// Per string: the dedup epoch it was last counted in.
    stamp: Vec<u32>,
    epoch: u32,
}

impl StringTable {
    /// An empty table for `task`'s pools and examples.
    pub(crate) fn new(task: &TaskCtx) -> Self {
        StringTable {
            ids: HashMap::default(),
            text: Vec::new(),
            interner: TokenInterner::new(),
            token_start: vec![0],
            tokens: Vec::new(),
            steps: task.steps.len(),
            row_of: Vec::new(),
            slots: Vec::new(),
            outputs: Vec::new(),
            seeds: vec![Vec::new(); task.examples.len()],
            stamp: Vec::new(),
            epoch: 0,
        }
    }

    /// The id of `s`, assigned (and tokenized) on first sight.
    pub(crate) fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = id_of(self.text.len());
        let rc: Rc<str> = Rc::from(s);
        self.text.push(Rc::clone(&rc));
        self.ids.insert(rc, id);
        self.interner.tokenize_ids(s, &mut self.tokens);
        self.token_start.push(id_of(self.tokens.len()));
        self.row_of.push(NONE);
        self.stamp.push(0);
        id
    }

    /// The content of string `id`.
    pub(crate) fn text(&self, id: u32) -> &str {
        &self.text[id as usize]
    }

    /// String `id`'s token ids.
    fn tokens(&self, id: u32) -> &[u32] {
        let s = id as usize;
        &self.tokens[self.token_start[s] as usize..self.token_start[s + 1] as usize]
    }

    /// The `Content` seed id of `node` on task example `ex`, `None` when
    /// its text is empty (optimized mode).
    fn seed(&mut self, examples: &[Example], ex: usize, node: PageNodeId) -> Option<u32> {
        let page = &examples[ex].page;
        if self.seeds[ex].is_empty() {
            self.seeds[ex] = vec![NONE; page.len()];
        }
        let mut id = self.seeds[ex][node.index()];
        if id == NONE {
            let text = page.text(node);
            id = if text.is_empty() {
                EMPTY
            } else {
                self.intern(text)
            };
            self.seeds[ex][node.index()] = id;
        }
        (id != EMPTY).then_some(id)
    }

    /// The output ids of production step `si` on string `s`, computed on
    /// the pair's first use (optimized mode).
    fn step_outputs(&mut self, ctx: &QueryContext, step: &StepOp, si: usize, s: u32) -> &[u32] {
        let mut row = self.row_of[s as usize];
        if row == NONE {
            row = id_of(self.slots.len() / self.steps);
            self.slots.resize(self.slots.len() + self.steps, (NONE, 0));
            self.row_of[s as usize] = row;
        }
        let slot = row as usize * self.steps + si;
        if self.slots[slot].0 == NONE {
            let text = Rc::clone(&self.text[s as usize]);
            let start = id_of(self.outputs.len());
            apply_step_one(ctx, step, &text, |piece| {
                let id = self.intern(piece);
                self.outputs.push(id);
            });
            self.slots[slot] = (start, id_of(self.outputs.len()) - start);
        }
        let (start, len) = self.slots[slot];
        &self.outputs[start as usize..(start + len) as usize]
    }

    /// A fresh dedup epoch: no string is marked as seen in it.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.stamp.fill(0);
            self.epoch = 0;
        }
        self.epoch += 1;
        self.epoch
    }
}

/// The exact behaviour key of per-example outputs: each example's output
/// count followed by its ids. Two candidates share a key iff their
/// outputs are equal string for string on every example.
pub(crate) fn behaviour_key(outputs: &[Vec<u32>]) -> Box<[u32]> {
    let mut key = Vec::with_capacity(outputs.len() + outputs.iter().map(Vec::len).sum::<usize>());
    for ids in outputs {
        key.push(id_of(ids.len()));
        key.extend_from_slice(ids);
    }
    key.into_boxed_slice()
}

/// Per-branch scoring state: the positive examples with their gold bags
/// interned into the task's [`StringTable`], which the scorer borrows
/// for the branch.
pub(crate) struct Scorer<'s> {
    task: &'s TaskCtx<'s>,
    /// The branch's positive examples (scoring targets), as task example
    /// indices, in order.
    pos: Vec<usize>,
    /// Gold bag per positive example, in the table's token space.
    gold: Vec<IdBag>,
    table: &'s mut StringTable,
    overlap: BagOverlap,
}

impl<'s> Scorer<'s> {
    pub(crate) fn new(task: &'s TaskCtx<'s>, table: &'s mut StringTable, pos: &[usize]) -> Self {
        let gold = pos
            .iter()
            .map(|&i| {
                IdBag::from_ids(
                    task.examples[i]
                        .gold_tokens()
                        .iter()
                        .map(|t| table.interner.intern(t))
                        .collect(),
                )
            })
            .collect();
        Scorer {
            task,
            pos: pos.to_vec(),
            gold,
            table,
            overlap: BagOverlap::default(),
        }
    }

    /// Number of positive examples.
    pub(crate) fn len(&self) -> usize {
        self.pos.len()
    }

    /// Total gold tokens across the branch's positive examples. The
    /// emptiness prune is gated on this being positive: with no gold
    /// tokens an empty output scores a (vacuous) perfect F₁ and must stay
    /// enumerable.
    pub(crate) fn gold_total(&self) -> usize {
        self.gold.iter().map(IdBag::total).sum()
    }

    /// The outputs of `ExtractContent(x)` on each positive example's
    /// located `nodes`: the search's seed candidate.
    pub(crate) fn seed_outputs(&mut self, nodes: &[Vec<PageNodeId>]) -> Vec<Vec<u32>> {
        let task = self.task;
        self.pos
            .iter()
            .zip(nodes)
            .map(|(&ex, ns)| {
                if task.cfg.reference_kernels {
                    Extractor::Content
                        .eval(task.ctx, &task.examples[ex].page, ns)
                        .iter()
                        .map(|s| self.table.intern(s))
                        .collect()
                } else {
                    ns.iter()
                        .filter_map(|&n| self.table.seed(task.examples, ex, n))
                        .collect()
                }
            })
            .collect()
    }

    /// Micro-averaged counts of the raw per-example output multisets —
    /// the `UB` input of Eq. 3.
    pub(crate) fn counts_raw(&mut self, outputs: &[Vec<u32>]) -> Counts {
        self.counts(outputs, false)
    }

    /// Micro-averaged counts under the program-level set semantics:
    /// per-example duplicate strings are counted once (Figure 6).
    pub(crate) fn counts_dedup(&mut self, outputs: &[Vec<u32>]) -> Counts {
        self.counts(outputs, true)
    }

    fn counts(&mut self, outputs: &[Vec<u32>], dedup: bool) -> Counts {
        if self.task.cfg.reference_kernels {
            let texts: Vec<Vec<&str>> = outputs
                .iter()
                .map(|ids| ids.iter().map(|&s| self.table.text(s)).collect())
                .collect();
            let examples = self.pos.iter().map(|&i| &self.task.examples[i]);
            return counts_of_outputs_ref(examples, &texts, dedup);
        }
        let mut total = Counts::default();
        for (gold, ids) in self.gold.iter().zip(outputs) {
            // Set semantics: a string counts at its first occurrence
            // only. Equal content is an equal id, so one stamp per id
            // marks it as seen for this example.
            let epoch = if dedup { self.table.next_epoch() } else { 0 };
            self.overlap.begin(gold);
            let mut matched = 0usize;
            let mut predicted = 0usize;
            for &s in ids {
                if dedup {
                    let stamp = &mut self.table.stamp[s as usize];
                    if *stamp == epoch {
                        continue;
                    }
                    *stamp = epoch;
                }
                let tokens = self.table.tokens(s);
                predicted += tokens.len();
                matched += tokens
                    .iter()
                    .filter(|&&t| self.overlap.consume(gold, t))
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
    /// outputs. In optimized mode each (step, string) result comes from
    /// the table, computed once per task; reference mode applies the
    /// step definitionally to every string.
    pub(crate) fn apply_step(&mut self, si: usize, parent_outputs: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let task = self.task;
        let step = &task.steps[si];
        parent_outputs
            .iter()
            .map(|ids| {
                let mut out: Vec<u32> = Vec::with_capacity(ids.len());
                for &s in ids {
                    if task.cfg.reference_kernels {
                        let text = Rc::clone(&self.table.text[s as usize]);
                        apply_step_one(task.ctx, step, &text, |piece| {
                            out.push(self.table.intern(piece));
                        });
                    } else {
                        out.extend_from_slice(self.table.step_outputs(task.ctx, step, si, s));
                    }
                }
                out
            })
            .collect()
    }
}

/// One production step on one string, definitionally: `emit` receives
/// each output string in order.
fn apply_step_one(ctx: &QueryContext, step: &StepOp, s: &str, mut emit: impl FnMut(&str)) {
    match step {
        StepOp::Filter(pred) => {
            if pred.eval(ctx, s) {
                emit(s);
            }
        }
        StepOp::Substring(pred, k) => {
            for piece in pred.extract(ctx, s).iter().take(*k) {
                emit(piece);
            }
        }
        StepOp::Split(c) => {
            for piece in s.split(*c).map(str::trim).filter(|p| !p.is_empty()) {
                emit(piece);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

        // parts/from_parts round-trips; ragged columns are rejected.
        let (own, sub, leaf, elem) = base.parts();
        let rebuilt =
            PageBaseFeatures::from_parts(own.to_vec(), sub.to_vec(), leaf.to_vec(), elem.to_vec())
                .unwrap();
        assert_eq!(rebuilt, base);
        assert!(PageBaseFeatures::from_parts(vec![0], vec![], vec![], vec![]).is_none());
    }

    #[test]
    #[should_panic(expected = "base table is for another page")]
    fn a_base_table_of_another_page_is_refused() {
        let page = PageTree::parse("<h2>Students</h2><ul><li>Jane Doe</li></ul>");
        let stale = PageBaseFeatures::from_parts(vec![0], vec![0], vec![true], vec![true]).unwrap();
        PageFeatures::compute_with_base(&SynthConfig::fast(), &ctx(), &page, &stale);
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

    /// Interns per-example string lists into `table`.
    fn ids_of(table: &mut StringTable, outputs: &[Vec<&str>]) -> Vec<Vec<u32>> {
        outputs
            .iter()
            .map(|strings| strings.iter().map(|s| table.intern(s)).collect())
            .collect()
    }

    /// The texts of per-example id lists.
    fn texts_of(table: &StringTable, outputs: &[Vec<u32>]) -> Vec<Vec<String>> {
        outputs
            .iter()
            .map(|ids| ids.iter().map(|&s| table.text(s).to_string()).collect())
            .collect()
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
        let strings = vec![vec!["Jane Doe", "Jane Doe", "noise"], vec!["Bob Smith", ""]];
        let mut fast_table = StringTable::new(&task_fast);
        let mut ref_table = StringTable::new(&task_ref);
        let fast_ids = ids_of(&mut fast_table, &strings);
        let ref_ids = ids_of(&mut ref_table, &strings);
        let mut fast = Scorer::new(&task_fast, &mut fast_table, &[0, 1]);
        let mut slow = Scorer::new(&task_ref, &mut ref_table, &[0, 1]);
        assert_eq!(fast.counts_raw(&fast_ids), slow.counts_raw(&ref_ids));
        assert_eq!(fast.counts_dedup(&fast_ids), slow.counts_dedup(&ref_ids));
        // Dedup drops the duplicate "Jane Doe" but keeps distinct strings.
        let raw = fast.counts_raw(&fast_ids);
        let dedup = fast.counts_dedup(&fast_ids);
        assert_eq!(raw.predicted, dedup.predicted + 2);
    }

    /// Output strings for the id-kernel property: duplicates (drawn with
    /// replacement), the empty string, non-ASCII text, and strings that
    /// production steps reach again from other strings ("Jane Doe" is a
    /// `Split(',')` piece of the first entry and an entry of its own).
    const POOL: [&str; 10] = [
        "Jane Doe, Bob Smith",
        "Jane Doe",
        "Bob Smith; PLDI 2020",
        "",
        "Zoë Saldaña",
        "Ωmega ΣΊΣΥΦΟΣ, Zoë Saldaña",
        "北京大学: 2019",
        "Students since 2019",
        "noise",
        "Dr. Mary Anderson (PhD), March 3, 2021",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The id kernels are the definitional scoring and step
        /// semantics: on random per-example output lists, raw and dedup
        /// counts equal `counts_of_outputs_ref` and every production
        /// step's output ids spell out `apply_step_one`'s strings —
        /// including on the step outputs themselves, which meet the
        /// pool's strings again under the same ids.
        #[test]
        fn id_kernels_match_definitional_scoring(
            a in proptest::collection::vec(0usize..POOL.len(), 0..8),
            b in proptest::collection::vec(0usize..POOL.len(), 0..8)
        ) {
            let c = ctx();
            let cfg = SynthConfig::fast();
            let examples = vec![
                example("<p>Jane Doe</p>", &["Jane Doe", "Zoë Saldaña"]),
                example("<p>Bob Smith</p>", &["Bob Smith", "北京大学", "2019"]),
            ];
            let task = TaskCtx::new(&cfg, &c, &examples);
            let strings: Vec<Vec<&str>> =
                [a, b].iter().map(|ix| ix.iter().map(|&i| POOL[i]).collect()).collect();
            let mut table = StringTable::new(&task);
            let outputs = ids_of(&mut table, &strings);
            let mut scorer = Scorer::new(&task, &mut table, &[0, 1]);
            let mut lists = vec![outputs];
            for si in 0..task.steps.len() {
                lists.push(scorer.apply_step(si, &lists[0]));
            }
            for (si, ids) in lists.iter().enumerate() {
                let texts = texts_of(scorer.table, ids);
                prop_assert_eq!(
                    scorer.counts_raw(ids),
                    counts_of_outputs_ref(&examples, &texts, false)
                );
                prop_assert_eq!(
                    scorer.counts_dedup(ids),
                    counts_of_outputs_ref(&examples, &texts, true)
                );
                if si > 0 {
                    let expected: Vec<Vec<String>> = strings
                        .iter()
                        .map(|parent| {
                            let mut out = Vec::new();
                            for s in parent {
                                apply_step_one(&c, &task.steps[si - 1], s, |p| {
                                    out.push(p.to_string());
                                });
                            }
                            out
                        })
                        .collect();
                    prop_assert_eq!(&texts, &expected);
                }
            }
            // Equal content is an equal id, however the string was reached.
            for id in 0..id_of(scorer.table.text.len()) {
                let text = scorer.table.text(id).to_owned();
                prop_assert_eq!(scorer.table.intern(&text), id);
            }
        }
    }

    #[test]
    fn fx_hasher_is_deterministic() {
        use std::hash::Hash;
        let hash = |s: &str| {
            let mut h = FxHasher::default();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash("abc"), hash("abc"));
        assert_ne!(hash("abc"), hash("abd"));
    }
}
