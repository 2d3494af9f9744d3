//! Evaluation semantics of the WebQA DSL (Figures 5–6 of the paper).
//!
//! A program has type `Question × Keywords × Webpage → Set<String>`: the
//! question and keywords live in the [`QueryContext`], the webpage is a
//! [`PageTree`], and evaluation walks the branch list until a guard fires.
//!
//! There is one evaluator, [`PageMemo`]: it evaluates on one page under
//! one context and memoizes what evaluations share — sub-locator node
//! sets, locator-step filter verdicts and subtree texts — for as long as
//! it lives. `NodeFilter::eval`, `Locator::eval`, `Guard::eval` and
//! `Program::eval` run it with a fresh memo; transductive selection keeps
//! one memo per unlabeled page and shares it across every ensemble
//! member's guards.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use webqa_html::{PageNodeId, PageTree};

use crate::ast::{Extractor, Guard, Locator, NlpPred, NodeFilter, Program};
use crate::context::QueryContext;

/// Longest text (in words) scanned for keyword sub-spans inside
/// `Substring(e, matchKeyword…, k)`; beyond this the window enumeration
/// would dominate evaluation for no benefit.
const MAX_WINDOW_WORDS: usize = 40;

impl NlpPred {
    /// Boolean semantics: does the string `z` satisfy the predicate?
    pub fn eval(&self, ctx: &QueryContext, z: &str) -> bool {
        match self {
            NlpPred::MatchKeyword(t) => ctx.keyword_score(z) >= t.value(),
            NlpPred::HasAnswer => ctx.has_answer(z),
            NlpPred::HasEntity(kind) => ctx.has_entity(z, *kind),
            NlpPred::True => true,
            NlpPred::And(a, b) => a.eval(ctx, z) && b.eval(ctx, z),
            NlpPred::Or(a, b) => a.eval(ctx, z) || b.eval(ctx, z),
            NlpPred::Not(a) => !a.eval(ctx, z),
        }
    }

    /// Extraction semantics for `Substring(e, λz.φ, k)`: the substrings of
    /// `z` satisfying the predicate, in positional order.
    ///
    /// * `hasEntity(l)` yields the entity spans of kind `l`, in order;
    /// * `hasAnswer` yields the QA model's best span;
    /// * `matchKeyword(t)` yields the best-scoring non-overlapping word
    ///   windows whose similarity clears `t`;
    /// * `⊤` yields `z` itself; `∧` filters, `∨` unions (keeping spans
    ///   disjoint), `¬` yields nothing (negation does not define a span).
    ///
    /// The returned spans are always **pairwise disjoint** — this is what
    /// makes `Substring` recall-monotone at the token level (Theorem A.3):
    /// the output token bag is a sub-bag of the input's.
    pub fn extract(&self, ctx: &QueryContext, z: &str) -> Vec<String> {
        StringExtractor::new(ctx, z).extract(self)
    }
}

/// [`NlpPred::extract`] by several predicates over one string, sharing
/// the work they have in common: each word window's keyword similarity
/// is scored once, whatever `matchKeyword` thresholds select from it.
/// Every result equals `pred.extract(ctx, z)`.
pub struct StringExtractor<'a> {
    ctx: &'a QueryContext,
    z: &'a str,
    /// Every word window of `z` (by width, then start) with its keyword
    /// similarity, scored on the first `matchKeyword` extraction.
    windows: Option<Vec<(f64, usize, usize)>>,
}

impl<'a> StringExtractor<'a> {
    /// An extractor over `z` under `ctx`.
    pub fn new(ctx: &'a QueryContext, z: &'a str) -> Self {
        StringExtractor {
            ctx,
            z,
            windows: None,
        }
    }

    /// `pred.extract(ctx, z)`.
    pub fn extract(&mut self, pred: &NlpPred) -> Vec<String> {
        let z = self.z;
        self.spans(pred)
            .into_iter()
            .map(|(s, e)| z[s..e].trim().to_string())
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// Byte spans of [`NlpPred::extract`], pairwise disjoint and ordered by
    /// position.
    fn spans(&mut self, pred: &NlpPred) -> Vec<(usize, usize)> {
        let (ctx, z) = (self.ctx, self.z);
        match pred {
            NlpPred::HasEntity(kind) => ctx
                .entities(z)
                .into_iter()
                .filter(|e| e.kind == *kind)
                .map(|e| (e.start, e.end))
                .collect(),
            NlpPred::HasAnswer => ctx.answer_span(z).into_iter().collect(),
            NlpPred::MatchKeyword(t) => self.keyword_windows(t.value()),
            NlpPred::True => {
                if z.is_empty() {
                    vec![]
                } else {
                    vec![(0, z.len())]
                }
            }
            NlpPred::And(a, b) => self
                .spans(a)
                .into_iter()
                .filter(|&(s, e)| b.eval(ctx, &z[s..e]))
                .collect(),
            NlpPred::Or(a, b) => {
                let mut out = self.spans(a);
                for (s, e) in self.spans(b) {
                    if out.iter().all(|&(cs, ce)| e <= cs || s >= ce) {
                        out.push((s, e));
                    }
                }
                out.sort_unstable();
                out
            }
            NlpPred::Not(_) => vec![],
        }
    }

    /// Best-scoring non-overlapping word windows of `z` with keyword
    /// similarity ≥ `threshold`, ordered by position.
    fn keyword_windows(&mut self, threshold: f64) -> Vec<(usize, usize)> {
        let (ctx, z) = (self.ctx, self.z);
        let windows = self.windows.get_or_insert_with(|| {
            let words = webqa_nlp::text::words(z);
            let n = words.len().min(MAX_WINDOW_WORDS);
            let mut windows = Vec::new();
            for width in 1..=n.min(3) {
                for start in 0..=(n - width) {
                    let (s, e) = (words[start].start, words[start + width - 1].end);
                    windows.push((ctx.keyword_score(&z[s..e]), s, e));
                }
            }
            windows
        });
        let mut candidates: Vec<(f64, usize, usize)> = windows
            .iter()
            .copied()
            .filter(|&(score, _, _)| score >= threshold)
            .collect();
        // Greedy best-first selection of non-overlapping spans.
        candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut chosen: Vec<(usize, usize)> = Vec::new();
        for (_, s, e) in candidates {
            if chosen.iter().all(|&(cs, ce)| e <= cs || s >= ce) {
                chosen.push((s, e));
            }
        }
        chosen.sort_unstable();
        chosen
    }
}

impl NodeFilter {
    /// Does node `n` of `page` satisfy the filter? Evaluates with a fresh
    /// [`PageMemo`].
    pub fn eval(&self, ctx: &QueryContext, page: &PageTree, n: PageNodeId) -> bool {
        PageMemo::new(ctx, page).eval_filter(self, n)
    }
}

impl Locator {
    /// The nodes located by `ν` on `page`, in document order, no
    /// duplicates. Evaluates with a fresh [`PageMemo`].
    pub fn eval(&self, ctx: &QueryContext, page: &PageTree) -> Vec<PageNodeId> {
        PageMemo::new(ctx, page).eval_locator(self).to_vec()
    }
}

impl Guard {
    /// Evaluates the guard: returns whether it fires and the located
    /// section nodes that get bound to `x`. Evaluates with a fresh
    /// [`PageMemo`].
    pub fn eval(&self, ctx: &QueryContext, page: &PageTree) -> (bool, Vec<PageNodeId>) {
        let (ok, nodes) = PageMemo::new(ctx, page).eval_guard(self);
        (ok, nodes.to_vec())
    }
}

impl Extractor {
    /// Applies the extractor to the located nodes, producing the extracted
    /// strings in order (duplicates preserved; the program-level result is
    /// de-duplicated).
    pub fn eval(&self, ctx: &QueryContext, page: &PageTree, nodes: &[PageNodeId]) -> Vec<String> {
        match self {
            Extractor::Content => nodes
                .iter()
                .map(|&n| page.text(n).to_string())
                .filter(|s| !s.is_empty())
                .collect(),
            Extractor::Split(inner, delim) => inner
                .eval(ctx, page, nodes)
                .into_iter()
                .flat_map(|s| {
                    s.split(*delim)
                        .map(|p| p.trim().to_string())
                        .filter(|p| !p.is_empty())
                        .collect::<Vec<_>>()
                })
                .collect(),
            Extractor::Filter(inner, pred) => inner
                .eval(ctx, page, nodes)
                .into_iter()
                .filter(|s| pred.eval(ctx, s))
                .collect(),
            Extractor::Substring(inner, pred, k) => inner
                .eval(ctx, page, nodes)
                .into_iter()
                .flat_map(|s| {
                    pred.extract(ctx, &s)
                        .into_iter()
                        .take(*k)
                        .collect::<Vec<_>>()
                })
                .collect(),
        }
    }
}

impl Program {
    /// Runs the program on a page: the first branch whose guard fires
    /// produces the output; if no guard fires the result is `∅`.
    /// Evaluates with a fresh [`PageMemo`].
    pub fn eval(&self, ctx: &QueryContext, page: &PageTree) -> Vec<String> {
        PageMemo::new(ctx, page).eval_program(self)
    }
}

/// The evaluator of node filters, locators, guards and programs on one
/// page under one query context, with a memo of the work they share.
///
/// Evaluation is pure for a fixed `(QueryContext, page)`, so whatever
/// one evaluation computes, a later one can reuse:
///
/// * each distinct (sub-)locator's node set is computed once, so guards
///   whose locators share an inner `descendants(root, text(kw(..)))`
///   walk the tree for it once;
/// * each `(NodeFilter, node)` verdict of a locator step is computed
///   once, whichever locator takes the step;
/// * each node's subtree text (for `matchText(…, subtree)`) is built
///   once.
///
/// The memo borrows its page and context, so it cannot outlive them —
/// node ids mean nothing on another page.
#[derive(Debug)]
pub struct PageMemo<'a> {
    ctx: &'a QueryContext,
    page: &'a PageTree,
    /// Node set of each locator evaluated so far.
    locators: HashMap<Locator, Rc<[PageNodeId]>>,
    /// Dense ids of the filters of the locator steps taken so far.
    filter_ids: HashMap<NodeFilter, usize>,
    /// `verdicts[f][n]`: filter `f` on node `n`, once computed.
    verdicts: Vec<Vec<Option<bool>>>,
    /// Subtree text of each node built so far.
    subtree_texts: HashMap<PageNodeId, String>,
}

impl<'a> PageMemo<'a> {
    /// An empty memo for `page` under `ctx`.
    pub fn new(ctx: &'a QueryContext, page: &'a PageTree) -> Self {
        PageMemo {
            ctx,
            page,
            locators: HashMap::new(),
            filter_ids: HashMap::new(),
            verdicts: Vec::new(),
            subtree_texts: HashMap::new(),
        }
    }

    /// Number of distinct locators (sub-locators included) whose node
    /// sets are memoized.
    pub fn memoized_locators(&self) -> usize {
        self.locators.len()
    }

    /// Does node `n` satisfy `filter`?
    fn eval_filter(&mut self, filter: &NodeFilter, n: PageNodeId) -> bool {
        let (ctx, page) = (self.ctx, self.page);
        match filter {
            NodeFilter::IsLeaf => page.is_leaf(n),
            NodeFilter::IsElem => page.is_elem(n),
            NodeFilter::MatchText {
                pred,
                subtree: true,
            } => {
                let text = self
                    .subtree_texts
                    .entry(n)
                    .or_insert_with(|| page.subtree_text(n));
                pred.eval(ctx, text)
            }
            NodeFilter::MatchText {
                pred,
                subtree: false,
            } => pred.eval(ctx, page.text(n)),
            NodeFilter::True => true,
            NodeFilter::And(a, b) => self.eval_filter(a, n) && self.eval_filter(b, n),
            NodeFilter::Or(a, b) => self.eval_filter(a, n) || self.eval_filter(b, n),
            NodeFilter::Not(a) => !self.eval_filter(a, n),
        }
    }

    /// The nodes located by `locator`, in document order, no duplicates.
    fn eval_locator(&mut self, locator: &Locator) -> Rc<[PageNodeId]> {
        if let Some(nodes) = self.locators.get(locator) {
            return Rc::clone(nodes);
        }
        let page = self.page;
        let nodes: Rc<[PageNodeId]> = match locator {
            Locator::Root => Rc::new([page.root()]),
            Locator::Children(inner, filter) | Locator::Descendants(inner, filter) => {
                let base = self.eval_locator(inner);
                let f = self.filter_id(filter);
                let mut out = Vec::new();
                for &n in base.iter() {
                    let candidates = match locator {
                        Locator::Children(..) => page.children(n).to_vec(),
                        _ => page.descendants(n),
                    };
                    for c in candidates {
                        if self.step_verdict(f, filter, c) {
                            out.push(c);
                        }
                    }
                }
                out.sort_unstable();
                out.dedup();
                out.into()
            }
        };
        self.locators.insert(locator.clone(), Rc::clone(&nodes));
        nodes
    }

    /// Evaluates `guard`: whether it fires and the located section nodes
    /// that get bound to `x`.
    pub fn eval_guard(&mut self, guard: &Guard) -> (bool, Rc<[PageNodeId]>) {
        match guard {
            Guard::Sat(locator, pred) => {
                let nodes = self.eval_locator(locator);
                let ok = nodes
                    .iter()
                    .any(|&n| pred.eval(self.ctx, self.page.text(n)));
                (ok, nodes)
            }
            Guard::IsSingleton(locator) => {
                let nodes = self.eval_locator(locator);
                (nodes.len() == 1, nodes)
            }
        }
    }

    /// Runs `program`: the first branch whose guard fires produces the
    /// output; if no guard fires the result is `∅`.
    pub fn eval_program(&mut self, program: &Program) -> Vec<String> {
        for branch in &program.branches {
            let (ok, nodes) = self.eval_guard(&branch.guard);
            if ok {
                let mut out = self.eval_extractor(&branch.extractor, &nodes);
                // Set semantics (Figure 6: p returns Set<String>).
                let mut seen = HashSet::new();
                out.retain(|s| seen.insert(s.clone()));
                return out;
            }
        }
        Vec::new()
    }

    /// Applies `extractor` to the located `nodes` (see [`Extractor::eval`]).
    pub fn eval_extractor(&self, extractor: &Extractor, nodes: &[PageNodeId]) -> Vec<String> {
        extractor.eval(self.ctx, self.page, nodes)
    }

    /// The dense id of a locator step's filter.
    fn filter_id(&mut self, filter: &NodeFilter) -> usize {
        if let Some(&f) = self.filter_ids.get(filter) {
            return f;
        }
        let f = self.verdicts.len();
        self.filter_ids.insert(filter.clone(), f);
        self.verdicts.push(vec![None; self.page.len()]);
        f
    }

    /// `filter` (whose id is `f`) on node `n`, computed once.
    fn step_verdict(&mut self, f: usize, filter: &NodeFilter, n: PageNodeId) -> bool {
        if let Some(v) = self.verdicts[f][n.index()] {
            return v;
        }
        let v = self.eval_filter(filter, n);
        self.verdicts[f][n.index()] = Some(v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{Branch, Threshold};
    use webqa_nlp::EntityKind;

    const PAGE: &str = r#"
<h1>Jane Doe</h1>
<h2>Recent Publications</h2>
<p>Synthesizing programs from examples. Jane Doe. PLDI 2018.</p>
<h2>Students</h2>
<b>PhD students</b>
<ul><li>Robert Smith</li><li>Mary Anderson</li></ul>
<h2>Activities</h2>
<b>Professional Services</b>
<ul><li>Current: PLDI '21 (PC)</li><li>Past: CAV '20 (PC), PLDI '20 (SRC), POPL '20 (PC)</li></ul>
"#;

    fn page() -> PageTree {
        PageTree::parse(PAGE)
    }

    fn ctx_service() -> QueryContext {
        QueryContext::new(
            "Which program committees has this researcher served on?",
            ["PC", "Program Committee", "Service"],
        )
    }

    fn kw(t: f64) -> NlpPred {
        NlpPred::MatchKeyword(Threshold::new(t))
    }

    /// Eq. 1 of the paper: locate leaves under keyword-matching sections.
    fn eq1_locator() -> Locator {
        Locator::leaves(Locator::Descendants(
            Box::new(Locator::Root),
            NodeFilter::MatchText {
                pred: kw(0.85),
                subtree: false,
            },
        ))
    }

    #[test]
    fn motivating_example_locator() {
        let ctx = ctx_service();
        let p = page();
        let nodes = eq1_locator().eval(&ctx, &p);
        let texts: Vec<&str> = nodes.iter().map(|&n| p.text(n)).collect();
        assert_eq!(
            texts,
            [
                "Current: PLDI '21 (PC)",
                "Past: CAV '20 (PC), PLDI '20 (SRC), POPL '20 (PC)"
            ]
        );
    }

    #[test]
    fn motivating_example_full_program() {
        // Eq. 1 + Eq. 2 with Filter(matchKeyword) over comma-split parts.
        let ctx = ctx_service();
        let p = page();
        let guard = Guard::Sat(eq1_locator(), NlpPred::True);
        let extractor = Extractor::Filter(
            Box::new(Extractor::Split(Box::new(Extractor::Content), ',')),
            kw(0.5),
        );
        let prog = Program::single(guard, extractor);
        let out = prog.eval(&ctx, &p);
        // All five service entries contain "(PC)" or "(SRC)" and match the
        // keyword set; the publications section is untouched.
        assert!(out.iter().any(|s| s.contains("PLDI '21")), "out = {out:?}");
        assert!(out.iter().all(|s| !s.contains("Synthesizing")));
    }

    #[test]
    fn guard_fallthrough_to_second_branch() {
        let ctx = ctx_service();
        let p = page();
        // First guard never fires (no Money entities on the page).
        let dead = Guard::Sat(
            Locator::leaves(Locator::Root),
            NlpPred::HasEntity(EntityKind::Money),
        );
        let live = Guard::Sat(Locator::Root, NlpPred::True);
        let prog = Program::new(vec![
            Branch::new(dead, Extractor::Content),
            Branch::new(live, Extractor::Content),
        ]);
        assert_eq!(prog.eval(&ctx, &p), vec!["Jane Doe".to_string()]);
    }

    #[test]
    fn no_guard_fires_yields_empty() {
        let ctx = ctx_service();
        let p = page();
        let dead = Guard::Sat(Locator::Root, NlpPred::HasEntity(EntityKind::Money));
        let prog = Program::single(dead, Extractor::Content);
        assert!(prog.eval(&ctx, &p).is_empty());
    }

    #[test]
    fn is_singleton_guard() {
        let ctx = ctx_service();
        let p = page();
        let (ok, nodes) = Guard::IsSingleton(Locator::Root).eval(&ctx, &p);
        assert!(ok);
        assert_eq!(nodes.len(), 1);
        let (ok, _) = Guard::IsSingleton(Locator::leaves(Locator::Root)).eval(&ctx, &p);
        assert!(!ok);
    }

    #[test]
    fn children_vs_descendants() {
        let ctx = ctx_service();
        let p = page();
        let kids = Locator::Children(Box::new(Locator::Root), NodeFilter::True).eval(&ctx, &p);
        let descs = Locator::Descendants(Box::new(Locator::Root), NodeFilter::True).eval(&ctx, &p);
        assert!(kids.len() < descs.len());
        assert_eq!(descs.len(), p.len() - 1);
    }

    #[test]
    fn split_trims_and_drops_empty() {
        let ctx = ctx_service();
        let p = PageTree::parse("<h1>R</h1><p>a, b,, c ,</p>");
        let nodes = Locator::leaves(Locator::Root).eval(&ctx, &p);
        let out = Extractor::Split(Box::new(Extractor::Content), ',').eval(&ctx, &p, &nodes);
        assert_eq!(out, ["a", "b", "c"]);
    }

    #[test]
    fn substring_entity_extraction() {
        let ctx = ctx_service();
        let p =
            PageTree::parse("<h1>R</h1><p>Advised by Jane Doe and Robert Smith since 2019.</p>");
        let nodes = Locator::leaves(Locator::Root).eval(&ctx, &p);
        let top1 = Extractor::entity(Extractor::Content, EntityKind::Person).eval(&ctx, &p, &nodes);
        assert_eq!(top1, ["Jane Doe"]);
        let top2 = Extractor::Substring(
            Box::new(Extractor::Content),
            NlpPred::HasEntity(EntityKind::Person),
            2,
        )
        .eval(&ctx, &p, &nodes);
        assert_eq!(top2, ["Jane Doe", "Robert Smith"]);
    }

    #[test]
    fn filter_keeps_only_matching() {
        let ctx = ctx_service();
        let p = PageTree::parse("<h1>R</h1><ul><li>PLDI '20 (PC)</li><li>reading group</li></ul>");
        let nodes = Locator::leaves(Locator::Root).eval(&ctx, &p);
        let out = Extractor::Filter(Box::new(Extractor::Content), kw(0.6)).eval(&ctx, &p, &nodes);
        assert_eq!(out, ["PLDI '20 (PC)"]);
    }

    #[test]
    fn program_output_is_a_set() {
        let ctx = ctx_service();
        let p = PageTree::parse("<h1>R</h1><ul><li>dup</li><li>dup</li></ul>");
        let prog = Program::single(
            Guard::Sat(Locator::leaves(Locator::Root), NlpPred::True),
            Extractor::Content,
        );
        assert_eq!(prog.eval(&ctx, &p), ["dup"]);
    }

    #[test]
    fn boolean_connectives() {
        let ctx = ctx_service();
        assert!(NlpPred::True.eval(&ctx, "x"));
        assert!(!NlpPred::Not(Box::new(NlpPred::True)).eval(&ctx, "x"));
        let and = NlpPred::And(Box::new(NlpPred::True), Box::new(kw(0.99)));
        assert!(!and.eval(&ctx, "unrelated text entirely"));
        let or = NlpPred::Or(Box::new(kw(0.99)), Box::new(NlpPred::True));
        assert!(or.eval(&ctx, "unrelated text entirely"));
    }

    #[test]
    fn node_filter_connectives() {
        let ctx = ctx_service();
        let p = page();
        let root = p.root();
        assert!(NodeFilter::True.eval(&ctx, &p, root));
        assert!(!NodeFilter::Not(Box::new(NodeFilter::True)).eval(&ctx, &p, root));
        assert!(!NodeFilter::IsLeaf.eval(&ctx, &p, root));
        let f = NodeFilter::Or(Box::new(NodeFilter::IsLeaf), Box::new(NodeFilter::True));
        assert!(f.eval(&ctx, &p, root));
    }

    #[test]
    fn match_text_subtree_flag() {
        let ctx = QueryContext::new("", ["PLDI"]);
        let p = page();
        // The "Recent Publications" section node itself doesn't contain
        // "PLDI", but its subtree does.
        let pubs = p
            .iter()
            .find(|&n| p.text(n) == "Recent Publications")
            .expect("section exists");
        let own = NodeFilter::MatchText {
            pred: kw(0.99),
            subtree: false,
        };
        let sub = NodeFilter::MatchText {
            pred: kw(0.99),
            subtree: true,
        };
        assert!(!own.eval(&ctx, &p, pubs));
        assert!(sub.eval(&ctx, &p, pubs));
    }

    #[test]
    fn keyword_window_extraction() {
        let ctx = QueryContext::new("", ["committee"]);
        let spans = NlpPred::MatchKeyword(Threshold::new(0.9))
            .extract(&ctx, "the program committee met yesterday");
        assert!(
            spans.iter().any(|s| s.contains("committee")),
            "spans = {spans:?}"
        );
    }

    /// One [`StringExtractor`] serving many predicates in turn gives
    /// each the extraction a fresh one gives, and its keyword windows are
    /// those of scoring and selecting at each threshold separately.
    #[test]
    fn a_shared_string_extractor_equals_fresh_extractions() {
        let ctx = ctx_service();
        let texts = [
            "Service: PLDI '21 Program Committee (PC), CAV '20 PC member",
            "Program Committee chair Jane Doe, March 3, 2021",
            "reading group, hiking club",
            "",
        ];
        let preds = [
            kw(0.95),
            kw(0.5),
            kw(0.8),
            kw(0.5),
            kw(0.05),
            NlpPred::HasEntity(EntityKind::Person),
            NlpPred::HasEntity(EntityKind::Date),
            NlpPred::HasAnswer,
            NlpPred::True,
            NlpPred::And(
                Box::new(kw(0.5)),
                Box::new(NlpPred::HasEntity(EntityKind::Person)),
            ),
            NlpPred::Or(
                Box::new(kw(0.9)),
                Box::new(NlpPred::HasEntity(EntityKind::Date)),
            ),
            NlpPred::Not(Box::new(kw(0.5))),
        ];
        // Keyword windows as scored and selected at one threshold.
        let windows_at = |z: &str, t: f64| -> Vec<String> {
            let words = webqa_nlp::text::words(z);
            let n = words.len().min(MAX_WINDOW_WORDS);
            let mut candidates = Vec::new();
            for width in 1..=n.min(3) {
                for start in 0..=(n - width) {
                    let (s, e) = (words[start].start, words[start + width - 1].end);
                    let score = ctx.keyword_score(&z[s..e]);
                    if score >= t {
                        candidates.push((score, s, e));
                    }
                }
            }
            candidates.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
            let mut chosen: Vec<(usize, usize)> = Vec::new();
            for (_, s, e) in candidates {
                if chosen.iter().all(|&(cs, ce)| e <= cs || s >= ce) {
                    chosen.push((s, e));
                }
            }
            chosen.sort_unstable();
            chosen
                .iter()
                .map(|&(s, e)| z[s..e].trim().to_string())
                .collect()
        };
        let mut keyword_spans = 0;
        for z in texts {
            let mut shared = StringExtractor::new(&ctx, z);
            for pred in &preds {
                let got = shared.extract(pred);
                assert_eq!(got, pred.extract(&ctx, z), "{pred:?} on {z:?}");
                if let NlpPred::MatchKeyword(t) = pred {
                    assert_eq!(got, windows_at(z, t.value()), "{pred:?} on {z:?}");
                    keyword_spans += got.len();
                }
            }
        }
        assert!(keyword_spans > 0);
    }

    #[test]
    fn extract_true_and_empty() {
        let ctx = ctx_service();
        assert_eq!(NlpPred::True.extract(&ctx, "abc"), ["abc"]);
        assert!(NlpPred::True.extract(&ctx, "").is_empty());
        assert!(NlpPred::Not(Box::new(NlpPred::True))
            .extract(&ctx, "abc")
            .is_empty());
    }
}
