//! Abstract interpretation of WebQA programs.
//!
//! The evaluator ([`crate::ast::Program::eval`]) answers "what does this
//! program return on *this* page"; the analyzer answers what can be known
//! about a program on **every** page, given only the query-context facts
//! that are independent of page content (whether keywords exist, whether
//! a question was asked). Three verdict families come out:
//!
//! * **Output emptiness** — an extractor or a whole branch provably
//!   returns `∅` for every page under the context
//!   (`Analyzer::extractor_empty`, [`AnalysisReport::always_empty`]):
//!   `matchKeyword` with no keywords, a `Substring` over a negation, a
//!   `Filter` under a predicate that is `⊥`.
//! * **Guard subsumption** — branch *i*'s guard semantically implies an
//!   earlier branch *j*'s guard (`Analyzer::guard_implies`), so branch
//!   *i* can never fire. The implication is decided over a lattice of
//!   [`NlpPred`] / [`NodeFilter`] / [`Locator`] relations
//!   (`Analyzer::pred_implies`, [`Analyzer::filter_implies`],
//!   `Analyzer::locator_subset`), not by byte equality.
//! * **Equivalence up to normalization** — [`Analyzer::canonical_key`]
//!   extends [`crate::normalize`] with the analysis-proven rewrites
//!   (drop `⊥`-guard branches, drop subsumed branches, truncate after a
//!   `⊤` guard, print provably-empty extractors as `∅`), producing a
//!   dedup key: programs with equal keys evaluate identically on every
//!   page under the context.
//!
//! # Soundness
//!
//! Every verdict is *conservative*: the analyzer may answer
//! [`Truth::Unknown`] (or `false` for the boolean judgements) whenever it
//! cannot prove a fact, but a definite answer is a theorem about the
//! definitional semantics. `tests/analysis_soundness.rs` holds the
//! analyzer to that contract with a property test: any verdict
//! contradicted by [`crate::ast::Program::eval`] on a random page is a
//! bug in the analyzer, never an accepted imprecision.
//!
//! The two-semantics subtlety documented in [`crate::normalize`] applies
//! here too: boolean laws are used only for `eval` positions, and span
//! extraction ([`NlpPred::extract`]) gets its own emptiness judgement
//! ([`Analyzer::pred_extract_empty`]) in which `¬φ` *is* provably empty
//! while `⊤` is not.

use std::fmt;

use crate::ast::{Extractor, Guard, Locator, NlpPred, NodeFilter, Program};
use crate::context::QueryContext;
use crate::normalize;

/// Three-valued (Kleene) truth of a predicate over *all* inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Truth {
    /// Holds for every input string / page.
    True,
    /// Holds for no input string / page.
    False,
    /// Not decided by the abstraction.
    Unknown,
}

impl Truth {
    fn not(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    fn and(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::False, _) | (_, Truth::False) => Truth::False,
            (Truth::True, Truth::True) => Truth::True,
            _ => Truth::Unknown,
        }
    }

    fn or(self, other: Truth) -> Truth {
        match (self, other) {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        }
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Truth::True => write!(f, "always true"),
            Truth::False => write!(f, "always false"),
            Truth::Unknown => write!(f, "unknown"),
        }
    }
}

/// Abstract cardinality of a locator's node set on an arbitrary page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LocatorCard {
    /// Exactly one node on every page (only `GetRoot`).
    ExactlyOne,
    /// No nodes on any page.
    Empty,
    /// Anything from zero to many.
    Unknown,
}

/// The abstract interpreter: the page-independent facts of one
/// [`QueryContext`], from which all verdicts are derived.
///
/// Cheap to construct and `Copy` — the synthesizer builds one per task.
#[derive(Debug, Clone, Copy)]
pub struct Analyzer {
    has_keywords: bool,
    has_question: bool,
}

impl Analyzer {
    /// Captures the context facts the abstraction reads:
    /// `keyword_score ≡ 0` when there are no keywords, and
    /// `hasAnswer ≡ ⊥` when there is no question.
    pub fn new(ctx: &QueryContext) -> Self {
        Analyzer {
            has_keywords: !ctx.keywords().is_empty(),
            has_question: !ctx.question().is_empty(),
        }
    }

    /// Truth of `p.eval(ctx, z)` over all strings `z`.
    pub fn pred_truth(&self, p: &NlpPred) -> Truth {
        match p {
            NlpPred::MatchKeyword(t) => {
                let zero_threshold = t.value() == 0.0;
                if !self.has_keywords {
                    // keyword_score is identically 0.0 without keywords.
                    if zero_threshold {
                        Truth::True
                    } else {
                        Truth::False
                    }
                } else if zero_threshold {
                    // Scores live in [0, 1], so `score ≥ 0` always holds.
                    Truth::True
                } else {
                    Truth::Unknown
                }
            }
            NlpPred::HasAnswer => {
                if self.has_question {
                    Truth::Unknown
                } else {
                    Truth::False
                }
            }
            NlpPred::HasEntity(_) => Truth::Unknown,
            NlpPred::True => Truth::True,
            NlpPred::And(a, b) => self.pred_truth(a).and(self.pred_truth(b)),
            NlpPred::Or(a, b) => self.pred_truth(a).or(self.pred_truth(b)),
            NlpPred::Not(a) => self.pred_truth(a).not(),
        }
    }

    /// Whether `p.extract(ctx, z)` is provably empty for every string
    /// `z` — the *span* semantics used by `Substring`, which differs
    /// from boolean truth (`¬φ` extracts nothing even when `¬φ` holds).
    pub fn pred_extract_empty(&self, p: &NlpPred) -> bool {
        match p {
            // Windows only qualify with score ≥ t; without keywords every
            // score is 0, so a positive threshold admits none.
            NlpPred::MatchKeyword(t) => !self.has_keywords && t.value() > 0.0,
            NlpPred::HasAnswer => !self.has_question,
            NlpPred::HasEntity(_) | NlpPred::True => false,
            // `And` extracts a's spans filtered by b's boolean truth.
            NlpPred::And(a, b) => self.pred_extract_empty(a) || self.pred_truth(b) == Truth::False,
            NlpPred::Or(a, b) => self.pred_extract_empty(a) && self.pred_extract_empty(b),
            NlpPred::Not(_) => true,
        }
    }

    /// Truth of `f.eval(ctx, page, n)` over all pages and nodes.
    pub(crate) fn filter_truth(&self, f: &NodeFilter) -> Truth {
        match f {
            NodeFilter::IsLeaf | NodeFilter::IsElem => Truth::Unknown,
            NodeFilter::MatchText { pred, .. } => self.pred_truth(pred),
            NodeFilter::True => Truth::True,
            NodeFilter::And(a, b) => self.filter_truth(a).and(self.filter_truth(b)),
            NodeFilter::Or(a, b) => self.filter_truth(a).or(self.filter_truth(b)),
            NodeFilter::Not(a) => self.filter_truth(a).not(),
        }
    }

    /// Abstract cardinality of `l.eval(ctx, page)` over all pages.
    pub(crate) fn locator_card(&self, l: &Locator) -> LocatorCard {
        match l {
            Locator::Root => LocatorCard::ExactlyOne,
            Locator::Children(inner, f) | Locator::Descendants(inner, f) => {
                if self.locator_card(inner) == LocatorCard::Empty
                    || self.filter_truth(f) == Truth::False
                {
                    LocatorCard::Empty
                } else {
                    LocatorCard::Unknown
                }
            }
        }
    }

    /// Truth of `g.eval(ctx, page)` over all pages.
    pub(crate) fn guard_truth(&self, g: &Guard) -> Truth {
        match g {
            Guard::Sat(l, p) => {
                let card = self.locator_card(l);
                let pred = self.pred_truth(p);
                if card == LocatorCard::Empty || pred == Truth::False {
                    // `∃ node. p(node)` over no nodes, or an unsatisfiable
                    // predicate, is false.
                    Truth::False
                } else if card == LocatorCard::ExactlyOne && pred == Truth::True {
                    Truth::True
                } else {
                    Truth::Unknown
                }
            }
            Guard::IsSingleton(l) => match self.locator_card(l) {
                LocatorCard::ExactlyOne => Truth::True,
                LocatorCard::Empty => Truth::False,
                LocatorCard::Unknown => Truth::Unknown,
            },
        }
    }

    /// Whether `e.eval(ctx, page, nodes)` is provably `∅` for every page
    /// and node set.
    pub(crate) fn extractor_empty(&self, e: &Extractor) -> bool {
        match e {
            Extractor::Content => false,
            Extractor::Substring(inner, p, k) => {
                self.extractor_empty(inner) || self.pred_extract_empty(p) || *k == 0
            }
            Extractor::Filter(inner, p) => {
                self.extractor_empty(inner) || self.pred_truth(p) == Truth::False
            }
            Extractor::Split(inner, _) => self.extractor_empty(inner),
        }
    }

    /// Pointwise implication of boolean predicate semantics:
    /// `∀z. p(z) ⇒ q(z)`. Conservative — `false` means "not proved".
    pub(crate) fn pred_implies(&self, p: &NlpPred, q: &NlpPred) -> bool {
        if p == q || self.pred_truth(q) == Truth::True || self.pred_truth(p) == Truth::False {
            return true;
        }
        // Structural rules on either side, tried in turn.
        if let NlpPred::And(a, b) = p {
            if self.pred_implies(a, q) || self.pred_implies(b, q) {
                return true;
            }
        }
        if let NlpPred::Or(a, b) = p {
            if self.pred_implies(a, q) && self.pred_implies(b, q) {
                return true;
            }
        }
        match (p, q) {
            // A higher similarity bar is the stronger predicate.
            (NlpPred::MatchKeyword(t1), NlpPred::MatchKeyword(t2)) => t1 >= t2,
            (_, NlpPred::And(a, b)) => self.pred_implies(p, a) && self.pred_implies(p, b),
            (_, NlpPred::Or(a, b)) => self.pred_implies(p, a) || self.pred_implies(p, b),
            (NlpPred::Not(a), NlpPred::Not(b)) => self.pred_implies(b, a),
            _ => false,
        }
    }

    /// Pointwise implication of node filters:
    /// `∀page, n. f(n) ⇒ g(n)`.
    pub fn filter_implies(&self, f: &NodeFilter, g: &NodeFilter) -> bool {
        if f == g || self.filter_truth(g) == Truth::True || self.filter_truth(f) == Truth::False {
            return true;
        }
        if let NodeFilter::And(a, b) = f {
            if self.filter_implies(a, g) || self.filter_implies(b, g) {
                return true;
            }
        }
        if let NodeFilter::Or(a, b) = f {
            if self.filter_implies(a, g) && self.filter_implies(b, g) {
                return true;
            }
        }
        match (f, g) {
            (
                NodeFilter::MatchText {
                    pred: p1,
                    subtree: s1,
                },
                NodeFilter::MatchText {
                    pred: p2,
                    subtree: s2,
                },
            ) => s1 == s2 && self.pred_implies(p1, p2),
            (_, NodeFilter::And(a, b)) => self.filter_implies(f, a) && self.filter_implies(f, b),
            (_, NodeFilter::Or(a, b)) => self.filter_implies(f, a) || self.filter_implies(f, b),
            (NodeFilter::Not(a), NodeFilter::Not(b)) => self.filter_implies(b, a),
            _ => false,
        }
    }

    /// Whether `a`'s node set is a subset of `b`'s on every page.
    pub(crate) fn locator_subset(&self, a: &Locator, b: &Locator) -> bool {
        if a == b || self.locator_card(a) == LocatorCard::Empty {
            return true;
        }
        match (a, b) {
            (Locator::Children(la, fa), Locator::Children(lb, fb)) => {
                self.locator_subset(la, lb) && self.filter_implies(fa, fb)
            }
            (Locator::Descendants(la, fa), Locator::Descendants(lb, fb)) => {
                // Descendants of a subset are a subset of descendants.
                if self.locator_subset(la, lb) && self.filter_implies(fa, fb) {
                    return true;
                }
                // Any non-root locator selects only strict descendants of
                // the root, whatever its spine.
                matches!(**lb, Locator::Root) && self.filter_implies(fa, fb)
            }
            (Locator::Children(la, fa), Locator::Descendants(lb, fb)) => {
                // children(S) ⊆ descendants(S).
                if self.locator_subset(la, lb) && self.filter_implies(fa, fb) {
                    return true;
                }
                matches!(**lb, Locator::Root) && self.filter_implies(fa, fb)
            }
            _ => false,
        }
    }

    /// Whether guard `a` implies guard `b` on every page — the engine of
    /// semantic dead-branch detection: in `{…, b → e, …, a → e', …}` the
    /// later branch can never fire.
    pub(crate) fn guard_implies(&self, a: &Guard, b: &Guard) -> bool {
        if a == b || self.guard_truth(b) == Truth::True {
            return true;
        }
        match (a, b) {
            (Guard::Sat(l1, p1), Guard::Sat(l2, p2)) => {
                // The witness node of a is in b's (super)set and satisfies
                // the weaker predicate.
                self.locator_subset(l1, l2) && self.pred_implies(p1, p2)
            }
            (Guard::IsSingleton(l1), Guard::Sat(l2, p2)) => {
                // The singleton node lies in l2 and p2 always holds.
                self.locator_subset(l1, l2) && self.pred_truth(p2) == Truth::True
            }
            _ => false,
        }
    }

    /// Runs all verdict families over a program; see [`AnalysisReport`].
    pub fn analyze(&self, program: &Program) -> AnalysisReport {
        let branches: Vec<BranchAnalysis> = program
            .branches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let earlier = &program.branches[..i];
                // Byte-identical guards first (they read best in reports),
                // then the semantic implication scan.
                let subsumed_by = earlier.iter().position(|e| e.guard == b.guard).or_else(|| {
                    earlier
                        .iter()
                        .position(|e| self.guard_implies(&b.guard, &e.guard))
                });
                BranchAnalysis {
                    guard: self.guard_truth(&b.guard),
                    subsumed_by,
                    extractor_empty: self.extractor_empty(&b.extractor),
                }
            })
            .collect();
        let always_empty = branches
            .iter()
            .all(|b| b.guard == Truth::False || b.extractor_empty);
        AnalysisReport {
            branches,
            always_empty,
            canonical_key: self.canonical_key(program),
        }
    }

    /// [`crate::normalize`] extended with the analysis-proven rewrites:
    /// drops branches whose guard is provably false, drops branches whose
    /// guard implies an earlier kept guard (they can never fire), and
    /// stops after a provably-true guard (later branches are dead).
    ///
    /// The result evaluates identically to the input on every page under
    /// the context (held by the soundness harness).
    pub fn canonicalize(&self, program: &Program) -> Program {
        let normalized = normalize::normalize(program);
        let mut kept: Vec<crate::ast::Branch> = Vec::new();
        for b in normalized.branches {
            if self.guard_truth(&b.guard) == Truth::False {
                continue;
            }
            if kept.iter().any(|k| self.guard_implies(&b.guard, &k.guard)) {
                continue;
            }
            kept.push(b);
        }
        Program::new(kept)
    }

    /// The program-dedup key: the canonical form rendered with
    /// provably-empty extractors printed as `∅`. Equal keys ⇒ equal
    /// outputs on every page under the context. The empty extractors are
    /// masked only in the *key*, never rewritten in the AST — a firing
    /// branch with an empty extractor still shadows later branches, so
    /// removing it would change the semantics.
    pub fn canonical_key(&self, program: &Program) -> String {
        let canonical = self.canonicalize(program);
        let parts: Vec<String> = canonical
            .branches
            .iter()
            .map(|b| {
                if self.extractor_empty(&b.extractor) {
                    format!("{} -> ∅", b.guard)
                } else {
                    format!("{} -> {}", b.guard, b.extractor)
                }
            })
            .collect();
        parts.join("; ")
    }
}

/// Per-branch verdicts of [`Analyzer::analyze`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchAnalysis {
    /// Abstract truth of the branch's guard over all pages.
    pub guard: Truth,
    /// `Some(j)`: the guard implies branch `j`'s guard (`j` earlier), so
    /// this branch can never fire. Byte-identical guards take precedence
    /// in the choice of `j`.
    pub subsumed_by: Option<usize>,
    /// The branch's extractor provably returns no strings.
    pub extractor_empty: bool,
}

/// All analyzer verdicts for one program under one context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisReport {
    /// Per-branch verdicts, in branch order.
    pub branches: Vec<BranchAnalysis>,
    /// The whole program provably returns `∅` on every page.
    pub always_empty: bool,
    /// The dedup key (see [`Analyzer::canonical_key`]).
    pub canonical_key: String,
}

impl AnalysisReport {
    /// True when no problem verdict fired: no guard is provably false,
    /// no branch is subsumed, and no extractor is provably empty. A
    /// provably-*true* guard is not a problem by itself (a final
    /// `sat(root, true)` catch-all is idiomatic); branches it shadows
    /// are reported through `subsumed_by`.
    #[cfg(test)]
    fn is_clean(&self) -> bool {
        !self.always_empty
            && self
                .branches
                .iter()
                .all(|b| b.guard != Truth::False && b.subsumed_by.is_none() && !b.extractor_empty)
    }

    /// The verdict lines, one string per definite finding.
    pub fn verdicts(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (i, b) in self.branches.iter().enumerate() {
            if b.guard == Truth::False {
                out.push(format!("branch {i}: guard is provably false"));
            }
            if let Some(j) = b.subsumed_by {
                out.push(format!(
                    "branch {i}: guard is subsumed by branch {j}'s guard"
                ));
            }
            if b.extractor_empty {
                out.push(format!("branch {i}: extractor provably returns no strings"));
            }
        }
        if self.always_empty {
            out.push("program provably returns the empty set on every page".to_string());
        }
        out
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdicts = self.verdicts();
        if verdicts.is_empty() {
            return write!(f, "no verdicts");
        }
        for (i, v) in verdicts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Threshold;
    use webqa_nlp::EntityKind;

    fn kw(t: f64) -> NlpPred {
        NlpPred::MatchKeyword(Threshold::new(t))
    }

    fn full() -> Analyzer {
        Analyzer::new(&QueryContext::new("Who are the students?", ["Students"]))
    }

    fn no_keywords() -> Analyzer {
        Analyzer::new(&QueryContext::question_only("Who are the students?"))
    }

    fn no_question() -> Analyzer {
        Analyzer::new(&QueryContext::keywords_only(["Students"]))
    }

    fn parse(src: &str) -> Program {
        src.parse().expect("valid program")
    }

    #[test]
    fn keyword_truth_tracks_context() {
        assert_eq!(no_keywords().pred_truth(&kw(0.5)), Truth::False);
        assert_eq!(no_keywords().pred_truth(&kw(0.0)), Truth::True);
        assert_eq!(full().pred_truth(&kw(0.5)), Truth::Unknown);
        assert_eq!(full().pred_truth(&kw(0.0)), Truth::True);
        assert_eq!(no_question().pred_truth(&NlpPred::HasAnswer), Truth::False);
        assert_eq!(full().pred_truth(&NlpPred::HasAnswer), Truth::Unknown);
    }

    #[test]
    fn kleene_connectives() {
        let a = full();
        let f = NlpPred::Not(Box::new(NlpPred::True));
        assert_eq!(a.pred_truth(&f), Truth::False);
        let and = NlpPred::And(Box::new(kw(0.5)), Box::new(f.clone()));
        assert_eq!(a.pred_truth(&and), Truth::False);
        let or = NlpPred::Or(Box::new(kw(0.5)), Box::new(NlpPred::True));
        assert_eq!(a.pred_truth(&or), Truth::True);
    }

    #[test]
    fn extract_emptiness_differs_from_truth() {
        let a = full();
        // ¬⊤ is boolean-false AND extract-empty; ¬¬⊤ is boolean-true but
        // STILL extract-empty (negations extract nothing).
        let nn = NlpPred::Not(Box::new(NlpPred::Not(Box::new(NlpPred::True))));
        assert_eq!(a.pred_truth(&nn), Truth::True);
        assert!(a.pred_extract_empty(&nn));
        assert!(!a.pred_extract_empty(&NlpPred::True));
        assert!(no_keywords().pred_extract_empty(&kw(0.5)));
        assert!(!no_keywords().pred_extract_empty(&kw(0.0)));
        assert!(no_question().pred_extract_empty(&NlpPred::HasAnswer));
        assert!(!full().pred_extract_empty(&NlpPred::HasAnswer));
    }

    #[test]
    fn locator_cardinality() {
        let a = no_keywords();
        assert_eq!(a.locator_card(&Locator::Root), LocatorCard::ExactlyOne);
        let dead = Locator::Children(
            Box::new(Locator::Root),
            NodeFilter::MatchText {
                pred: kw(0.5),
                subtree: false,
            },
        );
        assert_eq!(a.locator_card(&dead), LocatorCard::Empty);
        // Anything built over an empty locator stays empty.
        let nested = Locator::Descendants(Box::new(dead), NodeFilter::True);
        assert_eq!(a.locator_card(&nested), LocatorCard::Empty);
        let live = Locator::leaves(Locator::Root);
        assert_eq!(a.locator_card(&live), LocatorCard::Unknown);
    }

    #[test]
    fn guard_truth_verdicts() {
        let a = no_keywords();
        let g = parse("sat(root, kw(0.50)) -> content").branches[0]
            .guard
            .clone();
        assert_eq!(a.guard_truth(&g), Truth::False);
        assert_eq!(
            a.guard_truth(&Guard::Sat(Locator::Root, NlpPred::True)),
            Truth::True
        );
        assert_eq!(
            a.guard_truth(&Guard::IsSingleton(Locator::Root)),
            Truth::True
        );
        assert_eq!(
            a.guard_truth(&Guard::IsSingleton(Locator::leaves(Locator::Root))),
            Truth::Unknown
        );
    }

    #[test]
    fn extractor_emptiness() {
        let a = full();
        let e = |src: &str| {
            parse(&format!("sat(root, true) -> {src}")).branches[0]
                .extractor
                .clone()
        };
        assert!(a.extractor_empty(&e("substr(content, not(entity(PERSON)), 1)")));
        assert!(a.extractor_empty(&e("split(substr(content, not(entity(PERSON)), 1), ',')")));
        assert!(!a.extractor_empty(&e("filter(content, kw(0.50))")));
        assert!(no_keywords().extractor_empty(&e("filter(content, kw(0.50))")));
        assert!(!a.extractor_empty(&e("content")));
    }

    #[test]
    fn threshold_implication_ladder() {
        let a = full();
        assert!(a.pred_implies(&kw(0.8), &kw(0.5)));
        assert!(!a.pred_implies(&kw(0.5), &kw(0.8)));
        assert!(a.pred_implies(&kw(0.5), &kw(0.5)));
        // And/Or structure.
        let and = NlpPred::And(Box::new(kw(0.8)), Box::new(NlpPred::HasAnswer));
        assert!(a.pred_implies(&and, &kw(0.5)));
        assert!(a.pred_implies(&and, &NlpPred::HasAnswer));
        let or = NlpPred::Or(Box::new(kw(0.8)), Box::new(kw(0.9)));
        assert!(a.pred_implies(&or, &kw(0.5)));
        assert!(!a.pred_implies(&or, &kw(0.85)));
        assert!(a.pred_implies(&kw(0.8), &or.clone()));
        // Contrapositive.
        assert!(a.pred_implies(
            &NlpPred::Not(Box::new(kw(0.5))),
            &NlpPred::Not(Box::new(kw(0.8)))
        ));
        // Everything implies ⊤; ⊥ implies everything.
        assert!(a.pred_implies(&NlpPred::HasEntity(EntityKind::Date), &NlpPred::True));
        assert!(no_keywords().pred_implies(&kw(0.5), &NlpPred::HasAnswer));
    }

    #[test]
    fn filter_implication_respects_subtree_flag() {
        let a = full();
        let own = NodeFilter::MatchText {
            pred: kw(0.8),
            subtree: false,
        };
        let own_weak = NodeFilter::MatchText {
            pred: kw(0.5),
            subtree: false,
        };
        let sub_weak = NodeFilter::MatchText {
            pred: kw(0.5),
            subtree: true,
        };
        assert!(a.filter_implies(&own, &own_weak));
        assert!(!a.filter_implies(&own, &sub_weak), "subtree flags differ");
        assert!(a.filter_implies(&NodeFilter::IsLeaf, &NodeFilter::True));
        assert!(!a.filter_implies(&NodeFilter::IsLeaf, &NodeFilter::IsElem));
        let and = NodeFilter::And(Box::new(NodeFilter::IsLeaf), Box::new(own.clone()));
        assert!(a.filter_implies(&and, &NodeFilter::IsLeaf));
        assert!(a.filter_implies(&and, &own_weak));
    }

    #[test]
    fn locator_subset_rules() {
        let a = full();
        let text = |t: f64| NodeFilter::MatchText {
            pred: kw(t),
            subtree: false,
        };
        let strong = Locator::Descendants(Box::new(Locator::Root), text(0.8));
        let weak = Locator::Descendants(Box::new(Locator::Root), text(0.5));
        assert!(a.locator_subset(&strong, &weak));
        assert!(!a.locator_subset(&weak, &strong));
        // children ⊆ descendants over the same spine.
        let kids = Locator::Children(Box::new(Locator::Root), text(0.8));
        assert!(a.locator_subset(&kids, &weak));
        // Deep locators are subsets of descendants(root, ·) when the
        // filter weakens: every located node is a strict descendant.
        let deep = Locator::Children(Box::new(kids.clone()), text(0.8));
        let all = Locator::Descendants(Box::new(Locator::Root), NodeFilter::True);
        assert!(a.locator_subset(&deep, &all));
        assert!(a.locator_subset(&kids, &all));
        // Root is NOT a subset of descendants(root): root isn't its own
        // descendant.
        assert!(!a.locator_subset(&Locator::Root, &all));
    }

    #[test]
    fn guard_implication_and_subsumption() {
        let a = full();
        let p = parse(
            "sat(descendants(root, text(kw(0.80))), kw(0.80)) -> content; \
             sat(descendants(root, text(kw(0.50))), kw(0.50)) -> content",
        );
        assert!(a.guard_implies(&p.branches[0].guard, &p.branches[1].guard));
        assert!(!a.guard_implies(&p.branches[1].guard, &p.branches[0].guard));
        // Reversed order: the report pins branch 1 as subsumed.
        let rev = parse(
            "sat(descendants(root, text(kw(0.50))), kw(0.50)) -> content; \
             sat(descendants(root, text(kw(0.80))), kw(0.80)) -> content",
        );
        let report = a.analyze(&rev);
        assert_eq!(report.branches[0].subsumed_by, None);
        assert_eq!(report.branches[1].subsumed_by, Some(0));
        // Singleton implies Sat over a superset locator with ⊤.
        let s = Guard::IsSingleton(Locator::leaves(Locator::Root));
        let t = Guard::Sat(
            Locator::Descendants(Box::new(Locator::Root), NodeFilter::True),
            NlpPred::True,
        );
        assert!(a.guard_implies(&s, &t));
    }

    #[test]
    fn byte_identical_guards_win_subsumption_attribution() {
        let a = full();
        // Branch 2's guard implies branch 0's (weaker) AND equals branch
        // 1's; the byte-identical match must be reported.
        let p = parse(
            "sat(root, kw(0.50)) -> content; \
             sat(root, kw(0.80)) -> content; \
             sat(root, kw(0.80)) -> split(content, ',')",
        );
        let report = a.analyze(&p);
        assert_eq!(report.branches[1].subsumed_by, Some(0));
        assert_eq!(report.branches[2].subsumed_by, Some(1));
    }

    #[test]
    fn always_empty_program() {
        let a = no_keywords();
        let p = parse(
            "sat(root, kw(0.50)) -> content; \
             sat(root, true) -> filter(content, kw(0.60))",
        );
        let report = a.analyze(&p);
        assert_eq!(report.branches[0].guard, Truth::False);
        assert!(report.branches[1].extractor_empty);
        assert!(report.always_empty);
        // With keywords available nothing is provable.
        let report = full().analyze(&p);
        assert!(!report.always_empty);
        assert!(report.is_clean());
    }

    #[test]
    fn canonicalization_drops_proven_dead_branches() {
        let a = no_keywords();
        let p = parse(
            "sat(root, kw(0.50)) -> content; \
             sat(root, true) -> split(content, ','); \
             singleton(root) -> content",
        );
        let c = a.canonicalize(&p);
        // Branch 0 is ⊥, branch 2 follows a ⊤ guard: only branch 1 stays.
        assert_eq!(c.branches.len(), 1);
        assert_eq!(c.to_string(), "sat(root, true) -> split(content, ',')");
    }

    #[test]
    fn canonical_keys_identify_equivalent_programs() {
        let a = no_keywords();
        // Same behavior three ways: a ⊥ first branch, boolean noise, and
        // an extra subsumed branch.
        let p1 = parse("sat(root, kw(0.50)) -> content; sat(root, true) -> content");
        let p2 = parse("sat(root, and(true, true)) -> content");
        let p3 = parse("sat(root, true) -> content; sat(root, true) -> split(content, ',')");
        let k1 = a.canonical_key(&p1);
        assert_eq!(k1, a.canonical_key(&p2));
        assert_eq!(k1, a.canonical_key(&p3));
        // Provably-empty extractors collapse to ∅ in the key.
        let e1 = parse("sat(root, true) -> filter(content, kw(0.60))");
        let e2 = parse("sat(root, true) -> substr(content, not(true), 1)");
        assert_eq!(a.canonical_key(&e1), a.canonical_key(&e2));
        assert!(a.canonical_key(&e1).contains('∅'));
        // …but NOT under a context where the filter might keep strings.
        assert_ne!(full().canonical_key(&e1), full().canonical_key(&e2));
    }

    #[test]
    fn report_display_and_verdict_lines() {
        let a = no_keywords();
        let p = parse("sat(root, kw(0.50)) -> content");
        let report = a.analyze(&p);
        let text = report.to_string();
        assert!(text.contains("branch 0: guard is provably false"), "{text}");
        assert!(text.contains("empty set"), "{text}");
        let clean = full().analyze(&parse("sat(root, kw(0.50)) -> content"));
        assert!(clean.is_clean());
        assert_eq!(clean.to_string(), "no verdicts");
    }
}
