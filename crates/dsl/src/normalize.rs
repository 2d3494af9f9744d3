//! Semantics-preserving normalization of WebQA programs.
//!
//! The optimal-synthesis engine returns *every* program achieving the
//! optimal training F₁ (Theorem 5.1), and many of those differ only by
//! boolean-algebra noise (`φ ∧ ⊤`, `¬¬φ`, duplicated filters) or dead
//! branches. Normalizing canonicalizes such programs, which makes a
//! program easier to read — the paper argues interpretability is a
//! selling point of synthesizing a single program (Section 6). Neither
//! synthesis, selection nor the engine calls [`normalize`]: its only
//! callers are `webqa check --normalize` and
//! [`crate::Analyzer::canonicalize`], whose canonical key the `check`
//! report carries.
//!
//! # Soundness
//!
//! NLP predicates have **two** semantics: boolean satisfaction
//! ([`NlpPred::eval`]) and span extraction ([`NlpPred::extract`], used by
//! `Substring`). Classical boolean laws hold only for the former — e.g.
//! `¬¬φ ≡ φ` is true for `eval` but false for `extract` (a negation
//! extracts nothing). The normalizer therefore tracks the *position* of
//! every predicate and rewrites only boolean positions:
//!
//! * guards `Sat(ν, φ)`, extractor `Filter(e, φ)`, and node-filter
//!   `matchText(n, φ, b)` predicates are boolean — fully normalized;
//! * a `Substring(e, φ, k)` predicate is extractive — left intact except
//!   for sub-positions that are themselves boolean (the right operand of
//!   `∧`, whose extraction semantics filters spans with `eval`).
//!
//! Extractor-level rules (`Filter(e, ⊤) → e`,
//! `Filter(Filter(e, p), q) → Filter(e, p ∧ q)`,
//! `Split(Split(e, c), c) → Split(e, c)`) and dead-branch elimination
//! (a branch whose guard syntactically equals an earlier branch's guard
//! can never fire) hold unconditionally.

use crate::ast::{Branch, Extractor, Guard, Locator, NlpPred, NodeFilter, Program};

/// Normalizes a program: boolean-position predicate simplification,
/// extractor simplification, and dead-branch elimination.
///
/// The result evaluates identically to the input on every page and
/// context (verified by property tests over the synthetic corpus).
///
/// ```
/// use webqa_dsl::{normalize, Program};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Program = "sat(root, true) -> filter(filter(content, kw(0.60)), true)".parse()?;
/// assert_eq!(normalize(&p).to_string(), "sat(root, true) -> filter(content, kw(0.60))");
/// # Ok(())
/// # }
/// ```
pub fn normalize(program: &Program) -> Program {
    let mut branches: Vec<Branch> = Vec::new();
    for b in &program.branches {
        let guard = normalize_guard(&b.guard);
        // A guard identical to an earlier one can never fire: the earlier
        // branch takes precedence whenever it would be true.
        if branches.iter().any(|prev| *prev.guard == guard) {
            continue;
        }
        branches.push(Branch::new(guard, normalize_extractor(&b.extractor)));
    }
    Program::new(branches)
}

fn normalize_guard(g: &Guard) -> Guard {
    match g {
        Guard::Sat(l, p) => Guard::Sat(normalize_locator(l), normalize_bool_pred(p)),
        Guard::IsSingleton(l) => Guard::IsSingleton(normalize_locator(l)),
    }
}

fn normalize_locator(l: &Locator) -> Locator {
    match l {
        Locator::Root => Locator::Root,
        Locator::Children(inner, f) => {
            Locator::Children(Box::new(normalize_locator(inner)), normalize_filter(f))
        }
        Locator::Descendants(inner, f) => {
            Locator::Descendants(Box::new(normalize_locator(inner)), normalize_filter(f))
        }
    }
}

/// Node filters are always evaluated as booleans, so the full law set
/// applies.
fn normalize_filter(f: &NodeFilter) -> NodeFilter {
    match f {
        NodeFilter::IsLeaf | NodeFilter::IsElem | NodeFilter::True => f.clone(),
        NodeFilter::MatchText { pred, subtree } => NodeFilter::MatchText {
            pred: normalize_bool_pred(pred),
            subtree: *subtree,
        },
        NodeFilter::And(a, b) => {
            let (a, b) = (normalize_filter(a), normalize_filter(b));
            match (&a, &b) {
                (NodeFilter::True, _) => b,
                (_, NodeFilter::True) => a,
                _ if a == b => a,
                _ => NodeFilter::And(Box::new(a), Box::new(b)),
            }
        }
        NodeFilter::Or(a, b) => {
            let (a, b) = (normalize_filter(a), normalize_filter(b));
            match (&a, &b) {
                (NodeFilter::True, _) | (_, NodeFilter::True) => NodeFilter::True,
                _ if a == b => a,
                _ => NodeFilter::Or(Box::new(a), Box::new(b)),
            }
        }
        NodeFilter::Not(a) => {
            let a = normalize_filter(a);
            match a {
                NodeFilter::Not(inner) => *inner,
                _ => NodeFilter::Not(Box::new(a)),
            }
        }
    }
}

/// Normalizes a predicate in a *boolean* position, where `eval` semantics
/// license the classical laws.
fn normalize_bool_pred(p: &NlpPred) -> NlpPred {
    match p {
        NlpPred::MatchKeyword(_) | NlpPred::HasAnswer | NlpPred::HasEntity(_) | NlpPred::True => {
            p.clone()
        }
        NlpPred::And(a, b) => {
            let (a, b) = (normalize_bool_pred(a), normalize_bool_pred(b));
            match (&a, &b) {
                (NlpPred::True, _) => b,
                (_, NlpPred::True) => a,
                _ if a == b => a,
                _ => NlpPred::And(Box::new(a), Box::new(b)),
            }
        }
        NlpPred::Or(a, b) => {
            let (a, b) = (normalize_bool_pred(a), normalize_bool_pred(b));
            match (&a, &b) {
                (NlpPred::True, _) | (_, NlpPred::True) => NlpPred::True,
                _ if a == b => a,
                _ => NlpPred::Or(Box::new(a), Box::new(b)),
            }
        }
        NlpPred::Not(a) => {
            let a = normalize_bool_pred(a);
            match a {
                NlpPred::Not(inner) => *inner,
                _ => NlpPred::Not(Box::new(a)),
            }
        }
    }
}

/// Normalizes a predicate in an *extractive* position (`Substring`).
///
/// Only sub-positions that the extraction semantics evaluates as booleans
/// are rewritten: the right operand of `∧` (spans of the left operand are
/// filtered with `eval`). Everything else — including the identity of the
/// top-level constructor — is preserved, because extraction distinguishes
/// terms that boolean evaluation identifies.
fn normalize_extract_pred(p: &NlpPred) -> NlpPred {
    match p {
        NlpPred::MatchKeyword(_) | NlpPred::HasAnswer | NlpPred::HasEntity(_) | NlpPred::True => {
            p.clone()
        }
        NlpPred::And(a, b) => NlpPred::And(
            Box::new(normalize_extract_pred(a)),
            Box::new(normalize_bool_pred(b)),
        ),
        NlpPred::Or(a, b) => NlpPred::Or(
            Box::new(normalize_extract_pred(a)),
            Box::new(normalize_extract_pred(b)),
        ),
        // `¬φ` extracts nothing regardless of φ; keep it untouched (there
        // is no ⊥ form to rewrite to).
        NlpPred::Not(_) => p.clone(),
    }
}

fn normalize_extractor(e: &Extractor) -> Extractor {
    match e {
        Extractor::Content => Extractor::Content,
        Extractor::Substring(inner, p, k) => Extractor::Substring(
            Box::new(normalize_extractor(inner)),
            normalize_extract_pred(p),
            *k,
        ),
        Extractor::Filter(inner, p) => {
            let inner = normalize_extractor(inner);
            let p = normalize_bool_pred(p);
            if p == NlpPred::True {
                return inner;
            }
            // Filter(Filter(e, p), q) keeps strings satisfying p then q,
            // which is exactly Filter(e, p ∧ q).
            if let Extractor::Filter(grand, q) = inner {
                return Extractor::Filter(
                    grand,
                    normalize_bool_pred(&NlpPred::And(Box::new(q), Box::new(p))),
                );
            }
            Extractor::Filter(Box::new(inner), p)
        }
        Extractor::Split(inner, c) => {
            let inner = normalize_extractor(inner);
            // After Split(e, c) no output string contains c, so an
            // immediate re-split on the same delimiter is the identity.
            if let Extractor::Split(_, c2) = &inner {
                if c2 == c {
                    return inner;
                }
            }
            Extractor::Split(Box::new(inner), *c)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::QueryContext;
    use crate::Threshold;
    use webqa_html::PageTree;
    use webqa_nlp::EntityKind;

    fn kw(t: f64) -> NlpPred {
        NlpPred::MatchKeyword(Threshold::new(t))
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    fn page() -> PageTree {
        PageTree::parse(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe, Bob Smith</li></ul>\
             <h2>Service</h2><p>PLDI '21 (PC)</p>",
        )
    }

    #[test]
    fn boolean_identities_collapse() {
        let p = NlpPred::And(Box::new(NlpPred::True), Box::new(kw(0.6)));
        assert_eq!(normalize_bool_pred(&p), kw(0.6));
        let p = NlpPred::Or(Box::new(kw(0.6)), Box::new(NlpPred::True));
        assert_eq!(normalize_bool_pred(&p), NlpPred::True);
        let p = NlpPred::Not(Box::new(NlpPred::Not(Box::new(kw(0.6)))));
        assert_eq!(normalize_bool_pred(&p), kw(0.6));
        let p = NlpPred::And(Box::new(kw(0.6)), Box::new(kw(0.6)));
        assert_eq!(normalize_bool_pred(&p), kw(0.6));
    }

    #[test]
    fn extractive_positions_are_preserved() {
        // ¬¬hasEntity extracts nothing; φ extracts spans — they must NOT
        // be identified in Substring position.
        let double_neg = NlpPred::Not(Box::new(NlpPred::Not(Box::new(NlpPred::HasEntity(
            EntityKind::Person,
        )))));
        let e = Extractor::Substring(Box::new(Extractor::Content), double_neg.clone(), 1);
        assert_eq!(normalize_extractor(&e), e, "extraction-position ¬¬φ kept");

        // And-left is extractive; And-right is boolean and simplifies.
        let p = NlpPred::And(
            Box::new(NlpPred::HasEntity(EntityKind::Person)),
            Box::new(NlpPred::And(Box::new(NlpPred::True), Box::new(kw(0.5)))),
        );
        let e = Extractor::Substring(Box::new(Extractor::Content), p, 1);
        let n = normalize_extractor(&e);
        let Extractor::Substring(_, NlpPred::And(l, r), _) = &n else {
            panic!("shape preserved, got {n}");
        };
        assert_eq!(**l, NlpPred::HasEntity(EntityKind::Person));
        assert_eq!(**r, kw(0.5));
    }

    #[test]
    fn filter_true_is_identity() {
        let e = Extractor::Filter(Box::new(Extractor::Content), NlpPred::True);
        assert_eq!(normalize_extractor(&e), Extractor::Content);
    }

    #[test]
    fn nested_filters_fuse() {
        let e = Extractor::Filter(
            Box::new(Extractor::Filter(Box::new(Extractor::Content), kw(0.5))),
            NlpPred::HasEntity(EntityKind::Person),
        );
        let n = normalize_extractor(&e);
        assert_eq!(
            n,
            Extractor::Filter(
                Box::new(Extractor::Content),
                NlpPred::And(
                    Box::new(kw(0.5)),
                    Box::new(NlpPred::HasEntity(EntityKind::Person))
                )
            )
        );
    }

    #[test]
    fn double_split_same_delimiter_collapses() {
        let e = Extractor::Split(
            Box::new(Extractor::Split(Box::new(Extractor::Content), ',')),
            ',',
        );
        assert_eq!(
            normalize_extractor(&e),
            Extractor::Split(Box::new(Extractor::Content), ',')
        );
        // Different delimiters do not collapse.
        let e = Extractor::Split(
            Box::new(Extractor::Split(Box::new(Extractor::Content), ';')),
            ',',
        );
        assert_eq!(normalize_extractor(&e), e);
    }

    #[test]
    fn dead_branches_are_removed() {
        let g = Guard::Sat(Locator::Root, NlpPred::True);
        let p = Program::new(vec![
            Branch::new(g.clone(), Extractor::Content),
            Branch::new(
                g.clone(),
                Extractor::Split(Box::new(Extractor::Content), ','),
            ),
        ]);
        let n = normalize(&p);
        assert_eq!(n.branches.len(), 1);
        assert_eq!(*n.branches[0].extractor, Extractor::Content);
    }

    #[test]
    fn normalization_preserves_semantics_on_samples() {
        let c = ctx();
        let pg = page();
        let programs = [
            "sat(root, true) -> filter(filter(split(content, ','), kw(0.50)), true)",
            "sat(descendants(root, and(leaf, true)), or(kw(0.60), kw(0.60))) -> \
             split(split(content, ','), ',')",
            "sat(children(root, not(not(leaf))), true) -> content; \
             sat(children(root, not(not(leaf))), true) -> split(content, ',')",
            "singleton(descendants(root, text(kw(0.80)))) -> substr(content, entity(PERSON), 2)",
        ];
        for src in programs {
            let p: Program = src.parse().expect("parse");
            let n = normalize(&p);
            assert_eq!(p.eval(&c, &pg), n.eval(&c, &pg), "program {src}");
            // Normalization is idempotent.
            assert_eq!(normalize(&n), n, "idempotence for {src}");
            // Normalized form still round-trips through the text format.
            let reparsed: Program = n.to_string().parse().expect("round-trip");
            assert_eq!(reparsed, n);
        }
    }

    #[test]
    fn normalize_never_grows_size() {
        let srcs = [
            "sat(root, and(true, kw(0.55))) -> filter(content, or(kw(0.50), true))",
            "sat(descendants(root, or(elem, elem)), not(not(answer))) -> content",
        ];
        for src in srcs {
            let p: Program = src.parse().expect("parse");
            assert!(normalize(&p).size() <= p.size(), "{src}");
        }
    }
}
