//! Static well-formedness checks for hand-written WebQA programs.
//!
//! The synthesizer only produces programs inside its bounded grammar, but
//! the text format ([`crate::Program::from_str`]) accepts arbitrary DSL
//! terms — including ones that are well-typed yet degenerate at runtime
//! (a `matchKeyword` predicate under a context with no keywords, a branch
//! shadowed by an identical earlier guard, a threshold off the paper's
//! 0.05 discretization grid). [`lint`] reports such issues without
//! evaluating the program, so tooling (the CLI's `check` command, the
//! examples) can warn before running an extraction over a large page set.

use std::fmt;

use crate::ast::{Extractor, Guard, Locator, NlpPred, NodeFilter, Program};
use crate::context::QueryContext;

/// One diagnostic produced by [`lint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LintIssue {
    /// The program uses `matchKeyword` but the context has no keywords:
    /// every such predicate is vacuously false.
    KeywordsUnavailable,
    /// The program uses `hasAnswer` but the context question is empty.
    QuestionUnavailable,
    /// Branch `later` can never fire: its guard is subsumed by branch
    /// `earlier`'s guard, which takes precedence. Subsumption is decided
    /// semantically (`Analyzer::guard_implies`) —
    /// byte-identical guards are the simplest case and are attributed
    /// first when both kinds of shadow exist.
    DeadBranch {
        /// Index of the shadowing branch.
        earlier: usize,
        /// Index of the unreachable branch.
        later: usize,
    },
    /// A `Filter(e, ⊤)` keeps every string; the filter is a no-op.
    TrivialFilter {
        /// Index of the branch containing the filter.
        branch: usize,
    },
    /// A threshold is not a multiple of 0.05 — outside the grid the
    /// paper's synthesizer searches (Section 7), so the program cannot
    /// have come from (and cannot be compared against) a synthesized one.
    OffGridThreshold {
        /// Index of the branch containing the threshold.
        branch: usize,
        /// The offending value in hundredths.
        hundredths: u8,
    },
    /// A `¬φ` predicate in `Substring` position: negations extract no
    /// spans, so the `Substring` always returns the empty set.
    NegationInSubstring {
        /// Index of the branch containing the substring.
        branch: usize,
    },
    /// The locator nests deeper than `depth`, which exceeds the given
    /// bound (the synthesizer's default guard depth is 7, Section 7).
    LocatorTooDeep {
        /// Index of the branch.
        branch: usize,
        /// Observed locator depth.
        depth: usize,
        /// The configured bound.
        bound: usize,
    },
    /// The extractor chain is longer than `depth`, exceeding the bound
    /// (the synthesizer's default extractor depth is 5, Section 7).
    ExtractorTooDeep {
        /// Index of the branch.
        branch: usize,
        /// Observed extractor depth.
        depth: usize,
        /// The configured bound.
        bound: usize,
    },
}

impl fmt::Display for LintIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LintIssue::KeywordsUnavailable => {
                write!(
                    f,
                    "program uses matchKeyword but the context has no keywords"
                )
            }
            LintIssue::QuestionUnavailable => {
                write!(
                    f,
                    "program uses hasAnswer but the context question is empty"
                )
            }
            LintIssue::DeadBranch { earlier, later } => write!(
                f,
                "branch {later} is unreachable: its guard is subsumed by branch {earlier}'s guard"
            ),
            LintIssue::TrivialFilter { branch } => {
                write!(f, "branch {branch}: filter(e, true) is a no-op")
            }
            LintIssue::OffGridThreshold { branch, hundredths } => write!(
                f,
                "branch {branch}: threshold 0.{hundredths:02} is off the 0.05 grid"
            ),
            LintIssue::NegationInSubstring { branch } => write!(
                f,
                "branch {branch}: a negated predicate in substr extracts nothing"
            ),
            LintIssue::LocatorTooDeep {
                branch,
                depth,
                bound,
            } => write!(
                f,
                "branch {branch}: locator depth {depth} exceeds the bound {bound}"
            ),
            LintIssue::ExtractorTooDeep {
                branch,
                depth,
                bound,
            } => write!(
                f,
                "branch {branch}: extractor depth {depth} exceeds the bound {bound}"
            ),
        }
    }
}

/// The result of [`lint`]: all issues found, in branch order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// The diagnostics.
    pub issues: Vec<LintIssue>,
}

impl LintReport {
    /// True when no issue was found.
    pub fn is_clean(&self) -> bool {
        self.issues.is_empty()
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.issues.is_empty() {
            return write!(f, "no issues");
        }
        for (i, issue) in self.issues.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{issue}")?;
        }
        Ok(())
    }
}

/// Default locator-depth bound, matching the synthesizer's guard depth
/// hyper-parameter (Section 7 of the paper).
pub(crate) const DEFAULT_LOCATOR_DEPTH: usize = 7;
/// Default extractor-depth bound (Section 7 of the paper).
pub(crate) const DEFAULT_EXTRACTOR_DEPTH: usize = 5;

/// Checks a program against a query context; see [`LintIssue`] for the
/// catalogue of diagnostics.
///
/// ```
/// use webqa_dsl::{lint, Program, QueryContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let p: Program = "sat(root, kw(0.60)) -> filter(content, true)".parse()?;
/// let ctx = QueryContext::question_only("Who are the PhD students?");
/// let report = lint(&p, &ctx);
/// assert!(!report.is_clean()); // kw(0.60) with no keywords + trivial filter
/// # Ok(())
/// # }
/// ```
pub fn lint(program: &Program, ctx: &QueryContext) -> LintReport {
    let mut issues = Vec::new();
    let analyzer = crate::analysis::Analyzer::new(ctx);

    if program.uses_keywords() && ctx.keywords().is_empty() {
        issues.push(LintIssue::KeywordsUnavailable);
    }
    if program.uses_question() && ctx.question().is_empty() {
        issues.push(LintIssue::QuestionUnavailable);
    }

    for (i, b) in program.branches.iter().enumerate() {
        // Dead branches are decided by the semantic subsumption analysis;
        // byte-identical guards are scanned first so the attribution (and
        // the report text) stays what the purely syntactic pass produced.
        let earlier = &program.branches[..i];
        let shadow = earlier.iter().position(|e| e.guard == b.guard).or_else(|| {
            earlier
                .iter()
                .position(|e| analyzer.guard_implies(&b.guard, &e.guard))
        });
        if let Some(j) = shadow {
            issues.push(LintIssue::DeadBranch {
                earlier: j,
                later: i,
            });
        }
        let depth = locator_depth(b.guard.locator());
        if depth > DEFAULT_LOCATOR_DEPTH {
            issues.push(LintIssue::LocatorTooDeep {
                branch: i,
                depth,
                bound: DEFAULT_LOCATOR_DEPTH,
            });
        }
        let edepth = b.extractor.depth();
        if edepth > DEFAULT_EXTRACTOR_DEPTH {
            issues.push(LintIssue::ExtractorTooDeep {
                branch: i,
                depth: edepth,
                bound: DEFAULT_EXTRACTOR_DEPTH,
            });
        }
        check_extractor(&b.extractor, i, &mut issues);
        check_guard_thresholds(&b.guard, i, &mut issues);
    }

    LintReport { issues }
}

fn locator_depth(l: &Locator) -> usize {
    l.depth()
}

fn check_extractor(e: &Extractor, branch: usize, issues: &mut Vec<LintIssue>) {
    match e {
        Extractor::Content => {}
        Extractor::Filter(inner, p) => {
            if *p == NlpPred::True {
                issues.push(LintIssue::TrivialFilter { branch });
            }
            check_pred_thresholds(p, branch, issues);
            check_extractor(inner, branch, issues);
        }
        Extractor::Substring(inner, p, _) => {
            if matches!(p, NlpPred::Not(_)) {
                issues.push(LintIssue::NegationInSubstring { branch });
            }
            check_pred_thresholds(p, branch, issues);
            check_extractor(inner, branch, issues);
        }
        Extractor::Split(inner, _) => check_extractor(inner, branch, issues),
    }
}

fn check_guard_thresholds(g: &Guard, branch: usize, issues: &mut Vec<LintIssue>) {
    match g {
        Guard::Sat(l, p) => {
            check_locator_thresholds(l, branch, issues);
            check_pred_thresholds(p, branch, issues);
        }
        Guard::IsSingleton(l) => check_locator_thresholds(l, branch, issues),
    }
}

fn check_locator_thresholds(l: &Locator, branch: usize, issues: &mut Vec<LintIssue>) {
    match l {
        Locator::Root => {}
        Locator::Children(inner, f) | Locator::Descendants(inner, f) => {
            check_locator_thresholds(inner, branch, issues);
            check_filter_thresholds(f, branch, issues);
        }
    }
}

fn check_filter_thresholds(f: &NodeFilter, branch: usize, issues: &mut Vec<LintIssue>) {
    match f {
        NodeFilter::IsLeaf | NodeFilter::IsElem | NodeFilter::True => {}
        NodeFilter::MatchText { pred, .. } => check_pred_thresholds(pred, branch, issues),
        NodeFilter::And(a, b) | NodeFilter::Or(a, b) => {
            check_filter_thresholds(a, branch, issues);
            check_filter_thresholds(b, branch, issues);
        }
        NodeFilter::Not(a) => check_filter_thresholds(a, branch, issues),
    }
}

fn check_pred_thresholds(p: &NlpPred, branch: usize, issues: &mut Vec<LintIssue>) {
    match p {
        NlpPred::MatchKeyword(t) => {
            let hundredths = (t.value() * 100.0).round() as u8;
            if !hundredths.is_multiple_of(5) {
                issues.push(LintIssue::OffGridThreshold { branch, hundredths });
            }
        }
        NlpPred::HasAnswer | NlpPred::HasEntity(_) | NlpPred::True => {}
        NlpPred::And(a, b) | NlpPred::Or(a, b) => {
            check_pred_thresholds(a, branch, issues);
            check_pred_thresholds(b, branch, issues);
        }
        NlpPred::Not(a) => check_pred_thresholds(a, branch, issues),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    fn parse(src: &str) -> Program {
        src.parse().expect("valid program")
    }

    #[test]
    fn clean_program_is_clean() {
        let p = parse(
            "sat(descendants(root, leaf), kw(0.60)) -> filter(split(content, ','), kw(0.50))",
        );
        assert!(lint(&p, &ctx()).is_clean());
    }

    #[test]
    fn missing_keywords_flagged() {
        let p = parse("sat(root, kw(0.60)) -> content");
        let r = lint(&p, &QueryContext::question_only("q?"));
        assert!(r.issues.contains(&LintIssue::KeywordsUnavailable));
    }

    #[test]
    fn missing_question_flagged() {
        let p = parse("sat(root, answer) -> content");
        let r = lint(&p, &QueryContext::keywords_only(["k"]));
        assert!(r.issues.contains(&LintIssue::QuestionUnavailable));
    }

    #[test]
    fn dead_branch_flagged() {
        let p = parse("sat(root, true) -> content; sat(root, true) -> split(content, ',')");
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::DeadBranch {
            earlier: 0,
            later: 1
        }));
    }

    #[test]
    fn semantically_subsumed_branch_flagged() {
        // Guards differ syntactically, but kw(0.80) ⇒ kw(0.50): the
        // second branch can never fire.
        let p = parse("sat(root, kw(0.50)) -> content; sat(root, kw(0.80)) -> content");
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::DeadBranch {
            earlier: 0,
            later: 1
        }));
        // The reverse order is fine: the stronger guard fires first.
        let p = parse("sat(root, kw(0.80)) -> content; sat(root, kw(0.50)) -> content");
        assert!(lint(&p, &ctx()).is_clean());
    }

    #[test]
    fn byte_identical_guard_attribution_wins() {
        // Branch 2's guard both implies branch 0's and equals branch 1's;
        // the byte-identical earlier branch is the one reported.
        let p = parse(
            "sat(root, kw(0.50)) -> content; \
             sat(root, kw(0.80)) -> content; \
             sat(root, kw(0.80)) -> split(content, ',')",
        );
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::DeadBranch {
            earlier: 1,
            later: 2
        }));
    }

    #[test]
    fn branch_after_catch_all_flagged() {
        let p = parse("sat(root, true) -> content; sat(root, kw(0.80)) -> content");
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::DeadBranch {
            earlier: 0,
            later: 1
        }));
    }

    #[test]
    fn trivial_filter_flagged() {
        let p = parse("sat(root, true) -> filter(content, true)");
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::TrivialFilter { branch: 0 }));
    }

    #[test]
    fn off_grid_threshold_flagged() {
        let p = parse("sat(root, kw(0.63)) -> content");
        let r = lint(&p, &ctx());
        assert!(r.issues.contains(&LintIssue::OffGridThreshold {
            branch: 0,
            hundredths: 63
        }));
        // On-grid values pass.
        let p = parse("sat(root, kw(0.65)) -> content");
        assert!(lint(&p, &ctx()).is_clean());
    }

    #[test]
    fn negation_in_substring_flagged() {
        let p = parse("sat(root, true) -> substr(content, not(entity(PERSON)), 1)");
        let r = lint(&p, &ctx());
        assert!(r
            .issues
            .contains(&LintIssue::NegationInSubstring { branch: 0 }));
    }

    #[test]
    fn depth_bounds_flagged() {
        // Locator depth 8 > 7.
        let mut loc = String::from("root");
        for _ in 0..7 {
            loc = format!("children({loc}, true)");
        }
        let p = parse(&format!("sat({loc}, true) -> content"));
        let r = lint(&p, &ctx());
        assert!(matches!(
            r.issues.first(),
            Some(LintIssue::LocatorTooDeep {
                depth: 8,
                bound: 7,
                ..
            })
        ));
        // Extractor depth 6 > 5.
        let mut e = String::from("content");
        for _ in 0..5 {
            e = format!("split({e}, ',')");
        }
        let p = parse(&format!("sat(root, true) -> {e}"));
        let r = lint(&p, &ctx());
        assert!(r.issues.iter().any(|i| matches!(
            i,
            LintIssue::ExtractorTooDeep {
                depth: 6,
                bound: 5,
                ..
            }
        )));
    }

    #[test]
    fn report_display_lists_issues() {
        let p = parse("sat(root, true) -> filter(content, true)");
        let r = lint(&p, &ctx());
        let text = r.to_string();
        assert!(text.contains("no-op"), "{text}");
        assert!(lint(&parse("sat(root, true) -> content"), &ctx())
            .to_string()
            .contains("no issues"));
    }
}
