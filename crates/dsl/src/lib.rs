//! # webqa-dsl
//!
//! The WebQA neurosymbolic domain-specific language (Section 4 of the
//! paper): abstract syntax (Figure 5), typed evaluation semantics
//! (Figure 6), a canonical text format with parser, and the paper's
//! λ-notation pretty printer.
//!
//! A program maps `(Question, Keywords, Webpage) → Set<String>`:
//!
//! ```
//! use webqa_dsl::{Program, QueryContext};
//! use webqa_html::PageTree;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Locate leaves under sections matching the keywords, then split on
//! // commas and keep keyword-matching parts (the paper's Eq. 1 + Eq. 2).
//! let program: Program =
//!     "sat(descendants(descendants(root, text(kw(0.80))), leaf), true) -> \
//!      filter(split(content, ','), kw(0.50))"
//!         .parse()?;
//!
//! let ctx = QueryContext::new(
//!     "Which program committees has this researcher served on?",
//!     ["PC", "Program Committee", "Service"],
//! );
//! let page = PageTree::parse(
//!     "<h1>Jane Doe</h1><h2>Service</h2>\
//!      <ul><li>PLDI '21 (PC), POPL '20 (PC)</li></ul>",
//! );
//! let answers = program.eval(&ctx, &page);
//! assert!(answers.iter().any(|a| a.contains("PLDI '21")));
//! # Ok(())
//! # }
//! ```
//!
//! # Static analysis
//!
//! Beyond evaluation, the crate ships two static passes over programs:
//!
//! * [`lint`] — syntactic well-formedness diagnostics (off-grid
//!   thresholds, depth bounds, no-op filters…);
//! * [`analysis`] — a **sound abstract interpreter** deriving
//!   page-independent verdicts from the query-context facts alone:
//!   output emptiness (a branch or whole program provably returns `∅`),
//!   guard subsumption (a later branch's guard semantically implies an
//!   earlier one's, so the branch can never fire), and equivalence up to
//!   normalization (a canonical dedup key extending [`normalize`] with
//!   the analysis-proven rewrites). [`lint`]'s dead-branch diagnostic
//!   delegates to the semantic subsumption lattice, and the synthesizer
//!   (`webqa_synth`) consults the same facts to prune candidates that
//!   are provably dead before building or scoring them.
//!
//! Every definite verdict is a theorem about the definitional semantics
//! — `tests/analysis_soundness.rs` (workspace root) property-tests the
//! analyzer against [`Program::eval`] on random generator pages.

#![warn(missing_docs)]

pub mod analysis;
mod ast;
mod context;
mod eval;
mod lint;
mod normalize;
mod parse;
mod print;

pub use analysis::{AnalysisReport, Analyzer, BranchAnalysis, Truth};
pub use ast::{
    Branch, Extractor, FxBuild, FxHasher, Guard, Locator, NlpPred, NodeFilter, Program, Threshold,
    TreeIds,
};
pub use context::QueryContext;
pub use eval::{PageMemo, StringExtractor};
pub use lint::{lint, LintIssue, LintReport};
pub use normalize::normalize;
pub use parse::ParseProgramError;

// Re-export the neighbouring vocabulary users need to build programs.
pub use webqa_html::{HtmlError, NodeKind, PageNode, PageNodeId, PageTree, ParseDiagnostics};
pub use webqa_nlp::{EntityKind, EntityRecognizer, QaModel};
