//! # webqa-synth
//!
//! Optimal neurosymbolic program synthesis — the algorithms of Section 5
//! of the paper:
//!
//! * [`synthesize`] — top-level `Synthesize` (Figure 7): enumerates
//!   ordered example partitions and returns **all** programs with optimal
//!   token-level F₁ on the labeled pages;
//! * `SynthesizeBranch` (Figure 8) with guard/extractor decomposition and
//!   extractor sharing among guards whose locators agree (footnote 6);
//! * `SynthesizeExtractors` (Figure 9): bottom-up enumeration with
//!   `UB = 2R/(1+R)` pruning (Eq. 3), sound by recall monotonicity
//!   (Theorem A.3);
//! * `GetNextGuard` (Figure 10): lazy guard enumeration whose pruning
//!   strengthens as the caller's optimum rises.
//!
//! The Section 8.2 ablations are configuration flags:
//! [`SynthConfig::without_pruning`] (`WebQA-NoPrune`) and
//! [`SynthConfig::without_decomposition`] (`WebQA-NoDecomp`).
//!
//! ## Hot-path architecture
//!
//! Seven semantics-free layers keep the enumerative search affordable;
//! [`SynthConfig::reference`] swaps in the definitional kernels, and
//! `tests/synth_parity.rs` proves both paths observationally identical,
//! statistics included, on the full corpus. One line each, with the
//! detail in the module named:
//!
//! * **String table** (`scorer`): every string the extractor search
//!   sees gets a dense `u32` id once per task, with its token ids and,
//!   once it is expanded, a row of its non-empty production-step outputs.
//! * **Interned scoring** (`scorer`, [`Example`]): F₁ counts and the
//!   `UB = 2R/(1+R)` ceiling (Eq. 3) are overlaps of small integer bags.
//! * **Feature and mask tables** (`scorer`): one `[filter][node]` table
//!   per example, borrowed from the caller or built once per task.
//! * **Locator table** (`guards`): a trie of the locators the guard
//!   enumerations reach, with each (locator, example) pair's node set,
//!   recall ceiling and guard-predicate verdicts computed once per task
//!   and read by every branch problem.
//! * **Two-level extractor memo** (`branch`): per locator-table id,
//!   then per (E⁺, propagated node sets) across the task.
//! * **One-pass extractor enumeration** (`extractors`): one walk over a
//!   candidate's strings builds its children under every production
//!   step into reused buffers; all-empty children cost nothing, and the
//!   UB prune fires before a child is copied or its AST built.
//! * **Shared ASTs** (`guards`, `extractors`, `top`): each guard is built
//!   once per task, beside the locator table, and each extractor once,
//!   when the search pushes it. The optimal programs are assembled from
//!   `Arc` clones of those trees and deduplicated by tuples of value ids,
//!   so no tree is copied or hashed per program, and every consumer of
//!   the outcome (selection, the engine's result cache) copies pointers.
//!
//! The search can be abandoned cooperatively: [`synthesize_cancellable`]
//! threads a [`CancelToken`] (explicit cancel, wall-clock deadline, or
//! deterministic step budget) through the enumerator loop, checked once
//! per guard step — the serving layer's per-request deadlines ride on
//! this. A cancelled search returns [`Cancelled`] and never exposes a
//! partial outcome.
//!
//! ```
//! use webqa_dsl::{PageTree, QueryContext};
//! use webqa_synth::{synthesize, Example, SynthConfig};
//!
//! let ctx = QueryContext::new("Who are the current PhD students?", ["Students", "PhD"]);
//! let page = PageTree::parse(
//!     "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
//! );
//! let examples = vec![Example::new(page, vec!["Jane Doe".into(), "Bob Smith".into()])];
//! let outcome = synthesize(&SynthConfig::fast(), &ctx, &examples);
//! assert!(outcome.f1 > 0.99);
//! assert!(!outcome.programs.is_empty());
//! ```

#![warn(missing_docs)]

mod branch;
mod cancel;
mod config;
mod example;
mod extractors;
mod guards;
pub mod oracle;
mod pool;
mod scorer;
mod stats;
mod top;

pub use cancel::{CancelToken, Cancelled};
pub use config::SynthConfig;
pub use example::{program_counts, Example};
pub use scorer::{PageBaseFeatures, PageFeatures};
pub use stats::SynthStats;
pub use top::{synthesize, synthesize_cancellable, SynthesisOutcome};
