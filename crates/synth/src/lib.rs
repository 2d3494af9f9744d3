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
//! The enumerative search scores hundreds of thousands of candidate
//! terms per task; the implementation keeps that affordable with five
//! semantics-free layers ([`SynthConfig::reference`] swaps in the
//! original definitional kernels, and keeps only the memos so that both
//! paths make the same decisions — `tests/synth_parity.rs` proves the two
//! paths observationally identical, statistics included, on the full
//! corpus):
//!
//! * **String table** (`scorer` module): every string the extractor
//!   search sees gets a dense `u32` id, once per task. Equal content is an
//!   equal id, so candidate outputs are id lists, set-semantics dedup
//!   and behavioural equivalence compare integers, and the search keys
//!   behaviours on the exact id sequence. The table also holds each
//!   string's token ids, the output ids of every (production step,
//!   string) pair in one flat arena, and the `Content` seed id of every
//!   (example, node) — each computed once however many branches reach it.
//! * **Interned scoring**: gold bags are interned into the table's
//!   token space (`webqa_metrics::TokenInterner`), and F₁ counts are
//!   multiset overlaps over small integer bags indexed by string id — no
//!   tokenization or string hashing per candidate. The `UB = 2R/(1+R)`
//!   ceiling (Eq. 3) runs on per-node dense gold-id bags precomputed in
//!   [`Example`].
//! * **Task-level mask tables**: every `NodeFilter` in the pool is
//!   evaluated once per (example, node) — via a single neural-feature
//!   pass per node text — and the `[example][filter][node]` mask table
//!   is shared by every branch problem of the task, instead of being
//!   recomputed per `SynthesizeBranch` call.
//! * **Two-level extractor memo**: the guard enumerator keeps its
//!   locator entries (with their propagated node sets and recall
//!   ceilings) in an arena and yields `(guard, entry id)`. The footnote 6
//!   memo is a dense vector over those ids, so a repeated locator costs
//!   one index — no locator cloning/hashing, no node re-propagation. Its
//!   misses go to a task-level memo keyed by (E⁺, propagated node sets),
//!   shared by every branch problem of the task: different locators
//!   often select the same nodes, and different partition blocks share
//!   E⁺, so each distinct extractor problem is searched once per task.
//!   Both hold `Arc`-shared results — no group deep-copies.
//! * **Step-wise extractor enumeration**: children are generated as
//!   production steps applied to the parent's output ids; the UB prune
//!   fires *before* the child AST is built, so dominated candidates
//!   never materialize.
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
