//! # webqa-metrics
//!
//! Scoring and statistics substrate for the WebQA reproduction.
//!
//! The paper frames synthesis as *optimal* synthesis with respect to
//! token-level F₁ (Section 5), selects programs transductively with a
//! Hamming-distance loss (Sections 6–7), and reports variance reductions and
//! t-tests in its evaluation (Section 8, Appendix C). This crate provides
//! all of those primitives:
//!
//! * [`tokenize`] / [`Token`] — the scoring tokenizer;
//! * [`Counts`] / [`Score`] / [`score_strings`] — additive token-overlap
//!   counts and derived precision / recall / F₁, including the pruning
//!   upper bound `UB = 2R/(1+R)` (Eq. 3);
//! * [`hamming_sorted_tokens`] — the selector's transductive loss on one
//!   page's sorted token sets, with [`hamming_strings`] /
//!   [`hamming_tokens`] its definitional forms;
//! * [`TokenInterner`] / [`IdBag`] / [`BagOverlap`] — interned token ids
//!   and the allocation-free multiset-overlap kernels the synthesizer's
//!   hot path scores with (plus [`SmallVec`], their inline-capacity bag
//!   storage);
//! * [`stats`] — mean / variance / Welch t-test.
//!
//! ```
//! use webqa_metrics::{score_strings, hamming_strings};
//! let s = score_strings(&["PLDI '21 (PC)"], &["PLDI '21", "POPL '20"]);
//! assert!(s.precision > 0.5 && s.recall < 1.0);
//! assert_eq!(hamming_strings(&["jane"], &["jane"]), 0);
//! ```

#![warn(missing_docs)]

mod hamming;
mod intern;
mod score;
mod smallvec;
pub mod stats;
mod tokens;

pub use hamming::{hamming_sorted_tokens, hamming_strings, hamming_tokens};
pub use intern::{BagOverlap, IdBag, TokenInterner};
pub use score::{score_strings, Counts, Score};
pub use smallvec::SmallVec;
pub use tokens::{tokenize, tokenize_all, Token};
