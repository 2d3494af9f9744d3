//! # webqa-corpus
//!
//! Synthetic evaluation corpus for the WebQA reproduction.
//!
//! The paper evaluates on 25 tasks over ~160 scraped webpages across four
//! domains (faculty, conference, class, clinic — Section 8, Table 1/5).
//! Scraped pages are not redistributable, so this crate provides *seeded
//! generative models* of each domain producing exactly the property the
//! evaluation depends on: **structural heterogeneity without a shared
//! schema** (template mixtures, randomized section titles and orderings,
//! list/table/paragraph formatting variants) with ground truth known by
//! construction.
//!
//! ```
//! use webqa_corpus::{Corpus, task_by_id};
//!
//! let corpus = Corpus::generate(8, 42);
//! let task = task_by_id("fac_t1").unwrap(); // "Who are the current PhD students?"
//! let data = corpus.dataset(task, 5);
//! assert_eq!(data.train.len(), 5);
//! assert_eq!(data.test.len(), 3);
//! // Gold labels are attached to every page:
//! assert!(data.train.iter().any(|p| !p.gold.is_empty()));
//! ```

#![warn(missing_docs)]

mod dataset;
mod gen;
pub mod stats;
mod tasks;

pub use dataset::{Corpus, LabeledPage, TaskDataset};
pub use gen::{generate_pages, GeneratedPage};
pub use stats::{domain_stats, DomainStats, MinMeanMax};
pub use tasks::{task_by_id, tasks_in_domain, Domain, Task, TASKS};
