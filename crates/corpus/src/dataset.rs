//! Corpus assembly and train/test splits.
//!
//! The paper's setup (Section 8): ~40 pages per domain, ~5 labeled pages
//! per task for synthesis, the remainder as the (unlabeled) test set.

use crate::gen::{generate_pages, GeneratedPage};
use crate::tasks::{Domain, Task};

/// The full generated corpus: pages for every domain.
#[derive(Debug, Clone)]
pub struct Corpus {
    faculty: Vec<GeneratedPage>,
    conference: Vec<GeneratedPage>,
    class: Vec<GeneratedPage>,
    clinic: Vec<GeneratedPage>,
}

impl Corpus {
    /// Generates the standard corpus: `pages_per_domain` pages per domain
    /// from the given seed.
    pub fn generate(pages_per_domain: usize, seed: u64) -> Self {
        Corpus {
            faculty: generate_pages(Domain::Faculty, pages_per_domain, seed),
            conference: generate_pages(Domain::Conference, pages_per_domain, seed),
            class: generate_pages(Domain::Class, pages_per_domain, seed),
            clinic: generate_pages(Domain::Clinic, pages_per_domain, seed),
        }
    }

    /// Pages of one domain.
    pub fn pages(&self, domain: Domain) -> &[GeneratedPage] {
        match domain {
            Domain::Faculty => &self.faculty,
            Domain::Conference => &self.conference,
            Domain::Class => &self.class,
            Domain::Clinic => &self.clinic,
        }
    }

    /// Total number of pages.
    pub fn len(&self) -> usize {
        self.faculty.len() + self.conference.len() + self.class.len() + self.clinic.len()
    }

    /// Whether the corpus has no pages.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Builds the labeled/unlabeled split for one task: the first
    /// `n_train` pages of the task's domain are the labeled examples, the
    /// rest are the test set.
    pub fn dataset(&self, task: &Task, n_train: usize) -> TaskDataset {
        let pages = self.pages(task.domain);
        let n_train = n_train.min(pages.len());
        let make = |p: &GeneratedPage| LabeledPage {
            name: p.name.clone(),
            page: p.tree(),
            html: p.html.clone(),
            gold: p.gold(task.id).to_vec(),
        };
        TaskDataset {
            task: *task,
            train: pages[..n_train].iter().map(make).collect(),
            test: pages[n_train..].iter().map(make).collect(),
        }
    }
}

/// One page paired with its gold labels for a specific task.
#[derive(Debug, Clone)]
pub struct LabeledPage {
    /// Page name (e.g. `"faculty_12"`).
    pub name: String,
    /// The parsed page tree.
    pub page: webqa_html::PageTree,
    /// Raw HTML (baselines that need the DOM re-parse from this).
    pub html: String,
    /// Gold extraction strings for the dataset's task.
    pub gold: Vec<String>,
}

/// Train/test split of one task.
#[derive(Debug, Clone)]
pub struct TaskDataset {
    /// The task description.
    pub task: Task,
    /// Labeled pages used for synthesis.
    pub train: Vec<LabeledPage>,
    /// Held-out pages used for evaluation (their gold is hidden from the
    /// synthesizer; the transductive selector sees only their HTML).
    pub test: Vec<LabeledPage>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{task_by_id, TASKS};

    #[test]
    fn paper_scale_is_160_pages() {
        // Four domains: the paper's ~40 pages per domain make 160. Four
        // per domain keep the test fast.
        let c = Corpus::generate(4, 0);
        assert_eq!(c.len(), 16);
        assert!(!c.is_empty());
    }

    #[test]
    fn dataset_split_sizes() {
        let c = Corpus::generate(10, 1);
        let t = task_by_id("fac_t1").unwrap();
        let d = c.dataset(t, 5);
        assert_eq!(d.train.len(), 5);
        assert_eq!(d.test.len(), 5);
    }

    #[test]
    fn split_caps_at_page_count() {
        let c = Corpus::generate(3, 1);
        let t = task_by_id("clinic_t1").unwrap();
        let d = c.dataset(t, 10);
        assert_eq!(d.train.len(), 3);
        assert!(d.test.is_empty());
    }

    #[test]
    fn every_task_has_some_nonempty_gold() {
        let c = Corpus::generate(8, 2);
        for task in &TASKS {
            let d = c.dataset(task, 5);
            let total: usize = d.train.iter().chain(&d.test).map(|p| p.gold.len()).sum();
            assert!(total > 0, "task {} has no gold anywhere", task.id);
        }
    }

    #[test]
    fn determinism() {
        let a = Corpus::generate(3, 9);
        let b = Corpus::generate(3, 9);
        for d in Domain::ALL {
            for (x, y) in a.pages(d).iter().zip(b.pages(d)) {
                assert_eq!(x.html, y.html);
            }
        }
    }
}
