//! Pipeline vocabulary shared by the staged [`Engine`](crate::Engine)
//! (Figure 1 of the paper: query + labeled pages → optimal programs →
//! transductive selection → answers for every unlabeled page): its
//! configuration, the result of one run, and answer scoring.

use crate::error::Error;
use webqa_dsl::{Program, QueryContext};
use webqa_metrics::{Counts, Score};
use webqa_select::SelectionConfig;
use webqa_synth::{SynthConfig, SynthStats};

/// Which query modalities the pipeline uses (the WebQA-NL / WebQA-KW
/// ablations of Appendix C.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Modality {
    /// Question and keywords (full WebQA).
    #[default]
    Both,
    /// Question only (`WebQA-NL`).
    QuestionOnly,
    /// Keywords only (`WebQA-KW`).
    KeywordsOnly,
}

/// Program-selection strategy (Section 8.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Selection {
    /// Transductive ensemble selection (Section 6).
    #[default]
    Transductive,
    /// Uniformly random optimal program.
    Random,
    /// Random among the smallest optimal programs.
    Shortest,
}

/// End-to-end pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Config {
    /// Synthesizer settings.
    pub synth: SynthConfig,
    /// Transductive-selection settings.
    pub selection: SelectionConfig,
    /// Which selection strategy to use.
    pub strategy: Selection,
    /// Which query modalities to use.
    pub modality: Modality,
    /// Capacities of the engine's cross-request caches (the feature
    /// store and the completed-run LRU — see [`crate::CacheConfig`]).
    /// Caching never changes results, only latency.
    pub cache: crate::CacheConfig,
}

/// What a one-shot [`Engine::run`](crate::Engine::run) answers with: the
/// selected program, its answers on the unlabeled pages, and the
/// synthesis figures a reply reports (Figure 1's output).
///
/// The optimal-program set is not kept: selection reads it once, and
/// the staged API ([`Selected::outcome`](crate::Selected::outcome)) is
/// the way to see it. A result therefore holds one program's trees, and
/// an entry of the engine's result LRU takes ~0.004 MB of resident
/// memory instead of the 0.21 MB it took with every optimal program
/// (measured as described in the `cache` module source).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The selected program, `None` when synthesis found nothing.
    pub program: Option<Program>,
    /// The optimal F₁ on the labeled pages.
    pub train_f1: f64,
    /// Token counts of a representative optimal program on the labeled
    /// pages.
    pub counts: Counts,
    /// Number of optimal programs, before capping.
    pub total_optimal: usize,
    /// Search statistics.
    pub stats: SynthStats,
    /// Answers per unlabeled page, aligned with the input order.
    pub answers: Vec<Vec<String>>,
}

/// Builds a [`QueryContext`] for a modality (the WebQA-NL / WebQA-KW
/// ablations drop one input channel).
pub(crate) fn context_for<S: AsRef<str>>(
    modality: Modality,
    question: &str,
    keywords: &[S],
) -> QueryContext {
    let kws: Vec<String> = keywords.iter().map(|k| k.as_ref().to_string()).collect();
    match modality {
        Modality::Both => QueryContext::new(question, kws),
        Modality::QuestionOnly => QueryContext::question_only(question),
        Modality::KeywordsOnly => QueryContext::keywords_only(kws),
    }
}

/// Scores per-page answers against per-page gold labels (micro-averaged
/// token P/R/F₁ — the paper's evaluation metric).
///
/// # Errors
///
/// [`Error::AnswerGoldMismatch`] when the two lists have different
/// lengths (they must be aligned page-for-page).
pub fn score_answers(answers: &[Vec<String>], gold: &[Vec<String>]) -> Result<Score, Error> {
    if answers.len() != gold.len() {
        return Err(Error::AnswerGoldMismatch {
            answers: answers.len(),
            gold: gold.len(),
        });
    }
    let counts: Counts = answers
        .iter()
        .zip(gold)
        .map(|(a, g)| Counts::from_strings(a, g))
        .sum();
    Ok(Score::from_counts(counts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{Engine, Task};
    use webqa_dsl::PageTree;

    /// Runs one task through a fresh engine over the given pages.
    fn run(
        config: Config,
        labeled: Vec<(PageTree, Vec<String>)>,
        unlabeled: Vec<PageTree>,
    ) -> RunResult {
        let mut engine = Engine::new(config);
        let task = Task::from_split(
            "Who are the current PhD students?",
            ["Students", "PhD"],
            engine.store_mut(),
            labeled,
            unlabeled,
        );
        engine.run(&task).unwrap()
    }

    fn labeled() -> Vec<(PageTree, Vec<String>)> {
        vec![
            (
                PageTree::parse(
                    "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
                     <h2>News</h2><p>Two papers accepted.</p>",
                ),
                vec!["Jane Doe".into(), "Bob Smith".into()],
            ),
            (
                PageTree::parse(
                    "<h1>B</h1><h2>Teaching</h2><p>CS 101</p>\
                     <h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                ),
                vec!["Mary Anderson".into()],
            ),
        ]
    }

    fn unlabeled() -> Vec<PageTree> {
        vec![PageTree::parse(
            "<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li><li>Elena Petrov</li></ul>",
        )]
    }

    #[test]
    fn end_to_end_extracts_from_unseen_page() {
        let result = run(Config::default(), labeled(), unlabeled());
        assert!(result.program.is_some());
        assert!(result.train_f1 > 0.99);
        let answers = &result.answers[0];
        assert!(
            answers.iter().any(|a| a.contains("Wei Chen")),
            "generalization to a differently-titled section, got {answers:?}"
        );
    }

    #[test]
    fn score_answers_micro_averages() {
        let answers = vec![vec!["Jane Doe".to_string()], vec![]];
        let gold = vec![vec!["Jane Doe".to_string()], vec!["Bob Smith".to_string()]];
        let s = score_answers(&answers, &gold).unwrap();
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 0.5).abs() < 1e-12);
    }

    #[test]
    fn score_answers_rejects_misaligned_lists() {
        let answers = vec![vec!["Jane Doe".to_string()]];
        let gold: Vec<Vec<String>> = vec![vec![], vec![]];
        assert_eq!(
            score_answers(&answers, &gold).unwrap_err(),
            Error::AnswerGoldMismatch {
                answers: 1,
                gold: 2
            }
        );
    }

    #[test]
    fn modality_contexts() {
        let ctx = context_for(Modality::QuestionOnly, "Who?", &["K"]);
        assert!(ctx.keywords().is_empty());
        assert_eq!(ctx.question(), "Who?");

        let ctx = context_for(Modality::KeywordsOnly, "Who?", &["K"]);
        assert!(ctx.question().is_empty());
        assert_eq!(ctx.keywords(), ["K".to_string()]);
    }

    #[test]
    fn no_labels_no_program() {
        let result = run(Config::default(), Vec::new(), unlabeled());
        assert!(result.program.is_none());
        assert_eq!(result.answers, vec![Vec::<String>::new()]);
    }

    #[test]
    fn selection_strategies_all_produce_programs() {
        for strategy in [
            Selection::Transductive,
            Selection::Random,
            Selection::Shortest,
        ] {
            let cfg = Config {
                strategy,
                ..Config::default()
            };
            let result = run(cfg, labeled(), unlabeled());
            assert!(result.program.is_some(), "strategy {strategy:?}");
        }
    }
}
