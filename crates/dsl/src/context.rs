//! Query context: the `(Q, K)` inputs of a WebQA program plus memoized
//! access to the neural modules.
//!
//! The synthesizer evaluates the same NLP predicates on the same strings
//! thousands of times, so each neural-module result is computed once per
//! string and context:
//!
//! * `matchKeyword` scores come from one [`KeywordSet`], which embeds `K`
//!   when the context is built, and are cached per string; on a miss the
//!   set scores only the word windows it has not met before, since it
//!   memoizes each text word's stem id and vector and each distinct word
//!   window's score for the context's lifetime — a subtree text's windows
//!   are mostly its children's, and a `Substring` candidate window is
//!   often a window of a text scored before;
//! * the QA model runs once per string: one cache of answer spans serves
//!   both `hasAnswer` (a span exists) and `Substring(…, hasAnswer, k)`;
//!   on a miss the context's [`QaSession`], bound to `Q`, recognizes and
//!   normalizes only the sentences it has not met before, since it
//!   memoizes each sentence's scores by sentence text;
//! * recognized entities are cached per string, and the predicates read
//!   them under the lock instead of cloning the list.
//!
//! Every cache, the keyword set's and QA session's memos included, lives
//! and dies with its context, i.e. one run: nothing derived from page text
//! is kept process-wide, so a long-lived daemon's memory stays bounded by
//! its live runs.
//!
//! This is what makes enumerative search tractable (the real system relies
//! on the same trick — neural-module calls dominate its synthesis time,
//! Table 3).
//!
//! The caches are behind [`Mutex`]es (not `RefCell`s), so a context is
//! `Sync` and can be shared across threads; uncontended locking costs
//! nanoseconds. These caches hold per-string results only. Structural work
//! is shared one level up: the synthesizer's search reads precomputed
//! per-task feature tables instead of hitting these caches per candidate,
//! and program evaluation shares sub-locator node sets, filter verdicts
//! and subtree texts through a per-page [`crate::PageMemo`]. A model runs
//! outside the lock, so a miss never blocks other threads' hits.

use std::collections::HashMap;
use std::sync::Mutex;

use webqa_nlp::{Entity, EntityKind, EntityRecognizer, KeywordSet, QaModel, QaSession};

/// The question/keyword inputs plus cached neural modules.
#[derive(Debug)]
pub struct QueryContext {
    question: String,
    keywords: Vec<String>,
    keyword_set: KeywordSet,
    qa: QaSession,
    ner: EntityRecognizer,
    kw_cache: Mutex<HashMap<String, f64>>,
    qa_cache: Mutex<HashMap<String, Option<(usize, usize)>>>,
    ent_cache: Mutex<HashMap<String, Vec<Entity>>>,
}

impl QueryContext {
    /// Creates a context with the default pretrained models.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(question: &str, keywords: I) -> Self {
        Self::with_models(
            question,
            keywords,
            QaModel::pretrained(),
            EntityRecognizer::pretrained(),
        )
    }

    /// A context with explicit neural modules instead of the pretrained
    /// defaults.
    ///
    /// This is how model imperfection is injected in tests and ablations:
    /// the paper's Key Idea #2 (Section 2) observes that when, say, the
    /// entity model cannot recognize conference names as organizations,
    /// *no* DSL program matches the labels exactly and synthesis must
    /// optimize F₁ instead — swapping the [`EntityRecognizer`] here is
    /// what exercises that path deterministically.
    pub fn with_models<S: Into<String>, I: IntoIterator<Item = S>>(
        question: &str,
        keywords: I,
        qa: QaModel,
        ner: EntityRecognizer,
    ) -> Self {
        let keywords: Vec<String> = keywords.into_iter().map(Into::into).collect();
        QueryContext {
            question: question.to_string(),
            keyword_set: KeywordSet::new(&keywords),
            keywords,
            qa: qa.session(question),
            ner,
            kw_cache: Mutex::new(HashMap::new()),
            qa_cache: Mutex::new(HashMap::new()),
            ent_cache: Mutex::new(HashMap::new()),
        }
    }

    /// A context without keywords (the paper's `WebQA-NL` ablation).
    pub fn question_only(question: &str) -> Self {
        Self::new(question, Vec::<String>::new())
    }

    /// A context without a question (the paper's `WebQA-KW` ablation).
    pub fn keywords_only<S: Into<String>, I: IntoIterator<Item = S>>(keywords: I) -> Self {
        Self::new("", keywords)
    }

    /// The natural-language question `Q`.
    pub fn question(&self) -> &str {
        &self.question
    }

    /// The keywords `K`.
    pub fn keywords(&self) -> &[String] {
        &self.keywords
    }

    /// Best keyword similarity of `text` against `K` (cached).
    /// 0.0 when there are no keywords.
    pub fn keyword_score(&self, text: &str) -> f64 {
        if self.keywords.is_empty() {
            return 0.0;
        }
        if let Some(&s) = self.kw_cache.lock().expect("cache lock").get(text) {
            return s;
        }
        let s = f64::from(self.keyword_set.best_similarity(text));
        self.kw_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), s);
        s
    }

    /// Whether the QA model finds an answer to `Q` in `text` (cached via
    /// `QueryContext::answer_span`). `false` when the context has no
    /// question.
    pub fn has_answer(&self, text: &str) -> bool {
        self.answer_span(text).is_some()
    }

    /// Byte span of the QA model's best answer in `text`, if any (cached).
    /// `None` when the context has no question.
    pub(crate) fn answer_span(&self, text: &str) -> Option<(usize, usize)> {
        if self.question.is_empty() {
            return None;
        }
        if let Some(&span) = self.qa_cache.lock().expect("cache lock").get(text) {
            return span;
        }
        let span = self.qa.answer(text).map(|a| (a.start, a.end));
        self.qa_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), span);
        span
    }

    /// All entities in `text` (cached).
    pub fn entities(&self, text: &str) -> Vec<Entity> {
        self.with_entities(text, <[Entity]>::to_vec)
    }

    /// Applies `f` to the cached entities of `text`, running the
    /// recognizer on a miss.
    fn with_entities<R>(&self, text: &str, f: impl FnOnce(&[Entity]) -> R) -> R {
        if let Some(es) = self.ent_cache.lock().expect("cache lock").get(text) {
            return f(es);
        }
        let es = self.ner.entities(text);
        let r = f(&es);
        self.ent_cache
            .lock()
            .expect("cache lock")
            .insert(text.to_string(), es);
        r
    }

    /// Whether `text` contains an entity of `kind` (cached).
    pub fn has_entity(&self, text: &str, kind: EntityKind) -> bool {
        self.with_entities(text, |es| es.iter().any(|e| e.kind == kind))
    }

    /// The QA model's best answer in `text`, if any (cached via
    /// `QueryContext::answer_span`).
    #[cfg(test)]
    fn answer(&self, text: &str) -> Option<String> {
        self.answer_span(text)
            .map(|(start, end)| text[start..end].trim().to_string())
    }

    /// Entity surface strings of `kind` in `text`, in order (cached).
    #[cfg(test)]
    fn entity_strings(&self, text: &str, kind: EntityKind) -> Vec<String> {
        self.with_entities(text, |es| {
            es.iter()
                .filter(|e| e.kind == kind)
                .map(|e| e.text.clone())
                .collect()
        })
    }

    /// Number of distinct strings cached so far.
    #[cfg(test)]
    fn cache_size(&self) -> usize {
        self.kw_cache.lock().expect("cache lock").len()
            + self.qa_cache.lock().expect("cache lock").len()
            + self.ent_cache.lock().expect("cache lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_score_cached_and_stable() {
        let ctx = QueryContext::new("Who?", ["Students"]);
        let a = ctx.keyword_score("PhD Students");
        let b = ctx.keyword_score("PhD Students");
        assert_eq!(a, b);
        assert_eq!(a, 1.0);
        assert!(ctx.cache_size() >= 1);
    }

    #[test]
    fn empty_keywords_score_zero() {
        let ctx = QueryContext::question_only("Who are the students?");
        assert_eq!(ctx.keyword_score("Students"), 0.0);
    }

    #[test]
    fn empty_question_never_answers() {
        let ctx = QueryContext::keywords_only(["Students"]);
        assert!(!ctx.has_answer("Instructor: Jane Doe."));
        assert_eq!(ctx.answer("Instructor: Jane Doe."), None);
    }

    #[test]
    fn entity_queries() {
        let ctx = QueryContext::new("", ["x"]);
        assert!(ctx.has_entity("Jane Doe", EntityKind::Person));
        assert_eq!(
            ctx.entity_strings("Jane Doe and Robert Smith", EntityKind::Person)
                .len(),
            2
        );
    }

    #[test]
    fn qa_through_context() {
        let ctx = QueryContext::new("Who is the instructor?", Vec::<String>::new());
        assert!(ctx
            .answer("Instructor: Jane Doe.")
            .unwrap()
            .contains("Jane"));
        // One QA cache: `has_answer` then `answer_span` on a new text adds
        // exactly one entry, and both agree with the model, answer or not.
        for text in ["Instructor: Jane Doe. Office hours daily.", "No names here"] {
            let before = ctx.cache_size();
            let has = ctx.has_answer(text);
            let span = ctx.answer_span(text);
            assert_eq!(ctx.cache_size(), before + 1, "{text:?}");
            assert_eq!(has, span.is_some(), "{text:?}");
            let model = QaModel::pretrained().answer(text, ctx.question());
            assert_eq!(span, model.map(|a| (a.start, a.end)), "{text:?}");
        }
        assert!(ctx.has_answer("Instructor: Jane Doe. Office hours daily."));
    }
}
