//! Extractive question answering.
//!
//! Stand-in for the BERT-large SQuAD model the paper uses for the DSL's
//! `hasAnswer(z, Q)` predicate and for the BERTQA baseline (Sections 7 and
//! 8.1). Like the real model it:
//!
//! * returns a *single best span* per (passage, question) pair — which is
//!   precisely why the baseline collapses on multi-answer tasks (Table 2's
//!   low BERTQA recall);
//! * conditions on the question's expected answer type (who → person,
//!   when → date, where → location);
//! * is *imperfect*: a deterministic hash-noise term perturbs span scores,
//!   emulating neural idiosyncrasy without sacrificing reproducibility.
//!
//! A span's score is a per-sentence part (question overlap, type bonus,
//! parrot penalty — functions of the sentence text alone) plus a
//! per-passage part (the position prior and the noise). A [`QaSession`]
//! is bound to one question and memoizes the per-sentence part by
//! sentence text, so a sentence that recurs inside many passages (a
//! node's text inside each ancestor's subtree text) is recognized and
//! normalized once; [`QaModel::answer`] is a one-passage session.

use std::collections::HashMap;
use std::sync::Mutex;

use crate::embedding::canonicalize;
use crate::ner::{EntityKind, EntityRecognizer};
use crate::text::{is_stopword, lower_words, sentences, words};

/// An extracted answer span.
#[derive(Debug, Clone, PartialEq)]
pub struct QaAnswer {
    /// The answer text.
    pub text: String,
    /// Byte offset of the span start in the passage.
    pub start: usize,
    /// Byte offset one past the span end.
    pub end: usize,
    /// Model confidence in `[0, 1]`.
    pub score: f32,
}

/// Expected answer type inferred from the question's wh-word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerType {
    /// "who …" — expects a person.
    Person,
    /// "when …" / "what time" / "deadline" — expects a date or time.
    DateTime,
    /// "where …" — expects a location.
    Location,
    /// "how much …" — expects money.
    Money,
    /// Anything else.
    Other,
}

/// The simulated extractive QA model.
#[derive(Debug, Clone)]
pub struct QaModel {
    ner: EntityRecognizer,
    threshold: f32,
}

impl QaModel {
    /// The default "pretrained" model with the standard answerability
    /// threshold.
    pub fn pretrained() -> Self {
        QaModel {
            ner: EntityRecognizer::pretrained(),
            threshold: 0.42,
        }
    }

    /// The pretrained model with another answerability threshold.
    #[cfg(test)]
    fn with_threshold(threshold: f32) -> Self {
        QaModel {
            ner: EntityRecognizer::pretrained(),
            threshold,
        }
    }

    /// Infers the expected answer type of a question.
    pub fn answer_type(question: &str) -> AnswerType {
        let q = question.to_lowercase();
        let first = q.split_whitespace().next().unwrap_or("");
        if first == "who" || q.contains("who are") || q.contains("who is") {
            AnswerType::Person
        } else if first == "when"
            || q.contains("what time")
            || q.contains("deadline")
            || q.contains("what date")
        {
            AnswerType::DateTime
        } else if first == "where" || q.contains("located") || q.contains("location") {
            AnswerType::Location
        } else if q.contains("how much") || q.contains("cost") || q.contains("price") {
            AnswerType::Money
        } else {
            AnswerType::Other
        }
    }

    /// Answers `question` against `passage`, returning the single best
    /// span, or `None` when no span clears the answerability threshold.
    pub fn answer(&self, passage: &str, question: &str) -> Option<QaAnswer> {
        self.session(question).answer(passage)
    }

    /// A session answering `question` against many passages.
    pub fn session(&self, question: &str) -> QaSession {
        QaSession {
            model: self.clone(),
            question: question.to_string(),
            q_words: content_words(question),
            want: Self::answer_type(question),
            memo: Mutex::default(),
        }
    }

    /// The DSL predicate `hasAnswer(z, Q)`.
    #[cfg(test)]
    pub(crate) fn has_answer(&self, passage: &str, question: &str) -> bool {
        self.answer(passage, question).is_some()
    }

    /// Candidate answer spans inside one sentence: typed entity spans when
    /// the question expects a type, plus the sentence remainder after
    /// removing question words (the "copy the rest of the sentence"
    /// fallback real extractive models exhibit).
    fn candidate_spans(&self, sentence: &str, want: AnswerType) -> Vec<(usize, usize, bool)> {
        let mut out = Vec::new();
        let entity_kinds: &[EntityKind] = match want {
            AnswerType::Person => &[EntityKind::Person],
            AnswerType::DateTime => &[EntityKind::Date, EntityKind::Time],
            AnswerType::Location => &[EntityKind::Location],
            AnswerType::Money => &[EntityKind::Money],
            AnswerType::Other => &[],
        };
        for e in self.ner.entities(sentence) {
            let typed = entity_kinds.contains(&e.kind);
            out.push((e.start, e.end, typed));
        }
        // Fallback span: the tail of the sentence after a colon, or the
        // whole sentence (capped) when nothing better exists.
        if let Some(colon) = sentence.find(':') {
            let tail_start = colon + 1;
            if tail_start < sentence.len() {
                out.push((tail_start, sentence.len(), false));
            }
        }
        let cap = cap_span(sentence, 14);
        out.push((0, cap, false));
        out
    }
}

impl Default for QaModel {
    fn default() -> Self {
        Self::pretrained()
    }
}

/// [`QaModel`] bound to one question, for answering it against many
/// passages.
///
/// The question's content words and answer type are computed once, and
/// every sentence's per-sentence scores (question overlap, and each
/// non-blank candidate span with its type bonus and parrot penalty) are
/// memoized by sentence text, so each distinct sentence is recognized and
/// normalized once over the session's lifetime. Per passage only the
/// position prior and the noise are added, the noise continuing one hash
/// state over the passage and question. [`QaSession::answer`] equals
/// [`QaModel::answer`] bit for bit. The memo grows with the sentences the
/// session has seen and is dropped with it; a `QueryContext` owns one
/// session, so it lasts one run.
#[derive(Debug)]
pub struct QaSession {
    model: QaModel,
    question: String,
    /// [`content_words`] of the question.
    q_words: Vec<String>,
    want: AnswerType,
    /// Behind a lock so a shared session stays `Sync`; one call holds it
    /// throughout.
    memo: Mutex<SentenceMemo>,
}

/// Per-sentence scores by sentence text.
#[derive(Debug, Default)]
struct SentenceMemo {
    index: HashMap<String, usize>,
    scores: Vec<SentenceScores>,
}

/// What a sentence contributes to its spans' scores, wherever it occurs.
#[derive(Debug)]
struct SentenceScores {
    /// Fraction of the question's content words in the sentence.
    overlap: f32,
    /// The non-blank candidate spans, in candidate order.
    candidates: Vec<Candidate>,
}

#[derive(Debug)]
struct Candidate {
    /// Byte span in the sentence.
    start: usize,
    end: usize,
    /// Bonus for a span of the expected answer type.
    type_bonus: f32,
    /// Question overlap of the span itself, which is penalized.
    parrot: f32,
}

impl QaSession {
    /// Answers the session's question against `passage`: the single best
    /// span, or `None` when no span clears the answerability threshold.
    pub fn answer(&self, passage: &str) -> Option<QaAnswer> {
        self.best_span(passage)
            .filter(|best| best.score >= self.model.threshold)
    }

    fn best_span(&self, passage: &str) -> Option<QaAnswer> {
        if passage.trim().is_empty() || self.q_words.is_empty() {
            return None;
        }
        let sents = sentences(passage);
        let n_sents = sents.len().max(1) as f32;
        // Every span's noise hashes `passage \u{1} question \u{1} span`.
        let prefix = [passage, "\u{1}", &self.question, "\u{1}"]
            .iter()
            .fold(FNV_OFFSET, |h, s| fnv(h, s));

        let mut memo = self.memo.lock().expect("sentence memo lock poisoned");
        let mut best: Option<QaAnswer> = None;
        for (si, sent) in sents.iter().enumerate() {
            let at = match memo.index.get(sent.text) {
                Some(&at) => at,
                None => {
                    let at = memo.scores.len();
                    let scores = self.sentence_scores(sent.text);
                    memo.scores.push(scores);
                    memo.index.insert(sent.text.to_string(), at);
                    at
                }
            };
            let scores = &memo.scores[at];
            // Position prior: earlier sentences get a small boost, like the
            // lead bias real QA models learn.
            let position = 0.06 * (1.0 - si as f32 / n_sents);
            for c in &scores.candidates {
                let span_text = &sent.text[c.start..c.end];
                let noise = noise(fnv(prefix, span_text));
                let score = (0.55 * scores.overlap + c.type_bonus + position - 0.15 * c.parrot
                    + noise)
                    .clamp(0.0, 1.0);
                if best.as_ref().is_none_or(|b| score > b.score) {
                    best = Some(QaAnswer {
                        text: span_text.trim().to_string(),
                        start: sent.start + c.start,
                        end: sent.start + c.end,
                        score,
                    });
                }
            }
        }
        best
    }

    /// The per-sentence scores of `sentence`.
    fn sentence_scores(&self, sentence: &str) -> SentenceScores {
        let sent_words = SentenceWords::new(sentence);
        let candidates = self
            .model
            .candidate_spans(sentence, self.want)
            .into_iter()
            .filter(|&(start, end, _)| !sentence[start..end].trim().is_empty())
            .map(|(start, end, typed)| {
                // Penalize spans that merely parrot the question.
                let parrot = match sent_words.span(start, end) {
                    Some(span_words) => overlap_score(&self.q_words, span_words),
                    None => overlap_score(
                        &self.q_words,
                        &SentenceWords::new(&sentence[start..end]).norm,
                    ),
                };
                Candidate {
                    start,
                    end,
                    type_bonus: if typed { 0.30 } else { 0.0 },
                    parrot,
                }
            })
            .collect();
        SentenceScores {
            overlap: overlap_score(&self.q_words, &sent_words.norm),
            candidates,
        }
    }
}

/// Question content words, canonicalized so "committees" matches
/// "committee" in the passage.
fn content_words(question: &str) -> Vec<String> {
    lower_words(question)
        .into_iter()
        .filter(|w| !is_stopword(w))
        .map(|w| normalize(&w))
        .collect()
}

/// A lowercased word's comparison form: its canonical embedding word,
/// else its stem.
fn normalize(lower: &str) -> String {
    let c = canonicalize(lower);
    if c.is_empty() {
        crate::embedding::stem(lower)
    } else {
        c.to_string()
    }
}

/// A sentence's words, normalized once for the overlap score of the
/// sentence and of every candidate span in it (or a span's own words,
/// when it cannot be read off its sentence's).
struct SentenceWords {
    /// Byte span of each word in the sentence.
    spans: Vec<(usize, usize)>,
    /// Comparison form of each word.
    norm: Vec<String>,
}

impl SentenceWords {
    fn new(sentence: &str) -> Self {
        let ws = words(sentence);
        SentenceWords {
            spans: ws.iter().map(|w| (w.start, w.end)).collect(),
            norm: ws
                .iter()
                .map(|w| normalize(&w.text.to_lowercase()))
                .collect(),
        }
    }

    /// The comparison forms of `sentence[start..end]`'s words: the
    /// sentence words inside the span. `None` when a sentence word
    /// straddles either bound, because the span's text then tokenizes
    /// differently (a colon tail cut through "10:30" starts at "30").
    fn span(&self, start: usize, end: usize) -> Option<&[String]> {
        let lo = self.spans.partition_point(|&(_, e)| e <= start);
        let hi = self.spans.partition_point(|&(_, e)| e <= end);
        let straddles = |i: usize, bound: usize| self.spans.get(i).is_some_and(|&(s, _)| s < bound);
        if straddles(lo, start) || straddles(hi, end) {
            return None;
        }
        Some(&self.norm[lo..hi])
    }
}

/// Fraction of question content words present among `t_words`.
fn overlap_score(q_words: &[String], t_words: &[String]) -> f32 {
    if q_words.is_empty() {
        return 0.0;
    }
    let hits = q_words
        .iter()
        .filter(|q| t_words.iter().any(|t| t == *q))
        .count();
    hits as f32 / q_words.len() as f32
}

/// Byte offset that truncates `sentence` to at most `max_words` words.
fn cap_span(sentence: &str, max_words: usize) -> usize {
    let ws = words(sentence);
    if ws.len() <= max_words {
        sentence.len()
    } else {
        ws[max_words - 1].end
    }
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;

/// FNV-1a state `h` continued over the bytes of `s`.
fn fnv(mut h: u64, s: &str) -> u64 {
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Deterministic noise in `[-0.04, 0.04]` from the hash of the (passage,
/// question, span) triple — the reproducible stand-in for neural
/// idiosyncrasy.
fn noise(h: u64) -> f32 {
    ((h % 8001) as f32 / 8000.0 - 0.5) * 0.08
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qa() -> QaModel {
        QaModel::pretrained()
    }

    #[test]
    fn answers_simple_who_question() {
        let passage = "Instructor: Jane Doe. Office hours by appointment.";
        let a = qa()
            .answer(passage, "Who is the instructor?")
            .expect("answer");
        assert!(a.text.contains("Jane Doe"), "got {a:?}");
    }

    #[test]
    fn answers_when_question_with_date() {
        let passage = "The paper submission deadline is January 15, 2026 for all tracks.";
        let a = qa()
            .answer(passage, "When is the paper submission deadline?")
            .expect("answer");
        assert!(a.text.contains("January 15, 2026"), "got {a:?}");
    }

    #[test]
    fn answers_where_question() {
        let passage = "Our clinic is located at 123 Main Street in Austin.";
        let a = qa()
            .answer(passage, "Where is the clinic located?")
            .expect("answer");
        assert!(
            a.text.contains("Main Street") || a.text.contains("Austin"),
            "got {a:?}"
        );
    }

    #[test]
    fn no_answer_on_unrelated_passage() {
        let passage = "The weather has been unusually warm for this season.";
        assert!(qa().answer(passage, "Who are the PhD students?").is_none());
    }

    #[test]
    fn empty_inputs_have_no_answer() {
        assert!(qa().answer("", "Who?").is_none());
        assert!(qa().answer("text", "").is_none());
    }

    #[test]
    fn single_span_only() {
        // The characteristic failure on multi-answer content: one span.
        let passage = "PhD students: Robert Smith, Mary Anderson, and Wei Chen.";
        let a = qa()
            .answer(passage, "Who are the PhD students?")
            .expect("answer");
        // The span is a single entity or tail, never the full enumerated set
        // split into three separate answers.
        assert!(a.text.len() < passage.len());
    }

    #[test]
    fn answer_type_inference() {
        assert_eq!(QaModel::answer_type("Who are the TAs?"), AnswerType::Person);
        assert_eq!(
            QaModel::answer_type("When is the paper submission deadline?"),
            AnswerType::DateTime
        );
        assert_eq!(
            QaModel::answer_type("Where are the clinics located?"),
            AnswerType::Location
        );
        assert_eq!(
            QaModel::answer_type("How much does a visit cost?"),
            AnswerType::Money
        );
        assert_eq!(
            QaModel::answer_type("What are the topics of interest?"),
            AnswerType::Other
        );
    }

    #[test]
    fn deterministic() {
        let p = "Instructor: Jane Doe.";
        let q = "Who is the instructor?";
        assert_eq!(qa().answer(p, q), qa().answer(p, q));
    }

    #[test]
    fn offsets_slice_back() {
        let passage = "Lectures are on Monday at 10:30 in room 5.";
        if let Some(a) = qa().answer(passage, "What time are the lectures?") {
            assert_eq!(passage[a.start..a.end].trim(), a.text);
        }
    }

    #[test]
    fn has_answer_consistent_with_answer() {
        let p = "Instructor: Jane Doe.";
        let q = "Who is the instructor?";
        assert_eq!(qa().has_answer(p, q), qa().answer(p, q).is_some());
    }

    #[test]
    fn threshold_zero_always_answers_on_nonempty() {
        let m = QaModel::with_threshold(0.0);
        assert!(m
            .answer("Completely unrelated text.", "Who is the instructor?")
            .is_some());
    }

    /// Sentences whose tokenization depends on neighbouring bytes: word-
    /// internal `:` `.` `@` `-` `'`, year abbreviations, non-ASCII words.
    const SENTENCES: [&str; 6] = [
        "Lectures are on Monday at 10:30 in room 5",
        "Contact: jane@cs.edu or Prof. Wei-Chen O'Brien",
        "PLDI '21 (PC), CAV '20 (PC): Committees",
        "Müller café: Zoë Saldaña, 北京大学 students",
        "Deadline: January 15, 2026 — e.g. papers",
        "  spaced   out: words ",
    ];

    proptest::proptest! {
        /// A span's words read off the sentence's normalized words are
        /// the words its own text normalizes to, whenever `span` does not
        /// refuse the bounds; word-aligned bounds are never refused.
        #[test]
        fn span_words_equal_the_span_text_words(
            which in 0usize..SENTENCES.len(),
            a in 0usize..64,
            b in 0usize..64,
        ) {
            let sentence = SENTENCES[which];
            let snap = |i: usize| {
                let mut i = i.min(sentence.len());
                while !sentence.is_char_boundary(i) {
                    i -= 1;
                }
                i
            };
            let (start, end) = (snap(a.min(b)), snap(a.max(b)));
            let sw = SentenceWords::new(sentence);
            if let Some(span_words) = sw.span(start, end) {
                proptest::prop_assert_eq!(span_words, &SentenceWords::new(&sentence[start..end]).norm[..]);
            }
            for w in words(sentence) {
                for v in words(sentence).iter().filter(|v| v.end >= w.start) {
                    let (lo, hi) = (w.start.min(v.end), w.start.max(v.end));
                    let span_words = sw.span(lo, hi);
                    proptest::prop_assert!(span_words.is_some());
                    proptest::prop_assert_eq!(
                        span_words.unwrap(),
                        &SentenceWords::new(&sentence[lo..hi]).norm[..]
                    );
                }
            }
        }
    }

    #[test]
    fn a_colon_tail_inside_a_word_is_scored_from_its_text() {
        let sentence = "Lectures at 10:30 today";
        let colon = sentence.find(':').unwrap();
        let sw = SentenceWords::new(sentence);
        assert_eq!(sw.span(colon + 1, sentence.len()), None);
        assert_eq!(SentenceWords::new(&sentence[colon + 1..]).norm[0], "30");
    }

    #[test]
    fn colon_tail_fallback() {
        let passage = "Topics of interest: program synthesis, type systems, static analysis";
        let a = qa()
            .answer(passage, "What are the topics of interest?")
            .expect("answer");
        assert!(a.text.contains("program synthesis"), "got {a:?}");
    }
}
