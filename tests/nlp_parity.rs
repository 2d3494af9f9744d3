//! Corpus-wide parity of the three neural stand-ins.
//!
//! Every own text and every subtree text of every node of
//! `Corpus::generate(8, 42)` is run through the entity recognizers (both
//! variants), the QA model (each task's question over its domain, cold
//! and through one warm `QaSession` per task) and one warm `KeywordSet`
//! per task, and every 1–3-word window of every own text, cut as
//! `StringExtractor` cuts `matchKeyword` candidates, through one warm
//! `KeywordSet` per task; the outputs are folded into digests. The
//! entity, answer and whole-text keyword digests were recorded before the
//! modules learned to do per-word work once (the keyword set's word memo
//! and the entity recognizer's pre-split lexicons), the window digest
//! before the keyword set memoized window scores; the warm session must
//! reproduce the cold answer digest, recorded before sessions memoized
//! sentence scores. A change that moves one entity boundary, one answer
//! span or one score bit fails here and names the module.

use webqa_corpus::{Corpus, Domain, TASKS};
use webqa_nlp::{EntityRecognizer, KeywordSet, QaAnswer, QaModel};

/// FNV-1a over a stream of integers.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn push(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

/// The own text and the subtree text of every node of every page of
/// `domain`, in page and pre-order.
fn texts(corpus: &Corpus, domain: Domain) -> Vec<String> {
    let mut out = Vec::new();
    for page in corpus.pages(domain) {
        let tree = page.tree();
        for id in tree.iter() {
            out.push(tree.text(id).to_string());
            out.push(tree.subtree_text(id));
        }
    }
    out
}

const DOMAINS: [Domain; 4] = [
    Domain::Faculty,
    Domain::Conference,
    Domain::Class,
    Domain::Clinic,
];

#[test]
fn entity_spans_match_the_recorded_digest() {
    let corpus = Corpus::generate(8, 42);
    let mut digest = Digest::new();
    let mut entities = 0u64;
    for domain in DOMAINS {
        for text in texts(&corpus, domain) {
            for ner in [
                EntityRecognizer::pretrained(),
                EntityRecognizer::with_conference_orgs(),
            ] {
                for e in ner.entities(&text) {
                    assert_eq!(&text[e.start..e.end], e.text);
                    digest.push(e.kind as u64);
                    digest.push(e.start as u64);
                    digest.push(e.end as u64);
                    entities += 1;
                }
                digest.push(u64::MAX);
            }
        }
    }
    assert_eq!((entities, digest.0), (4565, 7_680_743_149_321_121_207));
}

/// Folds `answer`'s reply to each task's question over each text of the
/// task's domain into a digest: `(answered, digest)`. `session` is called
/// once per task and returns that task's answerer.
fn answer_digest<A: Fn(&str) -> Option<QaAnswer>>(
    session: impl Fn(&'static str) -> A,
) -> (u64, u64) {
    let corpus = Corpus::generate(8, 42);
    let mut digest = Digest::new();
    let mut answered = 0u64;
    for task in &TASKS {
        let answer = session(task.question);
        for text in texts(&corpus, task.domain) {
            match answer(&text) {
                Some(a) => {
                    digest.push(a.start as u64);
                    digest.push(a.end as u64);
                    digest.push(u64::from(a.score.to_bits()));
                    answered += 1;
                }
                None => digest.push(u64::MAX),
            }
        }
    }
    (answered, digest.0)
}

#[test]
fn answer_spans_match_the_recorded_digest() {
    let qa = QaModel::pretrained();
    let cold = answer_digest(|question| {
        let qa = &qa;
        move |text: &str| qa.answer(text, question)
    });
    assert_eq!(cold, (590, 13_947_192_238_929_146_069));
}

#[test]
fn warm_session_answer_spans_match_the_recorded_digest() {
    // One session per task answers over the whole domain, as one query
    // context does over a run, so later texts read sentence scores
    // memoized by earlier ones.
    let qa = QaModel::pretrained();
    let warm = answer_digest(|question| {
        let session = qa.session(question);
        move |text: &str| session.answer(text)
    });
    assert_eq!(warm, (590, 13_947_192_238_929_146_069));
}

#[test]
fn warm_keyword_scores_match_the_recorded_digest() {
    let corpus = Corpus::generate(8, 42);
    let mut digest = Digest::new();
    for task in &TASKS {
        // One set per task scores the whole domain, as one query context
        // does over a run.
        let set = KeywordSet::new(task.keywords);
        for text in texts(&corpus, task.domain) {
            digest.push(u64::from(set.best_similarity(&text).to_bits()));
        }
    }
    assert_eq!(digest.0, 9_043_281_728_028_333_853);
}

/// Longest own text, in words, whose windows `StringExtractor` scores
/// (`MAX_WINDOW_WORDS` in `webqa_dsl::eval`).
const MAX_WINDOW_WORDS: usize = 40;

#[test]
fn warm_window_scores_match_the_recorded_digest() {
    let corpus = Corpus::generate(8, 42);
    let mut digest = Digest::new();
    let mut windows = 0u64;
    for task in &TASKS {
        let set = KeywordSet::new(task.keywords);
        for page in corpus.pages(task.domain) {
            let tree = page.tree();
            for id in tree.iter() {
                // Every 1–3-word window, cut as `StringExtractor` cuts a
                // `matchKeyword` substring's candidates.
                let z = tree.text(id);
                let words = webqa_nlp::text::words(z);
                let n = words.len().min(MAX_WINDOW_WORDS);
                for width in 1..=n.min(3) {
                    for start in 0..=(n - width) {
                        let (s, e) = (words[start].start, words[start + width - 1].end);
                        digest.push(u64::from(set.best_similarity(&z[s..e]).to_bits()));
                        windows += 1;
                    }
                }
            }
        }
    }
    assert_eq!((windows, digest.0), (54_043, 4_323_334_485_126_897_787));
}
