//! Property-based tests for the simulated NLP modules: totality,
//! determinism, bounded scores, and offset validity — the contracts the
//! DSL evaluator and synthesizer rely on.

use proptest::prelude::*;
use webqa_nlp::{
    best_keyword_similarity, embed, keyword_similarity, text, EntityKind, EntityRecognizer,
    KeywordSet, QaModel,
};

/// Reference scorer: the original per-keyword `keyword_similarity` body,
/// which re-embedded the keyword and every window on each call. The
/// keyword-set kernel must reproduce it bit for bit.
fn reference_keyword_similarity(text: &str, keyword: &str) -> f32 {
    let text_words = webqa_nlp::text::lower_words(text);
    let kw_words = webqa_nlp::text::lower_words(keyword);
    if kw_words.is_empty() || text_words.is_empty() {
        return 0.0;
    }
    // Exact stemmed phrase containment → 1.0.
    let kw_stems: Vec<String> = kw_words.iter().map(|w| stem(w)).collect();
    let text_stems: Vec<String> = text_words.iter().map(|w| stem(w)).collect();
    if text_stems
        .windows(kw_stems.len())
        .any(|w| w == kw_stems.as_slice())
    {
        return 1.0;
    }
    let kw_emb = embed(keyword);
    if kw_emb.is_zero() {
        return 0.0;
    }
    let mut best: f32 = 0.0;
    let widths = [
        kw_words.len().saturating_sub(1).max(1),
        kw_words.len(),
        kw_words.len() + 1,
    ];
    for &w in &widths {
        if w == 0 || w > text_words.len() {
            continue;
        }
        for window in text_words.windows(w) {
            let refs: Vec<&str> = window.iter().map(|s| s.as_str()).collect();
            let e = embed_phrase_words(&refs);
            best = best.max(kw_emb.cosine(&e));
        }
    }
    // Whole-text comparison helps when the text is shorter than the keyword.
    best = best.max(kw_emb.cosine(&embed(text)));
    best.max(0.0)
}

/// The crate's private stemmer, copied verbatim for the reference.
fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    if w.len() > 4 && w.ends_with("ies") {
        format!("{}y", &w[..w.len() - 3])
    } else if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
        w[..w.len() - 1].to_string()
    } else {
        w
    }
}

/// The crate's private phrase embedder, through the public `embed`:
/// `refs` are already `lower_words` output, and re-tokenizing them joined
/// by spaces yields the same words, so this is the same sum in the same
/// order.
fn embed_phrase_words(refs: &[&str]) -> webqa_nlp::Embedding {
    embed(&refs.join(" "))
}

/// Keyword pool: synonyms from the canonicalization table, multi-word
/// phrases, the empty keyword, non-ASCII and random words.
const KEYWORD: &str = "PC|advisees|Advisees|Program Committee|Professional Services|\
Ph\\.D Students||Études|naïve 中文|[a-zA-Zéü]{1,10}|[a-z]{1,8} [a-z]{1,8}";

/// Page-like text over the same vocabulary plus punctuation.
const TEXT: &str = "((PC|program|committee|Advisees|students|service|Études|naïve|中文|\
Ph\\.D|'21|[a-zA-Zéüß]{1,8})[ ,.:()]{1,2}){0,12}";

/// Texts over a small vocabulary, so a sequence of them repeats words:
/// inflections and case variants of one stem, stems that share a prefix
/// ("studio"/"students", "serve"/"service"), a multi-word synonym ("PC"),
/// stopwords and non-ASCII words.
const VOCAB_TEXT: &str = "((PC|pc|program|Programs|committee|Committees|students|Student|\
studio|studies|advisee|Advisees|service|Services|serve|server|Ph\\.D|naïve|Études|中文|a|the)\
[ ,.:]{1,2}){0,8}";

/// Sentences in the shape of corpus page text: names, dates and times,
/// colon lists, abbreviations, a colon inside "10:30" (whose colon tail
/// cuts through the word), non-ASCII words.
const SENTENCES: [&str; 12] = [
    "Instructor: Jane Doe",
    "Lectures are on Monday at 10:30 in room 5",
    "PhD Students: Robert Smith, Mary Anderson, and Wei Chen",
    "The paper submission deadline is January 15, 2026 for all tracks",
    "Our clinic is located at 123 Main Street in Austin",
    "Dr. Zoë Saldaña accepts Blue Cross and Aetna plans",
    "Program Committee: Ana Lima (MIT), Raj Patel (Stanford)",
    "Topics of interest: program synthesis, type systems, static analysis",
    "Midterm exam: March 3, 2026",
    "Teaching assistants: Li Wei and Sam Green",
    "Best Paper Award, PLDI '21",
    "Office hours by appointment",
];

/// Questions of the benchmark tasks, one per expected answer type.
const QUESTIONS: [&str; 6] = [
    "Who are the current PhD students?",
    "When is the paper submission deadline?",
    "Where are the clinics located?",
    "What are the topics of interest?",
    "When are the lectures or sections?",
    "How much does a visit cost?",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn warm_qa_session_is_bit_identical_to_the_model(
        question in 0usize..QUESTIONS.len(),
        passages in proptest::collection::vec(
            proptest::collection::vec((0usize..SENTENCES.len(), 0usize..3), 1..7),
            1..8,
        ),
    ) {
        // Passages shuffle the sentences with repeats, so one sentence
        // recurs at other positions and in other passages, and one
        // session answers them all from its sentence memo.
        let question = QUESTIONS[question];
        let qa = QaModel::pretrained();
        let session = qa.session(question);
        for parts in &passages {
            let passage: String = parts
                .iter()
                .map(|&(at, sep)| format!("{}{}", SENTENCES[at], [". ", "\n", "; "][sep]))
                .collect();
            let got = session.answer(&passage);
            let want = qa.answer(&passage, question);
            prop_assert_eq!(
                got.as_ref().map(|a| (a.start, a.end, a.text.as_str(), a.score.to_bits())),
                want.as_ref().map(|a| (a.start, a.end, a.text.as_str(), a.score.to_bits())),
                "passage {:?} question {:?}", passage, question
            );
        }
    }

    #[test]
    fn warm_keyword_set_is_bit_identical_to_fresh_sets(
        keywords in proptest::collection::vec(KEYWORD, 0..4),
        texts in proptest::collection::vec(VOCAB_TEXT, 1..12),
    ) {
        // One set scores the whole sequence, so later texts read word
        // vectors memoized by earlier ones.
        let warm = KeywordSet::new(&keywords);
        for text in &texts {
            let got = warm.best_similarity(text);
            let fresh = KeywordSet::new(&keywords).best_similarity(text);
            let want = keywords
                .iter()
                .map(|k| reference_keyword_similarity(text, k))
                .fold(0.0, f32::max);
            prop_assert_eq!(got.to_bits(), fresh.to_bits(), "text {:?} keywords {:?}", text, keywords);
            prop_assert_eq!(got.to_bits(), want.to_bits(), "text {:?} keywords {:?}", text, keywords);
        }
    }

    #[test]
    fn keyword_similarity_bounded(a in "\\PC{0,40}", b in "\\PC{0,20}") {
        let s = keyword_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s), "similarity {s} out of range");
    }

    #[test]
    fn keyword_similarity_deterministic(a in "[a-zA-Z ]{0,30}", b in "[a-zA-Z ]{0,15}") {
        prop_assert_eq!(keyword_similarity(&a, &b), keyword_similarity(&a, &b));
    }

    #[test]
    fn self_similarity_is_one_for_wordful_text(a in "[a-z]{2,10}( [a-z]{2,10}){0,3}") {
        prop_assert_eq!(keyword_similarity(&a, &a), 1.0);
    }

    #[test]
    fn best_keyword_takes_pointwise_max(
        text in "[a-zA-Z ]{0,30}",
        k1 in "[a-zA-Z]{1,10}",
        k2 in "[a-zA-Z]{1,10}",
    ) {
        let both = best_keyword_similarity(&text, &[k1.as_str(), k2.as_str()]);
        let s1 = keyword_similarity(&text, &k1);
        let s2 = keyword_similarity(&text, &k2);
        prop_assert!((both - s1.max(s2)).abs() < 1e-6);
    }

    #[test]
    fn best_keyword_similarity_is_bit_identical_to_reference(
        text in TEXT,
        keywords in proptest::collection::vec(KEYWORD, 0..5),
    ) {
        let want = keywords
            .iter()
            .map(|k| reference_keyword_similarity(&text, k))
            .fold(0.0, f32::max);
        let got = best_keyword_similarity(&text, &keywords);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "text {:?} keywords {:?}", text, keywords);
    }

    #[test]
    fn keyword_similarity_is_bit_identical_on_printable_text(
        text in "\\PC{0,60}",
        keyword in "\\PC{0,20}",
    ) {
        let want = reference_keyword_similarity(&text, &keyword);
        prop_assert_eq!(keyword_similarity(&text, &keyword).to_bits(), want.to_bits());
    }

    #[test]
    fn ner_is_total_and_offsets_valid(s in "\\PC{0,120}") {
        let ner = EntityRecognizer::pretrained();
        for e in ner.entities(&s) {
            prop_assert!(e.start <= e.end && e.end <= s.len());
            prop_assert!(s.is_char_boundary(e.start) && s.is_char_boundary(e.end));
            prop_assert_eq!(&s[e.start..e.end], e.text.as_str());
        }
    }

    #[test]
    fn ner_entities_do_not_overlap(s in "\\PC{0,120}") {
        let ner = EntityRecognizer::pretrained();
        let es = ner.entities(&s);
        for pair in es.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
        }
    }

    #[test]
    fn oracle_ner_is_superset_for_org(s in "[A-Za-z ',.]{0,100}") {
        // with_conference_orgs only ever adds ORG entities.
        let base = EntityRecognizer::pretrained();
        let oracle = EntityRecognizer::with_conference_orgs();
        if base.has_entity(&s, EntityKind::Organization) {
            prop_assert!(oracle.has_entity(&s, EntityKind::Organization));
        }
    }

    #[test]
    fn qa_is_total_and_scores_bounded(p in "\\PC{0,150}", q in "\\PC{0,40}") {
        let qa = QaModel::pretrained();
        if let Some(a) = qa.answer(&p, &q) {
            prop_assert!((0.0..=1.0).contains(&a.score));
            prop_assert!(a.start <= a.end && a.end <= p.len());
        }
    }

    #[test]
    fn qa_deterministic(p in "[a-zA-Z .:,]{0,80}", q in "[a-zA-Z ?]{0,30}") {
        let qa = QaModel::pretrained();
        prop_assert_eq!(qa.answer(&p, &q), qa.answer(&p, &q));
    }

    #[test]
    fn word_offsets_always_slice_back(s in "\\PC{0,120}") {
        for w in text::words(&s) {
            prop_assert_eq!(&s[w.start..w.end], w.text);
        }
    }

    #[test]
    fn sentence_offsets_always_slice_back(s in "\\PC{0,120}") {
        for sent in text::sentences(&s) {
            prop_assert_eq!(&s[sent.start..sent.end], sent.text);
        }
    }

    #[test]
    fn sentences_cover_subset_of_text(s in "[a-zA-Z .!?\n]{0,120}") {
        // Sentences are disjoint and ordered.
        let sents = text::sentences(&s);
        for pair in sents.windows(2) {
            prop_assert!(pair[0].end <= pair[1].start);
        }
    }
}
