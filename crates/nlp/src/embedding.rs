//! Hashed distributional embeddings and keyword similarity.
//!
//! Stands in for Sentence-BERT (Section 7 of the paper): the DSL's
//! `matchKeyword(z, K, t)` predicate needs a *graded semantic similarity*
//! in `[0, 1]` between a keyword and a piece of page text. We build it
//! from:
//!
//! * character-trigram hash embeddings (fastText-style), which give high
//!   similarity to inflectional variants ("Service" ≈ "Services");
//! * a synonym/canonicalization table, which supplies the "semantic" part
//!   a real sentence encoder learns from data ("PC" ≈ "program
//!   committee", "advisees" ≈ "students");
//! * max-pooling over sliding word windows, so a keyword can match inside
//!   a longer section title.
//!
//! Everything is deterministic — no model files, no RNG at query time.

use std::collections::HashMap;
use std::sync::Mutex;

const DIM: usize = 64;

/// A dense embedding vector.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedding {
    v: [f32; DIM],
}

impl Embedding {
    /// The zero vector (embedding of empty text).
    pub(crate) fn zero() -> Self {
        Embedding { v: [0.0; DIM] }
    }

    /// Whether this is (numerically) the zero vector.
    pub fn is_zero(&self) -> bool {
        self.v.iter().all(|x| x.abs() < 1e-12)
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either side is zero.
    pub fn cosine(&self, other: &Embedding) -> f32 {
        self.cosine_with_norms(self.norm(), other, other.norm())
    }

    /// [`Embedding::cosine`] given both sides' [`Embedding::norm`]s.
    fn cosine_with_norms(&self, na: f32, other: &Embedding, nb: f32) -> f32 {
        let dot: f32 = self.v.iter().zip(&other.v).map(|(a, b)| a * b).sum();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            (dot / (na * nb)).clamp(-1.0, 1.0)
        }
    }

    /// The Euclidean norm, as every cosine computes it.
    fn norm(&self) -> f32 {
        self.v.iter().map(|a| a * a).sum::<f32>().sqrt()
    }

    fn add(&mut self, other: &Embedding, weight: f32) {
        for (a, b) in self.v.iter_mut().zip(&other.v) {
            *a += b * weight;
        }
    }

    fn normalize(mut self) -> Self {
        let n = self.norm();
        if n > 0.0 {
            for a in self.v.iter_mut() {
                *a /= n;
            }
        }
        self
    }
}

/// 64-bit SplitMix hash — the deterministic "random projection" that maps
/// trigrams to directions.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

fn hash_str(s: &str, salt: u64) -> u64 {
    let mut h = salt ^ 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    splitmix64(h)
}

/// A pseudo-random unit-ish vector derived from a string.
fn feature_vector(s: &str, salt: u64) -> Embedding {
    let mut e = Embedding::zero();
    let mut state = hash_str(s, salt);
    for chunk in e.v.chunks_mut(1) {
        state = splitmix64(state);
        // Map to roughly N(0,1) via sum of uniform bits; a coarse
        // triangular distribution is plenty for random projections.
        let a = (state & 0xFFFF) as f32 / 65535.0;
        let b = ((state >> 16) & 0xFFFF) as f32 / 65535.0;
        chunk[0] = a + b - 1.0;
    }
    e
}

/// Light stemmer: lowercases and strips simple plural/inflection suffixes.
pub(crate) fn stem(word: &str) -> String {
    let w = word.to_lowercase();
    if w.len() > 4 && w.ends_with("ies") {
        format!("{}y", &w[..w.len() - 3])
    } else if w.len() > 3 && w.ends_with('s') && !w.ends_with("ss") {
        // Covers plain plurals and "-es" forms alike: "services" ->
        // "service", "students" -> "student", while keeping "class".
        w[..w.len() - 1].to_string()
    } else {
        w
    }
}

/// Synonym canonicalization: maps domain abbreviations and near-synonyms
/// to a shared canonical phrase, the stand-in for learned semantics.
pub(crate) fn canonicalize(word: &str) -> &'static str {
    canonical_of_stem(&stem(word))
}

/// [`canonicalize`] of a word whose [`stem`] is `stem`.
fn canonical_of_stem(stem: &str) -> &'static str {
    // Returned strings may be multi-word; they are re-tokenized by the
    // phrase embedder.
    match stem {
        "pc" => "program committee",
        "committee" => "committee",
        "advisee" | "student" | "mentee" => "student",
        "advisor" | "adviser" => "advisor",
        "ta" | "assistant" => "assistant",
        "phd" | "ph.d" | "doctoral" => "phd",
        "publication" | "paper" => "publication",
        "course" | "class" | "classe" => "course",
        "teaching" | "taught" | "teache" | "teach" => "teaching",
        "service" | "activity" => "service",
        "talk" | "presentation" => "talk",
        "deadline" | "due" => "deadline",
        "submission" | "submit" => "submission",
        "instructor" | "lecturer" | "teacher" => "instructor",
        "exam" | "midterm" | "final" | "test" => "exam",
        "grade" | "grading" | "rubric" | "assessment" => "grading",
        "textbook" | "book" | "material" | "text" => "textbook",
        "doctor" | "physician" | "provider" | "dr" => "doctor",
        "insurance" | "plan" | "coverage" => "insurance",
        "treatment" | "specialty" | "specialization" => "treatment",
        "location" | "office" | "address" | "directions" | "direction" => "location",
        "alumni" | "alumnu" | "graduate" | "former" => "alumni",
        "chair" | "co-chair" | "cochair" => "chair",
        "topic" | "interest" | "area" => "topic",
        "schedule" | "time" | "lecture" | "section" => "schedule",
        "member" | "people" | "team" | "staff" => "member",
        "award" | "prize" | "honor" => "award",
        "news" | "announcement" => "news",
        "conference" | "venue" => "conference",
        "contact" | "email" | "e-mail" | "phone" => "contact",
        _ => "",
    }
}

/// Embeds a single word, given its [`stem`]: trigram vectors + whole-word
/// vector, with synonym canonicalization applied first. A word's
/// embedding depends on its stem alone, which is what lets [`KeywordSet`]
/// memoize it by stem.
fn embed_stem(stem: &str) -> Embedding {
    let canon = canonical_of_stem(stem);
    if !canon.is_empty() && canon.contains(' ') {
        // Multi-word canonical form ("program committee"): embed as phrase.
        return embed_phrase_words(&canon.split(' ').collect::<Vec<_>>());
    }
    let surface = if canon.is_empty() { stem } else { canon };
    let mut e = Embedding::zero();
    let padded = format!("^{surface}$");
    let chars: Vec<char> = padded.chars().collect();
    if chars.len() >= 3 {
        for w in chars.windows(3) {
            let tri: String = w.iter().collect();
            e.add(&feature_vector(&tri, 0x7121), 1.0);
        }
    }
    // The whole-word direction dominates so different words with shared
    // trigrams stay distinguishable.
    e.add(&feature_vector(surface, 0xB00F_ABCD), 2.0);
    e.normalize()
}

fn embed_phrase_words(words: &[&str]) -> Embedding {
    normalized_sum(words.iter().map(|w| embed_stem(&stem(w))))
}

/// The normalized sum of `vectors`, added in order. Every phrase, window
/// and whole-text embedding goes through this one summation, so the same
/// word vectors in the same order give bit-identical results however they
/// were obtained.
fn normalized_sum<E: std::borrow::Borrow<Embedding>>(
    vectors: impl IntoIterator<Item = E>,
) -> Embedding {
    let mut e = Embedding::zero();
    for v in vectors {
        e.add(v.borrow(), 1.0);
    }
    e.normalize()
}

/// Embeds an arbitrary text as the normalized sum of its content-word
/// embeddings.
pub fn embed(text: &str) -> Embedding {
    let words: Vec<String> = crate::text::lower_words(text);
    let refs: Vec<&str> = words.iter().map(|s| s.as_str()).collect();
    embed_phrase_words(&refs)
}

/// Semantic similarity between a keyword and a text, in `[0, 1]`.
///
/// Implements the scoring behind the DSL's `matchKeyword(z, k, t)`: the
/// keyword embedding is compared against every sliding window of the text
/// whose width matches the keyword's (±1 word), and the best cosine is
/// mapped to `[0, 1]`. An exact (case-insensitive, stemmed) phrase match
/// short-circuits to 1.0.
///
/// # Examples
///
/// ```
/// use webqa_nlp::keyword_similarity;
/// assert_eq!(keyword_similarity("Professional Service", "Service"), 1.0);
/// let near = keyword_similarity("Professional Services", "Service");
/// assert!(near > 0.9);
/// let far = keyword_similarity("Recent Publications", "Service");
/// assert!(far < 0.5);
/// ```
pub fn keyword_similarity(text: &str, keyword: &str) -> f32 {
    KeywordSet::new(&[keyword]).best_similarity(text)
}

/// Similarity of `text` against the best-matching keyword in `keywords`.
pub fn best_keyword_similarity<S: AsRef<str>>(text: &str, keywords: &[S]) -> f32 {
    KeywordSet::new(keywords).best_similarity(text)
}

/// A keyword list `K` embedded once, to be scored against many texts.
///
/// [`KeywordSet::best_similarity`] is [`keyword_similarity`] maximized over
/// the keywords, bit for bit. That score is a maximum over the text's word
/// windows (each window against the keywords that ask for its width) and
/// over the whole text, and the maximum of finite floats does not depend
/// on the order it is taken in, so the set memoizes it by its parts:
///
/// * each distinct surface word's stem id, so a known word costs one hash
///   lookup and no lowercasing or stemming;
/// * each stem's word vector, embedded once;
/// * each distinct window's score: its best clamped cosine over the
///   keywords that ask for its width, or 1.0 when it equals a keyword's
///   stems. A window is keyed by its stem ids, whose count is its width,
///   and its vector is the same in-order `normalized_sum` of word
///   vectors the per-keyword scorer builds.
///
/// So each distinct word window is scored once over the set's lifetime,
/// however many texts contain it; only the whole-text cosines are per
/// text. The memos grow with the words and windows the set has scored and
/// are dropped with the set; a `QueryContext` owns one set, so they last
/// one run.
#[derive(Debug)]
pub struct KeywordSet {
    /// The keywords with at least one word; an empty keyword scores 0.
    keywords: Vec<PreparedKeyword>,
    /// Every window width some keyword asks for, ascending.
    widths: Vec<usize>,
    /// Behind a lock so a shared set stays `Sync`; one call holds it
    /// throughout.
    memo: Mutex<KeywordMemo>,
}

#[derive(Debug)]
struct PreparedKeyword {
    /// Stem id of each word.
    stems: Vec<u32>,
    embedding: Embedding,
    /// `embedding`'s norm, as [`Embedding::cosine`] computes it.
    norm: f32,
    /// Whether the keyword is compared by cosine at all; a zero
    /// embedding only matches exactly.
    scorable: bool,
}

impl PreparedKeyword {
    /// The window widths the keyword is compared against: its own width
    /// ±1, which includes the width of an exact match.
    fn widths(&self) -> std::ops::RangeInclusive<usize> {
        let n = self.stems.len();
        n.saturating_sub(1).max(1)..=n + 1
    }

    /// Whether the keyword compares its embedding against windows of
    /// `width` words.
    fn asks(&self, width: usize) -> bool {
        self.scorable && self.widths().contains(&width)
    }
}

#[derive(Debug, Default)]
struct KeywordMemo {
    /// Surface word (as tokenized, original case) → stem id.
    surface: HashMap<String, u32>,
    /// Stem → stem id.
    stems: HashMap<String, u32>,
    /// Word vector by stem id.
    vectors: Vec<Embedding>,
    /// Stem ids of a window → the window's score.
    windows: HashMap<Box<[u32]>, f32>,
}

impl KeywordMemo {
    /// The id of `stem`, embedding it on first sight.
    fn stem_id(&mut self, stem: String) -> u32 {
        if let Some(&id) = self.stems.get(&stem) {
            return id;
        }
        let id = self.vectors.len() as u32;
        self.vectors.push(embed_stem(&stem));
        self.stems.insert(stem, id);
        id
    }

    /// The stem id of the tokenized word `surface`.
    fn surface_id(&mut self, surface: &str) -> u32 {
        if let Some(&id) = self.surface.get(surface) {
            return id;
        }
        let id = self.stem_id(stem(&surface.to_lowercase()));
        self.surface.insert(surface.to_string(), id);
        id
    }

    fn sum(&self, ids: &[u32]) -> Embedding {
        normalized_sum(ids.iter().map(|&id| &self.vectors[id as usize]))
    }
}

impl KeywordSet {
    /// Embeds each keyword of `keywords`.
    pub fn new<S: AsRef<str>>(keywords: &[S]) -> Self {
        let mut memo = KeywordMemo::default();
        let keywords: Vec<PreparedKeyword> = keywords
            .iter()
            .filter_map(|k| {
                let words = crate::text::lower_words(k.as_ref());
                (!words.is_empty()).then(|| {
                    let stems: Vec<u32> = words.iter().map(|w| memo.stem_id(stem(w))).collect();
                    let embedding = memo.sum(&stems);
                    PreparedKeyword {
                        norm: embedding.norm(),
                        scorable: !embedding.is_zero(),
                        stems,
                        embedding,
                    }
                })
            })
            .collect();
        let mut widths: Vec<usize> = keywords.iter().flat_map(|k| k.widths()).collect();
        widths.sort_unstable();
        widths.dedup();
        KeywordSet {
            keywords,
            widths,
            memo: Mutex::new(memo),
        }
    }

    /// Similarity of `text` against its best-matching keyword, in
    /// `[0, 1]`; 0 for an empty text or keyword list.
    pub fn best_similarity(&self, text: &str) -> f32 {
        if self.keywords.is_empty() {
            return 0.0;
        }
        let mut memo = self.memo.lock().expect("keyword memo lock poisoned");
        let ids: Vec<u32> = crate::text::words(text)
            .iter()
            .map(|w| memo.surface_id(w.text))
            .collect();
        if ids.is_empty() {
            return 0.0;
        }
        let mut best: f32 = 0.0;
        for &width in self.widths.iter().take_while(|&&w| w <= ids.len()) {
            for window in ids.windows(width) {
                let score = match memo.windows.get(window) {
                    Some(&score) => score,
                    None => {
                        let score = self.window_score(&memo, window);
                        memo.windows.insert(window.into(), score);
                        score
                    }
                };
                best = best.max(score);
            }
        }
        if best == 1.0 {
            // An exact match: no cosine exceeds it.
            return best;
        }
        // Whole-text comparison helps when the text is shorter than the
        // keyword.
        let whole = memo.sum(&ids);
        let whole_norm = whole.norm();
        for k in self.keywords.iter().filter(|k| k.scorable) {
            best = best.max(k.embedding.cosine_with_norms(k.norm, &whole, whole_norm));
        }
        best
    }

    /// The score of the word window `window` (stem ids): 1.0 when it
    /// equals a keyword's stems, else its best cosine over the keywords
    /// that ask for its width, clamped below at 0.
    fn window_score(&self, memo: &KeywordMemo, window: &[u32]) -> f32 {
        if self.keywords.iter().any(|k| k.stems == window) {
            return 1.0;
        }
        let e = memo.sum(window);
        let norm = e.norm();
        let mut best: f32 = 0.0;
        for k in self.keywords.iter().filter(|k| k.asks(window.len())) {
            best = best.max(k.embedding.cosine_with_norms(k.norm, &e, norm));
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_words_have_similarity_one() {
        assert_eq!(keyword_similarity("Students", "Students"), 1.0);
    }

    #[test]
    fn plural_variants_match_exactly_after_stemming() {
        assert_eq!(keyword_similarity("Students", "Student"), 1.0);
        assert_eq!(keyword_similarity("Professional Services", "Services"), 1.0);
    }

    #[test]
    fn synonyms_score_high() {
        // "PC" canonicalizes to "program committee"
        assert!(keyword_similarity("PC", "Program Committee") > 0.9);
        assert!(keyword_similarity("Advisees", "Students") > 0.9);
        assert!(keyword_similarity("Activities", "Service") > 0.9);
    }

    #[test]
    fn unrelated_words_score_low() {
        assert!(keyword_similarity("Recent Publications", "Insurance") < 0.5);
        assert!(keyword_similarity("Contact", "Students") < 0.5);
    }

    #[test]
    fn keyword_inside_longer_title() {
        assert_eq!(keyword_similarity("Current PhD Students", "PhD"), 1.0);
        assert!(keyword_similarity("Our Professional Service Activities", "Service") > 0.9);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(keyword_similarity("", "x"), 0.0);
        assert_eq!(keyword_similarity("x", ""), 0.0);
    }

    #[test]
    fn best_keyword_takes_max() {
        let kws = ["Insurance", "Students"];
        let s = best_keyword_similarity("PhD Students", &kws);
        assert_eq!(s, 1.0);
        assert!(best_keyword_similarity("totally unrelated gibberish", &kws) < 0.6);
    }

    #[test]
    fn similarity_is_deterministic() {
        let a = keyword_similarity("Professional Services", "Committee");
        let b = keyword_similarity("Professional Services", "Committee");
        assert_eq!(a, b);
    }

    #[test]
    fn cosine_bounds() {
        let e1 = embed("alpha beta");
        let e2 = embed("gamma delta");
        let c = e1.cosine(&e2);
        assert!((-1.0..=1.0).contains(&c));
        assert!((e1.cosine(&e1) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn zero_embedding_behaviour() {
        let z = Embedding::zero();
        assert!(z.is_zero());
        assert_eq!(z.cosine(&embed("x")), 0.0);
    }

    #[test]
    fn trigram_overlap_gives_partial_similarity() {
        // "organization" vs "organizational" share most trigrams.
        let s = keyword_similarity("organizational", "organization");
        assert!(s > 0.5, "got {s}");
    }
}
