//! Word tokenization and sentence segmentation.
//!
//! The paper uses spaCy for sentence segmentation (Section 7); this module
//! is the from-scratch replacement. Unlike the *scoring* tokenizer in
//! `webqa-metrics`, these tokens keep their original case and byte offsets
//! because the NER and QA models need both.

/// A word token with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Word<'a> {
    /// The token text (original case).
    pub text: &'a str,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

impl Word<'_> {
    /// Whether the word starts with an uppercase letter.
    pub(crate) fn is_capitalized(&self) -> bool {
        self.text.chars().next().is_some_and(|c| c.is_uppercase())
    }

    /// Whether the word is entirely alphabetic.
    pub(crate) fn is_alpha(&self) -> bool {
        !self.text.is_empty() && self.text.chars().all(|c| c.is_alphabetic())
    }

    /// Whether the word is entirely numeric.
    pub(crate) fn is_numeric(&self) -> bool {
        !self.text.is_empty() && self.text.chars().all(|c| c.is_ascii_digit())
    }
}

/// Splits text into [`Word`]s: maximal runs of alphanumerics plus
/// word-internal `'`, `-`, `.`, `:`, `@` (emails, times, abbreviations).
pub fn words(text: &str) -> Vec<Word<'_>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if is_word_byte(bytes[i]) {
            let start = i;
            while i < bytes.len() && (is_word_byte(bytes[i]) || is_internal(bytes, i)) {
                i += 1;
            }
            out.push(Word {
                text: &text[start..i],
                start,
                end: i,
            });
        } else if bytes[i] == b'\'' && i + 1 < bytes.len() && bytes[i + 1].is_ascii_digit() {
            // Year abbreviation: '21
            let start = i;
            i += 1;
            while i < bytes.len() && bytes[i].is_ascii_digit() {
                i += 1;
            }
            out.push(Word {
                text: &text[start..i],
                start,
                end: i,
            });
        } else {
            i += utf8_len(bytes[i]);
        }
    }
    out
}

fn is_word_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b >= 0x80
}

fn is_internal(bytes: &[u8], i: usize) -> bool {
    matches!(bytes[i], b'\'' | b'-' | b'.' | b':' | b'@')
        && i > 0
        && is_word_byte(bytes[i - 1])
        && i + 1 < bytes.len()
        && is_word_byte(bytes[i + 1])
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b >= 0xF0 => 4,
        b if b >= 0xE0 => 3,
        _ => 2,
    }
}

/// A sentence with its byte span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sentence<'a> {
    /// The sentence text (trimmed).
    pub text: &'a str,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
}

/// Segments text into sentences.
///
/// Splits on `.`, `!`, `?`, newlines, and semicolons, while protecting
/// common abbreviations ("Dr.", "Prof.", "e.g.") and decimal numbers.
pub fn sentences(text: &str) -> Vec<Sentence<'_>> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        let is_break = match b {
            b'!' | b'?' | b'\n' | b';' => true,
            b'.' => {
                let prev_word = last_word(&text[start..i]);
                let next_is_space = bytes.get(i + 1).is_none_or(|&n| n.is_ascii_whitespace());
                next_is_space && !is_abbreviation(prev_word)
            }
            _ => false,
        };
        if is_break {
            push_sentence(text, start, i + 1, &mut out);
            start = i + 1;
        }
        i += 1;
    }
    push_sentence(text, start, text.len(), &mut out);
    out
}

fn push_sentence<'a>(text: &'a str, start: usize, end: usize, out: &mut Vec<Sentence<'a>>) {
    let raw = &text[start..end.min(text.len())];
    let trimmed = raw.trim_matches(|c: char| c.is_whitespace() || c == '.' || c == ';');
    if trimmed.is_empty() {
        return;
    }
    let offset = raw.find(trimmed).unwrap_or(0);
    out.push(Sentence {
        text: trimmed,
        start: start + offset,
        end: start + offset + trimmed.len(),
    });
}

fn last_word(s: &str) -> &str {
    s.rsplit(|c: char| c.is_whitespace()).next().unwrap_or("")
}

fn is_abbreviation(word: &str) -> bool {
    let w = word.trim_end_matches('.');
    matches!(
        w.to_ascii_lowercase().as_str(),
        "dr" | "prof"
            | "mr"
            | "mrs"
            | "ms"
            | "st"
            | "jr"
            | "sr"
            | "vs"
            | "etc"
            | "e.g"
            | "i.e"
            | "ph.d"
            | "m.d"
            | "u.s"
            | "dept"
            | "univ"
            | "vol"
            | "no"
            | "pp"
            | "al"
    ) || (w.len() == 1 && w.chars().all(|c| c.is_ascii_uppercase()))
}

/// Lowercased word strings (convenience for bag-of-words overlap).
pub fn lower_words(text: &str) -> Vec<String> {
    words(text).iter().map(|w| w.text.to_lowercase()).collect()
}

/// English stopwords used by the QA overlap scorer and keyword matcher.
pub(crate) fn is_stopword(w: &str) -> bool {
    matches!(
        w,
        "a" | "an"
            | "the"
            | "of"
            | "in"
            | "on"
            | "at"
            | "to"
            | "for"
            | "and"
            | "or"
            | "is"
            | "are"
            | "was"
            | "were"
            | "be"
            | "been"
            | "this"
            | "that"
            | "these"
            | "those"
            | "with"
            | "by"
            | "from"
            | "as"
            | "it"
            | "its"
            | "their"
            | "his"
            | "her"
            | "he"
            | "she"
            | "they"
            | "them"
            | "has"
            | "have"
            | "had"
            | "do"
            | "does"
            | "did"
            | "not"
            | "what"
            | "which"
            | "who"
            | "whom"
            | "when"
            | "where"
            | "how"
            | "why"
            | "whose"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_offsets_are_exact() {
        let text = "Jane Doe, PLDI '21";
        let ws = words(text);
        let spans: Vec<&str> = ws.iter().map(|w| &text[w.start..w.end]).collect();
        let texts: Vec<&str> = ws.iter().map(|w| w.text).collect();
        assert_eq!(spans, texts);
        assert_eq!(texts, ["Jane", "Doe", "PLDI", "'21"]);
    }

    #[test]
    fn emails_and_times_stay_whole() {
        let ws = lower_words("jane@cs.edu at 10:30");
        assert_eq!(ws, ["jane@cs.edu", "at", "10:30"]);
    }

    #[test]
    fn capitalization_predicate() {
        let text = "Jane doe";
        let ws = words(text);
        assert!(ws[0].is_capitalized());
        assert!(!ws[1].is_capitalized());
    }

    #[test]
    fn numeric_and_alpha_predicates() {
        let text = "CS 2021 x1";
        let ws = words(text);
        assert!(ws[0].is_alpha() && !ws[0].is_numeric());
        assert!(ws[1].is_numeric() && !ws[1].is_alpha());
        assert!(!ws[2].is_alpha() && !ws[2].is_numeric());
    }

    #[test]
    fn simple_sentences() {
        let s = sentences("First one. Second one! Third?");
        let texts: Vec<&str> = s.iter().map(|x| x.text).collect();
        assert_eq!(texts, ["First one", "Second one!", "Third?"]);
    }

    #[test]
    fn abbreviations_do_not_split() {
        let s = sentences("Dr. Jane Doe is a professor. She works at Univ. of Texas.");
        assert_eq!(s.len(), 2);
        assert!(s[0].text.starts_with("Dr. Jane"));
    }

    #[test]
    fn decimal_numbers_do_not_split() {
        let s = sentences("GPA is 3.5 overall. Next.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn newlines_split() {
        let s = sentences("line one\nline two");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn empty_text() {
        assert!(words("").is_empty());
        assert!(sentences("").is_empty());
        assert!(sentences(" .. ").is_empty());
    }

    #[test]
    fn sentence_offsets_are_exact() {
        let text = "Alpha beta. Gamma delta.";
        for s in sentences(text) {
            assert_eq!(&text[s.start..s.end], s.text);
        }
    }

    #[test]
    fn initials_do_not_split() {
        let s = sentences("J. Doe wrote this. Done.");
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn stopwords() {
        assert!(is_stopword("the"));
        assert!(is_stopword("who"));
        assert!(!is_stopword("committee"));
    }

    #[test]
    fn unicode_words() {
        let ws = lower_words("Müller café");
        assert_eq!(ws, ["müller", "café"]);
    }
}
