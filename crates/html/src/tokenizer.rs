//! HTML tokenizer.
//!
//! A lenient, from-scratch tokenizer in the spirit of the WHATWG
//! tokenization stage, covering the constructs that appear on
//! semi-structured faculty / conference / class / clinic pages *and* the
//! real-world markup the conformance corpus (`tests/fixtures/html5/`)
//! tortures it with: start and end tags with attributes, self-closing
//! tags, comments, doctype, raw-text elements (`script`, `style` verbatim;
//! `textarea` escapable — its character references decode), and character
//! data. Malformed markup never panics — the tokenizer recovers the way
//! browsers do (e.g. a stray `<` becomes text).
//!
//! Input normalization, per the byte-stream preprocessing real pages
//! need: a leading U+FEFF byte-order mark is dropped, `\r\n` / `\r`
//! newlines normalize to `\n`, and U+0000 in decoded content becomes
//! U+FFFD (the replacement character).

use crate::entities::{decode_entities, malformed_entities};

/// One attribute on a start tag, already entity-decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name, lowercased.
    pub name: String,
    /// Attribute value; empty for bare attributes like `disabled`.
    pub value: String,
}

/// A lexical token of the HTML input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum HtmlToken {
    /// `<tag attr="v">`; `self_closing` is true for `<br/>`-style tags.
    StartTag {
        /// Tag name, lowercased.
        name: String,
        /// Attributes in source order.
        attrs: Vec<Attribute>,
        /// Whether the tag ended with `/>`.
        self_closing: bool,
    },
    /// `</tag>`.
    EndTag {
        /// Tag name, lowercased.
        name: String,
    },
    /// Character data between tags, entity-decoded. Whitespace preserved.
    Text(String),
    /// `<!-- ... -->`; content kept for completeness.
    Comment(String),
    /// `<!DOCTYPE ...>`.
    Doctype(String),
}

/// Tokenizes an HTML document (the unit tests' view of [`tokenize_stream`]).
#[cfg(test)]
fn tokenize_html(input: &str) -> Vec<HtmlToken> {
    tokenize_stream(input).tokens
}

/// The full tokenizer output: tokens, their source positions, and entity
/// diagnostics — everything the strict *and* lenient tree builders need
/// from one pass.
pub(crate) struct TokenStream {
    /// The tokens, in input order.
    pub(crate) tokens: Vec<HtmlToken>,
    /// Byte offset in the input where each token starts, aligned with
    /// `tokens` (a merged text run keeps its first fragment's offset).
    pub(crate) offsets: Vec<usize>,
    /// First malformed `&…;` reference found in content that is actually
    /// entity-decoded — text runs, attribute values, and `<textarea>` raw
    /// text. References inside comments, doctype, and `<script>`/`<style>`
    /// raw text are never decoded and therefore never reported. Holds the
    /// verbatim reference and the byte offset of its `&` in the input.
    pub(crate) malformed: Option<(String, usize)>,
    /// Total count of such undecodable references — the lenient path's
    /// `unknown_entities` diagnostic.
    pub(crate) unknown_entities: usize,
}

/// Tokenizes an HTML document into its full [`TokenStream`].
pub(crate) fn tokenize_stream(input: &str) -> TokenStream {
    // A leading byte-order mark is an encoding artifact, not content; it
    // must not become a text node (or an offset skew).
    let input = input.strip_prefix('\u{feff}').unwrap_or(input);
    Tokenizer::new(input).run()
}

/// Normalizes decoded content: `\r\n` / `\r` → `\n`, U+0000 → U+FFFD.
fn normalize_content(s: &str) -> String {
    if !s.contains('\r') && !s.contains('\0') {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\r' => {
                if chars.peek() == Some(&'\n') {
                    chars.next();
                }
                out.push('\n');
            }
            '\0' => out.push('\u{fffd}'),
            other => out.push(other),
        }
    }
    out
}

struct Tokenizer<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    tokens: Vec<HtmlToken>,
    offsets: Vec<usize>,
    malformed: Option<(String, usize)>,
    unknown_entities: usize,
}

impl<'a> Tokenizer<'a> {
    fn new(input: &'a str) -> Self {
        Tokenizer {
            input,
            bytes: input.as_bytes(),
            pos: 0,
            tokens: Vec::new(),
            offsets: Vec::new(),
            malformed: None,
            unknown_entities: 0,
        }
    }

    /// Appends a token, recording its source offset.
    fn emit(&mut self, token: HtmlToken, offset: usize) {
        self.tokens.push(token);
        self.offsets.push(offset);
    }

    /// Records the malformed entities of a raw slice about to be decoded;
    /// `start` is the slice's byte offset in the input.
    fn note_malformed(&mut self, raw: &str, start: usize) {
        if !raw.contains('&') {
            return;
        }
        let found = malformed_entities(raw);
        self.unknown_entities += found.len();
        if self.malformed.is_none() {
            if let Some((entity, off)) = found.into_iter().next() {
                self.malformed = Some((entity, start + off));
            }
        }
    }

    fn run(mut self) -> TokenStream {
        while self.pos < self.bytes.len() {
            if self.bytes[self.pos] == b'<' {
                if self.starts_with("<!--") {
                    self.consume_comment();
                } else if self.starts_with_ci("<!doctype") {
                    self.consume_doctype();
                } else if matches!(self.peek_at(1), Some(b'!' | b'?')) {
                    self.consume_bogus_comment();
                } else if self.peek_at(1) == Some(b'/') {
                    self.consume_end_tag();
                } else if self.peek_at(1).is_some_and(|c| c.is_ascii_alphabetic()) {
                    self.consume_start_tag();
                } else {
                    // Stray '<': emit as text and move on.
                    self.consume_text_from(self.pos + 1, "<");
                }
            } else {
                self.consume_text();
            }
        }
        TokenStream {
            tokens: self.tokens,
            offsets: self.offsets,
            malformed: self.malformed,
            unknown_entities: self.unknown_entities,
        }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s)
    }

    fn starts_with_ci(&self, s: &str) -> bool {
        // Byte-level comparison: a `&str` slice at pos + s.len() could
        // split a multi-byte character and panic.
        let end = self.pos + s.len();
        end <= self.bytes.len() && self.bytes[self.pos..end].eq_ignore_ascii_case(s.as_bytes())
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn consume_text(&mut self) {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = &self.input[start..self.pos];
        if !raw.is_empty() {
            self.note_malformed(raw, start);
            let text = normalize_content(&decode_entities(raw));
            self.push_text(text, start);
        }
    }

    /// Appends text, merging into a directly preceding text token (the
    /// offset of the merged run stays the first fragment's).
    fn push_text(&mut self, text: String, offset: usize) {
        match self.tokens.last_mut() {
            Some(HtmlToken::Text(t)) => t.push_str(&text),
            _ => self.emit(HtmlToken::Text(text), offset),
        }
    }

    /// Emits `prefix` as text and continues scanning from `resume`.
    fn consume_text_from(&mut self, resume: usize, prefix: &str) {
        let offset = self.pos;
        self.pos = resume;
        self.push_text(prefix.to_string(), offset);
    }

    fn consume_comment(&mut self) {
        let offset = self.pos;
        let start = self.pos + 4;
        match self.input[start..].find("-->") {
            Some(end) => {
                self.emit(
                    HtmlToken::Comment(self.input[start..start + end].to_string()),
                    offset,
                );
                self.pos = start + end + 3;
            }
            None => {
                // Unterminated comment swallows the rest of the input.
                self.emit(HtmlToken::Comment(self.input[start..].to_string()), offset);
                self.pos = self.bytes.len();
            }
        }
    }

    /// `<!` or `<?` markup that is neither a comment nor a doctype —
    /// CDATA sections, processing instructions, broken declarations.
    /// Everything up to the next `>` becomes a bogus comment, as in the
    /// WHATWG tokenizer, so none of it leaks into the tree as text.
    fn consume_bogus_comment(&mut self) {
        let offset = self.pos;
        let start = self.pos + 2;
        match self.input[start..].find('>') {
            Some(end) => {
                self.emit(
                    HtmlToken::Comment(self.input[start..start + end].to_string()),
                    offset,
                );
                self.pos = start + end + 1;
            }
            None => {
                self.emit(HtmlToken::Comment(self.input[start..].to_string()), offset);
                self.pos = self.bytes.len();
            }
        }
    }

    fn consume_doctype(&mut self) {
        let offset = self.pos;
        let start = self.pos + 2;
        match self.input[start..].find('>') {
            Some(end) => {
                self.emit(
                    HtmlToken::Doctype(self.input[start..start + end].to_string()),
                    offset,
                );
                self.pos = start + end + 1;
            }
            None => {
                self.emit(HtmlToken::Doctype(self.input[start..].to_string()), offset);
                self.pos = self.bytes.len();
            }
        }
    }

    fn consume_end_tag(&mut self) {
        // self.pos at '<', pos+1 at '/'
        let offset = self.pos;
        let mut i = self.pos + 2;
        let name_start = i;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'-')
        {
            i += 1;
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        // Skip to '>'.
        while i < self.bytes.len() && self.bytes[i] != b'>' {
            i += 1;
        }
        self.pos = (i + 1).min(self.bytes.len());
        if !name.is_empty() {
            self.emit(HtmlToken::EndTag { name }, offset);
        }
    }

    fn consume_start_tag(&mut self) {
        let offset = self.pos;
        let mut i = self.pos + 1;
        let name_start = i;
        while i < self.bytes.len()
            && (self.bytes[i].is_ascii_alphanumeric() || self.bytes[i] == b'-')
        {
            i += 1;
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        let mut attrs = Vec::new();
        let mut self_closing = false;
        loop {
            // Skip whitespace.
            while i < self.bytes.len() && self.bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            if i >= self.bytes.len() {
                break;
            }
            match self.bytes[i] {
                b'>' => {
                    i += 1;
                    break;
                }
                b'/' => {
                    self_closing = true;
                    i += 1;
                }
                _ => {
                    let (attr, next) = self.consume_attribute(i);
                    if let Some(a) = attr {
                        attrs.push(a);
                    }
                    if next == i {
                        // No progress (malformed); skip a byte to avoid looping.
                        i += 1;
                    } else {
                        i = next;
                    }
                }
            }
        }
        self.pos = i;
        // `script`/`style` take verbatim raw text (never decoded);
        // `textarea` takes *escapable* raw text — no markup inside, but
        // its character references decode like ordinary text.
        let raw_text = matches!(name.as_str(), "script" | "style");
        let escapable_raw_text = name == "textarea";
        self.emit(
            HtmlToken::StartTag {
                name: name.clone(),
                attrs,
                self_closing,
            },
            offset,
        );
        if (raw_text || escapable_raw_text) && !self_closing {
            self.consume_raw_text(&name, escapable_raw_text);
        }
    }

    /// Raw-text content of `<script>`/`<style>`/`<textarea>`: everything
    /// up to the matching close tag, emitted as a single text token (the
    /// DOM builder discards script/style but keeps textarea). When
    /// `escapable`, character references decode and are diagnosed, like
    /// ordinary text.
    fn consume_raw_text(&mut self, tag: &str, escapable: bool) {
        let close = format!("</{tag}");
        let start = self.pos;
        let rest = &self.input[start..];
        let lower = rest.to_ascii_lowercase();
        let end = lower.find(&close).unwrap_or(rest.len());
        let raw = &rest[..end];
        if !raw.is_empty() {
            let text = if escapable {
                self.note_malformed(raw, start);
                normalize_content(&decode_entities(raw))
            } else {
                normalize_content(raw)
            };
            self.emit(HtmlToken::Text(text), start);
        }
        self.pos = start + end;
    }

    /// Parses one `name`, `name=value`, `name="value"`, or `name='value'`
    /// attribute starting at byte `i`. Returns the attribute (if a name was
    /// found) and the next position.
    fn consume_attribute(&mut self, mut i: usize) -> (Option<Attribute>, usize) {
        let name_start = i;
        while i < self.bytes.len()
            && !self.bytes[i].is_ascii_whitespace()
            && !matches!(self.bytes[i], b'=' | b'>' | b'/')
        {
            i += 1;
        }
        if i == name_start {
            return (None, i);
        }
        let name = self.input[name_start..i].to_ascii_lowercase();
        // Skip whitespace before '='.
        let mut j = i;
        while j < self.bytes.len() && self.bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= self.bytes.len() || self.bytes[j] != b'=' {
            return (
                Some(Attribute {
                    name,
                    value: String::new(),
                }),
                i,
            );
        }
        j += 1;
        while j < self.bytes.len() && self.bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        if j >= self.bytes.len() {
            return (
                Some(Attribute {
                    name,
                    value: String::new(),
                }),
                j,
            );
        }
        let (value, vstart, next) = match self.bytes[j] {
            q @ (b'"' | b'\'') => {
                let vstart = j + 1;
                let mut k = vstart;
                while k < self.bytes.len() && self.bytes[k] != q {
                    k += 1;
                }
                (
                    self.input[vstart..k].to_string(),
                    vstart,
                    (k + 1).min(self.bytes.len()),
                )
            }
            _ => {
                let vstart = j;
                let mut k = vstart;
                while k < self.bytes.len()
                    && !self.bytes[k].is_ascii_whitespace()
                    && self.bytes[k] != b'>'
                {
                    k += 1;
                }
                (self.input[vstart..k].to_string(), vstart, k)
            }
        };
        self.note_malformed(&value, vstart);
        (
            Some(Attribute {
                name,
                value: normalize_content(&decode_entities(&value)),
            }),
            next,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start(tokens: &[HtmlToken], i: usize) -> (&str, &[Attribute], bool) {
        match &tokens[i] {
            HtmlToken::StartTag {
                name,
                attrs,
                self_closing,
            } => (name, attrs, *self_closing),
            other => panic!("expected start tag, got {other:?}"),
        }
    }

    #[test]
    fn simple_document() {
        let toks = tokenize_html("<html><body><p>hi</p></body></html>");
        assert_eq!(toks.len(), 7);
        assert_eq!(start(&toks, 0).0, "html");
        assert!(matches!(&toks[3], HtmlToken::Text(t) if t == "hi"));
        assert!(matches!(&toks[4], HtmlToken::EndTag { name } if name == "p"));
    }

    #[test]
    fn attributes_quoted_and_bare() {
        let toks = tokenize_html(r#"<a href="x.html" class='big' id=main disabled>"#);
        let (name, attrs, sc) = start(&toks, 0);
        assert_eq!(name, "a");
        assert!(!sc);
        assert_eq!(attrs.len(), 4);
        assert_eq!(
            attrs[0],
            Attribute {
                name: "href".into(),
                value: "x.html".into()
            }
        );
        assert_eq!(attrs[1].value, "big");
        assert_eq!(attrs[2].value, "main");
        assert_eq!(
            attrs[3],
            Attribute {
                name: "disabled".into(),
                value: String::new()
            }
        );
    }

    #[test]
    fn self_closing_tag() {
        let toks = tokenize_html("<br/><hr />");
        assert!(start(&toks, 0).2);
        assert!(start(&toks, 1).2);
    }

    #[test]
    fn uppercase_tags_lowercased() {
        let toks = tokenize_html("<DIV CLASS=Big>x</DIV>");
        let (name, attrs, _) = start(&toks, 0);
        assert_eq!(name, "div");
        assert_eq!(attrs[0].name, "class");
        assert_eq!(attrs[0].value, "Big"); // values keep case
        assert!(matches!(&toks[2], HtmlToken::EndTag { name } if name == "div"));
    }

    #[test]
    fn comments_and_doctype() {
        let toks = tokenize_html("<!DOCTYPE html><!-- note --><p>x</p>");
        assert!(matches!(&toks[0], HtmlToken::Doctype(_)));
        assert!(matches!(&toks[1], HtmlToken::Comment(c) if c == " note "));
    }

    #[test]
    fn entities_in_text_decoded() {
        let toks = tokenize_html("<p>Smith &amp; Jones</p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "Smith & Jones"));
    }

    #[test]
    fn entities_in_attr_values_decoded() {
        let toks = tokenize_html(r#"<a title="A &amp; B">x</a>"#);
        let (_, attrs, _) = start(&toks, 0);
        assert_eq!(attrs[0].value, "A & B");
    }

    #[test]
    fn script_content_is_raw_text() {
        let toks = tokenize_html("<script>if (a < b) { x(); }</script><p>y</p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t.contains("a < b")));
        assert!(matches!(&toks[2], HtmlToken::EndTag { name } if name == "script"));
    }

    #[test]
    fn textarea_content_is_escapable_raw_text() {
        // Markup inside textarea is text, but entities decode.
        let toks = tokenize_html("<textarea><b>bold?</b> &amp; more</textarea>");
        assert!(
            matches!(&toks[1], HtmlToken::Text(t) if t == "<b>bold?</b> & more"),
            "{toks:?}"
        );
        assert!(matches!(&toks[2], HtmlToken::EndTag { name } if name == "textarea"));
    }

    #[test]
    fn textarea_close_tag_is_case_insensitive() {
        let toks = tokenize_html("<TEXTAREA>x</TEXTAREA><p>y</p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "x"));
        assert!(matches!(&toks[2], HtmlToken::EndTag { name } if name == "textarea"));
    }

    #[test]
    fn stray_less_than_is_text() {
        let toks = tokenize_html("a < b");
        // "a " then "<" merged then " b" -> the tokenizer merges into text tokens
        let text: String = toks
            .iter()
            .map(|t| match t {
                HtmlToken::Text(s) => s.clone(),
                _ => String::new(),
            })
            .collect();
        assert_eq!(text, "a < b");
    }

    #[test]
    fn unterminated_comment_does_not_panic() {
        let toks = tokenize_html("<!-- never closed <p>x</p>");
        assert_eq!(toks.len(), 1);
        assert!(matches!(&toks[0], HtmlToken::Comment(_)));
    }

    #[test]
    fn cdata_and_processing_instructions_are_bogus_comments() {
        let toks = tokenize_html("<p>a</p><![CDATA[not text]]><?php echo \"x\"; ?><p>b</p>");
        let texts: Vec<&str> = toks
            .iter()
            .filter_map(|t| match t {
                HtmlToken::Text(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(texts, ["a", "b"]);
        assert!(matches!(&toks[3], HtmlToken::Comment(c) if c.contains("CDATA")));
    }

    #[test]
    fn unterminated_tag_does_not_panic() {
        let toks = tokenize_html("<p class=");
        assert_eq!(start(&toks, 0).0, "p");
    }

    #[test]
    fn empty_input() {
        assert!(tokenize_html("").is_empty());
    }

    #[test]
    fn whitespace_preserved_in_text() {
        let toks = tokenize_html("<p>  two  spaces  </p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "  two  spaces  "));
    }

    #[test]
    fn end_tag_with_junk_after_name() {
        let toks = tokenize_html("<p>x</p junk>");
        assert!(matches!(toks.last().unwrap(), HtmlToken::EndTag { name } if name == "p"));
    }

    #[test]
    fn leading_bom_is_stripped() {
        let toks = tokenize_html("\u{feff}<p>x</p>");
        assert_eq!(start(&toks, 0).0, "p");
        // ... but a BOM later in the stream is ordinary content.
        let toks = tokenize_html("<p>a\u{feff}b</p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "a\u{feff}b"));
    }

    #[test]
    fn newlines_normalize_and_nul_is_replaced() {
        let toks = tokenize_html("<p>a\r\nb\rc\0d</p>");
        assert!(matches!(&toks[1], HtmlToken::Text(t) if t == "a\nb\nc\u{fffd}d"));
        let toks = tokenize_html("<a title=\"x\r\ny\">z</a>");
        assert_eq!(start(&toks, 0).1[0].value, "x\ny");
    }

    #[test]
    fn token_offsets_point_at_token_starts() {
        let input = "ab<p class=\"c\">text</p><br>";
        let stream = tokenize_stream(input);
        let starts: Vec<(usize, &HtmlToken)> = stream
            .offsets
            .iter()
            .copied()
            .zip(stream.tokens.iter())
            .collect();
        assert_eq!(starts[0].0, 0); // "ab"
        assert_eq!(starts[1].0, 2); // <p>
        assert_eq!(starts[2].0, 15); // "text"
        assert_eq!(starts[3].0, 19); // </p>
        assert_eq!(starts[4].0, 23); // <br>
        assert_eq!(stream.offsets.len(), stream.tokens.len());
    }

    #[test]
    fn unknown_entities_are_counted_across_all_decoded_content() {
        let stream = tokenize_stream(
            "<p title=\"a &bad1; b\">x &bad2; y</p>\
             <textarea>&bad3;</textarea>\
             <script>&ignored;</script><!-- &ignored; -->",
        );
        assert_eq!(stream.unknown_entities, 3);
        assert_eq!(
            stream.malformed.as_ref().map(|(e, _)| e.as_str()),
            Some("&bad1;")
        );
    }
}
