//! Parser for the canonical program syntax produced by `Display`.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! program   := branch (';' branch)*
//! branch    := guard '->' extractor
//! guard     := 'sat(' locator ',' pred ')' | 'singleton(' locator ')'
//! locator   := 'root' | 'children(' locator ',' filter ')'
//!            | 'descendants(' locator ',' filter ')'
//! filter    := 'leaf' | 'elem' | 'text(' pred ')' | 'subtree(' pred ')'
//!            | 'true' | 'and(' filter ',' filter ')' | 'or(…)' | 'not(…)'
//! pred      := 'kw(' float ')' | 'answer' | 'entity(' KIND ')' | 'true'
//!            | 'and(' pred ',' pred ')' | 'or(…)' | 'not(…)'
//! extractor := 'content' | 'substr(' extractor ',' pred ',' int ')'
//!            | 'filter(' extractor ',' pred ')' | "split(" extractor ", '" char "')"
//! ```

use crate::ast::{Branch, Extractor, Guard, Locator, NlpPred, NodeFilter, Program, Threshold};
use webqa_nlp::EntityKind;

/// Error produced when parsing a program string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseProgramError {
    /// Byte position of the failure.
    pub position: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseProgramError {}

impl std::str::FromStr for Program {
    type Err = ParseProgramError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut p = Parser {
            src: s,
            pos: 0,
            depth: 0,
        };
        let prog = p.program()?;
        p.skip_ws();
        if p.pos != s.len() {
            return Err(p.err("trailing input"));
        }
        Ok(prog)
    }
}

/// Deepest parenthesis nesting accepted. The parser recurses once per
/// level, so without a bound one short hostile program (`not(` repeated)
/// overflows the stack; real programs nest a handful of levels.
const MAX_NESTING: usize = 256;

struct Parser<'a> {
    src: &'a str,
    pos: usize,
    /// Parentheses currently open around `pos`.
    depth: usize,
}

type PResult<T> = Result<T, ParseProgramError>;

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseProgramError {
        ParseProgramError {
            position: self.pos,
            message: message.to_string(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, token: &str) -> PResult<()> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected {token:?}")))
        }
    }

    /// Eats an opening parenthesis, enforcing [`MAX_NESTING`].
    fn open(&mut self) -> PResult<()> {
        self.eat("(")?;
        if self.depth == MAX_NESTING {
            return Err(self.err(&format!("nesting deeper than {MAX_NESTING} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Eats the closing parenthesis of [`Parser::open`].
    fn close(&mut self) -> PResult<()> {
        self.eat(")")?;
        self.depth -= 1;
        Ok(())
    }

    fn try_eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> PResult<&'a str> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src.as_bytes()[self.pos];
            if b.is_ascii_alphanumeric() || b == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            Err(self.err("expected identifier"))
        } else {
            Ok(&self.src[start..self.pos])
        }
    }

    fn number(&mut self) -> PResult<f64> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() {
            let b = self.src.as_bytes()[self.pos];
            if b.is_ascii_digit() || b == b'.' {
                self.pos += 1;
            } else {
                break;
            }
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected number"))
    }

    fn integer(&mut self) -> PResult<usize> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.src.len() && self.src.as_bytes()[self.pos].is_ascii_digit() {
            self.pos += 1;
        }
        self.src[start..self.pos]
            .parse()
            .map_err(|_| self.err("expected integer"))
    }

    fn quoted_char(&mut self) -> PResult<char> {
        self.eat("'")?;
        let c = self.src[self.pos..]
            .chars()
            .next()
            .ok_or_else(|| self.err("expected character"))?;
        self.pos += c.len_utf8();
        // plain eat would skip whitespace, which would mis-parse "' '".
        if self.src[self.pos..].starts_with('\'') {
            self.pos += 1;
            Ok(c)
        } else {
            Err(self.err("expected closing quote"))
        }
    }

    fn program(&mut self) -> PResult<Program> {
        let mut branches = vec![self.branch()?];
        while self.try_eat(";") {
            branches.push(self.branch()?);
        }
        Ok(Program::new(branches))
    }

    fn branch(&mut self) -> PResult<Branch> {
        let guard = self.guard()?;
        self.eat("->")?;
        let extractor = self.extractor()?;
        Ok(Branch::new(guard, extractor))
    }

    fn guard(&mut self) -> PResult<Guard> {
        let name = self.ident()?;
        match name {
            "sat" => {
                self.open()?;
                let l = self.locator()?;
                self.eat(",")?;
                let p = self.pred()?;
                self.close()?;
                Ok(Guard::Sat(l, p))
            }
            "singleton" => {
                self.open()?;
                let l = self.locator()?;
                self.close()?;
                Ok(Guard::IsSingleton(l))
            }
            other => Err(self.err(&format!("unknown guard {other:?}"))),
        }
    }

    fn locator(&mut self) -> PResult<Locator> {
        let name = self.ident()?;
        match name {
            "root" => Ok(Locator::Root),
            "children" | "descendants" => {
                self.open()?;
                let inner = self.locator()?;
                self.eat(",")?;
                let f = self.filter()?;
                self.close()?;
                Ok(if name == "children" {
                    Locator::Children(Box::new(inner), f)
                } else {
                    Locator::Descendants(Box::new(inner), f)
                })
            }
            other => Err(self.err(&format!("unknown locator {other:?}"))),
        }
    }

    fn filter(&mut self) -> PResult<NodeFilter> {
        let name = self.ident()?;
        match name {
            "leaf" => Ok(NodeFilter::IsLeaf),
            "elem" => Ok(NodeFilter::IsElem),
            "true" => Ok(NodeFilter::True),
            "text" | "subtree" => {
                self.open()?;
                let p = self.pred()?;
                self.close()?;
                Ok(NodeFilter::MatchText {
                    pred: p,
                    subtree: name == "subtree",
                })
            }
            "and" | "or" => {
                self.open()?;
                let a = self.filter()?;
                self.eat(",")?;
                let b = self.filter()?;
                self.close()?;
                Ok(if name == "and" {
                    NodeFilter::And(Box::new(a), Box::new(b))
                } else {
                    NodeFilter::Or(Box::new(a), Box::new(b))
                })
            }
            "not" => {
                self.open()?;
                let a = self.filter()?;
                self.close()?;
                Ok(NodeFilter::Not(Box::new(a)))
            }
            other => Err(self.err(&format!("unknown node filter {other:?}"))),
        }
    }

    fn pred(&mut self) -> PResult<NlpPred> {
        let name = self.ident()?;
        match name {
            "answer" => Ok(NlpPred::HasAnswer),
            "true" => Ok(NlpPred::True),
            "kw" => {
                self.open()?;
                let t = self.number()?;
                self.close()?;
                Ok(NlpPred::MatchKeyword(Threshold::new(t)))
            }
            "entity" => {
                self.open()?;
                let kind_name = self.ident()?;
                let kind: EntityKind = kind_name.parse().map_err(|e: String| self.err(&e))?;
                self.close()?;
                Ok(NlpPred::HasEntity(kind))
            }
            "and" | "or" => {
                self.open()?;
                let a = self.pred()?;
                self.eat(",")?;
                let b = self.pred()?;
                self.close()?;
                Ok(if name == "and" {
                    NlpPred::And(Box::new(a), Box::new(b))
                } else {
                    NlpPred::Or(Box::new(a), Box::new(b))
                })
            }
            "not" => {
                self.open()?;
                let a = self.pred()?;
                self.close()?;
                Ok(NlpPred::Not(Box::new(a)))
            }
            other => Err(self.err(&format!("unknown predicate {other:?}"))),
        }
    }

    fn extractor(&mut self) -> PResult<Extractor> {
        let name = self.ident()?;
        match name {
            "content" => Ok(Extractor::Content),
            "substr" => {
                self.open()?;
                let e = self.extractor()?;
                self.eat(",")?;
                let p = self.pred()?;
                self.eat(",")?;
                let k = self.integer()?;
                self.close()?;
                Ok(Extractor::Substring(Box::new(e), p, k))
            }
            "filter" => {
                self.open()?;
                let e = self.extractor()?;
                self.eat(",")?;
                let p = self.pred()?;
                self.close()?;
                Ok(Extractor::Filter(Box::new(e), p))
            }
            "split" => {
                self.open()?;
                let e = self.extractor()?;
                self.eat(",")?;
                let c = self.quoted_char()?;
                self.close()?;
                Ok(Extractor::Split(Box::new(e), c))
            }
            other => Err(self.err(&format!("unknown extractor {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) {
        let p: Program = src.parse().expect("parse");
        assert_eq!(p.to_string(), src);
    }

    #[test]
    fn roundtrip_simple() {
        roundtrip("singleton(root) -> content");
    }

    #[test]
    fn roundtrip_motivating_example() {
        roundtrip(
            "sat(descendants(descendants(root, text(kw(0.80))), leaf), true) -> \
             substr(filter(split(content, ','), kw(0.60)), entity(ORG), 1)",
        );
    }

    #[test]
    fn roundtrip_multi_branch() {
        roundtrip("singleton(root) -> content; sat(root, answer) -> split(content, ';')");
    }

    #[test]
    fn roundtrip_connectives() {
        roundtrip(
            "sat(children(root, and(leaf, not(elem))), or(answer, entity(PERSON))) -> \
             filter(content, and(true, not(kw(0.50))))",
        );
    }

    #[test]
    fn roundtrip_subtree_filter() {
        roundtrip("sat(descendants(root, subtree(kw(0.75))), true) -> content");
    }

    #[test]
    fn whitespace_insensitive() {
        let p: Program = "  singleton( root )  ->  content ".parse().unwrap();
        assert_eq!(p.to_string(), "singleton(root) -> content");
    }

    #[test]
    fn split_with_space_delimiter() {
        roundtrip("singleton(root) -> split(content, ' ')");
    }

    #[test]
    fn all_entity_kinds_parse() {
        for k in ["PERSON", "ORG", "DATE", "TIME", "LOC", "MONEY"] {
            let src = format!("sat(root, entity({k})) -> content");
            let p: Program = src.parse().expect("parse");
            assert_eq!(p.to_string(), src);
        }
    }

    #[test]
    fn error_reports_position() {
        let e = "singleton(root) -> bogus".parse::<Program>().unwrap_err();
        assert!(e.position > 0);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!("singleton(root) -> content xx".parse::<Program>().is_err());
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "sat(root) -> content",
            "singleton(root) content",
            "singleton(root) -> substr(content, true)",
            "singleton(root) -> split(content, ,)",
            "sat(root, entity(WAT)) -> content",
        ] {
            assert!(bad.parse::<Program>().is_err(), "should reject {bad:?}");
        }
    }
}

// ---------------------------------------------------------------------
// Serde support: programs serialize as their canonical text form, which
// is what the parser in this module accepts — so serialization and the
// text format can never drift apart.

impl serde::Serialize for Program {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.collect_str(self)
    }
}

impl<'de> serde::Deserialize<'de> for Program {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let s = String::deserialize(deserializer)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

#[cfg(test)]
mod serde_tests {
    use crate::Program;

    #[test]
    fn program_serde_round_trips_via_text_form() {
        let p: Program =
            "sat(descendants(root, leaf), kw(0.60)) -> filter(split(content, \',\'), kw(0.50))"
                .parse()
                .expect("valid");
        let json = serde_json::to_string(&p).expect("serialize");
        assert!(json.starts_with('"'), "{json}");
        let back: Program = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(p, back);
    }

    #[test]
    fn bad_program_fails_to_deserialize() {
        let r: Result<Program, _> = serde_json::from_str("\"wat(\"");
        assert!(r.is_err());
    }
}
