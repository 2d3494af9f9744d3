//! XPath-style DOM queries.
//!
//! The wrapper-induction baselines (HYB, EntExtract — Section 8.1, and the
//! related work's Vertex/XPath wrappers) operate on DOM paths. This module
//! implements the XPath subset they need:
//!
//! * absolute paths: `/html/body/div/ul/li`
//! * descendant axis: `//ul/li`
//! * wildcards: `//div/*`
//! * positional predicates: `/div[2]`
//! * attribute predicates: `//div[@class='bio']`
//!
//! plus the inverse operation — computing the concrete path of a node —
//! which is what wrapper induction generalizes over.

use crate::dom::{Document, NodeId};

/// One step of a parsed path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// `true` for `//step` (descendant-or-self axis), `false` for `/step`.
    pub descendant: bool,
    /// Tag name to match; `*` matches any element.
    pub tag: String,
    /// Optional 1-based positional predicate `[n]`.
    pub position: Option<usize>,
    /// Optional attribute equality predicate `[@name='value']`.
    pub attr: Option<(String, String)>,
}

/// A parsed path expression (sequence of steps from the document root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathExpr {
    steps: Vec<Step>,
}

/// Error parsing a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsePathError {
    /// Human-readable description of what went wrong.
    pub message: String,
}

impl std::fmt::Display for ParsePathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid path expression: {}", self.message)
    }
}

impl std::error::Error for ParsePathError {}

impl std::str::FromStr for PathExpr {
    type Err = ParsePathError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        PathExpr::parse(s)
    }
}

impl PathExpr {
    /// Parses an expression like `//div[@class='bio']/ul/li[2]`.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePathError`] on empty input, empty steps, or a
    /// malformed predicate.
    pub(crate) fn parse(s: &str) -> Result<Self, ParsePathError> {
        if s.is_empty() {
            return Err(ParsePathError {
                message: "empty expression".into(),
            });
        }
        if !s.starts_with('/') {
            return Err(ParsePathError {
                message: "expression must start with '/'".into(),
            });
        }
        let mut steps = Vec::new();
        let mut rest = s;
        while !rest.is_empty() {
            let descendant = if rest.starts_with("//") {
                rest = &rest[2..];
                true
            } else if rest.starts_with('/') {
                rest = &rest[1..];
                false
            } else {
                return Err(ParsePathError {
                    message: format!("expected '/' at …{rest}"),
                });
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let step_src = &rest[..end];
            rest = &rest[end..];
            if step_src.is_empty() {
                return Err(ParsePathError {
                    message: "empty step".into(),
                });
            }
            steps.push(parse_step(step_src, descendant)?);
        }
        Ok(PathExpr { steps })
    }

    /// Constructs an expression from explicit steps. Used by wrapper
    /// induction when generalizing concrete paths.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        PathExpr { steps }
    }

    /// The steps of the expression.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Evaluates the expression against a document, returning matching
    /// nodes in document order without duplicates.
    pub fn select(&self, doc: &Document) -> Vec<NodeId> {
        let mut current = vec![doc.root()];
        for step in &self.steps {
            let mut next = Vec::new();
            for &ctx in &current {
                if step.descendant {
                    for d in doc.descendants(ctx).skip(1) {
                        if step_matches(doc, d, step) {
                            next.push(d);
                        }
                    }
                } else {
                    for c in doc.child_elements(ctx) {
                        if step_matches(doc, c, step) {
                            next.push(c);
                        }
                    }
                }
            }
            next.sort();
            next.dedup();
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }
}

impl std::fmt::Display for PathExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for step in &self.steps {
            write!(
                f,
                "{}{}",
                if step.descendant { "//" } else { "/" },
                step.tag
            )?;
            if let Some((name, value)) = &step.attr {
                write!(f, "[@{name}='{value}']")?;
            }
            if let Some(p) = step.position {
                write!(f, "[{p}]")?;
            }
        }
        Ok(())
    }
}

fn parse_step(src: &str, descendant: bool) -> Result<Step, ParsePathError> {
    let (name_part, preds) = match src.find('[') {
        Some(i) => (&src[..i], &src[i..]),
        None => (src, ""),
    };
    if name_part.is_empty() {
        return Err(ParsePathError {
            message: format!("missing tag in step {src:?}"),
        });
    }
    let mut step = Step {
        descendant,
        tag: name_part.to_ascii_lowercase(),
        position: None,
        attr: None,
    };
    let mut rest = preds;
    while !rest.is_empty() {
        if !rest.starts_with('[') {
            return Err(ParsePathError {
                message: format!("expected '[' in {src:?}"),
            });
        }
        let close = rest.find(']').ok_or_else(|| ParsePathError {
            message: format!("unclosed predicate in {src:?}"),
        })?;
        let body = &rest[1..close];
        rest = &rest[close + 1..];
        if let Some(attr_body) = body.strip_prefix('@') {
            let eq = attr_body.find('=').ok_or_else(|| ParsePathError {
                message: format!("attribute predicate needs '=' in {src:?}"),
            })?;
            let name = attr_body[..eq].to_ascii_lowercase();
            let raw = &attr_body[eq + 1..];
            let value = raw.trim_matches(|c| c == '\'' || c == '"').to_string();
            step.attr = Some((name, value));
        } else {
            let pos: usize = body.parse().map_err(|_| ParsePathError {
                message: format!("bad positional predicate {body:?}"),
            })?;
            if pos == 0 {
                return Err(ParsePathError {
                    message: "positions are 1-based".into(),
                });
            }
            step.position = Some(pos);
        }
    }
    Ok(step)
}

fn step_matches(doc: &Document, id: NodeId, step: &Step) -> bool {
    let Some(tag) = doc.tag(id) else { return false };
    if step.tag != "*" && step.tag != tag {
        return false;
    }
    if let Some((name, value)) = &step.attr {
        match doc.attr(id, name) {
            Some(v) if v == value => {}
            // Class predicates match any whitespace-separated token, like
            // CSS class selectors.
            Some(v) if name == "class" && v.split_whitespace().any(|t| t == value) => {}
            _ => return false,
        }
    }
    if let Some(p) = step.position {
        if doc.sibling_position(id) != Some(p) {
            return false;
        }
    }
    true
}

/// Computes the concrete absolute path of `id`: every step has a tag and a
/// positional predicate, e.g. `/html[1]/body[1]/div[2]/ul[1]/li[3]`.
///
/// Returns `None` for text nodes and the synthetic root.
pub fn concrete_path(doc: &Document, id: NodeId) -> Option<PathExpr> {
    doc.tag(id)?;
    let mut steps = Vec::new();
    let mut cur = id;
    loop {
        let tag = doc.tag(cur)?.to_string();
        let pos = doc.sibling_position(cur)?;
        steps.push(Step {
            descendant: false,
            tag,
            position: Some(pos),
            attr: None,
        });
        match doc.node(cur).parent {
            Some(p) if doc.tag(p).is_some() => cur = p,
            _ => break,
        }
    }
    steps.reverse();
    Some(PathExpr { steps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_html;

    const DOC: &str = r#"
<html><body>
  <div class="bio intro"><p>Jane Doe is a professor.</p></div>
  <div class="content">
    <ul><li>a</li><li>b</li><li>c</li></ul>
    <ul><li>x</li></ul>
  </div>
</body></html>"#;

    fn texts(doc: &Document, ids: &[NodeId]) -> Vec<String> {
        ids.iter().map(|&i| doc.text_content(i)).collect()
    }

    #[test]
    fn absolute_path() {
        let doc = parse_html(DOC);
        let expr: PathExpr = "/html/body/div/ul/li".parse().unwrap();
        let hits = expr.select(&doc);
        assert_eq!(texts(&doc, &hits), ["a", "b", "c", "x"]);
    }

    #[test]
    fn descendant_axis() {
        let doc = parse_html(DOC);
        let expr: PathExpr = "//li".parse().unwrap();
        assert_eq!(expr.select(&doc).len(), 4);
    }

    #[test]
    fn positional_predicate() {
        let doc = parse_html(DOC);
        let expr: PathExpr = "//ul[1]/li[2]".parse().unwrap();
        assert_eq!(texts(&doc, &expr.select(&doc)), ["b"]);
    }

    #[test]
    fn attribute_predicate_exact_and_class_token() {
        let doc = parse_html(DOC);
        let exact: PathExpr = "//div[@class='content']".parse().unwrap();
        assert_eq!(exact.select(&doc).len(), 1);
        // class token match
        let token: PathExpr = "//div[@class='bio']".parse().unwrap();
        assert_eq!(token.select(&doc).len(), 1);
    }

    #[test]
    fn wildcard_step() {
        let doc = parse_html(DOC);
        let expr: PathExpr = "/html/body/*".parse().unwrap();
        assert_eq!(expr.select(&doc).len(), 2);
    }

    #[test]
    fn no_match_is_empty() {
        let doc = parse_html(DOC);
        let expr: PathExpr = "//table".parse().unwrap();
        assert!(expr.select(&doc).is_empty());
    }

    #[test]
    fn concrete_path_roundtrip() {
        let doc = parse_html(DOC);
        for id in doc.iter() {
            let Some(path) = concrete_path(&doc, id) else {
                continue;
            };
            let hits = path.select(&doc);
            assert_eq!(hits, vec![id], "path {path} must select exactly its node");
        }
    }

    #[test]
    fn display_roundtrip() {
        let src = "//div[@class='bio']/ul/li[2]";
        let expr: PathExpr = src.parse().unwrap();
        assert_eq!(expr.to_string(), src);
        let again: PathExpr = expr.to_string().parse().unwrap();
        assert_eq!(expr, again);
    }

    #[test]
    fn parse_errors() {
        assert!(PathExpr::parse("").is_err());
        assert!(PathExpr::parse("div/p").is_err());
        assert!(PathExpr::parse("/div[").is_err());
        assert!(PathExpr::parse("/div[0]").is_err());
        assert!(PathExpr::parse("/div[@class]").is_err());
        assert!(PathExpr::parse("//").is_err());
    }

    #[test]
    fn deduplicates_descendant_hits() {
        // //div//li could reach the same li via nested divs.
        let doc = parse_html("<div><div><ul><li>x</li></ul></div></div>");
        let expr: PathExpr = "//div//li".parse().unwrap();
        assert_eq!(expr.select(&doc).len(), 1);
    }
}
