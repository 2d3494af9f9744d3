//! Arena-based DOM tree.
//!
//! Nodes live in a flat `Vec` inside [`Document`] and refer to each other
//! through [`NodeId`] indices, the standard arena idiom for trees in Rust.
//! The DOM is the input both to the page-tree conversion (Definition 3.1)
//! and to the XPath-style queries used by the wrapper-induction baselines.

use crate::tokenizer::Attribute;

/// Index of a node inside a [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

/// Payload of a DOM node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeData {
    /// An element such as `<div>`.
    Element {
        /// Lowercased tag name.
        tag: String,
        /// Attributes in source order.
        attrs: Vec<Attribute>,
    },
    /// A text node.
    Text(String),
    /// The synthetic document root (parent of `<html>`).
    Document,
}

/// One DOM node: payload plus tree links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// The node payload.
    pub data: NodeData,
    /// Parent node, `None` for the document root.
    pub parent: Option<NodeId>,
    /// Children in document order.
    pub children: Vec<NodeId>,
}

/// A parsed HTML document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    nodes: Vec<Node>,
}

impl Document {
    /// Creates a document containing only the synthetic root.
    pub(crate) fn new() -> Self {
        Document {
            nodes: vec![Node {
                data: NodeData::Document,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The synthetic document root.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Borrow a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this document.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Appends an element node under `parent` and returns its id.
    #[cfg(test)]
    pub(crate) fn append_element(
        &mut self,
        parent: NodeId,
        tag: &str,
        attrs: Vec<Attribute>,
    ) -> NodeId {
        self.append(
            parent,
            NodeData::Element {
                tag: tag.to_ascii_lowercase(),
                attrs,
            },
        )
    }

    /// Appends a text node under `parent` and returns its id.
    #[cfg(test)]
    pub(crate) fn append_text(&mut self, parent: NodeId, text: &str) -> NodeId {
        self.append(parent, NodeData::Text(text.to_string()))
    }

    /// Replaces the content of an existing text node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a text node.
    pub(crate) fn replace_text(&mut self, id: NodeId, text: String) {
        match &mut self.nodes[id.0].data {
            NodeData::Text(t) => *t = text,
            other => panic!("replace_text on a non-text node: {other:?}"),
        }
    }

    pub(crate) fn append(&mut self, parent: NodeId, data: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node {
            data,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Iterates over all node ids in document (pre-)order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        // Arena insertion order *is* pre-order for the builder we use, but
        // walk explicitly to stay correct under any construction order.
        DescendantIter {
            doc: self,
            stack: vec![self.root()],
        }
    }

    /// Iterates the subtree rooted at `id` (including `id`) in pre-order.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        DescendantIter {
            doc: self,
            stack: vec![id],
        }
    }

    /// The element tag of `id`, if it is an element.
    pub fn tag(&self, id: NodeId) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { tag, .. } => Some(tag),
            _ => None,
        }
    }

    /// Number of nodes including the synthetic root.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the document contains only the synthetic root.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// The value of attribute `name` on element `id`, if present.
    pub(crate) fn attr(&self, id: NodeId, name: &str) -> Option<&str> {
        match &self.node(id).data {
            NodeData::Element { attrs, .. } => attrs
                .iter()
                .find(|a| a.name == name)
                .map(|a| a.value.as_str()),
            _ => None,
        }
    }

    /// Concatenated, whitespace-normalized text of the subtree at `id`.
    ///
    /// Block-level element boundaries introduce a single space so that
    /// `<li>A</li><li>B</li>` reads "A B" rather than "AB".
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.collect_text(id, &mut out);
        normalize_ws(&out)
    }

    fn collect_text(&self, id: NodeId, out: &mut String) {
        match &self.node(id).data {
            NodeData::Text(t) => out.push_str(t),
            NodeData::Element { tag, .. } => {
                if is_block(tag) && !out.is_empty() {
                    out.push(' ');
                }
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
                if is_block(tag) {
                    out.push(' ');
                }
            }
            NodeData::Document => {
                for &c in &self.node(id).children {
                    self.collect_text(c, out);
                }
            }
        }
    }

    /// Child elements (skipping text nodes) of `id`.
    pub fn child_elements(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id)
            .children
            .iter()
            .copied()
            .filter(|&c| matches!(self.node(c).data, NodeData::Element { .. }))
            .collect()
    }

    /// Position of `id` among its parent's children with the same tag
    /// (1-based, as in XPath `tag[n]`). `None` for non-elements or root.
    pub(crate) fn sibling_position(&self, id: NodeId) -> Option<usize> {
        let tag = self.tag(id)?;
        let parent = self.node(id).parent?;
        let mut pos = 0;
        for &sib in &self.node(parent).children {
            if self.tag(sib) == Some(tag) {
                pos += 1;
                if sib == id {
                    return Some(pos);
                }
            }
        }
        None
    }
}

impl Default for Document {
    fn default() -> Self {
        Self::new()
    }
}

struct DescendantIter<'a> {
    doc: &'a Document,
    stack: Vec<NodeId>,
}

impl Iterator for DescendantIter<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        let id = self.stack.pop()?;
        // Push children reversed so iteration is pre-order left-to-right.
        for &c in self.doc.node(id).children.iter().rev() {
            self.stack.push(c);
        }
        Some(id)
    }
}

/// Collapses runs of whitespace to single spaces and trims the ends.
pub(crate) fn normalize_ws(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut in_ws = true; // leading whitespace dropped
    for c in s.chars() {
        if c.is_whitespace() {
            if !in_ws {
                out.push(' ');
                in_ws = true;
            }
        } else {
            out.push(c);
            in_ws = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Whether `tag` is a block-level element for text extraction purposes.
pub(crate) fn is_block(tag: &str) -> bool {
    matches!(
        tag,
        "address"
            | "article"
            | "aside"
            | "blockquote"
            | "br"
            | "dd"
            | "div"
            | "dl"
            | "dt"
            | "fieldset"
            | "figcaption"
            | "figure"
            | "footer"
            | "form"
            | "h1"
            | "h2"
            | "h3"
            | "h4"
            | "h5"
            | "h6"
            | "header"
            | "hr"
            | "li"
            | "main"
            | "nav"
            | "ol"
            | "p"
            | "pre"
            | "section"
            | "table"
            | "tbody"
            | "td"
            | "tfoot"
            | "th"
            | "thead"
            | "tr"
            | "ul"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_html;

    #[test]
    fn text_content_normalizes_whitespace() {
        let doc = parse_html("<p>  a   b </p>");
        assert_eq!(doc.text_content(doc.root()), "a b");
    }

    #[test]
    fn block_boundaries_insert_spaces() {
        let doc = parse_html("<ul><li>A</li><li>B</li></ul>");
        assert_eq!(doc.text_content(doc.root()), "A B");
    }

    #[test]
    fn inline_elements_do_not_split_words() {
        let doc = parse_html("<p>we<b>b</b>qa</p>");
        assert_eq!(doc.text_content(doc.root()), "webqa");
    }

    #[test]
    fn attr_lookup() {
        let doc = parse_html(r#"<div id="x" class="y z">t</div>"#);
        let div = doc
            .iter()
            .find(|&n| doc.tag(n) == Some("div"))
            .expect("div present");
        assert_eq!(doc.attr(div, "id"), Some("x"));
        assert_eq!(doc.attr(div, "class"), Some("y z"));
        assert_eq!(doc.attr(div, "missing"), None);
    }

    #[test]
    fn sibling_position_counts_same_tag_only() {
        let doc = parse_html("<div><p>a</p><span>s</span><p>b</p></div>");
        let ps: Vec<NodeId> = doc.iter().filter(|&n| doc.tag(n) == Some("p")).collect();
        assert_eq!(doc.sibling_position(ps[0]), Some(1));
        assert_eq!(doc.sibling_position(ps[1]), Some(2));
    }

    #[test]
    fn preorder_iteration_visits_all() {
        let doc = parse_html("<div><p>a</p><p>b</p></div>");
        let n = doc.iter().count();
        assert_eq!(n, doc.len());
    }

    #[test]
    fn empty_document() {
        let doc = Document::new();
        assert!(doc.is_empty());
        assert_eq!(doc.text_content(doc.root()), "");
    }

    #[test]
    fn normalize_ws_edge_cases() {
        assert_eq!(normalize_ws(""), "");
        assert_eq!(normalize_ws("   "), "");
        assert_eq!(normalize_ws("\n\ta  b\n"), "a b");
    }
}
