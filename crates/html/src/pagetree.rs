//! The paper's webpage representation (Definition 3.1).
//!
//! A webpage is a tree `(N, E, n₀)` where each node is `(id, text, type)`
//! with `type ∈ {list, table, none}`, and an edge `(n, n′)` means the text
//! of `n` is the *header* for the text of `n′` on the rendered page.
//!
//! Section 7 ("Parsing") describes the conversion we implement here: parse
//! the HTML into a DOM (with scripts/images removed), then follow the
//! standard header hierarchy — `H1` is the root and `H(i+1)` headers become
//! children of the enclosing `Hi` header. Additionally (Figure 4):
//!
//! * an HTML list attaches its items as children of the current section
//!   node and marks that node `list` (node 7 "PhD students" / node 11
//!   "Professional Service" in the paper's Figure 4);
//! * a table attaches its rows the same way with type `table`;
//! * short, fully-bold paragraphs and `<dt>` terms act as pseudo-headers
//!   one level below the enclosing header (how "PhD students" nests under
//!   "Students" in Figure 4).

use crate::dom::{normalize_ws, Document, NodeData, NodeId};
use crate::error::{HtmlError, ParseDiagnostics};
use crate::parse::{parse_html, parse_html_report, try_parse_html};

/// The type tag of a page-tree node (Definition 3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeKind {
    /// Plain section / text node.
    #[default]
    None,
    /// Node whose children are elements of an HTML list.
    List,
    /// Node whose children are rows of an HTML table.
    Table,
}

impl std::fmt::Display for NodeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NodeKind::None => "none",
            NodeKind::List => "list",
            NodeKind::Table => "table",
        })
    }
}

/// Identifier of a node within a [`PageTree`] (dense, pre-order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageNodeId(pub usize);

impl PageNodeId {
    /// The raw index of this node.
    pub fn index(self) -> usize {
        self.0
    }
}

/// One node of the page tree: `(id, text, type)` plus tree links.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageNode {
    /// Whitespace-normalized text content of this node (*not* including
    /// descendant text — unlike the DOM, the page tree keeps header text
    /// and body text in separate nodes).
    pub text: String,
    /// The node type.
    pub kind: NodeKind,
    /// Parent node, `None` for the root.
    pub parent: Option<PageNodeId>,
    /// Children in page order.
    pub children: Vec<PageNodeId>,
}

/// The webpage tree of Definition 3.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageTree {
    nodes: Vec<PageNode>,
}

impl PageTree {
    /// Parses HTML and converts it into a page tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use webqa_html::PageTree;
    /// let page = PageTree::parse(
    ///     "<h1>Jane Doe</h1><h2>Students</h2><ul><li>Robert Smith</li></ul>",
    /// );
    /// let root = page.root();
    /// assert_eq!(page.text(root), "Jane Doe");
    /// assert_eq!(page.children(root).len(), 1);
    /// ```
    pub fn parse(html: &str) -> Self {
        Self::from_document(&parse_html(html))
    }

    /// Parses like [`PageTree::parse`] (never fails), additionally
    /// returning how much browser-style recovery the page needed — the
    /// per-file diagnostics `webqa-cli import` reports.
    ///
    /// # Examples
    ///
    /// ```
    /// use webqa_html::PageTree;
    /// let (page, diag) = PageTree::parse_report("<h1>A</h1><p>50&bogus;mg");
    /// assert_eq!(page.text(page.root()), "A");
    /// assert_eq!(diag.unknown_entities, 1);
    /// assert_eq!(diag.unclosed_tags, 1);
    /// ```
    pub fn parse_report(html: &str) -> (Self, ParseDiagnostics) {
        let (doc, diag) = parse_html_report(html);
        (Self::from_document(&doc), diag)
    }

    /// Parses HTML into a page tree, surfacing the diagnostics the lenient
    /// [`PageTree::parse`] recovers from silently (runaway unclosed-tag
    /// nesting, undecodable character references).
    ///
    /// The engine routes page ingestion through this path; [`parse`]
    /// remains the infallible wrapper for trusted or already-vetted
    /// sources.
    ///
    /// # Errors
    ///
    /// See [`HtmlError`].
    ///
    /// # Examples
    ///
    /// ```
    /// use webqa_html::{HtmlError, PageTree};
    /// let page = PageTree::try_parse("<h1>Jane Doe</h1>").unwrap();
    /// assert_eq!(page.text(page.root()), "Jane Doe");
    /// assert!(matches!(
    ///     PageTree::try_parse("<p>50&bogus;mg</p>"),
    ///     Err(HtmlError::MalformedEntity { .. })
    /// ));
    /// ```
    ///
    /// [`parse`]: PageTree::parse
    pub fn try_parse(html: &str) -> Result<Self, HtmlError> {
        Ok(Self::from_document(&try_parse_html(html)?))
    }

    /// Converts a parsed [`Document`] into a page tree.
    pub(crate) fn from_document(doc: &Document) -> Self {
        Builder::new(doc).build()
    }

    /// The root node `n₀`.
    pub fn root(&self) -> PageNodeId {
        PageNodeId(0)
    }

    /// Number of nodes in the tree (≥ 1; the root always exists).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the tree has no nodes (`len() == 0`). Never true: every
    /// tree has its root, even one parsed from empty HTML.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrows a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: PageNodeId) -> &PageNode {
        &self.nodes[id.0]
    }

    /// The text of node `id`.
    pub fn text(&self, id: PageNodeId) -> &str {
        &self.nodes[id.0].text
    }

    /// The kind of node `id`.
    pub fn kind(&self, id: PageNodeId) -> NodeKind {
        self.nodes[id.0].kind
    }

    /// Children of `id` in page order.
    pub fn children(&self, id: PageNodeId) -> &[PageNodeId] {
        &self.nodes[id.0].children
    }

    /// Whether `id` has no children.
    pub fn is_leaf(&self, id: PageNodeId) -> bool {
        self.nodes[id.0].children.is_empty()
    }

    /// Whether `id` is an element of a list or a row of a table — i.e. its
    /// parent is a `list`/`table` node (the DSL's `isElem` predicate).
    pub fn is_elem(&self, id: PageNodeId) -> bool {
        match self.nodes[id.0].parent {
            Some(p) => self.nodes[p.0].kind != NodeKind::None,
            None => false,
        }
    }

    /// Proper descendants of `id` in pre-order (excluding `id` itself).
    pub fn descendants(&self, id: PageNodeId) -> Vec<PageNodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<PageNodeId> = self.children(id).iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.children(n).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All node ids in pre-order, root first.
    pub fn iter(&self) -> impl Iterator<Item = PageNodeId> + '_ {
        (0..self.nodes.len()).map(PageNodeId)
    }

    /// Concatenated text of the subtree rooted at `id` (including `id`),
    /// used by `matchText(n, φ, b)` with `b = true`.
    pub fn subtree_text(&self, id: PageNodeId) -> String {
        let mut parts = vec![self.text(id).to_string()];
        for d in self.descendants(id) {
            parts.push(self.text(d).to_string());
        }
        normalize_ws(&parts.join(" "))
    }

    /// Depth of `id` (root = 0).
    pub fn depth(&self, id: PageNodeId) -> usize {
        let mut d = 0;
        let mut cur = id;
        while let Some(p) = self.nodes[cur.0].parent {
            d += 1;
            cur = p;
        }
        d
    }

    /// Renders the tree as an indented debug listing (one `id, kind, text`
    /// line per node), mirroring the paper's Figure 4.
    pub fn to_outline(&self) -> String {
        let mut out = String::new();
        self.outline_rec(self.root(), 0, &mut out);
        out
    }

    fn outline_rec(&self, id: PageNodeId, depth: usize, out: &mut String) {
        use std::fmt::Write;
        let n = self.node(id);
        let _ = writeln!(
            out,
            "{}{}, {}: {}",
            "  ".repeat(depth),
            id.0,
            n.kind,
            n.text
        );
        for &c in &n.children {
            self.outline_rec(c, depth + 1, out);
        }
    }
}

/// Incremental page-tree builder used by the DOM conversion.
#[derive(Debug)]
pub(crate) struct PageTreeBuilder {
    nodes: Vec<PageNode>,
}

impl PageTreeBuilder {
    /// Starts a tree whose root has the given text.
    pub(crate) fn new(root_text: &str) -> Self {
        PageTreeBuilder {
            nodes: vec![PageNode {
                text: normalize_ws(root_text),
                kind: NodeKind::None,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// The root id.
    pub(crate) fn root(&self) -> PageNodeId {
        PageNodeId(0)
    }

    /// Adds a child with the given text under `parent`, returning its id.
    pub(crate) fn add_child(&mut self, parent: PageNodeId, text: &str) -> PageNodeId {
        let id = PageNodeId(self.nodes.len());
        self.nodes.push(PageNode {
            text: normalize_ws(text),
            kind: NodeKind::None,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent.0].children.push(id);
        id
    }

    /// Sets the kind of an existing node.
    pub(crate) fn set_kind(&mut self, id: PageNodeId, kind: NodeKind) {
        self.nodes[id.0].kind = kind;
    }

    /// Finishes the tree. Node ids are renumbered to pre-order so that a
    /// built tree is indistinguishable from a parsed one.
    pub(crate) fn finish(self) -> PageTree {
        // Renumber to pre-order.
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0usize];
        while let Some(i) = stack.pop() {
            order.push(i);
            for &PageNodeId(c) in self.nodes[i].children.iter().rev() {
                stack.push(c);
            }
        }
        let mut remap = vec![0usize; self.nodes.len()];
        for (new, &old) in order.iter().enumerate() {
            remap[old] = new;
        }
        let mut nodes: Vec<PageNode> = Vec::with_capacity(self.nodes.len());
        for &old in &order {
            let n = &self.nodes[old];
            nodes.push(PageNode {
                text: n.text.clone(),
                kind: n.kind,
                parent: n.parent.map(|PageNodeId(p)| PageNodeId(remap[p])),
                children: n
                    .children
                    .iter()
                    .map(|&PageNodeId(c)| PageNodeId(remap[c]))
                    .collect(),
            });
        }
        PageTree { nodes }
    }
}

// ---------------------------------------------------------------------------
// DOM → page tree conversion
// ---------------------------------------------------------------------------

struct Builder<'a> {
    doc: &'a Document,
    out: PageTreeBuilder,
    /// Stack of (level, node). Real headers use levels 10·k; pseudo-headers
    /// use the parent level + 1 so they always nest below real headers.
    stack: Vec<(u32, PageNodeId)>,
}

impl<'a> Builder<'a> {
    fn new(doc: &'a Document) -> Self {
        let root_text = find_root_text(doc);
        Builder {
            doc,
            out: PageTreeBuilder::new(&root_text),
            stack: Vec::new(),
        }
    }

    fn build(mut self) -> PageTree {
        let root = self.out.root();
        self.stack.push((0, root));
        self.walk(self.doc.root());
        self.out.finish()
    }

    fn top(&self) -> PageNodeId {
        self.stack.last().expect("stack never empty").1
    }

    fn top_level(&self) -> u32 {
        self.stack.last().expect("stack never empty").0
    }

    fn pop_to_level(&mut self, level: u32) {
        while self.stack.len() > 1 && self.top_level() >= level {
            self.stack.pop();
        }
    }

    fn walk(&mut self, dom: NodeId) {
        for &child in &self.doc.node(dom).children {
            match &self.doc.node(child).data {
                NodeData::Text(t) => {
                    let text = normalize_ws(t);
                    if !text.is_empty() {
                        self.out.add_child(self.top(), &text);
                    }
                }
                NodeData::Element { tag, .. } => self.element(child, tag.clone()),
                NodeData::Document => {}
            }
        }
    }

    fn element(&mut self, id: NodeId, tag: String) {
        match tag.as_str() {
            "h1" | "h2" | "h3" | "h4" | "h5" | "h6" => {
                let level = 10 * (tag.as_bytes()[1] - b'0') as u32;
                let text = self.doc.text_content(id);
                if level == 10 && self.out.root() == self.top() && self.node_count() == 1 {
                    // First H1 provides the root's text (already set by
                    // find_root_text); just reset the level.
                    self.pop_to_level(level);
                    self.stack.push((level, self.out.root()));
                    return;
                }
                self.pop_to_level(level);
                let node = self.out.add_child(self.top(), &text);
                self.stack.push((level, node));
            }
            "ul" | "ol" | "dl" => self.list(id),
            "table" => self.table(id),
            "p" | "blockquote" | "pre" | "address" | "figcaption" => {
                self.text_block(id);
            }
            "title" | "head" | "img" | "nav" | "footer" | "button" | "iframe" | "svg" | "form"
            | "input" | "select" | "noscript" => {
                // Removed during conversion ("unnecessary elements such as
                // images and scripts", Section 7). <title> feeds the root
                // text only.
            }
            "b" | "strong" => {
                // A bare bold run directly inside a container acts as a
                // pseudo-header (Figure 4's "PhD students").
                let text = self.doc.text_content(id);
                if !text.is_empty() {
                    self.push_pseudo_header(&text);
                }
            }
            "dt" => {
                let text = self.doc.text_content(id);
                if !text.is_empty() {
                    self.push_pseudo_header(&text);
                }
            }
            "dd" => self.text_block(id),
            "li" => {
                // A stray <li> outside a list: treat as a text block.
                self.text_block(id);
            }
            _ => {
                // Container elements (div, section, article, span, body…):
                // if the element is a pseudo-header (fully bold short text),
                // push it; otherwise if it holds direct text with no block
                // children, emit a text node; otherwise recurse.
                if let Some(header) = self.pseudo_header_text(id) {
                    self.push_pseudo_header(&header);
                } else if self.is_text_only(id) {
                    self.text_block(id);
                } else {
                    let before = self.stack.len();
                    self.walk(id);
                    // Pseudo-headers do not outlive their container.
                    self.truncate_pseudo(before);
                }
            }
        }
    }

    fn node_count(&self) -> usize {
        self.out.nodes.len()
    }

    fn push_pseudo_header(&mut self, text: &str) {
        // Pseudo-headers sit one level below the nearest *real* header, so
        // consecutive bold headers within a section are siblings.
        let base = self
            .stack
            .iter()
            .rev()
            .find(|(lvl, _)| lvl % 10 == 0)
            .map(|(lvl, _)| *lvl)
            .unwrap_or(0);
        let level = base + 1;
        self.pop_to_level_pseudo(level);
        let node = self.out.add_child(self.top(), text);
        self.stack.push((level, node));
    }

    /// Pops pseudo entries at or above `level`, but never a real header.
    fn pop_to_level_pseudo(&mut self, level: u32) {
        while self.stack.len() > 1
            && self.top_level() >= level
            && !self.top_level().is_multiple_of(10)
        {
            self.stack.pop();
        }
    }

    fn truncate_pseudo(&mut self, saved_len: usize) {
        while self.stack.len() > saved_len && !self.top_level().is_multiple_of(10) {
            self.stack.pop();
        }
    }

    /// If `id` is a short element whose entire content is bold, return the
    /// text — it functions as a section header visually.
    fn pseudo_header_text(&self, id: NodeId) -> Option<String> {
        let elems = self.doc.child_elements(id);
        if elems.len() != 1 {
            return None;
        }
        let only = elems[0];
        let tag = self.doc.tag(only)?;
        if tag != "b" && tag != "strong" {
            return None;
        }
        let all_text = self.doc.text_content(id);
        let bold_text = self.doc.text_content(only);
        if all_text == bold_text && !all_text.is_empty() && all_text.len() <= 80 {
            Some(all_text)
        } else {
            None
        }
    }

    /// True when `id` contains no block-level children — its text can be
    /// emitted as a single leaf.
    fn is_text_only(&self, id: NodeId) -> bool {
        let has_text = !self.doc.text_content(id).is_empty();
        has_text
            && self
                .doc
                .descendants(id)
                .skip(1)
                .all(|d| match self.doc.node(d).data {
                    NodeData::Element { ref tag, .. } => !crate::dom::is_block(tag),
                    _ => true,
                })
    }

    fn text_block(&mut self, id: NodeId) {
        // A text block that itself contains a list (rare but legal HTML)
        // falls back to container behaviour.
        let contains_list = self
            .doc
            .descendants(id)
            .skip(1)
            .any(|d| matches!(self.doc.tag(d), Some("ul" | "ol" | "table" | "dl")));
        if contains_list {
            self.walk(id);
            return;
        }
        // A pseudo-header written as <p><b>…</b></p>.
        if let Some(header) = self.pseudo_header_text(id) {
            self.push_pseudo_header(&header);
            return;
        }
        let text = self.doc.text_content(id);
        if !text.is_empty() {
            self.out.add_child(self.top(), &text);
        }
    }

    fn list(&mut self, id: NodeId) {
        let holder = self.top();
        self.out.set_kind(holder, NodeKind::List);
        for item in self.doc.child_elements(id) {
            match self.doc.tag(item) {
                Some("li" | "dd" | "dt") => self.list_item(item, holder),
                // Lists sometimes wrap items in stray containers; recurse.
                _ => self.list(item),
            }
        }
    }

    /// One `<li>`: direct text becomes a child node of `holder`; a nested
    /// list inside the item attaches its items under the item node.
    fn list_item(&mut self, li: NodeId, holder: PageNodeId) {
        let nested: Vec<NodeId> = self
            .doc
            .child_elements(li)
            .into_iter()
            .filter(|&c| matches!(self.doc.tag(c), Some("ul" | "ol")))
            .collect();
        let direct_text = {
            // Text of the li excluding nested lists.
            let mut s = String::new();
            self.collect_text_excluding(li, &nested, &mut s);
            normalize_ws(&s)
        };
        let item_node = self.out.add_child(holder, &direct_text);
        if !nested.is_empty() {
            self.out.set_kind(item_node, NodeKind::List);
            for n in nested {
                for sub in self.doc.child_elements(n) {
                    self.list_item(sub, item_node);
                }
            }
        }
    }

    fn collect_text_excluding(&self, id: NodeId, excluded: &[NodeId], out: &mut String) {
        if excluded.contains(&id) {
            return;
        }
        match &self.doc.node(id).data {
            NodeData::Text(t) => {
                out.push_str(t);
                out.push(' ');
            }
            _ => {
                for &c in &self.doc.node(id).children {
                    self.collect_text_excluding(c, excluded, out);
                }
            }
        }
    }

    fn table(&mut self, id: NodeId) {
        let holder = self.top();
        self.out.set_kind(holder, NodeKind::Table);
        for row in self.table_rows(id) {
            let cells: Vec<String> = self
                .doc
                .child_elements(row)
                .into_iter()
                .filter(|&c| matches!(self.doc.tag(c), Some("td" | "th")))
                .map(|c| self.doc.text_content(c))
                .collect();
            let text = if cells.len() == 2 {
                format!("{}: {}", cells[0], cells[1])
            } else {
                cells.join(", ")
            };
            if !text.is_empty() {
                self.out.add_child(holder, &text);
            }
        }
    }

    fn table_rows(&self, table: NodeId) -> Vec<NodeId> {
        let mut rows = Vec::new();
        for c in self.doc.descendants(table).skip(1) {
            if self.doc.tag(c) == Some("tr") {
                rows.push(c);
            }
        }
        rows
    }
}

/// Root text: the first `<h1>` if present, else the `<title>`, else "".
fn find_root_text(doc: &Document) -> String {
    for n in doc.iter() {
        if doc.tag(n) == Some("h1") {
            return doc.text_content(n);
        }
    }
    for n in doc.iter() {
        if doc.tag(n) == Some("title") {
            return doc.text_content(n);
        }
    }
    String::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIG2_TOP: &str = r#"
<h1>Jane Doe</h1>
<p>university janedoe at university.edu +00 123-456-7890</p>
<h2>Recent Publications</h2>
<p>Synthesizing programs from examples. Jane Doe. PLDI 2018.</p>
<h2>Students</h2>
<b>PhD students</b>
<ul><li>Robert Smith</li><li>Mary Anderson</li></ul>
<h2>Activities</h2>
<b>Professional Services</b>
<ul><li>Current: PLDI '21 (PC)</li><li>Past: CAV '20 (PC), PLDI '20 (SRC)</li></ul>
"#;

    #[test]
    fn figure4_shape() {
        let page = PageTree::parse(FIG2_TOP);
        let root = page.root();
        assert_eq!(page.text(root), "Jane Doe");
        let sections: Vec<&str> = page.children(root).iter().map(|&c| page.text(c)).collect();
        assert!(sections.contains(&"Students"));
        assert!(sections.contains(&"Activities"));

        let students = page
            .children(root)
            .iter()
            .copied()
            .find(|&c| page.text(c) == "Students")
            .unwrap();
        let phd = page.children(students)[0];
        assert_eq!(page.text(phd), "PhD students");
        assert_eq!(page.kind(phd), NodeKind::List);
        let names: Vec<&str> = page.children(phd).iter().map(|&c| page.text(c)).collect();
        assert_eq!(names, ["Robert Smith", "Mary Anderson"]);

        let activities = page
            .children(root)
            .iter()
            .copied()
            .find(|&c| page.text(c) == "Activities")
            .unwrap();
        let service = page.children(activities)[0];
        assert_eq!(page.text(service), "Professional Services");
        assert_eq!(page.kind(service), NodeKind::List);
        assert_eq!(page.children(service).len(), 2);
    }

    #[test]
    fn is_elem_true_only_under_list_or_table() {
        let page = PageTree::parse(FIG2_TOP);
        for id in page.iter() {
            let parent_is_struct = page
                .node(id)
                .parent
                .map(|p| page.kind(p) != NodeKind::None)
                .unwrap_or(false);
            assert_eq!(page.is_elem(id), parent_is_struct);
        }
    }

    #[test]
    fn header_hierarchy_nesting() {
        let page =
            PageTree::parse("<h1>R</h1><h2>A</h2><h3>A1</h3><p>x</p><h3>A2</h3><h2>B</h2><p>y</p>");
        let root = page.root();
        let kids: Vec<&str> = page.children(root).iter().map(|&c| page.text(c)).collect();
        assert_eq!(kids, ["A", "B"]);
        let a = page.children(root)[0];
        let a_kids: Vec<&str> = page.children(a).iter().map(|&c| page.text(c)).collect();
        assert_eq!(a_kids, ["A1", "A2"]);
        let a1 = page.children(a)[0];
        assert_eq!(page.text(page.children(a1)[0]), "x");
    }

    #[test]
    fn skipping_header_levels() {
        // h3 directly under h1 still nests under the root.
        let page = PageTree::parse("<h1>R</h1><h3>Deep</h3><p>x</p>");
        let root = page.root();
        assert_eq!(page.children(root).len(), 1);
        let deep = page.children(root)[0];
        assert_eq!(page.text(deep), "Deep");
        assert!(!page.is_leaf(deep));
    }

    #[test]
    fn no_h1_uses_title() {
        let page = PageTree::parse("<title>Dr. Who</title><h2>S</h2><p>x</p>");
        assert_eq!(page.text(page.root()), "Dr. Who");
    }

    #[test]
    fn table_rows_become_children() {
        let page = PageTree::parse(
            "<h1>R</h1><h2>Logistics</h2><table><tr><td>Instructor</td><td>Jane</td></tr>\
             <tr><td>Time</td><td>MWF 10:00</td></tr></table>",
        );
        let root = page.root();
        let sec = page.children(root)[0];
        assert_eq!(page.kind(sec), NodeKind::Table);
        let rows: Vec<&str> = page.children(sec).iter().map(|&c| page.text(c)).collect();
        assert_eq!(rows, ["Instructor: Jane", "Time: MWF 10:00"]);
    }

    #[test]
    fn nested_lists() {
        let page = PageTree::parse(
            "<h1>R</h1><h2>Topics</h2><ul><li>PL<ul><li>synthesis</li><li>types</li></ul></li>\
             <li>Systems</li></ul>",
        );
        let root = page.root();
        let topics = page.children(root)[0];
        assert_eq!(page.kind(topics), NodeKind::List);
        let pl = page.children(topics)[0];
        assert_eq!(page.text(pl), "PL");
        assert_eq!(page.kind(pl), NodeKind::List);
        let subs: Vec<&str> = page.children(pl).iter().map(|&c| page.text(c)).collect();
        assert_eq!(subs, ["synthesis", "types"]);
    }

    #[test]
    fn descendants_exclude_self() {
        let page = PageTree::parse(FIG2_TOP);
        let ds = page.descendants(page.root());
        assert_eq!(ds.len(), page.len() - 1);
        assert!(!ds.contains(&page.root()));
    }

    #[test]
    fn subtree_text_concatenates() {
        let page = PageTree::parse("<h1>R</h1><h2>S</h2><p>a</p><p>b</p>");
        let s = page.children(page.root())[0];
        assert_eq!(page.subtree_text(s), "S a b");
    }

    #[test]
    fn builder_preorder_renumbering() {
        let mut b = PageTreeBuilder::new("root");
        let s1 = b.add_child(b.root(), "s1");
        let s2 = b.add_child(b.root(), "s2");
        // interleave: add to s2 first, then s1 — ids must still come out
        // pre-order
        b.add_child(s2, "s2a");
        b.add_child(s1, "s1a");
        let t = b.finish();
        let texts: Vec<&str> = t.iter().map(|id| t.text(id)).collect();
        assert_eq!(texts, ["root", "s1", "s1a", "s2", "s2a"]);
        // parent/child links consistent
        for id in t.iter() {
            for &c in t.children(id) {
                assert_eq!(t.node(c).parent, Some(id));
            }
        }
    }

    #[test]
    fn pseudo_header_paragraph_bold() {
        let page = PageTree::parse("<h1>R</h1><h2>S</h2><p><b>Sub</b></p><p>content</p>");
        let s = page.children(page.root())[0];
        let sub = page.children(s)[0];
        assert_eq!(page.text(sub), "Sub");
        assert_eq!(page.text(page.children(sub)[0]), "content");
    }

    #[test]
    fn consecutive_pseudo_headers_are_siblings() {
        let page = PageTree::parse("<h1>R</h1><h2>S</h2><b>P1</b><p>a</p><b>P2</b><p>b</p>");
        let s = page.children(page.root())[0];
        let kids: Vec<&str> = page.children(s).iter().map(|&c| page.text(c)).collect();
        assert_eq!(kids, ["P1", "P2"]);
    }

    #[test]
    fn definition_list() {
        let page =
            PageTree::parse("<h1>R</h1><h2>Info</h2><dl><dt>Email</dt><dd>x@y.edu</dd></dl>");
        let info = page.children(page.root())[0];
        // dl marks the section a list; dt/dd items become children
        assert_eq!(page.kind(info), NodeKind::List);
        assert_eq!(page.children(info).len(), 2);
    }

    #[test]
    fn outline_rendering() {
        let page = PageTree::parse("<h1>R</h1><h2>S</h2><p>x</p>");
        let o = page.to_outline();
        assert!(o.starts_with("0, none: R"));
        assert!(o.contains("  1, none: S"));
        assert!(o.contains("    2, none: x"));
    }

    #[test]
    fn divs_as_sections() {
        let page =
            PageTree::parse("<h1>R</h1><div><h2>A</h2><p>x</p></div><div><h2>B</h2><p>y</p></div>");
        let kids: Vec<&str> = page
            .children(page.root())
            .iter()
            .map(|&c| page.text(c))
            .collect();
        assert_eq!(kids, ["A", "B"]);
    }

    #[test]
    fn a_tree_is_never_empty() {
        for html in ["", "   ", "<!-- only a comment -->", "<p>x</p>"] {
            assert!(!PageTree::parse(html).is_empty(), "{html:?} has its root");
        }
    }

    #[test]
    fn empty_html() {
        let page = PageTree::parse("");
        assert_eq!(page.len(), 1);
        assert_eq!(page.text(page.root()), "");
    }
}
