//! # webqa-html
//!
//! HTML substrate for the WebQA reproduction: a from-scratch lenient HTML
//! tokenizer and DOM builder, the paper's header-hierarchy *page tree*
//! representation (Definition 3.1), and the XPath-style queries used by the
//! wrapper-induction baselines.
//!
//! The paper (Section 7) parses pages with BeautifulSoup4, removes scripts
//! and images, and converts the DOM to a tree whose edges mean "this text
//! is the header of that text". [`PageTree::parse`] performs that whole
//! pipeline:
//!
//! ```
//! use webqa_html::{PageTree, NodeKind};
//! let page = PageTree::parse(
//!     "<h1>Jane Doe</h1>\
//!      <h2>Students</h2><b>PhD students</b>\
//!      <ul><li>Robert Smith</li><li>Mary Anderson</li></ul>",
//! );
//! let students = page.children(page.root())[0];
//! let phd = page.children(students)[0];
//! assert_eq!(page.kind(phd), NodeKind::List);
//! assert_eq!(page.text(page.children(phd)[0]), "Robert Smith");
//! ```
//!
//! ## The conformance corpus
//!
//! Real pages are sloppy in ways unit tests under-sample, so the parser's
//! observable behaviour is pinned by a declarative, html5lib-tests-style
//! fixture corpus in `tests/fixtures/html5/*.dat` at the workspace root,
//! driven by `tests/html_conformance.rs`. Each `.dat` file covers one
//! damage family — misnested and unclosed tags, raw-text elements
//! (`<script>`/`<style>` dropped, `<textarea>` kept), exotic and
//! malformed character references, attribute edge cases, encoding
//! oddities (BOM, CRLF, NUL), structural noise (doctypes, comments,
//! CDATA, processing instructions), and size/depth limits — and each
//! case records the input, the expected tree serialization, the expected
//! [`ParseDiagnostics`] counters, and (when strict parsing rejects) the
//! exact [`HtmlError`] message.
//!
//! Both entry points are held to the corpus: [`parse_html_report`] must
//! reproduce every tree and diagnostic byte for byte, and
//! [`try_parse_html`] must accept or reject exactly as recorded —
//! building the identical tree whenever it accepts. To extend the
//! corpus, add a `#case`/`#data` pair and run the runner with
//! `WEBQA_BLESS=1` to generate the expectation sections, then
//! hand-review the blessed output before committing it.

#![warn(missing_docs)]

mod dom;
mod entities;
mod error;
mod pagetree;
mod parse;
pub mod query;
mod serialize;
mod tokenizer;

pub use dom::{Document, Node, NodeData, NodeId};
pub use entities::decode_entities;
pub use error::{HtmlError, ParseDiagnostics, MAX_OPEN_DEPTH};
pub use pagetree::{NodeKind, PageNode, PageNodeId, PageTree};
pub use parse::{parse_html, parse_html_report, try_parse_html};
pub use serialize::serialize;
pub use tokenizer::Attribute;
