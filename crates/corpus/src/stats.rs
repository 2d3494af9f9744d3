//! Corpus statistics: quantifying the structural heterogeneity the
//! evaluation depends on.
//!
//! The paper's motivating claim (Sections 1–2) is that the target
//! websites have *no shared global schema* — which is exactly why XPath
//! wrapper induction fails on them. Since this reproduction generates its
//! corpus, that property must be demonstrable rather than assumed. This
//! module computes per-domain structural statistics (node counts, depth,
//! section-title vocabulary, schema signatures) so tests and docs can
//! assert the generators actually produce template mixtures, and so users
//! can audit a corpus at a glance (`webqa-cli corpus` consumes the
//! per-page numbers).

use std::collections::BTreeSet;

use webqa_html::{NodeKind, PageTree};

use crate::gen::GeneratedPage;
use crate::tasks::Domain;

/// Structural statistics of a set of pages from one domain.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DomainStats {
    /// The domain the pages were generated from.
    pub domain: Domain,
    /// Number of pages summarized.
    pub pages: usize,
    /// Minimum / mean / maximum page-tree node count.
    pub nodes: MinMeanMax,
    /// Minimum / mean / maximum tree depth.
    pub depth: MinMeanMax,
    /// Number of distinct top-level section titles across all pages.
    pub distinct_section_titles: usize,
    /// Number of distinct *schema signatures* (a page's top-level
    /// section titles, in order) across all pages. A schemaless corpus
    /// has many; a rigid one (what wrapper induction wants) has one.
    pub distinct_schemas: usize,
    /// Fraction of pages containing at least one list or table node.
    pub structured_fraction: f64,
}

/// A minimum / mean / maximum summary.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct MinMeanMax {
    /// Smallest observed value.
    pub min: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest observed value.
    pub max: usize,
}

impl MinMeanMax {
    fn of(values: &[usize]) -> MinMeanMax {
        assert!(!values.is_empty(), "summary of an empty sample");
        MinMeanMax {
            min: *values.iter().min().expect("non-empty"),
            mean: values.iter().sum::<usize>() as f64 / values.len() as f64,
            max: *values.iter().max().expect("non-empty"),
        }
    }
}

/// The *schema signature* of a page: its top-level section titles in
/// order, joined with `|`. Pages sharing a signature have the same
/// section layout — the "global schema" that wrapper induction exploits
/// and that this corpus deliberately lacks.
pub(crate) fn schema_signature(tree: &PageTree) -> String {
    let root = tree.root();
    tree.children(root)
        .iter()
        .map(|&c| tree.text(c).trim().to_lowercase())
        .collect::<Vec<_>>()
        .join("|")
}

/// Computes statistics over generated pages.
///
/// # Panics
///
/// Panics if `pages` is empty.
pub fn domain_stats(domain: Domain, pages: &[GeneratedPage]) -> DomainStats {
    assert!(!pages.is_empty(), "stats of an empty page set");
    let trees: Vec<PageTree> = pages.iter().map(GeneratedPage::tree).collect();
    let node_counts: Vec<usize> = trees.iter().map(PageTree::len).collect();
    let depths: Vec<usize> = trees
        .iter()
        .map(|t| t.iter().map(|n| t.depth(n)).max().unwrap_or(0))
        .collect();
    let mut titles: BTreeSet<String> = BTreeSet::new();
    let mut schemas: BTreeSet<String> = BTreeSet::new();
    let mut structured = 0usize;
    for t in &trees {
        let root = t.root();
        for &c in t.children(root) {
            titles.insert(t.text(c).trim().to_lowercase());
        }
        schemas.insert(schema_signature(t));
        if t.iter()
            .any(|n| matches!(t.kind(n), NodeKind::List | NodeKind::Table))
        {
            structured += 1;
        }
    }
    DomainStats {
        domain,
        pages: pages.len(),
        nodes: MinMeanMax::of(&node_counts),
        depth: MinMeanMax::of(&depths),
        distinct_section_titles: titles.len(),
        distinct_schemas: schemas.len(),
        structured_fraction: structured as f64 / pages.len() as f64,
    }
}

impl std::fmt::Display for DomainStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?}: {} pages, nodes {}–{:.0}–{}, depth {}–{:.1}–{}, \
             {} section titles, {} schemas, {:.0}% structured",
            self.domain,
            self.pages,
            self.nodes.min,
            self.nodes.mean,
            self.nodes.max,
            self.depth.min,
            self.depth.mean,
            self.depth.max,
            self.distinct_section_titles,
            self.distinct_schemas,
            self.structured_fraction * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate_pages;

    #[test]
    fn min_mean_max_summary() {
        let m = MinMeanMax::of(&[3, 5, 10]);
        assert_eq!(m.min, 3);
        assert_eq!(m.max, 10);
        assert!((m.mean - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn summary_of_nothing_panics() {
        let _ = MinMeanMax::of(&[]);
    }

    #[test]
    fn every_domain_is_heterogeneous() {
        // The motivating property: with 20 pages, each domain exhibits
        // several distinct schemas — there is no global layout for an
        // XPath wrapper to lock onto.
        for domain in Domain::ALL {
            let pages = generate_pages(domain, 20, 7);
            let s = domain_stats(domain, &pages);
            assert!(
                s.distinct_schemas >= 5,
                "{domain:?} produced only {} schemas across 20 pages",
                s.distinct_schemas
            );
            assert!(
                s.distinct_section_titles > 5,
                "{domain:?} section-title vocabulary too small: {}",
                s.distinct_section_titles
            );
            assert!(s.nodes.min >= 3, "{domain:?} degenerate page");
            assert!(s.depth.max >= 2, "{domain:?} flat pages only");
        }
    }

    #[test]
    fn domains_use_structured_markup() {
        // Lists/tables are what `isElem` and the HYB baseline exercise;
        // a meaningful fraction of pages must contain them.
        for domain in Domain::ALL {
            let pages = generate_pages(domain, 20, 3);
            let s = domain_stats(domain, &pages);
            assert!(
                s.structured_fraction > 0.3,
                "{domain:?}: only {:.0}% of pages have list/table structure",
                s.structured_fraction * 100.0
            );
        }
    }

    #[test]
    fn schema_signature_reflects_section_layout() {
        let a = PageTree::parse("<h1>X</h1><h2>Students</h2><p>a</p><h2>Service</h2><p>b</p>");
        let b = PageTree::parse("<h1>Y</h1><h2>Students</h2><p>c</p><h2>Service</h2><p>d</p>");
        let c = PageTree::parse("<h1>Z</h1><h2>Teaching</h2><p>e</p>");
        assert_eq!(schema_signature(&a), schema_signature(&b));
        assert_ne!(schema_signature(&a), schema_signature(&c));
    }

    #[test]
    fn display_is_informative() {
        let pages = generate_pages(Domain::Clinic, 5, 0);
        let text = domain_stats(Domain::Clinic, &pages).to_string();
        assert!(text.contains("Clinic"), "{text}");
        assert!(text.contains("schemas"), "{text}");
    }
}
