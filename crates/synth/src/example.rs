//! Training examples and F₁ scoring of DSL terms against them.
//!
//! An [`Example`] eagerly precomputes the gold token bag and the subtree
//! token bag of every page node, so that the `UB(ν, E)` ceiling of Eq. 3
//! is a cheap multiset intersection instead of repeated tokenization —
//! guard enumeration queries it thousands of times per task.
//!
//! Two ceiling kernels coexist:
//!
//! * [`Example::ceiling_counts`] — the hot path. Gold tokens get dense
//!   ids at construction; every node stores only the dense ids of its
//!   subtree tokens that occur in the gold (plus a total token count),
//!   and the pre-order subtree ranges turn covering-set computation into
//!   a single scan of the node list (sorted and deduplicated, as locator
//!   evaluation yields it). A ceiling is then a handful of array
//!   decrements — no hashing, no `HashMap` clone.
//! * [`Example::ceiling_counts_reference`] — the original definitional
//!   computation (explicit covering set + token-keyed `HashMap`), kept as
//!   the `SynthConfig::reference()` slow path and as the test oracle for
//!   the fast kernel.

use std::collections::HashMap;
use std::sync::Arc;

use webqa_dsl::{PageNodeId, PageTree, Program, QueryContext};
use webqa_metrics::{tokenize, tokenize_all, Counts, Token};

/// One labeled webpage: the parsed page plus the gold extraction strings.
///
/// The page is held behind an [`Arc`] so that examples built from a shared
/// page store (`webqa::PageStore`) alias the interned trees instead of
/// deep-cloning them — cloning an `Example` (which the partition search
/// does per memoized block) only bumps the refcount.
#[derive(Debug, Clone)]
pub struct Example {
    /// The page tree (shared, never deep-cloned by the synthesizer).
    pub page: Arc<PageTree>,
    /// Gold extraction strings.
    pub gold: Vec<String>,
    gold_tokens: Vec<Token>,
    gold_counts: HashMap<Token, usize>,
    /// Subtree token bag per node (indexed by `PageNodeId`); reference
    /// ceiling path and diagnostics.
    subtree_tokens: Vec<Vec<Token>>,
    /// Multiplicity per dense gold-token id (fast ceiling kernel).
    gold_distinct: Vec<u32>,
    /// Per node: dense gold ids of the subtree tokens that occur in the
    /// gold bag (with multiplicity; non-gold tokens are dropped).
    node_gold_hits: Vec<Vec<u16>>,
    /// Per node: total subtree token count (gold-relevant or not).
    node_token_count: Vec<u32>,
    /// Per node: exclusive end of its pre-order subtree range — node `i`'s
    /// subtree is exactly the ids `i..subtree_end[i]`.
    subtree_end: Vec<usize>,
}

impl Example {
    /// Creates an example, pre-tokenizing the gold labels and every node's
    /// subtree text. Accepts an owned [`PageTree`] (wrapped on the spot)
    /// or an already-shared `Arc<PageTree>` handle.
    pub fn new(page: impl Into<Arc<PageTree>>, gold: Vec<String>) -> Self {
        let page = page.into();
        let gold_tokens = tokenize_all(&gold);
        let mut gold_counts: HashMap<Token, usize> = HashMap::new();
        for t in &gold_tokens {
            *gold_counts.entry(t.clone()).or_insert(0) += 1;
        }
        let subtree_tokens: Vec<Vec<Token>> = page
            .iter()
            .map(|n| tokenize(&page.subtree_text(n)))
            .collect();

        // Dense gold ids, in first-occurrence order. u16 bounds the
        // per-node hit lists; a gold bag past that is not a scoring
        // problem this kernel supports silently.
        assert!(
            gold_counts.len() <= usize::from(u16::MAX),
            "gold bag has {} distinct tokens; the dense ceiling kernel supports at most {}",
            gold_counts.len(),
            u16::MAX
        );
        let mut dense: HashMap<&Token, u16> = HashMap::new();
        let mut gold_distinct: Vec<u32> = Vec::new();
        for t in &gold_tokens {
            match dense.get(t) {
                Some(&id) => gold_distinct[id as usize] += 1,
                None => {
                    let id = gold_distinct.len() as u16;
                    dense.insert(t, id);
                    gold_distinct.push(1);
                }
            }
        }
        let node_gold_hits: Vec<Vec<u16>> = subtree_tokens
            .iter()
            .map(|toks| toks.iter().filter_map(|t| dense.get(t).copied()).collect())
            .collect();
        let node_token_count: Vec<u32> = subtree_tokens.iter().map(|t| t.len() as u32).collect();

        // Pre-order subtree ranges: children ids are contiguous after the
        // parent, so end[i] = end of the last child (or i + 1 for leaves).
        let mut subtree_end = vec![0usize; page.len()];
        for i in (0..page.len()).rev() {
            let children = page.children(PageNodeId(i));
            subtree_end[i] = match children.last() {
                Some(last) => subtree_end[last.index()],
                None => i + 1,
            };
        }

        Example {
            page,
            gold,
            gold_tokens,
            gold_counts,
            subtree_tokens,
            gold_distinct,
            node_gold_hits,
            node_token_count,
            subtree_end,
        }
    }

    /// The gold token bag.
    pub(crate) fn gold_tokens(&self) -> &[Token] {
        &self.gold_tokens
    }

    /// Token-overlap counts of a predicted string set against this
    /// example's gold.
    pub(crate) fn counts_for(&self, predicted: &[String]) -> Counts {
        Counts::from_bags(&tokenize_all(predicted), &self.gold_tokens)
    }

    /// Counts with *maximal possible recall* for a set of located nodes:
    /// every token in the subtree text of the (covering) nodes is treated
    /// as predicted. This is the `Recall(ν, E)` of Eq. 3 — sound for any
    /// extractor running below the locator because extractors only ever
    /// see located-node text.
    ///
    /// Runs on the dense-id kernel, counting gold multiplicities down in
    /// `remaining` (a caller-owned scratch buffer, overwritten); agrees
    /// with [`ceiling_counts_reference`](Example::ceiling_counts_reference)
    /// (tested, and proven end-to-end by the parity suite).
    ///
    /// `nodes` must be in document order without repeats, as locator
    /// evaluation yields them; debug builds check it.
    pub fn ceiling_counts(&self, nodes: &[PageNodeId], remaining: &mut Vec<u32>) -> Counts {
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "ceiling_counts needs sorted, deduplicated nodes"
        );
        remaining.clear();
        remaining.extend_from_slice(&self.gold_distinct);
        let mut matched = 0usize;
        let mut predicted = 0usize;
        let mut cover_end = 0usize;
        for n in nodes {
            let i = n.index();
            if i < cover_end {
                // Inside the subtree of an already-kept node: the
                // covering-set rule drops it so its text is not counted
                // twice.
                continue;
            }
            cover_end = self.subtree_end[i];
            predicted += self.node_token_count[i] as usize;
            for &d in &self.node_gold_hits[i] {
                let slot = d as usize;
                if remaining[slot] > 0 {
                    remaining[slot] -= 1;
                    matched += 1;
                }
            }
        }
        Counts {
            matched,
            predicted,
            gold: self.gold_tokens.len(),
        }
    }

    /// The original (pre-overhaul) ceiling computation: explicit covering
    /// set plus a cloned token-keyed `HashMap`. This is the
    /// `SynthConfig::reference()` kernel and the ground truth
    /// [`ceiling_counts`](Example::ceiling_counts) is tested against.
    pub fn ceiling_counts_reference(&self, nodes: &[PageNodeId]) -> Counts {
        let cover = covering_set(&self.page, nodes);
        let mut remaining = self.gold_counts.clone();
        let mut matched = 0usize;
        let mut predicted = 0usize;
        for n in cover {
            for t in &self.subtree_tokens[n.index()] {
                predicted += 1;
                if let Some(c) = remaining.get_mut(t) {
                    if *c > 0 {
                        *c -= 1;
                        matched += 1;
                    }
                }
            }
        }
        Counts {
            matched,
            predicted,
            gold: self.gold_tokens.len(),
        }
    }

    /// [`Example::ceiling_counts`] for the nodes a locator selects.
    #[cfg(test)]
    fn locator_ceiling(&self, ctx: &QueryContext, locator: &webqa_dsl::Locator) -> Counts {
        self.ceiling_counts(&locator.eval(ctx, &self.page), &mut Vec::new())
    }

    /// Exclusive end of node `n`'s pre-order subtree range: the ids
    /// `n.index() + 1 .. subtree_end_of(n)` are exactly `n`'s proper
    /// descendants, in document order.
    pub(crate) fn subtree_end_of(&self, n: PageNodeId) -> usize {
        self.subtree_end[n.index()]
    }
}

/// Removes nodes that are descendants of other nodes in the set, so
/// subtree texts are not double counted (reference kernel).
fn covering_set(page: &PageTree, nodes: &[PageNodeId]) -> Vec<PageNodeId> {
    let set: std::collections::HashSet<PageNodeId> = nodes.iter().copied().collect();
    nodes
        .iter()
        .copied()
        .filter(|&n| {
            let mut cur = page.node(n).parent;
            while let Some(p) = cur {
                if set.contains(&p) {
                    return false;
                }
                cur = page.node(p).parent;
            }
            true
        })
        .collect()
}

/// Summed token-overlap counts of per-example outputs: `outputs[i]` is
/// the extractor output on example `i`, and the counts' F₁ is the
/// micro-averaged `F1(e, E)` of Figure 9.
#[cfg(test)]
pub(crate) fn counts_of_outputs(examples: &[Example], outputs: &[Vec<String>]) -> Counts {
    examples
        .iter()
        .zip(outputs)
        .map(|(ex, out)| ex.counts_for(out))
        .sum()
}

/// Reference-kernel scoring used by `SynthConfig::reference()`: the exact
/// pre-overhaul string path (tokenize every output, hash against the gold
/// bag), optionally applying the program-level set semantics first.
pub(crate) fn counts_of_outputs_ref<'e, S: AsRef<str>>(
    examples: impl IntoIterator<Item = &'e Example>,
    outputs: &[Vec<S>],
    dedup: bool,
) -> Counts {
    examples
        .into_iter()
        .zip(outputs)
        .map(|(ex, out)| {
            if dedup {
                let mut seen = std::collections::HashSet::new();
                let strings: Vec<&str> = out
                    .iter()
                    .map(AsRef::as_ref)
                    .filter(|s| seen.insert(*s))
                    .collect();
                Counts::from_bags(&tokenize_all(&strings), ex.gold_tokens())
            } else {
                let strings: Vec<&str> = out.iter().map(AsRef::as_ref).collect();
                Counts::from_bags(&tokenize_all(&strings), ex.gold_tokens())
            }
        })
        .sum()
}

/// Evaluates a full program on a set of examples (micro-averaged counts).
pub fn program_counts(ctx: &QueryContext, examples: &[Example], program: &Program) -> Counts {
    examples
        .iter()
        .map(|ex| ex.counts_for(&program.eval(ctx, &ex.page)))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_dsl::{Locator, NodeFilter};

    fn page() -> PageTree {
        PageTree::parse(
            "<h1>R</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>Other</h2><p>noise text</p>",
        )
    }

    fn ctx() -> QueryContext {
        QueryContext::new("", ["Students"])
    }

    #[test]
    fn counts_against_gold() {
        let ex = Example::new(page(), vec!["Jane Doe".into(), "Bob Smith".into()]);
        let c = ex.counts_for(&["Jane Doe".to_string()]);
        assert_eq!(c.matched, 2);
        assert_eq!(c.gold, 4);
    }

    #[test]
    fn locator_ceiling_root_covers_everything() {
        let ex = Example::new(page(), vec!["Jane Doe".into()]);
        let c = ex.locator_ceiling(&ctx(), &Locator::Root);
        // All gold tokens are on the page, so recall ceiling is 1.
        assert_eq!(c.recall(), 1.0);
    }

    #[test]
    fn locator_ceiling_narrow_section() {
        let ex = Example::new(page(), vec!["Jane Doe".into(), "Bob Smith".into()]);
        // Locate only the "Other" section: none of the gold is under it.
        let other = Locator::Children(
            Box::new(Locator::Root),
            NodeFilter::MatchText {
                pred: webqa_dsl::NlpPred::MatchKeyword(webqa_dsl::Threshold::new(0.9)),
                subtree: false,
            },
        );
        let ctx = QueryContext::new("", ["Other"]);
        let c = ex.locator_ceiling(&ctx, &other);
        assert_eq!(c.recall(), 0.0);
    }

    #[test]
    fn covering_set_drops_nested_nodes() {
        let p = page();
        let root = p.root();
        let all: Vec<PageNodeId> = std::iter::once(root).chain(p.descendants(root)).collect();
        let cover = covering_set(&p, &all);
        assert_eq!(cover, vec![root]);
    }

    #[test]
    fn ceiling_does_not_double_count_overlapping_subtrees() {
        let ex = Example::new(page(), vec!["Jane Doe".into()]);
        let everything = Locator::Descendants(Box::new(Locator::Root), NodeFilter::True);
        let c = ex.locator_ceiling(&ctx(), &everything);
        // "jane" appears once on the page; predicted count must not blow up
        // beyond the page's own token count even though every node was
        // located.
        let page_tokens = tokenize(&ex.page.subtree_text(ex.page.root())).len();
        assert!(c.predicted <= page_tokens);
    }

    #[test]
    fn ceiling_counts_matches_slow_path() {
        let ex = Example::new(page(), vec!["Jane Doe".into(), "noise".into()]);
        let ctx = ctx();
        for loc in [
            Locator::Root,
            Locator::leaves(Locator::Root),
            Locator::Children(Box::new(Locator::Root), NodeFilter::True),
        ] {
            let nodes = loc.eval(&ctx, &ex.page);
            let fast = ex.ceiling_counts(&nodes, &mut Vec::new());
            // Slow path: re-tokenize subtree text of the covering set.
            let cover = covering_set(&ex.page, &nodes);
            let mut toks = Vec::new();
            for n in cover {
                toks.extend(tokenize(&ex.page.subtree_text(n)));
            }
            let slow = Counts::from_bags(&toks, ex.gold_tokens());
            assert_eq!(fast, slow, "locator {loc}");
            assert_eq!(ex.ceiling_counts_reference(&nodes), slow, "locator {loc}");
        }
    }

    #[test]
    fn fast_ceiling_matches_reference_on_arbitrary_node_sets() {
        let ex = Example::new(
            page(),
            vec!["Jane Doe".into(), "Bob Smith".into(), "noise".into()],
        );
        let n = ex.page.len();
        let mut scratch = Vec::new();
        // Every subset of a small page, in document order.
        for mask in 0u32..(1 << n) {
            let nodes: Vec<PageNodeId> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(PageNodeId)
                .collect();
            assert_eq!(
                ex.ceiling_counts(&nodes, &mut scratch),
                ex.ceiling_counts_reference(&nodes),
                "mask {mask:b}"
            );
        }
    }

    #[test]
    fn one_scratch_buffer_serves_examples_of_any_gold_size() {
        // The guard enumerator reuses one buffer across examples; what an
        // earlier call left in it, longer or shorter, must not leak.
        let big = Example::new(
            page(),
            vec!["Jane Doe".into(), "Bob Smith".into(), "noise text".into()],
        );
        let small = Example::new(page(), vec!["Bob".into()]);
        let none = Example::new(page(), vec![]);
        let all: Vec<PageNodeId> = big.page.iter().collect();
        let mut scratch = vec![u32::MAX; 64];
        for _ in 0..2 {
            for ex in [&big, &small, &none, &big] {
                assert_eq!(
                    ex.ceiling_counts(&all, &mut scratch),
                    ex.ceiling_counts_reference(&all)
                );
                assert_eq!(scratch.len(), ex.gold_distinct.len());
            }
        }
        assert_eq!(none.ceiling_counts(&all, &mut scratch).matched, 0);
    }

    #[test]
    fn subtree_ranges_are_preorder() {
        let ex = Example::new(page(), vec![]);
        for id in ex.page.iter() {
            let i = id.index();
            let descendants = ex.page.descendants(id);
            assert_eq!(ex.subtree_end[i], i + 1 + descendants.len(), "node {i}");
            for d in descendants {
                assert!(d.index() > i && d.index() < ex.subtree_end[i]);
            }
        }
    }

    #[test]
    fn f1_of_outputs_micro_averages() {
        let ex1 = Example::new(page(), vec!["Jane Doe".into()]);
        let ex2 = Example::new(page(), vec!["Bob Smith".into()]);
        let outs = vec![vec!["Jane Doe".to_string()], vec!["wrong".to_string()]];
        let f1 = counts_of_outputs(&[ex1, ex2], &outs).f1();
        assert!(f1 > 0.0 && f1 < 1.0);
    }
}
