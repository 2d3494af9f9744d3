//! Abstract syntax of the WebQA DSL (Figure 5 of the paper).
//!
//! ```text
//! Program   p ::= λQ,K,W. {ψ₁ → λx.e₁, …, ψₙ → λx.eₙ}
//! Guard     ψ ::= Sat(ν, λz.φ) | IsSingleton(ν)
//! Extractor e ::= ExtractContent(x) | Substring(e, λz.φ, k)
//!               | Filter(e, λz.φ) | Split(e, c)
//! Locator   ν ::= GetRoot(W) | GetChildren(ν, λn.φ) | GetDescendants(ν, λn.φ)
//! NodeFilter φ ::= isLeaf(n) | isElem(n) | matchText(n, λz.φ, b)
//!               | ⊤ | φ∧φ | φ∨φ | ¬φ
//! NLP pred  φ ::= matchKeyword(z, K, t) | hasAnswer(z, Q) | hasEntity(z, l)
//!               | ⊤ | φ∧φ | φ∨φ | ¬φ
//! ```
//!
//! All types implement `Eq + Hash` so the synthesizer can memoize and
//! deduplicate; thresholds are therefore stored in fixed-point hundredths
//! ([`Threshold`]).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use webqa_nlp::EntityKind;

/// A keyword-similarity threshold `t ∈ [0, 1]`, stored in hundredths so DSL
/// terms are `Eq + Hash` (the paper discretizes thresholds with step 0.05).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Threshold(u8);

impl Threshold {
    /// Creates a threshold, clamping to `[0, 1]` and rounding to
    /// hundredths.
    pub fn new(t: f64) -> Self {
        Threshold((t.clamp(0.0, 1.0) * 100.0).round() as u8)
    }

    /// The threshold value in `[0, 1]`.
    pub fn value(self) -> f64 {
        f64::from(self.0) / 100.0
    }
}

impl std::fmt::Display for Threshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2}", self.value())
    }
}

/// NLP predicates `φ` over strings — the neural leaves of the DSL.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NlpPred {
    /// `matchKeyword(z, K, t)`: semantic similarity of `z` to some keyword
    /// in the query context exceeds `t`.
    MatchKeyword(Threshold),
    /// `hasAnswer(z, Q)`: the QA model finds the question's answer in `z`.
    HasAnswer,
    /// `hasEntity(z, l)`: `z` contains an entity of kind `l`.
    HasEntity(EntityKind),
    /// `⊤`.
    True,
    /// Conjunction.
    And(Box<NlpPred>, Box<NlpPred>),
    /// Disjunction.
    Or(Box<NlpPred>, Box<NlpPred>),
    /// Negation.
    Not(Box<NlpPred>),
}

impl NlpPred {
    /// AST size (number of constructors).
    pub(crate) fn size(&self) -> usize {
        match self {
            NlpPred::MatchKeyword(_)
            | NlpPred::HasAnswer
            | NlpPred::HasEntity(_)
            | NlpPred::True => 1,
            NlpPred::And(a, b) | NlpPred::Or(a, b) => 1 + a.size() + b.size(),
            NlpPred::Not(a) => 1 + a.size(),
        }
    }

    /// Whether the predicate mentions `matchKeyword` (keyword modality).
    pub(crate) fn uses_keywords(&self) -> bool {
        match self {
            NlpPred::MatchKeyword(_) => true,
            NlpPred::HasAnswer | NlpPred::HasEntity(_) | NlpPred::True => false,
            NlpPred::And(a, b) | NlpPred::Or(a, b) => a.uses_keywords() || b.uses_keywords(),
            NlpPred::Not(a) => a.uses_keywords(),
        }
    }

    /// Whether the predicate mentions `hasAnswer` (question modality).
    pub(crate) fn uses_question(&self) -> bool {
        match self {
            NlpPred::HasAnswer => true,
            NlpPred::MatchKeyword(_) | NlpPred::HasEntity(_) | NlpPred::True => false,
            NlpPred::And(a, b) | NlpPred::Or(a, b) => a.uses_question() || b.uses_question(),
            NlpPred::Not(a) => a.uses_question(),
        }
    }
}

/// Node filters `φ` over page-tree nodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeFilter {
    /// `isLeaf(n)`.
    IsLeaf,
    /// `isElem(n)`: `n` is a list element or table row.
    IsElem,
    /// `matchText(n, λz.φ, b)`: the node's own text (`b = false`) or entire
    /// subtree text (`b = true`) satisfies the NLP predicate.
    MatchText {
        /// The NLP predicate applied to the text.
        pred: NlpPred,
        /// Whether to use the whole subtree's text.
        subtree: bool,
    },
    /// `⊤`.
    True,
    /// Conjunction.
    And(Box<NodeFilter>, Box<NodeFilter>),
    /// Disjunction.
    Or(Box<NodeFilter>, Box<NodeFilter>),
    /// Negation.
    Not(Box<NodeFilter>),
}

impl NodeFilter {
    /// AST size.
    pub(crate) fn size(&self) -> usize {
        match self {
            NodeFilter::IsLeaf | NodeFilter::IsElem | NodeFilter::True => 1,
            NodeFilter::MatchText { pred, .. } => 1 + pred.size(),
            NodeFilter::And(a, b) | NodeFilter::Or(a, b) => 1 + a.size() + b.size(),
            NodeFilter::Not(a) => 1 + a.size(),
        }
    }

    /// Whether any nested predicate uses keywords.
    pub(crate) fn uses_keywords(&self) -> bool {
        match self {
            NodeFilter::MatchText { pred, .. } => pred.uses_keywords(),
            NodeFilter::IsLeaf | NodeFilter::IsElem | NodeFilter::True => false,
            NodeFilter::And(a, b) | NodeFilter::Or(a, b) => a.uses_keywords() || b.uses_keywords(),
            NodeFilter::Not(a) => a.uses_keywords(),
        }
    }

    /// Whether any nested predicate uses the question.
    pub(crate) fn uses_question(&self) -> bool {
        match self {
            NodeFilter::MatchText { pred, .. } => pred.uses_question(),
            NodeFilter::IsLeaf | NodeFilter::IsElem | NodeFilter::True => false,
            NodeFilter::And(a, b) | NodeFilter::Or(a, b) => a.uses_question() || b.uses_question(),
            NodeFilter::Not(a) => a.uses_question(),
        }
    }
}

/// Section locators `ν`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Locator {
    /// `GetRoot(W)`.
    Root,
    /// `GetChildren(ν, λn.φ)`.
    Children(Box<Locator>, NodeFilter),
    /// `GetDescendants(ν, λn.φ)`.
    Descendants(Box<Locator>, NodeFilter),
}

impl Locator {
    /// `GetLeaves(ν)` sugar from the paper (footnote 2):
    /// `GetDescendants(ν, λn. isLeaf(n))`.
    pub fn leaves(inner: Locator) -> Locator {
        Locator::Descendants(Box::new(inner), NodeFilter::IsLeaf)
    }

    /// AST size.
    pub(crate) fn size(&self) -> usize {
        match self {
            Locator::Root => 1,
            Locator::Children(l, f) | Locator::Descendants(l, f) => 1 + l.size() + f.size(),
        }
    }

    /// AST depth (number of locator constructors on the spine).
    pub fn depth(&self) -> usize {
        match self {
            Locator::Root => 1,
            Locator::Children(l, _) | Locator::Descendants(l, _) => 1 + l.depth(),
        }
    }

    /// Whether any nested filter uses keywords.
    pub(crate) fn uses_keywords(&self) -> bool {
        match self {
            Locator::Root => false,
            Locator::Children(l, f) | Locator::Descendants(l, f) => {
                l.uses_keywords() || f.uses_keywords()
            }
        }
    }

    /// Whether any nested filter uses the question.
    pub(crate) fn uses_question(&self) -> bool {
        match self {
            Locator::Root => false,
            Locator::Children(l, f) | Locator::Descendants(l, f) => {
                l.uses_question() || f.uses_question()
            }
        }
    }
}

/// Guards `ψ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Guard {
    /// `Sat(ν, λz.φ)`: some located node's text satisfies `φ`.
    Sat(Locator, NlpPred),
    /// `IsSingleton(ν)`: exactly one node is located.
    IsSingleton(Locator),
}

impl Guard {
    /// The guard's section locator.
    pub fn locator(&self) -> &Locator {
        match self {
            Guard::Sat(l, _) | Guard::IsSingleton(l) => l,
        }
    }

    /// AST size.
    pub(crate) fn size(&self) -> usize {
        match self {
            Guard::Sat(l, p) => 1 + l.size() + p.size(),
            Guard::IsSingleton(l) => 1 + l.size(),
        }
    }

    /// Whether the guard uses keywords anywhere.
    pub(crate) fn uses_keywords(&self) -> bool {
        match self {
            Guard::Sat(l, p) => l.uses_keywords() || p.uses_keywords(),
            Guard::IsSingleton(l) => l.uses_keywords(),
        }
    }

    /// Whether the guard uses the question anywhere.
    pub(crate) fn uses_question(&self) -> bool {
        match self {
            Guard::Sat(l, p) => l.uses_question() || p.uses_question(),
            Guard::IsSingleton(l) => l.uses_question(),
        }
    }
}

/// Extractors `e`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Extractor {
    /// `ExtractContent(x)`: the text of each located node.
    Content,
    /// `Substring(e, λz.φ, k)`: the top-`k` substrings of each string that
    /// satisfy `φ`.
    Substring(Box<Extractor>, NlpPred, usize),
    /// `Filter(e, λz.φ)`: keep only strings satisfying `φ`.
    Filter(Box<Extractor>, NlpPred),
    /// `Split(e, c)`: split each string on the delimiter.
    Split(Box<Extractor>, char),
}

impl Extractor {
    /// `GetEntity(e, l)` sugar from the paper (footnote 3):
    /// `Substring(e, λz. hasEntity(z, l), 1)`.
    #[cfg(test)]
    pub(crate) fn entity(inner: Extractor, kind: EntityKind) -> Extractor {
        Extractor::Substring(Box::new(inner), NlpPred::HasEntity(kind), 1)
    }

    /// The immediate sub-extractor, if any.
    #[cfg(test)]
    fn inner(&self) -> Option<&Extractor> {
        match self {
            Extractor::Content => None,
            Extractor::Substring(e, _, _) | Extractor::Filter(e, _) | Extractor::Split(e, _) => {
                Some(e)
            }
        }
    }

    /// AST size.
    pub(crate) fn size(&self) -> usize {
        match self {
            Extractor::Content => 1,
            Extractor::Substring(e, p, _) => 1 + e.size() + p.size(),
            Extractor::Filter(e, p) => 1 + e.size() + p.size(),
            Extractor::Split(e, _) => 1 + e.size(),
        }
    }

    /// AST depth (extractor constructors on the spine).
    pub fn depth(&self) -> usize {
        match self {
            Extractor::Content => 1,
            Extractor::Substring(e, _, _) | Extractor::Filter(e, _) | Extractor::Split(e, _) => {
                1 + e.depth()
            }
        }
    }

    /// Whether the extractor uses keywords anywhere.
    pub(crate) fn uses_keywords(&self) -> bool {
        match self {
            Extractor::Content => false,
            Extractor::Substring(e, p, _) | Extractor::Filter(e, p) => {
                e.uses_keywords() || p.uses_keywords()
            }
            Extractor::Split(e, _) => e.uses_keywords(),
        }
    }

    /// Whether the extractor uses the question anywhere.
    pub(crate) fn uses_question(&self) -> bool {
        match self {
            Extractor::Content => false,
            Extractor::Substring(e, p, _) | Extractor::Filter(e, p) => {
                e.uses_question() || p.uses_question()
            }
            Extractor::Split(e, _) => e.uses_question(),
        }
    }
}

/// One guarded branch `ψ → λx.e`.
///
/// Both fields are shared trees: the synthesizer builds each distinct
/// guard and extractor once per task, and every optimal program that uses
/// one holds a pointer to it, so cloning a branch copies two pointers.
/// Equality, hashing, `Display` and serde are by value: branches over
/// different allocations of equal trees are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Branch {
    /// The guard.
    pub guard: Arc<Guard>,
    /// The extractor applied when the guard fires.
    pub extractor: Arc<Extractor>,
}

impl Branch {
    /// Creates a branch from owned or shared trees.
    pub fn new(guard: impl Into<Arc<Guard>>, extractor: impl Into<Arc<Extractor>>) -> Self {
        Branch {
            guard: guard.into(),
            extractor: extractor.into(),
        }
    }

    /// AST size.
    pub(crate) fn size(&self) -> usize {
        self.guard.size() + self.extractor.size()
    }
}

/// Dense ids for the distinct trees behind shared branch fields, in
/// first-seen order. A tree is looked up by its `Arc`'s address first,
/// so each allocation is hashed by value only once, and equal trees in
/// different allocations still share one id.
#[derive(Debug)]
pub struct TreeIds<'a, T> {
    /// The id of every allocation seen.
    pub by_address: HashMap<*const T, u32, FxBuild>,
    /// The distinct trees, indexed by id.
    pub values: Vec<&'a T>,
    by_value: HashMap<&'a T, u32, FxBuild>,
}

impl<T> Default for TreeIds<'_, T> {
    fn default() -> Self {
        TreeIds {
            by_address: HashMap::default(),
            values: Vec::new(),
            by_value: HashMap::default(),
        }
    }
}

impl<'a, T: Hash + Eq> TreeIds<'a, T> {
    /// The id of `tree`'s value, given on first sight of that value.
    pub fn id(&mut self, tree: &'a Arc<T>) -> u32 {
        let (values, by_value) = (&mut self.values, &mut self.by_value);
        *self.by_address.entry(Arc::as_ptr(tree)).or_insert_with(|| {
            *by_value.entry(&**tree).or_insert_with(|| {
                values.push(&**tree);
                u32::try_from(values.len() - 1).expect("fewer than 2^32 distinct trees")
            })
        })
    }

    /// The tree with id `id`.
    pub fn get(&self, id: u32) -> &'a T {
        self.values[id as usize]
    }
}

/// FxHash (the rustc hash): fast, deterministic, non-cryptographic. For
/// maps keyed by ids and addresses a program builds, not by page text.
#[derive(Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

// `#[inline]` throughout: the hasher's users are in other crates, and
// the search hashes a behaviour key per candidate.
impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(w);
            self.add(u64::from_le_bytes(buf));
        }
        for &b in words.remainder() {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`]-keyed maps.
pub type FxBuild = BuildHasherDefault<FxHasher>;

/// A complete WebQA program: an ordered sequence of guarded branches.
///
/// Its branches share their guard and extractor trees (see [`Branch`]),
/// so cloning a program copies pointers, not trees; equality and hashing
/// are by value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// Branches tried in order; the first true guard's extractor runs.
    pub branches: Vec<Branch>,
}

impl Program {
    /// Creates a program from branches.
    pub fn new(branches: Vec<Branch>) -> Self {
        Program { branches }
    }

    /// A single-branch program.
    pub fn single(guard: impl Into<Arc<Guard>>, extractor: impl Into<Arc<Extractor>>) -> Self {
        Program {
            branches: vec![Branch::new(guard, extractor)],
        }
    }

    /// AST size (used by the `Shortest` selection baseline, Section 8.3).
    pub fn size(&self) -> usize {
        self.branches.iter().map(Branch::size).sum()
    }

    /// Whether any component uses keywords.
    pub(crate) fn uses_keywords(&self) -> bool {
        self.branches
            .iter()
            .any(|b| b.guard.uses_keywords() || b.extractor.uses_keywords())
    }

    /// Whether any component uses the question.
    pub(crate) fn uses_question(&self) -> bool {
        self.branches
            .iter()
            .any(|b| b.guard.uses_question() || b.extractor.uses_question())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_program() -> Program {
        // GetLeaves(GetDescendants(r, λz. matchKeyword(z, K))) with the
        // motivating example's extractor (Eq. 1 + Eq. 2 of the paper).
        let locator = Locator::leaves(Locator::Descendants(
            Box::new(Locator::Root),
            NodeFilter::MatchText {
                pred: NlpPred::MatchKeyword(Threshold::new(0.8)),
                subtree: false,
            },
        ));
        let guard = Guard::Sat(locator, NlpPred::True);
        let extractor = Extractor::entity(
            Extractor::Filter(
                Box::new(Extractor::Split(Box::new(Extractor::Content), ',')),
                NlpPred::MatchKeyword(Threshold::new(0.6)),
            ),
            EntityKind::Organization,
        );
        Program::single(guard, extractor)
    }

    #[test]
    fn threshold_fixed_point() {
        assert_eq!(Threshold::new(0.75).value(), 0.75);
        assert_eq!(Threshold::new(0.754).value(), 0.75);
        assert_eq!(Threshold::new(1.7).value(), 1.0);
        assert_eq!(Threshold::new(-0.2).value(), 0.0);
        assert_eq!(Threshold::new(0.05).to_string(), "0.05");
    }

    #[test]
    fn sizes_and_depths() {
        let p = sample_program();
        assert!(p.size() > 8);
        let b = &p.branches[0];
        assert_eq!(b.extractor.depth(), 4); // entity(filter(split(content)))
        assert_eq!(b.guard.locator().depth(), 3); // leaves(descendants(root))
    }

    #[test]
    fn sugar_expansions() {
        let leaves = Locator::leaves(Locator::Root);
        assert_eq!(
            leaves,
            Locator::Descendants(Box::new(Locator::Root), NodeFilter::IsLeaf)
        );
        let ge = Extractor::entity(Extractor::Content, EntityKind::Person);
        assert_eq!(
            ge,
            Extractor::Substring(
                Box::new(Extractor::Content),
                NlpPred::HasEntity(EntityKind::Person),
                1
            )
        );
    }

    #[test]
    fn modality_usage_flags() {
        let p = sample_program();
        assert!(p.uses_keywords());
        assert!(!p.uses_question());
        let q = Program::single(
            Guard::Sat(Locator::Root, NlpPred::HasAnswer),
            Extractor::Content,
        );
        assert!(q.uses_question());
        assert!(!q.uses_keywords());
    }

    #[test]
    fn extractor_inner_chain() {
        let p = sample_program();
        let mut e: &Extractor = &p.branches[0].extractor;
        let mut hops = 0;
        while let Some(inner) = e.inner() {
            e = inner;
            hops += 1;
        }
        assert_eq!(hops, 3);
        assert_eq!(e, &Extractor::Content);
    }

    #[test]
    fn programs_are_hashable_and_comparable() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(sample_program());
        set.insert(sample_program());
        assert_eq!(set.len(), 1);
    }
}
