//! Ensemble construction and diagnostics.
//!
//! The transductive selector is built on an ensemble `Π_E` of optimal
//! programs (Section 6). This module exposes the ensemble itself — its
//! behaviour groups with their per-page outputs and weights, and
//! agreement statistics — so that callers can inspect *why* a program
//! was selected.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::Hash;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webqa_dsl::{Extractor, Guard, PageMemo, PageTree, Program, QueryContext, TreeIds};
use webqa_metrics::{tokenize_all, Token};

/// An ensemble of optimal programs with their precomputed outputs on the
/// unlabeled pages, grouped by behaviour.
#[derive(Debug, Clone)]
pub struct Ensemble {
    /// Distinct behaviours: per-page sorted token sets with the sampled
    /// weight (number of ensemble slots) and a representative program
    /// index into the original program list.
    groups: Vec<BehaviourGroup>,
    /// Total sampled weight (= the requested ensemble size).
    total_weight: u64,
}

/// One behaviourally-distinct group of ensemble members.
#[derive(Debug, Clone)]
pub struct BehaviourGroup {
    /// Per-page extracted token sets (sorted, deduplicated).
    pub outputs: Vec<Vec<Token>>,
    /// Number of sampled ensemble slots with this behaviour.
    pub weight: u64,
    /// Index of a representative program in the input list.
    pub representative: usize,
}

impl Ensemble {
    /// Draws `size` i.i.d. members from `programs` (Eq. 5), computes each
    /// distinct member's outputs on `unlabeled` (Eq. 8), and groups members
    /// with identical outputs.
    ///
    /// The members are evaluated together, page by page, and share work.
    /// Distinct guards and extractors are keyed by the address of their
    /// shared `Arc` and hashed by value once per address, so a
    /// synthesized outcome, whose programs point into one set of trees,
    /// is planned without hashing a tree per member branch; value-equal
    /// trees in different allocations still get one id.
    /// Each distinct guard and each distinct extractor (per located node
    /// set) runs once per page, and every guard evaluates through one
    /// [`PageMemo`] per page: a sub-locator that many guards share (a
    /// `descendants(root, text(kw(..)))`, say) walks the tree once, each
    /// locator-step filter is decided once per node, and each subtree
    /// text is built once. The memo is dropped with its page. A member's
    /// output on a page is its first branch whose guard fires, as in
    /// [`Program::eval`], with the extracted strings tokenized, sorted and
    /// deduplicated; no firing guard gives the empty set. Groups, weights
    /// and representatives are exactly those of running `Program::eval`
    /// per member.
    ///
    /// `unlabeled` is any slice viewable as `&PageTree` (plain trees or
    /// shared `Arc<PageTree>` handles).
    ///
    /// Returns `None` when `programs` is empty.
    pub fn sample<P: std::borrow::Borrow<PageTree>>(
        ctx: &QueryContext,
        programs: &[Program],
        unlabeled: &[P],
        size: usize,
        seed: u64,
    ) -> Option<Ensemble> {
        if programs.is_empty() || size == 0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let mut multiplicity: Vec<u64> = vec![0; programs.len()];
        for _ in 0..size {
            multiplicity[rng.gen_range(0..programs.len())] += 1;
        }
        let members: Vec<usize> = (0..programs.len())
            .filter(|&i| multiplicity[i] > 0)
            .collect();
        let plan = Members::new(programs, &members);

        // outputs[k]: the distinct token sets on page k; behaviour[m][k]:
        // the one member m extracts there.
        let mut outputs: Vec<Vec<Vec<Token>>> = Vec::with_capacity(unlabeled.len());
        let mut behaviour: Vec<Vec<usize>> =
            vec![Vec::with_capacity(unlabeled.len()); members.len()];
        for page in unlabeled {
            let (token_sets, ids) = plan.outputs_on(&mut PageMemo::new(ctx, page.borrow()));
            for (b, id) in behaviour.iter_mut().zip(ids) {
                b.push(id);
            }
            outputs.push(token_sets);
        }

        let mut groups: Vec<BehaviourGroup> = Vec::new();
        let mut group_of: HashMap<&[usize], usize> = HashMap::new();
        for (&i, ids) in members.iter().zip(&behaviour) {
            match group_of.entry(ids) {
                Entry::Occupied(g) => groups[*g.get()].weight += multiplicity[i],
                Entry::Vacant(slot) => {
                    slot.insert(groups.len());
                    groups.push(BehaviourGroup {
                        outputs: ids
                            .iter()
                            .zip(&outputs)
                            .map(|(&id, sets)| sets[id].clone())
                            .collect(),
                        weight: multiplicity[i],
                        representative: i,
                    });
                }
            }
        }
        Some(Ensemble {
            groups,
            total_weight: size as u64,
        })
    }

    /// The behaviourally-distinct groups.
    pub fn groups(&self) -> &[BehaviourGroup] {
        &self.groups
    }

    /// Agreement rate: the weight fraction of the single most common
    /// behaviour. 1.0 means every sampled member extracts exactly the
    /// same thing on every page (the ensemble is degenerate and selection
    /// is a no-op).
    pub fn agreement(&self) -> f64 {
        let max = self.groups.iter().map(|g| g.weight).max().unwrap_or(0);
        max as f64 / self.total_weight as f64
    }

    /// Number of behaviourally distinct groups.
    pub fn distinct_behaviours(&self) -> usize {
        self.groups.len()
    }
}

/// The sampled members, each as one `(guard id, extractor id)` pair per
/// branch, with ids over the distinct guards and extractors.
struct Members<'p> {
    guards: TreeIds<'p, Guard>,
    extractors: TreeIds<'p, Extractor>,
    branches: Vec<Vec<(u32, u32)>>,
}

impl<'p> Members<'p> {
    /// The members `programs[i]` for `i` in `members`, in that order.
    fn new(programs: &'p [Program], members: &[usize]) -> Self {
        let mut guards = TreeIds::default();
        let mut extractors = TreeIds::default();
        let branches = members
            .iter()
            .map(|&i| {
                programs[i]
                    .branches
                    .iter()
                    .map(|b| (guards.id(&b.guard), extractors.id(&b.extractor)))
                    .collect()
            })
            .collect();
        Members {
            guards,
            extractors,
            branches,
        }
    }

    /// Every member's output on `memo`'s page: the distinct token sets
    /// extracted there, and the id of each member's among them. Each
    /// distinct guard runs once, and each distinct extractor once per
    /// located node set.
    fn outputs_on(&self, memo: &mut PageMemo) -> (Vec<Vec<Token>>, Vec<usize>) {
        let mut token_sets = Interner::default();
        let empty = token_sets.id(Vec::new());
        let mut node_sets = Interner::default();
        // Per guard: `None` until evaluated, then the id of the node set
        // it fires with, or `None` when it does not fire.
        let mut fired: Vec<Option<Option<usize>>> = vec![None; self.guards.values.len()];
        let mut extracted: HashMap<(u32, usize), usize> = HashMap::new();
        let mut ids = Vec::with_capacity(self.branches.len());
        for branches in &self.branches {
            let mut out = empty;
            for &(g, x) in branches {
                let fires = *fired[g as usize].get_or_insert_with(|| {
                    let (ok, nodes) = memo.eval_guard(self.guards.get(g));
                    ok.then(|| node_sets.id(nodes))
                });
                if let Some(nodes) = fires {
                    out = *extracted.entry((x, nodes)).or_insert_with(|| {
                        let strings =
                            memo.eval_extractor(self.extractors.get(x), node_sets.get(nodes));
                        let mut t = tokenize_all(&strings);
                        t.sort();
                        t.dedup();
                        token_sets.id(t)
                    });
                    break;
                }
            }
            ids.push(out);
        }
        (token_sets.values, ids)
    }
}

/// Dense ids for distinct values, in first-seen order.
struct Interner<T> {
    ids: HashMap<T, usize>,
    values: Vec<T>,
}

impl<T> Default for Interner<T> {
    fn default() -> Self {
        Interner {
            ids: HashMap::new(),
            values: Vec::new(),
        }
    }
}

impl<T: Hash + Eq + Clone> Interner<T> {
    fn id(&mut self, value: T) -> usize {
        match self.ids.entry(value) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.values.push(e.key().clone());
                *e.insert(self.values.len() - 1)
            }
        }
    }

    fn get(&self, id: usize) -> &T {
        &self.values[id]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prog(src: &str) -> Program {
        src.parse().expect("valid program")
    }

    fn ctx() -> QueryContext {
        QueryContext::new("", ["Students"])
    }

    fn pages() -> Vec<PageTree> {
        vec![
            PageTree::parse("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>"),
            PageTree::parse("<h1>B</h1><h2>Students</h2><ul><li>Bob Smith</li></ul>"),
        ]
    }

    /// The definitional reference: every sampled member run through
    /// `Program::eval` on every page, grouped by a scan in member order.
    fn naive_groups(
        ctx: &QueryContext,
        programs: &[Program],
        pages: &[PageTree],
        size: usize,
        seed: u64,
    ) -> Vec<(Vec<Vec<Token>>, u64, usize)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut multiplicity: Vec<u64> = vec![0; programs.len()];
        for _ in 0..size {
            multiplicity[rng.gen_range(0..programs.len())] += 1;
        }
        let mut groups: Vec<(Vec<Vec<Token>>, u64, usize)> = Vec::new();
        for (i, &m) in multiplicity.iter().enumerate().filter(|(_, &m)| m > 0) {
            let outputs: Vec<Vec<Token>> = pages
                .iter()
                .map(|page| {
                    let mut t = tokenize_all(&programs[i].eval(ctx, page));
                    t.sort();
                    t.dedup();
                    t
                })
                .collect();
            match groups.iter_mut().find(|g| g.0 == outputs) {
                Some(g) => g.1 += m,
                None => groups.push((outputs, m, i)),
            }
        }
        groups
    }

    fn assert_matches_naive(ctx: &QueryContext, programs: &[Program], pages: &[PageTree]) {
        for (size, seed) in [(1, 0), (3, 7), (40, 1), (1000, 2)] {
            let e = Ensemble::sample(ctx, programs, pages, size, seed).unwrap();
            let got: Vec<_> = e
                .groups()
                .iter()
                .map(|g| (g.outputs.clone(), g.weight, g.representative))
                .collect();
            assert_eq!(
                got,
                naive_groups(ctx, programs, pages, size, seed),
                "size {size} seed {seed}"
            );
        }
    }

    /// Pages A and B list a person; page C lists none.
    fn three_pages() -> Vec<PageTree> {
        vec![
            PageTree::parse("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>"),
            PageTree::parse("<h1>B</h1><h2>Students</h2><ul><li>Robert Smith</li></ul>"),
            PageTree::parse("<h1>C</h1><h2>Students</h2><ul><li>none listed yet</li></ul>"),
        ]
    }

    #[test]
    fn shared_guard_with_different_extractors_matches_naive() {
        let programs = vec![
            prog("sat(descendants(root, leaf), true) -> content"),
            prog("sat(descendants(root, leaf), true) -> filter(content, entity(PERSON))"),
            prog("sat(descendants(root, leaf), true) -> substr(content, entity(PERSON), 1)"),
            prog("sat(descendants(root, leaf), kw(0.90)) -> content"),
        ];
        let e = Ensemble::sample(&ctx(), &programs, &three_pages(), 1000, 2).unwrap();
        assert!(e.distinct_behaviours() >= 2, "extractors must diverge");
        assert_matches_naive(&ctx(), &programs, &three_pages());
    }

    #[test]
    fn guard_failing_on_one_page_falls_through_like_naive() {
        let first = "sat(descendants(root, leaf), entity(PERSON))";
        let programs = vec![
            prog(&format!(
                "{first} -> filter(content, entity(PERSON)); sat(root, true) -> content"
            )),
            prog(&format!("{first} -> content; singleton(root) -> content")),
            prog("sat(root, true) -> content"),
        ];
        let ctx = ctx();
        let pages = three_pages();
        let guard = &programs[0].branches[0].guard;
        let fires: Vec<bool> = pages.iter().map(|p| guard.eval(&ctx, p).0).collect();
        assert_eq!(
            fires,
            [true, true, false],
            "the first guard fails on page C only"
        );
        assert_matches_naive(&ctx, &programs, &pages);
    }

    #[test]
    fn guard_that_never_fires_matches_naive() {
        let dead = "sat(root, entity(MONEY))";
        let programs = vec![
            prog(&format!("{dead} -> content")),
            prog(&format!(
                "{dead} -> content; sat(descendants(root, leaf), true) -> content"
            )),
            prog("sat(descendants(root, leaf), true) -> content"),
        ];
        let ctx = ctx();
        let pages = three_pages();
        assert!(pages
            .iter()
            .all(|p| !programs[0].branches[0].guard.eval(&ctx, p).0));
        let e = Ensemble::sample(&ctx, &programs, &pages, 1000, 2).unwrap();
        assert!(e
            .groups()
            .iter()
            .any(|g| g.outputs.iter().all(|o| o.is_empty())));
        assert_matches_naive(&ctx, &programs, &pages);
    }

    #[test]
    fn shared_sub_locator_is_evaluated_once_per_page() {
        let shared = "descendants(root, text(kw(0.80)))";
        let programs = vec![
            prog(&format!("sat(descendants({shared}, leaf), true) -> content")),
            prog(&format!(
                "sat(children({shared}, subtree(entity(PERSON))), true) -> substr(content, entity(PERSON), 1)"
            )),
        ];
        let ctx = ctx();
        let pages = three_pages();
        let plan = Members::new(&programs, &[0, 1]);
        for page in &pages {
            let mut memo = PageMemo::new(&ctx, page);
            plan.outputs_on(&mut memo);
            // `root`, the shared locator and the two guards' own: the
            // shared one is memoized once and serves both guards.
            assert_eq!(memo.memoized_locators(), 4);
            for p in &programs {
                let guard = &p.branches[0].guard;
                let (ok, nodes) = memo.eval_guard(guard);
                assert_eq!((ok, nodes.to_vec()), guard.eval(&ctx, page));
            }
            assert_eq!(memo.memoized_locators(), 4, "every lookup hits");
        }
        assert_matches_naive(&ctx, &programs, &pages);
    }

    /// Members find a tree by its `Arc` first and merge equal values: a
    /// guard shared by pointer, an equal guard in its own allocation and
    /// a different guard are three addresses but two ids.
    #[test]
    fn members_key_shared_trees_by_address_and_equal_trees_by_value() {
        let shared = prog("sat(root, true) -> content");
        let programs = vec![
            shared.clone(),
            shared,
            prog("sat(root, true) -> content"),
            prog("singleton(root) -> content"),
        ];
        let plan = Members::new(&programs, &[0, 1, 2, 3]);
        assert_eq!(plan.guards.by_address.len(), 3);
        assert_eq!(plan.guards.values.len(), 2);
        assert_eq!(plan.extractors.by_address.len(), 3);
        assert_eq!(plan.extractors.values.len(), 1);
        assert_eq!(
            plan.branches,
            [vec![(0, 0)], vec![(0, 0)], vec![(0, 0)], vec![(1, 0)]]
        );
        assert_matches_naive(&ctx(), &programs, &three_pages());
    }

    mod memo_parity {
        use super::*;
        use proptest::prelude::*;
        use webqa_corpus::{generate_pages, TASKS};
        use webqa_dsl::{Branch, EntityKind, Locator, NlpPred, NodeFilter, Threshold};

        fn pred() -> impl Strategy<Value = NlpPred> {
            prop_oneof![
                (0u8..4)
                    .prop_map(|i| NlpPred::MatchKeyword(Threshold::new(0.5 + 0.15 * f64::from(i)))),
                Just(NlpPred::HasEntity(EntityKind::Person)),
                Just(NlpPred::HasEntity(EntityKind::Date)),
                Just(NlpPred::True),
            ]
        }

        fn filter() -> impl Strategy<Value = NodeFilter> {
            let leaf = prop_oneof![
                Just(NodeFilter::IsLeaf),
                Just(NodeFilter::IsElem),
                Just(NodeFilter::True),
                (pred(), any::<bool>())
                    .prop_map(|(pred, subtree)| NodeFilter::MatchText { pred, subtree }),
            ];
            leaf.prop_recursive(1, 3, 2, |inner| {
                prop_oneof![
                    (inner.clone(), inner.clone())
                        .prop_map(|(a, b)| NodeFilter::And(Box::new(a), Box::new(b))),
                    inner.prop_map(|a| NodeFilter::Not(Box::new(a))),
                ]
            })
        }

        /// One of three shared prefixes (so guards share sub-locators),
        /// extended by up to two random steps.
        fn locator() -> impl Strategy<Value = Locator> {
            let prefixes = [
                "root",
                "descendants(root, text(kw(0.80)))",
                "descendants(root, subtree(kw(0.60)))",
            ];
            (
                0..prefixes.len(),
                proptest::collection::vec((any::<bool>(), filter()), 0..3),
            )
                .prop_map(move |(i, steps)| {
                    let prefix = format!("sat({}, true) -> content", prefixes[i]);
                    let prefix = prog(&prefix).branches[0].guard.locator().clone();
                    steps.into_iter().fold(prefix, |l, (descend, f)| {
                        if descend {
                            Locator::Descendants(Box::new(l), f)
                        } else {
                            Locator::Children(Box::new(l), f)
                        }
                    })
                })
        }

        fn guard() -> impl Strategy<Value = Guard> {
            prop_oneof![
                (locator(), pred()).prop_map(|(l, p)| Guard::Sat(l, p)),
                locator().prop_map(Guard::IsSingleton),
            ]
        }

        fn extractor() -> impl Strategy<Value = Extractor> {
            let content = || Box::new(Extractor::Content);
            prop_oneof![
                Just(Extractor::Content),
                Just(Extractor::Split(content(), ',')),
                pred().prop_map(move |p| Extractor::Filter(content(), p)),
                (pred(), 1usize..3).prop_map(move |(p, k)| Extractor::Substring(content(), p, k)),
            ]
        }

        fn program() -> impl Strategy<Value = Program> {
            proptest::collection::vec((guard(), extractor()), 1..3).prop_map(|bs| {
                Program::new(bs.into_iter().map(|(g, e)| Branch::new(g, e)).collect())
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]

            /// Evaluating every guard and program on a page through one
            /// shared memo gives what a fresh memo per call gives, and
            /// the ensemble (one memo per page) groups as per-member
            /// `Program::eval` does.
            #[test]
            fn a_shared_memo_changes_no_result(
                programs in proptest::collection::vec(program(), 2..10),
                t in 0usize..25,
                seed in 0u64..100,
            ) {
                let task = &TASKS[t];
                let ctx = QueryContext::new(task.question, task.keywords.to_vec());
                let pages: Vec<PageTree> = generate_pages(task.domain, 2, seed)
                    .iter()
                    .map(|p| p.tree())
                    .collect();
                for page in &pages {
                    let mut memo = PageMemo::new(&ctx, page);
                    for p in &programs {
                        for b in &p.branches {
                            let (ok, nodes) = memo.eval_guard(&b.guard);
                            prop_assert_eq!((ok, nodes.to_vec()), b.guard.eval(&ctx, page));
                        }
                        prop_assert_eq!(memo.eval_program(p), p.eval(&ctx, page));
                    }
                }
                for (size, seed) in [(7, seed), (200, seed + 1)] {
                    let e = Ensemble::sample(&ctx, &programs, &pages, size, seed).unwrap();
                    let got: Vec<_> = e
                        .groups()
                        .iter()
                        .map(|g| (g.outputs.clone(), g.weight, g.representative))
                        .collect();
                    prop_assert_eq!(got, naive_groups(&ctx, &programs, &pages, size, seed));
                }
            }
        }
    }

    #[test]
    fn empty_inputs_yield_no_ensemble() {
        assert!(Ensemble::sample(&ctx(), &[], &pages(), 100, 0).is_none());
        assert!(Ensemble::sample(
            &ctx(),
            &[prog("sat(root, true) -> content")],
            &pages(),
            0,
            0
        )
        .is_none());
    }

    #[test]
    fn weights_sum_to_ensemble_size() {
        let programs = vec![
            prog("sat(root, true) -> content"),
            prog("singleton(root) -> content"),
            prog("sat(descendants(root, leaf), true) -> content"),
        ];
        let e = Ensemble::sample(&ctx(), &programs, &pages(), 250, 11).unwrap();
        assert_eq!(e.groups().iter().map(|g| g.weight).sum::<u64>(), 250);
    }

    #[test]
    fn behavioural_grouping_merges_identical_programs() {
        // Two syntactically different programs with identical outputs on
        // these pages must land in one group.
        let programs = vec![
            prog("sat(descendants(root, leaf), true) -> content"),
            prog("sat(descendants(root, and(leaf, true)), true) -> content"),
        ];
        let e = Ensemble::sample(&ctx(), &programs, &pages(), 100, 3).unwrap();
        assert_eq!(e.distinct_behaviours(), 1);
        assert!((e.agreement() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn agreement_is_the_heaviest_groups_weight_fraction() {
        let programs = vec![
            prog("sat(descendants(root, text(kw(0.80))), true) -> content"),
            prog("sat(root, true) -> content"),
        ];
        let e = Ensemble::sample(&ctx(), &programs, &pages(), 200, 9).unwrap();
        let max = e.groups().iter().map(|g| g.weight).max().unwrap();
        assert_eq!(e.agreement(), max as f64 / 200.0);
        assert!(e.agreement() < 1.0);
    }

    #[test]
    fn distinct_behaviours_counts_the_groups() {
        let programs = vec![
            prog("sat(descendants(root, text(kw(0.80))), true) -> content"),
            prog("sat(root, true) -> content"),
            prog("singleton(root) -> content"),
        ];
        let e = Ensemble::sample(&ctx(), &programs, &pages(), 300, 9).unwrap();
        assert_eq!(e.distinct_behaviours(), e.groups().len());
        assert_eq!(
            e.distinct_behaviours(),
            2,
            "both root programs extract the page"
        );
    }

    #[test]
    fn empty_ensemble_selects_nothing() {
        let empty = Ensemble {
            groups: Vec::new(),
            total_weight: 0,
        };
        assert_eq!(crate::select_from_ensemble(&empty), None);
    }

    /// Equal expected losses pick the earlier group's representative.
    #[test]
    fn selection_ties_break_toward_the_earlier_group() {
        let group = |word: &str, representative| BehaviourGroup {
            outputs: vec![vec![Token::from(word)]],
            weight: 5,
            representative,
        };
        let ensemble = |groups| Ensemble {
            groups,
            total_weight: 10,
        };
        let forward = ensemble(vec![group("jane", 3), group("bob", 8)]);
        assert_eq!(crate::select_from_ensemble(&forward), Some(3));
        let reversed = ensemble(vec![group("bob", 8), group("jane", 3)]);
        assert_eq!(crate::select_from_ensemble(&reversed), Some(8));
    }
}
