//! `SynthesizeBranch` (Figure 8 of the paper) and its `NoDecomp` and
//! `NoLazy` ablations.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use webqa_dsl::{Guard, PageNodeId};
use webqa_metrics::Counts;

use crate::extractors::{synthesize_extractors, ExtractorAsts, ExtractorSynthesis, F1_EPS};
use crate::guards::{GuardEnumerator, GuardSpec, LocatorTable};
use crate::scorer::{Scorer, StringTable, TaskCtx};
use crate::stats::SynthStats;

/// Optimal extractors for one guard, grouped by the token counts they
/// achieve on the positive examples. Shared (`Arc`) across every guard
/// whose locator produced the same extractor synthesis — both memos hand
/// out references, never clones of the groups.
pub(crate) type GuardOptions = Arc<ExtractorSynthesis>;

/// The task-level extractor memo: every `SynthesizeExtractors` result of
/// one task, keyed by E⁺ (the positive example indices) and then by the
/// node sets the guard's locator propagates to on each positive. That
/// pair is the whole input of [`synthesize_extractors`], so a hit is
/// exactly the result a fresh search would return. E⁺ must be part of
/// the key: node ids are per page, so the same node sets over different
/// examples are different problems. The memo also owns the extractor
/// trees every search of the task has built ([`ExtractorAsts`]).
#[derive(Default)]
pub(crate) struct ExtractorMemo {
    searches: HashMap<Vec<usize>, HashMap<Vec<Vec<PageNodeId>>, GuardOptions>>,
    asts: ExtractorAsts,
}

impl ExtractorMemo {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Whether no search result is recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.searches.is_empty()
    }
}

/// All optimal branch programs for one (E⁺, E⁻) problem, represented as
/// the paper's mapping from guards to extractor sets.
///
/// Extractors are grouped by their token-count vector (see
/// [`crate::extractors::ExtractorSynthesis`]): every group achieves the
/// branch-optimal F₁ on E⁺, but the counts — which determine the
/// micro-averaged F₁ once branches are combined — can differ between
/// groups. The top-level synthesis uses the per-group counts to keep only
/// cross-branch combinations achieving the global optimum.
#[derive(Debug, Clone)]
pub(crate) struct BranchSynthesis {
    /// `(ψ, E)` pairs: each guard with its optimal extractors, grouped by
    /// token counts. A guard is the task's one allocation of it (see
    /// [`LocatorTable::guard`]).
    pub options: Vec<(Arc<Guard>, GuardOptions)>,
}

impl BranchSynthesis {
    /// The distinct token-count vectors achievable by this branch's
    /// optimal programs.
    pub(crate) fn distinct_counts(&self) -> Vec<Counts> {
        let mut out: Vec<Counts> = Vec::new();
        for (_, gs) in &self.options {
            for (c, _) in &gs.groups {
                if !out.contains(c) {
                    out.push(*c);
                }
            }
        }
        out
    }
}

/// Figure 8: synthesizes all optimal branch programs. `pos` / `neg` are
/// indices into the task's example list; `table` is the task's string
/// table, `locators` its locator table and `memo` its extractor memo.
///
/// One loop serves every mode. `cfg.decompose` turns on the two memos
/// and the UB gate (off, it is the `NoDecomp` ablation of Section 8.2:
/// every guard gets its own extractor search, and `memo` records no
/// search; its extractor trees are shared in every mode).
/// `cfg.decompose && cfg.lazy_guards` turns on laziness, where the
/// rising optimum feeds the guard enumerator's locator pruning; without
/// it the enumerator is drained up front with a bound of 0. The result
/// set is identical in every mode; only the work differs. The reference
/// kernels leave `locators` alone and enumerate over a fresh table, so
/// every branch problem does its own definitional locator work.
///
/// Returns `None` when no guard in the bounded space separates E⁺ from E⁻.
pub(crate) fn synthesize_branch(
    task: &TaskCtx,
    table: &mut StringTable,
    locators: &mut LocatorTable,
    memo: &mut ExtractorMemo,
    pos: &[usize],
    neg: &[usize],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    stats.branch_calls += 1;
    let decompose = task.cfg.decompose;
    let mut fresh;
    let locators = if task.cfg.reference_kernels {
        fresh = LocatorTable::new(task);
        &mut fresh
    } else {
        locators
    };
    let mut enumerator = GuardEnumerator::new(task, locators, pos, neg);
    let mut scorer = Scorer::new(task, table, pos);
    let mut eager: Option<VecDeque<(GuardSpec, u32)>> = if decompose && task.cfg.lazy_guards {
        None
    } else {
        let mut q = VecDeque::new();
        while let Some(g) = enumerator.next(0.0, stats) {
            if task.cancel.checkpoint() {
                // The whole search is being abandoned; the top level
                // discards this `None` and reports `Cancelled`.
                return None;
            }
            q.push_back(g);
        }
        Some(q)
    };
    let mut opt = 0.0f64;
    let mut options: Vec<(Arc<Guard>, GuardOptions)> = Vec::new();
    // Footnote 6 (with `cfg.decompose`): guards whose locators agree
    // share one extractor synthesis, through two memos. `by_entry` is
    // indexed by the locator table's id (each id *is* one locator), so a
    // repeated locator costs one index and is never built or hashed.
    // `Some(None)` records a locator whose UB was below `opt` (Figure 8
    // line 6) — sound to skip forever since `opt` only rises. A new
    // locator that passes the UB gate goes to `by_nodes`, the task memo's
    // table for this E⁺: any locator, of this or another branch problem
    // over the same E⁺, that selected the same nodes has already been
    // solved. Only a miss in both runs the search.
    let mut by_entry: Vec<Option<Option<GuardOptions>>> = Vec::new();
    let ExtractorMemo { searches, asts } = memo;
    let mut by_nodes = decompose.then(|| searches.entry(pos.to_vec()).or_default());

    while let Some((spec, eid)) = match eager.as_mut() {
        Some(q) => q.pop_front(),
        None => enumerator.next(opt, stats),
    } {
        // One cooperative cancellation checkpoint per guard step: a
        // cancelled search bails before the next extractor synthesis, so
        // latency overrun is bounded by one step's work.
        if task.cancel.checkpoint() {
            return None;
        }
        let e = eid as usize;
        if by_entry.len() <= e {
            by_entry.resize_with(e + 1, || None);
        }
        let synth: Option<GuardOptions> = match &by_entry[e] {
            Some(s) => {
                stats.locator_memo_hits += 1;
                s.clone()
            }
            None => {
                // The positive node sets and their ceiling come from the
                // locator table, computed once per task (Figure 8 line 6
                // is a comparison, not a recomputation).
                let s = match by_nodes.as_deref_mut() {
                    Some(_)
                        if task.cfg.prune
                            && enumerator.entry_ub(eid).upper_bound() + F1_EPS < opt =>
                    {
                        None
                    }
                    Some(by_nodes) => Some(memoized_extractors(
                        task,
                        &mut scorer,
                        asts,
                        by_nodes,
                        enumerator.entry_nodes(eid),
                        stats,
                    )),
                    None => Some(Arc::new(synthesize_extractors(
                        task,
                        &mut scorer,
                        asts,
                        &enumerator.entry_nodes(eid),
                        stats,
                    ))),
                };
                if decompose {
                    by_entry[e] = Some(s.clone());
                }
                s
            }
        };
        let Some(synth) = synth else { continue };
        if synth.is_empty() {
            continue;
        }
        if synth.f1 > opt + F1_EPS {
            opt = synth.f1;
            options = vec![(enumerator.guard(spec, eid), synth)];
        } else if (synth.f1 - opt).abs() <= F1_EPS {
            options.push((enumerator.guard(spec, eid), synth));
        }
    }
    if options.is_empty() {
        None
    } else {
        Some(BranchSynthesis { options })
    }
}

/// The extractor synthesis over `nodes` for the scorer's E⁺: served from
/// `by_nodes` (the task memo's table for that E⁺) when some earlier
/// locator selected the same nodes, solved and recorded otherwise.
/// Every recorded entry is complete: [`synthesize_extractors`] has no
/// cancellation checkpoint, so it never returns a partial result. A
/// checkpoint added there must not let its early exit reach `by_nodes`.
fn memoized_extractors(
    task: &TaskCtx,
    scorer: &mut Scorer,
    asts: &mut ExtractorAsts,
    by_nodes: &mut HashMap<Vec<Vec<PageNodeId>>, GuardOptions>,
    nodes: Vec<Vec<PageNodeId>>,
    stats: &mut SynthStats,
) -> GuardOptions {
    if let Some(s) = by_nodes.get(&nodes) {
        stats.extractor_memo_hits += 1;
        return s.clone();
    }
    let s = Arc::new(synthesize_extractors(task, scorer, asts, &nodes, stats));
    by_nodes.insert(nodes, s.clone());
    s
}

/// Convenience used by tests: solve one branch over a self-contained
/// example list.
#[cfg(test)]
pub(crate) fn synthesize_branch_over(
    cfg: &crate::config::SynthConfig,
    ctx: &webqa_dsl::QueryContext,
    pos: &[crate::example::Example],
    neg: &[crate::example::Example],
    stats: &mut SynthStats,
) -> Option<BranchSynthesis> {
    use crate::example::Example;
    let all: Vec<Example> = pos.iter().chain(neg.iter()).cloned().collect();
    let task = TaskCtx::new(cfg, ctx, &all);
    let pos_idx: Vec<usize> = (0..pos.len()).collect();
    let neg_idx: Vec<usize> = (pos.len()..all.len()).collect();
    let mut table = StringTable::new(&task);
    let mut locators = LocatorTable::new(&task);
    let mut memo = ExtractorMemo::new();
    synthesize_branch(
        &task,
        &mut table,
        &mut locators,
        &mut memo,
        &pos_idx,
        &neg_idx,
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::example::Example;
    use webqa_dsl::{PageTree, QueryContext};

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn students_examples() -> Vec<Example> {
        vec![
            example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
                 <h2>Contact</h2><p>a@x.edu</p>",
                &["Jane Doe", "Bob Smith"],
            ),
            example(
                "<h1>B</h1><h2>Publications</h2><p>Some paper. PLDI 2020.</p>\
                 <h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                &["Mary Anderson"],
            ),
        ]
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    /// The branch's optimal F₁ on E⁺: the first option's (every option
    /// is within `F1_EPS` of it).
    fn f1(b: &BranchSynthesis) -> f64 {
        b.options[0].1.f1
    }

    #[test]
    fn synthesizes_perfect_branch_for_students() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let pos = students_examples();
        let mut stats = SynthStats::default();
        let b = synthesize_branch_over(&cfg, &c, &pos, &[], &mut stats).expect("branch");
        assert!(f1(&b) > 0.99, "expected F1≈1, got {}", f1(&b));
        // Sanity: a returned branch program really achieves that F1.
        let (g, gs) = &b.options[0];
        let prog = webqa_dsl::Program::single(g.clone(), gs.groups[0].1[0].clone());
        let counts = crate::example::program_counts(&c, &pos, &prog);
        assert!((counts.f1() - f1(&b)).abs() < 1e-9);
    }

    #[test]
    fn joint_and_decomposed_agree_on_optimum() {
        let c = ctx();
        let pos = students_examples();
        let mut s1 = SynthStats::default();
        let mut s2 = SynthStats::default();
        let dec = synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &[], &mut s1).unwrap();
        let joint = synthesize_branch_over(
            &SynthConfig::fast().without_decomposition(),
            &c,
            &pos,
            &[],
            &mut s2,
        )
        .unwrap();
        assert!((f1(&dec) - f1(&joint)).abs() < 1e-9);
        // Decomposition shares extractor synthesis across guards: less work.
        assert!(s1.extractors_enumerated <= s2.extractors_enumerated);
        assert!(s1.locator_memo_hits > 0);
    }

    /// Only decomposed synthesis shares extractor searches through the
    /// task memo; the joint ablation neither reads nor fills it.
    #[test]
    fn only_decomposed_synthesis_fills_the_task_memo() {
        let c = ctx();
        let examples = students_examples();
        for (cfg, fills) in [
            (SynthConfig::fast(), true),
            (SynthConfig::fast().without_lazy_guards(), true),
            (SynthConfig::fast().without_decomposition(), false),
        ] {
            let task = TaskCtx::new(&cfg, &c, &examples);
            let mut table = StringTable::new(&task);
            let mut locators = LocatorTable::new(&task);
            let mut memo = ExtractorMemo::new();
            let mut stats = SynthStats::default();
            synthesize_branch(
                &task,
                &mut table,
                &mut locators,
                &mut memo,
                &[0, 1],
                &[],
                &mut stats,
            )
            .expect("branch");
            assert_eq!(!memo.is_empty(), fills, "decompose = {}", cfg.decompose);
        }
    }

    #[test]
    fn lazy_and_eager_guard_enumeration_agree() {
        let c = ctx();
        let pos = students_examples();
        let mut s_lazy = SynthStats::default();
        let mut s_eager = SynthStats::default();
        let lazy =
            synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &[], &mut s_lazy).unwrap();
        let eager = synthesize_branch_over(
            &SynthConfig::fast().without_lazy_guards(),
            &c,
            &pos,
            &[],
            &mut s_eager,
        )
        .unwrap();
        assert!(
            (f1(&lazy) - f1(&eager)).abs() < 1e-9,
            "optimum must not depend on laziness"
        );
        assert!(
            s_lazy.work() <= s_eager.work(),
            "lazy enumeration must not do more work: {} vs {}",
            s_lazy.work(),
            s_eager.work()
        );
    }

    #[test]
    fn unseparable_examples_give_no_branch() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let page = "<h1>R</h1><p>x</p>";
        let pos = vec![example(page, &["x"])];
        let neg = vec![example(page, &[])];
        let mut stats = SynthStats::default();
        assert!(synthesize_branch_over(&cfg, &c, &pos, &neg, &mut stats).is_none());
    }

    #[test]
    fn branch_with_negatives_separates() {
        let cfg = SynthConfig::fast();
        let c = ctx();
        let pos = students_examples();
        let neg = vec![example(
            "<h1>C</h1><h2>Service</h2><p>PLDI '20 (PC)</p>",
            &[],
        )];
        let mut stats = SynthStats::default();
        let b = synthesize_branch_over(&cfg, &c, &pos, &neg, &mut stats).expect("branch");
        for (g, _) in &b.options {
            for n in &neg {
                assert!(
                    !g.eval(&c, &n.page).0,
                    "guard {g} must reject the negative page"
                );
            }
        }
    }

    #[test]
    fn reference_branch_synthesis_is_identical() {
        let c = ctx();
        let pos = students_examples();
        let neg = vec![example("<h1>C</h1><h2>Contact</h2><p>mail</p>", &[])];
        let mut s_fast = SynthStats::default();
        let mut s_ref = SynthStats::default();
        let fast =
            synthesize_branch_over(&SynthConfig::fast(), &c, &pos, &neg, &mut s_fast).unwrap();
        let slow =
            synthesize_branch_over(&SynthConfig::reference(), &c, &pos, &neg, &mut s_ref).unwrap();
        assert_eq!(fast.options.len(), slow.options.len());
        for ((ga, sa), (gb, sb)) in fast.options.iter().zip(&slow.options) {
            assert_eq!(ga, gb);
            assert_eq!(sa.f1, sb.f1);
            assert_eq!(sa.groups, sb.groups);
        }
        assert_eq!(s_fast, s_ref, "stats must match across kernel modes");
    }
}
