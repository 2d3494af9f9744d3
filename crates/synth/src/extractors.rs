//! `SynthesizeExtractors` (Figure 9 of the paper): bottom-up enumeration
//! of extractors with F₁-upper-bound pruning.
//!
//! The enumeration is *incremental*: each worklist entry carries the
//! extractor's outputs on every example, and applying a production
//! transforms those outputs directly instead of re-evaluating the whole
//! extractor chain. This is semantically identical (extractor productions
//! are pointwise string transformers) and is what makes the exhaustive
//! search cheap enough to run hundreds of times per task.
//!
//! Hot-path structure (all semantics-free; `SynthConfig::reference()`
//! swaps the kernels back to definitional string scoring):
//!
//! * outputs flow as dense string ids from the task's
//!   [`StringTable`](crate::scorer::StringTable): equal content is an
//!   equal id, so `Filter`, set-semantics dedup, and behavioural
//!   equivalence compare integers, never bytes;
//! * candidates are scored on interned token ids ([`crate::scorer::Scorer`])
//!   indexed by string id — each distinct string is tokenized, and each
//!   production step applied to it, once for the whole task;
//! * child candidates are generated as *production steps* applied to the
//!   parent's outputs; the `UB = 2R/(1+R)` bound (Eq. 3) is checked
//!   **before** the child AST exists, so dominated candidates never
//!   materialize an `Extractor` value at all;
//! * the search runs once per distinct input of a task. `SynthesizeBranch`
//!   looks a locator up in two memos before calling it: the footnote 6
//!   memo over the branch's enumerator entries, then the task's memo
//!   keyed by (E⁺, propagated node sets), which serves every branch
//!   problem over the same E⁺ (see [`crate::branch::ExtractorMemo`]).

use std::collections::HashSet;

use webqa_dsl::{Extractor, PageNodeId};
use webqa_metrics::Counts;

use crate::scorer::{behaviour_key, FxBuild, Scorer, StepOp, TaskCtx};
use crate::stats::SynthStats;

/// Result of extractor synthesis: all extractors achieving the optimal
/// positive F₁, plus that score.
///
/// Extractors are *grouped by their token-count vector*: two extractors can
/// have the same F₁ on a branch's examples but different `(matched,
/// predicted, gold)` counts, and those counts — not the per-branch F₁ —
/// determine the micro-averaged F₁ when branches are combined into a
/// multi-branch program. Keeping the counts per group lets the top-level
/// synthesis reject cross-branch combinations that would not achieve the
/// reported optimum.
#[derive(Debug, Clone)]
pub(crate) struct ExtractorSynthesis {
    /// Optimal extractors grouped by their counts (empty when no
    /// extractor scores above 0). Every group's `counts.f1()` equals `f1`.
    pub groups: Vec<(Counts, Vec<Extractor>)>,
    /// The optimal F₁ achieved.
    pub f1: f64,
}

impl ExtractorSynthesis {
    /// True when no extractor scored above 0.
    pub(crate) fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// All optimal extractors, flattened across count groups.
    #[cfg(test)]
    pub fn extractors(&self) -> Vec<Extractor> {
        self.groups
            .iter()
            .flat_map(|(_, es)| es.iter().cloned())
            .collect()
    }
}

/// Inserts an extractor into the count-grouped optimal set.
fn push_group(groups: &mut Vec<(Counts, Vec<Extractor>)>, counts: Counts, e: Extractor) {
    match groups.iter_mut().find(|(c, _)| *c == counts) {
        Some((_, es)) => es.push(e),
        None => groups.push((counts, vec![e])),
    }
}

/// Floating-point slack for F₁ equality (scores are ratios of small
/// integers; 1e-9 distinguishes all genuinely different values).
pub(crate) const F1_EPS: f64 = 1e-9;

/// One worklist candidate: the extractor AST, its per-example outputs
/// (string ids), and the spine facts child generation needs.
struct Cand {
    ast: Extractor,
    outputs: Vec<Vec<u32>>,
    depth: usize,
    /// `Some(c)` when the top production is `Split(·, c)` (double splits
    /// on one delimiter are identities and are skipped).
    last_split: Option<char>,
}

/// Figure 9: returns all extractors (up to the configured depth) whose F₁
/// on the propagated examples is maximal and positive. The result is a
/// function of E⁺ (through the scorer's gold) and `nodes` only, which the
/// task-level extractor memo relies on.
pub(crate) fn synthesize_extractors(
    task: &TaskCtx,
    scorer: &mut Scorer,
    nodes: &[Vec<PageNodeId>],
    stats: &mut SynthStats,
) -> ExtractorSynthesis {
    debug_assert_eq!(scorer.len(), nodes.len());
    let mut best: Vec<(Counts, Vec<Extractor>)> = Vec::new();
    let mut best_f1 = 0.0;

    // Seed: ExtractContent(x) and its outputs.
    let seed_outputs = scorer.seed_outputs(nodes);

    let mut worklist: std::collections::VecDeque<Cand> = std::collections::VecDeque::new();
    let seed_key = behaviour_key(&seed_outputs);
    worklist.push_back(Cand {
        ast: Extractor::Content,
        outputs: seed_outputs,
        depth: Extractor::Content.depth(),
        last_split: None,
    });
    // Behavioral-equivalence pruning: a child whose outputs on the training
    // examples equal an already-expanded candidate's outputs is scored (it
    // may be one of the tied optimal programs) but not *expanded* — every
    // extension it could produce has an output-identical twin reachable
    // from the representative, so no distinct-behavior optimum is lost.
    // Keyed on the exact output ids, so no two behaviours can collide.
    let mut seen_outputs: HashSet<Box<[u32]>, FxBuild> = HashSet::default();
    seen_outputs.insert(seed_key);

    // Analysis prune (sound, kernel-mode-invariant): with gold tokens
    // present, a candidate whose outputs are empty on every example —
    // and every extension of it, since productions are pointwise string
    // transformers — scores F₁ = 0 and can never join the optimal set
    // (ties require a positive score). Gated on `gold_total > 0`: with
    // no gold tokens the empty output scores a vacuous perfect F₁ and
    // must stay enumerable.
    let analyze = task.analysis.enabled && scorer.gold_total() > 0;

    while let Some(cand) = worklist.pop_front() {
        stats.extractors_enumerated += 1;
        // Score with the *program-level* set semantics (Figure 6: programs
        // return Set<String>), while the raw multiset outputs keep flowing
        // through productions.
        let counts = scorer.counts_dedup(&cand.outputs);
        let s = counts.f1();
        if s > best_f1 + F1_EPS {
            best = vec![(counts, vec![cand.ast.clone()])];
            best_f1 = s;
        } else if (s - best_f1).abs() <= F1_EPS && s > 0.0 {
            push_group(&mut best, counts, cand.ast.clone());
        }
        if cand.depth >= task.cfg.extractor_depth {
            continue;
        }
        for (si, step) in task.steps.iter().enumerate() {
            if let (StepOp::Split(c), Some(prev)) = (step, cand.last_split) {
                // Splitting twice on the same delimiter is an identity.
                if *c == prev {
                    continue;
                }
            }
            // A step the analyzer proves maps every string to `∅` yields
            // an all-empty child — skip before even applying it.
            if analyze && task.analysis.step_dead[si] {
                stats.analysis_pruned_extractors += 1;
                continue;
            }
            let child_outputs = scorer.apply_step(si, &cand.outputs);
            if analyze && child_outputs.iter().all(Vec::is_empty) {
                stats.analysis_pruned_extractors += 1;
                continue;
            }
            // UB(e′, E) over the *raw* multiset (Eq. 3): raw recall
            // dominates the set-semantics recall of every extension, so
            // pruning on it is sound for the deduplicated score too. The
            // child AST has not been built yet — pruned candidates never
            // exist as `Extractor` values.
            let child_raw_counts = scorer.counts_raw(&child_outputs);
            if task.cfg.prune && child_raw_counts.upper_bound() + F1_EPS < best_f1 {
                stats.extractors_pruned += 1;
                continue;
            }
            if !seen_outputs.insert(behaviour_key(&child_outputs)) {
                // Score the behavioral duplicate, but do not expand it. Only
                // a tie is kept: see ROADMAP "Extractor search drops optimal
                // behavioural duplicates".
                let dup_counts = scorer.counts_dedup(&child_outputs);
                let s = dup_counts.f1();
                stats.extractors_enumerated += 1;
                if (s - best_f1).abs() <= F1_EPS && s > 0.0 {
                    push_group(&mut best, dup_counts, make_ast(&cand.ast, step));
                }
                continue;
            }
            let ast = make_ast(&cand.ast, step);
            worklist.push_back(Cand {
                depth: cand.depth + 1,
                last_split: match step {
                    StepOp::Split(c) => Some(*c),
                    _ => None,
                },
                ast,
                outputs: child_outputs,
            });
        }
    }

    ExtractorSynthesis {
        groups: best,
        f1: best_f1,
    }
}

/// Builds the child AST for a surviving candidate.
fn make_ast(parent: &Extractor, step: &StepOp) -> Extractor {
    match step {
        StepOp::Filter(pred) => Extractor::Filter(Box::new(parent.clone()), pred.clone()),
        StepOp::Substring(pred, k) => {
            Extractor::Substring(Box::new(parent.clone()), pred.clone(), *k)
        }
        StepOp::Split(c) => Extractor::Split(Box::new(parent.clone()), *c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SynthConfig;
    use crate::example::{counts_of_outputs, Example};
    use crate::scorer::StringTable;
    use webqa_dsl::{Locator, PageTree, QueryContext};

    fn setup() -> (QueryContext, Vec<Example>, Vec<Vec<PageNodeId>>) {
        let ctx = QueryContext::new(
            "Which program committees has this researcher served on?",
            ["PC", "Program Committee"],
        );
        let page = PageTree::parse(
            "<h1>R</h1><h2>Service</h2>\
             <ul><li>PLDI '21 (PC), CAV '20 (PC)</li><li>reading group, hiking club</li></ul>",
        );
        let nodes = Locator::leaves(Locator::Root).eval(&ctx, &page);
        let ex = Example::new(page, vec!["PLDI '21 (PC)".into(), "CAV '20 (PC)".into()]);
        (ctx, vec![ex], vec![nodes])
    }

    fn run(
        cfg: &SynthConfig,
        ctx: &QueryContext,
        examples: &[Example],
        nodes: &[Vec<PageNodeId>],
        stats: &mut SynthStats,
    ) -> ExtractorSynthesis {
        let task = TaskCtx::new(cfg, ctx, examples);
        let pos: Vec<usize> = (0..examples.len()).collect();
        let mut table = StringTable::new(&task);
        let mut scorer = Scorer::new(&task, &mut table, &pos);
        synthesize_extractors(&task, &mut scorer, nodes, stats)
    }

    /// Order-preserving per-example deduplication — the set semantics a
    /// full program applies to its final output (Figure 6).
    fn dedup_outputs(outputs: &[Vec<String>]) -> Vec<Vec<String>> {
        outputs
            .iter()
            .map(|strings| {
                let mut seen = HashSet::new();
                strings
                    .iter()
                    .filter(|s| seen.insert((*s).clone()))
                    .cloned()
                    .collect()
            })
            .collect()
    }

    #[test]
    fn finds_split_filter_extractor() {
        let (ctx, examples, nodes) = setup();
        let cfg = SynthConfig::fast();
        let mut stats = SynthStats::default();
        let res = run(&cfg, &ctx, &examples, &nodes, &mut stats);
        assert!(res.f1 > 0.99, "expected perfect extraction, got {}", res.f1);
        // The optimal set must contain a split-then-filter program.
        let extractors = res.extractors();
        assert!(
            extractors
                .iter()
                .any(|e| e.to_string().contains("filter(split(content, ',')")),
            "optimal set: {:?}",
            extractors.iter().map(|e| e.to_string()).collect::<Vec<_>>()
        );
        assert!(stats.extractors_enumerated > 1);
    }

    #[test]
    fn pruning_reduces_enumerated_terms_without_changing_result() {
        let (ctx, examples, nodes) = setup();
        let mut s_on = SynthStats::default();
        let mut s_off = SynthStats::default();
        let on = run(&SynthConfig::fast(), &ctx, &examples, &nodes, &mut s_on);
        let off = run(
            &SynthConfig::fast().without_pruning(),
            &ctx,
            &examples,
            &nodes,
            &mut s_off,
        );
        assert!((on.f1 - off.f1).abs() < 1e-9);
        let mut a = on.extractors();
        let mut b = off.extractors();
        a.sort_by_key(|e| e.to_string());
        b.sort_by_key(|e| e.to_string());
        assert_eq!(a, b, "pruning must not change the optimal set");
        assert!(
            s_on.extractors_enumerated <= s_off.extractors_enumerated,
            "pruning should reduce work"
        );
        assert!(s_on.extractors_pruned > 0);
    }

    #[test]
    fn reference_kernels_reproduce_optimized_result_exactly() {
        let (ctx, examples, nodes) = setup();
        let mut s_fast = SynthStats::default();
        let mut s_ref = SynthStats::default();
        let fast = run(&SynthConfig::fast(), &ctx, &examples, &nodes, &mut s_fast);
        let slow = run(
            &SynthConfig::reference(),
            &ctx,
            &examples,
            &nodes,
            &mut s_ref,
        );
        assert_eq!(fast.f1, slow.f1);
        assert_eq!(fast.groups.len(), slow.groups.len());
        for ((ca, ea), (cb, eb)) in fast.groups.iter().zip(&slow.groups) {
            assert_eq!(ca, cb);
            assert_eq!(ea, eb);
        }
        assert_eq!(s_fast, s_ref, "search statistics must match exactly");
    }

    #[test]
    fn incremental_outputs_match_direct_evaluation() {
        let (ctx, examples, nodes) = setup();
        let cfg = SynthConfig::fast();
        let mut stats = SynthStats::default();
        let res = run(&cfg, &ctx, &examples, &nodes, &mut stats);
        for e in res.extractors().iter().take(10) {
            let direct: Vec<Vec<String>> = examples
                .iter()
                .zip(&nodes)
                .map(|(ex, ns)| e.eval(&ctx, &ex.page, ns))
                .collect();
            let c = counts_of_outputs(&examples, &dedup_outputs(&direct));
            assert!(
                (c.f1() - res.f1).abs() < 1e-9,
                "direct eval of {e} disagrees with incremental score"
            );
        }
    }

    #[test]
    fn empty_examples_degenerate() {
        let ctx = QueryContext::new("q?", ["k"]);
        let mut stats = SynthStats::default();
        let res = run(&SynthConfig::fast(), &ctx, &[], &[], &mut stats);
        // No examples: Content scores F1=1.0 on the empty set (vacuous).
        assert!(res.f1 >= 0.0);
    }
}
