//! Brute-force reference synthesizer.
//!
//! [`enumerate_optimal`] enumerates **every** single-branch program in the
//! bounded DSL space (same pools and depth bounds as the real engine,
//! Figures 9–10) and scores each by direct whole-program evaluation —
//! no decomposition, no propagation, no pruning, no incremental output
//! transformation. It is exponentially slower than [`crate::synthesize`]
//! but has no moving parts, which makes it the ground truth that the
//! engine's optimality guarantee (Theorem 5.1) is tested against: on any
//! input where the oracle is feasible, the engine must report exactly the
//! oracle's optimal F₁, and every program the engine returns must be in
//! the oracle's optimal set.

use std::collections::VecDeque;

use webqa_dsl::{Extractor, Guard, Locator, Program, QueryContext};

use crate::config::SynthConfig;
use crate::example::{program_counts, Example};
use crate::extractors::F1_EPS;
use crate::pool::{extend_extractor, extend_locator, gen_guards};

/// The oracle's result: the optimal F₁ and every single-branch program
/// achieving it.
#[derive(Debug, Clone)]
pub struct OracleOutcome {
    /// All single-branch programs with optimal F₁, in enumeration order.
    pub programs: Vec<Program>,
    /// The optimal F₁.
    pub f1: f64,
    /// How many candidate programs were scored.
    pub enumerated: usize,
}

/// Enumerates all single-branch programs within `cfg`'s bounds and returns
/// those with optimal F₁ on `examples`, scored by whole-program
/// evaluation.
///
/// The search space is the full cartesian product of guards and
/// extractors, so this is only feasible for reduced configurations
/// (shallow depths, small threshold grids). Intended for testing and for
/// auditing the engine's output on small tasks — not for production
/// synthesis.
///
/// # Panics
///
/// Panics if `examples` is empty (an optimum over nothing is undefined).
pub fn enumerate_optimal(
    cfg: &SynthConfig,
    ctx: &QueryContext,
    examples: &[Example],
) -> OracleOutcome {
    assert!(!examples.is_empty(), "oracle needs at least one example");
    let guards = all_guards(cfg, ctx);
    let extractors = all_extractors(cfg, ctx);

    let mut best_f1 = -1.0f64;
    let mut best: Vec<Program> = Vec::new();
    let mut enumerated = 0usize;
    for g in &guards {
        for e in &extractors {
            let p = Program::single(g.clone(), e.clone());
            let f1 = program_counts(ctx, examples, &p).f1();
            enumerated += 1;
            if f1 > best_f1 + F1_EPS {
                best_f1 = f1;
                best = vec![p];
            } else if (f1 - best_f1).abs() <= F1_EPS {
                best.push(p);
            }
        }
    }
    OracleOutcome {
        programs: best,
        f1: best_f1.max(0.0),
        enumerated,
    }
}

/// Every guard within the config's locator-depth bound.
pub(crate) fn all_guards(cfg: &SynthConfig, ctx: &QueryContext) -> Vec<Guard> {
    let mut out = Vec::new();
    let mut queue: VecDeque<Locator> = VecDeque::new();
    queue.push_back(Locator::Root);
    while let Some(l) = queue.pop_front() {
        out.extend(gen_guards(cfg, ctx, &l));
        for ext in extend_locator(cfg, ctx, &l) {
            queue.push_back(ext);
        }
    }
    out
}

/// Every extractor within the config's extractor-depth bound.
pub(crate) fn all_extractors(cfg: &SynthConfig, ctx: &QueryContext) -> Vec<Extractor> {
    let mut out = Vec::new();
    let mut queue: VecDeque<Extractor> = VecDeque::new();
    queue.push_back(Extractor::Content);
    while let Some(e) = queue.pop_front() {
        out.push(e.clone());
        for ext in extend_extractor(cfg, ctx, &e) {
            queue.push_back(ext);
        }
    }
    out
}

/// A configuration small enough for the oracle's exhaustive product:
/// locator depth 2, extractor depth 2, two thresholds, one delimiter.
pub fn tiny_config() -> SynthConfig {
    SynthConfig {
        guard_depth: 2,
        extractor_depth: 2,
        thresholds: vec![0.5, 0.8],
        delimiters: vec![','],
        substring_ks: vec![1],
        max_blocks: 1,
        max_guards_per_branch: usize::MAX,
        max_programs: usize::MAX,
        prune: true,
        analysis: true,
        decompose: true,
        lazy_guards: true,
        filter_conjunctions: false,
        reference_kernels: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::top::synthesize;
    use std::collections::HashSet;
    use webqa_dsl::PageTree;

    fn example(html: &str, gold: &[&str]) -> Example {
        Example::new(
            PageTree::parse(html),
            gold.iter().map(|s| s.to_string()).collect(),
        )
    }

    fn ctx() -> QueryContext {
        QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
    }

    /// Theorem 5.1, checked against ground truth: on a space small enough
    /// to enumerate exhaustively, the engine reports exactly the oracle's
    /// optimum and returns only oracle-optimal programs.
    #[test]
    fn engine_matches_oracle_on_small_space() {
        let cfg = tiny_config();
        let c = ctx();
        let cases: Vec<Vec<Example>> = vec![
            vec![example(
                "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>",
                &["Jane Doe", "Bob Smith"],
            )],
            vec![example(
                "<h1>B</h1><h2>News</h2><p>Welcome Sarah Brown.</p>\
                 <h2>Students</h2><p>Mary Anderson, Tom Lee</p>",
                &["Mary Anderson", "Tom Lee"],
            )],
            vec![
                example(
                    "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>",
                    &["Jane Doe"],
                ),
                example(
                    "<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>",
                    &["Mary Anderson"],
                ),
            ],
        ];
        for examples in &cases {
            let oracle = enumerate_optimal(&cfg, &c, examples);
            let engine = synthesize(&cfg, &c, examples);
            assert!(
                (oracle.f1 - engine.f1).abs() < 1e-9,
                "engine {} vs oracle {}",
                engine.f1,
                oracle.f1
            );
            // Single-branch engine programs must be oracle-optimal.
            let optimal: HashSet<&Program> = oracle.programs.iter().collect();
            for p in engine.programs.iter().filter(|p| p.branches.len() == 1) {
                assert!(
                    optimal.contains(p),
                    "engine returned non-optimal program {p} (oracle opt {})",
                    oracle.f1
                );
            }
        }
    }

    /// The engine's pruning and behavioral dedup must not *lose* optima:
    /// whichever distinct output behaviours the oracle's optimal set
    /// exhibits, the engine's set must exhibit too.
    #[test]
    fn engine_covers_oracle_behaviours() {
        let cfg = tiny_config();
        let c = ctx();
        let examples = vec![example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe, Bob Smith</li></ul>\
             <h2>Other</h2><p>noise</p>",
            &["Jane Doe", "Bob Smith"],
        )];
        let oracle = enumerate_optimal(&cfg, &c, &examples);
        let engine = synthesize(&cfg, &c, &examples);
        let behaviours = |ps: &[Program]| -> HashSet<Vec<String>> {
            ps.iter().map(|p| p.eval(&c, &examples[0].page)).collect()
        };
        let ob = behaviours(&oracle.programs);
        let eb = behaviours(&engine.programs);
        for b in &ob {
            assert!(eb.contains(b), "engine lost optimal behaviour {b:?}");
        }
    }

    #[test]
    fn oracle_space_is_the_full_product() {
        let cfg = tiny_config();
        let c = ctx();
        let guards = all_guards(&cfg, &c);
        let extractors = all_extractors(&cfg, &c);
        let examples = vec![example("<h1>A</h1><p>x</p>", &["x"])];
        let oracle = enumerate_optimal(&cfg, &c, &examples);
        assert_eq!(oracle.enumerated, guards.len() * extractors.len());
        assert!(oracle.enumerated > 100, "space unexpectedly small");
    }

    #[test]
    fn oracle_handles_unreachable_gold() {
        // Gold not on the page: nothing scores > 0, optimum is 0 and the
        // optimal set is every program (all tie at 0).
        let cfg = tiny_config();
        let c = ctx();
        let examples = vec![example("<h1>A</h1><p>x</p>", &["unfindable tokens"])];
        let oracle = enumerate_optimal(&cfg, &c, &examples);
        assert_eq!(oracle.f1, 0.0);
        assert_eq!(oracle.programs.len(), oracle.enumerated);
    }

    #[test]
    #[should_panic(expected = "at least one example")]
    fn oracle_rejects_empty_examples() {
        enumerate_optimal(&tiny_config(), &ctx(), &[]);
    }
}
