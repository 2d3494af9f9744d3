//! Semantics-parity harness for the synthesis hot path.
//!
//! The optimized synthesizer (interned-id scoring kernels, task-level
//! filter-mask tables, arena-indexed locator memoization, step-wise
//! extractor enumeration with shared production caches) must be
//! *observationally identical* to the definitional slow path selected by
//! [`SynthConfig::reference`]: same optimal F₁, same `Counts`, same
//! program list, in the same order, on every task.
//!
//! This file is the contract that lets future hot-path changes land
//! safely: break the semantics anywhere — a kernel that scores one token
//! differently, a mask that misclassifies one node, a memo that returns a
//! stale synthesis — and a corpus task here diverges.

use proptest::prelude::*;
use webqa_corpus::{generate_pages, TASKS};
use webqa_dsl::QueryContext;
use webqa_metrics::Counts;
use webqa_synth::{synthesize, Example, SynthConfig, SynthesisOutcome};

/// Training examples for one corpus task: `n` generated pages of the
/// task's domain with the task's gold labels.
fn task_examples(task: &webqa_corpus::Task, n: usize, seed: u64) -> (QueryContext, Vec<Example>) {
    let pages = generate_pages(task.domain, n, seed);
    let ctx = QueryContext::new(task.question, task.keywords.to_vec());
    let examples = pages
        .iter()
        .map(|p| Example::new(p.tree(), p.gold(task.id).to_vec()))
        .collect();
    (ctx, examples)
}

fn assert_outcomes_identical(task_id: &str, fast: &SynthesisOutcome, slow: &SynthesisOutcome) {
    assert_eq!(fast.f1, slow.f1, "{task_id}: optimal F1 diverged");
    assert_eq!(fast.counts, slow.counts, "{task_id}: counts diverged");
    assert_eq!(
        fast.total_optimal, slow.total_optimal,
        "{task_id}: total optimal-program count diverged"
    );
    assert_eq!(
        fast.programs.len(),
        slow.programs.len(),
        "{task_id}: program count diverged"
    );
    for (i, (a, b)) in fast.programs.iter().zip(&slow.programs).enumerate() {
        assert_eq!(a, b, "{task_id}: program #{i} diverged:\n  {a}\n  {b}");
    }
}

/// The headline contract: every corpus task, optimized ≡ reference.
#[test]
fn optimized_synthesis_matches_reference_on_every_corpus_task() {
    // Two labeled pages keep the definitional slow path affordable while
    // still exercising multi-example partitions, negatives (footnote 5),
    // memoization, and every kernel.
    let mut cfg_fast = SynthConfig::fast();
    cfg_fast.max_blocks = 2;
    let cfg_slow = cfg_fast.clone().with_reference_kernels();
    for task in &TASKS {
        let (ctx, examples) = task_examples(task, 2, 2024);
        let fast = synthesize(&cfg_fast, &ctx, &examples);
        let slow = synthesize(&cfg_slow, &ctx, &examples);
        assert_outcomes_identical(task.id, &fast, &slow);
        // The search statistics must agree too: the two paths make the
        // same decisions, they just pay different costs per decision.
        assert_eq!(fast.stats, slow.stats, "{}: stats diverged", task.id);
    }
}

/// Three examples in up to three blocks: different partitions share
/// blocks (`[{0},{1},{2}]` and `[{1},{0},{2}]` both end in `({2}, ∅)`),
/// so the top-level block memo serves repeats, and the memo must not
/// change what the reference path finds. Two blocks are not enough: an
/// ordered two-block partition is the only one containing either of its
/// branch problems.
#[test]
fn shared_partition_blocks_match_reference() {
    let mut cfg = SynthConfig::fast();
    cfg.max_blocks = 3;
    let reference = cfg.clone().with_reference_kernels();
    for task in [&TASKS[0], &TASKS[7], &TASKS[13], &TASKS[19]] {
        let (ctx, examples) = task_examples(task, 3, 7);
        let fast = synthesize(&cfg, &ctx, &examples);
        let slow = synthesize(&reference, &ctx, &examples);
        assert_outcomes_identical(task.id, &fast, &slow);
        assert_eq!(fast.stats, slow.stats, "{}: stats diverged", task.id);
        assert!(fast.stats.memo_hits > 0, "{}: no block was shared", task.id);
    }
}

/// The ablation configurations (NoPrune / NoDecomp / NoLazy) ride the
/// same kernels; parity must hold under them as well.
#[test]
fn ablation_configs_preserve_parity() {
    let base = {
        let mut c = SynthConfig::fast();
        c.max_blocks = 2;
        c.max_guards_per_branch = 128;
        c.max_programs = 200;
        c
    };
    let variants: Vec<(&str, SynthConfig)> = vec![
        ("noprune", base.clone().without_pruning()),
        ("nodecomp", base.clone().without_decomposition()),
        ("nolazy", base.clone().without_lazy_guards()),
    ];
    let task = &TASKS[2];
    let (ctx, examples) = task_examples(task, 2, 5);
    for (name, cfg) in variants {
        let fast = synthesize(&cfg, &ctx, &examples);
        let slow = synthesize(&cfg.clone().with_reference_kernels(), &ctx, &examples);
        assert_outcomes_identical(name, &fast, &slow);
        assert_eq!(fast.stats, slow.stats, "{name}: stats diverged");
    }
}

/// Reference mode really is the slow path of the same search — its
/// outcome carries the same counters, and `SynthConfig::reference()`
/// differs from `fast()` only by the kernel flag.
#[test]
fn reference_config_is_fast_config_with_slow_kernels() {
    let mut r = SynthConfig::reference();
    assert!(r.reference_kernels);
    r.reference_kernels = false;
    assert_eq!(r, SynthConfig::fast());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Optimized ≡ reference on *random* generator pages and tasks — the
    /// corpus sweep above pins the shipped tasks; this hunts for inputs
    /// nobody hand-picked.
    #[test]
    fn optimized_matches_reference_on_random_inputs(
        seed in 0u64..10_000,
        t in 0usize..25,
        n in 1usize..3,
    ) {
        let task = &TASKS[t];
        let (ctx, examples) = task_examples(task, n, seed);
        let mut cfg = SynthConfig::fast();
        cfg.max_guards_per_branch = 96; // keep the reference path quick
        cfg.max_programs = 100;
        let fast = synthesize(&cfg, &ctx, &examples);
        let slow = synthesize(&cfg.clone().with_reference_kernels(), &ctx, &examples);
        prop_assert_eq!(fast.f1, slow.f1);
        prop_assert_eq!(fast.counts, slow.counts);
        prop_assert_eq!(fast.total_optimal, slow.total_optimal);
        prop_assert_eq!(&fast.programs, &slow.programs);
        prop_assert_eq!(fast.stats, slow.stats);
    }

    /// The fast ceiling kernel agrees with the definitional one on random
    /// locator-free node subsets of generated pages (the parity sweep
    /// exercises it through full synthesis; this isolates the kernel).
    #[test]
    fn ceiling_kernels_agree_on_random_pages(seed in 0u64..10_000, t in 0usize..25) {
        let task = &TASKS[t];
        let page = generate_pages(task.domain, 1, seed).remove(0);
        let ex = Example::new(page.tree(), page.gold(task.id).to_vec());
        let len = ex.page.len();
        // A deterministic pseudo-random subset keyed by the seed, in
        // document order without repeats (the fast kernel's precondition).
        let nodes: Vec<webqa_dsl::PageNodeId> = (0..len)
            .filter(|i| (seed.wrapping_mul(0x9E37_79B9).wrapping_add(*i as u64)) % 3 != 0)
            .map(webqa_dsl::PageNodeId)
            .collect();
        let fast: Counts = ex.ceiling_counts(&nodes, &mut Vec::new());
        let slow: Counts = ex.ceiling_counts_reference(&nodes);
        prop_assert_eq!(fast, slow);
    }
}
