//! Search-statistics snapshot tests.
//!
//! The hot-path overhaul is only safe to evolve if a change that
//! silently *loses* pruning, memoization, or behavioral dedup fails a
//! test rather than a stopwatch. These tests pin the exact `SynthStats`
//! counters of two fixed fixtures; any structural change to the search
//! (an extra candidate enumerated, a memo hit lost, a prune skipped)
//! shifts a counter and trips the assertion.
//!
//! If a deliberate search change lands (new production pool, different
//! dedup rule, …), re-pin the numbers — after checking the *direction*
//! of each delta is the one the change intends.

use webqa_dsl::{PageTree, QueryContext};
use webqa_synth::{synthesize, Example, SynthConfig, SynthStats};

fn example(html: &str, gold: &[&str]) -> Example {
    Example::new(
        PageTree::parse(html),
        gold.iter().map(|s| s.to_string()).collect(),
    )
}

/// Fixture 1: the motivating "PhD students" task — two list pages, one
/// distractor section each, perfectly solvable.
fn students_fixture() -> (QueryContext, Vec<Example>) {
    let ctx = QueryContext::new("Who are the current PhD students?", ["Students", "PhD"]);
    let examples = vec![
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
    ];
    (ctx, examples)
}

/// Fixture 2: the "program committees" task — comma-packed list items
/// that need split/filter chains, imperfectly solvable.
fn service_fixture() -> (QueryContext, Vec<Example>) {
    let ctx = QueryContext::new(
        "Which program committees has this researcher served on?",
        ["PC", "Program Committee", "Service"],
    );
    let examples = vec![
        example(
            "<h1>R</h1><h2>Service</h2>\
             <ul><li>PLDI '21 (PC), CAV '20 (PC)</li><li>reading group, hiking club</li></ul>",
            &["PLDI '21 (PC)", "CAV '20 (PC)"],
        ),
        example(
            "<h1>S</h1><h2>Activities</h2><b>Professional Service</b>\
             <ul><li>POPL '20 (PC)</li><li>ICFP '19 (SRC)</li></ul>\
             <h2>Teaching</h2><p>CS 101</p>",
            &["POPL '20 (PC)", "ICFP '19 (SRC)"],
        ),
    ];
    (ctx, examples)
}

fn cfg() -> SynthConfig {
    let mut c = SynthConfig::fast();
    c.max_blocks = 2;
    c
}

#[test]
fn students_fixture_stats_snapshot() {
    let (ctx, examples) = students_fixture();
    let out = synthesize(&cfg(), &ctx, &examples);
    assert!(out.f1 > 0.99, "fixture must stay perfectly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 1022,
            locators_expanded: 3724,
            locators_pruned: 192,
            extractors_enumerated: 242,
            extractors_pruned: 81,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 544,
            extractor_memo_hits: 432,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 4466,
            analysis_pruned_extractors: 744,
            guard_cap_hits: 0,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

#[test]
fn service_fixture_stats_snapshot() {
    let (ctx, examples) = service_fixture();
    let out = synthesize(&cfg(), &ctx, &examples);
    assert!(out.f1 > 0.5, "fixture must stay mostly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 2649,
            locators_expanded: 4224,
            locators_pruned: 27,
            extractors_enumerated: 615,
            extractors_pruned: 1137,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 1861,
            extractor_memo_hits: 753,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 2686,
            analysis_pruned_extractors: 2025,
            guard_cap_hits: 2,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// The `NoDecomp` ablation of fixture 1: guards and extractors searched
/// jointly, with no memo and no UB gate.
#[test]
fn students_fixture_nodecomp_stats_snapshot() {
    let (ctx, examples) = students_fixture();
    let out = synthesize(&cfg().without_decomposition(), &ctx, &examples);
    assert!(out.f1 > 0.99, "fixture must stay perfectly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 1550,
            locators_expanded: 3724,
            locators_pruned: 0,
            extractors_enumerated: 13997,
            extractors_pruned: 1956,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 0,
            extractor_memo_hits: 0,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 4466,
            analysis_pruned_extractors: 53112,
            guard_cap_hits: 0,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// The `NoLazy` ablation of fixture 1: the guard stream is drained up
/// front, so the rising optimum never strengthens locator pruning.
#[test]
fn students_fixture_nolazy_stats_snapshot() {
    let (ctx, examples) = students_fixture();
    let out = synthesize(&cfg().without_lazy_guards(), &ctx, &examples);
    assert!(out.f1 > 0.99, "fixture must stay perfectly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 1550,
            locators_expanded: 3724,
            locators_pruned: 0,
            extractors_enumerated: 242,
            extractors_pruned: 81,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 896,
            extractor_memo_hits: 432,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 4466,
            analysis_pruned_extractors: 744,
            guard_cap_hits: 0,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// The `NoDecomp` ablation of fixture 2, where the optimum is below 1
/// and the joint search enumerates every guard's extractors in full.
#[test]
fn service_fixture_nodecomp_stats_snapshot() {
    let (ctx, examples) = service_fixture();
    let out = synthesize(&cfg().without_decomposition(), &ctx, &examples);
    assert!(out.f1 > 0.5, "fixture must stay mostly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 2649,
            locators_expanded: 4224,
            locators_pruned: 0,
            extractors_enumerated: 49568,
            extractors_pruned: 77588,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 0,
            extractor_memo_hits: 0,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 2686,
            analysis_pruned_extractors: 138177,
            guard_cap_hits: 2,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// The `NoLazy` ablation of fixture 2: with an imperfect optimum the
/// eager guard stream costs locator pruning the lazy search keeps.
#[test]
fn service_fixture_nolazy_stats_snapshot() {
    let (ctx, examples) = service_fixture();
    let out = synthesize(&cfg().without_lazy_guards(), &ctx, &examples);
    assert!(out.f1 > 0.5, "fixture must stay mostly solvable");
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 2649,
            locators_expanded: 4224,
            locators_pruned: 0,
            extractors_enumerated: 615,
            extractors_pruned: 1137,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 1861,
            extractor_memo_hits: 753,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 2686,
            analysis_pruned_extractors: 2025,
            guard_cap_hits: 2,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// Fixture 1 with a guard cap of 3: three of its four branch problems
/// stop at the cap (the fourth has no separating guard), each counted
/// once.
#[test]
fn students_fixture_guard_cap_stats_snapshot() {
    let (ctx, examples) = students_fixture();
    let mut capped = cfg();
    capped.max_guards_per_branch = 3;
    let out = synthesize(&capped, &ctx, &examples);
    assert_eq!(
        out.stats,
        SynthStats {
            guards_yielded: 9,
            locators_expanded: 1198,
            locators_pruned: 0,
            extractors_enumerated: 120,
            extractors_pruned: 18,
            branch_calls: 4,
            memo_hits: 0,
            locator_memo_hits: 2,
            extractor_memo_hits: 0,
            analysis_pruned_guards: 4,
            analysis_pruned_locators: 1372,
            analysis_pruned_extractors: 324,
            guard_cap_hits: 3,
        },
        "search-shape regression: pruning/memoization/dedup changed \
         (re-pin deliberately, checking each delta's direction)"
    );
}

/// The counters the snapshots pin must actually move in the direction
/// each mechanism promises — this guards the *meaning* of the counters
/// themselves, so the snapshots above stay interpretable.
#[test]
fn counters_move_with_their_mechanisms() {
    let (ctx, examples) = students_fixture();
    let base = synthesize(&cfg(), &ctx, &examples).stats;
    assert!(base.locators_pruned > 0, "pruning is live on this fixture");
    assert!(base.extractors_pruned > 0);
    assert!(base.locator_memo_hits > 0, "locator memo is live");
    assert!(base.extractor_memo_hits > 0, "task extractor memo is live");

    let noprune = synthesize(&cfg().without_pruning(), &ctx, &examples).stats;
    assert_eq!(noprune.locators_pruned, 0);
    assert_eq!(noprune.extractors_pruned, 0);
    assert!(
        noprune.extractors_enumerated >= base.extractors_enumerated,
        "disabling pruning cannot shrink the enumeration"
    );

    let nodecomp = synthesize(&cfg().without_decomposition(), &ctx, &examples).stats;
    assert_eq!(
        nodecomp.locator_memo_hits, 0,
        "joint synthesis shares nothing"
    );
    assert_eq!(
        nodecomp.extractor_memo_hits, 0,
        "joint synthesis shares nothing"
    );
    assert!(nodecomp.extractors_enumerated >= base.extractors_enumerated);

    assert!(
        base.analysis_pruned_locators > 0 && base.analysis_pruned_extractors > 0,
        "analysis prune is live on this fixture"
    );
    let noanalysis = synthesize(&cfg().without_analysis(), &ctx, &examples).stats;
    assert_eq!(noanalysis.analysis_pruned_guards, 0);
    assert_eq!(noanalysis.analysis_pruned_locators, 0);
    assert_eq!(noanalysis.analysis_pruned_extractors, 0);
    assert!(
        noanalysis.work() >= base.work(),
        "disabling the analysis prune cannot shrink the search work"
    );
}

/// The analysis prune is *sound*: it only skips candidates the abstract
/// interpreter proves dead, so the synthesized programs, score, and
/// guard stream are identical with it on or off.
#[test]
fn analysis_prune_preserves_results() {
    for fixture in [students_fixture, service_fixture] {
        let (ctx, examples) = fixture();
        let on = synthesize(&cfg(), &ctx, &examples);
        let off = synthesize(&cfg().without_analysis(), &ctx, &examples);
        assert!((on.f1 - off.f1).abs() < 1e-9);
        assert_eq!(on.programs, off.programs);
        assert_eq!(on.stats.guards_yielded, off.stats.guards_yielded);
    }
}
