//! Cache-invalidation property tests: arbitrary interleavings of
//! feature-tier hits, LRU evictions, and re-insertions must be
//! observationally invisible.
//!
//! The discipline extends the `SynthConfig::reference()` pattern one
//! layer up: where `tests/synth_parity.rs` holds the optimized search
//! kernels equal to a definitional slow path, this suite holds a
//! *cached* engine equal to the never-cached reference path
//! (`CacheConfig::disabled()`). The cached engine runs with
//! deliberately tiny capacities, so a random task sequence constantly
//! hits, evicts, and re-inserts both the feature tables and the
//! completed-run LRU — and every single result is compared against the
//! reference engine field by field (the selected program, `Counts`, F₁,
//! the optimal-program count, answers, and the full `SynthStats`).

use std::sync::Arc;

use proptest::prelude::*;

use webqa::{CacheConfig, Config, Engine, PageStore, RunResult, SynthConfig, Task};
use webqa_dsl::Program;

/// The task pool: overlapping page/question combinations so feature keys
/// are shared across tasks (hits), and 10 *distinct* (page, query) keys,
/// so a capacity-1 feature tier must evict.
fn task_pool(store: &mut PageStore) -> Vec<Task> {
    let a = store
        .insert_html("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>")
        .unwrap();
    let b = store
        .insert_html("<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>")
        .unwrap();
    let c = store
        .insert_html("<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>")
        .unwrap();
    let d = store
        .insert_html("<h1>D</h1><h2>Students</h2><ul><li>Elena Petrov</li></ul>")
        .unwrap();
    let e = store
        .insert_html(
            "<h1>E</h1><h2>Office Hours</h2><p>Tue 2pm</p><h2>Exams</h2><p>May 12, 2021</p>",
        )
        .unwrap();

    let students = || Task::new("Who are the current PhD students?", ["Students", "PhD"]);
    vec![
        // 0–2: shared labeled pages under one question, three target
        // variants — same feature keys, distinct result keys.
        students()
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_label(b, vec!["Mary Anderson".into()])
            .with_target(c),
        students()
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_label(b, vec!["Mary Anderson".into()])
            .with_target(d),
        students()
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_label(b, vec!["Mary Anderson".into()])
            .with_target(c)
            .with_target(d),
        // 3–6: other questions over overlapping pages — each (page,
        // query) pair is its own feature key, 8 more in total.
        Task::new("Who are the advisees?", ["Advisees"])
            .with_label(c, vec!["Wei Chen".into()])
            .with_target(a)
            .with_target(d),
        Task::new("When is the exam?", ["Exams"])
            .with_label(e, vec!["May 12, 2021".into()])
            .with_target(a),
        Task::new("Who is on the roster?", ["Students"])
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_label(d, vec!["Elena Petrov".into()])
            .with_target(b),
        Task::new("Who works with the group?", ["Advisees", "Students"])
            .with_label(c, vec!["Wei Chen".into()])
            .with_label(d, vec!["Elena Petrov".into()])
            .with_label(e, vec![])
            .with_target(a),
    ]
}

fn base_config() -> Config {
    Config {
        synth: SynthConfig::fast(),
        ..Config::default()
    }
}

fn engine_with(cache: CacheConfig, store: PageStore) -> Engine {
    Engine::with_store(
        Config {
            cache,
            ..base_config()
        },
        store,
    )
}

/// Asserts `got` equals `want` field by field (`what` names the case).
fn assert_results_equal(got: &RunResult, want: &RunResult, what: &str) {
    assert_eq!(got.program, want.program, "program, {what}");
    assert_eq!(got.answers, want.answers, "answers, {what}");
    assert_eq!(got.train_f1, want.train_f1, "F1, {what}");
    assert_eq!(got.counts, want.counts, "counts, {what}");
    assert_eq!(
        got.total_optimal, want.total_optimal,
        "total_optimal, {what}"
    );
    assert_eq!(got.stats, want.stats, "stats, {what}");
}

/// Runs `seq` through `cached` and the never-cached `reference`,
/// asserting field-by-field equality at every step.
fn assert_sequence_equal(cached: &Engine, reference: &Engine, tasks: &[Task], seq: &[usize]) {
    for (step, &i) in seq.iter().enumerate() {
        let got = cached.run(&tasks[i]).expect("store-issued ids resolve");
        let want = reference.run(&tasks[i]).expect("store-issued ids resolve");
        assert_results_equal(&got, &want, &format!("step {step} task {i}"));
    }
}

/// A semantically equivalent spelling of `task`: keywords rotated by
/// `salt` (and, for odd salts, the lead keyword repeated), gold strings
/// of every labeled example rotated by `salt`. The pipeline is invariant
/// to exactly these reorderings; example and target order are
/// deliberately left untouched (the pipeline observes both). The caches
/// key on the exact spelling, so a respelling is its own cache entry.
fn respelled(task: &Task, salt: usize) -> Task {
    let mut t = task.clone();
    if !t.keywords.is_empty() {
        let by = salt % t.keywords.len();
        t.keywords.rotate_left(by);
        if salt % 2 == 1 {
            t.keywords.push(t.keywords[0].clone());
        }
    }
    for (_, gold) in &mut t.labeled {
        if !gold.is_empty() {
            let by = salt % gold.len();
            gold.rotate_left(by);
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any interleaving of tasks through a thrashing cached engine
    /// (capacity 1 — every insert is an eviction somewhere) equals the
    /// never-cached reference, result for result.
    #[test]
    fn cached_engine_equals_never_cached_reference(
        seq in proptest::collection::vec(0usize..7, 1..16),
    ) {
        let mut store = PageStore::new();
        let tasks = task_pool(&mut store);
        let cached = engine_with(
            CacheConfig { feature_capacity: 1, result_capacity: 1 },
            store.clone(),
        );
        let reference = engine_with(CacheConfig::disabled(), store);
        assert_sequence_equal(&cached, &reference, &tasks, &seq);
        // The reference engine must really be the never-cached path.
        prop_assert_eq!(reference.cache_stats().feature_hits, 0);
        prop_assert_eq!(reference.cache_stats().result_hits, 0);
    }

    /// Respelled requests (rotated/duplicated keywords, rotated gold)
    /// through a warm cached engine each equal the never-cached
    /// reference run of that exact request, whether the spelling repeats
    /// (a result hit) or is new (a miss over already-seen pages).
    #[test]
    fn normalized_keys_equal_never_cached_reference(
        seq in proptest::collection::vec((0usize..7, 0usize..5), 1..12),
    ) {
        let mut store = PageStore::new();
        let tasks = task_pool(&mut store);
        let cached = engine_with(
            CacheConfig { feature_capacity: 64, result_capacity: 8 },
            store.clone(),
        );
        let reference = engine_with(CacheConfig::disabled(), store);
        let variants: Vec<Task> = seq
            .iter()
            .map(|&(i, salt)| respelled(&tasks[i], salt))
            .collect();
        let steps: Vec<usize> = (0..variants.len()).collect();
        assert_sequence_equal(&cached, &reference, &variants, &steps);
    }
}

/// Deterministic companion pinning that the proptest's cache behaviors
/// actually occur (it must not silently degenerate into testing an idle
/// cache): a warm engine demonstrates hits, a capacity-1 engine
/// demonstrates evictions and re-insertion-after-eviction — with
/// semantics checked against the reference throughout.
#[test]
fn fixed_sequence_exercises_hits_evictions_and_reinsertions() {
    let mut store = PageStore::new();
    let tasks = task_pool(&mut store);
    let reference = engine_with(CacheConfig::disabled(), store.clone());

    // Warm engine: features comfortably resident, result LRU of 2 over
    // 7 distinct tasks — immediate repeats hit, the round-robin evicts,
    // and returning to an evicted task forces a re-insertion.
    let warm = engine_with(
        CacheConfig {
            feature_capacity: 64,
            result_capacity: 2,
        },
        store.clone(),
    );
    let seq = [0usize, 0, 1, 2, 3, 4, 5, 6, 0, 0, 1, 1];
    assert_sequence_equal(&warm, &reference, &tasks, &seq);
    let stats = warm.cache_stats();
    assert!(stats.feature_hits > 0, "no feature hits: {stats:?}");
    assert_eq!(
        stats.result_hits, 3,
        "the three immediate repeats must hit: {stats:?}"
    );
    assert!(stats.result_evictions > 0, "no LRU evictions: {stats:?}");
    assert!(
        stats.result_misses > 7,
        "returning to evicted tasks must re-miss (re-insertion), 7 distinct tasks: {stats:?}"
    );

    // Thrashing engine: 10 distinct (page, query) feature keys through
    // a one-entry feature tier must evict; the second pass re-inserts.
    let thrash = engine_with(
        CacheConfig {
            feature_capacity: 1,
            result_capacity: 1,
        },
        store,
    );
    let all_then_all = [0usize, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6];
    assert_sequence_equal(&thrash, &reference, &tasks, &all_then_all);
    let stats = thrash.cache_stats();
    assert!(
        stats.feature_evictions > 0,
        "10 keys into a one-entry tier must evict: {stats:?}"
    );
    assert!(stats.result_evictions > 0, "no result evictions: {stats:?}");
}

/// Pipeline invariance, pinned at the engine level with caches
/// disabled: the pipeline is invariant to keyword order, keyword
/// duplication, and gold order within an example, while labeled-example
/// order is *observed* (a reordering may legitimately change the
/// selected program).
#[test]
fn pipeline_is_invariant_to_keyword_and_gold_order_only() {
    let mut store = PageStore::new();
    let tasks = task_pool(&mut store);
    let engine = engine_with(CacheConfig::disabled(), store);

    for (i, task) in tasks.iter().enumerate() {
        let base = engine.run(task).expect("store-issued ids resolve");
        for salt in 1..4 {
            let variant = respelled(task, salt);
            let got = engine.run(&variant).expect("store-issued ids resolve");
            assert_eq!(base.program, got.program, "program, task {i} salt {salt}");
            assert_eq!(base.answers, got.answers, "answers, task {i} salt {salt}");
            assert_eq!(base.stats, got.stats, "stats, task {i} salt {salt}");
        }
    }
}

/// Whether every branch of `a` points at the same trees as `b`'s.
fn same_trees(a: &Program, b: &Program) -> bool {
    a.branches.len() == b.branches.len()
        && a.branches.iter().zip(&b.branches).all(|(x, y)| {
            Arc::ptr_eq(&x.guard, &y.guard) && Arc::ptr_eq(&x.extractor, &y.extractor)
        })
}

/// A result-tier hit copies pointers, not trees: the selected program it
/// returns points at the trees the inserting run returned, and equals a
/// cold engine's program by value.
#[test]
fn result_hits_point_at_the_inserting_runs_trees() {
    let mut store = PageStore::new();
    let tasks = task_pool(&mut store);
    let warm = engine_with(CacheConfig::default(), store.clone());
    let cold = engine_with(CacheConfig::disabled(), store);
    for (i, task) in tasks.iter().enumerate() {
        let what = format!("task {i}");
        let inserted = warm.run(task).expect("store-issued ids resolve");
        let hit = warm.run(task).expect("store-issued ids resolve");
        let (Some(got), Some(want)) = (&hit.program, &inserted.program) else {
            panic!("{what}: no program");
        };
        assert!(same_trees(got, want), "{what}: the hit copied trees");
        assert_results_equal(&hit, &cold.run(task).expect("resolves"), &what);
    }
    assert_eq!(warm.cache_stats().result_hits, tasks.len() as u64);
}
