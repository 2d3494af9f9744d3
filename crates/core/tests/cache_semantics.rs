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
//! reference engine field by field (programs, `Counts`, F₁, answers,
//! and the full `SynthStats`).
//!
//! The on-disk snapshot tier extends the same obligation across a
//! process boundary: persist → reload → re-run must equal the
//! never-cached reference, and a crash-truncated snapshot must degrade
//! to a cold miss — never a wrong answer.

use proptest::prelude::*;

use webqa::{CacheConfig, Config, Engine, PageStore, PersistSink, RunResult, SynthConfig, Task};

/// The task pool: overlapping page/question combinations so feature keys
/// are shared across tasks (hits), and 10 *distinct* (page, query) keys,
/// so a capacity-1 query tier must evict.
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
    assert_eq!(got.synthesis.f1, want.synthesis.f1, "F1, {what}");
    assert_eq!(
        got.synthesis.counts, want.synthesis.counts,
        "counts, {what}"
    );
    assert_eq!(
        got.synthesis.total_optimal, want.synthesis.total_optimal,
        "total_optimal, {what}"
    );
    assert_eq!(got.synthesis.stats, want.synthesis.stats, "stats, {what}");
    assert_eq!(
        got.synthesis.programs, want.synthesis.programs,
        "program set, {what}"
    );
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
/// of every labeled example rotated by `salt`. These are exactly the
/// reorderings the result LRU's canonical task key folds together;
/// example and target order are deliberately left untouched (the
/// pipeline observes both).
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

    /// Key normalization is observationally invisible: a cached engine
    /// fed arbitrarily *respelled* requests (rotated/duplicated
    /// keywords, rotated gold) — where a respelled repeat may be served
    /// from an entry its differently-spelled predecessor filled — still
    /// equals the never-cached reference run of each exact request.
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
    // a one-entry query tier must evict; the second pass re-inserts.
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

/// The soundness basis for key normalization, pinned at the engine level
/// with caches disabled: the pipeline itself is invariant to keyword
/// order, keyword duplication, and gold order within an example — while
/// labeled-example order is *observed* (a reordering may legitimately
/// change the selected program), which is why the canonical key leaves
/// it alone.
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
            assert_eq!(
                base.synthesis.stats, got.synthesis.stats,
                "stats, task {i} salt {salt}"
            );
        }
    }
}

/// Reordered-input requests are *actual* cache hits (not just equal
/// bytes): the respelled repeat is served from the entry its
/// differently-spelled predecessor filled, and a reordering the
/// pipeline observes (labeled-example order) correctly misses.
#[test]
fn reordered_requests_hit_the_result_cache() {
    let mut store = PageStore::new();
    let tasks = task_pool(&mut store);
    let reference = engine_with(CacheConfig::disabled(), store.clone());
    let cached = engine_with(
        CacheConfig {
            feature_capacity: 64,
            result_capacity: 8,
        },
        store,
    );

    // Cold fill, then three equivalent respellings: every one a hit,
    // every one byte-equal to the reference run of its exact spelling.
    cached.run(&tasks[0]).expect("store-issued ids resolve");
    assert_eq!(cached.cache_stats().result_hits, 0);
    for salt in 1..4 {
        let variant = respelled(&tasks[0], salt);
        let got = cached.run(&variant).expect("store-issued ids resolve");
        let want = reference.run(&variant).expect("store-issued ids resolve");
        assert_eq!(got.program, want.program, "salt {salt}");
        assert_eq!(got.answers, want.answers, "salt {salt}");
        assert_eq!(got.synthesis.stats, want.synthesis.stats, "salt {salt}");
    }
    let stats = cached.cache_stats();
    assert_eq!(
        stats.result_hits, 3,
        "every respelled repeat must hit: {stats:?}"
    );
    assert_eq!(stats.result_misses, 1, "one cold fill only: {stats:?}");

    // Flipping labeled-example order is NOT equivalent; it must miss
    // (and still match the reference for that exact ordering).
    let mut flipped = tasks[0].clone();
    flipped.labeled.reverse();
    let got = cached.run(&flipped).expect("store-issued ids resolve");
    let want = reference.run(&flipped).expect("store-issued ids resolve");
    assert_eq!(got.program, want.program);
    assert_eq!(got.answers, want.answers);
    let stats = cached.cache_stats();
    assert_eq!(
        stats.result_misses, 2,
        "example order is significant; the flip must miss: {stats:?}"
    );
}

/// A fresh, collision-free snapshot directory under the system temp
/// dir. Any leftover from a previous (crashed) run is removed first so
/// every test starts from an empty snapshot.
fn snapshot_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "webqa-cache-semantics-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `seq` through a persisting warm engine and spills its snapshot
/// into `dir`, returning the task pool's page HTML order implicitly via
/// `task_pool` (content-addressed, so a reloading store re-issues the
/// same ids).
fn spill_after(dir: &std::path::Path, seq: &[usize]) {
    let mut store = PageStore::new();
    let tasks = task_pool(&mut store);
    let warm = engine_with(
        CacheConfig {
            feature_capacity: 64,
            result_capacity: 8,
        },
        store,
    )
    .with_persist(PersistSink::open(dir).expect("temp snapshot dir is writable"));
    for &i in seq {
        warm.run(&tasks[i]).expect("store-issued ids resolve");
    }
    warm.spill_snapshot();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Persistence across a process boundary is observationally
    /// invisible: run a sequence, spill the snapshot, reload it into a
    /// brand-new engine, and the re-run equals the never-cached
    /// reference result for result — while the reload demonstrably
    /// serves the base-feature tier from disk (hits, zero corruption).
    #[test]
    fn persisted_reload_equals_never_cached_reference(
        seq in proptest::collection::vec(0usize..7, 1..12),
    ) {
        // Each proptest case needs its own directory: cases run in one
        // process, and a shared snapshot would leak state across cases.
        static CASE: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir = snapshot_dir(&format!("reload-{case}"));

        spill_after(&dir, &seq);

        // Second life: empty store, warm disk. `task_pool` re-interns
        // the same HTML, and content addressing dedups it onto the
        // snapshot-loaded pages, so the seeded base tables are keyed by
        // exactly the ids the tasks reference.
        let mut reloaded = engine_with(
            CacheConfig { feature_capacity: 64, result_capacity: 8 },
            PageStore::new(),
        )
        .with_persist(PersistSink::open(&dir).expect("temp snapshot dir is writable"));
        reloaded.load_snapshot();
        let loaded = reloaded.persist_stats();
        prop_assert!(loaded.pages_loaded > 0, "spill left no pages: {loaded:?}");
        prop_assert!(loaded.base_loaded > 0, "spill left no base tables: {loaded:?}");
        prop_assert_eq!(loaded.corrupt_skipped, 0);
        let tasks = task_pool(reloaded.store_mut());

        let reference = engine_with(CacheConfig::disabled(), reloaded.store().clone());
        assert_sequence_equal(&reloaded, &reference, &tasks, &seq);

        // The equality above must have been earned *through* the disk
        // tier: every task touches labeled pages whose base tables were
        // spilled in the first life, so the re-run hits the seeded tier.
        let stats = reloaded.cache_stats();
        prop_assert!(stats.base_hits > 0, "reload produced no base-tier hits: {stats:?}");

        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Crash-mid-write recovery: truncate every snapshot entry (as a crash
/// or torn copy would) and the reload must degrade to a *cold miss* —
/// nothing loaded, every entry counted corrupt, and the re-run still
/// byte-equal to the never-cached reference. A corrupt snapshot may
/// cost time; it must never change an answer.
#[test]
fn truncated_snapshot_degrades_to_cold_miss_never_wrong_answer() {
    let dir = snapshot_dir("truncate");
    let seq = [0usize, 3, 4, 5, 6, 1, 2];
    spill_after(&dir, &seq);

    // Halve every file under the snapshot: the `end <checksum>` trailer
    // (and usually much more) is gone, exactly like a write cut short.
    let mut clipped = 0u64;
    for sub in ["pages", "base"] {
        let d = dir.join("snapshot-v1").join(sub);
        for entry in std::fs::read_dir(&d).expect("snapshot subdir exists") {
            let path = entry.expect("readable dir entry").path();
            let len = std::fs::metadata(&path).expect("entry metadata").len();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .expect("snapshot entry is writable");
            file.set_len(len / 2).expect("truncate");
            clipped += 1;
        }
    }
    assert!(clipped >= 2, "spill must have produced page and base files");

    let mut reloaded = engine_with(
        CacheConfig {
            feature_capacity: 64,
            result_capacity: 8,
        },
        PageStore::new(),
    )
    .with_persist(PersistSink::open(&dir).expect("temp snapshot dir is writable"));
    reloaded.load_snapshot();
    let stats = reloaded.persist_stats();
    assert_eq!(
        stats.pages_loaded, 0,
        "truncated pages must not load: {stats:?}"
    );
    assert_eq!(
        stats.base_loaded, 0,
        "truncated base tables must not load: {stats:?}"
    );
    assert!(
        stats.corrupt_skipped > 0,
        "every clipped entry must be counted, not silently dropped: {stats:?}"
    );

    // Cold start from the surviving (empty) state: answers unchanged.
    let tasks = task_pool(reloaded.store_mut());
    let reference = engine_with(CacheConfig::disabled(), reloaded.store().clone());
    assert_sequence_equal(&reloaded, &reference, &tasks, &seq);

    let _ = std::fs::remove_dir_all(&dir);
}
