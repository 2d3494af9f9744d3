//! Corpus-level tests of the session-oriented engine API: one shared
//! `PageStore` across many tasks and the staged interactive-labeling
//! loop.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use webqa::{Config, Engine, SynthConfig};
use webqa_corpus::{task_by_id, Corpus};
use webqa_dsl::{PageTree, Program, QueryContext};
use webqa_metrics::{tokenize_all, Token};
use webqa_select::Ensemble;

/// Two tasks per domain, sharing their domain's pages.
const TASK_IDS: [&str; 8] = [
    "fac_t1",
    "fac_t2",
    "conf_t1",
    "conf_t2",
    "class_t1",
    "class_t2",
    "clinic_t1",
    "clinic_t2",
];

fn fast_config() -> Config {
    Config {
        synth: SynthConfig::fast(),
        ..Config::default()
    }
}

/// Interns a small corpus once into a single engine and builds the eight
/// engine tasks over the shared store. Within a domain the two tasks
/// reference the *same* `PageId`s — the interning the redesign exists for.
fn engine_and_corpus_tasks() -> (Engine, Vec<webqa::Task>) {
    let corpus = Corpus::generate(5, 2024);
    let mut engine = Engine::new(fast_config());
    let tasks = TASK_IDS
        .iter()
        .map(|id| {
            let task = task_by_id(id).expect("catalogue task");
            let data = corpus.dataset(task, 2);
            webqa::Task::from_split(
                task.question,
                task.keywords.iter().copied(),
                engine.store_mut(),
                data.train.into_iter().map(|p| (p.page, p.gold)),
                data.test.into_iter().map(|p| p.page),
            )
        })
        .collect();
    (engine, tasks)
}

#[test]
fn corpus_pages_intern_once_across_tasks() {
    let (engine, tasks) = engine_and_corpus_tasks();

    // 4 domains × 5 pages: the 8 tasks (2 per domain) re-submitted every
    // page, yet each is stored exactly once.
    assert_eq!(engine.store().len(), 20);

    // The two tasks of a domain resolve to the *same* shared trees.
    let (fac1, fac2) = (&tasks[0], &tasks[1]);
    assert_eq!(fac1.labeled[0].0, fac2.labeled[0].0);
    let t1 = engine.store().get(fac1.labeled[0].0).unwrap();
    let t2 = engine.store().get(fac2.labeled[0].0).unwrap();
    assert!(Arc::ptr_eq(t1, t2), "interning must share one allocation");
}

/// The definitional ensemble: each sampled member run through
/// `Program::eval` on every page, grouped in member order, as
/// (outputs, weight, representative).
fn naive_groups(
    ctx: &QueryContext,
    programs: &[Program],
    pages: &[Arc<PageTree>],
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

#[test]
fn ensemble_matches_per_member_eval_on_synthesized_programs() {
    let (engine, tasks) = engine_and_corpus_tasks();
    let selection = &engine.config().selection;
    for (id, task) in TASK_IDS.iter().zip(&tasks) {
        if !matches!(*id, "fac_t1" | "conf_t1" | "clinic_t1") {
            continue;
        }
        let synthesized = engine
            .prepare(task)
            .expect("ids from this store")
            .synthesize();
        let programs = &synthesized.outcome().programs;
        assert!(programs.len() > 1, "{id}: a one-program set checks nothing");
        let (ctx, pages) = (synthesized.context(), synthesized.unlabeled());
        let e = Ensemble::sample(
            ctx,
            programs,
            pages,
            selection.ensemble_size,
            selection.seed,
        )
        .expect("programs are non-empty");
        let got: Vec<_> = e
            .groups()
            .iter()
            .map(|g| (g.outputs.clone(), g.weight, g.representative))
            .collect();
        let want = naive_groups(
            ctx,
            programs,
            pages,
            selection.ensemble_size,
            selection.seed,
        );
        assert_eq!(
            got, want,
            "{id}: ensemble groups diverged from per-member eval"
        );
    }
}

#[test]
fn incremental_label_via_stages_does_not_regress_train_f1() {
    let corpus = Corpus::generate(5, 2024);
    let task = task_by_id("fac_t1").unwrap();
    let data = corpus.dataset(task, 1);

    // Keep the test gold aligned with the unlabeled order so a suggested
    // index can be answered like a user would.
    let mut unlabeled_gold = Vec::new();
    let mut engine = Engine::new(fast_config());
    let spec = webqa::Task::from_split(
        task.question,
        task.keywords.iter().copied(),
        engine.store_mut(),
        data.train.into_iter().map(|p| (p.page, p.gold)),
        data.test.into_iter().map(|p| {
            unlabeled_gold.push(p.gold);
            p.page
        }),
    );

    let first = engine.prepare(&spec).unwrap().synthesize();
    let f1_before = first.train_f1();

    // One round of the Section 7 loop: suggest → label → re-synthesize.
    let mut prepared = first.refine();
    let suggested = prepared.suggest_labels(1);
    assert_eq!(suggested.len(), 1, "a target page should be suggested");
    let idx = suggested[0];
    prepared.label(idx, unlabeled_gold.remove(idx));
    assert_eq!(prepared.examples().len(), 2);

    let second = prepared.synthesize();
    assert!(
        second.train_f1() + 1e-9 >= f1_before,
        "adding a gold label regressed train F1: {} -> {}",
        f1_before,
        second.train_f1()
    );
    assert!(!second.outcome().programs.is_empty());
}

/// Regression: when several count vectors tie on the optimal F₁, the
/// reported `synthesis.counts` (and with them the whole result) must not
/// depend on per-instance hash seeds. On `class_t1` two sums tie at
/// F₁ 2/3 ({2,2,4} and {4,8,4}); without a fixed tie order, fresh
/// engines split between them.
#[test]
fn f1_tied_counts_are_identical_across_fresh_engines() {
    let corpus = Corpus::generate(8, 42);
    let task = task_by_id("class_t1").expect("catalogue task");
    let pages = corpus.pages(task.domain);
    let runs: Vec<_> = (0..16)
        .map(|_| {
            let mut engine = Engine::new(Config::default());
            let spec = webqa::Task::from_split(
                task.question,
                task.keywords.iter().copied(),
                engine.store_mut(),
                pages[..2]
                    .iter()
                    .map(|p| (p.tree(), p.gold(task.id).to_vec())),
                pages[2..4].iter().map(|p| p.tree()),
            );
            let r = engine.run(&spec).expect("ids from this store");
            (r.counts, r.program, r.answers)
        })
        .collect();
    assert!(
        runs.iter().all(|r| *r == runs[0]),
        "results differ across engines: {:?}",
        runs.iter().map(|r| r.0).collect::<Vec<_>>()
    );
}

/// Regression: a `run` may carry any number of labeled pages. Past 32 the
/// labeled set no longer fits the partition search's old 32-bit example
/// masks — debug builds overflowed, release builds dropped the extra
/// examples from E⁺ — so all forty must be scored.
#[test]
fn run_scores_every_one_of_forty_labeled_pages() {
    let names = [
        "Jane Doe",
        "Bob Smith",
        "Mary Anderson",
        "Wei Chen",
        "Ana Lima",
    ];
    let mut engine = Engine::new(fast_config());
    let labeled: Vec<(PageTree, Vec<String>)> = (0..40)
        .map(|i| {
            let name = names[i % names.len()];
            let html = format!("<h1>Lab {i}</h1><h2>Students</h2><ul><li>{name}</li></ul>");
            (PageTree::parse(&html), vec![name.to_string()])
        })
        .collect();
    let gold_tokens: usize = labeled.iter().map(|(_, g)| tokenize_all(g).len()).sum();
    let target = PageTree::parse("<h1>Lab</h1><h2>Students</h2><ul><li>Zoe Park</li></ul>");
    let task = webqa::Task::from_split(
        "Who are the students?",
        ["Students"],
        engine.store_mut(),
        labeled,
        [target],
    );
    let r = engine.run(&task).expect("ids from this store");
    assert_eq!(r.counts.gold, gold_tokens);
    assert_eq!(r.answers, vec![vec!["Zoe Park".to_string()]]);
}
