//! The session-oriented engine: shared page storage plus the staged
//! pipeline.
//!
//! A one-shot "question in, answers out" call would re-parse and clone
//! every page per call and expose nothing in between. The paper's
//! workflow is not one-shot — Figure 1 runs synthesis over a few labeled
//! pages and selection over many unlabeled ones, and the Section 7
//! interactive-labeling loop re-runs synthesis after each new label. The [`Engine`] serves that workflow:
//!
//! * pages are interned once in a [`PageStore`] and referenced by
//!   [`PageId`] — no `PageTree` is deep-cloned on the run path;
//! * the pipeline is staged — [`Engine::prepare`] →
//!   [`Prepared::synthesize`] → [`Synthesized::select`] →
//!   [`Selected::answers`] — so callers can inspect or loop on any stage
//!   (add a label and re-synthesize without re-doing anything else);
//! * errors are values ([`Error`]), not panics;
//! * a run executes on the calling thread: the engine spawns no
//!   threads, so its caller (the daemon's worker pool) is the one bound
//!   on concurrency.

use std::sync::Arc;

use crate::cache::{CacheStats, EngineCaches};
use crate::error::Error;
use crate::pipeline::{Config, RunResult, Selection};
use crate::store::{PageId, PageStore};
use webqa_dsl::{PageTree, Program, QueryContext};
use webqa_select::{select_from_ensemble, select_random, select_shortest, Ensemble};
use webqa_synth::{
    synthesize_cancellable, CancelToken, Example, PageBaseFeatures, PageFeatures, SynthesisOutcome,
};

/// One extraction task over pages interned in an engine's store.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    /// The natural-language question.
    pub question: String,
    /// The keyword list.
    pub keywords: Vec<String>,
    /// Labeled pages: the page handle plus its gold extraction strings.
    pub labeled: Vec<(PageId, Vec<String>)>,
    /// Unlabeled target pages, in the order answers are wanted.
    pub unlabeled: Vec<PageId>,
}

impl Task {
    /// A task with no pages yet; push into
    /// [`labeled`](Task::labeled) / [`unlabeled`](Task::unlabeled) or use
    /// [`with_label`](Task::with_label) / [`with_target`](Task::with_target).
    pub fn new(
        question: impl Into<String>,
        keywords: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Task {
            question: question.into(),
            keywords: keywords.into_iter().map(Into::into).collect(),
            labeled: Vec::new(),
            unlabeled: Vec::new(),
        }
    }

    /// Builds a task from a train/test split of parsed trees, interning
    /// every page into `store` — the canonical way to turn a dataset
    /// split into a task without hand-rolling the interning loop.
    /// Content-addressing applies: trees already in the store (from an
    /// earlier task over the same pages) reuse their existing handles.
    pub fn from_split(
        question: impl Into<String>,
        keywords: impl IntoIterator<Item = impl Into<String>>,
        store: &mut PageStore,
        labeled: impl IntoIterator<Item = (PageTree, Vec<String>)>,
        unlabeled: impl IntoIterator<Item = PageTree>,
    ) -> Self {
        let mut task = Task::new(question, keywords);
        for (tree, gold) in labeled {
            task.labeled.push((store.insert_tree(tree), gold));
        }
        task.unlabeled
            .extend(unlabeled.into_iter().map(|tree| store.insert_tree(tree)));
        task
    }

    /// Builds a task over pages already interned in a store, applying the
    /// standard corpus split rule in one place: the first `n_train`
    /// handles become labeled examples (gold supplied per index into
    /// `pages`), the rest become unlabeled targets.
    pub fn from_id_split(
        question: impl Into<String>,
        keywords: impl IntoIterator<Item = impl Into<String>>,
        pages: &[PageId],
        n_train: usize,
        mut gold_of: impl FnMut(usize) -> Vec<String>,
    ) -> Self {
        let boundary = n_train.min(pages.len());
        let mut task = Task::new(question, keywords);
        for (i, &id) in pages[..boundary].iter().enumerate() {
            task.labeled.push((id, gold_of(i)));
        }
        task.unlabeled.extend(&pages[boundary..]);
        task
    }

    /// Adds a labeled page (builder style).
    pub fn with_label(mut self, page: PageId, gold: Vec<String>) -> Self {
        self.labeled.push((page, gold));
        self
    }

    /// Adds an unlabeled target page (builder style).
    pub fn with_target(mut self, page: PageId) -> Self {
        self.unlabeled.push(page);
        self
    }
}

/// The session-oriented WebQA engine: a [`Config`] plus an owned
/// [`PageStore`]. See the module docs for the staged workflow.
///
/// ```
/// use webqa::{Config, Engine, Task};
///
/// let mut engine = Engine::new(Config::default());
/// let labeled = engine
///     .store_mut()
///     .insert_html("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li></ul>")?;
/// let target = engine
///     .store_mut()
///     .insert_html("<h1>B</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>")?;
///
/// let task = Task::new("Who are the PhD students?", ["Students"])
///     .with_label(labeled, vec!["Jane Doe".into()])
///     .with_target(target);
///
/// // Staged: prepare → synthesize → select → answers.
/// let selected = engine.prepare(&task)?.synthesize().select();
/// assert!(selected.program().is_some());
/// assert_eq!(selected.answers(), vec![vec!["Wei Chen".to_string()]]);
/// # Ok::<(), webqa::Error>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    config: Config,
    store: PageStore,
    /// Cross-request caches ([`crate::cache`]), owned by this engine.
    caches: EngineCaches,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(Config::default())
    }
}

impl Engine {
    /// An engine with an empty page store.
    pub fn new(config: Config) -> Self {
        Self::with_store(config, PageStore::new())
    }

    /// An engine over an existing (possibly shared-by-clone) store —
    /// interning is content-addressed, so a store built once can be
    /// cloned cheaply into engines with different configs and the ids
    /// stay valid. The caches start empty (they are per-engine, not
    /// per-store).
    pub fn with_store(config: Config, store: PageStore) -> Self {
        let caches = EngineCaches::new(config.cache);
        Engine {
            config,
            store,
            caches,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// A snapshot of the cross-request cache counters (feature-LRU and
    /// result-LRU hits / misses / evictions). Counters accumulate across
    /// every `prepare`/`run` of this engine.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// The page store (read access).
    pub fn store(&self) -> &PageStore {
        &self.store
    }

    /// The page store (for interning pages).
    pub fn store_mut(&mut self) -> &mut PageStore {
        &mut self.store
    }

    /// Stage 1: resolves a task's page handles against the store and
    /// precomputes the synthesis examples and query context.
    ///
    /// # Errors
    ///
    /// [`Error::UnknownPage`] when the task references a handle this
    /// store never issued.
    pub fn prepare(&self, task: &Task) -> Result<Prepared<'_>, Error> {
        let ctx =
            crate::pipeline::context_for(self.config.modality, &task.question, &task.keywords);
        let examples = task
            .labeled
            .iter()
            .map(|(id, gold)| Ok(Example::new(Arc::clone(self.store.get(*id)?), gold.clone())))
            .collect::<Result<Vec<_>, Error>>()?;
        let unlabeled = task
            .unlabeled
            .iter()
            .map(|id| Ok(Arc::clone(self.store.get(*id)?)))
            .collect::<Result<Vec<_>, Error>>()?;
        let mut prepared = Prepared {
            engine: self,
            ctx,
            examples,
            unlabeled,
            unlabeled_ids: task.unlabeled.clone(),
            features: Vec::new(),
        };
        // Feature/mask tables for the labeled pages, through the engine's
        // feature LRU (pure per-(page, query, config), so a hit
        // is byte-identical to a rebuild). Reference-kernel mode computes
        // everything definitionally inside the search instead.
        if !self.config.synth.reference_kernels {
            prepared.features = task
                .labeled
                .iter()
                .zip(&prepared.examples)
                .map(|((id, _), ex)| prepared.fetch_features(*id, &ex.page))
                .collect();
        }
        Ok(prepared)
    }

    /// Runs the full staged pipeline on one task, through the engine's
    /// completed-run LRU: a repeat of an identical task under an
    /// identical config is a cache hit, returning the stored result —
    /// byte-identical to recomputation because the pipeline is
    /// deterministic in (task, config).
    ///
    /// # Errors
    ///
    /// [`Error::UnknownPage`] — see [`Engine::prepare`].
    pub fn run(&self, task: &Task) -> Result<RunResult, Error> {
        self.run_with_cancel(task, &CancelToken::never())
    }

    /// [`Engine::run`] under a cooperative [`CancelToken`] — the
    /// serving layer's per-request deadline path.
    ///
    /// The token is checked before the run starts (a pre-tripped token —
    /// e.g. a request whose deadline expired while queued — returns
    /// [`Error::Cancelled`] without touching the engine) and once per
    /// guard step inside synthesis, so a trip aborts within one
    /// enumerator step. Cancellation never poisons the caches: a
    /// cancelled run inserts nothing, and a run that completes is
    /// byte-identical to one without a token.
    ///
    /// # Errors
    ///
    /// [`Error::Cancelled`] when the token trips mid-run;
    /// [`Error::UnknownPage`] as for [`Engine::run`].
    pub fn run_with_cancel(&self, task: &Task, cancel: &CancelToken) -> Result<RunResult, Error> {
        if cancel.is_cancelled() {
            return Err(Error::Cancelled);
        }
        if let Some(cached) = self.caches.results.get(task) {
            return Ok(cached);
        }
        let result = self
            .prepare(task)?
            .synthesize_cancellable(cancel)?
            .select()
            .finish();
        Ok(self.caches.results.insert(task.clone(), result))
    }
}

/// Stage 1 output: resolved pages, precomputed examples, query context.
///
/// This is where the interactive-labeling loop lives: call
/// [`suggest_labels`](Prepared::suggest_labels), move the chosen pages
/// into the labeled set with [`label`](Prepared::label), then
/// [`synthesize`](Prepared::synthesize); [`Synthesized::refine`] returns
/// here for the next round.
#[derive(Debug)]
pub struct Prepared<'e> {
    engine: &'e Engine,
    ctx: QueryContext,
    examples: Vec<Example>,
    unlabeled: Vec<Arc<PageTree>>,
    /// Store handles of `unlabeled`, aligned — kept so a page moved into
    /// the labeled set by [`Prepared::label`] stays feature-cacheable.
    unlabeled_ids: Vec<PageId>,
    /// Feature/mask tables aligned with `examples` (empty in
    /// reference-kernel mode, where the search computes definitionally).
    features: Vec<Arc<PageFeatures>>,
}

impl<'e> Prepared<'e> {
    /// One page's feature table, through the engine's feature LRU; a
    /// miss computes the whole table.
    fn fetch_features(&self, id: PageId, page: &Arc<PageTree>) -> Arc<PageFeatures> {
        let (cfg, ctx) = (&self.engine.config.synth, &self.ctx);
        let key = (id, ctx.question().to_owned(), ctx.keywords().to_vec());
        self.engine.caches.features.get_or_insert_with(key, || {
            let base = PageBaseFeatures::compute(ctx, page);
            Arc::new(PageFeatures::compute_with_base(cfg, ctx, page, &base))
        })
    }
    /// The query context (modality already applied).
    pub(crate) fn context(&self) -> &QueryContext {
        &self.ctx
    }

    /// The synthesis examples (labeled pages, pre-tokenized).
    pub fn examples(&self) -> &[Example] {
        &self.examples
    }

    /// The unlabeled target pages (shared handles).
    pub(crate) fn unlabeled(&self) -> &[Arc<PageTree>] {
        &self.unlabeled
    }

    /// Section 7: suggests up to `k` (≤ 5) diverse *unlabeled* pages to
    /// label next, returning indices into the unlabeled pages.
    pub fn suggest_labels(&self, k: usize) -> Vec<usize> {
        crate::labeling::suggest_labels(&self.ctx, &self.unlabeled, k)
    }

    /// Moves unlabeled page `index` into the labeled set with the given
    /// gold strings (the "user answers a label request" step of the
    /// interactive loop). Later unlabeled indices shift down by one.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range — indices come from
    /// [`suggest_labels`](Prepared::suggest_labels) against the current
    /// unlabeled set.
    pub fn label(&mut self, index: usize, gold: Vec<String>) {
        let page = self.unlabeled.remove(index);
        let id = self.unlabeled_ids.remove(index);
        if !self.engine.config.synth.reference_kernels {
            self.features.push(self.fetch_features(id, &page));
        }
        self.examples.push(Example::new(page, gold));
    }

    /// Stage 2: synthesizes **all** optimal programs on the current
    /// labeled set (Section 5), reusing the prepared (possibly
    /// cache-borrowed) feature tables.
    pub fn synthesize(self) -> Synthesized<'e> {
        self.synthesize_cancellable(&CancelToken::never())
            .expect("a never-token cannot cancel")
    }

    /// [`Prepared::synthesize`] under a cooperative [`CancelToken`]
    /// (checked once per guard step of the enumerative search).
    ///
    /// # Errors
    ///
    /// [`Error::Cancelled`] when the token trips mid-search; no partial
    /// outcome is exposed.
    pub(crate) fn synthesize_cancellable(
        self,
        cancel: &CancelToken,
    ) -> Result<Synthesized<'e>, Error> {
        let outcome = synthesize_cancellable(
            &self.engine.config.synth,
            &self.ctx,
            &self.examples,
            &self.features,
            cancel,
        )
        .map_err(|_| Error::Cancelled)?;
        Ok(Synthesized {
            prepared: self,
            outcome,
        })
    }
}

/// Stage 2 output: the full synthesis outcome over the prepared task.
#[derive(Debug)]
pub struct Synthesized<'e> {
    prepared: Prepared<'e>,
    outcome: SynthesisOutcome,
}

impl<'e> Synthesized<'e> {
    /// All optimal programs plus search statistics.
    pub fn outcome(&self) -> &SynthesisOutcome {
        &self.outcome
    }

    /// The optimal training F₁.
    pub fn train_f1(&self) -> f64 {
        self.outcome.f1
    }

    /// The query context of the prepared task (modality already applied).
    pub fn context(&self) -> &QueryContext {
        self.prepared.context()
    }

    /// The unlabeled target pages of the prepared task (shared handles).
    pub fn unlabeled(&self) -> &[Arc<PageTree>] {
        self.prepared.unlabeled()
    }

    /// Back to stage 1 with the synthesis result discarded — the
    /// re-labeling step of the interactive loop (label more pages, then
    /// synthesize again).
    pub fn refine(self) -> Prepared<'e> {
        self.prepared
    }

    /// Stage 3: selects one program per the engine's
    /// [`Selection`] strategy — transductively against the unlabeled
    /// pages (Section 6) by default — keeping the ensemble for
    /// diagnostics.
    pub fn select(self) -> Selected<'e> {
        let cfg = &self.prepared.engine.config;
        let (program, ensemble) = match cfg.strategy {
            Selection::Transductive => {
                let ensemble = Ensemble::sample(
                    &self.prepared.ctx,
                    &self.outcome.programs,
                    &self.prepared.unlabeled,
                    cfg.selection.ensemble_size,
                    cfg.selection.seed,
                );
                let program = ensemble.as_ref().and_then(|e| {
                    select_from_ensemble(e).map(|i| self.outcome.programs[i].clone())
                });
                (program, ensemble)
            }
            Selection::Random => (
                select_random(&self.outcome.programs, cfg.selection.seed),
                None,
            ),
            Selection::Shortest => (
                select_shortest(&self.outcome.programs, cfg.selection.seed),
                None,
            ),
        };
        Selected {
            prepared: self.prepared,
            outcome: self.outcome,
            program,
            ensemble,
        }
    }
}

/// Stage 3 output: the selected program plus ensemble diagnostics.
#[derive(Debug)]
pub struct Selected<'e> {
    prepared: Prepared<'e>,
    outcome: SynthesisOutcome,
    program: Option<Program>,
    ensemble: Option<Ensemble>,
}

impl Selected<'_> {
    /// The selected program (`None` when synthesis found nothing).
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The synthesis outcome this selection drew from.
    pub fn outcome(&self) -> &SynthesisOutcome {
        &self.outcome
    }

    /// The transductive ensemble, for diagnostics (its behaviour groups,
    /// [`Ensemble::agreement`], [`Ensemble::distinct_behaviours`]). `None`
    /// under the `Random`/`Shortest` strategies or when synthesis found
    /// nothing.
    pub fn ensemble(&self) -> Option<&Ensemble> {
        self.ensemble.as_ref()
    }

    /// Stage 4: runs the selected program on every unlabeled page,
    /// aligned with the task's `unlabeled` order. Empty answer lists
    /// when no program was selected.
    pub fn answers(&self) -> Vec<Vec<String>> {
        match &self.program {
            Some(p) => self
                .prepared
                .unlabeled
                .iter()
                .map(|page| p.eval(&self.prepared.ctx, page))
                .collect(),
            None => vec![Vec::new(); self.prepared.unlabeled.len()],
        }
    }

    /// Collapses the staged run into the one-shot [`RunResult`], dropping
    /// the optimal-program list.
    pub(crate) fn finish(self) -> RunResult {
        let answers = self.answers();
        RunResult {
            program: self.program,
            train_f1: self.outcome.f1,
            counts: self.outcome.counts,
            total_optimal: self.outcome.total_optimal,
            stats: self.outcome.stats,
            answers,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use webqa_synth::SynthConfig;

    fn engine_with_pages() -> (Engine, PageId, PageId, PageId) {
        let mut engine = Engine::new(Config {
            synth: SynthConfig::fast(),
            ..Config::default()
        });
        let a = engine
            .store_mut()
            .insert_html("<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>")
            .unwrap();
        let b = engine
            .store_mut()
            .insert_html("<h1>B</h1><h2>PhD Students</h2><ul><li>Mary Anderson</li></ul>")
            .unwrap();
        let c = engine
            .store_mut()
            .insert_html("<h1>C</h1><h2>Advisees</h2><ul><li>Wei Chen</li></ul>")
            .unwrap();
        (engine, a, b, c)
    }

    fn task(a: PageId, b: PageId, c: PageId) -> Task {
        Task::new("Who are the current PhD students?", ["Students", "PhD"])
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_label(b, vec!["Mary Anderson".into()])
            .with_target(c)
    }

    #[test]
    fn staged_run_matches_one_shot_run() {
        let (engine, a, b, c) = engine_with_pages();
        let t = task(a, b, c);
        let staged = engine.prepare(&t).unwrap().synthesize().select().finish();
        let one_shot = engine.run(&t).unwrap();
        assert_eq!(staged.program, one_shot.program);
        assert_eq!(staged.answers, one_shot.answers);
        assert!(staged.answers[0].iter().any(|s| s.contains("Wei Chen")));
    }

    #[test]
    fn prepared_examples_share_the_store_arcs() {
        let (engine, a, b, c) = engine_with_pages();
        let prepared = engine.prepare(&task(a, b, c)).unwrap();
        // Zero deep clones: the example page *is* the interned page.
        assert!(Arc::ptr_eq(
            &prepared.examples()[0].page,
            engine.store().get(a).unwrap()
        ));
        assert!(Arc::ptr_eq(
            &prepared.unlabeled()[0],
            engine.store().get(c).unwrap()
        ));
    }

    #[test]
    fn foreign_page_id_is_a_typed_error() {
        let (engine, a, _, _) = engine_with_pages();
        let bad = Task::new("Who?", ["K"])
            .with_label(a, vec!["Jane Doe".into()])
            .with_target(PageId::forged(99));
        assert_eq!(
            engine.run(&bad).unwrap_err(),
            Error::UnknownPage(PageId::forged(99))
        );
    }

    #[test]
    fn labeling_loop_moves_pages_between_sets() {
        let (engine, a, b, c) = engine_with_pages();
        // Start with one label; b and c are targets.
        let t = Task::new("Who are the current PhD students?", ["Students", "PhD"])
            .with_label(a, vec!["Jane Doe".into(), "Bob Smith".into()])
            .with_target(b)
            .with_target(c);
        let first = engine.prepare(&t).unwrap().synthesize();
        let f1_before = first.train_f1();

        let mut prepared = first.refine();
        let suggestions = prepared.suggest_labels(1);
        assert_eq!(suggestions.len(), 1);
        let idx = suggestions[0];
        let gold = if idx == 0 {
            vec!["Mary Anderson".to_string()]
        } else {
            vec!["Wei Chen".to_string()]
        };
        prepared.label(idx, gold);
        assert_eq!(prepared.examples().len(), 2);
        assert_eq!(prepared.unlabeled().len(), 1);

        let second = prepared.synthesize();
        assert!(
            second.train_f1() + 1e-9 >= f1_before,
            "train F1 regressed: {} -> {}",
            f1_before,
            second.train_f1()
        );
    }

    #[test]
    fn ensemble_diagnostics_only_for_transductive() {
        let (engine, a, b, c) = engine_with_pages();
        let t = task(a, b, c);
        let selected = engine.prepare(&t).unwrap().synthesize().select();
        assert!(selected.ensemble().is_some());
        assert!(selected.ensemble().unwrap().agreement() > 0.0);

        // Cloning the store into an engine with another config keeps the
        // ids valid.
        let random = Engine::with_store(
            Config {
                strategy: Selection::Random,
                ..engine.config().clone()
            },
            engine.store().clone(),
        );
        let selected = random.prepare(&t).unwrap().synthesize().select();
        assert!(selected.ensemble().is_none());
        assert!(selected.program().is_some());
    }

    #[test]
    fn repeat_queries_hit_the_cross_request_caches() {
        let (engine, a, b, c) = engine_with_pages();
        let t = task(a, b, c);
        let first = engine.run(&t).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.feature_hits, 0);
        assert_eq!(stats.feature_misses, 2, "two labeled pages, two tables");
        assert_eq!(stats.result_hits, 0);
        assert_eq!(stats.result_misses, 1);

        // The identical repeat is a result-cache hit with an identical
        // payload.
        let second = engine.run(&t).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.result_hits, 1);
        assert_eq!(second.program, first.program);
        assert_eq!(second.answers, first.answers);
        assert_eq!(second.stats, first.stats);

        // A *different* task over the same labeled pages misses the
        // result cache but reuses both feature tables.
        let variant = task(a, b, c).with_target(b);
        let _ = engine.run(&variant).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.result_hits, 1);
        assert_eq!(stats.result_misses, 2);
        assert_eq!(stats.feature_hits, 2);
        assert_eq!(stats.feature_misses, 2);
    }

    #[test]
    fn an_engine_over_a_shared_store_starts_with_cold_caches() {
        // The store is shared by clone; the caches are the engine's own
        // and nothing else carries them over.
        let (warm, a, b, c) = engine_with_pages();
        let t = task(a, b, c);
        let first = warm.run(&t).unwrap();
        let fresh = Engine::with_store(warm.config().clone(), warm.store().clone());
        let again = fresh.run(&t).unwrap();
        let stats = fresh.cache_stats();
        assert_eq!((stats.result_hits, stats.result_misses), (0, 1));
        assert_eq!((stats.feature_hits, stats.feature_misses), (0, 2));
        assert_eq!(again.program, first.program);
        assert_eq!(again.answers, first.answers);
    }

    #[test]
    fn query_tier_never_shares_across_questions_or_keywords() {
        let (engine, a, _, _) = engine_with_pages();
        let query = |question: &str, keywords: &[&str]| {
            Task::new(question, keywords.iter().copied()).with_label(a, vec!["Jane Doe".into()])
        };
        let contexts = [
            query("Who?", &["Students"]),
            query("Who else?", &["Students"]),
            query("Who?", &["PhD"]),
            query("Who?", &["Students", "PhD"]),
        ];
        for t in &contexts {
            engine.prepare(t).unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.feature_hits, stats.feature_misses), (0, 4));
        engine.prepare(&contexts[0]).unwrap();
        assert_eq!(engine.cache_stats().feature_hits, 1);
    }

    #[test]
    fn feature_capacity_is_exact_per_tier() {
        let (engine, a, b, c) = engine_with_pages();
        let one = Engine::with_store(
            Config {
                cache: crate::CacheConfig {
                    feature_capacity: 1,
                    result_capacity: 0,
                },
                ..engine.config().clone()
            },
            engine.store().clone(),
        );
        // Two labeled pages through a one-table LRU: the second table
        // evicts the first, and only the second stays resident.
        let t = task(a, b, c);
        one.prepare(&t).unwrap();
        let stats = one.cache_stats();
        assert_eq!((stats.feature_misses, stats.feature_evictions), (2, 1));
        let only =
            |page| Task::new(t.question.clone(), t.keywords.clone()).with_label(page, vec![]);
        one.prepare(&only(b)).unwrap();
        assert_eq!(one.cache_stats().feature_hits, 1);
        one.prepare(&only(a)).unwrap();
        let stats = one.cache_stats();
        assert_eq!((stats.feature_misses, stats.feature_evictions), (3, 2));
    }

    #[test]
    fn disabled_caches_still_compute_identical_results() {
        let (cached, a, b, c) = engine_with_pages();
        let cold = Engine::with_store(
            Config {
                cache: crate::CacheConfig::disabled(),
                ..cached.config().clone()
            },
            cached.store().clone(),
        );
        // Reuse the same engine twice vs a cache-disabled twin.
        let t = task(a, b, c);
        let warm = {
            let _ = cached.run(&t).unwrap();
            cached.run(&t).unwrap()
        };
        let reference = cold.run(&t).unwrap();
        assert_eq!(warm.program, reference.program);
        assert_eq!(warm.answers, reference.answers);
        assert_eq!(warm.train_f1, reference.train_f1);
        assert_eq!(warm.counts, reference.counts);
        assert_eq!(warm.stats, reference.stats);
        assert_eq!(cold.cache_stats().result_hits, 0);
        assert_eq!(cold.cache_stats().feature_hits, 0);
    }

    #[test]
    fn cancelled_runs_are_typed_errors_and_never_poison_the_caches() {
        let (engine, a, b, c) = engine_with_pages();
        let t = task(a, b, c);

        // Pre-tripped token: no work, no cache traffic.
        let pre = CancelToken::never();
        pre.cancel();
        assert_eq!(
            engine.run_with_cancel(&t, &pre).unwrap_err(),
            Error::Cancelled
        );
        assert_eq!(engine.cache_stats().result_misses, 0);

        // Mid-run trip (deterministic step budget): typed error, and the
        // aborted run cached nothing — the later full run still misses.
        let mid = CancelToken::with_step_budget(3);
        assert_eq!(
            engine.run_with_cancel(&t, &mid).unwrap_err(),
            Error::Cancelled
        );
        let full = engine.run(&t).unwrap();
        assert_eq!(engine.cache_stats().result_hits, 0);

        // The post-cancel result is byte-identical to a cold engine's.
        let cold = Engine::with_store(engine.config().clone(), engine.store().clone());
        let reference = cold.run(&t).unwrap();
        assert_eq!(full.program, reference.program);
        assert_eq!(full.answers, reference.answers);
        assert_eq!(full.stats, reference.stats);

        // A generous deadline never trips: identical to the plain run.
        let relaxed = engine
            .run_with_cancel(
                &t,
                &CancelToken::after(std::time::Duration::from_secs(3600)),
            )
            .unwrap();
        assert_eq!(relaxed.program, full.program);
        assert_eq!(relaxed.answers, full.answers);
    }

    #[test]
    fn empty_labels_yield_no_program_not_a_panic() {
        let (engine, _, _, c) = engine_with_pages();
        let t = Task::new("Who?", ["K"]).with_target(c);
        let result = engine.run(&t).unwrap();
        assert!(result.program.is_none());
        assert_eq!(result.answers, vec![Vec::<String>::new()]);
    }
}
