//! `batch_cold`: the paper's own workload. All 25 corpus tasks run
//! in-process through `webqa::Engine` with `Config::default()`, a fresh
//! engine (empty caches) per task, so synthesis, selection and feature
//! construction do the work and no cache, queue or wire is involved.
//!
//! One pass runs every task once; the window repeats whole passes, so
//! every pass does identical work and its counters must repeat exactly.

use std::time::Instant;

use webqa::{score_answers, Config, Engine, PageId, PageStore, QueryContext, Task};
use webqa_corpus::{Corpus, Domain, TASKS};
use webqa_synth::{PageBaseFeatures, PageFeatures, SynthStats};

use crate::trace::Tracer;
use crate::{mean, median, percentile, Args, Report, SetupSamples};

/// Pages generated per domain and labeled pages per task: few labels,
/// many unlabeled pages for transductive selection.
pub const PAGES: usize = 8;
pub const TRAIN: usize = 3;
/// The corpus is fixed, so every run does the same work and its counts
/// and F1 repeat exactly; the workload seed orders the tasks (and, for
/// the serve workloads, draws the request mix).
pub const CORPUS_SEED: u64 = 42;
/// Set-ups measured before the window; one more follows every task of
/// the window (the median of all is reported).
const MIN_SETUPS: usize = 15;

/// The corpus interned into one store, plus each task's split.
pub struct Prepared {
    pub store: PageStore,
    pub tasks: Vec<(Task, Vec<Vec<String>>)>,
}

/// Generates the corpus for `seed` and interns every page with
/// `PageStore::insert_html` (a span per page when tracing).
pub fn set_up(tracer: &mut Tracer) -> Result<Prepared, String> {
    let corpus = Corpus::generate(PAGES, CORPUS_SEED);
    let mut store = PageStore::new();
    let mut ids: Vec<(Domain, Vec<PageId>)> = Vec::new();
    for (req, &domain) in Domain::ALL.iter().enumerate() {
        let mut domain_ids = Vec::new();
        for page in corpus.pages(domain) {
            let id = tracer
                .time("store.insert_html", req as u64, || {
                    store.insert_html(&page.html)
                })
                .map_err(|e| format!("corpus page {} does not parse: {e}", page.name))?;
            domain_ids.push(id);
        }
        ids.push((domain, domain_ids));
    }
    let tasks = TASKS
        .iter()
        .map(|t| {
            let pages = corpus.pages(t.domain);
            let domain_ids = &ids
                .iter()
                .find(|(d, _)| *d == t.domain)
                .expect("all domains")
                .1;
            let task = Task::from_id_split(
                t.question,
                t.keywords.iter().copied(),
                domain_ids,
                TRAIN,
                |i| pages[i].gold(t.id).to_vec(),
            );
            let gold = pages[TRAIN.min(pages.len())..]
                .iter()
                .map(|p| p.gold(t.id).to_vec())
                .collect();
            (task, gold)
        })
        .collect();
    Ok(Prepared { store, tasks })
}

/// Times `PageStore::insert_html` (parse and intern) on every corpus
/// page, for the traced runs of every workload.
pub fn parse_layer(report: &mut Report, tracer: &mut Tracer) {
    let mut spans = Tracer::new(true);
    if set_up(&mut spans).is_ok() {
        report.layer(
            "html.parse_ms_per_page",
            mean(&spans.durations("store.insert_html")),
        );
        tracer.absorb(spans);
    }
}

/// What one pass over the 25 tasks produced.
#[derive(Default, PartialEq)]
struct PassCounts {
    stats: SynthStats,
    programs: usize,
    groups: usize,
    f1: Vec<u64>,
}

/// Runs one task through the staged pipeline
/// (`prepare → synthesize → select → answers`) on a fresh engine.
/// Returns the task wall time in ms and the test F1.
fn run_task(
    prepared: &Prepared,
    index: usize,
    tracer: &mut Tracer,
    counts: &mut PassCounts,
) -> Result<(f64, f64), String> {
    let (task, gold) = &prepared.tasks[index];
    let req = index as u64;
    let engine = Engine::with_store(Config::default(), prepared.store.clone());
    let start = Instant::now();
    let span = tracer.begin("task", req);
    let staged = tracer.time("engine.prepare", req, || engine.prepare(task));
    let staged = staged.map_err(|e| format!("{}: {e}", TASKS[index].id))?;
    let synthesized = tracer.time("synth.synthesize", req, || staged.synthesize());
    let selected = tracer.time("select.select", req, || synthesized.select());
    let answers = tracer.time("answers.eval", req, || selected.answers());
    tracer.end(span);
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let outcome = selected.outcome();
    counts.stats += outcome.stats;
    counts.programs += outcome.programs.len();
    counts.groups += selected.ensemble().map_or(0, |e| e.groups().len());
    let f1 = score_answers(&answers, gold)
        .map_err(|e| format!("{}: {e}", TASKS[index].id))?
        .f1;
    counts.f1.push(f1.to_bits());

    // Twins of the feature work `prepare` does inside the engine, timed
    // outside the task span so the task's own time is not inflated.
    if tracer.on() {
        // `Config::default()` uses both modalities: question and keywords.
        let ctx = QueryContext::new(&task.question, task.keywords.clone());
        let synth_cfg = &engine.config().synth;
        for (id, _) in &task.labeled {
            let page = engine.store().get(*id).map_err(|e| e.to_string())?;
            let base = tracer.time("synth.base_features", req, || {
                PageBaseFeatures::compute(&ctx, page)
            });
            tracer.time("synth.query_features", req, || {
                PageFeatures::compute_with_base(synth_cfg, &ctx, page, &base)
            });
        }
    }
    Ok((wall_ms, f1))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    report.knob("pages_per_domain", PAGES);
    report.knob("train", TRAIN);
    report.knob("corpus_seed", CORPUS_SEED);
    report.knob(
        "config_digest",
        crate::digest(&format!("{:?}", Config::default())),
    );

    // Set-up: corpus generation plus parsing and interning every page. A
    // burst before the window, then one more after every task of the
    // window (outside the task's time), so the samples spread over the
    // run.
    let mut setups = SetupSamples::default();
    let prepared = match setups.burst(MIN_SETUPS, 0.0, || set_up(&mut Tracer::new(false))) {
        Ok(p) => p,
        Err(e) => {
            report.check("setup", false, e);
            report.attempted = 1;
            report.failed = 1;
            return report;
        }
    };
    if tracer.on() {
        parse_layer(&mut report, tracer);
    }
    crate::reset_peak_rss(&mut report);

    // Timed window: whole passes until the budget is spent. A traced run
    // alternates untraced and traced passes so the trace overhead is
    // measured on the same work.
    let mut order: Vec<usize> = (0..prepared.tasks.len()).collect();
    crate::Rng::new(args.seed).shuffle(&mut order);
    let window = Instant::now();
    let mut task_ms: Vec<Vec<f64>> = vec![Vec::new(); prepared.tasks.len()];
    let mut pass_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut first: Option<PassCounts> = None;
    let mut f1s = Vec::new();
    let mut repeats = true;
    let mut pass = 0usize;
    let min_passes = if tracer.on() { 2 } else { 1 };
    // Whole passes, as many as fit the window best: another pass starts
    // only if it is expected to end nearer the deadline than stopping now.
    while pass < min_passes
        || window.elapsed().as_secs_f64() * (pass as f64 + 0.5) / pass as f64 <= args.seconds
    {
        let traced = tracer.on() && pass % 2 == 1;
        let mut pass_tracer = Tracer::new(traced);
        let mut counts = PassCounts::default();
        let mut this_pass = 0.0;
        f1s.clear();
        for &index in &order {
            report.attempted += 1;
            match run_task(&prepared, index, &mut pass_tracer, &mut counts) {
                Ok((ms, f1)) => {
                    this_pass += ms;
                    if !traced {
                        task_ms[index].push(ms);
                    }
                    f1s.push((index, f1));
                }
                Err(e) => {
                    report.failed += 1;
                    report.check("task_ran", false, e);
                }
            }
            if let Err(e) = setups.burst(1, 0.0, || set_up(&mut Tracer::new(false))) {
                report.check("setup", false, e);
            }
        }
        pass_ms[usize::from(traced)].push(this_pass);
        match &first {
            None => first = Some(counts),
            Some(f) => repeats &= *f == counts,
        }
        if traced {
            tracer.absorb(pass_tracer);
        }
        pass += 1;
    }
    report.e2e("peak_rss_mb", crate::peak_rss_mb());
    setups.report(&mut report);
    let counts = first.expect("at least one pass ran");
    report.check(
        "counts_repeat",
        repeats,
        format!("{pass} passes; SynthStats sums and per-task F1 identical across passes"),
    );
    // Summed in corpus order, so the figure repeats to the last digit
    // whatever order the seed ran the tasks in.
    f1s.sort_by_key(|&(index, _)| index);
    let f1_macro = mean(&f1s.iter().map(|&(_, f1)| f1).collect::<Vec<_>>());
    report.check(
        "test_f1_scored",
        f1s.len() == TASKS.len(),
        format!(
            "{} of {} tasks scored against corpus gold",
            f1s.len(),
            TASKS.len()
        ),
    );

    // A task's time is its median over the untraced passes, which damps
    // a pass that a busy machine slowed; throughput and percentiles are
    // taken over these.
    let task_ms: Vec<f64> = task_ms
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let tasks_per_s = task_ms.len() as f64 / (task_ms.iter().sum::<f64>() / 1e3);
    let (p50, p90, p99) = (
        percentile(&task_ms, 0.5),
        percentile(&task_ms, 0.9),
        percentile(&task_ms, 0.99),
    );
    report.e2e("tasks_per_s", tasks_per_s);
    report.e2e("task_p50_ms", p50);
    report.e2e("task_p90_ms", p90);
    report.e2e("test_f1_macro", f1_macro);
    // A task is this workload's request, and every task is answered: the
    // request-level names read the task-level figures.
    report.e2e("req_per_s", tasks_per_s);
    report.e2e("goodput_rps", tasks_per_s);
    report.e2e("lat_p50_ms", p50);
    report.e2e("lat_p90_ms", p90);
    report.e2e("lat_p99_ms", p99);
    report.knob(
        "counts",
        format!(
            "guards={} loc_exp={} loc_pruned={} ext_enum={} ext_pruned={} analysis_pruned={} memo={} loc_memo={} programs={} groups={} f1_macro={f1_macro}",
            counts.stats.guards_yielded,
            counts.stats.locators_expanded,
            counts.stats.locators_pruned,
            counts.stats.extractors_enumerated,
            counts.stats.extractors_pruned,
            analysis_pruned(&counts.stats),
            counts.stats.memo_hits,
            counts.stats.locator_memo_hits,
            counts.programs,
            counts.groups,
        ),
    );

    if tracer.on() {
        layers(&mut report, tracer, &counts, &pass_ms);
    }
    report
}

fn analysis_pruned(s: &SynthStats) -> usize {
    s.analysis_pruned_guards + s.analysis_pruned_locators + s.analysis_pruned_extractors
}

fn layers(report: &mut Report, tracer: &Tracer, counts: &PassCounts, pass_ms: &[Vec<f64>; 2]) {
    let per_task = |name: &str| mean(&tracer.durations(name));
    report.layer("engine.prepare_ms", per_task("engine.prepare"));
    report.layer("synth.synthesize_ms", per_task("synth.synthesize"));
    report.layer("select.select_ms", per_task("select.select"));
    report.layer("answers.eval_ms", per_task("answers.eval"));
    // Twins run once per labeled page; report them per task.
    let tasks = tracer.durations("task").len().max(1) as f64;
    let total = |name: &str| tracer.durations(name).iter().sum::<f64>();
    report.layer(
        "synth.base_features_ms",
        total("synth.base_features") / tasks,
    );
    report.layer(
        "synth.query_features_ms",
        total("synth.query_features") / tasks,
    );

    let s = &counts.stats;
    report.layer("synth.guards_yielded", s.guards_yielded as f64);
    report.layer("synth.locators_expanded", s.locators_expanded as f64);
    report.layer("synth.locators_pruned", s.locators_pruned as f64);
    report.layer(
        "synth.extractors_enumerated",
        s.extractors_enumerated as f64,
    );
    report.layer("synth.extractors_pruned", s.extractors_pruned as f64);
    report.layer("synth.analysis_pruned", analysis_pruned(s) as f64);
    report.layer("synth.memo_hits", s.memo_hits as f64);
    report.layer("synth.locator_memo_hits", s.locator_memo_hits as f64);
    report.layer("synth.programs", counts.programs as f64);
    // Base: every candidate the search touched, scored or pruned.
    let pruned = (s.locators_pruned + s.extractors_pruned + analysis_pruned(s)) as f64;
    report.layer("synth.prune_ratio", pruned / (pruned + s.work() as f64));
    report.layer("select.behaviour_groups", counts.groups as f64);
    report.layer(
        "select.dedup_ratio",
        counts.groups as f64 / counts.programs.max(1) as f64,
    );
    report.layer("trace.task_coverage_min", tracer.min_coverage("task"));
    report.layer(
        "bench.trace_overhead",
        median(&pass_ms[1]) / median(&pass_ms[0]) - 1.0,
    );
    let coverage = tracer.min_coverage("task");
    report.check(
        "stage_spans_cover_tasks",
        coverage >= 0.99,
        format!("prepare+synthesize+select+answers cover >= {coverage:.4} of every task"),
    );
}
