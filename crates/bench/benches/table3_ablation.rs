//! **Table 3** — "Results of the ablation study": average synthesis time
//! of WebQA vs the `NoPrune` and `NoDecomp` ablations, and the speedups.
//!
//! All variants synthesize the same optimal programs; only search time
//! differs (Section 8.2: pruning buys ~3.6x, decomposition ~2.4x).
//!
//! Regenerate with:
//! `cargo bench -p webqa-bench --bench table3_ablation`
//!
//! `WEBQA_ABLATION_TASKS` (default 8) controls how many tasks are timed
//! (two per domain by default — the ablations are deliberately slow, that
//! is the point of the table).

use std::time::{Duration, Instant};

use webqa_bench::Setup;
use webqa_corpus::{task_by_id, Task};
use webqa_dsl::QueryContext;
use webqa_synth::{synthesize, Example, SynthConfig};

const DEFAULT_TASKS: [&str; 8] = [
    "fac_t5",
    "conf_t2",
    "class_t2",
    "clinic_t4",
    "fac_t1",
    "conf_t4",
    "class_t5",
    "clinic_t1",
];

fn time_synthesis(setup: &Setup, task: &Task, cfg: &SynthConfig) -> (Duration, f64, usize) {
    let data = setup.dataset(task);
    let ctx = QueryContext::new(task.question, task.keywords.to_vec());
    let examples: Vec<Example> = data
        .train
        .iter()
        .map(|p| Example::new(p.page.clone(), p.gold.clone()))
        .collect();
    let start = Instant::now();
    let out = synthesize(cfg, &ctx, &examples);
    (start.elapsed(), out.f1, out.stats.work())
}

fn main() {
    let setup = Setup::from_env();
    let n_tasks: usize = std::env::var("WEBQA_ABLATION_TASKS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let tasks: Vec<&Task> = DEFAULT_TASKS
        .iter()
        .take(n_tasks)
        .map(|id| task_by_id(id).expect("known id"))
        .collect();

    println!(
        "# Table 3: synthesis-time ablation over {} tasks\n",
        tasks.len()
    );

    let variants: [(&str, SynthConfig); 4] = [
        ("WebQA", SynthConfig::fast()),
        ("WebQA-NoPrune", SynthConfig::fast().without_pruning()),
        (
            "WebQA-NoDecomp",
            SynthConfig::fast().without_decomposition(),
        ),
        // This repo's extra ablation of the lazy guard enumeration the
        // paper credits for pruning power (see the doc of
        // `SynthConfig::without_lazy_guards`).
        ("WebQA-NoLazy", SynthConfig::fast().without_lazy_guards()),
    ];

    let mut totals = [Duration::ZERO; 4];
    let mut work = [0usize; 4];
    for task in &tasks {
        for (i, (name, cfg)) in variants.iter().enumerate() {
            let (dt, f1, w) = time_synthesis(&setup, task, cfg);
            totals[i] += dt;
            work[i] += w;
            eprintln!(
                "  {:<10} {:<15} {:>8.2?}  trainF1={:.2}  work={}",
                task.id, name, dt, f1, w
            );
        }
    }

    let base = totals[0].as_secs_f64() / tasks.len() as f64;
    println!(
        "{:<16} {:>12} {:>12} {:>14}",
        "Technique", "Avg time (s)", "Avg Speedup", "Search work"
    );
    for (i, (name, _)) in variants.iter().enumerate() {
        let avg = totals[i].as_secs_f64() / tasks.len() as f64;
        let speedup = if i == 0 {
            "-".to_string()
        } else {
            format!("{:.1}", avg / base)
        };
        println!(
            "{:<16} {:>12.2} {:>12} {:>14}",
            name,
            avg,
            speedup,
            work[i] / tasks.len()
        );
    }
    println!("\n# paper (Table 3): WebQA 419s | NoPrune 1351s (3.6x) | NoDecomp 931s (2.4x)");
    println!("# (NoLazy is this repo's extra ablation — not in the paper's table.)");
    println!("# expected shape: both ablations are multiples slower at identical F1;");
    println!("# absolute times differ (simulated NLP modules are far cheaper than BERT).");
}
