//! **Table 6** — "Evaluation results for each baseline per task": the
//! full per-task breakdown behind Figure 12 / Table 2.
//!
//! Regenerate with:
//! `cargo bench -p webqa-bench --bench table6_per_task`

use webqa_bench::{fmt_score, task_rows, Setup};

fn main() {
    let setup = Setup::from_env();
    println!("# Table 6: per-task results (P R F1 per tool)\n");
    let rows = task_rows(&setup);

    println!(
        "{:<10} | {:^15} | {:^15} | {:^15} | {:^15}",
        "Task", "WebQA", "BERTQA", "HYB", "EntExtract"
    );
    println!("{}", "-".repeat(80));
    let mut domain = None;
    for r in &rows {
        if domain != Some(r.task.domain) {
            println!("--- {} ---", r.task.domain);
            domain = Some(r.task.domain);
        }
        println!(
            "{:<10} | {} | {} | {} | {}",
            r.task.id,
            fmt_score(&r.webqa),
            fmt_score(&r.bertqa),
            fmt_score(&r.hyb),
            fmt_score(&r.ent),
        );
    }
    println!("\n# compare with the paper's Table 6; the reproduced quantity is the");
    println!("# per-task ordering (WebQA ≥ baselines on nearly every row, with the");
    println!("# paper's two exceptions-style rows being single-fact QA tasks where");
    println!("# BERTQA is competitive, e.g. conf_t4/conf_t5).");
}
