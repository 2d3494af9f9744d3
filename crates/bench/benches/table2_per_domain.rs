//! **Table 2** — "Evaluation results for each baseline per domain":
//! precision / recall / F₁ of every tool, macro-averaged over the tasks
//! of each domain.
//!
//! Regenerate with:
//! `cargo bench -p webqa-bench --bench table2_per_domain`
//!
//! With `WEBQA_ASSERT_DIRECTIONAL=1` (the CI smoke setting) the run
//! *asserts* the paper's headline direction instead of only printing it:
//! WebQA's macro-averaged F₁ must strictly beat every baseline's.

use webqa_bench::{mean_scores, task_rows, Setup};
use webqa_corpus::Domain;

fn main() {
    let setup = Setup::from_env();
    println!("# Table 2: per-domain results (P / R / F1 per tool)\n");
    let rows = task_rows(&setup);

    println!(
        "{:<12} | {:^17} | {:^17} | {:^17} | {:^17}",
        "Domain", "WebQA", "BERTQA", "HYB", "EntExtract"
    );
    println!("{}", "-".repeat(88));
    for domain in Domain::ALL {
        let in_domain: Vec<_> = rows.iter().filter(|r| r.task.domain == domain).collect();
        let webqa = mean_scores(in_domain.iter().map(|r| &r.webqa).collect::<Vec<_>>());
        let bertqa = mean_scores(in_domain.iter().map(|r| &r.bertqa).collect::<Vec<_>>());
        let hyb = mean_scores(in_domain.iter().map(|r| &r.hyb).collect::<Vec<_>>());
        let ent = mean_scores(in_domain.iter().map(|r| &r.ent).collect::<Vec<_>>());
        println!(
            "{:<12} | {} | {} | {} | {}",
            domain.to_string(),
            webqa_bench::fmt_score(&webqa),
            webqa_bench::fmt_score(&bertqa),
            webqa_bench::fmt_score(&hyb),
            webqa_bench::fmt_score(&ent),
        );
    }
    if std::env::var("WEBQA_ASSERT_DIRECTIONAL").as_deref() == Ok("1") {
        let webqa = mean_scores(rows.iter().map(|r| &r.webqa).collect::<Vec<_>>());
        let bertqa = mean_scores(rows.iter().map(|r| &r.bertqa).collect::<Vec<_>>());
        let hyb = mean_scores(rows.iter().map(|r| &r.hyb).collect::<Vec<_>>());
        let ent = mean_scores(rows.iter().map(|r| &r.ent).collect::<Vec<_>>());
        for (name, baseline) in [("BERTQA", bertqa), ("HYB", hyb), ("EntExtract", ent)] {
            assert!(
                webqa.f1 > baseline.f1,
                "directional regression: WebQA F1 {:.3} must strictly beat {name} F1 {:.3}",
                webqa.f1,
                baseline.f1
            );
        }
        println!(
            "\n# directional assert OK: WebQA F1 {:.3} > BERTQA/HYB/EntExtract",
            webqa.f1
        );
    }

    println!("\n# paper (Table 2): Faculty    0.72/0.80/0.75 | 0.44/0.08/0.18 | 0.48/0.02/0.04 | 0.02/0.14/0.04");
    println!("#                  Conference 0.71/0.69/0.70 | 0.58/0.31/0.32 | 0.26/0.02/0.03 | 0.07/0.20/0.09");
    println!("#                  Class      0.63/0.77/0.68 | 0.55/0.26/0.31 | 0.18/0.04/0.04 | 0.04/0.09/0.05");
    println!("#                  Clinic     0.71/0.62/0.66 | 0.31/0.02/0.04 | 0.42/0.06/0.09 | 0.14/0.20/0.16");
    println!("# expected shape: WebQA leads every domain on F1.");
}
