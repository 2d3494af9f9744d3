//! Building a provider directory: extract doctors, accepted insurance
//! plans, and locations from heterogeneous clinic websites — three tasks
//! over the same page set, interned once and run one after another
//! ([`Engine::run`]) against the shared handles.
//!
//! ```text
//! cargo run --example clinic_directory
//! ```

use webqa::{score_answers, Config, Engine, Task};
use webqa_corpus::{task_by_id, Corpus, Domain};

/// One directory row: clinic name, phones, hours, services.
type DirectoryRow = (String, Vec<String>, Vec<String>, Vec<String>);

const TASK_IDS: [&str; 3] = ["clinic_t1", "clinic_t4", "clinic_t5"];
const TRAIN: usize = 4;

fn main() {
    let corpus = Corpus::generate(12, 99);
    let clinic_pages = corpus.pages(Domain::Clinic);
    println!(
        "Building a clinic directory from {} pages\n",
        clinic_pages.len()
    );

    // Intern the clinic pages once; all three tasks share the handles.
    let mut engine = Engine::new(Config::default());
    let ids: Vec<_> = clinic_pages
        .iter()
        .map(|p| engine.store_mut().insert_tree(p.tree()))
        .collect();
    assert_eq!(engine.store().len(), clinic_pages.len());

    let tasks: Vec<&'static webqa_corpus::Task> = TASK_IDS
        .iter()
        .map(|id| task_by_id(id).expect("task exists"))
        .collect();
    let specs: Vec<Task> = tasks
        .iter()
        .map(|t| {
            Task::from_id_split(t.question, t.keywords.iter().copied(), &ids, TRAIN, |i| {
                clinic_pages[i].gold(t.id).to_vec()
            })
        })
        .collect();

    let results: Vec<_> = specs
        .iter()
        .map(|spec| engine.run(spec).expect("ids from this store"))
        .collect();

    let mut directory: Vec<DirectoryRow> = clinic_pages[TRAIN..]
        .iter()
        .map(|p| (p.name.clone(), Vec::new(), Vec::new(), Vec::new()))
        .collect();
    for (slot, (t, result)) in tasks.iter().zip(&results).enumerate() {
        let gold: Vec<_> = clinic_pages[TRAIN..]
            .iter()
            .map(|p| p.gold(t.id).to_vec())
            .collect();
        let score = score_answers(&result.answers, &gold).expect("aligned");
        println!("{}: {}", t.id, score);
        for (row, answers) in directory.iter_mut().zip(&result.answers) {
            match slot {
                0 => row.1 = answers.clone(),
                1 => row.2 = answers.clone(),
                _ => row.3 = answers.clone(),
            }
        }
    }

    println!("\n--- directory (first 3 clinics) ---");
    for (name, doctors, insurance, locations) in directory.iter().take(3) {
        println!("\n{name}");
        println!("  providers : {}", doctors.join(", "));
        println!("  insurance : {}", insurance.join(", "));
        println!("  locations : {}", locations.join(" | "));
    }
}
