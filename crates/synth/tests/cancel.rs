//! Cooperative-cancellation contract of `synthesize_cancellable`:
//!
//! * a pre-cancelled token aborts before any branch problem is even
//!   enumerated;
//! * a mid-run cancel returns within a bounded number of guard steps
//!   (the step-budget token makes the bound deterministic);
//! * a run that completes under a token is byte-identical to a run
//!   without one — cancellation plumbing is observationally invisible.

use std::time::{Duration, Instant};

use webqa_dsl::{PageTree, QueryContext};
use webqa_synth::{
    synthesize, synthesize_cancellable, CancelToken, Cancelled, Example, SynthConfig,
};

fn example(html: &str, gold: &[&str]) -> Example {
    Example::new(
        PageTree::parse(html),
        gold.iter().map(|s| s.to_string()).collect(),
    )
}

fn ctx() -> QueryContext {
    QueryContext::new("Who are the current PhD students?", ["Students", "PhD"])
}

/// A task with enough structure to take many guard steps: three example
/// pages with differing schemas, so several partitions and many guards
/// are enumerated.
fn examples() -> Vec<Example> {
    vec![
        example(
            "<h1>A</h1><h2>Students</h2><ul><li>Jane Doe</li><li>Bob Smith</li></ul>\
             <h2>News</h2><p>PLDI 2021</p>",
            &["Jane Doe", "Bob Smith"],
        ),
        example(
            "<h1>B</h1><h2>Group</h2><ul><li>Mary Anderson</li></ul>\
             <h2>Students</h2><p>none currently</p>",
            &["Mary Anderson"],
        ),
        example(
            "<h1>C</h1><h2>PhD Students</h2><ul><li>Wei Chen</li></ul>",
            &["Wei Chen"],
        ),
    ]
}

fn cfg() -> SynthConfig {
    let mut c = SynthConfig::fast();
    c.max_blocks = 2;
    c
}

#[test]
fn pre_cancelled_token_aborts_before_any_branch() {
    let token = CancelToken::never();
    token.cancel();
    let r = synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token);
    assert_eq!(r.unwrap_err(), Cancelled);
    // Only the entry checkpoint ran: no guard step — hence no branch
    // problem — was ever reached.
    assert_eq!(token.checks(), 1);
}

#[test]
fn zero_step_budget_is_pre_cancelled() {
    let token = CancelToken::with_step_budget(0);
    assert!(synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token).is_err());
    assert_eq!(token.checks(), 1);
}

#[test]
fn elapsed_deadline_aborts_before_any_branch() {
    let token = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
    assert!(synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token).is_err());
    assert_eq!(token.checks(), 1);
}

#[test]
fn mid_run_cancel_returns_within_a_bounded_number_of_steps() {
    // Establish that the uncancelled run takes many guard steps.
    let free = CancelToken::never();
    let out = synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &free)
        .expect("never-token run completes");
    assert!(!out.programs.is_empty());
    let total_steps = free.checks();
    let budget = 25u64;
    assert!(
        total_steps > budget + 2,
        "task too small to observe a mid-run cancel: {total_steps} steps"
    );

    // The budget trips at checkpoint `budget + 1`, and the loop that
    // observed the trip is the last one to checkpoint.
    let token = CancelToken::with_step_budget(budget);
    assert!(synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token).is_err());
    assert_eq!(token.checks(), budget + 1, "cancel is exact");
}

#[test]
fn cancel_from_another_thread_aborts() {
    let token = CancelToken::never();
    let canceller = token.clone();
    let t = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(5));
        canceller.cancel();
    });
    // Re-run the search until the cross-thread cancel lands mid-run or
    // the budgeted attempts run out; every cancelled attempt must
    // surface as `Err`, never as a partial outcome.
    let mut cancelled = false;
    for _ in 0..200 {
        match synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token) {
            Err(Cancelled) => {
                cancelled = true;
                break;
            }
            Ok(out) => assert!(!out.programs.is_empty()),
        }
    }
    t.join().unwrap();
    assert!(cancelled, "the explicit cancel was never observed");
}

#[test]
fn completed_run_under_a_token_is_byte_identical() {
    let plain = synthesize(&cfg(), &ctx(), &examples());
    let token = CancelToken::after(Duration::from_secs(3600));
    let under = synthesize_cancellable(&cfg(), &ctx(), &examples(), &[], &token)
        .expect("distant deadline never trips");
    assert_eq!(under.programs, plain.programs);
    assert_eq!(under.f1, plain.f1);
    assert_eq!(under.counts, plain.counts);
    assert_eq!(under.total_optimal, plain.total_optimal);
    assert_eq!(under.stats, plain.stats);
}

/// The `NoDecomp` and `NoLazy` ablations drain the guard stream before
/// any extractor search. A cancel that lands in that drain, or in the
/// extractor loop after it, is as exact as in the default mode.
fn assert_cancels_mid_run_exactly(ablation: &SynthConfig) {
    let free = CancelToken::never();
    synthesize_cancellable(ablation, &ctx(), &examples(), &[], &free)
        .expect("never-token run completes");
    let total_steps = free.checks();
    assert!(total_steps > 10, "{total_steps} steps");
    for budget in [1, total_steps / 2, total_steps - 2] {
        let token = CancelToken::with_step_budget(budget);
        let r = synthesize_cancellable(ablation, &ctx(), &examples(), &[], &token);
        assert_eq!(r.unwrap_err(), Cancelled);
        assert_eq!(token.checks(), budget + 1, "cancel is exact");
    }
}

#[test]
fn nodecomp_cancels_mid_run_exactly() {
    assert_cancels_mid_run_exactly(&cfg().without_decomposition());
}

#[test]
fn nolazy_cancels_mid_run_exactly() {
    assert_cancels_mid_run_exactly(&cfg().without_lazy_guards());
}
