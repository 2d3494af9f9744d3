//! The `proptest!` and `prop_assert*` macros: case counting, rejection,
//! failure reports, and registration (each fn writes its own `#[test]`).

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::sync::atomic::{AtomicU32, Ordering};

static ACCEPTED: AtomicU32 = AtomicU32::new(0);
static SEEN: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    // No `#[test]`: registered by nobody, called by the tests below.
    fn counts_even_cases(x in 0u32..1000) {
        SEEN.fetch_add(1, Ordering::SeqCst);
        prop_assume!(x % 2 == 0);
        ACCEPTED.fetch_add(1, Ordering::SeqCst);
    }

    fn fails_on_large_values(x in 0u32..1000) {
        prop_assert!(x < 500, "x = {}", x);
    }

    fn rejects_everything(_x in 0u32..10) {
        prop_assume!(false);
    }
}

#[test]
fn config_cases_count_only_accepted_cases() {
    counts_even_cases();
    assert_eq!(ACCEPTED.load(Ordering::SeqCst), 40);
    assert!(
        SEEN.load(Ordering::SeqCst) > 40,
        "some odd draws were rejected"
    );
}

#[test]
#[should_panic(expected = "property test macros::fails_on_large_values failed at case")]
fn a_failed_assertion_panics_with_the_test_name_and_message() {
    fails_on_large_values();
}

#[test]
#[should_panic(expected = "too many prop_assume rejections")]
fn a_property_that_rejects_every_case_panics() {
    rejects_everything();
}

proptest! {
    #[test]
    fn several_bindings_draw_from_their_own_strategies(
        a in 0u8..4,
        b in "[xy]{2}",
        c in proptest::collection::vec(any::<bool>(), 3),
    ) {
        prop_assert!(a < 4);
        prop_assert_eq!(b.len(), 2);
        prop_assert_ne!(c.len(), 0);
    }
}

fn check_eq(l: u32, r: u32) -> Result<(), TestCaseError> {
    prop_assert_eq!(l, r, "context {}", 7);
    Ok(())
}

fn check_ne(l: u32, r: u32) -> Result<(), TestCaseError> {
    prop_assert_ne!(l, r);
    Ok(())
}

#[test]
fn assertion_macros_report_both_sides() {
    assert!(check_eq(1, 1).is_ok());
    match check_eq(1, 2) {
        Err(TestCaseError::Fail(msg)) => {
            assert!(msg.contains("left: `1`"), "{msg}");
            assert!(msg.contains("right: `2`"), "{msg}");
            assert!(msg.ends_with("context 7"), "{msg}");
        }
        other => panic!("expected a failure, got {other:?}"),
    }
    assert!(check_ne(1, 2).is_ok());
    match check_ne(3, 3) {
        Err(TestCaseError::Fail(msg)) => assert!(msg.contains("both: `3`"), "{msg}"),
        other => panic!("expected a failure, got {other:?}"),
    }
}
