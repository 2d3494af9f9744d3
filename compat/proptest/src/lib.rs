//! Offline stand-in for the subset of the
//! [`proptest`](https://crates.io/crates/proptest) crate this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! this minimal reimplementation as a path dependency. It keeps proptest's
//! surface syntax — the `proptest!` macro, `Strategy` combinators
//! (`prop_map`, `prop_recursive`, `prop_oneof!`), regex-literal string
//! strategies, `proptest::collection::vec`, and the `prop_assert*` macros —
//! but replaces the engine with plain seeded random generation:
//!
//! * no shrinking: a failing case panics with the assertion message and the
//!   deterministic per-test seed, which is enough to reproduce it;
//! * generation is deterministic per test (seeded by the test's module path
//!   and name), so CI runs are stable;
//! * regex strategies support the subset actually used in this repo's tests:
//!   literals, `.`, `\PC`, character classes with ranges and `\n`-style
//!   escapes, groups, alternation, and `{n}` / `{n,m}` / `?` / `*` / `+`
//!   quantifiers.

#![warn(missing_docs)]

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod string;
pub mod test_runner;

/// Everything the `proptest!`-style tests normally import.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::Config as ProptestConfig;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, proptest,
    };
}

/// Defines property tests. See the crate docs for the supported subset.
/// As upstream, each fn in the block writes its own `#[test]`; the macro
/// adds none, so a fn without one is not registered as a test.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_fns!{ ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_fns!{ ($crate::test_runner::Config::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr)
      $( $(#[$meta:meta])* fn $name:ident ( $($arg:pat in $strat:expr),+ $(,)? ) $body:block )*
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let __config: $crate::test_runner::Config = $cfg;
                let __test_name = concat!(module_path!(), "::", stringify!($name));
                let mut __rng = $crate::test_runner::TestRng::deterministic(__test_name);
                // Build each strategy once per test, not once per case:
                // strategy trees (prop_recursive unions, compiled regex
                // patterns) can be expensive to construct.
                let __strategy = ($($strat,)+);
                let mut __cases_run: u32 = 0;
                let mut __rejects: u32 = 0;
                while __cases_run < __config.cases {
                    let ($($arg,)+) =
                        $crate::strategy::Strategy::generate(&__strategy, &mut __rng);
                    let __result: ::core::result::Result<(), $crate::test_runner::TestCaseError> =
                        (move || { $body ::core::result::Result::Ok(()) })();
                    match __result {
                        ::core::result::Result::Ok(()) => __cases_run += 1,
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject) => {
                            __rejects += 1;
                            assert!(
                                __rejects < __config.cases.saturating_mul(16) + 256,
                                "{}: too many prop_assume rejections", __test_name
                            );
                        }
                        ::core::result::Result::Err($crate::test_runner::TestCaseError::Fail(msg)) => {
                            panic!(
                                "property test {} failed at case {}: {}",
                                __test_name, __cases_run, msg
                            );
                        }
                    }
                }
            }
        )*
    };
}

/// Fails the current case with the assertion (and optional format message).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(
                $crate::test_runner::TestCaseError::Fail(format!($($fmt)+)),
            );
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`",
            l, r
        );
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l == r,
            "assertion failed: `(left == right)`\n  left: `{:?}`\n right: `{:?}`: {}",
            l, r, format!($($fmt)+)
        );
    }};
}

/// Fails the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            l != r,
            "assertion failed: `(left != right)`\n  both: `{:?}`",
            l
        );
    }};
}

/// Rejects (skips) the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::test_runner::TestCaseError::Reject);
        }
    };
}

/// Uniformly picks one of several strategies with the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::Strategy::boxed($strat) ),+
        ])
    };
}
