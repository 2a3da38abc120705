//! Offline shim for the `proptest` crate.
//!
//! The build environment has no crates.io access, so this workspace
//! vendors the subset of the proptest API its property tests use:
//! [`Strategy`] with `prop_map`/`prop_flat_map`/`boxed`, integer-range and
//! tuple strategies, [`strategy::Just`], `any::<T>()`,
//! [`collection::vec`], a small `string_regex`, the `proptest!` /
//! `prop_oneof!` / `prop_assert*!` macros, and
//! [`test_runner::ProptestConfig`].
//!
//! Differences from real proptest, deliberate for an offline shim:
//! - **no shrinking** — a failing case reports its seed and values, but is
//!   not minimized;
//! - **deterministic seeding** — cases derive from a hash of the test's
//!   module path and name, so runs are reproducible without a persistence
//!   file (`.proptest-regressions` files are ignored).

#![cfg_attr(not(test), deny(unused_crate_dependencies))]

pub mod strategy;
pub mod test_runner;

pub mod collection {
    pub use crate::strategy::{vec, SizeRange, VecStrategy};
}

pub mod string {
    pub use crate::strategy::{string_regex, RegexError, RegexStrategy};
}

pub mod prelude {
    pub use crate::strategy::{any, Arbitrary, BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// One property-test assertion failure (carried as a formatted message).
pub type TestCaseError = String;

// ---- macros ----------------------------------------------------------

/// Declare property tests. Supports the real crate's block form:
///
/// ```ignore
/// proptest! {
///     #![proptest_config(ProptestConfig::with_cases(64))]
///     #[test]
///     fn my_prop(x in 0u32..100, v in proptest::collection::vec(any::<u8>(), 0..16)) {
///         prop_assert!(x < 100);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            config = ($crate::test_runner::ProptestConfig::default());
            $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (config = ($cfg:expr); ) => {};
    (config = ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:pat_param in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let seed = $crate::test_runner::derive_seed(concat!(
                module_path!(), "::", stringify!($name)
            ));
            for case in 0..config.cases {
                let mut __rng =
                    $crate::test_runner::TestRng::from_seed(seed ^ (case as u64).wrapping_mul(
                        0x9E37_79B9_7F4A_7C15,
                    ));
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)*
                let outcome: ::core::result::Result<(), $crate::TestCaseError> =
                    (|| { $body ::core::result::Result::Ok(()) })();
                if let ::core::result::Result::Err(msg) = outcome {
                    panic!(
                        "proptest '{}' failed at case {}/{} (seed {:#x}): {}",
                        stringify!($name), case, config.cases, seed, msg
                    );
                }
            }
        }
        $crate::__proptest_impl! { config = ($cfg); $($rest)* }
    };
}

/// Fail the enclosing property-test case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!(
                "assertion failed: {}", stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err(::std::format!($($fmt)+));
        }
    };
}

/// Fail the enclosing property-test case unless `left == right`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}`\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right), l, r
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if !(*l == *r) {
                    return ::core::result::Result::Err(::std::format!(
                        "assertion failed: `{} == {}` ({})\n  left: {:?}\n right: {:?}",
                        stringify!($left), stringify!($right),
                        ::std::format!($($fmt)+), l, r
                    ));
                }
            }
        }
    };
}

/// Fail the enclosing property-test case unless `left != right`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err(::std::format!(
                        "assertion failed: `{} != {}`\n  both: {:?}",
                        stringify!($left), stringify!($right), l
                    ));
                }
            }
        }
    };
    ($left:expr, $right:expr, $($fmt:tt)+) => {
        match (&$left, &$right) {
            (l, r) => {
                if *l == *r {
                    return ::core::result::Result::Err(::std::format!(
                        "assertion failed: `{} != {}` ({})\n  both: {:?}",
                        stringify!($left), stringify!($right),
                        ::std::format!($($fmt)+), l
                    ));
                }
            }
        }
    };
}

/// Pick one of several strategies, optionally weighted
/// (`3 => strategy_a, 1 => strategy_b` or just `a, b, c`).
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $(($weight as u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(::std::vec![
            $((1u32, $crate::strategy::Strategy::boxed($strat))),+
        ])
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Op {
        Get(u8),
        Put(u8, u64),
        Flush,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            3 => (0u8..16).prop_map(Op::Get),
            2 => (0u8..16, any::<u64>()).prop_map(|(k, v)| Op::Put(k, v)),
            1 => Just(Op::Flush),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn ranges_stay_in_bounds(x in 3u32..17, y in 1u8..=9) {
            prop_assert!((3..17).contains(&x));
            prop_assert!((1..=9).contains(&y));
        }

        #[test]
        fn vec_lengths_respect_size_range(
            v in crate::collection::vec(any::<u8>(), 2..7),
            w in crate::collection::vec(0u8..4, 0..3),
        ) {
            prop_assert!((2..7).contains(&v.len()));
            prop_assert!(w.len() < 3 && w.iter().all(|&b| b < 4));
        }

        #[test]
        fn oneof_and_maps_compose(ops in crate::collection::vec(arb_op(), 1..20)) {
            prop_assert!(!ops.is_empty());
            for op in ops {
                match op {
                    Op::Get(k) => prop_assert!(k < 16),
                    Op::Put(k, _) => prop_assert!(k < 16),
                    Op::Flush => {}
                }
            }
        }

        #[test]
        fn regex_strings_match_class(s in crate::string::string_regex("[a-c7._-]{2,5}").unwrap()) {
            prop_assert!((2..=5).contains(&s.len()));
            prop_assert!(s.chars().all(|c| "abc7._-".contains(c)));
        }
    }

    #[test]
    #[should_panic(expected = "failed at case")]
    // The nested `#[test] fn` generated by `proptest!` is deliberately
    // unreachable by the harness — we invoke it by hand below.
    #[allow(unnameable_test_items)]
    fn failures_report_case_and_seed() {
        proptest! {
            #[test]
            fn always_fails(x in 0u8..4) {
                prop_assert!(x > 100, "x was {}", x);
            }
        }
        always_fails();
    }
}
