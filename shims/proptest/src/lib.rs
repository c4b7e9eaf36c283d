//! Offline stand-in for the `proptest` crate.
//!
//! The build container cannot reach a registry, so this workspace ships
//! the subset of proptest it uses: the [`proptest!`] / [`prop_assert!`] /
//! [`prop_assert_eq!`] / [`prop_oneof!`] macros, [`Strategy`] with
//! `prop_map`, [`Just`], [`any`], [`collection::vec`] and
//! [`ProptestConfig::with_cases`].
//!
//! Differences from real proptest, deliberate for an offline simulator:
//!
//! * **No shrinking.** A failing case reports its test name, case index
//!   and seed; re-running is bit-for-bit reproducible, which is what the
//!   repo's determinism story cares about.
//! * **Fixed seeding.** Case `i` of test `t` derives its RNG from
//!   `hash(t) ⊕ i`, so failures reproduce across runs and machines with
//!   no persistence files.
//!
//! [`Strategy`]: strategy::Strategy
//! [`Just`]: strategy::Just

#![forbid(unsafe_code)]

pub mod collection;
pub mod prelude;
pub mod strategy;
pub mod test_runner;

pub use test_runner::ProptestConfig;

use strategy::AnyStrategy;

/// Types with a canonical "any value" strategy.
pub trait Arbitrary: Sized {
    /// Draws one arbitrary value.
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for bool {
    fn arbitrary(rng: &mut test_runner::TestRng) -> Self {
        rng.next_u64() & 1 == 1
    }
}

/// The strategy producing any value of `T` (`any::<u8>()` etc.).
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy::new()
}

/// Defines property tests: each `#[test] fn name(arg in strategy, ..)`
/// item becomes a plain test that runs `ProptestConfig::cases`
/// deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_items! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_items! { ($crate::ProptestConfig::default()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_items {
    (($cfg:expr) $( $(#[$meta:meta])* fn $name:ident
        ( $($arg:ident in $strat:expr),+ $(,)? ) $body:block )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                let test_path = concat!(module_path!(), "::", stringify!($name));
                for case in 0..config.cases {
                    let mut __rng = $crate::test_runner::TestRng::for_case(test_path, case);
                    let __guard = $crate::test_runner::CaseGuard::new(test_path, case);
                    $(let $arg = $crate::strategy::Strategy::generate(&{ $strat }, &mut __rng);)+
                    { $body }
                    __guard.disarm();
                }
            }
        )*
    };
}

/// Asserts a condition inside a property test.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts equality inside a property test.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Asserts inequality inside a property test.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => { assert_ne!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_ne!($a, $b, $($fmt)+) };
}

/// Chooses among strategies, optionally weighted:
/// `prop_oneof![3 => a, 1 => b]` or `prop_oneof![a, b, c]`.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:expr => $strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::weighted_arm($weight as u32, $strat) ),+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $( $crate::strategy::weighted_arm(1u32, $strat) ),+
        ])
    };
}
