//! Offline shim for the subset of [proptest](https://docs.rs/proptest)
//! used by this workspace.
//!
//! Provides a deterministic, seed-stable property-testing harness:
//!
//! * [`Strategy`] — value generators with `prop_map` and `boxed`;
//! * range strategies for integers and `f64`, tuple strategies, [`Just`],
//!   [`collection::vec`], [`bool::ANY`], and [`any`];
//! * the [`proptest!`], [`prop_compose!`], [`prop_oneof!`],
//!   [`prop_assert!`], [`prop_assert_eq!`], and [`prop_assert_ne!`] macros;
//! * [`test_runner::ProptestConfig`] with `with_cases`.
//!
//! Differences from the real crate: no shrinking (failures report the case
//! number and seed; re-running is deterministic), and the byte streams
//! differ, so regressions found by the real crate may surface at different
//! case indices here.

use std::ops::{Range, RangeFrom, RangeInclusive};

/// Test-runner configuration.
pub mod test_runner {
    /// How many cases each property runs (the shim ignores every other
    /// knob of the real `ProptestConfig`).
    #[derive(Debug, Clone, Copy)]
    pub struct ProptestConfig {
        /// Number of generated cases per property.
        pub cases: u32,
    }

    impl ProptestConfig {
        /// Config running `cases` cases.
        pub fn with_cases(cases: u32) -> Self {
            Self { cases }
        }
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            Self { cases: 64 }
        }
    }

    /// Deterministic splitmix64 word source driving all strategies.
    #[derive(Debug, Clone)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Seeds the generator.
        pub fn new(seed: u64) -> Self {
            Self { state: seed }
        }

        /// Next 64 random bits.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        /// Uniform draw in `[0, bound)`; `bound` must be nonzero.
        pub fn below(&mut self, bound: u64) -> u64 {
            self.next_u64() % bound
        }

        /// Uniform draw in `[0, 1)`.
        pub fn unit_f64(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }
    }
}

use test_runner::TestRng;

/// A generator of test values.
pub trait Strategy {
    /// The generated type.
    type Value;

    /// Draws one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<U, F: Fn(Self::Value) -> U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }

    /// Filters generated values; retries until `f` accepts (bounded).
    fn prop_filter<F: Fn(&Self::Value) -> bool>(self, whence: &'static str, f: F) -> Filter<Self, F>
    where
        Self: Sized,
    {
        Filter {
            inner: self,
            f,
            whence,
        }
    }

    /// Type-erases the strategy.
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(std::rc::Rc::new(move |rng: &mut TestRng| {
            self.generate(rng)
        }))
    }
}

/// See [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;
    fn generate(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.generate(rng))
    }
}

/// See [`Strategy::prop_filter`].
pub struct Filter<S, F> {
    inner: S,
    f: F,
    whence: &'static str,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;
    fn generate(&self, rng: &mut TestRng) -> S::Value {
        for _ in 0..1_000 {
            let v = self.inner.generate(rng);
            if (self.f)(&v) {
                return v;
            }
        }
        panic!("prop_filter {:?} rejected 1000 candidates", self.whence)
    }
}

/// A type-erased strategy (used by [`prop_oneof!`]).
pub struct BoxedStrategy<T>(std::rc::Rc<dyn Fn(&mut TestRng) -> T>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(self.0.clone())
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A strategy that always yields a clone of the given value.
#[derive(Debug, Clone)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// A strategy backed by a plain closure (used by [`prop_compose!`]).
pub struct FnStrategy<F>(pub F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for FnStrategy<F> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

/// A uniform choice among boxed alternatives (built by [`prop_oneof!`]).
pub struct Union<T>(pub Vec<BoxedStrategy<T>>);

impl<T> Union<T> {
    /// Builds the union; panics when empty.
    pub fn new(alternatives: Vec<BoxedStrategy<T>>) -> Self {
        assert!(!alternatives.is_empty(), "prop_oneof! needs alternatives");
        Self(alternatives)
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let idx = rng.below(self.0.len() as u64) as usize;
        self.0[idx].generate(rng)
    }
}

macro_rules! impl_int_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as u128) - (self.start as u128);
                (self.start as u128 + (rng.next_u64() as u128) % span) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty inclusive range strategy");
                let span = (hi as u128) - (lo as u128) + 1;
                (lo as u128 + (rng.next_u64() as u128) % span) as $t
            }
        }
        impl Strategy for RangeFrom<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let lo = self.start as u128;
                let span = (<$t>::MAX as u128) - lo + 1;
                (lo + (rng.next_u64() as u128) % span) as $t
            }
        }
    )*};
}
impl_int_range_strategies!(u8, u16, u32, u64, usize);

macro_rules! impl_signed_range_strategies {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128) - (self.start as i128);
                (self.start as i128 + (rng.next_u64() as i128).rem_euclid(span)) as $t
            }
        }
    )*};
}
impl_signed_range_strategies!(i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty f64 range strategy");
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A: 0);
impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};

    /// Length specification for [`vec()`]: exact or half-open range.
    #[derive(Debug, Clone, Copy)]
    pub struct SizeRange {
        lo: usize,
        hi: usize, // exclusive
    }

    impl From<usize> for SizeRange {
        fn from(n: usize) -> Self {
            Self { lo: n, hi: n + 1 }
        }
    }
    impl From<std::ops::Range<usize>> for SizeRange {
        fn from(r: std::ops::Range<usize>) -> Self {
            assert!(r.start < r.end, "empty size range");
            Self {
                lo: r.start,
                hi: r.end,
            }
        }
    }
    impl From<std::ops::RangeInclusive<usize>> for SizeRange {
        fn from(r: std::ops::RangeInclusive<usize>) -> Self {
            Self {
                lo: *r.start(),
                hi: *r.end() + 1,
            }
        }
    }

    /// Strategy producing `Vec`s of values from `element`.
    pub struct VecStrategy<S> {
        element: S,
        size: SizeRange,
    }

    /// Generates vectors whose length is drawn from `size` and whose
    /// elements come from `element`.
    pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
        VecStrategy {
            element,
            size: size.into(),
        }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let span = (self.size.hi - self.size.lo).max(1) as u64;
            let len = self.size.lo + rng.below(span) as usize;
            (0..len).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Boolean strategies.
pub mod bool {
    use super::{Strategy, TestRng};

    /// Strategy generating arbitrary booleans.
    #[derive(Debug, Clone, Copy)]
    pub struct Any;

    /// Generates `true`/`false` uniformly.
    pub const ANY: Any = Any;

    impl Strategy for Any {
        type Value = bool;
        fn generate(&self, rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }
}

/// Types with a canonical "arbitrary" strategy (subset of the real
/// `Arbitrary`).
pub trait ArbitraryValue: Sized {
    /// Draws an arbitrary value.
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl ArbitraryValue for $t {
            fn arbitrary_value(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ArbitraryValue for bool {
    fn arbitrary_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// Strategy returned by [`any`].
pub struct AnyStrategy<T>(std::marker::PhantomData<T>);

impl<T: ArbitraryValue> Strategy for AnyStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_value(rng)
    }
}

/// The full-range strategy for `T` (`any::<u8>()`, ...).
pub fn any<T: ArbitraryValue>() -> AnyStrategy<T> {
    AnyStrategy(std::marker::PhantomData)
}

/// Stable 64-bit FNV-1a hash of a string, used to derive per-test seeds.
pub fn seed_of(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Asserts a condition inside a [`proptest!`] body, reporting failure
/// without unwinding the whole harness.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed: {} at {}:{}",
                stringify!($cond),
                file!(),
                line!()
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::std::result::Result::Err(format!(
                "assertion failed at {}:{}: {}",
                file!(),
                line!(),
                format!($($fmt)+)
            ));
        }
    };
}

/// Equality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err(format!(
                "assert_eq failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                lhs,
                rhs
            ));
        }
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (lhs, rhs) = (&$a, &$b);
        if !(*lhs == *rhs) {
            return ::std::result::Result::Err(format!(
                "assert_eq failed at {}:{}: {:?} != {:?}: {}",
                file!(),
                line!(),
                lhs,
                rhs,
                format!($($fmt)+)
            ));
        }
    }};
}

/// Inequality assertion inside a [`proptest!`] body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr) => {{
        let (lhs, rhs) = (&$a, &$b);
        if *lhs == *rhs {
            return ::std::result::Result::Err(format!(
                "assert_ne failed at {}:{}: both {:?}",
                file!(),
                line!(),
                lhs
            ));
        }
    }};
}

/// Uniform choice among strategies yielding the same value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($strategy:expr),+ $(,)?) => {
        $crate::Union::new(vec![$($crate::Strategy::boxed($strategy)),+])
    };
}

/// Defines a named composite strategy. Supports the one- and two-stage
/// forms used in this workspace (empty outer parameter list).
#[macro_export]
macro_rules! prop_compose {
    // Two-stage: second-stage strategies may reference first-stage values.
    (fn $name:ident()($($p1:pat in $s1:expr),+ $(,)?)($($p2:pat in $s2:expr),+ $(,)?) -> $ret:ty $body:block) => {
        fn $name() -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |rng: &mut $crate::test_runner::TestRng| {
                $(let $p1 = $crate::Strategy::generate(&($s1), rng);)+
                $(let $p2 = $crate::Strategy::generate(&($s2), rng);)+
                $body
            })
        }
    };
    // One-stage.
    (fn $name:ident()($($p:pat in $s:expr),+ $(,)?) -> $ret:ty $body:block) => {
        fn $name() -> impl $crate::Strategy<Value = $ret> {
            $crate::FnStrategy(move |rng: &mut $crate::test_runner::TestRng| {
                $(let $p = $crate::Strategy::generate(&($s), rng);)+
                $body
            })
        }
    };
}

/// Declares property tests. Each function body runs `config.cases` times
/// with fresh deterministic inputs; `prop_assert*` failures report the
/// case index and values' formatting without shrinking.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)+) => {
        $crate::__proptest_impl!(($cfg); $($rest)+);
    };
    ($($rest:tt)+) => {
        $crate::__proptest_impl!(($crate::test_runner::ProptestConfig::default()); $($rest)+);
    };
}

/// Implementation detail of [`proptest!`]; the config expression arrives at
/// repetition depth 0 so it can be reused inside every generated test fn.
#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($p:pat in $s:expr),+ $(,)?) $body:block)+) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                let mut rng = $crate::test_runner::TestRng::new(
                    $crate::seed_of(concat!(module_path!(), "::", stringify!($name))),
                );
                for case in 0..config.cases {
                    let outcome: ::std::result::Result<(), String> = (|| {
                        $(let $p = $crate::Strategy::generate(&($s), &mut rng);)+
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    })();
                    if let ::std::result::Result::Err(msg) = outcome {
                        panic!(
                            "proptest {} failed at case {}/{}: {}",
                            stringify!($name),
                            case,
                            config.cases,
                            msg
                        );
                    }
                }
            }
        )+
    };
}

/// Everything a test file typically imports.
pub mod prelude {
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_compose, prop_oneof, proptest,
        BoxedStrategy, Just, Strategy,
    };
    /// Qualified access mirror (`prop::collection::vec`, ...).
    pub mod prop {
        pub use crate::bool;
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    prop_compose! {
        fn pair()(
            n in 1usize..10,
        )(
            v in crate::collection::vec(0u8..=255, n),
            n in Just(n),
        ) -> (usize, Vec<u8>) {
            (n, v)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn ranges_in_bounds(x in 3u32..17, y in 0u8..=4, b in crate::bool::ANY) {
            prop_assert!((3..17).contains(&x));
            prop_assert!(y <= 4);
            let _ = b;
        }

        #[test]
        fn composed_sizes_agree((n, v) in pair()) {
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn oneof_and_map(o in prop_oneof![Just(None), (1u8..6).prop_map(Some)]) {
            if let Some(x) = o {
                prop_assert!((1..6).contains(&x));
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        use crate::test_runner::TestRng;
        use crate::Strategy;
        let s = crate::collection::vec(0u32..100, 0..10);
        let a: Vec<Vec<u32>> = {
            let mut r = TestRng::new(42);
            (0..5).map(|_| s.generate(&mut r)).collect()
        };
        let b: Vec<Vec<u32>> = {
            let mut r = TestRng::new(42);
            (0..5).map(|_| s.generate(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
