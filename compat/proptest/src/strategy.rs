//! The [`Strategy`] trait and combinators.
//!
//! Unlike real proptest there is no shrinking and no value tree; a strategy
//! is just a recipe for generating one value from the test RNG.

use crate::string::Pattern;
use crate::test_runner::TestRng;
use std::rc::Rc;

/// A recipe for generating values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generates one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Maps generated values through `f`.
    fn prop_map<O, F>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> O,
    {
        Map { inner: self, f }
    }

    /// Builds a bounded-depth recursive strategy: `self` is the leaf case and
    /// `recurse` wraps a strategy for subtrees into a strategy for branches.
    /// `_desired_size` and `_expected_branch_size` are accepted for API
    /// compatibility but only `depth` bounds the recursion here.
    fn prop_recursive<R, S2>(
        self,
        depth: u32,
        _desired_size: u32,
        _expected_branch_size: u32,
        recurse: R,
    ) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
        Self::Value: 'static,
        R: Fn(BoxedStrategy<Self::Value>) -> S2,
        S2: Strategy<Value = Self::Value> + 'static,
    {
        let leaf = self.boxed();
        let mut strat = leaf.clone();
        for _ in 0..depth {
            let deeper = recurse(strat).boxed();
            strat = Union::new(vec![leaf.clone(), deeper]).boxed();
        }
        strat
    }

    /// Type-erases the strategy (cheaply clonable).
    fn boxed(self) -> BoxedStrategy<Self::Value>
    where
        Self: Sized + 'static,
    {
        BoxedStrategy(Rc::new(self))
    }
}

/// Object-safe view of [`Strategy`], used behind [`BoxedStrategy`].
trait DynStrategy {
    type Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> Self::Value;
}

impl<S: Strategy> DynStrategy for S {
    type Value = S::Value;
    fn dyn_generate(&self, rng: &mut TestRng) -> S::Value {
        self.generate(rng)
    }
}

/// A type-erased, reference-counted strategy.
pub struct BoxedStrategy<T>(Rc<dyn DynStrategy<Value = T>>);

impl<T> Clone for BoxedStrategy<T> {
    fn clone(&self) -> Self {
        BoxedStrategy(Rc::clone(&self.0))
    }
}

impl<T> Strategy for BoxedStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0.dyn_generate(rng)
    }
}

/// Always generates a clone of the wrapped value.
#[derive(Clone, Debug)]
pub struct Just<T: Clone>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

/// Strategy returned by [`Strategy::prop_map`].
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S, F, O> Strategy for Map<S, F>
where
    S: Strategy,
    F: Fn(S::Value) -> O,
{
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
}

/// Uniform choice among same-typed strategies; built by `prop_oneof!`.
pub struct Union<T> {
    arms: Vec<BoxedStrategy<T>>,
}

impl<T> Union<T> {
    /// Builds the union; panics if `arms` is empty.
    pub fn new(arms: Vec<BoxedStrategy<T>>) -> Union<T> {
        assert!(!arms.is_empty(), "prop_oneof! needs at least one arm");
        Union { arms }
    }
}

impl<T> Strategy for Union<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        let i = rng.below(self.arms.len());
        self.arms[i].generate(rng)
    }
}

macro_rules! tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0);
tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4, F / 5, G / 6, H / 7);

macro_rules! int_range_strategy {
    ($($t:ty),+) => {$(
        impl Strategy for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                let mut r = ShimRng(rng);
                r.gen_range(self.clone())
            }
        }
        impl Strategy for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                use rand::Rng;
                let mut r = ShimRng(rng);
                r.gen_range(self.clone())
            }
        }
    )+};
}

/// Adapter exposing [`TestRng`] as a `rand::RngCore`.
struct ShimRng<'a>(&'a mut TestRng);

impl rand::RngCore for ShimRng<'_> {
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for core::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + rng.unit_f64() * (self.end - self.start)
    }
}

impl Strategy for core::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut TestRng) -> f32 {
        self.start + (rng.unit_f64() as f32) * (self.end - self.start)
    }
}

/// String literals are regex strategies, as in real proptest.
impl Strategy for &str {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        Pattern::compile(self).generate(rng)
    }
}

impl Strategy for String {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        Pattern::compile(self).generate(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    enum Tree {
        Leaf,
        Node(Vec<Tree>),
    }

    fn depth(t: &Tree) -> u32 {
        match t {
            Tree::Leaf => 0,
            Tree::Node(kids) => 1 + kids.iter().map(depth).max().unwrap_or(0),
        }
    }

    #[test]
    fn just_and_prop_map_are_deterministic_functions_of_the_input() {
        let mut rng = TestRng::deterministic("just_map");
        assert_eq!(Just("x").generate(&mut rng), "x");
        let doubled = (0u32..100).prop_map(|x| x * 2);
        for _ in 0..200 {
            let v = doubled.generate(&mut rng);
            assert!(v % 2 == 0 && v < 200, "{v}");
        }
    }

    #[test]
    fn prop_oneof_reaches_every_arm() {
        let mut rng = TestRng::deterministic("oneof");
        let s = crate::prop_oneof![Just(0), Just(1), Just(2), 3..4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[s.generate(&mut rng) as usize] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn an_empty_union_panics() {
        Union::<u8>::new(Vec::new());
    }

    #[test]
    fn prop_recursive_nests_up_to_its_depth_and_no_deeper() {
        let mut rng = TestRng::deterministic("recursive");
        let tree = Just(Tree::Leaf).prop_recursive(3, 16, 4, |inner| {
            crate::collection::vec(inner, 1..3).prop_map(Tree::Node)
        });
        let depths: Vec<u32> = (0..500).map(|_| depth(&tree.generate(&mut rng))).collect();
        assert!(depths.iter().all(|&d| d <= 3), "{depths:?}");
        assert!(depths.contains(&0) && depths.contains(&3), "{depths:?}");
    }

    #[test]
    fn range_strategies_stay_in_range() {
        let mut rng = TestRng::deterministic("ranges");
        for _ in 0..1_000 {
            assert!((-4i64..4).generate(&mut rng) < 4);
            assert!((1u16..=3).generate(&mut rng) >= 1);
            let x = (-2.0f64..-1.0).generate(&mut rng);
            assert!((-2.0..-1.0).contains(&x), "{x}");
            let y = (0.0f32..1.0).generate(&mut rng);
            assert!((0.0..=1.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn tuples_generate_each_component_from_its_own_strategy() {
        let mut rng = TestRng::deterministic("tuples");
        let s = (Just('a'), 0u8..2, "[xy]", Just(()));
        for _ in 0..100 {
            let (a, b, c, ()) = s.generate(&mut rng);
            assert_eq!(a, 'a');
            assert!(b < 2);
            assert!(c == "x" || c == "y", "{c:?}");
        }
    }

    #[test]
    fn boxed_clones_share_one_strategy() {
        let mut rng = TestRng::deterministic("boxed");
        let a = (5u8..6).boxed();
        let b = a.clone();
        assert_eq!(a.generate(&mut rng), 5);
        assert_eq!(b.generate(&mut rng), 5);
    }
}
