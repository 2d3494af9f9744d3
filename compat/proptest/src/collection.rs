//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::ops::{Range, RangeInclusive};

/// A length distribution for collection strategies.
#[derive(Clone, Debug)]
pub struct SizeRange {
    min: usize,
    max: usize, // inclusive
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> SizeRange {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> SizeRange {
        assert!(r.start < r.end, "collection size range is empty");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> SizeRange {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

/// Strategy for `Vec<S::Value>`; built by [`vec`](fn@vec).
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

/// Generates vectors whose length lies in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.min + rng.below(self.size.max - self.size.min + 1);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::vec;
    use crate::strategy::{Just, Strategy};
    use crate::test_runner::TestRng;

    #[test]
    fn lengths_follow_the_size_range() {
        let mut rng = TestRng::deterministic("vec_lengths");
        let exclusive = vec(Just(0u8), 2..5);
        let inclusive = vec(Just(0u8), 2..=5);
        let fixed = vec(Just(0u8), 3);
        let (mut short, mut long) = (false, false);
        for _ in 0..500 {
            let n = exclusive.generate(&mut rng).len();
            assert!((2..5).contains(&n), "{n}");
            let m = inclusive.generate(&mut rng).len();
            assert!((2..=5).contains(&m), "{m}");
            short |= m == 2;
            long |= m == 5;
            assert_eq!(fixed.generate(&mut rng).len(), 3);
        }
        assert!(short && long);
    }

    #[test]
    fn elements_come_from_the_element_strategy() {
        let mut rng = TestRng::deterministic("vec_elements");
        let v = vec(10u32..20, 0..=64).generate(&mut rng);
        assert!(v.iter().all(|x| (10..20).contains(x)), "{v:?}");
    }

    #[test]
    #[should_panic(expected = "size range is empty")]
    fn an_empty_size_range_panics() {
        vec(Just(0u8), 4..4);
    }
}
