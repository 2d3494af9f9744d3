//! `any::<T>()` and the [`Arbitrary`] trait for primitive types.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::marker::PhantomData;

/// Types with a canonical default strategy.
pub trait Arbitrary: Sized {
    /// Generates one arbitrary value.
    fn arbitrary_value(rng: &mut TestRng) -> Self;
}

/// Strategy for an [`Arbitrary`] type; built by [`any`].
pub struct Any<T>(PhantomData<T>);

/// Returns the canonical strategy for `T`.
pub fn any<T: Arbitrary>() -> Any<T> {
    Any(PhantomData)
}

impl<T: Arbitrary> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary_value(rng)
    }
}

impl Arbitrary for bool {
    fn arbitrary_value(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

macro_rules! arbitrary_int {
    ($($t:ty),+) => {$(
        impl Arbitrary for $t {
            fn arbitrary_value(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )+};
}

arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary_value(rng: &mut TestRng) -> f64 {
        // Bounded: most properties over floats want finite, tame values.
        (rng.unit_f64() - 0.5) * 2e6
    }
}

impl Arbitrary for char {
    fn arbitrary_value(rng: &mut TestRng) -> char {
        char::from_u32(rng.in_range_u32(0x20, 0x7E)).unwrap()
    }
}

#[cfg(test)]
mod tests {
    use super::any;
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    #[test]
    fn any_char_is_printable_ascii() {
        let mut rng = TestRng::deterministic("any_char");
        for _ in 0..1_000 {
            let c = any::<char>().generate(&mut rng);
            assert!((' '..='~').contains(&c), "{c:?}");
        }
    }

    #[test]
    fn any_f64_is_finite_and_bounded() {
        let mut rng = TestRng::deterministic("any_f64");
        for _ in 0..1_000 {
            let x = any::<f64>().generate(&mut rng);
            assert!(x.is_finite() && x.abs() <= 1e6, "{x}");
        }
    }

    #[test]
    fn any_bool_and_integers_take_every_value_class() {
        let mut rng = TestRng::deterministic("any_ints");
        let bools: Vec<bool> = (0..64).map(|_| any::<bool>().generate(&mut rng)).collect();
        assert!(bools.contains(&true) && bools.contains(&false));
        let ints: Vec<i8> = (0..256).map(|_| any::<i8>().generate(&mut rng)).collect();
        assert!(ints.iter().any(|&x| x < 0) && ints.iter().any(|&x| x > 0));
    }
}
