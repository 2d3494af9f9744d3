//! Offline stand-in for the subset of the [`rand`](https://crates.io/crates/rand)
//! crate this workspace uses: `StdRng::seed_from_u64`, `Rng::gen_range` over
//! integer/float ranges, and `Rng::gen_bool`.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! this minimal reimplementation as a path dependency. The generator is
//! xoshiro256++ seeded through SplitMix64 — deterministic across platforms,
//! which is all the corpus generators and tests rely on (they only need
//! *stable* pseudo-randomness for a fixed seed, not the exact `rand` stream).

#![warn(missing_docs)]

pub mod rngs;

/// A low-level source of random 64-bit words.
pub trait RngCore {
    /// Returns the next pseudo-random `u64`.
    fn next_u64(&mut self) -> u64;
}

/// Rngs constructible from seeds.
pub trait SeedableRng: Sized {
    /// Builds the generator from a single `u64` seed (expanded via SplitMix64).
    fn seed_from_u64(state: u64) -> Self;
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Samples a value uniformly from `range`. Panics if the range is empty.
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`. Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of range: {p}");
        // 53 high bits give a uniform f64 in [0, 1).
        let x = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        x < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Range types [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Rejection-free-enough uniform integer in `[0, n)` via Lemire-style
/// widening multiply; `n` must be nonzero.
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, n: u64) -> u64 {
    debug_assert!(n > 0);
    // Widening multiply with one rejection round bounds the bias far below
    // anything the seeded generators or tests could observe.
    loop {
        let x = rng.next_u64();
        let m = (x as u128).wrapping_mul(n as u128);
        let lo = m as u64;
        if lo >= n || lo >= n.wrapping_neg() % n {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! int_range_impls {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range: empty range");
                let span = (hi as i128 - lo as i128 + 1) as u128;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + uniform_below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

int_range_impls!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for core::ops::Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

impl SampleRange<f32> for core::ops::Range<f32> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f32 {
        assert!(self.start < self.end, "gen_range: empty range");
        let unit = (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32);
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    fn draws(rng: &mut StdRng, n: usize) -> Vec<u64> {
        (0..n).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn one_seed_gives_one_stream() {
        let a = draws(&mut StdRng::seed_from_u64(7), 64);
        let b = draws(&mut StdRng::seed_from_u64(7), 64);
        assert_eq!(a, b);
        // Seed 0 still yields a live generator (SplitMix64 expands it).
        let zero = draws(&mut StdRng::seed_from_u64(0), 8);
        assert!(zero.iter().any(|&x| x != 0), "{zero:?}");
    }

    #[test]
    fn different_seeds_give_different_streams() {
        let a = draws(&mut StdRng::seed_from_u64(1), 16);
        let b = draws(&mut StdRng::seed_from_u64(2), 16);
        assert_ne!(a, b);
        assert!(a.iter().zip(&b).all(|(x, y)| x != y));
    }

    #[test]
    fn a_clone_continues_the_same_stream() {
        let mut rng = StdRng::seed_from_u64(42);
        draws(&mut rng, 5);
        let mut copy = rng.clone();
        assert_eq!(draws(&mut rng, 32), draws(&mut copy, 32));
    }

    #[test]
    fn half_open_integer_ranges_stay_inside_and_cover_every_value() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [false; 7];
        for _ in 0..2_000 {
            let x: usize = rng.gen_range(3..10);
            assert!((3..10).contains(&x), "{x}");
            seen[x - 3] = true;
        }
        assert!(seen.iter().all(|&s| s), "{seen:?}");
        for _ in 0..2_000 {
            let x: i32 = rng.gen_range(-5..-2);
            assert!((-5..-2).contains(&x), "{x}");
        }
        // A one-value range always yields that value.
        for _ in 0..16 {
            assert_eq!(rng.gen_range(9u8..10), 9);
        }
    }

    #[test]
    fn inclusive_ranges_reach_both_endpoints() {
        let mut rng = StdRng::seed_from_u64(4);
        let (mut lo, mut hi) = (false, false);
        for _ in 0..2_000 {
            let x: i8 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&x), "{x}");
            lo |= x == -3;
            hi |= x == 3;
        }
        assert!(lo && hi);
        // Whole-domain ranges, including the u64 one whose span does not
        // fit in a u64.
        let mut bytes = [false; 256];
        for _ in 0..20_000 {
            bytes[usize::from(rng.gen_range(0u8..=u8::MAX))] = true;
        }
        assert!(bytes.iter().all(|&s| s));
        let wide: Vec<u64> = (0..8).map(|_| rng.gen_range(0..=u64::MAX)).collect();
        assert!(wide.iter().any(|&x| x > u64::from(u32::MAX)), "{wide:?}");
        assert_eq!(rng.gen_range(i64::MIN..=i64::MIN), i64::MIN);
    }

    #[test]
    fn float_ranges_are_half_open() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5_000 {
            let x: f64 = rng.gen_range(-1.5..2.5);
            assert!((-1.5..2.5).contains(&x), "{x}");
            let y: f32 = rng.gen_range(0.25f32..0.5);
            assert!((0.25..0.5).contains(&y), "{y}");
        }
        let mean = (0..10_000).map(|_| rng.gen_range(0.0..1.0)).sum::<f64>() / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "{mean}");
    }

    #[test]
    fn gen_bool_is_certain_at_the_extremes_and_fair_between() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!((0..1_000).all(|_| !rng.gen_bool(0.0)));
        assert!((0..1_000).all(|_| rng.gen_bool(1.0)));
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2_200..2_800).contains(&heads), "{heads}");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn an_empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(8);
        let _: u32 = rng.gen_range(5..5);
    }

    #[test]
    #[should_panic(expected = "p out of range")]
    fn gen_bool_refuses_a_probability_above_one() {
        StdRng::seed_from_u64(9).gen_bool(1.5);
    }
}
