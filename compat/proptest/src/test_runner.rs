//! Test-loop plumbing: the per-test RNG, config, and case outcome.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Drop-in for `proptest::test_runner::Config` (`ProptestConfig`).
#[derive(Clone, Debug)]
pub struct Config {
    /// Number of successful cases required for the test to pass.
    pub cases: u32,
}

impl Config {
    /// Config running `cases` successful cases per test.
    pub fn with_cases(cases: u32) -> Config {
        Config { cases }
    }
}

impl Default for Config {
    fn default() -> Config {
        Config { cases: 256 }
    }
}

/// Outcome of one generated case, produced by the `prop_assert*` /
/// `prop_assume!` macros inside the test body.
#[derive(Debug)]
pub enum TestCaseError {
    /// The case's assumptions failed; skip it without counting.
    Reject,
    /// An assertion failed; the test panics with this message.
    Fail(String),
}

/// The generator handed to strategies while running a test.
///
/// Deterministically seeded from the test's full name (and the
/// `PROPTEST_SEED` environment variable, if set, to explore other streams).
#[derive(Clone, Debug)]
pub struct TestRng {
    inner: StdRng,
}

impl TestRng {
    /// Seeds the RNG from a test name so runs are reproducible.
    pub fn deterministic(test_name: &str) -> TestRng {
        // FNV-1a over the name, mixed with an optional env override.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in test_name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        if let Ok(extra) = std::env::var("PROPTEST_SEED") {
            if let Ok(n) = extra.trim().parse::<u64>() {
                h = h.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
        TestRng {
            inner: StdRng::seed_from_u64(h),
        }
    }

    /// Next raw word.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform `usize` in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        use rand::Rng;
        self.inner.gen_range(0..n)
    }

    /// Uniform `u32` in `[lo, hi]`.
    pub fn in_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        use rand::Rng;
        self.inner.gen_range(lo..=hi)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::TestRng;

    fn words(rng: &mut TestRng) -> Vec<u64> {
        (0..16).map(|_| rng.next_u64()).collect()
    }

    #[test]
    fn the_stream_depends_only_on_the_test_name() {
        let a = words(&mut TestRng::deterministic("mod::prop_a"));
        assert_eq!(a, words(&mut TestRng::deterministic("mod::prop_a")));
        assert_ne!(a, words(&mut TestRng::deterministic("mod::prop_b")));
    }

    #[test]
    fn bounded_draws_stay_in_range() {
        let mut rng = TestRng::deterministic("bounded");
        for _ in 0..2_000 {
            assert!(rng.below(3) < 3);
            assert_eq!(rng.below(1), 0);
            assert!((10..=12).contains(&rng.in_range_u32(10, 12)));
            let u = rng.unit_f64();
            assert!((0.0..1.0).contains(&u), "{u}");
        }
    }
}
