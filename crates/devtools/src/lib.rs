//! Dependency-free development support for the workspace.
//!
//! The build environment is fully offline (no crates.io mirror), so the
//! usual `proptest`/`rand` stack is unavailable. This crate provides the
//! three pieces the workspace actually needs from it:
//!
//! * [`Rng`] — a small, fast, *seeded* PRNG (SplitMix64 core) with the
//!   handful of distribution helpers the tests use;
//! * [`prop`] — a property-test runner: N deterministic cases per
//!   property, failure reports that print the case seed so a failing
//!   input can be replayed in isolation;
//! * [`stats`] — order statistics (nearest-rank [`percentile`]) for the
//!   serving harness's latency reporting.
//!
//! Everything is deterministic by construction: the same seed always
//! produces the same case sequence, on every platform.

pub mod prop;
pub mod stats;

pub use stats::percentile;

/// A seeded pseudo-random generator (SplitMix64).
///
/// SplitMix64 passes BigCrush, has a full 2^64 period, and — unlike the
/// xorshift variants used ad hoc elsewhere in the repo — cannot get stuck
/// at zero. Good enough for test-input generation by a wide margin.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Create a generator from a seed. Equal seeds give equal sequences.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn u32(&mut self) -> u32 {
        (self.u64() >> 32) as u32
    }

    /// Next 16-bit value.
    pub fn u16(&mut self) -> u16 {
        (self.u64() >> 48) as u16
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift rejection-free mapping; bias is < 2^-32 for the
        // small ranges used in tests.
        ((self.u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)` over i64.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range");
        lo.wrapping_add(self.below((hi - lo) as u64) as i64)
    }

    /// Uniform in `[lo, hi)` over i32.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        self.range_i64(lo as i64, hi as i64) as i32
    }

    /// A random boolean.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// Pick one element of a non-empty slice.
    pub fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len() as u64) as usize]
    }

    /// Pick an index according to integer weights (proptest's
    /// `prop_oneof![w => ...]` equivalent). Returns the arm index.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u64 = weights.iter().map(|&w| w as u64).sum();
        let mut draw = self.below(total);
        for (i, &w) in weights.iter().enumerate() {
            if draw < w as u64 {
                return i;
            }
            draw -= w as u64;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequences() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        let mut c = Rng::new(43);
        assert_ne!(Rng::new(42).u64(), c.u64());
    }

    #[test]
    fn below_stays_in_range() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            assert!(r.below(13) < 13);
            let v = r.range_i64(-5, 6);
            assert!((-5..6).contains(&v));
        }
    }

    #[test]
    fn weighted_hits_every_arm() {
        let mut r = Rng::new(1);
        let mut hits = [0u32; 3];
        for _ in 0..10_000 {
            hits[r.weighted(&[6, 3, 1])] += 1;
        }
        assert!(hits.iter().all(|&h| h > 0), "{hits:?}");
        assert!(hits[0] > hits[1] && hits[1] > hits[2], "{hits:?}");
    }
}
