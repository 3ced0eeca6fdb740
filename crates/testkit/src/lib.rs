#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Seeded test-case generation for the workspace's property tests.
//!
//! A property is a plain `#[test]` that calls [`cases`] with a case count
//! and a closure; the closure draws its inputs from a [`Gen`] (SplitMix64)
//! and asserts. Case `i` always sees the same inputs, so a failure is
//! reproducible from the case number in the panic message — there is no
//! shrinking and no regression file: a case worth keeping becomes an
//! explicit pinned test next to the property.
//!
//! Time in a test is a [`ManualClock`]: see [`clock`].

pub mod clock;

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

pub use clock::{EndOfTime, ManualClock, Waiters};

/// Case count of a property that does not pin its own.
pub const DEFAULT_CASES: u64 = 256;

/// Runs `property` on cases `0..n`, each over its own [`Gen::new`]`(case)`.
///
/// # Panics
///
/// Panics on the first failing case, naming it ahead of its own message.
pub fn cases(n: u64, mut property: impl FnMut(&mut Gen)) {
    for case in 0..n {
        let mut gen = Gen::new(case);
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| property(&mut gen))) {
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("(non-string panic)");
            panic!(
                "property failed on case {case} of {n} (replay with Gen::new({case})): {message}"
            );
        }
    }
}

/// A SplitMix64 stream of test inputs.
pub struct Gen(u64);

impl Gen {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Gen(seed)
    }

    /// Any `u64` (truncate with `as` for any narrower integer).
    pub fn u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Either boolean.
    pub fn bool(&mut self) -> bool {
        self.u64() & 1 == 1
    }

    /// A value in `range` (half-open, must not be empty).
    pub fn range<T: Sample>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// A vector whose length is drawn from `len` and whose items come from
    /// `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        (0..self.range(len)).map(|_| item(self)).collect()
    }

    /// Any normal `f32` (either sign, every exponent; no zero, subnormal,
    /// infinity or NaN).
    pub fn normal_f32(&mut self) -> f32 {
        let bits = self.u64() as u32;
        let exponent = 1 + (bits >> 23) % 254;
        f32::from_bits((bits & 0x807F_FFFF) | (exponent << 23))
    }
}

/// Types [`Gen::range`] can draw.
pub trait Sample: Sized {
    /// A value in `range`.
    fn sample(gen: &mut Gen, range: Range<Self>) -> Self;
}

macro_rules! sample_int {
    ($($ty:ty),+) => {$(
        impl Sample for $ty {
            fn sample(gen: &mut Gen, range: Range<$ty>) -> $ty {
                assert!(range.start < range.end, "empty range");
                range.start + (gen.u64() % (range.end - range.start) as u64) as $ty
            }
        }
    )+};
}
sample_int!(u8, u16, u64, usize);

macro_rules! sample_float {
    ($($ty:ty),+) => {$(
        impl Sample for $ty {
            fn sample(gen: &mut Gen, range: Range<$ty>) -> $ty {
                assert!(range.start < range.end, "empty range");
                let unit = (gen.u64() >> 11) as f64 / (1u64 << 53) as f64;
                let x = (range.start as f64 + (range.end as f64 - range.start as f64) * unit) as $ty;
                // Rounding may land on the excluded end.
                if x < range.end { x } else { range.start }
            }
        }
    )+};
}
sample_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible_and_ranges_are_honoured() {
        let (mut a, mut b) = (Gen::new(7), Gen::new(7));
        assert_eq!(a.vec(3..4, Gen::u64), b.vec(3..4, Gen::u64));
        cases(DEFAULT_CASES, |g| {
            assert!((5..9).contains(&g.range(5u16..9)));
            assert!((0.001..0.2).contains(&g.range(0.001f32..0.2)));
            assert!((100.0..10_000.0).contains(&g.range(100.0f64..10_000.0)));
            assert!((1..12).contains(&g.vec(1..12, Gen::bool).len()));
            assert!(g.normal_f32().is_normal());
        });
    }

    #[test]
    fn every_value_of_a_small_range_and_both_signs_come_up() {
        let mut g = Gen::new(0);
        let seen: std::collections::BTreeSet<u8> = (0..200).map(|_| g.range(0u8..4)).collect();
        assert_eq!(seen.len(), 4);
        let normals = g.vec(64..65, Gen::normal_f32);
        assert!(normals.iter().any(|x| *x < 0.0) && normals.iter().any(|x| *x > 0.0));
    }

    #[test]
    fn a_failing_case_is_named_in_the_panic_message() {
        let panic = catch_unwind(|| cases(10, |g| assert!(g.u64() != Gen::new(3).u64(), "boom")))
            .expect_err("case 3 fails");
        let message = panic.downcast_ref::<String>().expect("formatted message");
        assert!(
            message.contains("case 3 of 10") && message.contains("boom"),
            "{message}"
        );
    }
}
