//! Vector-width dispatch: the bulk kernels' one source, compiled once per
//! width the CPU family has and picked at run time from what the host
//! reports.
//!
//! The workspace is built for the target's baseline — 128-bit SSE2 on
//! x86-64 — so that one binary runs everywhere, while the hosts that run
//! it mostly have 256-bit AVX2 and often AVX-512. [`at_host_width`] runs a
//! closure inside a `#[target_feature(enable = …)]` function chosen by
//! `is_x86_feature_detected!`; everything *inlined into* that function is
//! compiled with its features, so the same safe Rust loop is instantiated
//! once per level and autovectorized at that level's width. No intrinsic,
//! no second source path, nothing to configure.
//!
//! # Levels
//!
//! | level      | target features                           | vector width |
//! |------------|-------------------------------------------|--------------|
//! | `portable` | the build target's own                    | 128 (x86-64) |
//! | `avx2`     | `avx2`                                    | 256          |
//! | `avx512`   | `avx512f`, `avx512bw`, `avx512dq`, `avx512vl` | 512 (`bw`: the kernels' 16-bit lanes) |
//!
//! The lists are minimal on purpose: `fma` is not enabled and nothing in
//! the workspace calls `mul_add`. Targets other than x86-64 have the
//! portable level only.
//!
//! # Every level computes the same bits
//!
//! Rust never contracts `a * b + c` into a fused multiply-add and never
//! reassociates floating-point arithmetic, so a wider instantiation of an
//! element-wise loop performs the portable one's IEEE operations on more
//! lanes at a time. That covers loops whose elements are independent; an
//! ordered reduction (`fp16_grad_sq_norm`'s `f64` sum) gains nothing here
//! and is not dispatched. Tested per level, for every kernel that is.
//!
//! One thing is not arithmetic and IEEE 754 leaves it open: when *both*
//! operands of an operation are NaNs with different payloads, which payload
//! the result carries depends on the instruction encoding (SSE keeps its
//! destination's, VEX its first source's) and on the order the compiler
//! puts the operands in, so it can differ between levels — as it can
//! between compiler versions at one level. A NaN that meets a number
//! propagates identically everywhere, and a result is a NaN at one level
//! exactly when it is at every other.
//!
//! # The inlining contract
//!
//! Inlining *is* the mechanism, and its failure is silent: a loop that is
//! not inlined into the `target_feature` function runs at the portable
//! width and is still correct. So, for callers:
//!
//! * pass a closure marked `#[inline(always)]` whose callees down to the
//!   element loop are `#[inline(always)]` too (across crates there is no
//!   LTO to do it otherwise) — [`crate::convert`]'s sequential kernels and
//!   the scalar conversions of [`crate::f16`] are;
//! * a dispatched body calls bodies, never another dispatching entry point
//!   (`*_par`, the fused update): a nested call into a `target_feature`
//!   function is an inlining barrier;
//! * dispatch *inside* the per-chunk kernel handed to
//!   [`crate::par_for_each`], not around it, so the scoped threads run at
//!   width as well. A call costs a few cached atomic loads.
//!
//! The guard is a number: `update_kernels_baseline` measures the kernels
//! once per level, and a level that measures like `portable` did not
//! inline.
//!
//! # Safety argument
//!
//! Calling a `target_feature` function on a CPU without the feature is
//! undefined behaviour, which is why that call is the module's only
//! `unsafe`. A [`SimdLevel`] can be obtained only from
//! [`SimdLevel::available`] and [`SimdLevel::widest`], which build one
//! behind its `is_x86_feature_detected!` check, and its field is private:
//! a level the host lacks is not a value safe code can hold.

/// One vector width this host can run: obtainable only from
/// [`SimdLevel::available`] or [`SimdLevel::widest`], so holding one proves
/// the CPU has its features (see the [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SimdLevel(Level);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Level {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

/// Narrowest first.
const LEVELS: &[Level] = &[
    Level::Portable,
    #[cfg(target_arch = "x86_64")]
    Level::Avx2,
    #[cfg(target_arch = "x86_64")]
    Level::Avx512,
];

impl Level {
    /// Whether the host CPU has every feature the level enables (std
    /// caches the CPUID probe: a call is an atomic load per feature).
    #[inline]
    fn detected(self) -> bool {
        match self {
            Level::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512bw")
                    && is_x86_feature_detected!("avx512dq")
                    && is_x86_feature_detected!("avx512vl")
            }
        }
    }
}

impl SimdLevel {
    /// Every level the host has, narrowest (`portable`, always present)
    /// first.
    pub fn available() -> impl DoubleEndedIterator<Item = SimdLevel> {
        LEVELS
            .iter()
            .filter(|l| l.detected())
            .map(|&l| SimdLevel(l))
    }

    /// The widest level the host has: what [`at_host_width`] runs at.
    #[inline]
    pub fn widest() -> SimdLevel {
        SimdLevel::available()
            .next_back()
            .unwrap_or(SimdLevel(Level::Portable))
    }

    /// `portable`, `avx2` or `avx512`.
    pub fn name(self) -> &'static str {
        match self.0 {
            Level::Portable => "portable",
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => "avx2",
            #[cfg(target_arch = "x86_64")]
            Level::Avx512 => "avx512",
        }
    }

    /// Runs `f` compiled for this level — as far as `f` is inlined, see the
    /// [inlining contract](self#the-inlining-contract).
    #[inline(always)]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        match self.0 {
            Level::Portable => f(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx2` level is only ever built behind
            // `Level::detected`'s `is_x86_feature_detected!("avx2")`.
            Level::Avx2 => unsafe { avx2(f) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: an `Avx512` level is only ever built behind
            // `Level::detected`'s `is_x86_feature_detected!` checks of
            // all four features `avx512` enables.
            Level::Avx512 => unsafe { avx512(f) },
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl")]
fn avx512<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// Runs `f` at the widest vector width the host CPU has. Bit-identical to
/// calling `f()` (see the [module docs](self)), faster as far as `f` is
/// inlined.
#[inline(always)]
pub fn at_host_width<R>(f: impl FnOnce() -> R) -> R {
    SimdLevel::widest().run(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn portable_is_always_available_and_levels_come_narrowest_first() {
        let names: Vec<&str> = SimdLevel::available().map(SimdLevel::name).collect();
        assert_eq!(names[0], "portable");
        let order = ["portable", "avx2", "avx512"];
        let rank = |n: &str| order.iter().position(|o| *o == n).expect("a known level");
        assert!(
            names.windows(2).all(|w| rank(w[0]) < rank(w[1])),
            "{names:?}"
        );
        assert_eq!(SimdLevel::widest().name(), names[names.len() - 1]);
    }

    /// Under Miri no extension is reported: this is the proof that the
    /// fallback is the plain call and that no `target_feature` function is
    /// reached undetected.
    #[test]
    fn every_available_level_runs_the_closure_once_and_returns_its_value() {
        let src: Vec<u16> = (0..1000).collect();
        for level in SimdLevel::available() {
            let mut calls = 0;
            let sum = level.run(
                #[inline(always)]
                || {
                    calls += 1;
                    src.iter().map(|&s| u64::from(s) * 3).sum::<u64>()
                },
            );
            assert_eq!((calls, sum), (1, 3 * 999 * 1000 / 2), "{}", level.name());
        }
        assert_eq!(at_host_width(|| 7), 7);
    }
}
