//! IEEE 754 binary16 ("half precision") implemented from scratch.
//!
//! The offloading engines move FP16 model parameters and gradients between
//! device, host, and storage tiers, and the delayed-conversion optimization
//! upscales FP16 gradients to FP32 on the fly during the update phase. We
//! implement the format ourselves (rather than depending on the `half`
//! crate) because the conversion *is* part of the system under study.
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//!
//! Both conversions are *select-only*: every candidate result is computed
//! unconditionally with integer and floating-point arithmetic and compares
//! pick one, so there is no data-dependent branch and every bulk loop over
//! them ([`crate::convert`], the fused update tiles, gradient accumulation)
//! autovectorizes from this one source path — no `std::arch` intrinsic, no
//! second implementation. The path is *instantiated* once per vector width:
//! the scalar conversions are `#[inline(always)]`, and [`crate::simd`] runs
//! the loops over them inside a `target_feature` function picked from what
//! the host CPU reports (baseline x86-64, AVX2, AVX-512), which is also
//! where the workspace's only conversion-related `unsafe` lives — the call
//! into that function, behind its detection. The algorithms lean on the
//! hardware's own rounding (a multiplication by `2¹¹²` renormalizes
//! subnormals, an addition of `0.5` rounds to the subnormal grid), so they
//! assume the default floating-point environment: round to nearest, no
//! flush-to-zero or denormals-are-zero — which Rust code is entitled to
//! assume, nothing in this workspace changes, and no vector width alters.
//! The branchy scalar versions they replaced live on in this module's tests
//! as the reference: widening is compared bit for bit on all 2¹⁶ inputs,
//! narrowing on a boundary grid plus a million random patterns, both again
//! through the bulk loops at every level the host has, and narrowing on all
//! 2³² inputs (scalar and per level) in an `#[ignore]`d sweep.

/// A 16-bit IEEE 754 binary16 value, stored as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct F16(pub u16);

const SIGN_MASK: u16 = 0x8000;
const EXP_MASK: u16 = 0x7C00;
const MAN_MASK: u16 = 0x03FF;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A canonical quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value (65504.0).
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest positive normal value (2⁻¹⁴ ≈ 6.1035e-5).
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value (2⁻²⁴ ≈ 5.96e-8).
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);

    /// Converts an `f32` with IEEE round-to-nearest-even semantics,
    /// overflowing to infinity and flushing tiny values to (signed) zero.
    #[inline]
    pub fn from_f32(x: f32) -> F16 {
        F16(f32_to_f16_bits(x))
    }

    /// Widens to `f32` exactly (every binary16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        f16_bits_to_f32(self.0)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> F16 {
        F16(bits)
    }

    /// Whether the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & EXP_MASK) == EXP_MASK && (self.0 & MAN_MASK) != 0
    }

    /// Whether the value is finite (neither NaN nor ±∞).
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & EXP_MASK) != EXP_MASK
    }
}

impl std::fmt::Debug for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "F16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl std::fmt::Display for F16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.to_f32())
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(h: F16) -> Self {
        h.to_f32()
    }
}

/// `2¹¹²` as an `f32`: moves a binary16 exponent field sitting in binary32
/// position (bias 15) onto the binary32 bias (127).
const WIDEN_SCALE: f32 = f32::from_bits((127 + 112) << 23);
/// `0.5` as binary32 bits: adding it as a float lines a magnitude below
/// `2⁻¹⁴` up so that its ten binary16 mantissa bits are the low bits of the
/// sum, rounded to nearest even by the addition itself.
const SUBNORMAL_MAGIC: u32 = ((127 - 15) + (23 - 10) + 1) << 23;

/// Converts an `f32` bit-exactly to binary16 bits with round-to-nearest-even.
///
/// Select-only: the three candidates (infinity/NaN, subnormal, normal) are
/// all computed from the magnitude `a` and two compares pick one, so a loop
/// over this function has no data-dependent branch and vectorizes.
///
/// * `a ≥ 2¹⁶` (exponent field ≥ 143, NaNs included): `0x7C00`, or for a NaN
///   `0x7C00 | 0x0200 | payload >> 13` — the forced quiet bit keeps a
///   signalling payload that would truncate to zero a NaN.
/// * `a < 2⁻¹⁴`: `(a + 0.5) − 0.5`, the addition in floating point and the
///   subtraction on the bit patterns. `0.5` has ulp `2⁻²⁴`, the binary16
///   subnormal spacing, so the hardware addition does the rounding; anything
///   at or below `2⁻²⁵` (binary32 subnormals too) becomes zero and the top of
///   the range carries into `0x0400 = 2⁻¹⁴`.
/// * otherwise: rebias the exponent, add `0xFFF` plus the lowest kept
///   mantissa bit (round to nearest, ties to even) and drop 13 bits; a
///   mantissa carry walks into the exponent, up to infinity, as IEEE
///   encoding wants.
///
/// Assumes the default floating-point environment (round to nearest, no
/// flush-to-zero), which Rust code is entitled to and nothing here changes.
#[inline(always)]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let a = bits & 0x7FFF_FFFF;

    let nan = 0x7C00 | 0x0200 | ((a >> 13) & 0x03FF);
    let inf_nan = if a > 0x7F80_0000 { nan } else { 0x7C00 };
    let subnormal = (f32::from_bits(a) + f32::from_bits(SUBNORMAL_MAGIC))
        .to_bits()
        .wrapping_sub(SUBNORMAL_MAGIC);
    // Wrapping: below 2⁻¹⁴ this candidate is garbage and discarded.
    let rebias_and_round = 0x0FFF_u32.wrapping_sub((127 - 15) << 23);
    let normal = a.wrapping_add(rebias_and_round).wrapping_add((a >> 13) & 1) >> 13;

    let finite = if a < (127 - 14) << 23 { subnormal } else { normal };
    let magnitude = if a >= (127 + 16) << 23 { inf_nan } else { finite };
    (sign | magnitude) as u16
}

/// Widens binary16 bits exactly to an `f32`.
///
/// Select-only, like [`f32_to_f16_bits`]: the 15 magnitude bits shifted into
/// binary32 position read as `value × 2⁻¹¹²` (the exponent field is still
/// biased by 15), so one multiplication by `2¹¹²` rebiases normals and —
/// because the product of a binary32 subnormal and a power of two is exact —
/// renormalizes binary16 subnormals too. An all-ones binary16 exponent lands
/// on `2¹⁶`: there the binary32 exponent is filled with ones (±∞), and the
/// quiet bit is set when a mantissa makes it a NaN (payload kept).
///
/// Assumes the default floating-point environment (no denormals-are-zero).
#[inline(always)]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & SIGN_MASK) as u32) << 16;
    let scaled = f32::from_bits(((h & !SIGN_MASK) as u32) << 13) * WIDEN_SCALE;
    let inf_nan = if scaled >= 65536.0 { 0x7F80_0000 } else { 0 };
    let quiet = if scaled > 65536.0 { 0x0040_0000 } else { 0 };
    f32::from_bits(scaled.to_bits() | inf_nan | quiet | sign)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{convert, SimdLevel};
    use mlp_testkit::{cases, Gen, DEFAULT_CASES};

    /// The branchy scalar narrowing the select-only [`f32_to_f16_bits`]
    /// replaced, kept as the reference it must match bit for bit.
    fn reference_f32_to_f16_bits(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Preserve NaN-ness; force the quiet bit so a
            // signalling payload that would truncate to zero stays a NaN.
            return if man == 0 {
                sign | EXP_MASK
            } else {
                sign | EXP_MASK | 0x0200 | ((man >> 13) as u16 & MAN_MASK)
            };
        }

        // Unbiased exponent of the f32 value (normals; subnormal f32 inputs are
        // far below the f16 subnormal range and flush to zero below).
        let unbiased = exp - 127;
        let half_exp = unbiased + 15;

        if half_exp >= 0x1F {
            // Overflow → ±∞.
            return sign | EXP_MASK;
        }

        if half_exp <= 0 {
            // Result is subnormal (or underflows to zero). The implicit leading
            // one must be materialized, then the 24-bit significand is shifted
            // right by (14 - unbiased) with round-to-nearest-even.
            if half_exp < -10 {
                // Below half the smallest subnormal: rounds to signed zero.
                return sign;
            }
            // The result mantissa is round(significand × 2^(unbiased+1)) since
            // value = significand × 2^(unbiased−23) and man16 = value × 2²⁴.
            let significand = man | 0x0080_0000; // implicit bit
            let shift = (-unbiased - 1) as u32; // in [14, 24]
            let halfway = 1u32 << (shift - 1);
            let mask = (1u32 << shift) - 1;
            let mut half_man = (significand >> shift) as u16;
            let rem = significand & mask;
            if rem > halfway || (rem == halfway && (half_man & 1) == 1) {
                half_man += 1; // may carry into the exponent: 0x0400 = 2^-14 ✓
            }
            return sign | half_man;
        }

        // Normal result: keep 10 of the 23 mantissa bits, rounding to nearest
        // even on the discarded 13 bits. The mantissa increment may carry into
        // the exponent, which is exactly correct in IEEE encoding (including a
        // carry to infinity).
        let mut out = sign | ((half_exp as u16) << 10) | ((man >> 13) as u16);
        let rem = man & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (out & 1) == 1) {
            out += 1;
        }
        out
    }

    /// The branchy scalar widening [`f16_bits_to_f32`] replaced.
    fn reference_f16_bits_to_f32(h: u16) -> f32 {
        let sign = ((h & SIGN_MASK) as u32) << 16;
        let exp = ((h & EXP_MASK) >> 10) as u32;
        let man = (h & MAN_MASK) as u32;

        let bits = match exp {
            0 => {
                if man == 0 {
                    sign // ±0
                } else {
                    // Subnormal: value = man × 2⁻²⁴ with the highest set bit of
                    // `man` at position p becoming the implicit bit, so the f32
                    // exponent is p − 24 (biased: 103 + p = 113 − lz).
                    let lz = man.leading_zeros() - 21; // zeros above bit 10 → 10 − p
                    let man = (man << lz) & MAN_MASK as u32; // implicit bit at 10, masked off
                    let exp32 = 113 - lz;
                    sign | (exp32 << 23) | (man << 13)
                }
            }
            0x1F => {
                if man == 0 {
                    sign | 0x7F80_0000 // ±∞
                } else {
                    sign | 0x7FC0_0000 | (man << 13) // NaN, keep payload, quiet
                }
            }
            _ => {
                let exp32 = exp + 127 - 15;
                sign | (exp32 << 23) | (man << 13)
            }
        };
        f32::from_bits(bits)
    }

    fn assert_narrowing_matches_reference(bits: u32) {
        let x = f32::from_bits(bits);
        assert_eq!(
            f32_to_f16_bits(x),
            reference_f32_to_f16_bits(x),
            "narrowing {bits:#010x}"
        );
    }

    #[test]
    fn widening_is_bit_identical_to_the_branchy_reference() {
        // As bits, so NaN payloads, the quiet bit and −0 are compared too.
        for h in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(h).to_bits(),
                reference_f16_bits_to_f32(h).to_bits(),
                "widening {h:#06x}"
            );
        }
    }

    /// Every exponent (zero/subnormal and infinity/NaN ones included)
    /// around every rounding boundary of the 13 dropped mantissa bits, both
    /// signs — ±0, ±∞, quiet and signalling NaNs are all on the grid — and
    /// 2²⁰ seeded patterns.
    fn narrowing_inputs() -> Vec<u32> {
        let mantissas = [0, 1, 0xFFF, 0x1000, 0x1001, 0x1FFF, 0x2000, 0x3000, 0x7F_FFFF];
        let mut g = Gen::new(0xF16);
        (0..=0xFFu32)
            .flat_map(|exp| mantissas.map(|man| (exp << 23) | man))
            .flat_map(|magnitude| [magnitude, 0x8000_0000 | magnitude])
            .chain(std::iter::repeat_with(|| g.u64() as u32).take(1 << 20))
            .collect()
    }

    #[test]
    fn narrowing_is_bit_identical_to_the_branchy_reference() {
        for bits in narrowing_inputs() {
            assert_narrowing_matches_reference(bits);
        }
    }

    /// [`convert::downscale`] over `bits` at every level the host has,
    /// against the branchy reference.
    fn assert_bulk_narrowing_matches_reference(bits: &[u32]) {
        let src: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let want: Vec<u16> = src.iter().map(|&x| reference_f32_to_f16_bits(x)).collect();
        let mut got = vec![0u16; src.len()];
        for level in SimdLevel::available() {
            level.run(
                #[inline(always)]
                || convert::downscale(&src, &mut got),
            );
            if let Some(at) = (0..got.len()).find(|&i| got[i] != want[i]) {
                panic!(
                    "narrowing {:#010x} at {}: {:#06x}, reference {:#06x}",
                    bits[at],
                    level.name(),
                    got[at],
                    want[at]
                );
            }
        }
    }

    /// The bulk loops are the scalar conversions instantiated once per
    /// vector width ([`crate::simd`]): at every level the host has, widening
    /// (plain and scaled) on all 2¹⁶ inputs and narrowing on the grid.
    #[test]
    fn bulk_conversions_match_the_branchy_reference_at_every_level() {
        assert_bulk_narrowing_matches_reference(&narrowing_inputs());
        let halves: Vec<u16> = (0..=u16::MAX).collect();
        for level in SimdLevel::available() {
            let mut plain = vec![0.0f32; halves.len()];
            let mut scaled = vec![0.0f32; halves.len()];
            level.run(
                #[inline(always)]
                || {
                    convert::upscale(&halves, &mut plain);
                    convert::upscale_scaled(&halves, &mut scaled, 0.37);
                },
            );
            for (&h, (p, s)) in halves.iter().zip(plain.iter().zip(&scaled)) {
                let want = reference_f16_bits_to_f32(h);
                assert_eq!(p.to_bits(), want.to_bits(), "widening {h:#06x} at {}", level.name());
                assert_eq!(
                    s.to_bits(),
                    (want * 0.37).to_bits(),
                    "scaled widening {h:#06x} at {}",
                    level.name()
                );
            }
        }
    }

    /// All 2³² inputs, scalar and in bulk at every level the host has,
    /// ≈ 20 s in release on two cores:
    /// `cargo test --release -p mlp-tensor -- --ignored`.
    #[test]
    #[ignore = "full 2^32 sweep per level; run in release"]
    fn narrowing_is_bit_identical_to_the_branchy_reference_for_every_f32() {
        const BLOCK: u32 = 1 << 16;
        crate::par_for_each(0..=0xFFu32, |top| {
            for block in (0..1u32 << 24).step_by(BLOCK as usize) {
                let bits: Vec<u32> = (block..block + BLOCK).map(|low| (top << 24) | low).collect();
                bits.iter().for_each(|&b| assert_narrowing_matches_reference(b));
                assert_bulk_narrowing_matches_reference(&bits);
            }
        });
    }

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-0.0).to_bits(), 0x8000);
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(F16::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(F16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(F16::from_f32(65504.0), F16::MAX);
        assert_eq!(F16::from_f32(f32::INFINITY), F16::INFINITY);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY), F16::NEG_INFINITY);
        assert!(F16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn widening_known_values() {
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::INFINITY.to_f32(), f32::INFINITY);
        assert!(F16::NAN.to_f32().is_nan());
        assert_eq!(F16(0x8000).to_f32().to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        assert_eq!(F16::from_f32(65520.0), F16::INFINITY); // above MAX + ulp/2
        assert_eq!(F16::from_f32(1e9), F16::INFINITY);
        assert_eq!(F16::from_f32(-1e9), F16::NEG_INFINITY);
        // 65519.996 rounds down to MAX.
        assert_eq!(F16::from_f32(65519.0), F16::MAX);
    }

    #[test]
    fn underflow_flushes_to_zero() {
        assert_eq!(F16::from_f32(1e-30).to_bits(), 0x0000);
        assert_eq!(F16::from_f32(-1e-30).to_bits(), 0x8000);
        // Half of the smallest subnormal is a round-to-even tie → zero.
        let half_min_sub = 2.0f32.powi(-25);
        assert_eq!(F16::from_f32(half_min_sub).to_bits(), 0x0000);
        // Just above the tie rounds up to the smallest subnormal.
        let just_above = f32::from_bits(half_min_sub.to_bits() + 1);
        assert_eq!(F16::from_f32(just_above), F16::MIN_POSITIVE_SUBNORMAL);
    }

    #[test]
    fn round_to_nearest_even_ties() {
        // 1 + 2⁻¹¹ is exactly halfway between 1.0 and 1 + 2⁻¹⁰: ties to the
        // even mantissa (1.0).
        let tie = 1.0 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie), F16::ONE);
        // (1 + 2⁻¹⁰) + 2⁻¹¹ ties to even: rounds UP to 1 + 2·2⁻¹⁰.
        let tie_up = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(tie_up).to_bits(), 0x3C02);
        // Slightly above a tie always rounds up.
        let above = 1.0 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_bits(), 0x3C01);
    }

    #[test]
    fn subnormal_round_trip_examples() {
        for k in 1..=10 {
            let v = k as f32 * 2.0f32.powi(-24);
            let h = F16::from_f32(v);
            assert_eq!(h.to_bits(), k as u16, "subnormal {k}·2⁻²⁴");
            assert_eq!(h.to_f32(), v);
        }
    }

    #[test]
    fn mantissa_carry_into_exponent() {
        // Largest mantissa at exponent 0 rounds up across the power-of-two
        // boundary: 1.9995117... + ulp/2 → 2.0.
        let v = f16_bits_to_f32(0x3FFF); // 1.9990234375
        let just_under_2 = v + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(just_under_2).to_bits(), 0x4000);
    }

    #[test]
    fn exhaustive_f16_to_f32_round_trip() {
        // Every non-NaN f16 bit pattern must survive f16 → f32 → f16
        // exactly; NaNs must stay NaNs.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            let back = F16::from_f32(h.to_f32());
            if h.is_nan() {
                assert!(back.is_nan(), "NaN lost at {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "round trip failed at {bits:#06x}");
            }
        }
    }

    #[test]
    fn exhaustive_widening_matches_reference() {
        // Independent reference: reconstruct the value arithmetically.
        for bits in 0..=u16::MAX {
            let h = F16::from_bits(bits);
            if h.is_nan() {
                continue;
            }
            let sign = if bits & 0x8000 != 0 { -1.0f64 } else { 1.0 };
            let exp = ((bits >> 10) & 0x1F) as i32;
            let man = (bits & 0x3FF) as f64;
            let expected = match exp {
                0 => sign * man * 2f64.powi(-24),
                0x1F => sign * f64::INFINITY,
                _ => sign * (1.0 + man / 1024.0) * 2f64.powi(exp - 15),
            };
            assert_eq!(h.to_f32() as f64, expected, "widening {bits:#06x}");
        }
    }

    #[test]
    fn narrowing_error_within_half_ulp() {
        let check = |x: f32| {
            let h = F16::from_f32(x);
            assert!(h.is_finite());
            let back = h.to_f32();
            // Half-ULP bound: ulp(x) for binary16 is 2^(e-10) where e is
            // the exponent of x (clamped to the subnormal scale).
            let e = if x.abs() < 2.0f32.powi(-14) {
                -14
            } else {
                x.abs().log2().floor() as i32
            };
            let half_ulp = 2.0f32.powi(e - 11);
            assert!(
                (back - x).abs() <= half_ulp,
                "x={x}, back={back}, half_ulp={half_ulp}"
            );
        };
        // Pinned: a subnormal-scale input a past run of this property
        // failed on.
        check(7.5688746e-7);
        cases(DEFAULT_CASES, |g| check(g.range(-65504.0f32..65504.0)));
    }

    #[test]
    fn narrowing_is_monotone() {
        cases(DEFAULT_CASES, |g| {
            let (a, b) = (g.range(-65000.0f32..65000.0), g.range(-65000.0f32..65000.0));
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            assert!(F16::from_f32(lo).to_f32() <= F16::from_f32(hi).to_f32());
        });
    }

    #[test]
    fn sign_preserved() {
        cases(DEFAULT_CASES, |g| {
            let x = g.normal_f32();
            let h = F16::from_f32(x);
            if !h.is_nan() {
                assert_eq!(h.to_bits() & SIGN_MASK != 0, x.is_sign_negative());
            }
        });
    }
}
