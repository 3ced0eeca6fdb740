//! bfloat16: the top 16 bits of an IEEE 754 binary32, with round to
//! nearest even on narrowing.
//!
//! The paper trains in FP16 *or BF16* (§2); BF16 shares the f32 exponent
//! range, so it never overflows where f32 doesn't, at the cost of a 7-bit
//! mantissa.

/// A bfloat16 value, stored as its bit pattern.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct BF16(pub u16);

impl BF16 {
    /// Positive zero.
    pub const ZERO: BF16 = BF16(0);
    /// One.
    pub const ONE: BF16 = BF16(0x3F80);
    /// Positive infinity.
    pub const INFINITY: BF16 = BF16(0x7F80);
    /// A canonical quiet NaN.
    pub const NAN: BF16 = BF16(0x7FC0);

    /// Narrows an `f32` with round-to-nearest-even.
    #[inline]
    pub fn from_f32(x: f32) -> BF16 {
        let bits = x.to_bits();
        if x.is_nan() {
            // Keep a quiet NaN; preserve sign and top payload bits.
            return BF16(((bits >> 16) as u16) | 0x0040);
        }
        let round_bit = 0x8000u32;
        let rem = bits & 0xFFFF;
        let mut hi = (bits >> 16) as u16;
        if rem > round_bit || (rem == round_bit && (hi & 1) == 1) {
            hi = hi.wrapping_add(1); // may carry into exponent/infinity: correct in IEEE encoding
        }
        BF16(hi)
    }

    /// Widens to `f32` exactly.
    #[inline]
    pub fn to_f32(self) -> f32 {
        f32::from_bits((self.0 as u32) << 16)
    }

    /// Raw bit pattern.
    #[inline]
    pub fn to_bits(self) -> u16 {
        self.0
    }

    /// Constructs from a raw bit pattern.
    #[inline]
    pub fn from_bits(bits: u16) -> BF16 {
        BF16(bits)
    }

    /// Whether the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7F80) == 0x7F80 && (self.0 & 0x007F) != 0
    }

    /// Whether the value is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7F80) != 0x7F80
    }
}

impl std::fmt::Debug for BF16 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BF16({} = {:#06x})", self.to_f32(), self.0)
    }
}

impl From<f32> for BF16 {
    fn from(x: f32) -> Self {
        BF16::from_f32(x)
    }
}

impl From<BF16> for f32 {
    fn from(h: BF16) -> Self {
        h.to_f32()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn known_constants() {
        assert_eq!(BF16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(BF16::from_f32(1.0), BF16::ONE);
        assert_eq!(BF16::from_f32(-2.0).to_bits(), 0xC000);
        assert_eq!(BF16::from_f32(f32::INFINITY), BF16::INFINITY);
        assert!(BF16::from_f32(f32::NAN).is_nan());
    }

    #[test]
    fn exhaustive_round_trip() {
        for bits in 0..=u16::MAX {
            let b = BF16::from_bits(bits);
            let back = BF16::from_f32(b.to_f32());
            if b.is_nan() {
                assert!(back.is_nan());
            } else {
                assert_eq!(back.to_bits(), bits, "round trip failed at {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_ties_to_even() {
        // 1.0 + 2⁻⁸ is halfway between BF16(1.0) and the next value; the
        // even mantissa (1.0) wins.
        let tie = f32::from_bits(0x3F80_8000);
        assert_eq!(BF16::from_f32(tie), BF16::ONE);
        // Odd mantissa ties round up.
        let tie_up = f32::from_bits(0x3F81_8000);
        assert_eq!(BF16::from_f32(tie_up).to_bits(), 0x3F82);
    }

    #[test]
    fn overflow_carries_to_infinity() {
        // Largest finite BF16 plus more than half a ULP.
        let max_bf16 = f32::from_bits(0x7F7F_0000);
        let above = f32::from_bits(0x7F7F_C000);
        assert_eq!(BF16::from_f32(max_bf16).to_bits(), 0x7F7F);
        assert_eq!(BF16::from_f32(above), BF16::INFINITY);
    }

    #[test]
    fn exponent_range_matches_f32() {
        cases(DEFAULT_CASES, |g| {
            let x = g.normal_f32();
            // BF16 never overflows a finite normal f32.
            let b = BF16::from_f32(x);
            assert!(b.is_finite() || x.abs() > 3.3e38);
        });
    }

    #[test]
    fn relative_error_bounded() {
        cases(DEFAULT_CASES, |g| {
            let x = g.range(-1e30f32..1e30);
            let b = BF16::from_f32(x).to_f32();
            if x != 0.0 && x.abs() > f32::MIN_POSITIVE {
                // 7 mantissa bits → relative error ≤ 2⁻⁸.
                assert!(((b - x) / x).abs() <= 2.0f32.powi(-8));
            }
        });
    }
}
