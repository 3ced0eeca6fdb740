//! Bulk mixed-precision conversion kernels.
//!
//! These implement the numeric half of the paper's *delayed in-place
//! mixed-precision gradient conversion* (§3.2): FP16 gradients parked in the
//! host accumulation buffer are upscaled to FP32 on the fly during the
//! update phase, instead of being eagerly upscaled and flushed through the
//! storage tiers during the backward pass. On a modern CPU this conversion
//! sustains tens of GB/s — an order of magnitude above tertiary-storage
//! fetch bandwidth — which is exactly why the delayed strategy wins.

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};
use crate::{par_for_each, PAR_CHUNK};

/// Upscales FP16 (raw bits) to FP32, element by element.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn upscale(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(s);
    }
}

/// `kernel` over `src` → `dst`: one call below [`PAR_CHUNK`] elements
/// (fork/join overhead dominates there), matching `PAR_CHUNK` chunks in
/// parallel from there up.
fn par_chunks<S: Sync, D: Send>(src: &[S], dst: &mut [D], kernel: impl Fn(&[S], &mut [D]) + Sync) {
    if src.len() < PAR_CHUNK {
        return kernel(src, dst);
    }
    par_for_each(dst.chunks_mut(PAR_CHUNK).zip(src.chunks(PAR_CHUNK)), |(d, s)| kernel(s, d));
}

/// Parallel [`upscale`], chunked to amortize scheduling.
pub fn upscale_par(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    par_chunks(src, dst, upscale);
}

/// Downscales FP32 to FP16 bits with round-to-nearest-even.
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
pub fn downscale(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(s);
    }
}

/// Parallel [`downscale`].
pub fn downscale_par(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    par_chunks(src, dst, downscale);
}

/// Upscales `count` FP16 values stored at the *front* of `buf` (little
/// endian, bytes `0..2*count`) into FP32 occupying the whole buffer
/// (`0..4*count`), **in place** — no second buffer is allocated, mirroring
/// the paper's in-place conversion inside the pinned host gradient buffer.
///
/// Iterates backwards so the expanding writes never clobber unread input:
/// the f32 destination of element `i` starts at byte `4i ≥ 2i + 2` for
/// `i ≥ 1`, and element 0 is read before it is overwritten.
///
/// # Panics
///
/// Panics if `buf` is shorter than `4 * count` bytes.
pub fn upscale_in_place(buf: &mut [u8], count: usize) {
    assert!(
        buf.len() >= count * 4,
        "buffer too small for in-place upscale"
    );
    for i in (0..count).rev() {
        let h = u16::from_le_bytes([buf[2 * i], buf[2 * i + 1]]);
        let f = f16_bits_to_f32(h);
        buf[4 * i..4 * i + 4].copy_from_slice(&f.to_le_bytes());
    }
}

/// Inverse of [`upscale_in_place`]: compacts `count` FP32 values occupying
/// `buf[0..4*count]` into FP16 bits at the front (`0..2*count`), in place.
/// Iterates forwards; the shrinking writes trail the reads.
///
/// # Panics
///
/// Panics if `buf` is shorter than `4 * count` bytes.
pub fn downscale_in_place(buf: &mut [u8], count: usize) {
    assert!(
        buf.len() >= count * 4,
        "buffer too small for in-place downscale"
    );
    for i in 0..count {
        let f = f32::from_le_bytes([buf[4 * i], buf[4 * i + 1], buf[4 * i + 2], buf[4 * i + 3]]);
        let h = f32_to_f16_bits(f);
        buf[2 * i..2 * i + 2].copy_from_slice(&h.to_le_bytes());
    }
}

/// Measures sustained FP16→FP32 upscale throughput in bytes of FP16 input
/// per second, used to parameterize the performance model (the paper
/// reports 65 GB/s on Testbed-1).
pub fn measure_upscale_throughput(elements: usize, repeats: usize) -> f64 {
    let src: Vec<u16> = (0..elements).map(|i| (i % 60000) as u16).collect();
    let mut dst = vec![0.0f32; elements];
    let start = std::time::Instant::now();
    for _ in 0..repeats {
        upscale_par(&src, &mut dst);
        std::hint::black_box(&dst);
    }
    let secs = start.elapsed().as_secs_f64();
    (elements * 2 * repeats) as f64 / secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::F16;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn upscale_matches_scalar_conversion() {
        let src: Vec<u16> = (0..1000u32).map(|i| (i * 37) as u16).collect();
        let mut dst = vec![0.0f32; src.len()];
        upscale(&src, &mut dst);
        for (i, &h) in src.iter().enumerate() {
            let expect = F16::from_bits(h).to_f32();
            if expect.is_nan() {
                assert!(dst[i].is_nan());
            } else {
                assert_eq!(dst[i], expect);
            }
        }
    }

    #[test]
    fn downscale_then_upscale_is_idempotent() {
        let vals: Vec<f32> = (0..512).map(|i| (i as f32 - 256.0) * 0.37).collect();
        let mut h = vec![0u16; vals.len()];
        downscale(&vals, &mut h);
        let mut up = vec![0.0f32; vals.len()];
        upscale(&h, &mut up);
        let mut h2 = vec![0u16; vals.len()];
        downscale(&up, &mut h2);
        assert_eq!(h, h2);
    }

    #[test]
    fn parallel_kernels_match_sequential() {
        let src: Vec<u16> = (0..200_000u32).map(|i| (i % 65_536) as u16).collect();
        let mut seq = vec![0.0f32; src.len()];
        let mut par = vec![0.0f32; src.len()];
        upscale(&src, &mut seq);
        upscale_par(&src, &mut par);
        assert_eq!(
            seq.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            par.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );

        let mut dseq = vec![0u16; seq.len()];
        let mut dpar = vec![0u16; seq.len()];
        downscale(&seq, &mut dseq);
        downscale_par(&par, &mut dpar);
        assert_eq!(dseq, dpar);
    }

    #[test]
    fn in_place_upscale_matches_out_of_place() {
        let halves: Vec<u16> = (0..333u32).map(|i| (i * 197) as u16).collect();
        let n = halves.len();
        let mut buf = vec![0u8; n * 4];
        for (i, h) in halves.iter().enumerate() {
            buf[2 * i..2 * i + 2].copy_from_slice(&h.to_le_bytes());
        }
        upscale_in_place(&mut buf, n);
        let mut expect = vec![0.0f32; n];
        upscale(&halves, &mut expect);
        for i in 0..n {
            let got = f32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().unwrap());
            assert_eq!(got.to_bits(), expect[i].to_bits(), "element {i}");
        }
    }

    #[test]
    fn in_place_round_trip() {
        let n = 257;
        let vals: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 64.0).collect();
        let mut buf = vec![0u8; n * 4];
        // Values chosen exactly representable in f16, so the cycle is exact.
        let mut h = vec![0u16; n];
        downscale(&vals, &mut h);
        for (i, hh) in h.iter().enumerate() {
            buf[2 * i..2 * i + 2].copy_from_slice(&hh.to_le_bytes());
        }
        upscale_in_place(&mut buf, n);
        downscale_in_place(&mut buf, n);
        for (i, hh) in h.iter().enumerate() {
            let got = u16::from_le_bytes(buf[2 * i..2 * i + 2].try_into().unwrap());
            assert_eq!(got, *hh, "element {i}");
        }
    }

    #[test]
    fn zero_count_in_place_is_noop() {
        let mut buf = vec![7u8; 16];
        upscale_in_place(&mut buf, 0);
        downscale_in_place(&mut buf, 0);
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    #[should_panic(expected = "buffer too small")]
    fn in_place_upscale_rejects_short_buffer() {
        let mut buf = vec![0u8; 7];
        upscale_in_place(&mut buf, 2);
    }

    #[test]
    fn in_place_equals_out_of_place() {
        cases(DEFAULT_CASES, |g| {
            let halves = g.vec(0..200, |g| g.u64() as u16);
            let n = halves.len();
            let mut buf = vec![0u8; n * 4];
            for (i, h) in halves.iter().enumerate() {
                buf[2 * i..2 * i + 2].copy_from_slice(&h.to_le_bytes());
            }
            upscale_in_place(&mut buf, n);
            let mut expect = vec![0.0f32; n];
            upscale(&halves, &mut expect);
            for i in 0..n {
                let got = f32::from_le_bytes(buf[4 * i..4 * i + 4].try_into().unwrap());
                assert_eq!(got.to_bits(), expect[i].to_bits());
            }
        });
    }
}

/// Fused upscale-and-scale: `dst[i] = f32(src[i]) * scale`, the exact
/// operation the delayed-conversion update path performs (FP16 gradient →
/// FP32 × inverse loss scale) — fusing avoids a second pass over the
/// gradient buffer.
pub fn upscale_scaled(src: &[u16], dst: &mut [f32], scale: f32) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(s) * scale;
    }
}

/// Parallel [`upscale_scaled`].
pub fn upscale_scaled_par(src: &[u16], dst: &mut [f32], scale: f32) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    par_chunks(src, dst, |s, d| upscale_scaled(s, d, scale));
}

/// Fused scale-and-downscale: `dst[i] = f16(src[i] * scale)` (loss scaling
/// applied while producing the FP16 working copy).
pub fn downscale_scaled(src: &[f32], dst: &mut [u16], scale: f32) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f32_to_f16_bits(s * scale);
    }
}

#[cfg(test)]
mod fused_tests {
    use super::*;

    #[test]
    fn fused_upscale_equals_separate_passes() {
        let src: Vec<u16> = (0..500u32).map(|i| (i * 131) as u16).collect();
        let mut fused = vec![0.0f32; src.len()];
        upscale_scaled(&src, &mut fused, 0.25);
        let mut two_pass = vec![0.0f32; src.len()];
        upscale(&src, &mut two_pass);
        for v in &mut two_pass {
            *v *= 0.25;
        }
        for (a, b) in fused.iter().zip(&two_pass) {
            if a.is_nan() {
                assert!(b.is_nan());
            } else {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fused_parallel_matches_scalar() {
        let src: Vec<u16> = (0..150_000u32).map(|i| (i % 60_000) as u16).collect();
        let mut a = vec![0.0f32; src.len()];
        let mut b = vec![0.0f32; src.len()];
        upscale_scaled(&src, &mut a, 1.5);
        upscale_scaled_par(&src, &mut b, 1.5);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn scale_of_one_is_plain_upscale() {
        let src: Vec<u16> = vec![0x3C00, 0x4000, 0xC000]; // 1, 2, -2
        let mut fused = vec![0.0f32; 3];
        upscale_scaled(&src, &mut fused, 1.0);
        assert_eq!(fused, vec![1.0, 2.0, -2.0]);
    }

    #[test]
    fn downscale_scaled_applies_factor_first() {
        let src = [2.0f32, -4.0];
        let mut out = [0u16; 2];
        downscale_scaled(&src, &mut out, 0.5);
        assert_eq!(crate::f16::F16::from_bits(out[0]).to_f32(), 1.0);
        assert_eq!(crate::f16::F16::from_bits(out[1]).to_f32(), -2.0);
    }
}

/// Upscales BF16 (raw bits) to FP32 (exact: BF16 is truncated FP32).
pub fn upscale_bf16(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = crate::bf16::BF16::from_bits(s).to_f32();
    }
}

/// Downscales FP32 to BF16 bits with round-to-nearest-even.
pub fn downscale_bf16(src: &[f32], dst: &mut [u16]) {
    assert_eq!(src.len(), dst.len(), "downscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = crate::bf16::BF16::from_f32(s).to_bits();
    }
}

/// Parallel [`upscale_bf16`].
pub fn upscale_bf16_par(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    par_chunks(src, dst, upscale_bf16);
}

#[cfg(test)]
mod bf16_kernel_tests {
    use super::*;

    #[test]
    fn bf16_round_trip_is_exact_for_bf16_values() {
        let bits: Vec<u16> = (0..2048u32).map(|i| (i * 31) as u16).collect();
        let finite: Vec<u16> = bits
            .iter()
            .copied()
            .filter(|&b| crate::bf16::BF16::from_bits(b).is_finite())
            .collect();
        let mut f = vec![0.0f32; finite.len()];
        upscale_bf16(&finite, &mut f);
        let mut back = vec![0u16; finite.len()];
        downscale_bf16(&f, &mut back);
        assert_eq!(back, finite);
    }

    #[test]
    fn bf16_parallel_matches_scalar() {
        let src: Vec<u16> = (0..150_000u32).map(|i| (i % 50_000) as u16).collect();
        let mut a = vec![0.0f32; src.len()];
        let mut b = vec![0.0f32; src.len()];
        upscale_bf16(&src, &mut a);
        upscale_bf16_par(&src, &mut b);
        assert!(a.iter().zip(&b).all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn bf16_never_overflows_where_f32_does_not() {
        let vals = [1e38f32, -2.5e38, 1e-38];
        let mut bits = vec![0u16; 3];
        downscale_bf16(&vals, &mut bits);
        let mut back = vec![0.0f32; 3];
        upscale_bf16(&bits, &mut back);
        assert!(back.iter().all(|v| v.is_finite()));
        // Relative error within 2⁻⁸.
        for (v, b) in vals.iter().zip(&back) {
            assert!(((v - b) / v).abs() <= 2.0f32.powi(-8));
        }
    }
}
