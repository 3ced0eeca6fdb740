//! Bulk mixed-precision conversion kernels.
//!
//! These implement the numeric half of the paper's *delayed in-place
//! mixed-precision gradient conversion* (§3.2): FP16 gradients parked in the
//! host accumulation buffer are upscaled to FP32 on the fly during the
//! update phase, instead of being eagerly upscaled and flushed through the
//! storage tiers during the backward pass. The loops below are plain
//! element-wise sweeps over the select-only scalar conversions of
//! [`crate::f16`], which is what lets them vectorize — at whatever width
//! they are compiled for. The sequential kernels ([`upscale`],
//! [`upscale_scaled`], [`downscale`]) are `#[inline(always)]` *bodies*:
//! they run at their caller's width, which is how the fused update tiles
//! and a [`crate::simd::SimdLevel::run`] closure get them at the host's;
//! called bare they are the portable loop. The `*_par` entry points
//! dispatch ([`crate::at_host_width`]) inside each chunk.
//!
//! Measured on one core of the shared 2-vCPU reference box, whose CPU has
//! AVX-512 (`BENCH_update_kernels.json`, three runs): over one
//! cache-resident `PAR_CHUNK` chunk `upscale_scaled` runs at 2.3 Gelem/s
//! portable, 4.2 at `avx2` and 6.4–6.5 at `avx512`, `downscale` at 1.15–1.17,
//! 2.2–2.3 and 4.8–5.2; streaming 1 Mi–16 Mi elements through DRAM at the
//! dispatched width, upscaling runs at 3.3–4.1 Gelem/s (20–25 GB/s of
//! traffic) and downscaling at 3.1–4.1 — two orders of magnitude above the
//! tertiary-storage fetch bandwidths the benchmark emulates, which is
//! exactly why the delayed strategy wins.

use crate::f16::{f16_bits_to_f32, f32_to_f16_bits};
use crate::{at_host_width, par_for_each, PAR_CHUNK};

/// Upscales FP16 (raw bits) to FP32, element by element, at the caller's
/// vector width (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
#[inline(always)]
pub fn upscale(src: &[u16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(s);
    }
}

/// `kernel` over `src` → `dst` at the host's vector width: one call below
/// [`PAR_CHUNK`] elements (fork/join overhead dominates there), matching
/// `PAR_CHUNK` chunks in parallel from there up — dispatched per chunk, so
/// the scoped threads run at width too.
fn par_chunks<S: Sync, D: Send>(src: &[S], dst: &mut [D], kernel: impl Fn(&[S], &mut [D]) + Sync) {
    let kernel = |s: &[S], d: &mut [D]| {
        at_host_width(
            #[inline(always)]
            || kernel(s, d),
        )
    };
    if src.len() < PAR_CHUNK {
        return kernel(src, dst);
    }
    par_for_each(dst.chunks_mut(PAR_CHUNK).zip(src.chunks(PAR_CHUNK)), |(d, s)| kernel(s, d));
}

/// Downscales FP32 to FP16 bits with round-to-nearest-even, at the
/// caller's vector width (see the [module docs](self)).
///
/// # Panics
///
/// Panics if `src` and `dst` differ in length.
#[inline(always)]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::f16::F16;

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
        upscale_scaled(&src, &mut seq, 0.5);
        upscale_scaled_par(&src, &mut par, 0.5);
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

}

/// Fused upscale-and-scale: `dst[i] = f32(src[i]) * scale`, the exact
/// operation the delayed-conversion update path performs (FP16 gradient →
/// FP32 × inverse loss scale) — fusing avoids a second pass over the
/// gradient buffer. Runs at the caller's vector width (see the
/// [module docs](self)).
#[inline(always)]
pub fn upscale_scaled(src: &[u16], dst: &mut [f32], scale: f32) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16_bits_to_f32(s) * scale;
    }
}

/// Parallel [`upscale_scaled`].
pub fn upscale_scaled_par(src: &[u16], dst: &mut [f32], scale: f32) {
    assert_eq!(src.len(), dst.len(), "upscale length mismatch");
    par_chunks(
        src,
        dst,
        #[inline(always)]
        |s, d| upscale_scaled(s, d, scale),
    );
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
}
