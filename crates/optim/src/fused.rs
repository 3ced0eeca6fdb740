//! Fused single-pass mixed-precision update kernels.
//!
//! The paper's delayed-conversion argument (§3.2) only holds if the host
//! side of the update phase keeps up with the storage tiers: FP16→FP32
//! conversion and the optimizer step must together outrun a tier fetch by
//! a wide margin. The multi-pass composition (`upscale_scaled` →
//! `adam_step_par` → `downscale_par`) sweeps the subgroup state 4–6 times
//! through DRAM and materializes an FP32 gradient buffer per subgroup.
//! The kernels here do what ZeRO-Offload's fused CPU-Adam does — unscale,
//! moment update, parameter step, and FP16 parameter emission in a single
//! `PAR_CHUNK`-chunked pass — via *strip-mined fusion*: each chunk is
//! processed in small L1-resident tiles, and within a tile the three
//! sweeps run back to back over a stack scratch buffer. What the tiles
//! buy: the subgroup-sized state arrays are loaded and stored exactly
//! once, and no FP32 gradient buffer is ever allocated — the scratch is
//! `TILE` (512) elements, 2 KiB, on the stack. Each inner sweep is the
//! very loop of its multi-pass counterpart, and all three vectorize (the
//! conversions are select-only, see [`mlp_tensor::f16`]) — at the widest
//! vector width the host CPU reports: the public entry points run the chunk
//! kernel through [`mlp_tensor::at_host_width`], *inside* each chunk so the
//! scoped threads of the parallel path run at width too, and the chunk
//! kernels with everything under them ([`adam_step`], the `convert` sweeps,
//! the scalar conversions) are `#[inline(always)]` bodies that compile at
//! their caller's width. On one core of the 2-vCPU reference box (AVX-512;
//! `BENCH_update_kernels.json`, three runs) fused Adam over one cache-resident `PAR_CHUNK` chunk runs at
//! 442–451 Melem/s portable, 681–698 at `avx2` and 889–913 at `avx512`; on
//! both cores, dispatched, 1.47–1.51 Gelem/s at 1 Mi elements and 1.28–1.45
//! at 16 Mi (36–42 GB/s of traffic), against 0.57 and 0.74 before the
//! dispatch and the one-divide Adam ([`crate::adam`]).
//!
//! Bit-exactness: a tile *is* the multi-pass composition
//! ([`mlp_tensor::convert::upscale_scaled`] → [`adam_step`] →
//! [`mlp_tensor::convert::downscale`]) applied to a sub-range, and every
//! element's update is independent of the others, so the fused results are
//! bitwise identical (property-tested below); the multi-pass kernels stay
//! as the reference the tests and the benchmark oracle compare against.

// The four entry points take eight arguments each and `benchmark/` calls
// them by these signatures: bundling the slices into a struct would change
// the benchmark's contract for no behaviour.
#![allow(clippy::too_many_arguments)]

use mlp_tensor::{at_host_width, convert, par_for_each, PAR_CHUNK};

use crate::adam::{adam_step, AdamConfig};

/// Elements per L1-resident tile (2 KiB of f32 scratch on the stack).
const TILE: usize = 512;

/// Fused kernel over one `PAR_CHUNK` chunk: FP16-bits gradients, strip-mined
/// into `TILE`-element sub-ranges. This is the *body* — `#[inline(always)]`
/// like everything it calls down to the element loops, so it compiles at its
/// caller's vector width: [`fused_update_fp16`] runs it at the host's, a
/// bare call is the portable kernel, and `update_kernels_baseline` runs it
/// inside [`mlp_tensor::SimdLevel::run`] once per level. Slice lengths are
/// the caller's to match.
#[inline(always)]
// lint:allow(transitive-panic): tile ranges are min-clamped to
// params.len() and all slice lengths are asserted equal by check_lens
// at the public entry
pub fn fused_chunk_fp16(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads_fp16: &[u16],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    let mut scratch = [0.0f32; TILE];
    let mut lo = 0;
    while lo < params.len() {
        let hi = (lo + TILE).min(params.len());
        let g = &mut scratch[..hi - lo];
        convert::upscale_scaled(&grads_fp16[lo..hi], g, inv_scale);
        adam_step(
            cfg,
            step,
            &mut params[lo..hi],
            &mut momentum[lo..hi],
            &mut variance[lo..hi],
            g,
        );
        convert::downscale(&params[lo..hi], &mut fp16_out[lo..hi]);
        lo = hi;
    }
}

/// Fused kernel over one `PAR_CHUNK` chunk: FP32 gradients (the ZeRO-3
/// baseline's eager-conversion data path), strip-mined like
/// [`fused_chunk_fp16`] and a body like it.
#[inline(always)]
// lint:allow(transitive-panic): tile ranges are min-clamped to
// params.len() and all slice lengths are asserted equal by check_lens
// at the public entry
fn fused_chunk_f32(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    let mut scratch = [0.0f32; TILE];
    let mut lo = 0;
    while lo < params.len() {
        let hi = (lo + TILE).min(params.len());
        let g = &mut scratch[..hi - lo];
        for (d, &s) in g.iter_mut().zip(&grads[lo..hi]) {
            *d = s * inv_scale;
        }
        adam_step(
            cfg,
            step,
            &mut params[lo..hi],
            &mut momentum[lo..hi],
            &mut variance[lo..hi],
            g,
        );
        convert::downscale(&params[lo..hi], &mut fp16_out[lo..hi]);
        lo = hi;
    }
}

fn check_lens(params: usize, momentum: usize, variance: usize, grads: usize, out: usize) {
    assert_eq!(params, grads, "params/grads length mismatch");
    assert_eq!(params, momentum, "params/momentum length mismatch");
    assert_eq!(params, variance, "params/variance length mismatch");
    assert_eq!(params, out, "params/fp16_out length mismatch");
}

/// Fused, `PAR_CHUNK`-chunked update from FP16 gradient bits: unscale + moment
/// update + parameter step + FP16 parameter emission in one pass over the
/// state. `step` is 1-based. Bitwise identical to
/// `upscale_scaled` → [`crate::adam::adam_step_par`] → `downscale`.
///
/// # Panics
///
/// Panics on any length mismatch or `step == 0`.
// lint:hot-root — fused optimizer kernel, per-subgroup update sweep
pub fn fused_update_fp16(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads_fp16: &[u16],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    assert!(step >= 1, "Adam step is 1-based");
    check_lens(
        params.len(),
        momentum.len(),
        variance.len(),
        grads_fp16.len(),
        fp16_out.len(),
    );
    // Dispatched inside the chunk, so the scoped threads of the parallel
    // path run at the host's width too.
    let chunk = |p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[u16], out: &mut [u16]| {
        at_host_width(
            #[inline(always)]
            || fused_chunk_fp16(cfg, step, p, m, v, g, inv_scale, out),
        )
    };
    if params.len() < PAR_CHUNK {
        return chunk(params, momentum, variance, grads_fp16, fp16_out);
    }
    par_for_each(
        params
            .chunks_mut(PAR_CHUNK)
            .zip(momentum.chunks_mut(PAR_CHUNK))
            .zip(variance.chunks_mut(PAR_CHUNK))
            .zip(grads_fp16.chunks(PAR_CHUNK))
            .zip(fp16_out.chunks_mut(PAR_CHUNK)),
        |((((p, m), v), g), out)| chunk(p, m, v, g, out),
    );
}

/// [`fused_update_fp16`] for FP32 gradients (used by the functional
/// ZeRO-3 baseline, whose gradients arrive eagerly upscaled from
/// storage). Bitwise identical to scale → step → downscale.
///
/// # Panics
///
/// Panics on any length mismatch or `step == 0`.
// lint:hot-root — fused optimizer kernel, per-subgroup update sweep
pub fn fused_update_f32(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    assert!(step >= 1, "Adam step is 1-based");
    check_lens(
        params.len(),
        momentum.len(),
        variance.len(),
        grads.len(),
        fp16_out.len(),
    );
    let chunk = |p: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], out: &mut [u16]| {
        at_host_width(
            #[inline(always)]
            || fused_chunk_f32(cfg, step, p, m, v, g, inv_scale, out),
        )
    };
    if params.len() < PAR_CHUNK {
        return chunk(params, momentum, variance, grads, fp16_out);
    }
    par_for_each(
        params
            .chunks_mut(PAR_CHUNK)
            .zip(momentum.chunks_mut(PAR_CHUNK))
            .zip(variance.chunks_mut(PAR_CHUNK))
            .zip(grads.chunks(PAR_CHUNK))
            .zip(fp16_out.chunks_mut(PAR_CHUNK)),
        |((((p, m), v), g), out)| chunk(p, m, v, g, out),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adam::adam_step_par;
    use mlp_tensor::{convert, F16};
    use mlp_testkit::{cases, Gen, DEFAULT_CASES};

    /// The multi-pass composition the fused kernel replaces: fill an
    /// FP32 gradient buffer (upscale × inverse loss scale), run the
    /// optimizer pass, then downscale the parameters in a separate pass.
    fn multi_pass_fp16(
        cfg: &AdamConfig,
        step: u64,
        params: &mut [f32],
        momentum: &mut [f32],
        variance: &mut [f32],
        grads_fp16: &[u16],
        inv_scale: f32,
    ) -> Vec<u16> {
        let mut grads = vec![0.0f32; grads_fp16.len()];
        convert::upscale_scaled_par(grads_fp16, &mut grads, inv_scale);
        adam_step_par(cfg, step, params, momentum, variance, &grads);
        let mut out = vec![0u16; params.len()];
        convert::downscale_par(params, &mut out);
        out
    }

    /// Adam without and with decoupled weight decay (the kernel's one
    /// branch).
    fn configs() -> [AdamConfig; 2] {
        [
            AdamConfig::default(),
            AdamConfig {
                weight_decay: 0.01,
                ..AdamConfig::default()
            },
        ]
    }

    fn assert_bits_eq(a: &[f32], b: &[f32], cfg: &AdamConfig) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{cfg:?} [{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn fused_equals_multi_pass_with_and_without_weight_decay() {
        let n = 1000;
        let grads: Vec<u16> = (0..n as u32).map(|i| (i * 131) as u16 % 0x7C00).collect();
        for cfg in configs() {
            for inv_scale in [1.0f32, 0.125, 3.7] {
                let mut a = (
                    (0..n).map(|i| (i as f32).sin()).collect::<Vec<f32>>(),
                    vec![0.01f32; n],
                    vec![0.02f32; n],
                );
                let mut b = a.clone();
                for step in 1..=3u64 {
                    let expect_h = multi_pass_fp16(
                        &cfg, step, &mut a.0, &mut a.1, &mut a.2, &grads, inv_scale,
                    );
                    let mut got_h = vec![0u16; n];
                    fused_update_fp16(
                        &cfg, step, &mut b.0, &mut b.1, &mut b.2, &grads, inv_scale, &mut got_h,
                    );
                    assert_bits_eq(&a.0, &b.0, &cfg);
                    assert_bits_eq(&a.1, &b.1, &cfg);
                    assert_bits_eq(&a.2, &b.2, &cfg);
                    assert_eq!(expect_h, got_h, "{cfg:?} fp16 emission");
                }
            }
        }
    }

    /// FP16 gradient bits that walk the whole pattern space — every
    /// exponent, both signs — with the special values planted every eighth
    /// element: ±0, ±∞, quiet and signalling NaNs, the smallest and the
    /// largest subnormal.
    fn every_kind_of_grad(n: usize) -> Vec<u16> {
        const PLANTED: [u16; 8] = [0, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFD01, 0x0001, 0x83FF];
        (0..n)
            .map(|i| match i % 8 {
                0 => PLANTED[(i / 8) % 8],
                _ => (i as u32).wrapping_mul(2_654_435_761).rotate_left(9) as u16,
            })
            .collect()
    }

    /// One step from finite state at every level the host has, against the
    /// portable one: both kernels, both configs, the lengths around every
    /// loop boundary. One step, because a NaN gradient then meets finite
    /// state only and its payload has one way to propagate.
    #[test]
    fn every_level_is_the_portable_kernel_bit_for_bit() {
        use mlp_tensor::SimdLevel;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, TILE - 1, TILE + 1, 1000, PAR_CHUNK + 1717] {
            let state = (
                (0..n).map(|i| (i as f32).sin()).collect::<Vec<f32>>(),
                (0..n)
                    .map(|i| (i as f32 * 0.7).cos() * 1e-2)
                    .collect::<Vec<f32>>(),
                (0..n).map(|i| (i % 13) as f32 * 1e-4).collect::<Vec<f32>>(),
            );
            let grads_fp16 = every_kind_of_grad(n);
            // The FP32 kernel's own hard cases on top of the widened ones: a
            // binary32 subnormal and a signalling binary32 NaN.
            let mut grads_f32: Vec<f32> = grads_fp16.iter().map(|&h| F16(h).to_f32()).collect();
            let specials = [1e-40, f32::from_bits(0x7F80_0001)].into_iter().cycle();
            for (g, special) in grads_f32.iter_mut().skip(3).step_by(8).zip(specials) {
                *g = special;
            }
            let step = 1 + n as u64 % 7;
            for cfg in configs() {
                let run = |level: SimdLevel, fp16_grads: bool| {
                    let (mut p, mut m, mut v) = state.clone();
                    let mut out = vec![0u16; n];
                    level.run(
                        #[inline(always)]
                        || {
                            let (p, m, v) = (&mut p[..], &mut m[..], &mut v[..]);
                            if fp16_grads {
                                fused_chunk_fp16(&cfg, step, p, m, v, &grads_fp16, 0.37, &mut out)
                            } else {
                                fused_chunk_f32(&cfg, step, p, m, v, &grads_f32, 0.37, &mut out)
                            }
                        },
                    );
                    (bits(&p), bits(&m), bits(&v), out)
                };
                for fp16_grads in [true, false] {
                    let mut levels = SimdLevel::available();
                    let portable =
                        run(levels.next().expect("portable is always there"), fp16_grads);
                    for level in levels {
                        assert!(
                            run(level, fp16_grads) == portable,
                            "{cfg:?} at {}, n = {n}, fp16 gradients: {fp16_grads}",
                            level.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fused_parallel_path_matches_scalar_above_chunk_threshold() {
        let n = PAR_CHUNK + 1717; // forces the parallel path with a ragged tail
        let grads: Vec<u16> = (0..n as u32).map(|i| (i * 197) as u16 % 0x7C00).collect();
        for cfg in configs() {
            let mut a = (vec![0.5f32; n], vec![0.0f32; n], vec![0.0f32; n]);
            let mut b = a.clone();
            let mut ha = vec![0u16; n];
            let mut hb = vec![0u16; n];
            // Scalar reference via the chunk kernel directly.
            fused_chunk_fp16(&cfg, 1, &mut a.0, &mut a.1, &mut a.2, &grads, 0.5, &mut ha);
            fused_update_fp16(&cfg, 1, &mut b.0, &mut b.1, &mut b.2, &grads, 0.5, &mut hb);
            assert_bits_eq(&a.0, &b.0, &cfg);
            assert_eq!(ha, hb, "{cfg:?}");
        }
    }

    #[test]
    fn fused_f32_equals_scale_then_step_then_downscale() {
        let n = 777;
        let grads: Vec<f32> = (0..n).map(|i| ((i % 83) as f32 - 41.0) * 1e-3).collect();
        for cfg in configs() {
            for inv_scale in [1.0f32, 0.25] {
                let mut a = (vec![0.3f32; n], vec![0.1f32; n], vec![0.2f32; n]);
                let mut b = a.clone();

                let mut scaled = grads.clone();
                for g in &mut scaled {
                    *g *= inv_scale;
                }
                adam_step_par(&cfg, 1, &mut a.0, &mut a.1, &mut a.2, &scaled);
                let mut expect_h = vec![0u16; n];
                convert::downscale(&a.0, &mut expect_h);

                let mut got_h = vec![0u16; n];
                fused_update_f32(
                    &cfg, 1, &mut b.0, &mut b.1, &mut b.2, &grads, inv_scale, &mut got_h,
                );
                assert_bits_eq(&a.0, &b.0, &cfg);
                assert_eq!(expect_h, got_h, "{cfg:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_out_panics() {
        let cfg = AdamConfig::default();
        fused_update_fp16(
            &cfg,
            1,
            &mut [0.0; 4],
            &mut [0.0; 4],
            &mut [0.0; 4],
            &[0; 4],
            1.0,
            &mut [0; 3],
        );
    }

    /// FP16 bit patterns biased toward the hard cases: subnormals, zero,
    /// and ordinary finite values (both signs). Infinities/NaNs excluded —
    /// the loss scaler skips those steps before any kernel runs.
    fn grad_bits(g: &mut Gen) -> u16 {
        let either_sign = |g: &mut Gen, m: u16| if g.bool() { m | 0x8000 } else { m };
        match g.range(0u8..4) {
            // subnormal magnitude (exponent 0, nonzero mantissa) ± sign
            0 => {
                let m = g.range(1u16..0x0400);
                either_sign(g, m)
            }
            // any finite value
            1 => {
                let m = g.range(0u16..0x7C00);
                either_sign(g, m)
            }
            2 => 0,
            _ => 0x8000, // -0.0
        }
    }

    fn config(g: &mut Gen) -> AdamConfig {
        let weight_decay = if g.bool() {
            0.0
        } else {
            g.range(0.001f32..0.2)
        };
        AdamConfig {
            weight_decay,
            ..AdamConfig::default()
        }
    }

    /// The acceptance property: for any Adam config, any finite FP16
    /// gradients (subnormals included), any inverse loss scale, and
    /// weight-decay-enabled configs, the fused kernel is bit-identical
    /// to the existing upscale → step → downscale composition.
    #[test]
    fn fused_is_bit_identical_to_multi_pass() {
        cases(DEFAULT_CASES, |g| {
            let cfg = config(g);
            let grads = g.vec(1..300, grad_bits);
            let inv_scale = if g.bool() {
                1.0
            } else {
                g.range(1e-4f32..16.0)
            };
            let step = g.range(1u64..50);
            let n = grads.len();
            let mut a = (
                (0..n)
                    .map(|i| ((i * 7) as f32 * 0.03).cos())
                    .collect::<Vec<f32>>(),
                (0..n).map(|i| (i as f32) * 1e-3).collect::<Vec<f32>>(),
                (0..n).map(|i| (i as f32) * 2e-3).collect::<Vec<f32>>(),
            );
            let mut b = a.clone();
            let expect_h =
                multi_pass_fp16(&cfg, step, &mut a.0, &mut a.1, &mut a.2, &grads, inv_scale);
            let mut got_h = vec![0u16; n];
            fused_update_fp16(
                &cfg, step, &mut b.0, &mut b.1, &mut b.2, &grads, inv_scale, &mut got_h,
            );
            assert_eq!(
                a.0.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                b.0.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                a.1.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                b.1.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(
                a.2.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                b.2.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
            assert_eq!(expect_h, got_h);
        });
    }
}
