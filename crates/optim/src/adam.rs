//! Adam/AdamW update kernels over FP32 master state.
//!
//! # The formula as implemented
//!
//! With `m`, `v` the moments after this step's decay-and-add,
//!
//! ```text
//! step_size = lr / (1 − β₁ᵗ)          once per call
//! bc2       = 1 / sqrt(1 − β₂ᵗ)       once per call
//! p        −= step_size · (m / (sqrt(v) · bc2 + ε))
//! p        −= lr · weight_decay · p_old        (AdamW, when enabled)
//! ```
//!
//! which is the textbook `p −= lr · m̂ / (sqrt(v̂) + ε)` with `m̂ = m / (1 −
//! β₁ᵗ)`, `v̂ = v / (1 − β₂ᵗ)`: `sqrt(v̂) = sqrt(v) · bc2`, so `ε` is still
//! added to `sqrt(v̂)`. It is the form DeepSpeed's `cpu_adam` and PyTorch's
//! `adam` run — both bias corrections hoisted out of the element loop as
//! two scalars — and it costs one division and one square root per element
//! where the textbook order of operations costs three and one; the divider
//! is what bounds this kernel once the FP16 conversions around it are wide
//! (PR 20's sizing runs, ROADMAP item 5: the one divide alone −13 %, the
//! vector width alone −23 %). The two scalars are computed in `f32` from
//! `(cfg, step)` alone, so fused tiles, `PAR_CHUNK` chunks and the
//! multi-pass reference — which all go through [`adam_elem`](self) — agree
//! bit for bit.
//!
//! The values differ from the textbook order's by rounding only; that order
//! lives on in this module's tests as the closeness reference (the
//! parameter delta stays within 4 `f32` ulp — 4 × 2⁻²³ relative, the eight
//! roundings' worst case — of it evaluated in `f64`).

use mlp_tensor::{par_for_each, PAR_CHUNK};

/// Adam hyper-parameters (defaults match the common LLM pre-training
/// recipe: lr 1e-4, β₁ 0.9, β₂ 0.95, ε 1e-8, no decoupled weight decay).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Denominator fuzz.
    pub eps: f32,
    /// Decoupled (AdamW) weight decay; 0 disables it.
    pub weight_decay: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.95,
            eps: 1e-8,
            weight_decay: 0.0,
        }
    }
}

/// The two bias corrections of step `step` as the scalars the element
/// kernel multiplies by, hoisted out of it (computed once per slice pass):
/// `(lr / (1 − β₁ᵗ), 1 / sqrt(1 − β₂ᵗ))`.
#[inline(always)]
pub(crate) fn adam_bias(cfg: &AdamConfig, step: u64) -> (f32, f32) {
    let bias1 = 1.0 - cfg.beta1.powi(step as i32);
    let bias2 = 1.0 - cfg.beta2.powi(step as i32);
    (cfg.lr / bias1, 1.0 / bias2.sqrt())
}

/// One parameter's Adam update from [`adam_bias`]'s `(step_size, bc2)`.
/// Shared by the multi-pass kernel below and the fused single-pass kernel
/// in [`crate::fused`], so the two paths are bitwise identical by
/// construction.
#[inline(always)]
pub(crate) fn adam_elem(
    cfg: &AdamConfig,
    step_size: f32,
    bc2: f32,
    p: &mut f32,
    momentum: &mut f32,
    variance: &mut f32,
    g: f32,
) {
    let m = cfg.beta1 * *momentum + (1.0 - cfg.beta1) * g;
    let v = cfg.beta2 * *variance + (1.0 - cfg.beta2) * g * g;
    *momentum = m;
    *variance = v;
    let old = *p;
    let mut new = old;
    new -= step_size * (m / (v.sqrt() * bc2 + cfg.eps));
    if cfg.weight_decay != 0.0 {
        new -= cfg.lr * cfg.weight_decay * old;
    }
    *p = new;
}

/// One Adam step over a parameter slice. `step` is 1-based (used for bias
/// correction). All slices must be the same length.
///
/// # Panics
///
/// Panics on length mismatch or `step == 0`.
#[inline(always)]
// lint:allow(transitive-panic): element loop bounded by params.len();
// equal slice lengths asserted on entry (the documented contract)
pub fn adam_step(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
) {
    assert!(step >= 1, "Adam step is 1-based");
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    assert_eq!(
        params.len(),
        momentum.len(),
        "params/momentum length mismatch"
    );
    assert_eq!(
        params.len(),
        variance.len(),
        "params/variance length mismatch"
    );

    let (step_size, bc2) = adam_bias(cfg, step);
    for i in 0..params.len() {
        adam_elem(
            cfg,
            step_size,
            bc2,
            &mut params[i],
            &mut momentum[i],
            &mut variance[i],
            grads[i],
        );
    }
}

/// Parallel [`adam_step`]; bitwise identical to the scalar kernel
/// (each element's update is independent).
pub fn adam_step_par(
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
) {
    assert!(step >= 1, "Adam step is 1-based");
    assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
    if params.len() < PAR_CHUNK {
        return adam_step(cfg, step, params, momentum, variance, grads);
    }
    par_for_each(
        params
            .chunks_mut(PAR_CHUNK)
            .zip(momentum.chunks_mut(PAR_CHUNK))
            .zip(variance.chunks_mut(PAR_CHUNK))
            .zip(grads.chunks(PAR_CHUNK)),
        |(((p, m), v), g)| adam_step(cfg, step, p, m, v, g),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_testkit::{cases, Gen, DEFAULT_CASES};

    fn close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "expected {b} ± {tol}, got {a}");
    }

    /// The textbook order of operations — `m̂ = m / (1 − β₁ᵗ)`, `v̂ = v / (1 −
    /// β₂ᵗ)`, `Δ = lr · m̂ / (sqrt(v̂) + ε)`, three divisions and a square
    /// root — evaluated in `f64` from the moments the kernel stored and the
    /// `f32` bias terms every form starts from: the parameter delta the
    /// one-divide kernel must stay close to.
    fn textbook_delta(cfg: &AdamConfig, step: u64, m: f32, v: f32) -> f64 {
        let bias1 = f64::from(1.0 - cfg.beta1.powi(step as i32));
        let bias2 = f64::from(1.0 - cfg.beta2.powi(step as i32));
        let (m_hat, v_hat) = (f64::from(m) / bias1, f64::from(v) / bias2);
        f64::from(cfg.lr) * m_hat / (v_hat.sqrt() + f64::from(cfg.eps))
    }

    #[test]
    fn one_divide_delta_is_within_4_ulp_of_the_textbook_update() {
        let magnitude = |g: &mut Gen| 10f32.powf(g.range(-6.0f32..1.0));
        cases(4 * DEFAULT_CASES, |g| {
            let cfg = AdamConfig {
                lr: g.range(1e-5f32..1e-1),
                beta1: g.range(0.5f32..0.99),
                beta2: g.range(0.9f32..0.9999),
                eps: 1e-8,
                weight_decay: if g.bool() { 0.0 } else { g.range(1e-3f32..0.2) },
            };
            let step = if g.bool() { g.range(1u64..20) } else { g.range(20u64..100_001) };
            // Moments, gradient and parameter over seven decades, both
            // signs: everything a step computes stays a normal `f32`.
            let signed = |g: &mut Gen| g.range(-1.0f32..1.0) * magnitude(g);
            let (m0, v0, grad, p0) = (signed(g), magnitude(g).powi(2), signed(g), signed(g));

            // From p = 0 the new parameter *is* the negated delta, exactly
            // (and the decay term is zero).
            let (mut p, mut m, mut v) = ([0.0f32], [m0], [v0]);
            adam_step(&cfg, step, &mut p, &mut m, &mut v, &[grad]);
            let delta = -p[0];
            let want = textbook_delta(&cfg, step, m[0], v[0]);
            // 4 ulp as a relative bound, 4 × 2⁻²³ (an ulp being taken at the
            // bottom of its binade): what the kernel's eight roundings —
            // `lr / bias1`, `sqrt(bias2)`, its reciprocal, `sqrt(v)`, `· bc2`,
            // `+ ε`, the division, `· step_size` — add up to at worst.
            let ulp = f64::from(f32::EPSILON) * want.abs();
            assert!(
                (f64::from(delta) - want).abs() <= 4.0 * ulp,
                "delta {delta:e} vs textbook {want:e} ({} ulp) at step {step}, {cfg:?}",
                (f64::from(delta) - want).abs() / ulp
            );

            // From any p the same delta is applied once, and the AdamW decay
            // term is the untouched `lr · weight_decay · p_old`.
            let (mut p, mut m, mut v) = ([p0], [m0], [v0]);
            adam_step(&cfg, step, &mut p, &mut m, &mut v, &[grad]);
            let mut expect = p0 - delta;
            if cfg.weight_decay != 0.0 {
                expect -= cfg.lr * cfg.weight_decay * p0;
            }
            assert_eq!(p[0].to_bits(), expect.to_bits());
        });
    }

    #[test]
    fn first_step_matches_hand_computation() {
        let cfg = AdamConfig {
            lr: 0.1,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
        };
        let mut p = [1.0f32];
        let mut m = [0.0f32];
        let mut v = [0.0f32];
        let g = [0.5f32];
        adam_step(&cfg, 1, &mut p, &mut m, &mut v, &g);
        // m = 0.05, v = 0.00025; m̂ = 0.5, v̂ = 0.25 → Δ = 0.1·0.5/0.5 = 0.1.
        close(m[0], 0.05, 1e-7);
        close(v[0], 0.00025, 1e-7);
        close(p[0], 0.9, 1e-6);
    }

    #[test]
    fn converges_on_quadratic() {
        // Minimize f(x) = (x - 3)², gradient 2(x - 3).
        let cfg = AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        };
        let mut p = [0.0f32];
        let mut m = [0.0f32];
        let mut v = [0.0f32];
        for step in 1..=2000 {
            let g = [2.0 * (p[0] - 3.0)];
            adam_step(&cfg, step, &mut p, &mut m, &mut v, &g);
        }
        close(p[0], 3.0, 0.01);
    }

    #[test]
    fn parallel_matches_scalar_bitwise() {
        let n = 200_000;
        let cfg = AdamConfig::default();
        let grads: Vec<f32> = (0..n).map(|i| ((i % 97) as f32 - 48.0) * 1e-3).collect();
        let mut ps = vec![0.5f32; n];
        let mut ms = vec![0.0f32; n];
        let mut vs = vec![0.0f32; n];
        let (mut pp, mut mp, mut vp) = (ps.clone(), ms.clone(), vs.clone());
        for step in 1..=3 {
            adam_step(&cfg, step, &mut ps, &mut ms, &mut vs, &grads);
            adam_step_par(&cfg, step, &mut pp, &mut mp, &mut vp, &grads);
        }
        assert!(ps.iter().zip(&pp).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(ms.iter().zip(&mp).all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(vs.iter().zip(&vp).all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn weight_decay_shrinks_params_without_gradient() {
        let cfg = AdamConfig {
            lr: 0.1,
            weight_decay: 0.1,
            ..AdamConfig::default()
        };
        let mut p = [1.0f32];
        let mut m = [0.0f32];
        let mut v = [0.0f32];
        adam_step(&cfg, 1, &mut p, &mut m, &mut v, &[0.0]);
        close(p[0], 0.99, 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let cfg = AdamConfig::default();
        adam_step(
            &cfg,
            1,
            &mut [0.0; 2],
            &mut [0.0; 2],
            &mut [0.0; 2],
            &[0.0; 3],
        );
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn step_zero_panics() {
        let cfg = AdamConfig::default();
        adam_step(&cfg, 0, &mut [0.0], &mut [0.0], &mut [0.0], &[0.0]);
    }
}
