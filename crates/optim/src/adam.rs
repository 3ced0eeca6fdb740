//! Adam/AdamW update kernels over FP32 master state.

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

/// Bias-correction terms `1 - βᵏ` for step `k`, hoisted out of the
/// per-element kernel (computed once per slice pass).
#[inline]
pub(crate) fn adam_bias(cfg: &AdamConfig, step: u64) -> (f32, f32) {
    (
        1.0 - cfg.beta1.powi(step as i32),
        1.0 - cfg.beta2.powi(step as i32),
    )
}

/// One parameter's Adam update. Shared by the multi-pass kernel below and
/// the fused single-pass kernel in [`crate::fused`], so the two paths are
/// bitwise identical by construction.
#[inline(always)]
pub(crate) fn adam_elem(
    cfg: &AdamConfig,
    bias1: f32,
    bias2: f32,
    p: &mut f32,
    momentum: &mut f32,
    variance: &mut f32,
    g: f32,
) {
    let m = cfg.beta1 * *momentum + (1.0 - cfg.beta1) * g;
    let v = cfg.beta2 * *variance + (1.0 - cfg.beta2) * g * g;
    *momentum = m;
    *variance = v;
    let m_hat = m / bias1;
    let v_hat = v / bias2;
    let old = *p;
    let mut new = old;
    new -= cfg.lr * m_hat / (v_hat.sqrt() + cfg.eps);
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

    let (bias1, bias2) = adam_bias(cfg, step);
    for i in 0..params.len() {
        adam_elem(
            cfg,
            bias1,
            bias2,
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

    fn close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "expected {b} ± {tol}, got {a}");
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
