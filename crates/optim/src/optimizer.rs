//! Optimizer zoo behind one state layout.
//!
//! §3.2 exploits that adaptive optimizers update each parameter from its
//! own slot state, making subgroup processing order-free. Every optimizer
//! here uses the same two per-parameter FP32 slots the storage layout
//! serializes (`momentum`, `variance`), so engines and checkpoints are
//! optimizer-agnostic:
//!
//! | optimizer | slot 1 (`momentum`) | slot 2 (`variance`) |
//! |---|---|---|
//! | Adam/AdamW | first moment | second moment |
//! | SGD        | momentum            | unused |
//! | Adagrad    | unused              | squared-gradient accumulator |
//! | Lion       | EMA of updates      | unused |

use mlp_tensor::{par_for_each, PAR_CHUNK};

use crate::adam::{adam_step, AdamConfig};

/// SGD with (optional) momentum and dampening.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SgdConfig {
    /// Learning rate.
    pub lr: f32,
    /// Momentum factor (0 = plain SGD).
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
}

impl Default for SgdConfig {
    fn default() -> Self {
        SgdConfig {
            lr: 1e-2,
            momentum: 0.9,
            weight_decay: 0.0,
        }
    }
}

/// Adagrad.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdagradConfig {
    /// Learning rate.
    pub lr: f32,
    /// Denominator fuzz.
    pub eps: f32,
}

impl Default for AdagradConfig {
    fn default() -> Self {
        AdagradConfig {
            lr: 1e-2,
            eps: 1e-10,
        }
    }
}

/// Lion (evolved sign momentum; Chen et al. 2023).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LionConfig {
    /// Learning rate (typically 3–10× smaller than Adam's).
    pub lr: f32,
    /// Interpolation factor for the update direction.
    pub beta1: f32,
    /// EMA factor for the stored momentum.
    pub beta2: f32,
    /// Decoupled weight decay.
    pub weight_decay: f32,
}

impl Default for LionConfig {
    fn default() -> Self {
        LionConfig {
            lr: 1e-4,
            beta1: 0.9,
            beta2: 0.99,
            weight_decay: 0.0,
        }
    }
}

/// Any supported optimizer with its hyper-parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum OptimizerConfig {
    /// Adam / AdamW.
    Adam(AdamConfig),
    /// SGD with momentum.
    Sgd(SgdConfig),
    /// Adagrad.
    Adagrad(AdagradConfig),
    /// Lion.
    Lion(LionConfig),
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig::Adam(AdamConfig::default())
    }
}

impl From<AdamConfig> for OptimizerConfig {
    fn from(cfg: AdamConfig) -> Self {
        OptimizerConfig::Adam(cfg)
    }
}

impl From<SgdConfig> for OptimizerConfig {
    fn from(cfg: SgdConfig) -> Self {
        OptimizerConfig::Sgd(cfg)
    }
}

impl From<AdagradConfig> for OptimizerConfig {
    fn from(cfg: AdagradConfig) -> Self {
        OptimizerConfig::Adagrad(cfg)
    }
}

impl From<LionConfig> for OptimizerConfig {
    fn from(cfg: LionConfig) -> Self {
        OptimizerConfig::Lion(cfg)
    }
}

/// One parameter's SGD-with-momentum update. Shared with the fused
/// single-pass kernel in [`crate::fused`] so both paths are bitwise
/// identical by construction.
#[inline(always)]
pub(crate) fn sgd_elem(cfg: &SgdConfig, p: &mut f32, slot1: &mut f32, mut g: f32) {
    if cfg.weight_decay != 0.0 {
        g += cfg.weight_decay * *p;
    }
    let v = cfg.momentum * *slot1 + g;
    *slot1 = v;
    *p -= cfg.lr * v;
}

/// One parameter's Adagrad update (shared with [`crate::fused`]).
#[inline(always)]
pub(crate) fn adagrad_elem(cfg: &AdagradConfig, p: &mut f32, slot2: &mut f32, g: f32) {
    *slot2 += g * g;
    *p -= cfg.lr * g / (slot2.sqrt() + cfg.eps);
}

/// One parameter's Lion update (shared with [`crate::fused`]).
#[inline(always)]
pub(crate) fn lion_elem(cfg: &LionConfig, p: &mut f32, slot1: &mut f32, g: f32) {
    let update = cfg.beta1 * *slot1 + (1.0 - cfg.beta1) * g;
    let old = *p;
    let mut new = old;
    new -= cfg.lr * update.signum();
    if cfg.weight_decay != 0.0 {
        new -= cfg.lr * cfg.weight_decay * old;
    }
    *p = new;
    *slot1 = cfg.beta2 * *slot1 + (1.0 - cfg.beta2) * g;
}

impl OptimizerConfig {
    /// Applies one step over a parameter slice (scalar kernel). `step` is
    /// 1-based; `slot1`/`slot2` are the persistent per-parameter state.
    /// `#[inline(always)]`: the fused tiles instantiate it at the host's
    /// vector width (`mlp_tensor::simd`); called bare it is the portable
    /// loop, which is what the multi-pass reference runs.
    #[inline(always)]
    // lint:allow(transitive-panic): element loops bounded by params.len();
    // equal slice lengths asserted on entry (the documented contract)
    pub fn step(
        &self,
        step: u64,
        params: &mut [f32],
        slot1: &mut [f32],
        slot2: &mut [f32],
        grads: &[f32],
    ) {
        assert!(step >= 1, "optimizer step is 1-based");
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        assert_eq!(params.len(), slot1.len(), "params/slot1 length mismatch");
        assert_eq!(params.len(), slot2.len(), "params/slot2 length mismatch");
        match self {
            OptimizerConfig::Adam(cfg) => adam_step(cfg, step, params, slot1, slot2, grads),
            OptimizerConfig::Sgd(cfg) => {
                for i in 0..params.len() {
                    sgd_elem(cfg, &mut params[i], &mut slot1[i], grads[i]);
                }
            }
            OptimizerConfig::Adagrad(cfg) => {
                for i in 0..params.len() {
                    adagrad_elem(cfg, &mut params[i], &mut slot2[i], grads[i]);
                }
            }
            OptimizerConfig::Lion(cfg) => {
                for i in 0..params.len() {
                    lion_elem(cfg, &mut params[i], &mut slot1[i], grads[i]);
                }
            }
        }
    }

    /// Parallel [`OptimizerConfig::step`] (bitwise identical: every
    /// element's update is independent).
    pub fn step_par(
        &self,
        step: u64,
        params: &mut [f32],
        slot1: &mut [f32],
        slot2: &mut [f32],
        grads: &[f32],
    ) {
        assert_eq!(params.len(), grads.len(), "params/grads length mismatch");
        if params.len() < PAR_CHUNK {
            return self.step(step, params, slot1, slot2, grads);
        }
        par_for_each(
            params
                .chunks_mut(PAR_CHUNK)
                .zip(slot1.chunks_mut(PAR_CHUNK))
                .zip(slot2.chunks_mut(PAR_CHUNK))
                .zip(grads.chunks(PAR_CHUNK)),
            |(((p, s1), s2), g)| self.step(step, p, s1, s2, g),
        );
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            OptimizerConfig::Adam(_) => "adam",
            OptimizerConfig::Sgd(_) => "sgd",
            OptimizerConfig::Adagrad(_) => "adagrad",
            OptimizerConfig::Lion(_) => "lion",
        }
    }
}

/// Global gradient-norm clipping: returns the factor to multiply
/// gradients by so their global L2 norm does not exceed `max_norm`.
///
/// The norm spans *all* subgroups, which is the one cross-subgroup
/// coupling in the update phase; engines therefore compute it from the
/// host-resident FP16 accumulation buffers before the per-subgroup
/// pipeline starts, preserving order independence.
pub fn grad_clip_factor(global_sq_norm: f64, max_norm: f64) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let norm = global_sq_norm.sqrt();
    if norm <= max_norm || norm == 0.0 {
        1.0
    } else {
        (max_norm / norm) as f32
    }
}

/// Squared L2 norm of a gradient slice given in FP16 bits (scaled by
/// `inv_scale` first, matching what the optimizer will consume).
pub fn fp16_grad_sq_norm(grads: &[u16], inv_scale: f32) -> f64 {
    grads
        .iter()
        .map(|&h| {
            let g = mlp_tensor::f16::f16_bits_to_f32(h) as f64 * inv_scale as f64;
            g * g
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32, tol: f32) {
        assert!((a - b).abs() <= tol, "expected {b} ± {tol}, got {a}");
    }

    #[test]
    fn sgd_with_momentum_matches_hand_computation() {
        let cfg = OptimizerConfig::Sgd(SgdConfig {
            lr: 0.1,
            momentum: 0.9,
            weight_decay: 0.0,
        });
        let mut p = [1.0f32];
        let mut s1 = [0.0f32];
        let mut s2 = [0.0f32];
        cfg.step(1, &mut p, &mut s1, &mut s2, &[0.5]);
        close(p[0], 0.95, 1e-7); // v = 0.5 → p -= 0.05
        cfg.step(2, &mut p, &mut s1, &mut s2, &[0.5]);
        close(s1[0], 0.95, 1e-7); // v = 0.45 + 0.5
        close(p[0], 0.95 - 0.095, 1e-6);
    }

    #[test]
    fn adagrad_decays_effective_rate() {
        let cfg = OptimizerConfig::Adagrad(AdagradConfig { lr: 0.1, eps: 0.0 });
        let mut p = [0.0f32];
        let mut s1 = [0.0f32];
        let mut s2 = [0.0f32];
        cfg.step(1, &mut p, &mut s1, &mut s2, &[1.0]);
        close(p[0], -0.1, 1e-7); // g/√(g²) = 1
        cfg.step(2, &mut p, &mut s1, &mut s2, &[1.0]);
        close(p[0], -0.1 - 0.1 / 2.0f32.sqrt(), 1e-6);
    }

    #[test]
    fn lion_takes_sign_steps() {
        let cfg = OptimizerConfig::Lion(LionConfig {
            lr: 0.01,
            beta1: 0.9,
            beta2: 0.99,
            weight_decay: 0.0,
        });
        let mut p = [0.0f32];
        let mut s1 = [0.0f32];
        let mut s2 = [0.0f32];
        cfg.step(1, &mut p, &mut s1, &mut s2, &[42.0]);
        close(p[0], -0.01, 1e-7); // magnitude-independent step
        cfg.step(2, &mut p, &mut s1, &mut s2, &[-1e-3]);
        // update = 0.9·EMA + 0.1·g is still positive → step down again.
        close(p[0], -0.02, 1e-7);
    }

    #[test]
    fn all_optimizers_converge_on_quadratic() {
        for cfg in [
            OptimizerConfig::Adam(AdamConfig {
                lr: 0.05,
                ..AdamConfig::default()
            }),
            OptimizerConfig::Sgd(SgdConfig {
                lr: 0.05,
                momentum: 0.5,
                weight_decay: 0.0,
            }),
            OptimizerConfig::Adagrad(AdagradConfig {
                lr: 0.5,
                eps: 1e-10,
            }),
            OptimizerConfig::Lion(LionConfig {
                lr: 0.01,
                ..LionConfig::default()
            }),
        ] {
            let mut p = [0.0f32];
            let mut s1 = [0.0f32];
            let mut s2 = [0.0f32];
            for step in 1..=3000 {
                let g = [2.0 * (p[0] - 3.0)];
                cfg.step(step, &mut p, &mut s1, &mut s2, &g);
            }
            assert!(
                (p[0] - 3.0).abs() < 0.05,
                "{} ended at {}",
                cfg.name(),
                p[0]
            );
        }
    }

    #[test]
    fn parallel_matches_scalar_for_all() {
        let n = 150_000;
        let grads: Vec<f32> = (0..n).map(|i| ((i % 89) as f32 - 44.0) * 1e-3).collect();
        for cfg in [
            OptimizerConfig::Adam(AdamConfig::default()),
            OptimizerConfig::Sgd(SgdConfig::default()),
            OptimizerConfig::Adagrad(AdagradConfig::default()),
            OptimizerConfig::Lion(LionConfig::default()),
        ] {
            let mut a = (vec![0.5f32; n], vec![0.0f32; n], vec![0.0f32; n]);
            let mut b = a.clone();
            cfg.step(1, &mut a.0, &mut a.1, &mut a.2, &grads);
            cfg.step_par(1, &mut b.0, &mut b.1, &mut b.2, &grads);
            assert!(
                a.0.iter()
                    .zip(&b.0)
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "{} parallel mismatch",
                cfg.name()
            );
        }
    }

    #[test]
    fn clip_factor_behaviour() {
        assert_eq!(grad_clip_factor(4.0, 10.0), 1.0); // norm 2 ≤ 10
        close(grad_clip_factor(100.0, 5.0), 0.5, 1e-7); // norm 10 → ×0.5
        assert_eq!(grad_clip_factor(0.0, 1.0), 1.0);
    }

    #[test]
    fn fp16_norm_matches_f32_norm() {
        let vals = [1.0f32, -2.0, 0.5];
        let bits: Vec<u16> = vals
            .iter()
            .map(|&v| mlp_tensor::f16::f32_to_f16_bits(v))
            .collect();
        let sq = fp16_grad_sq_norm(&bits, 1.0);
        close(sq as f32, 1.0 + 4.0 + 0.25, 1e-6);
        let sq_scaled = fp16_grad_sq_norm(&bits, 0.5);
        close(sq_scaled as f32, (1.0 + 4.0 + 0.25) * 0.25, 1e-6);
    }
}
