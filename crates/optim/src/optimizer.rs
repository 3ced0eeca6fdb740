//! Global gradient-norm clipping, and the [`OptimizerConfig`] alias.
//!
//! Adam is the one optimizer (§3.2's CPU-Adam over the `[params | momentum
//! | variance]` state): every engine, trainer and oracle runs
//! [`crate::adam::adam_step`] on an [`AdamConfig`].

use crate::adam::AdamConfig;

/// The optimizer's hyper-parameters: [`AdamConfig`] under the name
/// `benchmark/src/sut.rs` binds. A contract shim, not a second type — it
/// goes when a `benchmark` issue points sut.rs at `AdamConfig` (ROADMAP
/// item 1).
pub type OptimizerConfig = AdamConfig;

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
