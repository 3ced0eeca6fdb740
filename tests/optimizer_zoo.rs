//! Global gradient-norm clipping through the offloaded path must behave
//! exactly as in-memory clipping: the one cross-subgroup coupling of the
//! update phase, computed before the per-subgroup pipeline starts.

use std::sync::Arc;

use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::optimizer::{fp16_grad_sq_norm, grad_clip_factor};
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
use mlp_offload_suite::mlp_tensor::F16;

const SUBGROUPS: usize = 5;
const LEN: usize = 16;

fn tiers() -> Vec<SharedTier> {
    vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 1.0),
        SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
    ]
}

fn states() -> Vec<SubgroupState> {
    (0..SUBGROUPS)
        .map(|s| {
            SubgroupState::new(
                (0..LEN)
                    .map(|i| ((s * LEN + i) as f32 * 0.3).sin())
                    .collect(),
            )
        })
        .collect()
}

fn grads(seed: usize) -> Vec<Vec<u16>> {
    (0..SUBGROUPS)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + seed) as f32).cos() * 0.2).to_bits())
                .collect()
        })
        .collect()
}

#[test]
fn gradient_clipping_matches_in_memory_clipping() {
    let adam = AdamConfig::default();
    let max_norm = 0.5f64;

    let mut engine =
        MlpFuncEngine::new(EngineConfig::mlp_offload(), adam, &tiers(), 0, states()).unwrap();
    engine.set_grad_clip(Some(max_norm));

    let mut reference = states();
    for it in 0..3 {
        let g = grads(it);
        // In-memory reference clipping: global norm over all subgroups.
        let sq: f64 = g.iter().map(|gg| fp16_grad_sq_norm(gg, 1.0)).sum();
        let factor = grad_clip_factor(sq, max_norm);
        assert!(factor < 1.0, "test gradients must actually clip");
        for (st, gg) in reference.iter_mut().zip(&g) {
            st.apply_update_fp16(&adam, gg, factor);
        }
        engine.accumulate_gradients(&g);
        engine.update().unwrap();
    }
    let got = engine.master_params().unwrap();
    for (a, b) in got.iter().zip(&reference) {
        assert_eq!(a, &b.params);
    }
}

#[test]
fn clipping_below_threshold_is_a_noop() {
    let adam = AdamConfig::default();
    let mk = |clip: Option<f64>| {
        let mut e =
            MlpFuncEngine::new(EngineConfig::mlp_offload(), adam, &tiers(), 0, states()).unwrap();
        e.set_grad_clip(clip);
        let tiny: Vec<Vec<u16>> = vec![vec![F16::from_f32(1e-4).to_bits(); LEN]; SUBGROUPS];
        e.accumulate_gradients(&tiny);
        e.update().unwrap();
        e.master_params().unwrap()
    };
    assert_eq!(mk(Some(1e6)), mk(None));
}
