//! Quickstart: train with the optimizer state offloaded through MLP-Offload
//! and verify the result is bit-identical to never offloading at all.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! This exercises the *functional* engine: real FP32 master state moves
//! through two in-memory storage tiers (a fast "NVMe" and a slower "PFS")
//! via the asynchronous I/O layer, gradients stay in FP16 host buffers and
//! are upscaled lazily during the update — the paper's delayed in-place
//! mixed-precision conversion.

use std::sync::Arc;

use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
use mlp_offload_suite::mlp_tensor::F16;

fn main() {
    // A model shard of 8 subgroups x 1000 parameters.
    let subgroups = 8;
    let len = 1000;
    let init = || -> Vec<SubgroupState> {
        (0..subgroups)
            .map(|s| {
                SubgroupState::new(
                    (0..len)
                        .map(|i| ((s * len + i) as f32 * 0.01).sin())
                        .collect(),
                )
            })
            .collect()
    };

    // Two storage tiers with a 2:1 bandwidth ratio, as in the paper's
    // example configuration (§3.5).
    let tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("nvme")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("pfs")) as Arc<dyn Backend>, 1.0),
    ];

    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5); // subgroups rest in all 5 between updates
    let mut engine =
        MlpFuncEngine::new(cfg, adam, &tiers, /* worker */ 0, init()).expect("engine init");

    // Reference: the same training with everything in memory.
    let mut reference = init();

    for iter in 0..5 {
        // Synthetic FP16 gradients (a real trainer would produce these in
        // the backward pass).
        let grads: Vec<Vec<u16>> = (0..subgroups)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        F16::from_f32(((s * len + i + iter) as f32 * 0.13).cos() * 0.05).to_bits()
                    })
                    .collect()
            })
            .collect();

        for (st, g) in reference.iter_mut().zip(&grads) {
            st.apply_update_fp16(&adam, g, 1.0);
        }

        engine.accumulate_gradients(&grads);
        let outcome = engine.update().expect("update");
        println!(
            "iter {iter}: {} fetches, {} cache hits, {} flushes",
            outcome.fetches, outcome.cache_hits, outcome.flushes
        );
    }

    let offloaded = engine.master_params().expect("gather");
    let matches = offloaded
        .iter()
        .zip(&reference)
        .all(|(a, b)| a == &b.params);
    let dist = engine.tier_distribution();
    println!(
        "\nstate distribution: host {:.0}%, nvme {:.0}%, pfs {:.0}%",
        dist.fractions()[0] * 100.0,
        dist.fractions()[1] * 100.0,
        dist.fractions()[2] * 100.0
    );
    assert!(
        matches,
        "offloaded training diverged from the in-memory reference"
    );
    println!("offloaded training is bit-identical to the in-memory reference ✓");
}
