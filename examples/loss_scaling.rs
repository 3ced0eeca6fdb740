//! Mixed-precision dynamic loss scaling through the offloaded training
//! loop: start with an absurdly large loss scale, watch the scaler back
//! off past the FP16 overflows, and training recover — with the optimizer
//! state living on two storage tiers throughout.
//!
//! ```text
//! cargo run --release --example loss_scaling
//! ```

use std::sync::Arc;

use mlp_offload_suite::mlp_offload::func::SharedTier;
use mlp_offload_suite::mlp_optim::adam::AdamConfig;
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
use mlp_offload_suite::mlp_train::func_trainer::{train, FuncTrainConfig, RegressionTask};

fn main() {
    let tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("nvme")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("pfs")) as Arc<dyn Backend>, 1.0),
    ];
    let task = RegressionTask::new(128, 64, 2026);

    for (label, scale) in [
        ("sane initial scale (1024)", 1024.0f32),
        ("absurd initial scale (1e8)", 1e8),
    ] {
        let cfg = FuncTrainConfig {
            initial_loss_scale: scale,
            optimizer: AdamConfig {
                lr: 0.05,
                ..AdamConfig::default()
            },
            ..FuncTrainConfig::default()
        };
        let report = train(&task, &tiers, cfg, 80).expect("training");
        println!("{label}:");
        println!(
            "  loss {:.3} -> {:.5} over {} applied iterations",
            report.losses.first().unwrap(),
            report.losses.last().unwrap(),
            report.losses.len() - report.skipped_steps
        );
        println!(
            "  {} overflow steps skipped, final loss scale {:.0}, {} cache hits\n",
            report.skipped_steps, report.final_loss_scale, report.cache_hits
        );
    }
}
