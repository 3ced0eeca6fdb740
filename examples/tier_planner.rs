//! Tier planner: measure the storage actually attached to this machine and
//! compute the Eq. 1 subgroup distribution for it — the workflow a real
//! deployment runs before training (§3.3: "initially, B_i for each
//! alternative storage is measured using microbenchmarks").
//!
//! ```text
//! cargo run --release --example tier_planner [DIR1 DIR2 ...]
//! ```
//!
//! With directories given, each becomes a real filesystem tier and its
//! bandwidth is measured with actual I/O. Without arguments, two throttled
//! in-memory tiers stand in (a 2 GB/s "NVMe" and a 1 GB/s "PFS").

use std::sync::Arc;

use mlp_offload_suite::mlp_model::shard::{ShardLayout, DEFAULT_SUBGROUP_PARAMS};
use mlp_offload_suite::mlp_model::zoo;
use mlp_offload_suite::mlp_offload::policy::allocation::allocate_counts;
use mlp_offload_suite::mlp_storage::microbench::measure_backend;
use mlp_offload_suite::mlp_storage::{Backend, DirBackend, MemBackend};

fn main() {
    let dirs: Vec<String> = std::env::args().skip(1).collect();

    let backends: Vec<(String, Arc<dyn Backend>)> = if dirs.is_empty() {
        println!("no directories given; using throttled in-memory stand-ins\n");
        vec![
            (
                "mem-nvme (2 GB/s)".into(),
                Arc::new(MemBackend::throttled("mem-nvme", 2e9, 2e9)) as Arc<dyn Backend>,
            ),
            (
                "mem-pfs (1 GB/s)".into(),
                Arc::new(MemBackend::throttled("mem-pfs", 1e9, 1e9)) as Arc<dyn Backend>,
            ),
        ]
    } else {
        dirs.iter()
            .map(|d| {
                let b = DirBackend::new(d.clone(), d).unwrap_or_else(|e| {
                    eprintln!("cannot use {d}: {e}");
                    std::process::exit(1);
                });
                (d.clone(), Arc::new(b) as Arc<dyn Backend>)
            })
            .collect()
    };

    // Microbenchmark each tier (16 MiB blocks, 8 blocks).
    println!("measuring tiers (16 MiB blocks x 8)...");
    let mut weights = Vec::new();
    for (name, backend) in &backends {
        let sample = measure_backend(backend.as_ref(), 16 << 20, 8).unwrap_or_else(|e| {
            eprintln!("cannot measure {name}: {e}");
            std::process::exit(1);
        });
        println!(
            "  {name}: read {:.2} GB/s, write {:.2} GB/s -> B_i = {:.2} GB/s",
            sample.read_bps / 1e9,
            sample.write_bps / 1e9,
            sample.model_bandwidth_bps() / 1e9
        );
        weights.push(sample.model_bandwidth_bps());
    }

    // Plan the 40B model on 4 GPUs: how many subgroups go where (Eq. 1).
    let model = zoo::model_40b();
    let shard = ShardLayout::new(&model, 4);
    let subgroups = shard.subgroups_for_rank(0, DEFAULT_SUBGROUP_PARAMS);
    let counts = allocate_counts(subgroups.len(), &weights);

    println!(
        "\nplan for {} ({} subgroups of {} Mparam per rank):",
        model,
        subgroups.len(),
        DEFAULT_SUBGROUP_PARAMS / 1_000_000
    );
    for ((name, _), count) in backends.iter().zip(&counts) {
        println!(
            "  {name}: {count} subgroups ({:.0}%)",
            *count as f64 / subgroups.len() as f64 * 100.0
        );
    }

    // Emit the DeepSpeed-style JSON snippet (§3.5).
    let tiers: Vec<String> = backends.iter().map(|(n, _)| n.clone()).collect();
    let total: f64 = weights.iter().sum();
    let ratio = weights
        .iter()
        .map(|w| format!("{:.0}", w / total * 100.0))
        .collect::<Vec<_>>()
        .join(":");
    println!(
        "\nDeepSpeed runtime config snippet:\n{}",
        config_snippet(&tiers, &ratio)
    );
}

fn config_snippet(tiers: &[String], ratio: &str) -> String {
    format!(
        "{{ \"mlp_offload\": {{ \"tiers\": [{}], \"ratio\": \"{ratio}\" }} }}",
        tiers
            .iter()
            .map(|t| format!("{t:?}"))
            .collect::<Vec<_>>()
            .join(", ")
    )
}
