//! `train_demo` — end-to-end functional training driven by the paper's
//! DeepSpeed-style JSON configuration (§3.5): measure the tiers, place
//! subgroups per Eq. 1 (or the configured ratio), and train a real
//! regression task with the optimizer state offloaded through actual
//! filesystem directories — `fsync`ed, each tier behind a circuit breaker
//! and a 30 s I/O watchdog, as a deployment would run them.
//!
//! ```text
//! train_demo [CONFIG.json] [ITERATIONS]
//! ```
//!
//! Without arguments, a config pointing at two temporary directories is
//! generated, mirroring the snippet from the paper:
//!
//! ```json
//! { "mlp_offload": { "tiers": ["/tmp/.../nvme", "/tmp/.../pfs"], "ratio": "2:1" } }
//! ```

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Duration;

use mlp_aio::AioConfig;
use mlp_offload::func::SharedTier;
use mlp_offload::EngineConfig;
use mlp_optim::adam::AdamConfig;
use mlp_storage::microbench::measure_backend;
use mlp_storage::{Backend, DirBackend, HealthConfig, TierHealth};
use mlp_trace::TraceSink;
use mlp_train::func_trainer::{train, FuncTrainConfig, RegressionTask};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let iterations: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(60);

    let (json, _tmp_root) = match args.first() {
        Some(path) => (
            std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
            None,
        ),
        None => {
            let root = std::env::temp_dir().join(format!("mlp-train-demo-{}", std::process::id()));
            let nvme = root.join("nvme");
            let pfs = root.join("pfs");
            std::fs::create_dir_all(&nvme).expect("create tier dir");
            std::fs::create_dir_all(&pfs).expect("create tier dir");
            let json = format!(
                "{{ \"mlp_offload\": {{ \"tiers\": [{:?}, {:?}], \"ratio\": \"2:1\" }} }}",
                nvme.display().to_string(),
                pfs.display().to_string()
            );
            println!("no config given; generated:\n{json}\n");
            (json, Some(root))
        }
    };

    let (mut cfg, tier_dirs) = EngineConfig::from_deepspeed_json(&json).unwrap_or_else(|e| {
        eprintln!("bad config: {e}");
        std::process::exit(1);
    });
    let trace = TraceSink::enabled(); // for the `aio.*` retry/timeout counters
                                      // Four host frames for the task's eight subgroups: half of them go
                                      // through the tiers every iteration.
    cfg = cfg.with_host_frames(4).with_trace(trace.clone());

    // Open + microbenchmark each tier (the §3.3 B_i measurement).
    let mut tiers = Vec::new();
    let mut breakers = Vec::new();
    for dir in &tier_dirs {
        let dir_backend = DirBackend::new(dir.clone(), dir).unwrap_or_else(|e| {
            eprintln!("cannot open tier {dir}: {e}");
            std::process::exit(1);
        });
        let backend = Arc::new(dir_backend.with_fsync(true)) as Arc<dyn Backend>;
        let sample = measure_backend(backend.as_ref(), 1 << 20, 4).unwrap_or_else(|e| {
            eprintln!("cannot microbenchmark tier {dir}: {e}");
            std::process::exit(1);
        });
        println!(
            "tier {dir}: read {:.2} GB/s, write {:.2} GB/s",
            sample.read_bps / 1e9,
            sample.write_bps / 1e9
        );
        let health = TierHealth::new(dir.clone(), HealthConfig::default());
        let aio = AioConfig {
            deadline: Some(Duration::from_secs(30)),
            ..AioConfig::default()
        };
        let tier = SharedTier::new(backend, sample.model_bandwidth_bps()).with_aio(aio);
        tiers.push(tier.with_health(Arc::clone(&health)));
        breakers.push(health);
    }

    let task = RegressionTask::new(256, 96, 7);
    let train_cfg = FuncTrainConfig {
        engine: cfg,
        subgroup_len: 32,
        optimizer: AdamConfig {
            lr: 0.05,
            ..AdamConfig::default()
        },
        grad_clip: Some(50.0),
        ..FuncTrainConfig::default()
    };
    println!("\ntraining a 256-parameter regression task, {iterations} iterations...");
    let report = train(&task, &tiers, train_cfg, iterations).expect("training");
    let counters = trace.metrics_snapshot().counters;
    let aio_total = |suffix: &str| -> u64 {
        let ours = |k: &str| k.starts_with("aio.") && k.ends_with(suffix);
        counters.iter().filter(|c| ours(&c.0)).map(|c| c.1).sum()
    };
    // One line per tier: whether its writes went out coded, and the bytes
    // its device moved against the logical bytes the engine asked for.
    let bytes = |dir: &str, meters: &[&str]| -> u64 {
        let ours = |k: &str| meters.iter().any(|m| k == format!("aio.{dir}.{m}"));
        counters.iter().filter(|c| ours(&c.0)).map(|c| c.1).sum()
    };
    for dir in &tier_dirs {
        let device = bytes(dir, &["device_read_bytes", "device_write_bytes"]);
        let logical = bytes(dir, &["read_bytes", "write_bytes"]);
        let coded = bytes(dir, &["device_write_bytes"]) < bytes(dir, &["write_bytes"]);
        println!(
            "tier {dir}: codec {} ({:.3} of raw), device / logical bytes {device} / {logical}",
            if coded { "on" } else { "off" },
            device as f64 / logical.max(1) as f64
        );
    }
    let states: Vec<&str> = breakers.iter().map(|h| h.state().as_str()).collect();
    println!(
        "loss {:.3} -> {:.6}; {} cache hits; {} overflow steps skipped; final loss scale {:.0}; \
         breakers {states:?}; {} op timeouts; {} retries",
        report.losses.first().unwrap(),
        report.losses.last().unwrap(),
        report.cache_hits,
        report.skipped_steps,
        report.final_loss_scale,
        aio_total(".timeouts"),
        aio_total(".retries")
    );

    if let Some(root) = _tmp_root {
        let _ = std::fs::remove_dir_all(root);
    }
}
