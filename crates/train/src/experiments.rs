//! One function per paper experiment: each returns the data series behind
//! a table or figure of the evaluation (§3.1 gap analysis and §4), ready
//! to be printed by the `repro` binary (as a table, or as JSON through the
//! rows' `Value::from` conversions at the bottom of this file).
//!
//! Methodology mirrors §4.1 scaled to simulation: each configuration runs
//! [`ITERATIONS`] iterations of which the first [`WARMUP`] are discarded
//! (the paper runs 10 with 2 warmups on real hardware; the simulator is
//! deterministic and reaches steady state after the first cache-warming
//! iteration).

use mlp_model::zoo;
use mlp_model::{ModelConfig, Subgroup};
use mlp_offload::config::AblationStage;
use mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
use mlp_offload::stats::{IoKind, UpdateStats};
use mlp_offload::EngineConfig;
use mlp_sim::Sim;
use mlp_storage::microbench::measure_sim_tier_concurrent;
use mlp_storage::spec::object_store;
use mlp_storage::TierSpec;
use mlp_trace::json::Value;

use crate::compute::gpu_only_iteration_secs;
use crate::driver::{run, summarize, Summary, TrainSetup};
use crate::testbed::{host_memory_tier, testbed1, testbed2, Testbed};

/// Iterations simulated per configuration (the paper runs 10 with 2
/// warmups on hardware, the simulator is deterministic after warmup).
pub const ITERATIONS: usize = 4;
/// Leading iterations excluded from averages.
pub const WARMUP: usize = 2;

/// The two compared approaches (§4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Approach {
    /// DeepSpeed ZeRO-3 + DeepNVMe, NVMe offload only.
    DeepSpeedZero3,
    /// MLP-Offload: all design principles, NVMe + PFS multi-path.
    MlpOffload,
}

impl Approach {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Approach::DeepSpeedZero3 => "DeepSpeed ZeRO-3",
            Approach::MlpOffload => "MLP-Offload",
        }
    }

    /// Engine configuration for this approach.
    pub fn engine_config(self) -> EngineConfig {
        match self {
            Approach::DeepSpeedZero3 => EngineConfig::deepspeed_zero3(),
            Approach::MlpOffload => EngineConfig::mlp_offload(),
        }
    }

    /// Third-level tiers this approach uses on `tb`.
    pub fn tiers(self, tb: &Testbed) -> Vec<TierSpec> {
        match self {
            Approach::DeepSpeedZero3 => vec![tb.nvme.clone()],
            Approach::MlpOffload => vec![tb.nvme.clone(), tb.pfs.clone()],
        }
    }
}

fn run_summary(setup: &TrainSetup) -> Summary {
    let results = run(setup);
    summarize(setup, &results, WARMUP)
}

fn standard_setup(
    tb: &Testbed,
    model: &ModelConfig,
    approach: Approach,
    nodes: usize,
) -> TrainSetup {
    let mut s = TrainSetup::new(
        tb.clone(),
        model.clone(),
        approach.engine_config(),
        approach.tiers(tb),
    );
    s.nodes = nodes;
    s.iterations = ITERATIONS;
    s
}

// ===========================================================================
// §3.1 motivation: 20B GPU-only vs CPU-offload vs NVMe-offload
// ===========================================================================

/// One row of the §3.1 motivation comparison.
#[derive(Clone, Debug)]
pub struct MotivationRow {
    /// Where the optimizer state lives.
    pub configuration: String,
    /// Average iteration seconds.
    pub iteration_s: f64,
    /// Slowdown relative to the GPU-only reference.
    pub slowdown_vs_gpu: f64,
}

/// §3.1: the 20B model trained with state on GPU, host memory, and NVMe.
/// Paper: 0.4 s → 3.7 s → 67 s (~170× slowdown).
pub fn motivation() -> Vec<MotivationRow> {
    let tb = testbed1();
    let model = zoo::model_20b();
    let gpu_s = gpu_only_iteration_secs(&model, &tb.gpu, model.seq_len, tb.gpus_per_node);

    // CPU offload: optimizer state lives in host memory — modelled as a
    // DRAM-speed "tier" with no interleaving penalty and host caching off
    // (every subgroup streams through memory once per update).
    let mut cpu_setup = TrainSetup::new(
        tb.clone(),
        model.clone(),
        EngineConfig::deepspeed_zero3(),
        vec![host_memory_tier()],
    );
    cpu_setup.iterations = ITERATIONS;
    let cpu = run_summary(&cpu_setup);

    // NVMe offload: the DeepSpeed baseline.
    let nvme = run_summary(&standard_setup(&tb, &model, Approach::DeepSpeedZero3, 1));

    vec![
        MotivationRow {
            configuration: "GPU-only (no offload)".into(),
            iteration_s: gpu_s,
            slowdown_vs_gpu: 1.0,
        },
        MotivationRow {
            configuration: "Host-memory offload".into(),
            iteration_s: cpu.total_s,
            slowdown_vs_gpu: cpu.total_s / gpu_s,
        },
        MotivationRow {
            configuration: "NVMe offload (DeepSpeed)".into(),
            iteration_s: nvme.total_s,
            slowdown_vs_gpu: nvme.total_s / gpu_s,
        },
    ]
}

// ===========================================================================
// Fig. 3: update-phase duration and I/O share, host vs SSD offload
// ===========================================================================

/// One bar of Fig. 3.
#[derive(Clone, Debug)]
pub struct Fig3Row {
    /// Model name.
    pub model: String,
    /// `"host"` or `"nvme"`.
    pub offload_target: String,
    /// Average update-phase seconds.
    pub update_s: f64,
    /// Fraction of the update spent waiting on storage I/O.
    pub io_fraction: f64,
}

/// Fig. 3: the 20B host-offloaded update completes ~30× faster than the
/// SSD-offloaded larger models, whose updates are ~99% I/O.
pub fn fig3_update_breakdown() -> Vec<Fig3Row> {
    let tb = testbed1();
    let mut rows = Vec::new();
    for (model, host) in [
        (zoo::model_20b(), true),
        (zoo::model_40b(), false),
        (zoo::model_70b(), false),
        (zoo::model_120b(), false),
    ] {
        let tiers = if host {
            vec![host_memory_tier()]
        } else {
            vec![tb.nvme.clone()]
        };
        let mut setup = TrainSetup::new(
            tb.clone(),
            model.clone(),
            EngineConfig::deepspeed_zero3(),
            tiers,
        );
        setup.iterations = ITERATIONS;
        let s = run_summary(&setup);
        // Pure CPU compute time for the node's updates; the remainder of
        // the phase is I/O wait.
        let cpu_s = model.param_count() as f64 / tb.cpu_update_params_per_s;
        rows.push(Fig3Row {
            model: model.name.clone(),
            offload_target: if host { "host".into() } else { "nvme".into() },
            update_s: s.update_s,
            io_fraction: (1.0 - cpu_s / s.update_s).max(0.0),
        });
    }
    rows
}

// ===========================================================================
// Fig. 4: raw tier throughput under concurrency
// ===========================================================================

/// One point of the Fig. 4 concurrency sweep.
#[derive(Clone, Debug)]
pub struct Fig4Row {
    /// `"nvme"` or `"pfs"`.
    pub tier: String,
    /// Concurrent processes.
    pub procs: usize,
    /// Aggregate read throughput, GB/s.
    pub agg_read_gbps: f64,
    /// Aggregate write throughput, GB/s.
    pub agg_write_gbps: f64,
    /// Mean per-process op latency, seconds.
    pub mean_latency_s: f64,
}

/// Fig. 4: aggregate single-direction throughput stays flat with
/// concurrency while per-process latency grows linearly.
pub fn fig4_concurrency() -> Vec<Fig4Row> {
    let tb = testbed1();
    let mut rows = Vec::new();
    for spec in [&tb.nvme, &tb.pfs] {
        for procs in [1usize, 2, 4, 8] {
            let (sample, latency) = measure_sim_tier_concurrent(spec, 8 << 30, procs);
            rows.push(Fig4Row {
                tier: spec.name.clone(),
                procs,
                agg_read_gbps: sample.read_bps / 1e9,
                agg_write_gbps: sample.write_bps / 1e9,
                mean_latency_s: latency,
            });
        }
    }
    rows
}

// ===========================================================================
// Fig. 5: effective throughput timeline during one update phase
// ===========================================================================

/// One time bin of the Fig. 5 timeline.
#[derive(Clone, Debug)]
pub struct Fig5Point {
    /// Seconds since the start of the update phase (bin midpoint).
    pub t_s: f64,
    /// Read throughput in this bin, GB/s.
    pub read_gbps: f64,
    /// Write throughput in this bin, GB/s.
    pub write_gbps: f64,
}

/// Buckets an update phase's I/O events into `bin_s`-second bins.
pub fn bin_update_events(stats: &UpdateStats, window: (f64, f64), bin_s: f64) -> Vec<Fig5Point> {
    let (start, end) = window;
    let bins = (((end - start) / bin_s).ceil() as usize).max(1);
    let mut read = vec![0.0f64; bins];
    let mut write = vec![0.0f64; bins];
    for e in &stats.events {
        let dur = e.secs().max(1e-12);
        let rate = e.bytes as f64 / dur;
        for b in 0..bins {
            let b_start = start + b as f64 * bin_s;
            let b_end = b_start + bin_s;
            let overlap = (e.end_s.min(b_end) - e.start_s.max(b_start)).max(0.0);
            if overlap <= 0.0 {
                continue;
            }
            match e.kind {
                IoKind::Fetch => read[b] += rate * overlap,
                IoKind::Flush | IoKind::GradFlush => write[b] += rate * overlap,
            }
        }
    }
    (0..bins)
        .map(|b| Fig5Point {
            t_s: (b as f64 + 0.5) * bin_s,
            read_gbps: read[b] / bin_s / 1e9,
            write_gbps: write[b] / bin_s / 1e9,
        })
        .collect()
}

/// Fig. 5: the per-subgroup read/write throughput oscillation of the
/// baseline's 40B NVMe-offloaded update (3 host buffer slots).
pub fn fig5_throughput_timeline() -> Vec<Fig5Point> {
    let tb = testbed1();
    let setup = standard_setup(&tb, &zoo::model_40b(), Approach::DeepSpeedZero3, 1);
    let results = run(&setup);
    let steady = &results[results.len() - 1];
    bin_update_events(&steady.update, steady.update_window, 0.5)
}

// ===========================================================================
// Figs. 7–10: single-node model-size scaling (40B–120B, Testbed-1)
// ===========================================================================

/// One (model, approach) cell of the Fig. 7–10 study.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Model name.
    pub model: String,
    /// Approach label.
    pub approach: String,
    /// Mean forward seconds (Fig. 7).
    pub forward_s: f64,
    /// Mean backward seconds (Fig. 7).
    pub backward_s: f64,
    /// Mean update seconds (Fig. 7).
    pub update_s: f64,
    /// Mean iteration seconds (Fig. 7).
    pub total_s: f64,
    /// Node update throughput, Mparam/s (Fig. 8).
    pub update_mparams_per_s: f64,
    /// Effective I/O throughput, GB/s (Fig. 9).
    pub effective_io_gbps: f64,
    /// Host share of the optimizer state (Fig. 10).
    pub host_fraction: f64,
    /// NVMe share of the optimizer state (Fig. 10).
    pub nvme_fraction: f64,
    /// PFS share of the optimizer state (Fig. 10; 0 for the baseline).
    pub pfs_fraction: f64,
    /// Host-cache hit rate during updates.
    pub cache_hit_rate: f64,
}

/// Runs the single-node model-scaling study behind Figures 7, 8, 9 and 10.
pub fn model_scaling() -> Vec<ScalingRow> {
    let tb = testbed1();
    let mut rows = Vec::new();
    for model in zoo::single_node_set() {
        for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
            let setup = standard_setup(&tb, &model, approach, 1);
            let s = run_summary(&setup);
            let f = &s.distribution_fractions;
            rows.push(ScalingRow {
                model: model.name.clone(),
                approach: approach.label().into(),
                forward_s: s.forward_s,
                backward_s: s.backward_s,
                update_s: s.update_s,
                total_s: s.total_s,
                update_mparams_per_s: s.update_params_per_s / 1e6,
                effective_io_gbps: s.effective_io_bps / 1e9,
                host_fraction: f[0],
                nvme_fraction: f.get(1).copied().unwrap_or(0.0),
                pfs_fraction: f.get(2).copied().unwrap_or(0.0),
                cache_hit_rate: s.cache_hit_rate,
            });
        }
    }
    rows
}

// ===========================================================================
// Figs. 11–12: weak scaling (Testbed-2, 1–8 nodes, 40B–280B)
// ===========================================================================

/// One (nodes, model, approach) cell of the weak-scaling study.
#[derive(Clone, Debug)]
pub struct WeakScalingRow {
    /// Compute nodes (4 GPUs each).
    pub nodes: usize,
    /// Total GPUs.
    pub gpus: usize,
    /// Model name.
    pub model: String,
    /// Approach label.
    pub approach: String,
    /// Mean iteration seconds (Fig. 11).
    pub iteration_s: f64,
    /// Aggregate update throughput across nodes, Mparam/s (Fig. 12).
    pub update_mparams_per_s: f64,
}

/// Figs. 11–12: model size grows with node count (40B/1 → 280B/8 on
/// Testbed-2); MLP-Offload stays up to ~2× faster at scale.
pub fn weak_scaling() -> Vec<WeakScalingRow> {
    let tb = testbed2();
    let cases = [
        (zoo::model_40b(), 1usize),
        (zoo::model_70b(), 2),
        (zoo::model_100b(), 3),
        (zoo::model_130b(), 4),
        (zoo::model_280b(), 8),
    ];
    let mut rows = Vec::new();
    for (model, nodes) in cases {
        for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
            let setup = standard_setup(&tb, &model, approach, nodes);
            let s = run_summary(&setup);
            rows.push(WeakScalingRow {
                nodes,
                gpus: nodes * tb.gpus_per_node,
                model: model.name.clone(),
                approach: approach.label().into(),
                iteration_s: s.total_s,
                // Nodes update their shards in parallel.
                update_mparams_per_s: s.update_params_per_s * nodes as f64 / 1e6,
            });
        }
    }
    rows
}

// ===========================================================================
// Fig. 13: gradient accumulation (40B, Testbed-1)
// ===========================================================================

/// One (accumulation, approach) cell of Fig. 13.
#[derive(Clone, Debug)]
pub struct Fig13Row {
    /// Backward micro-steps per update.
    pub accumulation_steps: usize,
    /// Equivalent global batch size (4 ranks × microbatch 8 × steps).
    pub equivalent_batch: usize,
    /// Approach label.
    pub approach: String,
    /// Mean iteration seconds.
    pub iteration_s: f64,
}

/// Fig. 13: even with 16-step accumulation amortizing the update phase,
/// MLP-Offload stays ≥40% faster than the baseline.
pub fn fig13_grad_accumulation() -> Vec<Fig13Row> {
    let tb = testbed1();
    let model = zoo::model_40b();
    let mut rows = Vec::new();
    for accum in [1usize, 2, 4, 8, 16] {
        for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
            let mut setup = standard_setup(&tb, &model, approach, 1);
            setup.grad_accum_steps = accum;
            setup.microbatch = 8; // the largest that fits (§4.5)
            let s = run_summary(&setup);
            rows.push(Fig13Row {
                accumulation_steps: accum,
                equivalent_batch: 4 * 8 * accum,
                approach: approach.label().into(),
                iteration_s: s.total_s,
            });
        }
    }
    rows
}

// ===========================================================================
// Figs. 14–15: ablations (progressive activation)
// ===========================================================================

/// One (model, stage) cell of the ablation ladders.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// Model name.
    pub model: String,
    /// Stage label (progressively activated).
    pub stage: String,
    /// Whether the PFS path is active.
    pub multipath: bool,
    /// Mean iteration seconds.
    pub iteration_s: f64,
    /// Speedup over the baseline stage of the same figure.
    pub speedup_vs_baseline: f64,
}

fn ablation(models: &[ModelConfig], multipath: bool) -> Vec<AblationRow> {
    let tb = testbed1();
    let mut rows = Vec::new();
    for model in models {
        let mut baseline_s = None;
        for stage in AblationStage::ladder() {
            // The baseline bar is always DeepSpeed on NVMe alone; the
            // optimized stages use the figure's tier set.
            let tiers = if multipath && stage != AblationStage::Baseline {
                vec![tb.nvme.clone(), tb.pfs.clone()]
            } else {
                vec![tb.nvme.clone()]
            };
            let mut setup = TrainSetup::new(tb.clone(), model.clone(), stage.config(), tiers);
            setup.iterations = ITERATIONS;
            let s = run_summary(&setup);
            let base = *baseline_s.get_or_insert(s.total_s);
            rows.push(AblationRow {
                model: model.name.clone(),
                stage: stage.label().into(),
                multipath,
                iteration_s: s.total_s,
                speedup_vs_baseline: base / s.total_s,
            });
        }
    }
    rows
}

/// Fig. 14: progressive activation on node-local NVMe only (up to ~1.6×
/// without a PFS).
pub fn fig14_ablation_nvme() -> Vec<AblationRow> {
    ablation(
        &[zoo::model_40b(), zoo::model_70b(), zoo::model_100b()],
        false,
    )
}

/// Fig. 15: the same ladder with the PFS active; the top stage is full
/// MLP-Offload (~2.5× over the baseline).
pub fn fig15_ablation_pfs() -> Vec<AblationRow> {
    ablation(
        &[zoo::model_40b(), zoo::model_70b(), zoo::model_100b()],
        true,
    )
}

// ===========================================================================
// §3.3 checkpoint pre-staging: what multi-path offloading saves a
// checkpointing engine
// ===========================================================================

/// One row of the checkpoint pre-staging comparison.
#[derive(Clone, Debug)]
pub struct CheckpointRow {
    /// Approach label.
    pub approach: String,
    /// Model name.
    pub model: String,
    /// Fraction of the optimizer state already on persistent tiers at the
    /// iteration boundary.
    pub prestaged_fraction: f64,
    /// Seconds to flush the remainder to the PFS (what a DataStates-style
    /// engine must still move).
    pub checkpoint_flush_s: f64,
}

/// §3.3: "the virtual storage tiers in MLP-Offload also accelerate the
/// checkpointing process by pre-staging a fraction of optimizer states to
/// persistent storage". The baseline keeps everything on the (persistent)
/// NVMe too, but a host-offloaded configuration pre-stages nothing; the
/// interesting deltas are the host-resident fraction and the flush time.
pub fn checkpoint_prestaging() -> Vec<CheckpointRow> {
    let tb = testbed1();
    let mut rows = Vec::new();
    for model in [zoo::model_40b(), zoo::model_100b()] {
        for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
            let setup = standard_setup(&tb, &model, approach, 1);
            let results = run(&setup);
            let dist = &results.last().expect("iterations ran").distribution;
            let report =
                mlp_offload::checkpoint::PrestageReport::from_distribution(dist, &setup.tiers);
            rows.push(CheckpointRow {
                approach: approach.label().into(),
                model: model.name.clone(),
                prestaged_fraction: report.prestaged_fraction(),
                checkpoint_flush_s: report.checkpoint_flush_secs(tb.pfs.write_bps),
            });
        }
    }
    rows
}

// ===========================================================================
// §4.4 cost-effectiveness: 10× fewer GPUs at a ~5× slowdown
// ===========================================================================

/// One row of the §4.4 cost-effectiveness comparison.
#[derive(Clone, Debug)]
pub struct CostRow {
    /// Configuration label.
    pub configuration: String,
    /// GPUs used.
    pub gpus: usize,
    /// Mean iteration seconds.
    pub iteration_s: f64,
    /// Slowdown vs the GPU-only reference.
    pub slowdown_vs_gpu_only: f64,
    /// Cost-effectiveness: GPU-only (gpus × time) over this config's
    /// (gpus × time); >1 means cheaper per iteration.
    pub cost_effectiveness: f64,
}

/// §4.4: training 70B without offloading needs ~80 A100s (24 s/iter);
/// NVMe offloading runs it on 8 GPUs — ZeRO-3 at ~7× slowdown,
/// MLP-Offload at ~4.8×, i.e. ~2× better GPU-seconds per iteration than
/// the GPU-only deployment.
pub fn cost_effectiveness() -> Vec<CostRow> {
    let tb = testbed2();
    let model = zoo::model_70b();
    // GPU-only reference: the paper's 80-GPU deployment at 24 s/iter; the
    // roofline gives the compute floor for the same world size.
    let gpu_only_gpus = 80usize;
    let gpu_only_s =
        crate::compute::gpu_only_iteration_secs(&model, &tb.gpu, model.seq_len, gpu_only_gpus)
            .max(24.0); // communication-bound in practice (paper's measured 24 s)

    let mut rows = vec![CostRow {
        configuration: "GPU-only (no offload)".into(),
        gpus: gpu_only_gpus,
        iteration_s: gpu_only_s,
        slowdown_vs_gpu_only: 1.0,
        cost_effectiveness: 1.0,
    }];
    let reference_cost = gpu_only_gpus as f64 * gpu_only_s;
    for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
        let setup = standard_setup(&tb, &model, approach, 2); // 8 GPUs
        let s = run_summary(&setup);
        let gpus = setup.world_size();
        rows.push(CostRow {
            configuration: format!("{} (NVMe offload, 8 GPUs)", approach.label()),
            gpus,
            iteration_s: s.total_s,
            slowdown_vs_gpu_only: s.total_s / gpu_only_s,
            cost_effectiveness: reference_cost / (gpus as f64 * s.total_s),
        });
    }
    rows
}

// ===========================================================================
// Extension (§5 future work): CXL memory pools as an additional path
// ===========================================================================

/// One row of the CXL-extension study.
#[derive(Clone, Debug)]
pub struct CxlRow {
    /// Tier set label.
    pub tiers: String,
    /// Mean iteration seconds.
    pub iteration_s: f64,
    /// Speedup over the NVMe+PFS MLP-Offload configuration.
    pub speedup_vs_mlp: f64,
}

/// §5: "we next plan to explore parallel I/O paths for next-generation
/// Compute-Express-Link (CXL) memory pools". The virtual-tier design
/// generalizes unchanged: adding a CXL pool as a third path lets Eq. 1
/// absorb most of the optimizer state at memory speeds.
pub fn future_cxl() -> Vec<CxlRow> {
    let tb = testbed1();
    let model = zoo::model_70b();
    let mut rows = Vec::new();
    let mut base = None;
    for (label, tiers) in [
        (
            "NVMe + PFS (MLP-Offload)",
            vec![tb.nvme.clone(), tb.pfs.clone()],
        ),
        (
            "NVMe + PFS + CXL pool",
            vec![
                tb.nvme.clone(),
                tb.pfs.clone(),
                mlp_storage::spec::cxl_pool(),
            ],
        ),
    ] {
        let mut setup = TrainSetup::new(
            tb.clone(),
            model.clone(),
            EngineConfig::mlp_offload(),
            tiers,
        );
        setup.iterations = ITERATIONS;
        let s = run_summary(&setup);
        let b = *base.get_or_insert(s.total_s);
        rows.push(CxlRow {
            tiers: label.into(),
            iteration_s: s.total_s,
            speedup_vs_mlp: b / s.total_s,
        });
    }
    rows
}

// ===========================================================================
// Sensitivity studies (§4.1 configuration choices)
// ===========================================================================

/// One subgroup-size point.
#[derive(Clone, Debug)]
pub struct SubgroupSizeRow {
    /// Parameters per subgroup.
    pub subgroup_mparams: u64,
    /// Approach label.
    pub approach: String,
    /// Mean iteration seconds.
    pub iteration_s: f64,
}

/// §4.1: "smaller subgroups achieve better I/O and compute overlap of
/// offloaded subgroups. Therefore ... a subgroup size of 100 million
/// trainable parameters as opposed to DeepSpeed's default size of 1
/// billion" — sweeps the subgroup size for the 40B model.
pub fn subgroup_size_sweep() -> Vec<SubgroupSizeRow> {
    let tb = testbed1();
    let model = zoo::model_40b();
    let mut rows = Vec::new();
    for mparams in [1000u64, 500, 200, 100, 50] {
        for approach in [Approach::DeepSpeedZero3, Approach::MlpOffload] {
            let mut setup = standard_setup(&tb, &model, approach, 1);
            setup.subgroup_params = mparams * 1_000_000;
            let s = run_summary(&setup);
            rows.push(SubgroupSizeRow {
                subgroup_mparams: mparams,
                approach: approach.label().into(),
                iteration_s: s.total_s,
            });
        }
    }
    rows
}

/// One host-cache-budget point.
#[derive(Clone, Debug)]
pub struct CacheSweepRow {
    /// Fraction of the estimator's free host memory given to the cache.
    pub cache_fraction: f64,
    /// Mean iteration seconds.
    pub iteration_s: f64,
    /// Steady-state hit rate.
    pub cache_hit_rate: f64,
}

/// Host-cache sensitivity for the 40B MLP-Offload configuration: the
/// cacheable fraction is what makes Fig. 9's effective throughput decay
/// with model size, so iteration time must fall monotonically as the
/// cache grows.
pub fn cache_sweep() -> Vec<CacheSweepRow> {
    let tb = testbed1();
    let model = zoo::model_40b();
    let mut rows = Vec::new();
    for fraction in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let mut setup = standard_setup(&tb, &model, Approach::MlpOffload, 1);
        setup.cache_safety_factor = fraction.max(1e-6);
        if fraction == 0.0 {
            setup.engine_cfg.cache_retention = false;
        }
        let s = run_summary(&setup);
        rows.push(CacheSweepRow {
            cache_fraction: fraction,
            iteration_s: s.total_s,
            cache_hit_rate: s.cache_hit_rate,
        });
    }
    rows
}

// ===========================================================================
// §3.3 scenarios: one worker's update phase through a mid-run tier event
// ===========================================================================

/// Subgroups the scenario worker owns (× [`SCENARIO_PARAMS`] × 12 B =
/// 28.8 GB of optimizer state).
const SCENARIO_SUBGROUPS: usize = 24;
/// Parameters per scenario subgroup.
const SCENARIO_PARAMS: u64 = 100_000_000;
/// Update phases per scenario variant.
pub const SCENARIO_ITERS: usize = 20;
/// The update phase before which the tier event (collapse, quarantine)
/// happens.
pub const SCENARIO_EVENT_AT: usize = 6;
/// Trailing update phases averaged as the steady state after the event
/// (leaves the estimator's EMA, migrations and drained placements a few
/// iterations to settle).
pub const SCENARIO_TAIL: usize = 8;
/// Load factor the PFS collapses to in [`adaptive_replan`].
pub const REPLAN_PFS_LOAD_FACTOR: f64 = 0.15;
/// Durable copies the adaptive planner may migrate per iteration.
const REPLAN_MIGRATIONS_PER_ITER: usize = 4;

/// One Testbed-1 worker running update phases alone over `tiers`.
struct ScenarioNode {
    env: NodeSimEnv,
    worker: SimWorker,
}

impl ScenarioNode {
    fn new(tiers: Vec<TierSpec>, cfg: EngineConfig) -> Self {
        let tb = testbed1();
        let sim = Sim::new();
        let env = NodeSimEnv::new(
            &sim,
            &NodeSpec {
                tier_specs: tiers,
                gpus: 1,
                d2h_bps: tb.d2h_bps,
                cpu_update_params_per_s: tb.cpu_update_params_per_s,
                conv_bytes_per_s: tb.conv_bytes_per_s,
            },
        );
        let subgroups = (0..SCENARIO_SUBGROUPS)
            .map(|id| Subgroup {
                id,
                params: SCENARIO_PARAMS,
            })
            .collect();
        let worker = SimWorker::new(env.clone(), 0, cfg, subgroups);
        ScenarioNode { env, worker }
    }

    /// Runs the scenario's update phases, calling `event` before phase
    /// [`SCENARIO_EVENT_AT`]; returns the mean update seconds before the
    /// event and over the last [`SCENARIO_TAIL`] phases.
    fn pre_and_tail_mean_s(&self, mut event: impl FnMut(&Self)) -> (f64, f64) {
        let durations: Vec<f64> = (0..SCENARIO_ITERS)
            .map(|i| {
                if i == SCENARIO_EVENT_AT {
                    event(self);
                }
                let w = self.worker.clone();
                self.env
                    .sim
                    .block_on(async move { w.run_update().await })
                    .duration_s
            })
            .collect();
        let mean = |d: &[f64]| d.iter().sum::<f64>() / d.len() as f64;
        (
            mean(&durations[..SCENARIO_EVENT_AT]),
            mean(&durations[SCENARIO_ITERS - SCENARIO_TAIL..]),
        )
    }
}

/// The MLP-Offload configuration the tier-event scenarios start from: no
/// host retention (isolates the allocation effect) and a static Eq. 1
/// split.
fn static_split_config() -> EngineConfig {
    let mut cfg = EngineConfig::mlp_offload();
    cfg.cache_retention = false;
    cfg.adaptive_bandwidth = false;
    cfg
}

/// One planner variant of the adaptive re-plan scenario.
#[derive(Clone, Debug)]
pub struct ReplanRow {
    /// `static`, `adaptive` or `oracle`.
    pub variant: String,
    /// Mean update seconds before the PFS collapses.
    pub pre_mean_s: f64,
    /// Mean update seconds over the post-collapse tail.
    pub tail_mean_s: f64,
    /// Durable copies the planner migrated between tiers.
    pub migrations: u64,
    /// Share of the oracle's tail win over the static planner that this
    /// variant achieves (0 for `static`, 1 for `oracle`).
    pub recovery_of_oracle_win: f64,
}

/// §3.3 closed loop: NVMe + PFS, and external load collapses the PFS to
/// [`REPLAN_PFS_LOAD_FACTOR`] of its bandwidth mid-run. `static` keeps
/// the construction-time Eq. 1 split (40% of the flushes still go to the
/// collapsed tier); `adaptive` folds observed transfer rates into the
/// estimator, re-splits flushes on them and migrates a bounded number of
/// durable copies per iteration; `oracle` plans for the post-collapse
/// bandwidths from iteration zero (the re-plan quality upper bound).
pub fn adaptive_replan() -> Vec<ReplanRow> {
    let tb = testbed1();
    let mut adaptive = EngineConfig::mlp_offload();
    adaptive.cache_retention = false;
    adaptive.max_migrations_per_iter = REPLAN_MIGRATIONS_PER_ITER;
    let mut oracle = static_split_config();
    oracle.tier_ratio = Some(vec![
        tb.nvme.read_bps.min(tb.nvme.write_bps),
        tb.pfs.read_bps.min(tb.pfs.write_bps) * REPLAN_PFS_LOAD_FACTOR,
    ]);

    let mut rows: Vec<ReplanRow> = [
        ("static", static_split_config()),
        ("adaptive", adaptive),
        ("oracle", oracle),
    ]
    .into_iter()
    .map(|(variant, cfg)| {
        let node = ScenarioNode::new(vec![tb.nvme.clone(), tb.pfs.clone()], cfg);
        let (pre_mean_s, tail_mean_s) =
            node.pre_and_tail_mean_s(|n| n.env.tiers[1].set_load_factor(REPLAN_PFS_LOAD_FACTOR));
        ReplanRow {
            variant: variant.into(),
            pre_mean_s,
            tail_mean_s,
            migrations: node.worker.planner_migrations(),
            recovery_of_oracle_win: 0.0,
        }
    })
    .collect();
    let (static_s, oracle_s) = (rows[0].tail_mean_s, rows[2].tail_mean_s);
    for r in &mut rows {
        r.recovery_of_oracle_win = (static_s - r.tail_mean_s) / (static_s - oracle_s);
    }
    rows
}

/// One variant of the permanent-tier-loss scenario.
#[derive(Clone, Debug)]
pub struct DegradationRow {
    /// `two_tier`, `tier_loss` or `single_tier`.
    pub variant: String,
    /// Mean update seconds before the loss.
    pub pre_mean_s: f64,
    /// Mean update seconds over the post-loss tail.
    pub tail_mean_s: f64,
    /// Durable copies drained off the quarantined tier.
    pub drained: usize,
    /// Tail relative to the `single_tier` tail, minus one.
    pub tail_overhead_vs_single_tier: f64,
}

/// Graceful degradation (DESIGN.md §15): `two_tier` keeps NVMe + PFS
/// healthy throughout; `tier_loss` has the PFS quarantined mid-run
/// (`SimWorker::quarantine_tier`, the sim-side entry of the breaker
/// path), its durable copies drain to the NVMe and the planner never
/// targets it again; `single_tier` never had the PFS. Losing a tier must
/// cost its bandwidth share and a one-off drain, nothing more.
pub fn degradation() -> Vec<DegradationRow> {
    let tb = testbed1();
    let both = || vec![tb.nvme.clone(), tb.pfs.clone()];
    let mut rows: Vec<DegradationRow> = [
        ("two_tier", both(), false),
        ("tier_loss", both(), true),
        ("single_tier", vec![tb.nvme.clone()], false),
    ]
    .into_iter()
    .map(|(variant, tiers, lose_pfs)| {
        let node = ScenarioNode::new(tiers, static_split_config());
        let mut drained = 0;
        let (pre_mean_s, tail_mean_s) = node.pre_and_tail_mean_s(|n| {
            if lose_pfs {
                let w = n.worker.clone();
                drained = n.env.sim.block_on(async move {
                    w.drain_flushes().await;
                    w.quarantine_tier(1).await
                });
            }
        });
        DegradationRow {
            variant: variant.into(),
            pre_mean_s,
            tail_mean_s,
            drained,
            tail_overhead_vs_single_tier: 0.0,
        }
    })
    .collect();
    let single_s = rows[2].tail_mean_s;
    for r in &mut rows {
        r.tail_overhead_vs_single_tier = r.tail_mean_s / single_s - 1.0;
    }
    rows
}

/// Iterations per variant of [`checkpoint_pipeline`].
const CHECKPOINT_ITERS: usize = 6;
/// Leading [`checkpoint_pipeline`] iterations excluded from the mean
/// (first-touch placement).
const CHECKPOINT_WARMUP: usize = 1;

/// One variant of the checkpoint-pipeline scenario.
#[derive(Clone, Debug)]
pub struct CheckpointPipelineRow {
    /// `none`, `sync` or `async`.
    pub variant: String,
    /// Mean iteration seconds after warmup.
    pub mean_iter_s: f64,
    /// Bytes the checkpoints copied over the whole run.
    pub ckpt_copied_bytes: u64,
    /// Share of the blocking variant's checkpoint overhead this variant
    /// keeps off the critical path (1 for `none`, 0 for `sync`).
    pub hidden_fraction: f64,
}

/// §3.3 two-hop checkpoint pipeline: one Testbed-1 node trains the 40B
/// model over NVMe + PFS + object store and checkpoints every iteration.
/// `none` is the iteration-time floor; `sync` completes the NVMe flush and
/// the object-store trickle inside the iteration; `async` leaves them in
/// flight to drain behind the next backward pass. At 40B the NVMe is
/// close to saturated by training's own deferred flushes during backward,
/// so the pipeline can only reclaim the tier's remaining idle time.
pub fn checkpoint_pipeline() -> Vec<CheckpointPipelineRow> {
    let tb = testbed1();
    let mut rows: Vec<CheckpointPipelineRow> =
        [("none", 0, false), ("sync", 1, true), ("async", 1, false)]
            .into_iter()
            .map(|(variant, every, sync)| {
                let mut cfg = EngineConfig::mlp_offload();
                cfg.deferred_flush_drain = true;
                // The object store is the checkpoint target only: a negligible
                // allocation weight keeps training state on NVMe + PFS.
                cfg.tier_ratio = Some(vec![
                    tb.nvme.model_bandwidth_bps(),
                    tb.pfs.model_bandwidth_bps(),
                    1e-6,
                ]);
                let tiers = vec![tb.nvme.clone(), tb.pfs.clone(), object_store()];
                let mut setup = TrainSetup::new(tb.clone(), zoo::model_40b(), cfg, tiers)
                    .with_checkpoint_every(every);
                setup.iterations = CHECKPOINT_ITERS;
                setup.checkpoint_sync = sync;
                let results = run(&setup);
                CheckpointPipelineRow {
                    variant: variant.into(),
                    mean_iter_s: results[CHECKPOINT_WARMUP..]
                        .iter()
                        .map(|r| r.breakdown.total_s())
                        .sum::<f64>()
                        / (CHECKPOINT_ITERS - CHECKPOINT_WARMUP) as f64,
                    ckpt_copied_bytes: results
                        .iter()
                        .filter_map(|r| r.checkpoint.as_ref())
                        .map(|c| c.copied_bytes)
                        .sum(),
                    hidden_fraction: 0.0,
                }
            })
            .collect();
    let (none_s, sync_s) = (rows[0].mean_iter_s, rows[1].mean_iter_s);
    for r in &mut rows {
        r.hidden_fraction = 1.0 - (r.mean_iter_s - none_s) / (sync_s - none_s);
    }
    rows
}

// ===========================================================================
// `repro --json`: every row struct as a JSON object
// ===========================================================================

/// `impl From<&Row> for Value` for each listed row: an object with the
/// listed fields, in the listed (= declaration) order.
macro_rules! json_rows {
    ($($row:ident { $($field:ident),+ })+) => {$(
        impl From<&$row> for Value {
            fn from(row: &$row) -> Value {
                Value::obj([$((stringify!($field), Value::from(row.$field.clone()))),+])
            }
        }
    )+};
}

json_rows! {
    MotivationRow { configuration, iteration_s, slowdown_vs_gpu }
    Fig3Row { model, offload_target, update_s, io_fraction }
    Fig4Row { tier, procs, agg_read_gbps, agg_write_gbps, mean_latency_s }
    Fig5Point { t_s, read_gbps, write_gbps }
    ScalingRow {
        model, approach, forward_s, backward_s, update_s, total_s, update_mparams_per_s,
        effective_io_gbps, host_fraction, nvme_fraction, pfs_fraction, cache_hit_rate
    }
    WeakScalingRow { nodes, gpus, model, approach, iteration_s, update_mparams_per_s }
    Fig13Row { accumulation_steps, equivalent_batch, approach, iteration_s }
    AblationRow { model, stage, multipath, iteration_s, speedup_vs_baseline }
    CheckpointRow { approach, model, prestaged_fraction, checkpoint_flush_s }
    CostRow { configuration, gpus, iteration_s, slowdown_vs_gpu_only, cost_effectiveness }
    CxlRow { tiers, iteration_s, speedup_vs_mlp }
    SubgroupSizeRow { subgroup_mparams, approach, iteration_s }
    CacheSweepRow { cache_fraction, iteration_s, cache_hit_rate }
    ReplanRow { variant, pre_mean_s, tail_mean_s, migrations, recovery_of_oracle_win }
    DegradationRow { variant, pre_mean_s, tail_mean_s, drained, tail_overhead_vs_single_tier }
    CheckpointPipelineRow { variant, mean_iter_s, ckpt_copied_bytes, hidden_fraction }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn motivation_ordering_matches_paper() {
        let rows = motivation();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].iteration_s < rows[1].iteration_s);
        assert!(rows[1].iteration_s < rows[2].iteration_s);
        // NVMe offload is one-to-two orders of magnitude slower than
        // GPU-only (paper: ~170×).
        assert!(
            rows[2].slowdown_vs_gpu > 30.0,
            "got {}",
            rows[2].slowdown_vs_gpu
        );
    }

    #[test]
    fn fig3_host_update_is_much_faster_and_ssd_is_io_bound() {
        let rows = fig3_update_breakdown();
        let host = &rows[0];
        assert_eq!(host.offload_target, "host");
        for ssd in &rows[1..] {
            assert!(
                ssd.update_s / host.update_s > 10.0,
                "{} only {}x slower",
                ssd.model,
                ssd.update_s / host.update_s
            );
            assert!(
                ssd.io_fraction > 0.9,
                "{} io {}",
                ssd.model,
                ssd.io_fraction
            );
        }
    }

    #[test]
    fn fig4_flat_aggregate_growing_latency() {
        let rows = fig4_concurrency();
        let nvme: Vec<&Fig4Row> = rows.iter().filter(|r| r.tier == "nvme").collect();
        let base = nvme[0];
        let worst = nvme.last().unwrap();
        assert!((worst.agg_write_gbps / base.agg_write_gbps - 1.0).abs() < 0.05);
        assert!(worst.mean_latency_s / base.mean_latency_s > 6.0);
    }

    #[test]
    fn fig5_write_bound_with_oscillation() {
        let points = fig5_throughput_timeline();
        assert!(points.len() > 10);
        let peak_write = points.iter().map(|p| p.write_gbps).fold(0.0, f64::max);
        // Bounded by the NVMe write bandwidth.
        assert!(peak_write <= 5.4, "peak write {peak_write}");
        assert!(peak_write > 1.0);
    }

    #[test]
    fn smaller_subgroups_pipeline_better() {
        let rows = subgroup_size_sweep();
        // The paper's chosen 100M must beat DeepSpeed's 1B default for
        // MLP-Offload (finer overlap + finer multi-path balancing).
        let at = |m: u64| {
            rows.iter()
                .find(|r| r.subgroup_mparams == m && r.approach.starts_with("MLP"))
                .unwrap()
                .iteration_s
        };
        assert!(at(100) < at(1000), "100M {} vs 1B {}", at(100), at(1000));
    }

    #[test]
    fn bigger_cache_is_monotonically_faster() {
        let rows = cache_sweep();
        for w in rows.windows(2) {
            assert!(
                w[1].iteration_s <= w[0].iteration_s * 1.02,
                "cache {} -> {}: {:.1}s -> {:.1}s",
                w[0].cache_fraction,
                w[1].cache_fraction,
                w[0].iteration_s,
                w[1].iteration_s
            );
            assert!(w[1].cache_hit_rate >= w[0].cache_hit_rate - 1e-9);
        }
    }

    #[test]
    fn checkpoint_prestaging_covers_most_state() {
        let rows = checkpoint_prestaging();
        for r in &rows {
            // Everything not host-cached sits on persistent tiers.
            assert!(
                r.prestaged_fraction > 0.7,
                "{}: {}",
                r.approach,
                r.prestaged_fraction
            );
            assert!(r.checkpoint_flush_s >= 0.0);
        }
        // MLP-Offload keeps a host cache, so it has *more* left to flush
        // than the cache-less baseline — the pre-staging win is vs
        // host-memory offload, and the flush remains tens of seconds
        // instead of the full-state hundreds.
        let mlp40 = rows
            .iter()
            .find(|r| r.model == "40B" && r.approach.starts_with("MLP"))
            .unwrap();
        let full_state_flush =
            zoo::model_40b().optimizer_state_bytes() as f64 / testbed1().pfs.write_bps;
        assert!(mlp40.checkpoint_flush_s < full_state_flush * 0.5);
    }

    #[test]
    fn cost_effectiveness_matches_section_4_4() {
        let rows = cost_effectiveness();
        let mlp = rows
            .iter()
            .find(|r| r.configuration.contains("MLP"))
            .unwrap();
        let ds = rows
            .iter()
            .find(|r| r.configuration.contains("DeepSpeed"))
            .unwrap();
        // Offloading uses 10× fewer GPUs at a single-digit slowdown, and
        // MLP-Offload is more cost-effective than GPU-only (paper: ~2×).
        assert!(
            ds.slowdown_vs_gpu_only < 10.0,
            "DS slowdown {}",
            ds.slowdown_vs_gpu_only
        );
        assert!(mlp.slowdown_vs_gpu_only < ds.slowdown_vs_gpu_only);
        assert!(
            mlp.cost_effectiveness > 1.5,
            "MLP cost-eff {}",
            mlp.cost_effectiveness
        );
    }

    #[test]
    fn cxl_extension_accelerates_further() {
        let rows = future_cxl();
        assert!(
            rows[1].speedup_vs_mlp > 1.3,
            "CXL gain {:.2}",
            rows[1].speedup_vs_mlp
        );
    }

    #[test]
    fn fig13_mlp_stays_at_least_40_percent_faster() {
        let rows = fig13_grad_accumulation();
        for accum in [1usize, 16] {
            let ds = rows
                .iter()
                .find(|r| r.accumulation_steps == accum && r.approach.starts_with("DeepSpeed"))
                .unwrap();
            let mlp = rows
                .iter()
                .find(|r| r.accumulation_steps == accum && r.approach.starts_with("MLP"))
                .unwrap();
            assert!(
                ds.iteration_s / mlp.iteration_s >= 1.35,
                "accum {accum}: only {:.2}x",
                ds.iteration_s / mlp.iteration_s
            );
        }
    }

    #[test]
    fn adaptive_replan_recovers_the_oracles_win() {
        let rows = adaptive_replan();
        let [st, ad, or] = &rows[..] else {
            panic!("three variants, got {}", rows.len())
        };
        assert!(
            st.tail_mean_s > or.tail_mean_s * 1.5,
            "static must lose badly post-degradation for the scenario to discriminate"
        );
        assert!(
            ad.recovery_of_oracle_win >= 0.9,
            "adaptive planner recovered only {:.0}% of the oracle's win",
            ad.recovery_of_oracle_win * 100.0
        );
    }

    #[test]
    fn tier_loss_settles_at_the_single_tier_rate() {
        let rows = degradation();
        let [two, loss, single] = &rows[..] else {
            panic!("three variants, got {}", rows.len())
        };
        assert!(
            loss.drained > 0,
            "the quarantined PFS held no durable copies — the scenario does not exercise the drain"
        );
        assert!(
            two.tail_mean_s < single.tail_mean_s,
            "the second tier must be worth something or the loss costs nothing"
        );
        assert!(
            loss.tail_overhead_vs_single_tier.abs() <= 0.05,
            "post-loss tail {:.2}s diverges {:.1}% from the single-tier reference {:.2}s",
            loss.tail_mean_s,
            loss.tail_overhead_vs_single_tier * 100.0,
            single.tail_mean_s
        );
    }

    #[test]
    fn async_checkpoints_hide_part_of_the_blocking_overhead() {
        let rows = checkpoint_pipeline();
        let [none, sync, async_] = &rows[..] else {
            panic!("three variants, got {}", rows.len())
        };
        assert!(none.ckpt_copied_bytes == 0 && sync.ckpt_copied_bytes > 0);
        assert_eq!(
            sync.ckpt_copied_bytes, async_.ckpt_copied_bytes,
            "both checkpointing variants must move identical bytes"
        );
        assert!(
            sync.mean_iter_s > none.mean_iter_s,
            "blocking checkpoints must cost critical-path time for the scenario to discriminate"
        );
        assert!(
            async_.hidden_fraction >= 0.15,
            "async pipeline hid only {:.0}% of the sync checkpoint overhead",
            async_.hidden_fraction * 100.0
        );
    }

    #[test]
    fn rows_render_as_json_objects_in_declaration_order() {
        let row = Fig13Row {
            accumulation_steps: 4,
            equivalent_batch: 32,
            approach: "MLP-Offload".into(),
            iteration_s: 1.5,
        };
        assert_eq!(
            Value::from(&row).pretty(),
            "{\n  \"accumulation_steps\": 4,\n  \"equivalent_batch\": 32,\n  \
             \"approach\": \"MLP-Offload\",\n  \"iteration_s\": 1.5\n}"
        );
    }
}
