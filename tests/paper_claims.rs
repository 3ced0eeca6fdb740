//! Integration assertions for the paper's headline quantitative claims,
//! run against the full simulated stack (engines + driver + testbeds).
//! Each test names the section/figure it checks.

use mlp_offload_suite::mlp_model::zoo;
use mlp_offload_suite::mlp_offload::config::AblationStage;
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_train::driver::{run, summarize, TrainSetup};
use mlp_offload_suite::mlp_train::experiments::{self, ScalingRow, WeakScalingRow};
use mlp_offload_suite::mlp_train::{testbed1, testbed2};
use std::sync::OnceLock;

/// The Figs. 7–10 rows, computed once for every test that reads them.
fn model_scaling() -> &'static [ScalingRow] {
    static ROWS: OnceLock<Vec<ScalingRow>> = OnceLock::new();
    ROWS.get_or_init(experiments::model_scaling)
}

/// The Figs. 11–12 rows, computed once for both tests that read them.
fn weak_scaling() -> &'static [WeakScalingRow] {
    static ROWS: OnceLock<Vec<WeakScalingRow>> = OnceLock::new();
    ROWS.get_or_init(experiments::weak_scaling)
}

fn setup(
    cfg: EngineConfig,
    tiers: Vec<mlp_offload_suite::mlp_storage::TierSpec>,
    model: mlp_offload_suite::mlp_model::ModelConfig,
) -> TrainSetup {
    let mut s = TrainSetup::new(testbed1(), model, cfg, tiers);
    s.iterations = 4;
    s
}

/// §4.2 / Fig. 7: the 40B baseline iteration on Testbed-1 takes ~242 s
/// with the 0.6 / 28 / 213 s phase split.
#[test]
fn fig7_baseline_40b_phase_breakdown() {
    let tb = testbed1();
    let s = setup(
        EngineConfig::deepspeed_zero3(),
        vec![tb.nvme.clone()],
        zoo::model_40b(),
    );
    let summary = summarize(&s, &run(&s), 2);
    assert!(
        (0.4..0.9).contains(&summary.forward_s),
        "fwd {}",
        summary.forward_s
    );
    assert!(
        (22.0..40.0).contains(&summary.backward_s),
        "bwd {}",
        summary.backward_s
    );
    assert!(
        (180.0..250.0).contains(&summary.update_s),
        "upd {}",
        summary.update_s
    );
    // Update dominates the iteration (paper: 89%).
    assert!(summary.update_s / summary.total_s > 0.8);
}

/// §4.2 / Fig. 7: MLP-Offload iterations are ~2.5× (2.4–3.3× across
/// models) faster than DeepSpeed ZeRO-3 on Testbed-1.
#[test]
fn fig7_mlp_speedup_across_models() {
    let rows = model_scaling();
    for model in ["40B", "70B", "120B"] {
        let ds = rows
            .iter()
            .find(|r| r.model == model && r.approach.starts_with("DeepSpeed"))
            .unwrap();
        let mlp = rows
            .iter()
            .find(|r| r.model == model && r.approach.starts_with("MLP"))
            .unwrap();
        let speedup = ds.total_s / mlp.total_s;
        assert!(
            (2.0..3.6).contains(&speedup),
            "{model}: speedup {speedup:.2}"
        );
        // Backward accelerates by an order of magnitude (paper: 13.5×).
        assert!(ds.backward_s / mlp.backward_s > 8.0, "{model} backward");
        // Update accelerates ~2.3× (paper: up to 2.4×).
        let upd = ds.update_s / mlp.update_s;
        assert!(
            (1.8..3.2).contains(&upd),
            "{model}: update speedup {upd:.2}"
        );
    }
}

/// Fig. 8: update throughput is roughly flat across model sizes for each
/// approach, and MLP-Offload is ~1.8–2.8× higher.
#[test]
fn fig8_update_throughput_flat_and_separated() {
    let rows = model_scaling();
    let ds: Vec<f64> = rows
        .iter()
        .filter(|r| r.approach.starts_with("DeepSpeed"))
        .map(|r| r.update_mparams_per_s)
        .collect();
    let mlp: Vec<f64> = rows
        .iter()
        .filter(|r| r.approach.starts_with("MLP"))
        .map(|r| r.update_mparams_per_s)
        .collect();
    let spread = |v: &[f64]| {
        let max = v.iter().fold(0.0f64, |a, &b| a.max(b));
        let min = v.iter().fold(f64::INFINITY, |a, &b| a.min(b));
        max / min
    };
    assert!(spread(&ds) < 1.2, "DS throughput must be flat");
    assert!(spread(&mlp) < 1.6, "MLP throughput roughly flat");
    for (d, m) in ds.iter().zip(&mlp) {
        let ratio = m / d;
        assert!((1.7..3.0).contains(&ratio), "ratio {ratio:.2}");
    }
}

/// Fig. 9: MLP-Offload's effective I/O throughput is ~2.2–2.8× the
/// baseline's and decays as larger models cache a smaller fraction.
#[test]
fn fig9_effective_io_gap_and_decay() {
    let rows = model_scaling();
    let mlp: Vec<&ScalingRow> = rows
        .iter()
        .filter(|r| r.approach.starts_with("MLP"))
        .collect();
    for w in mlp.windows(2) {
        assert!(
            w[1].effective_io_gbps <= w[0].effective_io_gbps + 0.3,
            "effective I/O must not grow with model size: {} -> {}",
            w[0].effective_io_gbps,
            w[1].effective_io_gbps
        );
        assert!(w[1].cache_hit_rate <= w[0].cache_hit_rate + 1e-9);
    }
    let ds0 = rows
        .iter()
        .find(|r| r.approach.starts_with("DeepSpeed"))
        .unwrap();
    assert!(mlp[0].effective_io_gbps / ds0.effective_io_gbps > 2.0);
}

/// Fig. 10: for MLP-Offload, the non-cached optimizer state splits across
/// NVMe and PFS in proportion to their model bandwidths (~60:40 on
/// Testbed-1, which the paper rounds to its "2:1" statement).
#[test]
fn fig10_state_split_tracks_bandwidths() {
    let rows = model_scaling();
    for r in rows.iter().filter(|r| r.approach.starts_with("MLP")) {
        let offloaded = r.nvme_fraction + r.pfs_fraction;
        let nvme_share = r.nvme_fraction / offloaded;
        assert!(
            (0.52..0.70).contains(&nvme_share),
            "{}: NVMe share {nvme_share:.2}",
            r.model
        );
        let total = r.host_fraction + offloaded;
        assert!((total - 1.0).abs() < 1e-6);
    }
}

/// Figs. 14/15: every progressively-activated optimization helps, reaching
/// ~1.5–1.7× on NVMe alone and ~2.4–3.3× with the PFS (paper: 1.6× / 2.5×).
#[test]
fn fig14_15_ablation_monotone_and_in_range() {
    for (rows, top_range) in [
        (experiments::fig14_ablation_nvme(), 1.3..2.0),
        (experiments::fig15_ablation_pfs(), 2.0..3.6),
    ] {
        for chunk in rows.chunks(4) {
            for w in chunk.windows(2) {
                assert!(
                    w[1].iteration_s <= w[0].iteration_s * 1.02,
                    "{} stage {} regressed: {:.1}s -> {:.1}s",
                    w[0].model,
                    w[1].stage,
                    w[0].iteration_s,
                    w[1].iteration_s
                );
            }
            let top = chunk.last().unwrap();
            assert!(
                top_range.contains(&top.speedup_vs_baseline),
                "{} top speedup {:.2} outside {:?}",
                top.model,
                top.speedup_vs_baseline,
                top_range
            );
        }
    }
}

/// Fig. 11 / §4.4: at scale on Testbed-2, MLP-Offload iterations stay
/// faster than the baseline, with the gap narrowing as the shared PFS
/// divides across nodes (the paper's "up to 2×" at 8 nodes).
#[test]
fn fig11_weak_scaling_gap() {
    let rows = weak_scaling();
    for nodes in [1usize, 2, 8] {
        let ds = rows
            .iter()
            .find(|r| r.nodes == nodes && r.approach.starts_with("DeepSpeed"))
            .unwrap();
        let mlp = rows
            .iter()
            .find(|r| r.nodes == nodes && r.approach.starts_with("MLP"))
            .unwrap();
        let ratio = ds.iteration_s / mlp.iteration_s;
        assert!(ratio > 1.3, "{nodes} nodes: ratio {ratio:.2}");
        if nodes == 8 {
            assert!(ratio < 2.6, "8 nodes: gap should narrow, got {ratio:.2}");
        }
    }
    // §4.4 anchor: 70B ZeRO-3 on 2 nodes ≈ 168 s in the paper.
    let ds70 = rows
        .iter()
        .find(|r| r.model == "70B" && r.approach.starts_with("DeepSpeed"))
        .unwrap();
    assert!(
        (130.0..200.0).contains(&ds70.iteration_s),
        "got {}",
        ds70.iteration_s
    );
}

/// Fig. 12: aggregate update throughput grows with node count for both
/// approaches (independent node-local NVMe I/O).
#[test]
fn fig12_update_throughput_scales() {
    let rows = weak_scaling();
    for approach in ["DeepSpeed", "MLP"] {
        let series: Vec<f64> = rows
            .iter()
            .filter(|r| r.approach.starts_with(approach))
            .map(|r| r.update_mparams_per_s)
            .collect();
        for w in series.windows(2) {
            assert!(w[1] > w[0] * 1.1, "{approach}: {w:?} not scaling");
        }
    }
}

/// The ablation ladder's simulated-engine configs are reachable through
/// the public API and consistent with the presets.
#[test]
fn ablation_ladder_endpoints_match_presets() {
    assert_eq!(
        AblationStage::Baseline.config(),
        EngineConfig::deepspeed_zero3()
    );
    assert_eq!(
        AblationStage::ProcessAtomicRw.config(),
        EngineConfig::mlp_offload()
    );
}

/// Weak-scaling sanity on the other testbed: the driver composes tensor
/// parallelism, the communication model, and per-node offloading without
/// the update phase losing dominance.
#[test]
fn multi_node_update_still_dominates() {
    let tb = testbed2();
    let mut s = TrainSetup::new(
        tb.clone(),
        zoo::model_280b(),
        EngineConfig::deepspeed_zero3(),
        vec![tb.nvme.clone()],
    );
    s.nodes = 8;
    s.iterations = 3;
    let summary = summarize(&s, &run(&s), 1);
    assert!(summary.update_s / summary.total_s > 0.6, "{summary:?}");
}

/// Mean iteration seconds (after 2 warm-ups of 4) of the MLP-Offload
/// engine on Testbed-1, with the cache-hit rate.
fn mlp_iteration(
    cfg: EngineConfig,
    tiers: Vec<mlp_offload_suite::mlp_storage::TierSpec>,
    model: mlp_offload_suite::mlp_model::ModelConfig,
) -> (f64, f64) {
    let s = setup(cfg, tiers, model);
    let summary = summarize(&s, &run(&s), 2);
    (summary.total_s, summary.cache_hit_rate)
}

/// DESIGN.md ablation #1: Eq. 1 proportional allocation keeps both paths
/// finishing together; an equal split over unequal tiers makes the slow
/// path straggle, and NVMe alone has no second path at all (70B).
#[test]
fn ablation_proportional_allocation_beats_equal_split_and_single_path() {
    let tb = testbed1();
    let iteration_secs = |tier_ratio: Option<Vec<f64>>, multipath: bool| {
        let mut cfg = EngineConfig::mlp_offload();
        cfg.tier_ratio = tier_ratio;
        cfg.adaptive_bandwidth = false;
        let mut tiers = vec![tb.nvme.clone()];
        if multipath {
            tiers.push(tb.pfs.clone());
        }
        mlp_iteration(cfg, tiers, zoo::model_70b()).0
    };
    let proportional = iteration_secs(None, true);
    let equal = iteration_secs(Some(vec![1.0, 1.0]), true);
    let local_only = iteration_secs(None, false);
    assert!(
        proportional <= equal + 1e-9 && proportional < local_only,
        "proportional allocation must win: {proportional:.1} vs {equal:.1} vs {local_only:.1}"
    );
}

/// DESIGN.md ablation #2: with host-frame retention on, the alternating
/// order turns the retained tail into immediate hits; repeating a fixed
/// direction strands the retained subgroups at the far end of every pass
/// (40B).
#[test]
fn ablation_alternating_order_maximizes_cache_hits() {
    use mlp_offload_suite::mlp_offload::OrderPolicy;
    let tb = testbed1();
    let hit_rate = |order: OrderPolicy| {
        let mut cfg = EngineConfig::mlp_offload();
        cfg.order = order;
        mlp_iteration(cfg, vec![tb.nvme.clone(), tb.pfs.clone()], zoo::model_40b()).1
    };
    let alt_hits = hit_rate(OrderPolicy::Alternating);
    let asc_hits = hit_rate(OrderPolicy::Ascending);
    let desc_hits = hit_rate(OrderPolicy::Descending);
    assert!(
        alt_hits >= asc_hits && alt_hits >= desc_hits,
        "alternating must maximize hits: {alt_hits} vs {asc_hits}/{desc_hits}"
    );
}

/// DESIGN.md ablation #5: external load drops the shared PFS to 30%
/// capacity after the second of six update phases; adaptive bandwidth
/// re-estimation (§3.3) re-balances toward the NVMe while the static
/// split keeps overloading the slow path.
#[test]
fn ablation_adaptive_bandwidth_helps_after_pfs_drift() {
    use mlp_offload_suite::mlp_model::Subgroup;
    use mlp_offload_suite::mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
    use mlp_offload_suite::mlp_sim::Sim;
    use mlp_offload_suite::mlp_storage::spec::{testbed1_nvme, testbed1_pfs};

    let post_drift_update_secs = |adaptive: bool| {
        let sim = Sim::new();
        let env = NodeSimEnv::new(
            &sim,
            &NodeSpec {
                tier_specs: vec![testbed1_nvme(), testbed1_pfs()],
                gpus: 1,
                d2h_bps: 55e9,
                cpu_update_params_per_s: 8e9,
                conv_bytes_per_s: 65e9,
            },
        );
        let mut cfg = EngineConfig::mlp_offload();
        cfg.adaptive_bandwidth = adaptive;
        cfg.cache_retention = false; // isolate the allocation effect
        let subgroups = (0..40).map(|id| Subgroup { id, params: 100_000_000 }).collect();
        let worker = SimWorker::new(env.clone(), 0, cfg, subgroups);
        let mut durations = Vec::new();
        for it in 0..6 {
            if it == 2 {
                env.tiers[1].set_load_factor(0.3);
            }
            let w = worker.clone();
            durations.push(sim.block_on(async move { w.run_update().await }).duration_s);
        }
        durations[3..].iter().sum::<f64>() / 3.0
    };
    let adaptive = post_drift_update_secs(true);
    let static_alloc = post_drift_update_secs(false);
    assert!(
        adaptive < static_alloc,
        "adaptation must help after drift: {adaptive:.1} vs {static_alloc:.1}"
    );
}
