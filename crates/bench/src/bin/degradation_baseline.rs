//! `degradation_baseline` — the permanent-tier-loss acceptance scenario
//! at benchmark scale, written as the machine-readable baseline tracked
//! in `BENCH_degradation.json`.
//!
//! ```text
//! degradation_baseline [OUTPUT_PATH] [--check COMMITTED_PATH]
//! ```
//!
//! One node runs the update phase for a fixed number of iterations.
//! Three variants of the same schedule:
//!
//! * `two_tier` — NVMe + PFS healthy for the whole run (the upper
//!   bound: both paths carry flush traffic).
//! * `tier_loss` — NVMe + PFS until the PFS is quarantined mid-run
//!   (`SimWorker::quarantine_tier`, the sim-side entry of the breaker
//!   path, DESIGN.md §15); its durable copies drain to the NVMe and the
//!   planner never targets it again.
//! * `single_tier` — NVMe only from iteration zero: the run that
//!   "never had the tier", which the post-loss tail must match.
//!
//! The headline metric is *graceful degradation*: the post-loss tail
//! iteration time of `tier_loss` must be within 5% of `single_tier`'s —
//! losing a tier costs its bandwidth share, nothing more. The one-off
//! drain cost is visible in the `kill`-iteration spike and the
//! `drained` copy count.
//!
//! With `--check`, the freshly measured numbers are compared against
//! the committed baseline and the run fails if any variant's tail
//! iteration time regressed by more than 10% (the simulation is
//! virtual-time deterministic, so a real change is the only way to
//! move them).

use mlp_bench::{baseline_args, check_against_committed, round_to, write_baseline};
use mlp_model::Subgroup;
use mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
use mlp_offload::EngineConfig;
use mlp_sim::Sim;
use mlp_storage::TierSpec;
use mlp_trace::json::Value;
use mlp_train::testbed1;

/// Subgroups in the optimizer-state partition.
const SUBGROUPS: usize = 24;
/// Parameters per subgroup (24 × 100M × 12 B = 28.8 GB of state).
const PARAMS: u64 = 100_000_000;
/// Iterations per variant.
const ITERS: usize = 20;
/// Iteration before which the PFS is quarantined in `tier_loss`.
const KILL_AT: usize = 6;
/// Tail iterations averaged for the steady-state comparison (leaves
/// the drained placements a few iterations to settle).
const TAIL: usize = 8;

struct VariantResult {
    name: &'static str,
    pre_mean_s: f64,
    tail_mean_s: f64,
    drained: usize,
}

fn run_variant(name: &'static str, tiers: Vec<TierSpec>, kill_at: Option<usize>) -> VariantResult {
    let mut cfg = EngineConfig::mlp_offload();
    cfg.cache_retention = false;
    cfg.adaptive_bandwidth = false;
    let sim = Sim::new();
    let env = NodeSimEnv::new(
        &sim,
        &NodeSpec {
            tier_specs: tiers,
            gpus: 1,
            d2h_bps: 55e9,
            cpu_update_params_per_s: 8e9,
            conv_bytes_per_s: 65e9,
        },
    );
    let worker = SimWorker::new(
        env.clone(),
        0,
        cfg,
        (0..SUBGROUPS)
            .map(|id| Subgroup { id, params: PARAMS })
            .collect(),
    );
    let mut durs = Vec::with_capacity(ITERS);
    let mut drained = 0;
    for i in 0..ITERS {
        if kill_at == Some(i) {
            let w = worker.clone();
            drained = sim.block_on(async move {
                w.drain_flushes().await;
                w.quarantine_tier(1).await
            });
        }
        let w = worker.clone();
        durs.push(sim.block_on(async move { w.run_update().await }).duration_s);
    }
    let pre_mean_s = durs[..KILL_AT].iter().sum::<f64>() / KILL_AT as f64;
    let tail_mean_s = durs[ITERS - TAIL..].iter().sum::<f64>() / TAIL as f64;
    eprintln!(
        "{name:>12}: pre {pre_mean_s:7.2}s/iter  tail {tail_mean_s:7.2}s/iter  drained {drained}"
    );
    VariantResult {
        name,
        pre_mean_s,
        tail_mean_s,
        drained,
    }
}

fn main() {
    let (out_path, check_path) = baseline_args("BENCH_degradation.json");

    let tb = testbed1();
    let variants = [
        run_variant("two_tier", vec![tb.nvme.clone(), tb.pfs.clone()], None),
        run_variant(
            "tier_loss",
            vec![tb.nvme.clone(), tb.pfs.clone()],
            Some(KILL_AT),
        ),
        run_variant("single_tier", vec![tb.nvme.clone()], None),
    ];
    let [two, loss, single] = &variants;
    assert!(
        loss.drained > 0,
        "the quarantined PFS held no durable copies — the scenario does not exercise the drain"
    );
    assert!(
        two.tail_mean_s < single.tail_mean_s,
        "the second tier must be worth something or the loss costs nothing"
    );
    // Graceful degradation: after the drain, the crippled run settles at
    // the single-tier rate — losing the tier costs its bandwidth share
    // and a one-off drain, nothing more.
    let overhead = loss.tail_mean_s / single.tail_mean_s - 1.0;
    eprintln!(
        "post-loss tail vs never-had-the-tier: {:+.1}%",
        overhead * 100.0
    );
    assert!(
        overhead.abs() <= 0.05,
        "post-loss tail {:.2}s diverges {:.1}% from the single-tier reference {:.2}s",
        loss.tail_mean_s,
        overhead * 100.0,
        single.tail_mean_s
    );

    // Keys in the committed file's order.
    let doc = Value::obj([
        ("benchmark", "degradation".into()),
        ("description", "Permanent tier loss mid-run — the PFS is quarantined at an iteration boundary, its durable copies drain to the NVMe, and the post-loss tail must match a run that never had the tier (graceful degradation, DESIGN.md §15)".into()),
        ("subgroups", SUBGROUPS.into()),
        ("params_per_subgroup", PARAMS.into()),
        ("iterations", ITERS.into()),
        ("kill_at", KILL_AT.into()),
        ("tail_iterations", TAIL.into()),
        ("post_loss_overhead_vs_single_tier", round_to(overhead * 100.0, 2).into()),
        ("results", variants.iter().map(|v| Value::obj([
            ("variant", v.name.into()),
            ("pre_mean_s", round_to(v.pre_mean_s, 2).into()),
            ("tail_mean_s", round_to(v.tail_mean_s, 2).into()),
            ("drained", v.drained.into()),
        ])).collect()),
    ]);
    write_baseline(&out_path, &doc);

    if let Some(committed) = check_path {
        let fresh = variants.each_ref().map(|v| (v.name, v.tail_mean_s));
        check_against_committed(&committed, "tail_mean_s", &fresh);
    }
}
