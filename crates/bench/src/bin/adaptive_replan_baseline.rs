//! `adaptive_replan_baseline` — the §3.3 closed-loop acceptance scenario
//! at benchmark scale, written as the machine-readable baseline tracked
//! in `BENCH_adaptive_replan.json`.
//!
//! ```text
//! adaptive_replan_baseline [OUTPUT_PATH] [--check COMMITTED_PATH]
//! ```
//!
//! One node with NVMe + PFS runs the update phase for a fixed number of
//! iterations; partway through, external load collapses the PFS to 15%
//! of its bandwidth. Three planner variants run the identical schedule:
//!
//! * `static` — Eq. 1 split frozen at the construction-time bandwidths;
//!   it keeps routing 40% of the flushes to the collapsed tier.
//! * `adaptive` — the closed loop: observed transfer rates fold into the
//!   `BandwidthEstimator` each iteration, flush writes re-split on the
//!   live estimates, and a bounded number of durable copies migrate
//!   between tiers at iteration boundaries.
//! * `oracle` — knows the post-degradation bandwidths a priori and plans
//!   for them from iteration zero (the re-plan quality upper bound).
//!
//! The headline metric is *recovery*: the fraction of the oracle's
//! iteration-time win over the static planner that the adaptive planner
//! achieves on the post-degradation tail. The acceptance bar is ≥ 0.9.
//!
//! With `--check`, the freshly measured numbers are compared against the
//! committed baseline and the run fails if any tail iteration time
//! regressed by more than 10% (the simulation is virtual-time
//! deterministic, so a real change is the only way to move them).

use mlp_bench::{baseline_args, check_against_committed, round_to, write_baseline};
use mlp_model::Subgroup;
use mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
use mlp_offload::EngineConfig;
use mlp_sim::Sim;
use mlp_trace::json::Value;
use mlp_train::testbed1;

/// Subgroups in the optimizer-state partition.
const SUBGROUPS: usize = 24;
/// Parameters per subgroup (24 × 100M × 12 B = 28.8 GB of state).
const PARAMS: u64 = 100_000_000;
/// Iterations per variant.
const ITERS: usize = 20;
/// Iteration at which the PFS collapses.
const DEGRADE_AT: usize = 6;
/// Post-degradation load factor on the PFS.
const LOAD_FACTOR: f64 = 0.15;
/// Tail iterations averaged for the steady-state comparison (leaves the
/// adaptive planner a few iterations of EMA convergence + migration).
const TAIL: usize = 8;
/// Migration budget per iteration for the adaptive variant.
const MIGRATIONS_PER_ITER: usize = 4;

struct VariantResult {
    name: &'static str,
    pre_mean_s: f64,
    tail_mean_s: f64,
    migrations: u64,
}

fn run_variant(name: &'static str, cfg: EngineConfig) -> VariantResult {
    let tb = testbed1();
    let sim = Sim::new();
    let env = NodeSimEnv::new(
        &sim,
        &NodeSpec {
            tier_specs: vec![tb.nvme.clone(), tb.pfs.clone()],
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
    for i in 0..ITERS {
        if i == DEGRADE_AT {
            env.tiers[1].set_load_factor(LOAD_FACTOR);
        }
        let w = worker.clone();
        durs.push(sim.block_on(async move { w.run_update().await }).duration_s);
    }
    let pre_mean_s = durs[..DEGRADE_AT].iter().sum::<f64>() / DEGRADE_AT as f64;
    let tail_mean_s = durs[ITERS - TAIL..].iter().sum::<f64>() / TAIL as f64;
    eprintln!(
        "{name:>8}: pre {pre_mean_s:7.2}s/iter  tail {tail_mean_s:7.2}s/iter  \
         migrations {}",
        worker.planner_migrations()
    );
    VariantResult {
        name,
        pre_mean_s,
        tail_mean_s,
        migrations: worker.planner_migrations(),
    }
}

fn main() {
    let (out_path, check_path) = baseline_args("BENCH_adaptive_replan.json");

    let mut static_cfg = EngineConfig::mlp_offload();
    static_cfg.cache_retention = false;
    static_cfg.adaptive_bandwidth = false;

    let mut adaptive_cfg = EngineConfig::mlp_offload();
    adaptive_cfg.cache_retention = false;
    adaptive_cfg.max_migrations_per_iter = MIGRATIONS_PER_ITER;

    let mut oracle_cfg = EngineConfig::mlp_offload();
    oracle_cfg.cache_retention = false;
    oracle_cfg.adaptive_bandwidth = false;
    let tb = testbed1();
    oracle_cfg.tier_ratio = Some(vec![
        tb.nvme.read_bps.min(tb.nvme.write_bps),
        tb.pfs.read_bps.min(tb.pfs.write_bps) * LOAD_FACTOR,
    ]);

    let variants = [
        run_variant("static", static_cfg),
        run_variant("adaptive", adaptive_cfg),
        run_variant("oracle", oracle_cfg),
    ];
    let [st, ad, or] = &variants;
    let recovery = (st.tail_mean_s - ad.tail_mean_s) / (st.tail_mean_s - or.tail_mean_s);
    eprintln!("recovery of oracle win: {:.0}%", recovery * 100.0);
    assert!(
        st.tail_mean_s > or.tail_mean_s * 1.5,
        "static must lose badly post-degradation for the scenario to discriminate"
    );
    assert!(
        recovery >= 0.9,
        "adaptive planner recovered only {:.0}% of the oracle's win",
        recovery * 100.0
    );

    // Keys in the committed file's (alphabetical) order.
    let doc = Value::obj([
        ("benchmark", "adaptive_replan".into()),
        ("degrade_at", DEGRADE_AT.into()),
        ("description", "Closed-loop re-planning under mid-run bandwidth degradation — post-collapse tail iteration seconds for static / adaptive / oracle planners and the fraction of the oracle's win the adaptive planner recovers".into()),
        ("iterations", ITERS.into()),
        ("migrations_per_iter", MIGRATIONS_PER_ITER.into()),
        ("params_per_subgroup", PARAMS.into()),
        ("pfs_load_factor", LOAD_FACTOR.into()),
        ("recovery_of_oracle_win", round_to(recovery, 2).into()),
        ("results", variants.iter().map(|v| Value::obj([
            ("migrations", v.migrations.into()),
            ("pre_mean_s", round_to(v.pre_mean_s, 2).into()),
            ("tail_mean_s", round_to(v.tail_mean_s, 2).into()),
            ("variant", v.name.into()),
        ])).collect()),
        ("subgroups", SUBGROUPS.into()),
        ("tail_iterations", TAIL.into()),
    ]);
    write_baseline(&out_path, &doc);

    if let Some(committed) = check_path {
        let fresh = variants.each_ref().map(|v| (v.name, v.tail_mean_s));
        check_against_committed(&committed, "tail_mean_s", &fresh);
    }
}
