//! The simulated training-iteration driver.
//!
//! Builds a node's shared resources, instantiates one offloading engine
//! per GPU worker, and runs iterations phase by phase: forward (compute +
//! ZeRO-3 gather), `grad_accum` backward micro-steps (compute + gradient
//! staging/offload), then the offloaded update phase. Nodes are symmetric
//! in the paper's weak-scaling setup (tensor parallelism intra-node, data
//! parallelism inter-node), so one node is simulated and inter-node
//! collectives enter as modelled communication time.

use mlp_model::config::OPTIM_STATE_BYTES_PER_PARAM;
use mlp_model::memory::{MemoryEstimate, MemoryInputs};
use mlp_model::shard::{ShardLayout, DEFAULT_SUBGROUP_PARAMS};
use mlp_model::ModelConfig;
use mlp_offload::checkpoint::CheckpointStats;
use mlp_offload::sim::engine::virtual_ns;
use mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
use mlp_offload::stats::{BackwardStats, IterationBreakdown, TierDistribution, UpdateStats};
use mlp_offload::EngineConfig;
use mlp_sim::Sim;
use mlp_storage::TierSpec;
use mlp_trace::{Attrs, Phase};

use crate::comm::comm_times;
use crate::compute::compute_times;
use crate::testbed::Testbed;

/// A full training configuration to simulate.
#[derive(Clone, Debug)]
pub struct TrainSetup {
    /// Hardware testbed.
    pub testbed: Testbed,
    /// Model to train.
    pub model: ModelConfig,
    /// Compute nodes (1 = pure data parallelism; >1 = tensor parallelism
    /// intra-node, data parallelism inter-node, as in §4.4).
    pub nodes: usize,
    /// Offloading engine configuration.
    pub engine_cfg: EngineConfig,
    /// Third-level tiers (e.g. `[nvme]` for the baseline,
    /// `[nvme, pfs]` for MLP-Offload).
    pub tiers: Vec<TierSpec>,
    /// Backward micro-steps per update (gradient accumulation, §4.5).
    pub grad_accum_steps: usize,
    /// Iterations to run (callers usually discard warmups).
    pub iterations: usize,
    /// Parameters per subgroup (paper: 100 M).
    pub subgroup_params: u64,
    /// Fraction of the estimator's free host memory actually usable for
    /// subgroup caching (staging buffers and fragmentation claim the
    /// rest).
    pub cache_safety_factor: f64,
    /// Microbatch size per rank (paper default 1).
    pub microbatch: u64,
    /// Checkpoint every N iterations (0 = never). The checkpoint flushes
    /// host-resident state to the first persistent tier and trickles it to
    /// the object-store tier when one is configured (two-hop pipeline).
    pub checkpoint_every: usize,
    /// Run checkpoints synchronously (blocking the iteration boundary —
    /// the baseline) instead of overlapping them with the next backward.
    pub checkpoint_sync: bool,
}

impl TrainSetup {
    /// A setup with the paper's defaults for the given approach.
    pub fn new(
        testbed: Testbed,
        model: ModelConfig,
        engine_cfg: EngineConfig,
        tiers: Vec<TierSpec>,
    ) -> Self {
        TrainSetup {
            testbed,
            model,
            nodes: 1,
            engine_cfg,
            tiers,
            grad_accum_steps: 1,
            iterations: 3,
            subgroup_params: DEFAULT_SUBGROUP_PARAMS,
            cache_safety_factor: 0.5,
            microbatch: 1,
            checkpoint_every: 0,
            checkpoint_sync: false,
        }
    }

    /// Enables periodic checkpointing every `every` iterations,
    /// asynchronous by default (set [`TrainSetup::checkpoint_sync`] for
    /// the blocking baseline).
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// Total GPUs across all nodes.
    pub fn world_size(&self) -> usize {
        self.nodes * self.testbed.gpus_per_node
    }

    /// Enables closed-loop adaptive re-planning on every worker: flush
    /// writes re-split on the live bandwidth estimates and up to
    /// `max_migrations_per_iter` durable subgroup copies migrate between
    /// tiers at each iteration boundary (§3.3 feedback loop).
    pub fn with_adaptive_replan(mut self, max_migrations_per_iter: usize) -> Self {
        self.engine_cfg = self
            .engine_cfg
            .with_adaptive_replan(max_migrations_per_iter);
        self
    }
}

/// Everything measured in one simulated iteration (node-level).
#[derive(Clone, Debug)]
pub struct IterationResult {
    /// Phase durations.
    pub breakdown: IterationBreakdown,
    /// Update statistics merged across the node's workers (counts and
    /// bytes summed; duration is the phase wall time).
    pub update: UpdateStats,
    /// Backward statistics merged across workers and micro-steps.
    pub backward: BackwardStats,
    /// Optimizer-state distribution at iteration end, summed across
    /// workers.
    pub distribution: TierDistribution,
    /// Virtual-time window `[start, end]` of the update phase (for the
    /// Fig. 5 timeline).
    pub update_window: (f64, f64),
    /// Checkpoint byte accounting, when this iteration ended with one
    /// (summed across node-0 workers).
    pub checkpoint: Option<CheckpointStats>,
}

/// Runs the simulation and returns per-iteration results.
pub fn run(setup: &TrainSetup) -> Vec<IterationResult> {
    assert!(setup.nodes >= 1 && setup.iterations >= 1 && setup.grad_accum_steps >= 1);
    let tb = &setup.testbed;
    let world = setup.world_size();
    let tp = if setup.nodes > 1 { tb.gpus_per_node } else { 1 };
    let tokens = setup.microbatch * setup.model.seq_len;

    let ct = compute_times(&setup.model, &tb.gpu, tokens, tp, true);
    let cm = comm_times(&setup.model, &tb.network, setup.nodes, tp, tokens);

    // Per-worker subgroup layout (ZeRO-3 shards across the whole world).
    let shard = ShardLayout::new(&setup.model, world);
    let subgroups = shard.subgroups_for_rank(0, setup.subgroup_params);

    // Host frame budget per worker, from the memory estimator.
    let host_frames = if setup.engine_cfg.cache_retention {
        let est = MemoryEstimate::estimate(
            &setup.model,
            MemoryInputs {
                gpus_per_node: tb.gpus_per_node,
                world_size: world,
                host_bytes: tb.host_bytes,
                microbatch: setup.microbatch,
            },
        );
        let sub_bytes = setup.subgroup_params * OPTIM_STATE_BYTES_PER_PARAM;
        let usable = (est.host_cache_bytes as f64 * setup.cache_safety_factor) as u64;
        (((usable / tb.gpus_per_node as u64) / sub_bytes) as usize).max(3)
    } else {
        3
    };
    let engine_cfg = setup.engine_cfg.clone().with_host_frames(host_frames);

    let sim = Sim::new();
    let node_spec = NodeSpec {
        tier_specs: setup.tiers.clone(),
        gpus: tb.gpus_per_node,
        d2h_bps: tb.d2h_bps,
        cpu_update_params_per_s: tb.cpu_update_params_per_s,
        conv_bytes_per_s: tb.conv_bytes_per_s,
    };
    // Every node is simulated. Shared external tiers (PFS, object stores)
    // are *one* facility: a single SimTier instance serves all nodes, so
    // cross-node I/O competition emerges from the fluid model — the
    // globally-shared-tier behaviour the paper flags for study in §5.
    // Node-local NVMe is instantiated per node; tier locks stay
    // node-local (§3.2's node-level concurrency control).
    let shared_tiers: Vec<Option<mlp_storage::SimTier>> = setup
        .tiers
        .iter()
        .map(|spec| {
            spec.kind
                .is_shared()
                .then(|| mlp_storage::SimTier::new(&sim, spec))
        })
        .collect();
    let mut envs = Vec::with_capacity(setup.nodes);
    for _ in 0..setup.nodes {
        let tiers: Vec<mlp_storage::SimTier> = setup
            .tiers
            .iter()
            .zip(&shared_tiers)
            .map(|(spec, shared)| match shared {
                Some(t) => t.clone(),
                None => mlp_storage::SimTier::new(&sim, spec),
            })
            .collect();
        envs.push(NodeSimEnv::with_tiers(&sim, &node_spec, tiers));
    }
    let env = envs[0].clone();
    let workers: Vec<SimWorker> = envs
        .iter()
        .flat_map(|node_env| {
            (0..tb.gpus_per_node).map(|g| {
                SimWorker::new(
                    node_env.clone(),
                    g,
                    engine_cfg.clone(),
                    subgroups.subgroups().to_vec(),
                )
            })
        })
        .collect();
    // Metrics are reported for node 0 (nodes are symmetric).
    let node0_workers = tb.gpus_per_node;

    let iterations = setup.iterations;
    let accum = setup.grad_accum_steps;
    let trace = engine_cfg.trace.clone();
    // Checkpoint routing: flush to the fastest persistent tier, trickle to
    // the object store when the tier set has one.
    let ckpt_every = setup.checkpoint_every;
    let ckpt_sync = setup.checkpoint_sync;
    let ckpt_fast = setup.tiers.iter().position(|t| t.kind.is_persistent());
    let ckpt_object = setup
        .tiers
        .iter()
        .position(|t| t.kind == mlp_storage::TierKind::ObjectStore);
    if ckpt_every > 0 {
        assert!(
            ckpt_fast.is_some(),
            "checkpointing needs at least one persistent tier"
        );
    }
    let sim2 = sim.clone();
    sim.block_on(async move {
        let sim = sim2;
        let mut out = Vec::with_capacity(iterations);
        for it in 0..iterations {
            let i0 = sim.now_secs();
            let mut breakdown = IterationBreakdown::default();
            let mut backward = BackwardStats::default();

            for micro in 0..accum {
                // Forward: compute + ZeRO-3 parameter gather, lockstep.
                let f0 = sim.now_secs();
                sim.sleep(ct.forward_s + cm.forward_s).await;
                breakdown.forward_s += sim.now_secs() - f0;
                if trace.is_enabled() {
                    trace.complete_span(
                        Phase::Forward,
                        Attrs::NONE,
                        virtual_ns(f0),
                        virtual_ns(sim.now_secs()),
                    );
                }

                // Backward micro-step on every worker.
                let final_step = micro == accum - 1;
                let secs =
                    ct.backward_s + cm.backward_s + if final_step { cm.grad_sync_s } else { 0.0 };
                let b0 = sim.now_secs();
                let handles: Vec<_> = workers
                    .iter()
                    .map(|w| {
                        let w = w.clone();
                        sim.spawn(async move { w.run_backward(secs, final_step).await })
                    })
                    .collect();
                for (i, h) in handles.into_iter().enumerate() {
                    let s = h.await;
                    if i < node0_workers {
                        backward.compute_s += s.compute_s;
                        backward.grad_bytes_offloaded += s.grad_bytes_offloaded;
                        backward.grad_bytes_d2h += s.grad_bytes_d2h;
                    }
                }
                breakdown.backward_s += sim.now_secs() - b0;
            }
            backward.duration_s = breakdown.backward_s;

            // Update phase on every worker.
            let u0 = sim.now_secs();
            let handles: Vec<_> = workers
                .iter()
                .map(|w| {
                    let w = w.clone();
                    sim.spawn(async move { w.run_update().await })
                })
                .collect();
            let mut update = UpdateStats {
                bytes_read_by_tier: vec![0; env.num_tiers()],
                bytes_written_by_tier: vec![0; env.num_tiers()],
                ..Default::default()
            };
            for (i, h) in handles.into_iter().enumerate() {
                let s = h.await;
                if i >= node0_workers {
                    continue;
                }
                update.cache_hits += s.cache_hits;
                update.fetches += s.fetches;
                update.flushes += s.flushes;
                update.retained += s.retained;
                update.params_updated += s.params_updated;
                update.read_secs_sum += s.read_secs_sum;
                update.write_secs_sum += s.write_secs_sum;
                update.migrations += s.migrations;
                update.bytes_migrated += s.bytes_migrated;
                for (a, b) in update
                    .bytes_read_by_tier
                    .iter_mut()
                    .zip(&s.bytes_read_by_tier)
                {
                    *a += b;
                }
                for (a, b) in update
                    .bytes_written_by_tier
                    .iter_mut()
                    .zip(&s.bytes_written_by_tier)
                {
                    *a += b;
                }
                update.events.extend(s.events);
            }
            let u1 = sim.now_secs();
            update.duration_s = u1 - u0;
            breakdown.update_s = update.duration_s;

            // Node-level state distribution at the iteration boundary.
            let mut distribution = TierDistribution {
                host_bytes: 0,
                tier_bytes: vec![0; env.num_tiers()],
            };
            for w in workers.iter().take(node0_workers) {
                let d = w.tier_distribution();
                distribution.host_bytes += d.host_bytes;
                for (a, b) in distribution.tier_bytes.iter_mut().zip(&d.tier_bytes) {
                    *a += b;
                }
            }

            // Periodic checkpoint at the iteration boundary. Asynchronous
            // mode submits the flush/trickle tasks and returns immediately:
            // they settle at the next update phase's drain, overlapping the
            // next backward pass (the Fig. 5 overlap applied to
            // checkpointing). Synchronous mode blocks here — the baseline.
            let mut checkpoint = None;
            let c0 = sim.now_secs();
            if ckpt_every > 0 && (it + 1) % ckpt_every == 0 {
                let fast = ckpt_fast.expect("asserted above");
                let handles: Vec<_> = workers
                    .iter()
                    .map(|w| {
                        let w = w.clone();
                        sim.spawn(
                            async move { w.run_checkpoint(fast, ckpt_object, ckpt_sync).await },
                        )
                    })
                    .collect();
                let mut agg = CheckpointStats::default();
                for (i, h) in handles.into_iter().enumerate() {
                    let s = h.await;
                    if i < node0_workers {
                        agg.copied_bytes += s.copied_bytes;
                        agg.prestaged_bytes += s.prestaged_bytes;
                    }
                }
                if trace.is_enabled() {
                    trace.counter("ckpt.checkpoints").inc();
                    trace.counter("ckpt.flush_bytes").add(agg.copied_bytes);
                    trace
                        .counter("ckpt.prestaged_bytes")
                        .add(agg.prestaged_bytes);
                }
                checkpoint = Some(agg);
            }
            // Synchronous checkpoints block here, so this lands on the
            // critical path; asynchronous submission is near-free (its
            // I/O settles during the next iteration's drain).
            breakdown.checkpoint_s = sim.now_secs() - c0;

            if trace.is_enabled() {
                trace.complete_span(
                    Phase::Iteration,
                    Attrs::NONE,
                    virtual_ns(i0),
                    virtual_ns(sim.now_secs()),
                );
            }
            out.push(IterationResult {
                breakdown,
                update,
                backward,
                distribution,
                update_window: (u0, u1),
                checkpoint,
            });
        }
        // Settle flushes still in flight under deferred-drain mode so the
        // exported timeline (and tier accounting) is complete.
        for w in &workers {
            w.drain_flushes().await;
        }
        out
    })
}

/// Steady-state summary over the non-warmup iterations.
#[derive(Clone, Debug)]
pub struct Summary {
    /// Mean forward seconds.
    pub forward_s: f64,
    /// Mean backward seconds.
    pub backward_s: f64,
    /// Mean update seconds.
    pub update_s: f64,
    /// Mean iteration seconds.
    pub total_s: f64,
    /// Node update throughput, parameters/second.
    pub update_params_per_s: f64,
    /// Effective I/O throughput (the Fig. 9 metric), bytes/second.
    pub effective_io_bps: f64,
    /// Host-cache hit rate over processed subgroups.
    pub cache_hit_rate: f64,
    /// State distribution fractions (host, then tiers) at the end.
    pub distribution_fractions: Vec<f64>,
    /// Training throughput in tokens/second across the whole job
    /// (global batch tokens per iteration over iteration time).
    pub tokens_per_s: f64,
}

/// Averages the iterations after `warmup`.
pub fn summarize(setup: &TrainSetup, results: &[IterationResult], warmup: usize) -> Summary {
    assert!(
        warmup < results.len(),
        "need at least one measured iteration"
    );
    let measured = &results[warmup..];
    let n = measured.len() as f64;
    let forward_s = measured.iter().map(|r| r.breakdown.forward_s).sum::<f64>() / n;
    let backward_s = measured.iter().map(|r| r.breakdown.backward_s).sum::<f64>() / n;
    let update_s = measured.iter().map(|r| r.breakdown.update_s).sum::<f64>() / n;
    let params: f64 = measured
        .iter()
        .map(|r| r.update.params_updated as f64)
        .sum::<f64>()
        / n;
    let state_bytes_node = ShardLayout::new(&setup.model, setup.world_size()).params_for_rank(0)
        * OPTIM_STATE_BYTES_PER_PARAM
        * setup.testbed.gpus_per_node as u64;
    let effective_io_bps = measured
        .iter()
        .map(|r| r.update.effective_io_bps(state_bytes_node))
        .sum::<f64>()
        / n;
    let hits: f64 = measured.iter().map(|r| r.update.cache_hits as f64).sum();
    let processed: f64 = measured
        .iter()
        .map(|r| (r.update.cache_hits + r.update.fetches) as f64)
        .sum();
    let total_s = forward_s + backward_s + update_s;
    let global_tokens_per_iter = (setup.microbatch
        * setup.model.seq_len
        * setup.grad_accum_steps as u64
        * setup.world_size() as u64) as f64;
    Summary {
        forward_s,
        backward_s,
        update_s,
        total_s,
        update_params_per_s: if update_s > 0.0 {
            params / update_s
        } else {
            0.0
        },
        tokens_per_s: if total_s > 0.0 {
            global_tokens_per_iter / total_s
        } else {
            0.0
        },
        effective_io_bps,
        cache_hit_rate: if processed > 0.0 {
            hits / processed
        } else {
            0.0
        },
        distribution_fractions: results.last().expect("non-empty").distribution.fractions(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::testbed1;
    use mlp_model::zoo;

    fn quick_setup(cfg: EngineConfig, tiers: Vec<TierSpec>) -> TrainSetup {
        let mut s = TrainSetup::new(testbed1(), zoo::model_40b(), cfg, tiers);
        s.iterations = 3;
        s
    }

    #[test]
    fn baseline_40b_iteration_matches_paper_scale() {
        // Paper §3.1/§4.2: DeepSpeed ZeRO-3, 40B, Testbed-1 → ~242 s
        // iterations (0.6 s fwd, ~28 s bwd, ~213 s update).
        let tb = testbed1();
        let setup = quick_setup(EngineConfig::deepspeed_zero3(), vec![tb.nvme.clone()]);
        let results = run(&setup);
        let s = summarize(&setup, &results, 1);
        assert!((0.4..1.0).contains(&s.forward_s), "fwd {}", s.forward_s);
        assert!((20.0..45.0).contains(&s.backward_s), "bwd {}", s.backward_s);
        assert!((170.0..260.0).contains(&s.update_s), "upd {}", s.update_s);
        assert!((200.0..300.0).contains(&s.total_s), "total {}", s.total_s);
    }

    #[test]
    fn adaptive_replan_migrations_surface_in_node_level_stats() {
        // Four workers contend for the shared PFS, so the live estimates
        // drift from the construction-time Table-1 weights and the
        // planner migrates some durable copies. The migrations must show
        // up in the merged node-level stats, stay within the per-worker
        // budget, account their bytes exactly, and leave the cache-hit
        // sequence identical to the plain setup (the alternating-order
        // guarantee).
        let tb = testbed1();
        let budget = 4;
        let plain = quick_setup(
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        );
        let adaptive = quick_setup(
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        )
        .with_adaptive_replan(budget);
        let workers = adaptive.world_size();
        let sub_bytes = adaptive.subgroup_params * 12;
        let mut total = 0;
        for (a, b) in run(&plain).iter().zip(&run(&adaptive)) {
            assert_eq!(a.update.cache_hits, b.update.cache_hits);
            assert_eq!(a.update.flushes, b.update.flushes);
            assert!(b.update.migrations <= budget * workers);
            assert_eq!(
                b.update.bytes_migrated,
                b.update.migrations as u64 * sub_bytes
            );
            total += b.update.migrations;
        }
        assert!(total > 0, "contention must trigger at least one migration");
    }

    #[test]
    fn mlp_offload_40b_is_roughly_2_5x_faster() {
        let tb = testbed1();
        let ds = quick_setup(EngineConfig::deepspeed_zero3(), vec![tb.nvme.clone()]);
        let mlp = quick_setup(
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        );
        let ds_s = summarize(&ds, &run(&ds), 1);
        let mlp_s = summarize(&mlp, &run(&mlp), 1);
        let speedup = ds_s.total_s / mlp_s.total_s;
        assert!(
            (1.8..3.6).contains(&speedup),
            "iteration speedup {speedup:.2} (ds {:.1}s vs mlp {:.1}s)",
            ds_s.total_s,
            mlp_s.total_s
        );
        // Backward accelerates by an order of magnitude (paper: 13.5×).
        let bwd_speedup = ds_s.backward_s / mlp_s.backward_s;
        assert!(bwd_speedup > 5.0, "backward speedup {bwd_speedup:.1}");
    }

    #[test]
    fn warmup_iteration_is_slower_for_mlp() {
        // Iteration 0 has a cold cache: no hits, slower update.
        let tb = testbed1();
        let setup = quick_setup(
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        );
        let results = run(&setup);
        assert_eq!(results[0].update.cache_hits, 0);
        assert!(results[1].update.cache_hits > 0);
        assert!(results[1].breakdown.update_s < results[0].breakdown.update_s);
    }

    #[test]
    fn periodic_async_checkpoints_overlap_backward() {
        // NVMe + PFS + object store, checkpoint every iteration. In async
        // mode the ckpt_flush spans must overlap a backward span on the
        // timeline (the Fig. 5 overlap applied to checkpointing); the
        // blocking baseline must keep them disjoint.
        let tb = testbed1();
        let run_mode = |sync: bool| {
            let mut cfg = EngineConfig::mlp_offload();
            let trace = mlp_trace::TraceSink::enabled();
            cfg.trace = trace.clone();
            let mut setup = quick_setup(
                cfg,
                vec![
                    tb.nvme.clone(),
                    tb.pfs.clone(),
                    mlp_storage::spec::object_store(),
                ],
            )
            .with_checkpoint_every(1);
            setup.checkpoint_sync = sync;
            let results = run(&setup);
            for r in &results {
                let c = r.checkpoint.expect("every iteration checkpoints");
                assert!(c.copied_bytes + c.prestaged_bytes > 0);
            }
            let events = trace.events();
            let flushes: Vec<_> = events
                .iter()
                .filter(|e| e.phase == Phase::CkptFlush)
                .collect();
            assert!(!flushes.is_empty(), "no ckpt_flush spans");
            let overlapped = events
                .iter()
                .filter(|e| e.phase == Phase::Backward)
                .any(|b| flushes.iter().any(|f| f.overlaps(b)));
            let snap = trace.metrics_snapshot();
            assert_eq!(
                snap.counter("ckpt.checkpoints"),
                Some(setup.iterations as u64)
            );
            assert!(snap.counter("ckpt.flush_bytes").unwrap_or(0) > 0);
            overlapped
        };
        assert!(run_mode(false), "async checkpoint must overlap backward");
        assert!(
            !run_mode(true),
            "sync checkpoint must stay off the backward"
        );
    }

    #[test]
    fn gradient_accumulation_amortizes_update() {
        let tb = testbed1();
        let mut setup = quick_setup(
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        );
        setup.grad_accum_steps = 4;
        setup.iterations = 2;
        let results = run(&setup);
        let r = &results[1];
        // Four forward+backward micro-steps, one update.
        assert!(r.breakdown.forward_s > 3.0 * r.breakdown.forward_s / 4.0);
        assert!(r.breakdown.update_s > r.breakdown.forward_s);
    }
}

#[cfg(test)]
mod determinism_tests {
    use super::*;
    use crate::testbed::testbed1;
    use mlp_model::zoo;

    #[test]
    fn whole_driver_is_bit_reproducible() {
        let run_once = || {
            let tb = testbed1();
            let mut setup = TrainSetup::new(
                tb.clone(),
                zoo::model_40b(),
                EngineConfig::mlp_offload(),
                vec![tb.nvme.clone(), tb.pfs.clone()],
            );
            setup.iterations = 3;
            run(&setup)
                .iter()
                .map(|r| {
                    (
                        r.breakdown.total_s().to_bits(),
                        r.update.cache_hits,
                        r.update.fetches,
                        r.distribution.host_bytes,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn tokens_per_second_accounts_global_batch() {
        let tb = testbed1();
        let mut setup = TrainSetup::new(
            tb.clone(),
            zoo::model_40b(),
            EngineConfig::mlp_offload(),
            vec![tb.nvme.clone(), tb.pfs.clone()],
        );
        setup.grad_accum_steps = 2;
        setup.microbatch = 4;
        setup.iterations = 3;
        let results = run(&setup);
        let s = summarize(&setup, &results, 1);
        let expected_tokens = 4.0 * 2048.0 * 2.0 * 4.0; // mb × seq × accum × gpus
        assert!((s.tokens_per_s * s.total_s - expected_tokens).abs() < 1.0);
    }
}
