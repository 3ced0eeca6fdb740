//! Cross-configuration equivalence: none of MLP-Offload's performance
//! optimizations may change the math. Any subgroup order, cache budget,
//! tier count or locking mode must produce bit-identical
//! master parameters — the invariant §3.2 relies on ("the order in which
//! the subgroups are independently processed is inconsequential").

use std::sync::Arc;

use mlp_offload_suite::mlp_model::Subgroup;
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::policy::cache::MIN_PIPELINE_FRAMES;
use mlp_offload_suite::mlp_offload::policy::ledger::{Load, PassPlan, Step};
use mlp_offload_suite::mlp_offload::sim::{NodeSimEnv, NodeSpec, SimWorker};
use mlp_offload_suite::mlp_offload::{AblationStage, EngineConfig, OrderPolicy};
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_sim::Sim;
use mlp_offload_suite::mlp_storage::spec::{testbed1_nvme, testbed1_pfs};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend, TracedBackend};
use mlp_offload_suite::mlp_tensor::F16;
use mlp_offload_suite::mlp_trace::{Phase, TraceSink};
use mlp_testkit::Gen;

const SUBGROUPS: usize = 9;
const LEN: usize = 33;

fn tiers(n: usize) -> Vec<SharedTier> {
    (0..n)
        .map(|i| {
            SharedTier::new(
                Arc::new(MemBackend::new(format!("t{i}"))) as Arc<dyn Backend>,
                1.0 + i as f64,
            )
        })
        .collect()
}

fn states(seed: u64) -> Vec<SubgroupState> {
    let mut rng = Gen::new(seed);
    (0..SUBGROUPS)
        .map(|_| SubgroupState::new((0..LEN).map(|_| rng.range(-1.0f32..1.0)).collect()))
        .collect()
}

fn grad_set(seed: u64, iters: usize) -> Vec<Vec<Vec<u16>>> {
    let mut rng = Gen::new(seed);
    (0..iters)
        .map(|_| {
            (0..SUBGROUPS)
                .map(|_| {
                    (0..LEN)
                        .map(|_| F16::from_f32(rng.range(-0.2f32..0.2)).to_bits())
                        .collect()
                })
                .collect()
        })
        .collect()
}

fn train(cfg: EngineConfig, n_tiers: usize) -> Vec<Vec<f32>> {
    let mut engine =
        MlpFuncEngine::new(cfg, AdamConfig::default(), &tiers(n_tiers), 0, states(11)).unwrap();
    for grads in grad_set(77, 5) {
        engine.accumulate_gradients(&grads);
        engine.update().unwrap();
    }
    engine.master_params().unwrap()
}

#[test]
fn every_configuration_is_bit_identical() {
    let baseline = train(EngineConfig::mlp_offload(), 1);

    let mut variants: Vec<(String, EngineConfig, usize)> = Vec::new();
    for order in [
        OrderPolicy::Ascending,
        OrderPolicy::Alternating,
        OrderPolicy::Descending,
    ] {
        for frames in [3usize, 6, 20] {
            for locking in [false, true] {
                for nt in [1usize, 2, 3] {
                    let mut cfg = EngineConfig::mlp_offload().with_host_frames(frames);
                    cfg.order = order;
                    cfg.tier_exclusive_locking = locking;
                    variants.push((format!("{order:?}/f{frames}/lock{locking}/t{nt}"), cfg, nt));
                }
            }
        }
    }
    assert!(variants.len() > 50);
    for (name, cfg, nt) in variants {
        let got = train(cfg, nt);
        assert_eq!(got, baseline, "configuration {name} changed the result");
    }
}

#[test]
fn explicit_tier_ratio_is_equivalent_too() {
    let baseline = train(EngineConfig::mlp_offload(), 2);
    let cfg = EngineConfig::mlp_offload().with_tier_ratio(vec![3.0, 1.0]);
    assert_eq!(train(cfg, 2), baseline);
}

#[test]
fn two_workers_share_tiers_without_interference() {
    // Two worker engines (one per "GPU") share the same backends and the
    // same node-level tier locks, training disjoint shards concurrently
    // from separate threads.
    let shared = tiers(2);
    let mk = |worker: usize| {
        MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(4),
            AdamConfig::default(),
            &shared,
            worker,
            states(100 + worker as u64),
        )
        .unwrap()
    };
    let mut workers: Vec<MlpFuncEngine> = (0..2).map(mk).collect();

    // References computed in memory.
    let mut refs: Vec<Vec<SubgroupState>> = (0..2).map(|w| states(100 + w as u64)).collect();
    let all_grads: Vec<Vec<Vec<Vec<u16>>>> = (0..2).map(|w| grad_set(w as u64, 4)).collect();
    for (r, gs) in refs.iter_mut().zip(&all_grads) {
        for grads in gs {
            for (st, g) in r.iter_mut().zip(grads) {
                st.apply_update_fp16(&AdamConfig::default(), g, 1.0);
            }
        }
    }

    let handles: Vec<std::thread::JoinHandle<Vec<Vec<f32>>>> = workers
        .drain(..)
        .zip(all_grads)
        .map(|(mut engine, gs)| {
            std::thread::spawn(move || {
                for grads in gs {
                    engine.accumulate_gradients(&grads);
                    engine.update().unwrap();
                }
                engine.master_params().unwrap()
            })
        })
        .collect();

    for (h, r) in handles.into_iter().zip(&refs) {
        let got = h.join().unwrap();
        for (g, st) in got.iter().zip(r) {
            assert_eq!(g, &st.params);
        }
    }
}

/// §3.2 "Process Atomic R/W": while one worker's transfer is on a tier no
/// other worker's is (`SimWorker::transfer` holds the lock that long).
/// `MlpFuncEngine::{submit_read, submit_flush}` and the population loop
/// release it once the op is queued, so this fails while an aio worker
/// still runs the transfer — see ROADMAP "Tier lock covers the transfer"
/// for the invariant the fix must keep.
#[test]
#[ignore = "known defect: the tier lock is released at submission, not completion"]
fn tier_exclusive_lock_covers_the_transfer_not_just_the_submission() {
    // One medium, one node-level lock, one sink; each worker reaches them
    // through its own `TracedBackend`, which stamps the worker id where the
    // tier index goes. ~2 ms per 396-byte subgroup keeps the two updates
    // side by side for ~100 ms, so an uncovered transfer is sure to overlap.
    let medium: Arc<dyn Backend> = Arc::new(MemBackend::throttled("t0", 2e5, 2e5));
    let node = SharedTier::new(Arc::clone(&medium), 1.0);
    let sink = TraceSink::enabled();
    let cfg = EngineConfig::mlp_offload(); // "Process Atomic R/W" is on
    let threads: Vec<_> = (0..2)
        .map(|w| {
            let traced = TracedBackend::new(Arc::clone(&medium), w as i32, sink.clone());
            let mut tier = node.clone();
            tier.backend = Arc::new(traced);
            let init = states(w as u64);
            let mut engine =
                MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &[tier], w, init).unwrap();
            std::thread::spawn(move || {
                for grads in grad_set(w as u64, 3) {
                    engine.accumulate_gradients(&grads);
                    engine.update().unwrap();
                }
            })
        })
        .collect();
    threads.into_iter().for_each(|t| t.join().unwrap());

    let transfers = sink.events();
    for (i, a) in transfers.iter().enumerate() {
        for b in &transfers[i + 1..] {
            let exclusive = a.tier == b.tier || !a.overlaps(b);
            assert!(exclusive, "two workers' transfers overlap: {a:?} {b:?}");
        }
    }
}

/// Payload bytes the engine's own tier instrumentation saw cross into or
/// out of the tiers since the last call (`events()` drains the sink).
fn tier_bytes(trace: &TraceSink) -> u64 {
    trace
        .events()
        .iter()
        .filter(|e| matches!(e.phase, Phase::TierRead | Phase::TierWrite))
        .map(|e| e.bytes)
        .sum()
}

/// One iteration as every rung drives it: a single backward micro-step,
/// the gradient-flush phase (a no-op from "+ Skip Gradients" up), update.
fn iterate(engine: &mut MlpFuncEngine, grads: &[Vec<u16>]) -> (usize, usize, usize, u64) {
    engine.accumulate_gradients(grads);
    engine.flush_gradients().unwrap();
    let o = engine.update().unwrap();
    (
        o.cache_hits,
        o.fetches,
        o.flushes,
        engine.grad_bytes_through_storage(),
    )
}

/// Fig. 14 in real bytes: each rung of the ablation ladder is one policy
/// switch on the same engine, and what it saves is a closed form of the
/// subgroup count `m` and the retained frames `r`. On the caching rungs
/// subgroups rest in every host frame, so `r` is `host_frames`.
#[test]
fn ablation_ladder_moves_the_closed_form_bytes_per_parameter() {
    const RETAINED: usize = 3;
    let (m, n) = (SUBGROUPS as u64, LEN as u64);
    let mut finals = Vec::new();
    for stage in AblationStage::ladder() {
        let trace = TraceSink::enabled();
        let mut engine = MlpFuncEngine::new(
            stage
                .config()
                .with_host_frames(RETAINED)
                .with_trace(trace.clone()),
            AdamConfig::default(),
            &tiers(1),
            0,
            states(11),
        )
        .unwrap();
        // Two warm-up iterations fill the cache; then one iteration in
        // each direction of the alternating order.
        let grads = grad_set(77, 4);
        for g in &grads[..2] {
            iterate(&mut engine, g);
        }
        tier_bytes(&trace);
        for g in &grads[2..] {
            iterate(&mut engine, g);
        }
        let per_iter = tier_bytes(&trace) / 2;

        // State is read and written at 12 B/param; FP32 gradients add a
        // 4 B/param write and a 4 B/param read below "+ Skip Gradients".
        // Only subgroups that are not retained move at all.
        let (per_param, moving) = match stage {
            AblationStage::Baseline => (32, m),
            AblationStage::EnableCaching => (32, m - RETAINED as u64),
            AblationStage::SkipGradients | AblationStage::ProcessAtomicRw => {
                (24, m - RETAINED as u64)
            }
        };
        assert_eq!(per_iter, per_param * moving * n, "{}", stage.label());
        assert_eq!(
            per_iter as f64 / (m * n) as f64,
            per_param as f64 * moving as f64 / m as f64,
            "{}: bytes through the tier per parameter",
            stage.label()
        );
        finals.push(engine.master_params().unwrap());
    }
    for (stage, got) in AblationStage::ladder().iter().zip(&finals) {
        assert_eq!(got, &finals[0], "{} changed the math", stage.label());
    }
}

/// A plan's evictions as `(updates before it, subgroup, tier)`.
fn evictions(plan: &PassPlan) -> Vec<(usize, usize, usize)> {
    let mut updates = 0;
    let mut due = Vec::new();
    for step in &plan.steps {
        match *step {
            Step::Update { .. } => updates += 1,
            Step::Evict { subgroup, tier } => due.push((updates, subgroup, tier)),
            Step::Load { .. } => {}
        }
    }
    due
}

/// A planned load as both engines execute it: `None` for a cache hit,
/// else the tier it fetches from.
fn loads(plan: &PassPlan) -> Vec<(usize, Option<usize>)> {
    plan.loads()
        .map(|(subgroup, load)| match load {
            Load::Hit => (subgroup, None),
            Load::Fetch { tier, .. } => (subgroup, Some(tier)),
        })
        .collect()
}

/// The same step trace: for every rung, in every order, the real-bytes
/// engine and the virtual-time engine, given the same subgroup count,
/// resting budget and tiers, execute plans with the same loads (subgroup,
/// hit or tier) in the same order and the same evictions (subgroup, tier)
/// in the same order — the functional engine's none later than the
/// simulator's — and each does what its plan counts: cache hits,
/// fetches, flushes, and the gradient bytes through storage; they leave
/// every subgroup in the same place (host share and each tier's share),
/// from the cold start on. The functional engine's subgroups rest in all
/// `h` of its host frames, the simulator's beyond its pipeline's, so the
/// same budget is `h` frames for one and `h + MIN_PIPELINE_FRAMES` for
/// the other. The split is pinned: the functional engine's adaptive
/// estimates are wall-clock.
#[test]
fn functional_and_simulated_engines_count_the_same_steps() {
    for (stage, h) in AblationStage::ladder()
        .into_iter()
        .flat_map(|stage| [(stage, 3), (stage, 5)])
    {
        for (n_tiers, order) in [1usize, 2].into_iter().flat_map(|n| {
            [
                OrderPolicy::Ascending,
                OrderPolicy::Alternating,
                OrderPolicy::Descending,
            ]
            .map(|order| (n, order))
        }) {
            let mut cfg = stage
                .config()
                .with_tier_ratio([2.0, 1.0][..n_tiers].to_vec());
            cfg.order = order;
            let mut func = MlpFuncEngine::new(
                cfg.clone().with_host_frames(h),
                AdamConfig::default(),
                &tiers(n_tiers),
                0,
                states(11),
            )
            .unwrap();

            let sim = Sim::new();
            let spec = NodeSpec {
                tier_specs: [testbed1_nvme(), testbed1_pfs()][..n_tiers].to_vec(),
                gpus: 1,
                d2h_bps: 55e9,
                cpu_update_params_per_s: 8e9,
                conv_bytes_per_s: 65e9,
            };
            let subgroups = (0..SUBGROUPS)
                .map(|id| Subgroup {
                    id,
                    params: LEN as u64,
                })
                .collect();
            let simulated = SimWorker::new(
                NodeSimEnv::new(&sim, &spec),
                0,
                cfg.with_host_frames(h + MIN_PIPELINE_FRAMES),
                subgroups,
            );

            for (it, grads) in grad_set(77, 4).iter().enumerate() {
                let what = format!(
                    "{} in {order:?} order at h={h} over {n_tiers} tier(s), iteration {it}",
                    stage.label()
                );
                let (backward, update) = sim.block_on({
                    let w = simulated.clone();
                    async move { (w.run_backward(1e-3, true).await, w.run_update().await) }
                });
                let got = iterate(&mut func, grads);
                let (early, late) = (func.pass_plan(), &simulated.pass_plan());
                assert_eq!(loads(early), loads(late), "{what}: loads");
                let sequence = |plan: &PassPlan| plan.evictions().collect::<Vec<_>>();
                assert_eq!(sequence(early), sequence(late), "{what}: evictions");
                for (f, s) in evictions(early).iter().zip(&evictions(late)) {
                    assert!(f.0 <= s.0, "{what}: {f:?} due after the simulator's {s:?}");
                }
                let counts = |plan: &PassPlan| {
                    let hits = plan.loads().filter(|&(_, load)| load == Load::Hit).count();
                    (hits, plan.loads().count() - hits, plan.evictions().count())
                };
                assert_eq!(
                    (got.0, got.1, got.2),
                    counts(early),
                    "{what}: the functional engine's steps"
                );
                let simulated_steps = (update.cache_hits, update.fetches, update.flushes);
                assert_eq!(
                    simulated_steps,
                    counts(late),
                    "{what}: the simulator's steps"
                );
                // The simulator reports the flushed gradient bytes; the
                // same bytes are fetched back during the update.
                assert_eq!(
                    got.3,
                    2 * backward.grad_bytes_offloaded,
                    "{what}: gradient bytes"
                );
                assert_eq!(
                    func.tier_distribution().fractions(),
                    simulated.tier_distribution().fractions(),
                    "{what}: placement"
                );
            }
        }
    }
}
