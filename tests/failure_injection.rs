//! Failure injection: storage errors must surface as `Err`, never as
//! silent corruption, and the engines must stay usable on independent keys
//! after a failed operation.
//!
//! The seeded [`FaultInjectBackend`] tests are the acceptance gate for the
//! failure-semantics layer: transient faults on every tier must be
//! invisible to training (bit-identical results, retry counters moving),
//! and permanent faults must surface as typed errors that unwind cleanly
//! and leave the engines re-drivable to the bit-identical result.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlp_offload_suite::mlp_aio::{AioConfig, RetryPolicy};
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{
    classify, Backend, ErrorClass, FaultConfig, FaultInjectBackend, MemBackend, ObjectBackend,
    ObjectConfig,
};
use mlp_offload_suite::mlp_zero3::Zero3FuncEngine;

/// Fast-backoff retry policy for tests (real sleeps stay in microseconds).
fn test_retry(max_attempts: u32) -> RetryPolicy {
    RetryPolicy {
        max_attempts,
        base_backoff: Duration::from_micros(10),
        backoff_multiplier: 2.0,
        max_backoff: Duration::from_micros(200),
    }
}

/// Backend wrapper that fails reads after a countdown.
struct FlakyBackend {
    inner: MemBackend,
    reads_until_failure: AtomicUsize,
}

impl FlakyBackend {
    fn new(reads_until_failure: usize) -> Self {
        FlakyBackend {
            inner: MemBackend::new("flaky"),
            reads_until_failure: AtomicUsize::new(reads_until_failure),
        }
    }
}

impl Backend for FlakyBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write(key, data)
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        let left = self.reads_until_failure.fetch_sub(1, Ordering::SeqCst);
        if left == 0 || left > usize::MAX / 2 {
            // Counter exhausted (saturating behaviour via wraparound guard).
            self.reads_until_failure.store(0, Ordering::SeqCst);
            return Err(io::Error::other("injected read failure"));
        }
        self.inner.read(key)
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn name(&self) -> &str {
        "flaky"
    }
}

fn states(n: usize, len: usize) -> Vec<SubgroupState> {
    (0..n)
        .map(|s| SubgroupState::new(vec![s as f32; len]))
        .collect()
}

fn grads(n: usize, len: usize) -> Vec<Vec<u16>> {
    vec![vec![mlp_offload_suite::mlp_tensor::F16::from_f32(0.5).to_bits(); len]; n]
}

#[test]
fn mlp_engine_surfaces_storage_read_errors() {
    // Allow the 6 initialization round trips... init only writes, so the
    // first update's prefetch reads hit the failure.
    let backend = Arc::new(FlakyBackend::new(2)) as Arc<dyn Backend>;
    let tiers = vec![SharedTier::new(backend, 1.0)];
    let mut engine = MlpFuncEngine::new(
        EngineConfig::mlp_offload(),
        AdamConfig::default(),
        &tiers,
        0,
        states(6, 8),
    )
    .unwrap();
    engine.accumulate_gradients(&grads(6, 8));
    let err = match engine.update() {
        Ok(_) => panic!("injected failure must propagate"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("injected"), "{err}");
}

#[test]
fn zero3_engine_surfaces_storage_read_errors() {
    let backend = Arc::new(FlakyBackend::new(1)) as Arc<dyn Backend>;
    let mut engine = Zero3FuncEngine::new(backend, AdamConfig::default(), 0, states(4, 8)).unwrap();
    engine.accumulate_gradients(&grads(4, 8));
    engine.flush_gradients().unwrap();
    assert!(engine.update().is_err());
}

#[test]
fn missing_object_is_not_found_not_garbage() {
    let backend = Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
    let engine = mlp_offload_suite::mlp_aio::AioEngine::new(
        backend,
        mlp_offload_suite::mlp_aio::AioConfig::default(),
    );
    let err = engine.submit_read("never-written").wait().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::NotFound);
}

#[test]
fn engine_survives_failures_on_other_keys() {
    // A failure on one op must not poison the queue for later ops.
    let backend = Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
    let engine = mlp_offload_suite::mlp_aio::AioEngine::new(
        backend,
        mlp_offload_suite::mlp_aio::AioConfig::default(),
    );
    assert!(engine.submit_read("missing").wait().is_err());
    engine.submit_write("ok", vec![1, 2, 3]).wait().unwrap();
    assert_eq!(
        engine.submit_read("ok").wait().unwrap().unwrap(),
        vec![1, 2, 3]
    );
}

#[test]
fn engine_composes_with_checksummed_backend() {
    use mlp_offload_suite::mlp_storage::ChecksummedBackend;
    let inner = Arc::new(MemBackend::new("mem"));
    let tiers = vec![SharedTier::new(
        Arc::new(ChecksummedBackend::new(inner.clone())) as Arc<dyn Backend>,
        1.0,
    )];
    let mut engine = MlpFuncEngine::new(
        EngineConfig::mlp_offload(),
        AdamConfig::default(),
        &tiers,
        0,
        states(4, 8),
    )
    .unwrap();
    engine.accumulate_gradients(&grads(4, 8));
    engine.update().unwrap();

    // Corrupt one stored subgroup behind the checksum layer; the next
    // fetch of it must fail loudly instead of feeding garbage to Adam.
    let key = "w0/sub0";
    let mut raw = inner.read(key).unwrap();
    raw[5] ^= 0x80;
    inner.write(key, &raw).unwrap();

    engine.accumulate_gradients(&grads(4, 8));
    let err = match engine.update() {
        Ok(_) => panic!("corruption must not pass silently"),
        Err(e) => e,
    };
    assert!(err.to_string().contains("checksum"), "{err}");
}

#[test]
fn transient_faults_on_every_tier_are_invisible_to_training() {
    // 20% seeded transient faults on both tiers, plus 10% short reads —
    // the one fault that leaves partial bytes in the pooled staging frame
    // before it errors, so the retried fetch must overwrite them; the
    // in-worker retry layer must absorb both so a multi-iteration run
    // stays bit-identical to a fault-free twin.
    //
    // Which faults fire is a hash of (tier seed, key, per-key op count),
    // and which tier holds a key moves with the wall-clock bandwidth
    // estimates, so both assertions below are chances over that hash,
    // each op's draw an independent uniform. A read attempt is short
    // with p = 0.8 × 0.1 = 0.08: with the ≥ 200 fetches asserted below,
    // no short read at all has p ≤ 0.92^200 ≈ 6e-8. An attempt fails
    // with p ≤ 0.2 + 0.08 = 0.28, so an op exhausts 16 attempts with
    // p ≤ 0.28^16 ≈ 1.4e-9, ≤ 1e-6 over the run's few hundred ops.
    const SUBGROUPS: usize = 64;
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(8);

    let clean_tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
    ];
    let mut want =
        MlpFuncEngine::new(cfg.clone(), adam, &clean_tiers, 0, states(SUBGROUPS, 16)).unwrap();

    let injectors: Vec<Arc<FaultInjectBackend>> = [("a", 31u64), ("b", 63u64)]
        .iter()
        .map(|(name, seed)| {
            Arc::new(FaultInjectBackend::new(
                Arc::new(MemBackend::new(*name)) as Arc<dyn Backend>,
                FaultConfig::transient(*seed, 0.2).with_short_reads(0.1),
            ))
        })
        .collect();
    let faulty_tiers: Vec<SharedTier> = injectors
        .iter()
        .zip([2.0, 1.0])
        .map(|(inject, bw)| {
            SharedTier::new(Arc::clone(inject) as Arc<dyn Backend>, bw).with_aio(AioConfig {
                retry: test_retry(16),
                ..AioConfig::default()
            })
        })
        .collect();
    let mut engine =
        MlpFuncEngine::new(cfg, adam, &faulty_tiers, 0, states(SUBGROUPS, 16)).unwrap();

    let mut fetches = 0;
    for it in 0..4 {
        let g = grads(SUBGROUPS, 16);
        want.accumulate_gradients(&g);
        engine.accumulate_gradients(&g);
        let w = want.update().unwrap();
        let o = engine.update().unwrap();
        assert_eq!(o.fp16_params, w.fp16_params, "iteration {it} diverged");
        fetches += o.fetches;
    }
    assert_eq!(
        engine.master_params().unwrap(),
        want.master_params().unwrap()
    );

    // The faults really fired and the retry layer really moved.
    assert!(fetches >= 200, "{fetches} fetches: the odds above need 200");
    let fired: u64 = injectors.iter().map(|i| i.counts().transient).sum();
    assert!(fired > 0, "injection must have fired");
    let short: u64 = injectors.iter().map(|i| i.counts().short_reads).sum();
    assert!(short > 0, "short reads must have fired");
    assert!(engine.io_retries() > 0, "retries must have been recorded");
    // Identical residency as the clean twin: nothing leaked from the pool.
    assert_eq!(
        engine.state_pool_outstanding(),
        want.state_pool_outstanding()
    );
    assert_eq!(engine.resident_count(), want.resident_count());
}

#[test]
fn transient_faults_are_invisible_to_training_on_every_engine() {
    // The tier-map template above over real files: tier "a" is a
    // directory, tier "b" injects 20% seeded transient faults. A
    // multi-iteration run must stay bit-identical to the fault-free
    // in-memory twin. Five of six subgroups rest in the host frames, so
    // every iteration still fetches and flushes one.
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);

    let clean_tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
    ];
    let mut want =
        MlpFuncEngine::new(cfg.clone(), adam, &clean_tiers, 0, states(6, 16)).unwrap();
    let mut want_out = Vec::new();
    for _ in 0..3 {
        want.accumulate_gradients(&grads(6, 16));
        want_out.push(want.update().unwrap().fp16_params);
    }
    let want_master = want.master_params().unwrap();

    let root = std::env::temp_dir().join(format!("mlp-fault-matrix-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let inject = Arc::new(FaultInjectBackend::new(
        Arc::new(MemBackend::new("b")) as Arc<dyn Backend>,
        FaultConfig::transient(97, 0.2),
    ));
    let faulty_tiers = vec![
        SharedTier::new(
            Arc::new(mlp_offload_suite::mlp_storage::DirBackend::new("a", &root).unwrap())
                as Arc<dyn Backend>,
            2.0,
        )
        .with_aio(AioConfig {
            retry: test_retry(8),
            ..AioConfig::default()
        }),
        SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 1.0).with_aio(AioConfig {
            retry: test_retry(8),
            ..AioConfig::default()
        }),
    ];
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), adam, &faulty_tiers, 0, states(6, 16)).unwrap();
    for (it, want_params) in want_out.iter().enumerate() {
        engine.accumulate_gradients(&grads(6, 16));
        let o = engine.update().unwrap();
        assert_eq!(&o.fp16_params, want_params, "iteration {it} diverged");
    }
    assert_eq!(
        engine.master_params().unwrap(),
        want_master,
        "master weights diverged"
    );
    assert!(inject.counts().transient > 0, "injection never fired");
    assert!(engine.io_retries() > 0, "retries never recorded");
    drop(engine);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn migration_under_transient_faults_stays_bit_identical() {
    // Adaptive re-planning with live durable-copy migration, concurrent
    // with 20% seeded transient faults on both tiers: the retry layer
    // absorbs the faults, the planner migrates subgroups between tiers at
    // iteration boundaries, and the whole run stays bit-identical to a
    // fault-free static-plan twin.
    let adam = AdamConfig::default();
    let base = EngineConfig::mlp_offload().with_host_frames(4);

    let clean_tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
    ];
    let mut want =
        MlpFuncEngine::new(base.clone(), adam, &clean_tiers, 0, states(10, 16)).unwrap();

    let injectors: Vec<Arc<FaultInjectBackend>> = [("a", 11u64), ("b", 53u64)]
        .iter()
        .map(|(name, seed)| {
            Arc::new(FaultInjectBackend::new(
                Arc::new(MemBackend::new(*name)) as Arc<dyn Backend>,
                FaultConfig::transient(*seed, 0.2),
            ))
        })
        .collect();
    // Deliberately mis-weighted (8:1 over equally fast backends) so the
    // live bandwidth estimates pull the split toward 1:1 and the planner
    // must migrate durable copies off the over-loaded tier.
    let faulty_tiers: Vec<SharedTier> = injectors
        .iter()
        .zip([8.0, 1.0])
        .map(|(inject, bw)| {
            SharedTier::new(Arc::clone(inject) as Arc<dyn Backend>, bw).with_aio(AioConfig {
                retry: test_retry(8),
                ..AioConfig::default()
            })
        })
        .collect();
    let mut engine = MlpFuncEngine::new(
        base.with_adaptive_replan(3),
        adam,
        &faulty_tiers,
        0,
        states(10, 16),
    )
    .unwrap();

    for it in 0..6 {
        let g = grads(10, 16);
        want.accumulate_gradients(&g);
        engine.accumulate_gradients(&g);
        let w = want.update().unwrap();
        let o = engine.update().unwrap();
        assert_eq!(
            o.cache_hits, w.cache_hits,
            "iteration {it}: migration broke the cache-hit guarantee"
        );
        assert_eq!(o.fp16_params, w.fp16_params, "iteration {it} diverged");
    }
    assert_eq!(
        engine.master_params().unwrap(),
        want.master_params().unwrap()
    );

    // All three mechanisms really exercised: faults fired, retries moved,
    // and migrations executed while the injection was armed.
    let fired: u64 = injectors.iter().map(|i| i.counts().transient).sum();
    assert!(fired > 0, "injection must have fired");
    assert!(engine.io_retries() > 0, "retries must have been recorded");
    assert!(
        engine.migrations_done() > 0,
        "mis-weighted tiers must trigger migration"
    );
    assert!(engine.planner_replans() >= 6, "planner never folded");
    // Nothing leaked from the staging pool relative to the clean twin.
    assert_eq!(
        engine.state_pool_outstanding(),
        want.state_pool_outstanding()
    );
}

#[test]
fn permanent_fault_on_one_tier_surfaces_typed_and_engine_redrives() {
    // One healthy tier, one that goes permanently dead mid-run: `update`
    // must return a typed permanent error without hanging or leaking, and
    // once the tier heals, re-driving the same iteration must converge to
    // the bit-identical fault-free result. Host frames stay below the
    // subgroup count so the iteration *must* spill to storage — with all
    // six subgroups cache-resident the dead tier is never exercised and
    // the update legitimately succeeds.
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(3);

    let clean_tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
    ];
    let mut want =
        MlpFuncEngine::new(cfg.clone(), adam, &clean_tiers, 0, states(6, 16)).unwrap();

    let inject = FaultInjectBackend::new(
        Arc::new(MemBackend::new("b")) as Arc<dyn Backend>,
        FaultConfig::permanent(7, 1.0),
    );
    inject.set_armed(false); // healthy during initial offload
    let inject = Arc::new(inject);
    let faulty_tiers = vec![
        SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 1.0),
    ];
    let mut engine = MlpFuncEngine::new(cfg, adam, &faulty_tiers, 0, states(6, 16)).unwrap();

    // Two clean iterations to warm the cache and spread placements.
    for _ in 0..2 {
        let g = grads(6, 16);
        want.accumulate_gradients(&g);
        engine.accumulate_gradients(&g);
        want.update().unwrap();
        engine.update().unwrap();
    }

    // Third iteration: the second tier dies.
    let g = grads(6, 16);
    want.accumulate_gradients(&g);
    engine.accumulate_gradients(&g);
    let w = want.update().unwrap();
    inject.set_armed(true);
    let err = engine.update().unwrap_err();
    assert_eq!(classify(&err), ErrorClass::Permanent);
    assert!(engine.update_in_progress(), "iteration must stay resumable");
    assert!(engine.io_errors() > 0);

    // Tier heals: the re-driven iteration matches the fault-free twin.
    inject.set_armed(false);
    let o = engine.update().unwrap();
    assert!(!engine.update_in_progress());
    assert_eq!(o.fp16_params, w.fp16_params, "re-driven iteration diverged");
    assert_eq!(
        engine.master_params().unwrap(),
        want.master_params().unwrap()
    );
}

#[test]
fn checkpoint_pipeline_absorbs_transient_object_store_faults() {
    // 20% seeded transient faults on the object-store hop of the two-hop
    // checkpoint pipeline, on the way in and on the way back out: the
    // object engine's retry layer must absorb them, so the published
    // checkpoint — and the engine restored from it — stays bit-identical
    // to a fault-free twin.
    use mlp_offload_suite::mlp_offload::checkpoint::{CheckpointManifest, CheckpointPipeline};
    use mlp_offload_suite::mlp_offload::func::SharedTier;
    use mlp_offload_suite::mlp_trace::TraceSink;

    let adam = AdamConfig::default();
    // The split is pinned: left adaptive, each twin re-splits its flushes
    // on its own wall-clock bandwidth estimates, so the twins' placements
    // — and with them the manifests' pre-staged tier indices — would
    // differ by timing rather than by anything under test.
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(5)
        .with_tier_ratio(vec![2.0, 1.0]);
    let tiers = || {
        vec![
            SharedTier::new(Arc::new(MemBackend::new("nvme")) as Arc<dyn Backend>, 2.0),
            SharedTier::new(Arc::new(MemBackend::new("pfs")) as Arc<dyn Backend>, 1.0),
        ]
    };
    let drive = |tiers: &[SharedTier]| {
        let mut e = MlpFuncEngine::new(cfg.clone(), adam, tiers, 0, states(6, 16)).unwrap();
        for _ in 0..3 {
            e.accumulate_gradients(&grads(6, 16));
            e.update().unwrap();
        }
        e
    };

    // Fault-free twin pipeline.
    let clean_tiers = tiers();
    let clean_engine = drive(&clean_tiers);
    let clean_store = Arc::new(ObjectBackend::with_config(
        "s3",
        ObjectConfig::deterministic(),
    ));
    let mut clean_pipe = CheckpointPipeline::new(
        Arc::new(MemBackend::new("stage")) as Arc<dyn Backend>,
        Arc::clone(&clean_store) as Arc<dyn Backend>,
        TraceSink::enabled(),
    );
    clean_pipe.checkpoint(&clean_engine, "t0").unwrap();

    // Faulty pipeline: same training, 20% transient faults on the
    // object hop, patient retry policy on that engine only.
    let faulty_tiers = tiers();
    let faulty_engine = drive(&faulty_tiers);
    let inject = Arc::new(FaultInjectBackend::new(
        Arc::new(ObjectBackend::with_config(
            "s3",
            ObjectConfig::deterministic(),
        )) as Arc<dyn Backend>,
        FaultConfig::transient(41, 0.2),
    ));
    let mut faulty_pipe = CheckpointPipeline::with_aio(
        Arc::new(MemBackend::new("stage")) as Arc<dyn Backend>,
        Arc::clone(&inject) as Arc<dyn Backend>,
        TraceSink::enabled(),
        AioConfig::default(),
        AioConfig {
            retry: test_retry(8),
            ..AioConfig::default()
        },
    );
    faulty_pipe.checkpoint(&faulty_engine, "t0").unwrap();
    assert!(inject.counts().transient > 0, "injection must have fired");
    assert!(faulty_pipe.io_retries() > 0, "retries must have moved");

    // Bit-identical publication: the manifests match byte for byte (read
    // raw, past the injector).
    let key = CheckpointManifest::manifest_key("t0", 0);
    inject.set_armed(false);
    assert_eq!(inject.read(&key).unwrap(), clean_store.read(&key).unwrap());
    inject.set_armed(true);

    // And the engine restored through the same faults — every read under
    // the object engine's retry policy — matches the fault-free twin
    // exactly.
    let restored = faulty_pipe
        .restore(cfg.clone(), adam, &faulty_tiers, 0, "t0")
        .unwrap();
    assert_eq!(
        restored.master_params().unwrap(),
        clean_engine.master_params().unwrap()
    );
}

#[test]
fn zero3_rides_through_transient_faults_bit_identically() {
    let adam = AdamConfig::default();
    let mut want = Zero3FuncEngine::new(
        Arc::new(MemBackend::new("ref")) as Arc<dyn Backend>,
        adam,
        0,
        states(4, 16),
    )
    .unwrap();

    let inject = Arc::new(FaultInjectBackend::new(
        Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
        FaultConfig::transient(19, 0.2),
    ));
    let mut engine = Zero3FuncEngine::with_aio(
        Arc::clone(&inject) as Arc<dyn Backend>,
        adam,
        0,
        states(4, 16),
        AioConfig {
            retry: test_retry(8),
            ..AioConfig::default()
        },
    )
    .unwrap();

    for _ in 0..3 {
        let g = grads(4, 16);
        for e in [&mut want, &mut engine] {
            e.accumulate_gradients(&g);
            e.flush_gradients().unwrap();
        }
        let w = want.update().unwrap();
        let o = engine.update().unwrap();
        assert_eq!(o.fp16_params, w.fp16_params);
    }
    assert_eq!(
        engine.master_params().unwrap(),
        want.master_params().unwrap()
    );
    assert!(inject.counts().transient > 0, "injection must have fired");
    assert!(engine.io_retries() > 0);
    assert_eq!(engine.pool_outstanding(), 0, "staging buffers leaked");
}
