//! The codec stage under the functional engine: over two slow emulated
//! tiers whose measured rates turn it on, training stays bit-identical to
//! in-memory Adam through passes, a checkpoint and its restore (pre-staged
//! pins are coded objects, read back through plain reads), a migration and
//! a quarantine drain (plain reads of coded copies, written again by the
//! other tier's rule).

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlp_offload_suite::mlp_aio::{AioConfig, RetryPolicy};
use mlp_offload_suite::mlp_offload::checkpoint::CheckpointPipeline;
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier, UpdateOutcome};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, HealthConfig, MemBackend, TierHealth};
use mlp_offload_suite::mlp_tensor::F16;
use mlp_offload_suite::mlp_trace::TraceSink;

const M: usize = 10;
/// 12 KiB of state per subgroup.
const LEN: usize = 1024;
/// 0.5 MB/s: slow enough for the codec to pay even unoptimised (this
/// state codes to ≈ 0.9 of raw: three tensors share a block's table).
const SLOW_BPS: f64 = 5e5;

fn states() -> Vec<SubgroupState> {
    (0..M)
        .map(|s| {
            let params = (0..LEN).map(|i| ((s * LEN + i) as f32 * 0.37).sin());
            SubgroupState::new(params.collect())
        })
        .collect()
}

fn grads(seed: usize) -> Vec<Vec<u16>> {
    (0..M)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + seed) as f32 * 0.01).cos() * 0.1).to_bits())
                .collect()
        })
        .collect()
}

fn pass(engine: &mut MlpFuncEngine, seed: usize) -> io::Result<UpdateOutcome> {
    engine.accumulate_gradients(&grads(seed));
    engine.update()
}

fn tiers(stores: &[Arc<dyn Backend>], weights: &[f64]) -> Vec<SharedTier> {
    stores
        .iter()
        .zip(weights)
        .map(|(b, &w)| SharedTier::new(Arc::clone(b), w))
        .collect()
}

fn slow(name: &str) -> Arc<MemBackend> {
    Arc::new(MemBackend::throttled(name, SLOW_BPS, SLOW_BPS))
}

fn in_memory() -> Vec<SharedTier> {
    let stores = [
        Arc::new(MemBackend::new("a")),
        Arc::new(MemBackend::new("b")),
    ];
    tiers(&stores.map(|s| s as Arc<dyn Backend>), &[2.0, 1.0])
}

/// Whether some object on `store` is held coded: shorter than raw state.
fn holds_frames(store: &MemBackend) -> bool {
    store.total_bytes() < store.object_count() * 12 * LEN
}

/// Runs `engine` and its in-memory twin over `passes`, pass for pass equal.
fn train_both(
    engine: &mut MlpFuncEngine,
    twin: &mut MlpFuncEngine,
    passes: std::ops::Range<usize>,
) {
    for it in passes {
        let want = pass(twin, it).unwrap();
        let got = pass(engine, it).unwrap();
        assert_eq!(got.fp16_params, want.fp16_params, "pass {it}");
    }
}

/// Trains both from pass `from` until `coded` holds (the tiers' rules turn
/// on within a trial or two, however busy the host) and returns the next
/// pass.
fn train_until(
    engine: &mut MlpFuncEngine,
    twin: &mut MlpFuncEngine,
    from: usize,
    coded: impl Fn() -> bool,
) -> usize {
    let started = Instant::now();
    let mut next = from;
    while !coded() {
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "the tiers never coded"
        );
        train_both(engine, twin, next..next + 1);
        next += 1;
    }
    next
}

#[test]
fn coded_tiers_train_checkpoint_and_restore_bit_identically() {
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);
    let stores = [slow("nvme"), slow("pfs")];
    let shared = tiers(&stores.clone().map(|s| s as Arc<dyn Backend>), &[2.0, 1.0]);
    let mut twin = MlpFuncEngine::new(cfg.clone(), adam, &in_memory(), 0, states()).unwrap();
    let mut engine = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states()).unwrap();
    train_both(&mut engine, &mut twin, 0..4);
    let next = train_until(&mut engine, &mut twin, 4, || {
        stores.iter().all(|s| holds_frames(s))
    });

    let mut pipe = CheckpointPipeline::new(
        Arc::new(MemBackend::new("staging")) as Arc<dyn Backend>,
        Arc::new(MemBackend::new("objects")) as Arc<dyn Backend>,
        TraceSink::disabled(),
    );
    let (_, stats) = pipe.checkpoint(&engine, "coded").unwrap();
    assert!(stats.prestaged_bytes > 0, "coded tier copies are pinned");
    assert_eq!(
        engine.master_params().unwrap(),
        twin.master_params().unwrap()
    );
    drop(engine);

    let mut resumed = pipe.restore(cfg, adam, &shared, 0, "coded").unwrap();
    train_both(&mut resumed, &mut twin, next..next + 2);
    assert_eq!(
        resumed.master_params().unwrap(),
        twin.master_params().unwrap()
    );
}

#[test]
fn a_migration_between_coded_tiers_stays_bit_identical() {
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(4);
    let stores = [slow("nvme"), slow("pfs")];
    // Mis-weighted 8:1 over equally fast tiers: the measured bandwidths
    // pull the split toward 1:1, and the planner migrates copies.
    let shared = tiers(&stores.clone().map(|s| s as Arc<dyn Backend>), &[8.0, 1.0]);
    let mut twin = MlpFuncEngine::new(cfg.clone(), adam, &in_memory(), 0, states()).unwrap();
    let mut engine =
        MlpFuncEngine::new(cfg.with_adaptive_replan(2), adam, &shared, 0, states()).unwrap();
    train_both(&mut engine, &mut twin, 0..6);
    assert!(engine.migrations_done() > 0, "the planner never migrated");
    train_until(&mut engine, &mut twin, 6, || {
        stores.iter().all(|s| holds_frames(s))
    });
    assert_eq!(
        engine.master_params().unwrap(),
        twin.master_params().unwrap()
    );
}

/// A slow store whose writes fail once armed.
struct WritesFail {
    inner: Arc<MemBackend>,
    armed: AtomicBool,
}

impl Backend for WritesFail {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        if self.armed.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                "device gone",
            ));
        }
        self.inner.write(key, data)
    }
    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        self.inner.read(key)
    }
    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        self.inner.read_into(key, dst)
    }
    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[test]
fn a_quarantine_drain_of_a_coded_tier_stays_bit_identical() {
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(4)
        .with_tier_ratio(vec![2.0, 1.0]);
    let (dying, survivor) = (slow("dying"), slow("survivor"));
    let gate = Arc::new(WritesFail {
        inner: Arc::clone(&dying),
        armed: AtomicBool::new(false),
    });
    let health = TierHealth::new("dying", HealthConfig::hair_trigger());
    let no_retry = AioConfig {
        retry: RetryPolicy::none(),
        ..AioConfig::default()
    };
    let shared = vec![
        SharedTier::new(Arc::clone(&gate) as Arc<dyn Backend>, 2.0)
            .with_aio(no_retry)
            .with_health(Arc::clone(&health)),
        SharedTier::new(Arc::clone(&survivor) as Arc<dyn Backend>, 1.0),
    ];
    let mut twin = MlpFuncEngine::new(cfg.clone(), adam, &in_memory(), 0, states()).unwrap();
    let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, states()).unwrap();
    train_both(&mut engine, &mut twin, 0..3);
    // The dying tier holds coded copies to drain.
    let next = train_until(&mut engine, &mut twin, 3, || holds_frames(&dying));

    gate.armed.store(true, Ordering::SeqCst);
    let want = pass(&mut twin, next).unwrap();
    assert!(pass(&mut engine, next).is_err());
    assert!(health.is_quarantined());
    let got = engine.update().unwrap();
    assert_eq!(got.fp16_params, want.fp16_params, "the re-drive");
    assert!(engine.drains_done() > 0, "nothing was drained");
    train_both(&mut engine, &mut twin, next + 1..next + 3);
    assert_eq!(
        engine.master_params().unwrap(),
        twin.master_params().unwrap()
    );
}
