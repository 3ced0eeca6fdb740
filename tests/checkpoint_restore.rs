//! Checkpoint/restore through the functional engine and
//! `CheckpointPipeline`: resuming from a checkpoint must continue
//! training exactly where it left off, and pre-staged subgroups (§3.3)
//! must be pinned on their tiers rather than copied.

use std::collections::HashSet;
use std::io::{self, ErrorKind};
use std::sync::{Arc, Mutex};

use mlp_offload_suite::mlp_offload::checkpoint::{
    CheckpointManifest, CheckpointPipeline, SubgroupLocation,
};
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend, ObjectBackend, ObjectConfig};
use mlp_offload_suite::mlp_tensor::F16;
use mlp_offload_suite::mlp_trace::TraceSink;

const SUBGROUPS: usize = 6;
const LEN: usize = 20;

fn tiers() -> Vec<SharedTier> {
    vec![
        SharedTier::new(Arc::new(MemBackend::new("nvme")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(MemBackend::new("pfs")) as Arc<dyn Backend>, 1.0),
    ]
}

fn states() -> Vec<SubgroupState> {
    (0..SUBGROUPS)
        .map(|s| {
            SubgroupState::new(
                (0..LEN)
                    .map(|i| ((s * LEN + i) as f32 * 0.1).sin())
                    .collect(),
            )
        })
        .collect()
}

fn grads(seed: usize) -> Vec<Vec<u16>> {
    (0..SUBGROUPS)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + seed) as f32 * 0.07).cos() * 0.1).to_bits())
                .collect()
        })
        .collect()
}

fn step(engine: &mut MlpFuncEngine, seed: usize) {
    engine.accumulate_gradients(&grads(seed));
    engine.update().unwrap();
}

/// A pipeline over in-memory staging and object stores.
fn pipeline() -> CheckpointPipeline {
    CheckpointPipeline::new(
        Arc::new(MemBackend::new("nvme-staging")) as Arc<dyn Backend>,
        Arc::new(MemBackend::new("pfs-checkpoint")) as Arc<dyn Backend>,
        TraceSink::disabled(),
    )
}

/// A tier handle whose first read of each object fails with a transient
/// error; later reads reach the wrapped store.
struct FirstReadFails {
    inner: Arc<dyn Backend>,
    read_before: Mutex<HashSet<String>>,
}

impl Backend for FirstReadFails {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.inner.write(key, data)
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        if self.read_before.lock().unwrap().insert(key.to_string()) {
            return Err(io::Error::new(
                ErrorKind::Interrupted,
                format!("first read of {key}"),
            ));
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
        self.inner.name()
    }
}

#[test]
fn restore_resumes_exactly_where_training_left_off() {
    let shared = tiers();
    let mut pipe = pipeline();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);

    // Uninterrupted run: 6 iterations.
    let mut straight =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &tiers(), 0, states()).unwrap();
    for it in 0..6 {
        step(&mut straight, it);
    }

    // Interrupted run: 3 iterations, checkpoint, drop, restore, 3 more.
    let mut first =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    for it in 0..3 {
        step(&mut first, it);
    }
    let (_manifest, stats) = pipe.checkpoint(&first, "it3").unwrap();
    assert!(
        stats.prestaged_bytes > 0,
        "tier-resident subgroups must pre-stage"
    );
    assert!(stats.copied_bytes > 0, "host-resident subgroups must copy");
    drop(first);

    let mut resumed = pipe
        .restore(cfg, AdamConfig::default(), &shared, 0, "it3")
        .unwrap();
    assert_eq!(resumed.iterations_done(), 3);
    for it in 3..6 {
        step(&mut resumed, it);
    }

    // The resumed run must land on the identical master state (Adam's
    // bias correction makes this sensitive to the restored step counter).
    assert_eq!(
        resumed.master_params().unwrap(),
        straight.master_params().unwrap()
    );
}

/// Pre-staged subgroups come back through the tier's I/O engine, so its
/// retry policy absorbs a transient read error instead of failing the
/// restore.
#[test]
fn prestaged_restore_retries_transient_tier_read_errors() {
    let shared = tiers();
    let mut pipe = pipeline();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    for it in 0..3 {
        step(&mut engine, it);
    }
    let (_, stats) = pipe.checkpoint(&engine, "it3").unwrap();
    assert!(stats.prestaged_bytes > 0, "tier residents must pre-stage");
    let want = engine.master_params().unwrap();
    drop(engine);

    let flaky: Vec<SharedTier> = shared
        .iter()
        .map(|t| SharedTier {
            backend: Arc::new(FirstReadFails {
                inner: Arc::clone(&t.backend),
                read_before: Mutex::new(HashSet::new()),
            }),
            ..t.clone()
        })
        .collect();
    let restored = pipe
        .restore(cfg, AdamConfig::default(), &flaky, 0, "it3")
        .unwrap();
    assert_eq!(restored.master_params().unwrap(), want);
}

/// A pre-staged subgroup is pinned on its tier under the checkpoint's own
/// key, so the updates that rewrite the live key never reach it: the
/// checkpoint restores bit-identically however far training has moved
/// on, and still without copying the tier residents.
#[test]
fn prestaged_checkpoint_survives_further_training() {
    // The split is pinned so the placement, and so the byte split, repeats.
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(5)
        .with_tier_ratio(vec![2.0, 1.0]);
    for more in [1, 2, 5] {
        let shared = tiers();
        let mut pipe = pipeline();
        let mut engine =
            MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
        for it in 0..3 {
            step(&mut engine, it);
        }
        // Five of six 240-byte subgroups rest in the host frames and are
        // copied; the sixth is pinned on its tier.
        let (_, stats) = pipe.checkpoint(&engine, "it3").unwrap();
        assert_eq!((stats.prestaged_bytes, stats.copied_bytes), (240, 1200));
        let at_checkpoint = engine.master_params().unwrap();
        for it in 3..3 + more {
            step(&mut engine, it);
        }
        let restored = pipe
            .restore(cfg.clone(), AdamConfig::default(), &shared, 0, "it3")
            .unwrap();
        assert_eq!(
            restored.master_params().unwrap(),
            at_checkpoint,
            "restored after {more} further iterations"
        );
    }
}

#[test]
fn prestaged_fraction_grows_with_smaller_cache() {
    // Tiny cache → almost everything on tiers → high pre-staged fraction.
    let small_cache = EngineConfig::mlp_offload().with_host_frames(3);
    let mut small =
        MlpFuncEngine::new(small_cache, AdamConfig::default(), &tiers(), 0, states()).unwrap();
    step(&mut small, 0);
    let (_, s_small) = pipeline().checkpoint(&small, "a").unwrap();

    // Huge cache → everything host-resident → everything copied.
    let big_cache = EngineConfig::mlp_offload().with_host_frames(64);
    let mut big =
        MlpFuncEngine::new(big_cache, AdamConfig::default(), &tiers(), 0, states()).unwrap();
    step(&mut big, 0);
    let (_, s_big) = pipeline().checkpoint(&big, "b").unwrap();

    assert!(s_small.prestaged_fraction() > s_big.prestaged_fraction());
    assert_eq!(s_big.prestaged_fraction(), 0.0);
}

#[test]
fn kill_and_restore_resumes_from_nvme_plus_object_checkpoint() {
    // The acceptance scenario for the asynchronous two-hop pipeline: a
    // worker trains, checkpoints through NVMe staging into an emulated
    // object store, dies, and a fresh process resumes bit-identically.
    // The published checkpoint deliberately spans both durability
    // domains: host-resident subgroups were trickled into the object
    // store, tier-resident ones are pre-staged references into the
    // shared NVMe/PFS tiers (§3.3).
    let shared = tiers();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);
    let trace = TraceSink::enabled();
    let object = Arc::new(ObjectBackend::with_config(
        "s3",
        ObjectConfig::deterministic(),
    ));
    let mut pipe = CheckpointPipeline::new(
        Arc::new(MemBackend::new("nvme-staging")) as Arc<dyn Backend>,
        Arc::clone(&object) as Arc<dyn Backend>,
        trace.clone(),
    );

    // Uninterrupted twin: 6 iterations straight through.
    let mut straight =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &tiers(), 0, states()).unwrap();
    for it in 0..6 {
        step(&mut straight, it);
    }

    // Interrupted run: 3 iterations, checkpoint, kill.
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    for it in 0..3 {
        step(&mut engine, it);
    }
    let pending = engine.start_checkpoint(&pipe, "it3").unwrap();
    let (manifest, stats) = pipe.drain(pending).unwrap();
    assert!(stats.copied_bytes > 0, "host-resident subgroups must copy");
    assert!(stats.prestaged_bytes > 0, "tier residents must pre-stage");
    let (target, prestaged): (usize, usize) = manifest.subgroups.iter().fold((0, 0), |(t, p), l| {
        match l {
            SubgroupLocation::Target { .. } => (t + 1, p),
            SubgroupLocation::Prestaged { .. } => (t, p + 1),
        }
    });
    assert!(target > 0 && prestaged > 0, "checkpoint must span both tiers");
    assert!(object.object_count() > 0, "trickle must reach the object store");
    // The kill: worker state is gone; only the shared tiers and the
    // object store survive.
    drop(engine);

    let mut resumed = pipe
        .restore(cfg, AdamConfig::default(), &shared, 0, "it3")
        .unwrap();
    assert_eq!(resumed.iterations_done(), 3);
    for it in 3..6 {
        step(&mut resumed, it);
    }
    assert_eq!(
        resumed.master_params().unwrap(),
        straight.master_params().unwrap(),
        "resumed run must land on the identical master state"
    );
    // The pipeline's meters saw the whole story.
    let m = trace.metrics_snapshot();
    assert_eq!(m.counter("ckpt.checkpoints"), Some(1));
    assert_eq!(m.counter("ckpt.restores"), Some(1));
    assert!(m.counter("ckpt.trickle_bytes").unwrap_or(0) > 0);
    assert!(m.counter("ckpt.prestaged_bytes").unwrap_or(0) > 0);
}

#[test]
fn restore_fails_cleanly_on_missing_checkpoint() {
    let err = pipeline()
        .restore(
            EngineConfig::mlp_offload(),
            AdamConfig::default(),
            &tiers(),
            0,
            "nope",
        )
        .err()
        .expect("missing checkpoint must error");
    assert_eq!(err.kind(), ErrorKind::NotFound);
}

#[test]
fn torn_state_objects_surface_typed_errors_not_panics() {
    let cfg = EngineConfig::mlp_offload();

    // A durable tier copy one whole record short: a multiple of 12, but not
    // this subgroup's length. A cold engine retains nothing, so every
    // subgroup is read from its tier.
    let shared = tiers();
    let cold =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    let tier = shared
        .iter()
        .find(|t| t.backend.contains("w0/sub0"))
        .expect("subgroup 0 is offloaded");
    let bytes = tier.backend.read("w0/sub0").unwrap();
    tier.backend
        .write("w0/sub0", &bytes[..bytes.len() - 12])
        .unwrap();
    let err = cold
        .master_params()
        .expect_err("a short copy must not shrink the subgroup");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");

    // A checkpointed object cut 5 bytes short, a copy in the object store
    // or a pin on a tier: not whole 12-byte records.
    let cfg = cfg.with_host_frames(5);
    let shared = tiers();
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    step(&mut engine, 0);
    let mut pipe = pipeline();
    let (manifest, _) = pipe.checkpoint(&engine, "torn").unwrap();
    for pinned in [false, true] {
        let (store, key) = manifest
            .subgroups
            .iter()
            .find_map(|loc| match loc {
                SubgroupLocation::Target { key } if !pinned => Some((pipe.object_backend(), key)),
                SubgroupLocation::Prestaged { tier, key } if pinned => {
                    Some((&shared[*tier].backend, key))
                }
                _ => None,
            })
            .expect("the checkpoint holds both location kinds");
        let bytes = store.read(key).unwrap();
        store.write(key, &bytes[..bytes.len() - 5]).unwrap();
        let err = pipe
            .restore(cfg.clone(), AdamConfig::default(), &shared, 0, "torn")
            .err()
            .expect("a torn object must not restore");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "pinned {pinned}: {err}");
        assert!(
            err.to_string().contains(&(LEN * 12 - 5).to_string()),
            "pinned {pinned}: {err}"
        );
        store.write(key, &bytes).unwrap();
    }
}

#[test]
fn checkpoint_refuses_tags_the_manifest_cannot_carry() {
    let shared = tiers();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    step(&mut engine, 0);
    let staging = Arc::new(MemBackend::new("nvme-staging"));
    let object = Arc::new(MemBackend::new("s3"));
    let mut pipe = CheckpointPipeline::new(
        Arc::clone(&staging) as Arc<dyn Backend>,
        Arc::clone(&object) as Arc<dyn Backend>,
        TraceSink::disabled(),
    );
    for tag in ["", "a\nb", "a\r", "a\r\nb", "\n"] {
        let refusals = [
            (
                "MlpFuncEngine::start_checkpoint",
                engine.start_checkpoint(&pipe, tag).err(),
            ),
            (
                "CheckpointPipeline::checkpoint",
                pipe.checkpoint(&engine, tag).err(),
            ),
        ];
        for (entry, err) in refusals {
            let err = err.unwrap_or_else(|| panic!("{entry} accepted tag {tag:?}"));
            assert_eq!(
                err.kind(),
                ErrorKind::InvalidInput,
                "{entry}, tag {tag:?}: {err}"
            );
        }
        let pinned = (0..SUBGROUPS).map(|idx| CheckpointManifest::subgroup_key(tag, 0, idx));
        assert!(
            !pinned.into_iter().any(|key| shared.iter().any(|t| t.backend.contains(&key))),
            "a refused checkpoint pins nothing"
        );
    }
    assert_eq!(
        staging.object_count() + object.object_count(),
        0,
        "a refused checkpoint writes nothing"
    );
    // A one-line tag still round-trips.
    pipe.checkpoint(&engine, "one line").unwrap();
    pipe.restore(cfg, AdamConfig::default(), &shared, 0, "one line")
        .unwrap();
}
