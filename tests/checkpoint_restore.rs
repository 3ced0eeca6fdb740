//! Checkpoint/restore through the functional engine and
//! `CheckpointPipeline`: resuming from a checkpoint must continue
//! training exactly where it left off, and pre-staged subgroups (§3.3)
//! must be pinned on their tiers rather than copied.

use std::collections::HashSet;
use std::io::{self, ErrorKind};
use std::sync::{Arc, Mutex};

use mlp_offload_suite::mlp_offload::checkpoint::{
    CheckpointManifest, CheckpointPipeline, CheckpointStats, SubgroupLocation,
};
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
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
    states_of(SUBGROUPS)
}

fn states_of(subgroups: usize) -> Vec<SubgroupState> {
    (0..subgroups)
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
    grads_of(SUBGROUPS, seed)
}

fn grads_of(subgroups: usize, seed: usize) -> Vec<Vec<u16>> {
    (0..subgroups)
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
    // worker trains, checkpoints through NVMe staging into an in-memory
    // object store, dies, and a fresh process resumes bit-identically.
    // The published checkpoint deliberately spans both durability
    // domains: host-resident subgroups were trickled into the object
    // store, tier-resident ones are pre-staged references into the
    // shared NVMe/PFS tiers (§3.3).
    let shared = tiers();
    let cfg = EngineConfig::mlp_offload().with_host_frames(5);
    let trace = TraceSink::enabled();
    let object = Arc::new(MemBackend::new("s3"));
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
    let (target, prestaged): (usize, usize) =
        manifest.subgroups.iter().fold((0, 0), |(t, p), l| match l {
            SubgroupLocation::Target { .. } => (t + 1, p),
            SubgroupLocation::Prestaged { .. } => (t, p + 1),
        });
    assert!(
        target > 0 && prestaged > 0,
        "checkpoint must span both tiers"
    );
    assert!(
        object.object_count() > 0,
        "trickle must reach the object store"
    );
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

/// A checkpoint taken after an odd number of iterations restores into an
/// engine born holding every subgroup in host memory, whose next pass runs
/// in the *descending* order, as the checkpointed run's does: it opens by
/// resting the head of that order in frames, every load a hit where the
/// uninterrupted twin fetches what its frames did not keep, and lands on
/// the twin's bits. From the pass after it the two move the same steps.
#[test]
fn an_odd_iteration_restore_rests_the_head_of_the_descending_order() {
    let shared = tiers();
    let mut pipe = pipeline();
    // Three frames for six subgroups: the ascending head (0, 1, 2) would
    // be evicted before the descending pass reaches it.
    let cfg = EngineConfig::mlp_offload().with_host_frames(3);
    let pass = |engine: &mut MlpFuncEngine, seed| {
        engine.accumulate_gradients(&grads(seed));
        let o = engine.update().unwrap();
        (o.cache_hits, o.fetches, o.flushes, o.fp16_params)
    };

    let mut straight =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &tiers(), 0, states()).unwrap();
    let mut first =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    for it in 0..3 {
        step(&mut straight, it);
        step(&mut first, it);
    }
    pipe.checkpoint(&first, "odd").unwrap();
    drop(first);
    let mut resumed = pipe
        .restore(cfg, AdamConfig::default(), &shared, 0, "odd")
        .unwrap();
    assert_eq!(resumed.iterations_done(), 3);
    assert_eq!(resumed.resident_count(), 0);

    let want = pass(&mut straight, 3);
    let got = pass(&mut resumed, 3);
    let order: Vec<usize> = resumed.pass_plan().loads().map(|(s, _)| s).collect();
    assert_eq!(order, (0..SUBGROUPS).rev().collect::<Vec<_>>());
    assert_eq!((got.0, got.1, got.2), (SUBGROUPS, 0, SUBGROUPS - 3));
    assert_eq!((want.0, want.1, want.2), (3, SUBGROUPS - 3, SUBGROUPS - 3));
    assert_eq!(got.3, want.3, "the first restored pass");
    let next = (pass(&mut resumed, 4), pass(&mut straight, 4));
    assert_eq!(next.0, next.1, "the next pass");
    assert_eq!(
        resumed.master_params().unwrap(),
        straight.master_params().unwrap()
    );
}

/// A checkpoint started before the first update, right after `new` or
/// right after a restore, finds every subgroup born in host memory: it
/// copies each one as a host resident and pins nothing, and what it
/// restores trains on bit-identically to the uninterrupted twin.
#[test]
fn a_checkpoint_before_the_first_update_copies_the_born_subgroups() {
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload().with_host_frames(3);
    let shared = tiers();
    let mut straight = MlpFuncEngine::new(cfg.clone(), adam, &tiers(), 0, states()).unwrap();
    let born = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states()).unwrap();
    let copied = |(manifest, stats): (CheckpointManifest, CheckpointStats)| {
        let all = SUBGROUPS as u64 * LEN as u64 * 12;
        assert_eq!(stats.copied_bytes, all, "every subgroup copied");
        assert_eq!(stats.prestaged_bytes, 0, "nothing pinned");
        let copy = |loc: &SubgroupLocation| matches!(loc, SubgroupLocation::Target { .. });
        assert!(manifest.subgroups.iter().all(copy));
    };
    let mut after_new = pipeline();
    copied(after_new.checkpoint(&born, "new").unwrap());
    drop(born);
    for tier in &shared {
        let wrote = tier.backend.contains("w0/sub0");
        assert!(!wrote, "construction wrote state");
    }

    // Right after the restore: a pipeline with no upload to reuse copies
    // every subgroup again.
    let restored = after_new
        .restore(cfg.clone(), adam, &shared, 0, "new")
        .unwrap();
    let mut after_restore = pipeline();
    copied(after_restore.checkpoint(&restored, "restored").unwrap());
    drop(restored);

    let mut from_new = after_new
        .restore(cfg.clone(), adam, &shared, 0, "new")
        .unwrap();
    // Its own tier set: two engines of worker 0 on one set would read and
    // retire each other's objects.
    let mut from_restore = after_restore
        .restore(cfg, adam, &tiers(), 0, "restored")
        .unwrap();
    for it in 0..3 {
        step(&mut straight, it);
        step(&mut from_new, it);
        step(&mut from_restore, it);
    }
    let want = straight.master_params().unwrap();
    assert_eq!(from_new.master_params().unwrap(), want);
    assert_eq!(from_restore.master_params().unwrap(), want);
}

/// A restored engine is born: it knows no durable copy of its subgroups,
/// while the crashed run left one of each on the tiers. Each subgroup's
/// first eviction retires its key on every other tier, so after one pass
/// every subgroup has exactly one object, also those the pass re-placed.
#[test]
fn a_restored_run_retires_what_the_crashed_run_left() {
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(3)
        .with_tier_ratio(vec![2.0, 1.0]);
    let shared = tiers();
    let holders = |idx: usize| -> Vec<usize> {
        let key = format!("w0/sub{idx}");
        (0..shared.len())
            .filter(|&t| shared[t].backend.contains(&key))
            .collect()
    };
    let mut pipe = pipeline();
    let mut crashed = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states()).unwrap();
    step(&mut crashed, 0);
    pipe.checkpoint(&crashed, "it1").unwrap();
    for it in 1..4 {
        step(&mut crashed, it);
    }
    drop(crashed);
    let left: Vec<Vec<usize>> = (0..SUBGROUPS).map(holders).collect();
    let one_each = left.iter().all(|h| h.len() == 1);
    assert!(one_each, "the crashed run left {left:?}");

    // The restarted run weights the tiers the other way round, so its
    // first pass re-places what it evicts.
    let mut straight = MlpFuncEngine::new(cfg.clone(), adam, &tiers(), 0, states()).unwrap();
    let cfg = cfg.with_tier_ratio(vec![1.0, 2.0]);
    let mut resumed = pipe.restore(cfg, adam, &shared, 0, "it1").unwrap();
    step(&mut straight, 0);
    step(&mut straight, 1);
    step(&mut resumed, 1);
    let moved = resumed
        .pass_plan()
        .evictions()
        .filter(|&(s, tier)| left[s] != [tier])
        .count();
    assert!(moved > 0, "no eviction left the crashed run's tier");
    for idx in 0..SUBGROUPS {
        assert_eq!(holders(idx).len(), 1, "subgroup {idx}");
    }
    step(&mut straight, 2);
    step(&mut resumed, 2);
    assert_eq!(
        resumed.master_params().unwrap(),
        straight.master_params().unwrap()
    );
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
    // this subgroup's length. A new engine is born holding every subgroup;
    // its first (ascending) pass evicts the head of that order to the
    // tiers, where the second reads it back. The first update has already
    // read the second pass's leading fetches, as many as the pool has free
    // buffers for: with more subgroups than that, cut a copy the second
    // pass reads itself.
    const M: usize = 16;
    let shared = tiers();
    let mut fresh =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states_of(M)).unwrap();
    fresh.accumulate_gradients(&grads_of(M, 0));
    fresh.update().unwrap();
    let lead: Vec<usize> = fresh.prefetched_reads().iter().map(|r| r.0).collect();
    let (tier, key) = (0..M)
        .filter(|s| !lead.contains(s))
        .map(|s| format!("w0/sub{s}"))
        .find_map(|key| Some((shared.iter().find(|t| t.backend.contains(&key))?, key)))
        .expect("a subgroup the second pass reads itself is offloaded");
    let bytes = tier.backend.read(&key).unwrap();
    tier.backend
        .write(&key, &bytes[..bytes.len() - 12])
        .unwrap();
    let err = fresh
        .master_params()
        .expect_err("a short copy must not shrink the subgroup");
    assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
    fresh.accumulate_gradients(&grads_of(M, 1));
    let err = fresh
        .update()
        .expect_err("a short copy must not be updated");
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
            !pinned
                .into_iter()
                .any(|key| shared.iter().any(|t| t.backend.contains(&key))),
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
