//! Chaos suite: the deterministic crash-point matrix (DESIGN.md §15)
//! driven over real storage — every checkpoint-pipeline kill point ×
//! {directory, in-memory} publication tiers. The invariant at every
//! cell: a crash leaves either a bit-identically restorable checkpoint or
//! a clean typed error — zero panics, zero torn manifests, and the commit
//! point (the manifest PUT) never moves. Both checkpoints pre-stage, and
//! training continues past the crash before either is restored; in the
//! directory cell the engine's tiers are directories too, so its pins are
//! hard links.

use std::sync::Arc;

use mlp_offload_suite::mlp_offload::checkpoint::{
    CheckpointManifest, CheckpointPipeline, CrashPoint, ALL_CRASH_POINTS,
};
use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, DirBackend, MemBackend};
use mlp_offload_suite::mlp_tensor::F16;
use mlp_offload_suite::mlp_trace::TraceSink;

const SUBGROUPS: usize = 5;
const LEN: usize = 24;

/// The engine's two tiers: directories under the cell in the `dir` cell,
/// so its pins are real hard links, and in-memory otherwise.
fn tiers(label: &str, cell: &std::path::Path) -> Vec<SharedTier> {
    [("nvme", 2.0), ("pfs", 1.0)]
        .into_iter()
        .map(|(name, weight)| {
            let backend: Arc<dyn Backend> = match label {
                "dir" => Arc::new(DirBackend::new(name, cell.join(name)).unwrap()),
                _ => Arc::new(MemBackend::new(name)),
            };
            SharedTier::new(backend, weight)
        })
        .collect()
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

fn step(engine: &mut MlpFuncEngine, seed: usize) {
    let grads: Vec<Vec<u16>> = (0..SUBGROUPS)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + seed) as f32 * 0.07).cos() * 0.1).to_bits())
                .collect()
        })
        .collect();
    engine.accumulate_gradients(&grads);
    engine.update().unwrap();
}

/// The publication-tier half of the matrix: a real filesystem directory
/// or an in-memory store.
fn object_tier(label: &str, root: &std::path::Path) -> Arc<dyn Backend> {
    match label {
        "dir" => Arc::new(DirBackend::new("object", root.join("object")).unwrap()),
        "mem" => Arc::new(MemBackend::new("object")),
        other => panic!("unknown tier label {other}"),
    }
}

#[test]
fn crash_point_matrix_over_real_tiers_and_engines() {
    let root = std::env::temp_dir().join(format!("mlp-chaos-{}", std::process::id()));
    for tier in ["dir", "mem"] {
        for &cp in ALL_CRASH_POINTS {
            let cell = root.join(format!("{tier}-{cp:?}"));
            run_cell(tier, cp, &cell);
            println!("chaos cell ok: {tier} × {cp:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

fn run_cell(tier: &str, cp: CrashPoint, cell: &std::path::Path) {
    let trace = TraceSink::disabled();
    let shared = tiers(tier, cell);
    // Three of five subgroups stay cached: both checkpoints pin the other
    // two on their tiers.
    let cfg = EngineConfig::mlp_offload().with_host_frames(3);
    let mut engine =
        MlpFuncEngine::new(cfg.clone(), AdamConfig::default(), &shared, 0, states()).unwrap();
    step(&mut engine, 0);

    let staging: Arc<dyn Backend> = Arc::new(DirBackend::new("stage", cell.join("stage")).unwrap());
    let object = object_tier(tier, cell);
    let mut pipe =
        CheckpointPipeline::new(Arc::clone(&staging), Arc::clone(&object), trace.clone());
    let (_, c0) = pipe.checkpoint(&engine, "c0").unwrap();
    let at_c0 = engine.master_params().unwrap();

    step(&mut engine, 1);
    let at_c1 = engine.master_params().unwrap();
    let pending = engine.start_checkpoint(&pipe, "c1").unwrap();
    let c1 = pending.stats();
    assert!(
        c0.prestaged_bytes > 0 && c1.prestaged_bytes > 0,
        "{tier}/{cp:?}: both checkpoints pre-stage"
    );
    pipe.set_crash_point(Some(cp));
    let err = pipe.drain(pending).unwrap_err();
    assert_eq!(
        err.kind(),
        std::io::ErrorKind::Interrupted,
        "{tier}/{cp:?}: crash must surface typed"
    );
    // Training moves on past the crash, rewriting live tier keys, before
    // either checkpoint is restored.
    step(&mut engine, 2);
    step(&mut engine, 3);

    // Simulated restart: a fresh pipeline over the same stores. The
    // commit point is the manifest PUT — c1 is visible iff the crash
    // came after it.
    let pipe2 = CheckpointPipeline::new(Arc::clone(&staging), Arc::clone(&object), trace);
    let c1_published = object.contains(&CheckpointManifest::manifest_key("c1", 0));
    assert_eq!(
        c1_published,
        cp == CrashPoint::AfterPublish,
        "{tier}/{cp:?}: the commit point moved"
    );
    // No torn manifests: whatever manifest exists parses.
    for tag in ["c0", "c1"] {
        let key = CheckpointManifest::manifest_key(tag, 0);
        if object.contains(&key) {
            CheckpointManifest::from_bytes(&object.read(&key).unwrap())
                .unwrap_or_else(|e| panic!("{tier}/{cp:?}: torn manifest {tag}: {e}"));
        }
    }
    let (tag, want) = if c1_published {
        ("c1", &at_c1)
    } else {
        ("c0", &at_c0)
    };
    let restored = pipe2
        .restore(cfg.clone(), AdamConfig::default(), &shared, 0, tag)
        .unwrap();
    assert_eq!(
        &restored.master_params().unwrap(),
        want,
        "{tier}/{cp:?}: restore of {tag} diverged"
    );
    // A crash after the commit leaves the previous checkpoint intact
    // too (prune never ran).
    if c1_published {
        let prev = pipe2
            .restore(cfg, AdamConfig::default(), &shared, 0, "c0")
            .unwrap();
        assert_eq!(
            prev.master_params().unwrap(),
            at_c0,
            "{tier}/{cp:?}: c0 lost after post-commit crash"
        );
    }
}
