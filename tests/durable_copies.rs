//! One durable copy per subgroup. When an eviction re-places a subgroup on
//! a tier other than the one holding its previous copy, the engine deletes
//! that copy once the new write is durable. After every pass no subgroup's
//! state key exists on two tiers, and each subgroup evicted at least once
//! has exactly one copy. Until the new write is durable the superseded
//! copy stays, and an eviction that loses its payload falls back to it.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier, UpdateOutcome};
use mlp_offload_suite::mlp_offload::policy::ledger::{Load, PassPlan};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{
    classify, Backend, DirBackend, ErrorClass, HealthConfig, MemBackend, TierHealth,
};
use mlp_offload_suite::mlp_tensor::F16;

const LEN: usize = 24;

fn states(m: usize) -> Vec<SubgroupState> {
    (0..m)
        .map(|s| SubgroupState::new((0..LEN).map(|i| ((s * LEN + i) as f32).sin()).collect()))
        .collect()
}

fn grads(m: usize, seed: usize) -> Vec<Vec<u16>> {
    (0..m)
        .map(|s| {
            (0..LEN)
                .map(|i| F16::from_f32(((s * LEN + i + seed) as f32 * 0.01).cos() * 0.1).to_bits())
                .collect()
        })
        .collect()
}

fn pass(engine: &mut MlpFuncEngine, seed: usize) -> io::Result<UpdateOutcome> {
    engine.accumulate_gradients(&grads(engine.num_subgroups(), seed));
    engine.update()
}

fn mem_tiers(weights: &[f64]) -> (Vec<Arc<MemBackend>>, Vec<SharedTier>) {
    let mems: Vec<Arc<MemBackend>> = (0..weights.len())
        .map(|i| Arc::new(MemBackend::new(format!("mem{i}"))))
        .collect();
    let shared = mems
        .iter()
        .zip(weights)
        .map(|(b, &w)| SharedTier::new(Arc::clone(b) as Arc<dyn Backend>, w))
        .collect();
    (mems, shared)
}

/// Per pass, the tiers that hold each subgroup's state key, checked
/// against the one-copy invariant: never two, and exactly one for every
/// subgroup a completed pass has evicted.
struct Copies {
    evicted: Vec<bool>,
    /// The tier of each subgroup's last eviction, and how many evictions
    /// moved a subgroup off the tier of its previous one.
    last: Vec<Option<usize>>,
    replaced: usize,
}

impl Copies {
    fn new(m: usize) -> Self {
        Copies {
            evicted: vec![false; m],
            last: vec![None; m],
            replaced: 0,
        }
    }

    /// Checks the tiers after a pass; `plan` is a completed pass's plan.
    fn check(&mut self, shared: &[SharedTier], plan: Option<&PassPlan>, what: &str) {
        for (s, tier) in plan.iter().flat_map(|p| p.evictions()) {
            self.evicted[s] = true;
            self.replaced += usize::from(self.last[s].is_some_and(|t| t != tier));
            self.last[s] = Some(tier);
        }
        for (idx, &evicted) in self.evicted.iter().enumerate() {
            let key = format!("w0/sub{idx}");
            let holders: Vec<usize> = (0..shared.len())
                .filter(|&t| shared[t].backend.contains(&key))
                .collect();
            assert!(
                holders.len() <= 1,
                "{what}: subgroup {idx} on tiers {holders:?}"
            );
            if evicted {
                assert_eq!(
                    holders.len(),
                    1,
                    "{what}: evicted subgroup {idx} has no copy"
                );
            }
        }
    }
}

/// Files under `root`, the unit a directory tier spends space in.
fn files(root: &Path) -> usize {
    std::fs::read_dir(root).map_or(0, |dir| {
        dir.map(|e| e.unwrap().path())
            .map(|p| if p.is_dir() { files(&p) } else { 1 })
            .sum()
    })
}

fn temp_root(tag: &str) -> PathBuf {
    let p = std::env::temp_dir().join(format!("mlp-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// Over two memory tiers, under the default adaptive split and with the
/// split pinned at 2:1, many evictions re-place their subgroup, and each
/// one leaves a single copy behind. The tiers hold exactly one object per
/// subgroup evicted so far, and the bits are a fault-free twin's.
#[test]
fn re_placed_evictions_leave_one_copy_on_memory_tiers() {
    const M: usize = 64;
    let adam = AdamConfig::default();
    let frames = 3 + M / 4;
    for pinned in [false, true] {
        let mut cfg = EngineConfig::mlp_offload().with_host_frames(frames);
        if pinned {
            cfg = cfg.with_tier_ratio(vec![2.0, 1.0]);
        }
        let (mems, shared) = mem_tiers(&[2.0, 1.0]);
        let mut engine = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(M)).unwrap();
        let (_, twin_tiers) = mem_tiers(&[2.0, 1.0]);
        let mut twin = MlpFuncEngine::new(cfg, adam, &twin_tiers, 0, states(M)).unwrap();
        let mut copies = Copies::new(M);
        for it in 0..8 {
            let what = format!("pinned {pinned}, pass {it}");
            let got = pass(&mut engine, it).unwrap();
            assert_eq!(
                got.fp16_params,
                pass(&mut twin, it).unwrap().fp16_params,
                "{what}"
            );
            copies.check(&shared, Some(engine.pass_plan()), &what);
            let objects: usize = mems.iter().map(|b| b.object_count()).sum();
            let evicted = copies.evicted.iter().filter(|&&e| e).count();
            assert_eq!(objects, evicted, "{what}: objects on the tiers");
        }
        assert!(
            copies.replaced > M,
            "pinned {pinned}: {} re-placed",
            copies.replaced
        );
        assert_eq!(
            engine.master_params().unwrap(),
            twin.master_params().unwrap()
        );
    }
}

/// Over two directory tiers, deliberately mis-weighted so that the
/// adaptive planner migrates durable copies as well: each tier spends one
/// file per subgroup it holds, and no subgroup has a file on both.
#[test]
fn directory_tiers_hold_one_file_per_subgroup_through_migrations() {
    const M: usize = 10;
    let adam = AdamConfig::default();
    let roots = [temp_root("migrate-a"), temp_root("migrate-b")];
    let shared: Vec<SharedTier> = roots
        .iter()
        .zip([8.0, 1.0])
        .map(|(root, w)| {
            let dir = DirBackend::new(root.display().to_string(), root).unwrap();
            SharedTier::new(Arc::new(dir) as Arc<dyn Backend>, w)
        })
        .collect();
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(3)
        .with_adaptive_replan(4);
    let mut engine = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(M)).unwrap();
    let (_, twin_tiers) = mem_tiers(&[1.0]);
    let mut twin = MlpFuncEngine::new(cfg, adam, &twin_tiers, 0, states(M)).unwrap();
    let mut copies = Copies::new(M);
    for it in 0..8 {
        let what = format!("pass {it}");
        let got = pass(&mut engine, it).unwrap();
        assert_eq!(
            got.fp16_params,
            pass(&mut twin, it).unwrap().fp16_params,
            "{what}"
        );
        copies.check(&shared, Some(engine.pass_plan()), &what);
        let evicted = copies.evicted.iter().filter(|&&e| e).count();
        assert_eq!(
            files(&roots[0]) + files(&roots[1]),
            evicted,
            "{what}: files"
        );
    }
    assert!(
        engine.migrations_done() > 0,
        "the skewed placement never migrated"
    );
    assert!(copies.replaced > 0, "no eviction re-placed a subgroup");
    for root in &roots {
        std::fs::remove_dir_all(root).unwrap();
    }
}

/// A tier that, once armed, fails every write and passes every other op
/// through: a device dead for ingest that still serves reads and deletes.
struct WritesFail {
    inner: Arc<dyn Backend>,
    armed: AtomicBool,
}

impl Backend for WritesFail {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        if self.armed.load(Ordering::SeqCst) {
            return Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("{key}: device gone"),
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

/// A directory tier dies for writes mid-run and is quarantined. The failed
/// pass keeps at most one copy of every subgroup, the drain moves the dead
/// tier's copies off it, and the evictions after it retire the copies that
/// host-resident subgroups still had there: the dead tier ends empty.
#[test]
fn a_quarantine_drain_leaves_one_copy_and_empties_the_dead_tier() {
    const M: usize = 24;
    let adam = AdamConfig::default();
    let roots = [temp_root("dying"), temp_root("survivor")];
    let dir = |i: usize| Arc::new(DirBackend::new(format!("dir{i}"), &roots[i]).unwrap());
    let dying = Arc::new(WritesFail {
        inner: dir(0),
        armed: AtomicBool::new(false),
    });
    let health = TierHealth::new("dying", HealthConfig::hair_trigger());
    let shared = vec![
        SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 2.0)
            .with_health(Arc::clone(&health)),
        SharedTier::new(dir(1) as Arc<dyn Backend>, 1.0),
    ];
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(3)
        .with_tier_ratio(vec![2.0, 1.0]);
    let mut engine = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(M)).unwrap();
    let (_, twin_tiers) = mem_tiers(&[2.0, 1.0]);
    let mut twin = MlpFuncEngine::new(cfg, adam, &twin_tiers, 0, states(M)).unwrap();
    let mut copies = Copies::new(M);
    for it in 0..2 {
        pass(&mut engine, it).unwrap();
        pass(&mut twin, it).unwrap();
        copies.check(&shared, Some(engine.pass_plan()), &format!("pass {it}"));
    }
    assert!(
        files(&roots[0]) > 0,
        "the dying tier holds nothing to drain"
    );

    dying.armed.store(true, Ordering::SeqCst);
    let want = pass(&mut twin, 2).unwrap();
    let err = pass(&mut engine, 2).unwrap_err();
    assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
    assert!(health.is_quarantined());
    copies.check(&shared, None, "the failed pass");
    let got = engine.update().unwrap();
    assert_eq!(got.fp16_params, want.fp16_params, "the re-drive");
    assert!(engine.drains_done() > 0, "nothing was drained");
    copies.check(&shared, Some(engine.pass_plan()), "the re-drive");
    for it in 3..6 {
        pass(&mut engine, it).unwrap();
        pass(&mut twin, it).unwrap();
        copies.check(&shared, Some(engine.pass_plan()), &format!("pass {it}"));
    }
    assert_eq!(files(&roots[0]), 0, "copies left on the quarantined tier");
    let evicted = copies.evicted.iter().filter(|&&e| e).count();
    assert_eq!(files(&roots[1]), evicted);
    assert_eq!(
        engine.master_params().unwrap(),
        twin.master_params().unwrap()
    );
    for root in &roots {
        std::fs::remove_dir_all(root).unwrap();
    }
}

/// A memory tier whose write of one key panics once armed: the I/O worker
/// catches the unwind, and the flush's payload is lost with it.
struct PanicsOnWrite {
    inner: MemBackend,
    key: String,
    armed: AtomicBool,
}

impl Backend for PanicsOnWrite {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        if self.armed.load(Ordering::SeqCst) && key == self.key {
            panic!("backend bug: the write of {key} blew up");
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

/// In the third pass subgroup 3 is fetched from tier 0 and evicted to
/// tier 1, where its first pass left a copy. The write panics and loses
/// the updated payload. The subgroup must go back to the tier-0 copy it
/// was fetched from, so the re-drive applies the gradient to that again:
/// re-driving from the first pass's copy would return `Ok` with subgroup
/// 3 silently behind.
#[test]
fn a_re_placing_flush_that_loses_its_payload_re_drives_from_the_superseded_copy() {
    const M: usize = 8;
    let adam = AdamConfig::default();
    let cfg = EngineConfig::mlp_offload()
        .with_host_frames(3)
        .with_tier_ratio(vec![2.0, 1.0]);
    let flaky = Arc::new(PanicsOnWrite {
        inner: MemBackend::new("mem1"),
        key: "w0/sub3".into(),
        armed: AtomicBool::new(false),
    });
    let shared = vec![
        SharedTier::new(Arc::new(MemBackend::new("mem0")) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::clone(&flaky) as Arc<dyn Backend>, 1.0),
    ];
    let mut engine = MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(M)).unwrap();
    let (_, twin_tiers) = mem_tiers(&[2.0, 1.0]);
    let mut twin = MlpFuncEngine::new(cfg, adam, &twin_tiers, 0, states(M)).unwrap();
    let mut copies = Copies::new(M);
    for it in 0..2 {
        let got = pass(&mut engine, it).unwrap();
        assert_eq!(got.fp16_params, pass(&mut twin, it).unwrap().fp16_params);
        copies.check(&shared, Some(engine.pass_plan()), &format!("pass {it}"));
        let first = engine.pass_plan().evictions().find(|&(s, _)| s == 3);
        if it == 0 {
            assert_eq!(first, Some((3, 1)), "the first pass leaves 3 on tier 1");
        }
    }

    let want = pass(&mut twin, 2).unwrap();
    let plan = twin.pass_plan();
    let fetched = plan.loads().find(|&(s, _)| s == 3).map(|(_, load)| load);
    assert!(
        matches!(fetched, Some(Load::Fetch { tier: 0, .. })),
        "{fetched:?}"
    );
    assert!(
        plan.evictions().any(|e| e == (3, 1)),
        "3 is not re-placed on tier 1"
    );

    flaky.armed.store(true, Ordering::SeqCst);
    let err = pass(&mut engine, 2).unwrap_err();
    assert!(err.to_string().contains("panicked"), "{err}");
    copies.check(&shared, None, "the failed pass");
    flaky.armed.store(false, Ordering::SeqCst);
    let got = engine.update().unwrap();
    assert_eq!(got.fp16_params, want.fp16_params, "the re-drive");
    copies.check(&shared, Some(engine.pass_plan()), "the re-drive");
    for it in 3..5 {
        let got = pass(&mut engine, it).unwrap();
        assert_eq!(
            got.fp16_params,
            pass(&mut twin, it).unwrap().fp16_params,
            "pass {it}"
        );
        copies.check(&shared, Some(engine.pass_plan()), &format!("pass {it}"));
    }
    assert_eq!(
        engine.master_params().unwrap(),
        twin.master_params().unwrap()
    );
}
