//! Checkpoint pre-staging accounting and the asynchronous multi-tier
//! checkpoint pipeline (§3.3).
//!
//! A side benefit of multi-path offloading: subgroups that live on
//! *persistent* tiers (NVMe, PFS, object store) at an iteration boundary
//! are already durable, so an asynchronous multi-tier checkpointing engine
//! (the paper cites DataStates-LLM) only needs to flush the host- and
//! GPU-resident remainder. This module quantifies that saving
//! ([`PrestageReport`]) and implements the engine itself
//! ([`CheckpointPipeline`]): a two-hop *flush → trickle* pipeline that
//! stages host-resident state on a fast durable tier, copies it to the
//! object store in the background, pins the tier-resident state where it
//! lies, and commits with a single atomic manifest PUT. The safety
//! ordering — flush → verify → publish → prune — guarantees the previous
//! checkpoint stays restorable until the new one is fully durable (see
//! `DESIGN.md` §14). It is the one way to write or read a functional
//! checkpoint.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;

use mlp_aio::engine::{AioConfig, AioEngine, OpHandle};
use mlp_storage::{Backend, TierHealth, TierSpec};
use mlp_trace::{Attrs, Counter, Phase, TraceSink};

use crate::stats::TierDistribution;

/// Where one subgroup's state lives inside a checkpoint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubgroupLocation {
    /// Copied into the checkpoint target under this key.
    Target {
        /// Object key in the checkpoint target.
        key: String,
    },
    /// Already durable on a third-level tier (pre-staged, §3.3), and
    /// pinned there under the checkpoint's own key
    /// ([`mlp_storage::Backend::link`]): the checkpoint references it
    /// instead of copying, and further training never rewrites it.
    Prestaged {
        /// Tier index within the engine's virtual tier.
        tier: usize,
        /// The pin's object key on that tier.
        key: String,
    },
}

/// A functional-mode checkpoint: enough to rebuild a worker's engine.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointManifest {
    /// User-chosen tag.
    pub tag: String,
    /// Worker id the checkpoint belongs to.
    pub worker_id: usize,
    /// Global optimizer step at checkpoint time.
    pub step: u64,
    /// Completed iterations at checkpoint time.
    pub iter: u64,
    /// Per-subgroup state locations, in id order.
    pub subgroups: Vec<SubgroupLocation>,
}

impl CheckpointManifest {
    /// Object key under which the manifest itself is stored.
    pub fn manifest_key(tag: &str, worker_id: usize) -> String {
        format!("ckpt/{tag}/w{worker_id}/manifest")
    }

    /// Object key of a subgroup in a checkpoint: a copy in the object
    /// store, or a pin on the subgroup's tier.
    pub fn subgroup_key(tag: &str, worker_id: usize, idx: usize) -> String {
        format!("ckpt/{tag}/w{worker_id}/sub{idx}")
    }

    /// Refuses, with `InvalidInput`, a caller-chosen tag the wire format
    /// cannot carry: an empty one, or one holding `\n` or `\r` (the
    /// parser reads lines, and `str::lines` drops a trailing `\r`).
    /// `start_checkpoint` runs it before writing anything, so a
    /// checkpoint that reports success can be restored.
    pub(crate) fn check_tag(tag: &str) -> io::Result<()> {
        if tag.is_empty() || tag.contains(['\n', '\r']) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("checkpoint tag {tag:?} must be non-empty and hold no line break"),
            ));
        }
        Ok(())
    }

    /// Serializes the manifest into its stable line-based wire format
    /// (`mlpckpt v1`). Tags and keys must not contain newlines — keys are
    /// engine-generated and never do; `start_checkpoint` refuses a tag
    /// that does before writing anything.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str("mlpckpt v1\n");
        out.push_str(&format!("tag {}\n", self.tag));
        out.push_str(&format!("worker {}\n", self.worker_id));
        out.push_str(&format!("step {}\n", self.step));
        out.push_str(&format!("iter {}\n", self.iter));
        out.push_str(&format!("subgroups {}\n", self.subgroups.len()));
        for loc in &self.subgroups {
            match loc {
                SubgroupLocation::Target { key } => out.push_str(&format!("T {key}\n")),
                SubgroupLocation::Prestaged { tier, key } => {
                    out.push_str(&format!("P {tier} {key}\n"))
                }
            }
        }
        out.into_bytes()
    }

    /// Parses the `mlpckpt v1` wire format written by
    /// [`CheckpointManifest::to_bytes`]. Corruption surfaces as a typed
    /// `InvalidData` error, never a panic.
    // lint:hot-root — manifest parser runs on every restore; arbitrary
    // on-disk bytes must surface typed errors, never a panic
    pub fn from_bytes(bytes: &[u8]) -> std::io::Result<CheckpointManifest> {
        use std::io::{Error, ErrorKind};
        let bad = |msg: &str| Error::new(ErrorKind::InvalidData, format!("bad manifest: {msg}"));
        let text = std::str::from_utf8(bytes).map_err(|_| bad("not utf-8"))?;
        let mut lines = text.lines();
        if lines.next() != Some("mlpckpt v1") {
            return Err(bad("missing magic header"));
        }
        let mut field = |name: &str| -> std::io::Result<String> {
            let line = lines.next().ok_or_else(|| bad("truncated header"))?;
            line.strip_prefix(name)
                .and_then(|r| r.strip_prefix(' '))
                .map(str::to_string)
                .ok_or_else(|| bad(&format!("expected `{name}` line")))
        };
        let tag = field("tag")?;
        let parse =
            |s: String| -> std::io::Result<u64> { s.parse().map_err(|_| bad("non-numeric field")) };
        let worker_id = parse(field("worker")?)? as usize;
        let step = parse(field("step")?)?;
        let iter = parse(field("iter")?)?;
        let count = parse(field("subgroups")?)? as usize;
        let mut subgroups = Vec::with_capacity(count.min(1 << 20));
        for _ in 0..count {
            let line = lines.next().ok_or_else(|| bad("truncated subgroup list"))?;
            let loc = if let Some(key) = line.strip_prefix("T ") {
                SubgroupLocation::Target { key: key.to_string() }
            } else if let Some(rest) = line.strip_prefix("P ") {
                let (tier, key) = rest
                    .split_once(' ')
                    .ok_or_else(|| bad("malformed prestaged entry"))?;
                SubgroupLocation::Prestaged {
                    tier: tier.parse().map_err(|_| bad("non-numeric tier"))?,
                    key: key.to_string(),
                }
            } else {
                return Err(bad("unknown subgroup entry"));
            };
            subgroups.push(loc);
        }
        Ok(CheckpointManifest {
            tag,
            worker_id,
            step,
            iter,
            subgroups,
        })
    }
}

/// Byte accounting of one checkpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CheckpointStats {
    /// Bytes copied into the checkpoint target (host-resident state).
    pub copied_bytes: u64,
    /// Bytes referenced in place on persistent tiers (no copy needed).
    pub prestaged_bytes: u64,
}

impl CheckpointStats {
    /// Fraction of the state that did not need copying.
    pub fn prestaged_fraction(&self) -> f64 {
        let total = self.copied_bytes + self.prestaged_bytes;
        if total == 0 {
            0.0
        } else {
            self.prestaged_bytes as f64 / total as f64
        }
    }
}

/// How much of the optimizer state a checkpoint still has to move.
#[derive(Clone, Debug, PartialEq)]
pub struct PrestageReport {
    /// Bytes already on persistent tiers (pre-staged "for free").
    pub prestaged_bytes: u64,
    /// Bytes that the checkpoint engine must still flush (host-resident
    /// state plus anything on non-persistent tiers).
    pub remaining_bytes: u64,
}

impl PrestageReport {
    /// Computes the report from a worker's current state distribution and
    /// the tier specifications (index-aligned with
    /// [`TierDistribution::tier_bytes`]).
    pub fn from_distribution(dist: &TierDistribution, specs: &[TierSpec]) -> Self {
        assert_eq!(
            dist.tier_bytes.len(),
            specs.len(),
            "distribution and specs must align"
        );
        let mut prestaged = 0;
        let mut remaining = dist.host_bytes;
        for (bytes, spec) in dist.tier_bytes.iter().zip(specs) {
            if spec.kind.is_persistent() {
                prestaged += bytes;
            } else {
                remaining += bytes;
            }
        }
        PrestageReport {
            prestaged_bytes: prestaged,
            remaining_bytes: remaining,
        }
    }

    /// Fraction of the optimizer state already persistent (0 when empty).
    pub fn prestaged_fraction(&self) -> f64 {
        let total = self.prestaged_bytes + self.remaining_bytes;
        if total == 0 {
            0.0
        } else {
            self.prestaged_bytes as f64 / total as f64
        }
    }

    /// Seconds a checkpoint flush of the remainder takes at
    /// `flush_bps` bytes/second.
    pub fn checkpoint_flush_secs(&self, flush_bps: f64) -> f64 {
        assert!(flush_bps > 0.0, "flush bandwidth must be positive");
        self.remaining_bytes as f64 / flush_bps
    }
}

/// One subgroup's last successful upload into the object store, used by
/// the incremental skip: an upload taken at the same optimizer step is
/// still byte-identical, so the pipeline references it instead of moving
/// the bytes again.
struct UploadedSubgroup {
    step: u64,
    key: String,
}

/// A deterministic kill point inside [`CheckpointPipeline::drain`]: the
/// pipeline returns a typed error at exactly this boundary, simulating a
/// process death between stages. The crash-consistency harness walks
/// every point and asserts the invariant of DESIGN.md §14 — a crash
/// before the publish leaves the previous checkpoint fully restorable, a
/// crash after it leaves the new one committed, and there is no point at
/// which neither restores or a torn manifest is readable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// Die before settling the staging flushes (stage 1 entry).
    BeforeFlushSettle,
    /// Die after the flushes settled, before the trickle (stage 1→2).
    AfterFlushSettle,
    /// Die after the trickle, before verification (stage 2→3).
    AfterTrickle,
    /// Die after verification, before the manifest PUT (stage 3→4).
    AfterVerify,
    /// Die right after the commit point, before pruning (stage 4→5).
    AfterPublish,
}

/// Every kill point, in pipeline order (the harness's matrix axis).
pub const ALL_CRASH_POINTS: &[CrashPoint] = &[
    CrashPoint::BeforeFlushSettle,
    CrashPoint::AfterFlushSettle,
    CrashPoint::AfterTrickle,
    CrashPoint::AfterVerify,
    CrashPoint::AfterPublish,
];

/// One subgroup of a checkpoint whose flush stage may still be in flight.
pub(crate) enum PendingEntry {
    /// Host-resident state flushing to the staging tier.
    Flushing {
        /// Subgroup id.
        idx: usize,
        /// Temporary key on the staging tier (pruned after the trickle).
        staging_key: String,
        /// Serialized state size.
        bytes: u64,
        /// The in-flight staging write.
        handle: OpHandle,
    },
    /// Already durable: an object-store upload still current at this
    /// optimizer step (incremental skip), or a pin (§3.3 pre-staging).
    Durable {
        /// Subgroup id.
        idx: usize,
        /// Where the new manifest will point.
        location: SubgroupLocation,
    },
}

/// A checkpoint whose flush stage has been submitted but not yet settled.
///
/// Produced by `MlpFuncEngine::start_checkpoint`; the staging writes run
/// on the I/O engine's workers while training continues (the Fig. 5
/// overlap, applied to checkpointing). [`CheckpointPipeline::drain`]
/// settles it: waits for the flushes, trickles the staged bytes to the
/// object store, verifies, publishes the manifest, and prunes.
pub struct PendingCheckpoint {
    pub(crate) tag: String,
    pub(crate) worker_id: usize,
    pub(crate) step: u64,
    pub(crate) iter: u64,
    pub(crate) entries: Vec<PendingEntry>,
    pub(crate) stats: CheckpointStats,
    pub(crate) started_ns: u64,
    /// The engine's tier I/O engines, which hold its pins.
    pub(crate) tiers: Vec<Arc<AioEngine>>,
}

impl PendingCheckpoint {
    /// Byte accounting known at submission time (flushed bytes are counted
    /// even though the writes may still be in flight).
    pub fn stats(&self) -> CheckpointStats {
        self.stats
    }
}

/// The asynchronous multi-tier checkpoint engine: flush to a fast durable
/// staging tier (NVMe-class), trickle to the object store in the
/// background, commit with one atomic manifest PUT.
///
/// Safety ordering per checkpoint (`DESIGN.md` §14):
///
/// 1. **flush** — host-resident subgroups are written to the staging tier
///    through an [`AioEngine`] (typed transient/permanent error semantics
///    and retries apply);
/// 2. **trickle** — staged bytes are copied to the object store; subgroups
///    whose upload from a previous checkpoint is still current (same
///    optimizer step) are skipped and re-referenced (*incremental*);
/// 3. **verify** — every object the new manifest will reference, copied
///    or pinned, must exist before publication;
/// 4. **publish** — the manifest is written with a single PUT (atomic on
///    an object store: no rename needed);
/// 5. **prune** — only now are staging copies, superseded subgroup
///    objects, the previous manifest and its pins deleted.
///
/// A crash anywhere before step 4 leaves the previous checkpoint fully
/// intact; a crash after it leaves the new one committed. There is no
/// window in which neither is restorable.
pub struct CheckpointPipeline {
    object_backend: Arc<dyn Backend>,
    staging: AioEngine,
    object: AioEngine,
    trace: TraceSink,
    uploaded: HashMap<usize, UploadedSubgroup>,
    /// The last manifest this pipeline published: pruned, with its pins,
    /// once a successor is published.
    last: Option<CheckpointManifest>,
    /// Breaker supervising the staging tier. When it quarantines, the
    /// pipeline retargets: flushes go direct-to-object (losing the fast
    /// first hop, keeping durability) and trickle reads fall back to
    /// wherever each staged copy actually landed.
    staging_health: Option<Arc<TierHealth>>,
    /// Deterministic kill point for the crash-consistency harness.
    crash_point: Option<CrashPoint>,
    flush_bytes: Counter,
    trickle_bytes: Counter,
    prestaged_bytes: Counter,
    incremental_skips: Counter,
    checkpoints: Counter,
    restores: Counter,
    pruned_objects: Counter,
}

impl CheckpointPipeline {
    /// Creates a pipeline flushing to `staging` and publishing to
    /// `object`, with default I/O configurations.
    pub fn new(
        staging: Arc<dyn Backend>,
        object: Arc<dyn Backend>,
        trace: TraceSink,
    ) -> Self {
        Self::with_aio(staging, object, trace, AioConfig::default(), AioConfig::default())
    }

    /// Creates a pipeline with explicit I/O configurations (retry policy,
    /// worker count) for the staging and object hops — e.g. a patient
    /// [`mlp_aio::RetryPolicy`] for a fault-prone object store.
    pub fn with_aio(
        staging: Arc<dyn Backend>,
        object: Arc<dyn Backend>,
        trace: TraceSink,
        staging_aio: AioConfig,
        object_aio: AioConfig,
    ) -> Self {
        CheckpointPipeline {
            staging: AioEngine::new(staging, staging_aio),
            object: AioEngine::new(Arc::clone(&object), object_aio),
            object_backend: object,
            uploaded: HashMap::new(),
            last: None,
            staging_health: None,
            crash_point: None,
            flush_bytes: trace.counter("ckpt.flush_bytes"),
            trickle_bytes: trace.counter("ckpt.trickle_bytes"),
            prestaged_bytes: trace.counter("ckpt.prestaged_bytes"),
            incremental_skips: trace.counter("ckpt.incremental_skips"),
            checkpoints: trace.counter("ckpt.checkpoints"),
            restores: trace.counter("ckpt.restores"),
            pruned_objects: trace.counter("ckpt.pruned_objects"),
            trace,
        }
    }

    /// The backend checkpoints are published to (the restore target).
    pub fn object_backend(&self) -> &Arc<dyn Backend> {
        &self.object_backend
    }

    /// Attaches a breaker supervising the staging tier: once it
    /// quarantines, new flushes bypass staging and write direct-to-object.
    pub fn with_staging_health(mut self, health: Arc<TierHealth>) -> Self {
        self.staging_health = Some(health);
        self
    }

    /// Arms (or disarms) the deterministic kill point: the next `drain`
    /// returns a typed error at that boundary instead of proceeding.
    pub fn set_crash_point(&mut self, point: Option<CrashPoint>) {
        self.crash_point = point;
    }

    fn crash_if(&self, point: CrashPoint) -> io::Result<()> {
        if self.crash_point == Some(point) {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected crash at {point:?}"),
            ));
        }
        Ok(())
    }

    fn staging_quarantined(&self) -> bool {
        self.staging_health
            .as_ref()
            .is_some_and(|h| h.is_quarantined())
    }

    /// If subgroup `idx`'s object upload is still current at `step`,
    /// returns its key (and counts the incremental skip).
    pub(crate) fn reusable_upload(&self, idx: usize, step: u64) -> Option<String> {
        let u = self.uploaded.get(&idx)?;
        (u.step == step).then(|| {
            self.incremental_skips.inc();
            u.key.clone()
        })
    }

    /// Submits one staging write (stage 1 of the pipeline). With the
    /// staging tier quarantined the flush retargets direct-to-object
    /// under the same key: slower, still durable, and stage 2 finds the
    /// copy already at its destination.
    pub(crate) fn submit_flush(&self, key: &str, data: Vec<u8>) -> OpHandle {
        if self.staging_quarantined() {
            self.object.submit_write(key, data)
        } else {
            self.staging.submit_write(key, data)
        }
    }

    /// Settles a pending checkpoint: waits for the staging flushes,
    /// trickles the staged bytes into the object store, verifies every
    /// referenced object and pin, publishes the manifest, and prunes
    /// staging copies plus superseded objects and pins. Returns the
    /// published manifest.
    pub fn drain(
        &mut self,
        pending: PendingCheckpoint,
    ) -> io::Result<(CheckpointManifest, CheckpointStats)> {
        let PendingCheckpoint {
            tag,
            worker_id,
            step,
            iter,
            entries,
            stats,
            started_ns,
            tiers,
        } = pending;

        self.crash_if(CrashPoint::BeforeFlushSettle)?;
        // Stage 1: settle the staging flushes.
        let mut staged: Vec<(usize, String, u64)> = Vec::new();
        let mut locations: Vec<(usize, SubgroupLocation)> = Vec::new();
        let mut flushed_bytes = 0u64;
        for e in entries {
            match e {
                PendingEntry::Flushing {
                    idx,
                    staging_key,
                    bytes,
                    handle,
                } => {
                    handle.wait_flush().map_err(|(e, _)| e)?;
                    flushed_bytes += bytes;
                    staged.push((idx, staging_key, bytes));
                }
                PendingEntry::Durable { idx, location } => locations.push((idx, location)),
            }
        }
        let flush_end = self.trace.now_ns();
        if self.trace.is_enabled() && flushed_bytes > 0 {
            self.trace
                .complete_span(Phase::CkptFlush, Attrs::bytes(flushed_bytes), started_ns, flush_end);
        }
        self.crash_if(CrashPoint::AfterFlushSettle)?;

        // Stage 2: trickle staging → object store, all hops in flight at
        // once (the object engine's workers provide the concurrency an
        // object store needs to reach aggregate bandwidth). A retargeted
        // flush (staging quarantined mid-checkpoint) already landed on
        // the object store under its staging key, so each copy is read
        // back from wherever it actually is.
        let mut trickles = Vec::with_capacity(staged.len());
        for (idx, staging_key, bytes) in &staged {
            let hop = if self.object.contains(staging_key) {
                &self.object
            } else {
                &self.staging
            };
            let body = hop.submit_read(staging_key).wait()?.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("staged checkpoint object {staging_key} returned no payload"),
                )
            })?;
            let key = CheckpointManifest::subgroup_key(&tag, worker_id, *idx);
            let handle = self.object.submit_write(&key, body);
            trickles.push((*idx, key, *bytes, handle));
        }
        let mut trickled_bytes = 0u64;
        let mut fresh: Vec<(usize, String)> = Vec::with_capacity(trickles.len());
        for (idx, key, bytes, handle) in trickles {
            handle.wait_flush().map_err(|(e, _)| e)?;
            trickled_bytes += bytes;
            locations.push((idx, SubgroupLocation::Target { key: key.clone() }));
            fresh.push((idx, key));
        }
        if self.trace.is_enabled() && trickled_bytes > 0 {
            self.trace.complete_span(
                Phase::CkptTrickle,
                Attrs::bytes(trickled_bytes),
                flush_end,
                self.trace.now_ns(),
            );
        }
        self.crash_if(CrashPoint::AfterTrickle)?;

        // Stage 3: verify — every object the manifest references, in the
        // object store or pinned on a tier, must exist before we commit
        // to it (its length is checked where restore parses it).
        for (_, loc) in &locations {
            let (present, key) = match loc {
                SubgroupLocation::Target { key } => (self.object.contains(key), key),
                SubgroupLocation::Prestaged { tier, key } => {
                    (tiers.get(*tier).is_some_and(|t| t.contains(key)), key)
                }
            };
            if !present {
                return Err(io::Error::new(
                    io::ErrorKind::NotFound,
                    format!("checkpoint object {key} missing before publish"),
                ));
            }
        }
        self.crash_if(CrashPoint::AfterVerify)?;

        // Stage 4: publish — one atomic manifest PUT is the commit point.
        locations.sort_by_key(|(idx, _)| *idx);
        let manifest = CheckpointManifest {
            tag: tag.clone(),
            worker_id,
            step,
            iter,
            subgroups: locations.into_iter().map(|(_, l)| l).collect(),
        };
        self.object
            .submit_write(
                &CheckpointManifest::manifest_key(&tag, worker_id),
                manifest.to_bytes(),
            )
            .wait_flush()
            .map_err(|(e, _)| e)?;
        self.crash_if(CrashPoint::AfterPublish)?;

        // Stage 5: prune — staging copies (from whichever store holds
        // them — a retargeted flush staged on the object store),
        // superseded subgroup objects, the previous manifest and the pins
        // only it names, each through its hop's I/O engine. Failures here
        // are non-fatal (the new checkpoint is already committed); deletes
        // are idempotent.
        for (_, staging_key, _) in &staged {
            let _ = self.staging.submit_delete(staging_key).wait();
            let _ = self.object.submit_delete(staging_key).wait();
        }
        for (idx, key) in fresh {
            if let Some(old) = self.uploaded.insert(idx, UploadedSubgroup { step, key: key.clone() }) {
                if old.key != key {
                    let _ = self.object.submit_delete(&old.key).wait();
                    self.pruned_objects.inc();
                }
            }
        }
        if let Some(prev) = self.last.replace(manifest.clone()) {
            if prev.tag != tag {
                let manifest_key = CheckpointManifest::manifest_key(&prev.tag, worker_id);
                let _ = self.object.submit_delete(&manifest_key).wait();
                self.pruned_objects.inc();
            }
            for loc in prev.subgroups.iter().filter(|l| !manifest.subgroups.contains(l)) {
                if let SubgroupLocation::Prestaged { tier, key } = loc {
                    if let Some(io) = tiers.get(*tier) {
                        let _ = io.submit_delete(key).wait();
                        self.pruned_objects.inc();
                    }
                }
            }
        }

        self.flush_bytes.add(flushed_bytes);
        self.trickle_bytes.add(trickled_bytes);
        self.prestaged_bytes.add(stats.prestaged_bytes);
        self.checkpoints.inc();
        Ok((manifest, stats))
    }

    /// Synchronous convenience: start and immediately drain (the blocking
    /// baseline a synchronous checkpointer would produce — no overlap).
    pub fn checkpoint(
        &mut self,
        engine: &crate::func::MlpFuncEngine,
        tag: &str,
    ) -> io::Result<(CheckpointManifest, CheckpointStats)> {
        let pending = engine.start_checkpoint(self, tag)?;
        self.drain(pending)
    }

    /// Rebuilds a worker engine from a checkpoint this pipeline published
    /// (manifest and copied subgroups read from the object store through
    /// its I/O engine, pre-staged subgroups from their pins on
    /// `shared_tiers`).
    pub fn restore(
        &self,
        cfg: crate::EngineConfig,
        adam: mlp_optim::AdamConfig,
        shared_tiers: &[crate::func::SharedTier],
        worker_id: usize,
        tag: &str,
    ) -> io::Result<crate::func::MlpFuncEngine> {
        let engine = crate::func::MlpFuncEngine::restore(
            cfg,
            adam,
            shared_tiers,
            worker_id,
            &self.object,
            tag,
        )?;
        self.restores.inc();
        Ok(engine)
    }

    /// Transient-error re-attempts performed by the pipeline's two I/O
    /// engines (staging + object hops).
    pub fn io_retries(&self) -> u64 {
        self.staging.retries() + self.object.retries()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_storage::spec::{testbed1_nvme, testbed1_pfs};

    #[test]
    fn everything_on_persistent_tiers_is_prestaged() {
        let dist = TierDistribution {
            host_bytes: 0,
            tier_bytes: vec![600, 400],
        };
        let r = PrestageReport::from_distribution(&dist, &[testbed1_nvme(), testbed1_pfs()]);
        assert_eq!(r.prestaged_bytes, 1000);
        assert_eq!(r.remaining_bytes, 0);
        assert_eq!(r.prestaged_fraction(), 1.0);
    }

    #[test]
    fn host_resident_state_must_still_flush() {
        let dist = TierDistribution {
            host_bytes: 250,
            tier_bytes: vec![750],
        };
        let r = PrestageReport::from_distribution(&dist, &[testbed1_nvme()]);
        assert_eq!(r.prestaged_fraction(), 0.75);
        assert_eq!(r.checkpoint_flush_secs(250.0), 1.0);
    }

    #[test]
    fn empty_distribution_is_zero_fraction() {
        let dist = TierDistribution {
            host_bytes: 0,
            tier_bytes: vec![0],
        };
        let r = PrestageReport::from_distribution(&dist, &[testbed1_nvme()]);
        assert_eq!(r.prestaged_fraction(), 0.0);
    }

    #[test]
    fn manifest_wire_format_round_trips() {
        let m = CheckpointManifest {
            tag: "step 120".into(), // tags may contain spaces
            worker_id: 3,
            step: 120,
            iter: 40,
            subgroups: vec![
                SubgroupLocation::Target { key: "ckpt/step 120/w3/sub0".into() },
                SubgroupLocation::Prestaged { tier: 1, key: "w3/sub1".into() },
            ],
        };
        let back = CheckpointManifest::from_bytes(&m.to_bytes()).unwrap();
        assert_eq!(back.tag, m.tag);
        assert_eq!(back.worker_id, m.worker_id);
        assert_eq!(back.step, m.step);
        assert_eq!(back.iter, m.iter);
        assert_eq!(back.subgroups, m.subgroups);
    }

    #[test]
    fn manifest_corruption_is_a_typed_error() {
        for bad in [
            &b"not a manifest"[..],
            b"mlpckpt v1\ntag t\nworker 0\nstep x\niter 0\nsubgroups 0\n",
            b"mlpckpt v1\ntag t\nworker 0\nstep 1\niter 0\nsubgroups 2\nT a\n",
            b"mlpckpt v1\ntag t\nworker 0\nstep 1\niter 0\nsubgroups 1\nQ a\n",
            b"\xff\xfe",
        ] {
            let err = CheckpointManifest::from_bytes(bad).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{bad:?}");
        }

        // Well-formed for the parser, but it places a subgroup on a tier
        // this run does not have (a foreign or bit-flipped manifest):
        // restore must reject it the same way, not index out of bounds.
        use mlp_storage::{Backend, MemBackend};
        let foreign = CheckpointManifest {
            tag: "t".into(),
            worker_id: 0,
            step: 1,
            iter: 1,
            subgroups: vec![SubgroupLocation::Prestaged {
                tier: 7,
                key: "w0/sub0".into(),
            }],
        };
        let target = std::sync::Arc::new(MemBackend::new("ckpt"));
        let manifest_key = CheckpointManifest::manifest_key("t", 0);
        target.write(&manifest_key, &foreign.to_bytes()).unwrap();
        let tier = crate::func::SharedTier::new(std::sync::Arc::new(MemBackend::new("only")), 1.0);
        let err = crate::func::MlpFuncEngine::restore(
            crate::EngineConfig::mlp_offload(),
            mlp_optim::AdamConfig::default(),
            &[tier],
            0,
            &AioEngine::new(target, AioConfig::default()),
            "t",
        )
        .err()
        .expect("tier 7 of 1 cannot be resolved");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    }

    mod manifest_fuzz {
        use super::super::*;
        use mlp_testkit::{cases, DEFAULT_CASES};

        /// A valid serialized manifest with `n` subgroup lines, some
        /// prestaged, keys derived from `salt`.
        fn wire(n: usize, salt: usize) -> Vec<u8> {
            CheckpointManifest {
                tag: format!("t{salt}"),
                worker_id: salt % 7,
                step: salt as u64,
                iter: (salt / 2) as u64,
                subgroups: (0..n)
                    .map(|i| {
                        if (i + salt).is_multiple_of(3) {
                            SubgroupLocation::Prestaged {
                                tier: (i + salt) % 4,
                                key: format!("w{}/sub{i}", salt % 7),
                            }
                        } else {
                            SubgroupLocation::Target {
                                key: format!("ckpt/t{salt}/w{}/sub{i}", salt % 7),
                            }
                        }
                    })
                    .collect(),
            }
            .to_bytes()
        }

        /// Helper: the parser contract under corruption — it may reject
        /// (typed `InvalidData`, never a panic) or parse some manifest,
        /// but it must never tear.
        fn assert_typed(bytes: &[u8]) {
            if let Err(e) = CheckpointManifest::from_bytes(bytes) {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{bytes:?}");
            }
        }

        #[test]
        fn truncation_never_panics() {
            cases(DEFAULT_CASES, |g| {
                let n = g.range(0usize..12);
                let salt = g.range(0usize..64);
                let cut = g.range(0usize..4096);
                let full = wire(n, salt);
                let cut = cut % full.len().max(1);
                assert_typed(&full[..cut]);
            });
        }

        #[test]
        fn bit_flips_never_panic() {
            cases(DEFAULT_CASES, |g| {
                let n = g.range(0usize..12);
                let salt = g.range(0usize..64);
                let flips = g.vec(1..6, |g| (g.range(0usize..4096), g.range(0u8..8)));
                let mut bytes = wire(n, salt);
                for (pos, bit) in flips {
                    let pos = pos % bytes.len();
                    bytes[pos] ^= 1 << bit;
                }
                assert_typed(&bytes);
            });
        }

        #[test]
        fn duplicated_and_dropped_lines_never_panic() {
            cases(DEFAULT_CASES, |g| {
                let n = g.range(1usize..12);
                let salt = g.range(0usize..64);
                let line = g.range(0usize..24);
                let duplicate = g.bool();
                let full = wire(n, salt);
                let text = String::from_utf8(full).unwrap();
                let mut lines: Vec<&str> = text.lines().collect();
                let line = line % lines.len();
                if duplicate {
                    lines.insert(line, lines[line]);
                } else {
                    lines.remove(line);
                }
                let mut mutated = lines.join("\n");
                mutated.push('\n');
                assert_typed(mutated.as_bytes());
            });
        }
    }

    mod pipeline {
        use super::super::*;
        use crate::func::{MlpFuncEngine, SharedTier};
        use crate::EngineConfig;
        use mlp_optim::{AdamConfig, SubgroupState};
        use mlp_storage::{Backend, MemBackend};
        use mlp_tensor::F16;
        use mlp_trace::TraceSink;
        use std::sync::Arc;

        fn tiers(n: usize) -> Vec<SharedTier> {
            (0..n)
                .map(|i| {
                    SharedTier::new(
                        Arc::new(MemBackend::new(format!("mem{i}"))) as Arc<dyn Backend>,
                        (n - i) as f64,
                    )
                })
                .collect()
        }

        fn states(subgroups: usize, len: usize) -> Vec<SubgroupState> {
            (0..subgroups)
                .map(|s| {
                    SubgroupState::new((0..len).map(|i| ((s * len + i) as f32).sin()).collect())
                })
                .collect()
        }

        fn step(engine: &mut MlpFuncEngine, subgroups: usize, len: usize, seed: f32) {
            let grads: Vec<Vec<u16>> = (0..subgroups)
                .map(|s| {
                    (0..len)
                        .map(|i| {
                            F16::from_f32(((s * len + i) as f32 * 0.01 + seed).cos() * 0.1)
                                .to_bits()
                        })
                        .collect()
                })
                .collect();
            engine.accumulate_gradients(&grads);
            engine.update().unwrap();
        }

        fn pipeline_over_mem(trace: &TraceSink) -> (CheckpointPipeline, Arc<MemBackend>) {
            let staging = Arc::new(MemBackend::new("stage"));
            let object = Arc::new(MemBackend::new("object"));
            let pipe = CheckpointPipeline::new(
                Arc::clone(&staging) as Arc<dyn Backend>,
                object as Arc<dyn Backend>,
                trace.clone(),
            );
            (pipe, staging)
        }

        #[test]
        fn two_hop_checkpoint_publishes_then_prunes_staging() {
            let trace = TraceSink::enabled();
            let shared = tiers(2);
            let mut engine = MlpFuncEngine::new(
                EngineConfig::mlp_offload().with_host_frames(6),
                AdamConfig::default(),
                &shared,
                0,
                states(5, 24),
            )
            .unwrap();
            for it in 0..3 {
                step(&mut engine, 5, 24, it as f32);
            }

            let (mut pipe, staging) = pipeline_over_mem(&trace);
            let (manifest, stats) = pipe.checkpoint(&engine, "c0").unwrap();
            assert_eq!(manifest.subgroups.len(), 5);
            assert!(stats.copied_bytes > 0, "host residents must flush");

            // Published: manifest + every copied subgroup on the object store.
            let object = Arc::clone(pipe.object_backend());
            assert!(object.contains(&CheckpointManifest::manifest_key("c0", 0)));
            for loc in &manifest.subgroups {
                if let SubgroupLocation::Target { key } = loc {
                    assert!(object.contains(key), "missing {key}");
                }
            }
            // Pruned: no staging copies survive a successful drain.
            for idx in 0..5 {
                assert!(
                    !staging.contains(&format!("ckptstage/c0/w0/sub{idx}")),
                    "staging copy {idx} not pruned"
                );
            }
            // Meters observed the two hops.
            let snap = trace.metrics_snapshot();
            assert_eq!(snap.counter("ckpt.checkpoints"), Some(1));
            assert!(snap.counter("ckpt.flush_bytes").unwrap() > 0);
            assert!(snap.counter("ckpt.trickle_bytes").unwrap() > 0);

            // And the published checkpoint restores bit-identically.
            let restored = pipe
                .restore(
                    EngineConfig::mlp_offload().with_host_frames(6),
                    AdamConfig::default(),
                    &shared,
                    0,
                    "c0",
                )
                .unwrap();
            assert_eq!(
                restored.master_params().unwrap(),
                engine.master_params().unwrap()
            );
        }

        #[test]
        fn repeated_checkpoint_without_update_is_incremental() {
            let trace = TraceSink::enabled();
            let shared = tiers(2);
            let mut engine = MlpFuncEngine::new(
                EngineConfig::mlp_offload().with_host_frames(6),
                AdamConfig::default(),
                &shared,
                0,
                states(5, 24),
            )
            .unwrap();
            step(&mut engine, 5, 24, 0.0);

            let (mut pipe, _staging) = pipeline_over_mem(&trace);
            pipe.checkpoint(&engine, "c0").unwrap();
            let trickled_once = trace
                .metrics_snapshot()
                .counter("ckpt.trickle_bytes")
                .unwrap();
            assert!(trickled_once > 0);

            // Same optimizer step → every upload is still current: nothing
            // re-trickles, the new manifest re-references existing objects.
            let (m1, _) = pipe.checkpoint(&engine, "c1").unwrap();
            let snap = trace.metrics_snapshot();
            assert_eq!(snap.counter("ckpt.trickle_bytes"), Some(trickled_once));
            assert!(snap.counter("ckpt.incremental_skips").unwrap() > 0);
            let object = Arc::clone(pipe.object_backend());
            // The superseded manifest is pruned; the new one is live and
            // still restores even though it copied nothing new.
            assert!(!object.contains(&CheckpointManifest::manifest_key("c0", 0)));
            assert!(object.contains(&CheckpointManifest::manifest_key("c1", 0)));
            assert_eq!(m1.subgroups.len(), 5);
            let restored = pipe
                .restore(
                    EngineConfig::mlp_offload().with_host_frames(6),
                    AdamConfig::default(),
                    &shared,
                    0,
                    "c1",
                )
                .unwrap();
            assert_eq!(
                restored.master_params().unwrap(),
                engine.master_params().unwrap()
            );

            // A further update invalidates the uploads: the next checkpoint
            // must trickle fresh bytes again.
            step(&mut engine, 5, 24, 1.0);
            pipe.checkpoint(&engine, "c2").unwrap();
            let snap = trace.metrics_snapshot();
            assert!(snap.counter("ckpt.trickle_bytes").unwrap() > trickled_once);
            assert!(snap.counter("ckpt.pruned_objects").unwrap() > 0);
        }

        #[test]
        fn quarantined_staging_retargets_flushes_direct_to_object() {
            use mlp_storage::{HealthConfig, TierHealth};
            let trace = TraceSink::enabled();
            let shared = tiers(2);
            let cfg = EngineConfig::mlp_offload().with_host_frames(10);
            let mut engine = MlpFuncEngine::new(
                cfg.clone(),
                AdamConfig::default(),
                &shared,
                0,
                states(5, 24),
            )
            .unwrap();
            step(&mut engine, 5, 24, 0.0);

            let staging = Arc::new(MemBackend::new("stage"));
            let object = Arc::new(MemBackend::new("object"));
            let health = TierHealth::new("stage", HealthConfig::hair_trigger());
            let mut pipe = CheckpointPipeline::new(
                Arc::clone(&staging) as Arc<dyn Backend>,
                Arc::clone(&object) as Arc<dyn Backend>,
                trace.clone(),
            )
            .with_staging_health(Arc::clone(&health));
            pipe.checkpoint(&engine, "c0").unwrap();

            // The staging tier dies between checkpoints: flushes retarget
            // direct-to-object, the checkpoint still commits, and the dead
            // tier sees no new writes at all.
            health.quarantine();
            let staging_objects = staging.object_count();
            step(&mut engine, 5, 24, 1.0);
            let (m1, _) = pipe.checkpoint(&engine, "c1").unwrap();
            assert_eq!(m1.subgroups.len(), 5);
            assert_eq!(
                staging.object_count(),
                staging_objects,
                "quarantined staging tier must not be written"
            );
            // The retargeted staging copies were pruned off the object
            // store after the commit.
            for idx in 0..5 {
                assert!(
                    !object.contains(&format!("ckptstage/c1/w0/sub{idx}")),
                    "retargeted staging copy {idx} not pruned"
                );
            }
            let restored = pipe
                .restore(cfg, AdamConfig::default(), &shared, 0, "c1")
                .unwrap();
            assert_eq!(
                restored.master_params().unwrap(),
                engine.master_params().unwrap()
            );
        }

        /// A checkpoint's pins on the engine's tiers, by presence.
        fn pins(shared: &[SharedTier], tag: &str) -> Vec<String> {
            (0..5)
                .map(|idx| CheckpointManifest::subgroup_key(tag, 0, idx))
                .filter(|key| shared.iter().any(|t| t.backend.contains(key)))
                .collect()
        }

        /// Pins live exactly as long as a published manifest names them:
        /// c1's prune deletes c0's, and a second checkpoint at the same
        /// optimizer step (the incremental path) re-pins and still
        /// restores once training has moved on.
        #[test]
        fn pins_are_pruned_with_the_manifest_that_named_them() {
            let shared = tiers(2);
            // Three of five subgroups rest in the host frames, two pinned.
            let cfg = EngineConfig::mlp_offload().with_host_frames(3);
            let adam = AdamConfig::default();
            let mut engine =
                MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(5, 24)).unwrap();
            step(&mut engine, 5, 24, 0.0);
            let (mut pipe, _staging) = pipeline_over_mem(&TraceSink::disabled());
            pipe.checkpoint(&engine, "c0").unwrap();
            assert!(!pins(&shared, "c0").is_empty(), "c0 pins its tier residents");

            step(&mut engine, 5, 24, 1.0);
            let (m1, _) = pipe.checkpoint(&engine, "c1").unwrap();
            assert_eq!(pins(&shared, "c0"), Vec::<String>::new(), "c0's pins outlived it");
            for loc in &m1.subgroups {
                if let SubgroupLocation::Prestaged { tier, key } = loc {
                    assert!(shared[*tier].backend.contains(key), "c1 lost its pin {key}");
                }
            }

            let at_c1 = engine.master_params().unwrap();
            pipe.checkpoint(&engine, "c2").unwrap();
            assert_eq!(pins(&shared, "c1"), Vec::<String>::new());
            step(&mut engine, 5, 24, 2.0);
            let restored = pipe.restore(cfg, adam, &shared, 0, "c2").unwrap();
            assert_eq!(restored.master_params().unwrap(), at_c1);
        }

        /// Verify checks the pins as well as the copies: one lost between
        /// `start_checkpoint` and `drain` fails the checkpoint before its
        /// manifest PUT, and the previous checkpoint still restores.
        #[test]
        fn a_lost_pin_fails_verify_before_publish() {
            let shared = tiers(2);
            let cfg = EngineConfig::mlp_offload().with_host_frames(3);
            let adam = AdamConfig::default();
            let mut engine =
                MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, states(5, 24)).unwrap();
            step(&mut engine, 5, 24, 0.0);
            let (mut pipe, _staging) = pipeline_over_mem(&TraceSink::disabled());
            pipe.checkpoint(&engine, "c0").unwrap();
            let at_c0 = engine.master_params().unwrap();

            step(&mut engine, 5, 24, 1.0);
            let pending = engine.start_checkpoint(&pipe, "c1").unwrap();
            let lost = pins(&shared, "c1").remove(0);
            for t in &shared {
                t.backend.delete(&lost).unwrap();
            }
            let err = pipe.drain(pending).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "{err}");
            let object = pipe.object_backend();
            assert!(!object.contains(&CheckpointManifest::manifest_key("c1", 0)));

            step(&mut engine, 5, 24, 2.0);
            let restored = pipe.restore(cfg, adam, &shared, 0, "c0").unwrap();
            assert_eq!(restored.master_params().unwrap(), at_c0);
        }

        #[test]
        fn every_crash_point_leaves_a_restorable_checkpoint() {
            for &cp in ALL_CRASH_POINTS {
                let trace = TraceSink::disabled();
                let shared = tiers(2);
                // Three of five subgroups stay cached: both checkpoints
                // pin the other two on their tiers.
                let cfg = EngineConfig::mlp_offload().with_host_frames(3);
                let mut engine = MlpFuncEngine::new(
                    cfg.clone(),
                    AdamConfig::default(),
                    &shared,
                    0,
                    states(5, 24),
                )
                .unwrap();
                step(&mut engine, 5, 24, 0.0);

                let staging = Arc::new(MemBackend::new("stage"));
                let object = Arc::new(MemBackend::new("object"));
                let mut pipe = CheckpointPipeline::new(
                    Arc::clone(&staging) as Arc<dyn Backend>,
                    Arc::clone(&object) as Arc<dyn Backend>,
                    trace.clone(),
                );
                let (_, c0) = pipe.checkpoint(&engine, "c0").unwrap();
                let at_c0 = engine.master_params().unwrap();

                step(&mut engine, 5, 24, 1.0);
                let at_c1 = engine.master_params().unwrap();
                let pending = engine.start_checkpoint(&pipe, "c1").unwrap();
                let c1 = pending.stats();
                assert!(c0.prestaged_bytes > 0 && c1.prestaged_bytes > 0, "{cp:?}");
                pipe.set_crash_point(Some(cp));
                let err = pipe.drain(pending).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::Interrupted, "{cp:?}");
                // Training moves on past the crash, rewriting live tier
                // keys, before either checkpoint is restored.
                step(&mut engine, 5, 24, 2.0);
                step(&mut engine, 5, 24, 3.0);

                // Simulated restart: a fresh pipeline over the same
                // stores. The commit point is the manifest PUT — c1 is
                // visible iff the crash came after it.
                let pipe2 = CheckpointPipeline::new(
                    Arc::clone(&staging) as Arc<dyn Backend>,
                    Arc::clone(&object) as Arc<dyn Backend>,
                    trace.clone(),
                );
                let c1_published = object.contains(&CheckpointManifest::manifest_key("c1", 0));
                assert_eq!(
                    c1_published,
                    cp == CrashPoint::AfterPublish,
                    "{cp:?}: the commit point moved"
                );
                // No torn manifests: whatever manifest exists parses.
                for tag in ["c0", "c1"] {
                    let key = CheckpointManifest::manifest_key(tag, 0);
                    if object.contains(&key) {
                        CheckpointManifest::from_bytes(&object.read(&key).unwrap())
                            .unwrap_or_else(|e| panic!("{cp:?}: torn manifest {tag}: {e}"));
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
                    "{cp:?}: restore of {tag} diverged"
                );
                // A crash after the commit leaves the *previous*
                // checkpoint intact too (prune never ran).
                if c1_published {
                    let prev = pipe2
                        .restore(cfg.clone(), AdamConfig::default(), &shared, 0, "c0")
                        .unwrap();
                    assert_eq!(prev.master_params().unwrap(), at_c0, "{cp:?}");
                }
            }
        }
    }
}
