//! Real-bytes offloading engine over [`mlp_aio`] and storage backends.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

use mlp_aio::engine::{AioConfig, AioEngine, OpHandle, ReclaimedWrite};
use mlp_aio::lock::{ProcessExclusiveLock, TierGuard};
use mlp_optim::accum::{add_f32, for_each_subgroup, store_f32, GradAccumulator};
use mlp_optim::optimizer::{fp16_grad_sq_norm, grad_clip_factor};
use mlp_optim::traced::fused_update_f32_traced;
use mlp_optim::{AdamConfig, SubgroupState, SubgroupStateMut};
use mlp_storage::{Backend, TierHealth, TracedBackend};
use mlp_tensor::convert;
use mlp_tensor::pool::{PinnedPool, PooledBuffer};
use mlp_trace::{Attrs, Phase};

use crate::checkpoint::{
    CheckpointManifest, CheckpointPipeline, CheckpointStats, PendingCheckpoint, PendingEntry,
    SubgroupLocation,
};
use crate::config::EngineConfig;
use crate::policy::cache::ExecutorKind;
use crate::policy::ledger::{Load, PassPlan, Place, Step, SubgroupLedger};
use crate::policy::replan::MigrationStep;
use crate::stats::TierDistribution;

/// Bookkeeping-invariant failure surfaced as a typed error instead of a
/// panic: it must fail the iteration (callers re-drive or report it)
/// rather than tear down the engine mid-flight with unflushed state in
/// the pipeline.
fn invariant_violation(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// A fetch that delivered fewer bytes than the object holds must fail the
/// iteration: updating a torn buffer would corrupt the master state.
fn expect_len(what: &str, idx: usize, got: usize, want: usize) -> io::Result<()> {
    if got == want {
        return Ok(());
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("short {what} read for subgroup {idx}: got {got} of {want} bytes"),
    ))
}

/// A storage tier shared by all worker engines on a node: the backend, the
/// node-level process-exclusive lock, and the allocation weight (measured
/// bandwidth or configured ratio component).
#[derive(Clone)]
pub struct SharedTier {
    /// The byte store.
    pub backend: Arc<dyn Backend>,
    /// Node-level tier lock ("Process Atomic R/W").
    pub lock: ProcessExclusiveLock,
    /// Eq. 1 weight (bytes/second or ratio component).
    pub weight: f64,
    /// I/O engine configuration for this tier (worker count, queue depth,
    /// transient-error retry policy, deadline, breaker).
    pub aio: AioConfig,
}

impl SharedTier {
    /// Creates a shared tier over `backend` with allocation `weight` and
    /// the default I/O configuration.
    pub fn new(backend: Arc<dyn Backend>, weight: f64) -> Self {
        SharedTier {
            backend,
            lock: ProcessExclusiveLock::new(),
            weight,
            aio: AioConfig::default(),
        }
    }

    /// Overrides the tier's I/O configuration (e.g. a tighter or looser
    /// [`mlp_aio::engine::RetryPolicy`] for a flaky tier), its breaker
    /// included: attach one with [`SharedTier::with_health`] after.
    pub fn with_aio(mut self, aio: AioConfig) -> Self {
        self.aio = aio;
        self
    }

    /// Attaches a circuit breaker supervising this tier
    /// ([`AioConfig::health`]): the tier's I/O engine admits and observes
    /// every attempt through it, and a quarantined breaker triggers
    /// quarantine-and-drain at the next update boundary (DESIGN.md §15).
    pub fn with_health(mut self, health: Arc<TierHealth>) -> Self {
        self.aio.health = Some(health);
        self
    }
}

/// A host-resident subgroup: its serialized `[params | momentum | variance]`
/// state in the pooled staging buffer it was fetched into (updated in
/// place, flushed from the same buffer).
struct Resident {
    buf: PooledBuffer,
    n: usize,
}

impl Resident {
    /// FP32 master parameters: the leading `n` f32 words of the layout.
    fn params(&self) -> &[f32] {
        self.buf.as_f32(self.n)
    }

    /// Serialized `[params | momentum | variance]` bytes.
    fn state_bytes(&self) -> &[u8] {
        &self.buf.as_bytes()[..self.n * 12]
    }
}

/// Host gradient accumulators: the data-path difference between the
/// ablation rungs below and above "Skip Gradients".
enum HostGrads {
    /// FP16 buffers that never touch storage; the update kernel upscales
    /// them on the fly (delayed in-place conversion).
    Fp16(GradAccumulator),
    /// Eagerly upscaled FP32 buffers (the ZeRO-Offload lineage). Before
    /// the update, [`MlpFuncEngine::flush_gradients`] writes the gradients
    /// of tier-resident subgroups next to their state and records where
    /// in `on_tier` — separately from state placement, because the objects
    /// are transient: the accumulators stay authoritative until the update
    /// succeeds, so a lost or unreachable gradient object costs a re-flush
    /// (or nothing), never the iteration.
    Fp32 {
        accum: Vec<Vec<f32>>,
        on_tier: Vec<Option<usize>>,
        /// No micro-step since the last update: `accum` stands for zero,
        /// whatever it holds, and the next micro-step stores (the
        /// [`GradAccumulator`]'s rule).
        empty: bool,
    },
}

impl HostGrads {
    /// Squared L2 norm of the accumulated gradients after unscaling.
    fn sq_norm(&self, inv_scale: f32) -> f64 {
        match self {
            HostGrads::Fp16(acc) => (0..acc.num_subgroups())
                .map(|idx| fp16_grad_sq_norm(acc.grads(idx), inv_scale))
                .sum(),
            HostGrads::Fp32 { accum, .. } => accum
                .iter()
                .flatten()
                .map(|&g| (g as f64 * inv_scale as f64).powi(2))
                .sum(),
        }
    }

    /// Before anything reads the accumulators: with no micro-step since
    /// the last update they stand for zero gradients but still hold that
    /// update's, so this (rare) phase sweeps them to the zeros it must
    /// apply. A no-op once a micro-step has stored.
    fn materialize_zeros(&mut self) {
        match self {
            HostGrads::Fp16(acc) => acc.materialize_zeros(),
            HostGrads::Fp32 { accum, empty, .. } => {
                if *empty {
                    for g in accum {
                        g.fill(0.0);
                    }
                }
            }
        }
    }

    /// Forgets the accumulated gradients after a successful update, in
    /// O(1): the next micro-step stores over them. Returns the
    /// FP32 gradient bytes the iteration moved through storage, as
    /// logical once-per-iteration accounting: every gradient object on a
    /// tier was flushed once and fetched once, however often a failed
    /// attempt was re-driven.
    fn finish_iteration(&mut self) -> u64 {
        match self {
            HostGrads::Fp16(acc) => {
                acc.reset();
                0
            }
            HostGrads::Fp32 {
                accum,
                on_tier,
                empty,
            } => {
                *empty = true;
                let mut bytes = 0;
                for (g, tier) in accum.iter().zip(on_tier) {
                    if tier.take().is_some() {
                        bytes += 2 * 4 * g.len() as u64;
                    }
                }
                bytes
            }
        }
    }
}

/// A completed pooled read: the staging buffer and the bytes it holds.
type Filled = (PooledBuffer, usize);

/// One slot of the prefetch window.
enum Staged {
    /// Cache hit: the retained frame, lent by the ledger.
    Hit(Resident),
    /// Reads in flight.
    Fetch(Fetch),
}

/// The in-flight reads of one prefetched subgroup: its state and, on the
/// eager-gradient path, the FP32 gradients flushed next to it.
struct Fetch {
    state: OpHandle,
    grad: Option<OpHandle>,
}

impl Fetch {
    /// Settles both reads together, so a failure of one never abandons
    /// the other's handle (and staging buffer) mid-flight.
    fn wait(self) -> io::Result<(Filled, Option<Filled>)> {
        let state = self.state.wait_pooled();
        let grad = self.grad.map(OpHandle::wait_pooled).transpose();
        Ok((state?, grad?))
    }
}

/// An update pass in flight. Loads are issued in plan order, ahead of the
/// other steps; an eviction may leave before it falls due, never out of
/// order.
#[derive(Default)]
struct PassRun {
    outcome: UpdateOutcome,
    /// Plan cursors: the step to look for the next load from, and the one
    /// before which every eviction has been flushed.
    load: usize,
    evict: usize,
    /// The prefetch window and the eviction flushes in flight, oldest first.
    pending: VecDeque<(usize, Staged)>,
    flushes: VecDeque<(usize, OpHandle)>,
}

struct TierRt {
    /// Shared with the checkpoints that pin subgroups on this tier: their
    /// drain verifies the pins, and its prune deletes superseded ones.
    engine: Arc<AioEngine>,
    lock: ProcessExclusiveLock,
    weight: f64,
}

/// Resume state of a failed update phase: which subgroups already carry
/// this iteration's gradient (their updated state survives host-resident
/// or on a tier). A re-driven [`MlpFuncEngine::update`] skips re-applying
/// those and only re-emits their FP16 image, so a retried iteration is
/// bit-identical to one that never failed.
struct IterProgress {
    updated: Vec<bool>,
}

/// Result of one update phase.
#[derive(Debug, Default)]
pub struct UpdateOutcome {
    /// Updated FP16 parameters per subgroup id (what the GPU receives).
    pub fp16_params: Vec<Vec<u16>>,
    /// Subgroups served from the host cache.
    pub cache_hits: usize,
    /// Subgroups fetched from storage.
    pub fetches: usize,
    /// Subgroups flushed to storage.
    pub flushes: usize,
}

/// One worker's functional offloading engine — the only real-bytes
/// engine: every rung of the Fig. 14/15 ablation ladder, from the
/// DeepSpeed ZeRO-3 baseline ([`EngineConfig::deepspeed_zero3`]) to full
/// MLP-Offload ([`EngineConfig::mlp_offload`]), is a configuration of it.
///
/// Every scheduling decision — subgroup order, hit or fetch, which
/// resident to evict and to which tier (Eq. 1), what to migrate or drain
/// — comes from the [`SubgroupLedger`] it shares with the simulated
/// engine, a [`PassPlan`] per update pass. This type executes them in real
/// bytes: lookahead prefetching through the per-tier I/O engines, the fused
/// update kernel over pooled staging buffers, write-after-evict fences,
/// re-drive of a failed iteration, and either delayed FP16→FP32 gradient
/// conversion at update time or eager FP32 gradients moved through storage.
pub struct MlpFuncEngine {
    cfg: EngineConfig,
    adam: AdamConfig,
    worker_id: usize,
    tiers: Vec<TierRt>,
    subgroup_lens: Vec<usize>,
    /// Object names of each subgroup's state (`w{worker}/sub{idx}`) and
    /// FP32 gradients (`w{worker}/grad{idx}`), built once: the update
    /// loop names an object per fetch and per flush.
    keys: Vec<String>,
    grad_keys: Vec<String>,
    /// Placement, retention and the flush split: one slot per subgroup,
    /// host-resident ones holding their pooled staging buffer. Its
    /// planner folds the observed per-tier transfer and retry rates into
    /// live bandwidth estimates (§3.3).
    ledger: SubgroupLedger<Resident>,
    /// The plan of the current (or last) update pass.
    pass: PassPlan,
    /// Fixed pool of subgroup-state staging buffers: the pipeline's fetch
    /// targets, in-place update workspace, retention frames, and flush
    /// sources (state and, on the eager path, gradients) are all the same
    /// recycled buffers — zero per-subgroup heap allocation on the hot
    /// path.
    state_pool: PinnedPool,
    /// Host gradient accumulators, one buffer per subgroup.
    grads: HostGrads,
    /// FP32 gradient bytes the last completed iteration moved through
    /// storage (see [`HostGrads::finish_iteration`]).
    last_grad_bytes: u64,
    step: u64,
    inv_loss_scale: f32,
    /// Optional global gradient-norm clipping threshold.
    grad_clip_max_norm: Option<f64>,
    /// Set when an update phase failed mid-flight; the next `update` call
    /// re-drives the same iteration instead of starting a new one.
    in_progress: Option<IterProgress>,
    /// Per-tier cumulative `(bytes_moved, busy_seconds, retries)` counter
    /// snapshot from the tier I/O engines at the last planner feed, so
    /// each iteration records only its own deltas.
    io_snapshot: Vec<(u64, f64, u64)>,
    /// Durable-copy migrations executed so far.
    migrations_done: u64,
    /// Durable copies evacuated off quarantined tiers so far.
    drains_done: u64,
}

impl MlpFuncEngine {
    /// Creates the engine and offloads the initial optimizer state across
    /// the tiers per Eq. 1 (retaining nothing: the cache warms up during
    /// training, as in the paper's cold start).
    pub fn new(
        cfg: EngineConfig,
        adam: AdamConfig,
        shared_tiers: &[SharedTier],
        worker_id: usize,
        initial: Vec<SubgroupState>,
    ) -> io::Result<Self> {
        // Both the tier list and the ratio come from user configuration
        // (`EngineConfig::from_deepspeed_json`): reject, don't panic.
        if shared_tiers.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "the engine needs at least one storage tier",
            ));
        }
        if let Some(ratio) = cfg
            .tier_ratio
            .as_ref()
            .filter(|r| r.len() != shared_tiers.len())
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "tier ratio has {} components for {} tiers",
                    ratio.len(),
                    shared_tiers.len()
                ),
            ));
        }
        // With an enabled sink, each tier's I/O engine stamps its spans
        // with the tier index and the backend is wrapped so the storage
        // medium itself contributes tier_read/tier_write spans (the
        // per-tier bandwidth summary's input). A tier whose own
        // `aio.trace` is already enabled was instrumented by the caller
        // and is left alone (a second wrapper would double every span).
        // Disabled, the construction is untouched — no wrapper, no per-op
        // tracing work.
        let trace = cfg.trace.clone();
        let tiers: Vec<TierRt> = shared_tiers
            .iter()
            .enumerate()
            .map(|(ti, t)| {
                let mut aio = t.aio.clone();
                let backend: Arc<dyn Backend> = if trace.is_enabled() && !aio.trace.is_enabled() {
                    aio.trace = trace.clone();
                    aio.trace_tier = ti as i32;
                    Arc::new(TracedBackend::new(
                        Arc::clone(&t.backend),
                        ti as i32,
                        trace.clone(),
                    ))
                } else {
                    Arc::clone(&t.backend)
                };
                TierRt {
                    engine: Arc::new(AioEngine::new(backend, aio)),
                    lock: t.lock.clone(),
                    weight: t.weight,
                }
            })
            .collect();
        let weights: Vec<f64> = match &cfg.tier_ratio {
            Some(r) => r.clone(),
            None => tiers.iter().map(|t| t.weight).collect(),
        };
        let m = initial.len();
        // Residents rest in every frame between update phases: each
        // pass's evictions leave as soon as they are certain, freeing the
        // pipeline's frames before its window needs them.
        let ledger = SubgroupLedger::new(&cfg, m, weights, ExecutorKind::Pool);
        let subgroup_lens: Vec<usize> = initial.iter().map(SubgroupState::len).collect();
        let plan = ledger.plan;

        // One staging buffer holds any subgroup's full serialized state
        // (or its FP32 gradients). Capacity covers the steady-state held
        // set — the frames beyond the pipeline's plus the prefetch window,
        // whose slots hold a second buffer each when gradients travel
        // through storage — with headroom for the subgroup being updated
        // and flushes still in flight on the I/O workers (which never
        // acquire, so a blocked `acquire` always unblocks when a flush
        // completes). Resting in all `total_frames` takes three more, and
        // the `6·buffers_per_slot − 1` still free at rest cover the
        // window's floor.
        let buffer_bytes = subgroup_lens.iter().copied().max().unwrap_or(1).max(1) * 12;
        let buffers_per_slot = if cfg.skip_gradient_offload { 1 } else { 2 };
        let pool_capacity = plan.retain_frames + 2 * plan.pipeline_frames * buffers_per_slot + 2;
        let state_pool =
            PinnedPool::new_traced(pool_capacity, buffer_bytes, "state", cfg.trace.clone());

        let ntiers = tiers.len();
        let mut engine = MlpFuncEngine {
            state_pool,
            grads: if cfg.skip_gradient_offload {
                HostGrads::Fp16(GradAccumulator::new(&subgroup_lens))
            } else {
                HostGrads::Fp32 {
                    accum: subgroup_lens.iter().map(|&n| vec![0.0; n]).collect(),
                    on_tier: vec![None; m],
                    empty: true,
                }
            },
            last_grad_bytes: 0,
            ledger,
            pass: PassPlan::default(),
            keys: (0..m).map(|idx| format!("w{worker_id}/sub{idx}")).collect(),
            grad_keys: (0..m)
                .map(|idx| format!("w{worker_id}/grad{idx}"))
                .collect(),
            subgroup_lens,
            tiers,
            cfg,
            adam,
            worker_id,
            step: 0,
            inv_loss_scale: 1.0,
            grad_clip_max_norm: None,
            in_progress: None,
            io_snapshot: vec![(0, 0.0, 0); ntiers],
            migrations_done: 0,
            drains_done: 0,
        };

        // Initial population (not part of any measured iteration): each
        // subgroup is serialized straight into a pooled frame and flushed
        // from it, so staging memory is bounded by the pool and the first
        // object a memory-class tier holds is already a frame it can
        // exchange.
        let mut inflight: VecDeque<OpHandle> = VecDeque::new();
        for (idx, state) in initial.iter().enumerate() {
            // Nothing is retained yet: every slot names a tier.
            let Place::Tier(tier) = engine.place(idx)? else {
                continue;
            };
            let mut buf = engine.acquire_settling("population write", || {
                inflight
                    .pop_front()
                    .map_or(Ok(false), |oldest| oldest.wait().map(|_| true))
            })?;
            state.write_to(buf.buffer_mut());
            let _g = engine.tiers[tier].lock.acquire(engine.worker_id);
            inflight.push_back(engine.tiers[tier].engine.submit_write_pooled(
                engine.key(idx),
                buf,
                state.len() * 12,
            ));
        }
        for h in inflight {
            h.wait()?;
        }
        // The population writes above are not part of any measured
        // iteration; reset the counter snapshot so the first planner feed
        // observes only training I/O.
        engine.refresh_io_snapshot();
        Ok(engine)
    }

    /// Sets the inverse loss scale applied to gradients before the update.
    pub fn set_inv_loss_scale(&mut self, inv: f32) {
        self.inv_loss_scale = inv;
    }

    /// Enables global gradient-norm clipping at `max_norm` (the one
    /// cross-subgroup coupling; the norm is computed from the host
    /// accumulation buffers before the pipeline starts, so subgroup
    /// order independence is preserved).
    pub fn set_grad_clip(&mut self, max_norm: Option<f64>) {
        self.grad_clip_max_norm = max_norm;
    }

    /// Number of subgroups.
    pub fn num_subgroups(&self) -> usize {
        self.subgroup_lens.len()
    }

    /// Completed update phases.
    pub fn iterations_done(&self) -> u64 {
        self.ledger.iterations_done
    }

    /// Where subgroup `idx` rests. Only an update pass borrows frames
    /// from the ledger, and it returns every one before it ends.
    fn place(&self, idx: usize) -> io::Result<Place<'_, Resident>> {
        self.ledger.place(idx).ok_or_else(|| {
            invariant_violation(format!("subgroup {idx} is checked out by an update pass"))
        })
    }

    fn key(&self, idx: usize) -> &str {
        &self.keys[idx]
    }

    fn grad_key(&self, idx: usize) -> &str {
        &self.grad_keys[idx]
    }

    /// Holds `tier`'s node-level lock across a submission when "Process
    /// Atomic R/W" is on.
    fn tier_guard(&self, tier: usize) -> Option<TierGuard> {
        self.cfg
            .tier_exclusive_locking
            .then(|| self.tiers[tier].lock.acquire(self.worker_id))
    }

    /// Records `[start_ns, now]` as a `phase` span (free when the sink is
    /// disabled).
    fn span(&self, phase: Phase, attrs: Attrs, start_ns: u64) {
        let trace = &self.cfg.trace;
        trace.complete_span(phase, attrs, start_ns, trace.now_ns());
    }

    /// A free staging buffer for a phase that only writes. Never the
    /// pool's condvar: a failed write keeps its buffer until it is settled
    /// and would not signal it. With no buffer free, the oldest write in
    /// flight is what frees one: `settle_oldest` settles it, or reports
    /// that nothing is in flight.
    fn acquire_settling(
        &self,
        what: &str,
        mut settle_oldest: impl FnMut() -> io::Result<bool>,
    ) -> io::Result<PooledBuffer> {
        loop {
            if let Some(buf) = self.state_pool.try_acquire() {
                return Ok(buf);
            }
            if !settle_oldest()? {
                return Err(invariant_violation(format!(
                    "state pool exhausted (all {} buffers out) with no {what} in flight",
                    self.state_pool.capacity()
                )));
            }
        }
    }

    fn submit_read(&self, tier: usize, key: &str, len: usize) -> OpHandle {
        let buf = self.state_pool.acquire();
        let _g = self.tier_guard(tier);
        self.tiers[tier].engine.submit_read_pooled(key, buf, len)
    }

    fn submit_flush(&self, tier: usize, key: &str, buf: PooledBuffer, len: usize) -> OpHandle {
        let _g = self.tier_guard(tier);
        self.tiers[tier].engine.submit_write_pooled(key, buf, len)
    }

    /// Accumulates one backward micro-step's FP16 gradients (one slice of
    /// bits per subgroup, in subgroup-id order). With "Skip Gradients"
    /// they stay in host memory in FP16 and nothing touches storage;
    /// without it they are eagerly upscaled into the FP32 accumulators
    /// (the conversion MLP-Offload delays).
    pub fn accumulate_gradients(&mut self, grads: &[Vec<u16>]) {
        match &mut self.grads {
            HostGrads::Fp16(acc) => acc.accumulate(grads),
            HostGrads::Fp32 {
                accum,
                on_tier,
                empty,
            } => {
                // Whatever an earlier flush put on a tier is stale now.
                on_tier.fill(None);
                if std::mem::take(empty) {
                    for_each_subgroup(accum, grads, store_f32);
                } else {
                    for_each_subgroup(accum, grads, add_f32);
                }
            }
        }
    }

    /// The end of the last backward micro-step on the eager-gradient path
    /// (Fig. 6 top): writes each tier-resident subgroup's FP32 gradients
    /// next to its state. A no-op with "Skip Gradients".
    ///
    /// Idempotent: gradients already sitting next to their state are
    /// skipped, and the host accumulators are untouched either way, so
    /// after a failed flush, a migration or a quarantine-and-drain,
    /// re-calling the phase moves exactly what is missing.
    pub fn flush_gradients(&mut self) -> io::Result<()> {
        if self.cfg.skip_gradient_offload {
            return Ok(());
        }
        // A tier quarantined since the state was placed must be drained
        // first, or its subgroups' gradients would chase a dead tier.
        self.drain_quarantined()?;
        self.grads.materialize_zeros();
        let HostGrads::Fp32 { accum, on_tier, .. } = &self.grads else {
            return Ok(());
        };
        let phase_start = self.cfg.trace.now_ns();
        let mut inflight = VecDeque::new();
        let mut landed = Vec::new();
        let mut first_err = None;
        // A reclaimed payload just drops (the staging buffer recycles):
        // the gradients still live in the accumulators.
        let mut settle = |(idx, t, h): (usize, usize, OpHandle)| match h.wait_flush() {
            Ok(()) => landed.push((idx, t)),
            Err((e, _payload)) => {
                first_err.get_or_insert(e);
            }
        };
        for (idx, g) in accum.iter().enumerate() {
            let Some(Place::Tier(t)) = self.ledger.place(idx) else {
                continue;
            };
            if on_tier[idx] == Some(t) {
                continue;
            }
            let mut buf = self.acquire_settling("gradient flush", || {
                Ok(inflight.pop_front().map(&mut settle).is_some())
            })?;
            buf.write_f32(0, g);
            let handle = self.submit_flush(t, self.grad_key(idx), buf, g.len() * 4);
            inflight.push_back((idx, t, handle));
        }
        inflight.into_iter().for_each(&mut settle);
        let HostGrads::Fp32 { accum, on_tier, .. } = &mut self.grads else {
            return Ok(());
        };
        let mut bytes = 0;
        for (idx, t) in landed {
            on_tier[idx] = Some(t);
            bytes += accum[idx].len() as u64 * 4;
        }
        self.span(Phase::GradFlush, Attrs::bytes(bytes), phase_start);
        first_err.map_or(Ok(()), Err)
    }

    /// Runs one update phase: fetch → optimizer step → flush or retain, in
    /// the configured subgroup order with lookahead prefetching. Returns
    /// the new FP16 parameters per subgroup id.
    ///
    /// Each subgroup is fetched into a pooled staging buffer, updated in
    /// place by the single-pass fused kernel, and flushed from the same
    /// buffer. With "Skip Gradients" the kernel upscales the host FP16
    /// gradients on the fly; without it, gradients that
    /// [`MlpFuncEngine::flush_gradients`] put on a tier are fetched back
    /// alongside the state (16 B/param instead of 12).
    ///
    /// # Failure semantics
    ///
    /// An I/O error (after the per-tier retry policy gave up) unwinds the
    /// phase cleanly: every in-flight operation is drained, staging
    /// buffers return to the pool, failed flushes reclaim their payload
    /// back into the host cache, and the error is returned typed — no
    /// panic, no hang. The engine stays re-drivable: calling `update`
    /// again re-drives the *same* iteration (gradients are still
    /// accumulated; subgroups already updated are skipped), producing the
    /// exact result of an iteration that never failed.
    pub fn update(&mut self) -> io::Result<UpdateOutcome> {
        // Quarantine-and-drain runs first, even ahead of a re-drive:
        // evacuation moves bytes, it never mutates them, so a replayed
        // iteration stays bit-identical — and the re-drive may *need*
        // the evacuation, because the failed flush target is often the
        // very tier that just got quarantined.
        self.drain_quarantined()?;
        // Bounded durable-copy migration runs strictly at an iteration
        // boundary: only when starting a fresh iteration (a pending
        // re-drive must replay against unchanged placements to stay
        // bit-identical to an iteration that never failed).
        if self.in_progress.is_none()
            && self.cfg.adaptive_bandwidth
            && self.cfg.max_migrations_per_iter > 0
        {
            self.run_migrations()?;
        }
        let m = self.subgroup_lens.len();
        self.grads.materialize_zeros();
        // A re-drive restarts the same iteration: same order, planned from
        // where the failed attempt left each subgroup and the tiers alive.
        self.pass = self.ledger.begin_iteration();

        // Fresh iteration vs re-drive of a failed one: the step advances
        // once per iteration, and the resume bitmap records which
        // subgroups already carry this step's update.
        let mut progress = match self.in_progress.take() {
            Some(p) => p,
            None => {
                self.step += 1;
                IterProgress {
                    updated: vec![false; m],
                }
            }
        };

        // Global gradient-norm clipping folds into the inverse loss scale
        // for this update. The accumulators are untouched until the phase
        // succeeds, so a re-drive recomputes the identical scale.
        let inv_scale = match self.grad_clip_max_norm {
            None => self.inv_loss_scale,
            Some(max_norm) => {
                let sq = self.grads.sq_norm(self.inv_loss_scale);
                self.inv_loss_scale * grad_clip_factor(sq, max_norm)
            }
        };

        let phase_start = self.cfg.trace.now_ns();
        // The pass state lives out here so that, pass outcome aside,
        // everything submitted is drained before returning — nothing
        // races a re-driven iteration and no staging buffer stays checked
        // out.
        let mut run = PassRun::default();
        run.outcome.fp16_params = vec![Vec::new(); m];
        let pass = self.update_pass(inv_scale, &mut run, &mut progress);
        let result = self.drain_inflight(pass, run, &mut progress);
        // The whole update phase as one span; the per-subgroup I/O and
        // kernel spans nest underneath it on the timeline.
        self.span(Phase::Update, Attrs::NONE, phase_start);
        match result {
            Ok(outcome) => {
                self.last_grad_bytes = self.grads.finish_iteration();
                if self.cfg.adaptive_bandwidth {
                    // Feed the observed per-tier transfer and retry rates
                    // back into the estimator; ending the iteration folds
                    // the EMA, closing the §3.3 loop for the next split.
                    self.feed_planner();
                }
                self.ledger.end_iteration();
                Ok(outcome)
            }
            Err(e) => {
                self.in_progress = Some(progress);
                Err(e)
            }
        }
    }

    /// The plan of the last update pass (or of the one awaiting re-drive).
    pub fn pass_plan(&self) -> &PassPlan {
        &self.pass
    }

    /// Whether a failed update phase is awaiting a re-drive.
    pub fn update_in_progress(&self) -> bool {
        self.in_progress.is_some()
    }

    /// FP32 gradient bytes the last completed iteration moved through
    /// storage: each gradient object flushed to a tier counts once for
    /// the flush and once for the fetch, however often a failed attempt
    /// was re-driven (physically re-moved bytes show up on the trace
    /// timeline and the tier byte counters instead). Always 0 with
    /// "Skip Gradients".
    pub fn grad_bytes_through_storage(&self) -> u64 {
        self.last_grad_bytes
    }

    /// A failed flush hands its staging buffer back through
    /// [`OpHandle::wait_flush`]; keep the subgroup host-resident so the
    /// (possibly only) copy of its updated state survives for the
    /// re-driven iteration. Only a backend panic loses the payload — then
    /// the subgroup falls back to its last durable copy and its resume
    /// bit is cleared so the re-drive re-applies the gradient.
    fn reclaim_failed_flush(
        &mut self,
        fidx: usize,
        payload: Option<ReclaimedWrite>,
        progress: &mut IterProgress,
    ) {
        match payload {
            Some(ReclaimedWrite::Pooled(buf)) => {
                let n = self.subgroup_lens[fidx];
                self.ledger.rest(fidx, Resident { buf, n });
            }
            // State flushes are always pooled: anything else is a lost
            // payload.
            Some(ReclaimedWrite::Bytes(_)) | None => progress.updated[fidx] = false,
        }
    }

    /// Waits for subgroup `fidx`'s eviction flush; a failed one reclaims
    /// its payload host-side and returns the error.
    fn settle_flush(
        &mut self,
        fidx: usize,
        handle: OpHandle,
        progress: &mut IterProgress,
    ) -> io::Result<()> {
        handle.wait_flush().map_err(|(e, payload)| {
            self.reclaim_failed_flush(fidx, payload, progress);
            e
        })
    }

    /// Drains every operation still in flight after a pass, successful or
    /// not: pending reads settle (their staging buffers recycle), cache
    /// hits the pass never reached go back to the ledger, and flushes
    /// settle with failed ones reclaiming their payload into the host
    /// cache. Returns the pass's outcome, or the first error encountered,
    /// preferring the pass's own.
    fn drain_inflight(
        &mut self,
        pass: io::Result<()>,
        run: PassRun,
        progress: &mut IterProgress,
    ) -> io::Result<UpdateOutcome> {
        let mut first_err = pass.err();
        for (idx, staged) in run.pending {
            match staged {
                Staged::Hit(res) => self.ledger.rest(idx, res),
                // Buffers recycle on drop.
                Staged::Fetch(fetch) => {
                    if let Err(e) = fetch.wait() {
                        first_err.get_or_insert(e);
                    }
                }
            }
        }
        for (fidx, h) in run.flushes {
            if let Err(e) = self.settle_flush(fidx, h, progress) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(run.outcome), Err)
    }

    /// Flushes the plan's next eviction that has not left yet, as-is from
    /// its staging buffer, which returns to the pool when the write
    /// completes. Returns whether there was one.
    fn flush_next_eviction(&mut self, run: &mut PassRun) -> io::Result<bool> {
        let steps = &self.pass.steps;
        let next = (run.evict..steps.len()).find_map(|at| match steps.get(at) {
            Some(&Step::Evict { subgroup, tier }) => Some((at, subgroup, tier)),
            _ => None,
        });
        let Some((at, subgroup, tier)) = next else {
            return Ok(false);
        };
        run.evict = at + 1;
        let Resident { buf, n } = self.ledger.evict(subgroup, tier).ok_or_else(|| {
            invariant_violation(format!("planned eviction {subgroup} is not resting"))
        })?;
        let handle = self.submit_flush(tier, self.key(subgroup), buf, n * 12);
        run.flushes.push_back((subgroup, handle));
        run.outcome.flushes += 1;
        Ok(true)
    }

    /// Issues the plan's loads in order: every one that stands before
    /// step `due` (the update about to run), which is the window's floor
    /// of [`MIN_PIPELINE_FRAMES`](crate::policy::cache::MIN_PIPELINE_FRAMES)
    /// — below it a fetch waits for a buffer — and beyond it as many as
    /// the state pool has free buffers for. Depth changes when a load is
    /// issued, never what the plan made it.
    fn top_up(
        &mut self,
        due: usize,
        run: &mut PassRun,
        progress: &mut IterProgress,
    ) -> io::Result<()> {
        // State, plus the FP32 gradients flushed next to it on the
        // eager-gradient path.
        let buffers_per_fetch = if self.cfg.skip_gradient_offload { 1 } else { 2 };
        while let Some(&step) = self.pass.steps.get(run.load) {
            let (idx, load) = match step {
                Step::Load { subgroup, load } => (subgroup, load),
                _ => {
                    run.load += 1;
                    continue;
                }
            };
            let (t, after) = match load {
                // A hit takes the frame its subgroup rests in, so an
                // empty pool never stops one.
                Load::Hit => {
                    let res = self.ledger.take_hit(idx).ok_or_else(|| {
                        invariant_violation(format!("planned hit {idx} is not resting"))
                    })?;
                    run.pending.push_back((idx, Staged::Hit(res)));
                    run.load += 1;
                    continue;
                }
                Load::Fetch { tier, after } => (tier, after),
            };
            // A copy this pass evicted is read once its eviction has left.
            if after.is_some_and(|evicted| evicted >= run.evict) {
                break;
            }
            // Only this thread acquires from the pool, so buffers counted
            // free here stay free until the reads below take them.
            let free = self
                .state_pool
                .capacity()
                .saturating_sub(self.state_pool.outstanding());
            if free < buffers_per_fetch {
                if run.load > due {
                    break;
                }
                // Below the floor the fetch is mandatory, and the pool's
                // condvar is no place to wait for it: a failed flush keeps
                // its buffer for the reclaim and would never signal it.
                // Wait for what can free a buffer instead — the oldest
                // flush in flight, else the update of a staged subgroup,
                // else the plan's next eviction (residents a failed attempt
                // reclaimed can hold the whole pool).
                if let Some((fidx, handle)) = run.flushes.pop_front() {
                    self.settle_flush(fidx, handle, progress)?;
                    continue;
                }
                if !run.pending.is_empty() {
                    break;
                }
                if !self.flush_next_eviction(run)? {
                    return Err(invariant_violation(format!(
                        "state pool exhausted ({free} of {} buffers free) with nothing in flight",
                        self.state_pool.capacity()
                    )));
                }
                continue;
            }
            // Write-after-evict fence: a read of a subgroup whose flush
            // is still in flight could overtake the write on another I/O
            // worker and fetch stale state. On fence failure the payload
            // is reclaimed host-side and the iteration unwinds.
            let fence = after.and_then(|_| run.flushes.iter().position(|(f, _)| *f == idx));
            if let Some((_, handle)) = fence.and_then(|at| run.flushes.remove(at)) {
                self.settle_flush(idx, handle, progress)?;
            }
            let n = self.subgroup_lens[idx];
            // Gradients that went through storage come back with the
            // state — unless a failed attempt already applied them.
            let grad_tier = match &self.grads {
                HostGrads::Fp32 { on_tier, .. } if !progress.updated[idx] => on_tier[idx],
                _ => None,
            };
            let fetch = Fetch {
                state: self.submit_read(t, self.key(idx), n * 12),
                grad: grad_tier.map(|g| self.submit_read(g, self.grad_key(idx), n * 4)),
            };
            run.pending.push_back((idx, Staged::Fetch(fetch)));
            run.load += 1;
        }
        Ok(())
    }

    /// The zero-copy update loop: pooled reads fetch serialized state
    /// straight into recycled staging buffers, the fused kernel (unscale,
    /// moment update, step and FP16 emission in one sweep) mutates them
    /// in place, and retention/flush reuse the very same buffer. The hot
    /// loop performs no per-subgroup heap allocation for state.
    ///
    /// The pass walks the ledger's plan. The pipeline is work-conserving
    /// with it: the window runs as far ahead as the pool allows
    /// ([`MlpFuncEngine::top_up`]), and every eviction leaves where the
    /// plan has it fall due — as soon as it is certain — so the frames it
    /// frees feed the window and the tail of flushes overlaps the tail
    /// of fetches instead of following it.
    fn update_pass(
        &mut self,
        inv_scale: f32,
        run: &mut PassRun,
        progress: &mut IterProgress,
    ) -> io::Result<()> {
        for at in 0..self.pass.steps.len() {
            // An eviction is flushed now, while its buffer is hot (unless an
            // exhausted pool already flushed it); loads are `top_up`'s,
            // issued as early as the pool allows.
            let step = self.pass.steps[at];
            if matches!(step, Step::Evict { .. }) && at >= run.evict {
                self.flush_next_eviction(run)?;
            }
            let Step::Update { .. } = step else { continue };
            self.top_up(at, run, progress)?;
            // Settle the flushes that have finished: a dead tier fails
            // the pass here, at the next subgroup, not after every
            // remaining one has moved its bytes.
            while run.flushes.front().is_some_and(|(_, h)| h.is_done()) {
                if let Some((fidx, handle)) = run.flushes.pop_front() {
                    self.settle_flush(fidx, handle, progress)?;
                }
            }

            let Some((idx, staged)) = run.pending.pop_front() else {
                return Err(invariant_violation(
                    "prefetch window empty with subgroups still unprocessed".into(),
                ));
            };
            let n = self.subgroup_lens[idx];
            let (mut res, fetched_grad) = match staged {
                Staged::Hit(res) => {
                    run.outcome.cache_hits += 1;
                    (res, None)
                }
                Staged::Fetch(fetch) => {
                    run.outcome.fetches += 1;
                    let ((buf, got), grad) = fetch.wait()?;
                    expect_len("state", idx, got, n * 12)?;
                    if let Some((_, got)) = &grad {
                        expect_len("gradient", idx, *got, n * 4)?;
                    }
                    (Resident { buf, n }, grad.map(|(buf, _)| buf))
                }
            };

            let mut fp16 = vec![0u16; n];
            if progress.updated[idx] {
                // Re-driven iteration: this subgroup already carries the
                // update — re-emit its FP16 image without touching state.
                convert::downscale_par(res.params(), &mut fp16);
            } else {
                // Single fused pass over the staging buffer: unscale +
                // moment update + parameter step + FP16 emission.
                let mut view = SubgroupStateMut::from_buffer(res.buf.buffer_mut(), n);
                match &self.grads {
                    HostGrads::Fp16(acc) => view.apply_update_fused_traced(
                        &self.cfg.trace,
                        idx as i64,
                        &self.adam,
                        self.step,
                        acc.grads(idx),
                        inv_scale,
                        &mut fp16,
                    ),
                    HostGrads::Fp32 { accum, .. } => fused_update_f32_traced(
                        &self.cfg.trace,
                        idx as i64,
                        &self.adam,
                        self.step,
                        view.params,
                        view.momentum,
                        view.variance,
                        // Host-resident subgroups (and any whose gradient
                        // object was never flushed) read the accumulator.
                        fetched_grad
                            .as_ref()
                            .map_or(&accum[idx][..], |g| g.as_f32(n)),
                        inv_scale,
                        &mut fp16,
                    ),
                }
                progress.updated[idx] = true;
            }
            drop(fetched_grad); // back to the pool
            run.outcome.fp16_params[idx] = fp16;

            self.ledger.rest(idx, res);
        }

        // The final flush barrier is the caller's unconditional drain.
        Ok(())
    }

    /// Staging-buffer pool statistics for the update pipeline:
    /// `(lifetime acquisitions, high-water mark, capacity)`. A long
    /// training run shows acquisitions far exceeding the (constant)
    /// high-water mark — the proof that state buffers are recycled rather
    /// than reallocated per subgroup.
    pub fn state_pool_stats(&self) -> (u64, usize, usize) {
        (
            self.state_pool.acquires(),
            self.state_pool.high_water(),
            self.state_pool.capacity(),
        )
    }

    /// Staging buffers currently checked out of the state pool. In steady
    /// state (no update in flight) this equals the number of pooled
    /// host-resident subgroups — anything beyond that is a leak.
    pub fn state_pool_outstanding(&self) -> usize {
        self.state_pool.outstanding()
    }

    /// Host-resident subgroup count.
    pub fn resident_count(&self) -> usize {
        self.ledger.resident_count()
    }

    /// Records the I/O each tier performed since the last feed into the
    /// planner's bandwidth estimator: deltas of the cumulative
    /// bytes-moved / busy-seconds / retry counters kept by the tier
    /// [`AioEngine`]s (the real-bytes analogue of the simulated engine's
    /// per-transfer timings).
    fn feed_planner(&mut self) {
        for t in 0..self.tiers.len() {
            let (bytes, busy, retries) = self.io_counters(t);
            let (pb, pbusy, pr) = self.io_snapshot[t];
            let dbytes = bytes.saturating_sub(pb);
            let dbusy = busy - pbusy;
            let dretries = retries.saturating_sub(pr);
            if dbytes > 0 && dbusy > 0.0 {
                self.ledger.planner.record(t, dbytes, dbusy);
            }
            if dretries > 0 {
                self.ledger.planner.record_retries(t, dretries);
            }
            self.io_snapshot[t] = (bytes, busy, retries);
        }
    }

    /// Re-bases the planner-feed snapshot on the tiers' current counters,
    /// discarding any I/O performed since the last feed.
    fn refresh_io_snapshot(&mut self) {
        self.io_snapshot = (0..self.tiers.len()).map(|t| self.io_counters(t)).collect();
    }

    /// Tier `t`'s cumulative `(bytes_moved, busy_seconds, retries)`.
    fn io_counters(&self, t: usize) -> (u64, f64, u64) {
        let engine = &self.tiers[t].engine;
        let (r, w) = engine.bytes_moved();
        (r + w, engine.busy_seconds(), engine.retries())
    }

    /// Reads subgroup `idx`'s durable copy from `tier` through the tier's
    /// I/O engine (cold paths: verification, migration, drain; a
    /// `salvage` read skips the tier breaker's admission).
    fn read_durable(&self, tier: usize, idx: usize, salvage: bool) -> io::Result<Vec<u8>> {
        let engine = &self.tiers[tier].engine;
        let key = self.key(idx);
        let read = if salvage {
            engine.submit_salvage_read(key)
        } else {
            engine.submit_read(key)
        };
        read.wait()?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("read of subgroup {idx} returned no payload"),
            )
        })
    }

    /// Moves one durable subgroup copy between tiers, keeping a durable
    /// copy live at every instant: read the source, write the destination
    /// and wait for it, flip the placement, and only then retire the
    /// source. `salvage` reads and deletes past the source tier's breaker
    /// (it refuses normal traffic, but a write-dead tier usually still
    /// serves reads) — still through its I/O engine, so under its retry
    /// policy and deadline.
    fn move_durable_copy(&mut self, step: MigrationStep, salvage: bool) -> io::Result<()> {
        let key = self.key(step.subgroup).to_owned();
        let started = self.cfg.trace.now_ns();
        let data = {
            let _g = self.tiers[step.from].lock.acquire(self.worker_id);
            self.read_durable(step.from, step.subgroup, salvage)?
        };
        let bytes = data.len() as u64;
        {
            let _g = self.tiers[step.to].lock.acquire(self.worker_id);
            self.tiers[step.to].engine.submit_write(&key, data).wait()?;
        }
        // The destination copy is durable; the source is now garbage.
        self.ledger.relocate(step);
        {
            // A failed delete leaves a stale source copy behind — a
            // space leak, not a correctness problem (the key is never
            // read from the old tier again) — so it does not fail the
            // iteration.
            let _g = self.tiers[step.from].lock.acquire(self.worker_id);
            let engine = &self.tiers[step.from].engine;
            let delete = if salvage {
                engine.submit_salvage_delete(&key)
            } else {
                engine.submit_delete(&key)
            };
            let _ = delete.wait();
        }
        let phase = if salvage {
            self.drains_done += 1;
            Phase::Drain
        } else {
            self.migrations_done += 1;
            Phase::Migrate
        };
        let attrs = Attrs {
            tier: step.to as i32,
            subgroup: step.subgroup as i64,
            bytes,
            ..Attrs::NONE
        };
        self.span(phase, attrs, started);
        Ok(())
    }

    /// Executes the planner's bounded migration plan: moves up to
    /// `max_migrations_per_iter` durable subgroup copies toward the
    /// current Eq. 1 split. Host-resident subgroups are never touched
    /// (the cache-hit sequence is unchanged).
    fn run_migrations(&mut self) -> io::Result<()> {
        // Between update phases nothing is in flight: every tier copy is
        // settled.
        let steps = self.ledger.plan_migrations(|_| false);
        let (trace, planned) = (&self.cfg.trace, Attrs::bytes(steps.len() as u64));
        trace.instant(Phase::Replan, planned, trace.now_ns());
        for step in steps {
            self.move_durable_copy(step, false)?;
        }
        Ok(())
    }

    /// Quarantine-and-drain (DESIGN.md §15): notices breakers that have
    /// latched [`mlp_storage::BreakerState::Quarantined`] since the last
    /// check, excludes those tiers from every future placement decision,
    /// and evacuates their durable subgroup copies to the surviving
    /// tiers through the salvage path of
    /// [`MlpFuncEngine::move_durable_copy`]. Gradient objects on a
    /// quarantined tier are simply forgotten — the host accumulators
    /// still hold them.
    ///
    /// Idempotent and resumable: a failure mid-drain leaves the
    /// exclusion latched and the unmoved copies still pointing at the
    /// quarantined tier, so the next call re-plans exactly the
    /// remainder. With every tier quarantined there is no survivor to
    /// drain to and training cannot continue: a typed error, not a
    /// panic.
    fn drain_quarantined(&mut self) -> io::Result<()> {
        for t in 0..self.tiers.len() {
            if !self.ledger.planner.excluded()[t]
                && self.tiers[t]
                    .engine
                    .health()
                    .is_some_and(|h| h.is_quarantined())
            {
                self.ledger.planner.exclude_tier(t);
                if let HostGrads::Fp32 { on_tier, .. } = &mut self.grads {
                    for g in on_tier.iter_mut().filter(|g| **g == Some(t)) {
                        *g = None;
                    }
                }
                let attrs = Attrs {
                    tier: t as i32,
                    ..Attrs::NONE
                };
                let trace = &self.cfg.trace;
                trace.instant(Phase::Quarantine, attrs, trace.now_ns());
            }
        }
        let surviving = self.ledger.planner.surviving_tiers();
        if surviving == self.tiers.len() {
            return Ok(());
        }
        if surviving == 0 {
            return Err(io::Error::other(
                "every storage tier is quarantined; no surviving tier to drain to",
            ));
        }
        for step in self.ledger.plan_drain(|_| false) {
            self.move_durable_copy(step, true)?;
        }
        Ok(())
    }

    /// Tier indices currently quarantined (excluded from placement).
    pub fn quarantined_tiers(&self) -> Vec<usize> {
        let excluded = self.ledger.planner.excluded();
        (0..excluded.len()).filter(|&t| excluded[t]).collect()
    }

    /// Durable copies evacuated off quarantined tiers so far.
    pub fn drains_done(&self) -> u64 {
        self.drains_done
    }

    /// Live per-tier bandwidth estimates (bytes/second, or the
    /// construction-time weights until the first adaptive fold).
    pub fn bandwidth_estimates(&self) -> Vec<f64> {
        self.ledger.planner.estimates().to_vec()
    }

    /// Re-plans the adaptive planner has completed (estimator folds, one
    /// per adaptive iteration).
    pub fn planner_replans(&self) -> u64 {
        self.ledger.planner.replans()
    }

    /// Durable-copy migrations executed between tiers so far.
    pub fn migrations_done(&self) -> u64 {
        self.migrations_done
    }

    /// Transient-error re-attempts performed by the retry layer, summed
    /// across all tier I/O engines.
    pub fn io_retries(&self) -> u64 {
        self.tiers.iter().map(|t| t.engine.retries()).sum()
    }

    /// Operations that ultimately failed (after retries), summed across
    /// all tier I/O engines.
    pub fn io_errors(&self) -> u64 {
        self.tiers.iter().map(|t| t.engine.op_errors()).sum()
    }

    /// Gathers the FP32 master parameters of every subgroup (reads through
    /// the storage tiers; used for verification).
    pub fn master_params(&self) -> io::Result<Vec<Vec<f32>>> {
        (0..self.subgroup_lens.len())
            .map(|idx| match self.place(idx)? {
                Place::Host(res) => Ok(res.params().to_vec()),
                Place::Tier(t) => {
                    let bytes = self.read_durable(t, idx, false)?;
                    expect_len("state", idx, bytes.len(), self.subgroup_lens[idx] * 12)?;
                    Ok(SubgroupState::from_bytes(&bytes, self.step)?.params)
                }
            })
            .collect()
    }

    /// Starts an asynchronous two-hop checkpoint through `pipe`: host-
    /// resident subgroups are submitted to the staging tier (the writes
    /// run on the I/O engine's workers while training continues),
    /// subgroups whose object-store upload is still current at this
    /// optimizer step are skipped entirely (incremental checkpointing),
    /// and tier-resident subgroups are *pre-staged* (§3.3): each is
    /// pinned on its own tier under
    /// [`CheckpointManifest::subgroup_key`] before this returns, so the
    /// next update's flush of the live key never reaches it.
    ///
    /// Refuses, before anything is written, an empty or multi-line `tag`
    /// (`InvalidInput`: the manifest could not carry it) and a cut
    /// taken while a failed update awaits its re-drive (some subgroups
    /// would carry this step's update and the rest the previous one).
    ///
    /// The returned [`PendingCheckpoint`] must be settled with
    /// [`CheckpointPipeline::drain`], which trickles the staged bytes to
    /// the object store, verifies, publishes the manifest, and prunes.
    pub fn start_checkpoint(
        &self,
        pipe: &CheckpointPipeline,
        tag: &str,
    ) -> io::Result<PendingCheckpoint> {
        CheckpointManifest::check_tag(tag)?;
        if self.in_progress.is_some() {
            return Err(io::Error::other(
                "checkpoint refused: a failed update phase awaits re-drive",
            ));
        }
        let started_ns = self.cfg.trace.now_ns();
        let mut entries = Vec::with_capacity(self.subgroup_lens.len());
        let mut pins = Vec::new();
        let mut stats = CheckpointStats::default();
        for idx in 0..self.subgroup_lens.len() {
            let bytes = self.subgroup_lens[idx] as u64 * 12;
            let location = match self.place(idx)? {
                Place::Host(resident) => match pipe.reusable_upload(idx, self.step) {
                    Some(key) => SubgroupLocation::Target { key },
                    None => {
                        stats.copied_bytes += bytes;
                        let staging_key = format!("ckptstage/{tag}/w{}/sub{idx}", self.worker_id);
                        let handle =
                            pipe.submit_flush(&staging_key, resident.state_bytes().to_vec());
                        entries.push(PendingEntry::Flushing {
                            idx,
                            staging_key,
                            bytes,
                            handle,
                        });
                        continue;
                    }
                },
                Place::Tier(tier) => {
                    let key = CheckpointManifest::subgroup_key(tag, self.worker_id, idx);
                    pins.push(self.tiers[tier].engine.submit_link(self.key(idx), &key));
                    SubgroupLocation::Prestaged { tier, key }
                }
            };
            stats.prestaged_bytes += bytes;
            entries.push(PendingEntry::Durable { idx, location });
        }
        for pin in pins {
            pin.wait()?;
        }
        Ok(PendingCheckpoint {
            tag: tag.to_string(),
            worker_id: self.worker_id,
            step: self.step,
            iter: self.ledger.iterations_done,
            entries,
            stats,
            started_ns,
            tiers: self.tiers.iter().map(|t| Arc::clone(&t.engine)).collect(),
        })
    }

    /// Rebuilds a worker engine from the checkpoint `tag` published
    /// through `target`, the pipeline's object-store I/O engine
    /// ([`CheckpointPipeline::restore`]). `shared_tiers` must be the same
    /// tier set: pre-staged subgroups are read from their pins on it.
    pub(crate) fn restore(
        cfg: EngineConfig,
        adam: AdamConfig,
        shared_tiers: &[SharedTier],
        worker_id: usize,
        target: &AioEngine,
        tag: &str,
    ) -> io::Result<Self> {
        // Every read goes through an I/O engine — the object store's, or a
        // pre-staged subgroup's tier's: its retry policy, deadline and breaker.
        let read = |io: &AioEngine, key: &str| {
            let missing = format!("read of checkpoint object {key} returned no payload");
            io.submit_read(key)
                .wait()?
                .ok_or_else(|| invariant_violation(missing))
        };
        let body = read(target, &CheckpointManifest::manifest_key(tag, worker_id))?;
        let manifest = CheckpointManifest::from_bytes(&body)?;
        let mut states = Vec::with_capacity(manifest.subgroups.len());
        let tier_io: Vec<AioEngine> = shared_tiers
            .iter()
            .map(|t| AioEngine::new(Arc::clone(&t.backend), t.aio.clone()))
            .collect();
        for loc in &manifest.subgroups {
            let bytes = match loc {
                SubgroupLocation::Target { key } => read(target, key)?,
                // The tier index is outside input: a corrupt or foreign
                // manifest can name a tier this run does not have.
                SubgroupLocation::Prestaged { tier, key } => tier_io
                    .get(*tier)
                    .ok_or_else(|| {
                        io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!(
                                "manifest places {key} on tier {tier}, but only {} tiers are configured",
                                shared_tiers.len()
                            ),
                        )
                    })
                    .and_then(|io| read(io, key))?,
            };
            states.push(SubgroupState::from_bytes(&bytes, manifest.step)?);
        }
        let mut engine = MlpFuncEngine::new(cfg, adam, shared_tiers, worker_id, states)?;
        engine.step = manifest.step;
        engine.ledger.iterations_done = manifest.iter;
        Ok(engine)
    }

    /// Where each subgroup's state lives right now (Fig. 10, functional
    /// mode).
    pub fn tier_distribution(&self) -> TierDistribution {
        self.ledger
            .tier_distribution(|idx| self.subgroup_lens[idx] as u64 * 12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_storage::MemBackend;
    use mlp_tensor::F16;

    fn tiers(n: usize) -> Vec<SharedTier> {
        (0..n)
            .map(|i| {
                SharedTier::new(
                    Arc::new(MemBackend::new(format!("mem{i}"))) as Arc<dyn Backend>,
                    (n - i) as f64, // descending weights, e.g. 2:1
                )
            })
            .collect()
    }

    fn init_states(subgroups: usize, len: usize) -> Vec<SubgroupState> {
        (0..subgroups)
            .map(|s| SubgroupState::new((0..len).map(|i| ((s * len + i) as f32).sin()).collect()))
            .collect()
    }

    fn grads_for(subgroups: usize, len: usize, seed: f32) -> Vec<Vec<u16>> {
        (0..subgroups)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        F16::from_f32(((s * len + i) as f32 * 0.01 + seed).cos() * 0.1).to_bits()
                    })
                    .collect()
            })
            .collect()
    }

    /// Reference: plain in-memory mixed-precision Adam over the same
    /// subgroups.
    fn reference_update(states: &mut [SubgroupState], adam: &AdamConfig, grads: &[Vec<u16>]) {
        for (st, g) in states.iter_mut().zip(grads) {
            st.apply_update_fp16(adam, g, 1.0);
        }
    }

    #[test]
    fn offloaded_training_matches_in_memory_reference() {
        let adam = AdamConfig::default();
        let mut reference = init_states(6, 40);
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(5),
            adam,
            &tiers(2),
            0,
            init_states(6, 40),
        )
        .unwrap();

        for it in 0..4 {
            let grads = grads_for(6, 40, it as f32);
            reference_update(&mut reference, &adam, &grads);
            engine.accumulate_gradients(&grads);
            engine.update().unwrap();
        }

        let got = engine.master_params().unwrap();
        for (idx, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(g, &r.params, "subgroup {idx} diverged");
        }
    }

    #[test]
    fn order_and_caching_do_not_change_results() {
        let adam = AdamConfig::default();
        let mut results = Vec::new();
        for (order, frames) in [
            (crate::policy::ordering::OrderPolicy::Ascending, 3),
            (crate::policy::ordering::OrderPolicy::Alternating, 3),
            (crate::policy::ordering::OrderPolicy::Alternating, 6),
            (crate::policy::ordering::OrderPolicy::Descending, 10),
        ] {
            let mut cfg = EngineConfig::mlp_offload().with_host_frames(frames);
            cfg.order = order;
            let mut engine =
                MlpFuncEngine::new(cfg, adam, &tiers(2), 0, init_states(5, 32)).unwrap();
            for it in 0..3 {
                engine.accumulate_gradients(&grads_for(5, 32, it as f32));
                engine.update().unwrap();
            }
            results.push(engine.master_params().unwrap());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0], "subgroup order/caching changed the math");
        }
    }

    #[test]
    fn adaptive_migration_is_bit_identical_to_the_static_plan() {
        let adam = AdamConfig::default();
        // Static twin: fixed 2:1 weights, no re-planning.
        let mut fixed = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(3),
            adam,
            &tiers(2),
            0,
            init_states(10, 24),
        )
        .unwrap();
        // Adaptive twin over deliberately mis-weighted tiers (8:1 while
        // both backends are equally fast memory): the live estimates
        // converge toward the real 1:1 split and the planner migrates
        // durable copies off the over-loaded tier.
        let mut shared = tiers(2);
        shared[0].weight = 8.0;
        shared[1].weight = 1.0;
        let trace = mlp_trace::TraceSink::enabled();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(3)
            .with_adaptive_replan(4)
            .with_trace(trace.clone());
        let mut adaptive = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(10, 24)).unwrap();

        for it in 0..6 {
            let grads = grads_for(10, 24, it as f32);
            fixed.accumulate_gradients(&grads);
            adaptive.accumulate_gradients(&grads);
            let a = fixed.update().unwrap();
            let b = adaptive.update().unwrap();
            assert_eq!(
                a.cache_hits, b.cache_hits,
                "iter {it}: migration broke the cache-hit guarantee"
            );
            assert_eq!(a.fp16_params, b.fp16_params, "iter {it}: results diverged");
        }
        assert_eq!(
            fixed.master_params().unwrap(),
            adaptive.master_params().unwrap(),
            "adaptive re-planning changed the math"
        );
        assert!(adaptive.planner_replans() >= 6, "planner never folded");
        assert!(
            adaptive.migrations_done() > 0,
            "skewed initial placement should trigger at least one migration"
        );

        // Planner decisions are exported as trace events: one replan
        // instant per adaptive iteration boundary (bytes = steps
        // scheduled), one migrate span per executed step.
        let events = trace.events();
        assert!(
            events.iter().any(|e| e.phase == Phase::Replan),
            "no replan events exported"
        );
        let migrate_spans = events.iter().filter(|e| e.phase == Phase::Migrate).count();
        assert_eq!(migrate_spans as u64, adaptive.migrations_done());
    }

    #[test]
    fn tier_split_does_not_change_results() {
        let adam = AdamConfig::default();
        let mut results = Vec::new();
        for n_tiers in [1usize, 2, 3] {
            let mut engine = MlpFuncEngine::new(
                EngineConfig::mlp_offload(),
                adam,
                &tiers(n_tiers),
                0,
                init_states(7, 16),
            )
            .unwrap();
            for it in 0..2 {
                engine.accumulate_gradients(&grads_for(7, 16, it as f32));
                engine.update().unwrap();
            }
            results.push(engine.master_params().unwrap());
        }
        for r in &results[1..] {
            assert_eq!(r, &results[0]);
        }
    }

    #[test]
    fn cache_hits_appear_from_second_iteration() {
        let adam = AdamConfig::default();
        // Subgroups rest in all 5 host frames between update phases.
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(5),
            adam,
            &tiers(1),
            0,
            init_states(8, 8),
        )
        .unwrap();
        engine.accumulate_gradients(&grads_for(8, 8, 0.0));
        let o0 = engine.update().unwrap();
        assert_eq!(o0.cache_hits, 0);
        engine.accumulate_gradients(&grads_for(8, 8, 1.0));
        let o1 = engine.update().unwrap();
        assert_eq!(o1.cache_hits, 5, "retained tail reused after order flip");
        assert_eq!(o1.fetches, 3);
    }

    #[test]
    fn hits_follow_the_closed_form_under_the_deeper_window() {
        use crate::policy::ordering::OrderPolicy;
        // Shards a free pool (8 buffers and up) could swallow whole among
        // them: the window may run that deep, but a repeating scan must
        // still find its retained tail evicted when it gets there (§3.1's
        // thrash, 0 hits), exactly as the virtual-time engine does at
        // `MIN_PIPELINE_FRAMES` of lookahead. Subgroups rest in every host
        // frame, so the budget is `frames`, and `m = frames + 3` is the
        // deepest scan the closed form still covers.
        for order in [
            OrderPolicy::Ascending,
            OrderPolicy::Alternating,
            OrderPolicy::Descending,
        ] {
            for (m, frames) in [(9usize, 6usize), (12, 9), (19, 16), (7, 3), (6, 12)] {
                let mut cfg = EngineConfig::mlp_offload().with_host_frames(frames);
                cfg.order = order;
                let adam = AdamConfig::default();
                let mut engine =
                    MlpFuncEngine::new(cfg, adam, &tiers(2), 0, init_states(m, 8)).unwrap();
                for iter in 0..4u64 {
                    engine.accumulate_gradients(&grads_for(m, 8, iter as f32));
                    let outcome = engine.update().unwrap();
                    assert_eq!(
                        outcome.cache_hits,
                        order.expected_hits(iter, m, frames),
                        "{order:?} m={m} frames={frames} iter={iter}"
                    );
                    assert_eq!(outcome.cache_hits + outcome.fetches, m);
                }
            }
        }
    }

    #[test]
    fn gradient_accumulation_sums_micro_steps() {
        let adam = AdamConfig::default();
        // Two micro-steps of g vs one micro-step of 2g must agree (values
        // chosen exactly representable in FP16).
        let g1: Vec<Vec<u16>> = vec![vec![F16::from_f32(0.25).to_bits(); 8]];
        let g2: Vec<Vec<u16>> = vec![vec![F16::from_f32(0.5).to_bits(); 8]];

        let mut a = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            adam,
            &tiers(1),
            0,
            init_states(1, 8),
        )
        .unwrap();
        a.accumulate_gradients(&g1);
        a.accumulate_gradients(&g1);
        a.update().unwrap();

        let mut b = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            adam,
            &tiers(1),
            0,
            init_states(1, 8),
        )
        .unwrap();
        b.accumulate_gradients(&g2);
        b.update().unwrap();

        assert_eq!(a.master_params().unwrap(), b.master_params().unwrap());

        // Two micro-steps of *different* gradients (the first is stored,
        // the second added), two iterations (the accumulator stores again
        // after its reset), −0 and a subnormal among them: bit-identical
        // to the never-offloaded reference fed the sum accumulated
        // sequentially, one widen-add-narrow per micro-step.
        let micro_step = |seed: f32| {
            let mut g = grads_for(3, 8, seed);
            g[0][0] = 0x8000; // −0
            g[1][1] = 0x0003; // subnormal
            g[2][2] = 0x83FF; // the largest negative subnormal: two sum to a normal
            g
        };
        let add = |acc: u16, g: u16| F16::from_f32(F16(acc).to_f32() + F16(g).to_f32()).to_bits();
        let mut reference = init_states(3, 8);
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(2),
            adam,
            &tiers(2),
            0,
            init_states(3, 8),
        )
        .unwrap();
        for it in 0..2 {
            let (first, second) = (micro_step(it as f32), micro_step(it as f32 + 0.5));
            engine.accumulate_gradients(&first);
            engine.accumulate_gradients(&second);
            engine.update().unwrap();
            let sum: Vec<Vec<u16>> = first
                .iter()
                .zip(&second)
                .map(|(f, s)| f.iter().zip(s).map(|(&f, &s)| add(add(0, f), s)).collect())
                .collect();
            reference_update(&mut reference, &adam, &sum);
        }
        for (got, want) in engine.master_params().unwrap().iter().zip(&reference) {
            let bits = |p: &[f32]| p.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got), bits(&want.params));
        }
    }

    #[test]
    fn inv_loss_scale_is_applied() {
        let adam = AdamConfig::default();
        let g_scaled: Vec<Vec<u16>> = vec![vec![F16::from_f32(1.0).to_bits(); 4]];
        let g_plain: Vec<Vec<u16>> = vec![vec![F16::from_f32(0.5).to_bits(); 4]];

        let mut a = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            adam,
            &tiers(1),
            0,
            init_states(1, 4),
        )
        .unwrap();
        a.set_inv_loss_scale(0.5);
        a.accumulate_gradients(&g_scaled);
        a.update().unwrap();

        let mut b = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            adam,
            &tiers(1),
            0,
            init_states(1, 4),
        )
        .unwrap();
        b.accumulate_gradients(&g_plain);
        b.update().unwrap();

        assert_eq!(a.master_params().unwrap(), b.master_params().unwrap());
    }

    #[test]
    fn fused_hot_loop_recycles_state_buffers_without_allocating() {
        let adam = AdamConfig::default();
        let subgroups = 12;
        let iters = 5u64;
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(5),
            adam,
            &tiers(2),
            0,
            init_states(subgroups, 16),
        )
        .unwrap();
        // Population serialized each subgroup into a pooled frame.
        let (populated, _, _) = engine.state_pool_stats();
        assert_eq!(populated, subgroups as u64);
        let mut fetched = 0u64;
        for it in 0..iters {
            engine.accumulate_gradients(&grads_for(subgroups, 16, it as f32));
            fetched += engine.update().unwrap().fetches as u64;
        }
        let (acquires, high_water, capacity) = engine.state_pool_stats();
        // Every fetch acquired a staging buffer from the pool...
        assert_eq!(acquires - populated, fetched, "one pooled acquire per fetch");
        assert!(acquires > capacity as u64, "enough traffic to prove reuse");
        // ...while the working set never exceeded the fixed pool: the hot
        // fetch → fused-update → flush loop allocated zero state buffers.
        assert!(
            high_water <= capacity,
            "high water {high_water} within pool capacity {capacity}"
        );
        // Steady state: only the retained residents still hold buffers.
        assert_eq!(engine.state_pool.outstanding(), engine.resident_count());
    }

    /// Touches per byte through a memory-class tier: a steady-state
    /// iteration copies each fetched subgroup once (the durable copy must
    /// stay on the tier) and copies nothing on flush — a whole staging
    /// frame trades places with the object it displaces. A subgroup
    /// shorter than the frame cannot trade and is copied, as before.
    #[test]
    fn steady_state_flushes_exchange_frames_and_fetches_copy_once() {
        use mlp_storage::MemTouches;
        const LEN: usize = 48;
        let adam = AdamConfig::default();
        for short_last in [false, true] {
            let mut initial = init_states(8, LEN);
            if short_last {
                let last = initial.last_mut().unwrap();
                *last = SubgroupState::new(last.params[..LEN / 3].to_vec());
            }
            let lens: Vec<usize> = initial.iter().map(SubgroupState::len).collect();
            let grads_at = |it: usize| -> Vec<Vec<u16>> {
                let mut grads = grads_for(8, LEN, it as f32);
                for (g, &n) in grads.iter_mut().zip(&lens) {
                    g.truncate(n);
                }
                grads
            };
            let mems: Vec<Arc<MemBackend>> = (0..2)
                .map(|i| Arc::new(MemBackend::new(format!("mem{i}"))))
                .collect();
            let shared: Vec<SharedTier> = mems
                .iter()
                .map(|m| SharedTier::new(Arc::clone(m) as Arc<dyn Backend>, 1.0))
                .collect();
            let touches = || -> MemTouches {
                let (a, b) = (mems[0].touches(), mems[1].touches());
                MemTouches {
                    write_copied_bytes: a.write_copied_bytes + b.write_copied_bytes,
                    read_copied_bytes: a.read_copied_bytes + b.read_copied_bytes,
                    exchanged_frames: a.exchanged_frames + b.exchanged_frames,
                }
            };
            // The split is pinned: adaptive estimates are wall-clock.
            let cfg = EngineConfig::mlp_offload()
                .with_host_frames(5)
                .with_tier_ratio(vec![2.0, 1.0]);
            let mut reference = initial.clone();
            let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, initial).unwrap();
            let pool = engine.state_pool_stats();
            // Two cycles of the alternating order: by then every subgroup
            // has an object on each tier its flushes ever pick.
            for it in 0..4 {
                let grads = grads_at(it);
                reference_update(&mut reference, &adam, &grads);
                engine.accumulate_gradients(&grads);
                engine.update().unwrap();
            }

            // One more cycle, counted.
            let before = touches();
            let (mut fetches, mut flushes) = (0u64, 0u64);
            for it in 4..6 {
                let grads = grads_at(it);
                reference_update(&mut reference, &adam, &grads);
                engine.accumulate_gradients(&grads);
                let outcome = engine.update().unwrap();
                assert!(outcome.fetches > 0 && outcome.flushes > 0);
                fetches += outcome.fetches as u64;
                flushes += outcome.flushes as u64;
            }
            let after = touches();
            let read = after.read_copied_bytes - before.read_copied_bytes;
            let copied = after.write_copied_bytes - before.write_copied_bytes;
            let exchanged = after.exchanged_frames - before.exchanged_frames;
            if short_last {
                // Only the short subgroup's flushes copy, 12 n bytes each.
                let short_bytes = 12 * lens[7] as u64;
                assert!(copied > 0 && copied % short_bytes == 0, "{copied} bytes copied");
                assert_eq!(exchanged + copied / short_bytes, flushes);
            } else {
                assert_eq!((copied, exchanged), (0, flushes));
                assert_eq!(read, fetches * 12 * LEN as u64);
            }

            // Exchanged frames keep the pool whole, and the bits right.
            let (_, high_water, capacity) = engine.state_pool_stats();
            assert_eq!(capacity, pool.2);
            assert!(high_water <= capacity);
            assert_eq!(engine.state_pool_outstanding(), engine.resident_count());
            let got = engine.master_params().unwrap();
            for (idx, (g, r)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g, &r.params, "subgroup {idx} diverged");
            }
        }
    }

    #[test]
    fn checkpoint_round_trips_pooled_residents() {
        let (adam, cfg, shared) = (
            AdamConfig::default(),
            EngineConfig::mlp_offload().with_host_frames(6),
            tiers(2),
        );
        let mut engine =
            MlpFuncEngine::new(cfg.clone(), adam, &shared, 0, init_states(5, 24)).unwrap();
        for it in 0..3 {
            engine.accumulate_gradients(&grads_for(5, 24, it as f32));
            engine.update().unwrap();
        }
        let mem = |name| Arc::new(MemBackend::new(name)) as Arc<dyn Backend>;
        let mut pipe =
            CheckpointPipeline::new(mem("stage"), mem("ckpt"), mlp_trace::TraceSink::disabled());
        pipe.checkpoint(&engine, "t0").unwrap();
        let restored = pipe.restore(cfg, adam, &shared, 0, "t0").unwrap();
        assert_eq!(
            restored.master_params().unwrap(),
            engine.master_params().unwrap()
        );
    }

    #[test]
    fn permanent_fault_unwinds_cleanly_and_update_is_redrivable() {
        use mlp_storage::{classify, ErrorClass, FaultConfig, FaultInjectBackend};
        let adam = AdamConfig::default();
        // Twin engines: a fault-free reference, and one whose every
        // tier is wrapped in a (initially disarmed) fault injector
        // that fails every op permanently once armed.
        let faults: Vec<Arc<FaultInjectBackend>> = (0..2)
            .map(|i| {
                let inject = FaultInjectBackend::new(
                    Arc::new(MemBackend::new(format!("mem{i}"))) as Arc<dyn Backend>,
                    FaultConfig::permanent(11, 1.0),
                );
                inject.set_armed(false);
                Arc::new(inject)
            })
            .collect();
        let faulty_tiers: Vec<SharedTier> = faults
            .iter()
            .enumerate()
            .map(|(i, f)| {
                SharedTier::new(Arc::clone(f) as Arc<dyn Backend>, (2 - i) as f64)
            })
            .collect();
        // 3 host frames over 6 subgroups → 3 retained residents, so the
        // failure exercises cache hits, fetches, and flush reclamation at
        // once.
        let cfg = EngineConfig::mlp_offload().with_host_frames(3);
        let mut reference =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(2), 0, init_states(6, 24)).unwrap();
        let mut engine =
            MlpFuncEngine::new(cfg, adam, &faulty_tiers, 0, init_states(6, 24)).unwrap();

        // Two clean iterations warm the host cache.
        for it in 0..2 {
            let grads = grads_for(6, 24, it as f32);
            reference.accumulate_gradients(&grads);
            reference.update().unwrap();
            engine.accumulate_gradients(&grads);
            engine.update().unwrap();
        }

        // The third iteration runs into permanently failing tiers: it
        // must surface a typed permanent error — no panic, no hang —
        // with every staging buffer back in the pool.
        let grads = grads_for(6, 24, 2.0);
        reference.accumulate_gradients(&grads);
        let want = reference.update().unwrap();
        engine.accumulate_gradients(&grads);
        for f in &faults {
            f.set_armed(true);
        }
        let err = engine.update().unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
        assert!(engine.update_in_progress());
        assert!(engine.io_errors() > 0);
        assert_eq!(
            engine.state_pool_outstanding(),
            engine.resident_count(),
            "only resident subgroups may hold staging buffers"
        );

        // Heal the tiers and re-drive the same iteration: the result
        // must be bit-identical to the run that never failed.
        for f in &faults {
            f.set_armed(false);
        }
        let got = engine.update().unwrap();
        assert!(!engine.update_in_progress());
        assert_eq!(
            got.fp16_params, want.fp16_params,
            "re-driven iteration diverged"
        );
        assert_eq!(
            engine.master_params().unwrap(),
            reference.master_params().unwrap(),
            "master state diverged after re-drive"
        );
    }

    #[test]
    fn quarantined_tier_drains_and_training_completes_without_it() {
        use mlp_storage::{
            classify, ErrorClass, FaultConfig, FaultInjectBackend, FaultOps, HealthConfig,
        };
        let adam = AdamConfig::default();
        // Reference: the identical run over only the surviving tier.
        // A small host cache and a shard three times the staging pool
        // (8 buffers: the pipeline pulls at most that many subgroups
        // host-side before the write fault fires, and the reclaim keeps
        // them there) leave most durable copies on the tiers, so the
        // dying tier actually holds state worth draining.
        const SHARD: usize = 24;
        let cfg = EngineConfig::mlp_offload().with_host_frames(3);
        let mut reference =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(SHARD, 24)).unwrap();

        // Tier 0 dies for writes mid-run; reads keep working (the
        // salvage path). Hair-trigger breaker: one post-retry
        // failure latches quarantine.
        let inject = Arc::new(FaultInjectBackend::new(
            Arc::new(MemBackend::new("dying")) as Arc<dyn Backend>,
            FaultConfig::permanent(11, 1.0).with_ops(FaultOps::WritesOnly),
        ));
        inject.set_armed(false);
        let health = TierHealth::new("dying", HealthConfig::hair_trigger());
        let victim = SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 2.0)
            .with_health(Arc::clone(&health));
        let survivor = SharedTier::new(
            Arc::new(MemBackend::new("survivor")) as Arc<dyn Backend>,
            1.0,
        );
        let mut engine =
            MlpFuncEngine::new(cfg, adam, &[victim, survivor], 0, init_states(SHARD, 24)).unwrap();

        // Two clean iterations warm the cache and spread durable
        // copies across both tiers; then the tier dies mid-run.
        for it in 0..2 {
            let grads = grads_for(SHARD, 24, it as f32);
            reference.accumulate_gradients(&grads);
            reference.update().unwrap();
            engine.accumulate_gradients(&grads);
            engine.update().unwrap();
        }
        let grads = grads_for(SHARD, 24, 2.0);
        reference.accumulate_gradients(&grads);
        reference.update().unwrap();
        engine.accumulate_gradients(&grads);
        inject.set_armed(true);
        let err = engine.update().unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
        assert!(
            health.is_quarantined(),
            "one write failure must latch the hair-trigger breaker"
        );

        // The re-drive notices the quarantine, evacuates every
        // durable copy off the dead tier, and completes the same
        // iteration — with the tier still failing every write.
        engine.update().unwrap();
        assert_eq!(engine.quarantined_tiers(), vec![0]);
        assert!(engine.drains_done() > 0, "nothing was drained");

        // Two more full iterations entirely without the tier.
        for it in 3..5 {
            let grads = grads_for(SHARD, 24, it as f32);
            reference.accumulate_gradients(&grads);
            reference.update().unwrap();
            engine.accumulate_gradients(&grads);
            engine.update().unwrap();
        }
        assert_eq!(
            engine.tier_distribution().tier_bytes[0],
            0,
            "a subgroup still lives on the quarantined tier"
        );
        assert_eq!(
            engine.master_params().unwrap(),
            reference.master_params().unwrap(),
            "degraded run diverged from the run without the tier"
        );
    }

    /// A memory tier that, once `armed`, fails the writes of worker 0's
    /// `doomed` subgroups: at once, or — failing `together` — only when
    /// all of them have arrived, as flushes to a device that times out
    /// fail late and all at the same time.
    struct DoomedWrites {
        inner: MemBackend,
        armed: std::sync::atomic::AtomicBool,
        doomed: Vec<String>,
        together: bool,
        arrived: std::sync::Mutex<usize>,
        all_arrived: std::sync::Condvar,
        /// Writes that went through.
        written: std::sync::atomic::AtomicUsize,
    }

    impl DoomedWrites {
        fn new(doomed: std::ops::Range<usize>, together: bool) -> Arc<Self> {
            Self::of("sub", doomed, together)
        }

        /// Dooms the subgroups' `object`s: `sub` (state) or `grad`.
        fn of(object: &str, doomed: std::ops::Range<usize>, together: bool) -> Arc<Self> {
            Arc::new(DoomedWrites {
                inner: MemBackend::new("doomed"),
                armed: false.into(),
                doomed: doomed.map(|idx| format!("w0/{object}{idx}")).collect(),
                together,
                arrived: 0.into(),
                all_arrived: Default::default(),
                written: 0.into(),
            })
        }

        fn written(&self) -> usize {
            self.written.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn arm(&self, armed: bool) {
            self.armed.store(armed, std::sync::atomic::Ordering::SeqCst);
        }
    }

    impl Backend for DoomedWrites {
        fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
            let armed = self.armed.load(std::sync::atomic::Ordering::SeqCst);
            if !armed || !self.doomed.iter().any(|k| k == key) {
                self.inner.write(key, data)?;
                self.written.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                return Ok(());
            }
            if self.together {
                let mut arrived = self.arrived.lock().unwrap();
                *arrived += 1;
                self.all_arrived.notify_all();
                // The timeout only keeps a broken engine from hanging the
                // suite: the assertions after the pass catch it.
                let patience = std::time::Duration::from_secs(10);
                let _all = self
                    .all_arrived
                    .wait_timeout_while(arrived, patience, |n| *n < self.doomed.len())
                    .unwrap();
            }
            Err(io::Error::new(
                io::ErrorKind::PermissionDenied,
                format!("{key}: device gone"),
            ))
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

    /// One iteration on a fault-free twin and on the engine under test,
    /// from the same gradients.
    fn iterate_both(
        twin: &mut MlpFuncEngine,
        engine: &mut MlpFuncEngine,
        seed: f32,
    ) -> (UpdateOutcome, io::Result<UpdateOutcome>) {
        let grads = grads_for(twin.num_subgroups(), 24, seed);
        twin.accumulate_gradients(&grads);
        engine.accumulate_gradients(&grads);
        (twin.update().unwrap(), engine.update())
    }

    #[test]
    fn dead_tier_fails_the_pass_within_a_pool_of_flushes_and_the_redrive_is_exact() {
        use mlp_storage::{classify, ErrorClass};
        const SHARD: usize = 64;
        let adam = AdamConfig::default();
        // 19 retained frames: 45 flushes per steady-state iteration
        // through a pool of 24. The third iteration runs in ascending
        // order, so its 21st flush and every later one is doomed.
        let cfg = EngineConfig::mlp_offload().with_host_frames(19);
        let dying = DoomedWrites::new(20..SHARD, false);
        let tier = SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 1.0);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(SHARD, 24)).unwrap();
        let mut engine = MlpFuncEngine::new(cfg, adam, &[tier], 0, init_states(SHARD, 24)).unwrap();
        for it in 0..2 {
            iterate_both(&mut twin, &mut engine, it as f32).1.unwrap();
        }

        // Each failed flush keeps its staging buffer for the reclaim, so
        // the pool bounds how many can be submitted unnoticed — and the
        // pass notices sooner than that, at a subgroup boundary.
        dying.arm(true);
        let (want, failed_pass) = iterate_both(&mut twin, &mut engine, 2.0);
        let err = failed_pass.unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
        let (_, _, capacity) = engine.state_pool_stats();
        let failed = engine.io_errors();
        assert!(
            0 < failed && failed < capacity as u64,
            "{failed} flushes went to the dead tier before the pass noticed (pool of {capacity})"
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());

        // Healed, the re-drive finishes the same iteration exactly.
        dying.arm(false);
        let got = engine.update().unwrap();
        assert_eq!(
            got.fp16_params, want.fp16_params,
            "re-driven iteration diverged"
        );
        for it in 3..5 {
            let (want, got) = iterate_both(&mut twin, &mut engine, it as f32);
            let got = got.unwrap();
            assert_eq!(
                (got.cache_hits, got.fetches, got.flushes),
                (want.cache_hits, want.fetches, want.flushes),
                "iteration {it}"
            );
        }
        assert_eq!(
            engine.master_params().unwrap(),
            twin.master_params().unwrap()
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());
    }

    #[test]
    fn dead_tier_fails_the_gradient_flush_typed_and_the_reflush_moves_what_is_missing() {
        use mlp_storage::{classify, ErrorClass};
        const SHARD: usize = 64;
        let adam = AdamConfig::default();
        // The eager-gradient path: 64 tier-resident subgroups, each with a
        // gradient object to flush, through a pool of 14 staging buffers.
        let cfg = EngineConfig::deepspeed_zero3();
        let dying = DoomedWrites::of("grad", 0..SHARD, false);
        let tier = SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 1.0);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(SHARD, 24)).unwrap();
        let mut engine = MlpFuncEngine::new(cfg, adam, &[tier], 0, init_states(SHARD, 24)).unwrap();
        let (_, _, capacity) = engine.state_pool_stats();
        assert!(capacity < SHARD, "a pool of {capacity} cannot hold every failed flush");

        let grads = grads_for(SHARD, 24, 0.0);
        twin.accumulate_gradients(&grads);
        twin.flush_gradients().unwrap();
        let want = twin.update().unwrap();

        // Every gradient write fails and a failed flush keeps its staging
        // buffer until it is settled: the phase must settle as it goes.
        // On its own thread, so that waiting on the pool shows as a
        // timeout here instead of hanging the suite.
        engine.accumulate_gradients(&grads);
        dying.arm(true);
        let before = dying.written();
        let (done, phase) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let flushed = engine.flush_gradients();
            let _ = done.send((engine, flushed));
        });
        let (mut engine, flushed) = phase
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("flush_gradients is waiting for a buffer nothing will return");
        let err = flushed.unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
        assert_eq!(engine.io_errors(), SHARD as u64);
        assert_eq!(dying.written(), before);
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());

        // Healed, a second call moves exactly the objects that are missing
        // (a third none), out of the untouched accumulators.
        dying.arm(false);
        engine.flush_gradients().unwrap();
        assert_eq!(dying.written(), before + SHARD - engine.resident_count());
        engine.flush_gradients().unwrap();
        assert_eq!(dying.written(), before + SHARD - engine.resident_count());
        let got = engine.update().unwrap();
        assert_eq!(got.fp16_params, want.fp16_params);
        assert_eq!(
            engine.grad_bytes_through_storage(),
            twin.grad_bytes_through_storage()
        );
        assert_eq!(
            engine.master_params().unwrap(),
            twin.master_params().unwrap()
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());
    }

    #[test]
    fn an_update_with_no_micro_step_since_the_last_applies_zero_gradients() {
        let adam = AdamConfig::default();
        // Both kinds of host accumulator, neither swept between updates.
        for cfg in [
            EngineConfig::mlp_offload().with_host_frames(5),
            EngineConfig::deepspeed_zero3(),
        ] {
            let mut reference = init_states(6, 40);
            let mut engine = MlpFuncEngine::new(cfg, adam, &tiers(2), 0, init_states(6, 40)).unwrap();
            let zeros = vec![vec![0u16; 40]; 6];
            for (it, grads) in [Some(grads_for(6, 40, 0.0)), None, None, Some(grads_for(6, 40, 3.0))]
                .into_iter()
                .enumerate()
            {
                if let Some(grads) = &grads {
                    engine.accumulate_gradients(grads);
                }
                // The eager path flushes what the update then fetches: with
                // no micro-step that must be zeros too, not the last
                // iteration's gradients.
                engine.flush_gradients().unwrap();
                engine.update().unwrap();
                reference_update(&mut reference, &adam, grads.as_ref().unwrap_or(&zeros));
                for (idx, (got, want)) in engine.master_params().unwrap().iter().zip(&reference).enumerate() {
                    assert_eq!(got, &want.params, "iteration {it}, subgroup {idx}");
                }
            }
        }
    }

    #[test]
    fn reclaimed_residents_holding_the_whole_pool_are_evicted_not_waited_for() {
        const SHARD: usize = 12;
        let adam = AdamConfig::default();
        // No retention: a pool of 8, every subgroup flushed every
        // iteration. The third iteration runs in ascending order; its
        // first four flushes succeed and its last eight — a pool's worth
        // — fail together, so the final drain reclaims all of them and
        // the residents hold every staging buffer while the re-drive's
        // first subgroup sits on the tier.
        let mut cfg = EngineConfig::mlp_offload().with_host_frames(3);
        cfg.cache_retention = false;
        let device = DoomedWrites::new(4..SHARD, true);
        // A worker per blocked write and then some: the reads must get by.
        let aio = AioConfig {
            workers: 16,
            ..AioConfig::deterministic()
        };
        let tier = SharedTier::new(Arc::clone(&device) as Arc<dyn Backend>, 1.0).with_aio(aio);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(SHARD, 24)).unwrap();
        let mut engine = MlpFuncEngine::new(cfg, adam, &[tier], 0, init_states(SHARD, 24)).unwrap();
        for it in 0..2 {
            iterate_both(&mut twin, &mut engine, it as f32).1.unwrap();
        }
        device.arm(true);
        let (want, failed_pass) = iterate_both(&mut twin, &mut engine, 2.0);
        failed_pass.unwrap_err();
        let (_, _, capacity) = engine.state_pool_stats();
        assert_eq!(capacity, 8);
        assert_eq!(
            engine.resident_count(),
            capacity,
            "every failed flush is reclaimed"
        );
        assert_eq!(
            engine.state_pool_outstanding(),
            capacity,
            "no staging buffer is free"
        );

        // The re-drive must fetch subgroup 0 first: nothing is in flight
        // and nothing is staged, so only an eviction can free a buffer.
        device.arm(false);
        let got = engine.update().unwrap();
        assert_eq!(
            got.fp16_params, want.fp16_params,
            "re-driven iteration diverged"
        );
        iterate_both(&mut twin, &mut engine, 3.0).1.unwrap();
        assert_eq!(
            engine.master_params().unwrap(),
            twin.master_params().unwrap()
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());
    }

    #[test]
    fn tail_flushes_overlap_tail_fetches_and_the_window_runs_as_deep_as_the_pool() {
        use crate::policy::cache::MIN_PIPELINE_FRAMES;
        const SHARD: usize = 16;
        let adam = AdamConfig::default();
        // 768-byte subgroups at 128 kB/s: 6 ms per fetch and per flush,
        // orders of magnitude above the kernel and the bookkeeping, on
        // two workers per tier.
        let slow_tiers = |n: usize| -> Vec<SharedTier> {
            (0..n)
                .map(|i| {
                    let medium = MemBackend::throttled(format!("slow{i}"), 128e3, 128e3);
                    SharedTier::new(Arc::new(medium) as Arc<dyn Backend>, 1.0)
                        .with_aio(AioConfig::deterministic())
                })
                .collect()
        };
        let trace = mlp_trace::TraceSink::enabled();
        // A quarter of the shard rests in the host frames.
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(SHARD / 4)
            .with_tier_ratio(vec![1.0, 1.0])
            .with_trace(trace.clone());
        let mut engine =
            MlpFuncEngine::new(cfg, adam, &slow_tiers(2), 0, init_states(SHARD, 64)).unwrap();
        for it in 0..3 {
            engine.accumulate_gradients(&grads_for(SHARD, 64, it as f32));
            engine.update().unwrap();
        }
        trace.events(); // keep the steady-state iteration only
        engine.accumulate_gradients(&grads_for(SHARD, 64, 3.0));
        let outcome = engine.update().unwrap();
        assert_eq!(
            (outcome.cache_hits, outcome.fetches, outcome.flushes),
            (SHARD / 4, SHARD - SHARD / 4, SHARD - SHARD / 4)
        );
        let events = trace.events();
        let of = |phase: Phase| events.iter().filter(move |e| e.phase == phase);

        // The last flush is under way before the last fetch is over: the
        // evictions left when the order made them certain, not after the
        // retained tail had been fetched.
        let last_write_begins = of(Phase::AioWrite).map(|e| e.ts_ns).max().unwrap();
        let last_read_ends = of(Phase::AioRead).map(|e| e.end_ns()).max().unwrap();
        assert!(
            last_write_begins < last_read_ends,
            "last flush began {} ns after the last fetch ended",
            last_write_begins - last_read_ends
        );

        // Reads outstanding — submitted (every state-pool acquire here is
        // a fetch) and not completed — as each new one is submitted: the
        // window is deeper than its floor.
        let mut read_ends: Vec<u64> = of(Phase::AioRead).map(|e| e.end_ns()).collect();
        read_ends.sort_unstable();
        let mut submits: Vec<u64> = of(Phase::PoolAcquire).map(|e| e.ts_ns).collect();
        submits.sort_unstable();
        assert_eq!(submits.len(), outcome.fetches);
        let deepest = submits
            .iter()
            .enumerate()
            .map(|(k, &at)| k + 1 - read_ends.partition_point(|&end| end <= at))
            .max()
            .unwrap();
        assert!(
            deepest > MIN_PIPELINE_FRAMES,
            "at most {deepest} reads were ever outstanding"
        );
        let (_, high_water, capacity) = engine.state_pool_stats();
        assert!(
            high_water <= capacity,
            "{high_water} buffers out of a pool of {capacity}"
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());

        // The eager-gradient rung prefetches two buffers per subgroup;
        // the deeper window must not ask the pool for more than it has
        // (it would wait forever: nothing else returns buffers).
        let mut baseline = MlpFuncEngine::new(
            EngineConfig::deepspeed_zero3(),
            adam,
            &slow_tiers(1),
            0,
            init_states(SHARD, 64),
        )
        .unwrap();
        for it in 0..2 {
            baseline.accumulate_gradients(&grads_for(SHARD, 64, it as f32));
            baseline.flush_gradients().unwrap();
            let outcome = baseline.update().unwrap();
            assert_eq!((outcome.fetches, outcome.flushes), (SHARD, SHARD));
        }
        let (_, high_water, capacity) = baseline.state_pool_stats();
        assert!(
            high_water <= capacity,
            "{high_water} buffers out of a pool of {capacity}"
        );
        assert_eq!(baseline.state_pool_outstanding(), 0);
    }

    #[test]
    fn all_tiers_quarantined_surfaces_a_typed_error() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, HealthConfig};
        let adam = AdamConfig::default();
        let inject = Arc::new(FaultInjectBackend::new(
            Arc::new(MemBackend::new("only")) as Arc<dyn Backend>,
            FaultConfig::permanent(7, 1.0),
        ));
        inject.set_armed(false);
        let health = TierHealth::new("only", HealthConfig::hair_trigger());
        let tier = SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 1.0)
            .with_health(Arc::clone(&health));
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(2),
            adam,
            &[tier],
            0,
            init_states(3, 8),
        )
        .unwrap();
        engine.accumulate_gradients(&grads_for(3, 8, 0.0));
        inject.set_armed(true);
        // The iteration fails on the dead tier and the breaker latches.
        assert!(engine.update().is_err());
        assert!(health.is_quarantined());
        // With no surviving tier to drain to, every subsequent update is
        // a typed error — never a panic, never a hang.
        let err = engine.update().unwrap_err();
        assert!(err.to_string().contains("quarantined"), "{err}");
        assert!(engine.update().is_err());
    }

    /// The drain's salvage I/O goes through the quarantined tier's own
    /// I/O engine, so its deadline holds there too: a tier whose reads
    /// hang fails `update()` with a typed `TimedOut` within a few
    /// deadlines instead of stalling the drain for as long as the tier
    /// does. The scenario runs on a thread under a harness timeout, so
    /// a drain that ignores the deadline fails the test, not hangs it.
    #[test]
    fn drain_salvage_read_honours_the_deadline() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, FaultOps, HealthConfig};
        use std::time::{Duration, Instant};
        const DEADLINE: Duration = Duration::from_millis(100);
        let (tx, rx) = std::sync::mpsc::channel();
        let scenario = std::thread::spawn(move || {
            let stall = Arc::new(FaultInjectBackend::new(
                Arc::new(MemBackend::new("hung")) as Arc<dyn Backend>,
                FaultConfig::none(9)
                    .with_latency_spikes(1.0, Duration::from_secs(1))
                    .with_ops(FaultOps::ReadsOnly),
            ));
            stall.set_armed(false);
            let health = TierHealth::new("hung", HealthConfig::default());
            let aio = AioConfig {
                deadline: Some(DEADLINE),
                ..AioConfig::default()
            };
            let victim = SharedTier::new(Arc::clone(&stall) as Arc<dyn Backend>, 2.0)
                .with_aio(aio)
                .with_health(Arc::clone(&health));
            let survivor =
                SharedTier::new(Arc::new(MemBackend::new("ok")) as Arc<dyn Backend>, 1.0);
            let cfg = EngineConfig::mlp_offload().with_host_frames(3);
            let mut engine = MlpFuncEngine::new(
                cfg,
                AdamConfig::default(),
                &[victim, survivor],
                0,
                init_states(12, 24),
            )
            .unwrap();
            engine.accumulate_gradients(&grads_for(12, 24, 0.0));
            engine.update().unwrap();
            // Quarantined, with durable copies still on it whose reads
            // now hang far past the deadline.
            health.quarantine();
            stall.set_armed(true);
            engine.accumulate_gradients(&grads_for(12, 24, 1.0));
            let t0 = Instant::now();
            let result = engine.update().map(|_| ());
            let _ = tx.send((result, t0.elapsed()));
        });
        let (result, took) = rx
            .recv_timeout(20 * DEADLINE)
            .expect("no result from update() within 20 deadlines");
        scenario.join().expect("scenario thread");
        let err = result.expect_err("a timed-out salvage read cannot complete the drain");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(took < 10 * DEADLINE, "update() took {took:?}");
    }

    #[test]
    fn no_tiers_is_a_typed_error() {
        let err = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            AdamConfig::default(),
            &[],
            0,
            init_states(2, 4),
        )
        .err()
        .expect("an engine without tiers cannot offload anything");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn a_tier_without_io_workers_is_a_typed_error() {
        let aio = AioConfig {
            workers: 0,
            ..AioConfig::deterministic()
        };
        let idle = SharedTier::new(Arc::new(MemBackend::new("idle")) as Arc<dyn Backend>, 1.0)
            .with_aio(aio);
        let err = MlpFuncEngine::new(
            EngineConfig::mlp_offload(),
            AdamConfig::default(),
            &[idle],
            0,
            init_states(2, 4),
        )
        .err()
        .expect("no worker can offload the initial state");
        assert!(err.to_string().contains("backend idle"), "{err}");
    }

    #[test]
    fn tier_ratio_of_the_wrong_length_is_a_typed_error() {
        // What `from_deepspeed_json` would hand over for a "2:1:1" ratio
        // if the caller then opened only two of the tiers.
        let err = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_tier_ratio(vec![2.0, 1.0, 1.0]),
            AdamConfig::default(),
            &tiers(2),
            0,
            init_states(2, 4),
        )
        .err()
        .expect("three ratio components cannot weigh two tiers");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn eager_gradients_survive_quarantine_between_backward_and_update() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, FaultOps, HealthConfig};
        let adam = AdamConfig::default();
        let cfg = EngineConfig::deepspeed_zero3();
        let mut reference =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(6, 24)).unwrap();

        let inject = Arc::new(FaultInjectBackend::new(
            Arc::new(MemBackend::new("dying")) as Arc<dyn Backend>,
            FaultConfig::permanent(5, 1.0).with_ops(FaultOps::WritesOnly),
        ));
        inject.set_armed(false);
        let health = TierHealth::new("dying", HealthConfig::hair_trigger());
        let victim = SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 2.0)
            .with_health(Arc::clone(&health));
        let survivor = SharedTier::new(Arc::new(MemBackend::new("ok")) as Arc<dyn Backend>, 1.0);
        let mut engine =
            MlpFuncEngine::new(cfg, adam, &[victim, survivor], 0, init_states(6, 24)).unwrap();

        for it in 0..3 {
            let grads = grads_for(6, 24, it as f32);
            reference.accumulate_gradients(&grads);
            reference.flush_gradients().unwrap();
            reference.update().unwrap();

            engine.accumulate_gradients(&grads);
            if it == 1 {
                // The tier dies for writes after backward: the gradient
                // flush fails and latches the breaker; re-calling the
                // phase drains the tier and flushes next to the new
                // placements, out of the untouched accumulators.
                inject.set_armed(true);
                assert!(engine.flush_gradients().is_err());
                assert!(health.is_quarantined());
            }
            engine.flush_gradients().unwrap();
            engine.update().unwrap();
        }
        assert_eq!(engine.quarantined_tiers(), vec![0]);
        assert_eq!(engine.tier_distribution().tier_bytes[0], 0);
        assert_eq!(
            engine.master_params().unwrap(),
            reference.master_params().unwrap()
        );
        assert_eq!(engine.state_pool_outstanding(), engine.resident_count());
    }

    /// Resting in every host frame fills buffers the pool already had: its
    /// capacity is the formula sized for retention beyond the pipeline's
    /// frames, every resident holds exactly one of them, and what stays
    /// free at rest is at least the window's floor, so the first fetches
    /// of an iteration never wait on a resident.
    #[test]
    fn no_hit_is_bought_with_memory() {
        use crate::policy::cache::MIN_PIPELINE_FRAMES;
        const SHARD: usize = 12;
        let adam = AdamConfig::default();
        for h in [3usize, 5, 11, 259] {
            for skip_gradients in [true, false] {
                for retention in [true, false] {
                    let mut cfg = EngineConfig::mlp_offload().with_host_frames(h);
                    cfg.skip_gradient_offload = skip_gradients;
                    cfg.cache_retention = retention;
                    let what =
                        format!("h={h} skip_gradients={skip_gradients} retention={retention}");
                    let mut engine =
                        MlpFuncEngine::new(cfg, adam, &tiers(2), 0, init_states(SHARD, 8)).unwrap();
                    let buffers_per_slot = if skip_gradients { 1 } else { 2 };
                    let surplus = if retention {
                        h - MIN_PIPELINE_FRAMES
                    } else {
                        0
                    };
                    let capacity = surplus + 2 * MIN_PIPELINE_FRAMES * buffers_per_slot + 2;
                    let resting = if retention { h.min(SHARD) } else { 0 };
                    assert_eq!(engine.state_pool_stats().2, capacity, "{what}");
                    for it in 0..3 {
                        engine.accumulate_gradients(&grads_for(SHARD, 8, it as f32));
                        engine.flush_gradients().unwrap();
                        engine.update().unwrap();
                        assert_eq!(engine.resident_count(), resting, "{what}, iteration {it}");
                        assert_eq!(engine.state_pool_outstanding(), resting, "{what}");
                        let free = capacity - engine.state_pool_outstanding();
                        assert!(
                            free >= MIN_PIPELINE_FRAMES * buffers_per_slot,
                            "{what}: {free} buffers free at rest"
                        );
                    }
                    assert_eq!(engine.state_pool_stats().2, capacity, "{what}");
                }
            }
        }
    }

    #[test]
    fn distribution_reflects_retention() {
        let adam = AdamConfig::default();
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(7),
            adam,
            &tiers(2),
            0,
            init_states(10, 4),
        )
        .unwrap();
        assert_eq!(engine.tier_distribution().host_bytes, 0);
        engine.accumulate_gradients(&grads_for(10, 4, 0.0));
        engine.update().unwrap();
        let dist = engine.tier_distribution();
        assert_eq!(dist.host_bytes, 7 * 4 * 12, "7 retained × 4 params × 12 B");
        assert!((dist.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
