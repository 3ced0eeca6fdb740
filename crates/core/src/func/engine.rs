//! Real-bytes offloading engine over [`mlp_aio`] and storage backends.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use mlp_aio::engine::{AioConfig, AioEngine, Finish, FlushResult, OpHandle};
use mlp_aio::lock::{ProcessExclusiveLock, TierGuard};
use mlp_optim::grads::{GradRef, HostGrads, SharedGrads};
use mlp_optim::optimizer::grad_clip_factor;
use mlp_optim::traced::{apply, Update};
use mlp_optim::{AdamConfig, SubgroupState, SubgroupStateMut};
use mlp_storage::{Backend, TierHealth, TracedBackend};
use mlp_tensor::pool::{PinnedPool, PooledBuffer};
use mlp_tensor::{convert, HostBuffer};
use mlp_trace::{Attrs, Phase, TraceSink};

use crate::checkpoint::{
    CheckpointManifest, CheckpointPipeline, CheckpointStats, PendingCheckpoint, PendingEntry,
    SubgroupLocation,
};
use crate::config::EngineConfig;
use crate::policy::cache::ExecutorKind;
use crate::policy::ledger::{
    Action, Durable, Load, Outcome, PassPlan, Place, Step, SubgroupLedger, TierOp,
};
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
    let msg = format!("short {what} read for subgroup {idx}: got {got} of {want} bytes");
    Err(invariant_violation(msg))
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
        SharedTier { backend, lock: ProcessExclusiveLock::new(), weight, aio: AioConfig::default() }
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

/// Where a subgroup's state is between update phases.
enum Held<'a> {
    /// The caller's state, until the first pass loads it.
    Born(&'a SubgroupState),
    /// Where the ledger has it.
    Placed(Place<'a, Resident>),
}

/// A completed pooled read: the staging buffer and the bytes it holds.
type Filled = (PooledBuffer, usize);

/// One slot of the prefetch window.
enum Staged {
    /// Cache hit: the retained frame, lent by the ledger.
    Hit(Resident),
    /// The reads in flight: of the state and, on the eager-gradient path,
    /// of the FP32 gradients flushed next to it.
    Fetch(OpHandle, Option<OpHandle>),
    /// A state read, the subgroup's only one, carrying its [`UpdateStage`].
    Update(OpHandle),
}

/// The update a fetch's I/O worker applies to the frame it has just filled
/// ([`Finish`]), unless the driver waits first. It is only proposed until
/// the pass takes the frame in plan order: an unwind drops an updated
/// frame as it drops any other, and the tier copy still holds the start.
struct UpdateStage {
    trace: TraceSink,
    idx: usize,
    update: Update,
    grads: SharedGrads,
    /// The FP16 image, allocated by the driver at submission.
    fp16: Vec<u16>,
}

impl Finish for UpdateStage {
    fn finish(&mut self, frame: &mut HostBuffer, len: usize, tier: i32) {
        // A torn object is the pass's to report (`expect_len`), unswept.
        if len != self.fp16.len() * 12 {
            return;
        }
        let state = SubgroupStateMut::from_buffer(frame, self.fp16.len());
        let (idx, grads) = (self.idx as i64, self.grads.get());
        apply(&self.trace, idx, tier, &self.update, state, grads, &mut self.fp16);
    }
}

/// The largest state frame whose fetch carries its update: one that fits
/// half a core's L2 is still there when the read ends; a larger one is not.
const HOT_FRAME: usize = 1 << 20;

/// Eviction writes or deletes of superseded copies in flight, as
/// `(subgroup, tier, op)`.
type InFlight = VecDeque<(usize, usize, OpHandle)>;

/// An op the I/O deadline answered while it still ran, as `(subgroup,
/// tier, op, handle)` ([`MlpFuncEngine::settle_carried`]).
type Carried = (usize, usize, TierOp, OpHandle);

/// An update pass in flight. Loads are issued in plan order, ahead of the
/// other steps; an eviction may leave before it falls due, never out of
/// order.
#[derive(Default)]
struct PassRun {
    outcome: UpdateOutcome,
    /// The update the pass applies to each subgroup.
    update: Update,
    /// Plan cursors: the step to look for the next load from, and the one
    /// before which every eviction has been flushed.
    load: usize,
    evict: usize,
    /// The prefetch window, the eviction flushes and the deletes of the
    /// copies they superseded in flight, oldest first.
    pending: VecDeque<(usize, Staged)>,
    flushes: InFlight,
    deletes: InFlight,
}

struct TierRt {
    /// Shared with the checkpoints that pin subgroups on this tier: their
    /// drain verifies the pins, and its prune deletes superseded ones.
    engine: Arc<AioEngine>,
    lock: ProcessExclusiveLock,
    /// The engine's per-op deadline ([`AioConfig::deadline`]).
    deadline: Option<Duration>,
}

/// How a write settled, as the ledger's table takes it, and its error: a
/// missing payload is lost unless the deadline `answered_early`.
fn flush_outcome(
    result: FlushResult,
    answered_early: bool,
    n: usize,
) -> (Outcome<Resident>, Option<io::Error>) {
    match result {
        Ok(()) => (Outcome::Landed, None),
        Err((e, None)) if answered_early => (Outcome::Late, Some(e)),
        Err((e, frame)) => (
            Outcome::Failed(frame.map(|buf| Resident { buf, n })),
            Some(e),
        ),
    }
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
    /// The caller's state of each subgroup the first pass has not loaded
    /// yet (see [`MlpFuncEngine::new`]).
    born: Vec<Option<SubgroupState>>,
    /// Host gradient accumulators, one buffer per subgroup.
    grads: HostGrads,
    /// FP32 gradient bytes the last completed iteration moved through
    /// storage (see [`HostGrads::finish_iteration`]).
    last_grad_bytes: u64,
    step: u64,
    inv_loss_scale: f32,
    /// Optional global gradient-norm clipping threshold.
    grad_clip_max_norm: Option<f64>,
    /// State evictions, retire-deletes and gradient writes that the I/O
    /// deadline answered while they still ran.
    abandoned: Vec<Carried>,
    /// The next pass's leading state reads, issued as the last update
    /// ended ([`MlpFuncEngine::prefetch`]), as `(subgroup, tier, read)`.
    prefetched: InFlight,
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
    /// Creates the engine born in host memory: construction writes nothing
    /// to any tier. The engine holds each caller-provided `SubgroupState`
    /// until the first pass loads it, as a cache hit serialized into a
    /// pooled frame ([`SubgroupLedger::take_born`]); each subgroup's first
    /// durable copy is its first eviction, so the first pass reads no
    /// tier. That is memory the caller already held, but until its first
    /// update a subgroup stays in host memory rather than tier space.
    ///
    /// Rejects with `InvalidInput` an empty tier list, a `tier_ratio`
    /// whose length differs from it, and a tier with no I/O workers (its
    /// first write would fail).
    pub fn new(
        cfg: EngineConfig,
        adam: AdamConfig,
        shared_tiers: &[SharedTier],
        worker_id: usize,
        initial: Vec<SubgroupState>,
    ) -> io::Result<Self> {
        Self::starting_at(cfg, adam, shared_tiers, worker_id, initial, 0)
    }

    /// [`MlpFuncEngine::new`] for a run that has completed `iterations`
    /// update phases: its first pass runs in the next one's order.
    fn starting_at(
        mut cfg: EngineConfig,
        adam: AdamConfig,
        shared_tiers: &[SharedTier],
        worker_id: usize,
        initial: Vec<SubgroupState>,
        iterations: u64,
    ) -> io::Result<Self> {
        // The tier list, the ratio and the I/O settings come from user
        // configuration (`EngineConfig::from_deepspeed_json`): reject,
        // don't panic.
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if shared_tiers.is_empty() {
            return invalid("the engine needs at least one storage tier".into());
        }
        if let Some((ti, t)) = shared_tiers.iter().enumerate().find(|(_, t)| t.aio.workers == 0) {
            return invalid(format!("tier {ti} (backend {}) has no I/O workers", t.backend.name()));
        }
        let (ratio, n) = (cfg.tier_ratio.as_ref().map(Vec::len), shared_tiers.len());
        if let Some(ratio) = ratio.filter(|&r| r != n) {
            return invalid(format!("tier ratio has {ratio} components for {n} tiers"));
        }
        // With an enabled sink, every event lands on this worker's track,
        // each tier's I/O engine stamps its spans with the tier index, and
        // the backend is wrapped so the storage medium contributes
        // tier_read/tier_write spans (the per-tier bandwidth summary's
        // input). A tier whose own `aio.trace` is already enabled was
        // instrumented by the caller and gets no second wrapper (it would
        // double every span), only this worker's track. Disabled, nothing
        // is wrapped and no per-op tracing work is done.
        cfg.trace = cfg.trace.for_process(worker_id as u32);
        let trace = cfg.trace.clone();
        let tiers: Vec<TierRt> = (shared_tiers.iter().enumerate())
            .map(|(ti, t)| {
                let mut aio = t.aio.clone();
                let backend: Arc<dyn Backend> = if trace.is_enabled() && !aio.trace.is_enabled() {
                    aio.trace = trace.clone();
                    aio.trace_tier = ti as i32;
                    Arc::new(TracedBackend::new(Arc::clone(&t.backend), ti as i32, trace.clone()))
                } else {
                    aio.trace = aio.trace.for_process(worker_id as u32);
                    Arc::clone(&t.backend)
                };
                let (deadline, lock) = (aio.deadline, t.lock.clone());
                TierRt { deadline, engine: Arc::new(AioEngine::new(backend, aio)), lock }
            })
            .collect();
        let weights: Vec<f64> = match &cfg.tier_ratio {
            Some(r) => r.clone(),
            None => shared_tiers.iter().map(|t| t.weight).collect(),
        };
        let m = initial.len();
        // Residents rest in every frame between update phases: each
        // pass's evictions leave as soon as they are certain, freeing the
        // pipeline's frames before its window needs them.
        let mut ledger = SubgroupLedger::new(&cfg, m, weights, ExecutorKind::Pool);
        ledger.iterations_done = iterations;
        ledger.take_born();
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
        Ok(MlpFuncEngine {
            state_pool,
            grads: HostGrads::new(&subgroup_lens, !cfg.skip_gradient_offload),
            born: initial.into_iter().map(Some).collect(),
            last_grad_bytes: 0,
            ledger,
            pass: PassPlan::default(),
            keys: (0..m).map(|idx| format!("w{worker_id}/sub{idx}")).collect(),
            grad_keys: (0..m).map(|idx| format!("w{worker_id}/grad{idx}")).collect(),
            subgroup_lens,
            tiers,
            cfg,
            adam,
            worker_id,
            step: 0,
            inv_loss_scale: 1.0,
            grad_clip_max_norm: None,
            abandoned: Vec::new(),
            prefetched: InFlight::new(),
            io_snapshot: vec![(0, 0.0, 0); ntiers],
            migrations_done: 0,
            drains_done: 0,
        })
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

    /// Where subgroup `idx`'s state is. Only an update pass borrows frames
    /// from the ledger, and it returns every one before it ends.
    fn place(&self, idx: usize) -> io::Result<Held<'_>> {
        if let Some(state) = self.born.get(idx).and_then(Option::as_ref) {
            return Ok(Held::Born(state));
        }
        self.ledger.place(idx).map(Held::Placed).ok_or_else(|| {
            invariant_violation(format!("subgroup {idx} is checked out by an update pass"))
        })
    }

    fn key(&self, idx: usize) -> &str {
        &self.keys[idx]
    }

    fn grad_key(&self, idx: usize) -> &str {
        &self.grad_keys[idx]
    }

    /// Holds `tier`'s node-level lock across a submission (a flush's is
    /// encoded before) when "Process Atomic R/W" is on.
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

    fn submit_read(&self, tier: usize, key: &str, len: usize) -> OpHandle {
        let buf = self.state_pool.acquire();
        let _g = self.tier_guard(tier);
        self.tiers[tier].engine.submit_read_pooled(key, buf, len)
    }

    /// Submits subgroup `idx`'s state read with its update attached
    /// ([`UpdateStage`]).
    fn submit_update(&self, tier: usize, idx: usize, update: Update) -> OpHandle {
        let n = self.subgroup_lens[idx];
        let stage = UpdateStage {
            trace: self.cfg.trace.clone(),
            idx,
            update,
            grads: self.grads.shared(idx),
            fp16: vec![0; n],
        };
        let buf = self.state_pool.acquire();
        let _g = self.tier_guard(tier);
        let engine = &self.tiers[tier].engine;
        engine.submit_read_finished(self.key(idx), buf, n * 12, Box::new(stage))
    }

    fn submit_flush(&self, tier: usize, key: &str, buf: PooledBuffer, len: usize) -> OpHandle {
        let (write, _g) = (self.tiers[tier].engine.stage_write(buf, len), self.tier_guard(tier));
        self.tiers[tier].engine.submit_staged(key, write)
    }

    /// Accumulates one backward micro-step's FP16 gradients (one slice of
    /// bits per subgroup, in subgroup-id order). With "Skip Gradients"
    /// they stay in host memory in FP16 and nothing touches storage;
    /// without it they are eagerly upscaled into the FP32 accumulators
    /// (the conversion MLP-Offload delays).
    pub fn accumulate_gradients(&mut self, grads: &[Vec<u16>]) {
        self.grads.accumulate(grads);
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
        // first, or its subgroups' gradients would chase a dead tier; and
        // evictions a failed update abandoned settle before that drain
        // moves their copies.
        self.settle_carried(|&(.., op, _)| op == TierOp::Evict)?;
        self.drain_quarantined()?;
        // A gradient write a failed call left late must not land after
        // this phase's write of its key; one on a drained tier is let go.
        self.settle_carried(|&(.., op, _)| op == TierOp::GradFlush)?;
        self.grads.materialize_zeros();
        let HostGrads::Fp32 { accum, on_tier, .. } = &self.grads else {
            return Ok(());
        };
        let phase_start = self.cfg.trace.now_ns();
        let mut inflight = VecDeque::new();
        // A reclaimed payload just drops (the staging buffer recycles):
        // the gradients still live in the accumulators.
        let mut settled = Vec::new();
        let mut settle = |(idx, t, h): (usize, usize, OpHandle)| {
            let err = h.wait_flush().err().map(|(e, _payload)| e);
            settled.push((idx, t, h, err));
        };
        for (idx, g) in accum.iter().enumerate() {
            let Some(Place::Tier(t)) = self.ledger.place(idx) else {
                continue;
            };
            if on_tier[idx] == Some(t) {
                continue;
            }
            // Never the pool's condvar: a failed write keeps its buffer
            // until it is settled and would not signal it. With no buffer
            // free, settling the oldest write in flight frees one.
            let mut buf = loop {
                if let Some(buf) = self.state_pool.try_acquire() {
                    break buf;
                }
                let Some(oldest) = inflight.pop_front() else {
                    return Err(invariant_violation(format!(
                        "state pool exhausted (all {} buffers out) with no gradient flush in flight",
                        self.state_pool.capacity()
                    )));
                };
                settle(oldest);
            };
            buf.write_f32(0, &g[..]);
            let handle = self.submit_flush(t, self.grad_key(idx), buf, g.len() * 4);
            inflight.push_back((idx, t, handle));
        }
        inflight.into_iter().for_each(&mut settle);
        let HostGrads::Fp32 { accum, on_tier, .. } = &mut self.grads else {
            return Ok(());
        };
        let (mut bytes, mut first_err) = (0, None);
        for (idx, t, h, err) in settled {
            if let Some(e) = err {
                let outcome = match h.abandoned() {
                    true => Outcome::Late,
                    false => Outcome::Failed(None),
                };
                if self.ledger.settle(idx, TierOp::GradFlush, outcome) == Action::Carry {
                    self.abandoned.push((idx, t, TierOp::GradFlush, h));
                }
                first_err.get_or_insert(e);
                continue;
            }
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
    /// place by the single-pass fused kernel — for a lone state read of a
    /// small frame, by the I/O worker that filled it unless this thread
    /// waits for the read first — and flushed from the same
    /// buffer. With "Skip Gradients" the kernel upscales the host FP16
    /// gradients on the fly; without it, gradients that
    /// [`MlpFuncEngine::flush_gradients`] put on a tier are fetched back
    /// alongside the state (16 B/param instead of 12).
    ///
    /// # Failure semantics
    ///
    /// An I/O error (after the per-tier retry policy gave up) unwinds the
    /// phase cleanly and is returned typed — no panic, no hang: every op
    /// in flight settles through the ledger's failure table
    /// ([`SubgroupLedger::settle`]), and every staging buffer returns to
    /// the pool. Calling `update` again re-drives the *same* iteration
    /// from where the table left each subgroup (one already updated is
    /// only re-emitted), with the exact result of one that never failed.
    pub fn update(&mut self) -> io::Result<UpdateOutcome> {
        // Evictions a failed call abandoned must settle before anything
        // plans from where they left their subgroups.
        self.settle_carried(|&(.., op, _)| op == TierOp::Evict)?;
        // Quarantine-and-drain runs next, even ahead of a re-drive:
        // evacuation moves bytes, it never mutates them, so a replayed
        // iteration stays bit-identical — and the re-drive may *need*
        // the evacuation, because the failed flush target is often the
        // very tier that just got quarantined.
        self.drain_quarantined()?;
        // Fresh iteration vs re-drive of a failed one. Bounded
        // durable-copy migration runs strictly at an iteration boundary (a
        // re-drive must replay against unchanged placements to stay
        // bit-identical to an iteration that never failed), and the step
        // advances once per iteration.
        if !self.ledger.in_progress() {
            if self.cfg.adaptive_bandwidth && self.cfg.max_migrations_per_iter > 0 {
                self.run_migrations()?;
            }
            self.step += 1;
        }
        self.grads.materialize_zeros();
        // A re-drive restarts the same iteration: same order, planned from
        // where the failed attempt left each subgroup and the tiers alive.
        self.pass = self.ledger.begin_iteration();

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
        let mut run = PassRun {
            update: Update::new(self.adam, self.step, inv_scale),
            ..PassRun::default()
        };
        run.outcome.fp16_params = vec![Vec::new(); self.subgroup_lens.len()];
        let pass = self.update_pass(&mut run);
        let drained = self.drain_inflight(run);
        // The whole update phase as one span; the per-subgroup I/O and
        // kernel spans nest underneath it on the timeline.
        self.span(Phase::Update, Attrs::NONE, phase_start);
        // The pass's own error first.
        let outcome = pass.and(drained)?;
        self.last_grad_bytes = self.grads.finish_iteration();
        if self.cfg.adaptive_bandwidth {
            // Feed the observed per-tier transfer and retry rates back
            // into the estimator; ending the iteration folds the EMA,
            // closing the §3.3 loop for the next split.
            self.feed_planner();
        }
        self.ledger.end_iteration();
        self.prefetch();
        Ok(outcome)
    }

    /// Issues the next pass's leading state reads into the pool's free
    /// buffers, one per tier in turn (`PassPlan::leading_fetches`), so
    /// every tier's queue has its head reads while the caller accumulates
    /// gradients; the pass adopts each as its fetch. A load that also reads
    /// a gradient object waits for its pass: `flush_gradients` writes it.
    fn prefetch(&mut self) {
        if let HostGrads::Fp32 { .. } = self.grads {
            return;
        }
        let free = (self.state_pool.capacity()).saturating_sub(self.state_pool.outstanding());
        for (idx, tier) in self.ledger.upcoming_pass().leading_fetches().take(free) {
            let (trace, n) = (&self.cfg.trace, self.subgroup_lens[idx]);
            let io = Attrs::tier_bytes(tier as i32, n as u64 * 12);
            trace.instant(Phase::Prefetch, Attrs { subgroup: idx as i64, ..io }, trace.now_ns());
            let read = self.submit_read(tier, self.key(idx), n * 12);
            self.prefetched.push_back((idx, tier, read));
        }
    }

    /// The reads the last update issued for the next pass, which no pass
    /// has taken yet, in issue order as `(subgroup, tier, landed)`: each
    /// holds a pooled buffer.
    pub fn prefetched_reads(&self) -> Vec<(usize, usize, bool)> {
        (self.prefetched.iter()).map(|(s, t, read)| (*s, *t, read.is_done())).collect()
    }

    /// The plan of the last update pass (or of the one awaiting re-drive).
    pub fn pass_plan(&self) -> &PassPlan {
        &self.pass
    }

    /// Whether a failed update phase is awaiting a re-drive.
    pub fn update_in_progress(&self) -> bool {
        self.ledger.in_progress()
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

    /// Eviction `idx`'s write is durable: submits the deletes of every
    /// copy it superseded, each through its tier's I/O engine (a
    /// quarantined tier's past its breaker, as the drain retires copies
    /// there). A born subgroup's first eviction asks every other tier, and
    /// deletes only what one holds: what an earlier run left under its key.
    fn retire(&self, idx: usize, tier: usize, superseded: Durable, deletes: &mut InFlight) {
        for t in superseded.superseded_by(tier, self.tiers.len()) {
            if superseded != Durable::Unknown || self.tiers[t].engine.contains(self.key(idx)) {
                deletes.push_back((idx, t, self.submit_delete(t, idx)));
            }
        }
    }

    /// Submits the delete of subgroup `idx`'s copy on `tier` — past the
    /// breaker of a quarantined tier.
    fn submit_delete(&self, tier: usize, idx: usize) -> OpHandle {
        let (engine, key) = (&self.tiers[tier].engine, self.key(idx));
        let _g = self.tier_guard(tier);
        if self.ledger.planner.excluded()[tier] {
            engine.submit_salvage_delete(key)
        } else {
            engine.submit_delete(key)
        }
    }

    /// Settles a delete of a superseded copy through the ledger's table:
    /// one the deadline answered is carried, lest it land after a later
    /// write of the key on its tier; a failed one is a leak, not an error
    /// (nothing reads a key off a tier the ledger does not place it on).
    fn settle_delete(&mut self, idx: usize, tier: usize, delete: OpHandle) {
        let (outcome, _) = flush_outcome(delete.wait_flush(), delete.abandoned(), 0);
        if self.ledger.settle(idx, TierOp::Retire, outcome) == Action::Carry {
            self.abandoned.push((idx, tier, TierOp::Retire, delete));
        }
    }

    /// Settles eviction `idx`'s flush through the ledger's table — once
    /// it is answered, or for one the deadline answered, however it
    /// settles by the clock reading `late` — and executes the action: retire
    /// what a landed write superseded, or carry one still running to
    /// [`MlpFuncEngine::settle_carried`]. Returns the flush's error.
    fn settle_flush(
        &mut self,
        (idx, tier, handle): (usize, usize, OpHandle),
        late: Option<Duration>,
        deletes: &mut InFlight,
    ) -> io::Result<()> {
        let n = self.subgroup_lens[idx];
        let (outcome, err) = match late {
            None => flush_outcome(handle.wait_flush(), handle.abandoned(), n),
            Some(until) => handle
                .late_flush(until)
                .map_or((Outcome::Late, None), |result| {
                    flush_outcome(result, false, n)
                }),
        };
        match self.ledger.settle(idx, TierOp::Evict, outcome) {
            Action::Retire { tier, superseded } => self.retire(idx, tier, superseded, deletes),
            Action::Carry => self.abandoned.push((idx, tier, TierOp::Evict, handle)),
            _ => {}
        }
        err.map_or(Ok(()), Err)
    }

    /// Waits for both reads of load `idx` together, so a failure of one
    /// never abandons the other's handle (and staging buffer) mid-flight;
    /// a failed one settles through the ledger's table. A staged read's
    /// update never runs here: its frame is handed back as it lands.
    fn settle_fetch(
        &mut self,
        idx: usize,
        state: OpHandle,
        grad: Option<OpHandle>,
    ) -> io::Result<(Filled, Option<Filled>)> {
        let state = state.wait_pooled();
        let grad = grad.map(OpHandle::wait_pooled).transpose();
        if state.is_err() || grad.is_err() {
            let lost = Outcome::Failed(None);
            self.ledger.settle(idx, TierOp::Fetch, lost);
        }
        Ok((state?, grad?))
    }

    /// Settles the carried ops `which` picks, waiting up to one deadline
    /// on each tier's clock: each settlement takes its row of the ledger's
    /// table. Any still running fails the call with `TimedOut` and is asked
    /// again by the next one: re-planning while an eviction may still land
    /// could fetch either copy, and a late delete or gradient write would
    /// undo the caller's next write of its key on its tier. One on a tier
    /// the planner excludes is let go: nothing writes there again. A late
    /// staging, migration or pin write leaves only an orphan copy.
    fn settle_carried(&mut self, which: impl Fn(&Carried) -> bool) -> io::Result<()> {
        let excluded = self.ledger.planner.excluded();
        (self.abandoned).retain(|&(_, t, op, _)| op == TierOp::Evict || !excluded[t]);
        let until: Vec<_> = (self.tiers.iter())
            .map(|t| t.engine.now() + t.deadline.unwrap_or_default())
            .collect();
        let due: Vec<_> = self.abandoned.extract_if(.., |c| which(c)).collect();
        let mut deletes = InFlight::new();
        for (idx, tier, op, handle) in due {
            // A late failure is no error of this call: the re-drive's.
            if op == TierOp::Evict {
                let _ = self.settle_flush((idx, tier, handle), Some(until[tier]), &mut deletes);
                continue;
            }
            let Some(result) = handle.late_flush(until[tier]) else {
                self.abandoned.push((idx, tier, op, handle));
                continue;
            };
            self.ledger.settle(idx, op, flush_outcome(result, false, 0).0);
        }
        for (idx, t, delete) in deletes {
            self.settle_delete(idx, t, delete);
        }
        let mut still = self.abandoned.iter().filter(|c| which(c));
        let Some(&(idx, ..)) = still.next() else {
            return Ok(());
        };
        let msg = format!(
            "{} writes or deletes the I/O deadline abandoned (subgroup {idx} first) are still \
             running a deadline later; nothing may touch their objects until they settle",
            1 + still.count()
        );
        Err(io::Error::new(io::ErrorKind::TimedOut, msg))
    }

    /// Drains every operation still in flight after a pass, successful or
    /// not: pending reads settle (their staging buffers recycle), cache
    /// hits the pass never reached go back to the ledger, flushes
    /// settle, and then every delete of a superseded copy settles, so none
    /// outlives the pass. Returns the pass's outcome, or the first error
    /// encountered.
    fn drain_inflight(&mut self, mut run: PassRun) -> io::Result<UpdateOutcome> {
        let mut first_err = None;
        // A leading read a failed pass never reached settles as its fetch.
        let leads = std::mem::take(&mut self.prefetched).into_iter();
        let leads = leads.map(|(idx, _, read)| (idx, Staged::Fetch(read, None)));
        for (idx, staged) in run.pending.into_iter().chain(leads) {
            // Buffers recycle on drop, an updated frame's too: the pass
            // never took it, so its update was only proposed.
            let (state, grad) = match staged {
                Staged::Hit(res) => {
                    self.ledger.rest(idx, res);
                    continue;
                }
                Staged::Fetch(state, grad) => (state, grad),
                Staged::Update(state) => (state, None),
            };
            if let Err(e) = self.settle_fetch(idx, state, grad) {
                first_err.get_or_insert(e);
            }
        }
        for flush in run.flushes {
            if let Err(e) = self.settle_flush(flush, None, &mut run.deletes) {
                first_err.get_or_insert(e);
            }
        }
        for (idx, t, delete) in run.deletes {
            self.settle_delete(idx, t, delete);
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
        // A delete of this key on this tier that an earlier eviction left,
        // in flight or carried past the deadline, must not land after the
        // write; one still running fails the pass before the frame leaves.
        let same_key = |&(s, t, _): &(usize, usize, OpHandle)| (s, t) == (subgroup, tier);
        while let Some(at) = run.deletes.iter().position(same_key) {
            if let Some((s, t, delete)) = run.deletes.remove(at) {
                self.settle_delete(s, t, delete);
            }
        }
        self.settle_carried(|&(s, t, op, _)| (s, t, op) == (subgroup, tier, TierOp::Retire))?;
        run.evict = at + 1;
        let Resident { buf, n } = self.ledger.evict(subgroup, tier).ok_or_else(|| {
            invariant_violation(format!("planned eviction {subgroup} is not resting"))
        })?;
        let handle = self.submit_flush(tier, self.key(subgroup), buf, n * 12);
        run.flushes.push_back((subgroup, tier, handle));
        run.outcome.flushes += 1;
        Ok(true)
    }

    /// Issues the plan's loads in order: every one that stands before
    /// step `due` (the update about to run), which is the window's floor
    /// of [`MIN_PIPELINE_FRAMES`](crate::policy::cache::MIN_PIPELINE_FRAMES)
    /// — below it a fetch waits for a buffer — and beyond it as many as
    /// the state pool has free buffers for. Depth changes when a load is
    /// issued, never what the plan made it.
    fn top_up(&mut self, due: usize, run: &mut PassRun) -> io::Result<()> {
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
            // A hit takes the frame its subgroup rests in, so an empty pool
            // never stops one; a born one has no frame yet and takes a
            // buffer the way a fetch does. A fetch the last update issued
            // is taken as it is.
            let staged = match load {
                Load::Hit => self.ledger.take_hit(idx).map(Staged::Hit),
                Load::Fetch { tier, after: None } => (self.prefetched.iter())
                    .position(|&(s, t, _)| (s, t) == (idx, tier))
                    .and_then(|at| self.prefetched.remove(at))
                    .map(|(.., read)| Staged::Fetch(read, None)),
                Load::Fetch { .. } => None,
            };
            if let Some(staged) = staged {
                run.pending.push_back((idx, staged));
                run.load += 1;
                continue;
            }
            let (t, after) = match load {
                Load::Fetch { tier, after } => (Some(tier), after),
                Load::Hit => (None, None),
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
                if let Some(flush) = run.flushes.pop_front() {
                    self.settle_flush(flush, None, &mut run.deletes)?;
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
            let fence = after.and_then(|_| run.flushes.iter().position(|&(s, ..)| s == idx));
            if let Some(flush) = fence.and_then(|at| run.flushes.remove(at)) {
                self.settle_flush(flush, None, &mut run.deletes)?;
            }
            let n = self.subgroup_lens[idx];
            let Some(t) = t else {
                // A born hit: the caller's state, serialized into the
                // frame it rests in from now on.
                let state = self.born.get_mut(idx).and_then(Option::take);
                let state = state.ok_or_else(|| {
                    invariant_violation(format!("planned hit {idx} is neither resting nor born"))
                })?;
                let mut buf = self.state_pool.acquire();
                state.write_to(buf.buffer_mut());
                run.pending
                    .push_back((idx, Staged::Hit(Resident { buf, n })));
                run.load += 1;
                continue;
            };
            // Gradients that went through storage come back with the
            // state — unless a failed attempt already applied them. A lone
            // state read of a frame up to `HOT_FRAME` carries its update.
            let carries = self.ledger.carries_update(idx);
            let grad_tier = match &self.grads {
                HostGrads::Fp32 { on_tier, .. } if !carries => on_tier[idx],
                _ => None,
            };
            let staged = match grad_tier {
                None if !carries && n * 12 <= HOT_FRAME => {
                    Staged::Update(self.submit_update(t, idx, run.update))
                }
                _ => {
                    let state = self.submit_read(t, self.key(idx), n * 12);
                    let grad = grad_tier.map(|g| self.submit_read(g, self.grad_key(idx), n * 4));
                    Staged::Fetch(state, grad)
                }
            };
            run.pending.push_back((idx, staged));
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
    fn update_pass(&mut self, run: &mut PassRun) -> io::Result<()> {
        for at in 0..self.pass.steps.len() {
            // An eviction is flushed now, while its buffer is hot (unless an
            // exhausted pool already flushed it); loads are `top_up`'s,
            // issued as early as the pool allows.
            let step = self.pass.steps[at];
            if matches!(step, Step::Evict { .. }) && at >= run.evict {
                self.flush_next_eviction(run)?;
            }
            let Step::Update { .. } = step else { continue };
            self.top_up(at, run)?;
            // Settle the flushes that have finished: a dead tier fails
            // the pass here, at the next subgroup, not after every
            // remaining one has moved its bytes. Finished deletes go too.
            while let Some(flush) = run.flushes.pop_front_if(|(.., h)| h.is_done()) {
                self.settle_flush(flush, None, &mut run.deletes)?;
            }
            while let Some((s, t, delete)) = run.deletes.pop_front_if(|(.., h)| h.is_done()) {
                self.settle_delete(s, t, delete);
            }

            let Some((idx, staged)) = run.pending.pop_front() else {
                return Err(invariant_violation(
                    "prefetch window empty with subgroups still unprocessed".into(),
                ));
            };
            let n = self.subgroup_lens[idx];
            let (mut res, fetched_grad, applied) = match staged {
                Staged::Hit(res) => {
                    run.outcome.cache_hits += 1;
                    (res, None, None)
                }
                Staged::Fetch(state, grad) => {
                    run.outcome.fetches += 1;
                    let ((buf, got), grad) = self.settle_fetch(idx, state, grad)?;
                    expect_len("state", idx, got, n * 12)?;
                    if let Some((_, got)) = &grad {
                        expect_len("gradient", idx, *got, n * 4)?;
                    }
                    (Resident { buf, n }, grad.map(|(buf, _)| buf), None)
                }
                // Updated by the worker that read it, or by the wait.
                Staged::Update(state) => {
                    run.outcome.fetches += 1;
                    let finished = state.wait_finished::<UpdateStage>();
                    if finished.is_err() {
                        self.ledger.settle(idx, TierOp::Fetch, Outcome::Failed(None));
                    }
                    let (buf, got, stage) = finished?;
                    expect_len("state", idx, got, n * 12)?;
                    (Resident { buf, n }, None, Some(stage.fp16))
                }
            };

            let fp16 = match applied {
                Some(fp16) => fp16,
                // Re-driven iteration: this subgroup already carries the
                // update — re-emit its FP16 image without touching state.
                None if self.ledger.carries_update(idx) => {
                    let mut fp16 = vec![0u16; n];
                    convert::downscale_par(res.params(), &mut fp16);
                    fp16
                }
                // Single fused pass over the staging buffer: unscale +
                // moment update + parameter step + FP16 emission.
                // Host-resident subgroups (and any whose gradient object
                // was never flushed) read the accumulator.
                None => {
                    let mut fp16 = vec![0u16; n];
                    let view = SubgroupStateMut::from_buffer(res.buf.buffer_mut(), n);
                    let grads = (fetched_grad.as_ref())
                        .map_or(self.grads.get(idx), |g| GradRef::Fp32(g.as_f32(n)));
                    let (trace, update) = (&self.cfg.trace, &run.update);
                    apply(trace, idx as i64, -1, update, view, grads, &mut fp16);
                    fp16
                }
            };
            // The update is taken here, in plan order, whoever applied it.
            self.ledger.settle(idx, TierOp::Update, Outcome::Landed);
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
        (self.state_pool.acquires(), self.state_pool.high_water(), self.state_pool.capacity())
    }

    /// Staging buffers currently checked out of the state pool. Between
    /// update phases this equals the number of pooled host-resident
    /// subgroups plus the [`MlpFuncEngine::prefetched_reads`] — anything
    /// beyond that is a leak.
    pub fn state_pool_outstanding(&self) -> usize {
        self.state_pool.outstanding()
    }

    /// Subgroups resting in pooled host frames (a born subgroup the
    /// first pass has not loaded holds no frame and is not counted).
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
        let read = if salvage { engine.submit_salvage_read(key) } else { engine.submit_read(key) };
        let missing = || invariant_violation(format!("read of subgroup {idx} returned no payload"));
        read.wait()?.ok_or_else(missing)
    }

    /// Moves one durable subgroup copy between tiers, keeping a durable
    /// copy live at every instant: read the source, write the destination
    /// and wait for it, flip the placement, and only then retire the
    /// source. `salvage` reads and deletes past the source tier's breaker
    /// (it refuses normal traffic, but a write-dead tier usually still
    /// serves reads) — still through its I/O engine, so under its retry
    /// policy and deadline.
    fn move_durable_copy(&mut self, step: MigrationStep, salvage: bool) -> io::Result<()> {
        // A leading read of the copy is waited for and dropped: the move
        // changes its load.
        let lead = self.prefetched.iter().position(|&(s, ..)| s == step.subgroup);
        if let Some((.., read)) = lead.and_then(|at| self.prefetched.remove(at)) {
            let _ = read.wait_pooled();
        }
        let key = self.key(step.subgroup).to_owned();
        let started = self.cfg.trace.now_ns();
        let data = {
            let _g = self.tier_guard(step.from);
            self.read_durable(step.from, step.subgroup, salvage)?
        };
        let bytes = data.len() as u64;
        // A late delete of the key there must not land after this write.
        let dest = (step.subgroup, step.to, TierOp::Retire);
        self.settle_carried(|&(s, t, op, _)| (s, t, op) == dest)?;
        {
            let _g = self.tier_guard(step.to);
            self.tiers[step.to].engine.submit_write(&key, data).wait()?;
        }
        // The destination copy is durable; the source is now garbage,
        // retired as an eviction retires the copy it superseded.
        self.ledger.relocate(step);
        let delete = self.submit_delete(step.from, step.subgroup);
        self.settle_delete(step.subgroup, step.from, delete);
        let phase = if salvage {
            self.drains_done += 1;
            Phase::Drain
        } else {
            self.migrations_done += 1;
            Phase::Migrate
        };
        let moved = Attrs::tier_bytes(step.to as i32, bytes);
        self.span(phase, Attrs { subgroup: step.subgroup as i64, ..moved }, started);
        Ok(())
    }

    /// Executes the planner's bounded migration plan: moves up to
    /// `max_migrations_per_iter` durable subgroup copies toward the
    /// current Eq. 1 split. Host-resident subgroups are never touched
    /// (the cache-hit sequence is unchanged).
    fn run_migrations(&mut self) -> io::Result<()> {
        // Between update phases only the next pass's leading reads are in
        // flight, and a move drops the one of its copy: every tier copy is
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
            let health = self.tiers[t].engine.health();
            if !self.ledger.planner.excluded()[t] && health.is_some_and(|h| h.is_quarantined()) {
                self.ledger.planner.exclude_tier(t);
                if let HostGrads::Fp32 { on_tier, .. } = &mut self.grads {
                    for g in on_tier.iter_mut().filter(|g| **g == Some(t)) {
                        *g = None;
                    }
                }
                let (trace, attrs) = (&self.cfg.trace, Attrs { tier: t as i32, ..Attrs::NONE });
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
                Held::Born(state) => Ok(state.params.clone()),
                Held::Placed(Place::Host(res)) => Ok(res.params().to_vec()),
                Held::Placed(Place::Tier(t)) => {
                    let bytes = self.read_durable(t, idx, false)?;
                    expect_len("state", idx, bytes.len(), self.subgroup_lens[idx] * 12)?;
                    Ok(SubgroupState::from_bytes(&bytes, self.step)?.params)
                }
            })
            .collect()
    }

    /// Starts an asynchronous two-hop checkpoint through `pipe`: host-
    /// resident subgroups, born ones serialized as the frame they will
    /// rest in, are submitted to the staging tier (the writes
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
        if self.ledger.in_progress() {
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
            let state = match self.place(idx)? {
                Held::Placed(Place::Host(resident)) => Cow::Borrowed(resident.state_bytes()),
                // The bytes of the frame the first pass serializes it into.
                Held::Born(state) => Cow::Owned(state.to_buffer().as_bytes().to_vec()),
                Held::Placed(Place::Tier(tier)) => {
                    let key = CheckpointManifest::subgroup_key(tag, self.worker_id, idx);
                    pins.push(self.tiers[tier].engine.submit_link(self.key(idx), &key));
                    let location = SubgroupLocation::Prestaged { tier, key };
                    stats.prestaged_bytes += bytes;
                    entries.push(PendingEntry::Durable { idx, location });
                    continue;
                }
            };
            let location = match pipe.reusable_upload(idx, self.step) {
                Some(key) => SubgroupLocation::Target { key },
                None => {
                    stats.copied_bytes += bytes;
                    let staging_key = format!("ckptstage/{tag}/w{}/sub{idx}", self.worker_id);
                    let handle = pipe.submit_flush(&staging_key, state.into_owned());
                    entries.push(PendingEntry::Flushing {
                        idx,
                        staging_key,
                        bytes,
                        handle,
                    });
                    continue;
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
                SubgroupLocation::Prestaged { tier, key } => {
                    let n = shared_tiers.len();
                    let msg = format!(
                        "manifest places {key} on tier {tier}, but only {n} tiers are configured"
                    );
                    read(
                        tier_io.get(*tier).ok_or_else(|| invariant_violation(msg))?,
                        key,
                    )?
                }
            };
            states.push(SubgroupState::from_bytes(&bytes, manifest.step)?);
        }
        let mut engine =
            MlpFuncEngine::starting_at(cfg, adam, shared_tiers, worker_id, states, manifest.iter)?;
        engine.step = manifest.step;
        Ok(engine)
    }

    /// Where each subgroup's state lives right now (Fig. 10, functional
    /// mode): a born subgroup's is host bytes until its first eviction.
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

    /// Pooled buffers an engine holds between updates: one per resting
    /// frame and one per read issued for the next pass.
    fn held(engine: &MlpFuncEngine) -> usize {
        engine.resident_count() + engine.prefetched_reads().len()
    }

    /// Waits until every read the last update issued for the next pass
    /// has landed on its tier.
    fn prefetch_landed(engine: &MlpFuncEngine) {
        while engine.prefetched_reads().iter().any(|&(.., landed)| !landed) {
            std::thread::yield_now();
        }
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
        // Subgroups rest in all 5 host frames between update phases; the
        // engine is born holding every subgroup, so its first pass serves
        // each from host memory and fetches nothing.
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
        assert_eq!((o0.cache_hits, o0.fetches), (8, 0), "born in host memory");
        engine.accumulate_gradients(&grads_for(8, 8, 1.0));
        let o1 = engine.update().unwrap();
        assert_eq!(o1.cache_hits, 5, "retained tail reused after order flip");
        assert_eq!(o1.fetches, 3);
    }

    /// The engine is born in host memory: construction writes nothing,
    /// and until the first update every subgroup is the caller's state.
    /// The first pass serves every load from it, a hit, and flushes the
    /// `m − r` subgroups its `r` resting frames cannot keep; from the
    /// second pass on it moves what every later one does. The bits are
    /// those of a never-offloaded run; ZeRO-3, which retains nothing, is
    /// born the same way.
    #[test]
    fn construction_writes_nothing() {
        const LEN: usize = 16;
        let adam = AdamConfig::default();
        for (cfg, m, r) in [
            (EngineConfig::mlp_offload().with_host_frames(5), 12, 5),
            (EngineConfig::mlp_offload().with_host_frames(12), 9, 9),
            (EngineConfig::deepspeed_zero3(), 12, 0),
        ] {
            let mems: Vec<Arc<MemBackend>> = (0..2)
                .map(|i| Arc::new(MemBackend::new(format!("mem{i}"))))
                .collect();
            let shared: Vec<SharedTier> = mems
                .iter()
                .map(|b| SharedTier::new(Arc::clone(b) as Arc<dyn Backend>, 1.0))
                .collect();
            let what = format!("m={m} r={r}");
            let mut engine =
                MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(m, LEN)).unwrap();
            for b in &mems {
                let t = b.touches();
                let touched = (
                    b.object_count(),
                    t.write_copied_bytes,
                    t.read_copied_bytes,
                    t.exchanged_frames,
                );
                assert_eq!(touched, (0, 0, 0, 0), "{what}: construction touched a tier");
            }
            for t in 0..mems.len() {
                assert_eq!(engine.io_counters(t), (0, 0.0, 0), "{what}: tier {t}");
            }
            let out = (engine.resident_count(), engine.state_pool_outstanding());
            assert_eq!(out, (0, 0), "{what}");

            // Before the first update: the caller's state, all of it host
            // bytes.
            let initial = init_states(m, LEN).into_iter().map(|s| s.params);
            let initial: Vec<Vec<f32>> = initial.collect();
            assert_eq!(engine.master_params().unwrap(), initial, "{what}");
            let dist = engine.tier_distribution();
            assert_eq!(dist.host_bytes, (m * LEN * 12) as u64, "{what}");
            assert_eq!(dist.tier_bytes, vec![0, 0], "{what}");

            let mut reference = init_states(m, LEN);
            let mut steps = Vec::new();
            for it in 0..2 {
                let grads = grads_for(m, LEN, it as f32);
                reference_update(&mut reference, &adam, &grads);
                engine.accumulate_gradients(&grads);
                engine.flush_gradients().unwrap();
                let o = engine.update().unwrap();
                steps.push((o.cache_hits, o.fetches, o.flushes));
            }
            assert_eq!(steps[0], (m, 0, m - r), "{what}: the first pass");
            assert_eq!(steps[1], (r, m - r, m - r), "{what}: the second pass");
            let got = engine.master_params().unwrap();
            for (idx, (g, want)) in got.iter().zip(&reference).enumerate() {
                assert_eq!(g, &want.params, "{what}: subgroup {idx} diverged");
            }
            assert_eq!(engine.state_pool_outstanding(), held(&engine));
        }
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
        // deepest scan the closed form still covers. The first pass hits
        // every subgroup its engine was born holding, in every order.
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
                    let hits = match iter {
                        0 => m,
                        _ => order.expected_hits(iter, m, frames),
                    };
                    assert_eq!(
                        outcome.cache_hits, hits,
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
        // Construction acquires nothing: the first pass serializes each
        // born subgroup into a pooled frame, as a fetch reads into one.
        assert_eq!(engine.state_pool_stats().0, 0);
        let mut fetched = 0u64;
        for it in 0..iters {
            engine.accumulate_gradients(&grads_for(subgroups, 16, it as f32));
            fetched += engine.update().unwrap().fetches as u64;
        }
        let (acquires, high_water, capacity) = engine.state_pool_stats();
        // Every born hit and every fetch acquired a staging buffer from
        // the pool, the next pass's leading fetches already...
        let leading = engine.prefetched_reads().len() as u64;
        assert_eq!(
            acquires,
            subgroups as u64 + fetched + leading,
            "one pooled acquire per born hit and per fetch"
        );
        assert!(acquires > capacity as u64, "enough traffic to prove reuse");
        // ...while the working set never exceeded the fixed pool: the hot
        // fetch → fused-update → flush loop allocated zero state buffers.
        assert!(
            high_water <= capacity,
            "high water {high_water} within pool capacity {capacity}"
        );
        // At rest: only the retained residents and the next pass's
        // leading fetches hold buffers.
        assert_eq!(engine.state_pool.outstanding(), held(&engine));
    }

    /// Touches per byte through a memory-class tier: a steady-state
    /// iteration copies each fetched subgroup once (the durable copy must
    /// stay on the tier) and copies nothing on flush — a whole staging
    /// frame trades places with the object it displaces, or with a spare
    /// frame when the flush re-places its subgroup. A subgroup shorter
    /// than the frame cannot trade and is copied, as before.
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
            // Two cycles of the alternating order: by then a flush that
            // re-places its subgroup finds a spare frame on the new tier,
            // left there by the delete of a copy another one superseded.
            for it in 0..4 {
                let grads = grads_at(it);
                reference_update(&mut reference, &adam, &grads);
                engine.accumulate_gradients(&grads);
                engine.update().unwrap();
            }

            // One more cycle, counted from and to rest: each end has the
            // same leading fetches landed.
            prefetch_landed(&engine);
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
            prefetch_landed(&engine);
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
            assert_eq!(engine.state_pool_outstanding(), held(&engine));
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

    /// The subgroups whose `update_kernel` spans in `events` ran on a
    /// tier's I/O worker (`on_worker`), or anywhere.
    fn kernels(events: &[mlp_trace::TraceEvent], on_worker: bool) -> Vec<i64> {
        let kernel = |e: &&mlp_trace::TraceEvent| e.phase == Phase::UpdateKernel;
        let ran = |e: &&mlp_trace::TraceEvent| !on_worker || e.tier >= 0;
        events
            .iter()
            .filter(kernel)
            .filter(ran)
            .map(|e| e.subgroup)
            .collect()
    }

    /// A flush fails while fetches whose update an I/O worker already
    /// applied wait in the window: the unwind drops those frames, and the
    /// re-drive applies each subgroup's update exactly once.
    ///
    /// The schedule is fixed. The born pass's update issues the steady
    /// pass's reads of subgroups 18 down to 14 into the five free frames,
    /// and they fail: the steady pass updates and evicts its five hits,
    /// 23 to 19, and fails at 18. Its re-drive starts with all ten frames
    /// free and every subgroup on the tier: it fetches 23 down to 14
    /// before it waits on anything, and only then flushes 23, whose write
    /// fails. The tier's one I/O worker runs its ops in order, so it reads
    /// (and updates) 15 and 14 before it fails that write, and lands no
    /// later write before it: no frame comes back, and at the latest at
    /// the update of 15 the pool is dry and the pass waits for 23's flush,
    /// with 15 and 14 in the window.
    #[test]
    fn a_failed_flush_drops_proposed_updates_and_the_redrive_applies_each_once() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, FaultOps};
        const M: usize = 24;
        const N: usize = 256;
        let adam = AdamConfig::default();
        let trace = TraceSink::enabled();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(5)
            .with_trace(trace.clone());
        let dying = DoomedWrites::new(23..24, false);
        let reads = FaultConfig::permanent(5, 1.0).with_ops(FaultOps::ReadsOnly);
        let unread = Arc::new(FaultInjectBackend::new(Arc::clone(&dying) as Arc<dyn Backend>, reads));
        let one_worker = AioConfig {
            workers: 1,
            ..AioConfig::default()
        };
        let tier = SharedTier::new(Arc::clone(&unread) as Arc<dyn Backend>, 1.0).with_aio(one_worker);
        let mut engine = MlpFuncEngine::new(cfg, adam, &[tier], 0, init_states(M, N)).unwrap();
        let mut reference = init_states(M, N);
        for it in 0..3 {
            let grads = grads_for(M, N, it as f32);
            reference_update(&mut reference, &adam, &grads);
            engine.accumulate_gradients(&grads);
            if it != 1 {
                engine.update().unwrap();
                prefetch_landed(&engine);
                unread.set_armed(false);
                continue;
            }
            let err = engine.update().unwrap_err();
            assert!(err.to_string().contains("w0/sub18"), "{err}");
            drop(trace.events());
            dying.arm(true);
            let err = engine.update().unwrap_err();
            dying.arm(false);
            assert!(err.to_string().contains("w0/sub23: device gone"), "{err}");
            assert_eq!(engine.state_pool_outstanding(), held(&engine));
            let proposed = kernels(&trace.events(), true);
            let got = engine.update().unwrap();
            let redriven = kernels(&trace.events(), false);
            for s in [15, 14] {
                assert!(proposed.contains(&s), "{s} was updated on a worker: {proposed:?}");
                assert!(redriven.contains(&s), "{s}'s update was dropped: {redriven:?}");
            }
            let mut once = redriven.clone();
            once.sort_unstable();
            once.dedup();
            assert_eq!(once.len(), redriven.len(), "the re-drive updates each subgroup once");
            for (idx, st) in reference.iter().enumerate() {
                assert_eq!(got.fp16_params[idx], st.fp16_params(), "subgroup {idx}");
            }
        }
        let want: Vec<Vec<f32>> = reference.into_iter().map(|st| st.params).collect();
        assert_eq!(engine.master_params().unwrap(), want);
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// The fused update runs on the I/O worker that fetched the subgroup
    /// (its span names the worker's tier) only where the state read is
    /// the subgroup's one read, of a frame up to `HOT_FRAME`: never on the
    /// eager-gradient path, nor for a larger frame. A worker runs it only
    /// when its read lands before the driver waits, so the MLP preset
    /// trains until one has.
    #[test]
    fn fetch_workers_apply_the_update_only_where_the_state_is_the_only_read() {
        let big = HOT_FRAME / 12 + 1;
        for (cfg, m, n, on_workers) in [
            (EngineConfig::mlp_offload(), 32, 1024, true),
            (EngineConfig::deepspeed_zero3(), 32, 1024, false),
            (EngineConfig::mlp_offload(), 8, big, false),
        ] {
            let trace = mlp_trace::TraceSink::enabled();
            let cfg = cfg.with_host_frames(4).with_trace(trace.clone());
            let mut engine =
                MlpFuncEngine::new(cfg, AdamConfig::default(), &tiers(2), 0, init_states(m, n))
                    .unwrap();
            let (mut kernels_run, mut on_worker) = (0, 0);
            for it in 0..40 {
                engine.accumulate_gradients(&grads_for(m, n, it as f32));
                engine.flush_gradients().unwrap();
                engine.update().unwrap();
                let events = trace.events();
                kernels_run += kernels(&events, false).len();
                on_worker += kernels(&events, true).len();
                if it >= 3 && (on_worker > 0 || !on_workers) {
                    break;
                }
            }
            assert_eq!(kernels_run % m, 0, "one kernel per subgroup and pass");
            assert_eq!(on_worker > 0, on_workers, "{on_worker} kernels ran on I/O workers");
        }
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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));

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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// A fault on the first pass's first eviction, the first write of any
    /// subgroup's state, unwinds with every born subgroup still held: not
    /// loaded yet, resting in a frame, reclaimed from its failed flush or
    /// on the tier, each either as it was born or as the fault-free twin
    /// updated it. The re-drive finishes the iteration bit-identically.
    #[test]
    fn a_failed_first_eviction_loses_no_born_state_and_the_redrive_is_exact() {
        use mlp_storage::{classify, ErrorClass};
        // The pool bounds how many flushes leave unnoticed, so the pass
        // fails with most of the shard still ahead of it: born, or in the
        // window.
        const SHARD: usize = 64;
        let adam = AdamConfig::default();
        let cfg = EngineConfig::mlp_offload().with_host_frames(5);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(1), 0, init_states(SHARD, 24)).unwrap();
        let grads = grads_for(SHARD, 24, 0.0);
        twin.accumulate_gradients(&grads);
        let want = twin.update().unwrap();
        let updated = twin.master_params().unwrap();
        let (first, _) = twin.pass_plan().evictions().next().unwrap();

        let dying = DoomedWrites::new(first..first + 1, false);
        dying.arm(true);
        let tier = SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 1.0);
        let mut engine = MlpFuncEngine::new(cfg, adam, &[tier], 0, init_states(SHARD, 24)).unwrap();
        engine.accumulate_gradients(&grads);
        let err = engine.update().unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent, "{err}");
        assert!(engine.update_in_progress());
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
        let born = init_states(SHARD, 24).into_iter().map(|s| s.params);
        for (idx, (held, born)) in engine.master_params().unwrap().iter().zip(born).enumerate() {
            let kept = held == &born || held == &updated[idx];
            assert!(kept, "subgroup {idx} lost");
        }

        dying.arm(false);
        let got = engine.update().unwrap();
        assert_eq!(got.fp16_params, want.fp16_params, "re-driven first pass");
        for it in 1..4 {
            let (want, got) = iterate_both(&mut twin, &mut engine, it as f32);
            let got = got.unwrap();
            assert_eq!(got.fp16_params, want.fp16_params, "iteration {it}");
        }
        assert_eq!(
            engine.master_params().unwrap(),
            twin.master_params().unwrap()
        );
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
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

        // The first pass is clean: the engine is born holding every
        // subgroup, so it flushes no gradients and leaves all 64 on the
        // tier.
        iterate_both(&mut twin, &mut engine, 0.0).1.unwrap();
        let grads = grads_for(SHARD, 24, 1.0);
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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));

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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// The order of one pass's tail I/O, forced instead of raced for:
    /// once armed with a read count, that read to reach any backend
    /// sharing the gate waits until `writes` writes have reached them, for
    /// at most `patience`; a wait that runs out is recorded and the read
    /// goes on.
    struct TailGate {
        /// `(the read to hold once armed, reads, writes)` seen since
        /// arming.
        seen: std::sync::Mutex<(Option<usize>, usize, usize)>,
        moved: std::sync::Condvar,
        writes: usize,
        patience: Duration,
        ran_out: std::sync::atomic::AtomicBool,
    }

    impl TailGate {
        fn new(writes: usize, patience: Duration) -> Arc<Self> {
            Arc::new(TailGate {
                seen: std::sync::Mutex::new((None, 0, 0)),
                moved: std::sync::Condvar::new(),
                writes,
                patience,
                ran_out: false.into(),
            })
        }

        fn arm(&self, read: usize) {
            *self.seen.lock().unwrap() = (Some(read), 0, 0);
        }

        fn wrote(&self) {
            let mut seen = self.seen.lock().unwrap();
            if seen.0.is_some() {
                seen.2 += 1;
                self.moved.notify_all();
            }
        }

        fn reading(&self) {
            let mut seen = self.seen.lock().unwrap();
            let Some(hold) = seen.0 else {
                return;
            };
            seen.1 += 1;
            if seen.1 != hold {
                return;
            }
            let writes = self.writes;
            let (seen, waited) = self
                .moved
                .wait_timeout_while(seen, self.patience, |seen| seen.2 < writes)
                .unwrap();
            drop(seen);
            if waited.timed_out() {
                self.ran_out
                    .store(true, std::sync::atomic::Ordering::SeqCst);
            }
        }
    }

    /// A throttled memory tier behind a [`TailGate`].
    struct Gated {
        inner: MemBackend,
        gate: Arc<TailGate>,
    }

    impl Backend for Gated {
        fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
            self.gate.wrote();
            self.inner.write(key, data)
        }
        fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
            self.gate.wrote();
            self.inner.write_frame(key, frame)
        }
        fn read(&self, key: &str) -> io::Result<Vec<u8>> {
            self.gate.reading();
            self.inner.read(key)
        }
        fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
            self.gate.reading();
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

    /// The tail of a pass's flushes overlaps the tail of its fetches: the
    /// evictions leave when the order makes them certain, not after the
    /// retained tail has been fetched. The gate holds the steady-state
    /// pass's last fetch until its last flush has reached a tier, so an
    /// engine that flushed the evictions only after the fetches would
    /// keep it waiting out the gate's patience.
    #[test]
    fn tail_flushes_overlap_tail_fetches_and_the_window_runs_as_deep_as_the_pool() {
        use crate::policy::cache::MIN_PIPELINE_FRAMES;
        const SHARD: usize = 16;
        const MOVED: usize = SHARD - SHARD / 4;
        let adam = AdamConfig::default();
        let gate = TailGate::new(MOVED, Duration::from_secs(10));
        // 768-byte subgroups at 128 kB/s: 6 ms per fetch and per flush,
        // orders of magnitude above the kernel and the bookkeeping, on
        // two workers per tier.
        let slow_tiers = |n: usize, gate: Option<&Arc<TailGate>>| -> Vec<SharedTier> {
            (0..n)
                .map(|i| {
                    let medium = MemBackend::throttled(format!("slow{i}"), 128e3, 128e3);
                    let backend: Arc<dyn Backend> = match gate {
                        Some(gate) => Arc::new(Gated {
                            inner: medium,
                            gate: Arc::clone(gate),
                        }),
                        None => Arc::new(medium),
                    };
                    SharedTier::new(backend, 1.0).with_aio(AioConfig::deterministic())
                })
                .collect()
        };
        let trace = mlp_trace::TraceSink::enabled();
        // A quarter of the shard rests in the host frames.
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(SHARD / 4)
            .with_tier_ratio(vec![1.0, 1.0])
            .with_trace(trace.clone());
        let tiers = slow_tiers(2, Some(&gate));
        let mut engine = MlpFuncEngine::new(cfg, adam, &tiers, 0, init_states(SHARD, 64)).unwrap();
        for it in 0..3 {
            engine.accumulate_gradients(&grads_for(SHARD, 64, it as f32));
            engine.update().unwrap();
        }
        prefetch_landed(&engine);
        trace.events(); // keep the steady-state iteration only
        engine.accumulate_gradients(&grads_for(SHARD, 64, 3.0));
        // The pass reads what the last update did not issue for it.
        let lead = engine.prefetched_reads().len();
        gate.arm(MOVED - lead);
        let outcome = engine.update().unwrap();
        assert_eq!(
            (outcome.cache_hits, outcome.fetches, outcome.flushes),
            (SHARD / 4, MOVED, MOVED)
        );
        assert!(
            !gate.ran_out.load(std::sync::atomic::Ordering::SeqCst),
            "the last fetch waited {:?} for the last flush to reach a tier",
            gate.patience
        );
        // The pass's events, not the reads it issues for the next one.
        let events = trace.events();
        let update = events.iter().find(|e| e.phase == Phase::Update);
        let ends = update.map(|e| e.end_ns()).unwrap();
        let of = |phase: Phase| (events.iter()).filter(move |e| e.phase == phase && e.ts_ns < ends);

        // Hence the last flush began before the last fetch ended.
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
        assert_eq!(submits.len() + lead, outcome.fetches);
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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));

        // The eager-gradient rung prefetches two buffers per subgroup;
        // the deeper window must not ask the pool for more than it has
        // (it would wait forever: nothing else returns buffers).
        let mut baseline = MlpFuncEngine::new(
            EngineConfig::deepspeed_zero3(),
            adam,
            &slow_tiers(1, None),
            0,
            init_states(SHARD, 64),
        )
        .unwrap();
        // Its first pass loads nothing from a tier: every subgroup is born
        // in host memory.
        for it in 0..3 {
            baseline.accumulate_gradients(&grads_for(SHARD, 64, it as f32));
            baseline.flush_gradients().unwrap();
            let outcome = baseline.update().unwrap();
            let fetches = if it == 0 { 0 } else { SHARD };
            assert_eq!((outcome.fetches, outcome.flushes), (fetches, SHARD));
        }
        let (_, high_water, capacity) = baseline.state_pool_stats();
        assert!(
            high_water <= capacity,
            "{high_water} buffers out of a pool of {capacity}"
        );
        assert_eq!(baseline.state_pool_outstanding(), 0);
    }

    /// Every span carries the thread that ran it: the engine's worker id
    /// as `pid`, one `tid` for the thread driving it, and one per I/O
    /// worker of each tier.
    #[test]
    fn traced_spans_carry_the_worker_and_the_thread_that_ran_them() {
        const SHARD: usize = 16;
        let trace = mlp_trace::TraceSink::enabled();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(SHARD / 4)
            .with_tier_ratio(vec![1.0, 1.0])
            .with_trace(trace.clone());
        let tiers: Vec<SharedTier> = (0..2)
            .map(|i| {
                let medium = MemBackend::throttled(format!("slow{i}"), 1e6, 1e6);
                SharedTier::new(Arc::new(medium), 1.0).with_aio(AioConfig::deterministic())
            })
            .collect();
        let adam = AdamConfig::default();
        let mut engine = MlpFuncEngine::new(cfg, adam, &tiers, 3, init_states(SHARD, 64)).unwrap();
        for it in 0..4 {
            engine.accumulate_gradients(&grads_for(SHARD, 64, it as f32));
            engine.update().unwrap();
        }
        let events = trace.events();
        assert!(events.iter().all(|e| e.pid == 3), "an event off worker 3's track");
        let update = events.iter().find(|e| e.phase == Phase::Update).unwrap();
        assert_eq!(update.tid, mlp_trace::DRIVER_TID);
        for tier in 0..2 {
            let lanes: std::collections::BTreeSet<u32> = (events.iter())
                .filter(|e| e.tier == tier && matches!(e.phase, Phase::AioRead | Phase::AioWrite))
                .map(|e| e.tid)
                .collect();
            let want = [0, 1].map(|k| mlp_aio::engine::lane_tid(tier, k));
            assert_eq!(lanes, want.into(), "tier {tier}'s I/O lanes");
            assert!(!lanes.contains(&update.tid));
        }
    }

    /// With "Process Atomic R/W" off no tier op takes a node lock, the
    /// drain's moves included: another holder of both tiers' locks does
    /// not stop the quarantine-and-drain.
    #[test]
    fn a_drain_without_tier_locking_ignores_the_tier_locks() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, FaultOps, HealthConfig};
        use std::sync::mpsc;
        const SHARD: usize = 24;
        let mut cfg = EngineConfig::mlp_offload().with_host_frames(3);
        cfg.tier_exclusive_locking = false;
        let inject = Arc::new(FaultInjectBackend::new(
            Arc::new(MemBackend::new("dying")) as Arc<dyn Backend>,
            FaultConfig::permanent(11, 1.0).with_ops(FaultOps::WritesOnly),
        ));
        inject.set_armed(false);
        let health = TierHealth::new("dying", HealthConfig::hair_trigger());
        let shared = [
            SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, 2.0)
                .with_health(Arc::clone(&health)),
            SharedTier::new(
                Arc::new(MemBackend::new("survivor")) as Arc<dyn Backend>,
                1.0,
            ),
        ];
        let adam = AdamConfig::default();
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(SHARD, 24)).unwrap();
        for it in 0..3 {
            engine.accumulate_gradients(&grads_for(SHARD, 24, it as f32));
            inject.set_armed(it == 2);
            let _ = engine.update();
        }
        assert!(health.is_quarantined() && engine.update_in_progress());

        let locks: Vec<ProcessExclusiveLock> = shared.iter().map(|t| t.lock.clone()).collect();
        let (held, release) = (mpsc::channel(), mpsc::channel::<()>());
        let holder = std::thread::spawn(move || {
            let _guards: Vec<TierGuard> = locks.iter().map(|l| l.acquire(7)).collect();
            held.0.send(()).unwrap();
            let _ = release.1.recv();
        });
        held.1.recv().unwrap();
        let (done, redrive) = mpsc::channel();
        std::thread::spawn(move || {
            let result = engine.update().map(drop);
            let _ = done.send((engine, result));
        });
        let answer = redrive.recv_timeout(Duration::from_secs(30));
        release.0.send(()).unwrap();
        holder.join().unwrap();
        let (engine, result) = answer.expect("the drain waited for a tier lock it must not take");
        result.unwrap();
        assert!(engine.drains_done() > 0, "nothing was drained");
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
        // Three of six subgroups are born resting (the pipeline's minimum
        // of frames); the other three live on the tier.
        let mut engine = MlpFuncEngine::new(
            EngineConfig::mlp_offload().with_host_frames(2),
            adam,
            &[tier],
            0,
            init_states(6, 8),
        )
        .unwrap();
        engine.accumulate_gradients(&grads_for(6, 8, 0.0));
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

    /// A memory backend whose deletes hang, while hung, until released:
    /// a device that stopped answering them.
    struct HungDeletes {
        inner: MemBackend,
        hung: std::sync::Mutex<bool>,
        released: std::sync::Condvar,
        /// Deletes that hung.
        stuck: std::sync::atomic::AtomicUsize,
    }

    impl HungDeletes {
        fn new() -> Arc<Self> {
            Arc::new(HungDeletes {
                inner: MemBackend::new("hung"),
                hung: std::sync::Mutex::new(false),
                released: std::sync::Condvar::new(),
                stuck: 0.into(),
            })
        }

        fn hang(&self, hung: bool) {
            *self.hung.lock().unwrap() = hung;
            self.released.notify_all();
        }
    }

    impl Backend for HungDeletes {
        fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
            self.inner.write(key, data)
        }
        fn read(&self, key: &str) -> io::Result<Vec<u8>> {
            self.inner.read(key)
        }
        fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
            self.inner.read_into(key, dst)
        }
        fn delete(&self, key: &str) -> io::Result<()> {
            let hung = self.hung.lock().unwrap();
            if *hung {
                self.stuck.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            drop(self.released.wait_while(hung, |hung| *hung).unwrap());
            self.inner.delete(key)
        }
        fn contains(&self, key: &str) -> bool {
            self.inner.contains(key)
        }
        fn name(&self) -> &str {
            "hung"
        }
    }

    /// A quarantined tier whose deletes hang for good costs the drain one
    /// deadline per copy it retires there, and nothing after: nothing
    /// writes that tier again, so the late deletes are let go, and
    /// training goes on without the tier, exact. Each hung delete holds
    /// an I/O worker, so the tier has one per subgroup. The scenario runs
    /// on a thread under a harness timeout, so an engine that waits for
    /// the deletes fails the test, not hangs it.
    #[test]
    fn a_quarantined_tier_whose_deletes_hang_for_good_does_not_stop_training() {
        use mlp_storage::HealthConfig;
        const DEADLINE: Duration = Duration::from_millis(50);
        const M: usize = 12;
        let hung = HungDeletes::new();
        let (tx, rx) = std::sync::mpsc::channel();
        let victim = Arc::clone(&hung);
        let scenario = std::thread::spawn(move || {
            let health = TierHealth::new("hung", HealthConfig::default());
            let aio = AioConfig {
                workers: M,
                deadline: Some(DEADLINE),
                ..AioConfig::default()
            };
            let tier = SharedTier::new(Arc::clone(&victim) as Arc<dyn Backend>, 2.0)
                .with_aio(aio)
                .with_health(Arc::clone(&health));
            let survivor =
                SharedTier::new(Arc::new(MemBackend::new("ok")) as Arc<dyn Backend>, 1.0);
            let cfg = EngineConfig::mlp_offload().with_host_frames(3);
            let adam = AdamConfig::default();
            let tiers = [tier, survivor];
            let mut engine = MlpFuncEngine::new(cfg, adam, &tiers, 0, init_states(M, 24)).unwrap();
            let mut reference = init_states(M, 24);
            let mut passes = Vec::new();
            for it in 0..5 {
                if it == 1 {
                    health.quarantine();
                    victim.hang(true);
                }
                let grads = grads_for(M, 24, it as f32);
                reference_update(&mut reference, &adam, &grads);
                engine.accumulate_gradients(&grads);
                passes.push(engine.update().map(drop));
            }
            let want: Vec<Vec<f32>> = reference.into_iter().map(|st| st.params).collect();
            let exact = engine.master_params().map(|got| got == want);
            let _ = tx.send((passes, exact, engine.quarantined_tiers(), engine.drains_done()));
        });
        let result = rx.recv_timeout(Duration::from_secs(20));
        // Lets the workers the deletes hold go, so the engine can drop.
        hung.hang(false);
        let (passes, exact, quarantined, drained) = result.expect("no result within 20 s");
        scenario.join().expect("scenario thread");
        for (it, pass) in passes.iter().enumerate() {
            assert!(pass.is_ok(), "pass {it}: {pass:?}");
        }
        assert!(exact.unwrap(), "the params diverge from in-memory Adam");
        assert_eq!(quarantined, vec![0]);
        assert!(drained > 0, "the drain moved nothing");
        let stuck = hung.stuck.load(std::sync::atomic::Ordering::SeqCst);
        assert!(stuck > 0, "no delete hung");
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
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
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
                        assert_eq!(engine.state_pool_outstanding(), held(&engine), "{what}");
                        // The next pass's leading fetches hold buffers
                        // of its window.
                        let free = capacity - resting;
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
        // All 10 born in host memory × 4 params × 12 B, then 7 retained.
        assert_eq!(engine.tier_distribution().host_bytes, 10 * 4 * 12);
        engine.accumulate_gradients(&grads_for(10, 4, 0.0));
        engine.update().unwrap();
        let dist = engine.tier_distribution();
        assert_eq!(dist.host_bytes, 7 * 4 * 12, "7 retained × 4 params × 12 B");
        assert!((dist.fractions().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    /// A memory tier that logs when each read begins and ends, in order,
    /// and holds the first read of one key until released, for at most
    /// `patience`.
    struct Watched {
        inner: MemBackend,
        /// `(read began, key)` per entry; `false` marks its end.
        log: std::sync::Mutex<Vec<(bool, String)>>,
        /// The key whose first read waits, and whether it waits now.
        hold: std::sync::Mutex<(Option<String>, bool)>,
        moved: std::sync::Condvar,
        patience: Duration,
    }

    impl Watched {
        fn new(inner: MemBackend, hold: Option<String>, patience: Duration) -> Arc<Self> {
            Arc::new(Watched {
                inner,
                log: Default::default(),
                hold: std::sync::Mutex::new((hold, false)),
                moved: Default::default(),
                patience,
            })
        }

        /// The keys read so far, in the order the reads began.
        fn reads(&self) -> Vec<String> {
            let log = self.log.lock().unwrap();
            log.iter().filter(|(began, _)| *began).map(|(_, key)| key.clone()).collect()
        }

        /// Where in the log the `nth` read of `key` began, or ended.
        fn at(&self, key: &str, nth: usize, began: bool) -> Option<usize> {
            let log = self.log.lock().unwrap();
            let of_key = log.iter().enumerate().filter(|(_, e)| (e.0, &e.1[..]) == (began, key));
            of_key.map(|(at, _)| at).nth(nth)
        }

        /// Waits until the held read has reached the tier.
        fn holding(&self) {
            let hold = self.hold.lock().unwrap();
            let patience = Duration::from_secs(10);
            drop(self.moved.wait_timeout_while(hold, patience, |h| !h.1).unwrap());
        }

        fn release(&self) {
            *self.hold.lock().unwrap() = (None, false);
            self.moved.notify_all();
        }
    }

    impl Backend for Watched {
        fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
            self.inner.write(key, data)
        }
        fn read(&self, key: &str) -> io::Result<Vec<u8>> {
            self.log.lock().unwrap().push((true, key.to_string()));
            let read = self.inner.read(key);
            self.log.lock().unwrap().push((false, key.to_string()));
            read
        }
        fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
            self.log.lock().unwrap().push((true, key.to_string()));
            let mut hold = self.hold.lock().unwrap();
            if hold.0.as_deref() == Some(key) {
                *hold = (Some(String::new()), true);
                self.moved.notify_all();
                hold = (self.moved.wait_timeout_while(hold, self.patience, |h| h.1)).unwrap().0;
            }
            drop(hold);
            let read = self.inner.read_into(key, dst);
            self.log.lock().unwrap().push((false, key.to_string()));
            read
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

    /// The update that ends a pass issues the next pass's leading fetches
    /// into the pool's free buffers, in plan order; the next pass takes
    /// each as its fetch and reads none of those subgroups again, with the
    /// hits, fetches and flushes of the closed form.
    #[test]
    fn an_update_issues_the_next_passs_leading_fetches_and_the_pass_reads_each_once() {
        const M: usize = 24;
        let adam = AdamConfig::default();
        let tier = Watched::new(MemBackend::new("watched"), None, Duration::ZERO);
        let shared = [SharedTier::new(Arc::clone(&tier) as Arc<dyn Backend>, 1.0)];
        let cfg = EngineConfig::mlp_offload().with_host_frames(5);
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(M, 16)).unwrap();
        let (mut reference, r) = (init_states(M, 16), engine.ledger.plan.rest_frames);
        for it in 0..4 {
            let grads = grads_for(M, 16, it as f32);
            reference_update(&mut reference, &adam, &grads);
            engine.accumulate_gradients(&grads);
            let (lead, before) = (engine.prefetched_reads(), tier.reads().len());
            assert!(lead.iter().all(|&(.., landed)| landed), "iteration {it}");
            let o = engine.update().unwrap();
            let steps = (o.cache_hits, o.fetches, o.flushes);
            assert_eq!(steps, if it == 0 { (M, 0, M - r) } else { (r, M - r, M - r) });
            prefetch_landed(&engine);
            // What it issued for the next pass: its leading fetches, as
            // many as the pool has free buffers.
            let free = engine.state_pool_stats().2 - engine.resident_count();
            let plan = engine.ledger.upcoming_pass();
            let want: Vec<(usize, usize)> = plan.leading_fetches().take(free).collect();
            let next = engine.prefetched_reads();
            let got: Vec<(usize, usize)> = next.iter().map(|&(s, t, _)| (s, t)).collect();
            assert_eq!((got.len(), &got), (free, &want), "iteration {it}");
            // The pass read each of its fetches once, but those issued for
            // it before it began; the reads it issued for the next pass
            // came last.
            let mut reads = tier.reads().split_off(before);
            for &(s, ..) in &next {
                let at = reads.iter().rposition(|k| *k == format!("w0/sub{s}"));
                reads.remove(at.unwrap());
            }
            assert_eq!(reads.len(), o.fetches - lead.len(), "iteration {it}");
            for s in 0..M {
                let key = format!("w0/sub{s}");
                let n = reads.iter().filter(|k| **k == key).count();
                let lead = lead.iter().any(|r| r.0 == s);
                assert!(n <= usize::from(!lead), "iteration {it}: {key} read {n} times");
            }
            for (idx, st) in reference.iter().enumerate() {
                assert_eq!(o.fp16_params[idx], st.fp16_params(), "subgroup {idx}");
            }
        }
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// Over two tiers at 2:1 the reads an update issues for the next pass
    /// are dealt one per tier in turn, so whenever two buffers are free
    /// every tier with a leading fetch has one in flight; the next pass
    /// reads none of them again, and training stays bit-identical.
    #[test]
    fn reads_issued_for_the_next_pass_feed_every_tier_with_a_leading_fetch() {
        const M: usize = 24;
        let adam = AdamConfig::default();
        let watched =
            [0, 1].map(|i| Watched::new(MemBackend::new(format!("w{i}")), None, Duration::ZERO));
        let shared: Vec<SharedTier> = (watched.iter().zip([2.0, 1.0]))
            .map(|(tier, w)| SharedTier::new(Arc::clone(tier) as Arc<dyn Backend>, w))
            .collect();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(5)
            .with_tier_ratio(vec![2.0, 1.0]);
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(M, 16)).unwrap();
        let mut reference = init_states(M, 16);
        let mut lead = Vec::new();
        for it in 0..6 {
            let grads = grads_for(M, 16, it as f32);
            reference_update(&mut reference, &adam, &grads);
            engine.accumulate_gradients(&grads);
            let before = watched.each_ref().map(|t| t.reads().len());
            let o = engine.update().unwrap();
            prefetch_landed(&engine);
            let next = engine.prefetched_reads();
            let free = engine.state_pool_stats().2 - engine.resident_count();
            let plan = engine.ledger.upcoming_pass();
            let leading: Vec<(usize, usize)> = plan.leading_fetches().collect();
            // Each tier's share is its leading fetches or one less than
            // the other's, whichever is fewer: here 3 + 2 of 5, where
            // plan order would give 4 + 1.
            let on = |v: &[(usize, usize)], t| v.iter().filter(|r| r.1 == t).count();
            let issued: Vec<(usize, usize)> = next.iter().map(|&(s, t, _)| (s, t)).collect();
            assert_eq!(issued.len(), free.min(leading.len()), "iteration {it}");
            for (t, u) in [(0, 1), (1, 0)] {
                let share = on(&leading, t).min(on(&issued, u).saturating_sub(1));
                assert!(on(&issued, t) >= share, "iteration {it}: tier {t} starved in {issued:?}");
            }
            // The pass read each subgroup at most once, and none whose
            // read the update before it issued.
            for (t, tier) in watched.iter().enumerate() {
                let mut reads = tier.reads().split_off(before[t]);
                for &(s, ..) in next.iter().filter(|r| r.1 == t) {
                    let at = reads.iter().rposition(|k| *k == format!("w0/sub{s}"));
                    reads.remove(at.unwrap());
                }
                for s in 0..M {
                    let key = format!("w0/sub{s}");
                    let n = reads.iter().filter(|k| **k == key).count();
                    let issued = lead.iter().any(|&(l, lt, _)| (l, lt) == (s, t));
                    let what = format!("iteration {it}: {key} read {n} times on tier {t}");
                    assert!(n <= usize::from(!issued), "{what}");
                }
            }
            for (idx, st) in reference.iter().enumerate() {
                assert_eq!(o.fp16_params[idx], st.fp16_params(), "subgroup {idx}");
            }
            lead = next;
        }
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// A read issued for the next pass that its tier fails for good fails
    /// that pass, typed, leaks no buffer, and the re-drive ends
    /// bit-identical to a twin that never failed.
    #[test]
    fn a_prefetched_read_that_fails_fails_its_pass_and_the_redrive_is_exact() {
        use mlp_storage::{FaultConfig, FaultInjectBackend, FaultOps};
        const M: usize = 12;
        let adam = AdamConfig::default();
        let reads = FaultConfig::permanent(3, 1.0).with_ops(FaultOps::ReadsOnly);
        let mem = Arc::new(MemBackend::new("dying")) as Arc<dyn Backend>;
        let dying = Arc::new(FaultInjectBackend::new(mem, reads));
        dying.set_armed(false);
        let shared = [
            SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 2.0),
            SharedTier::new(Arc::new(MemBackend::new("mem1")) as Arc<dyn Backend>, 1.0),
        ];
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(3)
            .with_tier_ratio(vec![2.0, 1.0]);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(2), 0, init_states(M, 24)).unwrap();
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(M, 24)).unwrap();
        let grads = grads_for(M, 24, 0.0);
        twin.accumulate_gradients(&grads);
        twin.update().unwrap();
        // The born pass reads nothing: only the reads its update issues
        // for the next pass meet the dead tier.
        engine.accumulate_gradients(&grads);
        dying.set_armed(true);
        engine.update().unwrap();
        let lead = engine.prefetched_reads();
        assert!(lead.iter().any(|r| r.1 == 0), "no read issued on the dead tier: {lead:?}");
        prefetch_landed(&engine);
        dying.set_armed(false);

        let (want, got) = iterate_both(&mut twin, &mut engine, 1.0);
        let err = got.unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
        assert!(engine.prefetched_reads().is_empty());
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
        let redriven = engine.update().unwrap();
        assert_eq!(redriven.fp16_params, want.fp16_params);
        let (want, got) = iterate_both(&mut twin, &mut engine, 2.0);
        assert_eq!(got.unwrap().fp16_params, want.fp16_params);
        assert_eq!(engine.master_params().unwrap(), twin.master_params().unwrap());
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// `master_params` and a checkpoint read or pin only durable copies
    /// and host frames: while a read issued for the next pass is held on
    /// its tier, both answer as a twin's with that read landed does, and
    /// the next pass takes the read once it lands.
    #[test]
    fn master_params_and_checkpoints_answer_while_a_prefetched_read_is_held() {
        const M: usize = 12;
        let adam = AdamConfig::default();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(3)
            .with_tier_ratio(vec![2.0, 1.0]);
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(2), 0, init_states(M, 24)).unwrap();
        let grads = grads_for(M, 24, 0.0);
        twin.accumulate_gradients(&grads);
        twin.update().unwrap();
        // The twin issues the same reads: hold the first on its tier, with
        // a second I/O worker there for everything else.
        let (s, t, _) = twin.prefetched_reads()[0];
        // The patience only keeps a broken engine from hanging the suite.
        let (key, patience) = (Some(format!("w0/sub{s}")), Duration::from_secs(10));
        let gate = Watched::new(MemBackend::new("gated"), key, patience);
        let two_workers = AioConfig {
            workers: 2,
            ..AioConfig::default()
        };
        let shared: Vec<SharedTier> = (0..2)
            .map(|i| {
                let backend = match i == t {
                    true => Arc::clone(&gate) as Arc<dyn Backend>,
                    false => Arc::new(MemBackend::new(format!("mem{i}"))) as Arc<dyn Backend>,
                };
                SharedTier::new(backend, (2 - i) as f64).with_aio(two_workers.clone())
            })
            .collect();
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(M, 24)).unwrap();
        engine.accumulate_gradients(&grads);
        engine.update().unwrap();
        gate.holding();
        assert!(engine.prefetched_reads().contains(&(s, t, false)));

        assert_eq!(engine.master_params().unwrap(), twin.master_params().unwrap());
        let mem = |name| Arc::new(MemBackend::new(name)) as Arc<dyn Backend>;
        let trace = mlp_trace::TraceSink::disabled;
        let mut pipes = [0, 1].map(|_| CheckpointPipeline::new(mem("stage"), mem("ckpt"), trace()));
        let got = pipes[0].checkpoint(&engine, "c").unwrap();
        let want = pipes[1].checkpoint(&twin, "c").unwrap();
        assert_eq!(got, want);
        assert!(engine.prefetched_reads().contains(&(s, t, false)), "the read still waits");

        gate.release();
        let (want, got) = iterate_both(&mut twin, &mut engine, 1.0);
        assert_eq!(got.unwrap().fp16_params, want.fp16_params);
        assert_eq!(engine.master_params().unwrap(), twin.master_params().unwrap());
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }

    /// A tier quarantined between two updates: before the drain moves a
    /// copy, the engine waits for the read of it that it issued for the
    /// next pass, and drops it; training stays bit-identical.
    #[test]
    fn a_quarantine_between_updates_drops_the_reads_issued_on_the_dead_tier() {
        use mlp_storage::HealthConfig;
        const M: usize = 12;
        let adam = AdamConfig::default();
        let cfg = EngineConfig::mlp_offload()
            .with_host_frames(3)
            .with_tier_ratio(vec![2.0, 1.0]);
        // The born pass reads nothing, and the twin issues the same reads:
        // hold the first one on the tier to quarantine for 200 ms, so a
        // drain that did not wait for it would read the copy meanwhile, on
        // the tier's second I/O worker.
        let mut twin =
            MlpFuncEngine::new(cfg.clone(), adam, &tiers(2), 0, init_states(M, 24)).unwrap();
        twin.accumulate_gradients(&grads_for(M, 24, 0.0));
        twin.update().unwrap();
        let lead = twin.prefetched_reads().into_iter().find(|r| r.1 == 0);
        let key = format!("w0/sub{}", lead.expect("a read issued on tier 0").0);
        let patience = Duration::from_millis(200);
        let dying = Watched::new(MemBackend::new("dying"), Some(key.clone()), patience);
        let health = TierHealth::new("dying", HealthConfig::hair_trigger());
        let two_workers = AioConfig {
            workers: 2,
            ..AioConfig::default()
        };
        let shared = [
            SharedTier::new(Arc::clone(&dying) as Arc<dyn Backend>, 2.0)
                .with_aio(two_workers.clone())
                .with_health(Arc::clone(&health)),
            SharedTier::new(Arc::new(MemBackend::new("mem1")) as Arc<dyn Backend>, 1.0)
                .with_aio(two_workers),
        ];
        let mut engine = MlpFuncEngine::new(cfg, adam, &shared, 0, init_states(M, 24)).unwrap();
        let mut reference = init_states(M, 24);
        for it in 0..4 {
            let grads = grads_for(M, 24, it as f32);
            reference_update(&mut reference, &adam, &grads);
            engine.accumulate_gradients(&grads);
            if it == 1 {
                // The read reached the tier: a breaker that opened first
                // would refuse it there, and the drain read the copy once.
                dying.holding();
                health.quarantine();
            }
            let got = engine.update().unwrap();
            for (idx, st) in reference.iter().enumerate() {
                assert_eq!(got.fp16_params[idx], st.fp16_params(), "iteration {it}, {idx}");
            }
        }
        assert_eq!(engine.quarantined_tiers(), vec![0]);
        assert!(engine.drains_done() > 0);
        // The held read ended before the drain read the copy.
        let (ended, drained) = (dying.at(&key, 0, false), dying.at(&key, 1, true));
        assert!(ended.is_some() && ended < drained, "{key}: {ended:?}, {drained:?}");
        let want: Vec<Vec<f32>> = reference.into_iter().map(|st| st.params).collect();
        assert_eq!(engine.master_params().unwrap(), want);
        assert_eq!(engine.state_pool_outstanding(), held(&engine));
    }
}
