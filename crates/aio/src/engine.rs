//! The asynchronous I/O engine: a bounded submission queue → a pool of
//! worker threads making blocking [`Backend`] calls → completion handles.
//!
//! Every op runs through one body, `EngineShared::run_op`, whichever
//! worker picks it up: retry, the tier breaker, stats, trace spans, and
//! the publish-then-retire completion protocol (model-checked in
//! `tests/loom_completion.rs`). The deadline watchdog completes ops
//! through the same shared state.
//!
//! Failure semantics: every backend call runs under the engine's
//! [`RetryPolicy`] (bounded attempts with exponential backoff for
//! *transient* errors, immediate surfacing of *permanent* ones — see
//! [`mlp_storage::fault::classify`]) and the tier breaker
//! ([`AioConfig::health`]), completions are counted only on success
//! (failed ops increment the `errors` counter instead), and a panicking
//! backend poisons the op's completion slot with an [`io::Error`] rather
//! than leaving waiters blocked forever.

use std::error::Error;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::time::{Duration, Instant};
use std::{fmt, io};

use mlp_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use mlp_sync::{thread, Arc, Mutex};

use mlp_storage::fault::is_transient;
use mlp_storage::{breaker_rejection, wall_clock, Backend, Sleeper, TierHealth};
use mlp_tensor::PooledBuffer;
use mlp_trace::{Attrs, Counter, Gauge, Phase, TraceSink};

use crate::completion::{CompletionSlot, PendingGauge};

/// Bounded-attempt exponential-backoff retry of transient I/O errors,
/// executed inside the I/O workers around every backend call.
///
/// Only errors classified transient by [`mlp_storage::fault::classify`]
/// (interruptions, timeouts, `EIO`/`EAGAIN`/`ENOSPC`) are re-issued;
/// permanent errors (not found, invalid data, …) surface immediately.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per operation, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Multiplier applied to the backoff after each failed retry.
    pub backoff_multiplier: f64,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(200),
            backoff_multiplier: 4.0,
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    /// No retries at all: every error surfaces on the first attempt.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// The backoff slept after `failed_attempts` attempts have failed
    /// (exponential in the attempt count, capped at `max_backoff`). A
    /// product too large for a `Duration` saturates to the cap.
    pub fn backoff_for(&self, failed_attempts: u32) -> Duration {
        let exp = failed_attempts.saturating_sub(1).min(32);
        let factor = self.backoff_multiplier.max(1.0).powi(exp as i32);
        let backoff = self.base_backoff.as_secs_f64() * factor;
        Duration::try_from_secs_f64(backoff).map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }

    /// Runs `f` under this policy, bumping `retries` once per re-attempt.
    /// Backoff delays go through the injected `sleeper`, so deterministic
    /// fault suites substitute a recording fake and pay no wall-clock
    /// time for injected retry storms.
    pub(crate) fn run<T>(
        &self,
        retries: &AtomicU64,
        sleeper: &dyn Sleeper,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        let mut attempt = 1u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(e) if attempt < self.max_attempts && is_transient(&e) => {
                    // relaxed-ok: monotonic retry counter, read only for reporting
                    retries.fetch_add(1, Ordering::Relaxed);
                    sleeper.sleep(self.backoff_for(attempt));
                    attempt += 1;
                }
                Err(e) if attempt > 1 => {
                    // Record the exhaustion, keeping the last error as the
                    // source, so upstream classification still sees its
                    // class — a raw EIO's included.
                    return Err(io::Error::new(
                        e.kind(),
                        RetriesExhausted {
                            attempts: attempt,
                            last: e,
                        },
                    ));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// An operation's last error once its retry budget is spent, with the
/// attempts it took. The error itself is the [`source`](Error::source),
/// which [`mlp_storage::fault::classify`] looks through.
#[derive(Debug)]
struct RetriesExhausted {
    attempts: u32,
    last: io::Error,
}

impl fmt::Display for RetriesExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "giving up after {} attempts: {}",
            self.attempts, self.last
        )
    }
}

impl Error for RetriesExhausted {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        Some(&self.last)
    }
}

/// Engine configuration.
///
/// # Tuning knobs
///
/// * [`AioConfig::workers`] — I/O worker thread count.
///   Defaults to half the host's logical CPUs, clamped to `2..=8`:
///   offload I/O should overlap compute, not displace it, and
///   blocking-pool throughput flattens past a handful of threads.
/// * [`AioConfig::queue_depth`] — bound on queued + in-flight ops before
///   `submit_*` blocks.
///   Defaults to `32 × workers`, clamped to `64..=512`: deep enough to
///   keep a high-queue-depth NVMe busy, shallow enough to bound staging
///   memory.
/// * [`AioConfig::retry`] — transient-error retry/backoff policy.
///
/// Benchmarks and deterministic tests should start from
/// [`AioConfig::deterministic`], which pins the pre-probing values
/// (2 workers, depth 64) so results do not vary with the host.
#[derive(Clone, Debug)]
pub struct AioConfig {
    /// I/O worker threads (the tier's preferred I/O parallelism; a PFS
    /// benefits from several, §3.2). An engine with no worker running
    /// completes every op with a typed error naming its backend.
    pub workers: usize,
    /// Maximum queued + in-flight operations before `submit_*` blocks,
    /// modelling a bounded kernel submission queue; `0` hands each op
    /// straight to an idle worker.
    pub queue_depth: usize,
    /// Retry policy applied to every backend call inside the workers.
    pub retry: RetryPolicy,
    /// Observability sink. When enabled, every completed operation
    /// records an [`Phase::AioRead`]/[`Phase::AioWrite`]/
    /// [`Phase::AioDelete`]/[`Phase::AioLink`] span, each re-attempt an
    /// [`Phase::AioRetry`] instant, and the engine's operation counters
    /// are the sink's metrics-registry cells `aio.<backend>.<meter>`
    /// (engines sharing a sink *and* a backend name share those cells, so
    /// their accessors report the sum). Disabled by default, which keeps
    /// the per-op path free of any tracing work.
    pub trace: TraceSink,
    /// Storage-tier index stamped on this engine's trace events so the
    /// timeline and the per-tier bandwidth summary can attribute I/O
    /// (`-1` = untiered, e.g. in unit tests).
    pub trace_tier: i32,
    /// Per-operation deadline. When set, a watchdog thread supervises
    /// every in-flight op and, on expiry, publishes a typed
    /// [`io::ErrorKind::TimedOut`] error to the op's completion slot —
    /// a hung backend becomes a prompt `Timeout` instead of a stuck
    /// `wait_flush`. The backend call itself keeps running (there is no
    /// portable way to cancel it); its late completion is counted
    /// ([`AioEngine::late_completions`]) and dropped. `None` (the
    /// default) disables the watchdog entirely.
    pub deadline: Option<Duration>,
    /// The tier's circuit breaker (`None`, the default: none). Every
    /// backend attempt is admitted — or refused with the permanent
    /// [`mlp_storage::breaker_rejection`] — then observed: its latency or
    /// its error; a deadline timeout counts as a failure.
    pub health: Option<Arc<TierHealth>>,
    /// The sleeper behind retry backoff delays. Production uses the wall
    /// clock; deterministic fault suites inject a
    /// [`mlp_storage::FakeSleeper`] so injected retry storms cost no
    /// real time.
    pub sleeper: Arc<dyn Sleeper>,
}

impl Default for AioConfig {
    /// Probe-derived defaults: workers/queue depth sized from the host's
    /// logical CPU count (see the type-level docs for the formulas). Use
    /// [`AioConfig::deterministic`] where host-independent behaviour
    /// matters more than throughput.
    fn default() -> Self {
        let workers = probed_default_workers();
        AioConfig {
            workers,
            queue_depth: (workers * 32).clamp(64, 512),
            retry: RetryPolicy::default(),
            trace: TraceSink::disabled(),
            trace_tier: -1,
            deadline: None,
            health: None,
            sleeper: wall_clock(),
        }
    }
}

impl AioConfig {
    /// The historical fixed-size configuration (2 workers, queue depth
    /// 64): identical behaviour on every host. Deterministic tests and
    /// cross-host comparable benchmarks start here.
    pub fn deterministic() -> Self {
        AioConfig {
            workers: 2,
            queue_depth: 64,
            ..AioConfig::default()
        }
    }
}

/// Half the logical CPUs, clamped to `2..=8` (see [`AioConfig`] docs).
fn probed_default_workers() -> usize {
    // lint:allow(facade-only): pure hardware query with no concurrency
    // semantics to model; the sync facade intentionally does not wrap it
    std::thread::available_parallelism()
        .map(|n| (n.get() / 2).clamp(2, 8))
        .unwrap_or(2)
}

pub(crate) enum OpKind {
    Write(Vec<u8>),
    /// Write from a pooled staging buffer (first `len` bytes); the buffer
    /// returns to its pool when the op completes — the paper's explicit
    /// pool-based allocation for asynchronous flushes (§3.5). When `len`
    /// is the whole buffer the backend gets the frame itself
    /// ([`Backend::write_frame`]) and the pool may get back the frame of
    /// the object it displaced: same size, and a recycled buffer never
    /// promised its contents.
    WritePooled(PooledBuffer, usize),
    Read,
    /// Read into the first `len` bytes of a pooled staging buffer via
    /// [`Backend::read_into`] — the allocation-free fetch mirroring
    /// `WritePooled`. The filled buffer is handed back through
    /// [`OpHandle::wait_pooled`].
    ReadPooled(PooledBuffer, usize),
    Delete,
    /// [`Backend::link`] of the op's key to this one: a metadata op that
    /// moves no bytes, like `Delete`.
    Link(String),
}

impl OpKind {
    /// Trace phase recorded for this operation's completion span.
    pub(crate) fn phase(&self) -> Phase {
        match self {
            OpKind::Write(..) | OpKind::WritePooled(..) => Phase::AioWrite,
            OpKind::Read | OpKind::ReadPooled(..) => Phase::AioRead,
            OpKind::Delete => Phase::AioDelete,
            OpKind::Link(_) => Phase::AioLink,
        }
    }
}

/// What a completed operation produced.
pub(crate) enum OpOutput {
    /// Writes, deletes and links.
    None,
    /// Plain reads.
    Bytes(Vec<u8>),
    /// Pooled reads: the staging buffer, filled with `usize` bytes.
    Pooled(PooledBuffer, usize),
}

/// The payload of a *failed* write, handed back to the caller through
/// [`OpHandle::wait_flush`] so the only copy of dirty state is not lost
/// when a flush fails — the caller can keep it host-resident and re-drive
/// the flush later.
pub enum ReclaimedWrite {
    /// The owned bytes of a failed [`AioEngine::submit_write`].
    Bytes(Vec<u8>),
    /// The staging buffer of a failed [`AioEngine::submit_write_pooled`]
    /// (its contents are untouched by the failure).
    Pooled(PooledBuffer),
}

impl std::fmt::Debug for ReclaimedWrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReclaimedWrite::Bytes(b) => write!(f, "ReclaimedWrite::Bytes({} bytes)", b.len()),
            ReclaimedWrite::Pooled(buf) => {
                write!(f, "ReclaimedWrite::Pooled({} bytes)", buf.len())
            }
        }
    }
}

/// One queued operation: the unit a worker executes.
pub(crate) struct Op {
    pub(crate) key: String,
    pub(crate) kind: OpKind,
    pub(crate) state: Arc<OpState>,
    /// Skips breaker admission (the drain's evacuation of a quarantined
    /// tier); retry, outcome accounting and the deadline still apply.
    pub(crate) salvage: bool,
}

pub(crate) struct OpState {
    /// Single-producer completion hand-off; the publish/consume protocol
    /// (and its model-checked invariants) live in [`crate::completion`].
    pub(crate) result: CompletionSlot<io::Result<OpOutput>>,
    pub(crate) bytes: AtomicUsize,
    /// Failed-write payload, set by the worker before the error is
    /// published. Dropped (pooled buffers recycle) if the waiter does not
    /// collect it via [`OpHandle::wait_flush`].
    pub(crate) reclaim: Mutex<Option<ReclaimedWrite>>,
}

impl OpState {
    fn take_result(&self) -> io::Result<OpOutput> {
        self.result.take_blocking()
    }
}

/// Completion handle for a submitted operation.
///
/// Reads resolve to `Ok(Some(bytes))`, writes, deletes and links to `Ok(None)`;
/// pooled reads resolve through [`OpHandle::wait_pooled`].
pub struct OpHandle {
    state: Arc<OpState>,
}

impl OpHandle {
    /// Blocks until the operation completes and returns its result.
    ///
    /// # Errors
    ///
    /// The operation's own I/O error, or [`io::ErrorKind::InvalidInput`]
    /// if it was a pooled read — collect those with
    /// [`OpHandle::wait_pooled`]; here the staging buffer drops back to
    /// its pool.
    pub fn wait(self) -> io::Result<Option<Vec<u8>>> {
        match self.state.take_result()? {
            OpOutput::None => Ok(None),
            OpOutput::Bytes(b) => Ok(Some(b)),
            OpOutput::Pooled(..) => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "pooled read completion requires wait_pooled",
            )),
        }
    }

    /// Blocks until a write completes. On failure, hands back the write's
    /// payload (owned bytes or pooled staging buffer, contents intact) so
    /// the caller can keep the dirty state and re-drive the flush — a
    /// failed flush must not destroy the only copy of updated state.
    ///
    /// The payload is `None` when it could not be preserved (the backend
    /// panicked mid-write) or when the op was not a write.
    pub fn wait_flush(self) -> Result<(), (io::Error, Option<ReclaimedWrite>)> {
        match self.state.take_result() {
            Ok(_) => Ok(()),
            Err(e) => {
                let payload = self.state.reclaim.lock().take();
                Err((e, payload))
            }
        }
    }

    /// Blocks until a pooled read completes and returns the staging
    /// buffer (its first `len` bytes hold the object).
    ///
    /// # Errors
    ///
    /// The operation's own I/O error, or [`io::ErrorKind::InvalidInput`]
    /// if it was not submitted via [`AioEngine::submit_read_pooled`].
    pub fn wait_pooled(self) -> io::Result<(PooledBuffer, usize)> {
        match self.state.take_result()? {
            OpOutput::Pooled(buf, len) => Ok((buf, len)),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "wait_pooled on a non-pooled operation",
            )),
        }
    }

    /// Whether the operation has completed (result not yet consumed).
    pub fn is_done(&self) -> bool {
        self.state.result.is_set()
    }

    /// Bytes moved by the operation (available after successful
    /// completion; stays 0 for failed ops).
    ///
    /// Acquire pairs with the worker's Release store: a caller that
    /// observes the count also observes every write the operation made
    /// before publishing it (this is read while the op may still be in
    /// flight, outside any lock).
    pub fn bytes(&self) -> usize {
        self.state.bytes.load(Ordering::Acquire)
    }
}

/// Engine counters, held once: the operation counters *are* the
/// [`mlp_trace`] registry cells `aio.<backend>.<meter>` when the engine
/// is constructed with an enabled [`TraceSink`], and detached cells of
/// the same type otherwise — the [`AioEngine`] accessors and the
/// registry read the same memory, so they cannot disagree. The
/// pending-op count is *not* a statistic (drain blocks on it), so it
/// lives in the mutex-guarded [`PendingGauge`]; `inflight` mirrors it
/// for the registry.
pub(crate) struct Stats {
    pub(crate) reads: Counter,
    pub(crate) writes: Counter,
    pub(crate) read_bytes: Counter,
    pub(crate) write_bytes: Counter,
    pub(crate) retries: Counter,
    pub(crate) errors: Counter,
    /// Ops retired by the deadline watchdog with a typed `TimedOut`
    /// error (also counted in `errors`).
    pub(crate) timeouts: Counter,
    /// Real completions that arrived after the watchdog had already
    /// timed the op out; their result is dropped.
    pub(crate) late_completions: Counter,
    /// Submitted-but-not-completed ops, mirrored from `pending`.
    pub(crate) inflight: Gauge,
    pub(crate) busy_nanos: AtomicU64,
    /// Submitted-but-not-completed count with the `drain` barrier; see
    /// [`crate::completion::PendingGauge`] for the protocol.
    pub(crate) pending: PendingGauge,
}

impl Stats {
    pub(crate) fn new(trace: &TraceSink, backend: &str) -> Self {
        let c = |meter: &str| trace.counter(&format!("aio.{backend}.{meter}"));
        Stats {
            reads: c("reads"),
            writes: c("writes"),
            read_bytes: c("read_bytes"),
            write_bytes: c("write_bytes"),
            retries: c("retries"),
            errors: c("errors"),
            timeouts: c("timeouts"),
            late_completions: c("late_completions"),
            inflight: trace.gauge(&format!("aio.{backend}.inflight")),
            busy_nanos: AtomicU64::new(0),
            pending: PendingGauge::new(),
        }
    }

    /// Success bookkeeping for a read of `n` bytes.
    pub(crate) fn record_read(&self, state: &OpState, n: usize) {
        // Release: paired with the Acquire in OpHandle::bytes, which may
        // read this outside the completion mutex.
        state.bytes.store(n, Ordering::Release);
        self.reads.inc();
        self.read_bytes.add(n as u64);
    }

    /// Success bookkeeping for a write of `n` bytes.
    pub(crate) fn record_write(&self, state: &OpState, n: usize) {
        // Release: paired with the Acquire in OpHandle::bytes.
        state.bytes.store(n, Ordering::Release);
        self.writes.inc();
        self.write_bytes.add(n as u64);
    }
}

/// What the workers and the watchdog share: the storage backend, the
/// tier's failure policy, counters, and the trace/completion protocol.
/// One instance per [`AioEngine`], behind an `Arc` so a worker outliving
/// a submit call keeps it alive.
pub(crate) struct EngineShared {
    pub(crate) backend: Arc<dyn Backend>,
    retry: RetryPolicy,
    stats: Stats,
    trace: TraceSink,
    trace_tier: i32,
    /// The tier breaker that admits and hears every attempt, if any.
    health: Option<Arc<TierHealth>>,
    /// Injected delay source for retry backoff (see
    /// [`mlp_storage::Sleeper`]); the wall clock in production.
    sleeper: Arc<dyn Sleeper>,
}

impl EngineShared {
    fn new(backend: Arc<dyn Backend>, config: &AioConfig) -> Self {
        EngineShared {
            stats: Stats::new(&config.trace, backend.name()),
            backend,
            retry: config.retry.clone(),
            trace: config.trace.clone(),
            trace_tier: config.trace_tier,
            health: config.health.clone(),
            sleeper: Arc::clone(&config.sleeper),
        }
    }

    /// Executes one op against the backend — retry, catch-unwind
    /// poisoning, stats, trace, publish-then-retire. The worker loop is
    /// exactly `while let Ok(op) = rx.recv() { shared.run_op(op) }`.
    fn run_op(&self, op: Op) {
        let t0 = Instant::now();
        let Op {
            key,
            kind,
            state,
            salvage,
        } = op;
        let phase = kind.phase();
        let span_start = self.trace.now_ns();
        // Per-op retry count, folded into the shared counter afterwards
        // so the trace can tell which op re-attempted.
        let op_retries = AtomicU64::new(0);
        // A panicking backend must not leave waiters blocked on a result
        // that never arrives: catch the unwind (dropping any staging
        // buffer back to its pool on the way) and poison the completion
        // slot with an error.
        let result = catch_unwind(AssertUnwindSafe(|| {
            execute_op(self, &op_retries, &state, &key, kind, salvage)
        }))
        .unwrap_or_else(|_| {
            Err(io::Error::other(format!(
                "I/O worker panicked while processing {key}"
            )))
        });
        let retried = op_retries.load(Ordering::Acquire);
        self.finish_op(phase, t0, span_start, retried, &state, result);
    }

    /// Runs one op's attempts under the tier's failure policy: retry of
    /// transient errors, and each attempt admitted by the breaker (unless
    /// `salvage`) and then observed — unless the watchdog has timed the
    /// op out meanwhile, which [`EngineShared::time_out`] recorded.
    fn run_attempts<T>(
        &self,
        op_retries: &AtomicU64,
        state: &OpState,
        salvage: bool,
        mut attempt: impl FnMut() -> io::Result<T>,
    ) -> io::Result<T> {
        self.retry.run(op_retries, &*self.sleeper, || {
            let Some(health) = &self.health else {
                return attempt();
            };
            if !salvage && !health.allow() {
                return Err(breaker_rejection(health.tier_name(), health.state()));
            }
            let started = Instant::now();
            let result = attempt();
            state.result.if_unpublished(|| match &result {
                Ok(_) => health.record_success(started.elapsed()),
                Err(e) => health.record_failure(e),
            });
            result
        })
    }

    /// Completes one op: folds per-op retries and errors into the
    /// counters, records the trace span, then publishes the result and
    /// retires the op from the pending gauge — in that order (a drainer
    /// released early would race the waiter for this very completion).
    fn finish_op(
        &self,
        phase: Phase,
        t0: Instant,
        span_start: u64,
        retried: u64,
        state: &OpState,
        result: io::Result<OpOutput>,
    ) {
        if retried > 0 {
            self.stats.retries.add(retried);
        }
        if result.is_err() {
            self.stats.errors.inc();
        }
        self.stats
            .busy_nanos
            // relaxed-ok: monotonic stats counter, read only for reporting
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if self.trace.is_enabled() {
            let attrs = Attrs {
                tier: self.trace_tier,
                bytes: state.bytes.load(Ordering::Acquire) as u64,
                ..Attrs::NONE
            };
            let end_ns = self.trace.now_ns();
            for _ in 0..retried {
                self.trace.instant(Phase::AioRetry, attrs, end_ns);
            }
            self.trace.complete_span(phase, attrs, span_start, end_ns);
        }
        // Publish, *then* retire from the pending gauge — and only if
        // this publication won: the deadline watchdog may have already
        // timed the op out (publishing `TimedOut` and retiring it), in
        // which case this late real completion is counted and dropped
        // rather than retiring the op a second time.
        if state.result.publish(result) {
            self.retire();
        } else {
            self.stats.late_completions.inc();
        }
    }

    /// Removes one completed op from the pending gauge and mirrors the
    /// new count into the `inflight` registry gauge.
    fn retire(&self) {
        self.stats.pending.dec();
        self.note_inflight();
    }

    /// Mirrors the pending count into the `inflight` registry gauge.
    /// Traced engines only: the count sits behind the pending gauge's
    /// mutex, which an untraced engine has no reason to take again.
    fn note_inflight(&self) {
        if self.trace.is_enabled() {
            self.stats.inflight.set(self.stats.pending.current() as u64);
        }
    }

    /// Retires an op whose `deadline` expired: publishes a typed
    /// [`io::ErrorKind::TimedOut`] error and, if that publication won
    /// (the real completion has not landed), records it as a breaker
    /// failure and removes the op from the pending gauge so `drain`
    /// cannot hang on a dead backend. Called only by the watchdog
    /// thread.
    #[cfg(not(loom))]
    pub(crate) fn time_out(&self, key: &str, state: &OpState, deadline: Duration) {
        let err = io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "aio op on {key} exceeded its {deadline:?} deadline (backend {} unresponsive)",
                self.backend.name(),
            ),
        );
        let counted = || {
            self.stats.timeouts.inc();
            self.stats.errors.inc();
            if let Some(health) = &self.health {
                health.record_failure(&io::ErrorKind::TimedOut.into());
            }
        };
        if state.result.publish_with(Err(err), counted) {
            self.retire();
        }
    }

    /// Poisons an op no worker will run: none is running (none could be
    /// spawned), or the queue closed mid-teardown. The op's payload (and
    /// any pooled staging buffer) drops here, recycling the buffer.
    fn reject(&self, op: Op) {
        self.stats.errors.inc();
        if op.state.result.publish(Err(io::Error::other(format!(
            "no I/O worker of backend {} is running to take {}",
            self.backend.name(),
            op.key
        )))) {
            self.retire();
        }
    }
}

/// Executes one operation against the backend under the tier's failure
/// policy ([`EngineShared::run_attempts`]).
///
/// Completion counters (`reads`/`writes`/`*_bytes`) are bumped only on
/// success; failures are the caller's to count, and re-attempts land in
/// `op_retries` (the caller folds them into the shared stats so the
/// trace can attribute retries to individual operations). Pooled
/// buffers return to
/// their pool on every path: success (write) / handed back (read), error
/// (dropped here), and panic (dropped during unwind).
// lint:hot-root — retry/execute loop every AIO worker runs per op
fn execute_op(
    shared: &EngineShared,
    op_retries: &AtomicU64,
    state: &OpState,
    key: &str,
    kind: OpKind,
    salvage: bool,
) -> io::Result<OpOutput> {
    let (backend, stats) = (&*shared.backend, &shared.stats);
    match kind {
        OpKind::Write(data) => {
            match shared.run_attempts(op_retries, state, salvage, || backend.write(key, &data)) {
                Ok(()) => {
                    stats.record_write(state, data.len());
                    Ok(OpOutput::None)
                }
                Err(e) => {
                    // Preserve the payload for wait_flush reclamation.
                    *state.reclaim.lock() = Some(ReclaimedWrite::Bytes(data));
                    Err(e)
                }
            }
        }
        OpKind::WritePooled(mut buf, len) => {
            // A write of the whole staging buffer hands the backend the
            // frame itself, which a memory-class tier exchanges for the
            // object it displaces instead of copying (a failed attempt
            // leaves the frame untouched, so a retry and the reclaim
            // below still hold the payload). A shorter window is copied.
            let whole_frame = len == buf.buffer().len();
            match shared.run_attempts(op_retries, state, salvage, || {
                if whole_frame {
                    backend.write_frame(key, buf.buffer_mut())
                } else {
                    // lint:allow(transitive-panic): window in-bounds — submit_write_pooled asserts len <= buffer
                    backend.write(key, &buf.buffer().as_bytes()[..len])
                }
            }) {
                Ok(()) => {
                    drop(buf); // staging buffer back to its pool
                    stats.record_write(state, len);
                    Ok(OpOutput::None)
                }
                Err(e) => {
                    *state.reclaim.lock() = Some(ReclaimedWrite::Pooled(buf));
                    Err(e)
                }
            }
        }
        OpKind::Read => {
            let data = shared.run_attempts(op_retries, state, salvage, || backend.read(key))?;
            stats.record_read(state, data.len());
            Ok(OpOutput::Bytes(data))
        }
        OpKind::ReadPooled(mut buf, len) => {
            // A retried attempt overwrites whatever a failed partial read
            // left in the window; on error the buffer drops here and
            // recycles to its pool.
            let n = shared.run_attempts(op_retries, state, salvage, || {
                // lint:allow(transitive-panic): window in-bounds — submit_read_pooled asserts len <= buffer
                backend.read_into(key, &mut buf.buffer_mut().as_bytes_mut()[..len])
            })?;
            stats.record_read(state, n);
            Ok(OpOutput::Pooled(buf, n))
        }
        OpKind::Delete => {
            shared.run_attempts(op_retries, state, salvage, || backend.delete(key))?;
            Ok(OpOutput::None)
        }
        OpKind::Link(to) => {
            shared.run_attempts(op_retries, state, salvage, || backend.link(key, &to))?;
            Ok(OpOutput::None)
        }
    }
}

/// A per-tier asynchronous I/O engine: [`AioConfig::workers`] threads
/// loop over a `std::sync::mpsc::sync_channel` bounded at
/// [`AioConfig::queue_depth`] (submission blocks when it is full). The
/// receiver sits behind one facade `Mutex`: one idle worker parks in
/// `recv`, the others queue on the lock, and the lock is released before
/// the op runs.
///
/// Dropping the engine closes the submission queue and joins the
/// workers; all already-submitted operations complete first.
pub struct AioEngine {
    /// `Option` so Drop can close the queue before joining the workers;
    /// always `Some` while the engine is live.
    tx: Option<SyncSender<Op>>,
    workers: Vec<thread::JoinHandle<()>>,
    shared: Arc<EngineShared>,
    /// Deadline supervisor, present iff [`AioConfig::deadline`] is set.
    /// A field, so it drops only after Drop has joined the workers: ops
    /// stranded by a hung backend still time out during engine teardown.
    #[cfg(not(loom))]
    watchdog: Option<crate::watchdog::Watchdog>,
}

impl AioEngine {
    /// Spawns the worker threads over `backend`. A worker the OS refuses
    /// to spawn is left out; with none running, every op completes with
    /// a typed error naming the backend.
    pub fn new(backend: Arc<dyn Backend>, config: AioConfig) -> Self {
        let shared = Arc::new(EngineShared::new(backend, &config));
        let (tx, rx) = sync_channel::<Op>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers)
            .filter_map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("aio-{}-{i}", shared.backend.name()))
                    .spawn(move || loop {
                        // A statement of its own, so the receiver lock
                        // drops before the op runs.
                        let next = rx.lock().recv();
                        match next {
                            Ok(op) => shared.run_op(op),
                            Err(_) => break,
                        }
                    })
                    .ok()
            })
            .collect();
        #[cfg(not(loom))]
        let watchdog = config
            .deadline
            .map(|d| crate::watchdog::Watchdog::spawn(Arc::clone(&shared), d));
        AioEngine {
            tx: Some(tx),
            workers,
            shared,
            #[cfg(not(loom))]
            watchdog,
        }
    }

    // lint:hot-root — common submit path under every public submit_* entry
    fn submit(&self, key: &str, kind: OpKind, salvage: bool) -> OpHandle {
        self.shared.stats.pending.inc();
        self.shared.note_inflight();
        let state = Arc::new(OpState {
            result: CompletionSlot::new(),
            bytes: AtomicUsize::new(0),
            reclaim: Mutex::new(None),
        });
        let op = Op {
            key: key.to_string(),
            kind,
            state: Arc::clone(&state),
            salvage,
        };
        // Register with the watchdog *before* a worker can see the op.
        #[cfg(not(loom))]
        if let Some(wd) = &self.watchdog {
            wd.register(key, &state);
        }
        // `tx` is `Some` until Drop, which submission cannot race (it
        // borrows `&self`). A send fails only once every receiver is
        // gone: no worker is running. Either way the op is poisoned, not
        // lost with its waiter.
        match &self.tx {
            Some(tx) => {
                if let Err(err) = tx.send(op) {
                    self.shared.reject(err.0);
                }
            }
            None => self.shared.reject(op),
        }
        OpHandle { state }
    }

    /// Enqueues an asynchronous write (flush) of `data` under `key`.
    /// Blocks only if the submission queue is full.
    pub fn submit_write(&self, key: &str, data: Vec<u8>) -> OpHandle {
        self.submit(key, OpKind::Write(data), false)
    }

    /// Enqueues an asynchronous write of the first `len` bytes of a
    /// pooled staging buffer; the buffer returns to its pool on
    /// completion.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the buffer's size.
    pub fn submit_write_pooled(&self, key: &str, buf: PooledBuffer, len: usize) -> OpHandle {
        assert!(len <= buf.buffer().len(), "len exceeds staging buffer");
        self.submit(key, OpKind::WritePooled(buf, len), false)
    }

    /// Enqueues an asynchronous read (fetch) of `key`.
    pub fn submit_read(&self, key: &str) -> OpHandle {
        self.submit(key, OpKind::Read, false)
    }

    /// Enqueues an asynchronous read of `key` into the first `len` bytes
    /// of a pooled staging buffer. Collect the filled buffer with
    /// [`OpHandle::wait_pooled`]; on error the buffer returns to its pool.
    /// Fetch → update → flush loops recycle one buffer pool end to end
    /// this way, with zero per-operation allocation.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the buffer's size.
    pub fn submit_read_pooled(&self, key: &str, buf: PooledBuffer, len: usize) -> OpHandle {
        assert!(len <= buf.buffer().len(), "len exceeds staging buffer");
        self.submit(key, OpKind::ReadPooled(buf, len), false)
    }

    /// Enqueues an asynchronous delete of `key`.
    pub fn submit_delete(&self, key: &str) -> OpHandle {
        self.submit(key, OpKind::Delete, false)
    }

    /// Enqueues an asynchronous [`Backend::link`]: `to` keeps the bytes
    /// `from` holds when the op runs.
    pub fn submit_link(&self, from: &str, to: &str) -> OpHandle {
        self.submit(from, OpKind::Link(to.to_string()), false)
    }

    /// Whether `key` exists on the backend: metadata, which neither
    /// retries nor reaches the breaker.
    pub fn contains(&self, key: &str) -> bool {
        self.shared.backend.contains(key)
    }

    /// [`AioEngine::submit_read`] past the tier breaker's admission: the
    /// read that evacuates a durable copy off a quarantined tier (a
    /// write-dead tier usually still serves reads). Retry, outcome
    /// accounting and the deadline apply as to any op.
    pub fn submit_salvage_read(&self, key: &str) -> OpHandle {
        self.submit(key, OpKind::Read, true)
    }

    /// [`AioEngine::submit_delete`] past the tier breaker's admission:
    /// retires an evacuated copy (see [`AioEngine::submit_salvage_read`]).
    pub fn submit_salvage_delete(&self, key: &str) -> OpHandle {
        self.submit(key, OpKind::Delete, true)
    }

    /// The tier breaker this engine admits and feeds
    /// ([`AioConfig::health`]).
    pub fn health(&self) -> Option<&Arc<TierHealth>> {
        self.shared.health.as_ref()
    }

    /// (reads, writes) completed *successfully* so far; failed operations
    /// are counted by [`AioEngine::op_errors`] instead.
    pub fn ops_completed(&self) -> (u64, u64) {
        let stats = &self.shared.stats;
        (stats.reads.get(), stats.writes.get())
    }

    /// (read bytes, written bytes) moved by successful operations.
    pub fn bytes_moved(&self) -> (u64, u64) {
        let stats = &self.shared.stats;
        (stats.read_bytes.get(), stats.write_bytes.get())
    }

    /// Transient-error re-attempts performed by the retry layer.
    pub fn retries(&self) -> u64 {
        self.shared.stats.retries.get()
    }

    /// Operations that ultimately failed (after any retries).
    pub fn op_errors(&self) -> u64 {
        self.shared.stats.errors.get()
    }

    /// Operations retired by the deadline watchdog with a typed
    /// [`io::ErrorKind::TimedOut`] error (also counted in
    /// [`AioEngine::op_errors`]). Always 0 when
    /// [`AioConfig::deadline`] is `None`.
    pub fn op_timeouts(&self) -> u64 {
        self.shared.stats.timeouts.get()
    }

    /// Completions that arrived after the watchdog had already timed
    /// their op out; the late result is dropped.
    pub fn late_completions(&self) -> u64 {
        self.shared.stats.late_completions.get()
    }

    /// Cumulative worker busy time in seconds (sums across workers,
    /// including retry backoff).
    pub fn busy_seconds(&self) -> f64 {
        // relaxed-ok: monotonic stats counter, read only for reporting
        self.shared.stats.busy_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Operations submitted but not yet completed.
    pub fn pending_ops(&self) -> usize {
        self.shared.stats.pending.current()
    }

    /// Blocks until every submitted operation has completed — a
    /// completion barrier like `io_getevents` draining the whole queue.
    /// Parked on a condvar, so draining a slow tier does not burn a core.
    // lint:hot-root — completion barrier on the iteration critical path
    pub fn drain(&self) {
        self.shared.stats.pending.drain();
    }
}

impl Drop for AioEngine {
    /// Closes the submission queue and joins the workers; queued ops
    /// complete (and publish) first. The watchdog (when configured)
    /// outlives this join — its own Drop runs afterwards, with the
    /// fields — so ops stranded by a hung backend still surface as
    /// timeouts instead of wedging waiters.
    fn drop(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_storage::MemBackend;
    use std::sync::atomic::AtomicUsize;

    fn engine(workers: usize) -> AioEngine {
        AioEngine::new(
            Arc::new(MemBackend::new("mem")),
            AioConfig {
                workers,
                queue_depth: 16,
                ..AioConfig::default()
            },
        )
    }

    /// A retry policy with microsecond backoffs for fast tests.
    fn fast_retry(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::from_micros(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_micros(100),
        }
    }

    /// Fails every op with the given error kind.
    struct FailingBackend(io::ErrorKind);

    impl Backend for FailingBackend {
        fn write(&self, _k: &str, _d: &[u8]) -> io::Result<()> {
            Err(io::Error::new(self.0, "injected write failure"))
        }
        fn read(&self, _k: &str) -> io::Result<Vec<u8>> {
            Err(io::Error::new(self.0, "injected read failure"))
        }
        fn delete(&self, _k: &str) -> io::Result<()> {
            Err(io::Error::new(self.0, "injected delete failure"))
        }
        fn contains(&self, _k: &str) -> bool {
            false
        }
        fn name(&self) -> &str {
            "failing"
        }
    }

    /// Fails the first `failures` ops with a transient error, then
    /// delegates to an inner in-memory backend.
    struct EventuallyBackend {
        inner: MemBackend,
        failures: AtomicUsize,
    }

    impl EventuallyBackend {
        fn new(failures: usize) -> Self {
            EventuallyBackend {
                inner: MemBackend::new("mem"),
                failures: AtomicUsize::new(failures),
            }
        }

        fn gate(&self) -> io::Result<()> {
            let left = self.failures.load(Ordering::SeqCst);
            if left > 0 {
                self.failures.store(left - 1, Ordering::SeqCst);
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "transient glitch",
                ));
            }
            Ok(())
        }
    }

    impl Backend for EventuallyBackend {
        fn write(&self, k: &str, d: &[u8]) -> io::Result<()> {
            self.gate()?;
            self.inner.write(k, d)
        }
        fn read(&self, k: &str) -> io::Result<Vec<u8>> {
            self.gate()?;
            self.inner.read(k)
        }
        fn delete(&self, k: &str) -> io::Result<()> {
            self.gate()?;
            self.inner.delete(k)
        }
        fn contains(&self, k: &str) -> bool {
            self.inner.contains(k)
        }
        fn name(&self) -> &str {
            "eventually"
        }
    }

    /// Panics on reads, stores writes.
    struct PanickingBackend(MemBackend);

    impl Backend for PanickingBackend {
        fn write(&self, k: &str, d: &[u8]) -> io::Result<()> {
            self.0.write(k, d)
        }
        fn read(&self, _k: &str) -> io::Result<Vec<u8>> {
            panic!("backend bug: read blew up");
        }
        fn delete(&self, k: &str) -> io::Result<()> {
            self.0.delete(k)
        }
        fn contains(&self, k: &str) -> bool {
            self.0.contains(k)
        }
        fn name(&self) -> &str {
            "panicking"
        }
    }

    #[test]
    fn write_then_read_round_trip() {
        let e = engine(2);
        e.submit_write("k", vec![1, 2, 3]).wait().unwrap();
        let data = e.submit_read("k").wait().unwrap().unwrap();
        assert_eq!(data, vec![1, 2, 3]);
        let (r, w) = e.ops_completed();
        assert_eq!((r, w), (1, 1));
        assert_eq!(e.bytes_moved(), (3, 3));
        assert_eq!(e.retries(), 0);
        assert_eq!(e.op_errors(), 0);
    }

    #[test]
    fn many_concurrent_ops_complete() {
        let e = engine(4);
        let writes: Vec<OpHandle> = (0..100)
            .map(|i| e.submit_write(&format!("k{i}"), vec![i as u8; 128]))
            .collect();
        for h in writes {
            h.wait().unwrap();
        }
        let reads: Vec<(usize, OpHandle)> = (0..100)
            .map(|i| (i, e.submit_read(&format!("k{i}"))))
            .collect();
        for (i, h) in reads {
            let data = h.wait().unwrap().unwrap();
            assert_eq!(data, vec![i as u8; 128]);
        }
    }

    #[test]
    fn pooled_writes_recycle_staging_buffers() {
        use mlp_tensor::PinnedPool;
        let backend = Arc::new(MemBackend::new("mem"));
        let e = AioEngine::new(backend.clone() as Arc<dyn Backend>, AioConfig::default());
        let pool = PinnedPool::new(2, 256);
        let mut handles = Vec::new();
        for i in 0..8 {
            // Blocks until a buffer frees, bounding staging memory.
            let mut buf = pool.acquire();
            buf.buffer_mut().as_bytes_mut()[..4].copy_from_slice(&[i as u8; 4]);
            handles.push(e.submit_write_pooled(&format!("k{i}"), buf, 4));
        }
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(pool.outstanding(), 0, "all buffers recycled");
        assert_eq!(backend.read("k7").unwrap(), vec![7u8; 4]);
        assert_eq!(
            backend.read("k0").unwrap().len(),
            4,
            "only len bytes written"
        );
    }

    #[test]
    fn pooled_reads_recycle_staging_buffers() {
        use mlp_tensor::PinnedPool;
        let backend = Arc::new(MemBackend::new("mem"));
        let e = AioEngine::new(backend.clone() as Arc<dyn Backend>, AioConfig::default());
        for i in 0..8 {
            e.submit_write(&format!("k{i}"), vec![i as u8; 32])
                .wait()
                .unwrap();
        }
        let pool = PinnedPool::new(2, 64);
        // Two buffers pipeline eight reads: harvest the oldest before
        // acquiring for the next (a pooled read's buffer comes back
        // through wait_pooled, so in-flight reads must stay below the
        // pool capacity).
        let mut pending: Vec<(usize, OpHandle)> = Vec::new();
        let harvest = |pending: &mut Vec<(usize, OpHandle)>| {
            let (i, h) = pending.remove(0);
            let (buf, n) = h.wait_pooled().unwrap();
            assert_eq!(n, 32);
            assert_eq!(&buf.as_bytes()[..n], &vec![i as u8; 32][..]);
        };
        for i in 0..8 {
            if pending.len() == 2 {
                harvest(&mut pending);
            }
            let buf = pool.acquire();
            pending.push((i, e.submit_read_pooled(&format!("k{i}"), buf, 32)));
        }
        while !pending.is_empty() {
            harvest(&mut pending);
        }
        assert_eq!(pool.outstanding(), 0, "all buffers recycled");
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.acquires(), 8);
    }

    #[test]
    fn pooled_read_of_missing_key_recycles_buffer() {
        use mlp_tensor::PinnedPool;
        let e = engine(1);
        let pool = PinnedPool::new(1, 16);
        let h = e.submit_read_pooled("nope", pool.acquire(), 16);
        assert!(h.wait_pooled().is_err());
        assert_eq!(pool.outstanding(), 0, "buffer returned on error");
    }

    /// API misuse is a typed error, not a panic: `wait` on a pooled read
    /// reports `InvalidInput` and the staging buffer recycles.
    #[test]
    fn wait_on_a_pooled_read_is_invalid_input_and_recycles_the_buffer() {
        use mlp_tensor::PinnedPool;
        let e = engine(1);
        e.submit_write("k", vec![3u8; 8]).wait().unwrap();
        let pool = PinnedPool::new(1, 16);
        let err = e
            .submit_read_pooled("k", pool.acquire(), 16)
            .wait()
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(pool.outstanding(), 0, "buffer returned to its pool");
        assert_eq!(e.op_errors(), 0, "the read itself succeeded");
    }

    #[test]
    fn wait_pooled_on_a_plain_op_is_invalid_input() {
        let e = engine(1);
        let err = e.submit_write("k", vec![1]).wait_pooled().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        let err = e.submit_read("k").wait_pooled().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
    }

    #[test]
    fn read_of_missing_key_is_an_error() {
        let e = engine(1);
        assert!(e.submit_read("nope").wait().is_err());
    }

    #[test]
    fn delete_removes_object() {
        let e = engine(1);
        e.submit_write("k", vec![7]).wait().unwrap();
        e.submit_delete("k").wait().unwrap();
        assert!(e.submit_read("k").wait().is_err());
    }

    #[test]
    fn drop_drains_in_flight_ops() {
        let backend = Arc::new(MemBackend::throttled("slow", 1e9, 2e6)); // 2 MB/s writes
        let handles: Vec<OpHandle>;
        {
            let e = AioEngine::new(backend.clone() as Arc<dyn Backend>, AioConfig::default());
            handles = (0..4)
                .map(|i| e.submit_write(&format!("k{i}"), vec![0u8; 20_000]))
                .collect();
            // Engine dropped here with writes likely still in flight.
        }
        for h in handles {
            h.wait().unwrap();
        }
        assert_eq!(backend.object_count(), 4);
    }

    #[test]
    fn handles_report_completion_and_bytes() {
        let e = engine(1);
        let h = e.submit_write("k", vec![9; 64]);
        h.wait().unwrap();
        let h = e.submit_read("k");
        let out = h.wait().unwrap().unwrap();
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn drain_waits_for_all_pending_ops() {
        let backend = Arc::new(MemBackend::throttled("slow", 1e9, 5e6));
        let e = AioEngine::new(backend as Arc<dyn Backend>, AioConfig::default());
        for i in 0..6 {
            e.submit_write(&format!("k{i}"), vec![0u8; 10_000]);
        }
        assert!(e.pending_ops() > 0);
        e.drain();
        assert_eq!(e.pending_ops(), 0);
        let (_, w) = e.ops_completed();
        assert_eq!(w, 6);
    }

    /// Any worker count and queue depth builds an engine: with no worker
    /// running every op fails with a typed error naming the backend and
    /// `drain` still returns; a zero-depth queue hands each op straight
    /// to a worker.
    #[test]
    fn zero_workers_fail_typed_and_a_zero_depth_queue_round_trips() {
        for (workers, queue_depth) in [(0, 16), (0, 0), (1, 0)] {
            let e = AioEngine::new(
                Arc::new(MemBackend::new("mem")),
                AioConfig {
                    workers,
                    queue_depth,
                    ..AioConfig::default()
                },
            );
            let flushed = e.submit_write("k", vec![1, 2, 3]).wait_flush();
            let read = e.submit_read("k").wait();
            e.drain();
            assert_eq!(e.pending_ops(), 0, "{workers} workers, depth {queue_depth}");
            if workers == 0 {
                let (err, _) = flushed.unwrap_err();
                assert!(err.to_string().contains("backend mem"), "{err}");
                assert!(read.is_err());
                assert_eq!(e.op_errors(), 2);
            } else {
                flushed.unwrap();
                assert_eq!(read.unwrap().unwrap(), vec![1, 2, 3]);
            }
        }
    }

    #[test]
    fn drain_returns_immediately_when_idle() {
        let e = engine(1);
        e.drain();
        assert_eq!(e.pending_ops(), 0);
    }

    #[test]
    fn busy_time_accumulates() {
        let backend = Arc::new(MemBackend::throttled("slow", 1e9, 1e6));
        let e = AioEngine::new(backend as Arc<dyn Backend>, AioConfig::default());
        e.submit_write("k", vec![0u8; 50_000]).wait().unwrap(); // 50 ms
        assert!(e.busy_seconds() > 0.03, "got {}", e.busy_seconds());
    }

    /// Satellite regression: failed writes used to inflate
    /// `ops_completed`/`bytes_moved` because stats were bumped before the
    /// backend ran. Completions must count successes only; failures go to
    /// the error counter.
    #[test]
    fn failed_ops_count_errors_not_completions() {
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::NotFound)) as Arc<dyn Backend>,
            AioConfig::default(),
        );
        let h = e.submit_write("k", vec![0u8; 64]);
        assert!(h.wait().is_err());
        assert!(e.submit_read("k").wait().is_err());
        assert_eq!(e.ops_completed(), (0, 0), "failures are not completions");
        assert_eq!(e.bytes_moved(), (0, 0), "failed ops move no bytes");
        assert_eq!(e.op_errors(), 2);
        assert_eq!(e.retries(), 0, "permanent errors are not retried");
    }

    #[test]
    fn failed_write_reports_zero_bytes_on_handle() {
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::PermissionDenied)) as Arc<dyn Backend>,
            AioConfig::default(),
        );
        let h = e.submit_write("k", vec![0u8; 64]);
        while !h.is_done() {
            std::thread::yield_now();
        }
        assert_eq!(h.bytes(), 0);
        assert!(h.wait().is_err());
    }

    #[test]
    fn failed_pooled_write_recycles_buffer_and_counts_error() {
        use mlp_tensor::PinnedPool;
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::NotFound)) as Arc<dyn Backend>,
            AioConfig::default(),
        );
        let pool = PinnedPool::new(1, 32);
        let h = e.submit_write_pooled("k", pool.acquire(), 32);
        assert!(h.wait().is_err());
        assert_eq!(e.ops_completed(), (0, 0));
        assert_eq!(e.op_errors(), 1);
        // The waiter wakes when the failure is published; the worker may
        // still hold the op state (and the payload in it) for a moment
        // after that. Joining the workers makes "returned" a fact.
        drop(e);
        assert_eq!(pool.outstanding(), 0, "buffer returned on write failure");
    }

    #[test]
    fn failed_writes_hand_their_payload_back_for_redrive() {
        use mlp_tensor::PinnedPool;
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::PermissionDenied)) as Arc<dyn Backend>,
            AioConfig::default(),
        );
        // Owned write: the bytes come back intact.
        let h = e.submit_write("k", vec![7u8; 16]);
        let (err, payload) = h.wait_flush().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
        match payload {
            Some(ReclaimedWrite::Bytes(b)) => assert_eq!(b, vec![7u8; 16]),
            _ => panic!("expected owned bytes back"),
        }
        // Pooled write: the staging buffer comes back intact and is still
        // accounted as outstanding until the caller drops it.
        let pool = PinnedPool::new(1, 16);
        let mut buf = pool.acquire();
        buf.buffer_mut().as_bytes_mut()[..4].copy_from_slice(&[1, 2, 3, 4]);
        let h = e.submit_write_pooled("k", buf, 4);
        let (_, payload) = h.wait_flush().unwrap_err();
        let Some(ReclaimedWrite::Pooled(buf)) = payload else {
            panic!("expected staging buffer back");
        };
        assert_eq!(&buf.as_bytes()[..4], &[1, 2, 3, 4]);
        assert_eq!(pool.outstanding(), 1, "caller holds the reclaimed buffer");
        drop(buf);
        assert_eq!(pool.outstanding(), 0);
    }

    /// A whole-buffer pooled write reaches the backend as a frame: over
    /// an object of its own size it is exchanged, not copied, and a
    /// failed, retried one hands the *payload* back — never the object
    /// it would have displaced.
    #[test]
    fn whole_frame_pooled_writes_exchange_and_a_failed_one_reclaims_its_payload() {
        use mlp_storage::{FaultConfig, FaultInjectBackend};
        use mlp_tensor::PinnedPool;
        let mem = Arc::new(MemBackend::new("mem"));
        let fault = Arc::new(FaultInjectBackend::new(
            Arc::clone(&mem) as Arc<dyn Backend>,
            FaultConfig::transient(5, 1.0),
        ));
        fault.set_armed(false);
        let e = AioEngine::new(
            Arc::clone(&fault) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: fast_retry(3),
                ..AioConfig::default()
            },
        );
        let pool = PinnedPool::new(2, 64);
        let filled = |fill: u8| {
            let mut buf = pool.acquire();
            buf.buffer_mut().as_bytes_mut().fill(fill);
            buf
        };
        // First write: nothing to displace, the frame is copied in.
        e.submit_write_pooled("k", filled(1), 64).wait_flush().unwrap();
        assert_eq!(mem.touches().exchanged_frames, 0);

        fault.set_armed(true);
        let (err, payload) = e
            .submit_write_pooled("k", filled(2), 64)
            .wait_flush()
            .unwrap_err();
        assert!(err.to_string().contains("giving up after 3 attempts"), "{err}");
        assert_eq!(e.retries(), 2);
        let Some(ReclaimedWrite::Pooled(buf)) = payload else {
            panic!("expected the staging buffer back");
        };
        assert_eq!(buf.as_bytes(), &[2u8; 64], "the payload, not the old object");
        assert_eq!(mem.read("k").unwrap(), vec![1u8; 64], "old object intact");

        // Re-driven on a healed tier, the same buffer is exchanged.
        fault.set_armed(false);
        let copied = mem.touches().write_copied_bytes;
        e.submit_write_pooled("k", buf, 64).wait_flush().unwrap();
        assert_eq!(mem.read("k").unwrap(), vec![2u8; 64]);
        let touches = mem.touches();
        assert_eq!(
            (touches.exchanged_frames, touches.write_copied_bytes),
            (1, copied)
        );
        // A window shorter than the buffer is copied, as ever.
        e.submit_write_pooled("k", filled(3), 16).wait_flush().unwrap();
        assert_eq!(mem.read("k").unwrap(), vec![3u8; 16]);
        assert_eq!(mem.touches().exchanged_frames, 1);
        // The pool still owns two buffers of its size.
        assert_eq!(pool.outstanding(), 0);
        let (a, b) = (pool.acquire(), pool.acquire());
        assert_eq!((a.len(), b.len()), (64, 64));
    }

    #[test]
    fn successful_flush_wait_reports_ok() {
        let e = engine(1);
        e.submit_write("k", vec![1]).wait_flush().unwrap();
        assert_eq!(e.ops_completed(), (0, 1));
    }

    #[test]
    fn transient_errors_are_retried_to_success() {
        let e = AioEngine::new(
            Arc::new(EventuallyBackend::new(2)) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: fast_retry(4),
                ..AioConfig::default()
            },
        );
        e.submit_write("k", vec![5u8; 16]).wait().unwrap();
        assert_eq!(e.retries(), 2, "two glitches, two re-attempts");
        assert_eq!(e.op_errors(), 0);
        assert_eq!(e.ops_completed(), (0, 1));
        assert_eq!(e.bytes_moved(), (0, 16));
        assert_eq!(e.submit_read("k").wait().unwrap().unwrap(), vec![5u8; 16]);
    }

    #[test]
    fn exhausted_retries_give_up_with_context() {
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::Interrupted)) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: fast_retry(3),
                ..AioConfig::default()
            },
        );
        let err = e.submit_write("k", vec![1]).wait().unwrap_err();
        assert!(
            err.to_string().contains("giving up after 3 attempts"),
            "{err}"
        );
        assert_eq!(
            err.kind(),
            io::ErrorKind::Interrupted,
            "kind preserved for upstream classification"
        );
        assert_eq!(e.retries(), 2);
        assert_eq!(e.op_errors(), 1);
        assert_eq!(e.ops_completed(), (0, 0));
    }

    /// Fails every op with the raw OS error `code`.
    struct RawOsFailure(i32);

    impl Backend for RawOsFailure {
        fn write(&self, _k: &str, _d: &[u8]) -> io::Result<()> {
            Err(io::Error::from_raw_os_error(self.0))
        }
        fn read(&self, _k: &str) -> io::Result<Vec<u8>> {
            Err(io::Error::from_raw_os_error(self.0))
        }
        fn delete(&self, _k: &str) -> io::Result<()> {
            Err(io::Error::from_raw_os_error(self.0))
        }
        fn contains(&self, _k: &str) -> bool {
            false
        }
        fn name(&self) -> &str {
            "raw-os"
        }
    }

    /// Regression: the exhaustion rewrap kept only the error's kind, and a
    /// raw EIO or ENOSPC — transient by their codes, which std leaves
    /// uncategorized — came out of the retry loop permanent.
    #[test]
    fn exhausted_retries_keep_the_transient_class_of_raw_os_errors() {
        for code in [5, 11, 28] {
            let e = AioEngine::new(
                Arc::new(RawOsFailure(code)) as Arc<dyn Backend>,
                AioConfig {
                    workers: 1,
                    queue_depth: 8,
                    retry: fast_retry(3),
                    ..AioConfig::default()
                },
            );
            let err = e.submit_write("k", vec![1]).wait().unwrap_err();
            assert_eq!(e.retries(), 2, "code {code}");
            assert!(
                err.to_string().contains("giving up after 3 attempts"),
                "{err}"
            );
            assert!(
                is_transient(&err),
                "code {code}: {err} classified permanent"
            );
        }
    }

    #[test]
    fn permanent_errors_are_not_retried() {
        let e = AioEngine::new(
            Arc::new(FailingBackend(io::ErrorKind::InvalidData)) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: fast_retry(5),
                ..AioConfig::default()
            },
        );
        assert!(e.submit_read("k").wait().is_err());
        assert_eq!(e.retries(), 0);
        assert_eq!(e.op_errors(), 1);
    }

    /// Satellite regression: a backend panic used to leave the op's
    /// completion slot empty forever, hanging `wait`/`wait_pooled` and
    /// `drain`. The unwind must poison the op with an error instead.
    #[test]
    fn panicking_backend_poisons_waiters_instead_of_hanging() {
        let e = AioEngine::new(
            Arc::new(PanickingBackend(MemBackend::new("mem"))) as Arc<dyn Backend>,
            AioConfig::default(),
        );
        e.submit_write("k", vec![1, 2]).wait().unwrap();
        let err = e.submit_read("k").wait().unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert_eq!(e.op_errors(), 1);
        // The worker survived the panic and keeps serving ops.
        e.submit_write("k2", vec![3]).wait().unwrap();
        e.drain();
        assert_eq!(e.pending_ops(), 0, "drain not wedged by the panic");
    }

    #[test]
    fn panicking_pooled_read_recycles_buffer() {
        use mlp_tensor::PinnedPool;
        let backend = PanickingBackend(MemBackend::new("mem"));
        backend.write("k", &[9u8; 16]).unwrap();
        let e = AioEngine::new(Arc::new(backend) as Arc<dyn Backend>, AioConfig::default());
        let pool = PinnedPool::new(1, 16);
        // MemBackend::read_into is overridden, so route through the
        // default impl path: PanickingBackend has no read_into override,
        // meaning the default falls back to the panicking `read`.
        let err = e
            .submit_read_pooled("k", pool.acquire(), 16)
            .wait_pooled()
            .unwrap_err();
        assert!(err.to_string().contains("panicked"), "{err}");
        assert_eq!(pool.outstanding(), 0, "buffer freed during unwind");
    }

    /// Satellite fix: retry backoff used to `thread::sleep` wall-clock
    /// inside the workers even under deterministic fault tests. With an
    /// injected fake sleeper, a policy whose backoffs sum to 30 virtual
    /// seconds must complete in real milliseconds while still recording
    /// every requested delay.
    #[test]
    fn retry_backoff_routes_through_injected_sleeper() {
        use mlp_storage::FakeSleeper;
        let sleeper = FakeSleeper::shared();
        let e = AioEngine::new(
            Arc::new(EventuallyBackend::new(2)) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: RetryPolicy {
                    max_attempts: 4,
                    base_backoff: Duration::from_secs(10),
                    backoff_multiplier: 2.0,
                    max_backoff: Duration::from_secs(60),
                },
                sleeper: sleeper.clone(),
                ..AioConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        e.submit_write("k", vec![5u8; 16]).wait().unwrap();
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "backoff slept wall-clock: {:?}",
            t0.elapsed()
        );
        assert_eq!(e.retries(), 2);
        assert_eq!(sleeper.sleeps(), 2, "one backoff per re-attempt");
        // 10 s after the first failure, 20 s after the second.
        assert_eq!(sleeper.total_slept(), Duration::from_secs(30));
    }

    /// The engine's counters exist once: every `aio.<backend>.*` registry
    /// counter of a traced engine is the cell its accessor reads, on every
    /// completion path — success, retried transient, permanent error,
    /// watchdog timeout with its late completion, and a submission
    /// rejected at teardown (which the mirrored meters used to miss).
    #[test]
    fn registry_counters_equal_the_accessors_on_every_path() {
        use mlp_storage::{FaultConfig, FaultInjectBackend};
        let trace = TraceSink::enabled();
        // Two transient glitches, then (once armed) a 400 ms stall per op.
        let stall = Arc::new(FaultInjectBackend::new(
            Arc::new(EventuallyBackend::new(2)) as Arc<dyn Backend>,
            FaultConfig::none(7).with_latency_spikes(1.0, Duration::from_millis(400)),
        ));
        stall.set_armed(false);
        let e = AioEngine::new(
            Arc::clone(&stall) as Arc<dyn Backend>,
            AioConfig {
                workers: 1,
                queue_depth: 8,
                retry: fast_retry(4),
                deadline: Some(Duration::from_millis(50)),
                trace: trace.clone(),
                ..AioConfig::default()
            },
        );
        e.submit_write("k", vec![5u8; 16]).wait().unwrap(); // two glitches first
        assert_eq!(e.submit_read("k").wait().unwrap().unwrap().len(), 16);
        assert!(e.submit_read("nope").wait().is_err());
        stall.set_armed(true);
        let err = e.submit_write("hang", vec![1u8; 8]).wait().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        let t0 = std::time::Instant::now();
        while e.late_completions() == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        e.shared.stats.pending.inc();
        e.shared.reject(Op {
            key: "rejected".to_string(),
            kind: OpKind::Delete,
            state: Arc::new(OpState {
                result: CompletionSlot::new(),
                bytes: AtomicUsize::new(0),
                reclaim: Mutex::new(None),
            }),
            salvage: false,
        });

        let (reads, writes) = e.ops_completed();
        let (read_bytes, write_bytes) = e.bytes_moved();
        // The stalled write lands late but does land: 2 writes, 24 bytes.
        assert_eq!((reads, writes, read_bytes, write_bytes), (1, 2, 16, 24));
        assert_eq!((e.retries(), e.op_errors()), (2, 3));
        assert_eq!((e.op_timeouts(), e.late_completions()), (1, 1));
        assert_eq!(e.pending_ops(), 0);
        let snap = trace.metrics_snapshot();
        let registry = |m: &str| snap.counter(&format!("aio.eventually+faults.{m}"));
        assert_eq!(registry("reads"), Some(reads));
        assert_eq!(registry("writes"), Some(writes));
        assert_eq!(registry("read_bytes"), Some(read_bytes));
        assert_eq!(registry("write_bytes"), Some(write_bytes));
        assert_eq!(registry("retries"), Some(e.retries()));
        assert_eq!(registry("errors"), Some(e.op_errors()));
        assert_eq!(registry("timeouts"), Some(e.op_timeouts()));
        assert_eq!(registry("late_completions"), Some(e.late_completions()));
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            max_attempts: 10,
            base_backoff: Duration::from_millis(1),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_millis(5),
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(1));
        assert_eq!(p.backoff_for(2), Duration::from_millis(2));
        assert_eq!(p.backoff_for(3), Duration::from_millis(4));
        assert_eq!(p.backoff_for(4), Duration::from_millis(5), "capped");
        assert_eq!(p.backoff_for(30), Duration::from_millis(5), "capped");

        // Products past `Duration::MAX` saturate to the cap, not panic.
        let huge_multiplier = RetryPolicy {
            max_attempts: 40,
            backoff_multiplier: 1e3,
            ..RetryPolicy::default()
        };
        assert_eq!(huge_multiplier.backoff_for(35), huge_multiplier.max_backoff);
        let huge_base = RetryPolicy {
            base_backoff: Duration::from_secs(u64::MAX / 2),
            ..RetryPolicy::default()
        };
        assert_eq!(huge_base.backoff_for(3), huge_base.max_backoff);
    }
}
