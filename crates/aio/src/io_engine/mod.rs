//! The pluggable I/O engine subsystem: one completion protocol, three
//! ways to move the bytes.
//!
//! [`AioEngine`](crate::AioEngine) is a façade; the actual byte movement
//! is delegated to an engine backend selected by
//! [`AioConfig::engine`](crate::AioConfig::engine):
//!
//! * **`pool`** — the original bounded-queue worker pool of blocking
//!   backend calls. Portable, concurrent, the auto-selection default for
//!   non-file backends.
//! * **`sync`** — inline execution on the submitting thread. Zero
//!   threads, zero queues; the portable fallback and the baseline other
//!   engines are measured against.
//! * **`uring`** — a single driver thread batching operations into a
//!   Linux io_uring submission queue at configurable depth, with
//!   registered 4096-aligned bounce buffers and opportunistic `O_DIRECT`.
//!   Feature-gated (`mlp-aio/uring`) and runtime-probed.
//!
//! # The capability-dispatch rule
//!
//! The raw kernel path (io_uring) needs a *file*, but the [`Backend`]
//! contract is key/value. The bridge is [`Backend::raw_target`]: plainly
//! file-backed backends (`DirBackend`) expose per-key filesystem
//! coordinates, while in-memory backends and **every decorator** (fault
//! injection, checksumming, tracing) decline. The engine treats the raw
//! path as pure opportunism — any obstacle (decorated backend, oversized
//! object, filesystem refusing `O_DIRECT`, raw I/O error) degrades that
//! single operation to the same portable backend call the pool engine
//! makes, preserving retry, classification, and decorator semantics.
//! This is why the fault-injection suite passes unchanged against every
//! engine: a fault-injecting backend declines `raw_target`, so injected
//! faults always stay on the data path.
//!
//! # Shared protocol
//!
//! Completion hand-off ([`CompletionSlot`](crate::CompletionSlot)),
//! drain ([`PendingGauge`](crate::PendingGauge)), retry/backoff, stats,
//! and trace instrumentation live in `EngineShared`, *outside* the
//! engine backends. Every engine funnels through
//! `EngineShared::run_op`/`EngineShared::finish_op`, so the
//! model-checked publish-then-retire invariants hold for all of them by
//! construction. Which engine a configuration resolved to is reported
//! by [`AioEngine::engine_name`](crate::AioEngine::engine_name).

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mlp_sync::atomic::{AtomicU64, Ordering};
use mlp_sync::Arc;

use mlp_storage::Backend;
use mlp_trace::{Attrs, Phase, TraceSink};

use crate::engine::{execute_op, AioConfig, Op, OpOutput, OpState, RetryPolicy, Stats};

pub(crate) mod pool;
pub(crate) mod sync_engine;

#[cfg(all(
    target_os = "linux",
    feature = "uring",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(loom)
))]
pub(crate) mod sys;

#[cfg(all(
    target_os = "linux",
    feature = "uring",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(loom)
))]
pub(crate) mod uring;

/// Which engine backend moves the bytes; see the [module docs](self) for
/// what each one does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Probe the host and backend, pick the fastest engine that fits:
    /// `uring` when the `uring` feature is compiled in, the kernel
    /// accepts `io_uring_setup`, and the backend is file-backed;
    /// otherwise `pool`.
    #[default]
    Auto,
    /// Bounded-queue worker pool of blocking backend calls.
    Pool,
    /// Inline execution on the submitting thread.
    Sync,
    /// Batched io_uring submission on a single driver thread.
    Uring,
}

impl EngineKind {
    /// The concrete (non-`Auto`) kinds, in engine-matrix order.
    pub fn all() -> [EngineKind; 3] {
        [EngineKind::Pool, EngineKind::Sync, EngineKind::Uring]
    }

    /// Stable lowercase name (matches
    /// [`AioEngine::engine_name`](crate::AioEngine::engine_name) and
    /// bench/CI labels).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Auto => "auto",
            EngineKind::Pool => "pool",
            EngineKind::Sync => "sync",
            EngineKind::Uring => "uring",
        }
    }

    /// Whether this kind can actually run on this host (compile-time
    /// support *and* runtime probe). `Auto` is always available — it
    /// resolves to something that is. Engine-matrix tests use this for
    /// graceful skip-and-report on hosts without io_uring; use
    /// [`EngineKind::availability`] when the *reason* matters
    /// (unsupported host vs. broken probe).
    pub fn is_available(self) -> bool {
        matches!(self.availability(), EngineAvailability::Available)
    }

    /// Why this kind can or cannot run here. `Unsupported` is a
    /// legitimate host limitation (feature compiled out, kernel or
    /// seccomp policy denying `io_uring_setup`) that
    /// engine-matrix tests skip loudly; `Broken` means the engine
    /// *should* work but its probe failed for an unexpected reason, and
    /// [`for_each_engine!`](crate::for_each_engine) fails the test run
    /// instead of silently passing on a hollow matrix.
    pub fn availability(self) -> EngineAvailability {
        match self {
            EngineKind::Auto | EngineKind::Pool | EngineKind::Sync => {
                EngineAvailability::Available
            }
            EngineKind::Uring => uring_availability(),
        }
    }

    /// Resolves `Auto` against this host and backend; concrete kinds
    /// return themselves. io_uring wins only when it is compiled in, the
    /// kernel accepts it, *and* the backend is plainly file-backed (a
    /// decorated or in-memory backend would force every op onto the
    /// fallback path anyway, where the pool's parallelism is strictly
    /// better than a single driver thread).
    pub fn resolve(self, backend: &dyn Backend) -> EngineKind {
        match self {
            EngineKind::Auto => {
                if EngineKind::Uring.is_available()
                    && backend.raw_target("__engine_probe/0").is_some()
                {
                    EngineKind::Uring
                } else {
                    EngineKind::Pool
                }
            }
            concrete => concrete,
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Whether an engine can run on this host, and if not, whether that is
/// a legitimate host limitation or a bug. See
/// [`EngineKind::availability`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineAvailability {
    /// The engine runs here.
    Available,
    /// This host/target cannot run the engine for an *expected* reason
    /// (feature compiled out, kernel or seccomp policy denying the
    /// syscall): engine-matrix tests skip it loudly.
    Unsupported(String),
    /// The engine should run here but its availability probe failed for
    /// an unexpected reason: engine-matrix tests fail instead of
    /// silently shrinking the matrix.
    Broken(String),
}

/// io_uring availability with the probe's failure reason: feature
/// compiled in, supported target, and the kernel accepting a probe
/// `io_uring_setup` (cached process-wide; containers and seccomp
/// policies commonly deny the syscall even on new kernels, so
/// compile-time checks are not enough). `ENOSYS`/`EPERM`/`EACCES` are
/// the expected denial shapes; anything else is reported as broken.
#[cfg(all(
    target_os = "linux",
    feature = "uring",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(loom)
))]
fn uring_availability() -> EngineAvailability {
    static PROBE: std::sync::OnceLock<EngineAvailability> = std::sync::OnceLock::new();
    PROBE
        .get_or_init(|| match sys::uring_probe_result() {
            Ok(()) => EngineAvailability::Available,
            Err(e) => match e.raw_os_error() {
                // EPERM (1), EACCES (13), ENOSYS (38): the kernel or the
                // container's seccomp policy denies io_uring — a host
                // limitation, not a bug.
                Some(1) | Some(13) | Some(38) => EngineAvailability::Unsupported(format!(
                    "io_uring_setup denied by kernel/policy: {e}"
                )),
                _ => EngineAvailability::Broken(format!(
                    "io_uring probe failed for a non-capability reason: {e}"
                )),
            },
        })
        .clone()
}

#[cfg(not(all(
    target_os = "linux",
    feature = "uring",
    any(target_arch = "x86_64", target_arch = "aarch64"),
    not(loom)
)))]
fn uring_availability() -> EngineAvailability {
    EngineAvailability::Unsupported(
        "io_uring support not compiled in (feature `uring`, linux x86_64/aarch64, non-loom)"
            .to_string(),
    )
}

/// An engine backend: executes [`Op`]s and completes them through
/// [`EngineShared`]. Teardown is Drop: close the submission path, finish
/// already-accepted ops, join threads.
pub(crate) trait IoEngine: Send + Sync {
    /// Accepts an operation. May block for backpressure (bounded
    /// queues); must eventually publish exactly one completion for the
    /// op through [`EngineShared::finish_op`] / [`EngineShared::run_op`]
    /// / [`EngineShared::reject`] on every path, including errors and
    /// panics.
    fn submit(&self, op: Op);
}

/// Everything the engine backends share: the storage backend, retry
/// policy, counters, and the trace/completion protocol. One instance
/// per [`AioEngine`](crate::AioEngine), behind an `Arc` so engine
/// threads outliving a submit call keep it alive.
pub(crate) struct EngineShared {
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) retry: RetryPolicy,
    pub(crate) stats: Stats,
    pub(crate) trace: TraceSink,
    pub(crate) trace_tier: i32,
    /// Per-op deadline enforced by the watchdog (`None` = unsupervised).
    pub(crate) deadline: Option<std::time::Duration>,
    /// Injected delay source for retry backoff (see
    /// [`mlp_storage::Sleeper`]); the wall clock in production.
    pub(crate) sleeper: Arc<dyn mlp_storage::Sleeper>,
}

impl EngineShared {
    pub(crate) fn new(backend: Arc<dyn Backend>, config: &AioConfig) -> Self {
        EngineShared {
            stats: Stats::new(&config.trace, backend.name()),
            backend,
            retry: config.retry.clone(),
            trace: config.trace.clone(),
            trace_tier: config.trace_tier,
            deadline: config.deadline,
            sleeper: Arc::clone(&config.sleeper),
        }
    }

    /// Executes one op through the portable backend path — retry,
    /// catch-unwind poisoning, stats, trace, publish-then-retire. This
    /// is the body every engine shares; the original worker-pool loop
    /// was exactly `while let Ok(op) = rx.recv() { shared.run_op(op) }`.
    pub(crate) fn run_op(&self, op: Op) {
        let t0 = Instant::now();
        let Op { key, kind, state } = op;
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
            execute_op(
                &*self.backend,
                &self.retry,
                &*self.sleeper,
                &self.stats,
                &op_retries,
                &state,
                &key,
                kind,
            )
        }))
        .unwrap_or_else(|_| {
            Err(io::Error::other(format!(
                "I/O worker panicked while processing {key}"
            )))
        });
        let retried = op_retries.load(Ordering::Acquire);
        self.finish_op(phase, t0, span_start, retried, &state, result, false);
    }

    /// Completes one op: folds per-op retries and errors into the
    /// counters, records the trace span, then publishes the result and
    /// retires the op from the pending gauge — in that order (a drainer
    /// released early would race the waiter for this very completion).
    /// `raw` marks ops served by an engine's raw kernel path (counted
    /// separately).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_op(
        &self,
        phase: Phase,
        t0: Instant,
        span_start: u64,
        retried: u64,
        state: &OpState,
        result: io::Result<OpOutput>,
        raw: bool,
    ) {
        if retried > 0 {
            self.stats.retries.add(retried);
        }
        if result.is_err() {
            self.stats.errors.inc();
        }
        if raw {
            self.stats.raw_ops.inc();
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
    pub(crate) fn note_inflight(&self) {
        if self.trace.is_enabled() {
            self.stats
                .inflight
                .set(self.stats.pending.current() as u64);
        }
    }

    /// Retires an op whose deadline expired: publishes a typed
    /// [`io::ErrorKind::TimedOut`] error and, if that publication won
    /// (the real completion has not landed), removes the op from the
    /// pending gauge so `drain` cannot hang on a dead backend. Called
    /// only by the watchdog thread.
    #[cfg(not(loom))]
    pub(crate) fn time_out(&self, key: &str, state: &OpState) {
        let err = io::Error::new(
            io::ErrorKind::TimedOut,
            format!(
                "aio op on {key} exceeded its {:?} deadline (backend {} unresponsive)",
                self.deadline.unwrap_or_default(),
                self.backend.name(),
            ),
        );
        let counted = || {
            self.stats.timeouts.inc();
            self.stats.errors.inc();
        };
        if state.result.publish_with(Err(err), counted) {
            self.retire();
        }
    }

    /// Poisons an op that could not even be accepted (submission queue
    /// closed mid-teardown). The op's payload (and any pooled staging
    /// buffer) drops here, recycling the buffer.
    pub(crate) fn reject(&self, op: Op) {
        self.stats.errors.inc();
        if op.state.result.publish(Err(io::Error::other(format!(
            "submission queue closed before {} was enqueued",
            op.key
        )))) {
            self.retire();
        }
    }
}

/// Builds the engine backend for a resolved (non-`Auto`) kind. `uring`
/// on a build that cannot honour it degrades to `pool` — the portable
/// superset — so a config requesting it on macOS still works (the
/// engine-matrix tests use [`EngineKind::is_available`] to skip instead).
pub(crate) fn build(
    kind: EngineKind,
    shared: Arc<EngineShared>,
    config: &AioConfig,
) -> Box<dyn IoEngine> {
    match kind {
        EngineKind::Sync => Box::new(sync_engine::SyncEngine::new(shared, config.queue_depth)),
        #[cfg(all(
            target_os = "linux",
            feature = "uring",
            any(target_arch = "x86_64", target_arch = "aarch64"),
            not(loom)
        ))]
        EngineKind::Uring => Box::new(uring::UringEngine::new(shared, config.queue_depth)),
        _ => Box::new(pool::PoolEngine::new(
            shared,
            config.workers,
            config.queue_depth,
        )),
    }
}

/// Runs a block once per *available* engine kind — the engine-matrix
/// pattern the fault/round-trip suites use so one test body covers
/// `pool`, `sync`, and `uring`. Kinds this host legitimately cannot run
/// ([`EngineAvailability::Unsupported`]: no io_uring kernel, seccomp
/// denial, feature compiled out) are skipped *loudly*; a kind whose
/// probe failed for a non-capability reason
/// ([`EngineAvailability::Broken`]) panics instead, so CI goes red on a
/// hollow matrix rather than silently passing with the engine untested.
///
/// ```
/// use mlp_aio::{for_each_engine, AioConfig};
/// let mut ran = Vec::new();
/// for_each_engine!(|kind| {
///     let config = AioConfig { engine: kind, ..AioConfig::deterministic() };
///     ran.push(config.engine.name());
/// });
/// assert!(ran.contains(&"pool") && ran.contains(&"sync"));
/// ```
#[macro_export]
macro_rules! for_each_engine {
    (|$kind:ident| $body:block) => {
        for $kind in $crate::io_engine::EngineKind::all() {
            match $kind.availability() {
                $crate::io_engine::EngineAvailability::Available => $body,
                $crate::io_engine::EngineAvailability::Unsupported(reason) => {
                    // lint:allow(trace-sink): test-harness skip report, expands
                    // only inside test bodies, never on the I/O path
                    eprintln!(
                        "engine-matrix: SKIP {} (unsupported on this host: {reason})",
                        $kind.name()
                    );
                }
                $crate::io_engine::EngineAvailability::Broken(reason) => {
                    // lint:allow(hot-path-panic): test-harness failure,
                    // expands only inside test bodies
                    panic!(
                        "engine-matrix: {} failed its availability probe for a \
                         non-capability reason (refusing to skip): {reason}",
                        $kind.name()
                    );
                }
            }
        }
    };
}

// The microbench OpDriver impl lives here (not in mlp-storage, which
// cannot depend on mlp-aio): it lets the same harness sweep engines and
// queue depths for `BENCH_io_engines.json`.
use mlp_storage::microbench::{DriveOp, OpDriver};

impl OpDriver for crate::AioEngine {
    fn driver_name(&self) -> String {
        format!("{}[{}]", self.engine_name(), self.backend_name())
    }

    fn drive(&self, ops: &[(String, DriveOp)], queue_depth: usize) -> io::Result<()> {
        assert!(queue_depth > 0, "queue depth must be positive");
        let mut pending: std::collections::VecDeque<crate::OpHandle> =
            std::collections::VecDeque::new();
        let harvest = |pending: &mut std::collections::VecDeque<crate::OpHandle>| {
            match pending.pop_front() {
                Some(h) => h.wait().map(|_| ()),
                None => Ok(()),
            }
        };
        for (key, op) in ops {
            if pending.len() >= queue_depth {
                harvest(&mut pending)?;
            }
            let handle = match op {
                DriveOp::Write(bytes) => self.submit_write(key, vec![0xA5u8; *bytes]),
                DriveOp::Read => self.submit_read(key),
                DriveOp::Delete => self.submit_delete(key),
            };
            pending.push_back(handle);
        }
        while !pending.is_empty() {
            harvest(&mut pending)?;
        }
        Ok(())
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use mlp_storage::{ChecksummedBackend, DirBackend, MemBackend, TracedBackend};

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let mut names: Vec<&str> = EngineKind::all().iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 3);
        assert_eq!(EngineKind::Auto.name(), "auto");
        assert_eq!(EngineKind::default(), EngineKind::Auto);
    }

    #[test]
    fn pool_and_sync_are_always_available() {
        assert!(EngineKind::Pool.is_available());
        assert!(EngineKind::Sync.is_available());
        assert!(EngineKind::Auto.is_available());
    }

    /// Satellite fix: "cannot run here" must carry its reason, so the
    /// engine-matrix macro can skip host limitations loudly but fail on
    /// an engine that is broken rather than unsupported.
    #[test]
    fn availability_distinguishes_unsupported_from_broken() {
        assert_eq!(
            EngineKind::Pool.availability(),
            EngineAvailability::Available
        );
        match EngineKind::Uring.availability() {
            EngineAvailability::Available => assert!(EngineKind::Uring.is_available()),
            EngineAvailability::Unsupported(reason) => {
                assert!(!EngineKind::Uring.is_available());
                assert!(!reason.is_empty(), "skip reason must be reportable");
            }
            EngineAvailability::Broken(reason) => {
                panic!("uring probe failed for a non-capability reason: {reason}")
            }
        }
    }

    #[test]
    fn auto_resolves_to_pool_for_memory_backends() {
        let mem = MemBackend::new("mem");
        assert_eq!(EngineKind::Auto.resolve(&mem), EngineKind::Pool);
        // Concrete kinds pass through untouched.
        assert_eq!(EngineKind::Sync.resolve(&mem), EngineKind::Sync);
    }

    #[test]
    fn auto_resolution_on_files_depends_only_on_uring_availability() {
        let root = std::env::temp_dir().join(format!(
            "mlp-aio-resolve-{}",
            std::process::id()
        ));
        let dir = DirBackend::new("dir", &root).unwrap();
        let resolved = EngineKind::Auto.resolve(&dir);
        if EngineKind::Uring.is_available() {
            assert_eq!(resolved, EngineKind::Uring);
        } else {
            assert_eq!(resolved, EngineKind::Pool);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// The selection rule the module docs promise: every decorator
    /// declines `raw_target`, so `Auto` over a *decorated* file backend
    /// is `Pool` in every build — with or without io_uring.
    #[test]
    fn auto_resolves_to_pool_for_decorated_file_backends() {
        let root = std::env::temp_dir().join(format!(
            "mlp-aio-resolve-decorated-{}",
            std::process::id()
        ));
        let dir: Arc<dyn Backend> = Arc::new(DirBackend::new("dir", &root).unwrap());
        let traced = TracedBackend::new(Arc::clone(&dir), 0, TraceSink::disabled());
        assert_eq!(EngineKind::Auto.resolve(&traced), EngineKind::Pool);
        let summed = ChecksummedBackend::new(dir);
        assert_eq!(EngineKind::Auto.resolve(&summed), EngineKind::Pool);
        let _ = std::fs::remove_dir_all(&root);
    }
}
