//! The I/O engine subsystem: one completion protocol, two ways to run
//! an operation.
//!
//! [`AioEngine`](crate::AioEngine) is a façade; running the operation is
//! delegated to the engine backend named by
//! [`AioConfig::engine`](crate::AioConfig::engine):
//!
//! * **`pool`** — a bounded-queue worker pool of blocking backend calls,
//!   the paper's libaio/DeepNVMe worker threads. The production engine:
//!   every trainer, example, `repro` experiment and benchmark workload
//!   runs it.
//! * **`sync`** — inline execution on the submitting thread. Zero
//!   threads, zero queues: the test substrate. It is the loom-checkable
//!   representative of the shared protocol below, and the engine the
//!   chaos suite and the tier-lock reproduction use when an op must have
//!   finished by the time `submit_*` returns.
//!
//! Both make the same portable [`Backend`] call, so every decorator
//! (fault injection, checksumming, tracing) sees every operation on
//! either engine.
//!
//! # Shared protocol
//!
//! Completion hand-off ([`CompletionSlot`](crate::CompletionSlot)),
//! drain ([`PendingGauge`](crate::PendingGauge)), the tier's failure
//! policy (retry/backoff, breaker, deadline timeouts), stats, and trace
//! instrumentation live in `EngineShared`, *outside* the engine
//! backends. Every engine funnels through
//! `EngineShared::run_op`/`EngineShared::finish_op`, so the
//! model-checked publish-then-retire invariants hold for both by
//! construction.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mlp_sync::atomic::{AtomicU64, Ordering};
use mlp_sync::Arc;

use mlp_storage::{breaker_rejection, Backend, TierHealth};
use mlp_trace::{Attrs, Phase, TraceSink};

use crate::engine::{execute_op, AioConfig, Op, OpOutput, OpState, RetryPolicy, Stats};

pub(crate) mod pool;
pub(crate) mod sync_engine;

/// Which engine backend runs the operations; see the
/// [module docs](self) for what each one is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Bounded-queue worker pool of blocking backend calls.
    Pool,
    /// Inline execution on the submitting thread.
    Sync,
}

impl EngineKind {
    /// Every kind, in engine-matrix order.
    pub fn all() -> [EngineKind; 2] {
        [EngineKind::Pool, EngineKind::Sync]
    }

    /// Stable lowercase name, for test labels and temp-dir names.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Pool => "pool",
            EngineKind::Sync => "sync",
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An engine backend: executes [`Op`]s and completes them through
/// [`EngineShared`]. Teardown is Drop: close the submission path, finish
/// already-accepted ops, join threads.
pub(crate) trait IoEngine: Send + Sync {
    /// Accepts an operation. May block for backpressure (bounded
    /// queues); must eventually publish exactly one completion for the
    /// op through [`EngineShared::run_op`] / [`EngineShared::reject`] on
    /// every path, including errors and panics.
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
    /// The tier breaker that admits and hears every attempt, if any.
    pub(crate) health: Option<Arc<TierHealth>>,
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
            health: config.health.clone(),
            sleeper: Arc::clone(&config.sleeper),
        }
    }

    /// Executes one op against the backend — retry, catch-unwind
    /// poisoning, stats, trace, publish-then-retire. This is the body
    /// both engines share; the worker-pool loop is exactly
    /// `while let Ok(op) = rx.recv() { shared.run_op(op) }`.
    pub(crate) fn run_op(&self, op: Op) {
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
    pub(crate) fn run_attempts<T>(
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
    pub(crate) fn note_inflight(&self) {
        if self.trace.is_enabled() {
            self.stats
                .inflight
                .set(self.stats.pending.current() as u64);
        }
    }

    /// Retires an op whose deadline expired: publishes a typed
    /// [`io::ErrorKind::TimedOut`] error and, if that publication won
    /// (the real completion has not landed), records it as a breaker
    /// failure and removes the op from the pending gauge so `drain`
    /// cannot hang on a dead backend. Called only by the watchdog
    /// thread.
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
            if let Some(health) = &self.health {
                health.record_failure(&io::ErrorKind::TimedOut.into());
            }
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

/// Builds the engine backend `config.engine` names.
pub(crate) fn build(shared: Arc<EngineShared>, config: &AioConfig) -> Box<dyn IoEngine> {
    match config.engine {
        EngineKind::Sync => Box::new(sync_engine::SyncEngine::new(shared, config.queue_depth)),
        EngineKind::Pool => Box::new(pool::PoolEngine::new(
            shared,
            config.workers,
            config.queue_depth,
        )),
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable_and_distinct() {
        let names: Vec<&str> = EngineKind::all().iter().map(|k| k.name()).collect();
        assert_eq!(names, ["pool", "sync"]);
    }
}
