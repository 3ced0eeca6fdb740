//! The inline (plain-sync) engine: zero threads, zero queues.
//!
//! `submit` executes the operation on the calling thread through the
//! shared path and returns with the completion already published, so
//! `wait` never blocks. Submission-side asynchrony is gone — no
//! production path runs this engine; it is the test substrate: the one
//! the loom explorer can schedule, and the one a test picks when an op
//! must have finished by the time `submit_*` returns — but every other
//! contract (retry, panic poisoning, stats, trace spans, pooled-buffer
//! recycling, drain) holds unchanged because the execution body is the
//! same [`EngineShared::run_op`].
//!
//! # Deadline mode
//!
//! Inline execution cannot honour [`AioConfig::deadline`]
//! (crate::AioConfig::deadline) by itself: a hung backend call would
//! hang the *submitter*, before any waiter exists for the watchdog to
//! unblock. So when a deadline is configured the engine runs ops on a
//! one-worker [`PoolEngine`] instead, and `submit` blocks only until a
//! completion is *published* — by the worker (the normal case) or by
//! the watchdog's typed `TimedOut` (a hung backend). Submission
//! ordering, single-op-at-a-time execution, and
//! "completion available when `submit` returns" are all preserved; the
//! only observable difference is that a dead backend now costs each op
//! one deadline instead of forever. A hung call wedges the worker, so
//! every later op times out at its own deadline without executing (the
//! degraded mode the tier breaker quarantines) and, as on the pool
//! engine, submission blocks once `queue_depth` such ops are parked.

use mlp_sync::Arc;

use super::pool::PoolEngine;
use super::{EngineShared, IoEngine};
use crate::engine::Op;

pub(crate) struct SyncEngine {
    shared: Arc<EngineShared>,
    /// The one-worker pool of deadline mode, present iff a deadline is
    /// configured.
    helper: Option<PoolEngine>,
}

impl SyncEngine {
    pub(crate) fn new(shared: Arc<EngineShared>, queue_depth: usize) -> Self {
        let helper = shared
            .deadline
            .is_some()
            .then(|| PoolEngine::new(Arc::clone(&shared), 1, queue_depth));
        SyncEngine { shared, helper }
    }
}

impl IoEngine for SyncEngine {
    fn submit(&self, op: Op) {
        match &self.helper {
            Some(helper) => {
                // The watchdog guarantees publication within the deadline
                // (ops are registered before submission), so this wait is
                // bounded even when the worker is wedged.
                let state = Arc::clone(&op.state);
                helper.submit(op);
                state.result.wait_published();
            }
            None => self.shared.run_op(op),
        }
    }
}
