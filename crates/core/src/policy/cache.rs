//! Host-cache frame planning.
//!
//! The host memory left after the runtime's reservations holds a fixed
//! number of subgroup *frames*. A minimum of [`MIN_PIPELINE_FRAMES`] keeps
//! the fetch → update → flush pipeline flowing (§4.1: "the previous
//! subgroup being lazily flushed, the current being updated, and the next
//! being prefetched"); everything above that can retain subgroups across
//! iterations for the cache-friendly reordering win.
//!
//! The pipeline needs its frames only while an update phase runs. Between
//! phases they would sit empty, so what its frames are is the executor's
//! to state ([`ExecutorKind`]) when it builds its ledger, and the plan
//! turns that into one number, [`FramePlan::rest_frames`]: the budget the
//! ledger plans every pass with. The virtual-time engine's frames are
//! exactly `total_frames` permits the pipeline acquires, so its residents
//! rest beyond the pipeline's three. The functional engine's rest in every
//! frame and leave as soon as their eviction is certain, so the frames
//! leave the resting set exactly while the update pipeline needs them.
//!
//! The kind also says how an executor starts. The virtual-time engine
//! starts cold: everything is placed on the tiers and its cache warms up
//! during training. The functional engine is born in host memory: every
//! subgroup begins where the caller's initial state already is, instead
//! of being offloaded and read back
//! ([`SubgroupLedger::take_born`](crate::policy::ledger::SubgroupLedger::take_born)),
//! so its first pass loads each one as a hit and makes the cold pass's
//! evictions, to the same tiers, as its first durable copies.
//!
//! The minimum is the *floor* of the prefetch window, not its depth, and
//! the lookahead every pass is planned at
//! ([`plan_pass`](crate::policy::ledger::plan_pass)). The virtual-time
//! engine looks exactly that far ahead; the functional engine prefetches
//! as deep as its pool has free buffers, which changes when a load is
//! issued, never what the plan made it.

/// Pipeline minimum: one flushing + one updating + one prefetching frame.
/// The floor of the prefetch window (see the module docs).
pub const MIN_PIPELINE_FRAMES: usize = 3;

/// The two executors a ledger plans for (see the module docs). Not a
/// setting: each engine states the one its frames allow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutorKind {
    /// Frame permits (the virtual-time engine): residents rest beyond the
    /// pipeline's frames and leave at the update that overflows them. It
    /// starts cold.
    Lazy,
    /// A staging pool (the functional engine): residents rest in every
    /// frame and leave as soon as their eviction is certain. It is born
    /// with every subgroup in host memory, outside the resting set, rather
    /// than cold.
    Pool,
}

/// How a worker's host frames are split between the pipeline working set
/// and the cross-iteration cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FramePlan {
    /// Total frames available to this worker.
    pub total_frames: usize,
    /// Frames reserved for in-flight pipeline stages.
    pub pipeline_frames: usize,
    /// Frames beyond the pipeline's, which retain subgroups even while an
    /// update phase runs.
    pub retain_frames: usize,
    /// Frames subgroups rest in between update phases: the ledger's
    /// retention budget.
    pub rest_frames: usize,
}

impl FramePlan {
    /// Plans `total_frames` (clamped up to the pipeline minimum, the
    /// floor of the in-flight depth). With caching disabled pass
    /// `retain = false` to devote everything to the pipeline; with it
    /// enabled, subgroups rest where the executor `kind` says.
    pub fn new(total_frames: usize, retain: bool, kind: ExecutorKind) -> Self {
        let pipeline_frames = MIN_PIPELINE_FRAMES;
        let total_frames = total_frames.max(pipeline_frames);
        let retain_frames = if retain {
            total_frames - pipeline_frames
        } else {
            0
        };
        let rest_frames = match kind {
            ExecutorKind::Pool if retain => total_frames,
            _ => retain_frames,
        };
        FramePlan {
            total_frames,
            pipeline_frames,
            retain_frames,
            rest_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_three_frames_enforced() {
        let plan = FramePlan::new(0, true, ExecutorKind::Lazy);
        assert_eq!(plan.pipeline_frames, 3);
        assert_eq!(plan.total_frames, 3);
        assert_eq!(plan.retain_frames, 0);
        assert_eq!(plan.rest_frames, 0);
        assert_eq!(FramePlan::new(0, true, ExecutorKind::Pool).rest_frames, 3);
    }

    #[test]
    fn surplus_frames_become_cache() {
        let plan = FramePlan::new(10, true, ExecutorKind::Lazy);
        assert_eq!((plan.retain_frames, plan.rest_frames), (7, 7));
    }

    #[test]
    fn every_frame_rests_and_the_surplus_is_unchanged() {
        let plan = FramePlan::new(10, true, ExecutorKind::Pool);
        assert_eq!((plan.retain_frames, plan.rest_frames), (7, 10));
    }

    #[test]
    fn retain_disabled_gives_zero_cache() {
        for kind in [ExecutorKind::Lazy, ExecutorKind::Pool] {
            let plan = FramePlan::new(10, false, kind);
            assert_eq!((plan.retain_frames, plan.rest_frames), (0, 0));
        }
    }
}
