//! Host-cache frame planning.
//!
//! The host memory left after the runtime's reservations holds a fixed
//! number of subgroup *frames*. A minimum of [`MIN_PIPELINE_FRAMES`] keeps
//! the fetch → update → flush pipeline flowing (§4.1: "the previous
//! subgroup being lazily flushed, the current being updated, and the next
//! being prefetched"); everything above that can retain subgroups across
//! iterations for the cache-friendly reordering win.
//!
//! The minimum is the *floor* of the prefetch window, not its depth. The
//! virtual-time engine looks exactly that far ahead; the functional
//! engine waits for a staging buffer only below it and otherwise
//! prefetches as deep as its pool has free buffers — which, since
//! evictions leave as soon as the order makes them certain
//! ([`SubgroupLedger::retire_ahead`](crate::policy::ledger::SubgroupLedger::retire_ahead)),
//! includes the retained frames for the whole middle of an iteration.

/// Pipeline minimum: one flushing + one updating + one prefetching frame.
/// The floor of the prefetch window (see the module docs).
pub const MIN_PIPELINE_FRAMES: usize = 3;

/// How a worker's host frames are split between the pipeline working set
/// and the cross-iteration cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FramePlan {
    /// Total frames available to this worker.
    pub total_frames: usize,
    /// Frames reserved for in-flight pipeline stages.
    pub pipeline_frames: usize,
    /// Frames retaining subgroups across iterations.
    pub retain_frames: usize,
}

impl FramePlan {
    /// Plans `total_frames` (clamped up to the pipeline minimum, the
    /// floor of the in-flight depth). With caching disabled pass
    /// `retain = false` to devote everything to the pipeline.
    pub fn new(total_frames: usize, retain: bool) -> Self {
        let pipeline_frames = MIN_PIPELINE_FRAMES;
        let total_frames = total_frames.max(pipeline_frames);
        let retain_frames = if retain {
            total_frames - pipeline_frames
        } else {
            0
        };
        FramePlan {
            total_frames,
            pipeline_frames,
            retain_frames,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimum_three_frames_enforced() {
        let plan = FramePlan::new(0, true);
        assert_eq!(plan.pipeline_frames, 3);
        assert_eq!(plan.total_frames, 3);
        assert_eq!(plan.retain_frames, 0);
    }

    #[test]
    fn surplus_frames_become_cache() {
        let plan = FramePlan::new(10, true);
        assert_eq!(plan.retain_frames, 7);
    }

    #[test]
    fn retain_disabled_gives_zero_cache() {
        let plan = FramePlan::new(10, false);
        assert_eq!(plan.retain_frames, 0);
    }
}
