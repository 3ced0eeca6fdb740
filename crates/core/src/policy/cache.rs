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
//! phases they would sit empty, so where subgroups *rest* is the
//! executor's to state ([`Resting`]) when it builds its ledger, and the
//! plan turns that into one number, [`FramePlan::rest_frames`]: the
//! ledger's budget for every retirement and eviction rule. The
//! virtual-time engine's frames are exactly `total_frames` permits the
//! pipeline acquires, so its residents rest beyond the pipeline's three.
//! The functional engine's residents rest in every frame: its evictions
//! leave as soon as the order makes them certain
//! ([`SubgroupLedger::retire_ahead`](crate::policy::ledger::SubgroupLedger::retire_ahead)),
//! so the frames leave the resting set exactly while the update pipeline
//! needs them, and its staging pool keeps the window's floor free at rest.
//!
//! The minimum is the *floor* of the prefetch window, not its depth. The
//! virtual-time engine looks exactly that far ahead; the functional
//! engine waits for a staging buffer only below it and otherwise
//! prefetches as deep as its pool has free buffers — which includes the
//! resting frames for the whole middle of an iteration.

/// Pipeline minimum: one flushing + one updating + one prefetching frame.
/// The floor of the prefetch window (see the module docs).
pub const MIN_PIPELINE_FRAMES: usize = 3;

/// Where an executor's residents rest between update phases (see the
/// module docs). Not a setting: each engine states the one its frames
/// allow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resting {
    /// Only in the frames beyond the pipeline's: a resident holds its
    /// frame, and the pipeline must still find its own three free.
    BeyondPipeline,
    /// In every host frame: the pipeline's frames are freed by the
    /// iteration's own certain evictions before it needs them.
    EveryFrame,
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
    /// enabled, subgroups rest where `resting` says.
    pub fn new(total_frames: usize, retain: bool, resting: Resting) -> Self {
        let pipeline_frames = MIN_PIPELINE_FRAMES;
        let total_frames = total_frames.max(pipeline_frames);
        let retain_frames = if retain {
            total_frames - pipeline_frames
        } else {
            0
        };
        let rest_frames = match resting {
            Resting::EveryFrame if retain => total_frames,
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
        let plan = FramePlan::new(0, true, Resting::BeyondPipeline);
        assert_eq!(plan.pipeline_frames, 3);
        assert_eq!(plan.total_frames, 3);
        assert_eq!(plan.retain_frames, 0);
        assert_eq!(plan.rest_frames, 0);
        assert_eq!(FramePlan::new(0, true, Resting::EveryFrame).rest_frames, 3);
    }

    #[test]
    fn surplus_frames_become_cache() {
        let plan = FramePlan::new(10, true, Resting::BeyondPipeline);
        assert_eq!((plan.retain_frames, plan.rest_frames), (7, 7));
    }

    #[test]
    fn every_frame_rests_and_the_surplus_is_unchanged() {
        let plan = FramePlan::new(10, true, Resting::EveryFrame);
        assert_eq!((plan.retain_frames, plan.rest_frames), (7, 10));
    }

    #[test]
    fn retain_disabled_gives_zero_cache() {
        for resting in [Resting::BeyondPipeline, Resting::EveryFrame] {
            let plan = FramePlan::new(10, false, resting);
            assert_eq!((plan.retain_frames, plan.rest_frames), (0, 0));
        }
    }
}
