//! The structured event record and its phase taxonomy.
//!
//! Every instrumented operation in the pipeline — an I/O op inside
//! [`AioEngine`](../../mlp_aio/index.html), a subgroup fetch in the
//! virtual-time engines, a fused optimizer kernel — is recorded as one
//! [`TraceEvent`]: a fixed-size, `Copy` record carrying a global sequence
//! number, the [`Phase`] taxonomy tag, a `(pid, tid)` track coordinate
//! for timeline rendering, and the tier / subgroup / byte-count
//! attributes the figure pipeline aggregates over.

/// Whether an event is a duration span or a point-in-time marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A duration: `ts_ns .. ts_ns + dur_ns`.
    Span,
    /// A point event (`dur_ns` is zero and meaningless).
    Instant,
}

/// The event taxonomy — every instrumented operation maps onto exactly
/// one of these tags (see `OBSERVABILITY.md` for the full catalogue and
/// which component emits which tag).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Phase {
    /// One full training iteration (trainer-level umbrella span).
    Iteration,
    /// Forward pass compute.
    Forward,
    /// Backward pass compute (per micro-step or whole pass).
    Backward,
    /// Gradient shard written toward a storage tier.
    GradFlush,
    /// Optimizer-state subgroup read from a tier into host memory.
    Fetch,
    /// Optimizer-state subgroup written from host memory to a tier.
    Flush,
    /// The update phase of one iteration (umbrella span).
    Update,
    /// One fused (or multi-pass) optimizer kernel invocation.
    UpdateKernel,
    /// An `AioEngine` read op, submit-to-completion.
    AioRead,
    /// An `AioEngine` write op, submit-to-completion.
    AioWrite,
    /// An `AioEngine` delete op, submit-to-completion.
    AioDelete,
    /// An `AioEngine` link op (a checkpoint pin), submit-to-completion.
    AioLink,
    /// The codec stage encoding a write, on the thread that submits it
    /// (span); `bytes` are the raw bytes coded.
    CodecEncode,
    /// The codec stage decoding a read's frame, on the thread that takes
    /// it (span); `bytes` are the raw bytes decoded.
    CodecDecode,
    /// A retry re-issued by the `AioEngine` backoff policy (instant).
    AioRetry,
    /// A fault injected by `FaultInjectBackend` (instant).
    FaultInject,
    /// A pinned buffer checked out of the pool (instant).
    PoolAcquire,
    /// A pinned buffer returned to the pool (instant).
    PoolRelease,
    /// A raw storage-backend read (`TracedBackend` decorator).
    TierRead,
    /// A raw storage-backend write (`TracedBackend` decorator).
    TierWrite,
    /// An adaptive-planner re-plan decision (instant): the estimator fold
    /// that produces the next iteration's tier split. `bytes` carries the
    /// number of migration steps the decision scheduled.
    Replan,
    /// One durable-copy migration between tiers (span): read from the
    /// source tier, write to the destination, delete the source copy.
    /// `tier` is the destination; the source is recoverable from the
    /// paired `AioRead`/`AioDelete` events.
    Migrate,
    /// One subgroup of a checkpoint flushed to the fast durable tier
    /// (span). Overlaps the next backward pass when the checkpoint
    /// pipeline runs asynchronously.
    CkptFlush,
    /// One checkpointed subgroup trickled from the fast durable tier to
    /// the object store (span): the slow second hop of the multi-tier
    /// checkpoint pipeline, fully off the critical path.
    CkptTrickle,
    /// A tier's circuit breaker latched permanently open (instant):
    /// from here on the tier is excluded from placement and its durable
    /// copies are evacuated. `tier` identifies the quarantined tier.
    Quarantine,
    /// One durable subgroup copy evacuated off a quarantined tier
    /// (span): read from the dying tier, write to a survivor, update the
    /// placement, best-effort delete of the source. `tier` is the
    /// destination; `bytes` the copy size.
    Drain,
    /// A state read issued as an update phase ends, for the next one's
    /// pass (instant): `tier` and `subgroup` name it, `bytes` its size.
    Prefetch,
}

/// All phases, in a fixed order (used by exporters and tests).
pub const ALL_PHASES: &[Phase] = &[
    Phase::Iteration,
    Phase::Forward,
    Phase::Backward,
    Phase::GradFlush,
    Phase::Fetch,
    Phase::Flush,
    Phase::Update,
    Phase::UpdateKernel,
    Phase::AioRead,
    Phase::AioWrite,
    Phase::AioDelete,
    Phase::AioLink,
    Phase::CodecEncode,
    Phase::CodecDecode,
    Phase::AioRetry,
    Phase::FaultInject,
    Phase::PoolAcquire,
    Phase::PoolRelease,
    Phase::TierRead,
    Phase::TierWrite,
    Phase::Replan,
    Phase::Migrate,
    Phase::CkptFlush,
    Phase::CkptTrickle,
    Phase::Quarantine,
    Phase::Drain,
    Phase::Prefetch,
];

impl Phase {
    /// Stable string name (the `name` field of exported Chrome events).
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Iteration => "iteration",
            Phase::Forward => "forward",
            Phase::Backward => "backward",
            Phase::GradFlush => "grad_flush",
            Phase::Fetch => "fetch",
            Phase::Flush => "flush",
            Phase::Update => "update",
            Phase::UpdateKernel => "update_kernel",
            Phase::AioRead => "aio_read",
            Phase::AioWrite => "aio_write",
            Phase::AioDelete => "aio_delete",
            Phase::AioLink => "aio_link",
            Phase::CodecEncode => "codec_encode",
            Phase::CodecDecode => "codec_decode",
            Phase::AioRetry => "aio_retry",
            Phase::FaultInject => "fault_inject",
            Phase::PoolAcquire => "pool_acquire",
            Phase::PoolRelease => "pool_release",
            Phase::TierRead => "tier_read",
            Phase::TierWrite => "tier_write",
            Phase::Replan => "replan",
            Phase::Migrate => "migrate",
            Phase::CkptFlush => "ckpt_flush",
            Phase::CkptTrickle => "ckpt_trickle",
            Phase::Quarantine => "quarantine",
            Phase::Drain => "drain",
            Phase::Prefetch => "prefetch",
        }
    }

    /// Which way this phase moves bytes through storage, if it does.
    /// Drives the per-tier read/write split in the summary table.
    pub fn direction(self) -> Option<IoDirection> {
        match self {
            Phase::Fetch | Phase::AioRead | Phase::TierRead => Some(IoDirection::Read),
            Phase::GradFlush
            | Phase::Flush
            | Phase::AioWrite
            | Phase::TierWrite
            | Phase::CkptFlush
            | Phase::CkptTrickle => Some(IoDirection::Write),
            _ => None,
        }
    }
}

/// Inverse of [`Phase::as_str`] (used by the Chrome-JSON parser).
impl std::str::FromStr for Phase {
    type Err = String;

    fn from_str(s: &str) -> Result<Phase, String> {
        ALL_PHASES
            .iter()
            .copied()
            .find(|p| p.as_str() == s)
            .ok_or_else(|| format!("unknown phase `{s}`"))
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Read or write, from the storage tier's point of view.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IoDirection {
    /// Tier → host.
    Read,
    /// Host → tier.
    Write,
}

/// Track coordinates and data attributes attached to an event.
///
/// `pid` groups tracks into a Chrome "process" (one per engine or
/// worker); `tid` is the lane within it (compute, per-tier I/O, pool).
/// `tier`/`subgroup` are `-1` when not applicable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Attrs {
    /// Chrome process id: engine / worker index.
    pub pid: u32,
    /// Chrome thread id: lane within the process.
    pub tid: u32,
    /// Storage-tier index, or `-1` if the event touches no tier.
    pub tier: i32,
    /// Parameter-subgroup index, or `-1` if not subgroup-scoped.
    pub subgroup: i64,
    /// Payload bytes moved by the operation (0 for pure compute).
    pub bytes: u64,
}

impl Attrs {
    /// No tier, no subgroup, no bytes, track `(0, 0)`.
    pub const NONE: Attrs = Attrs {
        pid: 0,
        tid: 0,
        tier: -1,
        subgroup: -1,
        bytes: 0,
    };

    /// `NONE` with a byte count.
    pub fn bytes(n: u64) -> Attrs {
        Attrs {
            bytes: n,
            ..Attrs::NONE
        }
    }

    /// `NONE` with a storage tier and a byte count.
    pub fn tier_bytes(tier: i32, n: u64) -> Attrs {
        Attrs {
            tier,
            ..Attrs::bytes(n)
        }
    }
}

impl Default for Attrs {
    fn default() -> Self {
        Attrs::NONE
    }
}

/// One recorded event. Fixed-size and `Copy` so the sink stores it
/// inline in its reserved buffer and producers never allocate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global sequence number (allocation order across all producers).
    pub seq: u64,
    /// Span or instant.
    pub kind: EventKind,
    /// Taxonomy tag.
    pub phase: Phase,
    /// Chrome process id (engine / worker index).
    pub pid: u32,
    /// Chrome thread id (lane within the process).
    pub tid: u32,
    /// Storage-tier index, `-1` if none.
    pub tier: i32,
    /// Parameter-subgroup index, `-1` if none.
    pub subgroup: i64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Start timestamp, nanoseconds (wall-clock since sink creation, or
    /// absolute virtual time for the simulation engines).
    pub ts_ns: u64,
    /// Duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
}

impl TraceEvent {
    /// A record with no tier, subgroup, bytes or time: the base for
    /// struct-update syntax when only a few fields matter.
    pub const EMPTY: TraceEvent = TraceEvent {
        seq: 0,
        kind: EventKind::Instant,
        phase: Phase::Iteration,
        pid: 0,
        tid: 0,
        tier: -1,
        subgroup: -1,
        bytes: 0,
        ts_ns: 0,
        dur_ns: 0,
    };

    /// End timestamp (`ts_ns + dur_ns`, saturating).
    pub fn end_ns(&self) -> u64 {
        self.ts_ns.saturating_add(self.dur_ns)
    }

    /// True if the two spans overlap in time for at least one nanosecond.
    pub fn overlaps(&self, other: &TraceEvent) -> bool {
        self.ts_ns < other.end_ns() && other.ts_ns < self.end_ns()
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for &p in ALL_PHASES {
            assert_eq!(p.as_str().parse(), Ok(p), "{p:?}");
        }
        assert_eq!(
            "nonsense".parse::<Phase>(),
            Err("unknown phase `nonsense`".to_string())
        );
    }

    #[test]
    fn directions_cover_the_io_phases() {
        assert_eq!(Phase::Fetch.direction(), Some(IoDirection::Read));
        assert_eq!(Phase::Flush.direction(), Some(IoDirection::Write));
        assert_eq!(Phase::GradFlush.direction(), Some(IoDirection::Write));
        assert_eq!(Phase::CkptFlush.direction(), Some(IoDirection::Write));
        assert_eq!(Phase::CkptTrickle.direction(), Some(IoDirection::Write));
        assert_eq!(Phase::Backward.direction(), None);
        assert_eq!(Phase::PoolAcquire.direction(), None);
    }

    #[test]
    fn overlap_is_symmetric_and_strict() {
        let mk = |ts, dur| TraceEvent {
            kind: EventKind::Span,
            ts_ns: ts,
            dur_ns: dur,
            ..TraceEvent::EMPTY
        };
        let a = mk(0, 10);
        let b = mk(5, 10);
        let c = mk(10, 5); // abuts a, does not overlap
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }
}
