//! The shared recording handle threaded through engine configs.
//!
//! [`TraceSink`] is a cheap clone-able handle that is either *disabled*
//! (the default — a `None` inside, so every record call is one branch
//! and returns) or *enabled* (an `Arc` of event log + registry + clock
//! epoch). Engines store it in their config structs; instrumented
//! components clone it freely. Disabled sinks make instrumentation
//! zero-cost: no event is constructed, no lock taken.
//!
//! An enabled sink keeps its events in one `Vec` behind one
//! [`mlp_sync::Mutex`], reserved up front to the sink's capacity: a
//! push takes the lock, stamps the next sequence number and appends, so
//! push order is sequence order and a drain needs no sort. Nothing is
//! ever dropped; a push that finds `capacity` events already buffered
//! still appends and is counted ([`TraceSink::overflow_count`]) as a
//! sign the capacity is too small for the drain interval.
//!
//! Timestamps are nanoseconds relative to the sink's creation instant
//! ([`TraceSink::now_ns`]) for wall-clock components, while the
//! virtual-time simulation engines pass their own absolute virtual
//! timestamps — the exporters only care that all events recorded into
//! one sink share a timebase.

use std::cell::Cell;
use std::time::Instant;

use mlp_sync::{Arc, Mutex};

use crate::event::{Attrs, EventKind, Phase, TraceEvent};
use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

/// Capacity of [`TraceSink::enabled`] (events, each ~80 bytes).
const DEFAULT_CAPACITY: usize = 1 << 16;

/// What the sink's lock guards.
struct EventLog {
    /// Events recorded since the last drain, in push order.
    events: Vec<TraceEvent>,
    /// Sequence number of the next push; keeps counting across drains.
    next_seq: u64,
    /// Pushes that found `capacity` events already buffered.
    overflowed: u64,
}

struct SinkShared {
    log: Mutex<EventLog>,
    capacity: usize,
    metrics: MetricsRegistry,
    epoch: Instant,
}

impl SinkShared {
    /// Stamps `ev` with the next sequence number and appends it.
    fn push(&self, mut ev: TraceEvent) {
        let mut log = self.log.lock();
        ev.seq = log.next_seq;
        log.next_seq += 1;
        if log.events.len() >= self.capacity {
            log.overflowed += 1;
        }
        log.events.push(ev);
    }
}

/// The `tid` a process-stamped sink ([`TraceSink::for_process`]) gives
/// events recorded on a thread that named no lane of its own: the
/// thread driving the engine.
pub const DRIVER_TID: u32 = 1;

thread_local! {
    /// The lane [`set_thread_lane`] named for this thread, if any.
    static LANE: Cell<Option<u32>> = const { Cell::new(None) };
}

/// Names the calling thread as lane `tid` for the rest of its life: an
/// I/O worker calls it once when it starts. Events it records through a
/// process-stamped sink carry `tid` unless their [`Attrs`] set a track.
pub fn set_thread_lane(tid: u32) {
    LANE.with(|lane| lane.set(Some(tid)));
}

/// Clone-able, possibly-disabled recording handle. See module docs.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<SinkShared>>,
    /// The `pid` this handle stamps ([`TraceSink::for_process`]).
    pid: Option<u32>,
}

impl TraceSink {
    /// A sink that records nothing (every call is a single branch).
    pub fn disabled() -> TraceSink {
        TraceSink::default()
    }

    /// An enabled sink with the default capacity.
    pub fn enabled() -> TraceSink {
        TraceSink::with_capacity(DEFAULT_CAPACITY)
    }

    /// An enabled sink that buffers `capacity` events between drains
    /// before it counts overflows.
    pub fn with_capacity(capacity: usize) -> TraceSink {
        TraceSink {
            inner: Some(Arc::new(SinkShared {
                log: Mutex::new(EventLog {
                    events: Vec::with_capacity(capacity),
                    next_seq: 0,
                    overflowed: 0,
                }),
                capacity,
                metrics: MetricsRegistry::new(),
                epoch: Instant::now(),
            })),
            pid: None,
        }
    }

    /// A handle to the same sink that records each event whose [`Attrs`]
    /// leave the track at `(0, 0)` on track `(pid, tid)`: `tid` is the
    /// lane the recording thread named ([`set_thread_lane`]), else
    /// [`DRIVER_TID`]. Clones keep the stamp; events recorded through
    /// other handles, and tracks set explicitly, are left as they are.
    pub fn for_process(&self, pid: u32) -> TraceSink {
        TraceSink {
            pid: Some(pid),
            ..self.clone()
        }
    }

    /// The `(pid, tid)` an event with `attrs` is recorded on.
    fn track(&self, attrs: &Attrs) -> (u32, u32) {
        match self.pid {
            Some(pid) if (attrs.pid, attrs.tid) == (0, 0) => {
                (pid, LANE.with(Cell::get).unwrap_or(DRIVER_TID))
            }
            _ => (attrs.pid, attrs.tid),
        }
    }

    /// True when this sink records events.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Nanoseconds since this sink was created (0 when disabled).
    /// Wall-clock components use this; virtual-time engines pass their
    /// own timestamps instead.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        match &self.inner {
            Some(s) => s.epoch.elapsed().as_nanos() as u64,
            None => 0,
        }
    }

    /// Records a completed span `[start_ns, end_ns]`. No-op when
    /// disabled.
    pub fn complete_span(&self, phase: Phase, attrs: Attrs, start_ns: u64, end_ns: u64) {
        if let Some(s) = &self.inner {
            let (pid, tid) = self.track(&attrs);
            s.push(TraceEvent {
                seq: 0,
                kind: EventKind::Span,
                phase,
                pid,
                tid,
                tier: attrs.tier,
                subgroup: attrs.subgroup,
                bytes: attrs.bytes,
                ts_ns: start_ns,
                dur_ns: end_ns.saturating_sub(start_ns),
            });
        }
    }

    /// Records a point event at `ts_ns`. No-op when disabled.
    pub fn instant(&self, phase: Phase, attrs: Attrs, ts_ns: u64) {
        if let Some(s) = &self.inner {
            let (pid, tid) = self.track(&attrs);
            s.push(TraceEvent {
                seq: 0,
                kind: EventKind::Instant,
                phase,
                pid,
                tid,
                tier: attrs.tier,
                subgroup: attrs.subgroup,
                bytes: attrs.bytes,
                ts_ns,
                dur_ns: 0,
            });
        }
    }

    /// Starts a wall-clock span that records itself on drop. Returns an
    /// inert guard when disabled.
    pub fn span(&self, phase: Phase, attrs: Attrs) -> SpanGuard {
        SpanGuard {
            sink: if self.is_enabled() {
                Some(self.clone())
            } else {
                None
            },
            phase,
            attrs,
            start_ns: self.now_ns(),
        }
    }

    /// Counter handle named `name` (detached, never exported, when the
    /// sink is disabled — increments still work but cost one atomic).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            Some(s) => s.metrics.counter(name),
            None => Counter::detached(),
        }
    }

    /// Gauge handle named `name` (detached when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            Some(s) => s.metrics.gauge(name),
            None => Gauge::detached(),
        }
    }

    /// Histogram handle named `name` (detached when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            Some(s) => s.metrics.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Drains every event recorded since the last call, in sequence
    /// order. Call after producers quiesce (end of run). Empty when
    /// disabled.
    pub fn events(&self) -> Vec<TraceEvent> {
        match &self.inner {
            Some(s) => s.log.lock().events.drain(..).collect(),
            None => Vec::new(),
        }
    }

    /// Snapshot of every registered metric. Empty when disabled.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(s) => s.metrics.snapshot(),
            None => MetricsSnapshot::default(),
        }
    }

    /// How many pushes found `capacity` events already buffered (0 =
    /// the capacity was sufficient). Those events are kept all the same.
    pub fn overflow_count(&self) -> u64 {
        match &self.inner {
            Some(s) => s.log.lock().overflowed,
            None => 0,
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(s) => write!(
                f,
                "TraceSink(enabled, {} buffered)",
                s.log.lock().events.len()
            ),
            None => write!(f, "TraceSink(disabled)"),
        }
    }
}

/// Two sinks are equal when both are disabled or both are handles to
/// the same shared state. (Config structs derive `PartialEq`; a config
/// carrying a default sink compares equal to another default config.)
impl PartialEq for TraceSink {
    fn eq(&self, other: &Self) -> bool {
        match (&self.inner, &other.inner) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

/// RAII wall-clock span: records `phase` from construction to drop.
/// Returned by [`TraceSink::span`].
pub struct SpanGuard {
    sink: Option<TraceSink>,
    phase: Phase,
    attrs: Attrs,
    start_ns: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(sink) = &self.sink {
            let end = sink.now_ns();
            sink.complete_span(self.phase, self.attrs, self.start_ns, end);
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn a_process_stamped_handle_records_the_thread_lane() {
        let sink = TraceSink::with_capacity(16);
        let stamped = sink.for_process(7);
        assert!(stamped == sink, "one sink, two handles");
        stamped.instant(Phase::Update, Attrs::NONE, 1);
        std::thread::spawn({
            let stamped = stamped.clone();
            move || {
                set_thread_lane(201);
                stamped.instant(Phase::AioRead, Attrs::NONE, 2);
                sink_of(&stamped).instant(Phase::AioRead, Attrs::NONE, 3);
            }
        })
        .join()
        .unwrap();
        let explicit = Attrs {
            pid: 2,
            tid: 5,
            ..Attrs::NONE
        };
        stamped.instant(Phase::Update, explicit, 4);
        sink.instant(Phase::Update, Attrs::NONE, 5);
        let tracks: Vec<_> = sink.events().iter().map(|e| (e.pid, e.tid)).collect();
        assert_eq!(tracks, [(7, DRIVER_TID), (7, 201), (0, 0), (2, 5), (0, 0)]);
    }

    /// The unstamped handle of `s`'s sink.
    fn sink_of(s: &TraceSink) -> TraceSink {
        TraceSink {
            pid: None,
            ..s.clone()
        }
    }

    #[test]
    fn disabled_sink_records_nothing_and_costs_nothing() {
        let s = TraceSink::disabled();
        assert!(!s.is_enabled());
        assert_eq!(s.now_ns(), 0);
        s.complete_span(Phase::Fetch, Attrs::bytes(10), 0, 5);
        s.instant(Phase::AioRetry, Attrs::NONE, 3);
        drop(s.span(Phase::Update, Attrs::NONE));
        s.counter("x").inc();
        assert!(s.events().is_empty());
        assert!(s.metrics_snapshot().is_empty());
        assert_eq!(s, TraceSink::default());
    }

    #[test]
    fn enabled_sink_assigns_monotone_seq() {
        let s = TraceSink::with_capacity(16);
        s.complete_span(Phase::Fetch, Attrs::bytes(100), 10, 30);
        s.instant(Phase::AioRetry, Attrs::NONE, 40);
        s.complete_span(
            Phase::Flush,
            Attrs {
                tier: 1,
                ..Attrs::bytes(200)
            },
            50,
            90,
        );
        let evs = s.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[1].seq, 1);
        assert_eq!(evs[2].seq, 2);
        assert_eq!(evs[0].dur_ns, 20);
        assert_eq!(evs[1].kind, EventKind::Instant);
        assert_eq!(evs[2].tier, 1);
        // Drained: a second read is empty.
        assert!(s.events().is_empty());
    }

    #[test]
    fn span_guard_records_on_drop() {
        let s = TraceSink::with_capacity(16);
        drop(s.span(Phase::UpdateKernel, Attrs::bytes(4096)));
        let evs = s.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].phase, Phase::UpdateKernel);
        assert_eq!(evs[0].bytes, 4096);
    }

    #[test]
    fn clones_share_state_and_compare_equal() {
        let a = TraceSink::with_capacity(16);
        let b = a.clone();
        b.complete_span(Phase::Forward, Attrs::NONE, 0, 1);
        assert_eq!(a.events().len(), 1);
        assert_eq!(a, b);
        assert_ne!(a, TraceSink::with_capacity(16));
        assert_ne!(a, TraceSink::disabled());
    }

    #[test]
    fn metrics_reach_the_shared_registry() {
        let s = TraceSink::with_capacity(16);
        let c = s.counter("tier0.write_bytes");
        c.add(123);
        s.clone().counter("tier0.write_bytes").add(1);
        assert_eq!(s.metrics_snapshot().counter("tier0.write_bytes"), Some(124));
    }

    fn seqs(evs: &[TraceEvent]) -> Vec<u64> {
        evs.iter().map(|e| e.seq).collect()
    }

    #[test]
    fn seq_keeps_counting_across_drains() {
        let s = TraceSink::with_capacity(4);
        for round in 0..3u64 {
            for i in 0..4 {
                s.instant(Phase::Fetch, Attrs::NONE, i);
            }
            assert_eq!(
                seqs(&s.events()),
                (round * 4..round * 4 + 4).collect::<Vec<_>>()
            );
        }
        assert_eq!(s.overflow_count(), 0);
    }

    #[test]
    fn pushes_beyond_capacity_are_kept_in_order_and_counted() {
        let s = TraceSink::with_capacity(4);
        for i in 0..10 {
            s.instant(Phase::Fetch, Attrs::NONE, i * 10);
        }
        assert_eq!(s.overflow_count(), 6);
        let evs = s.events();
        assert_eq!(seqs(&evs), (0..10).collect::<Vec<_>>(), "no event lost");
        assert!(evs.iter().zip(0..).all(|(e, i)| e.ts_ns == i * 10));
        // A drain does not reset the count.
        s.instant(Phase::Fetch, Attrs::NONE, 0);
        assert_eq!(s.overflow_count(), 6);
    }

    #[test]
    fn concurrent_producers_lose_nothing() {
        let s = TraceSink::with_capacity(64);
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let s = s.clone();
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        s.instant(Phase::Fetch, Attrs::bytes(t), i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("producer thread");
        }
        let evs = s.events();
        assert_eq!(evs.len(), 4000);
        assert_eq!(
            seqs(&evs),
            (0..4000).collect::<Vec<_>>(),
            "push order is seq order"
        );
        for t in 0..4u64 {
            let mine: Vec<u64> = evs
                .iter()
                .filter(|e| e.bytes == t)
                .map(|e| e.ts_ns)
                .collect();
            assert_eq!(
                mine,
                (0..1000).collect::<Vec<_>>(),
                "producer {t} in its own order"
            );
        }
    }
}
