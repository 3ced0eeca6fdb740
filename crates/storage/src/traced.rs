//! Tier-level I/O tracing: a [`Backend`] decorator that records every
//! read and write as a [`Phase::TierRead`]/[`Phase::TierWrite`] span.
//!
//! The decorator sits *outside* any fault injection or checksumming
//! decorators and *below* the `mlp-aio` engine, so its spans measure the
//! storage medium itself — including injected latency spikes and retry
//! re-reads — while the engine's `aio_read`/`aio_write` spans measure
//! the op end to end. The per-tier bandwidth summary
//! ([`mlp_trace::IoSummary`]) is computed from exactly these spans.

use std::io;
use std::sync::Arc;

use mlp_tensor::HostBuffer;
use mlp_trace::{Attrs, Counter, Phase, TraceSink};

use crate::backend::Backend;

/// Wraps a [`Backend`] so every data-moving call lands on the timeline
/// as a tier-attributed span, and byte totals accumulate on
/// `tier.<name>.read_bytes` / `tier.<name>.write_bytes` counters.
///
/// With a disabled sink the wrapper is pass-through: one `is_enabled`
/// check per call and no timestamps, allocations, or events.
pub struct TracedBackend {
    inner: Arc<dyn Backend>,
    trace: TraceSink,
    tier: i32,
    read_bytes: Counter,
    write_bytes: Counter,
}

impl TracedBackend {
    /// Wraps `inner`, stamping `tier` on every recorded span.
    pub fn new(inner: Arc<dyn Backend>, tier: i32, trace: TraceSink) -> Self {
        let c = |meter: &str| trace.counter(&format!("tier.{}.{meter}", inner.name()));
        TracedBackend {
            read_bytes: c("read_bytes"),
            write_bytes: c("write_bytes"),
            inner,
            trace,
            tier,
        }
    }

    /// The tier index stamped on this backend's spans.
    pub fn tier(&self) -> i32 {
        self.tier
    }

    fn record(&self, phase: Phase, bytes: u64, start_ns: u64) {
        let attrs = Attrs {
            tier: self.tier,
            bytes,
            ..Attrs::NONE
        };
        self.trace
            .complete_span(phase, attrs, start_ns, self.trace.now_ns());
    }

    /// One write of `len` bytes, however the inner backend is handed
    /// them: the same span and the same counter for a copy and an
    /// exchange.
    fn traced_write(&self, len: usize, write: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        if !self.trace.is_enabled() {
            return write();
        }
        let start = self.trace.now_ns();
        let result = write();
        if result.is_ok() {
            self.record(Phase::TierWrite, len as u64, start);
            self.write_bytes.add(len as u64);
        }
        result
    }
}

impl Backend for TracedBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.traced_write(data.len(), || self.inner.write(key, data))
    }

    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        self.traced_write(frame.len(), || self.inner.write_frame(key, frame))
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        if !self.trace.is_enabled() {
            return self.inner.read(key);
        }
        let start = self.trace.now_ns();
        let result = self.inner.read(key);
        if let Ok(data) = &result {
            self.record(Phase::TierRead, data.len() as u64, start);
            self.read_bytes.add(data.len() as u64);
        }
        result
    }

    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        if !self.trace.is_enabled() {
            return self.inner.read_into(key, dst);
        }
        let start = self.trace.now_ns();
        let result = self.inner.read_into(key, dst);
        if let Ok(n) = &result {
            self.record(Phase::TierRead, *n as u64, start);
            self.read_bytes.add(*n as u64);
        }
        result
    }

    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        self.inner.link(from, to)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use mlp_trace::{EventKind, IoDirection};

    #[test]
    fn disabled_sink_is_pass_through() {
        let b = TracedBackend::new(Arc::new(MemBackend::new("mem")), 0, TraceSink::disabled());
        b.write("k", &[1, 2, 3]).unwrap();
        assert_eq!(b.read("k").unwrap(), vec![1, 2, 3]);
        assert_eq!(b.name(), "mem");
    }

    #[test]
    fn io_becomes_tier_spans_and_counters() {
        let sink = TraceSink::enabled();
        let b = TracedBackend::new(Arc::new(MemBackend::new("mem")), 1, sink.clone());
        b.write("k", &[7u8; 100]).unwrap();
        // A whole-frame write is a tier write like any other.
        b.write_frame("k", &mut HostBuffer::from_slice(&[8u8; 100]))
            .unwrap();
        assert_eq!(b.read("k").unwrap(), vec![8u8; 100]);
        let mut dst = [0u8; 128];
        assert_eq!(b.read_into("k", &mut dst).unwrap(), 100);

        let events = sink.events();
        let writes: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::TierWrite)
            .collect();
        let reads: Vec<_> = events
            .iter()
            .filter(|e| e.phase == Phase::TierRead)
            .collect();
        assert_eq!(writes.len(), 2);
        assert_eq!(reads.len(), 2);
        for e in writes.iter().chain(&reads) {
            assert_eq!(e.kind, EventKind::Span);
            assert_eq!(e.tier, 1);
            assert_eq!(e.bytes, 100);
        }

        let metrics = sink.metrics_snapshot();
        assert_eq!(metrics.counter("tier.mem.write_bytes"), Some(200));
        assert_eq!(metrics.counter("tier.mem.read_bytes"), Some(200));

        let summary = mlp_trace::IoSummary::from_events(&events);
        assert_eq!(summary.tier(1, IoDirection::Write).bytes, 200);
        assert_eq!(summary.tier(1, IoDirection::Read).bytes, 200);
    }

    #[test]
    fn failed_io_records_no_span() {
        let sink = TraceSink::enabled();
        let b = TracedBackend::new(Arc::new(MemBackend::new("mem")), 0, sink.clone());
        assert!(b.read("missing").is_err());
        assert!(sink.events().is_empty());
    }
}
