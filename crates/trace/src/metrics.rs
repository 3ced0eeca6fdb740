//! Typed metrics: counters, gauges, and fixed-log2-bucket histograms
//! behind a named registry.
//!
//! This unifies the ad-hoc counters that previously lived in three
//! places — `core::stats`' byte tallies, `AioEngine`'s retry/error
//! stats, and the storage tiers' bandwidth accounting — under one
//! snapshot/export path. Handles ([`Counter`], [`Gauge`],
//! [`Histogram`]) are cheap `Arc` clones; updating one is a single
//! atomic RMW with no lock and no allocation, so they are safe to hold
//! on the I/O hot path. The registry itself is only locked on
//! registration and snapshot.
//!
//! Ordering contract: metric cells are pure monotonic tallies (or
//! last-write-wins gauges) read only by [`MetricsRegistry::snapshot`]
//! for reporting; nothing synchronizes *through* them. They still use
//! `AcqRel`/`Acquire` because the cost is irrelevant off the
//! nanosecond-scale paths and it keeps the crate free of
//! `Ordering::Relaxed` audits.

use std::collections::BTreeMap;

use mlp_sync::atomic::{AtomicU64, Ordering};
use mlp_sync::{Arc, Mutex};

/// Number of histogram buckets: bucket 0 holds zero-valued samples,
/// bucket `k >= 1` holds samples in `[2^(k-1), 2^k)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (used by disabled sinks).
    pub fn detached() -> Counter {
        Counter::default()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::AcqRel);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A last-write-wins instantaneous value (e.g. outstanding buffers).
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry (used by disabled sinks).
    pub fn detached() -> Gauge {
        Gauge::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::AcqRel);
    }

    /// Subtracts `n` (wrapping like the underlying atomic; callers keep
    /// add/sub balanced).
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::AcqRel);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

struct HistogramCells {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A histogram over `u64` samples with fixed log2 buckets (see
/// [`HISTOGRAM_BUCKETS`]). Suited to byte counts and nanosecond
/// latencies, where order-of-magnitude resolution is what the summary
/// tables report.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCells>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistogramCells {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }))
    }
}

/// Bucket index for a sample: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

impl Histogram {
    /// A histogram not attached to any registry (used by disabled sinks).
    pub fn detached() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        // lint:allow(transitive-panic): bucket_index is < BUCKETS by construction (tested)
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::AcqRel);
        self.0.count.fetch_add(1, Ordering::AcqRel);
        self.0.sum.fetch_add(v, Ordering::AcqRel);
    }

    /// Consistent-enough snapshot for reporting (fields are read
    /// independently; concurrent recording can skew them by in-flight
    /// samples, which is fine at export time when producers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.0.buckets.iter().map(|b| b.load(Ordering::Acquire)).collect(),
            count: self.0.count.load(Ordering::Acquire),
            sum: self.0.sum.load(Ordering::Acquire),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (length [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// Named home for every metric a run produces. Lookup creates on first
/// use; handles are cached by the instrumented component, not looked up
/// per operation.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Returns the counter named `name`, creating it if absent.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock();
        g.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it if absent.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock();
        g.gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Returns the histogram named `name`, creating it if absent.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock();
        g.histograms.entry(name.to_owned()).or_default().clone()
    }

    /// Copies every metric's current value, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let g = self.inner.lock();
        MetricsSnapshot {
            counters: g.counters.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            gauges: g.gauges.iter().map(|(k, v)| (k.clone(), v.get())).collect(),
            histograms: g
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole [`MetricsRegistry`], name-sorted.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, value)` for every counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// True when no metric was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("io.reads");
        c.inc();
        c.add(4);
        // Same name returns the same cell.
        assert_eq!(reg.counter("io.reads").get(), 5);

        let g = reg.gauge("pool.outstanding");
        g.add(3);
        g.sub(1);
        assert_eq!(g.get(), 2);
        g.set(7);
        assert_eq!(reg.gauge("pool.outstanding").get(), 7);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn histogram_mean_and_snapshot() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("fetch.bytes");
        for v in [0u64, 1, 2, 4, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1031);
        assert!((s.mean() - 206.2).abs() < 1e-9);
        // Snapshot is reflected by the registry snapshot too.
        let snap = reg.snapshot();
        assert_eq!(snap.histograms.len(), 1);
        assert_eq!(snap.histograms[0].0, "fetch.bytes");
        assert_eq!(snap.histograms[0].1, s);
    }

    #[test]
    fn snapshot_is_name_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(2);
        reg.counter("a").add(1);
        let s = reg.snapshot();
        let names: Vec<&str> = s.counters.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, vec!["a", "b"]);
        assert_eq!(s.counter("b"), Some(2));
        assert_eq!(s.counter("missing"), None);
        assert!(!s.is_empty());
        assert!(MetricsSnapshot::default().is_empty());
    }
}
