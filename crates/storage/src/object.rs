//! S3-like object-store backend, emulated locally (§3.3 third level).
//!
//! Object stores behave unlike both NVMe and a PFS: every request pays a
//! high first-byte latency, a *single* stream is capped well below the
//! aggregate bandwidth (throughput comes from concurrency), objects are
//! immutable blobs published atomically (there is no rename), large
//! uploads go through multipart PUTs, and partial reads are range GETs.
//! [`ObjectBackend`] emulates exactly those semantics over an in-memory
//! object map so the functional engines and the checkpoint pipeline can
//! be exercised against object-store behaviour without a network:
//!
//! * **First-byte latency** — every GET/PUT sleeps
//!   [`ObjectConfig::first_byte_latency`] before bytes move.
//! * **Per-stream bandwidth** — each request is throttled to
//!   [`ObjectConfig::stream_bps`]; parallel parts/ranges scale throughput
//!   (the concurrency-efficiency curve mirrored by
//!   [`TierSpec::object_store`](crate::spec::object_store) in sim mode).
//! * **Multipart upload** — payloads larger than
//!   [`ObjectConfig::part_size`] upload as concurrent parts and publish
//!   atomically at completion; readers never observe a partial object.
//! * **Range GETs with coalescing** — [`ObjectBackend::read_ranges`]
//!   merges ranges closer than [`ObjectConfig::coalesce_gap`] into one
//!   GET each ([`coalesce_ranges`]), trading wasted gap bytes for saved
//!   request round-trips (the light-speed-io strategy); results are
//!   byte-identical to issuing one GET per range.
//!
//! The backend declines [`Backend::raw_target`] (objects are not files),
//! so kernel-backed I/O engines serve it through the portable path —
//! exactly how a real S3 client library would sit under `mlp-aio`.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use mlp_sync::Mutex;

use mlp_trace::{Counter, Gauge, TraceSink};

use crate::backend::Backend;

/// Behavioural knobs of the emulated object store.
#[derive(Clone, Debug)]
pub struct ObjectConfig {
    /// Latency before the first byte of every request (GET, PUT, part
    /// upload, DELETE). Object stores sit at 10–100 ms; the deterministic
    /// test preset uses zero.
    pub first_byte_latency: Duration,
    /// Per-stream bandwidth cap in bytes/second (`None` = unthrottled).
    /// Aggregate throughput scales with concurrent parts/range GETs, the
    /// defining object-store curve.
    pub stream_bps: Option<f64>,
    /// Concurrent part uploads / range GETs issued per request.
    pub max_concurrency: usize,
    /// Payloads larger than this upload as multipart parts of this size.
    pub part_size: usize,
    /// Ranges whose gap is at most this many bytes are merged into one
    /// GET by [`ObjectBackend::read_ranges`].
    pub coalesce_gap: u64,
}

impl ObjectConfig {
    /// Zero-latency, unthrottled preset for deterministic tests: the
    /// semantics (multipart, coalescing, atomic publish) stay on, only
    /// the timing emulation is disabled.
    pub fn deterministic() -> Self {
        ObjectConfig {
            first_byte_latency: Duration::ZERO,
            stream_bps: None,
            max_concurrency: 4,
            part_size: 8 << 20,
            coalesce_gap: 1 << 20,
        }
    }

    /// An S3-like profile: 30 ms first byte, ~400 MB/s per stream, 16-way
    /// concurrency, 8 MiB parts, 4 MiB coalesce gap. Only for latency/
    /// bandwidth-sensitive experiments — tests should prefer
    /// [`ObjectConfig::deterministic`].
    pub fn emulated() -> Self {
        ObjectConfig {
            first_byte_latency: Duration::from_millis(30),
            stream_bps: Some(400e6),
            max_concurrency: 16,
            part_size: 8 << 20,
            coalesce_gap: 4 << 20,
        }
    }
}

impl Default for ObjectConfig {
    fn default() -> Self {
        ObjectConfig::deterministic()
    }
}

/// Merges byte ranges whose gap is at most `gap` into covering ranges.
///
/// Input ranges are `(offset, len)`; the result is sorted by offset,
/// non-overlapping, and covers every non-empty input range (empty ranges
/// contribute nothing). This is the planning half of coalesced range
/// reads: fewer GETs at the price of fetching up to `gap` wasted bytes
/// between merged neighbours.
pub fn coalesce_ranges(ranges: &[(u64, u64)], gap: u64) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = ranges.iter().copied().filter(|&(_, len)| len > 0).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::new();
    for (start, len) in sorted {
        let end = start.saturating_add(len);
        match out.last_mut() {
            Some((cur_start, cur_len)) => {
                let cur_end = cur_start.saturating_add(*cur_len);
                if start <= cur_end.saturating_add(gap) {
                    *cur_len = end.max(cur_end) - *cur_start;
                } else {
                    out.push((start, len));
                }
            }
            None => out.push((start, len)),
        }
    }
    out
}

/// The emulated S3-like object store. Cheap to share behind an `Arc`;
/// all methods take `&self`.
pub struct ObjectBackend {
    name: String,
    cfg: ObjectConfig,
    map: Mutex<HashMap<String, Arc<Vec<u8>>>>,
    puts: Counter,
    gets: Counter,
    ranges_requested: Counter,
    range_gets: Counter,
    multipart_parts: Counter,
    multipart_uploads: Counter,
    inflight: Gauge,
}

impl ObjectBackend {
    /// An object store with the deterministic (zero-latency) config and a
    /// disabled trace sink.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_config(name, ObjectConfig::deterministic())
    }

    /// An object store with explicit behavioural knobs.
    pub fn with_config(name: impl Into<String>, cfg: ObjectConfig) -> Self {
        assert!(cfg.max_concurrency > 0, "concurrency must be positive");
        assert!(cfg.part_size > 0, "part size must be positive");
        Self::build(name.into(), cfg, TraceSink::disabled())
    }

    /// Attaches an observability sink; `object.{name}.*` meters register
    /// against it (no-ops when the sink is disabled). Stored objects are
    /// preserved.
    pub fn with_trace(self, trace: TraceSink) -> Self {
        let ObjectBackend { name, cfg, map, .. } = self;
        let mut b = Self::build(name, cfg, trace);
        b.map = map;
        b
    }

    fn build(name: String, cfg: ObjectConfig, trace: TraceSink) -> Self {
        let c = |meter: &str| trace.counter(&format!("object.{name}.{meter}"));
        ObjectBackend {
            puts: c("puts"),
            gets: c("gets"),
            ranges_requested: c("ranges_requested"),
            range_gets: c("range_gets"),
            multipart_parts: c("multipart_parts"),
            multipart_uploads: c("multipart_uploads"),
            inflight: trace.gauge(&format!("object.{name}.inflight")),
            name,
            cfg,
            map: Mutex::new(HashMap::new()),
        }
    }

    /// The backend's configuration.
    pub fn config(&self) -> &ObjectConfig {
        &self.cfg
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.map.lock().len()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> u64 {
        self.map.lock().values().map(|v| v.len() as u64).sum()
    }

    fn validate_key(key: &str) -> io::Result<()> {
        if key.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "empty object key",
            ));
        }
        Ok(())
    }

    /// Emulates one request stream moving `bytes`: first-byte latency
    /// plus the per-stream bandwidth share. Never called under the map
    /// lock.
    fn stream_delay(&self, bytes: u64) {
        let mut d = self.cfg.first_byte_latency;
        if let Some(bps) = self.cfg.stream_bps {
            d += Duration::from_secs_f64(bytes as f64 / bps);
        }
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    /// Runs one emulated stream-timing task per item, at most
    /// `max_concurrency` in flight. The items are pure delays (the data
    /// itself lives in the shared map), so "parallel upload" means the
    /// wall-clock cost is `ceil(n / concurrency)` waves, exactly the
    /// object-store concurrency curve.
    fn parallel_streams(&self, sizes: &[u64]) {
        let zero_cost = self.cfg.first_byte_latency.is_zero() && self.cfg.stream_bps.is_none();
        if zero_cost || sizes.is_empty() {
            return;
        }
        self.inflight.add(sizes.len() as u64);
        std::thread::scope(|scope| {
            for wave in sizes.chunks(self.cfg.max_concurrency) {
                let handles: Vec<_> = wave
                    .iter()
                    .map(|&bytes| scope.spawn(move || self.stream_delay(bytes)))
                    .collect();
                for h in handles {
                    // A sleeping closure cannot panic; a poisoned join
                    // here would mean the emulation thread was killed
                    // externally, which no error type can express.
                    // lint:allow(transitive-panic): join of a sleep-only thread
                    let _ = h.join();
                }
            }
        });
        self.inflight.sub(sizes.len() as u64);
    }

    fn stored(&self, key: &str) -> io::Result<Arc<Vec<u8>>> {
        self.map
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {key}")))
    }

    /// One range GET: `len` bytes at `offset`. Errors with
    /// [`io::ErrorKind::InvalidInput`] if the range exceeds the object.
    pub fn read_range(&self, key: &str, offset: u64, len: u64) -> io::Result<Vec<u8>> {
        let mut out = self.read_ranges(key, &[(offset, len)])?;
        out.pop().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "range read produced no output",
            )
        })
    }

    /// Coalesced range GETs: merges ranges closer than the configured
    /// gap ([`coalesce_ranges`]), fetches the merged ranges as parallel
    /// streams, and returns each *requested* range's bytes in input
    /// order — byte-identical to issuing one GET per range.
    pub fn read_ranges(&self, key: &str, ranges: &[(u64, u64)]) -> io::Result<Vec<Vec<u8>>> {
        Self::validate_key(key)?;
        let data = self.stored(key)?;
        let plan = coalesce_ranges(ranges, self.cfg.coalesce_gap);
        self.ranges_requested.add(ranges.len() as u64);
        self.range_gets.add(plan.len() as u64);
        let sizes: Vec<u64> = plan.iter().map(|&(_, len)| len).collect();
        self.parallel_streams(&sizes);
        self.slice_ranges(key, &data, ranges)
    }

    /// Uncoalesced baseline: one GET per requested range. Same result
    /// bytes as [`ObjectBackend::read_ranges`], more request round
    /// trips; the conformance property test holds the two paths identical.
    pub fn read_ranges_naive(&self, key: &str, ranges: &[(u64, u64)]) -> io::Result<Vec<Vec<u8>>> {
        Self::validate_key(key)?;
        let data = self.stored(key)?;
        self.ranges_requested.add(ranges.len() as u64);
        self.range_gets.add(ranges.len() as u64);
        let sizes: Vec<u64> = ranges.iter().map(|&(_, len)| len).collect();
        self.parallel_streams(&sizes);
        self.slice_ranges(key, &data, ranges)
    }

    fn slice_ranges(
        &self,
        key: &str,
        data: &[u8],
        ranges: &[(u64, u64)],
    ) -> io::Result<Vec<Vec<u8>>> {
        let mut out = Vec::with_capacity(ranges.len());
        for &(offset, len) in ranges {
            let end = offset.checked_add(len).filter(|&e| e <= data.len() as u64);
            let Some(end) = end else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "range {offset}+{len} exceeds object {key} ({} bytes)",
                        data.len()
                    ),
                ));
            };
            // lint:allow(transitive-panic): in-bounds — the typed-error guard above rejects end > data.len()
            out.push(data[offset as usize..end as usize].to_vec());
        }
        Ok(out)
    }
}

impl Backend for ObjectBackend {
    /// A PUT. Payloads above [`ObjectConfig::part_size`] upload as
    /// concurrent multipart parts; in either case the object becomes
    /// visible atomically at completion (object stores have no rename —
    /// the publish *is* the atomicity point), and a failed or dropped
    /// upload leaves the previous version intact.
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        Self::validate_key(key)?;
        if data.len() > self.cfg.part_size {
            let sizes: Vec<u64> = data
                .chunks(self.cfg.part_size)
                .map(|c| c.len() as u64)
                .collect();
            self.multipart_parts.add(sizes.len() as u64);
            self.multipart_uploads.inc();
            self.parallel_streams(&sizes);
        } else {
            self.puts.inc();
            self.parallel_streams(&[data.len() as u64]);
        }
        // Atomic publish: assembled object swapped in under the lock.
        self.map
            .lock()
            .insert(key.to_string(), Arc::new(data.to_vec()));
        Ok(())
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        Self::validate_key(key)?;
        let data = self.stored(key)?;
        self.gets.inc();
        self.parallel_streams(&[data.len() as u64]);
        Ok(data.as_ref().clone())
    }

    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        Self::validate_key(key)?;
        let data = self.stored(key)?;
        if data.len() > dst.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "object {key} is {} bytes but the destination holds {}",
                    data.len(),
                    dst.len()
                ),
            ));
        }
        self.gets.inc();
        self.parallel_streams(&[data.len() as u64]);
        // lint:allow(transitive-panic): in-bounds — the typed-error guard above rejects data.len() > dst.len()
        dst[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }

    /// DELETE — idempotent, as in S3: deleting a missing key succeeds.
    fn delete(&self, key: &str) -> io::Result<()> {
        Self::validate_key(key)?;
        self.parallel_streams(&[0]);
        self.map.lock().remove(key);
        Ok(())
    }

    fn contains(&self, key: &str) -> bool {
        self.map.lock().contains_key(key)
    }

    fn name(&self) -> &str {
        &self.name
    }

    // raw_target: default `None` — objects are not files, so kernel
    // engines stay on the portable path, like a real S3 client.
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn round_trip_and_s3_semantics() {
        let b = ObjectBackend::new("obj");
        b.write("ckpt/a", &[1, 2, 3]).unwrap();
        assert!(b.contains("ckpt/a"));
        assert_eq!(b.read("ckpt/a").unwrap(), vec![1, 2, 3]);
        // Overwrite replaces atomically.
        b.write("ckpt/a", &[9; 5]).unwrap();
        assert_eq!(b.read("ckpt/a").unwrap(), vec![9; 5]);
        // DELETE is idempotent; missing GET is NotFound.
        b.delete("ckpt/a").unwrap();
        b.delete("ckpt/a").unwrap();
        assert_eq!(
            b.read("ckpt/a").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        // Empty keys are rejected, objects are not files.
        assert!(b.write("", &[1]).is_err());
        assert!(b.raw_target("ckpt/a").is_none());
    }

    #[test]
    fn read_into_matches_read() {
        let b = ObjectBackend::new("obj");
        b.write("k", &[5, 6, 7]).unwrap();
        let mut dst = [0u8; 8];
        assert_eq!(b.read_into("k", &mut dst).unwrap(), 3);
        assert_eq!(&dst[..3], &[5, 6, 7]);
        let mut tiny = [0u8; 2];
        assert_eq!(
            b.read_into("k", &mut tiny).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn multipart_upload_counts_parts_and_stays_atomic() {
        let cfg = ObjectConfig {
            part_size: 1024,
            ..ObjectConfig::deterministic()
        };
        let b = ObjectBackend::with_config("obj", cfg);
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        b.write("big", &payload).unwrap();
        assert_eq!(b.read("big").unwrap(), payload);
        assert_eq!(b.multipart_uploads.get(), 1);
        assert_eq!(b.multipart_parts.get(), 5); // ceil(5000 / 1024)
        assert_eq!(b.puts.get(), 0);
        // Small payloads stay single PUTs.
        b.write("small", &[1; 10]).unwrap();
        assert_eq!(b.puts.get(), 1);
    }

    #[test]
    fn range_gets_slice_the_object() {
        let b = ObjectBackend::new("obj");
        let payload: Vec<u8> = (0..100u8).collect();
        b.write("k", &payload).unwrap();
        assert_eq!(b.read_range("k", 10, 5).unwrap(), payload[10..15]);
        assert_eq!(b.read_range("k", 0, 0).unwrap(), Vec::<u8>::new());
        assert_eq!(
            b.read_range("k", 90, 20).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            b.read_range("missing", 0, 1).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    #[test]
    fn close_ranges_coalesce_into_fewer_gets() {
        let cfg = ObjectConfig {
            coalesce_gap: 8,
            ..ObjectConfig::deterministic()
        };
        let b = ObjectBackend::with_config("obj", cfg);
        let payload: Vec<u8> = (0..200u8).collect();
        b.write("k", &payload).unwrap();
        // Two close ranges + one far range → 2 GETs for 3 requests.
        let out = b.read_ranges("k", &[(0, 10), (15, 10), (100, 10)]).unwrap();
        assert_eq!(out[0], payload[0..10]);
        assert_eq!(out[1], payload[15..25]);
        assert_eq!(out[2], payload[100..110]);
        assert_eq!(b.ranges_requested.get(), 3);
        assert_eq!(b.range_gets.get(), 2);
    }

    #[test]
    fn coalesce_plan_merges_and_sorts() {
        assert_eq!(
            coalesce_ranges(&[(50, 10), (0, 10), (12, 4)], 2),
            vec![(0, 16), (50, 10)]
        );
        // Overlapping ranges merge regardless of gap.
        assert_eq!(coalesce_ranges(&[(0, 10), (5, 10)], 0), vec![(0, 15)]);
        // Zero-length ranges contribute nothing.
        assert_eq!(coalesce_ranges(&[(3, 0)], 0), Vec::<(u64, u64)>::new());
        assert_eq!(coalesce_ranges(&[], 5), Vec::<(u64, u64)>::new());
    }

    // The acceptance property: coalesced reads are byte-identical to
    // naive one-GET-per-range reads, for arbitrary (possibly overlapping,
    // unsorted, empty) in-bounds ranges and any gap.
    #[test]
    fn coalesced_reads_match_naive() {
        cases(DEFAULT_CASES, |g| {
            let len = g.range(1usize..2048);
            let gap = g.range(0u64..512);
            let seed_ranges = g.vec(0..16, |g| (g.range(0u64..2048), g.range(0u64..512)));
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let ranges: Vec<(u64, u64)> = seed_ranges
                .into_iter()
                .map(|(o, l)| {
                    let o = o % len as u64;
                    (o, l.min(len as u64 - o))
                })
                .collect();
            let cfg = ObjectConfig { coalesce_gap: gap, ..ObjectConfig::deterministic() };
            let b = ObjectBackend::with_config("obj", cfg);
            b.write("k", &payload).unwrap();
            let coalesced = b.read_ranges("k", &ranges).unwrap();
            let naive = b.read_ranges_naive("k", &ranges).unwrap();
            assert_eq!(coalesced, naive);
        });
    }

    // The coalescing plan covers every non-empty input range and never
    // merges ranges farther apart than the gap.
    #[test]
    fn coalesce_plan_covers_inputs() {
        cases(DEFAULT_CASES, |g| {
            let ranges = g.vec(0..24, |g| (g.range(0u64..4096), g.range(0u64..256)));
            let gap = g.range(0u64..1024);
            let plan = coalesce_ranges(&ranges, gap);
            // Sorted, non-overlapping, gap-respecting.
            for w in plan.windows(2) {
                assert!(w[0].0 + w[0].1 + gap < w[1].0);
            }
            // Every non-empty input is covered by exactly one plan range.
            for &(o, l) in ranges.iter().filter(|&&(_, l)| l > 0) {
                assert!(
                    plan.iter().any(|&(po, pl)| po <= o && o + l <= po + pl),
                    "range {o}+{l} not covered by {plan:?}"
                );
            }
        });
    }
}
