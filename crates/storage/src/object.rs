//! S3-like object-store backend, emulated locally (§3.3 third level).
//!
//! Object stores behave unlike both NVMe and a PFS: every request pays a
//! high first-byte latency, a *single* stream is capped well below the
//! aggregate bandwidth (throughput comes from concurrency), objects are
//! immutable blobs published atomically (there is no rename), and large
//! uploads go through multipart PUTs.
//! [`ObjectBackend`] emulates exactly those semantics over an in-memory
//! object map so the functional engines and the checkpoint pipeline can
//! be exercised against object-store behaviour without a network:
//!
//! * **First-byte latency** — every GET/PUT sleeps
//!   [`ObjectConfig::first_byte_latency`] before bytes move.
//! * **Per-stream bandwidth** — each request is throttled to
//!   [`ObjectConfig::stream_bps`]; parallel parts scale throughput
//!   (the concurrency-efficiency curve mirrored by
//!   [`TierSpec::object_store`](crate::spec::object_store) in sim mode).
//! * **Multipart upload** — payloads larger than
//!   [`ObjectConfig::part_size`] upload as concurrent parts and publish
//!   atomically at completion; readers never observe a partial object.

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
    /// Aggregate throughput scales with concurrent parts, the defining
    /// object-store curve.
    pub stream_bps: Option<f64>,
    /// Concurrent part uploads issued per request.
    pub max_concurrency: usize,
    /// Payloads larger than this upload as multipart parts of this size.
    pub part_size: usize,
}

impl ObjectConfig {
    /// Zero-latency, unthrottled preset for deterministic tests: the
    /// semantics (multipart, atomic publish) stay on, only
    /// the timing emulation is disabled.
    pub fn deterministic() -> Self {
        ObjectConfig {
            first_byte_latency: Duration::ZERO,
            stream_bps: None,
            max_concurrency: 4,
            part_size: 8 << 20,
        }
    }
}

impl Default for ObjectConfig {
    fn default() -> Self {
        ObjectConfig::deterministic()
    }
}

/// The emulated S3-like object store. Cheap to share behind an `Arc`;
/// all methods take `&self`.
pub struct ObjectBackend {
    name: String,
    cfg: ObjectConfig,
    map: Mutex<HashMap<String, Arc<Vec<u8>>>>,
    puts: Counter,
    gets: Counter,
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        // Empty keys are rejected.
        assert!(b.write("", &[1]).is_err());
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
}
