//! Deterministic fault injection and the transient/permanent error
//! taxonomy.
//!
//! Real NVMe and parallel-file-system tiers return transient `EIO`,
//! `EAGAIN`, and `ENOSPC` under contention; an offload engine that panics
//! on the first such error cannot run at the paper's scale. This module
//! provides the two halves of the failure-semantics layer:
//!
//! * [`classify`] / [`ErrorClass`] — the error taxonomy shared by the
//!   retry layer in `mlp-aio` and by engine-level recovery: *transient*
//!   errors are worth re-issuing, *permanent* errors must surface to the
//!   caller.
//! * [`FaultInjectBackend`] — a decorator around any [`Backend`] that
//!   injects transient errors, permanent errors, latency spikes, and
//!   short reads, **deterministically**: every decision is a pure hash of
//!   `(seed, key, per-key op sequence)`, so a seeded test run injects the
//!   same faults at the same logical points regardless of I/O-worker
//!   interleaving.
//!
//! An object store's own failure modes — throttling, a failed multipart
//! part, a stale read-after-PUT — reach the retry layer as nothing but a
//! transient error on one direction of traffic: inject them as
//! [`FaultConfig::transient`] restricted with [`FaultOps::ReadsOnly`] or
//! [`FaultOps::WritesOnly`].

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mlp_sync::Mutex;
use mlp_tensor::HostBuffer;
use mlp_trace::{Attrs, Phase, TraceSink};

use crate::backend::Backend;
use crate::clock::{Clock, WallClock};

// ---------------------------------------------------------------------------
// Error taxonomy
// ---------------------------------------------------------------------------

/// Whether an I/O error is worth retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorClass {
    /// The operation may succeed if re-issued (contention, interruption,
    /// exhausted-but-recovering resources). The retry layer backs off and
    /// re-submits these.
    Transient,
    /// Retrying cannot help (missing object, corruption, bad arguments,
    /// permission). These surface to the engine immediately.
    Permanent,
}

/// Classifies an I/O error as transient or permanent.
///
/// Transient: `Interrupted`, `TimedOut`, `WouldBlock`, connection
/// resets/aborts, and the raw POSIX codes storage stacks return under
/// contention — `EIO` (5), `EAGAIN` (11), `ENOSPC` (28). Everything else
/// (not found, invalid data, permission denied, …) is permanent. An error
/// that wraps another `io::Error` as its payload or that payload's
/// source (the I/O engine's retry exhaustion does) is classified by the
/// innermost it wraps.
pub fn classify(e: &io::Error) -> ErrorClass {
    use io::ErrorKind::*;
    if matches!(
        e.kind(),
        Interrupted | TimedOut | WouldBlock | ConnectionReset | ConnectionAborted
    ) {
        return ErrorClass::Transient;
    }
    if let Some(code) = e.raw_os_error() {
        // EIO, EAGAIN, ENOSPC: the kinds std leaves uncategorized but the
        // paper's tiers (node-local NVMe, Lustre/GPFS) produce routinely.
        if matches!(code, 5 | 11 | 28) {
            return ErrorClass::Transient;
        }
    }
    let mut wrapped = e
        .get_ref()
        .map(|inner| inner as &(dyn std::error::Error + 'static));
    while let Some(inner) = wrapped {
        if let Some(io) = inner.downcast_ref::<io::Error>() {
            return classify(io);
        }
        wrapped = inner.source();
    }
    ErrorClass::Permanent
}

/// Shorthand for `classify(e) == ErrorClass::Transient`.
pub fn is_transient(e: &io::Error) -> bool {
    classify(e) == ErrorClass::Transient
}

// ---------------------------------------------------------------------------
// Fault plan
// ---------------------------------------------------------------------------

/// Per-operation fault probabilities and the seed that makes them
/// deterministic.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the per-decision hash; two backends with the same seed and
    /// the same per-key op sequences inject identical faults.
    pub seed: u64,
    /// Probability that an op fails with a transient error before touching
    /// the inner backend (the previous object, if any, stays intact).
    pub transient_error_p: f64,
    /// Probability that an op fails with a permanent error.
    pub permanent_error_p: f64,
    /// Probability that a read delivers fewer bytes than the object holds.
    /// The whole-object [`Backend`] API cannot return a partial payload,
    /// so a short read surfaces as a *transient* error after the partial
    /// bytes landed in the destination — exactly what a re-issued
    /// `pread` loop would observe.
    pub short_read_p: f64,
    /// Probability that an op stalls for [`FaultConfig::latency_spike`]
    /// before proceeding normally (a congested PFS).
    pub latency_spike_p: f64,
    /// Duration of an injected latency spike.
    pub latency_spike: Duration,
    /// Which op directions faults apply to. Defaults to [`FaultOps::All`];
    /// [`FaultOps::WritesOnly`] models a tier that degrades on ingest
    /// while existing durable copies stay readable — the shape the
    /// quarantine-and-drain path evacuates.
    pub ops: FaultOps,
}

/// Direction filter for fault injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOps {
    /// Faults may hit reads, writes, and deletes.
    All,
    /// Faults only hit writes and deletes; reads pass through.
    WritesOnly,
    /// Faults only hit reads; writes and deletes pass through.
    ReadsOnly,
}

impl FaultOps {
    fn applies(self, shape: OpShape) -> bool {
        match self {
            FaultOps::All => true,
            FaultOps::WritesOnly => matches!(shape, OpShape::Write | OpShape::Delete),
            FaultOps::ReadsOnly => matches!(shape, OpShape::Read),
        }
    }
}

/// The direction of one injected-against operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum OpShape {
    Read,
    Write,
    Delete,
}

impl FaultConfig {
    /// No faults at all (pass-through baseline).
    pub fn none(seed: u64) -> Self {
        FaultConfig {
            seed,
            transient_error_p: 0.0,
            permanent_error_p: 0.0,
            short_read_p: 0.0,
            latency_spike_p: 0.0,
            latency_spike: Duration::ZERO,
            ops: FaultOps::All,
        }
    }

    /// Transient failures only, at probability `p` per operation.
    pub fn transient(seed: u64, p: f64) -> Self {
        FaultConfig {
            transient_error_p: p,
            ..FaultConfig::none(seed)
        }
    }

    /// Permanent failures only, at probability `p` per operation.
    pub fn permanent(seed: u64, p: f64) -> Self {
        FaultConfig {
            permanent_error_p: p,
            ..FaultConfig::none(seed)
        }
    }

    /// Adds short reads at probability `p`.
    pub fn with_short_reads(mut self, p: f64) -> Self {
        self.short_read_p = p;
        self
    }

    /// Adds latency spikes of `spike` at probability `p`.
    pub fn with_latency_spikes(mut self, p: f64, spike: Duration) -> Self {
        self.latency_spike_p = p;
        self.latency_spike = spike;
        self
    }

    /// Restricts injection to the given op directions.
    pub fn with_ops(mut self, ops: FaultOps) -> Self {
        self.ops = ops;
        self
    }
}

/// Injection counters (all monotonic).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Transient errors injected (includes short reads, which are
    /// delivered as transient errors).
    pub transient: u64,
    /// Permanent errors injected.
    pub permanent: u64,
    /// Short reads injected (also counted in `transient`).
    pub short_reads: u64,
    /// Latency spikes injected.
    pub latency_spikes: u64,
    /// Operations that reached the inner backend unharmed.
    pub passed: u64,
}

/// Injection counters.
///
/// Ordering contract: every field is a pure monotonic event counter —
/// incremented on the injection path, read only by [`FaultInjectBackend::counts`]
/// for reporting. Nothing synchronizes *through* these atomics (no thread
/// reads one to decide whether other memory is visible), so all accesses
/// use `Ordering::Relaxed`; each site carries a `// relaxed-ok:` note for
/// the `xtask lint` relaxed-audit rule.
#[derive(Default)]
struct FaultStats {
    transient: AtomicU64,
    permanent: AtomicU64,
    short_reads: AtomicU64,
    latency_spikes: AtomicU64,
    passed: AtomicU64,
}

// ---------------------------------------------------------------------------
// FaultInjectBackend
// ---------------------------------------------------------------------------

/// What the decision hash told us to do with one operation.
enum Verdict {
    Pass,
    Transient,
    Permanent,
    ShortRead,
}

/// Backend decorator injecting deterministic faults around any inner
/// [`Backend`].
///
/// Decisions are derived from `hash(seed, key, seq)` where `seq` is a
/// per-key operation counter, so they do not depend on thread scheduling:
/// engines serialize their accesses to any single key (write-after-evict
/// fences, flush barriers), which makes per-key sequences — and therefore
/// the whole injection pattern — reproducible.
pub struct FaultInjectBackend {
    inner: Arc<dyn Backend>,
    name: String,
    cfg: FaultConfig,
    /// Per-key op sequence numbers.
    seq: Mutex<HashMap<String, u64>>,
    stats: FaultStats,
    armed: AtomicBool,
    /// The clock latency spikes sleep on: a [`WallClock`] by default.
    clock: Arc<dyn Clock>,
    /// Observability sink: each injected fault drops a
    /// [`mlp_trace::Phase::FaultInject`] instant on the timeline, so a
    /// retry storm in the trace can be lined up with the injections that
    /// caused it. Disabled (zero-cost) unless set via
    /// [`FaultInjectBackend::with_trace`].
    trace: TraceSink,
}

impl FaultInjectBackend {
    /// Wraps `inner` with the given fault plan (armed immediately).
    pub fn new(inner: Arc<dyn Backend>, cfg: FaultConfig) -> Self {
        let name = format!("{}+faults", inner.name());
        FaultInjectBackend {
            inner,
            name,
            cfg,
            seq: Mutex::new(HashMap::new()),
            stats: FaultStats::default(),
            armed: AtomicBool::new(true),
            clock: Arc::new(WallClock::default()),
            trace: TraceSink::disabled(),
        }
    }

    /// Attaches an observability sink; injected faults become
    /// [`mlp_trace::Phase::FaultInject`] instants.
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Sleeps latency spikes on `clock` (a `mlp_testkit::ManualClock` keeps
    /// deterministic suites off the wall clock).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Marks one injected fault on the timeline.
    fn note_injection(&self) {
        if self.trace.is_enabled() {
            self.trace
                .instant(Phase::FaultInject, Attrs::NONE, self.trace.now_ns());
        }
    }

    /// Enables or disables injection at runtime (e.g. fault-free engine
    /// construction, then an armed training phase). Disarmed, the backend
    /// is a pure pass-through and does not advance sequence numbers.
    pub fn set_armed(&self, armed: bool) {
        self.armed.store(armed, Ordering::SeqCst);
    }

    /// Current injection counters.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            transient: self.stats.transient.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            permanent: self.stats.permanent.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            short_reads: self.stats.short_reads.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            latency_spikes: self.stats.latency_spikes.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            passed: self.stats.passed.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
        }
    }

    /// SplitMix64 finalizer: a well-mixed u64 from the decision inputs.
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform [0,1) roll number `salt` for this (key, seq) decision.
    fn roll(&self, key_hash: u64, seq: u64, salt: u64) -> f64 {
        let mut h = self.cfg.seed ^ key_hash;
        h = Self::mix(h ^ seq.wrapping_mul(0xA24B_AED4_963E_E407));
        h = Self::mix(h ^ salt.wrapping_mul(0x9FB2_1C65_1E98_DF25));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn key_hash(key: &str) -> u64 {
        // FNV-1a.
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for b in key.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x1_0000_01B3);
        }
        h
    }

    /// Draws the verdict for one operation on `key`, applying any latency
    /// spike as a side effect. `shape` gates the direction-specific fault
    /// (short reads) and the [`FaultOps`] direction filter.
    fn decide(&self, key: &str, shape: OpShape) -> Verdict {
        if !self.armed.load(Ordering::SeqCst) || !self.cfg.ops.applies(shape) {
            self.stats.passed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            return Verdict::Pass;
        }
        let kh = Self::key_hash(key);
        let seq = {
            let mut m = self.seq.lock();
            let c = m.entry(key.to_string()).or_insert(0);
            let s = *c;
            *c += 1;
            s
        };
        if self.cfg.latency_spike_p > 0.0 && self.roll(kh, seq, 1) < self.cfg.latency_spike_p {
            self.stats.latency_spikes.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            self.note_injection();
            self.clock.sleep(self.cfg.latency_spike);
        }
        let r = self.roll(kh, seq, 2);
        if r < self.cfg.permanent_error_p {
            self.stats.permanent.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            self.note_injection();
            return Verdict::Permanent;
        }
        if r < self.cfg.permanent_error_p + self.cfg.transient_error_p {
            self.stats.transient.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            self.note_injection();
            return Verdict::Transient;
        }
        if matches!(shape, OpShape::Read)
            && self.cfg.short_read_p > 0.0
            && self.roll(kh, seq, 3) < self.cfg.short_read_p
        {
            self.stats.short_reads.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            self.stats.transient.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
            self.note_injection();
            return Verdict::ShortRead;
        }
        self.stats.passed.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
        Verdict::Pass
    }

    fn transient_error(key: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient I/O fault on {key}"),
        )
    }

    fn permanent_error(key: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::PermissionDenied,
            format!("injected permanent I/O fault on {key}"),
        )
    }

    /// Draws one write attempt's verdict — exactly one `decide` per
    /// attempt, whichever entry point carries the payload.
    ///
    /// A failed write never tears the stored object or touches the
    /// payload: the fault fires before the inner backend is reached,
    /// matching the atomic write-then-rename guarantee of `DirBackend`
    /// and the publish under the map lock of `MemBackend`.
    fn admit_write(&self, key: &str) -> io::Result<()> {
        match self.decide(key, OpShape::Write) {
            Verdict::Transient => Err(Self::transient_error(key)),
            Verdict::Permanent => Err(Self::permanent_error(key)),
            _ => Ok(()),
        }
    }
}

impl Backend for FaultInjectBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.admit_write(key)?;
        self.inner.write(key, data)
    }

    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        self.admit_write(key)?;
        self.inner.write_frame(key, frame)
    }

    /// Draws one write verdict on `to`: the link creates that object.
    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        self.admit_write(to)?;
        self.inner.link(from, to)
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        match self.decide(key, OpShape::Read) {
            Verdict::Transient => Err(Self::transient_error(key)),
            Verdict::Permanent => Err(Self::permanent_error(key)),
            Verdict::ShortRead => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected short read on {key}"),
            )),
            Verdict::Pass => self.inner.read(key),
        }
    }

    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        match self.decide(key, OpShape::Read) {
            Verdict::Transient => Err(Self::transient_error(key)),
            Verdict::Permanent => Err(Self::permanent_error(key)),
            Verdict::ShortRead => {
                // Land a genuine partial prefix in the caller's buffer —
                // a retry must fully overwrite it.
                let data = self.inner.read(key)?;
                let partial = (data.len() / 2).min(dst.len());
                // lint:allow(transitive-panic): in-bounds — partial is min-clamped to both slice lengths
                dst[..partial].copy_from_slice(&data[..partial]);
                Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    format!(
                        "injected short read on {key}: {partial} of {} bytes delivered",
                        data.len()
                    ),
                ))
            }
            Verdict::Pass => self.inner.read_into(key, dst),
        }
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        match self.decide(key, OpShape::Delete) {
            Verdict::Transient => Err(Self::transient_error(key)),
            Verdict::Permanent => Err(Self::permanent_error(key)),
            _ => self.inner.delete(key),
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn faulty(cfg: FaultConfig) -> FaultInjectBackend {
        let inner = Arc::new(MemBackend::new("mem"));
        inner.write("k", &[7u8; 64]).unwrap();
        FaultInjectBackend::new(inner, cfg)
    }

    #[test]
    fn classification_matches_taxonomy() {
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::Interrupted, "x")),
            ErrorClass::Transient
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::TimedOut, "x")),
            ErrorClass::Transient
        );
        for code in [5, 11, 28] {
            assert!(is_transient(&io::Error::from_raw_os_error(code)), "{code}");
        }
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::NotFound, "x")),
            ErrorClass::Permanent
        );
        assert_eq!(
            classify(&io::Error::new(io::ErrorKind::InvalidData, "x")),
            ErrorClass::Permanent
        );
        assert!(!is_transient(&io::Error::other("x")));
    }

    #[test]
    fn zero_probability_is_transparent() {
        let b = faulty(FaultConfig::none(1));
        for _ in 0..50 {
            assert_eq!(b.read("k").unwrap(), vec![7u8; 64]);
        }
        let c = b.counts();
        assert_eq!(c.transient + c.permanent + c.short_reads, 0);
        assert_eq!(c.passed, 50);
    }

    #[test]
    fn injected_transient_errors_classify_transient() {
        let b = faulty(FaultConfig::transient(42, 1.0));
        let e = b.read("k").unwrap_err();
        assert_eq!(classify(&e), ErrorClass::Transient);
        assert!(e.to_string().contains("injected"), "{e}");
        assert_eq!(b.counts().transient, 1);
    }

    #[test]
    fn injected_permanent_errors_classify_permanent() {
        let b = faulty(FaultConfig::permanent(42, 1.0));
        let e = b.write("k", &[1]).unwrap_err();
        assert_eq!(classify(&e), ErrorClass::Permanent);
        assert_eq!(b.counts().permanent, 1);
        // A failed write leaves the previous object intact.
        b.set_armed(false);
        assert_eq!(b.read("k").unwrap(), vec![7u8; 64]);
    }

    #[test]
    fn injection_is_deterministic_per_key_sequence() {
        let run = || {
            let b = faulty(FaultConfig::transient(99, 0.3).with_short_reads(0.2));
            let mut outcomes = Vec::new();
            for i in 0..40 {
                let key = format!("k{}", i % 4);
                b.inner.write(&key, &[i as u8; 16]).unwrap();
                outcomes.push(b.read(&key).is_ok());
            }
            (outcomes, b.counts())
        };
        let (a, ca) = run();
        let (b, cb) = run();
        assert_eq!(a, b, "same seed, same per-key sequence, same faults");
        assert_eq!(ca, cb);
        assert!(ca.transient > 0, "30% over 40 ops must fire");
    }

    /// A whole-frame write draws exactly one verdict per attempt, like
    /// `write`: the same seed yields the same fault schedule whichever
    /// entry point carries the payload, and a refused frame is untouched.
    #[test]
    fn write_frame_follows_the_write_fault_schedule() {
        let cfg = || FaultConfig::transient(99, 0.3);
        let (by_write, by_frame) = (faulty(cfg()), faulty(cfg()));
        let mut fired = 0;
        for i in 0..60u8 {
            let key = format!("k{}", i % 4);
            let payload = [i; 16];
            let mut frame = HostBuffer::from_slice(&payload);
            let want = by_write.write(&key, &payload).map_err(|e| e.to_string());
            let got = by_frame
                .write_frame(&key, &mut frame)
                .map_err(|e| e.to_string());
            assert_eq!(got, want, "attempt {i}");
            if got.is_err() {
                fired += 1;
                assert_eq!(frame.as_bytes(), &payload, "attempt {i}");
            }
        }
        assert!(fired > 0, "the schedule must fire");
        assert_eq!(by_frame.counts(), by_write.counts());
        for key in ["k0", "k1", "k2", "k3"] {
            assert_eq!(by_frame.inner.read(key).ok(), by_write.inner.read(key).ok());
        }
    }

    #[test]
    fn short_read_lands_partial_prefix_then_errors() {
        let b = faulty(FaultConfig::none(7).with_short_reads(1.0));
        let mut dst = [0u8; 64];
        let e = b.read_into("k", &mut dst).unwrap_err();
        assert!(is_transient(&e), "{e}");
        assert!(e.to_string().contains("short read"), "{e}");
        assert_eq!(&dst[..32], &[7u8; 32], "partial prefix delivered");
        assert_eq!(&dst[32..], &[0u8; 32], "tail untouched");
        assert_eq!(b.counts().short_reads, 1);
        // Disarmed, the retry path sees the full object.
        b.set_armed(false);
        assert_eq!(b.read_into("k", &mut dst).unwrap(), 64);
        assert_eq!(dst, [7u8; 64]);
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let b = faulty(FaultConfig::none(3).with_latency_spikes(1.0, Duration::from_millis(15)));
        let t0 = std::time::Instant::now();
        assert_eq!(b.read("k").unwrap().len(), 64);
        assert!(t0.elapsed() >= Duration::from_millis(10));
        assert_eq!(b.counts().latency_spikes, 1);
    }

    #[test]
    fn writes_only_faults_leave_reads_untouched() {
        let b = faulty(FaultConfig::permanent(21, 1.0).with_ops(FaultOps::WritesOnly));
        for _ in 0..10 {
            assert_eq!(b.read("k").unwrap(), vec![7u8; 64]);
        }
        assert!(b.write("k", &[1]).is_err());
        assert!(b.delete("k").is_err());
        assert_eq!(b.counts().permanent, 2);
    }

    #[test]
    fn disarmed_backend_passes_everything() {
        let b = faulty(FaultConfig::transient(5, 1.0));
        b.set_armed(false);
        for _ in 0..20 {
            b.read("k").unwrap();
        }
        assert_eq!(b.counts().transient, 0);
    }
}
