//! The codec stage on emulated tiers: a slow tier sends FP32 state encoded
//! and hands every read back raw; a fast one stays raw; a checksum below
//! the stage covers the frame; a failed encoded write hands back its raw
//! frame; and no I/O worker codes: writes are encoded as they are
//! submitted and reads decoded as they are taken.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mlp_aio::{AioConfig, AioEngine, RetryPolicy};
use mlp_storage::{Backend, ChecksummedBackend, MemBackend};
use mlp_tensor::{HostBuffer, PinnedPool};
use mlp_trace::TraceSink;

/// Bytes of one object: 2 Ki FP32 words.
const FRAME: usize = 8 << 10;
const KEYS: usize = 4;
/// 0.5 MB/s: slow enough for the codec to pay even unoptimised.
const SLOW_BPS: f64 = 5e5;

/// FP32 parameters in [-1, 1): every value within a few binades of the
/// tensor's scale, so one table of high bytes covers the object.
fn state(seed: u64, bytes: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..bytes / 4)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0).to_le_bytes()
        })
        .collect()
}

/// Writes `payload` from a whole pooled frame and waits for it.
fn flush(engine: &AioEngine, pool: &PinnedPool, key: &str, payload: &[u8]) -> io::Result<()> {
    let mut buf = pool.acquire();
    buf.buffer_mut().as_bytes_mut().copy_from_slice(payload);
    engine
        .submit_write_pooled(key, buf, FRAME)
        .wait_flush()
        .map_err(|(e, _)| e)
}

fn fetch(engine: &AioEngine, pool: &PinnedPool, key: &str) -> Vec<u8> {
    let (buf, n) = engine
        .submit_read_pooled(key, pool.acquire(), FRAME)
        .wait_pooled()
        .unwrap();
    buf.buffer().as_bytes()[..n].to_vec()
}

/// Rounds of writes and reads of `KEYS` objects; every read checked.
fn rounds(engine: &AioEngine, pool: &PinnedPool, rounds: std::ops::Range<u64>) {
    for round in rounds {
        for k in 0..KEYS {
            let want = state(round * 100 + k as u64, FRAME);
            flush(engine, pool, &format!("k{k}"), &want).unwrap();
            assert!(
                fetch(engine, pool, &format!("k{k}")) == want,
                "round {round} key {k}"
            );
        }
    }
}

/// Whether the writes since `before` (the engine's device and logical
/// written bytes then) all went out coded: at most 0.9 of raw.
fn coded_since(engine: &AioEngine, before: (u64, u64)) -> bool {
    let (device, logical) = (engine.device_bytes().1, engine.bytes_moved().1);
    logical > before.1 && ((device - before.0) as f64) < 0.9 * (logical - before.1) as f64
}

fn written(engine: &AioEngine) -> (u64, u64) {
    (engine.device_bytes().1, engine.bytes_moved().1)
}

/// Runs rounds until one goes out coded and returns how many ran: the
/// rule turns on within a trial or two, however busy the host.
fn warm_up(engine: &AioEngine, pool: &PinnedPool) -> u64 {
    let started = Instant::now();
    for round in 0.. {
        let before = written(engine);
        rounds(engine, pool, round..round + 1);
        if coded_since(engine, before) {
            return round + 1;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the codec never turned on"
        );
    }
    unreachable!()
}

#[test]
fn a_slow_tier_turns_the_codec_on_and_every_read_comes_back_raw() {
    let backend = Arc::new(MemBackend::throttled("slow", SLOW_BPS, SLOW_BPS));
    let trace = TraceSink::enabled();
    let engine = AioEngine::new(
        Arc::clone(&backend) as Arc<dyn Backend>,
        AioConfig {
            trace: trace.clone(),
            ..AioConfig::deterministic()
        },
    );
    let pool = PinnedPool::new(2, FRAME);
    let n = warm_up(&engine, &pool);
    let before = written(&engine);
    rounds(&engine, &pool, n..n + 2);
    assert!(
        coded_since(&engine, before),
        "{before:?} -> {:?}",
        written(&engine)
    );
    let ((dr, dw), (lr, lw)) = (engine.device_bytes(), engine.bytes_moved());
    assert!(dw < lw && dr < lr, "device {dr}/{dw}, logical {lr}/{lw}");
    let snap = trace.metrics_snapshot();
    let registry = |m: &str| snap.counter(&format!("aio.slow.{m}"));
    assert_eq!(registry("device_read_bytes"), Some(dr));
    assert_eq!(registry("device_write_bytes"), Some(dw));
    assert_eq!(
        (registry("read_bytes"), registry("write_bytes")),
        (Some(lr), Some(lw))
    );
    assert!(
        (backend.total_bytes() as f64) < 0.9 * (KEYS * FRAME) as f64,
        "{} bytes stored for {KEYS} objects of {FRAME}",
        backend.total_bytes()
    );
    // Frames exchange with the objects they displace, encoded or not.
    assert!(backend.touches().exchanged_frames >= (KEYS * 2) as u64);
    // A plain read knows no raw length and gets the raw bytes all the same.
    let last = state((n + 1) * 100, FRAME);
    assert!(engine.submit_read("k0").wait().unwrap().unwrap() == last);
    // The pool got frames of its own length back.
    assert_eq!(pool.acquire().len(), FRAME);
}

#[test]
fn an_unthrottled_tier_keeps_the_codec_off() {
    let backend = Arc::new(MemBackend::new("fast"));
    let engine = AioEngine::new(
        Arc::clone(&backend) as Arc<dyn Backend>,
        AioConfig::deterministic(),
    );
    let pool = PinnedPool::new(2, FRAME);
    rounds(&engine, &pool, 0..8);
    assert_eq!(engine.device_bytes(), engine.bytes_moved());
    assert_eq!(backend.total_bytes(), KEYS * FRAME);
}

/// The CRC decorator sits below the stage and sums the frame: a flipped
/// bit of a stored frame is a typed error, never raw bytes made up.
#[test]
fn a_checksum_below_the_stage_covers_the_frame() {
    let store = Arc::new(MemBackend::throttled("slow", SLOW_BPS, SLOW_BPS));
    let summed = ChecksummedBackend::new(Arc::clone(&store) as Arc<dyn Backend>);
    let engine = AioEngine::new(Arc::new(summed), AioConfig::deterministic());
    let pool = PinnedPool::new(2, FRAME);
    warm_up(&engine, &pool);
    let mut stored = store.read("k0").unwrap();
    let last = stored.len() - 1;
    stored[last] ^= 1;
    store.write("k0", &stored).unwrap();
    let err = engine
        .submit_read_pooled("k0", pool.acquire(), FRAME)
        .wait_pooled()
        .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
}

/// A throttled store whose writes fail once armed, and that records the
/// length of the last write it was asked for.
struct FailingWrites {
    inner: MemBackend,
    armed: AtomicBool,
    asked: AtomicUsize,
}

impl FailingWrites {
    fn gate(&self, len: usize) -> io::Result<()> {
        self.asked.store(len, Ordering::SeqCst);
        if self.armed.load(Ordering::SeqCst) {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "armed"));
        }
        Ok(())
    }
}

impl Backend for FailingWrites {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.gate(data.len())?;
        self.inner.write(key, data)
    }
    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        self.gate(frame.len())?;
        self.inner.write_frame(key, frame)
    }
    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        self.inner.read(key)
    }
    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        self.inner.read_into(key, dst)
    }
    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn name(&self) -> &str {
        "failing-writes"
    }
}

#[test]
fn a_failed_encoded_write_hands_back_the_raw_frame_untouched() {
    let backend = Arc::new(FailingWrites {
        inner: MemBackend::throttled("slow", SLOW_BPS, SLOW_BPS),
        armed: AtomicBool::new(false),
        asked: AtomicUsize::new(0),
    });
    let engine = AioEngine::new(
        Arc::clone(&backend) as Arc<dyn Backend>,
        AioConfig {
            retry: RetryPolicy::none(),
            ..AioConfig::deterministic()
        },
    );
    let pool = PinnedPool::new(2, FRAME);
    warm_up(&engine, &pool);
    let before = engine.device_bytes();

    backend.armed.store(true, Ordering::SeqCst);
    let payload = state(77, FRAME);
    let mut buf = pool.acquire();
    buf.buffer_mut().as_bytes_mut().copy_from_slice(&payload);
    let (err, back) = engine
        .submit_write_pooled("k1", buf, FRAME)
        .wait_flush()
        .unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    let asked = backend.asked.load(Ordering::SeqCst);
    assert!(asked < FRAME, "the failed write sent a {asked}-byte frame");
    let back = back.expect("a failed pooled write hands its frame back");
    assert!(
        back.buffer().as_bytes() == payload,
        "the raw payload, untouched"
    );
    assert_eq!(
        engine.device_bytes(),
        before,
        "a failed write moved nothing"
    );

    // Re-driven once the store heals, it lands and reads back raw.
    backend.armed.store(false, Ordering::SeqCst);
    engine
        .submit_write_pooled("k1", back, FRAME)
        .wait_flush()
        .map_err(|(e, _)| e)
        .unwrap();
    assert!(fetch(&engine, &pool, "k1") == payload);
}

/// A throttled store whose byte-moving calls wait at a gate while it is
/// closed; a call let through after `fail` fails.
struct Gated {
    inner: MemBackend,
    gate: Mutex<Gate>,
    moved: Condvar,
}

#[derive(Default)]
struct Gate {
    closed: bool,
    fail: bool,
    /// Calls waiting at the gate.
    held: usize,
}

impl Gated {
    fn pass(&self) -> io::Result<()> {
        let mut gate = self.gate.lock().unwrap();
        gate.held += 1;
        self.moved.notify_all();
        while gate.closed {
            gate = self.moved.wait(gate).unwrap();
        }
        gate.held -= 1;
        if gate.fail {
            return Err(io::Error::new(io::ErrorKind::PermissionDenied, "gate"));
        }
        Ok(())
    }

    fn set(&self, closed: bool, fail: bool) {
        let mut gate = self.gate.lock().unwrap();
        (gate.closed, gate.fail) = (closed, fail);
        self.moved.notify_all();
    }

    /// Waits until `n` calls are held at the gate.
    fn holding(&self, n: usize) {
        let gate = self.gate.lock().unwrap();
        let (gate, waited) = self
            .moved
            .wait_timeout_while(gate, Duration::from_secs(20), |g| g.held < n)
            .unwrap();
        assert!(
            !waited.timed_out(),
            "{} calls at the gate, not {n}",
            gate.held
        );
    }
}

impl Backend for Gated {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.pass()?;
        self.inner.write(key, data)
    }
    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        self.pass()?;
        self.inner.write_frame(key, frame)
    }
    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        self.pass()?;
        self.inner.read(key)
    }
    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        self.pass()?;
        self.inner.read_into(key, dst)
    }
    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }
    fn contains(&self, key: &str) -> bool {
        self.inner.contains(key)
    }
    fn name(&self) -> &str {
        "gated"
    }
}

/// Opens the gate when dropped, so a failed assert lets the engine's
/// workers finish instead of hanging the test.
struct OpenOnDrop<'a>(&'a Gated);

impl Drop for OpenOnDrop<'_> {
    fn drop(&mut self) {
        self.0.set(false, false);
    }
}

/// Polls until `done` holds; a bound on liveness, not a timing assert.
fn until(what: &str, done: impl Fn() -> bool) {
    let started = Instant::now();
    while !done() {
        assert!(started.elapsed() < Duration::from_secs(20), "never: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn the_io_worker_never_codes() {
    let backend = Arc::new(Gated {
        inner: MemBackend::throttled("slow", SLOW_BPS, SLOW_BPS),
        gate: Mutex::default(),
        moved: Condvar::new(),
    });
    let trace = TraceSink::enabled();
    let engine = AioEngine::new(
        Arc::clone(&backend) as Arc<dyn Backend>,
        AioConfig {
            workers: 1,
            retry: RetryPolicy::none(),
            deadline: Some(Duration::from_secs(1)),
            trace: trace.clone(),
            ..AioConfig::deterministic()
        },
    );
    let _open = OpenOnDrop(&backend);
    let pool = PinnedPool::new(3, FRAME);
    warm_up(&engine, &pool);
    let (encode_ns, decode_ns) = (
        trace.counter("aio.gated.encode_ns"),
        trace.counter("aio.gated.decode_ns"),
    );
    let filled = |payload: &[u8]| {
        let mut buf = pool.acquire();
        buf.buffer_mut().as_bytes_mut().copy_from_slice(payload);
        buf
    };

    // The one worker waits at the gate with a read, so the write queues
    // behind it: it was encoded by the time its submission returned.
    backend.set(true, false);
    let blocker = engine.submit_read_pooled("k1", pool.acquire(), FRAME);
    backend.holding(1);
    let (before, encoded) = (written(&engine), encode_ns.get());
    let payload = state(91, FRAME);
    let write = engine.submit_write_pooled("k0", filled(&payload), FRAME);
    let at_submit = encode_ns.get();
    assert!(
        at_submit > encoded,
        "the write was not encoded at submission"
    );
    backend.set(false, false);
    drop(blocker.wait_pooled().unwrap());
    write.wait_flush().map_err(|(e, _)| e).unwrap();
    assert_eq!(encode_ns.get(), at_submit, "the worker encoded");
    assert!(coded_since(&engine, before), "the write went out coded");

    // The worker answers the read with the frame; its waiter decodes it.
    let decoded = decode_ns.get();
    let read = engine.submit_read_pooled("k0", pool.acquire(), FRAME);
    until("the read is answered", || read.is_done());
    assert_eq!(decode_ns.get(), decoded, "the worker decoded");
    let (buf, n) = read.wait_pooled().unwrap();
    assert!(decode_ns.get() > decoded, "the waiter did not decode");
    assert!(buf.buffer().as_bytes()[..n] == payload[..]);
    drop(buf);

    // An encoded write the deadline abandons, then fails: its late
    // settlement hands back the raw payload, not the frame.
    backend.set(true, false);
    let (payload, encoded) = (state(92, FRAME), encode_ns.get());
    let write = engine.submit_write_pooled("k1", filled(&payload), FRAME);
    assert!(encode_ns.get() > encoded, "the write was not encoded");
    let (err, back) = write.wait_flush().unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
    assert!(write.abandoned() && back.is_none());
    backend.set(false, true);
    let late = write
        .late_flush(engine.now() + Duration::from_secs(20))
        .expect("the write settles");
    let (err, back) = late.unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::PermissionDenied);
    let back = back.expect("a failed pooled write hands its frame back");
    assert!(back.buffer().as_bytes() == payload, "the raw payload");
}
