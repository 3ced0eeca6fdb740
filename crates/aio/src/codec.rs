//! The codec stage of a tier's engine ([`mlp_tensor::codec`]): which
//! writes go out encoded, decided by the rule below from the tier's own
//! measured rates, and the length rule by which every read comes back raw.
//! It runs at an op's two edges, never on its I/O worker: the thread that
//! submits a write encodes it, the thread that takes a read decodes it, so
//! on a slow tier the update pass decodes, updates and encodes a frame
//! back to back while it is hot, and a worker — a device lane on a
//! throttled tier — only moves bytes.
//!
//! **The rate rule.** A write goes out encoded when the transfer time the
//! frame saves beats the CPU time coding costs, per raw byte:
//!
//! ```text
//! transfer s/byte × (1 − frame bytes / raw bytes) > (encode + decode) s/byte
//! ```
//!
//! Every rate is measured on this tier: the backend calls that moved bytes
//! (their mean time over the bytes the device saw, on the workers), the
//! encodes and the decodes (their best time over raw bytes, wherever they
//! ran: coding is a fixed computation, and a run a preemption slowed must
//! not turn it off). Nothing is configured. A tier whose rule says "raw" —
//! a memory tier, a fast disk, or one that has not measured yet — runs a
//! trial at most every [`TRIAL_EVERY`]: a submitter encodes the first block
//! of one write and decodes it back, both in the scratch, and sends the
//! write raw — ten blocks a second keep the rates and ratio measured, and
//! a trial a busy host slowed is out-run within a tenth of a second.
//!
//! **The length rule.** A pooled read knows the raw length of what it
//! fetches: an object of that length is raw, and a shorter one that starts
//! with a frame header is a frame ([`mlp_tensor::codec::framed_len`]). A
//! plain read does not know it and trusts the header alone. The worker
//! reads the header, the waiter decodes: it gets raw bytes whatever the
//! tier wrote and whenever, so mixed tiers, migrations, links and restores
//! never see a frame. A header of the codec's family in another version
//! (an object an older build wrote) fails the read with `InvalidData`.
//!
//! **Meters.** The timings the rule takes are also the tier's coding time:
//! `aio.{backend}.encode_ns` / `decode_ns` sum every encode and decode,
//! trials included, each a `codec_encode` / `codec_decode` span on the
//! thread that ran it.

use std::io;
use std::time::{Duration, Instant};

use mlp_storage::Clock;
use mlp_sync::atomic::{AtomicU64, Ordering};
use mlp_sync::{Arc, Mutex};
use mlp_tensor::{codec, HostBuffer};
use mlp_trace::{Attrs, Counter, Phase, TraceSink};

use crate::AioConfig;

/// How long a tier whose rule says "raw" waits between trials.
const TRIAL_EVERY: Duration = Duration::from_millis(100);

/// A trial codes at most this prefix of its write: one codec block.
const TRIAL_BYTES: usize = 4 * codec::BLOCK_WORDS;

/// Time over bytes, summed since the engine started: a device's mean.
#[derive(Default)]
struct Rate {
    nanos: AtomicU64,
    bytes: AtomicU64,
}

impl Rate {
    fn add(&self, took: Duration, bytes: usize) {
        self.nanos
            // relaxed-ok: monotonic rate sums; a reader mixing two updates
            // misjudges one op's codec choice, never its bytes
            .fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
        // relaxed-ok: as above
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Seconds per byte, once a byte was seen.
    fn per_byte(&self) -> Option<f64> {
        // relaxed-ok: a rate sum, see `add`
        let bytes = self.bytes.load(Ordering::Relaxed);
        // relaxed-ok: as above
        let nanos = self.nanos.load(Ordering::Relaxed);
        (bytes > 0).then(|| nanos as f64 * 1e-9 / bytes as f64)
    }
}

/// The fastest a coding kernel has run here, in bytes per second. Coding
/// is a fixed computation: its cost on this host is its fastest run, and a
/// slower one was preempted or ran cold — one such run must not outvote
/// every other and turn a paying codec off. Every run's time also adds to
/// `nanos`, the `aio.{backend}.encode_ns` / `decode_ns` meter: a `phase` span.
struct Best {
    fastest: AtomicU64,
    nanos: Counter,
    phase: Phase,
}

impl Best {
    fn new(nanos: Counter, phase: Phase) -> Self {
        Best {
            fastest: AtomicU64::new(0),
            nanos,
            phase,
        }
    }

    fn add(&self, took: Duration, bytes: usize) {
        self.nanos.add(took.as_nanos() as u64);
        let per_second = bytes as u128 * 1_000_000_000 / took.as_nanos().max(1);
        self.fastest.fetch_max(
            u64::try_from(per_second).unwrap_or(u64::MAX),
            // relaxed-ok: a monotonic best, as `Rate`'s sums
            Ordering::Relaxed,
        );
    }

    /// Seconds per byte, once a byte was coded.
    fn per_byte(&self) -> Option<f64> {
        // relaxed-ok: a monotonic best
        let per_second = self.fastest.load(Ordering::Relaxed);
        (per_second > 0).then(|| 1.0 / per_second as f64)
    }
}

/// A tier's codec stage: its measured rates, shared by its workers,
/// submitters and waiters, and the scratch frame coding runs through.
pub(crate) struct CodecStage {
    /// Backend calls that moved bytes: time over the bytes the device saw.
    transfer: Rate,
    /// Encodes, over raw bytes.
    encode: Best,
    /// Decodes, over raw bytes.
    decode: Best,
    /// Raw bytes encoded, and the frame bytes they produced (the raw bytes
    /// where an object did not code shorter): the ratio.
    coded: AtomicU64,
    framed: AtomicU64,
    /// The engine's clock, and its reading in nanoseconds from which a
    /// trial may run.
    clock: Arc<dyn Clock>,
    next_trial: AtomicU64,
    /// Where coding spans go, stamped with the engine's tier.
    trace: TraceSink,
    tier: i32,
    /// Trades allocations with the pooled frames; out while a thread codes.
    scratch: Mutex<HostBuffer>,
}

impl CodecStage {
    /// The stage of an engine of `config` over `backend`.
    pub(crate) fn new(config: &AioConfig, backend: &str) -> Self {
        let c = |meter: &str| config.trace.counter(&format!("aio.{backend}.{meter}"));
        CodecStage {
            transfer: Rate::default(),
            encode: Best::new(c("encode_ns"), Phase::CodecEncode),
            decode: Best::new(c("decode_ns"), Phase::CodecDecode),
            coded: AtomicU64::new(0),
            framed: AtomicU64::new(0),
            clock: Arc::clone(&config.clock),
            next_trial: AtomicU64::new(0),
            trace: config.trace.clone(),
            tier: config.trace_tier,
            scratch: Mutex::new(HostBuffer::default()),
        }
    }

    /// Whether the rate rule sends writes encoded: every rate measured and
    /// `transfer × (1 − ratio) > encode + decode`, per byte — the device's
    /// mean against the codec's best.
    fn encodes(&self) -> bool {
        let (Some(transfer), Some(encode), Some(decode)) = (
            self.transfer.per_byte(),
            self.encode.per_byte(),
            self.decode.per_byte(),
        ) else {
            return false;
        };
        // relaxed-ok: a rate sum, see `Rate::add`
        let framed = self.framed.load(Ordering::Relaxed) as f64;
        // relaxed-ok: as above
        let raw = self.coded.load(Ordering::Relaxed).max(1) as f64;
        transfer * (1.0 - framed / raw) > encode + decode
    }

    /// Runs one backend call that moves bytes and, when it lands, times
    /// it into the transfer rate over the `bytes` its device moved.
    pub(crate) fn timed<T>(
        &self,
        call: impl FnOnce() -> io::Result<T>,
        bytes: impl FnOnce(&T) -> usize,
    ) -> io::Result<T> {
        let started = Instant::now();
        let out = call()?;
        self.transfer.add(started.elapsed(), bytes(&out));
        Ok(out)
    }

    /// A pooled write's submitter: encodes the first `len` bytes of `frame`
    /// in their place (into the scratch, which then trades allocations with
    /// it) when the rule says so, and returns the frame's length.
    pub(crate) fn encode_frame(&self, frame: &mut HostBuffer, len: usize) -> Option<usize> {
        self.with_scratch(|scratch| {
            let payload = frame.as_bytes().get(..len).unwrap_or_default();
            let n = self.encode(payload, scratch, Some(frame.capacity()))?;
            let full = frame.len();
            std::mem::swap(frame, scratch);
            frame.set_len(full);
            Some(n)
        })
    }

    /// An owned write's submitter: `data`, or its frame if the rule says so.
    pub(crate) fn encode_bytes(&self, data: Vec<u8>) -> Vec<u8> {
        let framed = self.with_scratch(|scratch| {
            let n = self.encode(&data, scratch, None)?;
            scratch.as_bytes().get(..n).map(<[u8]>::to_vec)
        });
        framed.unwrap_or(data)
    }

    /// Encodes `payload` into `scratch` (given exactly `frame` bytes, if
    /// set) when the rule says so, else runs a trial if one is due.
    fn encode(
        &self,
        payload: &[u8],
        scratch: &mut HostBuffer,
        frame: Option<usize>,
    ) -> Option<usize> {
        if self.encodes() {
            let capacity = frame.unwrap_or(payload.len().max(scratch.capacity()));
            return self.encode_into(payload, scratch, capacity);
        }
        if self.trial_due() {
            // The trial's frame, then its decode, side by side in the
            // scratch: the payload is never touched.
            let prefix = payload.get(..TRIAL_BYTES).unwrap_or(payload);
            let capacity = (2 * prefix.len()).max(scratch.capacity());
            let n = self.encode_into(prefix, scratch, capacity)?;
            scratch.set_len(capacity);
            let (frame, out) = scratch.as_bytes_mut().split_at_mut(prefix.len());
            if let (Some(frame), Some(out)) = (frame.get(..n), out.get_mut(..prefix.len())) {
                let _ = self.coding(&self.decode, prefix.len(), || codec::decode(frame, out));
            }
        }
        None
    }

    /// A pooled read's waiter, or a failed write's: decodes the `n`-byte
    /// frame at the front of `frame` into its first `len` bytes, or fails
    /// with `InvalidData`. The frame's bytes move to the scratch first by
    /// trading allocations (the scratch takes the frame's capacity), so the
    /// pool gets back a frame of its own size and no byte is copied twice.
    pub(crate) fn decode_frame(
        &self,
        frame: &mut HostBuffer,
        n: usize,
        len: usize,
    ) -> io::Result<()> {
        self.with_scratch(|scratch| {
            let frame_len = frame.len();
            if scratch.capacity() != frame.capacity() {
                *scratch = HostBuffer::zeroed(frame.capacity());
            }
            std::mem::swap(frame, scratch);
            frame.set_len(frame_len);
            let src = scratch.as_bytes().get(..n).unwrap_or_default();
            let window = frame.as_bytes_mut().get_mut(..len).unwrap_or_default();
            self.coding(&self.decode, len, || codec::decode(src, window))
        })
        .map_err(undecodable)
    }

    /// A plain read's waiter, which knows no raw length: a frame header is
    /// decoded (or fails with `InvalidData`), anything else is raw.
    pub(crate) fn decode_object(&self, data: Vec<u8>) -> io::Result<Vec<u8>> {
        let Some(raw) = codec::framed_len(&data).map_err(undecodable)? else {
            return Ok(data);
        };
        let mut out = vec![0; raw];
        let decoded = self.coding(&self.decode, raw, || codec::decode(&data, &mut out));
        decoded.map(|()| out).map_err(undecodable)
    }

    /// Claims the trial slot if it is due.
    fn trial_due(&self) -> bool {
        let now = self.clock.now().as_nanos() as u64;
        // relaxed-ok: the slot is claimed by the exchange below; no memory
        // is published through it
        let due = self.next_trial.load(Ordering::Relaxed);
        let next = now + TRIAL_EVERY.as_nanos() as u64;
        now >= due
            && self
                .next_trial
                // relaxed-ok: as above
                .compare_exchange(due, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }

    /// Encodes `src` into `scratch`, given exactly `capacity` bytes of
    /// room (reallocated only when its capacity differs), and times it.
    fn encode_into(&self, src: &[u8], scratch: &mut HostBuffer, capacity: usize) -> Option<usize> {
        if scratch.capacity() != capacity {
            *scratch = HostBuffer::zeroed(capacity);
        }
        scratch.set_len(capacity);
        let framed = self.coding(&self.encode, src.len(), || {
            codec::encode(src, scratch.as_bytes_mut())
        });
        // relaxed-ok: a rate sum, see `Rate::add`
        self.coded.fetch_add(src.len() as u64, Ordering::Relaxed);
        self.framed
            // relaxed-ok: as above
            .fetch_add(framed.unwrap_or(src.len()) as u64, Ordering::Relaxed);
        scratch.set_len(framed.unwrap_or(0));
        framed
    }

    /// Runs one encode or decode of `raw` bytes: timed into `best`, and a
    /// span on the calling thread.
    fn coding<T>(&self, best: &Best, raw: usize, code: impl FnOnce() -> T) -> T {
        let (started, start_ns) = (Instant::now(), self.trace.now_ns());
        let out = code();
        best.add(started.elapsed(), raw);
        let (trace, attrs) = (&self.trace, Attrs::tier_bytes(self.tier, raw as u64));
        trace.complete_span(best.phase, attrs, start_ns, trace.now_ns());
        out
    }

    /// Runs `f` on the scratch, taken out of its slot meanwhile: a thread
    /// that finds it out codes through a frame of its own.
    fn with_scratch<T>(&self, f: impl FnOnce(&mut HostBuffer) -> T) -> T {
        let mut scratch = std::mem::take(&mut *self.scratch.lock());
        let out = f(&mut scratch);
        *self.scratch.lock() = scratch;
        out
    }
}

/// The length rule on an object's header, where it lands: the raw length
/// of `object`, longer than it for a frame, or `InvalidData` for another
/// codec version's. An object of a pooled read's raw length (`window`) is
/// raw.
pub(crate) fn length_rule(key: &str, object: &[u8], window: Option<usize>) -> io::Result<usize> {
    if window.is_some_and(|len| object.len() >= len) {
        return Ok(object.len());
    }
    let refused = |e| io::Error::new(io::ErrorKind::InvalidData, format!("object {key}: {e}"));
    Ok(codec::framed_len(object)
        .map_err(refused)?
        .unwrap_or(object.len()))
}

/// A frame its waiter could not decode.
fn undecodable(e: codec::CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("a read's frame: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rates of a tier: `transfer_ns` per device byte, the codec's best
    /// `codec_ns` per raw byte each way, frames of `ratio`.
    fn rates(transfer_ns: u64, codec_ns: u64, ratio: f64) -> CodecStage {
        let rates = CodecStage::new(&AioConfig::default(), "test");
        let mib = 1 << 20;
        rates
            .transfer
            .add(Duration::from_nanos(transfer_ns * mib as u64), mib);
        rates
            .encode
            .add(Duration::from_nanos(codec_ns * mib as u64), mib);
        rates
            .decode
            .add(Duration::from_nanos(codec_ns * mib as u64), mib);
        rates.coded.store(mib as u64, Ordering::SeqCst);
        rates
            .framed
            .store((ratio * mib as f64) as u64, Ordering::SeqCst);
        rates
    }

    #[test]
    fn the_rule_codes_where_the_saved_transfer_beats_the_coding() {
        // 50 MB/s = 20 ns/B: an eighth of it saves 2.5 ns/B against 1 + 1.
        assert!(rates(20, 1, 0.875).encodes());
        assert!(!rates(20, 1, 0.95).encodes(), "too little saved");
        assert!(!rates(1, 1, 0.875).encodes(), "a fast device stays raw");
        assert!(
            !CodecStage::new(&AioConfig::default(), "test").encodes(),
            "nothing measured yet"
        );
    }

    #[test]
    fn one_slow_coding_run_does_not_turn_the_codec_off() {
        let rates = rates(20, 1, 0.875);
        let mib = 1 << 20;
        rates.encode.add(Duration::from_millis(500), mib);
        assert!(rates.encodes());
    }

    #[test]
    fn a_tier_that_stays_raw_trials_once_a_period() {
        let clock = Arc::new(mlp_testkit::ManualClock::new());
        let config = AioConfig {
            clock: clock.clone(),
            ..AioConfig::default()
        };
        let rates = CodecStage::new(&config, "test");
        let mut scratch = HostBuffer::default();
        let payload: Vec<u8> = (0..8192u32)
            .flat_map(|i| (i as f32 * 1e-3).to_le_bytes())
            .collect();
        assert_eq!(rates.encode(&payload, &mut scratch, None), None, "raw");
        let prefix = TRIAL_BYTES.min(payload.len());
        assert!(
            scratch.as_bytes()[prefix..2 * prefix] == payload[..prefix],
            "the trial decodes what it coded"
        );
        assert!(rates.encode.per_byte().is_some() && rates.decode.per_byte().is_some());
        scratch.as_bytes_mut().fill(0);
        assert_eq!(rates.encode(&payload, &mut scratch, None), None);
        assert!(
            scratch.as_bytes().iter().all(|&b| b == 0),
            "no second trial"
        );
        clock.advance(TRIAL_EVERY);
        assert_eq!(rates.encode(&payload, &mut scratch, None), None);
        assert!(
            scratch.as_bytes()[prefix..2 * prefix] == payload[..prefix],
            "a period later, the next trial"
        );
    }
}
