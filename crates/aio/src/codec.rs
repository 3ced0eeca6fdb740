//! The codec stage of a tier's I/O workers ([`mlp_tensor::codec`]): which
//! writes go out encoded, decided by the rule below from the tier's own
//! measured rates, and the length rule by which every read comes back raw.
//!
//! **The rate rule.** A write goes out encoded when the transfer time the
//! frame saves beats the CPU time coding costs, per raw byte:
//!
//! ```text
//! transfer s/byte × (1 − frame bytes / raw bytes) > (encode + decode) s/byte
//! ```
//!
//! Every rate is measured here, on this tier: the backend calls that moved
//! bytes (their mean time over the bytes the device saw), the encodes and
//! the decodes (their best time over raw bytes: coding is a fixed
//! computation, and a run a preemption slowed must not turn it off).
//! Nothing is configured. A tier whose rule says "raw" — a memory tier, a
//! fast disk, or one that has not measured yet — runs a trial at most
//! every [`TRIAL_EVERY`]: it encodes the first block
//! of one write before sending it raw, and decodes that frame into the
//! write's own buffer once the write has landed, so the codec's rates and
//! ratio stay measured at the cost of ten blocks a second — and a trial a
//! busy host slowed is out-run within a tenth of a second.
//!
//! **The length rule.** A pooled read knows the raw length of what it
//! fetches: an object of that length is raw, and a shorter one that starts
//! with a frame header is decoded ([`mlp_tensor::codec::framed_len`]). A
//! plain read does not know it and trusts the header alone. Either way the
//! waiter gets raw bytes, whatever the tier wrote and whenever, so mixed
//! tiers, migrations, links and restores never see a frame. A header of
//! the codec's family in another version (an object an older build wrote)
//! fails the read with `InvalidData` on both paths: it is neither decoded
//! nor handed up as raw bytes.
//!
//! **Meters.** The timings the rule takes are also the tier's coding time:
//! `aio.{backend}.encode_ns` / `decode_ns` sum every encode and decode,
//! trials included, with no clock read of their own.

use std::io;
use std::time::{Duration, Instant};

use mlp_sync::atomic::{AtomicU64, Ordering};
use mlp_tensor::{codec, HostBuffer};
use mlp_trace::{Counter, TraceSink};

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
        // relaxed-ok: monotonic rate sums; a reader mixing two updates
        // misjudges one op's codec choice, never its bytes
        self.nanos.fetch_add(took.as_nanos() as u64, Ordering::Relaxed);
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
/// `nanos`, the tier's `aio.{backend}.encode_ns` / `decode_ns` meter.
struct Best {
    fastest: AtomicU64,
    nanos: Counter,
}

impl Best {
    fn new(nanos: Counter) -> Self {
        Best {
            fastest: AtomicU64::new(0),
            nanos,
        }
    }

    fn add(&self, took: Duration, bytes: usize) {
        self.nanos.add(took.as_nanos() as u64);
        let per_second = bytes as u128 * 1_000_000_000 / took.as_nanos().max(1);
        // relaxed-ok: a monotonic best, as `Rate`'s sums
        self.fastest.fetch_max(u64::try_from(per_second).unwrap_or(u64::MAX), Ordering::Relaxed);
    }

    /// Seconds per byte, once a byte was coded.
    fn per_byte(&self) -> Option<f64> {
        // relaxed-ok: a monotonic best
        let per_second = self.fastest.load(Ordering::Relaxed);
        (per_second > 0).then(|| 1.0 / per_second as f64)
    }
}

/// What one write sends, as the stage left it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Staged {
    /// The payload as it is.
    Raw,
    /// The payload as it is; the scratch holds a trial frame of `frame`
    /// bytes, coding the payload's first `prefix`.
    Trial { frame: usize, prefix: usize },
    /// The scratch's frame of this many bytes, in place of the payload.
    Framed(usize),
}

/// A tier's measured transfer and codec rates, shared by its workers.
pub(crate) struct CodecRates {
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
    born: Instant,
    /// Nanoseconds after `born` from which a trial may run.
    next_trial: AtomicU64,
}

impl CodecRates {
    /// Rates of the tier `backend`, whose coding time `trace` meters.
    pub(crate) fn new(trace: &TraceSink, backend: &str) -> Self {
        let c = |meter: &str| trace.counter(&format!("aio.{backend}.{meter}"));
        CodecRates {
            transfer: Rate::default(),
            encode: Best::new(c("encode_ns")),
            decode: Best::new(c("decode_ns")),
            coded: AtomicU64::new(0),
            framed: AtomicU64::new(0),
            born: Instant::now(),
            next_trial: AtomicU64::new(0),
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

    /// Stages a write of `payload`: encodes it whole into `scratch` when
    /// the rule says so, or a trial prefix when one is due. `frame` is the
    /// capacity of the staging frame a whole-frame write comes from: an
    /// encoded frame gets a scratch of the same capacity, so a memory tier
    /// exchanges it with the object it displaces as it would the frame.
    pub(crate) fn stage_write(
        &self,
        payload: &[u8],
        scratch: &mut HostBuffer,
        frame: Option<usize>,
    ) -> Staged {
        if self.encodes() {
            let capacity = frame.unwrap_or(payload.len().max(scratch.capacity()));
            return match self.encode_into(payload, scratch, capacity) {
                Some(n) => Staged::Framed(n),
                None => Staged::Raw,
            };
        }
        if !self.trial_due() {
            return Staged::Raw;
        }
        let prefix = payload.get(..TRIAL_BYTES).unwrap_or(payload);
        let capacity = prefix.len().max(scratch.capacity());
        match self.encode_into(prefix, scratch, capacity) {
            Some(frame) => Staged::Trial {
                frame,
                prefix: prefix.len(),
            },
            None => Staged::Raw,
        }
    }

    /// Decodes a trial's frame into the front of `dst` — the landed
    /// write's own payload buffer, which nobody reads again — to time it.
    pub(crate) fn finish_trial(&self, staged: Staged, scratch: &HostBuffer, dst: &mut [u8]) {
        let Staged::Trial { frame, prefix } = staged else {
            return;
        };
        if let (Some(frame), Some(dst)) = (scratch.as_bytes().get(..frame), dst.get_mut(..prefix)) {
            let started = Instant::now();
            if codec::decode(frame, dst).is_ok() {
                self.decode.add(started.elapsed(), prefix);
            }
        }
    }

    /// The length rule for a pooled read: the first `len` bytes of
    /// `frame` are its window, and the read put `n` bytes at its front.
    /// Returns the object's raw length: `n` for a raw object (a short one
    /// too — its length is the caller's to check), or `len` once a frame is
    /// decoded into the window. The frame's bytes move to `scratch` first,
    /// by trading the two allocations (the scratch is given the frame's
    /// capacity first if it has another), so the pool gets back a frame of
    /// its own size and no byte is copied twice.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a frame that does not decode to the window, or one
    /// of another codec version.
    pub(crate) fn decode_read(
        &self,
        key: &str,
        frame: &mut HostBuffer,
        len: usize,
        n: usize,
        scratch: &mut HostBuffer,
    ) -> io::Result<usize> {
        if n >= len {
            return Ok(n);
        }
        match frame.as_bytes().get(..n).map(codec::framed_len) {
            None | Some(Ok(None)) => return Ok(n),
            Some(Err(e)) => return Err(undecodable(key, e)),
            Some(Ok(Some(_))) => {}
        }
        let frame_len = frame.len();
        if scratch.capacity() != frame.capacity() {
            *scratch = HostBuffer::zeroed(frame.capacity());
        }
        std::mem::swap(frame, scratch);
        frame.set_len(frame_len);
        let src = scratch.as_bytes().get(..n).unwrap_or_default();
        let window = frame.as_bytes_mut().get_mut(..len).unwrap_or_default();
        let started = Instant::now();
        codec::decode(src, window).map_err(|e| undecodable(key, e))?;
        self.decode.add(started.elapsed(), len);
        Ok(len)
    }

    /// The length rule for a plain read, which knows no raw length: a
    /// frame header is decoded, anything else is raw.
    ///
    /// # Errors
    ///
    /// `InvalidData` for a frame that does not decode, or one of another
    /// codec version.
    pub(crate) fn decode_object(&self, key: &str, data: Vec<u8>) -> io::Result<Vec<u8>> {
        let Some(raw) = codec::framed_len(&data).map_err(|e| undecodable(key, e))? else {
            return Ok(data);
        };
        let mut out = vec![0; raw];
        let started = Instant::now();
        codec::decode(&data, &mut out).map_err(|e| undecodable(key, e))?;
        self.decode.add(started.elapsed(), raw);
        Ok(out)
    }

    /// Claims the trial slot if it is due.
    fn trial_due(&self) -> bool {
        let now = self.born.elapsed().as_nanos() as u64;
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
        let started = Instant::now();
        let framed = codec::encode(src, scratch.as_bytes_mut());
        self.encode.add(started.elapsed(), src.len());
        // relaxed-ok: a rate sum, see `Rate::add`
        self.coded.fetch_add(src.len() as u64, Ordering::Relaxed);
        // relaxed-ok: as above
        self.framed.fetch_add(framed.unwrap_or(src.len()) as u64, Ordering::Relaxed);
        scratch.set_len(framed.unwrap_or(0));
        framed
    }
}

fn undecodable(key: &str, e: codec::CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("object {key}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rates of a tier: `transfer_ns` per device byte, the codec's best
    /// `codec_ns` per raw byte each way, frames of `ratio`.
    fn rates(transfer_ns: u64, codec_ns: u64, ratio: f64) -> CodecRates {
        let rates = CodecRates::new(&TraceSink::disabled(), "test");
        let mib = 1 << 20;
        rates.transfer.add(Duration::from_nanos(transfer_ns * mib as u64), mib);
        rates.encode.add(Duration::from_nanos(codec_ns * mib as u64), mib);
        rates.decode.add(Duration::from_nanos(codec_ns * mib as u64), mib);
        rates.coded.store(mib as u64, Ordering::SeqCst);
        rates.framed.store((ratio * mib as f64) as u64, Ordering::SeqCst);
        rates
    }

    #[test]
    fn the_rule_codes_where_the_saved_transfer_beats_the_coding() {
        // 50 MB/s = 20 ns/B: an eighth of it saves 2.5 ns/B against 1 + 1.
        assert!(rates(20, 1, 0.875).encodes());
        assert!(!rates(20, 1, 0.95).encodes(), "too little saved");
        assert!(!rates(1, 1, 0.875).encodes(), "a fast device stays raw");
        assert!(!CodecRates::new(&TraceSink::disabled(), "test").encodes(), "nothing measured yet");
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
        let rates = CodecRates::new(&TraceSink::disabled(), "test");
        let mut scratch = HostBuffer::default();
        let payload: Vec<u8> = (0..8192u32).flat_map(|i| (i as f32 * 1e-3).to_le_bytes()).collect();
        let trial = rates.stage_write(&payload, &mut scratch, None);
        let Staged::Trial { prefix, .. } = trial else {
            panic!("the first write trials: {trial:?}");
        };
        assert_eq!(prefix, TRIAL_BYTES.min(payload.len()));
        assert_eq!(rates.stage_write(&payload, &mut scratch, None), Staged::Raw);
        let mut landed = payload.clone();
        rates.finish_trial(trial, &scratch, &mut landed);
        assert!(landed == payload, "the trial decodes what it coded");
        assert!(rates.decode.per_byte().is_some());
    }
}
