//! The io_uring engine: one driver thread batching file I/O into a
//! kernel submission ring.
//!
//! Where the pool engine pays one blocking syscall per op per worker,
//! this driver stages every queued eligible op as an SQE in its own
//! [`sys::Ring`] slot and enters the kernel **once per batch**
//! (`io_uring_enter`, recorded as a [`Phase::AioBatch`] span whose
//! `bytes` field is the batch's op count). At queue depth ≥ 32 the
//! per-op syscall and thread-handoff overhead amortizes away — the
//! effect `BENCH_io_engines.json` quantifies against the worker pool.
//!
//! # The raw write protocol
//!
//! Raw writes must preserve [`DirBackend`](mlp_storage::DirBackend)'s
//! crash-safety contract (no torn objects, readers never observe a
//! partial write):
//!
//! 1. stage the payload into the slot's 4096-aligned bounce buffer,
//!    zero-padded to the covering block (`O_DIRECT`-legal),
//! 2. SQE-write the padded image to a fresh
//!    [`unique_tmp_sibling`](mlp_storage::unique_tmp_sibling),
//! 3. on completion truncate to the logical length (`set_len`),
//!    `sync_all` if the target demands durability, and rename over the
//!    final path.
//!
//! When the driver is in buffered mode (the target does not ask for
//! `O_DIRECT`, or the filesystem refused it), plain ops skip the bounce
//! buffer entirely: no alignment is demanded, so a write's SQE points
//! straight at the payload bytes and a read's SQE straight at its
//! result vector, both owned by the ring until the op retires
//! ([`Payload::WriteExtern`] / [`Payload::ReadExtern`]). That removes a
//! full memcpy per object from the buffered hot path.
//!
//! # Degradation
//!
//! Any obstacle — decorated backend (no
//! [`raw_target`](mlp_storage::Backend::raw_target)), object larger
//! than the bounce buffer, open/rename failure, CQE error, short
//! transfer, even `io_uring_enter` itself failing — degrades that op to
//! the shared portable path, which owns retry and error
//! classification. `O_DIRECT` is opportunistic and sticky-per-engine:
//! the first refusal (open error or `EINVAL` completion) switches the
//! driver to buffered opens for good.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::fs::OpenOptionsExt;
use std::path::{Path, PathBuf};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError};
use std::time::Instant;

use mlp_sync::{thread, Arc};

use mlp_storage::{unique_tmp_sibling, RawFileTarget};
use mlp_tensor::PooledBuffer;
use mlp_trace::{Attrs, Phase};

use crate::engine::{Op, OpKind, OpOutput, OpState};

use super::sys::Ring;
use super::{EngineShared, IoEngine};

#[cfg(target_arch = "x86_64")]
const O_DIRECT: i32 = 0x4000;
#[cfg(target_arch = "aarch64")]
const O_DIRECT: i32 = 0x10000;

/// Bytes per bounce buffer; objects larger than this take the portable
/// path. 256 KiB × the ring depth bounds the engine's pinned memory
/// (32 MiB at the max ring depth) while covering typical subgroup
/// shards.
const BOUNCE_BYTES: usize = 256 * 1024;

/// Ring slots are capped independently of the (possibly much larger)
/// submission channel: past ~128 in-flight SQEs an NVMe queue is
/// saturated and more slots only pin more bounce memory.
const MAX_RING_DEPTH: usize = 128;

const EINVAL: i32 = 22;

pub(crate) struct UringEngine {
    tx: Option<SyncSender<Op>>,
    driver: Option<thread::JoinHandle<()>>,
    shared: Arc<EngineShared>,
}

impl UringEngine {
    pub(crate) fn new(shared: Arc<EngineShared>, queue_depth: usize) -> Self {
        let (tx, rx) = sync_channel::<Op>(queue_depth);
        let ring_depth = queue_depth.clamp(1, MAX_RING_DEPTH) as u32;
        let driver = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name(format!("aio-uring-{}", shared.backend.name()))
                .spawn(move || drive(shared, rx, ring_depth))
                // lint:allow(hot-path-panic): driver spawn happens once at
                // engine construction, not on the per-op I/O path
                .expect("spawn aio uring driver")
        };
        UringEngine {
            tx: Some(tx),
            driver: Some(driver),
            shared,
        }
    }
}

impl IoEngine for UringEngine {
    fn submit(&self, op: Op) {
        match self.tx.as_ref() {
            Some(tx) => {
                if let Err(err) = tx.send(op) {
                    self.shared.reject(err.0);
                }
            }
            None => self.shared.reject(op),
        }
    }
}

impl Drop for UringEngine {
    /// Closes the submission queue and joins the driver; accepted ops
    /// (queued and in-flight) complete first, so the ring and its
    /// bounce buffers outlive every kernel-visible operation.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}

/// Sticky per-driver `O_DIRECT` state: try once, remember refusals.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Direct {
    Untried,
    On,
    Off,
}

/// The op payload held while its SQE is in flight — enough to rebuild
/// the original [`OpKind`] if the raw path has to degrade.
enum Payload {
    Read,
    ReadPooled(PooledBuffer, usize),
    Write(Vec<u8>),
    WritePooled(PooledBuffer, usize),
    /// A zero-copy buffered write whose bytes are parked in the ring
    /// (see [`Ring::push_write_owned`]); every exit path swaps this back
    /// to [`Payload::Write`] by reclaiming (or, on a broken ring,
    /// cloning) the parked bytes before any re-drive.
    WriteExtern,
    /// A zero-copy buffered read landing straight in its ring-parked
    /// result vector (see [`Ring::push_read_owned`]); the success path
    /// reclaims the filled vector, every other path re-drives as a
    /// plain [`Payload::Read`] (a re-read needs no payload back).
    ReadExtern,
}

impl Payload {
    fn into_kind(self) -> OpKind {
        match self {
            Payload::Read | Payload::ReadExtern => OpKind::Read,
            Payload::ReadPooled(buf, len) => OpKind::ReadPooled(buf, len),
            Payload::Write(data) => OpKind::Write(data),
            Payload::WritePooled(buf, len) => OpKind::WritePooled(buf, len),
            // The payload bytes live in the ring until reclaimed; a
            // re-drive without them would write a torn (empty) object.
            // lint:allow(hot-path-panic): reaching here is a driver bug
            Payload::WriteExtern => unreachable!("WriteExtern leaked out of the uring driver"),
        }
    }

    fn is_read(&self) -> bool {
        matches!(self, Payload::Read | Payload::ReadPooled(..) | Payload::ReadExtern)
    }
}

/// Everything about one in-flight SQE, keyed by its slot index
/// (`user_data`). Holds the open fd so the kernel target stays valid.
struct InFlight {
    key: String,
    state: Arc<OpState>,
    payload: Payload,
    /// Final object path (rename target for writes, source for reads).
    path: PathBuf,
    /// The unique temporary sibling a raw write goes through.
    tmp: Option<PathBuf>,
    fsync: bool,
    /// Useful bytes: the file length for reads, the payload length for
    /// writes.
    logical_len: usize,
    /// Padded transfer size actually submitted to the kernel.
    sqe_len: usize,
    /// Whether the fd was opened `O_DIRECT` (for `EINVAL` attribution).
    direct: bool,
    file: File,
    t0: Instant,
    span_start: u64,
}

/// The driver loop. Owns the ring (created on this thread, never sent
/// across threads) and completes every accepted op before returning.
fn drive(shared: Arc<EngineShared>, rx: Receiver<Op>, ring_depth: u32) {
    let mut ring = match Ring::new(ring_depth, BOUNCE_BYTES, true) {
        Ok(ring) => ring,
        Err(_) => {
            // No ring on this host/filesystem after all (the probe can
            // race a seccomp policy or rlimit change): serve everything
            // portably rather than failing ops.
            while let Ok(op) = rx.recv() {
                shared.run_op(op);
            }
            return;
        }
    };
    let depth = ring.depth();
    let mut inflight: Vec<Option<InFlight>> = Vec::new();
    inflight.resize_with(depth, || None);
    let mut free: Vec<usize> = (0..depth).rev().collect();
    let mut live: usize = 0;
    let mut direct = Direct::Untried;
    let mut open = true;

    while open || live > 0 {
        // Admit: batch up everything currently queued, blocking only
        // when the ring is empty (nothing to wait on anyway).
        while open && !free.is_empty() {
            let op = if live == 0 && ring.staged() == 0 {
                match rx.recv() {
                    Ok(op) => op,
                    Err(_) => {
                        open = false;
                        break;
                    }
                }
            } else {
                match rx.try_recv() {
                    Ok(op) => op,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => {
                        open = false;
                        break;
                    }
                }
            };
            admit(
                &shared,
                &mut ring,
                &mut inflight,
                &mut free,
                &mut live,
                &mut direct,
                op,
            );
        }
        if live == 0 && ring.staged() == 0 {
            continue;
        }
        // One enter for the whole staged batch; wait for ≥1 completion.
        let batch = ring.staged();
        let batch_start = shared.trace.now_ns();
        match ring.submit_and_wait(1) {
            Ok(_) => {
                if batch > 0 && shared.trace.is_enabled() {
                    shared.stats.batches.inc();
                    shared.trace.complete_span(
                        Phase::AioBatch,
                        Attrs {
                            tier: shared.trace_tier,
                            bytes: batch as u64,
                            ..Attrs::NONE
                        },
                        batch_start,
                        shared.trace.now_ns(),
                    );
                }
                while let Some((user_data, res)) = ring.pop_cqe() {
                    complete(
                        &shared,
                        &mut ring,
                        &mut inflight,
                        &mut free,
                        &mut live,
                        &mut direct,
                        user_data,
                        res,
                    );
                }
            }
            Err(_) => {
                // The ring itself broke. Re-drive every in-flight op
                // portably (waiters must not starve), then go ring-dead
                // for the engine's remaining lifetime. The ring object
                // stays alive until this function returns, so any
                // straggling kernel completion still lands in memory we
                // own.
                for slot in 0..inflight.len() {
                    if let Some(mut f) = inflight[slot].take() {
                        // A zero-copy SQE may still be read by a
                        // straggling kernel op: re-drive a clone and
                        // leave the original parked in the ring, which
                        // owns it through its teardown.
                        if matches!(f.payload, Payload::WriteExtern) {
                            let data = ring
                                .owned_bytes(slot)
                                .map(<[u8]>::to_vec)
                                // lint:allow(hot-path-panic): parked by this slot's stage
                                .expect("parked zero-copy payload");
                            f.payload = Payload::Write(data);
                        }
                        if matches!(f.payload, Payload::ReadExtern) {
                            f.payload = Payload::Read;
                        }
                        fall_back(&shared, f);
                    }
                }
                while let Ok(op) = rx.recv() {
                    shared.run_op(op);
                }
                return;
            }
        }
    }
}

/// Routes one op: stage an SQE when the raw path applies, otherwise run
/// it inline through the portable path.
#[allow(clippy::too_many_arguments)]
fn admit(
    shared: &EngineShared,
    ring: &mut Ring,
    inflight: &mut [Option<InFlight>],
    free: &mut Vec<usize>,
    live: &mut usize,
    direct: &mut Direct,
    op: Op,
) {
    let eligible = !matches!(op.kind, OpKind::Delete);
    let target = eligible
        .then(|| shared.backend.raw_target(&op.key))
        .flatten();
    let Some(target) = target else {
        // Not raw-capable (decorator, in-memory backend, delete): the
        // portable path is this op's *normal* path, not a fallback.
        return shared.run_op(op);
    };
    let Some(slot) = free.pop() else {
        // Defensive: the driver only admits while slots are free.
        shared.stats.fallback_ops.inc();
        return shared.run_op(op);
    };
    let t0 = Instant::now();
    let span_start = shared.trace.now_ns();
    let Op { key, kind, state } = op;
    let payload = match kind {
        OpKind::Read => Payload::Read,
        OpKind::ReadPooled(buf, len) => Payload::ReadPooled(buf, len),
        OpKind::Write(data) => Payload::Write(data),
        OpKind::WritePooled(buf, len) => Payload::WritePooled(buf, len),
        OpKind::Delete => {
            // Unreachable via `eligible`, but degrade rather than panic.
            free.push(slot);
            return shared.run_op(Op {
                key,
                kind: OpKind::Delete,
                state,
            });
        }
    };
    match stage(ring, slot, &target, direct, key, state, payload, t0, span_start) {
        Ok(f) => {
            inflight[slot] = Some(f);
            *live += 1;
        }
        Err((key, state, payload, tmp)) => {
            if let Some(tmp) = tmp {
                let _ = std::fs::remove_file(tmp);
            }
            free.push(slot);
            shared.stats.fallback_ops.inc();
            shared.run_op(Op {
                key,
                kind: payload.into_kind(),
                state,
            });
        }
    }
}

type StageAbort = (String, Arc<OpState>, Payload, Option<PathBuf>);

/// Prepares fds and bounce data and pushes the SQE for one op.
/// `Err` hands every owned piece back for the portable re-drive.
#[allow(clippy::too_many_arguments)]
fn stage(
    ring: &mut Ring,
    slot: usize,
    target: &RawFileTarget,
    direct: &mut Direct,
    key: String,
    state: Arc<OpState>,
    mut payload: Payload,
    t0: Instant,
    span_start: u64,
) -> Result<InFlight, StageAbort> {
    if payload.is_read() {
        let want_direct = target.direct_io;
        let (file, is_direct) = match open_read(&target.path, direct, want_direct) {
            Ok(v) => v,
            Err(_) => return Err((key, state, payload, None)),
        };
        let len = match file.metadata() {
            Ok(m) => m.len() as usize,
            Err(_) => return Err((key, state, payload, None)),
        };
        if len > ring.buf_capacity() {
            return Err((key, state, payload, None));
        }
        if let Payload::ReadPooled(_, window) = &payload {
            // Oversized objects surface the backend's canonical
            // InvalidInput via the portable path.
            if len > *window {
                return Err((key, state, payload, None));
            }
        }
        // Buffered plain reads land straight in their result vector (no
        // bounce copy, no padding); see the write-side twin below.
        if !is_direct && len > 0 && matches!(payload, Payload::Read) {
            if !ring.push_read_owned(file.as_raw_fd(), slot, vec![0u8; len], slot as u64) {
                let _ = ring.take_owned(slot);
                return Err((key, state, payload, None));
            }
            return Ok(InFlight {
                key,
                state,
                payload: Payload::ReadExtern,
                path: target.path.clone(),
                tmp: None,
                fsync: false,
                logical_len: len,
                sqe_len: len,
                direct: false,
                file,
                t0,
                span_start,
            });
        }
        let sqe_len = ring.padded_len(slot, len);
        if !ring.push_read(file.as_raw_fd(), slot, sqe_len as u32, slot as u64) {
            return Err((key, state, payload, None));
        }
        Ok(InFlight {
            key,
            state,
            payload,
            path: target.path.clone(),
            tmp: None,
            fsync: false,
            logical_len: len,
            sqe_len,
            direct: is_direct,
            file,
            t0,
            span_start,
        })
    } else {
        let tmp = match unique_tmp_sibling(&target.path) {
            Ok(t) => t,
            Err(_) => return Err((key, state, payload, None)),
        };
        let (file, is_direct) = match open_write(&tmp, direct, target.direct_io) {
            Ok(v) => v,
            Err(_) => return Err((key, state, payload, Some(tmp))),
        };
        // Buffered plain writes skip the bounce copy: no alignment is
        // demanded, so the SQE points straight at the payload, which the
        // ring owns until the op retires. (Pooled writes keep the bounce
        // copy — their buffer must return to its pool on completion, not
        // sit parked in the ring; the cap check stays uniform so which
        // sizes take the raw path never depends on the I/O mode.)
        if let Payload::Write(data) = payload {
            if !is_direct && !data.is_empty() && data.len() <= ring.buf_capacity() {
                let len = data.len();
                if !ring.push_write_owned(file.as_raw_fd(), slot, data, slot as u64) {
                    // lint:allow(hot-path-panic): parked by the failed push above
                    let data = ring.take_owned(slot).expect("parked zero-copy payload");
                    return Err((key, state, Payload::Write(data), Some(tmp)));
                }
                return Ok(InFlight {
                    key,
                    state,
                    payload: Payload::WriteExtern,
                    path: target.path.clone(),
                    tmp: Some(tmp),
                    fsync: target.fsync,
                    logical_len: len,
                    sqe_len: len,
                    direct: false,
                    file,
                    t0,
                    span_start,
                });
            }
            payload = Payload::Write(data);
        }
        let logical_len;
        let sqe_len;
        {
            let Some(data) = payload_bytes(&payload) else {
                return Err((key, state, payload, Some(tmp)));
            };
            if data.len() > ring.buf_capacity() {
                return Err((key, state, payload, Some(tmp)));
            }
            logical_len = data.len();
            sqe_len = ring.copy_into_slot(slot, data);
        }
        if !ring.push_write(file.as_raw_fd(), slot, sqe_len as u32, slot as u64) {
            return Err((key, state, payload, Some(tmp)));
        }
        Ok(InFlight {
            key,
            state,
            payload,
            path: target.path.clone(),
            tmp: Some(tmp),
            fsync: target.fsync,
            logical_len,
            sqe_len,
            direct: is_direct,
            file,
            t0,
            span_start,
        })
    }
}

/// The bytes a write payload stages (`None` for read payloads).
fn payload_bytes(payload: &Payload) -> Option<&[u8]> {
    match payload {
        Payload::Write(data) => Some(data),
        Payload::WritePooled(buf, len) => Some(&buf.buffer().as_bytes()[..*len]),
        // A parked zero-copy payload's bytes live in the ring.
        Payload::Read | Payload::ReadPooled(..) | Payload::WriteExtern | Payload::ReadExtern => {
            None
        }
    }
}

fn open_read(path: &Path, direct: &mut Direct, want_direct: bool) -> io::Result<(File, bool)> {
    if want_direct && *direct != Direct::Off {
        match OpenOptions::new()
            .read(true)
            .custom_flags(O_DIRECT)
            .open(path)
        {
            Ok(file) => {
                *direct = Direct::On;
                return Ok((file, true));
            }
            // Filesystem refuses O_DIRECT (tmpfs, some network FS):
            // sticky off, retry buffered below.
            Err(_) => *direct = Direct::Off,
        }
    }
    OpenOptions::new().read(true).open(path).map(|f| (f, false))
}

fn open_write(tmp: &Path, direct: &mut Direct, want_direct: bool) -> io::Result<(File, bool)> {
    if want_direct && *direct != Direct::Off {
        match OpenOptions::new()
            .write(true)
            .create_new(true)
            .custom_flags(O_DIRECT)
            .open(tmp)
        {
            Ok(file) => {
                *direct = Direct::On;
                return Ok((file, true));
            }
            Err(_) => *direct = Direct::Off,
        }
    }
    OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(tmp)
        .map(|f| (f, false))
}

/// Handles one CQE: publish on success, degrade on any error or short
/// transfer.
#[allow(clippy::too_many_arguments)]
fn complete(
    shared: &EngineShared,
    ring: &mut Ring,
    inflight: &mut [Option<InFlight>],
    free: &mut Vec<usize>,
    live: &mut usize,
    direct: &mut Direct,
    user_data: u64,
    res: i32,
) {
    let slot = user_data as usize;
    if slot >= inflight.len() {
        return; // defensive: not a slot we issued
    }
    let Some(mut f) = inflight[slot].take() else {
        return;
    };
    *live -= 1;
    free.push(slot);
    // Zero-copy writes park their bytes in the ring; this CQE means the
    // kernel is done with them, so reclaim now — the memory retires with
    // the op and an error re-drive has its payload back.
    if matches!(f.payload, Payload::WriteExtern) {
        // lint:allow(hot-path-panic): parked by this same slot's stage
        f.payload = Payload::Write(ring.take_owned(slot).expect("parked zero-copy payload"));
    }
    let expected = if f.payload.is_read() {
        f.logical_len
    } else {
        f.sqe_len
    };
    if res < 0 || res as usize != expected {
        // An O_DIRECT EINVAL means this filesystem takes the flag at
        // open but rejects the I/O: stop trying it.
        if res == -EINVAL && f.direct {
            *direct = Direct::Off;
        }
        // A failed zero-copy read re-drives without its destination
        // (the portable re-read allocates afresh); drop the parked one.
        if matches!(f.payload, Payload::ReadExtern) {
            let _ = ring.take_owned(slot);
            f.payload = Payload::Read;
        }
        return fall_back(shared, f);
    }
    let InFlight {
        key,
        state,
        payload,
        path,
        tmp,
        fsync,
        logical_len,
        sqe_len,
        file,
        t0,
        span_start,
        ..
    } = f;
    match payload {
        Payload::Read => {
            let data = ring.slot_bytes(slot, logical_len).to_vec();
            shared.stats.record_read(&state, logical_len);
            shared.finish_op(
                Phase::AioRead,
                t0,
                span_start,
                0,
                &state,
                Ok(OpOutput::Bytes(data)),
                true,
            );
        }
        Payload::ReadExtern => {
            // The kernel filled the parked vector directly; hand it to
            // the waiter with no copy at all.
            // lint:allow(hot-path-panic): parked by this same slot's stage
            let data = ring.take_owned(slot).expect("parked zero-copy destination");
            shared.stats.record_read(&state, logical_len);
            shared.finish_op(
                Phase::AioRead,
                t0,
                span_start,
                0,
                &state,
                Ok(OpOutput::Bytes(data)),
                true,
            );
        }
        Payload::ReadPooled(mut buf, _window) => {
            buf.buffer_mut().as_bytes_mut()[..logical_len]
                .copy_from_slice(ring.slot_bytes(slot, logical_len));
            shared.stats.record_read(&state, logical_len);
            shared.finish_op(
                Phase::AioRead,
                t0,
                span_start,
                0,
                &state,
                Ok(OpOutput::Pooled(buf, logical_len)),
                true,
            );
        }
        // WriteExtern cannot appear here (reclaimed above), but it
        // belongs to the write family for exhaustiveness.
        payload @ (Payload::Write(_) | Payload::WritePooled(..) | Payload::WriteExtern) => {
            match promote(&file, tmp.as_deref(), &path, fsync, logical_len, sqe_len) {
                Ok(()) => {
                    drop(payload); // pooled staging buffer back to its pool
                    shared.stats.record_write(&state, logical_len);
                    shared.finish_op(
                        Phase::AioWrite,
                        t0,
                        span_start,
                        0,
                        &state,
                        Ok(OpOutput::None),
                        true,
                    );
                }
                Err(_) => {
                    if let Some(tmp) = &tmp {
                        let _ = std::fs::remove_file(tmp);
                    }
                    shared.stats.fallback_ops.inc();
                    shared.run_op(Op {
                        key,
                        kind: payload.into_kind(),
                        state,
                    });
                }
            }
        }
    }
}

/// Truncates the padded tail, persists if required, and promotes the
/// temporary to the final path — the tail of the raw write protocol.
fn promote(
    file: &File,
    tmp: Option<&Path>,
    path: &Path,
    fsync: bool,
    logical_len: usize,
    sqe_len: usize,
) -> io::Result<()> {
    // Zero-copy writes are unpadded (`sqe_len == logical_len`): the file
    // is already exactly the right size, so skip the no-op truncate.
    if sqe_len != logical_len {
        file.set_len(logical_len as u64)?;
    }
    if fsync {
        file.sync_all()?;
    }
    match tmp {
        Some(tmp) => std::fs::rename(tmp, path),
        None => Ok(()),
    }
}

/// Re-drives a raw-path casualty through the portable backend path
/// (which owns retry), cleaning up any write temporary first.
fn fall_back(shared: &EngineShared, f: InFlight) {
    if let Some(tmp) = &f.tmp {
        let _ = std::fs::remove_file(tmp);
    }
    shared.stats.fallback_ops.inc();
    let InFlight {
        key,
        state,
        payload,
        ..
    } = f;
    shared.run_op(Op {
        key,
        kind: payload.into_kind(),
        state,
    });
}
