//! The raw-kernel shim for the io_uring engine: the ring and its
//! mappings, confined behind safe wrappers. Compiled only where the
//! `uring` engine is (feature `uring`, Linux x86_64/aarch64, non-loom),
//! so a default build of this crate contains no `unsafe`.
//!
//! This module is the *only* sanctioned unsafe surface outside
//! `mlp-tensor` (the workspace `unsafe-confinement` lint pins it by
//! path). Everything above it — the engine driver in [`super::uring`] —
//! is safe code operating on [`Ring`]: an io_uring instance sized to the
//! engine queue depth that **owns its bounce buffers** ([`AlignedBuf`],
//! 4096-aligned for `O_DIRECT`). Callers name buffers by slot index and
//! never see a pointer, so buffer lifetime is tied to the ring by
//! construction: the driver keeps the `Ring` alive until every in-flight
//! slot has completed, and the kernel only ever DMAs into memory the
//! ring still owns.
//!
//! No libc crate: `mmap`/`munmap` come from the C library `std` already
//! links, and the io_uring syscalls (425/426/427 on both x86_64 and
//! aarch64) go through the variadic `syscall(2)` wrapper.

#![allow(unsafe_code)]

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::os::raw::{c_int, c_long, c_void};

// The kernel shares the ring head/tail words with this process through
// the mmap'd ring pages; they are plain hardware atomics with no modelled
// thread on the other side, so the mlp-sync facade (whose loom build
// cannot instrument a kernel) is deliberately bypassed here.
// lint:allow(facade-only): kernel-shared ring words, not modelled threads
use std::sync::atomic::{AtomicU32, Ordering};

use mlp_tensor::{AlignedBuf, DIRECT_IO_ALIGN};

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: c_int,
        flags: c_int,
        fd: c_int,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> c_int;
    fn syscall(num: c_long, ...) -> c_long;
}

const PROT_READ: c_int = 0x1;
const PROT_WRITE: c_int = 0x2;
const MAP_SHARED: c_int = 0x01;

/// `mmap(2)`'s error return.
fn map_failed(p: *mut c_void) -> bool {
    p as isize == -1
}

/// An owned `mmap(2)` mapping, unmapped on drop.
struct Region {
    ptr: *mut u8,
    len: usize,
}

impl Region {
    fn map(prot: c_int, flags: c_int, fd: c_int, len: usize, offset: i64) -> io::Result<Region> {
        // SAFETY: requesting a fresh kernel-chosen mapping (addr null) of
        // a length we pass on to munmap verbatim; no existing Rust object
        // is aliased by a new mapping.
        let ptr = unsafe { mmap(std::ptr::null_mut(), len, prot, flags, fd, offset) };
        if map_failed(ptr) {
            return Err(io::Error::last_os_error());
        }
        Ok(Region {
            ptr: ptr as *mut u8,
            len,
        })
    }
}

impl Drop for Region {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` came from a successful mmap of exactly this
        // extent and are unmapped exactly once (Drop).
        let _ = unsafe { munmap(self.ptr as *mut c_void, self.len) };
    }
}

// Same numbers on x86_64 and aarch64 (the asm-generic table).
const SYS_IO_URING_SETUP: c_long = 425;
const SYS_IO_URING_ENTER: c_long = 426;
const SYS_IO_URING_REGISTER: c_long = 427;

const IORING_OFF_SQ_RING: i64 = 0;
const IORING_OFF_CQ_RING: i64 = 0x8000000;
const IORING_OFF_SQES: i64 = 0x10000000;

const IORING_ENTER_GETEVENTS: c_long = 1;
const IORING_REGISTER_BUFFERS: c_long = 0;
const IORING_FEAT_SINGLE_MMAP: u32 = 1;

const IORING_OP_READ_FIXED: u8 = 4;
const IORING_OP_WRITE_FIXED: u8 = 5;
const IORING_OP_READ: u8 = 22;
const IORING_OP_WRITE: u8 = 23;

/// `struct io_sqring_offsets` (uapi, 40 bytes).
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct SqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    flags: u32,
    dropped: u32,
    array: u32,
    resv1: u32,
    user_addr: u64,
}

/// `struct io_cqring_offsets` (uapi, 40 bytes).
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct CqringOffsets {
    head: u32,
    tail: u32,
    ring_mask: u32,
    ring_entries: u32,
    overflow: u32,
    cqes: u32,
    flags: u32,
    resv1: u32,
    user_addr: u64,
}

/// `struct io_uring_params` (uapi, 120 bytes).
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Params {
    sq_entries: u32,
    cq_entries: u32,
    flags: u32,
    sq_thread_cpu: u32,
    sq_thread_idle: u32,
    features: u32,
    wq_fd: u32,
    resv: [u32; 3],
    sq_off: SqringOffsets,
    cq_off: CqringOffsets,
}

/// `struct io_uring_sqe` (uapi, 64 bytes; the non-union layout this
/// module uses: single buffer, absolute offset 0, no links).
#[repr(C)]
#[derive(Clone, Copy)]
struct Sqe {
    opcode: u8,
    flags: u8,
    ioprio: u16,
    fd: i32,
    off: u64,
    addr: u64,
    len: u32,
    rw_flags: u32,
    user_data: u64,
    buf_index: u16,
    personality: u16,
    splice_fd_in: i32,
    addr3: u64,
    _pad2: u64,
}

/// `struct io_uring_cqe` (uapi, 16 bytes).
#[repr(C)]
#[derive(Clone, Copy)]
struct Cqe {
    user_data: u64,
    res: i32,
    flags: u32,
}

/// `struct iovec`, for `IORING_REGISTER_BUFFERS`.
#[repr(C)]
struct Iovec {
    base: *mut c_void,
    len: usize,
}

/// An io_uring instance that owns its rings and its aligned bounce
/// buffers (one per submission-queue entry).
///
/// The safe API names buffers by *slot index*; no pointers escape.
/// Soundness rests on one protocol invariant the single driver
/// thread maintains: a slot pushed via [`Ring::push_read`] /
/// [`Ring::push_write`] is not touched again (no `copy_into_slot`,
/// no `slot_bytes`) until its completion has been popped via
/// [`Ring::pop_cqe`] — and the `Ring` outlives all in-flight slots,
/// which its ownership of both the fd and the buffers guarantees.
pub(crate) struct Ring {
    fd: OwnedFd,
    // Regions hold the mappings alive; the raw pointers below point
    // into them. Declared before `bufs` so teardown order is:
    // fd close (kernel quiesces the ring) → unmap → free buffers.
    _sq_region: Region,
    _cq_region: Option<Region>,
    _sqes_region: Region,
    sq_head: *const AtomicU32,
    sq_tail: *const AtomicU32,
    sq_mask: u32,
    sq_entries: u32,
    sqes: *mut Sqe,
    cq_head: *const AtomicU32,
    cq_tail: *const AtomicU32,
    cq_mask: u32,
    cqes: *const Cqe,
    /// Our private copy of the SQ tail (single submitter).
    tail_local: u32,
    /// SQEs staged since the last `submit_and_wait`.
    staged: u32,
    /// Registered-buffer mode: fixed opcodes + `buf_index`.
    fixed: bool,
    bufs: Vec<AlignedBuf>,
    /// Per-slot parking for zero-copy buffered writes: the ring owns
    /// the payload while its SQE is kernel-visible, so the bytes
    /// outlive the op no matter how the driver unwinds (they are
    /// freed only on reclaim or after ring teardown).
    owned: Vec<Option<Vec<u8>>>,
}

impl Ring {
    /// Creates a ring with at least `entries` SQEs (the kernel
    /// rounds up to a power of two) and one `bounce_bytes` buffer
    /// per slot. `register` additionally pre-registers the buffers
    /// (`IORING_REGISTER_BUFFERS`); registration failure is not an
    /// error — the ring falls back to unregistered opcodes.
    pub(crate) fn new(entries: u32, bounce_bytes: usize, register: bool) -> io::Result<Ring> {
        let mut p = Params::default();
        // SAFETY: io_uring_setup reads `entries` and reads/writes
        // the 120-byte params struct we own; layout matches the
        // uapi definition field for field.
        let raw = unsafe {
            syscall(
                SYS_IO_URING_SETUP,
                entries as c_long,
                &mut p as *mut Params as c_long,
            )
        };
        if raw < 0 {
            return Err(io::Error::last_os_error());
        }
        // SAFETY: `raw` is a fresh fd we exclusively own.
        let fd = unsafe { OwnedFd::from_raw_fd(raw as RawFd) };
        let rfd = fd.as_raw_fd();

        let sq_len = p.sq_off.array as usize + p.sq_entries as usize * 4;
        let cq_len = p.cq_off.cqes as usize + p.cq_entries as usize * std::mem::size_of::<Cqe>();
        let single = p.features & IORING_FEAT_SINGLE_MMAP != 0;
        let sq_region = Region::map(
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            rfd,
            if single { sq_len.max(cq_len) } else { sq_len },
            IORING_OFF_SQ_RING,
        )?;
        let cq_region = if single {
            None
        } else {
            Some(Region::map(
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                rfd,
                cq_len,
                IORING_OFF_CQ_RING,
            )?)
        };
        let sqes_region = Region::map(
            PROT_READ | PROT_WRITE,
            MAP_SHARED,
            rfd,
            p.sq_entries as usize * std::mem::size_of::<Sqe>(),
            IORING_OFF_SQES,
        )?;

        let sq = sq_region.ptr;
        let cq = cq_region.as_ref().map(|r| r.ptr).unwrap_or(sq);
        // SAFETY: (covers all pointer arithmetic below) every offset
        // comes from the kernel's params for mappings of the lengths
        // computed above, so each derived pointer is in bounds of a
        // live mapping that the returned Ring keeps alive; the
        // head/tail words are 4-byte-aligned u32s the kernel itself
        // accesses atomically.
        let ring = unsafe {
            let sq_array = sq.add(p.sq_off.array as usize) as *mut u32;
            // Identity-map the SQ index array once: slot i of the
            // array always names SQE i.
            for i in 0..p.sq_entries {
                sq_array.add(i as usize).write(i);
            }
            Ring {
                sq_head: sq.add(p.sq_off.head as usize) as *const AtomicU32,
                sq_tail: sq.add(p.sq_off.tail as usize) as *const AtomicU32,
                sq_mask: *(sq.add(p.sq_off.ring_mask as usize) as *const u32),
                sq_entries: p.sq_entries,
                sqes: sqes_region.ptr as *mut Sqe,
                cq_head: cq.add(p.cq_off.head as usize) as *const AtomicU32,
                cq_tail: cq.add(p.cq_off.tail as usize) as *const AtomicU32,
                cq_mask: *(cq.add(p.cq_off.ring_mask as usize) as *const u32),
                cqes: cq.add(p.cq_off.cqes as usize) as *const Cqe,
                tail_local: 0,
                staged: 0,
                fixed: false,
                bufs: (0..p.sq_entries)
                    .map(|_| AlignedBuf::zeroed(bounce_bytes, DIRECT_IO_ALIGN))
                    .collect(),
                owned: (0..p.sq_entries).map(|_| None).collect(),
                fd,
                _sq_region: sq_region,
                _cq_region: cq_region,
                _sqes_region: sqes_region,
            }
        };
        let mut ring = ring;
        if register {
            ring.register_buffers();
        }
        Ok(ring)
    }

    /// Attempts `IORING_REGISTER_BUFFERS` over every bounce buffer;
    /// on success subsequent pushes use the fixed opcodes. Failure
    /// (kernel too old, `RLIMIT_MEMLOCK` too low) leaves the ring in
    /// unregistered mode.
    fn register_buffers(&mut self) {
        let iovecs: Vec<Iovec> = self
            .bufs
            .iter_mut()
            .map(|b| Iovec {
                base: b.as_bytes_mut().as_mut_ptr() as *mut c_void,
                len: b.capacity(),
            })
            .collect();
        // SAFETY: the iovec array and the buffers it points at are
        // alive for the duration of the call; the kernel pins the
        // pages, which stay valid while `bufs` is owned by the ring.
        let r = unsafe {
            syscall(
                SYS_IO_URING_REGISTER,
                self.fd.as_raw_fd() as c_long,
                IORING_REGISTER_BUFFERS,
                iovecs.as_ptr() as c_long,
                iovecs.len() as c_long,
            )
        };
        self.fixed = r == 0;
    }

    /// Actual slot count (kernel-rounded submission-queue size).
    pub(crate) fn depth(&self) -> usize {
        self.sq_entries as usize
    }

    /// Bytes each bounce buffer holds (objects larger than this
    /// must take the portable path).
    pub(crate) fn buf_capacity(&self) -> usize {
        self.bufs.first().map(|b| b.capacity()).unwrap_or(0)
    }

    /// Whether registered-buffer mode is active (diagnostic; the
    /// push paths consult the flag directly).
    #[allow(dead_code)]
    pub(crate) fn fixed(&self) -> bool {
        self.fixed
    }

    /// SQEs staged but not yet submitted to the kernel.
    pub(crate) fn staged(&self) -> u32 {
        self.staged
    }

    /// Copies `data` into slot `slot`'s bounce buffer (zero-padding
    /// the covering `DIRECT_IO_ALIGN` block) and returns the padded
    /// length to submit — the `O_DIRECT`-legal transfer size.
    ///
    /// # Panics
    ///
    /// Panics if `data` exceeds [`Ring::buf_capacity`] (callers
    /// check first and take the portable path).
    pub(crate) fn copy_into_slot(&mut self, slot: usize, data: &[u8]) -> usize {
        let buf = &mut self.bufs[slot];
        buf.fill_from(data);
        buf.padded_len(data.len())
    }

    /// The padded transfer size for reading `len` bytes into `slot`.
    pub(crate) fn padded_len(&self, slot: usize, len: usize) -> usize {
        self.bufs[slot].padded_len(len)
    }

    /// The first `len` bytes of slot `slot`'s bounce buffer (a
    /// completed read's payload).
    pub(crate) fn slot_bytes(&self, slot: usize, len: usize) -> &[u8] {
        &self.bufs[slot].as_bytes()[..len]
    }

    /// Stages a read of `len` bytes from offset 0 of `fd` into slot
    /// `slot`. Returns false if the submission queue is full.
    pub(crate) fn push_read(&mut self, fd: RawFd, slot: usize, len: u32, user_data: u64) -> bool {
        let opcode = if self.fixed { IORING_OP_READ_FIXED } else { IORING_OP_READ };
        self.push(opcode, fd, slot, len, user_data)
    }

    /// Stages a write of the first `len` bytes of slot `slot` to
    /// offset 0 of `fd`. Returns false if the queue is full.
    pub(crate) fn push_write(&mut self, fd: RawFd, slot: usize, len: u32, user_data: u64) -> bool {
        let opcode = if self.fixed { IORING_OP_WRITE_FIXED } else { IORING_OP_WRITE };
        self.push(opcode, fd, slot, len, user_data)
    }

    /// Stages a zero-copy buffered write of all of `data` to offset 0
    /// of `fd`: the ring takes ownership of the bytes (parked in slot
    /// `slot`, reclaimed with [`Ring::take_owned`]) and the SQE
    /// points straight at them — no bounce copy, no alignment
    /// padding. Always the non-fixed opcode: this memory is not a
    /// registered buffer. Returns false (with `data` still parked)
    /// if the queue is full.
    pub(crate) fn push_write_owned(
        &mut self,
        fd: RawFd,
        slot: usize,
        data: Vec<u8>,
        user_data: u64,
    ) -> bool {
        let len = data.len() as u32;
        self.owned[slot] = Some(data);
        let addr = self.owned[slot]
            .as_deref()
            .map(|d| d.as_ptr() as u64)
            .unwrap_or(0);
        self.push_at(IORING_OP_WRITE, fd, addr, slot, len, user_data)
    }

    /// Stages a zero-copy buffered read of `len` bytes from offset 0
    /// of `fd` straight into `dst` (which must be `len` bytes long):
    /// the ring owns the destination until the op retires, and the
    /// caller reclaims the filled vector with [`Ring::take_owned`]
    /// after the CQE. Same parking contract as
    /// [`Ring::push_write_owned`].
    pub(crate) fn push_read_owned(
        &mut self,
        fd: RawFd,
        slot: usize,
        dst: Vec<u8>,
        user_data: u64,
    ) -> bool {
        let len = dst.len() as u32;
        self.owned[slot] = Some(dst);
        let addr = self.owned[slot]
            .as_deref_mut()
            .map(|d| d.as_mut_ptr() as u64)
            .unwrap_or(0);
        self.push_at(IORING_OP_READ, fd, addr, slot, len, user_data)
    }

    /// Reclaims the payload parked by [`Ring::push_write_owned`] /
    /// [`Ring::push_read_owned`]. Callers may only take it once the
    /// kernel is done with the SQE (its CQE was reaped, or the push
    /// that parked it failed).
    pub(crate) fn take_owned(&mut self, slot: usize) -> Option<Vec<u8>> {
        self.owned[slot].take()
    }

    /// Read-only view of a parked zero-copy payload. The broken-ring
    /// unwind re-drives a *clone* and leaves the original parked, so
    /// a straggling kernel op still reads memory the ring owns.
    pub(crate) fn owned_bytes(&self, slot: usize) -> Option<&[u8]> {
        self.owned[slot].as_deref()
    }

    fn push(&mut self, opcode: u8, fd: RawFd, slot: usize, len: u32, user_data: u64) -> bool {
        let addr = self.bufs[slot].as_bytes().as_ptr() as u64;
        self.push_at(opcode, fd, addr, slot, len, user_data)
    }

    fn push_at(
        &mut self,
        opcode: u8,
        fd: RawFd,
        addr: u64,
        slot: usize,
        len: u32,
        user_data: u64,
    ) -> bool {
        debug_assert!(slot < self.bufs.len(), "slot out of range");
        // SAFETY: sq_head points at the kernel-shared head word for
        // the lifetime of the ring.
        let head = unsafe { (*self.sq_head).load(Ordering::Acquire) };
        if self.tail_local.wrapping_sub(head) >= self.sq_entries {
            return false;
        }
        let idx = (self.tail_local & self.sq_mask) as usize;
        let sqe = Sqe {
            opcode,
            flags: 0,
            ioprio: 0,
            fd,
            off: 0,
            addr,
            len,
            rw_flags: 0,
            user_data,
            buf_index: slot as u16,
            personality: 0,
            splice_fd_in: 0,
            addr3: 0,
            _pad2: 0,
        };
        // SAFETY: `idx < sq_entries`, so the write lands inside the
        // SQE mapping; the slot is free because the kernel has
        // consumed everything below `head` and we never stage more
        // than `sq_entries` ahead of it (checked above).
        unsafe { self.sqes.add(idx).write(sqe) };
        self.tail_local = self.tail_local.wrapping_add(1);
        // SAFETY: sq_tail is the kernel-shared tail word. Release
        // publishes the SQE contents to the kernel's next Acquire.
        unsafe { (*self.sq_tail).store(self.tail_local, Ordering::Release) };
        self.staged += 1;
        true
    }

    /// Submits every staged SQE and blocks until at least
    /// `min_complete` completions are available (pass 0 to submit
    /// without waiting). Retries on `EINTR`.
    pub(crate) fn submit_and_wait(&mut self, min_complete: u32) -> io::Result<u32> {
        let to_submit = self.staged;
        self.staged = 0;
        loop {
            // SAFETY: plain syscall over an fd we own; no pointers
            // are passed (sigset null).
            let r = unsafe {
                syscall(
                    SYS_IO_URING_ENTER,
                    self.fd.as_raw_fd() as c_long,
                    to_submit as c_long,
                    min_complete as c_long,
                    IORING_ENTER_GETEVENTS,
                    0 as c_long,
                    0 as c_long,
                )
            };
            if r < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    // The kernel consumed any submittable SQEs before
                    // the interrupted wait; re-entering with the same
                    // count submits at most what is actually pending.
                    continue;
                }
                return Err(e);
            }
            return Ok(r as u32);
        }
    }

    /// Pops one completion: `(user_data, res)`. `res` is the byte
    /// count on success or `-errno` on failure, exactly as the
    /// kernel reports it.
    pub(crate) fn pop_cqe(&mut self) -> Option<(u64, i32)> {
        // SAFETY: cq head/tail point at the kernel-shared words for
        // the lifetime of the ring; Acquire on tail pairs with the
        // kernel's Release publish of the CQE contents.
        let head = unsafe { (*self.cq_head).load(Ordering::Acquire) };
        // SAFETY: as above.
        let tail = unsafe { (*self.cq_tail).load(Ordering::Acquire) };
        if head == tail {
            return None;
        }
        let idx = (head & self.cq_mask) as usize;
        // SAFETY: `idx < cq_entries` keeps the read inside the CQE
        // array; the entry is published (head != tail).
        let cqe = unsafe { self.cqes.add(idx).read() };
        // SAFETY: cq_head is the kernel-shared head word; Release
        // hands the consumed slot back to the kernel.
        unsafe { (*self.cq_head).store(head.wrapping_add(1), Ordering::Release) };
        Some((cqe.user_data, cqe.res))
    }
}

/// Whether this kernel accepts io_uring at all: a 2-entry probe ring
/// that is immediately torn down. Containers commonly deny syscall
/// 425 via seccomp even on new kernels, so this is a runtime check,
/// not a version check. Returns the failure itself (not a bool) so
/// availability reporting can distinguish "this kernel/policy denies
/// io_uring" (a skip) from an unexpected setup failure (a bug worth
/// failing CI over).
pub(crate) fn uring_probe_result() -> io::Result<()> {
    Ring::new(2, DIRECT_IO_ALIGN, false).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uapi_struct_sizes_match_the_kernel_abi() {
        assert_eq!(std::mem::size_of::<Params>(), 120);
        assert_eq!(std::mem::size_of::<Sqe>(), 64);
        assert_eq!(std::mem::size_of::<Cqe>(), 16);
        assert_eq!(std::mem::size_of::<SqringOffsets>(), 40);
        assert_eq!(std::mem::size_of::<CqringOffsets>(), 40);
    }

    #[test]
    fn ring_round_trips_a_read_and_a_write_when_available() {
        if uring_probe_result().is_err() {
            eprintln!("engine-matrix: SKIP uring ring test (no io_uring)");
            return;
        }
        let mut ring = Ring::new(4, DIRECT_IO_ALIGN, true).unwrap();
        assert!(ring.depth() >= 4);

        let dir = std::env::temp_dir().join(format!("mlp-aio-ring-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obj");
        let payload = vec![0x5Au8; 1000];

        // Write: stage the payload in slot 0, submit, truncate.
        let padded = ring.copy_into_slot(0, &payload);
        let out = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        assert!(ring.push_write(out.as_raw_fd(), 0, padded as u32, 7));
        ring.submit_and_wait(1).unwrap();
        let (ud, res) = ring.pop_cqe().unwrap();
        assert_eq!(ud, 7);
        assert_eq!(res as usize, padded, "write res {res}");
        out.set_len(payload.len() as u64).unwrap();
        drop(out);

        // Read it back through slot 1.
        let input = std::fs::File::open(&path).unwrap();
        let want = ring.padded_len(1, payload.len());
        assert!(ring.push_read(input.as_raw_fd(), 1, want as u32, 9));
        ring.submit_and_wait(1).unwrap();
        let (ud, res) = ring.pop_cqe().unwrap();
        assert_eq!(ud, 9);
        assert_eq!(res as usize, payload.len(), "read res {res}");
        assert_eq!(ring.slot_bytes(1, payload.len()), &payload[..]);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
