//! Real byte-moving storage backends for the functional engines.
//!
//! The functional path moves actual optimizer state through these
//! backends, validating the engines' data handling end to end. Two
//! implementations:
//!
//! * [`MemBackend`] — an in-memory key/value disk with optional bandwidth
//!   throttling (sleeps proportional to bytes), used in tests to create
//!   realistic fast/slow tier asymmetries without touching the filesystem.
//! * [`DirBackend`] — one file per key under a root directory; what a real
//!   deployment would point at `/local/nvme` and `/lustre/project`.
//!
//! # Whole-frame writes
//!
//! A flush hands the tier a whole staging frame through
//! [`Backend::write_frame`], and what that costs depends on the medium.
//! A memory-class tier ([`MemBackend`], standing in for byte-addressable
//! media such as the CXL pool `repro cxl` models) keeps its objects in
//! the same [`HostBuffer`] frames the staging pool recycles, so it
//! *exchanges*: the frame becomes the object and the object it displaces
//! becomes the frame — no byte is copied. A key it holds no object for
//! trades with a spare frame a delete left instead. Every
//! backend that must read each byte anyway keeps the default, which is
//! [`Backend::write`] of the frame's bytes: [`DirBackend`] hands them to
//! the kernel, [`crate::ChecksummedBackend`] sums them and stores them
//! behind a header. The decorators that do not rewrite the payload
//! ([`crate::TracedBackend`], [`crate::FaultInjectBackend`]) forward the
//! frame with their bookkeeping unchanged, so the medium underneath
//! decides. The tier breaker is not a decorator: the tier's I/O engine
//! consults it around each attempt. [`Backend::link`] is decided the same
//! way, by the medium under the decorators.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlp_sync::Mutex;
use mlp_tensor::HostBuffer;

/// A blocking key/value storage target. Object keys are engine-chosen
/// strings (e.g. `"rank0/subgroup17"`).
pub trait Backend: Send + Sync + 'static {
    /// Stores `data` under `key`, replacing any previous value.
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()>;
    /// Stores the whole of `frame` under `key`, replacing any previous
    /// value — the flush path of a staging buffer whose every byte is
    /// payload.
    ///
    /// On `Ok` the object is stored and `frame` holds unspecified bytes
    /// of the same length: a backend may keep the frame's allocation as
    /// the object and hand back the one it displaced (see the module
    /// docs). On `Err` `frame` is untouched, so a failed flush still
    /// owns the only copy of its payload.
    ///
    /// The default is [`Backend::write`] of the frame's bytes, which is
    /// right for every backend that has to read them all.
    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        self.write(key, frame.as_bytes())
    }
    /// Retrieves the value stored under `key`.
    fn read(&self, key: &str) -> io::Result<Vec<u8>>;
    /// Reads the object stored under `key` into the front of `dst`,
    /// returning the number of bytes read — the allocation-free fetch
    /// path: the caller recycles `dst` from a staging pool instead of
    /// receiving a fresh `Vec` per read.
    ///
    /// Errors with [`io::ErrorKind::InvalidInput`] if the object is
    /// larger than `dst`. The default implementation falls back to
    /// [`Backend::read`] plus a copy; backends should override it with a
    /// genuinely allocation-free read where possible.
    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        let data = self.read(key)?;
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
        // lint:allow(transitive-panic): in-bounds — the typed-error guard above rejects data.len() > dst.len()
        dst[..data.len()].copy_from_slice(&data);
        Ok(data.len())
    }
    /// Makes `to` name the bytes `from` holds now, replacing any object
    /// there; later writes to `from` never reach `to`. A missing `from` is
    /// `NotFound`, with `to` untouched. A checkpoint pins a tier-resident
    /// subgroup this way while training rewrites its live key.
    ///
    /// The default copies ([`Backend::write`] of [`Backend::read`]);
    /// [`MemBackend`] shares the object and [`DirBackend`] hard-links it.
    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        self.write(to, &self.read(from)?)
    }
    /// Removes `key` if present.
    fn delete(&self, key: &str) -> io::Result<()>;
    /// Whether `key` currently exists.
    fn contains(&self, key: &str) -> bool;
    /// A short display name for diagnostics.
    fn name(&self) -> &str;
}

/// Derives a unique tmp-file sibling of `path` (same directory, same full
/// file name plus a `.pid.counter.tmp` suffix).
///
/// `DirBackend::publish`, behind its `write` and `link`, is the one writer
/// of the torn-write-proof tmp → sync → rename protocol: the pid +
/// process-wide counter keep two concurrent writers of the same key on
/// distinct tmp files, and keeping the full file name avoids the
/// historical `with_extension` collision between dotted keys.
fn unique_tmp_sibling(path: &Path) -> io::Result<PathBuf> {
    let file_name = path
        .file_name()
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("path {path:?} has no file name"),
            )
        })?
        .to_string_lossy()
        .into_owned();
    Ok(path.with_file_name(format!(
        "{}.{}.{}.tmp",
        file_name,
        std::process::id(),
        // relaxed-ok: uniqueness comes from the atomic RMW itself;
        // no other memory is published through this counter
        TMP_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
    )))
}

// ---------------------------------------------------------------------------
// MemBackend
// ---------------------------------------------------------------------------

/// How a [`MemBackend`] has moved its payloads so far — the "touches per
/// byte through storage" of a memory-class tier, read by tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemTouches {
    /// Bytes copied into stored objects by [`Backend::write`] and by the
    /// [`Backend::write_frame`] calls that could not exchange.
    pub write_copied_bytes: u64,
    /// Bytes copied out of stored objects by [`Backend::read`] and
    /// [`Backend::read_into`].
    pub read_copied_bytes: u64,
    /// [`Backend::write_frame`] calls served by a frame exchange, with
    /// the displaced object or with a spare frame.
    pub exchanged_frames: u64,
}

/// In-memory backend with optional read/write throttling.
///
/// Objects are [`HostBuffer`]s, the staging pool's own frame type, so a
/// whole-frame write can exchange buffers with the object it displaces
/// instead of copying into it. A delete keeps the frame of an object no
/// pin or reader shares as a spare, and a write of a key with no object
/// to trade with takes a spare of its capacity before it allocates: a
/// subgroup that moves here from another tier trades frames as well.
/// Frames are matched by capacity, not length, so an object shorter than
/// its frame — one the codec stage above encoded — trades like any other
/// and keeps its allocation.
pub struct MemBackend {
    name: String,
    map: Mutex<Store>,
    read_bps: Option<f64>,
    write_bps: Option<f64>,
    write_copied_bytes: AtomicU64,
    read_copied_bytes: AtomicU64,
    exchanged_frames: AtomicU64,
}

/// A [`MemBackend`]'s objects and the spare frames its deletes left.
#[derive(Default)]
struct Store {
    objects: HashMap<String, Arc<HostBuffer>>,
    /// Frames of deleted objects, for the next write that has no object
    /// to trade with; never more of them than `objects`, so a tier that
    /// drains frees its memory.
    spares: Vec<HostBuffer>,
}

impl Store {
    /// A spare frame whose capacity `fits`, if the store keeps one, set to
    /// `len` bytes.
    fn take_spare(&mut self, len: usize, fits: impl Fn(usize) -> bool) -> Option<HostBuffer> {
        let at = self.spares.iter().rposition(|s| fits(s.capacity()))?;
        let mut spare = self.spares.swap_remove(at);
        spare.set_len(len);
        Some(spare)
    }
}

impl MemBackend {
    /// Unthrottled in-memory backend.
    pub fn new(name: impl Into<String>) -> Self {
        Self::with_throttle(name.into(), None, None)
    }

    /// Throttled backend: each read or write takes `bytes / bps`, its copy
    /// or frame exchange inside that time (the call sleeps out what the
    /// copy left of it), and never less. Use to model a slow NVMe or PFS
    /// in functional tests.
    pub fn throttled(name: impl Into<String>, read_bps: f64, write_bps: f64) -> Self {
        assert!(
            read_bps > 0.0 && write_bps > 0.0,
            "throughput must be positive"
        );
        Self::with_throttle(name.into(), Some(read_bps), Some(write_bps))
    }

    fn with_throttle(name: String, read_bps: Option<f64>, write_bps: Option<f64>) -> Self {
        MemBackend {
            name,
            map: Mutex::new(Store::default()),
            read_bps,
            write_bps,
            write_copied_bytes: AtomicU64::new(0),
            read_copied_bytes: AtomicU64::new(0),
            exchanged_frames: AtomicU64::new(0),
        }
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.map.lock().objects.len()
    }

    /// Total stored bytes.
    pub fn total_bytes(&self) -> usize {
        self.map.lock().objects.values().map(|v| v.len()).sum()
    }

    /// Copy and exchange counts so far.
    pub fn touches(&self) -> MemTouches {
        MemTouches {
            write_copied_bytes: self.write_copied_bytes.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            read_copied_bytes: self.read_copied_bytes.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
            exchanged_frames: self.exchanged_frames.load(Ordering::Relaxed), // relaxed-ok: stats snapshot
        }
    }

    /// Sleeps out what is left of `bytes / bps` since the call `started`:
    /// the copy runs inside the modelled time, not on top of it.
    fn throttle(bps: Option<f64>, bytes: usize, started: Instant) {
        if let Some(bps) = bps {
            let modelled = Duration::from_secs_f64(bytes as f64 / bps);
            let left = modelled.saturating_sub(started.elapsed());
            if !left.is_zero() {
                std::thread::sleep(left);
            }
        }
    }

    /// The stored object, shared: a reader copies out of it after the map
    /// lock is released, and holding the `Arc` (through its throttle
    /// sleep) is what keeps a concurrent write off these bytes.
    fn object(&self, key: &str) -> io::Result<Arc<HostBuffer>> {
        self.map
            .lock()
            .objects
            .get(key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("no object {key}")))
    }

    fn tally(counter: &AtomicU64, by: usize) {
        // relaxed-ok: monotonic stats counter, read only by `touches`
        counter.fetch_add(by as u64, Ordering::Relaxed);
    }
}

impl Backend for MemBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let started = Instant::now();
        let mut store = self.map.lock();
        // Overwrite in place when nothing else holds the old object and
        // its allocation holds the data: a reader inside `read`/`read_into`
        // holds a clone of the `Arc`, so it keeps the old bytes whole and
        // the key gets another object — a spare frame that holds the data
        // if a delete left one.
        match store.objects.get_mut(key).and_then(Arc::get_mut) {
            Some(old) if data.len() <= old.capacity() => {
                old.set_len(data.len());
                old.as_bytes_mut().copy_from_slice(data);
            }
            _ => {
                let object = match store.take_spare(data.len(), |cap| data.len() <= cap) {
                    Some(mut spare) => {
                        spare.as_bytes_mut().copy_from_slice(data);
                        spare
                    }
                    None => HostBuffer::from_slice(data),
                };
                store.objects.insert(key.to_string(), Arc::new(object));
            }
        }
        drop(store);
        Self::tally(&self.write_copied_bytes, data.len());
        Self::throttle(self.write_bps, data.len(), started);
        Ok(())
    }

    fn write_frame(&self, key: &str, frame: &mut HostBuffer) -> io::Result<()> {
        let (len, capacity, started) = (frame.len(), frame.capacity(), Instant::now());
        let mut store = self.map.lock();
        // Same rule as the in-place overwrite above, without the copy:
        // the frame trades allocations with the displaced object when
        // nothing else holds it and it is an allocation of the frame's
        // capacity, else with a spare of that capacity. Capacity, not
        // length: an encoded object is shorter than the frame it lives
        // in, and the frame handed back gets the length it came with.
        // Only a write with neither copies.
        match store.objects.get_mut(key).and_then(Arc::get_mut) {
            Some(old) if old.capacity() == capacity => {
                std::mem::swap(old, frame);
                frame.set_len(len);
                Self::tally(&self.exchanged_frames, 1);
            }
            _ => {
                let object = match store.take_spare(len, |cap| cap == capacity) {
                    Some(spare) => {
                        Self::tally(&self.exchanged_frames, 1);
                        std::mem::replace(frame, spare)
                    }
                    None => {
                        Self::tally(&self.write_copied_bytes, frame.len());
                        frame.clone()
                    }
                };
                store.objects.insert(key.to_string(), Arc::new(object));
            }
        }
        drop(store);
        Self::throttle(self.write_bps, len, started);
        Ok(())
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        let started = Instant::now();
        let data = self.object(key)?;
        let bytes = data.as_bytes().to_vec();
        Self::tally(&self.read_copied_bytes, data.len());
        Self::throttle(self.read_bps, data.len(), started);
        Ok(bytes)
    }

    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        // One copy straight from the shared stored value into the
        // caller's buffer — `read` would clone the whole object a second
        // time only for the caller to deserialize and drop it.
        let started = Instant::now();
        let data = self.object(key)?;
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
        // lint:allow(transitive-panic): in-bounds — the typed-error guard above rejects data.len() > dst.len()
        dst[..data.len()].copy_from_slice(data.as_bytes());
        Self::tally(&self.read_copied_bytes, data.len());
        Self::throttle(self.read_bps, data.len(), started);
        Ok(data.len())
    }

    /// Shares the object: no byte moves, and while the pin holds it both
    /// overwrite paths above see a second holder and insert afresh.
    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        let object = self.object(from)?;
        self.map.lock().objects.insert(to.to_string(), object);
        Ok(())
    }

    /// Keeps the removed object's frame as a spare unless a pin or a
    /// reader shares it (they keep the bytes), or the store already has
    /// a spare for every object left.
    fn delete(&self, key: &str) -> io::Result<()> {
        let mut store = self.map.lock();
        let Store { objects, spares } = &mut *store;
        if let Some(frame) = objects.remove(key).and_then(|o| Arc::try_unwrap(o).ok()) {
            if spares.len() < objects.len() {
                spares.push(frame);
            }
        }
        spares.truncate(objects.len());
        Ok(())
    }

    fn contains(&self, key: &str) -> bool {
        self.map.lock().objects.contains_key(key)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

// ---------------------------------------------------------------------------
// DirBackend
// ---------------------------------------------------------------------------

/// Filesystem-directory backend: each key becomes one file under the root
/// (path separators in keys map to subdirectories).
pub struct DirBackend {
    name: String,
    root: PathBuf,
    fsync: bool,
}

impl DirBackend {
    /// Creates the backend, creating `root` if needed.
    pub fn new(name: impl Into<String>, root: impl AsRef<Path>) -> io::Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)?;
        Ok(DirBackend {
            name: name.into(),
            root,
            fsync: false,
        })
    }

    /// Makes every write, link and delete durable before it returns: the file
    /// is synced before the rename and the parent directory after it, and
    /// after an unlink (a rename, an unlink, or a directory the write had
    /// to create, is only an un-synced directory entry until then).
    /// Required when the directory is a checkpoint target that must
    /// survive power loss, optional for offload staging (a crash loses
    /// the training run anyway).
    pub fn with_fsync(mut self, fsync: bool) -> Self {
        self.fsync = fsync;
        self
    }

    /// The root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path_for(&self, key: &str) -> io::Result<PathBuf> {
        // Reject path escapes; keys are engine-generated, so this is a
        // defensive check, not a sanitization layer.
        if key.split('/').any(|c| c == ".." || c.is_empty()) || key.starts_with('/') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("invalid object key {key:?}"),
            ));
        }
        Ok(self.root.join(key))
    }

    /// Puts the file `fill` creates at a tmp sibling in place under `key`
    /// by rename, for atomic replacement: a real offloading engine must
    /// not expose torn subgroup state to a concurrent fetch (see
    /// `unique_tmp_sibling` for the tmp-naming rationale).
    fn publish(&self, key: &str, fill: impl FnOnce(&Path) -> io::Result<()>) -> io::Result<()> {
        let path = self.path_for(key)?;
        // `path_for` joins a non-empty key onto the root, so there is
        // always a parent, at or below the root.
        let parent = path.parent().unwrap_or(&self.root);
        let created_parent = self.fsync && !parent.is_dir();
        std::fs::create_dir_all(parent)?;
        let tmp = unique_tmp_sibling(&path)?;
        let result = (|| {
            fill(&tmp)?;
            std::fs::rename(&tmp, &path)?;
            if self.fsync {
                // The rename lives in the parent directory, and a parent
                // this write created lives in *its* parent, up to the root.
                for dir in parent.ancestors() {
                    std::fs::File::open(dir)?.sync_all()?;
                    if !created_parent || dir == self.root {
                        break;
                    }
                }
            }
            Ok(())
        })();
        if result.is_err() {
            // Best-effort cleanup; the target object (old version) is
            // untouched either way.
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }
}

/// Process-wide counter making concurrent tmp-file names unique.
static TMP_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl Backend for DirBackend {
    fn write(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.publish(key, |tmp| {
            let mut f = std::fs::File::create(tmp)?;
            std::io::Write::write_all(&mut f, data)?;
            if self.fsync {
                f.sync_all()?;
            }
            Ok(())
        })
    }

    /// A hard link: `to` keeps the inode `from` names now, and the next
    /// write of `from` renames a new inode into place.
    fn link(&self, from: &str, to: &str) -> io::Result<()> {
        let from = self.path_for(from)?;
        self.publish(to, |tmp| std::fs::hard_link(&from, tmp))
    }

    fn read(&self, key: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path_for(key)?)
    }

    fn read_into(&self, key: &str, dst: &mut [u8]) -> io::Result<usize> {
        use std::io::Read;
        let mut f = std::fs::File::open(self.path_for(key)?)?;
        let len = f.metadata()?.len();
        if len > dst.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "object {key} is {len} bytes but the destination holds {}",
                    dst.len()
                ),
            ));
        }
        let len = len as usize;
        // lint:allow(transitive-panic): in-bounds — the typed-error guard above rejects len > dst.len()
        f.read_exact(&mut dst[..len])?;
        Ok(len)
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        let path = self.path_for(key)?;
        match std::fs::remove_file(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Ok(()) if self.fsync => {
                // The unlink is an un-synced directory entry until then: a
                // pruned manifest or a migrated-away source copy would
                // reappear after power loss.
                std::fs::File::open(path.parent().unwrap_or(&self.root))?.sync_all()
            }
            other => other,
        }
    }

    fn contains(&self, key: &str) -> bool {
        self.path_for(key).map(|p| p.exists()).unwrap_or(false)
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_round_trip() {
        let b = MemBackend::new("mem");
        b.write("a/b", &[1, 2, 3]).unwrap();
        assert!(b.contains("a/b"));
        assert_eq!(b.read("a/b").unwrap(), vec![1, 2, 3]);
        b.delete("a/b").unwrap();
        b.delete("a/b").unwrap(); // idempotent
        assert!(!b.contains("a/b"));
        assert_eq!(b.read("a/b").unwrap_err().kind(), io::ErrorKind::NotFound);
    }

    #[test]
    fn mem_backend_read_into_fills_prefix() {
        let b = MemBackend::new("mem");
        b.write("k", &[5, 6, 7]).unwrap();
        let mut dst = [0u8; 8];
        assert_eq!(b.read_into("k", &mut dst).unwrap(), 3);
        assert_eq!(&dst[..3], &[5, 6, 7]);
        // Too-small destination is an error, missing key is NotFound.
        let mut tiny = [0u8; 2];
        assert_eq!(
            b.read_into("k", &mut tiny).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        assert_eq!(
            b.read_into("gone", &mut dst).unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
    }

    /// A backend with only the required methods, so every provided one
    /// runs the trait's default.
    struct Wrap(MemBackend);
    impl Backend for Wrap {
        fn write(&self, k: &str, d: &[u8]) -> io::Result<()> {
            self.0.write(k, d)
        }
        fn read(&self, k: &str) -> io::Result<Vec<u8>> {
            self.0.read(k)
        }
        fn delete(&self, k: &str) -> io::Result<()> {
            self.0.delete(k)
        }
        fn contains(&self, k: &str) -> bool {
            self.0.contains(k)
        }
        fn name(&self) -> &str {
            "wrap"
        }
    }

    /// The default-impl fallback (read + copy) must agree with the
    /// native overrides.
    #[test]
    fn default_read_into_matches_native() {
        let w = Wrap(MemBackend::new("mem"));
        w.write("k", &[1, 2, 3, 4]).unwrap();
        let mut a = [9u8; 6];
        let mut b = [9u8; 6];
        assert_eq!(w.read_into("k", &mut a).unwrap(), 4);
        assert_eq!(w.0.read_into("k", &mut b).unwrap(), 4);
        assert_eq!(a[..4], b[..4]);
        let mut tiny = [0u8; 1];
        assert!(w.read_into("k", &mut tiny).is_err());
    }

    #[test]
    fn mem_backend_overwrites() {
        let b = MemBackend::new("mem");
        b.write("k", &[1]).unwrap();
        b.write("k", &[2, 3]).unwrap();
        assert_eq!(b.read("k").unwrap(), vec![2, 3]);
        assert_eq!(b.object_count(), 1);
        assert_eq!(b.total_bytes(), 2);
    }

    /// A same-length overwrite reuses the stored object — unless a reader
    /// holds it: a reader inside `read`/`read_into` holds exactly the
    /// handle `object` returns, from before its copy until its throttle
    /// sleep ends, and the write must then give the key another object.
    #[test]
    fn mem_backend_overwrite_in_place_never_reaches_a_reader() {
        let (old, new) = (vec![1u8; 4096], vec![2u8; 4096]);
        let b = MemBackend::new("mem");
        b.write("k", &old).unwrap(); // first write
        let reader = b.object("k").unwrap(); // a reader, inside
        b.write("k", &new).unwrap(); // same length, reader inside
        assert_eq!(
            reader.as_bytes(),
            old,
            "the reader's object changed under it"
        );
        let stored = b.object("k").unwrap();
        assert!(!Arc::ptr_eq(&stored, &reader), "written in place");
        assert_eq!(stored.as_bytes(), new);
        drop((reader, stored));

        // Nobody inside: the stored object takes the bytes.
        let at = Arc::as_ptr(&b.object("k").unwrap());
        b.write("k", &old).unwrap(); // same length
        assert_eq!(Arc::as_ptr(&b.object("k").unwrap()), at, "not in place");
        assert_eq!(b.read("k").unwrap(), old);
        b.write("k", &new[..100]).unwrap(); // different length
        assert_eq!(b.read("k").unwrap(), &new[..100]);
        assert_eq!((b.object_count(), b.total_bytes()), (1, 100));
    }

    /// Twin of the test above for the exchange: a reader inside
    /// `read`/`read_into` holds exactly the handle `object` returns, from
    /// before its throttle sleep until after its copy, and a frame must
    /// never trade places with an object someone is reading.
    #[test]
    fn mem_backend_frame_exchange_never_reaches_a_reader() {
        let (old, new) = (vec![1u8; 4096], vec![2u8; 4096]);
        let b = MemBackend::new("mem");
        b.write("k", &old).unwrap();
        let reader = b.object("k").unwrap(); // a reader, inside
        let mut frame = HostBuffer::from_slice(&new);
        b.write_frame("k", &mut frame).unwrap();
        assert_eq!(
            reader.as_bytes(),
            old,
            "the reader's object changed under it"
        );
        assert_eq!(b.read("k").unwrap(), new);
        assert_eq!(
            b.touches().exchanged_frames,
            0,
            "copied into a fresh object"
        );
        assert_eq!(frame.len(), new.len());
        drop(reader);

        // Nobody inside: the frame becomes the object, the displaced
        // object becomes the frame, and no byte is copied.
        let copied = b.touches().write_copied_bytes;
        let mut frame = HostBuffer::from_slice(&old);
        b.write_frame("k", &mut frame).unwrap();
        assert_eq!(b.read("k").unwrap(), old);
        assert_eq!(frame.len(), old.len());
        let touches = b.touches();
        assert_eq!(
            (touches.exchanged_frames, touches.write_copied_bytes),
            (1, copied)
        );
    }

    /// A frame only trades places with an object of its own length;
    /// otherwise — and for a key the tier has never seen, with no spare
    /// frame to take — it is copied into a fresh object, and the
    /// accounting stays exact either way.
    #[test]
    fn mem_backend_frame_of_another_length_or_a_new_key_inserts() {
        let b = MemBackend::new("mem");
        let mut frame = HostBuffer::from_slice(&[7u8; 96]);
        b.write_frame("new", &mut frame).unwrap();
        assert_eq!(
            frame.as_bytes(),
            &[7u8; 96],
            "a copy leaves the frame alone"
        );
        assert_eq!((b.object_count(), b.total_bytes()), (1, 96));

        b.write("k", &[1u8; 64]).unwrap();
        b.write_frame("k", &mut frame).unwrap(); // 96 over 64
        assert_eq!(b.read("k").unwrap(), vec![7u8; 96]);
        assert_eq!((b.object_count(), b.total_bytes()), (2, 192));
        assert_eq!(b.touches().exchanged_frames, 0);

        let mut next = HostBuffer::from_slice(&[8u8; 96]);
        b.write_frame("k", &mut next).unwrap(); // 96 over 96
        assert_eq!(b.read("k").unwrap(), vec![8u8; 96]);
        assert_eq!(next.as_bytes(), &[7u8; 96], "the displaced object");
        assert_eq!((b.object_count(), b.total_bytes()), (2, 192));
        assert_eq!(b.touches().exchanged_frames, 1);
    }

    /// Frames traded in while readers copy out (what the `tsan` CI job
    /// watches): every read is one writer's whole payload, never a blend.
    #[test]
    fn mem_backend_concurrent_readers_see_whole_frames() {
        let b = MemBackend::new("mem");
        b.write("k", &[0u8; 4096]).unwrap();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut dst = [0u8; 4096];
                    for _ in 0..500 {
                        assert_eq!(b.read_into("k", &mut dst).unwrap(), 4096);
                        assert!(dst.iter().all(|&x| x == dst[0]), "blended frames");
                    }
                });
            }
            s.spawn(|| {
                let mut frame = HostBuffer::zeroed(4096);
                for fill in 1..=250u8 {
                    frame.as_bytes_mut().fill(fill);
                    b.write_frame("k", &mut frame).unwrap();
                }
            });
        });
        let touches = b.touches();
        assert_eq!(
            touches.exchanged_frames * 4096 + touches.write_copied_bytes,
            251 * 4096,
            "every write either traded a frame or copied one"
        );
        assert_eq!((b.object_count(), b.total_bytes()), (1, 4096));
    }

    /// A deleted object's frame serves the next write of a key the tier
    /// holds nothing for: `write_frame` trades with it and copies nothing,
    /// `write` copies into it, and both read back what they stored.
    #[test]
    fn mem_backend_deleted_frame_serves_the_next_new_key() {
        let b = MemBackend::new("mem");
        for (k, fill) in [("a", 1u8), ("b", 2), ("c", 3)] {
            b.write(k, &[fill; 96]).unwrap();
        }
        b.delete("a").unwrap();
        let before = b.touches();
        let mut frame = HostBuffer::from_slice(&[7u8; 96]);
        b.write_frame("moved", &mut frame).unwrap();
        let after = b.touches();
        assert_eq!(
            after.write_copied_bytes, before.write_copied_bytes,
            "copied"
        );
        assert_eq!(after.exchanged_frames, before.exchanged_frames + 1);
        assert_eq!(
            frame.as_bytes(),
            &[1u8; 96],
            "the frame is the deleted object's"
        );
        assert_eq!(b.read("moved").unwrap(), vec![7u8; 96]);

        // A spare of another length serves nothing; one of the right
        // length serves a copying write too.
        b.delete("b").unwrap();
        let mut short = HostBuffer::from_slice(&[8u8; 32]);
        b.write_frame("short", &mut short).unwrap();
        assert_eq!(
            b.touches().write_copied_bytes,
            after.write_copied_bytes + 32
        );
        assert_eq!(
            short.as_bytes(),
            &[8u8; 32],
            "a copy leaves the frame alone"
        );
        b.write("copied", &[9u8; 96]).unwrap();
        assert_eq!(b.read("copied").unwrap(), vec![9u8; 96]);
        assert_eq!((b.object_count(), b.total_bytes()), (4, 96 * 3 + 32));
    }

    /// Deleting a pinned object, or one a reader is copying out of,
    /// leaves them its bytes and keeps no spare: the next new key copies.
    #[test]
    fn mem_backend_delete_of_a_pinned_object_donates_no_frame() {
        let b = MemBackend::new("mem");
        b.write("other", &[0u8; 96]).unwrap();
        b.write("read", &[3u8; 96]).unwrap();
        let reader = b.object("read").unwrap(); // a reader, inside
        b.delete("read").unwrap();
        b.write("live", &[1u8; 96]).unwrap();
        b.link("live", "pin").unwrap();
        b.delete("live").unwrap();
        assert_eq!(reader.as_bytes(), &[3u8; 96], "the reader's object changed");
        assert_eq!(b.read("pin").unwrap(), vec![1u8; 96]);
        let before = b.touches();
        let mut frame = HostBuffer::from_slice(&[2u8; 96]);
        b.write_frame("new", &mut frame).unwrap();
        let after = b.touches();
        assert_eq!(after.write_copied_bytes - before.write_copied_bytes, 96);
        assert_eq!(after.exchanged_frames, before.exchanged_frames);
        assert_eq!(
            b.read("pin").unwrap(),
            vec![1u8; 96],
            "the write reached the pin"
        );
        assert_eq!(b.read("new").unwrap(), vec![2u8; 96]);
    }

    /// Frames trade by capacity: a frame carrying a shorter object (an
    /// encoded one) exchanges with a full one, is stored at its own
    /// length, and the frame handed back has the length it came with.
    #[test]
    fn mem_backend_exchanges_frames_of_one_capacity_whatever_their_length() {
        let b = MemBackend::new("mem");
        let mut full = HostBuffer::from_slice(&[1u8; 96]);
        b.write_frame("k", &mut full).unwrap();
        let mut short = HostBuffer::from_slice(&[2u8; 96]);
        short.set_len(40);
        b.write_frame("k", &mut short).unwrap();
        assert_eq!(b.read("k").unwrap(), vec![2u8; 40]);
        assert_eq!((short.len(), short.capacity()), (40, 96));
        let mut again = HostBuffer::from_slice(&[3u8; 96]);
        b.write_frame("k", &mut again).unwrap();
        assert_eq!(b.read("k").unwrap(), vec![3u8; 96]);
        assert_eq!(again.len(), 96, "the pool's frame comes back whole");
        assert_eq!(b.touches().exchanged_frames, 2);
        // A copy that fits the object's allocation overwrites it in place.
        b.write("k", &[4u8; 12]).unwrap();
        assert_eq!((b.read("k").unwrap(), b.total_bytes()), (vec![4u8; 12], 12));
    }

    /// A tier keeps no more spares than objects: once every object is
    /// deleted, a new key copies again.
    #[test]
    fn mem_backend_that_drains_releases_its_spares() {
        let b = MemBackend::new("mem");
        for k in ["a", "b", "c"] {
            b.write(k, &[1u8; 96]).unwrap();
        }
        for k in ["a", "b", "c"] {
            b.delete(k).unwrap();
        }
        assert_eq!((b.object_count(), b.total_bytes()), (0, 0));
        let before = b.touches();
        let mut frame = HostBuffer::from_slice(&[2u8; 96]);
        b.write_frame("new", &mut frame).unwrap();
        let after = b.touches();
        assert_eq!(after.write_copied_bytes - before.write_copied_bytes, 96);
        assert_eq!(after.exchanged_frames, before.exchanged_frames);
    }

    /// Deletes on one thread feed the spares that `write_frame`s on
    /// another take, while readers copy out (what the `tsan` CI job
    /// watches): every read is one writer's whole payload, never a blend,
    /// and a frame a reader holds is never handed to a writer.
    #[test]
    fn mem_backend_spare_hand_off_never_reaches_a_reader() {
        const LEN: usize = 4096;
        let b = MemBackend::new("mem");
        for k in 0..8 {
            b.write(&format!("k{k}"), &[0u8; LEN]).unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut dst = [0u8; LEN];
                    for i in 0..500 {
                        match b.read_into(&format!("k{}", i % 8), &mut dst) {
                            Ok(n) => assert_eq!(n, LEN),
                            Err(e) => {
                                assert_eq!(e.kind(), io::ErrorKind::NotFound);
                                continue;
                            }
                        }
                        assert!(dst.iter().all(|&x| x == dst[0]), "blended frames");
                    }
                });
            }
            s.spawn(|| {
                for i in 0..250 {
                    b.delete(&format!("k{}", i % 8)).unwrap();
                }
            });
            s.spawn(|| {
                let mut frame = HostBuffer::zeroed(LEN);
                for i in 0..250usize {
                    frame.as_bytes_mut().fill((i % 250) as u8 + 1);
                    b.write_frame(&format!("k{}", (i + 3) % 8), &mut frame)
                        .unwrap();
                }
            });
        });
        let touches = b.touches();
        assert_eq!(
            touches.exchanged_frames * LEN as u64 + touches.write_copied_bytes,
            (8 + 250) * LEN as u64,
            "every write either traded a frame or copied one"
        );
        for k in 0..8 {
            if let Ok(got) = b.read(&format!("k{k}")) {
                assert!(got.iter().all(|&x| x == got[0]), "k{k} blended");
            }
        }
    }

    /// `write_frame` stores what `write` stores: the default impl (file,
    /// checksummed) and every forwarding decorator read back byte for
    /// byte the same, first write and overwrite.
    #[test]
    fn write_frame_agrees_with_write_on_every_backend() {
        use crate::{ChecksummedBackend, FaultConfig, FaultInjectBackend, TracedBackend};
        let root = temp_root("frame");
        let mem = || Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
        let backends: Vec<Arc<dyn Backend>> = vec![
            mem(),
            Arc::new(DirBackend::new("dir", &root).unwrap()),
            Arc::new(ChecksummedBackend::new(mem())),
            Arc::new(TracedBackend::new(
                mem(),
                0,
                mlp_trace::TraceSink::enabled(),
            )),
            Arc::new(FaultInjectBackend::new(mem(), FaultConfig::none(1))),
        ];
        for b in backends {
            for fill in [3u8, 4] {
                let payload = vec![fill; 120];
                b.write("by-write", &payload).unwrap();
                let mut frame = HostBuffer::from_slice(&payload);
                b.write_frame("by-frame", &mut frame).unwrap();
                assert_eq!(frame.len(), payload.len(), "{}", b.name());
                assert_eq!(b.read("by-frame").unwrap(), payload, "{}", b.name());
                assert_eq!(
                    b.read("by-frame").unwrap(),
                    b.read("by-write").unwrap(),
                    "{}",
                    b.name()
                );
            }
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A pin keeps the bytes its source held, whatever is written to the
    /// source next, on every medium, through the trait's default and
    /// through every decorator; and on a memory tier it costs one copy,
    /// at the next flush.
    #[test]
    fn link_pins_the_bytes_on_every_backend() {
        use crate::TracedBackend;
        use crate::{ChecksummedBackend, FaultConfig, FaultInjectBackend};
        let root = temp_root("link");
        let mem = || Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>;
        let backends: Vec<Arc<dyn Backend>> = vec![
            mem(),
            Arc::new(DirBackend::new("dir", root.join("a")).unwrap()),
            Arc::new(
                DirBackend::new("dir", root.join("b"))
                    .unwrap()
                    .with_fsync(true),
            ),
            Arc::new(Wrap(MemBackend::new("default-link"))),
            Arc::new(ChecksummedBackend::new(mem())),
            Arc::new(TracedBackend::new(
                mem(),
                0,
                mlp_trace::TraceSink::enabled(),
            )),
            Arc::new(FaultInjectBackend::new(mem(), FaultConfig::none(1))),
        ];
        for (i, b) in backends.iter().enumerate() {
            b.write("live", &[1; 96]).unwrap();
            b.write("pin/k", &[9; 8]).unwrap();
            b.link("live", "pin/k").unwrap(); // over an existing object
            b.write("live", &[2; 96]).unwrap();
            assert_eq!(
                b.read("pin/k").unwrap(),
                [1; 96],
                "{i}: a write reached the pin"
            );
            b.link("live", "pin/k").unwrap();
            let mut frame = HostBuffer::from_slice(&[3; 96]);
            b.write_frame("live", &mut frame).unwrap();
            assert_eq!(
                b.read("pin/k").unwrap(),
                [2; 96],
                "{i}: a frame reached the pin"
            );
            assert_eq!(b.read("live").unwrap(), [3; 96], "{i}");
            let err = b.link("missing", "pin/k").unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::NotFound, "{i}");
            assert_eq!(
                b.read("pin/k").unwrap(),
                [2; 96],
                "{i}: a failed link moved the pin"
            );
        }

        let b = MemBackend::new("mem");
        let mut frame = HostBuffer::from_slice(&[1; 96]);
        b.write_frame("live", &mut frame).unwrap();
        let linked = b.touches();
        b.link("live", "pin").unwrap();
        assert_eq!(b.touches(), linked, "the link moved bytes");
        let flushes: Vec<_> = (2..4u8)
            .map(|fill| {
                frame.as_bytes_mut().fill(fill);
                b.write_frame("live", &mut frame).unwrap();
                b.touches()
            })
            .collect();
        let delta = |t: MemTouches, from: MemTouches| {
            let copied = t.write_copied_bytes - from.write_copied_bytes;
            (copied, t.exchanged_frames - from.exchanged_frames)
        };
        assert_eq!(
            delta(flushes[0], linked),
            (96, 0),
            "the pinned frame was exchanged"
        );
        assert_eq!(
            delta(flushes[1], flushes[0]),
            (0, 1),
            "the flush after it copied"
        );
        assert_eq!(
            (b.read("pin").unwrap(), b.read("live").unwrap()),
            (vec![1; 96], vec![3; 96])
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn throttled_backend_is_slower() {
        let fast = MemBackend::new("fast");
        let slow = MemBackend::throttled("slow", 1e6, 1e6); // 1 MB/s
        let data = vec![0u8; 100_000]; // 0.1 s at 1 MB/s

        let t0 = std::time::Instant::now();
        fast.write("k", &data).unwrap();
        let fast_t = t0.elapsed();

        let t0 = std::time::Instant::now();
        slow.write("k", &data).unwrap();
        let slow_t = t0.elapsed();

        assert!(
            slow_t.as_secs_f64() >= 0.08,
            "throttle not applied: {slow_t:?}"
        );
        assert!(slow_t > fast_t);
    }

    /// The copy runs inside the modelled time, never beside it: each
    /// emulated op still takes at least `bytes / bps` (a lower bound only;
    /// how much longer a loaded host makes it is not this test's).
    #[test]
    fn every_throttled_op_takes_at_least_its_modelled_time() {
        let (bps, n) = (4e6, 200_000); // 50 ms an op
        let b = MemBackend::throttled("slow", bps, bps);
        let modelled = Duration::from_secs_f64(n as f64 / bps);
        let data = vec![7u8; n];
        let (mut dst, mut frame) = (vec![0u8; n], HostBuffer::from_slice(&data));
        let check = |op: &str, run: &mut dyn FnMut()| {
            let t0 = Instant::now();
            run();
            let took = t0.elapsed();
            assert!(took >= modelled, "{op} took {took:?} < {modelled:?}");
        };
        check("write", &mut || b.write("k", &data).unwrap());
        check("read", &mut || assert_eq!(b.read("k").unwrap(), data));
        check("read_into", &mut || {
            assert_eq!(b.read_into("k", &mut dst).unwrap(), n)
        });
        check("write_frame", &mut || {
            b.write_frame("f", &mut frame).unwrap()
        });
        assert_eq!((dst, b.read("f").unwrap()), (data.clone(), data));
    }

    fn temp_root(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "mlp-storage-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn dir_backend_round_trip() {
        let root = temp_root("rt");
        let b = DirBackend::new("dir", &root).unwrap();
        b.write("rank0/sub3", &[9, 8, 7]).unwrap();
        assert!(b.contains("rank0/sub3"));
        assert_eq!(b.read("rank0/sub3").unwrap(), vec![9, 8, 7]);
        b.delete("rank0/sub3").unwrap();
        assert!(!b.contains("rank0/sub3"));
        b.delete("rank0/sub3").unwrap(); // idempotent
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_backend_read_into_round_trips() {
        let root = temp_root("ri");
        let b = DirBackend::new("dir", &root).unwrap();
        b.write("rank0/sub0", &[1, 2, 3, 4, 5]).unwrap();
        let mut dst = [0u8; 16];
        assert_eq!(b.read_into("rank0/sub0", &mut dst).unwrap(), 5);
        assert_eq!(&dst[..5], &[1, 2, 3, 4, 5]);
        let mut tiny = [0u8; 4];
        assert_eq!(
            b.read_into("rank0/sub0", &mut tiny).unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_backend_fsync_round_trips() {
        let root = temp_root("fsync");
        let b = DirBackend::new("dir", &root).unwrap().with_fsync(true);
        // A nested key makes the write create (and sync) its directories.
        for key in ["durable", "a/b/c"] {
            b.write(key, &[1, 2, 3]).unwrap();
            assert_eq!(b.read(key).unwrap(), vec![1, 2, 3]);
            b.delete(key).unwrap();
            assert!(!b.contains(key));
            b.delete(key).unwrap(); // absent: still Ok, nothing to sync
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn dir_backend_rejects_escaping_keys() {
        let root = temp_root("esc");
        let b = DirBackend::new("dir", &root).unwrap();
        assert!(b.write("../evil", &[1]).is_err());
        assert!(b.write("/abs", &[1]).is_err());
        assert!(b.write("a//b", &[1]).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Regression test for the torn-write bug: `with_extension("tmp")`
    /// mapped the dotted keys `model.bin` and `model.dat` to the *same*
    /// `model.tmp`, and two workers writing one key shared one tmp file —
    /// concurrent writes interleaved into the tmp and then renamed the
    /// corrupt result into place.
    #[test]
    fn dir_backend_concurrent_dotted_key_writes_never_tear() {
        let root = temp_root("torn");
        let b = Arc::new(DirBackend::new("dir", &root).unwrap());
        let keys = ["model.bin", "model.dat"];
        let mut handles = Vec::new();
        // Two writers per key, distinct fill patterns and lengths; every
        // observable object must be exactly one writer's payload.
        for (w, fill) in [(0u8, 0x11u8), (1, 0x22), (2, 0x33), (3, 0x44)] {
            let b = Arc::clone(&b);
            let key = keys[w as usize % 2].to_string();
            handles.push(std::thread::spawn(move || {
                let payload = vec![fill; 4096 + fill as usize];
                for _ in 0..50 {
                    b.write(&key, &payload).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for key in keys {
            let got = b.read(key).unwrap();
            let fill = got[0];
            assert!(
                matches!(fill, 0x11 | 0x22 | 0x33 | 0x44),
                "unknown fill {fill:#x}"
            );
            assert_eq!(got.len(), 4096 + fill as usize, "torn length for {key}");
            assert!(
                got.iter().all(|&x| x == fill),
                "interleaved payloads in {key}"
            );
        }
        // No tmp files left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&root)
            .unwrap()
            .filter_map(|e| {
                let name = e.unwrap().file_name().to_string_lossy().into_owned();
                name.ends_with(".tmp").then_some(name)
            })
            .collect();
        assert!(leftovers.is_empty(), "stale tmp files: {leftovers:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Distinct dotted keys must land in distinct files (they used to
    /// collide on `model.tmp` mid-write).
    #[test]
    fn dir_backend_dotted_keys_are_distinct_objects() {
        let root = temp_root("dotted");
        let b = DirBackend::new("dir", &root).unwrap();
        b.write("model.bin", &[1u8; 8]).unwrap();
        b.write("model.dat", &[2u8; 9]).unwrap();
        assert_eq!(b.read("model.bin").unwrap(), vec![1u8; 8]);
        assert_eq!(b.read("model.dat").unwrap(), vec![2u8; 9]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unique_tmp_siblings_never_collide_and_keep_the_directory() {
        let path = Path::new("/x/y/model.bin");
        let a = unique_tmp_sibling(path).unwrap();
        let b = unique_tmp_sibling(path).unwrap();
        assert_ne!(a, b);
        for t in [&a, &b] {
            assert_eq!(t.parent(), path.parent());
            let name = t.file_name().unwrap().to_string_lossy().into_owned();
            assert!(name.starts_with("model.bin."), "{name}");
            assert!(name.ends_with(".tmp"), "{name}");
        }
        assert!(unique_tmp_sibling(Path::new("/")).is_err());
    }

    #[test]
    fn dir_backend_overwrite_is_atomic_replacement() {
        let root = temp_root("atomic");
        let b = DirBackend::new("dir", &root).unwrap();
        b.write("k", &vec![1u8; 1000]).unwrap();
        b.write("k", &vec![2u8; 500]).unwrap();
        let got = b.read("k").unwrap();
        assert_eq!(got.len(), 500);
        assert!(got.iter().all(|&x| x == 2));
        std::fs::remove_dir_all(&root).unwrap();
    }
}
