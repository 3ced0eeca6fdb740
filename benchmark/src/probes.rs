//! Direct probes: timed calls into one layer's public functions at the
//! workload's object size, outside any engine. Each layer number is
//! reported beside its ceiling (memcpy, a plain file, the configured
//! bandwidth) so profiling a layer stays separate from benchmarking the
//! system.

use std::io::{self, Read};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::attribution::{median, metric, percentile, Metric};
use crate::sut::{self, AioProbe, BufferPool, Medium, Store, TierLock};
use crate::workloads::{Rng, Workload};

/// Timed probes; each gets an equal share of the probe budget.
const TIMED_PROBES: u32 = 14;

/// Bytes a bandwidth probe cycles through before it touches an object
/// again: larger than the caches, so objects come from memory (or the page
/// cache) as they do in an engine.
pub const WORKING_SET_BYTES: usize = 64 << 20;

/// What every probe of one run shares.
#[derive(Clone, Copy)]
struct Probe {
    /// Time each timed probe may take.
    each: Duration,
    working_set: usize,
}

impl Probe {
    /// Objects of `len` bytes a bandwidth probe cycles through.
    fn objects(&self, len: usize) -> usize {
        (self.working_set / len).max(8)
    }
}

/// Calls `f` until `budget` is spent (at least three times) and returns the
/// seconds each call took.
fn repeat(budget: Duration, mut f: impl FnMut() -> io::Result<()>) -> io::Result<Vec<f64>> {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || started.elapsed() < budget {
        let t = Instant::now();
        f()?;
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(secs)
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// Write then read bandwidth, one object at a time, of whatever `write`
/// and `read` do with object number `i` of `len` bytes.
fn sequential_gbps(
    probe: Probe,
    len: usize,
    mut write: impl FnMut(usize) -> io::Result<()>,
    mut read: impl FnMut(usize) -> io::Result<()>,
) -> io::Result<(f64, f64)> {
    let objects = probe.objects(len);
    let mut next = 0usize;
    let write_s = repeat(probe.each, || {
        next += 1;
        write((next - 1) % objects)
    })?;
    // The budget may have ended before every object was written once.
    for i in next.min(objects)..objects {
        write(i)?;
    }
    let read_s = repeat(probe.each, || {
        next += 1;
        read(next % objects)
    })?;
    Ok((gbps(len, median(&write_s)), gbps(len, median(&read_s))))
}

/// Bandwidth of `store` called directly (no I/O engine in between).
fn store_gbps(store: &Store, data: &[u8], probe: Probe) -> io::Result<(f64, f64)> {
    let mut dst = vec![0u8; data.len()];
    sequential_gbps(
        probe,
        data.len(),
        |i| store.write(&format!("probe/o{i}"), data),
        |i| {
            store
                .read_into(&format!("probe/o{i}"), &mut dst)
                .map(|_| ())
        },
    )
}

/// Plain `std::fs` write and read of the same block in `dir`: no tmp file,
/// no rename, no backend. The ceiling for a directory tier.
fn raw_file_gbps(dir: &Path, data: &[u8], probe: Probe) -> io::Result<(f64, f64)> {
    std::fs::create_dir_all(dir)?;
    let mut dst = vec![0u8; data.len()];
    sequential_gbps(
        probe,
        data.len(),
        |i| std::fs::write(dir.join(format!("raw{i}")), data),
        |i| std::fs::File::open(dir.join(format!("raw{i}")))?.read_exact(&mut dst),
    )
}

/// Bytes per second through `submit` with three operations in flight, as
/// the engines' pipeline depth keeps them: at least one pass over the
/// objects, then until the budget is spent.
fn windowed_gbps(
    probe: Probe,
    len: usize,
    submit: impl Fn(usize) -> sut::Pending,
) -> io::Result<f64> {
    const IN_FLIGHT: usize = 3;
    let objects = probe.objects(len);
    let started = Instant::now();
    let mut pending = std::collections::VecDeque::new();
    let mut submitted = 0usize;
    while submitted < objects || started.elapsed() < probe.each {
        if pending.len() == IN_FLIGHT {
            pending.pop_front().map_or(Ok(()), sut::Pending::wait)?;
        }
        pending.push_back(submit(submitted % objects));
        submitted += 1;
    }
    for op in pending {
        op.wait()?;
    }
    Ok(gbps(submitted * len, started.elapsed().as_secs_f64()))
}

/// Write then read bandwidth through the I/O engine.
fn aio_gbps(store: &Store, len: usize, probe: Probe) -> io::Result<(f64, f64)> {
    // One buffer more than the window, so a submit never waits for the pool.
    let aio = AioProbe::new(store, 4, len);
    let write = windowed_gbps(probe, len, |i| aio.write(&format!("probe/a{i}"), len))?;
    let read = windowed_gbps(probe, len, |i| aio.read(&format!("probe/a{i}"), len))?;
    Ok((write, read))
}

/// Waits for `turn` to have the parity `me`; `false` once `stop` is set.
fn await_turn(turn: &AtomicUsize, stop: &AtomicBool, me: usize) -> bool {
    let mut spins = 0u32;
    // SeqCst: the turn publishes nothing else, but one total order keeps
    // the stop flag and the turn simple to reason about.
    while turn.load(Ordering::SeqCst) % 2 != me {
        if stop.load(Ordering::SeqCst) {
            return false;
        }
        spins += 1;
        if spins.is_multiple_of(64) {
            // Keeps a one-core box moving.
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
    true
}

/// Two holders passing the tier lock back and forth; returns the seconds
/// per hand-over. A turn counter forces the alternation.
fn lock_handoff_seconds(budget: Duration) -> f64 {
    const BATCH: usize = 100;
    let lock = TierLock::new();
    let turn = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while await_turn(&turn, &stop, 1) {
                lock.acquire_release(1);
                turn.fetch_add(1, Ordering::SeqCst);
            }
        });
        let started = Instant::now();
        let mut handovers = 0usize;
        while started.elapsed() < budget {
            for _ in 0..BATCH {
                lock.acquire_release(0);
                turn.fetch_add(1, Ordering::SeqCst);
                await_turn(&turn, &stop, 0);
            }
            handovers += 2 * BATCH;
        }
        let secs = started.elapsed().as_secs_f64() / handovers as f64;
        stop.store(true, Ordering::SeqCst);
        secs
    })
}

/// Runs every probe for `w` within about `budget` and returns the probe
/// metrics, each layer's beside its ceiling.
pub fn run(
    w: &Workload,
    seed: u64,
    budget: Duration,
    working_set: usize,
) -> io::Result<Vec<Metric>> {
    let each = budget / TIMED_PROBES;
    let probe = Probe { each, working_set };
    let _tier_dirs = w.tier_dir_guard();
    let n = w.n;
    let object = random_bytes(seed, w.object_bytes());

    // tensor: the machine's copy bandwidth (the control: if this moves, the
    // box changed), pool check-out, and FP16 -> FP32 conversion.
    let src = random_bytes(seed ^ 1, working_set);
    let mut dst = vec![0u8; working_set];
    let copy = repeat(each, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        Ok(())
    })?;
    // Counted as STREAM counts a copy: bytes read plus bytes written.
    let memcpy_gbps = gbps(2 * working_set, median(&copy));

    let pool = BufferPool::new(4, w.object_bytes());
    const POOL_BATCH: usize = 1000;
    let acquire = repeat(each, || {
        for _ in 0..POOL_BATCH {
            pool.acquire_release();
        }
        Ok(())
    })?;
    let pool_acquire_ns = median(&acquire) / POOL_BATCH as f64 * 1e9;

    let convert_elems = working_set / 16;
    let halves: Vec<u16> = (0..convert_elems)
        .map(|i| sut::f16_bits((i % 2048) as f32 / 64.0))
        .collect();
    let mut floats = vec![0f32; convert_elems];
    let convert = repeat(each, || {
        sut::upscale(std::hint::black_box(&halves), &mut floats);
        std::hint::black_box(&mut floats);
        Ok(())
    })?;
    // Bytes touched: 2 read + 4 written per element.
    let upscale_gbps = gbps(convert_elems * 6, median(&convert));

    // optim: the fused kernel at the workload's subgroup size, rotating
    // over enough subgroups that state comes from memory, as in the engine.
    let sets = (working_set / (n * 16)).max(1);
    let mut params = vec![0.5f32; sets * n];
    let mut momentum = vec![0f32; sets * n];
    let mut variance = vec![0f32; sets * n];
    let grads: Vec<u16> = (0..n)
        .map(|i| sut::f16_bits(0.01 + (i % 97) as f32 / 1024.0))
        .collect();
    let mut out = vec![0u16; n];
    let mut call = 0usize;
    let kernel = repeat(each, || {
        let at = (call % sets) * n;
        call += 1;
        sut::fused_adam_step(
            1 + (call / sets) as u64,
            &mut params[at..at + n],
            &mut momentum[at..at + n],
            &mut variance[at..at + n],
            &grads,
            &mut out,
        );
        std::hint::black_box(&mut out);
        Ok(())
    })?;
    let fused_mparams = n as f64 / median(&kernel) / 1e6;
    // 28 B of traffic per parameter: 12 read + 12 written of state, 2 of
    // gradient read, 2 of FP16 parameter written.
    let fused_share = 28.0 * fused_mparams * 1e6 / (memcpy_gbps * 1e9);
    drop((params, momentum, variance));

    // aio: pure handoff (4 KiB through an unthrottled in-memory store),
    // the tier lock, and bandwidth on the workload's medium.
    let mem = Store::open("probe-mem", &Medium::Mem)?;
    let small = AioProbe::new(&mem, 4, 4096);
    let roundtrip = repeat(each, || {
        small.write("probe/rt", 4096).wait()?;
        small.read("probe/rt", 4096).wait()
    })?;
    // One write and one read per call: halve for the per-operation time.
    let roundtrip_us: Vec<f64> = roundtrip.iter().map(|s| s * 1e6 / 2.0).collect();

    let lock = TierLock::new();
    const LOCK_BATCH: usize = 1000;
    let uncontended = repeat(each, || {
        for _ in 0..LOCK_BATCH {
            lock.acquire_release(0);
        }
        Ok(())
    })?;
    let lock_acquire_ns = median(&uncontended) / LOCK_BATCH as f64 * 1e9;
    let lock_handoff_us = lock_handoff_seconds(each) * 1e6;

    // storage and aio on the workload's first tier, in a directory of the
    // probe's own when the tier is one.
    let tier = &w.tiers[0];
    let probe_dir = w.tier_dir.as_ref().map(|d| d.join("probe"));
    let medium = match (&tier.medium, &probe_dir) {
        (Medium::Dir(_), Some(dir)) => Medium::Dir(dir.join("store")),
        (other, _) => other.clone(),
    };
    let store = Store::open("probe", &medium)?;
    let (store_write, store_read) = store_gbps(&store, &object, probe)?;
    let (aio_write, aio_read) = aio_gbps(&store, object.len(), probe)?;
    let (raw_write, raw_read) = match &probe_dir {
        Some(dir) => raw_file_gbps(&dir.join("raw"), &object, probe)?,
        None => (0.0, 0.0),
    };
    let write_ceiling = match &tier.medium {
        // Storing an object in memory is one copy of it: read plus write.
        Medium::Mem => memcpy_gbps / 2.0,
        Medium::Throttled { write_bps, .. } => write_bps / 1e9,
        Medium::Dir(_) => raw_write,
    };
    let (crc_write, crc_read) = store_gbps(&mem.checksummed(), &object, probe)?;

    Ok(vec![
        metric("optim.probe_fused_mparams_per_s", fused_mparams, "Mparam/s"),
        metric("optim.probe_roofline_share", fused_share, "ratio"),
        metric("aio.probe_roundtrip_us_p50", median(&roundtrip_us), "us"),
        metric(
            "aio.probe_roundtrip_us_p99",
            percentile(&roundtrip_us, 99.0),
            "us",
        ),
        metric("aio.probe_write_gbps", aio_write, "GB/s"),
        metric("aio.probe_read_gbps", aio_read, "GB/s"),
        metric(
            "aio.probe_write_efficiency",
            aio_write / store_write,
            "ratio",
        ),
        metric("aio.probe_read_efficiency", aio_read / store_read, "ratio"),
        metric("aio.probe_lock_acquire_ns", lock_acquire_ns, "ns"),
        metric("aio.probe_lock_handoff_us", lock_handoff_us, "us"),
        metric("storage.probe_write_gbps", store_write, "GB/s"),
        metric("storage.probe_read_gbps", store_read, "GB/s"),
        metric("storage.probe_raw_write_gbps", raw_write, "GB/s"),
        metric("storage.probe_raw_read_gbps", raw_read, "GB/s"),
        metric(
            "storage.probe_write_roofline_share",
            store_write / write_ceiling,
            "ratio",
        ),
        metric("storage.probe_crc_write_gbps", crc_write, "GB/s"),
        metric("storage.probe_crc_read_gbps", crc_read, "GB/s"),
        metric("tensor.probe_pool_acquire_ns", pool_acquire_ns, "ns"),
        metric("tensor.probe_memcpy_gbps", memcpy_gbps, "GB/s"),
        metric("tensor.probe_upscale_gbps", upscale_gbps, "GB/s"),
    ])
}
