//! An encoded op allocates no frame in steady state: the worker encodes
//! into its scratch frame, a memory tier exchanges that frame with the
//! object it displaces, and a read decodes through the scratch by trading
//! it for the pooled frame. Its own test binary, because the counting
//! allocator below sees every thread of the process.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mlp_aio::{AioConfig, AioEngine};
use mlp_storage::{Backend, MemBackend};
use mlp_tensor::PinnedPool;

/// Bytes of one object: 4 Ki FP32 words.
const FRAME: usize = 16 << 10;
/// Allocations this large are frames; the engine's per-op bookkeeping
/// (the op's slot, its key) is far smaller.
const FRAME_SIZED: usize = FRAME / 2;

struct Counting;

static FRAME_ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards every call to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= FRAME_SIZED {
            FRAME_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= FRAME_SIZED {
            FRAME_ALLOCS.fetch_add(1, Ordering::SeqCst);
        }
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Parameters in [-1, 1) with `outliers` huge ones, which the frame
/// escapes: frames of one key differ in length from write to write.
fn params(seed: u64, outliers: usize) -> Vec<u8> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut bytes: Vec<u8> = (0..FRAME / 4)
        .flat_map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0).to_le_bytes()
        })
        .collect();
    for word in bytes.chunks_exact_mut(4).step_by(97).take(outliers) {
        word.copy_from_slice(&3e38f32.to_le_bytes());
    }
    bytes
}

#[test]
fn an_encoded_op_allocates_no_frame_in_steady_state() {
    // 0.5 MB/s: the codec pays on this tier even unoptimised.
    let backend = Arc::new(MemBackend::throttled("slow", 5e5, 5e5));
    let engine = AioEngine::new(
        Arc::clone(&backend) as Arc<dyn Backend>,
        AioConfig {
            workers: 1,
            ..AioConfig::deterministic()
        },
    );
    let pool = PinnedPool::new(2, FRAME);
    // Every round's payloads up front: each is a frame-sized allocation.
    let payloads: Vec<Vec<Vec<u8>>> = (0..5)
        .map(|round| {
            (0..4)
                .map(|k| params(10 * round + k, (round + k) as usize % 5))
                .collect()
        })
        .collect();
    let mut rounds = payloads.iter().cycle();
    let mut round = || {
        let mut frames = 0;
        for (k, payload) in rounds.next().expect("payloads cycle").iter().enumerate() {
            let key = format!("k{k}");
            let mut buf = pool.acquire();
            buf.buffer_mut().as_bytes_mut().copy_from_slice(payload);
            let before = FRAME_ALLOCS.load(Ordering::SeqCst);
            let write = engine.submit_write_pooled(&key, buf, FRAME);
            write.wait_flush().map_err(|(e, _)| e).unwrap();
            let read = engine.submit_read_pooled(&key, pool.acquire(), FRAME);
            let (buf, n) = read.wait_pooled().unwrap();
            frames += FRAME_ALLOCS.load(Ordering::SeqCst) - before;
            assert!(buf.buffer().as_bytes()[..n] == payload[..], "key {k}");
        }
        frames
    };
    // Warm-up: the store's first objects, the worker's scratch, and the
    // rates that turn the codec on (within a trial or two, however busy
    // the host), then one more round so every key holds a coded object.
    let written = |e: &AioEngine| (e.device_bytes().1, e.bytes_moved().1);
    let started = Instant::now();
    loop {
        let before = written(&engine);
        round();
        let after = written(&engine);
        if (after.0 - before.0) * 10 < (after.1 - before.1) * 9 {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "the codec never turned on"
        );
    }
    round();
    let before = written(&engine);
    assert_eq!(round() + round(), 0, "frame-sized allocations");
    let after = written(&engine);
    let coded = (after.0 - before.0) as f64 / (after.1 - before.1) as f64;
    assert!(
        coded < 0.9,
        "the counted writes went out coded: {coded:.3} of raw"
    );
}
