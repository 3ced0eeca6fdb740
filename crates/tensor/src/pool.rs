//! Explicit pool-based allocation of staging buffers.
//!
//! MLP-Offload "orchestrates efficient host buffer management through
//! explicit pool-based allocations for asynchronous fetch/flush operations"
//! (§3.5): a fixed set of pinned buffers is allocated once and recycled,
//! avoiding per-operation allocation and the framework's pooled-memory
//! overheads. The pool here is thread-safe so the real (non-simulated)
//! async I/O engine can hand buffers between submitter and worker threads.
//!
//! The acquire/release lifecycle is written against the [`mlp_sync`]
//! facade: under `--cfg loom` the same code runs inside the schedule
//! explorer (`mlp-aio/tests/loom_pool.rs`), which certifies there are no
//! lost wakeups on `available`, no double-release, and no acquisition
//! that bypasses the capacity bound.

use mlp_sync::{Arc, Condvar, Mutex};
use mlp_trace::{Attrs, Gauge, Phase, TraceSink};

use crate::buffer::HostBuffer;

struct PoolState {
    idle: Vec<HostBuffer>,
    outstanding: usize,
    high_water: usize,
    acquires: u64,
}

struct PoolShared {
    state: Mutex<PoolState>,
    available: Condvar,
    buffer_bytes: usize,
    capacity: usize,
    /// Observability sink: [`Phase::PoolAcquire`]/[`Phase::PoolRelease`]
    /// instants per checkout/return plus a live `outstanding` gauge.
    /// Disabled (zero-cost) unless the pool was built with
    /// [`PinnedPool::new_traced`].
    trace: TraceSink,
    outstanding_gauge: Gauge,
}

/// A fixed-capacity pool of equally sized staging buffers.
#[derive(Clone)]
pub struct PinnedPool {
    shared: Arc<PoolShared>,
}

impl PinnedPool {
    /// Creates a pool of `capacity` buffers of `buffer_bytes` each,
    /// allocated eagerly (pinned buffers are registered up front in the
    /// real engine, so we pay the allocation once here too).
    pub fn new(capacity: usize, buffer_bytes: usize) -> Self {
        Self::new_traced(capacity, buffer_bytes, "staging", TraceSink::disabled())
    }

    /// Like [`PinnedPool::new`], but every checkout/return records a
    /// [`Phase::PoolAcquire`]/[`Phase::PoolRelease`] instant in `trace`
    /// and the live checkout count is published on the
    /// `pool.<name>.outstanding` gauge. A disabled sink makes this
    /// identical to [`PinnedPool::new`].
    pub fn new_traced(capacity: usize, buffer_bytes: usize, name: &str, trace: TraceSink) -> Self {
        assert!(capacity > 0, "pool needs at least one buffer");
        let idle = (0..capacity)
            .map(|_| HostBuffer::zeroed(buffer_bytes))
            .collect();
        let outstanding_gauge = trace.gauge(&format!("pool.{name}.outstanding"));
        PinnedPool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    idle,
                    outstanding: 0,
                    high_water: 0,
                    acquires: 0,
                }),
                available: Condvar::new(),
                buffer_bytes,
                capacity,
                trace,
                outstanding_gauge,
            }),
        }
    }

    /// Size of each buffer in bytes.
    pub fn buffer_bytes(&self) -> usize {
        self.shared.buffer_bytes
    }

    /// Total number of buffers owned by the pool.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Buffers currently checked out.
    pub fn outstanding(&self) -> usize {
        self.shared.state.lock().outstanding
    }

    /// Most buffers ever checked out at once.
    pub fn high_water(&self) -> usize {
        self.shared.state.lock().high_water
    }

    /// Total successful acquisitions over the pool's lifetime. Together
    /// with [`PinnedPool::high_water`] this proves buffer recycling: a hot
    /// loop that acquires N times while the high-water mark stays at the
    /// (much smaller) capacity performed zero per-acquisition allocations.
    pub fn acquires(&self) -> u64 {
        self.shared.state.lock().acquires
    }

    /// Takes a buffer, blocking the calling thread until one is free.
    pub fn acquire(&self) -> PooledBuffer {
        let mut st = self.shared.state.lock();
        loop {
            match st.idle.pop() {
                Some(buf) => return self.check_out(&mut st, buf),
                None => self.shared.available.wait(&mut st),
            }
        }
    }

    /// Takes a buffer if one is free.
    pub fn try_acquire(&self) -> Option<PooledBuffer> {
        let mut st = self.shared.state.lock();
        let buf = st.idle.pop()?;
        Some(self.check_out(&mut st, buf))
    }

    fn check_out(&self, st: &mut PoolState, buf: HostBuffer) -> PooledBuffer {
        st.outstanding += 1;
        st.acquires += 1;
        st.high_water = st.high_water.max(st.outstanding);
        let trace = &self.shared.trace;
        if trace.is_enabled() {
            let attrs = Attrs::bytes(self.shared.buffer_bytes as u64);
            trace.instant(Phase::PoolAcquire, attrs, trace.now_ns());
            self.shared.outstanding_gauge.set(st.outstanding as u64);
        }
        PooledBuffer {
            pool: self.clone(),
            buf: Some(buf),
        }
    }

    fn give_back(&self, buf: HostBuffer) {
        let mut st = self.shared.state.lock();
        st.idle.push(buf);
        st.outstanding -= 1;
        let trace = &self.shared.trace;
        if trace.is_enabled() {
            let attrs = Attrs::bytes(self.shared.buffer_bytes as u64);
            trace.instant(Phase::PoolRelease, attrs, trace.now_ns());
            self.shared.outstanding_gauge.set(st.outstanding as u64);
        }
        drop(st);
        self.shared.available.notify_one();
    }
}

/// RAII handle to a pooled buffer; returns it to the pool on drop.
pub struct PooledBuffer {
    pool: PinnedPool,
    buf: Option<HostBuffer>,
}

impl PooledBuffer {
    /// Immutable access to the underlying buffer.
    #[expect(clippy::expect_used, reason = "Some from construction until Drop")]
    pub fn buffer(&self) -> &HostBuffer {
        self.buf.as_ref().expect("buffer present until drop")
    }

    /// Mutable access to the underlying buffer.
    #[expect(clippy::expect_used, reason = "Some from construction until Drop")]
    pub fn buffer_mut(&mut self) -> &mut HostBuffer {
        self.buf.as_mut().expect("buffer present until drop")
    }
}

impl std::fmt::Debug for PooledBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.buf {
            Some(b) => write!(f, "PooledBuffer({} bytes)", b.len()),
            None => f.write_str("PooledBuffer(<returned>)"),
        }
    }
}

impl std::ops::Deref for PooledBuffer {
    type Target = HostBuffer;
    fn deref(&self) -> &HostBuffer {
        self.buffer()
    }
}

impl std::ops::DerefMut for PooledBuffer {
    fn deref_mut(&mut self) -> &mut HostBuffer {
        self.buffer_mut()
    }
}

impl Drop for PooledBuffer {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.give_back(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn acquire_and_release_cycle() {
        let pool = PinnedPool::new(2, 64);
        let a = pool.acquire();
        let b = pool.acquire();
        assert_eq!(pool.outstanding(), 2);
        assert!(pool.try_acquire().is_none());
        drop(a);
        assert_eq!(pool.outstanding(), 1);
        let c = pool.try_acquire().expect("freed buffer reusable");
        assert_eq!(c.len(), 64);
        drop(b);
        drop(c);
        assert_eq!(pool.outstanding(), 0);
        assert_eq!(pool.high_water(), 2);
    }

    #[test]
    fn buffers_keep_their_size() {
        let pool = PinnedPool::new(1, 128);
        let mut b = pool.acquire();
        b.write_f32(0, &[42.0]);
        drop(b);
        let b2 = pool.acquire();
        assert_eq!(b2.len(), 128);
        // Contents persist across recycling (callers must not rely on
        // zeroing); just assert the value survived as documented behaviour.
        assert_eq!(b2.read_f32(0, 1), vec![42.0]);
    }

    #[test]
    fn blocking_acquire_wakes_on_release() {
        let pool = PinnedPool::new(1, 16);
        let held = pool.acquire();
        let p2 = pool.clone();
        let t = std::thread::spawn(move || {
            let b = p2.acquire();
            b.len()
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert_eq!(t.join().unwrap(), 16);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = PinnedPool::new(4, 32);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let p = pool.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..100 {
                    let _b = p.acquire();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.outstanding(), 0);
        assert!(pool.high_water() <= 4);
    }
}
