//! Injectable sleep/clock abstraction for deterministic delay handling.
//!
//! Two call sites in the I/O stack block the calling thread on purpose:
//! the retry layer's exponential backoff (`mlp-aio`) and the fault
//! injector's latency spikes ([`crate::fault::FaultInjectBackend`]).
//! Both used to call `std::thread::sleep` directly, which meant seeded
//! deterministic fault tests paid real wall-clock delays for every
//! injected retry storm. Threading a [`Sleeper`] through instead keeps
//! production behaviour identical (the default is
//! [`WallClockSleeper`]) while tests swap in a [`FakeSleeper`] that
//! records the requested delays and returns immediately — virtual time
//! for the delay path, exactly like the simulation engines' virtual
//! clock, without a global.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A source of blocking delays. Implementations must be cheap to share
/// across I/O worker threads. (`Debug` is a supertrait so configs that
/// embed an `Arc<dyn Sleeper>` can keep deriving `Debug`.)
pub trait Sleeper: Send + Sync + std::fmt::Debug {
    /// Blocks the calling thread for (up to) `d` — or merely records the
    /// request, for virtual-time implementations.
    fn sleep(&self, d: Duration);
}

/// The production sleeper: a plain `std::thread::sleep`.
#[derive(Clone, Copy, Debug, Default)]
pub struct WallClockSleeper;

impl Sleeper for WallClockSleeper {
    fn sleep(&self, d: Duration) {
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }
}

/// A recording sleeper for deterministic tests: never blocks, counts
/// every request and accumulates the virtual nanoseconds that *would*
/// have been slept. Fault-injection suites assert backoff engaged via
/// [`FakeSleeper::total_slept`] instead of paying the delay.
#[derive(Debug, Default)]
pub struct FakeSleeper {
    count: AtomicU64,
    total_ns: AtomicU64,
}

impl FakeSleeper {
    /// A fresh recorder wrapped for sharing with engine config.
    pub fn shared() -> Arc<FakeSleeper> {
        Arc::new(FakeSleeper::default())
    }

    /// Number of sleep requests recorded.
    pub fn sleeps(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // relaxed-ok: stats snapshot
    }

    /// Total virtual time requested across all sleeps.
    pub fn total_slept(&self) -> Duration {
        Duration::from_nanos(self.total_ns.load(Ordering::Relaxed)) // relaxed-ok: stats snapshot
    }
}

impl Sleeper for FakeSleeper {
    fn sleep(&self, d: Duration) {
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.total_ns.fetch_add(ns, Ordering::Relaxed); // relaxed-ok: monotonic stats counter
    }
}

/// The default production sleeper, shared.
pub fn wall_clock() -> Arc<dyn Sleeper> {
    Arc::new(WallClockSleeper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fake_sleeper_records_without_blocking() {
        let s = FakeSleeper::shared();
        let t0 = std::time::Instant::now();
        s.sleep(Duration::from_secs(3600));
        s.sleep(Duration::from_secs(1800));
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "fake slept for real"
        );
        assert_eq!(s.sleeps(), 2);
        assert_eq!(s.total_slept(), Duration::from_secs(5400));
    }

    #[test]
    fn wall_clock_sleeper_actually_sleeps() {
        let s = WallClockSleeper;
        let t0 = std::time::Instant::now();
        s.sleep(Duration::from_millis(10));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }
}
