//! The one clock the I/O stack schedules time on.
//!
//! Everything that *schedules* time reads a [`Clock`]: the deadline
//! watchdog, the wait for an abandoned op's late settlement, retry
//! backoff, the codec stage's trial period and the fault injector's
//! latency spikes. What *measures* work (coding rates, busy time, spans)
//! keeps `std::time::Instant`. Production runs on [`WallClock`]. A test
//! runs on `mlp_testkit::ManualClock`, whose time moves only when the test
//! advances it: a deadline, a backoff or a spike then costs no wall time
//! and fires exactly when the test says, however loaded the host is.

use std::fmt;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A source of time that threads can wait on. `Debug` is a supertrait so
/// configs that embed an `Arc<dyn Clock>` can keep deriving `Debug`.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The time since the clock's epoch.
    fn now(&self) -> Duration;

    /// Blocks until `ready` returns `true` or the clock reads `until`, and
    /// returns whether `ready` ended the wait. `ready` gets the clock's
    /// reading and runs under the clock's lock: first, then each time the
    /// clock is notified or moves. A thread that changes what `ready`
    /// reads and then calls [`Clock::notify`] is never missed.
    fn wait_until(&self, until: Duration, ready: &mut dyn FnMut(Duration) -> bool) -> bool;

    /// Has every wait call its `ready` again.
    fn notify(&self);

    /// Blocks for `d`.
    fn sleep(&self, d: Duration) {
        let until = self.now().saturating_add(d);
        self.wait_until(until, &mut |_| false);
    }
}

/// Locks `m`, whatever a panicking `ready` left behind.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The production clock: the time since it was made.
#[derive(Debug)]
pub struct WallClock {
    epoch: Instant,
    lock: Mutex<()>,
    changed: Condvar,
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock {
            epoch: Instant::now(),
            lock: Mutex::new(()),
            changed: Condvar::new(),
        }
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    fn wait_until(&self, until: Duration, ready: &mut dyn FnMut(Duration) -> bool) -> bool {
        let mut guard = lock(&self.lock);
        loop {
            let now = self.now();
            if ready(now) {
                return true;
            }
            let Some(left) = until.checked_sub(now).filter(|d| !d.is_zero()) else {
                return false;
            };
            guard = (self.changed.wait_timeout(guard, left))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    fn notify(&self) {
        let _guard = lock(&self.lock);
        self.changed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_notify_ends_a_wait_whose_condition_now_holds() {
        let (clock, flag) = (Arc::new(WallClock::default()), Arc::new(Mutex::new(false)));
        let (c, f) = (Arc::clone(&clock), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || c.wait_until(Duration::MAX, &mut |_| *lock(&f)));
        *lock(&flag) = true;
        clock.notify();
        assert!(waiter.join().unwrap());
        assert!(!clock.wait_until(Duration::ZERO, &mut |_| false));
    }
}
