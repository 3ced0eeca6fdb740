//! A [`Clock`] whose time moves only when the test says.
//!
//! Everything in the I/O stack that schedules time — deadlines, the wait
//! for a late settlement, retry backoff, codec trials, latency spikes —
//! reads an injected [`Clock`]. Under a [`ManualClock`] none of it waits
//! on the wall: a test moves the clock past a deadline or a spike with
//! [`ManualClock::advance`], and everything due then has happened when the
//! call returns, however loaded the host is.
//!
//! Nothing moves such a clock once the test stops: a test that fails while
//! an I/O worker sleeps on it would hang in the drop that joins the worker.
//! Hold a [`ManualClock::end_on_drop`] guard, declared after the engine,
//! and the failure is reported instead.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use mlp_storage::Clock;

/// A clock that starts at zero and moves only on [`ManualClock::advance`],
/// which returns once every thread waiting on the clock has run its
/// `ready` with the new time.
#[derive(Debug, Default)]
pub struct ManualClock {
    state: Mutex<Manual>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct Manual {
    now: Duration,
    moves: u64,
    /// Threads blocked on the clock, and those of them in `sleep`.
    waiting: usize,
    asleep: usize,
    /// Waiters that have not yet seen the last move.
    unseen: usize,
}

/// Who waits on a [`ManualClock`] as it is about to move.
#[derive(Clone, Copy, Debug)]
pub struct Waiters {
    /// Threads blocked on the clock, sleepers included.
    pub waiting: usize,
    /// Threads in [`Clock::sleep`].
    pub asleep: usize,
}

impl ManualClock {
    /// A clock reading zero.
    pub fn new() -> Self {
        ManualClock::default()
    }

    /// Moves time `by` forward (see the type docs).
    pub fn advance(&self, by: Duration) {
        self.advance_if(by, |_| true);
    }

    /// [`ManualClock::advance`], if `ready` holds of who waits. `ready`
    /// runs under the clock's lock, so no reading of the clock falls
    /// between it and the move. Returns whether the clock moved.
    pub fn advance_if(&self, by: Duration, ready: impl FnOnce(Waiters) -> bool) -> bool {
        let mut st = self.seen_by_all(self.lock());
        let (waiting, asleep) = (st.waiting, st.asleep);
        if !ready(Waiters { waiting, asleep }) {
            return false;
        }
        st.now = st.now.saturating_add(by);
        st.moves += 1;
        st.unseen = st.waiting;
        self.changed.notify_all();
        drop(self.seen_by_all(st));
        true
    }

    /// A guard that, when it drops, moves the clock to the end of time,
    /// past every sleep and deadline there is or will be. Locals drop in
    /// reverse order: declared after an engine that sleeps on the clock,
    /// it ends those sleeps before the engine's drop joins its workers,
    /// however the test ends.
    pub fn end_on_drop(&self) -> EndOfTime<'_> {
        EndOfTime(self)
    }

    fn lock(&self) -> MutexGuard<'_, Manual> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn park<'a>(&self, st: MutexGuard<'a, Manual>) -> MutexGuard<'a, Manual> {
        self.changed
            .wait(st)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Waits until every waiter has seen the last move.
    fn seen_by_all<'a>(&self, mut st: MutexGuard<'a, Manual>) -> MutexGuard<'a, Manual> {
        while st.unseen > 0 {
            st = self.park(st);
        }
        st
    }

    /// Blocks until `ready`, or until the clock reads what `until` makes
    /// of its reading now; a sleeper if `asleep`.
    fn block(
        &self,
        until: impl FnOnce(Duration) -> Duration,
        asleep: bool,
        ready: &mut dyn FnMut(Duration) -> bool,
    ) -> bool {
        let mut st = self.lock();
        let until = until(st.now);
        st.waiting += 1;
        st.asleep += usize::from(asleep);
        let mut seen = st.moves;
        let done = loop {
            let done = ready(st.now);
            if seen != st.moves {
                seen = st.moves;
                st.unseen -= 1;
                self.changed.notify_all();
            }
            if done || st.now >= until {
                break done;
            }
            st = self.park(st);
        };
        st.waiting -= 1;
        st.asleep -= usize::from(asleep);
        done
    }
}

/// Moves its [`ManualClock`] to `Duration::MAX` when dropped
/// ([`ManualClock::end_on_drop`]).
#[derive(Debug)]
pub struct EndOfTime<'a>(&'a ManualClock);

impl Drop for EndOfTime<'_> {
    fn drop(&mut self) {
        self.0.advance(Duration::MAX);
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Duration {
        self.lock().now
    }

    fn wait_until(&self, until: Duration, ready: &mut dyn FnMut(Duration) -> bool) -> bool {
        self.block(|_| until, false, ready)
    }

    fn notify(&self) {
        let _st = self.lock();
        self.changed.notify_all();
    }

    fn sleep(&self, d: Duration) {
        self.block(|now| now.saturating_add(d), true, &mut |_| false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_sleep_ends_when_the_clock_passes_it() {
        let clock = Arc::new(ManualClock::new());
        let c = Arc::clone(&clock);
        let sleeper = std::thread::spawn(move || {
            c.sleep(Duration::from_secs(3600));
            c.now()
        });
        while !clock.advance_if(Duration::from_secs(1800), |w| w.asleep == 1) {
            std::thread::yield_now();
        }
        assert!(!sleeper.is_finished(), "woke half way");
        clock.advance(Duration::from_secs(1800));
        assert_eq!(sleeper.join().unwrap(), Duration::from_secs(3600));
    }

    #[test]
    fn a_wait_ends_on_a_notify_whose_condition_holds_or_at_its_time() {
        let (clock, flag) = (Arc::new(ManualClock::new()), Arc::new(Mutex::new(false)));
        let (c, f) = (Arc::clone(&clock), Arc::clone(&flag));
        let waiter = std::thread::spawn(move || {
            let ready = c.wait_until(Duration::MAX, &mut |_| *f.lock().unwrap());
            (ready, c.wait_until(Duration::from_secs(5), &mut |_| false))
        });
        *flag.lock().unwrap() = true;
        clock.notify();
        while !clock.advance_if(Duration::from_secs(5), |w| w.waiting == 1) {
            std::thread::yield_now();
        }
        assert_eq!(waiter.join().unwrap(), (true, false));
    }
}
