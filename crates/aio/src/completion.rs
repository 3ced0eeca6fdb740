//! The engine's completion/drain protocol, extracted onto the
//! [`mlp_sync`] facade so the exact code the workers run is also the code
//! the model checker explores (`tests/loom_completion.rs`).
//!
//! Two pieces:
//!
//! * [`CompletionSlot`] — single-producer completion hand-off: the worker
//!   publishes exactly one result, any number of waiters block until it
//!   lands, one of them consumes it. The PR 2 stuck-waiter bug lived
//!   here: a worker path that skipped the publish left `take_blocking`
//!   parked forever. The loom suite proves (a) publish-before-wait and
//!   wait-before-publish orders both terminate, and (b) the checker still
//!   *detects* the skipped-publish variant as a deadlock.
//! * [`PendingGauge`] — the submitted-but-not-completed count behind
//!   [`crate::AioEngine::drain`]. Invariant: every `inc` (by a submitter)
//!   is matched by exactly one `dec` (by the worker or watchdog that
//!   published the op's completion first), and `drain` returns only once
//!   the count reaches zero with no completion unaccounted (no lost
//!   `all_done` wakeup).

use mlp_sync::{Condvar, Mutex};

/// A write-once, take-once completion slot with blocking consumers.
///
/// Ordering contract: the publisher's writes to the payload happen-before
/// the consumer's reads because both run under the slot's mutex; no
/// additional fencing is required of callers.
pub struct CompletionSlot<T> {
    value: Mutex<Slot<T>>,
    done: Condvar,
}

/// Guarded state: the pending value plus a *sticky* published flag. The
/// flag (not `value.is_some()`) arbitrates first-publication-wins, so a
/// publication that lands after the winner was already consumed still
/// loses — the deadline watchdog and a late real completion race exactly
/// this way, and both use the return of [`CompletionSlot::publish`] to
/// decide who retires the op from the pending gauge.
struct Slot<T> {
    value: Option<T>,
    published: bool,
}

impl<T> CompletionSlot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        CompletionSlot {
            value: Mutex::new(Slot {
                value: None,
                published: false,
            }),
            done: Condvar::new(),
        }
    }

    /// Publishes the result and wakes every waiter. The first publication
    /// wins — *ever*: a second one is dropped even if the first was
    /// already consumed, so an unwind-path poisoner or deadline watchdog
    /// racing a late success cannot overwrite or re-arm the result.
    /// Returns whether this call was the winning publication.
    // lint:hot-root — completion hand-off, runs on every worker thread
    pub fn publish(&self, value: T) -> bool {
        self.publish_with(value, || {})
    }

    /// [`CompletionSlot::publish`], running `on_win` if this publication
    /// wins — before any waiter can observe the value, so whatever it
    /// records (the watchdog's timeout counters) is visible to a caller
    /// the moment its `wait` returns.
    pub fn publish_with(&self, value: T, on_win: impl FnOnce()) -> bool {
        let mut guard = self.value.lock();
        if guard.published {
            return false;
        }
        on_win();
        guard.value = Some(value);
        guard.published = true;
        // Notify while still holding the lock: a waiter observing the
        // condvar must find the value already set (no lost wakeup window).
        self.done.notify_all();
        true
    }

    /// Runs `f` under the slot's lock unless a value was ever published:
    /// an I/O worker reports an attempt to the tier breaker only while
    /// the watchdog has not timed its op out.
    pub(crate) fn if_unpublished(&self, f: impl FnOnce()) {
        let guard = self.value.lock();
        if !guard.published {
            f();
        }
    }

    /// Blocks until a value is published, then consumes it. At most one
    /// caller gets the value; concurrent callers after it keep waiting —
    /// the engine hands each `OpHandle` to a single waiter by move, so
    /// that cannot arise there.
    // lint:hot-root — completion hand-off, runs on every waiter thread
    pub fn take_blocking(&self) -> T {
        let mut guard = self.value.lock();
        loop {
            match guard.value.take() {
                Some(v) => return v,
                None => self.done.wait(&mut guard),
            }
        }
    }

    /// Whether a value is currently published (and not yet consumed).
    pub fn is_set(&self) -> bool {
        self.value.lock().value.is_some()
    }
}

impl<T> Default for CompletionSlot<T> {
    fn default() -> Self {
        CompletionSlot::new()
    }
}

/// Count of submitted-but-uncompleted operations with a blocking
/// completion barrier.
pub struct PendingGauge {
    pending: Mutex<usize>,
    all_done: Condvar,
}

impl PendingGauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        PendingGauge {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
        }
    }

    /// Records a submission. Called before the op is enqueued, so the
    /// count can only ever over-approximate completions still owed —
    /// `drain` may wait a moment longer, never return early.
    pub fn inc(&self) {
        *self.pending.lock() += 1;
    }

    /// Records a completion; wakes drainers when the count hits zero.
    /// The notify happens under the mutex, pairing with the re-check loop
    /// in [`PendingGauge::drain`]: a drainer cannot park between reading
    /// a non-zero count and the notification for its decrement.
    pub fn dec(&self) {
        let mut pending = self.pending.lock();
        *pending = pending.saturating_sub(1);
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    /// Current submitted-but-uncompleted count.
    pub fn current(&self) -> usize {
        *self.pending.lock()
    }

    /// Blocks until the count reaches zero.
    // lint:hot-root — completion barrier behind `AioEngine::drain`
    pub fn drain(&self) {
        let mut pending = self.pending.lock();
        while *pending > 0 {
            self.all_done.wait(&mut pending);
        }
    }
}

impl Default for PendingGauge {
    fn default() -> Self {
        PendingGauge::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn publish_then_take() {
        let slot = CompletionSlot::new();
        assert!(!slot.is_set());
        assert!(slot.publish(7));
        assert!(slot.is_set());
        assert_eq!(slot.take_blocking(), 7);
        assert!(!slot.is_set());
    }

    #[test]
    fn first_publication_wins() {
        let slot = CompletionSlot::new();
        assert!(slot.publish(1));
        assert!(!slot.publish(2));
        assert_eq!(slot.take_blocking(), 1);
    }

    /// A publication arriving after the winner was consumed must still
    /// lose: the watchdog/late-completion race decides pending-gauge
    /// retirement off this return value, and a "win" here would retire
    /// the op twice.
    #[test]
    fn late_publication_after_consume_still_loses() {
        let slot = CompletionSlot::new();
        assert!(slot.publish(1));
        assert_eq!(slot.take_blocking(), 1);
        assert!(!slot.publish(2), "slot re-armed after consume");
        assert!(!slot.is_set());
    }

    #[test]
    fn take_blocks_until_published() {
        let slot = Arc::new(CompletionSlot::new());
        let s2 = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || s2.take_blocking());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(slot.publish(42));
        assert_eq!(waiter.join().unwrap(), 42);
    }

    #[test]
    fn gauge_counts_and_drains() {
        let g = PendingGauge::new();
        g.inc();
        g.inc();
        assert_eq!(g.current(), 2);
        g.dec();
        g.dec();
        assert_eq!(g.current(), 0);
        g.drain(); // already zero: returns immediately
    }

    #[test]
    fn drain_waits_for_outstanding_completions() {
        let g = Arc::new(PendingGauge::new());
        for _ in 0..4 {
            g.inc();
        }
        let g2 = Arc::clone(&g);
        let finisher = std::thread::spawn(move || {
            for _ in 0..4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
                g2.dec();
            }
        });
        g.drain();
        assert_eq!(g.current(), 0);
        finisher.join().unwrap();
    }
}
