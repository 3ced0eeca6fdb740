//! The completion slot every aio op settles into, on the [`mlp_sync`]
//! facade so the exact code the workers run is also the code the model
//! checker explores (`tests/loom_completion.rs`).
//!
//! [`CompletionSlot`] is a single-producer hand-off with at most one early
//! answer: the worker publishes the op's outcome exactly once, one waiter
//! takes the answer. A stuck-waiter bug once lived here: a worker path
//! that skipped the publish left `take_blocking` parked forever. The loom
//! suite proves (a) publish-before-wait and wait-before-publish orders
//! both terminate, and (b) the checker still *detects* the
//! skipped-publish variant as a deadlock.
//!
//! The deadline watchdog answers an op early, with a typed timeout. The
//! worker's own outcome then lands later and is kept in the slot as the
//! op's *late settlement*, handed out once by
//! [`CompletionSlot::take_late`]: a failed write's frame survives until a
//! reconcile asks for it (or the slot drops), and whoever abandoned the
//! op can learn whether its write landed.

use mlp_sync::{Condvar, Mutex};

/// A write-once completion slot with one blocking consumer and an
/// optional early answer; see the [module docs](self).
///
/// Ordering contract: the publisher's writes to the payload happen-before
/// the consumer's reads because both run under the slot's mutex; no
/// additional fencing is required of callers.
pub struct CompletionSlot<T> {
    slot: Mutex<Slot<T>>,
    done: Condvar,
}

/// Guarded state. Being `Answered` is sticky, so a publication that lands
/// after the answer was taken still loses the race for it.
enum Slot<T> {
    /// Nothing published yet.
    Open,
    /// The waiter's `answer` until taken. `early` when
    /// [`CompletionSlot::publish_early`] beat the producer, whose own
    /// value then lands in `late`.
    Answered {
        answer: Option<T>,
        early: bool,
        late: Option<T>,
    },
}

impl<T> CompletionSlot<T> {
    /// Creates an empty slot.
    pub fn new() -> Self {
        CompletionSlot {
            slot: Mutex::new(Slot::Open),
            done: Condvar::new(),
        }
    }

    /// The producer's one publication. It answers the waiter unless an
    /// early answer came first; then it is kept as the late settlement
    /// ([`CompletionSlot::take_late`]). Returns whether it answered.
    // lint:hot-root — completion hand-off, runs on every worker thread
    pub fn publish(&self, value: T) -> bool {
        let mut guard = self.slot.lock();
        match &mut *guard {
            Slot::Open => {
                *guard = Slot::Answered {
                    answer: Some(value),
                    early: false,
                    late: None,
                };
                // Notify while still holding the lock: a waiter observing
                // the condvar must find the value already set.
                self.done.notify_all();
                true
            }
            Slot::Answered { late, .. } => {
                *late = Some(value);
                false
            }
        }
    }

    /// Answers the waiter ahead of the producer (the deadline watchdog),
    /// running `on_win` first if this wins — before any waiter can observe
    /// the answer, so whatever it records (the timeout counters) is
    /// visible to a caller the moment its wait returns. Returns whether it
    /// won; it loses to any earlier publication.
    pub fn publish_early(&self, value: T, on_win: impl FnOnce()) -> bool {
        let mut guard = self.slot.lock();
        if !matches!(*guard, Slot::Open) {
            return false;
        }
        on_win();
        *guard = Slot::Answered {
            answer: Some(value),
            early: true,
            late: None,
        };
        self.done.notify_all();
        true
    }

    /// Runs `f` under the slot's lock unless the op was answered: an I/O
    /// worker reports an attempt to the tier breaker only while the
    /// watchdog has not timed its op out.
    pub(crate) fn if_unanswered(&self, f: impl FnOnce()) {
        let guard = self.slot.lock();
        if matches!(*guard, Slot::Open) {
            f();
        }
    }

    /// Blocks until the op is answered, then takes the answer; `None` if
    /// an earlier call already took it.
    // lint:hot-root — completion hand-off, runs on every waiter thread
    pub fn take_blocking(&self) -> Option<T> {
        let mut guard = self.slot.lock();
        loop {
            match &mut *guard {
                Slot::Open => self.done.wait(&mut guard),
                Slot::Answered { answer, .. } => return answer.take(),
            }
        }
    }

    /// Whether an answer is waiting to be taken.
    pub fn is_set(&self) -> bool {
        matches!(
            &*self.slot.lock(),
            Slot::Answered {
                answer: Some(_),
                ..
            }
        )
    }

    /// Whether an early answer beat the producer, so its settlement comes
    /// (or came) late.
    pub fn answered_early(&self) -> bool {
        matches!(&*self.slot.lock(), Slot::Answered { early: true, .. })
    }

    /// Takes the producer's late settlement: `None` while it is still
    /// owed, after it was taken, or when the producer's value was the
    /// answer itself.
    pub fn take_late(&self) -> Option<T> {
        match &mut *self.slot.lock() {
            Slot::Open => None,
            Slot::Answered { late, .. } => late.take(),
        }
    }
}

impl<T> Default for CompletionSlot<T> {
    fn default() -> Self {
        CompletionSlot::new()
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
        assert_eq!(slot.take_blocking(), Some(7));
        assert!(!slot.is_set());
        assert_eq!(slot.take_blocking(), None, "the answer is taken once");
    }

    #[test]
    fn first_publication_wins() {
        let slot = CompletionSlot::new();
        assert!(slot.publish(1));
        assert!(!slot.publish_early(2, || panic!("a losing early answer ran on_win")));
        assert_eq!(slot.take_blocking(), Some(1));
        assert!(!slot.answered_early());
        assert_eq!(slot.take_late(), None, "the answer was the settlement");
    }

    /// A producer publication arriving after an early answer was consumed
    /// must still lose — the watchdog/late-completion race decides the
    /// inflight count off this return value — and is kept, once, as the
    /// late settlement.
    #[test]
    fn a_publication_after_an_early_answer_is_the_late_settlement() {
        let slot = CompletionSlot::new();
        let mut won = false;
        assert!(slot.publish_early(1, || won = true));
        assert!(won);
        assert_eq!(slot.take_blocking(), Some(1));
        assert!(slot.answered_early());
        assert_eq!(slot.take_late(), None, "nothing landed yet");
        assert!(!slot.publish(2), "slot re-armed after consume");
        assert!(!slot.is_set());
        assert_eq!(slot.take_late(), Some(2));
        assert_eq!(slot.take_late(), None, "the settlement is handed out once");
    }

    #[test]
    fn take_blocks_until_published() {
        let slot = Arc::new(CompletionSlot::new());
        let s2 = Arc::clone(&slot);
        let waiter = std::thread::spawn(move || s2.take_blocking());
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(slot.publish(42));
        assert_eq!(waiter.join().unwrap(), Some(42));
    }
}
