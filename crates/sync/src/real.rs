//! Production resolution of the facade: `std` locks, atomics and threads.
//! The locks are thin wrappers that give `std::sync`'s futex-based
//! primitives the shape the protocols are written against (no poisoning,
//! `Condvar::wait(&mut guard)`); atomics and threads are re-exports.

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

pub use std::sync::Arc;

/// Mutual exclusion without lock poisoning: a holder that panicked leaves
/// the lock usable. The aio workers rely on this — `run_op` catches a
/// panicking backend and must still be able to publish the failure.
#[derive(Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

/// RAII guard for [`Mutex`]. The inner guard is `None` only while a
/// [`Condvar::wait`] owns it.
pub struct MutexGuard<'a, T>(Option<std::sync::MutexGuard<'a, T>>);

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // `None` only inside Condvar::wait, which holds the `&mut` guard
        // for the whole window.
        self.0
            .as_ref()
            .expect("guard is held outside Condvar::wait")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard is held outside Condvar::wait")
    }
}

/// Condition variable paired with [`Mutex`].
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// A condition variable with no waiters.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Atomically releases the guard's mutex and parks; the lock is held
    /// again when this returns. Spurious wakeups are possible: wait in a
    /// loop on the guarded condition.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if let Some(inner) = guard.0.take() {
            guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

impl std::fmt::Debug for Condvar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Condvar")
    }
}

/// Atomics used on the I/O hot paths. `Ordering` is re-exported so callers
/// never need to name `std::sync::atomic` directly (the workspace lint
/// flags that in ported crates).
pub mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning for engine workers. `scope` is re-exported for
/// fork/join fan-outs (the update kernels' `par_for_each`); the loom
/// model does not provide scoped threads, so loom-checked protocols must
/// stick to `spawn`/`JoinHandle`.
pub mod thread {
    pub use std::thread::{
        available_parallelism, scope, sleep, spawn, yield_now, Builder, JoinHandle, Scope,
        ScopedJoinHandle,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_is_still_lockable_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(1u32));
        let m2 = Arc::clone(&m);
        let died = thread::spawn(move || {
            let mut g = m2.lock();
            *g = 2;
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(
            *m.lock(),
            2,
            "the write before the panic is visible, the lock is not wedged"
        );
        *m.lock() += 1;
        assert_eq!(*m.lock(), 3);
    }

    #[test]
    fn condvar_hands_a_value_from_notifier_to_waiter() {
        let pair = Arc::new((Mutex::new(None::<u32>), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let waiter = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while g.is_none() {
                cv.wait(&mut g);
            }
            g.take()
        });
        let (m, cv) = &*pair;
        *m.lock() = Some(7);
        cv.notify_one();
        assert_eq!(waiter.join().ok().flatten(), Some(7));
        assert_eq!(
            *m.lock(),
            None,
            "the waiter held the lock again after wait returned"
        );
    }
}
