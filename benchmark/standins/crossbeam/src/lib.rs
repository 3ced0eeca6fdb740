//! Offline stand-in for `crossbeam`: only `channel::bounded`, as a
//! mutex-and-condvar MPMC queue. The real crate's bounded channel is
//! lock-free on the fast path, so the per-op handoff the benchmark
//! attributes to `aio` is an upper bound on what the real crate costs.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        capacity: usize,
        not_empty: Condvar,
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            // Every update leaves the queue valid at every step, so a
            // panicking peer cannot leave it half-written.
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }
    }

    pub struct Sender<T>(Arc<Shared<T>>);
    pub struct Receiver<T>(Arc<Shared<T>>);

    pub struct SendError<T>(pub T);

    impl<T> SendError<T> {
        pub fn into_inner(self) -> T {
            self.0
        }
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// A channel holding at most `capacity` messages (at least one: the
    /// program never asks for a rendezvous channel).
    pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::with_capacity(capacity.max(1)),
                senders: 1,
                receivers: 1,
            }),
            capacity: capacity.max(1),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Blocks while the channel is full; fails once every receiver is
        /// gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut st = self.0.lock();
            loop {
                if st.receivers == 0 {
                    return Err(SendError(msg));
                }
                if st.queue.len() < self.0.capacity {
                    st.queue.push_back(msg);
                    drop(st);
                    self.0.not_empty.notify_one();
                    return Ok(());
                }
                st = self.0.not_full.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks while the channel is empty; fails once it is empty and
        /// every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(msg) = st.queue.pop_front() {
                    drop(st);
                    self.0.not_full.notify_one();
                    return Ok(msg);
                }
                if st.senders == 0 {
                    return Err(RecvError);
                }
                st = self.0.not_empty.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.senders -= 1;
            if st.senders == 0 {
                drop(st);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut st = self.0.lock();
            st.receivers -= 1;
            if st.receivers == 0 {
                drop(st);
                self.0.not_full.notify_all();
            }
        }
    }
}
