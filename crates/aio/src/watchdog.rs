//! The per-op deadline watchdog behind [`AioConfig::deadline`]
//! (crate::AioConfig::deadline).
//!
//! A hung storage tier — an NFS mount gone stale, an object store that
//! stopped answering, a latency fault far beyond any SLO — used to hang
//! `wait`/`wait_flush` indefinitely: retries only help when the backend
//! call *returns*. The watchdog closes that gap at the protocol layer:
//! every submitted op is registered here before it reaches the
//! submission queue, and when its deadline expires without a completion
//! the watchdog answers the op's completion slot early with a typed
//! [`std::io::ErrorKind::TimedOut`] error and takes it off `inflight`.
//! Waiters unblock within the deadline, with an error the taxonomy
//! classifies transient. When the engine has a tier breaker
//! ([`mlp_storage::health`]) the timeout is recorded there as a failure,
//! so a tier that hangs consistently trips it like one that errors.
//!
//! The hung backend call itself keeps running (there is no portable way
//! to cancel a blocking syscall). When it eventually finishes, its
//! publication no longer answers anyone: the
//! [`CompletionSlot`](crate::CompletionSlot) keeps it as the op's late
//! settlement, the engine counts a *late completion*, and the breaker
//! hears nothing of it. Whoever abandoned the op can still learn how it
//! settled ([`OpHandle::late_flush`](crate::OpHandle::late_flush)) — a
//! write that landed late already changed the tier.
//!
//! Deadlines are registered in submission order and every op shares one
//! configured deadline duration, so the internal queue is naturally
//! sorted: the supervisor thread only ever sleeps until the front
//! entry's expiry. Cost when idle: one parked thread.

use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Weak;
use std::time::{Duration, Instant};

use mlp_sync::{thread, Arc};

use crate::engine::{EngineShared, OpState};

/// One supervised in-flight op. `Weak` so the watchdog never extends an
/// op's lifetime: a consumed-and-dropped op simply fails to upgrade.
struct Entry {
    state: Weak<OpState>,
    key: String,
    expires: Instant,
}

/// Supervises in-flight ops for one engine; see the [module docs](self).
pub(crate) struct Watchdog {
    /// `Option` so Drop can disconnect the channel before joining.
    tx: Option<Sender<Entry>>,
    handle: Option<thread::JoinHandle<()>>,
    deadline: Duration,
}

impl Watchdog {
    /// Spawns the supervisor thread for `shared`, enforcing `deadline`
    /// on every subsequently registered op.
    pub(crate) fn spawn(shared: Arc<EngineShared>, deadline: Duration) -> Self {
        let (tx, rx) = channel::<Entry>();
        #[expect(clippy::expect_used, reason = "spawned once, at engine construction")]
        let handle = thread::Builder::new()
            .name(format!("aio-watchdog-{}", shared.backend.name()))
            .spawn(move || supervise(&shared, &rx, deadline))
            .expect("spawn aio watchdog");
        Watchdog {
            tx: Some(tx),
            handle: Some(handle),
            deadline,
        }
    }

    /// Registers an op. Called before the op is queued, so it is
    /// supervised from the moment a worker can pick it up.
    pub(crate) fn register(&self, key: &str, state: &Arc<OpState>) {
        let entry = Entry {
            state: Arc::downgrade(state),
            key: key.to_string(),
            expires: Instant::now() + self.deadline,
        };
        if let Some(tx) = &self.tx {
            // A send error means the supervisor exited (only possible
            // mid-teardown); the op then simply runs unsupervised.
            let _ = tx.send(entry);
        }
    }
}

impl Drop for Watchdog {
    /// Disconnects the registration channel and joins the supervisor;
    /// entries still queued are checked once more on the way out.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The supervisor loop: accept registrations, time out the expired.
/// Entries arrive in deadline order (one shared deadline duration), so
/// only the front of the queue can expire next.
fn supervise(shared: &EngineShared, rx: &Receiver<Entry>, deadline: Duration) {
    let mut queue: VecDeque<Entry> = VecDeque::new();
    loop {
        let next = match queue.front() {
            Some(front) => {
                match rx.recv_timeout(front.expires.saturating_duration_since(Instant::now())) {
                    Ok(entry) => Some(entry),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
            None => match rx.recv() {
                Ok(entry) => Some(entry),
                Err(_) => break,
            },
        };
        if let Some(entry) = next {
            queue.push_back(entry);
        }
        expire_front(shared, &mut queue, deadline);
    }
    // Teardown: the engine keeps the watchdog alive while it joins its
    // workers, so a final sweep still times out ops a hung backend would
    // otherwise strand mid-drop.
    while let Some(front) = queue.front() {
        let wait = front.expires.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            // Sleep at most one leg at a time so a completed op's entry
            // (dead Weak) is discarded without waiting its full deadline.
            mlp_sync::thread::sleep(wait.min(Duration::from_millis(10)));
        }
        expire_front(shared, &mut queue, deadline);
        // Drop entries whose op already completed and was consumed.
        while queue.front().is_some_and(|e| e.state.upgrade().is_none()) {
            queue.pop_front();
        }
    }
}

/// Times out every expired entry at the front of the queue.
fn expire_front(shared: &EngineShared, queue: &mut VecDeque<Entry>, deadline: Duration) {
    let now = Instant::now();
    while queue.front().is_some_and(|e| e.expires <= now) {
        let Some(entry) = queue.pop_front() else {
            break;
        };
        let Some(state) = entry.state.upgrade() else {
            continue; // op completed and its handle was dropped
        };
        shared.time_out(&entry.key, &state, deadline);
    }
}
