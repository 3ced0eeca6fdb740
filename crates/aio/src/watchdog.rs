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
//! Deadlines are read off the engine's clock
//! ([`AioConfig::clock`](crate::AioConfig::clock)) and registered in
//! submission order, and every op shares one deadline duration, so the
//! queue is sorted: the supervisor waits on the clock for the front
//! entry's expiry and times ops out inside that wait, so a
//! `mlp_testkit::ManualClock` that moves past a deadline returns only
//! once the op is answered. Cost when idle: one parked thread.

use std::collections::VecDeque;
use std::sync::Weak;
use std::time::Duration;

use mlp_sync::{thread, Arc, Mutex};

use crate::engine::{EngineShared, OpState};

/// One supervised in-flight op. `Weak` so the watchdog never extends an
/// op's lifetime: a consumed-and-dropped op simply fails to upgrade.
struct Entry {
    state: Weak<OpState>,
    key: String,
    expires: Duration,
}

/// The supervised ops, oldest first; `None` once the watchdog is dropped.
type Queue = Mutex<Option<VecDeque<Entry>>>;

/// Supervises in-flight ops for one engine; see the [module docs](self).
pub(crate) struct Watchdog {
    shared: Arc<EngineShared>,
    queue: Arc<Queue>,
    handle: Option<thread::JoinHandle<()>>,
    deadline: Duration,
}

impl Watchdog {
    /// Spawns the supervisor thread for `shared`, enforcing `deadline`
    /// on every subsequently registered op.
    pub(crate) fn spawn(shared: Arc<EngineShared>, deadline: Duration) -> Self {
        let queue = Arc::new(Mutex::new(Some(VecDeque::new())));
        let (s, q) = (Arc::clone(&shared), Arc::clone(&queue));
        #[expect(clippy::expect_used, reason = "spawned once, at engine construction")]
        let handle = thread::Builder::new()
            .name(format!("aio-watchdog-{}", shared.backend.name()))
            .spawn(move || supervise(&s, &q, deadline))
            .expect("spawn aio watchdog");
        Watchdog {
            shared,
            queue,
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
            expires: self.shared.clock.now().saturating_add(self.deadline),
        };
        let first = (self.queue.lock().as_mut()).is_some_and(|queue| {
            queue.push_back(entry);
            queue.len() == 1
        });
        // With none queued, the supervisor waits for this one.
        if first {
            self.shared.clock.notify();
        }
    }
}

impl Drop for Watchdog {
    /// Closes the queue and joins the supervisor. The engine drops its
    /// watchdog after joining its workers, so every op is answered by then.
    fn drop(&mut self) {
        self.queue.lock().take();
        self.shared.clock.notify();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// The supervisor loop: waits on the engine's clock for the front
/// entry's expiry (with none queued, for a registration) and times out
/// every expired entry, until the queue closes.
fn supervise(shared: &EngineShared, queue: &Queue, deadline: Duration) {
    // The expiry waited for: `MAX` with none queued, `None` once closed.
    let mut front = Some(Duration::MAX);
    while let Some(until) = front {
        shared.clock.wait_until(until, &mut |now| {
            front = queue.lock().as_mut().map(|queue| {
                while let Some(entry) = queue.pop_front_if(|e| e.expires <= now) {
                    if let Some(state) = entry.state.upgrade() {
                        shared.time_out(&entry.key, &state, deadline);
                    }
                }
                queue.front().map_or(Duration::MAX, |e| e.expires)
            });
            front != Some(until)
        });
    }
}
