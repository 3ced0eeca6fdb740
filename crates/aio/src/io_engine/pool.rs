//! The bounded-queue worker-pool engine — the original `AioEngine`
//! execution model, and the crate's only channel + workers +
//! join-on-drop body (the `sync` engine's deadline mode borrows it with
//! one worker).
//!
//! `workers` threads loop over a `std::sync::mpsc::sync_channel` bounded
//! at `queue_depth` (submission blocks when full, modelling a bounded
//! kernel submission queue) and run every op through the shared portable
//! path. The receiver sits behind one facade `Mutex`: one idle worker
//! parks in `recv`, the others queue on the lock, and the lock is
//! released before the op runs. Fully backend-agnostic: decorators, in-memory backends, and
//! directory backends all behave identically.

use std::sync::mpsc::{sync_channel, SyncSender};

use mlp_sync::{thread, Arc, Mutex};

use super::{EngineShared, IoEngine};
use crate::engine::Op;

pub(crate) struct PoolEngine {
    /// `Option` so Drop can close the channel before joining.
    tx: Option<SyncSender<Op>>,
    workers: Vec<thread::JoinHandle<()>>,
    shared: Arc<EngineShared>,
}

impl PoolEngine {
    pub(crate) fn new(shared: Arc<EngineShared>, workers: usize, queue_depth: usize) -> Self {
        let (tx, rx) = sync_channel::<Op>(queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        #[expect(clippy::expect_used, reason = "spawned once, at engine construction")]
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("aio-{}-{}", shared.backend.name(), i))
                    .spawn(move || loop {
                        // The receiver lock *is* the idle-worker queue: one
                        // worker parks in `recv`, the rest park on the lock,
                        // and nothing else ever takes it. A statement of its
                        // own, so the guard drops before the op runs.
                        let next = rx.lock().recv();
                        match next {
                            Ok(op) => shared.run_op(op),
                            Err(_) => break,
                        }
                    })
                    .expect("spawn aio worker")
            })
            .collect();
        PoolEngine {
            tx: Some(tx),
            workers: handles,
            shared,
        }
    }
}

impl IoEngine for PoolEngine {
    fn submit(&self, op: Op) {
        // `tx` is Some until Drop, and submit cannot race Drop (it takes
        // `&self`, Drop takes `&mut self`); the disconnected-channel arm
        // would need every worker dead, which run_op's catch_unwind makes
        // unreachable in practice. Either way: poison the op rather than
        // panicking or losing its waiter.
        match self.tx.as_ref() {
            Some(tx) => {
                if let Err(err) = tx.send(op) {
                    self.shared.reject(err.0);
                }
            }
            None => self.shared.reject(op),
        }
    }
}

impl Drop for PoolEngine {
    /// Closes the submission queue and joins the workers; queued ops
    /// complete (and publish) first.
    fn drop(&mut self) {
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}
