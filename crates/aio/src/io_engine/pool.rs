//! The bounded-queue worker-pool engine — the original `AioEngine`
//! execution model, and the crate's only channel + workers +
//! join-on-drop body (the `sync` engine's deadline mode borrows it with
//! one worker).
//!
//! `workers` threads loop over a crossbeam channel bounded at
//! `queue_depth` (submission blocks when full, modelling a bounded
//! kernel submission queue) and run every op through the shared portable
//! path. Fully backend-agnostic: decorators, in-memory backends, and
//! directory backends all behave identically.

use mlp_sync::{thread, Arc};

use crossbeam::channel::{bounded, Sender};

use super::{EngineShared, IoEngine};
use crate::engine::Op;

pub(crate) struct PoolEngine {
    /// `Option` so Drop can close the channel before joining.
    tx: Option<Sender<Op>>,
    workers: Vec<thread::JoinHandle<()>>,
    shared: Arc<EngineShared>,
}

impl PoolEngine {
    pub(crate) fn new(shared: Arc<EngineShared>, workers: usize, queue_depth: usize) -> Self {
        let (tx, rx) = bounded::<Op>(queue_depth);
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("aio-{}-{}", shared.backend.name(), i))
                    .spawn(move || {
                        while let Ok(op) = rx.recv() {
                            shared.run_op(op);
                        }
                    })
                    // lint:allow(hot-path-panic): worker spawn happens once
                    // at engine construction, not on the per-op I/O path
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
                    self.shared.reject(err.into_inner());
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
