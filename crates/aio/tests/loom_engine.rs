//! Model-checked engine-level submission/completion protocol
//! (`RUSTFLAGS="--cfg loom" cargo test -p mlp-aio --test loom_engine`).
//!
//! The pool engine parks its workers in `std::sync::mpsc` receives the
//! explorer cannot schedule; the **sync** engine, which runs every op
//! inline through the same `EngineShared::run_op` protocol, is the
//! model-checkable representative. What these schedules prove —
//! publish-before-retire ordering, no lost completion wakeups, drain
//! seeing every op — holds for the shared completion path both engines
//! funnel through.

#![cfg(loom)]

use std::sync::Arc;

use mlp_aio::{AioConfig, AioEngine, EngineKind};
use mlp_storage::{Backend, MemBackend};
use mlp_sync::thread;

fn sync_engine() -> AioEngine {
    AioEngine::new(
        Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
        AioConfig {
            engine: EngineKind::Sync,
            ..AioConfig::deterministic()
        },
    )
}

#[test]
fn concurrent_submit_and_wait_terminate_under_all_schedules() {
    mlp_sync::model::model(|| {
        let engine = Arc::new(sync_engine());
        let e2 = Arc::clone(&engine);
        let t = thread::spawn(move || {
            e2.submit_write("k", vec![1, 2, 3]).wait().unwrap();
        });
        let _ = t.join();
        // The writer's wait() returned before join, so the object is
        // published: a read in any schedule must observe it.
        let back = engine.submit_read("k").wait().unwrap().unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(engine.pending_ops(), 0);
    });
}

#[test]
fn drain_observes_ops_from_concurrent_submitters() {
    mlp_sync::model::model(|| {
        let engine = Arc::new(sync_engine());
        let mut handles = Vec::new();
        for i in 0..2u8 {
            let e = Arc::clone(&engine);
            handles.push(thread::spawn(move || {
                e.submit_write(&format!("k{i}"), vec![i; 8]);
            }));
        }
        for h in handles {
            let _ = h.join();
        }
        engine.drain();
        assert_eq!(engine.pending_ops(), 0, "drain left pending ops behind");
        let (_, writes) = engine.ops_completed();
        assert_eq!(writes, 2, "drain returned before both ops completed");
    });
}

#[test]
fn failed_op_completes_its_handle_in_every_schedule() {
    // Error completions go through the same publish-then-retire path;
    // a waiter on a failed op must never deadlock with a concurrent
    // successful op racing it.
    mlp_sync::model::model(|| {
        let engine = Arc::new(sync_engine());
        let e2 = Arc::clone(&engine);
        let t = thread::spawn(move || {
            let err = e2.submit_read("missing").wait();
            assert!(err.is_err(), "read of never-written key succeeded");
        });
        engine.submit_write("present", vec![9]).wait().unwrap();
        let _ = t.join();
        engine.drain();
        assert_eq!(engine.pending_ops(), 0);
    });
}
