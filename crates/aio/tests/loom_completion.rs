//! Model-checked completion/drain protocol
//! (`RUSTFLAGS="--cfg loom" cargo test -p mlp-aio --test loom_completion`).
//!
//! Exercises the extracted [`mlp_aio::CompletionSlot`]/
//! [`mlp_aio::PendingGauge`] protocol — the code the engine workers
//! actually run — including a regression model for the PR 2 stuck-waiter
//! bug: a worker path that skips publishing leaves `take_blocking` parked
//! forever, and the checker must find that schedule.

#![cfg(loom)]

use mlp_aio::{CompletionSlot, PendingGauge};
use mlp_sync::thread;
use std::sync::Arc;

#[test]
fn publish_and_take_terminate_under_all_schedules() {
    // Publisher racing the waiter: whether the publish lands before or
    // after the waiter parks, every schedule must deliver the value.
    mlp_sync::model::model(|| {
        let slot = Arc::new(CompletionSlot::new());
        let s = Arc::clone(&slot);
        let worker = thread::spawn(move || {
            s.publish(42u32);
        });
        assert_eq!(slot.take_blocking(), 42);
        let _ = worker.join();
    });
}

#[test]
fn stuck_waiter_bug_is_detected_when_publish_is_skipped() {
    // Regression model for the PR 2 bug: the worker's unwind path
    // completed without publishing anything into the op's slot, so the
    // waiter blocked forever. Reverting that fix == skipping the publish;
    // the checker must report the stuck schedule as a deadlock.
    mlp_sync::model::expect_deadlock(|| {
        let slot = Arc::new(CompletionSlot::<Result<(), String>>::new());
        let s = Arc::clone(&slot);
        thread::spawn(move || {
            let backend_panicked = true; // injected fault
            if !backend_panicked {
                s.publish(Ok(()));
            }
            // BUG (intentional): no poison publication on the unwind path.
        });
        let _ = slot.take_blocking();
    });
}

#[test]
fn poisoned_publish_unsticks_the_waiter() {
    // The PR 2 fix: the unwind path publishes an error instead of
    // nothing. Same model as above with the fix applied — no schedule
    // may deadlock.
    mlp_sync::model::model(|| {
        let slot = Arc::new(CompletionSlot::<Result<(), String>>::new());
        let s = Arc::clone(&slot);
        thread::spawn(move || {
            let backend_panicked = true; // injected fault
            if backend_panicked {
                s.publish(Err("worker panicked".into()));
            } else {
                s.publish(Ok(()));
            }
        });
        assert!(slot.take_blocking().is_err());
    });
}

#[test]
fn drain_waits_for_every_completion() {
    mlp_sync::model::model(|| {
        let gauge = Arc::new(PendingGauge::new());
        gauge.inc();
        gauge.inc();
        let mut workers = Vec::new();
        for _ in 0..2 {
            let g = Arc::clone(&gauge);
            workers.push(thread::spawn(move || g.dec()));
        }
        gauge.drain();
        assert_eq!(gauge.current(), 0);
        for w in workers {
            let _ = w.join();
        }
    });
}

#[test]
fn drain_observes_completions_of_concurrent_submitters() {
    // The engine's op path end to end: two submitter threads each `inc`
    // the gauge and queue an op (handed over by join: the explorer
    // cannot schedule the engine's channel); one worker publishes each
    // completion, then retires it, racing a drain on this thread that
    // must return only once both completions are published.
    mlp_sync::model::model(|| {
        let gauge = Arc::new(PendingGauge::new());
        let submitters: Vec<_> = (0..2u32)
            .map(|i| {
                let g = Arc::clone(&gauge);
                thread::spawn(move || {
                    g.inc();
                    (i, Arc::new(CompletionSlot::new()))
                })
            })
            .collect();
        let ops: Vec<_> = submitters.into_iter().filter_map(|t| t.join().ok()).collect();
        let handles: Vec<_> = ops.iter().map(|(i, slot)| (*i, Arc::clone(slot))).collect();
        let g = Arc::clone(&gauge);
        let worker = thread::spawn(move || {
            for (i, slot) in ops {
                slot.publish(i);
                g.dec();
            }
        });
        gauge.drain();
        assert_eq!(handles.len(), 2);
        for (i, slot) in handles {
            assert!(slot.is_set(), "drain returned before op {i} was published");
            assert_eq!(slot.take_blocking(), i);
        }
        let _ = worker.join();
    });
}

#[test]
fn publish_happens_before_gauge_retirement() {
    // The worker-loop ordering invariant: the completion must be
    // published before the op retires from the pending gauge, otherwise
    // a drainer could observe "all done" while a waiter still blocks on
    // the in-flight result.
    mlp_sync::model::model(|| {
        let slot = Arc::new(CompletionSlot::new());
        let gauge = Arc::new(PendingGauge::new());
        gauge.inc();
        let (s, g) = (Arc::clone(&slot), Arc::clone(&gauge));
        let worker = thread::spawn(move || {
            s.publish(7u32);
            g.dec();
        });
        gauge.drain();
        assert!(
            slot.is_set(),
            "drain returned while the completion was unpublished"
        );
        assert_eq!(slot.take_blocking(), 7);
        let _ = worker.join();
    });
}

#[test]
fn retiring_before_publishing_is_caught() {
    // Flip the worker's ordering (the bug the invariant above guards
    // against) and require the checker to find the schedule where drain
    // returns early.
    let caught = std::panic::catch_unwind(|| {
        mlp_sync::model::model(|| {
            let slot = Arc::new(CompletionSlot::new());
            let gauge = Arc::new(PendingGauge::new());
            gauge.inc();
            let (s, g) = (Arc::clone(&slot), Arc::clone(&gauge));
            let worker = thread::spawn(move || {
                g.dec(); // BUG (intentional): retired before publishing
                s.publish(7u32);
            });
            gauge.drain();
            assert!(
                slot.is_set(),
                "drain returned while the completion was unpublished"
            );
            let _ = worker.join();
        });
    });
    assert!(
        caught.is_err(),
        "the checker must find the early-drain schedule"
    );
}
