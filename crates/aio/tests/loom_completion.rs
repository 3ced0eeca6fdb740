//! Model-checked completion slot
//! (`RUSTFLAGS="--cfg loom" cargo test -p mlp-aio --test loom_completion`).
//!
//! Exercises [`mlp_aio::CompletionSlot`] — the code the engine workers
//! and the deadline watchdog actually run — including a regression model
//! for the stuck-waiter bug: a worker path that skips publishing
//! leaves `take_blocking` parked forever, and the checker must find that
//! schedule. It also explores the finish-stage claim ([`mlp_aio::StageClaim`])
//! raced by a worker whose read lands and a waiter that waits.

#![cfg(loom)]

use mlp_aio::{CompletionSlot, StageClaim};
use mlp_sync::thread;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn publish_and_take_terminate_under_all_schedules() {
    // Publisher racing the waiter: whether the publish lands before or
    // after the waiter parks, every schedule must deliver the value.
    mlp_sync::model::model(|| {
        let slot = Arc::new(CompletionSlot::new());
        let s = Arc::clone(&slot);
        let worker = thread::spawn(move || {
            s.publish(42u32, || {});
        });
        assert_eq!(slot.take_blocking(), Some(42));
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
                s.publish(Ok(()), || {});
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
                s.publish(Err("worker panicked".into()), || {});
            } else {
                s.publish(Ok(()), || {});
            }
        });
        assert!(slot.take_blocking().is_some_and(|r| r.is_err()));
    });
}

/// A failed write's staging frame; counts its drops.
struct Frame(Arc<AtomicUsize>);

impl Drop for Frame {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

type Settlement = Result<(), (&'static str, Option<Frame>)>;

#[test]
fn an_early_answer_and_a_late_failed_write_hand_the_frame_back_once() {
    // The watchdog's early answer races the worker's settlement of a
    // failed pooled write, and a reconcile asks for the settlement both
    // before and after the worker is done. Whoever wins, the waiter gets
    // exactly one answer, the settlement is observed exactly once, and the
    // frame comes back exactly once — in the worker's answer, or in the
    // late settlement — without being dropped while it can still be
    // asked for.
    mlp_sync::model::model(|| {
        let drops = Arc::new(AtomicUsize::new(0));
        let slot = Arc::new(CompletionSlot::<Settlement>::new());
        let (s, frame) = (Arc::clone(&slot), Frame(Arc::clone(&drops)));
        let worker = thread::spawn(move || s.publish(Err(("write failed", Some(frame))), || {}));
        let s = Arc::clone(&slot);
        let watchdog = thread::spawn(move || s.publish_early(Err(("timed out", None)), || {}));

        let answer = slot.take_blocking();
        assert!(slot.take_blocking().is_none(), "answered twice");
        let early = slot.take_late();
        let worker_won = worker.join().unwrap_or(false);
        let watchdog_won = watchdog.join().unwrap_or(false);
        assert!(worker_won != watchdog_won, "not exactly one answer");
        assert_eq!(slot.answered_early(), watchdog_won);
        let late = match early {
            Some(late) => Some(late),
            None => slot.take_late(),
        };
        assert!(slot.take_late().is_none(), "settlement observed twice");

        let (answer, late) = (answer.and_then(Result::err), late.and_then(Result::err));
        let frames = match (answer, late) {
            (Some(("write failed", frame)), None) if worker_won => frame,
            (Some(("timed out", None)), Some(("write failed", frame))) if watchdog_won => frame,
            _ => panic!("answer and settlement disagree with the winner"),
        };
        assert!(frames.is_some(), "the frame was lost");
        assert_eq!(drops.load(Ordering::SeqCst), 0, "dropped while still owed");
        drop(frames);
        drop(slot);
        assert_eq!(drops.load(Ordering::SeqCst), 1);
    });
}

#[test]
fn the_answers_callback_runs_before_the_waiter_wakes() {
    // The engine takes an op off its `inflight` gauge in the answering
    // publication's callback. Whether the worker or the watchdog answers,
    // a waiter whose wait returned must find the op already off the
    // gauge, and the losing publication must not take it off again.
    mlp_sync::model::model(|| {
        let inflight = Arc::new(AtomicUsize::new(1));
        let slot = Arc::new(CompletionSlot::<u32>::new());
        let off = |n: &Arc<AtomicUsize>| {
            let n = Arc::clone(n);
            move || {
                n.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let (s, answered) = (Arc::clone(&slot), off(&inflight));
        let worker = thread::spawn(move || s.publish(1, answered));
        let (s, answered) = (Arc::clone(&slot), off(&inflight));
        let watchdog = thread::spawn(move || s.publish_early(2, answered));

        assert!(slot.take_blocking().is_some());
        assert_eq!(
            inflight.load(Ordering::SeqCst),
            0,
            "woke before the callback"
        );
        let _ = worker.join();
        let _ = watchdog.join();
        assert_eq!(inflight.load(Ordering::SeqCst), 0, "taken off twice");
    });
}

#[test]
fn exactly_one_side_runs_the_stage_and_the_waiter_never_sees_it_unfinished() {
    // A staged read: the worker's read lands (the frame holds 1), it
    // claims the stage and, winning, runs it (+10) before it publishes;
    // the waiter claims when it waits and, winning, runs the stage after
    // it takes the frame. Under every schedule the stage runs exactly
    // once, and the frame the waiter ends with is finished.
    mlp_sync::model::model(|| {
        let slot = Arc::new(CompletionSlot::<u32>::new());
        let claim = Arc::new(StageClaim::new());
        let runs = Arc::new(AtomicUsize::new(0));
        let (s, c, r) = (Arc::clone(&slot), Arc::clone(&claim), Arc::clone(&runs));
        let worker = thread::spawn(move || {
            let mut frame = 1;
            if c.worker() {
                r.fetch_add(1, Ordering::SeqCst);
                frame += 10;
            }
            s.publish(frame, || {});
        });
        let mine = claim.waiter();
        let mut frame = slot.take_blocking().unwrap_or(0);
        if mine {
            runs.fetch_add(1, Ordering::SeqCst);
            frame += 10;
        }
        assert_eq!(
            frame, 11,
            "the waiter saw the frame before its stage finished"
        );
        let _ = worker.join();
        assert_eq!(
            runs.load(Ordering::SeqCst),
            1,
            "the stage ran {runs:?} times"
        );
    });
}
