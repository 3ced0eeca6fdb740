//! Holder-FIFO fairness stress test for [`ProcessExclusiveLock`]
//! (real threads, no model checker — complements `tests/loom_lock.rs`,
//! which proves the small-schedule cases exhaustively).
//!
//! Scenario: holder 0 pre-holds the tier; N contending holder groups of
//! M threads each are then enqueued in a known order (group k+1 is only
//! spawned once holder k is visible in the waiter queue). When holder 0
//! releases, the grant log must show the groups in strict enqueue order,
//! each group's M shares contiguous — any queue-jumping holder or
//! cross-holder interleaving breaks the sequence. A per-group barrier
//! *inside* the critical section additionally proves that the M shares
//! of one holder genuinely overlap (the barrier would deadlock if shares
//! excluded each other).

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use mlp_aio::ProcessExclusiveLock;

/// Number of contending holder groups (holders 1..=GROUPS).
const GROUPS: usize = 6;
/// Threads (= shares) per holder group.
const SHARES: usize = 4;

fn wait_until(deadline: Instant, what: &str, mut cond: impl FnMut() -> bool) {
    while !cond() {
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; deadlock or lost wakeup?"
        );
        std::thread::yield_now();
    }
}

#[test]
fn contended_grants_are_holder_fifo_and_shares_overlap() {
    let lock = ProcessExclusiveLock::new();
    let grants: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
    let deadline = Instant::now() + Duration::from_secs(60);

    // Holder 0 pre-holds so every group below must queue.
    let held = lock.acquire(0);
    assert_eq!(lock.owner(), Some(0));

    let mut handles = Vec::new();
    for holder in 1..=GROUPS {
        // All SHARES threads of this holder enter the critical section
        // together: each records its grant, then waits on the group
        // barrier *while still holding its share*.
        let barrier = Arc::new(Barrier::new(SHARES));
        for _ in 0..SHARES {
            let lock = lock.clone();
            let grants = Arc::clone(&grants);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let g = lock.acquire(holder);
                grants.lock().unwrap().push(holder);
                barrier.wait();
                drop(g);
            }));
        }
        // Gate the next group on this holder being visibly enqueued, so
        // the expected FIFO order 1, 2, .., GROUPS is fully determined.
        let lock = lock.clone();
        wait_until(deadline, &format!("holder {holder} to enqueue"), || {
            lock.waiters().contains(&holder)
        });
    }

    assert_eq!(
        lock.waiters(),
        (1..=GROUPS).collect::<Vec<_>>(),
        "all groups queued behind holder 0 in spawn order"
    );

    drop(held);
    for h in handles {
        h.join().expect("contender thread panicked");
    }

    let log = grants.lock().unwrap().clone();
    assert_eq!(log.len(), GROUPS * SHARES, "every share was granted");

    // Strict holder-FIFO: collapsing consecutive duplicates must yield
    // exactly 1, 2, .., GROUPS — a single out-of-order or interleaved
    // grant produces either a wrong sequence or extra runs.
    let mut runs: Vec<usize> = Vec::new();
    for &h in &log {
        if runs.last() != Some(&h) {
            runs.push(h);
        }
    }
    assert_eq!(
        runs,
        (1..=GROUPS).collect::<Vec<_>>(),
        "grant log {log:?} violates holder-FIFO order"
    );

    assert_eq!(lock.owner(), None, "all shares returned");
    assert!(lock.waiters().is_empty(), "queue drained");
}

#[test]
fn late_arrivals_queue_behind_existing_waiters() {
    // A holder that shows up while the queue is non-empty must not
    // overtake it, even if the lock momentarily frees up: the release
    // hand-off only admits the queue head.
    let lock = ProcessExclusiveLock::new();
    let deadline = Instant::now() + Duration::from_secs(60);

    let held = lock.acquire(0);
    let l1 = lock.clone();
    let t1 = std::thread::spawn(move || {
        let _g = l1.acquire(1);
        l1.waiters().first().copied()
    });
    {
        let l = lock.clone();
        wait_until(deadline, "holder 1 to enqueue", || l.waiters().contains(&1));
    }
    // Holder 2 arrives second; it must still be queued when holder 1 is
    // granted (observed from inside holder 1's critical section).
    let l2 = lock.clone();
    let t2 = std::thread::spawn(move || {
        let _g = l2.acquire(2);
    });
    {
        let l = lock.clone();
        wait_until(deadline, "holder 2 to enqueue", || l.waiters().contains(&2));
    }

    drop(held);
    let seen_by_1 = t1.join().expect("holder 1 thread panicked");
    assert_eq!(
        seen_by_1,
        Some(2),
        "holder 2 still queued while holder 1 held the tier"
    );
    t2.join().expect("holder 2 thread panicked");
    assert_eq!(lock.owner(), None);
}
