//! Facade smoke tests under `--cfg loom`: prove that the crate-root
//! re-exports (`mlp_sync::Mutex`, `mlp_sync::Condvar`, `mlp_sync::thread`,
//! `mlp_sync::atomic`) resolve to the instrumented model types and behave
//! correctly inside the explorer. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p mlp-sync --test loom_facade
//! ```

#![cfg(loom)]

use mlp_sync::atomic::{AtomicUsize, Ordering};
use mlp_sync::model::model;
use mlp_sync::{thread, Arc, Condvar, Mutex};

#[test]
fn facade_mutex_serializes_increments() {
    model(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            *m2.lock() += 1;
        });
        *m.lock() += 1;
        let _ = t.join();
        assert_eq!(*m.lock(), 2);
    });
}

#[test]
fn facade_condvar_handoff_terminates_under_all_schedules() {
    model(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_one();
        }
        let _ = t.join();
    });
}

#[test]
fn facade_atomics_are_explored() {
    let report = model(|| {
        let a = Arc::new(AtomicUsize::new(0));
        let a2 = Arc::clone(&a);
        let t = thread::spawn(move || {
            a2.fetch_add(1, Ordering::Relaxed);
        });
        a.fetch_add(1, Ordering::Relaxed);
        let _ = t.join();
        assert_eq!(a.load(Ordering::Relaxed), 2);
    });
    assert!(
        report.schedules > 1,
        "atomic accesses must be decision points"
    );
}

#[test]
fn facade_builder_spawn_works_in_model() {
    model(|| {
        let t = thread::Builder::new()
            .name("worker".into())
            .spawn(|| 7u32)
            .expect("model spawn");
        assert_eq!(t.join().unwrap_or(0), 7);
    });
}
