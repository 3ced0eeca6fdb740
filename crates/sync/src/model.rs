//! A CHESS-style systematic concurrency tester.
//!
//! [`model`] runs a closure many times, each time under a different thread
//! interleaving, until the space of schedules is exhausted (or a
//! configured bound is hit). Threads are *real* OS threads, but they are
//! serialized by a token-passing scheduler: exactly one thread runs at a
//! time, and at every synchronization operation (lock, unlock, condvar
//! wait/notify, atomic access, spawn, join) the running thread hands the
//! token back to the scheduler, which picks the next runnable thread. The
//! pick is a *decision point*; the explorer depth-first-searches the tree
//! of decisions by replaying a recorded prefix and deviating at the last
//! branch with unexplored alternatives.
//!
//! What it catches:
//!
//! * **Deadlocks / lost wakeups** — if no thread is runnable and not all
//!   have finished, the schedule that got there is reported (or asserted,
//!   via [`expect_deadlock`]). A waiter parked on a condvar whose notify
//!   was consumed or never sent shows up exactly this way.
//! * **Assertion failures** — any panic inside the closure is reported
//!   with the schedule trace that produced it.
//! * **Notify races** — `notify_one` with several waiters is itself a
//!   decision point: every choice of woken thread is explored.
//!
//! What it does **not** catch: weak-memory effects. The instrumented
//! atomics execute sequentially consistent regardless of the `Ordering`
//! argument, so reorderings permitted by `Relaxed`/`Acquire`/`Release`
//! but forbidden under SC are invisible here. The workspace lint
//! (`cargo run -p xtask -- lint`) covers that gap statically: every
//! `Ordering::Relaxed` must be annotated as a pure counter, and published
//! state must use Acquire/Release pairs.
//!
//! The module is compiled unconditionally so the checker's own test-suite
//! runs in tier-1 CI; the facade types in the crate root only resolve to
//! [`sync`] under `--cfg loom`.
//!
//! lint:allow-file(transitive-panic): the checker aborts a schedule by
//! unwinding (`ExecAbort`) and reports user bugs by panicking with the
//! schedule trace — panics here are the mechanism, not a hazard, and the
//! production (`not(loom)`) facade never routes through this module.

use std::cell::RefCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc as StdArc, Condvar as StdCondvar, Mutex as StdMutex, Once};

/// Exploration bounds for [`model_with`].
#[derive(Clone, Debug)]
pub struct Options {
    /// Hard cap on schedules explored. [`model`] treats hitting the cap
    /// as an error (a truncated search silently proves nothing);
    /// [`model_with`] reports it in [`Report::truncated`] instead.
    pub max_schedules: usize,
    /// Bound on *preemptions* per schedule (context switches away from a
    /// still-runnable thread). Most real concurrency bugs manifest with
    /// very few preemptions (the CHESS observation), so a small bound
    /// keeps the search tractable while remaining effective. `None`
    /// explores the full interleaving space.
    pub max_preemptions: Option<u32>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_schedules: 200_000,
            max_preemptions: Some(2),
        }
    }
}

/// Outcome of an exploration.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of distinct schedules executed.
    pub schedules: usize,
    /// Number of schedules that ended in deadlock (only ever non-zero
    /// under [`expect_deadlock`]; [`model`]/[`model_with`] panic on the
    /// first deadlock instead of counting them).
    pub deadlocks: usize,
    /// True if `max_schedules` stopped the search before exhaustion.
    pub truncated: bool,
}

/// Explores every interleaving of `f` (subject to [`Options::default`]
/// bounds) and panics — with the offending schedule trace — on deadlock
/// or assertion failure. Panics if the bound truncates the search, since
/// a silently-bounded pass proves nothing; use [`model_with`] to accept
/// bounded searches explicitly.
pub fn model<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let opts = Options::default();
    let report = explore(opts, StdArc::new(f), Expectation::NoDeadlock);
    assert!(
        !report.truncated,
        "model(): schedule space not exhausted within {} schedules; \
         use model_with() to run a bounded search deliberately",
        report.schedules,
    );
    report
}

/// [`model`] with explicit bounds; hitting `max_schedules` is reported,
/// not fatal.
pub fn model_with<F>(opts: Options, f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    explore(opts, StdArc::new(f), Expectation::NoDeadlock)
}

/// Asserts that *some* interleaving of `f` deadlocks (no runnable thread
/// while threads remain unfinished). This is how regression tests prove a
/// protocol bug stays detectable: run the known-bad variant and require
/// the checker to find the stuck schedule. Assertion failures inside `f`
/// still propagate.
pub fn expect_deadlock<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    let report = explore(Options::default(), StdArc::new(f), Expectation::Deadlock);
    assert!(
        report.deadlocks > 0,
        "expect_deadlock(): no deadlock in any of {} schedules{}",
        report.schedules,
        if report.truncated { " (search truncated)" } else { "" },
    );
    report
}

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ThreadState {
    Runnable,
    /// Waiting to acquire the mutex; runnable once it is free.
    BlockedMutex(usize),
    /// Parked on a condvar; not runnable until a notify converts it to
    /// `BlockedMutex(mutex)`.
    Waiting { cv: usize, mutex: usize },
    /// Joining another thread; runnable once the target is finished.
    BlockedJoin(usize),
    Finished,
}

#[derive(Clone, Copy, Debug)]
struct Decision {
    pick: usize,
    n: usize,
}

struct ExecState {
    threads: Vec<ThreadState>,
    active: usize,
    /// Mutex id -> currently held.
    held: Vec<bool>,
    n_condvars: usize,
    decisions: Vec<Decision>,
    replay: Vec<usize>,
    trace: Vec<String>,
    preemptions: u32,
    max_preemptions: Option<u32>,
    aborted: bool,
    deadlock: bool,
    panic_msg: Option<String>,
}

impl ExecState {
    fn runnable(&self, t: usize) -> bool {
        match self.threads[t] {
            ThreadState::Runnable => true,
            ThreadState::BlockedMutex(m) => !self.held[m],
            ThreadState::Waiting { .. } => false,
            ThreadState::BlockedJoin(target) => self.threads[target] == ThreadState::Finished,
            ThreadState::Finished => false,
        }
    }

    fn push_trace(&mut self, t: usize, label: impl AsRef<str>) {
        self.trace.push(format!("t{t} {}", label.as_ref()));
    }
}

struct Exec {
    state: StdMutex<ExecState>,
    cv: StdCondvar,
    handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Panic payload used to unwind all threads once a schedule is aborted
/// (deadlock found or another thread failed). Swallowed by the per-thread
/// `catch_unwind`; never escapes to the explorer.
struct ExecAbort;

type Guard<'a> = std::sync::MutexGuard<'a, ExecState>;

/// The checker-internal scheduler lock. Every facade operation under
/// `--cfg loom` briefly takes it to record the step; it is strictly
/// innermost, released before any user code or blocking wait runs.
fn plock(m: &StdMutex<ExecState>) -> Guard<'_> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Exec {
    fn new(replay: Vec<usize>, max_preemptions: Option<u32>) -> StdArc<Exec> {
        StdArc::new(Exec {
            state: StdMutex::new(ExecState {
                threads: vec![ThreadState::Runnable],
                active: 0,
                held: Vec::new(),
                n_condvars: 0,
                decisions: Vec::new(),
                replay,
                trace: Vec::new(),
                preemptions: 0,
                max_preemptions,
                aborted: false,
                deadlock: false,
                panic_msg: None,
            }),
            cv: StdCondvar::new(),
            handles: StdMutex::new(Vec::new()),
        })
    }

    /// Records a branch with `n` alternatives and returns the pick for
    /// this execution: the replayed prefix value if still inside it,
    /// otherwise the first alternative (the DFS deviates by bumping the
    /// last non-exhausted decision when building the next replay vector).
    fn choose(&self, st: &mut ExecState, n: usize) -> usize {
        let step = st.decisions.len();
        let pick = if step < st.replay.len() {
            let p = st.replay[step];
            assert!(
                p < n,
                "model: nondeterministic execution (replayed pick {p} out of {n} \
                 alternatives at step {step}); the closure must be deterministic \
                 apart from scheduling (no RandomState maps, no wall-clock reads)",
            );
            p
        } else {
            0
        };
        st.decisions.push(Decision { pick, n });
        pick
    }

    /// Picks the next thread to run. `current_runnable` is `Some(me)` when
    /// the calling thread could itself continue (a switch away from it is
    /// a preemption, subject to the bound); `None` when the caller just
    /// blocked or finished.
    fn pick_next(&self, st: &mut ExecState, current_runnable: Option<usize>) {
        if st.aborted {
            self.cv.notify_all();
            return;
        }
        let cands: Vec<usize> = (0..st.threads.len()).filter(|&t| st.runnable(t)).collect();
        if cands.is_empty() {
            if !st.threads.iter().all(|&t| t == ThreadState::Finished) {
                st.deadlock = true;
                st.aborted = true;
            }
            self.cv.notify_all();
            return;
        }
        let restricted = match (current_runnable, st.max_preemptions) {
            (Some(cur), Some(maxp)) if st.preemptions >= maxp && cands.contains(&cur) => {
                vec![cur]
            }
            _ => cands,
        };
        let next = restricted[self.choose(st, restricted.len())];
        if let Some(cur) = current_runnable {
            if next != cur {
                st.preemptions += 1;
            }
        }
        st.active = next;
        self.cv.notify_all();
    }

    /// Parks until the scheduler hands this thread the token (and its
    /// blocking condition, if any, has cleared). Panics with [`ExecAbort`]
    /// if the schedule was aborted meanwhile.
    fn wait_for_turn<'a>(&'a self, mut st: Guard<'a>, me: usize) -> Guard<'a> {
        loop {
            if st.aborted {
                drop(st);
                panic::panic_any(ExecAbort);
            }
            if st.active == me && st.runnable(me) {
                return st;
            }
            st = self
                .cv
                .wait(st)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// A plain yield point: record the op, offer the scheduler a switch.
    fn yield_op(&self, me: usize, label: &str) {
        let mut st = plock(&self.state);
        st.push_trace(me, label);
        self.pick_next(&mut st, Some(me));
        let _st = self.wait_for_turn(st, me);
    }

    fn register_mutex(&self) -> usize {
        let mut st = plock(&self.state);
        st.held.push(false);
        st.held.len() - 1
    }

    fn register_condvar(&self) -> usize {
        let mut st = plock(&self.state);
        st.n_condvars += 1;
        st.n_condvars - 1
    }

    fn lock_mutex(&self, me: usize, mid: usize) {
        let mut st = plock(&self.state);
        st.push_trace(me, format!("lock m{mid}"));
        st.threads[me] = ThreadState::BlockedMutex(mid);
        self.pick_next(&mut st, None);
        let mut st = self.wait_for_turn(st, me);
        debug_assert!(!st.held[mid]);
        st.held[mid] = true;
        st.threads[me] = ThreadState::Runnable;
    }

    fn unlock_mutex(&self, me: usize, mid: usize) {
        let mut st = plock(&self.state);
        st.push_trace(me, format!("unlock m{mid}"));
        st.held[mid] = false;
        self.pick_next(&mut st, Some(me));
        let _st = self.wait_for_turn(st, me);
    }

    /// Releases the mutex without a yield point: used while unwinding,
    /// where re-entering the scheduler could park a panicking thread.
    fn unlock_mutex_unwinding(&self, mid: usize) {
        let mut st = plock(&self.state);
        st.held[mid] = false;
        self.cv.notify_all();
    }

    fn condvar_wait(&self, me: usize, cvid: usize, mid: usize) {
        let mut st = plock(&self.state);
        st.push_trace(me, format!("wait cv{cvid} (releases m{mid})"));
        st.held[mid] = false;
        st.threads[me] = ThreadState::Waiting { cv: cvid, mutex: mid };
        self.pick_next(&mut st, None);
        let mut st = self.wait_for_turn(st, me);
        debug_assert!(!st.held[mid]);
        st.held[mid] = true;
        st.threads[me] = ThreadState::Runnable;
    }

    fn condvar_notify(&self, me: usize, cvid: usize, all: bool) {
        let mut st = plock(&self.state);
        let waiters: Vec<usize> = (0..st.threads.len())
            .filter(|&t| matches!(st.threads[t], ThreadState::Waiting { cv, .. } if cv == cvid))
            .collect();
        let label = if all { "notify_all" } else { "notify_one" };
        st.push_trace(me, format!("{label} cv{cvid} ({} waiting)", waiters.len()));
        if all {
            for &w in &waiters {
                if let ThreadState::Waiting { mutex, .. } = st.threads[w] {
                    st.threads[w] = ThreadState::BlockedMutex(mutex);
                }
            }
        } else if !waiters.is_empty() {
            // Which waiter the OS would wake is unspecified: branch on it.
            let w = waiters[self.choose(&mut st, waiters.len())];
            if let ThreadState::Waiting { mutex, .. } = st.threads[w] {
                st.threads[w] = ThreadState::BlockedMutex(mutex);
            }
        }
        self.pick_next(&mut st, Some(me));
        let _st = self.wait_for_turn(st, me);
    }

    fn join_thread(&self, me: usize, target: usize) {
        let mut st = plock(&self.state);
        st.push_trace(me, format!("join t{target}"));
        st.threads[me] = ThreadState::BlockedJoin(target);
        self.pick_next(&mut st, None);
        let mut st = self.wait_for_turn(st, me);
        st.threads[me] = ThreadState::Runnable;
    }

}

// ---------------------------------------------------------------------------
// Thread context
// ---------------------------------------------------------------------------

#[derive(Clone)]
struct Ctx {
    exec: StdArc<Exec>,
    id: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
}

fn ctx() -> Ctx {
    CTX.with(|c| c.borrow().clone()).unwrap_or_else(|| {
        panic!(
            "mlp-sync model primitive used outside model() — under --cfg loom \
             the facade types only work inside a model::model(..) closure"
        )
    })
}

fn payload_str(p: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Installs (once) a panic hook that silences the intentional [`ExecAbort`]
/// unwinds so aborted schedules don't spray "thread panicked" noise; every
/// other panic goes to the previously-installed hook.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().is::<ExecAbort>() {
                return;
            }
            prev(info);
        }));
    });
}

fn run_thread<F, T>(exec: StdArc<Exec>, id: usize, slot: StdArc<StdMutex<Option<T>>>, f: F)
where
    F: FnOnce() -> T,
{
    CTX.with(|c| *c.borrow_mut() = Some(Ctx { exec: exec.clone(), id }));
    {
        let st = plock(&exec.state);
        // First scheduling: don't run until the token points here. The
        // catch below also fields an abort that happens before we start.
        let result = panic::catch_unwind(AssertUnwindSafe(|| exec.wait_for_turn(st, id)));
        match result {
            Ok(guard) => drop(guard),
            Err(_) => {
                let mut st = plock(&exec.state);
                st.threads[id] = ThreadState::Finished;
                exec.cv.notify_all();
                return;
            }
        }
    }
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    match outcome {
        Ok(v) => {
            *plock_slot(&slot) = Some(v);
            let mut st = plock(&exec.state);
            st.threads[id] = ThreadState::Finished;
            exec.pick_next(&mut st, None);
        }
        Err(p) => {
            if !p.is::<ExecAbort>() {
                let mut st = plock(&exec.state);
                let trace = render_trace(&st);
                if st.panic_msg.is_none() {
                    st.panic_msg = Some(format!("{}\n{trace}", payload_str(p)));
                }
                st.aborted = true;
            }
            let mut st = plock(&exec.state);
            st.threads[id] = ThreadState::Finished;
            exec.cv.notify_all();
        }
    }
    CTX.with(|c| *c.borrow_mut() = None);
}

fn plock_slot<T>(m: &StdMutex<Option<T>>) -> std::sync::MutexGuard<'_, Option<T>> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn render_trace(st: &ExecState) -> String {
    let tail: Vec<&str> = st
        .trace
        .iter()
        .rev()
        .take(100)
        .map(String::as_str)
        .collect();
    let mut s = String::from("schedule trace (most recent last):\n");
    for line in tail.iter().rev() {
        s.push_str("  ");
        s.push_str(line);
        s.push('\n');
    }
    s.push_str(&format!(
        "thread states: {:?}\ndecisions: {}",
        st.threads,
        st.decisions.len()
    ));
    s
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Expectation {
    NoDeadlock,
    Deadlock,
}

fn next_replay(decisions: &[Decision]) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        if decisions[i].pick + 1 < decisions[i].n {
            let mut r: Vec<usize> = decisions[..i].iter().map(|d| d.pick).collect();
            r.push(decisions[i].pick + 1);
            return Some(r);
        }
    }
    None
}

fn explore<F>(opts: Options, f: StdArc<F>, expectation: Expectation) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    install_quiet_hook();
    let mut replay: Vec<usize> = Vec::new();
    let mut schedules = 0usize;
    let mut deadlocks = 0usize;
    loop {
        schedules += 1;
        let exec = Exec::new(replay.clone(), opts.max_preemptions);
        let slot: StdArc<StdMutex<Option<()>>> = StdArc::new(StdMutex::new(None));
        {
            let exec2 = exec.clone();
            let slot2 = slot.clone();
            let f2 = f.clone();
            let root = std::thread::Builder::new()
                .name("model-t0".into())
                .spawn(move || run_thread(exec2, 0, slot2, move || f2()))
                .unwrap_or_else(|e| panic!("model: cannot spawn root thread: {e}"));
            exec.handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(root);
        }
        // Threads spawned inside the closure append to `handles`; drain
        // until empty (nothing appends after all threads finish).
        loop {
            let h = exec
                .handles
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        let st = plock(&exec.state);
        if let Some(msg) = &st.panic_msg {
            panic!("model: schedule {schedules} failed: {msg}");
        }
        if st.deadlock {
            deadlocks += 1;
            match expectation {
                Expectation::Deadlock => {
                    return Report {
                        schedules,
                        deadlocks,
                        truncated: false,
                    };
                }
                Expectation::NoDeadlock => {
                    panic!(
                        "model: deadlock in schedule {schedules}: no runnable thread, \
                         states {:?}\n{}",
                        st.threads,
                        render_trace(&st)
                    );
                }
            }
        }
        match next_replay(&st.decisions) {
            Some(r) if schedules < opts.max_schedules => {
                replay = r;
            }
            Some(_) => {
                return Report {
                    schedules,
                    deadlocks,
                    truncated: true,
                };
            }
            None => {
                return Report {
                    schedules,
                    deadlocks,
                    truncated: false,
                };
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Instrumented primitives
// ---------------------------------------------------------------------------

/// The instrumented primitive types. Under `--cfg loom` the crate root
/// re-exports these as `mlp_sync::{Mutex, Condvar, ...}`; they are also
/// always available at `mlp_sync::model::sync::*` so non-loom tests can
/// drive the checker directly.
pub mod sync {
    use super::*;

    /// Mutual exclusion with a scheduler decision point at every acquire
    /// and release. Data lives in a `std::sync::Mutex` purely for interior
    /// mutability; the *logical* ownership protocol is the scheduler's
    /// (`held[]`), so the inner `try_lock` can never contend.
    pub struct Mutex<T> {
        id: usize,
        data: StdMutex<T>,
    }

    impl<T> Mutex<T> {
        /// Registers a new mutex with the running explorer.
        pub fn new(value: T) -> Mutex<T> {
            let c = ctx();
            Mutex {
                id: c.exec.register_mutex(),
                data: StdMutex::new(value),
            }
        }

        /// Acquires the lock, parking this model thread if another holds
        /// it; every acquire is a scheduler decision point.
        pub fn lock(&self) -> MutexGuard<'_, T> {
            let c = ctx();
            c.exec.lock_mutex(c.id, self.id);
            let inner = match self.data.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    panic!("model: logical/physical mutex state diverged")
                }
            };
            MutexGuard {
                lock: self,
                inner: Some(inner),
            }
        }
    }

    impl<T: Default> Default for Mutex<T> {
        fn default() -> Self {
            Mutex::new(T::default())
        }
    }

    impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "model::Mutex(m{})", self.id)
        }
    }

    /// RAII guard for [`Mutex`]; releasing it is a scheduler decision
    /// point, like the real `MutexGuard`.
    pub struct MutexGuard<'a, T> {
        lock: &'a Mutex<T>,
        /// `None` transiently while parked in `Condvar::wait` (the wait
        /// owns reacquisition) — and on the abort-unwind path, where drop
        /// must not touch a mutex this thread no longer holds.
        inner: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.inner.as_ref().unwrap_or_else(|| {
                panic!("model: guard dereferenced while parked in Condvar::wait")
            })
        }
    }

    impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.inner.as_mut().unwrap_or_else(|| {
                panic!("model: guard dereferenced while parked in Condvar::wait")
            })
        }
    }

    impl<T> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            if self.inner.take().is_none() {
                return;
            }
            if std::thread::panicking() {
                // Unwinding (assertion failure or schedule abort): release
                // ownership so blocked threads can make progress, but do
                // not re-enter the scheduler from a dying thread.
                self.lock.data.clear_poison();
                ctx().exec.unlock_mutex_unwinding(self.lock.id);
                return;
            }
            let c = ctx();
            c.exec.unlock_mutex(c.id, self.lock.id);
        }
    }

    /// Condition variable whose `notify_one` branches over *which* waiter
    /// wakes — the explorer tries every choice, which is exactly what
    /// exposes lost-wakeup and wrong-waiter protocol bugs.
    pub struct Condvar {
        id: usize,
    }

    impl Condvar {
        /// Registers a new condition variable with the running explorer.
        pub fn new() -> Condvar {
            Condvar {
                id: ctx().exec.register_condvar(),
            }
        }

        /// Atomically releases the guard's mutex and parks; reacquires
        /// before returning, exactly like the real `Condvar::wait`.
        pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
            let c = ctx();
            let mid = guard.lock.id;
            drop(
                guard
                    .inner
                    .take()
                    .unwrap_or_else(|| panic!("model: re-entrant Condvar::wait on one guard")),
            );
            c.exec.condvar_wait(c.id, self.id, mid);
            guard.inner = Some(match guard.lock.data.try_lock() {
                Ok(g) => g,
                Err(std::sync::TryLockError::Poisoned(p)) => p.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {
                    panic!("model: logical/physical mutex state diverged after wait")
                }
            });
        }

        /// Wakes one waiter; the explorer branches over *which* one.
        /// Always reports `true` (the real count is a scheduler concern).
        pub fn notify_one(&self) -> bool {
            let c = ctx();
            c.exec.condvar_notify(c.id, self.id, false);
            true
        }

        /// Wakes every waiter. Returns 0: callers in the modelled
        /// protocols never branch on the count.
        pub fn notify_all(&self) -> usize {
            let c = ctx();
            c.exec.condvar_notify(c.id, self.id, true);
            0
        }
    }

    impl Default for Condvar {
        fn default() -> Self {
            Condvar::new()
        }
    }

    impl std::fmt::Debug for Condvar {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "model::Condvar(cv{})", self.id)
        }
    }

    /// Instrumented atomics: every access is a scheduler decision point,
    /// and all of them execute sequentially consistent regardless of the
    /// requested `Ordering` (see the module docs for why that limit is
    /// acceptable here and how the static lint covers the rest).
    pub mod atomic {
        use super::super::ctx;
        pub use std::sync::atomic::Ordering;
        use std::sync::atomic as std_atomic;

        macro_rules! model_atomic {
            ($name:ident, $std:ident, $prim:ty, rmw) => {
                model_atomic!($name, $std, $prim);
                impl $name {
                    /// Instrumented `fetch_add` (decision point, SeqCst).
                    pub fn fetch_add(&self, v: $prim, _o: Ordering) -> $prim {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " fetch_add"));
                        self.0.fetch_add(v, Ordering::SeqCst)
                    }
                    /// Instrumented `fetch_sub` (decision point, SeqCst).
                    pub fn fetch_sub(&self, v: $prim, _o: Ordering) -> $prim {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " fetch_sub"));
                        self.0.fetch_sub(v, Ordering::SeqCst)
                    }
                    /// Instrumented `fetch_max` (decision point, SeqCst).
                    pub fn fetch_max(&self, v: $prim, _o: Ordering) -> $prim {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " fetch_max"));
                        self.0.fetch_max(v, Ordering::SeqCst)
                    }
                }
            };
            ($name:ident, $std:ident, $prim:ty) => {
                #[doc = concat!("Instrumented `", stringify!($std), "`: every access is a scheduler decision point and runs SeqCst.")]
                pub struct $name(std_atomic::$std);

                impl $name {
                    /// Wraps an initial value (no decision point).
                    pub fn new(v: $prim) -> $name {
                        $name(std_atomic::$std::new(v))
                    }
                    /// Instrumented `load` (decision point, SeqCst).
                    pub fn load(&self, _o: Ordering) -> $prim {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " load"));
                        self.0.load(Ordering::SeqCst)
                    }
                    /// Instrumented `store` (decision point, SeqCst).
                    pub fn store(&self, v: $prim, _o: Ordering) {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " store"));
                        self.0.store(v, Ordering::SeqCst)
                    }
                    /// Instrumented `swap` (decision point, SeqCst).
                    pub fn swap(&self, v: $prim, _o: Ordering) -> $prim {
                        let c = ctx();
                        c.exec.yield_op(c.id, concat!(stringify!($name), " swap"));
                        self.0.swap(v, Ordering::SeqCst)
                    }
                    /// Instrumented `compare_exchange` (decision point,
                    /// SeqCst on both orderings).
                    #[allow(clippy::result_unit_err)]
                    pub fn compare_exchange(
                        &self,
                        cur: $prim,
                        new: $prim,
                        _s: Ordering,
                        _f: Ordering,
                    ) -> Result<$prim, $prim> {
                        let c = ctx();
                        c.exec
                            .yield_op(c.id, concat!(stringify!($name), " compare_exchange"));
                        self.0
                            .compare_exchange(cur, new, Ordering::SeqCst, Ordering::SeqCst)
                    }
                }

                impl Default for $name {
                    fn default() -> Self {
                        $name::new(<$prim>::default())
                    }
                }

                impl std::fmt::Debug for $name {
                    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                        write!(f, concat!("model::", stringify!($name)))
                    }
                }
            };
        }

        model_atomic!(AtomicBool, AtomicBool, bool);
        model_atomic!(AtomicU32, AtomicU32, u32, rmw);
        model_atomic!(AtomicU64, AtomicU64, u64, rmw);
        model_atomic!(AtomicUsize, AtomicUsize, usize, rmw);
    }

    /// Instrumented threads: spawn registers a new schedulable thread,
    /// join is a blocking scheduler op.
    pub mod thread {
        use super::super::*;

        /// Handle to a spawned model thread; mirror of
        /// `std::thread::JoinHandle`.
        pub struct JoinHandle<T> {
            id: usize,
            slot: StdArc<StdMutex<Option<T>>>,
        }

        impl<T> JoinHandle<T> {
            /// Blocks until the target thread finishes. Always `Ok` when it
            /// returns: a panicking model thread aborts the whole schedule
            /// rather than delivering an `Err` to its joiner.
            pub fn join(self) -> std::thread::Result<T> {
                let c = ctx();
                c.exec.join_thread(c.id, self.id);
                Ok(plock_slot(&self.slot)
                    .take()
                    .unwrap_or_else(|| panic!("model: joined thread left no result")))
            }
        }

        /// Spawns `f` as a new schedulable model thread (backed by a real
        /// OS thread the explorer gates one-at-a-time).
        pub fn spawn<F, T>(f: F) -> JoinHandle<T>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            let c = ctx();
            let id = {
                let mut st = plock(&c.exec.state);
                st.threads.push(ThreadState::Runnable);
                st.threads.len() - 1
            };
            let slot: StdArc<StdMutex<Option<T>>> = StdArc::new(StdMutex::new(None));
            {
                let exec = c.exec.clone();
                let slot = slot.clone();
                let os = std::thread::Builder::new()
                    .name(format!("model-t{id}"))
                    .spawn(move || run_thread(exec, id, slot, f))
                    .unwrap_or_else(|e| panic!("model: cannot spawn thread: {e}"));
                c.exec
                    .handles
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(os);
            }
            // The new thread is runnable from here on: decision point.
            c.exec.yield_op(c.id, "spawn");
            JoinHandle { id, slot }
        }

        /// Mirror of `std::thread::Builder` so engine code that names its
        /// workers compiles under the model cfg (the name only labels the
        /// underlying OS thread).
        #[derive(Default)]
        pub struct Builder {
            _name: Option<String>,
        }

        impl Builder {
            /// Starts an empty builder.
            pub fn new() -> Builder {
                Builder::default()
            }
            /// Records a thread name (labels the OS thread only).
            pub fn name(mut self, name: String) -> Builder {
                self._name = Some(name);
                self
            }
            /// Spawns via [`spawn`]; never fails in the model.
            #[allow(clippy::missing_errors_doc)]
            pub fn spawn<F, T>(self, f: F) -> std::io::Result<JoinHandle<T>>
            where
                F: FnOnce() -> T + Send + 'static,
                T: Send + 'static,
            {
                Ok(spawn(f))
            }
        }

        /// Decision point with no side effect.
        pub fn yield_now() {
            let c = ctx();
            c.exec.yield_op(c.id, "yield_now");
        }

        /// The model has no clock: sleeping is just a yield point. Backoff
        /// loops still explore the same interleavings, only without the
        /// wall-clock delay.
        pub fn sleep(_dur: std::time::Duration) {
            yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicUsize, Ordering};
    use super::sync::{thread, Condvar, Mutex};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_thread_runs_once() {
        let r = model(|| {
            let m = Mutex::new(1);
            *m.lock() += 1;
            assert_eq!(*m.lock(), 2);
        });
        assert_eq!(r.schedules, 1, "no branching without a second thread");
    }

    #[test]
    fn counter_increments_are_not_lost_under_mutex() {
        model(|| {
            let m = Arc::new(Mutex::new(0));
            let m2 = m.clone();
            let t = thread::spawn(move || {
                *m2.lock() += 1;
            });
            *m.lock() += 1;
            t.join().unwrap_or_else(|_| unreachable!());
            assert_eq!(*m.lock(), 2);
        });
    }

    #[test]
    fn explores_multiple_schedules() {
        let r = model(|| {
            let a = Arc::new(AtomicUsize::new(0));
            let a2 = a.clone();
            let t = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap_or_else(|_| unreachable!());
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(r.schedules > 1, "two racing threads must branch");
    }

    #[test]
    fn finds_atomicity_violation() {
        // Classic read-modify-write race: load, then store, with the
        // other thread able to interleave in between. The checker must
        // find a schedule where one increment is lost.
        let failed = std::panic::catch_unwind(|| {
            model(|| {
                let a = Arc::new(AtomicUsize::new(0));
                let a2 = a.clone();
                let t = thread::spawn(move || {
                    let v = a2.load(Ordering::SeqCst);
                    a2.store(v + 1, Ordering::SeqCst);
                });
                let v = a.load(Ordering::SeqCst);
                a.store(v + 1, Ordering::SeqCst);
                t.join().unwrap_or_else(|_| unreachable!());
                assert_eq!(a.load(Ordering::SeqCst), 2, "lost update");
            });
        });
        assert!(failed.is_err(), "the lost-update schedule must be found");
    }

    #[test]
    fn finds_missed_wakeup_deadlock() {
        // Waiter checks the flag, then waits; if the notifier runs its
        // notify *between* the check and the wait, the wakeup is lost.
        // This protocol is broken only under some interleavings — exactly
        // what expect_deadlock certifies the checker can find.
        expect_deadlock(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = pair.clone();
            let waiter = thread::spawn(move || {
                let (m, cv) = &*pair2;
                // BUG (intentional): flag checked outside the wait loop's
                // mutex-held re-check; a notify landing before the wait
                // call is lost forever.
                if !*m.lock() {
                    let mut g = m.lock();
                    cv.wait(&mut g);
                }
            });
            {
                let (m, cv) = &*pair;
                *m.lock() = true;
                cv.notify_one();
            }
            let _ = waiter.join();
        });
    }

    #[test]
    fn correct_wait_loop_never_deadlocks() {
        model(|| {
            let pair = Arc::new((Mutex::new(false), Condvar::new()));
            let pair2 = pair.clone();
            let waiter = thread::spawn(move || {
                let (m, cv) = &*pair2;
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
            let _ = waiter.join();
        });
    }

    #[test]
    fn notify_one_branches_over_waiters() {
        // Two waiters, one notify_one + one notify_all: whichever waiter
        // the single notify wakes, both must eventually exit. Exercises
        // the waiter-choice decision point.
        model(|| {
            let pair = Arc::new((Mutex::new(0u32), Condvar::new()));
            let mut handles = Vec::new();
            for _ in 0..2 {
                let p = pair.clone();
                handles.push(thread::spawn(move || {
                    let (m, cv) = &*p;
                    let mut g = m.lock();
                    while *g == 0 {
                        cv.wait(&mut g);
                    }
                }));
            }
            let (m, cv) = &*pair;
            *m.lock() = 1;
            cv.notify_one();
            cv.notify_all();
            for h in handles {
                let _ = h.join();
            }
        });
    }

    #[test]
    fn detects_plain_lock_order_deadlock() {
        expect_deadlock(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (a.clone(), b.clone());
            let t = thread::spawn(move || {
                let _ga = a2.lock();
                let _gb = b2.lock();
            });
            let _gb = b.lock();
            let _ga = a.lock();
            drop((_ga, _gb));
            let _ = t.join();
        });
    }

    #[test]
    fn preemption_bound_truncation_is_reported() {
        // With an unbounded schedule cap of 1 the search must report
        // truncation rather than claim exhaustion.
        let r = model_with(
            Options {
                max_schedules: 1,
                max_preemptions: None,
            },
            || {
                let a = Arc::new(AtomicUsize::new(0));
                let a2 = a.clone();
                let t = thread::spawn(move || {
                    a2.fetch_add(1, Ordering::SeqCst);
                });
                a.fetch_add(1, Ordering::SeqCst);
                let _ = t.join();
            },
        );
        assert!(r.truncated);
        assert_eq!(r.schedules, 1);
    }

    #[test]
    fn join_returns_thread_result() {
        model(|| {
            let t = thread::spawn(|| 41 + 1);
            assert_eq!(t.join().unwrap_or_else(|_| unreachable!()), 42);
        });
    }
}
