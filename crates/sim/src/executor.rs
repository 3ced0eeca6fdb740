//! The single-threaded deterministic executor.
//!
//! Tasks are plain `Future<Output = ()>` values stored in a slab. The event
//! heap orders pending events by `(time, sequence)`, so simultaneous events
//! fire in the order they were scheduled and every run is reproducible.
//! Futures never see a real [`std::task::Waker`]: blocking primitives
//! register the *currently running task id* with the scheduler and the
//! scheduler re-polls that task when the condition fires. Spurious re-polls
//! are allowed, so all futures in this crate keep their poll methods
//! idempotent.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use crate::time::SimTime;

/// Identifier of a spawned task (slab index).
pub type TaskId = usize;

type BoxedFuture = Pin<Box<dyn Future<Output = ()>>>;
type BoxedCall = Box<dyn FnOnce(&Sim)>;

enum Slot {
    /// Slot free for reuse.
    Empty,
    /// Task currently being polled (future temporarily moved out).
    Polling,
    /// Task parked, waiting for a wake.
    Parked(BoxedFuture),
}

enum Action {
    /// Re-poll the given task.
    Wake(TaskId),
    /// Invoke an arbitrary callback at the scheduled time (used by
    /// resources such as [`crate::bandwidth::BwLink`] for completion events).
    Call(BoxedCall),
}

struct HeapEntry {
    time: SimTime,
    seq: u64,
    action: Action,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

struct Inner {
    now: SimTime,
    seq: u64,
    heap: BinaryHeap<HeapEntry>,
    /// Sequence numbers of cancelled timers: their heap entries are
    /// skipped without advancing the clock (a dropped `Delay` must not
    /// hold virtual time hostage).
    cancelled: HashSet<u64>,
    ready: VecDeque<TaskId>,
    tasks: Vec<Slot>,
    free: Vec<TaskId>,
    current: Option<TaskId>,
}

/// Handle to the simulation executor. Cheap to clone; all clones share the
/// same virtual clock and task set.
pub struct Sim {
    inner: Rc<RefCell<Inner>>,
}

impl Clone for Sim {
    fn clone(&self) -> Self {
        Sim {
            inner: Rc::clone(&self.inner),
        }
    }
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Creates an empty simulation with the clock at zero.
    pub fn new() -> Self {
        Sim {
            inner: Rc::new(RefCell::new(Inner {
                now: 0,
                seq: 0,
                heap: BinaryHeap::new(),
                cancelled: HashSet::new(),
                ready: VecDeque::new(),
                tasks: Vec::new(),
                free: Vec::new(),
                current: None,
            })),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> SimTime {
        self.inner.borrow().now
    }

    /// Current virtual time in seconds (for reporting).
    pub fn now_secs(&self) -> f64 {
        crate::time::to_secs(self.now())
    }

    /// Spawns a task and returns a [`JoinHandle`] that resolves to its
    /// output. The task starts running on the next scheduler dispatch.
    pub fn spawn<T, F>(&self, fut: F) -> JoinHandle<T>
    where
        T: 'static,
        F: Future<Output = T> + 'static,
    {
        let state = Rc::new(RefCell::new(JoinState {
            result: None,
            waiters: Vec::new(),
        }));
        let wrapped = {
            let state = Rc::clone(&state);
            let sim = self.clone();
            async move {
                let out = fut.await;
                let waiters = {
                    let mut s = state.borrow_mut();
                    s.result = Some(out);
                    std::mem::take(&mut s.waiters)
                };
                for t in waiters {
                    sim.wake(t);
                }
            }
        };
        let id = {
            let mut inner = self.inner.borrow_mut();
            let id = match inner.free.pop() {
                Some(id) => {
                    inner.tasks[id] = Slot::Parked(Box::pin(wrapped));
                    id
                }
                None => {
                    inner.tasks.push(Slot::Parked(Box::pin(wrapped)));
                    inner.tasks.len() - 1
                }
            };
            inner.ready.push_back(id);
            id
        };
        let _ = id;
        JoinHandle { state }
    }

    /// Id of the task currently being polled.
    ///
    /// # Panics
    ///
    /// Panics when called from outside a task (blocking primitives may only
    /// be awaited inside spawned tasks).
    pub fn current_task(&self) -> TaskId {
        self.inner
            .borrow()
            .current
            .expect("sim primitive awaited outside of a spawned task")
    }

    /// Marks a task runnable immediately.
    pub(crate) fn wake(&self, task: TaskId) {
        self.inner.borrow_mut().ready.push_back(task);
    }

    /// Schedules a wake for `task` at absolute time `at`; returns the
    /// event's sequence number for cancellation.
    pub(crate) fn wake_at(&self, at: SimTime, task: TaskId) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        let time = at.max(inner.now);
        inner.heap.push(HeapEntry {
            time,
            seq,
            action: Action::Wake(task),
        });
        seq
    }

    /// Tombstones a scheduled wake so it neither fires nor advances the
    /// clock.
    pub(crate) fn cancel_wake(&self, seq: u64) {
        self.inner.borrow_mut().cancelled.insert(seq);
    }

    /// Schedules an arbitrary callback at absolute time `at`. Used by shared
    /// resources to implement completion events.
    pub fn call_at(&self, at: SimTime, f: impl FnOnce(&Sim) + 'static) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.seq;
        inner.seq += 1;
        let time = at.max(inner.now);
        inner.heap.push(HeapEntry {
            time,
            seq,
            action: Action::Call(Box::new(f)),
        });
    }

    /// Returns a future that completes `dur` nanoseconds of virtual time
    /// from now.
    pub fn sleep_ns(&self, dur: SimTime) -> crate::Delay {
        crate::Delay::new(self.clone(), self.now().saturating_add(dur))
    }

    /// Returns a future that completes `secs` seconds of virtual time from
    /// now.
    pub fn sleep(&self, secs: f64) -> crate::Delay {
        self.sleep_ns(crate::time::secs(secs))
    }

    /// Runs the simulation until no runnable task or pending event remains.
    /// Returns the final virtual time.
    ///
    /// Tasks still alive afterwards are deadlocked: they wait on conditions
    /// nothing can trigger.
    pub fn run(&self) -> SimTime {
        loop {
            self.drain_ready();
            let entry = { self.inner.borrow_mut().heap.pop() };
            let Some(entry) = entry else { break };
            {
                let mut inner = self.inner.borrow_mut();
                if inner.cancelled.remove(&entry.seq) {
                    continue; // tombstoned timer: skip without advancing
                }
                debug_assert!(entry.time >= inner.now, "time went backwards");
                inner.now = entry.time;
            }
            match entry.action {
                Action::Wake(t) => self.wake(t),
                Action::Call(f) => f(self),
            }
        }
        self.now()
    }

    /// Spawns `fut`, runs the simulation to quiescence, and returns the
    /// future's output.
    ///
    /// # Panics
    ///
    /// Panics if the future did not complete (i.e. it deadlocked on a
    /// condition nothing triggered).
    pub fn block_on<T: 'static>(&self, fut: impl Future<Output = T> + 'static) -> T {
        let handle = self.spawn(fut);
        self.run();
        handle
            .try_take()
            .expect("block_on: future never completed (simulation deadlock)")
    }

    fn drain_ready(&self) {
        loop {
            let id = {
                let mut inner = self.inner.borrow_mut();
                match inner.ready.pop_front() {
                    Some(id) => id,
                    None => return,
                }
            };
            let mut fut = {
                let mut inner = self.inner.borrow_mut();
                match std::mem::replace(&mut inner.tasks[id], Slot::Polling) {
                    Slot::Parked(fut) => {
                        inner.current = Some(id);
                        fut
                    }
                    // Task already finished (duplicate wake) or being polled.
                    other => {
                        inner.tasks[id] = other;
                        continue;
                    }
                }
            };
            let poll = self.poll_task(&mut fut);
            let mut inner = self.inner.borrow_mut();
            inner.current = None;
            match poll {
                Poll::Ready(()) => {
                    inner.tasks[id] = Slot::Empty;
                    inner.free.push(id);
                }
                Poll::Pending => {
                    inner.tasks[id] = Slot::Parked(fut);
                }
            }
        }
    }
}

struct JoinState<T> {
    result: Option<T>,
    waiters: Vec<TaskId>,
}

/// Future resolving to the output of a spawned task. Can also be queried
/// synchronously after [`Sim::run`] via [`JoinHandle::try_take`].
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the task's result if it has completed.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().result.take()
    }
}

impl<T: 'static> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        if let Some(out) = s.result.take() {
            return Poll::Ready(out);
        }
        // Register interest; the spawn wrapper wakes all waiters on
        // completion. Registering on every poll may duplicate the id, which
        // is harmless (spurious re-polls are allowed).
        drop(s);
        let task = CURRENT_SIM.with(|c| {
            c.borrow()
                .as_ref()
                .expect("JoinHandle awaited outside a Sim task")
                .current_task()
        });
        self.state.borrow_mut().waiters.push(task);
        Poll::Pending
    }
}

thread_local! {
    /// The executor installs itself here while polling so that futures that
    /// only hold task-shared state (like [`JoinHandle`]) can find the
    /// scheduler. Primitives constructed from a [`Sim`] handle don't need it.
    static CURRENT_SIM: RefCell<Option<Sim>> = const { RefCell::new(None) };
}

impl Sim {
    /// Installs this executor as the thread's current one for the duration
    /// of `f`. Called internally around task polls.
    fn with_installed<R>(&self, f: impl FnOnce() -> R) -> R {
        CURRENT_SIM.with(|c| *c.borrow_mut() = Some(self.clone()));
        let out = f();
        CURRENT_SIM.with(|c| *c.borrow_mut() = None);
        out
    }
}

// NOTE: drain_ready must install the executor so JoinHandle::poll can find
// it. We wrap the poll call here rather than duplicating logic above.
// (Separated to keep the borrow scopes in drain_ready readable.)
impl Sim {
    pub(crate) fn poll_task(&self, fut: &mut BoxedFuture) -> Poll<()> {
        self.with_installed(|| {
            let waker = Waker::noop();
            let mut cx = Context::from_waker(waker);
            fut.as_mut().poll(&mut cx)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), 0);
    }

    #[test]
    fn block_on_returns_value() {
        let sim = Sim::new();
        let v = sim.block_on(async { 41 + 1 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_clock() {
        let sim = Sim::new();
        let s2 = sim.clone();
        let t = sim.block_on(async move {
            s2.sleep(2.5).await;
            s2.now()
        });
        assert_eq!(t, secs(2.5));
        assert_eq!(sim.now(), secs(2.5));
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new();
        let s2 = sim.clone();
        let t = sim.block_on(async move {
            s2.sleep(1.0).await;
            s2.sleep(2.0).await;
            s2.now()
        });
        assert_eq!(t, secs(3.0));
    }

    #[test]
    fn concurrent_tasks_overlap_in_virtual_time() {
        let sim = Sim::new();
        let a = sim.spawn({
            let s = sim.clone();
            async move {
                s.sleep(5.0).await;
                s.now()
            }
        });
        let b = sim.spawn({
            let s = sim.clone();
            async move {
                s.sleep(3.0).await;
                s.now()
            }
        });
        sim.run();
        assert_eq!(a.try_take().unwrap(), secs(5.0));
        assert_eq!(b.try_take().unwrap(), secs(3.0));
        // Overlapping, not serialized: total time is the max, not the sum.
        assert_eq!(sim.now(), secs(5.0));
    }

    #[test]
    fn join_handle_awaits_child() {
        let sim = Sim::new();
        let s = sim.clone();
        let total = sim.block_on(async move {
            let child = s.spawn({
                let s = s.clone();
                async move {
                    s.sleep(1.0).await;
                    7u32
                }
            });
            let v = child.await;
            v + 1
        });
        assert_eq!(total, 8);
        assert_eq!(sim.now(), secs(1.0));
    }

    #[test]
    fn simultaneous_events_fire_in_spawn_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                s.sleep(1.0).await;
                log.borrow_mut().push(i);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn block_on_panics_on_deadlock() {
        let sim = Sim::new();
        sim.block_on(std::future::pending::<()>());
    }

    #[test]
    fn zero_length_sleep_completes() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(0.0).await;
        });
    }

    #[test]
    fn determinism_two_runs_identical() {
        fn run_once() -> Vec<(u64, usize)> {
            let sim = Sim::new();
            let log = Rc::new(RefCell::new(Vec::new()));
            for i in 0..8 {
                let s = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    s.sleep(((i * 7) % 5) as f64 * 0.25).await;
                    log.borrow_mut().push((s.now(), i));
                    s.sleep(0.1 * i as f64).await;
                    log.borrow_mut().push((s.now(), i));
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn call_at_fires_in_time_order() {
        let sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for (i, t) in [3.0, 1.0, 2.0].iter().enumerate() {
            let log = Rc::clone(&log);
            sim.call_at(secs(*t), move |s| log.borrow_mut().push((s.now(), i)));
        }
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![(secs(1.0), 1), (secs(2.0), 2), (secs(3.0), 0)]
        );
    }
}
