//! Cooperative synchronization primitives for simulated processes.
//!
//! All primitives are strictly FIFO, which keeps simulations deterministic
//! and models the fairness of the queue-based locking the paper's engine
//! uses (process-exclusive, multi-thread-shared access to a storage tier,
//! §3.5).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Sim, TaskId};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemState {
    permits: usize,
    queue: VecDeque<(u64, TaskId)>,
    /// Tickets whose permit has been granted but not yet observed.
    granted: Vec<u64>,
    next_ticket: u64,
}

/// FIFO counting semaphore.
///
/// With one permit it is the *tier-exclusive* lock: only one worker
/// process on a node may access a given storage tier at a time (§3.2).
/// With more it models bounded resources such as the configurable number of
/// pinned host buffer slots that cap how many subgroups may be in flight at
/// once (the paper's "minimum of three subgroups": flush + update +
/// prefetch, §4.1).
pub struct Semaphore {
    sim: Sim,
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Creates a semaphore with `permits` initially available permits.
    pub fn new(sim: &Sim, permits: usize) -> Self {
        Semaphore {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(SemState {
                permits,
                queue: VecDeque::new(),
                granted: Vec::new(),
                next_ticket: 0,
            })),
        }
    }

    /// Acquires one permit, waiting in FIFO order.
    pub fn acquire(&self) -> SemAcquire {
        SemAcquire {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
            ticket: None,
            acquired: false,
        }
    }

    /// Currently available permits.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

fn sem_release(sim: &Sim, state: &Rc<RefCell<SemState>>) {
    let mut s = state.borrow_mut();
    if let Some((ticket, task)) = s.queue.pop_front() {
        s.granted.push(ticket);
        drop(s);
        sim.wake(task);
    } else {
        s.permits += 1;
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct SemAcquire {
    sim: Sim,
    state: Rc<RefCell<SemState>>,
    ticket: Option<u64>,
    acquired: bool,
}

impl Future for SemAcquire {
    type Output = SemGuard;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<SemGuard> {
        let this = &mut *self;
        let mut s = this.state.borrow_mut();
        match this.ticket {
            None => {
                if s.permits > 0 && s.queue.is_empty() {
                    s.permits -= 1;
                    drop(s);
                    this.acquired = true;
                    Poll::Ready(SemGuard {
                        sim: this.sim.clone(),
                        state: Rc::clone(&this.state),
                    })
                } else {
                    let ticket = s.next_ticket;
                    s.next_ticket += 1;
                    let task = this.sim.current_task();
                    s.queue.push_back((ticket, task));
                    this.ticket = Some(ticket);
                    Poll::Pending
                }
            }
            Some(ticket) => {
                if let Some(pos) = s.granted.iter().position(|&t| t == ticket) {
                    s.granted.swap_remove(pos);
                    drop(s);
                    this.acquired = true;
                    Poll::Ready(SemGuard {
                        sim: this.sim.clone(),
                        state: Rc::clone(&this.state),
                    })
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for SemAcquire {
    fn drop(&mut self) {
        if self.acquired {
            return;
        }
        let Some(ticket) = self.ticket else { return };
        let mut s = self.state.borrow_mut();
        if let Some(pos) = s.granted.iter().position(|&t| t == ticket) {
            // Granted but never observed: forward the permit.
            s.granted.swap_remove(pos);
            drop(s);
            sem_release(&self.sim, &self.state);
        } else {
            s.queue.retain(|&(t, _)| t != ticket);
        }
    }
}

/// RAII permit; returns the permit (waking the next waiter) on drop.
pub struct SemGuard {
    sim: Sim,
    state: Rc<RefCell<SemState>>,
}

impl Drop for SemGuard {
    fn drop(&mut self) {
        sem_release(&self.sim, &self.state);
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyState {
    epoch: u64,
    waiters: Vec<TaskId>,
}

/// Broadcast notification: every waiter registered before a
/// [`Notify::notify_all`] call is woken by it.
pub struct Notify {
    sim: Sim,
    state: Rc<RefCell<NotifyState>>,
}

impl Notify {
    /// Creates a notifier.
    pub fn new(sim: &Sim) -> Self {
        Notify {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(NotifyState {
                epoch: 0,
                waiters: Vec::new(),
            })),
        }
    }

    /// Future that completes at the next `notify_all` after it is first
    /// polled.
    pub fn notified(&self) -> Notified {
        Notified {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
            epoch: None,
        }
    }

    /// Wakes all current waiters.
    pub fn notify_all(&self) {
        let waiters = {
            let mut s = self.state.borrow_mut();
            s.epoch += 1;
            std::mem::take(&mut s.waiters)
        };
        for t in waiters {
            self.sim.wake(t);
        }
    }
}

impl Clone for Notify {
    fn clone(&self) -> Self {
        Notify {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    sim: Sim,
    state: Rc<RefCell<NotifyState>>,
    epoch: Option<u64>,
}

impl Future for Notified {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        let mut s = this.state.borrow_mut();
        match this.epoch {
            None => {
                this.epoch = Some(s.epoch);
                let task = this.sim.current_task();
                s.waiters.push(task);
                Poll::Pending
            }
            Some(e) => {
                if s.epoch > e {
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    #[test]
    fn dropped_waiter_leaves_queue_consistent() {
        let sim = Sim::new();
        let sem = Semaphore::new(&sim, 1);
        let sem2 = sem.clone();
        sim.block_on(async move {
            // Poll a waiter once so it joins the queue, then drop it before
            // it is granted (cancellation path).
            let g = sem2.acquire().await;
            {
                let mut fut = std::pin::pin!(sem2.acquire());
                std::future::poll_fn(|cx| {
                    assert!(fut.as_mut().poll(cx).is_pending());
                    std::task::Poll::Ready(())
                })
                .await;
            }
            drop(g);
            assert_eq!(sem2.available(), 1, "release skipped the dropped waiter");
            // Grant a queued waiter, then drop it before it observes the
            // grant: the permit is forwarded, not lost.
            let g = sem2.acquire().await;
            {
                let mut fut = std::pin::pin!(sem2.acquire());
                std::future::poll_fn(|cx| {
                    assert!(fut.as_mut().poll(cx).is_pending());
                    std::task::Poll::Ready(())
                })
                .await;
                drop(g);
                assert_eq!(sem2.available(), 0, "granted to the waiter");
            }
            assert_eq!(sem2.available(), 1);
            let _g = sem2.acquire().await;
        });
    }

    #[test]
    fn semaphore_caps_concurrency() {
        // One permit is the tier lock: critical sections never overlap.
        for permits in [1, 3] {
            let sim = Sim::new();
            let sem = Semaphore::new(&sim, permits);
            let active = Rc::new(RefCell::new((0usize, 0usize))); // (current, max)
            for _ in 0..10 {
                let sem = sem.clone();
                let s = sim.clone();
                let active = Rc::clone(&active);
                sim.spawn(async move {
                    let _g = sem.acquire().await;
                    {
                        let mut a = active.borrow_mut();
                        a.0 += 1;
                        a.1 = a.1.max(a.0);
                    }
                    s.sleep(1.0).await;
                    active.borrow_mut().0 -= 1;
                });
            }
            sim.run();
            assert_eq!(active.borrow().1, permits);
            assert_eq!(sem.available(), permits);
        }
    }

    #[test]
    fn notify_all_wakes_every_registered_waiter() {
        let sim = Sim::new();
        let n = Notify::new(&sim);
        let mut handles = Vec::new();
        for _ in 0..3 {
            let n = n.clone();
            handles.push(sim.spawn(async move {
                n.notified().await;
                7u8
            }));
        }
        sim.run();
        assert!(handles.iter().all(|h| h.try_take().is_none()));
        n.notify_all();
        sim.run();
        for h in handles {
            assert_eq!(h.try_take(), Some(7));
        }
    }

    #[test]
    fn semaphore_fifo_ordering() {
        let sim = Sim::new();
        let sem = Semaphore::new(&sim, 1);
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let sem = sem.clone();
            let s = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                let _g = sem.acquire().await;
                log.borrow_mut().push(i);
                s.sleep(1.0).await;
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3]);
    }
}
