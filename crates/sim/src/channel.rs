//! Unbounded FIFO channels between simulated processes.
//!
//! Used for completion queues and work queues between pipeline stages
//! (e.g. "subgroup fetched" notifications between the prefetcher and the
//! updater in the offload engines).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Sim, TaskId};

struct ChanState<T> {
    queue: VecDeque<T>,
    recv_waiters: VecDeque<TaskId>,
    senders: usize,
}

/// Creates an unbounded multi-producer channel. Receiving from multiple
/// tasks concurrently is allowed; items are handed out FIFO.
pub fn channel<T>(sim: &Sim) -> (Sender<T>, Receiver<T>) {
    let state = Rc::new(RefCell::new(ChanState {
        queue: VecDeque::new(),
        recv_waiters: VecDeque::new(),
        senders: 1,
    }));
    (
        Sender {
            sim: sim.clone(),
            state: Rc::clone(&state),
        },
        Receiver {
            sim: sim.clone(),
            state,
        },
    )
}

/// Sending half. Cloning adds a producer; the channel closes when all
/// senders are dropped.
pub struct Sender<T> {
    sim: Sim,
    state: Rc<RefCell<ChanState<T>>>,
}

impl<T> Sender<T> {
    /// Enqueues an item, waking one waiting receiver.
    pub fn send(&self, item: T) {
        let waiter = {
            let mut s = self.state.borrow_mut();
            s.queue.push_back(item);
            s.recv_waiters.pop_front()
        };
        if let Some(t) = waiter {
            self.sim.wake(t);
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.state.borrow_mut().senders += 1;
        Sender {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let waiters = {
            let mut s = self.state.borrow_mut();
            s.senders -= 1;
            if s.senders == 0 {
                std::mem::take(&mut s.recv_waiters)
            } else {
                VecDeque::new()
            }
        };
        for t in waiters {
            self.sim.wake(t);
        }
    }
}

/// Receiving half.
pub struct Receiver<T> {
    sim: Sim,
    state: Rc<RefCell<ChanState<T>>>,
}

impl<T> Receiver<T> {
    /// Waits for the next item; resolves to `None` once the channel is
    /// closed (all senders dropped) and drained.
    pub fn recv(&self) -> Recv<'_, T> {
        Recv {
            chan: self,
            registered: false,
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        Receiver {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

/// Future returned by [`Receiver::recv`].
pub struct Recv<'a, T> {
    chan: &'a Receiver<T>,
    registered: bool,
}

impl<T> Future for Recv<'_, T> {
    type Output = Option<T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Option<T>> {
        let mut s = self.chan.state.borrow_mut();
        if let Some(item) = s.queue.pop_front() {
            return Poll::Ready(Some(item));
        }
        if s.senders == 0 {
            return Poll::Ready(None);
        }
        let task = self.chan.sim.current_task();
        // Re-register on every poll: the waiter entry was consumed by the
        // wake that triggered this poll (or this is the first poll).
        if !s.recv_waiters.contains(&task) {
            s.recv_waiters.push_back(task);
        }
        drop(s);
        self.registered = true;
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;

    #[test]
    fn items_arrive_in_order() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        let consumer = sim.spawn(async move {
            let mut got = Vec::new();
            while let Some(v) = rx.recv().await {
                got.push(v);
            }
            got
        });
        sim.spawn({
            let sim2 = sim.clone();
            async move {
                for i in 0..5 {
                    sim2.sleep(0.1).await;
                    tx.send(i);
                }
            }
        });
        sim.run();
        assert_eq!(consumer.try_take().unwrap(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn recv_returns_none_after_close() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u8>(&sim);
        tx.send(9);
        drop(tx);
        let out = sim.block_on(async move {
            let a = rx.recv().await;
            let b = rx.recv().await;
            (a, b)
        });
        assert_eq!(out, (Some(9), None));
    }

    #[test]
    fn receiver_blocks_until_send() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u64>(&sim);
        let h = sim.spawn({
            let sim2 = sim.clone();
            async move {
                let v = rx.recv().await.unwrap();
                (v, sim2.now())
            }
        });
        sim.spawn({
            let sim2 = sim.clone();
            async move {
                sim2.sleep(2.0).await;
                tx.send(123);
            }
        });
        sim.run();
        assert_eq!(h.try_take().unwrap(), (123, secs(2.0)));
    }

    #[test]
    fn multiple_senders_close_only_when_all_dropped() {
        let sim = Sim::new();
        let (tx1, rx) = channel::<u8>(&sim);
        let tx2 = tx1.clone();
        drop(tx1);
        tx2.send(5);
        drop(tx2);
        let out = sim.block_on(async move { (rx.recv().await, rx.recv().await) });
        assert_eq!(out, (Some(5), None));
    }
}

#[cfg(test)]
mod multi_consumer_tests {
    use super::*;

    #[test]
    fn two_consumers_partition_the_stream() {
        let sim = Sim::new();
        let (tx, rx) = channel::<u32>(&sim);
        let mut handles = Vec::new();
        for _ in 0..2 {
            let rx = rx.clone();
            handles.push(sim.spawn(async move {
                let mut got = Vec::new();
                while let Some(v) = rx.recv().await {
                    got.push(v);
                }
                got
            }));
        }
        sim.spawn({
            let s = sim.clone();
            async move {
                for i in 0..10 {
                    s.sleep(0.01).await;
                    tx.send(i);
                }
            }
        });
        sim.run();
        let mut all: Vec<u32> = handles
            .into_iter()
            .flat_map(|h| h.try_take().unwrap())
            .collect();
        all.sort_unstable();
        // Every item delivered exactly once across the consumers.
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }
}
