//! Virtual-time timer future.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};

use crate::executor::Sim;
use crate::time::SimTime;

/// Future that completes once the simulation clock reaches its deadline.
/// Created by [`Sim::sleep`] / [`Sim::sleep_ns`].
pub struct Delay {
    sim: Sim,
    deadline: SimTime,
    /// Sequence number of the scheduled wake, while registered.
    pending: Option<u64>,
}

impl Delay {
    pub(crate) fn new(sim: Sim, deadline: SimTime) -> Self {
        Delay {
            sim,
            deadline,
            pending: None,
        }
    }
}

impl Future for Delay {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            self.pending = None; // the wake (if any) was consumed
            return Poll::Ready(());
        }
        if self.pending.is_none() {
            let task = self.sim.current_task();
            self.pending = Some(self.sim.wake_at(self.deadline, task));
        }
        Poll::Pending
    }
}

impl Drop for Delay {
    fn drop(&mut self) {
        if let Some(seq) = self.pending {
            // Cancelled before firing: tombstone the heap entry so the
            // clock does not advance to a dead deadline.
            self.sim.cancel_wake(seq);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::secs;

    #[test]
    fn deadline_is_absolute() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(1.0).await;
            let d = s.sleep(2.0);
            d.await;
            assert_eq!(s.now(), secs(3.0));
        });
    }

    #[test]
    fn already_elapsed_deadline_is_ready() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(5.0).await;
            // Deadline in the past: completes without advancing time.
            Delay::new(s.clone(), secs(1.0)).await;
            assert_eq!(s.now(), secs(5.0));
        });
    }
}
