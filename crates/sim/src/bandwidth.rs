//! Processor-sharing ("fluid flow") bandwidth resources.
//!
//! A [`BwLink`] models a storage channel or interconnect with a fixed
//! capacity in bytes/second. Concurrent transfers share the capacity
//! equally, so the aggregate throughput stays constant while per-transfer
//! latency grows linearly with concurrency — exactly the behaviour the paper
//! measures for NVMe and PFS under concurrent access (Fig. 4).

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

use crate::executor::{Sim, TaskId};
use crate::time::{SimTime, NS_PER_SEC};

/// Residual below which a flow counts as complete (absorbs float slop from
/// the nanosecond-rounded completion events).
const EPS_BYTES: f64 = 1e-3;

struct Flow {
    remaining: f64,
    task: TaskId,
    done: bool,
}

struct LinkState {
    capacity_bps: f64,
    flows: Vec<Option<Flow>>,
    free: Vec<usize>,
    active: usize,
    last_advance: SimTime,
    gen: u64,
    // --- statistics ---
    total_bytes: f64,
    busy_ns: u64,
    ops_completed: u64,
}

impl LinkState {
    fn rate_per_flow(&self) -> f64 {
        debug_assert!(self.active > 0);
        self.capacity_bps / self.active as f64
    }

    /// Advances the fluid model to `now`, draining bytes from active flows.
    fn advance(&mut self, now: SimTime) {
        if now <= self.last_advance {
            return;
        }
        let dt = (now - self.last_advance) as f64 / NS_PER_SEC as f64;
        if self.active > 0 {
            let rate = self.rate_per_flow();
            let drained = rate * dt;
            for slot in self.flows.iter_mut().flatten() {
                // Skip flows that already crossed zero but have not been
                // reaped yet (possible between their crossing instant and
                // the completion event): draining them further would add
                // negative deltas to the byte counter.
                if !slot.done && slot.remaining > 0.0 {
                    let d = drained.min(slot.remaining);
                    slot.remaining -= drained;
                    self.total_bytes += d;
                }
            }
            self.busy_ns += now - self.last_advance;
        }
        self.last_advance = now;
    }

    /// Marks every drained flow complete; returns the tasks to wake.
    fn reap(&mut self) -> Vec<TaskId> {
        let mut woken = Vec::new();
        for slot in self.flows.iter_mut().flatten() {
            if !slot.done && slot.remaining <= EPS_BYTES {
                slot.done = true;
                self.active -= 1;
                self.ops_completed += 1;
                woken.push(slot.task);
            }
        }
        woken
    }

    /// Virtual time of the next flow completion, if any flow is active.
    fn next_completion(&self) -> Option<SimTime> {
        if self.active == 0 {
            return None;
        }
        let rate = self.rate_per_flow();
        let min_rem = self
            .flows
            .iter()
            .flatten()
            .filter(|f| !f.done)
            .map(|f| f.remaining)
            .fold(f64::INFINITY, f64::min);
        let dt_ns = (min_rem.max(0.0) / rate * NS_PER_SEC as f64).ceil() as u64;
        // +1 ns guarantees the event lands strictly after the crossing so
        // progress is monotone even under float rounding.
        Some(self.last_advance + dt_ns + 1)
    }
}

/// A shared bandwidth resource. Cheap to clone (all clones share state).
pub struct BwLink {
    sim: Sim,
    state: Rc<RefCell<LinkState>>,
}

impl Clone for BwLink {
    fn clone(&self) -> Self {
        BwLink {
            sim: self.sim.clone(),
            state: Rc::clone(&self.state),
        }
    }
}

impl BwLink {
    /// Creates a link with the given capacity in bytes/second and perfect
    /// sharing (no contention penalty).
    pub fn new(sim: &Sim, capacity_bps: f64) -> Self {
        assert!(
            capacity_bps > 0.0 && capacity_bps.is_finite(),
            "capacity must be positive"
        );
        BwLink {
            sim: sim.clone(),
            state: Rc::new(RefCell::new(LinkState {
                capacity_bps,
                flows: Vec::new(),
                free: Vec::new(),
                active: 0,
                last_advance: 0,
                gen: 0,
                total_bytes: 0.0,
                busy_ns: 0,
                ops_completed: 0,
            })),
        }
    }

    /// Re-points the capacity (models external load shifts on a shared PFS,
    /// §3.3). Takes effect immediately for in-flight transfers.
    pub fn set_capacity_bps(&self, bps: f64) {
        assert!(bps > 0.0 && bps.is_finite(), "capacity must be positive");
        let now = self.sim.now();
        let mut s = self.state.borrow_mut();
        s.advance(now);
        s.capacity_bps = bps;
        drop(s);
        self.sync_completion_event();
    }

    /// Number of in-flight transfers.
    pub fn active_flows(&self) -> usize {
        self.state.borrow().active
    }

    /// Total bytes delivered so far.
    pub fn total_bytes(&self) -> f64 {
        let now = self.sim.now();
        let mut s = self.state.borrow_mut();
        s.advance(now);
        s.total_bytes
    }

    /// Seconds during which at least one transfer was in flight.
    pub fn busy_seconds(&self) -> f64 {
        let now = self.sim.now();
        let mut s = self.state.borrow_mut();
        s.advance(now);
        s.busy_ns as f64 / NS_PER_SEC as f64
    }

    /// Number of completed transfers.
    pub fn ops_completed(&self) -> u64 {
        self.state.borrow().ops_completed
    }

    /// Starts a transfer of `bytes`; resolves when the fluid model has
    /// delivered them. Zero-byte transfers complete immediately.
    pub fn transfer(&self, bytes: u64) -> Transfer {
        Transfer {
            link: self.clone(),
            bytes,
            slot: None,
            finished: false,
        }
    }

    /// Recomputes and (re)schedules the next completion event. Must be
    /// called after every state change that affects rates or membership.
    fn sync_completion_event(&self) {
        let mut s = self.state.borrow_mut();
        s.gen += 1;
        let gen = s.gen;
        let Some(at) = s.next_completion() else {
            return;
        };
        drop(s);
        let state = Rc::clone(&self.state);
        let link = self.clone();
        self.sim.call_at(at, move |sim| {
            let woken = {
                let mut s = state.borrow_mut();
                if s.gen != gen {
                    return; // stale event: state changed since scheduling
                }
                s.advance(sim.now());
                s.reap()
            };
            for t in &woken {
                sim.wake(*t);
            }
            link.sync_completion_event();
        });
    }
}

/// Future returned by [`BwLink::transfer`].
pub struct Transfer {
    link: BwLink,
    bytes: u64,
    slot: Option<usize>,
    finished: bool,
}

impl Future for Transfer {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = &mut *self;
        match this.slot {
            None => {
                if this.bytes == 0 {
                    this.finished = true;
                    return Poll::Ready(());
                }
                let now = this.link.sim.now();
                let task = this.link.sim.current_task();
                {
                    let mut s = this.link.state.borrow_mut();
                    s.advance(now);
                    let woken = s.reap();
                    for t in woken {
                        this.link.sim.wake(t);
                    }
                    let flow = Flow {
                        remaining: this.bytes as f64,
                        task,
                        done: false,
                    };
                    let idx = match s.free.pop() {
                        Some(i) => {
                            s.flows[i] = Some(flow);
                            i
                        }
                        None => {
                            s.flows.push(Some(flow));
                            s.flows.len() - 1
                        }
                    };
                    s.active += 1;
                    this.slot = Some(idx);
                }
                this.link.sync_completion_event();
                Poll::Pending
            }
            Some(idx) => {
                let mut s = this.link.state.borrow_mut();
                let done = s.flows[idx].as_ref().is_some_and(|f| f.done);
                if done {
                    s.flows[idx] = None;
                    s.free.push(idx);
                    drop(s);
                    this.finished = true;
                    Poll::Ready(())
                } else {
                    Poll::Pending
                }
            }
        }
    }
}

impl Drop for Transfer {
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        let Some(idx) = self.slot else { return };
        let now = self.link.sim.now();
        let mut s = self.link.state.borrow_mut();
        s.advance(now);
        if let Some(f) = s.flows[idx].take() {
            if !f.done {
                s.active -= 1;
            }
            s.free.push(idx);
        }
        drop(s);
        self.link.sync_completion_event();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::to_secs;

    fn approx(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b} ± {tol}, got {a}");
    }

    #[test]
    fn single_flow_takes_bytes_over_capacity() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 1e9); // 1 GB/s
        let l = link.clone();
        let s = sim.clone();
        let t = sim.block_on(async move {
            l.transfer(2_000_000_000).await; // 2 GB
            s.now()
        });
        approx(to_secs(t), 2.0, 1e-6);
        assert_eq!(link.ops_completed(), 1);
    }

    #[test]
    fn two_equal_flows_share_fairly() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 100.0);
        let mut ends = Vec::new();
        for _ in 0..2 {
            let l = link.clone();
            let s = sim.clone();
            ends.push(sim.spawn(async move {
                l.transfer(100).await;
                s.now()
            }));
        }
        sim.run();
        for h in ends {
            // 200 bytes total over 100 B/s aggregate → both end at ~2 s.
            approx(to_secs(h.try_take().unwrap()), 2.0, 1e-6);
        }
    }

    #[test]
    fn staggered_flows_follow_piecewise_rates() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 100.0);
        let a = sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                l.transfer(100).await;
                s.now()
            }
        });
        let b = sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                s.sleep(0.5).await;
                l.transfer(100).await;
                s.now()
            }
        });
        sim.run();
        // A: alone 0–0.5 s (50 B), then shared at 50 B/s → done at 1.5 s.
        approx(to_secs(a.try_take().unwrap()), 1.5, 1e-6);
        // B: shared 0.5–1.5 s (50 B), then alone → done at 2.0 s.
        approx(to_secs(b.try_take().unwrap()), 2.0, 1e-6);
    }

    #[test]
    fn aggregate_throughput_constant_latency_grows() {
        // The Fig. 4 property: total time for N concurrent equal transfers
        // scales with N (per-op latency), while delivered bytes/total time
        // (aggregate throughput) stays flat.
        for n in [1usize, 2, 4, 8] {
            let sim = Sim::new();
            let link = BwLink::new(&sim, 1000.0);
            for _ in 0..n {
                let l = link.clone();
                sim.spawn(async move { l.transfer(1000).await });
            }
            let end = {
                sim.run();
                sim.now_secs()
            };
            approx(end, n as f64, 1e-6);
            approx(link.total_bytes() / end, 1000.0, 1e-3);
        }
    }

    #[test]
    fn zero_byte_transfer_is_instant() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 10.0);
        let l = link.clone();
        let s = sim.clone();
        sim.block_on(async move {
            l.transfer(0).await;
            assert_eq!(s.now(), 0);
        });
    }

    #[test]
    fn cancelled_transfer_frees_bandwidth() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 100.0);
        let a = sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                l.transfer(100).await;
                s.now()
            }
        });
        // B starts a transfer then abandons it at t = 0.5 s.
        sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                let mut t = std::pin::pin!(l.transfer(1_000_000));
                std::future::poll_fn(|cx| {
                    assert!(t.as_mut().poll(cx).is_pending());
                    std::task::Poll::Ready(())
                })
                .await;
                s.sleep(0.5).await;
                // Dropping the pinned transfer cancels it.
            }
        });
        sim.run();
        // A shared 0–0.5 s (25 B), then alone: 75 B at 100 B/s → 1.25 s.
        approx(to_secs(a.try_take().unwrap()), 1.25, 1e-6);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn capacity_change_mid_flight_applies() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 100.0);
        let a = sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                l.transfer(100).await;
                s.now()
            }
        });
        sim.spawn({
            let l = link.clone();
            let s = sim.clone();
            async move {
                s.sleep(0.5).await;
                l.set_capacity_bps(50.0); // external load halves the PFS
            }
        });
        sim.run();
        // 50 B at 100 B/s, then 50 B at 50 B/s → 0.5 + 1.0 = 1.5 s.
        approx(to_secs(a.try_take().unwrap()), 1.5, 1e-6);
    }

    #[test]
    fn busy_time_excludes_idle_gaps() {
        let sim = Sim::new();
        let link = BwLink::new(&sim, 100.0);
        let l = link.clone();
        let s = sim.clone();
        sim.block_on(async move {
            l.transfer(100).await; // 1 s busy
            s.sleep(3.0).await; // idle
            l.transfer(100).await; // 1 s busy
        });
        approx(link.busy_seconds(), 2.0, 1e-6);
        approx(link.total_bytes(), 200.0, 1e-3);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use mlp_testkit::cases;

    #[test]
    fn bytes_are_conserved_under_arbitrary_flows() {
        cases(32, |g| {
            let sizes = g.vec(1..12, |g| g.range(1u64..5_000));
            let starts = g.vec(1..12, |g| g.range(0u64..3_000_000_000));
            let capacity = g.range(100.0f64..10_000.0);
            let sim = Sim::new();
            let link = BwLink::new(&sim, capacity);
            let n = sizes.len().min(starts.len());
            let mut handles = Vec::new();
            for i in 0..n {
                let l = link.clone();
                let s = sim.clone();
                let bytes = sizes[i];
                let at = starts[i];
                handles.push(sim.spawn(async move {
                    s.sleep_ns(at).await;
                    let t0 = s.now_secs();
                    l.transfer(bytes).await;
                    (bytes, s.now_secs() - t0)
                }));
            }
            sim.run();
            let mut total = 0u64;
            for h in handles {
                let (bytes, secs) = h.try_take().expect("flow completed");
                total += bytes;
                // No flow finishes faster than the full link allows.
                assert!(
                    secs + 1e-9 >= bytes as f64 / capacity,
                    "{bytes} B in {secs}s at {capacity} B/s"
                );
            }
            // Fluid accounting delivers every byte exactly once.
            let delivered = link.total_bytes();
            assert!(
                (delivered - total as f64).abs() < 1.0,
                "delivered {delivered} of {total}"
            );
            assert_eq!(link.active_flows(), 0);
            assert_eq!(link.ops_completed(), n as u64);
        });
    }
}
