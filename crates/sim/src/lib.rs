#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Deterministic discrete-event simulation (DES) kernel with an async/await
//! process model.
//!
//! The offloading engines in this workspace are written as ordinary `async`
//! code (`tier.read(sub).await`, `lock.acquire().await`, ...). In *simulated
//! mode* those futures run on the single-threaded executor provided here: a
//! virtual clock advances instantly between events, so an iteration that
//! takes minutes of "paper time" simulates in microseconds, and every run is
//! bit-for-bit deterministic.
//!
//! The kernel provides:
//!
//! * [`Sim`] — the executor handle: [`Sim::spawn`], [`Sim::run`],
//!   [`Sim::block_on`], and the virtual clock ([`Sim::now`]).
//! * [`Delay`] (via [`Sim::sleep`] / [`Sim::sleep_ns`]) — virtual-time timers.
//! * [`sync::Semaphore`], [`sync::Notify`] — FIFO cooperative
//!   synchronization primitives; a one-permit semaphore is the
//!   tier-exclusive lock, a many-permit one bounds host-buffer slots.
//! * [`channel`] — unbounded FIFO channels between simulated processes.
//! * [`bandwidth::BwLink`] — a processor-sharing ("fluid flow") bandwidth
//!   resource modelling a storage channel or interconnect: aggregate
//!   throughput is conserved while per-flow latency grows with concurrency.
//!
//! # Example
//!
//! ```
//! use mlp_sim::{Sim, time::secs};
//!
//! let sim = Sim::new();
//! let handle = sim.spawn({
//!     let sim = sim.clone();
//!     async move {
//!         sim.sleep_ns(secs(1.5)).await;
//!         sim.now()
//!     }
//! });
//! let end = sim.block_on(handle);
//! assert_eq!(end, secs(1.5));
//! ```

pub mod bandwidth;
pub mod channel;
mod delay;
mod executor;
pub mod sync;
pub mod time;

pub use delay::Delay;
pub use executor::{JoinHandle, Sim, TaskId};
pub use time::SimTime;
