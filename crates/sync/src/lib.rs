#![warn(missing_docs)]

//! Synchronization facade for the offload I/O stack.
//!
//! Every concurrency-bearing protocol in the I/O path (the tier lock, the
//! engine completion/drain protocol, the pinned-pool buffer lifecycle)
//! imports its primitives from this crate instead of from `std::sync`
//! directly. That indirection buys one thing: the *same*
//! protocol source can be compiled against two different implementations.
//!
//! * **Normal builds** resolve to `std`: thin poison-transparent wrappers
//!   over `std::sync::{Mutex, Condvar}` and the `std` atomics and threads
//!   verbatim (the private `real` module). The workspace has no registry
//!   dependency, this crate included.
//! * **Model-checking builds** (`RUSTFLAGS="--cfg loom"`) swap in the
//!   instrumented primitives from [`model`], a CHESS-style systematic
//!   concurrency tester that enumerates thread interleavings and fails on
//!   deadlocks, lost wakeups, and assertion violations — see the module
//!   docs for the guarantees and the (explicitly documented) limits.
//!
//! The cfg name `loom` is kept so the conventional invocation works
//! unchanged (`RUSTFLAGS="--cfg loom" cargo test --test 'loom_*'`), even
//! though the checker is implemented in-tree rather than by the external
//! `loom` crate: the workspace builds offline, and the facade keeps the
//! door open to substituting the real crate later without touching any
//! protocol code.
//!
//! What ported code may use:
//!
//! * [`Mutex`], [`MutexGuard`], [`Condvar`] — no lock poisoning (a
//!   holder that panicked leaves the lock usable), `lock()` returns the
//!   guard directly, `Condvar::wait(&mut guard)`.
//! * [`atomic`] — `AtomicBool`/`AtomicU32`/`AtomicU64`/`AtomicUsize` and
//!   `Ordering`.
//! * [`thread`] — `spawn`, `Builder`, `JoinHandle`; plus `scope` and
//!   `available_parallelism` under the real resolution only (the model
//!   checker has no scoped threads, so loom-checked protocols must not
//!   use them).
//! * [`Arc`] — plain `std::sync::Arc` under both cfgs.

#![deny(unsafe_code)]

pub mod model;

#[cfg(not(loom))]
mod real;

#[cfg(not(loom))]
pub use real::{atomic, thread, Arc, Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use model::sync::{atomic, thread, Condvar, Mutex, MutexGuard};

#[cfg(loom)]
pub use std::sync::Arc;
