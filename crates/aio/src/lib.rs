#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Hot-path discipline (DESIGN.md §9): the library neither panics nor
// prints; tests may (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Asynchronous I/O engine — the reproduction's libaio/DeepNVMe layer.
//!
//! DeepSpeed's DeepNVMe engine submits reads and writes to a kernel
//! asynchronous-I/O queue and polls completions while the CPU computes
//! (§3.5). This crate reproduces that architecture in portable Rust:
//!
//! * [`engine::AioEngine`] — a per-tier engine: a bounded submission
//!   queue, a pool of worker threads making blocking backend calls, and
//!   completion handles ([`engine::OpHandle`]), each over one
//!   [`CompletionSlot`] holding the op's whole outcome.
//! * [`engine::RetryPolicy`] — bounded exponential-backoff retry of
//!   transient backend errors, executed inside the I/O workers; panicking
//!   backends poison the op's completion handle instead of hanging
//!   waiters. Backoff delays run on an injected
//!   [`mlp_storage::Sleeper`], so deterministic fault suites pay no
//!   wall-clock time.
//! * Deadline watchdog ([`engine::AioConfig::deadline`]) — a supervisor
//!   thread that turns a hung backend into a typed
//!   [`std::io::ErrorKind::TimedOut`] answer within the deadline, instead
//!   of a stuck `wait_flush`; how the abandoned op settles later stays in
//!   its slot ([`engine::OpHandle::late_flush`]).
//! * Tier breaker ([`engine::AioConfig::health`]) — admits each backend
//!   attempt and hears its outcome, deadline timeouts included.
//! * [`lock::ProcessExclusiveLock`] — the paper's "process-exclusive
//!   multi-thread-shared locking mechanism": all I/O threads of one worker
//!   process share the tier while other worker processes are excluded
//!   (§3.2, §3.5).

pub mod completion;
pub mod engine;
pub mod lock;
#[cfg(not(loom))]
mod watchdog;

pub use completion::CompletionSlot;
pub use engine::{AioConfig, AioEngine, FlushResult, OpHandle, RetryPolicy};
pub use lock::ProcessExclusiveLock;
