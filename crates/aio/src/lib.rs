#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Asynchronous I/O engine — the reproduction's libaio/DeepNVMe layer.
//!
//! DeepSpeed's DeepNVMe engine submits reads and writes to a kernel
//! asynchronous-I/O queue and polls completions while the CPU computes
//! (§3.5). This crate reproduces that architecture in portable Rust:
//!
//! * [`engine::AioEngine`] — a per-tier engine with a submission queue,
//!   bounded in-flight operations, and completion handles
//!   ([`engine::OpHandle`]), delegating byte movement to a pluggable
//!   [`io_engine::EngineKind`] backend.
//! * [`io_engine`] — the engine backends behind the façade: the original
//!   bounded worker **pool**, an inline **sync** fallback, and a batched
//!   **io_uring** driver (feature `uring`, runtime-probed) with
//!   `O_DIRECT` and registered 4096-aligned bounce buffers.
//!   `EngineKind::Auto` picks per host and backend;
//!   [`engine::AioEngine::engine_name`] reports the choice.
//! * [`engine::RetryPolicy`] — bounded exponential-backoff retry of
//!   transient backend errors, executed inside the I/O workers; panicking
//!   backends poison the op's completion handle instead of hanging
//!   waiters. Backoff delays run on an injected
//!   [`mlp_storage::Sleeper`], so deterministic fault suites pay no
//!   wall-clock time.
//! * Deadline watchdog ([`engine::AioConfig::deadline`]) — a supervisor
//!   thread that turns a hung backend into a typed
//!   [`std::io::ErrorKind::TimedOut`] completion within the deadline on
//!   every engine backend, instead of a stuck `wait_flush`/`drain`.
//! * [`lock::ProcessExclusiveLock`] — the paper's "process-exclusive
//!   multi-thread-shared locking mechanism": all I/O threads of one worker
//!   process share the tier while other worker processes are excluded
//!   (§3.2, §3.5).
//!
//! The crate root denies `unsafe`; the single sanctioned exception is
//! the io_uring syscall shim `io_engine/sys.rs` (module-scoped allow,
//! pinned by the workspace `unsafe-confinement` lint, compiled only with
//! the `uring` feature), which keeps raw kernel interfaces out of the
//! engine driver — a default build of this crate contains no `unsafe`.

pub mod completion;
pub mod engine;
pub mod io_engine;
pub mod lock;
#[cfg(not(loom))]
mod watchdog;

pub use completion::{CompletionSlot, PendingGauge};
pub use engine::{AioConfig, AioEngine, OpHandle, ReclaimedWrite, RetryPolicy};
pub use io_engine::{EngineAvailability, EngineKind};
pub use lock::ProcessExclusiveLock;
