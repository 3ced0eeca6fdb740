#![warn(missing_docs)]
#![deny(unsafe_code)]
// Hot-path discipline (DESIGN.md §9): the library neither panics nor
// prints; tests may (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! Storage-tier substrate.
//!
//! The paper's third-level tier is a set of *alternative storages* —
//! node-local NVMe, a parallel file system, object stores — each with its
//! own read/write bandwidth and behaviour under concurrency (Table 1,
//! §3.1). This crate provides:
//!
//! * [`spec::TierSpec`] — a tier's measured characteristics, with constants
//!   for both paper testbeds.
//! * [`sim_tier::SimTier`] — a virtual-time tier backed by fluid-flow
//!   bandwidth links, used by the performance-reproduction engines.
//! * [`backend`] — real byte-moving backends (in-memory with optional
//!   throttling, filesystem directory), used by the functional engines and
//!   the real async I/O layer.
//! * [`microbench`] — the B_i measurement step of the paper's performance
//!   model (§3.3), for both real backends and simulated tiers.
//! * [`integrity`] — CRC-32 framing that turns silent corruption of
//!   offloaded state into an I/O error at fetch time.
//! * [`fault`] — the transient/permanent error taxonomy shared with the
//!   retry layer, and a deterministic (seeded) fault-injecting backend
//!   decorator for exercising it.
//! * [`clock`] — the injectable [`Sleeper`] behind every deliberate
//!   delay (retry backoff, latency spikes), so deterministic suites run
//!   off a fake instead of the wall clock.
//! * [`health`] — per-tier circuit breakers (closed/open/half-open/
//!   quarantined) over the error taxonomy and latency SLOs; the signal
//!   the quarantine-and-drain path reacts to.
//! * [`object`] — an emulated S3-like object store (first-byte latency,
//!   per-stream bandwidth, multipart upload, no rename), the
//!   third-level tier behind NVMe and the PFS.

pub mod backend;
pub mod clock;
pub mod fault;
pub mod health;
pub mod integrity;
pub mod microbench;
pub mod object;
pub mod sim_tier;
pub mod spec;
pub mod traced;

pub use backend::{Backend, DirBackend, MemBackend, MemTouches};
pub use clock::{wall_clock, FakeSleeper, Sleeper, WallClockSleeper};
pub use fault::{
    classify, is_transient, ErrorClass, FaultConfig, FaultCounts, FaultInjectBackend, FaultOps,
};
pub use health::{breaker_rejection, BreakerState, HealthConfig, TierHealth};
pub use integrity::ChecksummedBackend;
pub use object::{ObjectBackend, ObjectConfig};
pub use sim_tier::SimTier;
pub use spec::{TierKind, TierSpec};
pub use traced::TracedBackend;
