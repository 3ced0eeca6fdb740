#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Unified observability layer for the offload pipeline
//! (DESIGN.md §10).
//!
//! Every headline result in the MLP-Offload paper — the Figure 5
//! per-phase iteration timelines, the tier-bandwidth utilization
//! curves, the overlap-efficiency breakdowns — is an observability
//! artifact. This crate is the single place those artifacts come from:
//!
//! * [`TraceSink`] — a clone-able, zero-cost-when-disabled recording
//!   handle threaded through `EngineConfig`/`AioConfig`. Instrumented
//!   components (the aio engine, the pinned pool, the storage tiers,
//!   the fused optimizer kernels, the engines and trainer) record
//!   [`TraceEvent`]s and update metrics through it.
//!   Events go into one `Vec` behind one lock, in sequence order.
//! * [`MetricsRegistry`] — typed counters, gauges, and fixed
//!   log2-bucket histograms, unifying the ad-hoc counters that
//!   previously lived in `core::stats`, `AioEngine`, and the storage
//!   tiers.
//! * Exporters — [`chrome_trace_json`] for `chrome://tracing` /
//!   Perfetto timelines (with [`parse_chrome_trace`] as the verified
//!   inverse) and [`IoSummary`] for the plain-text per-tier
//!   bytes/bandwidth table printed at the end of a run.
//!
//! The only runtime dependency is `mlp-sync`; everything else —
//! including the Chrome JSON writer *and reader* — is implemented
//! in-tree. See `OBSERVABILITY.md` at the workspace root for the event
//! taxonomy and a worked Figure 5 example.
//!
//! # Example
//!
//! ```
//! use mlp_trace::{Attrs, Phase, TraceSink};
//!
//! let sink = TraceSink::with_capacity(1024);
//! // An instrumented component records a fetch span...
//! let t0 = sink.now_ns();
//! // ... perform the 4 KiB read ...
//! sink.complete_span(
//!     Phase::Fetch,
//!     Attrs { tier: 0, subgroup: 3, ..Attrs::bytes(4096) },
//!     t0,
//!     sink.now_ns(),
//! );
//! sink.counter("tier0.read_bytes").add(4096);
//!
//! // ...and the driver exports at end of run.
//! let events = sink.events();
//! let json = mlp_trace::chrome_trace_json(&events);
//! let back = mlp_trace::parse_chrome_trace(&json).unwrap();
//! assert_eq!(back, events);
//! ```

pub mod chrome;
pub mod event;
pub mod json;
pub mod metrics;
pub mod sink;
pub mod summary;

pub use chrome::{chrome_trace_json, chrome_trace_json_named, parse_chrome_trace};
pub use event::{Attrs, EventKind, IoDirection, Phase, TraceEvent, ALL_PHASES};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use sink::{set_thread_lane, SpanGuard, TraceSink, DRIVER_TID};
pub use summary::{human_bytes, IoSummary, TierIo};
