#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Mixed-precision Adam optimizer substrate.
//!
//! The paper's update phase runs Adam on the CPU over FP32 master state
//! (parameters, momentum, variance) fetched subgroup-by-subgroup from the
//! storage hierarchy, consuming gradients produced in FP16 by the backward
//! pass (§2). The computation is embarrassingly parallel across subgroups —
//! the property the cache-friendly reordering optimization exploits (§3.2).
//!
//! * [`adam`] — the update kernels (scalar and parallel) and
//!   [`adam::AdamConfig`].
//! * [`fused`] — single-pass fused mixed-precision update kernels
//!   (unscale + moment update + step + FP16 emission in one sweep), the
//!   hot path of the functional engines.
//! * [`state::SubgroupState`] — one subgroup's FP32 master state with
//!   byte-level (de)serialization, the payload moved through storage
//!   tiers — and [`state::SubgroupStateMut`], its zero-copy borrowed view
//!   over a contiguous staging buffer.
//! * [`accum::GradAccumulator`] — the host-resident FP16 gradient
//!   accumulation buffer (§4.5).
//! * [`scaler::DynamicLossScaler`] — standard mixed-precision loss scaling.
//! * [`optimizer`] — global gradient-norm clipping helpers, and the
//!   [`OptimizerConfig`] alias of [`AdamConfig`] that `benchmark/` binds.
//!
//! Adam is the only optimizer: every engine, trainer and oracle calls
//! [`adam::adam_step`] (or its parallel form) on an [`AdamConfig`].

pub mod accum;
pub mod adam;
pub mod fused;
pub mod optimizer;
pub mod scaler;
pub mod state;
pub mod traced;

pub use adam::AdamConfig;
pub use optimizer::OptimizerConfig;
pub use state::{SubgroupState, SubgroupStateMut};
