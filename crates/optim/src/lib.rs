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
//! * [`optimizer::OptimizerConfig`] — the optimizer zoo (Adam, SGD,
//!   Adagrad, Lion) over one serializable two-slot state layout, plus
//!   global gradient-norm clipping helpers.

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
