#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Model substrate: transformer architecture math, the paper's model zoo,
//! ZeRO-3 sharding into subgroups, and a DeepSpeed-style memory estimator.
//!
//! The paper trains decoder-only transformers described by three numbers
//! (Table 2): number of layers `N_L`, hidden dimension `D_H`, and attention
//! heads `AH`. Everything the offloading engines need — parameter counts,
//! FLOP counts, optimizer-state sizes, subgroup layouts, and host/GPU
//! memory footprints — derives from those numbers here.

pub mod config;
pub mod memory;
pub mod shard;
pub mod zoo;

pub use config::ModelConfig;
pub use memory::MemoryEstimate;
pub use shard::{ShardLayout, Subgroup, SubgroupLayout};
