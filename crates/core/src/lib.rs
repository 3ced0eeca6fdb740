#![warn(missing_docs)]
#![deny(unsafe_code)]
// Hot-path discipline (DESIGN.md §9): the library neither panics nor
// prints; tests may (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! **MLP-Offload** — multi-level, multi-path offloading for LLM
//! pre-training (reproduction of Maurya et al., SC '25).
//!
//! The optimizer state of a mixed-precision LLM (FP32 master parameters,
//! momentum, variance — 12 bytes/parameter) dwarfs both GPU and host
//! memory, forcing offload to third-level storage whose bandwidth then
//! dominates iteration time. MLP-Offload attacks that bottleneck with four
//! design principles (§3.2 of the paper):
//!
//! 1. **Unified multi-level, multi-path offloading** — all alternative
//!    storages (node-local NVMe, parallel file system, object store) form
//!    one *virtual tier*; subgroups are placed across them proportionally
//!    to bandwidth ([`policy::allocation`], Eq. 1).
//! 2. **Tier-exclusive concurrency control** — one worker process per node
//!    accesses a given storage at a time, avoiding interleaved-I/O
//!    degradation while other workers compute or use other paths.
//! 3. **Cache-friendly subgroup ordering** — the update order alternates
//!    between ascending and descending ids so the subgroups cached in host
//!    memory at the end of one iteration are exactly the first processed in
//!    the next ([`policy::ordering`]).
//! 4. **Delayed in-place mixed-precision gradient conversion** — FP16
//!    gradients stay in host memory and are upscaled during the update,
//!    eliminating FP32 gradient traffic through storage.
//!
//! Every scheduling decision (order, hit or fetch, eviction, the Eq. 1
//! flush split, what to migrate or drain) is made once, by the
//! [`policy::ledger::SubgroupLedger`]; two engines execute them:
//!
//! * [`sim::SimWorker`] — virtual-time engine over [`mlp_sim`] used to
//!   reproduce the paper's performance figures. A single configurable
//!   engine covers the whole ablation spectrum from DeepSpeed-ZeRO-3-like
//!   behaviour ([`EngineConfig::deepspeed_zero3`]) to full MLP-Offload
//!   ([`EngineConfig::mlp_offload`]), exactly like the paper's Fig. 14/15
//!   progressive-activation study.
//! * [`func::MlpFuncEngine`] — a real-bytes engine over [`mlp_aio`] and
//!   [`mlp_storage::Backend`]s that validates numerical correctness of
//!   offloaded training end to end.

pub mod checkpoint;
pub mod config;
pub mod func;
pub mod policy;
pub mod sim;
pub mod stats;

pub use config::{AblationStage, EngineConfig};
pub use mlp_aio::{AioConfig, RetryPolicy};
pub use policy::allocation::BandwidthEstimator;
pub use policy::ordering::OrderPolicy;
pub use policy::replan::{AdaptivePlanner, MigrationStep};
