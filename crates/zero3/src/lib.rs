#![warn(missing_docs)]
#![deny(unsafe_code)]
// Hot-path discipline (DESIGN.md §9): the library neither panics nor
// prints; tests may (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

//! The comparison baseline: DeepSpeed ZeRO-3 with the DeepNVMe
//! asynchronous offloading engine (Fig. 6 top).
//!
//! In both modes the baseline is the unified engine of [`mlp_offload`]
//! with every MLP-Offload optimization disabled
//! ([`mlp_offload::EngineConfig::deepspeed_zero3`]) and a single NVMe tier
//! — exactly how the paper's Fig. 14 ablation treats it. With "Skip
//! Gradients" off, the functional engine *eagerly* upscales FP16
//! gradients to FP32 during the backward pass, accumulates them in FP32 on
//! the host, flushes them through storage, and fetches them back alongside
//! the optimizer state during the update — the redundant round trip
//! MLP-Offload's delayed conversion removes. [`func::Zero3FuncEngine`] is
//! a thin adaptor that gives that configuration a single-backend
//! signature; it holds no update loop of its own.

pub mod func;

pub use func::Zero3FuncEngine;
