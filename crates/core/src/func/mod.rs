//! The functional (real-bytes) MLP-Offload engine.
//!
//! Where [`crate::sim`] reproduces the paper's *performance*, this engine
//! validates its *correctness*: actual FP32 optimizer state moves through
//! actual storage backends via the asynchronous I/O layer, gradients
//! really are kept in FP16 host buffers and upscaled lazily (or, below the
//! "Skip Gradients" rung, really do make the FP32 round trip through
//! storage), and the final master parameters must be bit-identical to a
//! never-offloaded reference regardless of subgroup order, cache budget,
//! tier split, or ablation rung.

pub mod engine;

pub use engine::{MlpFuncEngine, SharedTier, UpdateOutcome};
