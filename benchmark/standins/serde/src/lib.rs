//! Offline stand-in for `serde`: marker traits every type implements, plus
//! the no-op derives. The program only serializes in code paths the
//! benchmark never reaches (`EngineConfig::from_deepspeed_json`, the
//! `mlp-bench`/`mlp-train` reporters), so nothing here moves bytes.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
impl<T: ?Sized> Serialize for T {}

pub trait Deserialize<'de> {}
impl<'de, T: ?Sized> Deserialize<'de> for T {}
