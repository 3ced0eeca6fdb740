#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Training-iteration driver and paper-experiment harness.
//!
//! Assembles the substrates into full training runs: the analytic GPU
//! compute model ([`compute`]), the collective-communication cost model
//! ([`comm`]), the Table-1 testbed descriptions ([`testbed`]), the
//! iteration driver that runs simulated multi-worker training
//! ([`driver`]), and one function per paper figure ([`experiments`]).

pub mod comm;
pub mod compute;
pub mod driver;
pub mod experiments;
pub mod func_trainer;
pub mod testbed;

pub use driver::{IterationResult, TrainSetup};
pub use testbed::{testbed1, testbed2, Testbed};
