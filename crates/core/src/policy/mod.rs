//! Pure decision logic shared by the simulated and functional engines:
//! where each subgroup lives ([`allocation`]), in what order subgroups are
//! updated ([`ordering`]), which stay cached in host memory ([`cache`]),
//! how the plan adapts to observed bandwidth mid-training ([`replan`]),
//! and the per-worker [`ledger`] that applies all of them to one slot per
//! subgroup. Keeping these pure makes the contribution directly
//! property-testable, independent of any execution substrate.

pub mod allocation;
pub mod cache;
pub mod ledger;
pub mod ordering;
pub mod replan;
