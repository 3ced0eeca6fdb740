//! Shared per-node simulation resources.
//!
//! One [`NodeSimEnv`] models a compute node: its third-level storage tiers
//! (with their node-level exclusive locks), the per-GPU pinned
//! device↔host links, the shared CPU update capacity, and the shared
//! FP16→FP32 conversion capacity. Worker processes (one per GPU) run as
//! simulated tasks against these shared resources, which is where all the
//! contention effects the paper studies come from.

use mlp_sim::bandwidth::BwLink;
use mlp_sim::sync::Semaphore;
use mlp_sim::Sim;
use mlp_storage::{SimTier, TierSpec};

/// Static description of a compute node (Table 1 row).
#[derive(Clone, Debug)]
pub struct NodeSpec {
    /// Third-level alternative storages available to this node. The
    /// baseline configuration lists only the NVMe; MLP-Offload adds the
    /// PFS (and possibly more).
    pub tier_specs: Vec<TierSpec>,
    /// GPUs (= worker processes) on the node.
    pub gpus: usize,
    /// Pinned device↔host bandwidth per GPU, bytes/second.
    pub d2h_bps: f64,
    /// Aggregate CPU optimizer-update throughput, parameters/second (the
    /// paper's reference: ~8 000 Mparam/s when state is host-resident).
    pub cpu_update_params_per_s: f64,
    /// Aggregate FP16→FP32 conversion throughput, bytes of FP16 input per
    /// second (65 GB/s on Testbed-1).
    pub conv_bytes_per_s: f64,
}

/// Instantiated shared resources of one node. Clones share all state.
#[derive(Clone)]
pub struct NodeSimEnv {
    /// The simulation executor.
    pub sim: Sim,
    /// Third-level tiers, index-aligned with `NodeSpec::tier_specs`.
    pub tiers: Vec<SimTier>,
    /// Node-level exclusive lock per tier ("Process Atomic R/W"): a
    /// one-permit FIFO semaphore.
    pub locks: Vec<Semaphore>,
    /// CPU update capacity; transfer units are *parameters*.
    pub cpu: BwLink,
    /// FP16→FP32 conversion capacity; transfer units are FP16 bytes.
    pub conv: BwLink,
    /// Per-GPU device→host links.
    pub d2h: Vec<BwLink>,
    /// Per-GPU host→device links.
    pub h2d: Vec<BwLink>,
}

impl NodeSimEnv {
    /// Builds the node's shared resources on `sim`.
    pub fn new(sim: &Sim, spec: &NodeSpec) -> Self {
        let tiers: Vec<SimTier> = spec
            .tier_specs
            .iter()
            .map(|t| SimTier::new(sim, t))
            .collect();
        Self::with_tiers(sim, spec, tiers)
    }

    /// Builds a node over externally supplied tier instances, so a
    /// globally shared facility (a PFS serving many nodes) can be one
    /// [`SimTier`] passed to every node's environment: cross-node I/O
    /// competition then emerges from the fluid model instead of being
    /// approximated. Tier locks stay node-local, matching the paper's
    /// node-level concurrency control ("only one worker process on each
    /// compute node", §3.2).
    pub fn with_tiers(sim: &Sim, spec: &NodeSpec, tiers: Vec<SimTier>) -> Self {
        assert!(spec.gpus > 0, "node needs at least one GPU");
        assert!(!spec.tier_specs.is_empty(), "node needs at least one tier");
        assert_eq!(tiers.len(), spec.tier_specs.len(), "tier/spec mismatch");
        let locks = spec
            .tier_specs
            .iter()
            .map(|_| Semaphore::new(sim, 1))
            .collect();
        let cpu = BwLink::new(sim, spec.cpu_update_params_per_s);
        let conv = BwLink::new(sim, spec.conv_bytes_per_s);
        let d2h = (0..spec.gpus)
            .map(|_| BwLink::new(sim, spec.d2h_bps))
            .collect();
        let h2d = (0..spec.gpus)
            .map(|_| BwLink::new(sim, spec.d2h_bps))
            .collect();
        NodeSimEnv {
            sim: sim.clone(),
            tiers,
            locks,
            cpu,
            conv,
            d2h,
            h2d,
        }
    }

    /// Number of third-level tiers.
    pub fn num_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// The §3.3 model bandwidths (min of read/write) per tier.
    pub fn model_bandwidths(&self) -> Vec<f64> {
        self.tiers
            .iter()
            .map(|t| t.spec().model_bandwidth_bps())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_storage::spec::{testbed1_nvme, testbed1_pfs};

    fn node_spec() -> NodeSpec {
        NodeSpec {
            tier_specs: vec![testbed1_nvme(), testbed1_pfs()],
            gpus: 4,
            d2h_bps: 55e9,
            cpu_update_params_per_s: 8e9,
            conv_bytes_per_s: 65e9,
        }
    }

    #[test]
    fn env_builds_aligned_resources() {
        let sim = Sim::new();
        let env = NodeSimEnv::new(&sim, &node_spec());
        assert_eq!(env.num_tiers(), 2);
        assert_eq!(env.locks.len(), 2);
        assert_eq!(env.d2h.len(), 4);
        assert_eq!(env.model_bandwidths(), vec![5.3e9, 3.6e9]);
    }

    #[test]
    fn cpu_link_shares_across_workers() {
        // Two workers updating 8e9 params each on an 8e9 params/s CPU:
        // 2 s total, confirming processor sharing of the update capacity.
        let sim = Sim::new();
        let env = NodeSimEnv::new(&sim, &node_spec());
        for _ in 0..2 {
            let cpu = env.cpu.clone();
            sim.spawn(async move { cpu.transfer(8_000_000_000).await });
        }
        sim.run();
        assert!((sim.now_secs() - 2.0).abs() < 1e-6);
    }
}
