//! The paper's testbeds (Table 1).

use mlp_storage::spec::{
    testbed1_nvme, testbed1_pfs, testbed2_nvme, testbed2_pfs, TierKind, TierSpec,
};

use crate::comm::NetworkSpec;
use crate::compute::{a100, h100, GpuSpec};

/// One testbed row of Table 1 plus the derived model parameters.
#[derive(Clone, Debug)]
pub struct Testbed {
    /// Display name.
    pub name: String,
    /// GPU model on this testbed.
    pub gpu: GpuSpec,
    /// GPUs per node.
    pub gpus_per_node: usize,
    /// Host memory per node, bytes.
    pub host_bytes: u64,
    /// Pinned device↔host bandwidth per GPU, bytes/second.
    pub d2h_bps: f64,
    /// CPU cores per node.
    pub cpu_cores: usize,
    /// Aggregate CPU optimizer-update throughput, parameters/second.
    pub cpu_update_params_per_s: f64,
    /// Aggregate FP16→FP32 conversion throughput, FP16 bytes/second.
    pub conv_bytes_per_s: f64,
    /// Node-local NVMe.
    pub nvme: TierSpec,
    /// Parallel file system.
    pub pfs: TierSpec,
    /// Network fabric.
    pub network: NetworkSpec,
}

const GIB: u64 = 1 << 30;

/// Testbed-1: ANL JLSE — 4×H100-80GB, 96 cores, 512 GB host memory,
/// 55 GB/s pinned D↔H, NVMe 6.9/5.3 GB/s, VAST PFS 3.6/3.6 GB/s.
pub fn testbed1() -> Testbed {
    Testbed {
        name: "Testbed-1 (JLSE 4xH100)".into(),
        gpu: h100(),
        gpus_per_node: 4,
        host_bytes: 512 * GIB,
        d2h_bps: 55e9,
        cpu_cores: 96,
        // Paper references: ~8000 Mparam/s CPU updates, 65 GB/s FP16→FP32.
        cpu_update_params_per_s: 8e9,
        conv_bytes_per_s: 65e9,
        nvme: testbed1_nvme(),
        pfs: testbed1_pfs(),
        network: NetworkSpec {
            intranode_bps: 450e9,
            internode_bps: 25e9,
        },
    }
}

/// Testbed-2: ALCF Polaris — 4×A100-40GB, 32 cores, 512 GB host memory,
/// 25 GB/s pinned D↔H, NVMe 13.5/4.8 GB/s, Lustre 6.9/13.7 GB/s.
pub fn testbed2() -> Testbed {
    Testbed {
        name: "Testbed-2 (Polaris 4xA100)".into(),
        gpu: a100(),
        gpus_per_node: 4,
        host_bytes: 512 * GIB,
        d2h_bps: 25e9,
        cpu_cores: 32,
        // Scaled by the core-count ratio from Testbed-1's references.
        cpu_update_params_per_s: 8e9 * 32.0 / 96.0,
        conv_bytes_per_s: 65e9 * 32.0 / 96.0,
        nvme: testbed2_nvme(),
        pfs: testbed2_pfs(),
        network: NetworkSpec {
            intranode_bps: 300e9,
            internode_bps: 25e9,
        },
    }
}

/// A pseudo "tier" describing host DRAM, used to model CPU-offloaded (but
/// not disk-offloaded) training: state moves at memory bandwidth with no
/// mixed-I/O penalty.
pub fn host_memory_tier() -> TierSpec {
    TierSpec {
        name: "host-dram".into(),
        kind: TierKind::HostMemory,
        read_bps: 100e9,
        write_bps: 100e9,
        mixed_rw_efficiency: 1.0,
        op_latency_s: 1e-6,
        per_stream_bps: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_host_memory_and_gpus() {
        let t1 = testbed1();
        assert_eq!(t1.gpus_per_node, 4);
        assert_eq!(t1.host_bytes, 512 * GIB);
        assert_eq!(t1.cpu_cores, 96);
        assert_eq!(t1.d2h_bps, 55e9);
        let t2 = testbed2();
        assert_eq!(t2.cpu_cores, 32);
        assert_eq!(t2.d2h_bps, 25e9);
    }

    #[test]
    fn testbed2_cpu_scales_with_cores() {
        let t2 = testbed2();
        assert!(t2.cpu_update_params_per_s < testbed1().cpu_update_params_per_s);
    }

    #[test]
    fn host_tier_is_fast_and_unpenalized() {
        let h = host_memory_tier();
        assert_eq!(h.mixed_rw_efficiency, 1.0);
        assert!(h.read_bps >= 50e9);
        assert!(!h.kind.is_persistent());
    }
}
