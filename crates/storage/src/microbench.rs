//! Bandwidth microbenchmarks: the B_i measurement step of §3.3.
//!
//! "Initially, B_i for each alternative storage is measured using
//! microbenchmarks." This module measures real backends with wall-clock
//! timing, and simulated tiers with virtual-clock timing (including the
//! concurrency sweep behind Fig. 4).

use std::io;

use mlp_sim::Sim;

use crate::backend::Backend;
use crate::sim_tier::SimTier;
use crate::spec::TierSpec;

/// Result of one bandwidth measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BandwidthSample {
    /// Measured read throughput, bytes/second.
    pub read_bps: f64,
    /// Measured write throughput, bytes/second.
    pub write_bps: f64,
}

impl BandwidthSample {
    /// The value the performance model uses: min(read, write).
    pub fn model_bandwidth_bps(&self) -> f64 {
        self.read_bps.min(self.write_bps)
    }
}

/// Measures a real backend by writing then reading `blocks` objects of
/// `block_bytes` each. The objects are deleted afterwards.
pub fn measure_backend(
    backend: &dyn Backend,
    block_bytes: usize,
    blocks: usize,
) -> io::Result<BandwidthSample> {
    assert!(blocks > 0 && block_bytes > 0, "need data to measure");
    let data = vec![0xA5u8; block_bytes];
    let keys: Vec<String> = (0..blocks).map(|i| format!("__microbench/{i}")).collect();

    let t0 = std::time::Instant::now();
    for k in &keys {
        backend.write(k, &data)?;
    }
    let write_secs = t0.elapsed().as_secs_f64().max(1e-9);

    let t0 = std::time::Instant::now();
    for k in &keys {
        let back = backend.read(k)?;
        std::hint::black_box(back.len());
    }
    let read_secs = t0.elapsed().as_secs_f64().max(1e-9);

    for k in &keys {
        let _ = backend.delete(k);
    }

    let total = (block_bytes * blocks) as f64;
    Ok(BandwidthSample {
        read_bps: total / read_secs,
        write_bps: total / write_secs,
    })
}

/// One point of the Fig. 4 concurrency sweep on a simulated tier:
/// `procs` simulated processes each stream `bytes_per_proc` of writes then
/// reads. Returns (aggregate sample, per-process mean op latency seconds).
pub fn measure_sim_tier_concurrent(
    spec: &TierSpec,
    bytes_per_proc: u64,
    procs: usize,
) -> (BandwidthSample, f64) {
    assert!(procs > 0, "need at least one process");
    let sim = Sim::new();
    let tier = SimTier::new(&sim, spec);

    // Writes phase.
    let mut write_handles = Vec::new();
    for _ in 0..procs {
        let t = tier.clone();
        let s = sim.clone();
        write_handles.push(sim.spawn(async move {
            let start = s.now_secs();
            t.write(bytes_per_proc).await;
            s.now_secs() - start
        }));
    }
    sim.run();
    let write_secs = sim.now_secs();
    #[expect(clippy::expect_used, reason = "sim.run() completes every task")]
    let write_latency: f64 = write_handles
        .iter()
        .map(|h| h.try_take().expect("write done"))
        .sum::<f64>()
        / procs as f64;

    // Reads phase.
    let read_start = sim.now_secs();
    let mut read_handles = Vec::new();
    for _ in 0..procs {
        let t = tier.clone();
        let s = sim.clone();
        read_handles.push(sim.spawn(async move {
            let start = s.now_secs();
            t.read(bytes_per_proc).await;
            s.now_secs() - start
        }));
    }
    sim.run();
    let read_secs = sim.now_secs() - read_start;
    #[expect(clippy::expect_used, reason = "sim.run() completes every task")]
    let read_latency: f64 = read_handles
        .iter()
        .map(|h| h.try_take().expect("read done"))
        .sum::<f64>()
        / procs as f64;

    let total = (bytes_per_proc * procs as u64) as f64;
    (
        BandwidthSample {
            read_bps: total / read_secs,
            write_bps: total / write_secs,
        },
        (read_latency + write_latency) / 2.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;
    use crate::spec::{testbed1_nvme, testbed1_pfs};

    #[test]
    fn backend_measurement_orders_throttled_tiers() {
        let fast = MemBackend::throttled("fast", 400e6, 400e6);
        let slow = MemBackend::throttled("slow", 50e6, 50e6);
        let f = measure_backend(&fast, 1 << 20, 4).expect("measure fast");
        let s = measure_backend(&slow, 1 << 20, 4).expect("measure slow");
        assert!(f.read_bps > s.read_bps);
        assert!(f.write_bps > s.write_bps);
        // Within a factor ~2 of the configured throttle.
        assert!(
            s.write_bps < 100e6 && s.write_bps > 25e6,
            "got {}",
            s.write_bps
        );
    }

    #[test]
    fn model_bandwidth_is_min() {
        let s = BandwidthSample {
            read_bps: 10.0,
            write_bps: 4.0,
        };
        assert_eq!(s.model_bandwidth_bps(), 4.0);
    }

    #[test]
    fn sim_sweep_aggregate_flat_latency_grows() {
        // The Fig. 4 shape on the simulated NVMe.
        let spec = testbed1_nvme();
        let (s1, l1) = measure_sim_tier_concurrent(&spec, 1 << 30, 1);
        let (s8, l8) = measure_sim_tier_concurrent(&spec, 1 << 30, 8);
        // Aggregate stays within a few percent.
        assert!((s8.write_bps / s1.write_bps - 1.0).abs() < 0.05);
        assert!((s8.read_bps / s1.read_bps - 1.0).abs() < 0.05);
        // Per-process latency grows ~8×.
        assert!(l8 / l1 > 6.0, "latency ratio {}", l8 / l1);
    }

    #[test]
    fn sim_measurement_recovers_spec_bandwidths() {
        for spec in [testbed1_nvme(), testbed1_pfs()] {
            let (s, _) = measure_sim_tier_concurrent(&spec, 4 << 30, 1);
            assert!(
                (s.read_bps / spec.read_bps - 1.0).abs() < 0.02,
                "{}",
                spec.name
            );
            assert!(
                (s.write_bps / spec.write_bps - 1.0).abs() < 0.02,
                "{}",
                spec.name
            );
        }
    }
}
