//! A virtual-time storage tier: two fluid-flow links (read and write) plus
//! per-op latency, capacity accounting, and mixed-I/O degradation.
//!
//! Single-direction concurrent streaming shares the link fairly at full
//! capacity (the flat aggregate of Fig. 4). While reads and writes are in
//! flight *simultaneously*, both links run at the spec's
//! `mixed_rw_efficiency` — the interleaving penalty that uncoordinated
//! multi-process training I/O pays (Fig. 9) and that the paper's
//! tier-exclusive concurrency control avoids (§3.2).

use std::cell::Cell;
use std::rc::Rc;

use mlp_sim::bandwidth::BwLink;
use mlp_sim::Sim;

use crate::spec::TierSpec;

struct TierShared {
    active_reads: Cell<usize>,
    active_writes: Cell<usize>,
    mixed: Cell<bool>,
    used_bytes: Cell<u64>,
    /// External-load multiplier on both links (1.0 = unloaded).
    load_factor: Cell<f64>,
}

/// A simulated storage tier. Cheap to clone; clones share links and stats.
#[derive(Clone)]
pub struct SimTier {
    spec: TierSpec,
    sim: Sim,
    read_link: BwLink,
    write_link: BwLink,
    shared: Rc<TierShared>,
}

enum Dir {
    Read,
    Write,
}

/// Restores direction counts if a transfer future is dropped mid-flight.
struct DirGuard<'a> {
    tier: &'a SimTier,
    dir: Dir,
}

impl Drop for DirGuard<'_> {
    fn drop(&mut self) {
        let c = match self.dir {
            Dir::Read => &self.tier.shared.active_reads,
            Dir::Write => &self.tier.shared.active_writes,
        };
        c.set(c.get() - 1);
        self.tier.sync_mixed_mode();
    }
}

impl SimTier {
    /// Creates a tier from its spec.
    pub fn new(sim: &Sim, spec: &TierSpec) -> Self {
        let read_link = BwLink::new(sim, spec.read_bps);
        let write_link = BwLink::new(sim, spec.write_bps);
        SimTier {
            spec: spec.clone(),
            sim: sim.clone(),
            read_link,
            write_link,
            shared: Rc::new(TierShared {
                active_reads: Cell::new(0),
                active_writes: Cell::new(0),
                mixed: Cell::new(false),
                used_bytes: Cell::new(0),
                load_factor: Cell::new(1.0),
            }),
        }
    }

    /// The tier's specification.
    pub fn spec(&self) -> &TierSpec {
        &self.spec
    }

    fn begin(&self, dir: Dir) -> DirGuard<'_> {
        let c = match dir {
            Dir::Read => &self.shared.active_reads,
            Dir::Write => &self.shared.active_writes,
        };
        c.set(c.get() + 1);
        let guard = DirGuard { tier: self, dir };
        self.sync_mixed_mode();
        guard
    }

    /// Applies or lifts the mixed-I/O penalty when the direction mix
    /// changes. Tiers with a per-stream cap re-point on *every* change
    /// of the stream counts (their effective bandwidth is the
    /// concurrency-efficiency curve, not a constant).
    fn sync_mixed_mode(&self) {
        let mixed = self.shared.active_reads.get() > 0 && self.shared.active_writes.get() > 0;
        let changed = mixed != self.shared.mixed.get();
        if changed {
            self.shared.mixed.set(mixed);
        }
        if changed || self.spec.per_stream_bps > 0.0 {
            self.apply_rates();
        }
    }

    /// The concurrency-efficiency curve: aggregate link bandwidth capped
    /// at `streams × per_stream_bps` when the spec declares a per-stream
    /// cap (object stores). `streams` is clamped to ≥ 1 so an arriving
    /// op always finds capacity.
    fn curve(&self, aggregate_bps: f64, streams: usize) -> f64 {
        if self.spec.per_stream_bps > 0.0 {
            aggregate_bps.min(streams.max(1) as f64 * self.spec.per_stream_bps)
        } else {
            aggregate_bps
        }
    }

    /// Re-points both links from the spec, the concurrency curve, the
    /// mixed-mode penalty, and the external load factor.
    fn apply_rates(&self) {
        let eff = if self.shared.mixed.get() {
            self.spec.mixed_rw_efficiency
        } else {
            1.0
        };
        let factor = self.shared.load_factor.get() * eff;
        self.read_link.set_capacity_bps(
            self.curve(self.spec.read_bps, self.shared.active_reads.get()) * factor,
        );
        self.write_link.set_capacity_bps(
            self.curve(self.spec.write_bps, self.shared.active_writes.get()) * factor,
        );
    }

    /// Reads `bytes` from the tier (latency + bandwidth share).
    pub async fn read(&self, bytes: u64) {
        self.sim.sleep(self.spec.op_latency_s).await;
        let _guard = self.begin(Dir::Read);
        self.read_link.transfer(bytes).await;
    }

    /// Writes `bytes` to the tier and accounts the capacity.
    pub async fn write(&self, bytes: u64) {
        self.sim.sleep(self.spec.op_latency_s).await;
        {
            let _guard = self.begin(Dir::Write);
            self.write_link.transfer(bytes).await;
        }
        self.shared
            .used_bytes
            .set(self.shared.used_bytes.get() + bytes);
    }

    /// Accounts `bytes` of capacity without timing a transfer (used when
    /// pre-populating tiers with the initial optimizer state before the
    /// measured iterations start).
    pub fn account(&self, bytes: u64) {
        self.shared
            .used_bytes
            .set(self.shared.used_bytes.get() + bytes);
    }

    /// Releases `bytes` of accounted capacity (object deleted/overwritten).
    pub fn release(&self, bytes: u64) {
        self.shared
            .used_bytes
            .set(self.shared.used_bytes.get().saturating_sub(bytes));
    }

    /// Bytes currently accounted against the tier's capacity.
    pub fn used_bytes(&self) -> u64 {
        self.shared.used_bytes.get()
    }

    /// Scales both link capacities (models external PFS load, §3.3).
    /// The factor persists across mixed-mode transitions and composes
    /// with the interleaving penalty.
    pub fn set_load_factor(&self, factor: f64) {
        assert!(factor > 0.0, "load factor must be positive");
        self.shared.load_factor.set(factor);
        self.apply_rates();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{testbed1_nvme, testbed1_pfs};
    use mlp_sim::time::to_secs;

    fn approx(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "expected {b} ± {tol}, got {a}");
    }

    #[test]
    fn single_read_takes_bytes_over_read_bandwidth() {
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        let t = tier.clone();
        let s = sim.clone();
        let end = sim.block_on(async move {
            t.read(6_900_000_000).await; // 6.9 GB at 6.9 GB/s
            s.now()
        });
        approx(to_secs(end), 1.0 + 100e-6, 1e-4);
    }

    #[test]
    fn write_uses_write_bandwidth_and_accounts_capacity() {
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        let t = tier.clone();
        let s = sim.clone();
        let end = sim.block_on(async move {
            t.write(5_300_000_000).await;
            s.now()
        });
        approx(to_secs(end), 1.0 + 100e-6, 1e-4);
        assert_eq!(tier.used_bytes(), 5_300_000_000);
        tier.release(5_300_000_000);
        assert_eq!(tier.used_bytes(), 0);
    }

    #[test]
    fn single_direction_concurrency_keeps_aggregate_flat() {
        // Fig. 4: N concurrent write streams, aggregate stays at peak.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        for _ in 0..4 {
            let t = tier.clone();
            sim.spawn(async move { t.write(5_300_000_000).await });
        }
        sim.run();
        let aggregate = 4.0 * 5.3e9 / sim.now_secs();
        approx(aggregate / 1e9, 5.3, 0.05);
    }

    #[test]
    fn mixed_read_write_pays_the_interleaving_penalty() {
        // One reader and one writer concurrently: both run at 43%.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        let r = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.read(2_967_000_000).await; // 2.967 GB at 6.9·0.43 GB/s → 1 s
                s.now_secs()
            }
        });
        let w = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.write(2_279_000_000).await; // 2.279 GB at 5.3·0.43 GB/s → 1 s
                s.now_secs()
            }
        });
        sim.run();
        approx(r.try_take().unwrap(), 1.0, 0.01);
        approx(w.try_take().unwrap(), 1.0, 0.01);
    }

    #[test]
    fn penalty_lifts_when_one_direction_finishes() {
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        // Short write overlaps the start of a long read.
        let w = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.write(227_900_000).await; // 0.1 s at degraded 2.279 GB/s
                s.now_secs()
            }
        });
        let r = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.read(6_513_000_000).await;
                s.now_secs()
            }
        });
        sim.run();
        approx(w.try_take().unwrap(), 0.1, 0.01);
        // Read: 0.1 s at 2.967 GB/s (0.297 GB) then the rest at 6.9 GB/s:
        // (6.513 − 0.297)/6.9 = 0.90 s → ends ≈ 1.0 s.
        approx(r.try_take().unwrap(), 1.0, 0.02);
    }

    #[test]
    fn pfs_penalty_is_milder() {
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_pfs());
        let r = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.read(2_700_000_000).await; // 3.6·0.75 = 2.7 GB/s → 1 s
                s.now_secs()
            }
        });
        sim.spawn({
            let t = tier.clone();
            async move { t.write(2_700_000_000).await }
        });
        sim.run();
        approx(r.try_take().unwrap(), 1.0, 0.01);
    }

    #[test]
    fn load_factor_survives_mixed_mode_transitions() {
        // Regression: the load factor used to be wiped by the next
        // direction-mix change.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        tier.set_load_factor(0.5);
        // Trigger a mixed-mode transition (read overlapping a write),
        // then time a lone read afterwards: still at the loaded rate.
        let r = sim.spawn({
            let t = tier.clone();
            let s = sim.clone();
            async move {
                t.write(100_000_000).await; // brief write
                t.read(3_450_000_000).await; // 6.9 x 0.5 GB/s -> 1 s
                s.now_secs()
            }
        });
        sim.spawn({
            let t = tier.clone();
            async move { t.read(10_000_000).await } // overlaps the write
        });
        sim.run();
        let end = r.try_take().unwrap();
        assert!((0.9..1.3).contains(&end), "got {end}");
    }

    #[test]
    fn object_store_bandwidth_follows_the_concurrency_curve() {
        use crate::spec::object_store;
        // One stream runs at the per-stream cap, not the aggregate.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &object_store());
        let spec = object_store();
        let t = tier.clone();
        let s = sim.clone();
        let end = sim.block_on(async move {
            t.write(400_000_000).await; // 0.4 GB at 0.4 GB/s/stream → 1 s
            s.now()
        });
        approx(to_secs(end), 1.0 + spec.op_latency_s, 1e-3);

        // Sixteen parallel streams saturate the 5 GB/s aggregate: 16 ×
        // 0.4 GB at min(5, 16·0.4) = 5 GB/s → 1.28 s, far better than the
        // 16 s a per-stream serial drain would take.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &object_store());
        for _ in 0..16 {
            let t = tier.clone();
            sim.spawn(async move { t.write(400_000_000).await });
        }
        sim.run();
        let aggregate = 16.0 * 0.4e9 / (sim.now_secs() - spec.op_latency_s);
        approx(aggregate / 1e9, 5.0, 0.1);
    }

    #[test]
    fn per_stream_cap_zero_leaves_single_stream_at_aggregate() {
        // The default (0.0) spec keeps the original flat-aggregate model.
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_nvme());
        let t = tier.clone();
        let s = sim.clone();
        let end = sim.block_on(async move {
            t.read(6_900_000_000).await;
            s.now()
        });
        approx(to_secs(end), 1.0 + 100e-6, 1e-4);
    }

    #[test]
    fn load_factor_slows_tier() {
        let sim = Sim::new();
        let tier = SimTier::new(&sim, &testbed1_pfs());
        tier.set_load_factor(0.5);
        let t = tier.clone();
        let s = sim.clone();
        let end = sim.block_on(async move {
            t.read(3_600_000_000).await;
            s.now()
        });
        approx(to_secs(end), 2.0, 1e-2);
    }
}
