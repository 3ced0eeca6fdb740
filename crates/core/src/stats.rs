//! Metrics emitted by the engines: per-phase durations, per-tier byte
//! movement, cache behaviour, and the per-subgroup I/O event timeline that
//! backs the Fig. 5 reproduction.

/// What an I/O event did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// Subgroup fetched from a tier into host memory.
    Fetch,
    /// Subgroup flushed from host memory to a tier.
    Flush,
    /// FP32 gradients flushed during the backward pass (baseline only).
    GradFlush,
}

/// One storage I/O operation.
#[derive(Clone, Copy, Debug)]
pub struct IoEvent {
    /// Subgroup id.
    pub subgroup: usize,
    /// Fetch or flush.
    pub kind: IoKind,
    /// Tier index within the virtual tier.
    pub tier: usize,
    /// Start time, seconds (virtual time in sim mode).
    pub start_s: f64,
    /// End time, seconds.
    pub end_s: f64,
    /// Bytes moved.
    pub bytes: u64,
}

impl IoEvent {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Statistics of one update phase for one worker.
#[derive(Clone, Debug, Default)]
pub struct UpdateStats {
    /// Wall (virtual) duration of the update phase, seconds.
    pub duration_s: f64,
    /// Subgroups served from the host cache (no fetch).
    pub cache_hits: usize,
    /// Durable copies the adaptive planner moved between tiers at this
    /// iteration's boundary (0 unless `max_migrations_per_iter` > 0).
    pub migrations: usize,
    /// Bytes moved by those migrations (read from the source tier plus an
    /// equal write to the destination; this field counts the payload once
    /// and is *not* included in `bytes_read_by_tier`/`bytes_written_by_tier`,
    /// which track the fetch/flush pipeline only).
    pub bytes_migrated: u64,
    /// Subgroups fetched from storage.
    pub fetches: usize,
    /// Subgroups flushed to storage.
    pub flushes: usize,
    /// Subgroups retained in host memory at iteration end.
    pub retained: usize,
    /// Bytes read per tier.
    pub bytes_read_by_tier: Vec<u64>,
    /// Bytes written per tier.
    pub bytes_written_by_tier: Vec<u64>,
    /// Sum of per-subgroup fetch durations, seconds.
    pub read_secs_sum: f64,
    /// Sum of per-subgroup flush durations, seconds.
    pub write_secs_sum: f64,
    /// Parameters updated.
    pub params_updated: u64,
    /// Every storage I/O op, in completion order.
    pub events: Vec<IoEvent>,
}

impl UpdateStats {
    /// The paper's effective I/O throughput metric (Fig. 9): every
    /// subgroup conceptually needs one read and one write per iteration,
    /// so the update phase effectively moves `2 × state_bytes_total`; the
    /// rate at which it does so is the effective throughput. Cache hits
    /// contribute bytes without I/O time, which is why caching lifts the
    /// number, and a shrinking cache fraction is why it decays for larger
    /// models.
    pub fn effective_io_bps(&self, state_bytes_total: u64) -> f64 {
        if self.duration_s <= 0.0 {
            return 0.0;
        }
        2.0 * state_bytes_total as f64 / self.duration_s
    }
}

/// Statistics of one backward pass for one worker.
#[derive(Clone, Debug, Default)]
pub struct BackwardStats {
    /// Wall (virtual) duration including any gradient I/O that outlives
    /// the compute, seconds.
    pub duration_s: f64,
    /// Pure compute portion, seconds.
    pub compute_s: f64,
    /// FP32 gradient bytes flushed through storage (baseline path).
    pub grad_bytes_offloaded: u64,
    /// FP16 gradient bytes staged device→host.
    pub grad_bytes_d2h: u64,
}

/// A full iteration's breakdown for one worker (the Fig. 7 bars).
#[derive(Clone, Debug, Default)]
pub struct IterationBreakdown {
    /// Forward-pass seconds.
    pub forward_s: f64,
    /// Backward-pass seconds (compute + non-overlapped gradient I/O).
    pub backward_s: f64,
    /// Update-phase seconds.
    pub update_s: f64,
    /// Checkpoint seconds spent on the critical path at the iteration
    /// boundary: the full flush + trickle cost for a synchronous
    /// checkpoint, close to zero for the asynchronous pipeline (whose
    /// I/O settles during the next iteration instead).
    pub checkpoint_s: f64,
}

impl IterationBreakdown {
    /// Total iteration seconds.
    pub fn total_s(&self) -> f64 {
        self.forward_s + self.backward_s + self.update_s + self.checkpoint_s
    }
}

/// Where the optimizer state lives at an iteration boundary (Fig. 10).
#[derive(Clone, Debug, Default)]
pub struct TierDistribution {
    /// Bytes resident in host memory.
    pub host_bytes: u64,
    /// Bytes per third-level tier.
    pub tier_bytes: Vec<u64>,
}

impl TierDistribution {
    /// Fractions (host first, then tiers) of the total; sums to 1.
    pub fn fractions(&self) -> Vec<f64> {
        let total = (self.host_bytes + self.tier_bytes.iter().sum::<u64>()) as f64;
        if total == 0.0 {
            return vec![0.0; 1 + self.tier_bytes.len()];
        }
        std::iter::once(self.host_bytes)
            .chain(self.tier_bytes.iter().copied())
            .map(|b| b as f64 / total)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_io_doubles_bytes_over_duration() {
        let stats = UpdateStats {
            duration_s: 2.0,
            ..Default::default()
        };
        assert_eq!(stats.effective_io_bps(1_000_000_000), 1e9);
    }

    #[test]
    fn distribution_fractions_sum_to_one() {
        let d = TierDistribution {
            host_bytes: 100,
            tier_bytes: vec![200, 100],
        };
        let f = d.fractions();
        assert_eq!(f, vec![0.25, 0.5, 0.25]);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn iteration_total_adds_phases() {
        let b = IterationBreakdown {
            forward_s: 0.5,
            backward_s: 2.0,
            update_s: 10.0,
            checkpoint_s: 1.5,
        };
        assert_eq!(b.total_s(), 14.0);
    }
}
