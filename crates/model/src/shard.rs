//! ZeRO-3 sharding: model and optimizer state partitioned across
//! data-parallel ranks, and each rank's shard decomposed into fixed-size
//! *subgroups* — the unit of offloading, prefetching, and update
//! computation throughout this workspace (§2 of the paper).

use crate::config::{ModelConfig, FP16_BYTES, FP32_BYTES, OPTIM_STATE_BYTES_PER_PARAM};

/// The paper's subgroup size: 100 million parameters (chosen over
/// DeepSpeed's 1B default for better I/O/compute overlap and load
/// balancing, §4.1).
pub const DEFAULT_SUBGROUP_PARAMS: u64 = 100_000_000;

/// One subgroup of a rank's model shard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subgroup {
    /// Index within the owning rank's shard (0-based, processing order in
    /// the first iteration is ascending id).
    pub id: usize,
    /// Trainable parameters in this subgroup.
    pub params: u64,
}

impl Subgroup {
    /// Bytes of FP32 optimizer state (master params, momentum, variance).
    pub fn state_bytes(&self) -> u64 {
        self.params * OPTIM_STATE_BYTES_PER_PARAM
    }

    /// Bytes of FP32 gradients.
    pub fn fp32_grad_bytes(&self) -> u64 {
        self.params * FP32_BYTES
    }

    /// Bytes of FP16 gradients.
    pub fn fp16_grad_bytes(&self) -> u64 {
        self.params * FP16_BYTES
    }

    /// Bytes of FP16 parameters.
    pub fn fp16_param_bytes(&self) -> u64 {
        self.params * FP16_BYTES
    }
}

/// How a model is partitioned across data-parallel ranks (ZeRO-3: optimizer
/// state, gradients, and parameters are all sharded).
#[derive(Clone, Debug)]
pub struct ShardLayout {
    /// Total trainable parameters.
    pub total_params: u64,
    /// Number of data-parallel ranks (one per GPU).
    pub world_size: usize,
}

impl ShardLayout {
    /// Shards `model` across `world_size` ranks.
    pub fn new(model: &ModelConfig, world_size: usize) -> Self {
        assert!(world_size > 0, "world size must be positive");
        ShardLayout {
            total_params: model.param_count(),
            world_size,
        }
    }

    /// Parameters owned by `rank` (earlier ranks absorb the remainder).
    pub fn params_for_rank(&self, rank: usize) -> u64 {
        assert!(rank < self.world_size, "rank out of range");
        let base = self.total_params / self.world_size as u64;
        let rem = self.total_params % self.world_size as u64;
        base + u64::from((rank as u64) < rem)
    }

    /// The subgroup decomposition of `rank`'s shard.
    pub fn subgroups_for_rank(&self, rank: usize, subgroup_params: u64) -> SubgroupLayout {
        SubgroupLayout::new(self.params_for_rank(rank), subgroup_params)
    }
}

/// A rank's shard decomposed into subgroups.
#[derive(Clone, Debug)]
pub struct SubgroupLayout {
    subgroups: Vec<Subgroup>,
    shard_params: u64,
}

impl SubgroupLayout {
    /// Splits `shard_params` into subgroups of `subgroup_params` (the last
    /// subgroup takes the remainder).
    pub fn new(shard_params: u64, subgroup_params: u64) -> Self {
        assert!(subgroup_params > 0, "subgroup size must be positive");
        let mut subgroups = Vec::new();
        let mut remaining = shard_params;
        let mut id = 0;
        while remaining > 0 {
            let p = remaining.min(subgroup_params);
            subgroups.push(Subgroup { id, params: p });
            remaining -= p;
            id += 1;
        }
        SubgroupLayout {
            subgroups,
            shard_params,
        }
    }

    /// All subgroups in ascending id order.
    pub fn subgroups(&self) -> &[Subgroup] {
        &self.subgroups
    }

    /// Number of subgroups.
    pub fn len(&self) -> usize {
        self.subgroups.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.subgroups.is_empty()
    }

    /// Total parameters across all subgroups.
    pub fn shard_params(&self) -> u64 {
        self.shard_params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn rank_params_sum_to_total() {
        let m = zoo::model_40b();
        let layout = ShardLayout::new(&m, 4);
        let total: u64 = (0..4).map(|r| layout.params_for_rank(r)).sum();
        assert_eq!(total, m.param_count());
    }

    #[test]
    fn subgroups_cover_shard_exactly() {
        let layout = SubgroupLayout::new(1_050, 100);
        assert_eq!(layout.len(), 11);
        assert_eq!(layout.subgroups()[10].params, 50);
        let sum: u64 = layout.subgroups().iter().map(|s| s.params).sum();
        assert_eq!(sum, 1_050);
    }

    #[test]
    fn forty_b_on_four_gpus_has_about_a_hundred_subgroups() {
        // 40B over 4 ranks at 100M params/subgroup → ~101 subgroups each.
        let m = zoo::model_40b();
        let layout = ShardLayout::new(&m, 4);
        let subs = layout.subgroups_for_rank(0, DEFAULT_SUBGROUP_PARAMS);
        assert!((100..=105).contains(&subs.len()), "got {}", subs.len());
    }

    #[test]
    fn state_bytes_are_twelve_per_param() {
        let s = Subgroup { id: 0, params: 10 };
        assert_eq!(s.state_bytes(), 120);
        assert_eq!(s.fp32_grad_bytes(), 40);
        assert_eq!(s.fp16_grad_bytes(), 20);
    }

    #[test]
    fn empty_shard_has_no_subgroups() {
        let layout = SubgroupLayout::new(0, 100);
        assert!(layout.is_empty());
    }

    #[test]
    fn sharding_is_exact_partition() {
        cases(DEFAULT_CASES, |g| {
            let total = g.range(1u64..10_000_000_000);
            let world = g.range(1usize..64);
            let layout = ShardLayout {
                total_params: total,
                world_size: world,
            };
            let sum: u64 = (0..world).map(|r| layout.params_for_rank(r)).sum();
            assert_eq!(sum, total);
            // Balanced within one parameter.
            let max = (0..world).map(|r| layout.params_for_rank(r)).max().unwrap();
            let min = (0..world).map(|r| layout.params_for_rank(r)).min().unwrap();
            assert!(max - min <= 1);
        });
    }

    #[test]
    fn subgrouping_is_exact_partition() {
        cases(DEFAULT_CASES, |g| {
            let shard = g.range(0u64..20_000_000_000);
            let sub = g.range(1u64..2_000_000_000);
            let layout = SubgroupLayout::new(shard, sub);
            let sum: u64 = layout.subgroups().iter().map(|s| s.params).sum();
            assert_eq!(sum, shard);
            // All but the last subgroup are full-size.
            for s in layout.subgroups().iter().rev().skip(1) {
                assert_eq!(s.params, sub);
            }
            // Ids are consecutive from zero.
            for (i, s) in layout.subgroups().iter().enumerate() {
                assert_eq!(s.id, i);
            }
        });
    }
}
