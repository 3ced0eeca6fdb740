//! 3D-parallelism layouts (§2 background).
//!
//! Data, pipeline, and tensor parallelism compose into a "3D" layout of
//! the GPU grid. ZeRO-3, the regime the paper targets, cannot combine with
//! pipeline parallelism (its scatter-gather collectives fight with
//! inter-stage communication), so valid layouts here are constrained the
//! same way. The per-GPU memory model shows *why* offloading becomes
//! necessary: below a certain GPU count no legal layout fits without it.

use crate::config::{ModelConfig, FP16_BYTES, OPTIM_STATE_BYTES_PER_PARAM};

/// One way to lay a model across a GPU grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Layout {
    /// Tensor-parallel degree (horizontal layer split, intra-node).
    pub tensor: usize,
    /// Pipeline-parallel degree (vertical layer split).
    pub pipeline: usize,
    /// Data-parallel degree (model replicas / ZeRO shards).
    pub data: usize,
}

impl Layout {
    /// Total GPUs used.
    pub fn gpus(&self) -> usize {
        self.tensor * self.pipeline * self.data
    }

    /// Whether this layout is usable with ZeRO-3 (no pipeline stage split;
    /// §2: "ZeRO-3 cannot be seamlessly combined with pipeline
    /// parallelism").
    pub fn zero3_compatible(&self) -> bool {
        self.pipeline == 1
    }
}

/// Memory a single GPU must hold under `layout` with ZeRO stage `zero`
/// and no offloading.
///
/// * ZeRO-0: full replica of FP16 params + grads + FP32 optimizer state.
/// * ZeRO-1: optimizer state sharded over data parallelism.
/// * ZeRO-2: + gradients sharded.
/// * ZeRO-3: + parameters sharded.
pub fn gpu_bytes_per_rank(model: &ModelConfig, layout: &Layout, zero: u8) -> u64 {
    assert!(zero <= 3, "ZeRO stages are 0-3");
    let p = model.param_count() / (layout.tensor as u64 * layout.pipeline as u64);
    let dp = layout.data as u64;
    let params = p * FP16_BYTES / if zero >= 3 { dp } else { 1 };
    let grads = p * FP16_BYTES / if zero >= 2 { dp } else { 1 };
    let optim = p * OPTIM_STATE_BYTES_PER_PARAM / if zero >= 1 { dp } else { 1 };
    params + grads + optim
}

/// Enumerates the ZeRO-3-compatible layouts of `model` over exactly
/// `gpus` GPUs with at most `max_tensor` tensor-parallel ways (typically
/// the node's GPU count), sorted by tensor degree.
pub fn zero3_layouts(gpus: usize, max_tensor: usize) -> Vec<Layout> {
    assert!(gpus >= 1, "need at least one GPU");
    (1..=max_tensor.min(gpus))
        .filter(|t| gpus.is_multiple_of(*t))
        .map(|tensor| Layout {
            tensor,
            pipeline: 1,
            data: gpus / tensor,
        })
        .collect()
}

/// The smallest GPU count at which `model` trains without offloading:
/// every rank must fit FP16 params + grads + sharded optimizer state into
/// the *usable* fraction of `gpu_mem_bytes` under ZeRO-3 (tensor degree ≤
/// `gpus_per_node`). `usable_fraction` accounts for everything the model
/// states share the device with — activations, all-gather staging,
/// allocator fragmentation; ~1/3 reproduces the §4.4 reference ("~80
/// A100-40GB GPUs for 70B", via the paper's DataStates-LLM citation).
pub fn min_gpus_without_offload(
    model: &ModelConfig,
    gpu_mem_bytes: u64,
    gpus_per_node: usize,
    max_gpus: usize,
    usable_fraction: f64,
) -> Option<usize> {
    assert!((0.0..=1.0).contains(&usable_fraction), "fraction in (0, 1]");
    let usable = (gpu_mem_bytes as f64 * usable_fraction) as u64;
    for gpus in 1..=max_gpus {
        let fits = zero3_layouts(gpus, gpus_per_node)
            .iter()
            .any(|l| gpu_bytes_per_rank(model, l, 3) <= usable);
        if fits {
            return Some(gpus);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    const GIB: u64 = 1 << 30;

    #[test]
    fn layout_arithmetic() {
        let l = Layout {
            tensor: 4,
            pipeline: 2,
            data: 8,
        };
        assert_eq!(l.gpus(), 64);
        assert!(!l.zero3_compatible());
        assert!(Layout {
            tensor: 4,
            pipeline: 1,
            data: 8
        }
        .zero3_compatible());
    }

    #[test]
    fn zero_stages_monotonically_shrink_memory() {
        let m = zoo::model_40b();
        let l = Layout {
            tensor: 1,
            pipeline: 1,
            data: 8,
        };
        let sizes: Vec<u64> = (0..=3).map(|z| gpu_bytes_per_rank(&m, &l, z)).collect();
        for w in sizes.windows(2) {
            assert!(w[1] < w[0], "{sizes:?}");
        }
        // ZeRO-0 holds 16 bytes/param regardless of dp.
        assert_eq!(sizes[0], m.param_count() * 16);
    }

    #[test]
    fn layout_enumeration_covers_divisors() {
        let layouts = zero3_layouts(8, 4);
        assert_eq!(layouts.len(), 3); // t=1,2,4
        assert!(layouts
            .iter()
            .all(|l| l.gpus() == 8 && l.zero3_compatible()));
    }

    #[test]
    fn seventy_b_needs_about_eighty_a100s_gpu_only() {
        // §4.4: "training the 70B model without offloading requires the
        // aggregated memory of ~80 A100-40GB GPUs".
        let m = zoo::model_70b();
        let n = min_gpus_without_offload(&m, 40 * GIB, 4, 256, 0.33).expect("fits somewhere");
        assert!((60..=96).contains(&n), "got {n}");
    }

    #[test]
    fn twenty_b_fits_one_node_of_h100s() {
        // §3.1 trains 20B on a single 4×H100-80GB node without offloading.
        let m = zoo::model_20b();
        let n = min_gpus_without_offload(&m, 80 * GIB, 4, 64, 0.33).unwrap();
        assert!(n <= 16, "got {n}");
    }

    #[test]
    fn offload_breaks_the_floor() {
        // With the optimizer state offloaded, only FP16 params + grads
        // stay on GPU: the 40B model then fits 4×H100 (§4.2's setup),
        // which ZeRO-3 alone cannot do.
        let m = zoo::model_40b();
        let l = Layout {
            tensor: 1,
            pipeline: 1,
            data: 4,
        };
        let full = gpu_bytes_per_rank(&m, &l, 3);
        assert!(full > 80 * GIB, "without offload it must NOT fit");
        let offloaded = m.param_count() / 4 * FP16_BYTES * 2; // params + grads
        assert!(offloaded < 80 * GIB, "with optimizer offloaded it fits");
    }
}
