//! Collective-communication cost model.
//!
//! ZeRO-3 shards parameters across data-parallel ranks and therefore
//! all-gathers FP16 parameters before the forward and backward passes and
//! reduce-scatters FP16 gradients after the backward (§2: "1.5× higher
//! communication"). Ring-collective cost: each participant moves
//! `bytes × (n−1)/n` over its slowest link. Tensor parallelism adds
//! per-layer activation all-reduces on the intra-node fabric.
//!
//! On HPC interconnects these costs are small next to storage I/O — the
//! paper's weak-scaling observation — but they are modelled so the
//! crossover behaviour is honest.

use mlp_model::ModelConfig;

/// Network fabric description.
#[derive(Clone, Copy, Debug)]
pub struct NetworkSpec {
    /// Intra-node GPU↔GPU bandwidth per GPU (NVLink), bytes/second.
    pub intranode_bps: f64,
    /// Inter-node bandwidth per node (Slingshot/InfiniBand), bytes/second.
    pub internode_bps: f64,
}

/// Per-iteration communication seconds added to each phase for one rank.
#[derive(Clone, Copy, Debug, Default)]
pub struct CommTimes {
    /// Added to every forward micro-step (parameter all-gather).
    pub forward_s: f64,
    /// Added to every backward micro-step (parameter all-gather).
    pub backward_s: f64,
    /// Added to the final backward micro-step (gradient reduce-scatter).
    pub grad_sync_s: f64,
}

/// Computes per-rank communication times. `dp_nodes` is the number of
/// data-parallel groups communicating inter-node; `tp` the intra-node
/// tensor-parallel degree.
pub fn comm_times(
    model: &ModelConfig,
    net: &NetworkSpec,
    dp_nodes: usize,
    tp: usize,
    tokens_per_rank: u64,
) -> CommTimes {
    assert!(dp_nodes >= 1 && tp >= 1, "degrees must be at least 1");
    let fp16_params = model.fp16_param_bytes() as f64;

    // Inter-node ZeRO-3 traffic: parameters all-gathered across the
    // data-parallel groups (each node holds 1/dp of the model and streams
    // the rest in), gradients reduce-scattered once per iteration.
    let ring = |bytes: f64, n: usize| {
        if n <= 1 {
            0.0
        } else {
            bytes * (n as f64 - 1.0) / n as f64 / net.internode_bps
        }
    };
    let param_gather_s = ring(fp16_params / dp_nodes as f64, dp_nodes);
    let grad_sync_s = ring(fp16_params / dp_nodes as f64, dp_nodes);

    // Intra-node tensor parallelism: two activation all-reduces per layer
    // (attention + MLP), each 2·tokens·hidden FP16 bytes.
    let tp_allreduce_s = if tp > 1 {
        let per_layer =
            2.0 * 2.0 * (tokens_per_rank * model.hidden_dim * 2) as f64 * (tp as f64 - 1.0)
                / tp as f64
                / net.intranode_bps;
        per_layer * model.num_layers as f64
    } else {
        0.0
    };

    CommTimes {
        forward_s: param_gather_s + tp_allreduce_s,
        backward_s: param_gather_s + tp_allreduce_s,
        grad_sync_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_model::zoo;

    fn slingshot() -> NetworkSpec {
        NetworkSpec {
            intranode_bps: 300e9,
            internode_bps: 25e9,
        }
    }

    #[test]
    fn single_node_has_no_internode_traffic() {
        let c = comm_times(&zoo::model_40b(), &slingshot(), 1, 1, 2048);
        assert_eq!(c.forward_s, 0.0);
        assert_eq!(c.grad_sync_s, 0.0);
    }

    #[test]
    fn internode_comm_is_seconds_not_minutes() {
        // 70B across 2 nodes: ~2.8 s of gather traffic — noticeable but
        // far below the 100+ s update phase (the paper's weak-scaling
        // argument).
        let c = comm_times(&zoo::model_70b(), &slingshot(), 2, 4, 2048);
        assert!(
            c.forward_s > 0.5 && c.forward_s < 10.0,
            "got {}",
            c.forward_s
        );
    }

    #[test]
    fn comm_grows_with_node_count() {
        let m = zoo::model_280b();
        let c2 = comm_times(&m, &slingshot(), 2, 4, 2048);
        let c8 = comm_times(&m, &slingshot(), 8, 4, 2048);
        // Per-node shard shrinks but the (n−1)/n factor grows; for a fixed
        // model the total gather bytes per node shrink with n.
        assert!(c8.forward_s < c2.forward_s * 1.5);
        assert!(c8.forward_s > 0.0);
    }

    #[test]
    fn tp_allreduce_is_subsecond() {
        let c = comm_times(&zoo::model_70b(), &slingshot(), 1, 4, 2048);
        assert!(c.forward_s < 0.5, "got {}", c.forward_s);
    }
}
