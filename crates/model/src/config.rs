//! Transformer architecture description and derived quantities.

/// Bytes per FP16 value.
pub const FP16_BYTES: u64 = 2;
/// Bytes per FP32 value.
pub const FP32_BYTES: u64 = 4;
/// FP32 optimizer-state bytes per parameter under Adam: master parameter,
/// momentum, and variance (the paper's "8× larger than FP16 parameters"
/// counts these 12 bytes plus the 4-byte FP32 gradient against the 2-byte
/// FP16 parameter).
pub const OPTIM_STATE_BYTES_PER_PARAM: u64 = 3 * FP32_BYTES;

/// A decoder-only transformer configuration (Table 2 of the paper).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ModelConfig {
    /// Display name, e.g. `"40B"`.
    pub name: String,
    /// Number of transformer layers (`N_L`).
    pub num_layers: u64,
    /// Hidden dimension (`D_H`).
    pub hidden_dim: u64,
    /// Attention heads (`AH`).
    pub attention_heads: u64,
    /// Vocabulary size (LLaMA2 tokenizer: 32 000).
    pub vocab_size: u64,
    /// Sequence length (paper default: 2048).
    pub seq_len: u64,
}

impl ModelConfig {
    /// Creates a config with the paper's defaults (LLaMA2 tokenizer vocab,
    /// sequence length 2048).
    pub fn new(name: impl Into<String>, num_layers: u64, hidden_dim: u64, heads: u64) -> Self {
        ModelConfig {
            name: name.into(),
            num_layers,
            hidden_dim,
            attention_heads: heads,
            vocab_size: 32_000,
            seq_len: 2048,
        }
    }

    /// Parameters in one transformer layer: 4·D² for attention
    /// (Q, K, V, output projections) plus 8·D² for the 4×-expansion MLP,
    /// plus the layer norms (4·D).
    pub fn params_per_layer(&self) -> u64 {
        let d = self.hidden_dim;
        12 * d * d + 4 * d
    }

    /// Total trainable parameters: layers plus (untied) input/output
    /// embeddings and the final layer norm.
    pub fn param_count(&self) -> u64 {
        self.num_layers * self.params_per_layer()
            + 2 * self.vocab_size * self.hidden_dim
            + 2 * self.hidden_dim
    }

    /// Bytes of the FP16 working copy of the parameters.
    pub fn fp16_param_bytes(&self) -> u64 {
        self.param_count() * FP16_BYTES
    }

    /// Bytes of FP16 gradients for the full model.
    pub fn fp16_grad_bytes(&self) -> u64 {
        self.param_count() * FP16_BYTES
    }

    /// Bytes of the FP32 optimizer state (master params + momentum +
    /// variance) for the full model.
    pub fn optimizer_state_bytes(&self) -> u64 {
        self.param_count() * OPTIM_STATE_BYTES_PER_PARAM
    }

    /// Forward-pass FLOPs for `tokens` tokens: the standard 2·P·T dense
    /// estimate (attention-score FLOPs are second order at these sizes).
    pub fn forward_flops(&self, tokens: u64) -> f64 {
        2.0 * self.param_count() as f64 * tokens as f64
    }

    /// Backward-pass FLOPs: 2× the forward pass, plus a full forward
    /// recomputation when activation checkpointing is enabled (the paper's
    /// "33% additional recomputations").
    pub fn backward_flops(&self, tokens: u64, activation_checkpointing: bool) -> f64 {
        let recompute = if activation_checkpointing { 1.0 } else { 0.0 };
        (4.0 + 2.0 * recompute) * self.param_count() as f64 * tokens as f64
    }

    /// Bytes of activation checkpoints per microbatch sample: one D_H-wide
    /// FP16 activation per layer boundary per token.
    pub fn activation_checkpoint_bytes_per_sample(&self) -> u64 {
        self.seq_len * self.hidden_dim * FP16_BYTES * (self.num_layers + 1)
    }
}

impl std::fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (L={}, D={}, H={}, {:.1}B params)",
            self.name,
            self.num_layers,
            self.hidden_dim,
            self.attention_heads,
            self.param_count() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forty_b_matches_nominal_size() {
        let m = ModelConfig::new("40B", 128, 5120, 40);
        let p = m.param_count() as f64;
        // 12·128·5120² ≈ 40.3B plus embeddings.
        assert!((p / 1e9 - 40.0).abs() < 1.5, "got {}B", p / 1e9);
    }

    #[test]
    fn optimizer_state_is_six_times_fp16_params() {
        let m = ModelConfig::new("x", 4, 1024, 8);
        assert_eq!(m.optimizer_state_bytes(), 6 * m.fp16_param_bytes());
    }

    #[test]
    fn checkpointing_adds_a_third_of_backward() {
        let m = ModelConfig::new("x", 4, 1024, 8);
        let plain = m.backward_flops(1000, false);
        let ckpt = m.backward_flops(1000, true);
        assert!((ckpt / plain - 1.5).abs() < 1e-9); // 6PT vs 4PT
    }

    #[test]
    fn params_scale_quadratically_with_hidden_dim() {
        let a = ModelConfig::new("a", 10, 1000, 8).params_per_layer();
        let b = ModelConfig::new("b", 10, 2000, 8).params_per_layer();
        let ratio = b as f64 / a as f64;
        assert!((ratio - 4.0).abs() < 0.01, "ratio {ratio}");
    }
}
