//! Host-resident FP16 gradient accumulation.
//!
//! During gradient accumulation (§4.5), several backward passes run before
//! each update phase; their per-subgroup FP16 gradients are summed into a
//! host buffer. MLP-Offload keeps these buffers in FP16 on the host and
//! upscales lazily during the update (delayed conversion, §3.2) — the
//! baseline upscales to FP32 eagerly and flushes them through storage.
//!
//! Accumulation is performed in FP32 and rounded back to FP16 per
//! micro-step, matching the precision behaviour of an FP16 accumulation
//! buffer updated with widened arithmetic.

use mlp_tensor::f16::{f16_bits_to_f32, f32_to_f16_bits};

/// FP16 gradient accumulation buffers for one rank's subgroups.
#[derive(Clone, Debug)]
pub struct GradAccumulator {
    buffers: Vec<Vec<u16>>,
}

impl GradAccumulator {
    /// Creates zeroed buffers sized from `subgroup_lens` (parameters per
    /// subgroup).
    pub fn new(subgroup_lens: &[usize]) -> Self {
        GradAccumulator {
            buffers: subgroup_lens.iter().map(|&n| vec![0u16; n]).collect(),
        }
    }

    /// Number of subgroups.
    pub fn num_subgroups(&self) -> usize {
        self.buffers.len()
    }

    /// Adds `grads` (FP16 bits) into subgroup `id`'s buffer.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or lengths mismatch.
    pub fn accumulate(&mut self, id: usize, grads: &[u16]) {
        let buf = &mut self.buffers[id];
        assert_eq!(buf.len(), grads.len(), "gradient length mismatch");
        for (b, &g) in buf.iter_mut().zip(grads) {
            let sum = f16_bits_to_f32(*b) + f16_bits_to_f32(g);
            *b = f32_to_f16_bits(sum);
        }
    }

    /// The accumulated FP16 gradients of subgroup `id`.
    pub fn grads(&self, id: usize) -> &[u16] {
        &self.buffers[id]
    }

    /// Total bytes held by the accumulator (what the host must reserve).
    pub fn total_bytes(&self) -> usize {
        self.buffers.iter().map(|b| b.len() * 2).sum()
    }

    /// Zeroes all buffers (after an update).
    pub fn reset(&mut self) {
        for b in &mut self.buffers {
            b.fill(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_tensor::F16;

    fn bits(v: f32) -> u16 {
        F16::from_f32(v).to_bits()
    }

    #[test]
    fn accumulates_sums() {
        let mut acc = GradAccumulator::new(&[4]);
        acc.accumulate(0, &[bits(1.0), bits(2.0), bits(-1.0), bits(0.0)]);
        acc.accumulate(0, &[bits(0.5), bits(0.5), bits(0.5), bits(0.5)]);
        let got: Vec<f32> = acc
            .grads(0)
            .iter()
            .map(|&b| F16::from_bits(b).to_f32())
            .collect();
        assert_eq!(got, vec![1.5, 2.5, -0.5, 0.5]);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut acc = GradAccumulator::new(&[2, 3]);
        acc.accumulate(0, &[bits(1.0); 2]);
        acc.accumulate(1, &[bits(1.0); 3]);
        acc.reset();
        assert!(acc.grads(0).iter().all(|&b| b == 0));
        assert!(acc.grads(1).iter().all(|&b| b == 0));
    }

    #[test]
    fn total_bytes_counts_fp16() {
        let acc = GradAccumulator::new(&[10, 20]);
        assert_eq!(acc.total_bytes(), 60);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let mut acc = GradAccumulator::new(&[4]);
        acc.accumulate(0, &[0; 3]);
    }
}
