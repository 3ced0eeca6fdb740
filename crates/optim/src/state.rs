//! One subgroup's FP32 master state: the payload that moves between the
//! host and the storage tiers.
//!
//! Serialized layout (little endian), matching the paper's subgroup
//! composition "FP32 parameters, momentum, variance" (§3.4):
//!
//! ```text
//! [ params: n×f32 | momentum: n×f32 | variance: n×f32 ]
//! ```
//!
//! Gradients are *not* part of the serialized state — the baseline engine
//! additionally moves FP32 gradients through storage, the MLP-Offload
//! engine deliberately does not (delayed in-place conversion, §3.2).

use std::io;

use mlp_tensor::convert;
use mlp_tensor::HostBuffer;

use crate::adam::{adam_step_par, AdamConfig};

/// Borrowed, mutable view of one subgroup's FP32 master state laid out
/// contiguously in a single staging buffer (`[params | momentum |
/// variance]`, the serialized layout). This is the zero-copy half of the
/// fused update pipeline: the bytes fetched by the AIO engine are viewed
/// in place, mutated by the fused kernel, and flushed back from the same
/// buffer — no `from_bytes`/`to_buffer` allocation or copy on the hot
/// path. The owned [`SubgroupState`] remains the API for checkpoints and
/// tests.
pub struct SubgroupStateMut<'a> {
    /// Master parameters.
    pub params: &'a mut [f32],
    /// Adam first moment.
    pub momentum: &'a mut [f32],
    /// Adam second moment.
    pub variance: &'a mut [f32],
}

impl<'a> SubgroupStateMut<'a> {
    /// Views the first `12 * n` bytes of `buf` as one subgroup's state.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than `12 * n` bytes.
    pub fn from_buffer(buf: &'a mut HostBuffer, n: usize) -> Self {
        let all = buf.as_f32_mut(n * 3);
        let (params, rest) = all.split_at_mut(n);
        let (momentum, variance) = rest.split_at_mut(n);
        SubgroupStateMut {
            params,
            momentum,
            variance,
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the subgroup is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Applies one fused Adam step from FP16 gradient bits (`step`
    /// is the 1-based step being applied), emitting the new FP16 working
    /// copy into `fp16_out`. Single pass, no gradient materialization;
    /// bitwise identical to [`SubgroupState::apply_update_fp16`]
    /// followed by [`SubgroupState::fp16_params`]. Runs inside a
    /// [`mlp_trace::Phase::UpdateKernel`] span (see [`crate::traced`]);
    /// free when `trace` is disabled.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_update_fused_traced(
        &mut self,
        trace: &mlp_trace::TraceSink,
        subgroup: i64,
        cfg: &AdamConfig,
        step: u64,
        grads_fp16: &[u16],
        inv_scale: f32,
        fp16_out: &mut [u16],
    ) {
        crate::traced::fused_update_fp16_traced(
            trace,
            subgroup,
            cfg,
            step,
            self.params,
            self.momentum,
            self.variance,
            grads_fp16,
            inv_scale,
            fp16_out,
        );
    }
}

/// FP32 master state of one subgroup.
#[derive(Clone, Debug, PartialEq)]
pub struct SubgroupState {
    /// Master parameters.
    pub params: Vec<f32>,
    /// Adam first moment.
    pub momentum: Vec<f32>,
    /// Adam second moment.
    pub variance: Vec<f32>,
    /// Completed optimizer steps (1-based at the next update).
    pub step: u64,
}

impl SubgroupState {
    /// Fresh state with the given initial master parameters and zeroed
    /// moments.
    pub fn new(params: Vec<f32>) -> Self {
        let n = params.len();
        SubgroupState {
            params,
            momentum: vec![0.0; n],
            variance: vec![0.0; n],
            step: 0,
        }
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether the subgroup is empty.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Applies one Adam step using FP32 gradients.
    pub fn apply_update(&mut self, cfg: &AdamConfig, grads: &[f32]) {
        self.step += 1;
        adam_step_par(
            cfg,
            self.step,
            &mut self.params,
            &mut self.momentum,
            &mut self.variance,
            grads,
        );
    }

    /// Applies one Adam step from FP16 gradient bits, upscaling on the fly
    /// (the delayed-conversion path); `inv_scale` multiplies the gradients
    /// first (inverse loss scale). The multi-pass reference the engines'
    /// fused kernel is bit-identical to.
    pub fn apply_update_fp16(&mut self, cfg: &AdamConfig, grads_fp16: &[u16], inv_scale: f32) {
        self.apply_update_fp16_opt(cfg, grads_fp16, inv_scale);
    }

    /// The body of [`SubgroupState::apply_update_fp16`], under the name
    /// `benchmark/src/sut.rs` binds: a contract shim that goes (its body
    /// moving into `apply_update_fp16`) when a `benchmark` issue renames
    /// the call (ROADMAP item 1).
    pub fn apply_update_fp16_opt(&mut self, cfg: &AdamConfig, grads_fp16: &[u16], inv_scale: f32) {
        assert_eq!(
            grads_fp16.len(),
            self.params.len(),
            "gradient length mismatch"
        );
        let mut grads = vec![0.0f32; grads_fp16.len()];
        // Fused upscale × inverse-loss-scale: one pass over the buffer.
        convert::upscale_scaled_par(grads_fp16, &mut grads, inv_scale);
        self.apply_update(cfg, &grads);
    }

    /// Serializes into a [`HostBuffer`] (`params | momentum | variance`).
    pub fn to_buffer(&self) -> HostBuffer {
        let mut buf = HostBuffer::zeroed(self.params.len() * 12);
        self.write_to(&mut buf);
        buf
    }

    /// Serializes into the first `12 * len` bytes of `buf` — straight into
    /// a pooled staging frame, with no buffer of its own in between.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is shorter than `12 * len` bytes.
    pub fn write_to(&self, buf: &mut HostBuffer) {
        let n = self.params.len();
        buf.write_f32(0, &self.params);
        buf.write_f32(n * 4, &self.momentum);
        buf.write_f32(n * 8, &self.variance);
    }

    /// Deserializes from bytes produced by [`SubgroupState::to_buffer`].
    /// `step` is tracked host-side (it is rank-global), so the caller
    /// supplies it.
    ///
    /// # Errors
    ///
    /// `InvalidData`, naming the length, if `bytes` is not a multiple of
    /// 12 (a torn object: the bytes come from storage).
    pub fn from_bytes(bytes: &[u8], step: u64) -> io::Result<Self> {
        if !bytes.len().is_multiple_of(12) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "subgroup state of {} bytes is not a multiple of 12",
                    bytes.len()
                ),
            ));
        }
        let n = bytes.len() / 12;
        let buf = HostBuffer::from_slice(bytes);
        Ok(SubgroupState {
            params: buf.read_f32(0, n),
            momentum: buf.read_f32(n * 4, n),
            variance: buf.read_f32(n * 8, n),
            step,
        })
    }

    /// The FP16 working copy of the parameters (what is pushed back to the
    /// GPU after an update).
    pub fn fp16_params(&self) -> Vec<u16> {
        let mut out = vec![0u16; self.params.len()];
        convert::downscale_par(&self.params, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_tensor::F16;
    use mlp_testkit::{cases, DEFAULT_CASES};

    #[test]
    fn mut_view_aliases_serialized_layout() {
        let mut st = SubgroupState::new((0..40).map(|i| i as f32 * 0.25).collect());
        st.momentum[7] = -1.5;
        st.variance[39] = 9.0;
        let mut buf = st.to_buffer();
        {
            let view = SubgroupStateMut::from_buffer(&mut buf, 40);
            assert_eq!(view.len(), 40);
            assert_eq!(view.params, &st.params[..]);
            assert_eq!(view.momentum, &st.momentum[..]);
            assert_eq!(view.variance, &st.variance[..]);
        }
        {
            let view = SubgroupStateMut::from_buffer(&mut buf, 40);
            view.params[0] = 123.0;
            view.variance[0] = 7.0;
        }
        let back = SubgroupState::from_bytes(buf.as_bytes(), 0).unwrap();
        assert_eq!(back.params[0], 123.0);
        assert_eq!(back.variance[0], 7.0);
        assert_eq!(back.momentum[7], -1.5);
    }

    #[test]
    fn fused_view_update_matches_owned_multi_pass() {
        let cfg = AdamConfig::default();
        let grads: Vec<u16> = (0..64u32)
            .map(|i| F16::from_f32((i as f32 - 32.0) * 0.125).to_bits())
            .collect();
        let mut owned = SubgroupState::new((0..64).map(|i| (i as f32).cos()).collect());
        let mut buf = owned.to_buffer();
        for step in 1..=3 {
            owned.apply_update_fp16(&cfg, &grads, 0.5);
            let expect_h = owned.fp16_params();

            let mut view = SubgroupStateMut::from_buffer(&mut buf, 64);
            let mut got_h = vec![0u16; 64];
            let off = mlp_trace::TraceSink::disabled();
            view.apply_update_fused_traced(&off, 0, &cfg, step, &grads, 0.5, &mut got_h);
            assert_eq!(expect_h, got_h, "step {step}");
        }
        assert_eq!(SubgroupState::from_bytes(buf.as_bytes(), 3).unwrap(), {
            let mut s = owned.clone();
            s.step = 3;
            s
        });
    }

    #[test]
    fn buffer_round_trip_is_exact() {
        let mut st = SubgroupState::new((0..100).map(|i| i as f32 * 0.13).collect());
        st.momentum[3] = -7.5;
        st.variance[99] = 42.0;
        st.step = 11;
        let buf = st.to_buffer();
        assert_eq!(buf.len(), st.len() * 12);
        let back = SubgroupState::from_bytes(buf.as_bytes(), 11).unwrap();
        assert_eq!(back, st);
    }

    #[test]
    fn fp16_update_equals_fp32_update_on_representable_grads() {
        let cfg = AdamConfig::default();
        let grads_f32: Vec<f32> = (0..64).map(|i| (i as f32 - 32.0) * 0.25).collect();
        let grads_f16: Vec<u16> = grads_f32
            .iter()
            .map(|&g| F16::from_f32(g).to_bits())
            .collect();

        let mut a = SubgroupState::new(vec![1.0; 64]);
        let mut b = a.clone();
        a.apply_update(&cfg, &grads_f32);
        b.apply_update_fp16(&cfg, &grads_f16, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn inv_scale_divides_gradients() {
        let cfg = AdamConfig::default();
        let mut a = SubgroupState::new(vec![1.0; 8]);
        let mut b = a.clone();
        let g = [2.0f32; 8];
        let g16: Vec<u16> = g
            .iter()
            .map(|&x| F16::from_f32(x * 4.0).to_bits())
            .collect();
        a.apply_update(&cfg, &g);
        b.apply_update_fp16(&cfg, &g16, 0.25);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn step_counter_advances() {
        let cfg = AdamConfig::default();
        let mut st = SubgroupState::new(vec![0.0; 4]);
        st.apply_update(&cfg, &[0.1; 4]);
        st.apply_update(&cfg, &[0.1; 4]);
        assert_eq!(st.step, 2);
    }

    #[test]
    fn fp16_params_round_half_precision() {
        let st = SubgroupState::new(vec![1.0, 0.5, 65504.0, 1e-9]);
        let h = st.fp16_params();
        assert_eq!(F16::from_bits(h[0]).to_f32(), 1.0);
        assert_eq!(F16::from_bits(h[1]).to_f32(), 0.5);
        assert_eq!(F16::from_bits(h[2]).to_f32(), 65504.0);
        assert_eq!(F16::from_bits(h[3]).to_f32(), 0.0); // underflow
    }

    #[test]
    fn serialization_round_trip() {
        cases(DEFAULT_CASES, |g| {
            let params = g.vec(1..128, |g| g.range(-1e3f32..1e3));
            let step = g.range(0u64..1000);
            let n = params.len();
            let mut st = SubgroupState::new(params);
            st.momentum = (0..n).map(|i| i as f32 * 0.01).collect();
            st.variance = (0..n).map(|i| i as f32 * 0.02).collect();
            st.step = step;
            let back = SubgroupState::from_bytes(st.to_buffer().as_bytes(), step).unwrap();
            assert_eq!(back, st);
        });
    }
}
