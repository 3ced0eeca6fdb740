//! [`Phase::UpdateKernel`] span recording around the fused optimizer
//! kernels.
//!
//! The kernels in [`crate::fused`] stay pure functions; these wrappers
//! add the observability envelope — one timeline span per kernel sweep
//! (subgroup-attributed, byte-weighted) plus a duration sample on the
//! `optim.fused_update_ns` histogram — and compile down to the bare
//! kernel call when the sink is disabled.

use mlp_trace::{Attrs, Phase, TraceSink};

use crate::adam::AdamConfig;
use crate::fused::{fused_update_f32, fused_update_fp16};

/// Bytes swept by one fused update over `n` parameters: three FP32 state
/// arrays (params + the two Adam moments) read and written, the FP16
/// gradient bits read, and the FP16 working copy written.
pub fn fused_sweep_bytes(n: usize) -> u64 {
    (n * (12 + 2 + 2)) as u64
}

/// [`fused_update_fp16`] wrapped in an [`Phase::UpdateKernel`] span.
/// `subgroup` labels the span; with a disabled sink this is exactly the
/// bare kernel call.
#[allow(clippy::too_many_arguments)]
pub fn fused_update_fp16_traced(
    trace: &TraceSink,
    subgroup: i64,
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads_fp16: &[u16],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    if !trace.is_enabled() {
        return fused_update_fp16(
            cfg, step, params, momentum, variance, grads_fp16, inv_scale, fp16_out,
        );
    }
    let start = trace.now_ns();
    fused_update_fp16(
        cfg, step, params, momentum, variance, grads_fp16, inv_scale, fp16_out,
    );
    finish(trace, subgroup, params.len(), start);
}

/// [`fused_update_f32`] wrapped in an [`Phase::UpdateKernel`] span (the
/// functional ZeRO-3 baseline's kernel, whose gradients arrive already
/// upscaled).
#[allow(clippy::too_many_arguments)]
pub fn fused_update_f32_traced(
    trace: &TraceSink,
    subgroup: i64,
    cfg: &AdamConfig,
    step: u64,
    params: &mut [f32],
    momentum: &mut [f32],
    variance: &mut [f32],
    grads: &[f32],
    inv_scale: f32,
    fp16_out: &mut [u16],
) {
    if !trace.is_enabled() {
        return fused_update_f32(
            cfg, step, params, momentum, variance, grads, inv_scale, fp16_out,
        );
    }
    let start = trace.now_ns();
    fused_update_f32(
        cfg, step, params, momentum, variance, grads, inv_scale, fp16_out,
    );
    finish(trace, subgroup, params.len(), start);
}

fn finish(trace: &TraceSink, subgroup: i64, n: usize, start_ns: u64) {
    let end = trace.now_ns();
    let attrs = Attrs {
        subgroup,
        bytes: fused_sweep_bytes(n),
        ..Attrs::NONE
    };
    trace.complete_span(Phase::UpdateKernel, attrs, start_ns, end);
    trace
        .histogram("optim.fused_update_ns")
        .record(end.saturating_sub(start_ns));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_tensor::convert;

    fn state(n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            (0..n).map(|i| i as f32 * 0.5).collect(),
            vec![0.1; n],
            vec![0.2; n],
        )
    }

    /// The traced wrapper must be bitwise identical to the bare kernel
    /// whether or not the sink is enabled.
    #[test]
    fn traced_wrapper_matches_bare_kernel() {
        let n = 100;
        let cfg = AdamConfig::default();
        let mut grads = vec![0u16; n];
        convert::downscale(&vec![0.01f32; n], &mut grads);

        let (mut p1, mut m1, mut v1) = state(n);
        let mut out1 = vec![0u16; n];
        fused_update_fp16(&cfg, 1, &mut p1, &mut m1, &mut v1, &grads, 1.0, &mut out1);

        for sink in [TraceSink::disabled(), TraceSink::enabled()] {
            let (mut p2, mut m2, mut v2) = state(n);
            let mut out2 = vec![0u16; n];
            fused_update_fp16_traced(
                &sink, 7, &cfg, 1, &mut p2, &mut m2, &mut v2, &grads, 1.0, &mut out2,
            );
            assert_eq!(p1, p2);
            assert_eq!(m1, m2);
            assert_eq!(v1, v2);
            assert_eq!(out1, out2);
        }
    }

    #[test]
    fn enabled_sink_records_a_kernel_span() {
        let n = 64;
        let sink = TraceSink::enabled();
        let cfg = AdamConfig::default();
        let (mut p, mut m, mut v) = state(n);
        let grads = vec![0.01f32; n];
        let mut out = vec![0u16; n];
        fused_update_f32_traced(
            &sink, 3, &cfg, 1, &mut p, &mut m, &mut v, &grads, 1.0, &mut out,
        );

        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, Phase::UpdateKernel);
        assert_eq!(events[0].subgroup, 3);
        assert_eq!(events[0].bytes, fused_sweep_bytes(n));

        let snap = sink.metrics_snapshot();
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(name, _)| name == "optim.fused_update_ns")
            .expect("kernel duration histogram");
        assert_eq!(hist.count, 1);
    }
}
