//! [`Phase::UpdateKernel`] span recording around the fused optimizer
//! kernels.
//!
//! The kernels in [`crate::fused`] stay pure functions; [`apply`], the one
//! update entry point every engine thread calls, adds the observability
//! envelope — one timeline span per kernel sweep (subgroup- and
//! tier-attributed, byte-weighted) plus a duration sample on the
//! `optim.fused_update_ns` histogram — and compiles down to the bare
//! kernel call when the sink is disabled.

use mlp_trace::{Attrs, Phase, TraceSink};

use crate::adam::AdamConfig;
use crate::fused::{fused_update_f32, fused_update_fp16};
use crate::grads::GradRef;
use crate::state::SubgroupStateMut;

/// Bytes swept by one fused update over `n` parameters: three FP32 state
/// arrays (params + the two Adam moments) read and written, the FP16
/// gradient bits read, and the FP16 working copy written.
pub fn fused_sweep_bytes(n: usize) -> u64 {
    (n * (12 + 2 + 2)) as u64
}

/// One iteration's update as each subgroup's kernel applies it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Update {
    /// The hyper-parameters.
    pub adam: AdamConfig,
    /// The 1-based step being applied.
    pub step: u64,
    /// The inverse loss scale (folded with any clipping factor).
    pub inv_scale: f32,
}

impl Update {
    /// Step `step` of `adam`, at inverse loss scale `inv_scale`.
    pub fn new(adam: AdamConfig, step: u64, inv_scale: f32) -> Self {
        Update {
            adam,
            step,
            inv_scale,
        }
    }
}

/// Applies `update` to one subgroup's state in place — unscale, moment
/// update, parameter step and FP16 emission into `fp16_out` in one sweep —
/// from FP16 or FP32 gradients, inside a [`Phase::UpdateKernel`] span
/// labelled with `subgroup` and `tier`: the tier whose I/O worker ran it,
/// `-1` for the engine's own thread. With a disabled sink this is exactly
/// the bare kernel call.
///
/// # Panics
///
/// Panics on any length mismatch or `step == 0`.
pub fn apply(
    trace: &TraceSink,
    subgroup: i64,
    tier: i32,
    update: &Update,
    state: SubgroupStateMut<'_>,
    grads: GradRef<'_>,
    fp16_out: &mut [u16],
) {
    let start = trace.is_enabled().then(|| trace.now_ns());
    let Update {
        adam,
        step,
        inv_scale,
    } = *update;
    let (params, m, v) = (state.params, state.momentum, state.variance);
    match grads {
        GradRef::Fp16(g) => fused_update_fp16(&adam, step, params, m, v, g, inv_scale, fp16_out),
        GradRef::Fp32(g) => fused_update_f32(&adam, step, params, m, v, g, inv_scale, fp16_out),
    }
    if let Some(start) = start {
        finish(trace, subgroup, tier, params.len(), start);
    }
}

fn finish(trace: &TraceSink, subgroup: i64, tier: i32, n: usize, start_ns: u64) {
    let end = trace.now_ns();
    let attrs = Attrs {
        subgroup,
        tier,
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

    fn view<'a>(p: &'a mut [f32], m: &'a mut [f32], v: &'a mut [f32]) -> SubgroupStateMut<'a> {
        SubgroupStateMut {
            params: p,
            momentum: m,
            variance: v,
        }
    }

    fn first(adam: AdamConfig) -> Update {
        Update::new(adam, 1, 1.0)
    }

    /// The traced entry point must be bitwise identical to the bare
    /// kernel whether or not the sink is enabled.
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
            let state = view(&mut p2, &mut m2, &mut v2);
            apply(
                &sink,
                7,
                -1,
                &first(cfg),
                state,
                GradRef::Fp16(&grads),
                &mut out2,
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
        let state = view(&mut p, &mut m, &mut v);
        apply(
            &sink,
            3,
            1,
            &first(cfg),
            state,
            GradRef::Fp32(&grads),
            &mut out,
        );

        let events = sink.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].phase, Phase::UpdateKernel);
        assert_eq!(events[0].subgroup, 3);
        assert_eq!(events[0].tier, 1, "the tier whose worker ran it");
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
