//! The host gradients an update pass applies, as an offloading engine
//! holds them, and the views [`crate::traced::apply`] takes them through.
//!
//! Every subgroup's buffer sits behind an [`Arc`], so an op that applies
//! the update off the engine's thread ([`SharedGrads`]) shares it instead
//! of copying it. A micro-step writes through [`Arc::make_mut`], which
//! copies a buffer only while such an op still holds it: one the I/O
//! deadline abandoned, still running.

use std::sync::Arc;

use crate::accum::{add_f32, for_each_subgroup, store_f32, GradAccumulator};
use crate::optimizer::fp16_grad_sq_norm;

/// One subgroup's gradients as the update kernel takes them.
#[derive(Clone, Copy, Debug)]
pub enum GradRef<'a> {
    /// FP16 bits, upscaled on the fly (delayed conversion).
    Fp16(&'a [u16]),
    /// Eagerly upscaled FP32 gradients.
    Fp32(&'a [f32]),
}

/// [`GradRef`] as a handle that outlives the borrow of its
/// [`HostGrads`]: an op applying the update elsewhere holds it.
#[derive(Clone, Debug)]
pub enum SharedGrads {
    /// A subgroup's FP16 accumulator.
    Fp16(Arc<Vec<u16>>),
    /// A subgroup's FP32 accumulator.
    Fp32(Arc<Vec<f32>>),
}

impl SharedGrads {
    /// The gradients it shares.
    pub fn get(&self) -> GradRef<'_> {
        match self {
            SharedGrads::Fp16(g) => GradRef::Fp16(g),
            SharedGrads::Fp32(g) => GradRef::Fp32(g),
        }
    }
}

/// Host gradient accumulators: the data-path difference between the
/// ablation rungs below and above "Skip Gradients".
pub enum HostGrads {
    /// FP16 buffers that never touch storage; the update kernel upscales
    /// them on the fly (delayed in-place conversion).
    Fp16(GradAccumulator),
    /// Eagerly upscaled FP32 buffers (the ZeRO-Offload lineage). Before
    /// the update, the engine writes the gradients of tier-resident
    /// subgroups next to their state and records where in `on_tier` —
    /// separately from state placement, because the objects are
    /// transient: the accumulators stay authoritative until the update
    /// succeeds, so a lost or unreachable gradient object costs a
    /// re-flush (or nothing), never the iteration.
    Fp32 {
        /// One buffer per subgroup.
        accum: Vec<Arc<Vec<f32>>>,
        /// The tier each subgroup's gradient object was flushed to, if
        /// one was since the last micro-step.
        on_tier: Vec<Option<usize>>,
        /// No micro-step since the last update: `accum` stands for zero,
        /// whatever it holds, and the next micro-step stores (the
        /// [`GradAccumulator`]'s rule).
        empty: bool,
    },
}

impl HostGrads {
    /// Zeroed accumulators for subgroups of `lens` parameters: FP16 ones,
    /// or `eager` FP32 ones.
    pub fn new(lens: &[usize], eager: bool) -> Self {
        if !eager {
            return HostGrads::Fp16(GradAccumulator::new(lens));
        }
        HostGrads::Fp32 {
            accum: lens.iter().map(|&n| Arc::new(vec![0.0; n])).collect(),
            on_tier: vec![None; lens.len()],
            empty: true,
        }
    }

    /// Accumulates one backward micro-step's FP16 gradients (one slice of
    /// bits per subgroup, in subgroup-id order): kept in FP16, or eagerly
    /// upscaled into the FP32 accumulators (the conversion MLP-Offload
    /// delays), whose objects on the tiers are stale from then on.
    ///
    /// # Panics
    ///
    /// Panics if the number of subgroups or any length mismatches.
    pub fn accumulate(&mut self, grads: &[Vec<u16>]) {
        match self {
            HostGrads::Fp16(acc) => acc.accumulate(grads),
            HostGrads::Fp32 {
                accum,
                on_tier,
                empty,
            } => {
                on_tier.fill(None);
                let mut accum: Vec<&mut Vec<f32>> = accum.iter_mut().map(Arc::make_mut).collect();
                if std::mem::take(empty) {
                    for_each_subgroup(&mut accum, grads, store_f32);
                } else {
                    for_each_subgroup(&mut accum, grads, add_f32);
                }
            }
        }
    }

    /// Subgroup `idx`'s accumulated gradients.
    pub fn get(&self, idx: usize) -> GradRef<'_> {
        match self {
            HostGrads::Fp16(acc) => GradRef::Fp16(acc.grads(idx)),
            HostGrads::Fp32 { accum, .. } => GradRef::Fp32(&accum[idx]),
        }
    }

    /// Subgroup `idx`'s accumulated gradients, shared.
    pub fn shared(&self, idx: usize) -> SharedGrads {
        match self {
            HostGrads::Fp16(acc) => SharedGrads::Fp16(acc.shared(idx)),
            HostGrads::Fp32 { accum, .. } => SharedGrads::Fp32(Arc::clone(&accum[idx])),
        }
    }

    /// Squared L2 norm of the accumulated gradients after unscaling.
    pub fn sq_norm(&self, inv_scale: f32) -> f64 {
        match self {
            HostGrads::Fp16(acc) => (0..acc.num_subgroups())
                .map(|idx| fp16_grad_sq_norm(acc.grads(idx), inv_scale))
                .sum(),
            HostGrads::Fp32 { accum, .. } => accum
                .iter()
                .flat_map(|g| g.iter())
                .map(|&g| (g as f64 * inv_scale as f64).powi(2))
                .sum(),
        }
    }

    /// Before anything reads the accumulators: with no micro-step since
    /// the last update they stand for zero gradients but still hold that
    /// update's, so this (rare) phase sweeps them to the zeros it must
    /// apply. A no-op once a micro-step has stored.
    pub fn materialize_zeros(&mut self) {
        match self {
            HostGrads::Fp16(acc) => acc.materialize_zeros(),
            HostGrads::Fp32 { accum, empty, .. } => {
                if *empty {
                    for g in accum {
                        Arc::make_mut(g).fill(0.0);
                    }
                }
            }
        }
    }

    /// Forgets the accumulated gradients after a successful update, in
    /// O(1): the next micro-step stores over them. Returns the
    /// FP32 gradient bytes the iteration moved through storage, as
    /// logical once-per-iteration accounting: every gradient object on a
    /// tier was flushed once and fetched once, however often a failed
    /// attempt was re-driven.
    pub fn finish_iteration(&mut self) -> u64 {
        match self {
            HostGrads::Fp16(acc) => {
                acc.reset();
                0
            }
            HostGrads::Fp32 {
                accum,
                on_tier,
                empty,
            } => {
                *empty = true;
                let mut bytes = 0;
                for (g, tier) in accum.iter().zip(on_tier) {
                    if tier.take().is_some() {
                        bytes += 2 * 4 * g.len() as u64;
                    }
                }
                bytes
            }
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

    /// A handle an op still holds keeps the gradients it was given: the
    /// next micro-step writes a copy, and only while the handle lives.
    #[test]
    fn a_shared_handle_keeps_its_gradients_through_a_micro_step() {
        for eager in [false, true] {
            let mut grads = HostGrads::new(&[2], eager);
            grads.accumulate(&[vec![bits(1.0), bits(2.0)]]);
            let held = grads.shared(0);
            grads.accumulate(&[vec![bits(1.0), bits(1.0)]]);
            let sum = |g: GradRef<'_>| match g {
                GradRef::Fp16(g) => g.iter().map(|&b| F16::from_bits(b).to_f32()).sum::<f32>(),
                GradRef::Fp32(g) => g.iter().sum(),
            };
            assert_eq!(sum(held.get()), 3.0, "the held gradients moved");
            assert_eq!(sum(grads.get(0)), 5.0);
            drop(held);
            let unshared = match grads.shared(0) {
                SharedGrads::Fp16(g) => Arc::strong_count(&g),
                SharedGrads::Fp32(g) => Arc::strong_count(&g),
            };
            assert_eq!(unshared, 2, "no handle but this one and the accumulator");
        }
    }

    #[test]
    fn finishing_an_iteration_counts_the_gradient_bytes_on_tiers_once() {
        let mut grads = HostGrads::new(&[4, 4], true);
        grads.accumulate(&[vec![bits(1.0); 4], vec![bits(1.0); 4]]);
        if let HostGrads::Fp32 { on_tier, .. } = &mut grads {
            on_tier[1] = Some(0);
        }
        assert_eq!(grads.finish_iteration(), 2 * 4 * 4);
        assert_eq!(grads.finish_iteration(), 0);
        grads.materialize_zeros();
        assert!(matches!(grads.get(1), GradRef::Fp32(g) if g.iter().all(|&g| g == 0.0)));
    }
}
