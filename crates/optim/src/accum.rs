//! Host-resident gradient accumulation.
//!
//! During gradient accumulation (§4.5), several backward passes run before
//! each update phase; their per-subgroup FP16 gradients are summed into a
//! host buffer. MLP-Offload keeps these buffers in FP16 on the host and
//! upscales lazily during the update (delayed conversion, §3.2) — the
//! baseline upscales to FP32 eagerly and flushes them through storage.
//!
//! FP16 accumulation is performed in FP32 and rounded back to FP16 per
//! micro-step, matching the precision behaviour of an FP16 accumulation
//! buffer updated with widened arithmetic.
//!
//! **Store, then add.** The first micro-step after [`GradAccumulator::new`]
//! or [`GradAccumulator::reset`] meets buffers that stand for zero, and
//! `0 + g` narrowed back to FP16 is `g` itself for every one of the 65 536
//! bit patterns but two kinds: `+0 + −0` is `+0` under round-to-nearest, and
//! a signalling NaN comes back quiet (widening sets the quiet bit, narrowing
//! keeps it). So that micro-step *stores* `g` with exactly those two fix-ups
//! instead of widening, adding and narrowing — with an accumulation degree
//! of one the host FP16 gradient buffer is a copy of the gradients — and
//! every later micro-step adds. The eager FP32 accumulators follow the same
//! rule: the first micro-step stores `0.0 + widen(g)`, the addition itself
//! doing both fix-ups. Either way the two paths are bit-identical (tested
//! exhaustively below), and because the storing micro-step overwrites every
//! buffer whole, nothing sweeps them between iterations:
//! [`GradAccumulator::reset`] is O(1).
//!
//! The four element loops ([`store_f16`], [`add_f16`], [`store_f32`],
//! [`add_f32`]) are `#[inline(always)]` bodies; a micro-step covers the whole
//! subgroup set and forks over subgroups ([`for_each_subgroup`]): one
//! contiguous run of subgroups per core, each at the host's vector width.

use mlp_tensor::f16::{f16_bits_to_f32, f32_to_f16_bits};
use mlp_tensor::{at_host_width, par_for_each, PAR_CHUNK};

/// Runs `kernel(buffer, grads)` on every subgroup's accumulation buffer and
/// the micro-step's gradients for it, forked over subgroups — one
/// contiguous run of subgroups per core — or on the caller alone when the
/// whole set holds fewer than [`PAR_CHUNK`] elements (the workspace's
/// standing rule: fork/join overhead dominates below that). Each call of
/// `kernel` runs at the host's vector width as far as it is inlined
/// ([`mlp_tensor::simd`]): pass one of this module's loops, or something as
/// `#[inline(always)]`.
///
/// # Panics
///
/// Panics if the set sizes or any subgroup's lengths mismatch.
pub fn for_each_subgroup<T: Send>(
    buffers: &mut [Vec<T>],
    grads: &[Vec<u16>],
    kernel: impl Fn(&mut [T], &[u16]) + Sync,
) {
    assert_eq!(buffers.len(), grads.len(), "gradient set mismatch");
    let subgroup = |(buf, g): (&mut Vec<T>, &Vec<u16>)| {
        assert_eq!(buf.len(), g.len(), "gradient length mismatch");
        at_host_width(
            #[inline(always)]
            || kernel(buf, g),
        );
    };
    let pairs = buffers.iter_mut().zip(grads);
    if grads.iter().map(Vec::len).sum::<usize>() < PAR_CHUNK {
        pairs.for_each(subgroup);
    } else {
        par_for_each(pairs, subgroup);
    }
}

/// What adding `g` into a zeroed FP16 buffer leaves there: `g`, except that
/// `−0` becomes `+0` and a signalling NaN is quieted.
#[inline(always)]
fn first_sum(g: u16) -> u16 {
    if g == 0x8000 {
        0
    } else if g & 0x7FFF > 0x7C00 {
        g | 0x0200
    } else {
        g
    }
}

/// The first micro-step into an FP16 buffer: stores what adding `g` to
/// zeros would leave, whatever `buf` held.
#[inline(always)]
pub fn store_f16(buf: &mut [u16], g: &[u16]) {
    for (b, &g) in buf.iter_mut().zip(g) {
        *b = first_sum(g);
    }
}

/// A later micro-step into an FP16 buffer: widen, add, narrow.
#[inline(always)]
pub fn add_f16(buf: &mut [u16], g: &[u16]) {
    for (b, &g) in buf.iter_mut().zip(g) {
        *b = f32_to_f16_bits(f16_bits_to_f32(*b) + f16_bits_to_f32(g));
    }
}

/// The first micro-step into an eager FP32 buffer: stores `0.0 + widen(g)`
/// (`−0` becomes `+0`; widening has already quieted a signalling NaN),
/// whatever `buf` held.
#[inline(always)]
pub fn store_f32(buf: &mut [f32], g: &[u16]) {
    for (b, &g) in buf.iter_mut().zip(g) {
        *b = 0.0 + f16_bits_to_f32(g);
    }
}

/// A later micro-step into an eager FP32 buffer.
#[inline(always)]
pub fn add_f32(buf: &mut [f32], g: &[u16]) {
    for (b, &g) in buf.iter_mut().zip(g) {
        *b += f16_bits_to_f32(g);
    }
}

/// FP16 gradient accumulation buffers for one rank's subgroups.
#[derive(Clone, Debug)]
pub struct GradAccumulator {
    buffers: Vec<Vec<u16>>,
    /// No micro-step since `new`/`reset`: the buffers stand for zero,
    /// whatever they hold, and the next micro-step stores.
    empty: bool,
}

impl GradAccumulator {
    /// Creates zeroed buffers sized from `subgroup_lens` (parameters per
    /// subgroup).
    pub fn new(subgroup_lens: &[usize]) -> Self {
        GradAccumulator {
            buffers: subgroup_lens.iter().map(|&n| vec![0u16; n]).collect(),
            empty: true,
        }
    }

    /// Number of subgroups.
    pub fn num_subgroups(&self) -> usize {
        self.buffers.len()
    }

    /// Adds one micro-step's gradients (FP16 bits, one slice per subgroup
    /// in subgroup-id order) into the buffers; the first micro-step after
    /// [`new`](Self::new) or [`reset`](Self::reset) stores instead, which
    /// is bit-identical (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics if the number of subgroups or any length mismatches.
    pub fn accumulate(&mut self, grads: &[Vec<u16>]) {
        if std::mem::take(&mut self.empty) {
            for_each_subgroup(&mut self.buffers, grads, store_f16);
        } else {
            for_each_subgroup(&mut self.buffers, grads, add_f16);
        }
    }

    /// The accumulated FP16 gradients of subgroup `id`. Between a
    /// [`reset`](Self::reset) and the next micro-step, call
    /// [`materialize_zeros`](Self::materialize_zeros) first.
    pub fn grads(&self, id: usize) -> &[u16] {
        &self.buffers[id]
    }

    /// Forgets the sums (after an update) without touching the buffers: the
    /// next micro-step stores over every one of them whole, so a sweep here
    /// would be overwritten unread. Until then they still *hold* the
    /// finished iteration's sums — a reader that may come before that
    /// micro-step calls [`materialize_zeros`](Self::materialize_zeros).
    pub fn reset(&mut self) {
        self.empty = true;
    }

    /// Makes the buffers hold the zeros they stand for when no micro-step
    /// has run since [`new`](Self::new) or [`reset`](Self::reset) — the
    /// rare update that applies zero gradients; a no-op otherwise. The next
    /// micro-step still stores.
    pub fn materialize_zeros(&mut self) {
        if self.empty {
            for b in &mut self.buffers {
                b.fill(0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_tensor::{SimdLevel, F16};

    fn bits(v: f32) -> u16 {
        F16::from_f32(v).to_bits()
    }

    /// One element of one micro-step, the way every micro-step ran before
    /// the first one stored: widen, add, narrow.
    fn add(b: u16, g: u16) -> u16 {
        f32_to_f16_bits(f16_bits_to_f32(b) + f16_bits_to_f32(g))
    }

    #[test]
    fn accumulates_sums() {
        let mut acc = GradAccumulator::new(&[4]);
        acc.accumulate(&[vec![bits(1.0), bits(2.0), bits(-1.0), bits(0.0)]]);
        acc.accumulate(&[vec![bits(0.5), bits(0.5), bits(0.5), bits(0.5)]]);
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
        acc.accumulate(&[vec![bits(1.0); 2], vec![bits(1.0); 3]]);
        acc.reset();
        acc.materialize_zeros();
        assert!(acc.grads(0).iter().all(|&b| b == 0));
        assert!(acc.grads(1).iter().all(|&b| b == 0));
    }

    #[test]
    fn reset_sweeps_nothing_and_materialized_zeros_are_still_stored_over() {
        let ones = [vec![bits(1.0); 2], vec![bits(1.0); 3]];
        let mut acc = GradAccumulator::new(&[2, 3]);
        acc.accumulate(&ones);
        // O(1): the sums are forgotten, not swept; a micro-step between
        // two updates makes `materialize_zeros` a no-op.
        acc.reset();
        assert_eq!(acc.grads(1), ones[1]);
        acc.accumulate(&ones);
        acc.materialize_zeros();
        assert_eq!(acc.grads(0), ones[0], "stored, not added to the stale sums");
        // With none, the zeros an update must apply are swept in — and the
        // next micro-step stores over them all the same.
        acc.reset();
        acc.materialize_zeros();
        assert!(acc.grads(0).iter().chain(acc.grads(1)).all(|&b| b == 0));
        acc.accumulate(&[vec![0x8000; 2], vec![0x7D00; 3]]);
        assert_eq!(acc.grads(0), [0; 2], "−0 stored as +0");
        assert_eq!(acc.grads(1), [0x7F00; 3], "signalling NaN stored quiet");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn wrong_length_panics() {
        let mut acc = GradAccumulator::new(&[4]);
        acc.accumulate(&[vec![0; 3]]);
    }

    #[test]
    #[should_panic(expected = "set mismatch")]
    fn wrong_subgroup_count_panics() {
        let mut acc = GradAccumulator::new(&[4]);
        acc.accumulate(&[vec![0; 4], vec![0; 4]]);
    }

    #[test]
    fn storing_equals_adding_into_zero_for_every_bit_pattern() {
        let every: Vec<u16> = (0..=u16::MAX).collect();
        let expect: Vec<u16> = every.iter().map(|&g| add(0, g)).collect();

        let mut stored = GradAccumulator::new(&[every.len()]);
        stored.accumulate(std::slice::from_ref(&every));
        assert_eq!(stored.grads(0), expect, "store path");

        // The add path over the same zeros: a first micro-step of +0 leaves
        // them zero and leaves the accumulator adding. After a reset the
        // next micro-step stores again.
        let mut added = GradAccumulator::new(&[every.len()]);
        added.accumulate(&[vec![0; every.len()]]);
        added.accumulate(std::slice::from_ref(&every));
        assert_eq!(added.grads(0), expect, "add path");
        added.reset();
        added.accumulate(std::slice::from_ref(&every));
        assert_eq!(added.grads(0), expect, "store path after reset");
    }

    #[test]
    fn storing_equals_adding_into_zero_for_every_bit_pattern_in_fp32() {
        let every: Vec<u16> = (0..=u16::MAX).collect();
        let mut added = vec![0.0f32; every.len()];
        add_f32(&mut added, &every);
        // Whatever the buffer held: a finished iteration's sums, here NaNs.
        let mut stored = vec![f32::NAN; every.len()];
        store_f32(&mut stored, &every);
        for (&g, (s, a)) in every.iter().zip(stored.iter().zip(&added)) {
            assert_eq!(s.to_bits(), a.to_bits(), "{g:#06x}");
            // The two fix-ups, spelled out: −0 → +0, and every NaN quiet.
            let widened = f16_bits_to_f32(g);
            let expect = if g == 0x8000 { 0 } else { widened.to_bits() };
            assert_eq!(s.to_bits(), expect, "{g:#06x}");
            assert!(!s.is_nan() || s.to_bits() & 0x0040_0000 != 0, "{g:#06x}");
        }
    }

    /// `kernel(held, grads)` compiled at `level`. Generic over the loop, not
    /// a function pointer: only a statically known callee inlines into the
    /// level's `target_feature` function.
    fn at_level<T: Clone>(
        level: SimdLevel,
        held: &[T],
        grads: &[u16],
        kernel: impl Fn(&mut [T], &[u16]),
    ) -> Vec<T> {
        let mut buf = held.to_vec();
        level.run(
            #[inline(always)]
            || kernel(&mut buf, grads),
        );
        buf
    }

    #[test]
    fn every_level_accumulates_the_portable_bits() {
        // Every gradient pattern — subnormals, ±0, ±∞, quiet and signalling
        // NaNs — against a buffer that walks through them at another pace,
        // except that a NaN never meets a NaN: which of two payloads
        // survives an addition is the instruction encoding's choice, not
        // arithmetic (`mlp_tensor::simd`). The walk's own NaNs are masked
        // down to subnormals and three are planted opposite numbers.
        let grads: Vec<u16> = (0..=u16::MAX).collect();
        let mut held: Vec<u16> = grads
            .iter()
            .map(|&g| g.wrapping_mul(40_503) ^ 0x5A5A)
            .map(|h| if F16(h).is_nan() { h & 0x83FF } else { h })
            .collect();
        held[0x0005] = 0x7E00;
        held[0x3C00] = 0xFD01;
        held[0xFBFF] = 0x7FFF;
        let held_f32: Vec<f32> = held.iter().map(|&h| f16_bits_to_f32(h) * 1.5).collect();
        let f32_bits = |v: Vec<f32>| v.into_iter().map(f32::to_bits).collect::<Vec<_>>();
        let all_four = |l: SimdLevel| {
            (
                at_level(l, &held, &grads, store_f16),
                at_level(l, &held, &grads, add_f16),
                f32_bits(at_level(l, &held_f32, &grads, store_f32)),
                f32_bits(at_level(l, &held_f32, &grads, add_f32)),
            )
        };
        let mut levels = SimdLevel::available();
        let portable = all_four(levels.next().expect("portable is always there"));
        for level in levels {
            assert!(all_four(level) == portable, "{} diverged", level.name());
        }
    }

    #[test]
    fn forked_accumulation_equals_sequential_on_ragged_and_small_sets() {
        // Above the fork threshold with ragged subgroups (an empty one
        // among them), and a set too small to fork.
        for lens in [vec![1, PAR_CHUNK - 1, 0, PAR_CHUNK + 1, 7], vec![3, 0, 5]] {
            let step = |salt: usize| -> Vec<Vec<u16>> {
                lens.iter()
                    .enumerate()
                    .map(|(id, &n)| {
                        // Every exponent, both signs, −0 and NaNs included.
                        (0..n).map(|i| ((i + salt) * 2_654_435_761 + id * 40_503) as u16).collect()
                    })
                    .collect()
            };
            let (first, second) = (step(1), step(2));
            let mut acc = GradAccumulator::new(&lens);
            acc.accumulate(&first);
            acc.accumulate(&second);
            for id in 0..lens.len() {
                let expect: Vec<u16> = first[id]
                    .iter()
                    .zip(&second[id])
                    .map(|(&a, &b)| add(add(0, a), b))
                    .collect();
                assert_eq!(acc.grads(id), expect, "subgroup {id} of {lens:?}");
            }
        }
    }
}
