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
//!
//! **Store, then add.** The first micro-step after [`GradAccumulator::new`]
//! or [`GradAccumulator::reset`] meets zeroed buffers, and `0 + g` narrowed
//! back to FP16 is `g` itself for every one of the 65 536 bit patterns but
//! two kinds: `+0 + −0` is `+0` under round-to-nearest, and a signalling
//! NaN comes back quiet (widening sets the quiet bit, narrowing keeps it).
//! So that micro-step *stores* `g` with exactly those two fix-ups instead of
//! widening, adding and narrowing — with an accumulation degree of one the
//! host FP16 gradient buffer is a copy of the gradients — and every later
//! micro-step adds. The two are bit-identical (tested exhaustively below).
//!
//! A micro-step covers the whole subgroup set and forks over subgroups
//! ([`for_each_subgroup`]): one contiguous run of subgroups per core.

use mlp_tensor::f16::{f16_bits_to_f32, f32_to_f16_bits};
use mlp_tensor::{par_for_each, PAR_CHUNK};

/// Runs `kernel(buffer, grads)` on every subgroup's accumulation buffer and
/// the micro-step's gradients for it, forked over subgroups — one
/// contiguous run of subgroups per core — or on the caller alone when the
/// whole set holds fewer than [`PAR_CHUNK`] elements (the workspace's
/// standing rule: fork/join overhead dominates below that).
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
        kernel(buf, g);
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

/// FP16 gradient accumulation buffers for one rank's subgroups.
#[derive(Clone, Debug)]
pub struct GradAccumulator {
    buffers: Vec<Vec<u16>>,
    /// No micro-step since `new`/`reset`: the buffers are all zero and the
    /// next one stores.
    zeroed: bool,
}

impl GradAccumulator {
    /// Creates zeroed buffers sized from `subgroup_lens` (parameters per
    /// subgroup).
    pub fn new(subgroup_lens: &[usize]) -> Self {
        GradAccumulator {
            buffers: subgroup_lens.iter().map(|&n| vec![0u16; n]).collect(),
            zeroed: true,
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
        let store = std::mem::take(&mut self.zeroed);
        for_each_subgroup(&mut self.buffers, grads, |buf, g| {
            let pairs = buf.iter_mut().zip(g);
            if store {
                pairs.for_each(|(b, &g)| *b = first_sum(g));
            } else {
                pairs.for_each(|(b, &g)| {
                    *b = f32_to_f16_bits(f16_bits_to_f32(*b) + f16_bits_to_f32(g))
                });
            }
        });
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
        self.zeroed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_tensor::F16;

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
