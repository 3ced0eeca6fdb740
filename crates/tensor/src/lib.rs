#![warn(missing_docs)]
// Hot-path discipline (DESIGN.md §9): the library neither panics nor
// prints; tests may (clippy.toml).
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
// The workspace's only `unsafe` (every other crate root denies it) states
// its proof obligation in a `// SAFETY:` comment.
#![deny(clippy::undocumented_unsafe_blocks)]

//! Mixed-precision tensor substrate for the MLP-Offload reproduction.
//!
//! Mixed-precision training (§2 of the paper) keeps an FP16 working copy of
//! the model for forward/backward passes and an FP32 master copy (parameters,
//! momentum, variance) for the optimizer. The paper's *delayed in-place
//! mixed-precision gradient conversion* (§3.2) relies on FP16→FP32 upscaling
//! being an order of magnitude faster than fetching FP32 gradients from a
//! storage tier (65 GB/s on Testbed-1), so the conversion kernels here are a
//! first-class, benchmarked component.
//!
//! Provided:
//!
//! * [`f16::F16`] — IEEE 754 binary16 implemented from scratch (round to
//!   nearest even, subnormals, infinities, NaN) with branch-free
//!   conversions that vectorize, exhaustively tested against a branchy
//!   scalar reference.
//! * [`convert`] — bulk upscale/downscale kernels: scalar and parallel
//!   ([`par_for_each`] over [`PAR_CHUNK`]-sized chunks), plain and fused
//!   with the loss-scale multiply the delayed-conversion path applies.
//! * [`simd`] — [`at_host_width`]: the same loops instantiated per vector
//!   width (portable, AVX2, AVX-512) and picked from what the host CPU
//!   reports; every width computes the portable one's bits.
//! * [`buffer::HostBuffer`] — byte-addressed host staging buffer with typed
//!   accessors, the unit of I/O for the offloading engines.
//! * [`pool::PinnedPool`] — explicit pool-based allocation of staging
//!   buffers (mirrors MLP-Offload's "explicit pool-based allocations for
//!   asynchronous fetch/flush operations", §3.5).

pub mod buffer;
pub mod convert;
pub mod f16;
pub mod pool;
pub mod simd;

pub use buffer::HostBuffer;
pub use f16::F16;
pub use pool::{PinnedPool, PooledBuffer};
pub use simd::{at_host_width, SimdLevel};

/// Minimum elements per parallel work item for every bulk kernel in the
/// workspace (conversion, optimizer steps, fused update).
///
/// Below this size the kernels fall back to a single sequential pass —
/// fork/join overhead dominates under ~64K elements. The value also fixes
/// the parallel split points, so any two kernels chunked by `PAR_CHUNK`
/// process identical element ranges (relevant only for auditing: the
/// per-element updates are order-independent and bitwise identical
/// regardless of the split). Tune it here, once; `mlp-optim` and the fused
/// update pipeline all chunk by this constant.
pub const PAR_CHUNK: usize = 64 * 1024;

/// Runs `f` on every item, forked over the host's cores: the items are cut
/// into one contiguous run per core, the caller's thread takes the first
/// run and scoped threads take the rest. Every bulk kernel passes zipped
/// `chunks(PAR_CHUNK)` iterators, so the split points are the callers' and
/// results do not depend on the core count. No persistent pool: a call
/// pays one thread spawn per extra core, which is why kernels stay
/// sequential below [`PAR_CHUNK`].
///
/// # Panics
///
/// Re-raises on the caller if `f` panicked on any thread.
pub fn par_for_each<I, F>(items: I, f: F)
where
    I: IntoIterator,
    I::Item: Send,
    F: Fn(I::Item) + Sync,
{
    let mut items: Vec<I::Item> = items.into_iter().collect();
    let f = &f;
    // The model checker has no scoped threads (and arithmetic kernels are
    // no protocol to check): one run under `--cfg loom`.
    #[cfg(not(loom))]
    {
        use mlp_sync::thread;
        let cores = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let parts = cores.min(items.len());
        if parts > 1 {
            let (base, extra) = (items.len() / parts, items.len() % parts);
            return thread::scope(|scope| {
                for part in (1..parts).rev() {
                    let run = items.split_off(part * base + part.min(extra));
                    scope.spawn(move || run.into_iter().for_each(f));
                }
                items.into_iter().for_each(f);
            });
        }
    }
    items.into_iter().for_each(f);
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::par_for_each;
    use mlp_sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_for_each_visits_every_chunk_once_including_a_ragged_tail() {
        // 1000 = 142 chunks of 7 + a tail of 6: more chunks than cores.
        let src: Vec<u32> = (0..1000).collect();
        let mut dst = vec![0u32; 1000];
        par_for_each(dst.chunks_mut(7).zip(src.chunks(7)), |(d, s)| {
            d.iter_mut().zip(s).for_each(|(d, s)| *d += s + 1)
        });
        assert!(dst.iter().zip(&src).all(|(d, s)| *d == s + 1));
    }

    #[test]
    fn par_for_each_with_fewer_chunks_than_cores_and_none_at_all() {
        let calls = AtomicUsize::new(0);
        let mut one = [0u8; 5];
        par_for_each(one.chunks_mut(64), |c| {
            calls.fetch_add(1, Ordering::SeqCst);
            c.fill(9);
        });
        assert_eq!((calls.load(Ordering::SeqCst), one), (1, [9; 5]));
        par_for_each(Vec::<u8>::new(), |_| panic!("no items"));
    }

    #[test]
    fn par_for_each_re_raises_a_panicking_closure_on_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        // The last item lands on a spawned thread whenever there is one,
        // on the caller's otherwise: either way the caller unwinds.
        let outcome = std::panic::catch_unwind(|| {
            par_for_each(items, |i| assert_ne!(i, 63, "kernel failed on item {i}"))
        });
        assert!(outcome.is_err());
    }
}
