//! Functional (real-bytes) ZeRO-3 baseline: a thin adaptor over the one
//! functional engine.
//!
//! The baseline is [`MlpFuncEngine`] configured as
//! [`EngineConfig::deepspeed_zero3`] over a single tier — the DeepSpeed
//! ZeRO-3 + DeepNVMe behaviour the paper describes in §2/§3.4, and the
//! bottom rung of its Fig. 14 ablation ladder:
//!
//! 1. Backward micro-steps deliver FP16 gradients; the engine *eagerly*
//!    upscales them to FP32 and accumulates in an FP32 host buffer.
//! 2. After the final micro-step the FP32 gradients are flushed to the
//!    storage tier next to the subgroup's optimizer state.
//! 3. The update phase fetches state *and* FP32 gradients (16 B/param
//!    instead of MLP-Offload's 12 B/param), runs the optimizer on the CPU,
//!    and flushes the state back, in ascending subgroup order every
//!    iteration, with no cross-iteration host caching.
//!
//! Fetch, update, flush, failure unwinding and re-drive all live in
//! [`MlpFuncEngine`]; this type only keeps the single-backend signatures
//! its callers (the benchmark above all) were written against.

use std::io;
use std::sync::Arc;

use mlp_aio::engine::AioConfig;
use mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload::EngineConfig;
use mlp_optim::{AdamConfig, SubgroupState};
use mlp_storage::Backend;

/// Result of one baseline update phase.
#[derive(Debug)]
pub struct Zero3UpdateOutcome {
    /// Updated FP16 parameters per subgroup id.
    pub fp16_params: Vec<Vec<u16>>,
    /// Subgroups fetched (always all of them: the baseline thrashes).
    pub fetches: usize,
    /// FP32 gradient bytes moved through storage this iteration, as
    /// *logical per-iteration accounting*
    /// ([`MlpFuncEngine::grad_bytes_through_storage`]): flushed once
    /// during backward plus fetched once per subgroup during update,
    /// regardless of how many times a failed attempt was re-driven.
    pub grad_bytes_through_storage: u64,
}

/// The functional ZeRO-3 baseline over a single storage backend.
pub struct Zero3FuncEngine {
    inner: MlpFuncEngine,
}

impl Zero3FuncEngine {
    /// Creates the engine (default I/O configuration) and offloads the
    /// initial optimizer state.
    pub fn new(
        backend: Arc<dyn Backend>,
        adam: AdamConfig,
        worker_id: usize,
        initial: Vec<SubgroupState>,
    ) -> io::Result<Self> {
        Self::with_aio(backend, adam, worker_id, initial, AioConfig::default())
    }

    /// Creates the engine with an explicit I/O configuration (worker
    /// count, queue depth, transient-error retry policy). An enabled
    /// [`AioConfig::trace`] also receives the engine's own spans.
    pub fn with_aio(
        backend: Arc<dyn Backend>,
        adam: AdamConfig,
        worker_id: usize,
        initial: Vec<SubgroupState>,
        aio: AioConfig,
    ) -> io::Result<Self> {
        let (cfg, tiers) = Self::setup(backend, aio);
        MlpFuncEngine::new(cfg, adam, &tiers, worker_id, initial).map(|inner| Self { inner })
    }

    /// The baseline as a configuration of the one engine.
    fn setup(backend: Arc<dyn Backend>, aio: AioConfig) -> (EngineConfig, [SharedTier; 1]) {
        let cfg = EngineConfig::deepspeed_zero3().with_trace(aio.trace.clone());
        (cfg, [SharedTier::new(backend, 1.0).with_aio(aio)])
    }

    /// Sets the inverse loss scale applied to gradients before the update.
    pub fn set_inv_loss_scale(&mut self, inv: f32) {
        self.inner.set_inv_loss_scale(inv);
    }

    /// Whether a failed update phase is awaiting a re-drive.
    pub fn update_in_progress(&self) -> bool {
        self.inner.update_in_progress()
    }

    /// Transient-error re-attempts performed by the I/O retry layer.
    pub fn io_retries(&self) -> u64 {
        self.inner.io_retries()
    }

    /// Operations that ultimately failed (after retries).
    pub fn io_errors(&self) -> u64 {
        self.inner.io_errors()
    }

    /// Staging buffers checked out of the pool beyond those holding
    /// host-resident state (0 between phases — anything else is a leak).
    /// A failed state flush keeps its payload host-resident for the
    /// re-drive, which is not a leak.
    pub fn pool_outstanding(&self) -> usize {
        self.inner.state_pool_outstanding() - self.inner.resident_count()
    }

    /// One backward micro-step: eagerly upscale the FP16 gradients to FP32
    /// and accumulate on the host (the conversion MLP-Offload delays).
    pub fn accumulate_gradients(&mut self, grads: &[Vec<u16>]) {
        self.inner.accumulate_gradients(grads);
    }

    /// Flushes the accumulated FP32 gradients to storage (the end of the
    /// last backward micro-step in Fig. 6 top). On failure the
    /// accumulators are untouched — re-calling flushes what is missing.
    pub fn flush_gradients(&mut self) -> io::Result<()> {
        self.inner.flush_gradients()
    }

    /// Runs one update phase in ascending subgroup order: fetch state +
    /// FP32 gradients, optimizer step, flush state back. An I/O error
    /// unwinds cleanly and calling `update` again re-drives the *same*
    /// iteration (see [`MlpFuncEngine::update`]).
    pub fn update(&mut self) -> io::Result<Zero3UpdateOutcome> {
        let out = self.inner.update()?;
        Ok(Zero3UpdateOutcome {
            fp16_params: out.fp16_params,
            fetches: out.fetches,
            grad_bytes_through_storage: self.inner.grad_bytes_through_storage(),
        })
    }

    /// Gathers the FP32 master parameters of every subgroup.
    pub fn master_params(&self) -> io::Result<Vec<Vec<f32>>> {
        self.inner.master_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_offload::func::MlpFuncEngine;
    use mlp_storage::MemBackend;
    use mlp_tensor::F16;

    fn init_states(subgroups: usize, len: usize) -> Vec<SubgroupState> {
        (0..subgroups)
            .map(|s| SubgroupState::new((0..len).map(|i| ((s * len + i) as f32).sin()).collect()))
            .collect()
    }

    fn grads_for(subgroups: usize, len: usize, seed: f32) -> Vec<Vec<u16>> {
        (0..subgroups)
            .map(|s| {
                (0..len)
                    .map(|i| {
                        F16::from_f32(((s * len + i) as f32 * 0.01 + seed).cos() * 0.1).to_bits()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn baseline_matches_in_memory_reference() {
        let adam = AdamConfig::default();
        let mut reference = init_states(4, 24);
        let mut engine = Zero3FuncEngine::new(
            Arc::new(MemBackend::new("mem")),
            adam,
            0,
            init_states(4, 24),
        )
        .unwrap();

        for it in 0..3 {
            let grads = grads_for(4, 24, it as f32);
            for (st, g) in reference.iter_mut().zip(&grads) {
                st.apply_update_fp16(&adam, g, 1.0);
            }
            engine.accumulate_gradients(&grads);
            engine.flush_gradients().unwrap();
            engine.update().unwrap();
        }

        let got = engine.master_params().unwrap();
        for (g, r) in got.iter().zip(&reference) {
            assert_eq!(g, &r.params);
        }
    }

    #[test]
    fn gradients_round_trip_through_storage() {
        let adam = AdamConfig::default();
        let mut engine = Zero3FuncEngine::new(
            Arc::new(MemBackend::new("mem")),
            adam,
            0,
            init_states(3, 10),
        )
        .unwrap();
        // The first pass finds every subgroup in host memory, where it was
        // born: its gradients never leave the accumulators.
        engine.accumulate_gradients(&grads_for(3, 10, 0.0));
        engine.flush_gradients().unwrap();
        let o = engine.update().unwrap();
        assert_eq!((o.grad_bytes_through_storage, o.fetches), (0, 0));
        // From the second on, every subgroup rests on the tier.
        for it in 1..3 {
            engine.accumulate_gradients(&grads_for(3, 10, it as f32));
            engine.flush_gradients().unwrap();
            let o = engine.update().unwrap();
            // 3 subgroups × 10 params × 4 B, flushed then fetched.
            assert_eq!(o.grad_bytes_through_storage, 2 * 3 * 10 * 4);
            assert_eq!(o.fetches, 3);
        }
    }

    /// The adaptor adds nothing but the signature: the one engine in
    /// ZeRO-3 configuration over one tier produces the same bits and the
    /// same byte counts.
    #[test]
    fn adaptor_is_the_engine_in_zero3_configuration() {
        let adam = AdamConfig::default();
        let mut adaptor = Zero3FuncEngine::new(
            Arc::new(MemBackend::new("adaptor")),
            adam,
            0,
            init_states(4, 24),
        )
        .unwrap();
        let tier = SharedTier::new(Arc::new(MemBackend::new("direct")) as Arc<dyn Backend>, 1.0);
        let mut direct = MlpFuncEngine::new(
            EngineConfig::deepspeed_zero3(),
            adam,
            &[tier],
            0,
            init_states(4, 24),
        )
        .unwrap();

        for it in 0..3 {
            let grads = grads_for(4, 24, it as f32);
            adaptor.set_inv_loss_scale(0.5);
            adaptor.accumulate_gradients(&grads);
            adaptor.flush_gradients().unwrap();
            let a = adaptor.update().unwrap();
            direct.set_inv_loss_scale(0.5);
            direct.accumulate_gradients(&grads);
            direct.flush_gradients().unwrap();
            let d = direct.update().unwrap();
            assert_eq!(a.fp16_params, d.fp16_params, "iteration {it}");
            assert_eq!(a.fetches, d.fetches);
            assert_eq!(
                a.grad_bytes_through_storage,
                direct.grad_bytes_through_storage()
            );
            // Born in host memory, then the baseline thrashes.
            let hits = if it == 0 { 4 } else { 0 };
            assert_eq!((d.cache_hits, d.flushes), (hits, 4));
        }
        assert_eq!(
            adaptor.master_params().unwrap(),
            direct.master_params().unwrap()
        );
        // The staging pool was recycled, not grown.
        let (acquires, high_water, capacity) = direct.state_pool_stats();
        assert!(acquires > capacity as u64);
        assert!(high_water <= capacity);
    }

    #[test]
    fn accumulation_in_fp32_sums_micro_steps() {
        let adam = AdamConfig::default();
        let g1 = vec![vec![F16::from_f32(0.25).to_bits(); 8]];
        let g2 = vec![vec![F16::from_f32(0.5).to_bits(); 8]];

        let mk = || {
            Zero3FuncEngine::new(Arc::new(MemBackend::new("mem")), adam, 0, init_states(1, 8))
                .unwrap()
        };
        let mut a = mk();
        a.accumulate_gradients(&g1);
        a.accumulate_gradients(&g1);
        a.flush_gradients().unwrap();
        a.update().unwrap();

        let mut b = mk();
        b.accumulate_gradients(&g2);
        b.flush_gradients().unwrap();
        b.update().unwrap();

        assert_eq!(a.master_params().unwrap(), b.master_params().unwrap());

        // Flushing after every micro-step must not leave the update
        // reading the first, by then stale (here: wrong-signed), gradient
        // object.
        let uniform = |v: f32| vec![vec![F16::from_f32(v).to_bits(); 8]];
        let mut c = mk();
        c.accumulate_gradients(&g1);
        c.flush_gradients().unwrap();
        c.accumulate_gradients(&uniform(-0.75));
        c.flush_gradients().unwrap();
        c.update().unwrap();
        let mut d = mk();
        d.accumulate_gradients(&uniform(-0.5));
        d.flush_gradients().unwrap();
        d.update().unwrap();
        assert_eq!(c.master_params().unwrap(), d.master_params().unwrap());
    }

    /// Regression: `grad_bytes_through_storage` is per-iteration logical
    /// accounting, so a re-driven iteration must report the same total as
    /// a never-failed one. The old code counted gradient fetches at the
    /// moment of physical I/O, so a subgroup fetched in a failed attempt
    /// and re-fetched on the re-drive was counted twice.
    #[test]
    fn redriven_iteration_counts_gradient_bytes_once() {
        use mlp_storage::{FaultConfig, FaultInjectBackend};
        let adam = AdamConfig::default();

        let mut reference = Zero3FuncEngine::new(
            Arc::new(MemBackend::new("ref")),
            adam,
            0,
            init_states(4, 16),
        )
        .unwrap();
        let grads = grads_for(4, 16, 0.0);
        reference.accumulate_gradients(&grads);
        reference.flush_gradients().unwrap();
        let clean = reference.update().unwrap();

        // Sweep seeds so the failed attempt exercises mixed outcomes
        // (fetches that succeed, flushes that fail, …).
        for seed in 0..8u64 {
            let inject = FaultInjectBackend::new(
                Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
                FaultConfig::permanent(seed, 0.5),
            );
            inject.set_armed(false);
            let inject = Arc::new(inject);
            let mut engine = Zero3FuncEngine::new(
                Arc::clone(&inject) as Arc<dyn Backend>,
                adam,
                0,
                init_states(4, 16),
            )
            .unwrap();
            engine.accumulate_gradients(&grads);
            engine.flush_gradients().unwrap();

            inject.set_armed(true);
            let mut redriven = engine.update();
            inject.set_armed(false);
            while redriven.is_err() {
                redriven = engine.update();
            }
            assert_eq!(
                redriven.unwrap().grad_bytes_through_storage,
                clean.grad_bytes_through_storage,
                "seed={seed}"
            );
        }
    }

    #[test]
    fn permanent_fault_unwinds_cleanly_and_phases_are_redrivable() {
        use mlp_storage::{classify, ErrorClass, FaultConfig, FaultInjectBackend};
        let adam = AdamConfig::default();
        let inject = FaultInjectBackend::new(
            Arc::new(MemBackend::new("mem")) as Arc<dyn Backend>,
            FaultConfig::permanent(23, 1.0),
        );
        inject.set_armed(false);
        let inject = Arc::new(inject);
        let mut reference = Zero3FuncEngine::new(
            Arc::new(MemBackend::new("ref")),
            adam,
            0,
            init_states(4, 16),
        )
        .unwrap();
        let mut engine = Zero3FuncEngine::new(
            Arc::clone(&inject) as Arc<dyn Backend>,
            adam,
            0,
            init_states(4, 16),
        )
        .unwrap();

        // One clean iteration.
        let grads = grads_for(4, 16, 0.0);
        for e in [&mut reference, &mut engine] {
            e.accumulate_gradients(&grads);
            e.flush_gradients().unwrap();
            e.update().unwrap();
        }

        // Second iteration: gradient flush fails against a dead tier,
        // then succeeds once healed (accumulators are untouched).
        let grads = grads_for(4, 16, 1.0);
        reference.accumulate_gradients(&grads);
        reference.flush_gradients().unwrap();
        let want = reference.update().unwrap();

        engine.accumulate_gradients(&grads);
        inject.set_armed(true);
        let err = engine.flush_gradients().unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent);
        assert_eq!(engine.pool_outstanding(), 0, "no leak");
        inject.set_armed(false);
        engine.flush_gradients().unwrap();

        // The update phase fails mid-iteration, unwinds, and re-drives
        // to the bit-identical result.
        inject.set_armed(true);
        let err = engine.update().unwrap_err();
        assert_eq!(classify(&err), ErrorClass::Permanent);
        assert!(engine.update_in_progress());
        assert_eq!(engine.pool_outstanding(), 0, "no leak");
        assert!(engine.io_errors() > 0);
        inject.set_armed(false);
        let got = engine.update().unwrap();
        assert!(!engine.update_in_progress());
        assert_eq!(
            got.fp16_params, want.fp16_params,
            "re-driven iteration diverged"
        );
        assert_eq!(
            engine.master_params().unwrap(),
            reference.master_params().unwrap()
        );
    }
}
