//! A complete functional (real-bytes) training loop.
//!
//! Wires the MLP-Offload functional engine together with mixed-precision
//! dynamic loss scaling and global gradient clipping into the loop a
//! downstream user actually runs: forward → FP16 gradients → accumulate →
//! offloaded update, with overflow steps skipped and the scale adapting.
//! The model is supplied as a [`GradientSource`], so anything
//! differentiable plugs in; a least-squares [`RegressionTask`] is provided
//! as the built-in workload (standing in for the paper's OSCAR-en token
//! stream, whose content is irrelevant to the offloading behaviour).

use mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload::EngineConfig;
use mlp_optim::scaler::DynamicLossScaler;
use mlp_optim::{AdamConfig, SubgroupState};
use mlp_tensor::convert;
use mlp_trace::{Attrs, Phase};

/// Produces loss and FP16 gradients for the current parameters — the
/// stand-in for a framework's forward/backward passes.
pub trait GradientSource {
    /// Number of trainable parameters.
    fn dim(&self) -> usize;
    /// Loss at `params`.
    fn loss(&self, params: &[f32]) -> f32;
    /// Gradient at `params`, scaled by `loss_scale`, rounded to FP16 bits.
    fn grad_fp16(&self, params: &[f32], loss_scale: f32) -> Vec<u16>;
}

/// Least-squares regression `y = X·w*` on synthetic data.
pub struct RegressionTask {
    xs: Vec<Vec<f32>>,
    ys: Vec<f32>,
    dim: usize,
}

impl RegressionTask {
    /// Builds a task with `samples` rows of dimension `dim`; `seed` fixes
    /// the data and the hidden true weights.
    pub fn new(dim: usize, samples: usize, seed: u64) -> Self {
        // Small deterministic LCG so the crate does not need `rand` in its
        // public dependency set.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) - 1.0
        };
        let w_true: Vec<f32> = (0..dim).map(|_| next()).collect();
        let xs: Vec<Vec<f32>> = (0..samples)
            .map(|_| (0..dim).map(|_| next()).collect())
            .collect();
        let ys = xs
            .iter()
            .map(|x| x.iter().zip(&w_true).map(|(a, b)| a * b).sum())
            .collect();
        RegressionTask { xs, ys, dim }
    }
}

impl GradientSource for RegressionTask {
    fn dim(&self) -> usize {
        self.dim
    }

    fn loss(&self, params: &[f32]) -> f32 {
        let n = self.xs.len() as f32;
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(x, y)| {
                let pred: f32 = x.iter().zip(params).map(|(a, b)| a * b).sum();
                (pred - y).powi(2)
            })
            .sum::<f32>()
            / n
    }

    fn grad_fp16(&self, params: &[f32], loss_scale: f32) -> Vec<u16> {
        let n = self.xs.len() as f32;
        let mut g = vec![0.0f32; self.dim];
        for (x, y) in self.xs.iter().zip(&self.ys) {
            let pred: f32 = x.iter().zip(params).map(|(a, b)| a * b).sum();
            let e = 2.0 * (pred - y) / n * loss_scale;
            for (gi, xi) in g.iter_mut().zip(x) {
                *gi += e * xi;
            }
        }
        let mut out = vec![0u16; self.dim];
        convert::downscale(&g, &mut out);
        out
    }
}

/// Configuration of a functional training run.
pub struct FuncTrainConfig {
    /// Offloading engine configuration.
    pub engine: EngineConfig,
    /// Adam hyper-parameters.
    pub optimizer: AdamConfig,
    /// Parameters per subgroup.
    pub subgroup_len: usize,
    /// Global gradient-norm clip (None disables).
    pub grad_clip: Option<f64>,
    /// Initial loss scale (dynamic scaling adapts from here).
    pub initial_loss_scale: f32,
    /// Re-drive attempts when an I/O error still surfaces from a phase
    /// after the engine-level [`mlp_offload::RetryPolicy`] gave up. The
    /// engine unwinds failed phases cleanly, so re-calling continues the
    /// same iteration bit-identically; 0 (the default) propagates the
    /// first error.
    pub iteration_retries: u32,
}

impl Default for FuncTrainConfig {
    fn default() -> Self {
        FuncTrainConfig {
            // 8 host frames by default; subgroups rest in all of them
            // between update phases.
            engine: EngineConfig::mlp_offload().with_host_frames(8),
            optimizer: AdamConfig::default(),
            subgroup_len: 32,
            grad_clip: Some(1.0),
            initial_loss_scale: 1024.0,
            iteration_retries: 0,
        }
    }
}

/// The outcome of a run.
pub struct FuncTrainReport {
    /// Loss before each applied iteration.
    pub losses: Vec<f32>,
    /// Iterations skipped by the loss scaler (gradient overflow).
    pub skipped_steps: usize,
    /// Final loss scale.
    pub final_loss_scale: f32,
    /// Total host-cache hits across iterations.
    pub cache_hits: usize,
    /// Phase calls that failed and were re-driven to completion
    /// (`iteration_retries` > 0).
    pub redriven_phases: usize,
}

/// Calls `f` until it succeeds or `retries` re-drives are exhausted,
/// counting the re-drives in `redriven`.
fn with_redrives<T>(
    retries: u32,
    redriven: &mut usize,
    mut f: impl FnMut() -> std::io::Result<T>,
) -> std::io::Result<T> {
    let mut attempts = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(_) if attempts < retries => {
                attempts += 1;
                *redriven += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Runs `iterations` of mixed-precision training of `task` with the
/// optimizer state offloaded through `tiers`.
pub fn train(
    task: &dyn GradientSource,
    tiers: &[SharedTier],
    cfg: FuncTrainConfig,
    iterations: usize,
) -> std::io::Result<FuncTrainReport> {
    let dim = task.dim();
    assert!(
        cfg.subgroup_len > 0 && dim.is_multiple_of(cfg.subgroup_len),
        "dim must split into subgroups"
    );
    let subgroups = dim / cfg.subgroup_len;
    let trace = cfg.engine.trace.clone();

    let initial: Vec<SubgroupState> = (0..subgroups)
        .map(|_| SubgroupState::new(vec![0.0; cfg.subgroup_len]))
        .collect();
    let mut engine = MlpFuncEngine::new(cfg.engine, cfg.optimizer, tiers, 0, initial)?;
    engine.set_grad_clip(cfg.grad_clip);

    let mut scaler = DynamicLossScaler::with_scale(cfg.initial_loss_scale);
    let mut report = FuncTrainReport {
        losses: Vec::new(),
        skipped_steps: 0,
        final_loss_scale: scaler.scale(),
        cache_hits: 0,
        redriven_phases: 0,
    };

    for _ in 0..iterations {
        // RAII span: covers skipped (overflow) iterations too.
        let _iter_span = trace.span(Phase::Iteration, Attrs::NONE);
        let params: Vec<f32> =
            with_redrives(cfg.iteration_retries, &mut report.redriven_phases, || {
                engine.master_params()
            })?
            .into_iter()
            .flatten()
            .collect();
        report.losses.push(task.loss(&params));
        let grads = task.grad_fp16(&params, scaler.scale());
        // Overflow check on the scaled FP16 gradients (Inf after rounding).
        let overflow = grads
            .iter()
            .any(|&h| !mlp_tensor::F16::from_bits(h).is_finite());
        if !scaler.update(overflow) {
            report.skipped_steps += 1;
            continue; // skip the step, scale backed off
        }
        engine.set_inv_loss_scale(scaler.inv_scale());
        let per_sub: Vec<Vec<u16>> = grads
            .chunks(cfg.subgroup_len)
            .map(<[u16]>::to_vec)
            .collect();
        engine.accumulate_gradients(&per_sub);
        // A failed update unwinds cleanly and stays re-drivable: each
        // re-call continues the *same* iteration (gradient accumulators
        // untouched, durable subgroup updates not re-applied).
        let outcome = with_redrives(cfg.iteration_retries, &mut report.redriven_phases, || {
            engine.update()
        })?;
        report.cache_hits += outcome.cache_hits;
    }
    report.final_loss_scale = scaler.scale();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlp_storage::{Backend, MemBackend};
    use std::sync::Arc;

    fn tiers() -> Vec<SharedTier> {
        vec![
            SharedTier::new(Arc::new(MemBackend::new("a")) as Arc<dyn Backend>, 2.0),
            SharedTier::new(Arc::new(MemBackend::new("b")) as Arc<dyn Backend>, 1.0),
        ]
    }

    #[test]
    fn regression_learns_through_the_full_loop() {
        let task = RegressionTask::new(64, 48, 9);
        let cfg = FuncTrainConfig {
            optimizer: AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = train(&task, &tiers(), cfg, 60).unwrap();
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(last < first * 0.05, "loss {first} -> {last}");
        assert!(report.cache_hits > 0, "warm cache must produce hits");
    }

    #[test]
    fn huge_loss_scale_backs_off_instead_of_diverging() {
        let task = RegressionTask::new(32, 32, 4);
        let cfg = FuncTrainConfig {
            initial_loss_scale: 1e8, // guaranteed FP16 overflow at first
            optimizer: AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
            ..Default::default()
        };
        let report = train(&task, &tiers(), cfg, 80).unwrap();
        assert!(report.skipped_steps > 0, "overflow steps must be skipped");
        assert!(report.final_loss_scale < 1e8);
        let first = report.losses[0];
        let last = *report.losses.last().unwrap();
        assert!(
            last < first * 0.5,
            "training must recover: {first} -> {last}"
        );
        // And the final state stays finite.
        assert!(last.is_finite());
    }

    #[test]
    fn training_rides_through_transient_faults_bit_identically() {
        use mlp_offload::{AioConfig, RetryPolicy};
        use mlp_storage::{FaultConfig, FaultInjectBackend};
        use std::time::Duration;

        let cfg = || FuncTrainConfig {
            optimizer: AdamConfig {
                lr: 0.05,
                ..Default::default()
            },
            // Should a fault still surface past the op-level retries, the
            // trainer re-drives the phase instead of aborting the run.
            iteration_retries: 64,
            // 16 subgroups: 8 rest in the host frames, and every iteration
            // moves the other 8 through the faulty tiers.
            subgroup_len: 4,
            ..Default::default()
        };
        let task = RegressionTask::new(64, 48, 9);
        let clean = train(&task, &tiers(), cfg(), 40).unwrap();

        // The same run with every tier injecting 20% transient faults,
        // absorbed by a fast-backoff retry policy inside the I/O workers.
        let retry = RetryPolicy {
            max_attempts: 6,
            base_backoff: Duration::from_micros(10),
            backoff_multiplier: 2.0,
            max_backoff: Duration::from_micros(200),
        };
        let mut injectors = Vec::new();
        let mut faulty_tiers = Vec::new();
        for (i, (name, bw)) in [("a", 2.0), ("b", 1.0)].iter().enumerate() {
            let inject = Arc::new(FaultInjectBackend::new(
                Arc::new(MemBackend::new(*name)) as Arc<dyn Backend>,
                FaultConfig::transient(101 + 101 * i as u64, 0.2),
            ));
            faulty_tiers.push(
                SharedTier::new(Arc::clone(&inject) as Arc<dyn Backend>, *bw).with_aio(AioConfig {
                    retry: retry.clone(),
                    ..AioConfig::default()
                }),
            );
            injectors.push(inject);
        }
        let faulty = train(&task, &faulty_tiers, cfg(), 40).unwrap();

        // Faults really fired…
        let transients: u64 = injectors.iter().map(|i| i.counts().transient).sum();
        assert!(transients > 0, "injection must have fired");
        // …and the run is bit-identical to the fault-free one.
        assert_eq!(clean.losses, faulty.losses);
        assert_eq!(clean.skipped_steps, faulty.skipped_steps);
        assert_eq!(clean.final_loss_scale, faulty.final_loss_scale);
    }

    #[test]
    fn regression_task_is_deterministic() {
        let a = RegressionTask::new(16, 8, 7);
        let b = RegressionTask::new(16, 8, 7);
        let p = vec![0.1f32; 16];
        assert_eq!(a.loss(&p), b.loss(&p));
        assert_eq!(a.grad_fp16(&p, 2.0), b.grad_fp16(&p, 2.0));
    }
}
