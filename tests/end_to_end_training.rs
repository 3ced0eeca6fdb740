//! End-to-end functional training: a real (tiny) learning problem trained
//! with the optimizer state offloaded through MLP-Offload must learn
//! exactly as well as never offloading — the engines move real bytes
//! through real storage backends while the loss goes down.

use std::sync::Arc;

use mlp_offload_suite::mlp_offload::func::{MlpFuncEngine, SharedTier};
use mlp_offload_suite::mlp_offload::EngineConfig;
use mlp_offload_suite::mlp_optim::{AdamConfig, SubgroupState};
use mlp_offload_suite::mlp_storage::{Backend, MemBackend};
use mlp_offload_suite::mlp_tensor::convert;
use mlp_offload_suite::mlp_zero3::Zero3FuncEngine;
use mlp_testkit::Gen;

/// Least-squares regression: predict y = X·w*, learn w from (X, y).
struct Regression {
    xs: Vec<Vec<f32>>,
    ys: Vec<f32>,
    dim: usize,
}

impl Regression {
    fn new(dim: usize, samples: usize, seed: u64) -> Self {
        let mut rng = Gen::new(seed);
        let w_true: Vec<f32> = (0..dim).map(|_| rng.range(-1.0f32..1.0)).collect();
        let xs: Vec<Vec<f32>> = (0..samples)
            .map(|_| (0..dim).map(|_| rng.range(-1.0f32..1.0)).collect())
            .collect();
        let ys: Vec<f32> = xs
            .iter()
            .map(|x| x.iter().zip(&w_true).map(|(a, b)| a * b).sum())
            .collect();
        Regression { xs, ys, dim }
    }

    fn loss(&self, w: &[f32]) -> f32 {
        let n = self.xs.len() as f32;
        self.xs
            .iter()
            .zip(&self.ys)
            .map(|(x, y)| {
                let pred: f32 = x.iter().zip(w).map(|(a, b)| a * b).sum();
                (pred - y).powi(2)
            })
            .sum::<f32>()
            / n
    }

    /// MSE gradient, rounded through FP16 the way a mixed-precision
    /// backward pass would produce it.
    fn grad_fp16(&self, w: &[f32]) -> Vec<u16> {
        let n = self.xs.len() as f32;
        let mut g = vec![0.0f32; self.dim];
        for (x, y) in self.xs.iter().zip(&self.ys) {
            let pred: f32 = x.iter().zip(w).map(|(a, b)| a * b).sum();
            let e = 2.0 * (pred - y) / n;
            for (gi, xi) in g.iter_mut().zip(x) {
                *gi += e * xi;
            }
        }
        let mut out = vec![0u16; self.dim];
        convert::downscale(&g, &mut out);
        out
    }
}

const DIM: usize = 96; // 4 subgroups × 24 params
const SUBGROUPS: usize = 4;
const SUB_LEN: usize = DIM / SUBGROUPS;

fn initial_states() -> Vec<SubgroupState> {
    (0..SUBGROUPS)
        .map(|_| SubgroupState::new(vec![0.0; SUB_LEN]))
        .collect()
}

fn flatten(parts: &[Vec<f32>]) -> Vec<f32> {
    parts.iter().flatten().copied().collect()
}

fn split_grads(g: &[u16]) -> Vec<Vec<u16>> {
    g.chunks(SUB_LEN).map(|c| c.to_vec()).collect()
}

fn adam() -> AdamConfig {
    AdamConfig {
        lr: 0.05,
        ..AdamConfig::default()
    }
}

fn mem_tiers(n: usize) -> Vec<SharedTier> {
    (0..n)
        .map(|i| {
            SharedTier::new(
                Arc::new(MemBackend::new(format!("t{i}"))) as Arc<dyn Backend>,
                (i + 1) as f64,
            )
        })
        .collect()
}

#[test]
fn offloaded_regression_learns_and_matches_reference() {
    let problem = Regression::new(DIM, 64, 42);
    let adam = adam();

    // In-memory reference.
    let mut reference = initial_states();
    // MLP-Offload over two tiers with caching.
    let mut mlp = MlpFuncEngine::new(
        EngineConfig::mlp_offload().with_host_frames(5),
        adam,
        &mem_tiers(2),
        0,
        initial_states(),
    )
    .unwrap();

    let mut losses = Vec::new();
    for _ in 0..60 {
        let w: Vec<f32> = flatten(
            &reference
                .iter()
                .map(|s| s.params.clone())
                .collect::<Vec<_>>(),
        );
        losses.push(problem.loss(&w));
        let grads = split_grads(&problem.grad_fp16(&w));
        for (st, g) in reference.iter_mut().zip(&grads) {
            st.apply_update_fp16(&adam, g, 1.0);
        }
        mlp.accumulate_gradients(&grads);
        mlp.update().unwrap();
    }

    // The model actually learned.
    let first = losses[0];
    let last = *losses.last().unwrap();
    assert!(
        last < first * 0.05,
        "loss must drop by >20x: {first} -> {last}"
    );

    // Offloaded training tracked the reference bit for bit.
    let got = mlp.master_params().unwrap();
    for (idx, (g, r)) in got.iter().zip(&reference).enumerate() {
        assert_eq!(g, &r.params, "subgroup {idx} diverged from reference");
    }
}

#[test]
fn mlp_offload_and_zero3_baseline_learn_identically() {
    // Same problem, same gradients: the MLP-Offload engine (FP16 grads in
    // host memory, delayed conversion) and the ZeRO-3 baseline (eager FP32
    // conversion, gradients through storage) must produce identical master
    // parameters on single micro-steps.
    let problem = Regression::new(DIM, 48, 7);
    let adam = adam();

    let mut mlp = MlpFuncEngine::new(
        EngineConfig::mlp_offload(),
        adam,
        &mem_tiers(2),
        0,
        initial_states(),
    )
    .unwrap();
    let mut ds =
        Zero3FuncEngine::new(Arc::new(MemBackend::new("nvme")), adam, 0, initial_states()).unwrap();

    for _ in 0..20 {
        let w: Vec<f32> = flatten(&mlp.master_params().unwrap());
        let grads = split_grads(&problem.grad_fp16(&w));

        mlp.accumulate_gradients(&grads);
        mlp.update().unwrap();

        ds.accumulate_gradients(&grads);
        ds.flush_gradients().unwrap();
        ds.update().unwrap();
    }

    assert_eq!(mlp.master_params().unwrap(), ds.master_params().unwrap());
}

#[test]
fn training_converges_through_filesystem_tiers() {
    // Same learning problem, but the tiers are actual directories on disk:
    // every fetch and flush is a real file read/write through the async
    // I/O engine.
    let root = std::env::temp_dir().join(format!("mlp-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let nvme = mlp_offload_suite::mlp_storage::DirBackend::new("nvme", root.join("nvme")).unwrap();
    let pfs = mlp_offload_suite::mlp_storage::DirBackend::new("pfs", root.join("pfs")).unwrap();
    let tiers = vec![
        SharedTier::new(Arc::new(nvme) as Arc<dyn Backend>, 2.0),
        SharedTier::new(Arc::new(pfs) as Arc<dyn Backend>, 1.0),
    ];

    let problem = Regression::new(DIM, 48, 3);
    let adam = adam();
    let mut engine = MlpFuncEngine::new(
        EngineConfig::mlp_offload().with_host_frames(4),
        adam,
        &tiers,
        0,
        initial_states(),
    )
    .unwrap();

    let mut first = None;
    let mut last = 0.0;
    for _ in 0..40 {
        let w: Vec<f32> = flatten(&engine.master_params().unwrap());
        last = problem.loss(&w);
        first.get_or_insert(last);
        let grads = split_grads(&problem.grad_fp16(&w));
        engine.accumulate_gradients(&grads);
        engine.update().unwrap();
    }
    assert!(
        last < first.unwrap() * 0.1,
        "loss {} -> {last}",
        first.unwrap()
    );
    std::fs::remove_dir_all(&root).unwrap();
}
