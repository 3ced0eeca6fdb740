//! `checkpoint_baseline` — the asynchronous two-hop checkpoint pipeline's
//! cost on the training critical path, written as the machine-readable
//! baseline tracked in `BENCH_checkpoint.json`.
//!
//! ```text
//! checkpoint_baseline [OUTPUT_PATH] [--check COMMITTED_PATH]
//! ```
//!
//! One Testbed-1 node trains the 40B model over NVMe + PFS + object
//! store and checkpoints every iteration, three ways:
//!
//! * `none` — no checkpointing: the iteration-time floor.
//! * `sync` — the blocking baseline: flush to NVMe and trickle to the
//!   object store complete inside the iteration, on the critical path.
//! * `async` — the pipeline: checkpoint I/O is left in flight and
//!   drains while the next iteration's backward pass runs (§3.3).
//!
//! The headline metric is the *hidden fraction*: how much of the sync
//! variant's checkpoint overhead the asynchronous pipeline removes from
//! the critical path. At 40B the NVMe staging tier is close to saturated
//! by training's own deferred flush I/O during the backward window, so
//! the pipeline can only reclaim the tier's remaining idle time; the
//! acceptance bar is ≥ 0.15 of the blocking overhead (≈ 10 virtual
//! seconds per iteration here), and the per-variant regression gate
//! holds the rest of the story in place.
//!
//! With `--check`, freshly measured numbers are compared against the
//! committed baseline and the run fails if any variant's mean iteration
//! time regressed by more than 10% (virtual time is deterministic, so a
//! real change is the only way to move them).

use mlp_bench::{baseline_args, check_against_committed, round_to, write_baseline};
use mlp_model::zoo;
use mlp_offload::EngineConfig;
use mlp_storage::spec::object_store;
use mlp_train::driver::{run, TrainSetup};
use mlp_trace::json::Value;
use mlp_train::testbed1;

/// Iterations per variant.
const ITERS: usize = 6;
/// Warmup iterations excluded from the mean (first-touch placement).
const WARMUP: usize = 1;

struct VariantResult {
    name: &'static str,
    mean_iter_s: f64,
    ckpt_copied_bytes: u64,
}

fn run_variant(name: &'static str, every: usize, sync: bool) -> VariantResult {
    let tb = testbed1();
    let mut cfg = EngineConfig::mlp_offload();
    cfg.deferred_flush_drain = true;
    // The object store is the checkpoint target only: a negligible
    // allocation weight keeps training state on NVMe + PFS.
    cfg.tier_ratio = Some(vec![
        tb.nvme.model_bandwidth_bps(),
        tb.pfs.model_bandwidth_bps(),
        1e-6,
    ]);
    let tiers = vec![tb.nvme.clone(), tb.pfs.clone(), object_store()];
    let mut setup = TrainSetup::new(tb, zoo::model_40b(), cfg, tiers).with_checkpoint_every(every);
    setup.iterations = ITERS;
    setup.checkpoint_sync = sync;
    let results = run(&setup);
    let mean_iter_s = results[WARMUP..]
        .iter()
        .map(|r| r.breakdown.total_s())
        .sum::<f64>()
        / (ITERS - WARMUP) as f64;
    let ckpt_copied_bytes = results
        .iter()
        .filter_map(|r| r.checkpoint.as_ref())
        .map(|c| c.copied_bytes)
        .sum();
    eprintln!("{name:>6}: {mean_iter_s:7.2} s/iter  checkpoint copies {ckpt_copied_bytes} B");
    VariantResult {
        name,
        mean_iter_s,
        ckpt_copied_bytes,
    }
}

fn main() {
    let (out_path, check_path) = baseline_args("BENCH_checkpoint.json");

    let variants = [
        run_variant("none", 0, false),
        run_variant("sync", 1, true),
        run_variant("async", 1, false),
    ];
    let [none, sync, async_] = &variants;
    assert!(none.ckpt_copied_bytes == 0 && sync.ckpt_copied_bytes > 0);
    assert_eq!(
        sync.ckpt_copied_bytes, async_.ckpt_copied_bytes,
        "both checkpointing variants must move identical bytes"
    );
    let sync_overhead = sync.mean_iter_s - none.mean_iter_s;
    let async_overhead = async_.mean_iter_s - none.mean_iter_s;
    assert!(
        sync_overhead > 0.0,
        "blocking checkpoints must cost critical-path time for the scenario to discriminate"
    );
    let hidden = 1.0 - async_overhead / sync_overhead;
    eprintln!(
        "checkpoint overhead: sync {sync_overhead:.2} s/iter, async {async_overhead:.2} s/iter \
         ({:.0}% hidden behind backward)",
        hidden * 100.0
    );
    assert!(
        hidden >= 0.15,
        "async pipeline hid only {:.0}% of the sync checkpoint overhead",
        hidden * 100.0
    );

    // Keys in the committed file's (alphabetical) order.
    let doc = Value::obj([
        ("benchmark", "checkpoint".into()),
        ("description", "Critical-path cost of per-iteration checkpointing to NVMe + object store — mean iteration seconds without checkpoints, with blocking checkpoints, and with the asynchronous two-hop pipeline, plus the fraction of the blocking overhead the pipeline hides behind backward compute".into()),
        ("hidden_fraction", round_to(hidden, 2).into()),
        ("iterations", ITERS.into()),
        ("results", variants.iter().map(|v| Value::obj([
            ("ckpt_copied_bytes", v.ckpt_copied_bytes.into()),
            ("mean_iter_s", round_to(v.mean_iter_s, 2).into()),
            ("variant", v.name.into()),
        ])).collect()),
        ("warmup", WARMUP.into()),
    ]);
    write_baseline(&out_path, &doc);

    if let Some(committed) = check_path {
        let fresh = variants.each_ref().map(|v| (v.name, v.mean_iter_s));
        check_against_committed(&committed, "mean_iter_s", &fresh);
    }
}
