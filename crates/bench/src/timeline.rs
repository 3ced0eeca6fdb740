//! The `repro --trace` timeline export: runs the 40B configuration for
//! both approaches with tracing enabled, writes one merged Chrome trace
//! (open it at `chrome://tracing` or <https://ui.perfetto.dev>), and
//! summarizes per-tier I/O.
//!
//! The exported timeline is the paper's Fig. 5 argument made visible:
//! MLP-Offload's lazy flushes (deferred drain) overlap the next backward
//! pass, while DeepSpeed ZeRO-3 serializes flush I/O inside the update
//! phase.

use mlp_model::zoo;
use mlp_offload::EngineConfig;
use mlp_storage::spec::object_store;
use mlp_trace::{chrome_trace_json_named, EventKind, IoSummary, Phase, TraceEvent, TraceSink};
use mlp_train::driver::{run, TrainSetup};
use mlp_train::testbed1;

/// One approach's slice of the exported timeline.
pub struct TimelineRun {
    /// Display name (the Chrome-trace process label).
    pub name: &'static str,
    /// Chrome-trace pid stamped on this run's events.
    pub pid: u32,
    /// Every span and instant the run recorded.
    pub events: Vec<TraceEvent>,
    /// Tier labels by tier index (for the I/O summary table).
    pub tier_names: Vec<String>,
    /// Virtual seconds during which state-flush spans overlap the same
    /// worker's backward spans — the Fig. 5 overlap metric.
    pub flush_backward_overlap_s: f64,
    /// Virtual seconds during which checkpoint flush/trickle spans overlap
    /// the same worker's backward spans — the asynchronous checkpoint
    /// pipeline's version of the Fig. 5 overlap (0 when the run does not
    /// checkpoint, or checkpoints synchronously).
    pub ckpt_backward_overlap_s: f64,
}

/// Virtual seconds during which `a`-phase spans overlap `b`-phase spans
/// recorded by the same worker (`tid`).
fn overlap_secs(events: &[TraceEvent], a: Phase, b: Phase) -> f64 {
    let spans = |p: Phase| {
        events
            .iter()
            .filter(move |e| e.phase == p && e.kind == EventKind::Span)
    };
    let mut total_ns = 0u64;
    for ea in spans(a) {
        for eb in spans(b) {
            if ea.tid != eb.tid {
                continue;
            }
            let lo = ea.ts_ns.max(eb.ts_ns);
            let hi = (ea.ts_ns + ea.dur_ns).min(eb.ts_ns + eb.dur_ns);
            total_ns += hi.saturating_sub(lo);
        }
    }
    total_ns as f64 / 1e9
}

/// Runs the 40B Testbed-1 scenario for DeepSpeed ZeRO-3 (pid 0) and
/// MLP-Offload with deferred flush drain (pid 1), two iterations each,
/// and writes the merged Chrome trace to `path`. Returns both runs'
/// events and overlap metrics for rendering.
///
/// The argument is the checkpoint cadence of the
/// MLP-Offload run: `checkpoint_every` iterations between asynchronous
/// two-hop checkpoints (NVMe staging → object store), 0 to disable. The
/// baseline run never checkpoints, so the checkpoint lanes isolate the
/// pipeline's contribution to the timeline.
pub fn export_timeline_trace_every(
    path: &str,
    checkpoint_every: usize,
) -> std::io::Result<Vec<TimelineRun>> {
    let tb = testbed1();
    let mut mlp_cfg = EngineConfig::mlp_offload();
    // Fig. 5: leave the update phase's lazy flushes in flight so they
    // drain while the next iteration's backward pass runs.
    mlp_cfg.deferred_flush_drain = true;
    // The object store joins the tier set as a checkpoint target only: a
    // negligible allocation weight keeps training state off it (30 ms
    // per-op latency would distort the Fig. 5 update path), while the
    // checkpoint pipeline trickles into it by tier kind.
    let mlp_tiers = vec![tb.nvme.clone(), tb.pfs.clone(), object_store()];
    mlp_cfg.tier_ratio = Some(vec![
        tb.nvme.model_bandwidth_bps(),
        tb.pfs.model_bandwidth_bps(),
        1e-6,
    ]);
    let approaches = [
        (
            "DeepSpeed ZeRO-3",
            EngineConfig::deepspeed_zero3(),
            vec![tb.nvme.clone()],
            0,
        ),
        ("MLP-Offload", mlp_cfg, mlp_tiers, checkpoint_every),
    ];

    let mut runs = Vec::new();
    for (pid, (name, cfg, tiers, every)) in approaches.into_iter().enumerate() {
        let sink = TraceSink::enabled();
        let mut setup = TrainSetup::new(
            tb.clone(),
            zoo::model_40b(),
            cfg.with_trace(sink.clone()),
            tiers.clone(),
        )
        .with_checkpoint_every(every);
        setup.iterations = 2;
        run(&setup);
        let mut events = sink.events();
        for e in &mut events {
            e.pid = pid as u32;
        }
        runs.push(TimelineRun {
            name,
            pid: pid as u32,
            flush_backward_overlap_s: overlap_secs(&events, Phase::Flush, Phase::Backward),
            ckpt_backward_overlap_s: overlap_secs(&events, Phase::CkptFlush, Phase::Backward)
                + overlap_secs(&events, Phase::CkptTrickle, Phase::Backward),
            tier_names: tiers.iter().map(|t| t.name.clone()).collect(),
            events,
        });
    }

    let merged: Vec<TraceEvent> = runs.iter().flat_map(|r| r.events.iter().copied()).collect();
    let process_names: Vec<(u32, &str)> = runs.iter().map(|r| (r.pid, r.name)).collect();
    let worker_labels: Vec<(u32, u32, String)> = runs
        .iter()
        .flat_map(|r| (0..tb.gpus_per_node as u32).map(move |g| (r.pid, g, format!("worker {g}"))))
        .collect();
    let thread_names: Vec<(u32, u32, &str)> = worker_labels
        .iter()
        .map(|(p, t, n)| (*p, *t, n.as_str()))
        .collect();
    std::fs::write(
        path,
        chrome_trace_json_named(&merged, &process_names, &thread_names),
    )?;
    Ok(runs)
}

/// Renders each run's per-tier I/O summary and the Fig. 5 overlap metric.
pub fn render_timeline(path: &str, runs: &[TimelineRun]) {
    let total: usize = runs.iter().map(|r| r.events.len()).sum();
    println!("\n== Fig. 5 timeline: wrote {total} events to {path} ==");
    println!("(open in chrome://tracing or https://ui.perfetto.dev)");
    for r in runs {
        let names: Vec<&str> = r.tier_names.iter().map(String::as_str).collect();
        println!(
            "\n{} — flush/backward overlap: {:.1} s {}",
            r.name,
            r.flush_backward_overlap_s,
            if r.flush_backward_overlap_s > 0.0 {
                "(flushes hidden behind backward compute)"
            } else {
                "(flush I/O serializes inside the update phase)"
            }
        );
        if r.ckpt_backward_overlap_s > 0.0 {
            println!(
                "{} — checkpoint/backward overlap: {:.1} s (async flush+trickle off the critical path)",
                r.name, r.ckpt_backward_overlap_s
            );
        }
        print!("{}", IoSummary::from_events(&r.events).render(&names));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exported trace must round-trip through the Chrome parser and
    /// show the paper's asymmetry: MLP-Offload overlaps flushes with the
    /// backward pass, ZeRO-3 does not.
    #[test]
    fn export_shows_fig5_overlap_asymmetry() {
        let dir = std::env::temp_dir().join(format!("mlp_timeline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let runs = export_timeline_trace_every(path.to_str().unwrap(), 1).unwrap();
        assert_eq!(runs.len(), 2);
        let (zero3, mlp) = (&runs[0], &runs[1]);
        assert_eq!(
            zero3.flush_backward_overlap_s, 0.0,
            "baseline flushes must serialize"
        );
        assert!(
            mlp.flush_backward_overlap_s > 0.0,
            "deferred flushes must overlap backward"
        );
        // The asynchronous checkpoint pipeline joins the Fig. 5 argument:
        // its flush/trickle spans hide behind the next backward pass on
        // the MLP run, and never appear on the non-checkpointing baseline.
        assert!(
            mlp.ckpt_backward_overlap_s > 0.0,
            "async checkpoint flushes must overlap backward"
        );
        assert_eq!(zero3.ckpt_backward_overlap_s, 0.0);
        assert!(
            mlp.events.iter().any(|e| e.phase == Phase::CkptTrickle),
            "object-store trickle must reach the timeline"
        );
        // Both runs put spans on the timeline and bytes on the tiers.
        for r in &runs {
            assert!(!r.events.is_empty());
            assert!(IoSummary::from_events(&r.events).total_bytes() > 0);
        }

        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = mlp_trace::parse_chrome_trace(&text).expect("valid Chrome trace");
        // Span events survive the round trip (instants too; metadata
        // records are not TraceEvents).
        let merged: usize = runs.iter().map(|r| r.events.len()).sum();
        assert_eq!(parsed.len(), merged);
        assert!(parsed.iter().any(|e| e.pid == 1 && e.phase == Phase::Flush));
        std::fs::remove_dir_all(&dir).ok();
    }
}
