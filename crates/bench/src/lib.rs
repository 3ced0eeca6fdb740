#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Shared formatting for the reproduction harness: renders each
//! experiment's rows the way the paper's tables and figure captions report
//! them, plus the traced Fig. 5 timeline export ([`timeline`]) and what
//! the `*_baseline` binaries share (argument parsing, the `BENCH_*.json`
//! writer, the `--check` comparison).

pub mod timeline;

use mlp_trace::json::{self, Value};
use mlp_train::experiments::{
    AblationRow, CacheSweepRow, CheckpointRow, CostRow, CxlRow, Fig13Row, Fig3Row, Fig4Row,
    Fig5Point, MotivationRow, ScalingRow, SubgroupSizeRow, WeakScalingRow,
};

/// `x` rounded to `decimals` places, as the baselines store their numbers.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Parses a baseline binary's `[OUTPUT_PATH] [--check COMMITTED_PATH]`.
pub fn baseline_args(default_out: &str) -> (String, Option<String>) {
    let mut out_path = default_out.to_string();
    let mut check_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--check" {
            check_path = Some(args.next().expect("--check needs a baseline path"));
        } else {
            out_path = arg;
        }
    }
    (out_path, check_path)
}

/// Writes `doc` in the committed `BENCH_*.json` layout (pretty-printed,
/// trailing newline), so a regenerated file diffs in values only.
pub fn write_baseline(path: &str, doc: &Value) {
    std::fs::write(path, doc.pretty() + "\n").expect("write baseline");
    println!("wrote {path}");
}

/// `--check`: holds each variant's fresh `metric` seconds against
/// `results[variant].metric` of the committed baseline. More than 10%
/// slower on any variant prints the regressions and exits 1; faster is
/// progress, reported but not fatal (regenerate the committed file then).
pub fn check_against_committed(committed: &str, metric: &str, fresh: &[(&str, f64)]) {
    let body = std::fs::read_to_string(committed).expect("read committed baseline");
    let old = json::parse(&body).expect("parse committed baseline");
    let results = old.get("results").and_then(Value::as_array).expect("results array");
    let mut failures = Vec::new();
    for &(variant, new) in fresh {
        let old = results
            .iter()
            .find(|r| r.get("variant").and_then(Value::as_str) == Some(variant))
            .and_then(|r| r.get(metric)?.as_f64())
            .unwrap_or_else(|| panic!("committed {metric} of {variant}"));
        let change = (new / old - 1.0) * 100.0;
        eprintln!("check {variant:>12}: {metric} {new:.2}s vs committed {old:.2}s ({change:+.1}%)");
        if change > 10.0 {
            failures.push(format!(
                "{variant}: {metric} regressed {change:.1}% (got {new:.2}s, committed {old:.2}s)"
            ));
        }
    }
    if !failures.is_empty() {
        eprintln!("BASELINE REGRESSION:");
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
    println!("baseline check passed ({committed})");
}

/// Prints an ASCII table with a title.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    println!("\n== {title} ==");
    println!("{line}");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect::<Vec<_>>()
            .join("|")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!("{line}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
    println!("{line}");
}

fn s1(x: f64) -> String {
    format!("{x:.1}")
}
fn s2(x: f64) -> String {
    format!("{x:.2}")
}
fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// Renders the §3.1 motivation rows.
pub fn render_motivation(rows: &[MotivationRow]) {
    print_table(
        "3.1 motivation: 20B iteration time by offload target (paper: 0.4s / 3.7s / 67s)",
        &["configuration", "iteration (s)", "slowdown vs GPU"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.configuration.clone(),
                    s2(r.iteration_s),
                    s1(r.slowdown_vs_gpu),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 3.
pub fn render_fig3(rows: &[Fig3Row]) {
    print_table(
        "Fig. 3: update duration, host vs SSD offload (paper: SSD ~30x slower, 99% I/O)",
        &["model", "offload", "update (s)", "I/O share"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.offload_target.clone(),
                    s1(r.update_s),
                    pct(r.io_fraction),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 4.
pub fn render_fig4(rows: &[Fig4Row]) {
    print_table(
        "Fig. 4: tier throughput under concurrency (aggregate flat, latency grows)",
        &[
            "tier",
            "procs",
            "agg read (GB/s)",
            "agg write (GB/s)",
            "mean op latency (s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.tier.clone(),
                    r.procs.to_string(),
                    s2(r.agg_read_gbps),
                    s2(r.agg_write_gbps),
                    s2(r.mean_latency_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the Fig. 5 timeline (coarse, at most ~24 rows).
pub fn render_fig5(points: &[Fig5Point]) {
    let step = (points.len() / 24).max(1);
    print_table(
        "Fig. 5: I/O throughput timeline, 40B baseline update on NVMe (oscillating, write-bound)",
        &["t (s)", "read (GB/s)", "write (GB/s)"],
        &points
            .iter()
            .step_by(step)
            .map(|p| vec![s1(p.t_s), s2(p.read_gbps), s2(p.write_gbps)])
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 7 (iteration breakdown) from the scaling rows.
pub fn render_fig7(rows: &[ScalingRow]) {
    print_table(
        "Fig. 7: iteration breakdown vs model size (paper: MLP-Offload up to 2.7x faster)",
        &[
            "model",
            "approach",
            "fwd (s)",
            "bwd (s)",
            "update (s)",
            "total (s)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.approach.clone(),
                    s2(r.forward_s),
                    s1(r.backward_s),
                    s1(r.update_s),
                    s1(r.total_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 8 (update throughput) from the scaling rows.
pub fn render_fig8(rows: &[ScalingRow]) {
    print_table(
        "Fig. 8: update throughput (paper refs: 40000 M/s GPU, 8000 M/s CPU; MLP 1.8-2.4x DS)",
        &["model", "approach", "update throughput (Mparam/s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.approach.clone(),
                    s1(r.update_mparams_per_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 9 (effective I/O throughput) from the scaling rows.
pub fn render_fig9(rows: &[ScalingRow]) {
    print_table(
        "Fig. 9: effective I/O throughput (paper: DS ~3.2 GB/s, MLP ~2.6x, decaying with size)",
        &[
            "model",
            "approach",
            "effective I/O (GB/s)",
            "cache hit rate",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.approach.clone(),
                    s2(r.effective_io_gbps),
                    pct(r.cache_hit_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 10 (state distribution) from the scaling rows.
pub fn render_fig10(rows: &[ScalingRow]) {
    print_table(
        "Fig. 10: optimizer-state distribution (paper: ~2:1 NVMe:PFS for MLP-Offload)",
        &["model", "approach", "host", "nvme", "pfs"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.approach.clone(),
                    pct(r.host_fraction),
                    pct(r.nvme_fraction),
                    pct(r.pfs_fraction),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 11 (weak-scaling iteration time).
pub fn render_fig11(rows: &[WeakScalingRow]) {
    print_table(
        "Fig. 11: weak scaling, iteration time (paper: MLP up to 2x faster at scale)",
        &["nodes", "GPUs", "model", "approach", "iteration (s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.gpus.to_string(),
                    r.model.clone(),
                    r.approach.clone(),
                    s1(r.iteration_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 12 (weak-scaling update throughput).
pub fn render_fig12(rows: &[WeakScalingRow]) {
    print_table(
        "Fig. 12: weak scaling, aggregate update throughput",
        &["nodes", "model", "approach", "update throughput (Mparam/s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.nodes.to_string(),
                    r.model.clone(),
                    r.approach.clone(),
                    s1(r.update_mparams_per_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Fig. 13 (gradient accumulation).
pub fn render_fig13(rows: &[Fig13Row]) {
    print_table(
        "Fig. 13: gradient accumulation, 40B (paper: MLP >= 40% faster throughout)",
        &["accum steps", "equiv batch", "approach", "iteration (s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.accumulation_steps.to_string(),
                    r.equivalent_batch.to_string(),
                    r.approach.clone(),
                    s1(r.iteration_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders an ablation ladder (Figs. 14/15).
pub fn render_ablation(title: &str, rows: &[AblationRow]) {
    print_table(
        title,
        &["model", "stage", "iteration (s)", "speedup vs baseline"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.stage.clone(),
                    s1(r.iteration_s),
                    s2(r.speedup_vs_baseline),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the §3.3 checkpoint pre-staging rows.
pub fn render_checkpoint(rows: &[CheckpointRow]) {
    print_table(
        "3.3 checkpoint pre-staging: persistent fraction and remaining flush time",
        &[
            "model",
            "approach",
            "pre-staged",
            "remaining flush (s, at PFS speed)",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.model.clone(),
                    r.approach.clone(),
                    pct(r.prestaged_fraction),
                    s1(r.checkpoint_flush_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the §4.4 cost-effectiveness rows.
pub fn render_cost(rows: &[CostRow]) {
    print_table(
        "4.4 cost-effectiveness: 70B on 80 GPUs vs 8 GPUs + offload (paper: ~2x better)",
        &[
            "configuration",
            "GPUs",
            "iteration (s)",
            "slowdown",
            "cost-effectiveness",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.configuration.clone(),
                    r.gpus.to_string(),
                    s1(r.iteration_s),
                    s1(r.slowdown_vs_gpu_only),
                    s2(r.cost_effectiveness),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the §5 CXL-extension rows.
pub fn render_cxl(rows: &[CxlRow]) {
    print_table(
        "5 (future work): CXL memory pool as an additional I/O path (70B, Testbed-1)",
        &["tier set", "iteration (s)", "speedup vs MLP-Offload"],
        &rows
            .iter()
            .map(|r| vec![r.tiers.clone(), s1(r.iteration_s), s2(r.speedup_vs_mlp)])
            .collect::<Vec<_>>(),
    );
}

/// Renders the subgroup-size sensitivity rows.
pub fn render_subgroup_sweep(rows: &[SubgroupSizeRow]) {
    print_table(
        "4.1 sensitivity: subgroup size (paper picks 100M over DeepSpeed's 1B default)",
        &["subgroup (Mparam)", "approach", "iteration (s)"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.subgroup_mparams.to_string(),
                    r.approach.clone(),
                    s1(r.iteration_s),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the host-cache sensitivity rows.
pub fn render_cache_sweep(rows: &[CacheSweepRow]) {
    print_table(
        "sensitivity: host-cache budget (40B, MLP-Offload)",
        &["cache fraction", "iteration (s)", "hit rate"],
        &rows
            .iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.cache_fraction),
                    s1(r.iteration_s),
                    pct(r.cache_hit_rate),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders Tables 1 and 2 from the encoded constants.
pub fn render_tables() {
    let t1 = mlp_train::testbed1();
    let t2 = mlp_train::testbed2();
    print_table(
        "Table 1: testbed configurations",
        &["feature", &t1.name, &t2.name],
        &[
            vec!["GPUs".into(), "4x H100-80GB".into(), "4x A100-40GB".into()],
            vec![
                "Pinned D<->H (GB/s)".into(),
                format!("{:.0}", t1.d2h_bps / 1e9),
                format!("{:.0}", t2.d2h_bps / 1e9),
            ],
            vec![
                "CPU cores".into(),
                t1.cpu_cores.to_string(),
                t2.cpu_cores.to_string(),
            ],
            vec!["Host memory (GB)".into(), "512".into(), "512".into()],
            vec![
                "NVMe R|W (GB/s)".into(),
                format!(
                    "{:.1} | {:.1}",
                    t1.nvme.read_bps / 1e9,
                    t1.nvme.write_bps / 1e9
                ),
                format!(
                    "{:.1} | {:.1}",
                    t2.nvme.read_bps / 1e9,
                    t2.nvme.write_bps / 1e9
                ),
            ],
            vec!["PFS".into(), "VAST".into(), "Lustre".into()],
            vec![
                "PFS R|W (GB/s)".into(),
                format!(
                    "{:.1} | {:.1}",
                    t1.pfs.read_bps / 1e9,
                    t1.pfs.write_bps / 1e9
                ),
                format!(
                    "{:.1} | {:.1}",
                    t2.pfs.read_bps / 1e9,
                    t2.pfs.write_bps / 1e9
                ),
            ],
        ],
    );

    let rows: Vec<Vec<String>> = std::iter::once(mlp_model::zoo::model_20b())
        .chain(mlp_model::zoo::table2())
        .map(|m| {
            vec![
                m.name.clone(),
                m.num_layers.to_string(),
                m.hidden_dim.to_string(),
                m.attention_heads.to_string(),
                format!("{:.1}", m.param_count() as f64 / 1e9),
            ]
        })
        .collect();
    print_table(
        "Table 2: model configurations (computed sizes from 12*L*D^2 + embeddings)",
        &["model", "N_L", "D_H", "AH", "params (B)"],
        &rows,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_printer_handles_empty_and_ragged_titles() {
        print_table("empty", &["a", "b"], &[]);
        print_table(
            "one",
            &["col"],
            &[vec!["a-very-long-cell-value".to_string()]],
        );
    }
}
