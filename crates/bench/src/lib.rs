#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The reproduction harness: which experiments `repro` runs
//! ([`run_experiments`]), how their rows print as the paper's tables and
//! figure captions report them, how they become the one results document
//! committed as `BENCH_paper.json` ([`document`]), and the traced Fig. 5
//! timeline export ([`timeline`]).

pub mod timeline;

use mlp_trace::json::Value;
use mlp_train::experiments::{
    self as exp, AblationRow, CacheSweepRow, CheckpointPipelineRow, CheckpointRow, CostRow, CxlRow,
    DegradationRow, Fig13Row, Fig3Row, Fig4Row, Fig5Point, MotivationRow, ReplanRow, ScalingRow,
    SubgroupSizeRow, WeakScalingRow,
};

/// `x` rounded to `decimals` places, as the committed files store their
/// numbers.
pub fn round_to(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

/// Decimal places every float of the results document is written at: an
/// exact diff must not hinge on the last bit of a libm call.
const DOCUMENT_DECIMALS: i32 = 6;

/// `v` with every float rounded to [`DOCUMENT_DECIMALS`] places.
fn at_document_precision(v: Value) -> Value {
    match v {
        // `+ 0.0`: what rounds to zero from below prints `0.0`, not `-0.0`.
        Value::Num(n) => Value::Num(round_to(n, DOCUMENT_DECIMALS) + 0.0),
        Value::Arr(items) => items.into_iter().map(at_document_precision).collect(),
        Value::Obj(fields) => Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k, at_document_precision(v)))
                .collect(),
        ),
        other => other,
    }
}

/// The results document over `sections`: what `repro --json` prints and,
/// for `repro all`, what `BENCH_paper.json` holds byte for byte.
pub fn document(sections: Vec<Value>) -> Value {
    Value::obj([("sections", Value::Arr(sections))])
}

/// The subcommand that prints a table, and the printer, over rows of `R`.
type Table<R> = (&'static str, fn(&[R]));

/// The experiments one `repro` subcommand selects, run in document order.
struct Selection<'a> {
    cmd: &'a str,
    print_tables: bool,
    sections: Vec<Value>,
}

impl Selection<'_> {
    /// Runs `rows` when the subcommand is `all`, the section `id` or one of
    /// the `tables` names; records the section and, when tables are asked
    /// for, prints those the subcommand names.
    fn experiment<R>(&mut self, id: &str, title: &str, rows: fn() -> Vec<R>, tables: &[Table<R>])
    where
        for<'r> Value: From<&'r R>,
    {
        let whole = self.cmd == "all" || self.cmd == id;
        if !(whole || tables.iter().any(|(name, _)| *name == self.cmd)) {
            return;
        }
        let rows = rows();
        if self.print_tables {
            for (name, render) in tables {
                if whole || *name == self.cmd {
                    render(&rows);
                }
            }
        }
        self.sections.push(Value::obj([
            ("id", id.into()),
            ("title", title.into()),
            (
                "rows",
                at_document_precision(rows.iter().map(Value::from).collect()),
            ),
        ]));
    }
}

/// Runs the experiments `cmd` selects — `all`, a section id, or a figure
/// drawn from a section (`fig7` … `fig10`, `fig11`, `fig12`, `sensitivity`)
/// — and returns their `{id, title, rows}` sections, none when `cmd` names
/// no experiment. With `print_tables` each one's tables go to stdout as it
/// finishes.
pub fn run_experiments(cmd: &str, print_tables: bool) -> Vec<Value> {
    let mut s = Selection {
        cmd,
        print_tables,
        sections: Vec::new(),
    };
    s.experiment(
        "motivation",
        "§3.1 motivation: 20B iteration time by offload target",
        exp::motivation,
        &[("motivation", render_motivation)],
    );
    s.experiment(
        "fig3",
        "Fig. 3: update duration, host vs SSD offload",
        exp::fig3_update_breakdown,
        &[("fig3", render_fig3)],
    );
    s.experiment(
        "fig4",
        "Fig. 4: tier throughput under concurrency",
        exp::fig4_concurrency,
        &[("fig4", render_fig4)],
    );
    s.experiment(
        "fig5",
        "Fig. 5: I/O throughput timeline, 40B baseline update on NVMe",
        exp::fig5_throughput_timeline,
        &[("fig5", render_fig5)],
    );
    s.experiment(
        "model_scaling",
        "Figs. 7-10: single-node model-size scaling, Testbed-1",
        exp::model_scaling,
        &[
            ("fig7", render_fig7),
            ("fig8", render_fig8),
            ("fig9", render_fig9),
            ("fig10", render_fig10),
        ],
    );
    s.experiment(
        "weak_scaling",
        "Figs. 11-12: weak scaling, Testbed-2",
        exp::weak_scaling,
        &[("fig11", render_fig11), ("fig12", render_fig12)],
    );
    s.experiment(
        "fig13",
        "Fig. 13: gradient accumulation, 40B",
        exp::fig13_grad_accumulation,
        &[("fig13", render_fig13)],
    );
    s.experiment(
        "fig14",
        "Fig. 14: ablation on node-local NVMe only",
        exp::fig14_ablation_nvme,
        &[("fig14", |rows| {
            render_ablation(
                "Fig. 14: ablation on node-local NVMe only (paper: up to 1.6x)",
                rows,
            )
        })],
    );
    s.experiment(
        "fig15",
        "Fig. 15: ablation with PFS multi-path",
        exp::fig15_ablation_pfs,
        &[("fig15", |rows| {
            render_ablation(
                "Fig. 15: ablation with PFS multi-path (paper: 2.5x over DeepSpeed ZeRO-3)",
                rows,
            )
        })],
    );
    s.experiment(
        "sensitivity_subgroup",
        "§4.1 sensitivity: subgroup size, 40B",
        exp::subgroup_size_sweep,
        &[("sensitivity", render_subgroup_sweep)],
    );
    s.experiment(
        "sensitivity_cache",
        "sensitivity: host-cache budget, 40B MLP-Offload",
        exp::cache_sweep,
        &[("sensitivity", render_cache_sweep)],
    );
    s.experiment(
        "checkpoint",
        "§3.3 checkpoint pre-staging",
        exp::checkpoint_prestaging,
        &[("checkpoint", render_checkpoint)],
    );
    s.experiment(
        "cost",
        "§4.4 cost-effectiveness: 70B on 80 GPUs vs 8 GPUs + offload",
        exp::cost_effectiveness,
        &[("cost", render_cost)],
    );
    s.experiment(
        "cxl",
        "§5 future work: CXL memory pool as an additional I/O path",
        exp::future_cxl,
        &[("cxl", render_cxl)],
    );
    s.experiment(
        "adaptive_replan",
        "§3.3 adaptive re-plan: the PFS collapses mid-run",
        exp::adaptive_replan,
        &[("adaptive_replan", render_adaptive_replan)],
    );
    s.experiment(
        "degradation",
        "graceful degradation: the PFS is quarantined mid-run",
        exp::degradation,
        &[("degradation", render_degradation)],
    );
    s.experiment(
        "checkpoint_pipeline",
        "§3.3 checkpoint pipeline: critical-path cost of per-iteration checkpoints, 40B",
        exp::checkpoint_pipeline,
        &[("checkpoint_pipeline", render_checkpoint_pipeline)],
    );
    s.sections
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

/// Renders the adaptive re-plan scenario.
pub fn render_adaptive_replan(rows: &[ReplanRow]) {
    print_table(
        &format!(
            "3.3 adaptive re-plan: PFS at {:.0}% from update {} of {}, tail = last {}",
            exp::REPLAN_PFS_LOAD_FACTOR * 100.0,
            exp::SCENARIO_EVENT_AT,
            exp::SCENARIO_ITERS,
            exp::SCENARIO_TAIL
        ),
        &[
            "planner",
            "pre (s)",
            "tail (s)",
            "migrations",
            "recovery of oracle win",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    s2(r.pre_mean_s),
                    s2(r.tail_mean_s),
                    r.migrations.to_string(),
                    pct(r.recovery_of_oracle_win),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the permanent-tier-loss scenario.
pub fn render_degradation(rows: &[DegradationRow]) {
    print_table(
        &format!(
            "graceful degradation: PFS quarantined before update {} of {}, tail = last {}",
            exp::SCENARIO_EVENT_AT,
            exp::SCENARIO_ITERS,
            exp::SCENARIO_TAIL
        ),
        &[
            "variant",
            "pre (s)",
            "tail (s)",
            "drained",
            "tail vs single tier",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    s2(r.pre_mean_s),
                    s2(r.tail_mean_s),
                    r.drained.to_string(),
                    format!("{:+.1}%", r.tail_overhead_vs_single_tier * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
}

/// Renders the checkpoint-pipeline scenario.
pub fn render_checkpoint_pipeline(rows: &[CheckpointPipelineRow]) {
    print_table(
        "3.3 checkpoint pipeline: 40B, NVMe + PFS + object store, a checkpoint every iteration",
        &[
            "checkpoints",
            "iteration (s)",
            "copied (GB)",
            "overhead hidden",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.variant.clone(),
                    s2(r.mean_iter_s),
                    s1(r.ckpt_copied_bytes as f64 / 1e9),
                    pct(r.hidden_fraction),
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
    fn the_results_document_repeats_parses_and_is_the_committed_file() {
        let build = || document(run_experiments("all", false)).pretty() + "\n";
        let text = build();
        assert!(text == build(), "two builds of the document differ");

        let doc = mlp_trace::json::parse(&text).expect("one JSON value");
        let sections = doc.get("sections").and_then(Value::as_array);
        let ids: Vec<&str> = sections
            .expect("a sections array")
            .iter()
            .map(|s| s.get("id").and_then(Value::as_str).expect("section id"))
            .collect();
        assert!(ids.iter().all(|id| !id.is_empty()), "{ids:?}");
        let unique: std::collections::BTreeSet<&str> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "duplicate section id in {ids:?}");

        let committed = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../BENCH_paper.json"
        ))
        .expect("read BENCH_paper.json");
        let moved = text
            .lines()
            .zip(committed.lines())
            .position(|(fresh, old)| fresh != old);
        assert!(
            text == committed,
            "BENCH_paper.json differs from `repro all --json` from line {:?} \
             (fresh `{}`); if the move is meant, regenerate the file",
            moved.map(|l| l + 1),
            moved
                .and_then(|l| text.lines().nth(l))
                .unwrap_or("<length only>")
        );
    }

    #[test]
    fn a_figure_name_selects_its_section_and_an_unknown_name_selects_nothing() {
        let ids = |cmd| -> Vec<String> {
            run_experiments(cmd, false)
                .iter()
                .map(|s| s.get("id").and_then(Value::as_str).expect("id").to_string())
                .collect()
        };
        assert_eq!(ids("fig12"), ["weak_scaling"]);
        assert_eq!(ids("weak_scaling"), ["weak_scaling"]);
        assert_eq!(
            ids("sensitivity"),
            ["sensitivity_subgroup", "sensitivity_cache"]
        );
        assert!(ids("fig6").is_empty());
    }

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
