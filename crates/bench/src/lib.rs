#![warn(missing_docs)]
#![deny(unsafe_code)]

//! The reproduction harness: which experiments `repro` runs
//! ([`run_experiments`]) and which subcommands select them
//! ([`subcommands`]), how their rows print as the paper's tables and figure
//! captions report them, how they become the one results document
//! committed as `BENCH_paper.json` ([`document`]), and the traced Fig. 5
//! timeline export ([`timeline`]).
//!
//! A printed table is data: a title and a list of columns over its
//! section's rows, each a header, a row field as `json_rows!` in
//! `mlp_train::experiments` names it, and a format. One printer serves every
//! table, and a row becomes a `Value` once, for its tables and the document.

pub mod timeline;

use mlp_storage::TierSpec;
use mlp_trace::json::Value;
use mlp_train::{experiments as exp, Testbed};

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

/// How a column prints its row field.
#[derive(Clone, Copy, Debug)]
enum Format {
    /// Text or an integer, as stored.
    Plain,
    /// One decimal.
    Dec1,
    /// Two decimals.
    Dec2,
    /// A fraction as a whole percent.
    Percent,
    /// A fraction as a signed percent with one decimal.
    SignedPercent,
    /// Billions (÷ 1e9) with one decimal.
    Billions,
}

impl Format {
    /// The cell for field value `v`: empty for missing text, `NaN` for a missing number.
    fn cell(self, v: Option<&Value>) -> String {
        let x = v.and_then(Value::as_f64).unwrap_or(f64::NAN);
        match self {
            Format::Plain => match v {
                Some(Value::Str(s)) => s.clone(),
                Some(Value::Int(i)) => i.to_string(),
                _ => String::new(),
            },
            Format::Dec1 => format!("{x:.1}"),
            Format::Dec2 => format!("{x:.2}"),
            Format::Percent => format!("{:.0}%", x * 100.0),
            Format::SignedPercent => format!("{:+.1}%", x * 100.0),
            Format::Billions => format!("{:.1}", x / 1e9),
        }
    }
}

/// A column: its header, the row field it shows, and how.
type Column = (&'static str, &'static str, Format);

/// A table printed from an experiment's rows.
struct Table {
    /// The subcommand that prints this table alone.
    name: &'static str,
    title: String,
    columns: &'static [Column],
    /// Print about this many rows, evenly spaced; `None` prints them all.
    sample: Option<usize>,
}

/// A table over every row.
fn table(name: &'static str, title: impl Into<String>, columns: &'static [Column]) -> Table {
    Table {
        name,
        title: title.into(),
        columns,
        sample: None,
    }
}

impl Table {
    /// The table's text over `rows`.
    fn render(&self, rows: &[Value]) -> String {
        let step = self.sample.map_or(1, |n| (rows.len() / n).max(1));
        let cells = |row: &Value| -> Vec<String> {
            let cell = |&(_, field, format): &Column| format.cell(row.get(field));
            self.columns.iter().map(cell).collect()
        };
        let cells: Vec<_> = rows.iter().step_by(step).map(cells).collect();
        let headers: Vec<&str> = self.columns.iter().map(|c| c.0).collect();
        print_table(&self.title, &headers, &cells)
    }
}

/// One section of the results document and the tables printed from it.
struct Experiment {
    id: &'static str,
    title: &'static str,
    rows: Box<dyn Fn() -> Vec<Value>>,
    tables: Vec<Table>,
}

impl Experiment {
    /// The tables `cmd` prints: every one for `all` or the id, else those it names.
    fn tables_for(&self, cmd: &str) -> Vec<&Table> {
        let whole = cmd == "all" || cmd == self.id;
        self.tables
            .iter()
            .filter(|t| whole || t.name == cmd)
            .collect()
    }
}

/// Section `id`, whose rows `rows` makes.
fn experiment<R: 'static>(
    id: &'static str,
    title: &'static str,
    rows: fn() -> Vec<R>,
    tables: Vec<Table>,
) -> Experiment
where
    for<'r> Value: From<&'r R>,
{
    Experiment {
        id,
        title,
        rows: Box::new(move || rows().iter().map(Value::from).collect()),
        tables,
    }
}

/// The columns of the Fig. 14 and Fig. 15 ablation ladders.
const ABLATION: &[Column] = &[
    ("model", "model", Format::Plain),
    ("stage", "stage", Format::Plain),
    ("iteration (s)", "iteration_s", Format::Dec1),
    ("speedup vs baseline", "speedup_vs_baseline", Format::Dec2),
];

/// Every experiment, in document order.
fn experiments() -> Vec<Experiment> {
    use Format::*;
    vec![
        experiment(
            "motivation",
            "§3.1 motivation: 20B iteration time by offload target",
            exp::motivation,
            vec![table(
                "motivation",
                "3.1 motivation: 20B iteration time by offload target (paper: 0.4s / 3.7s / 67s)",
                &[
                    ("configuration", "configuration", Plain),
                    ("iteration (s)", "iteration_s", Dec2),
                    ("slowdown vs GPU", "slowdown_vs_gpu", Dec1),
                ],
            )],
        ),
        experiment(
            "fig3",
            "Fig. 3: update duration, host vs SSD offload",
            exp::fig3_update_breakdown,
            vec![table(
                "fig3",
                "Fig. 3: update duration, host vs SSD offload (paper: SSD ~30x slower, 99% I/O)",
                &[
                    ("model", "model", Plain),
                    ("offload", "offload_target", Plain),
                    ("update (s)", "update_s", Dec1),
                    ("I/O share", "io_fraction", Percent),
                ],
            )],
        ),
        experiment(
            "fig4",
            "Fig. 4: tier throughput under concurrency",
            exp::fig4_concurrency,
            vec![table(
                "fig4",
                "Fig. 4: tier throughput under concurrency (aggregate flat, latency grows)",
                &[
                    ("tier", "tier", Plain),
                    ("procs", "procs", Plain),
                    ("agg read (GB/s)", "agg_read_gbps", Dec2),
                    ("agg write (GB/s)", "agg_write_gbps", Dec2),
                    ("mean op latency (s)", "mean_latency_s", Dec2),
                ],
            )],
        ),
        experiment(
            "fig5",
            "Fig. 5: I/O throughput timeline, 40B baseline update on NVMe",
            exp::fig5_throughput_timeline,
            vec![Table {
                sample: Some(24),
                ..table(
                    "fig5",
                    "Fig. 5: I/O throughput timeline, 40B baseline update on NVMe (oscillating, write-bound)",
                    &[
                        ("t (s)", "t_s", Dec1),
                        ("read (GB/s)", "read_gbps", Dec2),
                        ("write (GB/s)", "write_gbps", Dec2),
                    ],
                )
            }],
        ),
        experiment(
            "model_scaling",
            "Figs. 7-10: single-node model-size scaling, Testbed-1",
            exp::model_scaling,
            vec![
                table(
                    "fig7",
                    "Fig. 7: iteration breakdown vs model size (paper: MLP-Offload up to 2.7x faster)",
                    &[
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("fwd (s)", "forward_s", Dec2),
                        ("bwd (s)", "backward_s", Dec1),
                        ("update (s)", "update_s", Dec1),
                        ("total (s)", "total_s", Dec1),
                    ],
                ),
                table(
                    "fig8",
                    "Fig. 8: update throughput (paper refs: 40000 M/s GPU, 8000 M/s CPU; MLP 1.8-2.4x DS)",
                    &[
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("update throughput (Mparam/s)", "update_mparams_per_s", Dec1),
                    ],
                ),
                table(
                    "fig9",
                    "Fig. 9: effective I/O throughput (paper: DS ~3.2 GB/s, MLP ~2.6x, decaying with size)",
                    &[
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("effective I/O (GB/s)", "effective_io_gbps", Dec2),
                        ("cache hit rate", "cache_hit_rate", Percent),
                    ],
                ),
                table(
                    "fig10",
                    "Fig. 10: optimizer-state distribution (paper: ~2:1 NVMe:PFS for MLP-Offload)",
                    &[
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("host", "host_fraction", Percent),
                        ("nvme", "nvme_fraction", Percent),
                        ("pfs", "pfs_fraction", Percent),
                    ],
                ),
            ],
        ),
        experiment(
            "weak_scaling",
            "Figs. 11-12: weak scaling, Testbed-2",
            exp::weak_scaling,
            vec![
                table(
                    "fig11",
                    "Fig. 11: weak scaling, iteration time (paper: MLP up to 2x faster at scale)",
                    &[
                        ("nodes", "nodes", Plain),
                        ("GPUs", "gpus", Plain),
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("iteration (s)", "iteration_s", Dec1),
                    ],
                ),
                table(
                    "fig12",
                    "Fig. 12: weak scaling, aggregate update throughput",
                    &[
                        ("nodes", "nodes", Plain),
                        ("model", "model", Plain),
                        ("approach", "approach", Plain),
                        ("update throughput (Mparam/s)", "update_mparams_per_s", Dec1),
                    ],
                ),
            ],
        ),
        experiment(
            "fig13",
            "Fig. 13: gradient accumulation, 40B",
            exp::fig13_grad_accumulation,
            vec![table(
                "fig13",
                "Fig. 13: gradient accumulation, 40B (paper: MLP >= 40% faster throughout)",
                &[
                    ("accum steps", "accumulation_steps", Plain),
                    ("equiv batch", "equivalent_batch", Plain),
                    ("approach", "approach", Plain),
                    ("iteration (s)", "iteration_s", Dec1),
                ],
            )],
        ),
        experiment(
            "fig14",
            "Fig. 14: ablation on node-local NVMe only",
            exp::fig14_ablation_nvme,
            vec![table(
                "fig14",
                "Fig. 14: ablation on node-local NVMe only (paper: up to 1.6x)",
                ABLATION,
            )],
        ),
        experiment(
            "fig15",
            "Fig. 15: ablation with PFS multi-path",
            exp::fig15_ablation_pfs,
            vec![table(
                "fig15",
                "Fig. 15: ablation with PFS multi-path (paper: 2.5x over DeepSpeed ZeRO-3)",
                ABLATION,
            )],
        ),
        experiment(
            "sensitivity_subgroup",
            "§4.1 sensitivity: subgroup size, 40B",
            exp::subgroup_size_sweep,
            vec![table(
                "sensitivity",
                "4.1 sensitivity: subgroup size (paper picks 100M over DeepSpeed's 1B default)",
                &[
                    ("subgroup (Mparam)", "subgroup_mparams", Plain),
                    ("approach", "approach", Plain),
                    ("iteration (s)", "iteration_s", Dec1),
                ],
            )],
        ),
        experiment(
            "sensitivity_cache",
            "sensitivity: host-cache budget, 40B MLP-Offload",
            exp::cache_sweep,
            vec![table(
                "sensitivity",
                "sensitivity: host-cache budget (40B, MLP-Offload)",
                &[
                    ("cache fraction", "cache_fraction", Dec2),
                    ("iteration (s)", "iteration_s", Dec1),
                    ("hit rate", "cache_hit_rate", Percent),
                ],
            )],
        ),
        experiment(
            "checkpoint",
            "§3.3 checkpoint pre-staging",
            exp::checkpoint_prestaging,
            vec![table(
                "checkpoint",
                "3.3 checkpoint pre-staging: persistent fraction and remaining flush time",
                &[
                    ("model", "model", Plain),
                    ("approach", "approach", Plain),
                    ("pre-staged", "prestaged_fraction", Percent),
                    ("remaining flush (s, at PFS speed)", "checkpoint_flush_s", Dec1),
                ],
            )],
        ),
        experiment(
            "cost",
            "§4.4 cost-effectiveness: 70B on 80 GPUs vs 8 GPUs + offload",
            exp::cost_effectiveness,
            vec![table(
                "cost",
                "4.4 cost-effectiveness: 70B on 80 GPUs vs 8 GPUs + offload (paper: ~2x better)",
                &[
                    ("configuration", "configuration", Plain),
                    ("GPUs", "gpus", Plain),
                    ("iteration (s)", "iteration_s", Dec1),
                    ("slowdown", "slowdown_vs_gpu_only", Dec1),
                    ("cost-effectiveness", "cost_effectiveness", Dec2),
                ],
            )],
        ),
        experiment(
            "cxl",
            "§5 future work: CXL memory pool as an additional I/O path",
            exp::future_cxl,
            vec![table(
                "cxl",
                "5 (future work): CXL memory pool as an additional I/O path (70B, Testbed-1)",
                &[
                    ("tier set", "tiers", Plain),
                    ("iteration (s)", "iteration_s", Dec1),
                    ("speedup vs MLP-Offload", "speedup_vs_mlp", Dec2),
                ],
            )],
        ),
        experiment(
            "adaptive_replan",
            "§3.3 adaptive re-plan: the PFS collapses mid-run",
            exp::adaptive_replan,
            vec![table(
                "adaptive_replan",
                format!(
                    "3.3 adaptive re-plan: PFS at {:.0}% from update {} of {}, tail = last {}",
                    exp::REPLAN_PFS_LOAD_FACTOR * 100.0,
                    exp::SCENARIO_EVENT_AT,
                    exp::SCENARIO_ITERS,
                    exp::SCENARIO_TAIL
                ),
                &[
                    ("planner", "variant", Plain),
                    ("pre (s)", "pre_mean_s", Dec2),
                    ("tail (s)", "tail_mean_s", Dec2),
                    ("migrations", "migrations", Plain),
                    ("recovery of oracle win", "recovery_of_oracle_win", Percent),
                ],
            )],
        ),
        experiment(
            "degradation",
            "graceful degradation: the PFS is quarantined mid-run",
            exp::degradation,
            vec![table(
                "degradation",
                format!(
                    "graceful degradation: PFS quarantined before update {} of {}, tail = last {}",
                    exp::SCENARIO_EVENT_AT,
                    exp::SCENARIO_ITERS,
                    exp::SCENARIO_TAIL
                ),
                &[
                    ("variant", "variant", Plain),
                    ("pre (s)", "pre_mean_s", Dec2),
                    ("tail (s)", "tail_mean_s", Dec2),
                    ("drained", "drained", Plain),
                    ("tail vs single tier", "tail_overhead_vs_single_tier", SignedPercent),
                ],
            )],
        ),
        experiment(
            "checkpoint_pipeline",
            "§3.3 checkpoint pipeline: critical-path cost of per-iteration checkpoints, 40B",
            exp::checkpoint_pipeline,
            vec![table(
                "checkpoint_pipeline",
                "3.3 checkpoint pipeline: 40B, NVMe + PFS + object store, a checkpoint every iteration",
                &[
                    ("checkpoints", "variant", Plain),
                    ("iteration (s)", "mean_iter_s", Dec2),
                    ("copied (GB)", "ckpt_copied_bytes", Billions),
                    ("overhead hidden", "hidden_fraction", Percent),
                ],
            )],
        ),
    ]
}

/// Runs the experiments `cmd` selects — `all`, a section id, or a table
/// drawn from a section (`fig7` … `fig10`, `fig11`, `fig12`,
/// `sensitivity`) — and returns their `{id, title, rows}` sections, none
/// when `cmd` names no experiment. The text of each table `cmd` selects
/// goes to `print` as its experiment finishes.
pub fn run_experiments(cmd: &str, mut print: impl FnMut(String)) -> Vec<Value> {
    let mut sections = Vec::new();
    for e in experiments() {
        let tables = e.tables_for(cmd);
        if tables.is_empty() {
            continue;
        }
        let rows = (e.rows)();
        for t in tables {
            print(t.render(&rows));
        }
        sections.push(Value::obj([
            ("id", e.id.into()),
            ("title", e.title.into()),
            ("rows", at_document_precision(Value::Arr(rows))),
        ]));
    }
    sections
}

/// Every subcommand `repro` accepts: `tables`, each section id followed by
/// the names of the tables drawn from it, and `all`.
pub fn subcommands() -> Vec<&'static str> {
    let mut names = vec!["tables"];
    for e in experiments() {
        for name in std::iter::once(e.id).chain(e.tables.iter().map(|t| t.name)) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    names.push("all");
    names
}

/// An ASCII table with a title, as text.
fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
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
    let fmt_row = |cells: Vec<&str>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!(" {c:<w$} "))
            .collect();
        padded.join("|") + "\n"
    };
    let body: String = rows
        .iter()
        .map(|row| fmt_row(row.iter().map(String::as_str).collect()))
        .collect();
    let head = fmt_row(headers.to_vec());
    format!("\n== {title} ==\n{line}\n{head}{line}\n{body}{line}\n")
}

/// Tables 1 and 2 from the encoded constants, as text.
pub fn render_tables() -> String {
    let t1 = mlp_train::testbed1();
    let t2 = mlp_train::testbed2();
    let gbps = |bps: f64, decimals: usize| format!("{:.decimals$}", bps / 1e9);
    let rw = |tier: &TierSpec| format!("{} | {}", gbps(tier.read_bps, 1), gbps(tier.write_bps, 1));
    let row = |cells: [&str; 3]| cells.map(String::from).to_vec();
    let both = |feature: &str, cell: &dyn Fn(&Testbed) -> String| {
        vec![feature.to_string(), cell(&t1), cell(&t2)]
    };
    let testbeds = print_table(
        "Table 1: testbed configurations",
        &["feature", &t1.name, &t2.name],
        &[
            row(["GPUs", "4x H100-80GB", "4x A100-40GB"]),
            both("Pinned D<->H (GB/s)", &|t| gbps(t.d2h_bps, 0)),
            both("CPU cores", &|t| t.cpu_cores.to_string()),
            row(["Host memory (GB)", "512", "512"]),
            both("NVMe R|W (GB/s)", &|t| rw(&t.nvme)),
            row(["PFS", "VAST", "Lustre"]),
            both("PFS R|W (GB/s)", &|t| rw(&t.pfs)),
        ],
    );
    let models: Vec<Vec<String>> = std::iter::once(mlp_model::zoo::model_20b())
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
    testbeds
        + &print_table(
            "Table 2: model configurations (computed sizes from 12*L*D^2 + embeddings)",
            &["model", "N_L", "D_H", "AH", "params (B)"],
            &models,
        )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// `repro all`'s sections, built once for the tests that read them.
    fn all_sections() -> &'static [Value] {
        static SECTIONS: OnceLock<Vec<Value>> = OnceLock::new();
        SECTIONS.get_or_init(|| run_experiments("all", drop))
    }

    #[test]
    fn the_results_document_repeats_parses_and_is_the_committed_file() {
        let text = document(all_sections().to_vec()).pretty() + "\n";
        let again = document(run_experiments("all", drop)).pretty() + "\n";
        assert!(text == again, "two builds of the document differ");

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

    /// A misspelt field would print `NaN` or an empty cell and nothing
    /// else would fail: every column must name a field each row of its
    /// section holds, of the kind its format prints.
    #[test]
    fn every_column_names_a_field_its_rows_hold() {
        let sections = all_sections();
        let experiments = experiments();
        assert_eq!(sections.len(), experiments.len());
        for (e, section) in experiments.iter().zip(sections) {
            assert_eq!(section.get("id").and_then(Value::as_str), Some(e.id));
            let rows = section.get("rows").and_then(Value::as_array);
            let rows = rows.expect("a rows array");
            assert!(!rows.is_empty(), "section {} has no rows", e.id);
            for t in &e.tables {
                for &(header, field, format) in t.columns {
                    for row in rows {
                        let v = row.get(field);
                        let fits = match format {
                            Format::Plain => matches!(v, Some(Value::Str(_) | Value::Int(_))),
                            _ => v.and_then(Value::as_f64).is_some(),
                        };
                        assert!(
                            fits,
                            "table {}, column {header:?}: field {field:?} is {v:?}, \
                             which {format:?} does not print",
                            t.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn a_figure_name_selects_its_section_and_an_unknown_name_selects_nothing() {
        let ids = |cmd| -> Vec<&str> {
            experiments()
                .iter()
                .filter(|e| !e.tables_for(cmd).is_empty())
                .map(|e| e.id)
                .collect()
        };
        assert_eq!(ids("fig12"), ["weak_scaling"]);
        assert_eq!(ids("weak_scaling"), ["weak_scaling"]);
        assert_eq!(
            ids("sensitivity"),
            ["sensitivity_subgroup", "sensitivity_cache"]
        );
        assert!(ids("fig6").is_empty());
        assert_eq!(ids("all").len(), experiments().len());
        let names = subcommands();
        assert_eq!(names.first(), Some(&"tables"));
        assert_eq!(names.last(), Some(&"all"));
        for name in names {
            assert!(
                name == "tables" || !ids(name).is_empty(),
                "`{name}` is listed but selects nothing"
            );
        }
    }

    #[test]
    fn table_printer_handles_empty_and_ragged_titles() {
        assert_eq!(
            print_table("empty", &["a", "b"], &[]),
            "\n== empty ==\n---+---\n a | b \n---+---\n---+---\n"
        );
        assert_eq!(
            print_table("one", &["col"], &[vec!["a-very-long-cell".to_string()]]),
            "\n== one ==\n\
             ------------------\n col              \n------------------\n\
             \x20a-very-long-cell \n------------------\n"
        );
    }

    #[test]
    fn each_format_prints_its_cell() {
        let cell = |format: Format, v: Value| format.cell(Some(&v));
        assert_eq!(cell(Format::Plain, "40B".into()), "40B");
        assert_eq!(cell(Format::Plain, 12usize.into()), "12");
        assert_eq!(cell(Format::Dec1, 30.66.into()), "30.7");
        assert_eq!(cell(Format::Dec2, 0.127.into()), "0.13");
        assert_eq!(cell(Format::Dec2, 7usize.into()), "7.00");
        assert_eq!(cell(Format::Percent, 0.666.into()), "67%");
        assert_eq!(cell(Format::SignedPercent, 0.0134.into()), "+1.3%");
        assert_eq!(cell(Format::SignedPercent, (-0.5).into()), "-50.0%");
        assert_eq!(cell(Format::Billions, 2_340_000_000u64.into()), "2.3");
        // A missing field prints, and never panics.
        assert_eq!(Format::Plain.cell(None), "");
        assert_eq!(Format::Dec1.cell(None), "NaN");
    }
}
