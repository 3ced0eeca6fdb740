//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [SUBCOMMAND] [--json]
//!
//! Subcommands:
//!   tables      Tables 1 and 2
//!   motivation  §3.1 20B offload-target comparison
//!   fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!   sensitivity subgroup-size and cache-budget sweeps
//!   checkpoint  §3.3 checkpoint pre-staging
//!   cost        §4.4 cost-effectiveness comparison
//!   cxl         §5 future-work CXL extension
//!   all         everything (default)
//! ```
//!
//! `--json` emits the raw rows as JSON instead of ASCII tables.
//!
//! `--trace <out.json>` runs the 40B Fig. 5 scenario with tracing enabled
//! for both approaches and writes a merged Chrome trace (see
//! OBSERVABILITY.md). With no subcommand it runs only the timeline export.
//! `--checkpoint-every N` sets the traced MLP-Offload run's asynchronous
//! checkpoint cadence (default 1; 0 disables): checkpoint flush/trickle
//! spans land on the same timeline, overlapping the next backward pass.

use mlp_bench::timeline::{export_timeline_trace_every, render_timeline};
use mlp_bench::*;
use mlp_trace::json::Value;
use mlp_train::experiments as exp;

/// `--json`: the rows as a pretty-printed array of objects.
fn print_json<'a, R: 'a>(rows: &'a [R])
where
    Value: From<&'a R>,
{
    println!("{}", rows.iter().map(Value::from).collect::<Value>().pretty());
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Pull out `--trace <path>` before subcommand detection so the path
    // operand is not mistaken for a subcommand.
    let trace_path = args.iter().position(|a| a == "--trace").map(|i| {
        args.remove(i);
        if i >= args.len() {
            eprintln!("--trace requires an output path");
            std::process::exit(2);
        }
        args.remove(i)
    });
    // `--checkpoint-every N`: asynchronous two-hop checkpoint cadence for
    // the traced MLP-Offload run (default 1, i.e. every iteration; 0
    // disables checkpointing).
    let checkpoint_every = args
        .iter()
        .position(|a| a == "--checkpoint-every")
        .map(|i| {
            args.remove(i);
            if i >= args.len() {
                eprintln!("--checkpoint-every requires an iteration count");
                std::process::exit(2);
            }
            args.remove(i).parse().unwrap_or_else(|_| {
                eprintln!("--checkpoint-every expects a non-negative integer");
                std::process::exit(2);
            })
        })
        .unwrap_or(1);
    let json = args.iter().any(|a| a == "--json");
    let explicit_cmd = args.iter().find(|a| !a.starts_with("--")).cloned();
    if let Some(path) = &trace_path {
        match export_timeline_trace_every(path, checkpoint_every) {
            Ok(runs) => render_timeline(path, &runs),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
        if explicit_cmd.is_none() {
            return;
        }
    }
    let cmd = explicit_cmd.unwrap_or_else(|| "all".to_string());

    macro_rules! emit {
        ($rows:expr, $render:expr) => {{
            let rows = $rows;
            if json {
                print_json(&rows);
            } else {
                $render(&rows);
            }
        }};
    }

    let all = cmd == "all";
    let mut matched = all;

    if all || cmd == "tables" {
        matched = true;
        if !json {
            render_tables();
        }
    }
    if all || cmd == "motivation" {
        matched = true;
        emit!(exp::motivation(), render_motivation);
    }
    if all || cmd == "fig3" {
        matched = true;
        emit!(exp::fig3_update_breakdown(), render_fig3);
    }
    if all || cmd == "fig4" {
        matched = true;
        emit!(exp::fig4_concurrency(), render_fig4);
    }
    if all || cmd == "fig5" {
        matched = true;
        emit!(exp::fig5_throughput_timeline(), render_fig5);
    }
    if all || ["fig7", "fig8", "fig9", "fig10"].contains(&cmd.as_str()) {
        matched = true;
        let rows = exp::model_scaling();
        if json {
            print_json(&rows);
        } else {
            if all || cmd == "fig7" {
                render_fig7(&rows);
            }
            if all || cmd == "fig8" {
                render_fig8(&rows);
            }
            if all || cmd == "fig9" {
                render_fig9(&rows);
            }
            if all || cmd == "fig10" {
                render_fig10(&rows);
            }
        }
    }
    if all || cmd == "fig11" || cmd == "fig12" {
        matched = true;
        let rows = exp::weak_scaling();
        if json {
            print_json(&rows);
        } else {
            if all || cmd == "fig11" {
                render_fig11(&rows);
            }
            if all || cmd == "fig12" {
                render_fig12(&rows);
            }
        }
    }
    if all || cmd == "fig13" {
        matched = true;
        emit!(exp::fig13_grad_accumulation(), render_fig13);
    }
    if all || cmd == "fig14" {
        matched = true;
        let rows = exp::fig14_ablation_nvme();
        if json {
            print_json(&rows);
        } else {
            render_ablation(
                "Fig. 14: ablation on node-local NVMe only (paper: up to 1.6x)",
                &rows,
            );
        }
    }
    if all || cmd == "fig15" {
        matched = true;
        let rows = exp::fig15_ablation_pfs();
        if json {
            print_json(&rows);
        } else {
            render_ablation(
                "Fig. 15: ablation with PFS multi-path (paper: 2.5x over DeepSpeed ZeRO-3)",
                &rows,
            );
        }
    }

    if all || cmd == "sensitivity" {
        matched = true;
        if json {
            print_json(&exp::subgroup_size_sweep());
        } else {
            render_subgroup_sweep(&exp::subgroup_size_sweep());
            render_cache_sweep(&exp::cache_sweep());
        }
    }
    if all || cmd == "checkpoint" {
        matched = true;
        emit!(exp::checkpoint_prestaging(), render_checkpoint);
    }
    if all || cmd == "cost" {
        matched = true;
        emit!(exp::cost_effectiveness(), render_cost);
    }
    if all || cmd == "cxl" {
        matched = true;
        emit!(exp::future_cxl(), render_cxl);
    }

    if !matched {
        eprintln!(
            "unknown subcommand {cmd:?}; expected one of: tables motivation fig3 fig4 fig5 \
             fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 sensitivity checkpoint cost cxl all"
        );
        std::process::exit(2);
    }
}
