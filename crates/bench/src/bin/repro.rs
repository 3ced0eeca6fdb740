//! `repro` — regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [SUBCOMMAND] [--json]
//!
//! Subcommands:
//!   tables      Tables 1 and 2
//!   motivation  §3.1 20B offload-target comparison
//!   fig3 fig4 fig5 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15
//!   model_scaling weak_scaling   Figs. 7–10 and Figs. 11–12, by section id
//!   sensitivity subgroup-size and cache-budget sweeps
//!   sensitivity_subgroup sensitivity_cache   one sweep each
//!   checkpoint  §3.3 checkpoint pre-staging
//!   cost        §4.4 cost-effectiveness comparison
//!   cxl         §5 future-work CXL extension
//!   adaptive_replan      §3.3 re-planning after the PFS collapses mid-run
//!   degradation          permanent tier loss mid-run
//!   checkpoint_pipeline  §3.3 asynchronous two-hop checkpoints
//!   all         everything (default)
//! ```
//!
//! `--json` prints, instead of ASCII tables, one document
//! `{"sections": [{"id", "title", "rows"}]}` holding the selected
//! experiments' rows, floats at six decimals; `repro all --json` is
//! `BENCH_paper.json` byte for byte, and CI diffs them. Tables 1 and 2 have
//! no JSON form: `repro tables --json` exits 2, as an unknown subcommand
//! does, whose message lists every accepted one.
//!
//! `--trace <out.json>` runs the 40B Fig. 5 scenario with tracing enabled
//! for both approaches and writes a merged Chrome trace (see
//! OBSERVABILITY.md). With no subcommand it runs only the timeline export.
//! `--checkpoint-every N` sets the traced MLP-Offload run's asynchronous
//! checkpoint cadence (default 1; 0 disables): checkpoint flush/trickle
//! spans land on the same timeline, overlapping the next backward pass.

#![forbid(unsafe_code)]

use mlp_bench::timeline::{export_timeline_trace_every, render_timeline};
use mlp_bench::{document, render_tables, run_experiments, subcommands};

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

    if cmd == "tables" && json {
        eprintln!("Tables 1 and 2 have no JSON form; `--json` takes an experiment or `all`");
        std::process::exit(2);
    }
    let tables = cmd == "all" || cmd == "tables";
    if tables && !json {
        print!("{}", render_tables());
    }
    let sections = run_experiments(&cmd, |table| {
        if !json {
            print!("{table}");
        }
    });
    if sections.is_empty() && !tables {
        eprintln!(
            "unknown subcommand {cmd:?}; expected one of: {}",
            subcommands().join(" ")
        );
        std::process::exit(2);
    }
    if json {
        println!("{}", document(sections).pretty());
    }
}
