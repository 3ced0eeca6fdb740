//! Workspace automation. Currently one subcommand:
//!
//! ```text
//! cargo run -p xtask -- lint [--root <dir>]
//! ```
//!
//! walks every crate's `src/` (plus the root suite package), runs the
//! per-file rules in [`xtask::rules`] and then the workspace-wide
//! analyses in [`xtask::semantic`] (transitive panic reachability,
//! metric drift). Exits non-zero if any violation is found, so CI can
//! gate on it.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use xtask::rules::{check_file, FileCtx};
use xtask::{find_workspace_root, lint_targets, parser, rel_path, semantic};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => match parse_root(&args[1..]) {
            Ok(root) => lint(&root),
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::from(2)
            }
        },
        Some(other) => {
            eprintln!("unknown subcommand `{other}`; try `lint`");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo run -p xtask -- lint [--root <dir>]");
            ExitCode::from(2)
        }
    }
}

fn lint(root: &std::path::Path) -> ExitCode {
    let targets = lint_targets(root);
    let mut violations = Vec::new();
    let mut parsed = Vec::new();
    for (path, crate_dir) in &targets {
        let src = match std::fs::read_to_string(path) {
            Ok(src) => src,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let ctx = FileCtx::from_source(&rel_path(root, path), crate_dir, &src);
        violations.extend(check_file(&ctx));
        parsed.push(parser::parse(&ctx));
    }

    let obs = root.join("OBSERVABILITY.md");
    let doc = std::fs::read_to_string(&obs)
        .ok()
        .map(|text| semantic::parse_observability(&rel_path(root, &obs), &text));
    violations.extend(semantic::Workspace::build(parsed).analyze(doc.as_ref()));
    violations.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));

    for v in &violations {
        println!("{v}");
    }
    let files = targets.len();
    if violations.is_empty() {
        println!("lint: {files} files clean");
        ExitCode::SUCCESS
    } else {
        println!(
            "lint: {} violation(s) across {files} files",
            violations.len()
        );
        ExitCode::FAILURE
    }
}

fn parse_root(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => find_workspace_root().ok_or_else(|| {
            "could not find workspace root (no Cargo.toml with [workspace]); pass --root"
                .to_string()
        }),
        [flag, dir] if flag == "--root" => Ok(PathBuf::from(dir)),
        [flag] if flag == "--root" => Err("--root requires a directory argument".to_string()),
        [other, ..] => Err(format!("unknown argument `{other}`")),
    }
}
