//! Workspace invariant analysis, used by the `xtask` binary and by the
//! fixture-driven integration tests under `tests/`. It checks what the
//! compiler and clippy cannot (DESIGN.md §9, §13):
//!
//! * **Textual rules** ([`rules`]) — per-file, per-line checks over the
//!   lexed channels ([`lexer`]): facade usage and `Relaxed` audits.
//! * **Semantic pass** ([`parser`] + [`semantic`]) — a workspace-wide
//!   item-level parse producing a call graph and meter-name literals, on
//!   which two global analyses run: transitive panic reachability from
//!   annotated hot roots, and metric-name drift against OBSERVABILITY.md.
//!
//! Everything is dependency-free: the tool that checks the build must
//! not complicate the build.

#![deny(unsafe_code)]

pub mod lexer;
pub mod parser;
pub mod rules;
pub mod semantic;

use std::path::{Path, PathBuf};

/// Walk up from the current directory to the first `Cargo.toml`
/// containing a `[workspace]` section.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

/// Every `.rs` file under each crate's `src/`, tagged with the crate's
/// directory name, plus the workspace-root suite package (`src/`).
/// Fixture trees (used by the xtask tests) follow the same layout, so
/// this walker serves both the real workspace and the seeded fixtures.
pub fn lint_targets(root: &Path) -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let name = dir
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default();
            collect_rs(&dir.join("src"), &name, &mut out);
        }
    }
    collect_rs(&root.join("src"), ".", &mut out);
    out
}

fn collect_rs(dir: &Path, crate_dir: &str, out: &mut Vec<(PathBuf, String)>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(Result::ok).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, crate_dir, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push((p, crate_dir.to_owned()));
        }
    }
}

/// Workspace-relative display path for `path` under `root`.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}
