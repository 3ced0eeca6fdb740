//! The per-file rules: the invariants that no compiler or clippy lint
//! can express. Each rule is a pure function from a lexed file
//! ([`FileCtx`]) to a list of [`Violation`]s, unit-tested against small
//! seeded-violation sources (see the tests at the bottom).
//!
//! * `facade-only` — the crates ported onto the `mlp-sync` facade must
//!   not reach around it to `std::sync` locks, condvars, atomics or
//!   `std::thread` (`Arc` and `std::sync::mpsc` channels are fine; the
//!   long-gone `parking_lot` stays banned), otherwise the loom model
//!   checker silently loses coverage of those operations. Clippy's
//!   `disallowed-types` cannot say this: it resolves the facade's own
//!   re-exports to the same std items.
//! * `relaxed-audit` — every `Ordering::Relaxed` must carry a
//!   `// relaxed-ok: <reason>` annotation asserting the atomic is a
//!   pure counter (never used to publish cross-thread state).
//!
//! Panics, prints, `unsafe` and raw I/O are compiler and clippy lint
//! levels set in the crate roots and `clippy.toml` (DESIGN.md §9).

use crate::lexer::{mask, test_regions, Literal};

/// Crates whose `src/` is an I/O hot path (the `Relaxed` audit applies).
pub const HOT_PATH_CRATES: &[&str] = &["aio", "storage", "tensor", "core", "zero3"];
/// Crates ported onto the `mlp-sync` facade (direct primitives banned).
pub const FACADE_CRATES: &[&str] = &["aio", "tensor", "trace"];

/// A lexed source file plus the workspace context the rules need.
pub struct FileCtx {
    /// Workspace-relative path, for reporting.
    pub rel_path: String,
    /// The crate's directory name under `crates/` (e.g. `"aio"`), or
    /// `"."` for the workspace-root suite package.
    pub crate_dir: String,
    /// Code channel (comments/literals blanked), per line.
    pub code: Vec<String>,
    /// Comment channel, per line.
    pub comments: Vec<String>,
    /// Per-line flag: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: Vec<bool>,
    /// String literals with positions (the semantic pass reads meter
    /// names out of these; the textual rules never look at them).
    pub literals: Vec<Literal>,
}

impl FileCtx {
    /// Lex `src` into a context (used by `main` and the fixtures).
    pub fn from_source(rel_path: &str, crate_dir: &str, src: &str) -> Self {
        let masked = mask(src);
        let in_test = test_regions(&masked.code);
        FileCtx {
            rel_path: rel_path.to_owned(),
            crate_dir: crate_dir.to_owned(),
            code: masked.code,
            comments: masked.comments,
            in_test,
            literals: masked.literals,
        }
    }
}

/// One finding: `path:line: [rule] message`.
#[derive(Debug)]
pub struct Violation {
    pub rel_path: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.rel_path, self.line, self.rule, self.msg
        )
    }
}

/// Run every rule over one file.
pub fn check_file(ctx: &FileCtx) -> Vec<Violation> {
    let mut v = facade_only(ctx);
    v.extend(relaxed_audit(ctx));
    v
}

/// Is line `i` (0-based) waived for `rule` by a
/// `// lint:allow(<rule>): reason` on the same line or in the comment
/// block directly above it?
pub(crate) fn waived(ctx: &FileCtx, i: usize, rule: &str) -> bool {
    annotated(ctx, i, &format!("lint:allow({rule})"))
}

/// True if `needle` appears in the comment channel on line `i` or in
/// the contiguous run of comment-only lines directly above it (a
/// multi-line `//` block counts as one annotation site).
pub(crate) fn annotated(ctx: &FileCtx, i: usize, needle: &str) -> bool {
    if ctx.comments[i].contains(needle) {
        return true;
    }
    let mut p = i;
    while p > 0 {
        p -= 1;
        // Stop at the first line that carries code; a comment-only line
        // has a blank code channel.
        if !ctx.code[p].trim().is_empty() {
            return false;
        }
        if ctx.comments[p].contains(needle) {
            return true;
        }
        if ctx.comments[p].trim().is_empty() {
            return false; // blank line ends the comment block
        }
    }
    false
}

/// Find `needle` in `hay` at positions where it is not embedded in a
/// larger identifier (char before and after must not be ident chars).
pub(crate) fn word_positions(hay: &str, needle: &str) -> Vec<usize> {
    let bytes = hay.as_bytes();
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(p) = hay[from..].find(needle) {
        let at = from + p;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let end = at + needle.len();
        let after_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn facade_only(ctx: &FileCtx) -> Vec<Violation> {
    if !FACADE_CRATES.contains(&ctx.crate_dir.as_str()) {
        return Vec::new();
    }
    // `std::sync::Arc` and channels are fine (the model checker does not
    // instrument them); locks, condvars, atomics, and thread-spawning
    // must come from `mlp_sync` so `--cfg loom` sees every operation.
    const BANNED: &[&str] = &[
        "parking_lot",
        "std::sync::Mutex",
        "std::sync::RwLock",
        "std::sync::Condvar",
        "std::sync::Barrier",
        "std::sync::atomic",
        "std::thread::",
    ];
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if ctx.in_test[i] || waived(ctx, i, "facade-only") {
            continue;
        }
        for pat in BANNED {
            if line.contains(pat) {
                out.push(Violation {
                    rel_path: ctx.rel_path.clone(),
                    line: i + 1,
                    rule: "facade-only",
                    msg: format!(
                        "`{pat}` bypasses the mlp-sync facade: the loom \
                         model would not see this operation; use \
                         `mlp_sync::{{Mutex, Condvar, atomic, thread}}`"
                    ),
                });
            }
        }
    }
    out
}

fn relaxed_audit(ctx: &FileCtx) -> Vec<Violation> {
    if !HOT_PATH_CRATES.contains(&ctx.crate_dir.as_str()) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if ctx.in_test[i] || word_positions(line, "Relaxed").is_empty() {
            continue;
        }
        if !annotated(ctx, i, "relaxed-ok:") {
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "relaxed-audit",
                msg: "`Ordering::Relaxed` without a `// relaxed-ok: <reason>` \
                      annotation: Relaxed is sound only for pure counters \
                      that never publish cross-thread state; use \
                      Release/Acquire if another thread reads this to \
                      observe data written before the store"
                    .into(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_dir: &str, src: &str) -> FileCtx {
        FileCtx::from_source("crates/x/src/file.rs", crate_dir, src)
    }

    fn rules_of(v: &[Violation]) -> Vec<&'static str> {
        v.iter().map(|x| x.rule).collect()
    }

    // ---- facade-only ---------------------------------------------------

    #[test]
    fn direct_primitives_in_ported_crates_are_flagged() {
        let src = "use parking_lot::Mutex;\nuse std::sync::Condvar;\nlet t = std::thread::spawn(f);\n";
        let v = facade_only(&ctx("aio", src));
        assert_eq!(v.len(), 3, "{v:?}");
        // Unported crates may still use them directly.
        assert!(facade_only(&ctx("storage", src)).is_empty());
    }

    #[test]
    fn facade_only_allows_arc_tests_and_waivers() {
        let ok = "use std::sync::Arc;\nuse mlp_sync::{Mutex, Condvar};\n";
        assert!(facade_only(&ctx("aio", ok)).is_empty());

        let tested = "#[cfg(test)]\nmod tests {\n    use std::sync::atomic::AtomicUsize;\n}\n";
        assert!(facade_only(&ctx("aio", tested)).is_empty());

        let waived =
            "// lint:allow(facade-only): FFI callback cannot use the facade\nuse std::sync::Mutex;\n";
        assert!(facade_only(&ctx("aio", waived)).is_empty());
    }

    #[test]
    fn multi_line_waiver_blocks_cover_the_next_code_line() {
        let src = "// lint:allow(facade-only): a hardware query (see the\n// engine docs), no concurrency involved\nuse std::thread::available_parallelism;\n";
        assert!(facade_only(&ctx("aio", src)).is_empty());

        // A blank line ends the comment block: the waiver must sit
        // directly above the site it excuses.
        let detached =
            "// lint:allow(facade-only): stale waiver\n\nuse std::thread::available_parallelism;\n";
        assert_eq!(facade_only(&ctx("aio", detached)).len(), 1);
    }

    // ---- relaxed-audit -------------------------------------------------

    #[test]
    fn unannotated_relaxed_is_flagged() {
        let bad = "counter.fetch_add(1, Ordering::Relaxed);\n";
        let v = relaxed_audit(&ctx("storage", bad));
        assert_eq!(rules_of(&v), vec!["relaxed-audit"]);

        let good = "// relaxed-ok: monotonic stats counter, read only for reporting\ncounter.fetch_add(1, Ordering::Relaxed);\n";
        assert!(relaxed_audit(&ctx("storage", good)).is_empty());

        let inline = "counter.fetch_add(1, Ordering::Relaxed); // relaxed-ok: stats\n";
        assert!(relaxed_audit(&ctx("storage", inline)).is_empty());
    }

    #[test]
    fn relaxed_in_tests_or_cold_crates_is_fine() {
        let tested = "#[cfg(test)]\nmod tests {\n    fn t() { c.load(Ordering::Relaxed); }\n}\n";
        assert!(relaxed_audit(&ctx("storage", tested)).is_empty());
        let cold = "c.load(Ordering::Relaxed);\n";
        assert!(relaxed_audit(&ctx("sync", cold)).is_empty());
    }

    // ---- integration: check_file over a multi-violation fixture --------

    #[test]
    fn check_file_reports_all_rules_on_a_seeded_fixture() {
        let src = "use parking_lot::Mutex;\n\
                   fn f() {\n\
                   \x20   stats.fetch_add(1, Ordering::Relaxed);\n\
                   }\n";
        let v = check_file(&FileCtx::from_source("crates/aio/src/bad.rs", "aio", src));
        let mut rules: Vec<_> = rules_of(&v);
        rules.sort_unstable();
        assert_eq!(rules, vec!["facade-only", "relaxed-audit"]);
    }
}
