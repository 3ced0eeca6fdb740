//! Invariant rules for the offload I/O stack.
//!
//! Each rule is a pure function from a lexed file ([`FileCtx`]) to a
//! list of [`Violation`]s, so every rule is unit-testable against small
//! seeded-violation fixtures (see the tests at the bottom). The rules:
//!
//! * `hot-path-panic` — no `unwrap()`/`expect()`/`panic!`-family calls
//!   outside `#[cfg(test)]` in the I/O hot-path crates. A worker thread
//!   that panics tears down an op silently; hot paths must return
//!   `io::Error` (or publish a poisoned completion) instead. Waivable
//!   per-site with `// lint:allow(hot-path-panic): <reason>` for
//!   documented API-misuse panics.
//! * `safety-comment` — every `unsafe` keyword must be preceded by a
//!   `// SAFETY:` comment explaining the proof obligation.
//! * `unsafe-confinement` — `unsafe` may appear only in `mlp-tensor`
//!   (the pinned-buffer FFI layer); every other crate root must carry
//!   `#![deny(unsafe_code)]` (or `forbid`) so the compiler enforces it
//!   too.
//! * `raw-io-confinement` — raw kernel I/O (`syscall`, `io_uring_*`,
//!   `mmap`/`munmap`, `O_DIRECT` opens via `custom_flags`, `libc`) may
//!   appear only in `mlp-tensor`'s FFI layer. Every other crate moves
//!   bytes through `AioEngine`/`Backend` and `std::fs`.
//! * `facade-only` — the crates ported onto the `mlp-sync` facade must
//!   not reach around it to `std::sync` locks, condvars, atomics or
//!   `std::thread` (`Arc` and `std::sync::mpsc` channels are fine; the
//!   long-gone `parking_lot` stays banned), otherwise the loom model
//!   checker silently loses coverage of those operations.
//! * `relaxed-audit` — every `Ordering::Relaxed` must carry a
//!   `// relaxed-ok: <reason>` annotation asserting the atomic is a
//!   pure counter (never used to publish cross-thread state).
//! * `trace-sink` — no direct `println!`/`eprintln!`/`print!`/`eprint!`/
//!   `dbg!` in the instrumented hot-path crates: diagnostics on the I/O
//!   path must go through the `mlp-trace` sink (a stray print stalls
//!   submission threads on terminal I/O and bypasses the timeline).
//!   Waivable per-site with `// lint:allow(trace-sink): <reason>` for
//!   genuine CLI surfaces.

use crate::lexer::{mask, test_regions, Literal};

/// Crates whose `src/` is an I/O hot path (panics are lint errors).
pub const HOT_PATH_CRATES: &[&str] = &["aio", "storage", "tensor", "core", "zero3"];
/// Crates ported onto the `mlp-sync` facade (direct primitives banned).
pub const FACADE_CRATES: &[&str] = &["aio", "tensor", "trace"];
/// The only crate allowed to contain `unsafe` code.
pub const UNSAFE_ALLOWED_CRATES: &[&str] = &["tensor"];
/// Crates allowed to touch raw kernel I/O interfaces (see
/// `raw-io-confinement`): the FFI layer.
pub const RAW_IO_ALLOWED_CRATES: &[&str] = &["tensor"];

/// A lexed source file plus the workspace context the rules need.
pub struct FileCtx {
    /// Workspace-relative path, for reporting.
    pub rel_path: String,
    /// The crate's directory name under `crates/` (e.g. `"aio"`), or
    /// `"."` for the workspace-root suite package.
    pub crate_dir: String,
    /// True for `src/lib.rs` / `src/main.rs` (crate-root attr checks).
    pub is_crate_root: bool,
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
        let file = std::path::Path::new(rel_path);
        let is_crate_root = matches!(
            file.file_name().and_then(|f| f.to_str()),
            Some("lib.rs") | Some("main.rs")
        ) && file
            .parent()
            .and_then(|p| p.file_name())
            .and_then(|f| f.to_str())
            == Some("src");
        FileCtx {
            rel_path: rel_path.to_owned(),
            crate_dir: crate_dir.to_owned(),
            is_crate_root,
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
    let mut v = Vec::new();
    v.extend(hot_path_panic(ctx));
    v.extend(safety_comment(ctx));
    v.extend(unsafe_confinement(ctx));
    v.extend(raw_io_confinement(ctx));
    v.extend(facade_only(ctx));
    v.extend(relaxed_audit(ctx));
    v.extend(trace_sink(ctx));
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

fn hot_path_panic(ctx: &FileCtx) -> Vec<Violation> {
    if !HOT_PATH_CRATES.contains(&ctx.crate_dir.as_str()) {
        return Vec::new();
    }
    // Method-call patterns match literally; macro names get word-boundary
    // checks so e.g. a `my_panic!` helper is not flagged as `panic!`.
    const METHODS: &[(&str, &str)] = &[
        (".unwrap()", "`.unwrap()` on a hot path"),
        (".expect(", "`.expect()` on a hot path"),
    ];
    const MACROS: &[&str] = &["panic!", "unreachable!", "todo!", "unimplemented!"];
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if ctx.in_test[i] || waived(ctx, i, "hot-path-panic") {
            continue;
        }
        for (pat, what) in METHODS {
            if line.contains(pat) {
                out.push(Violation {
                    rel_path: ctx.rel_path.clone(),
                    line: i + 1,
                    rule: "hot-path-panic",
                    msg: format!(
                        "{what}: return io::Error (or publish a poisoned \
                         completion) instead, or waive with \
                         `// lint:allow(hot-path-panic): <reason>`"
                    ),
                });
            }
        }
        for mac in MACROS {
            // `mac` ends in '!', so only the left boundary needs a check.
            if !word_positions(line, &mac[..mac.len() - 1])
                .iter()
                .any(|&p| line[p..].starts_with(mac))
            {
                continue;
            }
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "hot-path-panic",
                msg: format!(
                    "`{mac}` on a hot path: return a typed error instead, or \
                     waive with `// lint:allow(hot-path-panic): <reason>`"
                ),
            });
        }
    }
    out
}

fn safety_comment(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if word_positions(line, "unsafe").is_empty() {
            continue;
        }
        // Accept `SAFETY:` on the same line or anywhere in the comment
        // block directly above the site (multi-line proofs are common).
        if !annotated(ctx, i, "SAFETY:") {
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "safety-comment",
                msg: "`unsafe` without a preceding `// SAFETY:` comment \
                      stating the proof obligation"
                    .into(),
            });
        }
    }
    out
}

fn unsafe_confinement(ctx: &FileCtx) -> Vec<Violation> {
    let mut out = Vec::new();
    let allowed = UNSAFE_ALLOWED_CRATES.contains(&ctx.crate_dir.as_str());
    if !allowed {
        for (i, line) in ctx.code.iter().enumerate() {
            if word_positions(line, "unsafe").is_empty() {
                continue;
            }
            // `#![deny(unsafe_code)]` itself mentions no `unsafe` token
            // (word boundary: `unsafe_code` is one identifier), so any
            // hit here is a real unsafe block/fn/impl.
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "unsafe-confinement",
                msg: format!(
                    "`unsafe` outside mlp-tensor (crate `{}`): pinned-buffer \
                     FFI is the only sanctioned unsafe surface",
                    ctx.crate_dir
                ),
            });
        }
    }
    if ctx.is_crate_root && !allowed {
        let has_deny = ctx.code.iter().any(|l| {
            l.contains("#![deny(unsafe_code)]") || l.contains("#![forbid(unsafe_code)]")
        });
        if !has_deny {
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: 1,
                rule: "unsafe-confinement",
                msg: "crate root missing `#![deny(unsafe_code)]` (required \
                      everywhere except mlp-tensor)"
                    .into(),
            });
        }
    }
    out
}

fn raw_io_confinement(ctx: &FileCtx) -> Vec<Violation> {
    if RAW_IO_ALLOWED_CRATES.contains(&ctx.crate_dir.as_str()) {
        return Vec::new();
    }
    // Tokens that mark a direct kernel I/O interface (no crate uses
    // one; a crate that starts must say why in a waiver).
    // `mmap`/`munmap` and `syscall` are word-bounded so identifiers
    // like `mmap_like` or prose in string literals don't trip;
    // `custom_flags(` is the only stable std doorway to O_DIRECT opens.
    const WORD_TOKENS: &[&str] = &["syscall", "mmap", "munmap", "libc", "io_uring_setup", "io_uring_enter"];
    const LITERAL_TOKENS: &[&str] = &[".custom_flags(", "O_DIRECT"];
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if ctx.in_test[i] || waived(ctx, i, "raw-io-confinement") {
            continue;
        }
        let hit = WORD_TOKENS
            .iter()
            .find(|t| !word_positions(line, t).is_empty())
            .or_else(|| LITERAL_TOKENS.iter().find(|t| line.contains(*t)));
        if let Some(tok) = hit {
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "raw-io-confinement",
                msg: format!(
                    "`{tok}` outside mlp-tensor (crate `{}`): no crate talks \
                     to the kernel's raw I/O interfaces — move the bytes \
                     through `AioEngine`/`Backend` instead; waive with \
                     `// lint:allow(raw-io-confinement): <reason>`",
                    ctx.crate_dir
                ),
            });
        }
    }
    out
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

fn trace_sink(ctx: &FileCtx) -> Vec<Violation> {
    if !HOT_PATH_CRATES.contains(&ctx.crate_dir.as_str()) {
        return Vec::new();
    }
    const MACROS: &[&str] = &["println!", "eprintln!", "print!", "eprint!", "dbg!"];
    let mut out = Vec::new();
    for (i, line) in ctx.code.iter().enumerate() {
        if ctx.in_test[i] || waived(ctx, i, "trace-sink") {
            continue;
        }
        for mac in MACROS {
            // `mac` ends in '!'; word_positions checks the left boundary,
            // so `my_println!` or `sprint!` are not flagged.
            if !word_positions(line, &mac[..mac.len() - 1])
                .iter()
                .any(|&p| line[p..].starts_with(mac))
            {
                continue;
            }
            out.push(Violation {
                rel_path: ctx.rel_path.clone(),
                line: i + 1,
                rule: "trace-sink",
                msg: format!(
                    "`{mac}` on an instrumented hot path: emit through the \
                     mlp-trace sink (span/instant/counter) instead — a \
                     direct print stalls I/O threads on the terminal and \
                     bypasses the timeline; waive with \
                     `// lint:allow(trace-sink): <reason>` for genuine CLI \
                     output"
                ),
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

    // ---- hot-path-panic ------------------------------------------------

    #[test]
    fn hot_path_panic_flags_seeded_violations() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let v = x.unwrap();\n    let w = x.expect(\"gone\");\n    panic!(\"boom\");\n}\n";
        let v = hot_path_panic(&ctx("aio", src));
        assert_eq!(v.len(), 3, "{v:?}");
        assert_eq!(v[0].line, 2);
        assert_eq!(v[1].line, 3);
        assert_eq!(v[2].line, 4);
    }

    #[test]
    fn hot_path_panic_skips_tests_waivers_and_cold_crates() {
        let tested = "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n";
        assert!(hot_path_panic(&ctx("aio", tested)).is_empty());

        let waived = "// lint:allow(hot-path-panic): documented API-misuse panic\nlet v = x.unwrap();\n";
        assert!(hot_path_panic(&ctx("aio", waived)).is_empty());

        let cold = "fn f() { x.unwrap(); }\n";
        assert!(hot_path_panic(&ctx("sim", cold)).is_empty());
    }

    #[test]
    fn multi_line_waiver_blocks_cover_the_next_code_line() {
        let src = "// lint:allow(hot-path-panic): documented API-misuse panic (see\n// the `# Panics` section), not an I/O failure path\nlet v = x.unwrap();\n";
        assert!(hot_path_panic(&ctx("aio", src)).is_empty());

        // A blank line ends the comment block: the waiver must sit
        // directly above the site it excuses.
        let detached = "// lint:allow(hot-path-panic): stale waiver\n\nlet v = x.unwrap();\n";
        assert_eq!(hot_path_panic(&ctx("aio", detached)).len(), 1);
    }

    #[test]
    fn hot_path_panic_ignores_lookalikes() {
        let src = "let a = x.unwrap_or(0);\nlet b = y.unwrap_or_else(f);\nmy_panic!(z);\nlet s = \"panic! in a string\";\n// panic! in a comment\n";
        assert!(hot_path_panic(&ctx("aio", src)).is_empty());
    }

    // ---- safety-comment ------------------------------------------------

    #[test]
    fn safety_comment_required_before_unsafe() {
        let bad = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        let v = safety_comment(&ctx("tensor", bad));
        assert_eq!(rules_of(&v), vec!["safety-comment"]);

        let good = "fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid for reads.\n    unsafe { *p }\n}\n";
        assert!(safety_comment(&ctx("tensor", good)).is_empty());
    }

    #[test]
    fn safety_comment_not_fooled_by_unsafe_code_attr() {
        let src = "#![deny(unsafe_code)]\nfn f() {}\n";
        assert!(safety_comment(&ctx("aio", src)).is_empty());
    }

    // ---- unsafe-confinement --------------------------------------------

    #[test]
    fn unsafe_outside_tensor_is_flagged() {
        let src = "fn f(p: *const u8) -> u8 {\n    // SAFETY: fine.\n    unsafe { *p }\n}\n";
        let v = unsafe_confinement(&ctx("aio", src));
        assert_eq!(rules_of(&v), vec!["unsafe-confinement"]);
        assert!(unsafe_confinement(&ctx("tensor", src)).is_empty());
    }

    #[test]
    fn crate_root_must_deny_unsafe_code() {
        let bare = FileCtx::from_source("crates/aio/src/lib.rs", "aio", "pub mod a;\n");
        let v = unsafe_confinement(&bare);
        assert_eq!(rules_of(&v), vec!["unsafe-confinement"]);

        let denied = FileCtx::from_source(
            "crates/aio/src/lib.rs",
            "aio",
            "#![deny(unsafe_code)]\npub mod a;\n",
        );
        assert!(unsafe_confinement(&denied).is_empty());

        // Non-root files are not subject to the attribute check.
        let inner = FileCtx::from_source("crates/aio/src/engine.rs", "aio", "pub fn f() {}\n");
        assert!(unsafe_confinement(&inner).is_empty());

        // mlp-tensor is the sanctioned unsafe surface.
        let tensor_root =
            FileCtx::from_source("crates/tensor/src/lib.rs", "tensor", "pub mod buffer;\n");
        assert!(unsafe_confinement(&tensor_root).is_empty());
    }

    // ---- raw-io-confinement --------------------------------------------

    #[test]
    fn raw_io_outside_the_ffi_layer_is_flagged() {
        let src = "let fd = syscall(425, 8, &mut p, 0, 0, 0, 0);\nopts.custom_flags(O_DIRECT);\nlet m = mmap(core::ptr::null_mut(), len, 3, 2, fd, 0);\n";
        let v = raw_io_confinement(&ctx("storage", src));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "raw-io-confinement"));

        assert_eq!(raw_io_confinement(&ctx("aio", src)).len(), 3);
        // The FFI layer owns these interfaces.
        assert!(raw_io_confinement(&ctx("tensor", src)).is_empty());
    }

    #[test]
    fn raw_io_confinement_skips_lookalikes_tests_and_waivers() {
        // Word boundaries: identifiers embedding the tokens are fine,
        // and comments/strings are blanked before the rule runs.
        let ok = "let mmap_plan = remap_syscalls();\nlet s = \"uses mmap and O_DIRECT\";\n// a comment about io_uring_setup\n";
        assert!(raw_io_confinement(&ctx("storage", ok)).is_empty());

        let tested = "#[cfg(test)]\nmod tests {\n    fn t() { let _ = mmap(p, n, 3, 2, fd, 0); }\n}\n";
        assert!(raw_io_confinement(&ctx("storage", tested)).is_empty());

        let waived = "// lint:allow(raw-io-confinement): documented probe utility\nlet fd = syscall(425, 8, &mut p, 0, 0, 0, 0);\n";
        assert!(raw_io_confinement(&ctx("storage", waived)).is_empty());
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

    // ---- trace-sink ----------------------------------------------------

    #[test]
    fn direct_prints_on_hot_paths_are_flagged() {
        let src = "fn f() {\n    println!(\"submitted\");\n    eprintln!(\"retry {n}\");\n    dbg!(op);\n}\n";
        let v = trace_sink(&ctx("aio", src));
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|x| x.rule == "trace-sink"));
        // Crates outside the instrumented hot path may print freely
        // (bench renderers, the repro CLI).
        assert!(trace_sink(&ctx("bench", src)).is_empty());
        assert!(trace_sink(&ctx("train", src)).is_empty());
    }

    #[test]
    fn trace_sink_skips_tests_waivers_and_lookalikes() {
        let tested = "#[cfg(test)]\nmod tests {\n    fn t() { println!(\"debugging a test\"); }\n}\n";
        assert!(trace_sink(&ctx("aio", tested)).is_empty());

        let waived = "// lint:allow(trace-sink): operator-facing CLI summary, not I/O-path\nprintln!(\"{summary}\");\n";
        assert!(trace_sink(&ctx("core", waived)).is_empty());

        let lookalikes =
            "my_println!(x);\nlet s = \"println! in a string\";\n// println! in a comment\n";
        assert!(trace_sink(&ctx("aio", lookalikes)).is_empty());
    }

    // ---- integration: check_file over a multi-violation fixture --------

    #[test]
    fn check_file_reports_all_rules_on_a_seeded_fixture() {
        let src = "use parking_lot::Mutex;\n\
                   fn f(x: Option<u8>, p: *const u8) -> u8 {\n\
                   \x20   stats.fetch_add(1, Ordering::Relaxed);\n\
                   \x20   let v = x.unwrap();\n\
                   \x20   eprintln!(\"v = {v}\");\n\
                   \x20   unsafe { *p }\n\
                   }\n";
        let v = check_file(&FileCtx::from_source("crates/aio/src/bad.rs", "aio", src));
        let mut rules: Vec<_> = rules_of(&v);
        rules.sort_unstable();
        assert_eq!(
            rules,
            vec![
                "facade-only",
                "hot-path-panic",
                "relaxed-audit",
                "safety-comment",
                "trace-sink",
                "unsafe-confinement",
            ]
        );
    }
}
