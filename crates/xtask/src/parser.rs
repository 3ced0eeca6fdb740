//! Item-level parser for the semantic pass.
//!
//! Built on the channel lexer ([`crate::lexer`]): no external
//! dependencies, no full grammar. From the code channel of one file it
//! extracts the facts the workspace analyses ([`crate::semantic`])
//! need:
//!
//! * function/method definitions with their body line ranges and the
//!   impl/trait type they belong to,
//! * call sites (free calls, `Type::assoc` calls, `.method(` calls)
//!   with a best-effort qualifier for later name resolution,
//! * panic sites (`panic!`-family macros, `.unwrap()`, `.expect(`,
//!   and slice/array indexing),
//! * lock-guard acquisition scopes (`.lock()` on the `mlp-sync`
//!   facade), with canonical lock identities and `drop()`-aware scope
//!   ends,
//! * potentially-blocking operations (file I/O, `Condvar::wait`,
//!   channel/thread joins, backend calls),
//! * trace meter registrations (`counter(` / `gauge(` / `histogram(`),
//!   including the one-line meter-closure idiom
//!   (`let c = |m: &str| trace.counter(&format!("aio.{b}.{m}"));`).
//!
//! Everything is a *best-effort, over-approximating* extraction; the
//! blind spots (trait-object dispatch targets, macro-generated code,
//! non-lexical guard lifetimes) are documented in DESIGN.md §13.

use crate::lexer::Literal;
use crate::rules::{annotated, is_ident_byte, waived, word_positions, FileCtx};

/// One parsed source file.
pub struct ParsedFile {
    pub rel_path: String,
    pub crate_dir: String,
    pub fns: Vec<FnDef>,
    /// Meter names registered by non-test code, `{...}` → `*`.
    pub meters: Vec<MeterSite>,
    /// Meter names *asserted* inside test regions (drift corroboration).
    pub asserted_meters: Vec<MeterSite>,
    /// All string literals (the semantic pass reads `Phase::as_str`
    /// span names out of these).
    pub literals: Vec<Literal>,
    /// Per-line test-region flags, kept for the analyses.
    pub in_test: Vec<bool>,
    /// Crate directories this file references through `mlp_*` paths
    /// (`use mlp_sync::Mutex` → `"sync"`). Call resolution only follows
    /// edges into the caller's own crate or a referenced one, so a
    /// same-named method in an unrelated crate cannot alias.
    pub ext_crates: Vec<String>,
}

/// One `fn` item: a definition with a body, or a bodiless trait decl.
pub struct FnDef {
    /// Bare name (`submit`).
    pub name: String,
    /// Qualified display name (`crates/aio/src/engine.rs::AioEngine::submit`).
    pub qual: String,
    /// 0-based line of the `fn` keyword.
    pub line: usize,
    /// 0-based last line of the body (== `line` for bodiless decls).
    pub end: usize,
    pub has_body: bool,
    pub is_test: bool,
    /// `// lint:hot-root` annotation above the signature.
    pub hot_root: bool,
    /// Rules waived for the entire body via `lint:allow(rule)` above
    /// the signature.
    pub waivers: Vec<String>,
    pub calls: Vec<Call>,
    pub panics: Vec<PanicSite>,
    pub guards: Vec<GuardScope>,
    pub blocking: Vec<BlockSite>,
}

/// One call site inside a function body.
pub struct Call {
    pub callee: String,
    /// `Type` for `Type::callee(`, the receiver path for `.callee(`.
    pub qualifier: Option<String>,
    pub method: bool,
    pub line: usize,
    pub in_test: bool,
    /// `lint:allow(lock-order)` at the call site: drop interprocedural
    /// ordering edges through this call.
    pub waived_lock_order: bool,
}

/// One potential panic site.
pub struct PanicSite {
    pub line: usize,
    /// Human label: `panic!`, `.unwrap()`, `indexing`...
    pub what: &'static str,
    /// Waived via `lint:allow(hot-path-panic)` or
    /// `lint:allow(transitive-panic)` at the site.
    pub waived: bool,
    pub in_test: bool,
}

/// One facade-guard acquisition and the lines it may be live.
pub struct GuardScope {
    /// Canonical lock identity: `crate/file_stem.receiver_tail`.
    pub lock: String,
    /// The raw receiver expression (`self.shared.state`), kept to tell
    /// true re-entrant acquisition apart from two instances whose
    /// receivers merely share a field name.
    pub recv: String,
    pub line: usize,
    pub col: usize,
    /// 0-based last line the guard can be live (inclusive).
    pub end: usize,
    pub waived: bool,
    pub in_test: bool,
}

/// One potentially-blocking operation.
pub struct BlockSite {
    pub line: usize,
    pub what: String,
    /// A condvar wait (flagged only when a *second* guard is live:
    /// waiting with one guard is the normal condvar protocol).
    pub condvar: bool,
    pub waived: bool,
    pub in_test: bool,
}

/// One meter registration site (name already wildcarded).
pub struct MeterSite {
    pub name: String,
    pub line: usize,
    pub kind: &'static str,
    pub waived: bool,
}

const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "union", "unsafe", "use", "where", "while",
];

/// Parse one lexed file into items and sites.
pub fn parse(ctx: &FileCtx) -> ParsedFile {
    let code = &ctx.code;
    let impls = impl_ranges(code);
    let mut fns = collect_fns(ctx, &impls);
    attribute_sites(ctx, &mut fns);
    // File-level waivers (`lint:allow` + `-file(rule): reason` spelled
    // as one token in a comment) extend every fn in the file — the
    // escape for whole files that are deliberate non-production paths,
    // like the model checker whose schedule aborts *are* panics.
    for rule in file_waivers(ctx) {
        for f in fns.iter_mut() {
            if !f.waivers.contains(&rule) {
                f.waivers.push(rule.clone());
            }
        }
    }
    propagate_fn_waivers(&mut fns);
    let (meters, asserted_meters) = collect_meters(ctx);
    ParsedFile {
        rel_path: ctx.rel_path.clone(),
        crate_dir: ctx.crate_dir.clone(),
        fns,
        meters,
        asserted_meters,
        literals: ctx.literals.clone(),
        in_test: ctx.in_test.clone(),
        ext_crates: ext_crates(ctx),
    }
}

/// Rules waived for the whole file via `lint:allow-file(rule): reason`
/// in any comment line.
fn file_waivers(ctx: &FileCtx) -> Vec<String> {
    let mut out = Vec::new();
    for line in &ctx.comments {
        let mut rest = line.as_str();
        while let Some(p) = rest.find("lint:allow-file(") {
            rest = &rest[p + "lint:allow-file(".len()..];
            if let Some(q) = rest.find(')') {
                let rule = rest[..q].trim().to_owned();
                if !rule.is_empty() && !out.contains(&rule) {
                    out.push(rule);
                }
            }
        }
    }
    out
}

/// Workspace crates referenced via `mlp_*` paths, as crate directory
/// names (the `mlp-offload` library lives in `crates/core`).
fn ext_crates(ctx: &FileCtx) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for line in &ctx.code {
        let bytes = line.as_bytes();
        let mut from = 0;
        while let Some(p) = line[from..].find("mlp_").map(|p| p + from) {
            let start = p + 4;
            let mut end = start;
            while end < bytes.len() && is_ident_byte(bytes[end]) {
                end += 1;
            }
            from = end;
            if p > 0 && is_ident_byte(bytes[p - 1]) {
                continue;
            }
            let dir = match &line[start..end] {
                "offload" => "core",
                other => other,
            };
            if !dir.is_empty() && !out.iter().any(|d| d == dir) {
                out.push(dir.to_owned());
            }
        }
    }
    out
}

/// A fn-level waiver covers every site in the body, so the analyses
/// (including transitive ones like the lock graph) can rely on the
/// per-site flags alone.
fn propagate_fn_waivers(fns: &mut [FnDef]) {
    for f in fns.iter_mut() {
        for w in &f.waivers {
            match w.as_str() {
                "lock-order" => {
                    f.guards.iter_mut().for_each(|g| g.waived = true);
                    f.calls.iter_mut().for_each(|c| c.waived_lock_order = true);
                }
                "blocking-under-lock" => {
                    f.blocking.iter_mut().for_each(|b| b.waived = true);
                }
                "transitive-panic" => {
                    f.panics.iter_mut().for_each(|p| p.waived = true);
                }
                _ => {}
            }
        }
    }
}

// ---- items -------------------------------------------------------------

/// `impl`/`trait` blocks: (start line, end line, type name).
fn impl_ranges(code: &[String]) -> Vec<(usize, usize, String)> {
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        let t = line.trim_start();
        let header = if let Some(rest) = t.strip_prefix("unsafe impl") {
            Some(("impl", rest))
        } else if let Some(rest) = t.strip_prefix("impl") {
            Some(("impl", rest))
        } else if let Some(p) = t.find("trait ") {
            // `pub trait Backend`, `pub(crate) unsafe trait ...`
            let lead = &t[..p];
            let lead_ok = lead
                .split_whitespace()
                .all(|w| w == "pub" || w.starts_with("pub(") || w == "unsafe");
            if lead_ok {
                Some(("trait", &t[p + "trait ".len()..]))
            } else {
                None
            }
        } else {
            None
        };
        let Some((kind, rest)) = header else { continue };
        if kind == "impl" && !rest.starts_with(['<', ' ']) {
            continue; // `impl_helper(...)` or similar identifier
        }
        let Some(name) = impl_type_name(kind, rest) else {
            continue;
        };
        if let Some(end) = match_block(code, i, line.len() - t.len()) {
            out.push((i, end, name));
        }
    }
    out
}

/// Extract the type name from an impl/trait header remainder
/// (everything after the keyword on the same line).
fn impl_type_name(kind: &str, rest: &str) -> Option<String> {
    let mut s = rest.trim_start();
    // Skip the generic-parameter list right after the keyword.
    if s.starts_with('<') {
        let mut depth = 0i32;
        let mut cut = s.len();
        for (i, c) in s.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        s = s[cut..].trim_start();
    }
    // `impl Trait for Type {` → the Type side names the methods.
    if kind == "impl" {
        if let Some(pos) = word_positions(s, "for").into_iter().next_back() {
            s = s[pos + 3..].trim_start();
        }
    }
    // Strip up to the body/where-clause, then take the last path
    // segment without generic args: `&'a mut vec::Vec<T>` → `Vec`.
    let stop = s
        .find('{')
        .or_else(|| word_positions(s, "where").into_iter().next())
        .unwrap_or(s.len());
    s = s[..stop].trim();
    for pre in ["&", "'", "mut ", "dyn "] {
        while let Some(r) = s.strip_prefix(pre) {
            s = r.trim_start();
        }
    }
    let seg = s.split("::").last().unwrap_or(s);
    let name: String = seg
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Line of the `}` matching the first `{` at/after (line, col).
/// Returns `None` for `;`-terminated (bodiless) items.
fn match_block(code: &[String], line: usize, col: usize) -> Option<usize> {
    let mut depth = 0i32;
    // Square/paren depth: a `;` inside `[u8; N]` or `(a; b)` does not
    // terminate the item header.
    let mut nest = 0i32;
    let mut l = line;
    let mut c = col;
    while l < code.len() {
        let bytes = code[l].as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(l);
                    }
                }
                b'[' | b'(' => nest += 1,
                b']' | b')' => nest -= 1,
                b';' if depth == 0 && nest <= 0 => return None,
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
    }
    None
}

/// Every `fn` item in the file, with body ranges and context types.
fn collect_fns(ctx: &FileCtx, impls: &[(usize, usize, String)]) -> Vec<FnDef> {
    let code = &ctx.code;
    let mut out = Vec::new();
    for (i, line) in code.iter().enumerate() {
        for pos in word_positions(line, "fn") {
            let rest = &line[pos + 2..];
            let name: String = rest
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if name.is_empty() {
                continue; // `fn` in `Fn()` is excluded by word bounds; `fn(` ptr types land here
            }
            // Closures/`fn` pointer types never carry a name directly
            // after the keyword, so this is a real item. Find its body.
            let body_end = match_block(code, i, pos);
            let (end, has_body) = match body_end {
                Some(e) => (e, true),
                None => (i, false),
            };
            let owner = impls
                .iter()
                .filter(|(s, e, _)| *s <= i && i <= *e)
                .max_by_key(|(s, _, _)| *s)
                .map(|(_, _, n)| n.clone());
            let qual = match &owner {
                Some(t) => format!("{}::{}::{}", ctx.rel_path, t, name),
                None => format!("{}::{}", ctx.rel_path, name),
            };
            let mut waivers = Vec::new();
            for rule in [
                "transitive-panic",
                "lock-order",
                "blocking-under-lock",
                "metric-drift",
            ] {
                if annotated(ctx, i, &format!("lint:allow({rule})")) {
                    waivers.push(rule.to_owned());
                }
            }
            out.push(FnDef {
                name,
                qual,
                line: i,
                end,
                has_body,
                is_test: ctx.in_test[i],
                hot_root: annotated(ctx, i, "lint:hot-root"),
                waivers,
                calls: Vec::new(),
                panics: Vec::new(),
                guards: Vec::new(),
                blocking: Vec::new(),
            });
        }
    }
    out
}

// ---- sites -------------------------------------------------------------

/// Scan the whole file for call/panic/guard/blocking sites and attach
/// each to the innermost containing function.
fn attribute_sites(ctx: &FileCtx, fns: &mut Vec<FnDef>) {
    // Innermost containing fn per site line: smallest enclosing range.
    let owner_of = |line: usize, fns: &Vec<FnDef>| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.has_body && f.line <= line && line <= f.end)
            .min_by_key(|(_, f)| f.end - f.line)
            .map(|(k, _)| k)
    };
    // Definition lines: `fn name(` must not read as a call to `name`.
    let def_sites: Vec<(usize, String)> = fns.iter().map(|f| (f.line, f.name.clone())).collect();

    for i in 0..ctx.code.len() {
        let Some(k) = owner_of(i, fns) else { continue };
        let line = ctx.code[i].clone();
        let in_test = ctx.in_test[i];

        scan_calls(ctx, i, &line, in_test, &def_sites, &mut fns[k].calls);
        scan_panics(ctx, i, &line, in_test, &mut fns[k].panics);
        scan_blocking(ctx, i, &line, in_test, &mut fns[k].blocking);
        scan_guards(ctx, i, &line, in_test, &mut fns[k].guards);
    }
}

fn scan_calls(
    ctx: &FileCtx,
    i: usize,
    line: &str,
    in_test: bool,
    def_sites: &[(usize, String)],
    out: &mut Vec<Call>,
) {
    let bytes = line.as_bytes();
    let mut at = 0usize;
    while at < bytes.len() {
        if !is_ident_byte(bytes[at]) || (at > 0 && is_ident_byte(bytes[at - 1])) {
            at += 1;
            continue;
        }
        let mut end = at;
        while end < bytes.len() && is_ident_byte(bytes[end]) {
            end += 1;
        }
        let ident = &line[at..end];
        // Next non-space char decides: `(` call, `!` macro (skip).
        let mut n = end;
        while n < bytes.len() && bytes[n] == b' ' {
            n += 1;
        }
        if n >= bytes.len() || bytes[n] != b'(' {
            at = end;
            continue;
        }
        if KEYWORDS.contains(&ident)
            || ident.starts_with(|c: char| c.is_ascii_uppercase() || c.is_ascii_digit())
        {
            at = end; // variants/tuple-structs (`Some(`, `Ok(`) and keywords
            continue;
        }
        if def_sites.iter().any(|(l, nm)| *l == i && nm == ident) {
            at = end; // this is the definition, not a call
            continue;
        }
        // Qualifier: `recv.ident(` or `Path::ident(`.
        let (qualifier, method) = if at >= 1 && bytes[at - 1] == b'.' {
            (Some(path_before(line, at - 1)), true)
        } else if at >= 2 && &line[at - 2..at] == "::" {
            let q = path_before(line, at - 2);
            let seg = q.rsplit("::").next().unwrap_or(&q).to_owned();
            (Some(seg), false)
        } else {
            (None, false)
        };
        out.push(Call {
            callee: ident.to_owned(),
            qualifier: qualifier.filter(|q| !q.is_empty()),
            method,
            line: i,
            in_test,
            waived_lock_order: waived(ctx, i, "lock-order"),
        });
        at = end;
    }
}

/// The dotted/`::` path expression ending just before byte `end`
/// (exclusive): for `self.shared.state.lock` with `end` at the last
/// `.`, returns `self.shared.state`.
fn path_before(line: &str, end: usize) -> String {
    let bytes = line.as_bytes();
    let mut s = end;
    while s > 0 {
        let b = bytes[s - 1];
        if is_ident_byte(b) || b == b'.' || b == b':' {
            s -= 1;
        } else {
            break;
        }
    }
    line[s..end].trim_matches(|c| c == '.' || c == ':').to_owned()
}

fn scan_panics(ctx: &FileCtx, i: usize, line: &str, in_test: bool, out: &mut Vec<PanicSite>) {
    let site_waived = waived(ctx, i, "hot-path-panic") || waived(ctx, i, "transitive-panic");
    let mut push = |what: &'static str| {
        out.push(PanicSite {
            line: i,
            what,
            waived: site_waived,
            in_test,
        })
    };
    for (pat, what) in [(".unwrap()", "`.unwrap()`"), (".expect(", "`.expect()`")] {
        if line.contains(pat) {
            push(what);
        }
    }
    for (mac, what) in [
        ("panic!", "`panic!`"),
        ("unreachable!", "`unreachable!`"),
        ("todo!", "`todo!`"),
        ("unimplemented!", "`unimplemented!`"),
    ] {
        if word_positions(line, &mac[..mac.len() - 1])
            .iter()
            .any(|&p| line[p..].starts_with(mac))
        {
            push(what);
        }
    }
    // Indexing `expr[...]`: `[` directly after an ident, `)` or `]`.
    // `[..]` (full-range slicing) is infallible and skipped.
    let bytes = line.as_bytes();
    for (p, b) in bytes.iter().enumerate() {
        if *b == b'[' && p > 0 && (is_ident_byte(bytes[p - 1]) || bytes[p - 1] == b')' || bytes[p - 1] == b']')
        {
            if line[p..].starts_with("[..]") {
                continue;
            }
            push("indexing");
        }
    }
}

/// Blocking-operation tokens: substring patterns over the code channel.
const BLOCKING_TOKENS: &[&str] = &[
    "std::fs::",
    "File::open(",
    "File::create(",
    "OpenOptions::new",
    ".sync_all(",
    ".sync_data(",
    ".read_to_end(",
    ".read_to_string(",
    ".write_all(",
    "thread::sleep",
    ".recv()",
    ".join()",
    ".wait()",
    ".take_blocking(",
    ".acquire(",
    ".read_into(",
];
/// Condvar waits; only a problem with a *second* guard live.
const CONDVAR_TOKENS: &[&str] = &[".wait(&mut", ".wait_while(", ".wait_timeout("];
/// Backend trait calls: blocking tier I/O when the receiver is a
/// backend handle.
const BACKEND_METHODS: &[&str] = &[".read(", ".write(", ".delete(", ".contains("];

fn scan_blocking(ctx: &FileCtx, i: usize, line: &str, in_test: bool, out: &mut Vec<BlockSite>) {
    let site_waived = waived(ctx, i, "blocking-under-lock");
    for tok in CONDVAR_TOKENS {
        if line.contains(tok) {
            out.push(BlockSite {
                line: i,
                what: format!("`{}`", tok.trim_end_matches("&mut")),
                condvar: true,
                waived: site_waived,
                in_test,
            });
        }
    }
    for tok in BLOCKING_TOKENS {
        if line.contains(tok) {
            out.push(BlockSite {
                line: i,
                what: format!("`{tok}`"),
                condvar: false,
                waived: site_waived,
                in_test,
            });
        }
    }
    for tok in BACKEND_METHODS {
        for (p, _) in line.match_indices(tok) {
            let recv = path_before(line, p);
            let tail = recv.rsplit(['.', ':']).next().unwrap_or("");
            if tail == "backend" || tail.ends_with("_backend") || tail == "inner" && ctx.crate_dir == "storage" {
                out.push(BlockSite {
                    line: i,
                    what: format!("backend call `{tok})`"),
                    condvar: false,
                    waived: site_waived,
                    in_test,
                });
            }
        }
    }
}

fn scan_guards(ctx: &FileCtx, i: usize, line: &str, in_test: bool, out: &mut Vec<GuardScope>) {
    for (p, _) in line.match_indices(".lock()") {
        let recv = path_before(line, p);
        let lock = lock_identity(ctx, &recv, i);
        // Scope: a `let`-bound guard lives to the end of the enclosing
        // block (or an explicit `drop(binding)`); a temporary lives to
        // the end of its statement — approximated as its line, except
        // `match expr.lock()` temporaries which live for the whole arm
        // block.
        let has_let = line[..p].contains("let ");
        let is_match = !word_positions(&line[..p], "match").is_empty();
        let end = if has_let || is_match {
            let block_close = enclosing_block_end(&ctx.code, i, p);
            let binding = has_let.then(|| binding_name(&line[..p])).flatten();
            match binding {
                Some(b) => drop_line(&ctx.code, i, block_close, &b).unwrap_or(block_close),
                None => block_close,
            }
        } else {
            i
        };
        out.push(GuardScope {
            lock,
            recv,
            line: i,
            col: p,
            end,
            waived: waived(ctx, i, "lock-order"),
            in_test,
        });
    }
}

/// Canonical lock identity: `crate_dir/file_stem.receiver_tail`, so the
/// same field locked from several methods of one type maps to one node.
/// Unknown receivers (e.g. a guard returned by a helper call) get a
/// line-unique identity: they can extend chains but never falsely merge.
fn lock_identity(ctx: &FileCtx, recv: &str, lineno: usize) -> String {
    let stem = std::path::Path::new(&ctx.rel_path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    let segs: Vec<&str> = recv
        .split(['.', ':'])
        .filter(|s| !s.is_empty() && *s != "self")
        .collect();
    let tail = match segs.as_slice() {
        [] => return format!("{}/{stem}.expr@{}", ctx.crate_dir, lineno + 1),
        // Tuple-field access (`state.0`): keep the named parent too.
        [.., a, b] if b.chars().all(|c| c.is_ascii_digit()) => format!("{a}.{b}"),
        [.., a] => (*a).to_owned(),
    };
    format!("{}/{stem}.{tail}", ctx.crate_dir)
}

/// First ident of the pattern in `let <pat> = ...` (the text before the
/// `=`). Tuple patterns return `None`.
fn binding_name(before: &str) -> Option<String> {
    let p = before.rfind("let ")?;
    let pat = before[p + 4..].split('=').next()?.trim();
    let pat = pat.trim_start_matches("mut ").trim_start();
    if pat.starts_with('(') {
        return None;
    }
    let name: String = pat
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Last line of the block enclosing position (line, col): scan forward
/// tracking depth; the `}` that takes depth negative closes the block.
fn enclosing_block_end(code: &[String], line: usize, col: usize) -> usize {
    let mut depth = 0i32;
    let mut l = line;
    let mut c = col;
    while l < code.len() {
        let bytes = code[l].as_bytes();
        while c < bytes.len() {
            match bytes[c] {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth < 0 {
                        return l;
                    }
                }
                _ => {}
            }
            c += 1;
        }
        l += 1;
        c = 0;
    }
    code.len().saturating_sub(1)
}

/// Line of an explicit `drop(<binding>)` between `from` and `to`.
fn drop_line(code: &[String], from: usize, to: usize, binding: &str) -> Option<usize> {
    let needle = format!("drop({binding})");
    (from..=to.min(code.len() - 1)).find(|&l| code[l].contains(&needle))
}

// ---- meters ------------------------------------------------------------

/// Meter-name extraction: direct `counter("x")` / `gauge(&format!(..))`
/// registrations plus the meter-closure idiom. Returns
/// `(non_test_sites, test_asserted_sites)`.
fn collect_meters(ctx: &FileCtx) -> (Vec<MeterSite>, Vec<MeterSite>) {
    let mut out = Vec::new();
    let mut asserted = Vec::new();
    // File-local meter closures: name → (format string, kind).
    let mut closures: std::collections::HashMap<String, (String, String, &'static str)> =
        std::collections::HashMap::new();

    for (i, line) in ctx.code.iter().enumerate() {
        let site_waived = waived(ctx, i, "metric-drift");
        for (kind_tok, kind) in [
            ("counter", "counter"),
            ("gauge", "gauge"),
            ("histogram", "histogram"),
        ] {
            for p in word_positions(line, kind_tok) {
                // Registration is a method call: `.counter(`.
                if p == 0 || line.as_bytes()[p - 1] != b'.' {
                    continue;
                }
                if !line[p + kind_tok.len()..].trim_start().starts_with('(') {
                    continue;
                }
                let Some(lit) = ctx
                    .literals
                    .iter()
                    .find(|l| l.line == i && l.col > p)
                else {
                    continue;
                };
                // Meter-closure definition: `let c = |m: &str| t.counter(&format!("fmt"))`
                // registers a template instead of emitting a name.
                let before = &line[..p];
                if let (Some(lp), true) = (before.find("let "), before.contains('|')) {
                    let cname: String = before[lp + 4..]
                        .trim_start()
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    let param: String = before
                        .find('|')
                        .map(|bp| {
                            before[bp + 1..]
                                .trim_start()
                                .chars()
                                .take_while(|c| c.is_alphanumeric() || *c == '_')
                                .collect()
                        })
                        .unwrap_or_default();
                    if !cname.is_empty() && !param.is_empty() {
                        closures.insert(cname, (lit.text.clone(), param, kind));
                        continue;
                    }
                }
                let site = MeterSite {
                    name: wildcard(&lit.text),
                    line: i,
                    kind,
                    waived: site_waived,
                };
                if ctx.in_test[i] {
                    asserted.push(site);
                } else {
                    out.push(site);
                }
            }
        }
        // Closure application sites: `c("reads")`.
        for (cname, (fmt, param, kind)) in &closures {
            for p in word_positions(line, cname) {
                if !line[p + cname.len()..].starts_with('(') {
                    continue;
                }
                if p > 0 && line.as_bytes()[p - 1] == b'.' {
                    continue;
                }
                let Some(lit) = ctx
                    .literals
                    .iter()
                    .find(|l| l.line == i && l.col > p)
                else {
                    continue;
                };
                let name = wildcard(&fmt.replace(&format!("{{{param}}}"), &lit.text));
                let site = MeterSite {
                    name,
                    line: i,
                    kind,
                    waived: site_waived,
                };
                if ctx.in_test[i] {
                    asserted.push(site);
                } else {
                    out.push(site);
                }
            }
        }
    }
    (out, asserted)
}

/// Replace every `{...}` / `{}` format placeholder with `*`.
pub fn wildcard(fmt: &str) -> String {
    let mut out = String::with_capacity(fmt.len());
    let mut depth = 0u32;
    for c in fmt.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(crate_dir: &str, src: &str) -> ParsedFile {
        parse(&FileCtx::from_source(
            &format!("crates/{crate_dir}/src/file.rs"),
            crate_dir,
            src,
        ))
    }

    #[test]
    fn fns_and_impl_context_are_extracted() {
        let src = "\
impl Engine {
    pub fn submit(&self) -> u8 {
        self.run()
    }
}
fn free() {}
trait T {
    fn decl(&self);
    fn dflt(&self) { helper() }
}
";
        let p = parsed("aio", src);
        let names: Vec<&str> = p.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["submit", "free", "decl", "dflt"]);
        assert_eq!(p.fns[0].qual, "crates/aio/src/file.rs::Engine::submit");
        assert!(p.fns[0].has_body);
        assert_eq!(p.fns[0].end, 3);
        assert!(!p.fns[2].has_body);
        assert_eq!(p.fns[3].qual, "crates/aio/src/file.rs::T::dflt");
        // `submit` calls `run`; the definition line is not a self-call.
        assert_eq!(p.fns[0].calls.len(), 1);
        assert_eq!(p.fns[0].calls[0].callee, "run");
        assert!(p.fns[0].calls[0].method);
        assert_eq!(p.fns[3].calls[0].callee, "helper");
    }

    #[test]
    fn panic_sites_and_waivers() {
        let src = "\
fn f(v: &[u8], x: Option<u8>) -> u8 {
    let a = v[0];
    let b = x.unwrap();
    // lint:allow(transitive-panic): bounded by caller contract
    let c = v[1];
    let d = &v[..];
    panic!(\"boom\")
}
";
        let p = parsed("aio", src);
        let f = &p.fns[0];
        let live: Vec<_> = f.panics.iter().filter(|s| !s.waived).collect();
        assert_eq!(live.len(), 3, "{:?}", live.iter().map(|s| (s.line, s.what)).collect::<Vec<_>>());
        assert!(f.panics.iter().any(|s| s.waived && s.line == 4));
        // `&v[..]` is infallible full-range slicing — line 5 clean.
        assert!(!f.panics.iter().any(|s| s.line == 5));
    }

    #[test]
    fn guard_scopes_track_let_drop_and_temporaries() {
        let src = "\
fn f(&self) {
    let mut st = self.shared.state.lock();
    st.n += 1;
    drop(st);
    self.other.lock().touch();
    {
        let g = self.inner.lock();
        g.use_it();
    }
}
";
        let p = parsed("aio", src);
        let g = &p.fns[0].guards;
        assert_eq!(g.len(), 3, "{:?}", g.iter().map(|x| &x.lock).collect::<Vec<_>>());
        assert_eq!(g[0].lock, "aio/file.state");
        assert_eq!((g[0].line, g[0].end), (1, 3)); // ends at drop(st)
        assert_eq!((g[1].line, g[1].end), (4, 4)); // temporary: one line
        assert_eq!((g[2].line, g[2].end), (6, 8)); // inner block close
    }

    #[test]
    fn meters_direct_format_and_closure_idiom() {
        let src = "\
fn wire(trace: &TraceSink, backend: &str) {
    let c = |meter: &str| trace.counter(&format!(\"aio.{backend}.{meter}\"));
    c(\"reads\");
    c(\"writes\");
    trace.gauge(&format!(\"aio.{backend}.inflight\"));
    trace.counter(\"planner.replans\");
}
#[cfg(test)]
mod tests {
    fn t(trace: &TraceSink) { trace.counter(\"aio.mem.reads\"); }
}
";
        let p = parsed("aio", src);
        let names: Vec<&str> = p.meters.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["aio.*.reads", "aio.*.writes", "aio.*.inflight", "planner.replans"]
        );
        assert_eq!(p.asserted_meters.len(), 1);
        assert_eq!(p.asserted_meters[0].name, "aio.mem.reads");
    }

    #[test]
    fn blocking_sites_and_condvar_waits() {
        let src = "\
fn f(&self, cv: &Condvar) {
    let mut st = self.state.lock();
    cv.wait(&mut st);
    std::fs::write(\"x\", b\"y\");
    self.backend.read(key);
    handle.wait();
}
";
        let p = parsed("aio", src);
        let b = &p.fns[0].blocking;
        assert!(b.iter().any(|s| s.condvar && s.line == 2));
        assert!(b.iter().any(|s| !s.condvar && s.line == 3));
        assert!(b.iter().any(|s| s.what.starts_with("backend call") && s.line == 4));
        assert!(b.iter().any(|s| s.what == "`.wait()`" && s.line == 5));
    }

    #[test]
    fn hot_root_annotation_and_fn_waivers() {
        let src = "\
// lint:hot-root — entry of the submit path
fn submit() { go() }

// lint:allow(transitive-panic): init-time only, bounded input
fn setup(v: &[u8]) -> u8 { v[0] }
";
        let p = parsed("aio", src);
        assert!(p.fns[0].hot_root);
        assert!(p.fns[1].waivers.iter().any(|w| w == "transitive-panic"));
    }

    #[test]
    fn wildcard_handles_nested_and_positional() {
        assert_eq!(wildcard("aio.{backend}.reads"), "aio.*.reads");
        assert_eq!(wildcard("tier.{}.{meter}"), "tier.*.*");
        assert_eq!(wildcard("plain.name"), "plain.name");
    }
}
