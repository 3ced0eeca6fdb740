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
//!   and slice/array indexing) and their waivers,
//! * trace meter registrations (`counter(` / `gauge(` / `histogram(`),
//!   including the one-line meter-closure idiom
//!   (`let c = |m: &str| trace.counter(&format!("aio.{b}.{m}"));`).
//!
//! Everything is a *best-effort, over-approximating* extraction; the
//! blind spots (trait-object dispatch targets, macro-generated code,
//! std APIs that panic) are documented in DESIGN.md §13.

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
    /// Every panic site in the body is waived: `lint:allow(transitive-panic)`
    /// above the signature, or `lint:allow-file(transitive-panic)` anywhere
    /// in the file.
    pub panics_waived: bool,
    pub calls: Vec<Call>,
    pub panics: Vec<PanicSite>,
}

/// One call site inside a function body.
pub struct Call {
    pub callee: String,
    /// `Type` for `Type::callee(`, the receiver path for `.callee(`.
    pub qualifier: Option<String>,
    pub method: bool,
    pub line: usize,
    pub in_test: bool,
}

/// One potential panic site.
pub struct PanicSite {
    pub line: usize,
    /// Human label: `panic!`, `.unwrap()`, `indexing`...
    pub what: &'static str,
    /// Waived via `lint:allow(transitive-panic)` at the site, or by an
    /// `#[expect(clippy::<its lint>)]` on the statement or fn around it.
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
    let impls = impl_ranges(&ctx.code);
    let mut fns = collect_fns(ctx, &impls);
    attribute_sites(ctx, &mut fns);
    // The escape for whole files that are deliberate non-production
    // paths, like the model checker whose schedule aborts *are* panics.
    if ctx
        .comments
        .iter()
        .any(|l| l.contains("lint:allow-file(transitive-panic)"))
    {
        fns.iter_mut().for_each(|f| f.panics_waived = true);
    }
    let (meters, asserted_meters) = collect_meters(ctx);
    ParsedFile {
        rel_path: ctx.rel_path.clone(),
        crate_dir: ctx.crate_dir.clone(),
        fns,
        meters,
        asserted_meters,
        literals: ctx.literals.clone(),
        ext_crates: ext_crates(ctx),
    }
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
            out.push(FnDef {
                name,
                qual,
                line: i,
                end,
                has_body,
                is_test: ctx.in_test[i],
                hot_root: annotated(ctx, i, "lint:hot-root"),
                panics_waived: waived(ctx, i, "transitive-panic"),
                calls: Vec::new(),
                panics: Vec::new(),
            });
        }
    }
    out
}

// ---- sites -------------------------------------------------------------

/// Scan the whole file for call and panic sites and attach each to the
/// innermost containing function.
fn attribute_sites(ctx: &FileCtx, fns: &mut [FnDef]) {
    // Innermost containing fn per site line: smallest enclosing range.
    let owner_of = |line: usize, fns: &[FnDef]| -> Option<usize> {
        fns.iter()
            .enumerate()
            .filter(|(_, f)| f.has_body && f.line <= line && line <= f.end)
            .min_by_key(|(_, f)| f.end - f.line)
            .map(|(k, _)| k)
    };
    // Definition lines: `fn name(` must not read as a call to `name`.
    let def_sites: Vec<(usize, String)> = fns.iter().map(|f| (f.line, f.name.clone())).collect();
    let expects = expect_waivers(&ctx.code);

    for (i, line) in ctx.code.iter().enumerate() {
        let Some(k) = owner_of(i, fns) else { continue };
        let in_test = ctx.in_test[i];
        scan_calls(i, line, in_test, &def_sites, &mut fns[k].calls);
        scan_panics(ctx, i, line, &expects, &mut fns[k].panics);
    }
}

fn scan_calls(
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

/// Panic-family calls and macros: (code pattern, label, the clippy lint
/// that denies it in the hot crates).
const PANIC_CALLS: &[(&str, &str, &str)] = &[
    (".unwrap()", "`.unwrap()`", "unwrap_used"),
    (".expect(", "`.expect()`", "expect_used"),
];
const PANIC_MACROS: &[(&str, &str, &str)] = &[
    ("panic!", "`panic!`", "panic"),
    ("unreachable!", "`unreachable!`", "unreachable"),
    ("todo!", "`todo!`", "todo"),
    ("unimplemented!", "`unimplemented!`", "unimplemented"),
];

/// An `#[expect(clippy::…)]` attribute: the clippy lints it names and the
/// lines of the statement or item it annotates, attribute included.
struct ExpectWaiver {
    lints: Vec<String>,
    first: usize,
    last: usize,
}

fn scan_panics(
    ctx: &FileCtx,
    i: usize,
    line: &str,
    expects: &[ExpectWaiver],
    out: &mut Vec<PanicSite>,
) {
    let commented = waived(ctx, i, "transitive-panic");
    let mut push = |what: &'static str, lint: Option<&str>| {
        let expected = lint.is_some_and(|lint| {
            expects
                .iter()
                .any(|e| e.first <= i && i <= e.last && e.lints.iter().any(|l| l == lint))
        });
        out.push(PanicSite {
            line: i,
            what,
            waived: commented || expected,
            in_test: ctx.in_test[i],
        })
    };
    for (pat, what, lint) in PANIC_CALLS {
        if line.contains(pat) {
            push(what, Some(lint));
        }
    }
    for (mac, what, lint) in PANIC_MACROS {
        if word_positions(line, &mac[..mac.len() - 1])
            .iter()
            .any(|&p| line[p..].starts_with(mac))
        {
            push(what, Some(lint));
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
            push("indexing", None);
        }
    }
}

/// Every `#[expect(clippy::…)]` attribute in the file with the span it
/// covers: up to the `;` that ends a statement, or the `}` that closes an
/// item's body (a `let` statement's blocks do not end it). The span is
/// what rustc's `unfulfilled_lint_expectations` holds the attribute to,
/// so one waiver serves both tools.
fn expect_waivers(code: &[String]) -> Vec<ExpectWaiver> {
    let mut out = Vec::new();
    for (first, line) in code.iter().enumerate() {
        let Some(col) = line.find("#[expect(") else {
            continue;
        };
        let mut attr = String::new();
        let mut in_attr = true;
        let mut is_let = None;
        let mut depth = 0i32;
        let mut last = code.len() - 1;
        'scan: for (l, text) in code.iter().enumerate().skip(first) {
            let from = if l == first { col + 1 } else { 0 };
            for (c, b) in text.bytes().enumerate().skip(from) {
                let top = depth == 0;
                match b {
                    b'(' | b'[' | b'{' => depth += 1,
                    b')' | b']' | b'}' => depth -= 1,
                    _ => {}
                }
                if in_attr {
                    // The attribute's own brackets, up to its `]`.
                    in_attr = depth > 0;
                    attr.push(b as char);
                    continue;
                }
                if top && is_let.is_none() && b.is_ascii_alphabetic() {
                    is_let = Some(text[c..].starts_with("let "));
                }
                let closes_item = b == b'}' && depth == 0 && is_let != Some(true);
                if depth < 0 || (b == b';' && depth == 0) || closes_item {
                    last = l;
                    break 'scan;
                }
            }
        }
        let lints = attr
            .split("clippy::")
            .skip(1)
            .map(|s| {
                s.bytes()
                    .take_while(|b| is_ident_byte(*b))
                    .map(char::from)
                    .collect()
            })
            .collect();
        out.push(ExpectWaiver { lints, first, last });
    }
    out
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
    #[expect(clippy::expect_used, reason = \"spawned once\")]
    let e = spawn()
        .expect(\"spawn\");
    #[expect(clippy::expect_used, reason = \"names one lint only\")]
    let g = x.unwrap();
    panic!(\"boom\")
}
#[expect(clippy::expect_used, reason = \"Some until drop\")]
fn h(x: Option<u8>) -> u8 {
    x.expect(\"present\")
}
fn after(x: Option<u8>) -> u8 {
    x.expect(\"live\")
}
";
        let p = parsed("aio", src);
        let live = |f: &FnDef| -> Vec<(usize, &str)> {
            f.panics
                .iter()
                .filter(|s| !s.waived)
                .map(|s| (s.line, s.what))
                .collect()
        };
        assert_eq!(
            live(&p.fns[0]),
            vec![
                (1, "indexing"),
                (2, "`.unwrap()`"),
                (10, "`.unwrap()`"),
                (11, "`panic!`")
            ]
        );
        assert!(p.fns[0].panics.iter().any(|s| s.waived && s.line == 4));
        // `&v[..]` is infallible full-range slicing — line 5 clean.
        assert!(!p.fns[0].panics.iter().any(|s| s.line == 5));
        // Statement form: the attribute covers the whole `let`.
        assert!(p.fns[0].panics.iter().any(|s| s.waived && s.line == 8));
        // Fn form covers the body, and ends with it.
        assert!(live(&p.fns[1]).is_empty());
        assert_eq!(live(&p.fns[2]), vec![(18, "`.expect()`")]);
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
    fn hot_root_annotation_and_fn_waivers() {
        let src = "\
// lint:hot-root — entry of the submit path
fn submit() { go() }

// lint:allow(transitive-panic): init-time only, bounded input
fn setup(v: &[u8]) -> u8 { v[0] }
";
        let p = parsed("aio", src);
        assert!(p.fns[0].hot_root);
        assert!(p.fns[1].panics_waived);
    }

    #[test]
    fn wildcard_handles_nested_and_positional() {
        assert_eq!(wildcard("aio.{backend}.reads"), "aio.*.reads");
        assert_eq!(wildcard("tier.{}.{meter}"), "tier.*.*");
        assert_eq!(wildcard("plain.name"), "plain.name");
    }
}
