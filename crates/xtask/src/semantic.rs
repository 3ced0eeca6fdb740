//! Workspace-wide semantic analyses over the [`crate::parser`] output.
//!
//! Two global checks run on the assembled workspace (DESIGN.md §13):
//!
//! * **`transitive-panic`** — graph reachability from `lint:hot-root`
//!   annotated functions to any unwaived panic site (`panic!`-family,
//!   `.unwrap()`, `.expect(`, indexing), through the resolved call
//!   graph. Clippy's panic lints judge each *site* of the hot crates;
//!   this check follows the hot paths wherever they lead, including
//!   into cold crates, and flags indexing only where a hot path reaches.
//! * **`metric-drift`** — every meter name registered in non-test code
//!   must appear in OBSERVABILITY.md and vice versa (`{...}`
//!   placeholders match as wildcards); every `Phase::as_str` span name
//!   must be in the taxonomy table and vice versa; every meter name
//!   asserted by a test must be emitted by some code path.
//!
//! Both analyses are best-effort over-approximations; known blind spots
//! and the waiver policy are documented in DESIGN.md §13.

use crate::parser::{wildcard, ParsedFile};
use crate::rules::Violation;
use std::collections::{HashMap, HashSet, VecDeque};

/// Callee names never resolved through the call graph: std-predominant
/// names where by-name resolution would wire unrelated code together.
const SKIP_RESOLVE: &[&str] = &[
    "as_bytes", "as_mut", "as_ref", "borrow", "borrow_mut", "clone", "cmp", "collect", "cols",
    "contains", "default", "deref", "deref_mut", "drop", "entry", "eq", "extend", "fill", "filter",
    "flush", "fmt", "from", "get", "hash", "insert", "into", "into_iter", "is_empty", "iter",
    "iter_mut", "len", "map", "ne", "next", "partial_cmp", "push", "remove", "rows", "serialize",
    "to_owned", "to_string", "to_vec", "try_from", "try_into", "with_capacity",
];

/// The assembled workspace: every parsed file plus flattened indices.
pub struct Workspace {
    pub files: Vec<ParsedFile>,
    /// Flattened function references: `(file index, fn index)`.
    fns: Vec<(usize, usize)>,
    /// Bare name → flattened indices (test fns excluded).
    by_name: HashMap<String, Vec<usize>>,
}

/// Meter/span names harvested from OBSERVABILITY.md tables.
pub struct DocNames {
    pub rel_path: String,
    /// Dotted meter names (wildcarded), with 0-based doc line.
    pub meters: Vec<(String, usize)>,
    /// Span (phase) names, with 0-based doc line.
    pub spans: Vec<(String, usize)>,
}

impl Workspace {
    pub fn build(files: Vec<ParsedFile>) -> Self {
        let mut fns = Vec::new();
        let mut by_name: HashMap<String, Vec<usize>> = HashMap::new();
        for (fi, file) in files.iter().enumerate() {
            for (gi, f) in file.fns.iter().enumerate() {
                let idx = fns.len();
                fns.push((fi, gi));
                if !f.is_test {
                    by_name.entry(f.name.clone()).or_default().push(idx);
                }
            }
        }
        Workspace {
            files,
            fns,
            by_name,
        }
    }

    fn fn_at(&self, idx: usize) -> &crate::parser::FnDef {
        let (fi, gi) = self.fns[idx];
        &self.files[fi].fns[gi]
    }

    fn file_of(&self, idx: usize) -> &ParsedFile {
        &self.files[self.fns[idx].0]
    }

    /// Short display name for messages: `Type::name` or `name`.
    fn short(&self, idx: usize) -> String {
        let q = &self.fn_at(idx).qual;
        match q.find(".rs::") {
            Some(p) => q[p + 5..].to_owned(),
            None => q.clone(),
        }
    }

    /// Resolve one call to candidate workspace functions, best-effort:
    /// by bare name, narrowed by an uppercase `Type::` qualifier when
    /// present. Method calls (`x.f(`) resolve to any same-named method
    /// (an over-approximation of trait-object dispatch).
    fn resolve(&self, caller_file: usize, call: &crate::parser::Call) -> Vec<usize> {
        if SKIP_RESOLVE.contains(&call.callee.as_str()) {
            return Vec::new();
        }
        let Some(cands) = self.by_name.get(&call.callee) else {
            return Vec::new();
        };
        // A call can only land in the caller's own crate or one it
        // references through an `mlp_*` path — a same-named method in an
        // unrelated crate is not a candidate.
        let caller = &self.files[caller_file];
        let cands: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&k| {
                let cd = &self.file_of(k).crate_dir;
                *cd == caller.crate_dir || caller.ext_crates.contains(cd)
            })
            .collect();
        let cands = &cands;
        if let (Some(q), false) = (&call.qualifier, call.method) {
            if q.starts_with(|c: char| c.is_ascii_uppercase()) {
                let needle = format!("::{q}::");
                return cands
                    .iter()
                    .copied()
                    .filter(|&k| self.fn_at(k).qual.contains(&needle))
                    .collect();
                // Empty result = a std/foreign type: resolves to nothing.
            }
            // A lowercase module qualifier (`fs::write`, `mem::take`)
            // resolves only into files whose path contains that module
            // name; std/foreign modules thus resolve to nothing instead
            // of aliasing every same-named workspace fn. `self`/`super`/
            // `crate` paths stay broad (same-crate, unknown file).
            if !matches!(q.as_str(), "self" | "super" | "crate") {
                let seg_dir = format!("/{q}/");
                let seg_file = format!("/{q}.rs");
                return cands
                    .iter()
                    .copied()
                    .filter(|&k| {
                        let p = &self.file_of(k).rel_path;
                        p.contains(&seg_dir) || p.contains(&seg_file)
                    })
                    .collect();
            }
        }
        if call.method {
            // `.f(` must hit a method (some `Type::f`), not a free fn.
            return cands
                .iter()
                .copied()
                .filter(|&k| {
                    let q = &self.fn_at(k).qual;
                    q.find(".rs::").is_some_and(|p| q[p + 5..].contains("::"))
                })
                .collect();
        }
        cands.clone()
    }

    /// Run every analysis. `doc` is the parsed OBSERVABILITY.md (absent
    /// in doc-less fixture trees: the doc-drift checks are skipped, the
    /// test-assertion check still runs).
    pub fn analyze(&self, doc: Option<&DocNames>) -> Vec<Violation> {
        let mut out = self.transitive_panic();
        out.extend(self.metric_drift(doc));
        out
    }

    // ---- transitive panic reachability ---------------------------------

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.fns.len()];
        for (idx, callees) in adj.iter_mut().enumerate() {
            let f = self.fn_at(idx);
            if f.is_test {
                continue;
            }
            let mut seen = HashSet::new();
            for call in &f.calls {
                if call.in_test {
                    continue;
                }
                for k in self.resolve(self.fns[idx].0, call) {
                    if k != idx && seen.insert(k) {
                        callees.push(k);
                    }
                }
            }
        }
        adj
    }

    fn transitive_panic(&self) -> Vec<Violation> {
        let adj = self.adjacency();
        // Multi-source BFS from every hot root, keeping parents so each
        // finding can print the call chain that reaches it.
        let mut parent: Vec<Option<usize>> = vec![None; self.fns.len()];
        let mut visited = vec![false; self.fns.len()];
        let mut queue = VecDeque::new();
        for (idx, seen) in visited.iter_mut().enumerate() {
            if self.fn_at(idx).hot_root && !self.fn_at(idx).is_test {
                *seen = true;
                queue.push_back(idx);
            }
        }
        let mut order = Vec::new();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &v in &adj[u] {
                if !visited[v] {
                    visited[v] = true;
                    parent[v] = Some(u);
                    queue.push_back(v);
                }
            }
        }

        let mut out = Vec::new();
        let mut reported: HashSet<(usize, usize, &str)> = HashSet::new();
        for &idx in &order {
            let f = self.fn_at(idx);
            if f.panics_waived {
                continue; // fn-level waiver covers every site in the body
            }
            let path = {
                let mut chain = vec![self.short(idx)];
                let mut at = idx;
                while let Some(p) = parent[at] {
                    chain.push(self.short(p));
                    at = p;
                }
                chain.reverse();
                chain.join(" → ")
            };
            for site in &f.panics {
                if site.in_test || site.waived {
                    continue;
                }
                // One report per (line, kind): a line with three index
                // expressions is one finding, not three.
                if !reported.insert((self.fns[idx].0, site.line, site.what)) {
                    continue;
                }
                out.push(Violation {
                    rel_path: self.file_of(idx).rel_path.clone(),
                    line: site.line + 1,
                    rule: "transitive-panic",
                    msg: format!(
                        "{} reachable from hot root via {path}: return a typed \
                         error or waive with `// lint:allow(transitive-panic): \
                         <reason>`",
                        site.what
                    ),
                });
            }
        }
        out
    }

    // ---- metric-name drift ---------------------------------------------

    fn metric_drift(&self, doc: Option<&DocNames>) -> Vec<Violation> {
        let mut out = Vec::new();
        // Emitted meter patterns (non-test, unwaived) across the tree.
        let mut emitted: Vec<(&str, &str, usize)> = Vec::new(); // (name, file, line)
        let mut emitted_all: Vec<&str> = Vec::new(); // incl. waived, for doc-side checks
        for file in &self.files {
            for m in &file.meters {
                emitted_all.push(&m.name);
                if !m.waived {
                    emitted.push((&m.name, &file.rel_path, m.line));
                }
            }
        }
        // Span names: literals inside `Phase::as_str`.
        let mut span_names: Vec<(&str, &str, usize)> = Vec::new();
        for file in &self.files {
            for f in &file.fns {
                if f.name == "as_str" && f.qual.contains("::Phase::") {
                    for lit in &file.literals {
                        if lit.line >= f.line && lit.line <= f.end {
                            span_names.push((&lit.text, &file.rel_path, lit.line));
                        }
                    }
                }
            }
        }

        if let Some(doc) = doc {
            for (name, file, line) in &emitted {
                if !doc.meters.iter().any(|(d, _)| compatible(name, d)) {
                    out.push(Violation {
                        rel_path: (*file).to_owned(),
                        line: line + 1,
                        rule: "metric-drift",
                        msg: format!(
                            "meter `{name}` is emitted but not documented in \
                             {}: add it to the metrics tables (the drift-lint \
                             contract is documented ⇔ emitted)",
                            doc.rel_path
                        ),
                    });
                }
            }
            for (dname, dline) in &doc.meters {
                if !emitted_all.iter().any(|e| compatible(e, dname)) {
                    out.push(Violation {
                        rel_path: doc.rel_path.clone(),
                        line: dline + 1,
                        rule: "metric-drift",
                        msg: format!(
                            "documented meter `{dname}` is not registered \
                             anywhere in the workspace: fix the doc or restore \
                             the meter"
                        ),
                    });
                }
            }
            for (name, file, line) in &span_names {
                if !doc.spans.iter().any(|(d, _)| d == name) {
                    out.push(Violation {
                        rel_path: (*file).to_owned(),
                        line: line + 1,
                        rule: "metric-drift",
                        msg: format!(
                            "span/phase name `{name}` is emitted but missing \
                             from the {} event taxonomy",
                            doc.rel_path
                        ),
                    });
                }
            }
            for (dname, dline) in &doc.spans {
                if !span_names.iter().any(|(n, _, _)| n == dname) {
                    out.push(Violation {
                        rel_path: doc.rel_path.clone(),
                        line: dline + 1,
                        rule: "metric-drift",
                        msg: format!(
                            "documented span/phase `{dname}` has no \
                             `Phase::as_str` arm: fix the doc or restore the \
                             phase"
                        ),
                    });
                }
            }
        }

        // Test-asserted names must exist in code regardless of the doc.
        // The `trace` crate is exempt: it *is* the metrics registry, and
        // its unit tests necessarily register synthetic names (`a`, `b`,
        // `fetch.bytes`) to exercise the machinery — those are not
        // observations of production meters. See DESIGN.md §13.
        for file in &self.files {
            if file.crate_dir == "trace" {
                continue;
            }
            for m in &file.asserted_meters {
                if m.waived {
                    continue;
                }
                if !emitted_all.iter().any(|e| compatible(&m.name, e)) {
                    out.push(Violation {
                        rel_path: file.rel_path.clone(),
                        line: m.line + 1,
                        rule: "metric-drift",
                        msg: format!(
                            "test asserts meter `{}` which no non-test code \
                             registers",
                            m.name
                        ),
                    });
                }
            }
        }
        out
    }
}

/// Segment-wise wildcard compatibility: `aio.*.reads` ~ `aio.{b}.reads`.
fn compatible(a: &str, b: &str) -> bool {
    let sa: Vec<&str> = a.split('.').collect();
    let sb: Vec<&str> = b.split('.').collect();
    sa.len() == sb.len()
        && sa
            .iter()
            .zip(&sb)
            .all(|(x, y)| x == y || *x == "*" || *y == "*")
}

/// Parse OBSERVABILITY.md (or a fixture equivalent): backticked names
/// in the *first cell* of markdown table rows, outside code fences.
/// Dotted names are meters, dotless names are span/phase names. A row
/// like `` `aio.{b}.reads` / `writes` `` expands dotless siblings as
/// last-segment variants of the first dotted name.
pub fn parse_observability(rel_path: &str, text: &str) -> DocNames {
    let mut meters = Vec::new();
    let mut spans = Vec::new();
    let mut in_fence = false;
    for (i, line) in text.lines().enumerate() {
        let t = line.trim_start();
        if t.starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence || !t.starts_with('|') {
            continue;
        }
        let Some(first_cell) = t.trim_start_matches('|').split('|').next() else {
            continue;
        };
        let tokens: Vec<String> = backticked(first_cell)
            .into_iter()
            .filter(|tok|

                tok.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || "_.{}".contains(c))
                    && tok.chars().any(|c| c.is_ascii_lowercase()))
            .collect();
        let Some(firstt) = tokens.first() else { continue };
        if firstt.contains('.') {
            let base = wildcard(firstt);
            meters.push((base.clone(), i));
            for tok in &tokens[1..] {
                if tok.contains('.') {
                    meters.push((wildcard(tok), i));
                } else {
                    // Last-segment sibling: `aio.*.reads` + `writes`.
                    let mut segs: Vec<&str> = base.split('.').collect();
                    let w = wildcard(tok);
                    if let Some(last) = segs.last_mut() {
                        *last = &w;
                    }
                    meters.push((segs.join("."), i));
                }
            }
        } else {
            for tok in &tokens {
                spans.push((wildcard(tok), i));
            }
        }
    }
    DocNames {
        rel_path: rel_path.to_owned(),
        meters,
        spans,
    }
}

/// The `...` spans of one markdown cell.
fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        out.push(after[..close].to_owned());
        rest = &after[close + 1..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::rules::FileCtx;

    fn ws(files: &[(&str, &str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(path, crate_dir, src)| parse(&FileCtx::from_source(path, crate_dir, src)))
                .collect(),
        )
    }

    #[test]
    fn transitive_panic_follows_the_call_chain() {
        let src = "\
// lint:hot-root
fn submit() { step_one() }
fn step_one() { step_two() }
fn step_two(v: &[u8]) -> u8 { v.first().copied().unwrap() }
fn unrelated(v: &[u8]) -> u8 { v[0] }
";
        let v = ws(&[("crates/aio/src/e.rs", "aio", src)]).analyze(None);
        let tp: Vec<_> = v.iter().filter(|x| x.rule == "transitive-panic").collect();
        assert_eq!(tp.len(), 1, "{tp:?}");
        assert_eq!(tp[0].line, 4);
        assert!(tp[0].msg.contains("submit → step_one → step_two"), "{}", tp[0].msg);
    }

    #[test]
    fn metric_drift_both_directions() {
        let code = "\
pub fn wire(t: &TraceSink) {
    t.counter(\"aio.mem.reads\");
    t.gauge(\"pool.main.outstanding\");
}
#[cfg(test)]
mod tests {
    fn t(s: &TraceSink) { s.counter(\"aio.mem.ghost\"); }
}
";
        let doc = "\
| metric | kind |
|---|---|
| `aio.{backend}.reads` | counter |
| `gone.metric.name` | counter |
";
        let w = ws(&[("crates/aio/src/m.rs", "aio", code)]);
        let d = parse_observability("OBSERVABILITY.md", doc);
        assert_eq!(d.meters.len(), 2);
        let v = w.analyze(Some(&d));
        let md: Vec<_> = v.iter().filter(|x| x.rule == "metric-drift").collect();
        // pool.main.outstanding undocumented; gone.metric.name gone;
        // test-asserted aio.mem.ghost never emitted.
        assert_eq!(md.len(), 3, "{md:?}");
        assert!(md.iter().any(|x| x.msg.contains("pool.main.outstanding")));
        assert!(md.iter().any(|x| x.msg.contains("gone.metric.name")));
        assert!(md.iter().any(|x| x.msg.contains("aio.mem.ghost")));
    }

    #[test]
    fn doc_sibling_suffixes_expand() {
        let doc = "\
| phase | kind |
|---|---|
| `tier_read` / `tier_write` | span |
| `aio.{backend}.reads` / `writes` | counter |
";
        let d = parse_observability("OBSERVABILITY.md", doc);
        assert_eq!(
            d.spans.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            vec!["tier_read", "tier_write"]
        );
        assert_eq!(
            d.meters.iter().map(|(s, _)| s.as_str()).collect::<Vec<_>>(),
            vec!["aio.*.reads", "aio.*.writes"]
        );
    }

    #[test]
    fn compatible_is_segmentwise() {
        assert!(compatible("aio.*.reads", "aio.*.reads"));
        assert!(compatible("aio.mem.reads", "aio.*.reads"));
        assert!(!compatible("aio.mem.reads", "aio.*.writes"));
        assert!(!compatible("aio.mem", "aio.mem.reads"));
    }
}
