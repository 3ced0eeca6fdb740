//! Fixture-driven proof that each semantic rule fires — and only on its
//! seed. Every tree under `fixtures/` follows the workspace layout
//! (`crates/<dir>/src/*.rs` + optional `OBSERVABILITY.md`), so the same
//! walker and analyses the binary runs are exercised end to end.

use std::path::PathBuf;
use xtask::rules::{FileCtx, Violation};
use xtask::semantic::{parse_observability, Workspace};
use xtask::{lint_targets, parser, rel_path};

fn analyze(fixture: &str) -> Vec<Violation> {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(fixture);
    let targets = lint_targets(&root);
    assert!(!targets.is_empty(), "fixture `{fixture}` has no .rs files");
    let mut parsed = Vec::new();
    for (path, crate_dir) in &targets {
        let src = std::fs::read_to_string(path).expect("fixture file is readable");
        let ctx = FileCtx::from_source(&rel_path(&root, path), crate_dir, &src);
        parsed.push(parser::parse(&ctx));
    }
    let ws = Workspace::build(parsed);
    let doc = std::fs::read_to_string(root.join("OBSERVABILITY.md"))
        .ok()
        .map(|text| parse_observability("OBSERVABILITY.md", &text));
    ws.analyze(doc.as_ref())
}

fn rendered(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(Violation::to_string)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn transitive_panic_fixture_fires_three_deep() {
    let v = analyze("transitive_panic");
    assert!(
        v.iter().any(|v| v.rule == "transitive-panic"
            && v.msg.contains("submit → stage_one → stage_two")),
        "expected the 3-deep chain, got:\n{}",
        rendered(&v)
    );
    assert!(
        v.iter().all(|v| v.rule == "transitive-panic"),
        "unexpected extra rules:\n{}",
        rendered(&v)
    );
}

#[test]
fn undocumented_meter_fixture_fires_both_directions() {
    let v = analyze("undocumented_meter");
    assert!(
        v.iter()
            .any(|v| v.rule == "metric-drift" && v.msg.contains("`fix.ghost`")),
        "expected emit-but-undocumented for fix.ghost, got:\n{}",
        rendered(&v)
    );
    assert!(
        v.iter()
            .any(|v| v.rule == "metric-drift" && v.msg.contains("`fix.documented`")),
        "expected documented-but-gone for fix.documented, got:\n{}",
        rendered(&v)
    );
    assert!(
        v.iter().all(|v| v.rule == "metric-drift"),
        "unexpected extra rules:\n{}",
        rendered(&v)
    );
}

#[test]
fn clean_fixture_is_silent() {
    let v = analyze("clean");
    assert!(v.is_empty(), "clean fixture must not fire:\n{}", rendered(&v));
}
