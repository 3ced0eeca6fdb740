//! `repro`'s command-line contract on the paths that run no experiment:
//! an unknown subcommand and `tables --json` are refused with exit status 2.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("run repro")
}

#[test]
fn an_unknown_subcommand_exits_2_naming_every_accepted_one() {
    let out = repro(&["fig6"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let message = String::from_utf8_lossy(&out.stderr);
    let words: Vec<&str> = message.split_whitespace().collect();
    for name in mlp_bench::subcommands() {
        assert!(words.contains(&name), "`{name}` missing from: {message}");
    }
}

#[test]
fn tables_have_no_json_form() {
    let out = repro(&["tables", "--json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
