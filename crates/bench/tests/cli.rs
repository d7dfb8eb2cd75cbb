//! The `experiment` binary's command line, end to end: `--list` is the
//! registry (and the README's table is a copy of it), and a usage error
//! exits 2 without running anything.

use cocktail_bench::experiments::{listing, EXPERIMENTS};
use std::process::Command;

fn experiment(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_experiment"))
        .args(args)
        .output()
        .expect("the experiment binary runs")
}

#[test]
fn list_prints_exactly_the_registry_and_the_readme_copies_it() {
    let output = experiment(&["--list"]);
    assert_eq!(output.status.code(), Some(0));
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    assert_eq!(stdout, listing());
    assert_eq!(stdout.lines().count(), 2 + EXPERIMENTS.len());
    for e in EXPERIMENTS {
        assert!(stdout.contains(&format!("| `{}` |", e.id)), "{}", e.id);
    }
    let readme = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
    let readme = std::fs::read_to_string(readme).expect("README.md is readable");
    assert!(
        readme.contains(&stdout),
        "README.md's experiment table is not `experiment --list`:\n{stdout}"
    );
}

#[test]
fn a_usage_error_exits_2_with_the_usage_line_and_runs_nothing() {
    for args in [
        &["no_such_experiment"][..],
        &["fig4_memory", "no_such_experiment"],
        &["--all", "fig4_memory"],
        &["--frobnicate"],
        &[],
    ] {
        let output = experiment(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8(output.stderr).expect("utf-8");
        assert!(
            stderr.contains("usage: experiment <name>... | --all | --list"),
            "{args:?}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{args:?} ran something");
    }
}
