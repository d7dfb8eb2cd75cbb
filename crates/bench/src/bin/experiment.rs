//! `experiment`: runs entries of the experiment registry.
//!
//! ```bash
//! experiment <name>...   # run the named experiments, in the order given
//! experiment --all       # run every experiment, in registry order
//! experiment --list      # print the registry as a markdown table
//! ```
//!
//! Each experiment prints its table, then this binary — the only place
//! that does so — writes `results/<id>.json`, prints the findings of the
//! experiment's `check` (`FAIL` / `WARN`) and, after the last one, a
//! summary. A failing experiment does not stop the run. Exit status: 0
//! when no finding fails, 1 when one does, 2 on a usage error (nothing is
//! run).

use cocktail_bench::experiments::{find, listing, Experiment, Finding, Kind, EXPERIMENTS};
use cocktail_bench::write_record;
use std::process::ExitCode;

const USAGE: &str = "usage: experiment <name>... | --all | --list";

fn usage(problem: &str) -> ExitCode {
    eprintln!("experiment: {problem}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs one experiment and writes its record; a panic inside it (the
/// in-run byte-identity assertions) becomes a finding, so `--all` goes on.
fn run(experiment: &Experiment) -> Vec<Finding> {
    println!("\n##### {} — {}", experiment.id, experiment.title);
    let (run, repetitions) = (experiment.run, experiment.default_reps);
    match std::panic::catch_unwind(move || run(repetitions)) {
        Ok(outcome) => {
            let path = write_record(experiment.id, &outcome.record);
            println!("(written to {})", path.display());
            outcome.findings
        }
        Err(_) => vec![Finding {
            kind: Kind::Deterministic,
            message: format!(
                "{} panicked (message above); no record written",
                experiment.id
            ),
        }],
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Experiment> = match args.as_slice() {
        [] => return usage("nothing to run"),
        [flag] if flag == "--list" => {
            print!("{}", listing());
            return ExitCode::SUCCESS;
        }
        [flag] if flag == "--all" => EXPERIMENTS.iter().collect(),
        names => match names.iter().map(|name| find(name).ok_or(name)).collect() {
            Ok(selected) => selected,
            Err(name) => return usage(&format!("unknown experiment or option `{name}`")),
        },
    };

    let mut summary = Vec::with_capacity(selected.len());
    for experiment in selected {
        let findings = run(experiment);
        for finding in &findings {
            eprintln!("{finding}");
        }
        let failed = findings.iter().filter(|f| f.fails()).count();
        summary.push((experiment.id, failed, findings.len() - failed));
    }

    println!("\n##### summary");
    for (id, failed, warned) in &summary {
        let status = match failed + warned {
            0 => "ok".to_string(),
            _ => format!("{failed} FAIL, {warned} WARN"),
        };
        println!("{id:<24}{status}");
    }
    if summary.iter().any(|(_, failed, _)| *failed > 0) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
