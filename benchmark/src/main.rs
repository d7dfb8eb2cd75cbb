//! The repository's wall-clock benchmark.
//!
//! ```text
//! cocktail_benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//! cocktail_benchmark all       [--seed N] [--seconds S]
//! cocktail_benchmark trace     [--workload W] [--seed N] [--seconds S]
//! cocktail_benchmark selfcheck [--seed N] [--seconds S]
//! cocktail_benchmark compare   <dirA> <dirB>
//! cocktail_benchmark fingerprint
//! ```
//!
//! The flag-only form is one run of one workload in this process: it
//! prints every metric by name and unit, then a `#detail` line, then — as
//! the last line of standard output — the result record
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the nine end-to-end ones, with `--trace 1` the per-layer
//! ones. The other forms run that one in child processes. See `README.md`.

mod bench;
mod compose;
mod httpc;
mod json;
mod load;
mod probes;
mod report;
mod span;
mod stats;
mod workloads;

use bench::RunConfig;
use std::path::Path;
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SECONDS, DEFAULT_SEED};

/// Kernel threads every run pins: both cores of the reference box. Read
/// once per process by the product, hence set before anything else runs.
const KERNEL_THREADS: usize = 2;

#[derive(Debug, Default)]
struct Flags {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<u8>,
    out: Option<String>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        fn number<T: std::str::FromStr>(name: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{name} needs a number, got {text:?}"))
        }
        match arg.as_str() {
            "--workload" => flags.workload = Some(value("--workload")?),
            "--seed" => flags.seed = Some(number("--seed", value("--seed")?)?),
            "--seconds" => flags.seconds = Some(number("--seconds", value("--seconds")?)?),
            "--trace" => flags.trace = Some(number("--trace", value("--trace")?)?),
            "--out" => flags.out = Some(value("--out")?),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn workload_of(flags: &Flags) -> Result<Workload, String> {
    let name = flags.workload.as_deref().ok_or("--workload is required")?;
    Workload::parse(name).ok_or_else(|| {
        let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })
}

/// One run in this process. Returns whether its outputs were correct.
fn single_run(flags: &Flags, traced: bool) -> Result<bool, String> {
    let config = RunConfig {
        workload: workload_of(flags)?,
        seed: flags.seed.unwrap_or(DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(DEFAULT_SECONDS).max(1),
    };
    let outcome = if traced {
        bench::run_traced(config)?
    } else {
        bench::run_timed(config)?
    };
    report::print_outcome(config.workload, traced, &outcome);
    let result = outcome.to_json();
    if let Some(dir) = &flags.out {
        let mut record = vec![
            ("workload".to_string(), json::text(config.workload.name())),
            ("seed".to_string(), json::int(config.seed)),
            ("traced".to_string(), json::Value::Bool(traced)),
        ];
        record.extend(json::entries(&result).iter().cloned());
        record.push(("detail".to_string(), outcome.detail.clone()));
        let path = Path::new(dir).join(format!(
            "{}-seed{}-trace{}.json",
            config.workload.name(),
            config.seed,
            u8::from(traced)
        ));
        std::fs::create_dir_all(dir).map_err(|e| format!("create {dir}: {e}"))?;
        std::fs::write(&path, json::Value::Object(record).to_string_pretty() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "{}{}",
        report::DETAIL_PREFIX,
        outcome.detail.to_string_compact()
    );
    println!("{}", result.to_string_compact());
    Ok(outcome.correct)
}

fn run(args: &[String]) -> Result<bool, String> {
    let (command, rest) = match args.first().map(String::as_str) {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => ("run", args),
    };
    let flags = parse_flags(rest)?;
    let seed = flags.seed.unwrap_or(DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(DEFAULT_SECONDS).max(1);
    match command {
        "run" => {
            let traced = match flags.trace {
                Some(0) | None => false,
                Some(1) => true,
                Some(other) => return Err(format!("--trace takes 0 or 1, got {other}")),
            };
            single_run(&flags, traced)
        }
        "trace" => {
            let chosen = match &flags.workload {
                Some(_) => vec![workload_of(&flags)?],
                None => Workload::ALL.to_vec(),
            };
            let mut correct = true;
            for workload in chosen {
                let one = Flags {
                    workload: Some(workload.name().to_string()),
                    seed: flags.seed,
                    seconds: flags.seconds,
                    ..Flags::default()
                };
                correct &= single_run(&one, true)?;
            }
            Ok(correct)
        }
        "all" => report::run_all(seed, seconds).map(|()| true),
        "selfcheck" => report::selfcheck(seed, seconds).map(|()| true),
        "compare" => match &flags.positional[..] {
            [a, b] => report::compare(Path::new(a), Path::new(b)).map(|()| true),
            _ => Err("compare takes two directories of run records".to_string()),
        },
        "fingerprint" => {
            print!("{}", workloads::lock_text());
            Ok(true)
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    // Set while the process is still single-threaded.
    std::env::set_var(
        cocktail_quant::parallel::KERNEL_THREADS_ENV,
        KERNEL_THREADS.min(cores).to_string(),
    );
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The record was printed; the exit code says its outputs were wrong.
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("cocktail_benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
