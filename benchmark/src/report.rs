//! Everything above a single run: the regression bounds, the `all` record
//! (`BENCH_11.json`), the A/A `selfcheck`, and the paired `compare` rule.

use crate::bench::{self, Outcome, END_TO_END, REPORT_ONLY};
use crate::json::{self, Value};
use crate::probes::Metric;
use crate::stats;
use crate::workloads::{Workload, HOLDOUT_SEED};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

/// Direction and regression bound of an end-to-end metric: the share of
/// the parent's median by which it may worsen. Must match `BENCHMARK.json`.
///
/// The benchmark contract accepts a bound only if the metric's
/// inter-quartile spread over ten seeds stays within it, and asks for a
/// spread below a third of it. On the 2-core reference box every
/// wall-clock metric of one build spreads, or drifts between two sets of
/// ten runs, by more than 10% on some workload in a committed A/A record
/// (`results/AA_11.json`, `results/earlier/`): spreads to 16%, drifts to
/// 19%. Each carries the widest bound the contract allows; see README
/// "Noise".
pub fn direction_and_bound(metric: &str) -> Option<(Better, f64)> {
    Some(match metric {
        "setup_s" => (Better::Lower, 0.25),
        "tok_s" | "req_s" => (Better::Higher, 0.25),
        "ttft_ms_p50" | "ttft_ms_tail" | "tpot_ms_p50" | "tpot_ms_tail" | "e2e_ms_p50" => {
            (Better::Lower, 0.25)
        }
        // Exact at a given seed, where [`decide_count`] allows it no loss at
        // all. Across seeds it spreads 1.1-3.4%; this bound is for
        // comparisons that vary the seed, as the contract's acceptance does.
        "kv_compression_x" => (Better::Higher, 0.10),
        _ => return None,
    })
}

/// Whether a metric is a count that repeats exactly at a given seed, so
/// that any difference between two runs at that seed is a real change.
pub fn is_exact_count(metric: &str) -> bool {
    metric == "kv_compression_x"
}

/// By what share of `base` the value `new` is worse (negative: better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return 0.0;
    }
    match better {
        Better::Higher => (base - new) / base.abs(),
        Better::Lower => (new - base) / base.abs(),
    }
}

/// Prints a run's metrics by name with unit, and what backs them.
pub fn print_outcome(workload: Workload, traced: bool, outcome: &Outcome) {
    println!(
        "== {} ({}) ==",
        workload.name(),
        if traced { "traced run" } else { "timed run" }
    );
    let line = |metric: &Metric, note: String| {
        println!(
            "{:<46} {:>14.4} {}{note}",
            metric.name, metric.value, metric.unit
        );
    };
    for metric in &outcome.metrics {
        let note = match metric.name.as_str() {
            "ttft_ms_tail" => format!("  (p{})", workload.ttft_tail_percentile()),
            "tpot_ms_tail" => format!("  (p{})", workload.tpot_tail_percentile()),
            _ => String::new(),
        };
        line(metric, note);
    }
    for metric in &outcome.report_only {
        line(metric, "  (report-only)".to_string());
    }
    println!(
        "ops_attempted {}  ops_failed {}  correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    for key in [
        "oracle_mismatches",
        "composed_mismatches",
        "first_failures",
        "findings",
    ] {
        if let Some(Value::Array(items)) = json::get(&outcome.detail, key) {
            for item in items {
                println!("{key}: {}", json::as_str(item).unwrap_or(""));
            }
        }
    }
}

/// One child run: a fresh process, so set-up time, peak RSS and the
/// once-read kernel thread count are per workload.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    // Everything but the two machine-readable lines is the child's table.
    for line in lines.iter().take(lines.len().saturating_sub(2)) {
        println!("{line}");
    }
    let parse = |line: Option<&&str>| -> Option<Value> {
        serde_json::from_str(line?.trim_start_matches(DETAIL_PREFIX)).ok()
    };
    // A run that printed its record is the caller's to judge and to write
    // down, even when its exit code says the outputs were wrong.
    match (parse(lines.last()), parse(lines.iter().rev().nth(1))) {
        (Some(result), Some(detail)) if json::get(&result, "correct").is_some() => {
            Ok((result, detail))
        }
        _ => Err(format!(
            "{} (trace {}) exited with {} and printed no record",
            workload.name(),
            u8::from(traced),
            output.status
        )),
    }
}

/// Prefix of the detail line a run prints just before its result line.
pub const DETAIL_PREFIX: &str = "#detail ";

fn metric_value(result: &Value, name: &str) -> Option<f64> {
    json::get(json::get(json::get(result, "metrics")?, name)?, "value").and_then(json::as_f64)
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, value.to_string_pretty() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))
}

/// `all`: every workload, timed then traced, each in its own process;
/// writes `results/BENCH_11.json`. Fails on any incorrect run.
pub fn run_all(seed: u64, seconds: u64) -> Result<(), String> {
    let mut workloads = Vec::new();
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        let (timed, timed_detail) = run_child(workload, seed, seconds, false)?;
        let (traced, traced_detail) = run_child(workload, seed, seconds, true)?;
        for (label, result) in [("timed", &timed), ("traced", &traced)] {
            if json::get(result, "correct").and_then(json::as_bool) != Some(true) {
                failures.push(format!("{} {label} run is not correct", workload.name()));
            }
        }
        workloads.push(json::obj(vec![
            ("name", json::text(workload.name())),
            ("why", json::text(workload.why())),
            (
                "ttft_tail_percentile",
                json::int(u64::from(workload.ttft_tail_percentile())),
            ),
            (
                "tpot_tail_percentile",
                json::int(u64::from(workload.tpot_tail_percentile())),
            ),
            ("end_to_end", timed),
            ("end_to_end_detail", timed_detail),
            ("per_layer", traced),
            ("per_layer_detail", traced_detail),
        ]));
    }
    let record = json::obj(vec![
        ("benchmark", json::text("BENCH_11")),
        ("seed", json::int(seed)),
        ("holdout_seed", json::int(HOLDOUT_SEED)),
        ("seconds", json::int(seconds)),
        ("host", host_record()),
        ("workloads", Value::Array(workloads)),
    ]);
    let path = bench::results_dir().join("BENCH_11.json");
    write_json(&path, &record)?;
    println!("written {}", path.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// What results depend on besides the code: cores and kernel threads.
pub fn host_record() -> Value {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json::obj(vec![
        ("available_parallelism", json::int(cores as u64)),
        (
            "kernel_threads",
            json::int(cocktail_quant::parallel::kernel_threads() as u64),
        ),
    ])
}

/// `selfcheck`: the A/A acceptance check. Two sets of [`MIN_PAIRS`] timed
/// runs per workload on this one build (seeds `seed..seed+10`, the same in
/// both sets). Fails if, for any metric x workload, the second set's
/// median is worse than the first's by more than the metric's bound, a
/// set's inter-quartile spread exceeds the bound, or an exact count
/// differs between the sets at any seed. Report-only metrics are recorded
/// beside the others, unjudged. Writes `results/AA_11.json`.
///
/// `setup_s` is judged by its median only, as in the acceptance procedure
/// this mirrors: a run's value is the median of just three set-ups of
/// 0.5-2 s each, so its spread says more about the box than about the code.
pub fn selfcheck(seed: u64, seconds: u64) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        let mut sets: [BTreeMap<&str, Vec<f64>>; 2] = [BTreeMap::new(), BTreeMap::new()];
        for set in &mut sets {
            for run in 0..MIN_PAIRS {
                let (result, detail) = run_child(workload, seed + run as u64, seconds, false)?;
                if json::get(&result, "correct").and_then(json::as_bool) != Some(true) {
                    failures.push(format!("{}: a run was not correct", workload.name()));
                }
                for (name, _) in END_TO_END.into_iter().chain(REPORT_ONLY) {
                    let value = metric_value(&result, name)
                        .or_else(|| json::get(&detail, name).and_then(json::as_f64))
                        .ok_or_else(|| format!("{}: run lacks {name}", workload.name()))?;
                    set.entry(name).or_default().push(value);
                }
            }
        }
        for (name, unit) in END_TO_END.into_iter().chain(REPORT_ONLY) {
            // A report-only metric is recorded beside the others, unjudged.
            let judged = direction_and_bound(name);
            let (better, bound) = judged.unwrap_or((Better::Lower, f64::INFINITY));
            let medians = [0, 1].map(|i| stats::median(&sets[i][name]).expect("ten runs"));
            let spreads = [0, 1].map(|i| stats::relative_spread(&sets[i][name]).unwrap_or(0.0));
            let drift = worsening(better, medians[0], medians[1]);
            let mut verdict = "ok";
            if judged.is_none() {
                verdict = "report-only";
            } else if is_exact_count(name) && sets[0][name] != sets[1][name] {
                verdict = "exact count differs between the sets";
            } else if drift > bound {
                verdict = "second set worse than bound";
            } else if name != "setup_s" && spreads.iter().any(|s| *s > bound) {
                verdict = "spread wider than bound";
            }
            if judged.is_some() && verdict != "ok" {
                failures.push(format!("{} {name}: {verdict}", workload.name()));
            }
            println!(
                "{:<16} {:<18} A {:>12.4} B {:>12.4} {unit:<4} B worse by {:>7.2}% ({}) \
                 spread A {:>5.2}% B {:>5.2}%  {verdict}",
                workload.name(),
                name,
                medians[0],
                medians[1],
                100.0 * drift,
                judged.map_or("no bound".to_string(), |_| format!(
                    "bound {:.0}%",
                    100.0 * bound
                )),
                100.0 * spreads[0],
                100.0 * spreads[1],
            );
            rows.push(json::obj(vec![
                ("workload", json::text(workload.name())),
                ("metric", json::text(name)),
                ("unit", json::text(unit)),
                ("bound", judged.map_or(Value::Null, |_| json::num(bound))),
                ("median_a", json::num(medians[0])),
                ("median_b", json::num(medians[1])),
                ("b_worse_by", json::num(drift)),
                ("spread_a", json::num(spreads[0])),
                ("spread_b", json::num(spreads[1])),
                (
                    "values_a",
                    Value::Array(sets[0][name].iter().copied().map(json::num).collect()),
                ),
                (
                    "values_b",
                    Value::Array(sets[1][name].iter().copied().map(json::num).collect()),
                ),
                ("verdict", json::text(verdict)),
            ]));
        }
    }
    let record = json::obj(vec![
        ("benchmark", json::text("AA_11")),
        ("seed", json::int(seed)),
        ("seconds", json::int(seconds)),
        ("runs_per_set", json::int(MIN_PAIRS as u64)),
        ("host", host_record()),
        ("passed", Value::Bool(failures.is_empty())),
        ("rows", Value::Array(rows)),
    ]);
    let path = bench::results_dir().join("AA_11.json");
    write_json(&path, &record)?;
    println!("written {}", path.display());
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Pairs a claim needs before it can be anything but unresolved.
pub const MIN_PAIRS: usize = 10;

/// The paired comparison's verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beat A in at least nine tenths of the pairs, by more than A's
    /// own inter-quartile spread.
    Win,
    /// A beat B by the same rule.
    Loss,
    /// Neither, and B's median is worse than A's by more than the bound.
    Regressed,
    /// Neither, B's median is within the bound, and A's spread is narrow
    /// enough for that to mean something.
    WithinBound,
    /// Too few pairs, or A's own spread is wider than the bound.
    Unresolved,
    /// An exact count that is the same in every pair.
    Identical,
}

impl Verdict {
    /// The word printed in reports. There is deliberately no "unchanged".
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Win => "win",
            Verdict::Loss => "loss",
            Verdict::Regressed => "regressed",
            Verdict::WithinBound => "within-bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
        }
    }
}

/// Decides one metric from its `(a, b)` pairs: a win (or loss) needs at
/// least [`MIN_PAIRS`] pairs, nine tenths of all pairs run going one way
/// (ties count for neither side), and medians further apart than A's
/// inter-quartile spread.
pub fn decide(pairs: &[(f64, f64)], better: Better, bound: f64) -> Verdict {
    if pairs.len() < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
    let b_is_better = |&(a, b): &(f64, f64)| worsening(better, a, b) < 0.0;
    let a_is_better = |&(a, b): &(f64, f64)| worsening(better, a, b) > 0.0;
    let needed = (pairs.len() * 9).div_ceil(10);
    let (median_a, median_b) = (
        stats::median(&a).expect("non-empty"),
        stats::median(&b).expect("non-empty"),
    );
    let (q1, _, q3) = stats::quartiles(&a).expect("at least ten samples");
    let clear = (median_b - median_a).abs() > q3 - q1;
    if clear && pairs.iter().filter(|p| b_is_better(p)).count() >= needed {
        return Verdict::Win;
    }
    if clear && pairs.iter().filter(|p| a_is_better(p)).count() >= needed {
        return Verdict::Loss;
    }
    if worsening(better, median_a, median_b) > bound {
        return Verdict::Regressed;
    }
    if median_a != 0.0 && (q3 - q1) / median_a.abs() > bound {
        return Verdict::Unresolved;
    }
    Verdict::WithinBound
}

/// Decides an exact count from its `(a, b)` pairs at equal seeds. No
/// spread to allow for: a pair that differs is a real change, so the count
/// may not be worse in any pair (a 0% bound), and is a win only when it is
/// better in some pair and worse in none.
pub fn decide_count(pairs: &[(f64, f64)], better: Better) -> Verdict {
    let worse = |&(a, b): &(f64, f64)| worsening(better, a, b) > 0.0;
    let improved = |&(a, b): &(f64, f64)| worsening(better, a, b) < 0.0;
    if pairs.iter().any(worse) {
        Verdict::Regressed
    } else if pairs.iter().any(improved) {
        Verdict::Win
    } else {
        Verdict::Identical
    }
}

/// Reads every run record (`*.json`, as written by `--out`) of a
/// directory, keyed by file name.
fn read_runs(dir: &Path) -> Result<BTreeMap<String, Value>, String> {
    let mut runs = BTreeMap::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry
            .map_err(|e| format!("read {}: {e}", dir.display()))?
            .path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let value = serde_json::from_str(&text)
                .map_err(|e| format!("parse {}: {e}", path.display()))?;
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            runs.insert(name, value);
        }
    }
    Ok(runs)
}

/// `compare <dirA> <dirB>`: pairs the run records that carry the same
/// file name (hence workload and seed) in both directories and applies
/// [`decide`] — [`decide_count`] for an exact count — to every end-to-end
/// metric of every workload. Every ratio is printed with its base.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<(), String> {
    let (runs_a, runs_b) = (read_runs(dir_a)?, read_runs(dir_b)?);
    let mut pairs: BTreeMap<(String, &str), Vec<(f64, f64)>> = BTreeMap::new();
    let mut failed: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (name, a) in &runs_a {
        let Some(b) = runs_b.get(name) else {
            continue;
        };
        let workload = json::get(a, "workload")
            .and_then(json::as_str)
            .unwrap_or("?")
            .to_string();
        let failures = |run| json::get(run, "failed").and_then(json::as_u64).unwrap_or(0);
        let tally = failed.entry(workload.clone()).or_default();
        tally.0 += failures(a);
        tally.1 += failures(b);
        for (metric, _) in END_TO_END {
            if let (Some(x), Some(y)) = (metric_value(a, metric), metric_value(b, metric)) {
                pairs
                    .entry((workload.clone(), metric))
                    .or_default()
                    .push((x, y));
            }
        }
    }
    if pairs.is_empty() {
        return Err("no run record carries the same file name in both directories".to_string());
    }
    println!(
        "{:<16} {:<18} {:>5} {:>14} {:>9}  verdict",
        "workload", "metric", "pairs", "A median", "B/A"
    );
    for ((workload, metric), pairs) in &pairs {
        let (better, bound) = direction_and_bound(metric).expect("end-to-end metric");
        let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let b: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let (median_a, median_b) = (
            stats::median(&a).expect("non-empty"),
            stats::median(&b).expect("non-empty"),
        );
        let decided = if is_exact_count(metric) {
            decide_count(pairs, better)
        } else {
            decide(pairs, better, bound)
        };
        let mut verdict = decided.name().to_string();
        // A gain does not count when more operations fail than before.
        let (failed_a, failed_b) = failed[workload];
        if verdict == "win" && failed_b > failed_a {
            verdict = format!("unresolved (ops_failed {failed_a} -> {failed_b})");
        }
        println!(
            "{workload:<16} {metric:<18} {:>5} {median_a:>14.4} {:>9.4}  {verdict}",
            pairs.len(),
            median_b / median_a,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::DEFAULT_SECONDS;

    fn pairs(a: &[f64], b: &[f64]) -> Vec<(f64, f64)> {
        a.iter().copied().zip(b.iter().copied()).collect()
    }

    /// Ten parent runs around 100 with an inter-quartile spread of ~2.
    const PARENT: [f64; 10] = [
        99.0, 100.0, 101.0, 100.5, 99.5, 100.0, 101.5, 98.5, 100.2, 99.8,
    ];

    #[test]
    fn a_win_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_parents_spread() {
        let faster: Vec<f64> = PARENT.iter().map(|v| v + 10.0).collect();
        assert_eq!(
            decide(&pairs(&PARENT, &faster), Better::Higher, 0.1),
            Verdict::Win
        );
        assert_eq!(
            decide(&pairs(&PARENT, &faster), Better::Lower, 0.1),
            Verdict::Loss
        );
        // Nine of ten is enough...
        let mut nine = faster.clone();
        nine[0] = 90.0;
        assert_eq!(
            decide(&pairs(&PARENT, &nine), Better::Higher, 0.1),
            Verdict::Win
        );
        // ...eight of ten is not, however large the median gap.
        nine[1] = 90.0;
        assert_eq!(
            decide(&pairs(&PARENT, &nine), Better::Higher, 0.1),
            Verdict::WithinBound
        );
        // Winning every pair by less than the parent's spread is no win.
        let barely: Vec<f64> = PARENT.iter().map(|v| v + 0.5).collect();
        assert_eq!(
            decide(&pairs(&PARENT, &barely), Better::Higher, 0.1),
            Verdict::WithinBound
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        let mut mostly_tied: Vec<f64> = PARENT.to_vec();
        for v in mostly_tied.iter_mut().take(8) {
            *v += 10.0;
        }
        // Eight wins and two ties out of ten pairs: below nine tenths.
        assert_ne!(
            decide(&pairs(&PARENT, &mostly_tied), Better::Higher, 0.1),
            Verdict::Win
        );
    }

    #[test]
    fn fewer_than_ten_pairs_or_a_noisy_parent_is_unresolved_never_unchanged() {
        let faster: Vec<f64> = PARENT.iter().map(|v| v + 10.0).collect();
        assert_eq!(
            decide(&pairs(&PARENT[..9], &faster[..9]), Better::Higher, 0.1),
            Verdict::Unresolved
        );
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0,
        ];
        let same = noisy;
        assert_eq!(
            decide(&pairs(&noisy, &same), Better::Higher, 0.1),
            Verdict::Unresolved
        );
        for verdict in [
            Verdict::Win,
            Verdict::Loss,
            Verdict::Regressed,
            Verdict::WithinBound,
            Verdict::Unresolved,
            Verdict::Identical,
        ] {
            assert_ne!(verdict.name(), "unchanged");
        }
    }

    #[test]
    fn a_median_beyond_the_bound_without_a_paired_win_is_a_regression() {
        // B is 15% slower at the median but only seven pairs agree.
        let mut slower: Vec<f64> = PARENT.iter().map(|v| v * 0.85).collect();
        for v in slower.iter_mut().take(3) {
            *v = 101.0;
        }
        assert_eq!(
            decide(&pairs(&PARENT, &slower), Better::Higher, 0.1),
            Verdict::Regressed
        );
    }

    #[test]
    fn an_exact_count_may_not_be_worse_in_any_pair() {
        let same = pairs(&[3.0, 3.5, 2.9], &[3.0, 3.5, 2.9]);
        assert_eq!(decide_count(&same, Better::Higher), Verdict::Identical);
        let one_worse = pairs(&[3.0, 3.5, 2.9], &[3.2, 3.5, 2.8]);
        assert_eq!(decide_count(&one_worse, Better::Higher), Verdict::Regressed);
        let one_better = pairs(&[3.0, 3.5, 2.9], &[3.0, 3.6, 2.9]);
        assert_eq!(decide_count(&one_better, Better::Higher), Verdict::Win);
        assert_eq!(decide_count(&one_better, Better::Lower), Verdict::Regressed);
        assert!(is_exact_count("kv_compression_x") && !is_exact_count("tok_s"));
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((worsening(Better::Higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }

    #[test]
    fn bounds_cover_every_end_to_end_metric_and_match_the_contract_file() {
        for (name, _) in END_TO_END {
            let (_, bound) = direction_and_bound(name).expect(name);
            assert!(bound > 0.0 && bound <= 0.25);
        }
        // When run inside the repository, the contract file must agree.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let contract = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(listed)) = json::get(&contract, "end_to_end") else {
            panic!("BENCHMARK.json lists end_to_end metrics");
        };
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, (name, unit)) in listed.iter().zip(END_TO_END) {
            let field = |key| json::get(entry, key);
            assert_eq!(field("name").and_then(json::as_str), Some(name));
            assert_eq!(field("unit").and_then(json::as_str), Some(unit));
            let (better, bound) = direction_and_bound(name).expect(name);
            let word = if better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(field("better").and_then(json::as_str), Some(word));
            assert_eq!(field("bound").and_then(json::as_f64), Some(bound));
        }
        assert_eq!(
            json::get(&contract, "run_seconds").and_then(json::as_u64),
            Some(DEFAULT_SECONDS)
        );
        let Some(Value::Array(workloads)) = json::get(&contract, "workloads") else {
            panic!("BENCHMARK.json lists workloads");
        };
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| json::get(w, "name").and_then(json::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }
}
