//! The experiment harness.
//!
//! Every table and figure of the paper, and every serving experiment, is
//! one entry of [`experiments::EXPERIMENTS`], run by the `experiment`
//! binary. This library holds the registry and the pieces its entries
//! share: the method suite, the accuracy-evaluation loop, table formatting
//! and the machine-readable records (JSON files under `results/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod experiments;

use cocktail_baselines::{AtomPolicy, CachePolicy, Fp16Policy, KiviPolicy, KvQuantPolicy};
use cocktail_core::{CocktailConfig, CocktailPolicy};
use cocktail_hwsim::{KvCacheProfile, SearchKind};
use cocktail_model::ModelProfile;
use cocktail_workloads::eval::{EvalConfig, Evaluator};
use cocktail_workloads::{TaskGenerator, TaskKind, WorkloadConfig};
use serde::Serialize;
use serde_json::Value;
use std::fs;
use std::path::PathBuf;

/// Number of task instances averaged per (method, dataset, model) cell in
/// the accuracy experiments. More instances tighten the estimates at the
/// cost of runtime.
pub const INSTANCES_PER_CELL: usize = 4;

/// The five methods compared throughout the paper, in table order.
pub fn method_names() -> Vec<&'static str> {
    vec!["FP16", "Atom", "KIVI", "KVQuant", "Cocktail"]
}

/// Builds the policy for one of the paper's methods with the given Cocktail
/// configuration (only Cocktail consumes the configuration).
///
/// # Panics
///
/// Panics if the method name is unknown or the configuration is invalid.
pub fn build_policy(method: &str, config: &CocktailConfig) -> Box<dyn CachePolicy> {
    match method {
        "FP16" => Box::new(Fp16Policy::new()),
        "Atom" => Box::new(AtomPolicy::default()),
        "KIVI" => Box::new(KiviPolicy::default()),
        "KVQuant" => Box::new(KvQuantPolicy::default()),
        "Cocktail" => Box::new(
            CocktailPolicy::new(config.clone()).expect("cocktail configuration must be valid"),
        ),
        other => panic!("unknown method {other}"),
    }
}

/// The hardware-model profile of one of the paper's methods (for the
/// analytic memory/latency/throughput experiments).
///
/// # Panics
///
/// Panics if the method name is unknown.
pub fn build_hw_profile(method: &str) -> KvCacheProfile {
    match method {
        "FP16" => KvCacheProfile::fp16(),
        "Atom" => KvCacheProfile::atom_int4(),
        "KIVI" => KvCacheProfile::kivi_int4(),
        "KVQuant" => KvCacheProfile::kvquant_default(),
        "Cocktail" => KvCacheProfile::cocktail_default(),
        "Cocktail w/o Module I" => KvCacheProfile::cocktail_without_search(),
        "Cocktail w/o Module II" => KvCacheProfile::cocktail_without_reorder(),
        other => panic!("unknown method {other}"),
    }
}

/// The four simulated model profiles of Table II, in paper order.
pub fn model_suite() -> Vec<ModelProfile> {
    ModelProfile::paper_suite()
}

/// Per-model embedding seed used by the accuracy harness, so the four
/// "models" of Table II correspond to four distinct extraction-model
/// instantiations (see EXPERIMENTS.md).
pub fn accuracy_evaluator_for(model: &ModelProfile, chunk_size: usize) -> Evaluator {
    let config = EvalConfig {
        embedding_seed: model.seed(),
        ..EvalConfig::new(chunk_size)
    };
    Evaluator::new(config)
}

/// Mean accuracy of one method on one dataset for one model profile.
///
/// # Panics
///
/// Panics if the evaluation fails (the harness treats that as a bug).
pub fn accuracy_cell(
    model: &ModelProfile,
    kind: TaskKind,
    method: &str,
    config: &CocktailConfig,
    instances: usize,
) -> f64 {
    let evaluator = accuracy_evaluator_for(model, config.chunk_size);
    let tasks = TaskGenerator::new(kind, WorkloadConfig::paper_scale())
        .generate_batch(model.seed() ^ 0x5eed, instances);
    let policy = build_policy(method, config);
    evaluator
        .mean_score(&tasks, policy.as_ref())
        .expect("accuracy evaluation must not fail")
}

/// The search kind the hardware model should charge for a method.
pub fn search_kind(method: &str) -> SearchKind {
    match method {
        "Cocktail" => SearchKind::ChunkLevel,
        "KVQuant" => SearchKind::TokenLevel,
        _ => SearchKind::None,
    }
}

/// One machine-readable experiment record written to `results/`.
#[derive(Serialize)]
struct ExperimentRecord<'a, T: Serialize + ?Sized> {
    /// Experiment identifier (e.g. `"table2_accuracy"`).
    id: &'a str,
    /// Human-readable title.
    title: &'a str,
    /// Free-form note about parameters and substitutions.
    note: &'a str,
    /// The measured rows.
    rows: &'a T,
}

/// Renders an experiment record — `{id, title, note, rows}` — as the pretty
/// JSON that is written under `results/`.
///
/// # Panics
///
/// Panics if the rows cannot be serialized.
pub fn record_json<T: Serialize + ?Sized>(id: &str, title: &str, note: &str, rows: &T) -> String {
    let record = ExperimentRecord {
        id,
        title,
        note,
        rows,
    };
    serde_json::to_string_pretty(&record).expect("serialize experiment record")
}

/// Writes a rendered record to `results/<id>.json` (relative to the
/// workspace root) and returns the path.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_record(id: &str, json: &str) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{id}.json"));
    fs::write(&path, json).expect("write experiment record");
    path
}

/// The `results/` directory at the workspace root.
pub fn results_dir() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|p| p.parent())
        .map(|root| root.join("results"))
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Renders a fixed-width text table to stdout.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    println!("{}", "-".repeat(header_line.join("  ").len()));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// The scalar fields of a serialized struct as `(name, cell)` pairs, nested
/// structs flattened to `outer.inner`: floats at two decimals, `null` as
/// `-`, arrays left to the JSON record.
fn scalar_cells<T: Serialize>(value: &T) -> Vec<(String, String)> {
    fn flatten(prefix: &str, value: Value, cells: &mut Vec<(String, String)>) {
        let cell = match value {
            Value::Object(fields) => {
                for (name, value) in fields {
                    flatten(&format!("{prefix}{name}."), value, cells);
                }
                return;
            }
            Value::Array(_) => return,
            Value::Null => "-".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format!("{f:.2}"),
            Value::String(s) => s,
        };
        cells.push((prefix.trim_end_matches('.').to_string(), cell));
    }
    let mut cells = Vec::new();
    let value = serde_json::to_value(value).expect("serialize table rows");
    flatten("", value, &mut cells);
    cells
}

/// Renders the rows of a record as a table with one column per scalar
/// field, headed by the field's name in the JSON record.
pub(crate) fn print_rows<T: Serialize>(title: &str, rows: &[T]) {
    let cells: Vec<_> = rows.iter().map(scalar_cells).collect();
    let headers: Vec<&str> = cells
        .first()
        .map(|row| row.iter().map(|(name, _)| name.as_str()).collect())
        .unwrap_or_default();
    let table: Vec<Vec<String>> = cells
        .iter()
        .map(|row| row.iter().map(|(_, cell)| cell.clone()).collect())
        .collect();
    print_table(title, &headers, &table);
}

/// Renders the scalar fields of a report as a two-column table.
pub(crate) fn print_fields<T: Serialize>(title: &str, report: &T) {
    let table: Vec<Vec<String>> = scalar_cells(report)
        .into_iter()
        .map(|(name, cell)| vec![name, cell])
        .collect();
    print_table(title, &["field", "value"], &table);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_suite_builds_every_method() {
        let config = CocktailConfig::default();
        for name in method_names() {
            let policy = build_policy(name, &config);
            assert_eq!(policy.name(), name);
        }
    }

    #[test]
    fn hw_profiles_cover_ablation_variants() {
        for name in method_names() {
            assert_eq!(build_hw_profile(name).method, name);
        }
        assert!(!build_hw_profile("Cocktail w/o Module II").grouped_layout);
    }

    #[test]
    fn accuracy_cell_is_deterministic() {
        let model = ModelProfile::llama2_7b_sim();
        let config = CocktailConfig::default();
        let a = accuracy_cell(&model, TaskKind::Trec, "FP16", &config, 1);
        let b = accuracy_cell(&model, TaskKind::Trec, "FP16", &config, 1);
        assert_eq!(a, b);
        assert!((0.0..=100.0).contains(&a));
    }

    #[test]
    fn results_dir_is_under_workspace_root() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn search_kinds_match_methods() {
        assert_eq!(search_kind("Cocktail"), SearchKind::ChunkLevel);
        assert_eq!(search_kind("KVQuant"), SearchKind::TokenLevel);
        assert_eq!(search_kind("Atom"), SearchKind::None);
    }
}
