//! The paper's figures and tables: Figure 1, Tables II–V and Figures 4–7.
//!
//! All nine are deterministic — an analytic hardware model, seeded encoders
//! and seeded tasks.

use super::{deployment_for, Finding, Findings, OUTPUT_LEN, TPOT_BATCH};
use crate::{
    accuracy_cell, build_hw_profile, method_names, model_suite, print_rows, print_table,
    INSTANCES_PER_CELL,
};
use cocktail_core::CocktailConfig;
use cocktail_hwsim::{DeploymentModel, KvCacheProfile};
use cocktail_model::ModelProfile;
use cocktail_retrieval::{similarity_matrix, ContrieverSim, EncoderKind};
use cocktail_workloads::TaskKind;
use serde::Serialize;

/// The shape every accuracy table must have: `expected_rows` labelled rows
/// of `scores_per_row` scores, every score within the harness's `[0, 100]`.
fn check_accuracy_table(
    table: &str,
    expected_rows: usize,
    scores_per_row: usize,
    rows: impl ExactSizeIterator<Item = (String, Vec<f64>)>,
) -> Findings {
    let mut findings = Findings::default();
    findings.require(
        rows.len() == expected_rows,
        format!("{table} has {} rows, expected {expected_rows}", rows.len()),
    );
    for (label, scores) in rows {
        findings.require(
            scores.len() == scores_per_row,
            format!(
                "{table} {label} has {} scores, expected {scores_per_row}",
                scores.len()
            ),
        );
        for score in scores {
            findings.require(
                (0.0..=100.0).contains(&score),
                format!("{table} {label} scored {score}, outside [0, 100]"),
            );
        }
    }
    findings
}

// ---------------------------------------------------------------------------
// Figure 1 — similarity heatmap
// ---------------------------------------------------------------------------

/// One row of the Figure 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub(super) struct HeatmapRow {
    /// Query index.
    pub query: usize,
    /// Similarity score of every chunk for this query.
    pub scores: Vec<f32>,
    /// Fraction of chunks scoring in the top 20 % of the query's range.
    pub highly_relevant_fraction: f64,
}

/// Figure 1: similarity heatmap between one long passage (89 chunks) and 10
/// queries; most chunks are irrelevant to any given query.
pub(super) fn fig1_heatmap() -> (String, Vec<HeatmapRow>) {
    let chunk_count = 89;
    let queries = 10;
    let chunks: Vec<String> = (0..chunk_count)
        .map(|i| {
            format!(
                "section {i} of the chronicle describes settlement {i} its harvest records \
                 trade caravans seasonal festivals and the families living near landmark {i}"
            )
        })
        .collect();
    let query_texts: Vec<String> = (0..queries)
        .map(|q| {
            let target = q * 8 + 3;
            format!("what do the harvest records say about settlement {target} near landmark {target} ?")
        })
        .collect();
    let matrix = similarity_matrix(&query_texts, &chunks, &ContrieverSim::new());

    let mut rows = Vec::new();
    for q in 0..queries {
        let scores: Vec<f32> = matrix.row(q).to_vec();
        let max = scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let min = scores.iter().cloned().fold(f32::INFINITY, f32::min);
        let threshold = min + 0.8 * (max - min);
        let highly = scores.iter().filter(|&&s| s >= threshold).count();
        rows.push(HeatmapRow {
            query: q,
            scores,
            highly_relevant_fraction: highly as f64 / chunk_count as f64,
        });
    }

    // ASCII rendering: one character per chunk, darker = more similar.
    println!("\n=== Figure 1: query x chunk similarity heatmap (89 chunks, 10 queries) ===");
    for row in &rows {
        let max = row.scores.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let min = row.scores.iter().cloned().fold(f32::INFINITY, f32::min);
        let line: String = row
            .scores
            .iter()
            .map(|&s| {
                let level = if max > min {
                    (s - min) / (max - min)
                } else {
                    0.0
                };
                match (level * 4.0) as u32 {
                    0 => ' ',
                    1 => '.',
                    2 => ':',
                    3 => '+',
                    _ => '#',
                }
            })
            .collect();
        println!(
            "query {:>2} |{line}| highly relevant: {:>4.1} % of chunks",
            row.query,
            row.highly_relevant_fraction * 100.0
        );
    }

    let note = "89 synthetic passage chunks scored by the contriever-sim encoder".to_string();
    (note, rows)
}

/// Figure 1's claim: ten queries over 89 chunks, and for every query fewer
/// than a quarter of the chunks are highly relevant.
pub(super) fn check_fig1_heatmap(rows: &[HeatmapRow]) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        rows.len() == 10,
        format!("the heatmap has {} query rows, expected 10", rows.len()),
    );
    for row in rows {
        findings.require(
            row.scores.len() == 89,
            format!(
                "query {} scored {} chunks, expected 89",
                row.query,
                row.scores.len()
            ),
        );
        findings.require(
            row.highly_relevant_fraction < 0.25,
            format!(
                "query {} has {:.1}% highly relevant chunks, not under 25%",
                row.query,
                row.highly_relevant_fraction * 100.0
            ),
        );
    }
    findings.0
}

// ---------------------------------------------------------------------------
// Table II — accuracy comparison
// ---------------------------------------------------------------------------

/// One (model, method) row of Table II.
#[derive(Debug, Clone, Serialize)]
pub(super) struct AccuracyRow {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Score per dataset, in the order of [`TaskKind::ALL`].
    pub scores: Vec<f64>,
    /// Average over the eight datasets.
    pub average: f64,
}

/// Table II: accuracy of FP16 / Atom / KIVI / KVQuant / Cocktail on the
/// eight task families for the four model profiles.
pub(super) fn table2_accuracy() -> (String, Vec<AccuracyRow>) {
    let instances = INSTANCES_PER_CELL;
    let config = CocktailConfig::default();
    let mut rows = Vec::new();
    for model in model_suite() {
        for method in method_names() {
            let scores: Vec<f64> = TaskKind::ALL
                .iter()
                .map(|&kind| accuracy_cell(&model, kind, method, &config, instances))
                .collect();
            let average = scores.iter().sum::<f64>() / scores.len() as f64;
            rows.push(AccuracyRow {
                model: model.name().to_string(),
                method: method.to_string(),
                scores,
                average,
            });
        }
    }

    for model in model_suite() {
        let mut table_rows = Vec::new();
        for row in rows.iter().filter(|r| r.model == model.name()) {
            let mut cells = vec![row.method.clone()];
            cells.extend(row.scores.iter().map(|s| format!("{s:.2}")));
            cells.push(format!("{:.2}", row.average));
            table_rows.push(cells);
        }
        let mut headers = vec!["Method"];
        headers.extend(TaskKind::ALL.iter().map(|k| k.name()));
        headers.push("Average");
        print_table(
            &format!("Table II ({}): accuracy per dataset", model.name()),
            &headers,
            &table_rows,
        );
    }

    let note = format!(
        "synthetic LongBench-style tasks, {instances} instances per cell, alpha=0.6 beta=0.1 chunk=32"
    );
    (note, rows)
}

/// Table II's shape and score range. The paper's headline ordering
/// (Cocktail's average at or above the uniform baselines) is deliberately
/// *not* asserted: in this harness Cocktail's average is the lowest of the
/// five methods on all four profiles (ROADMAP item 4 records the numbers),
/// and the committed record pins that finding until the method work lands.
pub(super) fn check_table2_accuracy(rows: &[AccuracyRow]) -> Vec<Finding> {
    let scores = |r: &AccuracyRow| r.scores.iter().copied().chain([r.average]).collect();
    let rows = rows
        .iter()
        .map(|r| (format!("{} / {}", r.model, r.method), scores(r)));
    let expected_rows = model_suite().len() * method_names().len();
    check_accuracy_table("Table II", expected_rows, TaskKind::ALL.len() + 1, rows).0
}

// ---------------------------------------------------------------------------
// Table III — chunk size sweep
// ---------------------------------------------------------------------------

/// One chunk-size point of Table III.
#[derive(Debug, Clone, Serialize)]
pub(super) struct ChunkSizeRow {
    /// Chunk size in tokens.
    pub chunk_size: usize,
    /// ROUGE score of Cocktail on the QMSum-like task.
    pub rouge: f64,
}

/// Table III: the impact of the chunk size on Cocktail's accuracy
/// (QMSum-like summarization, Llama2-7B profile).
pub(super) fn table3_chunk_size() -> (String, Vec<ChunkSizeRow>) {
    let instances = INSTANCES_PER_CELL;
    let model = ModelProfile::llama2_7b_sim();
    let mut rows = Vec::new();
    for &chunk_size in &[8usize, 16, 32, 64, 128, 256] {
        let config = CocktailConfig::default()
            .with_chunk_size(chunk_size)
            .expect("chunk size is valid");
        let rouge = accuracy_cell(&model, TaskKind::QmSum, "Cocktail", &config, instances);
        rows.push(ChunkSizeRow { chunk_size, rouge });
    }
    print_rows(
        "Table III: impact of chunk size on model performance (QMSum, Cocktail)",
        &rows,
    );
    let note = format!("{instances} instances per point, Llama2-7B profile");
    (note, rows)
}

/// Table III's shape and score range.
pub(super) fn check_table3_chunk_size(rows: &[ChunkSizeRow]) -> Vec<Finding> {
    let rows = rows
        .iter()
        .map(|r| (format!("chunk size {}", r.chunk_size), vec![r.rouge]));
    check_accuracy_table("Table III", 6, 1, rows).0
}

// ---------------------------------------------------------------------------
// Table IV — encoder comparison
// ---------------------------------------------------------------------------

/// One encoder row of Table IV.
#[derive(Debug, Clone, Serialize)]
pub(super) struct EncoderRow {
    /// Encoder name (or "Baseline (FP16)").
    pub encoder: String,
    /// Scores on Qasper, SAMSum, TriviaQA and RepoBench-P.
    pub scores: Vec<f64>,
}

/// Table IV: Cocktail's accuracy with different context/query encoders on
/// four datasets, plus the FP16 baseline row.
pub(super) fn table4_encoders() -> (String, Vec<EncoderRow>) {
    let instances = INSTANCES_PER_CELL;
    let model = ModelProfile::llama2_7b_sim();
    let datasets = [
        TaskKind::Qasper,
        TaskKind::SamSum,
        TaskKind::TriviaQa,
        TaskKind::RepoBenchP,
    ];
    let mut rows = Vec::new();

    let baseline: Vec<f64> = datasets
        .iter()
        .map(|&kind| accuracy_cell(&model, kind, "FP16", &CocktailConfig::default(), instances))
        .collect();
    rows.push(EncoderRow {
        encoder: "Baseline (FP16)".to_string(),
        scores: baseline,
    });

    for encoder in EncoderKind::ALL {
        let config = CocktailConfig::default().with_encoder(encoder);
        let scores: Vec<f64> = datasets
            .iter()
            .map(|&kind| accuracy_cell(&model, kind, "Cocktail", &config, instances))
            .collect();
        rows.push(EncoderRow {
            encoder: encoder.name().to_string(),
            scores,
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut cells = vec![r.encoder.clone()];
            cells.extend(r.scores.iter().map(|s| format!("{s:.2}")));
            cells
        })
        .collect();
    print_table(
        "Table IV: Cocktail accuracy with different context/query encoders (Llama2-7B)",
        &["Method", "Qasper", "SAMSum", "TriviaQA", "RepoBench-P"],
        &table,
    );
    let note = format!("{instances} instances per cell");
    (note, rows)
}

/// Table IV's shape and score range.
pub(super) fn check_table4_encoders(rows: &[EncoderRow]) -> Vec<Finding> {
    let rows = rows.iter().map(|r| (r.encoder.clone(), r.scores.clone()));
    check_accuracy_table("Table IV", 1 + EncoderKind::ALL.len(), 4, rows).0
}

// ---------------------------------------------------------------------------
// Table V — ablation study
// ---------------------------------------------------------------------------

/// One ablation row of Table V.
#[derive(Debug, Clone, Serialize)]
pub(super) struct AblationRow {
    /// Variant name.
    pub variant: String,
    /// Accuracy (ROUGE on the QMSum-like task).
    pub accuracy: f64,
    /// Estimated GPU memory in GiB (Llama2-7B, batch 1).
    pub gpu_memory_gib: f64,
    /// Estimated TPOT in microseconds.
    pub tpot_us: f64,
}

/// Table V: the two-module ablation — accuracy from the extraction harness,
/// memory and TPOT from the hardware model.
pub(super) fn table5_ablation() -> (String, Vec<AblationRow>) {
    let instances = INSTANCES_PER_CELL;
    let model = ModelProfile::llama2_7b_sim();
    let deployment = deployment_for(&model);
    let variants: Vec<(&str, &str, &str)> = vec![
        // (display, accuracy policy behaviour, hardware profile)
        ("Baseline (FP16)", "FP16", "FP16"),
        ("w/o Module I", "CocktailNoSearch", "Cocktail w/o Module I"),
        (
            "w/o Module II",
            "CocktailNoReorder",
            "Cocktail w/o Module II",
        ),
        ("Cocktail", "Cocktail", "Cocktail"),
    ];

    let mut rows = Vec::new();
    for (display, accuracy_variant, hw_variant) in variants {
        let config = match accuracy_variant {
            "CocktailNoSearch" => CocktailConfig::default().with_search(false),
            "CocktailNoReorder" => CocktailConfig::default().with_reorder(false),
            _ => CocktailConfig::default(),
        };
        let method = if accuracy_variant == "FP16" {
            "FP16"
        } else {
            "Cocktail"
        };
        let accuracy = accuracy_cell(&model, TaskKind::QmSum, method, &config, instances);
        let profile = build_hw_profile(hw_variant);
        let gpu_memory_gib = deployment.gpu_memory_gib(&profile, 1);
        let tpot_us = deployment.tpot(&profile, TPOT_BATCH).total_us();
        rows.push(AblationRow {
            variant: display.to_string(),
            accuracy,
            gpu_memory_gib,
            tpot_us,
        });
    }

    print_rows(
        "Table V: impact of chunk-level quantization search (I) and KV cache computation (II)",
        &rows,
    );
    let note = format!(
        "accuracy from the extraction harness ({instances} instances), memory/TPOT from the A800 hardware model at batch {TPOT_BATCH}"
    );
    (note, rows)
}

/// Table V's claims: dropping Module I costs accuracy, dropping Module II
/// costs TPOT, and Cocktail needs less memory than FP16.
pub(super) fn check_table5_ablation(rows: &[AblationRow]) -> Vec<Finding> {
    let scored = rows.iter().map(|r| (r.variant.clone(), vec![r.accuracy]));
    let mut findings = check_accuracy_table("Table V", 4, 1, scored);
    let missing = AblationRow {
        variant: String::new(),
        accuracy: f64::NAN,
        gpu_memory_gib: f64::NAN,
        tpot_us: f64::NAN,
    };
    // A missing variant compares as NaN, which fails every ordering below.
    let find = |variant: &str| {
        rows.iter()
            .find(|r| r.variant == variant)
            .unwrap_or(&missing)
    };
    let (fp16, cocktail) = (find("Baseline (FP16)"), find("Cocktail"));
    let (no_search, no_reorder) = (find("w/o Module I"), find("w/o Module II"));
    findings.require(
        no_search.accuracy < cocktail.accuracy,
        format!(
            "without Module I the score is {:.2}, not below Cocktail's {:.2}",
            no_search.accuracy, cocktail.accuracy
        ),
    );
    findings.require(
        no_reorder.tpot_us > cocktail.tpot_us,
        format!(
            "without Module II TPOT is {:.0} us, not above Cocktail's {:.0} us",
            no_reorder.tpot_us, cocktail.tpot_us
        ),
    );
    findings.require(
        cocktail.gpu_memory_gib < fp16.gpu_memory_gib,
        format!(
            "Cocktail needs {:.2} GiB, not below FP16's {:.2} GiB",
            cocktail.gpu_memory_gib, fp16.gpu_memory_gib
        ),
    );
    findings.0
}

// ---------------------------------------------------------------------------
// Figures 4 and 5 — GPU memory and TPOT per (model, method)
// ---------------------------------------------------------------------------

/// Evaluates one hardware-model metric for every (model, method) pair of
/// the paper's suite, model-major, and prints the model x method table.
fn model_method_sweep(
    title: &str,
    decimals: usize,
    metric: impl Fn(&DeploymentModel, &KvCacheProfile) -> f64,
) -> Vec<(String, String, f64)> {
    let mut points = Vec::new();
    for model in model_suite() {
        let deployment = deployment_for(&model);
        for method in method_names() {
            let value = metric(&deployment, &build_hw_profile(method));
            points.push((model.name().to_string(), method.to_string(), value));
        }
    }
    let table: Vec<Vec<String>> = points
        .chunks(method_names().len())
        .map(|of_model| {
            let values = of_model.iter().map(|(_, _, v)| format!("{v:.decimals$}"));
            [of_model[0].0.clone()].into_iter().chain(values).collect()
        })
        .collect();
    let mut headers = vec!["Model"];
    headers.extend(method_names());
    print_table(title, &headers, &table);
    points
}

/// One (model, method) memory point of Figure 4.
#[derive(Debug, Clone, Serialize)]
pub(super) struct MemoryRow {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Estimated GPU memory in GiB.
    pub gpu_memory_gib: f64,
}

/// Figure 4: GPU memory of the five methods on the four models (QMSum-like
/// request filling the model's context window, batch 1).
pub(super) fn fig4_memory() -> (String, Vec<MemoryRow>) {
    let sweep = model_method_sweep(
        "Figure 4: GPU memory (GiB) of different models",
        2,
        |d, p| d.gpu_memory_gib(p, 1),
    );
    let rows = sweep
        .into_iter()
        .map(|(model, method, gpu_memory_gib)| MemoryRow {
            model,
            method,
            gpu_memory_gib,
        })
        .collect();
    let note = format!("analytic A800 model, context = max_context - {OUTPUT_LEN}, batch 1");
    (note, rows)
}

/// Figure 4's claim: Cocktail and Atom need less GPU memory than FP16 on
/// every model.
pub(super) fn check_fig4_memory(rows: &[MemoryRow]) -> Vec<Finding> {
    let mut findings = Findings::default();
    for model in model_suite() {
        let memory = |method: &str| {
            rows.iter()
                .find(|r| r.model == model.name() && r.method == method)
                .map_or(f64::NAN, |r| r.gpu_memory_gib)
        };
        for method in ["Cocktail", "Atom"] {
            findings.require(
                memory(method) < memory("FP16"),
                format!(
                    "{}: {method} needs {:.2} GiB, not below FP16's {:.2} GiB",
                    model.name(),
                    memory(method),
                    memory("FP16")
                ),
            );
        }
    }
    findings.0
}

/// One (model, method) TPOT point of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub(super) struct TpotRow {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Estimated time per output token in microseconds.
    pub tpot_us: f64,
}

/// Figure 5: time per output token of the five methods on the four models.
pub(super) fn fig5_tpot() -> (String, Vec<TpotRow>) {
    let title = format!("Figure 5: time per output token (us) at batch {TPOT_BATCH}");
    let sweep = model_method_sweep(&title, 0, |d, p| d.tpot(p, TPOT_BATCH).total_us());
    let rows = sweep
        .into_iter()
        .map(|(model, method, tpot_us)| TpotRow {
            model,
            method,
            tpot_us,
        })
        .collect();
    let note = format!("analytic A800 model, batch {TPOT_BATCH}");
    (note, rows)
}

/// Figure 5's claim: Cocktail has the lowest TPOT on every model.
pub(super) fn check_fig5_tpot(rows: &[TpotRow]) -> Vec<Finding> {
    let mut findings = Findings::default();
    for model in model_suite() {
        let of_model = || rows.iter().filter(|r| r.model == model.name());
        let cocktail = of_model()
            .find(|r| r.method == "Cocktail")
            .map_or(f64::NAN, |r| r.tpot_us);
        for row in of_model() {
            findings.require(
                cocktail <= row.tpot_us + 1e-9,
                format!(
                    "{}: {} has a lower TPOT ({:.0} us) than Cocktail ({cocktail:.0} us)",
                    model.name(),
                    row.method,
                    row.tpot_us
                ),
            );
        }
    }
    findings.0
}

// ---------------------------------------------------------------------------
// Figure 6 — throughput versus batch size
// ---------------------------------------------------------------------------

/// One (method, batch) throughput point of Figure 6.
#[derive(Debug, Clone, Serialize)]
pub(super) struct ThroughputRow {
    /// Method name.
    pub method: String,
    /// Batch size.
    pub batch: usize,
    /// Tokens per second, or `None` past the OOM point.
    pub tokens_per_s: Option<f64>,
}

/// Figure 6: throughput of the five methods as the batch size grows, with
/// OOM cutoffs (Llama2-7B profile).
pub(super) fn fig6_throughput() -> (String, Vec<ThroughputRow>) {
    let model = ModelProfile::llama2_7b_sim();
    let deployment = deployment_for(&model);
    let batches: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64, 100, 150, 200, 250, 300, 350, 400];
    let mut rows = Vec::new();
    for method in method_names() {
        let profile = build_hw_profile(method);
        for point in deployment.throughput_sweep(&profile, &batches) {
            rows.push(ThroughputRow {
                method: method.to_string(),
                batch: point.batch,
                tokens_per_s: point.tokens_per_s,
            });
        }
    }
    let table: Vec<Vec<String>> = batches
        .iter()
        .map(|&b| {
            let mut cells = vec![b.to_string()];
            for method in method_names() {
                let value = rows
                    .iter()
                    .find(|r| r.method == method && r.batch == b)
                    .and_then(|r| r.tokens_per_s);
                cells.push(match value {
                    Some(v) => format!("{v:.0}"),
                    None => "OOM".to_string(),
                });
            }
            cells
        })
        .collect();
    let mut headers = vec!["Batch"];
    headers.extend(method_names());
    print_table(
        "Figure 6: throughput (tokens/s) versus batch size (Llama2-7B)",
        &headers,
        &table,
    );
    let note = "analytic A800 model; OOM entries correspond to the interrupted lines of the figure"
        .to_string();
    (note, rows)
}

/// Figure 6's claims: FP16 runs out of memory inside the sweep, Cocktail
/// trails Atom at batch 1, leads it at batch 64, and KVQuant never
/// overtakes Cocktail.
pub(super) fn check_fig6_throughput(rows: &[ThroughputRow]) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        rows.iter()
            .any(|r| r.method == "FP16" && r.tokens_per_s.is_none()),
        "FP16 never hits OOM in the batch sweep",
    );
    let at = |method: &str, batch: usize| {
        rows.iter()
            .find(|r| r.method == method && r.batch == batch)
            .and_then(|r| r.tokens_per_s)
    };
    let rate = |method: &str, batch: usize| at(method, batch).unwrap_or(f64::NAN);
    findings.require(
        rate("Cocktail", 1) <= rate("Atom", 1) + 1e-9,
        format!(
            "batch 1: Cocktail ({:.0} tok/s) is above Atom ({:.0} tok/s)",
            rate("Cocktail", 1),
            rate("Atom", 1)
        ),
    );
    findings.require(
        rate("Cocktail", 64) > rate("Atom", 64),
        format!(
            "batch 64: Cocktail ({:.0} tok/s) is not ahead of Atom ({:.0} tok/s)",
            rate("Cocktail", 64),
            rate("Atom", 64)
        ),
    );
    for batch in [1usize, 8, 64] {
        if let (Some(cocktail), Some(kvquant)) = (at("Cocktail", batch), at("KVQuant", batch)) {
            findings.require(
                cocktail > kvquant,
                format!(
                    "batch {batch}: KVQuant ({kvquant:.0} tok/s) overtakes Cocktail \
                     ({cocktail:.0} tok/s)"
                ),
            );
        }
    }
    findings.0
}

// ---------------------------------------------------------------------------
// Figure 7 — α / β sensitivity
// ---------------------------------------------------------------------------

/// One (α, β) accuracy point of Figure 7.
#[derive(Debug, Clone, Serialize)]
pub(super) struct AlphaBetaRow {
    /// The α value of this point.
    pub alpha: f32,
    /// The β value of this point.
    pub beta: f32,
    /// Accuracy (ROUGE on the QMSum-like task).
    pub score: f64,
}

/// Figure 7: the impact of α and β on accuracy (QMSum-like task,
/// Llama2-7B profile). Returns the α sweep (β = 0.1) followed by the β
/// sweep (α = 0.6).
pub(super) fn fig7_alpha_beta() -> (String, Vec<AlphaBetaRow>) {
    let instances = INSTANCES_PER_CELL;
    let model = ModelProfile::llama2_7b_sim();
    let mut rows = Vec::new();
    for &alpha in &[0.1f32, 0.3, 0.5, 0.6, 0.7, 0.8, 0.9] {
        let config = CocktailConfig::default()
            .with_alpha(alpha)
            .expect("valid alpha");
        let score = accuracy_cell(&model, TaskKind::QmSum, "Cocktail", &config, instances);
        rows.push(AlphaBetaRow {
            alpha,
            beta: config.beta,
            score,
        });
    }
    for &beta in &[0.0f32, 0.05, 0.1, 0.2, 0.3, 0.4] {
        let config = CocktailConfig::default()
            .with_beta(beta)
            .expect("valid beta");
        let score = accuracy_cell(&model, TaskKind::QmSum, "Cocktail", &config, instances);
        rows.push(AlphaBetaRow {
            alpha: config.alpha,
            beta,
            score,
        });
    }

    print_rows("Figure 7a: accuracy versus alpha (beta = 0.1)", &rows[..7]);
    print_rows("Figure 7b: accuracy versus beta (alpha = 0.6)", &rows[7..]);
    let note = format!("{instances} instances per point, QMSum-like task");
    (note, rows)
}

/// Figure 7's shape (seven alpha points, six beta points) and score range.
pub(super) fn check_fig7_alpha_beta(rows: &[AlphaBetaRow]) -> Vec<Finding> {
    let rows = rows
        .iter()
        .map(|r| (format!("alpha {} beta {}", r.alpha, r.beta), vec![r.score]));
    check_accuracy_table("Figure 7", 7 + 6, 1, rows).0
}
