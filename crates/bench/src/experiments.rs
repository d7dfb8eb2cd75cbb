//! One function per table/figure of the paper.
//!
//! Each function runs the experiment, prints a human-readable table,
//! writes a machine-readable record under `results/` and returns the rows
//! so tests (and the `all_experiments` binary) can inspect them.

use crate::{
    accuracy_cell, build_hw_profile, method_names, model_suite, print_table, write_record,
    ExperimentRecord,
};
use cocktail_core::{
    CocktailConfig, CocktailOutcome, CocktailPipeline, PrefixCacheConfig, PrefixCacheStats,
    RequestId, RequestOutcome, SamplingParams, SchedulerConfig, ServeRequest, ServingEngine,
    ServingStats,
};
use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, KvCacheProfile, RequestShape};
use cocktail_model::{InferenceEngine, ModelConfig, ModelProfile};
use cocktail_quant::parallel as kernel_parallel;
use cocktail_retrieval::{similarity_matrix, ContrieverSim, EncoderKind};
use cocktail_workloads::{
    TaskKind, TrafficConfig, TrafficGenerator, TrafficRequest, WorkloadConfig,
};
use serde::Serialize;
use std::time::Instant;

/// Output length used by the hardware experiments (the paper's setting).
pub const OUTPUT_LEN: usize = 128;
/// Batch size used for the TPOT comparison (Figure 5); the paper does not
/// state its batch size, so a moderately loaded decode step is assumed.
pub const TPOT_BATCH: usize = 16;

fn hw_context_len(model: &ModelProfile) -> usize {
    model.full().max_context - OUTPUT_LEN
}

fn deployment_for(model: &ModelProfile) -> DeploymentModel {
    DeploymentModel::new(
        AcceleratorSpec::a800(),
        model.full().clone(),
        RequestShape::new(hw_context_len(model), OUTPUT_LEN),
    )
}

// ---------------------------------------------------------------------------
// Figure 1 — similarity heatmap
// ---------------------------------------------------------------------------

/// One row of the Figure 1 reproduction.
#[derive(Debug, Clone, Serialize)]
pub struct HeatmapRow {
    /// Query index.
    pub query: usize,
    /// Similarity score of every chunk for this query.
    pub scores: Vec<f32>,
    /// Fraction of chunks scoring in the top 20 % of the query's range.
    pub highly_relevant_fraction: f64,
}

/// Figure 1: similarity heatmap between one long passage (89 chunks) and 10
/// queries; most chunks are irrelevant to any given query.
pub fn fig1_heatmap() -> Vec<HeatmapRow> {
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

    let record = ExperimentRecord {
        id: "fig1_heatmap".to_string(),
        title: "Figure 1: similarity heatmap between a long passage and 10 queries".to_string(),
        note: "89 synthetic passage chunks scored by the contriever-sim encoder".to_string(),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Table II — accuracy comparison
// ---------------------------------------------------------------------------

/// One (model, method) row of Table II.
#[derive(Debug, Clone, Serialize)]
pub struct AccuracyRow {
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
pub fn table2_accuracy(instances: usize) -> Vec<AccuracyRow> {
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

    let record = ExperimentRecord {
        id: "table2_accuracy".to_string(),
        title: "Table II: accuracy comparison of KV cache quantization methods".to_string(),
        note: format!(
            "synthetic LongBench-style tasks, {instances} instances per cell, alpha=0.6 beta=0.1 chunk=32"
        ),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Table III — chunk size sweep
// ---------------------------------------------------------------------------

/// One chunk-size point of Table III.
#[derive(Debug, Clone, Serialize)]
pub struct ChunkSizeRow {
    /// Chunk size in tokens.
    pub chunk_size: usize,
    /// ROUGE score of Cocktail on the QMSum-like task.
    pub rouge: f64,
}

/// Table III: the impact of the chunk size on Cocktail's accuracy
/// (QMSum-like summarization, Llama2-7B profile).
pub fn table3_chunk_size(instances: usize) -> Vec<ChunkSizeRow> {
    let model = ModelProfile::llama2_7b_sim();
    let mut rows = Vec::new();
    for &chunk_size in &[8usize, 16, 32, 64, 128, 256] {
        let config = CocktailConfig::default()
            .with_chunk_size(chunk_size)
            .expect("chunk size is valid");
        let rouge = accuracy_cell(&model, TaskKind::QmSum, "Cocktail", &config, instances);
        rows.push(ChunkSizeRow { chunk_size, rouge });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.chunk_size.to_string(), format!("{:.2}", r.rouge)])
        .collect();
    print_table(
        "Table III: impact of chunk size on model performance (QMSum, Cocktail)",
        &["Chunk Size", "Rouge Score"],
        &table,
    );
    let record = ExperimentRecord {
        id: "table3_chunk_size".to_string(),
        title: "Table III: the impact of different chunk size on model performance".to_string(),
        note: format!("{instances} instances per point, Llama2-7B profile"),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Table IV — encoder comparison
// ---------------------------------------------------------------------------

/// One encoder row of Table IV.
#[derive(Debug, Clone, Serialize)]
pub struct EncoderRow {
    /// Encoder name (or "Baseline (FP16)").
    pub encoder: String,
    /// Scores on Qasper, SAMSum, TriviaQA and RepoBench-P.
    pub scores: Vec<f64>,
}

/// Table IV: Cocktail's accuracy with different context/query encoders on
/// four datasets, plus the FP16 baseline row.
pub fn table4_encoders(instances: usize) -> Vec<EncoderRow> {
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
    let record = ExperimentRecord {
        id: "table4_encoders".to_string(),
        title: "Table IV: performance comparison of different context and query encoders"
            .to_string(),
        note: format!("{instances} instances per cell"),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Table V — ablation study
// ---------------------------------------------------------------------------

/// One ablation row of Table V.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
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
pub fn table5_ablation(instances: usize) -> Vec<AblationRow> {
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

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.2}", r.accuracy),
                format!("{:.2}", r.gpu_memory_gib),
                format!("{:.0}", r.tpot_us),
            ]
        })
        .collect();
    print_table(
        "Table V: impact of chunk-level quantization search (I) and KV cache computation (II)",
        &["Method", "Score (QMSum)", "GPU Memory (GiB)", "TPOT (us)"],
        &table,
    );
    let record = ExperimentRecord {
        id: "table5_ablation".to_string(),
        title: "Table V: ablation of the two Cocktail modules".to_string(),
        note: format!(
            "accuracy from the extraction harness ({instances} instances), memory/TPOT from the A800 hardware model at batch {TPOT_BATCH}"
        ),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Figure 4 — GPU memory
// ---------------------------------------------------------------------------

/// One (model, method) memory point of Figure 4.
#[derive(Debug, Clone, Serialize)]
pub struct MemoryRow {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Estimated GPU memory in GiB.
    pub gpu_memory_gib: f64,
}

/// Figure 4: GPU memory of the five methods on the four models (QMSum-like
/// request filling the model's context window, batch 1).
pub fn fig4_memory() -> Vec<MemoryRow> {
    let mut rows = Vec::new();
    for model in model_suite() {
        let deployment = deployment_for(&model);
        for method in method_names() {
            let profile = build_hw_profile(method);
            rows.push(MemoryRow {
                model: model.name().to_string(),
                method: method.to_string(),
                gpu_memory_gib: deployment.gpu_memory_gib(&profile, 1),
            });
        }
    }
    let table: Vec<Vec<String>> = model_suite()
        .iter()
        .map(|m| {
            let mut cells = vec![m.name().to_string()];
            for method in method_names() {
                let value = rows
                    .iter()
                    .find(|r| r.model == m.name() && r.method == method)
                    .map(|r| r.gpu_memory_gib)
                    .unwrap_or(f64::NAN);
                cells.push(format!("{value:.2}"));
            }
            cells
        })
        .collect();
    let mut headers = vec!["Model"];
    headers.extend(method_names());
    print_table(
        "Figure 4: GPU memory (GiB) of different models",
        &headers,
        &table,
    );
    let record = ExperimentRecord {
        id: "fig4_memory".to_string(),
        title: "Figure 4: GPU memory of different models".to_string(),
        note: format!("analytic A800 model, context = max_context - {OUTPUT_LEN}, batch 1"),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Figure 5 — TPOT
// ---------------------------------------------------------------------------

/// One (model, method) TPOT point of Figure 5.
#[derive(Debug, Clone, Serialize)]
pub struct TpotRow {
    /// Model name.
    pub model: String,
    /// Method name.
    pub method: String,
    /// Estimated time per output token in microseconds.
    pub tpot_us: f64,
}

/// Figure 5: time per output token of the five methods on the four models.
pub fn fig5_tpot() -> Vec<TpotRow> {
    let mut rows = Vec::new();
    for model in model_suite() {
        let deployment = deployment_for(&model);
        for method in method_names() {
            let profile = build_hw_profile(method);
            rows.push(TpotRow {
                model: model.name().to_string(),
                method: method.to_string(),
                tpot_us: deployment.tpot(&profile, TPOT_BATCH).total_us(),
            });
        }
    }
    let table: Vec<Vec<String>> = model_suite()
        .iter()
        .map(|m| {
            let mut cells = vec![m.name().to_string()];
            for method in method_names() {
                let value = rows
                    .iter()
                    .find(|r| r.model == m.name() && r.method == method)
                    .map(|r| r.tpot_us)
                    .unwrap_or(f64::NAN);
                cells.push(format!("{value:.0}"));
            }
            cells
        })
        .collect();
    let mut headers = vec!["Model"];
    headers.extend(method_names());
    print_table(
        &format!("Figure 5: time per output token (us) at batch {TPOT_BATCH}"),
        &headers,
        &table,
    );
    let record = ExperimentRecord {
        id: "fig5_tpot".to_string(),
        title: "Figure 5: time per output token (TPOT) of different models".to_string(),
        note: format!("analytic A800 model, batch {TPOT_BATCH}"),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Figure 6 — throughput versus batch size
// ---------------------------------------------------------------------------

/// One (method, batch) throughput point of Figure 6.
#[derive(Debug, Clone, Serialize)]
pub struct ThroughputRow {
    /// Method name.
    pub method: String,
    /// Batch size.
    pub batch: usize,
    /// Tokens per second, or `None` past the OOM point.
    pub tokens_per_s: Option<f64>,
}

/// Figure 6: throughput of the five methods as the batch size grows, with
/// OOM cutoffs (Llama2-7B profile).
pub fn fig6_throughput() -> Vec<ThroughputRow> {
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
    let record = ExperimentRecord {
        id: "fig6_throughput".to_string(),
        title: "Figure 6: throughput of different methods with different batch sizes".to_string(),
        note: "analytic A800 model; OOM entries correspond to the interrupted lines of the figure"
            .to_string(),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Figure 7 — α / β sensitivity
// ---------------------------------------------------------------------------

/// One (α, β) accuracy point of Figure 7.
#[derive(Debug, Clone, Serialize)]
pub struct AlphaBetaRow {
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
pub fn fig7_alpha_beta(instances: usize) -> Vec<AlphaBetaRow> {
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

    let alpha_rows: Vec<Vec<String>> = rows
        .iter()
        .take(7)
        .map(|r| vec![format!("{:.2}", r.alpha), format!("{:.2}", r.score)])
        .collect();
    print_table(
        "Figure 7a: accuracy versus alpha (beta = 0.1)",
        &["alpha", "Score"],
        &alpha_rows,
    );
    let beta_rows: Vec<Vec<String>> = rows
        .iter()
        .skip(7)
        .map(|r| vec![format!("{:.2}", r.beta), format!("{:.2}", r.score)])
        .collect();
    print_table(
        "Figure 7b: accuracy versus beta (alpha = 0.6)",
        &["beta", "Score"],
        &beta_rows,
    );
    let record = ExperimentRecord {
        id: "fig7_alpha_beta".to_string(),
        title: "Figure 7: the impact of alpha and beta on model performance".to_string(),
        note: format!("{instances} instances per point, QMSum-like task"),
        rows: &rows,
    };
    let path = write_record(&record);
    println!("(written to {})", path.display());
    rows
}

// ---------------------------------------------------------------------------
// Serving throughput — batched versus sequential serving
// ---------------------------------------------------------------------------

/// One batch-size point of the serving-throughput experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ServingThroughputRow {
    /// Batch cap of the serving engine for this point.
    pub batch: usize,
    /// Number of requests served.
    pub requests: usize,
    /// Total tokens generated across the requests.
    pub generated_tokens: usize,
    /// Measured end-to-end tokens/s of the batched serving engine.
    pub batched_tokens_per_s: f64,
    /// Measured tokens/s of the same requests run sequentially through
    /// `CocktailPipeline::run` (identical for every row; repeated so each
    /// row is self-contained).
    pub sequential_tokens_per_s: f64,
    /// `batched_tokens_per_s / sequential_tokens_per_s`.
    pub measured_speedup: f64,
    /// The hwsim A800 prediction (Cocktail profile, Llama2-7B, 3968-token
    /// context) at this batch size, tokens/s.
    pub hwsim_tokens_per_s: Option<f64>,
    /// hwsim's predicted speedup of this batch size over batch 1.
    pub hwsim_speedup_vs_batch1: Option<f64>,
}

/// Full payload of the serving-throughput record: the sweep rows plus the
/// per-request serving statistics of the largest-batch run (timing
/// breakdowns per request, not just aggregates).
#[derive(Debug, Clone, Serialize)]
pub struct ServingThroughputReport {
    /// The batch sweep.
    pub rows: Vec<ServingThroughputRow>,
    /// Per-request stats (cache bytes, admission/finish steps, phase
    /// timings) from the run at the largest batch size.
    pub request_stats: Vec<ServingStats>,
}

/// Serving throughput with the default measurement settings: best-of-3
/// timing, record written to `results/serving_throughput.json`.
///
/// # Panics
///
/// Panics if serving fails or if a batched answer differs from its
/// sequential counterpart (the determinism guarantee).
pub fn serving_throughput() -> ServingThroughputReport {
    serving_throughput_with(3, true)
}

/// Serving throughput: the same mixed-family traffic served sequentially
/// (one `CocktailPipeline::run` per request) and through the batched
/// `ServingEngine` at growing batch caps. Batching amortizes the decode
/// phase's weight streaming — and, on multi-core hosts, runs the
/// per-request attention in parallel — so batched tokens/s meets or beats
/// sequential from batch 2 up: the measured counterpart of the hwsim
/// batch-throughput curve (Figure 6), whose prediction is recorded
/// alongside.
///
/// Each mode is timed `repetitions` times and the best (minimum) wall
/// time is kept, the standard defence against scheduler noise; an untimed
/// warm-up pass precedes the measurements.
///
/// # Panics
///
/// Panics if serving fails or if a batched answer differs from its
/// sequential counterpart (the determinism guarantee).
pub fn serving_throughput_with(repetitions: usize, write: bool) -> ServingThroughputReport {
    let repetitions = repetitions.max(1);
    let requests = 4usize;
    let batches = [1usize, 2, requests];
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    // Short contexts with long generations: the decode phase (where
    // batching pays off) dominates the runtime, as in a serving steady
    // state.
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens: 32,
            workload: WorkloadConfig::tiny().with_context_words(96),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 0,
            prefix_words: 0,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        },
        0xC0C_7A11,
    )
    .generate();

    let profile = ModelProfile::llama2_7b_sim;
    let pipeline =
        CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
    let run_sequential = || -> Vec<CocktailOutcome> {
        traffic
            .iter()
            .map(|r| {
                pipeline
                    .run(&r.task.context, &r.task.query, r.max_new_tokens)
                    .expect("sequential run succeeds")
            })
            .collect()
    };

    // Untimed warm-up (cold caches, lazy page faults), then the reference
    // outcomes and the best-of-N sequential timing.
    let sequential = run_sequential();
    let generated_tokens: usize = sequential.iter().map(|o| o.generated_tokens.len()).sum();
    let mut seq_elapsed = f64::INFINITY;
    for _ in 0..repetitions {
        let start = Instant::now();
        let outcomes = run_sequential();
        seq_elapsed = seq_elapsed.min(start.elapsed().as_secs_f64().max(1e-9));
        assert_eq!(outcomes.len(), sequential.len());
    }
    let sequential_tokens_per_s = generated_tokens as f64 / seq_elapsed;

    // hwsim prediction for the same batch sizes (A800, Llama2-7B profile).
    let deployment = DeploymentModel::new(
        AcceleratorSpec::a800(),
        profile().full().clone(),
        RequestShape::with_context(3968),
    );
    let cocktail_profile = KvCacheProfile::cocktail_default();
    let hwsim_batch1 = deployment.throughput(&cocktail_profile, 1).tokens_per_s;

    let mut rows = Vec::new();
    let mut request_stats = Vec::new();
    for batch in batches {
        let mut elapsed = f64::INFINITY;
        let mut last_outcomes = Vec::new();
        for _ in 0..repetitions {
            let mut engine = ServingEngine::new(profile(), config.clone())
                .expect("serving config is valid")
                .with_scheduler_config(SchedulerConfig::default().with_max_batch(batch));
            let start = Instant::now();
            for request in &traffic {
                engine.submit(ServeRequest::new(
                    request.task.context.clone(),
                    request.task.query.clone(),
                    request.max_new_tokens,
                ));
            }
            let outcomes = engine.run_until_idle().expect("batched serving succeeds");
            elapsed = elapsed.min(start.elapsed().as_secs_f64().max(1e-9));
            assert_eq!(outcomes.len(), sequential.len());
            for (outcome, seq) in outcomes.iter().zip(&sequential) {
                assert_eq!(
                    outcome.outcome.generated_tokens, seq.generated_tokens,
                    "batched serving must be byte-identical to sequential runs"
                );
            }
            last_outcomes = outcomes;
        }
        let hwsim_point = deployment.throughput(&cocktail_profile, batch).tokens_per_s;
        rows.push(ServingThroughputRow {
            batch,
            requests,
            generated_tokens,
            batched_tokens_per_s: generated_tokens as f64 / elapsed,
            sequential_tokens_per_s,
            measured_speedup: (generated_tokens as f64 / elapsed) / sequential_tokens_per_s,
            hwsim_tokens_per_s: hwsim_point,
            hwsim_speedup_vs_batch1: match (hwsim_point, hwsim_batch1) {
                (Some(p), Some(b)) if b > 0.0 => Some(p / b),
                _ => None,
            },
        });
        if batch == requests {
            request_stats = last_outcomes.into_iter().map(|o| o.stats).collect();
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.batch.to_string(),
                format!("{:.1}", r.batched_tokens_per_s),
                format!("{:.1}", r.sequential_tokens_per_s),
                format!("{:.2}x", r.measured_speedup),
                r.hwsim_speedup_vs_batch1
                    .map(|s| format!("{s:.2}x"))
                    .unwrap_or_else(|| "-".to_string()),
            ]
        })
        .collect();
    print_table(
        "Serving throughput: batched ServingEngine vs sequential pipeline (Llama2-7B sim)",
        &[
            "Batch",
            "Batched tok/s",
            "Sequential tok/s",
            "Speedup",
            "hwsim speedup",
        ],
        &table,
    );

    let report = ServingThroughputReport {
        rows,
        request_stats,
    };
    if write {
        let record = ExperimentRecord {
            id: "serving_throughput".to_string(),
            title: "Serving throughput: continuous batching vs sequential single-request runs"
                .to_string(),
            note: format!(
                "{requests} mixed-family requests (32 new tokens each) on the Llama2-7B sim \
                 profile, best of {repetitions} timed runs per mode; absolute tokens/s are \
                 CPU-simulation numbers, the hwsim columns give the analytic A800 prediction \
                 for the same batch sizes"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// TTFT with prefix reuse — shared-prefix traffic through the prefix cache
// ---------------------------------------------------------------------------

/// One request of the TTFT prefix-reuse experiment.
#[derive(Debug, Clone, Serialize)]
pub struct TtftPrefixReuseRow {
    /// Submission index of the request.
    pub request: usize,
    /// Shared-prefix group the request belongs to.
    pub group: usize,
    /// Whether the request prefilled its whole prompt from scratch.
    pub cold: bool,
    /// Context tokens of the request.
    pub context_tokens: usize,
    /// Prompt tokens served from the prefix cache instead of re-prefilled.
    pub prefix_reused_tokens: usize,
    /// Best-of-N prefill wall time in microseconds.
    pub prefill_us: u64,
    /// Best-of-N compression (search + cache rewrite) wall time.
    pub compress_us: u64,
    /// Time to first token: prefill plus compression.
    pub ttft_us: u64,
}

/// Full payload of the TTFT prefix-reuse record.
#[derive(Debug, Clone, Serialize)]
pub struct TtftPrefixReuseReport {
    /// Number of shared-prefix groups in the traffic.
    pub groups: usize,
    /// Requests per group (>= 2, so every group has a reuse opportunity).
    pub requests_per_group: usize,
    /// Per-request rows in submission order.
    pub rows: Vec<TtftPrefixReuseRow>,
    /// Mean TTFT of the cold (first-in-group) requests, microseconds.
    pub cold_mean_ttft_us: f64,
    /// Mean TTFT of the prefix-reusing requests, microseconds.
    pub warm_mean_ttft_us: f64,
    /// `warm_mean_ttft_us / cold_mean_ttft_us` (< 1 means reuse pays).
    pub warm_over_cold: f64,
    /// Prefix-cache counters at the end of the run.
    pub prefix_cache: PrefixCacheStats,
}

/// TTFT prefix-reuse with the default settings: best-of-3 timing, record
/// written to `results/ttft_prefix_reuse.json`.
///
/// # Panics
///
/// Panics if serving fails or a prefix-reusing answer differs from the
/// cold sequential reference (the bit-exactness guarantee).
pub fn ttft_prefix_reuse() -> TtftPrefixReuseReport {
    ttft_prefix_reuse_with(3, true)
}

/// Time-to-first-token under shared-prefix traffic: N groups of requests
/// share a long context preamble; the first request of each group prefills
/// it cold, every later one resumes from the prefix cache and only
/// prefills its own suffix — so its TTFT (prefill + compression) drops
/// while its answer stays byte-identical to a cold run (asserted against
/// sequential `CocktailPipeline` outcomes on every repetition).
///
/// Each request's TTFT is the minimum over `repetitions` full serving
/// runs, the usual defence against scheduler noise.
///
/// # Panics
///
/// Panics if serving fails or any answer diverges from the cold reference.
pub fn ttft_prefix_reuse_with(repetitions: usize, write: bool) -> TtftPrefixReuseReport {
    let repetitions = repetitions.max(1);
    let groups = 3usize;
    let requests_per_group = 3usize;
    let requests = groups * requests_per_group;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    // Long shared preambles with short per-request tails: the shared part
    // dominates prefill cost, as with a real system prompt or shared
    // document.
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens: 4,
            workload: WorkloadConfig::tiny().with_context_words(48),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: groups,
            prefix_words: 192,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        },
        0x77F7_0001,
    )
    .generate();

    let profile = ModelProfile::llama2_7b_sim;
    let pipeline =
        CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
    let reference: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .expect("cold sequential reference run succeeds")
        })
        .collect();

    let mut best: Vec<PipelineTimingsBest> = vec![PipelineTimingsBest::default(); requests];
    let mut last_stats: Vec<ServingStats> = Vec::new();
    let mut prefix_cache = PrefixCacheStats::default();
    for _ in 0..repetitions {
        let mut engine = ServingEngine::new(profile(), config.clone())
            .expect("serving config is valid")
            .with_prefix_cache(PrefixCacheConfig::default());
        for request in &traffic {
            engine.submit(ServeRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ));
        }
        let outcomes = engine
            .run_until_idle()
            .expect("prefix-cached serving succeeds");
        assert_eq!(outcomes.len(), reference.len());
        for (outcome, cold) in outcomes.iter().zip(&reference) {
            assert_eq!(
                outcome.outcome.generated_tokens, cold.generated_tokens,
                "prefix reuse must be byte-identical to a cold full prefill"
            );
            assert_eq!(outcome.outcome.answer, cold.answer);
        }
        for (slot, outcome) in best.iter_mut().zip(&outcomes) {
            let t = outcome.stats.timings;
            let ttft = t.prefill_us + t.compress_us;
            if ttft < slot.ttft_us {
                *slot = PipelineTimingsBest {
                    ttft_us: ttft,
                    prefill_us: t.prefill_us,
                    compress_us: t.compress_us,
                };
            }
        }
        prefix_cache = engine
            .prefix_cache_stats()
            .expect("the prefix cache is enabled");
        last_stats = outcomes.into_iter().map(|o| o.stats).collect();
    }

    let rows: Vec<TtftPrefixReuseRow> = traffic
        .iter()
        .enumerate()
        .map(|(i, request)| {
            let reused = last_stats[i].prefix_reused_tokens;
            TtftPrefixReuseRow {
                request: i,
                group: request.prefix_group.expect("shared-prefix mode is on"),
                cold: reused == 0,
                context_tokens: last_stats[i].context_tokens,
                prefix_reused_tokens: reused,
                prefill_us: best[i].prefill_us,
                compress_us: best[i].compress_us,
                ttft_us: best[i].ttft_us,
            }
        })
        .collect();
    let mean = |cold: bool| -> f64 {
        let picked: Vec<f64> = rows
            .iter()
            .filter(|r| r.cold == cold)
            .map(|r| r.ttft_us as f64)
            .collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64
    };
    let cold_mean_ttft_us = mean(true);
    let warm_mean_ttft_us = mean(false);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.request.to_string(),
                r.group.to_string(),
                if r.cold { "cold" } else { "warm" }.to_string(),
                r.context_tokens.to_string(),
                r.prefix_reused_tokens.to_string(),
                r.prefill_us.to_string(),
                r.ttft_us.to_string(),
            ]
        })
        .collect();
    print_table(
        "TTFT with shared-prefix reuse (Llama2-7B sim, 3 groups x 3 requests)",
        &[
            "Req",
            "Group",
            "Mode",
            "Ctx toks",
            "Reused",
            "Prefill us",
            "TTFT us",
        ],
        &table,
    );
    println!(
        "cold mean TTFT {cold_mean_ttft_us:.0} us, warm mean TTFT {warm_mean_ttft_us:.0} us \
         ({:.2}x)",
        warm_mean_ttft_us / cold_mean_ttft_us
    );

    let report = TtftPrefixReuseReport {
        groups,
        requests_per_group,
        rows,
        cold_mean_ttft_us,
        warm_mean_ttft_us,
        warm_over_cold: warm_mean_ttft_us / cold_mean_ttft_us,
        prefix_cache,
    };
    if write {
        let record = ExperimentRecord {
            id: "ttft_prefix_reuse".to_string(),
            title: "TTFT under shared-prefix traffic: prefix-cache reuse vs cold prefill"
                .to_string(),
            note: format!(
                "{groups} groups x {requests_per_group} requests sharing a 192-word preamble on \
                 the Llama2-7B sim profile, best of {repetitions} serving runs; TTFT = prefill + \
                 compression; warm answers asserted byte-identical to cold sequential runs"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Streaming latency — per-token streaming with client-side cancellations
// ---------------------------------------------------------------------------

/// One request of the streaming-latency experiment.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingLatencyRow {
    /// Submission index of the request.
    pub request: usize,
    /// The request's generation budget.
    pub max_new_tokens: usize,
    /// Tokens actually streamed before completion or cancellation.
    pub generated_tokens: usize,
    /// Whether the client cancelled the request mid-decode.
    pub cancelled: bool,
    /// The client's disconnect point (streamed tokens), if any.
    pub cancel_after_tokens: Option<usize>,
    /// Engine step at which the first token was streamed.
    pub first_token_step: Option<usize>,
    /// Engine step at which the request left the engine.
    pub finished_step: Option<usize>,
    /// Best-of-N wall time from serve start to the first streamed token.
    pub first_token_us: u64,
    /// Best-of-N wall time from serve start to completion (or to the
    /// cancellation for a cancelled request).
    pub completion_us: u64,
}

/// Full payload of the streaming-latency record.
#[derive(Debug, Clone, Serialize)]
pub struct StreamingLatencyReport {
    /// Number of requests in the traffic.
    pub requests: usize,
    /// The KV budget the engine ran under, bytes.
    pub budget_bytes: usize,
    /// The highest KV usage observed at any step.
    pub max_kv_bytes_in_use: usize,
    /// Whether usage stayed within the budget at every step.
    pub budget_ok: bool,
    /// Per-request rows in submission order.
    pub rows: Vec<StreamingLatencyRow>,
    /// Mean first-token wall time across the requests, microseconds.
    pub mean_first_token_us: f64,
    /// Mean completion wall time across the requests, microseconds.
    pub mean_completion_us: f64,
}

/// Streaming latency with the default settings: best-of-3 timing, record
/// written to `results/streaming_latency.json`.
///
/// # Panics
///
/// Panics if serving fails, a survivor's streamed answer differs from its
/// solo sequential run, or a cancelled request's streamed prefix diverges.
pub fn streaming_latency() -> StreamingLatencyReport {
    streaming_latency_with(3, true)
}

/// Streaming latency under cancelling traffic: mixed-family requests are
/// served through [`ServingEngine::step_events`] with per-token streaming;
/// a deterministic subset of clients disconnects mid-decode, upon which the
/// driver calls [`ServingEngine::cancel`] — freeing the request's KV budget
/// immediately. Measured per request: wall time to the *first* streamed
/// token versus wall time to completion, the gap streaming exists to
/// exploit. Byte-identity is asserted throughout: every survivor's
/// concatenated pieces equal its own solo sequential pipeline run, and
/// every cancelled request's streamed text is a byte prefix of its solo
/// run.
///
/// Each request's latencies are minima over `repetitions` full serving
/// runs, the usual defence against scheduler noise.
///
/// # Panics
///
/// Panics on any serving failure or byte divergence (see above).
pub fn streaming_latency_with(repetitions: usize, write: bool) -> StreamingLatencyReport {
    let repetitions = repetitions.max(1);
    let requests = 6usize;
    let max_new_tokens = 24usize;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens,
            workload: WorkloadConfig::tiny().with_context_words(96),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 0,
            prefix_words: 0,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 400,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        },
        0x573E_AA11,
    )
    .generate();
    assert!(
        traffic.iter().any(|r| r.cancel_after_tokens.is_some())
            && traffic.iter().any(|r| r.cancel_after_tokens.is_none()),
        "the trace must mix cancelled and surviving requests"
    );

    let profile = ModelProfile::llama2_7b_sim;
    let pipeline =
        CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
    let solo: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .expect("solo sequential reference run succeeds")
        })
        .collect();

    // Budget for roughly three concurrent requests, so streaming runs under
    // real admission pressure and the invariant is exercised.
    let tail = (max_new_tokens - 1) * pipeline.engine().config().kv_bytes_per_token_fp16();
    let budget = solo
        .iter()
        .map(|o| o.cache_bytes + tail)
        .max()
        .expect("at least one request")
        * 3;

    let mut best_first = vec![u64::MAX; requests];
    let mut best_completion = vec![u64::MAX; requests];
    let mut last_stats: Vec<ServingStats> = Vec::new();
    let mut max_kv_bytes_in_use = 0usize;
    for _ in 0..repetitions {
        let mut engine = ServingEngine::new(profile(), config.clone())
            .expect("serving config is valid")
            .with_scheduler_config(SchedulerConfig::default().with_budget(budget));
        let ids: Vec<RequestId> = traffic
            .iter()
            .map(|r| {
                engine.submit(ServeRequest::new(
                    r.task.context.clone(),
                    r.task.query.clone(),
                    r.max_new_tokens,
                ))
            })
            .collect();
        let index_of = |id: RequestId| ids.iter().position(|&i| i == id).expect("known id");

        let start = Instant::now();
        let mut first_us = vec![None::<u64>; requests];
        let mut completion_us = vec![None::<u64>; requests];
        let mut streamed: Vec<String> = vec![String::new(); requests];
        let mut cancelled = vec![false; requests];
        while !engine.is_idle() {
            let events = engine.step_events().expect("streaming serving succeeds");
            let now_us = start.elapsed().as_micros() as u64;
            for event in &events {
                let i = index_of(event.id);
                streamed[i].push_str(&event.piece);
                if event.token.is_some() {
                    first_us[i].get_or_insert(now_us);
                }
                if event.finish.is_some() {
                    completion_us[i] = Some(now_us);
                }
            }
            // Client-side disconnects: cancel every request whose streamed
            // token count just reached its disconnect point.
            for (i, request) in traffic.iter().enumerate() {
                if let Some(after) = request.cancel_after_tokens {
                    let count = engine
                        .stats(ids[i])
                        .map_or(after, |stats| stats.generated_tokens);
                    if !cancelled[i] && count >= after {
                        assert!(
                            engine.cancel(ids[i]),
                            "disconnect point precedes completion"
                        );
                        cancelled[i] = true;
                        completion_us[i] = Some(start.elapsed().as_micros() as u64);
                    }
                }
            }
            max_kv_bytes_in_use = max_kv_bytes_in_use.max(engine.kv_bytes_in_use());
            assert!(
                engine.kv_bytes_in_use() <= budget,
                "KV budget invariant violated while streaming"
            );
        }

        let mut stats = Vec::with_capacity(requests);
        for (i, id) in ids.iter().enumerate() {
            if cancelled[i] {
                assert!(
                    solo[i].answer.starts_with(&streamed[i]),
                    "request {i}: cancelled stream diverged from its solo run"
                );
                stats.push(engine.take_cancelled(*id).expect("cancelled stats"));
            } else {
                let outcome = engine.take_outcome(*id).expect("survivor completed");
                assert_eq!(
                    streamed[i], outcome.outcome.answer,
                    "request {i}: streamed pieces diverged from the collected answer"
                );
                assert_eq!(
                    outcome.outcome.answer, solo[i].answer,
                    "request {i}: streamed serving diverged from its solo run"
                );
                stats.push(outcome.stats);
            }
            best_first[i] = best_first[i].min(first_us[i].expect("every request streams a token"));
            best_completion[i] =
                best_completion[i].min(completion_us[i].expect("every request terminates"));
        }
        last_stats = stats;
    }

    let rows: Vec<StreamingLatencyRow> = traffic
        .iter()
        .enumerate()
        .map(|(i, request)| StreamingLatencyRow {
            request: i,
            max_new_tokens: request.max_new_tokens,
            generated_tokens: last_stats[i].generated_tokens,
            cancelled: last_stats[i].cancelled,
            cancel_after_tokens: request.cancel_after_tokens,
            first_token_step: last_stats[i].first_token_step,
            finished_step: last_stats[i].finished_step,
            first_token_us: best_first[i],
            completion_us: best_completion[i],
        })
        .collect();
    let mean = |values: &dyn Fn(&StreamingLatencyRow) -> u64| -> f64 {
        rows.iter().map(|r| values(r) as f64).sum::<f64>() / rows.len().max(1) as f64
    };
    let mean_first_token_us = mean(&|r: &StreamingLatencyRow| r.first_token_us);
    let mean_completion_us = mean(&|r: &StreamingLatencyRow| r.completion_us);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.request.to_string(),
                if r.cancelled {
                    "cancelled"
                } else {
                    "completed"
                }
                .to_string(),
                format!("{}/{}", r.generated_tokens, r.max_new_tokens),
                r.first_token_step
                    .map_or("-".to_string(), |s| s.to_string()),
                r.first_token_us.to_string(),
                r.completion_us.to_string(),
            ]
        })
        .collect();
    print_table(
        "Streaming latency: first token vs completion under cancelling traffic (Llama2-7B sim)",
        &[
            "Req",
            "Outcome",
            "Tokens",
            "First step",
            "First tok us",
            "Complete us",
        ],
        &table,
    );
    println!(
        "mean first-token {mean_first_token_us:.0} us vs mean completion {mean_completion_us:.0} \
         us; peak KV {max_kv_bytes_in_use} of {budget} budget bytes"
    );

    let report = StreamingLatencyReport {
        requests,
        budget_bytes: budget,
        max_kv_bytes_in_use,
        budget_ok: max_kv_bytes_in_use <= budget,
        rows,
        mean_first_token_us,
        mean_completion_us,
    };
    if write {
        let record = ExperimentRecord {
            id: "streaming_latency".to_string(),
            title: "Streaming latency: per-token delivery and client cancellations under budget"
                .to_string(),
            note: format!(
                "{requests} mixed-family requests ({max_new_tokens} token budget each, 400/1000 \
                 client disconnect rate) on the Llama2-7B sim profile, best of {repetitions} \
                 serving runs; survivors asserted byte-identical to solo sequential runs, \
                 cancelled streams asserted to be byte prefixes of theirs"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Prefix-trie dedup — branching traffic through the token-trie prefix cache
// ---------------------------------------------------------------------------

/// One request of the prefix-trie dedup experiment.
#[derive(Debug, Clone, Serialize)]
pub struct PrefixTrieDedupRow {
    /// Submission index of the request.
    pub request: usize,
    /// Shared-prefix group the request belongs to.
    pub group: usize,
    /// Whether the request prefilled its whole prompt from scratch.
    pub cold: bool,
    /// Context tokens of the request.
    pub context_tokens: usize,
    /// Prompt tokens served from the trie instead of re-prefilled.
    pub prefix_reused_tokens: usize,
}

/// Full payload of the prefix-trie dedup record.
#[derive(Debug, Clone, Serialize)]
pub struct PrefixTrieDedupReport {
    /// Number of shared-prefix groups in the branching traffic.
    pub groups: usize,
    /// Requests per group (>= 2, so every group has divergent branches).
    pub requests_per_group: usize,
    /// Words in each group's shared preamble.
    pub preamble_words: usize,
    /// Per-request rows (unlimited-budget dedup phase), submission order.
    pub rows: Vec<PrefixTrieDedupRow>,
    /// Resident trie bytes after the dedup phase (every context cached,
    /// nothing evicted): the sum over trie nodes, each branch's shared
    /// preamble counted once.
    pub trie_resident_bytes: usize,
    /// What a whole-sequence (LCP map) cache would hold for the same
    /// traffic: every distinct context's full FP32 rows, the shared
    /// preambles duplicated per branch.
    pub lcp_baseline_bytes: usize,
    /// `trie_resident_bytes / lcp_baseline_bytes` (< 1 means the trie
    /// deduplicates).
    pub dedup_ratio: f64,
    /// Trie counters after the dedup phase.
    pub dedup_stats: PrefixCacheStats,
    /// The KV budget of the pressure phase, bytes.
    pub pressure_budget_bytes: usize,
    /// The trie node cap of the pressure phase.
    pub pressure_node_cap: usize,
    /// Trie counters after the pressure phase; its `partial_evictions`
    /// show budget pressure trimming branches leaf-ward instead of
    /// dropping whole contexts.
    pub pressure_stats: PrefixCacheStats,
    /// Whether every trie-on answer (both phases) was byte-identical to
    /// the trie-off baseline (also asserted — the experiment panics on
    /// divergence).
    pub byte_identical: bool,
}

/// Prefix-trie dedup with the default settings: record written to
/// `results/prefix_trie_dedup.json`.
///
/// # Panics
///
/// Panics if serving fails or any trie-on answer differs from the trie-off
/// baseline (the bit-exactness guarantee).
pub fn prefix_trie_dedup() -> PrefixTrieDedupReport {
    prefix_trie_dedup_with(true)
}

/// Storage dedup of the token-trie prefix cache under branching traffic:
/// groups of requests share a long context preamble and then *diverge* —
/// each request inserts its own branch segment right after the preamble.
/// A whole-sequence prefix cache (the pre-trie LCP map) stores every
/// branch's full context, duplicating the preamble per branch; the trie
/// stores each shared run exactly once, so its resident bytes — what the
/// scheduler budget is charged — must be strictly lower.
///
/// Two phases run, both asserted byte-identical to a trie-off baseline:
///
/// 1. **Dedup** (unlimited budget): all branches are cached; resident trie
///    bytes are compared against the whole-sequence baseline computed from
///    the same requests' context lengths.
/// 2. **Pressure** (budget for ~2 requests, small node cap): admission and
///    insertion evict under pressure; the trie must exhibit *partial*
///    evictions — branch leaves trimmed while shared ancestors survive.
///
/// No wall-clock timing is involved; every number in the record is
/// deterministic.
///
/// # Panics
///
/// Panics if serving fails or any answer diverges from the baseline.
pub fn prefix_trie_dedup_with(write: bool) -> PrefixTrieDedupReport {
    let groups = 2usize;
    let requests_per_group = 3usize;
    let requests = groups * requests_per_group;
    let preamble_words = 96usize;
    let max_new_tokens = 4usize;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    // Long shared preambles, short divergent branches and tails: the
    // preamble dominates storage, so deduplication is the whole game.
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens,
            workload: WorkloadConfig::tiny().with_context_words(32),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: groups,
            prefix_words: preamble_words,
            branch_words: 12,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        },
        0x7B1E_0005,
    )
    .generate();

    let profile = ModelProfile::llama2_7b_sim;
    let serve = |engine: &mut ServingEngine| -> Vec<cocktail_core::RequestOutcome> {
        for request in &traffic {
            engine.submit(ServeRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ));
        }
        engine.run_until_idle().expect("serving succeeds")
    };

    // Trie-off baseline: same traffic, no prefix cache.
    let mut baseline_engine =
        ServingEngine::new(profile(), config.clone()).expect("serving config is valid");
    let baseline = serve(&mut baseline_engine);

    let assert_identical = |outcomes: &[cocktail_core::RequestOutcome], phase: &str| {
        assert_eq!(outcomes.len(), baseline.len());
        for (on, off) in outcomes.iter().zip(&baseline) {
            assert_eq!(
                on.outcome.generated_tokens, off.outcome.generated_tokens,
                "{phase}: trie-on serving must be byte-identical to trie-off"
            );
            assert_eq!(on.outcome.answer, off.outcome.answer);
        }
    };

    // Phase 1 — dedup under an unlimited budget.
    let mut dedup_engine = ServingEngine::new(profile(), config.clone())
        .expect("serving config is valid")
        .with_prefix_cache(PrefixCacheConfig::default());
    let dedup_outcomes = serve(&mut dedup_engine);
    assert_identical(&dedup_outcomes, "dedup phase");
    let dedup_stats = dedup_engine
        .prefix_cache_stats()
        .expect("the prefix cache is enabled");

    // The whole-sequence baseline: every distinct context's full FP32 KV
    // rows (no context is a prefix of another under branching traffic, so
    // the LCP map would keep all of them).
    let fp32_bytes_per_token = 2 * dedup_engine.engine().config().kv_bytes_per_token_fp16();
    let lcp_baseline_bytes: usize = dedup_outcomes
        .iter()
        .map(|o| o.stats.context_tokens * fp32_bytes_per_token)
        .sum();
    let trie_resident_bytes = dedup_stats.resident_bytes;

    let rows: Vec<PrefixTrieDedupRow> = traffic
        .iter()
        .zip(&dedup_outcomes)
        .enumerate()
        .map(|(i, (request, outcome))| PrefixTrieDedupRow {
            request: i,
            group: request.prefix_group.expect("branching mode is on"),
            cold: outcome.stats.prefix_reused_tokens == 0,
            context_tokens: outcome.stats.context_tokens,
            prefix_reused_tokens: outcome.stats.prefix_reused_tokens,
        })
        .collect();

    // Phase 2 — partial eviction under budget pressure: a KV budget that
    // fits roughly two admitted requests plus two full contexts' worth of
    // FP32 shared blocks (out of six cached branches), plus a small trie
    // node cap — so insertion and admission both have to evict, and the
    // evictions have shared ancestors to preserve.
    let tail = (max_new_tokens - 1) * baseline_engine.engine().config().kv_bytes_per_token_fp16();
    let max_context_tokens = baseline
        .iter()
        .map(|o| o.stats.context_tokens)
        .max()
        .expect("at least one request");
    let pressure_budget_bytes = baseline
        .iter()
        .map(|o| o.outcome.cache_bytes + tail)
        .max()
        .expect("at least one request")
        * 2
        + 2 * max_context_tokens * fp32_bytes_per_token;
    let pressure_node_cap = 5usize;
    let mut pressure_engine = ServingEngine::new(profile(), config.clone())
        .expect("serving config is valid")
        .with_scheduler_config(SchedulerConfig::default().with_budget(pressure_budget_bytes))
        .with_prefix_cache(PrefixCacheConfig::default().with_max_entries(pressure_node_cap));
    let pressure_outcomes = serve(&mut pressure_engine);
    assert_identical(&pressure_outcomes, "pressure phase");
    let pressure_stats = pressure_engine
        .prefix_cache_stats()
        .expect("the prefix cache is enabled");

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.request.to_string(),
                r.group.to_string(),
                if r.cold { "cold" } else { "warm" }.to_string(),
                r.context_tokens.to_string(),
                r.prefix_reused_tokens.to_string(),
            ]
        })
        .collect();
    print_table(
        "Prefix-trie dedup: branching traffic (Llama2-7B sim, 2 groups x 3 branches)",
        &["Req", "Group", "Mode", "Ctx toks", "Reused"],
        &table,
    );
    println!(
        "trie resident bytes {trie_resident_bytes} vs whole-sequence baseline \
         {lcp_baseline_bytes} ({:.2}x); {} nodes, {} splits; pressure phase: {} evictions of \
         which {} partial",
        trie_resident_bytes as f64 / lcp_baseline_bytes as f64,
        dedup_stats.nodes,
        dedup_stats.node_splits,
        pressure_stats.evictions,
        pressure_stats.partial_evictions,
    );

    let report = PrefixTrieDedupReport {
        groups,
        requests_per_group,
        preamble_words,
        rows,
        trie_resident_bytes,
        lcp_baseline_bytes,
        dedup_ratio: trie_resident_bytes as f64 / lcp_baseline_bytes as f64,
        dedup_stats,
        pressure_budget_bytes,
        pressure_node_cap,
        pressure_stats,
        byte_identical: true, // divergence panics above
    };
    if write {
        let record = ExperimentRecord {
            id: "prefix_trie_dedup".to_string(),
            title: "Prefix-trie dedup: divergent branches share their preamble blocks once"
                .to_string(),
            note: format!(
                "{groups} groups x {requests_per_group} branching requests sharing a \
                 {preamble_words}-word preamble on the Llama2-7B sim profile; trie-on answers \
                 asserted byte-identical to trie-off serving in both phases; all numbers \
                 deterministic (no wall-clock timing)"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Gateway saturation — the HTTP gateway versus the in-process engine
// ---------------------------------------------------------------------------

/// One streamed request of the gateway-saturation experiment.
#[derive(Debug, Clone, Serialize)]
pub struct GatewaySaturationRow {
    /// Submission index of the request.
    pub request: usize,
    /// The request's generation budget.
    pub max_new_tokens: usize,
    /// Token events the client received over SSE.
    pub streamed_tokens: usize,
    /// Whether the streamed bytes equal the in-process answer exactly.
    pub byte_identical: bool,
}

/// Full payload of the gateway-saturation record.
#[derive(Debug, Clone, Serialize)]
pub struct GatewaySaturationReport {
    /// Concurrent streaming clients in the saturation phase.
    pub requests: usize,
    /// Steady-state tokens/s of the in-process `step_events` loop.
    pub in_process_tokens_per_s: f64,
    /// Steady-state tokens/s observed by the gateway's HTTP clients.
    pub gateway_tokens_per_s: f64,
    /// `gateway_tokens_per_s / in_process_tokens_per_s`.
    pub relative_throughput: f64,
    /// Per-request saturation rows in submission order.
    pub rows: Vec<GatewaySaturationRow>,
    /// Requests in the disconnect-storm phase.
    pub storm_requests: usize,
    /// Requests the storm actually cancelled mid-stream.
    pub storm_cancelled: usize,
    /// Requests that completed despite the storm.
    pub storm_completed: usize,
    /// Whether every storm survivor stayed byte-identical to its solo
    /// sequential run.
    pub storm_survivors_byte_identical: bool,
    /// KV bytes still charged against the budget once the storm settled
    /// (includes resident prefix-cache blocks, which legitimately stay).
    pub kv_bytes_after_storm: usize,
    /// Bytes of those held by resident prefix-cache blocks.
    pub prefix_resident_after_storm: usize,
    /// `kv_bytes_after_storm - prefix_resident_after_storm`: bytes still
    /// held by requests themselves. Must be zero — this is the leak.
    pub leaked_kv_bytes: usize,
    /// Prefix-cache entries still pinned once the storm settled.
    pub pinned_entries_after_storm: usize,
}

/// Gateway saturation with the default settings: best-of-2 timing, record
/// written to `results/gateway_saturation.json`.
///
/// # Panics
///
/// Panics if the gateway fails to serve or a client hits an I/O error;
/// byte-identity and leak violations are *recorded*, not panicked, so the
/// enforcing binary can report exactly which request diverged.
pub fn gateway_saturation() -> GatewaySaturationReport {
    gateway_saturation_with(2, true)
}

/// The serving gateway under closed-loop load, measured against the same
/// engine driven in-process.
///
/// Phase 1 (saturation): branching-prefix traffic is served twice — once
/// by an in-process [`ServingEngine::step_events`] loop, once through the
/// HTTP gateway with one concurrent SSE-streaming client per request over
/// real localhost sockets. Streams are *opened* sequentially (submission
/// order fixes the tokenizer's vocabulary-intern order, making the two
/// runs comparable byte for byte) and then consumed concurrently. Both
/// sides measure steady-state throughput the same way: tokens divided by
/// the window from the first to the last token observation, best of
/// `repetitions` runs, so connection ramp-up does not skew the
/// comparison. The HTTP/SSE/channel overhead is the experiment's subject:
/// the enforcing binary requires the gateway to keep at least 0.9x the
/// in-process rate and every streamed answer to be byte-identical.
///
/// Phase 2 (disconnect storm): shared-prefix traffic with a seeded
/// cancellation mix, served through a fresh gateway with the prefix cache
/// enabled; cancelling clients drop their sockets mid-stream. Once the
/// storm settles the engine must report zero KV bytes in use and zero
/// pinned prefix entries, and every survivor must match its solo
/// sequential run.
///
/// # Panics
///
/// See [`gateway_saturation`].
pub fn gateway_saturation_with(repetitions: usize, write: bool) -> GatewaySaturationReport {
    use cocktail_server::{EngineSettings, GatewayClient, GatewayConfig, GatewayServer};

    let repetitions = repetitions.max(1);
    let requests = 12usize;
    let max_new_tokens = 24usize;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    let profile = ModelProfile::llama2_7b_sim;
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens,
            workload: WorkloadConfig::tiny().with_context_words(96),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 0,
            prefix_words: 0,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        }
        .with_branching_prefix(2, 24, 8),
        0x6A7E_3A7E,
    )
    .generate();

    // Phase 1a — the in-process reference: submit everything, stream
    // through step_events, timestamp every token batch.
    let build_engine = || {
        ServingEngine::new(profile(), config.clone())
            .expect("serving config is valid")
            .with_prefix_cache(PrefixCacheConfig::default())
    };
    let mut reference: Vec<String> = Vec::new();
    let mut in_process_rate = 0.0f64;
    for rep in 0..repetitions {
        let mut engine = build_engine();
        let ids: Vec<RequestId> = traffic
            .iter()
            .map(|r| {
                engine.submit(ServeRequest::new(
                    r.task.context.clone(),
                    r.task.query.clone(),
                    r.max_new_tokens,
                ))
            })
            .collect();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        let mut tokens = 0usize;
        while !engine.is_idle() {
            let events = engine.step_events().expect("in-process serving succeeds");
            let now = Instant::now();
            for event in &events {
                if event.token.is_some() {
                    first.get_or_insert(now);
                    last = Some(now);
                    tokens += 1;
                }
            }
        }
        let window = last
            .zip(first)
            .map_or(0.0, |(l, f)| l.duration_since(f).as_secs_f64())
            .max(1e-9);
        in_process_rate = in_process_rate.max(tokens as f64 / window);
        if rep == 0 {
            reference = ids
                .iter()
                .map(|id| {
                    engine
                        .take_outcome(*id)
                        .expect("reference request completed")
                        .outcome
                        .answer
                })
                .collect();
        }
    }

    // Phase 1b — the same traffic through the gateway: one streaming HTTP
    // client per request, opened in submission order, consumed in
    // parallel.
    let mut gateway_rate = 0.0f64;
    let mut rows: Vec<GatewaySaturationRow> = Vec::new();
    for _ in 0..repetitions {
        let settings = EngineSettings::new(profile(), config.clone())
            .with_prefix_cache(PrefixCacheConfig::default());
        let server =
            GatewayServer::start(settings, GatewayConfig::default()).expect("bind localhost");
        let client = GatewayClient::new(server.addr());
        let handles: Vec<_> = traffic
            .iter()
            .map(|r| {
                client
                    .open_stream(&cocktail_server::GenerateRequest::new(
                        r.task.context.clone(),
                        r.task.query.clone(),
                        r.max_new_tokens,
                    ))
                    .expect("stream opens")
            })
            .collect();
        let clients: Vec<_> = handles
            .into_iter()
            .map(|mut handle| {
                std::thread::spawn(move || {
                    let mut first: Option<Instant> = None;
                    let mut last: Option<Instant> = None;
                    let mut tokens = 0usize;
                    while let Some(event) = handle.next_event().expect("stream event") {
                        if !event.done {
                            let now = Instant::now();
                            first.get_or_insert(now);
                            last = Some(now);
                            tokens += 1;
                        }
                    }
                    let outcome = handle.finish().expect("stream finishes");
                    (outcome, tokens, first, last)
                })
            })
            .collect();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        let mut tokens = 0usize;
        let mut rep_rows = Vec::with_capacity(traffic.len());
        for (i, worker) in clients.into_iter().enumerate() {
            let (outcome, streamed_tokens, client_first, client_last) =
                worker.join().expect("client thread");
            first = match (first, client_first) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            last = match (last, client_last) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            tokens += streamed_tokens;
            rep_rows.push(GatewaySaturationRow {
                request: i,
                max_new_tokens: traffic[i].max_new_tokens,
                streamed_tokens,
                byte_identical: outcome.streamed == reference[i]
                    && outcome.answer.as_deref() == Some(reference[i].as_str()),
            });
        }
        server.shutdown();
        let window = last
            .zip(first)
            .map_or(0.0, |(l, f)| l.duration_since(f).as_secs_f64())
            .max(1e-9);
        gateway_rate = gateway_rate.max(tokens as f64 / window);
        if rows.is_empty() || rep_rows.iter().any(|r| !r.byte_identical) {
            rows = rep_rows;
        }
    }

    // Phase 2 — the disconnect storm: shared-prefix traffic, prefix cache
    // on, a seeded fraction of clients dropping their sockets mid-stream.
    let storm_requests = 8usize;
    let storm = TrafficGenerator::new(
        TrafficConfig::small(storm_requests)
            .with_max_new_tokens(12)
            .with_shared_prefix(2, 24)
            .with_cancellations(450),
        0x57_0231,
    )
    .generate();
    assert!(
        storm.iter().any(|r| r.cancel_after_tokens.is_some())
            && storm.iter().any(|r| r.cancel_after_tokens.is_none()),
        "the storm trace must mix disconnecting and surviving clients"
    );
    let storm_pipeline =
        CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
    let storm_solo: Vec<String> = storm
        .iter()
        .map(|r| {
            storm_pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .expect("solo sequential reference run succeeds")
                .answer
        })
        .collect();

    let settings = EngineSettings::new(profile(), config.clone())
        .with_prefix_cache(PrefixCacheConfig::default());
    let server = GatewayServer::start(settings, GatewayConfig::default()).expect("bind localhost");
    let client = GatewayClient::new(server.addr());
    let handles: Vec<_> = storm
        .iter()
        .map(|r| {
            client
                .open_stream(&cocktail_server::GenerateRequest::new(
                    r.task.context.clone(),
                    r.task.query.clone(),
                    r.max_new_tokens,
                ))
                .expect("storm stream opens")
        })
        .collect();
    let workers: Vec<_> = storm
        .iter()
        .cloned()
        .zip(handles)
        .zip(storm_solo.iter().cloned())
        .map(|((request, mut handle), solo)| {
            std::thread::spawn(move || match request.cancel_after_tokens {
                Some(after) => {
                    handle.read_tokens(after).expect("partial read");
                    handle.abort();
                    None
                }
                None => {
                    let outcome = handle.finish().expect("survivor finishes");
                    Some(outcome.streamed == solo)
                }
            })
        })
        .collect();
    let survivor_results: Vec<Option<bool>> = workers
        .into_iter()
        .map(|w| w.join().expect("storm client thread"))
        .collect();
    let storm_survivors_byte_identical = survivor_results
        .iter()
        .all(|r| r.map_or(true, |identical| identical));

    // Wait for the disconnects to be reaped, then read the leak counters.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let settled = loop {
        let stats = client.stats().expect("stats endpoint");
        if stats.queued == 0
            && stats.running == 0
            && stats.completed + stats.cancelled >= storm_requests
        {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "storm failed to settle; last stats: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    server.shutdown();

    let relative_throughput = gateway_rate / in_process_rate.max(1e-9);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.request.to_string(),
                format!("{}/{}", r.streamed_tokens, r.max_new_tokens),
                if r.byte_identical { "yes" } else { "DIVERGED" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Gateway saturation: SSE streaming over TCP vs the in-process engine (Llama2-7B sim)",
        &["Req", "Streamed", "Byte-identical"],
        &table,
    );
    let leaked_kv_bytes = settled
        .kv_bytes_in_use
        .saturating_sub(settled.prefix_resident_bytes);
    println!(
        "in-process {in_process_rate:.1} tok/s vs gateway {gateway_rate:.1} tok/s \
         ({relative_throughput:.2}x); storm: {} cancelled / {} completed, {} request-held KV \
         bytes and {} pins left ({} cache-resident bytes stay)",
        settled.cancelled,
        settled.completed,
        leaked_kv_bytes,
        settled.pinned_prefix_entries,
        settled.prefix_resident_bytes
    );

    let report = GatewaySaturationReport {
        requests,
        in_process_tokens_per_s: in_process_rate,
        gateway_tokens_per_s: gateway_rate,
        relative_throughput,
        rows,
        storm_requests,
        storm_cancelled: settled.cancelled,
        storm_completed: settled.completed,
        storm_survivors_byte_identical,
        kv_bytes_after_storm: settled.kv_bytes_in_use,
        prefix_resident_after_storm: settled.prefix_resident_bytes,
        leaked_kv_bytes,
        pinned_entries_after_storm: settled.pinned_prefix_entries,
    };
    if write {
        let record = ExperimentRecord {
            id: "gateway_saturation".to_string(),
            title: "Gateway saturation: HTTP/SSE serving overhead and disconnect-storm hygiene"
                .to_string(),
            note: format!(
                "{requests} concurrent SSE clients (branching-prefix traffic, {max_new_tokens} \
                 tokens each) against the Llama2-7B sim profile over real localhost sockets, \
                 best of {repetitions} runs per mode; then an {storm_requests}-client \
                 disconnect storm (450/1000 drop rate, shared prefixes, prefix cache on) \
                 checked for leaked KV bytes and pins"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Replica affinity — multi-replica routing versus round-robin and hwsim
// ---------------------------------------------------------------------------

/// Per-replica leak counters once the cross-replica cancellation storm
/// settled.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaLeakRow {
    /// Replica index.
    pub replica: usize,
    /// KV bytes still held by *requests* on this replica
    /// (`kv_bytes_in_use - prefix_resident_bytes`). Must be zero.
    pub leaked_kv_bytes: usize,
    /// Prefix-cache pins still held on this replica. Must be zero.
    pub pinned_entries: usize,
}

/// Full payload of the replica-affinity record.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaAffinityReport {
    /// Engine replicas behind the router.
    pub replicas: usize,
    /// Requests in the skewed-tenant trace.
    pub requests: usize,
    /// Tenant groups in the trace (Zipf-skewed).
    pub groups: usize,
    /// Prefix-reused tokens under prefix-affinity routing (in-process).
    pub affinity_reused_tokens: u64,
    /// Prefix-reused tokens under round-robin placement (in-process).
    pub round_robin_reused_tokens: u64,
    /// Steady-state tokens/s of the affinity-routed in-process fleet.
    pub affinity_tokens_per_s: f64,
    /// Steady-state tokens/s of the round-robin in-process fleet.
    pub round_robin_tokens_per_s: f64,
    /// Requests the in-process router placed by fingerprint match.
    pub affinity_routed: usize,
    /// Requests the in-process router placed least-loaded (cold).
    pub least_loaded_routed: usize,
    /// Whether every affinity-routed output matched the solo-pipeline
    /// replay of its replica's request subsequence.
    pub routed_byte_identical: bool,
    /// Gateway tokens/s with a single replica (best of N runs).
    pub gateway_single_tokens_per_s: f64,
    /// Gateway tokens/s with the full fleet (best of N runs).
    pub gateway_fleet_tokens_per_s: f64,
    /// `gateway_fleet_tokens_per_s / gateway_single_tokens_per_s`.
    pub measured_scaling: f64,
    /// hwsim fleet prediction at one replica.
    pub predicted_single: cocktail_hwsim::FleetThroughput,
    /// hwsim fleet prediction at `replicas` replicas.
    pub predicted_fleet: cocktail_hwsim::FleetThroughput,
    /// Predicted throughput scaling (`predicted_fleet / predicted_single`;
    /// linear in the model — replicas share nothing).
    pub predicted_scaling: f64,
    /// Whether every fleet-gateway stream matched the solo-pipeline
    /// replay of the replica that served it.
    pub gateway_byte_identical: bool,
    /// How many fleet-gateway requests each replica served.
    pub gateway_replica_requests: Vec<usize>,
    /// Affinity-routed count reported by the fleet gateway's
    /// `/api/v1/stats`.
    pub gateway_affinity_routed: usize,
    /// Least-loaded-routed count reported by `/api/v1/stats`.
    pub gateway_least_loaded_routed: usize,
    /// Requests in the cross-replica cancellation storm.
    pub storm_requests: usize,
    /// Storm requests cancelled mid-stream.
    pub storm_cancelled: usize,
    /// Storm requests that completed.
    pub storm_completed: usize,
    /// Whether every storm survivor matched its replica's solo replay.
    pub storm_survivors_byte_identical: bool,
    /// Per-replica leak counters once the storm settled.
    pub storm_leaks: Vec<ReplicaLeakRow>,
}

/// Replica affinity with the default settings: best-of-2 timing, record
/// written to `results/replica_affinity.json`.
///
/// # Panics
///
/// See [`replica_affinity_with`].
pub fn replica_affinity() -> ReplicaAffinityReport {
    replica_affinity_with(2, true)
}

/// Multi-replica serving under skewed hot-tenant branching traffic:
/// prefix-affinity routing versus round-robin, the fleet gateway versus a
/// single-replica gateway, and a cross-replica cancellation storm.
///
/// Phase 1 (in-process): the same Zipf-skewed branching trace is served
/// by a two-replica [`Router`](cocktail_core::Router) twice —
/// prefix-affinity and round-robin.
/// Affinity must strictly beat round-robin on prefix-reused tokens
/// (deterministic: affinity pins each tenant's branches to one replica's
/// trie, round-robin smears them), and every routed output is checked
/// byte-for-byte against a solo [`CocktailPipeline`] replaying exactly
/// the request subsequence its replica saw, in arrival order (each
/// replica's tokenizer interns words in its own arrival order, so the
/// reference must replay per replica, not per fleet).
///
/// Phase 2 (gateway): the trace runs through the HTTP gateway once with
/// one replica and once with the fleet; aggregate SSE tokens/s are
/// measured the same way on both and their ratio is compared against the
/// extended `hwsim::deployment` N-replica prediction
/// ([`DeploymentModel::replicated`]). The per-replica wire ids
/// (`"r1:req-3"`) identify which engine served each stream, so fleet
/// byte-identity is checked against per-replica solo replays too.
///
/// Phase 3 (storm): skewed branching traffic with a seeded cancellation
/// mix hits the fleet gateway; cancelling clients drop their sockets
/// after at least one streamed token (so every prompt was encoded and
/// the per-replica replay references stay valid). Once settled, *every*
/// replica must report zero request-held KV bytes and zero pins.
///
/// # Panics
///
/// Panics if serving fails or a client hits an I/O error; criterion
/// violations (byte divergence, leaks, lost reuse) are *recorded* so the
/// enforcing binary can report exactly what broke.
pub fn replica_affinity_with(repetitions: usize, write: bool) -> ReplicaAffinityReport {
    use cocktail_core::{RoutePolicy, Router};
    use cocktail_server::{EngineSettings, GatewayClient, GatewayConfig, GatewayServer};

    let repetitions = repetitions.max(1);
    let replicas = 2usize;
    let requests = 15usize;
    let groups = 3usize;
    let max_new_tokens = 12usize;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    let profile = ModelProfile::llama2_7b_sim;
    // Zipf-skewed hot-tenant branching traffic: three tenants share
    // 24-word preambles, each request branches after the preamble, and
    // tenant 0 draws the bulk of the traffic (s = 1.2).
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests,
            arrival_window_steps: 0,
            max_new_tokens,
            workload: WorkloadConfig::tiny().with_context_words(96),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 0,
            prefix_words: 0,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: None,
            chat: None,
        }
        .with_branching_prefix(groups, 24, 8)
        .with_tenant_skew(1200),
        0x5EAF_00D1,
    )
    .generate();

    // Phase 1 — in-process: affinity versus round-robin on the same
    // two-replica fleet.
    let run_fleet = |policy: RoutePolicy| {
        let mut router = Router::new(replicas, profile(), config.clone())
            .expect("router config is valid")
            .with_policy(policy)
            .with_prefix_cache(PrefixCacheConfig::default());
        let ids: Vec<_> = traffic
            .iter()
            .map(|r| {
                router.submit(ServeRequest::new(
                    r.task.context.clone(),
                    r.task.query.clone(),
                    r.max_new_tokens,
                ))
            })
            .collect();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        let mut tokens = 0usize;
        while !router.is_idle() {
            let events = router.step_events().expect("fleet serving succeeds");
            let now = Instant::now();
            for event in &events {
                if event.event.token.is_some() {
                    first.get_or_insert(now);
                    last = Some(now);
                    tokens += 1;
                }
            }
        }
        let window = last
            .zip(first)
            .map_or(0.0, |(l, f)| l.duration_since(f).as_secs_f64())
            .max(1e-9);
        let answers: Vec<String> = ids
            .iter()
            .map(|id| {
                router
                    .take_outcome(*id)
                    .expect("routed request completed")
                    .outcome
                    .answer
            })
            .collect();
        let reused = router.prefix_reused_tokens();
        let stats = router.routing_stats();
        let placements: Vec<usize> = ids.iter().map(|id| id.replica).collect();
        (answers, placements, reused, tokens as f64 / window, stats)
    };
    let (affinity_answers, affinity_placements, affinity_reused, affinity_rate, routing_stats) =
        run_fleet(RoutePolicy::PrefixAffinity);
    let (_, _, round_robin_reused, round_robin_rate, _) = run_fleet(RoutePolicy::RoundRobin);

    // Byte-identity: each replica's answers against a solo pipeline
    // replaying exactly that replica's arrival subsequence.
    let replica_replay = |placements: &[usize], answers: &dyn Fn(usize) -> Option<String>| {
        let mut identical = true;
        for replica in 0..replicas {
            let pipeline =
                CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
            for (i, request) in traffic.iter().enumerate() {
                if placements[i] != replica {
                    continue;
                }
                let solo = pipeline
                    .run(
                        &request.task.context,
                        &request.task.query,
                        request.max_new_tokens,
                    )
                    .expect("solo replay succeeds")
                    .answer;
                if let Some(served) = answers(i) {
                    identical &= served == solo;
                }
            }
        }
        identical
    };
    let routed_byte_identical =
        replica_replay(&affinity_placements, &|i| Some(affinity_answers[i].clone()));

    // Phase 2 — the gateway: the same trace once through one replica,
    // once through the fleet, timed identically.
    let run_gateway = |n: usize| {
        let settings = EngineSettings::new(profile(), config.clone())
            .with_prefix_cache(PrefixCacheConfig::default());
        let server = GatewayServer::start(settings, GatewayConfig::default().with_replicas(n))
            .expect("bind localhost");
        let client = GatewayClient::new(server.addr());
        let handles: Vec<_> = traffic
            .iter()
            .map(|r| {
                client
                    .open_stream(&cocktail_server::GenerateRequest::new(
                        r.task.context.clone(),
                        r.task.query.clone(),
                        r.max_new_tokens,
                    ))
                    .expect("stream opens")
            })
            .collect();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut handle| {
                std::thread::spawn(move || {
                    let mut first: Option<Instant> = None;
                    let mut last: Option<Instant> = None;
                    while let Some(event) = handle.next_event().expect("stream event") {
                        if !event.done {
                            let now = Instant::now();
                            first.get_or_insert(now);
                            last = Some(now);
                        }
                    }
                    let id = handle.id().expect("stream saw events").to_string();
                    let outcome = handle.finish().expect("stream finishes");
                    (id, outcome, first, last)
                })
            })
            .collect();
        let mut first: Option<Instant> = None;
        let mut last: Option<Instant> = None;
        let mut tokens = 0usize;
        let mut results = Vec::with_capacity(traffic.len());
        for worker in workers {
            let (id, outcome, client_first, client_last) = worker.join().expect("client thread");
            first = match (first, client_first) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
            last = match (last, client_last) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
            tokens += outcome.token_events;
            results.push((id, outcome));
        }
        let stats = client.stats().expect("stats endpoint");
        server.shutdown();
        let window = last
            .zip(first)
            .map_or(0.0, |(l, f)| l.duration_since(f).as_secs_f64())
            .max(1e-9);
        (tokens as f64 / window, results, stats)
    };

    let mut single_rate = 0.0f64;
    let mut fleet_rate = 0.0f64;
    let mut fleet_results = Vec::new();
    let mut fleet_stats = None;
    for rep in 0..repetitions {
        let (rate, _, _) = run_gateway(1);
        single_rate = single_rate.max(rate);
        let (rate, results, stats) = run_gateway(replicas);
        fleet_rate = fleet_rate.max(rate);
        if rep == 0 {
            fleet_results = results;
            fleet_stats = Some(stats);
        }
    }
    let fleet_stats = fleet_stats.expect("at least one fleet run");

    // Which replica served each stream, from the wire id ("r1:req-3").
    let wire_replica = |id: &str| -> usize {
        id.strip_prefix('r')
            .and_then(|rest| rest.split(':').next())
            .and_then(|digits| digits.parse().ok())
            .expect("fleet wire ids carry the replica index")
    };
    let fleet_placements: Vec<usize> = fleet_results
        .iter()
        .map(|(id, _)| wire_replica(id))
        .collect();
    let mut gateway_replica_requests = vec![0usize; replicas];
    for &replica in &fleet_placements {
        gateway_replica_requests[replica] += 1;
    }
    let gateway_byte_identical = replica_replay(&fleet_placements, &|i| {
        Some(fleet_results[i].1.streamed.clone())
    });

    // The hwsim fleet prediction the measured scaling is held against.
    let deployment = deployment_for(&profile());
    let kv_profile = build_hw_profile("Cocktail");
    let predicted_single = deployment
        .replicated(1)
        .max_throughput(&kv_profile, 64)
        .expect("single replica fits");
    let predicted_fleet = deployment
        .replicated(replicas)
        .max_throughput(&kv_profile, 64)
        .expect("fleet fits");
    let predicted_scaling = predicted_fleet.tokens_per_s / predicted_single.tokens_per_s;
    let measured_scaling = fleet_rate / single_rate.max(1e-9);

    // Phase 3 — cancellation storm across the fleet: skewed branching
    // traffic with a seeded disconnect mix (always after >= 1 streamed
    // token, so every prompt was encoded before its cancel).
    let storm_requests = 10usize;
    let storm = TrafficGenerator::new(
        TrafficConfig::small(storm_requests)
            .with_max_new_tokens(12)
            .with_branching_prefix(groups, 24, 8)
            .with_tenant_skew(1200)
            .with_cancellations(450),
        0x0C7A_11E5,
    )
    .generate();
    assert!(
        storm.iter().any(|r| r.cancel_after_tokens.is_some())
            && storm.iter().any(|r| r.cancel_after_tokens.is_none()),
        "the storm trace must mix disconnecting and surviving clients"
    );
    let settings = EngineSettings::new(profile(), config.clone())
        .with_prefix_cache(PrefixCacheConfig::default());
    let server = GatewayServer::start(settings, GatewayConfig::default().with_replicas(replicas))
        .expect("bind localhost");
    let client = GatewayClient::new(server.addr());
    let handles: Vec<_> = storm
        .iter()
        .map(|r| {
            client
                .open_stream(&cocktail_server::GenerateRequest::new(
                    r.task.context.clone(),
                    r.task.query.clone(),
                    r.max_new_tokens,
                ))
                .expect("storm stream opens")
        })
        .collect();
    let storm_workers: Vec<_> = storm
        .iter()
        .cloned()
        .zip(handles)
        .map(|(request, mut handle)| {
            std::thread::spawn(move || match request.cancel_after_tokens {
                Some(after) => {
                    handle.read_tokens(after).expect("partial read");
                    let id = handle.id().expect("storm stream saw events").to_string();
                    handle.abort();
                    (id, None)
                }
                None => {
                    handle.read_tokens(1).expect("first token");
                    let id = handle.id().expect("storm stream saw events").to_string();
                    let outcome = handle.finish().expect("survivor finishes");
                    (id, Some(outcome.streamed))
                }
            })
        })
        .collect();
    let storm_results: Vec<(String, Option<String>)> = storm_workers
        .into_iter()
        .map(|w| w.join().expect("storm client thread"))
        .collect();

    // Survivors against per-replica solo replays. Cancelled requests are
    // replayed too (their prompts were encoded, shifting the replica's
    // intern order), just not compared.
    let storm_placements: Vec<usize> = storm_results
        .iter()
        .map(|(id, _)| wire_replica(id))
        .collect();
    let mut storm_survivors_byte_identical = true;
    for replica in 0..replicas {
        let pipeline =
            CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
        for (i, request) in storm.iter().enumerate() {
            if storm_placements[i] != replica {
                continue;
            }
            let solo = pipeline
                .run(
                    &request.task.context,
                    &request.task.query,
                    request.max_new_tokens,
                )
                .expect("storm solo replay succeeds")
                .answer;
            if let Some(streamed) = &storm_results[i].1 {
                storm_survivors_byte_identical &= *streamed == solo;
            }
        }
    }

    // Wait for the disconnects to be reaped, then read per-replica leaks.
    let deadline = Instant::now() + std::time::Duration::from_secs(60);
    let settled = loop {
        let stats = client.stats().expect("stats endpoint");
        if stats.queued == 0
            && stats.running == 0
            && stats.completed + stats.cancelled >= storm_requests
        {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "storm failed to settle; last stats: {stats:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    server.shutdown();
    let storm_leaks: Vec<ReplicaLeakRow> = settled
        .replicas
        .iter()
        .map(|r| ReplicaLeakRow {
            replica: r.replica,
            leaked_kv_bytes: r.kv_bytes_in_use.saturating_sub(r.prefix_resident_bytes),
            pinned_entries: r.pinned_prefix_entries,
        })
        .collect();

    let table: Vec<Vec<String>> = vec![
        vec![
            "affinity".to_string(),
            affinity_reused.to_string(),
            format!("{affinity_rate:.1}"),
            routing_stats.affinity_routed.to_string(),
            routing_stats.least_loaded_routed.to_string(),
        ],
        vec![
            "round-robin".to_string(),
            round_robin_reused.to_string(),
            format!("{round_robin_rate:.1}"),
            "-".to_string(),
            "-".to_string(),
        ],
    ];
    print_table(
        "Replica affinity: prefix-routed vs round-robin placement on a 2-replica fleet \
         (skewed tenants, Llama2-7B sim)",
        &[
            "Policy",
            "Reused tokens",
            "tok/s",
            "Affinity",
            "Least-loaded",
        ],
        &table,
    );
    println!(
        "gateway: 1 replica {single_rate:.1} tok/s vs {replicas} replicas {fleet_rate:.1} tok/s \
         ({measured_scaling:.2}x measured, {predicted_scaling:.2}x predicted); fleet split {:?}; \
         storm: {} cancelled / {} completed, leaks per replica {:?}",
        gateway_replica_requests,
        settled.cancelled,
        settled.completed,
        storm_leaks
            .iter()
            .map(|l| (l.leaked_kv_bytes, l.pinned_entries))
            .collect::<Vec<_>>()
    );

    let report = ReplicaAffinityReport {
        replicas,
        requests,
        groups,
        affinity_reused_tokens: affinity_reused,
        round_robin_reused_tokens: round_robin_reused,
        affinity_tokens_per_s: affinity_rate,
        round_robin_tokens_per_s: round_robin_rate,
        affinity_routed: routing_stats.affinity_routed,
        least_loaded_routed: routing_stats.least_loaded_routed,
        routed_byte_identical,
        gateway_single_tokens_per_s: single_rate,
        gateway_fleet_tokens_per_s: fleet_rate,
        measured_scaling,
        predicted_single,
        predicted_fleet,
        predicted_scaling,
        gateway_byte_identical,
        gateway_replica_requests,
        gateway_affinity_routed: fleet_stats.affinity_routed,
        gateway_least_loaded_routed: fleet_stats.least_loaded_routed,
        storm_requests,
        storm_cancelled: settled.cancelled,
        storm_completed: settled.completed,
        storm_survivors_byte_identical,
        storm_leaks,
    };
    if write {
        let record = ExperimentRecord {
            id: "replica_affinity".to_string(),
            title: "Replica affinity: fleet-wide prefix reuse via consistent-hash routing"
                .to_string(),
            note: format!(
                "{requests} Zipf-skewed ({groups}-tenant) branching requests on a \
                 {replicas}-replica fleet (Llama2-7B sim, prefix caches on): prefix-affinity \
                 vs round-robin reuse in-process, then the HTTP gateway at 1 vs {replicas} \
                 replicas (best of {repetitions} runs) against the hwsim replicated() \
                 prediction, then a {storm_requests}-client cross-replica disconnect storm \
                 checked for per-replica leaks"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

/// Best-of-N TTFT components of one request.
#[derive(Debug, Clone, Copy)]
struct PipelineTimingsBest {
    ttft_us: u64,
    prefill_us: u64,
    compress_us: u64,
}

impl Default for PipelineTimingsBest {
    fn default() -> Self {
        Self {
            ttft_us: u64::MAX,
            prefill_us: 0,
            compress_us: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel scaling — data-parallel prefill on the worker pool
// ---------------------------------------------------------------------------

/// Full payload of the kernel-scaling record.
#[derive(Debug, Clone, Serialize)]
pub struct KernelScalingReport {
    /// Prompt length driven through prefill.
    pub prompt_tokens: usize,
    /// The dispatcher's work metric for one layer's prefill attention
    /// (causally visible pairs `n(n+1)/2` x `hidden`), which must clear
    /// the threshold for the (slot, head) tiles to run on the kernel pool.
    pub score_work: usize,
    /// The dispatcher's scalar/parallel cutover, in work units.
    pub parallel_threshold: usize,
    /// Thread count of the parallel runs (the host's configured kernel
    /// threads; 1 on a single-core host, where the comparison degenerates).
    pub parallel_threads: usize,
    /// Physical parallelism the host actually offers. Pinning
    /// `COCKTAIL_KERNEL_THREADS` above this adds threads but no cores, so
    /// the throughput criterion is only enforced when this is at least 2.
    pub host_cores: usize,
    /// Best-of tokens/s of prefill with the kernels pinned to one thread.
    pub scalar_tokens_per_s: f64,
    /// Best-of tokens/s of prefill at the configured thread count.
    pub parallel_tokens_per_s: f64,
    /// `parallel_tokens_per_s / scalar_tokens_per_s`.
    pub speedup: f64,
    /// Whether the scalar and parallel prefills produced byte-identical
    /// outputs (KV tensors, hidden states and logits).
    pub bit_identical: bool,
    /// Whether the engine's decode pool never spawned a thread across the
    /// timing rounds (prefill does not use it).
    pub engine_pool_spawns_flat: bool,
    /// Whether the process-wide kernel pool never re-spawned a thread
    /// across the timing rounds.
    pub kernel_pool_spawns_flat: bool,
}

/// Kernel scaling with the default settings: best-of-5 timing, record
/// written to `results/kernel_scaling.json`.
///
/// # Panics
///
/// Panics if the model config is rejected or prefill fails.
pub fn kernel_scaling() -> KernelScalingReport {
    kernel_scaling_with(5, true)
}

/// Prefill throughput with the hot kernels pinned to one thread versus the
/// host's configured thread count, on a tiny-profile engine with a prompt
/// long enough that the per-layer attention work clears
/// [`cocktail_quant::parallel::PARALLEL_THRESHOLD`]. Byte-identity of the
/// two runs is asserted on every round, and both the engine's worker pool
/// and the process-wide kernel pool must keep a flat spawn counter across
/// rounds — threads persist, they are not re-created per call.
///
/// Each configuration's throughput is the maximum over `repetitions` runs,
/// the usual defence against scheduler noise.
///
/// # Panics
///
/// Panics if the model config is rejected or prefill fails.
pub fn kernel_scaling_with(repetitions: usize, write: bool) -> KernelScalingReport {
    let repetitions = repetitions.max(1);
    let config = ModelConfig::new("kernel-scaling-tiny", 32, 2, 2, 2, 64, 512, 1024)
        .expect("tiny kernel-scaling profile is valid");
    let hidden_dim = config.hidden_dim;
    let vocab = config.vocab_size as u32;
    let engine = InferenceEngine::from_config(config, 0xC0C7_7A11).expect("engine builds");
    let prompt_tokens = 384usize;
    let prompt: Vec<u32> = (0..prompt_tokens)
        .map(|i| (i as u32 * 31 + 7) % vocab)
        .collect();
    let score_work = prompt_tokens * (prompt_tokens + 1) / 2 * hidden_dim;
    assert!(
        kernel_parallel::should_parallelize(score_work) || kernel_parallel::kernel_threads() == 1,
        "the prompt must be long enough to clear the parallel threshold"
    );

    // Warm both pools and pin the spawn counters before timing.
    kernel_parallel::set_kernel_thread_override(None);
    let parallel_threads = kernel_parallel::kernel_threads();
    let host_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let warm = engine.prefill(&prompt).expect("warmup prefill succeeds");
    let engine_spawns = engine.pool_spawn_count();
    let kernel_spawns = kernel_parallel::pool_spawn_count();

    let mut best_scalar_s = f64::INFINITY;
    let mut best_parallel_s = f64::INFINITY;
    let mut bit_identical = true;
    for _ in 0..repetitions {
        kernel_parallel::set_kernel_thread_override(Some(1));
        let start = Instant::now();
        let scalar = engine.prefill(&prompt).expect("scalar prefill succeeds");
        best_scalar_s = best_scalar_s.min(start.elapsed().as_secs_f64());

        kernel_parallel::set_kernel_thread_override(None);
        let start = Instant::now();
        let parallel = engine.prefill(&prompt).expect("parallel prefill succeeds");
        best_parallel_s = best_parallel_s.min(start.elapsed().as_secs_f64());

        bit_identical &= scalar == parallel && scalar == warm;
    }
    kernel_parallel::set_kernel_thread_override(None);
    let engine_pool_spawns_flat = engine.pool_spawn_count() == engine_spawns;
    let kernel_pool_spawns_flat = kernel_parallel::pool_spawn_count() == kernel_spawns;

    let scalar_tokens_per_s = prompt_tokens as f64 / best_scalar_s;
    let parallel_tokens_per_s = prompt_tokens as f64 / best_parallel_s;
    let report = KernelScalingReport {
        prompt_tokens,
        score_work,
        parallel_threshold: kernel_parallel::PARALLEL_THRESHOLD,
        parallel_threads,
        host_cores,
        scalar_tokens_per_s,
        parallel_tokens_per_s,
        speedup: parallel_tokens_per_s / scalar_tokens_per_s,
        bit_identical,
        engine_pool_spawns_flat,
        kernel_pool_spawns_flat,
    };

    print_table(
        "Kernel scaling: prefill throughput, scalar vs data-parallel kernels (tiny profile)",
        &["Threads", "Tokens/s", "Speedup", "Bit-identical"],
        &[
            vec![
                "1".to_string(),
                format!("{scalar_tokens_per_s:.0}"),
                "1.00x".to_string(),
                "-".to_string(),
            ],
            vec![
                report.parallel_threads.to_string(),
                format!("{parallel_tokens_per_s:.0}"),
                format!("{:.2}x", report.speedup),
                report.bit_identical.to_string(),
            ],
        ],
    );
    if write {
        let path = write_record(&ExperimentRecord {
            id: "kernel_scaling".to_string(),
            title: "Prefill throughput with scalar vs data-parallel hot kernels".to_string(),
            note: format!(
                "Tiny profile, {prompt_tokens}-token prompt, best of {repetitions} runs per \
                 configuration; timing-based, so the record stays out of results/baseline/. \
                 Byte-identity and flat pool spawn counters are asserted on every run."
            ),
            rows: &report,
        });
        println!("wrote {}", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Snapshot warm restart — persist the trie, restart, serve warm immediately
// ---------------------------------------------------------------------------

/// Full payload of the snapshot warm-restart record.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotWarmRestartReport {
    /// Requests served before the snapshot + restart.
    pub pre_restart_requests: usize,
    /// Requests served on the restored engine.
    pub post_restart_requests: usize,
    /// Snapshot file size in bytes.
    pub snapshot_bytes: usize,
    /// Trie nodes the snapshot captured.
    pub snapshot_nodes: usize,
    /// Whether the restore loaded the snapshot (must be true).
    pub restored: bool,
    /// Trie nodes resident after the restore.
    pub restored_nodes: usize,
    /// Every comparable serve — pre-restart, post-restore, post-drill —
    /// matched the cold sequential pipeline reference byte for byte. (The
    /// cold-restart control is timing-only: with no snapshot to replay the
    /// tokenizer's interning order, its token ids — and therefore answers —
    /// are legitimately different, which is the point of restoring.)
    pub byte_identical: bool,
    /// Prompt tokens the restored engine served from the snapshot's trie.
    pub post_restart_reused_tokens: usize,
    /// Mean TTFT of the post-restart requests on the restored engine
    /// (microseconds, best of N runs).
    pub warm_restart_mean_ttft_us: f64,
    /// Mean TTFT of the same requests on a cold-started engine.
    pub cold_restart_mean_ttft_us: f64,
    /// `warm_restart_mean_ttft_us / cold_restart_mean_ttft_us` (< 1 means
    /// restoring the snapshot pays).
    pub warm_over_cold: f64,
    /// snapshot -> restore -> snapshot reproduced the bytes exactly.
    pub roundtrip_byte_identical: bool,
    /// Cold-tier demotions in the eviction drill.
    pub demotions: u64,
    /// Cold-tier repromotions in the eviction drill.
    pub repromotions: u64,
    /// Prompt tokens the repromoted request reused from the cold tier.
    pub repromoted_reused_tokens: usize,
    /// The repromoted answer equals its own cold first serve and the
    /// sequential reference (disk round-trips change nothing).
    pub repromoted_byte_identical: bool,
    /// A truncated snapshot degraded to a clean cold start and the engine
    /// served on, byte-identical.
    pub truncated_cold_start: bool,
    /// A bit-flipped snapshot degraded to a clean cold start.
    pub corrupted_cold_start: bool,
    /// A snapshot from a differently-configured engine degraded cleanly.
    pub wrong_fingerprint_cold_start: bool,
}

/// Snapshot warm restart with the default settings: best-of-3 timing,
/// record written to `results/snapshot_warm_restart.json`.
///
/// # Panics
///
/// Panics if serving or the snapshot write fails.
pub fn snapshot_warm_restart() -> SnapshotWarmRestartReport {
    snapshot_warm_restart_with(3, true)
}

/// The persistence drill behind warm restarts: six requests share a long
/// preamble; after three of them (the trace's
/// [`TrafficConfig::with_restart_point`] marker) the engine snapshots its
/// prefix trie and is torn down, a fresh engine restores the file, and the
/// remaining requests must serve byte-identically to a cold sequential
/// reference — at a strictly lower TTFT than a cold-started control,
/// because the restored trie spares them the preamble prefill. The same
/// run exercises the disk cold tier (a two-node cap demotes an evicted
/// tail to the spill file and re-serving it repromotes the KV bit-exactly)
/// and the corruption drills (truncated, bit-flipped, and
/// wrong-fingerprint snapshots must degrade to clean cold starts, never
/// panic, and leave the engine serving).
///
/// Each TTFT is the minimum over `repetitions` full runs, the usual
/// defence against scheduler noise.
///
/// # Panics
///
/// Panics if serving fails or the snapshot cannot be written.
pub fn snapshot_warm_restart_with(repetitions: usize, write: bool) -> SnapshotWarmRestartReport {
    let repetitions = repetitions.max(1);
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    let profile = ModelProfile::llama2_7b_sim;
    let traffic = TrafficGenerator::new(
        TrafficConfig {
            requests: 6,
            arrival_window_steps: 0,
            max_new_tokens: 4,
            workload: WorkloadConfig::tiny().with_context_words(48),
            kinds: vec![TaskKind::Qasper, TaskKind::QmSum, TaskKind::TriviaQa],
            prefix_groups: 1,
            prefix_words: 192,
            branch_words: 0,
            tenant_skew_milli: 0,
            cancel_per_mille: 0,
            stop_strings: Vec::new(),
            restart_after_requests: Some(3),
            chat: None,
        },
        0x5AFE_0001,
    )
    .generate();
    let restart_at = traffic
        .iter()
        .position(|r| r.restart_before)
        .expect("the restart marker is in range");

    // Cold sequential reference: the answers every serving variant below
    // must reproduce bit-exactly.
    let pipeline =
        CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
    let reference: Vec<CocktailOutcome> = traffic
        .iter()
        .map(|r| {
            pipeline
                .run(&r.task.context, &r.task.query, r.max_new_tokens)
                .expect("cold sequential reference run succeeds")
        })
        .collect();

    let submit_all =
        |engine: &mut ServingEngine, slice: &[TrafficRequest]| -> Vec<RequestOutcome> {
            for request in slice {
                engine.submit(
                    ServeRequest::builder()
                        .context(request.task.context.clone())
                        .query(request.task.query.clone())
                        .max_new_tokens(request.max_new_tokens)
                        .build(),
                );
            }
            engine.run_until_idle().expect("serving succeeds")
        };
    let fresh = || {
        ServingEngine::new(profile(), config.clone())
            .expect("serving config is valid")
            .with_prefix_cache(PrefixCacheConfig::default())
    };

    let snap_path = std::env::temp_dir().join(format!(
        "cocktail_bench_{}_warm_restart.snap",
        std::process::id()
    ));
    let post = &traffic[restart_at..];
    let mut warm_best = vec![u64::MAX; post.len()];
    let mut cold_best = vec![u64::MAX; post.len()];
    let mut snapshot_bytes = 0usize;
    let mut snapshot_nodes = 0usize;
    let mut restored = true;
    let mut restored_nodes = 0usize;
    let mut byte_identical = true;
    let mut post_restart_reused_tokens = 0usize;
    for _ in 0..repetitions {
        // Interrupted run: build the trie, snapshot, "restart", restore.
        let mut engine = fresh();
        let pre = submit_all(&mut engine, &traffic[..restart_at]);
        for (outcome, cold) in pre.iter().zip(&reference) {
            byte_identical &= outcome.outcome.answer == cold.answer;
        }
        let report = engine.snapshot_to(&snap_path).expect("snapshot writes");
        snapshot_bytes = report.bytes;
        snapshot_nodes = report.nodes;
        drop(engine);

        let mut warm_engine = fresh();
        let restore = warm_engine.restore_from(&snap_path);
        restored &= restore.restored;
        restored_nodes = restore.nodes;
        let outcomes = submit_all(&mut warm_engine, post);
        post_restart_reused_tokens = outcomes.iter().map(|o| o.stats.prefix_reused_tokens).sum();
        for ((outcome, cold), slot) in outcomes
            .iter()
            .zip(&reference[restart_at..])
            .zip(warm_best.iter_mut())
        {
            byte_identical &= outcome.outcome.answer == cold.answer
                && outcome.outcome.generated_tokens == cold.generated_tokens;
            let t = outcome.stats.timings;
            *slot = (*slot).min(t.prefill_us + t.compress_us);
        }

        // Cold-restart control: the same tail with nothing to restore.
        // Timing only — a fresh tokenizer that never saw the first half of
        // the trace interns the tail's words under different ids, so its
        // answers are not comparable to the full-trace reference. (That id
        // sensitivity is exactly why the snapshot carries the interned
        // vocabulary: the restored engine above *does* reproduce the
        // reference byte for byte.)
        let mut cold_engine = fresh();
        let outcomes = submit_all(&mut cold_engine, post);
        for (outcome, slot) in outcomes.iter().zip(cold_best.iter_mut()) {
            let t = outcome.stats.timings;
            *slot = (*slot).min(t.prefill_us + t.compress_us);
        }
    }
    let mean =
        |best: &[u64]| best.iter().map(|&v| v as f64).sum::<f64>() / best.len().max(1) as f64;
    let warm_restart_mean_ttft_us = mean(&warm_best);
    let cold_restart_mean_ttft_us = mean(&cold_best);

    // Snapshot -> restore -> snapshot reproduces the format byte for byte.
    let bytes = std::fs::read(&snap_path).expect("snapshot file is readable");
    let mut echo = fresh();
    let roundtrip = echo.restore_from_bytes(&bytes);
    let roundtrip_byte_identical = roundtrip.restored && echo.snapshot_bytes() == bytes;

    // Corruption drills: every unusable snapshot must degrade to a clean
    // cold start — restored == false with a reason, no panic, and the
    // engine still serves the reference answer afterwards.
    let drill = |mangled: Vec<u8>| -> bool {
        let mut engine = fresh();
        let report = engine.restore_from_bytes(&mangled);
        if report.restored || report.reason.is_none() {
            return false;
        }
        let outcomes = submit_all(&mut engine, &traffic[..1]);
        outcomes[0].outcome.answer == reference[0].answer
    };
    let truncated_cold_start = drill(bytes[..bytes.len() / 2].to_vec());
    let corrupted_cold_start = {
        let mut flipped = bytes.clone();
        let middle = flipped.len() / 2;
        flipped[middle] ^= 0xFF;
        drill(flipped)
    };
    let wrong_fingerprint_cold_start = {
        // A snapshot taken under a different chunk size carries a
        // different config fingerprint: its KV bytes are not portable.
        let other_config = CocktailConfig::default()
            .with_chunk_size(32)
            .expect("chunk size is valid");
        let mut other = ServingEngine::new(profile(), other_config)
            .expect("serving config is valid")
            .with_prefix_cache(PrefixCacheConfig::default());
        submit_all(&mut other, &traffic[..1]);
        drill(other.snapshot_bytes())
    };
    std::fs::remove_file(&snap_path).ok();

    // Demote/repromote drill: a two-node cap with a disk cold tier. The
    // first two requests share the group preamble with divergent tails, so
    // caching the second splits the trie past the cap, demotes the first
    // tail to the spill file, and re-serving the first request repromotes
    // it from disk — with nothing changed in the bytes it serves.
    let spill_path = std::env::temp_dir().join(format!(
        "cocktail_bench_{}_warm_restart.spill",
        std::process::id()
    ));
    std::fs::remove_file(&spill_path).ok();
    let mut tiered = ServingEngine::new(profile(), config.clone())
        .expect("serving config is valid")
        .with_prefix_cache(PrefixCacheConfig::default().with_max_entries(2))
        .with_cold_tier(&spill_path)
        .expect("cold-tier spill path is creatable");
    let first = submit_all(&mut tiered, &traffic[..1]);
    submit_all(&mut tiered, &traffic[1..2]);
    let demotions = tiered
        .prefix_cache_stats()
        .expect("the prefix cache is enabled")
        .demotions;
    let again = submit_all(&mut tiered, &traffic[..1]);
    let repromotions = tiered
        .prefix_cache_stats()
        .expect("the prefix cache is enabled")
        .repromotions;
    let repromoted_reused_tokens = again[0].stats.prefix_reused_tokens;
    let repromoted_byte_identical = again[0].outcome.answer == first[0].outcome.answer
        && again[0].outcome.answer == reference[0].answer;
    std::fs::remove_file(&spill_path).ok();

    println!(
        "cold-restart mean TTFT {cold_restart_mean_ttft_us:.0} us, warm-restart mean TTFT \
         {warm_restart_mean_ttft_us:.0} us ({:.2}x)",
        warm_restart_mean_ttft_us / cold_restart_mean_ttft_us
    );
    let report = SnapshotWarmRestartReport {
        pre_restart_requests: restart_at,
        post_restart_requests: post.len(),
        snapshot_bytes,
        snapshot_nodes,
        restored,
        restored_nodes,
        byte_identical,
        post_restart_reused_tokens,
        warm_restart_mean_ttft_us,
        cold_restart_mean_ttft_us,
        warm_over_cold: warm_restart_mean_ttft_us / cold_restart_mean_ttft_us,
        roundtrip_byte_identical,
        demotions,
        repromotions,
        repromoted_reused_tokens,
        repromoted_byte_identical,
        truncated_cold_start,
        corrupted_cold_start,
        wrong_fingerprint_cold_start,
    };
    let table = vec![
        vec![
            "snapshot bytes".to_string(),
            report.snapshot_bytes.to_string(),
        ],
        vec![
            "snapshot nodes".to_string(),
            report.snapshot_nodes.to_string(),
        ],
        vec![
            "restored nodes".to_string(),
            report.restored_nodes.to_string(),
        ],
        vec![
            "post-restart reused tokens".to_string(),
            report.post_restart_reused_tokens.to_string(),
        ],
        vec![
            "warm-restart mean TTFT us".to_string(),
            format!("{:.0}", report.warm_restart_mean_ttft_us),
        ],
        vec![
            "cold-restart mean TTFT us".to_string(),
            format!("{:.0}", report.cold_restart_mean_ttft_us),
        ],
        vec![
            "cold-tier demotions".to_string(),
            report.demotions.to_string(),
        ],
        vec![
            "cold-tier repromotions".to_string(),
            report.repromotions.to_string(),
        ],
    ];
    print_table(
        "Snapshot warm restart (Llama2-7B sim, 6 shared-prefix requests, restart after 3)",
        &["Metric", "Value"],
        &table,
    );
    if write {
        let record = ExperimentRecord {
            id: "snapshot_warm_restart".to_string(),
            title: "KV snapshot warm restart: persist the prefix trie, restart, serve warm"
                .to_string(),
            note: format!(
                "6 requests sharing a 192-word preamble on the Llama2-7B sim profile, snapshot + \
                 restart after request 3 (the trace's restart marker), best of {repetitions} \
                 runs; all answers asserted byte-identical to cold sequential runs; includes \
                 cold-tier demote/repromote and truncated/corrupted/wrong-fingerprint drills"
            ),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

// ---------------------------------------------------------------------------
// Multi-turn chat — prefix reuse, sampled replay across restarts, greedy
// byte-identity
// ---------------------------------------------------------------------------

/// Reuse measurement for one served chat turn.
#[derive(Debug, Clone, Serialize)]
pub struct ChatTurnRow {
    /// Conversation index within its trace.
    pub conversation: usize,
    /// Zero-based turn within the conversation.
    pub turn: usize,
    /// Whether the conversation interleaves tool-result segments.
    pub tool_loop: bool,
    /// Tokens in this turn's transcript (the request context).
    pub context_tokens: usize,
    /// Prompt tokens served from the prefix trie instead of re-prefilled.
    pub prefix_reused_tokens: usize,
    /// `prefix_reused_tokens / context_tokens`.
    pub reuse_ratio: f64,
}

/// Full payload of the multi-turn chat record.
#[derive(Debug, Clone, Serialize)]
pub struct ChatMultiturnReport {
    /// Conversations per trace (one plain-chat trace, one tool-loop trace).
    pub conversations: usize,
    /// Turns per conversation.
    pub turns: usize,
    /// Total requests served per leg (both traces).
    pub requests: usize,
    /// Per-turn reuse rows (turns >= 1 only; turn 0 is a cold prefill).
    pub turn_rows: Vec<ChatTurnRow>,
    /// Smallest reuse ratio over every turn >= 1.
    pub min_reuse_ratio: f64,
    /// Every turn >= 1 reused at least 90 % of its transcript from the trie.
    pub reuse_ok: bool,
    /// Every snapshot restore loaded cleanly.
    pub snapshot_restored: bool,
    /// Sampled conversations replayed bit-identically (tokens and answers)
    /// on a fresh engine restored from the original engine's snapshot.
    pub sampled_replay_identical: bool,
    /// Greedy serving answers matched the solo sequential pipeline byte for
    /// byte, turn by turn.
    pub greedy_byte_identical: bool,
}

/// Multi-turn chat with the default settings; record written to
/// `results/chat_multiturn.json`.
///
/// # Panics
///
/// Panics if serving fails.
pub fn chat_multiturn() -> ChatMultiturnReport {
    chat_multiturn_with(true)
}

/// The serving story behind multi-turn chat: each turn's prompt is the
/// whole prior transcript plus one new user message, so a conversation's
/// turns should hit the prefix trie for nearly the entire prompt. Two
/// traces run — plain chat and an agentic tool-call loop whose transcripts
/// interleave fixed tool-result segments — and three properties are
/// asserted per trace:
///
/// 1. **Prefix reuse** — every turn >= 1 serves at least 90 % of its
///    transcript tokens from the trie (the prior turn published them).
/// 2. **Sampled replay across restarts** — conversations decoded through
///    per-request [`SamplingParams`] chains reproduce the exact same
///    tokens on a fresh engine restored from the first engine's snapshot
///    (the snapshot carries the tokenizer's interning order, so the
///    logits — and the seeded draws over them — are bit-identical).
/// 3. **Greedy byte-identity** — requests without sampling match a solo
///    [`CocktailPipeline`] run of the same conversations byte for byte,
///    exactly as the engine's continuous-batching contract promises.
///
/// The drill is timing-free, so every assertion also runs in the tier-1
/// test suite.
///
/// # Panics
///
/// Panics if serving fails.
pub fn chat_multiturn_with(write: bool) -> ChatMultiturnReport {
    let conversations = 2;
    let turns = 3;
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid");
    let profile = ModelProfile::llama2_7b_sim;
    let traces: Vec<(bool, u64, Vec<TrafficRequest>)> = vec![
        (false, 0xC4A7_0001, {
            let config = TrafficConfig::small(conversations)
                .with_chat_turns(turns, 12)
                .with_max_new_tokens(4);
            TrafficGenerator::new(config, 0xC4A7_0001).generate()
        }),
        (true, 0xC4A7_0002, {
            let config = TrafficConfig::small(conversations)
                .with_chat_tool_loop(turns, 8)
                .with_max_new_tokens(4);
            TrafficGenerator::new(config, 0xC4A7_0002).generate()
        }),
    ];

    let fresh = || {
        ServingEngine::new(profile(), config.clone())
            .expect("serving config is valid")
            .with_prefix_cache(PrefixCacheConfig::default())
    };
    // Submit one turn's worth of requests, drain the engine, return the
    // outcomes. Turn t of a conversation is only submitted after turn t-1
    // completed — the chat contract — and every leg below submits the
    // whole trace in the same order, so each engine interns the vocabulary
    // identically and stays byte-comparable.
    let serve_turns = |engine: &mut ServingEngine,
                       trace: &[TrafficRequest],
                       sampling_seed: Option<u64>|
     -> Vec<RequestOutcome> {
        let mut outcomes = Vec::new();
        for turn in 0..turns {
            for request in trace
                .iter()
                .filter(|r| r.chat.expect("chat mode is on").turn == turn)
            {
                let mut builder = ServeRequest::builder()
                    .context(request.task.context.clone())
                    .query(request.task.query.clone())
                    .max_new_tokens(request.max_new_tokens);
                if let Some(base_seed) = sampling_seed {
                    builder = builder.sampling(
                        SamplingParams::for_request(base_seed, request.index as u64)
                            .with_temperature(0.9)
                            .with_top_k(12),
                    );
                }
                engine.submit(builder.build());
            }
            outcomes.extend(engine.run_until_idle().expect("serving succeeds"));
        }
        outcomes
    };

    let mut turn_rows = Vec::new();
    let mut requests = 0usize;
    let mut snapshot_restored = true;
    let mut sampled_replay_identical = true;
    let mut greedy_byte_identical = true;
    for (tool_loop, base_seed, trace) in &traces {
        requests += trace.len();

        // Greedy leg: turn-by-turn serving vs the solo sequential pipeline.
        let pipeline =
            CocktailPipeline::new(profile(), config.clone()).expect("pipeline config is valid");
        let reference: Vec<CocktailOutcome> = trace
            .iter()
            .map(|r| {
                pipeline
                    .run(&r.task.context, &r.task.query, r.max_new_tokens)
                    .expect("solo reference run succeeds")
            })
            .collect();
        let mut greedy_engine = fresh();
        let greedy = serve_turns(&mut greedy_engine, trace, None);
        for (outcome, solo) in greedy.iter().zip(&reference) {
            greedy_byte_identical &= outcome.outcome.answer == solo.answer
                && outcome.outcome.generated_tokens == solo.generated_tokens;
        }
        for (outcome, request) in greedy.iter().zip(trace.iter()) {
            let chat = request.chat.expect("chat mode is on");
            if chat.turn == 0 {
                continue;
            }
            let context_tokens = outcome.stats.context_tokens;
            let reused = outcome.stats.prefix_reused_tokens;
            turn_rows.push(ChatTurnRow {
                conversation: chat.conversation,
                turn: chat.turn,
                tool_loop: *tool_loop,
                context_tokens,
                prefix_reused_tokens: reused,
                reuse_ratio: reused as f64 / context_tokens.max(1) as f64,
            });
        }

        // Sampled leg: serve with per-request sampler chains, snapshot the
        // engine, restore onto a fresh one, and replay the whole trace.
        let mut sampled_engine = fresh();
        let first = serve_turns(&mut sampled_engine, trace, Some(*base_seed));
        let snapshot = sampled_engine.snapshot_bytes();
        drop(sampled_engine);
        let mut restored_engine = fresh();
        let restore = restored_engine.restore_from_bytes(&snapshot);
        snapshot_restored &= restore.restored;
        let replay = serve_turns(&mut restored_engine, trace, Some(*base_seed));
        sampled_replay_identical &= first.len() == replay.len();
        for (a, b) in first.iter().zip(&replay) {
            sampled_replay_identical &= a.outcome.answer == b.outcome.answer
                && a.outcome.generated_tokens == b.outcome.generated_tokens;
        }
    }
    let min_reuse_ratio = turn_rows
        .iter()
        .map(|row| row.reuse_ratio)
        .fold(f64::INFINITY, f64::min);
    let reuse_ok = turn_rows
        .iter()
        .all(|row| row.prefix_reused_tokens as f64 >= 0.9 * row.context_tokens as f64);

    let report = ChatMultiturnReport {
        conversations,
        turns,
        requests,
        turn_rows,
        min_reuse_ratio,
        reuse_ok,
        snapshot_restored,
        sampled_replay_identical,
        greedy_byte_identical,
    };
    let table: Vec<Vec<String>> = report
        .turn_rows
        .iter()
        .map(|row| {
            vec![
                if row.tool_loop { "tool-loop" } else { "chat" }.to_string(),
                row.conversation.to_string(),
                row.turn.to_string(),
                row.context_tokens.to_string(),
                row.prefix_reused_tokens.to_string(),
                format!("{:.3}", row.reuse_ratio),
            ]
        })
        .collect();
    print_table(
        "Multi-turn chat (Llama2-7B sim, 2 conversations x 3 turns, plain + tool-loop)",
        &[
            "Trace",
            "Conversation",
            "Turn",
            "Context tokens",
            "Reused tokens",
            "Reuse ratio",
        ],
        &table,
    );
    println!(
        "min reuse ratio {:.3}, sampled replay identical: {}, greedy byte-identical: {}",
        report.min_reuse_ratio, report.sampled_replay_identical, report.greedy_byte_identical
    );
    if write {
        let record = ExperimentRecord {
            id: "chat_multiturn".to_string(),
            title: "Multi-turn chat: prefix reuse, sampled replay across restarts, greedy \
                    identity"
                .to_string(),
            note: "2 conversations x 3 turns per trace (plain chat and agentic tool-call loop) \
                   on the Llama2-7B sim profile; every turn >= 1 must reuse >= 90 % of its \
                   transcript from the prefix trie, sampled conversations must replay \
                   bit-identically on a snapshot-restored engine, and greedy requests must \
                   match the solo sequential pipeline byte for byte"
                .to_string(),
            rows: &report,
        };
        let path = write_record(&record);
        println!("(written to {})", path.display());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chat_multiturn_holds_its_invariants() {
        let report = chat_multiturn_with(false);
        assert_eq!(report.requests, 2 * report.conversations * report.turns);
        // One row per turn >= 1 per conversation per trace.
        assert_eq!(
            report.turn_rows.len(),
            2 * report.conversations * (report.turns - 1)
        );
        assert!(
            report.reuse_ok,
            "a turn reused under 90% of its transcript (min ratio {:.3})",
            report.min_reuse_ratio
        );
        assert!(report.min_reuse_ratio >= 0.9);
        assert!(report.snapshot_restored);
        assert!(report.sampled_replay_identical);
        assert!(report.greedy_byte_identical);
    }

    #[test]
    fn snapshot_warm_restart_holds_its_invariants() {
        let report = snapshot_warm_restart_with(1, false);
        assert!(report.restored);
        assert_eq!(report.restored_nodes, report.snapshot_nodes);
        assert!(report.byte_identical);
        assert!(report.post_restart_reused_tokens > 0);
        assert!(
            report.warm_restart_mean_ttft_us < report.cold_restart_mean_ttft_us,
            "warm restart {:.0} us must beat the cold control {:.0} us",
            report.warm_restart_mean_ttft_us,
            report.cold_restart_mean_ttft_us
        );
        assert!(report.roundtrip_byte_identical);
        assert!(report.demotions > 0);
        assert!(report.repromotions > 0);
        assert!(report.repromoted_reused_tokens > 0);
        assert!(report.repromoted_byte_identical);
        assert!(report.truncated_cold_start);
        assert!(report.corrupted_cold_start);
        assert!(report.wrong_fingerprint_cold_start);
    }

    #[test]
    fn fig1_most_chunks_are_irrelevant() {
        let rows = fig1_heatmap();
        assert_eq!(rows.len(), 10);
        for row in &rows {
            assert_eq!(row.scores.len(), 89);
            assert!(
                row.highly_relevant_fraction < 0.25,
                "query {} has {}% highly relevant chunks",
                row.query,
                row.highly_relevant_fraction * 100.0
            );
        }
    }

    #[test]
    fn fig4_cocktail_always_below_fp16() {
        let rows = fig4_memory();
        for model in model_suite() {
            let get = |method: &str| {
                rows.iter()
                    .find(|r| r.model == model.name() && r.method == method)
                    .unwrap()
                    .gpu_memory_gib
            };
            assert!(get("Cocktail") < get("FP16"), "{}", model.name());
            assert!(get("Atom") < get("FP16"));
        }
    }

    #[test]
    fn fig5_cocktail_has_lowest_tpot() {
        let rows = fig5_tpot();
        for model in model_suite() {
            let model_rows: Vec<&TpotRow> =
                rows.iter().filter(|r| r.model == model.name()).collect();
            let cocktail = model_rows
                .iter()
                .find(|r| r.method == "Cocktail")
                .unwrap()
                .tpot_us;
            for row in &model_rows {
                assert!(
                    cocktail <= row.tpot_us + 1e-9,
                    "{}: {} has lower TPOT than Cocktail",
                    model.name(),
                    row.method
                );
            }
        }
    }

    #[test]
    fn serving_throughput_batched_meets_or_beats_sequential() {
        // Two repetitions keep the tier-1 suite fast; no record is written
        // (the release-mode binary owns `results/serving_throughput.json`).
        let report = serving_throughput_with(2, false);
        assert_eq!(report.rows.len(), 3);
        for row in &report.rows {
            assert!(row.batched_tokens_per_s > 0.0);
            assert!(row.sequential_tokens_per_s > 0.0);
            assert!(row.hwsim_tokens_per_s.is_some());
            if row.batch >= 2 {
                // The strict batched >= sequential comparison lives in the
                // release-mode `serving_throughput` binary (run by CI);
                // asserting wall-clock ratios in the debug test suite would
                // make tier-1 hostage to scheduler noise on loaded runners.
                // The analytic prediction, by contrast, is deterministic.
                assert!(
                    row.hwsim_speedup_vs_batch1.unwrap() > 1.0,
                    "hwsim must predict a batching gain"
                );
            }
        }
        // Per-request stats carry the timing breakdown into the JSON.
        assert_eq!(report.request_stats.len(), 4);
        for stats in &report.request_stats {
            assert!(stats.timings.prefill_us > 0);
            assert!(stats.cache_bytes > 0);
            assert!(stats.admitted_step.is_some());
            assert!(stats.finished_step.is_some());
        }
    }

    #[test]
    fn ttft_prefix_reuse_reuses_every_follower_byte_identically() {
        // One repetition keeps tier-1 fast; byte-identity against the cold
        // sequential reference is asserted inside. The strict warm-vs-cold
        // wall-clock comparison lives in the release-mode binary run by CI
        // (debug timings on loaded runners are too noisy to gate on).
        let report = ttft_prefix_reuse_with(1, false);
        assert_eq!(report.rows.len(), report.groups * report.requests_per_group);
        assert!(report.requests_per_group >= 2);
        let cold: Vec<_> = report.rows.iter().filter(|r| r.cold).collect();
        assert_eq!(
            cold.len(),
            report.groups,
            "exactly one cold leader per group"
        );
        for row in report.rows.iter().filter(|r| !r.cold) {
            assert!(row.prefix_reused_tokens > 0);
            // Followers reuse at least the shared preamble (192 words).
            assert!(
                row.prefix_reused_tokens >= 192,
                "request {} reused only {} tokens",
                row.request,
                row.prefix_reused_tokens
            );
        }
        // Every group saw reuse.
        for g in 0..report.groups {
            assert!(report
                .rows
                .iter()
                .any(|r| r.group == g && !r.cold && r.prefix_reused_tokens > 0));
        }
        assert!(report.prefix_cache.hits >= (report.rows.len() - report.groups) as u64);
    }

    #[test]
    fn prefix_trie_dedup_shares_preambles_and_evicts_partially() {
        // Byte-identity to trie-off serving is asserted inside the
        // experiment (it panics on divergence); all numbers here are
        // deterministic, so the strict checks can run in tier-1 too.
        let report = prefix_trie_dedup_with(false);
        assert!(report.byte_identical);
        assert_eq!(report.rows.len(), report.groups * report.requests_per_group);
        assert!(
            report.trie_resident_bytes < report.lcp_baseline_bytes,
            "branching traffic must share strictly fewer bytes than whole-sequence caching: \
             {} >= {}",
            report.trie_resident_bytes,
            report.lcp_baseline_bytes
        );
        // Each group's first branch is cold; every later branch resumes
        // from at least the shared preamble.
        let cold = report.rows.iter().filter(|r| r.cold).count();
        assert_eq!(cold, report.groups, "exactly one cold leader per group");
        for row in report.rows.iter().filter(|r| !r.cold) {
            assert!(
                row.prefix_reused_tokens >= report.preamble_words,
                "request {} reused only {} tokens of a {}-word preamble",
                row.request,
                row.prefix_reused_tokens,
                report.preamble_words
            );
        }
        // Divergence splits each group's leader node exactly where the
        // branches fork.
        assert!(report.dedup_stats.node_splits >= report.groups as u64);
        assert!(
            report.dedup_stats.nodes > report.groups,
            "branch leaves exist"
        );
        // Budget pressure trims leaf-ward: partial evictions observed.
        assert!(
            report.pressure_stats.partial_evictions > 0,
            "pressure phase saw no partial eviction"
        );
    }

    #[test]
    fn streaming_latency_streams_cancels_and_stays_in_budget() {
        // One repetition keeps tier-1 fast; byte-identity of survivors and
        // cancelled-prefix identity are asserted inside the experiment.
        let report = streaming_latency_with(1, false);
        assert_eq!(report.rows.len(), report.requests);
        assert!(report.budget_ok, "KV budget invariant violated");
        assert!(report.rows.iter().any(|r| r.cancelled));
        assert!(report.rows.iter().any(|r| !r.cancelled));
        for row in &report.rows {
            assert!(row.first_token_step.is_some());
            assert!(row.finished_step.is_some());
            if row.cancelled {
                assert_eq!(Some(row.generated_tokens), row.cancel_after_tokens);
                assert!(
                    row.generated_tokens < row.max_new_tokens,
                    "request {} was cancelled but decoded its full budget",
                    row.request
                );
            } else {
                assert_eq!(row.generated_tokens, row.max_new_tokens);
            }
            // Completion is measured at least one decode round after the
            // first token for any request streaming >= 2 tokens, so the
            // ordering is robust even on noisy hosts.
            if row.generated_tokens >= 2 {
                assert!(row.first_token_us < row.completion_us);
            }
        }
        assert!(report.mean_first_token_us < report.mean_completion_us);
    }

    #[test]
    fn fig6_has_oom_points_and_crossover() {
        let rows = fig6_throughput();
        let oom_fp16 = rows
            .iter()
            .filter(|r| r.method == "FP16" && r.tokens_per_s.is_none())
            .count();
        assert!(oom_fp16 > 0, "FP16 must hit OOM somewhere in the sweep");
        let at = |method: &str, batch: usize| {
            rows.iter()
                .find(|r| r.method == method && r.batch == batch)
                .and_then(|r| r.tokens_per_s)
        };
        // Small batch: Cocktail at or below the uniform methods.
        assert!(at("Cocktail", 1).unwrap() <= at("Atom", 1).unwrap() + 1e-9);
        // Large batch (both still in memory): Cocktail ahead.
        let batch = 64;
        assert!(at("Cocktail", batch).unwrap() > at("Atom", batch).unwrap());
        // KVQuant never overtakes Cocktail.
        for b in [1usize, 8, 64] {
            if let (Some(c), Some(k)) = (at("Cocktail", b), at("KVQuant", b)) {
                assert!(c > k, "batch {b}");
            }
        }
    }

    #[test]
    fn replica_affinity_routes_reuse_and_leaves_no_cross_replica_leaks() {
        // One repetition keeps tier-1 fast; the strict throughput-scaling
        // and affinity-vs-round-robin rate gates live in the release-mode
        // `replica_affinity` binary run by CI (debug wall-clock ratios are
        // hostage to scheduler noise). Everything asserted here is
        // deterministic: placements, reuse counts, byte-identity, leaks.
        let report = replica_affinity_with(1, false);
        assert_eq!(report.replicas, 2);
        assert!(
            report.routed_byte_identical,
            "an in-process routed output diverged from its replica's solo replay"
        );
        assert!(
            report.gateway_byte_identical,
            "a fleet-gateway stream diverged from its replica's solo replay"
        );
        assert!(
            report.affinity_reused_tokens > report.round_robin_reused_tokens,
            "affinity reused {} tokens, round-robin {}",
            report.affinity_reused_tokens,
            report.round_robin_reused_tokens
        );
        // Tenant leaders go least-loaded, every follower by fingerprint.
        assert!(report.affinity_routed > 0);
        assert!(report.least_loaded_routed > 0);
        assert_eq!(
            report.affinity_routed + report.least_loaded_routed,
            report.requests
        );
        // The fleet gateway spread the trace over both replicas and its
        // stats endpoint saw the routing counters.
        assert_eq!(report.gateway_replica_requests.len(), report.replicas);
        assert!(report.gateway_replica_requests.iter().all(|&n| n > 0));
        assert_eq!(
            report.gateway_affinity_routed + report.gateway_least_loaded_routed,
            report.requests
        );
        // The hwsim fleet model predicts exactly linear scaling.
        assert!((report.predicted_scaling - report.replicas as f64).abs() < 1e-9);
        // Storm: both outcomes occurred, survivors matched, nothing leaked
        // on either replica.
        assert!(report.storm_cancelled > 0);
        assert!(report.storm_completed > 0);
        assert_eq!(
            report.storm_cancelled + report.storm_completed,
            report.storm_requests
        );
        assert!(report.storm_survivors_byte_identical);
        assert_eq!(report.storm_leaks.len(), report.replicas);
        for leak in &report.storm_leaks {
            assert_eq!(
                leak.leaked_kv_bytes, 0,
                "replica {} leaked KV bytes",
                leak.replica
            );
            assert_eq!(
                leak.pinned_entries, 0,
                "replica {} still holds pins",
                leak.replica
            );
        }
    }
}
