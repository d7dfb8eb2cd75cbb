//! The experiment registry: every table and figure of the paper, the kernel
//! record and every serving experiment is one [`Experiment`] entry of
//! [`EXPERIMENTS`].
//!
//! An experiment is two functions kept side by side in one of the family
//! modules: `x() -> (note, Report)` runs, prints a human-readable table and
//! returns its typed report, and `check_x(&Report) -> Vec<Finding>` is the
//! single home of its invariants. The registry erases the report type into
//! an [`Outcome`] — the rendered `results/<id>.json` record plus the
//! findings — so one binary (`experiment`) runs any subset, writes the
//! records, prints the findings and sets the exit code, and the tier-1
//! tests below assert on the same `check` the binary reports from.
//!
//! No experiment reads a clock: every record is a function of the code and
//! its seeds, so every record is committed and is its own reference. Speed
//! is judged by the wall-clock benchmark (`benchmark/`) under its paired
//! rule, never here.

mod fleet;
mod kernels;
mod paper;
mod serving;

use crate::record_json;
use cocktail_core::{
    CocktailConfig, CocktailOutcome, CocktailPipeline, PrefixCacheConfig, RequestOutcome,
    ServeRequest, ServingEngine,
};
use cocktail_hwsim::{AcceleratorSpec, DeploymentModel, RequestShape};
use cocktail_model::ModelProfile;
use cocktail_workloads::{TrafficConfig, TrafficRequest, WorkloadConfig};
use std::fmt;

/// One violated invariant of an experiment, as reported by its `check`.
/// Every finding fails the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// What was violated, with the numbers that show it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "FAIL: {}", self.message)
    }
}

/// Collects the findings of one `check`: [`Findings::require`] records its
/// message when the invariant does *not* hold.
#[derive(Default)]
struct Findings(Vec<Finding>);

impl Findings {
    fn require(&mut self, holds: bool, message: impl Into<String>) {
        if !holds {
            self.0.push(Finding {
                message: message.into(),
            });
        }
    }
}

/// What one run of an experiment produced, with the report type erased.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The `{id, title, note, rows}` record as pretty JSON: exactly the
    /// bytes of `results/<id>.json`.
    pub record: String,
    /// Every invariant the run violated; empty when clean.
    pub findings: Vec<Finding>,
}

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Name on the command line and stem of `results/<id>.json`.
    pub id: &'static str,
    /// Human-readable title, also the record's `title`.
    pub title: &'static str,
    /// Runs the experiment, prints its table and returns the record and the
    /// findings. Writes nothing.
    pub run: fn() -> Outcome,
}

/// Builds a registry entry from an experiment's typed `run` and `check`.
macro_rules! experiment {
    ($id:literal, $title:literal, $run:path, $check:path) => {
        Experiment {
            id: $id,
            title: $title,
            run: || {
                let (note, report) = $run();
                Outcome {
                    record: record_json($id, $title, &note, &report),
                    findings: $check(&report),
                }
            },
        }
    };
}

/// Every experiment, in the order `experiment --all` runs them: the
/// paper's figures and tables first, then the kernel record, then the
/// serving experiments.
pub const EXPERIMENTS: &[Experiment] = &[
    experiment!(
        "fig1_heatmap",
        "Figure 1: similarity heatmap between a long passage and 10 queries",
        paper::fig1_heatmap,
        paper::check_fig1_heatmap
    ),
    experiment!(
        "table2_accuracy",
        "Table II: accuracy comparison of KV cache quantization methods",
        paper::table2_accuracy,
        paper::check_table2_accuracy
    ),
    experiment!(
        "table3_chunk_size",
        "Table III: the impact of different chunk size on model performance",
        paper::table3_chunk_size,
        paper::check_table3_chunk_size
    ),
    experiment!(
        "table4_encoders",
        "Table IV: performance comparison of different context and query encoders",
        paper::table4_encoders,
        paper::check_table4_encoders
    ),
    experiment!(
        "table5_ablation",
        "Table V: ablation of the two Cocktail modules",
        paper::table5_ablation,
        paper::check_table5_ablation
    ),
    experiment!(
        "fig4_memory",
        "Figure 4: GPU memory of different models",
        paper::fig4_memory,
        paper::check_fig4_memory
    ),
    experiment!(
        "fig5_tpot",
        "Figure 5: time per output token (TPOT) of different models",
        paper::fig5_tpot,
        paper::check_fig5_tpot
    ),
    experiment!(
        "fig6_throughput",
        "Figure 6: throughput of different methods with different batch sizes",
        paper::fig6_throughput,
        paper::check_fig6_throughput
    ),
    experiment!(
        "fig7_alpha_beta",
        "Figure 7: the impact of alpha and beta on model performance",
        paper::fig7_alpha_beta,
        paper::check_fig7_alpha_beta
    ),
    experiment!(
        "kernels",
        "Hot-kernel shapes, tile layouts and output fingerprints",
        kernels::kernels,
        kernels::check_kernels
    ),
    experiment!(
        "ttft_prefix_reuse",
        "Shared-prefix traffic: every follower resumes from the prefix cache",
        serving::ttft_prefix_reuse,
        serving::check_ttft_prefix_reuse
    ),
    experiment!(
        "streaming_latency",
        "Streaming: per-token delivery steps and client cancellations under budget",
        serving::streaming_latency,
        serving::check_streaming_latency
    ),
    experiment!(
        "prefix_trie_dedup",
        "Prefix-trie dedup: divergent branches share their preamble blocks once",
        serving::prefix_trie_dedup,
        serving::check_prefix_trie_dedup
    ),
    experiment!(
        "gateway_saturation",
        "Gateway saturation: HTTP/SSE serving overhead and disconnect-storm hygiene",
        fleet::gateway_saturation,
        fleet::check_gateway_saturation
    ),
    experiment!(
        "replica_affinity",
        "Replica affinity: fleet-wide prefix reuse via consistent-hash routing",
        fleet::replica_affinity,
        fleet::check_replica_affinity
    ),
    experiment!(
        "snapshot_warm_restart",
        "KV snapshot warm restart: persist the prefix trie, restart, serve warm",
        serving::snapshot_warm_restart,
        serving::check_snapshot_warm_restart
    ),
    experiment!(
        "chat_multiturn",
        "Multi-turn chat: prefix reuse, sampled replay across restarts, greedy identity",
        serving::chat_multiturn,
        serving::check_chat_multiturn
    ),
];

/// The registered experiment with the given id.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// The registry as a markdown table — what `experiment --list` prints and
/// the README copies.
pub fn listing() -> String {
    let mut out = String::from("| experiment | title |\n|---|---|\n");
    for e in EXPERIMENTS {
        out.push_str(&format!("| `{}` | {} |\n", e.id, e.title));
    }
    out
}

/// Output length used by the hardware experiments (the paper's setting).
const OUTPUT_LEN: usize = 128;
/// Batch size used for the TPOT comparison (Figure 5); the paper does not
/// state its batch size, so a moderately loaded decode step is assumed.
const TPOT_BATCH: usize = 16;

fn deployment_for(model: &ModelProfile) -> DeploymentModel {
    DeploymentModel::new(
        AcceleratorSpec::a800(),
        model.full().clone(),
        RequestShape::new(model.full().max_context - OUTPUT_LEN, OUTPUT_LEN),
    )
}

// What the serving experiments share: one model profile, one Cocktail
// configuration, one traffic shape, and the same ways of driving them.

/// The simulated model every serving experiment runs.
fn profile() -> ModelProfile {
    ModelProfile::llama2_7b_sim()
}

/// The Cocktail configuration of every serving experiment (16-token chunks).
fn serving_config() -> CocktailConfig {
    CocktailConfig::default()
        .with_chunk_size(16)
        .expect("chunk size is valid")
}

/// A serving engine on [`profile`] and [`serving_config`], no prefix cache.
fn engine() -> ServingEngine {
    ServingEngine::new(profile(), serving_config()).expect("serving config is valid")
}

/// [`engine`] with the default prefix cache.
fn cached_engine() -> ServingEngine {
    engine().with_prefix_cache(PrefixCacheConfig::default())
}

/// A solo pipeline on [`profile`] and [`serving_config`].
fn pipeline() -> CocktailPipeline {
    CocktailPipeline::new(profile(), serving_config()).expect("pipeline config is valid")
}

/// The solo sequential reference: one `CocktailPipeline::run` per request,
/// in order.
fn solo_runs<'a>(
    pipeline: &CocktailPipeline,
    traffic: impl IntoIterator<Item = &'a TrafficRequest>,
) -> Vec<CocktailOutcome> {
    let run = |r: &TrafficRequest| {
        pipeline
            .run(&r.task.context, &r.task.query, r.max_new_tokens)
            .expect("solo sequential reference run succeeds")
    };
    traffic.into_iter().map(run).collect()
}

/// Mixed-family traffic arriving all at once: `requests` requests of
/// `context_words`-word contexts and `max_new_tokens` new tokens each.
fn burst_traffic(requests: usize, max_new_tokens: usize, context_words: usize) -> TrafficConfig {
    TrafficConfig {
        arrival_window_steps: 0,
        max_new_tokens,
        workload: WorkloadConfig::tiny().with_context_words(context_words),
        ..TrafficConfig::small(requests)
    }
}

/// The greedy serve request of one traffic request.
fn serve_request(request: &TrafficRequest) -> ServeRequest {
    ServeRequest::new(
        request.task.context.clone(),
        request.task.query.clone(),
        request.max_new_tokens,
    )
}

/// Submits every request in order and drains the engine.
fn serve_all(engine: &mut ServingEngine, traffic: &[TrafficRequest]) -> Vec<RequestOutcome> {
    for request in traffic {
        engine.submit(serve_request(request));
    }
    engine.run_until_idle().expect("serving succeeds")
}

/// Whether the served outcomes reproduce the reference runs token for token
/// and byte for byte.
fn same_answers<'a>(
    served: &[RequestOutcome],
    reference: impl ExactSizeIterator<Item = &'a CocktailOutcome>,
) -> bool {
    served.len() == reference.len()
        && served.iter().zip(reference).all(|(served, reference)| {
            served.outcome.generated_tokens == reference.generated_tokens
                && served.outcome.answer == reference.answer
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results_dir;
    use std::collections::HashSet;
    use std::fs;

    /// Runs an experiment body (nothing is written: only the `experiment`
    /// binary writes records) and asserts that its `check` reports no
    /// finding, failing with the lines the runner would print.
    fn clean<R>(run: fn() -> (String, R), check: impl Fn(&R) -> Vec<Finding>) -> R {
        let (_, report) = run();
        let broken: Vec<String> = check(&report).iter().map(Finding::to_string).collect();
        assert!(broken.is_empty(), "{}", broken.join("\n"));
        report
    }

    /// Asserts that a `check` fed a hand-broken report fails with a message
    /// containing `needle` — so an invariant cannot be dropped silently.
    fn caught(findings: &[Finding], needle: &str) {
        assert!(
            findings.iter().any(|f| f.message.contains(needle)),
            "no finding mentions `{needle}`: {findings:?}"
        );
    }

    #[test]
    fn registry_ids_are_unique_and_well_formed() {
        let mut seen = HashSet::new();
        for e in EXPERIMENTS {
            assert!(seen.insert(e.id), "duplicate experiment id {}", e.id);
            assert!(
                !e.id.is_empty()
                    && e.id
                        .bytes()
                        .all(|b| matches!(b, b'a'..=b'z' | b'0'..=b'9' | b'_')),
                "experiment id `{}` is not [a-z0-9_]+",
                e.id
            );
            assert_eq!(find(e.id).map(|found| found.id), Some(e.id));
        }
        assert!(find("no_such_experiment").is_none());
    }

    /// The committed record is the baseline: `results/` holds exactly one
    /// record per registry id — none missing, and none orphaned by a
    /// deleted experiment — and `.gitignore` keeps none of them out of git.
    #[test]
    fn deterministic_records_are_committed_with_a_baseline() {
        let expected: HashSet<String> = EXPERIMENTS
            .iter()
            .map(|e| format!("{}.json", e.id))
            .collect();
        let on_disk: HashSet<String> = fs::read_dir(results_dir())
            .expect("results/ is readable")
            .map(|entry| entry.expect("results/ entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.ends_with(".json"))
            .collect();
        assert_eq!(
            on_disk, expected,
            "results/*.json must be exactly one record per registered experiment"
        );
        let gitignore = results_dir().with_file_name(".gitignore");
        let gitignore = fs::read_to_string(gitignore).expect(".gitignore is readable");
        let ignoring: Vec<&str> = gitignore
            .lines()
            .filter(|line| !line.starts_with('#') && line.contains("results"))
            .collect();
        assert!(
            ignoring.is_empty(),
            ".gitignore must not mention results/: {ignoring:?}"
        );
    }

    #[test]
    fn kernels_record_matches_the_committed_one() {
        let entry = find("kernels").expect("kernels is registered");
        let outcome = (entry.run)();
        let committed = fs::read_to_string(results_dir().join("kernels.json"))
            .expect("results/kernels.json is committed");
        assert!(
            outcome.record == committed,
            "the kernel record drifted from results/kernels.json: rerun `experiment kernels`, \
             inspect the diff, commit it"
        );
        let broken: Vec<String> = outcome.findings.iter().map(Finding::to_string).collect();
        assert!(broken.is_empty(), "{}", broken.join("\n"));

        let report = kernels::KernelsReport {
            parallel_threshold: 65_536,
            engine_slot_work: vec![65_536, 65_535],
            ..Default::default()
        };
        caught(
            &kernels::check_kernels(&report),
            "slot 1 does 65535 work units",
        );
    }

    #[test]
    fn accuracy_checks_catch_a_broken_table() {
        let row =
            |variant: &str, accuracy: f64, gpu_memory_gib: f64, tpot_us: f64| paper::AblationRow {
                variant: variant.to_string(),
                accuracy,
                gpu_memory_gib,
                tpot_us,
            };
        let mut rows = vec![
            row("Baseline (FP16)", 100.0, 14.67, 30000.0),
            row("w/o Module I", 87.5, 13.33, 17000.0),
            row("w/o Module II", 100.0, 13.33, 41000.0),
            row("Cocktail", 100.0, 13.33, 17700.0),
        ];
        assert_eq!(paper::check_table5_ablation(&rows), Vec::new());
        rows[3].accuracy = 120.0;
        caught(&paper::check_table5_ablation(&rows), "outside [0, 100]");
        rows[3].accuracy = 80.0;
        caught(&paper::check_table5_ablation(&rows), "without Module I");
        rows.truncate(3);
        caught(
            &paper::check_table5_ablation(&rows),
            "has 3 rows, expected 4",
        );
    }

    #[test]
    fn chat_multiturn_holds_its_invariants() {
        let mut report = clean(serving::chat_multiturn, serving::check_chat_multiturn);
        report.greedy_byte_identical = false;
        caught(
            &serving::check_chat_multiturn(&report),
            "greedy conversation",
        );
    }

    #[test]
    fn snapshot_warm_restart_holds_its_invariants() {
        let mut report = clean(
            serving::snapshot_warm_restart,
            serving::check_snapshot_warm_restart,
        );
        report.roundtrip_byte_identical = false;
        caught(
            &serving::check_snapshot_warm_restart(&report),
            "did not reproduce the bytes",
        );
        report.post_restart_reused_tokens[0] = 191;
        caught(
            &serving::check_snapshot_warm_restart(&report),
            "reused only 191 tokens",
        );
    }

    #[test]
    fn fig1_most_chunks_are_irrelevant() {
        let mut rows = clean(paper::fig1_heatmap, |r| paper::check_fig1_heatmap(r));
        rows[0].highly_relevant_fraction = 0.5;
        caught(&paper::check_fig1_heatmap(&rows), "highly relevant chunks");
    }

    #[test]
    fn fig4_cocktail_always_below_fp16() {
        clean(paper::fig4_memory, |r| paper::check_fig4_memory(r));
    }

    #[test]
    fn fig5_cocktail_has_lowest_tpot() {
        clean(paper::fig5_tpot, |r| paper::check_fig5_tpot(r));
    }

    #[test]
    fn fig6_has_oom_points_and_crossover() {
        clean(paper::fig6_throughput, |r| paper::check_fig6_throughput(r));
    }

    #[test]
    fn ttft_prefix_reuse_reuses_every_follower_byte_identically() {
        // Byte-identity against the cold sequential reference is asserted
        // inside the run.
        let mut report = clean(serving::ttft_prefix_reuse, serving::check_ttft_prefix_reuse);
        let follower = report
            .rows
            .iter_mut()
            .find(|r| !r.cold)
            .expect("a follower");
        follower.prefix_reused_tokens = 0;
        caught(&serving::check_ttft_prefix_reuse(&report), "reused only 0");
    }

    #[test]
    fn prefix_trie_dedup_shares_preambles_and_evicts_partially() {
        let mut report = clean(serving::prefix_trie_dedup, serving::check_prefix_trie_dedup);
        report.byte_identical = false;
        caught(
            &serving::check_prefix_trie_dedup(&report),
            "diverged from trie-off",
        );
    }

    #[test]
    fn streaming_latency_streams_cancels_and_stays_in_budget() {
        // Byte-identity of survivors and cancelled-prefix identity are
        // asserted inside the run.
        let mut report = clean(serving::streaming_latency, serving::check_streaming_latency);
        report.budget_ok = false;
        caught(&serving::check_streaming_latency(&report), "over the");
        let row = report
            .rows
            .iter_mut()
            .find(|r| r.generated_tokens >= 2)
            .expect("a request that streamed two tokens");
        row.finished_step = row.first_token_step;
        caught(
            &serving::check_streaming_latency(&report),
            "not strictly before it finished",
        );
    }

    #[test]
    fn replica_affinity_routes_reuse_and_leaves_no_cross_replica_leaks() {
        let mut report = clean(fleet::replica_affinity, fleet::check_replica_affinity);
        report.storm_leaks[0].leaked_kv_bytes = 1;
        caught(
            &fleet::check_replica_affinity(&report),
            "still holds 1 request-owned KV bytes",
        );
        report.affinity_replica_requests[1] = 0;
        caught(
            &fleet::check_replica_affinity(&report),
            "replica 1 admitted 0",
        );
    }
}
