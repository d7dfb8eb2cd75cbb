//! The experiment registry: every table and figure of the paper, the kernel
//! record and every serving experiment is one [`Experiment`] entry of
//! [`EXPERIMENTS`].
//!
//! An experiment is two functions kept side by side in one of the family
//! modules: `x(repetitions) -> (note, Report)` measures, prints a
//! human-readable table and returns its typed report, and
//! `check_x(&Report) -> Vec<Finding>` is the single home of its invariants.
//! The registry erases the report type into an [`Outcome`] — the rendered
//! `results/<id>.json` record plus the findings — so one binary
//! (`experiment`) runs any subset, writes the records, prints the findings
//! and sets the exit code, and the tier-1 tests below assert on the same
//! `check` the binary reports from.

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
use std::time::Instant;

/// How a [`Finding`] is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// An invariant that holds on every host and in every build profile:
    /// byte identity, leak and reuse counters, analytic orderings. Reported
    /// as `FAIL`; the tier-1 tests assert there is none.
    Deterministic,
    /// A wall-clock bound whose margin is wide enough to enforce in a
    /// release build (warm < cold TTFT, the fleet scaling band, the
    /// kernels' parallel-vs-scalar band). Reported as `FAIL` by the runner;
    /// the debug tier-1 tests do not assert it.
    WallClock,
    /// An ordering of two single-run timings at the noise floor. Still
    /// measured and printed, but reported as `WARN` and never fails a run:
    /// each `check` names the benchmark metric that judges it under the
    /// paired rule, or says that none does.
    Warn,
}

/// One violated invariant of an experiment, as reported by its `check`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// How the finding is judged.
    pub kind: Kind,
    /// What was violated, with the numbers that show it.
    pub message: String,
}

impl Finding {
    /// Whether the finding fails the run (everything but [`Kind::Warn`]).
    pub fn fails(&self) -> bool {
        self.kind != Kind::Warn
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let level = if self.fails() { "FAIL" } else { "WARN" };
        write!(f, "{level}: {}", self.message)
    }
}

/// Collects the findings of one `check`: each method records its message
/// when the invariant does *not* hold.
#[derive(Default)]
struct Findings(Vec<Finding>);

impl Findings {
    fn require(&mut self, kind: Kind, holds: bool, message: impl Into<String>) {
        if !holds {
            self.0.push(Finding {
                kind,
                message: message.into(),
            });
        }
    }

    fn deterministic(&mut self, holds: bool, message: impl Into<String>) {
        self.require(Kind::Deterministic, holds, message);
    }

    fn wall_clock(&mut self, holds: bool, message: impl Into<String>) {
        self.require(Kind::WallClock, holds, message);
    }

    fn warn(&mut self, holds: bool, message: impl Into<String>) {
        self.require(Kind::Warn, holds, message);
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
    /// Whether the record is committed and gated. `true` means its bytes
    /// are the same on every host and run (analytic hardware model, seeded
    /// encoders and tasks, kernel output fingerprints), so
    /// `results/<id>.json` is in git — the committed record is the
    /// reference — and CI's stale guard fails when a rerun changes a byte
    /// of it. `false` keeps the record out of git: timing-based records
    /// carry machine-dependent absolute numbers, and the two timing-free
    /// serving records (`prefix_trie_dedup`, `chat_multiturn`) carry
    /// absolute byte and token counts that follow the model profile and
    /// the traffic shape. For those the relative claims are what matter,
    /// and `check` enforces them on every run instead.
    pub deterministic: bool,
    /// Timing repetitions the runner passes to `run` (best-of-N); 1 for
    /// experiments that time nothing.
    pub default_reps: usize,
    /// Runs the experiment at the given repetitions, prints its table and
    /// returns the record and the findings. Writes nothing.
    pub run: fn(usize) -> Outcome,
}

/// Builds a registry entry from an experiment's typed `run` and `check`.
macro_rules! experiment {
    ($id:literal, $title:literal, $deterministic:literal, $reps:literal, $run:path, $check:path) => {
        Experiment {
            id: $id,
            title: $title,
            deterministic: $deterministic,
            default_reps: $reps,
            run: |repetitions| {
                let (note, report) = $run(repetitions);
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
        true,
        1,
        paper::fig1_heatmap,
        paper::check_fig1_heatmap
    ),
    experiment!(
        "table2_accuracy",
        "Table II: accuracy comparison of KV cache quantization methods",
        true,
        1,
        paper::table2_accuracy,
        paper::check_table2_accuracy
    ),
    experiment!(
        "table3_chunk_size",
        "Table III: the impact of different chunk size on model performance",
        true,
        1,
        paper::table3_chunk_size,
        paper::check_table3_chunk_size
    ),
    experiment!(
        "table4_encoders",
        "Table IV: performance comparison of different context and query encoders",
        true,
        1,
        paper::table4_encoders,
        paper::check_table4_encoders
    ),
    experiment!(
        "table5_ablation",
        "Table V: ablation of the two Cocktail modules",
        true,
        1,
        paper::table5_ablation,
        paper::check_table5_ablation
    ),
    experiment!(
        "fig4_memory",
        "Figure 4: GPU memory of different models",
        true,
        1,
        paper::fig4_memory,
        paper::check_fig4_memory
    ),
    experiment!(
        "fig5_tpot",
        "Figure 5: time per output token (TPOT) of different models",
        true,
        1,
        paper::fig5_tpot,
        paper::check_fig5_tpot
    ),
    experiment!(
        "fig6_throughput",
        "Figure 6: throughput of different methods with different batch sizes",
        true,
        1,
        paper::fig6_throughput,
        paper::check_fig6_throughput
    ),
    experiment!(
        "fig7_alpha_beta",
        "Figure 7: the impact of alpha and beta on model performance",
        true,
        1,
        paper::fig7_alpha_beta,
        paper::check_fig7_alpha_beta
    ),
    experiment!(
        "kernels",
        "Hot-kernel shapes, tile layouts and output fingerprints",
        true,
        5,
        kernels::kernels,
        kernels::check_kernels
    ),
    experiment!(
        "serving_throughput",
        "Serving throughput: continuous batching vs sequential single-request runs",
        false,
        3,
        serving::serving_throughput,
        serving::check_serving_throughput
    ),
    experiment!(
        "ttft_prefix_reuse",
        "TTFT under shared-prefix traffic: prefix-cache reuse vs cold prefill",
        false,
        3,
        serving::ttft_prefix_reuse,
        serving::check_ttft_prefix_reuse
    ),
    experiment!(
        "streaming_latency",
        "Streaming latency: per-token delivery and client cancellations under budget",
        false,
        3,
        serving::streaming_latency,
        serving::check_streaming_latency
    ),
    experiment!(
        "prefix_trie_dedup",
        "Prefix-trie dedup: divergent branches share their preamble blocks once",
        false,
        1,
        serving::prefix_trie_dedup,
        serving::check_prefix_trie_dedup
    ),
    experiment!(
        "gateway_saturation",
        "Gateway saturation: HTTP/SSE serving overhead and disconnect-storm hygiene",
        false,
        2,
        fleet::gateway_saturation,
        fleet::check_gateway_saturation
    ),
    experiment!(
        "replica_affinity",
        "Replica affinity: fleet-wide prefix reuse via consistent-hash routing",
        false,
        2,
        fleet::replica_affinity,
        fleet::check_replica_affinity
    ),
    experiment!(
        "kernel_scaling",
        "Prefill throughput with scalar vs data-parallel hot kernels",
        false,
        5,
        serving::kernel_scaling,
        serving::check_kernel_scaling
    ),
    experiment!(
        "snapshot_warm_restart",
        "KV snapshot warm restart: persist the prefix trie, restart, serve warm",
        false,
        3,
        serving::snapshot_warm_restart,
        serving::check_snapshot_warm_restart
    ),
    experiment!(
        "chat_multiturn",
        "Multi-turn chat: prefix reuse, sampled replay across restarts, greedy identity",
        false,
        1,
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
    let mut out = String::from("| experiment | record | reps | title |\n|---|---|---|---|\n");
    for e in EXPERIMENTS {
        let record = if e.deterministic {
            "committed, gated"
        } else {
            "untracked"
        };
        out.push_str(&format!(
            "| `{}` | {record} | {} | {} |\n",
            e.id, e.default_reps, e.title
        ));
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

/// The window from the first to the last token observation: steady-state
/// tokens/s, so ramp-up (connection setup, prefill) does not skew a rate.
#[derive(Debug, Clone, Copy, Default)]
struct TokenWindow {
    first: Option<Instant>,
    last: Option<Instant>,
    tokens: usize,
}

impl TokenWindow {
    fn observe(&mut self, now: Instant) {
        self.first.get_or_insert(now);
        self.last = Some(now);
        self.tokens += 1;
    }

    fn merge(&mut self, other: TokenWindow) {
        self.first = self.first.into_iter().chain(other.first).min();
        self.last = self.last.into_iter().chain(other.last).max();
        self.tokens += other.tokens;
    }

    fn tokens_per_s(&self) -> f64 {
        let window = self.last.zip(self.first);
        let seconds = window.map_or(0.0, |(last, first)| (last - first).as_secs_f64());
        self.tokens as f64 / seconds.max(1e-9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results_dir;
    use std::collections::HashSet;
    use std::fs;

    /// Runs an experiment body (nothing is written: only the `experiment`
    /// binary writes records) and asserts that its `check` reports no
    /// deterministic finding, failing with the lines the runner would
    /// print. Wall-clock findings are left to the release-mode runner:
    /// debug timings on a loaded host are too noisy to gate tier-1 on.
    fn clean<R>(
        run: fn(usize) -> (String, R),
        check: impl Fn(&R) -> Vec<Finding>,
        repetitions: usize,
    ) -> R {
        let (_, report) = run(repetitions);
        let broken: Vec<String> = check(&report)
            .iter()
            .filter(|f| f.kind == Kind::Deterministic)
            .map(Finding::to_string)
            .collect();
        assert!(broken.is_empty(), "{}", broken.join("\n"));
        report
    }

    /// Asserts that a `check` fed a hand-broken report fails with a message
    /// containing `needle` — so an invariant cannot be dropped silently.
    fn caught(findings: &[Finding], needle: &str) {
        assert!(
            findings
                .iter()
                .any(|f| f.kind == Kind::Deterministic && f.message.contains(needle)),
            "no deterministic finding mentions `{needle}`: {findings:?}"
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
            assert!(e.default_reps >= 1, "{} runs zero repetitions", e.id);
            assert_eq!(find(e.id).map(|found| found.id), Some(e.id));
        }
        assert!(find("no_such_experiment").is_none());
    }

    /// The committed record is the baseline: every deterministic id has
    /// one, and `.gitignore` lets exactly those records into git — so a
    /// record left behind after its experiment stops writing it fails here,
    /// where CI's stale guard cannot see it.
    #[test]
    fn deterministic_records_are_committed_with_a_baseline() {
        let records: HashSet<String> = EXPERIMENTS
            .iter()
            .filter(|e| e.deterministic)
            .map(|e| format!("{}.json", e.id))
            .collect();
        for record in &records {
            let path = results_dir().join(record);
            assert!(path.is_file(), "{} is missing", path.display());
        }
        let gitignore = results_dir().with_file_name(".gitignore");
        let gitignore = fs::read_to_string(gitignore).expect(".gitignore is readable");
        let committed: HashSet<String> = gitignore
            .lines()
            .filter_map(|line| line.strip_prefix("!/results/"))
            .map(str::to_string)
            .collect();
        assert_eq!(
            committed, records,
            "the `!/results/...` lines of .gitignore must name exactly the deterministic records"
        );
    }

    #[test]
    fn kernels_record_matches_the_committed_one() {
        let entry = find("kernels").expect("kernels is registered");
        let outcome = (entry.run)(1);
        let committed = fs::read_to_string(results_dir().join("kernels.json"))
            .expect("results/kernels.json is committed");
        assert!(
            outcome.record == committed,
            "the kernel record drifted from results/kernels.json: rerun `experiment kernels`, \
             inspect the diff, commit it"
        );
        let broken: Vec<String> = outcome
            .findings
            .iter()
            .filter(|f| f.kind == Kind::Deterministic)
            .map(Finding::to_string)
            .collect();
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
    fn noise_floor_orderings_warn_and_identity_fails() {
        let mut report = serving::KernelScalingReport {
            prompt_tokens: 384,
            score_work: 2_000_000,
            parallel_threshold: 1_000_000,
            parallel_threads: 2,
            host_cores: 2,
            scalar_tokens_per_s: 1000.0,
            parallel_tokens_per_s: 900.0,
            speedup: 0.9,
            bit_identical: true,
            engine_pool_spawns_flat: true,
            kernel_pool_spawns_flat: true,
        };
        let findings = serving::check_kernel_scaling(&report);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(!findings[0].fails() && findings[0].to_string().starts_with("WARN: "));
        report.bit_identical = false;
        caught(&serving::check_kernel_scaling(&report), "outputs diverged");
    }

    #[test]
    fn chat_multiturn_holds_its_invariants() {
        let mut report = clean(serving::chat_multiturn, serving::check_chat_multiturn, 1);
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
            1,
        );
        report.roundtrip_byte_identical = false;
        caught(
            &serving::check_snapshot_warm_restart(&report),
            "did not reproduce the bytes",
        );
    }

    #[test]
    fn fig1_most_chunks_are_irrelevant() {
        let mut rows = clean(paper::fig1_heatmap, |r| paper::check_fig1_heatmap(r), 1);
        rows[0].highly_relevant_fraction = 0.5;
        caught(&paper::check_fig1_heatmap(&rows), "highly relevant chunks");
    }

    #[test]
    fn fig4_cocktail_always_below_fp16() {
        clean(paper::fig4_memory, |r| paper::check_fig4_memory(r), 1);
    }

    #[test]
    fn fig5_cocktail_has_lowest_tpot() {
        clean(paper::fig5_tpot, |r| paper::check_fig5_tpot(r), 1);
    }

    #[test]
    fn fig6_has_oom_points_and_crossover() {
        clean(
            paper::fig6_throughput,
            |r| paper::check_fig6_throughput(r),
            1,
        );
    }

    #[test]
    fn serving_throughput_batched_meets_or_beats_sequential() {
        // Two repetitions keep the tier-1 suite fast.
        let mut report = clean(
            serving::serving_throughput,
            serving::check_serving_throughput,
            2,
        );
        // The measured ordering is a WARN, never a failure ...
        for row in &mut report.rows {
            row.batched_tokens_per_s = 0.5 * row.sequential_tokens_per_s;
        }
        let findings = serving::check_serving_throughput(&report);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().all(|f| f.kind == Kind::Warn));
        // ... the analytic prediction is deterministic and enforced.
        report.rows[1].hwsim_speedup_vs_batch1 = Some(1.0);
        caught(
            &serving::check_serving_throughput(&report),
            "no batching gain",
        );
    }

    #[test]
    fn ttft_prefix_reuse_reuses_every_follower_byte_identically() {
        // Byte-identity against the cold sequential reference is asserted
        // inside the run.
        let mut report = clean(
            serving::ttft_prefix_reuse,
            serving::check_ttft_prefix_reuse,
            1,
        );
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
        let mut report = clean(
            serving::prefix_trie_dedup,
            serving::check_prefix_trie_dedup,
            1,
        );
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
        let mut report = clean(
            serving::streaming_latency,
            serving::check_streaming_latency,
            1,
        );
        report.budget_ok = false;
        caught(&serving::check_streaming_latency(&report), "over the");
    }

    #[test]
    fn replica_affinity_routes_reuse_and_leaves_no_cross_replica_leaks() {
        let mut report = clean(fleet::replica_affinity, fleet::check_replica_affinity, 1);
        report.storm_leaks[0].leaked_kv_bytes = 1;
        caught(
            &fleet::check_replica_affinity(&report),
            "still holds 1 request-owned KV bytes",
        );
    }
}
