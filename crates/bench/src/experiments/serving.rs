//! The in-process serving experiments: prefix reuse, streaming with
//! cancellations, trie dedup, snapshot warm restart and multi-turn chat.

use super::{
    burst_traffic, cached_engine, engine, pipeline, profile, same_answers, serve_all,
    serve_request, solo_runs, Finding, Findings,
};
use crate::{print_fields, print_rows};
use cocktail_core::{
    CocktailConfig, PrefixCacheConfig, PrefixCacheStats, RequestId, RequestOutcome, SamplingParams,
    SchedulerConfig, ServeRequest, ServingEngine,
};
use cocktail_workloads::{TrafficConfig, TrafficGenerator, TrafficRequest};
use serde::Serialize;

// ---------------------------------------------------------------------------
// Prefix reuse — shared-prefix traffic through the prefix cache
// ---------------------------------------------------------------------------

/// One request of the prefix-reuse experiment.
#[derive(Debug, Clone, Serialize)]
pub(super) struct TtftPrefixReuseRow {
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
}

/// Full payload of the prefix-reuse record.
#[derive(Debug, Clone, Serialize)]
pub(super) struct TtftPrefixReuseReport {
    /// Number of shared-prefix groups in the traffic.
    pub groups: usize,
    /// Requests per group (>= 2, so every group has a reuse opportunity).
    pub requests_per_group: usize,
    /// Per-request rows in submission order.
    pub rows: Vec<TtftPrefixReuseRow>,
    /// Prefix-cache counters at the end of the run.
    pub prefix_cache: PrefixCacheStats,
}

/// Words in each group's shared preamble, in the prefix-reuse and the
/// warm-restart traces.
const PREAMBLE_WORDS: usize = 192;

/// Shared-prefix traffic through the prefix cache: N groups of requests
/// share a long context preamble; the first request of each group prefills
/// it cold, every later one resumes from the prefix cache and prefills
/// only its own suffix — the cause of its lower time to first token, which
/// the benchmark's `chat_shared` workload measures — while its answer stays
/// byte-identical to a cold run (asserted against sequential
/// `CocktailPipeline` outcomes).
///
/// # Panics
///
/// Panics if serving fails or any answer diverges from the cold reference.
pub(super) fn ttft_prefix_reuse() -> (String, TtftPrefixReuseReport) {
    let groups = 3usize;
    let requests_per_group = 3usize;
    let requests = groups * requests_per_group;
    // Long shared preambles with short per-request tails: the shared part
    // dominates prefill cost, as with a real system prompt or shared
    // document.
    let config = burst_traffic(requests, 4, 48).with_shared_prefix(groups, PREAMBLE_WORDS);
    let traffic = TrafficGenerator::new(config, 0x77F7_0001).generate();
    let reference = solo_runs(&pipeline(), &traffic);

    let mut engine = cached_engine();
    let outcomes = serve_all(&mut engine, &traffic);
    assert!(
        same_answers(&outcomes, reference.iter()),
        "prefix reuse must be byte-identical to a cold full prefill"
    );
    let rows: Vec<TtftPrefixReuseRow> = traffic
        .iter()
        .zip(&outcomes)
        .enumerate()
        .map(|(i, (request, outcome))| TtftPrefixReuseRow {
            request: i,
            group: request.prefix_group.expect("shared-prefix mode is on"),
            cold: outcome.stats.prefix_reused_tokens == 0,
            context_tokens: outcome.stats.context_tokens,
            prefix_reused_tokens: outcome.stats.prefix_reused_tokens,
        })
        .collect();

    let report = TtftPrefixReuseReport {
        groups,
        requests_per_group,
        rows,
        prefix_cache: engine
            .prefix_cache_stats()
            .expect("the prefix cache is enabled"),
    };
    print_rows(
        "Shared-prefix reuse (Llama2-7B sim, 3 groups x 3 requests)",
        &report.rows,
    );
    print_fields("Shared-prefix reuse: prefix-cache counters", &report);
    let note = format!(
        "{groups} groups x {requests_per_group} requests sharing a {PREAMBLE_WORDS}-word \
         preamble on the Llama2-7B sim profile; every follower must resume from at least the \
         preamble, and warm answers are asserted byte-identical to cold sequential runs"
    );
    (note, report)
}

/// What every shared-prefix trace must show, from `(request, group, cold,
/// prefix_reused_tokens)` rows: each group has exactly one cold leader and
/// at least one follower, and every follower reuses at least the preamble.
fn check_prefix_groups(
    findings: &mut Findings,
    groups: usize,
    preamble_words: usize,
    rows: impl Iterator<Item = (usize, usize, bool, usize)> + Clone,
) {
    for group in 0..groups {
        let of_group = || rows.clone().filter(|row| row.1 == group);
        findings.require(
            of_group().filter(|row| row.2).count() == 1,
            format!("prefix group {group} does not have exactly one cold leader"),
        );
        findings.require(
            of_group().any(|row| !row.2),
            format!("prefix group {group} never reused its cached preamble"),
        );
    }
    for (request, _, _, reused) in rows.filter(|row| !row.2) {
        findings.require(
            reused >= preamble_words,
            format!(
                "request {request} reused only {reused} tokens of its {preamble_words}-word \
                 shared preamble"
            ),
        );
    }
}

/// Prefix reuse's invariants. Byte identity against the cold sequential
/// reference is asserted inside the run.
pub(super) fn check_ttft_prefix_reuse(report: &TtftPrefixReuseReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        report.requests_per_group >= 2,
        format!(
            "the experiment must run >= 2 requests per prefix group, got {}",
            report.requests_per_group
        ),
    );
    findings.require(
        report.rows.len() == report.groups * report.requests_per_group,
        format!(
            "{} request rows, expected groups x requests",
            report.rows.len()
        ),
    );
    let rows = report.rows.iter();
    check_prefix_groups(
        &mut findings,
        report.groups,
        PREAMBLE_WORDS,
        rows.map(|r| (r.request, r.group, r.cold, r.prefix_reused_tokens)),
    );
    let followers = report.rows.len().saturating_sub(report.groups) as u64;
    findings.require(
        report.prefix_cache.hits >= followers,
        format!(
            "the prefix cache counted {} hits for {followers} followers",
            report.prefix_cache.hits
        ),
    );
    findings.0
}

// ---------------------------------------------------------------------------
// Streaming — per-token streaming with client-side cancellations
// ---------------------------------------------------------------------------

/// One request of the streaming experiment.
#[derive(Debug, Clone, Serialize)]
pub(super) struct StreamingLatencyRow {
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
}

/// Full payload of the streaming record.
#[derive(Debug, Clone, Serialize)]
pub(super) struct StreamingLatencyReport {
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
}

/// Streaming under cancelling traffic: mixed-family requests are served
/// through [`ServingEngine::step_events`] with per-token streaming; a
/// deterministic subset of clients disconnects mid-decode, upon which the
/// driver calls [`ServingEngine::cancel`] — freeing the request's KV budget
/// immediately. Recorded per request: the engine step of the *first*
/// streamed token against the step it finished at, the gap streaming
/// exists to exploit. Byte-identity is asserted throughout: every
/// survivor's concatenated pieces equal its own solo sequential pipeline
/// run, and every cancelled request's streamed text is a byte prefix of
/// its solo run.
///
/// # Panics
///
/// Panics on any serving failure or byte divergence (see above).
pub(super) fn streaming_latency() -> (String, StreamingLatencyReport) {
    let requests = 6usize;
    let max_new_tokens = 24usize;
    let config = burst_traffic(requests, max_new_tokens, 96).with_cancellations(400);
    let traffic = TrafficGenerator::new(config, 0x573E_AA11).generate();
    let pipeline = pipeline();
    let solo = solo_runs(&pipeline, &traffic);

    // Budget for roughly three concurrent requests, so streaming runs under
    // real admission pressure and the invariant is exercised.
    let tail = (max_new_tokens - 1) * profile().sim().kv_bytes_per_token_fp16();
    let budget = solo
        .iter()
        .map(|o| o.cache_bytes + tail)
        .max()
        .expect("at least one request")
        * 3;

    let mut engine = engine().with_scheduler_config(SchedulerConfig::default().with_budget(budget));
    let ids: Vec<RequestId> = traffic
        .iter()
        .map(|r| engine.submit(serve_request(r)))
        .collect();
    let index_of = |id: RequestId| ids.iter().position(|&i| i == id).expect("known id");

    let mut streamed: Vec<String> = vec![String::new(); requests];
    let mut cancelled = vec![false; requests];
    let mut max_kv_bytes_in_use = 0usize;
    while !engine.is_idle() {
        let events = engine.step_events().expect("streaming serving succeeds");
        for event in &events {
            streamed[index_of(event.id)].push_str(&event.piece);
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
                }
            }
        }
        max_kv_bytes_in_use = max_kv_bytes_in_use.max(engine.kv_bytes_in_use());
    }

    let mut rows = Vec::with_capacity(requests);
    for (i, (id, request)) in ids.iter().zip(&traffic).enumerate() {
        let stats = if cancelled[i] {
            assert!(
                solo[i].answer.starts_with(&streamed[i]),
                "request {i}: cancelled stream diverged from its solo run"
            );
            engine.take_cancelled(*id).expect("cancelled stats")
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
            outcome.stats
        };
        rows.push(StreamingLatencyRow {
            request: i,
            max_new_tokens: request.max_new_tokens,
            generated_tokens: stats.generated_tokens,
            cancelled: stats.cancelled,
            cancel_after_tokens: request.cancel_after_tokens,
            first_token_step: stats.first_token_step,
            finished_step: stats.finished_step,
        });
    }

    let report = StreamingLatencyReport {
        requests,
        budget_bytes: budget,
        max_kv_bytes_in_use,
        budget_ok: max_kv_bytes_in_use <= budget,
        rows,
    };
    print_rows(
        "Streaming: first-token step vs finish step under cancelling traffic (Llama2-7B sim)",
        &report.rows,
    );
    print_fields("Streaming: KV budget", &report);
    let note = format!(
        "{requests} mixed-family requests ({max_new_tokens} token budget each, 400/1000 \
         client disconnect rate) on the Llama2-7B sim profile; survivors asserted \
         byte-identical to solo sequential runs, cancelled streams asserted to be byte \
         prefixes of theirs"
    );
    (note, report)
}

/// Streaming's invariants. Byte identity of survivors and cancelled
/// prefixes against solo runs is asserted inside the run.
pub(super) fn check_streaming_latency(report: &StreamingLatencyReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        report.rows.len() == report.requests,
        format!(
            "{} request rows, expected {}",
            report.rows.len(),
            report.requests
        ),
    );
    findings.require(
        report.rows.iter().any(|r| r.cancelled) && report.rows.iter().any(|r| !r.cancelled),
        "the traffic must mix cancelled and surviving requests",
    );
    for row in &report.rows {
        findings.require(
            row.first_token_step.is_some() && row.finished_step.is_some(),
            format!(
                "request {} never streamed a first token or never finished",
                row.request
            ),
        );
        if row.cancelled {
            findings.require(
                Some(row.generated_tokens) == row.cancel_after_tokens
                    && row.generated_tokens < row.max_new_tokens,
                format!(
                    "cancelled request {} decoded {} of {} tokens (disconnect point {:?}) — \
                     cancellation saved nothing",
                    row.request, row.generated_tokens, row.max_new_tokens, row.cancel_after_tokens
                ),
            );
        } else {
            findings.require(
                row.generated_tokens == row.max_new_tokens,
                format!(
                    "surviving request {} decoded {} of {} tokens",
                    row.request, row.generated_tokens, row.max_new_tokens
                ),
            );
        }
        // A request that decodes a second token streams its first one at
        // least a step before it finishes: the gap streaming exists for.
        let steps = (row.first_token_step, row.finished_step);
        findings.require(
            row.generated_tokens < 2
                || matches!(steps, (Some(first), Some(finished)) if first < finished),
            format!(
                "request {} streamed its first token at step {:?}, not strictly before it \
                 finished at step {:?}",
                row.request, row.first_token_step, row.finished_step
            ),
        );
    }
    findings.require(
        report.budget_ok,
        format!(
            "KV usage peaked at {} bytes over the {}-byte budget",
            report.max_kv_bytes_in_use, report.budget_bytes
        ),
    );
    findings.0
}

// ---------------------------------------------------------------------------
// Prefix-trie dedup — branching traffic through the token-trie prefix cache
// ---------------------------------------------------------------------------

/// One request of the prefix-trie dedup experiment.
#[derive(Debug, Clone, Serialize)]
pub(super) struct PrefixTrieDedupRow {
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
pub(super) struct PrefixTrieDedupReport {
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
pub(super) fn prefix_trie_dedup() -> (String, PrefixTrieDedupReport) {
    let groups = 2usize;
    let requests_per_group = 3usize;
    let requests = groups * requests_per_group;
    let preamble_words = 96usize;
    let max_new_tokens = 4usize;
    // Long shared preambles, short divergent branches and tails: the
    // preamble dominates storage, so deduplication is the whole game.
    let config = burst_traffic(requests, max_new_tokens, 32).with_branching_prefix(
        groups,
        preamble_words,
        12,
    );
    let traffic = TrafficGenerator::new(config, 0x7B1E_0005).generate();

    // Trie-off baseline: same traffic, no prefix cache.
    let mut baseline_engine = engine();
    let baseline = serve_all(&mut baseline_engine, &traffic);

    let assert_identical = |outcomes: &[RequestOutcome], phase: &str| {
        assert!(
            same_answers(outcomes, baseline.iter().map(|off| &off.outcome)),
            "{phase}: trie-on serving must be byte-identical to trie-off"
        );
    };

    // Phase 1 — dedup under an unlimited budget.
    let mut dedup_engine = cached_engine();
    let dedup_outcomes = serve_all(&mut dedup_engine, &traffic);
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
    let mut pressure_engine = engine()
        .with_scheduler_config(SchedulerConfig::default().with_budget(pressure_budget_bytes))
        .with_prefix_cache(PrefixCacheConfig::default().with_max_entries(pressure_node_cap));
    let pressure_outcomes = serve_all(&mut pressure_engine, &traffic);
    assert_identical(&pressure_outcomes, "pressure phase");
    let pressure_stats = pressure_engine
        .prefix_cache_stats()
        .expect("the prefix cache is enabled");

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
    print_rows(
        "Prefix-trie dedup: branching traffic (Llama2-7B sim, 2 groups x 3 branches)",
        &report.rows,
    );
    print_fields(
        "Prefix-trie dedup: resident bytes and trie counters",
        &report,
    );
    let note = format!(
        "{groups} groups x {requests_per_group} branching requests sharing a \
         {preamble_words}-word preamble on the Llama2-7B sim profile; trie-on answers \
         asserted byte-identical to trie-off serving in both phases; all numbers \
         deterministic (no wall-clock timing)"
    );
    (note, report)
}

/// Prefix-trie dedup's invariants; every number is deterministic.
pub(super) fn check_prefix_trie_dedup(report: &PrefixTrieDedupReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        report.byte_identical,
        "trie-on serving diverged from trie-off serving",
    );
    findings.require(
        report.requests_per_group >= 2,
        format!(
            "the experiment must run >= 2 branches per prefix group, got {}",
            report.requests_per_group
        ),
    );
    findings.require(
        report.rows.len() == report.groups * report.requests_per_group,
        format!(
            "{} request rows, expected groups x branches",
            report.rows.len()
        ),
    );
    findings.require(
        report.trie_resident_bytes < report.lcp_baseline_bytes,
        format!(
            "trie resident bytes ({}) are not strictly below the whole-sequence baseline \
             ({}) — branches did not share their preamble blocks",
            report.trie_resident_bytes, report.lcp_baseline_bytes
        ),
    );
    let rows = report.rows.iter();
    check_prefix_groups(
        &mut findings,
        report.groups,
        report.preamble_words,
        rows.map(|r| (r.request, r.group, r.cold, r.prefix_reused_tokens)),
    );
    findings.require(
        report.dedup_stats.node_splits >= report.groups as u64
            && report.dedup_stats.nodes > report.groups,
        format!(
            "{} node splits and {} nodes for {} branching groups — divergence points were \
             not shared structurally",
            report.dedup_stats.node_splits, report.dedup_stats.nodes, report.groups
        ),
    );
    findings.require(
        report.pressure_stats.partial_evictions > 0,
        format!(
            "budget pressure ({} bytes, {}-node cap) never evicted partially — the trie \
             dropped whole contexts instead of trimming leaf-ward",
            report.pressure_budget_bytes, report.pressure_node_cap
        ),
    );
    findings.0
}

// ---------------------------------------------------------------------------
// Snapshot warm restart — persist the trie, restart, serve warm immediately
// ---------------------------------------------------------------------------

/// Full payload of the snapshot warm-restart record.
#[derive(Debug, Clone, Serialize)]
pub(super) struct SnapshotWarmRestartReport {
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
    /// Every serve — pre-restart, post-restore, post-drill — matched the
    /// cold sequential pipeline reference byte for byte.
    pub byte_identical: bool,
    /// Prompt tokens each post-restart request served from the snapshot's
    /// trie instead of prefilling, in submission order.
    pub post_restart_reused_tokens: Vec<usize>,
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

/// The persistence drill behind warm restarts: six requests share a long
/// preamble; after three of them (the trace's
/// [`TrafficConfig::with_restart_point`] marker) the engine snapshots its
/// prefix trie and is torn down, a fresh engine restores the file, and the
/// remaining requests must serve byte-identically to a cold sequential
/// reference, each resuming from at least the preamble the restored trie
/// holds — the prefill a warm restart spares, and so the cause of its
/// lower TTFT. The same run exercises the disk cold tier (a two-node cap
/// demotes an evicted tail to the spill file and re-serving it repromotes
/// the KV bit-exactly) and the corruption drills (truncated, bit-flipped,
/// and wrong-fingerprint snapshots must degrade to clean cold starts, never
/// panic, and leave the engine serving).
///
/// # Panics
///
/// Panics if serving fails or the snapshot cannot be written.
pub(super) fn snapshot_warm_restart() -> (String, SnapshotWarmRestartReport) {
    let config = burst_traffic(6, 4, 48)
        .with_shared_prefix(1, PREAMBLE_WORDS)
        .with_restart_point(3);
    let traffic = TrafficGenerator::new(config, 0x5AFE_0001).generate();
    let restart_at = traffic
        .iter()
        .position(|r| r.restart_before)
        .expect("the restart marker is in range");

    // Cold sequential reference: the answers every serving variant below
    // must reproduce bit-exactly.
    let reference = solo_runs(&pipeline(), &traffic);

    let snap_path = std::env::temp_dir().join(format!(
        "cocktail_bench_{}_warm_restart.snap",
        std::process::id()
    ));
    // Interrupted run: build the trie, snapshot, "restart", restore.
    let mut interrupted = cached_engine();
    let pre = serve_all(&mut interrupted, &traffic[..restart_at]);
    let mut byte_identical = same_answers(&pre, reference[..restart_at].iter());
    let snapshot = interrupted
        .snapshot_to(&snap_path)
        .expect("snapshot writes");
    drop(interrupted);

    let mut warm_engine = cached_engine();
    let restore = warm_engine.restore_from(&snap_path);
    let post = &traffic[restart_at..];
    let outcomes = serve_all(&mut warm_engine, post);
    byte_identical &= same_answers(&outcomes, reference[restart_at..].iter());
    let post_restart_reused_tokens = outcomes
        .iter()
        .map(|o| o.stats.prefix_reused_tokens)
        .collect();

    // Snapshot -> restore -> snapshot reproduces the format byte for byte.
    let bytes = std::fs::read(&snap_path).expect("snapshot file is readable");
    let mut echo = cached_engine();
    let roundtrip = echo.restore_from_bytes(&bytes);
    let roundtrip_byte_identical = roundtrip.restored && echo.snapshot_bytes() == bytes;

    // Corruption drills: every unusable snapshot must degrade to a clean
    // cold start — restored == false with a reason, no panic, and the
    // engine still serves the reference answer afterwards.
    let drill = |mangled: Vec<u8>| -> bool {
        let mut engine = cached_engine();
        let report = engine.restore_from_bytes(&mangled);
        if report.restored || report.reason.is_none() {
            return false;
        }
        let outcomes = serve_all(&mut engine, &traffic[..1]);
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
        serve_all(&mut other, &traffic[..1]);
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
    let mut tiered = engine()
        .with_prefix_cache(PrefixCacheConfig::default().with_max_entries(2))
        .with_cold_tier(&spill_path)
        .expect("cold-tier spill path is creatable");
    let first = serve_all(&mut tiered, &traffic[..1]);
    serve_all(&mut tiered, &traffic[1..2]);
    let demotions = tiered
        .prefix_cache_stats()
        .expect("the prefix cache is enabled")
        .demotions;
    let again = serve_all(&mut tiered, &traffic[..1]);
    let repromotions = tiered
        .prefix_cache_stats()
        .expect("the prefix cache is enabled")
        .repromotions;
    let repromoted_reused_tokens = again[0].stats.prefix_reused_tokens;
    let repromoted_byte_identical = again[0].outcome.answer == first[0].outcome.answer
        && again[0].outcome.answer == reference[0].answer;
    std::fs::remove_file(&spill_path).ok();

    let report = SnapshotWarmRestartReport {
        pre_restart_requests: restart_at,
        post_restart_requests: post.len(),
        snapshot_bytes: snapshot.bytes,
        snapshot_nodes: snapshot.nodes,
        restored: restore.restored,
        restored_nodes: restore.nodes,
        byte_identical,
        post_restart_reused_tokens,
        roundtrip_byte_identical,
        demotions,
        repromotions,
        repromoted_reused_tokens,
        repromoted_byte_identical,
        truncated_cold_start,
        corrupted_cold_start,
        wrong_fingerprint_cold_start,
    };
    print_fields(
        "Snapshot warm restart (Llama2-7B sim, 6 shared-prefix requests, restart after 3)",
        &report,
    );
    let note = format!(
        "6 requests sharing a {PREAMBLE_WORDS}-word preamble on the Llama2-7B sim profile, \
         snapshot + restart after request 3 (the trace's restart marker); every post-restart \
         request must resume from at least the preamble; all answers asserted byte-identical \
         to cold sequential runs; includes cold-tier demote/repromote and \
         truncated/corrupted/wrong-fingerprint drills"
    );
    (note, report)
}

/// Snapshot warm restart's invariants.
pub(super) fn check_snapshot_warm_restart(report: &SnapshotWarmRestartReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.require(
        report.restored && report.restored_nodes == report.snapshot_nodes,
        format!(
            "restore kept {} trie nodes (restored: {}), the snapshot captured {}",
            report.restored_nodes, report.restored, report.snapshot_nodes
        ),
    );
    findings.require(
        report.byte_identical,
        "a served answer diverged from the cold sequential reference",
    );
    findings.require(
        report.post_restart_reused_tokens.len() == report.post_restart_requests,
        format!(
            "{} post-restart reuse counts for {} requests",
            report.post_restart_reused_tokens.len(),
            report.post_restart_requests
        ),
    );
    for (i, &reused) in report.post_restart_reused_tokens.iter().enumerate() {
        findings.require(
            reused >= PREAMBLE_WORDS,
            format!(
                "post-restart request {i} reused only {reused} tokens of the restored \
                 {PREAMBLE_WORDS}-word preamble"
            ),
        );
    }
    findings.require(
        report.roundtrip_byte_identical,
        "snapshot -> restore -> snapshot did not reproduce the bytes",
    );
    findings.require(
        report.demotions > 0 && report.repromotions > 0,
        format!(
            "the capped cold-tier engine demoted {} nodes to disk and repromoted {}",
            report.demotions, report.repromotions
        ),
    );
    findings.require(
        report.repromoted_reused_tokens > 0 && report.repromoted_byte_identical,
        format!(
            "the repromoted request reused {} prompt tokens; answer identical to its cold \
             first serve: {}",
            report.repromoted_reused_tokens, report.repromoted_byte_identical
        ),
    );
    for (degraded, what) in [
        (report.truncated_cold_start, "truncated"),
        (report.corrupted_cold_start, "bit-flipped"),
        (report.wrong_fingerprint_cold_start, "wrong-fingerprint"),
    ] {
        findings.require(
            degraded,
            format!("a {what} snapshot did not degrade to a clean cold start"),
        );
    }
    findings.0
}

// ---------------------------------------------------------------------------
// Multi-turn chat — prefix reuse, sampled replay across restarts, greedy
// byte-identity
// ---------------------------------------------------------------------------

/// Reuse measurement for one served chat turn.
#[derive(Debug, Clone, Serialize)]
pub(super) struct ChatTurnRow {
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
pub(super) struct ChatMultiturnReport {
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
pub(super) fn chat_multiturn() -> (String, ChatMultiturnReport) {
    let conversations = 2;
    let turns = 3;
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
        let reference = solo_runs(&pipeline(), trace);
        let mut greedy_engine = cached_engine();
        let greedy = serve_turns(&mut greedy_engine, trace, None);
        greedy_byte_identical &= same_answers(&greedy, reference.iter());
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
        let mut sampled_engine = cached_engine();
        let first = serve_turns(&mut sampled_engine, trace, Some(*base_seed));
        let snapshot = sampled_engine.snapshot_bytes();
        drop(sampled_engine);
        let mut restored_engine = cached_engine();
        let restore = restored_engine.restore_from_bytes(&snapshot);
        snapshot_restored &= restore.restored;
        let replay = serve_turns(&mut restored_engine, trace, Some(*base_seed));
        sampled_replay_identical &= same_answers(&replay, first.iter().map(|o| &o.outcome));
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
    print_rows(
        "Multi-turn chat (Llama2-7B sim, 2 conversations x 3 turns, plain + tool-loop)",
        &report.turn_rows,
    );
    print_fields("Multi-turn chat: reuse and identity", &report);
    let note = "2 conversations x 3 turns per trace (plain chat and agentic tool-call loop) \
           on the Llama2-7B sim profile; every turn >= 1 must reuse >= 90 % of its \
           transcript from the prefix trie, sampled conversations must replay \
           bit-identically on a snapshot-restored engine, and greedy requests must \
           match the solo sequential pipeline byte for byte"
        .to_string();
    (note, report)
}

/// Multi-turn chat's invariants; the drill is timing-free.
pub(super) fn check_chat_multiturn(report: &ChatMultiturnReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    // Two traces; one reuse row per turn >= 1 per conversation per trace.
    findings.require(
        report.requests == 2 * report.conversations * report.turns
            && report.turn_rows.len() == 2 * report.conversations * (report.turns - 1),
        format!(
            "{} requests and {} reuse rows for 2 traces of {} conversations x {} turns",
            report.requests,
            report.turn_rows.len(),
            report.conversations,
            report.turns
        ),
    );
    findings.require(
        report.reuse_ok && report.min_reuse_ratio >= 0.9,
        format!(
            "a turn >= 1 reused under 90% of its transcript from the prefix trie (min ratio \
             {:.3})",
            report.min_reuse_ratio
        ),
    );
    findings.require(
        report.snapshot_restored,
        "a snapshot did not restore onto the fresh engine",
    );
    findings.require(
        report.sampled_replay_identical,
        "a sampled conversation diverged when replayed on the snapshot-restored engine",
    );
    findings.require(
        report.greedy_byte_identical,
        "a greedy conversation diverged from the solo sequential pipeline",
    );
    findings.0
}
