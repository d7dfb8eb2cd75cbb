//! One workload's run: set-up (gateway or engine start, trace generation,
//! drift check, oracle pass) three times over, then either the timed
//! phase that yields the end-to-end metrics and the byte-for-byte check of
//! its first answers, or the traced run that yields the per-layer ones.

use crate::compose::Composer;
use crate::json::{self, Value};
use crate::load::{self, Aggregate, Phase, Sample};
use crate::probes::{self, Metric};
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads::{self, Request, Trace, Workload};
use cocktail_core::{CocktailConfig, CocktailPipeline, PrefixCacheConfig};
use cocktail_server::{GatewayConfig, GatewayServer};
use std::path::PathBuf;
use std::time::Instant;

/// The committed trace fingerprints.
const WORKLOADS_LOCK: &str = include_str!("../workloads.lock");

/// Times the set-up runs per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The nine end-to-end metrics, with unit — the order every record uses.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("tok_s", "1/s"),
    ("req_s", "1/s"),
    ("ttft_ms_p50", "ms"),
    ("ttft_ms_tail", "ms"),
    ("tpot_ms_p50", "ms"),
    ("tpot_ms_tail", "ms"),
    ("e2e_ms_p50", "ms"),
    ("kv_compression_x", "x"),
];

/// Measured, printed and recorded by every timed run (in `#detail`), but
/// part of no record a bound is applied to; see README "Noise".
pub const REPORT_ONLY: [(&str, &str); 1] = [("peak_rss_mb", "MB")];

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: u64,
}

/// The result of a run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured phase.
    pub attempted: usize,
    /// Operations that failed, were refused or came back malformed.
    pub failed: usize,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// The [`REPORT_ONLY`] metrics (none in a traced run).
    pub report_only: Vec<Metric>,
    /// Sample counts, tail percentiles and findings for the reports.
    pub detail: Value,
}

impl Outcome {
    /// The one-line record the run ends with.
    pub fn to_json(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    json::obj(vec![
                        ("value", json::num(m.value)),
                        ("unit", json::text(m.unit)),
                    ]),
                )
            })
            .collect();
        json::obj(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", json::int(self.attempted as u64)),
            ("failed", json::int(self.failed as u64)),
            ("metrics", Value::Object(metrics)),
        ])
    }
}

/// The directory the benchmark writes its records to.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// Peak resident set of this process (`VmHWM`), in MB.
fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the output oracle found: the set-up subsets and the verified start
/// of the timed phase, each replayed through `CocktailPipeline::run`.
#[derive(Debug, Default)]
struct OracleTally {
    requests: usize,
    mismatches: Vec<String>,
    fp16_bytes: usize,
    cache_bytes: usize,
}

impl OracleTally {
    /// Feeds a fresh `CocktailPipeline` first `warm` (requests the serving
    /// side answered earlier, already checked; they only put the tokenizer
    /// in the same interning state) and then `requests`, in order, and
    /// compares each answer with the served one, byte for byte.
    fn check(
        &mut self,
        workload: Workload,
        warm: &[Request],
        requests: &[Request],
        served: &[&Sample],
    ) {
        let pipeline = CocktailPipeline::new(workloads::profile(), CocktailConfig::default())
            .expect("benchmark pipeline configuration is valid");
        let run = |r: &Request| pipeline.run(&r.context, &r.query, r.max_new_tokens);
        for request in warm {
            if let Err(err) = run(request) {
                self.mismatches.push(format!("pipeline failed: {err}"));
            }
        }
        for (request, sample) in requests.iter().zip(served) {
            self.requests += 1;
            let reference = match run(request) {
                Ok(reference) => reference,
                Err(err) => {
                    self.mismatches.push(format!("pipeline failed: {err}"));
                    continue;
                }
            };
            self.fp16_bytes += reference.fp16_cache_bytes;
            self.cache_bytes += reference.cache_bytes;
            if let Some(failure) = &sample.failure {
                self.mismatches.push(format!(
                    "{} oracle request {} failed: {failure}",
                    workload.name(),
                    request.index
                ));
            } else if sample.answer != reference.answer {
                self.mismatches.push(format!(
                    "{} oracle request {}: served {:?}, pipeline {:?}",
                    workload.name(),
                    request.index,
                    sample.answer,
                    reference.answer
                ));
            }
        }
    }
}

/// The fixed sequential subset set-up `round` replays: small enough to run
/// three times inside every process, different each round so the three
/// together cover more inputs.
fn oracle_subset(workload: Workload, seed: u64, round: usize) -> Vec<Request> {
    let trace = workloads::oracle_trace(workload, seed);
    match workload {
        Workload::LongctxCold => vec![trace.requests[round % trace.requests.len()].clone()],
        // The first two turns of one conversation: a cold prefill, then a
        // prefix-resumed one.
        Workload::ChatShared => trace.units[round % trace.units.len()][..2]
            .iter()
            .map(|&i| trace.requests[i].clone())
            .collect(),
        Workload::ShortBurst => trace.requests[round * 40..(round + 1) * 40].to_vec(),
        // One long and three short contexts.
        Workload::AdmissionStorm => {
            let is_long = |r: &&Request| r.context.split_whitespace().count() > 1000;
            let long: Vec<&Request> = trace.requests.iter().filter(is_long).collect();
            let short: Vec<&Request> = trace.requests.iter().filter(|r| !is_long(r)).collect();
            let mut subset = vec![long[round % long.len()].clone()];
            subset.extend((0..3).map(|i| short[(3 * round + i) % short.len()].clone()));
            subset
        }
    }
}

/// What one full set-up leaves behind for the measured phase.
struct Ready {
    trace: Trace,
    /// The running gateway (gateway workloads only).
    server: Option<GatewayServer>,
    /// What the serving side kept by the measured phase has answered so
    /// far, in order (nothing for the storm, which measures a fresh engine).
    answered: Vec<Request>,
}

/// One full set-up: start the serving side, generate and fingerprint the
/// trace, replay the oracle subset through it and through the pipeline.
fn set_up(config: RunConfig, round: usize, tally: &mut OracleTally) -> Result<Ready, String> {
    let RunConfig {
        workload,
        seed,
        seconds,
    } = config;
    let trace = workloads::generate(workload, seed, seconds);
    workloads::check_drift(workload, seed, seconds, &trace, WORKLOADS_LOCK)?;
    let subset = oracle_subset(workload, seed, round);
    if workload == Workload::AdmissionStorm {
        // A fresh engine configured like the storm's, one request at a time.
        let mut engine = workloads::storm_engine();
        let served: Vec<Sample> = subset
            .iter()
            .map(|request| {
                let single = Trace {
                    requests: vec![Request {
                        arrival_step: 0,
                        ..request.clone()
                    }],
                    units: vec![vec![0]],
                };
                load::step_clocked_open_loop(&mut engine, &single)
                    .samples
                    .pop()
                    .unwrap_or_default()
            })
            .collect();
        tally.check(workload, &[], &subset, &served.iter().collect::<Vec<_>>());
        return Ok(Ready {
            trace,
            server: None,
            answered: Vec::new(),
        });
    }
    let server = GatewayServer::start(workloads::gateway_settings(), GatewayConfig::default())
        .map_err(|err| format!("gateway failed to start: {err}"))?;
    let served = load::sequential(server.addr(), &subset);
    tally.check(workload, &[], &subset, &served.iter().collect::<Vec<_>>());
    Ok(Ready {
        trace,
        server: Some(server),
        answered: subset,
    })
}

/// Runs the set-up [`SETUPS`] times, keeping the last one's serving side
/// for the measured phase. Returns it with the median wall time of a round.
fn set_up_repeatedly(config: RunConfig, tally: &mut OracleTally) -> Result<(Ready, f64), String> {
    let mut times = Vec::new();
    let mut ready = None;
    for round in 0..SETUPS {
        if let Some(Ready {
            server: Some(server),
            ..
        }) = ready.take()
        {
            server.shutdown();
        }
        let start = Instant::now();
        ready = Some(set_up(config, round, tally)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((
        ready.expect("at least one set-up ran"),
        stats::median(&times).expect("at least one set-up ran"),
    ))
}

/// The timed run: end-to-end metrics, tracing off.
pub fn run_timed(config: RunConfig) -> Result<Outcome, String> {
    let workload = config.workload;
    let mut tally = OracleTally::default();
    let (ready, setup_s) = set_up_repeatedly(config, &mut tally)?;
    let phase: Phase = match ready.server {
        Some(server) => {
            let seconds = config.seconds as f64;
            let phase = load::closed_loop(server.addr(), &ready.trace, workload.clients(), seconds);
            server.shutdown();
            phase
        }
        // The storm serves its whole (fixed) trace on a fresh engine.
        None => load::step_clocked_open_loop(&mut workloads::storm_engine(), &ready.trace),
    };
    // Report-only: glibc's per-thread malloc arenas make a process's
    // resident set depend on which thread happened to allocate what, and
    // the peak lands in one of several modes 15-25% apart from run to run
    // (README "Noise"), so no bound the contract allows can hold. Read
    // before the reference pipeline below adds its own allocations.
    let peak_rss_mb = vm_hwm_mb();
    let aggregate = load::aggregate(&phase, workload);

    // With the wall clock stopped, replay the start of the timed phase
    // through the reference pipeline. A run too slow to have served all of
    // it checks what it served (and says so in `verified_requests`).
    let verified: Vec<&Sample> = ready
        .trace
        .requests
        .iter()
        .take(workload.verified_requests())
        .map_while(|request| phase.samples.iter().find(|s| s.request == request.index))
        .collect();
    if !verified.is_empty() {
        tally.check(
            workload,
            &ready.answered,
            &ready.trace.requests[..verified.len()],
            &verified,
        );
    }
    let kv_compression_x = tally.fp16_bytes as f64 / tally.cache_bytes.max(1) as f64;
    let Aggregate {
        tok_s,
        req_s,
        ttft_ms_p50,
        ttft_ms_tail,
        tpot_ms_p50,
        tpot_ms_tail,
        e2e_ms_p50,
        ..
    } = aggregate;
    let values = [
        setup_s,
        tok_s,
        req_s,
        ttft_ms_p50,
        ttft_ms_tail,
        tpot_ms_p50,
        tpot_ms_tail,
        e2e_ms_p50,
        kv_compression_x,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    let failures: Vec<Value> = phase
        .samples
        .iter()
        .filter_map(|s| s.failure.as_deref())
        .take(5)
        .map(json::text)
        .collect();
    let supported = |samples: usize, fixed: u32, ladder: [f64; 5]| {
        json::obj(vec![
            (
                "ms_at_p50_p75_p90_p95_p99",
                Value::Array(ladder.into_iter().map(json::num).collect()),
            ),
            ("percentile", json::int(u64::from(fixed))),
            ("samples", json::int(samples as u64)),
            (
                "samples_beyond",
                json::int(stats::samples_beyond(samples, fixed) as u64),
            ),
            (
                "supported_percentile",
                json::int(u64::from(stats::supported_tail(samples))),
            ),
        ])
    };
    let detail = json::obj(vec![
        ("ops_attempted", json::int(aggregate.attempted as u64)),
        ("ops_failed", json::int(aggregate.failed as u64)),
        ("oracle_requests", json::int(tally.requests as u64)),
        ("verified_requests", json::int(verified.len() as u64)),
        (
            "oracle_mismatches",
            Value::Array(tally.mismatches.iter().map(json::text).collect()),
        ),
        ("first_failures", Value::Array(failures)),
        ("wall_s", json::num(phase.wall_s)),
        (REPORT_ONLY[0].0, json::num(peak_rss_mb)),
        ("trace_exhausted", Value::Bool(phase.exhausted)),
        (
            "ttft_tail",
            supported(
                aggregate.ttft_samples,
                workload.ttft_tail_percentile(),
                aggregate.ttft_ladder,
            ),
        ),
        (
            "tpot_tail",
            supported(
                aggregate.tpot_samples,
                workload.tpot_tail_percentile(),
                aggregate.tpot_ladder,
            ),
        ),
        (
            "counts",
            Value::Object(
                phase
                    .counts
                    .iter()
                    .map(|(k, v)| (k.to_string(), json::num(*v)))
                    .collect(),
            ),
        ),
    ]);
    Ok(Outcome {
        correct: tally.mismatches.is_empty() && aggregate.failed == 0 && aggregate.attempted > 0,
        attempted: aggregate.attempted.max(1),
        failed: aggregate.failed,
        metrics,
        report_only: vec![Metric {
            name: REPORT_ONLY[0].0.to_string(),
            value: peak_rss_mb,
            unit: REPORT_ONLY[0].1,
        }],
        detail,
    })
}

/// Share of a traced run spent composing the workload's own requests.
const COMPOSE_SHARE: f64 = 0.3;
/// Requests composed at most (tiny prompts would otherwise record tens of
/// thousands of spans).
const COMPOSE_LIMIT: usize = 240;

/// What composing a workload's requests three ways (traced layers,
/// untraced layers, the product's pipeline) found.
struct Composition {
    tracer: Tracer,
    requests: usize,
    mismatches: Vec<String>,
    traced_s: f64,
    untraced_s: f64,
    tokens: usize,
    /// Pipeline wall and composed-layer wall over cold requests only.
    cold_pipeline_s: f64,
    cold_layers_s: f64,
    cold_requests: usize,
    prompt_tokens: usize,
    reused_tokens: usize,
    later_turn_prompt_tokens: usize,
    later_turn_reused_tokens: usize,
}

fn compose_workload(config: RunConfig, trace: &Trace) -> Composition {
    let budget = COMPOSE_SHARE * config.seconds as f64;
    // About eight chat contexts of trie rows, as the gateway's budget.
    let trie_budget = 32 << 20;
    let prefix = PrefixCacheConfig::default().with_max_entries(256);
    let mut traced = Composer::new(workloads::profile(), prefix, trie_budget);
    let mut untraced = Composer::new(workloads::profile(), prefix, trie_budget);
    let pipeline = CocktailPipeline::new(workloads::profile(), CocktailConfig::default())
        .expect("benchmark pipeline configuration is valid");
    let mut off = Tracer::new(false);
    let mut result = Composition {
        tracer: Tracer::new(true),
        requests: 0,
        mismatches: Vec::new(),
        traced_s: 0.0,
        untraced_s: 0.0,
        tokens: 0,
        cold_pipeline_s: 0.0,
        cold_layers_s: 0.0,
        cold_requests: 0,
        prompt_tokens: 0,
        reused_tokens: 0,
        later_turn_prompt_tokens: 0,
        later_turn_reused_tokens: 0,
    };
    let start = Instant::now();
    'units: for unit in &trace.units {
        for (turn, &index) in unit.iter().enumerate() {
            // Always compose one whole unit; then stop at the budget.
            if result.requests >= unit.len()
                && (start.elapsed().as_secs_f64() >= budget || result.requests >= COMPOSE_LIMIT)
            {
                break 'units;
            }
            let request = &trace.requests[index];
            let id = result.requests;
            let spans_before = result.tracer.spans().len();

            // The three ways run back to back on the same input; rotating
            // which goes first keeps warm-cache order effects from
            // favouring one of them.
            let (mut composed, mut plain, mut reference) = (None, None, None);
            let mut pipeline_s = 0.0;
            for way in 0..3 {
                let t = Instant::now();
                match (way + id) % 3 {
                    0 => {
                        composed = Some(traced.run(&mut result.tracer, id, request));
                        result.traced_s += t.elapsed().as_secs_f64();
                    }
                    1 => {
                        plain = Some(untraced.run(&mut off, id, request));
                        result.untraced_s += t.elapsed().as_secs_f64();
                    }
                    _ => {
                        reference = Some(pipeline.run(
                            &request.context,
                            &request.query,
                            request.max_new_tokens,
                        ));
                        pipeline_s = t.elapsed().as_secs_f64();
                    }
                }
            }
            let (composed, plain, reference) = (
                composed.expect("ran above"),
                plain.expect("ran above"),
                reference.expect("ran above"),
            );

            result.requests += 1;
            result.tokens += composed.tokens;
            result.prompt_tokens += composed.prompt_tokens;
            result.reused_tokens += composed.reused_tokens;
            if turn > 0 {
                result.later_turn_prompt_tokens += composed.prompt_tokens;
                result.later_turn_reused_tokens += composed.reused_tokens;
            }
            if composed.reused_tokens == 0 {
                // The pipeline never streams, so the SSE encoding the
                // composed path adds is left out of the comparison.
                let spans = &result.tracer.spans()[spans_before..];
                let sse_ns: u64 = spans
                    .iter()
                    .filter(|s| s.name == "server.sse_encode")
                    .map(span::Span::duration_ns)
                    .sum();
                result.cold_layers_s += (spans[0].duration_ns() - sse_ns) as f64 / 1e9;
                result.cold_pipeline_s += pipeline_s;
                result.cold_requests += 1;
            }
            match reference {
                Ok(reference) => {
                    if composed.answer != reference.answer || plain.answer != reference.answer {
                        result.mismatches.push(format!(
                            "request {index}: composed {:?}, untraced {:?}, pipeline {:?}",
                            composed.answer, plain.answer, reference.answer
                        ));
                    } else if composed.cache_bytes != reference.cache_bytes {
                        result.mismatches.push(format!(
                            "request {index}: composed cache {} B, pipeline {} B",
                            composed.cache_bytes, reference.cache_bytes
                        ));
                    }
                }
                Err(err) => result
                    .mismatches
                    .push(format!("request {index}: pipeline failed: {err}")),
            }
        }
    }
    result
}

/// Which share bucket a span's self time falls into.
fn share_bucket(name: &str) -> &'static str {
    match name {
        "model.tokenize" => "tokenize",
        "model.prefill" => "prefill",
        "core.search" => "search",
        "kvcache.build" | "core.reorder_quantize" => "compress",
        "model.decode_step" => "decode",
        _ => "other",
    }
}

/// The traced run: per-layer metrics. Composes the workload's own
/// requests from the layers with spans on, then runs the fixed probes.
pub fn run_traced(config: RunConfig) -> Result<Outcome, String> {
    let workload = config.workload;
    let trace = workloads::generate(workload, config.seed, config.seconds);
    workloads::check_drift(
        workload,
        config.seed,
        config.seconds,
        &trace,
        WORKLOADS_LOCK,
    )?;
    let composition = compose_workload(config, &trace);
    let spans = composition.tracer.spans();
    let by_name = span::self_time_by_name(spans);
    let counts = span::span_count_by_name(spans);
    let root_ns = span::root_time_ns(spans).max(1) as f64;

    let mut metrics = probes::run_all(config.seed);
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    };
    for bucket in [
        "tokenize", "prefill", "search", "compress", "decode", "other",
    ] {
        let ns: u64 = by_name
            .iter()
            .filter(|(name, _)| share_bucket(name) == bucket)
            .map(|(_, ns)| *ns)
            .sum();
        push(
            &format!("pipeline.share.{bucket}"),
            100.0 * ns as f64 / root_ns,
            "%",
        );
    }
    let gap_pct = if composition.cold_pipeline_s > 0.0 {
        100.0 * (composition.cold_pipeline_s - composition.cold_layers_s)
            / composition.cold_pipeline_s
    } else {
        0.0
    };
    push("pipeline.attribution_gap_pct", gap_pct, "%");
    push(
        "trace.overhead_pct",
        100.0 * (composition.traced_s - composition.untraced_s) / composition.untraced_s.max(1e-9),
        "%",
    );
    push(
        "core.prefix_hit_ratio",
        composition.reused_tokens as f64 / composition.prompt_tokens.max(1) as f64,
        "ratio",
    );

    let mut findings = Vec::new();
    if gap_pct.abs() > 10.0 {
        findings.push(format!(
            "attribution gap {gap_pct:.1}% over {} cold requests: CocktailPipeline::run took \
             {:.1} ms on them, the layers composed from outside {:.1} ms",
            composition.cold_requests,
            1e3 * composition.cold_pipeline_s,
            1e3 * composition.cold_layers_s,
        ));
    }
    let span_values: Vec<Value> = spans
        .iter()
        .map(|s| {
            json::obj(vec![
                ("name", json::text(s.name)),
                ("start_ns", json::int(s.start_ns)),
                ("end_ns", json::int(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| json::int(p as u64)),
                ),
                ("request", json::int(s.request as u64)),
            ])
        })
        .collect();
    let to_object = |map: &std::collections::BTreeMap<&'static str, u64>| {
        Value::Object(
            map.iter()
                .map(|(k, v)| (k.to_string(), json::int(*v)))
                .collect(),
        )
    };
    let later_turn_ratio = composition.later_turn_reused_tokens as f64
        / composition.later_turn_prompt_tokens.max(1) as f64;
    let detail = json::obj(vec![
        ("composed_requests", json::int(composition.requests as u64)),
        (
            "composed_mismatches",
            Value::Array(composition.mismatches.iter().map(json::text).collect()),
        ),
        ("self_time_ns", to_object(&by_name)),
        ("span_counts", to_object(&counts)),
        ("counts", to_object(composition.tracer.counts())),
        ("prefix_hit_ratio_later_turns", json::num(later_turn_ratio)),
        (
            "tok_s_traced",
            json::num(composition.tokens as f64 / composition.traced_s.max(1e-9)),
        ),
        (
            "tok_s_untraced",
            json::num(composition.tokens as f64 / composition.untraced_s.max(1e-9)),
        ),
        (
            "findings",
            Value::Array(findings.iter().map(json::text).collect()),
        ),
    ]);

    // Spans are written once, when the run ends.
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace_{}.json", workload.name()));
    let file = json::obj(vec![
        ("workload", json::text(workload.name())),
        ("seed", json::int(config.seed)),
        ("summary", detail.clone()),
        ("spans", Value::Array(span_values)),
    ]);
    std::fs::write(&path, file.to_string_compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    Ok(Outcome {
        correct: composition.mismatches.is_empty() && composition.requests > 0,
        attempted: composition.requests.max(1),
        failed: composition.mismatches.len(),
        metrics,
        report_only: Vec::new(),
        detail,
    })
}
