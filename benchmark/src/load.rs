//! The load generator: closed-loop clients over the gateway's real TCP
//! socket, the step-clocked open loop over an in-process engine, the
//! per-request output checks, and the aggregation into end-to-end metrics.

use crate::httpc::{JsonConnection, SseStream};
use crate::json::{self, Value};
use crate::stats;
use crate::workloads::{Request, Trace, Workload};
use cocktail_core::{FinishReason, RequestId, ServeRequest, ServingEngine};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The versioned generate endpoint (the unversioned alias is deprecated).
const GENERATE_PATH: &str = "/api/v1/generate";

/// What one request produced, as its client saw it.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Position of the request in its trace.
    pub request: usize,
    /// Why the request counts as failed (`None`: it passed every check).
    pub failure: Option<String>,
    /// First request byte written to first token event parsed.
    pub ttft_ms: Option<f64>,
    /// Gaps between consecutive token events.
    pub tpot_ms: Vec<f64>,
    /// First request byte written to the terminal event (or JSON body).
    pub e2e_ms: f64,
    /// Tokens generated.
    pub tokens: usize,
    /// The final answer.
    pub answer: String,
}

impl Sample {
    fn failed(reason: impl Into<String>) -> Self {
        Self {
            failure: Some(reason.into()),
            ..Self::default()
        }
    }

    /// Whether the request passed every check.
    pub fn ok(&self) -> bool {
        self.failure.is_none()
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// The `/api/v1/generate` body of a request.
pub fn generate_body(request: &Request) -> String {
    json::obj(vec![
        ("context", json::text(request.context.as_str())),
        ("query", json::text(request.query.as_str())),
        ("max_new_tokens", json::int(request.max_new_tokens as u64)),
        ("stream", Value::Bool(request.stream)),
    ])
    .to_string_compact()
}

/// The checks every successful answer must pass: a `length`/`stop` finish
/// and exactly the budgeted number of tokens (no workload sets a stop
/// string, so a short answer is a fault).
fn check_finish(finish: &str, tokens: usize, budget: usize) -> Result<(), String> {
    if finish != "length" && finish != "stop" {
        return Err(format!("finish {finish:?} is neither length nor stop"));
    }
    if tokens != budget {
        return Err(format!("generated {tokens} tokens, budget was {budget}"));
    }
    Ok(())
}

/// Runs one streamed request on its own connection.
pub fn run_sse(addr: SocketAddr, request: &Request) -> Sample {
    let body = generate_body(request);
    let mut stream = match SseStream::open(addr, GENERATE_PATH, &body) {
        Ok(stream) => stream,
        Err(err) => return Sample::failed(format!("connect/send: {err}")),
    };
    if stream.head.status != 200 {
        return Sample::failed(format!(
            "status {} {}",
            stream.head.status,
            stream.plain_body.as_deref().unwrap_or("")
        ));
    }
    let mut sample = Sample::default();
    let mut pieces = String::new();
    let mut last_token: Option<Instant> = None;
    let mut token_events = 0usize;
    loop {
        let payload = match stream.next_event() {
            Ok(Some(payload)) => payload,
            Ok(None) => return Sample::failed("stream ended without a terminal event"),
            Err(err) => return Sample::failed(format!("read: {err}")),
        };
        let now = Instant::now();
        let Ok(event) = serde_json::from_str(&payload) else {
            return Sample::failed(format!("malformed event {payload:?}"));
        };
        let field = |name| json::get(&event, name);
        match field("done").and_then(json::as_bool) {
            Some(false) => {
                match last_token {
                    None => sample.ttft_ms = Some(ms(now - stream.sent_at)),
                    Some(previous) => sample.tpot_ms.push(ms(now - previous)),
                }
                last_token = Some(now);
                token_events += 1;
                pieces.push_str(field("piece").and_then(json::as_str).unwrap_or(""));
            }
            Some(true) => {
                sample.e2e_ms = ms(now - stream.sent_at);
                let finish = field("finish").and_then(json::as_str).unwrap_or("");
                sample.tokens = field("index").and_then(json::as_u64).unwrap_or(0) as usize;
                sample.answer = field("answer")
                    .and_then(json::as_str)
                    .unwrap_or("")
                    .to_string();
                sample.failure = check_finish(finish, sample.tokens, request.max_new_tokens)
                    .and_then(|()| {
                        if token_events != sample.tokens {
                            Err(format!(
                                "{token_events} token events for {} tokens",
                                sample.tokens
                            ))
                        } else if pieces != sample.answer {
                            Err("concatenated pieces differ from the final answer".to_string())
                        } else {
                            Ok(())
                        }
                    })
                    .err();
                return sample;
            }
            None => return Sample::failed(format!("event without done flag {payload:?}")),
        }
    }
}

/// Runs one non-streamed request on a keep-alive connection.
pub fn run_json(connection: &mut JsonConnection, request: &Request) -> Sample {
    let body = generate_body(request);
    let start = Instant::now();
    let (head, response) = match connection.post(GENERATE_PATH, &body) {
        Ok(exchange) => exchange,
        Err(err) => return Sample::failed(format!("post: {err}")),
    };
    let e2e_ms = ms(start.elapsed());
    if head.status != 200 {
        return Sample::failed(format!("status {} {response}", head.status));
    }
    let Ok(parsed) = serde_json::from_str(&response) else {
        return Sample::failed(format!("malformed response {response:?}"));
    };
    let field = |name| json::get(&parsed, name);
    let finish = field("finish").and_then(json::as_str).unwrap_or("");
    let tokens = field("generated_tokens")
        .and_then(json::as_u64)
        .unwrap_or(0) as usize;
    Sample {
        request: request.index,
        failure: check_finish(finish, tokens, request.max_new_tokens).err(),
        ttft_ms: None,
        tpot_ms: Vec::new(),
        e2e_ms,
        tokens,
        answer: field("answer")
            .and_then(json::as_str)
            .unwrap_or("")
            .to_string(),
    }
}

/// One client's way of running requests: streamed ones on fresh
/// connections, the rest on one keep-alive connection (reopened after an
/// I/O failure).
pub struct Client {
    addr: SocketAddr,
    keep_alive: Option<JsonConnection>,
}

impl Client {
    /// A client of the gateway at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            keep_alive: None,
        }
    }

    /// Runs one request to completion.
    pub fn run(&mut self, request: &Request) -> Sample {
        let mut sample = if request.stream {
            run_sse(self.addr, request)
        } else {
            self.run_keep_alive(request)
        };
        sample.request = request.index;
        sample
    }

    fn run_keep_alive(&mut self, request: &Request) -> Sample {
        if self.keep_alive.is_none() {
            match JsonConnection::open(self.addr) {
                Ok(connection) => self.keep_alive = Some(connection),
                Err(err) => return Sample::failed(format!("connect: {err}")),
            }
        }
        let connection = self.keep_alive.as_mut().expect("opened above");
        let sample = run_json(connection, request);
        if !sample.ok() {
            self.keep_alive = None;
        }
        sample
    }
}

/// What a measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// One sample per attempted request.
    pub samples: Vec<Sample>,
    /// Start of the phase to completion of its last request.
    pub wall_s: f64,
    /// Whether the clients ran out of generated inputs before the time.
    pub exhausted: bool,
    /// Counts taken by the in-process storm (empty for gateway phases).
    pub counts: BTreeMap<&'static str, f64>,
}

/// Closed loop: each of `clients` threads takes the next unit of the
/// trace, walks its requests in order, and only then takes another, until
/// `seconds` have passed. A request in flight at the deadline completes.
pub fn closed_loop(addr: SocketAddr, trace: &Trace, clients: usize, seconds: f64) -> Phase {
    let next = AtomicUsize::new(0);
    let exhausted = AtomicBool::new(false);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut samples = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut mine = Vec::new();
                    'units: loop {
                        let unit = next.fetch_add(1, Ordering::Relaxed);
                        let Some(indices) = trace.units.get(unit) else {
                            exhausted.store(true, Ordering::Relaxed);
                            break;
                        };
                        for &index in indices {
                            if Instant::now() >= deadline {
                                break 'units;
                            }
                            mine.push(client.run(&trace.requests[index]));
                        }
                    }
                    mine
                })
            })
            .collect();
        for handle in handles {
            samples.extend(handle.join().expect("load client panicked"));
        }
    });
    Phase {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        exhausted: exhausted.load(Ordering::Relaxed),
        counts: BTreeMap::new(),
    }
}

/// Replays `requests` one at a time over the gateway (the oracle's wire
/// half and the gateway-overhead probe).
pub fn sequential(addr: SocketAddr, requests: &[Request]) -> Vec<Sample> {
    let mut client = Client::new(addr);
    requests.iter().map(|r| client.run(r)).collect()
}

/// The product request for a trace request (builder API only).
pub fn serve_request(request: &Request) -> ServeRequest {
    ServeRequest::builder()
        .context(request.context.as_str())
        .query(request.query.as_str())
        .max_new_tokens(request.max_new_tokens)
        .build()
}

struct Inflight {
    budget: usize,
    submitted: Instant,
    last_token: Option<Instant>,
    sample: Sample,
    pieces: String,
}

/// Step-clocked open loop over an in-process engine: request `r` is
/// submitted at engine step `r.arrival_step` whether or not earlier ones
/// finished, so batch composition is the same on every run and only the
/// wall time per step varies. The whole trace is served: the amount of
/// work is fixed, and the wall time is what is measured.
pub fn step_clocked_open_loop(engine: &mut ServingEngine, trace: &Trace) -> Phase {
    let start = Instant::now();
    let mut inflight: BTreeMap<RequestId, Inflight> = BTreeMap::new();
    let mut samples = Vec::new();
    let mut cursor = 0usize;
    let mut step = 0usize;
    let mut queue_waits: Vec<f64> = Vec::new();
    let mut batch_sum = 0usize;
    let mut decode_steps = 0usize;
    let mut reused_tokens = 0usize;
    let mut prompt_tokens = 0usize;
    let mut fp16_bytes = 0usize;
    let mut cache_bytes = 0usize;
    loop {
        while let Some(request) = trace.requests.get(cursor) {
            if request.arrival_step > step {
                break;
            }
            let submitted = Instant::now();
            let id = engine.submit(serve_request(request));
            inflight.insert(
                id,
                Inflight {
                    budget: request.max_new_tokens,
                    submitted,
                    last_token: None,
                    sample: Sample {
                        request: request.index,
                        ..Sample::default()
                    },
                    pieces: String::new(),
                },
            );
            cursor += 1;
        }
        if cursor == trace.requests.len() && engine.is_idle() {
            break;
        }
        let events = match engine.step_events() {
            Ok(events) => events,
            Err(err) => {
                // An engine-level fault fails everything still in flight.
                for (_, flight) in std::mem::take(&mut inflight) {
                    let mut sample = flight.sample;
                    sample.failure = Some(format!("engine error: {err}"));
                    samples.push(sample);
                }
                break;
            }
        };
        let now = Instant::now();
        let tokens_this_step = events.iter().filter(|e| e.token.is_some()).count();
        if tokens_this_step > 0 {
            batch_sum += tokens_this_step;
            decode_steps += 1;
        }
        for event in events {
            let Some(flight) = inflight.get_mut(&event.id) else {
                continue;
            };
            if event.token.is_some() {
                match flight.last_token {
                    None => flight.sample.ttft_ms = Some(ms(now - flight.submitted)),
                    Some(previous) => flight.sample.tpot_ms.push(ms(now - previous)),
                }
                flight.last_token = Some(now);
                flight.pieces.push_str(&event.piece);
            }
            let Some(finish) = event.finish else {
                continue;
            };
            let mut flight = inflight.remove(&event.id).expect("present above");
            flight.sample.e2e_ms = ms(now - flight.submitted);
            let finish_name = match finish {
                FinishReason::Length => "length",
                FinishReason::Stop => "stop",
                FinishReason::Cancelled => "cancelled",
                FinishReason::Failed => "failed",
            };
            match engine.take_outcome(event.id) {
                Some(outcome) => {
                    flight.sample.tokens = outcome.stats.generated_tokens;
                    flight.sample.failure =
                        check_finish(finish_name, flight.sample.tokens, flight.budget)
                            .and_then(|()| {
                                if flight.pieces == outcome.outcome.answer {
                                    Ok(())
                                } else {
                                    Err("concatenated pieces differ from the final answer"
                                        .to_string())
                                }
                            })
                            .err();
                    flight.sample.answer = outcome.outcome.answer;
                    if let Some(admitted) = outcome.stats.admitted_step {
                        queue_waits.push((admitted - outcome.stats.submitted_step) as f64);
                    }
                    reused_tokens += outcome.stats.prefix_reused_tokens;
                    prompt_tokens += outcome.stats.context_tokens + outcome.stats.query_tokens;
                    fp16_bytes += outcome.stats.fp16_cache_bytes;
                    cache_bytes += outcome.stats.cache_bytes;
                }
                None => {
                    let message = engine
                        .take_failure(event.id)
                        .map(|(message, _)| message)
                        .unwrap_or_default();
                    flight.sample.failure = Some(format!("finish {finish_name}: {message}"));
                }
            }
            samples.push(flight.sample);
        }
        step += 1;
    }
    let mut counts = BTreeMap::new();
    counts.insert("steps", step as f64);
    counts.insert(
        "queue_wait_steps_p50",
        stats::median(&queue_waits).unwrap_or(0.0),
    );
    counts.insert(
        "batch_size_mean",
        batch_sum as f64 / decode_steps.max(1) as f64,
    );
    counts.insert(
        "prefix_hit_ratio",
        reused_tokens as f64 / prompt_tokens.max(1) as f64,
    );
    counts.insert("fp16_cache_bytes", fp16_bytes as f64);
    counts.insert("cache_bytes", cache_bytes as f64);
    if let Some(cache) = engine.prefix_cache_stats() {
        counts.insert("trie_evictions", cache.evictions as f64);
    }
    Phase {
        samples,
        wall_s: start.elapsed().as_secs_f64(),
        exhausted: false,
        counts,
    }
}

/// The end-to-end metrics of one measured phase (everything but
/// `setup_s` and `kv_compression_x`, which the caller owns).
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// Output tokens of successful requests per second of wall time.
    pub tok_s: f64,
    /// Successful requests per second of wall time.
    pub req_s: f64,
    /// Median time to first token.
    pub ttft_ms_p50: f64,
    /// Time to first token at the workload's fixed tail percentile.
    pub ttft_ms_tail: f64,
    /// Median gap between tokens.
    pub tpot_ms_p50: f64,
    /// Gap between tokens at the workload's fixed tail percentile.
    pub tpot_ms_tail: f64,
    /// Median end-to-end latency.
    pub e2e_ms_p50: f64,
    /// Requests attempted.
    pub attempted: usize,
    /// Requests failed, refused or malformed.
    pub failed: usize,
    /// TTFT samples behind the percentiles.
    pub ttft_samples: usize,
    /// TPOT samples behind the percentiles.
    pub tpot_samples: usize,
    /// TTFT at every percentile of [`stats::TAIL_LADDER`], for the reports.
    pub ttft_ladder: [f64; 5],
    /// TPOT at every percentile of [`stats::TAIL_LADDER`].
    pub tpot_ladder: [f64; 5],
}

/// Folds a phase's samples into end-to-end metrics. A failed request
/// contributes no tokens and no latency sample.
pub fn aggregate(phase: &Phase, workload: Workload) -> Aggregate {
    let ok: Vec<&Sample> = phase.samples.iter().filter(|s| s.ok()).collect();
    let ttft: Vec<f64> = ok.iter().filter_map(|s| s.ttft_ms).collect();
    let tpot: Vec<f64> = ok.iter().flat_map(|s| s.tpot_ms.iter().copied()).collect();
    let e2e: Vec<f64> = ok.iter().map(|s| s.e2e_ms).collect();
    let tokens: usize = ok.iter().map(|s| s.tokens).sum();
    let wall = phase.wall_s.max(f64::MIN_POSITIVE);
    let at = |samples: &[f64], p: u32| stats::percentile(samples, f64::from(p)).unwrap_or(0.0);
    Aggregate {
        tok_s: tokens as f64 / wall,
        req_s: ok.len() as f64 / wall,
        ttft_ms_p50: at(&ttft, 50),
        ttft_ms_tail: at(&ttft, workload.ttft_tail_percentile()),
        tpot_ms_p50: at(&tpot, 50),
        tpot_ms_tail: at(&tpot, workload.tpot_tail_percentile()),
        e2e_ms_p50: at(&e2e, 50),
        attempted: phase.samples.len(),
        failed: phase.samples.len() - ok.len(),
        ttft_samples: ttft.len(),
        tpot_samples: tpot.len(),
        ttft_ladder: stats::TAIL_LADDER.map(|p| at(&ttft, p)),
        tpot_ladder: stats::TAIL_LADDER.map(|p| at(&tpot, p)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_requests_miss_every_latency_sample_and_every_token() {
        let good = |ttft: f64| Sample {
            request: 0,
            failure: None,
            ttft_ms: Some(ttft),
            tpot_ms: vec![1.0, 3.0],
            e2e_ms: 10.0,
            tokens: 3,
            answer: String::new(),
        };
        let mut bad = good(1000.0);
        bad.failure = Some("refused".into());
        let phase = Phase {
            samples: vec![good(2.0), bad, good(4.0)],
            wall_s: 2.0,
            ..Phase::default()
        };
        let agg = aggregate(&phase, Workload::LongctxCold);
        assert_eq!((agg.attempted, agg.failed), (3, 1));
        assert_eq!(agg.tok_s, 3.0);
        assert_eq!(agg.req_s, 1.0);
        assert_eq!(agg.ttft_ms_p50, 3.0);
        assert_eq!(agg.tpot_ms_p50, 2.0);
        assert_eq!((agg.ttft_samples, agg.tpot_samples), (2, 4));
    }

    #[test]
    fn finish_and_budget_are_checked() {
        assert!(check_finish("length", 4, 4).is_ok());
        assert!(check_finish("stop", 4, 4).is_ok());
        assert!(check_finish("cancelled", 4, 4).is_err());
        assert!(check_finish("length", 3, 4).is_err());
    }

    #[test]
    fn request_bodies_are_valid_json_with_the_wire_fields() {
        let request = Request {
            index: 0,
            context: "say \"hi\"\nplease".into(),
            query: "q".into(),
            max_new_tokens: 4,
            stream: true,
            arrival_step: 0,
        };
        let parsed = serde_json::from_str(&generate_body(&request)).unwrap();
        assert_eq!(
            json::get(&parsed, "context").and_then(json::as_str),
            Some("say \"hi\"\nplease")
        );
        assert_eq!(
            json::get(&parsed, "max_new_tokens").and_then(json::as_u64),
            Some(4)
        );
        assert_eq!(
            json::get(&parsed, "stream").and_then(json::as_bool),
            Some(true)
        );
    }
}
