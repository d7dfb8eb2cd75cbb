//! Socket-level end-to-end tests for the HTTP gateway: every assertion
//! here crosses a real localhost TCP connection.
//!
//! The load-bearing invariants:
//!
//! * bytes streamed over SSE are identical to the answer the in-process
//!   engine produces for the same request (batching, interleaving, and
//!   the prefix cache must not leak into the wire protocol),
//! * a client dropping its socket mid-stream cancels the request and
//!   releases budget/queue/pins, leaving concurrent survivors
//!   byte-identical to their solo runs,
//! * over-capacity traffic surfaces as 429 + queue depth, not unbounded
//!   buffering,
//! * shutdown from idle reports zero scheduler bytes and zero pinned
//!   prefix entries.

use std::time::{Duration, Instant};

use cocktail::prelude::*;
use cocktail::server::{ClientError, EngineSettings, ErrorResponse, StreamOutcome};

fn tiny_settings() -> EngineSettings {
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("valid chunk size");
    EngineSettings::new(ModelProfile::tiny(), config)
}

fn start_server(
    settings: EngineSettings,
    gateway: GatewayConfig,
) -> (GatewayServer, GatewayClient) {
    let server = GatewayServer::start(settings, gateway).expect("bind localhost");
    let client = GatewayClient::new(server.addr());
    (server, client)
}

/// Ground-truth reference for byte-identity checks: one shared
/// [`CocktailPipeline`] running requests sequentially, in the same order
/// they are submitted to the gateway. The tokenizer interns vocabulary
/// in encounter order, so the reference has to see the same prompts in
/// the same order as the engine behind the gateway — this mirrors the
/// "solo sequential run" convention of the core serving tests.
struct SoloReference {
    pipeline: CocktailPipeline,
}

impl SoloReference {
    fn new() -> Self {
        let config = CocktailConfig::default()
            .with_chunk_size(16)
            .expect("valid chunk size");
        Self {
            pipeline: CocktailPipeline::new(ModelProfile::tiny(), config).expect("pipeline"),
        }
    }

    fn answer(&self, ctx: &str, query: &str, max_new_tokens: usize) -> String {
        self.pipeline
            .run(ctx, query, max_new_tokens)
            .expect("reference run")
            .answer
    }
}

/// The answer a fresh single-request engine produces. Only a valid
/// reference for the *first* request served by a fresh gateway (the
/// tokenizer starts empty on both sides).
fn first_request_answer(
    ctx: &str,
    query: &str,
    max_new_tokens: usize,
    stop: Option<&str>,
) -> String {
    let config = CocktailConfig::default()
        .with_chunk_size(16)
        .expect("valid chunk size");
    let mut engine = ServingEngine::new(ModelProfile::tiny(), config).expect("engine");
    let mut builder = ServeRequest::builder()
        .context(ctx)
        .query(query)
        .max_new_tokens(max_new_tokens);
    if let Some(stop) = stop {
        builder = builder.stop_sequence(stop);
    }
    let id = engine.submit(builder.build());
    let outcomes = engine.run_until_idle().expect("solo run");
    outcomes
        .into_iter()
        .find(|o| o.id == id)
        .expect("solo outcome")
        .outcome
        .answer
}

fn traffic(n: usize, seed: u64) -> Vec<TrafficRequest> {
    TrafficGenerator::new(TrafficConfig::small(n).with_max_new_tokens(10), seed).generate()
}

fn poll_stats_until(
    client: &GatewayClient,
    what: &str,
    predicate: impl Fn(&StatsResponse) -> bool,
) -> StatsResponse {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.stats().expect("stats endpoint");
        if predicate(&stats) {
            return stats;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last stats: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn generate_over_tcp_matches_in_process_answers() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let reference = SoloReference::new();
    for request in traffic(4, 0x11AD) {
        let expected = reference.answer(
            &request.task.context,
            &request.task.query,
            request.max_new_tokens,
        );
        let response = client
            .generate(&GenerateRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ))
            .expect("generate succeeds");
        assert_eq!(response.answer, expected, "request {}", request.index);
        assert_eq!(response.finish, "length");
        assert!(response.generated_tokens > 0);
    }
    let last = server.shutdown();
    assert_eq!(last.completed, 4);
}

#[test]
fn streamed_concatenation_equals_in_process_answer() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let reference = SoloReference::new();
    for request in traffic(3, 0x5EED) {
        let expected = reference.answer(
            &request.task.context,
            &request.task.query,
            request.max_new_tokens,
        );
        let handle = client
            .open_stream(&GenerateRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            ))
            .expect("stream opens");
        let outcome = handle.finish().expect("stream finishes");
        assert_eq!(outcome.finish, "length");
        assert_eq!(outcome.streamed, expected, "request {}", request.index);
        assert_eq!(
            outcome.answer.as_deref(),
            Some(expected.as_str()),
            "final event repeats the full answer"
        );
        assert_eq!(outcome.token_events, request.max_new_tokens);
    }
    server.shutdown();
}

#[test]
fn stop_sequences_end_streams_early_over_the_wire() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let request = &traffic(1, 0x57A9)[0];
    // Pick a stop string the unstopped answer provably contains, so the
    // stop must fire.
    let unstopped = first_request_answer(&request.task.context, &request.task.query, 12, None);
    let stop = unstopped
        .split_whitespace()
        .nth(1)
        .expect("answer has words")
        .to_string();
    let expected =
        first_request_answer(&request.task.context, &request.task.query, 12, Some(&stop));
    let outcome = client
        .open_stream(
            &GenerateRequest::new(request.task.context.clone(), request.task.query.clone(), 12)
                .with_stop(stop.clone()),
        )
        .expect("stream opens")
        .finish()
        .expect("stream finishes");
    assert_eq!(outcome.finish, "stop", "stop {stop:?} must fire");
    assert_eq!(outcome.streamed, expected);
    assert!(outcome.streamed.contains(&stop));
    assert!(outcome.token_events < 12);
    server.shutdown();
}

#[test]
fn malformed_requests_get_4xx_not_a_hung_connection() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let cases: Vec<(&str, Vec<u8>, u16)> = vec![
        (
            "bad json",
            b"POST /api/v1/generate HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json".to_vec(),
            400,
        ),
        (
            "missing fields",
            b"POST /api/v1/generate HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}".to_vec(),
            400,
        ),
        (
            "zero token budget",
            format!(
                "POST /api/v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":0}".len(),
                "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":0}"
            )
            .into_bytes(),
            400,
        ),
        (
            "unsupported version",
            b"GET /api/v1/stats HTTP/2.0\r\n\r\n".to_vec(),
            505,
        ),
        (
            "chunked request body",
            b"POST /api/v1/generate HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
            501,
        ),
        (
            "header with no colon",
            b"GET /api/v1/stats HTTP/1.1\r\nBroken Header\r\n\r\n".to_vec(),
            400,
        ),
        (
            "unknown path",
            b"GET /api/nope HTTP/1.1\r\n\r\n".to_vec(),
            404,
        ),
        (
            "wrong method on a known path",
            b"GET /api/v1/generate HTTP/1.1\r\n\r\n".to_vec(),
            405,
        ),
        (
            "unimplemented method",
            b"DELETE /api/v1/generate HTTP/1.1\r\n\r\n".to_vec(),
            501,
        ),
        (
            "oversized declared body",
            b"POST /api/v1/generate HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n".to_vec(),
            413,
        ),
    ];
    for (what, raw, status) in cases {
        let response = client.send_raw(&raw).expect("server answers");
        assert_eq!(response.status, status, "{what}: {}", response.body_str());
    }
    // An oversized head (431) needs a header bigger than the cap.
    let mut huge = b"GET /api/v1/stats HTTP/1.1\r\nX-Padding: ".to_vec();
    huge.extend_from_slice(&vec![b'a'; 20 * 1024]);
    huge.extend_from_slice(b"\r\n\r\n");
    let response = client.send_raw(&huge).expect("server answers");
    assert_eq!(response.status, 431);
    // The engine stays healthy through all of it.
    let request = &traffic(1, 0xF00D)[0];
    client
        .generate(&GenerateRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            4,
        ))
        .expect("engine still serves after malformed traffic");
    server.shutdown();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let raw = b"GET /healthz HTTP/1.1\r\n\r\nGET /api/v1/stats HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
    let responses = client
        .send_raw_pipelined(raw, 3)
        .expect("three pipelined responses");
    assert_eq!(responses[0].status, 200);
    assert!(responses[0].body_str().contains("ok"));
    assert_eq!(responses[1].status, 200);
    assert!(responses[1].body_str().contains("kv_bytes_in_use"));
    assert_eq!(responses[2].status, 200);
    server.shutdown();
}

#[test]
fn invalid_engine_input_maps_to_400_with_the_failure_message() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    // An empty context passes JSON validation but fails tokenization in
    // the engine; the Failed terminal event must become a clean 400.
    let err = client
        .generate(&GenerateRequest::new("", "question", 4))
        .expect_err("empty context fails");
    match err {
        ClientError::Status { status, error } => {
            assert_eq!(status, 400);
            assert!(error.error.contains("non-empty"), "{}", error.error);
        }
        other => panic!("expected a status error, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn over_capacity_requests_get_429_with_queue_depth() {
    // One-at-a-time decode and a single queue slot make the rejection
    // point deterministic.
    let settings = tiny_settings().with_scheduler(SchedulerConfig::default().with_max_batch(1));
    let gateway = GatewayConfig::default().with_queue_limit(1);
    let (server, client) = start_server(settings, gateway);
    let request = &traffic(1, 0xCAFE)[0];
    // A long context plus a big token budget keeps the occupying request
    // decoding for long enough that the later submits race nothing.
    let long_context =
        "the cocktail gateway keeps decoding while later clients line up outside ".repeat(55);
    let slow = GenerateRequest::new(long_context, request.task.query.clone(), 300);

    // First stream occupies the single decode slot...
    let mut first = client.open_stream(&slow).expect("first stream opens");
    first.read_tokens(1).expect("first stream is decoding");
    poll_stats_until(&client, "first request running", |s| s.running == 1);
    // ...second one fills the single queue slot...
    let second = client.open_stream(&slow).expect("second stream queues");
    poll_stats_until(&client, "second request queued", |s| s.queued == 1);
    // ...third is told to back off, with the queue depth in the body.
    let err = client
        .generate(&GenerateRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            4,
        ))
        .expect_err("queue is full");
    match err {
        ClientError::Status { status, error } => {
            assert_eq!(status, 429, "{}", error.error);
            assert_eq!(error.queued, Some(1));
            assert_eq!(error.queue_limit, Some(1));
        }
        other => panic!("expected 429, got {other:?}"),
    }

    // Dropping both streams cancels them and drains the queue.
    first.abort();
    second.abort();
    poll_stats_until(&client, "cancellations to land", |s| {
        s.queued == 0 && s.running == 0 && s.cancelled == 2
    });
    let request = &traffic(1, 0xD00D)[0];
    client
        .generate(&GenerateRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            4,
        ))
        .expect("capacity is back after the disconnects");
    server.shutdown();
}

/// Satellite 3: the socket-level twin of the cancellation proptest. A
/// seeded client drops its TCP connection mid-stream at a random token
/// step; every surviving concurrent stream must stay byte-identical to
/// its solo run, and the dropped request's budget must come back.
#[test]
fn mid_stream_disconnect_leaves_survivors_byte_identical() {
    let trace = TrafficGenerator::new(
        TrafficConfig::small(6)
            .with_max_new_tokens(12)
            .with_cancellations(400),
        0xD15C,
    )
    .generate();
    assert!(
        trace.iter().any(|r| r.cancel_after_tokens.is_some()),
        "seed must produce at least one disconnecting client"
    );
    assert!(
        trace.iter().any(|r| r.cancel_after_tokens.is_none()),
        "seed must leave survivors"
    );
    // The reference runs every request — including the ones whose
    // clients will hang up — because the tokenizer interns each prompt's
    // vocabulary whether or not decode completes.
    let reference = SoloReference::new();
    let expected: Vec<String> = trace
        .iter()
        .map(|r| reference.answer(&r.task.context, &r.task.query, r.max_new_tokens))
        .collect();

    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    // Open every stream from this thread, in trace order: submission
    // order fixes the engine's vocabulary-intern order, which is what
    // makes the sequential reference above apply.
    let handles: Vec<_> = trace
        .iter()
        .map(|request| {
            let generate = GenerateRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                request.max_new_tokens,
            );
            client.open_stream(&generate).expect("stream opens")
        })
        .collect();
    let mut workers = Vec::new();
    for ((request, expected), mut handle) in trace
        .iter()
        .cloned()
        .zip(expected.iter().cloned())
        .zip(handles)
    {
        workers.push(std::thread::spawn(move || {
            match request.cancel_after_tokens {
                Some(after) => {
                    // Read a few tokens, then vanish without a goodbye.
                    handle.read_tokens(after).expect("partial read");
                    handle.abort();
                    None
                }
                None => {
                    let outcome = handle.finish().expect("survivor finishes");
                    assert_eq!(
                        outcome.streamed, expected,
                        "survivor {} diverged from its solo run",
                        request.index
                    );
                    assert_eq!(outcome.finish, "length");
                    Some(outcome.streamed)
                }
            }
        }));
    }
    let mut survivors = 0;
    for worker in workers {
        if worker.join().expect("client thread").is_some() {
            survivors += 1;
        }
    }
    assert!(survivors > 0);

    // Every disconnected request must be reaped; nothing may stay
    // admitted or queued once the storm is over. (A disconnecting client
    // can lose the race with a fast decode, so `completed` may exceed
    // the survivor count, but nothing may be left running or leaking.)
    let stats = poll_stats_until(&client, "disconnect storm to settle", |s| {
        s.queued == 0 && s.running == 0 && s.completed + s.cancelled == 6
    });
    assert!(stats.completed >= survivors);
    assert_eq!(stats.kv_bytes_in_use, 0, "cancelled budget leaked");
    server.shutdown();
}

/// A two-replica fleet: streams carry replica-qualified wire ids
/// (`"r1:req-3"`), every stream is byte-identical to a solo pipeline
/// replaying its replica's arrival subsequence, and `/api/v1/stats` reports
/// a per-replica breakdown whose rows sum to the aggregate.
#[test]
fn fleet_gateway_streams_route_and_report_per_replica() {
    let replicas = 2usize;
    // Three tenants branching off shared preambles over two replicas:
    // the follower requests give the fingerprint router something to
    // match, and three groups over two replicas avoid any accidental
    // alignment between tenant identity and placement.
    let trace = TrafficGenerator::new(
        TrafficConfig::small(8)
            .with_max_new_tokens(8)
            .with_branching_prefix(3, 24, 6),
        0xAF1,
    )
    .generate();
    let settings = tiny_settings().with_prefix_cache(PrefixCacheConfig::default());
    let (server, client) = start_server(settings, GatewayConfig::default().with_replicas(replicas));
    // Open sequentially (fixing each replica's arrival order), consume
    // concurrently.
    let handles: Vec<_> = trace
        .iter()
        .map(|request| {
            client
                .open_stream(&GenerateRequest::new(
                    request.task.context.clone(),
                    request.task.query.clone(),
                    request.max_new_tokens,
                ))
                .expect("stream opens")
        })
        .collect();
    let workers: Vec<_> = handles
        .into_iter()
        .map(|mut handle| {
            std::thread::spawn(move || {
                handle.read_tokens(1).expect("first token");
                let id = handle.id().expect("events carry the id").to_string();
                (id, handle.finish().expect("stream finishes"))
            })
        })
        .collect();
    let results: Vec<(String, StreamOutcome)> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    // Wire ids are replica-qualified on a fleet.
    let placements: Vec<usize> = results
        .iter()
        .map(|(id, _)| {
            id.strip_prefix('r')
                .and_then(|rest| rest.split(':').next())
                .and_then(|digits| digits.parse().ok())
                .unwrap_or_else(|| panic!("wire id {id:?} lacks a replica prefix"))
        })
        .collect();
    assert!(placements.iter().all(|&r| r < replicas));

    // Byte-identity per replica: a fresh solo reference replays exactly
    // the subsequence this replica served, in arrival order.
    for replica in 0..replicas {
        let reference = SoloReference::new();
        for (i, request) in trace.iter().enumerate() {
            if placements[i] != replica {
                continue;
            }
            let expected = reference.answer(
                &request.task.context,
                &request.task.query,
                request.max_new_tokens,
            );
            assert_eq!(
                results[i].1.streamed, expected,
                "request {} diverged on replica {replica}",
                request.index
            );
        }
    }

    // The stats breakdown has one row per replica and sums to the
    // aggregate.
    let stats = poll_stats_until(&client, "fleet to drain", |s| {
        s.queued == 0 && s.running == 0 && s.completed == trace.len()
    });
    assert_eq!(stats.replicas.len(), replicas);
    for (r, row) in stats.replicas.iter().enumerate() {
        assert_eq!(row.replica, r);
    }
    let sum = |f: fn(&ReplicaStats) -> usize| stats.replicas.iter().map(f).sum::<usize>();
    assert_eq!(sum(|r| r.completed), stats.completed);
    assert_eq!(sum(|r| r.kv_bytes_in_use), stats.kv_bytes_in_use);
    assert_eq!(sum(|r| r.prefix_reused_tokens), stats.prefix_reused_tokens);
    assert_eq!(
        stats.affinity_routed + stats.least_loaded_routed,
        trace.len(),
        "every admission was either affinity- or least-loaded-routed"
    );
    // Branching followers re-entered warm tries somewhere in the fleet.
    assert!(stats.affinity_routed > 0);
    assert!(stats.prefix_reused_tokens > 0);
    server.shutdown();
}

/// Only a fleet with *every* replica saturated answers 429, and the
/// refusal names the fleet width in `X-Replica-Count`.
#[test]
fn fleet_429_only_when_all_replicas_are_saturated() {
    let replicas = 2usize;
    let settings = tiny_settings().with_scheduler(SchedulerConfig::default().with_max_batch(1));
    let gateway = GatewayConfig::default()
        .with_queue_limit(1)
        .with_replicas(replicas);
    let (server, client) = start_server(settings, gateway);
    let long_context =
        "the cocktail fleet keeps decoding while later clients line up outside ".repeat(55);
    // A token budget far beyond what decodes during this test keeps all
    // four occupying requests in-flight until they are aborted below.
    let slow = GenerateRequest::new(long_context.clone(), "when is it my turn", 4000);

    // Four slow streams fill the fleet exactly: each replica ends up with
    // one running and one queued request (a saturated hot replica spills
    // to the other instead of refusing). No stream is read from — a
    // queued stream's first token only arrives once the decode slot in
    // front of it drains, long after this test is done. Each request must
    // land on its replica before the next is routed: a just-submitted
    // request counts as queued until its driver steps it, and two
    // un-stepped requests sitting on the two replicas would make the
    // whole fleet look transiently full.
    let mut occupying = Vec::new();
    for i in 0..replicas * 2 {
        occupying.push(client.open_stream(&slow).expect("stream admitted"));
        // Affinity routes each stream to the hot replica until it is
        // full, so the fleet fills running/queued/running/queued.
        let expect_running = i / 2 + 1;
        poll_stats_until(&client, "occupying request to land", |s| {
            s.running == expect_running && s.running + s.queued == i + 1
        });
    }
    poll_stats_until(&client, "fleet saturation", |s| {
        s.running + s.queued == replicas * 2
    });

    // The fifth client is refused by the whole fleet, and the 429 carries
    // the replica count.
    let body =
        format!("{{\"context\":\"{long_context}\",\"query\":\"one more\",\"max_new_tokens\":4}}");
    let raw = format!(
        "POST /api/v1/generate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let response = client.send_raw(raw.as_bytes()).expect("server answers");
    assert_eq!(response.status, 429, "{}", response.body_str());
    let replica_count = response
        .headers
        .iter()
        .find(|(name, _)| name.eq_ignore_ascii_case("x-replica-count"))
        .map(|(_, value)| value.as_str());
    assert_eq!(replica_count, Some("2"));

    // Disconnecting the occupying clients restores fleet capacity.
    for handle in occupying {
        handle.abort();
    }
    poll_stats_until(&client, "cancellations to land", |s| {
        s.queued == 0 && s.running == 0
    });
    client
        .generate(&GenerateRequest::new(
            "capacity is back".to_string(),
            "right".to_string(),
            4,
        ))
        .expect("fleet serves again after the disconnects");
    server.shutdown();
}

fn header(response: &cocktail::server::RawResponse, name: &str) -> Option<String> {
    response
        .headers
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, value)| value.clone())
}

fn temp_snapshot_path(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("cocktail_gw_{}_{tag}.snap", std::process::id()))
        .display()
        .to_string()
}

#[test]
fn versioned_surface_answers_and_old_paths_answer_404() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());

    // The version endpoint names the API and the snapshot wire format.
    let version = client.version().expect("version endpoint");
    assert_eq!(version.api_version, "v1");
    assert_eq!(version.snapshot_format, SNAPSHOT_FORMAT_VERSION as usize);
    assert!(!version.crate_version.is_empty());

    // The unversioned paths of the first release are gone, not redirected.
    let request = &traffic(1, 0xB007)[0];
    let body =
        GenerateRequest::new(request.task.context.clone(), request.task.query.clone(), 6).to_json();
    let old_generate = format!(
        "POST /api/generate HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let old_stats = "GET /api/stats HTTP/1.1\r\nConnection: close\r\n\r\n".to_string();
    for raw in [old_generate, old_stats] {
        let response = client.send_raw(raw.as_bytes()).expect("server answers");
        assert_eq!(response.status, 404, "{}", response.body_str());
        assert!(header(&response, "deprecation").is_none());
        assert!(header(&response, "location").is_none());
    }
    let last = server.shutdown();
    assert_eq!(last.completed, 0, "a 404 never reaches an engine");
}

#[test]
fn admin_snapshot_and_restore_round_trip_over_the_wire() {
    let settings = tiny_settings().with_prefix_cache(PrefixCacheConfig::default());
    let (server_a, client_a) = start_server(settings.clone(), GatewayConfig::default());
    let request = &traffic(1, 0xCAFE)[0];
    let generate =
        GenerateRequest::new(request.task.context.clone(), request.task.query.clone(), 8);
    let cold = client_a.generate(&generate).expect("cold serve");
    let warm = client_a.generate(&generate).expect("warm serve");
    assert_eq!(cold.answer, warm.answer);

    let path = temp_snapshot_path("roundtrip");
    let snap = client_a
        .admin_snapshot(&path, None)
        .expect("admin snapshot");
    assert_eq!(snap.replicas.len(), 1);
    assert!(
        snap.replicas[0].error.is_none(),
        "{:?}",
        snap.replicas[0].error
    );
    assert!(snap.replicas[0].bytes > 0);
    assert!(snap.replicas[0].nodes > 0);
    assert_eq!(
        snap.replicas[0].path, path,
        "single-replica fleets use the path verbatim"
    );
    server_a.shutdown();

    // A fresh gateway restored from the snapshot serves its *first*
    // request warm and byte-identical to the pre-restart answers.
    let (server_b, client_b) = start_server(settings, GatewayConfig::default());
    let restore = client_b.admin_restore(&path, None).expect("admin restore");
    assert!(
        restore.replicas[0].restored,
        "restore refused: {:?}",
        restore.replicas[0].reason
    );
    assert_eq!(restore.replicas[0].nodes, snap.replicas[0].nodes);
    assert!(restore.replicas[0].resident_bytes > 0);
    let restarted = client_b.generate(&generate).expect("post-restart serve");
    assert_eq!(restarted.answer, warm.answer);
    let stats = client_b.stats().expect("stats endpoint");
    assert!(
        stats.prefix_reused_tokens > 0,
        "first post-restore request must hit the restored trie: {stats:?}"
    );
    let _ = std::fs::remove_file(&path);
    server_b.shutdown();
}

#[test]
fn fleet_admin_operations_target_replicas_individually_or_all() {
    let settings = tiny_settings().with_prefix_cache(PrefixCacheConfig::default());
    let gateway = GatewayConfig::default().with_replicas(2);
    let (server, client) = start_server(settings, gateway);
    for request in traffic(3, 0x5EED) {
        client
            .generate(&GenerateRequest::new(
                request.task.context.clone(),
                request.task.query.clone(),
                4,
            ))
            .expect("serve");
    }

    // Fleet-wide snapshot: one row per replica, paths suffixed to stay
    // distinct.
    let base = temp_snapshot_path("fleet");
    let snap = client.admin_snapshot(&base, None).expect("fleet snapshot");
    assert_eq!(snap.replicas.len(), 2);
    assert_eq!(snap.replicas[0].path, format!("{base}.0"));
    assert_eq!(snap.replicas[1].path, format!("{base}.1"));
    assert!(snap.replicas.iter().all(|r| r.error.is_none()));

    // Targeted snapshot: exactly one row, path verbatim.
    let one_path = temp_snapshot_path("replica1");
    let one = client
        .admin_snapshot(&one_path, Some(1))
        .expect("targeted snapshot");
    assert_eq!(one.replicas.len(), 1);
    assert_eq!(one.replicas[0].replica, 1);
    assert_eq!(one.replicas[0].path, one_path);

    // Fleet-wide restore of the fleet snapshot succeeds on idle replicas.
    let restore = client.admin_restore(&base, None).expect("fleet restore");
    assert_eq!(restore.replicas.len(), 2);
    for row in &restore.replicas {
        assert!(
            row.restored,
            "replica {} refused: {:?}",
            row.replica, row.reason
        );
    }

    for path in [format!("{base}.0"), format!("{base}.1"), one_path] {
        let _ = std::fs::remove_file(path);
    }
    server.shutdown();
}

#[test]
fn admin_validation_and_degraded_restores_answer_cleanly() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());

    // Missing "path" in the body → 400.
    let response = client
        .send_raw(b"POST /api/v1/admin/snapshot HTTP/1.1\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}")
        .expect("server answers");
    assert_eq!(response.status, 400, "{}", response.body_str());

    // Out-of-range and non-numeric replica selectors → 400.
    let body = "{\"path\":\"/tmp/x.snap\"}";
    for query in ["?replica=7", "?replica=abc", "?nonsense=1"] {
        let raw = format!(
            "POST /api/v1/admin/restore{query} HTTP/1.1\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let response = client.send_raw(raw.as_bytes()).expect("server answers");
        assert_eq!(response.status, 400, "{query}: {}", response.body_str());
    }

    // Restoring from a missing file degrades (200, restored: false,
    // reason set) instead of failing the replica.
    let restore = client
        .admin_restore("/definitely/not/here.snap", None)
        .expect("degraded restore still answers 200");
    assert!(!restore.replicas[0].restored);
    let reason = restore.replicas[0].reason.clone().expect("reason is set");
    assert!(reason.contains("read snapshot"), "{reason}");

    // The engine keeps serving after all of it.
    let request = &traffic(1, 0xD06)[0];
    client
        .generate(&GenerateRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            4,
        ))
        .expect("engine still serves");
    server.shutdown();
}

#[test]
fn restore_is_refused_while_the_replica_is_busy() {
    let settings = tiny_settings().with_scheduler(SchedulerConfig::default().with_max_batch(1));
    let (server, client) = start_server(settings, GatewayConfig::default());
    let long_context =
        "a restore racing live decode traffic must be refused not risked ".repeat(40);
    // A stream with a huge budget that is never read keeps the replica
    // busy for the duration of the test.
    let handle = client
        .open_stream(&GenerateRequest::new(long_context, "still going", 4000))
        .expect("stream admitted");
    poll_stats_until(&client, "the stream to start running", |s| s.running > 0);

    let restore = client
        .admin_restore("/tmp/whatever.snap", None)
        .expect("busy restore still answers 200");
    assert!(!restore.replicas[0].restored);
    let reason = restore.replicas[0].reason.clone().expect("reason is set");
    assert!(reason.contains("replica busy"), "{reason}");

    handle.abort();
    poll_stats_until(&client, "the cancel to land", |s| {
        s.running == 0 && s.queued == 0
    });
    server.shutdown();
}

#[test]
fn shutdown_from_idle_reports_zero_bytes_and_zero_pins() {
    // Shared-prefix traffic with the prefix cache on: pins must be
    // released once streams finish, even though cache entries may stay
    // resident.
    let settings = tiny_settings().with_prefix_cache(PrefixCacheConfig::default());
    let (server, client) = start_server(settings, GatewayConfig::default());
    let trace = TrafficGenerator::new(
        TrafficConfig::small(4)
            .with_max_new_tokens(8)
            .with_shared_prefix(2, 24),
        0x9155,
    )
    .generate();
    let mut workers = Vec::new();
    for request in &trace {
        let client = client.clone();
        let generate = GenerateRequest::new(
            request.task.context.clone(),
            request.task.query.clone(),
            request.max_new_tokens,
        );
        workers.push(std::thread::spawn(move || {
            client
                .open_stream(&generate)
                .expect("stream opens")
                .finish()
                .expect("stream finishes")
        }));
    }
    for worker in workers {
        let outcome = worker.join().expect("client thread");
        assert_eq!(outcome.finish, "length");
        assert_eq!(outcome.answer.as_deref(), Some(outcome.streamed.as_str()));
    }
    let stats = server.shutdown();
    assert_eq!(stats.queued, 0);
    assert_eq!(stats.running, 0);
    assert_eq!(stats.completed, trace.len());
    assert_eq!(
        stats.pinned_prefix_entries, 0,
        "prefix pins must be released at idle"
    );
}

#[test]
fn sampled_sse_streams_replay_identically_on_resubmission() {
    let settings = tiny_settings().with_prefix_cache(PrefixCacheConfig::default());
    let (server, client) = start_server(settings, GatewayConfig::default());
    let request = &traffic(1, 0x5A3D)[0];
    let generate = GenerateRequest::new(
        request.task.context.clone(),
        request.task.query.clone(),
        request.max_new_tokens,
    )
    .with_sampling(
        &SamplingParams::for_request(0x5A3D, request.index as u64)
            .with_temperature(0.85)
            .with_top_k(10)
            .with_top_p(0.95),
    );
    let first = client
        .open_stream(&generate)
        .expect("sampled stream opens")
        .finish()
        .expect("sampled stream finishes");
    assert_eq!(first.finish, "length");
    assert_eq!(
        first.answer.as_deref(),
        Some(first.streamed.as_str()),
        "the final event repeats exactly what was streamed"
    );
    // Resubmitting the identical body — same prompt, same seed — must
    // stream the identical bytes: the sampler chain is keyed on the
    // request's own seed, never on engine state or wall clock.
    for round in 0..2 {
        let replay = client
            .open_stream(&generate)
            .expect("replay stream opens")
            .finish()
            .expect("replay stream finishes");
        assert_eq!(
            replay.streamed, first.streamed,
            "replay {round} diverged from the first sampled stream"
        );
        assert_eq!(replay.token_events, first.token_events);
        assert_eq!(replay.finish, first.finish);
    }
    // The blocking endpoint replays the stream's answer too: transport
    // must not affect the draw.
    let blocking = client.generate(&generate).expect("blocking replay");
    assert_eq!(blocking.answer, first.streamed);
    server.shutdown();
}

#[test]
fn invalid_sampling_params_get_a_400_typed_error() {
    let (server, client) = start_server(tiny_settings(), GatewayConfig::default());
    let cases: Vec<(&str, &str)> = vec![
        ("negative temperature", r#"{"temperature":-0.5}"#),
        (
            "NaN-free contract: non-numeric temperature",
            r#"{"temperature":"hot"}"#,
        ),
        ("zero top_k", r#"{"top_k":0}"#),
        ("negative top_k", r#"{"top_k":-3}"#),
        ("top_p above one", r#"{"top_p":1.5}"#),
        ("zero top_p", r#"{"top_p":0}"#),
        ("zero repetition_penalty", r#"{"repetition_penalty":0}"#),
        ("negative presence_penalty", r#"{"presence_penalty":-1}"#),
        ("negative seed", r#"{"seed":-1}"#),
    ];
    for (what, extra) in cases {
        let body = format!(
            "{{\"context\":\"some words here\",\"query\":\"q\",\"max_new_tokens\":4,{}}}",
            extra.trim_start_matches('{').trim_end_matches('}')
        );
        let raw = format!(
            "POST /api/v1/generate HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        );
        let response = client.send_raw(raw.as_bytes()).expect("server answers");
        assert_eq!(response.status, 400, "{what}: {}", response.body_str());
        let error = ErrorResponse::from_json(&response.body_str());
        assert!(!error.error.is_empty(), "{what}: the 400 carries a reason");
    }
    // Valid sampling fields on the same connection still serve.
    let request = &traffic(1, 0x0C)[0];
    let response = client
        .generate(
            &GenerateRequest::new(request.task.context.clone(), request.task.query.clone(), 4)
                .with_sampling(&SamplingParams::seeded(11).with_temperature(0.7)),
        )
        .expect("engine still serves after rejected bodies");
    assert!(response.generated_tokens > 0);
    server.shutdown();
}
