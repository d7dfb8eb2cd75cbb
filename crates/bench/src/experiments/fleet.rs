//! The gateway experiments: the HTTP/SSE gateway against the in-process
//! engine, and prefix-affinity routing across a replica fleet.

use super::{
    burst_traffic, cached_engine, deployment_for, pipeline, profile, serve_request, serving_config,
    solo_runs, Finding, Findings, TokenWindow,
};
use crate::{build_hw_profile, print_fields, print_rows};
use cocktail_core::{PrefixCacheConfig, RoutePolicy, Router};
use cocktail_server::{
    EngineSettings, GatewayClient, GatewayConfig, GatewayServer, GenerateRequest, StatsResponse,
    StreamHandle, StreamOutcome,
};
use cocktail_workloads::{TrafficConfig, TrafficGenerator, TrafficRequest};
use serde::Serialize;
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Driving a gateway: what both experiments do over real localhost sockets
// ---------------------------------------------------------------------------

/// Starts a gateway of `replicas` engines (prefix caches on) and a client.
fn start_gateway(replicas: usize) -> (GatewayServer, GatewayClient) {
    let settings = EngineSettings::new(profile(), serving_config())
        .with_prefix_cache(PrefixCacheConfig::default());
    let config = GatewayConfig::default().with_replicas(replicas);
    let server = GatewayServer::start(settings, config).expect("bind localhost");
    let client = GatewayClient::new(server.addr());
    (server, client)
}

/// Opens one SSE stream per request, sequentially: submission order fixes
/// each tokenizer's vocabulary-intern order, which keeps gateway runs
/// comparable byte for byte with in-process and solo runs.
fn open_streams(client: &GatewayClient, traffic: &[TrafficRequest]) -> Vec<StreamHandle> {
    let open = |r: &TrafficRequest| {
        let request = GenerateRequest::new(
            r.task.context.clone(),
            r.task.query.clone(),
            r.max_new_tokens,
        );
        client.open_stream(&request).expect("stream opens")
    };
    traffic.iter().map(open).collect()
}

/// Serves the traffic through a fresh gateway, one concurrently consumed
/// stream per request. Returns the fleet-wide token window, each stream's
/// wire id and outcome in submission order, and the final stats.
fn stream_through_gateway(
    traffic: &[TrafficRequest],
    replicas: usize,
) -> (TokenWindow, Vec<(String, StreamOutcome)>, StatsResponse) {
    let (server, client) = start_gateway(replicas);
    let consume = |mut handle: StreamHandle| {
        thread::spawn(move || {
            let mut window = TokenWindow::default();
            while let Some(event) = handle.next_event().expect("stream event") {
                if !event.done {
                    window.observe(Instant::now());
                }
            }
            let id = handle.id().expect("stream saw events").to_string();
            (window, id, handle.finish().expect("stream finishes"))
        })
    };
    let clients: Vec<_> = open_streams(&client, traffic)
        .into_iter()
        .map(consume)
        .collect();
    let mut fleet_window = TokenWindow::default();
    let mut streams = Vec::with_capacity(traffic.len());
    for worker in clients {
        let (window, id, outcome) = worker.join().expect("client thread");
        fleet_window.merge(window);
        streams.push((id, outcome));
    }
    let stats = client.stats().expect("stats endpoint");
    server.shutdown();
    (fleet_window, streams, stats)
}

/// A disconnect storm through a fresh gateway: clients with a disconnect
/// point read that many tokens and drop their socket, the others read to
/// the end. Every client reads at least one token first, so every prompt
/// was encoded (and interned) before its cancel. Returns each stream's wire
/// id and, for survivors, its streamed text, plus the stats once every
/// disconnect was reaped.
fn storm_through_gateway(
    storm: &[TrafficRequest],
    replicas: usize,
) -> (Vec<(String, Option<String>)>, StatsResponse) {
    assert!(
        storm.iter().any(|r| r.cancel_after_tokens.is_some())
            && storm.iter().any(|r| r.cancel_after_tokens.is_none()),
        "the storm trace must mix disconnecting and surviving clients"
    );
    let (server, client) = start_gateway(replicas);
    let workers: Vec<_> = storm
        .iter()
        .zip(open_streams(&client, storm))
        .map(|(request, mut handle)| {
            let disconnect_after = request.cancel_after_tokens;
            thread::spawn(move || {
                handle
                    .read_tokens(disconnect_after.unwrap_or(1))
                    .expect("partial read");
                let id = handle.id().expect("storm stream saw events").to_string();
                let survivor = match disconnect_after {
                    Some(_) => {
                        handle.abort();
                        None
                    }
                    None => Some(handle.finish().expect("survivor finishes").streamed),
                };
                (id, survivor)
            })
        })
        .collect();
    let results = workers
        .into_iter()
        .map(|w| w.join().expect("storm client thread"))
        .collect();

    let deadline = Instant::now() + Duration::from_secs(60);
    let settled = loop {
        let stats = client.stats().expect("stats endpoint");
        if stats.queued == 0
            && stats.running == 0
            && stats.completed + stats.cancelled >= storm.len()
        {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "storm failed to settle; last stats: {stats:?}"
        );
        thread::sleep(Duration::from_millis(10));
    };
    server.shutdown();
    (results, settled)
}

/// Which replica served a fleet stream, from its wire id (`"r1:req-3"`).
fn wire_replica(id: &str) -> usize {
    id.strip_prefix('r')
        .and_then(|rest| rest.split(':').next())
        .and_then(|digits| digits.parse().ok())
        .expect("fleet wire ids carry the replica index")
}

/// Whether every served answer equals a solo pipeline replaying exactly
/// the request subsequence its replica saw, in arrival order. Each
/// replica's tokenizer interns words in its own arrival order, so the
/// reference must replay per replica, not per fleet; requests without a
/// served answer (cancelled ones) are replayed too — their prompts were
/// encoded — just not compared.
fn matches_replica_replay(
    traffic: &[TrafficRequest],
    placements: &[usize],
    served: &[Option<&str>],
) -> bool {
    let replicas = placements.iter().max().map_or(0, |last| last + 1);
    (0..replicas).all(|replica| {
        let on_replica = |i: &usize| placements[*i] == replica;
        let indices: Vec<usize> = (0..traffic.len()).filter(on_replica).collect();
        let solo = solo_runs(&pipeline(), indices.iter().map(|&i| &traffic[i]));
        indices
            .iter()
            .zip(solo)
            .all(|(&i, solo)| served[i].map_or(true, |s| s == solo.answer))
    })
}

/// What a settled disconnect storm must show, from its `(cancelled,
/// completed, requests)` counts and per-replica `(replica, request-owned KV
/// bytes, prefix-cache pins)` leak counters: both outcomes occurred and
/// account for every request, survivors matched their solo replay, and no
/// replica holds anything a request owned.
fn check_storm(
    findings: &mut Findings,
    (cancelled, completed, requests): (usize, usize, usize),
    survivors_byte_identical: bool,
    leaks: impl IntoIterator<Item = (usize, usize, usize)>,
) {
    findings.deterministic(
        cancelled > 0 && completed > 0 && cancelled + completed == requests,
        format!(
            "the disconnect storm cancelled {cancelled} and completed {completed} of {requests} \
             requests — it must mix both and account for all"
        ),
    );
    findings.deterministic(
        survivors_byte_identical,
        "a storm survivor diverged from its replica's solo replay",
    );
    for (replica, leaked_kv_bytes, pinned_entries) in leaks {
        findings.deterministic(
            leaked_kv_bytes == 0,
            format!(
                "replica {replica} still holds {leaked_kv_bytes} request-owned KV bytes after \
                 the storm settled"
            ),
        );
        findings.deterministic(
            pinned_entries == 0,
            format!(
                "replica {replica} still holds {pinned_entries} prefix-cache pins after the \
                 storm settled"
            ),
        );
    }
}

// ---------------------------------------------------------------------------
// Gateway saturation — the HTTP gateway versus the in-process engine
// ---------------------------------------------------------------------------

/// One streamed request of the gateway-saturation experiment.
#[derive(Debug, Clone, Serialize)]
pub(super) struct GatewaySaturationRow {
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
pub(super) struct GatewaySaturationReport {
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

/// The serving gateway under closed-loop load, measured against the same
/// engine driven in-process.
///
/// Phase 1 (saturation): branching-prefix traffic is served twice — once
/// by an in-process `ServingEngine::step_events` loop, once through the
/// HTTP gateway with one concurrent SSE-streaming client per request over
/// real localhost sockets. Both sides measure steady-state throughput the
/// same way (a [`TokenWindow`], best of `repetitions` runs). The
/// HTTP/SSE/channel overhead is the experiment's subject.
///
/// Phase 2 (disconnect storm): shared-prefix traffic with a seeded
/// cancellation mix through a fresh gateway; cancelling clients drop their
/// sockets mid-stream. Once the storm settles the engine must hold no
/// request-owned KV bytes and no pinned prefix entries, and every survivor
/// must match its solo sequential run.
///
/// # Panics
///
/// Panics if the gateway fails to serve or a client hits an I/O error;
/// byte-identity and leak violations are *recorded*, so the check can
/// report exactly which request diverged.
pub(super) fn gateway_saturation(repetitions: usize) -> (String, GatewaySaturationReport) {
    let repetitions = repetitions.max(1);
    let requests = 12usize;
    let max_new_tokens = 24usize;
    let config = burst_traffic(requests, max_new_tokens, 96).with_branching_prefix(2, 24, 8);
    let traffic = TrafficGenerator::new(config, 0x6A7E_3A7E).generate();

    // Phase 1a — the in-process reference: submit everything, stream
    // through step_events, timestamp every token batch.
    let mut reference: Vec<String> = Vec::new();
    let mut in_process_rate = 0.0f64;
    for rep in 0..repetitions {
        let mut engine = cached_engine();
        let ids: Vec<_> = traffic
            .iter()
            .map(|r| engine.submit(serve_request(r)))
            .collect();
        let mut window = TokenWindow::default();
        while !engine.is_idle() {
            let events = engine.step_events().expect("in-process serving succeeds");
            let now = Instant::now();
            for _ in events.iter().filter(|event| event.token.is_some()) {
                window.observe(now);
            }
        }
        in_process_rate = in_process_rate.max(window.tokens_per_s());
        if rep == 0 {
            let answer = |id| engine.take_outcome(id).map(|o| o.outcome.answer);
            reference = ids
                .into_iter()
                .map(answer)
                .collect::<Option<_>>()
                .expect("every reference request completed");
        }
    }

    // Phase 1b — the same traffic through the gateway.
    let mut gateway_rate = 0.0f64;
    let mut rows: Vec<GatewaySaturationRow> = Vec::new();
    for _ in 0..repetitions {
        let (window, streams, _) = stream_through_gateway(&traffic, 1);
        gateway_rate = gateway_rate.max(window.tokens_per_s());
        let row = |(i, (_, outcome)): (usize, &(String, StreamOutcome))| GatewaySaturationRow {
            request: i,
            max_new_tokens: traffic[i].max_new_tokens,
            streamed_tokens: outcome.token_events,
            byte_identical: outcome.streamed == reference[i]
                && outcome.answer.as_deref() == Some(reference[i].as_str()),
        };
        let rep_rows: Vec<_> = streams.iter().enumerate().map(row).collect();
        if rows.is_empty() || rep_rows.iter().any(|r| !r.byte_identical) {
            rows = rep_rows;
        }
    }

    // Phase 2 — the disconnect storm: shared-prefix traffic, a seeded
    // fraction of clients dropping their sockets mid-stream. One replica
    // serves everything, so its replay is the whole trace in order.
    let storm_requests = 8usize;
    let storm = TrafficGenerator::new(
        TrafficConfig::small(storm_requests)
            .with_max_new_tokens(12)
            .with_shared_prefix(2, 24)
            .with_cancellations(450),
        0x57_0231,
    )
    .generate();
    let (storm_results, settled) = storm_through_gateway(&storm, 1);
    let survivors: Vec<Option<&str>> = storm_results.iter().map(|(_, s)| s.as_deref()).collect();
    let storm_survivors_byte_identical =
        matches_replica_replay(&storm, &vec![0; storm_requests], &survivors);

    print_rows(
        "Gateway saturation: SSE streaming over TCP vs the in-process engine (Llama2-7B sim)",
        &rows,
    );
    let report = GatewaySaturationReport {
        requests,
        in_process_tokens_per_s: in_process_rate,
        gateway_tokens_per_s: gateway_rate,
        relative_throughput: gateway_rate / in_process_rate.max(1e-9),
        rows,
        storm_requests,
        storm_cancelled: settled.cancelled,
        storm_completed: settled.completed,
        storm_survivors_byte_identical,
        kv_bytes_after_storm: settled.kv_bytes_in_use,
        prefix_resident_after_storm: settled.prefix_resident_bytes,
        leaked_kv_bytes: settled
            .kv_bytes_in_use
            .saturating_sub(settled.prefix_resident_bytes),
        pinned_entries_after_storm: settled.pinned_prefix_entries,
    };
    print_fields("Gateway saturation: throughput and storm hygiene", &report);
    let note = format!(
        "{requests} concurrent SSE clients (branching-prefix traffic, {max_new_tokens} \
         tokens each) against the Llama2-7B sim profile over real localhost sockets, \
         best of {repetitions} runs per mode; then an {storm_requests}-client \
         disconnect storm (450/1000 drop rate, shared prefixes, prefix cache on) \
         checked for leaked KV bytes and pins"
    );
    (note, report)
}

/// Gateway saturation's invariants: byte identity over sockets, the 0.9x
/// overhead budget, and a disconnect storm that leaks nothing.
pub(super) fn check_gateway_saturation(report: &GatewaySaturationReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.deterministic(
        report.rows.len() == report.requests,
        format!(
            "{} stream rows, expected {}",
            report.rows.len(),
            report.requests
        ),
    );
    for row in &report.rows {
        findings.deterministic(
            row.byte_identical,
            format!(
                "request {} streamed bytes that differ from its in-process answer",
                row.request
            ),
        );
        findings.deterministic(
            row.streamed_tokens > 0,
            format!("request {} never streamed a token", row.request),
        );
    }
    findings.wall_clock(
        report.relative_throughput >= 0.9,
        format!(
            "gateway throughput {:.1} tok/s is below 0.9x the in-process {:.1} tok/s ({:.2}x)",
            report.gateway_tokens_per_s, report.in_process_tokens_per_s, report.relative_throughput
        ),
    );
    let storm = (
        report.storm_cancelled,
        report.storm_completed,
        report.storm_requests,
    );
    let leaks = [(0, report.leaked_kv_bytes, report.pinned_entries_after_storm)];
    check_storm(
        &mut findings,
        storm,
        report.storm_survivors_byte_identical,
        leaks,
    );
    findings.0
}

// ---------------------------------------------------------------------------
// Replica affinity — multi-replica routing versus round-robin and hwsim
// ---------------------------------------------------------------------------

/// Per-replica leak counters once the cross-replica cancellation storm
/// settled.
#[derive(Debug, Clone, Serialize)]
pub(super) struct ReplicaLeakRow {
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
pub(super) struct ReplicaAffinityReport {
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

/// Multi-replica serving under skewed hot-tenant branching traffic:
/// prefix-affinity routing versus round-robin, the fleet gateway versus a
/// single-replica gateway, and a cross-replica cancellation storm.
///
/// Phase 1 (in-process): the same Zipf-skewed branching trace is served
/// by a two-replica [`Router`] twice — prefix-affinity and round-robin.
/// Affinity must strictly beat round-robin on prefix-reused tokens
/// (deterministic: affinity pins each tenant's branches to one replica's
/// trie, round-robin smears them), and every routed output is checked
/// against its replica's solo replay ([`matches_replica_replay`]).
///
/// Phase 2 (gateway): the trace runs through the HTTP gateway once with
/// one replica and once with the fleet; aggregate SSE tokens/s are
/// measured the same way on both and their ratio is compared against the
/// `hwsim::deployment` N-replica prediction (`DeploymentModel::replicated`).
/// The per-replica wire ids identify which engine served each stream, so
/// fleet byte-identity is checked against per-replica solo replays too.
///
/// Phase 3 (storm): skewed branching traffic with a seeded cancellation
/// mix hits the fleet gateway. Once settled, *every* replica must report
/// zero request-held KV bytes and zero pins.
///
/// # Panics
///
/// Panics if serving fails or a client hits an I/O error; criterion
/// violations (byte divergence, leaks, lost reuse) are *recorded*, so the
/// check can report exactly what broke.
pub(super) fn replica_affinity(repetitions: usize) -> (String, ReplicaAffinityReport) {
    let repetitions = repetitions.max(1);
    let replicas = 2usize;
    let requests = 15usize;
    let groups = 3usize;
    // Zipf-skewed hot-tenant branching traffic: three tenants share
    // 24-word preambles, each request branches after the preamble, and
    // tenant 0 draws the bulk of the traffic (s = 1.2).
    let config = burst_traffic(requests, 12, 96)
        .with_branching_prefix(groups, 24, 8)
        .with_tenant_skew(1200);
    let traffic = TrafficGenerator::new(config, 0x5EAF_00D1).generate();

    // Phase 1 — in-process: affinity versus round-robin on the same
    // two-replica fleet.
    let run_fleet = |policy: RoutePolicy| {
        let mut router = Router::new(replicas, profile(), serving_config())
            .expect("router config is valid")
            .with_policy(policy)
            .with_prefix_cache(PrefixCacheConfig::default());
        let ids: Vec<_> = traffic
            .iter()
            .map(|r| router.submit(serve_request(r)))
            .collect();
        let mut window = TokenWindow::default();
        while !router.is_idle() {
            let events = router.step_events().expect("fleet serving succeeds");
            let now = Instant::now();
            for _ in events.iter().filter(|routed| routed.event.token.is_some()) {
                window.observe(now);
            }
        }
        let placements: Vec<usize> = ids.iter().map(|id| id.replica).collect();
        let answer = |id| router.take_outcome(id).map(|o| o.outcome.answer);
        let answers: Vec<String> = ids
            .into_iter()
            .map(answer)
            .collect::<Option<_>>()
            .expect("every routed request completed");
        let reused = router.prefix_reused_tokens();
        (
            answers,
            placements,
            reused,
            window.tokens_per_s(),
            router.routing_stats(),
        )
    };
    let (affinity_answers, affinity_placements, affinity_reused, affinity_rate, routing_stats) =
        run_fleet(RoutePolicy::PrefixAffinity);
    let (_, _, round_robin_reused, round_robin_rate, _) = run_fleet(RoutePolicy::RoundRobin);
    let served: Vec<Option<&str>> = affinity_answers.iter().map(|a| Some(a.as_str())).collect();
    let routed_byte_identical = matches_replica_replay(&traffic, &affinity_placements, &served);

    // Phase 2 — the gateway: the same trace once through one replica,
    // once through the fleet, timed identically.
    let mut single_rate = 0.0f64;
    let mut fleet_rate = 0.0f64;
    let mut fleet_run = None;
    for _ in 0..repetitions {
        let (window, _, _) = stream_through_gateway(&traffic, 1);
        single_rate = single_rate.max(window.tokens_per_s());
        let (window, streams, stats) = stream_through_gateway(&traffic, replicas);
        fleet_rate = fleet_rate.max(window.tokens_per_s());
        fleet_run.get_or_insert((streams, stats));
    }
    let (fleet_streams, fleet_stats) = fleet_run.expect("at least one fleet run");
    let fleet_placements: Vec<usize> = fleet_streams
        .iter()
        .map(|(id, _)| wire_replica(id))
        .collect();
    let mut gateway_replica_requests = vec![0usize; replicas];
    for &replica in &fleet_placements {
        gateway_replica_requests[replica] += 1;
    }
    let served: Vec<Option<&str>> = fleet_streams
        .iter()
        .map(|(_, outcome)| Some(outcome.streamed.as_str()))
        .collect();
    let gateway_byte_identical = matches_replica_replay(&traffic, &fleet_placements, &served);

    // The hwsim fleet prediction the measured scaling is held against.
    let deployment = deployment_for(&profile());
    let kv_profile = build_hw_profile("Cocktail");
    let predicted = |n: usize| {
        deployment
            .replicated(n)
            .max_throughput(&kv_profile, 64)
            .expect("the replicas fit")
    };
    let (predicted_single, predicted_fleet) = (predicted(1), predicted(replicas));
    let predicted_scaling = predicted_fleet.tokens_per_s / predicted_single.tokens_per_s;

    // Phase 3 — cancellation storm across the fleet.
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
    let (storm_results, settled) = storm_through_gateway(&storm, replicas);
    let storm_placements: Vec<usize> = storm_results
        .iter()
        .map(|(id, _)| wire_replica(id))
        .collect();
    let survivors: Vec<Option<&str>> = storm_results.iter().map(|(_, s)| s.as_deref()).collect();
    let storm_leaks = settled
        .replicas
        .iter()
        .map(|r| ReplicaLeakRow {
            replica: r.replica,
            leaked_kv_bytes: r.kv_bytes_in_use.saturating_sub(r.prefix_resident_bytes),
            pinned_entries: r.pinned_prefix_entries,
        })
        .collect();

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
        measured_scaling: fleet_rate / single_rate.max(1e-9),
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
        storm_survivors_byte_identical: matches_replica_replay(
            &storm,
            &storm_placements,
            &survivors,
        ),
        storm_leaks,
    };
    print_fields(
        "Replica affinity: prefix-routed vs round-robin placement on a 2-replica fleet \
         (skewed tenants, Llama2-7B sim)",
        &report,
    );
    let note = format!(
        "{requests} Zipf-skewed ({groups}-tenant) branching requests on a \
         {replicas}-replica fleet (Llama2-7B sim, prefix caches on): prefix-affinity \
         vs round-robin reuse in-process, then the HTTP gateway at 1 vs {replicas} \
         replicas (best of {repetitions} runs) against the hwsim replicated() \
         prediction, then a {storm_requests}-client cross-replica disconnect storm \
         checked for per-replica leaks"
    );
    (note, report)
}

/// Replica affinity's invariants: per-replica byte identity, the reuse win
/// of affinity routing, the fleet-scaling band and a leak-free storm.
pub(super) fn check_replica_affinity(report: &ReplicaAffinityReport) -> Vec<Finding> {
    let mut findings = Findings::default();
    findings.deterministic(
        report.routed_byte_identical,
        "an in-process routed output diverged from its replica's solo replay",
    );
    findings.deterministic(
        report.gateway_byte_identical,
        "a fleet-gateway stream diverged from its replica's solo replay",
    );
    findings.deterministic(
        report.affinity_reused_tokens > report.round_robin_reused_tokens,
        format!(
            "prefix-affinity reused {} tokens, not strictly more than round-robin's {}",
            report.affinity_reused_tokens, report.round_robin_reused_tokens
        ),
    );
    findings.wall_clock(
        report.affinity_tokens_per_s >= 0.9 * report.round_robin_tokens_per_s,
        format!(
            "affinity routing served {:.1} tok/s, below 0.9x round-robin's {:.1} tok/s",
            report.affinity_tokens_per_s, report.round_robin_tokens_per_s
        ),
    );
    // Tenant leaders go least-loaded, every follower by fingerprint.
    findings.deterministic(
        report.affinity_routed > 0
            && report.least_loaded_routed > 0
            && report.affinity_routed + report.least_loaded_routed == report.requests,
        format!(
            "the router placed {} requests by fingerprint and {} least-loaded out of {}",
            report.affinity_routed, report.least_loaded_routed, report.requests
        ),
    );
    // The hwsim fleet model must predict exactly linear scaling (replicas
    // share nothing), and the measured ratio must land inside the band
    // that prediction implies on shared hardware: the fleet may not beat
    // the linear prediction by more than measurement noise, and may not
    // fall below a fixed overhead budget of the single-replica rate (the
    // replicas are threads on the host CPU, so wall-clock speedup is
    // capped by the core count, not by the modeled accelerator).
    findings.deterministic(
        (report.predicted_scaling - report.replicas as f64).abs() <= 1e-9,
        format!(
            "hwsim predicts {:.4}x scaling for {} share-nothing replicas, expected exactly {}x",
            report.predicted_scaling, report.replicas, report.replicas
        ),
    );
    let (scaling_floor, scaling_ceiling) = (0.75, 1.25 * report.predicted_scaling);
    findings.wall_clock(
        (scaling_floor..=scaling_ceiling).contains(&report.measured_scaling),
        format!(
            "measured gateway scaling {:.2}x is outside [{scaling_floor:.2}x, \
             {scaling_ceiling:.2}x] (floor: fleet routing overhead budget; ceiling: 1.25x the \
             hwsim {:.2}x fleet prediction)",
            report.measured_scaling, report.predicted_scaling
        ),
    );
    findings.deterministic(
        report.gateway_replica_requests.len() == report.replicas
            && !report.gateway_replica_requests.contains(&0),
        format!(
            "a fleet replica served no requests (split {:?})",
            report.gateway_replica_requests
        ),
    );
    findings.deterministic(
        report.gateway_affinity_routed + report.gateway_least_loaded_routed == report.requests,
        format!(
            "the gateway's routing counters cover {} + {} of {} requests",
            report.gateway_affinity_routed, report.gateway_least_loaded_routed, report.requests
        ),
    );
    findings.deterministic(
        report.storm_leaks.len() == report.replicas,
        format!(
            "{} replicas reported leak counters, expected {}",
            report.storm_leaks.len(),
            report.replicas
        ),
    );
    let storm = (
        report.storm_cancelled,
        report.storm_completed,
        report.storm_requests,
    );
    let leaks = report.storm_leaks.iter();
    check_storm(
        &mut findings,
        storm,
        report.storm_survivors_byte_identical,
        leaks.map(|l| (l.replica, l.leaked_kv_bytes, l.pinned_entries)),
    );
    findings.0
}
