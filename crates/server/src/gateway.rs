//! The HTTP gateway: TCP acceptor, connection worker pool, and request
//! routing over a pool of engine-driver replicas.
//!
//! Lifecycle of a connection: the nonblocking acceptor hands sockets to a
//! fixed pool of worker threads; each worker parses pipelined HTTP/1.1
//! requests incrementally, routes them, and — for streaming responses —
//! interleaves SSE writes with a socket-level disconnect probe so a
//! vanished client turns into [`ServingEngine::cancel`] within one poll
//! interval (budget, queue slot, and prefix pins come back immediately).
//!
//! With [`GatewayConfig::with_replicas`] the gateway runs N independent
//! engines, each on its own driver thread with its own KV budget and
//! prefix trie. Every `/api/v1/generate` submit is routed by the
//! replica pool: prompts whose preamble fingerprints a
//! replica has served before go back to that replica (fleet-wide prefix
//! reuse), cold prompts go to the least-loaded replica, and a `429` is
//! answered only when *every* replica's admission queue is full.
//!
//! Endpoints (the versioned `/api/v1/` surface):
//!
//! | Method | Path                      | Behaviour                                  |
//! |--------|---------------------------|--------------------------------------------|
//! | POST   | `/api/v1/generate`        | Generate; SSE stream when `"stream": true` |
//! | GET    | `/api/v1/stats`           | Fleet snapshot with per-replica breakdown  |
//! | GET    | `/api/v1/version`         | Crate + API + snapshot-format versions     |
//! | POST   | `/api/v1/admin/snapshot`  | Write prefix-cache snapshot(s) to disk     |
//! | POST   | `/api/v1/admin/restore`   | Restore prefix cache(s) from disk          |
//! | GET    | `/healthz`                | Liveness probe (unversioned, stable)       |
//!
//! The admin endpoints take a JSON body `{"path": "..."}` naming a
//! server-side file and an optional `?replica=N` query to target one
//! replica; without it the whole fleet snapshots/restores (per-replica
//! paths get a `.{replica}` suffix when there are several). Restores are
//! only honoured on idle replicas and *degrade* — a busy replica, missing
//! file, corrupt snapshot, or config mismatch reports
//! `restored: false` with a reason while the replica keeps serving.
//!
//! Over-capacity submits answer `429` with the queue depth and an
//! `X-Replica-Count` header; malformed HTTP answers the status from
//! [`ParseError::status`](crate::http::ParseError) and closes.
//!
//! [`ServingEngine::cancel`]: cocktail_core::ServingEngine::cancel

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::api::{
    ErrorResponse, GenerateRequest, GenerateResponse, SnapshotRequest, StatsResponse, StreamEvent,
    VersionResponse,
};
use crate::engine::{finish_str, EngineDriver, EngineSettings, GatewayEvent, SubmitSpec};
use crate::http::{self, ParseError, Request, RequestParser};
use crate::router::{PoolReply, ReplicaPool};

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 picks a free port).
    pub addr: String,
    /// Connection worker threads (concurrent connections served).
    pub workers: usize,
    /// Admission-queue capacity per replica: submits beyond this on
    /// *every* replica answer 429.
    pub queue_limit: usize,
    /// Engine replicas behind the prefix-affinity router (minimum 1).
    pub replicas: usize,
    /// Request-head byte cap (431 beyond it).
    pub max_head_bytes: usize,
    /// Request-body byte cap (413 beyond it).
    pub max_body_bytes: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 16,
            queue_limit: 64,
            replicas: 1,
            max_head_bytes: http::DEFAULT_MAX_HEAD_BYTES,
            max_body_bytes: http::DEFAULT_MAX_BODY_BYTES,
        }
    }
}

impl GatewayConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count (minimum 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Sets the admission-queue capacity.
    pub fn with_queue_limit(mut self, queue_limit: usize) -> Self {
        self.queue_limit = queue_limit;
        self
    }

    /// Sets the engine-replica count (minimum 1). Each replica is an
    /// independent engine with its own KV budget and prefix trie.
    pub fn with_replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas.max(1);
        self
    }
}

/// How often streaming handlers probe for client disconnects and the
/// acceptor polls for shutdown.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Read timeout on idle keep-alive connections between requests; each
/// timeout re-checks the server stop flag.
const IDLE_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// A running HTTP gateway over one [`ServingEngine`].
///
/// [`ServingEngine`]: cocktail_core::ServingEngine
///
/// ```no_run
/// use cocktail_server::{EngineSettings, GatewayConfig, GatewayServer};
/// use cocktail_core::CocktailConfig;
/// use cocktail_model::ModelProfile;
///
/// let settings = EngineSettings::new(ModelProfile::tiny(), CocktailConfig::default());
/// let server = GatewayServer::start(settings, GatewayConfig::default())?;
/// println!("listening on http://{}", server.addr());
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct GatewayServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    drivers: Vec<EngineDriver>,
    pool: Arc<ReplicaPool>,
}

impl GatewayServer {
    /// Binds the listener, spawns one engine driver per configured
    /// replica plus the worker pool, and starts accepting connections.
    /// Every replica is built from the same `settings` (same model, same
    /// budget) so any replica can serve any request byte-identically.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn start(settings: EngineSettings, config: GatewayConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let drivers: Vec<EngineDriver> = (0..config.replicas.max(1))
            .map(|replica| EngineDriver::spawn(settings.clone(), config.queue_limit, replica))
            .collect();
        let pool = Arc::new(ReplicaPool::new(
            drivers.iter().map(|d| d.commands.clone()).collect(),
        ));
        let stop = Arc::new(AtomicBool::new(false));

        let (conn_tx, conn_rx) = std::sync::mpsc::channel::<TcpStream>();
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let conn_rx = Arc::clone(&conn_rx);
            let pool = Arc::clone(&pool);
            let stop_flag = Arc::clone(&stop);
            let config = config.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("gateway-worker-{i}"))
                    .spawn(move || worker_loop(conn_rx, pool, stop_flag, config))
                    .expect("spawn gateway worker"),
            );
        }

        let stop_flag = Arc::clone(&stop);
        let acceptor = std::thread::Builder::new()
            .name("gateway-acceptor".to_string())
            .spawn(move || accept_loop(listener, conn_tx, stop_flag))
            .expect("spawn gateway acceptor");

        Ok(Self {
            addr,
            stop,
            acceptor: Some(acceptor),
            workers,
            drivers,
            pool,
        })
    }

    /// The bound address (with the actual port when `:0` was requested).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live fleet snapshot, the same data `/api/v1/stats` serves.
    pub fn stats(&self) -> StatsResponse {
        self.pool.stats()
    }

    /// Writes prefix-cache snapshots, the same operation
    /// `POST /api/v1/admin/snapshot` performs: one replica with
    /// `Some(index)`, the whole fleet with `None` (per-replica paths get a
    /// `.{replica}` suffix when there are several).
    pub fn snapshot(
        &self,
        replica: Option<usize>,
        path: &str,
    ) -> crate::api::AdminSnapshotResponse {
        self.pool.snapshot(replica, path)
    }

    /// Stops accepting, waits for in-flight connections to finish, shuts
    /// every engine driver down, and returns the final aggregated
    /// snapshot — what the shutdown-cleanliness tests assert zero
    /// bytes/pins on.
    pub fn shutdown(mut self) -> StatsResponse {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // The acceptor dropped the connection sender; workers drain any
        // sockets already handed over and then exit.
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let finals: Vec<_> = self
            .drivers
            .drain(..)
            .enumerate()
            .map(|(replica, driver)| driver.shutdown(replica))
            .collect();
        self.pool.aggregate(finals)
    }
}

fn accept_loop(listener: TcpListener, connections: Sender<TcpStream>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                if connections.send(stream).is_err() {
                    return;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

fn worker_loop(
    connections: Arc<Mutex<Receiver<TcpStream>>>,
    pool: Arc<ReplicaPool>,
    stop: Arc<AtomicBool>,
    config: GatewayConfig,
) {
    loop {
        let stream = {
            let guard = connections.lock().expect("connection queue lock");
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                // Connection errors tear down that one socket, never the
                // worker.
                let _ = handle_connection(stream, &pool, &stop, &config);
            }
            Err(_) => return,
        }
    }
}

/// Serves one connection until the client closes it, a parse error forces
/// a close, or the server is shutting down.
fn handle_connection(
    mut stream: TcpStream,
    pool: &ReplicaPool,
    stop: &AtomicBool,
    config: &GatewayConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IDLE_READ_TIMEOUT))?;
    let mut parser = RequestParser::with_limits(config.max_head_bytes, config.max_body_bytes);
    let mut buf = [0u8; 8192];
    loop {
        // Drain complete requests already buffered before reading more.
        loop {
            match parser.next_request() {
                Ok(Some(request)) => {
                    let keep_alive = route(&mut stream, &request, pool)?;
                    if !keep_alive || request.wants_close() {
                        return Ok(());
                    }
                }
                Ok(None) => break,
                Err(err) => {
                    write_parse_error(&mut stream, &err)?;
                    return Ok(());
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => parser.push(&buf[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn write_parse_error(stream: &mut TcpStream, err: &ParseError) -> std::io::Result<()> {
    let body = ErrorResponse::new(err.to_string()).to_json();
    stream.write_all(&http::simple_response(
        err.status(),
        "application/json",
        body.as_bytes(),
    ))
}

fn write_json(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let length = body.len().to_string();
    let headers = [
        ("Content-Type", "application/json"),
        ("Content-Length", length.as_str()),
    ];
    stream.write_all(&http::response_head(status, &headers))?;
    stream.write_all(body.as_bytes())
}

/// Every path the gateway serves (used to tell 405 from 404).
const KNOWN_TARGETS: &[&str] = &[
    "/api/v1/generate",
    "/api/v1/stats",
    "/api/v1/version",
    "/api/v1/admin/snapshot",
    "/api/v1/admin/restore",
    "/healthz",
];

/// Which admin operation a request asked for.
enum AdminOp {
    Snapshot,
    Restore,
}

/// Routes one parsed request. Returns `false` when the connection must
/// close afterwards (streaming responses and errors of unknown framing).
fn route(stream: &mut TcpStream, request: &Request, pool: &ReplicaPool) -> std::io::Result<bool> {
    // The admin endpoints take a query string; everything else ignores it.
    let (path, query) = match request.target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (request.target.as_str(), None),
    };
    match (request.method.as_str(), path) {
        ("POST", "/api/v1/generate") => handle_generate(stream, request, pool),
        ("GET", "/api/v1/stats") => {
            let stats = pool.stats();
            write_json(
                stream,
                200,
                &serde_json::to_string(&stats).expect("stats serialize"),
            )?;
            Ok(true)
        }
        ("GET", "/api/v1/version") => {
            write_json(
                stream,
                200,
                &serde_json::to_string(&VersionResponse::current()).expect("version serialize"),
            )?;
            Ok(true)
        }
        ("POST", "/api/v1/admin/snapshot") => {
            handle_admin(stream, request, pool, query, AdminOp::Snapshot)
        }
        ("POST", "/api/v1/admin/restore") => {
            handle_admin(stream, request, pool, query, AdminOp::Restore)
        }
        ("GET", "/healthz") => {
            write_json(stream, 200, "{\"status\":\"ok\"}")?;
            Ok(true)
        }
        (method, _) if method != "GET" && method != "POST" && method != "HEAD" => {
            write_json(
                stream,
                501,
                &ErrorResponse::new(format!("method {method} is not implemented")).to_json(),
            )?;
            Ok(true)
        }
        (_, target) if KNOWN_TARGETS.contains(&target) => {
            write_json(
                stream,
                405,
                &ErrorResponse::new(format!(
                    "method {} is not allowed on {target}",
                    request.method
                ))
                .to_json(),
            )?;
            Ok(true)
        }
        (_, target) => {
            write_json(
                stream,
                404,
                &ErrorResponse::new(format!("no such endpoint {target}")).to_json(),
            )?;
            Ok(true)
        }
    }
}

/// Parses the admin `?replica=N` selector. `None` means the whole fleet;
/// an unknown parameter, non-numeric index, or out-of-range replica is a
/// 400.
fn parse_replica(query: Option<&str>, replicas: usize) -> Result<Option<usize>, String> {
    let Some(query) = query else {
        return Ok(None);
    };
    let mut selected = None;
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        if key != "replica" {
            return Err(format!("unknown query parameter {key:?}"));
        }
        let index: usize = value.parse().map_err(|_| {
            format!("query parameter \"replica\" must be an integer, got {value:?}")
        })?;
        if index >= replicas {
            return Err(format!(
                "replica {index} is out of range (the fleet has {replicas})"
            ));
        }
        selected = Some(index);
    }
    Ok(selected)
}

/// `POST /api/v1/admin/{snapshot,restore}`: validate the replica selector
/// and the `{"path": ...}` body, then fan out through the pool. Snapshot
/// failures surface as a 500 with per-replica detail; restores always
/// answer 200 because they degrade per replica by design.
fn handle_admin(
    stream: &mut TcpStream,
    request: &Request,
    pool: &ReplicaPool,
    query: Option<&str>,
    op: AdminOp,
) -> std::io::Result<bool> {
    let replica = match parse_replica(query, pool.replicas()) {
        Ok(replica) => replica,
        Err(message) => {
            write_json(stream, 400, &ErrorResponse::new(message).to_json())?;
            return Ok(true);
        }
    };
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            write_json(
                stream,
                400,
                &ErrorResponse::new("request body is not valid UTF-8").to_json(),
            )?;
            return Ok(true);
        }
    };
    let snapshot_request = match SnapshotRequest::from_json(body) {
        Ok(parsed) => parsed,
        Err(message) => {
            write_json(stream, 400, &ErrorResponse::new(message).to_json())?;
            return Ok(true);
        }
    };
    match op {
        AdminOp::Snapshot => {
            let response = pool.snapshot(replica, &snapshot_request.path);
            let status = if response.replicas.iter().any(|r| r.error.is_some()) {
                500
            } else {
                200
            };
            write_json(
                stream,
                status,
                &serde_json::to_string(&response).expect("snapshot response serialize"),
            )?;
        }
        AdminOp::Restore => {
            let response = pool.restore(replica, &snapshot_request.path);
            write_json(
                stream,
                200,
                &serde_json::to_string(&response).expect("restore response serialize"),
            )?;
        }
    }
    Ok(true)
}

fn handle_generate(
    stream: &mut TcpStream,
    request: &Request,
    pool: &ReplicaPool,
) -> std::io::Result<bool> {
    let body = match std::str::from_utf8(&request.body) {
        Ok(body) => body,
        Err(_) => {
            write_json(
                stream,
                400,
                &ErrorResponse::new("request body is not valid UTF-8").to_json(),
            )?;
            return Ok(true);
        }
    };
    let generate = match GenerateRequest::from_json(body) {
        Ok(generate) => generate,
        Err(message) => {
            write_json(stream, 400, &ErrorResponse::new(message).to_json())?;
            return Ok(true);
        }
    };

    let (events_tx, events) = std::sync::mpsc::channel();
    let reply = pool.submit(
        SubmitSpec {
            context: generate.context.clone(),
            query: generate.query.clone(),
            max_new_tokens: generate.max_new_tokens,
            stop: generate.stop.clone(),
            // from_json already validated the sampling fields, so this
            // cannot fail here.
            sampling: generate.sampling_params().unwrap_or_default(),
        },
        &events_tx,
    );
    // Drop the handler's sender so a dying driver (the only other holder)
    // surfaces as a recv error instead of a hang.
    drop(events_tx);
    let (replica, id, queue_position, wire_id) = match reply {
        PoolReply::Gone => {
            write_json(
                stream,
                500,
                &ErrorResponse::new("engine driver is gone").to_json(),
            )?;
            return Ok(false);
        }
        PoolReply::Busy {
            queued,
            queue_limit,
        } => {
            let body = ErrorResponse::backpressure(queued, queue_limit).to_json();
            let length = body.len().to_string();
            let replicas = pool.replicas().to_string();
            let headers = [
                ("Content-Type", "application/json"),
                ("Content-Length", length.as_str()),
                ("Retry-After", "1"),
                ("X-Replica-Count", replicas.as_str()),
            ];
            stream.write_all(&http::response_head(429, &headers))?;
            stream.write_all(body.as_bytes())?;
            return Ok(true);
        }
        PoolReply::Accepted {
            replica,
            id,
            queue_position,
            wire_id,
        } => (replica, id, queue_position, wire_id),
    };

    // Keeps the replica's in-flight count raised until this handler is
    // done with the request, however it ends.
    let _inflight = pool.inflight_guard(replica);
    if generate.stream {
        stream_response(stream, wire_id, queue_position, events, pool, replica, id)?;
        // SSE streams are terminal for the connection: the client saw
        // `Connection: close` in the head.
        Ok(false)
    } else {
        blocking_response(stream, wire_id, events)?;
        Ok(true)
    }
}

/// Non-streaming generate: wait for the terminal event, answer one JSON
/// document.
fn blocking_response(
    stream: &mut TcpStream,
    id: String,
    events: Receiver<GatewayEvent>,
) -> std::io::Result<()> {
    loop {
        match events.recv() {
            Ok(GatewayEvent::Token { .. }) => continue,
            Ok(GatewayEvent::Done {
                answer,
                generated_tokens,
                finish,
            }) => {
                let response = GenerateResponse {
                    id,
                    answer,
                    generated_tokens,
                    finish: finish_str(finish).to_string(),
                };
                return write_json(
                    stream,
                    200,
                    &serde_json::to_string(&response).expect("response serialize"),
                );
            }
            Ok(GatewayEvent::Failed { message }) => {
                return write_json(stream, 400, &ErrorResponse::new(message).to_json());
            }
            Ok(GatewayEvent::Cancelled { .. }) | Err(_) => {
                return write_json(
                    stream,
                    500,
                    &ErrorResponse::new("request was cancelled server-side").to_json(),
                );
            }
        }
    }
}

/// Streaming generate: chunked SSE, one event per token, a probe for
/// client disconnects between events, and a final `done` event.
fn stream_response(
    stream: &mut TcpStream,
    id: String,
    queue_position: Option<usize>,
    events: Receiver<GatewayEvent>,
    pool: &ReplicaPool,
    replica: usize,
    request_id: cocktail_core::RequestId,
) -> std::io::Result<()> {
    // Clients see where they joined the admission queue before the first
    // token arrives (the streaming twin of the 429 body's queue depth).
    let position = queue_position.map(|p| p.to_string());
    let mut headers = vec![
        ("Content-Type", "text/event-stream"),
        ("Transfer-Encoding", "chunked"),
        ("Cache-Control", "no-cache"),
        ("Connection", "close"),
    ];
    if let Some(position) = position.as_deref() {
        headers.push(("X-Queue-Position", position));
    }
    stream.write_all(&http::response_head(200, &headers))?;
    let mut cancelled = false;
    loop {
        match events.recv_timeout(POLL_INTERVAL) {
            Ok(GatewayEvent::Token { index, piece }) => {
                let event = StreamEvent::token(id.clone(), index, piece);
                let payload = http::sse_event(&event.to_json());
                if stream.write_all(&http::chunk(payload.as_bytes())).is_err() && !cancelled {
                    // Client went away mid-write: free the engine side,
                    // then keep draining events until the terminal one.
                    pool.cancel(replica, request_id);
                    cancelled = true;
                }
            }
            Ok(terminal) => {
                let (finish, answer, index, error) = match terminal {
                    GatewayEvent::Done {
                        answer,
                        generated_tokens,
                        finish,
                    } => (finish_str(finish), Some(answer), generated_tokens, None),
                    GatewayEvent::Cancelled { generated_tokens } => {
                        ("cancelled", None, generated_tokens, None)
                    }
                    GatewayEvent::Failed { message } => ("failed", None, 0, Some(message)),
                    GatewayEvent::Token { .. } => unreachable!("matched above"),
                };
                let mut event = StreamEvent::done(id, index, finish, answer);
                event.error = error;
                let payload = http::sse_event(&event.to_json());
                let _ = stream.write_all(&http::chunk(payload.as_bytes()));
                let _ = stream.write_all(http::last_chunk());
                return Ok(());
            }
            Err(RecvTimeoutError::Timeout) => {
                if !cancelled && client_gone(stream) {
                    pool.cancel(replica, request_id);
                    cancelled = true;
                }
            }
            Err(RecvTimeoutError::Disconnected) => {
                // Driver died; close the stream without a proper finish.
                let _ = stream.write_all(http::last_chunk());
                return Ok(());
            }
        }
    }
}

/// Socket-level disconnect probe: a nonblocking `peek` returning `Ok(0)`
/// means the peer sent FIN (or reset). Extra buffered request bytes (a
/// pipelining client) read as "still alive".
fn client_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut probe = [0u8; 1];
    let gone = match stream.peek(&mut probe) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = stream.set_nonblocking(false);
    gone
}
