//! The gateway's JSON wire types.
//!
//! Responses derive the shim `serde::Serialize` and go out via
//! `serde_json::to_string`; requests come back in through hand-written
//! `from_json` constructors over the shim's [`Value`] tree (the shim's
//! `#[derive(Deserialize)]` is a no-op, so parsing is explicit — which
//! also makes the validation-to-400 mapping obvious).

use cocktail_core::SamplingParams;
use serde::Serialize;
use serde_json::Value;

/// A `/api/v1/generate` request body.
///
/// The sampling fields (`temperature` … `seed`) are optional post-v1
/// additions: bodies that omit all of them decode greedily, exactly as
/// before, so old clients keep their byte-identical answers. Any present
/// sampling field switches the request to the seeded sampler chain, with
/// defaults for the rest (see `GenerateRequest::sampling_params`).
#[derive(Debug, Clone, Serialize)]
pub struct GenerateRequest {
    /// The document/context to condition on.
    pub context: String,
    /// The query appended after the context.
    pub query: String,
    /// Decode-token budget for the answer.
    pub max_new_tokens: usize,
    /// `true` to stream tokens over SSE instead of one JSON response.
    pub stream: bool,
    /// Optional stop sequence: generation ends early once the streamed
    /// answer contains it.
    pub stop: Option<String>,
    /// Softmax temperature; `0` is greedy. Absent defaults to `1.0` once
    /// any other sampling field is present.
    pub temperature: Option<f32>,
    /// Keep only the `k` highest-logit tokens before the draw.
    pub top_k: Option<usize>,
    /// Nucleus truncation: keep the smallest prefix of the sorted
    /// distribution with cumulative probability `>= top_p`.
    pub top_p: Option<f32>,
    /// CTRL-style repetition penalty over this request's generated
    /// tokens; `1.0` disables.
    pub repetition_penalty: Option<f32>,
    /// Flat logit subtraction for tokens already generated; `0.0`
    /// disables.
    pub presence_penalty: Option<f32>,
    /// Seed of the per-request draw stream. Resubmitting the same body
    /// (same seed included) replays the sampled answer bit-identically.
    pub seed: Option<u64>,
}

/// Hard cap on `max_new_tokens`; larger asks are rejected with a 400
/// before touching the engine.
pub(crate) const MAX_NEW_TOKENS_LIMIT: usize = 4096;

impl GenerateRequest {
    /// A non-streaming request with no stop sequence.
    pub fn new(
        context: impl Into<String>,
        query: impl Into<String>,
        max_new_tokens: usize,
    ) -> Self {
        Self {
            context: context.into(),
            query: query.into(),
            max_new_tokens,
            stream: false,
            stop: None,
            temperature: None,
            top_k: None,
            top_p: None,
            repetition_penalty: None,
            presence_penalty: None,
            seed: None,
        }
    }

    /// Attaches a stop sequence.
    pub fn with_stop(mut self, stop: impl Into<String>) -> Self {
        self.stop = Some(stop.into());
        self
    }

    /// Copies a [`SamplingParams`] into the wire fields, switching the
    /// request to seeded sampled decode.
    pub fn with_sampling(mut self, params: &SamplingParams) -> Self {
        self.temperature = Some(params.temperature);
        self.top_k = params.top_k;
        self.top_p = params.top_p;
        self.repetition_penalty = Some(params.repetition_penalty);
        self.presence_penalty = Some(params.presence_penalty);
        self.seed = Some(params.seed);
        self
    }

    /// Assembles the request's sampling configuration: `None` when every
    /// sampling field is absent (greedy decode), otherwise a validated
    /// [`SamplingParams`] with defaults for the omitted fields
    /// (temperature 1, no truncation, no penalties, seed 0).
    ///
    /// # Errors
    ///
    /// Returns the [`SamplingParams::validate`] message when a present
    /// field is out of range (the gateway answers 400 with it).
    pub(crate) fn sampling_params(&self) -> Result<Option<SamplingParams>, String> {
        let any = self.temperature.is_some()
            || self.top_k.is_some()
            || self.top_p.is_some()
            || self.repetition_penalty.is_some()
            || self.presence_penalty.is_some()
            || self.seed.is_some();
        if !any {
            return Ok(None);
        }
        let mut params = SamplingParams::seeded(self.seed.unwrap_or(0));
        if let Some(t) = self.temperature {
            params = params.with_temperature(t);
        }
        if let Some(k) = self.top_k {
            params = params.with_top_k(k);
        }
        if let Some(p) = self.top_p {
            params = params.with_top_p(p);
        }
        if let Some(r) = self.repetition_penalty {
            params = params.with_repetition_penalty(r);
        }
        if let Some(p) = self.presence_penalty {
            params = params.with_presence_penalty(p);
        }
        params.validate()?;
        Ok(Some(params))
    }

    /// Serializes the request body.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request serializes")
    }

    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the gateway answers 400 with it)
    /// when the body is not a JSON object, a required field is missing or
    /// mistyped, or `max_new_tokens` is zero or above
    /// 4096 (`MAX_NEW_TOKENS_LIMIT`).
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let fields = as_object(&value, "request body")?;
        let context = require_str(fields, "context")?;
        let query = require_str(fields, "query")?;
        let max_new_tokens = require_usize(fields, "max_new_tokens")?;
        if max_new_tokens == 0 {
            return Err("max_new_tokens must be at least 1".to_string());
        }
        if max_new_tokens > MAX_NEW_TOKENS_LIMIT {
            return Err(format!(
                "max_new_tokens {max_new_tokens} exceeds the limit of {MAX_NEW_TOKENS_LIMIT}"
            ));
        }
        let stream = match field(fields, "stream") {
            None | Some(Value::Null) => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("field \"stream\" must be a boolean".to_string()),
        };
        let stop = match field(fields, "stop") {
            None | Some(Value::Null) => None,
            Some(Value::String(s)) if s.is_empty() => None,
            Some(Value::String(s)) => Some(s.clone()),
            Some(_) => return Err("field \"stop\" must be a string".to_string()),
        };
        let request = Self {
            context,
            query,
            max_new_tokens,
            stream,
            stop,
            temperature: optional_f32(fields, "temperature")?,
            top_k: optional_field_usize(fields, "top_k")?,
            top_p: optional_f32(fields, "top_p")?,
            repetition_penalty: optional_f32(fields, "repetition_penalty")?,
            presence_penalty: optional_f32(fields, "presence_penalty")?,
            seed: optional_u64(fields, "seed")?,
        };
        // Out-of-range sampling values (negative temperature, top_p > 1,
        // …) are a parse failure too, so the gateway rejects them with
        // 400 before the request touches the engine.
        request.sampling_params()?;
        Ok(request)
    }
}

/// The non-streaming `/api/v1/generate` response body.
#[derive(Debug, Clone, Serialize)]
pub struct GenerateResponse {
    /// The engine-assigned request id, e.g. `"req-3"`.
    pub id: String,
    /// The complete generated answer.
    pub answer: String,
    /// Number of committed tokens.
    pub generated_tokens: usize,
    /// Why generation ended: `"length"` or `"stop"`.
    pub finish: String,
}

impl GenerateResponse {
    /// Parses a response body (client side).
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "generate response")?;
        Ok(Self {
            id: require_str(fields, "id")?,
            answer: require_str(fields, "answer")?,
            generated_tokens: require_usize(fields, "generated_tokens")?,
            finish: require_str(fields, "finish")?,
        })
    }
}

/// One Server-Sent-Events message on a streaming `/api/v1/generate`
/// response.
///
/// Token events carry `piece` with `done: false`; the stream closes with
/// exactly one `done: true` event whose `finish` tells why (`"length"`,
/// `"stop"`, `"cancelled"`, or `"failed"`, with `error` set for the
/// latter). On `"length"`/`"stop"` the final event also repeats the full
/// `answer`, which clients can check against their concatenated pieces.
#[derive(Debug, Clone, Serialize)]
pub struct StreamEvent {
    /// The engine-assigned request id.
    pub id: String,
    /// Zero-based token index (on token events).
    pub index: usize,
    /// The decoded text piece this token contributed.
    pub piece: String,
    /// `true` on the final event of the stream.
    pub done: bool,
    /// Finish reason, set only when `done`.
    pub finish: Option<String>,
    /// The complete answer, set on successful final events.
    pub answer: Option<String>,
    /// Failure message, set when `finish` is `"failed"`.
    pub error: Option<String>,
}

impl StreamEvent {
    /// A token event.
    pub fn token(id: String, index: usize, piece: String) -> Self {
        Self {
            id,
            index,
            piece,
            done: false,
            finish: None,
            answer: None,
            error: None,
        }
    }

    /// A final event.
    pub fn done(id: String, index: usize, finish: &str, answer: Option<String>) -> Self {
        Self {
            id,
            index,
            piece: String::new(),
            done: true,
            finish: Some(finish.to_string()),
            answer,
            error: None,
        }
    }

    /// Serializes the event payload (one SSE `data:` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("event serializes")
    }

    /// Parses an event payload (client side).
    ///
    /// # Errors
    ///
    /// Returns a message when the payload is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "stream event")?;
        Ok(Self {
            id: require_str(fields, "id")?,
            index: require_usize(fields, "index")?,
            piece: require_str(fields, "piece")?,
            done: match field(fields, "done") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("field \"done\" must be a boolean".to_string()),
            },
            finish: optional_str(fields, "finish"),
            answer: optional_str(fields, "answer"),
            error: optional_str(fields, "error"),
        })
    }
}

/// One replica's slice of the `/api/v1/stats` snapshot.
///
/// All the per-engine numbers of [`StatsResponse`], labelled with the
/// replica index, so routing quality (where the KV bytes and prefix reuse
/// actually landed) is observable over the wire.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaStats {
    /// Zero-based replica index.
    pub replica: usize,
    /// Compressed KV bytes held by this replica's requests and cache.
    pub kv_bytes_in_use: usize,
    /// Requests waiting in this replica's admission queue.
    pub queued: usize,
    /// Requests currently decoding on this replica.
    pub running: usize,
    /// Context tokens this replica served from its prefix cache instead
    /// of re-prefilling.
    pub prefix_reused_tokens: usize,
    /// Pinned prefix-cache entries (0 when no cache is configured).
    pub pinned_prefix_entries: usize,
    /// Bytes held by this replica's resident prefix-cache blocks.
    pub prefix_resident_bytes: usize,
    /// Requests this replica completed since the server started.
    pub completed: usize,
    /// Requests this replica cancelled since the server started.
    pub cancelled: usize,
    /// Requests this replica failed since the server started.
    pub failed: usize,
}

impl ReplicaStats {
    /// An all-zero snapshot for the given replica index.
    pub fn empty(replica: usize) -> Self {
        Self {
            replica,
            kv_bytes_in_use: 0,
            queued: 0,
            running: 0,
            prefix_reused_tokens: 0,
            pinned_prefix_entries: 0,
            prefix_resident_bytes: 0,
            completed: 0,
            cancelled: 0,
            failed: 0,
        }
    }

    fn from_value(value: &Value) -> Result<Self, String> {
        let fields = as_object(value, "replica stats entry")?;
        Ok(Self {
            replica: require_usize(fields, "replica")?,
            kv_bytes_in_use: require_usize(fields, "kv_bytes_in_use")?,
            queued: require_usize(fields, "queued")?,
            running: require_usize(fields, "running")?,
            prefix_reused_tokens: require_usize(fields, "prefix_reused_tokens")?,
            pinned_prefix_entries: require_usize(fields, "pinned_prefix_entries")?,
            prefix_resident_bytes: require_usize(fields, "prefix_resident_bytes")?,
            completed: require_usize(fields, "completed")?,
            cancelled: require_usize(fields, "cancelled")?,
            failed: require_usize(fields, "failed")?,
        })
    }
}

/// The `/api/v1/stats` response body: a live snapshot of the engine fleet,
/// used by tests to assert zero leaked bytes/pins after disconnect storms.
///
/// The top-level counters aggregate across replicas; `replicas` breaks
/// them down per engine, and the two `*_routed` counters say how each
/// accepted request chose its replica.
#[derive(Debug, Clone, Serialize)]
pub struct StatsResponse {
    /// Compressed KV bytes held by admitted requests and resident cache.
    pub kv_bytes_in_use: usize,
    /// Requests waiting in the admission queue.
    pub queued: usize,
    /// Requests currently decoding.
    pub running: usize,
    /// Pinned prefix-cache entries (0 when no cache is configured).
    pub pinned_prefix_entries: usize,
    /// Bytes held by resident prefix-cache blocks (0 when no cache is
    /// configured). Subtracting these from `kv_bytes_in_use` gives the
    /// bytes held by requests themselves — the number that must return
    /// to zero once traffic drains.
    pub prefix_resident_bytes: usize,
    /// Context tokens served from prefix caches instead of re-prefilled,
    /// summed across replicas.
    pub prefix_reused_tokens: usize,
    /// Requests completed since the server started.
    pub completed: usize,
    /// Requests cancelled (client disconnects) since the server started.
    pub cancelled: usize,
    /// Requests failed since the server started.
    pub failed: usize,
    /// Requests routed by prefix affinity (a fingerprint-index hit).
    pub affinity_routed: usize,
    /// Requests routed by least-loaded fallback (cold prompts).
    pub least_loaded_routed: usize,
    /// Per-replica breakdown, one entry per engine, in replica order.
    pub replicas: Vec<ReplicaStats>,
}

impl StatsResponse {
    /// Parses a stats body (client side).
    ///
    /// The routing fields (`prefix_reused_tokens`, `*_routed`,
    /// `replicas`) are optional on the wire so pre-multi-replica bodies
    /// still parse; they default to zero/empty.
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "stats response")?;
        let replicas = match field(fields, "replicas") {
            None | Some(Value::Null) => Vec::new(),
            Some(Value::Array(entries)) => entries
                .iter()
                .map(ReplicaStats::from_value)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("field \"replicas\" must be an array".to_string()),
        };
        Ok(Self {
            kv_bytes_in_use: require_usize(fields, "kv_bytes_in_use")?,
            queued: require_usize(fields, "queued")?,
            running: require_usize(fields, "running")?,
            pinned_prefix_entries: require_usize(fields, "pinned_prefix_entries")?,
            prefix_resident_bytes: require_usize(fields, "prefix_resident_bytes")?,
            prefix_reused_tokens: optional_usize(fields, "prefix_reused_tokens")?,
            completed: require_usize(fields, "completed")?,
            cancelled: require_usize(fields, "cancelled")?,
            failed: require_usize(fields, "failed")?,
            affinity_routed: optional_usize(fields, "affinity_routed")?,
            least_loaded_routed: optional_usize(fields, "least_loaded_routed")?,
            replicas,
        })
    }
}

/// The `GET /api/v1/version` response body: what the server is and which
/// wire formats it speaks.
#[derive(Debug, Clone, Serialize)]
pub struct VersionResponse {
    /// The `cocktail_server` crate version.
    pub crate_version: String,
    /// The HTTP API version prefix, currently `"v1"`.
    pub api_version: String,
    /// The KV snapshot format version this server reads and writes
    /// (`cocktail_kvcache::SNAPSHOT_FORMAT_VERSION`).
    pub snapshot_format: usize,
}

impl VersionResponse {
    /// The version report for this build.
    pub fn current() -> Self {
        Self {
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
            api_version: "v1".to_string(),
            snapshot_format: cocktail_core::SNAPSHOT_FORMAT_VERSION as usize,
        }
    }

    /// Parses a version body (client side).
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "version response")?;
        Ok(Self {
            crate_version: require_str(fields, "crate_version")?,
            api_version: require_str(fields, "api_version")?,
            snapshot_format: require_usize(fields, "snapshot_format")?,
        })
    }
}

/// A `POST /api/v1/admin/snapshot` or `/api/v1/admin/restore` request
/// body: where on the server's filesystem the snapshot lives.
#[derive(Debug, Clone, Serialize)]
pub struct SnapshotRequest {
    /// Server-side snapshot path. Fleet-wide operations (no `?replica=`
    /// with several replicas) derive per-replica paths by appending
    /// `.{replica}`.
    pub path: String,
}

impl SnapshotRequest {
    /// A request for the given server-side path.
    pub fn new(path: impl Into<String>) -> Self {
        Self { path: path.into() }
    }

    /// Serializes the request body.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("request serializes")
    }

    /// Parses and validates a request body.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message (the gateway answers 400 with it)
    /// when the body is not a JSON object or `path` is missing or empty.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON body: {e}"))?;
        let fields = as_object(&value, "request body")?;
        let path = require_str(fields, "path")?;
        if path.is_empty() {
            return Err("field \"path\" must not be empty".to_string());
        }
        Ok(Self { path })
    }
}

/// One replica's slice of an admin snapshot response.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaSnapshotResult {
    /// Zero-based replica index.
    pub replica: usize,
    /// The server-side path this replica's snapshot was written to.
    pub path: String,
    /// Snapshot size in bytes (0 on error).
    pub bytes: usize,
    /// Trie nodes captured (0 on error).
    pub nodes: usize,
    /// Wall-clock milliseconds spent writing the snapshot.
    pub duration_ms: usize,
    /// Set when the snapshot failed (e.g. an unwritable path); the other
    /// numeric fields are zero then.
    pub error: Option<String>,
}

impl ReplicaSnapshotResult {
    fn from_value(value: &Value) -> Result<Self, String> {
        let fields = as_object(value, "snapshot result entry")?;
        Ok(Self {
            replica: require_usize(fields, "replica")?,
            path: require_str(fields, "path")?,
            bytes: require_usize(fields, "bytes")?,
            nodes: require_usize(fields, "nodes")?,
            duration_ms: require_usize(fields, "duration_ms")?,
            error: optional_str(fields, "error"),
        })
    }
}

/// The `POST /api/v1/admin/snapshot` response body: one entry per replica
/// the operation touched (one with `?replica=N`, all otherwise).
#[derive(Debug, Clone, Serialize)]
pub struct AdminSnapshotResponse {
    /// Per-replica results, in replica order.
    pub replicas: Vec<ReplicaSnapshotResult>,
}

impl AdminSnapshotResponse {
    /// Parses a snapshot-response body (client side).
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "admin snapshot response")?;
        match field(fields, "replicas") {
            Some(Value::Array(entries)) => Ok(Self {
                replicas: entries
                    .iter()
                    .map(ReplicaSnapshotResult::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            _ => Err("field \"replicas\" must be an array".to_string()),
        }
    }
}

/// One replica's slice of an admin restore response. Restores never fail
/// the request: an unusable snapshot (missing file, corruption, config
/// mismatch) or a busy replica reports `restored: false` with the reason
/// and the replica keeps serving from whatever state it had.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicaRestoreResult {
    /// Zero-based replica index.
    pub replica: usize,
    /// The server-side path this replica restored from.
    pub path: String,
    /// `true` when the snapshot was loaded into the prefix cache.
    pub restored: bool,
    /// Trie nodes now resident (0 when not restored).
    pub nodes: usize,
    /// Bytes held by the restored prefix blocks.
    pub resident_bytes: usize,
    /// Wall-clock milliseconds spent restoring.
    pub duration_ms: usize,
    /// Why the restore was skipped, when `restored` is `false`.
    pub reason: Option<String>,
}

impl ReplicaRestoreResult {
    fn from_value(value: &Value) -> Result<Self, String> {
        let fields = as_object(value, "restore result entry")?;
        Ok(Self {
            replica: require_usize(fields, "replica")?,
            path: require_str(fields, "path")?,
            restored: match field(fields, "restored") {
                Some(Value::Bool(b)) => *b,
                _ => return Err("field \"restored\" must be a boolean".to_string()),
            },
            nodes: require_usize(fields, "nodes")?,
            resident_bytes: require_usize(fields, "resident_bytes")?,
            duration_ms: require_usize(fields, "duration_ms")?,
            reason: optional_str(fields, "reason"),
        })
    }
}

/// The `POST /api/v1/admin/restore` response body: one entry per replica
/// the operation touched.
#[derive(Debug, Clone, Serialize)]
pub struct AdminRestoreResponse {
    /// Per-replica results, in replica order.
    pub replicas: Vec<ReplicaRestoreResult>,
}

impl AdminRestoreResponse {
    /// Parses a restore-response body (client side).
    ///
    /// # Errors
    ///
    /// Returns a message when the body is not the documented shape.
    pub fn from_json(body: &str) -> Result<Self, String> {
        let value = serde_json::from_str(body).map_err(|e| format!("invalid JSON: {e}"))?;
        let fields = as_object(&value, "admin restore response")?;
        match field(fields, "replicas") {
            Some(Value::Array(entries)) => Ok(Self {
                replicas: entries
                    .iter()
                    .map(ReplicaRestoreResult::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            _ => Err("field \"replicas\" must be an array".to_string()),
        }
    }
}

/// An error response body, used for every non-2xx answer.
#[derive(Debug, Clone, Serialize)]
pub struct ErrorResponse {
    /// Human-readable description of what went wrong.
    pub error: String,
    /// On 429: how many requests are already waiting (the position a
    /// retry would join behind).
    pub queued: Option<usize>,
    /// On 429: the admission-queue capacity.
    pub queue_limit: Option<usize>,
}

impl ErrorResponse {
    /// A plain error with no queue information.
    pub fn new(error: impl Into<String>) -> Self {
        Self {
            error: error.into(),
            queued: None,
            queue_limit: None,
        }
    }

    /// A 429 backpressure error carrying queue depth and capacity.
    pub(crate) fn backpressure(queued: usize, queue_limit: usize) -> Self {
        Self {
            error: format!(
                "admission queue is full ({queued}/{queue_limit} waiting); retry shortly"
            ),
            queued: Some(queued),
            queue_limit: Some(queue_limit),
        }
    }

    /// Serializes the error body.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("error serializes")
    }

    /// Parses an error body (client side). Unlike the other parsers this
    /// never fails: anything unrecognisable becomes the error text.
    pub fn from_json(body: &str) -> Self {
        let Ok(value) = serde_json::from_str(body) else {
            return Self::new(body.to_string());
        };
        let Ok(fields) = as_object(&value, "error response") else {
            return Self::new(body.to_string());
        };
        Self {
            error: require_str(fields, "error").unwrap_or_else(|_| body.to_string()),
            queued: require_usize(fields, "queued").ok(),
            queue_limit: require_usize(fields, "queue_limit").ok(),
        }
    }
}

fn as_object<'a>(value: &'a Value, what: &str) -> Result<&'a [(String, Value)], String> {
    match value {
        Value::Object(fields) => Ok(fields),
        _ => Err(format!("{what} must be a JSON object")),
    }
}

fn field<'a>(fields: &'a [(String, Value)], name: &str) -> Option<&'a Value> {
    fields.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn require_str(fields: &[(String, Value)], name: &str) -> Result<String, String> {
    match field(fields, name) {
        Some(Value::String(s)) => Ok(s.clone()),
        Some(_) => Err(format!("field {name:?} must be a string")),
        None => Err(format!("missing required field {name:?}")),
    }
}

fn optional_str(fields: &[(String, Value)], name: &str) -> Option<String> {
    match field(fields, name) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn require_usize(fields: &[(String, Value)], name: &str) -> Result<usize, String> {
    match field(fields, name) {
        Some(Value::Int(i)) if *i >= 0 => {
            usize::try_from(*i).map_err(|_| format!("field {name:?} is out of range"))
        }
        Some(_) => Err(format!("field {name:?} must be a non-negative integer")),
        None => Err(format!("missing required field {name:?}")),
    }
}

/// Like [`require_usize`] but an absent field reads as zero (fields added
/// after the v1 wire format).
fn optional_usize(fields: &[(String, Value)], name: &str) -> Result<usize, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(0),
        _ => require_usize(fields, name),
    }
}

/// An optional numeric field that stays `None` when absent (post-v1
/// sampling fields, where absence means "greedy", not "zero").
fn optional_field_usize(fields: &[(String, Value)], name: &str) -> Result<Option<usize>, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        _ => require_usize(fields, name).map(Some),
    }
}

/// An optional float field; integers are accepted too (`"temperature": 1`
/// is valid JSON for `1.0`).
fn optional_f32(fields: &[(String, Value)], name: &str) -> Result<Option<f32>, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) => Ok(Some(*i as f32)),
        Some(Value::Float(f)) => Ok(Some(*f as f32)),
        Some(_) => Err(format!("field {name:?} must be a number")),
    }
}

/// An optional unsigned 64-bit field (draw seeds).
fn optional_u64(fields: &[(String, Value)], name: &str) -> Result<Option<u64>, String> {
    match field(fields, name) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Int(i)) if *i >= 0 => Ok(Some(*i as u64)),
        Some(_) => Err(format!("field {name:?} must be a non-negative integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_request_round_trips() {
        let mut req = GenerateRequest::new("ctx", "q", 8).with_stop("the");
        req.stream = true;
        let parsed = GenerateRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed.context, "ctx");
        assert_eq!(parsed.query, "q");
        assert_eq!(parsed.max_new_tokens, 8);
        assert!(parsed.stream);
        assert_eq!(parsed.stop.as_deref(), Some("the"));
    }

    #[test]
    fn generate_request_validation_catches_bad_bodies() {
        for bad in [
            "not json",
            "[1,2]",
            "{\"query\":\"q\",\"max_new_tokens\":4}",
            "{\"context\":\"c\",\"query\":\"q\"}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":0}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":99999}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":-2}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"stream\":\"yes\"}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"stop\":7}",
        ] {
            assert!(GenerateRequest::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn sampling_fields_round_trip_through_the_json_shim() {
        let params = SamplingParams::seeded(42)
            .with_temperature(0.75)
            .with_top_k(20)
            .with_top_p(0.9)
            .with_repetition_penalty(1.2)
            .with_presence_penalty(0.5);
        let req = GenerateRequest::new("ctx", "q", 8).with_sampling(&params);
        let parsed = GenerateRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed.temperature, Some(0.75));
        assert_eq!(parsed.top_k, Some(20));
        assert_eq!(parsed.top_p, Some(0.9));
        assert_eq!(parsed.repetition_penalty, Some(1.2));
        assert_eq!(parsed.presence_penalty, Some(0.5));
        assert_eq!(parsed.seed, Some(42));
        let rebuilt = parsed.sampling_params().unwrap().expect("sampled");
        assert_eq!(rebuilt, params);
    }

    #[test]
    fn absent_sampling_fields_mean_greedy_and_unknown_fields_are_ignored() {
        // A pre-sampling v1 body parses as a greedy request.
        let v1 = "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4}";
        let parsed = GenerateRequest::from_json(v1).unwrap();
        assert_eq!(parsed.sampling_params().unwrap(), None);
        // Unknown fields from a newer client are ignored, not rejected.
        let newer = "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\
                     \"future_knob\":true,\"seed\":7}";
        let parsed = GenerateRequest::from_json(newer).unwrap();
        let params = parsed.sampling_params().unwrap().expect("seed present");
        assert_eq!(params.seed, 7);
        assert_eq!(params.temperature, 1.0);
        // A bare integer temperature is accepted as a float.
        let int_temp = "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\
                        \"temperature\":1}";
        let parsed = GenerateRequest::from_json(int_temp).unwrap();
        assert_eq!(parsed.temperature, Some(1.0));
    }

    #[test]
    fn invalid_sampling_params_fail_parsing() {
        for bad in [
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"temperature\":-0.5}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"top_p\":1.5}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"top_p\":0}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"top_k\":0}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"top_k\":-3}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"repetition_penalty\":0}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"presence_penalty\":-1}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"seed\":-1}",
            "{\"context\":\"c\",\"query\":\"q\",\"max_new_tokens\":4,\"temperature\":\"hot\"}",
        ] {
            assert!(GenerateRequest::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn stream_events_round_trip() {
        let token = StreamEvent::token("req-1".into(), 3, " beam".into());
        let parsed = StreamEvent::from_json(&token.to_json()).unwrap();
        assert_eq!(parsed.piece, " beam");
        assert!(!parsed.done);
        let done = StreamEvent::done("req-1".into(), 4, "stop", Some("answer".into()));
        let parsed = StreamEvent::from_json(&done.to_json()).unwrap();
        assert!(parsed.done);
        assert_eq!(parsed.finish.as_deref(), Some("stop"));
        assert_eq!(parsed.answer.as_deref(), Some("answer"));
    }

    #[test]
    fn stats_round_trip_keeps_the_per_replica_breakdown() {
        let mut first = ReplicaStats::empty(0);
        first.kv_bytes_in_use = 640;
        first.prefix_reused_tokens = 17;
        let mut second = ReplicaStats::empty(1);
        second.queued = 2;
        let stats = StatsResponse {
            kv_bytes_in_use: 640,
            queued: 2,
            running: 0,
            pinned_prefix_entries: 0,
            prefix_resident_bytes: 0,
            prefix_reused_tokens: 17,
            completed: 5,
            cancelled: 1,
            failed: 0,
            affinity_routed: 4,
            least_loaded_routed: 2,
            replicas: vec![first, second],
        };
        let parsed = StatsResponse::from_json(&serde_json::to_string(&stats).unwrap()).unwrap();
        assert_eq!(parsed.replicas.len(), 2);
        assert_eq!(parsed.replicas[0].kv_bytes_in_use, 640);
        assert_eq!(parsed.replicas[0].prefix_reused_tokens, 17);
        assert_eq!(parsed.replicas[1].queued, 2);
        assert_eq!(parsed.affinity_routed, 4);
        assert_eq!(parsed.least_loaded_routed, 2);
        assert_eq!(parsed.prefix_reused_tokens, 17);
    }

    #[test]
    fn stats_parsing_tolerates_pre_replica_bodies() {
        let v1 = "{\"kv_bytes_in_use\":0,\"queued\":0,\"running\":0,\
                  \"pinned_prefix_entries\":0,\"prefix_resident_bytes\":0,\
                  \"completed\":3,\"cancelled\":0,\"failed\":0}";
        let parsed = StatsResponse::from_json(v1).unwrap();
        assert_eq!(parsed.completed, 3);
        assert_eq!(parsed.prefix_reused_tokens, 0);
        assert_eq!(parsed.affinity_routed, 0);
        assert!(parsed.replicas.is_empty());
    }

    #[test]
    fn version_response_round_trips() {
        let version = VersionResponse::current();
        let parsed = VersionResponse::from_json(&serde_json::to_string(&version).unwrap()).unwrap();
        assert_eq!(parsed.api_version, "v1");
        assert_eq!(parsed.crate_version, env!("CARGO_PKG_VERSION"));
        assert_eq!(
            parsed.snapshot_format,
            cocktail_core::SNAPSHOT_FORMAT_VERSION as usize
        );
    }

    #[test]
    fn snapshot_request_requires_a_path() {
        let req = SnapshotRequest::new("/tmp/x.snap");
        let parsed = SnapshotRequest::from_json(&req.to_json()).unwrap();
        assert_eq!(parsed.path, "/tmp/x.snap");
        for bad in ["{}", "{\"path\":\"\"}", "{\"path\":7}", "[]", "not json"] {
            assert!(SnapshotRequest::from_json(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn admin_responses_round_trip() {
        let snap = AdminSnapshotResponse {
            replicas: vec![ReplicaSnapshotResult {
                replica: 0,
                path: "/tmp/x.snap.0".into(),
                bytes: 4096,
                nodes: 3,
                duration_ms: 2,
                error: None,
            }],
        };
        let parsed =
            AdminSnapshotResponse::from_json(&serde_json::to_string(&snap).unwrap()).unwrap();
        assert_eq!(parsed.replicas.len(), 1);
        assert_eq!(parsed.replicas[0].bytes, 4096);
        assert!(parsed.replicas[0].error.is_none());

        let restore = AdminRestoreResponse {
            replicas: vec![ReplicaRestoreResult {
                replica: 1,
                path: "/tmp/x.snap.1".into(),
                restored: false,
                nodes: 0,
                resident_bytes: 0,
                duration_ms: 0,
                reason: Some("replica busy".into()),
            }],
        };
        let parsed =
            AdminRestoreResponse::from_json(&serde_json::to_string(&restore).unwrap()).unwrap();
        assert!(!parsed.replicas[0].restored);
        assert_eq!(parsed.replicas[0].reason.as_deref(), Some("replica busy"));
    }

    #[test]
    fn backpressure_error_carries_queue_depth() {
        let err = ErrorResponse::backpressure(3, 4);
        let parsed = ErrorResponse::from_json(&err.to_json());
        assert_eq!(parsed.queued, Some(3));
        assert_eq!(parsed.queue_limit, Some(4));
    }
}
