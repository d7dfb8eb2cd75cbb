//! `cocktail_server` — the HTTP/1.1 serving gateway over the Cocktail
//! [`ServingEngine`].
//!
//! The workspace builds without crates.io access, so the gateway is
//! hand-rolled on [`std::net::TcpListener`]: an acceptor thread, a small
//! connection worker pool, and a dedicated engine-driver thread that owns
//! the (single-threaded) [`ServingEngine`] and multiplexes its
//! continuous-batching `step_events` loop out to connections over mpsc
//! channels.
//!
//! What it serves (the versioned `/api/v1/` surface; the unversioned
//! `/api/generate` and `/api/stats` of the first release answer `404`):
//!
//! * `POST /api/v1/generate` — JSON in, either one JSON answer or (with
//!   `"stream": true`) a chunked Server-Sent-Events stream delivering
//!   every token the step it is committed.
//! * A client closing its socket mid-stream is detected within a few
//!   milliseconds and mapped to [`ServingEngine::cancel`]: KV budget,
//!   queue slot, and prefix-cache pins come back immediately.
//! * Over-capacity traffic backpressures through the engine's admission
//!   queue; submits beyond the configured cap answer `429` with the queue
//!   depth instead of buffering unboundedly.
//! * `GET /api/v1/stats` — live engine snapshot (KV bytes, queue depth,
//!   pinned prefix entries) so load tests can assert zero leaks.
//! * `GET /api/v1/version` — crate version, API version, and the KV
//!   snapshot format version this server reads and writes.
//! * `POST /api/v1/admin/snapshot` / `POST /api/v1/admin/restore` —
//!   persist and reload the prefix-cache trie (per replica with
//!   `?replica=N`, fleet-wide without), so a restarted or freshly scaled
//!   gateway serves its first warm request at warm TTFT.
//! * [`GatewayConfig::with_replicas`] runs N independent engines behind
//!   a prefix-affinity router: prompts return to the replica whose trie
//!   already holds their preamble, cold prompts go least-loaded, `429`
//!   only when every replica is saturated, and `/api/v1/stats` gains a
//!   per-replica breakdown plus routing counters.
//!
//! Quickstart (see `examples/gateway.rs` for the runnable version):
//!
//! ```no_run
//! use cocktail_core::CocktailConfig;
//! use cocktail_model::ModelProfile;
//! use cocktail_server::{EngineSettings, GatewayConfig, GatewayServer};
//!
//! let settings = EngineSettings::new(ModelProfile::tiny(), CocktailConfig::default());
//! let server = GatewayServer::start(settings, GatewayConfig::default())?;
//! println!("curl -X POST http://{}/api/v1/generate", server.addr());
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! [`ServingEngine`]: cocktail_core::ServingEngine
//! [`ServingEngine::cancel`]: cocktail_core::ServingEngine::cancel

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
mod engine;
pub mod gateway;
pub mod http;
mod router;

pub use api::{
    AdminRestoreResponse, AdminSnapshotResponse, ErrorResponse, GenerateRequest, GenerateResponse,
    ReplicaRestoreResult, ReplicaSnapshotResult, ReplicaStats, SnapshotRequest, StatsResponse,
    StreamEvent, VersionResponse, MAX_NEW_TOKENS_LIMIT,
};
pub use client::{ClientError, GatewayClient, RawResponse, StreamHandle, StreamOutcome};
pub use engine::EngineSettings;
pub use gateway::{GatewayConfig, GatewayServer};
