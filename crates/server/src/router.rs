//! The gateway's replica pool: N engine drivers behind one
//! prefix-affinity route decision.
//!
//! The pool owns one [`EngineDriver`] per replica plus a shared
//! [`PrefixFingerprintIndex`]. A submit snapshots per-replica load, asks
//! the index for the replica whose prefix trie most plausibly holds the
//! prompt's preamble, then offers the request to that replica first and to the
//! remaining replicas in least-loaded order. Only when *every* replica
//! answers `Busy` does the gateway see a 429 — a saturated hot replica
//! degrades to a cold-cache admission elsewhere instead of a refusal.
//!
//! Load is tracked gateway-side with per-replica in-flight counters
//! (incremented on accept, decremented when the owning connection handler
//! finishes) so routing never blocks on a driver round-trip.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Mutex;

use cocktail_core::{PrefixFingerprintIndex, RequestId, RouterConfig};

use crate::api::{
    AdminRestoreResponse, AdminSnapshotResponse, ReplicaRestoreResult, ReplicaSnapshotResult,
    ReplicaStats, StatsResponse,
};
use crate::engine::{EngineCommand, GatewayEvent, SubmitReply, SubmitSpec};

/// What the pool replied to a submit.
pub(crate) enum PoolReply {
    /// Some replica accepted the request.
    Accepted {
        /// The replica that admitted it.
        replica: usize,
        /// The engine-assigned id on that replica.
        id: RequestId,
        /// Admission-queue position on that replica, when queued.
        queue_position: Option<usize>,
        /// The id string clients see: `"req-3"` with one replica (the v1
        /// wire format), `"r1:req-3"` with several.
        wire_id: String,
    },
    /// Every replica's admission queue is at capacity.
    Busy {
        /// Waiting requests on the least-loaded replica.
        queued: usize,
        /// That replica's admission-queue capacity.
        queue_limit: usize,
    },
    /// Every driver thread is gone (fatal engine errors or shutdown).
    Gone,
}

/// Decrements a replica's in-flight counter when the connection handler
/// that owns the request finishes (however it finishes).
pub(crate) struct InflightGuard<'a> {
    counter: &'a AtomicUsize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The gateway-side router over N engine drivers.
pub(crate) struct ReplicaPool {
    commands: Vec<Sender<EngineCommand>>,
    index: Mutex<PrefixFingerprintIndex>,
    inflight: Vec<AtomicUsize>,
}

impl ReplicaPool {
    /// Builds a pool over the given per-replica command senders.
    pub fn new(commands: Vec<Sender<EngineCommand>>) -> Self {
        let replicas = commands.len();
        assert!(replicas > 0, "a pool needs at least one replica");
        Self {
            commands,
            index: Mutex::new(PrefixFingerprintIndex::new(
                replicas,
                RouterConfig::default(),
            )),
            inflight: (0..replicas).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    /// Number of replicas behind the pool.
    pub fn replicas(&self) -> usize {
        self.commands.len()
    }

    /// Routes and submits one request. The preferred replica (longest
    /// fingerprint match, or least-loaded for cold prompts) is tried
    /// first; `Busy` replicas are skipped in favour of the next candidate
    /// and only an all-busy pool reports `Busy` upward.
    pub fn submit(&self, spec: SubmitSpec, events: &Sender<GatewayEvent>) -> PoolReply {
        let loads: Vec<usize> = self
            .inflight
            .iter()
            .map(|c| c.load(Ordering::SeqCst))
            .collect();
        let decision = {
            let mut index = self.index.lock().expect("fingerprint index lock");
            index.route(&spec.context, &loads)
        };

        // Candidate order: the routed replica, then the rest least-loaded
        // first (ties to the lower index, as in the index's cold fallback).
        let mut rest: Vec<usize> = (0..self.replicas())
            .filter(|&r| r != decision.replica)
            .collect();
        rest.sort_by_key(|&r| (loads[r], r));
        let candidates = std::iter::once(decision.replica).chain(rest);

        let mut busiest_fallback: Option<(usize, usize)> = None;
        let mut any_alive = false;
        for replica in candidates {
            let (reply_tx, reply_rx) = std::sync::mpsc::channel();
            let sent = self.commands[replica].send(EngineCommand::Submit {
                spec: spec.clone(),
                events: events.clone(),
                reply: reply_tx,
            });
            let Some(reply) = sent.ok().and_then(|()| reply_rx.recv().ok()) else {
                // This driver is dead; try the next one.
                continue;
            };
            any_alive = true;
            match reply {
                SubmitReply::Accepted { id, queue_position } => {
                    {
                        let mut index = self.index.lock().expect("fingerprint index lock");
                        index.record(&spec.context, replica);
                    }
                    self.inflight[replica].fetch_add(1, Ordering::SeqCst);
                    let wire_id = if self.replicas() == 1 {
                        id.to_string()
                    } else {
                        format!("r{replica}:{id}")
                    };
                    return PoolReply::Accepted {
                        replica,
                        id,
                        queue_position,
                        wire_id,
                    };
                }
                SubmitReply::Busy {
                    queued,
                    queue_limit,
                } => {
                    // Remember the shallowest queue for the 429 body.
                    let better = busiest_fallback.map_or(true, |(q, _)| queued < q);
                    if better {
                        busiest_fallback = Some((queued, queue_limit));
                    }
                }
            }
        }
        match (any_alive, busiest_fallback) {
            (true, Some((queued, queue_limit))) => PoolReply::Busy {
                queued,
                queue_limit,
            },
            (true, None) | (false, _) => PoolReply::Gone,
        }
    }

    /// An RAII guard that keeps `replica`'s in-flight count raised until
    /// the owning connection handler finishes.
    pub(crate) fn inflight_guard(&self, replica: usize) -> InflightGuard<'_> {
        InflightGuard {
            counter: &self.inflight[replica],
        }
    }

    /// Cancels a request on its owning replica.
    pub fn cancel(&self, replica: usize, id: RequestId) {
        let _ = self.commands[replica].send(EngineCommand::Cancel { id });
    }

    /// Which replicas an admin operation targets, and the path each uses:
    /// a specific replica gets the path verbatim, a fleet-wide operation
    /// over several replicas appends `.{replica}` so the files stay
    /// distinct (a single-replica fleet also uses the path verbatim, so
    /// snapshots taken before scaling out keep restoring).
    fn admin_targets(&self, replica: Option<usize>, path: &str) -> Vec<(usize, String)> {
        match replica {
            Some(r) => vec![(r, path.to_string())],
            None if self.replicas() == 1 => vec![(0, path.to_string())],
            None => (0..self.replicas())
                .map(|r| (r, format!("{path}.{r}")))
                .collect(),
        }
    }

    /// Asks the targeted replicas (one with `Some(replica)`, the whole
    /// fleet with `None`) to write their prefix-cache snapshots. A dead
    /// driver contributes an error row instead of failing the fleet.
    pub fn snapshot(&self, replica: Option<usize>, path: &str) -> AdminSnapshotResponse {
        let replicas = self
            .admin_targets(replica, path)
            .into_iter()
            .map(|(replica, path)| {
                let (reply, rx) = std::sync::mpsc::channel();
                self.commands[replica]
                    .send(EngineCommand::Snapshot {
                        path: path.clone().into(),
                        reply,
                    })
                    .ok()
                    .and_then(|()| rx.recv().ok())
                    .unwrap_or_else(|| ReplicaSnapshotResult {
                        replica,
                        path,
                        bytes: 0,
                        nodes: 0,
                        duration_ms: 0,
                        error: Some("engine driver is gone".to_string()),
                    })
            })
            .collect();
        AdminSnapshotResponse { replicas }
    }

    /// Asks the targeted replicas to restore their prefix caches from
    /// disk. Busy or dead replicas (and unusable snapshots) report
    /// `restored: false` with a reason; the fleet call never fails as a
    /// whole.
    pub(crate) fn restore(&self, replica: Option<usize>, path: &str) -> AdminRestoreResponse {
        let replicas = self
            .admin_targets(replica, path)
            .into_iter()
            .map(|(replica, path)| {
                let (reply, rx) = std::sync::mpsc::channel();
                self.commands[replica]
                    .send(EngineCommand::Restore {
                        path: path.clone().into(),
                        reply,
                    })
                    .ok()
                    .and_then(|()| rx.recv().ok())
                    .unwrap_or_else(|| ReplicaRestoreResult {
                        replica,
                        path,
                        restored: false,
                        nodes: 0,
                        resident_bytes: 0,
                        duration_ms: 0,
                        reason: Some("engine driver is gone".to_string()),
                    })
            })
            .collect();
        AdminRestoreResponse { replicas }
    }

    /// Fans a stats query out to every driver and aggregates, keeping the
    /// per-replica breakdown. A dead driver contributes an all-zero row.
    pub fn stats(&self) -> StatsResponse {
        let replicas: Vec<ReplicaStats> = self
            .commands
            .iter()
            .enumerate()
            .map(|(replica, commands)| {
                let (reply, rx) = std::sync::mpsc::channel();
                commands
                    .send(EngineCommand::Stats { reply })
                    .ok()
                    .and_then(|()| rx.recv().ok())
                    .unwrap_or_else(|| ReplicaStats::empty(replica))
            })
            .collect();
        self.aggregate(replicas)
    }

    /// Aggregates per-replica snapshots into the wire shape, attaching
    /// the pool's routing counters.
    pub fn aggregate(&self, replicas: Vec<ReplicaStats>) -> StatsResponse {
        let routing = self.index.lock().expect("fingerprint index lock").stats();
        let mut total = StatsResponse {
            kv_bytes_in_use: 0,
            queued: 0,
            running: 0,
            pinned_prefix_entries: 0,
            prefix_resident_bytes: 0,
            prefix_reused_tokens: 0,
            completed: 0,
            cancelled: 0,
            failed: 0,
            affinity_routed: routing.affinity_routed,
            least_loaded_routed: routing.least_loaded_routed,
            replicas: Vec::new(),
        };
        for r in &replicas {
            total.kv_bytes_in_use += r.kv_bytes_in_use;
            total.queued += r.queued;
            total.running += r.running;
            total.pinned_prefix_entries += r.pinned_prefix_entries;
            total.prefix_resident_bytes += r.prefix_resident_bytes;
            total.prefix_reused_tokens += r.prefix_reused_tokens;
            total.completed += r.completed;
            total.cancelled += r.cancelled;
            total.failed += r.failed;
        }
        total.replicas = replicas;
        total
    }
}
