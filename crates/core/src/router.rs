//! Prefix-affinity placement across N independent serving-engine replicas.
//!
//! One [`crate::ServingEngine`] saturates one accelerator; heavy traffic
//! needs a fleet. The fleet-level problem is *placement*: the token-trie
//! prefix cache ([`crate::PrefixCache`]) only pays off when a branching
//! conversation keeps landing on the replica where its shared preamble KV
//! is already resident. The [`PrefixFingerprintIndex`] answers this
//! cheaply:
//!
//! * Every routed context is summarised as rolling fingerprints of its
//!   leading words at fixed stride boundaries. Fingerprints are computed
//!   on *words*, not token ids, so the index is replica-agnostic (token
//!   ids are interned per engine).
//! * An incoming request probes the index longest-boundary-first. A hit
//!   means some replica has served (and likely still caches) that prefix:
//!   the request is routed by *rendezvous hash* of the matched fingerprint
//!   over its owners, so repeated branches of one preamble pick the same
//!   replica without any coordination.
//! * A cold prompt (no boundary matches) falls back to the least-loaded
//!   replica, then records its own fingerprints so the next branch of the
//!   same conversation is warm.
//!
//! The index is advisory: a stale entry (the replica has since evicted the
//! prefix) costs a cache miss, never correctness. Byte-identity holds per
//! replica — each request's output equals a solo [`crate::CocktailPipeline`]
//! replay (one request at a time through the same serving path) of *that
//! replica's* request subsequence in submission order. The
//! index only decides placement; the HTTP gateway's replica pool
//! (`cocktail_server`) owns the replicas and drives them.

use std::collections::{HashMap, VecDeque};

/// Tuning knobs for the [`PrefixFingerprintIndex`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Maximum number of leading context words fingerprinted per request.
    /// Prefixes longer than this window still match on the window's final
    /// boundary.
    pub window_words: usize,
    /// A fingerprint boundary is recorded every `stride_words` words (and
    /// at the end of the window). Smaller strides match shorter shared
    /// preambles at the cost of more index entries.
    pub stride_words: usize,
    /// Cap on distinct fingerprints held by the index; the oldest entries
    /// are dropped first. Dropped entries only cost affinity, never
    /// correctness.
    pub max_entries: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            window_words: 64,
            stride_words: 8,
            max_entries: 4096,
        }
    }
}

/// Where one request was routed and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// The chosen replica.
    pub replica: usize,
    /// Number of leading words of the longest matched fingerprint
    /// boundary (0 on a cold route).
    pub matched_words: usize,
    /// `true` when the decision came from a fingerprint match; `false`
    /// for the least-loaded cold fallback.
    pub affinity: bool,
}

/// Cumulative routing counters (the gateway reports these in
/// `/api/v1/stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RouterStats {
    /// Requests routed via a fingerprint match.
    pub affinity_routed: usize,
    /// Cold requests routed to the least-loaded replica.
    pub least_loaded_routed: usize,
}

/// The shared prefix-fingerprint index: maps rolling word-prefix
/// fingerprints to the replicas that have served them.
///
/// The index never inspects replica tries directly — probing N tries per
/// request would serialize the fleet on every submit. Instead it is an
/// *approximation* maintained on the routing path itself: recording is
/// O(window/stride) hash inserts, routing is O(window/stride) lookups.
///
/// # Example
///
/// ```
/// use cocktail_core::{PrefixFingerprintIndex, RouterConfig};
///
/// let mut index = PrefixFingerprintIndex::new(2, RouterConfig::default());
/// let preamble = "alpha beta gamma delta epsilon zeta eta theta";
/// // First branch of the conversation: cold, goes to the less loaded
/// // replica 1 and records its fingerprints there.
/// let cold = index.route(&format!("{preamble} first branch"), &[3, 1]);
/// assert!(!cold.affinity);
/// assert_eq!(cold.replica, 1);
/// index.record(&format!("{preamble} first branch"), cold.replica);
/// // Second branch shares the preamble: routed back to replica 1 even
/// // though it is now the *more* loaded one.
/// let warm = index.route(&format!("{preamble} second branch"), &[0, 9]);
/// assert!(warm.affinity);
/// assert_eq!(warm.replica, 1);
/// ```
#[derive(Debug)]
pub struct PrefixFingerprintIndex {
    replicas: usize,
    config: RouterConfig,
    owners: HashMap<u64, Vec<usize>>,
    /// Insertion order of fingerprints, for FIFO eviction at
    /// `max_entries`.
    order: VecDeque<u64>,
    stats: RouterStats,
}

impl PrefixFingerprintIndex {
    /// An empty index over `replicas` replicas.
    ///
    /// # Panics
    ///
    /// Panics when `replicas` is zero or the config has a zero stride or
    /// window.
    pub fn new(replicas: usize, config: RouterConfig) -> Self {
        assert!(replicas > 0, "at least one replica is required");
        assert!(
            config.stride_words > 0 && config.window_words > 0,
            "fingerprint window and stride must be non-zero"
        );
        Self {
            replicas,
            config,
            owners: HashMap::new(),
            order: VecDeque::new(),
            stats: RouterStats::default(),
        }
    }

    /// Cumulative routing counters.
    pub fn stats(&self) -> RouterStats {
        self.stats
    }

    /// Number of distinct fingerprints currently held.
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// `true` when no fingerprint has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Rolling FNV-1a fingerprints of the context's leading words, one per
    /// stride boundary: `[(words_covered, fingerprint), ...]`, shortest
    /// first.
    fn boundaries(&self, context: &str) -> Vec<(usize, u64)> {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut hash = FNV_OFFSET;
        let mut out = Vec::new();
        for (i, word) in context
            .split_whitespace()
            .take(self.config.window_words)
            .enumerate()
        {
            for byte in word.bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(FNV_PRIME);
            }
            // A separator byte keeps "ab c" and "a bc" distinct.
            hash ^= 0xFF;
            hash = hash.wrapping_mul(FNV_PRIME);
            let words = i + 1;
            if words % self.config.stride_words == 0 || words == self.config.window_words {
                out.push((words, hash));
            }
        }
        out
    }

    /// Routes one context: longest-boundary fingerprint match wins (with a
    /// rendezvous hash breaking multi-owner ties deterministically); a cold
    /// context goes to the replica with the smallest load (lowest index on
    /// ties). `loads` must have one entry per replica.
    pub fn route(&mut self, context: &str, loads: &[usize]) -> RouteDecision {
        assert_eq!(loads.len(), self.replicas, "one load entry per replica");
        for (words, fingerprint) in self.boundaries(context).into_iter().rev() {
            let Some(owners) = self.owners.get(&fingerprint) else {
                continue;
            };
            let replica = owners
                .iter()
                .copied()
                .max_by_key(|&owner| (rendezvous(fingerprint, owner), self.replicas - owner))
                .expect("owner lists are never empty");
            self.stats.affinity_routed += 1;
            return RouteDecision {
                replica,
                matched_words: words,
                affinity: true,
            };
        }
        let replica = (0..self.replicas)
            .min_by_key(|&r| (loads[r], r))
            .expect("at least one replica");
        self.stats.least_loaded_routed += 1;
        RouteDecision {
            replica,
            matched_words: 0,
            affinity: false,
        }
    }

    /// Records that `replica` now holds the context's prefix: every stride
    /// boundary fingerprint gains `replica` as an owner. Call after the
    /// routed submit succeeds (skip it when admission answered busy).
    pub fn record(&mut self, context: &str, replica: usize) {
        assert!(replica < self.replicas, "replica index out of range");
        for (_, fingerprint) in self.boundaries(context) {
            let owners = self.owners.entry(fingerprint).or_insert_with(|| {
                self.order.push_back(fingerprint);
                Vec::new()
            });
            if !owners.contains(&replica) {
                owners.push(replica);
            }
        }
        while self.owners.len() > self.config.max_entries {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.owners.remove(&oldest);
        }
    }
}

/// Deterministic rendezvous score of a replica for a fingerprint
/// (SplitMix64 finalizer over the pair).
fn rendezvous(fingerprint: u64, replica: usize) -> u64 {
    let mut z = fingerprint ^ (replica as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Branching multi-tenant contexts: `groups` tenants, each with a
    /// long shared preamble, `per_group` branches each diverging right
    /// after it. Requests interleave tenants (round-robin) like real
    /// traffic.
    fn tenant_contexts(groups: usize, per_group: usize) -> Vec<(String, String)> {
        let preamble = |g: usize| -> String {
            (0..8)
                .map(|i| format!("tenant{g} directive {i} mandates hourly status reports"))
                .collect::<Vec<_>>()
                .join(" . ")
        };
        (0..groups * per_group)
            .map(|i| {
                let g = i % groups;
                (
                    format!(
                        "{} . branch note {i} the access code for vault {i} is emberstone{i}",
                        preamble(g)
                    ),
                    format!("what is the access code for vault {i}?"),
                )
            })
            .collect()
    }

    #[test]
    fn index_routes_shared_prefixes_to_their_recorded_owner() {
        let mut index = PrefixFingerprintIndex::new(3, RouterConfig::default());
        let contexts = tenant_contexts(2, 3);
        // First branch of tenant 0: cold, least-loaded picks replica 2.
        let first = index.route(&contexts[0].0, &[4, 7, 1]);
        assert!(!first.affinity);
        assert_eq!(first.matched_words, 0);
        assert_eq!(first.replica, 2);
        index.record(&contexts[0].0, first.replica);
        // Later branches of tenant 0 share the preamble: affinity routes
        // them back to replica 2 regardless of load.
        for ctx in [&contexts[2].0, &contexts[4].0] {
            let warm = index.route(ctx, &[0, 0, 99]);
            assert!(warm.affinity, "shared preamble must match");
            assert_eq!(warm.replica, 2);
            assert!(warm.matched_words >= RouterConfig::default().stride_words);
        }
        // Tenant 1 shares nothing: still cold.
        let other = index.route(&contexts[1].0, &[0, 5, 5]);
        assert!(!other.affinity);
        assert_eq!(other.replica, 0);
        let stats = index.stats();
        assert_eq!(stats.affinity_routed, 2);
        assert_eq!(stats.least_loaded_routed, 2);
    }

    #[test]
    fn index_prefers_the_longest_matched_boundary() {
        let config = RouterConfig {
            window_words: 16,
            stride_words: 4,
            max_entries: 64,
        };
        let mut index = PrefixFingerprintIndex::new(2, config);
        let short = "alpha beta gamma delta";
        let long = format!("{short} epsilon zeta eta theta iota kappa lambda mu");
        // Replica 0 owns the short prefix, replica 1 the long one.
        index.record(short, 0);
        index.record(&long, 1);
        // A context extending the long prefix must follow its owner, not
        // the shorter match recorded for replica 0.
        let decision = index.route(&format!("{long} extra tail words here"), &[0, 0]);
        assert!(decision.affinity);
        assert_eq!(decision.replica, 1);
        assert_eq!(decision.matched_words, 12);
    }

    #[test]
    fn index_eviction_caps_entries_and_only_costs_affinity() {
        let config = RouterConfig {
            window_words: 8,
            stride_words: 4,
            max_entries: 4,
        };
        let mut index = PrefixFingerprintIndex::new(2, config);
        for i in 0..16 {
            index.record(
                &format!("conversation {i} preamble words one two three four five"),
                i % 2,
            );
        }
        assert!(index.len() <= 4, "index exceeded its cap: {}", index.len());
        // Evicted prefixes fall back to cold routing (no panic, no wrong
        // owner).
        let decision = index.route(
            "conversation 0 preamble words one two three four five",
            &[1, 0],
        );
        let _ = decision.affinity; // either outcome is valid; must not panic
    }

    #[test]
    fn rendezvous_choice_is_deterministic() {
        let mut a = PrefixFingerprintIndex::new(4, RouterConfig::default());
        let mut b = PrefixFingerprintIndex::new(4, RouterConfig::default());
        let ctx = "november oscar papa quebec romeo sierra tango uniform victor whiskey";
        for index in [&mut a, &mut b] {
            index.record(ctx, 1);
            index.record(ctx, 3);
        }
        let da = a.route(ctx, &[0, 0, 0, 0]);
        let db = b.route(ctx, &[0, 0, 0, 0]);
        assert_eq!(da.replica, db.replica);
        assert!([1, 3].contains(&da.replica), "owner set respected");
    }
}
