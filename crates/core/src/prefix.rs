//! The serving-side prefix cache: a token trie that shares prefill work
//! across requests and across *branches* of requests.
//!
//! Real traffic is full of requests that open with the same tokens — a
//! system prompt, a shared document, a few-shot preamble — and then
//! diverge: two users continue the same preamble differently. The
//! [`PrefixCache`] stores context token sequences in a **path-compressed
//! token trie** whose nodes each own the refcounted [`SharedPrefixKv`]
//! rows of exactly their own token run. Divergent branches therefore share
//! their common-ancestor blocks *once*: inserting `P ++ X` and `P ++ Y`
//! stores `P`, `X` and `Y` — not `P` twice, as a whole-sequence map would.
//!
//! * **Lookups** walk the trie for the longest cached prefix of a request's
//!   context and return a [`PrefixHit`]: the assembled contiguous KV of the
//!   matched path plus pins on every node along it.
//! * **Inserts** split nodes at divergence points (a [`node split`] copies
//!   no more than the split node's own rows) and attach only the uncovered
//!   suffix as a new leaf.
//! * **Eviction is partial**: the LRU-evictable unit is a *leaf* node, so
//!   budget pressure trims the tree leaf-ward — recently hit or pinned
//!   ancestors survive and keep serving the shorter prefixes — instead of
//!   dropping whole contexts.
//!
//! Resident bytes are the sum over trie nodes (each node's segment rows are
//! one allocation), which is exactly what
//! [`BatchScheduler::set_shared_bytes`](crate::BatchScheduler::set_shared_bytes)
//! is charged: shared bytes are accounted **per trie node**, not per cached
//! sequence.
//!
//! [`node split`]: PrefixCacheStats::node_splits

use cocktail_kvcache::{
    read_snapshot, write_snapshot, SharedPrefixKv, SnapshotError, SnapshotNode, TrieSnapshot,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Weak};

/// Configuration of the [`PrefixCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCacheConfig {
    /// Maximum number of resident trie nodes; leaf-first LRU eviction
    /// trims the tree beyond this.
    pub max_entries: usize,
    /// Minimum number of matching leading tokens before a cached prefix is
    /// reused (tiny matches are not worth the bookkeeping).
    pub min_prefix_tokens: usize,
}

impl PrefixCacheConfig {
    /// Returns a copy with a different node cap (clamped to at least 1).
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
        self
    }

    /// Returns a copy with a different reuse threshold (clamped to at
    /// least 1).
    pub fn with_min_prefix_tokens(mut self, tokens: usize) -> Self {
        self.min_prefix_tokens = tokens.max(1);
        self
    }
}

impl Default for PrefixCacheConfig {
    fn default() -> Self {
        Self {
            max_entries: 32,
            min_prefix_tokens: 8,
        }
    }
}

/// Counters and occupancy of a [`PrefixCache`], serializable into
/// experiment records.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PrefixCacheStats {
    /// Resident leaf nodes — the number of distinct cached context
    /// branches.
    pub entries: usize,
    /// Resident trie nodes (every node owns one refcounted block run).
    pub nodes: usize,
    /// Resident nodes currently pinned by an in-flight request's
    /// [`PrefixHit`] lease (LRU eviction skips them).
    pub pinned_entries: usize,
    /// Bytes of resident shared blocks, summed **per trie node** (what the
    /// scheduler is charged).
    pub resident_bytes: usize,
    /// Lookups that found a reusable prefix.
    pub hits: u64,
    /// Lookups that found nothing (or a match below the reuse threshold).
    pub misses: u64,
    /// Context sequences inserted (those adding at least one node).
    pub insertions: u64,
    /// Nodes split at a divergence point so two branches could share their
    /// common ancestor exactly once.
    pub node_splits: u64,
    /// Nodes evicted under LRU / budget pressure.
    pub evictions: u64,
    /// Evictions that trimmed a branch leaf-ward while an ancestor of the
    /// evicted node stayed resident (the trie's partial eviction; the
    /// remainder of [`PrefixCacheStats::evictions`] dropped whole cached
    /// contexts).
    pub partial_evictions: u64,
    /// Total prompt tokens served from cached blocks instead of being
    /// re-prefilled.
    pub reused_tokens: u64,
    /// Evicted nodes whose full-path KV was appended to the disk cold tier
    /// instead of being dropped outright.
    pub demotions: u64,
    /// Cold-tier records promoted back into the RAM trie after a lookup
    /// missed RAM but matched the cold index.
    pub repromotions: u64,
    /// FP32 bytes of KV rows currently reachable through the cold-tier
    /// index (on disk, not charged to the scheduler's KV budget).
    pub cold_resident_bytes: usize,
}

/// A successful [`PrefixCache::lookup`]: the assembled KV of the longest
/// cached prefix plus a lease pinning the matched trie path.
///
/// Holding the hit (or a clone of it) pins every node whose token run lies
/// inside the matched prefix, which steers LRU eviction away from prefixes
/// that in-flight requests are using. The lease is by *token path*, not by
/// node identity, so it survives later node splits: if another branch
/// splits a pinned node, both halves of the split stay pinned. The pins
/// are advisory — prefix rows are copied into each request's own cache
/// during prefill, so evicting a pinned node never breaks a request.
#[derive(Debug, Clone)]
pub struct PrefixHit {
    kv: SharedPrefixKv,
    tokens: usize,
    /// The matched token prefix, held as the eviction lease: the cache
    /// tracks it through a [`Weak`] and treats every node on its path as
    /// pinned while any clone of this [`Arc`] is alive.
    lease: Arc<Vec<u32>>,
}

impl PrefixHit {
    /// The contiguous KV rows of the matched prefix, assembled root-ward
    /// across the trie path (bit-identical to the rows a cold prefill of
    /// the same tokens would produce). Covers at least
    /// [`PrefixHit::tokens`] rows.
    pub fn kv(&self) -> &SharedPrefixKv {
        &self.kv
    }

    /// Number of leading context tokens the cache can serve.
    pub fn tokens(&self) -> usize {
        self.tokens
    }

    /// A KV-free handle carrying only this hit's eviction lease. A caller
    /// that has finished reading [`PrefixHit::kv`] (the rows are copied
    /// into the request's own cache during prefill) should downgrade to
    /// the lease and drop the hit, keeping the path pinned without also
    /// keeping the assembled prefix rows alive.
    pub(crate) fn lease(&self) -> PrefixLease {
        PrefixLease {
            _lease: self.lease.clone(),
        }
    }
}

/// The pin of one [`PrefixHit`] without its KV: holding it (or a clone)
/// keeps every trie node along the hit's matched token path pinned against
/// LRU eviction, and nothing else alive. Dropped when the owning request
/// completes, is cancelled, or the engine needs the memory — the pin is
/// advisory, so releasing it is always safe.
#[derive(Debug, Clone)]
pub(crate) struct PrefixLease {
    /// Held only for its [`Arc`] refcount — the cache's [`Weak`] sees the
    /// path as pinned while any clone is alive.
    _lease: Arc<Vec<u32>>,
}

/// One node of the token trie: a path-compressed run of tokens plus the
/// refcounted KV rows of exactly that run (absolute positions
/// `depth..depth + run.len()`).
#[derive(Debug)]
struct TrieNode {
    run: Vec<u32>,
    kv: SharedPrefixKv,
    /// Arena index of the parent node; `None` for children of the
    /// (implicit) root.
    parent: Option<usize>,
    /// Children keyed by the first token of their run.
    children: BTreeMap<u32, usize>,
    last_used: u64,
}

/// Where a trie walk stopped.
struct Walk {
    /// Arena indices of the fully matched nodes, root-ward first.
    path: Vec<usize>,
    /// A node whose run matched only its first `usize` tokens, if the walk
    /// ended mid-run.
    partial: Option<(usize, usize)>,
    /// Total number of matched leading tokens.
    matched: usize,
}

/// Length of the common prefix of two token sequences.
pub(crate) fn common_prefix_len(a: &[u32], b: &[u32]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// One record of the disk cold tier: the full token path of a demoted
/// branch and where its framed snapshot bytes live in the spill file.
#[derive(Debug)]
struct ColdEntry {
    /// Full context token path the record's KV covers.
    tokens: Vec<u32>,
    /// Byte offset of the record's frame in the spill file.
    offset: u64,
    /// Length of the snapshot payload inside the frame.
    len: u64,
    /// FP32 bytes of the record's KV rows.
    kv_bytes: usize,
}

/// The disk cold tier: an append-only spill file of demoted branches plus
/// the in-RAM index over it. Each record is a framed single-node
/// [`TrieSnapshot`] (`[payload_len: u64 LE][payload]`) holding the *full*
/// token path of the evicted leaf and its assembled KV, so a record is
/// self-contained — repromotion never depends on which ancestors happen to
/// still be resident.
#[derive(Debug)]
struct ColdTier {
    path: PathBuf,
    /// Config fingerprint stamped into every record; a record that comes
    /// back with a different one (torn write, foreign file) is dropped.
    fingerprint: u64,
    index: Vec<ColdEntry>,
}

impl ColdTier {
    fn append(&mut self, tokens: Vec<u32>, kv: SharedPrefixKv) -> std::io::Result<()> {
        let kv_bytes = kv.storage_bytes();
        let snapshot = TrieSnapshot {
            fingerprint: self.fingerprint,
            layers: kv.layers(),
            kv_heads: kv.kv_heads(),
            vocab: Vec::new(),
            nodes: vec![SnapshotNode {
                parent: None,
                run: tokens.clone(),
                kv,
            }],
        };
        let payload = write_snapshot(&snapshot);
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        let offset = file.seek(SeekFrom::End(0))?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(&payload)?;
        self.index.push(ColdEntry {
            tokens,
            offset,
            len: payload.len() as u64,
            kv_bytes,
        });
        Ok(())
    }

    /// Reads and validates the record behind `entry`, returning its KV.
    fn read(&self, entry: &ColdEntry) -> Option<SharedPrefixKv> {
        let mut file = std::fs::File::open(&self.path).ok()?;
        file.seek(SeekFrom::Start(entry.offset)).ok()?;
        let mut len_buf = [0u8; 8];
        file.read_exact(&mut len_buf).ok()?;
        if u64::from_le_bytes(len_buf) != entry.len {
            return None;
        }
        let mut payload = vec![0u8; entry.len as usize];
        file.read_exact(&mut payload).ok()?;
        let snapshot = read_snapshot(&payload).ok()?;
        snapshot.expect_fingerprint(self.fingerprint).ok()?;
        let [node] = <[SnapshotNode; 1]>::try_from(snapshot.nodes).ok()?;
        if node.run != entry.tokens {
            return None;
        }
        Some(node.kv)
    }

    fn resident_bytes(&self) -> usize {
        self.index.iter().map(|e| e.kv_bytes).sum()
    }
}

/// A path-compressed token trie from context token sequences to shared
/// prefill KV blocks, with per-node byte accounting and leaf-first partial
/// eviction.
///
/// # Example
///
/// Two contexts sharing an 8-token preamble store it once; the divergence
/// splits the first entry's node, and evicting one branch leaves the other
/// — and the shared preamble — resident:
///
/// ```
/// use cocktail_core::{PrefixCache, PrefixCacheConfig};
/// use cocktail_kvcache::{PrefixKvBlock, SharedPrefixKv};
/// use cocktail_tensor::rng::gaussian_matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let kv = |tokens: usize, seed: u64| {
///     SharedPrefixKv::from_blocks(
///         1,
///         1,
///         vec![PrefixKvBlock::new(
///             gaussian_matrix(tokens, 4, 1.0, seed),
///             gaussian_matrix(tokens, 4, 1.0, seed + 500),
///         )
///         .unwrap()],
///     )
///     .unwrap()
/// };
/// let mut cache = PrefixCache::new(PrefixCacheConfig::default().with_min_prefix_tokens(4));
///
/// // Branch A: preamble 0..8 ++ tail 100..104.
/// let a: Vec<u32> = (0..8).chain(100..104).collect();
/// cache.insert(a.clone(), kv(12, 1));
/// // Branch B shares the preamble then diverges: the node splits and the
/// // preamble's 8 rows stay stored exactly once.
/// let b: Vec<u32> = (0..8).chain(200..204).collect();
/// cache.insert(b.clone(), kv(12, 2));
/// let stats = cache.stats();
/// assert_eq!(stats.nodes, 3); // preamble + two branch tails
/// assert_eq!(stats.node_splits, 1);
///
/// // A lookup walks the trie for the longest cached prefix.
/// let query: Vec<u32> = (0..8).chain([100, 101, 999]).collect();
/// let hit = cache.lookup(&query).expect("prefix hit");
/// assert_eq!(hit.tokens(), 10);
/// assert_eq!(hit.kv().tokens(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PrefixCache {
    config: PrefixCacheConfig,
    /// Node arena; evicted slots are `None` and recycled via `free`.
    nodes: Vec<Option<TrieNode>>,
    free: Vec<usize>,
    /// Children of the implicit root, keyed by first token.
    root_children: BTreeMap<u32, usize>,
    /// Eviction leases of outstanding [`PrefixHit`]s; dead weaks are
    /// pruned on mutation.
    leases: Vec<Weak<Vec<u32>>>,
    /// Disk cold tier; `None` keeps eviction drop-only (the default).
    cold: Option<ColdTier>,
    clock: u64,
    stats: PrefixCacheStats,
}

impl PrefixCache {
    /// Creates an empty cache.
    pub fn new(config: PrefixCacheConfig) -> Self {
        Self {
            config,
            nodes: Vec::new(),
            free: Vec::new(),
            root_children: BTreeMap::new(),
            leases: Vec::new(),
            cold: None,
            clock: 0,
            stats: PrefixCacheStats::default(),
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &PrefixCacheConfig {
        &self.config
    }

    /// Number of resident trie nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether the trie holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn node(&self, idx: usize) -> &TrieNode {
        self.nodes[idx].as_ref().expect("live trie node")
    }

    fn node_mut(&mut self, idx: usize) -> &mut TrieNode {
        self.nodes[idx].as_mut().expect("live trie node")
    }

    fn alloc(&mut self, node: TrieNode) -> usize {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = Some(node);
                idx
            }
            None => {
                self.nodes.push(Some(node));
                self.nodes.len() - 1
            }
        }
    }

    fn live_nodes(&self) -> impl Iterator<Item = (usize, &TrieNode)> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|n| (i, n)))
    }

    /// Bytes of all resident node blocks — the amount a KV budget should
    /// be charged for the cache. Each node's segment is one allocation, so
    /// this sums per node and branches never double-charge their shared
    /// ancestors.
    pub fn total_bytes(&self) -> usize {
        self.live_nodes().map(|(_, n)| n.kv.storage_bytes()).sum()
    }

    /// Arena indices of every node pinned by an outstanding
    /// [`PrefixHit`] lease: the nodes a walk over each live lease's token
    /// path visits (including a partially covered one).
    fn pinned_set(&self) -> BTreeSet<usize> {
        let mut pinned = BTreeSet::new();
        for lease in &self.leases {
            let Some(tokens) = lease.upgrade() else {
                continue;
            };
            let walk = self.walk(&tokens);
            pinned.extend(walk.path);
            if let Some((idx, _)) = walk.partial {
                pinned.insert(idx);
            }
        }
        pinned
    }

    /// Number of resident nodes an in-flight request still pins through a
    /// live [`PrefixHit`].
    pub fn pinned_entries(&self) -> usize {
        self.pinned_set().len()
    }

    /// Number of resident leaf nodes (distinct cached context branches).
    pub(crate) fn leaves(&self) -> usize {
        self.live_nodes()
            .filter(|(_, n)| n.children.is_empty())
            .count()
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PrefixCacheStats {
        PrefixCacheStats {
            entries: self.leaves(),
            nodes: self.len(),
            pinned_entries: self.pinned_entries(),
            resident_bytes: self.total_bytes(),
            cold_resident_bytes: self.cold.as_ref().map_or(0, ColdTier::resident_bytes),
            ..self.stats
        }
    }

    /// Enables the disk cold tier: from now on, evicting a leaf appends its
    /// full-path KV to the spill file at `path` instead of dropping it, and
    /// [`PrefixCache::repromote`] can bring those branches back. The file
    /// is truncated — cold records are scoped to this cache instance (a
    /// restart re-warms through [`PrefixCache::restore_from`], not through
    /// a stale spill file). `fingerprint` is stamped into every record and
    /// re-checked on read.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the spill file cannot be created.
    pub fn enable_cold_tier(
        &mut self,
        path: impl Into<PathBuf>,
        fingerprint: u64,
    ) -> Result<(), SnapshotError> {
        let path = path.into();
        std::fs::File::create(&path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        self.cold = Some(ColdTier {
            path,
            fingerprint,
            index: Vec::new(),
        });
        Ok(())
    }

    /// Whether the disk cold tier is enabled.
    pub(crate) fn cold_tier_enabled(&self) -> bool {
        self.cold.is_some()
    }

    /// Walks the trie along `tokens`, without touching LRU stamps or
    /// counters.
    fn walk(&self, tokens: &[u32]) -> Walk {
        let mut path = Vec::new();
        let mut matched = 0usize;
        let mut children = &self.root_children;
        while matched < tokens.len() {
            let Some(&idx) = children.get(&tokens[matched]) else {
                break;
            };
            let node = self.node(idx);
            let lcp = common_prefix_len(&node.run, &tokens[matched..]);
            matched += lcp;
            if lcp == node.run.len() {
                path.push(idx);
                children = &node.children;
            } else {
                return Walk {
                    path,
                    partial: Some((idx, lcp)),
                    matched,
                };
            }
        }
        Walk {
            path,
            partial: None,
            matched,
        }
    }

    /// Whether the trie already stores all of `tokens` (so inserting them
    /// would add nothing).
    pub fn covers(&self, tokens: &[u32]) -> bool {
        !tokens.is_empty() && self.walk(tokens).matched == tokens.len()
    }

    /// The longest cached prefix of `tokens`, without touching LRU stamps
    /// or hit/miss counters — a probe for planning (e.g. deciding which
    /// admission pass a request belongs to) ahead of the real
    /// [`PrefixCache::lookup`].
    pub(crate) fn peek_prefix_len(&self, tokens: &[u32]) -> usize {
        self.walk(tokens).matched
    }

    /// Bumps the LRU stamp of every node a walk matched (including a
    /// partially matched one).
    fn touch(&mut self, walk: &Walk) {
        self.clock += 1;
        let clock = self.clock;
        for &idx in &walk.path {
            self.node_mut(idx).last_used = clock;
        }
        if let Some((idx, _)) = walk.partial {
            self.node_mut(idx).last_used = clock;
        }
    }

    /// Walks the trie for the longest cached prefix of `tokens` (at least
    /// the configured minimum), bumps the LRU stamp of every node on the
    /// path, and returns a [`PrefixHit`]: the assembled contiguous KV of
    /// the match plus pins on the path nodes.
    ///
    /// A hit matching a single node is a refcount bump; a hit spanning
    /// several nodes (or ending mid-run) assembles its rows into one fresh
    /// block — still orders of magnitude cheaper than re-running the
    /// quadratic prefill attention the hit replaces.
    ///
    /// # Example
    ///
    /// ```
    /// use cocktail_core::{PrefixCache, PrefixCacheConfig};
    /// use cocktail_kvcache::{PrefixKvBlock, SharedPrefixKv};
    /// use cocktail_tensor::rng::gaussian_matrix;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let kv = SharedPrefixKv::from_blocks(
    ///     1,
    ///     1,
    ///     vec![PrefixKvBlock::new(
    ///         gaussian_matrix(12, 4, 1.0, 1),
    ///         gaussian_matrix(12, 4, 1.0, 2),
    ///     )?],
    /// )?;
    /// let mut cache = PrefixCache::new(PrefixCacheConfig::default());
    /// let tokens: Vec<u32> = (0..12).collect();
    /// cache.insert(tokens.clone(), kv);
    /// // A request sharing the first 10 tokens reuses them from the cache;
    /// // holding the hit pins the matched path against eviction.
    /// let request: Vec<u32> = tokens[..10].iter().copied().chain([99, 98]).collect();
    /// let hit = cache.lookup(&request).expect("prefix hit");
    /// assert_eq!(hit.tokens(), 10);
    /// assert_eq!(cache.stats().pinned_entries, 1);
    /// drop(hit);
    /// assert_eq!(cache.stats().pinned_entries, 0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn lookup(&mut self, tokens: &[u32]) -> Option<PrefixHit> {
        let walk = self.walk(tokens);
        if walk.matched < self.config.min_prefix_tokens {
            self.stats.misses += 1;
            return None;
        }
        self.touch(&walk);
        self.stats.hits += 1;
        self.stats.reused_tokens += walk.matched as u64;

        let mut parts: Vec<SharedPrefixKv> = Vec::with_capacity(walk.path.len() + 1);
        for &idx in &walk.path {
            parts.push(self.node(idx).kv.clone());
        }
        if let Some((idx, lcp)) = walk.partial {
            parts.push(
                self.node(idx)
                    .kv
                    .slice_tokens(0, lcp)
                    .expect("partial match is in range"),
            );
        }
        let refs: Vec<&SharedPrefixKv> = parts.iter().collect();
        let kv = SharedPrefixKv::concat(&refs).expect("path segments share one layout");
        let lease = Arc::new(tokens[..walk.matched].to_vec());
        self.leases.retain(|l| l.strong_count() > 0);
        self.leases.push(Arc::downgrade(&lease));
        Some(PrefixHit {
            kv,
            tokens: walk.matched,
            lease,
        })
    }

    /// Splits the node at `idx` after `offset` run tokens: the node keeps
    /// the root-ward half (so its parent's child pointer stays valid) and a
    /// new node takes the leaf-ward half together with the original
    /// children.
    fn split_node(&mut self, idx: usize, offset: usize) {
        let mut node = self.nodes[idx].take().expect("live trie node");
        let child_run = node.run.split_off(offset);
        let total = node.kv.tokens();
        let parent_kv = node
            .kv
            .slice_tokens(0, offset)
            .expect("split offset is inside the run");
        let child_kv = node
            .kv
            .slice_tokens(offset, total)
            .expect("split offset is inside the run");
        let child = TrieNode {
            run: child_run,
            kv: child_kv,
            parent: Some(idx),
            children: std::mem::take(&mut node.children),
            last_used: node.last_used,
        };
        node.kv = parent_kv;
        self.nodes[idx] = Some(node);
        let child_first = child.run[0];
        let grandchildren: Vec<usize> = child.children.values().copied().collect();
        let child_idx = self.alloc(child);
        for g in grandchildren {
            self.node_mut(g).parent = Some(child_idx);
        }
        self.node_mut(idx).children.insert(child_first, child_idx);
        self.stats.node_splits += 1;
    }

    /// Inserts the blocks of one context token sequence.
    ///
    /// `kv` must cover exactly `tokens` (one row per token). The walk-over
    /// part of the sequence is shared with the existing trie: if the trie
    /// already covers all of `tokens` the insert is a no-op beyond touching
    /// the matched path's LRU stamps; if the sequence diverges mid-node,
    /// the node is split at the divergence point so both branches share the
    /// common ancestor exactly once; only the uncovered suffix rows are
    /// stored, as a new leaf. Beyond the
    /// [`PrefixCacheConfig::max_entries`] node cap, least-recently-used
    /// unpinned leaves are evicted.
    ///
    /// The trie serves one model: blocks whose layer/head layout disagrees
    /// with the resident nodes are not cached (the insert is ignored), so
    /// a later multi-node [`PrefixCache::lookup`] can always assemble its
    /// path segments.
    pub fn insert(&mut self, tokens: Vec<u32>, kv: SharedPrefixKv) {
        if tokens.is_empty() {
            return;
        }
        debug_assert_eq!(
            kv.tokens(),
            tokens.len(),
            "inserted blocks must cover exactly the inserted tokens"
        );
        if let Some((_, node)) = self.live_nodes().next() {
            if node.kv.layers() != kv.layers() || node.kv.kv_heads() != kv.kv_heads() {
                return;
            }
        }
        let walk = self.walk(&tokens);
        if walk.matched == tokens.len() {
            self.touch(&walk);
            return;
        }

        // Split before touching: the split-off tail belongs to the *other*
        // branch and must keep its old LRU stamp — only the shared parent
        // half (and the fully matched path) is being reused by this insert.
        let attach_parent = match walk.partial {
            Some((idx, offset)) => {
                self.split_node(idx, offset);
                Some(idx)
            }
            None => walk.path.last().copied(),
        };
        self.touch(&walk);
        let suffix_kv = if walk.matched == 0 {
            kv
        } else {
            kv.slice_tokens(walk.matched, tokens.len())
                .expect("uncovered suffix is non-empty")
        };
        let run = tokens[walk.matched..].to_vec();
        let first = run[0];
        let leaf = TrieNode {
            run,
            kv: suffix_kv,
            parent: attach_parent,
            children: BTreeMap::new(),
            last_used: self.clock,
        };
        let leaf_idx = self.alloc(leaf);
        match attach_parent {
            Some(p) => self.node_mut(p).children.insert(first, leaf_idx),
            None => self.root_children.insert(first, leaf_idx),
        };
        self.stats.insertions += 1;

        while self.len() > self.config.max_entries {
            if self.evict_lru_unpinned().is_none() {
                break; // everything left is pinned or interior; allow overflow
            }
        }
    }

    /// Evicts the least-recently-used unpinned **leaf** node, returning the
    /// bytes freed. Interior nodes are never candidates, so an eviction
    /// can only trim a branch leaf-ward — every surviving node's ancestors
    /// survive with it, and the shortened prefix keeps serving lookups.
    /// Returns `None` when every leaf is pinned (or the trie is empty).
    pub fn evict_lru_unpinned(&mut self) -> Option<usize> {
        self.leases.retain(|l| l.strong_count() > 0);
        let pinned = self.pinned_set();
        let idx = self
            .live_nodes()
            .filter(|(i, n)| n.children.is_empty() && !pinned.contains(i))
            .min_by_key(|(_, n)| n.last_used)
            .map(|(i, _)| i)?;
        self.demote(idx);
        let node = self.nodes[idx].take().expect("live trie node");
        self.free.push(idx);
        match node.parent {
            Some(p) => {
                self.node_mut(p).children.remove(&node.run[0]);
                self.stats.partial_evictions += 1;
            }
            None => {
                self.root_children.remove(&node.run[0]);
            }
        }
        self.stats.evictions += 1;
        Some(node.kv.storage_bytes())
    }

    /// Appends the full-path KV of the about-to-be-evicted leaf at `idx` to
    /// the cold tier (if enabled). The record stores the branch root-to-leaf
    /// — ancestors are still resident at demote time, so the assembled rows
    /// are exactly what a lookup of the full path would have returned — and
    /// is skipped when an existing record already covers the path. I/O
    /// failures drop the record silently: demotion is an optimization, the
    /// eviction itself must never fail.
    fn demote(&mut self, idx: usize) {
        if self.cold.is_none() {
            return;
        }
        let mut chain = vec![idx];
        let mut cur = self.node(idx).parent;
        while let Some(p) = cur {
            chain.push(p);
            cur = self.node(p).parent;
        }
        chain.reverse();
        let tokens: Vec<u32> = chain
            .iter()
            .flat_map(|&i| self.node(i).run.iter().copied())
            .collect();
        let tier = self.cold.as_mut().expect("checked above");
        if tier
            .index
            .iter()
            .any(|e| e.tokens.len() >= tokens.len() && e.tokens.starts_with(&tokens))
        {
            return;
        }
        let parts: Vec<&SharedPrefixKv> = chain.iter().map(|&i| &self.node(i).kv).collect();
        let Ok(kv) = SharedPrefixKv::concat(&parts) else {
            return;
        };
        let tier = self.cold.as_mut().expect("checked above");
        if tier.append(tokens, kv).is_ok() {
            self.stats.demotions += 1;
        }
    }

    /// The best cold-tier match for `tokens`: the number of leading tokens
    /// a repromotion could serve and an estimate of the RAM bytes it would
    /// add. Returns `None` below the configured reuse threshold, with the
    /// tier disabled, or when the index has no overlapping record. Like
    /// [`PrefixCache::peek_prefix_len`] this is a planning probe: it does
    /// no I/O and changes nothing.
    pub(crate) fn cold_match(&self, tokens: &[u32]) -> Option<(usize, usize)> {
        let tier = self.cold.as_ref()?;
        tier.index
            .iter()
            .map(|e| (common_prefix_len(&e.tokens, tokens), e))
            .filter(|(m, _)| *m >= self.config.min_prefix_tokens)
            .max_by_key(|(m, _)| *m)
            .map(|(m, e)| (m, e.kv_bytes * m / e.tokens.len().max(1)))
    }

    /// Promotes the best cold-tier match for `tokens` back into the RAM
    /// trie, returning the bytes added. The record is read back from the
    /// spill file, validated (frame, checksum, fingerprint, token path —
    /// a torn or corrupted record is dropped from the index and reported as
    /// `None`, never a panic), sliced to the matched prefix, and inserted
    /// through the normal insert path (so splits, LRU bookkeeping and the
    /// node cap apply). The caller is responsible for budget admission —
    /// probe with `PrefixCache::cold_match` first.
    pub fn repromote(&mut self, tokens: &[u32]) -> Option<usize> {
        let tier = self.cold.as_ref()?;
        let (pos, matched) = tier
            .index
            .iter()
            .enumerate()
            .map(|(i, e)| (i, common_prefix_len(&e.tokens, tokens)))
            .filter(|(_, m)| *m >= self.config.min_prefix_tokens)
            .max_by_key(|(_, m)| *m)?;
        let entry = &tier.index[pos];
        let full_len = entry.tokens.len();
        let prefix = entry.tokens[..matched].to_vec();
        let Some(kv) = tier.read(entry).and_then(|kv| {
            if matched == full_len {
                Some(kv)
            } else {
                kv.slice_tokens(0, matched).ok()
            }
        }) else {
            // Unreadable record: drop it so the next lookup does not retry.
            self.cold.as_mut().expect("checked above").index.remove(pos);
            return None;
        };
        let before = self.total_bytes();
        self.insert(prefix, kv);
        self.stats.repromotions += 1;
        Some(self.total_bytes().saturating_sub(before))
    }

    /// Exports the resident trie as a [`TrieSnapshot`] (parents-first node
    /// order), stamping in the caller's config fingerprint and tokenizer
    /// vocabulary. Pair with [`cocktail_kvcache::write_snapshot`] to
    /// produce the flat on-disk bytes.
    pub fn to_snapshot(&self, fingerprint: u64, vocab: Vec<String>) -> TrieSnapshot {
        let (layers, kv_heads) = self
            .live_nodes()
            .next()
            .map_or((1, 1), |(_, n)| (n.kv.layers(), n.kv.kv_heads()));
        let mut nodes = Vec::with_capacity(self.len());
        let mut export_idx: BTreeMap<usize, usize> = BTreeMap::new();
        let mut stack: Vec<usize> = self.root_children.values().copied().collect();
        while let Some(idx) = stack.pop() {
            let node = self.node(idx);
            let parent = node.parent.map(|p| export_idx[&p]);
            export_idx.insert(idx, nodes.len());
            nodes.push(SnapshotNode {
                parent,
                run: node.run.clone(),
                kv: node.kv.clone(),
            });
            stack.extend(node.children.values().copied());
        }
        TrieSnapshot {
            fingerprint,
            layers,
            kv_heads,
            vocab,
            nodes,
        }
    }

    /// Replaces the resident trie with the contents of a snapshot. The
    /// existing nodes, leases and cumulative counters are discarded (a
    /// restore models a process restart); the configuration and cold tier
    /// are kept. On any validation error the cache is left untouched.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Malformed`] if the snapshot's nodes are not
    /// parents-first, have empty or duplicate-keyed runs, or disagree with
    /// the snapshot's own KV layout.
    pub fn load_snapshot(&mut self, snapshot: TrieSnapshot) -> Result<(), SnapshotError> {
        let mut nodes: Vec<Option<TrieNode>> = Vec::with_capacity(snapshot.nodes.len());
        let mut root_children: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, sn) in snapshot.nodes.into_iter().enumerate() {
            if sn.run.is_empty() {
                return Err(SnapshotError::Malformed(format!("node {i} has empty run")));
            }
            if sn.kv.tokens() != sn.run.len() {
                return Err(SnapshotError::Malformed(format!(
                    "node {i} kv covers {} tokens for a {}-token run",
                    sn.kv.tokens(),
                    sn.run.len()
                )));
            }
            if sn.kv.layers() != snapshot.layers || sn.kv.kv_heads() != snapshot.kv_heads {
                return Err(SnapshotError::Malformed(format!(
                    "node {i} disagrees with the snapshot KV layout"
                )));
            }
            let first = sn.run[0];
            match sn.parent {
                None => {
                    if root_children.insert(first, i).is_some() {
                        return Err(SnapshotError::Malformed(format!(
                            "duplicate root child key {first}"
                        )));
                    }
                }
                Some(p) => {
                    if p >= i {
                        return Err(SnapshotError::Malformed(format!(
                            "node {i} parent {p} is not an earlier node"
                        )));
                    }
                    let parent = nodes[p].as_mut().expect("parents-first order");
                    if parent.children.insert(first, i).is_some() {
                        return Err(SnapshotError::Malformed(format!(
                            "node {p} has duplicate child key {first}"
                        )));
                    }
                }
            }
            nodes.push(Some(TrieNode {
                run: sn.run,
                kv: sn.kv,
                parent: sn.parent,
                children: BTreeMap::new(),
                last_used: 0,
            }));
        }
        self.nodes = nodes;
        self.free = Vec::new();
        self.root_children = root_children;
        self.leases = Vec::new();
        self.clock = 0;
        self.stats = PrefixCacheStats::default();
        Ok(())
    }

    /// Restores the trie from a snapshot file written by the serving
    /// layer, returning the number of nodes restored. The snapshot must
    /// carry exactly `fingerprint` — a mismatch (different model config or
    /// weight seed) is an error and leaves the cache untouched, so a
    /// restarted engine degrades to a clean cold start instead of serving
    /// another model's KV rows.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] if the file cannot be read, any decode error
    /// from [`cocktail_kvcache::read_snapshot`], or
    /// [`SnapshotError::FingerprintMismatch`].
    pub fn restore_from(&mut self, path: &Path, fingerprint: u64) -> Result<usize, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        let snapshot = read_snapshot(&bytes)?;
        snapshot.expect_fingerprint(fingerprint)?;
        let nodes = snapshot.nodes.len();
        self.load_snapshot(snapshot)?;
        Ok(nodes)
    }

    /// Structural invariants of the trie, checked by tests (and cheap
    /// enough for debug assertions): parent/child pointers agree, every
    /// node's run is non-empty and keyed by its first token, each node's
    /// blocks cover exactly its run, and no interior node lost all its
    /// children without being removed.
    #[cfg(test)]
    fn assert_consistent(&self) {
        let mut reachable = 0usize;
        let mut stack: Vec<(Option<usize>, usize)> =
            self.root_children.iter().map(|(_, &i)| (None, i)).collect();
        while let Some((parent, idx)) = stack.pop() {
            let node = self.node(idx);
            reachable += 1;
            assert_eq!(node.parent, parent, "parent pointer mismatch at {idx}");
            assert!(!node.run.is_empty(), "empty run at {idx}");
            assert_eq!(
                node.kv.tokens(),
                node.run.len(),
                "blocks must cover exactly the node's run"
            );
            for (&first, &child) in &node.children {
                assert_eq!(
                    self.node(child).run[0],
                    first,
                    "child key must be the child's first run token"
                );
                stack.push((Some(idx), child));
            }
        }
        assert_eq!(reachable, self.len(), "unreachable live nodes");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cocktail_kvcache::PrefixKvBlock;
    use cocktail_tensor::rng::gaussian_matrix;
    use proptest::prelude::*;

    fn kv(tokens: usize, seed: u64) -> SharedPrefixKv {
        SharedPrefixKv::from_blocks(
            1,
            1,
            vec![PrefixKvBlock::new(
                gaussian_matrix(tokens, 4, 1.0, seed),
                gaussian_matrix(tokens, 4, 1.0, seed + 500),
            )
            .unwrap()],
        )
        .unwrap()
    }

    /// Blocks whose rows deterministically encode their absolute position,
    /// so reassembled prefixes can be checked row-for-row.
    fn positional_kv(tokens: usize) -> SharedPrefixKv {
        let data: Vec<f32> = (0..tokens * 4).map(|i| i as f32).collect();
        let k = cocktail_tensor::Matrix::from_vec(tokens, 4, data.clone()).unwrap();
        let v = cocktail_tensor::Matrix::from_vec(tokens, 4, data.iter().map(|x| -x).collect())
            .unwrap();
        SharedPrefixKv::from_blocks(1, 1, vec![PrefixKvBlock::new(k, v).unwrap()]).unwrap()
    }

    fn seq(start: u32, len: usize) -> Vec<u32> {
        (start..start + len as u32).collect()
    }

    fn branch(preamble: usize, tail_start: u32, tail: usize) -> Vec<u32> {
        let mut t = seq(0, preamble);
        t.extend(seq(tail_start, tail));
        t
    }

    fn small_cache() -> PrefixCache {
        PrefixCache::new(PrefixCacheConfig::default().with_min_prefix_tokens(4))
    }

    #[test]
    fn lookup_returns_longest_cached_prefix() {
        let mut cache = small_cache();
        cache.insert(seq(0, 10), kv(10, 1));
        cache.insert(branch(6, 100, 6), kv(12, 2));
        cache.assert_consistent();

        let mut query = seq(0, 8);
        query.push(999);
        let hit = cache.lookup(&query).unwrap();
        assert_eq!(
            hit.tokens(),
            8,
            "the 10-token branch shares 8 leading tokens"
        );
        assert_eq!(hit.kv().tokens(), 8);
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.reused_tokens, 8);
    }

    #[test]
    fn short_matches_are_misses() {
        let mut cache = small_cache();
        cache.insert(seq(0, 10), kv(10, 1));
        let mut query = seq(0, 3); // below min_prefix_tokens = 4
        query.extend(seq(50, 8));
        assert!(cache.lookup(&query).is_none());
        assert!(cache.lookup(&seq(200, 10)).is_none());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn divergent_branches_store_their_common_prefix_once() {
        let mut cache = small_cache();
        cache.insert(branch(8, 100, 4), kv(12, 1));
        let one_branch_bytes = cache.total_bytes();
        cache.insert(branch(8, 200, 4), kv(12, 2));
        cache.assert_consistent();
        let stats = cache.stats();
        assert_eq!(stats.nodes, 3, "preamble node + two branch leaves");
        assert_eq!(stats.entries, 2, "two cached branches");
        assert_eq!(stats.node_splits, 1);
        // The whole-sequence map would hold 2 x 12 tokens; the trie holds
        // 8 + 4 + 4 = 16 — strictly fewer bytes than 24 rows.
        let per_token = one_branch_bytes / 12;
        assert_eq!(cache.total_bytes(), 16 * per_token);
        // Both branches resolve fully.
        assert_eq!(cache.lookup(&branch(8, 100, 4)).unwrap().tokens(), 12);
        assert_eq!(cache.lookup(&branch(8, 200, 4)).unwrap().tokens(), 12);
    }

    #[test]
    fn multi_node_hits_assemble_contiguous_rows() {
        let mut cache = small_cache();
        // Insert the full 12-token run with position-encoded rows, then
        // split it by inserting a divergent branch.
        let full: Vec<u32> = seq(0, 12);
        cache.insert(full.clone(), positional_kv(12));
        cache.insert(branch(5, 300, 3), positional_kv(8));
        cache.assert_consistent();
        // A full-path hit spans preamble node + original tail node.
        let hit = cache.lookup(&full).unwrap();
        assert_eq!(hit.tokens(), 12);
        let reference = positional_kv(12);
        assert_eq!(
            hit.kv().block(0, 0).k(),
            reference.block(0, 0).k(),
            "assembled rows must equal the original contiguous rows"
        );
        assert_eq!(hit.kv().block(0, 0).v(), reference.block(0, 0).v());
    }

    #[test]
    fn insert_covered_sequences_is_a_noop_and_covers_reports_prefixes() {
        let mut cache = small_cache();
        cache.insert(seq(0, 6), kv(6, 1));
        assert!(cache.covers(&seq(0, 6)));
        assert!(cache.covers(&seq(0, 4)), "mid-run coverage counts");
        assert!(!cache.covers(&[]));
        // Extending a cached run adds only the suffix node.
        cache.insert(seq(0, 12), kv(12, 2));
        assert_eq!(cache.len(), 2);
        assert!(cache.covers(&seq(0, 12)));
        // Inserting something already covered adds nothing.
        cache.insert(seq(0, 9), kv(9, 3));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().insertions, 2);
        cache.assert_consistent();
    }

    #[test]
    fn partial_eviction_trims_leaves_first_and_keeps_ancestors() {
        let mut cache = small_cache();
        cache.insert(branch(8, 100, 4), kv(12, 1));
        cache.insert(branch(8, 200, 4), kv(12, 2));
        // Touch branch 200 so branch 100's leaf is the LRU.
        cache.lookup(&branch(8, 200, 4)).unwrap();
        let freed = cache.evict_lru_unpinned().unwrap();
        assert!(freed > 0);
        cache.assert_consistent();
        let stats = cache.stats();
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.partial_evictions, 1, "an ancestor stayed resident");
        // The preamble and the surviving branch still serve lookups.
        assert_eq!(cache.lookup(&branch(8, 200, 4)).unwrap().tokens(), 12);
        assert_eq!(
            cache.lookup(&branch(8, 100, 4)).unwrap().tokens(),
            8,
            "the trimmed branch still reuses the shared preamble"
        );
    }

    #[test]
    fn split_off_tails_keep_their_old_lru_stamp() {
        let mut cache = small_cache();
        // A (preamble + X tail) is oldest; H is a hotter unrelated branch;
        // B splits A's node. The split-off X tail belongs to A and must
        // keep A's stale stamp — not inherit B's fresh one — so the next
        // eviction trims X, not H.
        cache.insert(branch(8, 100, 4), kv(12, 1)); // A = P ++ X
        cache.insert(seq(500, 8), kv(8, 2)); // H, more recent than A
        cache.insert(branch(8, 200, 4), kv(12, 3)); // B = P ++ Y, splits A
        cache.evict_lru_unpinned().unwrap();
        cache.assert_consistent();
        assert!(cache.covers(&seq(500, 8)), "the hot branch must survive");
        assert_eq!(
            cache.peek_prefix_len(&branch(8, 100, 4)),
            8,
            "the stale split-off tail is what gets evicted"
        );
    }

    #[test]
    fn lru_eviction_skips_pinned_leaves() {
        let mut cache = PrefixCache::new(
            PrefixCacheConfig::default()
                .with_min_prefix_tokens(4)
                .with_max_entries(2),
        );
        cache.insert(seq(0, 8), kv(8, 1));
        cache.insert(seq(100, 8), kv(8, 2));
        // Pin the older branch by holding a hit on it.
        let pinned = cache.lookup(&seq(0, 8)).unwrap();
        // Now the 100.. leaf is the LRU unpinned one: the third insert
        // evicts it, not the pinned branch.
        cache.insert(seq(200, 8), kv(8, 3));
        assert_eq!(cache.len(), 2);
        assert!(cache.covers(&seq(0, 8)), "pinned branch must survive");
        assert!(!cache.covers(&seq(100, 8)));
        drop(pinned);
        let freed = cache.evict_lru_unpinned().unwrap();
        assert!(freed > 0);
        assert_eq!(cache.len(), 1);
        cache.assert_consistent();
    }

    #[test]
    fn layout_mismatched_inserts_are_ignored() {
        // The trie serves one model; a kv with a different layer/head
        // layout must be rejected at insert time rather than panicking a
        // later multi-node lookup's assembly.
        let mut cache = small_cache();
        cache.insert(seq(0, 8), kv(8, 1)); // 1 layer x 1 head
        let other_layout = SharedPrefixKv::from_blocks(
            2,
            1,
            vec![
                PrefixKvBlock::new(
                    gaussian_matrix(12, 4, 1.0, 9),
                    gaussian_matrix(12, 4, 1.0, 10),
                )
                .unwrap(),
                PrefixKvBlock::new(
                    gaussian_matrix(12, 4, 1.0, 11),
                    gaussian_matrix(12, 4, 1.0, 12),
                )
                .unwrap(),
            ],
        )
        .unwrap();
        cache.insert(seq(0, 12), other_layout);
        assert_eq!(cache.len(), 1, "mismatched layout must not be cached");
        cache.assert_consistent();
        // The original branch still serves lookups across its full run.
        assert_eq!(cache.lookup(&seq(0, 12)).unwrap().tokens(), 8);
    }

    #[test]
    fn total_bytes_tracks_nodes() {
        let mut cache = small_cache();
        assert_eq!(cache.total_bytes(), 0);
        assert!(cache.is_empty());
        cache.insert(seq(0, 8), kv(8, 1));
        let one = cache.total_bytes();
        assert_eq!(one, 2 * 8 * 4 * 4); // k+v, 8 tokens, dim 4, f32
        cache.insert(seq(100, 8), kv(8, 2));
        assert_eq!(cache.total_bytes(), 2 * one);
        cache.evict_lru_unpinned().unwrap();
        assert_eq!(cache.total_bytes(), one);
        assert_eq!(cache.stats().resident_bytes, one);
    }

    /// A unique spill-file path per test (and per proptest case), so
    /// parallel tests never share cold tiers.
    fn spill_path(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("cocktail_spill_{}_{tag}_{n}", std::process::id()))
    }

    #[test]
    fn eviction_demotes_to_the_cold_tier_and_repromotes_bit_identically() {
        let mut cache = small_cache();
        cache.enable_cold_tier(spill_path("roundtrip"), 42).unwrap();
        assert!(cache.cold_tier_enabled());
        cache.insert(seq(0, 12), positional_kv(12));
        // Split the run so the evicted leaf has a resident ancestor: the
        // demoted record must still cover the *full* path.
        cache.insert(branch(5, 300, 3), positional_kv(8));
        // Evict the 12-token branch's tail leaf (LRU).
        let freed = cache.evict_lru_unpinned().unwrap();
        assert!(freed > 0);
        cache.assert_consistent();
        let stats = cache.stats();
        assert_eq!(stats.demotions, 1);
        assert!(stats.cold_resident_bytes > 0);
        assert_eq!(cache.peek_prefix_len(&seq(0, 12)), 5, "RAM lost the tail");

        // The cold index still knows the full 12-token path.
        let (matched, est) = cache.cold_match(&seq(0, 12)).unwrap();
        assert_eq!(matched, 12);
        assert!(est > 0);
        let added = cache.repromote(&seq(0, 12)).unwrap();
        assert!(added > 0);
        cache.assert_consistent();
        assert_eq!(cache.stats().repromotions, 1);

        // The repromoted rows are bit-identical to the original prefill.
        let hit = cache.lookup(&seq(0, 12)).unwrap();
        assert_eq!(hit.tokens(), 12);
        let reference = positional_kv(12);
        assert_eq!(hit.kv().block(0, 0).k(), reference.block(0, 0).k());
        assert_eq!(hit.kv().block(0, 0).v(), reference.block(0, 0).v());
    }

    #[test]
    fn cold_match_respects_the_reuse_threshold_and_partial_overlap() {
        let mut cache = small_cache();
        cache.enable_cold_tier(spill_path("partial"), 7).unwrap();
        cache.insert(seq(0, 10), positional_kv(10));
        cache.evict_lru_unpinned().unwrap();
        // A query sharing only 3 leading tokens is below min_prefix_tokens.
        let mut short = seq(0, 3);
        short.extend(seq(900, 5));
        assert!(cache.cold_match(&short).is_none());
        // A query sharing 6 tokens repromotes just that slice.
        let mut partial = seq(0, 6);
        partial.extend(seq(900, 4));
        assert_eq!(cache.cold_match(&partial).unwrap().0, 6);
        cache.repromote(&partial).unwrap();
        let hit = cache.lookup(&partial).unwrap();
        assert_eq!(hit.tokens(), 6);
        let reference = positional_kv(10);
        assert_eq!(
            hit.kv().block(0, 0).k(),
            &reference.block(0, 0).k().slice_rows(0, 6)
        );
        // Unrelated queries still miss.
        assert!(cache.cold_match(&seq(5000, 10)).is_none());
    }

    #[test]
    fn corrupted_spill_records_are_dropped_without_panic() {
        let mut cache = small_cache();
        let path = spill_path("corrupt");
        cache.enable_cold_tier(path.clone(), 1).unwrap();
        cache.insert(seq(0, 10), kv(10, 1));
        cache.evict_lru_unpinned().unwrap();
        assert_eq!(cache.stats().demotions, 1);
        // Flip one payload byte on disk (past the 8-byte frame length).
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = 8 + (bytes.len() - 8) / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        // The repromotion fails cleanly and the record is forgotten.
        assert!(cache.repromote(&seq(0, 10)).is_none());
        assert_eq!(cache.stats().cold_resident_bytes, 0);
        assert!(cache.cold_match(&seq(0, 10)).is_none());
        assert_eq!(cache.stats().repromotions, 0);
        cache.assert_consistent();
    }

    #[test]
    fn snapshot_export_import_round_trips_the_trie() {
        let mut cache = small_cache();
        cache.insert(seq(0, 12), positional_kv(12));
        cache.insert(branch(5, 300, 3), positional_kv(8));
        cache.insert(branch(5, 400, 4), positional_kv(9));
        cache.assert_consistent();
        let snapshot = cache.to_snapshot(99, vec!["alpha".into(), "beta".into()]);
        assert_eq!(snapshot.nodes.len(), cache.len());
        assert_eq!(snapshot.fingerprint, 99);

        let mut restored = small_cache();
        restored.load_snapshot(snapshot).unwrap();
        restored.assert_consistent();
        assert_eq!(restored.len(), cache.len());
        assert_eq!(restored.total_bytes(), cache.total_bytes());
        // Restored lookups serve the same prefixes with bit-identical rows.
        let hit = restored.lookup(&seq(0, 12)).unwrap();
        assert_eq!(hit.tokens(), 12);
        let reference = positional_kv(12);
        assert_eq!(hit.kv().block(0, 0).k(), reference.block(0, 0).k());
        assert_eq!(restored.lookup(&branch(5, 400, 4)).unwrap().tokens(), 9);
        // Counters start fresh after a restore (modeling a restart)...
        assert_eq!(restored.stats().insertions, 0);
        // ...but occupancy is live.
        assert_eq!(restored.stats().nodes, cache.len());
    }

    #[test]
    fn restore_from_rejects_wrong_fingerprints_and_bad_files() {
        let mut cache = small_cache();
        cache.insert(seq(0, 10), kv(10, 1));
        let path = spill_path("restore");
        let bytes = cocktail_kvcache::write_snapshot(&cache.to_snapshot(1234, Vec::new()));
        std::fs::write(&path, &bytes).unwrap();

        let mut target = small_cache();
        target.insert(seq(700, 6), kv(6, 9));
        // Wrong fingerprint: error, cache untouched.
        assert!(matches!(
            target.restore_from(&path, 4321),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
        assert!(target.covers(&seq(700, 6)));
        // Right fingerprint: the trie is replaced.
        assert_eq!(target.restore_from(&path, 1234).unwrap(), 1);
        assert!(target.covers(&seq(0, 10)));
        assert!(!target.covers(&seq(700, 6)));
        target.assert_consistent();
        // Missing file: Io error, no panic.
        assert!(matches!(
            target.restore_from(Path::new("/nonexistent/snap"), 1234),
            Err(SnapshotError::Io(_))
        ));
    }

    /// Reference model for the proptest: the whole-sequence (LCP map)
    /// byte accounting the trie must strictly beat whenever branches
    /// share a prefix.
    fn lcp_map_bytes(sequences: &[Vec<u32>], per_token: usize) -> usize {
        let mut kept: Vec<&Vec<u32>> = Vec::new();
        for s in sequences {
            if kept.iter().any(|k| k.len() >= s.len() && k.starts_with(s)) {
                continue;
            }
            kept.retain(|k| !(k.len() < s.len() && s.starts_with(k)));
            kept.push(s);
        }
        kept.iter().map(|s| s.len() * per_token).sum()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Under random branching insert/lookup/evict traffic the trie
        /// stays structurally consistent, each node's refcount reflects
        /// exactly the live hits pinning it, partial eviction never frees
        /// an ancestor of a live node (every covered-yesterday prefix that
        /// is still resident remains reachable from the root), and the
        /// trie never stores more bytes than the whole-sequence LCP map
        /// would.
        #[test]
        fn trie_invariants_under_random_branching_traffic(
            preamble in 4usize..10,
            tail_draws in proptest::collection::vec(0u32..42, 1..10),
            evictions in 0usize..6,
        ) {
            let mut cache = small_cache();
            let mut inserted: Vec<Vec<u32>> = Vec::new();
            let per_token = 2 * 4 * 4; // k+v rows of dim 4 at f32
            let mut hits: Vec<PrefixHit> = Vec::new();
            // Decode each draw into (tail family 0..6, tail length 1..8).
            let tails: Vec<(u32, usize)> = tail_draws
                .iter()
                .map(|d| (d % 6, 1 + (d / 6) as usize))
                .collect();
            for (i, (tail_family, tail_len)) in tails.iter().enumerate() {
                // Branches share the preamble and diverge into one of six
                // tail families, exercising splits below the first level.
                let mut tokens = seq(0, preamble);
                tokens.extend(seq(1000 + tail_family * 100, *tail_len));
                tokens.push(2000 + i as u32); // unique final token
                let blocks = kv(tokens.len(), i as u64);
                cache.insert(tokens.clone(), blocks);
                cache.assert_consistent();
                inserted.push(tokens.clone());
                // Every other branch holds a live hit, pinning its path.
                if i % 2 == 0 {
                    hits.push(cache.lookup(&tokens).expect("just inserted"));
                }
            }
            // Refcounts reflect live pins: with all hits dropped, no node
            // may stay pinned.
            prop_assert!(cache.stats().pinned_entries <= cache.len());
            drop(hits);
            prop_assert_eq!(cache.stats().pinned_entries, 0,
                "dropping every hit must unpin every node");

            // The trie never exceeds the whole-sequence map's bytes.
            prop_assert!(cache.total_bytes() <= lcp_map_bytes(&inserted, per_token));
            // With >= 2 branches over one preamble it is strictly better.
            if inserted.len() >= 2 {
                prop_assert!(cache.total_bytes() < lcp_map_bytes(&inserted, per_token),
                    "branches over a common preamble must dedup");
            }

            for _ in 0..evictions {
                if cache.evict_lru_unpinned().is_none() {
                    break;
                }
                cache.assert_consistent();
            }
            // Partial eviction never frees an ancestor of a live node:
            // consistency (checked above) plus every still-resident prefix
            // remaining reachable — peek over every inserted sequence must
            // equal the longest resident root-path for it.
            for tokens in &inserted {
                let matched = cache.peek_prefix_len(tokens);
                // Whatever remains cached is a true prefix of the inserted
                // sequence and can be looked up if long enough.
                if matched >= cache.config().min_prefix_tokens {
                    let hit = cache.lookup(tokens).expect("resident prefix must hit");
                    prop_assert_eq!(hit.tokens(), matched);
                }
            }
        }

        /// With the cold tier enabled and a tight node cap, random
        /// insert/evict/repromote traffic keeps every trie invariant of the
        /// model above, and every hit — including hits over repromoted
        /// branches — returns rows bit-identical to the original prefill
        /// (all inserts use position-encoded rows, so the expected bits of
        /// an `m`-token hit are always `positional_kv(m)`).
        #[test]
        fn demote_repromote_preserves_trie_invariants(
            preamble in 4usize..10,
            tail_draws in proptest::collection::vec(0u32..42, 1..10),
            ops in proptest::collection::vec(0u32..1000, 0..12),
        ) {
            let mut cache = PrefixCache::new(
                PrefixCacheConfig::default()
                    .with_min_prefix_tokens(4)
                    .with_max_entries(4),
            );
            cache.enable_cold_tier(spill_path("prop"), 5).unwrap();
            let mut inserted: Vec<Vec<u32>> = Vec::new();
            for (i, d) in tail_draws.iter().enumerate() {
                let mut tokens = seq(0, preamble);
                tokens.extend(seq(1000 + (d % 6) * 100, 1 + (d / 6) as usize));
                tokens.push(2000 + i as u32);
                cache.insert(tokens.clone(), positional_kv(tokens.len()));
                cache.assert_consistent();
                inserted.push(tokens);
            }
            for op in ops {
                if op % 2 == 0 {
                    cache.evict_lru_unpinned();
                } else {
                    let target = &inserted[(op as usize / 2) % inserted.len()];
                    cache.repromote(target);
                }
                cache.assert_consistent();
            }
            // Every sequence is servable from RAM, the cold tier, or both;
            // whatever path serves it must produce bit-identical rows.
            for tokens in &inserted {
                if let Some((cold_len, _)) = cache.cold_match(tokens) {
                    if cold_len > cache.peek_prefix_len(tokens) {
                        cache.repromote(tokens);
                        cache.assert_consistent();
                    }
                }
                let matched = cache.peek_prefix_len(tokens);
                if matched >= cache.config().min_prefix_tokens {
                    let hit = cache.lookup(tokens).expect("resident prefix must hit");
                    prop_assert_eq!(hit.tokens(), matched);
                    let reference = positional_kv(hit.tokens());
                    prop_assert_eq!(hit.kv().block(0, 0).k(), reference.block(0, 0).k());
                    prop_assert_eq!(hit.kv().block(0, 0).v(), reference.block(0, 0).v());
                }
            }
        }
    }
}
