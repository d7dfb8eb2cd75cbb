//! Flat, versioned binary snapshots of shared-prefix KV tries.
//!
//! A snapshot serializes a prefix trie — its node topology, per-node token
//! runs, and the FP32 [`SharedPrefixKv`] blocks each node owns — into one
//! contiguous byte buffer that can be written to disk and restored after a
//! process restart, or shipped to a fresh replica to pre-warm it. The design
//! follows the in-place (de)serialization style of flattened device trees:
//! a fixed little-endian header, one aligned region holding every raw block
//! payload back to back, and a compact node table that references payloads
//! by offset. Reading validates the whole buffer once (magic, version,
//! checksum, bounds, alignment, topological order) and then materializes
//! blocks straight from the region with a single bulk `f32` decode per
//! block — there is no per-row or per-token parsing step.
//!
//! ## Layout
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic  b"CKTLSNAP"
//!      8     4  format version (u32, currently 1)
//!     12     4  layers (u32)
//!     16     4  kv_heads (u32)
//!     20     4  reserved (zero)
//!     24     8  config fingerprint (u64, opaque to this crate)
//!     32     8  node count (u64)
//!     40     8  vocab count (u64)
//!     48     8  block region length (u64)
//!     56     8  checksum: FNV-1a over the whole buffer with this field zero
//!     64     …  block region (each f32-LE payload starts 64-byte aligned)
//!      …     …  node table (parent, token run, shape, per-block offsets)
//!      …     …  vocab table (length-prefixed UTF-8 words)
//! ```
//!
//! Nodes are stored parents-first (a node's parent index is always smaller
//! than its own), so a restorer can rebuild the trie in one forward pass.
//! The checksum covers every byte of the file, so any single-byte
//! truncation or corruption — header, payload, node table or vocab — is
//! rejected with a typed error instead of producing a silently wrong trie.
//!
//! The config fingerprint is opaque here: the serving layer derives it from
//! the model/quantization configuration and weight seed, and uses
//! [`TrieSnapshot::fingerprint`] to decide whether a snapshot's KV rows are
//! meaningful for the current engine (mismatch ⇒ clean cold start).

use crate::error::KvCacheError;
use crate::shared::{PrefixKvBlock, SharedPrefixKv};
use cocktail_tensor::Matrix;
use std::fmt;

/// Magic bytes identifying a Cocktail trie snapshot.
pub(crate) const SNAPSHOT_MAGIC: [u8; 8] = *b"CKTLSNAP";

/// Current snapshot format version. Bump this (and regenerate the committed
/// golden fixture in `tests/fixtures/`) whenever the byte layout changes.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Byte length of the fixed snapshot header.
pub(crate) const SNAPSHOT_HEADER_LEN: usize = 64;

/// Alignment (in bytes) of every block payload inside the block region.
pub(crate) const SNAPSHOT_BLOCK_ALIGN: usize = 64;

const CHECKSUM_OFFSET: usize = 56;

/// Error raised while decoding a snapshot buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before a complete record could be read.
    Truncated,
    /// The buffer does not start with the magic bytes `CKTLSNAP`.
    BadMagic,
    /// The format version is not [`SNAPSHOT_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The whole-buffer checksum does not match (bit rot, torn write, or a
    /// corrupted download).
    ChecksumMismatch,
    /// The snapshot was written under a different model/quant configuration
    /// than the one now running.
    FingerprintMismatch {
        /// Fingerprint the reader expected.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// The buffer is structurally invalid (bad offsets, misaligned payload,
    /// non-topological parent order, trailing bytes, …).
    Malformed(String),
    /// An I/O error while reading or writing a snapshot file.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::BadMagic => write!(f, "not a trie snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (reader supports \
                     {SNAPSHOT_FORMAT_VERSION})"
                )
            }
            SnapshotError::ChecksumMismatch => write!(f, "snapshot checksum mismatch"),
            SnapshotError::FingerprintMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match engine {expected:#018x}"
            ),
            SnapshotError::Malformed(detail) => write!(f, "malformed snapshot: {detail}"),
            SnapshotError::Io(detail) => write!(f, "snapshot io error: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<KvCacheError> for SnapshotError {
    fn from(err: KvCacheError) -> Self {
        SnapshotError::Malformed(err.to_string())
    }
}

/// One trie node as it appears in a snapshot: its parent (by index into the
/// snapshot's parents-first node list), the token run it owns, and the KV
/// rows for exactly that run.
#[derive(Debug, Clone)]
pub struct SnapshotNode {
    /// Index of the parent node in the snapshot's node list, or `None` for
    /// a child of the trie root. Always smaller than this node's own index.
    pub parent: Option<usize>,
    /// The token run this node owns (non-empty).
    pub run: Vec<u32>,
    /// KV rows for exactly `run.len()` tokens.
    pub kv: SharedPrefixKv,
}

/// A decoded (or to-be-encoded) trie snapshot: the KV layout, the opaque
/// config fingerprint, the tokenizer vocabulary in interning order, and the
/// nodes in parents-first order.
#[derive(Debug, Clone)]
pub struct TrieSnapshot {
    /// Opaque model/quant-config fingerprint chosen by the writer.
    pub fingerprint: u64,
    /// Number of model layers each node's KV covers.
    pub layers: usize,
    /// Number of KV heads per layer.
    pub kv_heads: usize,
    /// Tokenizer vocabulary in interning order at snapshot time. Token ids
    /// in node runs are only meaningful under this interning order.
    pub vocab: Vec<String>,
    /// Trie nodes, parents before children.
    pub nodes: Vec<SnapshotNode>,
}

impl TrieSnapshot {
    /// Returns an error unless the snapshot's fingerprint equals
    /// `expected`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FingerprintMismatch`] on any difference.
    pub fn expect_fingerprint(&self, expected: u64) -> Result<(), SnapshotError> {
        if self.fingerprint != expected {
            return Err(SnapshotError::FingerprintMismatch {
                expected,
                found: self.fingerprint,
            });
        }
        Ok(())
    }

    /// Total FP32 bytes of all node KV blocks.
    pub fn kv_bytes(&self) -> usize {
        self.nodes.iter().map(|n| n.kv.storage_bytes()).sum()
    }
}

/// FNV-1a over a byte slice — the checksum primitive. A single flipped byte
/// anywhere in the input always changes the digest (the multiply by an odd
/// prime is invertible mod 2^64), which is exactly the guarantee the
/// corruption tests lean on.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn pad_to_align(buf: &mut Vec<u8>, base: usize) {
    while (buf.len() - base) % SNAPSHOT_BLOCK_ALIGN != 0 {
        buf.push(0);
    }
}

fn push_matrix(region: &mut Vec<u8>, m: &Matrix) -> u64 {
    pad_to_align(region, 0);
    let offset = region.len() as u64;
    for value in m.as_slice() {
        region.extend_from_slice(&value.to_le_bytes());
    }
    offset
}

/// Serializes a [`TrieSnapshot`] into one flat buffer.
///
/// The writer walks the node list once, appending each block's raw `f32`
/// rows (little-endian, 64-byte aligned) to the block region and recording
/// the offsets in the node table; the checksum is computed last over the
/// finished buffer.
///
/// # Panics
///
/// Panics if a node's KV layout disagrees with `snapshot.layers` /
/// `snapshot.kv_heads`, its run is empty, or its KV token count differs
/// from its run length — those are construction bugs in the caller, not
/// recoverable data errors.
pub fn write_snapshot(snapshot: &TrieSnapshot) -> Vec<u8> {
    // Per-node: parent sentinel, run, rows, cols, then layer-major
    // (k_offset, v_offset) pairs into the block region.
    type NodeRecord = (u64, Vec<u32>, u64, u64, Vec<(u64, u64)>);
    let mut region: Vec<u8> = Vec::new();
    let mut node_records: Vec<NodeRecord> = Vec::new();

    for (i, node) in snapshot.nodes.iter().enumerate() {
        assert!(!node.run.is_empty(), "snapshot node {i} has an empty run");
        assert_eq!(
            node.kv.tokens(),
            node.run.len(),
            "snapshot node {i}: kv covers {} tokens but run has {}",
            node.kv.tokens(),
            node.run.len()
        );
        assert_eq!(
            (node.kv.layers(), node.kv.kv_heads()),
            (snapshot.layers, snapshot.kv_heads),
            "snapshot node {i} disagrees with the snapshot KV layout"
        );
        if let Some(parent) = node.parent {
            assert!(parent < i, "snapshot node {i} has parent {parent} >= {i}");
        }
        let cols = node.kv.block(0, 0).k().cols();
        let mut offsets = Vec::with_capacity(snapshot.layers * snapshot.kv_heads);
        for layer in 0..snapshot.layers {
            for head in 0..snapshot.kv_heads {
                let block = node.kv.block(layer, head);
                let k_off = push_matrix(&mut region, block.k());
                let v_off = push_matrix(&mut region, block.v());
                offsets.push((k_off, v_off));
            }
        }
        let parent = node.parent.map_or(u64::MAX, |p| p as u64);
        node_records.push((
            parent,
            node.run.clone(),
            node.run.len() as u64,
            cols as u64,
            offsets,
        ));
    }

    let mut buf = Vec::with_capacity(SNAPSHOT_HEADER_LEN + region.len());
    buf.extend_from_slice(&SNAPSHOT_MAGIC);
    buf.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    buf.extend_from_slice(&(snapshot.layers as u32).to_le_bytes());
    buf.extend_from_slice(&(snapshot.kv_heads as u32).to_le_bytes());
    buf.extend_from_slice(&0u32.to_le_bytes());
    buf.extend_from_slice(&snapshot.fingerprint.to_le_bytes());
    buf.extend_from_slice(&(snapshot.nodes.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(snapshot.vocab.len() as u64).to_le_bytes());
    buf.extend_from_slice(&(region.len() as u64).to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below
    debug_assert_eq!(buf.len(), SNAPSHOT_HEADER_LEN);
    buf.extend_from_slice(&region);

    for (parent, run, rows, cols, offsets) in &node_records {
        buf.extend_from_slice(&parent.to_le_bytes());
        buf.extend_from_slice(&rows.to_le_bytes());
        for token in run {
            buf.extend_from_slice(&token.to_le_bytes());
        }
        buf.extend_from_slice(&cols.to_le_bytes());
        for (k_off, v_off) in offsets {
            buf.extend_from_slice(&k_off.to_le_bytes());
            buf.extend_from_slice(&v_off.to_le_bytes());
        }
    }

    for word in &snapshot.vocab {
        buf.extend_from_slice(&(word.len() as u64).to_le_bytes());
        buf.extend_from_slice(word.as_bytes());
    }

    let checksum = fnv1a(&buf);
    buf[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&checksum.to_le_bytes());
    buf
}

/// Forward-only reader over the node/vocab tables of a snapshot buffer.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated)?;
        if end > self.bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn take_u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn take_u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

fn matrix_from_region(
    region: &[u8],
    offset: u64,
    rows: usize,
    cols: usize,
) -> Result<Matrix, SnapshotError> {
    let len = rows
        .checked_mul(cols)
        .and_then(|n| n.checked_mul(4))
        .ok_or_else(|| SnapshotError::Malformed("block size overflows".into()))?;
    let offset = usize::try_from(offset)
        .map_err(|_| SnapshotError::Malformed("block offset overflows".into()))?;
    if offset % SNAPSHOT_BLOCK_ALIGN != 0 {
        return Err(SnapshotError::Malformed(format!(
            "block payload at offset {offset} is not {SNAPSHOT_BLOCK_ALIGN}-byte aligned"
        )));
    }
    let end = offset
        .checked_add(len)
        .filter(|&e| e <= region.len())
        .ok_or_else(|| SnapshotError::Malformed("block payload out of region bounds".into()))?;
    let data: Vec<f32> = region[offset..end]
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Matrix::from_vec(rows, cols, data)
        .map_err(|e| SnapshotError::Malformed(format!("block decode: {e}")))
}

/// Validates and decodes a snapshot buffer.
///
/// Validation is strict: magic, version, full-buffer checksum, region
/// bounds, payload alignment, parents-first node order, run/shape
/// consistency and exact buffer consumption are all checked before any
/// node is returned, so a truncated or corrupted buffer can never yield a
/// partially-wrong trie. Fingerprint checking is left to the caller (via
/// [`TrieSnapshot::expect_fingerprint`]) so it can distinguish "wrong
/// config" from "corrupt file".
///
/// # Errors
///
/// Any [`SnapshotError`] variant except `FingerprintMismatch` / `Io`.
pub fn read_snapshot(bytes: &[u8]) -> Result<TrieSnapshot, SnapshotError> {
    if bytes.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut header = Cursor { bytes, pos: 8 };
    let version = header.take_u32()?;
    if version != SNAPSHOT_FORMAT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let layers = header.take_u32()? as usize;
    let kv_heads = header.take_u32()? as usize;
    let reserved = header.take_u32()?;
    if reserved != 0 {
        return Err(SnapshotError::Malformed("reserved header field set".into()));
    }
    let fingerprint = header.take_u64()?;
    let node_count = header.take_u64()?;
    let vocab_count = header.take_u64()?;
    let region_len = header.take_u64()? as usize;
    let stored_checksum = header.take_u64()?;
    debug_assert_eq!(header.pos, SNAPSHOT_HEADER_LEN);

    let mut zeroed = bytes.to_vec();
    zeroed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
    if fnv1a(&zeroed) != stored_checksum {
        return Err(SnapshotError::ChecksumMismatch);
    }

    if layers == 0 || kv_heads == 0 {
        return Err(SnapshotError::Malformed("zero layers or kv heads".into()));
    }
    let region_end = SNAPSHOT_HEADER_LEN
        .checked_add(region_len)
        .filter(|&e| e <= bytes.len())
        .ok_or(SnapshotError::Truncated)?;
    let region = &bytes[SNAPSHOT_HEADER_LEN..region_end];

    let mut cursor = Cursor {
        bytes,
        pos: region_end,
    };
    let mut nodes = Vec::new();
    for i in 0..node_count {
        let parent_raw = cursor.take_u64()?;
        let parent = if parent_raw == u64::MAX {
            None
        } else {
            let p = usize::try_from(parent_raw)
                .ok()
                .filter(|&p| (p as u64) < i)
                .ok_or_else(|| {
                    SnapshotError::Malformed(format!(
                        "node {i} parent {parent_raw} is not an earlier node"
                    ))
                })?;
            Some(p)
        };
        let rows = cursor.take_u64()? as usize;
        if rows == 0 {
            return Err(SnapshotError::Malformed(format!("node {i} has empty run")));
        }
        let mut run = Vec::new();
        for _ in 0..rows {
            run.push(cursor.take_u32()?);
        }
        let cols = cursor.take_u64()? as usize;
        if cols == 0 {
            return Err(SnapshotError::Malformed(format!(
                "node {i} has zero-width blocks"
            )));
        }
        let mut blocks = Vec::new();
        for _ in 0..layers * kv_heads {
            let k_off = cursor.take_u64()?;
            let v_off = cursor.take_u64()?;
            let k = matrix_from_region(region, k_off, rows, cols)?;
            let v = matrix_from_region(region, v_off, rows, cols)?;
            blocks.push(PrefixKvBlock::new(k, v)?);
        }
        let kv = SharedPrefixKv::from_blocks(layers, kv_heads, blocks)?;
        nodes.push(SnapshotNode { parent, run, kv });
    }

    let mut vocab = Vec::new();
    for i in 0..vocab_count {
        let len = cursor.take_u64()? as usize;
        let raw = cursor.take(len)?;
        let word = std::str::from_utf8(raw)
            .map_err(|_| SnapshotError::Malformed(format!("vocab word {i} is not UTF-8")))?;
        vocab.push(word.to_string());
    }

    if cursor.pos != bytes.len() {
        return Err(SnapshotError::Malformed(format!(
            "{} trailing bytes after vocab table",
            bytes.len() - cursor.pos
        )));
    }

    Ok(TrieSnapshot {
        fingerprint,
        layers,
        kv_heads,
        vocab,
        nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic per-index f32 that exercises sign, fractions and a few
    /// special encodings (NaN payloads and negative zero survive the
    /// to/from_le_bytes round trip bit-exactly, which is the property the
    /// format promises).
    fn cell(tag: u64, i: usize) -> f32 {
        match (tag as usize + i) % 7 {
            0 => f32::NAN,
            1 => -0.0,
            2 => f32::INFINITY,
            3 => f32::MIN_POSITIVE / 2.0, // subnormal
            _ => ((tag as f32) + 1.25) * (i as f32 - 3.5),
        }
    }

    fn kv(layers: usize, kv_heads: usize, tokens: usize, cols: usize, tag: u64) -> SharedPrefixKv {
        let blocks = (0..layers * kv_heads)
            .map(|b| {
                let data = |salt: u64| {
                    (0..tokens * cols)
                        .map(|i| cell(tag.wrapping_mul(31).wrapping_add(salt + b as u64), i))
                        .collect::<Vec<f32>>()
                };
                PrefixKvBlock::new(
                    Matrix::from_vec(tokens, cols, data(1)).unwrap(),
                    Matrix::from_vec(tokens, cols, data(2)).unwrap(),
                )
                .unwrap()
            })
            .collect();
        SharedPrefixKv::from_blocks(layers, kv_heads, blocks).unwrap()
    }

    /// Builds a deterministic snapshot with `n` nodes in a chain/branch mix.
    fn sample_snapshot(n: usize, layers: usize, kv_heads: usize, cols: usize) -> TrieSnapshot {
        let nodes = (0..n)
            .map(|i| {
                let parent = if i == 0 { None } else { Some((i - 1) / 2) };
                let tokens = 1 + (i % 3);
                SnapshotNode {
                    parent,
                    run: (0..tokens as u32).map(|t| t + 10 * i as u32).collect(),
                    kv: kv(layers, kv_heads, tokens, cols, i as u64),
                }
            })
            .collect();
        TrieSnapshot {
            fingerprint: 0xfeed_beef_dead_cafe,
            layers,
            kv_heads,
            vocab: vec!["<bos>".into(), "hello".into(), "wörld".into()],
            nodes,
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_snapshots_bit_identical(a: &TrieSnapshot, b: &TrieSnapshot) {
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.layers, b.layers);
        assert_eq!(a.kv_heads, b.kv_heads);
        assert_eq!(a.vocab, b.vocab);
        assert_eq!(a.nodes.len(), b.nodes.len());
        for (x, y) in a.nodes.iter().zip(&b.nodes) {
            assert_eq!(x.parent, y.parent);
            assert_eq!(x.run, y.run);
            for layer in 0..a.layers {
                for head in 0..a.kv_heads {
                    assert_eq!(
                        bits(x.kv.block(layer, head).k()),
                        bits(y.kv.block(layer, head).k())
                    );
                    assert_eq!(
                        bits(x.kv.block(layer, head).v()),
                        bits(y.kv.block(layer, head).v())
                    );
                }
            }
        }
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let snapshot = sample_snapshot(7, 2, 2, 4);
        let bytes = write_snapshot(&snapshot);
        let restored = read_snapshot(&bytes).unwrap();
        assert_snapshots_bit_identical(&snapshot, &restored);
        restored.expect_fingerprint(snapshot.fingerprint).unwrap();
        assert!(matches!(
            restored.expect_fingerprint(1),
            Err(SnapshotError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn empty_trie_round_trips() {
        let snapshot = TrieSnapshot {
            fingerprint: 7,
            layers: 2,
            kv_heads: 1,
            vocab: vec!["a".into()],
            nodes: vec![],
        };
        let bytes = write_snapshot(&snapshot);
        let restored = read_snapshot(&bytes).unwrap();
        assert_eq!(restored.nodes.len(), 0);
        assert_eq!(restored.vocab, snapshot.vocab);
    }

    #[test]
    fn header_fields_are_where_the_doc_says() {
        let snapshot = sample_snapshot(3, 1, 2, 4);
        let bytes = write_snapshot(&snapshot);
        assert_eq!(&bytes[..8], &SNAPSHOT_MAGIC);
        assert_eq!(
            u32::from_le_bytes(bytes[8..12].try_into().unwrap()),
            SNAPSHOT_FORMAT_VERSION
        );
        assert_eq!(u32::from_le_bytes(bytes[12..16].try_into().unwrap()), 1);
        assert_eq!(u32::from_le_bytes(bytes[16..20].try_into().unwrap()), 2);
        assert_eq!(
            u64::from_le_bytes(bytes[32..40].try_into().unwrap()),
            3 // node count
        );
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let snapshot = sample_snapshot(2, 1, 1, 4);
        let bytes = write_snapshot(&snapshot);

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            read_snapshot(&bad_magic),
            Err(SnapshotError::BadMagic)
        ));

        // A future version must be refused even if the checksum is patched
        // to match, so old readers never mis-parse new layouts.
        let mut future = bytes.clone();
        future[8..12].copy_from_slice(&(SNAPSHOT_FORMAT_VERSION + 1).to_le_bytes());
        let mut zeroed = future.clone();
        zeroed[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
        let sum = fnv1a(&zeroed);
        future[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            read_snapshot(&future),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    proptest! {
        #[test]
        fn arbitrary_tries_round_trip(
            n in 0usize..9,
            layers in 1usize..3,
            kv_heads in 1usize..3,
            cols in 1usize..5,
        ) {
            let snapshot = sample_snapshot(n, layers, kv_heads, cols);
            let restored = read_snapshot(&write_snapshot(&snapshot)).unwrap();
            assert_snapshots_bit_identical(&snapshot, &restored);
        }

        #[test]
        fn truncations_are_rejected_without_panic(cut in 0usize..10_000) {
            let bytes = write_snapshot(&sample_snapshot(4, 2, 1, 4));
            let cut = cut % bytes.len();
            prop_assert!(read_snapshot(&bytes[..cut]).is_err());
        }

        #[test]
        fn single_byte_corruptions_are_rejected_without_panic(
            pos in 0usize..10_000,
            flip in 1u8..=255,
        ) {
            let mut bytes = write_snapshot(&sample_snapshot(4, 2, 1, 4));
            let pos = pos % bytes.len();
            bytes[pos] ^= flip;
            // The checksum covers every byte, so any flip — header, block
            // payload, node table or vocab — must surface as an error.
            prop_assert!(read_snapshot(&bytes).is_err());
        }
    }
}
