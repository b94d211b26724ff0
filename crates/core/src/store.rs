//! A per-graph signature store: lazily extracted, canonicalized, and
//! **interned** k-adjacent trees — plus the **persistent snapshot codec**
//! that lets signature sets survive process restarts.
//!
//! Real graphs are full of structurally identical neighborhoods
//! (`equivalence_classes` shows thousands of nodes sharing one shape at
//! small `k`), so storing one [`PreparedTree`] per *distinct* shape —
//! shared via `Arc` — cuts memory by the equivalence-class factor and
//! makes repeated distance queries allocation-free on the signature side.
//!
//! # Snapshot format
//!
//! [`encode_snapshot`] / [`decode_snapshot`] implement a dependency-free,
//! versioned, length-prefixed little-endian binary codec with a trailing
//! FNV-1a checksum:
//!
//! ```text
//! magic    8 bytes  b"NEDSNAP1"
//! version  u32      1
//! k        u32      extraction parameter the signatures were built at
//! shapes   u32      count, then per shape a length-prefixed record:
//!                   record_len u32, node_count u32, parents (node_count-1) × u32
//! entries  u32      count, then per entry: id u64, node u32, shape_idx u32
//! checksum u64      FNV-1a64 over every preceding byte
//! ```
//!
//! [`put_snapshot_block`] embeds the same bytes as a block of an
//! enclosing file; [`Writer`] keeps the running checksums as bytes go
//! out, so the encoding is never built in memory first.
//!
//! Shapes are stored **once per distinct isomorphism class** (the on-disk
//! analogue of the in-memory interning above); entries reference them by
//! index. Interner ids are process-local and never serialized — decoding
//! re-interns every shape (adopting the canonical layout it was written
//! in, or canonicalizing a record that is not), which is exactly what
//! makes decoded signatures produce bit-identical distances on any
//! machine.

use crate::ned::NodeSignature;
use crate::ted_star::{ted_star_prepared, PreparedTree};
use ned_graph::bfs::TreeExtractor;
use ned_graph::{Graph, NodeId};
use ned_tree::Tree;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::Arc;

/// Lazy, interning cache of node signatures for one graph at one `k`.
pub struct SignatureStore<'g> {
    graph: &'g Graph,
    k: usize,
    extractor: TreeExtractor<'g>,
    cache: Vec<Option<Arc<PreparedTree>>>,
    /// Distinct shapes keyed by their interned root class id (global
    /// [`ned_tree::SignatureInterner`]) — a `u32` key instead of the
    /// canonical code bytes the store used to hash.
    interned: HashMap<u32, Arc<PreparedTree>>,
    extractions: u64,
    hits: u64,
}

impl<'g> SignatureStore<'g> {
    /// Creates an empty store for `graph` at parameter `k`.
    pub fn new(graph: &'g Graph, k: usize) -> Self {
        SignatureStore {
            graph,
            k,
            extractor: TreeExtractor::new(graph),
            cache: vec![None; graph.num_nodes()],
            interned: HashMap::new(),
            extractions: 0,
            hits: 0,
        }
    }

    /// The `k` this store extracts at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The graph this store serves.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The signature of `v`, extracting (and interning) on first access.
    pub fn get(&mut self, v: NodeId) -> Arc<PreparedTree> {
        if let Some(ref sig) = self.cache[v as usize] {
            self.hits += 1;
            return Arc::clone(sig);
        }
        self.extractions += 1;
        let tree = self.extractor.extract(v, self.k);
        let prepared = PreparedTree::new(&tree);
        let shared = match self.interned.get(&prepared.root_class()) {
            Some(existing) => Arc::clone(existing),
            None => {
                let arc = Arc::new(prepared);
                self.interned.insert(arc.root_class(), Arc::clone(&arc));
                arc
            }
        };
        self.cache[v as usize] = Some(Arc::clone(&shared));
        shared
    }

    /// NED between two nodes of this store's graph.
    pub fn distance(&mut self, u: NodeId, v: NodeId) -> u64 {
        let a = self.get(u);
        let b = self.get(v);
        ted_star_prepared(&a, &b)
    }

    /// NED between a node here and a node of another store (the
    /// inter-graph case).
    pub fn cross_distance(&mut self, u: NodeId, other: &mut SignatureStore<'_>, v: NodeId) -> u64 {
        let a = self.get(u);
        let b = other.get(v);
        ted_star_prepared(&a, &b)
    }

    /// Materializes [`NodeSignature`]s for a node set, sharing the
    /// store's deduplicated tree `Arc`s (no copies).
    pub fn signatures(&mut self, nodes: &[NodeId]) -> Vec<NodeSignature> {
        nodes
            .iter()
            .map(|&node| {
                let shared = self.get(node);
                NodeSignature::from_shared(node, shared)
            })
            .collect()
    }

    /// Number of nodes whose signatures have been extracted so far.
    pub fn cached_nodes(&self) -> usize {
        self.cache.iter().filter(|c| c.is_some()).count()
    }

    /// Number of *distinct* tree shapes interned (≤ cached nodes; the gap
    /// is the deduplication win).
    pub fn distinct_shapes(&self) -> usize {
        self.interned.len()
    }

    /// `(extractions, cache hits)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.extractions, self.hits)
    }

    /// Serializes every signature extracted so far (see the
    /// [module docs](self) for the format). Entry ids are the node ids;
    /// distinct shapes are written once. Restore with
    /// [`SignatureStore::warm_from_snapshot`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let entries = self
            .cache
            .iter()
            .enumerate()
            .filter_map(|(v, slot)| {
                slot.as_ref()
                    .map(|sig| (v as u64, v as NodeId, sig.as_ref()))
            })
            .collect::<Vec<_>>();
        encode_snapshot(self.k, entries)
    }

    /// Rebuilds a store for `graph` from [`SignatureStore::snapshot_bytes`]
    /// output: the cache is pre-warmed with every persisted signature
    /// (re-canonicalized and re-interned, so distances are bit-identical
    /// to the original store's), and un-persisted nodes still extract
    /// lazily. Fails if the snapshot is damaged or references nodes the
    /// graph does not have.
    pub fn warm_from_snapshot(graph: &'g Graph, bytes: &[u8]) -> Result<Self, CodecError> {
        let snap = decode_snapshot(bytes)?;
        let mut store = SignatureStore::new(graph, snap.k);
        for &(_, node, shape) in &snap.rows {
            if node as usize >= graph.num_nodes() {
                return Err(CodecError::Malformed(format!(
                    "snapshot node {node} out of range for a graph of {} nodes",
                    graph.num_nodes()
                )));
            }
            // Shapes are already shared Arcs — intern and cache without a
            // single tree clone.
            let arc = &snap.shapes[shape as usize];
            let shared = store
                .interned
                .entry(arc.root_class())
                .or_insert_with(|| Arc::clone(arc));
            store.cache[node as usize] = Some(Arc::clone(shared));
        }
        Ok(store)
    }
}

// ---------------------------------------------------------------------------
// Snapshot codec
// ---------------------------------------------------------------------------

/// Magic bytes opening a signature snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"NEDSNAP1";
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Errors surfaced while decoding persisted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Fewer bytes than a field (or the framing) requires.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The leading magic bytes did not match.
    BadMagic,
    /// A format version this build cannot read.
    UnsupportedVersion(u32),
    /// The trailing checksum did not match the content.
    ChecksumMismatch {
        /// Checksum recomputed over the content.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// Structurally invalid content (bad tree, dangling shape index, …).
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(f, "truncated input: needed {needed} bytes, had {available}")
            }
            CodecError::BadMagic => write!(f, "bad magic bytes (not a NED snapshot)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            CodecError::ChecksumMismatch { expected, found } => write!(
                f,
                "checksum mismatch: content hashes to {expected:#018x}, file says {found:#018x}"
            ),
            CodecError::Malformed(why) => write!(f, "malformed snapshot: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a64 over `bytes` — the codec's integrity hash (not
/// cryptographic; it guards against truncation and bit rot, not
/// adversaries).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Continues an FNV-1a64 hash `h` over `bytes`.
fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Streaming little-endian writer for the snapshot family of formats.
/// Every byte goes straight to the sink `W` while a running FNV-1a
/// checksum is kept, so a file is never assembled in memory first; the
/// default sink, a `Vec<u8>`, gives the in-memory form. Public so sibling
/// crates (the index persistence in `ned-index`) can frame their own
/// sections with the same primitives and checksum discipline.
///
/// A sink error does not surface from the `put_*` calls: the first one
/// is kept, later writes are skipped, and [`Writer::close`] returns it.
/// Writing a block whose length differs from the one it declared fails
/// the same way, so a sizing mistake can never reach disk as a file the
/// decoder rejects.
#[derive(Debug)]
pub struct Writer<W: Write = Vec<u8>> {
    sink: W,
    written: usize,
    sum: u64,
    block: Option<OpenBlock>,
    error: Option<io::Error>,
}

/// A length-prefixed block whose length was declared up front.
#[derive(Debug, Clone, Copy)]
struct OpenBlock {
    /// `written` once the block's last byte is out.
    end: usize,
    /// The block's own running checksum, when it is a nested framed
    /// format with a checksum footer of its own.
    sum: Option<u64>,
}

impl Writer {
    /// An in-memory writer starting with `magic`.
    pub fn with_magic(magic: &[u8; 8]) -> Self {
        Writer::new(Vec::new(), magic)
    }

    /// Appends the checksum of everything written and returns the
    /// finished bytes.
    ///
    /// # Panics
    ///
    /// Panics if a block was left open or overran its declared length.
    pub fn finish(self) -> Vec<u8> {
        self.close()
            .expect("an in-memory snapshot writer cannot fail")
    }
}

impl<W: Write> Writer<W> {
    /// A writer streaming into `sink`, starting with `magic`.
    pub fn new(sink: W, magic: &[u8; 8]) -> Self {
        let mut w = Writer {
            sink,
            written: 0,
            sum: FNV_OFFSET,
            block: None,
            error: None,
        };
        w.put_raw(magic);
        w
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.put_raw(&v.to_le_bytes());
    }

    /// Appends raw bytes (no length prefix).
    pub fn put_raw(&mut self, bytes: &[u8]) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = self.sink.write_all(bytes) {
            self.error = Some(e);
            return;
        }
        self.written += bytes.len();
        match self.block.as_mut().and_then(|b| b.sum.as_mut()) {
            Some(inner) => {
                for &b in bytes {
                    self.sum = (self.sum ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                    *inner = (*inner ^ u64::from(b)).wrapping_mul(FNV_PRIME);
                }
            }
            None => self.sum = fnv1a64_extend(self.sum, bytes),
        }
    }

    /// Appends a `u32` length prefix followed by the bytes.
    pub fn put_block(&mut self, bytes: &[u8]) {
        self.put_u32(u32::try_from(bytes.len()).expect("block over 4 GiB"));
        self.put_raw(bytes);
    }

    /// Writes the `u32` prefix of a `len`-byte block whose content the
    /// following `put_*` calls stream; [`Writer::end_block`] closes it.
    /// Declared blocks do not nest, but [`Writer::put_block`] may be
    /// used inside one.
    ///
    /// # Panics
    ///
    /// Panics if a block is already open or `len` is over 4 GiB.
    pub fn begin_block(&mut self, len: usize) {
        assert!(self.block.is_none(), "declared blocks do not nest");
        self.put_u32(u32::try_from(len).expect("block over 4 GiB"));
        self.block = Some(OpenBlock {
            end: self.written + len,
            sum: None,
        });
    }

    /// [`Writer::begin_block`] for a nested framed format: the block
    /// opens with `magic` and keeps its own running checksum, which
    /// [`Writer::end_block`] appends as its footer. `len` counts the
    /// magic and the footer.
    fn begin_framed_block(&mut self, len: usize, magic: &[u8; 8]) {
        self.begin_block(len);
        if let Some(block) = self.block.as_mut() {
            block.sum = Some(FNV_OFFSET);
        }
        self.put_raw(magic);
    }

    /// Closes the open block, appending its checksum footer if it is
    /// framed. A block that is not exactly its declared length fails the
    /// writer.
    ///
    /// # Panics
    ///
    /// Panics if no block is open.
    pub fn end_block(&mut self) {
        let inner = self.block.as_mut().expect("no open block").sum.take();
        if let Some(inner) = inner {
            self.put_u64(inner);
        }
        let end = self.block.take().expect("still open").end;
        if self.written != end && self.error.is_none() {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "block declared to end at byte {end} ended at byte {}",
                    self.written
                ),
            ));
        }
    }

    /// Bytes written so far (before the checksum).
    pub fn len(&self) -> usize {
        self.written
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.written == 0
    }

    /// Appends the checksum of everything written, flushes, and hands
    /// the sink back — or the first error any write met.
    pub fn close(mut self) -> io::Result<W> {
        if self.block.is_some() && self.error.is_none() {
            self.error = Some(io::Error::new(
                io::ErrorKind::InvalidData,
                "block left open at the end of the file",
            ));
        }
        let sum = self.sum;
        self.put_u64(sum);
        match self.error {
            Some(e) => Err(e),
            None => {
                self.sink.flush()?;
                Ok(self.sink)
            }
        }
    }
}

/// Checked little-endian reader over a checksummed byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates framing (magic + trailing checksum) and returns a reader
    /// positioned just past the magic. The checksum footer is excluded
    /// from the readable range.
    pub fn open(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Self, CodecError> {
        let r = Self::framed(bytes, magic)?;
        let footer = &bytes[r.buf.len()..];
        let found = u64::from_le_bytes(footer.try_into().expect("8-byte footer"));
        let expected = fnv1a64(r.buf);
        if expected != found {
            return Err(CodecError::ChecksumMismatch { expected, found });
        }
        Ok(r)
    }

    /// [`Reader::open`] without the checksum pass: checks the length and
    /// the magic only, for bytes a containing file's checksum covered.
    fn framed(bytes: &'a [u8], magic: &[u8; 8]) -> Result<Self, CodecError> {
        if bytes.len() < magic.len() + 8 {
            return Err(CodecError::Truncated {
                needed: magic.len() + 8,
                available: bytes.len(),
            });
        }
        let content = &bytes[..bytes.len() - 8];
        if &content[..magic.len()] != magic {
            return Err(CodecError::BadMagic);
        }
        Ok(Reader {
            buf: content,
            pos: magic.len(),
        })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.buf.len() {
            return Err(CodecError::Truncated {
                needed: n,
                available: self.buf.len() - self.pos,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `u32`-length-prefixed block.
    pub fn block(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Bytes left before the checksum footer.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// A decoded snapshot: distinct shapes (shared, one [`PreparedTree`] per
/// isomorphism class — the in-memory mirror of the on-disk dedup) plus
/// the `(id, node, shape index)` rows referencing them.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The `k` the signatures were extracted at.
    pub k: usize,
    /// Distinct prepared shapes, indexed by the rows.
    pub shapes: Vec<Arc<PreparedTree>>,
    /// `(id, node, shape index)` triples, in persisted order.
    pub rows: Vec<(u64, NodeId, u32)>,
}

impl Snapshot {
    /// Materializes owned `(id, signature)` pairs — zero-copy: every row
    /// shares its deduplicated shape `Arc`, so a million structurally
    /// equal signatures cost a million reference bumps, not a million
    /// tree copies (signatures hold their prepared tree behind an `Arc`
    /// since the bulk-ingestion work).
    pub fn entries(&self) -> Vec<(u64, NodeSignature)> {
        self.rows
            .iter()
            .map(|&(id, node, shape)| {
                (
                    id,
                    NodeSignature::from_shared(node, Arc::clone(&self.shapes[shape as usize])),
                )
            })
            .collect()
    }
}

/// Serializes `(id, node, prepared-tree)` triples — typically
/// signatures — into the NEDSNAP1 format. Shapes are deduplicated by
/// isomorphism class, so a million structurally-equal signatures cost one
/// tree record plus a million 16-byte entries.
pub fn encode_snapshot<'a, I>(k: usize, entries: I) -> Vec<u8>
where
    I: IntoIterator<Item = (u64, NodeId, &'a PreparedTree)>,
{
    let entries: Vec<_> = entries.into_iter().collect();
    let plan = SnapshotPlan::new(entries.iter().copied());
    let mut w = Writer::new(Vec::new(), &SNAPSHOT_MAGIC);
    plan.write_body(&mut w, k, entries.iter().copied());
    w.close().expect("an in-memory snapshot writer cannot fail")
}

/// Writes the NEDSNAP1 encoding of `entries` as one length-prefixed
/// block of `w`, the form a container file embeds it in. The block's
/// length is computed before its first byte goes out, so `entries` is
/// walked twice and must yield the same sequence both times.
pub fn put_snapshot_block<'a, I, W>(w: &mut Writer<W>, k: usize, entries: I)
where
    I: IntoIterator<Item = (u64, NodeId, &'a PreparedTree)> + Clone,
    W: Write,
{
    let plan = SnapshotPlan::new(entries.clone());
    w.begin_framed_block(plan.encoded_len(), &SNAPSHOT_MAGIC);
    plan.write_body(w, k, entries);
    w.end_block();
}

/// The sizing pass of a NEDSNAP1 encoding: the distinct shapes in
/// first-seen order, and enough counts to know the encoded length before
/// writing.
struct SnapshotPlan<'a> {
    shapes: Vec<&'a PreparedTree>,
    shape_of: HashMap<u32, u32>,
    rows: usize,
    /// Total parent words over the distinct shapes.
    parents: usize,
}

impl<'a> SnapshotPlan<'a> {
    fn new(entries: impl IntoIterator<Item = (u64, NodeId, &'a PreparedTree)>) -> Self {
        let mut plan = SnapshotPlan {
            shapes: Vec::new(),
            shape_of: HashMap::new(),
            rows: 0,
            parents: 0,
        };
        for (_, _, prepared) in entries {
            plan.rows += 1;
            let next = plan.shapes.len() as u32;
            if let Entry::Vacant(slot) = plan.shape_of.entry(prepared.root_class()) {
                slot.insert(next);
                plan.shapes.push(prepared);
                plan.parents += prepared.tree().len() - 1;
            }
        }
        plan
    }

    /// Bytes of the whole encoding, magic and checksum included. A shape
    /// record is `4 + 4 + 4·(n − 1)` bytes (length prefix, node count,
    /// parents), an entry 16.
    fn encoded_len(&self) -> usize {
        8 + 4 + 4 + 4 + 8 * self.shapes.len() + 4 * self.parents + 4 + 16 * self.rows + 8
    }

    /// Everything between the magic and the checksum footer.
    fn write_body<W: Write>(
        &self,
        w: &mut Writer<W>,
        k: usize,
        entries: impl IntoIterator<Item = (u64, NodeId, &'a PreparedTree)>,
    ) {
        w.put_u32(SNAPSHOT_VERSION);
        w.put_u32(u32::try_from(k).expect("k fits u32"));
        w.put_u32(u32::try_from(self.shapes.len()).expect("shape count fits u32"));
        let mut record = Vec::new();
        for prepared in &self.shapes {
            let tree = prepared.tree();
            record.clear();
            record.extend_from_slice(&(tree.len() as u32).to_le_bytes());
            extend_parents_le(&mut record, tree);
            w.put_block(&record);
        }
        w.put_u32(u32::try_from(self.rows).expect("entry count fits u32"));
        let mut written = 0usize;
        for (id, node, prepared) in entries {
            written += 1;
            let shape = self.shape_of[&prepared.root_class()];
            let mut row = [0u8; 16];
            row[..8].copy_from_slice(&id.to_le_bytes());
            row[8..12].copy_from_slice(&node.to_le_bytes());
            row[12..].copy_from_slice(&shape.to_le_bytes());
            w.put_raw(&row);
        }
        debug_assert_eq!(written, self.rows, "the entries changed between passes");
    }
}

/// Appends the parent words of `tree`'s non-root nodes, little-endian:
/// the `parents` field of a stored shape. The words are written from the
/// tree's parent slice into space reserved once, not pushed one by one.
pub fn extend_parents_le(buf: &mut Vec<u8>, tree: &Tree) {
    let parents = &tree.parents()[1..];
    let start = buf.len();
    buf.resize(start + 4 * parents.len(), 0);
    for (out, p) in buf[start..].chunks_exact_mut(4).zip(parents) {
        out.copy_from_slice(&p.to_le_bytes());
    }
}

/// Decodes [`encode_snapshot`] output. Every shape is rebuilt and
/// re-interned through the process-global interner, so decoded
/// signatures are drop-in equal to the encoded ones: distances are
/// bit-identical.
///
/// Encoders write each shape in canonical layout, so a record is
/// normally adopted in one pass: its BFS-ordered parent array becomes
/// the tree with no relabel ([`Tree::from_parents`]) and the layout
/// check stands in for re-canonicalization ([`PreparedTree::from_tree`]).
/// A record in any other valid layout is relabeled and canonicalized,
/// and decodes to the same signature.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, CodecError> {
    decode_snapshot_from(Reader::open(bytes, &SNAPSHOT_MAGIC)?)
}

/// [`decode_snapshot`] of a block nested in a file whose own checksum
/// already covered it (NEDIDX): magic, version and lengths are checked,
/// but the bytes are not hashed a second time.
pub fn decode_nested_snapshot(bytes: &[u8]) -> Result<Snapshot, CodecError> {
    decode_snapshot_from(Reader::framed(bytes, &SNAPSHOT_MAGIC)?)
}

fn decode_snapshot_from(mut r: Reader<'_>) -> Result<Snapshot, CodecError> {
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let k = r.u32()? as usize;
    let shape_count = r.u32()? as usize;
    // Counts come from the file; checking them against the bytes actually
    // present keeps a forged header from turning `with_capacity` into an
    // allocation abort instead of a clean `Malformed` error. Every shape
    // record costs ≥ 8 bytes (length prefix + node count), every entry
    // exactly 16.
    if shape_count as u64 * 8 > r.remaining() as u64 {
        return Err(CodecError::Malformed(format!(
            "{shape_count} shapes cannot fit in {} remaining bytes",
            r.remaining()
        )));
    }
    let mut shapes: Vec<Arc<PreparedTree>> = Vec::with_capacity(shape_count);
    for s in 0..shape_count {
        let record = r.block()?;
        if record.len() < 4 {
            return Err(CodecError::Malformed(format!(
                "shape {s}: record too short"
            )));
        }
        let n = u32::from_le_bytes(record[..4].try_into().expect("4 bytes")) as usize;
        if n == 0 {
            return Err(CodecError::Malformed(format!("shape {s}: empty tree")));
        }
        if record.len() != 4 + (n - 1) * 4 {
            return Err(CodecError::Malformed(format!(
                "shape {s}: {} bytes for a {n}-node tree",
                record.len()
            )));
        }
        let mut parents = Vec::with_capacity(n);
        parents.push(0u32);
        for chunk in record[4..].chunks_exact(4) {
            parents.push(u32::from_le_bytes(chunk.try_into().expect("4 bytes")));
        }
        let tree = Tree::from_parents(&parents)
            .map_err(|e| CodecError::Malformed(format!("shape {s}: {e}")))?;
        shapes.push(Arc::new(PreparedTree::from_tree(tree)));
    }
    let entry_count = r.u32()? as usize;
    if entry_count as u64 * 16 > r.remaining() as u64 {
        return Err(CodecError::Malformed(format!(
            "{entry_count} entries cannot fit in {} remaining bytes",
            r.remaining()
        )));
    }
    let mut rows = Vec::with_capacity(entry_count);
    for e in 0..entry_count {
        let id = r.u64()?;
        let node = r.u32()?;
        let shape = r.u32()?;
        if shape as usize >= shapes.len() {
            return Err(CodecError::Malformed(format!(
                "entry {e}: shape index {shape} out of range ({shape_count} shapes)"
            )));
        }
        rows.push((id, node, shape));
    }
    if r.remaining() != 0 {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the last entry",
            r.remaining()
        )));
    }
    Ok(Snapshot { k, shapes, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ned;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cycle(n: usize) -> Graph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        Graph::undirected_from_edges(n, &edges)
    }

    #[test]
    fn distances_match_direct_ned() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::barabasi_albert(60, 2, &mut rng);
        let mut store = SignatureStore::new(&g, 3);
        for (u, v) in [(0u32, 1u32), (5, 40), (59, 59), (17, 3)] {
            assert_eq!(store.distance(u, v), ned(&g, u, &g, v, 3));
        }
    }

    #[test]
    fn interning_dedups_equivalent_shapes() {
        // all cycle nodes share one shape at any k
        let g = cycle(32);
        let mut store = SignatureStore::new(&g, 3);
        for v in g.nodes() {
            store.get(v);
        }
        assert_eq!(store.cached_nodes(), 32);
        assert_eq!(store.distinct_shapes(), 1, "one shape should be interned");
        // shared Arcs: everyone points at the same allocation
        let a = store.get(0);
        let b = store.get(17);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_hits_accumulate() {
        let g = cycle(8);
        let mut store = SignatureStore::new(&g, 2);
        store.get(0);
        store.get(0);
        store.get(1);
        let (extractions, hits) = store.stats();
        assert_eq!(extractions, 2);
        assert_eq!(hits, 1);
    }

    #[test]
    fn cross_store_distances() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g1 = generators::erdos_renyi_gnm(40, 80, &mut rng);
        let g2 = generators::barabasi_albert(40, 2, &mut rng);
        let mut s1 = SignatureStore::new(&g1, 3);
        let mut s2 = SignatureStore::new(&g2, 3);
        for (u, v) in [(0u32, 0u32), (10, 20), (39, 5)] {
            assert_eq!(s1.cross_distance(u, &mut s2, v), ned(&g1, u, &g2, v, 3));
        }
    }

    #[test]
    fn nested_snapshot_block_matches_an_embedded_image() {
        let mut rng = SmallRng::seed_from_u64(4);
        let g = generators::barabasi_albert(50, 2, &mut rng);
        let sigs = crate::signatures(&g, &g.nodes().collect::<Vec<_>>(), 3);
        let entries = sigs
            .iter()
            .map(|s| (u64::from(s.node) * 2, s.node, s.prepared()));
        let image = encode_snapshot(3, entries.clone());

        let mut embedded = Writer::with_magic(b"OUTER001");
        embedded.put_u32(9);
        embedded.put_block(&image);
        let mut nested = Writer::with_magic(b"OUTER001");
        nested.put_u32(9);
        put_snapshot_block(&mut nested, 3, entries);
        assert_eq!(nested.finish(), embedded.finish());
    }

    /// A sink that accepts `room` bytes, then fails every write.
    #[derive(Debug)]
    struct ShortSink {
        room: usize,
    }

    impl Write for ShortSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::other("sink full"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn sink_errors_and_misdeclared_blocks_fail_the_writer() {
        let mut w = Writer::new(ShortSink { room: 10 }, b"NEDTEST1");
        w.put_u64(1);
        w.put_u64(2);
        let err = w.close().expect_err("the sink filled up");
        assert_eq!(err.to_string(), "sink full");

        let mut w = Writer::with_magic(b"NEDTEST1");
        w.begin_block(8);
        w.put_u32(1);
        w.end_block();
        let err = w.close().expect_err("block is 4 bytes short");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);

        let mut w = Writer::with_magic(b"NEDTEST1");
        w.begin_framed_block(16, b"NEDTEST2");
        assert_eq!(
            w.close().expect_err("block left open").kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn materialized_signatures_agree() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = generators::barabasi_albert(30, 2, &mut rng);
        let mut store = SignatureStore::new(&g, 3);
        let nodes: Vec<u32> = (0..10).collect();
        let from_store = store.signatures(&nodes);
        let direct = crate::signatures(&g, &nodes, 3);
        for (a, b) in from_store.iter().zip(&direct) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.distance(b), 0);
        }
    }
}
