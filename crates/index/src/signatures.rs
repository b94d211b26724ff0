//! NED wiring for the metric index: a **persistent node-signature
//! index**.
//!
//! [`SignatureIndex`] keeps its live set of [`NodeSignature`]s in one
//! structure, the sketch bank ([`crate::sketch::SketchBank`]), assigns
//! stable `u64` ids as signatures arrive (possibly from many graphs),
//! and serializes to the `ned-core::store` snapshot codec wrapped in its
//! own framed, versioned, checksummed file — an index built once
//! survives process restarts and answers queries immediately after
//! [`SignatureIndex::load`], with no re-extraction and no
//! re-preparation.
//!
//! Queries scan the bank's quantized per-level feature vectors for a
//! provable lower bound on NED and refine the survivors, in ascending
//! bound order, with the budgeted TED\* kernel through
//! [`SignatureMetric`] (see [`crate::sketch`]). [`SketchMode`] picks the
//! bound: `Exact` (the default) never drops a true neighbor, `Approx`
//! prunes harder with measured recall, and `Off` — kept because index
//! files and `sketch off` requests carry it — routes like `Exact`.
//! [`SignatureIndex::scan`] is the exhaustive reference every mode is
//! tested against.
//!
//! Every publication of the concurrent serving layer clones the index;
//! the bank's copy-on-write layout makes that clone cost one reference
//! count per 1024 rows, and the next write batch copy only what it
//! touches.
//! Version-3 index files persist the bank next to the signature
//! snapshot; older files load fine and rebuild it on the way in.

use crate::forest::{sort_hits, ForestHit};
use crate::sketch::{self, SketchBank, SketchMode, SketchStats};
use crate::{BoundedMetric, Metric};
use ned_core::store::{self, CodecError, Reader, Writer};
use ned_core::NodeSignature;
use ned_graph::{Graph, NodeId};
use std::io::{Read as _, Write as _};
use std::path::Path;

/// NED over node signatures as a [`BoundedMetric`]: exact distances are
/// `TED*` (a true metric, hence VP-tree-safe), the lower bound is
/// [`NodeSignature::distance_lower_bound`], and budgeted calls run the
/// early-abandoning kernel (`ned_core::ted_star_prepared_within`) — so
/// a query's pruning radius (the sketch bank's refine loop, or a
/// [`crate::ShardedVpForest`]'s shared bound) cuts computations short
/// *inside* the level sweep, not just between candidates. `u64`
/// distances are exact in `f64` far beyond any real tree size
/// (`< 2^53`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SignatureMetric;

impl Metric<NodeSignature> for SignatureMetric {
    fn distance(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        a.distance(b) as f64
    }
}

impl BoundedMetric<NodeSignature> for SignatureMetric {
    fn lower_bound(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        a.distance_lower_bound(b) as f64
    }

    fn distance_within(&self, a: &NodeSignature, b: &NodeSignature, budget: f64) -> Option<f64> {
        if budget < 0.0 {
            return None;
        }
        // TED* is integral, so flooring the budget changes nothing; the
        // float→int cast saturates, mapping +∞ to u64::MAX (unlimited).
        a.distance_within(b, budget as u64).map(|d| d as f64)
    }
}

/// [`SignatureMetric`] with the budget plumbing disabled: every exact
/// call computes the full distance and filters afterwards (the
/// [`BoundedMetric`] trait default). Same distances, same lower bound,
/// no early abandoning — the reference the bounded path is
/// property-tested and benchmarked against. Not a serving configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedSignatureMetric;

impl Metric<NodeSignature> for UnboundedSignatureMetric {
    fn distance(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        SignatureMetric.distance(a, b)
    }
}

impl BoundedMetric<NodeSignature> for UnboundedSignatureMetric {
    fn lower_bound(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        SignatureMetric.lower_bound(a, b)
    }
    // distance_within: deliberately the compute-then-filter default.
}

/// Magic bytes opening a persisted signature index.
pub const INDEX_MAGIC: [u8; 8] = *b"NEDIDX01";
/// Index file format version without an epoch field (plain saves).
pub const INDEX_VERSION: u32 = 1;
/// Index file format version carrying the publication epoch the snapshot
/// was taken at — written by checkpoints so WAL replay knows which log
/// records the snapshot already contains. Decoding accepts both versions
/// (a version-1 file reads back as epoch 0).
pub const INDEX_VERSION_EPOCH: u32 = 2;
/// Index file format version carrying the sketch tier: an always-present
/// epoch field (0 for plain saves), the serving [`SketchMode`], and the
/// persisted sketch bank rows, so a load answers sketch-filtered queries
/// without re-sketching the corpus. Decoding still accepts versions 1
/// and 2 — their banks are rebuilt from the decoded signatures during
/// load.
pub const INDEX_VERSION_SKETCH: u32 = 3;

/// A dynamic, persistent k-NN index over node signatures. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct SignatureIndex {
    bank: SketchBank,
    sketch_mode: SketchMode,
    k: usize,
    /// `threshold` and `seed` only ride through the NEDIDX header, which
    /// keeps saved files byte-identical; nothing reads them.
    threshold: usize,
    seed: u64,
    next_id: u64,
}

impl SignatureIndex {
    /// An empty index for signatures extracted at parameter `k`.
    ///
    /// `threshold` and `seed` configured the VP-forest this index used to
    /// keep. They are still stored and written to the file header, so
    /// saved indexes stay byte-identical, but nothing reads them.
    pub fn new(k: usize, threshold: usize, seed: u64) -> Self {
        SignatureIndex {
            bank: SketchBank::new(),
            sketch_mode: SketchMode::default(),
            k,
            threshold: threshold.max(1),
            seed,
            next_id: 0,
        }
    }

    /// Bulk constructor over pre-extracted signatures, assigned ids
    /// `0..n` in order, sketched in parallel — query results are
    /// identical to `n` incremental inserts. The load-generation and
    /// benchmark harnesses use this to stand up large indexes cheaply.
    /// `threshold` and `seed` are stored unused, as in
    /// [`SignatureIndex::new`].
    pub fn from_signatures(
        k: usize,
        threshold: usize,
        seed: u64,
        sigs: Vec<NodeSignature>,
    ) -> Self {
        let entries: Vec<(u64, NodeSignature)> = sigs
            .into_iter()
            .enumerate()
            .map(|(i, s)| (i as u64, s))
            .collect();
        Self::from_entries(k, threshold, seed, entries)
    }

    /// Bulk-builds the whole index for every node of `graph` through the
    /// shared-work extraction pipeline ([`ned_core::bulk_signatures`]) —
    /// the fast path behind `ned-cli index build`. `threads` bounds the
    /// extraction fan-out (`0` = all cores).
    pub fn from_graph(
        graph: &Graph,
        k: usize,
        threshold: usize,
        seed: u64,
        threads: usize,
    ) -> Self {
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let sigs = ned_core::bulk_signatures(graph, &nodes, k, threads);
        Self::from_signatures(k, threshold, seed, sigs)
    }

    fn from_entries(
        k: usize,
        threshold: usize,
        seed: u64,
        entries: Vec<(u64, NodeSignature)>,
    ) -> Self {
        let next_id = entries
            .iter()
            .map(|&(id, _)| id.saturating_add(1))
            .max()
            .unwrap_or(0);
        SignatureIndex {
            bank: SketchBank::bulk(&entries, 0),
            sketch_mode: SketchMode::default(),
            k,
            threshold: threshold.max(1),
            seed,
            next_id,
        }
    }

    /// The extraction parameter every indexed signature was built at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Live signature count.
    pub fn len(&self) -> usize {
        self.bank.len()
    }

    /// `true` when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.bank.is_empty()
    }

    /// Every live `(id, signature)` pair, in the bank's row order (not
    /// id order).
    pub fn entries(&self) -> impl Iterator<Item = (u64, &NodeSignature)> {
        self.bank.entries()
    }

    /// The sketch bank, under the name of the VP-forest that used to hold
    /// the live set: callers written against `forest().entries()` keep
    /// working. New code should call [`SignatureIndex::entries`] or
    /// [`SignatureIndex::sketch_bank`].
    pub fn forest(&self) -> &SketchBank {
        &self.bank
    }

    /// The id watermark: the id the next [`SignatureIndex::insert`] will
    /// assign. A shard coordinator seeds its fleet-wide id counter from
    /// this so explicit-id puts never collide with historical ids.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// The serving sketch routing mode.
    pub fn sketch_mode(&self) -> SketchMode {
        self.sketch_mode
    }

    /// Switches which sketch bound [`SignatureIndex::query`] /
    /// [`SignatureIndex::range`] prune with. Switching is instant in
    /// either direction.
    pub fn set_sketch_mode(&mut self, mode: SketchMode) {
        self.sketch_mode = mode;
    }

    /// Sketch bank shape and work counters (the `sketch:` stats line).
    pub fn sketch_stats(&self) -> SketchStats {
        self.bank.stats()
    }

    /// The sketch bank (read-only).
    pub fn sketch_bank(&self) -> &SketchBank {
        &self.bank
    }

    /// A process-stable fingerprint of the live set: FNV-1a over the
    /// id-sorted `(id, stable tree fingerprint)` pairs, little-endian.
    /// Two replicas that applied the same acknowledged history agree on
    /// it regardless of insertion order, shard layout, or interner state
    /// — the anti-entropy probe compares these across a fleet to detect
    /// silent divergence ([`ned_core::Request::Fingerprint`]).
    pub fn live_set_fingerprint(&self) -> u64 {
        let mut pairs: Vec<(u64, u64)> = self
            .entries()
            .map(|(id, sig)| (id, sketch::stable_tree_fingerprint(sig.tree())))
            .collect();
        pairs.sort_unstable();
        let mut bytes = Vec::with_capacity(pairs.len() * 16);
        for (id, fp) in pairs {
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&fp.to_le_bytes());
        }
        store::fnv1a64(&bytes)
    }

    /// Splits this index into `shards` disjoint indexes by **id range**
    /// for a scatter-gather fleet: entries are ordered by id and cut into
    /// near-equal contiguous runs. Returns `(starts, indexes)` where
    /// `starts[i]` is the lowest id shard `i` may own (`starts[0] == 0`,
    /// strictly the boundary used for routing: id `x` belongs to the last
    /// shard with `start <= x`). Every shard keeps this index's `k` (and
    /// its stored threshold and seed), so per-shard query results are
    /// bit-identical to querying the same entries here.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn split_for_fleet(&self, shards: usize) -> (Vec<u64>, Vec<SignatureIndex>) {
        assert!(shards > 0, "a fleet needs at least one shard");
        let mut entries: Vec<(u64, NodeSignature)> =
            self.entries().map(|(id, sig)| (id, sig.clone())).collect();
        entries.sort_by_key(|&(id, _)| id);
        let per = entries.len() / shards;
        let extra = entries.len() % shards;
        let mut starts = Vec::with_capacity(shards);
        let mut indexes = Vec::with_capacity(shards);
        let mut offset = 0usize;
        for s in 0..shards {
            let take = per + usize::from(s < extra);
            let group = entries[offset..offset + take].to_vec();
            // The boundary is the group's lowest id; an empty tail group
            // starts past every live id so it owns only future ids.
            let start = if s == 0 {
                0
            } else {
                group.first().map_or(self.next_id, |&(id, _)| id)
            };
            starts.push(start);
            indexes.push(SignatureIndex::from_entries(
                self.k,
                self.threshold,
                self.seed,
                group,
            ));
            offset += take;
        }
        (starts, indexes)
    }

    /// Indexes one signature, returning its assigned id.
    pub fn insert(&mut self, sig: NodeSignature) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.bank.upsert(id, &sig);
        id
    }

    /// Extracts and indexes the signatures of `nodes` in `graph`,
    /// returning the id range assigned (`first..first + nodes.len()`,
    /// in node order). Extraction runs through the shared-work bulk
    /// pipeline ([`ned_core::bulk_signatures`]); use
    /// [`SignatureIndex::insert_graph_per_node`] for the independent
    /// per-node fallback.
    pub fn insert_graph(&mut self, graph: &Graph, nodes: &[NodeId]) -> std::ops::Range<u64> {
        let first = self.next_id;
        for sig in ned_core::bulk_signatures(graph, nodes, self.k, 0) {
            self.insert(sig);
        }
        first..self.next_id
    }

    /// The non-bulk fallback of [`SignatureIndex::insert_graph`]: each
    /// node is extracted and canonicalized independently, but through
    /// **one** reused [`ned_core::SignatureExtractor`] (one BFS scratch
    /// arena for the whole batch) instead of a fresh per-node allocation
    /// of the visited set. Identical signatures and ids; this is also the
    /// ingest baseline the `ingest/...` benchmarks compare the bulk
    /// pipeline against.
    pub fn insert_graph_per_node(
        &mut self,
        graph: &Graph,
        nodes: &[NodeId],
    ) -> std::ops::Range<u64> {
        let first = self.next_id;
        let mut extractor = ned_core::SignatureExtractor::new(graph);
        for &v in nodes {
            self.insert(extractor.extract(v, self.k));
        }
        first..self.next_id
    }

    /// Inserts `sig` under the explicit `id` — replacing the live
    /// signature with that id if one exists — and advances the automatic
    /// id watermark past it. Returns `true` when the id was not
    /// previously live. This is the *replace* primitive of the concurrent
    /// write path; [`SignatureIndex::insert`] remains the normal
    /// auto-assigning entry point.
    pub fn insert_at(&mut self, id: u64, sig: NodeSignature) -> bool {
        self.next_id = self.next_id.max(id.saturating_add(1));
        let fresh = self.bank.get(id).is_none();
        self.bank.upsert(id, &sig);
        fresh
    }

    /// Removes a signature by id. Returns `false` for unknown ids.
    pub fn remove(&mut self, id: u64) -> bool {
        self.bank.remove(id)
    }

    /// The signature stored under `id`, if live.
    pub fn get(&self, id: u64) -> Option<&NodeSignature> {
        self.bank.get(id)
    }

    /// The `top` nearest indexed signatures, sorted by `(distance, id)`.
    /// `threads = 0` uses all cores for the bound scan.
    ///
    /// The bank scans every row's sketch bound and refines candidates in
    /// ascending bound order with the budgeted kernel. In
    /// [`SketchMode::Exact`] (the default, and `Off`) the bound is
    /// provable, so the result is bit-identical to
    /// [`SignatureIndex::scan`]; [`SketchMode::Approx`] prunes by the
    /// sketch estimate (faster, measured rather than guaranteed recall).
    pub fn query(&self, sig: &NodeSignature, top: usize, threads: usize) -> Vec<ForestHit> {
        self.bank.knn(sig, top, threads, self.sketch_mode)
    }

    /// [`SignatureIndex::query`] for a node of a graph (extracts the
    /// query signature at this index's `k` first).
    pub fn query_node(
        &self,
        graph: &Graph,
        node: NodeId,
        top: usize,
        threads: usize,
    ) -> Vec<ForestHit> {
        let sig = NodeSignature::extract(graph, node, self.k);
        self.query(&sig, top, threads)
    }

    /// Every indexed signature within `radius` of `sig`, pruned by the
    /// serving [`SketchMode`]'s bound exactly like
    /// [`SignatureIndex::query`].
    pub fn range(&self, sig: &NodeSignature, radius: u64, threads: usize) -> Vec<ForestHit> {
        self.bank.range(sig, radius, threads, self.sketch_mode)
    }

    /// Exhaustive reference over the same live set: the full TED\*
    /// distance to every live signature, sorted by `(distance, id)` and
    /// cut to `top`. No bound, no budget — what every query mode is
    /// tested against.
    pub fn scan(&self, sig: &NodeSignature, top: usize) -> Vec<ForestHit> {
        let mut hits: Vec<ForestHit> = self
            .entries()
            .map(|(id, other)| ForestHit {
                id,
                distance: sig.distance(other) as f64,
            })
            .collect();
        sort_hits(&mut hits);
        hits.truncate(top);
        hits
    }

    /// Serializes the whole index (config + every live signature) into
    /// the framed NEDIDX01 format; the embedded signature block is a
    /// standard `ned-core::store` snapshot.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.encode(None)
    }

    /// [`SignatureIndex::to_bytes`] in the version-2 framing, embedding
    /// the publication `epoch` this state corresponds to. Checkpoints use
    /// this so recovery can skip WAL records the snapshot already
    /// contains.
    pub fn to_bytes_at_epoch(&self, epoch: u64) -> Vec<u8> {
        self.encode(Some(epoch))
    }

    fn encode(&self, epoch: Option<u64>) -> Vec<u8> {
        let mut entries: Vec<(u64, &NodeSignature)> = self.entries().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let snapshot = store::encode_snapshot(
            self.k,
            entries
                .iter()
                .map(|&(id, sig)| (id, sig.node, sig.prepared())),
        );
        // Bank rows serialized in the same id-sorted order as the
        // snapshot entries, so decoding pairs them back up positionally.
        let mut bank_block = Vec::with_capacity(12 + entries.len() * sketch::SKETCH_DIM * 2);
        bank_block.extend_from_slice(&(sketch::SKETCH_DIM as u32).to_le_bytes());
        bank_block.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        let mut scratch = [0u16; sketch::SKETCH_DIM];
        for &(id, sig) in &entries {
            let lanes = match self.bank.lanes_of(id) {
                Some(lanes) => lanes,
                None => {
                    // The bank mirrors the live set; re-sketching keeps the
                    // file self-consistent even if it ever drifted.
                    sketch::sketch_into(sig.prepared(), &mut scratch);
                    &scratch[..]
                }
            };
            for &lane in lanes {
                bank_block.extend_from_slice(&lane.to_le_bytes());
            }
        }
        let mut w = Writer::with_magic(&INDEX_MAGIC);
        w.put_u32(INDEX_VERSION_SKETCH);
        w.put_u32(self.k as u32);
        w.put_u64(self.threshold as u64);
        w.put_u64(self.seed);
        w.put_u64(self.next_id);
        w.put_u64(epoch.unwrap_or(0));
        w.put_u32(self.sketch_mode.to_u32());
        w.put_block(&snapshot);
        w.put_block(&bank_block);
        w.finish()
    }

    /// Restores [`SignatureIndex::to_bytes`] output: the persisted bank
    /// rows are adopted as they are (version 3) or re-sketched from the
    /// signatures (versions 1 and 2).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::decode_with_epoch(bytes).map(|(index, _)| index)
    }

    /// Decodes either framing version, returning the index together with
    /// its persisted epoch (`0` for version-1 files, which predate the
    /// epoch field).
    pub fn decode_with_epoch(bytes: &[u8]) -> Result<(Self, u64), CodecError> {
        let mut r = Reader::open(bytes, &INDEX_MAGIC)?;
        let version = r.u32()?;
        if !(INDEX_VERSION..=INDEX_VERSION_SKETCH).contains(&version) {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let k = r.u32()? as usize;
        let threshold = r.u64()? as usize;
        let seed = r.u64()?;
        let next_id = r.u64()?;
        let epoch = if version >= INDEX_VERSION_EPOCH {
            r.u64()?
        } else {
            0
        };
        let sketch_mode = if version >= INDEX_VERSION_SKETCH {
            let raw = r.u32()?;
            SketchMode::from_u32(raw)
                .ok_or_else(|| CodecError::Malformed(format!("unknown sketch mode {raw}")))?
        } else {
            SketchMode::default()
        };
        let snapshot = store::decode_snapshot(r.block()?)?;
        if snapshot.k != k {
            return Err(CodecError::Malformed(format!(
                "index header says k = {k} but the signature block was built at k = {}",
                snapshot.k
            )));
        }
        let entries: Vec<(u64, NodeSignature)> = snapshot.entries();
        let mut seen = std::collections::HashSet::with_capacity(entries.len());
        for &(id, _) in &entries {
            if id >= next_id {
                return Err(CodecError::Malformed(format!(
                    "entry id {id} not below the persisted id watermark {next_id}"
                )));
            }
            if !seen.insert(id) {
                return Err(CodecError::Malformed(format!("duplicate entry id {id}")));
            }
        }
        let bank = if version >= INDEX_VERSION_SKETCH {
            decode_bank_block(r.block()?, &entries)?
        } else {
            // Pre-sketch file: rebuild the rows from the decoded
            // signatures, so old snapshots keep loading and serve
            // sketch-filtered queries immediately.
            SketchBank::bulk(&entries, 0)
        };
        Ok((
            SignatureIndex {
                bank,
                sketch_mode,
                k,
                threshold,
                seed,
                next_id,
            },
            epoch,
        ))
    }

    /// [`SignatureIndex::to_bytes`] straight to a file — atomically *and
    /// durably*: the bytes land in a synced sibling temp file that is
    /// renamed over `path`, and the parent directory is fsynced after the
    /// rename, so a crash at any point leaves either the old complete
    /// file or the new complete file — never a zero-length or torn one.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        write_file_durably(path, &self.to_bytes())
    }

    /// [`SignatureIndex::save`] in the epoch-carrying version-2 framing
    /// (same durability discipline) — the checkpoint primitive.
    pub fn save_at_epoch(&self, epoch: u64, path: &Path) -> std::io::Result<()> {
        write_file_durably(path, &self.to_bytes_at_epoch(epoch))
    }

    /// [`SignatureIndex::from_bytes`] straight from a file.
    pub fn load(path: &Path) -> Result<Self, LoadError> {
        Self::load_with_epoch(path).map(|(index, _)| index)
    }

    /// [`SignatureIndex::decode_with_epoch`] straight from a file.
    pub fn load_with_epoch(path: &Path) -> Result<(Self, u64), LoadError> {
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        Ok(Self::decode_with_epoch(&bytes)?)
    }
}

/// Parses the version-3 sketch bank block: `[u32 dim][u64 rows]` then
/// `rows × dim` little-endian `u16` lanes, row-major, aligned
/// positionally with the id-sorted snapshot entries. Persisted lanes
/// are spot-checked against fresh sketches before being adopted; if the
/// writing binary used a different sketch layout, the bank is rebuilt
/// from the signatures instead.
fn decode_bank_block(
    block: &[u8],
    entries: &[(u64, NodeSignature)],
) -> Result<SketchBank, CodecError> {
    if block.len() < 12 {
        return Err(CodecError::Malformed(
            "sketch bank block shorter than its header".to_string(),
        ));
    }
    let dim = u32::from_le_bytes(block[0..4].try_into().expect("4 bytes")) as usize;
    let rows = u64::from_le_bytes(block[4..12].try_into().expect("8 bytes")) as usize;
    if dim != sketch::SKETCH_DIM {
        return Err(CodecError::Malformed(format!(
            "sketch bank dim {dim} != built-in {}",
            sketch::SKETCH_DIM
        )));
    }
    if rows != entries.len() {
        return Err(CodecError::Malformed(format!(
            "sketch bank has {rows} rows for {} signatures",
            entries.len()
        )));
    }
    let body = &block[12..];
    if body.len() != rows * dim * 2 {
        return Err(CodecError::Malformed(format!(
            "sketch bank body is {} bytes, expected {}",
            body.len(),
            rows * dim * 2
        )));
    }
    let lanes: Vec<u16> = body
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect();
    // Persisted lanes are only trusted if they match what this binary
    // would compute: the sketch layout (fingerprint bucketing in
    // particular) is an in-process convention, not part of the file
    // format contract, so a snapshot written by a binary with a
    // different layout would silently inflate lower bounds and drop
    // true neighbors in exact mode. Spot-check a deterministic sample
    // of rows and rebuild the whole bank from the signatures if any
    // disagree.
    let sample = [0, rows / 3, 2 * rows / 3, rows.saturating_sub(1)];
    let stale = sample.iter().filter(|&&r| r < rows).any(|&r| {
        let mut fresh = [0u16; sketch::SKETCH_DIM];
        sketch::sketch_into(entries[r].1.prepared(), &mut fresh);
        lanes[r * sketch::SKETCH_DIM..(r + 1) * sketch::SKETCH_DIM] != fresh
    });
    if stale {
        return Ok(SketchBank::bulk(entries, 0));
    }
    Ok(SketchBank::from_rows(entries, lanes))
}

/// Atomic + durable file replacement: write a synced temp sibling, rename
/// it over `path`, fsync the parent directory.
fn write_file_durably(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    ned_core::wal::sync_parent_dir(path)
}

/// Errors from [`SignatureIndex::load`]: I/O or decoding.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The bytes could not be decoded.
    Codec(CodecError),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "{e}"),
            LoadError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<CodecError> for LoadError {
    fn from(e: CodecError) -> Self {
        LoadError::Codec(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn build_query_matches_scan() {
        let mut rng = SmallRng::seed_from_u64(1);
        let g = generators::barabasi_albert(300, 3, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let mut index = SignatureIndex::new(3, 64, 42);
        let ids = index.insert_graph(&g, &nodes);
        assert_eq!(ids, 0..300);
        assert_eq!(index.len(), 300);
        for probe in [0u32, 57, 123, 299] {
            let sig = NodeSignature::extract(&g, probe, 3);
            let fast = index.query(&sig, 7, 0);
            let slow = index.scan(&sig, 7);
            assert_eq!(fast, slow, "probe {probe}");
            assert_eq!(fast[0].distance, 0.0, "probe is its own nearest neighbor");
        }
    }

    #[test]
    fn save_load_round_trip_preserves_results() {
        let mut rng = SmallRng::seed_from_u64(2);
        let g1 = generators::barabasi_albert(150, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(100, 220, &mut rng);
        let mut index = SignatureIndex::new(4, 32, 7);
        index.insert_graph(&g1, &g1.nodes().collect::<Vec<_>>());
        index.insert_graph(&g2, &g2.nodes().collect::<Vec<_>>());
        index.remove(17);
        index.remove(200);

        let bytes = index.to_bytes();
        let back = SignatureIndex::from_bytes(&bytes).expect("round trip");
        assert_eq!(back.len(), index.len());
        assert_eq!(back.k(), index.k());
        for probe in [0u32, 31, 99] {
            let sig = NodeSignature::extract(&g2, probe, 4);
            assert_eq!(
                back.query(&sig, 9, 0),
                index.query(&sig, 9, 0),
                "probe {probe}"
            );
        }
        // ids keep advancing from the persisted watermark
        let mut back = back;
        let new_id = back.insert(NodeSignature::extract(&g1, 0, 4));
        assert_eq!(new_id, 250);
    }

    #[test]
    fn mixed_graph_index_finds_cross_graph_twins() {
        // Identical structure indexed from two different graphs must be
        // found at distance 0 from either side.
        let cycle_a =
            Graph::undirected_from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let cycle_b = Graph::undirected_from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let mut index = SignatureIndex::new(3, 4, 1);
        index.insert_graph(&cycle_a, &cycle_a.nodes().collect::<Vec<_>>());
        let hits = index.query_node(&cycle_b, 0, 3, 0);
        assert!(hits.iter().all(|h| h.distance == 0.0), "{hits:?}");
    }

    /// Re-encodes `index` in the given legacy framing (no sketch bank;
    /// version 1 also drops the epoch field) so decode back-compat can be
    /// tested against bytes this build no longer writes.
    fn encode_legacy(index: &SignatureIndex, version: u32, epoch: u64) -> Vec<u8> {
        let mut entries: Vec<(u64, &NodeSignature)> = index.entries().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let snapshot = store::encode_snapshot(
            index.k,
            entries
                .iter()
                .map(|&(id, sig)| (id, sig.node, sig.prepared())),
        );
        let mut w = Writer::with_magic(&INDEX_MAGIC);
        w.put_u32(version);
        w.put_u32(index.k as u32);
        w.put_u64(index.threshold as u64);
        w.put_u64(index.seed);
        w.put_u64(index.next_id);
        if version >= INDEX_VERSION_EPOCH {
            w.put_u64(epoch);
        }
        w.put_block(&snapshot);
        w.finish()
    }

    #[test]
    fn sketch_bank_survives_save_load() {
        let mut rng = SmallRng::seed_from_u64(31);
        let g = generators::barabasi_albert(200, 3, &mut rng);
        let mut index = SignatureIndex::new(3, 48, 9);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        index.remove(11);
        index.set_sketch_mode(SketchMode::Approx);

        let back = SignatureIndex::from_bytes(&index.to_bytes()).expect("round trip");
        assert_eq!(back.sketch_mode(), SketchMode::Approx);
        assert_eq!(back.sketch_stats().rows, index.len());
        // Persisted rows are bit-identical to the live bank's.
        for (id, _) in index.entries() {
            assert_eq!(back.bank.lanes_of(id), index.bank.lanes_of(id), "id {id}");
        }
    }

    #[test]
    fn legacy_versions_load_and_rebuild_the_bank() {
        let mut rng = SmallRng::seed_from_u64(32);
        let g = generators::erdos_renyi_gnm(150, 400, &mut rng);
        let mut index = SignatureIndex::new(3, 32, 5);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());

        for (version, epoch) in [(INDEX_VERSION, 0u64), (INDEX_VERSION_EPOCH, 17)] {
            let bytes = encode_legacy(&index, version, epoch);
            let (back, got_epoch) =
                SignatureIndex::decode_with_epoch(&bytes).expect("legacy decode");
            assert_eq!(got_epoch, epoch, "version {version}");
            // The bank was rebuilt from the decoded signatures: identical
            // rows, default serving mode, and identical query results.
            assert_eq!(back.sketch_mode(), SketchMode::Exact);
            assert_eq!(back.sketch_stats().rows, index.len());
            for (id, _) in index.entries() {
                assert_eq!(back.bank.lanes_of(id), index.bank.lanes_of(id), "id {id}");
            }
            for probe in [0u32, 77, 149] {
                let sig = NodeSignature::extract(&g, probe, 3);
                assert_eq!(back.query(&sig, 6, 0), index.query(&sig, 6, 0));
            }
        }
    }

    #[test]
    fn v3_rejects_malformed_bank_blocks() {
        let mut index = SignatureIndex::new(3, 4, 1);
        let g = Graph::undirected_from_edges(3, &[(0, 1), (1, 2)]);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        let sig = NodeSignature::extract(&g, 0, 3);

        // Recompose the file with a corrupted bank block (checksummed
        // correctly, so only the block validation can catch it).
        let good = index.to_bytes();
        let (restored, _) = SignatureIndex::decode_with_epoch(&good).expect("baseline");
        assert_eq!(restored.query(&sig, 2, 0), index.query(&sig, 2, 0));

        let mut w = Writer::with_magic(&INDEX_MAGIC);
        w.put_u32(INDEX_VERSION_SKETCH);
        w.put_u32(index.k as u32);
        w.put_u64(index.threshold as u64);
        w.put_u64(index.seed);
        w.put_u64(index.next_id);
        w.put_u64(0);
        w.put_u32(SketchMode::Exact.to_u32());
        let mut entries: Vec<(u64, &NodeSignature)> = index.entries().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let snapshot = store::encode_snapshot(
            index.k,
            entries
                .iter()
                .map(|&(id, sig)| (id, sig.node, sig.prepared())),
        );
        w.put_block(&snapshot);
        w.put_block(b"tiny"); // shorter than the bank header
        assert!(matches!(
            SignatureIndex::from_bytes(&w.finish()),
            Err(CodecError::Malformed(_))
        ));
    }

    #[test]
    fn stale_persisted_lanes_trigger_a_bank_rebuild() {
        // A well-formed v3 file whose lanes were computed by a binary
        // with a different sketch layout must not be trusted: decode
        // spot-checks persisted rows against fresh sketches and rebuilds
        // the bank, so exact-mode queries stay exact.
        let mut rng = SmallRng::seed_from_u64(33);
        let g = generators::barabasi_albert(120, 3, &mut rng);
        let mut index = SignatureIndex::new(3, 32, 9);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());

        let mut w = Writer::with_magic(&INDEX_MAGIC);
        w.put_u32(INDEX_VERSION_SKETCH);
        w.put_u32(index.k as u32);
        w.put_u64(index.threshold as u64);
        w.put_u64(index.seed);
        w.put_u64(index.next_id);
        w.put_u64(0);
        w.put_u32(SketchMode::Exact.to_u32());
        let mut entries: Vec<(u64, &NodeSignature)> = index.entries().collect();
        entries.sort_unstable_by_key(|&(id, _)| id);
        let snapshot = store::encode_snapshot(
            index.k,
            entries
                .iter()
                .map(|&(id, sig)| (id, sig.node, sig.prepared())),
        );
        w.put_block(&snapshot);
        // Correctly shaped bank block, but every histogram count shifted
        // one bucket over — the signature of a foreign fingerprint
        // layout (totals per level survive, positions do not).
        let mut bank = Vec::new();
        bank.extend_from_slice(&(sketch::SKETCH_DIM as u32).to_le_bytes());
        bank.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for &(id, _) in &entries {
            let row = index.bank.lanes_of(id).expect("live row");
            for (lane, &v) in row.iter().enumerate() {
                let skewed = if lane < 8 {
                    v
                } else {
                    let level = (lane - 8) / 8;
                    let bucket = (lane - 8) % 8;
                    row[8 + level * 8 + (bucket + 1) % 8]
                };
                bank.extend_from_slice(&skewed.to_le_bytes());
            }
        }
        w.put_block(&bank);

        let (back, _) = SignatureIndex::decode_with_epoch(&w.finish()).expect("decode");
        for (id, _) in index.entries() {
            assert_eq!(back.bank.lanes_of(id), index.bank.lanes_of(id), "id {id}");
        }
        for probe in [0u32, 61, 119] {
            let sig = NodeSignature::extract(&g, probe, 3);
            assert_eq!(back.query(&sig, 6, 0), index.query(&sig, 6, 0));
        }
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(matches!(
            SignatureIndex::from_bytes(b"short"),
            Err(CodecError::Truncated { .. })
        ));
        let mut ok = SignatureIndex::new(3, 4, 1).to_bytes();
        ok[0] = b'X';
        assert!(matches!(
            SignatureIndex::from_bytes(&ok),
            Err(CodecError::BadMagic)
        ));
        let mut flipped = SignatureIndex::new(3, 4, 1).to_bytes();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            SignatureIndex::from_bytes(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }
}
