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
//! bound order, with the budgeted TED\* kernel
//! ([`NodeSignature::distance_within`], see [`crate::sketch`]). The
//! bound never drops a true neighbor, so every answer is bit-identical
//! to [`SignatureIndex::scan`], the exhaustive reference the query
//! paths are tested against.
//!
//! Every publication of the concurrent serving layer clones the index;
//! the bank's copy-on-write layout makes that clone cost one reference
//! count per 1024 rows, and the next write batch copy only what it
//! touches.
//! Version-3 index files persist the bank next to the signature
//! snapshot; older files load fine and rebuild it on the way in.

use crate::sketch::{self, SketchBank, SketchStats};
use crate::topk::sort_hits;
use ned_core::store::{self, CodecError, Reader, Writer};
use ned_core::{NodeSignature, WireHit};
use ned_graph::{Graph, NodeId};
use std::fs::File;
use std::io::{self, Read as _};
use std::path::Path;

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
/// epoch field (0 for plain saves), a reserved mode word (always written
/// as `1`), and the persisted sketch bank rows, so a load answers
/// sketch-filtered queries without re-sketching the corpus. Decoding
/// still accepts versions 1 and 2 — their banks are rebuilt from the
/// decoded signatures during load.
pub const INDEX_VERSION_SKETCH: u32 = 3;

/// The mode word every version-3 file is written with. It once named
/// the serving sketch bound; files also carry the retired words `0`
/// (`off`) and `2` (`approx`), which load and serve exactly like `1`.
/// Any other word is malformed.
const SKETCH_MODE_WORD: u32 = 1;

/// A dynamic, persistent k-NN index over node signatures. See the
/// [module docs](self).
#[derive(Debug, Clone)]
pub struct SignatureIndex {
    bank: SketchBank,
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
    /// pipeline ([`ned_core::bulk_signatures`]).
    pub fn insert_graph(&mut self, graph: &Graph, nodes: &[NodeId]) -> std::ops::Range<u64> {
        let first = self.next_id;
        for sig in ned_core::bulk_signatures(graph, nodes, self.k, 0) {
            self.insert(sig);
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
    /// ascending bound order with the budgeted kernel. The bound is
    /// provable, so the result is bit-identical to
    /// [`SignatureIndex::scan`].
    pub fn query(&self, sig: &NodeSignature, top: usize, threads: usize) -> Vec<WireHit> {
        self.bank.knn(sig, top, threads)
    }

    /// Every indexed signature within `radius` of `sig`, pruned by the
    /// sketch bound exactly like [`SignatureIndex::query`].
    pub fn range(&self, sig: &NodeSignature, radius: u64, threads: usize) -> Vec<WireHit> {
        self.bank.range(sig, radius, threads)
    }

    /// Exhaustive reference over the same live set: the full TED\*
    /// distance to every live signature, sorted by `(distance, id)` and
    /// cut to `top`. No bound, no budget — what every query path is
    /// tested against.
    pub fn scan(&self, sig: &NodeSignature, top: usize) -> Vec<WireHit> {
        let mut hits: Vec<WireHit> = self
            .entries()
            .map(|(id, other)| WireHit {
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
        self.to_bytes_at_epoch(0)
    }

    /// [`SignatureIndex::to_bytes`] embedding the publication `epoch`
    /// this state corresponds to (plain saves write 0). Checkpoints use
    /// this so recovery can skip WAL records the snapshot already
    /// contains.
    pub fn to_bytes_at_epoch(&self, epoch: u64) -> Vec<u8> {
        self.encode_into(epoch, Vec::new())
            .expect("an in-memory index writer cannot fail")
    }

    /// Streams the version-3 NEDIDX01 encoding into `sink`: header,
    /// signature snapshot block, sketch bank block, checksum. Both blocks
    /// declare their lengths from a sizing pass, so beyond the sink the
    /// only memory this takes is the id-sorted entry list and the
    /// snapshot's shape dedup map — never the file's bytes.
    fn encode_into<W: io::Write>(&self, epoch: u64, sink: W) -> io::Result<W> {
        self.encode_with(epoch, sink, |id| self.bank.lanes_of(id))
    }

    /// [`SignatureIndex::encode_into`] reading each row's persisted
    /// lanes through `lanes_of`.
    fn encode_with<'s, W: io::Write>(
        &'s self,
        epoch: u64,
        sink: W,
        lanes_of: impl Fn(u64) -> Option<&'s [u16]>,
    ) -> io::Result<W> {
        let mut entries: Vec<(u64, &NodeSignature)> = Vec::with_capacity(self.len());
        entries.extend(self.entries());
        entries.sort_unstable_by_key(|&(id, _)| id);
        let mut w = Writer::new(sink, &INDEX_MAGIC);
        w.put_u32(INDEX_VERSION_SKETCH);
        w.put_u32(self.k as u32);
        w.put_u64(self.threshold as u64);
        w.put_u64(self.seed);
        w.put_u64(self.next_id);
        w.put_u64(epoch);
        w.put_u32(SKETCH_MODE_WORD);
        store::put_snapshot_block(
            &mut w,
            self.k,
            entries
                .iter()
                .map(|&(id, sig)| (id, sig.node, sig.prepared())),
        );
        // Bank rows serialized in the same id-sorted order as the
        // snapshot entries, so decoding pairs them back up positionally.
        const ROW_BYTES: usize = sketch::SKETCH_DIM * 2;
        w.begin_block(12 + entries.len() * ROW_BYTES);
        w.put_u32(sketch::SKETCH_DIM as u32);
        w.put_u64(entries.len() as u64);
        let mut scratch = [0u16; sketch::SKETCH_DIM];
        let mut row = [0u8; ROW_BYTES];
        for &(id, sig) in &entries {
            let lanes = match lanes_of(id) {
                Some(lanes) => lanes,
                None => {
                    // The bank mirrors the live set; re-sketching keeps the
                    // file self-consistent even if it ever drifted.
                    sketch::sketch_into(sig.prepared(), &mut scratch);
                    &scratch[..]
                }
            };
            for (out, &lane) in row.chunks_exact_mut(2).zip(lanes) {
                out.copy_from_slice(&lane.to_le_bytes());
            }
            w.put_raw(&row);
        }
        w.end_block();
        w.close()
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
    fn decode_with_epoch(bytes: &[u8]) -> Result<(Self, u64), CodecError> {
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
        if version >= INDEX_VERSION_SKETCH {
            // The words `0`, `1` and `2` all serve the exact bound (see
            // `SKETCH_MODE_WORD`).
            let raw = r.u32()?;
            if raw > 2 {
                return Err(CodecError::Malformed(format!("unknown sketch mode {raw}")));
            }
        }
        let snapshot = store::decode_nested_snapshot(r.block()?)?;
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
                k,
                threshold,
                seed,
                next_id,
            },
            epoch,
        ))
    }

    /// [`SignatureIndex::to_bytes`] straight to a file — atomically *and
    /// durably*: the bytes stream into a synced sibling temp file that is
    /// renamed over `path`, and the parent directory is fsynced after the
    /// rename, so a crash at any point leaves either the old complete
    /// file or the new complete file — never a zero-length or torn one.
    /// A failed write leaves the old file in place. The encoding goes to
    /// disk through a small buffer, never as a whole-file image.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        self.save_at_epoch(0, path)
    }

    /// [`SignatureIndex::save`] embedding the publication `epoch` (same
    /// durability discipline) — the checkpoint primitive.
    pub fn save_at_epoch(&self, epoch: u64, path: &Path) -> io::Result<()> {
        write_file_durably(path, |file| {
            self.encode_into(epoch, io::BufWriter::new(file))?
                .into_inner()
                .map_err(io::IntoInnerError::into_error)
        })
    }

    /// [`SignatureIndex::from_bytes`] straight from a file.
    pub fn load(path: &Path) -> Result<Self, LoadError> {
        Self::load_with_epoch(path).map(|(index, _)| index)
    }

    /// [`SignatureIndex::load`], returning the persisted epoch too (`0`
    /// for version-1 files, which predate the epoch field).
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
    // true neighbors. Spot-check a deterministic sample of rows and
    // rebuild the whole bank from the signatures if any disagree.
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

/// Atomic + durable file replacement: `write` fills a temp sibling,
/// which is synced, renamed over `path`, and followed by a parent
/// directory fsync. If `write` or the sync fails, the temp file is
/// removed and `path` is untouched.
fn write_file_durably(path: &Path, write: impl FnOnce(File) -> io::Result<File>) -> io::Result<()> {
    let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let written = File::create(&tmp)
        .and_then(write)
        .and_then(|f| f.sync_all());
    if let Err(e) = written {
        let _ = std::fs::remove_file(&tmp);
        return Err(e);
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
        let hits = index.query(&NodeSignature::extract(&cycle_b, 0, 3), 3, 0);
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

        let back = SignatureIndex::from_bytes(&index.to_bytes()).expect("round trip");
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
            // rows and identical query results.
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
        w.put_u32(SKETCH_MODE_WORD);
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
        // the bank, so queries stay exact.
        let mut rng = SmallRng::seed_from_u64(33);
        let g = generators::barabasi_albert(120, 3, &mut rng);
        let mut index = SignatureIndex::new(3, 32, 9);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());

        // The retired mode words 0 (`off`) and 2 (`approx`) load and
        // serve like 1; any other word is malformed.
        for mode_word in [1, 0, 2, 3] {
            let mut w = Writer::with_magic(&INDEX_MAGIC);
            w.put_u32(INDEX_VERSION_SKETCH);
            w.put_u32(index.k as u32);
            w.put_u64(index.threshold as u64);
            w.put_u64(index.seed);
            w.put_u64(index.next_id);
            w.put_u64(0);
            w.put_u32(mode_word);
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

            let decoded = SignatureIndex::decode_with_epoch(&w.finish());
            if mode_word == 3 {
                assert!(matches!(decoded, Err(CodecError::Malformed(_))));
                continue;
            }
            let (back, _) = decoded.expect("decode");
            for (id, _) in index.entries() {
                assert_eq!(back.bank.lanes_of(id), index.bank.lanes_of(id), "id {id}");
            }
            for probe in [0u32, 61, 119] {
                let sig = NodeSignature::extract(&g, probe, 3);
                assert_eq!(back.query(&sig, 6, 0), index.query(&sig, 6, 0));
            }
        }
    }

    /// NEDIDX files committed as fixtures, encoded before saves streamed:
    /// [`golden_index`] through `to_bytes()` and `to_bytes_at_epoch(42)`.
    const GOLDEN: &[u8] = include_bytes!("../tests/fixtures/ba80_k3.nedidx");
    const GOLDEN_EPOCH_42: &[u8] = include_bytes!("../tests/fixtures/ba80_k3_epoch42.nedidx");

    /// The index behind the fixtures: BA(80, 2) from seed `0x601D` at
    /// k = 3, with ids 5 and 17 removed so bank row order is not id order.
    fn golden_index() -> SignatureIndex {
        let mut rng = SmallRng::seed_from_u64(0x601D);
        let g = generators::barabasi_albert(80, 2, &mut rng);
        let mut index = SignatureIndex::new(3, 32, 7);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        assert!(index.remove(5));
        assert!(index.remove(17));
        index
    }

    fn assert_same_bytes(got: &[u8], want: &[u8], what: &str) {
        let first_diff = got.iter().zip(want).position(|(a, b)| a != b);
        assert!(
            got.len() == want.len() && first_diff.is_none(),
            "{what}: {} bytes vs {} in the fixture, first difference at {first_diff:?}",
            got.len(),
            want.len()
        );
    }

    #[test]
    fn encodings_reproduce_the_committed_fixtures() {
        let index = golden_index();
        assert_same_bytes(&index.to_bytes(), GOLDEN, "to_bytes");
        assert_same_bytes(
            &index.to_bytes_at_epoch(42),
            GOLDEN_EPOCH_42,
            "to_bytes_at_epoch",
        );
        // Every row re-sketched instead of read from the bank: the
        // fallback writes the same lanes.
        let resketched = index
            .encode_with(42, Vec::new(), |_| None)
            .expect("in-memory encode");
        assert_same_bytes(&resketched, GOLDEN_EPOCH_42, "re-sketched rows");

        let dir = std::env::temp_dir().join(format!("ned-golden-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("golden.idx");
        index.save(&path).expect("save");
        assert_same_bytes(&std::fs::read(&path).expect("read"), GOLDEN, "save");
        index.save_at_epoch(42, &path).expect("save_at_epoch");
        let saved = std::fs::read(&path).expect("read");
        assert_same_bytes(&saved, GOLDEN_EPOCH_42, "save_at_epoch");
        assert!(
            !dir.join("golden.idx.tmp").exists(),
            "temp file left behind"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn committed_fixtures_decode_and_re_encode_byte_for_byte() {
        for (fixture, epoch) in [(GOLDEN, 0), (GOLDEN_EPOCH_42, 42)] {
            let (index, got_epoch) = SignatureIndex::decode_with_epoch(fixture).expect("decodes");
            assert_eq!(got_epoch, epoch);
            assert_same_bytes(&index.to_bytes_at_epoch(epoch), fixture, "re-encode");
            // Stored shapes are adopted, not re-canonicalized: each must
            // be exactly what a fresh canonical preparation builds.
            for (id, sig) in index.entries() {
                let fresh = ned_core::PreparedTree::new(&ned_tree::ahu::canonical_form(sig.tree()));
                assert_eq!(sig.prepared(), &fresh, "id {id}");
            }
        }
    }

    #[test]
    fn failed_write_leaves_the_old_file_in_place() {
        let dir = std::env::temp_dir().join(format!("ned-failed-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("index.idx");
        let index = golden_index();
        index.save(&path).expect("save");
        let err = write_file_durably(&path, |mut file| {
            io::Write::write_all(&mut file, b"half a file")?;
            Err(io::Error::other("disk full"))
        })
        .expect_err("the write failed");
        assert_eq!(err.to_string(), "disk full");
        assert_same_bytes(&std::fs::read(&path).expect("read"), GOLDEN, "old file");
        assert!(!dir.join("index.idx.tmp").exists(), "temp file left behind");
        let _ = std::fs::remove_dir_all(&dir);
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

    #[test]
    fn query_breaks_ties_at_the_kth_distance_like_scan() {
        let shape = |parens: &str| {
            let tree = ned_tree::serialize::parse(parens).expect("shape");
            NodeSignature::from_prepared(0, ned_core::PreparedTree::from_tree(tree))
        };
        let near = shape("((()()())(()()())(()))");
        // Both at NED 3 from `near`, but `early`'s sketch bound is below
        // `late`'s, so the bank refines `early` first although `late` has
        // the smaller id: only the inclusive k-th-distance budget lets
        // `late` displace it.
        let early = shape("((()()()()()())(()())(()))");
        let late = shape("((()()())(()()))");
        assert_eq!((near.distance(&early), near.distance(&late)), (3, 3));
        let q = sketch::Sketch::of(&near);
        assert!(
            q.lower_bound(&sketch::Sketch::of(&early)) < q.lower_bound(&sketch::Sketch::of(&late))
        );
        let mut index = SignatureIndex::new(3, 4, 1);
        index.insert_at(8, near.clone());
        index.insert_at(9, early);
        index.insert_at(3, late);
        let got = index.query(&near, 2, 0);
        assert_eq!(got, index.scan(&near, 2));
        let got: Vec<(u64, f64)> = got.iter().map(|h| (h.id, h.distance)).collect();
        assert_eq!(got, [(8, 0.0), (3, 3.0)]);
    }

    #[test]
    fn a_flipped_byte_in_the_nested_snapshot_fails_the_file_checksum() {
        // The nested NEDSNAP1 block is decoded without re-hashing it, so
        // the file checksum alone must catch damage inside it.
        let bytes = golden_index().to_bytes();
        let start = bytes
            .windows(8)
            .position(|w| w == store::SNAPSHOT_MAGIC)
            .expect("nested snapshot block");
        let len = u32::from_le_bytes(bytes[start - 4..start].try_into().expect("4 bytes"));
        let block = start..start + len as usize;
        assert!(store::decode_snapshot(&bytes[block.clone()]).is_ok());
        let mut flipped = bytes.clone();
        let mid = block.start + block.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            SignatureIndex::from_bytes(&flipped),
            Err(CodecError::ChecksumMismatch { .. })
        ));
        // Standalone, the block still checks its own checksum.
        assert!(matches!(
            store::decode_snapshot(&flipped[block]),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }
}
