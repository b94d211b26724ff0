//! **Crash-safe durability**: WAL-journaled writes, periodic
//! checkpoints, and exact recovery for the concurrent index.
//!
//! [`DurableIndex`] wraps [`ConcurrentNedIndex`] with two files:
//!
//! * the **index file** (`NEDIDX01`, version 3) — the newest checkpoint,
//!   stamped with the publication epoch it captures;
//! * the **write-ahead log** (`NEDWAL1`, [`ned_core::wal`]) — one record
//!   per published batch, carrying the epoch the batch published as.
//!
//! Every batch is journaled before it is published (see
//! [`IndexWriter::try_apply`]), so the pair reproduces every state a
//! client was ever acknowledged at. [`DurableIndex::recover`] replays the
//! log on top of the checkpoint:
//!
//! * records whose epoch is `<=` the checkpoint epoch are **skipped** —
//!   this is what makes recovery idempotent (replaying twice, or
//!   replaying a log against a newer snapshot than the one it started
//!   from, changes nothing);
//! * remaining epochs must continue the sequence contiguously; a gap
//!   means the snapshot/log pair cannot reproduce the acknowledged
//!   history, and recovery refuses rather than resurrecting a stale
//!   state;
//! * a torn tail (crash mid-append) is truncated at the last valid
//!   checksum, exactly the [`ned_core::wal`] semantics.
//!
//! Checkpointing saves the snapshot durably (temp file + fsync + rename +
//! directory fsync) **before** resetting the log; a crash between the two
//! leaves the old log alongside the new snapshot, which the skip rule
//! absorbs at the next recovery. The snapshot streams to the temp file
//! ([`SignatureIndex::save_at_epoch`]), so a checkpoint never holds a
//! whole-file image in memory.
//!
//! Replay is graph-free by construction: a [`GraphDelta`] batch is
//! journaled as the [`WriteOp`] batch the maintainer materialized it
//! into, so recovery never needs the tracked graph, only the log.
//!
//! [`GraphDelta`]: ned_graph::delta::GraphDelta

use crate::concurrent::{ConcurrentNedIndex, IndexReader, IndexWriter, WriteOp};
use crate::signatures::{LoadError, SignatureIndex};
use ned_core::store::{self, CodecError};
use ned_core::wal::{self, FsyncPolicy, WalWriter, WAL_HEADER_LEN};
use ned_core::{NodeSignature, PreparedTree};
use ned_tree::Tree;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::MutexGuard;

/// Encodes one published batch as a WAL record payload:
/// `epoch u64 | op count u32 | op*`, where an op is a tag byte (1 =
/// insert, 2 = replace, 3 = remove) followed by its id and/or signature
/// (node id + BFS parent array). Integrity is the record layer's job —
/// the payload carries no checksum of its own. The payload is sized
/// before it is written, so the buffer is allocated once.
pub fn encode_batch(epoch: u64, ops: &[WriteOp]) -> Vec<u8> {
    fn sig_len(sig: &NodeSignature) -> usize {
        8 + 4 * (sig.tree().len() - 1)
    }
    fn put_sig(buf: &mut Vec<u8>, sig: &NodeSignature) {
        buf.extend_from_slice(&sig.node.to_le_bytes());
        let tree = sig.tree();
        buf.extend_from_slice(&(tree.len() as u32).to_le_bytes());
        store::extend_parents_le(buf, tree);
    }
    let len = 12
        + ops
            .iter()
            .map(|op| match op {
                WriteOp::Insert(sig) => 1 + sig_len(sig),
                WriteOp::Replace(_, sig) => 9 + sig_len(sig),
                WriteOp::Remove(_) => 9,
            })
            .sum::<usize>();
    let mut buf = Vec::with_capacity(len);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&(ops.len() as u32).to_le_bytes());
    for op in ops {
        match op {
            WriteOp::Insert(sig) => {
                buf.push(1);
                put_sig(&mut buf, sig);
            }
            WriteOp::Replace(id, sig) => {
                buf.push(2);
                buf.extend_from_slice(&id.to_le_bytes());
                put_sig(&mut buf, sig);
            }
            WriteOp::Remove(id) => {
                buf.push(3);
                buf.extend_from_slice(&id.to_le_bytes());
            }
        }
    }
    debug_assert_eq!(buf.len(), len, "batch payload sized wrong");
    buf
}

/// Reads just the epoch tag off an [`encode_batch`] record without
/// decoding the ops — how the WAL-suffix server filters a log down to
/// the records a catching-up peer still needs.
pub fn record_epoch(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(..8)?.try_into().ok()?))
}

/// Decodes [`encode_batch`] output back into `(epoch, ops)`. Signatures
/// are re-prepared from their parent arrays, so replayed signatures are
/// equal to the originals (the same argument the snapshot codec rests
/// on). Journaled trees are canonical, so each is adopted in one pass
/// like a snapshot shape ([`store::decode_snapshot`]); a parent array
/// in any other valid layout is canonicalized first.
pub fn decode_batch(bytes: &[u8]) -> Result<(u64, Vec<WriteOp>), CodecError> {
    struct Cur<'a> {
        buf: &'a [u8],
        pos: usize,
    }
    impl<'a> Cur<'a> {
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
        fn u8(&mut self) -> Result<u8, CodecError> {
            Ok(self.take(1)?[0])
        }
        fn u32(&mut self) -> Result<u32, CodecError> {
            Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
        }
        fn u64(&mut self) -> Result<u64, CodecError> {
            Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
        }
        fn sig(&mut self) -> Result<NodeSignature, CodecError> {
            let node = self.u32()?;
            let n = self.u32()? as usize;
            if n == 0 {
                return Err(CodecError::Malformed("empty signature tree".into()));
            }
            // `n` comes from the record (which a catching-up replica
            // takes from a peer): check the bytes are present before
            // reserving for them, or a forged count aborts the process.
            let remaining = self.buf.len() - self.pos;
            if (n - 1) * 4 > remaining {
                return Err(CodecError::Truncated {
                    needed: (n - 1) * 4,
                    available: remaining,
                });
            }
            let mut parents = Vec::with_capacity(n);
            parents.push(0u32);
            for _ in 1..n {
                parents.push(self.u32()?);
            }
            let tree = Tree::from_parents(&parents)
                .map_err(|e| CodecError::Malformed(format!("bad signature tree: {e}")))?;
            Ok(NodeSignature::from_prepared(
                node,
                PreparedTree::from_tree(tree),
            ))
        }
    }

    let mut c = Cur { buf: bytes, pos: 0 };
    let epoch = c.u64()?;
    let count = c.u32()? as usize;
    // Every op is at least one tag byte; forged counts must not
    // preallocate past the bytes present.
    if count > bytes.len() {
        return Err(CodecError::Malformed(format!(
            "op count {count} exceeds record size {}",
            bytes.len()
        )));
    }
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        ops.push(match c.u8()? {
            1 => WriteOp::Insert(c.sig()?),
            2 => {
                let id = c.u64()?;
                WriteOp::Replace(id, c.sig()?)
            }
            3 => WriteOp::Remove(c.u64()?),
            tag => return Err(CodecError::Malformed(format!("unknown op tag {tag}"))),
        });
    }
    if c.pos != bytes.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing bytes after the last op",
            bytes.len() - c.pos
        )));
    }
    Ok((epoch, ops))
}

/// Knobs for [`DurableIndex::recover`].
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// WAL fsync policy (see [`FsyncPolicy`]).
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many journaled batches; `0` disables
    /// automatic checkpointing (explicit [`DurableIndex::checkpoint`]
    /// calls still work).
    pub checkpoint_every: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            fsync: FsyncPolicy::PerBatch,
            checkpoint_every: 64,
        }
    }
}

/// What [`DurableIndex::recover`] found and did.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Epoch the loaded snapshot was checkpointed at.
    pub snapshot_epoch: u64,
    /// WAL records applied on top of the snapshot.
    pub replayed: usize,
    /// WAL records skipped because the snapshot already contained them.
    pub skipped: usize,
    /// Whether a torn/corrupt log tail was truncated.
    pub torn_tail: bool,
    /// Whether the log file had to be (re)created from scratch.
    pub log_created: bool,
    /// The epoch the index resumed serving at.
    pub recovered_epoch: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "snapshot at epoch {}, replayed {} record(s) ({} skipped){}{} -> epoch {}",
            self.snapshot_epoch,
            self.replayed,
            self.skipped,
            if self.torn_tail {
                ", truncated torn tail"
            } else {
                ""
            },
            if self.log_created {
                ", created fresh log"
            } else {
                ""
            },
            self.recovered_epoch
        )
    }
}

/// Errors from [`DurableIndex::recover`].
#[derive(Debug)]
pub enum DurableError {
    /// A file could not be read or written.
    Io(io::Error),
    /// The snapshot or a log record could not be decoded.
    Codec(CodecError),
    /// The snapshot/log pair cannot reproduce the acknowledged history
    /// (e.g. an epoch gap between the snapshot and the first log record).
    Corrupt(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "{e}"),
            DurableError::Codec(e) => write!(f, "{e}"),
            DurableError::Corrupt(why) => write!(f, "unrecoverable state: {why}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<CodecError> for DurableError {
    fn from(e: CodecError) -> Self {
        DurableError::Codec(e)
    }
}

impl From<LoadError> for DurableError {
    fn from(e: LoadError) -> Self {
        match e {
            LoadError::Io(e) => DurableError::Io(e),
            LoadError::Codec(e) => DurableError::Codec(e),
        }
    }
}

impl From<DurableError> for ned_core::proto::ServerError {
    /// Maps storage failures onto the wire taxonomy: I/O trouble is
    /// retryable ([`ned_core::proto::ServerError::Io`]); undecodable or
    /// inconsistent persistent state is fatal
    /// ([`ned_core::proto::ServerError::Corrupt`]).
    fn from(e: DurableError) -> Self {
        match e {
            DurableError::Io(e) => ned_core::proto::ServerError::Io(e.to_string()),
            DurableError::Codec(e) => ned_core::proto::ServerError::Corrupt(e.to_string()),
            DurableError::Corrupt(why) => {
                ned_core::proto::ServerError::Corrupt(format!("unrecoverable state: {why}"))
            }
        }
    }
}

/// A [`ConcurrentNedIndex`] whose acknowledged state survives crashes.
/// See the [module docs](self) for the recovery contract.
pub struct DurableIndex {
    index: ConcurrentNedIndex,
    index_path: Option<PathBuf>,
    checkpoint_every: u64,
}

impl DurableIndex {
    /// Wraps `index` with **no** durability (no WAL, no checkpoints) —
    /// the in-memory serving mode. [`DurableIndex::checkpoint`] becomes a
    /// no-op returning `Ok(None)`.
    pub fn ephemeral(index: SignatureIndex) -> Self {
        DurableIndex {
            index: ConcurrentNedIndex::new(index),
            index_path: None,
            checkpoint_every: 0,
        }
    }

    /// Loads the newest checkpoint from `index_path`, replays `wal_path`
    /// on top of it, truncates any torn tail, and returns the recovered
    /// serving handle with the log attached for journaling. A missing log
    /// file is created fresh (the first boot of a durable index).
    ///
    /// When automatic checkpointing is enabled and records were replayed,
    /// recovery ends with a checkpoint, so repeated crash/restart cycles
    /// cannot grow the log without bound.
    pub fn recover(
        index_path: &Path,
        wal_path: &Path,
        opts: DurableOptions,
    ) -> Result<(Self, RecoveryReport), DurableError> {
        let (snapshot, snapshot_epoch) = SignatureIndex::load_with_epoch(index_path)?;
        let (mut writer, _reader) = ConcurrentNedIndex::split_at(snapshot, snapshot_epoch);

        let mut report = RecoveryReport {
            snapshot_epoch,
            replayed: 0,
            skipped: 0,
            torn_tail: false,
            log_created: false,
            recovered_epoch: snapshot_epoch,
        };

        let wal_writer = match wal::replay_file(wal_path)? {
            None => {
                report.log_created = true;
                WalWriter::create(wal_path, snapshot_epoch, opts.fsync)?
            }
            Some(Err(e)) => return Err(DurableError::Codec(e)),
            Some(Ok(replay)) if !replay.header_ok => {
                // Crash during log creation: nothing was ever journaled.
                report.torn_tail = replay.torn_tail;
                report.log_created = true;
                WalWriter::create(wal_path, snapshot_epoch, opts.fsync)?
            }
            Some(Ok(replay)) => {
                report.torn_tail = replay.torn_tail;
                for record in &replay.records {
                    let (epoch, ops) = decode_batch(record)?;
                    if epoch <= snapshot_epoch {
                        report.skipped += 1;
                        continue;
                    }
                    let expected = writer.epoch() + 1;
                    if epoch != expected {
                        return Err(DurableError::Corrupt(format!(
                            "log record at epoch {epoch} but the recovered state is at \
                             epoch {} (snapshot epoch {snapshot_epoch}); the pair cannot \
                             reproduce the acknowledged history",
                            writer.epoch()
                        )));
                    }
                    writer.apply(ops);
                    report.replayed += 1;
                }
                debug_assert!(replay.valid_bytes >= WAL_HEADER_LEN as u64);
                WalWriter::open_appending(wal_path, replay.base, replay.valid_bytes, opts.fsync)?
            }
        };
        writer.attach_wal(wal_writer);
        report.recovered_epoch = writer.epoch();

        let durable = DurableIndex {
            index: ConcurrentNedIndex::from_writer(writer),
            index_path: Some(index_path.to_path_buf()),
            checkpoint_every: opts.checkpoint_every,
        };
        if report.replayed > 0 && opts.checkpoint_every > 0 {
            durable.checkpoint()?;
        }
        Ok((durable, report))
    }

    /// A fresh read handle (cheap; clone one per thread).
    pub fn reader(&self) -> IndexReader {
        self.index.reader()
    }

    /// Exclusive access to the writer (see [`ConcurrentNedIndex::writer`]).
    pub fn writer(&self) -> MutexGuard<'_, IndexWriter> {
        self.index.writer()
    }

    /// The underlying concurrent facade.
    pub fn concurrent(&self) -> &ConcurrentNedIndex {
        &self.index
    }

    /// `true` when a WAL and checkpoint path are attached.
    pub fn is_durable(&self) -> bool {
        self.index_path.is_some()
    }

    /// The checkpoint file path, when durable.
    pub fn index_path(&self) -> Option<&Path> {
        self.index_path.as_deref()
    }

    /// The automatic checkpoint cadence in batches (`0` = manual only).
    pub fn checkpoint_every(&self) -> u64 {
        self.checkpoint_every
    }

    /// Saves the current state as an epoch-stamped snapshot and resets the
    /// log. Returns the checkpointed epoch, or `Ok(None)` for an
    /// ephemeral index. The snapshot is durable on disk *before* the log
    /// is reset; a crash in between is absorbed by the skip rule.
    pub fn checkpoint(&self) -> io::Result<Option<u64>> {
        let Some(path) = self.index_path.as_deref() else {
            return Ok(None);
        };
        let mut writer = self.index.writer();
        checkpoint_locked(&mut writer, path).map(Some)
    }

    /// [`DurableIndex::checkpoint`] only when at least
    /// [`DurableIndex::checkpoint_every`] batches were journaled since
    /// the last one. The server's write path calls this after every
    /// acknowledged batch.
    pub fn checkpoint_if_due(&self) -> io::Result<Option<u64>> {
        let Some(path) = self.index_path.as_deref() else {
            return Ok(None);
        };
        if self.checkpoint_every == 0 {
            return Ok(None);
        }
        let mut writer = self.index.writer();
        let due = writer
            .wal()
            .is_some_and(|w| w.appended() >= self.checkpoint_every);
        if !due {
            return Ok(None);
        }
        checkpoint_locked(&mut writer, path).map(Some)
    }

    /// One human-readable line for the `stats` command.
    pub fn describe(&self) -> String {
        match &self.index_path {
            None => "durability: none (in-memory only)".into(),
            Some(path) => {
                let writer = self.index.writer();
                let (policy, pending, wal_path) = match writer.wal() {
                    Some(w) => (
                        w.policy().to_string(),
                        w.appended(),
                        w.path().display().to_string(),
                    ),
                    None => ("detached".into(), 0, "-".into()),
                };
                format!(
                    "durability: checkpoint {} (every {} batches), wal {} (fsync {}, {} batch(es) since checkpoint)",
                    path.display(),
                    self.checkpoint_every,
                    wal_path,
                    policy,
                    pending,
                )
            }
        }
    }
}

/// The checkpoint sequence with the writer lock already held: durable
/// snapshot first, log reset second.
fn checkpoint_locked(writer: &mut IndexWriter, index_path: &Path) -> io::Result<u64> {
    let epoch = writer.epoch();
    writer.index().save_at_epoch(epoch, index_path)?;
    if let Some(wal) = writer.wal_mut() {
        wal.reset(epoch)?;
    }
    Ok(epoch)
}
