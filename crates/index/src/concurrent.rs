//! **Concurrent serving layer**: lock-light concurrent reads over a
//! [`SignatureIndex`] that a single writer keeps updating.
//!
//! [`ConcurrentNedIndex`] splits the index into two handles:
//!
//! * [`IndexReader`] (cheaply cloneable, one per serving thread) answers
//!   knn/range queries against an immutable **snapshot** — an
//!   `Arc<SignatureIndex>` whose sketch bank is itself made of
//!   `Arc`-shared chunks (see [`crate::sketch::SketchBank`]).
//!   Grabbing the snapshot is a read-lock held for one `Arc` clone
//!   (nanoseconds, never across a distance computation), after which the
//!   query runs entirely on private immutable data: readers never block
//!   each other, never block the writer, and reuse the full bounded
//!   machinery — sketch bounds, the budgeted early-abandoning TED\*
//!   kernel, and the shrinking pruning radius — unchanged.
//! * [`IndexWriter`] (exactly one; not `Clone`) applies
//!   insert/remove/replace **batches** to its private master copy and
//!   then *publishes* the new state atomically: one cheap
//!   [`SignatureIndex::clone`] (reference bumps plus copy-on-write
//!   bookkeeping) swapped in under a momentary write lock, bumping the
//!   epoch.
//!
//! # Why snapshot publication is write-side-only
//!
//! Readers never install, repair, or upgrade snapshots — publication is
//! the writer's exclusive job, and that asymmetry is what keeps the whole
//! scheme simple and correct:
//!
//! * **No read-side retry loops.** With a single publisher, "install the
//!   new state" is a plain store of an `Arc` — no CAS loop, no ABA
//!   hazard, no helping protocol. A reader's entire synchronization
//!   footprint is one brief read-lock.
//! * **Monotonic epochs for free.** Snapshots are published in the order
//!   the writer created them, so the epoch counter advances monotonically
//!   and every reader observes a *prefix-consistent* history: whatever
//!   snapshot it holds is exactly some state the writer published, never
//!   a torn mix of two (pinned by the linearizability-style test in
//!   `tests/concurrent.rs`).
//! * **Reclamation happens on the writer.** The writer keeps every
//!   snapshot it has superseded and drops each one at the first
//!   publication after it became the only owner. A reader's drop is
//!   therefore never the last one, so readers never run the frees of a
//!   write; the price is that a superseded snapshot outlives its last
//!   reader until the next publication.
//! * **Writes stay off the read path.** A batch mutates the writer's
//!   private master copy; readers keep answering from their snapshots
//!   while it runs and only ever see its *result*, published like any
//!   other batch.
//!
//! # What a write batch actually costs
//!
//! Publication clones the master: it copies the tables of pointers to
//! sketch-bank chunk groups (one per 1024 rows) and id-map pieces,
//! bumping one reference count per entry, and copies no row. That
//! sharing re-arms copy-on-write, so the batch after it copies each bank
//! chunk it touches (about 10.8 KB: 64 rows' ids, signatures and lanes)
//! with its group's pointer table and, when it adds or drops ids, each
//! id-map piece it changes. A batch
//! therefore costs what it changes, not what the index holds. The
//! superseded snapshot is freed on the writer too (above), so a batch's
//! frees land on the write path, never on a reader.

use crate::signatures::SignatureIndex;
use ned_core::wal::WalWriter;
use ned_core::{NodeSignature, WireHit};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// One operation of a write batch.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Index a signature under the next automatically assigned id.
    Insert(NodeSignature),
    /// Put a signature at an explicit id, replacing any live occupant.
    Replace(u64, NodeSignature),
    /// Drop a signature by id.
    Remove(u64),
}

/// What each [`WriteOp`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// The id assigned to an [`WriteOp::Insert`].
    Inserted(u64),
    /// A [`WriteOp::Replace`] landed; `fresh` is `true` when the id was
    /// not previously live.
    Replaced {
        /// The explicit id written.
        id: u64,
        /// Whether the id was newly created rather than overwritten.
        fresh: bool,
    },
    /// A [`WriteOp::Remove`] ran; `existed` is `false` for unknown ids.
    Removed {
        /// The id removed.
        id: u64,
        /// Whether a live signature was actually dropped.
        existed: bool,
    },
}

/// The state shared between the writer and every reader handle.
struct Shared {
    /// The currently published snapshot **paired with its epoch**, so a
    /// reader can learn both in one lock acquisition — the pairing is
    /// what lets a query reply carry exactly the epoch of the snapshot
    /// that answered it (the shard-fleet consistency tag). The lock is
    /// held for one `Arc` clone (readers) or one pointer store (writer)
    /// — never across any distance computation.
    current: RwLock<(Arc<SignatureIndex>, u64)>,
    /// Mirror of the published epoch for lock-free reads; `0` is the
    /// initial state.
    epoch: AtomicU64,
}

impl Shared {
    /// Current snapshot. Lock poisoning is unrecoverable only for state
    /// that can be half-written; an `Arc` store cannot be, so a poisoned
    /// lock (a reader or writer panicked elsewhere) still yields the last
    /// fully published snapshot.
    fn snapshot(&self) -> Arc<SignatureIndex> {
        self.snapshot_with_epoch().0
    }

    fn snapshot_with_epoch(&self) -> (Arc<SignatureIndex>, u64) {
        let guard = self
            .current
            .read()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        (Arc::clone(&guard.0), guard.1)
    }

    /// Installs `snap` as the next epoch and returns the snapshot it
    /// replaced.
    fn publish(&self, snap: Arc<SignatureIndex>) -> Arc<SignatureIndex> {
        let mut guard = self
            .current
            .write()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let next = self.epoch.load(Ordering::Acquire) + 1;
        let (superseded, _) = std::mem::replace(&mut *guard, (snap, next));
        drop(guard);
        self.epoch.store(next, Ordering::Release);
        superseded
    }
}

/// A read handle: clone one per serving thread. See the
/// [module docs](self).
#[derive(Clone)]
pub struct IndexReader {
    shared: Arc<Shared>,
}

impl IndexReader {
    /// The currently published snapshot — immutable, self-consistent, and
    /// valid for as long as the `Arc` is held. Grab one snapshot per
    /// request when answering multiple questions that must agree.
    pub fn snapshot(&self) -> Arc<SignatureIndex> {
        self.shared.snapshot()
    }

    /// The currently published snapshot **and the epoch it published
    /// as**, read atomically under one lock acquisition. Use this when a
    /// reply must be tagged with the version that answered it (the shard
    /// servers do): pairing `snapshot()` with a separate `epoch()` call
    /// can tear across a concurrent publication.
    pub fn snapshot_with_epoch(&self) -> (Arc<SignatureIndex>, u64) {
        self.shared.snapshot_with_epoch()
    }

    /// How many publications have happened (`0` = initial state).
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Live signatures in the current snapshot.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// `true` when the current snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The extraction parameter of the indexed signatures.
    pub fn k(&self) -> usize {
        self.snapshot().k()
    }

    /// The `top` nearest indexed signatures in the current snapshot.
    ///
    /// `threads` is the *intra*-query fan-out (as in
    /// [`SignatureIndex::query`]); concurrent serving gets its
    /// parallelism from many reader threads, so servers should pass `1`
    /// here and let requests, not shards, occupy the cores.
    pub fn knn(&self, sig: &NodeSignature, top: usize, threads: usize) -> Vec<WireHit> {
        self.snapshot().query(sig, top, threads)
    }

    /// Every indexed signature within `radius` in the current snapshot.
    pub fn range(&self, sig: &NodeSignature, radius: u64, threads: usize) -> Vec<WireHit> {
        self.snapshot().range(sig, radius, threads)
    }
}

/// The write handle: exactly one exists per [`ConcurrentNedIndex`] (or
/// per [`ConcurrentNedIndex::split`] pair), which is what makes
/// publication a plain store. See the [module docs](self).
pub struct IndexWriter {
    master: SignatureIndex,
    shared: Arc<Shared>,
    /// When attached, every batch is journaled here (encoded by
    /// `crate::durable`) after it is applied to the master but **before**
    /// it is published — so no reader (and no client acknowledgement) can
    /// ever observe a state the log does not reproduce.
    wal: Option<WalWriter>,
    /// Snapshots this writer has superseded that readers may still hold.
    /// Each is dropped here once the writer is its only owner.
    retired: Vec<Arc<SignatureIndex>>,
}

impl IndexWriter {
    /// A reader handle over the same shared state.
    pub fn reader(&self) -> IndexReader {
        IndexReader {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The epoch of the currently published state.
    pub fn epoch(&self) -> u64 {
        self.shared.epoch.load(Ordering::Acquire)
    }

    /// Attaches a write-ahead log; every subsequent batch is journaled
    /// before publication. Attach *after* any recovery replay (replaying
    /// through an attached log would re-journal the records being
    /// replayed).
    pub fn attach_wal(&mut self, wal: WalWriter) {
        self.wal = Some(wal);
    }

    /// The attached write-ahead log, if any.
    pub fn wal(&self) -> Option<&WalWriter> {
        self.wal.as_ref()
    }

    /// Mutable access to the attached log (checkpointing resets it).
    pub fn wal_mut(&mut self) -> Option<&mut WalWriter> {
        self.wal.as_mut()
    }

    /// The writer's current (already published) state. Between batches
    /// the master and the published snapshot are identical; use this for
    /// persistence (`save`) and stats without racing readers.
    pub fn index(&self) -> &SignatureIndex {
        &self.master
    }

    /// Applies a whole batch to the master copy, then publishes the new
    /// state **once**, atomically. Readers see either the pre-batch or
    /// the post-batch state, never anything in between.
    ///
    /// With a WAL attached this panics if the journal append fails; use
    /// [`IndexWriter::try_apply`] where an I/O failure must be a
    /// recoverable error (the server's write path does).
    pub fn apply(&mut self, batch: impl IntoIterator<Item = WriteOp>) -> Vec<WriteOutcome> {
        self.try_apply(batch)
            .expect("write-ahead log append failed")
    }

    /// [`IndexWriter::apply`] with journal failures surfaced as errors.
    ///
    /// The batch is **all-or-nothing against the published state**, even
    /// under failure:
    ///
    /// * a panic inside an op (a poisoned signature, an index bug) rolls
    ///   the master back to the published snapshot and re-raises — the
    ///   batch never happened, and the writer stays usable if the panic
    ///   is caught downstream (the server isolates it per connection);
    /// * a WAL append error rolls back the same way and returns `Err` —
    ///   an unjournaled batch is never published, so every state a reader
    ///   (or an acknowledged client) can see is reproducible from
    ///   snapshot + log.
    pub fn try_apply(
        &mut self,
        batch: impl IntoIterator<Item = WriteOp>,
    ) -> std::io::Result<Vec<WriteOutcome>> {
        let ops: Vec<WriteOp> = batch.into_iter().collect();
        // Encode before the ops are consumed; the record carries the
        // epoch this batch will publish as.
        let record = self
            .wal
            .as_ref()
            .map(|_| crate::durable::encode_batch(self.epoch() + 1, &ops));
        let master = &mut self.master;
        let applied = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            ops.into_iter()
                .map(|op| match op {
                    WriteOp::Insert(sig) => WriteOutcome::Inserted(master.insert(sig)),
                    WriteOp::Replace(id, sig) => WriteOutcome::Replaced {
                        id,
                        fresh: master.insert_at(id, sig),
                    },
                    WriteOp::Remove(id) => WriteOutcome::Removed {
                        id,
                        existed: master.remove(id),
                    },
                })
                .collect::<Vec<WriteOutcome>>()
        }));
        let outcomes = match applied {
            Ok(outcomes) => outcomes,
            Err(panic) => {
                // Roll the possibly half-applied master back to the
                // published (pre-batch) state, then let the panic travel.
                self.master = (*self.shared.snapshot()).clone();
                std::panic::resume_unwind(panic);
            }
        };
        if let (Some(wal), Some(record)) = (self.wal.as_mut(), record) {
            if let Err(e) = wal.append(&record) {
                self.master = (*self.shared.snapshot()).clone();
                return Err(e);
            }
        }
        self.publish();
        Ok(outcomes)
    }

    /// Single-op convenience: [`WriteOp::Insert`] as its own batch.
    pub fn insert(&mut self, sig: NodeSignature) -> u64 {
        match self.apply([WriteOp::Insert(sig)]).pop() {
            Some(WriteOutcome::Inserted(id)) => id,
            _ => unreachable!("insert batch returns Inserted"),
        }
    }

    /// Single-op convenience: [`WriteOp::Replace`] as its own batch.
    pub fn replace(&mut self, id: u64, sig: NodeSignature) -> bool {
        match self.apply([WriteOp::Replace(id, sig)]).pop() {
            Some(WriteOutcome::Replaced { fresh, .. }) => fresh,
            _ => unreachable!("replace batch returns Replaced"),
        }
    }

    /// Single-op convenience: [`WriteOp::Remove`] as its own batch.
    pub fn remove(&mut self, id: u64) -> bool {
        match self.apply([WriteOp::Remove(id)]).pop() {
            Some(WriteOutcome::Removed { existed, .. }) => existed,
            _ => unreachable!("remove batch returns Removed"),
        }
    }

    fn publish(&mut self) {
        // The clone bumps one count per bank chunk group and id-map
        // piece; the next batch copies only what it touches.
        let superseded = self.shared.publish(Arc::new(self.master.clone()));
        self.retired.push(superseded);
        // No reader can pick up a superseded snapshot again, so a count of
        // one means the writer is its last owner: free it here.
        self.retired.retain(|snap| Arc::strong_count(snap) > 1);
    }
}

/// The facade bundling the single writer (behind a mutex, so any serving
/// thread can submit a batch) with freely cloneable readers. For
/// single-threaded ownership of the writer, use
/// [`ConcurrentNedIndex::split`] instead and let the type system enforce
/// the single-writer discipline with no lock at all.
pub struct ConcurrentNedIndex {
    writer: Mutex<IndexWriter>,
    reader: IndexReader,
}

impl ConcurrentNedIndex {
    /// Wraps `index` for concurrent serving, publishing it as epoch-0.
    pub fn new(index: SignatureIndex) -> Self {
        let (writer, reader) = Self::split(index);
        ConcurrentNedIndex {
            writer: Mutex::new(writer),
            reader,
        }
    }

    /// Splits `index` into the one writer and a first reader.
    pub fn split(index: SignatureIndex) -> (IndexWriter, IndexReader) {
        Self::split_at(index, 0)
    }

    /// [`ConcurrentNedIndex::split`] with the epoch counter starting at
    /// `epoch` — recovery uses this so a restored index resumes the epoch
    /// sequence it crashed at instead of restarting from 0.
    pub fn split_at(index: SignatureIndex, epoch: u64) -> (IndexWriter, IndexReader) {
        let shared = Arc::new(Shared {
            current: RwLock::new((Arc::new(index.clone()), epoch)),
            epoch: AtomicU64::new(epoch),
        });
        let writer = IndexWriter {
            master: index,
            shared: Arc::clone(&shared),
            wal: None,
            retired: Vec::new(),
        };
        let reader = IndexReader { shared };
        (writer, reader)
    }

    /// Wraps an existing writer (typically one that just replayed a WAL
    /// and had the log re-attached) into the serving facade.
    pub fn from_writer(writer: IndexWriter) -> Self {
        let reader = writer.reader();
        ConcurrentNedIndex {
            writer: Mutex::new(writer),
            reader,
        }
    }

    /// A fresh read handle (cheap; clone one per thread).
    pub fn reader(&self) -> IndexReader {
        self.reader.clone()
    }

    /// Exclusive access to the writer. Serializes write batches across
    /// serving threads; readers are unaffected while this is held.
    pub fn writer(&self) -> MutexGuard<'_, IndexWriter> {
        self.writer
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_index() -> (SignatureIndex, Vec<NodeSignature>) {
        let mut rng = SmallRng::seed_from_u64(5);
        let g = generators::barabasi_albert(120, 2, &mut rng);
        let nodes: Vec<u32> = g.nodes().collect();
        let mut index = SignatureIndex::new(2, 16, 9);
        index.insert_graph(&g, &nodes);
        let probes = ned_core::signatures(&g, &[0, 17, 63], 2);
        (index, probes)
    }

    #[test]
    fn readers_see_published_batches_snapshots_stay_frozen() {
        let (index, probes) = small_index();
        let (mut writer, reader) = ConcurrentNedIndex::split(index);
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.len(), 120);

        let frozen = reader.snapshot();
        let before = frozen.query(&probes[0], 5, 1);

        let outcomes = writer.apply([
            WriteOp::Insert(probes[1].clone()),
            WriteOp::Remove(3),
            WriteOp::Remove(99_999),
            WriteOp::Replace(7, probes[2].clone()),
        ]);
        assert_eq!(outcomes[0], WriteOutcome::Inserted(120));
        assert_eq!(
            outcomes[1],
            WriteOutcome::Removed {
                id: 3,
                existed: true
            }
        );
        assert_eq!(
            outcomes[2],
            WriteOutcome::Removed {
                id: 99_999,
                existed: false
            }
        );
        assert_eq!(
            outcomes[3],
            WriteOutcome::Replaced {
                id: 7,
                fresh: false
            }
        );

        // One batch = one publication.
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.len(), 120); // +1 insert, -1 remove
                                       // The old snapshot is untouched by the batch.
        assert_eq!(frozen.len(), 120);
        assert_eq!(frozen.query(&probes[0], 5, 1), before);
        assert!(frozen.get(3).is_some());
        // The new snapshot reflects every op, exactly like a scan.
        let snap = reader.snapshot();
        assert!(snap.get(3).is_none());
        assert_eq!(
            reader.knn(&probes[0], 5, 1),
            snap.scan(&probes[0], 5),
            "published snapshot must stay scan-exact"
        );
    }

    #[test]
    fn facade_serializes_writers_and_hands_out_readers() {
        let (index, probes) = small_index();
        let service = ConcurrentNedIndex::new(index);
        let r1 = service.reader();
        let r2 = service.reader();
        let id = service.writer().insert(probes[0].clone());
        assert_eq!(id, 120);
        assert_eq!(r1.epoch(), 1);
        assert_eq!(r2.len(), 121);
        assert_eq!(r1.knn(&probes[0], 1, 1)[0].distance, 0.0);
        assert!(service.writer().remove(id));
        assert_eq!(r2.epoch(), 2);
    }

    #[test]
    fn writer_master_matches_published_state_between_batches() {
        let (index, probes) = small_index();
        let (mut writer, reader) = ConcurrentNedIndex::split(index);
        writer.insert(probes[0].clone());
        writer.remove(0);
        let snap = reader.snapshot();
        assert_eq!(writer.index().len(), snap.len());
        assert_eq!(writer.index().scan(&probes[1], 7), snap.scan(&probes[1], 7));
    }
}
