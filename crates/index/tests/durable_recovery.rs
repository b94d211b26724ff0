//! Crash-equivalence tests for [`ned_index::DurableIndex`]: recovery
//! from (checkpoint, WAL) must be **bit-identical** to the pre-crash
//! published state at every acknowledged epoch — including recoveries
//! from torn log tails, stale snapshots, and repeated replays.
//!
//! The byte-level comparison is sound because
//! `SignatureIndex::to_bytes` sorts entries by id before encoding:
//! equal live sets encode equally regardless of shard layout.

use ned_core::wal::{self, FsyncPolicy, WAL_HEADER_LEN, WAL_RECORD_OVERHEAD};
use ned_core::{NodeSignature, PreparedTree};
use ned_graph::{generators, GraphDelta};
use ned_index::{
    DurableError, DurableIndex, DurableOptions, GraphMaintainer, SignatureIndex, WriteOp,
};
use ned_tree::Tree;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};

/// Fresh scratch directory per test (removed by the caller at the end).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ned-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A random small signature (1..10-node tree, random topology).
fn rand_sig(rng: &mut SmallRng) -> NodeSignature {
    let n = rng.gen_range(1..10usize);
    let parents: Vec<u32> = (0..n)
        .map(|v| {
            if v == 0 {
                0
            } else {
                rng.gen_range(0..v) as u32
            }
        })
        .collect();
    let tree = Tree::from_parents(&parents).expect("valid parent array");
    NodeSignature::from_prepared(rng.gen_range(0..1000), PreparedTree::new(&tree))
}

/// A random write batch against the mirrored live-id set, keeping the
/// mirror in sync (removes and replaces only target live ids).
fn rand_batch(rng: &mut SmallRng, live: &mut Vec<u64>, next_id: &mut u64) -> Vec<WriteOp> {
    let count = rng.gen_range(1..4usize);
    (0..count)
        .map(|_| {
            let choice = rng.gen_range(0..3u8);
            if choice == 0 || live.is_empty() {
                live.push(*next_id);
                *next_id += 1;
                WriteOp::Insert(rand_sig(rng))
            } else if choice == 1 {
                WriteOp::Remove(live.remove(rng.gen_range(0..live.len())))
            } else {
                WriteOp::Replace(live[rng.gen_range(0..live.len())], rand_sig(rng))
            }
        })
        .collect()
}

/// Seeds an index file (version-1, epoch 0), runs `batches` journaled
/// write batches against it with `checkpoint_every = 0` (nothing
/// truncates the log), and returns the per-epoch expected encodings
/// plus the byte offset where each WAL record ends.
fn journaled_run(
    dir: &Path,
    seed: u64,
    batches: usize,
) -> (PathBuf, PathBuf, Vec<Vec<u8>>, Vec<usize>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let index_path = dir.join("index.idx");
    let wal_path = dir.join("index.wal");

    let mut seed_index = SignatureIndex::new(2, 8, 7);
    let mut live = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..6 {
        seed_index.insert(rand_sig(&mut rng));
        live.push(next_id);
        next_id += 1;
    }
    seed_index.save(&index_path).expect("seed checkpoint");

    let opts = DurableOptions {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_every: 0,
    };
    let (durable, report) = DurableIndex::recover(&index_path, &wal_path, opts).expect("boot");
    assert!(report.log_created);
    assert_eq!(report.recovered_epoch, 0);

    let mut expected = Vec::with_capacity(batches);
    for _ in 0..batches {
        let batch = rand_batch(&mut rng, &mut live, &mut next_id);
        let mut writer = durable.writer();
        writer.apply(batch);
        expected.push(writer.index().to_bytes());
    }
    drop(durable);

    let bytes = std::fs::read(&wal_path).expect("read wal");
    let replay = wal::replay_bytes(&bytes).expect("intact log");
    assert_eq!(replay.records.len(), batches, "one record per batch");
    assert!(!replay.torn_tail);
    let mut ends = Vec::with_capacity(batches);
    let mut at = WAL_HEADER_LEN;
    for r in &replay.records {
        at += WAL_RECORD_OVERHEAD + r.len();
        ends.push(at);
    }
    assert_eq!(at, bytes.len());
    (index_path, wal_path, expected, ends)
}

/// Recovers from copies of `(index_path, wal prefix)` in a fresh
/// directory, so the originals stay untouched for the next cut.
fn recover_prefix(
    index_path: &Path,
    wal_bytes: &[u8],
    tag: &str,
) -> (DurableIndex, ned_index::RecoveryReport, PathBuf) {
    let dir = scratch(tag);
    let idx = dir.join("index.idx");
    let wal = dir.join("index.wal");
    std::fs::copy(index_path, &idx).expect("copy checkpoint");
    std::fs::write(&wal, wal_bytes).expect("write wal prefix");
    let opts = DurableOptions {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_every: 0,
    };
    let (durable, report) = DurableIndex::recover(&idx, &wal, opts).expect("recover");
    (durable, report, dir)
}

#[test]
fn recovery_is_bit_identical_at_every_acked_epoch() {
    let dir = scratch("acked");
    let (index_path, wal_path, expected, ends) = journaled_run(&dir, 101, 8);
    let wal_bytes = std::fs::read(&wal_path).expect("read wal");

    for (i, &end) in ends.iter().enumerate() {
        // A crash right after batch i+1 was acknowledged: the log holds
        // exactly its records. Recovery must reproduce that state, byte
        // for byte.
        let (durable, report, tmp) = recover_prefix(&index_path, &wal_bytes[..end], "acked-cut");
        assert_eq!(report.replayed, i + 1);
        assert_eq!(report.skipped, 0);
        assert!(!report.torn_tail);
        assert_eq!(report.recovered_epoch, (i + 1) as u64);
        assert_eq!(durable.reader().epoch(), (i + 1) as u64);
        let recovered = durable.writer().index().to_bytes();
        assert_eq!(recovered, expected[i], "epoch {}", i + 1);
        drop(durable);
        let _ = std::fs::remove_dir_all(tmp);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn torn_tail_recovers_to_the_last_acked_batch_at_every_cut() {
    let dir = scratch("torn");
    let (index_path, wal_path, expected, ends) = journaled_run(&dir, 202, 3);
    let wal_bytes = std::fs::read(&wal_path).expect("read wal");
    let seed_bytes = {
        let (idx, _) = SignatureIndex::load_with_epoch(&index_path).expect("seed");
        idx.to_bytes()
    };

    // Every byte offset in the record stream is a possible SIGKILL
    // point; each must recover to exactly the last fully-journaled
    // (= last acknowledged) batch.
    for cut in WAL_HEADER_LEN..=wal_bytes.len() {
        let (durable, report, tmp) = recover_prefix(&index_path, &wal_bytes[..cut], "torn-cut");
        let acked = ends.iter().filter(|&&e| e <= cut).count();
        assert_eq!(report.replayed, acked, "cut={cut}");
        let at_boundary = cut == WAL_HEADER_LEN || ends.contains(&cut);
        assert_eq!(report.torn_tail, !at_boundary, "cut={cut}");
        let want = if acked == 0 {
            &seed_bytes
        } else {
            &expected[acked - 1]
        };
        assert_eq!(&durable.writer().index().to_bytes(), want, "cut={cut}");
        drop(durable);
        let _ = std::fs::remove_dir_all(tmp);
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn replay_is_idempotent_and_skips_what_the_snapshot_contains() {
    let dir = scratch("idem");
    let (index_path, wal_path, expected, _) = journaled_run(&dir, 303, 6);
    let wal_bytes = std::fs::read(&wal_path).expect("read wal");
    let final_bytes = expected.last().expect("batches ran");

    // First recovery from the full pair.
    let (durable, report, tmp) = recover_prefix(&index_path, &wal_bytes, "idem-a");
    assert_eq!(report.replayed, 6);
    assert_eq!(&durable.writer().index().to_bytes(), final_bytes);
    drop(durable);

    // Recovering again from the *same files the first recovery left
    // behind* (checkpoint_every = 0 never truncates) changes nothing:
    // double replay is a no-op.
    let opts = DurableOptions {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_every: 0,
    };
    let (again, report2) =
        DurableIndex::recover(&tmp.join("index.idx"), &tmp.join("index.wal"), opts)
            .expect("second recovery");
    assert_eq!(report2.replayed, 6);
    assert_eq!(&again.writer().index().to_bytes(), final_bytes);
    drop(again);
    let _ = std::fs::remove_dir_all(tmp);

    // A *newer* snapshot (as if a checkpoint ran at epoch 4 but crashed
    // before resetting the log) skips the already-contained records and
    // replays only the tail.
    let newer = scratch("idem-newer");
    let idx4 = newer.join("index.idx");
    {
        // Rebuild the epoch-4 state by replaying a 4-record prefix, then
        // save it (epoch-stamped) as the "newer snapshot".
        let replay = wal::replay_bytes(&wal_bytes).expect("intact");
        let mut at = WAL_HEADER_LEN;
        for r in replay.records.iter().take(4) {
            at += WAL_RECORD_OVERHEAD + r.len();
        }
        let (d4, _, tmp4) = recover_prefix(&index_path, &wal_bytes[..at], "idem-p4");
        d4.writer()
            .index()
            .save_at_epoch(4, &idx4)
            .expect("save epoch-4 snapshot");
        drop(d4);
        let _ = std::fs::remove_dir_all(tmp4);
    }
    std::fs::write(newer.join("index.wal"), &wal_bytes).expect("old log");
    let (durable, report) =
        DurableIndex::recover(&idx4, &newer.join("index.wal"), opts).expect("recover");
    assert_eq!(report.snapshot_epoch, 4);
    assert_eq!(report.skipped, 4);
    assert_eq!(report.replayed, 2);
    assert_eq!(&durable.writer().index().to_bytes(), final_bytes);
    drop(durable);
    let _ = std::fs::remove_dir_all(newer);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn an_epoch_gap_is_refused_loudly() {
    let dir = scratch("gap");
    let index_path = dir.join("index.idx");
    let wal_path = dir.join("index.wal");
    let mut rng = SmallRng::seed_from_u64(404);
    let mut index = SignatureIndex::new(2, 8, 7);
    index.insert(rand_sig(&mut rng));
    index.save(&index_path).expect("seed");

    // A log whose first record claims epoch 2 against an epoch-0
    // snapshot: epoch 1 is missing, so the pair cannot reproduce the
    // acknowledged history. Recovery must refuse, not resurrect.
    let mut w = wal::WalWriter::create(&wal_path, 0, FsyncPolicy::PerBatch).expect("create");
    let record = ned_index::durable::encode_batch(2, &[WriteOp::Insert(rand_sig(&mut rng))]);
    w.append(&record).expect("append");
    drop(w);

    let opts = DurableOptions::default();
    match DurableIndex::recover(&index_path, &wal_path, opts) {
        Err(DurableError::Corrupt(why)) => {
            assert!(why.contains("epoch 2"), "{why}");
        }
        Err(other) => panic!("wrong error kind: {other}"),
        Ok(_) => panic!("recovery must refuse an epoch gap"),
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn checkpoint_truncates_the_log_and_bounds_replay() {
    let dir = scratch("ckpt");
    let index_path = dir.join("index.idx");
    let wal_path = dir.join("index.wal");
    let mut rng = SmallRng::seed_from_u64(505);
    let mut seed_index = SignatureIndex::new(2, 8, 7);
    let mut live = Vec::new();
    let mut next_id = 0u64;
    for _ in 0..5 {
        seed_index.insert(rand_sig(&mut rng));
        live.push(next_id);
        next_id += 1;
    }
    seed_index.save(&index_path).expect("seed");

    let opts = DurableOptions {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_every: 0, // checkpoints run explicitly below
    };
    let (durable, _) = DurableIndex::recover(&index_path, &wal_path, opts).expect("boot");
    for _ in 0..3 {
        let batch = rand_batch(&mut rng, &mut live, &mut next_id);
        durable.writer().apply(batch);
    }
    assert_eq!(durable.checkpoint().expect("checkpoint"), Some(3));
    for _ in 0..2 {
        let batch = rand_batch(&mut rng, &mut live, &mut next_id);
        durable.writer().apply(batch);
    }
    let final_bytes = durable.writer().index().to_bytes();
    drop(durable);

    // The checkpoint re-based the log: only the two post-checkpoint
    // batches remain in it.
    let replay = wal::replay_bytes(&std::fs::read(&wal_path).expect("wal")).expect("intact");
    assert_eq!(replay.base, 3);
    assert_eq!(replay.records.len(), 2);

    let (recovered, report) = DurableIndex::recover(&index_path, &wal_path, opts).expect("recover");
    assert_eq!(report.snapshot_epoch, 3);
    assert_eq!(report.replayed, 2);
    assert_eq!(report.skipped, 0);
    assert_eq!(recovered.writer().index().to_bytes(), final_bytes);
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn graph_delta_batches_replay_without_the_graph() {
    // Deltas are journaled as the materialized WriteOp batches the
    // maintainer produced, so recovery needs only the log — never the
    // tracked graph.
    let dir = scratch("delta");
    let index_path = dir.join("index.idx");
    let wal_path = dir.join("index.wal");
    let mut rng = SmallRng::seed_from_u64(606);
    let g = generators::barabasi_albert(60, 2, &mut rng);
    let nodes: Vec<u32> = g.nodes().collect();
    let mut seed_index = SignatureIndex::new(2, 16, 7);
    seed_index.insert_graph(&g, &nodes);
    seed_index.save(&index_path).expect("seed");

    let opts = DurableOptions {
        fsync: FsyncPolicy::PerBatch,
        checkpoint_every: 0,
    };
    let (durable, _) = DurableIndex::recover(&index_path, &wal_path, opts).expect("boot");
    let mut maintainer = GraphMaintainer::attach(&g, 2, 0, 1);
    maintainer
        .verify_against(durable.writer().index())
        .expect("tracked graph matches");
    for i in 0..8u32 {
        let (a, b) = (i % 7, (i * 3 + 1) % 60);
        let delta = if g.has_edge(a, b) {
            GraphDelta::RemoveEdge(a, b)
        } else {
            GraphDelta::AddEdge(a, b)
        };
        let mut writer = durable.writer();
        maintainer.apply(&[delta], &mut writer);
    }
    let final_bytes = durable.writer().index().to_bytes();
    let final_epoch = durable.reader().epoch();
    drop(durable);

    let (recovered, report) = DurableIndex::recover(&index_path, &wal_path, opts).expect("recover");
    assert_eq!(report.replayed, 8);
    assert_eq!(recovered.reader().epoch(), final_epoch);
    assert_eq!(recovered.writer().index().to_bytes(), final_bytes);
    drop(recovered);
    let _ = std::fs::remove_dir_all(dir);
}

/// A NEDWAL1 log committed as a fixture: [`fixture_batches`] appended
/// through `encode_batch` to a log created with base 42. It pins the
/// journal's bytes, so a change to how batches are emitted that is not a
/// deliberate format change fails here.
const WAL_FIXTURE: &[u8] = include_bytes!("fixtures/ba80_k3.nedwal");

/// The batches behind [`WAL_FIXTURE`]: signatures of BA(80, 2) from seed
/// `0x601D` (the graph of the NEDIDX fixtures) in every op kind, plus a
/// deeper k = 4 tree and a hand-made shape.
fn fixture_batches() -> Vec<(u64, Vec<WriteOp>)> {
    let mut rng = SmallRng::seed_from_u64(0x601D);
    let g = generators::barabasi_albert(80, 2, &mut rng);
    let sig = |v: u32, k: usize| NodeSignature::extract(&g, v, k);
    let path = Tree::from_parents(&[0, 0, 1, 2]).expect("path");
    vec![
        (
            43,
            vec![
                WriteOp::Insert(sig(0, 3)),
                WriteOp::Insert(sig(1, 3)),
                WriteOp::Replace(5, sig(9, 3)),
            ],
        ),
        (
            44,
            vec![
                WriteOp::Remove(17),
                WriteOp::Replace(2, sig(33, 4)),
                WriteOp::Insert(NodeSignature::from_prepared(77, PreparedTree::new(&path))),
            ],
        ),
        (45, vec![]),
    ]
}

#[test]
fn wal_encoding_reproduces_the_committed_fixture() {
    let dir = scratch("wal-fixture");
    let path = dir.join("fixture.wal");
    let batches = fixture_batches();
    let mut log = wal::WalWriter::create(&path, 42, FsyncPolicy::Never).expect("create");
    for (epoch, ops) in &batches {
        log.append(&ned_index::durable::encode_batch(*epoch, ops))
            .expect("append");
    }
    drop(log);
    let written = std::fs::read(&path).expect("read back");
    let first_diff = written.iter().zip(WAL_FIXTURE).position(|(a, b)| a != b);
    assert!(
        written.len() == WAL_FIXTURE.len() && first_diff.is_none(),
        "{} bytes vs {} in the fixture, first difference at {first_diff:?}",
        written.len(),
        WAL_FIXTURE.len()
    );

    // The fixture decodes back to the batches, and each record
    // re-encodes to itself.
    let replay = wal::replay_bytes(WAL_FIXTURE).expect("fixture replays");
    assert_eq!(replay.base, 42);
    assert_eq!(replay.records.len(), batches.len());
    for (record, (epoch, ops)) in replay.records.iter().zip(&batches) {
        let (got_epoch, got_ops) =
            ned_index::durable::decode_batch(record).expect("fixture decodes");
        assert_eq!(got_epoch, *epoch);
        assert_eq!(
            &ned_index::durable::encode_batch(got_epoch, &got_ops),
            record
        );
        assert_eq!(got_ops.len(), ops.len());
        for (got, want) in got_ops.iter().zip(ops) {
            let (a, b) = match (got, want) {
                (WriteOp::Insert(a), WriteOp::Insert(b)) => (a, b),
                (WriteOp::Replace(i, a), WriteOp::Replace(j, b)) if i == j => (a, b),
                (WriteOp::Remove(i), WriteOp::Remove(j)) if i == j => continue,
                _ => panic!("op changed: {got:?} vs {want:?}"),
            };
            assert_eq!(a.node, b.node);
            assert_eq!(a.prepared(), b.prepared());
        }
    }
    let _ = std::fs::remove_dir_all(dir);
}
