//! Parallel batch distance computation over node signatures.
//!
//! The evaluation workloads (nearest-neighbor queries, de-anonymization,
//! Hausdorff distances) are embarrassingly parallel across query nodes;
//! this module provides scoped-thread implementations with no external
//! dependencies. `threads = 0` means "use all available parallelism".

use crate::ned::NodeSignature;
use ned_graph::NodeId;
use std::sync::atomic::{AtomicUsize, Ordering};

fn thread_count(requested: usize, work_items: usize) -> usize {
    let available = if requested == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        requested
    };
    available.min(work_items.max(1))
}

/// Generic indexed parallel map (work-stealing over an atomic cursor):
/// `out[i] = f(i)` for `i in 0..n`, computed on up to `threads` scoped
/// threads (`0` = all available parallelism). This is the thread pool the
/// batch workloads fan out on; it allocates nothing beyond the result
/// slots and never outlives the call.
pub fn par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    indexed_par_map(n, threads, f)
}

/// Parallel in-place fill: `f(i, chunk)` for every `chunk_len`-sized
/// chunk `i` of `data` (the last may be shorter), on up to `threads`
/// scoped threads (`0` = all available parallelism). Each thread takes
/// one contiguous run of chunks, which suits uniform per-element work.
/// With one thread, or one chunk, it runs inline and allocates nothing.
pub fn par_chunks_mut<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(chunk_len > 0, "chunk length must be positive");
    let chunks = data.len().div_ceil(chunk_len);
    let threads = thread_count(threads, chunks);
    if threads <= 1 {
        for (i, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(i, chunk);
        }
        return;
    }
    let per_run = chunks.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        for (t, run) in data.chunks_mut(per_run * chunk_len).enumerate() {
            scope.spawn(move || {
                for (j, chunk) in run.chunks_mut(chunk_len).enumerate() {
                    f(t * per_run + j, chunk);
                }
            });
        }
    });
}

/// Generic indexed parallel map (work-stealing over an atomic cursor).
fn indexed_par_map<T: Send>(n: usize, threads: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = thread_count(threads, n);
    if threads <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let f = &f;
    let batches: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        (0..threads)
            .map(|_| {
                let cursor = &cursor;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for batch in batches {
        for (i, v) in batch {
            slots[i] = Some(v);
        }
    }
    slots.into_iter().map(|s| s.expect("slot filled")).collect()
}

/// A job queued on a [`WorkerPool`].
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// A **persistent** thread pool, complementing the scoped [`par_map`].
///
/// `par_map` spawns and joins scoped threads per call — the right shape
/// for big offline batches (the spawn cost amortizes over thousands of
/// distance computations), and the only shape that can borrow non-
/// `'static` data. A *serving* layer has the opposite profile: many
/// small, independent requests arriving over time, each owning its data
/// (`Arc` snapshots, decoded frames). Spawning threads per request would
/// dominate the work; [`WorkerPool`] keeps the threads alive across
/// requests and hands jobs over a channel, so the steady-state cost of a
/// fan-out is one channel send per job. The TCP batch protocol's
/// read-only command fan-out (`ned-index`'s server) and the load
/// generator both reuse one pool for their whole lifetime.
///
/// Dropping the pool closes the queue and joins every worker; jobs
/// already queued still run. A panicking job kills its worker thread
/// (shrinking the pool) but never poisons the queue — remaining workers
/// keep serving, and [`WorkerPool::run_ordered`] reports the panic to
/// its caller.
pub struct WorkerPool {
    tx: Option<std::sync::mpsc::Sender<PoolJob>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// A pool of `threads` workers (`0` = all available parallelism).
    pub fn new(threads: usize) -> Self {
        let threads = thread_count(threads, usize::MAX);
        let (tx, rx) = std::sync::mpsc::channel::<PoolJob>();
        let rx = std::sync::Arc::new(std::sync::Mutex::new(rx));
        let workers = (0..threads)
            .map(|_| {
                let rx = std::sync::Arc::clone(&rx);
                std::thread::spawn(move || loop {
                    // Hold the queue lock only for the dequeue, never
                    // while running the job.
                    let job = match rx.lock() {
                        Ok(guard) => guard.recv(),
                        Err(_) => return, // a sibling panicked mid-recv
                    };
                    match job {
                        Ok(job) => job(),
                        Err(_) => return, // queue closed: pool dropped
                    }
                })
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads started (some may have died to panicking
    /// jobs since).
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Queues one fire-and-forget job.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool alive until drop")
            .send(Box::new(job))
            .expect("workers alive until drop");
    }

    /// Runs every job on the pool and returns their results **in job
    /// order** (submission order, not completion order). Blocks until all
    /// are done; panics if any job panicked.
    pub fn run_ordered<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let n = jobs.len();
        let (tx, rx) = std::sync::mpsc::channel::<(usize, T)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                // A send can only fail if the caller's receiver is gone,
                // which cannot happen while run_ordered blocks below.
                let _ = tx.send((i, job()));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0usize;
        while let Ok((i, v)) = rx.recv() {
            slots[i] = Some(v);
            received += 1;
        }
        assert_eq!(
            received, n,
            "a pool job panicked before producing its result"
        );
        slots.into_iter().map(|s| s.expect("slot filled")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel is the shutdown signal; queued jobs drain.
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Full `|queries| × |database|` distance matrix, row-major.
pub fn distance_matrix(
    queries: &[NodeSignature],
    database: &[NodeSignature],
    threads: usize,
) -> Vec<u64> {
    let cols = database.len();
    let rows = indexed_par_map(queries.len(), threads, |qi| {
        let q = &queries[qi];
        database.iter().map(|c| q.distance(c)).collect::<Vec<u64>>()
    });
    let mut out = Vec::with_capacity(queries.len() * cols);
    for row in rows {
        debug_assert_eq!(row.len(), cols);
        out.extend(row);
    }
    out
}

/// For every query, the `k` nearest database nodes as
/// `(distance, node id)` sorted ascending (ties by node id — fully
/// deterministic).
pub fn knn_batch(
    queries: &[NodeSignature],
    database: &[NodeSignature],
    k: usize,
    threads: usize,
) -> Vec<Vec<(u64, NodeId)>> {
    indexed_par_map(queries.len(), threads, |qi| {
        let q = &queries[qi];
        let mut dists: Vec<(u64, NodeId)> =
            database.iter().map(|c| (q.distance(c), c.node)).collect();
        dists.sort_unstable();
        dists.truncate(k);
        dists
    })
}

/// Exact filtered k-NN: identical hits to [`knn_batch`], but candidates
/// are scanned in ascending
/// [`NodeSignature::distance_lower_bound`] order and refinement stops as
/// soon as the bound alone rules out every remaining candidate — the
/// filter-and-refine pipeline with the larger of the interned
/// class-histogram bound and the sorted child-count bound as the filter.
/// Returns per-query `(hits, refined)` where `refined` counts
/// exact distance resolutions (≤ database size; the gap is the pruning
/// win).
///
/// Cross-pair memo probes are **batched**: one
/// [`TedMemo`](crate::memo::TedMemo) consult covers the whole candidate
/// list — each memo shard's lock is taken at most once per query instead
/// of once per refined pair — and candidates the memo decides exactly
/// skip the per-pair kernel path entirely. Hit/miss counters stay exact:
/// the batch counts one lookup per code-unequal candidate, and only
/// undecided candidates fall through to the per-pair consult inside
/// [`NodeSignature::distance`].
pub fn knn_batch_filtered(
    queries: &[NodeSignature],
    database: &[NodeSignature],
    k: usize,
    threads: usize,
) -> Vec<(Vec<(u64, NodeId)>, usize)> {
    indexed_par_map(queries.len(), threads, |qi| {
        let q = &queries[qi];
        let qp = q.prepared();
        let mut bounded: Vec<(u64, NodeId, usize)> = database
            .iter()
            .enumerate()
            .map(|(i, c)| (q.distance_lower_bound(c), c.node, i))
            .collect();
        // Ascending bound; ties by node id keep the scan deterministic.
        bounded.sort_unstable_by_key(|&(lb, node, _)| (lb, node));

        // One batched memo consult for the whole candidate list.
        // Isomorphic pairs are excluded: the per-pair path answers them
        // as 0 before ever touching the memo, and the batch must count
        // exactly the lookups that path would perform.
        let memo = crate::memo::TedMemo::global();
        let mut keys: Vec<u64> = Vec::with_capacity(bounded.len());
        let mut key_owner: Vec<usize> = Vec::with_capacity(bounded.len());
        for (j, &(_, _, i)) in bounded.iter().enumerate() {
            let cp = database[i].prepared();
            if qp.code() != cp.code() {
                keys.push(crate::memo::pair_key(qp.root_class(), cp.root_class()));
                key_owner.push(j);
            }
        }
        let mut raw: Vec<Option<Option<u64>>> = Vec::new();
        memo.consult_batch(&keys, u64::MAX, &mut raw);
        // prefetched[j] = exact distance the memo already knows for
        // bounded[j], if any.
        let mut prefetched: Vec<Option<u64>> = vec![None; bounded.len()];
        for (&j, decided) in key_owner.iter().zip(&raw) {
            if let Some(Some(d)) = decided {
                prefetched[j] = Some(*d);
            }
        }

        let mut hits: Vec<(u64, NodeId)> = Vec::with_capacity(k + 1);
        let mut refined = 0usize;
        for (j, &(lb, node, i)) in bounded.iter().enumerate() {
            let tau = if hits.len() < k {
                u64::MAX
            } else {
                // strict: a candidate whose *bound* already exceeds the
                // k-th best distance cannot improve the result, and
                // neither can anything after it in bound order
                hits[k - 1].0
            };
            if lb > tau {
                break;
            }
            let d = match prefetched[j] {
                // Decided by the batch probe — no per-pair lock, no sweep.
                Some(d) => d,
                None if qp.code() == database[i].prepared().code() => 0,
                None => q.distance(&database[i]),
            };
            refined += 1;
            debug_assert!(d >= lb, "lower bound {lb} exceeds distance {d}");
            hits.push((d, node));
            hits.sort_unstable();
            hits.truncate(k);
        }
        (hits, refined)
    })
}

/// Condensed upper-triangle pairwise distances within one collection:
/// entry for `(i, j)`, `i < j`, lives at `i*(2n-i-1)/2 + (j-i-1)`
/// (the SciPy `pdist` layout).
pub fn pairwise_condensed(sigs: &[NodeSignature], threads: usize) -> Vec<u64> {
    let n = sigs.len();
    let rows = indexed_par_map(n.saturating_sub(1), threads, |i| {
        (i + 1..n)
            .map(|j| sigs[i].distance(&sigs[j]))
            .collect::<Vec<u64>>()
    });
    rows.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ned::signatures;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sigs() -> (Vec<NodeSignature>, Vec<NodeSignature>) {
        let mut rng = SmallRng::seed_from_u64(1);
        let g1 = generators::barabasi_albert(40, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(40, 80, &mut rng);
        let a: Vec<u32> = (0..10).collect();
        let b: Vec<u32> = (0..25).collect();
        (signatures(&g1, &a, 3), signatures(&g2, &b, 3))
    }

    #[test]
    fn par_chunks_mut_visits_every_chunk_once() {
        for threads in [1usize, 2, 3, 8] {
            for len in [0usize, 1, 9, 10, 31] {
                let mut data = vec![0usize; len];
                par_chunks_mut(&mut data, 4, threads, |i, chunk| {
                    assert!(chunk.len() <= 4);
                    for (j, x) in chunk.iter_mut().enumerate() {
                        *x += i * 4 + j + 1;
                    }
                });
                let want: Vec<usize> = (1..=len).collect();
                assert_eq!(data, want, "threads {threads}, len {len}");
            }
        }
    }

    #[test]
    fn matrix_matches_sequential() {
        let (q, db) = sigs();
        let parallel = distance_matrix(&q, &db, 4);
        let serial = distance_matrix(&q, &db, 1);
        assert_eq!(parallel, serial);
        assert_eq!(parallel.len(), q.len() * db.len());
        for (qi, query) in q.iter().enumerate() {
            for (ci, cand) in db.iter().enumerate() {
                assert_eq!(parallel[qi * db.len() + ci], query.distance(cand));
            }
        }
    }

    #[test]
    fn knn_batch_sorted_and_deterministic() {
        let (q, db) = sigs();
        let result = knn_batch(&q, &db, 5, 0);
        assert_eq!(result.len(), q.len());
        for hits in &result {
            assert_eq!(hits.len(), 5);
            for w in hits.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
        assert_eq!(result, knn_batch(&q, &db, 5, 1));
    }

    #[test]
    fn filtered_knn_matches_plain_knn() {
        let (q, db) = sigs();
        for k in [1usize, 3, 7] {
            let plain = knn_batch(&q, &db, k, 2);
            let filtered = knn_batch_filtered(&q, &db, k, 2);
            assert_eq!(filtered.len(), plain.len());
            for ((hits, refined), expect) in filtered.iter().zip(&plain) {
                assert_eq!(hits, expect, "k={k}");
                assert!(*refined <= db.len());
            }
        }
    }

    /// Index into a condensed pairwise vector: the layout
    /// [`pairwise_condensed`] documents.
    fn condensed_index(n: usize, i: usize, j: usize) -> usize {
        assert!(i < j && j < n, "need i < j < n");
        i * (2 * n - i - 1) / 2 + (j - i - 1)
    }

    #[test]
    fn condensed_layout_round_trip() {
        let (q, _) = sigs();
        let condensed = pairwise_condensed(&q, 2);
        let n = q.len();
        assert_eq!(condensed.len(), n * (n - 1) / 2);
        for i in 0..n {
            for j in i + 1..n {
                assert_eq!(
                    condensed[condensed_index(n, i, j)],
                    q[i].distance(&q[j]),
                    "mismatch at ({i}, {j})"
                );
            }
        }
    }

    #[test]
    fn worker_pool_runs_ordered_batches_and_survives_reuse() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        // Repeated fan-outs on one pool — the serving-layer usage shape.
        for round in 0..5u64 {
            let jobs: Vec<_> = (0..17u64).map(|i| move || i * i + round).collect();
            let got = pool.run_ordered(jobs);
            let want: Vec<u64> = (0..17).map(|i| i * i + round).collect();
            assert_eq!(got, want, "round {round}");
        }
        // Fire-and-forget side channel.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.execute(move || tx.send(41 + 1).expect("receiver alive"));
        assert_eq!(rx.recv().expect("job ran"), 42);
    }

    #[test]
    fn worker_pool_single_thread_still_completes() {
        let pool = WorkerPool::new(1);
        let jobs: Vec<_> = (0..8usize).map(|i| move || i * 2).collect();
        assert_eq!(pool.run_ordered(jobs), vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn empty_inputs() {
        let (q, _) = sigs();
        assert!(distance_matrix(&[], &q, 2).is_empty());
        assert!(distance_matrix(&q, &[], 2).is_empty());
        assert!(knn_batch(&[], &q, 3, 2).is_empty());
        assert!(pairwise_condensed(&[], 2).is_empty());
        assert!(pairwise_condensed(&q[..1], 2).is_empty());
    }
}
