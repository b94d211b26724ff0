//! **Incremental signature maintenance** for a live index tracking a
//! mutating graph: [`GraphMaintainer`] turns [`GraphDelta`] batches into
//! minimal [`WriteOp`] batches against an [`IndexWriter`], so a serving
//! index follows edge churn without full rebuilds.
//!
//! Per delta batch the maintainer:
//!
//! 1. applies each delta to its private [`DynamicGraph`], collecting the
//!    **dirty candidates** — for an edge flip, the nodes within `k − 1`
//!    hops of both endpoints at unequal distances to them, found by two
//!    truncated BFS runs in the graph variant that contains the edge (see
//!    `ned_graph::delta` for why no other node's tree can change);
//! 2. recomputes only the candidates' signatures through the shared-work
//!    bulk pipeline ([`SignatureFactory`]), reading the live adjacency
//!    with one kept-alive extractor — so a flip copies no graph and
//!    rebuilds no scratch, and a flip that returns a neighborhood to a
//!    previously seen shape is a pure cache hit;
//! 3. diffs each candidate's interned root class against the maintained
//!    class vector: equal class ⇔ isomorphic tree ⇔ bit-identical
//!    signature, so the emitted [`WriteOp::Replace`] set is **exactly**
//!    the set of changed signatures (pinned by the incremental-vs-rebuild
//!    property tests);
//! 4. applies the whole batch through [`IndexWriter::apply`] — one atomic
//!    publication, so readers observe each delta batch as one epoch.

use crate::concurrent::{IndexWriter, WriteOp, WriteOutcome};
use crate::signatures::SignatureIndex;
use ned_core::{BulkSignatureExtractor, SignatureFactory};
use ned_graph::{DynamicGraph, Graph, GraphDelta, NodeId};
use std::collections::BTreeSet;

/// Sentinel for "this node has no index id (yet)".
const NO_ID: u64 = u64::MAX;

/// What one delta batch did to the index. All counts are per batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaReport {
    /// Deltas that actually changed the graph (no-ops excluded).
    pub applied: usize,
    /// Dirty-set candidates whose signatures were recomputed.
    pub candidates: usize,
    /// Candidates whose signature really changed ([`WriteOp::Replace`]s
    /// emitted) — exactly the changed-signature set.
    pub replaced: usize,
    /// Signatures of newly added nodes inserted.
    pub inserted: usize,
    /// Signatures of removed nodes dropped.
    pub removed: usize,
}

impl std::fmt::Display for DeltaReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "applied={} dirty={} replaced={} inserted={} removed={}",
            self.applied, self.candidates, self.replaced, self.inserted, self.removed
        )
    }
}

/// Tracks one mutating graph against the signature index that serves it.
/// See the [module docs](self).
pub struct GraphMaintainer {
    graph: DynamicGraph,
    k: usize,
    threads: usize,
    /// Extraction scratch kept across batches (it shares the factory's
    /// shape table and signature cache).
    extractor: BulkSignatureExtractor,
    /// `ids[v]` = index id of node `v`'s signature (`NO_ID` for retired
    /// nodes and not-yet-inserted additions).
    ids: Vec<u64>,
    /// `classes[v]` = interned root class of the currently indexed
    /// signature of `v` — the change detector.
    classes: Vec<u32>,
    alive: Vec<bool>,
}

impl GraphMaintainer {
    /// Attaches to `graph` (undirected), whose nodes are indexed under
    /// ids `first_id + v` — the id layout
    /// [`SignatureIndex::insert_graph`] produces. `k` must match the
    /// index; `threads` bounds the recompute fan-out (`0` = all cores).
    ///
    /// Attachment runs one bulk class pass over the graph to seed the
    /// change detector.
    pub fn attach(graph: &Graph, k: usize, first_id: u64, threads: usize) -> Self {
        let factory = SignatureFactory::new();
        let nodes: Vec<NodeId> = graph.nodes().collect();
        let classes = factory.root_classes(graph, &nodes, k, threads);
        GraphMaintainer {
            graph: DynamicGraph::from_graph(graph),
            k,
            threads,
            extractor: factory.extractor(),
            ids: nodes.iter().map(|&v| first_id + u64::from(v)).collect(),
            classes,
            alive: vec![true; nodes.len()],
        }
    }

    /// The signature parameter this maintainer recomputes at.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Node slots (including retired ones).
    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// Live undirected edges.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// Whether `v` is a live node.
    pub fn is_alive(&self, v: NodeId) -> bool {
        (v as usize) < self.alive.len() && self.alive[v as usize]
    }

    /// The tracked graph (current state, mutable only through
    /// [`GraphMaintainer::apply`]).
    pub fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    /// Checks that `index` really serves this maintainer's graph: every
    /// live node's id must be indexed with a signature of the maintained
    /// root class (one pass over the index entries). Catches attaching
    /// the wrong graph file to a server before churn corrupts the index.
    pub fn verify_against(&self, index: &SignatureIndex) -> Result<(), String> {
        if index.k() != self.k {
            return Err(format!(
                "index k = {} but the tracked graph is maintained at k = {}",
                index.k(),
                self.k
            ));
        }
        let by_id: std::collections::HashMap<u64, u32> = index
            .entries()
            .map(|(id, sig)| (id, sig.prepared().root_class()))
            .collect();
        for v in 0..self.alive.len() {
            if !self.alive[v] {
                continue;
            }
            match by_id.get(&self.ids[v]) {
                None => {
                    return Err(format!(
                        "node {v} (id {}) is not indexed — wrong graph for this index?",
                        self.ids[v]
                    ))
                }
                Some(&class) if class != self.classes[v] => {
                    return Err(format!(
                        "node {v} (id {}) is indexed with a different neighborhood shape — \
                         wrong graph for this index?",
                        self.ids[v]
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Applies a delta batch: mutates the tracked graph, recomputes
    /// exactly the dirty candidates, and pushes the resulting minimal
    /// write batch through `writer` as **one** atomic publication (the
    /// epoch advances once per call, even for an all-no-op batch).
    pub fn apply(&mut self, deltas: &[GraphDelta], writer: &mut IndexWriter) -> DeltaReport {
        let MaterializedBatch {
            report,
            ops,
            insert_from,
            added,
        } = self.materialize(deltas);
        let outcomes = writer.apply(ops);
        let ids = outcomes[insert_from..].iter().map(|o| match o {
            WriteOutcome::Inserted(id) => *id,
            other => unreachable!("insert op answered {other:?}"),
        });
        self.commit_inserted(&added, ids);
        report
    }

    /// The first half of [`GraphMaintainer::apply`]: mutates the tracked
    /// graph and materializes the minimal write batch **without applying
    /// it anywhere** — the seam a shard router needs, because its write
    /// batch must be partitioned by owning shard (and its `Insert`s
    /// converted to explicit-id puts) before anything executes.
    ///
    /// The maintainer's shadow state (graph, classes, liveness) is
    /// updated eagerly by this call; newly added nodes stay id-less until
    /// [`GraphMaintainer::commit_inserted`] runs. If the caller fails to
    /// apply the batch (a shard write fails partway), this maintainer's
    /// state no longer matches the index — **discard it** and re-attach,
    /// exactly as the server detaches a tracked graph on a failed delta.
    pub fn materialize(&mut self, deltas: &[GraphDelta]) -> MaterializedBatch {
        let radius = self.k.saturating_sub(1);
        let mut report = DeltaReport::default();
        let mut candidates: BTreeSet<NodeId> = BTreeSet::new();
        let mut added: Vec<NodeId> = Vec::new();
        let mut ops: Vec<WriteOp> = Vec::new();
        for &delta in deltas {
            // Deltas naming a retired node are no-ops, not panics — and
            // crucially an edge touching a retired endpoint must NOT
            // land, or the "removed" node's subtree would reappear inside
            // its neighbors' signatures while staying unindexed itself.
            match delta {
                GraphDelta::RemoveNode(v) if !self.is_alive(v) => continue,
                GraphDelta::AddEdge(a, b) | GraphDelta::RemoveEdge(a, b)
                    if !self.is_alive(a) || !self.is_alive(b) =>
                {
                    continue
                }
                _ => {}
            }
            let effect = self.graph.apply(delta, radius);
            if !effect.applied {
                continue;
            }
            report.applied += 1;
            match delta {
                GraphDelta::AddNode => {
                    let v = effect.added_node.expect("AddNode reports its node");
                    debug_assert_eq!(v as usize, self.ids.len());
                    self.ids.push(NO_ID);
                    self.classes.push(u32::MAX);
                    self.alive.push(true);
                    added.push(v);
                }
                GraphDelta::RemoveNode(v) => {
                    candidates.extend(effect.candidates);
                    candidates.remove(&v);
                    self.alive[v as usize] = false;
                    self.classes[v as usize] = u32::MAX;
                    if self.ids[v as usize] == NO_ID {
                        // Added and removed within this very batch.
                        added.retain(|&u| u != v);
                    } else {
                        ops.push(WriteOp::Remove(self.ids[v as usize]));
                        self.ids[v as usize] = NO_ID;
                        report.removed += 1;
                    }
                }
                GraphDelta::AddEdge(..) | GraphDelta::RemoveEdge(..) => {
                    candidates.extend(effect.candidates);
                }
            }
        }
        // Batch-final state decides: drop candidates that died or that
        // are this batch's additions (those get fresh inserts below).
        let cand_vec: Vec<NodeId> = candidates
            .into_iter()
            .filter(|&v| self.is_alive(v) && self.ids[v as usize] != NO_ID)
            .collect();
        report.candidates = cand_vec.len();
        let sigs = self
            .extractor
            .signatures(&self.graph, &cand_vec, self.k, self.threads);
        for (&v, sig) in cand_vec.iter().zip(sigs) {
            let class = sig.prepared().root_class();
            if class != self.classes[v as usize] {
                self.classes[v as usize] = class;
                ops.push(WriteOp::Replace(self.ids[v as usize], sig));
                report.replaced += 1;
            }
        }
        let insert_from = ops.len();
        let added_sigs = self
            .extractor
            .signatures(&self.graph, &added, self.k, self.threads);
        for (&v, sig) in added.iter().zip(added_sigs) {
            self.classes[v as usize] = sig.prepared().root_class();
            ops.push(WriteOp::Insert(sig));
            report.inserted += 1;
        }
        MaterializedBatch {
            report,
            ops,
            insert_from,
            added,
        }
    }

    /// The second half of [`GraphMaintainer::apply`]: records the index
    /// ids assigned to the batch's newly added nodes. `added` is the
    /// [`MaterializedBatch::added`] vector and `ids` must yield one id
    /// per node **in the same order** — the order the batch's `Insert`
    /// ops appear at `ops[insert_from..]`.
    pub fn commit_inserted(&mut self, added: &[NodeId], ids: impl IntoIterator<Item = u64>) {
        let mut ids = ids.into_iter();
        for &v in added {
            let id = ids
                .next()
                .expect("one assigned id per added node, in batch order");
            self.ids[v as usize] = id;
        }
        assert!(ids.next().is_none(), "more ids than added nodes");
    }
}

/// The write batch one delta batch materializes to, before it is applied
/// anywhere — see [`GraphMaintainer::materialize`].
#[derive(Debug)]
pub struct MaterializedBatch {
    /// What the batch did (its `inserted`/`removed`/`replaced` counts
    /// describe the ops below).
    pub report: DeltaReport,
    /// The minimal write batch, `Remove`/`Replace` first, then `Insert`s.
    pub ops: Vec<WriteOp>,
    /// `ops[insert_from..]` are the `Insert` ops, one per entry of
    /// `added`, in order.
    pub insert_from: usize,
    /// Nodes added by this batch, in `Insert`-op order. Their ids are
    /// unassigned until [`GraphMaintainer::commit_inserted`].
    pub added: Vec<NodeId>,
}

impl std::fmt::Debug for GraphMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GraphMaintainer")
            .field("graph", &self.graph)
            .field("k", &self.k)
            .field("live", &self.alive.iter().filter(|&&a| a).count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::concurrent::ConcurrentNedIndex;
    use ned_graph::generators;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn setup(k: usize) -> (Graph, GraphMaintainer, crate::IndexReader, IndexWriter) {
        let mut rng = SmallRng::seed_from_u64(77);
        let g = generators::barabasi_albert(80, 2, &mut rng);
        let mut index = SignatureIndex::new(k, 16, 5);
        index.insert_graph(&g, &g.nodes().collect::<Vec<_>>());
        let maintainer = GraphMaintainer::attach(&g, k, 0, 1);
        maintainer.verify_against(&index).expect("fresh attach");
        let (writer, reader) = ConcurrentNedIndex::split(index);
        (g, maintainer, reader, writer)
    }

    #[test]
    fn edge_flip_round_trips_to_the_original_index() {
        let (g, mut m, reader, mut writer) = setup(3);
        let before: Vec<_> = {
            let snap = reader.snapshot();
            let mut e: Vec<_> = snap.entries().map(|(id, s)| (id, s.clone())).collect();
            e.sort_by_key(|&(id, _)| id);
            e
        };
        // pick a non-edge
        let (a, b) = (0u32, 79u32);
        assert!(!g.has_edge(a, b));
        let r1 = m.apply(&[GraphDelta::AddEdge(a, b)], &mut writer);
        assert_eq!(r1.applied, 1);
        assert!(r1.replaced > 0, "{r1:?}");
        assert_eq!(reader.epoch(), 1, "one batch, one epoch");
        let r2 = m.apply(&[GraphDelta::RemoveEdge(a, b)], &mut writer);
        assert_eq!(reader.epoch(), 2);
        assert_eq!(r1.replaced, r2.replaced, "flip back replaces the same set");
        let after: Vec<_> = {
            let snap = reader.snapshot();
            let mut e: Vec<_> = snap.entries().map(|(id, s)| (id, s.clone())).collect();
            e.sort_by_key(|&(id, _)| id);
            e
        };
        assert_eq!(before, after, "net-zero churn restores every signature");
    }

    #[test]
    fn node_lifecycle() {
        let (_, mut m, reader, mut writer) = setup(3);
        let report = m.apply(
            &[GraphDelta::AddNode, GraphDelta::AddEdge(80, 0)],
            &mut writer,
        );
        assert_eq!(report.inserted, 1);
        assert!(report.replaced > 0, "0's neighborhood changed: {report:?}");
        assert_eq!(reader.len(), 81);
        let snap = reader.snapshot();
        let new_sig = snap.get(80).expect("new node indexed");
        assert_eq!(
            new_sig.tree().len(),
            ned_core::NodeSignature::extract(&m.graph().to_graph(), 80, 3)
                .tree()
                .len()
        );
        let report = m.apply(&[GraphDelta::RemoveNode(80)], &mut writer);
        assert_eq!(report.removed, 1);
        assert_eq!(reader.len(), 80);
        // removing again is a no-op batch, still one publication
        let epoch = reader.epoch();
        let report = m.apply(&[GraphDelta::RemoveNode(80)], &mut writer);
        assert_eq!(report.applied, 0);
        assert_eq!(reader.epoch(), epoch + 1);
    }

    #[test]
    fn edge_deltas_on_retired_nodes_are_no_ops() {
        let (_, mut m, reader, mut writer) = setup(3);
        m.apply(&[GraphDelta::RemoveNode(5)], &mut writer);
        assert!(!m.is_alive(5));
        // Edges naming the retired node must not land: the node would
        // reappear inside neighbors' signatures while staying unindexed.
        let report = m.apply(
            &[GraphDelta::AddEdge(5, 0), GraphDelta::RemoveEdge(5, 0)],
            &mut writer,
        );
        assert_eq!(report.applied, 0, "{report:?}");
        assert!(m.graph().neighbors(5).is_empty());
        // Served state equals a from-scratch rebuild without node 5.
        let current = m.graph().to_graph();
        let snap = reader.snapshot();
        for v in (0..80u32).filter(|&v| v != 5) {
            let want = ned_core::NodeSignature::extract(&current, v, 3);
            assert_eq!(
                snap.get(u64::from(v)).expect("indexed").prepared(),
                want.prepared(),
                "node {v}"
            );
        }
        assert!(snap.get(5).is_none());
    }

    #[test]
    fn add_then_remove_node_in_one_batch_is_clean() {
        let (_, mut m, reader, mut writer) = setup(2);
        let report = m.apply(
            &[
                GraphDelta::AddNode,
                GraphDelta::AddEdge(80, 1),
                GraphDelta::RemoveNode(80),
            ],
            &mut writer,
        );
        assert_eq!(report.inserted, 0, "{report:?}");
        assert_eq!(report.removed, 0, "{report:?}");
        assert_eq!(reader.len(), 80);
        assert_eq!(reader.epoch(), 1);
    }

    #[test]
    fn verify_against_rejects_a_different_graph() {
        let mut rng = SmallRng::seed_from_u64(78);
        let g1 = generators::barabasi_albert(50, 2, &mut rng);
        let g2 = generators::erdos_renyi_gnm(50, 100, &mut rng);
        let mut index = SignatureIndex::new(3, 16, 5);
        index.insert_graph(&g1, &g1.nodes().collect::<Vec<_>>());
        assert!(GraphMaintainer::attach(&g2, 3, 0, 1)
            .verify_against(&index)
            .is_err());
        assert!(GraphMaintainer::attach(&g1, 4, 0, 1)
            .verify_against(&index)
            .is_err());
        assert!(GraphMaintainer::attach(&g1, 3, 0, 1)
            .verify_against(&index)
            .is_ok());
    }
}
