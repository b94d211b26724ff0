//! **NED** — an inter-graph node metric based on edit distance, and
//! **TED\*** — the metric, polynomially-computable modified tree edit
//! distance it is built on.
//!
//! Reproduction of: Haohan Zhu, Xianrui Meng, George Kollios,
//! *"NED: An Inter-Graph Node Metric Based On Edit Distance"*
//! (arXiv:1602.02358, VLDB 2017).
//!
//! # The metric in one paragraph
//!
//! To compare node `u` of graph `G_u` with node `v` of graph `G_v`, extract
//! each node's unordered, unlabeled **k-adjacent tree** (the top `k` levels
//! of its BFS tree — `ned_graph::bfs`); then
//! `NED_k(u, v) = TED*(T(u,k), T(v,k))` (Equation 1). TED\* restricts the
//! classic tree edit operations to three depth-preserving ones — *insert a
//! leaf*, *delete a leaf*, *move a node within its level* — which makes the
//! distance computable in `O(k·n³)` (Section 9) while keeping all four
//! metric axioms (Section 7). Classic unordered TED is NP-complete, so this
//! trade-off is what makes metric indexing and interpretable values
//! possible at all.
//!
//! # Quick start
//!
//! ```
//! use ned_graph::Graph;
//! use ned_core::ned;
//!
//! // A 4-cycle and a 4-star: how similar are their "centers"?
//! let cycle = Graph::undirected_from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
//! let star = Graph::undirected_from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
//! let d = ned(&cycle, 0, &star, 0, 3);
//! assert!(d > 0); // different 3-level neighborhood topologies
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod align;
pub mod batch;
pub mod bulk;
pub mod edit_script;
pub mod hausdorff;
pub mod memo;
mod ned;
pub mod proto;
pub mod reference;
pub mod store;
mod ted_kernel;
mod ted_star;
pub mod wal;
pub mod weighted;
pub mod wire;

pub use batch::WorkerPool;
pub use bulk::{bulk_signatures, BulkSignatureExtractor, SignatureFactory};
pub use memo::{MemoStats, TedMemo};
pub use ned::{
    equivalence_classes, ned, ned_directed, ned_profile, ned_with_extractors, signatures,
    NodeSignature, SignatureExtractor,
};
pub use proto::{Request, Response, ServerError, WireHit};
pub use ted_star::{
    ted_star, ted_star_class_lower_bound, ted_star_degree_lower_bound, ted_star_lower_bound,
    ted_star_prepared, ted_star_prepared_profiled, ted_star_prepared_report,
    ted_star_prepared_within, ted_star_report, ted_star_summary_lower_bound, ted_star_within,
    KernelProfile, LevelCosts, PreparedTree, SweepPhase, TedStarReport,
};
