//! # NED — an inter-graph node metric based on edit distance
//!
//! Umbrella crate for the reproduction of Zhu, Meng, Kollios:
//! *"NED: An Inter-Graph Node Metric Based On Edit Distance"*
//! (arXiv:1602.02358, VLDB 2017). It re-exports the workspace crates and
//! the most commonly used items; see the individual crates for the full
//! APIs:
//!
//! * [`tree`] (`ned-tree`) — unordered rooted trees, AHU isomorphism,
//!   exact (exponential) unordered tree edit distance.
//! * [`matching`] (`ned-matching`) — Hungarian bipartite matching.
//! * [`graph`] (`ned-graph`) — CSR graphs, BFS, k-adjacent tree
//!   extraction, generators, anonymization, exact GED.
//! * [`core`] (`ned-core`) — TED\*, weighted TED\*, NED, directed NED,
//!   Hausdorff graph distance, edit-script summaries.
//! * [`baselines`] (`ned-baselines`) — HITS-based and Feature-based
//!   similarities.
//! * [`index`] — both index crates under one path: `ned-index`, the
//!   serving layer around the persistent [`index::SignatureIndex`]
//!   (sketch bank, WAL durability, server, shard router), and
//!   `ned-metric-index`, the paper's metric access methods
//!   ([`index::VpTree`], BK-tree, filter-and-refine).
//! * [`datasets`] (`ned-datasets`) — the six Table 2 dataset stand-ins.
//!
//! ## Quick start
//!
//! ```
//! use ned::prelude::*;
//!
//! // Two graphs that never shared a node id:
//! let road = ned::datasets::Dataset::CaRoad.generate(0.001, 7);
//! let social = ned::datasets::Dataset::Pgp.generate(0.05, 7);
//!
//! // How structurally similar are their node neighborhoods?
//! let d = ned(&road, 0, &social, 0, 4);
//! assert!(d > 0, "a road intersection should not look like a PGP key");
//!
//! // NED is a metric: identical neighborhoods are distance 0.
//! assert_eq!(ned(&road, 0, &road, 0, 4), 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use ned_baselines as baselines;
pub use ned_core as core;
pub use ned_datasets as datasets;
pub use ned_graph as graph;
pub use ned_matching as matching;
pub use ned_tree as tree;

/// Metric indexing over NED: the serving index (`ned-index`) and the
/// paper's metric access methods (`ned-metric-index`), re-exported
/// side by side.
pub mod index {
    pub use ned_index::*;
    pub use ned_metric_index::*;
}

/// The items most programs need.
pub mod prelude {
    pub use ned_core::{
        ned, ned_directed, ned_profile, signatures, ted_star, NodeSignature, PreparedTree,
    };
    pub use ned_graph::bfs::{k_adjacent_tree, TreeExtractor};
    pub use ned_graph::{Graph, GraphBuilder, NodeId};
    pub use ned_index::SignatureIndex;
    pub use ned_metric_index::{FnMetric, Metric, VpTree};
    pub use ned_tree::{Tree, TreeBuilder};
}
