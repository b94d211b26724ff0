//! Graph substrate for the NED reproduction.
//!
//! The paper evaluates NED on six real-world graphs (road networks,
//! co-purchase, collaboration, P2P, and web-of-trust graphs). This crate
//! provides everything those experiments need below the metric itself:
//!
//! * [`Graph`] / [`GraphBuilder`] — compact CSR adjacency for undirected
//!   and directed graphs.
//! * [`bfs`] — breadth-first search, the paper's *k-adjacent tree*
//!   extraction (Definition 1, and Definition 2 for directed graphs), and
//!   k-hop neighborhood subgraph extraction.
//! * [`bulk`] — shared-work bulk extraction: all-nodes k-adjacent tree
//!   canonization on flat scratch, hash-consing shapes bottom-up.
//! * [`delta`] — dynamic graphs: [`GraphDelta`] edits with truncated-BFS
//!   dirty sets for incremental signature maintenance.
//! * [`generators`] — seeded random-graph models used as stand-ins for the
//!   paper's datasets (see ARCHITECTURE.md, "Dataset substitutions", for
//!   the substitution table).
//! * [`anonymize`] — the three anonymization schemes of the
//!   de-anonymization case study (naive, sparsification, perturbation).
//! * [`exact_ged`] — exponential exact graph edit distance on small
//!   neighborhood subgraphs (the GED baseline of Figures 5–6).
//! * [`io`] — whitespace-separated edge-list reading/writing.
//! * [`stats`] — summary statistics (Table 2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod anonymize;
pub mod bfs;
mod builder;
pub mod bulk;
pub mod delta;
mod error;
pub mod exact_ged;
pub mod generators;
mod graph;
pub mod io;
pub mod stats;

pub use builder::GraphBuilder;
pub use bulk::BulkExtractor;
pub use delta::{DeltaEffect, DynamicGraph, GraphDelta};
pub use error::GraphError;
pub use graph::{Adjacency, Direction, Graph, NodeId};
