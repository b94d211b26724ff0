//! The NED serving index: a persistent, concurrent, replicated k-NN
//! service over node signatures.
//!
//! [`SignatureIndex`] keeps the live set in a [`SketchBank`] and answers
//! knn and range queries by filter-and-refine: a provable sketch lower
//! bound on NED orders the rows, and the budgeted TED\* kernel refines
//! them. Around it sit the concurrent snapshot layer
//! ([`ConcurrentNedIndex`]), write-ahead durability ([`DurableIndex`]),
//! incremental graph maintenance ([`GraphMaintainer`]), the NEDWIRE1
//! shard server ([`NedServer`]) and the scatter-gather shard router
//! ([`ShardRouter`]), both served through one framed front end
//! ([`front`]). Every query returns [`ned_core::WireHit`]s sorted
//! by `(distance, id)`.
//!
//! The paper's generic metric access methods (VP-tree, BK-tree,
//! filter-and-refine) live in `ned-metric-index`; this crate does not
//! depend on them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod concurrent;
pub mod durable;
pub mod fleet;
pub mod front;
pub mod maintain;
pub mod router;
pub mod server;
pub mod signatures;
pub mod sketch;
mod topk;

pub use concurrent::{ConcurrentNedIndex, IndexReader, IndexWriter, WriteOp, WriteOutcome};
pub use durable::{DurableError, DurableIndex, DurableOptions, RecoveryReport};
pub use fleet::{split_index, ShardProcess};
pub use front::{ServerConfig, Service};
pub use maintain::{DeltaReport, GraphMaintainer, MaterializedBatch};
pub use router::{FleetHits, RouterOptions, RouterServer, ShardMap, ShardRouter};
pub use server::{NedServer, WireClient, WireClientBuilder};
pub use signatures::SignatureIndex;
pub use sketch::{Sketch, SketchBank, SketchStats};
