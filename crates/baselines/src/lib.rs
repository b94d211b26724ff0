//! Competitor inter-graph node similarity measures (Section 2 / Section 13.4).
//!
//! The paper compares NED against the two families of methods that can
//! compare nodes *across* graphs without labels:
//!
//! * [`hits`] — the HITS-based similarity of Blondel et al. \[4\]: iterate
//!   `S ← B·S·Aᵀ + Bᵀ·S·A` over a similarity matrix between the two
//!   (neighborhood) graphs. Not a metric, and slow — the matrix iteration
//!   must converge per pair.
//! * [`features`] — Feature-based similarity: ReFeX-style recursive
//!   structural features \[9\], with NetSimile \[3\] / OddBall \[1\] ego-net
//!   features as the recursion-depth-0 special case. Fast, but ad-hoc:
//!   two topologically different neighborhoods can map to identical
//!   feature vectors, and the distance is not a metric.
//!
//! Both implementations follow the cited constructions as described in the
//! NED paper; see ARCHITECTURE.md, "Baseline scoping", for the per-pair
//! neighborhood scoping choice for HITS.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod features;
pub mod graphlets;
pub mod hits;
pub mod setsim;
pub mod simrank;
