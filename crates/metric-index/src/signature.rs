//! NED over node signatures as a [`BoundedMetric`].

use crate::{BoundedMetric, Metric};
use ned_core::NodeSignature;

/// NED over node signatures as a [`BoundedMetric`]: exact distances are
/// `TED*` (a true metric, hence VP-tree-safe), the lower bound is
/// [`NodeSignature::distance_lower_bound`], and budgeted calls run the
/// early-abandoning kernel (`ned_core::ted_star_prepared_within`) — so
/// a [`crate::ShardedVpForest`]'s shared bound cuts computations short
/// *inside* the level sweep, not just between candidates. `u64`
/// distances are exact in `f64` far beyond any real tree size
/// (`< 2^53`).
#[derive(Debug, Clone, Copy, Default)]
pub struct SignatureMetric;

impl Metric<NodeSignature> for SignatureMetric {
    fn distance(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        a.distance(b) as f64
    }
}

impl BoundedMetric<NodeSignature> for SignatureMetric {
    fn lower_bound(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        a.distance_lower_bound(b) as f64
    }

    fn distance_within(&self, a: &NodeSignature, b: &NodeSignature, budget: f64) -> Option<f64> {
        if budget < 0.0 {
            return None;
        }
        // TED* is integral, so flooring the budget changes nothing; the
        // float→int cast saturates, mapping +∞ to u64::MAX (unlimited).
        a.distance_within(b, budget as u64).map(|d| d as f64)
    }
}

/// [`SignatureMetric`] with the budget plumbing disabled: every exact
/// call computes the full distance and filters afterwards (the
/// [`BoundedMetric`] trait default). Same distances, same lower bound,
/// no early abandoning — the reference the bounded path is
/// property-tested and benchmarked against. Not a serving configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnboundedSignatureMetric;

impl Metric<NodeSignature> for UnboundedSignatureMetric {
    fn distance(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        SignatureMetric.distance(a, b)
    }
}

impl BoundedMetric<NodeSignature> for UnboundedSignatureMetric {
    fn lower_bound(&self, a: &NodeSignature, b: &NodeSignature) -> f64 {
        SignatureMetric.lower_bound(a, b)
    }
    // distance_within: deliberately the compute-then-filter default.
}
