//! Per-level reports over ephemeral trees must not grow the process-wide
//! [`SignatureInterner`]: `ted_star_report`, the edit summary behind
//! `ned-cli explain`, and the weighted distances canonicalize per call,
//! like `ted_star_within`, instead of interning every subtree through
//! `PreparedTree::new`.
//!
//! Its own test binary, because the interner is process-wide: no other
//! test may intern while this one counts.

use ned_core::edit_script::explain;
use ned_core::weighted::{root_heavy_weights, ted_upper_bound, weighted_ted_star};
use ned_core::{ted_star, ted_star_report};
use ned_tree::generate::random_bounded_depth_tree;
use ned_tree::SignatureInterner;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn reports_leave_the_global_interner_untouched() {
    let mut rng = SmallRng::seed_from_u64(0x1A7E);
    let pairs: Vec<_> = (0..300)
        .map(|_| {
            (
                random_bounded_depth_tree(40, 5, &mut rng),
                random_bounded_depth_tree(40, 5, &mut rng),
            )
        })
        .collect();
    let interner = SignatureInterner::global();
    let before = interner.len();
    for (a, b) in &pairs {
        let report = ted_star_report(a, b);
        assert_eq!(report.distance, ted_star(a, b));
        assert_eq!(explain(a, b).distance, report.distance);
        assert!(ted_upper_bound(a, b) >= report.distance as f64);
        let _ = weighted_ted_star(a, b, root_heavy_weights(0.5));
    }
    assert_eq!(
        interner.len(),
        before,
        "reports interned {} classes into the global interner",
        interner.len() - before
    );
}
