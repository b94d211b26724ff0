//! The correctness gate. A run is correct only if
//!
//! * a seeded sample of knn replies equals, id for id and bit for bit in
//!   the distance, an in-process `SignatureIndex::scan` over the same
//!   index file, and
//! * the server ends with the live-set fingerprint it started with (the
//!   write stream is net-zero), and its epoch advanced by exactly the
//!   writes it acknowledged.
//!
//! A mismatch makes the run incorrect; it is not an operation error and
//! does not count in `ok_frac`.

use crate::load::Reply;
use crate::Ctx;
use rand::Rng;

/// knn replies compared against the full scan per round.
const SAMPLES: usize = 4;

/// Checks the end state and a sample of `replies` (probe indexes refer
/// to the run's timed knn stream). Returns the mismatches found.
pub fn check(ctx: &Ctx, replies: &[Reply]) -> Result<Vec<String>, String> {
    let mut bad = Vec::new();
    let (b, a) = (ctx.start_print, crate::proc::fingerprint(&ctx.server.addr)?);
    if (a.1, a.2) != (b.1, b.2) {
        bad.push(format!(
            "live set changed (len {} -> {}, fingerprint {:016x} -> {:016x})",
            b.1, a.1, b.2, a.2
        ));
    }
    if a.0 != b.0 + ctx.acked_writes {
        bad.push(format!(
            "epoch went from {} to {} but {} writes were acknowledged",
            b.0, a.0, ctx.acked_writes
        ));
    }
    // Writes come in net-zero pairs, so replies at an even distance from
    // the start epoch were computed on the starting live set.
    let base = b.0;
    let eligible: Vec<&Reply> = replies
        .iter()
        .filter(|r| r.epoch >= base && (r.epoch - base).is_multiple_of(2))
        .collect();
    if eligible.is_empty() {
        bad.push("no knn reply was computed on the starting live set".into());
    }
    let mut rng = crate::inputs::rng(ctx.args.seed, 4);
    for _ in 0..SAMPLES.min(eligible.len()) {
        let reply = eligible[rng.gen_range(0..eligible.len())];
        let expected = ctx
            .index
            .scan(&ctx.knn_sig(reply.probe), crate::inputs::TOP);
        let same = expected.len() == reply.hits.len()
            && expected
                .iter()
                .zip(&reply.hits)
                .all(|(e, h)| e.id == h.id && e.distance.to_bits() == h.distance.to_bits());
        if !same {
            bad.push(format!(
                "knn probe {} at epoch {}: served {:?}, full scan {:?}",
                reply.probe, reply.epoch, reply.hits, expected
            ));
        }
    }
    Ok(bad)
}
