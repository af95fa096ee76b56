//! Root-level contract: a delta-updated artifact ranks like a refit of
//! the final corpus, and what it ranks is pinned, bit for bit.
//!
//! `crates/core/tests/delta_prop.rs` holds delta ≡ refit over random
//! delta sequences, but only CI's workspace step runs it; this test puts
//! one fixed batch through `MatchArtifact::apply_delta` on
//! `rank_bits.rs`'s fixture shape so tier-1 cannot go green while the
//! delta path, the refit path or both together move.
//!
//! The constant was recorded on the parent commit (e4f7e5a), the way
//! `train_bits.rs`, `crc_bits.rs`, `resume_bits.rs` and `rank_bits.rs`
//! were pinned.

mod common;

use common::{fixture_rows, hash_results, Rows, DIM, K, TARGETS};

use tdmatch::core::artifact::{AnnSearch, MatchArtifact};
use tdmatch::core::delta::DeltaBatch;
use tdmatch::embed::ann::HnswParams;

const DELTA_HASH: u64 = 0x3433_7C3A_4659_40C9;

/// Two appends (the second with only unknown tokens, so its row is
/// invalid), one update, two tombstones (row 18 is already missing).
/// Rows 54 and 38 sit in the pre-delta top five of queries 1, 4 and 6,
/// so the batch is visible in the pinned ranking.
fn batch() -> DeltaBatch {
    DeltaBatch::new()
        .append(["gamma", "alpha", "nope"])
        .tombstone(54)
        .append(["nope", "nada"])
        .update(38, ["epsilon", "beta", "beta"])
        .tombstone(18)
}

/// The batch's effect on the row lists, through an independent
/// mean-of-known-terms aggregation (summed in token order) — the way
/// `delta_prop.rs::refit` builds its reference, not through
/// `MatchArtifact::embed_tokens`.
fn final_rows(terms: &[(String, Vec<f32>)], mut first: Rows) -> Rows {
    let embed = |tokens: &[&str]| -> Option<Vec<f32>> {
        let mut sum = [0.0f32; DIM];
        let mut hits = 0usize;
        for tok in tokens {
            if let Some((_, v)) = terms.iter().find(|(label, _)| label == tok) {
                for (s, x) in sum.iter_mut().zip(v) {
                    *s += x;
                }
                hits += 1;
            }
        }
        (hits > 0).then(|| sum.iter().map(|s| s * (1.0 / hits as f32)).collect())
    };
    first.push(embed(&["gamma", "alpha", "nope"]));
    first[54] = None;
    first.push(embed(&["nope", "nada"]));
    first[38] = embed(&["epsilon", "beta", "beta"]);
    first[18] = None;
    first
}

#[test]
fn a_delta_updated_artifact_is_pinned_and_equals_a_refit() {
    let (terms, first, second) = fixture_rows();
    let mut updated = MatchArtifact::new(DIM, terms.clone(), first.clone(), second.clone());
    updated.build_ann(&HnswParams::default());
    let before = updated.match_top_k(K);
    let summary = updated.apply_delta(&batch()).expect("every target is in bounds");
    assert_eq!(
        (summary.appended, summary.updated, summary.tombstoned, summary.rows),
        (2, 1, 2, TARGETS + 2)
    );

    let ranked = updated.match_top_k(K);
    assert_eq!(hash_results(&ranked), DELTA_HASH, "delta-updated exact scan, k = {K}");
    assert_ne!(ranked, before, "the batch must be visible in the ranking");

    let refit = MatchArtifact::new(DIM, terms.clone(), final_rows(&terms, first), second);
    assert_eq!(updated.first_matrix(), refit.first_matrix(), "target matrix bits");
    assert_eq!(ranked, refit.match_top_k(K), "delta ≡ refit");

    // The incrementally updated index keeps full-pool ANN ≡ exact.
    let rows = TARGETS + 2;
    let search = Some(AnnSearch { pool: rows, ef: rows });
    assert_eq!(ranked, updated.rank(updated.second_matrix(), K, search).0);
}
